//! The benchmark's own contract, checked on smoke-size runs:
//!
//! - every workload prints exactly the metric names `BENCHMARK.json`
//!   lists (end-to-end untraced, per-layer traced), with its units;
//! - two runs with the same seed give identical simulated metrics and
//!   counts;
//! - a different seed changes the generated inputs.

use std::collections::BTreeSet;
use std::path::PathBuf;

use serde_json::Value;
use windbench::report::{self, E2E, LAYERS};
use windbench::{offline, Args, WORKLOADS};

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or_default();
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn smoke(workload: &str, seed: u64, trace: bool) -> Args {
    Args {
        workload: workload.to_string(),
        seed,
        seconds: 0.3,
        trace,
        smoke: true,
        spans_dir: std::env::temp_dir(),
    }
}

/// Runs a smoke-size workload and returns its parsed result line.
fn result_line(args: &Args) -> Value {
    let (outcome, _) = windbench::run(args).unwrap_or_else(|f| panic!("{}: {f}", args.workload));
    let (_, line) = report::render(&outcome, args.trace).expect("every metric measured");
    serde_json::from_str(&line).expect("the result line is JSON")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn registry_matches_benchmark_json() {
    let doc = benchmark_json();
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&doc, "end_to_end"), own(E2E));
    assert_eq!(listed(&doc, "per_layer"), own(LAYERS));
    let workloads: Vec<&str> = doc["workloads"]
        .as_array()
        .expect("workloads list")
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for (name, _) in E2E.iter().chain(LAYERS) {
        assert!(valid_name(name), "bad metric name {name:?}");
    }
}

#[test]
fn every_workload_prints_exactly_the_listed_metrics() {
    let doc = benchmark_json();
    for workload in WORKLOADS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let line = result_line(&smoke(workload, 7, trace));
            assert_eq!(line["correct"].as_bool(), Some(true));
            assert!(line["attempted"].as_u64().unwrap_or(0) >= 1);
            let metrics = line["metrics"].as_object().expect("metrics object");
            let printed: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
            let want: Vec<(String, String)> = listed(&doc, key);
            let names: BTreeSet<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(printed, names, "{workload} trace={trace}");
            for (name, unit) in &want {
                assert!(valid_name(name));
                let got = metrics
                    .get(name)
                    .and_then(|m| m.get("unit"))
                    .and_then(Value::as_str);
                assert_eq!(got, Some(unit.as_str()), "{workload}: unit of {name}");
            }
        }
    }
}

/// Simulated metrics and counts of a line: everything but host time.
fn simulated(line: &Value, host_timed: &[&str]) -> Vec<(String, String)> {
    let mut out = vec![
        ("attempted".to_string(), line["attempted"].to_string()),
        ("failed".to_string(), line["failed"].to_string()),
    ];
    for (name, v) in line["metrics"].as_object().expect("metrics").iter() {
        if !host_timed.iter().any(|h| name.starts_with(h)) {
            out.push((name.clone(), v["value"].to_string()));
        }
    }
    out
}

#[test]
fn same_seed_gives_identical_simulated_metrics() {
    // Host-measured metrics (times, memory, CPU) legitimately differ
    // between runs; everything simulated or counted must not.
    let host_timed = [
        "setup_s",
        "peak_rss_mb",
        "host_req_per_s",
        "host.",
        "sim.ns_per_event",
        "core.new_s",
        "core.run_s",
        "metrics.summarize_s",
        "workload.generate_s",
        "trace.overhead_share",
        "trace.export_s",
    ];
    for workload in ["paper-sweep", "chat-sessions"] {
        for trace in [false, true] {
            let a = result_line(&smoke(workload, 11, trace));
            let b = result_line(&smoke(workload, 11, trace));
            assert_eq!(
                simulated(&a, &host_timed),
                simulated(&b, &host_timed),
                "{workload} trace={trace}"
            );
        }
    }
}

#[test]
fn a_different_seed_changes_the_generated_trace() {
    for (a, b) in [
        (offline::paper_sweep(1, true), offline::paper_sweep(2, true)),
        (
            offline::chat_sessions(1, true),
            offline::chat_sessions(2, true),
        ),
    ] {
        let gen = |w: &offline::Workload| -> Vec<_> {
            w.scenarios
                .iter()
                .map(|(s, seed)| s.generate(*seed).expect("scenario generates"))
                .collect()
        };
        assert_eq!(gen(&a), gen(&a), "generation is deterministic");
        assert_ne!(gen(&a), gen(&b), "a new seed gives new inputs");
    }
}
