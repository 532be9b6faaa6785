//! The simulator workloads: `paper-sweep` and `chat-sessions`.
//!
//! Both generate their traces from the seed, build one cluster per arm,
//! and replay the traces through `Cluster::run` again and again for the
//! measured seconds. Simulated metrics come from the first pass; every
//! later pass must reproduce its reports exactly. Host time is the
//! median over passes.

use std::time::Instant;

use windserve::{
    ArrivalProcess, Cluster, Dataset, LatencySummary, PrefixCacheConfig, RunReport, Scenario,
    ServeConfig, SessionsScenario, SystemKind, Trace, TraceLog, TraceMode,
};
use windserve_gpu::Topology;
use windserve_trace::TraceEvent;

use crate::report::{self, Outcome};
use crate::spans::Spans;
use crate::stats::{self, ratio, Dist, FAST_QUARTER};
use crate::{check, derive_seed, Args, Failure};

/// Trace events per `TraceLog::to_chrome_json` call in the traced run.
const EXPORT_SLICE: usize = 100_000;

/// Minimum untraced replays (each with its own set-up), however long one
/// takes.
const MIN_PASSES: usize = 5;

/// One simulated deployment replaying one of the workload's traces.
#[derive(Debug, Clone)]
pub struct Arm {
    /// Display label.
    pub label: String,
    /// The deployment.
    pub cfg: ServeConfig,
    /// Index of the scenario whose trace this arm replays.
    pub scenario: usize,
    /// Whether the arm's latencies feed the end-to-end latency and SLO
    /// metrics (the WindServe arms); the others count toward host time
    /// only.
    pub slo_arm: bool,
}

/// A simulator workload: scenarios (each generated from its own seed)
/// and the arms that replay them.
#[derive(Debug, Clone)]
pub struct Workload {
    /// `(scenario, seed)` pairs.
    pub scenarios: Vec<(Scenario, u64)>,
    /// Deployments.
    pub arms: Vec<Arm>,
}

/// A paper case: model config, dataset, and the middle of its swept
/// per-GPU rates. Requests per case are 4× a full Fig. 10 point for the
/// ShareGPT cases, 8× for LLaMA2-13B and 20× for LLaMA2-70B, whose bursty
/// TTFT tail sets the pooled p99: enough that one run's tail percentiles
/// are steady across seeds.
struct Case {
    label: &'static str,
    config: fn(SystemKind) -> ServeConfig,
    dataset: fn() -> Dataset,
    per_gpu_rate: f64,
    requests: usize,
}

const CASES: [Case; 4] = [
    Case {
        label: "OPT-13B/ShareGPT",
        config: ServeConfig::opt_13b_sharegpt,
        dataset: || Dataset::sharegpt(2048),
        per_gpu_rate: 3.0,
        requests: 8000,
    },
    Case {
        label: "OPT-66B/ShareGPT",
        config: ServeConfig::opt_66b_sharegpt,
        dataset: || Dataset::sharegpt(2048),
        per_gpu_rate: 0.55,
        requests: 4800,
    },
    Case {
        label: "LLaMA2-13B/LongBench",
        config: ServeConfig::llama2_13b_longbench,
        dataset: || Dataset::longbench(4096),
        per_gpu_rate: 1.0,
        requests: 9600,
    },
    Case {
        label: "LLaMA2-70B/LongBench",
        config: ServeConfig::llama2_70b_longbench,
        dataset: || Dataset::longbench(4096),
        per_gpu_rate: 0.2,
        requests: 16000,
    },
];

const SYSTEMS: [SystemKind; 3] = [
    SystemKind::WindServe,
    SystemKind::DistServe,
    SystemKind::VllmColocated,
];

/// `paper-sweep`: the four Fig. 10 cases, each under WindServe,
/// DistServe and vLLM at the case's middle swept rate.
pub fn paper_sweep(seed: u64, smoke: bool) -> Workload {
    let mut scenarios = Vec::new();
    let mut arms = Vec::new();
    for (i, case) in CASES.iter().enumerate() {
        let requests = if smoke { 60 } else { case.requests };
        let probe = (case.config)(SystemKind::WindServe);
        let scenario = Scenario::single_shot(
            (case.dataset)(),
            ArrivalProcess::poisson(probe.total_rate(case.per_gpu_rate)),
            requests,
        );
        scenarios.push((scenario, derive_seed(seed, i as u64)));
        for system in SYSTEMS {
            arms.push(Arm {
                label: format!("{} {}", case.label, system.label()),
                cfg: (case.config)(system),
                scenario: i,
                slo_arm: system == SystemKind::WindServe,
            });
        }
    }
    Workload { scenarios, arms }
}

/// Sessions opened per second in `chat-sessions`.
pub const SESSION_RATE: f64 = 14.0;

/// `chat-sessions`: multi-turn conversations on two A800 nodes (4
/// prefill + 4 decode replicas) under WindServe with the prefix cache
/// and affinity routing.
pub fn chat_sessions(seed: u64, smoke: bool) -> Workload {
    let sessions = SessionsScenario::builder()
        .sessions(if smoke { 40 } else { 12000 })
        .session_rate(SESSION_RATE)
        .turns(2, 6)
        .mean_think_secs(20.0)
        .followup_tokens(16, 192)
        .build()
        .expect("the chat-sessions scenario is valid");
    let cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
        .to_builder()
        .topology(Topology::a800_multi_node(2))
        .prefill_replicas(4)
        .decode_replicas(4)
        .with_prefix_cache(PrefixCacheConfig::default())
        .build()
        .expect("the chat-sessions deployment is valid");
    Workload {
        scenarios: vec![(Scenario::sessions(sessions), derive_seed(seed, 0))],
        arms: vec![Arm {
            label: "WindServe+affinity".to_string(),
            cfg,
            scenario: 0,
            slo_arm: true,
        }],
    }
}

/// Generates every trace and builds every cluster once: the set-up a
/// user pays before a run. Returns the traces, the clusters, and the
/// seconds spent in each of the two calls.
fn set_up(
    w: &Workload,
    spans: &mut Spans,
    parent: Option<usize>,
) -> Result<(Vec<Trace>, Vec<Cluster>, f64, f64), Failure> {
    let mut traces = Vec::new();
    let mut gen_s = 0.0;
    for (scenario, seed) in &w.scenarios {
        let (trace, dt) = spans.time("workload.generate", parent, || scenario.generate(*seed));
        traces.push(trace.map_err(|e| Failure(format!("Scenario::generate: {e}")))?);
        gen_s += dt;
    }
    let mut clusters = Vec::new();
    let mut new_s = 0.0;
    for arm in &w.arms {
        let (cluster, dt) = spans.time("core.new", parent, || Cluster::new(arm.cfg.clone()));
        clusters.push(cluster.map_err(|e| Failure(format!("{}: Cluster::new: {e}", arm.label)))?);
        new_s += dt;
    }
    Ok((traces, clusters, gen_s, new_s))
}

/// One replay of every arm.
struct Pass {
    reports: Vec<RunReport>,
    run_s: f64,
    new_s: f64,
    /// Traced passes only: events, export seconds, transfer waits.
    trace_events: u64,
    export_s: f64,
    transfer_waits: Vec<f64>,
}

/// Replays every arm once: on `prebuilt` clusters when given (the
/// set-up's), else on fresh ones; with `TraceMode::Full` when `traced`.
fn replay(
    w: &Workload,
    traces: &[Trace],
    prebuilt: Option<Vec<Cluster>>,
    traced: bool,
    spans: &mut Spans,
) -> Result<Pass, Failure> {
    let root = spans.open(if traced { "pass.traced" } else { "pass" }, None);
    let mut pass = Pass {
        reports: Vec::new(),
        run_s: 0.0,
        new_s: 0.0,
        trace_events: 0,
        export_s: 0.0,
        transfer_waits: Vec::new(),
    };
    let mut prebuilt = prebuilt.map(Vec::into_iter);
    for (i, arm) in w.arms.iter().enumerate() {
        let cluster = match prebuilt.as_mut().and_then(Iterator::next) {
            Some(built) => built,
            None => {
                let mut cfg = arm.cfg.clone();
                if traced {
                    cfg.trace = TraceMode::Full;
                }
                let (cluster, dt) = spans.time("core.new", root, || Cluster::new(cfg));
                pass.new_s += dt;
                cluster.map_err(|e| Failure(format!("{}: Cluster::new: {e}", arm.label)))?
            }
        };
        let trace = &traces[arm.scenario];
        let report = if traced {
            let (out, dt) = spans.time("core.run_traced", root, || cluster.run_traced(trace));
            pass.run_s += dt;
            let (report, log) = out.map_err(|e| Failure(format!("{}: run: {e}", arm.label)))?;
            pass.trace_events += log.len() as u64;
            // Export in slices, so that the exporter's JSON tree for a
            // million-event log never sits in memory at once.
            for slice in log.events().chunks(EXPORT_SLICE) {
                let part = TraceLog::new(slice.to_vec());
                let (json, dt) = spans.time("trace.export", root, || part.to_chrome_json());
                pass.export_s += dt;
                check(json.starts_with('{'), || {
                    format!("{}: the Chrome trace is not a JSON object", arm.label)
                })?;
            }
            pass.transfer_waits.extend(transfer_waits(&log));
            report
        } else {
            let (out, dt) = spans.time("core.run", root, || cluster.run(trace));
            pass.run_s += dt;
            out.map_err(|e| Failure(format!("{}: run: {e}", arm.label)))?
        };
        check(
            report.summary.completed + report.dropped.len() == trace.requests().len(),
            || {
                format!(
                    "{} (arm {i}): {} completed + {} dropped != {} sent",
                    arm.label,
                    report.summary.completed,
                    report.dropped.len(),
                    trace.requests().len()
                )
            },
        )?;
        pass.reports.push(report);
    }
    spans.close(root);
    Ok(pass)
}

/// Simulated seconds from each `KvTransferStarted` to the matching
/// `KvTransferFinished`.
fn transfer_waits(log: &TraceLog) -> Vec<f64> {
    let mut started = std::collections::HashMap::new();
    let mut waits = Vec::new();
    for ev in log.events() {
        match &ev.event {
            TraceEvent::KvTransferStarted { id, .. } => {
                started.insert(id.0, ev.at);
            }
            TraceEvent::KvTransferFinished { id, .. } => {
                if let Some(t0) = started.remove(&id.0) {
                    waits.push(ev.at.saturating_since(t0).as_secs_f64());
                }
            }
            _ => {}
        }
    }
    waits
}

/// Runs a simulator workload and fills the outcome.
///
/// # Errors
///
/// A failed output check or a simulation error.
pub fn run(w: &Workload, args: &Args, spans: &mut Spans) -> Result<Outcome, Failure> {
    // Every untraced replay starts from a set-up of its own (traces
    // generated and clusters built afresh, timed), so that set-up samples
    // spread over the run as the replays do. Every set-up must regenerate
    // the first one's traces. The traced run alternates untraced and
    // traced replays so both see the same host conditions.
    let min_passes = if args.trace { 1 } else { MIN_PASSES };
    let start = Instant::now();
    let mut first_traces: Option<Vec<Trace>> = None;
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut new_s = Vec::new();
    let mut baseline: Option<Pass> = None;
    let mut run_s = Vec::new();
    let mut traced_run_s = Vec::new();
    let mut export_s = Vec::new();
    let mut summarize_s = Vec::new();
    let mut traced_pass: Option<Pass> = None;
    loop {
        let parent = spans.open("setup", None);
        let (fresh, clusters, g, n) = set_up(w, spans, parent)?;
        spans.close(parent);
        setup_s.push(g + n);
        gen_s.push(g);
        new_s.push(n);
        match &first_traces {
            Some(t) => check(*t == fresh, || {
                "Scenario::generate gave different traces for the same seed".to_string()
            })?,
            None => first_traces = Some(fresh),
        }
        let traces = first_traces.as_deref().expect("set above");
        let pass = replay(w, traces, Some(clusters), false, spans)?;
        run_s.push(pass.run_s);
        match &baseline {
            Some(b) => check(b.reports == pass.reports, || {
                "a replay of the same traces gave a different RunReport".to_string()
            })?,
            None => baseline = Some(pass),
        }
        if args.trace {
            let b = baseline.as_ref().expect("set above");
            let t = replay(w, traces, None, true, spans)?;
            check(t.reports == b.reports, || {
                "the traced run's RunReport differs from the untraced one".to_string()
            })?;
            traced_run_s.push(t.run_s);
            export_s.push(t.export_s);
            new_s.push(t.new_s);
            let mut s = 0.0;
            for (arm, report) in w.arms.iter().zip(&b.reports) {
                let (summary, dt) = spans.time("metrics.summarize", None, || {
                    LatencySummary::of(arm.cfg.slo, &report.records)
                });
                check(summary.completed == report.summary.completed, || {
                    "LatencySummary::of disagrees with the run's own summary".to_string()
                })?;
                s += dt;
            }
            summarize_s.push(s);
            traced_pass = Some(t);
        }
        if run_s.len() >= min_passes && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let traces = first_traces.expect("at least one set-up");
    let base = baseline.expect("at least one pass");
    let reports = &base.reports;

    let sent: usize = w
        .arms
        .iter()
        .map(|a| traces[a.scenario].requests().len())
        .sum();
    let mut out = Outcome {
        attempted: sent as u64,
        failed: reports.iter().map(|r| r.dropped.len() as u64).sum(),
        ..Outcome::default()
    };

    // Simulated latency and SLO metrics over the SLO arms.
    let mut ttft = Vec::new();
    let mut tpot = Vec::new();
    let mut e2e = Vec::new();
    let mut slo_met = 0usize;
    let mut slo_sent = 0usize;
    for (arm, r) in w.arms.iter().zip(reports).filter(|(a, _)| a.slo_arm) {
        for rec in &r.records {
            ttft.push(rec.ttft());
            tpot.extend(rec.tpot());
            e2e.push(rec.e2e());
            if arm.cfg.slo.meets_both(rec) {
                slo_met += 1;
            }
        }
        slo_sent += traces[arm.scenario].requests().len();
    }

    if !args.trace {
        let ttft = Dist::of(&ttft);
        out.set_n(
            "setup_s",
            stats::percentile(&setup_s, FAST_QUARTER).unwrap_or(0.0),
            setup_s.len(),
        );
        out.set("peak_rss_mb", crate::host::peak_rss_mb());
        let rates: Vec<f64> = run_s.iter().map(|s| sent as f64 / s).collect();
        out.set_n(
            "host_req_per_s",
            stats::percentile(&rates, 1.0 - FAST_QUARTER).unwrap_or(0.0),
            rates.len(),
        );
        out.set("slo_attainment", ratio(slo_met as f64, slo_sent as f64));
        out.set_n("ttft_p50_s", ttft.p50, ttft.n);
        out.set_n("ttft_p99_s", ttft.p99, ttft.n);
        let tpot = Dist::of(&tpot);
        out.set_n("tpot_p99_s", tpot.p99, tpot.n);
        let e2e = Dist::of(&e2e);
        out.set_n("e2e_p90_s", e2e.p90, e2e.n);
        return Ok(out);
    }

    let all: Vec<&RunReport> = reports.iter().collect();
    let slo_reports: Vec<&RunReport> = w
        .arms
        .iter()
        .zip(reports)
        .filter(|(a, _)| a.slo_arm)
        .map(|(_, r)| r)
        .collect();
    report::report_layers(&mut out, &all, &slo_reports);
    let events: u64 = reports.iter().map(|r| r.events_processed).sum();
    let run_med = stats::median(&run_s).unwrap_or(0.0);
    out.set_n(
        "sim.ns_per_event",
        ratio(run_med * 1e9, events as f64),
        run_s.len(),
    );
    out.set_n(
        "core.new_s",
        stats::median(&new_s).unwrap_or(0.0),
        new_s.len(),
    );
    out.set_n("core.run_s", run_med, run_s.len());
    let traced = traced_pass.expect("the traced run made a traced pass");
    let tw = Dist::of(&traced.transfer_waits);
    out.set_n("kvcache.transfer_wait_p99_s", tw.p99, tw.n);
    out.set_n(
        "metrics.summarize_s",
        stats::median(&summarize_s).unwrap_or(0.0),
        summarize_s.len(),
    );
    out.set_n(
        "workload.generate_s",
        stats::median(&gen_s).unwrap_or(0.0),
        gen_s.len(),
    );
    let unique_requests: usize = traces.iter().map(|t| t.requests().len()).sum();
    out.set("workload.requests", unique_requests as f64);
    let shared: f64 = traces
        .iter()
        .flat_map(|t| t.requests())
        .map(|r| r.session.map_or(0.0, |s| f64::from(s.shared_prefix_tokens)))
        .sum();
    let prompts: f64 = traces.iter().map(prompt_tokens).sum();
    out.set("workload.shared_prefix_share", ratio(shared, prompts));
    out.set("trace.events", traced.trace_events as f64);
    let traced_med = stats::median(&traced_run_s).unwrap_or(0.0);
    out.set_n(
        "trace.overhead_share",
        ratio(traced_med - run_med, run_med),
        traced_run_s.len(),
    );
    out.set_n(
        "trace.export_s",
        stats::median(&export_s).unwrap_or(0.0),
        export_s.len(),
    );
    Ok(out)
}

fn prompt_tokens(trace: &Trace) -> f64 {
    trace
        .requests()
        .iter()
        .map(|r| f64::from(r.prompt_tokens))
        .sum()
}
