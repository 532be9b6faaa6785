//! The metric registry and the result line.
//!
//! `E2E` and `LAYERS` list every metric the benchmark prints, in order,
//! with its unit; `BENCHMARK.json` at the repository root lists the same
//! names (the package's tests check that they agree). An untraced run
//! prints every end-to-end metric and a traced run every per-layer one.
//! A workload whose layer did no work reports 0 for it.

use std::collections::BTreeMap;

use windserve::{InstanceReport, RunReport};

use crate::stats::{ratio, Dist};

/// End-to-end metrics (`--trace 0`): `(name, unit)`.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("host_req_per_s", "req/s"),
    ("slo_attainment", "ratio"),
    ("ttft_p50_s", "s"),
    ("ttft_p99_s", "s"),
    ("tpot_p99_s", "s"),
    ("e2e_p90_s", "s"),
];

/// Per-layer metrics (`--trace 1`): `(name, unit)`.
pub const LAYERS: &[(&str, &str)] = &[
    ("host.nproc", "count"),
    ("host.calibration_ms", "ms"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("engine.prefill_steps", "count"),
    ("engine.decode_steps", "count"),
    ("engine.hybrid_steps", "count"),
    ("engine.aux_steps", "count"),
    ("engine.compute_util", "ratio"),
    ("engine.bandwidth_util", "ratio"),
    ("engine.swap_outs", "count"),
    ("model.cost_evals", "count"),
    ("model.cost_cache_hit_rate", "ratio"),
    ("core.new_s", "s"),
    ("core.run_s", "s"),
    ("core.dispatch_share", "ratio"),
    ("core.ttft_prediction_error", "ratio"),
    ("core.migrations_started", "count"),
    ("core.migration_completion_ratio", "ratio"),
    ("core.backup_hit_ratio", "ratio"),
    ("core.peak_pending", "count"),
    ("core.prefill_queue_p99_s", "s"),
    ("core.decode_queue_p99_s", "s"),
    ("core.dropped_rejected", "count"),
    ("core.dropped_shed", "count"),
    ("core.dropped_preempted", "count"),
    ("core.watchdog_aborts", "count"),
    ("kvcache.kv_gb_moved", "GB"),
    ("kvcache.transfer_wait_p99_s", "s"),
    ("kvcache.prefix_hit_rate", "ratio"),
    ("kvcache.prefix_token_share", "ratio"),
    ("kvcache.prefix_evictions", "count"),
    ("metrics.summarize_s", "s"),
    ("workload.generate_s", "s"),
    ("workload.requests", "count"),
    ("workload.shared_prefix_share", "ratio"),
    ("trace.events", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.export_s", "s"),
    ("gateway.connect_p99_s", "s"),
    ("gateway.head_p50_s", "s"),
    ("gateway.head_p99_s", "s"),
    ("gateway.first_token_after_head_p50_s", "s"),
    ("gateway.tbt_p99_s", "s"),
    ("gateway.model_ttft_share", "ratio"),
    ("gateway.submit_p99_s", "s"),
    ("gateway.status_p99_s", "s"),
    ("gateway.driver_cpu_us_per_req", "us/req"),
    ("gateway.pump_cpu_us_per_req", "us/req"),
    ("gateway.accept_cpu_us_per_req", "us/req"),
    ("gateway.worker_cpu_us_per_req", "us/req"),
    ("gateway.http_parse_ns", "ns"),
    ("gateway.sse_encode_ns_per_token", "ns"),
    ("gateway.sse_decode_ns_per_token", "ns"),
    ("gateway.sent", "count"),
    ("gateway.completed", "count"),
    ("gateway.server_completed", "count"),
    ("gateway.rejected_429", "count"),
    ("gateway.rejected_503_backlog", "count"),
    ("gateway.rejected_503_other", "count"),
    ("gateway.aborted", "count"),
    ("gateway.transport_errors", "count"),
    ("loadgen.lag_p99_s", "s"),
    ("loadgen.slot_wait_p99_s", "s"),
    ("loadgen.peak_inflight", "count"),
    ("loadgen.cpu_us_per_req", "us/req"),
];

/// One measured value, with the sample count behind it when it is a
/// percentile or a median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The number.
    pub value: f64,
    /// Samples it was taken from, if it is an order statistic.
    pub samples: Option<usize>,
}

/// What one run of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Requests sent (all arms, or every client request).
    pub attempted: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, Value>,
}

impl Outcome {
    /// Sets a plain value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(
            name,
            Value {
                value,
                samples: None,
            },
        );
    }

    /// Sets an order statistic taken from `samples` values.
    pub fn set_n(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(
            name,
            Value {
                value,
                samples: Some(samples),
            },
        );
    }

    /// Sets every name in `names` that is still unset to 0: the layer
    /// did no work in this workload.
    pub fn idle(&mut self, names: &[&'static str]) {
        for name in names {
            self.metrics.entry(name).or_insert(Value {
                value: 0.0,
                samples: None,
            });
        }
    }
}

/// Human-readable lines, one per printed metric, with sample counts.
///
/// # Errors
///
/// Names a registry metric the outcome lacks, or a non-finite value.
pub fn render(outcome: &Outcome, traced: bool) -> Result<(Vec<String>, String), String> {
    let mut lines = Vec::new();
    let mut json = Vec::new();
    let registry = if traced { LAYERS } else { E2E };
    for &(name, unit) in registry {
        let v = outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.value.is_finite() {
            return Err(format!("metric {name} is not finite: {}", v.value));
        }
        let n = v.samples.map_or(String::new(), |n| format!("  (n={n})"));
        lines.push(format!(
            "{name:<40} {:>16} {unit}{n}",
            format!("{:.6}", v.value)
        ));
        json.push(format!(
            r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
            v.value
        ));
    }
    let line = format!(
        r#"{{"correct": true, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        outcome.attempted,
        outcome.failed,
        json.join(", ")
    );
    Ok((lines, line))
}

/// Per-layer metrics read from `RunReport`s: the engine, model, core and
/// KV-cache counters. Counts sum over `reports`; latency-side metrics
/// (dispatch share, prediction error, queue waits) come from
/// `slo_reports`, the arms the end-to-end latencies come from.
pub fn report_layers(out: &mut Outcome, reports: &[&RunReport], slo_reports: &[&RunReport]) {
    let sum = |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    out.set("sim.events", sum(&|r| r.events_processed));
    let inst = |f: &dyn Fn(&InstanceReport) -> u64| sum(&|r| r.instances.iter().map(f).sum());
    out.set("engine.prefill_steps", inst(&|i| i.prefill_steps));
    out.set("engine.decode_steps", inst(&|i| i.decode_steps));
    out.set("engine.hybrid_steps", inst(&|i| i.hybrid_steps));
    out.set("engine.aux_steps", inst(&|i| i.aux_steps));
    let instances: Vec<&InstanceReport> = reports.iter().flat_map(|r| &r.instances).collect();
    let mean = |f: &dyn Fn(&InstanceReport) -> f64| {
        ratio(instances.iter().map(|i| f(i)).sum(), instances.len() as f64)
    };
    out.set("engine.compute_util", mean(&|i| i.utilization.compute));
    out.set("engine.bandwidth_util", mean(&|i| i.utilization.bandwidth));
    out.set("engine.swap_outs", sum(&|r| r.total_swap_outs()));
    let hits = sum(&|r| r.cost_cache_hits);
    let evals = hits + sum(&|r| r.cost_cache_misses);
    out.set("model.cost_evals", evals);
    out.set("model.cost_cache_hit_rate", ratio(hits, evals));

    let slo_sent: usize = slo_reports
        .iter()
        .map(|r| r.records.len() + r.dropped.len())
        .sum();
    let dispatched: u64 = slo_reports.iter().map(|r| r.dispatched_prefills).sum();
    out.set(
        "core.dispatch_share",
        ratio(dispatched as f64, slo_sent as f64),
    );
    let pred: Vec<f64> = slo_reports
        .iter()
        .filter_map(|r| r.ttft_prediction_error())
        .collect();
    out.set(
        "core.ttft_prediction_error",
        ratio(pred.iter().sum(), pred.len() as f64),
    );
    let started = sum(&|r| r.migrations_started);
    out.set("core.migrations_started", started);
    out.set(
        "core.migration_completion_ratio",
        ratio(sum(&|r| r.migrations_completed), started),
    );
    out.set(
        "core.backup_hit_ratio",
        ratio(sum(&|r| r.backup_hits), started),
    );
    let peak = reports.iter().map(|r| r.peak_pending).max().unwrap_or(0);
    out.set("core.peak_pending", peak as f64);
    let records = || slo_reports.iter().flat_map(|r| &r.records);
    let pq = Dist::of(
        &records()
            .map(|r| r.prefill_queue_delay())
            .collect::<Vec<_>>(),
    );
    out.set_n("core.prefill_queue_p99_s", pq.p99, pq.n);
    let dq = Dist::of(
        &records()
            .map(|r| r.decode_queue_delay())
            .collect::<Vec<_>>(),
    );
    out.set_n("core.decode_queue_p99_s", dq.p99, dq.n);
    out.set("core.dropped_rejected", sum(&|r| r.requests_rejected));
    out.set("core.dropped_shed", sum(&|r| r.requests_shed));
    out.set("core.dropped_preempted", sum(&|r| r.requests_preempted));
    out.set("core.watchdog_aborts", sum(&|r| r.watchdog_aborts));

    out.set(
        "kvcache.kv_gb_moved",
        sum(&|r| r.kv_bytes_transferred) / 1e9,
    );
    let phits = sum(&|r| r.prefix_hits);
    out.set(
        "kvcache.prefix_hit_rate",
        ratio(phits, phits + sum(&|r| r.prefix_misses)),
    );
    let prompts = sum(&|r| r.records.iter().map(|q| u64::from(q.prompt_tokens)).sum());
    out.set(
        "kvcache.prefix_token_share",
        ratio(sum(&|r| r.prefix_cached_tokens), prompts),
    );
    out.set("kvcache.prefix_evictions", sum(&|r| r.prefix_evictions));
}
