//! The repository benchmark.
//!
//! Three workloads drive the two faces of the system:
//!
//! - `paper-sweep`: the four Fig. 10 cases under WindServe, DistServe
//!   and vLLM, replayed through the simulator on one thread.
//! - `chat-sessions`: multi-turn conversations through WindServe with
//!   the prefix cache and affinity routing.
//! - `live-stream`: an in-process gateway under an open-loop HTTP/SSE
//!   client.
//!
//! The benchmark measures each layer from outside the program: it times
//! calls into public functions and reads the program's reports and
//! `/proc`. See `METRICS.md` for every metric and what it should move.

#![forbid(unsafe_code)]

pub mod host;
pub mod live;
pub mod offline;
pub mod report;
pub mod spans;
pub mod stats;

use std::path::PathBuf;

use report::Outcome;
use spans::Spans;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["paper-sweep", "chat-sessions", "live-stream"];

/// A failed output check (or a program error that stops the run). It is
/// reported on stderr and the run exits non-zero; it never becomes a
/// number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure(pub String);

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Fails with `why()` unless `ok`.
///
/// # Errors
///
/// The [`Failure`] when `ok` is false.
pub fn check(ok: bool, why: impl FnOnce() -> String) -> Result<(), Failure> {
    if ok {
        Ok(())
    } else {
        Err(Failure(why()))
    }
}

/// A seed for input stream `stream` of a run seeded with `seed`
/// (SplitMix64 finalizer), so that the streams of one run are
/// independent and every run seed gives different inputs.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs, for the package's own tests (not a command-line
    /// option).
    pub smoke: bool,
    /// Where the traced run writes its spans.
    pub spans_dir: PathBuf,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
    /// plus the optional `--spans-dir <dir>`.
    ///
    /// # Errors
    ///
    /// A usage message for a missing, unknown or malformed argument.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut spans_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            match flag.as_str() {
                "--workload" => workload = Some(value.to_string()),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    })
                }
                "--spans-dir" => spans_dir = PathBuf::from(value),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let workload: String = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; expected one of {}",
                WORKLOADS.join(", ")
            ));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            smoke: false,
            spans_dir,
        })
    }
}

/// Per-layer metrics of the gateway and its client: idle in the
/// simulator workloads.
const LIVE_ONLY: &[&str] = &[
    "gateway.connect_p99_s",
    "gateway.head_p50_s",
    "gateway.head_p99_s",
    "gateway.first_token_after_head_p50_s",
    "gateway.tbt_p99_s",
    "gateway.model_ttft_share",
    "gateway.submit_p99_s",
    "gateway.status_p99_s",
    "gateway.driver_cpu_us_per_req",
    "gateway.pump_cpu_us_per_req",
    "gateway.accept_cpu_us_per_req",
    "gateway.worker_cpu_us_per_req",
    "gateway.http_parse_ns",
    "gateway.sse_encode_ns_per_token",
    "gateway.sse_decode_ns_per_token",
    "gateway.sent",
    "gateway.completed",
    "gateway.server_completed",
    "gateway.rejected_429",
    "gateway.rejected_503_backlog",
    "gateway.rejected_503_other",
    "gateway.aborted",
    "gateway.transport_errors",
    "loadgen.lag_p99_s",
    "loadgen.slot_wait_p99_s",
    "loadgen.peak_inflight",
    "loadgen.cpu_us_per_req",
];

/// Runs one workload and returns what it measured, with the spans of a
/// traced run.
///
/// # Errors
///
/// The first failed output check.
pub fn run(args: &Args) -> Result<(Outcome, Spans), Failure> {
    let mut spans = Spans::new(args.trace);
    let offline = match args.workload.as_str() {
        "paper-sweep" => Some(offline::paper_sweep(args.seed, args.smoke)),
        "chat-sessions" => Some(offline::chat_sessions(args.seed, args.smoke)),
        _ => None,
    };
    let mut out = match &offline {
        Some(w) => {
            let mut out = offline::run(w, args, &mut spans)?;
            out.idle(LIVE_ONLY);
            out
        }
        None => live::run(args, &mut spans)?,
    };
    if args.trace {
        let fp = host::Fingerprint::measure();
        out.set("host.nproc", fp.nproc as f64);
        out.set("host.calibration_ms", fp.calibration_ms);
    }
    Ok((out, spans))
}
