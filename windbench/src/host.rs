//! What the benchmark reads about its own process and host from
//! `/proc`: the host fingerprint, peak memory, and CPU time per thread.

use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// Kernel clock ticks per second for `utime`/`stime` in `/proc/*/stat`
/// (`USER_HZ`, 100 on every Linux architecture the benchmark runs on).
const TICKS_PER_SEC: f64 = 100.0;

/// Identifies the host a result came from, so that numbers from
/// different hosts are never compared.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Usable cores.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Median time of [`calibration_loop`], milliseconds.
    pub calibration_ms: f64,
}

impl Fingerprint {
    /// Measures the host.
    pub fn measure() -> Fingerprint {
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                black_box(calibration_loop(black_box(2_000_000)));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        Fingerprint {
            nproc: nproc(),
            cpu_model: cpu_model(),
            calibration_ms: stats::median(&samples).unwrap_or(0.0),
        }
    }

    /// One-line JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"nproc": {}, "cpu_model": {}, "calibration_ms": {}}}"#,
            self.nproc,
            serde_json::to_string(&self.cpu_model).unwrap_or_default(),
            self.calibration_ms
        )
    }
}

/// A fixed integer workload (xorshift plus a dependent multiply) whose
/// time tracks single-core speed.
pub fn calibration_loop(iters: u64) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_mul(31).wrapping_add(x ^ i);
    }
    acc
}

/// Usable cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident memory of this process so far (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb * 1024.0 / 1e6)
        .unwrap_or(0.0)
}

/// `(comm, utime + stime ticks)` from one `/proc/.../stat` line. The
/// command name sits in parentheses and may itself contain spaces.
fn parse_stat(line: &str) -> Option<(String, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?.to_string();
    let rest: Vec<&str> = line.get(close + 1..)?.split_whitespace().collect();
    // `rest[0]` is field 3 (state); utime and stime are fields 14 and 15.
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some((comm, utime + stime))
}

/// One thread's CPU use at an instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadCpu {
    /// Kernel thread id.
    pub tid: u64,
    /// Thread name (`comm`, at most 15 bytes).
    pub name: String,
    /// CPU time so far, nanoseconds: the first field of the thread's
    /// `schedstat` when the kernel provides it, else `utime + stime`
    /// from its `stat` (10 ms ticks).
    pub cpu_ns: u64,
}

/// Every live thread of this process with its CPU time so far.
pub fn thread_cpu() -> Vec<ThreadCpu> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let Ok(line) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        let Some((name, ticks)) = parse_stat(&line) else {
            continue;
        };
        let cpu_ns = std::fs::read_to_string(entry.path().join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
            .unwrap_or((ticks as f64 / TICKS_PER_SEC * 1e9) as u64);
        out.push(ThreadCpu { tid, name, cpu_ns });
    }
    out.sort_by_key(|t| t.tid);
    out
}

/// CPU seconds used between two [`thread_cpu`] snapshots by threads
/// whose name satisfies `pick`. A thread that started after `before`
/// counts from zero.
pub fn cpu_secs_between(
    before: &[ThreadCpu],
    after: &[ThreadCpu],
    pick: impl Fn(&str) -> bool,
) -> f64 {
    let ns: u64 = after
        .iter()
        .filter(|t| pick(&t.name))
        .map(|t| {
            let start = before
                .iter()
                .find(|b| b.tid == t.tid)
                .map_or(0, |b| b.cpu_ns);
            t.cpu_ns.saturating_sub(start)
        })
        .sum();
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_name() {
        let line = "42 (gw worker) S 1 2 3 4 5 6 7 8 9 10 250 30 0 0 20 0 1 0";
        assert_eq!(parse_stat(line), Some(("gw worker".to_string(), 280)));
    }

    #[test]
    fn own_threads_are_visible() {
        let threads = thread_cpu();
        assert!(!threads.is_empty());
        assert!(peak_rss_mb() > 0.0);
    }
}
