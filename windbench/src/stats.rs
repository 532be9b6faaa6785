//! Order statistics over measured samples.
//!
//! The benchmark computes its own percentiles rather than calling the
//! program's, so a change to the program's metrics layer cannot change
//! how the benchmark reads the results.

/// Where host time is read from repeated samples in one run (set-up
/// times, replay rates), the benchmark reports the sample at this
/// quantile of the fastest side: interference from other tenants of a
/// shared host only ever slows a sample, and it comes and goes within a
/// run, so the fastest quarter moves less between runs than the median.
pub const FAST_QUARTER: f64 = 0.25;

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples, or
/// `None` when there are none.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(rank(&sorted, q))
}

/// The median of unsorted samples, or `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Nearest-rank lookup in already sorted samples (non-empty).
fn rank(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    sorted[idx]
}

/// A latency distribution: the sample count and the percentiles the
/// benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Dist {
    /// Summarizes unsorted samples; all-zero with `n == 0` when empty.
    pub fn of(samples: &[f64]) -> Dist {
        if samples.is_empty() {
            return Dist {
                n: 0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Dist {
            n: sorted.len(),
            p50: rank(&sorted, 0.5),
            p90: rank(&sorted, 0.9),
            p99: rank(&sorted, 0.99),
        }
    }
}

/// `num / den`, or 0 when `den` is 0 (a ratio over no attempts).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(Dist::of(&[]).n, 0);
    }
}
