//! Order statistics and failure accounting shared by every workload.

/// Samples that must lie strictly beyond a percentile before it is
/// reported: a tail figure resting on fewer samples is noise.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it. The median of 20
/// samples is reportable, p99 needs 1000.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of range");
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of a non-empty sample, by nearest rank with no tail
/// requirement: the per-run summaries of a handful of repetitions.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len().div_ceil(2) - 1]
}

/// Geometric mean of positive values (per-guest ratios and rates, so a
/// long guest does not outweigh a short one).
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

/// Attempted and failed operations of one run: `error_rate` and the
/// result line's `attempted` / `failed` fields.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    /// The first failures' descriptions, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; `outcome` carries the reason it failed.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Failed ÷ attempted (0 before any operation).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 89.5), Some(90.0));
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 50.0), Some(50.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 - 90 = 10 beyond p90: reportable; 9 beyond p91: not.
        assert!(percentile(&xs, 90.0).is_some());
        assert_eq!(percentile(&xs, 91.0), None);
        assert_eq!(percentile(&xs, 99.0), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), Some(990.0));
        assert_eq!(percentile(&xs[..19], 50.0), None);
        assert_eq!(percentile(&xs[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn error_rate_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        t.op(Ok(()));
        t.op(Err("replay hash mismatch".into()));
        t.op(Ok(()));
        t.op(Err("session missed".into()));
        assert_eq!((t.attempted(), t.failed()), (4, 2));
        assert_eq!(t.error_rate(), 0.5);
        assert_eq!(t.failures, vec!["replay hash mismatch", "session missed"]);
        for _ in 0..20 {
            t.op(Err("x".into()));
        }
        assert_eq!(t.failed(), 22);
        assert_eq!(t.failures.len(), 8, "only the first failures are kept");
    }
}
