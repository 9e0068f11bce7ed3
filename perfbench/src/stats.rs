//! Sample summaries under the benchmark's quantile rule.
//!
//! Every timing is reported as its median plus the highest percentile
//! that still has at least [`TAIL_BEYOND`] samples beyond it, together
//! with the sample count. A percentile with fewer samples past it is a
//! handful of outliers, not a distribution tail, so it is never
//! reported.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice: the smallest sample
/// with at least `q·n` samples at or below it. `q` is clamped to
/// `(0, 1]`; the slice must not be empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The highest quantile level with at least [`TAIL_BEYOND`] of `n`
/// samples strictly beyond it, or `None` when that level would sit
/// below the median (fewer than `2 · TAIL_BEYOND` samples).
pub fn tail_level(n: usize) -> Option<f64> {
    if n < 2 * TAIL_BEYOND {
        return None;
    }
    Some(1.0 - TAIL_BEYOND as f64 / n as f64)
}

/// The level a latency limit is checked at: `target` (for example
/// 0.99) when the sample supports it under the tail rule, otherwise
/// the highest level it does support. `None` when even the median has
/// too few samples beyond it.
pub fn limit_level(n: usize, target: f64) -> Option<f64> {
    tail_level(n).map(|tail| tail.min(target))
}

/// Median, sample count and rule-conforming tail of one sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(level, value)` of the highest percentile with at least
    /// [`TAIL_BEYOND`] samples beyond it.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarize `samples` (any order); `None` for an empty sample.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary::of_sorted(&sorted))
    }

    /// Summarize an ascending, non-empty sample.
    pub fn of_sorted(sorted: &[f64]) -> Summary {
        Summary {
            n: sorted.len(),
            p50: quantile(sorted, 0.5),
            tail: tail_level(sorted.len()).map(|q| (q, quantile(sorted, q))),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n={} p50={:.4}", self.n, self.p50)?;
        match self.tail {
            Some((q, v)) => write!(f, " p{}={:.4}", fmt_level(q), v),
            None => write!(f, " (n < {}: no tail)", 2 * TAIL_BEYOND),
        }
    }
}

/// `0.99975` → `"99.975"`: a quantile level as a percentile label.
pub fn fmt_level(q: f64) -> String {
    let text = format!("{:.4}", q * 100.0);
    text.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// Median of an unsorted sample (nearest rank); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    Summary::of(samples).map(|s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_quantiles() {
        let xs = ramp(100);
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        for n in [20, 21, 99, 100, 1000, 1001, 40_000, 123_457] {
            let xs = ramp(n);
            let q = tail_level(n).unwrap();
            let v = quantile(&xs, q);
            let beyond = xs.iter().filter(|&&x| x > v).count();
            assert_eq!(beyond, TAIL_BEYOND, "n={n} q={q}");
        }
    }

    #[test]
    fn no_tail_below_twenty_samples() {
        assert_eq!(tail_level(0), None);
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(0.5));
        assert!(Summary::of(&ramp(5)).unwrap().tail.is_none());
    }

    #[test]
    fn limit_level_caps_at_target_only_when_supported() {
        assert_eq!(limit_level(1000, 0.99), Some(0.99));
        assert_eq!(limit_level(100_000, 0.99), Some(0.99));
        // 400 samples support at most p97.5.
        assert_eq!(limit_level(400, 0.99), Some(0.975));
        assert_eq!(limit_level(10, 0.99), None);
    }

    #[test]
    fn summary_reports_median_and_tail() {
        let mut xs = ramp(1000);
        xs.reverse();
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail, Some((0.99, 990.0)));
        assert_eq!(s.to_string(), "n=1000 p50=500.0000 p99=990.0000");
    }

    #[test]
    fn level_labels() {
        assert_eq!(fmt_level(0.99), "99");
        assert_eq!(fmt_level(0.99975), "99.975");
        assert_eq!(fmt_level(0.5), "50");
    }
}
