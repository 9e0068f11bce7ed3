//! The rate-ladder search behind `max_rate_rps`.
//!
//! Offered rates form a geometric ladder, rung `k` at `base · ratio^k`.
//! The search assumes rung 0 passes (the caller has just measured it)
//! and that passing is monotone in the rate: it probes upward at rungs
//! `s, 2s, 4s, …` until one fails or the top rung passes, then bisects
//! between the last pass and the first failure. The answer is within
//! one rung — a factor of `ratio` — of the true limit, after
//! `O(log top)` probes.

/// A geometric ladder of offered rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ladder {
    /// Rate at rung 0.
    pub base: f64,
    /// Step between adjacent rungs (> 1).
    pub ratio: f64,
    /// Highest rung the search may probe.
    pub top: usize,
}

impl Ladder {
    /// A ladder from `base` up to at least `ceiling` in steps of
    /// `ratio`.
    pub fn new(base: f64, ratio: f64, ceiling: f64) -> Ladder {
        assert!(base > 0.0 && ratio > 1.0 && ceiling >= base);
        let top = ((ceiling / base).ln() / ratio.ln()).ceil() as usize;
        Ladder { base, ratio, top }
    }

    /// The offered rate at rung `k`.
    pub fn rate(&self, k: usize) -> f64 {
        self.base * self.ratio.powi(k as i32)
    }

    /// The highest rung that passes, given that rung 0 does. `passes`
    /// is called once per probed rung, in probe order; the first probe
    /// is rung `first_stride` (clamped to the top).
    pub fn search(&self, first_stride: usize, mut passes: impl FnMut(usize) -> bool) -> usize {
        let mut good = 0usize;
        let mut probe = first_stride.max(1);
        let bad = loop {
            let k = probe.min(self.top);
            if k <= good {
                return good; // the top rung already passed
            }
            if passes(k) {
                good = k;
                probe = k * 2;
            } else {
                break k;
            }
        };
        let mut bad = bad;
        while bad - good > 1 {
            let mid = good + (bad - good) / 2;
            if passes(mid) {
                good = mid;
            } else {
                bad = mid;
            }
        }
        good
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probes_for(ladder: &Ladder, limit: usize, stride: usize) -> (usize, Vec<usize>) {
        let mut seen = Vec::new();
        let found = ladder.search(stride, |k| {
            seen.push(k);
            k <= limit
        });
        (found, seen)
    }

    #[test]
    fn rungs_are_geometric_and_cover_the_ceiling() {
        let ladder = Ladder::new(1000.0, 1.05, 16_000.0);
        assert!((ladder.rate(1) - 1050.0).abs() < 1e-9);
        assert!(ladder.rate(ladder.top) >= 16_000.0);
        assert!(ladder.rate(ladder.top - 1) < 16_000.0);
    }

    #[test]
    fn finds_every_limit_exactly() {
        let ladder = Ladder::new(1000.0, 1.05, 20_000.0);
        for limit in 0..=ladder.top {
            for stride in [1, 3, 8] {
                let (found, probes) = probes_for(&ladder, limit, stride);
                assert_eq!(found, limit, "limit {limit} stride {stride}");
                // Never probes the same rung twice, never probes rung 0.
                let mut unique = probes.clone();
                unique.sort_unstable();
                unique.dedup();
                assert_eq!(unique.len(), probes.len());
                assert!(!probes.contains(&0));
            }
        }
    }

    #[test]
    fn probe_count_is_logarithmic() {
        let ladder = Ladder::new(1000.0, 1.04, 64_000.0);
        for limit in 0..=ladder.top {
            let (_, probes) = probes_for(&ladder, limit, 8);
            assert!(probes.len() <= 12, "limit {limit}: {probes:?}");
        }
    }

    #[test]
    fn stops_at_the_top_rung() {
        let ladder = Ladder::new(100.0, 1.1, 200.0);
        let (found, probes) = probes_for(&ladder, usize::MAX, 4);
        assert_eq!(found, ladder.top);
        assert_eq!(*probes.last().unwrap(), ladder.top);
    }
}
