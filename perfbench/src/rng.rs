//! SplitMix64: the benchmark's one seeded random source. Every input a
//! workload generates (instance seeds, arrival times, request mixes)
//! is a pure function of `--seed`.

#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// A child stream for `salt`, independent of the parent's position.
    pub fn derive(seed: u64, salt: u64) -> SplitMix64 {
        let mut mix = SplitMix64(seed ^ salt.wrapping_mul(0xa076_1d64_78bd_642f));
        SplitMix64(mix.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform on `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform on `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform on `lo..=hi`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..5).map(|_| SplitMix64::new(9).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut x = SplitMix64::derive(9, 1);
        let mut y = SplitMix64::derive(9, 2);
        assert_ne!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn ranges_hold() {
        let mut r = SplitMix64::new(1);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
            let b = r.between(3, 5);
            assert!((3..=5).contains(&b));
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SplitMix64::new(3);
        let n = 200_000;
        let mean = (0..n).map(|_| r.exp(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.02, "{mean}");
    }
}
