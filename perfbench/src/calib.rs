//! Host-speed calibration for the gated timings.
//!
//! On a shared host the guest's speed drifts: one single-threaded solve
//! of one instance took 1.6–2.9 s of CPU within a few minutes, in
//! phases tens of seconds long, with no steal to show for it. Longer
//! runs do not average such phases out. So every timed operation is
//! bracketed by a fixed reference kernel, timed the same way, and the
//! gated timings are scaled by `NOMINAL_S / reference`: they read as on
//! a host where the kernel takes `NOMINAL_S`. The kernel is the
//! benchmark's own code, so a change to the program never changes it;
//! the raw CPU times are printed next to the scaled ones.

use crate::rng::SplitMix64;
use crate::sys;

/// The reference kernel's CPU time on an unloaded host of the kind the
/// benchmark was tuned on (2-vCPU Xeon guest); only a scale.
pub const NOMINAL_S: f64 = 0.035;

const DIM: usize = 20;
const ROWS: usize = 16;
const COLS: usize = 20_000;
/// Similarities at or below this are not candidates.
const CUTOFF: f64 = 0.25;

/// The reference kernel's fixed inputs and reusable buffers.
struct Kernel {
    rows: Vec<f64>,
    cols: Vec<f64>,
    row: Vec<(f64, u32)>,
    placed: Vec<(f64, u32, u32)>,
    col_off: Vec<usize>,
    col: Vec<(f64, u32)>,
}

impl Kernel {
    fn new() -> Kernel {
        let mut rng = SplitMix64::new(0x5eed);
        let mut attrs = |n: usize| (0..n * DIM).map(|_| rng.next_f64()).collect();
        Kernel {
            rows: attrs(ROWS),
            cols: attrs(COLS),
            row: Vec::with_capacity(COLS),
            placed: Vec::with_capacity(ROWS * COLS),
            col_off: vec![0; COLS + 1],
            col: vec![(0.0, 0); ROWS * COLS],
        }
    }

    /// One pass: a miniature candidate-graph build over fixed seeded
    /// attributes — `ROWS × COLS` Euclidean similarities, the rows'
    /// candidates sorted by similarity descending (ties id ascending),
    /// then scattered into columns. It mixes arithmetic, a branchy sort
    /// and scattered writes as the solves do; of the kernels tried
    /// (this, a bare sort, an integer hash loop, random increments over
    /// 128 MB) it tracked the solves' drift best. Returns the calling
    /// thread's CPU time for it, seconds.
    fn run(&mut self) -> f64 {
        let cpu0 = sys::thread_cpu();
        let norm = (DIM as f64).sqrt();
        self.placed.clear();
        self.col_off.iter_mut().for_each(|c| *c = 0);
        for (v, ev) in self.rows.chunks_exact(DIM).enumerate() {
            self.row.clear();
            for (u, us) in self.cols.chunks_exact(DIM).enumerate() {
                let d2: f64 = ev.iter().zip(us).map(|(a, b)| (a - b) * (a - b)).sum();
                let sim = 1.0 - d2.sqrt() / norm;
                if sim > CUTOFF {
                    self.row.push((sim, u as u32));
                }
            }
            self.row
                .sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            for &(sim, u) in &self.row {
                self.col_off[u as usize + 1] += 1;
                self.placed.push((sim, u, v as u32));
            }
        }
        for u in 0..COLS {
            self.col_off[u + 1] += self.col_off[u];
        }
        for &(sim, u, v) in &self.placed {
            let at = &mut self.col_off[u as usize];
            self.col[*at] = (sim, v);
            *at += 1;
        }
        std::hint::black_box(&self.col);
        (sys::thread_cpu() - cpu0).as_secs_f64()
    }
}

/// Speed factors along a sequence of timed operations. The reference
/// runs once on creation and once after each operation; operation `i`
/// is scaled by `NOMINAL_S` over the mean of the reference times just
/// before and just after it.
pub struct Calibrator {
    kernel: Kernel,
    last: f64,
    refs: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut kernel = Kernel::new();
        kernel.run(); // warm-up: page-in and branch history
        let last = kernel.run();
        Calibrator {
            kernel,
            last,
            refs: vec![last],
        }
    }

    /// Time the reference again as the start of the next operation,
    /// so work done since the previous call (untimed set-up) is not
    /// bracketed.
    pub fn begin(&mut self) {
        self.last = self.kernel.run();
        self.refs.push(self.last);
    }

    /// Close the operation that ran since the previous call (or since
    /// creation): time the reference again and return that operation's
    /// speed factor.
    pub fn factor(&mut self) -> f64 {
        let now = self.kernel.run();
        let f = scale(self.last, now);
        self.last = now;
        self.refs.push(now);
        f
    }

    /// Every reference time so far, seconds.
    pub fn refs(&self) -> &[f64] {
        &self.refs
    }
}

/// The speed factor of an operation bracketed by reference times
/// `before` and `after`.
fn scale(before: f64, after: f64) -> f64 {
    NOMINAL_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_host_scales_by_one() {
        assert_eq!(scale(NOMINAL_S, NOMINAL_S), 1.0);
        // A host at half speed doubles the reference; times halve.
        assert_eq!(scale(2.0 * NOMINAL_S, 2.0 * NOMINAL_S), 0.5);
        assert_eq!(scale(0.02, 0.05), 1.0);
    }

    #[test]
    fn one_reference_per_operation() {
        let mut cal = Calibrator::new();
        let f = cal.factor();
        assert!(f.is_finite() && f > 0.0);
        cal.begin();
        cal.factor();
        assert_eq!(cal.refs().len(), 4);
        assert!(cal.refs().iter().all(|&r| r > 0.0));
    }
}
