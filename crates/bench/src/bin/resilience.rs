//! Overhead snapshot for the resilience layer.
//!
//! The budget meter is polled from every solver hot loop, so its cost
//! must be provably negligible before anyone trusts budgeted numbers.
//! This binary runs Greedy-GEACC, MinCostFlow-GEACC, and Prune-GEACC
//! twice each — once on the classic meterless path and once under an
//! *unlimited* [`BudgetMeter`] (every check armed, nothing ever trips) —
//! asserts the two arrangements are bit-identical, and records the
//! wall-clock overhead ratio in `BENCH_resilience.json` (or `--out
//! <path>`).
//!
//! It also records one *deadline demonstration*: the pathological
//! narrow-band instance from the resilience test suite (the Lemma 6
//! bound stays tight, almost nothing prunes) solved through the
//! [`SolverPipeline`] with a 100 ms deadline — proving on the recording
//! host that the budgeted search hands back a feasible incumbent in
//! well under a second where the unbudgeted search would run for
//! geological time.
//!
//! ```sh
//! cargo run -p geacc-bench --release --bin resilience
//! cargo run -p geacc-bench --release --bin resilience -- --quick --out /tmp/r.json
//! ```

use geacc_bench::cli;
use geacc_core::algorithms::{self, Algorithm};
use geacc_core::engine::{self, SolveParams};
use geacc_core::runtime::{BudgetMeter, SolveBudget, SolverPipeline};
use geacc_core::{Arrangement, ConflictGraph, EventId, Instance, SimMatrix};
use geacc_datagen::{CapDistribution, SyntheticConfig};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Snapshot {
    commit: String,
    host_parallelism: usize,
    command: String,
    note: String,
    overhead: Vec<OverheadCell>,
    deadline_demo: DeadlineDemo,
}

#[derive(Serialize)]
struct OverheadCell {
    algorithm: String,
    instance: String,
    seconds_meterless: f64,
    seconds_unlimited_meter: f64,
    /// `seconds_unlimited_meter / seconds_meterless` — ≈ 1.0 is the
    /// claim being snapshotted.
    overhead_ratio: f64,
    bit_identical: bool,
}

#[derive(Serialize)]
struct DeadlineDemo {
    instance: String,
    timeout_ms: u64,
    wall_seconds: f64,
    status: String,
    exit_code: i32,
    max_sum: f64,
    pairs: usize,
    feasible: bool,
}

/// Median wall-clock seconds of `f` over `repeats` runs.
fn median_secs(repeats: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// The classic meterless paper entry point for `algorithm` (the baseline
/// the overhead ratio compares against).
fn solve_meterless(instance: &Instance, algorithm: Algorithm) -> Arrangement {
    match algorithm {
        Algorithm::Greedy => algorithms::greedy(instance),
        Algorithm::MinCostFlow => algorithms::mincostflow(instance).arrangement,
        Algorithm::Prune => algorithms::prune(instance).arrangement,
        other => unreachable!("overhead snapshot does not measure {}", other.name()),
    }
}

/// One overhead cell: `algorithm` on `instance`, meterless vs unlimited
/// meter, single-threaded so the comparison is free of scheduling noise.
fn overhead(
    algorithm: Algorithm,
    instance: &Instance,
    instance_desc: &str,
    repeats: usize,
) -> OverheadCell {
    let plain = solve_meterless(instance, algorithm);
    let meter = BudgetMeter::unlimited();
    let metered = engine::solve_instance(instance, algorithm, &SolveParams::default(), &meter);
    assert!(
        metered.status.stop_reason().is_none(),
        "{}: an unlimited meter tripped",
        algorithm.name()
    );
    let identical = plain == metered.arrangement
        && plain.max_sum().to_bits() == metered.arrangement.max_sum().to_bits();
    assert!(
        identical,
        "{}: unlimited-meter run differs from the meterless run",
        algorithm.name()
    );

    let seconds_meterless = median_secs(repeats, || {
        solve_meterless(instance, algorithm);
    });
    let seconds_unlimited_meter = median_secs(repeats, || {
        let meter = BudgetMeter::unlimited();
        engine::solve_instance(instance, algorithm, &SolveParams::default(), &meter);
    });
    let ratio = seconds_unlimited_meter / seconds_meterless;
    eprintln!(
        "[{}] meterless {seconds_meterless:.4}s, unlimited meter \
         {seconds_unlimited_meter:.4}s ({ratio:.3}x)",
        algorithm.name()
    );
    OverheadCell {
        algorithm: algorithm.name().to_string(),
        instance: instance_desc.to_string(),
        seconds_meterless,
        seconds_unlimited_meter,
        overhead_ratio: ratio,
        bit_identical: identical,
    }
}

/// The resilience suite's pathological branch-and-bound instance:
/// similarities concentrated in a narrow band (the Lemma 6 bound stays
/// tight, so almost nothing prunes), a dense conflict graph, and large
/// user capacities. Unbudgeted, the exact search runs for geological
/// time.
fn pathological_instance() -> Instance {
    let (nv, nu) = (8usize, 24usize);
    let values: Vec<f64> = (0..nv * nu)
        .map(|i| 0.55 + 0.01 * ((i * 37 % 97) as f64 / 97.0))
        .collect();
    let matrix = SimMatrix::from_flat(nv, nu, values);
    let conflicts = ConflictGraph::from_pairs(
        nv,
        (0..nv as u32).flat_map(|i| {
            (i + 1..nv as u32)
                .filter(move |j| (i * 7 + j * 13) % 3 != 0)
                .map(move |j| (EventId(i), EventId(j)))
        }),
    );
    Instance::from_matrix(matrix, vec![6; nv], vec![8; nu], conflicts)
        .expect("pathological instance is well-formed")
}

fn main() {
    let quick = cli::has_flag("quick");
    let repeats = cli::repeats(if quick { 1 } else { 3 });
    let out = cli::flag_value("out").unwrap_or_else(|| "BENCH_resilience.json".to_string());

    // Approximation paths: the paper-default synthetic size (fast enough
    // to repeat, big enough that per-tick overhead would show).
    let approx_config = SyntheticConfig {
        num_events: if quick { 50 } else { 200 },
        num_users: if quick { 500 } else { 2000 },
        seed: 2017,
        ..Default::default()
    };
    let approx_instance = approx_config.generate();
    let approx_desc = format!(
        "synthetic |V|={} |U|={} (paper defaults) seed=2017",
        approx_config.num_events, approx_config.num_users
    );

    // Exact path: low-dimensional, small capacities, so the sequential
    // search terminates in a measurable-but-bounded time at this seed.
    let prune_config = SyntheticConfig {
        num_events: if quick { 10 } else { 12 },
        num_users: 40,
        dim: 2,
        cap_v_dist: CapDistribution::Uniform { min: 1, max: 3 },
        cap_u_dist: CapDistribution::Uniform { min: 1, max: 2 },
        conflict_ratio: 0.5,
        seed: 2015,
        ..Default::default()
    };
    let prune_instance = prune_config.generate();
    let prune_desc = format!(
        "synthetic |V|={} |U|={} d=2 c_v~U[1,3] c_u~U[1,2] cf=0.5 seed=2015",
        prune_config.num_events, prune_config.num_users
    );

    let overhead_cells = vec![
        overhead(Algorithm::Greedy, &approx_instance, &approx_desc, repeats),
        overhead(
            Algorithm::MinCostFlow,
            &approx_instance,
            &approx_desc,
            repeats,
        ),
        overhead(Algorithm::Prune, &prune_instance, &prune_desc, repeats),
    ];

    // Deadline demonstration: 100 ms on the pathological instance.
    let pathological = pathological_instance();
    let timeout_ms = 100u64;
    let start = Instant::now();
    let outcome = SolverPipeline::new(Algorithm::Prune, SolveBudget::from_timeout_ms(timeout_ms))
        .run(&pathological);
    let wall_seconds = start.elapsed().as_secs_f64();
    let feasible = outcome.arrangement.validate(&pathological).is_empty();
    assert!(feasible, "deadline demo returned an infeasible arrangement");
    assert!(
        wall_seconds < 1.0,
        "deadline demo overran: {wall_seconds:.3}s for a {timeout_ms} ms budget"
    );
    eprintln!(
        "[deadline demo] {} in {wall_seconds:.3}s (budget {timeout_ms} ms)",
        outcome.status
    );
    let deadline_demo = DeadlineDemo {
        instance: "pathological narrow-band |V|=8 |U|=24 (resilience suite)".to_string(),
        timeout_ms,
        wall_seconds,
        status: outcome.status.label(),
        exit_code: outcome.status.exit_code(),
        max_sum: outcome.arrangement.max_sum(),
        pairs: outcome.arrangement.len(),
        feasible,
    };

    let snapshot = Snapshot {
        commit: cli::source_commit(),
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        command: format!(
            "cargo run -p geacc-bench --release --bin resilience{}",
            if quick { " -- --quick" } else { "" }
        ),
        note: "seconds are medians over the repeats, single-threaded. overhead_ratio \
               compares the classic meterless entry points against the same algorithm \
               under an unlimited BudgetMeter (every check armed, nothing trips); the \
               bit_identical assertion ran before timing. The deadline demo solves the \
               resilience suite's pathological branch-and-bound instance through the \
               SolverPipeline with a 100 ms wall-clock budget — unbudgeted it does not \
               terminate in observable time."
            .to_string(),
        overhead: overhead_cells,
        deadline_demo,
    };
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    std::fs::write(&out, json + "\n").expect("write snapshot");
    eprintln!("wrote {out}");
}
