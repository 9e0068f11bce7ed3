//! Thread-scaling snapshot for the parallel runtime.
//!
//! Runs the parallel code paths — the Prune-GEACC branch-and-bound,
//! Greedy-GEACC over the shared candidate graph, the dense
//! similarity-matrix build, and the engine's CSR candidate-graph
//! build — at worker counts {1, 2, 4, 8}, asserting
//! that every result is bit-identical to the single-threaded run before
//! recording its wall-clock time. Writes `BENCH_parallel.json` (or
//! `--out <path>`) with the raw seconds, the speedups relative to one
//! worker, and the host's available parallelism, so a reader can judge
//! whether the speedups were physically possible on the machine that
//! produced them (on a single-core host every speedup is ≈ 1×; that is
//! the honest number, not a defect).
//!
//! ```sh
//! cargo run -p geacc-bench --release --bin scaling
//! cargo run -p geacc-bench --release --bin scaling -- --quick --out /tmp/b.json
//! ```

use geacc_bench::cli;
use geacc_core::algorithms::{greedy_with, prune_with, GreedyConfig, PruneConfig};
use geacc_core::engine::{CandidateGraph, SortedStreams};
use geacc_core::parallel::Threads;
use geacc_datagen::{CapDistribution, SyntheticConfig};
use serde::Serialize;
use std::time::Instant;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

#[derive(Serialize)]
struct Snapshot {
    commit: String,
    host_parallelism: usize,
    command: String,
    note: String,
    benchmarks: Vec<Benchmark>,
}

#[derive(Serialize)]
struct Benchmark {
    name: String,
    instance: String,
    max_sum: f64,
    bit_identical_across_threads: bool,
    results: Vec<Cell>,
}

#[derive(Serialize)]
struct Cell {
    threads: usize,
    seconds: f64,
    speedup_vs_1: f64,
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

/// Run one benchmark over [`THREAD_COUNTS`]: `run(threads)` must return
/// the quantity whose bits must not depend on the worker count.
fn scale<T: PartialEq>(
    name: &str,
    instance_desc: &str,
    repeats: usize,
    run: impl Fn(Threads) -> (f64, T),
) -> Benchmark {
    let (reference_sum, reference) = run(Threads::single());
    let mut results = Vec::new();
    let mut identical = true;
    for &t in &THREAD_COUNTS {
        let threads = Threads::new(t);
        let (sum, value) = run(threads);
        identical &= sum.to_bits() == reference_sum.to_bits() && value == reference;
        let seconds = median_secs(repeats, || {
            run(threads);
        });
        results.push(Cell {
            threads: t,
            seconds,
            speedup_vs_1: 0.0,
        });
        eprintln!("[{name}] threads = {t}: {seconds:.4}s");
    }
    assert!(
        identical,
        "{name}: result differed from the single-threaded run"
    );
    let base = results[0].seconds;
    for cell in &mut results {
        cell.speedup_vs_1 = base / cell.seconds;
    }
    Benchmark {
        name: name.to_string(),
        instance: instance_desc.to_string(),
        max_sum: reference_sum,
        bit_identical_across_threads: identical,
        results,
    }
}

fn main() {
    let quick = cli::has_flag("quick");
    let repeats = cli::repeats(if quick { 1 } else { 3 });
    let out = cli::flag_value("out").unwrap_or_else(|| "BENCH_parallel.json".to_string());

    // Prune-GEACC needs a low-dimensional instance (spread-out
    // similarities keep the Lemma 6 bound effective) with small
    // capacities so the exact search stays tractable at every seed.
    // `|V|=14, |U|=40` runs the sequential search for whole seconds at
    // this seed (B&B runtimes vary by orders of magnitude across seeds;
    // the `--quick` size finishes in milliseconds).
    let prune_config = SyntheticConfig {
        num_events: if quick { 12 } else { 14 },
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

    // The approximation paths scale over much larger inputs.
    let big_config = SyntheticConfig {
        num_events: if quick { 50 } else { 200 },
        num_users: if quick { 500 } else { 2000 },
        seed: 2016,
        ..Default::default()
    };
    let big_instance = big_config.generate();
    let big_desc = format!(
        "synthetic |V|={} |U|={} (paper defaults) seed=2016",
        big_config.num_events, big_config.num_users
    );

    let benchmarks = vec![
        scale("prune_bnb", &prune_desc, repeats, |threads| {
            let result = prune_with(
                &prune_instance,
                PruneConfig {
                    threads,
                    ..Default::default()
                },
            );
            (result.arrangement.max_sum(), result.arrangement)
        }),
        scale("greedy_shared_graph", &big_desc, repeats, |threads| {
            let arrangement = greedy_with(&big_instance, GreedyConfig { threads });
            (arrangement.max_sum(), arrangement)
        }),
        scale("dense_similarity_build", &big_desc, repeats, |threads| {
            let matrix = big_instance.dense_similarity(threads);
            let mut checksum = 0.0;
            for v in 0..big_instance.num_events() {
                for u in 0..big_instance.num_users() {
                    checksum += matrix.get(v, u);
                }
            }
            (checksum, ())
        }),
        scale("candidate_graph_build", &big_desc, repeats, |threads| {
            // The engine's shared CSR build — the setup cost every
            // solver dispatch amortizes — plus the first stream entry of
            // every event and user (what Greedy-GEACC's initialization
            // reads). Checksumming those heads through the stream API
            // keeps the build and the first-chunk ordering work from
            // being optimized away.
            let graph = CandidateGraph::build(&big_instance, threads);
            let mut streams = SortedStreams::new(&graph);
            let mut checksum = 0.0;
            for v in big_instance.events() {
                checksum += streams.row_entry(v, 0).map_or(0.0, |(_, sim)| sim);
            }
            for u in big_instance.users() {
                checksum += streams.col_entry(u, 0).map_or(0.0, |(_, sim)| sim);
            }
            (checksum, graph.num_candidates())
        }),
    ];

    let snapshot = Snapshot {
        commit: cli::source_commit(),
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        command: format!(
            "cargo run -p geacc-bench --release --bin scaling{}",
            if quick { " -- --quick" } else { "" }
        ),
        note: "seconds are medians over the repeats; speedup_vs_1 is relative to the \
               threads=1 cell of the same run. Speedups are bounded by host_parallelism: \
               on a single-core host every value is ≈ 1× by physics, and the point of \
               the snapshot is the bit_identical_across_threads assertion."
            .to_string(),
        benchmarks,
    };
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    std::fs::write(&out, json + "\n").expect("write snapshot");
    eprintln!("wrote {out}");
}
