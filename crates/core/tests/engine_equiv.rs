//! Differential-equivalence gate for the engine refactor.
//!
//! Every algorithm dispatched through the [`Solver`] trait over the
//! shared [`CandidateGraph`] must be **bit-identical** — arrangement
//! and `MaxSum` bits — to the classic paper entry points, on random
//! instances, at 1 and 4 threads. The legacy free functions were only
//! deleted because this suite pins the equivalence; if it breaks, the
//! engine drifted from the paper implementations, not the other way
//! around.

use geacc_core::algorithms::{self, Algorithm, GreedyConfig, PruneConfig};
use geacc_core::engine::{self, CandidateGraph, SolveParams, SortedStreams};
use geacc_core::parallel::Threads;
use geacc_core::runtime::{BudgetMeter, SolveStatus};
use geacc_core::{AlnsConfig, Arrangement, ConflictGraph, EventId, Instance, SimMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random matrix-specified instance, small enough for the exact
/// solvers (including the DP, whose state space is bounded by
/// `prod(c_v + 1) ≤ 4^4` at these shapes).
#[derive(Debug, Clone)]
struct SmallSpec {
    rows: Vec<Vec<f64>>,
    cap_v: Vec<u32>,
    cap_u: Vec<u32>,
    conflict_pairs: Vec<(usize, usize)>,
}

impl SmallSpec {
    fn build(&self) -> Instance {
        let nv = self.rows.len();
        let conflicts = ConflictGraph::from_pairs(
            nv,
            self.conflict_pairs
                .iter()
                .map(|&(a, b)| (EventId((a % nv) as u32), EventId((b % nv) as u32))),
        );
        Instance::from_matrix(
            SimMatrix::from_rows(&self.rows),
            self.cap_v.clone(),
            self.cap_u.clone(),
            conflicts,
        )
        .expect("spec shapes are consistent")
    }
}

fn bits(sims: &[f64]) -> Vec<u64> {
    sims.iter().map(|s| s.to_bits()).collect()
}

/// Every row stream, then every column stream, of `graph` read entry by
/// entry to its end, as `(id, sim bits)`.
fn drained_streams(graph: &CandidateGraph) -> Vec<Vec<(u32, u64)>> {
    let mut streams = SortedStreams::new(graph);
    let mut out = Vec::new();
    for v in graph.instance().events() {
        let mut stream = Vec::new();
        while let Some((u, s)) = streams.row_entry(v, stream.len()) {
            stream.push((u.0, s.to_bits()));
        }
        out.push(stream);
    }
    for u in graph.instance().users() {
        let mut stream = Vec::new();
        while let Some((v, s)) = streams.col_entry(u, stream.len()) {
            stream.push((v.0, s.to_bits()));
        }
        out.push(stream);
    }
    out
}

fn small_spec(max_v: usize, max_u: usize) -> impl Strategy<Value = SmallSpec> {
    (1..=max_v, 1..=max_u).prop_flat_map(move |(nv, nu)| {
        let sim = (0u32..=100).prop_map(|x| x as f64 / 100.0);
        let rows = proptest::collection::vec(proptest::collection::vec(sim, nu), nv);
        let cap_v = proptest::collection::vec(1u32..=3, nv);
        let cap_u = proptest::collection::vec(1u32..=3, nu);
        let conflicts = proptest::collection::vec((0..nv.max(1), 0..nv.max(1)), 0..=nv * 2);
        (rows, cap_v, cap_u, conflicts).prop_map(|(rows, cap_v, cap_u, conflict_pairs)| SmallSpec {
            rows,
            cap_v,
            cap_u,
            conflict_pairs,
        })
    })
}

/// Bit-level equality: same pairs *and* the same `MaxSum` bits.
fn assert_bit_identical(engine: &Arrangement, legacy: &Arrangement, what: &str) {
    assert_eq!(engine, legacy, "{what}: arrangements differ");
    assert_eq!(
        engine.max_sum().to_bits(),
        legacy.max_sum().to_bits(),
        "{what}: MaxSum bits differ"
    );
}

/// The legacy (paper) entry point for `algo`, meterless. ALNS never had
/// a pre-engine entry point; its reference is the library function the
/// engine wraps, over its own (bit-identical) graph build.
fn legacy_solve(inst: &Instance, algo: Algorithm, params: &SolveParams) -> Arrangement {
    let threads = params.threads;
    match algo {
        Algorithm::Greedy => algorithms::greedy_with(inst, GreedyConfig { threads }),
        Algorithm::MinCostFlow => algorithms::mincostflow(inst).arrangement,
        Algorithm::Prune => {
            algorithms::prune_with(
                inst,
                PruneConfig {
                    threads,
                    ..PruneConfig::default()
                },
            )
            .arrangement
        }
        Algorithm::Exhaustive => algorithms::exhaustive(inst).arrangement,
        Algorithm::ExactDp => algorithms::exact_dp(inst).expect("spec sizes fit the DP"),
        Algorithm::RandomV { seed } => algorithms::random_v(inst, &mut StdRng::seed_from_u64(seed)),
        Algorithm::RandomU { seed } => algorithms::random_u(inst, &mut StdRng::seed_from_u64(seed)),
        Algorithm::Alns { seed } => {
            let graph = CandidateGraph::build(inst, threads);
            let p = SolveParams { seed, ..*params };
            geacc_core::alns_on(&graph, &p, &BudgetMeter::unlimited(), None).0
        }
    }
}

const ALL: [Algorithm; 8] = [
    Algorithm::Greedy,
    Algorithm::MinCostFlow,
    Algorithm::Prune,
    Algorithm::Exhaustive,
    Algorithm::ExactDp,
    Algorithm::RandomV { seed: 42 },
    Algorithm::RandomU { seed: 42 },
    Algorithm::Alns { seed: 42 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every solver, through the trait over a shared graph, matches the
    /// legacy entry point bit-for-bit — at 1 and 4 threads, under an
    /// unlimited meter (the meterless equivalence).
    #[test]
    fn engine_dispatch_is_bit_identical_to_legacy(spec in small_spec(4, 8)) {
        let inst = spec.build();
        for t in [1usize, 4] {
            let threads = Threads::new(t);
            let graph = CandidateGraph::build(&inst, threads);
            // A short ALNS run keeps the 8-algorithm sweep fast; the
            // equivalence holds at any iteration count.
            let alns = AlnsConfig { max_iterations: 200, ..AlnsConfig::default() };
            let params = SolveParams { threads, seed: 0, alns, ..SolveParams::default() };
            for algo in ALL {
                let out = engine::solve_on(&graph, algo, &params, &BudgetMeter::unlimited());
                let legacy = legacy_solve(&inst, algo, &params);
                assert_bit_identical(
                    &out.arrangement,
                    &legacy,
                    &format!("{} at {t} thread(s)", algo.name()),
                );
                prop_assert!(out.arrangement.validate(&inst).is_empty());
                prop_assert!(out.status.is_complete(), "{}: {:?}", algo.name(), out.status);
            }
        }
    }

    /// The parallel graph build is bit-identical to the serial one:
    /// same candidates, same id-ordered rows, and every row and column
    /// stream drained to the end in the same order with the same
    /// similarity bits.
    #[test]
    fn parallel_graph_build_matches_serial(spec in small_spec(4, 8)) {
        let inst = spec.build();
        let serial = CandidateGraph::build(&inst, Threads::single());
        let serial_streams = drained_streams(&serial);
        for t in [2usize, 4, 8] {
            let parallel = CandidateGraph::build(&inst, Threads::new(t));
            prop_assert_eq!(serial.num_candidates(), parallel.num_candidates());
            for v in inst.events() {
                let (su, ss) = serial.row(v);
                let (pu, ps) = parallel.row(v);
                prop_assert_eq!(su, pu, "row {:?} at {} threads", v, t);
                prop_assert_eq!(bits(ss), bits(ps), "row {:?} sims at {} threads", v, t);
            }
            prop_assert_eq!(&serial_streams, &drained_streams(&parallel), "streams at {} threads", t);
        }
    }

    /// The radix-heap SSP frontier is bit-identical to the binary-heap
    /// reference: same `best_delta`, same `max_delta`, same relaxation
    /// `MaxSum` bits, and the same arrangement bit-for-bit (the two
    /// frontiers pop in the same order, so even tie-breaks agree) — at
    /// 1 and 4 graph-build threads.
    #[test]
    fn mcf_equiv(spec in small_spec(4, 8)) {
        use geacc_core::algorithms::{mincostflow_on, McfConfig, SspHeap};
        let inst = spec.build();
        for t in [1usize, 4] {
            let graph = CandidateGraph::build(&inst, Threads::new(t));
            let solve = |heap| {
                let config = McfConfig { heap, ..McfConfig::default() };
                let (result, stopped) = mincostflow_on(&graph, config, None)
                    .expect("spec instances are well-formed");
                prop_assert!(stopped.is_none());
                Ok(result)
            };
            let radix = solve(SspHeap::Radix)?;
            let binary = solve(SspHeap::Binary)?;
            prop_assert_eq!(
                radix.relaxation.best_delta,
                binary.relaxation.best_delta,
                "best_delta diverged at {} thread(s)", t
            );
            prop_assert_eq!(
                radix.relaxation.max_delta,
                binary.relaxation.max_delta,
                "max_delta diverged at {} thread(s)", t
            );
            prop_assert_eq!(
                radix.relaxation.max_sum.to_bits(),
                binary.relaxation.max_sum.to_bits(),
                "relaxation MaxSum bits diverged at {} thread(s)", t
            );
            assert_bit_identical(
                &radix.arrangement,
                &binary.arrangement,
                &format!("radix vs binary SSP at {t} thread(s)"),
            );
        }
    }

    /// Exact solvers that run to completion claim `Optimal` and agree
    /// with each other; heuristics never beat a completed exact solve.
    #[test]
    fn exact_solvers_agree_and_bound_the_heuristics(spec in small_spec(3, 6)) {
        let inst = spec.build();
        let graph = CandidateGraph::build(&inst, Threads::single());
        let params = SolveParams::default();
        let meter = BudgetMeter::unlimited();
        let mut optimum: Option<f64> = None;
        for algo in [Algorithm::Prune, Algorithm::Exhaustive, Algorithm::ExactDp] {
            let out = engine::solve_on(&graph, algo, &params, &meter);
            prop_assert_eq!(out.status, SolveStatus::Optimal, "{}", algo.name());
            let sum = out.arrangement.max_sum();
            if let Some(reference) = optimum {
                prop_assert!((sum - reference).abs() < 1e-9, "{} disagrees", algo.name());
            } else {
                optimum = Some(sum);
            }
        }
        let optimum = optimum.unwrap();
        for algo in [Algorithm::Greedy, Algorithm::MinCostFlow] {
            let out = engine::solve_on(&graph, algo, &params, &meter);
            prop_assert!(
                out.arrangement.max_sum() <= optimum + 1e-9,
                "{} beat the proven optimum",
                algo.name()
            );
        }
    }
}

#[test]
fn toy_instance_golden_values_survive_the_engine_path() {
    // The paper's Table I numbers, through the engine instead of the
    // legacy dispatcher the CLI used to call.
    let inst = geacc_core::toy::table1_instance();
    let graph = CandidateGraph::build(&inst, Threads::single());
    let params = SolveParams::default();
    let meter = BudgetMeter::unlimited();
    let optimal = engine::solve_on(&graph, Algorithm::Prune, &params, &meter);
    assert!((optimal.arrangement.max_sum() - geacc_core::toy::OPTIMAL_MAX_SUM).abs() < 5e-3);
    let greedy = engine::solve_on(&graph, Algorithm::Greedy, &params, &meter);
    assert!((greedy.arrangement.max_sum() - geacc_core::toy::GREEDY_MAX_SUM).abs() < 5e-3);
    let mcf = engine::solve_on(&graph, Algorithm::MinCostFlow, &params, &meter);
    assert!((mcf.arrangement.max_sum() - geacc_core::toy::MINCOSTFLOW_MAX_SUM).abs() < 5e-3);
}
