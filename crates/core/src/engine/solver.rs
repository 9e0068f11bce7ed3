//! The [`Solver`] trait: one budgeted interface over every algorithm.
//!
//! Each of the paper's algorithms (plus the extensions) implements
//! `solve(&CandidateGraph, &SolveParams, &BudgetMeter) -> Outcome`, so
//! callers — the pipeline, the CLI, the bench harness, the server —
//! dispatch uniformly instead of choosing between plain and budgeted
//! free functions. The meter *is* the budget: pass
//! [`BudgetMeter::unlimited`] for a classic run-to-completion solve
//! (bit-identical to the historical meterless entry points), or a real
//! budget for an anytime solve. Cancellation travels inside the meter
//! ([`BudgetMeter::with_cancel`]), so the trait needs no separate token
//! argument.
//!
//! Status mapping is uniform and honest: a completed exact solver
//! reports [`SolveStatus::Optimal`], a completed heuristic
//! [`Provenance::Completed`], and any budget stop
//! [`Provenance::Incumbent`] with the reason. [`ExactDpSolver`] is
//! all-or-nothing — an oversized instance panics (with the same message
//! the legacy dispatcher used), which the pipeline's `catch_unwind`
//! turns into a degradation; dispatchers that want a clean error
//! pre-check with [`dp_state_space`][crate::algorithms::dp::dp_state_space].

use crate::algorithms::{
    exact_dp, greedy_on, mincostflow_on, prune_on, random_u, random_v, McfConfig, PruneConfig,
    SearchStats,
};
use crate::alns::{alns_on, AlnsConfig};
use crate::engine::CandidateGraph;
use crate::model::arrangement::Arrangement;
use crate::parallel::Threads;
use crate::runtime::budget::{BudgetMeter, StopReason};
use crate::runtime::outcome::{Outcome, Provenance, SolveStatus};
use crate::runtime::SolveError;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What a solver can promise, for dispatchers choosing among them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverCaps {
    /// A completed run carries an optimality certificate.
    pub exact: bool,
    /// The solver polls the meter cooperatively and can return a
    /// feasible incumbent mid-run. Solvers without this flag run in one
    /// shot and only observe the meter's latched stop state.
    pub budget_aware: bool,
    /// The solver is cheap and deterministic enough to seed incremental
    /// maintenance ([`IncrementalArranger`][crate::IncrementalArranger]
    /// uses the solver with this capability for its initial state).
    pub incremental_seed: bool,
}

/// Per-dispatch knobs shared by every solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveParams {
    /// Worker budget for solvers with parallel paths (the exact search,
    /// and graph construction in [`solve_instance`][crate::engine::solve_instance]).
    /// Results are bit-identical at every setting.
    pub threads: Threads,
    /// Seed for the randomized baselines; ignored by the deterministic
    /// solvers. Engine dispatch overrides this with the seed carried in
    /// [`Algorithm::RandomV`][crate::algorithms::Algorithm::RandomV] /
    /// [`RandomU`][crate::algorithms::Algorithm::RandomU] when present.
    pub seed: u64,
    /// MinCostFlow-GEACC knobs (Δ-sweep early stop, exact repair, SSP
    /// heap choice); ignored by every other solver. The default is the
    /// paper's Algorithm 1 with the fast radix-heap frontier.
    pub mcf: McfConfig,
    /// ALNS-GEACC knobs (destroy intensity, weight adaptation, cooling
    /// schedule — see [`AlnsConfig`]); ignored by every other solver.
    pub alns: AlnsConfig,
}

impl Default for SolveParams {
    fn default() -> Self {
        SolveParams {
            threads: Threads::single(),
            seed: 0,
            mcf: McfConfig::default(),
            alns: AlnsConfig::default(),
        }
    }
}

/// One arrangement algorithm behind the uniform budgeted interface.
pub trait Solver: Send + Sync {
    /// The paper's display name (`"Greedy-GEACC"`, `"Prune-GEACC"`, …).
    fn name(&self) -> &'static str;

    /// The stage key used by fault plans, pipeline reporting, and the
    /// registry (`"greedy"`, `"prune"`, `"exact-dp"`, …).
    fn stage(&self) -> &'static str;

    /// What this solver promises.
    fn capabilities(&self) -> SolverCaps;

    /// Run over a prebuilt candidate graph under `meter`. Always
    /// returns a feasible arrangement (empty in the worst case); the
    /// outcome's status says whether it is optimal, complete, or a
    /// budget-stopped incumbent.
    fn solve(&self, graph: &CandidateGraph, params: &SolveParams, meter: &BudgetMeter) -> Outcome;
}

/// Assemble an [`Outcome`] from a solver's raw pieces with the uniform
/// status mapping.
fn outcome(
    arrangement: Arrangement,
    stopped: Option<StopReason>,
    exact: bool,
    meter: &BudgetMeter,
    search: Option<SearchStats>,
) -> Outcome {
    let status = match stopped {
        None if exact => SolveStatus::Optimal,
        None => SolveStatus::Feasible(Provenance::Completed),
        Some(reason) => SolveStatus::Feasible(Provenance::Incumbent(reason)),
    };
    Outcome {
        arrangement,
        status,
        nodes: meter.nodes(),
        elapsed: meter.elapsed(),
        search,
        alns: None,
    }
}

/// An [`Outcome`] for a solver that rejected the instance outright: an
/// empty (trivially feasible) arrangement with
/// [`SolveStatus::Failed`]. The pipeline treats this stage as failed
/// and degrades to its fallback chain.
fn failed(graph: &CandidateGraph, err: SolveError, meter: &BudgetMeter) -> Outcome {
    Outcome {
        arrangement: Arrangement::empty_for(graph.instance()),
        status: SolveStatus::Failed(err),
        nodes: meter.nodes(),
        elapsed: meter.elapsed(),
        search: None,
        alns: None,
    }
}

/// Greedy-GEACC (`1/(1 + max c_u)`-approximation) over the graph's
/// lazily sorted neighbour streams.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedySolver;

impl Solver for GreedySolver {
    fn name(&self) -> &'static str {
        "Greedy-GEACC"
    }
    fn stage(&self) -> &'static str {
        "greedy"
    }
    fn capabilities(&self) -> SolverCaps {
        SolverCaps {
            exact: false,
            budget_aware: true,
            incremental_seed: true,
        }
    }
    fn solve(&self, graph: &CandidateGraph, _params: &SolveParams, meter: &BudgetMeter) -> Outcome {
        let (arrangement, stopped) = greedy_on(graph, Some(meter));
        outcome(arrangement, stopped, false, meter, None)
    }
}

/// MinCostFlow-GEACC (`1/max c_u`-approximation): min-cost-flow
/// relaxation plus conflict repair.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinCostFlowSolver;

impl Solver for MinCostFlowSolver {
    fn name(&self) -> &'static str {
        "MinCostFlow-GEACC"
    }
    fn stage(&self) -> &'static str {
        "mincostflow"
    }
    fn capabilities(&self) -> SolverCaps {
        SolverCaps {
            exact: false,
            budget_aware: true,
            incremental_seed: false,
        }
    }
    fn solve(&self, graph: &CandidateGraph, params: &SolveParams, meter: &BudgetMeter) -> Outcome {
        match mincostflow_on(graph, params.mcf, Some(meter)) {
            Ok((result, stopped)) => outcome(result.arrangement, stopped, false, meter, None),
            Err(err) => failed(graph, err, meter),
        }
    }
}

/// Prune-GEACC: exact branch-and-bound with the Lemma 6 bound and a
/// greedy-seeded incumbent.
#[derive(Debug, Clone, Copy, Default)]
pub struct PruneSolver;

impl Solver for PruneSolver {
    fn name(&self) -> &'static str {
        "Prune-GEACC"
    }
    fn stage(&self) -> &'static str {
        "prune"
    }
    fn capabilities(&self) -> SolverCaps {
        SolverCaps {
            exact: true,
            budget_aware: true,
            incremental_seed: false,
        }
    }
    fn solve(&self, graph: &CandidateGraph, params: &SolveParams, meter: &BudgetMeter) -> Outcome {
        let budgeted = prune_on(
            graph,
            PruneConfig {
                threads: params.threads,
                ..PruneConfig::default()
            },
            Some(meter),
        );
        outcome(
            budgeted.result.arrangement,
            budgeted.stopped,
            true,
            meter,
            Some(budgeted.result.stats),
        )
    }
}

/// The paper's exhaustive-search comparator: the same enumeration with
/// pruning and seeding disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustiveSolver;

impl Solver for ExhaustiveSolver {
    fn name(&self) -> &'static str {
        "Exhaustive"
    }
    fn stage(&self) -> &'static str {
        "exhaustive"
    }
    fn capabilities(&self) -> SolverCaps {
        SolverCaps {
            exact: true,
            budget_aware: true,
            incremental_seed: false,
        }
    }
    fn solve(&self, graph: &CandidateGraph, params: &SolveParams, meter: &BudgetMeter) -> Outcome {
        let budgeted = prune_on(
            graph,
            PruneConfig {
                enable_pruning: false,
                greedy_seed: false,
                threads: params.threads,
            },
            Some(meter),
        );
        outcome(
            budgeted.result.arrangement,
            budgeted.stopped,
            true,
            meter,
            Some(budgeted.result.stats),
        )
    }
}

/// Capacity-vector exact DP (extension): deterministic, exponential in
/// `|V|` only. All-or-nothing — oversized instances panic (pipeline
/// stages catch this as a degradation; pre-check with
/// [`dp_state_space`][crate::algorithms::dp::dp_state_space] for a
/// clean error).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactDpSolver;

impl Solver for ExactDpSolver {
    fn name(&self) -> &'static str {
        "Exact-DP"
    }
    fn stage(&self) -> &'static str {
        "exact-dp"
    }
    fn capabilities(&self) -> SolverCaps {
        SolverCaps {
            exact: true,
            budget_aware: false,
            incremental_seed: false,
        }
    }
    fn solve(&self, graph: &CandidateGraph, _params: &SolveParams, meter: &BudgetMeter) -> Outcome {
        let arrangement = exact_dp(graph.instance())
            .expect("instance too large for the DP; use prune or an approximation");
        outcome(arrangement, meter.stop_reason(), true, meter, None)
    }
}

/// Random-V baseline: events in order, each pair admitted with
/// probability `c_v / |U|` when feasible.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomVSolver;

impl Solver for RandomVSolver {
    fn name(&self) -> &'static str {
        "Random-V"
    }
    fn stage(&self) -> &'static str {
        "random-v"
    }
    fn capabilities(&self) -> SolverCaps {
        SolverCaps {
            exact: false,
            budget_aware: false,
            incremental_seed: false,
        }
    }
    fn solve(&self, graph: &CandidateGraph, params: &SolveParams, meter: &BudgetMeter) -> Outcome {
        let arrangement = random_v(graph.instance(), &mut StdRng::seed_from_u64(params.seed));
        outcome(arrangement, meter.stop_reason(), false, meter, None)
    }
}

/// Random-U baseline: users in order, each pair admitted with
/// probability `c_u / |V|` when feasible.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomUSolver;

impl Solver for RandomUSolver {
    fn name(&self) -> &'static str {
        "Random-U"
    }
    fn stage(&self) -> &'static str {
        "random-u"
    }
    fn capabilities(&self) -> SolverCaps {
        SolverCaps {
            exact: false,
            budget_aware: false,
            incremental_seed: false,
        }
    }
    fn solve(&self, graph: &CandidateGraph, params: &SolveParams, meter: &BudgetMeter) -> Outcome {
        let arrangement = random_u(graph.instance(), &mut StdRng::seed_from_u64(params.seed));
        outcome(arrangement, meter.stop_reason(), false, meter, None)
    }
}

/// ALNS-GEACC (extension): seeded destroy/repair large-neighborhood
/// search — the anytime quality closer for sizes where exact search is
/// hopeless. Deterministic per (instance, seed, node budget); see
/// [`crate::alns`] for the operators and acceptance schedule.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlnsSolver;

impl Solver for AlnsSolver {
    fn name(&self) -> &'static str {
        "ALNS-GEACC"
    }
    fn stage(&self) -> &'static str {
        "alns"
    }
    fn capabilities(&self) -> SolverCaps {
        SolverCaps {
            exact: false,
            budget_aware: true,
            incremental_seed: false,
        }
    }
    fn solve(&self, graph: &CandidateGraph, params: &SolveParams, meter: &BudgetMeter) -> Outcome {
        let (arrangement, stopped, stats) = alns_on(graph, params, meter, None);
        let mut out = outcome(arrangement, stopped, false, meter, None);
        out.alns = Some(stats);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy;

    #[test]
    fn every_solver_is_feasible_on_the_toy_instance() {
        let inst = toy::table1_instance();
        let graph = CandidateGraph::build(&inst, Threads::single());
        let params = SolveParams::default();
        let solvers: [&dyn Solver; 8] = [
            &GreedySolver,
            &MinCostFlowSolver,
            &PruneSolver,
            &ExhaustiveSolver,
            &ExactDpSolver,
            &RandomVSolver,
            &RandomUSolver,
            &AlnsSolver,
        ];
        for solver in solvers {
            let meter = BudgetMeter::unlimited();
            let out = solver.solve(&graph, &params, &meter);
            assert!(
                out.arrangement.validate(&inst).is_empty(),
                "{} infeasible",
                solver.name()
            );
            assert!(out.status.is_complete(), "{}", solver.name());
            let exact = solver.capabilities().exact;
            assert_eq!(
                out.status == SolveStatus::Optimal,
                exact,
                "{} status/capability mismatch",
                solver.name()
            );
        }
    }

    #[test]
    fn exact_solvers_report_optimal_and_search_stats_where_expected() {
        let inst = toy::table1_instance();
        let graph = CandidateGraph::build(&inst, Threads::single());
        let params = SolveParams::default();
        let meter = BudgetMeter::unlimited();
        let pruned = PruneSolver.solve(&graph, &params, &meter);
        assert_eq!(pruned.status, SolveStatus::Optimal);
        assert!(pruned.search.is_some());
        assert!((pruned.arrangement.max_sum() - toy::OPTIMAL_MAX_SUM).abs() < 1e-9);
        let meter = BudgetMeter::unlimited();
        let greedy = GreedySolver.solve(&graph, &params, &meter);
        assert!(greedy.search.is_none());
    }

    #[test]
    fn budget_stops_surface_as_incumbents() {
        use crate::runtime::budget::SolveBudget;
        let inst = toy::table1_instance();
        let graph = CandidateGraph::build(&inst, Threads::single());
        let meter = BudgetMeter::new(&SolveBudget::from_max_nodes(0));
        let out = PruneSolver.solve(&graph, &SolveParams::default(), &meter);
        assert_eq!(
            out.status.stop_reason(),
            Some(StopReason::NodeBudget),
            "{:?}",
            out.status
        );
        assert!(out.arrangement.validate(&inst).is_empty());
    }

    #[test]
    fn random_solvers_use_the_params_seed() {
        let inst = toy::table1_instance();
        let graph = CandidateGraph::build(&inst, Threads::single());
        let run = |seed| {
            RandomVSolver
                .solve(
                    &graph,
                    &SolveParams {
                        seed,
                        ..SolveParams::default()
                    },
                    &BudgetMeter::unlimited(),
                )
                .arrangement
        };
        assert_eq!(run(7), run(7));
        let legacy = random_v(&inst, &mut StdRng::seed_from_u64(7));
        assert_eq!(run(7), legacy);
    }
}
