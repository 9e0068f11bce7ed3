//! The unified solver engine: one problem representation, one solver
//! interface, one dispatch path.
//!
//! Before this layer existed, every consumer built its own view of the
//! sim>0 bipartite graph (greedy walked a `NeighborOracle`, mincostflow
//! densified rows, the exact search kept private adjacency) and chose
//! between plain and budgeted free functions by hand. The engine
//! factors that into three pieces:
//!
//! - [`CandidateGraph`] — a borrowed CSR of every positive-similarity
//!   `(event, user)` pair, id-ascending rows plus their column
//!   transpose, built once per instance (optionally in parallel,
//!   bit-identically) and shared by every solver, which reads
//!   neighbours in similarity order through a per-solve
//!   [`SortedStreams`];
//! - [`Solver`] — `name` / `stage` / [`capabilities`][Solver::capabilities] /
//!   `solve(&CandidateGraph, &SolveParams, &BudgetMeter) -> Outcome`,
//!   implemented by all five paper algorithms plus the extensions, with
//!   [`BudgetMeter::unlimited`][crate::runtime::BudgetMeter::unlimited]
//!   recovering the classic run-to-completion behavior bit-for-bit;
//! - [`SolverRegistry`] + [`solve_on`] / [`solve_instance`] — the single
//!   dispatch point the pipeline, `geacc solve`, the bench harness, and
//!   the server all route through, with per-solver timing accumulated
//!   in [`EngineStats`].
//!
//! The differential suite `crates/core/tests/engine_equiv.rs` pins each
//! solver through this path to its historical entry point bit-for-bit
//! (arrangement and `MaxSum`) at 1 and 4 threads.

mod graph;
mod registry;
mod solver;
mod stats;

pub use graph::{CandidateGraph, GraphFlats, SortedStreams};
pub use registry::{refine_on, solve_instance, solve_on, SolverRegistry, UnknownAlgorithm};
pub use solver::{
    AlnsSolver, ExactDpSolver, ExhaustiveSolver, GreedySolver, MinCostFlowSolver, PruneSolver,
    RandomUSolver, RandomVSolver, SolveParams, Solver, SolverCaps,
};
pub use stats::{EngineStats, SolverTiming, NUM_SOLVER_SLOTS};
