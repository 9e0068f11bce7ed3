//! The batch-planning workloads: one solver over generated instances,
//! timed from an in-memory instance to an audited arrangement
//! (`CandidateGraph::build` → `engine::solve_on` →
//! `Arrangement::validate`), single-threaded.

use std::time::Instant;

use geacc_bench::alloc;
use geacc_core::algorithms::bounds::trivial_upper_bound;
use geacc_core::algorithms::mincostflow::{mincostflow_on, McfConfig};
use geacc_core::algorithms::Algorithm;
use geacc_core::engine::{solve_on, SolveParams};
use geacc_core::parallel::Threads;
use geacc_core::{BudgetMeter, CandidateGraph, Instance, SolveStatus};
use geacc_datagen::{CapDistribution, SyntheticConfig};
use geacc_flow::assignment::BipartiteMatcher;

use crate::calib::Calibrator;
use crate::report::Report;
use crate::rng::SplitMix64;
use crate::stats::{median, quantile, Summary};
use crate::sys;
use crate::trace::Tracer;
use crate::RunArgs;

/// The quantile `tail_ms` reports over a run's solves.
const PLAN_TAIL: f64 = 0.75;

/// Instance-generation rounds behind `setup_s` (median of their CPU
/// times reported).
const SETUP_ROUNDS: usize = 15;

/// One planning workload.
pub struct PlanSpec {
    pub num_events: usize,
    pub num_users: usize,
    pub cap_v: CapDistribution,
    pub algorithm: Algorithm,
    /// Instances generated per run (seeds derived from `--seed`); the
    /// solves cycle over them, which averages out instance-to-instance
    /// variation in the per-run figures.
    pub instances: usize,
}

impl PlanSpec {
    /// Fig. 5a/5b scalability cell: Greedy-GEACC over 500 × 20 000,
    /// `c_v ~ U[1, 200]`. The CSR build dominates.
    pub fn scale() -> PlanSpec {
        PlanSpec {
            num_events: 500,
            num_users: 20_000,
            cap_v: CapDistribution::Uniform { min: 1, max: 200 },
            algorithm: Algorithm::Greedy,
            instances: 1,
        }
    }

    /// MinCostFlow-GEACC over 200 × 5 000 at the paper's default
    /// capacities. The SSP flow kernel dominates.
    pub fn flow() -> PlanSpec {
        PlanSpec {
            num_events: 200,
            num_users: 5_000,
            cap_v: SyntheticConfig::default().cap_v_dist,
            algorithm: Algorithm::MinCostFlow,
            instances: 5,
        }
    }

    fn config(&self, seed: u64, index: usize) -> SyntheticConfig {
        SyntheticConfig {
            num_events: self.num_events,
            num_users: self.num_users,
            cap_v_dist: self.cap_v,
            seed: SplitMix64::derive(seed, index as u64 + 1).next_u64(),
            ..SyntheticConfig::default()
        }
    }
}

fn solver_span(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::MinCostFlow => "solver.mcf",
        _ => "solver.greedy",
    }
}

/// One audited solve.
struct Solved {
    secs: f64,
    /// CPU time of the solve: the solving thread's and the process's.
    cpu_s: f64,
    process_cpu_s: f64,
    /// Host-speed factor for the solve's CPU times (`calib`); 1 outside
    /// the timed loop.
    speed: f64,
    max_sum: f64,
    /// Peak heap above the pre-solve level, whole solve / build only.
    peak_bytes: usize,
    build_peak_bytes: usize,
    candidates: usize,
    feasible: bool,
    detail: String,
}

fn solve_once(inst: &Instance, algorithm: Algorithm, t: &mut Tracer, req: u64) -> Solved {
    let base = alloc::live_bytes();
    alloc::reset_peak();
    let (start, cpu0, process0) = (Instant::now(), sys::thread_cpu(), sys::process_cpu());
    let root = t.begin("solve", req, None);
    let graph = t.leaf("graph.build", req, Some(root), || {
        CandidateGraph::build(inst, Threads::single())
    });
    let build_peak_bytes = alloc::peak_bytes().saturating_sub(base);
    let outcome = t.leaf(solver_span(algorithm), req, Some(root), || {
        solve_on(
            &graph,
            algorithm,
            &SolveParams::default(),
            &BudgetMeter::unlimited(),
        )
    });
    let violations = t.leaf("model.validate", req, Some(root), || {
        outcome.arrangement.validate(inst)
    });
    t.end(root);
    let secs = start.elapsed().as_secs_f64();
    let cpu_s = (sys::thread_cpu() - cpu0).as_secs_f64();
    let process_cpu_s = (sys::process_cpu() - process0).as_secs_f64();
    let completed = matches!(
        outcome.status,
        SolveStatus::Optimal | SolveStatus::Feasible(_)
    );
    Solved {
        secs,
        cpu_s,
        process_cpu_s,
        speed: 1.0,
        max_sum: outcome.arrangement.max_sum(),
        peak_bytes: alloc::peak_bytes().saturating_sub(base),
        build_peak_bytes,
        candidates: graph.num_candidates(),
        feasible: violations.is_empty() && completed,
        detail: format!(
            "status {}, {} violation(s)",
            outcome.status,
            violations.len()
        ),
    }
}

/// Solve round-robin over `instances` until `seconds` have passed and
/// every instance has been solved at least once, each solve bracketed
/// by the calibration reference. Returns the solves, the wall time of
/// the loop and the median reference time, seconds.
fn solve_loop(
    instances: &[Instance],
    algorithm: Algorithm,
    seconds: f64,
    t: &mut Tracer,
) -> (Vec<(usize, Solved)>, f64, f64) {
    let start = Instant::now();
    let mut cal = Calibrator::new();
    let mut out = Vec::new();
    while out.len() < instances.len() || start.elapsed().as_secs_f64() < seconds {
        let i = out.len() % instances.len();
        let mut solved = solve_once(&instances[i], algorithm, t, out.len() as u64);
        solved.speed = cal.factor();
        out.push((i, solved));
    }
    let reference = median(cal.refs()).expect("reference times");
    (out, start.elapsed().as_secs_f64(), reference)
}

pub fn run(spec: &PlanSpec, args: &RunArgs) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(args.trace);
    report.provenance(
        "instance",
        format!(
            "{} x {} (d=20, cf=0.25, c_v {:?}, c_u U[1,4]), {} instance(s)",
            spec.num_events, spec.num_users, spec.cap_v, spec.instances
        ),
    );
    report.provenance("algorithm", spec.algorithm.name());
    report.provenance("solver_threads", 1);

    // Set-up: generate the run's instances, several rounds; every round
    // must reproduce the first bit-for-bit.
    let configs: Vec<SyntheticConfig> = (0..spec.instances)
        .map(|i| spec.config(args.seed, i))
        .collect();
    let mut setup = Vec::new();
    let mut instances: Vec<Instance> = Vec::new();
    let mut deterministic = true;
    let mut cal = Calibrator::new();
    for round in 0..SETUP_ROUNDS {
        let cpu0 = sys::process_cpu();
        let generated: Vec<Instance> = configs
            .iter()
            .map(|c| tracer.leaf("datagen.generate", round as u64, None, || c.generate()))
            .collect();
        let cpu = (sys::process_cpu() - cpu0).as_secs_f64();
        setup.push(cpu * cal.factor());
        if instances.is_empty() {
            instances = generated;
        } else {
            deterministic &= generated == instances;
        }
    }
    report.check(
        "datagen.deterministic",
        deterministic,
        format!("{SETUP_ROUNDS} generation rounds from one seed"),
    );

    // Warm-up, untimed: each instance's upper bound for the guarantee
    // check — for MinCostFlow the relaxation sweep, which runs the same
    // build and flow kernel as a solve — plus, for the other solvers,
    // one solve per instance. First-touch page faults and cold caches
    // stay out of the timed solves.
    let mut warm = Vec::new();
    let bounds: Vec<Result<(&str, f64, f64), String>> = instances
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            if spec.algorithm != Algorithm::MinCostFlow {
                warm.push((
                    i,
                    solve_once(inst, spec.algorithm, &mut Tracer::new(false), 0),
                ));
            }
            upper_bound(spec.algorithm, inst)
        })
        .collect();

    // Timed solves. A traced run spends half its time untraced, for the
    // tracing overhead, and half traced.
    let seconds = args.seconds as f64;
    let (timed, elapsed, reference, traced) = if args.trace {
        let (plain, elapsed, reference) = solve_loop(
            &instances,
            spec.algorithm,
            seconds / 2.0,
            &mut Tracer::new(false),
        );
        let (traced, _, _) = solve_loop(&instances, spec.algorithm, seconds / 2.0, &mut tracer);
        (plain, elapsed, reference, traced)
    } else {
        let (plain, elapsed, reference) =
            solve_loop(&instances, spec.algorithm, seconds, &mut tracer);
        (plain, elapsed, reference, Vec::new())
    };
    let all: Vec<&(usize, Solved)> = warm.iter().chain(&timed).chain(&traced).collect();

    // Correctness: every arrangement audits clean, MaxSum repeats
    // bit-for-bit per instance, and clears the paper's guarantee.
    let failed = all.iter().filter(|(_, s)| !s.feasible).count();
    let bad = all.iter().find(|(_, s)| !s.feasible);
    report.check(
        "arrangement.validate",
        failed == 0,
        match bad {
            Some((i, s)) => format!("instance {i}: {}", s.detail),
            None => format!("{} audited arrangements", all.len()),
        },
    );
    let mut per_instance = Vec::new();
    let mut fracs = Vec::new();
    for (i, bound) in bounds.iter().enumerate() {
        let sums: Vec<f64> = all
            .iter()
            .filter(|(j, _)| *j == i)
            .map(|(_, s)| s.max_sum)
            .collect();
        let first = sums[0];
        report.check(
            format!("max_sum.repeatable[{i}]"),
            sums.iter().all(|s| s.to_bits() == first.to_bits()),
            format!("{} solves, MaxSum {first}", sums.len()),
        );
        per_instance.push(first);
        let (passed, detail) = match bound {
            Ok((label, bound, factor)) => {
                fracs.push(first / bound);
                (
                    first >= bound / factor,
                    format!("MaxSum {first} >= {label} {bound} / {factor}"),
                )
            }
            Err(e) => (false, e.clone()),
        };
        report.check(format!("guarantee[{i}]"), passed, detail);
    }

    let secs: Vec<f64> = timed.iter().map(|(_, s)| s.secs).collect();
    let solve = Summary::of(&secs).expect("at least one solve");
    let peak_mb = median(
        &timed
            .iter()
            .map(|(_, s)| s.peak_bytes as f64 / 1e6)
            .collect::<Vec<_>>(),
    )
    .expect("at least one solve");
    let mean_max_sum = per_instance.iter().sum::<f64>() / per_instance.len() as f64;
    let max_sum_frac = fracs.iter().sum::<f64>() / fracs.len().max(1) as f64;
    let cpus: Vec<f64> = timed.iter().map(|(_, s)| s.cpu_s).collect();
    let cpu = Summary::of(&cpus).expect("at least one solve");
    // The gated figures: CPU times at the calibration's nominal speed.
    let scaled: Vec<f64> = timed.iter().map(|(_, s)| s.cpu_s * s.speed).collect();
    let scaled_cpu = Summary::of(&scaled).expect("at least one solve");
    // Under 20 solves no percentile has ten samples beyond it, and the
    // slowest solve spread by 0.33 of its median over five plan-flow
    // runs (a change of host speed within one solve escapes the
    // calibration), so the tail is the upper quartile.
    let scaled_tail = {
        let mut sorted = scaled.clone();
        sorted.sort_by(f64::total_cmp);
        quantile(&sorted, PLAN_TAIL)
    };
    let process_ms = timed
        .iter()
        .map(|(_, s)| s.process_cpu_s * s.speed * 1e3)
        .sum::<f64>()
        / timed.len() as f64;
    let setup_s = median(&setup).expect("setup rounds");
    report.attempted = all.len() as u64;
    report.failed = failed as u64;

    report.line(format!(
        "solve_s      {:.4} s ({solve}; slowest {:.4})",
        solve.p50,
        max(&secs)
    ));
    report.line(format!(
        "solves       {}",
        secs.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.line(format!(
        "max_sum      {mean_max_sum} (mean over {} instance(s); {max_sum_frac:.6} of the upper bound)",
        per_instance.len()
    ));
    report.line(format!(
        "cpu_s        {:.4} s CPU per solve ({cpu}; slowest {:.4})",
        cpu.p50,
        max(&cpus),
    ));
    report.line(format!(
        "calibrated   {:.4} s CPU per solve ({scaled_cpu}; p75 {scaled_tail:.4}; slowest {:.4}); process CPU {:.4} s per solve; reference median {:.2} ms (nominal {:.2} ms)",
        scaled_cpu.p50,
        max(&scaled),
        process_ms / 1e3,
        reference * 1e3,
        crate::calib::NOMINAL_S * 1e3,
    ));
    report.line(format!("peak_mb      {peak_mb:.3} MB (median over solves)"));
    report.line(format!(
        "setup_s      {setup_s:.6} s CPU, calibrated (median of {SETUP_ROUNDS} generation rounds)"
    ));
    report.line(format!(
        "failed_frac  {} ({failed} of {})",
        failed as f64 / all.len() as f64,
        all.len()
    ));
    report.line(format!(
        "solves_per_s {} ({} timed solves in {elapsed:.3} s)",
        timed.len() as f64 / elapsed,
        timed.len()
    ));

    if !args.trace {
        report.metric("setup_s", setup_s, "s");
        // Solve timings in calibrated CPU time, which neither the host's
        // steal nor its speed drift inflates.
        report.metric("p50_ms", scaled_cpu.p50 * 1e3, "ms");
        report.metric("tail_ms", scaled_tail * 1e3, "ms");
        report.metric("cpu_ms", process_ms, "ms");
        report.metric("max_sum_frac", max_sum_frac, "frac");
        report.metric("peak_mb", peak_mb, "MB");
        report.metric("ok_frac", 1.0 - failed as f64 / all.len() as f64, "frac");
        return report;
    }

    // Per-layer breakdown from the traced half.
    let self_s = tracer.self_times_by_name();
    let med_s = |name: &str| self_s.get(name).and_then(|v| median(v)).unwrap_or(0.0) / 1e9;
    report.metric("datagen.generate_s", med_s("datagen.generate"), "s");
    report.metric("graph.build_s", med_s("graph.build"), "s");
    let cands = traced[0].1.candidates;
    report.metric("graph.candidates", cands as f64, "count");
    let bpc: Vec<f64> = traced
        .iter()
        .map(|(_, s)| s.build_peak_bytes as f64 / s.candidates.max(1) as f64)
        .collect();
    report.metric(
        "graph.bytes_per_candidate",
        median(&bpc).unwrap_or(0.0),
        "B",
    );
    report.metric("solver.mcf_s", med_s("solver.mcf"), "s");
    report.metric("model.validate_s", med_s("model.validate"), "s");
    if spec.algorithm == Algorithm::MinCostFlow {
        // The greedy kernel on the same graph, for the kernel share.
        let graph = CandidateGraph::build(&instances[0], Threads::single());
        let root = tracer.begin("compare", 0, None);
        tracer.leaf("solver.greedy", 0, Some(root), || {
            solve_on(
                &graph,
                Algorithm::Greedy,
                &SolveParams::default(),
                &BudgetMeter::unlimited(),
            )
        });
        tracer.end(root);
        flow_breakdown(&mut report, &graph, &mut tracer);
    }
    let self_s = tracer.self_times_by_name();
    let greedy = self_s
        .get("solver.greedy")
        .and_then(|v| median(v))
        .unwrap_or(0.0)
        / 1e9;
    report.metric("solver.greedy_s", greedy, "s");
    let traced_cpu: Vec<f64> = traced.iter().map(|(_, s)| s.cpu_s * s.speed).collect();
    let traced_p50 = median(&traced_cpu).expect("traced solves");
    report.line(format!(
        "tracing overhead: solve p50 {:.4} s calibrated CPU traced vs {:.4} s untraced",
        traced_p50, scaled_cpu.p50
    ));
    report.metric(
        "trace.overhead_frac",
        traced_p50 / scaled_cpu.p50 - 1.0,
        "frac",
    );
    crate::write_spans(&tracer, args);
    report
}

fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// The paper's approximation guarantees are checked against an upper
/// bound on the optimum: Greedy-GEACC ≥ UB / (1 + max c_u),
/// MinCostFlow-GEACC ≥ MaxSum(M_∅) / max c_u. MinCostFlow uses the
/// conflict-free relaxation itself; Greedy uses the counting bound,
/// which dominates the relaxation (so passing it implies passing the
/// relaxation check) and costs one pass instead of a 10M-arc flow.
/// Returns `(label, bound, divisor)`.
fn upper_bound(algorithm: Algorithm, inst: &Instance) -> Result<(&'static str, f64, f64), String> {
    let max_cu = inst.max_user_capacity() as f64;
    match algorithm {
        Algorithm::MinCostFlow => {
            let graph = CandidateGraph::build(inst, Threads::single());
            let (result, _) = mincostflow_on(&graph, McfConfig::default(), None)
                .map_err(|e| format!("relaxation failed: {e}"))?;
            Ok(("relaxation", result.relaxation.max_sum, max_cu))
        }
        _ => Ok(("counting bound", trivial_upper_bound(inst), 1.0 + max_cu)),
    }
}

/// The SSP kernel on its own: the relaxation sweep's Δ range, and the
/// `MinCostFlow::augment_step` loop on the same network MinCostFlow-GEACC
/// builds (events → users, unit arcs of cost `1 − sim`).
fn flow_breakdown(report: &mut Report, graph: &CandidateGraph, tracer: &mut Tracer) {
    let inst = graph.instance();
    let (max_delta, best_delta) = match mincostflow_on(graph, McfConfig::default(), None) {
        Ok((result, _)) => (result.relaxation.max_delta, result.relaxation.best_delta),
        Err(_) => (0, 0),
    };
    report.metric("flow.max_delta", max_delta as f64, "count");
    report.metric("flow.best_delta", best_delta as f64, "count");

    let event_caps: Vec<u32> = inst.events().map(|v| inst.event_capacity(v)).collect();
    let user_caps: Vec<u32> = inst.users().map(|u| inst.user_capacity(u)).collect();
    let sims: Vec<Vec<f64>> = inst
        .events()
        .map(|v| {
            let mut row = Vec::new();
            graph.scatter_row(v, &mut row);
            row
        })
        .collect();
    let Ok(mut matcher) = BipartiteMatcher::new(&event_caps, &user_caps, |v, u| 1.0 - sims[v][u])
    else {
        report.check("flow.network", false, "network construction failed");
        return;
    };
    let solver = matcher.solver_mut();
    let start = Instant::now();
    let root = tracer.begin("flow.sweep", 0, None);
    let mut steps = 0u64;
    loop {
        let step = tracer.begin("flow.augment", steps, Some(root));
        let more = solver.augment_step(i64::MAX).is_some();
        tracer.end(step);
        if !more {
            break;
        }
        steps += 1;
    }
    tracer.end(root);
    let secs = start.elapsed().as_secs_f64();
    report.check(
        "flow.sweep_saturates",
        solver.flow() == max_delta,
        format!(
            "augment loop flow {} vs relaxation max_delta {max_delta}",
            solver.flow()
        ),
    );
    report.metric("flow.augment_steps", steps as f64, "count");
    report.metric("flow.augment_s", secs, "s");
}
