//! The repository benchmark. One workload per invocation:
//!
//! ```text
//! perfbench --workload <plan-scale|plan-flow|serve-read|serve-write>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Untraced (`--trace 0`) runs report the end-to-end metrics; traced
//! runs report the per-layer breakdown, measured by spans the benchmark
//! records around its own calls into each layer. Every run checks its
//! outputs, prints a provenance record, writes it (with the spans of a
//! traced run) under `--out`, and ends with one JSON result line. A
//! failed check exits 1; a run that cannot complete exits 2 without a
//! result line.

mod calib;
mod ladder;
mod plan;
mod report;
mod rng;
mod serve;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;

use report::{json_num, json_str, Report};

#[global_allocator]
static ALLOC: geacc_bench::alloc::TrackingAllocator = geacc_bench::alloc::TrackingAllocator;

/// Command-line arguments of one run.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where run records, spans and scratch WAL directories go.
    pub out_dir: PathBuf,
}

/// Every end-to-end metric, reported by every workload (see
/// `perfbench/README.md` for what each means per workload).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("cpu_ms", "ms"),
    ("max_sum_frac", "frac"),
    ("peak_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Every per-layer metric with its unit. A workload that does not run a
/// layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.generate_s", "s"),
    ("graph.build_s", "s"),
    ("graph.candidates", "count"),
    ("graph.bytes_per_candidate", "B"),
    ("solver.greedy_s", "s"),
    ("solver.mcf_s", "s"),
    ("flow.max_delta", "count"),
    ("flow.best_delta", "count"),
    ("flow.augment_steps", "count"),
    ("flow.augment_s", "s"),
    ("model.validate_s", "s"),
    ("protocol.parse_us", "us"),
    ("protocol.write_us", "us"),
    ("service.handle_us.query_user", "us"),
    ("service.handle_us.query_event", "us"),
    ("service.handle_us.mutate", "us"),
    ("service.handle_us.solve", "us"),
    ("server.loop_us.query_user", "us"),
    ("server.loop_us.query_event", "us"),
    ("server.loop_us.mutate", "us"),
    ("server.loop_us.solve", "us"),
    ("epoch.pins_built", "count"),
    ("epoch.pin_reuse_ratio", "frac"),
    ("dynamic.apply_us", "us"),
    ("dynamic.repair_size", "count"),
    ("dynamic.epoch_flats_us", "us"),
    ("wal.append_us", "us"),
    ("wal.fsync_us", "us"),
    ("wal.bytes_per_record", "B"),
    ("pipeline.run_ms", "ms"),
    ("batcher.batches", "count"),
    ("batcher.mean_size", "count"),
    ("server.rejected", "count"),
    ("server.errors", "count"),
    ("trace.overhead_frac", "frac"),
];

fn parse_args() -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds: Option<u64> = None;
    let mut trace = false;
    let mut out_dir = PathBuf::from(".bench_out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace,
        out_dir,
    })
}

/// Write a traced run's spans next to its record (latest run per
/// workload).
pub fn write_spans(tracer: &trace::Tracer, args: &RunArgs) {
    let path = args.out_dir.join(format!("spans-{}.csv", args.workload));
    if let Err(e) = tracer.write_csv(&path) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
}

fn run(args: &RunArgs) -> Result<Report, String> {
    match args.workload.as_str() {
        "plan-scale" => Ok(plan::run(&plan::PlanSpec::scale(), args)),
        "plan-flow" => Ok(plan::run(&plan::PlanSpec::flow(), args)),
        "serve-read" => serve::run(&serve::ServeSpec::read(), args),
        "serve-write" => serve::run(&serve::ServeSpec::write(), args),
        other => Err(format!(
            "unknown workload {other:?} (plan-scale, plan-flow, serve-read, serve-write)"
        )),
    }
}

/// Host facts for the provenance record.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(args: &RunArgs, report: &Report) -> Vec<(String, String)> {
    let mut fields = vec![
        (
            "commit".to_string(),
            std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        ),
        ("nproc".to_string(), sys::nproc().to_string()),
        ("cpu".to_string(), cpu_model()),
        (
            "command".to_string(),
            std::env::var("PERFBENCH_COMMAND")
                .unwrap_or_else(|_| std::env::args().collect::<Vec<_>>().join(" ")),
        ),
        ("workload".to_string(), args.workload.clone()),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
    ];
    fields.extend(report.provenance.iter().cloned());
    fields
}

fn json_object(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(report: &Report, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = report.value(name).unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: creating {}: {e}", args.out_dir.display());
        std::process::exit(2);
    }
    let (started, steal_before) = (std::time::Instant::now(), sys::steal_ticks());
    let mut report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(2);
        }
    };

    // How much CPU the host took from this guest during the run (clock
    // ticks at the usual USER_HZ of 100): a serving figure read in a
    // high-steal run says more about the host than about the code.
    if let Some(frac) = sys::steal_frac(started, steal_before) {
        report.line(format!(
            "host steal   {:.1} % of guest CPU during the run",
            frac * 100.0
        ));
        report.provenance("host_steal_frac", format!("{frac:.4}"));
    }

    // The metric set of this mode, with units.
    let names: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let missing: Vec<&str> = names
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| report.value(n).is_none())
        .collect();
    if !args.trace && !missing.is_empty() {
        eprintln!("perfbench: {} did not measure {missing:?}", args.workload);
        std::process::exit(2);
    }
    for metric in &report.metrics {
        if !names.contains(&(metric.name.as_str(), metric.unit)) {
            eprintln!(
                "perfbench: undeclared metric {:?} ({})",
                metric.name, metric.unit
            );
            std::process::exit(2);
        }
    }

    println!(
        "== {} (seed {}, {} s, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &report.lines {
        println!("  {line}");
    }
    for check in &report.checks {
        let verdict = if check.passed { "ok" } else { "FAILED" };
        println!("  check {:<32} {verdict:<6} {}", check.name, check.detail);
    }
    for (name, unit) in &names {
        match report.value(name) {
            Some(value) => println!("  metric {name:<32} {value} {unit}"),
            None => println!("  metric {name:<32} 0 {unit} (layer not run by this workload)"),
        }
    }

    let record = json_object(&provenance(&args, &report));
    println!("  provenance {record}");
    let result = result_line(&report, &names);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record_path = args.out_dir.join(format!("{stem}.json"));
    let written = std::fs::write(
        &record_path,
        format!("{{\"provenance\": {record}, \"result\": {result}}}\n"),
    );
    if let Err(e) = written {
        eprintln!("perfbench: writing {}: {e}", record_path.display());
    }
    println!("{result}");
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geacc_server::protocol;

    /// `BENCHMARK.json` declares exactly the metrics this binary emits,
    /// with the same units.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let doc: serde_json::Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            match protocol::get(&doc, key) {
                Some(serde_json::Value::Array(items)) => items
                    .iter()
                    .map(|m| {
                        let field = |k: &str| protocol::get_str(m, k).unwrap().to_string();
                        (field("name"), field("unit"))
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json has no {key} list"),
            }
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
        assert_eq!(declared("end_to_end"), owned(END_TO_END));
    }
}
