//! Minimal flag parsing shared by the fig* binaries (no CLI dependency;
//! the binaries take two or three flags each).

/// Value of `--name <value>`, if present.
pub fn flag_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == format!("--{name}") {
            return args.next();
        }
    }
    None
}

/// Whether bare `--name` is present.
pub fn has_flag(name: &str) -> bool {
    std::env::args().any(|a| a == format!("--{name}"))
}

/// Parsed `--timeout-ms N`: an optional per-measurement wall-clock
/// budget. When set, sweep cells run under a [`geacc_core::runtime::
/// SolveBudget`] deadline and report the incumbent at the stop instead
/// of running to completion — the panels become anytime curves. Cells
/// that were budget-stopped are flagged on stderr and in the
/// `Measurement::complete` field.
pub fn timeout_ms() -> Option<u64> {
    flag_value("timeout-ms").map(|v| {
        let ms: u64 = v.parse().expect("--timeout-ms takes milliseconds");
        assert!(ms >= 1, "--timeout-ms must be at least 1");
        ms
    })
}

/// Parsed `--repeats N` (default `default`).
pub fn repeats(default: usize) -> usize {
    flag_value("repeats")
        .map(|v| v.parse().expect("--repeats takes an integer"))
        .unwrap_or(default)
}

/// Worker budget for sweep parallelism: `--threads N`, falling back to
/// `GEACC_THREADS`, falling back to the host's available parallelism.
///
/// Running cells concurrently leaves MaxSum untouched (all swept
/// algorithms are deterministic) but perturbs the *time* and *memory*
/// panels: wall-clock cells contend for cores, and the tracking
/// allocator's peak is process-wide. Use `--threads 1` when those panels
/// are the measurement; use more workers to iterate quickly on sweeps.
pub fn threads() -> geacc_core::parallel::Threads {
    use geacc_core::parallel::Threads;
    match flag_value("threads") {
        Some(v) => {
            let n: usize = v.parse().expect("--threads takes a positive integer");
            assert!(n >= 1, "--threads must be at least 1");
            Threads::new(n)
        }
        None => Threads::from_env(),
    }
}

/// The source revision a snapshot was measured on, for its provenance
/// record: `git describe --always --dirty` of the working directory
/// (a `-dirty` suffix marks uncommitted changes), or `"unknown"` outside
/// a git checkout.
pub fn source_commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}
