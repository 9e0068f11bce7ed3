//! What one workload run produces: metrics, correctness checks, the
//! human-readable breakdown, and the run's provenance fields.

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// One correctness check and its outcome.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations the run attempted and the ones that failed or were
    /// refused (capacity probes above the reported rate excluded).
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Free-form lines printed before the result (named measurements,
    /// their sample counts and tails, generator health).
    pub lines: Vec<String>,
    /// Provenance fields specific to the workload (instance shape,
    /// thread counts, fsync policy).
    pub provenance: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            passed,
            detail: detail.into(),
        });
    }

    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    pub fn provenance(&mut self, key: &str, value: impl ToString) {
        self.provenance.push((key.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives it.
pub fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "non-finite metric value {x}");
    let text = format!("{x}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}
