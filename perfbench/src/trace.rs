//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program itself carries no tracing; the benchmark wraps the
//! public calls it makes (graph build, solver dispatch, request
//! handling, WAL appends, …) in spans. A span has a name, start and
//! end, the span that caused it, and the request it belongs to. Spans
//! stay in memory while the workload runs and are written out at the
//! end; [`self_times`] reduces them to per-layer self time — a span's
//! duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder. A disabled tracer records nothing and
/// costs one branch per call, so untraced runs take the same code path.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, req: u64, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Close a span opened with [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end_ns = self.ns(Instant::now());
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Record a span whose bounds were taken elsewhere (a request timed
    /// from its scheduled send, for example).
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Run `f` inside a span with no children.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, req, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Self time of every recorded span, grouped by span name, in
    /// nanoseconds (recording order within each name).
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            by_name.entry(span.name).or_default().push(own as f64);
        }
        by_name
    }

    /// Write every span as one CSV row
    /// (`id,parent,req,name,start_ns,end_ns,self_ns`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,req,name,start_ns,end_ns,self_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{i},{parent},{},{},{},{},{own}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the union of its
/// children's intervals, each clipped to the parent's bounds (so
/// overlapping or overhanging children are never double-counted).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(cursor);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            req: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span("a", None, 10, 35)]), vec![25]);
    }

    #[test]
    fn children_are_subtracted_once() {
        let spans = vec![
            span("req", None, 0, 100),
            span("parse", Some(0), 10, 20),
            span("handle", Some(0), 30, 80),
            // Overlaps `handle`: only 80..90 is new coverage.
            span("write", Some(0), 70, 90),
            // A grandchild counts against its own parent only.
            span("wal", Some(2), 40, 60),
        ];
        assert_eq!(self_times(&spans), vec![100 - 10 - 60, 10, 30, 20, 20]);
    }

    #[test]
    fn overhanging_children_are_clipped() {
        let spans = vec![span("p", None, 50, 100), span("c", Some(0), 0, 70)];
        assert_eq!(self_times(&spans), vec![30, 70]);
    }

    #[test]
    fn tracer_groups_self_times_by_name() {
        let mut t = Tracer::new(true);
        let root = t.begin("root", 7, None);
        t.leaf("child", 7, Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let by_name = t.self_times_by_name();
        assert_eq!(by_name["child"].len(), 1);
        assert!(by_name["child"][0] >= 2e6);
        assert!(by_name["root"][0] < by_name["child"][0]);
        assert_eq!(t.spans()[1].parent, Some(root));
        assert_eq!(t.spans()[1].req, 7);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 0, None);
        t.end(id);
        assert_eq!(t.leaf("y", 0, None, || 5), 5);
        assert!(t.spans().is_empty());
    }
}
