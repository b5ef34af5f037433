//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's side of each public call:
//! name, start, end, parent span and the pass or request id they
//! belong to. Nothing is written until [`Tracer::write`] at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Pass, rep or request id the span belongs to.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer; with `on == false` every call is a no-op.
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            op,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span opened by [`Tracer::begin`] (spans nest strictly).
    pub fn end(&mut self, s: Open) {
        if let Some(id) = s.0 {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(id), "spans must nest");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Time `f` as a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name, op);
        let v = f();
        self.end(s);
        v
    }

    /// Record an already-measured interval as a root span (for work
    /// timed on another thread).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(Span {
                name,
                parent: None,
                op,
                start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
                end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {}, \"op\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(id);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let c = &spans[k];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per span name, the self time (ms) summed within each op, one entry
/// per op that has the span.
pub fn self_ms_per_op(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let selfs = self_times_ns(spans);
    let mut per: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(selfs) {
        *per.entry((s.name, s.op)).or_default() += ns;
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), ns) in per {
        out.entry(name).or_default().push(ns as f64 / 1e6);
    }
    out
}

/// Per op, in op order, the op and the duration (ms) of its root span
/// named `root`.
pub fn root_ms(spans: &[Span], root: &str) -> Vec<(u64, f64)> {
    spans
        .iter()
        .filter(|s| s.name == root && s.parent.is_none())
        .map(|s| (s.op, s.dur_ns() as f64 / 1e6))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, op: u64, a: u64, b: u64) -> Span {
        Span {
            name,
            parent,
            op,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span("root", None, 0, 0, 100),
            span("a", Some(0), 0, 10, 40),
            // Overlaps `a`: 30..40 must not be subtracted twice.
            span("b", Some(0), 0, 30, 60),
            span("c", Some(0), 0, 80, 90),
            span("leaf", Some(1), 0, 15, 20),
        ];
        let st = self_times_ns(&spans);
        // root covers 10..60 and 80..90 → 60 covered, 40 self.
        assert_eq!(st, vec![40, 25, 30, 10, 5]);
    }

    #[test]
    fn child_outside_parent_is_clipped() {
        let spans = vec![span("root", None, 0, 0, 10), span("a", Some(0), 0, 5, 20)];
        assert_eq!(self_times_ns(&spans), vec![5, 15]);
    }

    #[test]
    fn per_op_sums_then_lists() {
        let spans = vec![
            span("root", None, 1, 0, 3_000_000),
            span("x", Some(0), 1, 0, 1_000_000),
            span("x", Some(0), 1, 1_000_000, 2_000_000),
            span("root", None, 2, 3_000_000, 4_000_000),
        ];
        let m = self_ms_per_op(&spans);
        assert_eq!(m["x"], vec![2.0]);
        assert_eq!(m["root"], vec![1.0, 1.0]);
        assert_eq!(root_ms(&spans, "root"), vec![(1, 3.0), (2, 1.0)]);
    }

    #[test]
    fn tracer_nests_and_is_free_when_off() {
        let mut t = Tracer::new(true, Instant::now());
        let r = t.begin("root", 7);
        t.span("child", 7, || ());
        t.end(r);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        let mut off = Tracer::new(false, Instant::now());
        let r = off.begin("root", 0);
        off.end(r);
        assert!(off.spans().is_empty());
    }
}
