//! In-memory span tracing for the traced run, and the attribution report
//! that splits a traced end-to-end time into layer shares plus an
//! explicit unattributed residual.
//!
//! Spans are recorded only by this harness, around its own calls into a
//! layer's public functions; nothing inside the library is instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::clock::CpuTime;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub request: u64,
}

/// Totals per span name: calls, inclusive time, and self time (inclusive
/// minus the part of the interval its child spans cover).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotal {
    pub calls: u64,
    pub total_ns: f64,
    pub self_ns: f64,
}

struct Open {
    id: u64,
    name: &'static str,
    start: u64,
    parent: Option<u64>,
    request: u64,
    child_ns: f64,
}

/// Records properly nested spans. Every span feeds the per-name totals;
/// only the first `cap` are kept whole for the written trace, so a long
/// traced run keeps bounded memory.
pub struct Tracer {
    origin: CpuTime,
    stack: Vec<Open>,
    spans: Vec<Span>,
    cap: usize,
    next_id: u64,
    dropped: u64,
    totals: BTreeMap<&'static str, SpanTotal>,
}

impl Tracer {
    pub fn new(cap: usize) -> Self {
        Tracer {
            origin: CpuTime::now(),
            stack: Vec::new(),
            spans: Vec::new(),
            cap,
            next_id: 0,
            dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u64) {
        let parent = self.stack.last().map(|open| open.id);
        self.stack.push(Open {
            id: self.next_id,
            name,
            start: self.origin.elapsed_ns(),
            parent,
            request,
            child_ns: 0.0,
        });
        self.next_id += 1;
    }

    /// Closes the innermost open span, returning its duration in ns.
    pub fn end(&mut self) -> f64 {
        let end = self.origin.elapsed_ns();
        let open = self.stack.pop().expect("end() without a matching begin()");
        let dur_ns = (end - open.start) as f64;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur_ns;
        }
        let total = self.totals.entry(open.name).or_default();
        total.calls += 1;
        total.total_ns += dur_ns;
        total.self_ns += dur_ns - open.child_ns;
        if self.spans.len() < self.cap {
            self.spans.push(Span {
                id: open.id,
                name: open.name,
                start_ns: open.start,
                end_ns: end,
                parent: open.parent,
                request: open.request,
            });
        } else {
            self.dropped += 1;
        }
        dur_ns
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, request);
        let out = f();
        self.end();
        out
    }

    pub fn total(&self, name: &str) -> SpanTotal {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// The trace as JSON: kept spans plus per-name totals.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"dropped\":{},",
            self.dropped
        );
        out.push_str("\"totals\":{");
        for (i, (name, t)) in self.totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"calls\":{},\"total_ns\":{:.0},\"self_ns\":{:.0}}}",
                t.calls, t.total_ns, t.self_ns
            );
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// A traced end-to-end time split into named layer parts plus the
/// residual nothing accounts for. The residual is defined as the
/// difference, so parts plus residual always equal the total; a negative
/// residual means the unit costs over-attribute.
#[derive(Debug, Clone)]
pub struct Attribution {
    total_ns: f64,
    parts: Vec<(&'static str, f64)>,
}

impl Attribution {
    pub fn new(total_ns: f64) -> Self {
        assert!(total_ns > 0.0, "attribution needs a positive total");
        Attribution {
            total_ns,
            parts: Vec::new(),
        }
    }

    /// Adds `ns` to layer `layer` (parts with the same name accumulate).
    pub fn add(&mut self, layer: &'static str, ns: f64) {
        match self.parts.iter_mut().find(|(name, _)| *name == layer) {
            Some((_, acc)) => *acc += ns,
            None => self.parts.push((layer, ns)),
        }
    }

    pub fn total_ns(&self) -> f64 {
        self.total_ns
    }

    pub fn part_ns(&self, layer: &str) -> f64 {
        self.parts
            .iter()
            .find(|(name, _)| *name == layer)
            .map_or(0.0, |&(_, ns)| ns)
    }

    pub fn unattributed_ns(&self) -> f64 {
        self.total_ns - self.parts.iter().map(|&(_, ns)| ns).sum::<f64>()
    }

    pub fn share(&self, layer: &str) -> f64 {
        self.part_ns(layer) / self.total_ns
    }

    pub fn unattributed_share(&self) -> f64 {
        self.unattributed_ns() / self.total_ns
    }

    /// `(name, ns, share)` rows, parts first, then `unattributed`.
    pub fn rows(&self) -> Vec<(&'static str, f64, f64)> {
        let mut rows: Vec<(&'static str, f64, f64)> = self
            .parts
            .iter()
            .map(|&(name, ns)| (name, ns, ns / self.total_ns))
            .collect();
        rows.push((
            "unattributed",
            self.unattributed_ns(),
            self.unattributed_share(),
        ));
        rows
    }

    /// Human-readable report lines.
    pub fn report(&self, title: &str) -> String {
        let mut out = format!(
            "attribution {title}: traced total {:.3} ms\n",
            self.total_ns / 1e6
        );
        for (name, ns, share) in self.rows() {
            let _ = writeln!(
                out,
                "  {name:<22} {:>12.3} ms {:>7.2}%",
                ns / 1e6,
                share * 100.0
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_parts_and_residual_sum_to_the_total() {
        let mut a = Attribution::new(1000.0);
        a.add("crypto::mac", 250.0);
        a.add("crypto::otp", 100.0);
        a.add("crypto::mac", 50.0);
        a.add("core::store", 400.0);
        assert_eq!(a.part_ns("crypto::mac"), 300.0);
        assert_eq!(a.unattributed_ns(), 200.0);
        let rows = a.rows();
        let ns: f64 = rows.iter().map(|r| r.1).sum();
        let share: f64 = rows.iter().map(|r| r.2).sum();
        assert!((ns - 1000.0).abs() < 1e-9);
        assert!((share - 1.0).abs() < 1e-12);
        assert_eq!(rows.last().map(|r| r.0), Some("unattributed"));
    }

    #[test]
    fn over_attribution_shows_as_a_negative_residual() {
        let mut a = Attribution::new(100.0);
        a.add("core::counters", 130.0);
        assert!((a.unattributed_share() + 0.3).abs() < 1e-12);
        let share: f64 = a.rows().iter().map(|r| r.2).sum();
        assert!((share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut t = Tracer::new(10);
        t.begin("outer", 7);
        // Spans read the thread's CPU clock, so the inner span spins
        // rather than sleeps.
        t.span("inner", 7, || {
            let start = CpuTime::now();
            while start.elapsed_ns() < 2_000_000 {}
        });
        let outer = t.end();
        let o = t.total("outer");
        let i = t.total("inner");
        assert_eq!((o.calls, i.calls), (1, 1));
        assert!((o.total_ns - outer).abs() < 1e-6);
        assert!((o.self_ns - (o.total_ns - i.total_ns)).abs() < 1e-6);
        assert!(i.total_ns >= 2e6);
        // Inner closed first, so it is span 0 and its parent is outer (id 0
        // was assigned to outer at begin).
        assert_eq!(t.spans[0].name, "inner");
        assert_eq!(t.spans[0].parent, Some(0));
        assert_eq!(t.spans[1].parent, None);
        assert!(t.to_json("w", 1).contains("\"request\":7"));
    }

    #[test]
    fn spans_beyond_the_cap_still_count_in_totals() {
        let mut t = Tracer::new(1);
        for _ in 0..3 {
            t.span("op", 0, || ());
        }
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.dropped, 2);
        assert_eq!(t.total("op").calls, 3);
    }
}
