//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (`layer.function`), a start, an end, a parent and a
//! request id. Aggregates (count, total, self time, latency histogram)
//! are kept for every span; full records are kept for every span except
//! hot ones (`enter_hot`), which keep one record in `HOT_STRIDE` so that
//! span memory stays bounded on the online path. Self time is a span's
//! duration minus the time its child spans cover.

use crate::stats::Hist;
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One stored record per this many hot spans.
pub const HOT_STRIDE: u64 = 256;

/// Every layer span the workloads open, in report order.
pub const LAYER_SPANS: &[&str] = &[
    "mechanism.publish",
    "release.build",
    "plan.compile",
    "plan.execute",
    "streaming.apply",
    "streaming.advance",
    "incremental.apply",
    "incremental.advance",
    "release.advance",
    "concurrent.answer",
];

#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub thread: u32,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Clone, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub hist: Hist,
}

#[derive(Debug)]
struct Open {
    id: u64,
    name: &'static str,
    request: u64,
    start: Instant,
    child_ns: u64,
    store: bool,
}

/// One thread's spans. Reader threads each get their own and the main
/// thread absorbs them after the join, so recording takes no lock.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    thread: u32,
    next_id: u64,
    hot_seen: u64,
    stack: Vec<Open>,
    spans: Vec<SpanRecord>,
    aggs: BTreeMap<&'static str, Agg>,
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`. Thread `t` numbers
    /// its span ids from `t << 48`, so merged ids stay unique.
    pub fn new(origin: Instant, thread: u32) -> Self {
        Tracer {
            on: false,
            origin,
            thread,
            next_id: u64::from(thread) << 48,
            hot_seen: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            aggs: BTreeMap::new(),
        }
    }

    /// Turns recording on or off; only changed between iterations, when
    /// no span is open.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty());
        self.on = on;
    }

    pub fn enter(&mut self, name: &'static str, request: u64) {
        self.open(name, request, true);
    }

    /// A span on the hot path: aggregated always, stored one in
    /// `HOT_STRIDE`.
    pub fn enter_hot(&mut self, name: &'static str, request: u64) {
        if self.on {
            self.hot_seen += 1;
            let store = self.hot_seen.is_multiple_of(HOT_STRIDE);
            self.open(name, request, store);
        }
    }

    fn open(&mut self, name: &'static str, request: u64, store: bool) {
        if !self.on {
            return;
        }
        self.next_id += 1;
        self.stack.push(Open {
            id: self.next_id,
            name,
            request,
            start: Instant::now(),
            child_ns: 0,
            store,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = Instant::now();
        let Some(open) = self.stack.pop() else {
            return;
        };
        let d = ns_between(open.start, end);
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += d;
            p.id
        });
        let agg = self.aggs.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += d;
        agg.self_ns += d.saturating_sub(open.child_ns);
        agg.hist.record_ns(d);
        if open.store {
            self.spans.push(SpanRecord {
                id: open.id,
                parent,
                thread: self.thread,
                name: open.name,
                request: open.request,
                start_ns: ns_between(self.origin, open.start),
                end_ns: ns_between(self.origin, end),
            });
        }
    }

    /// Moves another thread's spans and aggregates into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        for (name, a) in other.aggs {
            let agg = self.aggs.entry(name).or_default();
            agg.count += a.count;
            agg.total_ns += a.total_ns;
            agg.self_ns += a.self_ns;
            agg.hist.merge(&a.hist);
        }
    }

    pub fn agg(&self, name: &str) -> Option<&Agg> {
        self.aggs.get(name)
    }

    /// Median duration of a span in units of `unit_ns` (0 if never seen).
    pub fn p50(&self, name: &str, unit_ns: f64) -> f64 {
        self.agg(name)
            .map_or(0.0, |a| a.hist.quantile(0.5, unit_ns))
    }

    /// Each layer span's self time as a share of the root spans' total
    /// time (the timed thread time), plus `harness`: the roots' own self
    /// time, which is the benchmark's bookkeeping between calls.
    pub fn shares(&self, roots: &[&str]) -> Vec<(&'static str, f64)> {
        let wall: u64 = roots
            .iter()
            .filter_map(|r| self.agg(r))
            .map(|a| a.total_ns)
            .sum();
        let share = |ns: u64| {
            if wall == 0 {
                0.0
            } else {
                ns as f64 / wall as f64
            }
        };
        let mut out: Vec<(&'static str, f64)> = LAYER_SPANS
            .iter()
            .map(|&name| (name, share(self.agg(name).map_or(0, |a| a.self_ns))))
            .collect();
        let harness: u64 = roots
            .iter()
            .filter_map(|r| self.agg(r))
            .map(|a| a.self_ns)
            .sum();
        out.push(("harness", share(harness)));
        out
    }

    /// Writes every stored span as one JSON object per line, by start time.
    pub fn write_jsonl(&mut self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        self.spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"thread\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.thread, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        w.flush()?;
        Ok(self.spans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while ns_between(t, Instant::now()) < ns {}
    }

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.enter("root", 0);
        t.set_on(true);
        t.exit();
        assert!(
            t.agg("root").is_none(),
            "spans opened while off stay unrecorded"
        );

        t.enter("root", 1);
        t.enter("plan.compile", 1);
        spin(2_000_000);
        t.exit();
        t.exit();
        let root = t.agg("root").unwrap();
        let child = t.agg("plan.compile").unwrap();
        assert_eq!(root.total_ns, root.self_ns + child.total_ns);
        assert!(child.self_ns >= 2_000_000);
        let shares = t.shares(&["root"]);
        let compile = shares.iter().find(|s| s.0 == "plan.compile").unwrap().1;
        let harness = shares.iter().find(|s| s.0 == "harness").unwrap().1;
        assert!((compile + harness - 1.0).abs() < 1e-9);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].parent, Some(t.spans[1].id));
    }

    #[test]
    fn hot_spans_are_aggregated_in_full_and_stored_at_a_stride() {
        let mut t = Tracer::new(Instant::now(), 1);
        t.set_on(true);
        for i in 0..(2 * HOT_STRIDE) {
            t.enter_hot("concurrent.answer", i);
            t.exit();
        }
        assert_eq!(t.agg("concurrent.answer").unwrap().count, 2 * HOT_STRIDE);
        assert_eq!(t.spans.len(), 2);
        assert!(t.spans.iter().all(|s| s.id >> 48 == 1));
    }
}
