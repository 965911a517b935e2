//! The benchmark's own span recorder: name, start, end, parent, op id,
//! kept in memory and written out when the run ends.
//!
//! Bench-side spans wrap the calls into the kv layer (`submit_*`, `poll`,
//! blocking `put`/`get`). The program's existing recorder
//! (`rastor_obs::trace`) is switched on through its public API and its
//! captured traces are folded in as child spans; it records no parent, so
//! the hierarchy is inferred from the span names' known nesting and time
//! containment.
//!
//! A layer's **self time** is its span's duration minus the part of that
//! interval its child spans cover.

use rastor_obs::trace;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, in the same slice.
    pub parent: Option<u32>,
    /// Spans of one operation share this id (0 = serves many, e.g. a poll).
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals, each clipped to the parent (children may overlap each
/// other — four objects apply one round in parallel — and may stick out
/// of the parent by a clock quantum).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Nesting depth of the program's span names: a span's parent is the
/// innermost span of a lower rank that holds its midpoint.
fn rank(name: &str) -> usize {
    match name {
        trace::span::KV_OP => 0,
        trace::span::DRIVER_OP => 1,
        trace::span::DRIVER_ROUND => 2,
        trace::span::OBJ_APPLY | trace::span::SERVER_QUEUE | trace::span::SERVER_APPLY => 3,
        _ => 4, // wal.append, wal.fsync
    }
}

/// Turn one captured program trace (all its fragments merged) into a span
/// tree: µs on the program's trace clock become ns, parents are inferred
/// by rank and containment. The midpoint decides containment because the
/// layers read the clock a few µs apart: `driver.op` opens just before
/// the `kv.op` that encloses it.
pub fn fold_trace(trace_id: u64, spans: &[trace::Span]) -> Vec<Span> {
    let mut out: Vec<Span> = spans
        .iter()
        .map(|s| Span {
            name: s.name,
            start_ns: s.start_us * 1000,
            end_ns: s.end_us.max(s.start_us) * 1000,
            parent: None,
            op: trace_id,
        })
        .collect();
    out.sort_by_key(|s| (s.start_ns, rank(s.name), std::cmp::Reverse(s.end_ns)));
    for i in 0..out.len() {
        let (r, mid) = (rank(out[i].name), (out[i].start_ns + out[i].end_ns) / 2);
        out[i].parent = out
            .iter()
            .enumerate()
            .filter(|(_, p)| rank(p.name) < r && p.start_ns <= mid && mid <= p.end_ns)
            .max_by_key(|(j, p)| (rank(p.name), p.start_ns, *j))
            .map(|(j, _)| j as u32);
    }
    out
}

/// Per-name totals over every span seen (retained raw or not).
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// In-memory span store of one client thread: aggregates over every span,
/// the first `cap` spans retained raw for the trace file.
pub struct Recorder {
    raw: Vec<Span>,
    cap: usize,
    seen: u64,
    agg: BTreeMap<&'static str, Agg>,
}

/// Raw spans one recorder retains for the trace file; beyond it only the
/// aggregates grow (a 15-s saturation phase produces millions of spans).
pub const RAW_CAP: usize = 32_768;

impl Recorder {
    pub fn new(cap: usize) -> Recorder {
        Recorder {
            raw: Vec::new(),
            cap,
            seen: 0,
            agg: BTreeMap::new(),
        }
    }

    fn add(&mut self, s: Span, self_ns: u64) {
        let a = self.agg.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += s.duration_ns();
        a.self_ns += self_ns;
        self.seen += 1;
    }

    /// Record a bench-side span with no children of its own. Returns its
    /// raw index when retained (so later spans can name it as parent).
    pub fn leaf(&mut self, name: &'static str, start_ns: u64, end_ns: u64, op: u64) -> Option<u32> {
        let s = Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            op,
        };
        self.add(s, s.duration_ns());
        (self.raw.len() < self.cap).then(|| {
            self.raw.push(s);
            (self.raw.len() - 1) as u32
        })
    }

    /// Record a closed tree (parents index into `tree`), hanging its roots
    /// under raw span `under`.
    pub fn tree(&mut self, tree: &[Span], under: Option<u32>) {
        let selfs = self_times(tree);
        for (s, self_ns) in tree.iter().zip(&selfs) {
            self.add(*s, *self_ns);
        }
        if self.raw.len() + tree.len() <= self.cap {
            let base = self.raw.len() as u32;
            self.raw.extend(tree.iter().map(|s| Span {
                parent: s.parent.map(|p| p + base).or(under),
                ..*s
            }));
        }
    }

    pub fn merge(&mut self, other: Recorder) {
        for (name, a) in other.agg {
            let mine = self.agg.entry(name).or_default();
            mine.count += a.count;
            mine.total_ns += a.total_ns;
            mine.self_ns += a.self_ns;
        }
        self.seen += other.seen;
        let room = self.cap.saturating_sub(self.raw.len());
        if other.raw.len() <= room {
            let base = self.raw.len() as u32;
            self.raw.extend(other.raw.iter().map(|s| Span {
                parent: s.parent.map(|p| p + base),
                ..*s
            }));
        }
    }

    pub fn agg(&self, name: &str) -> Option<Agg> {
        self.agg.get(name).copied()
    }

    /// Mean self time of the spans named `name`, in µs; `None` when the
    /// substrate never records that span.
    pub fn mean_self_us(&self, name: &str) -> Option<f64> {
        self.agg(name)
            .filter(|a| a.count > 0)
            .map(|a| a.self_ns as f64 / a.count as f64 / 1e3)
    }

    /// Spans recorded, retained raw or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The trace file: aggregates over every span, then the retained raw
    /// spans, one per line.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "\"schema\": \"rastor-benchmark-trace/v1\",");
        let _ = writeln!(out, "\"workload\": \"{workload}\",");
        let _ = writeln!(out, "\"spans_seen\": {},", self.seen);
        let _ = writeln!(out, "\"spans_retained\": {},", self.raw.len());
        out.push_str("\"by_name\": {\n");
        for (i, (name, a)) in self.agg.iter().enumerate() {
            let _ = writeln!(
                out,
                "\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{}",
                a.count,
                a.total_ns,
                a.self_ns,
                if i + 1 == self.agg.len() { "" } else { "," }
            );
        }
        out.push_str("},\n\"spans\": [\n");
        for (i, s) in self.raw.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op,
                if i + 1 == self.raw.len() { "" } else { "," }
            );
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Nanoseconds on the program's trace clock (`trace::epoch_us` keeps its
/// epoch private): one calibration pins our `Instant` to it, within 1 µs.
#[derive(Clone, Copy)]
pub struct TraceClock {
    epoch: Instant,
}

impl TraceClock {
    pub fn calibrate() -> TraceClock {
        let us = trace::epoch_us();
        TraceClock {
            epoch: Instant::now() - std::time::Duration::from_micros(us),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Collects the program recorder's captured traces. A trace can arrive in
/// fragments — in a one-process TCP deployment the server side retires
/// its part of a trace before the client side does — so fragments wait
/// here, keyed by trace id, until the one holding `kv.op` (recorded last,
/// at the harvest seam) closes the trace.
#[derive(Default)]
pub struct TraceFolder {
    open: HashMap<u64, Vec<trace::Span>>,
}

impl TraceFolder {
    /// Drain the global recorder; return the traces this drain completed,
    /// folded into trees.
    pub fn drain(&mut self) -> Vec<Vec<Span>> {
        let rec = trace::global();
        let captured = rec.captured();
        if captured.is_empty() {
            return Vec::new();
        }
        rec.clear_captured();
        let mut done = Vec::new();
        for c in captured {
            let closes = c.spans.iter().any(|s| s.name == trace::span::KV_OP);
            let frags = self.open.entry(c.trace).or_default();
            frags.extend(c.spans);
            if closes {
                let spans = self
                    .open
                    .remove(&c.trace)
                    .expect("fragment list just touched");
                done.push(fold_trace(c.trace, &spans));
            }
        }
        // Fragments whose closing part was evicted from the recorder's
        // 32-slot capture ring never complete; do not let them pile up.
        if self.open.len() > 4096 {
            self.open.clear();
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = [
            span("op", 0, 100, None),
            span("round", 10, 40, Some(0)),
            span("round", 50, 90, Some(0)),
            // Two objects apply the first round in parallel: overlapping
            // children are covered once.
            span("apply", 12, 20, Some(1)),
            span("apply", 15, 30, Some(1)),
            // A child poking out of its parent by a clock quantum is clipped.
            span("apply", 85, 95, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 12, 35, 8, 15, 10]);
    }

    #[test]
    fn a_child_covering_the_parent_leaves_zero_not_underflow() {
        let spans = [span("p", 10, 20, None), span("c", 0, 50, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 50]);
    }

    fn prog(name: &'static str, start_us: u64, end_us: u64) -> trace::Span {
        trace::Span {
            trace: 9,
            name,
            detail: 0,
            start_us,
            end_us,
        }
    }

    #[test]
    fn program_traces_fold_into_the_known_nesting() {
        use trace::span::*;
        // Recording order is completion order, not nesting order.
        let spans = [
            prog(OBJ_APPLY, 12, 13),
            prog(WAL_APPEND, 12, 13),
            prog(OBJ_APPLY, 14, 16),
            prog(DRIVER_ROUND, 10, 20),
            prog(OBJ_APPLY, 22, 23),
            prog(DRIVER_ROUND, 20, 30),
            prog(DRIVER_OP, 10, 30),
            // The kv seam reads its clock after the driver opened the op.
            prog(KV_OP, 11, 31),
        ];
        let tree = fold_trace(9, &spans);
        let by = |name: &str, start_us: u64| {
            tree.iter()
                .position(|s| s.name == name && s.start_ns == start_us * 1000)
                .unwrap() as u32
        };
        let parent_of = |i: u32| tree[i as usize].parent;
        assert_eq!(parent_of(by(KV_OP, 11)), None);
        assert_eq!(parent_of(by(DRIVER_OP, 10)), Some(by(KV_OP, 11)));
        assert_eq!(parent_of(by(DRIVER_ROUND, 10)), Some(by(DRIVER_OP, 10)));
        assert_eq!(parent_of(by(DRIVER_ROUND, 20)), Some(by(DRIVER_OP, 10)));
        assert_eq!(parent_of(by(OBJ_APPLY, 14)), Some(by(DRIVER_ROUND, 10)));
        assert_eq!(parent_of(by(OBJ_APPLY, 22)), Some(by(DRIVER_ROUND, 20)));
        assert_eq!(parent_of(by(WAL_APPEND, 12)), Some(by(OBJ_APPLY, 12)));
        assert!(tree.iter().all(|s| s.op == 9));

        let mut rec = Recorder::new(64);
        rec.tree(&tree, None);
        // kv.op 20 µs minus the 19 of driver.op inside it; driver.op fully
        // covered by its rounds; round 1 (10 µs) minus applies covering 12..13 and 14..16.
        assert_eq!(rec.mean_self_us(KV_OP), Some(1.0));
        assert_eq!(rec.mean_self_us(DRIVER_OP), Some(0.0));
        assert_eq!(rec.mean_self_us(DRIVER_ROUND), Some((7.0 + 9.0) / 2.0));
        assert_eq!(rec.mean_self_us(WAL_APPEND), Some(1.0));
        assert_eq!(rec.mean_self_us(SERVER_APPLY), None, "absent, not zero");
    }

    #[test]
    fn recorder_keeps_aggregating_past_its_raw_cap() {
        let mut rec = Recorder::new(2);
        assert_eq!(rec.leaf("kv.poll", 0, 10, 0), Some(0));
        assert_eq!(rec.leaf("kv.poll", 10, 30, 0), Some(1));
        assert_eq!(rec.leaf("kv.poll", 30, 60, 0), None);
        assert_eq!(rec.agg("kv.poll").map(|a| a.total_ns / a.count), Some(20));
        let mut other = Recorder::new(2);
        other.leaf("kv.poll", 0, 40, 0);
        rec.merge(other);
        assert_eq!(rec.agg("kv.poll").unwrap().count, 4);
        let doc = rec.to_json("w");
        let parsed = crate::json::parse(&doc).expect("trace file is JSON");
        assert_eq!(
            parsed.get("spans_seen").and_then(crate::json::Json::as_f64),
            Some(4.0)
        );
        assert_eq!(
            parsed
                .get("spans")
                .and_then(crate::json::Json::as_arr)
                .unwrap()
                .len(),
            2
        );
    }
}
