//! One closed-loop client thread: a kv handle, its seeded op stream, and
//! the loops of each phase. Every caller of a kv handle waits for its
//! reply, so load is a closed loop: `depth` operations in flight per
//! client, the next one submitted only when one completes.

use crate::spans::{Recorder, TraceClock, TraceFolder, RAW_CAP};
use crate::workload::{decode_value, key_name, Op, OpKind, OpStream, Spec, ValueMaker};
use rastor_common::{Result, Timestamp, TsVal};
use rastor_kv::{KvHandle, KvOpId, KvOutput, ShardedKvStore};
use rastor_obs::trace;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One operation of the verification pass, for the per-key histories.
pub struct Event {
    pub key: u32,
    pub invoked_us: u64,
    pub completed_us: u64,
    pub what: EventKind,
}

pub enum EventKind {
    Wrote { ts: Timestamp, stamp: u64 },
    Read { returned: TsVal },
}

/// Everything one client thread hands back when the run ends.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Gets whose value did not carry the key id asked for.
    pub mismatches: u64,
    /// Latency-phase samples, call → return.
    pub latency: Vec<LatSample>,
    /// Operations that succeeded per window of the last pipelined phase.
    pub windows: Vec<u64>,
    /// Operations that succeeded between the last pipelined phase's start
    /// and its drained end (the divisor of `cpu_us_per_op`).
    pub phase_ops: u64,
    /// Per-op latency in traced saturation windows, ns.
    pub sat_op_ns: Vec<f64>,
    pub polls: u64,
    pub poll_ops: u64,
    pub get_rounds: (u64, u64),
    pub events: Vec<Event>,
    /// Stamp of the last acknowledged put per key (0 = the preload).
    pub last_acked: Vec<u64>,
    pub spans: Option<Recorder>,
}

/// One latency-phase operation: its kind and how long the call took.
#[derive(Clone, Copy)]
pub struct LatSample {
    pub kind: OpKind,
    pub ns: f64,
}

struct Pending {
    op: Op,
    start_ns: u64,
}

/// What the client threads of one run share.
pub struct Shared<'a> {
    pub store: &'a ShardedKvStore,
    pub spec: &'a Spec,
    pub seed: u64,
    pub maker: &'a ValueMaker,
    pub keys: &'a [String],
    pub folder: &'a Mutex<TraceFolder>,
    /// One clock for every client, so the verification histories of two
    /// threads share their time base.
    pub clock: TraceClock,
    /// The traced run: keep a span recorder.
    pub traced: bool,
}

pub struct Client<'a> {
    handle: KvHandle,
    stream: OpStream,
    maker: &'a ValueMaker,
    keys: &'a [String],
    inflight: HashMap<KvOpId, Pending>,
    clock: TraceClock,
    folder: &'a Mutex<TraceFolder>,
    pub report: Report,
}

/// What the pipelined loop records besides completions.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    Off,
    /// Odd windows run with the program's recorder and the bench spans
    /// on, even windows with both off: the two rates side by side are
    /// the tracing overhead.
    Alternate,
}

impl<'a> Client<'a> {
    pub fn new(shared: &Shared<'a>, thread: u32) -> Result<Client<'a>> {
        Ok(Client {
            handle: shared.store.handle(thread)?,
            stream: OpStream::new(shared.spec, shared.seed, thread),
            maker: shared.maker,
            keys: shared.keys,
            inflight: HashMap::new(),
            clock: shared.clock,
            folder: shared.folder,
            report: Report {
                last_acked: vec![0; shared.spec.keys as usize],
                spans: shared.traced.then(|| Recorder::new(RAW_CAP)),
                ..Report::default()
            },
        })
    }

    /// Check one completed operation's output.
    fn settle(&mut self, op: Op, outcome: Result<KvOutput>) -> Option<KvOutput> {
        self.report.attempted += 1;
        match outcome {
            Err(_) => {
                self.report.failed += 1;
                None
            }
            Ok(out) => {
                match &out {
                    KvOutput::Put(_) => self.report.last_acked[op.key as usize] = op.stamp,
                    KvOutput::Get(pair) => {
                        // Every key is preloaded, so ⊥ is as wrong as a
                        // foreign key id.
                        if decode_value(&pair.val).map(|(k, _)| k) != Some(u64::from(op.key)) {
                            self.report.mismatches += 1;
                        }
                    }
                }
                Some(out)
            }
        }
    }

    /// Keep `depth` operations in flight from `start` until
    /// `windows × window` later, counting per window, then drain. An
    /// operation that succeeded lands in the window it completed in.
    pub fn run_pipelined(
        &mut self,
        depth: usize,
        start: Instant,
        windows: usize,
        window: Duration,
        tracing: Tracing,
    ) {
        self.handle.set_depth(depth);
        self.report.windows = vec![0; windows];
        self.report.phase_ops = 0;
        let end = start + window * windows as u32;
        let mut traced = false;
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            let w =
                ((now.saturating_duration_since(start)).as_nanos() / window.as_nanos()) as usize;
            if tracing == Tracing::Alternate && traced != (w % 2 == 1) {
                traced = w % 2 == 1;
                trace::global().set_enabled(traced);
            }
            while self.handle.in_flight() < depth {
                let op = self.stream.next_op();
                let t0 = if traced { self.clock.now_ns() } else { 0 };
                let id = match op.kind {
                    OpKind::Put => self.handle.submit_put(
                        &self.keys[op.key as usize],
                        self.maker.make(op.key, op.stamp),
                    ),
                    OpKind::Get => self.handle.submit_get(&self.keys[op.key as usize]),
                };
                match id {
                    Ok(id) => {
                        if traced {
                            let name = match op.kind {
                                OpKind::Put => "kv.submit_put",
                                OpKind::Get => "kv.submit_get",
                            };
                            let t1 = self.clock.now_ns();
                            if let Some(rec) = &mut self.report.spans {
                                rec.leaf(name, t0, t1, op.stamp);
                            }
                        }
                        self.inflight.insert(id, Pending { op, start_ns: t0 });
                    }
                    Err(_) => {
                        self.report.attempted += 1;
                        self.report.failed += 1;
                    }
                }
            }
            let ok = self.harvest(traced);
            let w = (Instant::now().saturating_duration_since(start).as_nanos() / window.as_nanos())
                as usize;
            if let Some(slot) = self.report.windows.get_mut(w) {
                *slot += ok;
            }
        }
        // Drain what is still in flight: counted as attempted (and in the
        // phase's CPU divisor) but in no window.
        while self.handle.in_flight() > 0 {
            self.harvest(traced);
        }
        if tracing == Tracing::Alternate {
            trace::global().set_enabled(false);
        }
    }

    /// One `poll`, settled; returns how many operations succeeded.
    fn harvest(&mut self, traced: bool) -> u64 {
        let t0 = if traced { self.clock.now_ns() } else { 0 };
        let done = self.handle.poll();
        let n = done.len();
        let mut poll_span = None;
        if traced {
            let t1 = self.clock.now_ns();
            self.report.polls += 1;
            self.report.poll_ops += n as u64;
            if let Some(rec) = &mut self.report.spans {
                poll_span = rec.leaf("kv.poll", t0, t1, 0);
            }
            for (id, _) in &done {
                if let Some(p) = self.inflight.get(id) {
                    if p.start_ns > 0 {
                        self.report.sat_op_ns.push((t1 - p.start_ns) as f64);
                    }
                }
            }
            let trees = self.folder.lock().expect("trace folder lock").drain();
            if let Some(rec) = &mut self.report.spans {
                for tree in &trees {
                    rec.tree(tree, poll_span);
                }
            }
        }
        // A failed operation is no throughput: only successes count.
        let ok = done.iter().filter(|(_, outcome)| outcome.is_ok()).count() as u64;
        self.report.phase_ops += ok;
        for (id, outcome) in done {
            let p = self
                .inflight
                .remove(&id)
                .expect("completion of a submitted op");
            self.settle(p.op, outcome);
        }
        ok
    }

    /// Blocking calls at depth 1 over keys `0..keys` until `deadline`.
    /// `latency` keeps call → return samples; `history` keeps what the
    /// atomicity checker needs.
    pub fn run_blocking(&mut self, deadline: Instant, keys: u32, latency: bool, history: bool) {
        self.handle.set_depth(1);
        while Instant::now() < deadline {
            let op = self.stream.next_in(keys);
            self.blocking_op(op, latency, history);
        }
    }

    /// One blocking put or get, timed call → return.
    pub fn blocking_op(&mut self, op: Op, latency: bool, history: bool) {
        let key = &self.keys[op.key as usize];
        let t0 = self.clock.now_ns();
        let outcome = match op.kind {
            OpKind::Put => {
                let value = self.maker.make(op.key, op.stamp);
                self.handle.put(key, value).map(KvOutput::Put)
            }
            OpKind::Get => self.handle.get_pair(key).map(KvOutput::Get),
        };
        let t1 = self.clock.now_ns();
        if trace::global().is_enabled() {
            if let Some(rec) = &mut self.report.spans {
                let name = match op.kind {
                    OpKind::Put => "kv.put",
                    OpKind::Get => "kv.get",
                };
                let span = rec.leaf(name, t0, t1, op.stamp);
                for tree in self.folder.lock().expect("trace folder lock").drain() {
                    rec.tree(&tree, span);
                }
            }
        }
        let Some(out) = self.settle(op, outcome) else {
            return;
        };
        if latency {
            self.report.latency.push(LatSample {
                kind: op.kind,
                ns: (t1 - t0) as f64,
            });
        }
        if history {
            self.report.events.push(Event {
                key: op.key,
                invoked_us: t0 / 1000,
                // Round the response time up: an interval may only widen.
                completed_us: t1 / 1000 + 1,
                what: match out {
                    KvOutput::Put(tag) => EventKind::Wrote {
                        ts: tag.to_timestamp(),
                        stamp: op.stamp,
                    },
                    KvOutput::Get(returned) => EventKind::Read { returned },
                },
            });
        }
    }

    /// Take (and reset) the handle's `(sum, count)` of get rounds.
    pub fn take_get_rounds(&mut self) -> (u64, u64) {
        self.handle.take_get_rounds()
    }

    /// The stream's next operation of the workload's mix over `0..keys`.
    pub fn next_op_in(&mut self, keys: u32) -> Op {
        self.stream.next_in(keys)
    }
}

/// The key strings of a workload, built once.
pub fn key_names(spec: &Spec) -> Vec<String> {
    (0..spec.keys).map(key_name).collect()
}
