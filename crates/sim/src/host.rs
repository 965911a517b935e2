//! [`ObjectHost`]: the one place a base object is hosted.
//!
//! The paper's model has a single kind of base object — it applies a
//! request and replies, and it may crash, rejoin or lie — so the tree has
//! a single host for it. Every substrate that delivers envelopes to
//! objects ([`crate::runtime::ThreadCluster`] over channels, `rastor_net`'s
//! `ObjectServer` over sockets) is a thin wrapper that feeds this host and
//! tells it, through a [`ReplySink`], where reply envelopes go. Both speak
//! [`crate::runtime`]'s message types: the host takes a shared
//! [`ReqEnvelope`] and builds every [`RepFrame`] itself, echoing its
//! request's op nonce, round and trace id.
//!
//! What the host owns: one slot per object (the behavior, a served
//! counter, a FIFO queue of envelopes waiting for the object's owner),
//! the object's link under a [`ChaosCfg`] fault profile (delay and
//! service jitter modelled as a release timer, so a "busy" object never
//! blocks a thread; drops; reordering), the traced/untraced apply
//! wrapper, and crash / restart.
//!
//! Every submitter *serves through*: the thread that submits an envelope
//! — a server's reactor worker that read it, or an in-process client
//! that flushed it — queues it on every live object, claims each one it
//! finds idle and drains it on its own thread, so a round costs no
//! thread hop. An object some other thread owns keeps the envelope
//! queued behind it, and its owner drains it. An object is owned by one
//! thread at a time, claimed and released through one flag; an owner
//! that finds an envelope queued after its release claims the object
//! again (unless the envelope's submitter beat it to the claim), so none
//! is ever stranded. The reply envelopes bound for the submitter's own
//! sink go out together once the call is done
//! ([`ReplySink::deliver_burst`]); the rest go out as they are made.
//!
//! Only delay needs threads of the host's own: a host whose profile
//! delays or jitters runs [`EXECUTORS`] threads that wait for the next
//! release timer to come due and then serve its object through, as a
//! submitter would. A host without a profile, or with one that only
//! drops and reorders, runs no thread at all.
//!
//! Link faults are drawn where the objects live: in the paper's model the
//! adversary acts on an object's messages, so a delayed, lost or
//! reordered request is an object copy served late, never, or after its
//! successor. Each object draws from its own streams, one per leg
//! (request, reply), so behind one listener every object is its own
//! fault domain. [`ObjectHost::set_partitioned`] cuts the host off from
//! its clients the same way: an object the adversary cuts off is just an
//! object that stops answering. The objects keep their state, and
//! healing needs no reconnect.
//!
//! Semantics: each object processes envelopes serially and in arrival
//! order (one owner at a time per object), apart from the copies its
//! profile reorders. [`ObjectHost::crash`]
//! lets the envelope in flight finish, then drops the behavior along
//! with every queued envelope; future envelopes to the object vanish
//! until [`ObjectHost::restart`] installs a new behavior under the same
//! id. An envelope still waiting out its delay, or held back behind its
//! successor, when the object crashes counts as in transit: it is dropped
//! if the object is still down at its release, and served if it has
//! rejoined by then. A cut, unlike a crash, loses every envelope still
//! in transit.

use crate::engine::ObjectBehavior;
use crate::runtime::{RepEnvelope, RepFrame, ReqEnvelope};
use rastor_common::{ObjectId, SplitMix64};
use rastor_obs::{names, trace, Counter, Registry};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Executor threads of a host whose profile delays: the pool that
/// releases its timers and serves the objects they free. Two, so one
/// slow apply does not hold back every other object's release. Fixed —
/// hosting more objects, or serving more clients, never means more
/// threads. A host whose copies are never delayed spawns none.
pub const EXECUTORS: usize = 2;

/// A host's link-fault profile: what the adversary does to every hosted
/// object's messages. The default delays, drops and reorders nothing;
/// set the knobs you want. Service jitter is `ChaosCfg { jitter,
/// ..ChaosCfg::default() }`.
///
/// Object `o` draws leg `l` (0 = requests, 1 = replies) from
/// `SplitMix64(seed ^ (o << 1) ^ l)`, so the fault draws replay from the
/// seed given the same arrival order.
#[derive(Clone, Debug)]
pub struct ChaosCfg {
    /// Seed for the per-object, per-leg fault streams.
    pub seed: u64,
    /// Fixed latency added to every request copy, head-of-line: a copy
    /// clears its object's link `delay + jitter·U` after the copy before
    /// it did. Charged once per round trip; replies are not delayed.
    pub delay: Duration,
    /// Extra uniform-random latency in `[0, jitter)` per request copy.
    pub jitter: Duration,
    /// Probability a request copy or a reply envelope is lost.
    pub drop_prob: f64,
    /// Probability a request copy or a reply envelope is held back and
    /// delivered right *after* that object's next one on the same leg.
    pub reorder_prob: f64,
}

impl Default for ChaosCfg {
    fn default() -> ChaosCfg {
        ChaosCfg {
            seed: 1,
            delay: Duration::ZERO,
            jitter: Duration::ZERO,
            drop_prob: 0.0,
            reorder_prob: 0.0,
        }
    }
}

impl ChaosCfg {
    /// A pure added-latency profile: fixed `delay` plus uniform jitter of
    /// the same magnitude.
    pub fn delay_only(delay: Duration) -> ChaosCfg {
        ChaosCfg {
            delay,
            jitter: delay,
            ..ChaosCfg::default()
        }
    }

    /// Set the drop probability.
    ///
    /// ## Choosing a drop rate
    ///
    /// Drops act on one object's copy of an envelope: a dropped request
    /// costs that object the round, a dropped reply its answer, and the
    /// other objects are untouched. A client waits for a quorum, and it
    /// resubmits a stalled flush (see `rastor_net::NetCluster`), so a
    /// drop costs at most one resubmission interval — tens of
    /// milliseconds — not a whole op deadline, and soaks can run
    /// genuinely lossy links:
    ///
    /// ```
    /// use rastor_sim::host::ChaosCfg;
    /// use std::time::Duration;
    ///
    /// // A harsh lossy-link profile a soak still makes progress through:
    /// // ~20% of copies lost each way, small head-of-line delay.
    /// let cfg = ChaosCfg::delay_only(Duration::from_micros(100)).with_drops(0.20);
    /// assert!(cfg.drop_prob < 1.0, "a link that drops everything is a partition");
    /// ```
    #[must_use]
    pub fn with_drops(mut self, prob: f64) -> ChaosCfg {
        self.drop_prob = prob;
        self
    }

    /// Set the reorder probability.
    #[must_use]
    pub fn with_reordering(mut self, prob: f64) -> ChaosCfg {
        self.reorder_prob = prob;
        self
    }

    /// Set the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> ChaosCfg {
        self.seed = seed;
        self
    }

    /// Whether request copies wait out a release timer.
    fn delays(&self) -> bool {
        self.delay > Duration::ZERO || self.jitter > Duration::ZERO
    }

    /// One copy's drop and reorder draws on a leg: `None` if it is lost
    /// or held back, else the copy and the predecessor it releases.
    fn pass<T>(
        &self,
        rng: &mut SplitMix64,
        held: &mut Option<T>,
        copy: T,
    ) -> Option<(T, Option<T>)> {
        if self.drop_prob > 0.0 && rng.next_f64() < self.drop_prob {
            counters().dropped.inc();
            return None;
        }
        if self.reorder_prob > 0.0 && held.is_none() && rng.next_f64() < self.reorder_prob {
            counters().reordered.inc();
            *held = Some(copy);
            return None;
        }
        Some((copy, held.take()))
    }
}

/// How a substrate accounts for the time its envelopes spend in the host:
/// which spans traced frames record, and whether every envelope is timed.
/// A wrapper states this as a constant of its [`ReplySink`]; users of the
/// wrapper cannot change it.
pub struct Accounting {
    /// Span covering hand-off to pickup by the object's owner, for
    /// substrates whose queue is a hop worth showing (`None`: not
    /// recorded, no clock read at hand-off).
    pub queue_span: Option<&'static str>,
    /// Span covering one behavior call.
    pub apply_span: &'static str,
    /// Whether the host is the last hop a trace takes in this process and
    /// closes it after each traced frame (a server), or a later seam in
    /// the same process does (an in-process cluster under a kv handle).
    pub finish: bool,
    /// Called once per served envelope with its handling time in µs
    /// (pickup to last reply). `None` keeps untraced envelopes free of
    /// clock reads.
    pub envelope_us: Option<fn(u64)>,
}

/// Where a substrate's reply envelopes go.
///
/// The host never copies a request frame: every object reads the one
/// shared [`ReqEnvelope`] in place, and the [`RepEnvelope`] it earns goes
/// to the sink the request came with (`deliver`).
pub trait ReplySink<R>: Clone + Send + 'static {
    /// The substrate's span vocabulary and envelope timing.
    const ACCOUNTING: Accounting;

    /// Deliver one object's reply envelope to the client it names. Best
    /// effort: the client may be gone.
    fn deliver(&self, env: RepEnvelope<R>);

    /// Whether `other` delivers where `self` does. A serve-through call
    /// gathers the reply envelopes bound for its own sink into one
    /// [`ReplySink::deliver_burst`]; the rest it delivers one by one.
    fn same_sink(&self, _other: &Self) -> bool {
        false
    }

    /// Deliver several reply envelopes bound for this sink, in order —
    /// one at a time unless the substrate can do better.
    fn deliver_burst(&self, burst: Vec<RepEnvelope<R>>) {
        for env in burst {
            self.deliver(env);
        }
    }
}

/// The status of one hosted object.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ObjectStatus {
    /// The object's cluster-global id.
    pub id: ObjectId,
    /// Whether the object is currently crashed.
    pub crashed: bool,
    /// Request envelopes served since the object (re)started.
    pub served: u64,
}

type Behavior<Q, R> = Box<dyn ObjectBehavior<Q, R> + Send>;

/// One coalesced request envelope, queued for one hosted object.
struct Job<Q, S> {
    /// The envelope, shared across the object fan-out.
    env: Arc<ReqEnvelope<Q>>,
    sink: S,
    /// When the envelope was handed over (trace clock µs; 0 unless the
    /// substrate records a queue span and some frame is traced).
    enqueued_us: u64,
}

/// One hosted object's serving state.
struct Slot<Q, R, S> {
    /// Set first by `crash`, cleared last by `restart`: readable without
    /// waiting out the envelope in flight, and what makes a crash take
    /// effect on the very next envelope however the lock race goes.
    crashed: AtomicBool,
    /// `None` = crashed. The object's owner holds this lock exactly while
    /// processing one envelope, so `crash` (which takes it to drop the
    /// behavior) waits out the envelope in flight.
    behavior: Mutex<Option<Behavior<Q, R>>>,
    served: AtomicU64,
    /// Released envelopes awaiting the object's owner, in arrival order.
    queue: Mutex<VecDeque<Job<Q, S>>>,
    /// Whether the object is owned — being drained by an executor or a
    /// submitting thread. One owner at a time per object keeps processing
    /// serial and FIFO.
    scheduled: AtomicBool,
    /// The object's link; never locked by a host without a profile.
    link: Mutex<Link<Q, R, S>>,
}

/// One object's link under a fault profile.
struct Link<Q, R, S> {
    /// When the object's request leg frees up: the release time of the
    /// last copy it delayed.
    release: Instant,
    /// The request leg's and the reply leg's fault streams.
    rng: [SplitMix64; 2],
    /// A request copy held back behind the object's next one.
    held_request: Option<Job<Q, S>>,
    /// A reply envelope held back behind the object's next one, with the
    /// sink it goes to.
    held_reply: Option<(S, RepEnvelope<R>)>,
}

/// Delayed envelopes by `(release time, arrival seq)`, each with its
/// object index.
type Timers<Q, S> = BTreeMap<(Instant, u64), (usize, Job<Q, S>)>;

/// The `chaos.*` counters, process-wide; each counts object copies.
struct ChaosCounters {
    dropped: Arc<Counter>,
    delayed: Arc<Counter>,
    reordered: Arc<Counter>,
    partition_drops: Arc<Counter>,
}

fn counters() -> &'static ChaosCounters {
    static COUNTERS: OnceLock<ChaosCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let r = Registry::global();
        ChaosCounters {
            dropped: r.counter(names::CHAOS_FRAMES_DROPPED),
            delayed: r.counter(names::CHAOS_FRAMES_DELAYED),
            reordered: r.counter(names::CHAOS_FRAMES_REORDERED),
            partition_drops: r.counter(names::CHAOS_PARTITION_DROPS),
        }
    })
}

struct Shared<Q, R, S> {
    first_id: u32,
    chaos: Option<ChaosCfg>,
    slots: Vec<Slot<Q, R, S>>,
    /// Released by the executors (a condvar `wait_timeout` to the next
    /// deadline), so a feeding reactor or client never has to poll on
    /// sub-millisecond ticks.
    timers: Mutex<Timers<Q, S>>,
    /// Tied to `timers`: every push wakes the parked executors, which
    /// re-read the earliest deadline under the same lock.
    timer_cv: Condvar,
    timer_seq: AtomicU64,
    /// Where the next served-through envelope starts its fan-out.
    next_first: AtomicUsize,
    /// Set by [`ObjectHost::set_partitioned`]; flipped under the `timers`
    /// lock, so no envelope enters a timer once the cut has cleared them,
    /// and read under a link lock by a host with a profile, so no copy is
    /// held back once the cut has cleared that link.
    partitioned: AtomicBool,
    /// Set under the `timers` lock, so no executor parks past it.
    shutdown: AtomicBool,
}

impl<Q, R, S: ReplySink<R>> Shared<Q, R, S> {
    /// Claim object `obj` for this thread; `false` if another owns it.
    fn claim(&self, obj: usize) -> bool {
        self.slots[obj]
            .scheduled
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// The indices of the live objects.
    fn live(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.slots.len()).filter(|&i| !self.slots[i].crashed.load(Ordering::Acquire))
    }

    /// Whether the host is cut off, counting the `copies` the caller then
    /// drops.
    fn cut(&self, copies: impl FnOnce() -> usize) -> bool {
        let cut = self.partitioned.load(Ordering::Acquire);
        if cut {
            counters().partition_drops.add(copies() as u64);
        }
        cut
    }

    /// Draw the request leg's faults for object `obj`'s copy of an
    /// envelope, under its link lock, and pass what goes through — the
    /// copy, then a predecessor it releases — to `deliver` with its
    /// release time. A cut host drops the copy.
    fn admit(
        &self,
        cfg: &ChaosCfg,
        obj: usize,
        job: Job<Q, S>,
        mut deliver: impl FnMut(Instant, Job<Q, S>),
    ) {
        let mut link = self.slots[obj].link.lock().expect("link lock");
        let link = &mut *link;
        if self.cut(|| 1) {
            return;
        }
        let Some((job, held)) = cfg.pass(&mut link.rng[0], &mut link.held_request, job) else {
            return;
        };
        if cfg.delays() {
            // Head-of-line: the copy clears the link `delay + jitter·U`
            // after its predecessor did, or after now if the link was
            // idle — a queueing model kept off the executors, so a
            // "busy" object never blocks a thread.
            let wait = cfg.delay + cfg.jitter.mul_f64(link.rng[0].next_f64());
            link.release = link.release.max(Instant::now()) + wait;
        }
        deliver(link.release, job);
        if let Some(held) = held {
            deliver(link.release, held);
        }
    }

    /// Apply object `obj`'s next queued envelope and hand its reply
    /// envelope to `out` with the sink it goes to; `false` once the queue
    /// is empty.
    fn serve_next(&self, obj: usize, out: &mut impl FnMut(&S, RepEnvelope<R>)) -> bool {
        let slot = &self.slots[obj];
        // Popped under the behavior lock, so no envelope is ever "in
        // hand" outside it: `crash` clears the queue under the same lock
        // and nothing queued before it can slip through to a successor.
        let mut behavior = slot.behavior.lock().expect("behavior lock");
        let Some(job) = slot.queue.lock().expect("object queue lock").pop_front() else {
            return false;
        };
        let b = match behavior.as_mut() {
            Some(b) if !slot.crashed.load(Ordering::Acquire) => b,
            // Crashed object: the envelope vanishes.
            _ => return true,
        };
        slot.served.fetch_add(1, Ordering::Relaxed);
        let oid = ObjectId(self.first_id + obj as u32);
        let acct = S::ACCOUNTING;
        let picked_us = if job.enqueued_us != 0 || acct.envelope_us.is_some() {
            trace::epoch_us()
        } else {
            0
        };
        let client = job.env.from;
        let frames: Vec<RepFrame<R>> = job
            .env
            .frames
            .iter()
            .filter_map(|f| {
                let tid = f.trace;
                // Traced frames get their spans around the behavior call,
                // with the thread trace context set so durable behaviors
                // hang WAL spans under the same trace. Untraced frames
                // skip the clock reads entirely.
                let rep = if tid == trace::NO_TRACE {
                    b.on_request(client, &f.req)
                } else {
                    let rec = trace::global();
                    let detail = u64::from(oid.0);
                    if let Some(queue) = acct.queue_span {
                        rec.record(tid, queue, detail, job.enqueued_us, picked_us);
                    }
                    let start = trace::epoch_us();
                    let prev = trace::set_current(tid);
                    let rep = b.on_request(client, &f.req);
                    trace::set_current(prev);
                    let end = trace::epoch_us();
                    rec.record(tid, acct.apply_span, detail, start, end);
                    if acct.finish {
                        rec.finish(tid, end);
                    }
                    rep
                };
                rep.map(|rep| RepFrame {
                    op_nonce: f.op_nonce,
                    round: f.round,
                    trace: tid,
                    rep,
                })
            })
            .collect();
        if let Some(record) = acct.envelope_us {
            record(trace::epoch_us().saturating_sub(picked_us));
        }
        drop(behavior);
        if frames.is_empty() {
            return true;
        }
        let envelope = RepEnvelope {
            to: client,
            from: oid,
            frames,
        };
        let Some(cfg) = &self.chaos else {
            if !self.cut(|| 1) {
                out(&job.sink, envelope);
            }
            return true;
        };
        // The reply leg: the object's owner draws, so its envelopes draw
        // in the order it made them.
        let passed = {
            let mut link = slot.link.lock().expect("link lock");
            if self.cut(|| 1) {
                return true;
            }
            let link = &mut *link;
            cfg.pass(&mut link.rng[1], &mut link.held_reply, (job.sink, envelope))
        };
        if let Some(((sink, envelope), held)) = passed {
            out(&sink, envelope);
            if let Some((sink, envelope)) = held {
                out(&sink, envelope);
            }
        }
        true
    }

    /// Serve object `obj`, which the caller owns, until its queue is
    /// empty, then release it — and claim it again if an envelope was
    /// queued between the drain and the release, so none is ever
    /// stranded.
    fn drain(&self, obj: usize, out: &mut impl FnMut(&S, RepEnvelope<R>)) {
        let slot = &self.slots[obj];
        loop {
            while self.serve_next(obj, out) {}
            #[cfg(test)]
            tests::AT_RELEASE.with_borrow_mut(|hook| {
                if let Some(hook) = hook {
                    hook();
                }
            });
            slot.scheduled.store(false, Ordering::Release);
            // The envelope's submitter tries the same claim after queueing
            // it: whichever of the two wins serves it.
            if slot.queue.lock().expect("object queue lock").is_empty() || !self.claim(obj) {
                return;
            }
        }
    }

    /// One executor's loop: wait for the next release timer to come due,
    /// queue its envelope on its object while still holding the timer
    /// lock (so each object's envelopes queue in release order), then
    /// serve the object through, as a submitter would, unless another
    /// thread owns it.
    fn executor_loop(&self) {
        let mut timers = self.timers.lock().expect("timer lock");
        while !self.shutdown.load(Ordering::Acquire) {
            let now = Instant::now();
            match timers.first_key_value().map(|((at, _), _)| *at) {
                None => timers = self.timer_cv.wait(timers).expect("timer condvar"),
                Some(at) if at > now => {
                    timers = self
                        .timer_cv
                        .wait_timeout(timers, at - now)
                        .expect("timer condvar")
                        .0;
                }
                Some(_) => {
                    let (_, (obj, job)) = timers.pop_first().expect("peeked");
                    self.slots[obj]
                        .queue
                        .lock()
                        .expect("object queue lock")
                        .push_back(job);
                    drop(timers);
                    if self.claim(obj) {
                        self.drain(obj, &mut |sink, env| sink.deliver(env));
                    }
                    timers = self.timers.lock().expect("timer lock");
                }
            }
        }
    }

    /// Queue `job` on every live object — through its link, under a
    /// profile that delays nothing — serving on this thread each one it
    /// finds idle; the reply envelopes for `sink` go out together once
    /// every claimed object is drained.
    fn serve_through(&self, mut job: impl FnMut() -> Job<Q, S>, sink: &S) {
        let mut burst = Vec::new();
        let mut out = |to: &S, envelope| {
            if to.same_sink(sink) {
                burst.push(envelope);
            } else {
                to.deliver(envelope);
            }
        };
        // Each envelope starts its fan-out one object further on, so no
        // object always answers last: a client that moves on after the
        // first `n - t` replies of a round, dropping the rest, still hears
        // every object in turn.
        let n = self.slots.len();
        let first = self.next_first.fetch_add(1, Ordering::Relaxed);
        for i in (0..n).map(|k| (first + k) % n) {
            if self.slots[i].crashed.load(Ordering::Acquire) {
                continue;
            }
            let queue = &self.slots[i].queue;
            match &self.chaos {
                None => queue.lock().expect("object queue lock").push_back(job()),
                Some(cfg) => self.admit(cfg, i, job(), |_, job| {
                    queue.lock().expect("object queue lock").push_back(job);
                }),
            }
            // Claimed: drain it here. Otherwise its owner serves the
            // envelope after the ones ahead of it.
            if self.claim(i) {
                self.drain(i, &mut out);
            }
        }
        if !burst.is_empty() {
            sink.deliver_burst(burst);
        }
    }
}

/// A set of hosted objects, served by whoever submits to them (and, under
/// a profile that delays, by a fixed executor pool).
///
/// Dropping the host stops the pool (envelopes still queued are
/// discarded).
pub struct ObjectHost<Q, R, S: ReplySink<R>> {
    shared: Arc<Shared<Q, R, S>>,
    executors: Vec<JoinHandle<()>>,
}

impl<Q: Send + Sync + 'static, R: Send + 'static, S: ReplySink<R>> ObjectHost<Q, R, S> {
    /// Host `behaviors` under the cluster-global ids `first_id ..`, their
    /// links under the fault profile `chaos`. Delay and jitter apply
    /// **per envelope** (not per frame) per object — emulating one
    /// network/storage round trip per coalesced batch, which is exactly
    /// why batching pays. Only a host whose profile delays spawns
    /// threads: the [`EXECUTORS`] that release its timers.
    pub fn spawn(
        behaviors: Vec<Behavior<Q, R>>,
        first_id: u32,
        chaos: Option<ChaosCfg>,
    ) -> ObjectHost<Q, R, S> {
        let now = Instant::now();
        let seed = chaos.as_ref().map_or(0, |c| c.seed);
        let stream =
            |i: usize, leg| SplitMix64::new(seed ^ (u64::from(first_id + i as u32) << 1) ^ leg);
        let slots = behaviors
            .into_iter()
            .enumerate()
            .map(|(i, b)| Slot {
                crashed: AtomicBool::new(false),
                behavior: Mutex::new(Some(b)),
                served: AtomicU64::new(0),
                queue: Mutex::new(VecDeque::new()),
                scheduled: AtomicBool::new(false),
                link: Mutex::new(Link {
                    release: now,
                    rng: [stream(i, 0), stream(i, 1)],
                    held_request: None,
                    held_reply: None,
                }),
            })
            .collect();
        let pool = if chaos.as_ref().is_some_and(ChaosCfg::delays) {
            EXECUTORS
        } else {
            0
        };
        let shared = Arc::new(Shared {
            first_id,
            chaos,
            slots,
            timers: Mutex::new(BTreeMap::new()),
            timer_cv: Condvar::new(),
            timer_seq: AtomicU64::new(0),
            next_first: AtomicUsize::new(0),
            partitioned: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let executors = (0..pool)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shared.executor_loop())
            })
            .collect();
        ObjectHost { shared, executors }
    }

    /// Hand one envelope to every live hosted object; each object's reply
    /// envelope goes to `sink`. Unless the profile delays, the calling
    /// thread serves every object it finds idle before this returns, and
    /// queues the envelope behind every object another thread owns; under
    /// delay every object's copy waits out a release timer first. A
    /// partitioned host drops the envelope.
    pub fn submit(&self, env: Arc<ReqEnvelope<Q>>, sink: &S) {
        let shared = &*self.shared;
        // One clock read per envelope, skipped entirely when untraced.
        let traced = || env.frames.iter().any(|f| f.trace != trace::NO_TRACE);
        let enqueued_us = if S::ACCOUNTING.queue_span.is_some() && traced() {
            trace::epoch_us()
        } else {
            0
        };
        let job = || Job {
            env: Arc::clone(&env),
            sink: sink.clone(),
            enqueued_us,
        };
        let cfg = match &shared.chaos {
            Some(cfg) if cfg.delays() => cfg,
            // A profile draws each copy's faults in `serve_through`.
            Some(_) => return shared.serve_through(job, sink),
            None => {
                if !shared.cut(|| shared.live().count()) {
                    shared.serve_through(job, sink);
                }
                return;
            }
        };
        let mut timers = shared.timers.lock().expect("timer lock");
        for i in shared.live() {
            shared.admit(cfg, i, job(), |at, job| {
                counters().delayed.inc();
                let seq = shared.timer_seq.fetch_add(1, Ordering::Relaxed);
                timers.insert((at, seq), (i, job));
            });
        }
        drop(timers);
        // Every parked executor re-reads the earliest deadline: one left
        // parked past a new timer, while its peer drains a slow object,
        // would hold that release back.
        shared.timer_cv.notify_all();
    }

    /// Threads this host runs of its own: [`EXECUTORS`] under a profile
    /// that delays, none otherwise.
    pub fn executor_threads(&self) -> usize {
        self.executors.len()
    }

    /// Number of hosted objects (including crashed ones).
    pub fn num_objects(&self) -> usize {
        self.shared.slots.len()
    }

    /// The first cluster-global object id hosted here.
    pub fn first_id(&self) -> u32 {
        self.shared.first_id
    }

    /// Whether this host hosts object `id`.
    pub fn hosts(&self, id: ObjectId) -> bool {
        id.0.checked_sub(self.shared.first_id)
            .is_some_and(|i| (i as usize) < self.shared.slots.len())
    }

    fn slot(&self, id: ObjectId, what: &str) -> &Slot<Q, R, S> {
        assert!(self.hosts(id), "{what}: object {} not hosted here", id.0);
        &self.shared.slots[(id.0 - self.shared.first_id) as usize]
    }

    /// Crash a hosted object: the envelope it is processing finishes,
    /// then queued and future envelopes to it are silently dropped.
    /// Returns once the behavior is gone (its files closed), so a
    /// recovery that follows reads a quiescent log.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not hosted here.
    pub fn crash(&self, id: ObjectId) {
        let slot = self.slot(id, "crash");
        slot.crashed.store(true, Ordering::Release);
        let mut behavior = slot.behavior.lock().expect("behavior lock");
        *behavior = None;
        slot.queue.lock().expect("object queue lock").clear();
    }

    /// Restart a hosted object with a fresh behavior: the slot is crashed
    /// first (if still live), then the new behavior takes over the id,
    /// with the same link and a zeroed served count.
    ///
    /// The host is behavior-agnostic, so *what state the object comes
    /// back with* is the caller's policy: pass a freshly recovered
    /// `rastor_store`-style durable behavior for kill-then-recover
    /// semantics, or a blank one to model an amnesiac rejoin (which counts
    /// against the fault budget like any other deviation from "correct").
    ///
    /// # Panics
    ///
    /// Panics if `id` is not hosted here.
    pub fn restart(&self, id: ObjectId, behavior: Behavior<Q, R>) {
        self.crash(id);
        let slot = self.slot(id, "restart");
        let mut installed = slot.behavior.lock().expect("behavior lock");
        *installed = Some(behavior);
        slot.served.store(0, Ordering::Relaxed);
        slot.crashed.store(false, Ordering::Release);
    }

    /// Whether a hosted object is currently crashed. Never waits for the
    /// object: a crash shows from the moment it is requested.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not hosted here.
    pub fn is_crashed(&self, id: ObjectId) -> bool {
        self.slot(id, "is_crashed").crashed.load(Ordering::Acquire)
    }

    /// Cut the host off from its clients, or heal it. While cut, the host
    /// drops every envelope submitted to it and every reply envelope it
    /// produces; the cut also loses every envelope still in transit —
    /// waiting out its delay, or held back behind its successor — as a
    /// link going dark loses what is on it. The objects keep their state,
    /// and control frames, which never reach the host, keep being
    /// answered. Each dropped object copy counts under
    /// `chaos.partition_drops`.
    pub fn set_partitioned(&self, on: bool) {
        let shared = &*self.shared;
        let mut timers = shared.timers.lock().expect("timer lock");
        shared.partitioned.store(on, Ordering::Release);
        if on {
            let mut lost = timers.len();
            timers.clear();
            for slot in &shared.slots {
                let mut link = slot.link.lock().expect("link lock");
                lost += usize::from(link.held_request.take().is_some());
                lost += usize::from(link.held_reply.take().is_some());
            }
            counters().partition_drops.add(lost as u64);
        }
    }

    /// The status of every hosted object.
    pub fn statuses(&self) -> Vec<ObjectStatus> {
        self.shared
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| ObjectStatus {
                id: ObjectId(self.shared.first_id + i as u32),
                crashed: s.crashed.load(Ordering::Acquire),
                served: s.served.load(Ordering::Relaxed),
            })
            .collect()
    }
}

impl<Q, R, S: ReplySink<R>> Drop for ObjectHost<Q, R, S> {
    fn drop(&mut self) {
        let timers = self.shared.timers.lock();
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.timer_cv.notify_all();
        drop(timers);
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{ReqFrame, ThreadCluster};
    use rastor_common::ClientId;
    use std::cell::RefCell;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::thread::ThreadId;

    type Host = ObjectHost<u32, u32, Sender<RepEnvelope<u32>>>;
    const WAIT: Duration = Duration::from_secs(10);

    thread_local! {
        /// Run by an owner between draining an object and releasing it,
        /// on the thread that installed it — how a test stops an owner at
        /// its release edge.
        pub(super) static AT_RELEASE: RefCell<Option<Box<dyn FnMut()>>> =
            const { RefCell::new(None) };
    }

    /// One untraced envelope from `from` carrying `vals`, one frame each
    /// (the nonce repeats the request so replies identify it).
    fn envelope(from: ClientId, vals: &[u32]) -> Arc<ReqEnvelope<u32>> {
        let frames = vals.iter().map(|&v| ReqFrame {
            op_nonce: u64::from(v),
            round: 1,
            trace: trace::NO_TRACE,
            req: v,
        });
        Arc::new(ReqEnvelope {
            from,
            frames: frames.collect(),
        })
    }

    /// The next reply envelope as `(object, nonces)`.
    fn next(rx: &Receiver<RepEnvelope<u32>>) -> (ObjectId, Vec<u64>) {
        let rep = rx.recv_timeout(WAIT).expect("a reply envelope");
        (rep.from, rep.frames.iter().map(|f| f.op_nonce).collect())
    }

    /// A service-jitter profile.
    fn jitter(jitter: Duration) -> Option<ChaosCfg> {
        Some(ChaosCfg {
            jitter,
            ..ChaosCfg::default()
        })
    }

    /// Object `id`'s request stream under the default seed.
    fn requests(id: u32) -> SplitMix64 {
        SplitMix64::new(ChaosCfg::default().seed ^ (u64::from(id) << 1))
    }

    /// Replies `req + offset`.
    struct Echo(u32);
    impl ObjectBehavior<u32, u32> for Echo {
        fn on_request(&mut self, _from: ClientId, req: &u32) -> Option<u32> {
            Some(req + self.0)
        }
    }

    /// Panics unless requests arrive as 1, 2, 3, …
    struct InOrder(u32);
    impl ObjectBehavior<u32, u32> for InOrder {
        fn on_request(&mut self, _from: ClientId, req: &u32) -> Option<u32> {
            assert_eq!(*req, self.0 + 1, "envelopes reordered at the object");
            self.0 = *req;
            Some(*req)
        }
    }

    /// The in-memory round: a submit on a host without jitter runs every
    /// live object on the submitting thread, so each reply envelope is on
    /// the channel when `submit` returns — no thread of the host's own
    /// exists to hand it to.
    #[test]
    fn a_submit_serves_every_idle_object_before_it_returns() {
        let host: Host =
            ObjectHost::spawn((0..4).map(|_| Box::new(Echo(0)) as _).collect(), 0, None);
        assert_eq!(host.executor_threads(), 0);
        host.crash(ObjectId(2));
        let (tx, rx) = channel();
        host.submit(envelope(ClientId::reader(0), &[5, 6]), &tx);
        let replies: Vec<_> = rx
            .try_iter()
            .map(|rep| {
                (
                    rep.from,
                    rep.frames.iter().map(|f| f.rep).collect::<Vec<_>>(),
                )
            })
            .collect();
        let want = [0, 1, 3].map(|o| (ObjectId(o), vec![5, 6]));
        assert_eq!(replies, want, "every live object answered, in object order");
    }

    /// Successive envelopes start their fan-out one object further on, so
    /// no object always answers last.
    #[test]
    fn each_envelope_starts_its_fan_out_one_object_further_on() {
        let host: Host =
            ObjectHost::spawn((0..3).map(|_| Box::new(Echo(0)) as _).collect(), 0, None);
        let (tx, rx) = channel();
        for v in 0..3 {
            host.submit(envelope(ClientId::reader(0), &[v]), &tx);
        }
        let order: Vec<u32> = rx.try_iter().map(|rep| rep.from.0).collect();
        assert_eq!(order, [0, 1, 2, 1, 2, 0, 2, 0, 1]);
    }

    #[test]
    fn each_object_serves_fifo_while_two_executors_race() {
        const ENVELOPES: u32 = 500;
        // A microsecond of jitter: every envelope goes through a release
        // timer, and both executors keep claiming whichever object a
        // release made runnable.
        let host: Host = ObjectHost::spawn(
            vec![Box::new(InOrder(0)), Box::new(InOrder(0))],
            0,
            jitter(Duration::from_micros(1)),
        );
        assert_eq!(host.executor_threads(), EXECUTORS);
        let (tx, rx) = channel();
        for v in 1..=ENVELOPES {
            host.submit(envelope(ClientId::reader(0), &[v]), &tx);
        }
        let mut seen = [0u64; 2];
        for _ in 0..2 * ENVELOPES {
            let (from, nonces) = next(&rx);
            assert_eq!(
                nonces,
                [seen[from.index()] + 1],
                "object {} replied out of order",
                from.0
            );
            seen[from.index()] += 1;
        }
        assert!(host
            .statuses()
            .iter()
            .all(|s| s.served == u64::from(ENVELOPES)));
    }

    /// Blocks inside request 1 until released, announcing its entry.
    struct Gated {
        entered: Sender<()>,
        release: Receiver<()>,
    }
    impl ObjectBehavior<u32, u32> for Gated {
        fn on_request(&mut self, _from: ClientId, req: &u32) -> Option<u32> {
            if *req == 1 {
                self.entered.send(()).expect("test alive");
                self.release.recv().expect("test alive");
            }
            Some(*req)
        }
    }

    /// A gated object that also notes which thread applied each request.
    struct Traced(Gated, Sender<(u32, ThreadId)>);
    impl ObjectBehavior<u32, u32> for Traced {
        fn on_request(&mut self, from: ClientId, req: &u32) -> Option<u32> {
            self.1
                .send((*req, std::thread::current().id()))
                .expect("test alive");
            self.0.on_request(from, req)
        }
    }

    /// An object held by another submitter: the envelopes that find it
    /// busy are queued (their submits return at once), and its owner
    /// applies them, in order, on its own thread once it is done.
    #[test]
    fn a_busy_owner_serves_the_envelopes_queued_behind_it() {
        let (entered_tx, entered_rx) = channel();
        let (release_tx, release_rx) = channel();
        let (ran_tx, ran_rx) = channel();
        let gated = Gated {
            entered: entered_tx,
            release: release_rx,
        };
        let host: Host = ObjectHost::spawn(vec![Box::new(Traced(gated, ran_tx))], 0, None);
        let (tx, rx) = channel();
        let client = ClientId::reader(0);
        let owner = std::thread::scope(|s| {
            let owner = s.spawn(|| {
                host.submit(envelope(client, &[1]), &tx);
                std::thread::current().id()
            });
            entered_rx
                .recv_timeout(WAIT)
                .expect("envelope 1 in flight on its submitter");
            host.submit(envelope(client, &[2]), &tx);
            host.submit(envelope(client, &[3]), &tx);
            assert_eq!(
                host.statuses()[0].served,
                1,
                "a submit served past the owner"
            );
            release_tx.send(()).expect("object alive");
            owner.join().expect("owner")
        });
        for want in 1..=3 {
            assert_eq!(next(&rx), (ObjectId(0), vec![want]));
            assert_eq!(
                ran_rx.try_recv(),
                Ok((want as u32, owner)),
                "applied by the owner"
            );
        }
    }

    #[test]
    fn restart_revives_the_id_with_served_reset() {
        let host: Host = ObjectHost::spawn(vec![Box::new(Echo(10)), Box::new(Echo(10))], 4, None);
        let (tx, rx) = channel();
        let client = ClientId::reader(0);
        for v in 0..3 {
            host.submit(envelope(client, &[v]), &tx);
        }
        for _ in 0..6 {
            next(&rx);
        }
        let id = ObjectId(5);
        assert!(host.hosts(id) && !host.hosts(ObjectId(3)) && !host.hosts(ObjectId(6)));
        host.crash(id);
        let crashed = ObjectStatus {
            id,
            crashed: true,
            served: 3,
        };
        assert_eq!(host.statuses()[1], crashed);
        host.submit(envelope(client, &[1]), &tx);
        assert_eq!(next(&rx).0, ObjectId(4), "only the live object answers");
        host.restart(id, Box::new(Echo(20)));
        assert!(!host.is_crashed(id));
        assert_eq!(
            host.statuses()[1].served,
            0,
            "served restarts with the object"
        );
        host.submit(envelope(client, &[1]), &tx);
        let from_restarted = (0..2)
            .map(|_| rx.recv_timeout(WAIT).expect("both objects answer"))
            .find(|rep| rep.from == id)
            .expect("the restarted id answers");
        assert_eq!(from_restarted.frames[0].rep, 21, "with the new behavior");
    }

    #[test]
    fn jitter_releases_in_order_and_never_oversleeps_an_earlier_timer() {
        const JITTER: Duration = Duration::from_millis(400);
        // Object ids seed the request streams: pick a pair whose first
        // draws put the first object's release late and the second's
        // early, so the earlier timer is pushed *after* a later one.
        let draw = |id: u32| requests(id).next_f64();
        let first_id = (0..10_000)
            .find(|&id| draw(id) > 0.8 && draw(id + 1) < 0.1)
            .expect("such a pair of ids exists");
        let host: Host = ObjectHost::spawn(
            vec![Box::new(InOrder(0)), Box::new(InOrder(0))],
            first_id,
            jitter(JITTER),
        );
        let (tx, rx) = channel();
        let started = Instant::now();
        for v in 1..=3 {
            host.submit(envelope(ClientId::reader(0), &[v]), &tx);
        }
        let (from, nonces) = next(&rx);
        assert_eq!((from, nonces), (ObjectId(first_id + 1), vec![1]));
        assert!(
            started.elapsed() < JITTER / 2,
            "the early timer waited for the late one: {:?}",
            started.elapsed()
        );
        // `InOrder` panics (and the replies stop) if a release reorders.
        let mut seen = [1u64, 2];
        for _ in 0..5 {
            let (from, nonces) = next(&rx);
            let i = (from.0 - first_id) as usize;
            assert_eq!(nonces, [seen[i]]);
            seen[i] += 1;
        }
    }

    /// Sleeps through every apply, then echoes.
    struct Sleepy(Duration);
    impl ObjectBehavior<u32, u32> for Sleepy {
        fn on_request(&mut self, _from: ClientId, req: &u32) -> Option<u32> {
            std::thread::sleep(self.0);
            Some(*req)
        }
    }

    /// One executor drains the slow object whose timer came due first; the
    /// other releases its peer's timer meanwhile, so the peer answers
    /// first. With a single executor the peer's release would wait out the
    /// slow apply.
    #[test]
    fn a_slow_object_under_jitter_does_not_hold_back_another_objects_release() {
        const JITTER: Duration = Duration::from_millis(20);
        // Ids seed the request streams: the slow object's timer comes due
        // within 4 ms, its peer's 12–20 ms in, both inside one slow apply.
        let draw = |id: u32| requests(id).next_f64();
        let first_id = (0..10_000)
            .find(|&id| draw(id) < 0.2 && draw(id + 1) > 0.6)
            .expect("such a pair of ids exists");
        let host: Host = ObjectHost::spawn(
            vec![
                Box::new(Sleepy(Duration::from_millis(50))),
                Box::new(Echo(0)),
            ],
            first_id,
            jitter(JITTER),
        );
        let (tx, rx) = channel();
        host.submit(envelope(ClientId::reader(0), &[1]), &tx);
        assert_eq!(
            next(&rx).0,
            ObjectId(first_id + 1),
            "the slow apply held back its peer's release"
        );
        assert_eq!(next(&rx).0, ObjectId(first_id));
    }

    /// A read that, with a gate, announces itself and waits to be let
    /// through.
    const GATED_READ: u32 = 1_000;

    /// Holds the last write (a request other than 0 or [`GATED_READ`]) and
    /// answers every request with the value it then holds.
    struct Register {
        value: u32,
        gate: Option<Gated>,
    }
    impl ObjectBehavior<u32, u32> for Register {
        fn on_request(&mut self, _from: ClientId, req: &u32) -> Option<u32> {
            match (*req, &self.gate) {
                (0, _) | (GATED_READ, None) => {}
                (GATED_READ, Some(gate)) => {
                    gate.entered.send(()).expect("test alive");
                    gate.release.recv().expect("test alive");
                }
                (v, _) => self.value = v,
            }
            Some(self.value)
        }
    }

    /// Every reply envelope sent to a fresh sink for one envelope, as
    /// `(object, value)`: read until the host has dropped every copy of
    /// the sink, so what the cut lost is known to be lost.
    fn all_replies(submit: impl FnOnce(&Sender<RepEnvelope<u32>>)) -> Vec<(ObjectId, u32)> {
        let (tx, rx) = channel();
        submit(&tx);
        drop(tx);
        rx.iter().map(|rep| (rep.from, rep.frames[0].rep)).collect()
    }

    /// A cut loses what is in transit both ways: the copies of a write
    /// still waiting out their jitter at the cut, an envelope submitted
    /// during it, and the reply of an apply that finishes during it. After
    /// the heal the objects answer from the state they had before the cut.
    #[test]
    fn a_partitioned_host_drops_envelopes_both_ways_and_heals_with_state_intact() {
        const JITTER: Duration = Duration::from_millis(200);
        // The objects take ids 0 and 1; their request streams put the
        // second envelope's releases 0.75 and 0.70 of `JITTER` after its
        // submit, so the cut right behind it finds both in transit.
        let second_draw = |id| {
            let mut stream = requests(id);
            stream.next_f64();
            stream.next_f64()
        };
        assert!((0..2).all(|id| second_draw(id) > 0.4));
        let (entered, entered_rx) = channel();
        let (release_tx, release) = channel();
        let cluster = ThreadCluster::spawn(
            vec![
                Box::new(Register {
                    value: 0,
                    gate: Some(Gated { entered, release }),
                }),
                Box::new(Register {
                    value: 0,
                    gate: None,
                }),
            ],
            Some(JITTER),
        );
        let host = cluster.host();
        let client = ClientId::writer();
        let both = |v| vec![(ObjectId(0), v), (ObjectId(1), v)];
        let read = || {
            let mut replies = all_replies(|sink| host.submit(envelope(client, &[0]), sink));
            replies.sort_unstable();
            replies
        };
        let write = |v| all_replies(|sink| host.submit(envelope(client, &[v]), sink));
        assert_eq!(write(7).len(), 2);

        // Requests: both copies of the write in transit, then an envelope
        // submitted to the cut host.
        let lost = all_replies(|sink| {
            host.submit(envelope(client, &[9]), sink);
            host.set_partitioned(true);
        });
        assert_eq!(lost, [], "a write in transit crossed the cut");
        assert_eq!(write(11), [], "an envelope reached a cut host");
        host.set_partitioned(false);
        assert_eq!(read(), both(7), "the state from before the cut");
        assert!(
            host.statuses().iter().all(|s| s.served == 2),
            "a lost write was applied"
        );

        // Replies: object 0 is mid-apply when the cut comes.
        let replies = all_replies(|sink| {
            host.submit(envelope(client, &[GATED_READ]), sink);
            entered_rx
                .recv_timeout(WAIT)
                .expect("object 0 applying the read");
            host.set_partitioned(true);
            release_tx.send(()).expect("object alive");
        });
        assert!(
            replies.iter().all(|&(from, _)| from != ObjectId(0)),
            "a reply crossed the cut: {replies:?}"
        );
        host.set_partitioned(false);
        assert_eq!(read(), both(7));
    }

    /// Panics unless each submitter's requests (`submitter << 16 | seq`)
    /// arrive in the order it sent them.
    struct PerSubmitter([u32; 2]);
    impl ObjectBehavior<u32, u32> for PerSubmitter {
        fn on_request(&mut self, _from: ClientId, req: &u32) -> Option<u32> {
            let (submitter, seq) = ((req >> 16) as usize, req & 0xffff);
            assert_eq!(
                seq,
                self.0[submitter] + 1,
                "submitter {submitter}'s envelopes reordered at the object"
            );
            self.0[submitter] = seq;
            Some(*req)
        }
    }

    /// Two threads serve through over the same objects, each with its own
    /// reply channel: each serves what it finds idle, queues behind the
    /// other, serves the other's queued envelopes, and claims an object
    /// back whenever an envelope lands behind its release — which each
    /// invites by yielding at its release edge.
    #[test]
    fn each_object_serves_fifo_while_two_submitters_race() {
        const ENVELOPES: u32 = 2_000;
        const OBJECTS: usize = 3;
        let host: Host = ObjectHost::spawn(
            (0..OBJECTS)
                .map(|_| Box::new(PerSubmitter([0; 2])) as Behavior<u32, u32>)
                .collect(),
            0,
            None,
        );
        std::thread::scope(|s| {
            for submitter in 0..2u32 {
                let host = &host;
                s.spawn(move || {
                    AT_RELEASE.set(Some(Box::new(std::thread::yield_now)));
                    let (sink, rx) = channel();
                    for seq in 1..=ENVELOPES {
                        let req = submitter << 16 | seq;
                        host.submit(envelope(ClientId::reader(submitter), &[req]), &sink);
                    }
                    // Every object answers every envelope, each object's
                    // replies in the order they were sent.
                    let mut seen = [0u64; OBJECTS];
                    for _ in 0..OBJECTS as u32 * ENVELOPES {
                        let (from, nonces) = next(&rx);
                        let want = u64::from(submitter << 16) + seen[from.index()] + 1;
                        assert_eq!(nonces, [want], "object {} out of order", from.0);
                        seen[from.index()] += 1;
                    }
                });
            }
        });
        assert!(host
            .statuses()
            .iter()
            .all(|s| s.served == u64::from(2 * ENVELOPES)));
    }

    /// An owner stopped after its drain but before its release: the
    /// envelope submitted then is queued behind it (the submit returns
    /// without serving), and the owner claims the object back after its
    /// release and serves it — never strands it.
    #[test]
    fn an_envelope_queued_at_the_owners_release_edge_is_served() {
        let host: Host = ObjectHost::spawn(vec![Box::new(InOrder(0))], 0, None);
        let (sink, rx) = channel();
        let client = ClientId::reader(0);
        let (at_edge, at_edge_rx) = channel();
        let (go, go_rx) = channel::<()>();
        std::thread::scope(|s| {
            s.spawn(|| {
                // Stops the owner at its first release edge only.
                let mut stop = Some((at_edge, go_rx));
                AT_RELEASE.set(Some(Box::new(move || {
                    if let Some((at_edge, go_rx)) = stop.take() {
                        at_edge.send(()).expect("test alive");
                        go_rx.recv().expect("test alive");
                    }
                })));
                host.submit(envelope(client, &[1]), &sink);
                AT_RELEASE.take();
            });
            at_edge_rx
                .recv_timeout(WAIT)
                .expect("owner at its release edge");
            host.submit(envelope(client, &[2]), &sink);
            assert_eq!(
                host.statuses()[0].served,
                1,
                "the submit served past its owner"
            );
            go.send(()).expect("owner waiting");
        });
        assert_eq!(next(&rx), (ObjectId(0), vec![1]));
        assert_eq!(next(&rx), (ObjectId(0), vec![2]));
    }

    /// A crash while a submitting thread serves waits out the envelope in
    /// flight on that thread and drops the ones queued behind it.
    #[test]
    fn a_crash_during_serve_through_waits_out_the_envelope_in_flight() {
        let (entered_tx, entered_rx) = channel();
        let (release_tx, release_rx) = channel();
        let gated = Gated {
            entered: entered_tx,
            release: release_rx,
        };
        let host: Host = ObjectHost::spawn(vec![Box::new(gated)], 7, None);
        let id = ObjectId(7);
        let (sink, rx) = channel();
        let client = ClientId::reader(0);
        std::thread::scope(|s| {
            s.spawn(|| host.submit(envelope(client, &[1]), &sink));
            entered_rx
                .recv_timeout(WAIT)
                .expect("envelope 1 in flight on its submitter");
            // Queued behind the busy owner: these submits return at once.
            host.submit(envelope(client, &[2]), &sink);
            host.submit(envelope(client, &[3]), &sink);
            s.spawn(|| {
                while !host.is_crashed(id) {
                    std::thread::yield_now();
                }
                release_tx.send(()).expect("object alive");
            });
            host.crash(id);
        });
        assert_eq!(next(&rx), (id, vec![1]), "the envelope in flight finished");
        // Future envelopes vanish too.
        host.submit(envelope(client, &[4]), &sink);
        // Per-object FIFO: had 2, 3 or 4 survived, they would be answered
        // before 5.
        host.restart(id, Box::new(Echo(0)));
        host.submit(envelope(client, &[5]), &sink);
        assert_eq!(
            next(&rx),
            (id, vec![5]),
            "queued and future envelopes were dropped"
        );
    }

    /// Records each request it applies and never replies, so its copies
    /// draw on the request leg only.
    struct Log(Sender<u32>);
    impl ObjectBehavior<u32, u32> for Log {
        fn on_request(&mut self, _from: ClientId, req: &u32) -> Option<u32> {
            let _ = self.0.send(*req);
            None
        }
    }

    /// A host of `objects` [`Log`] objects under `cfg`, and what they
    /// apply.
    fn logged(objects: usize, cfg: ChaosCfg) -> (Host, Receiver<u32>) {
        let (log, applied) = channel();
        let behaviors = (0..objects).map(|_| Box::new(Log(log.clone())) as _);
        (
            ObjectHost::spawn(behaviors.collect(), 0, Some(cfg)),
            applied,
        )
    }

    /// Submits one-frame envelopes `1..=n` from one client.
    fn submit_each(host: &Host, n: u32) {
        let (sink, _) = channel();
        for v in 1..=n {
            host.submit(envelope(ClientId::reader(0), &[v]), &sink);
        }
    }

    /// Drops are drawn per object and per leg, and replay from the seed:
    /// two hosts under one profile lose the same copies, the objects lose
    /// different ones, and every copy is either answered or dropped on one
    /// of its legs. The only test here that drops, so the
    /// `chaos.frames_dropped` delta is its own.
    #[test]
    fn each_object_drops_its_own_copies_and_the_seed_replays_them() {
        const OBJECTS: usize = 4;
        const ENVELOPES: u32 = 64;
        let cfg = ChaosCfg::default().with_drops(0.5).with_seed(7);
        let run = || {
            let behaviors = (0..OBJECTS).map(|_| Box::new(Echo(0)) as _).collect();
            let host: Host = ObjectHost::spawn(behaviors, 0, Some(cfg.clone()));
            let (sink, replies) = channel();
            for v in 1..=ENVELOPES {
                host.submit(envelope(ClientId::reader(0), &[v]), &sink);
            }
            let served: Vec<u64> = host.statuses().iter().map(|s| s.served).collect();
            (served, replies.try_iter().count() as u64)
        };
        let dropped = || {
            Registry::global()
                .counter(names::CHAOS_FRAMES_DROPPED)
                .get()
        };
        let before = dropped();
        let (served, replies) = run();
        assert_eq!(
            replies + dropped() - before,
            OBJECTS as u64 * u64::from(ENVELOPES),
            "a copy was neither answered nor dropped"
        );
        assert!(
            replies < served.iter().sum(),
            "the reply leg dropped nothing"
        );
        assert_eq!(
            run(),
            (served.clone(), replies),
            "the same seed drew other drops"
        );
        assert!(
            served.iter().any(|&n| n != served[0]),
            "the objects drew the same drops: {served:?}"
        );
    }

    /// Under `reorder_prob` 1.0 every copy not releasing a held one is
    /// held behind its successor, on both legs.
    #[test]
    fn a_reorder_profile_swaps_each_copy_with_its_successor() {
        let cfg = ChaosCfg::default().with_reordering(1.0);
        let (host, applied) = logged(1, cfg.clone());
        submit_each(&host, 6);
        assert_eq!(applied.try_iter().collect::<Vec<_>>(), [2, 1, 4, 3, 6, 5]);
        // The reply leg swaps its envelopes too, which puts the answers to
        // the swapped requests back in submission order.
        let host: Host = ObjectHost::spawn(vec![Box::new(Echo(0))], 0, Some(cfg));
        let (sink, replies) = channel();
        for v in 1..=6 {
            host.submit(envelope(ClientId::reader(0), &[v]), &sink);
        }
        let nonces: Vec<u64> = replies.try_iter().map(|r| r.frames[0].op_nonce).collect();
        assert_eq!(nonces, [1, 2, 3, 4, 5, 6]);
    }

    /// A copy held back behind its successor is in transit: a cut loses
    /// it, and the object never applies it after the heal.
    #[test]
    fn a_copy_held_back_at_a_cut_is_lost() {
        let (host, applied) = logged(1, ChaosCfg::default().with_reordering(1.0));
        submit_each(&host, 1);
        host.set_partitioned(true);
        host.set_partitioned(false);
        let (sink, _) = channel();
        for v in [2, 3] {
            host.submit(envelope(ClientId::reader(0), &[v]), &sink);
        }
        assert_eq!(applied.try_iter().collect::<Vec<_>>(), [3, 2]);
        assert_eq!(host.statuses()[0].served, 2);
    }

    /// Drops and reorders are drawn on the submitting thread; only delay
    /// needs the executors.
    #[test]
    fn only_a_profile_that_delays_spawns_threads() {
        let threads = |cfg| {
            let host: Host = ObjectHost::spawn(vec![Box::new(Echo(0))], 0, cfg);
            host.executor_threads()
        };
        assert_eq!(threads(None), 0);
        assert_eq!(threads(Some(ChaosCfg::default().with_drops(0.5))), 0);
        assert_eq!(threads(jitter(Duration::from_micros(1))), EXECUTORS);
    }
}
