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
//! the traced/untraced apply wrapper, crash / restart, and — under a
//! [`Controller`] — what is in transit.
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
//! The adversary speaks one language on both runtimes: a host spawned
//! with a [`Controller`] asks it for a [`Verdict`] once per object copy of
//! an envelope on each leg (request, reply), with the copy's frames as a
//! [`Msg`] and the trace clock's microseconds as `now` — the same trait,
//! and the same rules, the simulator asks per message. A copy that is due
//! at once is served through; a later [`Verdict::DeliverAt`] waits out a
//! release timer (clamped FIFO per client, object and leg), so a "busy"
//! object never blocks a thread; [`Verdict::Drop`] loses the copy;
//! [`Verdict::Behind`] holds it back until the leg's next delivery; and a
//! [`Verdict::Hold`] copy stays in transit until a cut loses it. The
//! stock link-fault profile is [`crate::control::ChaosCfg`], and the
//! explorer's delay masks run here through `rastor_check`'s
//! `Scenario::run_mask_threaded`. Only a host with a controller has
//! threads of its own: [`EXECUTORS`] that wait for the next release timer
//! to come due and then serve its object through, as a submitter would,
//! or hand its reply to its sink. A host without one runs no thread,
//! takes no lock on the fan-out, and reads no clock for it.
//!
//! [`ObjectHost::set_partitioned`] cuts the host off from its clients: an
//! object the adversary cuts off is just an object that stops answering.
//! The objects keep their state, and healing needs no reconnect.
//!
//! Semantics: each object processes envelopes serially and in arrival
//! order (one owner at a time per object), apart from the copies its
//! controller reorders. [`ObjectHost::crash`]
//! lets the envelope in flight finish, then drops the behavior along
//! with every queued envelope; future envelopes to the object vanish
//! until [`ObjectHost::restart`] installs a new behavior under the same
//! id. An envelope still waiting out its delay, or held back behind its
//! successor, when the object crashes counts as in transit: it is dropped
//! if the object is still down at its release, and served if it has
//! rejoined by then. A cut, unlike a crash, loses every envelope still
//! in transit.

use crate::control::{Controller, Msg, Verdict};
use crate::engine::{MsgDir, ObjectBehavior};
use crate::runtime::{RepEnvelope, RepFrame, ReqEnvelope};
use rastor_common::{ClientId, ObjectId};
use rastor_obs::{names, trace, Counter, Registry};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Executor threads of a host with a controller: the pool that releases
/// its timers and serves the objects they free. Two, so one slow apply
/// does not hold back every other object's release. Fixed — hosting more
/// objects, or serving more clients, never means more threads. A host
/// without a controller spawns none.
pub const EXECUTORS: usize = 2;

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
}

/// One object copy on its way: a request copy bound for its object's
/// queue, or a reply envelope bound for its sink.
enum InTransit<Q, R, S> {
    Request(Job<Q, S>),
    Reply(S, RepEnvelope<R>),
}

/// One object's link under a controller.
struct Link<Q, R, S> {
    /// Per client and leg, the latest release time a copy was given: the
    /// FIFO floor a later [`Verdict::DeliverAt`] is clamped to.
    floor: HashMap<(ClientId, MsgDir), u64>,
    /// Per leg, the copies waiting out a release timer. While one does, a
    /// copy of that leg that is due at once waits its turn behind it.
    timed: [usize; 2],
    /// Per leg, the copy a [`Verdict::Behind`] holds back until the leg's
    /// next delivery.
    behind: [Option<InTransit<Q, R, S>>; 2],
    /// Copies the controller holds: never delivered, lost at a cut.
    held: usize,
}

/// Delayed copies by `(release time µs, arrival seq)`, each with its
/// object index.
type Timers<Q, R, S> = BTreeMap<(u64, u64), (usize, InTransit<Q, R, S>)>;

/// Everything in transit under a controller, behind one lock: the
/// controller, the release timers and every object's link.
struct Transit<Q, R, S> {
    controller: Box<dyn Controller + Send>,
    timers: Timers<Q, R, S>,
    seq: u64,
    links: Vec<Link<Q, R, S>>,
}

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
    slots: Vec<Slot<Q, R, S>>,
    /// `None` without a controller: then nothing is ever in transit.
    transit: Option<Mutex<Transit<Q, R, S>>>,
    /// Tied to `transit`: every new timer wakes the parked executors,
    /// which re-read the earliest deadline under the same lock.
    timer_cv: Condvar,
    /// Where the next envelope starts its fan-out.
    next_first: AtomicUsize,
    /// Set by [`ObjectHost::set_partitioned`]; under a controller flipped
    /// under the `transit` lock, so nothing enters transit once the cut
    /// has cleared it.
    partitioned: AtomicBool,
    /// Set under the `transit` lock, so no executor parks past it.
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

    /// The live objects in the order an envelope reaches them. Each
    /// envelope starts its fan-out one object further on, so no object
    /// always answers last: a client that moves on after the first `n - t`
    /// replies of a round still hears every object in turn.
    fn fan_out(&self) -> impl Iterator<Item = usize> + '_ {
        let n = self.slots.len();
        let first = self.next_first.fetch_add(1, Ordering::Relaxed);
        (0..n)
            .map(move |k| (first + k) % n)
            .filter(|&i| !self.slots[i].crashed.load(Ordering::Acquire))
    }

    /// Object `obj`'s cluster-global id.
    fn oid(&self, obj: usize) -> ObjectId {
        ObjectId(self.first_id + obj as u32)
    }

    /// Queue `job` on object `obj` for its owner.
    fn push(&self, obj: usize, job: Job<Q, S>) {
        self.slots[obj]
            .queue
            .lock()
            .expect("object queue lock")
            .push_back(job);
    }

    /// Ask the controller about object `obj`'s `copy`, whose coordinates
    /// are `msg`, sent at `now`, and carry the verdict out: what is due at
    /// once — the copy, then one it releases — goes to `due` in that
    /// order, and what is not waits on a release timer.
    fn route(
        &self,
        transit: &mut Transit<Q, R, S>,
        obj: usize,
        msg: &Msg,
        now: u64,
        copy: InTransit<Q, R, S>,
        mut due: impl FnMut(InTransit<Q, R, S>),
    ) {
        let leg = msg.dir as usize;
        let link = &mut transit.links[obj];
        let at = match transit.controller.verdict(msg, now) {
            Verdict::DeliverAt(at) => at,
            Verdict::Hold => {
                link.held += 1;
                return;
            }
            Verdict::Drop => return counters().dropped.inc(),
            Verdict::Behind if link.behind[leg].is_none() => {
                counters().reordered.inc();
                link.behind[leg] = Some(copy);
                return;
            }
            // A link holds back one copy at a time: this one goes now.
            Verdict::Behind => now,
        };
        let floor = link.floor.entry((msg.client, msg.dir)).or_insert(0);
        let at = at.max(*floor);
        *floor = at;
        for copy in std::iter::once(copy).chain(link.behind[leg].take()) {
            if at <= now && link.timed[leg] == 0 {
                due(copy);
                continue;
            }
            counters().delayed.inc();
            link.timed[leg] += 1;
            transit.timers.insert((at, transit.seq), (obj, copy));
            transit.seq += 1;
            // Every parked executor re-reads the earliest deadline: one
            // left parked past a new timer, while its peer drains a slow
            // object, would hold that release back.
            self.timer_cv.notify_all();
        }
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
        let oid = self.oid(obj);
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
        let Some(transit) = &self.transit else {
            if !self.cut(|| 1) {
                out(&job.sink, envelope);
            }
            return true;
        };
        // The reply leg: the object's owner asks, so its envelopes are
        // routed in the order it made them.
        let frames: Vec<(u64, u32)> = envelope
            .frames
            .iter()
            .map(|f| (f.op_nonce, f.round))
            .collect();
        let msg = Msg {
            dir: MsgDir::Reply,
            client,
            object: oid,
            frames: &frames,
        };
        let mut due = Vec::new();
        {
            let mut transit = transit.lock().expect("transit lock");
            if self.cut(|| 1) {
                return true;
            }
            let copy = InTransit::Reply(job.sink, envelope);
            self.route(&mut transit, obj, &msg, trace::epoch_us(), copy, |c| {
                due.push(c)
            });
        }
        // Handed on outside the lock: no timed reply of this object is
        // pending, and its next reply is this owner's to make.
        for copy in due {
            if let InTransit::Reply(sink, envelope) = copy {
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

    /// One executor's loop: wait for the next release timer to come due
    /// and hand its copy on while still holding the lock, so each leg's
    /// copies leave in release order — a request copy onto its object's
    /// queue, then served through, as a submitter would, unless another
    /// thread owns the object; a reply envelope to its sink.
    fn executor_loop(&self) {
        let lock = self
            .transit
            .as_ref()
            .expect("executors run under a controller");
        let mut transit = lock.lock().expect("transit lock");
        while !self.shutdown.load(Ordering::Acquire) {
            let now = trace::epoch_us();
            match transit.timers.first_key_value().map(|((at, _), _)| *at) {
                None => transit = self.timer_cv.wait(transit).expect("timer condvar"),
                Some(at) if at > now => {
                    transit = self
                        .timer_cv
                        .wait_timeout(transit, Duration::from_micros(at - now))
                        .expect("timer condvar")
                        .0;
                }
                Some(_) => match transit.timers.pop_first().expect("peeked") {
                    (_, (obj, InTransit::Request(job))) => {
                        self.push(obj, job);
                        transit.links[obj].timed[0] -= 1;
                        drop(transit);
                        if self.claim(obj) {
                            self.drain(obj, &mut |sink, env| sink.deliver(env));
                        }
                        transit = lock.lock().expect("transit lock");
                    }
                    (_, (obj, InTransit::Reply(sink, env))) => {
                        sink.deliver(env);
                        transit.links[obj].timed[1] -= 1;
                    }
                },
            }
        }
    }

    /// Serve on this thread each object `objs` yields — by then any
    /// envelope due for it is queued — that it finds idle; the reply
    /// envelopes for `sink` go out together once every claimed object is
    /// drained.
    fn serve_through(&self, objs: impl Iterator<Item = usize>, sink: &S) {
        let mut burst = Vec::new();
        let mut out = |to: &S, envelope| {
            if to.same_sink(sink) {
                burst.push(envelope);
            } else {
                to.deliver(envelope);
            }
        };
        for i in objs {
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
/// a controller, by a fixed executor pool).
///
/// Dropping the host stops the pool (envelopes still queued are
/// discarded).
pub struct ObjectHost<Q, R, S: ReplySink<R>> {
    shared: Arc<Shared<Q, R, S>>,
    executors: Vec<JoinHandle<()>>,
}

impl<Q: Send + Sync + 'static, R: Send + 'static, S: ReplySink<R>> ObjectHost<Q, R, S> {
    /// Host `behaviors` under the cluster-global ids `first_id ..`, every
    /// object copy scheduled by `controller` if there is one (see the
    /// [module docs](self)). A controller's verdicts apply **per
    /// envelope** (not per frame) per object — a delay emulates one
    /// network/storage round trip per coalesced batch, which is exactly
    /// why batching pays. Only a host with a controller spawns threads:
    /// the [`EXECUTORS`] that release its timers.
    pub fn spawn(
        behaviors: Vec<Behavior<Q, R>>,
        first_id: u32,
        controller: Option<Box<dyn Controller + Send>>,
    ) -> ObjectHost<Q, R, S> {
        let n = behaviors.len();
        let slots = behaviors
            .into_iter()
            .map(|b| Slot {
                crashed: AtomicBool::new(false),
                behavior: Mutex::new(Some(b)),
                served: AtomicU64::new(0),
                queue: Mutex::new(VecDeque::new()),
                scheduled: AtomicBool::new(false),
            })
            .collect();
        let transit = controller.map(|controller| {
            let link = || Link {
                floor: HashMap::new(),
                timed: [0; 2],
                behind: [None, None],
                held: 0,
            };
            Mutex::new(Transit {
                controller,
                timers: BTreeMap::new(),
                seq: 0,
                links: (0..n).map(|_| link()).collect(),
            })
        });
        let pool = if transit.is_some() { EXECUTORS } else { 0 };
        let shared = Arc::new(Shared {
            first_id,
            slots,
            transit,
            timer_cv: Condvar::new(),
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
    /// envelope goes to `sink`. The calling thread serves every object it
    /// finds idle before this returns, and queues the envelope behind
    /// every object another thread owns; under a controller, only the
    /// copies that are due at once. A partitioned host drops the envelope.
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
        let Some(transit) = &shared.transit else {
            if !shared.cut(|| shared.live().count()) {
                let objs = shared.fan_out().inspect(|&i| shared.push(i, job()));
                shared.serve_through(objs, sink);
            }
            return;
        };
        let frames: Vec<(u64, u32)> = env.frames.iter().map(|f| (f.op_nonce, f.round)).collect();
        let now = trace::epoch_us();
        // The objects this thread queued a copy on: only those are its to
        // serve; a timed copy is its executor's.
        let mut due = Vec::new();
        {
            let mut transit = transit.lock().expect("transit lock");
            if shared.cut(|| shared.live().count()) {
                return;
            }
            for i in shared.fan_out() {
                let msg = Msg {
                    dir: MsgDir::Request,
                    client: env.from,
                    object: shared.oid(i),
                    frames: &frames,
                };
                // Queued under the lock, so a copy due now never passes
                // one an executor is handing on.
                let copy = InTransit::Request(job());
                shared.route(&mut transit, i, &msg, now, copy, |copy| {
                    if let InTransit::Request(job) = copy {
                        shared.push(i, job);
                        due.push(i);
                    }
                });
            }
        }
        due.dedup();
        shared.serve_through(due.into_iter(), sink);
    }

    /// Threads this host runs of its own: [`EXECUTORS`] under a
    /// controller, none otherwise.
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
    /// back with* is the caller's policy: give it a freshly recovered
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
    /// produces; the cut also loses every copy still in transit — waiting
    /// out its delay, held back behind its successor, or held by the
    /// controller — as a link going dark loses what is on it. The objects
    /// keep their state, and control frames, which never reach the host,
    /// keep being answered. Each dropped object copy counts under
    /// `chaos.partition_drops`.
    pub fn set_partitioned(&self, on: bool) {
        let shared = &*self.shared;
        let Some(transit) = &shared.transit else {
            shared.partitioned.store(on, Ordering::Release);
            return;
        };
        let mut transit = transit.lock().expect("transit lock");
        shared.partitioned.store(on, Ordering::Release);
        if on {
            let mut lost = transit.timers.len();
            transit.timers.clear();
            for link in &mut transit.links {
                lost += link.held + link.behind.iter_mut().filter_map(Option::take).count();
                link.held = 0;
                link.timed = [0; 2];
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
                id: self.shared.oid(i),
                crashed: s.crashed.load(Ordering::Acquire),
                served: s.served.load(Ordering::Relaxed),
            })
            .collect()
    }
}

impl<Q, R, S: ReplySink<R>> Drop for ObjectHost<Q, R, S> {
    fn drop(&mut self) {
        let transit = self.shared.transit.as_ref().map(Mutex::lock);
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.timer_cv.notify_all();
        drop(transit);
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{ChaosCfg, Rule, ScriptedController};
    use crate::runtime::{ReqFrame, ThreadCluster};
    use rastor_common::ClientId;
    use std::cell::RefCell;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::thread::ThreadId;
    use std::time::Instant;

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
    fn jitter(jitter: Duration) -> Option<Box<dyn Controller + Send>> {
        Some(Box::new(ChaosCfg::jitter_only(jitter)))
    }

    /// Object `id`'s request-leg draws under the default seed.
    fn requests(id: u32) -> impl Iterator<Item = f64> {
        let mut stream = ChaosCfg::stream(ChaosCfg::default().seed, ObjectId(id), 0);
        std::iter::repeat_with(move || stream.next_f64())
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
        let draw = |id: u32| requests(id).next().expect("a draw");
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
        let draw = |id: u32| requests(id).next().expect("a draw");
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
        let second_draw = |id| requests(id).nth(1).expect("a draw");
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
            jitter(JITTER),
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
            ObjectHost::spawn(behaviors.collect(), 0, Some(Box::new(cfg))),
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
            let host: Host = ObjectHost::spawn(behaviors, 0, Some(Box::new(cfg.clone())));
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

    /// Under a reorder probability of 1.0 every copy not releasing a held
    /// one is held behind its successor, on both legs.
    #[test]
    fn a_reorder_profile_swaps_each_copy_with_its_successor() {
        let cfg = ChaosCfg::default().with_reordering(1.0);
        let (host, applied) = logged(1, cfg.clone());
        submit_each(&host, 6);
        assert_eq!(applied.try_iter().collect::<Vec<_>>(), [2, 1, 4, 3, 6, 5]);
        // The reply leg swaps its envelopes too, which puts the answers to
        // the swapped requests back in submission order.
        let host: Host = ObjectHost::spawn(vec![Box::new(Echo(0))], 0, Some(Box::new(cfg)));
        let (sink, replies) = channel();
        for v in 1..=6 {
            host.submit(envelope(ClientId::reader(0), &[v]), &sink);
        }
        let nonces: Vec<u64> = replies.try_iter().map(|r| r.frames[0].op_nonce).collect();
        assert_eq!(nonces, [1, 2, 3, 4, 5, 6]);
    }

    /// The explorer's vocabulary on the host: a held copy never arrives,
    /// and a copy a rule delays keeps its link FIFO — its successor, due
    /// at once, is clamped behind it rather than served through.
    #[test]
    fn a_scripted_controller_holds_copies_and_clamps_each_link_fifo() {
        const DELAY_US: u64 = 20_000;
        let late = Rule {
            extra_delay: Some(DELAY_US),
            ..Rule::hold(MsgDir::Request).object(ObjectId(0)).op_seq(1)
        };
        let controller = ScriptedController::new()
            .with_default_delay(0)
            .with_rule(Rule::hold(MsgDir::Request).object(ObjectId(1)))
            .with_rule(late);
        let host: Host = ObjectHost::spawn(
            vec![Box::new(InOrder(0)), Box::new(InOrder(0))],
            0,
            Some(Box::new(controller)),
        );
        let (tx, rx) = channel();
        let started = Instant::now();
        for v in [1, 2] {
            host.submit(envelope(ClientId::reader(0), &[v]), &tx);
        }
        assert_eq!(
            host.statuses()[0].served,
            0,
            "a due copy passed the delayed one"
        );
        // `InOrder` panics (and the replies stop) if the link reorders.
        assert_eq!(next(&rx), (ObjectId(0), vec![1]));
        assert_eq!(next(&rx), (ObjectId(0), vec![2]));
        assert!(started.elapsed() >= Duration::from_micros(DELAY_US));
        assert_eq!(host.statuses()[1].served, 0, "a held copy arrived");
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

    /// A host with a controller runs [`EXECUTORS`] whatever its verdicts
    /// (any of them may name a later time); a host without one runs none.
    #[test]
    fn only_a_host_with_a_controller_spawns_threads() {
        let threads = |controller| {
            let host: Host = ObjectHost::spawn(vec![Box::new(Echo(0))], 0, controller);
            host.executor_threads()
        };
        assert_eq!(threads(None), 0);
        let drops = ChaosCfg::default().with_drops(0.5);
        assert_eq!(threads(Some(Box::new(drops))), EXECUTORS);
        assert_eq!(threads(jitter(Duration::from_micros(1))), EXECUTORS);
    }
}
