//! [`ObjectHost`]: the one place a base object is hosted.
//!
//! The paper's model has a single kind of base object — it applies a
//! request and replies, and it may crash, rejoin or lie — so the tree has
//! a single host for it. Every substrate that delivers envelopes to
//! objects ([`crate::runtime::ThreadCluster`] over channels, `rastor_net`'s
//! `ObjectServer` over sockets) is a thin wrapper that feeds this host and
//! tells it, through a [`ReplySink`], where reply envelopes go.
//!
//! What the host owns: one slot per object (the behavior, a served
//! counter, a FIFO queue of envelopes waiting for the object's owner),
//! the per-envelope service jitter (modelled as a release timer, so a
//! "busy" object never blocks a thread), the traced/untraced apply
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
//! Only service jitter needs threads of the host's own: a host spawned
//! with jitter runs [`EXECUTORS`] threads that wait for the next release
//! timer to come due and then serve its object through, as a submitter
//! would. A host without jitter runs no thread at all.
//!
//! [`ObjectHost::set_partitioned`] cuts the host off from its clients: in
//! the paper's model an object the adversary cuts off is just an object
//! that stops answering, so the cut lives here, where the objects do,
//! rather than on a link. The objects keep their state, and healing needs
//! no reconnect.
//!
//! Semantics: each object processes envelopes serially and in arrival
//! order (one owner at a time per object). [`ObjectHost::crash`]
//! lets the envelope in flight finish, then drops the behavior along
//! with every queued envelope; future envelopes to the object vanish
//! until [`ObjectHost::restart`] installs a new behavior under the same
//! id. An envelope still waiting out its jitter delay when the object
//! crashes counts as in transit: it is dropped if the object is still
//! down at its release time, and served if it has rejoined by then.
//! A cut, unlike a crash, loses every envelope still in transit.

use crate::engine::ObjectBehavior;
use rastor_common::{ClientId, ObjectId, SplitMix64};
use rastor_obs::{names, trace, Counter, Registry};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Executor threads of a host spawned with service jitter: the pool that
/// releases jitter timers and serves the objects they free. Two, so one
/// slow apply does not hold back every other object's release. Fixed —
/// hosting more objects, or serving more clients, never means more
/// threads. A host without jitter spawns none.
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

/// One object's reply envelope: the replying object, the client it
/// answers, and one reply frame per answered request frame.
pub type ReplyEnvelope<T> = (ObjectId, ClientId, Vec<T>);

/// Where a substrate's reply envelopes go, and what its frames look like.
///
/// The host never copies a frame: it reads each request frame in place
/// (`request`), builds the matching reply frame (`reply`) and hands the
/// coalesced envelope to the sink the request came with (`deliver`).
pub trait ReplySink<Q, R>: Clone + Send + 'static {
    /// One request frame of an envelope, as this substrate carries it.
    type Frame: Send + Sync + 'static;
    /// The reply frame answering one request frame.
    type Reply;
    /// The substrate's span vocabulary and envelope timing.
    const ACCOUNTING: Accounting;

    /// The frame's trace id ([`trace::NO_TRACE`] when untraced) and its
    /// request payload.
    fn request(frame: &Self::Frame) -> (u64, &Q);
    /// The reply frame carrying `payload` in answer to `frame`.
    fn reply(frame: &Self::Frame, payload: R) -> Self::Reply;
    /// Deliver object `from`'s reply envelope to client `to`. Best
    /// effort: the client may be gone.
    fn deliver(&self, from: ObjectId, to: ClientId, replies: Vec<Self::Reply>);

    /// Whether `other` delivers where `self` does. A serve-through call
    /// gathers the reply envelopes bound for its own sink into one
    /// [`ReplySink::deliver_burst`]; the rest it delivers one by one.
    fn same_sink(&self, _other: &Self) -> bool {
        false
    }

    /// Deliver several reply envelopes bound for this sink, in order —
    /// one at a time unless the substrate can do better.
    fn deliver_burst(&self, burst: Vec<ReplyEnvelope<Self::Reply>>) {
        for (from, to, replies) in burst {
            self.deliver(from, to, replies);
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
struct Job<F, S> {
    client: ClientId,
    /// The envelope's frames, shared across the object fan-out.
    frames: Arc<Vec<F>>,
    sink: S,
    /// When the envelope was handed over (trace clock µs; 0 unless the
    /// substrate records a queue span and some frame is traced).
    enqueued_us: u64,
}

/// One hosted object's serving state.
struct Slot<Q, R, S: ReplySink<Q, R>> {
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
    queue: Mutex<VecDeque<Job<S::Frame, S>>>,
    /// Whether the object is owned — being drained by an executor or a
    /// submitting thread. One owner at a time per object keeps processing
    /// serial and FIFO.
    scheduled: AtomicBool,
    /// Jitter bookkeeping: when the object's service "pipe" frees up, and
    /// the object's deterministic jitter stream.
    busy: Mutex<(Instant, SplitMix64)>,
}

/// Jitter-delayed envelopes by `(release time, arrival seq)`, each with
/// its object index.
type Timers<F, S> = BTreeMap<(Instant, u64), (usize, Job<F, S>)>;

/// The envelopes a cut drops, counted process-wide under
/// `chaos.partition_drops`.
fn partition_drops() -> &'static Counter {
    static DROPS: OnceLock<Arc<Counter>> = OnceLock::new();
    DROPS.get_or_init(|| Registry::global().counter(names::CHAOS_PARTITION_DROPS))
}

struct Shared<Q, R, S: ReplySink<Q, R>> {
    first_id: u32,
    jitter: Option<Duration>,
    slots: Vec<Slot<Q, R, S>>,
    /// Released by the executors (a condvar `wait_timeout` to the next
    /// deadline), so a feeding reactor or client never has to poll on
    /// sub-millisecond ticks.
    timers: Mutex<Timers<S::Frame, S>>,
    /// Tied to `timers`: every push wakes the parked executors, which
    /// re-read the earliest deadline under the same lock.
    timer_cv: Condvar,
    timer_seq: AtomicU64,
    /// Set by [`ObjectHost::set_partitioned`]; flipped under the `timers`
    /// lock, so no envelope enters a timer once the cut has cleared them.
    partitioned: AtomicBool,
    /// Set under the `timers` lock, so no executor parks past it.
    shutdown: AtomicBool,
}

impl<Q, R, S: ReplySink<Q, R>> Shared<Q, R, S> {
    /// Claim object `obj` for this thread; `false` if another owns it.
    fn claim(&self, obj: usize) -> bool {
        self.slots[obj]
            .scheduled
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Whether the host is cut off, counting the envelope the caller then
    /// drops.
    fn cut(&self) -> bool {
        let cut = self.partitioned.load(Ordering::Acquire);
        if cut {
            partition_drops().inc();
        }
        cut
    }

    /// Apply object `obj`'s next queued envelope and hand its reply
    /// envelope to `out` with the sink it goes to; `false` once the queue
    /// is empty.
    fn serve_next(&self, obj: usize, out: &mut impl FnMut(&S, ReplyEnvelope<S::Reply>)) -> bool {
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
        let replies: Vec<S::Reply> = job
            .frames
            .iter()
            .filter_map(|f| {
                let (tid, payload) = S::request(f);
                // Traced frames get their spans around the behavior call,
                // with the thread trace context set so durable behaviors
                // hang WAL spans under the same trace. Untraced frames
                // skip the clock reads entirely.
                let rep = if tid == trace::NO_TRACE {
                    b.on_request(job.client, payload)
                } else {
                    let rec = trace::global();
                    let detail = u64::from(oid.0);
                    if let Some(queue) = acct.queue_span {
                        rec.record(tid, queue, detail, job.enqueued_us, picked_us);
                    }
                    let start = trace::epoch_us();
                    let prev = trace::set_current(tid);
                    let rep = b.on_request(job.client, payload);
                    trace::set_current(prev);
                    let end = trace::epoch_us();
                    rec.record(tid, acct.apply_span, detail, start, end);
                    if acct.finish {
                        rec.finish(tid, end);
                    }
                    rep
                };
                rep.map(|payload| S::reply(f, payload))
            })
            .collect();
        if let Some(record) = acct.envelope_us {
            record(trace::epoch_us().saturating_sub(picked_us));
        }
        drop(behavior);
        if !replies.is_empty() && !self.cut() {
            out(&job.sink, (oid, job.client, replies));
        }
        true
    }

    /// Serve object `obj`, which the caller owns, until its queue is
    /// empty, then release it — and claim it again if an envelope was
    /// queued between the drain and the release, so none is ever
    /// stranded.
    fn drain(&self, obj: usize, out: &mut impl FnMut(&S, ReplyEnvelope<S::Reply>)) {
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

    /// One executor's loop: wait for the next jitter timer to come due,
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
                        self.drain(obj, &mut |sink, (from, to, replies)| {
                            sink.deliver(from, to, replies);
                        });
                    }
                    timers = self.timers.lock().expect("timer lock");
                }
            }
        }
    }

    /// Queue `job` on every live object, serving on this thread each one
    /// it finds idle; the reply envelopes for `sink` go out together once
    /// every claimed object is drained.
    fn serve_through(&self, mut job: impl FnMut() -> Job<S::Frame, S>, sink: &S) {
        let mut burst = Vec::new();
        let mut out = |to: &S, envelope| {
            if to.same_sink(sink) {
                burst.push(envelope);
            } else {
                let (from, client, replies) = envelope;
                to.deliver(from, client, replies);
            }
        };
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.crashed.load(Ordering::Acquire) {
                continue;
            }
            slot.queue
                .lock()
                .expect("object queue lock")
                .push_back(job());
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
/// service jitter, by a fixed executor pool).
///
/// Dropping the host stops the pool (envelopes still queued are
/// discarded).
pub struct ObjectHost<Q, R, S: ReplySink<Q, R>> {
    shared: Arc<Shared<Q, R, S>>,
    executors: Vec<JoinHandle<()>>,
}

impl<Q: 'static, R: 'static, S: ReplySink<Q, R>> ObjectHost<Q, R, S> {
    /// Host `behaviors` under the cluster-global ids `first_id ..`.
    /// `jitter` adds a random service delay up to the given duration **per
    /// envelope** (not per frame) per object — emulating one
    /// network/storage round trip per coalesced batch, which is exactly
    /// why batching pays. Only a host with jitter spawns threads: the
    /// [`EXECUTORS`] that release its timers.
    pub fn spawn(
        behaviors: Vec<Behavior<Q, R>>,
        first_id: u32,
        jitter: Option<Duration>,
    ) -> ObjectHost<Q, R, S> {
        let now = Instant::now();
        let slots = behaviors
            .into_iter()
            .enumerate()
            .map(|(i, b)| Slot {
                crashed: AtomicBool::new(false),
                behavior: Mutex::new(Some(b)),
                served: AtomicU64::new(0),
                queue: Mutex::new(VecDeque::new()),
                scheduled: AtomicBool::new(false),
                busy: Mutex::new((now, SplitMix64::new(u64::from(first_id + i as u32)))),
            })
            .collect();
        let shared = Arc::new(Shared {
            first_id,
            jitter,
            slots,
            timers: Mutex::new(BTreeMap::new()),
            timer_cv: Condvar::new(),
            timer_seq: AtomicU64::new(0),
            partitioned: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let pool = if jitter.is_some() { EXECUTORS } else { 0 };
        let executors = (0..pool)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shared.executor_loop())
            })
            .collect();
        ObjectHost { shared, executors }
    }

    /// Hand one envelope from `client` to every live hosted object; each
    /// object's reply envelope goes to `sink`. Without jitter the calling
    /// thread serves every object it finds idle before this returns, and
    /// queues the envelope behind every object another thread owns. With
    /// jitter every object's copy waits out a release timer first. A
    /// partitioned host drops the envelope.
    pub fn submit(&self, client: ClientId, frames: Arc<Vec<S::Frame>>, sink: &S) {
        let shared = &*self.shared;
        // One clock read per envelope, skipped entirely when untraced.
        let traced = || frames.iter().any(|f| S::request(f).0 != trace::NO_TRACE);
        let enqueued_us = if S::ACCOUNTING.queue_span.is_some() && traced() {
            trace::epoch_us()
        } else {
            0
        };
        let job = || Job {
            client,
            frames: Arc::clone(&frames),
            sink: sink.clone(),
            enqueued_us,
        };
        let Some(jitter) = shared.jitter else {
            if !shared.cut() {
                shared.serve_through(job, sink);
            }
            return;
        };
        let mut timers = shared.timers.lock().expect("timer lock");
        if shared.cut() {
            return;
        }
        let live = shared
            .slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| !slot.crashed.load(Ordering::Acquire));
        let now = Instant::now();
        for (i, slot) in live {
            // The object serves envelopes one at a time, each taking a
            // random slice of `jitter`: a queueing model kept off the
            // executors, so a "busy" object never blocks a thread.
            let release = {
                let mut busy = slot.busy.lock().expect("busy lock");
                let release = busy.0.max(now) + jitter.mul_f64(busy.1.next_f64());
                busy.0 = release;
                release
            };
            let seq = shared.timer_seq.fetch_add(1, Ordering::Relaxed);
            timers.insert((release, seq), (i, job()));
        }
        drop(timers);
        // Every parked executor re-reads the earliest deadline: one left
        // parked past a new timer, while its peer drains a slow object,
        // would hold that release back.
        shared.timer_cv.notify_all();
    }

    /// Threads this host runs of its own: [`EXECUTORS`] under service
    /// jitter, none otherwise.
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
    /// with the same service-jitter profile and a zeroed served count.
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
    /// produces; the cut also loses every envelope still waiting out its
    /// jitter delay, as a link going dark loses what is in transit on it.
    /// The objects keep their state, and control frames, which never
    /// reach the host, keep being answered. Each dropped envelope counts
    /// under `chaos.partition_drops`.
    pub fn set_partitioned(&self, on: bool) {
        let mut timers = self.shared.timers.lock().expect("timer lock");
        self.shared.partitioned.store(on, Ordering::Release);
        if on {
            partition_drops().add(timers.len() as u64);
            timers.clear();
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

impl<Q, R, S: ReplySink<Q, R>> Drop for ObjectHost<Q, R, S> {
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
    use crate::runtime::{ObjReply, ReqFrame, ThreadCluster};
    use std::cell::RefCell;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::thread::ThreadId;

    type Host = ObjectHost<u32, u32, Sender<ObjReply<u32>>>;
    const WAIT: Duration = Duration::from_secs(10);

    thread_local! {
        /// Run by an owner between draining an object and releasing it,
        /// on the thread that installed it — how a test stops an owner at
        /// its release edge.
        pub(super) static AT_RELEASE: RefCell<Option<Box<dyn FnMut()>>> =
            const { RefCell::new(None) };
    }

    /// One untraced envelope carrying `vals`, one frame each (the nonce
    /// repeats the payload so replies identify their request).
    fn envelope(vals: &[u32]) -> Arc<Vec<ReqFrame<u32>>> {
        let frames = vals.iter().map(|&v| ReqFrame {
            op_nonce: u64::from(v),
            round: 1,
            trace: trace::NO_TRACE,
            payload: Arc::new(v),
        });
        Arc::new(frames.collect())
    }

    /// The next reply envelope as `(object, nonces)`.
    fn next(rx: &Receiver<ObjReply<u32>>) -> (ObjectId, Vec<u64>) {
        let rep = rx.recv_timeout(WAIT).expect("a reply envelope");
        (rep.from, rep.frames.iter().map(|f| f.op_nonce).collect())
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
        host.submit(ClientId::reader(0), envelope(&[5, 6]), &tx);
        let replies: Vec<_> = rx
            .try_iter()
            .map(|rep| {
                (
                    rep.from,
                    rep.frames.iter().map(|f| f.payload).collect::<Vec<_>>(),
                )
            })
            .collect();
        let want = [0, 1, 3].map(|o| (ObjectId(o), vec![5, 6]));
        assert_eq!(replies, want, "every live object answered, in object order");
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
            Some(Duration::from_micros(1)),
        );
        assert_eq!(host.executor_threads(), EXECUTORS);
        let (tx, rx) = channel();
        for v in 1..=ENVELOPES {
            host.submit(ClientId::reader(0), envelope(&[v]), &tx);
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
                host.submit(client, envelope(&[1]), &tx);
                std::thread::current().id()
            });
            entered_rx
                .recv_timeout(WAIT)
                .expect("envelope 1 in flight on its submitter");
            host.submit(client, envelope(&[2]), &tx);
            host.submit(client, envelope(&[3]), &tx);
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
            host.submit(client, envelope(&[v]), &tx);
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
        host.submit(client, envelope(&[1]), &tx);
        assert_eq!(next(&rx).0, ObjectId(4), "only the live object answers");
        host.restart(id, Box::new(Echo(20)));
        assert!(!host.is_crashed(id));
        assert_eq!(
            host.statuses()[1].served,
            0,
            "served restarts with the object"
        );
        host.submit(client, envelope(&[1]), &tx);
        let from_restarted = (0..2)
            .map(|_| rx.recv_timeout(WAIT).expect("both objects answer"))
            .find(|rep| rep.from == id)
            .expect("the restarted id answers");
        assert_eq!(
            from_restarted.frames[0].payload, 21,
            "with the new behavior"
        );
    }

    #[test]
    fn jitter_releases_in_order_and_never_oversleeps_an_earlier_timer() {
        const JITTER: Duration = Duration::from_millis(400);
        // Object ids seed the jitter streams: pick a pair whose first
        // draws put the first object's release late and the second's
        // early, so the earlier timer is pushed *after* a later one.
        let draw = |id: u32| SplitMix64::new(u64::from(id)).next_f64();
        let first_id = (0..10_000)
            .find(|&id| draw(id) > 0.8 && draw(id + 1) < 0.1)
            .expect("such a pair of ids exists");
        let host: Host = ObjectHost::spawn(
            vec![Box::new(InOrder(0)), Box::new(InOrder(0))],
            first_id,
            Some(JITTER),
        );
        let (tx, rx) = channel();
        let started = Instant::now();
        for v in 1..=3 {
            host.submit(ClientId::reader(0), envelope(&[v]), &tx);
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
        // Ids seed the jitter streams: the slow object's timer comes due
        // within 4 ms, its peer's 12–20 ms in, both inside one slow apply.
        let draw = |id: u32| SplitMix64::new(u64::from(id)).next_f64();
        let first_id = (0..10_000)
            .find(|&id| draw(id) < 0.2 && draw(id + 1) > 0.6)
            .expect("such a pair of ids exists");
        let host: Host = ObjectHost::spawn(
            vec![
                Box::new(Sleepy(Duration::from_millis(50))),
                Box::new(Echo(0)),
            ],
            first_id,
            Some(JITTER),
        );
        let (tx, rx) = channel();
        host.submit(ClientId::reader(0), envelope(&[1]), &tx);
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
    fn all_replies(submit: impl FnOnce(&Sender<ObjReply<u32>>)) -> Vec<(ObjectId, u32)> {
        let (tx, rx) = channel();
        submit(&tx);
        drop(tx);
        rx.iter()
            .map(|rep| (rep.from, rep.frames[0].payload))
            .collect()
    }

    /// A cut loses what is in transit both ways: the copies of a write
    /// still waiting out their jitter at the cut, an envelope submitted
    /// during it, and the reply of an apply that finishes during it. After
    /// the heal the objects answer from the state they had before the cut.
    #[test]
    fn a_partitioned_host_drops_envelopes_both_ways_and_heals_with_state_intact() {
        const JITTER: Duration = Duration::from_millis(200);
        // The objects take ids 0 and 1; their jitter streams put the
        // second envelope's releases 0.43 and 0.75 of `JITTER` after its
        // submit, so the cut right behind it finds both in transit.
        let second_draw = |id| {
            let mut stream = SplitMix64::new(id);
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
            let mut replies = all_replies(|sink| host.submit(client, envelope(&[0]), sink));
            replies.sort_unstable();
            replies
        };
        let write = |v| all_replies(|sink| host.submit(client, envelope(&[v]), sink));
        assert_eq!(write(7).len(), 2);

        // Requests: both copies of the write in transit, then an envelope
        // submitted to the cut host.
        let lost = all_replies(|sink| {
            host.submit(client, envelope(&[9]), sink);
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
            host.submit(client, envelope(&[GATED_READ]), sink);
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
                        host.submit(ClientId::reader(submitter), envelope(&[req]), &sink);
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
                host.submit(client, envelope(&[1]), &sink);
                AT_RELEASE.take();
            });
            at_edge_rx
                .recv_timeout(WAIT)
                .expect("owner at its release edge");
            host.submit(client, envelope(&[2]), &sink);
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
            s.spawn(|| host.submit(client, envelope(&[1]), &sink));
            entered_rx
                .recv_timeout(WAIT)
                .expect("envelope 1 in flight on its submitter");
            // Queued behind the busy owner: these submits return at once.
            host.submit(client, envelope(&[2]), &sink);
            host.submit(client, envelope(&[3]), &sink);
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
        host.submit(client, envelope(&[4]), &sink);
        // Per-object FIFO: had 2, 3 or 4 survived, they would be answered
        // before 5.
        host.restart(id, Box::new(Echo(0)));
        host.submit(client, envelope(&[5]), &sink);
        assert_eq!(
            next(&rx),
            (id, vec![5]),
            "queued and future envelopes were dropped"
        );
    }
}
