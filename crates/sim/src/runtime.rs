//! A real-thread deployment of the same protocol automata.
//!
//! The simulator in [`crate::engine`] is the reference substrate (it can
//! replay adversarial schedules deterministically), but the protocol code is
//! substrate-independent: this module runs the very same [`ObjectBehavior`]
//! and [`RoundClient`] implementations over OS threads and channels,
//! demonstrating that nothing in the protocols depends on simulation
//! artifacts. Examples use it to exercise realistic concurrency.
//!
//! Operations are driven by the same [`OpDriver`] the simulator uses, so a
//! [`ThreadClient`] can keep **many operations in flight** over its single
//! long-lived reply channel ([`ThreadClient::submit_op`] /
//! [`ThreadClient::pump`]) — the pipelining lever the sharded kv store
//! builds its batched API on — or drive one at a time with the blocking
//! [`ThreadClient::run_op`]. Outbound traffic is **coalesced**: every flush
//! sends one [`ReqEnvelope`] per cluster carrying all pending round
//! frames, so a batch of operations headed to the same cluster shares its
//! round trips (and, at the objects, the per-envelope service delay).
//!
//! Like the simulator, the thread runtime runs the paper's round model
//! ([`StalePolicy::DeliverLate`]): a reply to a terminated round of a live
//! operation still reaches its automaton, which may use it. Dropping such
//! replies starves a read beside a forger whenever the adversary delivers
//! one honest object a round late every round
//! (`a_late_honest_object_does_not_starve_a_get_beside_a_forger`).
//!
//! Faults available here are crash / restart of an object
//! ([`crate::host::ObjectHost`]), arbitrary behaviors (any
//! [`ObjectBehavior`] impl), and the scheduling adversary: a
//! [`ThreadCluster`] spawned with a [`Controller`] runs the simulator's
//! verdicts on every object copy, on the trace clock.
//!
//! The client side is substrate-agnostic: everything a [`ThreadClient`]
//! needs from a cluster is captured by the [`Transport`] trait (broadcast
//! a [`ReqEnvelope`]; deliver each object's [`RepEnvelope`] to the
//! client's channel). These four message types — [`ReqFrame`],
//! [`ReqEnvelope`], [`RepFrame`], [`RepEnvelope`] — are the only ones
//! either substrate carries. [`ThreadCluster`] is the in-process
//! transport — `send_frames` submits the envelope to an
//! [`crate::host::ObjectHost`], and the client's own thread runs every
//! object it finds idle, so their replies are on the client's channel
//! when the flush returns (a copy a controller delays is served by the
//! host's executors instead); `rastor_net` puts a TCP listener in front
//! of the same host, encodes these same values as its wire frames and
//! speaks the same trait from its client end, so the identical
//! client/driver code runs over a real network.

use crate::control::Controller;
use crate::driver::{Dispatch, OpDriver, StalePolicy};
use crate::engine::{ObjectBehavior, RoundClient};
use crate::host::{Accounting, ObjectHost, ReplySink};
use rastor_common::{ClientId, ObjectId, OpKind};
use rastor_obs::trace;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// One round of one operation inside a request envelope.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReqFrame<Q> {
    /// Nonce of the operation this frame belongs to (assigned at
    /// [`ThreadClient::submit_op`]).
    pub op_nonce: u64,
    /// The round the frame drives (1-based).
    pub round: u32,
    /// The trace id of the operation (`trace::NO_TRACE` when tracing is
    /// off) — carried on every hop so objects can tag their spans.
    pub trace: u64,
    /// The round's request.
    pub req: Q,
}

/// A coalesced request envelope: every frame one client had pending for
/// one cluster at flush time. Every live object receives the whole
/// envelope, shared, not one copy per object.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReqEnvelope<Q> {
    /// The submitting client.
    pub from: ClientId,
    /// The coalesced frames.
    pub frames: Vec<ReqFrame<Q>>,
}

/// One reply frame inside a reply envelope.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RepFrame<R> {
    /// Nonce of the operation the reply belongs to.
    pub op_nonce: u64,
    /// The round the reply answers.
    pub round: u32,
    /// The request frame's trace id, echoed back.
    pub trace: u64,
    /// The object's reply.
    pub rep: R,
}

/// A coalesced reply envelope from one object to one client. `to` lets a
/// channel or a connection shared by many clients route each reply to the
/// right one.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RepEnvelope<R> {
    /// The client the replies are for.
    pub to: ClientId,
    /// The replying object (cluster-global id).
    pub from: ObjectId,
    /// One frame per answered request frame.
    pub frames: Vec<RepFrame<R>>,
}

/// A cluster endpoint a [`ThreadClient`] can drive operations over: the
/// envelope send path extracted from [`ThreadCluster`] so substrates are
/// interchangeable.
///
/// Contract: `send_frames` broadcasts the envelope to every live object of
/// the cluster, and the cluster delivers each object's [`RepEnvelope`] to
/// `reply_to` (directly, for the channel substrate; via a demultiplexing
/// reader keyed on `to`, for socket substrates). Delivery is best-effort:
/// envelopes to crashed objects — or lost to a broken connection — are
/// silently dropped, and the op driver's per-operation deadline is the
/// recovery mechanism.
pub trait Transport<Q, R> {
    /// Broadcast `env`, routing replies to `reply_to`.
    fn send_frames(&self, env: ReqEnvelope<Q>, reply_to: &Sender<RepEnvelope<R>>);
}

/// Shared ownership of a transport is itself a transport (clusters are
/// commonly held behind `Arc` across client threads).
impl<Q, R, T: Transport<Q, R> + ?Sized> Transport<Q, R> for Arc<T> {
    fn send_frames(&self, env: ReqEnvelope<Q>, reply_to: &Sender<RepEnvelope<R>>) {
        (**self).send_frames(env, reply_to)
    }
}

/// A borrowed transport is a transport (so a client can pump over
/// clusters it does not own).
impl<Q, R, T: Transport<Q, R> + ?Sized> Transport<Q, R> for &T {
    fn send_frames(&self, env: ReqEnvelope<Q>, reply_to: &Sender<RepEnvelope<R>>) {
        (**self).send_frames(env, reply_to)
    }
}

/// Boxed transports delegate (so `Box<dyn Transport<…>>` slots into the
/// generic client APIs directly).
impl<Q, R, T: Transport<Q, R> + ?Sized> Transport<Q, R> for Box<T> {
    fn send_frames(&self, env: ReqEnvelope<Q>, reply_to: &Sender<RepEnvelope<R>>) {
        (**self).send_frames(env, reply_to)
    }
}

/// An in-process cluster of storage objects: an [`ObjectHost`] fed
/// through [`Transport`], whose reply envelopes go straight onto the
/// requesting client's channel.
pub struct ThreadCluster<Q, R>
where
    Q: Send + Sync + 'static,
    R: Send + 'static,
{
    host: ObjectHost<Q, R, Sender<RepEnvelope<R>>>,
}

impl<R: Send + 'static> ReplySink<R> for Sender<RepEnvelope<R>> {
    const ACCOUNTING: Accounting = Accounting {
        queue_span: None,
        apply_span: trace::span::OBJ_APPLY,
        finish: false,
        envelope_us: None,
    };

    fn deliver(&self, env: RepEnvelope<R>) {
        // The client may have finished; ignore send errors.
        let _ = self.send(env);
    }
}

impl<Q, R> ThreadCluster<Q, R>
where
    Q: Send + Sync + 'static,
    R: Send + 'static,
{
    /// Host one object per behavior (ids `0..`), every object copy
    /// scheduled by `controller` if there is one — a service jitter is a
    /// [`crate::control::ChaosCfg::jitter_only`] profile, applied **per
    /// envelope** (not per frame); see [`ObjectHost::spawn`].
    pub fn spawn(
        behaviors: Vec<Box<dyn ObjectBehavior<Q, R> + Send>>,
        controller: Option<Box<dyn Controller + Send>>,
    ) -> ThreadCluster<Q, R> {
        ThreadCluster {
            host: ObjectHost::spawn(behaviors, 0, controller),
        }
    }

    /// The host serving this cluster's objects — the fault-injection
    /// surface ([`ObjectHost::crash`], [`ObjectHost::restart`]).
    pub fn host(&self) -> &ObjectHost<Q, R, Sender<RepEnvelope<R>>> {
        &self.host
    }

    /// Number of objects (including crashed ones).
    pub fn num_objects(&self) -> usize {
        self.host.num_objects()
    }

    /// Whether object `id` is currently crashed.
    pub fn is_crashed(&self, id: ObjectId) -> bool {
        self.host.is_crashed(id)
    }

    /// Crash an object: see [`ObjectHost::crash`].
    pub fn crash_object(&self, id: ObjectId) {
        self.host.crash(id);
    }

    /// Restart an object with a fresh behavior: see
    /// [`ObjectHost::restart`].
    pub fn restart_object(&self, id: ObjectId, behavior: Box<dyn ObjectBehavior<Q, R> + Send>) {
        self.host.restart(id, behavior);
    }
}

impl<Q, R> Transport<Q, R> for ThreadCluster<Q, R>
where
    Q: Send + Sync + 'static,
    R: Send + 'static,
{
    /// Broadcast an envelope: every live object is handed the same
    /// shared envelope. The calling thread runs every object it finds
    /// idle, so those objects' replies are on `reply_to` when this
    /// returns; an object another thread is running gets the envelope
    /// queued behind it.
    fn send_frames(&self, env: ReqEnvelope<Q>, reply_to: &Sender<RepEnvelope<R>>) {
        self.host.submit(Arc::new(env), reply_to);
    }
}

/// One finished operation as reported by [`ThreadClient::pump`].
#[derive(Clone, Debug)]
pub struct OpResult<Out> {
    /// The nonce [`ThreadClient::submit_op`] returned for the operation.
    pub nonce: u64,
    /// The operation's trace id (`trace::NO_TRACE` when tracing is off) —
    /// harvest seams use it to record their own span and close the trace.
    pub trace: u64,
    /// `Some((output, rounds))` on completion; `None` if the deadline
    /// passed first (the cluster could not supply enough replies).
    pub output: Option<(Out, u32)>,
}

/// A client endpoint for one or more [`ThreadCluster`]s.
///
/// The client owns one long-lived reply channel and one [`OpDriver`]: all
/// of its in-flight operations — across every target cluster — multiplex
/// over that single channel, keyed by nonce. Submissions buffer their round
/// frames; [`ThreadClient::pump`] flushes them coalesced (one envelope per
/// object per flush) and blocks until at least one operation finishes.
/// Replies for completed operations are dropped by the driver; a reply
/// carrying a terminated round of a live operation reaches its automaton,
/// as in the simulator.
pub struct ThreadClient<Q, R, Out> {
    id: ClientId,
    driver: OpDriver<Q, R, Out>,
    /// nonce → index into the `targets` slice passed to [`ThreadClient::pump`].
    routes: HashMap<u64, usize>,
    /// Buffered `(target, frame)` pairs awaiting the next flush.
    outbox: Vec<(usize, ReqFrame<Q>)>,
    reply_tx: Sender<RepEnvelope<R>>,
    reply_rx: Receiver<RepEnvelope<R>>,
}

impl<Q, R, Out> ThreadClient<Q, R, Out>
where
    Q: Send + Sync + 'static,
    R: Send + 'static,
{
    /// Create a client endpoint.
    pub fn new(id: ClientId) -> ThreadClient<Q, R, Out> {
        let (reply_tx, reply_rx) = channel::<RepEnvelope<R>>();
        ThreadClient {
            id,
            driver: OpDriver::new(StalePolicy::DeliverLate),
            routes: HashMap::new(),
            outbox: Vec::new(),
            reply_tx,
            reply_rx,
        }
    }

    /// Microseconds on the process-wide trace clock ([`trace::epoch_us`])
    /// — one time base shared by operation deadlines and every span the
    /// stack records, so spans from different layers line up.
    fn now_us(&self) -> u64 {
        trace::epoch_us()
    }

    /// Number of live (submitted, unresolved) operations.
    pub fn in_flight(&self) -> usize {
        self.driver.in_flight()
    }

    /// Submit an operation against `targets[target]` without blocking.
    /// Returns the operation's nonce. The round-1 broadcast is buffered and
    /// goes out (coalesced with any other pending frames) on the next
    /// [`ThreadClient::pump`] or [`ThreadClient::try_pump`] — callers that
    /// may go idle after submitting should `try_pump` once to put the
    /// frames on the wire.
    pub fn submit_op(
        &mut self,
        target: usize,
        kind: OpKind,
        automaton: Box<dyn RoundClient<Q, R, Out = Out>>,
        timeout: Duration,
    ) -> u64 {
        let now = self.now_us();
        // Saturate huge timeouts (e.g. Duration::MAX as "never") instead of
        // wrapping into an immediate deadline.
        let deadline = now.saturating_add(u64::try_from(timeout.as_micros()).unwrap_or(u64::MAX));
        let b = self.driver.submit(kind, automaton, now, Some(deadline));
        self.routes.insert(b.nonce, target);
        self.outbox.push((
            target,
            ReqFrame {
                op_nonce: b.nonce,
                round: b.round,
                trace: b.trace,
                req: b.payload,
            },
        ));
        b.nonce
    }

    /// Flush buffered frames: for each target with pending frames, one
    /// coalesced envelope, broadcast to every live object.
    fn flush<T: Transport<Q, R>>(&mut self, targets: &[T]) {
        if self.outbox.is_empty() {
            return;
        }
        let mut by_target: Vec<Vec<ReqFrame<Q>>> = (0..targets.len()).map(|_| Vec::new()).collect();
        for (t, frame) in self.outbox.drain(..) {
            by_target[t].push(frame);
        }
        for (t, frames) in by_target.into_iter().enumerate() {
            if !frames.is_empty() {
                let env = ReqEnvelope {
                    from: self.id,
                    frames,
                };
                targets[t].send_frames(env, &self.reply_tx);
            }
        }
    }

    /// Dispatch one reply envelope through the driver, buffering next-round
    /// frames and collecting completions.
    fn dispatch(&mut self, env: RepEnvelope<R>, done: &mut Vec<OpResult<Out>>) {
        let now = self.now_us();
        for frame in env.frames {
            match self
                .driver
                .on_reply_at(frame.op_nonce, env.from, frame.round, &frame.rep, now)
            {
                Dispatch::Unknown | Dispatch::StaleRound | Dispatch::Wait => {}
                Dispatch::NextRound(b) => {
                    let target = self.routes[&b.nonce];
                    self.outbox.push((
                        target,
                        ReqFrame {
                            op_nonce: b.nonce,
                            round: b.round,
                            trace: b.trace,
                            req: b.payload,
                        },
                    ));
                }
                Dispatch::Complete(c) => {
                    self.routes.remove(&c.nonce);
                    done.push(OpResult {
                        nonce: c.nonce,
                        trace: c.trace,
                        output: Some((c.output, c.rounds.get())),
                    });
                }
            }
        }
    }

    /// Reap overdue operations into `done` (as `output: None`).
    fn reap_overdue(&mut self, done: &mut Vec<OpResult<Out>>) {
        for t in self.driver.expire(self.now_us()) {
            self.routes.remove(&t.nonce);
            done.push(OpResult {
                nonce: t.nonce,
                trace: t.trace,
                output: None,
            });
        }
    }

    /// Drive the in-flight operations as far as they can go **without
    /// blocking**: flush pending frames (putting freshly submitted
    /// operations on the wire), ingest every reply already queued, flush
    /// the next-round frames that produced, and reap overdue deadlines.
    /// Returns whatever resolved, possibly nothing.
    ///
    /// `targets` is indexed by the `target` passed at submission. Targets
    /// may be any [`Transport`] substrate — in-process [`ThreadCluster`]s
    /// and socket-backed clusters drive identically.
    pub fn try_pump<T: Transport<Q, R>>(&mut self, targets: &[T]) -> Vec<OpResult<Out>> {
        let mut done = Vec::new();
        self.flush(targets);
        // Drain whatever is already queued without blocking, so same-batch
        // next-round frames coalesce into one envelope.
        while let Ok(rep) = self.reply_rx.try_recv() {
            self.dispatch(rep, &mut done);
        }
        self.flush(targets);
        self.reap_overdue(&mut done);
        done
    }

    /// Drive the in-flight operations: flush pending frames, ingest
    /// replies, and block until **at least one** operation resolves
    /// (completes or times out). Returns every operation that resolved;
    /// returns an empty vector only when nothing is in flight.
    ///
    /// `targets` is indexed as in [`ThreadClient::try_pump`].
    pub fn pump<T: Transport<Q, R>>(&mut self, targets: &[T]) -> Vec<OpResult<Out>> {
        let mut done = Vec::new();
        loop {
            done.extend(self.try_pump(targets));
            if !done.is_empty() || self.driver.in_flight() == 0 {
                return done;
            }
            // Nothing resolved yet: block until the next reply or the
            // earliest deadline.
            let now = self.now_us();
            let wait = self
                .driver
                .next_deadline()
                .map_or(Duration::from_secs(60), |d| {
                    Duration::from_micros(d.saturating_sub(now))
                });
            match self.reply_rx.recv_timeout(wait) {
                Ok(rep) => self.dispatch(rep, &mut done),
                Err(RecvTimeoutError::Timeout) => {}
                // Unreachable in practice (the client holds a sender clone),
                // but don't spin if it ever happens.
                Err(RecvTimeoutError::Disconnected) => std::thread::sleep(wait),
            }
        }
    }

    /// Drive one operation to completion over the cluster, blocking the
    /// calling thread — the closed-loop convenience built on the same
    /// driver as the pipelined path. Returns `None` if the cluster cannot
    /// supply enough replies (too many crashed objects) within `timeout` —
    /// a single deadline for the whole operation, not per reply.
    ///
    /// The driver-side kind metadata is fixed at [`OpKind::Read`] here —
    /// it is a statistics label this path never surfaces; use
    /// [`ThreadClient::submit_op`] when the kind matters.
    ///
    /// # Panics
    ///
    /// Panics if pipelined operations are still in flight on this client
    /// (drive them to quiescence with [`ThreadClient::pump`] first).
    pub fn run_op<T: Transport<Q, R> + ?Sized>(
        &mut self,
        cluster: &T,
        automaton: Box<dyn RoundClient<Q, R, Out = Out>>,
        timeout: Duration,
    ) -> Option<(Out, u32)> {
        assert!(
            self.driver.in_flight() == 0,
            "run_op on a client with pipelined operations in flight"
        );
        let nonce = self.submit_op(0, OpKind::Read, automaton, timeout);
        let targets = [cluster];
        loop {
            for r in self.pump(&targets) {
                if r.nonce == nonce {
                    return r.output;
                }
            }
            if !self.driver.is_live(nonce) {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl ObjectBehavior<u32, u32> for Echo {
        fn on_request(&mut self, _from: ClientId, req: &u32) -> Option<u32> {
            Some(req + 10)
        }
    }

    /// Echoes after sleeping — a straggling (but honest) object whose
    /// replies routinely arrive rounds late.
    struct DelayedEcho(Duration);
    impl ObjectBehavior<u32, u32> for DelayedEcho {
        fn on_request(&mut self, _from: ClientId, req: &u32) -> Option<u32> {
            std::thread::sleep(self.0);
            Some(req + 10)
        }
    }

    struct Collect {
        need: usize,
        got: usize,
    }
    impl RoundClient<u32, u32> for Collect {
        type Out = u32;
        fn start(&mut self) -> u32 {
            1
        }
        fn on_reply(
            &mut self,
            _from: ObjectId,
            _round: u32,
            reply: &u32,
        ) -> ClientAction<u32, u32> {
            self.got += 1;
            if self.got >= self.need {
                ClientAction::Complete(*reply)
            } else {
                ClientAction::Wait
            }
        }
    }

    // The round-checking automaton, shared with the driver's unit tests:
    // it counts replies from terminated rounds and panics on future ones.
    use crate::driver::StrictRounds;
    use crate::engine::ClientAction;

    /// A service-jitter controller.
    fn jittered(jitter: Duration) -> Option<Box<dyn Controller + Send>> {
        Some(Box::new(crate::control::ChaosCfg::jitter_only(jitter)))
    }

    fn cluster(n: usize) -> ThreadCluster<u32, u32> {
        let behaviors: Vec<Box<dyn ObjectBehavior<u32, u32> + Send>> =
            (0..n).map(|_| Box::new(Echo) as _).collect();
        ThreadCluster::spawn(behaviors, None)
    }

    #[test]
    fn threaded_op_completes() {
        let cl = cluster(4);
        let mut client = ThreadClient::new(ClientId::reader(0));
        let (out, rounds) = client
            .run_op(
                &cl,
                Box::new(Collect { need: 3, got: 0 }),
                Duration::from_secs(5),
            )
            .expect("completes");
        assert_eq!(out, 11);
        assert_eq!(rounds, 1);
    }

    #[test]
    fn times_out_without_quorum() {
        let cl = cluster(3);
        cl.crash_object(ObjectId(1));
        cl.crash_object(ObjectId(2));
        let mut client = ThreadClient::new(ClientId::reader(0));
        let res = client.run_op(
            &cl,
            Box::new(Collect { need: 3, got: 0 }),
            Duration::from_millis(50),
        );
        assert!(res.is_none());
    }

    #[test]
    fn reused_reply_channel_discards_stragglers() {
        // Each op completes at 2 of 4 replies, leaving 2 stragglers queued
        // on the client's long-lived channel; the next op must skip them.
        let cl = cluster(4);
        let mut client = ThreadClient::new(ClientId::reader(0));
        for _ in 0..10 {
            let (out, rounds) = client
                .run_op(
                    &cl,
                    Box::new(Collect { need: 2, got: 0 }),
                    Duration::from_secs(5),
                )
                .expect("completes");
            assert_eq!(out, 11);
            assert_eq!(rounds, 1);
        }
    }

    #[test]
    fn delayed_object_replies_reach_the_automaton_as_late_rounds() {
        // One object lags every reply by 500 µs while three fast objects
        // race the automaton through 40 rounds at quorum 2. Replies arrive
        // rounds late for a still-live operation and reach the automaton
        // tagged with their own round, as in the simulator; `StrictRounds`
        // counts them, and panics if a reply ever carries a round it has
        // not opened.
        let behaviors: Vec<Box<dyn ObjectBehavior<u32, u32> + Send>> = vec![
            Box::new(Echo),
            Box::new(Echo),
            Box::new(Echo),
            Box::new(DelayedEcho(Duration::from_micros(500))),
        ];
        let cl = ThreadCluster::spawn(behaviors, None);
        let mut client = ThreadClient::new(ClientId::reader(0));
        let strict = StrictRounds::new(2, 40);
        let late = strict.late();
        let (out, rounds) = client
            .run_op(&cl, Box::new(strict), Duration::from_secs(10))
            .expect("completes despite the laggard");
        assert_eq!(out, 50); // round-40 payload (40) + 10
        assert_eq!(rounds, 40);
        assert!(late() > 0, "no late reply reached the automaton");
        // And the next operation still works over the same channel, with
        // the laggard's backlog draining into it as unknown nonces.
        let res = client.run_op(
            &cl,
            Box::new(Collect { need: 3, got: 0 }),
            Duration::from_secs(10),
        );
        assert!(res.is_some());
    }

    /// The same race with the objects off the client's thread: under
    /// service jitter the host's executors serve, the laggard holds one of
    /// them 2 ms per envelope while the other serves the fast objects, so
    /// its replies reach the client's pump, and the automaton, many rounds
    /// late.
    #[test]
    fn replies_rounds_late_from_a_jittered_laggard_reach_the_automaton_late() {
        let behaviors: Vec<Box<dyn ObjectBehavior<u32, u32> + Send>> = vec![
            Box::new(Echo),
            Box::new(Echo),
            Box::new(Echo),
            Box::new(DelayedEcho(Duration::from_millis(2))),
        ];
        let cl = ThreadCluster::spawn(behaviors, jittered(Duration::from_micros(1)));
        let mut client = ThreadClient::new(ClientId::reader(0));
        let strict = StrictRounds::new(2, 40);
        let late = strict.late();
        let (out, rounds) = client
            .run_op(&cl, Box::new(strict), Duration::from_secs(10))
            .expect("completes despite the laggard");
        assert_eq!((out, rounds), (50, 40));
        assert!(late() > 0, "no late reply reached the automaton");
        let started = cl.host().statuses()[3].served;
        assert!(started < 38, "the laggard kept up: {started} of 40 rounds");
        // The backlog drains into the next operation as unknown nonces.
        let res = client.run_op(
            &cl,
            Box::new(Collect { need: 3, got: 0 }),
            Duration::from_secs(10),
        );
        assert!(res.is_some());
    }

    /// Notes the thread that applies each request, then echoes.
    struct WhoRuns(Sender<std::thread::ThreadId>);
    impl ObjectBehavior<u32, u32> for WhoRuns {
        fn on_request(&mut self, _from: ClientId, req: &u32) -> Option<u32> {
            let _ = self.0.send(std::thread::current().id());
            Some(req + 10)
        }
    }

    /// The threads that applied one 3-round op's requests over a 4-object
    /// cluster, and the client thread that drove it.
    fn appliers(jitter: Option<Duration>) -> (Vec<std::thread::ThreadId>, std::thread::ThreadId) {
        let (tx, rx) = channel();
        let behaviors: Vec<Box<dyn ObjectBehavior<u32, u32> + Send>> =
            (0..4).map(|_| Box::new(WhoRuns(tx.clone())) as _).collect();
        let cl = ThreadCluster::spawn(behaviors, jitter.and_then(jittered));
        let mut client = ThreadClient::new(ClientId::reader(0));
        let (_, rounds) = client
            .run_op(
                &cl,
                Box::new(StrictRounds::new(4, 3)),
                Duration::from_secs(10),
            )
            .expect("completes");
        assert_eq!(rounds, 3);
        drop(cl);
        drop(tx);
        (rx.iter().collect(), std::thread::current().id())
    }

    /// Without jitter the client's own thread runs every object it
    /// submits to: one round in memory costs no thread hop.
    #[test]
    fn without_jitter_every_apply_runs_on_the_client_thread() {
        let (ran_on, client) = appliers(None);
        assert_eq!(ran_on.len(), 12, "3 rounds × 4 objects");
        assert!(
            ran_on.iter().all(|&t| t == client),
            "an apply left the client's thread"
        );
    }

    /// Under jitter the executors release the timers and serve the
    /// objects: the client thread runs none of them.
    #[test]
    fn with_jitter_no_apply_runs_on_the_client_thread() {
        let (ran_on, client) = appliers(Some(Duration::from_micros(50)));
        assert_eq!(ran_on.len(), 12, "3 rounds × 4 objects");
        assert!(
            ran_on.iter().all(|&t| t != client),
            "the client ran an object"
        );
    }

    #[test]
    fn pipelined_ops_multiplex_one_channel() {
        let cl = cluster(4);
        let targets = [&cl];
        let mut client: ThreadClient<u32, u32, u32> = ThreadClient::new(ClientId::reader(0));
        let mut live: Vec<u64> = (0..8)
            .map(|_| {
                client.submit_op(
                    0,
                    OpKind::Read,
                    Box::new(StrictRounds::new(3, 3)),
                    Duration::from_secs(5),
                )
            })
            .collect();
        assert_eq!(client.in_flight(), 8);
        while !live.is_empty() {
            for r in client.pump(&targets) {
                let (out, rounds) = r.output.expect("no timeouts expected");
                assert_eq!(out, 13); // round-3 payload (3) + 10
                assert_eq!(rounds, 3);
                let idx = live.iter().position(|&n| n == r.nonce).expect("live nonce");
                live.remove(idx);
            }
        }
        assert_eq!(client.in_flight(), 0);
    }

    #[test]
    fn pipelined_timeouts_are_reported_per_op() {
        let cl = cluster(3);
        cl.crash_object(ObjectId(1));
        cl.crash_object(ObjectId(2));
        let targets = [&cl];
        let mut client: ThreadClient<u32, u32, u32> = ThreadClient::new(ClientId::reader(0));
        // One op that can complete on the lone survivor, one that cannot.
        let ok = client.submit_op(
            0,
            OpKind::Read,
            Box::new(Collect { need: 1, got: 0 }),
            Duration::from_secs(5),
        );
        let stuck = client.submit_op(
            0,
            OpKind::Read,
            Box::new(Collect { need: 3, got: 0 }),
            Duration::from_millis(80),
        );
        let mut seen = HashMap::new();
        while client.in_flight() > 0 {
            for r in client.pump(&targets) {
                seen.insert(r.nonce, r.output.is_some());
            }
        }
        assert_eq!(seen.get(&ok), Some(&true));
        assert_eq!(seen.get(&stuck), Some(&false));
    }

    /// An op reaches the target it was submitted for and no other, and a
    /// quorum-less target times its ops out without holding back a healthy
    /// target's.
    #[test]
    fn ops_route_to_their_own_target_and_time_out_per_target() {
        struct Plus20;
        impl ObjectBehavior<u32, u32> for Plus20 {
            fn on_request(&mut self, _from: ClientId, req: &u32) -> Option<u32> {
                Some(req + 20)
            }
        }
        let plus10 = cluster(4);
        let plus20 = ThreadCluster::spawn((0..4).map(|_| Box::new(Plus20) as _).collect(), None);
        let dead = cluster(3);
        dead.crash_object(ObjectId(1));
        dead.crash_object(ObjectId(2));
        let targets = [&plus10, &plus20, &dead];
        let mut client: ThreadClient<u32, u32, u32> = ThreadClient::new(ClientId::reader(0));
        let mut want = HashMap::new();
        for i in 0..9 {
            let target = i % 3;
            let timeout = if target == 2 {
                Duration::from_millis(80)
            } else {
                Duration::from_secs(5)
            };
            let nonce = client.submit_op(
                target,
                OpKind::Read,
                Box::new(Collect { need: 3, got: 0 }),
                timeout,
            );
            want.insert(nonce, [Some((11, 1)), Some((21, 1)), None][target]);
        }
        while client.in_flight() > 0 {
            for r in client.pump(&targets) {
                assert_eq!(Some(r.output), want.remove(&r.nonce), "op {}", r.nonce);
            }
        }
        assert!(want.is_empty(), "every op resolved exactly once");
    }
}
