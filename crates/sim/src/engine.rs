//! The discrete-event simulation engine.
//!
//! Processes never share memory: the engine owns every client and object and
//! delivers messages between them according to a [`Controller`]'s verdicts
//! (see [`Verdict`] for what each one does).
//! Execution is fully deterministic: events are ordered by
//! `(time, sequence-number)` and all randomness lives in seeded controllers.

use crate::control::{Controller, FixedDelay, Msg, Verdict};
use crate::driver::{Dispatch, OpDriver, StalePolicy};
use crate::trace::Trace;
use rastor_common::{ClientId, ObjectId, OpKind, OpStat};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::fmt;

/// Unique identifier of a message instance in a run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MsgId(pub u64);

/// Direction of a message.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MsgDir {
    /// Client → object request.
    Request,
    /// Object → client reply.
    Reply,
}

/// A message in flight. A [`Controller`] sees its coordinates as a
/// [`Msg`] carrying one frame.
#[derive(Clone, Debug)]
pub struct Envelope<P> {
    /// Unique message id.
    pub id: MsgId,
    /// Direction (request or reply).
    pub dir: MsgDir,
    /// The client endpoint (sender of a request / recipient of a reply).
    pub client: ClientId,
    /// The object endpoint.
    pub object: ObjectId,
    /// Per-client operation sequence number (0-based).
    pub op_seq: u64,
    /// Round number within the operation (1-based).
    pub round: u32,
    /// Protocol payload.
    pub payload: P,
}

/// What a [`RoundClient`] does after processing a reply.
#[derive(Debug)]
pub enum ClientAction<Q, Out> {
    /// Keep waiting for more replies in the current (or late prior) rounds.
    Wait,
    /// Terminate the current round and broadcast the next one.
    NextRound(Q),
    /// The operation completes with the given output.
    Complete(Out),
}

/// A client-side operation automaton, structured in communication rounds
/// (paper, Definition 1).
///
/// The engine calls [`RoundClient::start`] once to obtain the round-1
/// broadcast, then feeds every reply (tagged with the round it answers) to
/// [`RoundClient::on_reply`]. Late replies from earlier rounds are delivered
/// too — the paper's round model explicitly lets a client use them.
pub trait RoundClient<Q, R> {
    /// The operation's result type.
    type Out;

    /// Produce the round-1 request broadcast to all objects.
    fn start(&mut self) -> Q;

    /// Process one reply; decide whether to wait, start the next round, or
    /// complete.
    fn on_reply(&mut self, from: ObjectId, round: u32, reply: &R) -> ClientAction<Q, Self::Out>;
}

/// A storage-object automaton.
///
/// Correct objects are deterministic and reply to every request before
/// processing any other message (the engine guarantees atomic handling).
/// A *Byzantine* object is any other implementation: it may lie, equivocate
/// per client, or return `None` to stay silent. Crash faults are the special
/// case of eventually returning `None` forever.
pub trait ObjectBehavior<Q, R> {
    /// Handle one request, optionally producing a reply.
    fn on_request(&mut self, from: ClientId, req: &Q) -> Option<R>;
}

/// A completed operation, as reported by [`Sim::run_to_quiescence`] et al.
#[derive(Clone, Debug)]
pub struct Completion<Out> {
    /// The client whose operation completed.
    pub client: ClientId,
    /// Per-client operation sequence number.
    pub op_seq: u64,
    /// The operation's output.
    pub output: Out,
    /// Rounds/latency statistics.
    pub stat: OpStat,
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Hard cap on processed events, guarding against non-terminating
    /// protocols (a wait-freedom violation surfaces as hitting this cap).
    pub max_events: u64,
    /// Whether to record per-client observation transcripts (needed by the
    /// indistinguishability checks; costs memory on long soak runs).
    pub record_observations: bool,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            max_events: 10_000_000,
            record_observations: true,
        }
    }
}

enum Event<Q, R> {
    DeliverRequest(Envelope<Q>),
    DeliverReply(Envelope<R>),
    Invoke(ClientId),
    CrashClient(ClientId),
}

/// A directed link: `(client, object, direction)`.
type Link = (ClientId, ObjectId, MsgDir);

/// An operation queued behind a client's pending one: invocation time, kind,
/// and the protocol automaton to run.
type QueuedOp<Q, R, Out> = (u64, OpKind, Box<dyn RoundClient<Q, R, Out = Out>>);

/// Per-client state: the shared [`OpDriver`] does the round bookkeeping
/// (one implementation for the simulator and the thread runtime); the slot
/// adds the paper's FIFO invocation queue. The driver runs
/// [`StalePolicy::DeliverLate`] — the paper's round model explicitly lets
/// a client use replies from terminated rounds, and the lower-bound
/// replays rely on it (the thread runtime runs it too).
struct ClientSlot<Q, R, Out> {
    driver: OpDriver<Q, R, Out>,
    queue: Vec<QueuedOp<Q, R, Out>>,
    crashed: bool,
}

impl<Q, R, Out> Default for ClientSlot<Q, R, Out> {
    fn default() -> Self {
        ClientSlot {
            driver: OpDriver::new(StalePolicy::DeliverLate),
            queue: Vec::new(),
            crashed: false,
        }
    }
}

/// The simulator: owns objects, clients, the event queue and the trace.
pub struct Sim<Q, R, Out> {
    cfg: SimConfig,
    time: u64,
    seq: u64,
    next_msg: u64,
    events: BinaryHeap<Reverse<(u64, u64, u64)>>, // (time, seq, key into store)
    store: HashMap<u64, Event<Q, R>>,
    objects: Vec<Box<dyn ObjectBehavior<Q, R>>>,
    clients: HashMap<ClientId, ClientSlot<Q, R, Out>>,
    controller: Box<dyn Controller>,
    held: HashMap<MsgId, Event<Q, R>>,
    /// Per directed link, the message a [`Verdict::Behind`] holds back
    /// until the link's next delivery.
    behind: HashMap<Link, Event<Q, R>>,
    fifo_floor: HashMap<Link, u64>,
    trace: Trace,
    processed: u64,
}

impl<Q, R, Out> Sim<Q, R, Out>
where
    Q: Clone + fmt::Debug,
    R: Clone + fmt::Debug,
    Out: fmt::Debug,
{
    /// Create an empty simulator with a unit-delay [`FixedDelay`] controller.
    pub fn new(cfg: SimConfig) -> Sim<Q, R, Out> {
        Sim::with_controller(cfg, Box::new(FixedDelay::new(1)))
    }

    /// Create a simulator driven by the given controller.
    pub fn with_controller(cfg: SimConfig, controller: Box<dyn Controller>) -> Sim<Q, R, Out> {
        Sim {
            cfg,
            time: 0,
            seq: 0,
            next_msg: 0,
            events: BinaryHeap::new(),
            store: HashMap::new(),
            objects: Vec::new(),
            clients: HashMap::new(),
            controller,
            held: HashMap::new(),
            behind: HashMap::new(),
            fifo_floor: HashMap::new(),
            trace: Trace::default(),
            processed: 0,
        }
    }

    /// Register a storage object; returns its id. Objects are added in
    /// index order `s0, s1, …`.
    pub fn add_object(&mut self, behavior: Box<dyn ObjectBehavior<Q, R>>) -> ObjectId {
        let id = ObjectId(self.objects.len() as u32);
        self.objects.push(behavior);
        id
    }

    /// Replace an object's behavior mid-run (used by fault-injection tests
    /// to turn a correct object Byzantine at a chosen instant).
    pub fn replace_object(&mut self, id: ObjectId, behavior: Box<dyn ObjectBehavior<Q, R>>) {
        self.objects[id.index()] = behavior;
    }

    /// Number of registered objects.
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.time
    }

    /// Access the recorded trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consume the simulator, returning the trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// Schedule an operation invocation at an absolute time. Operations by
    /// the same client queue FIFO: a client "does not invoke the next
    /// operation until it receives the response for the current operation"
    /// (paper, Section 2.2) — queued invocations start only after the
    /// previous one completes (and at or after their scheduled time).
    pub fn invoke_at(
        &mut self,
        at: u64,
        client: ClientId,
        kind: OpKind,
        automaton: Box<dyn RoundClient<Q, R, Out = Out>>,
    ) {
        let slot = self.clients.entry(client).or_default();
        slot.queue.push((at, kind, automaton));
        // Keep the queue sorted by requested time (stable for equal times).
        slot.queue.sort_by_key(|(t, _, _)| *t);
        self.push_event(at, Event::Invoke(client));
    }

    /// Schedule a client crash at an absolute time: the client stops taking
    /// steps; its pending operation never completes.
    pub fn crash_client_at(&mut self, at: u64, client: ClientId) {
        self.push_event(at, Event::CrashClient(client));
    }

    /// Release a held message for delivery at the given absolute time
    /// (must be ≥ the current time). Used by scripted adversaries.
    pub fn release_held(&mut self, id: MsgId, at: u64) {
        if let Some(ev) = self.held.remove(&id) {
            self.push_event(at.max(self.time), ev);
        }
    }

    /// Ids of messages currently held "in transit".
    pub fn held_messages(&self) -> Vec<MsgId> {
        let mut v: Vec<MsgId> = self.held.keys().copied().collect();
        v.sort();
        v
    }

    fn push_event(&mut self, at: u64, ev: Event<Q, R>) {
        let key = self.seq;
        self.seq += 1;
        self.store.insert(key, ev);
        self.events.push(Reverse((at, key, key)));
    }

    fn fresh_msg_id(&mut self) -> MsgId {
        let id = MsgId(self.next_msg);
        self.next_msg += 1;
        id
    }

    /// FIFO channels: clamp a delivery time to be no earlier than the last
    /// delivery already scheduled on the same directed link.
    fn fifo_clamp(&mut self, link: Link, at: u64) -> u64 {
        let floor = self.fifo_floor.entry(link).or_insert(0);
        let when = at.max(*floor);
        *floor = when;
        when
    }

    /// Schedule one message by the controller's verdict. A delivered
    /// message releases the one its link holds back right after it.
    fn route(&mut self, ev: Event<Q, R>) {
        let (id, link, frame) = match &ev {
            Event::DeliverRequest(e) => (e.id, (e.client, e.object, e.dir), (e.op_seq, e.round)),
            Event::DeliverReply(e) => (e.id, (e.client, e.object, e.dir), (e.op_seq, e.round)),
            Event::Invoke(_) | Event::CrashClient(_) => unreachable!("only messages are routed"),
        };
        let (client, object, dir) = link;
        let msg = Msg {
            dir,
            client,
            object,
            frames: &[frame],
        };
        let at = match self.controller.verdict(&msg, self.time) {
            Verdict::DeliverAt(at) => at,
            Verdict::Hold => {
                self.held.insert(id, ev);
                return;
            }
            Verdict::Drop => return,
            Verdict::Behind => match self.behind.entry(link) {
                Entry::Vacant(slot) => {
                    slot.insert(ev);
                    return;
                }
                Entry::Occupied(_) => self.time,
            },
        };
        let at = self.fifo_clamp(link, at.max(self.time));
        self.push_event(at, ev);
        if let Some(held_back) = self.behind.remove(&link) {
            self.push_event(at, held_back);
        }
    }

    fn broadcast(&mut self, client: ClientId, op_seq: u64, round: u32, payload: Q) {
        self.trace.note_round(client, op_seq, round, self.time);
        for idx in 0..self.objects.len() {
            let env = Envelope {
                id: self.fresh_msg_id(),
                dir: MsgDir::Request,
                client,
                object: ObjectId(idx as u32),
                op_seq,
                round,
                payload: payload.clone(),
            };
            self.route(Event::DeliverRequest(env));
        }
    }

    fn maybe_start_queued(&mut self, client: ClientId) {
        let now = self.time;
        let Some(slot) = self.clients.get_mut(&client) else {
            return;
        };
        if slot.crashed || slot.driver.in_flight() > 0 || slot.queue.is_empty() {
            return;
        }
        if slot.queue[0].0 > now {
            return; // its Invoke event will fire later
        }
        let (_, kind, automaton) = slot.queue.remove(0);
        // The driver assigns nonces 0, 1, 2, … per client — exactly the
        // per-client operation sequence numbers the envelopes carry.
        let first = slot.driver.submit(kind, automaton, now, None);
        self.trace.note_invoke(client, first.nonce, kind, now);
        self.broadcast(client, first.nonce, 1, first.payload);
    }

    fn handle_event(&mut self, ev: Event<Q, R>) -> Option<Completion<Out>> {
        match ev {
            Event::Invoke(client) => {
                self.maybe_start_queued(client);
                None
            }
            Event::CrashClient(client) => {
                let slot = self.clients.entry(client).or_default();
                slot.crashed = true;
                slot.driver.abort_all();
                slot.queue.clear();
                self.trace.note_crash(client, self.time);
                None
            }
            Event::DeliverRequest(env) => {
                let obj = &mut self.objects[env.object.index()];
                let reply = obj.on_request(env.client, &env.payload);
                if let Some(payload) = reply {
                    let renv = Envelope {
                        id: self.fresh_msg_id(),
                        dir: MsgDir::Reply,
                        client: env.client,
                        object: env.object,
                        op_seq: env.op_seq,
                        round: env.round,
                        payload,
                    };
                    self.route(Event::DeliverReply(renv));
                }
                None
            }
            Event::DeliverReply(env) => self.deliver_reply(env),
        }
    }

    fn deliver_reply(&mut self, env: Envelope<R>) -> Option<Completion<Out>> {
        let now = self.time;
        let record = self.cfg.record_observations;
        let slot = self.clients.get_mut(&env.client)?;
        if slot.crashed {
            return None;
        }
        if !slot.driver.is_live(env.op_seq) {
            return None; // straggler from a completed (or never-run) op
        }
        if record {
            self.trace.note_observation(
                env.client,
                env.op_seq,
                env.round,
                env.object,
                format!("{:?}", env.payload),
                now,
            );
        }
        let dispatch =
            slot.driver
                .on_reply_at(env.op_seq, env.object, env.round, &env.payload, now);
        match dispatch {
            Dispatch::Unknown | Dispatch::StaleRound | Dispatch::Wait => None,
            Dispatch::NextRound(b) => {
                self.broadcast(env.client, b.nonce, b.round, b.payload);
                None
            }
            Dispatch::Complete(c) => {
                let stat = OpStat {
                    kind: c.kind,
                    rounds: c.rounds,
                    invoked_at: c.invoked_at,
                    completed_at: now,
                };
                self.trace
                    .note_complete(env.client, c.nonce, format!("{:?}", c.output), stat);
                let completion = Completion {
                    client: env.client,
                    op_seq: c.nonce,
                    output: c.output,
                    stat,
                };
                // A queued next operation may start immediately.
                self.maybe_start_queued(env.client);
                Some(completion)
            }
        }
    }

    /// Process events until the next operation completion; returns it, or
    /// `None` when the event queue drains (or the event cap is hit) first.
    pub fn run_until_completion(&mut self) -> Option<Completion<Out>> {
        while let Some(Reverse((at, _, key))) = self.events.pop() {
            self.processed += 1;
            if self.processed > self.cfg.max_events {
                return None;
            }
            self.time = self.time.max(at);
            let ev = self.store.remove(&key).expect("event stored");
            if let Some(done) = self.handle_event(ev) {
                return Some(done);
            }
        }
        None
    }

    /// Run until no events remain, collecting every completion.
    pub fn run_to_quiescence(&mut self) -> Vec<Completion<Out>> {
        let mut out = Vec::new();
        while let Some(c) = self.run_until_completion() {
            out.push(c);
        }
        out
    }

    /// Whether the event cap was hit (indicating a stuck / non-wait-free run).
    pub fn hit_event_cap(&self) -> bool {
        self.processed > self.cfg.max_events
    }

    /// Override the staleness policy of one client's op driver (defaults
    /// to [`StalePolicy::DeliverLate`]). Call before the client's first
    /// operation is invoked; the explorer's parity test uses it to run
    /// [`StalePolicy::DropLate`] beside the paper's policy.
    pub fn set_stale_policy(&mut self, client: ClientId, policy: StalePolicy) {
        self.clients
            .entry(client)
            .or_default()
            .driver
            .set_policy(policy);
    }

    /// Drive the run from an external [`Scheduler`].
    ///
    /// The engine first drains every deliverable event, then repeatedly
    /// presents the sorted list of held message ids to the scheduler; the
    /// chosen message is released one tick in the future and the engine
    /// drains again. The loop ends when the scheduler declines to pick or
    /// no messages remain held. Combined with a [`crate::ScriptedController`]
    /// whose rules *hold* traffic, this turns message-delivery order into a
    /// sequence of explicit choices — the seam the schedule explorer in
    /// `rastor_check` enumerates and perturbs.
    pub fn run_scheduled(&mut self, sched: &mut dyn Scheduler) -> Vec<Completion<Out>> {
        let mut out = self.run_to_quiescence();
        loop {
            let held = self.held_messages();
            if held.is_empty() {
                break;
            }
            let Some(i) = sched.pick(&held) else { break };
            let id = held[i.min(held.len() - 1)];
            let at = self.time + 1;
            self.release_held(id, at);
            out.extend(self.run_to_quiescence());
        }
        out
    }
}

/// A pluggable message-delivery order for [`Sim::run_scheduled`].
///
/// Each call sees the currently held messages (sorted by id, so indices
/// are stable for a given state) and returns the index to deliver next,
/// or `None` to stop and leave the rest undelivered. Implementations in
/// `rastor_check` include exhaustive enumerators (trying every index at
/// every depth) and seeded-random pickers whose choice sequence can be
/// replayed and perturbed.
pub trait Scheduler {
    /// Pick the index (into `held`) of the next message to deliver.
    fn pick(&mut self, held: &[MsgId]) -> Option<usize>;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl ObjectBehavior<u32, u32> for Echo {
        fn on_request(&mut self, _from: ClientId, req: &u32) -> Option<u32> {
            Some(*req + 1)
        }
    }

    struct Silent;
    impl ObjectBehavior<u32, u32> for Silent {
        fn on_request(&mut self, _from: ClientId, _req: &u32) -> Option<u32> {
            None
        }
    }

    struct NRound {
        need: usize,
        got: usize,
        rounds_left: u32,
    }
    impl RoundClient<u32, u32> for NRound {
        type Out = u32;
        fn start(&mut self) -> u32 {
            0
        }
        fn on_reply(
            &mut self,
            _from: ObjectId,
            _round: u32,
            reply: &u32,
        ) -> ClientAction<u32, u32> {
            self.got += 1;
            if self.got < self.need {
                return ClientAction::Wait;
            }
            self.got = 0;
            if self.rounds_left > 1 {
                self.rounds_left -= 1;
                ClientAction::NextRound(*reply)
            } else {
                ClientAction::Complete(*reply)
            }
        }
    }

    fn sim_with(objs: Vec<Box<dyn ObjectBehavior<u32, u32>>>) -> Sim<u32, u32, u32> {
        let mut sim = Sim::new(SimConfig::default());
        for o in objs {
            sim.add_object(o);
        }
        sim
    }

    #[test]
    fn single_round_completes_with_quorum() {
        let mut sim = sim_with(vec![Box::new(Echo), Box::new(Echo), Box::new(Echo)]);
        sim.invoke_at(
            0,
            ClientId::reader(0),
            OpKind::Read,
            Box::new(NRound {
                need: 2,
                got: 0,
                rounds_left: 1,
            }),
        );
        let done = sim.run_to_quiescence();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].stat.rounds.get(), 1);
    }

    #[test]
    fn multi_round_counts_rounds() {
        let mut sim = sim_with(vec![Box::new(Echo), Box::new(Echo), Box::new(Echo)]);
        sim.invoke_at(
            0,
            ClientId::writer(),
            OpKind::Write,
            Box::new(NRound {
                need: 3,
                got: 0,
                rounds_left: 3,
            }),
        );
        let done = sim.run_to_quiescence();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].stat.rounds.get(), 3);
    }

    #[test]
    fn tolerates_silent_minority() {
        let mut sim = sim_with(vec![Box::new(Echo), Box::new(Echo), Box::new(Silent)]);
        sim.invoke_at(
            0,
            ClientId::reader(1),
            OpKind::Read,
            Box::new(NRound {
                need: 2,
                got: 0,
                rounds_left: 2,
            }),
        );
        let done = sim.run_to_quiescence();
        assert_eq!(done.len(), 1, "quorum of 2 out of 3 must suffice");
    }

    #[test]
    fn blocks_forever_without_quorum_but_terminates_sim() {
        let mut sim = sim_with(vec![Box::new(Echo), Box::new(Silent), Box::new(Silent)]);
        sim.invoke_at(
            0,
            ClientId::reader(0),
            OpKind::Read,
            Box::new(NRound {
                need: 2,
                got: 0,
                rounds_left: 1,
            }),
        );
        let done = sim.run_to_quiescence();
        assert!(done.is_empty(), "operation must not complete");
        assert!(!sim.hit_event_cap(), "queue drains; no livelock");
    }

    #[test]
    fn crashed_client_never_completes() {
        let mut sim = sim_with(vec![Box::new(Echo), Box::new(Echo), Box::new(Echo)]);
        sim.invoke_at(
            5,
            ClientId::reader(0),
            OpKind::Read,
            Box::new(NRound {
                need: 3,
                got: 0,
                rounds_left: 2,
            }),
        );
        sim.crash_client_at(5, ClientId::reader(0));
        // Crash event shares the timestamp; it is scheduled after the invoke
        // (seq order), so the op starts then dies mid-flight.
        let done = sim.run_to_quiescence();
        assert!(done.is_empty());
    }

    #[test]
    fn sequential_ops_queue_fifo() {
        let mut sim = sim_with(vec![Box::new(Echo), Box::new(Echo), Box::new(Echo)]);
        for i in 0..3 {
            sim.invoke_at(
                i,
                ClientId::writer(),
                OpKind::Write,
                Box::new(NRound {
                    need: 2,
                    got: 0,
                    rounds_left: 1,
                }),
            );
        }
        let done = sim.run_to_quiescence();
        assert_eq!(done.len(), 3);
        let seqs: Vec<u64> = done.iter().map(|c| c.op_seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        // Ops are sequential: each starts after the previous completes.
        for w in done.windows(2) {
            assert!(w[1].stat.invoked_at >= w[0].stat.completed_at);
        }
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let mut sim = sim_with(vec![Box::new(Echo), Box::new(Echo), Box::new(Echo)]);
            for i in 0..5 {
                sim.invoke_at(
                    i * 3,
                    ClientId::reader((i % 2) as u32),
                    OpKind::Read,
                    Box::new(NRound {
                        need: 2,
                        got: 0,
                        rounds_left: 2,
                    }),
                );
            }
            sim.run_to_quiescence()
                .iter()
                .map(|c| (c.client, c.op_seq, c.stat.completed_at))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn observations_are_recorded() {
        let mut sim = sim_with(vec![Box::new(Echo), Box::new(Echo), Box::new(Echo)]);
        sim.invoke_at(
            0,
            ClientId::reader(0),
            OpKind::Read,
            Box::new(NRound {
                need: 2,
                got: 0,
                rounds_left: 1,
            }),
        );
        sim.run_to_quiescence();
        let obs = sim.trace().observations_of(ClientId::reader(0));
        assert!(!obs.is_empty());
        assert!(obs.iter().all(|o| o.round == 1));
    }
}
