//! The operation driver: one multiplexer for every deploy substrate.
//!
//! A [`RoundClient`] automaton describes *one* operation. Driving it —
//! matching replies to the operation they answer, feeding them to the
//! automaton, broadcasting the next round it asks for, noticing completion
//! and deadlines — is substrate bookkeeping, and before this module existed
//! both substrates implemented it separately (the simulator in its event
//! loop, the thread runtime inside `ThreadClient::run_op`). [`OpDriver`] is
//! that bookkeeping, written once:
//!
//! * **nonce-keyed dispatch** — every submitted operation gets a fresh
//!   nonce; replies carry the nonce of the request they answer, so many
//!   concurrent automata can share one reply channel and stragglers from
//!   completed operations are dropped before they reach any automaton;
//! * **round-staleness policy** — both substrates run
//!   [`StalePolicy::DeliverLate`]: the paper's round model (Definition 1)
//!   explicitly allows a client to use late replies, the lower-bound
//!   replays depend on that, and a read beside a forger depends on it for
//!   progress once the adversary makes one honest object late every
//!   round. Under [`StalePolicy::DropLate`] a reply tagged with an old
//!   round of a *live* operation is dropped too, so no automaton ever sees
//!   a round it has already terminated;
//! * **per-op deadlines** — operations may carry a deadline on the
//!   caller's clock (the driver is clock-agnostic: times are plain `u64`s,
//!   logical ticks in the simulator, microseconds in the thread runtime);
//!   [`OpDriver::expire`] reaps overdue operations.
//!
//! The simulator's client slots ([`crate::engine::Sim`]) and the thread
//! runtime's [`crate::runtime::ThreadClient`] are both thin wrappers over
//! this type, which is what keeps the two deploy paths from drifting apart.

use crate::engine::{ClientAction, RoundClient};
use rastor_common::{ObjectId, OpKind, RoundCount};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// The always-on driver tallies (`driver.*` in the metric manifest).
/// Resolved once per process and shared by every driver — the explorer
/// creates drivers by the million, so per-driver registry lookups are off
/// the table; per-completion cost is a few relaxed atomics.
struct DriverMetrics {
    completed: Arc<rastor_obs::Counter>,
    expired: Arc<rastor_obs::Counter>,
    rounds: Arc<rastor_obs::Histogram>,
}

fn driver_metrics() -> &'static DriverMetrics {
    static METRICS: OnceLock<DriverMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = rastor_obs::Registry::global();
        DriverMetrics {
            completed: reg.counter(rastor_obs::names::DRIVER_OPS_COMPLETED),
            expired: reg.counter(rastor_obs::names::DRIVER_OPS_EXPIRED),
            rounds: reg.histogram(rastor_obs::names::DRIVER_OP_ROUNDS),
        }
    })
}

/// What to do with a reply that carries an old round of a live operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StalePolicy {
    /// Deliver it to the automaton — the paper's round model (Definition 1)
    /// lets a client use late replies, and every protocol automaton in
    /// `rastor_core` handles them; the simulator and the thread runtime
    /// run this policy.
    DeliverLate,
    /// Drop it before the automaton. An adversary that delivers one honest
    /// object a round late every round then starves a read beside a forger
    /// (`a_late_honest_object_does_not_starve_a_get_beside_a_forger` pins
    /// that schedule under `DeliverLate`); the explorer's parity test runs
    /// it in the simulator ([`crate::Sim::set_stale_policy`]).
    DropLate,
}

/// A round broadcast the caller must perform: send `payload` for round
/// `round` of operation `nonce` to every object of the target cluster.
#[derive(Clone, Debug)]
pub struct Broadcast<Q> {
    /// The operation's nonce (assigned by [`OpDriver::submit`]).
    pub nonce: u64,
    /// The 1-based round number this payload opens.
    pub round: u32,
    /// The trace id minted for this operation (`trace::NO_TRACE` when
    /// tracing is off) — substrates propagate it on every request frame.
    pub trace: u64,
    /// The request to broadcast to all objects.
    pub payload: Q,
}

/// A completed operation.
#[derive(Clone, Debug)]
pub struct OpCompletion<Out> {
    /// The operation's nonce.
    pub nonce: u64,
    /// The automaton's output.
    pub output: Out,
    /// The operation kind it was submitted with.
    pub kind: OpKind,
    /// Communication rounds used.
    pub rounds: RoundCount,
    /// The submission time, on the caller's clock.
    pub invoked_at: u64,
    /// The operation's trace id (`trace::NO_TRACE` when tracing is off).
    pub trace: u64,
}

/// An operation reaped by [`OpDriver::expire`]: its deadline passed before
/// the automaton completed (the substrate could not assemble a quorum in
/// time).
#[derive(Clone, Copy, Debug)]
pub struct OpTimeout {
    /// The operation's nonce.
    pub nonce: u64,
    /// The operation kind it was submitted with.
    pub kind: OpKind,
    /// The submission time, on the caller's clock.
    pub invoked_at: u64,
    /// The operation's trace id (`trace::NO_TRACE` when tracing is off).
    pub trace: u64,
}

/// The driver's verdict on one ingested reply.
#[derive(Debug)]
pub enum Dispatch<Q, Out> {
    /// The nonce names no live operation (completed, expired, or never
    /// submitted) — the reply was dropped.
    Unknown,
    /// The nonce is live but the round is not the operation's current one
    /// and the policy is [`StalePolicy::DropLate`] — dropped before the
    /// automaton.
    StaleRound,
    /// Delivered; the automaton keeps waiting for more replies.
    Wait,
    /// Delivered; the automaton terminated its round — broadcast this.
    NextRound(Broadcast<Q>),
    /// Delivered; the operation completed and was retired.
    Complete(OpCompletion<Out>),
}

struct InFlight<Q, R, Out> {
    automaton: Box<dyn RoundClient<Q, R, Out = Out>>,
    kind: OpKind,
    round: u32,
    rounds: RoundCount,
    invoked_at: u64,
    deadline: Option<u64>,
    trace: u64,
    round_started: u64,
}

/// Multiplexes many concurrent [`RoundClient`] automata over one reply
/// stream. See the [module docs](self) for the role it plays.
pub struct OpDriver<Q, R, Out> {
    policy: StalePolicy,
    next_nonce: u64,
    ops: HashMap<u64, InFlight<Q, R, Out>>,
}

impl<Q, R, Out> OpDriver<Q, R, Out> {
    /// An empty driver with the given staleness policy.
    pub fn new(policy: StalePolicy) -> OpDriver<Q, R, Out> {
        OpDriver {
            policy,
            next_nonce: 0,
            ops: HashMap::new(),
        }
    }

    /// Swap the staleness policy for every op submitted from now on.
    ///
    /// In-flight automata keep the dispatch behaviour they were started
    /// with only in the sense that stale replies are classified at
    /// delivery time; switching mid-op therefore reclassifies pending
    /// stragglers too. Call it before submitting work when the scenario
    /// needs [`StalePolicy::DropLate`].
    pub fn set_policy(&mut self, policy: StalePolicy) {
        self.policy = policy;
    }

    /// Admit an operation: assigns the next nonce, records `now` as its
    /// invocation time and starts the automaton. The caller must broadcast
    /// the returned round-1 payload.
    pub fn submit(
        &mut self,
        kind: OpKind,
        mut automaton: Box<dyn RoundClient<Q, R, Out = Out>>,
        now: u64,
        deadline: Option<u64>,
    ) -> Broadcast<Q> {
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        let trace = rastor_obs::trace::global().next_trace();
        let payload = automaton.start();
        self.ops.insert(
            nonce,
            InFlight {
                automaton,
                kind,
                round: 1,
                rounds: RoundCount(1),
                invoked_at: now,
                deadline,
                trace,
                round_started: now,
            },
        );
        Broadcast {
            nonce,
            round: 1,
            trace,
            payload,
        }
    }

    /// Ingest one reply (object `from`, answering round `round` of
    /// operation `nonce`) and report what happened. Replies for unknown
    /// nonces — and, under [`StalePolicy::DropLate`], for non-current
    /// rounds of live nonces — never reach the automaton.
    ///
    /// Equivalent to [`OpDriver::on_reply_at`] with `now = 0`; callers
    /// that trace (or otherwise care about per-round timing) should pass
    /// their clock through `on_reply_at` instead.
    pub fn on_reply(
        &mut self,
        nonce: u64,
        from: ObjectId,
        round: u32,
        payload: &R,
    ) -> Dispatch<Q, Out> {
        self.on_reply_at(nonce, from, round, payload, 0)
    }

    /// [`OpDriver::on_reply`] with the caller's clock: when the delivered
    /// reply closes a round (or the whole operation) and the op carries a
    /// live trace id, the driver records a `driver.round` span for the
    /// closed round — and, on completion, the umbrella `driver.op` span
    /// covering submit to completion.
    pub fn on_reply_at(
        &mut self,
        nonce: u64,
        from: ObjectId,
        round: u32,
        payload: &R,
        now: u64,
    ) -> Dispatch<Q, Out> {
        let Some(op) = self.ops.get_mut(&nonce) else {
            return Dispatch::Unknown;
        };
        if round != op.round && self.policy == StalePolicy::DropLate {
            return Dispatch::StaleRound;
        }
        match op.automaton.on_reply(from, round, payload) {
            ClientAction::Wait => Dispatch::Wait,
            ClientAction::NextRound(payload) => {
                let rec = rastor_obs::trace::global();
                rec.record(
                    op.trace,
                    rastor_obs::trace::span::DRIVER_ROUND,
                    u64::from(op.round),
                    op.round_started,
                    now,
                );
                op.round += 1;
                op.rounds = op.rounds.bump();
                op.round_started = now;
                Dispatch::NextRound(Broadcast {
                    nonce,
                    round: op.round,
                    trace: op.trace,
                    payload,
                })
            }
            ClientAction::Complete(output) => {
                let op = self.ops.remove(&nonce).expect("live op exists");
                let m = driver_metrics();
                m.completed.inc();
                m.rounds.record(u64::from(op.rounds.get()));
                let rec = rastor_obs::trace::global();
                rec.record(
                    op.trace,
                    rastor_obs::trace::span::DRIVER_ROUND,
                    u64::from(op.round),
                    op.round_started,
                    now,
                );
                rec.record(
                    op.trace,
                    rastor_obs::trace::span::DRIVER_OP,
                    u64::from(op.rounds.get()),
                    op.invoked_at,
                    now,
                );
                Dispatch::Complete(OpCompletion {
                    nonce,
                    output,
                    kind: op.kind,
                    rounds: op.rounds,
                    invoked_at: op.invoked_at,
                    trace: op.trace,
                })
            }
        }
    }

    /// Whether `nonce` names a live (submitted, not yet completed or
    /// expired) operation.
    pub fn is_live(&self, nonce: u64) -> bool {
        self.ops.contains_key(&nonce)
    }

    /// The current round of a live operation.
    pub fn round_of(&self, nonce: u64) -> Option<u32> {
        self.ops.get(&nonce).map(|op| op.round)
    }

    /// Number of live operations.
    pub fn in_flight(&self) -> usize {
        self.ops.len()
    }

    /// The earliest deadline among live operations, if any carries one.
    pub fn next_deadline(&self) -> Option<u64> {
        self.ops.values().filter_map(|op| op.deadline).min()
    }

    /// Retire every live operation whose deadline is at or before `now`.
    pub fn expire(&mut self, now: u64) -> Vec<OpTimeout> {
        let overdue: Vec<u64> = self
            .ops
            .iter()
            .filter(|(_, op)| op.deadline.is_some_and(|d| d <= now))
            .map(|(n, _)| *n)
            .collect();
        let mut reaped: Vec<OpTimeout> = overdue
            .into_iter()
            .map(|nonce| {
                let op = self.ops.remove(&nonce).expect("overdue op exists");
                OpTimeout {
                    nonce,
                    kind: op.kind,
                    invoked_at: op.invoked_at,
                    trace: op.trace,
                }
            })
            .collect();
        reaped.sort_by_key(|t| t.nonce);
        driver_metrics().expired.add(reaped.len() as u64);
        reaped
    }

    /// Drop every live operation (a crashed client takes no more steps).
    pub fn abort_all(&mut self) {
        self.ops.clear();
    }
}

/// Test-only automaton shared by the driver unit tests and the thread
/// runtime's regression tests: completes after `need` replies of its
/// current round per round, over `rounds` rounds, broadcasting its current
/// round number as the payload. A reply from a round it has terminated is
/// counted ([`StrictRounds::late`]) and otherwise ignored; a reply from a
/// round it has not opened yet panics.
#[cfg(test)]
pub(crate) struct StrictRounds {
    need: usize,
    got: usize,
    current: u32,
    rounds: u32,
    late: Arc<std::sync::atomic::AtomicUsize>,
}

#[cfg(test)]
impl StrictRounds {
    pub(crate) fn new(need: usize, rounds: u32) -> StrictRounds {
        StrictRounds {
            need,
            got: 0,
            current: 1,
            rounds,
            late: Arc::default(),
        }
    }

    /// How many replies from terminated rounds reached the automaton, read
    /// through a handle that outlives it.
    pub(crate) fn late(&self) -> impl Fn() -> usize {
        let late = Arc::clone(&self.late);
        move || late.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
impl RoundClient<u32, u32> for StrictRounds {
    type Out = u32;
    fn start(&mut self) -> u32 {
        self.current
    }
    fn on_reply(&mut self, _from: ObjectId, round: u32, reply: &u32) -> ClientAction<u32, u32> {
        assert!(
            round <= self.current,
            "round {round} reached an automaton still in round {}",
            self.current
        );
        if round < self.current {
            self.late.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return ClientAction::Wait;
        }
        self.got += 1;
        if self.got < self.need {
            return ClientAction::Wait;
        }
        self.got = 0;
        if self.current < self.rounds {
            self.current += 1;
            ClientAction::NextRound(self.current)
        } else {
            ClientAction::Complete(*reply)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use StrictRounds as Strict;

    fn drop_late() -> OpDriver<u32, u32, u32> {
        OpDriver::new(StalePolicy::DropLate)
    }

    #[test]
    fn multiplexes_interleaved_operations() {
        let mut d = drop_late();
        let a = d.submit(OpKind::Read, Box::new(Strict::new(2, 1)), 0, None);
        let b = d.submit(OpKind::Write, Box::new(Strict::new(2, 1)), 5, None);
        assert_eq!((a.nonce, a.round), (0, 1));
        assert_eq!((b.nonce, b.round), (1, 1));
        assert_eq!(d.in_flight(), 2);
        // Replies interleave across the two live ops.
        assert!(matches!(d.on_reply(0, ObjectId(0), 1, &7), Dispatch::Wait));
        assert!(matches!(d.on_reply(1, ObjectId(0), 1, &8), Dispatch::Wait));
        let done = d.on_reply(1, ObjectId(1), 1, &8);
        match done {
            Dispatch::Complete(c) => {
                assert_eq!(c.nonce, 1);
                assert_eq!(c.output, 8);
                assert_eq!(c.kind, OpKind::Write);
                assert_eq!(c.rounds.get(), 1);
                assert_eq!(c.invoked_at, 5);
            }
            other => panic!("expected completion, got {other:?}"),
        }
        assert!(matches!(
            d.on_reply(0, ObjectId(1), 1, &7),
            Dispatch::Complete(_)
        ));
        assert_eq!(d.in_flight(), 0);
    }

    #[test]
    fn unknown_nonces_are_dropped() {
        let mut d = drop_late();
        let b = d.submit(OpKind::Read, Box::new(Strict::new(1, 1)), 0, None);
        assert!(matches!(
            d.on_reply(99, ObjectId(0), 1, &1),
            Dispatch::Unknown
        ));
        assert!(matches!(
            d.on_reply(b.nonce, ObjectId(0), 1, &1),
            Dispatch::Complete(_)
        ));
        // A straggler for the completed op is unknown now.
        assert!(matches!(
            d.on_reply(b.nonce, ObjectId(1), 1, &1),
            Dispatch::Unknown
        ));
    }

    #[test]
    fn drop_late_filters_old_rounds_before_the_automaton() {
        let mut d = drop_late();
        // 2 replies per round, 3 rounds; Strict counts any stale round.
        let strict = Strict::new(2, 3);
        let late = strict.late();
        let b = d.submit(OpKind::Read, Box::new(strict), 0, None);
        d.on_reply(b.nonce, ObjectId(0), 1, &1);
        match d.on_reply(b.nonce, ObjectId(1), 1, &1) {
            Dispatch::NextRound(nb) => assert_eq!(nb.round, 2),
            other => panic!("expected round 2, got {other:?}"),
        }
        // A delayed object answers round 1 while the op is in round 2: the
        // driver must drop it before Strict sees it.
        assert!(matches!(
            d.on_reply(b.nonce, ObjectId(3), 1, &1),
            Dispatch::StaleRound
        ));
        assert_eq!(d.round_of(b.nonce), Some(2), "round untouched by straggler");
        d.on_reply(b.nonce, ObjectId(0), 2, &1);
        d.on_reply(b.nonce, ObjectId(1), 2, &1);
        d.on_reply(b.nonce, ObjectId(0), 3, &1);
        assert!(matches!(
            d.on_reply(b.nonce, ObjectId(1), 3, &1),
            Dispatch::Complete(_)
        ));
        assert_eq!(late(), 0, "a stale round reached the automaton");
    }

    #[test]
    fn deliver_late_forwards_old_rounds() {
        /// Counts every delivered reply regardless of round.
        struct Count {
            seen: u32,
        }
        impl RoundClient<u32, u32> for Count {
            type Out = u32;
            fn start(&mut self) -> u32 {
                0
            }
            fn on_reply(&mut self, _f: ObjectId, _r: u32, _p: &u32) -> ClientAction<u32, u32> {
                self.seen += 1;
                if self.seen == 2 {
                    ClientAction::NextRound(0)
                } else if self.seen == 4 {
                    ClientAction::Complete(self.seen)
                } else {
                    ClientAction::Wait
                }
            }
        }
        let mut d: OpDriver<u32, u32, u32> = OpDriver::new(StalePolicy::DeliverLate);
        let b = d.submit(OpKind::Read, Box::new(Count { seen: 0 }), 0, None);
        d.on_reply(b.nonce, ObjectId(0), 1, &0);
        assert!(matches!(
            d.on_reply(b.nonce, ObjectId(1), 1, &0),
            Dispatch::NextRound(_)
        ));
        // A late round-1 reply is *delivered* under DeliverLate and counts.
        assert!(matches!(
            d.on_reply(b.nonce, ObjectId(2), 1, &0),
            Dispatch::Wait
        ));
        assert!(matches!(
            d.on_reply(b.nonce, ObjectId(0), 2, &0),
            Dispatch::Complete(_)
        ));
    }

    #[test]
    fn deadlines_expire_only_overdue_ops() {
        let mut d = drop_late();
        let a = d.submit(OpKind::Read, Box::new(Strict::new(1, 1)), 0, Some(10));
        let b = d.submit(OpKind::Write, Box::new(Strict::new(1, 1)), 0, Some(20));
        let c = d.submit(OpKind::Read, Box::new(Strict::new(1, 1)), 0, None);
        assert_eq!(d.next_deadline(), Some(10));
        assert!(d.expire(9).is_empty());
        let reaped = d.expire(10);
        assert_eq!(reaped.len(), 1);
        assert_eq!(reaped[0].nonce, a.nonce);
        assert_eq!(reaped[0].kind, OpKind::Read);
        assert!(!d.is_live(a.nonce));
        assert!(d.is_live(b.nonce) && d.is_live(c.nonce));
        assert_eq!(d.next_deadline(), Some(20));
        // The deadline-free op survives any clock value.
        assert_eq!(d.expire(u64::MAX).len(), 1);
        assert!(d.is_live(c.nonce));
    }

    #[test]
    fn abort_all_retires_everything() {
        let mut d = drop_late();
        d.submit(OpKind::Read, Box::new(Strict::new(1, 1)), 0, None);
        d.submit(OpKind::Read, Box::new(Strict::new(1, 1)), 0, None);
        d.abort_all();
        assert_eq!(d.in_flight(), 0);
        assert!(matches!(
            d.on_reply(0, ObjectId(0), 1, &1),
            Dispatch::Unknown
        ));
    }
}
