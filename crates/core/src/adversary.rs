//! A battery of Byzantine object behaviors.
//!
//! The paper's adversary controls up to `t` *malicious* objects that may
//! behave arbitrarily (silence, lies, equivocation, state forging) but can
//! never forge valid tokens in the secret-value model and never make correct
//! objects misbehave. Each behavior here is an [`ObjectBehavior`]
//! implementation used by the fault-injection tests, the resilience-boundary
//! experiments and the lower-bound run executors.

use crate::msg::{AckKind, Rep, Req, Stamped};
use crate::object::HonestObject;
use rastor_common::{ClientId, RegId, Timestamp, TsVal, Value};
use rastor_sim::ObjectBehavior;
use std::collections::HashMap;

/// The ack an honest object would send for a write-phase request — what the
/// adversaries that acknowledge without storing reply with. `None` for a
/// collect, which acks nothing.
fn hollow_ack(req: &Req) -> Option<Rep> {
    let (reg, kind) = match req {
        Req::Collect { .. } => return None,
        Req::Store { reg, .. } => (*reg, AckKind::Store),
        Req::PreWrite { reg, .. } => (*reg, AckKind::PreWrite),
        Req::Commit { reg, .. } => (*reg, AckKind::Commit),
    };
    Some(Rep::Ack { reg, kind })
}

/// Never replies — indistinguishable from a crashed or partitioned object.
#[derive(Clone, Copy, Debug, Default)]
pub struct SilentObject;

impl ObjectBehavior<Req, Rep> for SilentObject {
    fn on_request(&mut self, _from: ClientId, _req: &Req) -> Option<Rep> {
        None
    }
}

/// Behaves honestly for the first `live_for` requests, then crashes.
#[derive(Clone, Debug)]
pub struct CrashObject {
    inner: HonestObject,
    live_for: usize,
    served: usize,
}

impl CrashObject {
    /// Honest for `live_for` requests, silent afterwards.
    pub fn new(live_for: usize) -> CrashObject {
        CrashObject {
            inner: HonestObject::new(),
            live_for,
            served: 0,
        }
    }
}

impl ObjectBehavior<Req, Rep> for CrashObject {
    fn on_request(&mut self, from: ClientId, req: &Req) -> Option<Rep> {
        if self.served >= self.live_for {
            return None;
        }
        self.served += 1;
        self.inner.on_request(from, req)
    }
}

/// Acknowledges every write but never stores anything, and reports initial
/// state to every collect — the "amnesiac" adversary. Defeats protocols
/// that trust a single quorum of acks without cross-checking.
#[derive(Clone, Debug, Default)]
pub struct AmnesiacObject;

impl ObjectBehavior<Req, Rep> for AmnesiacObject {
    fn on_request(&mut self, _from: ClientId, req: &Req) -> Option<Rep> {
        match req {
            Req::Collect { regs } => Some(Rep::Views {
                views: regs.iter().map(|r| (*r, Default::default())).collect(),
            }),
            write => hollow_ack(write),
        }
    }
}

/// Reports a fabricated sky-high pair to every collect (and acks writes
/// without storing). Tests that unauthenticated readers never return a pair
/// lacking t+1 vouchers and that token-model readers reject invalid tokens.
#[derive(Clone, Debug)]
pub struct ForgeHighObject {
    forged: Stamped,
}

impl ForgeHighObject {
    /// Forge the given fabricated pair.
    pub fn new(forged: Stamped) -> ForgeHighObject {
        ForgeHighObject { forged }
    }

    /// A default fabrication: timestamp `u64::MAX/2`, value 0xDEAD.
    pub fn default_forgery() -> ForgeHighObject {
        ForgeHighObject::new(Stamped::plain(TsVal::new(
            Timestamp(u64::MAX / 2),
            Value::from_u64(0xDEAD),
        )))
    }
}

impl ObjectBehavior<Req, Rep> for ForgeHighObject {
    fn on_request(&mut self, _from: ClientId, req: &Req) -> Option<Rep> {
        match req {
            Req::Collect { regs } => Some(Rep::Views {
                views: regs
                    .iter()
                    .map(|r| {
                        (
                            *r,
                            crate::msg::ObjectView {
                                pw: self.forged.clone(),
                                w: self.forged.clone(),
                                hist: vec![self.forged.clone()],
                            },
                        )
                    })
                    .collect(),
            }),
            write => hollow_ack(write),
        }
    }
}

/// Maintains two honest replicas and routes each client to one of them by
/// client identity — a split-brain equivocator. Writer traffic goes to both
/// (so each side looks plausibly fresh); collects are answered from the side
/// the client is pinned to, except that one "victim" reader side is frozen.
#[derive(Clone, Debug)]
pub struct EquivocatorObject {
    fresh: HonestObject,
    frozen: HonestObject,
    victims: Vec<ClientId>,
    freeze_after: usize,
    writes_seen: usize,
}

impl EquivocatorObject {
    /// Equivocate against the given victims: they see state frozen after
    /// `freeze_after` write-phase messages; everyone else sees fresh state.
    pub fn new(victims: Vec<ClientId>, freeze_after: usize) -> EquivocatorObject {
        EquivocatorObject {
            fresh: HonestObject::new(),
            frozen: HonestObject::new(),
            victims,
            freeze_after,
            writes_seen: 0,
        }
    }
}

impl ObjectBehavior<Req, Rep> for EquivocatorObject {
    fn on_request(&mut self, from: ClientId, req: &Req) -> Option<Rep> {
        match req {
            Req::Collect { .. } => {
                if self.victims.contains(&from) {
                    Some(self.frozen.apply(req))
                } else {
                    Some(self.fresh.apply(req))
                }
            }
            _ => {
                self.writes_seen += 1;
                let rep = self.fresh.apply(req);
                if self.writes_seen <= self.freeze_after {
                    self.frozen.apply(req);
                }
                Some(rep)
            }
        }
    }
}

/// A rule for [`StateForgerObject`]: when `client` sends its `n`-th request
/// (1-based, counted per client) and `n` falls within `[from_nth, to_nth]`,
/// the object answers from the given snapshot instead of its live state.
#[derive(Clone, Debug)]
pub struct ForgeRule {
    /// The client whose requests this rule intercepts.
    pub client: ClientId,
    /// First intercepted request index (1-based, inclusive).
    pub from_nth: u32,
    /// Last intercepted request index (inclusive).
    pub to_nth: u32,
    /// The forged state to answer from (requests are *applied* to the
    /// snapshot too, so multi-round interactions stay coherent).
    pub snapshot: HonestObject,
}

/// The state-forging adversary used by the lower-bound run executors: "all
/// objects in block B are malicious and forge their state to σ before
/// replying to rd_j" (paper, Sections 3–4).
///
/// The object runs an honest replica for its real state, plus per-rule
/// snapshot replicas. Requests matched by a rule are served (and applied)
/// on the rule's snapshot; everything else is served honestly.
#[derive(Clone, Debug, Default)]
pub struct StateForgerObject {
    live: HonestObject,
    rules: Vec<ForgeRule>,
    counts: HashMap<ClientId, u32>,
}

impl StateForgerObject {
    /// Start with honest state and no rules.
    pub fn new() -> StateForgerObject {
        StateForgerObject::default()
    }

    /// Add a forging rule.
    pub fn add_rule(&mut self, rule: ForgeRule) -> &mut Self {
        self.rules.push(rule);
        self
    }
}

impl ObjectBehavior<Req, Rep> for StateForgerObject {
    fn on_request(&mut self, from: ClientId, req: &Req) -> Option<Rep> {
        let n = {
            let c = self.counts.entry(from).or_insert(0);
            *c += 1;
            *c
        };
        for rule in &mut self.rules {
            if rule.client == from && n >= rule.from_nth && n <= rule.to_nth {
                return Some(rule.snapshot.apply(req));
            }
        }
        Some(self.live.apply(req))
    }
}

/// Replays a frozen genuine snapshot: behaves honestly for the first
/// `freeze_after` requests, then keeps answering collects from the state it
/// had at that point (while still acking — but dropping — writes).
///
/// This is the *stale replay* adversary: everything it reports is genuine
/// (valid tokens included, in the secret-value model), just old. Safe
/// protocols must out-vote it via the `t + 1` threshold or token-maximum.
#[derive(Clone, Debug)]
pub struct ReplayObject {
    live: HonestObject,
    frozen: Option<HonestObject>,
    freeze_after: usize,
    served: usize,
}

impl ReplayObject {
    /// Honest for `freeze_after` requests, frozen afterwards.
    pub fn new(freeze_after: usize) -> ReplayObject {
        ReplayObject {
            live: HonestObject::new(),
            frozen: None,
            freeze_after,
            served: 0,
        }
    }
}

impl ObjectBehavior<Req, Rep> for ReplayObject {
    fn on_request(&mut self, _from: ClientId, req: &Req) -> Option<Rep> {
        self.served += 1;
        if self.served <= self.freeze_after {
            let rep = self.live.apply(req);
            if self.served == self.freeze_after {
                self.frozen = Some(self.live.clone());
            }
            return Some(rep);
        }
        let frozen = self.frozen.get_or_insert_with(|| self.live.clone());
        match req {
            Req::Collect { .. } => Some(frozen.apply(req)),
            // Ack writes without applying them anywhere live.
            write => hollow_ack(write),
        }
    }
}

/// The Byzantine behaviours a test, an explorer cast or a deployment can
/// name: one enum over the battery above, so the simulator, the thread
/// runtime and the TCP servers are all handed the same faults by the same
/// names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Never replies ([`SilentObject`]) — a crashed or partitioned object.
    Silent,
    /// Honest for the first `n` requests, then silent ([`CrashObject`]) —
    /// crash-at-round-k and silent-after-n in one.
    CrashAfter(usize),
    /// Honest for the first `n` requests, then answers collects from the
    /// state frozen at that point while acking-but-dropping writes
    /// ([`ReplayObject`]) — the stale-replay adversary. `StaleAfter(0)`
    /// replays the initial (bottom) state forever.
    StaleAfter(usize),
    /// Split-brain equivocation ([`EquivocatorObject`]): the listed victims
    /// see state frozen after `freeze_after` write-phase messages; every
    /// other client sees fresh state.
    Equivocate {
        /// Clients pinned to the frozen replica.
        victims: Vec<ClientId>,
        /// Write-phase messages applied to the frozen side before it stops
        /// following.
        freeze_after: usize,
    },
    /// Reports a fabricated sky-high pair to every collect
    /// ([`ForgeHighObject::default_forgery`]). One forger is outvoted by
    /// the `t + 1` voucher threshold; `t + 1` colluding forgers give the
    /// fabrication enough vouchers to be *selected* — the paper's
    /// resilience boundary made executable.
    ForgeHigh,
    /// Acks every write, stores nothing, reports the initial state
    /// ([`AmnesiacObject`]).
    Amnesiac,
}

impl FaultKind {
    /// The stock battery for table-driven fault injection: silence,
    /// amnesia, forgery, an early crash (honest for 3 requests) and a stale
    /// replay (honest for 4).
    pub fn stock() -> [FaultKind; 5] {
        [
            FaultKind::Silent,
            FaultKind::Amnesiac,
            FaultKind::ForgeHigh,
            FaultKind::CrashAfter(3),
            FaultKind::StaleAfter(4),
        ]
    }

    /// Build a fresh behaviour instance implementing this fault. Behaviours
    /// are stateful (crash budgets, frozen replicas), so every run must
    /// materialize its own copies.
    pub fn materialize(&self) -> Box<dyn ObjectBehavior<Req, Rep> + Send> {
        match self {
            FaultKind::Silent => Box::new(SilentObject),
            FaultKind::CrashAfter(n) => Box::new(CrashObject::new(*n)),
            FaultKind::StaleAfter(n) => Box::new(ReplayObject::new(*n)),
            FaultKind::Equivocate {
                victims,
                freeze_after,
            } => Box::new(EquivocatorObject::new(victims.clone(), *freeze_after)),
            FaultKind::ForgeHigh => Box::new(ForgeHighObject::default_forgery()),
            FaultKind::Amnesiac => Box::new(AmnesiacObject),
        }
    }
}

/// Build an [`HonestObject`] snapshot holding the state after a given write
/// prefix: pre-writes for `prewritten` and commits for `committed`
/// (timestamps 1..=n with value `mk_val(ts)`), as the lower-bound proofs'
/// σ-states prescribe.
pub fn snapshot_after_writes(
    reg: RegId,
    prewritten: u64,
    committed: u64,
    mut mk_val: impl FnMut(u64) -> Value,
) -> HonestObject {
    assert!(committed <= prewritten, "commits lag pre-writes");
    let mut obj = HonestObject::new();
    for ts in 1..=prewritten {
        obj.apply(&Req::PreWrite {
            reg,
            pair: Stamped::plain(TsVal::new(Timestamp(ts), mk_val(ts))),
        });
    }
    for ts in 1..=committed {
        obj.apply(&Req::Commit {
            reg,
            pair: Stamped::plain(TsVal::new(Timestamp(ts), mk_val(ts))),
        });
    }
    obj
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect() -> Req {
        Req::Collect {
            regs: vec![RegId::WRITER],
        }
    }

    fn commit(ts: u64, v: u64) -> Req {
        Req::Commit {
            reg: RegId::WRITER,
            pair: Stamped::plain(TsVal::new(Timestamp(ts), Value::from_u64(v))),
        }
    }

    /// Every [`FaultKind`] builds the behaviour its doc names (the
    /// per-struct checks, reached through the one enum callers use).
    #[test]
    fn every_fault_kind_materializes_the_behaviour_it_names() {
        let (writer, victim, other) =
            (ClientId::writer(), ClientId::reader(0), ClientId::reader(1));
        let committed = |rep: Option<Rep>| rep.unwrap().view_of(RegId::WRITER).unwrap().w.pair.ts;

        let mut silent = FaultKind::Silent.materialize();
        assert!(silent.on_request(writer, &collect()).is_none());

        let mut crash = FaultKind::CrashAfter(2).materialize();
        assert!(crash.on_request(writer, &collect()).is_some());
        assert!(crash.on_request(writer, &collect()).is_some());
        assert!(crash.on_request(writer, &collect()).is_none());

        let mut amnesiac = FaultKind::Amnesiac.materialize();
        let ack = amnesiac.on_request(writer, &commit(1, 10)).unwrap();
        assert!(ack.is_ack(RegId::WRITER, AckKind::Commit));
        assert!(
            committed(amnesiac.on_request(victim, &collect())).is_bottom(),
            "nothing was actually stored"
        );

        let mut forger = FaultKind::ForgeHigh.materialize();
        assert_eq!(
            committed(forger.on_request(victim, &collect())),
            Timestamp(u64::MAX / 2)
        );

        let mut equivocator = FaultKind::Equivocate {
            victims: vec![victim],
            freeze_after: 0,
        }
        .materialize();
        equivocator.on_request(writer, &commit(1, 10));
        assert!(committed(equivocator.on_request(victim, &collect())).is_bottom());
        assert_eq!(
            committed(equivocator.on_request(other, &collect())),
            Timestamp(1)
        );

        let mut stale = FaultKind::StaleAfter(2).materialize();
        stale.on_request(writer, &commit(1, 10)); // applied (1st)
        stale.on_request(writer, &commit(2, 20)); // applied (2nd) + freeze
        let ack = stale.on_request(writer, &commit(3, 30)).unwrap(); // acked, dropped
        assert!(ack.is_ack(RegId::WRITER, AckKind::Commit));
        let rep = stale.on_request(victim, &collect()).unwrap();
        let view = rep.view_of(RegId::WRITER).unwrap();
        assert_eq!(view.w.pair.ts, Timestamp(2), "replays the frozen state");
        assert!(view.vouches_for(&TsVal::new(Timestamp(1), Value::from_u64(10))));
        assert!(!view.vouches_for(&TsVal::new(Timestamp(3), Value::from_u64(30))));

        // The stock battery is the five table-driven tests have always run.
        assert_eq!(
            FaultKind::stock(),
            [
                FaultKind::Silent,
                FaultKind::Amnesiac,
                FaultKind::ForgeHigh,
                FaultKind::CrashAfter(3),
                FaultKind::StaleAfter(4)
            ]
        );
    }

    #[test]
    fn state_forger_answers_matched_requests_from_snapshot() {
        let snapshot = snapshot_after_writes(RegId::WRITER, 2, 1, Value::from_u64);
        let mut forger = StateForgerObject::new();
        forger.add_rule(ForgeRule {
            client: ClientId::reader(0),
            from_nth: 1,
            to_nth: 1,
            snapshot,
        });
        // Live state sees write 3; the victim's first collect sees σ(pw=2,w=1).
        forger.on_request(ClientId::writer(), &commit(3, 30));
        let rep = forger.on_request(ClientId::reader(0), &collect()).unwrap();
        let view = rep.view_of(RegId::WRITER).unwrap();
        assert_eq!(view.pw.pair.ts, Timestamp(2));
        assert_eq!(view.w.pair.ts, Timestamp(1));
        // Second collect (outside the rule) sees live state.
        let rep2 = forger.on_request(ClientId::reader(0), &collect()).unwrap();
        assert_eq!(rep2.view_of(RegId::WRITER).unwrap().w.pair.ts, Timestamp(3));
        // Other clients always see live state.
        let rep3 = forger.on_request(ClientId::reader(1), &collect()).unwrap();
        assert_eq!(rep3.view_of(RegId::WRITER).unwrap().w.pair.ts, Timestamp(3));
    }

    #[test]
    fn snapshot_builder_shapes_state() {
        let obj = snapshot_after_writes(RegId::WRITER, 3, 2, Value::from_u64);
        let view = obj.view_of(RegId::WRITER);
        assert_eq!(view.pw.pair.ts, Timestamp(3));
        assert_eq!(view.w.pair.ts, Timestamp(2));
        let remembered: Vec<Timestamp> = view.hist.iter().map(|s| s.pair.ts).collect();
        assert_eq!(remembered, [Timestamp(2), Timestamp(3)]);
    }

    #[test]
    #[should_panic(expected = "commits lag pre-writes")]
    fn snapshot_builder_validates() {
        let _ = snapshot_after_writes(RegId::WRITER, 1, 2, Value::from_u64);
    }
}
