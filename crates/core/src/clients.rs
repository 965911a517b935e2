//! Client-side operation automata for the base protocols:
//!
//! * **ABD** (crash model, `S = 2t+1`, the paper's reference \[3\]):
//!   1-round writes, 2-round reads (collect + write-back).
//! * **Byzantine two-phase writes** (`S = 3t+1`, unauthenticated or
//!   secret-value): pre-write then commit, each at an `S − t` quorum —
//!   2 rounds, matching the write lower bound of reference \[1\].
//! * **Byzantine regular reads**: the collect engine of [`crate::collect`]
//!   wrapped as a round client.
//!
//! Every write phase here and in [`crate::transform`] / [`crate::mwmr`] is
//! the one [`QuorumWrite`] sub-automaton, as every read phase is the one
//! [`CollectEngine`] (the paper's §5: protocols composed of a regular read
//! and a regular write).
//!
//! Each automaton implements [`RoundClient`] and can run on the simulator or
//! the thread runtime unchanged.

use crate::collect::{CollectEngine, CollectStatus, QuorumWrite, WriteStatus};
use crate::msg::{Rep, Req, Stamped};
use rastor_common::{ClusterConfig, ObjectId, RegId, TsVal};
use rastor_sim::{ClientAction, RoundClient};
use std::collections::BTreeSet;

/// The unified output of a register operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OpOutput {
    /// A write completed, having stored this pair.
    Wrote(TsVal),
    /// A read completed, returning this pair.
    Read(TsVal),
}

impl OpOutput {
    /// The pair carried by the output.
    pub fn pair(&self) -> &TsVal {
        match self {
            OpOutput::Wrote(p) | OpOutput::Read(p) => p,
        }
    }

    /// Whether this is a read output.
    pub fn is_read(&self) -> bool {
        matches!(self, OpOutput::Read(_))
    }

    /// The stored pair, if this is a write output. Spares driver-layer
    /// callers the `unreachable!` match arms when the operation kind is
    /// known from context.
    pub fn into_wrote(self) -> Option<TsVal> {
        match self {
            OpOutput::Wrote(p) => Some(p),
            OpOutput::Read(_) => None,
        }
    }

    /// The returned pair, if this is a read output.
    pub fn into_read(self) -> Option<TsVal> {
        match self {
            OpOutput::Read(p) => Some(p),
            OpOutput::Wrote(_) => None,
        }
    }
}

/// One reply fed to a collect phase, as the enclosing client's action:
/// `None` once the engine has decided (its decisions are ready to use).
pub(crate) fn collect_step(
    engine: &mut CollectEngine,
    from: ObjectId,
    round: u32,
    reply: &Rep,
) -> Option<ClientAction<Req, OpOutput>> {
    match engine.on_reply(from, round, reply) {
        CollectStatus::Wait => Some(ClientAction::Wait),
        CollectStatus::NextRound => {
            engine.begin_round();
            Some(ClientAction::NextRound(engine.request()))
        }
        CollectStatus::Decided => None,
    }
}

/// One reply fed to a write (or write-back) phase, as the enclosing
/// client's action: the automaton completes with `done` of the written
/// pair once the [`QuorumWrite`]'s last phase has its quorum.
pub(crate) fn write_step(
    write: &mut QuorumWrite,
    from: ObjectId,
    reply: &Rep,
    done: fn(TsVal) -> OpOutput,
) -> ClientAction<Req, OpOutput> {
    match write.on_reply(from, reply) {
        WriteStatus::Wait => ClientAction::Wait,
        WriteStatus::NextRound => ClientAction::NextRound(write.request()),
        WriteStatus::Done => ClientAction::Complete(done(write.pair().pair.clone())),
    }
}

/// ABD write: a single `Store` round acknowledged by a majority.
#[derive(Debug)]
pub struct AbdWriteClient(QuorumWrite);

impl AbdWriteClient {
    /// Write `pair` into `reg` under the crash model.
    pub fn new(cfg: ClusterConfig, reg: RegId, pair: Stamped) -> AbdWriteClient {
        AbdWriteClient(QuorumWrite::store(cfg, reg, pair))
    }
}

impl RoundClient<Req, Rep> for AbdWriteClient {
    type Out = OpOutput;

    fn start(&mut self) -> Req {
        self.0.request()
    }

    fn on_reply(
        &mut self,
        from: ObjectId,
        _round: u32,
        reply: &Rep,
    ) -> ClientAction<Req, OpOutput> {
        write_step(&mut self.0, from, reply, OpOutput::Wrote)
    }
}

/// ABD read: collect from a majority, pick the maximum committed pair,
/// write it back to a majority, return it. The write-back round is what
/// upgrades regular to atomic in the crash model (no new/old inversion).
#[derive(Debug)]
pub struct AbdReadClient {
    cfg: ClusterConfig,
    reg: RegId,
    best: Stamped,
    heard: BTreeSet<ObjectId>,
    write_back: Option<QuorumWrite>,
}

impl AbdReadClient {
    /// Read `reg` under the crash model.
    pub fn new(cfg: ClusterConfig, reg: RegId) -> AbdReadClient {
        AbdReadClient {
            cfg,
            reg,
            best: Stamped::bottom(),
            heard: BTreeSet::new(),
            write_back: None,
        }
    }
}

impl RoundClient<Req, Rep> for AbdReadClient {
    type Out = OpOutput;

    fn start(&mut self) -> Req {
        Req::Collect {
            regs: vec![self.reg],
        }
    }

    fn on_reply(
        &mut self,
        from: ObjectId,
        _round: u32,
        reply: &Rep,
    ) -> ClientAction<Req, OpOutput> {
        if let Some(write_back) = &mut self.write_back {
            return write_step(write_back, from, reply, OpOutput::Read);
        }
        if let Some(view) = reply.view_of(self.reg) {
            self.heard.insert(from);
            if view.w.pair > self.best.pair {
                self.best = view.w.clone();
            }
        }
        if self.heard.len() < self.cfg.quorum() {
            return ClientAction::Wait;
        }
        let best = std::mem::take(&mut self.best);
        let write_back = self
            .write_back
            .insert(QuorumWrite::store(self.cfg, self.reg, best));
        ClientAction::NextRound(write_back.request())
    }
}

/// Byzantine-model write: [`QuorumWrite::two_phase`] — `PreWrite` to an
/// `S − t` quorum, then `Commit` to an `S − t` quorum — exactly 2 rounds,
/// matching the write lower bound of reference \[1\].
///
/// The pre-write phase is what makes unauthenticated data attributable: any
/// process that later observes `w = ts` at a *correct* object can conclude
/// that `(ts, v)` was adopted by ≥ t+1 correct objects, because a correct
/// object only commits after the writer finished pre-writing at a full
/// quorum.
#[derive(Debug)]
pub struct ByzWriteClient(QuorumWrite);

impl ByzWriteClient {
    /// Write `pair` into `reg` (two-phase).
    pub fn new(cfg: ClusterConfig, reg: RegId, pair: Stamped) -> ByzWriteClient {
        ByzWriteClient(QuorumWrite::two_phase(cfg, reg, pair))
    }
}

impl RoundClient<Req, Rep> for ByzWriteClient {
    type Out = OpOutput;

    fn start(&mut self) -> Req {
        self.0.request()
    }

    fn on_reply(
        &mut self,
        from: ObjectId,
        _round: u32,
        reply: &Rep,
    ) -> ClientAction<Req, OpOutput> {
        write_step(&mut self.0, from, reply, OpOutput::Wrote)
    }
}

/// Byzantine regular read over one register: the collect engine wrapped as
/// a round client. Completes without writing (regular registers permit
/// non-writing readers; the *atomic* transformation adds the write-back).
#[derive(Debug)]
pub struct RegularReadClient {
    engine: CollectEngine,
    reg: RegId,
}

impl RegularReadClient {
    /// Unauthenticated regular read of `reg`.
    pub fn unauth(cfg: ClusterConfig, reg: RegId) -> RegularReadClient {
        RegularReadClient {
            engine: CollectEngine::unauth(cfg, vec![reg]),
            reg,
        }
    }

    /// Secret-value regular read of `reg` (single round).
    pub fn auth(cfg: ClusterConfig, reg: RegId, key: crate::token::AuthKey) -> RegularReadClient {
        RegularReadClient {
            engine: CollectEngine::auth(cfg, vec![reg], key),
            reg,
        }
    }

    /// With an explicit minimum round count (benchmarking the fast path).
    pub fn with_min_rounds(
        cfg: ClusterConfig,
        reg: RegId,
        key: Option<crate::token::AuthKey>,
        min_rounds: u32,
    ) -> RegularReadClient {
        RegularReadClient {
            engine: CollectEngine::with_min_rounds(cfg, vec![reg], key, min_rounds),
            reg,
        }
    }
}

impl RoundClient<Req, Rep> for RegularReadClient {
    type Out = OpOutput;

    fn start(&mut self) -> Req {
        self.engine.request()
    }

    fn on_reply(&mut self, from: ObjectId, round: u32, reply: &Rep) -> ClientAction<Req, OpOutput> {
        collect_step(&mut self.engine, from, round, reply).unwrap_or_else(|| {
            let out = self.engine.decisions()[&self.reg].pair.clone();
            ClientAction::Complete(OpOutput::Read(out))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::HonestObject;
    use rastor_common::{ClientId, OpKind, Timestamp, Value};
    use rastor_sim::{ObjectBehavior, Sim, SimConfig};

    fn stamped(ts: u64, v: u64) -> Stamped {
        Stamped::plain(TsVal::new(Timestamp(ts), Value::from_u64(v)))
    }

    fn sim_with_honest(n: usize) -> Sim<Req, Rep, OpOutput> {
        let mut sim = Sim::new(SimConfig::default());
        for _ in 0..n {
            sim.add_object(Box::new(HonestObject::new()));
        }
        sim
    }

    #[test]
    fn abd_write_then_read_roundtrip() {
        let cfg = ClusterConfig::crash(1).unwrap(); // S = 3
        let mut sim = sim_with_honest(3);
        sim.invoke_at(
            0,
            ClientId::writer(),
            OpKind::Write,
            Box::new(AbdWriteClient::new(cfg, RegId::WRITER, stamped(1, 11))),
        );
        sim.invoke_at(
            100,
            ClientId::reader(0),
            OpKind::Read,
            Box::new(AbdReadClient::new(cfg, RegId::WRITER)),
        );
        let done = sim.run_to_quiescence();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].stat.rounds.get(), 1, "ABD write is 1 round");
        assert_eq!(done[1].stat.rounds.get(), 2, "ABD read is 2 rounds");
        assert_eq!(done[1].output, OpOutput::Read(stamped(1, 11).pair));
    }

    #[test]
    fn byz_write_is_two_rounds() {
        let cfg = ClusterConfig::byzantine(1).unwrap(); // S = 4
        let mut sim = sim_with_honest(4);
        sim.invoke_at(
            0,
            ClientId::writer(),
            OpKind::Write,
            Box::new(ByzWriteClient::new(cfg, RegId::WRITER, stamped(1, 7))),
        );
        let done = sim.run_to_quiescence();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].stat.rounds.get(), 2);
        assert_eq!(done[0].output, OpOutput::Wrote(stamped(1, 7).pair));
    }

    #[test]
    fn regular_read_after_write_returns_it() {
        let cfg = ClusterConfig::byzantine(1).unwrap();
        let mut sim = sim_with_honest(4);
        sim.invoke_at(
            0,
            ClientId::writer(),
            OpKind::Write,
            Box::new(ByzWriteClient::new(cfg, RegId::WRITER, stamped(1, 42))),
        );
        sim.invoke_at(
            100,
            ClientId::reader(0),
            OpKind::Read,
            Box::new(RegularReadClient::unauth(cfg, RegId::WRITER)),
        );
        let done = sim.run_to_quiescence();
        assert_eq!(done.len(), 2);
        assert_eq!(done[1].output, OpOutput::Read(stamped(1, 42).pair));
        assert_eq!(
            done[1].stat.rounds.get(),
            2,
            "contention-free read is 2 rounds"
        );
    }

    #[test]
    fn regular_read_with_no_write_returns_bottom() {
        let cfg = ClusterConfig::byzantine(1).unwrap();
        let mut sim = sim_with_honest(4);
        sim.invoke_at(
            0,
            ClientId::reader(0),
            OpKind::Read,
            Box::new(RegularReadClient::unauth(cfg, RegId::WRITER)),
        );
        let done = sim.run_to_quiescence();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].output, OpOutput::Read(TsVal::bottom()));
    }

    #[test]
    fn auth_read_is_single_round() {
        let key = crate::token::AuthKey::new(3);
        let cfg = ClusterConfig::byzantine_auth(1).unwrap();
        let pair = TsVal::new(Timestamp(1), Value::from_u64(5));
        let signed = Stamped {
            token: Some(key.mint(&pair)),
            pair: pair.clone(),
        };
        let mut sim = sim_with_honest(4);
        sim.invoke_at(
            0,
            ClientId::writer(),
            OpKind::Write,
            Box::new(ByzWriteClient::new(cfg, RegId::WRITER, signed)),
        );
        sim.invoke_at(
            100,
            ClientId::reader(0),
            OpKind::Read,
            Box::new(RegularReadClient::auth(cfg, RegId::WRITER, key)),
        );
        let done = sim.run_to_quiescence();
        assert_eq!(done[1].stat.rounds.get(), 1, "token-model read is 1 round");
        assert_eq!(done[1].output, OpOutput::Read(pair));
    }

    #[test]
    fn byz_write_survives_silent_minority() {
        struct Silent;
        impl ObjectBehavior<Req, Rep> for Silent {
            fn on_request(&mut self, _from: ClientId, _req: &Req) -> Option<Rep> {
                None
            }
        }
        let cfg = ClusterConfig::byzantine(1).unwrap();
        let mut sim = sim_with_honest(3);
        sim.add_object(Box::new(Silent));
        sim.invoke_at(
            0,
            ClientId::writer(),
            OpKind::Write,
            Box::new(ByzWriteClient::new(cfg, RegId::WRITER, stamped(1, 1))),
        );
        let done = sim.run_to_quiescence();
        assert_eq!(done.len(), 1, "S−t = 3 correct objects suffice");
    }

    #[test]
    fn op_output_accessors() {
        let p = stamped(2, 9).pair;
        assert!(OpOutput::Read(p.clone()).is_read());
        assert!(!OpOutput::Wrote(p.clone()).is_read());
        assert_eq!(OpOutput::Wrote(p.clone()).pair(), &p);
    }
}
