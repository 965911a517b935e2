//! The regular→atomic transformation (paper, Section 5): the headline
//! construction achieving **2-round writes and 4-round reads** (3-round
//! reads in the secret-value model) — exactly matching the paper's lower
//! bounds.
//!
//! The transformation employs `R + 1` SWMR *regular* registers multiplexed
//! over the same `3t + 1` physical objects: one register owned by the
//! writer, plus one per reader into which that reader writes back the value
//! it read (footnote 6 of the paper, after \[4, 20\]).
//!
//! * **write(v)** — a two-phase Byzantine write into the writer's register:
//!   **2 rounds**.
//! * **read()** by reader `i` — two phases:
//!   1. *Collect*: regular-read all `R + 1` registers **in parallel** (one
//!      physical collect round serves every logical register, so this costs
//!      the regular read's 2 rounds — 1 with tokens);
//!   2. *Write-back*: two-phase-write the maximum pair found into the
//!      reader's own register: 2 rounds.
//!
//!   Total: **4 rounds** unauthenticated, **3 rounds** with secret values.
//!
//! ### Why this is atomic
//!
//! Regularity of the writer's register gives properties (1)–(3). For
//! property (4) (no new/old inversion): suppose read `rd1` by reader `i`
//! returns pair `p` and completes before read `rd2` starts. Before
//! completing, `rd1` finished a complete regular write of `p` into register
//! `reg[r_i]`. `rd2` regular-reads `reg[r_i]` and therefore obtains some
//! pair ≥ `p` from it (regularity property 2 applied to that register), so
//! `rd2`'s maximum is ≥ `p`.

use crate::clients::{collect_step, write_step, OpOutput};
use crate::collect::{CollectEngine, QuorumWrite};
use crate::msg::{Rep, Req, Stamped};
use crate::token::AuthKey;
use rastor_common::{ClusterConfig, ObjectId, RegId, TsVal};
use rastor_sim::{ClientAction, RoundClient};

pub use crate::clients::ByzWriteClient as AtomicWriteClient;

/// How an [`AtomicReadClient`] terminates its collect phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ReadMode {
    /// Always write back — the paper's unconditional 4-round protocol
    /// (3 rounds with secret values).
    #[default]
    Slow,
    /// Adaptive fast path: complete right after the collect phase (2
    /// rounds) when the decided pair carries a fast-path certificate
    /// ([`CollectEngine::fast_confirmed`] — a full write quorum committed
    /// it in one register and nobody claims anything newer), falling back
    /// to the full write-back under contention, suspicion, or Byzantine
    /// skew. Guaranteed 2-round reads are impossible at `S ≤ 4t` (paper,
    /// Theorem 2), which is why the fast path must be conditional.
    Fast,
}

/// The transformation's read automaton for reader `i`.
///
/// ```
/// use rastor_common::{ClusterConfig, RegId};
/// use rastor_core::transform::AtomicReadClient;
///
/// let cfg = ClusterConfig::byzantine(1)?;
/// // Reader 0 of a 2-reader deployment, unauthenticated model:
/// let _client = AtomicReadClient::unauth(cfg, 0, 2);
/// # Ok::<(), rastor_common::Error>(())
/// ```
#[derive(Debug)]
pub struct AtomicReadClient {
    cfg: ClusterConfig,
    own_reg: RegId,
    engine: CollectEngine,
    mode: ReadMode,
    /// The write-back of the decided pair, once the collect phase is over.
    write_back: Option<QuorumWrite>,
}

impl AtomicReadClient {
    fn over(cfg: ClusterConfig, own_reg: RegId, engine: CollectEngine) -> AtomicReadClient {
        AtomicReadClient {
            cfg,
            own_reg,
            engine,
            mode: ReadMode::Slow,
            write_back: None,
        }
    }

    /// Unauthenticated-model read by reader `reader` out of `num_readers`.
    /// Costs 4 rounds in contention-free runs.
    pub fn unauth(cfg: ClusterConfig, reader: u32, num_readers: u32) -> AtomicReadClient {
        let regs = RegId::transformation_set(num_readers);
        AtomicReadClient::over(
            cfg,
            RegId::ReaderReg(reader),
            CollectEngine::unauth(cfg, regs),
        )
    }

    /// Secret-value-model read: 3 rounds.
    pub fn auth(
        cfg: ClusterConfig,
        reader: u32,
        num_readers: u32,
        key: AuthKey,
    ) -> AtomicReadClient {
        let regs = RegId::transformation_set(num_readers);
        AtomicReadClient::over(
            cfg,
            RegId::ReaderReg(reader),
            CollectEngine::auth(cfg, regs, key),
        )
    }

    /// A read over an explicit register set (used when several logical
    /// SWMR registers — e.g. one group per key of a key-value store — are
    /// multiplexed over the same objects). `own_reg` must be the invoking
    /// reader's write-back register and a member of `regs`.
    pub fn with_regs(cfg: ClusterConfig, own_reg: RegId, regs: Vec<RegId>) -> AtomicReadClient {
        assert!(regs.contains(&own_reg), "own register must be collected");
        AtomicReadClient::over(cfg, own_reg, CollectEngine::unauth(cfg, regs))
    }

    /// Select the read's termination mode (default: [`ReadMode::Slow`]).
    #[must_use]
    pub fn with_mode(mut self, mode: ReadMode) -> AtomicReadClient {
        self.mode = mode;
        self
    }
}

impl RoundClient<Req, Rep> for AtomicReadClient {
    type Out = OpOutput;

    fn start(&mut self) -> Req {
        self.engine.request()
    }

    fn on_reply(&mut self, from: ObjectId, round: u32, reply: &Rep) -> ClientAction<Req, OpOutput> {
        if let Some(write_back) = &mut self.write_back {
            return write_step(write_back, from, reply, OpOutput::Read);
        }
        if let Some(action) = collect_step(&mut self.engine, from, round, reply) {
            return action;
        }
        let chosen = self
            .engine
            .max_decision()
            .expect("decided engines have decisions");
        if self.mode == ReadMode::Fast && self.engine.fast_confirmed(&chosen) {
            // Fast path: the certificate lets the read return without
            // writing back.
            return ClientAction::Complete(OpOutput::Read(chosen.pair));
        }
        let write_back =
            self.write_back
                .insert(QuorumWrite::two_phase(self.cfg, self.own_reg, chosen));
        ClientAction::NextRound(write_back.request())
    }
}

/// Convenience: the pair a write client should store for timestamp `ts` and
/// value `v`, minting a token when a key is supplied.
pub fn make_stamped(
    ts: rastor_common::Timestamp,
    val: rastor_common::Value,
    key: Option<&AuthKey>,
) -> Stamped {
    let pair = TsVal::new(ts, val);
    Stamped {
        token: key.map(|k| k.mint(&pair)),
        pair,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::HonestObject;
    use rastor_common::{ClientId, OpKind, Timestamp, Value};
    use rastor_sim::{Sim, SimConfig};

    fn sim_with_honest(n: usize) -> Sim<Req, Rep, OpOutput> {
        let mut sim = Sim::new(SimConfig::default());
        for _ in 0..n {
            sim.add_object(Box::new(HonestObject::new()));
        }
        sim
    }

    fn stamped(ts: u64, v: u64) -> Stamped {
        make_stamped(Timestamp(ts), Value::from_u64(v), None)
    }

    #[test]
    fn unauth_read_is_four_rounds_contention_free() {
        let cfg = ClusterConfig::byzantine(1).unwrap();
        let mut sim = sim_with_honest(4);
        sim.invoke_at(
            0,
            ClientId::writer(),
            OpKind::Write,
            Box::new(AtomicWriteClient::new(cfg, RegId::WRITER, stamped(1, 10))),
        );
        sim.invoke_at(
            100,
            ClientId::reader(0),
            OpKind::Read,
            Box::new(AtomicReadClient::unauth(cfg, 0, 2)),
        );
        let done = sim.run_to_quiescence();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].stat.rounds.get(), 2, "write: 2 rounds");
        assert_eq!(
            done[1].stat.rounds.get(),
            4,
            "read: 2 collect + 2 write-back"
        );
        assert_eq!(done[1].output, OpOutput::Read(stamped(1, 10).pair));
    }

    #[test]
    fn auth_read_is_three_rounds() {
        let key = AuthKey::new(11);
        let cfg = ClusterConfig::byzantine_auth(1).unwrap();
        let pair = make_stamped(Timestamp(1), Value::from_u64(3), Some(&key));
        let mut sim = sim_with_honest(4);
        sim.invoke_at(
            0,
            ClientId::writer(),
            OpKind::Write,
            Box::new(AtomicWriteClient::new(cfg, RegId::WRITER, pair.clone())),
        );
        sim.invoke_at(
            100,
            ClientId::reader(0),
            OpKind::Read,
            Box::new(AtomicReadClient::auth(cfg, 0, 2, key)),
        );
        let done = sim.run_to_quiescence();
        assert_eq!(
            done[1].stat.rounds.get(),
            3,
            "read: 1 collect + 2 write-back"
        );
        assert_eq!(done[1].output, OpOutput::Read(pair.pair));
    }

    #[test]
    fn read_with_no_write_returns_bottom_and_still_writes_back() {
        let cfg = ClusterConfig::byzantine(1).unwrap();
        let mut sim = sim_with_honest(4);
        sim.invoke_at(
            0,
            ClientId::reader(1),
            OpKind::Read,
            Box::new(AtomicReadClient::unauth(cfg, 1, 2)),
        );
        let done = sim.run_to_quiescence();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].output, OpOutput::Read(TsVal::bottom()));
        assert_eq!(done[0].stat.rounds.get(), 4);
    }

    #[test]
    fn sequential_readers_never_invert() {
        // rd1 returns the write; rd2 (a different reader, after rd1) must
        // also return it even though the writer's register might look stale
        // to it — it learns the value from rd1's write-back register.
        let cfg = ClusterConfig::byzantine(1).unwrap();
        let mut sim = sim_with_honest(4);
        sim.invoke_at(
            0,
            ClientId::writer(),
            OpKind::Write,
            Box::new(AtomicWriteClient::new(cfg, RegId::WRITER, stamped(1, 77))),
        );
        sim.invoke_at(
            50,
            ClientId::reader(0),
            OpKind::Read,
            Box::new(AtomicReadClient::unauth(cfg, 0, 2)),
        );
        sim.invoke_at(
            200,
            ClientId::reader(1),
            OpKind::Read,
            Box::new(AtomicReadClient::unauth(cfg, 1, 2)),
        );
        let done = sim.run_to_quiescence();
        assert_eq!(done.len(), 3);
        let r0 = done
            .iter()
            .find(|c| c.client == ClientId::reader(0))
            .unwrap();
        let r1 = done
            .iter()
            .find(|c| c.client == ClientId::reader(1))
            .unwrap();
        let p0 = match &r0.output {
            OpOutput::Read(p) => p.clone(),
            _ => panic!(),
        };
        let p1 = match &r1.output {
            OpOutput::Read(p) => p.clone(),
            _ => panic!(),
        };
        assert!(r0.stat.completed_at <= r1.stat.invoked_at);
        assert!(p1 >= p0, "no new/old inversion");
    }

    #[test]
    fn fast_read_completes_in_two_rounds_when_quiescent() {
        let cfg = ClusterConfig::byzantine(1).unwrap();
        let mut sim = sim_with_honest(4);
        sim.invoke_at(
            0,
            ClientId::writer(),
            OpKind::Write,
            Box::new(AtomicWriteClient::new(cfg, RegId::WRITER, stamped(1, 10))),
        );
        sim.invoke_at(
            100,
            ClientId::reader(0),
            OpKind::Read,
            Box::new(AtomicReadClient::unauth(cfg, 0, 2).with_mode(ReadMode::Fast)),
        );
        let done = sim.run_to_quiescence();
        assert_eq!(done.len(), 2);
        assert_eq!(
            done[1].stat.rounds.get(),
            2,
            "uncontended fast read: collect only"
        );
        assert_eq!(done[1].output, OpOutput::Read(stamped(1, 10).pair));
    }

    #[test]
    fn fast_read_falls_back_when_commit_is_in_flight() {
        use rastor_sim::control::Rule;
        use rastor_sim::ScriptedController;
        let cfg = ClusterConfig::byzantine(1).unwrap();
        // Hold the writer's commit round in transit: every object has
        // pre-written the pair but none committed it — the decided pair has
        // zero commit confirmers, so the fast path must write back.
        let ctl = ScriptedController::new()
            .with_rule(Rule::slow_all(100_000).client(ClientId::writer()).round(2));
        let mut sim: Sim<Req, Rep, OpOutput> =
            Sim::with_controller(SimConfig::default(), Box::new(ctl));
        for _ in 0..4 {
            sim.add_object(Box::new(HonestObject::new()));
        }
        sim.invoke_at(
            0,
            ClientId::writer(),
            OpKind::Write,
            Box::new(AtomicWriteClient::new(cfg, RegId::WRITER, stamped(1, 10))),
        );
        sim.invoke_at(
            100,
            ClientId::reader(0),
            OpKind::Read,
            Box::new(AtomicReadClient::unauth(cfg, 0, 2).with_mode(ReadMode::Fast)),
        );
        let done = sim.run_to_quiescence();
        let read = done.iter().find(|c| c.output.is_read()).unwrap();
        assert_eq!(
            read.stat.rounds.get(),
            4,
            "contended fast read falls back to the full protocol"
        );
        assert_eq!(read.output, OpOutput::Read(stamped(1, 10).pair));
    }

    #[test]
    fn fast_bottom_read_skips_the_write_back() {
        let cfg = ClusterConfig::byzantine(1).unwrap();
        let mut sim = sim_with_honest(4);
        sim.invoke_at(
            0,
            ClientId::reader(1),
            OpKind::Read,
            Box::new(AtomicReadClient::unauth(cfg, 1, 2).with_mode(ReadMode::Fast)),
        );
        let done = sim.run_to_quiescence();
        assert_eq!(done[0].output, OpOutput::Read(TsVal::bottom()));
        assert_eq!(done[0].stat.rounds.get(), 2, "nothing claimed: fast ⊥");
    }

    #[test]
    fn make_stamped_mints_token_only_with_key() {
        let key = AuthKey::new(4);
        let plain = make_stamped(Timestamp(1), Value::from_u64(1), None);
        assert!(plain.token.is_none());
        let signed = make_stamped(Timestamp(1), Value::from_u64(1), Some(&key));
        assert!(key.verify(&signed.pair, signed.token.unwrap()));
    }
}
