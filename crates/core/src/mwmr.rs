//! The multi-writer multi-reader extension (paper, Section 5: "multi-writer
//! atomic storage can be implemented by applying the standard
//! transformations further" \[4, 20\]).
//!
//! Construction: each of the `N` writers owns one SWMR register
//! (`Writer(i)`), and each reader owns one write-back register, all
//! multiplexed over the same `3t + 1` objects.
//!
//! * **mw-write(v)** by writer `i`: regular-read all `N` writer registers
//!   to learn the highest tag, then two-phase-write `(max_tag.next(i), v)`
//!   into `Writer(i)` (2 rounds). The tag collect ends after the first
//!   reply that completes a fast-path certificate
//!   ([`CollectEngine::fast_certificate`]), so a quiet write takes
//!   1 + 2 = **3 rounds**; without one it decides as a regular read does,
//!   in 2 or more collect rounds, so a contended write, or one beside a
//!   Byzantine object that claims a newer pair, takes 4 or more.
//! * **mw-read()** by reader `j`: regular-read all `N + R` registers in
//!   parallel (2 rounds), two-phase-write the maximum into the reader's
//!   own register (2 rounds), return it — 4 rounds, unchanged from SWMR.
//!
//! Tags are `(sequence, writer-id)` pairs packed into the 64-bit timestamp
//! (sequence in the high bits, writer id in the low [`TAG_BITS`] bits), so
//! ties between concurrent writers break deterministically by writer id —
//! the standard lexicographic tag order.
//!
//! Atomicity sketch: writes are totally ordered by tag (distinct writers
//! never produce equal tags); a write completing before another starts is
//! dominated because the later writer's collect sees the earlier tag
//! through its register (regularity, or the certificate's freshness:
//! `crate::collect`, "The fast-path certificate"); reads inherit the SWMR
//! transformation's no-inversion property through the write-back register.
//!
//! **Pipelining caveat**: tag uniqueness *within* one writer id relies on
//! that writer's operations on a register group being sequential (each
//! collect observes the previous write's tag). Two concurrent writes by
//! the same writer to the same group could both compute
//! `max_tag.next_for(w)` and mint colliding tags — so a pipelined driver
//! (see `rastor_sim::runtime::ThreadClient`) may overlap operations freely *across* groups
//! (the kv store: across keys) but must serialize same-writer operations
//! on one group. `rastor_kv` enforces this with its per-key in-flight
//! rule; the write-back register of reads needs the same discipline.
//! The same single-sequential-issuer precondition is what lets objects
//! forget all but a register's two largest pairs (`crate::collect`,
//! "What an object may forget").

use crate::clients::{collect_step, write_step, OpOutput};
use crate::collect::{CollectEngine, QuorumWrite};
use crate::msg::{Rep, Req, Stamped};
use rastor_common::{ClusterConfig, ObjectId, RegId, Timestamp, TsVal, Value};
use rastor_sim::{ClientAction, RoundClient};

/// Bits of the packed timestamp reserved for the writer id.
pub const TAG_BITS: u32 = 16;

/// A multi-writer tag: `(sequence, writer id)` with lexicographic order,
/// packed into a [`Timestamp`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Tag {
    /// The per-register sequence number.
    pub seq: u64,
    /// The writer that produced the tag.
    pub writer: u32,
}

impl Tag {
    /// Decode a packed timestamp.
    pub fn from_timestamp(ts: Timestamp) -> Tag {
        Tag {
            seq: ts.0 >> TAG_BITS,
            writer: (ts.0 & ((1 << TAG_BITS) - 1)) as u32,
        }
    }

    /// Pack into a timestamp (sequence dominates, writer id breaks ties).
    pub fn to_timestamp(self) -> Timestamp {
        assert!(self.writer < (1 << TAG_BITS), "writer id exceeds tag space");
        Timestamp((self.seq << TAG_BITS) | self.writer as u64)
    }

    /// The tag writer `w` uses to dominate this tag.
    #[must_use]
    pub fn next_for(self, w: u32) -> Tag {
        Tag {
            seq: self.seq + 1,
            writer: w,
        }
    }
}

/// The register groups of an MWMR deployment with `n` writers and `r`
/// readers.
pub fn mwmr_regs(n_writers: u32, n_readers: u32) -> Vec<RegId> {
    RegGroup::first(n_writers, n_readers).all_regs()
}

/// A contiguous block of MWMR registers multiplexed on one cluster: writer
/// registers `Writer(writer_base ..)` and write-back registers
/// `ReaderReg(reader_base ..)`.
///
/// Many groups can share the same physical objects — the sharded kv store
/// hosts one group per key (`writer_base = reader_base = key · H` for `H`
/// client handles), which is what makes per-key MWMR registers cheap: no
/// new processes, just disjoint register namespaces.
///
/// ```
/// use rastor_core::mwmr::RegGroup;
/// use rastor_common::RegId;
/// let g = RegGroup::keyed(2, 3); // key 2 of a store with 3 handles
/// assert_eq!(g.writer_reg(1), RegId::Writer(7));
/// assert_eq!(g.all_regs().len(), 6);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RegGroup {
    /// Index of the group's first writer register.
    pub writer_base: u32,
    /// Number of writers in the group.
    pub n_writers: u32,
    /// Index of the group's first write-back register.
    pub reader_base: u32,
    /// Number of readers in the group.
    pub n_readers: u32,
}

impl RegGroup {
    /// The group starting at register 0 (the classic single-group layout).
    pub fn first(n_writers: u32, n_readers: u32) -> RegGroup {
        RegGroup {
            writer_base: 0,
            n_writers,
            reader_base: 0,
            n_readers,
        }
    }

    /// The group of key `kid` in a store where every one of `n_handles`
    /// client handles acts as both writer `h` and reader `h` of each key.
    ///
    /// # Panics
    ///
    /// Panics if `kid * n_handles` overflows `u32` — wrapping would
    /// silently alias two keys' register groups (cross-key corruption).
    pub fn keyed(kid: u32, n_handles: u32) -> RegGroup {
        let base = kid
            .checked_mul(n_handles)
            .expect("register namespace exhausted: kid * n_handles overflows u32");
        RegGroup {
            writer_base: base,
            n_writers: n_handles,
            reader_base: base,
            n_readers: n_handles,
        }
    }

    /// The register written by the group's `w`-th writer.
    pub fn writer_reg(&self, w: u32) -> RegId {
        debug_assert!(w < self.n_writers, "writer index out of group");
        RegId::Writer(self.writer_base + w)
    }

    /// The write-back register owned by the group's `r`-th reader.
    pub fn reader_reg(&self, r: u32) -> RegId {
        debug_assert!(r < self.n_readers, "reader index out of group");
        RegId::ReaderReg(self.reader_base + r)
    }

    /// All writer registers of the group.
    pub fn writer_regs(&self) -> Vec<RegId> {
        (0..self.n_writers).map(|w| self.writer_reg(w)).collect()
    }

    /// All registers of the group (writers first, then write-backs).
    pub fn all_regs(&self) -> Vec<RegId> {
        let mut regs = self.writer_regs();
        regs.extend((0..self.n_readers).map(|r| self.reader_reg(r)));
        regs
    }
}

/// The multi-writer write automaton: a collect over the group's writer
/// registers to learn the highest tag, then a [`QuorumWrite`] of the
/// dominating pair into the writer's own register. The collect ends at the
/// first reply that completes a fast-path certificate, whose pair is the
/// highest tag (3 rounds when quiet), and otherwise at the engine's
/// decision (4 rounds or more). There is no option: unlike a read's, the
/// writer's certificate is sound in every deployment.
#[derive(Debug)]
pub struct MwWriteClient {
    cfg: ClusterConfig,
    writer: u32,
    own_reg: RegId,
    value: Value,
    engine: CollectEngine,
    /// The write of the tagged pair, once the collect phase is over.
    write: Option<QuorumWrite>,
}

impl MwWriteClient {
    /// A write of `value` by writer `writer` (of `n_writers`), in the
    /// classic single-group register layout.
    pub fn new(cfg: ClusterConfig, writer: u32, n_writers: u32, value: Value) -> MwWriteClient {
        MwWriteClient::in_group(cfg, writer, RegGroup::first(n_writers, 0), value)
    }

    /// A write of `value` by the group's `writer`-th writer, against an
    /// arbitrary [`RegGroup`] (used by the sharded kv store, one group per
    /// key). The collect phase reads only the group's writer registers.
    pub fn in_group(
        cfg: ClusterConfig,
        writer: u32,
        group: RegGroup,
        value: Value,
    ) -> MwWriteClient {
        assert!(writer < group.n_writers, "writer index out of range");
        MwWriteClient {
            cfg,
            writer,
            own_reg: group.writer_reg(writer),
            value,
            engine: CollectEngine::unauth(cfg, group.writer_regs()),
            write: None,
        }
    }
}

impl RoundClient<Req, Rep> for MwWriteClient {
    type Out = OpOutput;

    fn start(&mut self) -> Req {
        self.engine.request()
    }

    fn on_reply(&mut self, from: ObjectId, round: u32, reply: &Rep) -> ClientAction<Req, OpOutput> {
        if let Some(write) = &mut self.write {
            return write_step(write, from, reply, OpOutput::Wrote);
        }
        let step = collect_step(&mut self.engine, from, round, reply);
        let max_tag = if let Some(certified) = self.engine.fast_certificate() {
            // The certified pair is the newest claim of any replier and at
            // least every completed write's tag, in whichever round it holds.
            Tag::from_timestamp(certified.pair.ts)
        } else if let Some(action) = step {
            return action;
        } else {
            self.engine
                .decisions()
                .values()
                .map(|s| Tag::from_timestamp(s.pair.ts))
                .max()
                .unwrap_or_default()
        };
        let tag = max_tag.next_for(self.writer);
        let pair = Stamped::plain(TsVal::new(tag.to_timestamp(), self.value.clone()));
        let write = self
            .write
            .insert(QuorumWrite::two_phase(self.cfg, self.own_reg, pair));
        ClientAction::NextRound(write.request())
    }
}

/// The 4-round multi-writer read automaton: collect all writer and reader
/// registers, write the maximum back into the reader's own register.
pub fn mw_read_client(
    cfg: ClusterConfig,
    reader: u32,
    n_writers: u32,
    n_readers: u32,
) -> crate::transform::AtomicReadClient {
    mw_read_in_group(cfg, reader, RegGroup::first(n_writers, n_readers))
}

/// The 4-round multi-writer read automaton against an arbitrary
/// [`RegGroup`]: collect every register of the group, write the maximum
/// back into the group's `reader`-th write-back register.
pub fn mw_read_in_group(
    cfg: ClusterConfig,
    reader: u32,
    group: RegGroup,
) -> crate::transform::AtomicReadClient {
    mw_read_in_group_mode(cfg, reader, group, crate::transform::ReadMode::Slow)
}

/// [`mw_read_in_group`] with an explicit termination mode: under
/// [`ReadMode::Fast`](crate::transform::ReadMode::Fast) the read returns
/// after the first collect reply that carries a fast-path certificate (1
/// round when quiet), falling back to the full 4-round write-back otherwise.
pub fn mw_read_in_group_mode(
    cfg: ClusterConfig,
    reader: u32,
    group: RegGroup,
    mode: crate::transform::ReadMode,
) -> crate::transform::AtomicReadClient {
    assert!(reader < group.n_readers, "reader index out of range");
    crate::transform::AtomicReadClient::with_regs(cfg, group.reader_reg(reader), group.all_regs())
        .with_mode(mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::HonestObject;
    use rastor_common::{ClientId, OpKind};
    use rastor_sim::{Sim, SimConfig};

    fn sim_with_honest(n: usize) -> Sim<Req, Rep, OpOutput> {
        let mut sim = Sim::new(SimConfig::default());
        for _ in 0..n {
            sim.add_object(Box::new(HonestObject::new()));
        }
        sim
    }

    #[test]
    fn tag_packing_roundtrips_and_orders() {
        let a = Tag { seq: 5, writer: 2 };
        assert_eq!(Tag::from_timestamp(a.to_timestamp()), a);
        let b = Tag { seq: 5, writer: 3 };
        let c = Tag { seq: 6, writer: 0 };
        assert!(a.to_timestamp() < b.to_timestamp(), "writer id breaks ties");
        assert!(b.to_timestamp() < c.to_timestamp(), "sequence dominates");
        assert_eq!(a.next_for(7), Tag { seq: 6, writer: 7 });
    }

    #[test]
    #[should_panic(expected = "tag space")]
    fn tag_rejects_oversized_writer_ids() {
        let _ = Tag {
            seq: 1,
            writer: 1 << TAG_BITS,
        }
        .to_timestamp();
    }

    /// Two writers write sequentially; the later one must dominate.
    #[test]
    fn sequential_multi_writer_writes_are_ordered() {
        let cfg = ClusterConfig::byzantine(1).unwrap();
        let mut sim = sim_with_honest(4);
        // Using distinct ClientId::Reader slots as extra "writer" processes
        // would confuse roles; the sim only needs distinct clients, so we
        // model writer 1 as another client id.
        sim.invoke_at(
            0,
            ClientId::writer(),
            OpKind::Write,
            Box::new(MwWriteClient::new(cfg, 0, 2, Value::from_u64(10))),
        );
        sim.invoke_at(
            1_000,
            ClientId::reader(9), // stands in for writer 1
            OpKind::Write,
            Box::new(MwWriteClient::new(cfg, 1, 2, Value::from_u64(20))),
        );
        sim.invoke_at(
            2_000,
            ClientId::reader(0),
            OpKind::Read,
            Box::new(mw_read_client(cfg, 0, 2, 2)),
        );
        let done = sim.run_to_quiescence();
        assert_eq!(done.len(), 3);
        // Write rounds: 1 certified collect + 2 write = 3.
        assert_eq!(done[0].stat.rounds.get(), 3);
        assert_eq!(done[1].stat.rounds.get(), 3);
        // The second write saw the first and dominated it.
        let t0 = Tag::from_timestamp(done[0].output.pair().ts);
        let t1 = Tag::from_timestamp(done[1].output.pair().ts);
        assert_eq!(t0, Tag { seq: 1, writer: 0 });
        assert_eq!(t1, Tag { seq: 2, writer: 1 });
        // The read returns the dominant write.
        assert_eq!(done[2].output.pair().val, Value::from_u64(20));
        assert_eq!(done[2].stat.rounds.get(), 4);
    }

    /// An honest object that claims a sky-high pre-write in every register
    /// it reports.
    struct HighPreWrite(HonestObject);

    impl rastor_sim::ObjectBehavior<Req, Rep> for HighPreWrite {
        fn on_request(&mut self, _from: ClientId, req: &Req) -> Option<Rep> {
            let mut rep = self.0.apply(req);
            if let Rep::Views { views } = &mut rep {
                let forged = TsVal::new(Timestamp(u64::MAX / 2), Value::from_u64(0xDEAD));
                for (_, view) in views {
                    view.pw = Stamped::plain(forged.clone());
                }
            }
            Some(rep)
        }
    }

    /// Writer 0's put, with its commit round (round 3 of a certified
    /// write) held on the way to `held` objects, then writer 1's put at
    /// tick 100 (no writer 0 when `held` is empty), over four honest
    /// objects, object 0 a [`HighPreWrite`] when `forger`. Returns writer
    /// 1's rounds and tag.
    fn put_beside_a_stalled_put(held: &[u32], forger: bool) -> (u32, Tag) {
        use rastor_sim::control::Rule;
        use rastor_sim::{MsgDir, ScriptedController};
        let cfg = ClusterConfig::byzantine(1).unwrap();
        let objects = held.iter().map(|&o| ObjectId(o));
        let stall = Rule::hold(MsgDir::Request)
            .client(ClientId::writer())
            .round(3)
            .objects(objects);
        let controller = ScriptedController::new().with_rule(stall);
        let mut sim = Sim::with_controller(SimConfig::default(), Box::new(controller));
        for o in 0..4 {
            if forger && o == 0 {
                sim.add_object(Box::new(HighPreWrite(HonestObject::new())));
            } else {
                sim.add_object(Box::new(HonestObject::new()));
            }
        }
        if !held.is_empty() {
            sim.invoke_at(
                0,
                ClientId::writer(),
                OpKind::Write,
                Box::new(MwWriteClient::new(cfg, 0, 2, Value::from_u64(10))),
            );
        }
        sim.invoke_at(
            100,
            ClientId::reader(9),
            OpKind::Write,
            Box::new(MwWriteClient::new(cfg, 1, 2, Value::from_u64(20))),
        );
        let done = sim.run_to_quiescence();
        let put = done
            .iter()
            .find(|c| c.client == ClientId::reader(9))
            .expect("writer 1's put completes");
        (
            put.stat.rounds.get(),
            Tag::from_timestamp(put.output.pair().ts),
        )
    }

    /// Another writer's pre-write is everywhere and its commit nowhere: a
    /// newer claim than anything committed, so no certificate, and the put
    /// decides its tag in 2 collect rounds — 4 in all — above the
    /// in-flight one.
    #[test]
    fn an_in_flight_pre_write_makes_a_put_fall_back_to_four_rounds() {
        let (rounds, tag) = put_beside_a_stalled_put(&[0, 1, 2, 3], false);
        assert_eq!(rounds, 4);
        assert_eq!(tag, Tag { seq: 2, writer: 1 });
    }

    /// The other writer's commit reached `S − t − 1 = 2` objects: two
    /// commit claims certify nothing, so the put falls back to 4 rounds.
    #[test]
    fn s_minus_t_minus_one_commits_make_a_put_fall_back_to_four_rounds() {
        let (rounds, tag) = put_beside_a_stalled_put(&[2, 3], false);
        assert_eq!(rounds, 4);
        assert_eq!(tag, Tag { seq: 2, writer: 1 });
        // One more commit certifies: the same put is 3 rounds.
        let (rounds, tag) = put_beside_a_stalled_put(&[3], false);
        assert_eq!(rounds, 3);
        assert_eq!(tag, Tag { seq: 2, writer: 1 });
    }

    /// One object claims a sky-high pre-write: the newest claim, committed
    /// nowhere, so it blocks the certificate, and the put decides its tag
    /// without it — the first tag, not one above the forgery.
    #[test]
    fn a_byzantine_higher_pre_write_blocks_the_fast_tag_and_mints_none() {
        let (rounds, tag) = put_beside_a_stalled_put(&[], true);
        assert_eq!(rounds, 4);
        assert_eq!(tag, Tag { seq: 1, writer: 1 });
    }

    /// Concurrent writers produce distinct, totally ordered tags.
    #[test]
    fn concurrent_writers_break_ties_by_id() {
        let cfg = ClusterConfig::byzantine(1).unwrap();
        let mut sim = sim_with_honest(4);
        sim.invoke_at(
            0,
            ClientId::writer(),
            OpKind::Write,
            Box::new(MwWriteClient::new(cfg, 0, 2, Value::from_u64(10))),
        );
        sim.invoke_at(
            0,
            ClientId::reader(9),
            OpKind::Write,
            Box::new(MwWriteClient::new(cfg, 1, 2, Value::from_u64(20))),
        );
        let done = sim.run_to_quiescence();
        let tags: Vec<Tag> = done
            .iter()
            .map(|c| Tag::from_timestamp(c.output.pair().ts))
            .collect();
        assert_ne!(tags[0], tags[1], "tags are unique");
        // A subsequent read returns one of the two — the tag-maximal one.
        let sim2 = sim_with_honest(4);
        let _ = sim2; // (separate scenario not needed; tags checked above)
    }

    /// A read after both writes returns the lexicographic maximum.
    #[test]
    fn read_after_concurrent_writes_returns_max_tag() {
        let cfg = ClusterConfig::byzantine(1).unwrap();
        let mut sim = sim_with_honest(4);
        sim.invoke_at(
            0,
            ClientId::writer(),
            OpKind::Write,
            Box::new(MwWriteClient::new(cfg, 0, 2, Value::from_u64(10))),
        );
        sim.invoke_at(
            0,
            ClientId::reader(9),
            OpKind::Write,
            Box::new(MwWriteClient::new(cfg, 1, 2, Value::from_u64(20))),
        );
        sim.invoke_at(
            5_000,
            ClientId::reader(0),
            OpKind::Read,
            Box::new(mw_read_client(cfg, 0, 2, 1)),
        );
        let done = sim.run_to_quiescence();
        let max_write_tag = done
            .iter()
            .filter(|c| !c.output.is_read())
            .map(|c| Tag::from_timestamp(c.output.pair().ts))
            .max()
            .unwrap();
        let read = done.iter().find(|c| c.output.is_read()).unwrap();
        assert_eq!(Tag::from_timestamp(read.output.pair().ts), max_write_tag);
    }

    #[test]
    fn mwmr_reg_layout() {
        let regs = mwmr_regs(2, 3);
        assert_eq!(regs.len(), 5);
        assert_eq!(regs[0], RegId::Writer(0));
        assert_eq!(regs[4], RegId::ReaderReg(2));
    }
}
