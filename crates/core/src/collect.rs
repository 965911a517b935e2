//! The collect engine: the read-side decision core shared by every
//! Byzantine-model protocol in this crate.
//!
//! ## The unauthenticated decision rule
//!
//! A read collects [`ObjectView`]s and must pick a pair `(ts, v)` that is
//! simultaneously
//!
//! 1. **genuine** — actually produced by the writer, never forged; and
//! 2. **fresh** — at least as new as the last write that completed before
//!    the read was invoked (regularity).
//!
//! Without data authentication, a single report proves nothing (any one
//! object may be malicious), so both properties rest on counting:
//!
//! * **Authenticity** (`occ`): a pair vouched for by ≥ t+1 distinct objects
//!   has at least one correct voucher, and correct objects only ever adopt
//!   pairs the writer (or a reader writing back a genuine pair) produced.
//! * **Justifiability** (the paper's round-termination condition, Def. 1):
//!   a candidate `p` may be returned only when
//!   `#non-repliers + #repliers whose committed timestamp exceeds p ≤ t`.
//!   Rationale: the two-phase write guarantees that by the time `write(ts*)`
//!   completes, ≥ t+1 *correct* objects hold `w ≥ ts*` forever. If `p` were
//!   older than the last complete write, each of those t+1 objects would be
//!   either missing from the reply set or a higher-claimer, exceeding the
//!   fault budget — so the predicate can only fire for fresh candidates.
//!   Conversely the predicate eventually fires (wait-freedom): once every
//!   correct object has replied in a round that started after a claimed
//!   commit, the claimed pair has ≥ t+1 history vouchers, ratcheting the
//!   candidate upward; only genuinely concurrent writes can defer the
//!   decision, and only by one round each.
//!
//! ### What an object may forget
//!
//! An object remembers the **two largest** pairs it adopted per register
//! (`crate::object`), not all of them.
//!
//! *Safety does not depend on what is forgotten.* Every rule that returns a
//! pair — the unauthenticated rule, its ⊥ fallback, the authenticated
//! rule — reads `hist` only to **add** vouchers to `occ`; freshness (the
//! justifiability count) reads `pw`/`w` alone, and forgetting never
//! touches those. [`CollectEngine::fast_certificate`] does not read `hist`
//! at all. So on any reply set, a pair decided from views with history
//! entries deleted is vouched by ≥ t+1 and justifiable on the undeleted
//! views too, and is at most the pair they would decide: deletion can
//! delay a decision, never license one. (`collect_properties.rs` checks
//! exactly this.)
//!
//! *Liveness is why two is enough.* A pair `q` leaves an object only once
//! that object holds `m < x` above it in the same register. Each register
//! has one sequential issuer (writer `h` for `Writer(base + h)`, reader
//! `h`'s write-back for `ReaderReg(base + h)` — the precondition
//! `crate::mwmr`'s pipelining caveat states; ABD's multi-issuer `Store`
//! path reads `w` only), so `x` was issued after `m` completed and ≥ t+1
//! correct objects hold `w ≥ m > q` forever: no collect evaluated on
//! views that fresh can justify `q`, with or without its vouchers.
//!
//! Forgetting is not invisible, though. A read whose reply set mixes views
//! from before `m` with views from after it may find `q` vouched beside
//! objects that keep everything and unvouched beside objects that forget,
//! and then decide a different pair: one that is still legal for a read
//! spanning those writes, older or newer. `rastor_check` runs every
//! schedule of its three-writes script beside an object that never
//! forgets, with the read invoked at each tick that straddles the writes'
//! rounds (the *tick grid*), under every single-fault cast: no schedule
//! violates atomicity and no op takes a round more, but up to 90 of the
//! 2^16 schedules of a tick return another pair — beside an equivocator
//! `⊥` or 30 where the reference returns 10, and at tick 1 even with
//! every object honest (`exhaustive_tick_grid_*`; the replay is
//! `a_spanning_read_beside_an_equivocator_returns_another_legal_pair`).
//!
//! The engine therefore decides in 2 collect rounds in contention-free runs
//! (`min_rounds` defaults to 2, matching the worst-case round structure of
//! the paper's reference \[15\]) and in `2 + O(#interfering writes)` rounds
//! under write contention — the documented deviation in DESIGN.md.
//!
//! ## The fast-path certificate
//!
//! [`CollectEngine::fast_certificate`] lets a read return a pair `p` without
//! deciding and without writing back. It holds when `≥ S − t` distinct
//! objects report `w = p` in **one** register and no reply anywhere reports
//! a `pw` or `w` newer than `p`. The argument uses neither tokens nor the
//! round number, so the certificate is checked after every collect reply,
//! the first round's included:
//!
//! * **Durable.** Of the `S − t = 2t + 1` commit claims at most `t` are
//!   lies, so `≥ t + 1` correct objects hold `w ≥ p` in that register, and
//!   a correct object's `w` never decreases. That also makes `p` genuine.
//! * **Fresh.** A write that completed before the read began left
//!   `≥ t + 1` correct objects holding its pair (or newer) in `w`. Any
//!   `S − t` repliers include one of them, and that reply would be newer
//!   than `p` if `p` were stale.
//! * **Never undercut.** A later read's reply set includes one of the
//!   `t + 1` correct holders of `p`. Its justifiability count on that
//!   register forbids deciding below `p`, and its own certificate forbids a
//!   pair below that holder's `w`. So no new/old inversion follows a fast
//!   return.
//!
//! **The writer's half.** `crate::mwmr::MwWriteClient` asks the same
//! certificate after every reply of its tag collect, over all the writer
//! registers, and when it holds takes the tag after `p` and starts its
//! two-phase write: 1 + 2 = 3 rounds when quiet. A writer needs only that
//! its tag dominate every write that completed before it began:
//!
//! * **Dominating.** A completed write left `≥ t + 1` correct objects
//!   holding its pair (or newer) in `w`, so any `S − t` repliers include
//!   one of them. That reply claims a pair at least as new, and the
//!   newer-claim test makes `p` at least every claim. So `p`, and the tag
//!   after it, is at least every completed write's tag — the same
//!   argument as *Fresh*, for any register instead of one.
//! * **Unique.** The certificate says nothing about uniqueness. Two
//!   writers certified on the same `p` take `p.next_for(w)` for their own
//!   ids, which differ; one writer's successive writes rest on its
//!   sequential issuer (the pipelining caveat in `crate::mwmr`).
//! * **Never minted from a lie.** The `S − t` count keeps a Byzantine
//!   object's fabricated claim from becoming a tag: it blocks the
//!   certificate (it is newer than everything committed), and the
//!   decision that follows never adopts it either
//!   (`a_byzantine_higher_pre_write_blocks_the_fast_tag_and_mints_none`).
//!
//! Dominating needs no count at all, only the newest claim among `S − t`
//! repliers, so the writer needs less than the reader: `rastor_check`'s
//! writer foil drops the count and no sound-cast sweep catches it
//! (`exhaustive_sweeps_do_not_catch_the_newest_claim_writer`).
//!
//! Counting within one register is essential: the certificate must
//! intersect the quorum a future reader collects *on that register*, so
//! `S − t` commit claims spread over two registers certify nothing. The
//! newer-claim test is what detects contention (a write or write-back in
//! flight) and Byzantine skew.
//!
//! Checked by: `s_minus_t_minus_one_commits_do_not_certify`,
//! `a_newer_pre_write_in_another_register_blocks_the_certificate` and
//! `commits_spread_over_two_registers_do_not_certify` here;
//! `deleting_history_entries_never_licenses_a_decision` and
//! `decisions_are_fresh_and_genuine` in `collect_properties.rs`. Both
//! halves of the certificate are needed: `rastor_check` keeps two foils
//! that each weaken one, and its sweeps catch both
//! (`exhaustive_round_split_sweep_catches_the_thin_certificate`,
//! `exhaustive_sweep_catches_the_blind_certificate`).
//!
//! ## The authenticated (secret-value) rule
//!
//! With unforgeable tokens, authenticity is free: the maximum *valid* pair
//! across any `S − t` reply set already includes a report from at least one
//! correct member of the last complete write's commit quorum, so one round
//! suffices (`min_rounds` = 1) — this is what buys the paper's 3-round
//! atomic reads in the secret-value model.

use crate::msg::{AckKind, ObjectView, Rep, Req, Stamped};
use crate::token::AuthKey;
use rastor_common::{ClusterConfig, ObjectId, RegId, TsVal};
use std::collections::{BTreeMap, BTreeSet};

/// Progress report from [`CollectEngine::on_reply`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CollectStatus {
    /// Keep waiting for more replies in the current round.
    Wait,
    /// The current round is exhausted without a decision: broadcast the
    /// next collect round.
    NextRound,
    /// Every register has decided; results are available via
    /// [`CollectEngine::decisions`].
    Decided,
}

/// Read-side collect state over one or more logical registers.
///
/// Feed it every reply of every collect round; it tracks the latest view
/// per object, evaluates the decision rule after each reply, and reports
/// when to start another round (quorum heard, nothing decidable yet).
#[derive(Clone, Debug)]
pub struct CollectEngine {
    cfg: ClusterConfig,
    regs: Vec<RegId>,
    auth: Option<AuthKey>,
    min_rounds: u32,
    round: u32,
    views: BTreeMap<ObjectId, BTreeMap<RegId, ObjectView>>,
    round_repliers: BTreeSet<ObjectId>,
    decisions: BTreeMap<RegId, Stamped>,
}

impl CollectEngine {
    /// Engine for the unauthenticated Byzantine model (decides no earlier
    /// than round 2, per the worst-case round structure of \[15\]).
    pub fn unauth(cfg: ClusterConfig, regs: Vec<RegId>) -> CollectEngine {
        CollectEngine::with_min_rounds(cfg, regs, None, 2)
    }

    /// Engine for the secret-value model: single-round reads.
    pub fn auth(cfg: ClusterConfig, regs: Vec<RegId>, key: AuthKey) -> CollectEngine {
        CollectEngine::with_min_rounds(cfg, regs, Some(key), 1)
    }

    /// Fully parameterised constructor (exposed for benchmarks exploring
    /// the fast-path/fidelity trade-off).
    pub fn with_min_rounds(
        cfg: ClusterConfig,
        regs: Vec<RegId>,
        auth: Option<AuthKey>,
        min_rounds: u32,
    ) -> CollectEngine {
        assert!(!regs.is_empty(), "collect over no registers");
        CollectEngine {
            cfg,
            regs,
            auth,
            min_rounds: min_rounds.max(1),
            round: 1,
            views: BTreeMap::new(),
            round_repliers: BTreeSet::new(),
            decisions: BTreeMap::new(),
        }
    }

    /// The collect request to broadcast (same for every round).
    pub fn request(&self) -> Req {
        Req::Collect {
            regs: self.regs.clone(),
        }
    }

    /// Number of collect rounds issued so far.
    pub fn rounds(&self) -> u32 {
        self.round
    }

    /// Per-register decisions (complete once `Decided` is returned).
    pub fn decisions(&self) -> &BTreeMap<RegId, Stamped> {
        &self.decisions
    }

    /// The maximum decided pair across all registers (the transformation's
    /// return-value selection).
    pub fn max_decision(&self) -> Option<Stamped> {
        self.decisions
            .values()
            .max_by(|a, b| a.pair.cmp(&b.pair))
            .cloned()
    }

    /// Must be called when the enclosing client starts the next collect
    /// round (after receiving [`CollectStatus::NextRound`]).
    pub fn begin_round(&mut self) {
        self.round += 1;
        self.round_repliers.clear();
    }

    /// Ingest one reply (from any round — late replies still carry
    /// information; the latest view per object wins).
    pub fn on_reply(&mut self, from: ObjectId, round: u32, rep: &Rep) -> CollectStatus {
        if let Rep::Views { views } = rep {
            let entry = self.views.entry(from).or_default();
            for (reg, view) in views {
                if self.regs.contains(reg) {
                    entry.insert(*reg, view.clone());
                }
            }
            if round == self.round {
                self.round_repliers.insert(from);
            }
        } else {
            return CollectStatus::Wait; // stray ack: ignore
        }
        self.evaluate()
    }

    fn evaluate(&mut self) -> CollectStatus {
        if self.round >= self.min_rounds {
            for reg in self.regs.clone() {
                if self.decisions.contains_key(&reg) {
                    continue;
                }
                if let Some(d) = self.try_decide(reg) {
                    #[cfg(any(debug_assertions, feature = "ghost"))]
                    self.ghost_check_decision(reg, &d);
                    self.decisions.insert(reg, d);
                }
            }
        }
        if self.decisions.len() == self.regs.len() {
            return CollectStatus::Decided;
        }
        if self.round_repliers.len() >= self.cfg.quorum() {
            CollectStatus::NextRound
        } else {
            CollectStatus::Wait
        }
    }

    fn try_decide(&self, reg: RegId) -> Option<Stamped> {
        match self.auth {
            Some(key) => self.try_decide_auth(reg, key),
            None => self.try_decide_unauth(reg),
        }
    }

    /// The *fast-path certificate* over the replies so far: the pair `p`
    /// that some single register shows as **committed** (`w`) at `≥ S − t`
    /// distinct objects, provided no reply anywhere claims a pair newer
    /// than `p` (in `pw` or `w`). `None` until `S − t` objects have replied,
    /// and whenever no pair qualifies. It reads `pw`/`w` and the replier
    /// count only — not the round number, not `hist` — so it may be asked
    /// after any reply of any collect round, the first included (see
    /// "The fast-path certificate" above).
    pub fn fast_certificate(&self) -> Option<Stamped> {
        let quorum = self.cfg.quorum();
        if self.views.len() < quorum {
            return None;
        }
        // The newest claim anywhere: a certified pair must be it, since
        // nothing may claim to be newer.
        let top = self
            .views
            .values()
            .flat_map(BTreeMap::values)
            .flat_map(|v| [&v.w, &v.pw])
            .max_by(|a, b| a.pair.cmp(&b.pair))?;
        let committed_at_quorum = |reg: &RegId| {
            let at = |vs: &&BTreeMap<RegId, ObjectView>| {
                vs.get(reg).is_some_and(|v| v.w.pair == top.pair)
            };
            self.views.values().filter(at).count() >= quorum
        };
        self.regs
            .iter()
            .any(committed_at_quorum)
            .then(|| top.clone())
    }

    /// Ghost re-derivation of a decision certificate, independent of the
    /// candidate enumeration in [`CollectEngine::try_decide_unauth`]: `d`
    /// must be vouched (or ⊥/token-valid) and justifiable against the
    /// current reply set. Compiled out in release builds unless the `ghost`
    /// feature is on.
    #[cfg(any(debug_assertions, feature = "ghost"))]
    fn ghost_check_decision(&self, reg: RegId, d: &Stamped) {
        let t = self.cfg.fault_budget();
        let non_repliers = self.cfg.num_objects() - self.views.len();
        if let Some(key) = self.auth {
            assert!(
                self.is_valid(d, key),
                "ghost: decided pair fails token validation for {reg:?}: {d:?}"
            );
            return;
        }
        let vouchers = self
            .views
            .values()
            .filter(|vs| {
                vs.get(&reg)
                    .is_some_and(|v| v.pairs().into_iter().any(|s| s.pair == d.pair))
            })
            .count();
        assert!(
            d.pair.is_bottom() || vouchers >= self.cfg.vouch(),
            "ghost: decided pair has only {vouchers} vouchers for {reg:?}: {d:?}"
        );
        let higher = self
            .views
            .values()
            .filter(|vs| vs.get(&reg).is_some_and(|v| v.w.pair.ts > d.pair.ts))
            .count();
        assert!(
            non_repliers + higher <= t,
            "ghost: decision for {reg:?} not justifiable \
             ({non_repliers} non-repliers + {higher} higher-claimers > t = {t}): {d:?}"
        );
    }

    /// Secret-value rule: after a quorum of replies, return the maximum
    /// token-valid pair (⊥ counts as trivially valid).
    fn try_decide_auth(&self, reg: RegId, key: AuthKey) -> Option<Stamped> {
        if self.views.len() < self.cfg.quorum() {
            return None;
        }
        let mut best = Stamped::bottom();
        for views in self.views.values() {
            let Some(view) = views.get(&reg) else {
                continue;
            };
            for s in view.pairs() {
                if s.pair > best.pair && self.is_valid(s, key) {
                    best = s.clone();
                }
            }
        }
        Some(best)
    }

    fn is_valid(&self, s: &Stamped, key: AuthKey) -> bool {
        if s.pair.is_bottom() {
            return true;
        }
        match s.token {
            Some(tok) => key.verify(&s.pair, tok),
            None => false,
        }
    }

    /// Unauthenticated rule: maximum pair `p` with `occ(p) ≥ t+1` such that
    /// `#non-repliers + #higher-claimers(p) ≤ t`.
    fn try_decide_unauth(&self, reg: RegId) -> Option<Stamped> {
        let t = self.cfg.fault_budget();
        let s_total = self.cfg.num_objects();
        let non_repliers = s_total - self.views.len();
        if non_repliers > t {
            return None; // cannot justify terminating yet
        }

        // occ: distinct objects vouching for each pair (pw, w or history).
        let mut occ: BTreeMap<TsVal, (usize, Stamped)> = BTreeMap::new();
        // Bottom is vouched by objects whose fields are still initial.
        for views in self.views.values() {
            let Some(view) = views.get(&reg) else {
                continue;
            };
            // One object is one voucher however often its view repeats a
            // pair (a forged history may, as may differing tokens).
            let mut counted: Vec<&TsVal> = Vec::new();
            for s in view.pairs() {
                if counted.contains(&&s.pair) {
                    continue;
                }
                counted.push(&s.pair);
                let e = occ.entry(s.pair.clone()).or_insert((0, s.clone()));
                e.0 += 1;
            }
        }

        // Candidates in descending timestamp order.
        for (pair, (count, stamped)) in occ.iter().rev() {
            if *count < self.cfg.vouch() && !pair.is_bottom() {
                continue;
            }
            let higher_claimers = self
                .views
                .values()
                .filter(|vs| vs.get(&reg).map(|v| v.w.pair.ts > pair.ts).unwrap_or(false))
                .count();
            if non_repliers + higher_claimers <= t {
                return Some(stamped.clone());
            }
        }

        // ⊥ fallback when no object reported anything newer.
        let higher = self
            .views
            .values()
            .filter(|vs| {
                vs.get(&reg)
                    .map(|v| !v.w.pair.ts.is_bottom())
                    .unwrap_or(false)
            })
            .count();
        if non_repliers + higher <= t {
            return Some(Stamped::bottom());
        }
        None
    }
}

/// Progress report from [`QuorumWrite::on_reply`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriteStatus {
    /// Keep waiting for acks of the current phase.
    Wait,
    /// The current phase reached its quorum: broadcast
    /// [`QuorumWrite::request`] as the next round.
    NextRound,
    /// The last phase reached its quorum: the pair is written.
    Done,
}

/// The paper's regular *write* as a sub-automaton, the counterpart of
/// [`CollectEngine`]: broadcast one pair to one register phase by phase,
/// each phase waiting for acks of its own kind from an `S − t` quorum of
/// distinct objects. Every write and write-back in this crate is one of
/// these behind whatever collect decides the pair.
#[derive(Clone, Debug)]
pub struct QuorumWrite {
    cfg: ClusterConfig,
    reg: RegId,
    pair: Stamped,
    /// The phases still to run, current first.
    phases: &'static [AckKind],
    acks: BTreeSet<ObjectId>,
}

impl QuorumWrite {
    /// The Byzantine-model write: `PreWrite`, then `Commit` — 2 rounds.
    /// Observing the commit at one correct object implies the pre-write
    /// reached a full quorum, which is what makes unauthenticated data
    /// attributable.
    pub fn two_phase(cfg: ClusterConfig, reg: RegId, pair: Stamped) -> QuorumWrite {
        QuorumWrite::new(cfg, reg, pair, &[AckKind::PreWrite, AckKind::Commit])
    }

    /// The crash-model (ABD) write: a single `Store` round.
    pub fn store(cfg: ClusterConfig, reg: RegId, pair: Stamped) -> QuorumWrite {
        QuorumWrite::new(cfg, reg, pair, &[AckKind::Store])
    }

    fn new(cfg: ClusterConfig, reg: RegId, pair: Stamped, phases: &'static [AckKind]) -> Self {
        QuorumWrite {
            cfg,
            reg,
            pair,
            phases,
            acks: BTreeSet::new(),
        }
    }

    /// The pair being written.
    pub fn pair(&self) -> &Stamped {
        &self.pair
    }

    /// The current phase's request to broadcast.
    ///
    /// # Panics
    ///
    /// Panics after [`WriteStatus::Done`]: a finished write has no request.
    pub fn request(&self) -> Req {
        let (reg, pair) = (self.reg, self.pair.clone());
        match self.phases[0] {
            AckKind::Store => Req::Store { reg, pair },
            AckKind::PreWrite => Req::PreWrite { reg, pair },
            AckKind::Commit => Req::Commit { reg, pair },
        }
    }

    /// Feed one reply. Only an ack of the current phase's kind, for this
    /// register, from an object not yet counted in this phase, advances it.
    pub fn on_reply(&mut self, from: ObjectId, reply: &Rep) -> WriteStatus {
        let Some(&phase) = self.phases.first() else {
            return WriteStatus::Done;
        };
        if reply.is_ack(self.reg, phase) {
            self.acks.insert(from);
        }
        if self.acks.len() < self.cfg.quorum() {
            return WriteStatus::Wait;
        }
        self.acks.clear();
        self.phases = &self.phases[1..];
        if self.phases.is_empty() {
            WriteStatus::Done
        } else {
            WriteStatus::NextRound
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rastor_common::{Timestamp, Value};

    fn cfg() -> ClusterConfig {
        ClusterConfig::byzantine(1).unwrap() // S = 4, t = 1
    }

    fn stamped(ts: u64, v: u64) -> Stamped {
        Stamped::plain(TsVal::new(Timestamp(ts), Value::from_u64(v)))
    }

    fn view(pw: Stamped, w: Stamped, hist: Vec<Stamped>) -> Rep {
        Rep::Views {
            views: vec![(RegId::WRITER, ObjectView { pw, w, hist })],
        }
    }

    fn committed_view(ts: u64, v: u64) -> Rep {
        let s = stamped(ts, v);
        view(s.clone(), s.clone(), vec![s])
    }

    fn bottom_view() -> Rep {
        view(Stamped::bottom(), Stamped::bottom(), vec![])
    }

    fn engine() -> CollectEngine {
        CollectEngine::with_min_rounds(cfg(), vec![RegId::WRITER], None, 1)
    }

    #[test]
    fn quiescent_committed_state_decides() {
        let mut e = engine();
        // 3 of 4 objects report the committed pair; 1 silent (possibly faulty).
        for i in 0..3 {
            let st = e.on_reply(ObjectId(i), 1, &committed_view(5, 50));
            if i < 2 {
                assert_eq!(st, CollectStatus::Wait);
            } else {
                assert_eq!(st, CollectStatus::Decided);
            }
        }
        assert_eq!(e.decisions()[&RegId::WRITER], stamped(5, 50));
    }

    #[test]
    fn no_write_decides_bottom() {
        let mut e = engine();
        e.on_reply(ObjectId(0), 1, &bottom_view());
        e.on_reply(ObjectId(1), 1, &bottom_view());
        let st = e.on_reply(ObjectId(2), 1, &bottom_view());
        assert_eq!(st, CollectStatus::Decided);
        assert!(e.decisions()[&RegId::WRITER].pair.is_bottom());
    }

    #[test]
    fn lone_forged_high_pair_is_not_returned() {
        let mut e = engine();
        // One (Byzantine) object claims a high committed pair nobody else has.
        e.on_reply(ObjectId(0), 1, &committed_view(99, 666));
        e.on_reply(ObjectId(1), 1, &bottom_view());
        e.on_reply(ObjectId(2), 1, &bottom_view());
        let st = e.on_reply(ObjectId(3), 1, &bottom_view());
        // occ(99) = 1 < t+1 = 2, so 99 is not a candidate; ⊥ is justified
        // because the single higher-claimer fits in the fault budget.
        assert_eq!(st, CollectStatus::Decided);
        assert!(e.decisions()[&RegId::WRITER].pair.is_bottom());
    }

    #[test]
    fn one_object_repeating_a_pair_is_one_voucher() {
        let mut e = engine();
        // A lone forger lists its fabrication t + 1 times in its history.
        let forged = stamped(99, 666);
        let loud = view(
            forged.clone(),
            forged.clone(),
            vec![forged.clone(), forged.clone(), forged],
        );
        e.on_reply(ObjectId(0), 1, &loud);
        e.on_reply(ObjectId(1), 1, &bottom_view());
        e.on_reply(ObjectId(2), 1, &bottom_view());
        let st = e.on_reply(ObjectId(3), 1, &bottom_view());
        assert_eq!(st, CollectStatus::Decided);
        assert!(e.decisions()[&RegId::WRITER].pair.is_bottom());
    }

    #[test]
    fn single_genuine_report_blocks_rather_than_returns_stale() {
        let mut e = engine();
        // The scenario from the paper's model discussion: exactly one
        // correct object saw write(5); two correct objects are stale; one
        // object is silent. The reader must NOT decide (⊥ would be stale if
        // the write completed, (5,·) has only one voucher), and instead
        // waits / moves to another round.
        e.on_reply(ObjectId(0), 1, &committed_view(5, 50));
        e.on_reply(ObjectId(1), 1, &bottom_view());
        let st = e.on_reply(ObjectId(2), 1, &bottom_view());
        // Quorum heard (3 ≥ S−t) but undecidable: next round.
        assert_eq!(st, CollectStatus::NextRound);
    }

    #[test]
    fn history_vouchers_unblock_in_later_round() {
        let mut e = engine();
        e.on_reply(ObjectId(0), 1, &committed_view(5, 50));
        e.on_reply(ObjectId(1), 1, &bottom_view());
        assert_eq!(
            e.on_reply(ObjectId(2), 1, &bottom_view()),
            CollectStatus::NextRound
        );
        e.begin_round();
        // Round 2: the stragglers have now processed the write — histories
        // vouch for (5,50) at 3 objects.
        e.on_reply(ObjectId(1), 2, &committed_view(5, 50));
        let st = e.on_reply(ObjectId(2), 2, &committed_view(5, 50));
        assert_eq!(st, CollectStatus::Decided);
        assert_eq!(e.decisions()[&RegId::WRITER], stamped(5, 50));
    }

    #[test]
    fn min_rounds_defers_decision() {
        let mut e = CollectEngine::unauth(cfg(), vec![RegId::WRITER]);
        for i in 0..3 {
            let st = e.on_reply(ObjectId(i), 1, &committed_view(1, 10));
            assert_ne!(st, CollectStatus::Decided, "round 1 must not decide");
            if i == 2 {
                assert_eq!(st, CollectStatus::NextRound);
            }
        }
        e.begin_round();
        let st = e.on_reply(ObjectId(0), 2, &committed_view(1, 10));
        assert_eq!(st, CollectStatus::Decided, "round 2 may decide");
        assert_eq!(e.rounds(), 2);
    }

    #[test]
    fn stale_candidate_blocked_by_fresh_committers() {
        let mut e = engine();
        // Two objects already committed ts=2; two lag at ts=1's history.
        // occ(1) = 4 but two higher-claimers + 0 non-repliers = 2 > t = 1,
        // so ts=1 cannot be decided; ts=2 has occ 2 ≥ t+1 and no higher
        // claimers → decide (2, 20).
        let old = stamped(1, 10);
        let new = stamped(2, 20);
        let lag = view(old.clone(), old.clone(), vec![old.clone()]);
        let fresh = view(new.clone(), new.clone(), vec![old.clone(), new.clone()]);
        e.on_reply(ObjectId(0), 1, &fresh);
        e.on_reply(ObjectId(1), 1, &fresh);
        e.on_reply(ObjectId(2), 1, &lag);
        let st = e.on_reply(ObjectId(3), 1, &lag);
        assert_eq!(st, CollectStatus::Decided);
        assert_eq!(e.decisions()[&RegId::WRITER], new);
    }

    /// `S − t − 1` commit claims certify nothing, however many pre-write
    /// claims stand beside them; one more commit certifies, in round 1 of
    /// an engine that may not decide before round 2.
    #[test]
    fn s_minus_t_minus_one_commits_do_not_certify() {
        for t in 1..=3 {
            let cfg = ClusterConfig::byzantine(t).unwrap();
            let (s, quorum) = (cfg.num_objects(), cfg.quorum());
            let p = stamped(5, 50);
            let pre_written = view(p.clone(), Stamped::bottom(), vec![p.clone()]);
            let mut e = CollectEngine::unauth(cfg, vec![RegId::WRITER]);
            for i in 0..quorum - 1 {
                e.on_reply(ObjectId(i as u32), 1, &committed_view(5, 50));
            }
            for i in quorum - 1..s {
                e.on_reply(ObjectId(i as u32), 1, &pre_written);
                assert_eq!(e.fast_certificate(), None, "t = {t}: {quorum} − 1 commits");
            }
            e.on_reply(ObjectId(0), 1, &committed_view(5, 50));
            assert_eq!(e.fast_certificate(), None, "a repeated commit is one claim");
            e.on_reply(ObjectId(s as u32 - 1), 1, &committed_view(5, 50));
            assert_eq!(e.fast_certificate(), Some(p), "t = {t}: {quorum} commits");
            assert_eq!(e.rounds(), 1);
            assert!(
                e.decisions().is_empty(),
                "the certificate is not a decision"
            );
        }
    }

    /// Every object has committed the writer's pair, but one reports a
    /// newer pre-write in a reader's write-back register of the same
    /// group: a write-back is in flight, and the certificate must wait.
    #[test]
    fn a_newer_pre_write_in_another_register_blocks_the_certificate() {
        let regs = vec![RegId::WRITER, RegId::ReaderReg(0)];
        let p = stamped(3, 30);
        let newer = stamped(4, 40);
        let reply = |write_back: ObjectView| Rep::Views {
            views: vec![
                (
                    RegId::WRITER,
                    ObjectView {
                        pw: p.clone(),
                        w: p.clone(),
                        hist: vec![p.clone()],
                    },
                ),
                (RegId::ReaderReg(0), write_back),
            ],
        };
        let quiet = ObjectView::default();
        let in_flight = ObjectView {
            pw: newer.clone(),
            w: Stamped::bottom(),
            hist: vec![newer],
        };
        let mut e = CollectEngine::unauth(cfg(), regs.clone());
        e.on_reply(ObjectId(0), 1, &reply(in_flight));
        for i in 1..4 {
            e.on_reply(ObjectId(i), 1, &reply(quiet.clone()));
        }
        assert_eq!(e.fast_certificate(), None);

        let mut e = CollectEngine::unauth(cfg(), regs);
        for i in 0..3 {
            e.on_reply(ObjectId(i), 1, &reply(quiet.clone()));
        }
        assert_eq!(e.fast_certificate(), Some(p), "the quiet twin certifies");
    }

    /// `S − t` commit claims spread over two registers certify nothing:
    /// with one liar among the writer register's two claims, one correct
    /// object holds the pair there, and a later reader's quorum can miss
    /// it.
    #[test]
    fn commits_spread_over_two_registers_do_not_certify() {
        let p = stamped(2, 20);
        let committed = ObjectView {
            pw: p.clone(),
            w: p.clone(),
            hist: vec![p.clone()],
        };
        let reply = |writer: &ObjectView, reader: &ObjectView| Rep::Views {
            views: vec![
                (RegId::WRITER, writer.clone()),
                (RegId::ReaderReg(0), reader.clone()),
            ],
        };
        let quiet = ObjectView::default();
        let mut e = CollectEngine::unauth(cfg(), vec![RegId::WRITER, RegId::ReaderReg(0)]);
        e.on_reply(ObjectId(0), 1, &reply(&committed, &quiet));
        e.on_reply(ObjectId(1), 1, &reply(&committed, &quiet));
        e.on_reply(ObjectId(2), 1, &reply(&quiet, &committed));
        assert_eq!(e.fast_certificate(), None);
    }

    #[test]
    fn auth_engine_decides_on_single_valid_report() {
        let key = AuthKey::new(1);
        let mut e = CollectEngine::auth(cfg(), vec![RegId::WRITER], key);
        let pair = TsVal::new(Timestamp(4), Value::from_u64(44));
        let signed = Stamped {
            token: Some(key.mint(&pair)),
            pair,
        };
        let vw = view(signed.clone(), signed.clone(), vec![signed.clone()]);
        e.on_reply(ObjectId(0), 1, &vw);
        e.on_reply(ObjectId(1), 1, &bottom_view());
        let st = e.on_reply(ObjectId(2), 1, &bottom_view());
        assert_eq!(
            st,
            CollectStatus::Decided,
            "1 valid report suffices with tokens"
        );
        assert_eq!(e.decisions()[&RegId::WRITER], signed);
        assert_eq!(e.rounds(), 1);
    }

    #[test]
    fn auth_engine_rejects_bad_tokens() {
        let key = AuthKey::new(1);
        let wrong = AuthKey::new(2);
        let mut e = CollectEngine::auth(cfg(), vec![RegId::WRITER], key);
        let pair = TsVal::new(Timestamp(9), Value::from_u64(99));
        let forged = Stamped {
            token: Some(wrong.mint(&pair)),
            pair,
        };
        let vw = view(forged.clone(), forged.clone(), vec![forged]);
        e.on_reply(ObjectId(0), 1, &vw);
        e.on_reply(ObjectId(1), 1, &bottom_view());
        let st = e.on_reply(ObjectId(2), 1, &bottom_view());
        assert_eq!(st, CollectStatus::Decided);
        assert!(
            e.decisions()[&RegId::WRITER].pair.is_bottom(),
            "forged token must be ignored"
        );
    }

    #[test]
    fn multi_register_collect_decides_all() {
        let mut e = CollectEngine::with_min_rounds(
            cfg(),
            vec![RegId::WRITER, RegId::ReaderReg(0)],
            None,
            1,
        );
        let writer_pair = stamped(3, 30);
        let reader_pair = stamped(2, 20);
        let rep = Rep::Views {
            views: vec![
                (
                    RegId::WRITER,
                    ObjectView {
                        pw: writer_pair.clone(),
                        w: writer_pair.clone(),
                        hist: vec![writer_pair.clone()],
                    },
                ),
                (
                    RegId::ReaderReg(0),
                    ObjectView {
                        pw: reader_pair.clone(),
                        w: reader_pair.clone(),
                        hist: vec![reader_pair.clone()],
                    },
                ),
            ],
        };
        e.on_reply(ObjectId(0), 1, &rep);
        e.on_reply(ObjectId(1), 1, &rep);
        let st = e.on_reply(ObjectId(2), 1, &rep);
        assert_eq!(st, CollectStatus::Decided);
        assert_eq!(e.decisions().len(), 2);
        assert_eq!(e.max_decision().unwrap(), writer_pair);
    }

    #[test]
    #[should_panic(expected = "collect over no registers")]
    fn empty_register_set_is_rejected() {
        let _ = CollectEngine::unauth(cfg(), vec![]);
    }

    /// A phase advances only on `S − t = 3` acks of its own kind, for its
    /// own register, from distinct objects.
    #[test]
    fn quorum_write_ignores_wrong_kind_wrong_register_and_duplicates() {
        let ack = |reg, kind| Rep::Ack { reg, kind };
        let mut w = QuorumWrite::two_phase(cfg(), RegId::WRITER, stamped(1, 10));
        assert!(matches!(
            w.request(),
            Req::PreWrite {
                reg: RegId::WRITER,
                ..
            }
        ));
        let pre = ack(RegId::WRITER, AckKind::PreWrite);
        assert_eq!(w.on_reply(ObjectId(0), &pre), WriteStatus::Wait);
        assert_eq!(w.on_reply(ObjectId(1), &pre), WriteStatus::Wait);
        for (from, noise) in [
            (2, ack(RegId::WRITER, AckKind::Commit)), // wrong kind
            (2, ack(RegId::WRITER, AckKind::Store)),  // wrong kind
            (2, ack(RegId::ReaderReg(0), AckKind::PreWrite)), // wrong register
            (1, pre.clone()),                         // duplicate sender
            (3, Rep::Views { views: vec![] }),        // not an ack
        ] {
            assert_eq!(w.on_reply(ObjectId(from), &noise), WriteStatus::Wait);
        }
        assert_eq!(w.on_reply(ObjectId(2), &pre), WriteStatus::NextRound);
        assert!(matches!(
            w.request(),
            Req::Commit {
                reg: RegId::WRITER,
                ..
            }
        ));
        // The commit phase starts from zero: late pre-write acks count for
        // nothing, and the first phase's senders must ack again.
        let commit = ack(RegId::WRITER, AckKind::Commit);
        assert_eq!(w.on_reply(ObjectId(3), &pre), WriteStatus::Wait);
        assert_eq!(w.on_reply(ObjectId(0), &commit), WriteStatus::Wait);
        assert_eq!(w.on_reply(ObjectId(0), &commit), WriteStatus::Wait);
        assert_eq!(w.on_reply(ObjectId(1), &commit), WriteStatus::Wait);
        assert_eq!(w.on_reply(ObjectId(3), &commit), WriteStatus::Done);
        assert_eq!(w.pair(), &stamped(1, 10));

        let mut s = QuorumWrite::store(cfg(), RegId::WRITER, stamped(2, 20));
        assert!(matches!(s.request(), Req::Store { .. }));
        let stored = ack(RegId::WRITER, AckKind::Store);
        assert_eq!(s.on_reply(ObjectId(0), &commit), WriteStatus::Wait);
        assert_eq!(s.on_reply(ObjectId(0), &stored), WriteStatus::Wait);
        assert_eq!(s.on_reply(ObjectId(1), &stored), WriteStatus::Wait);
        assert_eq!(s.on_reply(ObjectId(2), &stored), WriteStatus::Done);
    }
}
