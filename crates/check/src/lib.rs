//! # rastor-check
//!
//! A schedule explorer for the register protocols of *"The Complexity of
//! Robust Atomic Storage"* (PODC'11): it drives the deterministic simulator
//! through **exhaustively enumerated** and **seeded-random** message
//! schedules and checks every run against the paper's atomicity properties
//! plus the always-on ghost invariants compiled into `rastor_core`.
//!
//! ## Three exploration axes
//!
//! 1. **Delay-rule masks** ([`Scenario::sweep`]): a finite universe of
//!    per-(operation, object) delay rules is enumerated exhaustively — every
//!    subset of rules is one schedule. A subset stretches chosen message
//!    round-trips by [`DELAY`] ticks, opening exactly the windows (e.g. a
//!    pre-write visible on a sub-quorum of objects) that the paper's
//!    adversary exploits; a scenario may also give each write's commit
//!    round a bit per object ([`Scenario::split_commits`]), which leaves an
//!    object pre-written but not committed. Failing masks are shrunk to a
//!    minimal repro by greedy rule-dropping ([`Scenario::minimize`]) and
//!    replayed by re-running the same mask — the sim is deterministic.
//!    The same rules drive the deployed substrate's object host:
//!    [`Scenario::run_mask_threaded`] runs a mask on a
//!    [`rastor_sim::ThreadCluster`], on wall time.
//! 2. **Held-message schedules** ([`Scenario::run_random`]): every message
//!    is held in transit and a [`rastor_sim::Scheduler`] picks the delivery
//!    order. [`RandomScheduler`] makes seeded-random picks (replay = same
//!    seed) and can replay a recorded prefix with one pick changed —
//!    schedule perturbation around a known-interesting run.
//! 3. **Byzantine casts** ([`Cast`]): a fault assignment over the object
//!    slots — per-object [`FaultKind`] behaviors (crash-at-round-k,
//!    stale replay, equivocation, silence) composed with either of the
//!    scheduling axes above; every entry point takes one
//!    ([`Cast::honest`] for none). The sweeps assert the paper's
//!    resilience boundary from both sides: every `≤ t` cast stays clean
//!    across every enumerated schedule, while a `t + 1` cast yields a
//!    `check_atomic` witness that the explorer finds, minimizes and
//!    replays.
//!
//! Where exhaustion is out of reach (t = 2 clusters, 3+ concurrent ops),
//! [`Scenario::explore`] runs a wall-clock-budgeted mix of seeded
//! random schedules, their one-step perturbation neighborhoods, and random
//! delay masks, shrinking any find with [`Scenario::minimize`].
//! The same falsification loop covers the TCP substrate via the
//! [`netchaos`] module: seeded drop/reorder/partition searches over
//! socket deployments whose hosts draw each object's link faults, with
//! minimized `target/model-check/` reports.
//!
//! ## What counts as a violation
//!
//! [`Scenario::violations_of`] is [`rastor_core::checker::judge`] over the
//! run's one register — an op that never completed (wait-freedom) or any
//! [`rastor_core::History::check_atomic`] violation, the same verdict kv
//! soaks and the TCP search are held to — plus any panic from the ghost
//! invariants inside the protocol automata.
//!
//! ## A reference that never forgets
//!
//! Honest objects keep a register's two newest pairs. The
//! `*_spanning_read` scenarios write one register three times, so objects
//! forget in them, and [`Scenario::sweep_beside_never_forgets`] runs every
//! mask a second time on a private object that keeps everything — the
//! protocol as it was — comparing returned pairs and round counts op by
//! op. [`scenario_three_writes_read_at`] moves the read's invocation tick,
//! so a test can sweep a grid of ticks: no tick shows a violation or an
//! extra round, and some show a read returning another legal pair.
//!
//! The crate's integration tests (`cargo test -p rastor_check -- exhaustive`)
//! prove both soundness evidence — zero violations across every enumerated
//! schedule for slow *and* fast read paths — and checker efficacy: the
//! deliberately unsound [`ReadPath::UnsoundFast`] read and the two
//! weakened fast-path certificates ([`ReadPath::ThinCertificate`],
//! [`ReadPath::BlindCertificate`]), which exist only in this crate, are
//! caught, minimized and replayed. The writer's weakened certificate
//! ([`ReadPath::NewestClaimWrite`]) is the exception that shows what the
//! writer needs: no sweep within the fault budget catches it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod netchaos;

use rastor_common::{
    ClientId, ClusterConfig, ObjectId, OpKind, OpStat, RegId, RoundCount, SplitMix64, Timestamp,
    TsVal, Value,
};
use rastor_core::checker::judge;
use rastor_core::collect::{QuorumWrite, WriteStatus};
use rastor_core::mwmr::{mw_read_in_group_mode, MwWriteClient, RegGroup, Tag};
use rastor_core::transform::AtomicReadClient;
use rastor_core::{
    FaultKind, History, HonestObject, ObjectView, OpOutput, ReadMode, Rep, Req, Stamped,
};
use rastor_sim::control::Rule;
use rastor_sim::runtime::{ThreadClient, ThreadCluster};
use rastor_sim::{
    ClientAction, Completion, Controller, Msg, MsgId, ObjectBehavior, RoundClient,
    ScriptedController, Sim, SimConfig, StalePolicy, Verdict,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A scenario's object battery, one behavior per slot; `Send`, so the
/// same battery runs in the simulator or on a [`ThreadCluster`].
pub type Objects = Vec<Box<dyn ObjectBehavior<Req, Rep> + Send>>;

/// How long [`Scenario::run_mask_threaded`] waits for one op to complete.
pub const THREADED_DEADLINE: Duration = Duration::from_secs(2);

/// Extra latency (each way) injected by one enabled delay rule.
///
/// Large relative to the unit base delay so that a delayed round-trip opens
/// a wide window in which undelayed operations run start to finish.
pub const DELAY: u64 = 2_000;

/// One operation of a [`Scenario`] script.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpSpec {
    /// Writer `writer` writes `value` (as a u64 payload), invoked at `at`.
    Write {
        /// Invocation time.
        at: u64,
        /// Writer index within the group.
        writer: u32,
        /// Value payload.
        value: u64,
    },
    /// Reader `reader` reads, invoked at `at`.
    Read {
        /// Invocation time.
        at: u64,
        /// Reader index within the group.
        reader: u32,
    },
}

impl OpSpec {
    /// The op's scripted invocation time.
    pub fn at(&self) -> u64 {
        match *self {
            OpSpec::Write { at, .. } | OpSpec::Read { at, .. } => at,
        }
    }
}

/// The verdict of one explored schedule.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Completions the run produced (in completion order).
    pub completions: Vec<Completion<OpOutput>>,
    /// Human-readable violation descriptions; empty means the run is clean.
    pub violations: Vec<String>,
}

impl Outcome {
    /// Whether the schedule produced no violation.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The largest round count of any op that completed (0 if none did).
    pub fn max_rounds(&self) -> u32 {
        let rounds = self.completions.iter().map(|c| c.stat.rounds.get());
        rounds.max().unwrap_or(0)
    }
}

/// A failing schedule found by [`Scenario::sweep`].
#[derive(Clone, Debug)]
pub struct Failure {
    /// The delay-rule mask that failed.
    pub mask: u64,
    /// What went wrong.
    pub violations: Vec<String>,
}

/// How a scenario's reads terminate their collect phase: the two
/// deployable [`ReadMode`]s, plus the explorer's own broken one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadPath {
    /// [`ReadMode::Slow`]: always write back (4 rounds).
    Slow,
    /// [`ReadMode::Fast`]: return after the collect when it carries a
    /// fast-path certificate, write back otherwise.
    Fast,
    /// Return after the collect *unconditionally* — a fast path with the
    /// confirmation certificate check skipped (a wrapper automaton). It
    /// violates atomicity, and exists to prove the explorer notices.
    UnsoundFast,
    /// [`ReadPath::Fast`] with a thinner certificate: `t + 1` commit
    /// claims in one register instead of `S − t`, the newer-claim test
    /// kept. A foil: when one of the `t + 1` claims is a `≤ t`
    /// equivocator's, it returns a pair one correct object has committed,
    /// which a later reader's quorum can miss; the round-split sweep of
    /// [`scenario_write_then_two_readers`] catches the new/old inversion
    /// that follows.
    ThinCertificate,
    /// [`ReadPath::Fast`] with a certificate blind to newer claims: `S − t`
    /// commit claims in one register, the newer-claim test dropped. A
    /// foil the per-(op, object) sweeps already catch.
    BlindCertificate,
    /// [`ReadPath::Fast`] reads beside a thinned *writer*: each write takes
    /// the newest `pw`/`w` claim among the first `S − t` objects to reply
    /// and mints the tag after it, with no commit count at all — a tag
    /// collect that always ends after its first round. The foil for the
    /// writer's half of the certificate argument.
    NewestClaimWrite,
}

/// [`ReadPath::UnsoundFast`]: a slow read cut short the moment it decides.
/// The inner automaton ends its collect by opening the write-back with
/// `PreWrite(pair)`; this wrapper returns `pair` right there — 2 rounds, no
/// certificate, no write-back.
struct UnsoundFastRead(AtomicReadClient);

impl RoundClient<Req, Rep> for UnsoundFastRead {
    type Out = OpOutput;

    fn start(&mut self) -> Req {
        self.0.start()
    }

    fn on_reply(&mut self, from: ObjectId, round: u32, reply: &Rep) -> ClientAction<Req, OpOutput> {
        match self.0.on_reply(from, round, reply) {
            ClientAction::NextRound(Req::PreWrite { pair, .. }) => {
                ClientAction::Complete(OpOutput::Read(pair.pair))
            }
            other => other,
        }
    }
}

/// [`ReadPath::ThinCertificate`] and [`ReadPath::BlindCertificate`]: a slow
/// read that, like [`ReadMode::Fast`], returns after any collect reply that
/// carries its certificate — here a weakened copy of
/// `CollectEngine::fast_certificate`, evaluated on the views this wrapper
/// keeps. Without a certificate the inner slow read decides and writes
/// back, as the sound fast path does.
struct WeakCertificateRead {
    inner: AtomicReadClient,
    quorum: usize,
    regs: Vec<RegId>,
    /// Commit claims the certificate needs in one register.
    commits: usize,
    /// Whether a newer `pw`/`w` claim anywhere blocks the certificate.
    newer_test: bool,
    /// The latest view per object and register, until the write-back.
    views: BTreeMap<ObjectId, BTreeMap<RegId, ObjectView>>,
    writing_back: bool,
}

impl WeakCertificateRead {
    fn certified(&self) -> Option<TsVal> {
        if self.views.len() < self.quorum {
            return None;
        }
        let mut best = None;
        for reg in &self.regs {
            let mut claims: BTreeMap<&TsVal, usize> = BTreeMap::new();
            for v in self.views.values().filter_map(|vs| vs.get(reg)) {
                *claims.entry(&v.w.pair).or_default() += 1;
            }
            let top = claims.into_iter().rev().find(|&(_, n)| n >= self.commits);
            best = best.max(top.map(|(p, _)| p));
        }
        let p = best?;
        let mut all = self.views.values().flat_map(BTreeMap::values);
        let newer = all.any(|v| v.pw.pair > *p || v.w.pair > *p);
        (!(self.newer_test && newer)).then(|| p.clone())
    }
}

impl RoundClient<Req, Rep> for WeakCertificateRead {
    type Out = OpOutput;

    fn start(&mut self) -> Req {
        self.inner.start()
    }

    fn on_reply(&mut self, from: ObjectId, round: u32, reply: &Rep) -> ClientAction<Req, OpOutput> {
        let action = self.inner.on_reply(from, round, reply);
        if self.writing_back {
            return action;
        }
        if let Rep::Views { views } = reply {
            let entry = self.views.entry(from).or_default();
            for (reg, view) in views.iter().filter(|(reg, _)| self.regs.contains(reg)) {
                entry.insert(*reg, view.clone());
            }
        }
        if let Some(pair) = self.certified() {
            return ClientAction::Complete(OpOutput::Read(pair));
        }
        self.writing_back = matches!(action, ClientAction::NextRound(Req::PreWrite { .. }));
        action
    }
}

/// [`ReadPath::NewestClaimWrite`]'s write: after the first `S − t`
/// collect replies, tag the value after the newest claim any of them
/// makes, then write it in two phases.
struct NewestClaimWrite {
    cfg: ClusterConfig,
    writer: u32,
    group: RegGroup,
    value: Value,
    /// The newest `pw`/`w` claim per replier.
    claims: BTreeMap<ObjectId, Timestamp>,
    write: Option<QuorumWrite>,
}

impl RoundClient<Req, Rep> for NewestClaimWrite {
    type Out = OpOutput;

    fn start(&mut self) -> Req {
        Req::Collect {
            regs: self.group.writer_regs(),
        }
    }

    fn on_reply(
        &mut self,
        from: ObjectId,
        _round: u32,
        reply: &Rep,
    ) -> ClientAction<Req, OpOutput> {
        if let Some(write) = &mut self.write {
            return match write.on_reply(from, reply) {
                WriteStatus::Wait => ClientAction::Wait,
                WriteStatus::NextRound => ClientAction::NextRound(write.request()),
                WriteStatus::Done => {
                    ClientAction::Complete(OpOutput::Wrote(write.pair().pair.clone()))
                }
            };
        }
        let Rep::Views { views } = reply else {
            return ClientAction::Wait;
        };
        let newest = views
            .iter()
            .flat_map(|(_, v)| [v.pw.pair.ts, v.w.pair.ts])
            .max();
        let claim = self.claims.entry(from).or_default();
        *claim = newest.unwrap_or_default().max(*claim);
        if self.claims.len() < self.cfg.quorum() {
            return ClientAction::Wait;
        }
        let top = self.claims.values().max().copied().unwrap_or_default();
        let tag = Tag::from_timestamp(top).next_for(self.writer);
        let pair = Stamped::plain(TsVal::new(tag.to_timestamp(), self.value.clone()));
        let reg = self.group.writer_reg(self.writer);
        let write = self
            .write
            .insert(QuorumWrite::two_phase(self.cfg, reg, pair));
        ClientAction::NextRound(write.request())
    }
}

/// The round in which each write of a run issued its commit, by
/// `(client, op_seq)`. A write's commit round depends on how its tag
/// collect ended — round 3 after a certified first collect, round 4 or
/// later otherwise — so a split-commit bit ([`Scenario::split_commits`])
/// matches the round the write itself reports, not a fixed number.
type CommitRounds = Arc<Mutex<BTreeMap<(ClientId, u64), u32>>>;

/// A write automaton that reports its commit round into a
/// [`CommitRounds`] as it opens it, before any copy of the round is sent.
struct MarksCommit {
    inner: Box<dyn RoundClient<Req, Rep, Out = OpOutput>>,
    op: (ClientId, u64),
    round: u32,
    commits: CommitRounds,
}

impl RoundClient<Req, Rep> for MarksCommit {
    type Out = OpOutput;

    fn start(&mut self) -> Req {
        self.inner.start()
    }

    fn on_reply(&mut self, from: ObjectId, round: u32, reply: &Rep) -> ClientAction<Req, OpOutput> {
        let action = self.inner.on_reply(from, round, reply);
        if let ClientAction::NextRound(req) = &action {
            self.round += 1;
            if matches!(req, Req::Commit { .. }) {
                let mut commits = self.commits.lock().expect("commit rounds");
                commits.insert(self.op, self.round);
            }
        }
        action
    }
}

/// The controller a delay mask induces: its per-(op, object) rules, then
/// its split-commit bits, each delaying one write's commit round to one
/// object by [`DELAY`] extra ticks, each way.
struct MaskController {
    rules: ScriptedController,
    /// `(client, op_seq, object)` per split-commit bit set.
    commits: Vec<(ClientId, u64, ObjectId)>,
    commit_rounds: CommitRounds,
}

impl MaskController {
    fn new(rules: ScriptedController) -> MaskController {
        MaskController {
            rules,
            commits: Vec::new(),
            commit_rounds: CommitRounds::default(),
        }
    }
}

impl Controller for MaskController {
    fn verdict(&mut self, msg: &Msg, now: u64) -> Verdict {
        let rounds = self.commit_rounds.lock().expect("commit rounds");
        let in_commit = |&(client, op_seq, object): &(ClientId, u64, ObjectId)| {
            let commit = rounds.get(&(client, op_seq));
            (client, object) == (msg.client, msg.object)
                && msg
                    .frames
                    .iter()
                    .any(|&f| Some(&f.1) == commit && f.0 == op_seq)
        };
        if self.commits.iter().any(in_commit) {
            return Verdict::DeliverAt(now + DELAY);
        }
        drop(rounds);
        self.rules.verdict(msg, now)
    }
}

/// The reference the forgetting object is judged against: an honest object
/// that also keeps every pair it ever adopted and reports them all, as
/// objects did before histories were bounded. It exists only in this crate
/// ([`Scenario::sweep_beside_never_forgets`]).
#[derive(Default)]
struct NeverForgets {
    inner: HonestObject,
    adopted: BTreeMap<RegId, BTreeMap<TsVal, Stamped>>,
}

impl ObjectBehavior<Req, Rep> for NeverForgets {
    fn on_request(&mut self, _from: ClientId, req: &Req) -> Option<Rep> {
        if let Req::Store { reg, pair } | Req::PreWrite { reg, pair } | Req::Commit { reg, pair } =
            req
        {
            let hist = self.adopted.entry(*reg).or_default();
            hist.entry(pair.pair.clone())
                .or_insert_with(|| pair.clone());
        }
        let mut rep = self.inner.apply(req);
        if let Rep::Views { views } = &mut rep {
            for (reg, view) in views {
                let hist = self.adopted.get(reg);
                view.hist = hist.map_or(Vec::new(), |h| h.values().cloned().collect());
            }
        }
        Some(rep)
    }
}

/// A fault assignment over a scenario's object slots: which objects are
/// Byzantine and how. Objects not listed are honest.
///
/// A cast composes orthogonally with both scheduling axes — the same
/// cast can run under a delay mask ([`Scenario::run_mask`]) or a
/// held-message schedule ([`Scenario::run_scheduled`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cast {
    /// Name used in reports and replay instructions.
    pub name: &'static str,
    /// `(object index, fault)` pairs; at most one fault per object.
    pub faults: Vec<(usize, FaultKind)>,
}

impl Cast {
    /// The all-honest cast: delay-only exploration.
    pub fn honest() -> Cast {
        Cast {
            name: "honest",
            faults: Vec::new(),
        }
    }

    /// A cast with a single faulty object.
    pub fn single(name: &'static str, object: usize, fault: FaultKind) -> Cast {
        Cast {
            name,
            faults: vec![(object, fault)],
        }
    }

    /// Number of distinct Byzantine objects in the cast.
    pub fn byzantine_count(&self) -> usize {
        let mut objs: Vec<usize> = self.faults.iter().map(|(o, _)| *o).collect();
        objs.sort_unstable();
        objs.dedup();
        objs.len()
    }

    /// Materialize the object battery for an `n`-object cluster: honest
    /// objects everywhere except the cast's slots, fresh fault state per
    /// call (so repeated runs never share a crash budget or frozen
    /// replica).
    pub fn objects_for(&self, n: usize) -> Objects {
        self.objects_with(n, || Box::new(HonestObject::new()))
    }

    /// [`Cast::objects_for`] with `honest()` in every slot the cast leaves
    /// honest.
    fn objects_with(
        &self,
        n: usize,
        honest: fn() -> Box<dyn ObjectBehavior<Req, Rep> + Send>,
    ) -> Objects {
        for (o, _) in &self.faults {
            assert!(*o < n, "cast fault on object {o} of an {n}-object cluster");
        }
        (0..n)
            .map(|i| match self.faults.iter().find(|(o, _)| *o == i) {
                Some((_, fault)) => fault.materialize(),
                None => honest(),
            })
            .collect()
    }
}

/// A fixed operation script over one MWMR register group, explored under
/// many schedules.
///
/// Clients map as in the MWMR tests: writer 0 is [`ClientId::writer()`],
/// writer `w > 0` stands in as `ClientId::reader(100 + w)`, reader `r` is
/// `ClientId::reader(r)`. Ops by the same client run sequentially (the sim
/// queues them); distinct clients run concurrently.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Name used in reports and replay instructions.
    pub name: &'static str,
    /// Byzantine fault budget; the cluster has `3t + 1` objects.
    pub t: u32,
    /// Writers in the register group.
    pub n_writers: u32,
    /// Readers in the register group.
    pub n_readers: u32,
    /// The operation script.
    pub ops: Vec<OpSpec>,
    /// Whether each write's commit round also gets one delay bit per
    /// object (see [`Scenario::rules_for_mask`]).
    pub split_commits: bool,
}

impl Scenario {
    /// The cluster configuration (Byzantine, `3t + 1` objects).
    pub fn cluster(&self) -> ClusterConfig {
        ClusterConfig::byzantine(self.t as usize).expect("valid fault budget")
    }

    /// Number of storage objects.
    pub fn num_objects(&self) -> usize {
        3 * self.t as usize + 1
    }

    /// The register group all ops target.
    pub fn group(&self) -> RegGroup {
        RegGroup::first(self.n_writers, self.n_readers)
    }

    /// The sim client an op runs as.
    pub fn client_of(&self, op: usize) -> ClientId {
        match self.ops[op] {
            OpSpec::Write { writer: 0, .. } => ClientId::writer(),
            OpSpec::Write { writer, .. } => ClientId::reader(100 + writer),
            OpSpec::Read { reader, .. } => ClientId::reader(reader),
        }
    }

    /// The per-client op sequence number the sim will assign an op.
    pub fn op_seq_of(&self, op: usize) -> u64 {
        let c = self.client_of(op);
        (0..op).filter(|&i| self.client_of(i) == c).count() as u64
    }

    /// Bits in the delay-rule universe: one per (op, object) pair, plus
    /// one per (write, object) pair when the scenario splits commits.
    pub fn universe_bits(&self) -> u32 {
        (self.delayed_units() * self.num_objects()) as u32
    }

    /// The delay rules a mask enables: bit `op · S + obj` stretches every
    /// message between `op`'s client (during that op) and object `obj` by
    /// [`DELAY`] extra ticks, each way. The split-commit bits are not
    /// rules; see [`Scenario::commits_for_mask`].
    pub fn rules_for_mask(&self, mask: u64) -> Vec<Rule> {
        let s = self.num_objects();
        let mut rules = Vec::new();
        for op in 0..self.ops.len() {
            for obj in 0..s {
                if mask >> (op * s + obj) & 1 == 1 {
                    let rule = Rule::slow_all(DELAY)
                        .client(self.client_of(op))
                        .op_seq(self.op_seq_of(op))
                        .object(ObjectId(obj as u32));
                    rules.push(rule);
                }
            }
        }
        rules
    }

    /// The split-commit bits a mask sets, as `(op, object)`: with
    /// [`Scenario::split_commits`], bit `(ops + k) · S + obj` stretches
    /// only the commit round of the script's `k`-th write to `obj`, by
    /// [`DELAY`] extra ticks each way — the one way to leave an object
    /// pre-written but not committed while the write's other rounds reach
    /// it on time. The commit is whichever round the write opens with its
    /// `Commit` request, so a bit follows it: round 3 after a certified tag
    /// collect, round 4 or later after a decided one.
    pub fn commits_for_mask(&self, mask: u64) -> Vec<(usize, ObjectId)> {
        if !self.split_commits {
            return Vec::new();
        }
        let s = self.num_objects();
        let ops = self.ops.iter().enumerate();
        let writes = ops.filter(|(_, op)| matches!(op, OpSpec::Write { .. }));
        let mut commits = Vec::new();
        for (k, (op, _)) in writes.enumerate() {
            for obj in 0..s {
                if mask >> ((self.ops.len() + k) * s + obj) & 1 == 1 {
                    commits.push((op, ObjectId(obj as u32)));
                }
            }
        }
        commits
    }

    /// Blocks of `S` mask bits: one per op, plus one per write when commits
    /// are split.
    fn delayed_units(&self) -> usize {
        let writes = self
            .ops
            .iter()
            .filter(|op| matches!(op, OpSpec::Write { .. }));
        self.ops.len() + usize::from(self.split_commits) * writes.count()
    }

    /// Op `op`'s kind and client automaton on `path`; a write reports its
    /// commit round into `commits`.
    fn automaton(
        &self,
        path: ReadPath,
        op: usize,
        commits: &CommitRounds,
    ) -> (OpKind, Box<dyn RoundClient<Req, Rep, Out = OpOutput>>) {
        let cfg = self.cluster();
        let group = self.group();
        match self.ops[op] {
            OpSpec::Write { writer, value, .. } => {
                let value = Value::from_u64(value);
                let inner: Box<dyn RoundClient<Req, Rep, Out = OpOutput>> = match path {
                    ReadPath::NewestClaimWrite => Box::new(NewestClaimWrite {
                        cfg,
                        writer,
                        group,
                        value,
                        claims: BTreeMap::new(),
                        write: None,
                    }),
                    _ => Box::new(MwWriteClient::in_group(cfg, writer, group, value)),
                };
                let marked = MarksCommit {
                    inner,
                    op: (self.client_of(op), self.op_seq_of(op)),
                    round: 1,
                    commits: Arc::clone(commits),
                };
                (OpKind::Write, Box::new(marked))
            }
            OpSpec::Read { reader, .. } => {
                let read = |mode| mw_read_in_group_mode(cfg, reader, group, mode);
                let weak = |commits, newer_test| WeakCertificateRead {
                    inner: read(ReadMode::Slow),
                    quorum: cfg.quorum(),
                    regs: group.all_regs(),
                    commits,
                    newer_test,
                    views: BTreeMap::new(),
                    writing_back: false,
                };
                let automaton: Box<dyn RoundClient<Req, Rep, Out = OpOutput>> = match path {
                    ReadPath::Slow => Box::new(read(ReadMode::Slow)),
                    ReadPath::Fast | ReadPath::NewestClaimWrite => Box::new(read(ReadMode::Fast)),
                    ReadPath::UnsoundFast => Box::new(UnsoundFastRead(read(ReadMode::Slow))),
                    ReadPath::ThinCertificate => Box::new(weak(cfg.vouch(), true)),
                    ReadPath::BlindCertificate => Box::new(weak(cfg.quorum(), false)),
                };
                (OpKind::Read, automaton)
            }
        }
    }

    /// Build a sim over `objects` (see [`Cast::objects_for`]) under
    /// `controller`, with every op of the script invoked at its scripted
    /// time.
    fn build_sim(
        &self,
        path: ReadPath,
        controller: MaskController,
        objects: Objects,
    ) -> Sim<Req, Rep, OpOutput> {
        assert_eq!(objects.len(), self.num_objects(), "object count");
        let commits = Arc::clone(&controller.commit_rounds);
        let mut sim = Sim::with_controller(SimConfig::default(), Box::new(controller));
        for object in objects {
            sim.add_object(object);
        }
        for (i, op) in self.ops.iter().enumerate() {
            let (kind, automaton) = self.automaton(path, i, &commits);
            sim.invoke_at(op.at(), self.client_of(i), kind, automaton);
        }
        sim
    }

    /// The controller a delay mask induces (see [`Scenario::rules_for_mask`]
    /// and [`Scenario::commits_for_mask`]).
    fn controller_for_mask(&self, mask: u64) -> MaskController {
        let rules = self.rules_for_mask(mask).into_iter();
        let mut controller = MaskController::new(
            rules.fold(ScriptedController::new(), ScriptedController::with_rule),
        );
        controller.commits = self
            .commits_for_mask(mask)
            .into_iter()
            .map(|(op, obj)| (self.client_of(op), self.op_seq_of(op), obj))
            .collect();
        controller
    }

    /// Run the script under the schedule a delay mask induces, with `cast`
    /// in the object slots.
    ///
    /// Deterministic in `(scenario, path, mask, cast)` — behaviors are
    /// freshly materialized per call, so re-invoking this **is** the
    /// replay.
    pub fn run_mask(&self, path: ReadPath, mask: u64, cast: &Cast) -> Outcome {
        self.run_mask_on(path, mask, cast.objects_for(self.num_objects()))
    }

    /// [`Scenario::run_mask`] on real threads: the same script over a
    /// [`ThreadCluster`] of `cast`'s objects, whose host asks the mask's
    /// controller for every object copy. Ticks become microseconds — an
    /// op's `at` is its offset from the start, a rule's delay its extra
    /// latency — and the verdict is [`judge`]'s, as in the simulator. Each
    /// client runs its ops in order on a thread of its own; an op that
    /// has not completed within [`THREADED_DEADLINE`] is an incomplete op,
    /// and its client runs no further op.
    ///
    /// Wall time replaces the logical clock, so the schedule holds only
    /// where its gaps are wide next to thread wake-ups: [`DELAY`]'s 2 ms
    /// are, a script whose ops sit 100 ticks apart may not be.
    pub fn run_mask_threaded(&self, path: ReadPath, mask: u64, cast: &Cast) -> Outcome {
        let controller = self.controller_for_mask(mask);
        let commits = &Arc::clone(&controller.commit_rounds);
        let objects = cast.objects_for(self.num_objects());
        let cluster = &ThreadCluster::spawn(objects, Some(Box::new(controller)));
        let start = Instant::now();
        let mut clients: Vec<ClientId> = (0..self.ops.len()).map(|i| self.client_of(i)).collect();
        clients.sort_unstable();
        clients.dedup();
        let mut completions: Vec<_> = std::thread::scope(|s| {
            let runs: Vec<_> = clients
                .into_iter()
                .map(|client| {
                    s.spawn(move || self.run_client(path, client, cluster, commits, start))
                })
                .collect();
            let runs = runs.into_iter();
            runs.flat_map(|run| run.join().expect("client thread"))
                .collect()
        });
        completions.sort_by_key(|c| c.stat.completed_at);
        Outcome {
            violations: self.violations_of(&completions),
            completions,
        }
    }

    /// `client`'s ops of the script, in order, each invoked no earlier
    /// than `at` µs after `start`; stops at the first that does not
    /// complete.
    fn run_client(
        &self,
        path: ReadPath,
        client: ClientId,
        cluster: &ThreadCluster<Req, Rep>,
        commits: &CommitRounds,
        start: Instant,
    ) -> Vec<Completion<OpOutput>> {
        let elapsed_us = || u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let mut endpoint = ThreadClient::new(client);
        let mut done = Vec::new();
        let ops = self.ops.iter().enumerate();
        for (i, op) in ops.filter(|&(i, _)| self.client_of(i) == client) {
            std::thread::sleep(Duration::from_micros(op.at().saturating_sub(elapsed_us())));
            let (kind, automaton) = self.automaton(path, i, commits);
            let invoked_at = elapsed_us();
            let Some((output, rounds)) = endpoint.run_op(cluster, automaton, THREADED_DEADLINE)
            else {
                break;
            };
            let stat = OpStat {
                kind,
                rounds: RoundCount(rounds),
                invoked_at,
                completed_at: elapsed_us(),
            };
            done.push(Completion {
                client,
                op_seq: self.op_seq_of(i),
                output,
                stat,
            });
        }
        done
    }

    /// [`Scenario::run_mask`] over a given object battery.
    fn run_mask_on(&self, path: ReadPath, mask: u64, objects: Objects) -> Outcome {
        self.run_judged(path, objects, self.controller_for_mask(mask), |sim| {
            sim.run_to_quiescence()
        })
    }

    /// Run the script with every message held and delivery order chosen by
    /// the scheduler (see [`rastor_sim::Sim::run_scheduled`]), with `cast`
    /// in the object slots.
    pub fn run_scheduled(
        &self,
        path: ReadPath,
        sched: &mut dyn rastor_sim::Scheduler,
        cast: &Cast,
    ) -> Outcome {
        let hold_all = MaskController::new(ScriptedController::new().with_rule(Rule::hold_all()));
        let objects = cast.objects_for(self.num_objects());
        self.run_judged(path, objects, hold_all, |sim| sim.run_scheduled(sched))
    }

    /// [`Scenario::run_scheduled`] with a fresh seeded [`RandomScheduler`];
    /// replaying the same seed reproduces the schedule exactly.
    pub fn run_random(&self, path: ReadPath, seed: u64, cast: &Cast) -> Outcome {
        self.run_scheduled(path, &mut RandomScheduler::seeded(seed), cast)
    }

    /// Build the sim over `objects`, `drive` it, and judge what completed —
    /// a ghost invariant's panic or a run cut off by the event cap is a
    /// violation like any other.
    fn run_judged(
        &self,
        path: ReadPath,
        objects: Objects,
        controller: MaskController,
        drive: impl FnOnce(&mut Sim<Req, Rep, OpOutput>) -> Vec<Completion<OpOutput>>,
    ) -> Outcome {
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut sim = self.build_sim(path, controller, objects);
            let completions = drive(&mut sim);
            (completions, sim.hit_event_cap())
        }));
        match run {
            Ok((completions, capped)) => {
                let mut violations = self.violations_of(&completions);
                if capped {
                    violations.push(
                        "event cap: the run was cut off by the sim's event budget \
                         (possible livelock)"
                            .to_string(),
                    );
                }
                Outcome {
                    completions,
                    violations,
                }
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                Outcome {
                    completions: Vec::new(),
                    violations: vec![format!("ghost invariant panic: {msg}")],
                }
            }
        }
    }

    /// Check a run's completions against the paper's properties: every op
    /// completed, and the one register's history is atomic.
    pub fn violations_of(&self, completions: &[Completion<OpOutput>]) -> Vec<String> {
        let mut history = History::new();
        history.ingest(completions);
        judge(&[(String::new(), history)], self.ops.len(), &[])
    }

    /// Exhaustively enumerate every delay mask (all `2^universe_bits()`
    /// schedules in the rule universe), every schedule running `cast` with
    /// fresh fault state, and return the failures.
    pub fn sweep(&self, path: ReadPath, cast: &Cast) -> Vec<Failure> {
        let bits = self.universe_bits();
        assert!(bits <= 24, "universe too large to enumerate exhaustively");
        self.sweep_masks(path, cast, 0..1u64 << bits)
    }

    /// [`Scenario::sweep`] over the given masks only.
    pub fn sweep_masks(
        &self,
        path: ReadPath,
        cast: &Cast,
        masks: impl IntoIterator<Item = u64>,
    ) -> Vec<Failure> {
        masks
            .into_iter()
            .filter_map(|mask| {
                let outcome = self.run_mask(path, mask, cast);
                (!outcome.is_clean()).then_some(Failure {
                    mask,
                    violations: outcome.violations,
                })
            })
            .collect()
    }

    /// [`Scenario::run_mask`] with a reference object that never forgets in
    /// every slot `cast` leaves honest: an honest object that also keeps
    /// every pair it ever adopted and reports them all, as objects did
    /// before histories were bounded.
    pub fn run_mask_never_forgetting(&self, path: ReadPath, mask: u64, cast: &Cast) -> Outcome {
        let keep_all = cast.objects_with(self.num_objects(), || Box::<NeverForgets>::default());
        self.run_mask_on(path, mask, keep_all)
    }

    /// Run each of `masks` twice — on the real objects and on objects that
    /// never forget (the protocol before histories were bounded) — and
    /// compare: what the bound costs, schedule by schedule.
    pub fn sweep_beside_never_forgets(
        &self,
        path: ReadPath,
        cast: &Cast,
        masks: impl IntoIterator<Item = u64>,
    ) -> Differential {
        let ops = |o: &Outcome| {
            let mut ops: Vec<_> = o
                .completions
                .iter()
                .map(|c| (c.client, c.op_seq, c.output.pair().clone(), c.stat.rounds))
                .collect();
            ops.sort();
            ops
        };
        let mut diff = Differential::default();
        for mask in masks {
            let outcome = self.run_mask(path, mask, cast);
            let reference = self.run_mask_never_forgetting(path, mask, cast);
            let (real, reference) = (ops(&outcome), ops(&reference));
            diff.max_rounds = diff.max_rounds.max(outcome.max_rounds());
            let same_ops = real.len() == reference.len()
                && real
                    .iter()
                    .zip(&reference)
                    .all(|(a, b)| a.0 == b.0 && a.1 == b.1);
            let same_pairs = same_ops && real.iter().zip(&reference).all(|(a, b)| a.2 == b.2);
            if !same_pairs {
                diff.pairs_differ.push(mask);
            }
            if !same_ops || real.iter().zip(&reference).any(|(a, b)| a.3 > b.3) {
                diff.rounds_above.push(mask);
            }
            if same_pairs && real != reference {
                diff.rounds_differ.push(mask);
            }
            if !outcome.is_clean() {
                diff.failures.push(Failure {
                    mask,
                    violations: outcome.violations,
                });
            }
        }
        diff
    }

    /// Shrink a failing mask by greedy rule-dropping: repeatedly clear any
    /// single bit whose removal still fails, until no bit can be dropped.
    /// The result is a locally-minimal repro (every remaining rule is
    /// necessary). Works on any universe up to 64 bits — it probes one
    /// bit-drop at a time, so it never needs the exhaustive enumeration.
    pub fn minimize(&self, path: ReadPath, mask: u64, cast: &Cast) -> u64 {
        let mut cur = mask;
        loop {
            let mut improved = false;
            for bit in 0..self.universe_bits() {
                let cand = cur & !(1u64 << bit);
                if cand != cur && !self.run_mask(path, cand, cast).is_clean() {
                    cur = cand;
                    improved = true;
                }
            }
            if !improved {
                return cur;
            }
        }
    }

    /// Render one failure as a replayable report, fault assignment and
    /// all.
    pub fn report(&self, path: ReadPath, failure: &Failure, minimized: u64, cast: &Cast) -> String {
        let mut s = String::new();
        s.push_str(&format!("scenario:  {}\n", self.name));
        s.push_str(&format!("mode:      {path:?}\n"));
        s.push_str(&format!(
            "cast:      {} ({} byzantine of {})\n",
            cast.name,
            cast.byzantine_count(),
            self.num_objects()
        ));
        for (obj, fault) in &cast.faults {
            s.push_str(&format!("  fault: object {obj} {fault:?}\n"));
        }
        s.push_str(&format!("mask:      {:#x}\n", failure.mask));
        s.push_str(&format!(
            "minimized: {:#x} ({} rules)\n",
            minimized,
            minimized.count_ones()
        ));
        for rule in self.rules_for_mask(minimized) {
            s.push_str(&format!("  rule: {rule:?}\n"));
        }
        for (op, obj) in self.commits_for_mask(minimized) {
            s.push_str(&format!(
                "  commit: op {op}'s commit round to object {}, +{DELAY} each way\n",
                obj.0
            ));
        }
        for (i, op) in self.ops.iter().enumerate() {
            s.push_str(&format!("  op {i}: {op:?}\n"));
        }
        for v in &failure.violations {
            s.push_str(&format!("violation: {v}\n"));
        }
        s.push_str(&format!(
            "replay:    scenario_{}().run_mask(ReadPath::{path:?}, {:#x}, \
             &Cast {{ name: {:?}, faults: vec!{:?} }})\n",
            self.name, minimized, cast.name, cast.faults
        ));
        s
    }

    /// Budgeted non-exhaustive exploration for scenarios whose universe is
    /// too large to sweep (t = 2 clusters, 3+ concurrent ops): seeded
    /// random held-message schedules, each one's perturbation
    /// neighborhood, and random delay masks, until `budget` elapses or
    /// `max_runs` runs have executed. Mask failures are shrunk with
    /// [`Scenario::minimize`]; schedule failures carry their seed and
    /// pick trace for replay.
    pub fn explore(
        &self,
        path: ReadPath,
        cast: &Cast,
        base_seed: u64,
        budget: Duration,
        max_runs: usize,
    ) -> ExploreStats {
        let start = Instant::now();
        let bits = self.universe_bits();
        let mask_space = if bits >= 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        let mut rng = SplitMix64::new(base_seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut stats = ExploreStats::default();
        let mut seed = base_seed;
        while stats.runs < max_runs && start.elapsed() < budget {
            // One seeded held-message schedule...
            let mut sched = RandomScheduler::seeded(seed);
            let outcome = self.run_scheduled(path, &mut sched, cast);
            let picks = sched.picks.clone();
            stats.scheduled_runs += 1;
            stats.runs += 1;
            stats.max_rounds = stats.max_rounds.max(outcome.max_rounds());
            if !outcome.is_clean() {
                stats.schedule_failures.push(ScheduleFailure {
                    seed,
                    picks: picks.clone(),
                    violations: outcome.violations,
                });
            }
            // ...its one-step perturbation neighborhood...
            if !picks.is_empty() {
                for at in [0, picks.len() / 2, picks.len() - 1] {
                    if stats.runs >= max_runs || start.elapsed() >= budget {
                        break;
                    }
                    let mut p = RandomScheduler::perturbed(seed, &picks, at);
                    let outcome = self.run_scheduled(path, &mut p, cast);
                    stats.perturbed_runs += 1;
                    stats.runs += 1;
                    stats.max_rounds = stats.max_rounds.max(outcome.max_rounds());
                    if !outcome.is_clean() {
                        stats.schedule_failures.push(ScheduleFailure {
                            seed,
                            picks: p.picks.clone(),
                            violations: outcome.violations,
                        });
                    }
                }
            }
            // ...and one random point of the delay-mask universe.
            if stats.runs < max_runs && start.elapsed() < budget {
                let mask = rng.next_u64() & mask_space;
                let outcome = self.run_mask(path, mask, cast);
                stats.mask_runs += 1;
                stats.runs += 1;
                stats.max_rounds = stats.max_rounds.max(outcome.max_rounds());
                if !outcome.is_clean() {
                    let minimized = self.minimize(path, mask, cast);
                    stats.mask_failures.push(Failure {
                        mask: minimized,
                        violations: outcome.violations,
                    });
                }
            }
            seed = seed.wrapping_add(1);
        }
        stats
    }
}

/// What [`Scenario::sweep_beside_never_forgets`] saw over a mask universe.
#[derive(Clone, Debug, Default)]
pub struct Differential {
    /// Masks whose run on the real objects is not clean.
    pub failures: Vec<Failure>,
    /// The largest round count of any op of any run on the real objects.
    pub max_rounds: u32,
    /// Masks on which some op returned a different pair (or completed on
    /// one side only) beside the reference.
    pub pairs_differ: Vec<u64>,
    /// Masks with the same pairs but a different round count for some op.
    pub rounds_differ: Vec<u64>,
    /// Masks on which some op took more rounds than beside the reference
    /// (or completed on one side only): what forgetting costs in rounds.
    pub rounds_above: Vec<u64>,
}

/// A failing held-message schedule found by [`Scenario::explore`]:
/// replay it with [`RandomScheduler::with_prefix`] over the recorded
/// picks (or just [`Scenario::run_random`] with the seed, for an
/// unperturbed find).
#[derive(Clone, Debug)]
pub struct ScheduleFailure {
    /// Seed of the random scheduler that produced (or seeded the
    /// perturbation of) the failing schedule.
    pub seed: u64,
    /// The full pick trace; `RandomScheduler::with_prefix(seed, picks)`
    /// replays it exactly.
    pub picks: Vec<usize>,
    /// What went wrong.
    pub violations: Vec<String>,
}

/// Tally of one [`Scenario::explore`] budgeted exploration.
#[derive(Clone, Debug, Default)]
pub struct ExploreStats {
    /// Total runs executed (all kinds).
    pub runs: usize,
    /// Fresh seeded held-message schedules.
    pub scheduled_runs: usize,
    /// One-step perturbations of those schedules.
    pub perturbed_runs: usize,
    /// Random delay-mask probes.
    pub mask_runs: usize,
    /// The largest round count of any op of any run.
    pub max_rounds: u32,
    /// Failing masks, already minimized.
    pub mask_failures: Vec<Failure>,
    /// Failing held-message schedules.
    pub schedule_failures: Vec<ScheduleFailure>,
}

impl ExploreStats {
    /// Whether the exploration found nothing.
    pub fn is_clean(&self) -> bool {
        self.mask_failures.is_empty() && self.schedule_failures.is_empty()
    }
}

/// Read a wall-clock budget from an environment variable (milliseconds),
/// falling back to `default_ms`. The extended CI lane raises the budgets
/// this way (`RASTOR_CHECK_BUDGET_MS`) without a recompile.
pub fn budget_from_env(var: &str, default_ms: u64) -> Duration {
    Duration::from_millis(
        std::env::var(var)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default_ms),
    )
}

/// Write failure reports under `dir` (one file per failure, minimized and
/// replayable) and return their paths. File names carry the cast name so
/// delay-only and fault-substrate artifacts never collide. CI uploads this
/// directory as an artifact when the model-check job fails.
pub fn write_failure_reports(
    dir: &Path,
    scenario: &Scenario,
    path: ReadPath,
    cast: &Cast,
    failures: &[Failure],
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::new();
    for failure in failures {
        let minimized = scenario.minimize(path, failure.mask, cast);
        let file = dir.join(format!(
            "{}-{}-{path:?}-{:#x}.txt",
            scenario.name, cast.name, failure.mask
        ));
        std::fs::write(&file, scenario.report(path, failure, minimized, cast))?;
        paths.push(file);
    }
    Ok(paths)
}

/// A seeded-random delivery-order scheduler with optional forced prefix.
///
/// Picks are recorded in [`RandomScheduler::picks`]; replaying the same
/// seed reproduces them, and [`RandomScheduler::perturbed`] replays a
/// recorded run's prefix with one pick changed — the local neighborhood
/// of a schedule.
#[derive(Debug)]
pub struct RandomScheduler {
    rng: SplitMix64,
    forced: Vec<usize>,
    pos: usize,
    /// Every pick made so far (forced and random).
    pub picks: Vec<usize>,
}

impl RandomScheduler {
    /// A scheduler making purely random picks from `seed`.
    pub fn seeded(seed: u64) -> RandomScheduler {
        RandomScheduler::with_prefix(seed, Vec::new())
    }

    /// A scheduler replaying `forced` picks first (clamped to the held
    /// set's size), then continuing randomly from `seed`.
    pub fn with_prefix(seed: u64, forced: Vec<usize>) -> RandomScheduler {
        RandomScheduler {
            rng: SplitMix64::new(seed),
            forced,
            pos: 0,
            picks: Vec::new(),
        }
    }

    /// Replay `picks[..=at]` with the pick at `at` shifted by one, then
    /// continue randomly: one-step perturbation of a recorded schedule.
    pub fn perturbed(seed: u64, picks: &[usize], at: usize) -> RandomScheduler {
        let mut forced = picks[..=at].to_vec();
        forced[at] += 1; // clamped against the held set at use
        RandomScheduler::with_prefix(seed, forced)
    }
}

impl rastor_sim::Scheduler for RandomScheduler {
    fn pick(&mut self, held: &[MsgId]) -> Option<usize> {
        let i = if self.pos < self.forced.len() {
            self.forced[self.pos].min(held.len() - 1)
        } else {
            self.rng.gen_range(0, held.len() as u64) as usize
        };
        self.pos += 1;
        self.picks.push(i);
        Some(i)
    }
}

/// An [`HonestObject`] behind a shared handle, so a test can keep a view
/// into an object's state after moving it into the sim (the engine takes
/// objects by `Box<dyn ObjectBehavior>`).
#[derive(Clone, Debug, Default)]
pub struct SharedObject(Arc<Mutex<HonestObject>>);

impl SharedObject {
    /// A fresh shared honest object.
    pub fn new() -> SharedObject {
        SharedObject::default()
    }

    /// The object's current view of a register.
    pub fn view_of(&self, reg: RegId) -> ObjectView {
        self.0.lock().expect("object lock").view_of(reg)
    }
}

impl ObjectBehavior<Req, Rep> for SharedObject {
    fn on_request(&mut self, _from: ClientId, req: &Req) -> Option<Rep> {
        Some(self.0.lock().expect("object lock").apply(req))
    }
}

/// The acceptance configuration: two writers and one reader over four
/// objects (`t = 1`), three operations — two concurrent-ish writes and a
/// trailing read.
pub fn scenario_two_writers_one_reader() -> Scenario {
    Scenario {
        name: "two_writers_one_reader",
        t: 1,
        n_writers: 2,
        n_readers: 1,
        ops: vec![
            OpSpec::Write {
                at: 0,
                writer: 0,
                value: 10,
            },
            OpSpec::Write {
                at: 1_000,
                writer: 1,
                value: 20,
            },
            OpSpec::Read {
                at: 5_000,
                reader: 0,
            },
        ],
        split_commits: false,
    }
}

/// One write then two sequential reads by the same reader — the script on
/// which an unsound fast path exhibits a new/old inversion (the reads land
/// inside the write's pre-write window when the right messages are slow).
pub fn scenario_write_then_two_reads() -> Scenario {
    Scenario {
        name: "write_then_two_reads",
        t: 1,
        n_writers: 2,
        n_readers: 1,
        ops: vec![
            OpSpec::Write {
                at: 0,
                writer: 0,
                value: 10,
            },
            OpSpec::Read {
                at: 5_000,
                reader: 0,
            },
            OpSpec::Read {
                at: 5_100,
                reader: 0,
            },
        ],
        split_commits: false,
    }
}

/// The smallest script that exposes the resilience boundary: one write,
/// one read after it, `t = 1` over four objects. Its 8-bit delay
/// universe (256 masks) is cheap enough to sweep exhaustively under
/// every cast of the fault battery — the scenario behind the
/// "`≤ t` safe, `t + 1` witness found" contract.
pub fn scenario_write_then_read() -> Scenario {
    Scenario {
        name: "write_then_read",
        t: 1,
        n_writers: 1,
        n_readers: 1,
        ops: vec![
            OpSpec::Write {
                at: 0,
                writer: 0,
                value: 10,
            },
            OpSpec::Read {
                at: 5_000,
                reader: 0,
            },
        ],
        split_commits: false,
    }
}

/// One write and two readers, each reading once inside the write's
/// crawl window, `t = 1`, with commits split
/// ([`Scenario::split_commits`]): 12 per-(op, object) bits plus 4
/// commit-round bits, 2^16 masks. The split is what the thin-certificate
/// foil needs: its witness leaves one object pre-written but not
/// committed while the write's earlier rounds reach it on time.
pub fn scenario_write_then_two_readers() -> Scenario {
    Scenario {
        name: "write_then_two_readers",
        t: 1,
        n_writers: 1,
        n_readers: 2,
        ops: vec![
            OpSpec::Write {
                at: 0,
                writer: 0,
                value: 10,
            },
            OpSpec::Read { at: 100, reader: 0 },
            OpSpec::Read { at: 200, reader: 1 },
        ],
        split_commits: true,
    }
}

/// A `t = 2` cluster (seven objects) with four operations — two writers
/// racing two readers. Its 28-bit delay universe is past the exhaustive
/// sweep's 24-bit ceiling by design: this is the scenario the budgeted
/// explorer ([`Scenario::explore`]) owns.
pub fn scenario_t2_mixed() -> Scenario {
    Scenario {
        name: "t2_mixed",
        t: 2,
        n_writers: 2,
        n_readers: 2,
        ops: vec![
            OpSpec::Write {
                at: 0,
                writer: 0,
                value: 10,
            },
            OpSpec::Write {
                at: 1_000,
                writer: 1,
                value: 20,
            },
            OpSpec::Read {
                at: 5_000,
                reader: 0,
            },
            OpSpec::Read {
                at: 5_100,
                reader: 1,
            },
        ],
        split_commits: false,
    }
}

/// The tick at which the `*_spanning_read` scenarios invoke their read:
/// inside the first write.
pub const SPANNING_READ_AT: u64 = 3;

/// One register written three times — the fewest writes after which an
/// object forgets a pair — around a read invoked inside the first write:
/// under the right masks the reader's first replies predate both later
/// writes while its later ones come from objects that no longer hold the
/// first pair. `t = 1`, 16-bit universe: swept exhaustively.
pub fn scenario_three_writes_spanning_read() -> Scenario {
    scenario_three_writes_read_at(SPANNING_READ_AT)
}

/// [`scenario_three_writes_spanning_read`] with its read invoked at tick
/// `at` instead: the axis of the forgetting tick grid.
pub fn scenario_three_writes_read_at(at: u64) -> Scenario {
    spanning_read("three_writes_spanning_read", 1, 1, at)
}

/// [`scenario_three_writes_spanning_read`] with a second writer doing the
/// same (values 10, 20, … alternate between the two), so the reader
/// collects two registers that both forget. 28 bits: budgeted exploration.
pub fn scenario_two_writers_spanning_read() -> Scenario {
    spanning_read("two_writers_spanning_read", 1, 2, SPANNING_READ_AT)
}

/// [`scenario_three_writes_spanning_read`] on seven objects (`t = 2`).
pub fn scenario_t2_three_writes_spanning_read() -> Scenario {
    spanning_read("t2_three_writes_spanning_read", 2, 1, SPANNING_READ_AT)
}

/// [`scenario_two_writers_spanning_read`] on seven objects (`t = 2`).
pub fn scenario_t2_two_writers_spanning_read() -> Scenario {
    spanning_read("t2_two_writers_spanning_read", 2, 2, SPANNING_READ_AT)
}

/// Every writer writes three times back to back (the sim queues one
/// client's ops), one reader reads, invoked at tick `read_at`. The writes
/// are invoked at ticks 0, 1 and 2 and queue behind each other, so with
/// unit latency a write's rounds cross the even ticks, and a read at an
/// odd tick starts between two of them.
pub fn spanning_read(name: &'static str, t: u32, n_writers: u32, read_at: u64) -> Scenario {
    let mut ops = vec![OpSpec::Read {
        at: read_at,
        reader: 0,
    }];
    for i in 0..3 * n_writers {
        ops.push(OpSpec::Write {
            at: u64::from(i / n_writers),
            writer: i % n_writers,
            value: 10 * u64::from(i + 1),
        });
    }
    Scenario {
        name,
        t,
        n_writers,
        n_readers: 1,
        ops,
        split_commits: false,
    }
}

/// The `t + 1` colluding-forger cast on [`scenario_write_then_read`]:
/// two of four objects (`t = 1`) report the same fabricated sky-high
/// pair to every collect. One past the paper's fault budget — the sweep
/// **must** find a `check_atomic` witness against it: a read quorum of
/// the two forgers plus one honest object gives the fabrication `t + 1`
/// vouchers, so the reader *selects* it and returns a value that was
/// never written. This is the `t + 1` voucher threshold's contrapositive
/// made executable.
///
/// (A `t + 1` *stale-replay* cast is deliberately not the witness: with
/// reliable channels the slow read keeps collecting until honest replies
/// outvote the replayers, so at `t + 1` stale replay costs liveness, not
/// safety — the sweeps under [`cast_one_stale`] and friends pin the safe
/// side of that line.)
pub fn cast_t_plus_one_forgers() -> Cast {
    Cast {
        name: "t_plus_one_forgers",
        faults: vec![(0, FaultKind::ForgeHigh), (1, FaultKind::ForgeHigh)],
    }
}

/// The `≤ t` twin of [`cast_t_plus_one_forgers`]: a single forger, which
/// the voucher threshold outvotes on every schedule.
pub fn cast_one_forger() -> Cast {
    Cast::single("one_forger", 0, FaultKind::ForgeHigh)
}

/// A single stale-replaying object (`≤ t`). Every schedule of every
/// scenario must stay clean under it.
pub fn cast_one_stale() -> Cast {
    Cast::single("one_stale", 0, FaultKind::StaleAfter(0))
}

/// The single-fault battery for `≤ t` sweeps: one cast per
/// [`FaultKind`], each placed on a different object slot so the sweeps
/// also vary the faulty position.
pub fn casts_single_fault() -> Vec<Cast> {
    vec![
        Cast::single("silent", 0, FaultKind::Silent),
        Cast::single("crash_after_3", 1, FaultKind::CrashAfter(3)),
        Cast::single("stale_after_2", 2, FaultKind::StaleAfter(2)),
        Cast {
            name: "equivocate_reader",
            faults: vec![(
                3,
                FaultKind::Equivocate {
                    victims: vec![ClientId::reader(0)],
                    freeze_after: 0,
                },
            )],
        },
        Cast::single("forge_high", 0, FaultKind::ForgeHigh),
    ]
}

/// One object equivocating against reader 1 (it acks every write but shows
/// reader 1 the initial state) — the `≤ t` cast under which
/// [`ReadPath::ThinCertificate`] loses atomicity in
/// [`scenario_write_then_two_readers`].
pub fn cast_equivocate_to_reader_1() -> Cast {
    Cast {
        name: "equivocate_reader_1",
        faults: vec![(
            1,
            FaultKind::Equivocate {
                victims: vec![ClientId::reader(1)],
                freeze_after: 0,
            },
        )],
    }
}

/// The stale-policy parity scenario (kept small: it runs under both
/// [`StalePolicy`] variants and the two runs' outputs and final object
/// states are compared field for field).
pub fn scenario_policy_parity() -> Scenario {
    Scenario {
        name: "policy_parity",
        t: 1,
        n_writers: 2,
        n_readers: 1,
        ops: vec![
            OpSpec::Write {
                at: 0,
                writer: 0,
                value: 10,
            },
            OpSpec::Write {
                at: 10,
                writer: 1,
                value: 20,
            },
            OpSpec::Read { at: 20, reader: 0 },
        ],
        split_commits: false,
    }
}

/// Run `scenario` once per [`StalePolicy`] under the same delay mask and
/// return both outcomes (DeliverLate first). Used by the parity tests and
/// the `exp t9` summary.
pub fn run_both_policies(
    scenario: &Scenario,
    path: ReadPath,
    mask: u64,
) -> (Outcome, Vec<Vec<ObjectView>>, Outcome, Vec<Vec<ObjectView>>) {
    let run = |policy: StalePolicy| {
        let shared: Vec<SharedObject> = (0..scenario.num_objects())
            .map(|_| SharedObject::new())
            .collect();
        let objects: Objects = shared.iter().map(|o| Box::new(o.clone()) as _).collect();
        let controller = scenario.controller_for_mask(mask);
        let mut sim = scenario.build_sim(path, controller, objects);
        for i in 0..scenario.ops.len() {
            sim.set_stale_policy(scenario.client_of(i), policy);
        }
        let completions = sim.run_to_quiescence();
        let violations = scenario.violations_of(&completions);
        let views: Vec<Vec<ObjectView>> = shared
            .iter()
            .map(|o| {
                scenario
                    .group()
                    .all_regs()
                    .into_iter()
                    .map(|reg| o.view_of(reg))
                    .collect()
            })
            .collect();
        (
            Outcome {
                completions,
                violations,
            },
            views,
        )
    };
    let (deliver, deliver_views) = run(StalePolicy::DeliverLate);
    let (drop, drop_views) = run(StalePolicy::DropLate);
    (deliver, deliver_views, drop, drop_views)
}
