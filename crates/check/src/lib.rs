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
//!    adversary exploits. Failing masks are shrunk to a minimal repro by
//!    greedy rule-dropping ([`Scenario::minimize`]) and replayed by
//!    re-running the same mask — the sim is deterministic.
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
//! `ChaosProxy` deployments with minimized `target/model-check/` reports.
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
//! op.
//!
//! The crate's integration tests (`cargo test -p rastor_check -- exhaustive`)
//! prove both soundness evidence — zero violations across every enumerated
//! schedule for slow *and* fast read paths — and checker efficacy: the
//! deliberately unsound [`ReadPath::UnsoundFast`] read, which exists only
//! in this crate, is caught, minimized and replayed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod netchaos;

use rastor_common::{ClientId, ClusterConfig, ObjectId, OpKind, RegId, SplitMix64, TsVal, Value};
use rastor_core::checker::judge;
use rastor_core::mwmr::{mw_read_in_group_mode, MwWriteClient, RegGroup};
use rastor_core::transform::AtomicReadClient;
use rastor_core::{
    FaultKind, History, HonestObject, ObjectView, OpOutput, ReadMode, Rep, Req, Stamped,
};
use rastor_sim::control::Rule;
use rastor_sim::{
    ClientAction, Completion, Controller, MsgId, ObjectBehavior, RoundClient, ScriptedController,
    Sim, SimConfig, StalePolicy,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
    pub fn objects_for(&self, n: usize) -> Vec<Box<dyn ObjectBehavior<Req, Rep>>> {
        self.objects_with(n, || Box::new(HonestObject::new()))
    }

    /// [`Cast::objects_for`] with `honest()` in every slot the cast leaves
    /// honest.
    fn objects_with(
        &self,
        n: usize,
        honest: fn() -> Box<dyn ObjectBehavior<Req, Rep>>,
    ) -> Vec<Box<dyn ObjectBehavior<Req, Rep>>> {
        for (o, _) in &self.faults {
            assert!(*o < n, "cast fault on object {o} of an {n}-object cluster");
        }
        (0..n)
            .map(|i| match self.faults.iter().find(|(o, _)| *o == i) {
                Some((_, fault)) => fault.materialize() as Box<dyn ObjectBehavior<Req, Rep>>,
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

    /// Bits in the delay-rule universe: one per (op, object) pair.
    pub fn universe_bits(&self) -> u32 {
        (self.ops.len() * self.num_objects()) as u32
    }

    /// The delay rules a mask enables: bit `op · S + obj` stretches every
    /// message between `op`'s client (during that op) and object `obj` by
    /// [`DELAY`] extra ticks, each way.
    pub fn rules_for_mask(&self, mask: u64) -> Vec<Rule> {
        let s = self.num_objects();
        let mut rules = Vec::new();
        for op in 0..self.ops.len() {
            for obj in 0..s {
                if mask >> (op * s + obj) & 1 == 1 {
                    rules.push(
                        Rule::slow_all(DELAY)
                            .client(self.client_of(op))
                            .op_seq(self.op_seq_of(op))
                            .object(ObjectId(obj as u32)),
                    );
                }
            }
        }
        rules
    }

    /// Build a sim over `objects` (see [`Cast::objects_for`]) with the given
    /// controller and every op of the script invoked at its scripted time.
    pub fn build_sim(
        &self,
        path: ReadPath,
        controller: Box<dyn Controller<Req, Rep>>,
        objects: Vec<Box<dyn ObjectBehavior<Req, Rep>>>,
    ) -> Sim<Req, Rep, OpOutput> {
        assert_eq!(objects.len(), self.num_objects(), "object count");
        let cfg = self.cluster();
        let group = self.group();
        let mut sim = Sim::with_controller(SimConfig::default(), controller);
        sim.add_objects(objects);
        for (i, op) in self.ops.iter().enumerate() {
            let client = self.client_of(i);
            match *op {
                OpSpec::Write { at, writer, value } => sim.invoke_at(
                    at,
                    client,
                    OpKind::Write,
                    Box::new(MwWriteClient::in_group(
                        cfg,
                        writer,
                        group,
                        Value::from_u64(value),
                    )),
                ),
                OpSpec::Read { at, reader } => {
                    let read = |mode| mw_read_in_group_mode(cfg, reader, group, mode);
                    let automaton: Box<dyn RoundClient<Req, Rep, Out = OpOutput>> = match path {
                        ReadPath::Slow => Box::new(read(ReadMode::Slow)),
                        ReadPath::Fast => Box::new(read(ReadMode::Fast)),
                        ReadPath::UnsoundFast => Box::new(UnsoundFastRead(read(ReadMode::Slow))),
                    };
                    sim.invoke_at(at, client, OpKind::Read, automaton)
                }
            }
        }
        sim
    }

    /// The controller a delay mask induces (see [`Scenario::rules_for_mask`]).
    fn controller_for_mask(&self, mask: u64) -> ScriptedController {
        self.rules_for_mask(mask)
            .into_iter()
            .fold(ScriptedController::new(), ScriptedController::with_rule)
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

    /// [`Scenario::run_mask`] over a given object battery.
    fn run_mask_on(
        &self,
        path: ReadPath,
        mask: u64,
        objects: Vec<Box<dyn ObjectBehavior<Req, Rep>>>,
    ) -> Outcome {
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
        let hold_all = ScriptedController::new().with_rule(Rule::hold_all());
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
        objects: Vec<Box<dyn ObjectBehavior<Req, Rep>>>,
        controller: ScriptedController,
        drive: impl FnOnce(&mut Sim<Req, Rep, OpOutput>) -> Vec<Completion<OpOutput>>,
    ) -> Outcome {
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut sim = self.build_sim(path, Box::new(controller), objects);
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
        (0..1u64 << bits)
            .filter_map(|mask| {
                let outcome = self.run_mask(path, mask, cast);
                (!outcome.is_clean()).then_some(Failure {
                    mask,
                    violations: outcome.violations,
                })
            })
            .collect()
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
            // The same cast, a `NeverForgets` in every slot it leaves honest.
            let keep_all = cast.objects_with(self.num_objects(), || Box::<NeverForgets>::default());
            let (real, reference) = (ops(&outcome), ops(&self.run_mask_on(path, mask, keep_all)));
            diff.max_rounds = diff.max_rounds.max(outcome.max_rounds());
            let same_pairs = real.len() == reference.len()
                && real.iter().zip(&reference).all(|(a, b)| a.2 == b.2);
            if !same_pairs {
                diff.pairs_differ.push(mask);
            } else if real != reference {
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
    }
}

/// One register written three times — the fewest writes after which an
/// object forgets a pair — around a read invoked inside the first write:
/// under the right masks the reader's first replies predate both later
/// writes while its later ones come from objects that no longer hold the
/// first pair. `t = 1`, 16-bit universe: swept exhaustively.
pub fn scenario_three_writes_spanning_read() -> Scenario {
    spanning_read("three_writes_spanning_read", 1, 1)
}

/// [`scenario_three_writes_spanning_read`] with a second writer doing the
/// same (values 10, 20, … alternate between the two), so the reader
/// collects two registers that both forget. 28 bits: budgeted exploration.
pub fn scenario_two_writers_spanning_read() -> Scenario {
    spanning_read("two_writers_spanning_read", 1, 2)
}

/// [`scenario_three_writes_spanning_read`] on seven objects (`t = 2`).
pub fn scenario_t2_three_writes_spanning_read() -> Scenario {
    spanning_read("t2_three_writes_spanning_read", 2, 1)
}

/// [`scenario_two_writers_spanning_read`] on seven objects (`t = 2`).
pub fn scenario_t2_two_writers_spanning_read() -> Scenario {
    spanning_read("t2_two_writers_spanning_read", 2, 2)
}

/// Every writer writes three times back to back (the sim queues one
/// client's ops), one reader reads from inside the first writes.
fn spanning_read(name: &'static str, t: u32, n_writers: u32) -> Scenario {
    let mut ops = vec![OpSpec::Read { at: 3, reader: 0 }];
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
        let objects: Vec<Box<dyn ObjectBehavior<Req, Rep>>> = shared
            .iter()
            .map(|o| Box::new(o.clone()) as Box<dyn ObjectBehavior<Req, Rep>>)
            .collect();
        let controller = scenario.controller_for_mask(mask);
        let mut sim = scenario.build_sim(path, Box::new(controller), objects);
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
