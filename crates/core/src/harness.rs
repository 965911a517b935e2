//! High-level deployment harness: pick a protocol, a fault budget and a
//! reader count; get a deployment with honest objects, typed write and
//! read clients, and checker-ready histories.
//!
//! Both substrates deploy from here, and both are driven by the **same**
//! op-driving implementation ([`rastor_sim::driver::OpDriver`]): the
//! simulator hosts the automata inside its event loop
//! ([`StorageSystem::run`]), and [`StorageSystem::spawn_thread_cluster`]
//! puts the identical objects on OS threads, where the automata from
//! [`StorageSystem::write_client`] / [`StorageSystem::read_client`] run
//! through [`rastor_sim::runtime::ThreadClient`]. There is no second
//! round-loop to keep in sync.
//!
//! Used by integration tests, benches and examples so that protocol
//! selection stays declarative.

use crate::baseline::{RetryStableReadClient, SafeNoWriteReadClient};
use crate::checker::History;
use crate::clients::{AbdReadClient, AbdWriteClient, ByzWriteClient, OpOutput, RegularReadClient};
use crate::msg::{Rep, Req};
use crate::token::AuthKey;
use crate::transform::{make_stamped, AtomicReadClient, ReadMode};
use rastor_common::{ClientId, ClusterConfig, ObjectId, OpKind, RegId, Result, Timestamp, Value};
use rastor_sim::runtime::ThreadCluster;
use rastor_sim::{Completion, Controller, ObjectBehavior, RoundClient, Sim, SimConfig};

/// The protocols the harness can deploy.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Protocol {
    /// ABD (crash model): 1-round writes, 2-round atomic reads.
    Abd,
    /// Byzantine regular register, unauthenticated: 2-round writes,
    /// 2-round reads (contention-free).
    ByzRegular,
    /// Byzantine regular register with secret values: 2-round writes,
    /// 1-round reads.
    AuthRegular,
    /// The paper's headline SWMR atomic construction: 2-round writes,
    /// 4-round reads.
    AtomicUnauth,
    /// The atomic construction with the adaptive read fast path: 2-round
    /// writes, 2-round reads when the collect is uncontended and confirmed,
    /// 4-round fallback otherwise.
    AtomicFast,
    /// The secret-value atomic construction: 2-round writes, 3-round reads.
    AtomicAuth,
    /// Non-writing safe reads: t+1 rounds (baseline \[1\]).
    SafeNoWrite,
    /// Retry-until-stable reads: unbounded under contention (baseline).
    RetryStable,
}

impl Protocol {
    /// The failure model this protocol assumes.
    pub fn model(self) -> rastor_common::FaultModel {
        match self {
            Protocol::Abd => rastor_common::FaultModel::Crash,
            Protocol::AuthRegular | Protocol::AtomicAuth => {
                rastor_common::FaultModel::ByzantineAuth
            }
            _ => rastor_common::FaultModel::Byzantine,
        }
    }

    /// Whether the protocol provides atomic (vs regular/safe) semantics.
    pub fn is_atomic(self) -> bool {
        matches!(
            self,
            Protocol::Abd | Protocol::AtomicUnauth | Protocol::AtomicFast | Protocol::AtomicAuth
        )
    }

    /// All protocols, for table-driven experiments.
    pub fn all() -> [Protocol; 8] {
        [
            Protocol::Abd,
            Protocol::ByzRegular,
            Protocol::AuthRegular,
            Protocol::AtomicUnauth,
            Protocol::AtomicFast,
            Protocol::AtomicAuth,
            Protocol::SafeNoWrite,
            Protocol::RetryStable,
        ]
    }

    /// The paper's claimed contention-free `(write, read)` rounds at fault
    /// budget `t` — the one statement of the complexity table every
    /// measurement is held to. `None` where the paper bounds nothing
    /// (retry-until-stable reads are unbounded under contention).
    pub fn claimed_rounds(self, t: usize) -> Option<(u32, u32)> {
        match self {
            Protocol::Abd => Some((1, 2)),
            Protocol::ByzRegular => Some((2, 2)),
            Protocol::AuthRegular => Some((2, 1)),
            Protocol::AtomicUnauth => Some((2, 4)),
            // Contention-free, the fast path confirms and skips write-back.
            Protocol::AtomicFast => Some((2, 2)),
            Protocol::AtomicAuth => Some((2, 3)),
            Protocol::SafeNoWrite => Some((2, t as u32 + 1)),
            Protocol::RetryStable => None,
        }
    }

    /// Short display name for tables.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Abd => "abd-crash",
            Protocol::ByzRegular => "byz-regular",
            Protocol::AuthRegular => "auth-regular",
            Protocol::AtomicUnauth => "atomic-unauth",
            Protocol::AtomicFast => "atomic-fast",
            Protocol::AtomicAuth => "atomic-auth",
            Protocol::SafeNoWrite => "safe-nowrite",
            Protocol::RetryStable => "retry-stable",
        }
    }
}

/// A declarative workload: absolute invocation times for writes and reads.
#[derive(Clone, Debug, Default)]
pub struct Workload {
    /// `(time, value)` — writes are issued by the single writer in order.
    pub writes: Vec<(u64, Value)>,
    /// `(time, reader-index)`.
    pub reads: Vec<(u64, u32)>,
}

impl Workload {
    /// `n` writes spaced `gap` apart starting at `start`, with values
    /// `10·k` for the k-th write.
    pub fn write_stream(n: u64, start: u64, gap: u64) -> Workload {
        Workload {
            writes: (0..n)
                .map(|k| (start + k * gap, Value::from_u64((k + 1) * 10)))
                .collect(),
            reads: Vec::new(),
        }
    }

    /// Add a read.
    #[must_use]
    pub fn with_read(mut self, at: u64, reader: u32) -> Workload {
        self.reads.push((at, reader));
        self
    }

    /// Add a write.
    #[must_use]
    pub fn with_write(mut self, at: u64, value: Value) -> Workload {
        self.writes.push((at, value));
        self
    }
}

/// Result of a harness run: the completions, a checker-ready history and the
/// raw trace.
#[derive(Debug)]
pub struct RunResult {
    /// All completed operations.
    pub completions: Vec<Completion<OpOutput>>,
    /// Checker-ready history (reads + completed writes; add incomplete
    /// writes manually if the workload crashes the writer).
    pub history: History,
    /// The raw simulator trace.
    pub trace: rastor_sim::Trace,
    /// Whether the run hit the event cap (stuck protocol).
    pub hit_cap: bool,
}

impl RunResult {
    /// Round counts of completed reads, in completion order.
    pub fn read_rounds(&self) -> Vec<u32> {
        self.completions
            .iter()
            .filter(|c| c.output.is_read())
            .map(|c| c.stat.rounds.get())
            .collect()
    }

    /// Round counts of completed writes, in completion order.
    pub fn write_rounds(&self) -> Vec<u32> {
        self.completions
            .iter()
            .filter(|c| !c.output.is_read())
            .map(|c| c.stat.rounds.get())
            .collect()
    }
}

/// A deployable storage system: protocol + cluster shape + writer state.
#[derive(Clone, Debug)]
pub struct StorageSystem {
    protocol: Protocol,
    cfg: ClusterConfig,
    num_readers: u32,
    key: Option<AuthKey>,
    next_ts: u64,
}

impl StorageSystem {
    /// Deploy `protocol` with fault budget `t` and `num_readers` readers at
    /// the protocol's optimal resilience.
    ///
    /// # Errors
    ///
    /// Propagates [`rastor_common::Error::InsufficientResilience`] (cannot
    /// happen for optimal shapes, but kept for API uniformity).
    pub fn new(protocol: Protocol, t: usize, num_readers: u32) -> Result<StorageSystem> {
        let model = protocol.model();
        let cfg = ClusterConfig::new(model.min_objects(t), t, model)?;
        Ok(StorageSystem::with_config(protocol, cfg, num_readers))
    }

    /// Deploy over an explicit (possibly non-optimal) cluster shape.
    pub fn with_config(protocol: Protocol, cfg: ClusterConfig, num_readers: u32) -> StorageSystem {
        let key = match protocol.model() {
            rastor_common::FaultModel::ByzantineAuth => Some(AuthKey::new(0xC0FFEE)),
            _ => None,
        };
        StorageSystem {
            protocol,
            cfg,
            num_readers,
            key,
            next_ts: 0,
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> ClusterConfig {
        self.cfg
    }

    /// The deployed protocol.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Number of readers the deployment supports.
    pub fn num_readers(&self) -> u32 {
        self.num_readers
    }

    /// A simulator populated with honest objects.
    pub fn build_sim(&self, controller: Box<dyn Controller<Req, Rep>>) -> Sim<Req, Rep, OpOutput> {
        let mut sim = Sim::with_controller(SimConfig::default(), controller);
        for _ in 0..self.cfg.num_objects() {
            sim.add_object(Box::new(crate::object::HonestObject::new()));
        }
        sim
    }

    /// The same deployment on OS threads: honest objects on an in-process
    /// object host, with an optional per-envelope service jitter. Drive the
    /// automata from [`StorageSystem::write_client`] /
    /// [`StorageSystem::read_client`] over it with
    /// [`rastor_sim::runtime::ThreadClient`] — the identical protocol code
    /// and op driver as the simulated path, minus the scheduling adversary.
    pub fn spawn_thread_cluster(
        &self,
        jitter: Option<std::time::Duration>,
    ) -> ThreadCluster<Req, Rep> {
        let behaviors: Vec<Box<dyn ObjectBehavior<Req, Rep> + Send>> = (0..self.cfg.num_objects())
            .map(|_| Box::new(crate::object::HonestObject::new()) as _)
            .collect();
        ThreadCluster::spawn(behaviors, jitter)
    }

    /// The next write's client automaton (assigns the next timestamp; the
    /// single writer's operations are sequential so creation order is
    /// timestamp order).
    pub fn write_client(&mut self, value: Value) -> Box<dyn RoundClient<Req, Rep, Out = OpOutput>> {
        self.next_ts += 1;
        let stamped = make_stamped(Timestamp(self.next_ts), value, self.key.as_ref());
        match self.protocol {
            Protocol::Abd => Box::new(AbdWriteClient::new(self.cfg, RegId::WRITER, stamped)),
            _ => Box::new(ByzWriteClient::new(self.cfg, RegId::WRITER, stamped)),
        }
    }

    /// A read automaton for the given reader index.
    ///
    /// # Panics
    ///
    /// Panics if `reader ≥ num_readers`.
    pub fn read_client(&self, reader: u32) -> Box<dyn RoundClient<Req, Rep, Out = OpOutput>> {
        assert!(reader < self.num_readers, "reader index out of range");
        match self.protocol {
            Protocol::Abd => Box::new(AbdReadClient::new(self.cfg, RegId::WRITER)),
            Protocol::ByzRegular => Box::new(RegularReadClient::unauth(self.cfg, RegId::WRITER)),
            Protocol::AuthRegular => Box::new(RegularReadClient::auth(
                self.cfg,
                RegId::WRITER,
                self.key.expect("auth protocol has key"),
            )),
            Protocol::AtomicUnauth => {
                Box::new(AtomicReadClient::unauth(self.cfg, reader, self.num_readers))
            }
            Protocol::AtomicFast => Box::new(
                AtomicReadClient::unauth(self.cfg, reader, self.num_readers)
                    .with_mode(ReadMode::Fast),
            ),
            Protocol::AtomicAuth => Box::new(AtomicReadClient::auth(
                self.cfg,
                reader,
                self.num_readers,
                self.key.expect("auth protocol has key"),
            )),
            Protocol::SafeNoWrite => Box::new(SafeNoWriteReadClient::new(self.cfg, RegId::WRITER)),
            Protocol::RetryStable => {
                Box::new(RetryStableReadClient::new(self.cfg, RegId::WRITER, 256))
            }
        }
    }

    /// Run a workload with optional Byzantine replacements (usually
    /// [`FaultKind::materialize`](crate::adversary::FaultKind::materialize)d),
    /// returning the completions and a checker-ready history.
    pub fn run(
        &mut self,
        controller: Box<dyn Controller<Req, Rep>>,
        workload: &Workload,
        byzantine: Vec<(ObjectId, Box<dyn ObjectBehavior<Req, Rep> + Send>)>,
    ) -> RunResult {
        assert!(
            byzantine.len() <= self.cfg.fault_budget(),
            "cannot corrupt more than t objects"
        );
        let mut sim = self.build_sim(controller);
        for (oid, behavior) in byzantine {
            sim.replace_object(oid, behavior);
        }
        for (at, value) in &workload.writes {
            let client = self.write_client(value.clone());
            sim.invoke_at(*at, ClientId::writer(), OpKind::Write, client);
        }
        // Ghost: under atomicity, a read starting after another read
        // completed must not return an older pair. The rail is shared by
        // every read of this run and checked at completion time against the
        // floor observed at invocation.
        #[cfg(any(debug_assertions, feature = "ghost"))]
        let rail = ghost::ReadRail::new();
        for (at, reader) in &workload.reads {
            #[allow(unused_mut)]
            let mut client = self.read_client(*reader);
            #[cfg(any(debug_assertions, feature = "ghost"))]
            if self.protocol.is_atomic() {
                client = Box::new(ghost::NoRegressionRead::new(client, rail.clone()));
            }
            sim.invoke_at(*at, ClientId::reader(*reader), OpKind::Read, client);
        }
        let completions = sim.run_to_quiescence();
        let hit_cap = sim.hit_event_cap();
        let mut history = History::new();
        history.ingest(&completions);
        RunResult {
            completions,
            history,
            trace: sim.into_trace(),
            hit_cap,
        }
    }
}

/// Ghost reader no-regression rail: always-on in debug builds, compiled
/// out of release builds unless the `ghost` feature is enabled.
#[cfg(any(debug_assertions, feature = "ghost"))]
mod ghost {
    use super::*;
    use rastor_common::TsVal;
    use rastor_sim::ClientAction;
    use std::sync::{Arc, Mutex};

    /// The maximum pair any completed read of one run has returned.
    #[derive(Clone, Debug, Default)]
    pub(super) struct ReadRail(Arc<Mutex<TsVal>>);

    impl ReadRail {
        pub(super) fn new() -> ReadRail {
            ReadRail::default()
        }
        fn floor(&self) -> TsVal {
            self.0.lock().expect("ghost rail lock").clone()
        }
        fn raise(&self, p: &TsVal) {
            let mut g = self.0.lock().expect("ghost rail lock");
            if *p > *g {
                *g = p.clone();
            }
        }
    }

    /// Wraps a read automaton, asserting on completion that the returned
    /// pair is at least the rail's value at invocation time — exactly the
    /// atomicity no-new/old-inversion property for non-overlapping reads
    /// (reads that overlap observe a floor from before they started, so the
    /// check never over-constrains them).
    pub(super) struct NoRegressionRead {
        inner: Box<dyn RoundClient<Req, Rep, Out = OpOutput>>,
        rail: ReadRail,
        floor: TsVal,
    }

    impl NoRegressionRead {
        pub(super) fn new(
            inner: Box<dyn RoundClient<Req, Rep, Out = OpOutput>>,
            rail: ReadRail,
        ) -> NoRegressionRead {
            NoRegressionRead {
                inner,
                rail,
                floor: TsVal::bottom(),
            }
        }
    }

    impl RoundClient<Req, Rep> for NoRegressionRead {
        type Out = OpOutput;

        fn start(&mut self) -> Req {
            self.floor = self.rail.floor();
            self.inner.start()
        }

        fn on_reply(
            &mut self,
            from: ObjectId,
            round: u32,
            reply: &Rep,
        ) -> ClientAction<Req, OpOutput> {
            match self.inner.on_reply(from, round, reply) {
                ClientAction::Complete(out) => {
                    if out.is_read() {
                        let p = out.pair();
                        assert!(
                            *p >= self.floor,
                            "ghost: reader regression — read returned {p:?} \
                             below the completed-read floor {:?}",
                            self.floor
                        );
                        self.rail.raise(p);
                    }
                    ClientAction::Complete(out)
                }
                other => other,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::FaultKind;
    use rastor_sim::FixedDelay;

    fn quiet_run(protocol: Protocol) -> RunResult {
        let mut sys = StorageSystem::new(protocol, 1, 2).unwrap();
        let wl = Workload::default()
            .with_write(0, Value::from_u64(10))
            .with_read(100, 0)
            .with_read(200, 1);
        sys.run(Box::new(FixedDelay::new(1)), &wl, vec![])
    }

    #[test]
    fn every_protocol_round_trips_quietly() {
        for p in Protocol::all() {
            let res = quiet_run(p);
            assert_eq!(res.completions.len(), 3, "{p:?} completes all ops");
            assert!(!res.hit_cap);
            let violations = if p.is_atomic() {
                res.history.check_atomic()
            } else {
                res.history.check_regular()
            };
            assert!(violations.is_empty(), "{p:?}: {violations:?}");
            // Both reads see the write (they start after it completed).
            for c in res.completions.iter().filter(|c| c.output.is_read()) {
                assert_eq!(c.output.pair().ts, Timestamp(1), "{p:?}");
            }
        }
    }

    #[test]
    fn contention_free_round_counts_match_the_paper() {
        for p in Protocol::all() {
            let Some((wr, rr)) = p.claimed_rounds(1) else {
                continue;
            };
            let res = quiet_run(p);
            assert_eq!(res.write_rounds(), vec![wr], "{p:?} write rounds");
            assert_eq!(res.read_rounds(), vec![rr, rr], "{p:?} read rounds");
        }
    }

    #[test]
    fn claimed_rounds_cover_every_bounded_protocol() {
        for t in 1..=5 {
            for p in Protocol::all() {
                let unbounded = p == Protocol::RetryStable;
                assert_eq!(p.claimed_rounds(t).is_none(), unbounded, "{p:?}, t={t}");
            }
            // The Ω(t) baseline is the one claim that depends on `t`.
            assert_eq!(
                Protocol::SafeNoWrite.claimed_rounds(t),
                Some((2, t as u32 + 1))
            );
        }
    }

    #[test]
    fn harness_rejects_overbudget_corruption() {
        let mut sys = StorageSystem::new(Protocol::ByzRegular, 1, 1).unwrap();
        let wl = Workload::default().with_read(0, 0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sys.run(
                Box::new(FixedDelay::new(1)),
                &wl,
                vec![
                    (ObjectId(0), FaultKind::Silent.materialize()),
                    (ObjectId(1), FaultKind::Silent.materialize()),
                ],
            )
        }));
        assert!(result.is_err(), "t+1 corruptions must be rejected");
    }

    #[test]
    fn byzantine_objects_cannot_break_safety() {
        for p in [
            Protocol::ByzRegular,
            Protocol::AuthRegular,
            Protocol::AtomicUnauth,
            Protocol::AtomicFast,
            Protocol::AtomicAuth,
        ] {
            for adv in FaultKind::stock() {
                let mut sys = StorageSystem::new(p, 1, 2).unwrap();
                let wl = Workload::default()
                    .with_write(0, Value::from_u64(10))
                    .with_write(50, Value::from_u64(20))
                    .with_read(100, 0)
                    .with_read(200, 1);
                let res = sys.run(
                    Box::new(FixedDelay::new(1)),
                    &wl,
                    vec![(ObjectId(0), adv.materialize())],
                );
                assert_eq!(res.completions.len(), 4, "{p:?}/{adv:?} wait-freedom");
                let violations = if p.is_atomic() {
                    res.history.check_atomic()
                } else {
                    res.history.check_regular()
                };
                assert!(violations.is_empty(), "{p:?}/{adv:?}: {violations:?}");
            }
        }
    }

    #[test]
    fn protocol_metadata() {
        assert!(Protocol::AtomicUnauth.is_atomic());
        assert!(!Protocol::ByzRegular.is_atomic());
        assert_eq!(Protocol::Abd.model(), rastor_common::FaultModel::Crash);
        assert_eq!(Protocol::all().len(), 8);
        assert_eq!(Protocol::AtomicAuth.name(), "atomic-auth");
        assert!(Protocol::AtomicFast.is_atomic());
        assert_eq!(Protocol::AtomicFast.name(), "atomic-fast");
        assert_eq!(
            Protocol::AtomicFast.model(),
            rastor_common::FaultModel::Byzantine
        );
    }

    /// The two deploy paths — simulator event loop and thread runtime —
    /// run the same automata through the same op driver; a quiet workload
    /// must produce identical outputs and round counts on both.
    #[test]
    fn sim_and_thread_deploys_agree() {
        for p in [
            Protocol::Abd,
            Protocol::ByzRegular,
            Protocol::AtomicUnauth,
            Protocol::AtomicFast,
        ] {
            // Simulated substrate.
            let mut sys = StorageSystem::new(p, 1, 1).unwrap();
            let wl = Workload::default()
                .with_write(0, Value::from_u64(42))
                .with_read(1_000, 0);
            let sim_res = sys.run(Box::new(rastor_sim::FixedDelay::new(1)), &wl, vec![]);

            // Thread substrate: same system, same automata constructors.
            let mut sys = StorageSystem::new(p, 1, 1).unwrap();
            let cluster = sys.spawn_thread_cluster(None);
            let mut client = rastor_sim::runtime::ThreadClient::new(ClientId::reader(0));
            // One op at a time: the read starts after the write completes,
            // exactly like the scheduled simulator workload.
            let thread_outs: Vec<(OpOutput, u32)> =
                [sys.write_client(Value::from_u64(42)), sys.read_client(0)]
                    .into_iter()
                    .map(|automaton| {
                        client
                            .run_op(&cluster, automaton, std::time::Duration::from_secs(10))
                            .expect("completes")
                    })
                    .collect();
            let sim_outs: Vec<(OpOutput, u32)> = sim_res
                .completions
                .iter()
                .map(|c| (c.output.clone(), c.stat.rounds.get()))
                .collect();
            assert_eq!(sim_outs, thread_outs, "{p:?}: substrates disagree");
        }
    }

    #[test]
    fn workload_builders() {
        let wl = Workload::write_stream(3, 10, 5).with_read(100, 0);
        assert_eq!(wl.writes.len(), 3);
        assert_eq!(wl.writes[2].0, 20);
        assert_eq!(wl.reads, vec![(100, 0)]);
    }
}
