//! Net-substrate falsification: seeded chaos searches over real TCP
//! deployments.
//!
//! The sim explorer enumerates schedules; the TCP stack (reactor, wire
//! v3, client resubmission) cannot be enumerated, so this module puts it
//! under the same *falsification loop* instead: a deterministic battery
//! of [`NetPoint`]s — a seeded drop/reorder/delay profile, the stock
//! controller [`rastor_net::ChaosCfg`] at every server's host, plus an
//! optional partition pulse — each driving a
//! live [`rastor_net::NetKv`] deployment through a seeded
//! [`rastor_kv::workload`] run, judged like every other run
//! ([`Run::verdict`](rastor_kv::workload::Run::verdict)).
//!
//! Byzantine objects ride along through the `NetKv::spawn_with` behavior
//! seam, mirroring the sim [`crate::Cast`] axis and naming faults with the
//! same [`FaultKind`]: a scenario with `byzantine ≤ t` faulty objects must
//! stay clean
//! across the whole battery, while `t + 1` colluding forgers yields a
//! fabricated-read witness the search finds
//! ([`NetScenario::find_witness`]), shrinks
//! ([`NetScenario::minimize_point`]) and writes to `target/model-check/`
//! ([`write_net_report`]) like any sim-substrate find. (As in the sim,
//! `t + 1` *stale-replay* objects cost liveness, not safety: reliable
//! channels let the slow read keep collecting until honest replies
//! outvote them — so the net witness, like the sim's, is forgery.)
//!
//! Unlike the sim axes, a chaos point replays against wall clocks, so a
//! rerun is *statistically* faithful, not bit-identical: the point's
//! seeds pin every fault draw, but thread and socket timing still move.
//! Reports say so, and [`NetScenario::minimize_point`] therefore probes
//! each ablation several times before accepting it.

use rastor_core::FaultKind;
use rastor_kv::workload::{self, Mix};
use rastor_kv::StoreConfig;
use rastor_net::{ChaosCfg, NetKv};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A full-partition pulse `(after_ms, width_ms)`: every object is cut
/// off `after_ms` into the run for `width_ms`.
pub type Pulse = (u64, u64);

/// One point of the chaos space: the hosts' link-fault profile, plus an
/// optional partition pulse. The profile's seed also seeds the workload,
/// so the point *is* the repro.
pub type NetPoint = (ChaosCfg, Option<Pulse>);

/// The same point re-seeded for another search round.
fn reseeded((cfg, pulse): &NetPoint, round: u64) -> NetPoint {
    let seed = cfg.seed.wrapping_add(round.wrapping_mul(0x9e37));
    (cfg.clone().with_seed(seed), *pulse)
}

/// Candidate single-knob ablations for minimization: `point` with one
/// active fault knob turned off (drops, reorder, partition, jitter, delay
/// — in that order of suspicion).
pub fn ablations((cfg, pulse): &NetPoint) -> Vec<NetPoint> {
    let mut out = Vec::new();
    if cfg.drop_prob > 0.0 {
        out.push((cfg.clone().with_drops(0.0), *pulse));
    }
    if cfg.reorder_prob > 0.0 {
        out.push((cfg.clone().with_reordering(0.0), *pulse));
    }
    if pulse.is_some() {
        out.push((cfg.clone(), None));
    }
    if !cfg.jitter.is_zero() {
        let mut c = cfg.clone();
        c.jitter = Duration::ZERO;
        out.push((c, *pulse));
    }
    if !cfg.delay.is_zero() {
        let mut c = cfg.clone();
        c.delay = Duration::ZERO;
        out.push((c, *pulse));
    }
    out
}

/// A fixed workload over one TCP deployment, explored under many
/// [`NetPoint`]s — the net-substrate counterpart of a sim
/// [`Scenario`](crate::Scenario).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetScenario {
    /// Name used in reports and artifact file names.
    pub name: &'static str,
    /// Per-shard fault budget; each shard deploys `3t + 1` objects.
    pub t: usize,
    /// The first `byzantine` objects of the shard run `fault`. `≤ t` must
    /// be survivable; `t + 1` forgers must be caught.
    pub byzantine: usize,
    /// The behavior those objects run. [`FaultKind::StaleAfter`]`(0)` is
    /// safe at any count under reliable channels (reads outwait it), so it
    /// exercises the `≤ t` clean sweeps *and* the liveness margin;
    /// `t + 1` colluding [`FaultKind::ForgeHigh`] copies give the
    /// fabrication `t + 1` vouchers — the net-substrate witness.
    pub fault: FaultKind,
    /// What the handles do. Its seed is replaced by each point's; its
    /// timeout is generous by default so a partition pulse costs latency,
    /// not a timed-out op.
    pub mix: Mix,
}

/// The verdict of one chaos point run.
#[derive(Clone, Debug)]
pub struct NetOutcome {
    /// Violation descriptions (`atomicity: ...` from the history checker,
    /// `liveness: ...` for ops that outran the generous timeout,
    /// `spawn: ...` for a deployment that never came up).
    pub violations: Vec<String>,
    /// Completed puts across all handles.
    pub writes: usize,
    /// Completed gets across all handles.
    pub reads: usize,
}

impl NetOutcome {
    /// Whether the run produced no violation.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether any violation came from the atomicity checker (as opposed
    /// to liveness/spawn trouble).
    pub fn has_atomicity_violation(&self) -> bool {
        self.violations.iter().any(|v| v.starts_with("atomicity:"))
    }
}

/// A failing chaos point, with what went wrong.
#[derive(Clone, Debug)]
pub struct NetFailure {
    /// The point that failed — rerun [`NetScenario::run_point`] on it to
    /// replay (statistically; see the module docs).
    pub point: NetPoint,
    /// The run's violations.
    pub violations: Vec<String>,
}

/// Tally of one [`NetScenario::search`].
#[derive(Clone, Debug, Default)]
pub struct NetSearchStats {
    /// Chaos points executed.
    pub runs: usize,
    /// Completed puts across all runs.
    pub writes: usize,
    /// Completed gets across all runs.
    pub reads: usize,
    /// Every failing point.
    pub failures: Vec<NetFailure>,
    /// Wall clock the search actually used.
    pub elapsed: Duration,
}

impl NetSearchStats {
    /// Whether the search found nothing.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The deterministic point battery a clean-sweep search runs: no faults,
/// pure latency, a harsh lossy link, an adjacent reorderer, loss
/// and reorder combined, and a mid-run full-partition pulse.
pub fn chaos_battery(seed: u64) -> Vec<NetPoint> {
    let profile = |delay_us, jitter_us, drops, reordering| {
        let mut c = ChaosCfg::default()
            .with_seed(seed)
            .with_drops(drops)
            .with_reordering(reordering);
        c.delay = Duration::from_micros(delay_us);
        c.jitter = Duration::from_micros(jitter_us);
        c
    };
    vec![
        (profile(0, 0, 0.0, 0.0), None),
        (profile(200, 150, 0.0, 0.0), None),
        (profile(100, 0, 0.2, 0.0), None),
        (profile(100, 100, 0.0, 0.1), None),
        (profile(100, 0, 0.04, 0.1), None),
        (profile(100, 0, 0.0, 0.0), Some((5, 150))),
    ]
}

impl NetScenario {
    /// A small soak shape: `t = 1` (four objects), two handles, two keys,
    /// eight mixed ops each, honest objects, generous timeouts.
    pub fn small(name: &'static str) -> NetScenario {
        NetScenario {
            name,
            t: 1,
            byzantine: 0,
            fault: FaultKind::StaleAfter(0),
            mix: Mix::mixed(2, 2, 8),
        }
    }

    /// Run the workload once under `point` and judge every key's history.
    ///
    /// One run = one fresh [`NetKv`] under the point's profile: real
    /// sockets, real reactor, real resubmission. Timed-out ops are
    /// themselves violations (`liveness:`) — the timeout is generous
    /// precisely so that an honest run never hits it.
    pub fn run_point(&self, (cfg, pulse): &NetPoint) -> NetOutcome {
        let (byz, fault) = (self.byzantine, self.fault.clone());
        // Behind the one shard listener each object is its own fault
        // domain: the profile draws every object's faults from its own
        // streams, so honest objects can diverge.
        let spawn = NetKv::spawn_with(
            StoreConfig::new(self.t, 1, self.mix.handles),
            Some(cfg.clone()),
            move |_shard, id| ((id.0 as usize) < byz).then(|| fault.materialize()),
        );
        let kv = match spawn {
            Ok(kv) => kv,
            Err(e) => {
                return NetOutcome {
                    violations: vec![format!("spawn: {e}")],
                    writes: 0,
                    reads: 0,
                }
            }
        };
        let running = workload::start(
            &kv.store,
            &Mix {
                seed: cfg.seed ^ (0xC11E << 8),
                ..self.mix
            },
        );

        // The partition pulse, if the point prescribes one: the store's
        // one shard is cut off at every server mid-flight, then heals.
        // Client resubmission must absorb it inside the generous op
        // timeout.
        if let Some((after_ms, width_ms)) = *pulse {
            std::thread::sleep(Duration::from_millis(after_ms));
            kv.servers[0].host().set_partitioned(true);
            std::thread::sleep(Duration::from_millis(width_ms));
            kv.servers[0].host().set_partitioned(false);
        }

        let run = running.join();
        let (puts, gets) = run.latencies_us();
        NetOutcome {
            violations: run.verdict(),
            writes: puts.len(),
            reads: gets.len(),
        }
    }

    /// Run `points` under a wall-clock budget: one mandatory full pass,
    /// then further re-seeded rounds while the budget lasts. Every
    /// failing point is collected with its violations.
    pub fn search(&self, points: &[NetPoint], budget: Duration) -> NetSearchStats {
        let start = Instant::now();
        let mut stats = NetSearchStats::default();
        let mut round: u64 = 0;
        'rounds: loop {
            for p in points {
                let p = reseeded(p, round);
                let out = self.run_point(&p);
                stats.runs += 1;
                stats.writes += out.writes;
                stats.reads += out.reads;
                if !out.is_clean() {
                    stats.failures.push(NetFailure {
                        point: p,
                        violations: out.violations,
                    });
                }
                // The first pass always completes: the battery is the
                // spec, the budget only caps the re-seeded rounds.
                if round > 0 && start.elapsed() >= budget {
                    break 'rounds;
                }
            }
            round += 1;
            if start.elapsed() >= budget {
                break;
            }
        }
        stats.elapsed = start.elapsed();
        stats
    }

    /// Hunt for an atomicity witness by re-seeding `base` until one run's
    /// history fails `check_atomic`, the budget drains, or `max_trials`
    /// runs have executed. The first trial always runs.
    pub fn find_witness(
        &self,
        base: &NetPoint,
        budget: Duration,
        max_trials: usize,
    ) -> Option<NetFailure> {
        let start = Instant::now();
        for trial in 0..max_trials {
            if trial > 0 && start.elapsed() >= budget {
                return None;
            }
            let seed = base.0.seed.wrapping_add(trial as u64);
            let p = (base.0.clone().with_seed(seed), base.1);
            let out = self.run_point(&p);
            if out.has_atomicity_violation() {
                return Some(NetFailure {
                    point: p,
                    violations: out.violations,
                });
            }
        }
        None
    }

    /// Shrink a failing point by greedy ablation: turn off any single
    /// fault knob whose removal still reproduces an atomicity violation
    /// within `probes` reruns, until no knob can be turned off.
    /// (Wall-clock nondeterminism is why each ablation gets several
    /// probes rather than one.)
    pub fn minimize_point(&self, point: &NetPoint, probes: usize) -> NetPoint {
        let mut cur = point.clone();
        loop {
            let mut improved = false;
            for cand in ablations(&cur) {
                let reproduces =
                    (0..probes).any(|_| self.run_point(&cand).has_atomicity_violation());
                if reproduces {
                    cur = cand;
                    improved = true;
                    break;
                }
            }
            if !improved {
                return cur;
            }
        }
    }
}

/// Write one net-substrate failure report under `dir` (the same
/// `target/model-check/` directory CI uploads for the sim axes) and
/// return its path.
pub fn write_net_report(
    dir: &Path,
    scenario: &NetScenario,
    failure: &NetFailure,
    minimized: &NetPoint,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let mut s = String::new();
    s.push_str(&format!("scenario:  net/{}\n", scenario.name));
    s.push_str(&format!("  {scenario:?}\n"));
    s.push_str(&format!(
        "cast:      {} byzantine {:?} object(s) of {} (t = {})\n",
        scenario.byzantine,
        scenario.fault,
        3 * scenario.t + 1,
        scenario.t
    ));
    let show = |(cfg, pulse): &NetPoint| format!("{cfg:?}, partition pulse {pulse:?}");
    s.push_str(&format!("point:     {}\n", show(&failure.point)));
    s.push_str(&format!("minimized: {}\n", show(minimized)));
    for v in &failure.violations {
        s.push_str(&format!("violation: {v}\n"));
    }
    s.push_str(&format!(
        "replay:    NetScenario {{ .. }}.run_point(&({:?}, {:?})) — wall-clock \
         nondeterministic; rerun a few times, or pin the workload seed with \
         RASTOR_SEED={:#x}\n",
        minimized.0, minimized.1, minimized.0.seed
    ));
    let path = dir.join(format!(
        "net-{}-{:#x}.txt",
        scenario.name, failure.point.0.seed
    ));
    std::fs::write(&path, s)?;
    Ok(path)
}
