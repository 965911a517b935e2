//! Net-substrate falsification: seeded chaos searches over real TCP
//! deployments.
//!
//! The sim explorer enumerates schedules; the TCP stack (reactor, wire
//! v2, client resubmission) cannot be enumerated, so this module puts it
//! under the same *falsification loop* instead: a deterministic battery
//! of [`ChaosPoint`]s — seeded drop/reorder/delay/partition
//! configurations for the [`rastor_net::ChaosProxy`] — each driving a
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
use rastor_net::{ChaosCfg, ChaosStats, NetKv};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One point of the chaos-configuration space: everything a run needs to
/// redraw the same faults — seed included, so the point *is* the repro.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosPoint {
    /// Seed for the proxies' fault streams and the workload's rng.
    pub seed: u64,
    /// Fixed head-of-line latency per frame, microseconds.
    pub delay_us: u64,
    /// Extra uniform latency in `[0, jitter_us)` per frame.
    pub jitter_us: u64,
    /// Frame drop probability in thousandths (200 = 20%).
    pub drop_milli: u32,
    /// Adjacent-reorder probability in thousandths.
    pub reorder_milli: u32,
    /// A full-partition pulse: `(after_ms, width_ms)` — all links go dark
    /// `after_ms` into the run for `width_ms`.
    pub partition_pulse_ms: Option<(u64, u64)>,
}

impl ChaosPoint {
    /// A faithful relay (no injected faults) under `seed`.
    pub fn faithful(seed: u64) -> ChaosPoint {
        ChaosPoint {
            seed,
            delay_us: 0,
            jitter_us: 0,
            drop_milli: 0,
            reorder_milli: 0,
            partition_pulse_ms: None,
        }
    }

    /// The proxy configuration this point prescribes.
    pub fn cfg(&self) -> ChaosCfg {
        ChaosCfg {
            seed: self.seed,
            delay: Duration::from_micros(self.delay_us),
            jitter: Duration::from_micros(self.jitter_us),
            drop_prob: f64::from(self.drop_milli) / 1000.0,
            reorder_prob: f64::from(self.reorder_milli) / 1000.0,
        }
    }

    /// The same point re-seeded for another search round.
    pub fn reseeded(&self, round: u64) -> ChaosPoint {
        ChaosPoint {
            seed: self.seed.wrapping_add(round.wrapping_mul(0x9e37)),
            ..*self
        }
    }

    /// Candidate single-axis ablations for minimization: this point with
    /// one active fault axis turned off (drops, reorder, partition,
    /// jitter, delay — in that order of suspicion).
    pub fn ablations(&self) -> Vec<ChaosPoint> {
        let mut out = Vec::new();
        if self.drop_milli != 0 {
            out.push(ChaosPoint {
                drop_milli: 0,
                ..*self
            });
        }
        if self.reorder_milli != 0 {
            out.push(ChaosPoint {
                reorder_milli: 0,
                ..*self
            });
        }
        if self.partition_pulse_ms.is_some() {
            out.push(ChaosPoint {
                partition_pulse_ms: None,
                ..*self
            });
        }
        if self.jitter_us != 0 {
            out.push(ChaosPoint {
                jitter_us: 0,
                ..*self
            });
        }
        if self.delay_us != 0 {
            out.push(ChaosPoint {
                delay_us: 0,
                ..*self
            });
        }
        out
    }
}

/// A fixed workload over one TCP deployment, explored under many
/// [`ChaosPoint`]s — the net-substrate counterpart of a sim
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
    /// Fault tallies summed over the deployment's proxies.
    pub chaos: ChaosStats,
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
    pub point: ChaosPoint,
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

/// The deterministic point battery a clean-sweep search runs: a faithful
/// relay, pure latency, a harsh lossy link, an adjacent reorderer, loss
/// and reorder combined, and a mid-run full-partition pulse.
pub fn chaos_battery(seed: u64) -> Vec<ChaosPoint> {
    let base = ChaosPoint::faithful(seed);
    vec![
        base,
        ChaosPoint {
            delay_us: 200,
            jitter_us: 150,
            ..base
        },
        ChaosPoint {
            drop_milli: 200,
            delay_us: 100,
            ..base
        },
        ChaosPoint {
            reorder_milli: 100,
            delay_us: 100,
            jitter_us: 100,
            ..base
        },
        ChaosPoint {
            drop_milli: 40,
            reorder_milli: 100,
            delay_us: 100,
            ..base
        },
        ChaosPoint {
            partition_pulse_ms: Some((5, 150)),
            delay_us: 100,
            ..base
        },
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
    /// One run = one fresh [`NetKv`] behind fresh chaos proxies: real
    /// sockets, real reactor, real resubmission. Timed-out ops are
    /// themselves violations (`liveness:`) — the timeout is generous
    /// precisely so that an honest run never hits it.
    pub fn run_point(&self, point: &ChaosPoint) -> NetOutcome {
        let (byz, fault) = (self.byzantine, self.fault.clone());
        // Per-object listeners: each object is its own link fault domain
        // (behind a shared shard listener, link faults hit every object
        // uniformly and honest objects can never diverge — see
        // `NetKv::spawn_per_object`).
        let spawn = NetKv::spawn_per_object(
            StoreConfig::new(self.t, 1, self.mix.handles),
            Some(point.cfg()),
            move |_shard, id| ((id.0 as usize) < byz).then(|| fault.materialize()),
        );
        let kv = match spawn {
            Ok(kv) => kv,
            Err(e) => {
                return NetOutcome {
                    violations: vec![format!("spawn: {e}")],
                    writes: 0,
                    reads: 0,
                    chaos: ChaosStats::default(),
                }
            }
        };
        let running = workload::start(
            &kv.store,
            &Mix {
                seed: point.seed ^ (0xC11E << 8),
                ..self.mix
            },
        );

        // The partition pulse, if the point prescribes one: all links go
        // dark mid-flight, then heal. Client resubmission must absorb it
        // inside the generous op timeout.
        if let Some((after_ms, width_ms)) = point.partition_pulse_ms {
            std::thread::sleep(Duration::from_millis(after_ms));
            for proxy in &kv.proxies {
                proxy.set_partitioned(true);
            }
            std::thread::sleep(Duration::from_millis(width_ms));
            for proxy in &kv.proxies {
                proxy.set_partitioned(false);
            }
        }

        let run = running.join();
        let (puts, gets) = run.latencies_us();
        let chaos = kv.proxies.iter().fold(ChaosStats::default(), |acc, p| {
            let s = p.stats();
            ChaosStats {
                forwarded: acc.forwarded + s.forwarded,
                dropped: acc.dropped + s.dropped,
                reordered: acc.reordered + s.reordered,
                partition_drops: acc.partition_drops + s.partition_drops,
            }
        });
        NetOutcome {
            violations: run.verdict(),
            writes: puts.len(),
            reads: gets.len(),
            chaos,
        }
    }

    /// Run `points` under a wall-clock budget: one mandatory full pass,
    /// then further re-seeded rounds while the budget lasts. Every
    /// failing point is collected with its violations.
    pub fn search(&self, points: &[ChaosPoint], budget: Duration) -> NetSearchStats {
        let start = Instant::now();
        let mut stats = NetSearchStats::default();
        let mut round: u64 = 0;
        'rounds: loop {
            for p in points {
                let p = p.reseeded(round);
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
        base: &ChaosPoint,
        budget: Duration,
        max_trials: usize,
    ) -> Option<NetFailure> {
        let start = Instant::now();
        for trial in 0..max_trials {
            if trial > 0 && start.elapsed() >= budget {
                return None;
            }
            let p = ChaosPoint {
                seed: base.seed.wrapping_add(trial as u64),
                ..*base
            };
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

    /// Shrink a failing point by greedy axis ablation: turn off any
    /// single fault axis whose removal still reproduces an atomicity
    /// violation within `probes` reruns, until no axis can be dropped.
    /// (Wall-clock nondeterminism is why each ablation gets several
    /// probes rather than one.)
    pub fn minimize_point(&self, point: &ChaosPoint, probes: usize) -> ChaosPoint {
        let mut cur = *point;
        loop {
            let mut improved = false;
            for cand in cur.ablations() {
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
    minimized: &ChaosPoint,
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
    s.push_str(&format!("point:     {:?}\n", failure.point));
    s.push_str(&format!("minimized: {minimized:?}\n"));
    for v in &failure.violations {
        s.push_str(&format!("violation: {v}\n"));
    }
    s.push_str(&format!(
        "replay:    NetScenario {{ .. }}.run_point(&{minimized:?}) — wall-clock \
         nondeterministic; rerun a few times, or pin the workload seed with \
         RASTOR_SEED={:#x}\n",
        minimized.seed
    ));
    let path = dir.join(format!(
        "net-{}-{:#x}.txt",
        scenario.name, failure.point.seed
    ));
    std::fs::write(&path, s)?;
    Ok(path)
}
