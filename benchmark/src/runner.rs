//! One workload run, inside the fresh child process: set-up, warm-up,
//! latency phase, saturation phase, verification pass — or, for the
//! traced run, the alternating-window saturation phase, the probes and
//! the per-layer table.

use crate::client::{key_names, Client, EventKind, Report, Shared, Tracing};
use crate::deploy::Deployment;
use crate::json::{Metric, RunResult};
use crate::layers;
use crate::names::END_TO_END;
use crate::procstat;
use crate::spans::{TraceClock, TraceFolder};
use crate::stats;
use crate::workload::{
    decode_value, OpKind, Spec, Substrate, ValueMaker, SAT_DEPTH, VERIFY_KEYS, WINDOWS,
};
use rastor_common::{ClientId, ObjectId};
use rastor_core::checker::{History, ReadRec, WriteRec};
use rastor_obs::{names, trace, Registry};
use std::path::{Path, PathBuf};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

pub struct RunCfg {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Set-ups per timed run: `setup_s` is their median. The last store is
/// the one the run uses.
const SETUPS: usize = 3;

/// A run with a larger share of errored or timed-out operations fails.
const MAX_FAILED_RATIO: f64 = 0.001;

/// Shares of `--seconds`: the latency and saturation phases are the
/// measured time, warm-up and verification come on top.
const WARMUP_SHARE: f64 = 0.10;
const LATENCY_SHARE: f64 = 0.25;
const SATURATION_SHARE: f64 = 0.75;
const VERIFY_SHARE: f64 = 0.10;

/// The global registry's counters the per-layer table reads as deltas
/// across the saturation phase.
#[derive(Clone, Copy, Debug)]
pub enum Count {
    ReadsFast,
    ReadsSlow,
    OpsCompleted,
    OpsExpired,
    /// Sum of the `driver.op_rounds` histogram.
    RoundsSum,
    WalAppends,
    Snapshots,
    FramesIn,
    FramesOut,
    Wakeups,
    Resubmissions,
}

/// Registry names in `Count` order.
const COUNT_NAMES: [&str; 11] = [
    names::KV_READS_FAST,
    names::KV_READS_SLOW,
    names::DRIVER_OPS_COMPLETED,
    names::DRIVER_OPS_EXPIRED,
    names::DRIVER_OP_ROUNDS,
    names::STORE_WAL_APPENDS,
    names::STORE_SNAPSHOTS,
    names::NET_FRAMES_IN,
    names::NET_FRAMES_OUT,
    names::NET_READINESS_WAKEUPS,
    names::NET_RESUBMISSIONS,
];

#[derive(Clone, Copy, Default, Debug)]
pub struct Counters([u64; COUNT_NAMES.len()]);

impl Counters {
    pub fn read() -> Counters {
        let reg = Registry::global();
        let mut out = Counters::default();
        for (value, name) in out.0.iter_mut().zip(COUNT_NAMES) {
            *value = if name == names::DRIVER_OP_ROUNDS {
                reg.histogram(name).snapshot().sum
            } else {
                reg.counter_value(name)
            };
        }
        out
    }

    pub fn since(&self, before: &Counters) -> Counters {
        let mut out = *self;
        for (value, old) in out.0.iter_mut().zip(before.0) {
            *value -= old;
        }
        out
    }

    pub fn get(&self, c: Count) -> u64 {
        self.0[c as usize]
    }
}

/// What the main thread measured around the saturation phase.
#[derive(Default)]
pub struct Saturation {
    /// Process CPU time across the phase, drain included.
    pub cpu: Duration,
    /// Registry counter deltas across the phase.
    pub counters: Counters,
    /// `store.wal_appends` since process start, at the phase's start.
    pub wal_appends_before: u64,
    pub recover_ms: f64,
    pub disk_bytes: u64,
}

/// What the traced run hands the layer table.
pub struct TraceInputs {
    pub sat: Saturation,
    /// Operations completed in the saturation phase, drain included.
    pub ops: u64,
    pub untraced_rate: f64,
    pub traced_rate: f64,
    /// The latency phase's p95s: diagnostics, reported from this run.
    pub get_p95_us: f64,
    pub put_p95_us: f64,
    /// `VmHWM` before the probes run.
    pub rss_peak_mb: f64,
}

/// The benchmark's own directory.
pub fn manifest_dir() -> PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string())
        .into()
}

/// Where run-time files go: `benchmark/out/`, inside the checkout.
pub fn out_root() -> PathBuf {
    manifest_dir().join("out")
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[derive(Clone, Copy)]
enum Phase {
    Warmup,
    Latency,
    Saturation,
    /// Thread 0 writes every verification key once, so each value a
    /// verification read can return has its write in the history.
    VerifySeed,
    Verify,
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

fn joined<T>(items: &[T], show: impl Fn(&T) -> String) -> String {
    items.iter().map(show).collect::<Vec<_>>().join(" ")
}

/// Spawn and preload the store `times` times, each on a fresh data dir;
/// return the last store, its data dir and every set-up's duration.
fn set_up(
    spec: &Spec,
    maker: &ValueMaker,
    scratch: &Path,
    times: usize,
) -> Result<(Deployment, PathBuf, Vec<f64>), String> {
    let mut secs = Vec::new();
    let mut last: Option<(Deployment, PathBuf)> = None;
    for i in 0..times {
        if let Some((dep, dir)) = last.take() {
            drop(dep);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = scratch.join(format!("data-{i}"));
        let t0 = Instant::now();
        let dep = Deployment::spawn(spec, &dir).map_err(|e| format!("spawn: {e}"))?;
        dep.preload(spec, maker)
            .map_err(|e| format!("preload: {e}"))?;
        secs.push(t0.elapsed().as_secs_f64());
        last = Some((dep, dir));
    }
    let (dep, dir) = last.ok_or("no set-up was asked for")?;
    Ok((dep, dir, secs))
}

/// Run the phases on `spec.threads` client threads in lock-step: the main
/// thread opens and closes every phase through a barrier and measures
/// around the saturation phase.
fn drive(
    cfg: &RunCfg,
    dep: &Deployment,
    data_dir: &Path,
    maker: &ValueMaker,
    keys: &[String],
) -> (Vec<Report>, Saturation) {
    let spec = cfg.spec;
    let phases = [
        Phase::Warmup,
        Phase::Latency,
        Phase::Saturation,
        Phase::VerifySeed,
        Phase::Verify,
    ];
    let sat_windows = sat_windows(cfg);
    let window = window_len(cfg);
    let verify_keys = VERIFY_KEYS.min(spec.keys);
    if cfg.trace {
        let rec = trace::global();
        rec.set_sample_every(8);
        rec.set_threshold_us(0);
        rec.clear_captured();
    }

    let barrier = Barrier::new(spec.threads as usize + 1);
    let phase_start = Mutex::new(Instant::now());
    let folder = Mutex::new(TraceFolder::default());
    let shared = Shared {
        store: &dep.store,
        spec,
        seed: cfg.seed,
        maker,
        keys,
        folder: &folder,
        clock: TraceClock::calibrate(),
        traced: cfg.trace,
    };
    let mut sat = Saturation::default();

    let reports = std::thread::scope(|s| {
        let clients: Vec<_> = (0..spec.threads)
            .map(|t| {
                let (shared, barrier, phase_start) = (&shared, &barrier, &phase_start);
                s.spawn(move || {
                    let mut c = Client::new(shared, t)
                        .expect("handle ids below the pool size are free at start");
                    for phase in &phases {
                        barrier.wait();
                        let start = *phase_start.lock().expect("phase start lock");
                        match phase {
                            Phase::Warmup => c.run_pipelined(
                                SAT_DEPTH,
                                start,
                                1,
                                secs(cfg.seconds * WARMUP_SHARE),
                                Tracing::Off,
                            ),
                            Phase::Latency => c.run_blocking(
                                start + secs(cfg.seconds * LATENCY_SHARE),
                                spec.keys,
                                true,
                                false,
                            ),
                            Phase::Saturation => {
                                c.take_get_rounds();
                                let tracing = if cfg.trace {
                                    Tracing::Alternate
                                } else {
                                    Tracing::Off
                                };
                                c.run_pipelined(SAT_DEPTH, start, sat_windows, window, tracing);
                                c.report.get_rounds = c.take_get_rounds();
                            }
                            Phase::VerifySeed => {
                                if t == 0 {
                                    for key in 0..verify_keys {
                                        let mut op = c.next_op_in(verify_keys);
                                        (op.kind, op.key) = (OpKind::Put, key);
                                        c.blocking_op(op, false, true);
                                    }
                                }
                            }
                            Phase::Verify => c.run_blocking(
                                start + secs(cfg.seconds * VERIFY_SHARE),
                                verify_keys,
                                false,
                                true,
                            ),
                        }
                        barrier.wait();
                    }
                    c.report
                })
            })
            .collect();

        for phase in &phases {
            if cfg.trace && matches!(phase, Phase::Verify) {
                // The blocking calls of the verification pass are traced too.
                trace::global().set_enabled(true);
            }
            let before = (procstat::cpu_time(), Counters::read());
            *phase_start.lock().expect("phase start lock") =
                Instant::now() + Duration::from_millis(2);
            barrier.wait();
            barrier.wait();
            if !matches!(phase, Phase::Saturation) {
                continue;
            }
            sat.cpu = procstat::cpu_time().saturating_sub(before.0);
            sat.counters = Counters::read().since(&before.1);
            sat.wal_appends_before = before.1.get(Count::WalAppends);
            if cfg.trace && spec.substrate == Substrate::Wal {
                sat.disk_bytes = dir_bytes(data_dir);
                sat.recover_ms = dep
                    .store
                    .restart_object(0, ObjectId(1))
                    .map_or(0.0, |d| d.as_secs_f64() * 1e3);
            }
        }
        trace::global().set_enabled(false);
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    (reports, sat)
}

fn sat_windows(cfg: &RunCfg) -> usize {
    if cfg.trace {
        2 * WINDOWS
    } else {
        WINDOWS
    }
}

fn window_len(cfg: &RunCfg) -> Duration {
    secs(cfg.seconds * SATURATION_SHARE / sat_windows(cfg) as f64)
}

/// What the verification pass found.
struct Verified {
    violations: usize,
    /// Keys checked, and how many of them had a history free of violations.
    keys: u32,
    clean_keys: u32,
}

/// The verification pass's per-key histories through the repository's
/// checker.
fn verify_atomicity(spec: &Spec, maker: &ValueMaker, reports: &[Report]) -> Verified {
    let keys = VERIFY_KEYS.min(spec.keys);
    let mut histories: Vec<History> = (0..keys).map(|_| History::new()).collect();
    let mut ops = 0u64;
    for (t, r) in reports.iter().enumerate() {
        for e in &r.events {
            ops += 1;
            let h = &mut histories[e.key as usize];
            match &e.what {
                EventKind::Wrote { ts, stamp } => h.push_write(WriteRec {
                    ts: *ts,
                    val: maker.make(e.key, *stamp),
                    invoked_at: e.invoked_us,
                    completed_at: Some(e.completed_us),
                }),
                EventKind::Read { returned } => h.push_read(ReadRec {
                    client: ClientId::reader(t as u32),
                    invoked_at: e.invoked_us,
                    completed_at: e.completed_us,
                    returned: returned.clone(),
                }),
            }
        }
    }
    let mut found = Verified {
        violations: 0,
        keys,
        clean_keys: 0,
    };
    for (k, h) in histories.iter().enumerate() {
        let v = h.check_atomic();
        if let Some(first) = v.first() {
            println!("ATOMICITY VIOLATION key {k}: {first} ({} in all)", v.len());
        }
        found.violations += v.len();
        found.clean_keys += u32::from(v.is_empty());
    }
    println!(
        "verification: {ops} ops over {keys} keys checked with core::checker::History::check_atomic, \
         {} violation(s)",
        found.violations
    );
    found
}

/// Durability of a WAL workload: re-spawn the (dropped) store on the same
/// dir and read back every key; returns how many did not hold a last
/// acknowledged value.
fn lost_after_respawn(
    spec: &Spec,
    data_dir: &Path,
    keys: &[String],
    reports: &[Report],
) -> Result<u64, String> {
    let t0 = Instant::now();
    let dep = Deployment::spawn(spec, data_dir).map_err(|e| format!("re-spawn: {e}"))?;
    let mut handle = dep.store.handle(0).map_err(|e| format!("handle: {e}"))?;
    handle.set_depth(SAT_DEPTH);
    let got = handle
        .get_batch(keys)
        .map_err(|e| format!("read-back: {e}"))?;
    let mut lost = 0u64;
    for (k, v) in got.iter().enumerate() {
        let stamp = v
            .as_ref()
            .and_then(decode_value)
            .filter(|(key, _)| *key == k as u64)
            .map(|(_, stamp)| stamp);
        let acked = reports.iter().any(|r| Some(r.last_acked[k]) == stamp);
        lost += u64::from(!acked);
    }
    println!(
        "durability: store dropped and re-spawned on the same dir in {:.3} s; {} of {} keys read back \
         their last acknowledged value. Flush policy: WalBacked defaults, fsync off, snapshot every \
         1024 mutations — this proves process-kill durability only, nothing stronger.",
        t0.elapsed().as_secs_f64(),
        keys.len() as u64 - lost,
        keys.len()
    );
    Ok(lost)
}

/// The latency phase's samples, every round's pooled and sorted, by kind.
struct Latency {
    get: Vec<f64>,
    put: Vec<f64>,
}

impl Latency {
    fn of(reports: &[Report]) -> Latency {
        let pooled = |kind: OpKind| {
            stats::sorted(
                reports
                    .iter()
                    .flat_map(|r| &r.latency)
                    .filter(|l| l.kind == kind)
                    .map(|l| l.ns)
                    .collect(),
            )
        };
        Latency {
            get: pooled(OpKind::Get),
            put: pooled(OpKind::Put),
        }
    }
}

/// `q`-quantile of a sorted ns sample, in µs.
fn us(sample: &[f64], q: f64) -> f64 {
    stats::percentile(sample, q).unwrap_or(0.0) / 1e3
}

/// "n = …, … beyond": the sample behind a p95.
fn beyond_p95(sample: &[f64]) -> String {
    format!("n = {}, {} beyond", sample.len(), sample.len() / 20)
}

/// Run one workload and print its metrics; the result carries what the
/// contract's last line needs.
pub fn run(cfg: &RunCfg) -> Result<RunResult, String> {
    let spec = cfg.spec;
    let scratch = Scratch(out_root().join(format!("{}-{}", spec.name, std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("creating {:?}: {e}", scratch.0))?;
    let maker = ValueMaker::new(spec, cfg.seed);
    let keys = key_names(spec);
    // Before any thread exists: every thread spawned below inherits it.
    let cpu = procstat::pin_to_one_cpu().map_err(|e| format!("pinning to one CPU: {e}"))?;

    println!(
        "== {} seed {} seconds {} trace {} ==",
        spec.name, cfg.seed, cfg.seconds, cfg.trace
    );
    println!("why: {}", spec.why);
    println!(
        "load: closed loop, {} client thread(s), depth 1 (latency phase) / depth {SAT_DEPTH} (saturation); \
         t = 1 (4 objects/shard), 2 shards, fast reads on, service delay off; \
         whole process confined to CPU {cpu}",
        spec.threads
    );

    let (dep, data_dir, setup_secs) =
        set_up(spec, &maker, &scratch.0, if cfg.trace { 1 } else { SETUPS })?;
    let (reports, sat) = drive(cfg, &dep, &data_dir, &maker, &keys);

    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let mismatches: u64 = reports.iter().map(|r| r.mismatches).sum();
    let windows: Vec<u64> = (0..sat_windows(cfg))
        .map(|w| reports.iter().map(|r| r.windows[w]).sum())
        .collect();
    let window_secs = window_len(cfg).as_secs_f64();
    let sat_ops: u64 = reports.iter().map(|r| r.phase_ops).sum();

    // The checks.
    let verified = verify_atomicity(spec, &maker, &reports);
    println!("key check: {mismatches} get(s) returned a value carrying another key id");
    if spec.substrate == Substrate::Tcp {
        let c = Counters::read();
        println!(
            "transport: traffic crossed loopback TCP (127.0.0.1), one connection per shard: \
             {} request frames in, {} reply frames out at the object servers",
            c.get(Count::FramesIn),
            c.get(Count::FramesOut)
        );
    }
    drop(dep);
    let lost = if spec.substrate == Substrate::Wal {
        lost_after_respawn(spec, &data_dir, &keys, &reports)?
    } else {
        0
    };
    let failed_ratio = failed as f64 / attempted.max(1) as f64;
    println!(
        "metric {:<32} {:>16.6} ratio  ({failed} of {attempted} ops errored or timed out)",
        "failed_ratio", failed_ratio
    );
    println!(
        "metric {:<32} {:>16} count",
        "atomicity_violations", verified.violations
    );
    let correct = verified.violations == 0
        && mismatches == 0
        && lost == 0
        && failed_ratio <= MAX_FAILED_RATIO;

    let latency = Latency::of(&reports);
    // Sample counts printed beside the percentiles they belong to.
    let mut notes: Vec<(&str, String)> = Vec::new();
    let metrics = if cfg.trace {
        let parity =
            |p: usize| -> Vec<u64> { windows.iter().skip(p).step_by(2).copied().collect() };
        let inputs = TraceInputs {
            sat,
            ops: sat_ops,
            untraced_rate: stats::window_median_rate(&parity(0), window_secs).unwrap_or(0.0),
            traced_rate: stats::window_median_rate(&parity(1), window_secs).unwrap_or(0.0),
            get_p95_us: us(&latency.get, 0.95),
            put_p95_us: us(&latency.put, 0.95),
            rss_peak_mb: procstat::rss_peak_mb(),
        };
        notes.push(("kv.get_p95_us", beyond_p95(&latency.get)));
        notes.push(("kv.put_p95_us", beyond_p95(&latency.put)));
        layers::table(cfg, &inputs, reports, &maker, &keys, &scratch.0)?
    } else {
        let rates = stats::window_rates(&windows, window_secs);
        println!(
            "saturation windows (ops/s): {}",
            joined(&rates, |r| format!("{r:.0}"))
        );
        println!(
            "set-up samples (s): {}",
            joined(&setup_secs, |s| format!("{s:.3}"))
        );
        // Diagnostics, missing every bound this box can hold; the traced
        // run reports them as `kv.*_p95_us` and `proc.rss_peak_mb`.
        for (name, sample) in [("get_p95_us", &latency.get), ("put_p95_us", &latency.put)] {
            println!(
                "diagnostic {name:<28} {:>16.6} us  ({})",
                us(sample, 0.95),
                beyond_p95(sample)
            );
        }
        println!(
            "diagnostic {:<28} {:>16.6} MB",
            "rss_peak_mb",
            procstat::rss_peak_mb()
        );
        notes.push(("get_p50_us", format!("n = {}", latency.get.len())));
        notes.push(("put_p50_us", format!("n = {}", latency.put.len())));
        let value = |name: &str| match name {
            "ops_per_s" => stats::median(&rates).unwrap_or(0.0),
            "cpu_us_per_op" => sat.cpu.as_secs_f64() * 1e6 / sat_ops.max(1) as f64,
            "get_p50_us" => us(&latency.get, 0.50),
            "put_p50_us" => us(&latency.put, 0.50),
            "succeeded_ratio" => 1.0 - failed_ratio,
            "setup_s" => stats::median(&setup_secs).unwrap_or(0.0),
            "atomic_keys_ratio" => f64::from(verified.clean_keys) / f64::from(verified.keys),
            other => unreachable!("end-to-end metric {other} has no definition"),
        };
        END_TO_END
            .iter()
            .map(|(name, unit)| Metric::new(name, value(name), unit))
            .collect()
    };
    for m in &metrics {
        let note = notes.iter().find(|(n, _)| *n == m.name);
        println!(
            "metric {:<32} {:>16.6} {}{}",
            m.name,
            m.value,
            m.unit,
            note.map_or(String::new(), |(_, n)| format!("  ({n})"))
        );
    }
    Ok(RunResult {
        correct,
        attempted: attempted.max(1),
        failed,
        metrics,
    })
}
