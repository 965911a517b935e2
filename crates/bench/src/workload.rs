//! The load generator behind `rastor bench`: client threads drive a
//! put/get mix against an already-built sharded store and report counts,
//! wall-clock throughput and per-op latency. It is a traffic source for a
//! live cluster, not a benchmark — rastor is timed in `benchmark/`.
//!
//! `depth = 1` runs one op per thread at a time. `depth > 1` keeps that
//! many operations in flight per handle through the pipelined submit/poll
//! interface. Pipelined per-op latency is measured submit→harvest (the
//! poll that observes the resolution), so it includes submission queueing
//! and any dwell in the ready queue until the next harvest — an upper
//! bound on the operation's own latency, not a round-trip measurement.

use crate::stats::Summary;
use rastor_common::{SplitMix64, Value};
use rastor_kv::{KvOpId, ShardedKvStore};
use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// One load-generator configuration.
#[derive(Clone, Debug)]
pub struct WorkloadCfg {
    /// Label printed with the result.
    pub name: String,
    /// Client threads (each takes one handle of the store's pool).
    pub threads: u32,
    /// Percentage of operations that are puts (the rest are gets).
    pub put_pct: u32,
    /// Key-space size; keys are drawn uniformly.
    pub keys: u32,
    /// Operations per thread.
    pub ops_per_thread: u64,
    /// Operations kept in flight per handle: 1 = one at a time, > 1 =
    /// pipelined via the handle's submit/poll interface.
    pub depth: u32,
    /// Seed for key/op choices (thread `i` derives `seed + i`).
    pub seed: u64,
}

impl WorkloadCfg {
    /// One op at a time per thread over 32 keys, 100 ops per thread.
    pub fn closed(name: &str, threads: u32, put_pct: u32) -> WorkloadCfg {
        WorkloadCfg {
            name: name.to_string(),
            threads,
            put_pct,
            keys: 32,
            ops_per_thread: 100,
            depth: 1,
            seed: 42,
        }
    }

    /// The same mix pipelined at `depth` ops in flight per handle, with a
    /// `-d<depth>` name suffix.
    #[must_use]
    pub fn pipelined(mut self, depth: u32) -> WorkloadCfg {
        self.depth = depth;
        self.name = format!("{}-d{depth}", self.name);
        self
    }
}

/// The measured outcome of one run.
#[derive(Clone, Debug)]
pub struct WorkloadRow {
    /// Completed operations (across all threads).
    pub ops: u64,
    /// Operations that returned an error (should be 0 within budget).
    pub errors: u64,
    /// Wall-clock duration from the first worker's start to the last
    /// worker's finish, in seconds.
    pub elapsed_secs: f64,
    /// Completed operations per wall-clock second.
    pub ops_per_sec: f64,
    /// Put latency summary in microseconds (`None` if the mix had no puts).
    pub put_lat_us: Option<Summary>,
    /// Get latency summary in microseconds (`None` if the mix had no gets).
    pub get_lat_us: Option<Summary>,
    /// Mean protocol rounds per completed cluster get, aggregated across
    /// every handle (`None` if the mix had no cluster gets). 4.0 on the
    /// slow path; between 2.0 and 4.0 with fast reads on, depending on
    /// how often contention forces the fallback.
    pub get_rounds_mean: Option<f64>,
}

/// Seed the key space of an already-built store so gets always have
/// something to return (uses handle 0, returned to the pool afterwards).
///
/// # Panics
///
/// Panics if a seeding put fails (no store should start life without a
/// quorum).
pub fn seed_keys(store: &ShardedKvStore, keys: u32) {
    let mut seeder = store.handle(0).expect("handle 0 in pool");
    for k in 0..keys {
        seeder
            .put(&key_name(k), Value::from_u64(1))
            .expect("seeding put");
    }
}

/// Drive the configured put/get mix against an **already-built** (and
/// seeded) store.
///
/// # Panics
///
/// Panics if `threads`, `keys` or `depth` is zero, or if the store's
/// handle pool is smaller than `cfg.threads`.
pub fn measure_store(store: &ShardedKvStore, cfg: &WorkloadCfg) -> WorkloadRow {
    assert!(
        cfg.threads >= 1 && cfg.keys >= 1 && cfg.depth >= 1,
        "threads, keys and depth must each be at least 1: {cfg:?}"
    );
    assert!(
        store.num_handles() >= cfg.threads,
        "store must supply one handle per workload thread"
    );
    let barrier = Arc::new(Barrier::new(cfg.threads as usize));
    let mut workers = Vec::new();
    for tid in 0..cfg.threads {
        let store = store.clone();
        let barrier = Arc::clone(&barrier);
        let cfg = cfg.clone();
        workers.push(std::thread::spawn(move || {
            let mut handle = store.handle(tid).expect("handle in pool");
            handle.set_depth(cfg.depth as usize);
            let mut rng = SplitMix64::new(cfg.seed + u64::from(tid));
            let mut puts = Vec::new();
            let mut gets = Vec::new();
            let mut errors = 0u64;
            // Pipelined mode: submit→resolution timers keyed by op id.
            let mut in_flight: HashMap<KvOpId, (Instant, bool)> = HashMap::new();
            let record = |started: Instant,
                          is_put: bool,
                          ok: bool,
                          puts: &mut Vec<u64>,
                          gets: &mut Vec<u64>,
                          errors: &mut u64| {
                if !ok {
                    *errors += 1;
                } else if is_put {
                    puts.push(started.elapsed().as_micros() as u64);
                } else {
                    gets.push(started.elapsed().as_micros() as u64);
                }
            };
            barrier.wait();
            let phase_start = Instant::now();
            for op in 0..cfg.ops_per_thread {
                let key = key_name(rng.gen_range(0, u64::from(cfg.keys) - 1) as u32);
                let is_put = rng.gen_range(1, 100) <= u64::from(cfg.put_pct);
                if cfg.depth == 1 {
                    // One op at a time, start to finish.
                    let started = Instant::now();
                    let ok = if is_put {
                        handle.put(&key, Value::from_u64(op + 2)).is_ok()
                    } else {
                        handle.get(&key).is_ok()
                    };
                    record(started, is_put, ok, &mut puts, &mut gets, &mut errors);
                } else {
                    // Pipelined: submissions buffer (consecutive same-shard
                    // ops share a round trip); the submit itself blocks
                    // only at the depth limit or on a same-key conflict,
                    // resolving older ops as it waits. Harvest whenever a
                    // full burst is in flight — the blocking poll flushes
                    // the burst coalesced and waits for completions.
                    let started = Instant::now();
                    let submitted = if is_put {
                        handle.submit_put(&key, Value::from_u64(op + 2))
                    } else {
                        handle.submit_get(&key)
                    };
                    match submitted {
                        Ok(id) => {
                            in_flight.insert(id, (started, is_put));
                        }
                        Err(_) => errors += 1,
                    }
                    if handle.in_flight() >= cfg.depth as usize {
                        for (id, outcome) in handle.poll() {
                            let (started, is_put) = in_flight.remove(&id).expect("submitted op");
                            record(
                                started,
                                is_put,
                                outcome.is_ok(),
                                &mut puts,
                                &mut gets,
                                &mut errors,
                            );
                        }
                    }
                }
            }
            // Pipelined tail: resolve everything still in flight.
            for (id, outcome) in handle.drain() {
                let (started, is_put) = in_flight.remove(&id).expect("submitted op");
                record(
                    started,
                    is_put,
                    outcome.is_ok(),
                    &mut puts,
                    &mut gets,
                    &mut errors,
                );
            }
            let phase_end = Instant::now();
            (
                puts,
                gets,
                errors,
                handle.take_get_rounds(),
                (phase_start, phase_end),
            )
        }));
    }

    let mut puts = Vec::new();
    let mut gets = Vec::new();
    let mut errors = 0u64;
    let (mut rounds_sum, mut rounds_count) = (0u64, 0u64);
    // The run spans the earliest worker start to the latest worker end:
    // the workers' own clocks, so no op can outlast the reported run.
    let mut span: Option<(Instant, Instant)> = None;
    for w in workers {
        let (p, g, e, (rs, rc), (start, end)) = w.join().expect("worker thread");
        puts.extend(p);
        gets.extend(g);
        errors += e;
        rounds_sum += rs;
        rounds_count += rc;
        span = Some(span.map_or((start, end), |(s, e)| (s.min(start), e.max(end))));
    }
    let (start, end) = span.expect("at least one worker");
    let elapsed = (end - start).as_secs_f64();
    let ops = (puts.len() + gets.len()) as u64;
    WorkloadRow {
        ops,
        errors,
        elapsed_secs: elapsed,
        ops_per_sec: ops as f64 / elapsed.max(1e-9),
        put_lat_us: Summary::of(puts),
        get_lat_us: Summary::of(gets),
        get_rounds_mean: (rounds_count > 0).then(|| rounds_sum as f64 / rounds_count as f64),
    }
}

fn key_name(k: u32) -> String {
    format!("key:{k:04}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rastor_kv::StoreConfig;

    fn run(cfg: &WorkloadCfg) -> WorkloadRow {
        let store = ShardedKvStore::spawn(StoreConfig::new(1, 2, cfg.threads)).expect("store");
        seed_keys(&store, cfg.keys);
        measure_store(&store, cfg)
    }

    fn tiny(name: &str) -> WorkloadCfg {
        WorkloadCfg {
            keys: 8,
            ops_per_thread: 10,
            ..WorkloadCfg::closed(name, 2, 50)
        }
    }

    #[test]
    fn closed_loop_completes_every_op() {
        let row = run(&tiny("t"));
        assert_eq!(row.ops, 20);
        assert_eq!(row.errors, 0);
        assert!(row.ops_per_sec > 0.0);
    }

    #[test]
    fn pipelined_rows_complete_every_op() {
        let cfg = tiny("deep").pipelined(4);
        assert_eq!(cfg.name, "deep-d4");
        let row = run(&cfg);
        assert_eq!(row.ops, 20);
        assert_eq!(row.errors, 0);
        assert!(row.ops_per_sec > 0.0);
    }

    /// A run as short as one op per thread is where a coordinator-side
    /// clock started late: the reported run must still contain every op
    /// it reports.
    #[test]
    fn elapsed_covers_the_slowest_op() {
        for depth in [1, 4] {
            let cfg = WorkloadCfg {
                ops_per_thread: 1,
                ..WorkloadCfg::closed("short", 4, 50).pipelined(depth)
            };
            let row = run(&cfg);
            let slowest = [row.put_lat_us, row.get_lat_us]
                .into_iter()
                .flatten()
                .map(|s| s.max)
                .max()
                .expect("ops ran");
            assert!(
                row.elapsed_secs * 1e6 >= slowest as f64,
                "depth {depth}: elapsed {}s is shorter than a {slowest}µs op",
                row.elapsed_secs
            );
        }
    }
}
