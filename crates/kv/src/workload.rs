//! The workload driver: the one loop that runs a seeded put/get mix
//! against a [`ShardedKvStore`] and records it for judging.
//!
//! Soak tests, the TCP chaos search and `rastor bench` all describe their
//! traffic with a [`Mix`], [`start`] it, do whatever they want to the
//! deployment while it runs (crash, restart, partition, kill sockets), and
//! [`Running::join`] it into a [`Run`]. A `Run` is a list of per-operation
//! [`OpRecord`]s stamped on one clock; everything else — the per-key
//! [`History`]s, the [`judge`] verdict, latency samples — is a fold over
//! them.
//!
//! Every handle drives [`KvHandle::submit_put`] / [`KvHandle::submit_get`]
//! / [`KvHandle::poll`] at [`Mix::depth`] operations in flight; depth 1 is
//! the closed loop, not a second code path. An operation's interval runs
//! from just before its submit to the poll that harvested it — a superset
//! of its true interval (it includes queueing in the pipeline and dwell in
//! the ready queue), so two operations the record orders really were
//! ordered and the checker stays sound; as a latency it is an upper bound.

use crate::{KvHandle, KvOpId, KvOutput, ShardedKvStore};
use rastor_common::{ClientId, Error, SplitMix64, Value};
use rastor_core::checker::{judge, History, ReadRec, WriteRec};
use std::collections::HashMap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which operation a handle issues next.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pattern {
    /// Every operation draws a uniform key and is a put with probability
    /// [`Mix::put_pct`] — the soak shape.
    Mixed,
    /// Handle `h` puts once to key `h mod keys`, then reads it back for the
    /// rest of its operations — the sharpest probe for Byzantine witnesses
    /// (a read races nothing, so anything but the genuine put is a
    /// violation). Ignores [`Mix::put_pct`].
    PutThenReads,
}

/// One workload: who issues how many of what, reproducibly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mix {
    /// Concurrent client handles (one thread each; handle ids `0..handles`
    /// of the store's pool).
    pub handles: u32,
    /// Key-space size; keys are named by [`key_name`].
    pub keys: u32,
    /// Operations per handle.
    pub ops_per_handle: u64,
    /// Percentage of operations that are puts (the rest are gets).
    pub put_pct: u32,
    /// Operations kept in flight per handle (1 = closed loop).
    pub depth: u32,
    /// Seed for key/kind choices (handle `h` draws from `seed + h`).
    pub seed: u64,
    /// Per-operation timeout; an operation that outlives it is recorded as
    /// failed.
    pub timeout: Duration,
    /// The drive pattern.
    pub pattern: Pattern,
}

impl Mix {
    /// A 50/50 closed-loop [`Pattern::Mixed`] workload with seed 42 and the
    /// handle's default 10 s timeout; override fields with struct update
    /// syntax.
    pub fn mixed(handles: u32, keys: u32, ops_per_handle: u64) -> Mix {
        Mix {
            handles,
            keys,
            ops_per_handle,
            put_pct: 50,
            depth: 1,
            seed: 42,
            timeout: Duration::from_secs(10),
            pattern: Pattern::Mixed,
        }
    }

    /// Operations the whole run issues.
    pub fn total_ops(&self) -> usize {
        self.handles as usize * self.ops_per_handle as usize
    }

    /// The `(key, put value)` of handle `handle`'s `op`-th operation. Put
    /// values are `handle << 32 | op + 1` — unique per run, so a read that
    /// returns anything never written is unmistakable.
    fn choose(&self, rng: &mut SplitMix64, handle: u32, op: u64) -> (u32, Option<Value>) {
        let (key, is_put) = match self.pattern {
            Pattern::Mixed => (
                rng.gen_range(0, u64::from(self.keys) - 1) as u32,
                rng.gen_range(1, 100) <= u64::from(self.put_pct),
            ),
            Pattern::PutThenReads => (handle % self.keys, op == 0),
        };
        (
            key,
            is_put.then(|| Value::from_u64(u64::from(handle) << 32 | (op + 1))),
        )
    }
}

/// The name of the `k`-th key of every [`Mix`].
pub fn key_name(k: u32) -> String {
    format!("key:{k:04}")
}

/// One operation of a [`Run`].
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// The issuing handle.
    pub handle: u32,
    /// The operation's index in its handle's sequence.
    pub op: u64,
    /// The key index (see [`key_name`]).
    pub key: u32,
    /// The value, if this was a put.
    pub put: Option<Value>,
    /// Nanoseconds from the run's epoch to just before the submit.
    pub submitted_ns: u64,
    /// Nanoseconds from the run's epoch to the poll that harvested it.
    pub harvested_ns: u64,
    /// The put's tag or the get's returned pair — or why it failed.
    pub outcome: Result<KvOutput, Error>,
}

/// One handle's share of a run: its records in issue order, and its
/// `(sum, count)` of get rounds.
type Share = (Vec<OpRecord>, (u64, u64));

/// A workload in flight (see [`start`]).
#[derive(Debug)]
pub struct Running {
    mix: Mix,
    workers: Vec<JoinHandle<Share>>,
}

/// Start `mix` against `store`: one thread per handle, running until every
/// operation has resolved. Returns at once, so the caller can inject faults
/// mid-traffic before [`Running::join`].
///
/// # Panics
///
/// Panics if `handles`, `keys` or `depth` is zero, or if handles
/// `0..mix.handles` of the store's pool are not all free.
pub fn start(store: &ShardedKvStore, mix: &Mix) -> Running {
    assert!(
        mix.handles >= 1 && mix.keys >= 1 && mix.depth >= 1,
        "handles, keys and depth must each be at least 1: {mix:?}"
    );
    let epoch = Instant::now();
    let workers = (0..mix.handles)
        .map(|hid| {
            let (store, mix) = (store.clone(), *mix);
            // A handle is not `Send`: each thread takes its own.
            std::thread::spawn(move || {
                let handle = store
                    .handle(hid)
                    .expect("one free handle per workload thread");
                drive(handle, &mix, epoch)
            })
        })
        .collect();
    Running { mix: *mix, workers }
}

/// Run one handle's share of `mix`, stamping on the clock started at
/// `epoch`.
fn drive(mut handle: KvHandle, mix: &Mix, epoch: Instant) -> Share {
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let hid = handle.id();
    handle.set_depth(mix.depth as usize);
    handle.set_timeout(mix.timeout);
    let mut rng = SplitMix64::new(mix.seed.wrapping_add(u64::from(hid)));
    let mut records: Vec<OpRecord> = Vec::with_capacity(mix.ops_per_handle as usize);
    let mut in_flight: HashMap<KvOpId, usize> = HashMap::new();
    let harvest = |resolved: Vec<(KvOpId, Result<KvOutput, Error>)>,
                   records: &mut Vec<OpRecord>,
                   in_flight: &mut HashMap<KvOpId, usize>| {
        let at = now_ns();
        for (id, outcome) in resolved {
            let rec = &mut records[in_flight.remove(&id).expect("submitted op")];
            rec.harvested_ns = at;
            rec.outcome = outcome;
        }
    };
    for op in 0..mix.ops_per_handle {
        let (key, put) = mix.choose(&mut rng, hid, op);
        let name = key_name(key);
        let submitted_ns = now_ns();
        // Submissions buffer (consecutive same-shard ops share a round
        // trip); the submit itself blocks only at the depth limit or on a
        // same-key conflict, resolving older ops as it waits.
        let submitted = match &put {
            Some(value) => handle.submit_put(&name, value.clone()),
            None => handle.submit_get(&name),
        };
        // Until its harvest fills it in, a submitted op reads as pending.
        let outcome = match submitted {
            Ok(id) => {
                in_flight.insert(id, records.len());
                Err(Error::OperationPending)
            }
            Err(e) => Err(e),
        };
        records.push(OpRecord {
            handle: hid,
            op,
            key,
            put,
            submitted_ns,
            harvested_ns: now_ns(),
            outcome,
        });
        // Harvest whenever a full burst is in flight — the blocking poll
        // flushes the burst coalesced and waits for completions.
        if handle.in_flight() >= mix.depth as usize {
            harvest(handle.poll(), &mut records, &mut in_flight);
        }
    }
    harvest(handle.drain(), &mut records, &mut in_flight);
    debug_assert!(in_flight.is_empty(), "every submitted op resolved");
    (records, handle.take_get_rounds())
}

impl Running {
    /// Wait for every handle to finish and collect the run.
    ///
    /// # Panics
    ///
    /// Propagates a worker thread's panic.
    pub fn join(self) -> Run {
        let mut run = Run {
            mix: self.mix,
            records: Vec::with_capacity(self.mix.total_ops()),
            get_rounds: (0, 0),
        };
        for worker in self.workers {
            let (records, (sum, count)) = worker.join().expect("workload thread");
            run.records.extend(records);
            run.get_rounds.0 += sum;
            run.get_rounds.1 += count;
        }
        run
    }
}

/// A finished workload: what every operation did and when.
#[derive(Clone, Debug)]
pub struct Run {
    /// The workload that ran.
    pub mix: Mix,
    /// Every operation, handle by handle in issue order.
    pub records: Vec<OpRecord>,
    /// `(sum, count)` of protocol rounds over completed cluster gets.
    get_rounds: (u64, u64),
}

impl Run {
    /// One checker-ready history per key, labelled with the key's name.
    /// Failed operations are left out (a failed put may or may not have
    /// taken effect; [`Run::failed`] reports it instead).
    pub fn histories(&self) -> Vec<(String, History)> {
        let mut by_key: Vec<History> = (0..self.mix.keys).map(|_| History::new()).collect();
        for rec in &self.records {
            let history = &mut by_key[rec.key as usize];
            match (&rec.outcome, &rec.put) {
                (Ok(KvOutput::Put(tag)), Some(value)) => history.push_write(WriteRec {
                    ts: tag.to_timestamp(),
                    val: value.clone(),
                    invoked_at: rec.submitted_ns,
                    completed_at: Some(rec.harvested_ns),
                }),
                (Ok(KvOutput::Get(pair)), None) => history.push_read(ReadRec {
                    client: ClientId::reader(rec.handle),
                    invoked_at: rec.submitted_ns,
                    completed_at: rec.harvested_ns,
                    returned: pair.clone(),
                }),
                (Ok(out), _) => unreachable!("{out:?} resolved the wrong kind of op: {rec:?}"),
                (Err(_), _) => {}
            }
        }
        (0..self.mix.keys).map(key_name).zip(by_key).collect()
    }

    /// One line per operation that returned an error instead of a result.
    pub fn failed(&self) -> Vec<String> {
        self.records
            .iter()
            .filter_map(|rec| {
                let kind = if rec.put.is_some() { "put" } else { "get" };
                let e = rec.outcome.as_ref().err()?;
                Some(format!(
                    "handle {} {kind} {}: {e}",
                    rec.handle,
                    key_name(rec.key)
                ))
            })
            .collect()
    }

    /// The run's verdict ([`judge`] over [`Run::histories`] and
    /// [`Run::failed`]): empty iff every operation completed and every
    /// key's history is atomic.
    pub fn verdict(&self) -> Vec<String> {
        judge(&self.histories(), self.mix.total_ops(), &self.failed())
    }

    /// Submit→harvest latencies of the completed puts and gets, in
    /// microseconds.
    pub fn latencies_us(&self) -> (Vec<u64>, Vec<u64>) {
        let (mut puts, mut gets) = (Vec::new(), Vec::new());
        for rec in self.records.iter().filter(|rec| rec.outcome.is_ok()) {
            let us = (rec.harvested_ns - rec.submitted_ns) / 1_000;
            if rec.put.is_some() {
                puts.push(us);
            } else {
                gets.push(us);
            }
        }
        (puts, gets)
    }

    /// From the first submit to the last harvest: no operation can outlast
    /// the span reported for the run that contains it.
    pub fn elapsed(&self) -> Duration {
        let first = self.records.iter().map(|r| r.submitted_ns).min();
        let last = self.records.iter().map(|r| r.harvested_ns).max();
        Duration::from_nanos(last.unwrap_or(0) - first.unwrap_or(0))
    }

    /// Mean protocol rounds per completed cluster get (`None` if the run
    /// had none): 4.0 on the slow path; between 2.0 and 4.0 with fast reads
    /// on, depending on how often contention forces the fallback.
    pub fn get_rounds_mean(&self) -> Option<f64> {
        let (sum, count) = self.get_rounds;
        (count > 0).then(|| sum as f64 / count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreConfig;
    use rastor_common::{Timestamp, TsVal};

    fn run(mix: &Mix) -> Run {
        let store = ShardedKvStore::spawn(StoreConfig::new(1, 2, mix.handles)).expect("store");
        start(&store, mix).join()
    }

    fn tiny() -> Mix {
        Mix::mixed(2, 8, 10)
    }

    fn assert_complete(run: &Run, ops: usize) {
        assert_eq!(run.records.len(), ops);
        assert_eq!(run.verdict(), Vec::<String>::new());
        let (puts, gets) = run.latencies_us();
        assert_eq!(puts.len() + gets.len(), ops);
        assert!(run.elapsed() > Duration::ZERO);
    }

    #[test]
    fn closed_loop_completes_every_op() {
        assert_complete(&run(&tiny()), 20);
    }

    #[test]
    fn pipelined_rows_complete_every_op() {
        assert_complete(&run(&Mix { depth: 4, ..tiny() }), 20);
    }

    /// A run as short as one op per handle is where a coordinator-side
    /// clock started late: the reported run must still contain every op
    /// it reports.
    #[test]
    fn elapsed_covers_the_slowest_op() {
        for depth in [1, 4] {
            let run = run(&Mix {
                depth,
                ..Mix::mixed(4, 32, 1)
            });
            let (puts, gets) = run.latencies_us();
            let slowest = puts.into_iter().chain(gets).max().expect("ops ran");
            assert!(
                run.elapsed().as_micros() as u64 >= slowest,
                "depth {depth}: elapsed {:?} is shorter than a {slowest}µs op",
                run.elapsed()
            );
        }
    }

    /// Depth changes how many ops are in flight, not which ops are issued.
    #[test]
    fn the_same_mix_and_seed_issue_the_same_ops_at_any_depth() {
        let shape = |depth: u32| -> Vec<(u32, u64, u32, Option<Value>)> {
            run(&Mix { depth, ..tiny() })
                .records
                .into_iter()
                .map(|r| (r.handle, r.op, r.key, r.put))
                .collect()
        };
        let closed = shape(1);
        assert_eq!(closed, shape(4));
        assert!(closed.iter().any(|r| r.3.is_some()) && closed.iter().any(|r| r.3.is_none()));
        let other_seed = run(&Mix { seed: 7, ..tiny() });
        assert_ne!(
            closed.iter().map(|r| r.2).collect::<Vec<_>>(),
            other_seed.records.iter().map(|r| r.key).collect::<Vec<_>>()
        );
    }

    #[test]
    fn put_then_reads_pins_each_handle_to_its_key() {
        let run = run(&Mix {
            pattern: Pattern::PutThenReads,
            ..Mix::mixed(3, 2, 4)
        });
        assert_complete(&run, 12);
        for rec in &run.records {
            assert_eq!(rec.key, rec.handle % 2);
            assert_eq!(rec.put.is_some(), rec.op == 0);
        }
    }

    /// One failed op is a `liveness:` line, and the ops that did complete
    /// are still judged (and still counted: nothing else went missing).
    #[test]
    fn a_failed_op_is_reported_and_the_rest_still_judged() {
        let mut run = run(&tiny());
        let failed = run.records.iter().position(|r| r.put.is_none()).unwrap();
        run.records[failed].outcome = Err(Error::Incomplete {
            detail: "no quorum".into(),
        });
        let verdict = run.verdict();
        assert_eq!(verdict.len(), 1, "{verdict:?}");
        let rec = &run.records[failed];
        assert_eq!(
            verdict[0],
            format!(
                "liveness: handle {} get {}: {}",
                rec.handle,
                key_name(rec.key),
                rec.outcome.as_ref().unwrap_err()
            )
        );
        let (puts, gets) = run.latencies_us();
        assert_eq!(puts.len() + gets.len(), 19);
    }

    /// Tampered records are caught by the judge under their key's label: a
    /// read of a never-written value, and a read of ⊥ after a completed put.
    #[test]
    fn forged_and_stale_records_are_reported_with_their_key() {
        let mut run = run(&tiny());
        let end = run.records.iter().map(|r| r.harvested_ns).max().unwrap();
        let put_key = run.records.iter().find(|r| r.put.is_some()).unwrap().key;
        let late_read = |key: u32, returned: TsVal| OpRecord {
            handle: 0,
            op: 99,
            key,
            put: None,
            submitted_ns: end + 1,
            harvested_ns: end + 2,
            outcome: Ok(KvOutput::Get(returned)),
        };
        let forged_key = (put_key + 1) % run.mix.keys;
        run.records.push(late_read(
            forged_key,
            TsVal::new(Timestamp(u64::MAX / 2), Value::from_u64(0xDEAD)),
        ));
        run.records.push(late_read(put_key, TsVal::bottom()));
        run.mix.ops_per_handle += 1; // the two injected ops are expected ones
        let verdict = run.verdict();
        let reported = |key: u32, what: &str| {
            let label = format!("atomicity: {}: ", key_name(key));
            verdict
                .iter()
                .any(|v| v.starts_with(&label) && v.contains(what))
        };
        assert!(reported(forged_key, "never-written"), "{verdict:?}");
        assert!(reported(put_key, "stale"), "{verdict:?}");
        assert!(
            verdict.iter().all(|v| v.starts_with("atomicity: ")),
            "nothing is missing, only wrong: {verdict:?}"
        );
    }
}
