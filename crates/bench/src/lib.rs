//! Experiment drivers behind the `exp` table binary. Each public function
//! regenerates one table/figure of EXPERIMENTS.md (see DESIGN.md §5 for
//! the paper-artifact → experiment map); the tests below assert each
//! table's shape. Nothing here is timed — see `benchmark/` — and nothing
//! here drives a kv store: `rastor bench` uses `rastor_kv::workload` and
//! only [`stats::Summary`] from this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod stats;

use rastor_common::{ClientId, ObjectId, OpKind, Value};
use rastor_core::{FaultKind, Protocol, StorageSystem, Workload};
use rastor_lowerbound::prop1::{denial_attack, execute as prop1_execute};
use rastor_lowerbound::recurrence::{k_max, t_k, t_k_closed};
use rastor_sim::control::Rule;
use rastor_sim::{FixedDelay, ScriptedController, UniformDelay};
use stats::Summary;

/// One row of the T1 round-complexity table.
#[derive(Clone, Debug)]
pub struct RoundRow {
    /// Protocol name.
    pub protocol: &'static str,
    /// Fault model name.
    pub model: String,
    /// Objects deployed.
    pub s: usize,
    /// Measured write rounds (contention-free).
    pub write_rounds: u32,
    /// Measured read rounds (contention-free).
    pub read_rounds: u32,
    /// The paper's claimed `(write, read)` rounds, when stated.
    pub paper_claim: Option<(u32, u32)>,
}

/// T1: measured round complexity of every protocol, contention-free.
pub fn t1_round_table(t: usize, readers: u32) -> Vec<RoundRow> {
    let claims = |p: Protocol| match p {
        Protocol::Abd => Some((1, 2)),
        Protocol::ByzRegular => Some((2, 2)),
        Protocol::AuthRegular => Some((2, 1)),
        Protocol::AtomicUnauth => Some((2, 4)),
        Protocol::AtomicAuth => Some((2, 3)),
        Protocol::AtomicFast => Some((2, 2)),
        Protocol::SafeNoWrite => Some((2, t as u32 + 1)),
        Protocol::RetryStable => None,
    };
    Protocol::all()
        .into_iter()
        .map(|p| {
            let mut sys = StorageSystem::new(p, t, readers).expect("optimal shape");
            let wl = Workload::default()
                .with_write(0, Value::from_u64(1))
                .with_read(1_000, 0);
            let res = sys.run(Box::new(FixedDelay::new(1)), &wl, vec![]);
            RoundRow {
                protocol: p.name(),
                model: p.model().to_string(),
                s: sys.config().num_objects(),
                write_rounds: res.write_rounds()[0],
                read_rounds: res.read_rounds()[0],
                paper_claim: claims(p),
            }
        })
        .collect()
}

/// T2: read round counts as a reader races an ever-faster writer. Returns
/// `(writes_racing, retry_stable_rounds, atomic_unauth_rounds)` rows.
pub fn t2_contention_rounds(max_writes: u64) -> Vec<(u64, u32, u32)> {
    let mut rows = Vec::new();
    for n_writes in [0, 2, 4, 8, max_writes] {
        let rounds_of = |protocol: Protocol| -> u32 {
            let mut sys = StorageSystem::new(protocol, 1, 1).unwrap();
            let mut wl = Workload::default().with_read(2, 0);
            for kth in 0..n_writes {
                wl = wl.with_write(1 + kth, Value::from_u64(kth + 1));
            }
            // The reader's links are 9× slower than the writer's, so
            // several writes land between its rounds.
            let controller =
                ScriptedController::new().with_rule(Rule::slow_all(9).client(ClientId::reader(0)));
            let res = sys.run(Box::new(controller), &wl, vec![]);
            res.read_rounds()[0]
        };
        rows.push((
            n_writes,
            rounds_of(Protocol::RetryStable),
            rounds_of(Protocol::AtomicUnauth),
        ));
    }
    rows
}

/// T3: the recurrence table `(k, t_k, closed form, S, k_max(t_k))`.
pub fn t3_recurrence_table(max_k: i64) -> Vec<(i64, u64, u64, u64, u32)> {
    (1..=max_k)
        .map(|k| {
            let tk = t_k(k);
            (k, tk, t_k_closed(k), 3 * tk + 1, k_max(tk))
        })
        .collect()
}

/// T4: the resilience boundary — `(S, t, violations found)` for the naive
/// 2-round read under the denial schedule, straddling `S = 4t`.
pub fn t4_boundary(max_t: usize) -> Vec<(usize, usize, usize)> {
    let mut rows = Vec::new();
    for t in 1..=max_t {
        for s in [4 * t, 4 * t + 1] {
            rows.push((s, t, denial_attack(s, t).len()));
        }
    }
    rows
}

/// F1: the Proposition 1 executor — returns `(k, generations, all pairs
/// indistinguishable, first violating generation)`.
pub fn f1_prop1(k: u32) -> (u32, u32, bool, Option<u32>) {
    let report = prop1_execute(k, 4, 1);
    (
        k,
        report.generations,
        report.all_indistinguishable,
        report.first_violation.as_ref().map(|(g, _)| *g),
    )
}

/// One row of the T5 end-to-end latency table.
#[derive(Clone, Debug)]
pub struct LatencyRow {
    /// Protocol name.
    pub protocol: &'static str,
    /// Mean write latency (simulated time units).
    pub write_latency: f64,
    /// Mean read latency.
    pub read_latency: f64,
    /// Number of operations measured.
    pub ops: usize,
}

/// T5: end-to-end simulated latency under random network delays, with the
/// full fault budget exercised by silent objects.
pub fn t5_latency(t: usize, seed: u64, byzantine: bool) -> Vec<LatencyRow> {
    let protocols = [
        Protocol::Abd,
        Protocol::ByzRegular,
        Protocol::AuthRegular,
        Protocol::AtomicUnauth,
        Protocol::AtomicAuth,
    ];
    protocols
        .into_iter()
        .map(|p| {
            let mut sys = StorageSystem::new(p, t, 2).unwrap();
            let mut wl = Workload::default();
            for i in 0..10u64 {
                wl = wl
                    .with_write(i * 500, Value::from_u64(i + 1))
                    .with_read(i * 500 + 250, (i % 2) as u32);
            }
            let corrupt = if byzantine && p.model() != rastor_common::FaultModel::Crash {
                (0..t as u32)
                    .map(|i| (ObjectId(i), FaultKind::Silent.materialize()))
                    .collect()
            } else {
                vec![]
            };
            let res = sys.run(Box::new(UniformDelay::new(seed, 5, 20)), &wl, corrupt);
            let (mut wsum, mut wn, mut rsum, mut rn) = (0u64, 0usize, 0u64, 0usize);
            for c in &res.completions {
                if c.output.is_read() {
                    rsum += c.stat.latency();
                    rn += 1;
                } else {
                    wsum += c.stat.latency();
                    wn += 1;
                }
            }
            LatencyRow {
                protocol: p.name(),
                write_latency: wsum as f64 / wn.max(1) as f64,
                read_latency: rsum as f64 / rn.max(1) as f64,
                ops: res.completions.len(),
            }
        })
        .collect()
}

/// One row of the T6 closed-loop table.
#[derive(Clone, Debug)]
pub struct ThroughputRow {
    /// Protocol name.
    pub protocol: &'static str,
    /// Completed operations.
    pub ops: usize,
    /// Simulated makespan (last completion time).
    pub makespan: u64,
    /// Operations per 1000 simulated time units.
    pub throughput: f64,
    /// Read-latency summary.
    pub read_latency: Summary,
}

/// T6: closed-loop saturation — every client keeps one operation in flight
/// (the writer a stream of writes, each reader a stream of reads), all
/// queued from time zero; the simulator's per-client FIFO enforces the
/// model's one-outstanding-operation rule. Measures makespan, throughput
/// and read-latency percentiles per protocol.
pub fn t6_closed_loop(
    t: usize,
    readers: u32,
    ops_per_client: u64,
    seed: u64,
) -> Vec<ThroughputRow> {
    let protocols = [
        Protocol::Abd,
        Protocol::ByzRegular,
        Protocol::AuthRegular,
        Protocol::AtomicUnauth,
        Protocol::AtomicAuth,
    ];
    protocols
        .into_iter()
        .map(|p| {
            let mut sys = StorageSystem::new(p, t, readers).unwrap();
            let mut sim = sys.build_sim(Box::new(UniformDelay::new(seed, 2, 12)));
            for i in 0..ops_per_client {
                sim.invoke_at(
                    0,
                    ClientId::writer(),
                    OpKind::Write,
                    sys.write_client(Value::from_u64(i + 1)),
                );
                for r in 0..readers {
                    sim.invoke_at(0, ClientId::reader(r), OpKind::Read, sys.read_client(r));
                }
            }
            let completions = sim.run_to_quiescence();
            let makespan = completions
                .iter()
                .map(|c| c.stat.completed_at)
                .max()
                .unwrap_or(0);
            let reads: Vec<u64> = completions
                .iter()
                .filter(|c| c.output.is_read())
                .map(|c| c.stat.latency())
                .collect();
            ThroughputRow {
                protocol: p.name(),
                ops: completions.len(),
                makespan,
                throughput: completions.len() as f64 * 1000.0 / makespan.max(1) as f64,
                read_latency: Summary::of(reads).expect("reads ran"),
            }
        })
        .collect()
}

/// One row of the T9 fast-path table: `(protocol, uncontended read
/// rounds, contended read rounds)`.
pub type FastPathRow = (&'static str, u32, u32);

/// T9: the adaptive fast read path. Measures read rounds for the
/// always-slow atomic protocol and its fast-path twin, first contention
/// free (the read starts long after the write committed), then contended
/// (the writer's commit round is held back so the read lands mid-write).
/// The fast path completes in 2 rounds when quiet and falls back to the
/// slow 4-round read under contention; the slow protocol pays 4 either
/// way.
pub fn t9_fast_path_rounds() -> Vec<FastPathRow> {
    [Protocol::AtomicUnauth, Protocol::AtomicFast]
        .into_iter()
        .map(|p| {
            let quiet = {
                let mut sys = StorageSystem::new(p, 1, 1).expect("optimal shape");
                let wl = Workload::default()
                    .with_write(0, Value::from_u64(1))
                    .with_read(1_000, 0);
                let res = sys.run(Box::new(FixedDelay::new(1)), &wl, vec![]);
                res.read_rounds()[0]
            };
            let contended = {
                let mut sys = StorageSystem::new(p, 1, 1).expect("optimal shape");
                let wl = Workload::default()
                    .with_write(0, Value::from_u64(1))
                    .with_read(10, 0);
                // Hold the writer's commit round back so the reader's
                // collect sees a pre-written-but-uncommitted pair —
                // exactly the suspicion that disarms the fast path.
                let controller = ScriptedController::new()
                    .with_rule(Rule::slow_all(5_000).client(ClientId::writer()).round(2));
                let res = sys.run(Box::new(controller), &wl, vec![]);
                res.read_rounds()[0]
            };
            (p.name(), quiet, contended)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t6_closed_loop_completes_everything() {
        for row in t6_closed_loop(1, 2, 5, 3) {
            assert_eq!(row.ops, 15, "{}", row.protocol); // 5 writes + 2×5 reads
            assert!(row.throughput > 0.0);
            assert!(row.read_latency.p95 >= row.read_latency.p50);
        }
    }

    #[test]
    fn t6_round_structure_shows_in_latency() {
        // More read rounds ⇒ higher read latency under identical delays.
        let rows = t6_closed_loop(1, 2, 5, 3);
        let lat = |name: &str| {
            rows.iter()
                .find(|r| r.protocol == name)
                .unwrap()
                .read_latency
                .mean
        };
        assert!(lat("auth-regular") < lat("atomic-unauth"));
        assert!(lat("atomic-auth") < lat("atomic-unauth"));
    }

    #[test]
    fn t1_matches_paper_claims() {
        for t in [1, 2, 4] {
            for row in t1_round_table(t, 2) {
                if let Some((w, r)) = row.paper_claim {
                    assert_eq!(row.write_rounds, w, "{} write, t={t}", row.protocol);
                    assert_eq!(row.read_rounds, r, "{} read, t={t}", row.protocol);
                }
            }
        }
    }

    #[test]
    fn t2_retry_degrades_atomic_does_not() {
        let rows = t2_contention_rounds(12);
        let quiet = rows[0];
        let busy = *rows.last().unwrap();
        assert!(busy.1 > quiet.1, "retry-stable rounds grow: {rows:?}");
        assert_eq!(busy.2, quiet.2, "atomic read rounds constant: {rows:?}");
    }

    #[test]
    fn t3_closed_form_agrees() {
        for (_, tk, closed, s, _) in t3_recurrence_table(20) {
            assert_eq!(tk, closed);
            assert_eq!(s, 3 * tk + 1);
        }
    }

    #[test]
    fn t4_breaks_exactly_at_4t() {
        for (s, t, violations) in t4_boundary(2) {
            assert_eq!(violations > 0, s <= 4 * t, "S={s}, t={t}");
        }
    }

    #[test]
    fn f1_reports_violation() {
        let (_, gens, indist, first) = f1_prop1(1);
        assert_eq!(gens, 3);
        assert!(indist);
        assert!(first.is_some());
    }

    /// The acceptance numbers for the fast-path PR: 2 rounds uncontended,
    /// 4 under write contention, while the always-slow read pays 4 both
    /// ways.
    #[test]
    fn t9_fast_path_is_2_rounds_quiet_4_contended() {
        let rows = t9_fast_path_rounds();
        let row = |name: &str| *rows.iter().find(|r| r.0 == name).expect("row");
        assert_eq!(row("atomic-unauth"), ("atomic-unauth", 4, 4));
        assert_eq!(row("atomic-fast"), ("atomic-fast", 2, 4));
    }

    #[test]
    fn t5_produces_sane_latencies() {
        for row in t5_latency(1, 7, false) {
            assert_eq!(row.ops, 20, "{}", row.protocol);
            assert!(row.write_latency > 0.0);
            assert!(row.read_latency > 0.0);
        }
    }
}
