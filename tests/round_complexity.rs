//! The paper's round-complexity claims, verified across fault budgets and
//! reader counts: this is the executable version of the complexity table in
//! DESIGN.md. The measurements come from the `exp` drivers (`rastor::exp`,
//! experiments T1, T2, T5, T6, T9), the claims from
//! `Protocol::claimed_rounds`; the literal numbers below are a second
//! witness, so neither can drift alone.

use rastor::common::Value;
use rastor::core::{Protocol, StorageSystem, Workload};
use rastor::exp;

/// Every write's and every read's round count in one contention-free run.
fn rounds(protocol: Protocol, t: usize, readers: u32) -> (Vec<u32>, Vec<u32>) {
    let (_, run) = exp::quiet_run(protocol, t, readers);
    (run.write_rounds(), run.read_rounds())
}

#[test]
fn abd_is_1w_2r() {
    for t in 1..=4 {
        let (w, r) = rounds(Protocol::Abd, t, 2);
        assert!(w.iter().all(|&x| x == 1), "t={t}: {w:?}");
        assert!(r.iter().all(|&x| x == 2), "t={t}: {r:?}");
    }
}

#[test]
fn byz_regular_is_2w_2r() {
    for t in 1..=4 {
        let (w, r) = rounds(Protocol::ByzRegular, t, 2);
        assert!(w.iter().all(|&x| x == 2), "t={t}: {w:?}");
        assert!(r.iter().all(|&x| x == 2), "t={t}: {r:?}");
    }
}

#[test]
fn auth_regular_is_2w_1r() {
    for t in 1..=4 {
        let (w, r) = rounds(Protocol::AuthRegular, t, 2);
        assert!(w.iter().all(|&x| x == 2), "t={t}: {w:?}");
        assert!(r.iter().all(|&x| x == 1), "t={t}: {r:?}");
    }
}

#[test]
fn headline_atomic_is_2w_4r_for_any_reader_count() {
    // The paper's scalability point: constant write latency and 4-round
    // reads regardless of R (the transformation reads all R+1 registers in
    // the same physical rounds).
    for readers in [1u32, 2, 4, 8, 16] {
        let (w, r) = rounds(Protocol::AtomicUnauth, 1, readers);
        assert!(w.iter().all(|&x| x == 2), "R={readers}: {w:?}");
        assert!(r.iter().all(|&x| x == 4), "R={readers}: {r:?}");
    }
}

#[test]
fn secret_value_atomic_is_2w_3r() {
    for t in 1..=3 {
        for readers in [1u32, 4] {
            let (w, r) = rounds(Protocol::AtomicAuth, t, readers);
            assert!(w.iter().all(|&x| x == 2), "t={t} R={readers}: {w:?}");
            assert!(r.iter().all(|&x| x == 3), "t={t} R={readers}: {r:?}");
        }
    }
}

#[test]
fn safe_nowrite_read_grows_linearly_in_t() {
    // The Ω(t) baseline: non-writing readers pay t+1 rounds.
    for t in 1..=5 {
        let (_, r) = rounds(Protocol::SafeNoWrite, t, 1);
        assert!(r.iter().all(|&x| x == t as u32 + 1), "t={t}: {r:?}");
    }
}

#[test]
fn round_counts_are_independent_of_network_delay() {
    use rastor::sim::UniformDelay;
    // Rounds are a logical metric: random delays must not change them in
    // contention-free runs.
    for seed in 0..10 {
        let mut sys = StorageSystem::new(Protocol::AtomicUnauth, 2, 2).unwrap();
        let wl = Workload::default()
            .with_write(0, Value::from_u64(1))
            .with_read(10_000, 0);
        let res = sys.run(Box::new(UniformDelay::new(seed, 1, 50)), &wl, vec![]);
        assert_eq!(res.write_rounds(), vec![2]);
        assert_eq!(res.read_rounds(), vec![4]);
    }
}

#[test]
fn measured_rounds_match_claimed_rounds() {
    // The one claims table against the one driver: every protocol the
    // paper bounds, at three fault budgets, over every write and every
    // reader's read of the run.
    for t in [1, 2, 4] {
        for p in Protocol::all() {
            let Some((w, r)) = p.claimed_rounds(t) else {
                continue;
            };
            let (writes, reads) = rounds(p, t, 2);
            assert!(writes.iter().all(|&x| x == w), "{p:?} t={t}: {writes:?}");
            assert!(reads.iter().all(|&x| x == r), "{p:?} t={t}: {reads:?}");
        }
    }
}

#[test]
fn t2_retry_degrades_atomic_does_not() {
    let rows = exp::t2_contention_rounds(12);
    let quiet = rows[0];
    let busy = *rows.last().unwrap();
    assert!(busy.1 > quiet.1, "retry-stable rounds grow: {rows:?}");
    assert_eq!(busy.2, quiet.2, "atomic read rounds constant: {rows:?}");
}

#[test]
fn t5_produces_sane_latencies() {
    for row in exp::t5_latency(1, 7, false) {
        assert_eq!(row.ops, 20, "{}", row.protocol);
        assert!(row.write_latency > 0.0);
        assert!(row.read_latency > 0.0);
    }
}

#[test]
fn t6_closed_loop_completes_everything() {
    for row in exp::t6_closed_loop(1, 2, 5, 3) {
        assert_eq!(row.ops, 15, "{}", row.protocol); // 5 writes + 2×5 reads
        assert!(row.throughput > 0.0);
        assert!(row.read_latency.p95 >= row.read_latency.p50);
    }
}

#[test]
fn t6_round_structure_shows_in_latency() {
    // More read rounds ⇒ higher read latency under identical delays.
    let rows = exp::t6_closed_loop(1, 2, 5, 3);
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

/// The acceptance numbers for the fast-path PR: 2 rounds uncontended,
/// 4 under write contention, while the always-slow read pays 4 both
/// ways.
#[test]
fn t9_fast_path_is_2_rounds_quiet_4_contended() {
    let rows = exp::t9_fast_path_rounds();
    let row = |name: &str| *rows.iter().find(|r| r.0 == name).expect("row");
    assert_eq!(row("atomic-unauth"), ("atomic-unauth", 4, 4));
    assert_eq!(row("atomic-fast"), ("atomic-fast", 2, 4));
}
