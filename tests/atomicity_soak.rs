//! Randomized soak tests: every protocol, many seeds, mixed read/write
//! workloads, random network delays and Byzantine corruption up to the full
//! fault budget — every recorded history must satisfy the paper's
//! atomicity (or regularity) properties.

use rastor::common::{ObjectId, Value};
use rastor::core::{FaultKind, Protocol, StorageSystem, Workload};
use rastor::sim::UniformDelay;

fn soak_workload(seed: u64) -> Workload {
    // A deterministic pseudo-random mixed workload derived from the seed.
    let mut wl = Workload::default();
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut t = 0u64;
    for i in 0..12u64 {
        t += next() % 40;
        if next() % 3 == 0 {
            wl = wl.with_write(t, Value::from_u64(i + 1));
        } else {
            wl = wl.with_read(t, (next() % 3) as u32);
        }
    }
    // Ensure at least one write and one read exist.
    wl.with_write(t + 10, Value::from_u64(99))
        .with_read(t + 20, 0)
}

fn check(protocol: Protocol, seed: u64, adversary: Option<&FaultKind>) {
    let t = 2;
    let mut sys = StorageSystem::new(protocol, t, 3).unwrap();
    let wl = soak_workload(seed);
    let corrupted = match adversary {
        Some(kind) if protocol.model() != rastor::common::FaultModel::Crash => (0..t as u32)
            .map(|i| (ObjectId(i), kind.materialize()))
            .collect(),
        _ => vec![],
    };
    let res = sys.run(Box::new(UniformDelay::new(seed, 1, 25)), &wl, corrupted);
    assert!(!res.hit_cap, "{protocol:?} seed {seed}: stuck run");
    let expected = wl.writes.len() + wl.reads.len();
    assert_eq!(
        res.completions.len(),
        expected,
        "{protocol:?} seed {seed}: wait-freedom violated"
    );
    let violations = if protocol.is_atomic() {
        res.history.check_atomic()
    } else {
        res.history.check_regular()
    };
    assert!(
        violations.is_empty(),
        "{protocol:?} seed {seed} adv {adversary:?}: {violations:?}"
    );
}

#[test]
fn abd_soak() {
    for seed in 0..30 {
        check(Protocol::Abd, seed, None);
    }
}

#[test]
fn byz_regular_soak() {
    for seed in 0..30 {
        check(Protocol::ByzRegular, seed, None);
    }
}

#[test]
fn atomic_unauth_soak() {
    for seed in 0..30 {
        check(Protocol::AtomicUnauth, seed, None);
    }
}

#[test]
fn atomic_auth_soak() {
    for seed in 0..30 {
        check(Protocol::AtomicAuth, seed, None);
    }
}

#[test]
fn auth_regular_soak() {
    for seed in 0..30 {
        check(Protocol::AuthRegular, seed, None);
    }
}

#[test]
fn byzantine_adversary_soak() {
    for protocol in [
        Protocol::ByzRegular,
        Protocol::AuthRegular,
        Protocol::AtomicUnauth,
        Protocol::AtomicAuth,
    ] {
        for adversary in FaultKind::stock() {
            for seed in 0..8 {
                check(protocol, seed, Some(&adversary));
            }
        }
    }
}

#[test]
fn reader_crash_mid_operation_is_harmless() {
    use rastor::common::{ClientId, OpKind};
    let mut sys = StorageSystem::new(Protocol::AtomicUnauth, 1, 2).unwrap();
    let mut sim = sys.build_sim(Box::new(UniformDelay::new(3, 1, 10)));
    sim.invoke_at(
        0,
        ClientId::writer(),
        OpKind::Write,
        sys.write_client(Value::from_u64(1)),
    );
    sim.invoke_at(50, ClientId::reader(0), OpKind::Read, sys.read_client(0));
    // Reader 0 crashes mid-read (possibly between its write-back phases).
    sim.crash_client_at(55, ClientId::reader(0));
    sim.invoke_at(500, ClientId::reader(1), OpKind::Read, sys.read_client(1));
    let done = sim.run_to_quiescence();
    // Writer and reader 1 complete; reader 1 sees the write.
    let r1 = done
        .iter()
        .find(|c| c.client == ClientId::reader(1))
        .expect("surviving reader completes");
    assert_eq!(r1.output.pair().ts, rastor::common::Timestamp(1));
}

#[test]
fn writer_crash_leaves_register_readable() {
    use rastor::common::{ClientId, OpKind};
    let mut sys = StorageSystem::new(Protocol::AtomicUnauth, 1, 2).unwrap();
    let mut sim = sys.build_sim(Box::new(UniformDelay::new(9, 1, 10)));
    sim.invoke_at(
        0,
        ClientId::writer(),
        OpKind::Write,
        sys.write_client(Value::from_u64(1)),
    );
    // Second write starts then the writer crashes almost immediately.
    sim.invoke_at(
        200,
        ClientId::writer(),
        OpKind::Write,
        sys.write_client(Value::from_u64(2)),
    );
    sim.crash_client_at(203, ClientId::writer());
    sim.invoke_at(600, ClientId::reader(0), OpKind::Read, sys.read_client(0));
    sim.invoke_at(900, ClientId::reader(1), OpKind::Read, sys.read_client(1));
    let done = sim.run_to_quiescence();
    let reads: Vec<_> = done.iter().filter(|c| c.output.is_read()).collect();
    assert_eq!(reads.len(), 2, "reads complete despite the crashed writer");
    // Each read returns write 1 or the concurrent (incomplete) write 2,
    // and the two reads must not invert.
    for r in &reads {
        let ts = r.output.pair().ts.0;
        assert!(ts == 1 || ts == 2, "got ts {ts}");
    }
    assert!(
        reads[1].output.pair().ts >= reads[0].output.pair().ts,
        "no new/old inversion after writer crash"
    );
}
