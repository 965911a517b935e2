//! Transient partitions, stale-replay adversaries and combined fault
//! scenarios against the headline constructions.

use rastor::common::{ClientId, ObjectId, Value};
use rastor::core::{FaultKind, Protocol, StorageSystem, Workload};
use rastor::sim::PartitionController;

/// A controller where the writer is partitioned from part of the cluster
/// for a while: messages crawl, but reliability is preserved.
fn partitioned_controller(t: usize) -> PartitionController {
    let mut c = PartitionController::new(11, 1, 5, 2_000);
    for oid in 0..t as u32 {
        c.slow_link(ClientId::writer(), ObjectId(oid));
    }
    c
}

#[test]
fn writes_survive_partition_from_t_objects() {
    for protocol in [Protocol::ByzRegular, Protocol::AtomicUnauth] {
        let t = 2;
        let mut sys = StorageSystem::new(protocol, t, 2).unwrap();
        let wl = Workload::default()
            .with_write(0, Value::from_u64(1))
            .with_read(10_000, 0);
        let res = sys.run(Box::new(partitioned_controller(t)), &wl, vec![]);
        assert_eq!(res.completions.len(), 2, "{protocol:?}");
        let violations = if protocol.is_atomic() {
            res.history.check_atomic()
        } else {
            res.history.check_regular()
        };
        assert!(violations.is_empty(), "{protocol:?}: {violations:?}");
        // The write terminated on the reachable S − t quorum: 2 rounds
        // despite the partition.
        assert_eq!(res.write_rounds(), vec![2], "{protocol:?}");
    }
}

#[test]
fn reader_partitioned_from_different_objects_than_writer() {
    // Writer slow to objects 0..t, reader slow to objects S−t..S: their
    // quorums barely overlap, the worst case for evidence propagation.
    let t = 2;
    let mut sys = StorageSystem::new(Protocol::AtomicUnauth, t, 1).unwrap();
    let s = sys.config().num_objects();
    let mut controller = PartitionController::new(5, 1, 5, 3_000);
    for oid in 0..t as u32 {
        controller.slow_link(ClientId::writer(), ObjectId(oid));
    }
    for oid in (s - t) as u32..s as u32 {
        controller.slow_link(ClientId::reader(0), ObjectId(oid));
    }
    let wl = Workload::default()
        .with_write(0, Value::from_u64(42))
        .with_read(20_000, 0);
    let res = sys.run(Box::new(controller), &wl, vec![]);
    assert_eq!(res.completions.len(), 2);
    assert!(res.history.check_atomic().is_empty());
    // The read still returns the write: quorum intersection does its job.
    let read = res.completions.iter().find(|c| c.output.is_read()).unwrap();
    assert_eq!(read.output.pair().val, Value::from_u64(42));
}

#[test]
fn stale_replay_adversary_is_outvoted() {
    // t objects freeze early and replay genuinely-old state forever; reads
    // invoked after later writes must still return the fresh value.
    for protocol in [
        Protocol::ByzRegular,
        Protocol::AuthRegular,
        Protocol::AtomicUnauth,
        Protocol::AtomicAuth,
    ] {
        let t = 2;
        let mut sys = StorageSystem::new(protocol, t, 1).unwrap();
        let wl = Workload::default()
            .with_write(0, Value::from_u64(1))
            .with_write(500, Value::from_u64(2))
            .with_write(1_000, Value::from_u64(3))
            .with_read(5_000, 0);
        let corrupted = (0..t as u32)
            .map(|i| (ObjectId(i), FaultKind::StaleAfter(4).materialize()))
            .collect();
        let res = sys.run(Box::new(rastor::sim::FixedDelay::new(1)), &wl, corrupted);
        let read = res.completions.iter().find(|c| c.output.is_read()).unwrap();
        assert_eq!(
            read.output.pair().ts,
            rastor::common::Timestamp(3),
            "{protocol:?} must out-vote the replayers"
        );
    }
}

#[test]
fn mixed_adversaries_within_budget() {
    // t = 3 corrupted objects running three *different* behaviors at once.
    let t = 3;
    let mut sys = StorageSystem::new(Protocol::AtomicUnauth, t, 2).unwrap();
    let wl = Workload::default()
        .with_write(0, Value::from_u64(1))
        .with_write(100, Value::from_u64(2))
        .with_read(1_000, 0)
        .with_read(2_000, 1);
    let corrupted = vec![
        (ObjectId(0), FaultKind::Silent.materialize()),
        (ObjectId(1), FaultKind::ForgeHigh.materialize()),
        (ObjectId(2), FaultKind::StaleAfter(4).materialize()),
    ];
    let res = sys.run(Box::new(rastor::sim::FixedDelay::new(1)), &wl, corrupted);
    assert_eq!(res.completions.len(), 4);
    assert!(res.history.check_atomic().is_empty());
    for read in res.completions.iter().filter(|c| c.output.is_read()) {
        assert_eq!(read.output.pair().ts, rastor::common::Timestamp(2));
    }
}

#[test]
fn equivocator_cannot_split_reader_views() {
    let t = 1;
    let mut sys = StorageSystem::new(Protocol::AtomicUnauth, t, 2).unwrap();
    let wl = Workload::default()
        .with_write(0, Value::from_u64(1))
        .with_write(100, Value::from_u64(2))
        .with_read(1_000, 0)
        .with_read(2_000, 1);
    // The equivocator shows reader 0 a frozen (older) state.
    let equivocator = FaultKind::Equivocate {
        victims: vec![ClientId::reader(0)],
        freeze_after: 2,
    };
    let corrupted = vec![(ObjectId(0), equivocator.materialize())];
    let res = sys.run(Box::new(rastor::sim::FixedDelay::new(1)), &wl, corrupted);
    assert!(res.history.check_atomic().is_empty());
    // Both readers converge on the latest write despite the split views.
    for read in res.completions.iter().filter(|c| c.output.is_read()) {
        assert_eq!(read.output.pair().ts, rastor::common::Timestamp(2));
    }
}
