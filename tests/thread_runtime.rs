//! Cross-substrate tests: the same protocol automata running over real OS
//! threads (the thread runtime) instead of the simulator.

use rastor::common::{ClientId, ClusterConfig, ObjectId, RegId, Timestamp, TsVal, Value};
use rastor::core::clients::{ByzWriteClient, OpOutput, RegularReadClient};
use rastor::core::msg::{Rep, Req, Stamped};
use rastor::core::transform::AtomicReadClient;
use rastor::core::HonestObject;
use rastor::sim::runtime::{ThreadClient, ThreadCluster};
use rastor::sim::ObjectBehavior;
use std::time::Duration;

fn cluster(n: usize, jitter: bool) -> ThreadCluster<Req, Rep> {
    let behaviors: Vec<Box<dyn ObjectBehavior<Req, Rep> + Send>> =
        (0..n).map(|_| Box::new(HonestObject::new()) as _).collect();
    let j = jitter.then(|| Duration::from_millis(1));
    ThreadCluster::spawn(behaviors, j)
}

fn stamped(ts: u64, v: u64) -> Stamped {
    Stamped::plain(TsVal::new(Timestamp(ts), Value::from_u64(v)))
}

const TIMEOUT: Duration = Duration::from_secs(10);

#[test]
fn write_then_atomic_read_over_threads() {
    let cfg = ClusterConfig::byzantine(1).unwrap();
    let cl = cluster(4, false);
    let mut writer = ThreadClient::new(ClientId::writer());
    let (out, rounds) = writer
        .run_op(
            &cl,
            Box::new(ByzWriteClient::new(cfg, RegId::WRITER, stamped(1, 7))),
            TIMEOUT,
        )
        .expect("write completes");
    assert_eq!(out, OpOutput::Wrote(stamped(1, 7).pair));
    assert_eq!(rounds, 2);

    let mut reader = ThreadClient::new(ClientId::reader(0));
    let (out, rounds) = reader
        .run_op(&cl, Box::new(AtomicReadClient::unauth(cfg, 0, 2)), TIMEOUT)
        .expect("read completes");
    assert_eq!(out, OpOutput::Read(stamped(1, 7).pair));
    assert_eq!(rounds, 4);
}

#[test]
fn concurrent_readers_under_jitter_never_invert() {
    let cfg = ClusterConfig::byzantine(1).unwrap();
    let cl = std::sync::Arc::new(cluster(4, true));
    let mut writer = ThreadClient::new(ClientId::writer());
    for ts in 1..=3u64 {
        writer
            .run_op(
                &cl,
                Box::new(ByzWriteClient::new(
                    cfg,
                    RegId::WRITER,
                    stamped(ts, ts * 10),
                )),
                TIMEOUT,
            )
            .expect("write completes");
    }
    // Two readers run strictly one after the other; atomicity demands
    // monotone timestamps even with per-request jitter at the objects.
    let mut r0 = ThreadClient::new(ClientId::reader(0));
    let (out0, _) = r0
        .run_op(&cl, Box::new(AtomicReadClient::unauth(cfg, 0, 2)), TIMEOUT)
        .unwrap();
    let mut r1 = ThreadClient::new(ClientId::reader(1));
    let (out1, _) = r1
        .run_op(&cl, Box::new(AtomicReadClient::unauth(cfg, 1, 2)), TIMEOUT)
        .unwrap();
    let (p0, p1) = match (out0, out1) {
        (OpOutput::Read(a), OpOutput::Read(b)) => (a, b),
        _ => panic!("reads return Read"),
    };
    assert_eq!(p0.ts, Timestamp(3));
    assert!(p1 >= p0);
}

#[test]
fn regular_read_over_threads_with_crashed_object() {
    let cfg = ClusterConfig::byzantine(1).unwrap();
    let cl = cluster(4, false);
    let mut writer = ThreadClient::new(ClientId::writer());
    writer
        .run_op(
            &cl,
            Box::new(ByzWriteClient::new(cfg, RegId::WRITER, stamped(1, 5))),
            TIMEOUT,
        )
        .unwrap();
    cl.crash_object(ObjectId(0));
    let mut reader = ThreadClient::new(ClientId::reader(0));
    let (out, _) = reader
        .run_op(
            &cl,
            Box::new(RegularReadClient::unauth(cfg, RegId::WRITER)),
            TIMEOUT,
        )
        .expect("S − t live objects suffice");
    assert_eq!(out, OpOutput::Read(stamped(1, 5).pair));
}

#[test]
fn parallel_writer_and_readers_stay_regular() {
    // A writer thread races reader threads; every read must return a
    // genuine timestamp (no fabrication) and timestamps seen by one reader
    // are monotone across its sequential reads.
    let cfg = ClusterConfig::byzantine(1).unwrap();
    let cl = std::sync::Arc::new(cluster(4, true));
    let writer_cl = cl.clone();
    let writer = std::thread::spawn(move || {
        let mut w = ThreadClient::new(ClientId::writer());
        for ts in 1..=10u64 {
            w.run_op(
                &writer_cl,
                Box::new(ByzWriteClient::new(cfg, RegId::WRITER, stamped(ts, ts))),
                TIMEOUT,
            )
            .expect("write completes");
        }
    });
    let mut handles = Vec::new();
    for r in 0..2u32 {
        let cl = cl.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = ThreadClient::new(ClientId::reader(r));
            for _ in 0..5 {
                let (out, _) = client
                    .run_op(
                        &cl,
                        Box::new(RegularReadClient::unauth(cfg, RegId::WRITER)),
                        TIMEOUT,
                    )
                    .expect("read completes");
                let ts = out.pair().ts.0;
                // Property (1): only genuine timestamps, never fabricated.
                assert!(ts <= 10, "fabricated timestamp {ts}");
            }
        }));
    }
    writer.join().unwrap();
    for h in handles {
        h.join().unwrap();
    }
    // After the last write completed, regularity (property 2) forces any
    // subsequent read to return it.
    let mut client = ThreadClient::new(ClientId::reader(0));
    let (out, _) = client
        .run_op(
            &cl,
            Box::new(RegularReadClient::unauth(cfg, RegId::WRITER)),
            TIMEOUT,
        )
        .expect("read completes");
    assert_eq!(out.pair().ts, Timestamp(10));
}
