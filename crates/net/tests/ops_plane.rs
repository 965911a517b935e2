//! Integration tests of the ops plane: control frames answered in-band
//! on a live data listener, per-shard read counters reconciled against
//! measured protocol rounds, deterministic histogram/ring aggregation
//! under a seeded workload, the `VersionMismatch` corr contract, and the
//! partition verb answered at the shard's own address.

use rastor_common::{Error, Value};
use rastor_kv::StoreConfig;
use rastor_net::deploy::NetKv;
use rastor_net::ops::ControlClient;
use rastor_net::wire::{self, AdminCmd, Frame};
use rastor_obs::{names, Registry};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

/// A status query round-trips on the *data* listener while a pipelined
/// batch is still in flight on another connection to the same port — the
/// control plane needs no second listener and no quiet moment.
#[test]
fn status_round_trips_in_band_during_a_pipelined_batch() {
    // Heavy per-envelope jitter keeps the batch in flight long enough for
    // the (loopback, sub-millisecond) status round trip to land mid-batch.
    let cfg = StoreConfig::new(1, 1, 1).with_jitter(Duration::from_millis(40));
    let kv = NetKv::spawn(cfg, None).expect("net kv");
    let mut h = kv.store.handle(0).expect("handle");
    h.set_depth(8);
    for i in 0..8 {
        h.submit_put(&format!("key-{i}"), Value::from_u64(i))
            .expect("submit");
    }

    let mut control = ControlClient::connect(kv.addr(0)).expect("control connect");
    let objects = control.status().expect("status answers mid-batch");
    assert!(
        h.in_flight() > 0,
        "the batch should still be in flight when status returns"
    );
    assert_eq!(objects.len(), 4, "t = 1 means 3t + 1 hosted objects");
    assert!(objects.iter().all(|o| !o.crashed));

    let outs = h.drain();
    assert_eq!(outs.len(), 8);
    for (_, out) in outs {
        out.expect("puts complete despite the concurrent status query");
    }

    // After the batch, the same objects report the envelopes they served.
    let objects = control.status().expect("status after the batch");
    assert!(
        objects.iter().all(|o| o.served > 0),
        "every object served envelopes for the batch: {objects:?}"
    );
}

/// With fast reads on and a single uncontended client, every confirmed
/// get takes the 1-round fast path — and the per-shard counters agree
/// *exactly* with the rounds the handle measured.
#[test]
fn fast_read_counters_match_measured_rounds() {
    let registry = Arc::new(Registry::new());
    let cfg = StoreConfig::new(1, 2, 1)
        .with_fast_reads(true)
        .with_metrics(Some(Arc::clone(&registry)));
    let kv = NetKv::spawn(cfg, None).expect("net kv");
    let mut h = kv.store.handle(0).expect("handle");

    let keys: Vec<String> = (0..8).map(|i| format!("key-{i}")).collect();
    let mut per_shard = vec![0u64; 2];
    for (i, key) in keys.iter().enumerate() {
        h.put(key, Value::from_u64(i as u64)).expect("seed put");
    }
    for round in 0..3 {
        for key in &keys {
            let got = h.get(key).expect("get").expect("present");
            let _ = (round, got);
            per_shard[kv.store.shard_of(key)] += 1;
        }
    }

    let (rounds_sum, gets) = h.take_get_rounds();
    assert_eq!(gets, 24, "3 sweeps over 8 keys");
    let fast = registry.counter_vec(names::KV_READS_FAST, 2);
    let slow = registry.counter_vec(names::KV_READS_SLOW, 2);
    assert_eq!(
        slow.total(),
        0,
        "an uncontended client never pays the write-back"
    );
    assert_eq!(fast.total(), gets, "every confirmed get took the fast path");
    assert_eq!(rounds_sum, gets, "fast reads cost exactly 1 round each");
    assert_eq!(
        fast.cells(),
        per_shard,
        "counter cells attribute each read to the shard that served it"
    );
}

/// One writer putting to keys no one else touches: every put's tag
/// collect is certified in its first round, so every put is fast (3
/// rounds) and the per-shard put counters attribute each to its shard.
#[test]
fn a_quiet_single_writer_run_has_no_slow_puts() {
    let registry = Arc::new(Registry::new());
    let cfg = StoreConfig::new(1, 2, 1).with_metrics(Some(Arc::clone(&registry)));
    let kv = NetKv::spawn(cfg, None).expect("net kv");
    let mut h = kv.store.handle(0).expect("handle");

    let mut per_shard = vec![0u64; 2];
    for round in 0..3u64 {
        for i in 0..8u64 {
            let key = format!("key-{i}");
            h.put(&key, Value::from_u64(round * 8 + i)).expect("put");
            per_shard[kv.store.shard_of(&key)] += 1;
        }
    }

    let fast = registry.counter_vec(names::KV_PUTS_FAST, 2);
    let slow = registry.counter_vec(names::KV_PUTS_SLOW, 2);
    assert_eq!(slow.total(), 0, "a quiet writer never decides its tag");
    assert_eq!(fast.total(), 24, "3 sweeps over 8 keys, every put fast");
    assert_eq!(fast.cells(), per_shard);
}

/// With fast reads off every get pays the 4-round write-back path; the
/// slow counter and the measured rounds reconcile exactly.
#[test]
fn slow_read_counters_pay_the_write_back() {
    let registry = Arc::new(Registry::new());
    let cfg = StoreConfig::new(1, 1, 1).with_metrics(Some(Arc::clone(&registry)));
    let kv = NetKv::spawn(cfg, None).expect("net kv");
    let mut h = kv.store.handle(0).expect("handle");

    for i in 0..6u64 {
        h.put(&format!("key-{i}"), Value::from_u64(i))
            .expect("seed put");
    }
    for i in 0..6u64 {
        h.get(&format!("key-{i}")).expect("get").expect("present");
    }

    let (rounds_sum, gets) = h.take_get_rounds();
    assert_eq!(gets, 6);
    let fast = registry.counter_vec(names::KV_READS_FAST, 1);
    let slow = registry.counter_vec(names::KV_READS_SLOW, 1);
    assert_eq!(fast.total(), 0, "no fast path without --fast-reads");
    assert_eq!(slow.total(), gets);
    assert_eq!(
        rounds_sum,
        4 * gets,
        "slow reads cost exactly 4 rounds each"
    );
}

/// Under a fixed workload the kv seam's histograms and time ring
/// aggregate *exact* counts — observation is deterministic even though
/// the observed latencies are not.
#[test]
fn histogram_and_ring_aggregation_is_deterministic() {
    let registry = Arc::new(Registry::new());
    let cfg = StoreConfig::new(1, 2, 1)
        .with_fast_reads(true)
        .with_metrics(Some(Arc::clone(&registry)));
    let kv = NetKv::spawn(cfg, None).expect("net kv");
    let mut h = kv.store.handle(0).expect("handle");

    const PUTS: u64 = 10;
    const GETS: u64 = 15;
    for i in 0..PUTS {
        h.put(&format!("key-{}", i % 5), Value::from_u64(i))
            .expect("put");
    }
    for i in 0..GETS {
        h.get(&format!("key-{}", i % 5))
            .expect("get")
            .expect("present");
    }

    let put_latency = registry.histogram(names::KV_PUT_LATENCY_US);
    let get_latency = registry.histogram(names::KV_GET_LATENCY_US);
    assert_eq!(put_latency.count(), PUTS, "one histogram sample per put");
    assert_eq!(get_latency.count(), GETS, "one histogram sample per get");

    let ring = registry.ring(names::KV_OPS_RING_US, 60, Duration::from_secs(60));
    let slots = ring.snapshot();
    let ringed: u64 = slots.iter().map(|s| s.count).sum();
    assert_eq!(ringed, PUTS + GETS, "the ops ring saw every completion");
    for slot in &slots {
        assert!(slot.min <= slot.max);
        assert!(slot.mean() >= slot.min as f64 && slot.mean() <= slot.max as f64);
    }
}

/// Each control op receives the `VersionMismatch` refusal aimed at *it*:
/// the corr a refusal echoes pins it to the op that asked, and a stale
/// refusal echoing another corr is skipped.
#[test]
fn version_mismatch_replies_resolve_the_right_concurrent_op() {
    // A fake "foreign version" server: for each control frame it first
    // sends a refusal echoing a stale corr, then the refusal of the frame
    // itself, tagging each with a `got` byte so the test can tell which
    // refusal each op received.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        for _ in 0..2 {
            let (got, corr) = match wire::read_frame(&mut stream).expect("read request") {
                Frame::StatusReq { corr } => (0xAA, corr),
                Frame::MetricsReq { corr } => (0xBB, corr),
                other => panic!("unexpected control frame: {other:?}"),
            };
            let stale = Frame::VersionMismatch {
                got: 0x11,
                want: 9,
                corr: corr - 1,
            };
            wire::write_frame(&mut stream, &stale).expect("write stale refusal");
            let refusal = Frame::VersionMismatch { got, want: 9, corr };
            wire::write_frame(&mut stream, &refusal).expect("write refusal");
        }
    });

    let mut client = ControlClient::connect(addr).expect("connect");
    let got_of = |r: Result<(), Error>| match r {
        Err(Error::VersionMismatch { got, want }) => {
            assert_eq!(want, 9);
            got
        }
        other => panic!("expected a version mismatch, got {other:?}"),
    };
    let status_got = got_of(client.status().map(|_| ()));
    let metrics_got = got_of(client.metrics_json().map(|_| ()));
    assert_eq!(
        status_got, 0xAA,
        "the status op got the refusal of ITS frame"
    );
    assert_eq!(
        metrics_got, 0xBB,
        "the metrics op got the refusal of ITS frame"
    );
    server.join().expect("fake server");
}

/// The `Partition` verb, sent to the shard's own address, cuts the shard
/// off at its server and heals it; status keeps answering on that address
/// meanwhile, and a shard the server does not serve is refused, as are
/// commands it cannot carry out.
#[test]
fn the_partition_verb_cuts_a_shard_off_while_status_answers() {
    let kv = NetKv::spawn(StoreConfig::new(1, 1, 1), None).expect("net kv");
    let mut h = kv.store.handle(0).expect("handle");
    let mut shard = ControlClient::connect(kv.addr(0)).expect("shard connect");
    let mut admin = ControlClient::connect(kv.addr(0)).expect("admin connect");
    let mut partition = |shard, on| {
        admin
            .admin(AdminCmd::Partition { shard, on })
            .expect("admin round trip")
    };
    h.put("k", Value::from_u64(1)).expect("put");

    assert!(partition(0, true).ok);
    h.set_timeout(Duration::from_millis(150));
    assert!(h.get("k").is_err(), "a cut shard served a read");
    let objects = shard.status().expect("status answers during the cut");
    assert!(objects.len() == 4 && objects.iter().all(|o| !o.crashed));

    assert!(partition(0, false).ok);
    h.set_timeout(Duration::from_secs(10));
    assert_eq!(
        h.get("k").expect("get after the heal"),
        Some(Value::from_u64(1))
    );
    let refusal = partition(9, true);
    assert!(
        !refusal.ok && refusal.detail.contains("no shard 9"),
        "{}",
        refusal.detail
    );
    // An object the shard does not host, and a restart an in-memory shard
    // cannot recover from, are refused too.
    for (object, refused) in [(9, "hosts no object 9"), (3, "cannot recover state")] {
        let outcome = admin
            .admin(AdminCmd::RestartObject { shard: 0, object })
            .expect("admin round trip");
        assert!(
            !outcome.ok && outcome.detail.contains(refused),
            "{}",
            outcome.detail
        );
    }
}
