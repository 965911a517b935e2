//! Two reactor edge cases:
//!
//! 1. A connection that has been quiet is served as promptly as a busy
//!    one, even while another connection keeps the same worker occupied.
//! 2. When a live socket dies with a dormant (resubmit-capped) flush
//!    pending, the redial path resubmits that flush **exactly once** on
//!    the new connection — the cap stops the periodic ticker, not the
//!    reconnect recovery, and the reconnect recovery must not loop.

use rastor_common::{ClientId, ObjectId, RegId, Value};
use rastor_core::msg::Req;
use rastor_core::HonestObject;
use rastor_kv::StoreConfig;
use rastor_net::server::ObjectServer;
use rastor_net::wire::{self, Frame, ReqEnvelope, WireReqFrame};
use rastor_net::NetKv;
use rastor_obs::{names, Registry};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn collect_req(from: ClientId, op_nonce: u64) -> Frame {
    Frame::Req(ReqEnvelope {
        from,
        frames: vec![WireReqFrame {
            op_nonce,
            round: 1,
            trace: 0,
            req: Req::Collect {
                regs: vec![RegId::WRITER],
            },
        }],
    })
}

fn roundtrip(conn: &mut TcpStream, from: ClientId, op_nonce: u64) {
    wire::write_frame(conn, &collect_req(from, op_nonce)).expect("request");
    match wire::read_frame(conn).expect("reply") {
        Frame::Rep(env) => {
            assert_eq!(env.to, from);
            assert_eq!(env.from, ObjectId(0));
        }
        other => panic!("expected a reply envelope, got {other:?}"),
    }
}

/// A worker waits on every connection it owns, so a request on a
/// connection that was silent for 50 ms is answered in the time a
/// round trip takes, not the time a housekeeping tick takes — while
/// another connection on the same worker is served back to back.
/// Connection ids 0, 1, 2 land on workers 0, 1, 0.
#[test]
fn a_quiet_connection_is_served_promptly_beside_a_busy_one() {
    let server =
        ObjectServer::spawn(vec![Box::new(HonestObject::new()) as _], 0, None).expect("server");
    let dial = |reader: u32| {
        let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
        conn.set_nodelay(true).expect("nodelay");
        // A served frame: the server has adopted the connection, so the
        // next dial gets the next id.
        roundtrip(&mut conn, ClientId::reader(reader), 0);
        conn
    };
    let mut busy = dial(0);
    let _other_worker = dial(1);
    let mut quiet = dial(2);

    let stop = Arc::new(AtomicBool::new(false));
    let hammer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut nonce = 1;
            while !stop.load(Ordering::Relaxed) {
                roundtrip(&mut busy, ClientId::reader(0), nonce);
                nonce += 1;
            }
        })
    };

    let mut rtts: Vec<Duration> = (1..=21)
        .map(|nonce| {
            std::thread::sleep(Duration::from_millis(50));
            let sent = Instant::now();
            roundtrip(&mut quiet, ClientId::reader(2), nonce);
            sent.elapsed()
        })
        .collect();
    stop.store(true, Ordering::Relaxed);
    hammer.join().expect("hammer thread");

    rtts.sort();
    let p50 = rtts[rtts.len() / 2];
    assert!(
        p50 < Duration::from_millis(2),
        "a quiet connection waited behind a busy one: probe p50 {p50:?}, all {rtts:?}"
    );
}

/// Poll `net.resubmissions` until it has been static for `quiet`,
/// returning the settled value. Panics if it never settles.
fn settled_resubmissions(quiet: Duration) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snapshot = Registry::global().counter_value(names::NET_RESUBMISSIONS);
        std::thread::sleep(quiet);
        if Registry::global().counter_value(names::NET_RESUBMISSIONS) == snapshot {
            return snapshot;
        }
        assert!(
            Instant::now() < deadline,
            "resubmissions never went dormant"
        );
    }
}

/// A killed socket with a *dormant* pending flush costs exactly one
/// resubmission. After an op completes, its latest flush stays pending
/// and the periodic ticker re-broadcasts it until `RESUBMIT_CAP`; once
/// capped it is dormant. Severing the socket then forces a redial, and
/// the redial resubmits the flush exactly once — not zero times (frames
/// on the dead socket are gone; in-flight ops would starve into their
/// deadlines) and not per-tick (the cap must keep holding afterwards).
#[test]
fn a_killed_socket_resubmits_the_dormant_flush_exactly_once() {
    let kv = NetKv::spawn(StoreConfig::new(1, 1, 1), None).expect("net kv");
    let mut handle = kv.store.handle(0).expect("handle");
    handle.set_timeout(Duration::from_secs(5));
    handle.put("edge", Value::from_u64(7)).expect("put");

    // Let the completed op's flush run out its resubmit cap (25ms × 40 ≈
    // 1s) and verify it is actually dormant before the kill, so the
    // delta below measures the redial path alone.
    let before = settled_resubmissions(Duration::from_millis(200));

    kv.servers[0].drop_connections();

    // The client notices the close within a sweep, redials within its
    // backoff, and resubmits the pending flush once.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let delta = Registry::global().counter_value(names::NET_RESUBMISSIONS) - before;
        if delta >= 1 {
            assert_eq!(
                delta, 1,
                "redial must resubmit the dormant flush exactly once"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "redial never resubmitted the pending flush after the socket kill"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // And it stays at one: the resubmit cap still gates the periodic
    // ticker on the new connection.
    std::thread::sleep(Duration::from_millis(200));
    let delta = Registry::global().counter_value(names::NET_RESUBMISSIONS) - before;
    assert_eq!(
        delta, 1,
        "the periodic ticker must not resume resubmitting a capped flush after redial"
    );
}
