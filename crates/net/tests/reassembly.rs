//! Incremental frame-reassembly tests for the reactor's read path: a
//! peer that dribbles a perfectly valid frame one byte at a time (or
//! splits it across arbitrary write boundaries) must see exactly the
//! same replies as one that writes it whole — and the reactor must wait
//! for readiness in between, not busy-spin on the half-read buffer.
//!
//! Both kinds of frame the [`ObjectServer`] reads are covered: data
//! envelopes and control frames, which share the reactor and its
//! per-connection partial-read buffers.

use rastor_common::{ClientId, ObjectId, RegId};
use rastor_core::msg::Req;
use rastor_core::HonestObject;
use rastor_kv::StoreConfig;
use rastor_net::server::ObjectServer;
use rastor_net::wire::{self, Frame, ReqEnvelope, WireReqFrame};
use rastor_net::NetKv;
use rastor_obs::{names, Registry};
use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Ceiling on readiness wakeups a dribbled frame may cost, process-wide.
/// A reactor parked in `poll(2)` wakes once per delivered byte plus idle
/// ticks — tens of wakeups here. A busy-spinning one would clear this by
/// orders of magnitude within the test's deliberate ~100ms of dribbling.
const WAKEUP_BUDGET: u64 = 50_000;

fn one_object_server() -> ObjectServer {
    ObjectServer::spawn(vec![Box::new(HonestObject::new()) as _], 0, None).expect("server")
}

fn collect_req(from: ClientId) -> Frame {
    Frame::Req(ReqEnvelope {
        from,
        frames: vec![WireReqFrame {
            op_nonce: 1,
            round: 1,
            trace: 0,
            req: Req::Collect {
                regs: vec![RegId::WRITER],
            },
        }],
    })
}

fn expect_rep(conn: &mut TcpStream, to: ClientId) {
    match wire::read_frame(conn).expect("reply") {
        Frame::Rep(env) => {
            assert_eq!(env.to, to);
            assert_eq!(env.from, ObjectId(0));
            assert_eq!(env.frames.len(), 1, "one collect, one reply frame");
        }
        other => panic!("expected a reply envelope, got {other:?}"),
    }
}

/// The tentpole reassembly claim, worst case: every byte of a valid
/// request in its own `write(2)`, with a pause between bytes so each one
/// lands as a separate readiness event. The server must decode exactly
/// one request, reply normally — and spend its waiting time parked, not
/// spinning (bounded wakeup delta, measured process-wide so it also
/// bounds every other reactor alive during the test).
#[test]
fn a_frame_dribbled_byte_by_byte_decodes_once_and_does_not_busy_spin() {
    let server = one_object_server();
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_nodelay(true).expect("nodelay");

    let bytes = wire::encode_frame(&collect_req(ClientId::reader(1)));
    let before = Registry::global().counter_value(names::NET_READINESS_WAKEUPS);
    for b in &bytes {
        conn.write_all(std::slice::from_ref(b)).expect("dribble");
        conn.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(2));
    }
    expect_rep(&mut conn, ClientId::reader(1));
    let delta = Registry::global().counter_value(names::NET_READINESS_WAKEUPS) - before;
    assert!(
        delta < WAKEUP_BUDGET,
        "reactor busy-spun on a partial frame: {delta} wakeups while dribbling \
         {} bytes (budget {WAKEUP_BUDGET})",
        bytes.len()
    );
}

/// A worker polls every connection it owns on every iteration, so the
/// open-but-silent ones must cost a wakeup nothing: with 32 of them
/// beside one connection doing paced collects, wakeups stay within a few
/// per collect plus the idle ticks of the elapsed time. A writability
/// interest left on, or a `WouldBlock` taken for progress, would turn
/// each wait into an immediate return and clear this by orders of
/// magnitude (measured process-wide, like the dribble budget).
#[test]
fn silent_connections_do_not_make_the_reactor_spin() {
    const COLLECTS: u64 = 100;
    // Ceiling on reactor workers alive in this test binary at once, each
    // good for about one wakeup per 20 ms tick (or 25 ms resubmit timer).
    const WORKERS: u64 = 64;

    let server = one_object_server();
    let _silent: Vec<TcpStream> = (0..32)
        .map(|_| TcpStream::connect(server.local_addr()).expect("connect"))
        .collect();
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    // Accepts are in dial order: once this is answered, all 32 are owned.
    wire::write_frame(&mut conn, &collect_req(ClientId::reader(7))).expect("req");
    expect_rep(&mut conn, ClientId::reader(7));

    let before = Registry::global().counter_value(names::NET_READINESS_WAKEUPS);
    let started = Instant::now();
    for _ in 0..COLLECTS {
        wire::write_frame(&mut conn, &collect_req(ClientId::reader(7))).expect("req");
        expect_rep(&mut conn, ClientId::reader(7));
        std::thread::sleep(Duration::from_millis(2));
    }
    let ticks = started.elapsed().as_millis() as u64 / 20 + 1;
    let delta = Registry::global().counter_value(names::NET_READINESS_WAKEUPS) - before;
    let budget = 8 * COLLECTS + WORKERS * ticks;
    assert!(
        delta < budget,
        "{delta} wakeups for {COLLECTS} collects over {ticks} idle ticks (budget {budget})"
    );
}

/// The off-by-one-prone split points: a frame cut mid-header, and two
/// back-to-back frames where the first write ends mid-way through the
/// second frame's body. The per-connection buffer must carry the partial
/// bytes across reads and still find both frame boundaries.
#[test]
fn frames_split_across_write_boundaries_reassemble() {
    let server = one_object_server();
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_nodelay(true).expect("nodelay");

    // One frame, cut inside the 8-byte header.
    let first = wire::encode_frame(&collect_req(ClientId::reader(2)));
    conn.write_all(&first[..5]).expect("header half");
    conn.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(20));
    conn.write_all(&first[5..]).expect("rest");
    conn.flush().expect("flush");
    expect_rep(&mut conn, ClientId::reader(2));

    // Two frames, cut inside the second one's body.
    let mut both = wire::encode_frame(&collect_req(ClientId::reader(3)));
    both.extend_from_slice(&wire::encode_frame(&collect_req(ClientId::reader(4))));
    let cut = first.len() + 11;
    conn.write_all(&both[..cut]).expect("one and a bit");
    conn.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(20));
    conn.write_all(&both[cut..]).expect("the rest");
    conn.flush().expect("flush");
    expect_rep(&mut conn, ClientId::reader(3));
    expect_rep(&mut conn, ClientId::reader(4));
}

/// Control frames share the reactor's reassembly path: a control frame
/// dribbled byte-by-byte to a shard's address gets its normal reply,
/// correlation id echoed, and the connection keeps serving whole frames
/// afterwards.
#[test]
fn the_ops_listener_reassembles_dribbled_control_frames() {
    let kv = NetKv::spawn(StoreConfig::new(1, 1, 1), None).expect("net kv");
    let mut conn = TcpStream::connect(kv.addr(0)).expect("connect");
    conn.set_nodelay(true).expect("nodelay");

    let bytes = wire::encode_frame(&Frame::StatusReq { corr: 0xC0FFEE });
    for b in &bytes {
        conn.write_all(std::slice::from_ref(b)).expect("dribble");
        conn.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(2));
    }
    match wire::read_frame(&mut conn).expect("status reply") {
        Frame::Status { corr, objects } => {
            assert_eq!(corr, 0xC0FFEE);
            assert_eq!(objects.len(), 4, "the shard's 3t + 1 objects");
        }
        other => panic!("expected a status reply, got {other:?}"),
    }

    wire::write_frame(&mut conn, &Frame::MetricsReq { corr: 7 }).expect("whole frame");
    match wire::read_frame(&mut conn).expect("metrics reply") {
        Frame::Metrics { corr, json } => {
            assert_eq!(corr, 7);
            assert!(json.contains("rastor-metrics"), "a metrics document");
        }
        other => panic!("expected a metrics reply, got {other:?}"),
    }
}

/// The reactor's scaling claim: an `ObjectServer` runs a
/// fixed worker pool, so its thread count is identical whether it hosts
/// one object or twelve, and does not move when connections pile on.
#[test]
fn server_thread_count_is_fixed_regardless_of_objects_and_connections() {
    let small = one_object_server();
    let many = ObjectServer::spawn(
        (0..12)
            .map(|_| Box::new(HonestObject::new()) as _)
            .collect(),
        0,
        None,
    )
    .expect("12-object server");
    assert_eq!(
        small.thread_count(),
        many.thread_count(),
        "hosting 12x the objects must not grow the pool"
    );
    assert!(
        many.thread_count() <= 8,
        "a fixed small pool, not worker-per-object: {} threads",
        many.thread_count()
    );

    let before = many.thread_count();
    let conns: Vec<TcpStream> = (0..32)
        .map(|_| TcpStream::connect(many.local_addr()).expect("connect"))
        .collect();
    // Make the connections real on the server side: each serves a frame.
    // A request envelope fans out to every hosted object, so the first
    // reply may come from any of the twelve.
    for (i, mut conn) in conns.into_iter().enumerate() {
        wire::write_frame(&mut conn, &collect_req(ClientId::reader(i as u32))).expect("req");
        match wire::read_frame(&mut conn).expect("reply") {
            Frame::Rep(env) => assert_eq!(env.to, ClientId::reader(i as u32)),
            other => panic!("expected a reply envelope, got {other:?}"),
        }
    }
    assert_eq!(
        many.thread_count(),
        before,
        "32 served connections must not grow the pool"
    );
}

/// A frame whose length prefix is beyond the ceiling cannot be trusted to
/// realign the stream, foreign version byte or not: the reactor answers no
/// `VersionMismatch`, it drops the connection — and keeps serving others.
#[test]
fn an_oversized_foreign_frame_drops_the_connection() {
    use std::io::Read as _;

    let server = one_object_server();
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    let mut header = wire::encode_frame(&collect_req(ClientId::reader(5)));
    header.truncate(wire::HEADER_LEN);
    header[2] = wire::WIRE_VERSION + 1;
    header[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    conn.write_all(&header).expect("send header");
    conn.flush().expect("flush");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut sink = [0u8; 64];
    assert!(
        matches!(conn.read(&mut sink), Ok(0) | Err(_)),
        "the server must hang up without replying"
    );

    let mut fresh = TcpStream::connect(server.local_addr()).expect("connect");
    wire::write_frame(&mut fresh, &collect_req(ClientId::reader(6))).expect("req");
    expect_rep(&mut fresh, ClientId::reader(6));
}
