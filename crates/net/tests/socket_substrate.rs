//! End-to-end tests of the socket substrate: the same protocol automata
//! the simulator and thread runtime drive, now over loopback TCP — plus
//! link faults drawn per object at the servers' hosts.

use rastor_common::{ClientId, ObjectId, Timestamp, Value};
use rastor_core::msg::{Rep, Req};
use rastor_core::{HonestObject, OpOutput, Protocol, StorageSystem};
use rastor_kv::StoreConfig;
use rastor_net::client::NetCluster;
use rastor_net::deploy::{NetDeploy, NetKv};
use rastor_net::ops::ControlClient;
use rastor_net::server::ObjectServer;
use rastor_net::ChaosCfg;
use rastor_obs::{names, Registry};
use rastor_sim::runtime::{ThreadClient, Transport};
use rastor_sim::{ObjectHost, ReplySink};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

/// A write and a read of every deployable protocol complete over sockets
/// with the exact round counts the paper prescribes — the substrate is
/// invisible to the automata.
#[test]
fn harness_protocols_roundtrip_over_tcp() {
    for (p, write_rounds, read_rounds) in [
        (Protocol::Abd, 1, 2),
        (Protocol::ByzRegular, 2, 2),
        (Protocol::AuthRegular, 2, 1),
        (Protocol::AtomicUnauth, 2, 4),
        (Protocol::AtomicAuth, 2, 3),
    ] {
        let mut sys = StorageSystem::new(p, 1, 1).expect("valid shape");
        let harness = sys.spawn_net_cluster(None).expect("net deploy");
        let mut client = ThreadClient::new(ClientId::reader(0));
        let results: Vec<(OpOutput, u32)> =
            [sys.write_client(Value::from_u64(42)), sys.read_client(0)]
                .into_iter()
                .map(|automaton| {
                    client
                        .run_op(&harness.cluster, automaton, TIMEOUT)
                        .expect("completes over tcp")
                })
                .collect();
        assert_eq!(results[0].1, write_rounds, "{p:?} write rounds");
        assert_eq!(results[1].1, read_rounds, "{p:?} read rounds");
        let pair = results[1].0.clone().into_read().expect("read output");
        assert_eq!(pair.ts, Timestamp(1), "{p:?}");
        assert_eq!(pair.val, Value::from_u64(42), "{p:?}");
    }
}

/// One crash/restart drill, substrate-blind: within the budget (`t = 1`)
/// operations complete, one crash beyond it they time out cleanly
/// (what the kv store reports as `Incomplete`), and restarting an object
/// brings the quorum — and completion — back.
fn crash_restart_drill<S: ReplySink<Rep>>(
    sys: &mut StorageSystem,
    transport: &dyn Transport<Req, Rep>,
    host: &ObjectHost<Req, Rep, S>,
) {
    let mut client = ThreadClient::new(ClientId::reader(0));
    let mut write = |v: u64, timeout| {
        client
            .run_op(transport, sys.write_client(Value::from_u64(v)), timeout)
            .is_some()
    };
    assert!(write(1, TIMEOUT), "a healthy cluster completes");
    host.crash(ObjectId(3));
    assert!(write(2, TIMEOUT), "one crash is within budget");
    host.crash(ObjectId(2));
    assert!(
        !write(3, Duration::from_millis(150)),
        "beyond budget: no quorum, clean timeout"
    );
    host.restart(ObjectId(2), Box::new(HonestObject::new()));
    assert!(
        write(4, TIMEOUT),
        "the restarted object restores the quorum"
    );
    let (out, _) = client
        .run_op(transport, sys.read_client(0), TIMEOUT)
        .expect("reads complete again too");
    assert_eq!(out.into_read().expect("read").val, Value::from_u64(4));
}

/// Crash and restart mean the same thing in process and behind a socket:
/// the same drill, over `&dyn Transport`, passes on both substrates.
#[test]
fn crash_and_restart_mean_the_same_on_both_substrates() {
    let mut sys = StorageSystem::new(Protocol::AtomicUnauth, 1, 1).expect("valid shape");
    let cluster = sys.spawn_thread_cluster(None);
    crash_restart_drill(&mut sys, &cluster, cluster.host());

    let mut sys = StorageSystem::new(Protocol::AtomicUnauth, 1, 1).expect("valid shape");
    let harness = sys.spawn_net_cluster(None).expect("net deploy");
    crash_restart_drill(&mut sys, &harness.cluster, harness.server.host());
}

/// A cluster split across two servers (two objects each) still forms its
/// quorums: the cluster-global object-id space spans listeners.
#[test]
fn one_cluster_can_span_multiple_servers() {
    let mut sys = StorageSystem::new(Protocol::AtomicUnauth, 1, 1).expect("valid shape");
    let honest = |n: usize| {
        (0..n)
            .map(|_| Box::new(rastor_core::HonestObject::new()) as _)
            .collect::<Vec<_>>()
    };
    let server_a = ObjectServer::spawn(honest(2), 0, None).expect("server a");
    let server_b = ObjectServer::spawn(honest(2), 2, None).expect("server b");
    assert_eq!(
        (server_a.host().first_id(), server_b.host().first_id()),
        (0, 2)
    );
    let cluster =
        NetCluster::connect(&[server_a.local_addr(), server_b.local_addr()]).expect("connect");
    assert_eq!(cluster.num_connections(), 2);
    let mut client = ThreadClient::new(ClientId::reader(0));
    let (_, rounds) = client
        .run_op(&cluster, sys.write_client(Value::from_u64(5)), TIMEOUT)
        .expect("write across two servers");
    assert_eq!(rounds, 2);
    let (out, _) = client
        .run_op(&cluster, sys.read_client(0), TIMEOUT)
        .expect("read across two servers");
    assert_eq!(out.into_read().expect("read").val, Value::from_u64(5));
}

/// The kv store over remote shards: puts and gets from two handles, with
/// crash injection at a server, behave exactly like the local store.
#[test]
fn net_kv_roundtrips_and_survives_a_server_side_crash() {
    let kv = NetKv::spawn(StoreConfig::new(1, 2, 2), None).expect("net kv");
    {
        let mut h0 = kv.store.handle(0).expect("handle 0");
        let mut h1 = kv.store.handle(1).expect("handle 1");
        for i in 0..8u64 {
            h0.put(&format!("k{i}"), Value::from_u64(i + 1))
                .expect("put");
        }
        for i in 0..8u64 {
            assert_eq!(
                h1.get(&format!("k{i}")).expect("get"),
                Some(Value::from_u64(i + 1))
            );
        }
    }
    // One crash per shard, at the servers (the store cannot reach in).
    for server in &kv.servers {
        server.host().crash(ObjectId(0));
    }
    let mut h = kv.store.handle(0).expect("handle");
    for i in 0..8u64 {
        assert_eq!(
            h.get(&format!("k{i}")).expect("get after crashes"),
            Some(Value::from_u64(i + 1))
        );
    }
}

/// crash_object on a remote shard is a contract violation, not a silent
/// no-op.
#[test]
#[should_panic(expected = "server-side")]
fn client_side_crash_injection_on_remote_shards_panics() {
    let kv = NetKv::spawn(StoreConfig::new(1, 1, 1), None).expect("net kv");
    kv.store.crash_object(0, ObjectId(0));
}

/// Drops and reordering on the link cannot break safety: operations
/// either complete correctly or time out, and completed writes stay
/// readable.
#[test]
fn lossy_reordering_link_degrades_but_never_corrupts() {
    // `RASTOR_SEED=<printed> cargo test ...` reproduces the fault draw.
    let seed = rastor_common::test_seed(0xC0FFEE);
    eprintln!("RASTOR_SEED={seed:#x}");
    let chaos = ChaosCfg::delay_only(Duration::from_micros(100))
        .with_drops(0.04)
        .with_reordering(0.10)
        .with_seed(seed);
    let dropped = || Registry::global().counter_value(names::CHAOS_FRAMES_DROPPED);
    let dropped_before = dropped();
    let kv = NetKv::spawn(StoreConfig::new(1, 1, 1), Some(chaos)).expect("net kv");
    let mut h = kv.store.handle(0).expect("handle");
    h.set_timeout(Duration::from_millis(400));
    let mut attempted = Vec::new();
    let mut committed = Vec::new();
    for i in 0..12u64 {
        let key = format!("lossy:{}", i % 3);
        attempted.push((key.clone(), i + 1));
        if h.put(&key, Value::from_u64(i + 1)).is_ok() {
            committed.push((key, i + 1));
        }
    }
    assert!(
        !committed.is_empty(),
        "a 4%-loss link must let some quorums through"
    );
    // Safety under loss: a read returns a genuine value (something this
    // writer actually sent — a timed-out put may still have landed, which
    // is the usual "incomplete writes can linearize" rule) that is no
    // older than the newest *committed* put of its key. A dropped frame
    // can time a read out; retry until one completes.
    h.set_timeout(Duration::from_millis(1500));
    for key in ["lossy:0", "lossy:1", "lossy:2"] {
        let Some(newest_committed) = committed
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .max()
        else {
            continue; // no committed put of this key to pin the read down
        };
        let got = loop {
            match h.get(key) {
                Ok(v) => break v.expect("committed key present"),
                Err(_) => continue,
            }
        };
        let got = got.as_u64().expect("u64 values");
        assert!(
            attempted.iter().any(|(k, v)| k == key && *v == got),
            "{key}: read fabricated value {got}"
        );
        assert!(
            got >= newest_committed,
            "{key}: read {got}, older than committed {newest_committed}"
        );
    }
    drop(h);
    // The only test of this binary that drops: the delta is its own.
    assert!(dropped() > dropped_before, "the profile dropped nothing");
}

/// Satellite: version negotiation on a live connection. A well-framed
/// envelope from one protocol version in the future gets a
/// `VersionMismatch` reply instead of a dropped connection, and the same
/// stream keeps serving current-version requests afterwards — the
/// reactor split the foreign frame off whole, so the frame boundary
/// never slipped.
#[test]
fn future_version_frame_gets_a_mismatch_reply_and_the_connection_survives() {
    use rastor_common::RegId;
    use rastor_core::msg::Req;
    use rastor_net::wire::{self, Frame, ReqEnvelope, WireReqFrame, WIRE_VERSION};
    use std::io::Write as _;
    use std::net::TcpStream;

    let server = ObjectServer::spawn(
        vec![Box::new(rastor_core::HonestObject::new()) as _],
        0,
        None,
    )
    .expect("server");
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_nodelay(true).expect("nodelay");

    let req = Frame::Req(ReqEnvelope {
        from: ClientId::reader(7),
        frames: vec![WireReqFrame {
            op_nonce: 1,
            round: 1,
            trace: 0,
            req: Req::Collect {
                regs: vec![RegId::WRITER],
            },
        }],
    });

    let mut from_the_future = wire::encode_frame(&req);
    from_the_future[2] = WIRE_VERSION + 1;
    // The mismatch reply echoes the refused body's first 8 bytes as the
    // correlation id — for a data envelope that is just whatever the
    // body happens to start with, but the echo contract is unconditional.
    let expected_corr = u64::from_le_bytes(from_the_future[8..16].try_into().expect("8 bytes"));
    conn.write_all(&from_the_future).expect("send future frame");
    conn.flush().expect("flush");
    assert_eq!(
        wire::read_frame(&mut conn).expect("mismatch reply"),
        Frame::VersionMismatch {
            got: WIRE_VERSION + 1,
            want: WIRE_VERSION,
            corr: expected_corr,
        },
    );

    wire::write_frame(&mut conn, &req).expect("send current frame");
    match wire::read_frame(&mut conn).expect("served reply") {
        Frame::Rep(env) => {
            assert_eq!(env.to, ClientId::reader(7));
            assert_eq!(env.from, ObjectId(0));
            assert_eq!(env.frames.len(), 1, "one collect, one reply frame");
        }
        other => panic!("expected a reply envelope, got {other:?}"),
    }
}

/// A partition stalls everything into clean timeouts; healing it restores
/// service on the same connections.
#[test]
fn partition_heals_without_reconnecting() {
    let kv = NetKv::spawn(StoreConfig::new(1, 1, 1), None).expect("net kv");
    let mut h = kv.store.handle(0).expect("handle");
    h.put("stable", Value::from_u64(1))
        .expect("pre-partition put");

    kv.servers[0].host().set_partitioned(true);
    let mut status = ControlClient::connect(kv.addr(0)).expect("control connect");
    let objects = status.status().expect("a cut shard still answers status");
    assert!(objects.iter().all(|o| !o.crashed), "a cut is not a crash");
    h.set_timeout(Duration::from_millis(150));
    assert!(
        h.get("stable").is_err(),
        "a fully partitioned shard cannot serve a quorum"
    );

    kv.servers[0].host().set_partitioned(false);
    h.set_timeout(Duration::from_secs(10));
    assert_eq!(
        h.get("stable").expect("post-heal get"),
        Some(Value::from_u64(1))
    );
    h.put("stable", Value::from_u64(2)).expect("post-heal put");
    assert_eq!(h.get("stable").expect("get"), Some(Value::from_u64(2)));
}
