//! Loopback soak for the TCP substrate: a 2-shard `ShardedKvStore` whose
//! shards are real `ObjectServer`s under a link-fault profile drawn per
//! object at their hosts (added delay + jitter on every request copy,
//! plus a drop rate that would have starved ops before client-side
//! resubmission),
//! with one object crashed **server-side** in every shard while traffic
//! is in flight — and every key's history funneled through the paper's
//! atomicity checker.
//!
//! This is the acceptance test of the transport layering: the same
//! register construction that is linearizable over in-process channels
//! must stay linearizable when its rounds cross sockets and a hostile
//! link, because nothing protocol-level changed.

mod common;

use common::{assert_clean, assert_final_reads_see_newest_writes};
use rastor::common::{test_seed, ObjectId, Value};
use rastor::kv::workload::{self, Mix};
use rastor::kv::StoreConfig;
use rastor::net::wire::AdminCmd;
use rastor::net::{ChaosCfg, ControlClient, NetKv};
use std::sync::Barrier;
use std::time::Duration;

const SHARDS: usize = 2;
const HANDLES: u32 = 3;
const KEYS: u32 = 5;
const OPS_PER_HANDLE: u64 = 16;

/// The test's seed: `RASTOR_SEED` when set, else `default`. Printed up
/// front (libtest shows captured output only for failures), so a CI
/// failure reproduces with one `RASTOR_SEED=<printed> cargo test ...`.
fn announced_seed(default: u64) -> u64 {
    let seed = test_seed(default);
    eprintln!("RASTOR_SEED={seed:#x}");
    seed
}

fn soak(seed: u64) -> Mix {
    Mix {
        seed,
        ..Mix::mixed(HANDLES, KEYS, OPS_PER_HANDLE)
    }
}

#[test]
fn sharded_kv_over_tcp_through_chaos_is_atomic_per_key() {
    // A 20% per-copy drop rate is far past what the pre-resubmission
    // substrate tolerated (PR 4 kept soak drops "modest" because one
    // lost frame starved its whole shard-round); with reconnect +
    // resubmission a drop costs a resubmit interval, so the ops must
    // complete inside a deliberately short per-op budget.
    let seed = announced_seed(0xBADCAB);
    let chaos = ChaosCfg::delay_only(Duration::from_micros(200))
        .with_drops(0.20)
        .with_seed(seed);
    let dropped =
        || rastor::obs::Registry::global().counter_value(rastor::obs::names::CHAOS_FRAMES_DROPPED);
    let dropped_before = dropped();
    let kv = NetKv::spawn(
        StoreConfig::new(1, SHARDS, HANDLES).with_jitter(Duration::from_micros(150)),
        Some(chaos),
    )
    .expect("net kv under a link-fault profile");

    // Short per-op budget on purpose: resubmission must absorb the drops
    // well inside it, or the run reports `liveness:` failures.
    let mix = Mix {
        timeout: Duration::from_secs(2),
        ..soak(seed)
    };
    let running = workload::start(&kv.store, &mix);

    // Spend the full fault budget while traffic is in flight: one crashed
    // object per shard, injected at the servers (the client-side store has
    // no reach into a remote shard).
    std::thread::sleep(Duration::from_millis(10));
    for (s, server) in kv.servers.iter().enumerate() {
        server.host().crash(ObjectId((s % 4) as u32));
    }

    let run = running.join();
    assert_clean(&run, "over tcp+chaos");
    let (puts, gets) = run.latencies_us();
    assert!(
        !puts.is_empty() && !gets.is_empty(),
        "mixed traffic expected"
    );
    assert_final_reads_see_newest_writes(&kv.store, &run);
    // The only test of this binary that drops: the delta is its own.
    assert!(dropped() > dropped_before, "the profile dropped nothing");
}

/// The socket-substrate kill-and-restart soak: WAL-backed objects behind
/// real `ObjectServer`s, one object per shard killed **server-side** and
/// recovered from disk while clients stay connected and traffic flows —
/// per-key `check_atomic` after, plus a reshaped quorum forcing the
/// recovered objects onto the read path.
#[test]
fn server_side_restart_mid_traffic_stays_atomic() {
    let seed = announced_seed(0x02e5_7a27);
    let data_dir = rastor::store::TempDir::new("net-restart-soak");
    let kv = NetKv::spawn(
        StoreConfig::new(1, SHARDS, HANDLES)
            .with_jitter(Duration::from_micros(150))
            .with_wal(data_dir.path()),
        None,
    )
    .expect("wal-backed net kv");

    let running = workload::start(&kv.store, &soak(seed));

    // Mid-traffic, server-side: kill + recover the top object of every
    // shard. Clients never reconnect — the server keeps the listener and
    // connections, only the object worker is replaced.
    std::thread::sleep(Duration::from_millis(5));
    for s in 0..SHARDS {
        let elapsed = kv.servers[s]
            .restart_from_disk(ObjectId(3))
            .expect("server-side restart within a recoverable deployment");
        assert!(elapsed > Duration::ZERO);
        std::thread::sleep(Duration::from_millis(3));
    }

    let run = running.join();
    assert_clean(&run, "across server-side restart");

    // Crash a different object per shard: quorums must now include the
    // restarted object, so fresh reads prove its recovered registers.
    for server in kv.servers.iter() {
        server.host().crash(ObjectId(0));
        assert!(server.host().is_crashed(ObjectId(0)));
        assert!(!server.host().is_crashed(ObjectId(3)));
    }
    assert_final_reads_see_newest_writes(&kv.store, &run);
}

/// Admin verbs arrive in-band at the shard they name, from many
/// connections at once: four control clients per shard each restart
/// object 3 ten times while an 80 %-put workload runs. Every restart must
/// succeed, the run must stay clean, and once object 0 of every shard is
/// crashed, quorums must include the restarted object, so fresh reads
/// prove its recovered registers.
#[test]
fn concurrent_restarts_of_one_object_lose_no_acknowledged_write() {
    let seed = announced_seed(0xAD_3157);
    let data_dir = rastor::store::TempDir::new("net-concurrent-restarts");
    let kv = NetKv::spawn(
        StoreConfig::new(1, SHARDS, HANDLES)
            .with_jitter(Duration::from_micros(150))
            .with_wal(data_dir.path()),
        None,
    )
    .expect("wal-backed net kv");
    let mix = Mix {
        put_pct: 80,
        ops_per_handle: 200,
        ..soak(seed)
    };
    let running = workload::start(&kv.store, &mix);

    // Every admin client connects first, then all start at once.
    let start = Barrier::new(4 * SHARDS);
    std::thread::scope(|scope| {
        for shard in 0..SHARDS {
            for _ in 0..4 {
                let (addr, start) = (kv.addr(shard), &start);
                scope.spawn(move || {
                    let mut admin = ControlClient::connect(addr).expect("admin connect");
                    start.wait();
                    for _ in 0..10 {
                        let cmd = AdminCmd::RestartObject {
                            shard: shard as u32,
                            object: 3,
                        };
                        let outcome = admin.admin(cmd).expect("admin round trip");
                        assert!(outcome.ok, "{}", outcome.detail);
                    }
                });
            }
        }
    });

    let run = running.join();
    assert_clean(&run, "across concurrent in-band restarts");
    for server in &kv.servers {
        server.host().crash(ObjectId(0));
    }
    assert_final_reads_see_newest_writes(&kv.store, &run);
}

/// The mid-traffic socket-kill soak: every accepted connection of one
/// shard's server is severed while ops are in flight (twice), and every
/// op still completes — the `NetCluster` redials the dead endpoint and
/// resubmits whatever was pending, so a dead socket costs latency, not
/// an error. Per-key `check_atomic` after, and the resubmission counter
/// must show the recovery path actually ran.
#[test]
fn mid_traffic_socket_kill_completes_all_ops_via_resubmission() {
    let seed = announced_seed(0x5_0c4e7);
    let resub_before =
        rastor::obs::Registry::global().counter_value(rastor::obs::names::NET_RESUBMISSIONS);
    let kv = NetKv::spawn(
        StoreConfig::new(1, SHARDS, HANDLES).with_jitter(Duration::from_micros(100)),
        None,
    )
    .expect("net kv");

    let mix = Mix {
        ops_per_handle: 32,
        timeout: Duration::from_secs(5),
        ..soak(seed)
    };
    let running = workload::start(&kv.store, &mix);

    // Sever shard 0's sockets twice while the ops are in flight. The
    // listener and the objects stay up — only the connections die.
    for pause_ms in [3u64, 9] {
        std::thread::sleep(Duration::from_millis(pause_ms));
        kv.servers[0].drop_connections();
    }

    let run = running.join();
    assert_clean(&run, "across the socket kill");
    let resub_after =
        rastor::obs::Registry::global().counter_value(rastor::obs::names::NET_RESUBMISSIONS);
    assert!(
        resub_after > resub_before,
        "killing live sockets mid-traffic must exercise the resubmission path"
    );
}

/// The pipelined handle API works unchanged over sockets: a depth-4 burst
/// of puts then gets across both shards, under a delay profile, resolving
/// through submit/poll.
#[test]
fn pipelined_batches_flow_over_tcp() {
    let seed = announced_seed(0x9a7c4);
    let kv = NetKv::spawn(
        StoreConfig::new(1, SHARDS, 1),
        Some(ChaosCfg::delay_only(Duration::from_micros(100)).with_seed(seed)),
    )
    .expect("net kv");
    let mut h = kv.store.handle(0).expect("handle");
    h.set_depth(4);
    let items: Vec<(String, Value)> = (0..12u64)
        .map(|i| (format!("pipe:{i}"), Value::from_u64(i + 1)))
        .collect();
    let tags = h.put_batch(&items).expect("batch put over tcp");
    assert_eq!(tags.len(), 12);
    let keys: Vec<String> = items.iter().map(|(k, _)| k.clone()).collect();
    let got = h.get_batch(&keys).expect("batch get over tcp");
    for (i, v) in got.into_iter().enumerate() {
        assert_eq!(v, Some(Value::from_u64(i as u64 + 1)), "key pipe:{i}");
    }
}
