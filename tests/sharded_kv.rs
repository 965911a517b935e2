//! Atomicity soak for the sharded kv store: concurrent put/get traffic
//! from a pool of handles across ≥ 4 shards, with object-side jitter and
//! one crashed object per shard, funneled through the paper's atomicity
//! checker (`checker::check_atomic`) per key.
//!
//! Every key's register group is independent, so per-key linearizability
//! is exactly what the construction promises — and exactly what the
//! checker verifies: genuine values, freshness after completed writes, no
//! reads from the future, no new/old inversion.

mod common;

use common::{assert_clean, assert_final_reads_see_newest_writes};
use rastor::common::{ClientId, ObjectId, Value};
use rastor::core::adversary::SilentObject;
use rastor::core::{codec, FaultKind, HonestObject, Rep, Req};
use rastor::kv::workload::{self, Mix};
use rastor::kv::{ShardedKvStore, StoreConfig};
use rastor::sim::ObjectBehavior;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SHARDS: usize = 4;
const HANDLES: u32 = 4;
const KEYS: u32 = 6;
const OPS_PER_HANDLE: u64 = 20;

fn soak(seed: u64) -> Mix {
    Mix {
        seed,
        ..Mix::mixed(HANDLES, KEYS, OPS_PER_HANDLE)
    }
}

#[test]
fn concurrent_sharded_traffic_is_atomic_per_key() {
    let store = ShardedKvStore::spawn(
        StoreConfig::new(1, SHARDS, HANDLES).with_jitter(Duration::from_micros(300)),
    )
    .expect("valid store");

    // Exercise the full fault budget: one crashed object in every shard.
    for s in 0..SHARDS {
        store.crash_object(s, ObjectId((s % 4) as u32));
    }

    let run = workload::start(&store, &soak(0x50a_c0de)).join();
    assert_clean(&run, "concurrent traffic");
    // The traffic must actually have exercised contention and the router.
    let (puts, gets) = run.latencies_us();
    assert!(!puts.is_empty() && !gets.is_empty());
    assert_eq!(store.num_keys(), KEYS as usize);

    assert_final_reads_see_newest_writes(&store, &run);
}

/// `t` forgers at the lowest id, on a store without jitter: every envelope
/// is served on the submitting client's thread, and if the host always
/// started its fan-out at the first object, the forger would answer first
/// every round and an honest object last — its replies dropped as late,
/// so no read could ever rule the forgery out. Every op must complete.
#[test]
fn a_forger_at_the_first_id_does_not_starve_a_store_without_jitter() {
    let store = ShardedKvStore::spawn_with(StoreConfig::new(1, 1, 2), |_, id| {
        (id == ObjectId(0)).then(|| FaultKind::ForgeHigh.materialize())
    })
    .expect("valid store");
    let mix = Mix {
        timeout: Duration::from_secs(2),
        ..Mix::mixed(2, 2, 8)
    };
    let run = workload::start(&store, &mix).join();
    assert_clean(&run, "a forger answering first");
}

/// The pipelined variant of the soak: every handle keeps `depth` operations
/// in flight through submit/poll, under object jitter, with the full fault
/// budget spent — crashes on even shards, silent-Byzantine objects on odd
/// shards.
#[test]
fn pipelined_sharded_traffic_is_atomic_per_key() {
    let store = ShardedKvStore::spawn_with(
        StoreConfig::new(1, SHARDS, HANDLES).with_jitter(Duration::from_micros(300)),
        // Odd shards spend their budget on a silent-Byzantine object.
        |shard, oid| (shard % 2 == 1 && oid == ObjectId(1)).then(|| Box::new(SilentObject) as _),
    )
    .expect("valid store");
    // Even shards spend theirs on a crash.
    for s in (0..SHARDS).step_by(2) {
        store.crash_object(s, ObjectId(3));
    }

    let mix = Mix {
        depth: 4,
        ..soak(0x9090_c0de)
    };
    let run = workload::start(&store, &mix).join();
    assert_clean(&run, "pipelined traffic");
}

/// The kill-and-restart soak: WAL-backed shards, concurrent put/get
/// traffic, and every shard's top object killed **and recovered from
/// disk** mid-traffic — then `check_atomic` per key, plus a quorum
/// reshaped to *force* the restarted objects onto the read path, proving
/// they truly rejoined with their pre-kill state.
#[test]
fn kill_and_restart_soak_is_atomic_per_key() {
    let data_dir = rastor::store::TempDir::new("sharded-restart-soak");
    let store = ShardedKvStore::spawn(
        StoreConfig::new(1, SHARDS, HANDLES)
            .with_jitter(Duration::from_micros(300))
            .with_wal(data_dir.path()),
    )
    .expect("valid wal-backed store");

    let running = workload::start(&store, &soak(0x00e5_7a27));

    // Mid-traffic: kill-and-restart the top object of every shard, one
    // after another. Each restart is a full kill (thread joined) followed
    // by recovery from snapshot + WAL; while one is down its shard runs on
    // the remaining quorum.
    std::thread::sleep(Duration::from_millis(5));
    for s in 0..SHARDS {
        let elapsed = store
            .restart_object(s, ObjectId(3))
            .expect("restart within a recoverable store");
        assert!(elapsed > Duration::ZERO);
        std::thread::sleep(Duration::from_millis(3));
    }

    let run = running.join();
    assert_clean(&run, "across kill-and-restart");

    // Force the restarted objects onto the read path: crash a *different*
    // object in every shard, so each quorum of 3-of-4 must now include the
    // recovered one. Reads still return at least the newest completed
    // write — impossible unless recovery preserved the registers.
    for s in 0..SHARDS {
        store.crash_object(s, ObjectId(0));
    }
    assert_final_reads_see_newest_writes(&store, &run);
}

#[test]
fn keys_spread_and_survive_per_shard_crashes() {
    let store = ShardedKvStore::spawn(StoreConfig::new(1, SHARDS, 2)).expect("valid store");
    let mut h = store.handle(0).expect("handle");
    let mut per_shard: HashMap<usize, usize> = HashMap::new();
    for i in 0..24u64 {
        let key = format!("spread:{i}");
        h.put(&key, Value::from_u64(i)).expect("put");
        *per_shard.entry(store.shard_of(&key)).or_default() += 1;
    }
    assert!(
        per_shard.len() >= 3,
        "24 keys should land on most of the {SHARDS} shards: {per_shard:?}"
    );
    for s in 0..SHARDS {
        store.crash_object(s, ObjectId(3));
    }
    let mut h2 = store.handle(1).expect("handle");
    for i in 0..24u64 {
        assert_eq!(
            h2.get(&format!("spread:{i}")).expect("get after crashes"),
            Some(Value::from_u64(i))
        );
    }
}

/// An honest object that notes the encoded size of each collect reply it
/// sends.
struct Measured {
    inner: HonestObject,
    last_views_len: Arc<AtomicUsize>,
}

impl ObjectBehavior<Req, Rep> for Measured {
    fn on_request(&mut self, _from: ClientId, req: &Req) -> Option<Rep> {
        let rep = self.inner.apply(req);
        if matches!(rep, Rep::Views { .. }) {
            let mut frame = Vec::new();
            codec::encode_rep(&rep, &mut frame);
            self.last_views_len.store(frame.len(), Ordering::Relaxed);
        }
        Some(rep)
    }
}

/// The bound itself: an object keeps a register's two newest pairs, so the
/// reply to a collect over a key's group is as large after a thousand puts
/// as after four — and hot keys under contention stay atomic.
#[test]
fn replies_do_not_grow_with_the_number_of_puts() {
    let last_views_len = Arc::new(AtomicUsize::new(0));
    let store = ShardedKvStore::spawn_with(StoreConfig::new(1, 1, 2), |_, oid| {
        (oid == ObjectId(0)).then(|| {
            Box::new(Measured {
                inner: HonestObject::new(),
                last_views_len: Arc::clone(&last_views_len),
            }) as _
        })
    })
    .expect("valid store");
    let mut a = store.handle(0).expect("handle");
    let mut b = store.handle(1).expect("handle");
    let mut puts = 0u64;
    // Alternate puts until each handle has done `each`, then read: the
    // read's collect names every register of the key's group.
    let mut group_reply_len_after = |each: u64| {
        while puts < 2 * each {
            for handle in [&mut a, &mut b] {
                puts += 1;
                handle.put("hot", Value::from_u64(puts)).expect("put");
            }
        }
        assert_eq!(a.get("hot").expect("get"), Some(Value::from_u64(puts)));
        last_views_len.load(Ordering::Relaxed)
    };
    let after_4 = group_reply_len_after(2);
    let after_1000 = group_reply_len_after(500);
    // Never-forgetting objects sent ~21 bytes more per put here.
    assert!(
        after_4 > 0 && after_1000 <= after_4 + 128,
        "a group's collect reply grew from {after_4} bytes after 4 puts to {after_1000} after 1000"
    );

    let store = ShardedKvStore::spawn(StoreConfig::new(1, SHARDS, HANDLES)).expect("valid store");
    let contended = Mix {
        put_pct: 90,
        depth: 4,
        seed: 0xb0_0bed,
        ..Mix::mixed(HANDLES, 4, 150)
    };
    assert_clean(&workload::start(&store, &contended).join(), "hot keys");
}
