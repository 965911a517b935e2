//! The kv store over real TCP sockets, end to end in one process: two
//! shards of `3t + 1` storage objects behind loopback `ObjectServer`s, a
//! `ShardedKvStore` connected to them over the wire codec, pipelined
//! batches sharing round trips across the network, a server-side crash
//! inside the fault budget, a partition cut and healed live at a server —
//! and then the same traffic again under a link-fault profile adding
//! delay to every object's copy of every request envelope.
//!
//! Run with: `cargo run --example net_kv`

use rastor::common::{ObjectId, Value};
use rastor::kv::StoreConfig;
use rastor::net::{ChaosCfg, NetKv};
use std::time::{Duration, Instant};

fn main() {
    let (t, shards, handles) = (1, 2, 2u32);

    // --- Plain TCP: servers on loopback, no fault injection -------------
    let kv = NetKv::spawn(StoreConfig::new(t, shards, handles), None)
        .expect("valid fault budget and free loopback ports");
    for (s, server) in kv.servers.iter().enumerate() {
        println!(
            "shard {s}: {} objects behind tcp://{}",
            server.host().num_objects(),
            server.local_addr()
        );
    }

    let mut h = kv.store.handle(0).expect("handle in pool");
    h.set_depth(8);
    let items: Vec<(String, Value)> = (0..24u64)
        .map(|i| (format!("account:{i:02}"), Value::from_u64(1000 + i)))
        .collect();
    let start = Instant::now();
    let tags = h.put_batch(&items).expect("pipelined puts over tcp");
    println!(
        "{} pipelined puts over tcp in {:.2?} (tags minted by writer 0: {})",
        tags.len(),
        start.elapsed(),
        tags.iter().all(|tag| tag.writer == 0),
    );

    // Crash one object per shard — at the servers, where remote faults
    // live. Within each shard's budget, nothing observable changes.
    for server in &kv.servers {
        server.host().crash(ObjectId(3));
    }
    println!("crashed object s3 of every shard (budget t = {t} each)");
    let keys: Vec<String> = items.iter().map(|(k, _)| k.clone()).collect();
    let got = h.get_batch(&keys).expect("batch get after crashes");
    assert!(got.iter().all(|v| v.is_some()), "all keys survive");
    println!("all {} keys readable over tcp after the crashes", got.len());

    // Cut shard 0 off at its server, watch an operation on it fail
    // cleanly, heal the partition, and watch service resume on the same
    // connections.
    let victim = keys
        .iter()
        .find(|k| kv.store.shard_of(k) == 0)
        .expect("some key routes to shard 0");
    kv.servers[0].host().set_partitioned(true);
    h.set_timeout(Duration::from_millis(200));
    let during = h.get(victim);
    kv.servers[0].host().set_partitioned(false);
    h.set_timeout(Duration::from_secs(10));
    let after = h.get(victim).expect("post-heal get");
    println!(
        "partition drill on {victim}: during = {} / after heal = {:?}",
        if during.is_err() {
            "timed out (as it must)"
        } else {
            "served"
        },
        after.expect("key present").as_u64().expect("u64 value"),
    );
    drop(h);

    // --- The same store shape under a slow-link profile -----------------
    let chaos = ChaosCfg::delay_only(Duration::from_micros(300)).with_seed(7);
    let kv = NetKv::spawn(StoreConfig::new(t, shards, handles), Some(chaos))
        .expect("servers on loopback");
    println!("chaos deployment: every request envelope pays ~300-600µs at each object");
    let mut h = kv.store.handle(0).expect("handle");
    h.set_depth(8);
    let start = Instant::now();
    h.put_batch(&items).expect("pipelined puts through chaos");
    println!(
        "{} pipelined puts through the chaos link in {:.2?} (coalescing amortizes the delay)",
        items.len(),
        start.elapsed()
    );
    println!("net kv OK: same registers, real sockets, partition healed, slow link survived");
}
