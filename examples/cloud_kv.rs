//! The paper's motivating scenario: a cloud key-value store whose backend
//! objects are outsourced and hence untrusted. Every `put` is a 4-round
//! multi-writer robust write (2-round tag collect + 2-round pre-write and
//! commit); every `get` a 4-round atomic read. The store keeps serving —
//! with unchanged results — after `t` backend objects crash.
//!
//! Runs over real OS threads (the thread runtime), not the simulator: one
//! shard, one writing handle, two reading handles. For the sharded,
//! multi-threaded variant see `examples/sharded_kv.rs`.
//!
//! Run with: `cargo run --example cloud_kv`

use rastor::common::{ObjectId, Value};
use rastor::kv::{ShardedKvStore, StoreConfig};

fn main() {
    let t = 1;
    let store = ShardedKvStore::spawn(StoreConfig::new(t, 1, 3)).expect("valid fault budget");
    let mut writer = store.handle(0).unwrap();
    let mut readers = [store.handle(1).unwrap(), store.handle(2).unwrap()];
    println!(
        "cloud kv-store up: {} (each key = one MWMR register group, 4-round atomic gets)",
        store.config()
    );

    // A small user-profile workload.
    let profiles = [
        ("user:1/name", "alice"),
        ("user:1/plan", "pro"),
        ("user:2/name", "bob"),
        ("user:2/plan", "free"),
    ];
    for (k, v) in profiles {
        writer
            .put(k, Value::from_bytes(v.as_bytes().to_vec()))
            .unwrap();
    }
    println!("wrote {} keys", store.num_keys());

    // Reads through two independent reader handles.
    for (k, expect) in profiles {
        let got = readers[0].get(k).unwrap().expect("key present");
        assert_eq!(got.as_bytes(), expect.as_bytes());
    }
    println!("reader 0 sees all writes");

    // Update a key, then lose a backend object — within the fault budget,
    // nothing changes for clients.
    writer
        .put("user:2/plan", Value::from_bytes(*b"pro"))
        .unwrap();
    store.crash_object(0, ObjectId(3));
    println!("object s3 crashed (budget t = {t})");

    let plan = readers[1].get("user:2/plan").unwrap().unwrap();
    assert_eq!(plan.as_bytes(), b"pro");
    println!("reader 1 still reads the latest value: user:2/plan = \"pro\"");

    // New writes keep working too.
    writer
        .put("user:3/name", Value::from_bytes(*b"carol"))
        .unwrap();
    assert_eq!(
        readers[0].get("user:3/name").unwrap().unwrap().as_bytes(),
        b"carol"
    );
    println!("writes after the crash succeed: cloud kv OK");
}
