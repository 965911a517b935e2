//! The four workloads and the seeded operation generator.
//!
//! The program under test sees only the generated operations: which key,
//! put or get, and the value bytes. Everything here derives from `--seed`.

use rastor_common::{SplitMix64, Value};

/// What a shard's objects run on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Substrate {
    /// `ShardedKvStore::spawn`, in-memory objects on object threads.
    Mem,
    /// `NetKv::spawn`: objects behind loopback TCP listeners, one
    /// connection per shard.
    Tcp,
    /// In-process, `WalBacked::new(dir)` with the crate defaults
    /// (fsync off, snapshot every 1024 mutations).
    Wal,
}

/// One workload: names are final, later issues cite them.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Why it exists — which layers it loads and which it leaves idle.
    pub why: &'static str,
    pub substrate: Substrate,
    pub keys: u32,
    pub value_bytes: usize,
    pub put_pct: u32,
    /// Client threads (= kv handles): every caller waits for its reply,
    /// so this is a closed loop with this many clients.
    pub threads: u32,
    /// Keys `0..hot_keys` are the hot set, `hot_pct` percent of the
    /// traffic goes to it; `hot_pct` 0 = uniform.
    pub hot_keys: u32,
    pub hot_pct: u32,
    /// One `SilentObject` per shard: every remaining reply is
    /// quorum-critical.
    pub silent_object: bool,
}

/// Shards in every workload.
pub const SHARDS: usize = 2;
/// Fault budget in every workload: `3t + 1 = 4` objects per shard.
pub const T: usize = 1;
/// Pipeline depth of warm-up and the saturation phase.
pub const SAT_DEPTH: usize = 16;
/// Windows the saturation phase is cut into.
pub const WINDOWS: usize = 10;
/// Keys the verification pass confines itself to.
pub const VERIFY_KEYS: u32 = 64;

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "mem-get90",
        why: "kv+core+sim do all the work on the 2-round fast-read path; net and store idle, so a gain there must show nothing here",
        substrate: Substrate::Mem,
        keys: 8192,
        value_bytes: 64,
        put_pct: 10,
        threads: 1,
        hot_keys: 0,
        hot_pct: 0,
        silent_object: false,
    },
    Spec {
        name: "mem-put90-hot-byz",
        why: "same layers used the other way: two writers interleaved on one CPU, 205 hot keys, fast-path fallbacks, one silent object per shard so no quorum slack",
        substrate: Substrate::Mem,
        // The issue's 2048 keys preload in 0.14 s; it also wants `setup_s`
        // no shorter than 0.5 s. Four times the keys meet that, and the hot
        // set keeps the issue's size (a tenth of 2048), so the contention
        // is the one it specified.
        keys: 8192,
        value_bytes: 64,
        put_pct: 90,
        threads: 2,
        hot_keys: 205,
        hot_pct: 90,
        silent_object: true,
    },
    Spec {
        name: "tcp-mix50",
        why: "net (wire codec, reactor, server executor) dominates over loopback TCP with 1 KiB values; store idle",
        substrate: Substrate::Tcp,
        keys: 4096,
        value_bytes: 1024,
        put_pct: 50,
        threads: 1,
        hot_keys: 0,
        hot_pct: 0,
        silent_object: false,
    },
    Spec {
        name: "wal-put90",
        why: "store (WAL append, snapshot compaction) dominates with 1 KiB values and fsync off; net idle",
        substrate: Substrate::Wal,
        keys: 4096,
        value_bytes: 1024,
        put_pct: 90,
        threads: 1,
        hot_keys: 0,
        hot_pct: 0,
        silent_object: false,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    Put,
    Get,
}

/// One generated operation. `stamp` is unique per `(thread, op)` so the
/// atomicity checker can tell every written value apart.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Op {
    pub kind: OpKind,
    pub key: u32,
    pub stamp: u64,
}

/// The seeded, endless operation stream of one client thread.
#[derive(Clone, Debug)]
pub struct OpStream {
    rng: SplitMix64,
    thread: u32,
    next_seq: u64,
    put_pct: u32,
    hot_keys: u32,
    hot_pct: u32,
    keys: u32,
}

impl OpStream {
    pub fn new(spec: &Spec, seed: u64, thread: u32) -> OpStream {
        OpStream {
            // Distinct, seed-derived streams per thread.
            rng: SplitMix64::new(rastor_common::splitmix64(seed) ^ u64::from(thread) << 32),
            thread,
            next_seq: 1,
            put_pct: spec.put_pct,
            hot_keys: spec.hot_keys,
            hot_pct: spec.hot_pct,
            keys: spec.keys,
        }
    }

    /// The next operation over the workload's whole key space.
    pub fn next_op(&mut self) -> Op {
        let keys = self.keys;
        self.next_in(keys)
    }

    /// The next operation of the same mix, confined to keys `0..keys`
    /// (the verification pass; on a hot workload its keys are all hot,
    /// and drawn uniformly).
    pub fn next_in(&mut self, keys: u32) -> Op {
        let kind = if self.rng.next_u64() % 100 < u64::from(self.put_pct) {
            OpKind::Put
        } else {
            OpKind::Get
        };
        let hot = self.hot_keys;
        let r = self.rng.next_u64();
        let key = if self.hot_pct > 0 && keys > hot {
            if r % 100 < u64::from(self.hot_pct) {
                (r >> 8) % u64::from(hot)
            } else {
                u64::from(hot) + (r >> 8) % u64::from(keys - hot)
            }
        } else {
            (r >> 8) % u64::from(keys)
        } as u32;
        let stamp = u64::from(self.thread) << 48 | self.next_seq;
        self.next_seq += 1;
        Op { kind, key, stamp }
    }
}

/// The key string of key id `k`.
pub fn key_name(k: u32) -> String {
    format!("key:{k:06}")
}

/// Bytes of a value that identify it: key id, then stamp.
pub const VALUE_HEADER: usize = 16;

/// Builds values of one workload's size: a 16-byte header (key id,
/// stamp) over seed-derived filler.
pub struct ValueMaker {
    template: Vec<u8>,
}

impl ValueMaker {
    pub fn new(spec: &Spec, seed: u64) -> ValueMaker {
        let mut rng = SplitMix64::new(seed ^ 0x76616c);
        let mut template = vec![0u8; spec.value_bytes.max(VALUE_HEADER)];
        for chunk in template.chunks_mut(8) {
            let bytes = rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        ValueMaker { template }
    }

    pub fn make(&self, key: u32, stamp: u64) -> Value {
        let mut bytes = self.template.clone();
        bytes[..8].copy_from_slice(&u64::from(key).to_be_bytes());
        bytes[8..16].copy_from_slice(&stamp.to_be_bytes());
        Value::from_bytes(bytes)
    }
}

/// `(key id, stamp)` embedded in a value; `None` if it is too short to
/// be one of ours.
pub fn decode_value(v: &Value) -> Option<(u64, u64)> {
    let b = v.as_bytes();
    let key = u64::from_be_bytes(b.get(..8)?.try_into().ok()?);
    let stamp = u64::from_be_bytes(b.get(8..16)?.try_into().ok()?);
    Some((key, stamp))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_identical_op_stream() {
        for spec in &SPECS {
            let mut a = OpStream::new(spec, 42, 0);
            let mut b = OpStream::new(spec, 42, 0);
            let ops_a: Vec<Op> = (0..10_000).map(|_| a.next_op()).collect();
            let ops_b: Vec<Op> = (0..10_000).map(|_| b.next_op()).collect();
            assert_eq!(ops_a, ops_b, "{}", spec.name);
            let mut c = OpStream::new(spec, 43, 0);
            let ops_c: Vec<Op> = (0..10_000).map(|_| c.next_op()).collect();
            assert_ne!(ops_a, ops_c, "{}: another seed, another stream", spec.name);
            let mut d = OpStream::new(spec, 42, 1);
            let ops_d: Vec<Op> = (0..10_000).map(|_| d.next_op()).collect();
            assert_ne!(ops_a, ops_d, "{}: threads draw distinct streams", spec.name);
        }
    }

    #[test]
    fn the_mix_and_the_hot_set_follow_the_spec() {
        for spec in &SPECS {
            let mut s = OpStream::new(spec, 7, 0);
            let n = 100_000;
            let (mut puts, mut hot) = (0u32, 0u32);
            for _ in 0..n {
                let op = s.next_op();
                assert!(op.key < spec.keys);
                puts += u32::from(op.kind == OpKind::Put);
                hot += u32::from(op.key < spec.hot_keys);
            }
            let put_pct = f64::from(puts) * 100.0 / f64::from(n);
            assert!(
                (put_pct - f64::from(spec.put_pct)).abs() < 1.0,
                "{}",
                spec.name
            );
            let hot_pct = f64::from(hot) * 100.0 / f64::from(n);
            assert!(
                (hot_pct - f64::from(spec.hot_pct)).abs() < 1.0,
                "{}: hot {hot_pct}",
                spec.name
            );
        }
    }

    #[test]
    fn stamps_are_unique_and_values_round_trip() {
        let spec = &SPECS[1];
        let mut a = OpStream::new(spec, 1, 0);
        let mut b = OpStream::new(spec, 1, 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(a.next_in(VERIFY_KEYS).stamp));
            assert!(seen.insert(b.next_in(VERIFY_KEYS).stamp));
        }
        for spec in &SPECS {
            let maker = ValueMaker::new(spec, 9);
            let v = maker.make(77, 0xabcdef);
            assert_eq!(v.len(), spec.value_bytes);
            assert_eq!(decode_value(&v), Some((77, 0xabcdef)));
        }
        assert_eq!(decode_value(&Value::from_u64(1)), None);
    }
}
