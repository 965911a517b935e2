//! # rastor-kv
//!
//! A multi-key key-value store built on the paper's robust atomic
//! registers — the "cloud key-value storage" motivation from the paper's
//! introduction ("its read/write API … is today the heart of modern cloud
//! key-value storage APIs").
//!
//! The store is a **sharded, pipelined throughput engine**: a
//! consistent-hash [`ShardRouter`] spreads keys across `N` independent
//! `3t + 1` object clusters, and a pool of [`KvHandle`]s serves puts and
//! gets from as many OS threads as the caller wants. Every key is backed
//! by its own multi-writer register group (one writer register per handle
//! plus one write-back register per handle), multiplexed over its shard's
//! objects. `put` runs the 4-round multi-writer write (2-round tag
//! collect, then the 2-round pre-write/commit); `get` runs the 4-round
//! atomic read
//! (transformation of the paper's Section 5). Because each key's registers
//! are independent, per-key linearizability follows directly from the
//! register construction; cross-shard scaling follows because shards share
//! nothing.
//!
//! Each handle is additionally a **pipelined connection**: it multiplexes
//! up to a configurable `depth` of concurrent operation automata over one
//! reply channel (the shared op driver of `rastor_sim::driver`), and
//! batches destined for one shard share round trips via coalesced
//! envelopes — so throughput scales with shard capacity instead of being
//! capped at `1 / op-latency` per handle. See [`KvHandle::put_batch`],
//! [`KvHandle::get_batch`] and the [`KvHandle::submit_put`] /
//! [`KvHandle::submit_get`] / [`KvHandle::poll`] interface. The blocking
//! [`KvHandle::put`] / [`KvHandle::get`] / [`KvHandle::get_pair`] are
//! one-element calls into the same pipeline; the one rule for mixing the
//! two styles is on the handle:
//! [Mixing blocking calls with the pipeline](KvHandle#mixing-blocking-calls-with-the-pipeline).
//!
//! [`workload`] is the one way to put traffic on a store and judge what
//! came back: a seeded put/get [`workload::Mix`], started, joined into a
//! [`workload::Run`] of per-operation records, folded into per-key
//! histories and one `rastor_core::checker::judge` verdict. Soak tests,
//! the TCP chaos search and `rastor bench` all drive it.
//!
//! Shards are reached through `rastor_sim`'s `Transport`: spawned in this
//! process ([`ShardedKvStore::spawn`]) or connected over any other
//! substrate ([`ShardedKvStore::over_transports`]) — the store's routing,
//! register-group and pipelining machinery is the same either way.
//!
//! ```
//! use rastor_kv::{ShardedKvStore, StoreConfig};
//! use rastor_common::Value;
//!
//! // One shard of 3t + 1 = 4 objects, two client handles.
//! let store = ShardedKvStore::spawn(StoreConfig::new(1, 1, 2))?;
//! let (mut writer, mut reader) = (store.handle(0)?, store.handle(1)?);
//! writer.put("user:42", Value::from_bytes(*b"alice"))?;
//! assert_eq!(reader.get("user:42")?.unwrap().as_bytes(), b"alice");
//! assert_eq!(reader.get("user:43")?, None);
//! # Ok::<(), rastor_common::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod directory;
mod handle;
mod router;
mod store;
pub mod workload;

pub use config::{StoreConfig, DEFAULT_DEPTH};
pub use handle::{KvHandle, KvOpId, KvOutput};
pub use router::ShardRouter;
pub use store::{restart_from_disk, ShardedKvStore};
