//! # rastor-net
//!
//! The TCP transport subsystem: the same protocol automata that run in the
//! simulator and on the thread runtime, now over real sockets — without a
//! single protocol-level change.
//!
//! Three layers:
//!
//! * [`wire`] — dependency-free, versioned, length-prefixed frames: the
//!   thread runtime's own request and reply envelopes around
//!   [`rastor_core::codec`]'s `Req`/`Rep` bodies, and the control plane.
//!   Malformed bytes decode to errors, never panics: a Byzantine peer owns
//!   what it sends us.
//! * [`reactor`] — a hand-rolled Linux `poll(2)` readiness loop (no
//!   external event library): a small fixed pool of worker threads multiplexes
//!   every connection of an endpoint, with per-connection partial-read
//!   reassembly over the [`wire`] framing and bounded write-backpressure
//!   queues. Every socket endpoint below is an [`reactor::Events`]
//!   handler on this loop.
//! * [`server`] / [`client`] — the socket substrate.
//!   [`ObjectServer`] puts a listener in front of a
//!   [`rastor_sim::host::ObjectHost`] — the same host an in-process
//!   [`rastor_sim::runtime::ThreadCluster`] feeds, so behaviors, the
//!   adversary's verdicts on each object copy (link faults and jitter are
//!   the stock controller [`ChaosCfg`]), crash, restart and partitions are
//!   one implementation; [`NetCluster`] is the client
//!   endpoint, implementing the same
//!   [`Transport`](rastor_sim::runtime::Transport) trait as the in-process
//!   channel substrate, so [`rastor_sim::runtime::ThreadClient`] and the
//!   sharded kv store drive it unchanged.
//!
//! [`deploy`] glues the layers to the higher-level entry points: a
//! [`StorageSystem`](rastor_core::StorageSystem) extension for
//! single-cluster harness runs over sockets, [`spawn_servers`] for one
//! server per shard, and [`NetKv`] for a
//! [`ShardedKvStore`](rastor_kv::ShardedKvStore) whose shards live behind
//! TCP (optionally under a link-fault profile).
//!
//! [`ops`] is the control plane on the same frames: [`ControlClient`]
//! makes correlation-keyed status/metrics/admin round trips to one
//! server, and each [`ObjectServer`] answers them in-band — the `rastor`
//! CLI's admin verbs included, for the shard the server hosts.
//!
//! ```no_run
//! use rastor_net::deploy::NetKv;
//! use rastor_kv::StoreConfig;
//! use rastor_common::Value;
//!
//! // Two shards of socket-backed objects, one TCP connection set per shard.
//! let mut kv = NetKv::spawn(StoreConfig::new(1, 2, 2), None)?;
//! let mut h = kv.store.handle(0)?;
//! h.put("user:42", Value::from_bytes(*b"alice"))?;
//! assert_eq!(h.get("user:42")?.unwrap().as_bytes(), b"alice");
//! # Ok::<(), rastor_common::Error>(())
//! ```

// `deny`, not `forbid`: the reactor's poll(2) FFI shim is this crate's one
// narrowly-scoped `#[allow(unsafe_code)]` island (the workspace's others
// are `rastor_store`'s dispatch into its CRC-32 folding kernel and its
// `renameat2(2)` binding).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod deploy;
pub mod ops;
pub mod reactor;
pub mod server;
pub mod wire;

pub use client::NetCluster;
pub use deploy::{spawn_servers, NetDeploy, NetHarness, NetKv};
pub use ops::{AdminOutcome, ControlClient};
pub use rastor_sim::ChaosCfg;
pub use reactor::{ConnHandle, Events, Reactor, ReactorHandle};
pub use server::ObjectServer;
