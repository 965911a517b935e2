//! # rastor-net
//!
//! The TCP transport subsystem: the same protocol automata that run in the
//! simulator and on the thread runtime, now over real sockets — without a
//! single protocol-level change.
//!
//! Four layers:
//!
//! * [`wire`] — dependency-free, versioned, length-prefixed frames: the
//!   thread runtime's coalesced envelope shapes around
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
//!   [`rastor_sim::runtime::ThreadCluster`] feeds, so behaviors, jitter,
//!   crash and restart are one implementation; [`NetCluster`] is the client
//!   endpoint, implementing the same
//!   [`Transport`](rastor_sim::runtime::Transport) trait as the in-process
//!   channel substrate, so [`rastor_sim::runtime::ThreadClient`] and the
//!   sharded kv store drive it unchanged.
//! * [`chaos`] — a netem-style, frame-aware TCP relay injecting seeded
//!   delay, jitter, drops, reordering, and partitions per connection: the
//!   scenario diversity only the simulator had, now available to real
//!   deployments.
//!
//! [`deploy`] glues the layers to the higher-level entry points: a
//! [`StorageSystem`](rastor_core::StorageSystem) extension for
//! single-cluster harness runs over sockets, and [`NetKv`] for a
//! [`ShardedKvStore`](rastor_kv::ShardedKvStore) whose shards live behind
//! TCP (optionally through chaos proxies).
//!
//! [`ops`] is the control plane on the same frames: [`ControlClient`]
//! multiplexes correlation-keyed status/metrics/admin round trips over
//! one socket, and [`OpsServer`] executes the `rastor` CLI's admin verbs
//! against a live [`NetKv`].
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
// narrowly-scoped `#[allow(unsafe_code)]` island (the workspace's other is
// `rastor_store`'s dispatch into its CRC-32 folding kernel).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod deploy;
pub mod ops;
pub mod reactor;
pub mod server;
pub mod wire;

pub use chaos::{ChaosCfg, ChaosProxy, ChaosStats};
pub use client::NetCluster;
pub use deploy::{NetDeploy, NetHarness, NetKv};
pub use ops::{AdminOutcome, ControlClient, OpsServer};
pub use reactor::{ConnHandle, Events, Reactor, ReactorHandle};
pub use server::ObjectServer;
