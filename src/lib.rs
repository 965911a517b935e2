//! # rastor — Robust Atomic Storage
//!
//! A reproduction of *"The Complexity of Robust Atomic Storage"* (Dobre,
//! Guerraoui, Majuntke, Suri, Vukolić — PODC 2011): latency-optimal
//! Byzantine-tolerant read/write register emulations plus the paper's
//! lower-bound machinery as executable artifacts.
//!
//! This façade crate re-exports the workspace's public API:
//!
//! * [`common`] — ids, timestamps, values, quorum arithmetic;
//! * [`sim`] — deterministic discrete-event simulator and thread runtime;
//! * [`core`] — the register protocols (ABD, Byzantine regular, secret-token
//!   regular, the regular→atomic transformation), the fault vocabulary
//!   ([`core::FaultKind`]) and the history checker with its one verdict
//!   ([`core::judge`]);
//! * [`lowerbound`] — the executable read/write lower-bound constructions;
//! * [`kv`] — a key-value store built on the atomic registers, and
//!   [`kv::workload`], the one way to drive a store and judge the run;
//! * [`store`] — the durability subsystem: write-ahead log, compacting
//!   snapshots, and kill-then-recover object restarts;
//! * [`net`] — the TCP transport: wire codec, socket-backed clusters, and
//!   the ops plane;
//! * [`obs`] — the observability spine: metrics registry, RRD-style time
//!   rings, and the exported-metric manifest;
//! * [`check`] — the exhaustive schedule explorer.
//!
//! and holds one module of its own: [`exp`], the experiment drivers and
//! table renderer behind the `exp` binary and `tests/round_complexity.rs`.
//!
//! See `examples/` for runnable entry points, `DESIGN.md` for the
//! paper-to-module map, and `docs/OPERATIONS.md` for running a live
//! cluster with the `rastor` CLI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exp;

pub use rastor_check as check;
pub use rastor_common as common;
pub use rastor_core as core;
pub use rastor_kv as kv;
pub use rastor_lowerbound as lowerbound;
pub use rastor_net as net;
pub use rastor_obs as obs;
pub use rastor_sim as sim;
pub use rastor_store as store;
