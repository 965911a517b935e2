//! # rastor-store — durability for storage objects
//!
//! The paper's fault model lets base objects crash *and come back*: a
//! recovered object is correct as long as it still vouches for everything
//! it ever acknowledged. Until this crate, every substrate in the
//! workspace held register state purely in memory, so a killed object was
//! a permanent crash and the "recover and continue" half of the model was
//! unreachable. `rastor_store` supplies the missing piece:
//!
//! * [`wal`] — an append-only, length-prefixed, CRC-per-record write-ahead
//!   log with **torn-tail truncation** on replay, plus atomically renamed
//!   snapshot files — record framing only; the payloads are laid out by
//!   `rastor_core::codec`, the same bytes `rastor_net::wire` carries;
//! * [`DurableObject`] — an honest object that logs every mutation before
//!   acking it and compacts the log into a snapshot of its full
//!   per-register state once the log is as large as that snapshot;
//! * [`Durability`] — the substrate-facing trait, with [`InMemory`]
//!   (today's behavior: kill = permanent crash) and [`WalBacked`]
//!   (kill-then-recover) implementations. Deployments
//!   (`rastor_kv`'s store, `rastor_net`'s `NetKv`) take these via their
//!   configs and gain `restart_object` — crash an object on its
//!   `rastor_sim::host::ObjectHost`, then bring it back from disk with
//!   its timestamps intact.
//!
//! The recovery invariants — why a restarted object may rejoin its quorum
//! as *correct* rather than Byzantine — are spelled out on
//! [`DurableObject`] and in `DESIGN.md`'s recovery-model section.
//!
//! ```
//! use rastor_common::{ClientId, ObjectId, RegId, Timestamp, TsVal, Value};
//! use rastor_core::msg::{Req, Stamped};
//! use rastor_sim::ObjectBehavior;
//! use rastor_store::{DurableObject, TempDir};
//!
//! let dir = TempDir::new("lib-doc");
//! let (mut obj, _) = DurableObject::open(dir.path(), ObjectId(0), 1024)?;
//! obj.on_request(ClientId::writer(), &Req::Commit {
//!     reg: RegId::WRITER,
//!     pair: Stamped::plain(TsVal::new(Timestamp(7), Value::from_u64(42))),
//! });
//! drop(obj); // kill…
//!
//! let (obj, stats) = DurableObject::open(dir.path(), ObjectId(0), 1024)?; // …restart
//! assert_eq!(stats.wal_records, 1);
//! assert_eq!(obj.object().view_of(RegId::WRITER).w.pair.ts, Timestamp(7));
//! # Ok::<(), rastor_common::Error>(())
//! ```

//! ## The one `unsafe` island
//!
//! Every logged and replayed byte goes through [`crc32`], so on x86-64 it
//! runs a carry-less-multiply (`PCLMULQDQ`) folding kernel, about eight
//! times faster than the portable table loop. That kernel is a
//! `#[target_feature]` function, and Rust makes calling one `unsafe`
//! unless the features are known at compile time; `crc::folded` is the
//! single `#[allow(unsafe_code)]` item in the crate, and it makes the call
//! only after `is_x86_feature_detected!` has seen both features on the
//! running CPU. The kernel itself is safe code: blocks are read from
//! slices with `from_le_bytes`, never through a pointer. Anywhere else the
//! portable loop runs.

// `deny`, not `forbid`: the CRC kernel's dispatch is the one
// narrowly-scoped `#[allow(unsafe_code)]` item in this crate.
#![deny(unsafe_code)]
#![deny(missing_docs)]

mod crc;
mod durable;
mod tempdir;
pub mod wal;

pub use crc::crc32;
pub use durable::{
    Durability, DurableObject, InMemory, RecoveryStats, WalBacked, DEFAULT_SNAPSHOT_EVERY,
};
pub use tempdir::TempDir;
