//! [`DurableObject`]: an [`HonestObject`] whose every mutation hits a
//! write-ahead log before it is acknowledged, with compacting snapshots
//! once the log has grown as large as the snapshot it replaces — and the
//! [`Durability`] trait that lets every substrate
//! (in-process clusters, socket servers, the sharded kv store) pick
//! between today's purely in-memory objects and WAL-backed ones without
//! knowing anything about files.
//!
//! ## The recovery contract
//!
//! *Nothing is acknowledged before it is logged.* `on_request` appends the
//! mutation record (and flushes it to the OS) **before** applying it to
//! the in-memory state and replying; if the append fails, the object
//! returns no reply at all — to the protocol that is indistinguishable
//! from a crash, which is exactly the fault model the quorums already
//! tolerate. A recovered object therefore holds exactly the state — `pw`,
//! `w` and the two newest pairs per register — that its acks had built,
//! which is what lets it rejoin its quorum as a *correct* object rather
//! than a Byzantine one.
//!
//! **Durability scope.** By default the invariant holds against *process
//! kills*: records reach the OS page cache at ack time, so killing the
//! object's thread or its whole process loses nothing, but an OS crash
//! or power loss could still eat an acked tail (making the survivor an
//! amnesiac — i.e. a fault the budget did not agree to fund). Deployments
//! that need to survive power loss enable
//! [`WalBacked::with_fsync`], which pays an `fdatasync` per logged
//! mutation to extend the invariant to stable storage, and syncs each
//! snapshot file and its directory before the log it replaces is reset —
//! else a power loss could keep the reset and lose the snapshot. The
//! policy belongs to the [`Wal`]: set when the log is opened, it covers
//! every log of the scope — an object's, and the auxiliary logs higher
//! layers keep (the kv key directory) — and a log it creates has its
//! header and directory entry synced before anything is acked into it.
//!
//! *Replay is prefix-consistent.* The WAL truncates its torn tail on
//! replay (see [`crate::wal`]), so the recovered state is the state after
//! some prefix of the logged mutations — and because [`HonestObject`]
//! updates are monotone in timestamp order, pairs the object adopted but
//! never acked may be missing without any protocol-visible effect.
//! Replaying records a snapshot already covers changes nothing: `pw`/`w`
//! only move up, and a replayed pair below the two newest is not retained.
//!
//! *Compaction is amortized.* An object writes its full register state
//! and resets its log once both hold: at least `snapshot_every` mutations
//! were logged since the last snapshot, and the log is at least as long as
//! that snapshot's file. The count is a floor for small states;
//! the byte rule makes a snapshot cost no more bytes than the log it
//! replaces, so over any run the snapshot bytes written are at most the
//! log bytes appended plus one snapshot. It also bounds the log, and so
//! recovery: the log never holds more than `snapshot_every` records or the
//! last snapshot's length, whichever is larger, plus one record. The price
//! is disk: compaction frees no blocks (how is [`crate::wal`]'s to say), so
//! an object holds the log's high-water length — the bound above, plus an
//! 8-byte terminator — and two snapshot files, the last and the one before
//! it: about twice the live state, and bounded.
//!
//! *Snapshots are staggered.* The objects of a shard start their
//! `snapshot_every` count out of phase (`snapshot_phase`), so the request
//! that makes one of them compact finds the others answering; the byte
//! rule keeps them apart, since they log the same bytes and hold states of
//! about the same size.
//!
//! *Timestamps survive.* Snapshots and WAL records persist full
//! [`Stamped`](rastor_core::msg::Stamped) pairs (timestamps, values and
//! secret-model tokens), so a recovered object answers collects with the
//! same `(ts, val)` evidence it held before the kill — no rewind, no
//! fresh-epoch renumbering.
//!
//! *One byte layout.* A WAL record's payload is the mutation as
//! [`rastor_core::codec`] encodes a [`Req`]; a snapshot record's payload is
//! one `(register, view)` as it encodes an element of [`Rep::Views`] — the
//! bytes the wire carries. This module decides only *what* is logged:
//! mutations, never collects.

use crate::wal::{read_snapshot, write_snapshot, Wal, FILE_HEADER_LEN, RECORD_HEADER_LEN};
use rastor_common::{ClientId, Error, ObjectId, Result};
use rastor_core::codec::{decode_reg_view, decode_req, encode_reg_view, encode_req};
use rastor_core::msg::{Rep, Req};
use rastor_core::object::HonestObject;
use rastor_sim::ObjectBehavior;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Default floor on the logged mutations between compacting snapshots: an
/// object compacts after at least this many, and not before its log is as
/// large as its last snapshot (see the module docs).
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 1024;

/// What a [`DurableObject::open`] recovery found on disk.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RecoveryStats {
    /// Registers restored from the snapshot (0 if none existed).
    pub snapshot_regs: usize,
    /// WAL mutations replayed on top of the snapshot.
    pub wal_records: u64,
    /// Bytes cut off a torn WAL tail (0 for a clean shutdown).
    pub truncated_bytes: u64,
}

/// Where in its `every`-mutation cycle object `id` starts counting. The
/// objects of one shard log the same mutations in the same order, so from
/// a common start all `3t + 1` of them would compact on the same request
/// and the shard would stop for that many snapshot writes at once; spaced
/// by the golden ratio, any number of ids stay apart, one compacts at a
/// time and the other `3t` are a quorum. Id 0 starts at 0.
fn snapshot_phase(id: ObjectId, every: u64) -> u64 {
    // frac(id / φ) as a 32-bit fixed-point fraction of the cycle.
    let frac = u128::from(id.0.wrapping_mul(0x9E37_79B9));
    ((frac * u128::from(every)) >> 32) as u64
}

fn wal_path(dir: &Path, id: ObjectId) -> PathBuf {
    dir.join(format!("obj-{}.wal", id.0))
}

fn snap_path(dir: &Path, id: ObjectId) -> PathBuf {
    dir.join(format!("obj-{}.snap", id.0))
}

/// An honest storage object whose state survives its process: every
/// mutation is logged before it is acked, and once the log holds at least
/// `snapshot_every` mutations and as many bytes as the last snapshot, the
/// full register state is snapshotted and the log compacted.
#[derive(Debug)]
pub struct DurableObject {
    obj: HonestObject,
    wal: Wal,
    snap: PathBuf,
    snapshot_every: u64,
    /// Mutations logged since the last snapshot, plus — until the first
    /// snapshot after an open — the object's `snapshot_phase`.
    since_snapshot: u64,
    /// Length of the log: its header and the records since the last
    /// snapshot (a reused log file is longer; see [`crate::wal`]).
    log_bytes: u64,
    /// Length of the last snapshot file, written or found at open (0 if
    /// none).
    snapshot_bytes: u64,
    /// Set after a log/snapshot failure: the object goes silent (crash
    /// semantics) instead of acking writes it cannot make durable.
    broken: bool,
}

impl DurableObject {
    /// Open (or create) the durable object `id` under `dir`: load the
    /// snapshot if one exists, replay the WAL's valid prefix on top
    /// (truncating any torn tail), and return the recovered object plus
    /// what recovery found. Process-kill durability (no per-record
    /// fsync); see [`DurableObject::open_with`].
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on filesystem failures, [`Error::Codec`] /
    /// [`Error::VersionMismatch`] on a corrupt snapshot or foreign file
    /// headers (torn WAL *records* truncate instead of erroring).
    pub fn open(
        dir: &Path,
        id: ObjectId,
        snapshot_every: u64,
    ) -> Result<(DurableObject, RecoveryStats)> {
        DurableObject::open_with(dir, id, snapshot_every, false)
    }

    /// As [`DurableObject::open`], with the durability scope explicit:
    /// `fsync = true` pays an `fdatasync` per logged mutation, extending
    /// the log-before-ack invariant from process kills to power loss.
    ///
    /// # Errors
    ///
    /// As [`DurableObject::open`].
    pub fn open_with(
        dir: &Path,
        id: ObjectId,
        snapshot_every: u64,
        fsync: bool,
    ) -> Result<(DurableObject, RecoveryStats)> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::io(format!("creating data dir {}", dir.display()), &e))?;
        let snap = snap_path(dir, id);
        // Records are decoded where they lie in the file's bytes.
        let mut regs = Vec::new();
        let snapshot_bytes = read_snapshot(&snap, |entry| {
            regs.push(decode_reg_view(entry)?);
            Ok(())
        })?
        .unwrap_or(0);
        let snapshot_regs = regs.len();
        let mut obj = HonestObject::from_export(regs);
        let mut log_bytes = FILE_HEADER_LEN as u64;
        let (wal, replay) = Wal::open_with(wal_path(dir, id), fsync, |record| {
            let req = decode_req(record)?;
            // Collects are never logged, so one in the log was not written
            // by this code: corruption, like any other undecodable record.
            if matches!(req, Req::Collect { .. }) {
                return Err(Error::codec("a WAL record that is not a mutation"));
            }
            obj.apply(&req);
            log_bytes += (RECORD_HEADER_LEN + record.len()) as u64;
            Ok(())
        })?;
        let snapshot_every = snapshot_every.max(1);
        Ok((
            DurableObject {
                obj,
                wal,
                snap,
                snapshot_every,
                // The replayed records are mutations since the last
                // snapshot: seed the counter with them, or a deployment
                // killed every < snapshot_every mutations would never
                // compact and its WAL (and recovery time) would grow
                // without bound. The phase only ever makes the first
                // snapshot after an open come sooner.
                since_snapshot: replay
                    .records
                    .saturating_add(snapshot_phase(id, snapshot_every)),
                // Likewise the replayed bytes: what the log already holds
                // counts toward outgrowing the snapshot.
                log_bytes,
                snapshot_bytes,
                broken: false,
            },
            RecoveryStats {
                snapshot_regs,
                wal_records: replay.records,
                truncated_bytes: replay.truncated_bytes,
            },
        ))
    }

    /// The recovered in-memory state (for assertions and snapshots).
    pub fn object(&self) -> &HonestObject {
        &self.obj
    }

    /// Snapshot the full register state, streamed record by record into
    /// the snapshot file, and compact the WAL.
    fn snapshot(&mut self) -> Result<()> {
        static SNAPSHOTS: std::sync::OnceLock<Arc<rastor_obs::Counter>> =
            std::sync::OnceLock::new();
        SNAPSHOTS
            .get_or_init(|| {
                rastor_obs::Registry::global().counter(rastor_obs::names::STORE_SNAPSHOTS)
            })
            .inc();
        // Synced in fsync mode: the reset below must not outlive the
        // snapshot that covers what it drops.
        self.snapshot_bytes = write_snapshot(
            &self.snap,
            self.obj.export_regs(),
            |(reg, view), out| encode_reg_view(*reg, view, out),
            self.wal.fsync(),
        )?;
        self.wal.reset()?;
        self.since_snapshot = 0;
        self.log_bytes = FILE_HEADER_LEN as u64;
        Ok(())
    }
}

impl ObjectBehavior<Req, Rep> for DurableObject {
    /// Log-then-apply-then-reply. A persistence failure turns the object
    /// silent from that point on — never acking an un-logged mutation —
    /// which the protocols treat as one more crash within the budget.
    fn on_request(&mut self, _from: ClientId, req: &Req) -> Option<Rep> {
        if self.broken {
            return None;
        }
        if matches!(req, Req::Collect { .. }) {
            // Collects mutate nothing: never logged, served from memory.
            return Some(self.obj.apply(req));
        }
        // Framed in the log's own buffer, and synced there in fsync mode.
        let Ok(logged) = self.wal.append_with(|out| encode_req(req, out)) else {
            self.broken = true;
            return None;
        };
        self.since_snapshot += 1;
        self.log_bytes += logged;
        let rep = self.obj.apply(req);
        if self.since_snapshot >= self.snapshot_every
            && self.log_bytes >= self.snapshot_bytes
            && self.snapshot().is_err()
        {
            // The mutation itself is logged; only compaction failed.
            // Future appends will keep trying against the long log,
            // but a snapshot failure usually means the disk is gone:
            // go silent rather than risk acking into the void.
            self.broken = true;
            return None;
        }
        Some(rep)
    }
}

/// How a deployment persists (or doesn't persist) its storage objects.
///
/// Implementations are handed around as `Arc<dyn Durability>` inside
/// store/server configs; [`Durability::for_shard`] narrows one to a
/// per-shard scope (a sub-directory, for WAL-backed stores) so a sharded
/// deployment lays its data out as `dir/shard-<s>/obj-<o>.{wal,snap}`.
pub trait Durability: Send + Sync + std::fmt::Debug {
    /// Narrow to the scope of one shard (no-op for in-memory).
    fn for_shard(&self, shard: usize) -> Arc<dyn Durability>;

    /// Whether objects built here can be killed and restarted from disk
    /// with their state intact.
    fn recoverable(&self) -> bool;

    /// Build — or, when files already exist, *recover* — the behavior for
    /// object `id`. Cold-starting a WAL-backed deployment on an existing
    /// data dir is exactly this call finding state on disk.
    ///
    /// # Errors
    ///
    /// Filesystem and corruption errors from the WAL-backed
    /// implementation; infallible in memory.
    fn object(
        &self,
        id: ObjectId,
    ) -> Result<(Box<dyn ObjectBehavior<Req, Rep> + Send>, RecoveryStats)>;

    /// Open (or create) the auxiliary record log `name` in this scope, with
    /// the scope's sync policy, and replay its valid prefix — the hook
    /// higher layers persist their own metadata through (the sharded kv
    /// store keeps its per-shard key directory in one of these).
    /// `Ok(None)` for scopes that do not persist ([`InMemory`]).
    ///
    /// # Errors
    ///
    /// Filesystem and header-corruption errors from the WAL-backed
    /// implementation.
    fn aux_log(&self, name: &str) -> Result<Option<(Wal, Vec<Vec<u8>>)>>;

    /// A short label for bench rows and logs (`"mem"` / `"wal"`).
    fn label(&self) -> &'static str;
}

/// Today's behavior: objects live and die in memory. A killed object is a
/// permanent crash; a "restarted" one would be an amnesiac, so
/// restart-from-disk is refused (`recoverable() == false`).
#[derive(Clone, Copy, Debug, Default)]
pub struct InMemory;

impl Durability for InMemory {
    fn for_shard(&self, _shard: usize) -> Arc<dyn Durability> {
        Arc::new(InMemory)
    }

    fn recoverable(&self) -> bool {
        false
    }

    fn object(
        &self,
        _id: ObjectId,
    ) -> Result<(Box<dyn ObjectBehavior<Req, Rep> + Send>, RecoveryStats)> {
        Ok((Box::new(HonestObject::new()), RecoveryStats::default()))
    }

    fn aux_log(&self, _name: &str) -> Result<Option<(Wal, Vec<Vec<u8>>)>> {
        Ok(None)
    }

    fn label(&self) -> &'static str {
        "mem"
    }
}

/// WAL-backed durability: objects append to per-object logs under `dir`
/// and can be killed and restarted from disk mid-run.
#[derive(Clone, Debug)]
pub struct WalBacked {
    dir: PathBuf,
    snapshot_every: u64,
    fsync: bool,
}

impl WalBacked {
    /// WAL-backed durability rooted at `dir` (created on demand), with the
    /// default compaction cadence ([`DEFAULT_SNAPSHOT_EVERY`]) and
    /// process-kill durability (no per-record fsync).
    pub fn new(dir: impl Into<PathBuf>) -> WalBacked {
        WalBacked {
            dir: dir.into(),
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            fsync: false,
        }
    }

    /// Set the floor on logged mutations between compacting snapshots
    /// (clamped to ≥ 1); an object compacts once it has logged this many
    /// and its log is as large as its last snapshot.
    #[must_use]
    pub fn with_snapshot_every(mut self, every: u64) -> WalBacked {
        self.snapshot_every = every.max(1);
        self
    }

    /// `fdatasync` after every logged mutation and every auxiliary-log
    /// append, a fresh log's header and directory entry synced at open, and
    /// each snapshot synced before the log it replaces is reset: extends
    /// the log-before-ack invariant from process kills to OS crash / power
    /// loss, at a per-append disk-sync cost (see the durability-scope note
    /// on [`DurableObject`]'s module docs).
    #[must_use]
    pub fn with_fsync(mut self, fsync: bool) -> WalBacked {
        self.fsync = fsync;
        self
    }

    /// The root data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Durability for WalBacked {
    fn for_shard(&self, shard: usize) -> Arc<dyn Durability> {
        Arc::new(WalBacked {
            dir: self.dir.join(format!("shard-{shard}")),
            snapshot_every: self.snapshot_every,
            fsync: self.fsync,
        })
    }

    fn recoverable(&self) -> bool {
        true
    }

    fn object(
        &self,
        id: ObjectId,
    ) -> Result<(Box<dyn ObjectBehavior<Req, Rep> + Send>, RecoveryStats)> {
        let (obj, stats) =
            DurableObject::open_with(&self.dir, id, self.snapshot_every, self.fsync)?;
        Ok((Box::new(obj), stats))
    }

    fn aux_log(&self, name: &str) -> Result<Option<(Wal, Vec<Vec<u8>>)>> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| Error::io(format!("creating data dir {}", self.dir.display()), &e))?;
        let mut records = Vec::new();
        let (wal, _) = Wal::open_with(self.dir.join(format!("{name}.wal")), self.fsync, |r| {
            records.push(r.to_vec());
            Ok(())
        })?;
        Ok(Some((wal, records)))
    }

    fn label(&self) -> &'static str {
        "wal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use crate::wal::{SNAPSHOT_BUF, SNAP_MAGIC, STORE_VERSION};
    use rastor_common::{RegId, Timestamp, TsVal, Value};
    use rastor_core::msg::Stamped;

    fn commit(ts: u64, v: u64) -> Req {
        Req::Commit {
            reg: RegId::WRITER,
            pair: Stamped::plain(TsVal::new(Timestamp(ts), Value::from_u64(v))),
        }
    }

    fn drive(obj: &mut DurableObject, reqs: impl IntoIterator<Item = Req>) {
        for req in reqs {
            obj.on_request(ClientId::writer(), &req)
                .expect("durable object replies");
        }
    }

    #[test]
    fn state_survives_a_reopen() {
        let dir = TempDir::new("durable-reopen");
        let id = ObjectId(0);
        let (mut obj, stats) = DurableObject::open(dir.path(), id, 1024).expect("open");
        assert_eq!(stats, RecoveryStats::default());
        drive(&mut obj, (1..=5).map(|i| commit(i, i * 10)));
        let before = obj.object().export_regs();
        drop(obj);
        let (obj, stats) = DurableObject::open(dir.path(), id, 1024).expect("recover");
        assert_eq!(stats.wal_records, 5);
        assert_eq!(stats.snapshot_regs, 0);
        assert_eq!(obj.object().export_regs(), before, "state identical");
        // Timestamps survive verbatim.
        assert_eq!(obj.object().view_of(RegId::WRITER).w.pair.ts, Timestamp(5));
    }

    #[test]
    fn snapshots_compact_the_log_without_losing_state() {
        let dir = TempDir::new("durable-compact");
        let id = ObjectId(3);
        let (mut obj, _) = DurableObject::open(dir.path(), id, 4).expect("open");
        drive(&mut obj, (1..=10).map(|i| commit(i, i)));
        let before = obj.object().export_regs();
        drop(obj);
        let (obj, stats) = DurableObject::open(dir.path(), id, 4).expect("recover");
        assert!(
            stats.snapshot_regs > 0,
            "a snapshot must have been taken: {stats:?}"
        );
        assert!(
            stats.wal_records < 10,
            "the log must have been compacted: {stats:?}"
        );
        assert_eq!(obj.object().export_regs(), before);
    }

    /// A snapshot holds what the object holds — `pw`, `w` and the two
    /// newest pairs per register — so its size depends on the number of
    /// registers, not on the number of writes they have seen.
    #[test]
    fn snapshot_size_does_not_grow_with_writes() {
        let dir = TempDir::new("durable-flat-snapshot");
        let id = ObjectId(0);
        let (mut obj, _) = DurableObject::open(dir.path(), id, 1).expect("open");
        let mut snapshot_len_after = |writes: std::ops::RangeInclusive<u64>| {
            drive(&mut obj, writes.map(|i| commit(i, i)));
            std::fs::metadata(snap_path(dir.path(), id))
                .expect("snapshot file")
                .len()
        };
        let after_10 = snapshot_len_after(1..=10);
        let after_1000 = snapshot_len_after(11..=1000);
        assert_eq!(after_10, after_1000);
    }

    /// Mutation `n` of a workload that pre-writes, then commits, each of
    /// `regs` registers in turn with 1 KiB values: its snapshot soon
    /// outweighs a few records, so the byte rule governs compaction.
    fn kib_write(regs: u64, n: u64) -> Req {
        let reg = RegId::Writer((n / 2 % regs) as u32);
        let ts = Timestamp(1 + n / 2 / regs);
        let pair = Stamped::plain(TsVal::new(ts, Value::from_bytes(vec![(n / 2) as u8; 1024])));
        if n.is_multiple_of(2) {
            Req::PreWrite { reg, pair }
        } else {
            Req::Commit { reg, pair }
        }
    }

    /// A snapshot streamed through the fixed buffer is the file a one-buffer
    /// encoder writes: on a state that spans several buffer fills, with a
    /// record straddling every fill edge, byte for byte — and it reads back
    /// to the same registers.
    #[test]
    fn a_streamed_snapshot_equals_the_one_buffer_encoding() {
        let dir = TempDir::new("durable-streamed");
        let id = ObjectId(0);
        let (mut obj, _) = DurableObject::open(dir.path(), id, u64::MAX).expect("open");
        drive(&mut obj, (0..3 * 2 * 512).map(|n| kib_write(512, n)));
        obj.snapshot().expect("snapshot");
        let regs = obj.object().export_regs();

        let mut want = vec![SNAP_MAGIC[0], SNAP_MAGIC[1], STORE_VERSION, 0];
        let mut ends = Vec::new();
        for (reg, view) in &regs {
            let mut payload = Vec::new();
            encode_reg_view(*reg, view, &mut payload);
            want.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            want.extend_from_slice(&crate::crc32(&payload).to_le_bytes());
            want.extend_from_slice(&payload);
            ends.push(want.len());
        }
        let fills = want.len() / SNAPSHOT_BUF;
        assert!(fills >= 3, "a {}-byte snapshot", want.len());
        for edge in (1..=fills).map(|k| k * SNAPSHOT_BUF) {
            assert!(
                ends.binary_search(&edge).is_err(),
                "a record ends at {edge}"
            );
        }
        let file = std::fs::read(snap_path(dir.path(), id)).expect("snapshot file");
        assert!(
            file == want,
            "the streamed snapshot differs from the reference"
        );
        drop(obj);

        let (recovered, stats) = DurableObject::open(dir.path(), id, u64::MAX).expect("recover");
        assert_eq!((stats.snapshot_regs, stats.wal_records), (512, 0));
        assert_eq!(recovered.object().export_regs(), regs);
    }

    /// Bytes `req` adds to the log: record header and payload.
    fn logged_len(req: &Req) -> u64 {
        let mut payload = Vec::new();
        encode_req(req, &mut payload);
        (RECORD_HEADER_LEN + payload.len()) as u64
    }

    fn file_len_of(path: &Path) -> u64 {
        std::fs::metadata(path).map_or(0, |m| m.len())
    }

    /// The objects of a shard log the same mutations in the same order;
    /// their snapshot cycles are out of phase, so no request makes two of
    /// them compact — on one small register, where the count governs and
    /// each compacts every `snapshot_every`, and on 64 registers of 1 KiB
    /// values, where the byte rule makes them wait longer.
    #[test]
    fn objects_fed_the_same_mutations_snapshot_one_at_a_time() {
        let dir = TempDir::new("durable-staggered");
        let small: fn(u64) -> Req = |n| commit(n, n);
        let large: fn(u64) -> Req = |n| kib_write(64, n);
        let shards = [
            (8, 4, 24, small),
            (DEFAULT_SNAPSHOT_EVERY, 7, 3 * DEFAULT_SNAPSHOT_EVERY, small),
            (8, 4, 2_000, large),
        ];
        for (shard, (every, objects, requests, write)) in shards.into_iter().enumerate() {
            let mut objs: Vec<DurableObject> = (0..objects)
                .map(|i| {
                    let dir = dir.path().join(shard.to_string());
                    DurableObject::open(&dir, ObjectId(i), every)
                        .expect("open")
                        .0
                })
                .collect();
            let mut snapshots = vec![Vec::new(); objs.len()];
            for n in 1..=requests {
                let req = write(n);
                for (obj, at) in objs.iter_mut().zip(&mut snapshots) {
                    drive(obj, [req.clone()]);
                    if obj.since_snapshot == 0 {
                        at.push(n);
                    }
                }
                let compacted = snapshots.iter().filter(|at| at.last() == Some(&n));
                assert!(compacted.count() <= 1, "two snapshots on request {n}");
            }
            let gaps = || {
                snapshots
                    .iter()
                    .flat_map(|at| at.windows(2).map(|w| w[1] - w[0]))
            };
            for at in &snapshots {
                assert!(at.len() >= 3 && at[0] <= every, "{at:?}");
            }
            if shard < 2 {
                assert_eq!(snapshots[0], [every, 2 * every, 3 * every]);
                assert!(gaps().all(|gap| gap == every));
            } else {
                assert!(gaps().all(|gap| gap >= every) && gaps().any(|gap| gap > 4 * every));
            }
        }
    }

    /// The byte rule amortizes compaction: even with a count floor of 8
    /// over a state of 512 registers of 1 KiB values, the snapshots written
    /// add up to no more than the log appended plus the last snapshot.
    #[test]
    fn compaction_writes_no_more_than_it_logs() {
        let dir = TempDir::new("durable-amortized");
        let id = ObjectId(0);
        let (mut obj, _) = DurableObject::open(dir.path(), id, 8).expect("open");
        let (mut logged, mut snapshotted, mut last, mut snapshots) =
            (FILE_HEADER_LEN as u64, 0, 0, 0);
        for n in 0..20_000 {
            let req = kib_write(512, n);
            logged += logged_len(&req);
            drive(&mut obj, [req]);
            if obj.since_snapshot == 0 {
                last = file_len_of(&snap_path(dir.path(), id));
                snapshotted += last;
                snapshots += 1;
                // The reset log's fresh header.
                logged += FILE_HEADER_LEN as u64;
            }
            assert!(
                snapshotted <= logged + last,
                "after {n}: {snapshotted} snapshot bytes for {logged} log bytes"
            );
        }
        assert!(snapshots >= 5, "{snapshots} snapshots");
    }

    /// The byte rule bounds the log, and with it recovery: it never holds
    /// more than `snapshot_every` records or the last snapshot's length,
    /// whichever is larger, plus one record — across reopens too, which
    /// count what they replayed toward the next compaction.
    #[test]
    fn the_log_never_outgrows_the_last_snapshot() {
        let dir = TempDir::new("durable-log-bound");
        let (id, every) = (ObjectId(0), 8);
        let open = || DurableObject::open(dir.path(), id, every).expect("open").0;
        let mut obj = open();
        for n in 0..6_000 {
            if n % 777 == 0 {
                drop(obj);
                obj = open();
            }
            let req = kib_write(64, n);
            let record = logged_len(&req);
            drive(&mut obj, [req]);
            let snapshot = file_len_of(&snap_path(dir.path(), id));
            let bound = (FILE_HEADER_LEN as u64 + every * record).max(snapshot) + record;
            let log = file_len_of(&wal_path(dir.path(), id));
            assert!(log <= bound, "after {n}: a {log}-byte log, bound {bound}");
        }
    }

    /// Compaction frees no blocks: once an object is past its second
    /// snapshot, its three files keep their inodes across every further
    /// compaction — the snapshot and its tmp sibling swap names, and the
    /// log is rewritten in place — the log never shrinks, and the object
    /// reopens to its live state.
    #[test]
    fn compaction_keeps_every_inode_and_never_shrinks_the_log() {
        use std::os::unix::fs::MetadataExt;
        let dir = TempDir::new("durable-no-free");
        let (id, every) = (ObjectId(0), 8);
        let (mut obj, _) = DurableObject::open(dir.path(), id, every).expect("open");
        let files = ["wal", "snap", "tmp"].map(|ext| dir.path().join(format!("obj-0.{ext}")));
        // The set of inodes: the snapshot and the tmp file trade theirs.
        let inodes = || {
            let mut set = files
                .clone()
                .map(|f| std::fs::metadata(f).map(|m| m.ino()).ok());
            set.sort_unstable();
            set
        };
        let (mut snapshots, mut n, mut kept, mut log) = (0, 0, None, 0);
        while snapshots < 2 + 6 {
            drive(&mut obj, [kib_write(16, n)]);
            n += 1;
            let len = file_len_of(&files[0]);
            assert!(
                len >= log,
                "mutation {n}: the log shrank from {log} to {len}"
            );
            log = len;
            if obj.since_snapshot > 0 {
                continue;
            }
            snapshots += 1;
            if snapshots == 2 {
                kept = Some(inodes());
                assert!(kept.iter().flatten().all(Option::is_some), "{kept:?}");
            } else if snapshots > 2 {
                assert_eq!(Some(inodes()), kept, "snapshot {snapshots}");
            }
        }
        let live = obj.object().export_regs();
        drop(obj);
        let (recovered, stats) = DurableObject::open(dir.path(), id, every).expect("recover");
        assert_eq!(stats.truncated_bytes, 0);
        assert_eq!(recovered.object().export_regs(), live);
        assert_eq!(Some(inodes()), kept);
    }

    /// A collect materializes nothing, so an object that has only served
    /// collects since its last mutation equals its own recovery.
    #[test]
    fn a_collect_only_interval_leaves_live_and_recovered_state_equal() {
        let dir = TempDir::new("durable-collect-only");
        let id = ObjectId(0);
        let (mut obj, _) = DurableObject::open(dir.path(), id, 1024).expect("open");
        drive(&mut obj, [commit(1, 1)]);
        let before = obj.object().export_regs();
        for _ in 0..3 {
            let regs = vec![RegId::WRITER, RegId::ReaderReg(0), RegId::Writer(5)];
            obj.on_request(ClientId::reader(0), &Req::Collect { regs })
                .expect("collect replies");
        }
        assert_eq!(obj.object().num_regs(), 1);
        assert_eq!(obj.object().export_regs(), before);
        drop(obj);
        let (recovered, _) = DurableObject::open(dir.path(), id, 1024).expect("recover");
        assert_eq!(recovered.object().export_regs(), before);
    }

    /// Regression: recovery seeds the compaction counter with the
    /// replayed record count, so kill/restart cycles shorter than
    /// `snapshot_every` still compact — the WAL must not grow without
    /// bound across restarts.
    #[test]
    fn repeated_short_lived_restarts_still_compact() {
        let dir = TempDir::new("durable-restart-compaction");
        let id = ObjectId(0);
        let every = 10u64;
        let mut ts = 0u64;
        for _cycle in 0..8 {
            let (mut obj, stats) = DurableObject::open(dir.path(), id, every).expect("open");
            assert!(
                stats.wal_records < every,
                "wal must stay bounded by the snapshot cadence: {stats:?}"
            );
            // Fewer mutations than the cadence per lifetime.
            for _ in 0..every - 3 {
                ts += 1;
                drive(&mut obj, [commit(ts, ts)]);
            }
        }
        let (obj, stats) = DurableObject::open(dir.path(), id, every).expect("final open");
        assert!(stats.snapshot_regs > 0, "snapshots must have happened");
        assert_eq!(
            obj.object().view_of(RegId::WRITER).w.pair.ts,
            Timestamp(ts),
            "no mutation lost across the restart cycles"
        );
    }

    #[test]
    fn collects_are_not_logged() {
        let dir = TempDir::new("durable-collect");
        let id = ObjectId(1);
        let (mut obj, _) = DurableObject::open(dir.path(), id, 1024).expect("open");
        drive(&mut obj, [commit(1, 1)]);
        for _ in 0..50 {
            obj.on_request(
                ClientId::reader(0),
                &Req::Collect {
                    regs: vec![RegId::WRITER],
                },
            )
            .expect("collect replies");
        }
        drop(obj);
        let (_, stats) = DurableObject::open(dir.path(), id, 1024).expect("recover");
        assert_eq!(stats.wal_records, 1, "only the commit was logged");
    }

    /// A record that decodes but is not a mutation was not written by
    /// this code: recovery refuses it as corruption instead of replaying it.
    #[test]
    fn a_logged_collect_fails_recovery_as_corruption() {
        let dir = TempDir::new("durable-non-mutation");
        let id = ObjectId(0);
        let (mut obj, _) = DurableObject::open(dir.path(), id, 1024).expect("open");
        drive(&mut obj, [commit(1, 1)]);
        drop(obj);
        let (mut wal, _, _) = Wal::open(wal_path(dir.path(), id)).expect("open wal");
        let mut collect = Vec::new();
        encode_req(
            &Req::Collect {
                regs: vec![RegId::WRITER],
            },
            &mut collect,
        );
        wal.append(&collect).expect("append");
        drop(wal);
        assert!(matches!(
            DurableObject::open(dir.path(), id, 1024).unwrap_err(),
            Error::Codec { .. }
        ));
    }

    // The committed bytes of store v2 — whole files, record framing and
    // CRC included. A test that needs them edited is a layout change: bump
    // `STORE_VERSION` (and `WIRE_VERSION`).
    #[rustfmt::skip]
    const GOLDEN_WAL: &[u8] = &[
        0x72, 0x4c, 0x02, 0x00, 0x23, 0x00, 0x00, 0x00, 0xcd, 0x9c, 0xed, 0x15,
        0x03, 0x00, 0x07, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x1e, 0x01, 0xef, 0xbe, 0xad, 0xde, 0x00, 0x00, 0x00, 0x00,
    ];
    #[rustfmt::skip]
    const GOLDEN_SNAP: &[u8] = &[
        0x72, 0x4e, 0x02, 0x00, 0x35, 0x00, 0x00, 0x00, 0x36, 0x9a, 0x19, 0x25,
        0x01, 0x02, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x32, 0x01, 0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x01, 0x00, 0x00, 0x00, 0x01,
    ];

    fn tokened(ts: u64, v: u64, bits: u64) -> Stamped {
        Stamped {
            pair: TsVal::new(Timestamp(ts), Value::from_u64(v)),
            token: Some(rastor_core::token::Token::from_bits(bits)),
        }
    }

    /// One logged mutation, and one snapshot entry whose view has a
    /// tokened pre-write, a ⊥ committed pair and a history, match their
    /// golden files byte for byte — and the golden files recover.
    #[test]
    fn wal_and_snapshot_files_match_their_golden_bytes() {
        assert_eq!(crate::wal::STORE_VERSION, 2);
        let id = ObjectId(0);
        let mutation = Req::Commit {
            reg: RegId::Writer(7),
            pair: tokened(3, 30, 0xDEAD_BEEF),
        };
        let dir = TempDir::new("durable-golden-wal");
        let (mut obj, _) = DurableObject::open(dir.path(), id, u64::MAX).expect("open");
        drive(&mut obj, [mutation.clone()]);
        drop(obj);
        assert_eq!(
            std::fs::read(wal_path(dir.path(), id)).expect("wal file"),
            GOLDEN_WAL
        );

        let pw = tokened(5, 50, 0x0123_4567_89AB_CDEF);
        let snapshotted = Req::PreWrite {
            reg: RegId::ReaderReg(2),
            pair: pw.clone(),
        };
        let dir = TempDir::new("durable-golden-snap");
        let (mut obj, _) = DurableObject::open(dir.path(), id, 1).expect("open");
        drive(&mut obj, [snapshotted]);
        drop(obj);
        assert_eq!(
            std::fs::read(snap_path(dir.path(), id)).expect("snapshot file"),
            GOLDEN_SNAP
        );

        // A data dir holding the golden files replays to the same state.
        let dir = TempDir::new("durable-golden-replay");
        std::fs::write(wal_path(dir.path(), id), GOLDEN_WAL).expect("write wal");
        std::fs::write(snap_path(dir.path(), id), GOLDEN_SNAP).expect("write snapshot");
        let (obj, stats) = DurableObject::open(dir.path(), id, 1024).expect("recover");
        assert_eq!((stats.snapshot_regs, stats.wal_records), (1, 1));
        let view = obj.object().view_of(RegId::ReaderReg(2));
        assert_eq!((&view.pw, &view.w), (&pw, &Stamped::bottom()));
        assert_eq!(view.hist, vec![pw]);
        assert_eq!(
            obj.object().view_of(RegId::Writer(7)).w,
            tokened(3, 30, 0xDEAD_BEEF)
        );
    }

    #[test]
    fn objects_in_one_dir_are_isolated() {
        let dir = TempDir::new("durable-isolated");
        let (mut a, _) = DurableObject::open(dir.path(), ObjectId(0), 1024).expect("open a");
        let (mut b, _) = DurableObject::open(dir.path(), ObjectId(1), 1024).expect("open b");
        drive(&mut a, [commit(1, 100)]);
        drive(&mut b, [commit(2, 200)]);
        drop((a, b));
        let (a, _) = DurableObject::open(dir.path(), ObjectId(0), 1024).expect("reopen a");
        let (b, _) = DurableObject::open(dir.path(), ObjectId(1), 1024).expect("reopen b");
        assert_eq!(a.object().view_of(RegId::WRITER).w.pair.ts, Timestamp(1));
        assert_eq!(b.object().view_of(RegId::WRITER).w.pair.ts, Timestamp(2));
    }

    #[test]
    fn fsync_mode_roundtrips_and_scopes_survive() {
        let dir = TempDir::new("durable-fsync");
        let wal = WalBacked::new(dir.path()).with_fsync(true);
        let scoped = wal.for_shard(2); // fsync survives shard scoping
        let (mut obj, _) = scoped.object(ObjectId(0)).expect("open with fsync");
        assert!(obj.on_request(ClientId::writer(), &commit(1, 11)).is_some());
        drop(obj);
        let (_, stats) = scoped.object(ObjectId(0)).expect("recover");
        assert_eq!(stats.wal_records, 1);
    }

    #[test]
    fn in_memory_is_not_recoverable_wal_is() {
        let dir = TempDir::new("durable-labels");
        let mem = InMemory;
        let wal = WalBacked::new(dir.path());
        assert!(!mem.recoverable());
        assert!(wal.recoverable());
        assert_eq!(mem.label(), "mem");
        assert_eq!(wal.label(), "wal");
        let (_, stats) = mem.object(ObjectId(0)).expect("mem object");
        assert_eq!(stats, RecoveryStats::default());
    }

    #[test]
    fn shard_scoping_separates_data_dirs() {
        let dir = TempDir::new("durable-shards");
        let root = WalBacked::new(dir.path());
        let s0 = root.for_shard(0);
        let s1 = root.for_shard(1);
        let (mut a, _) = s0.object(ObjectId(0)).expect("s0 obj");
        let (mut b, _) = s1.object(ObjectId(0)).expect("s1 obj");
        assert!(a.on_request(ClientId::writer(), &commit(1, 1)).is_some());
        assert!(b.on_request(ClientId::writer(), &commit(9, 9)).is_some());
        drop((a, b));
        // Same object id, different shards: independent files.
        let (_, stats) = s1.object(ObjectId(0)).expect("reopen s1");
        assert_eq!(stats.wal_records, 1);
        assert!(dir.path().join("shard-0").join("obj-0.wal").exists());
        assert!(dir.path().join("shard-1").join("obj-0.wal").exists());
    }
}
