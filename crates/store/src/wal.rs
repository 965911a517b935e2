//! The append-only write-ahead log and the atomic snapshot file.
//!
//! ## File layouts
//!
//! Both files open with a 4-byte header:
//!
//! ```text
//! offset  size  field
//! 0       2     magic   = b"rL" (wal) / b"rN" (snapshot)
//! 2       1     version = STORE_VERSION
//! 3       1     reserved (0)
//! ```
//!
//! after which both are a sequence of *records*:
//!
//! ```text
//! offset  size  field
//! 0       4     payload length, u32 little-endian
//! 4       4     CRC-32 of the payload
//! 8       n     payload
//! ```
//!
//! ## Torn-tail truncation
//!
//! A process can die mid-append, leaving a partial record (or a record
//! whose bytes were only partially flushed) at the end of the log. On
//! replay, the first record that fails validation — a length running past
//! end-of-file, a CRC mismatch, or a short read — marks the end of the
//! trusted prefix: **everything from that record on is truncated** and the
//! log reopens for append at the cut. A mid-file corruption is
//! indistinguishable from a torn tail, so the same rule applies: the WAL
//! trusts exactly its longest valid prefix, which is what makes replayed
//! state prefix-consistent with the pre-crash history.
//!
//! A *header* that fails validation is different: that is not a torn
//! append but a foreign or mangled file, and replay refuses with a hard
//! error ([`Error::Codec`] / [`Error::VersionMismatch`]) rather than
//! silently starting an empty log over data it cannot read.
//!
//! ## Framing in place
//!
//! A record is framed where it is written: its 8-byte header is reserved,
//! the payload is encoded straight after it, and then the length and CRC
//! are patched in. A log append builds its record in one buffer the [`Wal`]
//! reuses and writes it with one `write(2)`; a snapshot streams its records
//! through a fixed buffer that goes to the file each time it fills, so a
//! record may straddle two writes and compaction's transient memory is the
//! buffer, whatever the state's size. Replay reads a file once and hands
//! each payload to its consumer where it lies in those bytes.
//!
//! ## Snapshot atomicity
//!
//! Snapshots are written to a `.tmp` sibling and atomically renamed into
//! place, so a crash mid-snapshot leaves the previous snapshot (or none)
//! intact — a visible snapshot file is always complete, and any decode
//! failure inside one is real corruption, reported as an error instead of
//! being "recovered" into silent state loss. A rename is atomic but not
//! durable: against power loss the caller asks `write_snapshot` to sync
//! the file and its directory before it resets the log the snapshot
//! replaces.

use crate::crc::crc32;
use rastor_common::{Error, Result};
use rastor_obs::{names, trace, Counter, Registry};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// The always-on WAL tallies (`store.wal_*` in the metric manifest),
/// resolved once per process so the append path pays one relaxed atomic
/// increment, not a registry lookup.
struct WalMetrics {
    appends: Arc<Counter>,
    fsyncs: Arc<Counter>,
    replayed: Arc<Counter>,
    truncated: Arc<Counter>,
}

fn wal_metrics() -> &'static WalMetrics {
    static METRICS: OnceLock<WalMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = Registry::global();
        WalMetrics {
            appends: reg.counter(names::STORE_WAL_APPENDS),
            fsyncs: reg.counter(names::STORE_WAL_FSYNCS),
            replayed: reg.counter(names::STORE_WAL_REPLAYED),
            truncated: reg.counter(names::STORE_WAL_TRUNCATED),
        }
    })
}

/// On-disk format version for WAL and snapshot files.
///
/// History: v1 logged and snapshotted the `rastor_core::codec` layout of
/// wire v2; v2 follows wire v3, whose object views write each pair once,
/// later copies as one-byte references — a snapshot entry of a quiet
/// register holds two pairs, not four. Log records (single mutations)
/// kept their bytes. A data dir of another version is refused with
/// [`Error::VersionMismatch`], never replayed.
pub const STORE_VERSION: u8 = 2;

/// Magic bytes opening a WAL file.
pub const WAL_MAGIC: [u8; 2] = *b"rL";

/// Magic bytes opening a snapshot file.
pub const SNAP_MAGIC: [u8; 2] = *b"rN";

/// File header length (magic + version + reserved).
pub const FILE_HEADER_LEN: usize = 4;

/// Record header length (payload length + CRC).
pub const RECORD_HEADER_LEN: usize = 8;

/// Ceiling on one record payload: a corrupt length prefix must not look
/// like a multi-gigabyte allocation request.
pub const MAX_RECORD_LEN: usize = 16 * 1024 * 1024;

/// The buffer a snapshot is streamed through: it goes to the file each time
/// it fills, so a snapshot of any size holds this much, plus the record
/// that straddles its edge, in memory.
pub(crate) const SNAPSHOT_BUF: usize = 256 * 1024;

/// What a [`Wal::open`] replay found on disk.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ReplayStats {
    /// Valid records replayed (the trusted prefix).
    pub records: u64,
    /// Bytes cut off the tail (0 for a cleanly closed log).
    pub truncated_bytes: u64,
}

fn file_header(magic: [u8; 2]) -> [u8; FILE_HEADER_LEN] {
    [magic[0], magic[1], STORE_VERSION, 0]
}

fn check_header(buf: &[u8], magic: [u8; 2], what: &str) -> Result<()> {
    if buf.len() < FILE_HEADER_LEN || buf[0..2] != magic {
        return Err(Error::codec(format!(
            "{what}: bad or truncated file header (expected magic {:02x}{:02x})",
            magic[0], magic[1]
        )));
    }
    if buf[2] != STORE_VERSION {
        return Err(Error::VersionMismatch {
            got: buf[2],
            want: STORE_VERSION,
        });
    }
    Ok(())
}

/// Split `bytes` (everything after the file header) into validated record
/// payloads, borrowed from `bytes`, returning the payloads and the byte
/// length of the valid prefix (header-relative). Invalid data ends the
/// scan — it does not error, it bounds the trusted prefix.
fn scan_records(bytes: &[u8]) -> (Vec<&[u8]>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some(header) = bytes.get(pos..pos + RECORD_HEADER_LEN) {
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if len > MAX_RECORD_LEN {
            break;
        }
        let Some(payload) = bytes.get(pos + RECORD_HEADER_LEN..pos + RECORD_HEADER_LEN + len)
        else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        records.push(payload);
        pos += RECORD_HEADER_LEN + len;
    }
    (records, pos)
}

/// Append one record to `out`: reserve its header, let `encode` write the
/// payload after it, then patch in the payload's length and CRC. Returns
/// the record's length, header included.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_RECORD_LEN`].
fn frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; RECORD_HEADER_LEN]);
    encode(out);
    let (header, payload) = out[start..].split_at_mut(RECORD_HEADER_LEN);
    assert!(
        payload.len() <= MAX_RECORD_LEN,
        "record payload exceeds MAX_RECORD_LEN"
    );
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    RECORD_HEADER_LEN + payload.len()
}

/// Sync the directory holding `path`, so an entry created or renamed in it
/// survives power loss.
fn sync_dir(path: &Path) -> Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    wal_metrics().fsyncs.inc();
    File::open(dir)
        .and_then(|dir| dir.sync_all())
        .map_err(|e| Error::io(format!("syncing directory {}", dir.display()), &e))
}

/// An open, append-positioned write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// `fdatasync` after every append: the sync policy the log was opened
    /// with.
    fsync: bool,
    /// The record being framed, reused from append to append.
    record: Vec<u8>,
}

impl Wal {
    /// Open (or create) the log at `path`, replay its valid prefix, and
    /// truncate any torn tail. Returns the log positioned for append, the
    /// replayed record payloads in append order, and the replay stats.
    /// Appends reach the OS, not stable storage: no `fdatasync`.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on filesystem failures; [`Error::Codec`] /
    /// [`Error::VersionMismatch`] if the file header itself is foreign
    /// (torn or corrupt *records* truncate instead of erroring).
    pub fn open(path: impl Into<PathBuf>) -> Result<(Wal, Vec<Vec<u8>>, ReplayStats)> {
        let mut records = Vec::new();
        let (wal, stats) = Wal::open_with(path, false, |record| {
            records.push(record.to_vec());
            Ok(())
        })?;
        Ok((wal, records, stats))
    }

    /// As [`Wal::open`], with the sync policy explicit — with `fsync`,
    /// every append is followed by an `fdatasync`, and a log this call
    /// creates has its header and its directory entry synced before it is
    /// returned — and each replayed payload handed to `replay` in append
    /// order, borrowed from the file's bytes rather than copied out. An
    /// error from `replay` fails the open.
    pub(crate) fn open_with(
        path: impl Into<PathBuf>,
        fsync: bool,
        mut replay: impl FnMut(&[u8]) -> Result<()>,
    ) -> Result<(Wal, ReplayStats)> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| Error::io(format!("opening wal {}", path.display()), &e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| Error::io(format!("reading wal {}", path.display()), &e))?;

        let wal = |file, path| Wal {
            file,
            path,
            fsync,
            record: Vec::new(),
        };
        if bytes.is_empty() {
            file.write_all(&file_header(WAL_MAGIC))
                .map_err(|e| Error::io("writing a fresh wal header", &e))?;
            let wal = wal(file, path);
            if fsync {
                // A power loss must not take back the log a caller is
                // about to ack into: its header, then its name.
                wal.sync_data()?;
                sync_dir(&wal.path)?;
            }
            return Ok((wal, ReplayStats::default()));
        }
        check_header(&bytes, WAL_MAGIC, "wal")?;
        let (records, valid) = scan_records(&bytes[FILE_HEADER_LEN..]);
        let valid_end = (FILE_HEADER_LEN + valid) as u64;
        let truncated = bytes.len() as u64 - valid_end;
        if truncated > 0 {
            file.set_len(valid_end)
                .map_err(|e| Error::io("truncating a torn wal tail", &e))?;
        }
        file.seek(SeekFrom::Start(valid_end))
            .map_err(|e| Error::io("seeking to the wal append position", &e))?;
        let stats = ReplayStats {
            records: records.len() as u64,
            truncated_bytes: truncated,
        };
        let m = wal_metrics();
        m.replayed.add(stats.records);
        m.truncated.add(stats.truncated_bytes);
        for record in records {
            replay(record)?;
        }
        Ok((wal(file, path), stats))
    }

    /// Append one record (length + CRC + payload) and hand it to the OS —
    /// and, if the log was opened in fsync mode, to stable storage.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the write fails; the log must then be considered
    /// broken (the caller stops acking — see `DurableObject`).
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`MAX_RECORD_LEN`].
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        self.append_with(|out| out.extend_from_slice(payload))
            .map(drop)
    }

    /// As [`Wal::append`], with the payload encoded by `encode` straight
    /// into the log's reused record buffer, after the reserved header: one
    /// `write(2)`, no allocation once the buffer has grown to the largest
    /// record. Under a trace context the write and the sync each leave a
    /// span. Returns the bytes the record added to the file.
    pub(crate) fn append_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<u64> {
        wal_metrics().appends.inc();
        let traced = trace::current();
        let clock = || match traced {
            trace::NO_TRACE => 0,
            _ => trace::epoch_us(),
        };
        let t0 = clock();
        self.record.clear();
        let len = frame(&mut self.record, encode);
        self.file
            .write_all(&self.record)
            .map_err(|e| Error::io(format!("appending to wal {}", self.path.display()), &e))?;
        let t1 = clock();
        let payload = (len - RECORD_HEADER_LEN) as u64;
        trace::global().record(traced, trace::span::WAL_APPEND, payload, t0, t1);
        if self.fsync {
            self.sync_data()?;
            trace::global().record(traced, trace::span::WAL_FSYNC, 0, t1, clock());
        }
        Ok(len as u64)
    }

    /// Whether appends are followed by an `fdatasync` (the policy the log
    /// was opened with).
    pub(crate) fn fsync(&self) -> bool {
        self.fsync
    }

    /// Force the log's bytes to stable storage (`fdatasync`). A log opened
    /// in fsync mode does this after every append; one opened with
    /// [`Wal::open`] hands appends to the OS only — durable against process
    /// kills, not power loss.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the sync fails.
    pub fn sync_data(&self) -> Result<()> {
        wal_metrics().fsyncs.inc();
        self.file
            .sync_data()
            .map_err(|e| Error::io(format!("syncing wal {}", self.path.display()), &e))
    }

    /// Reset the log to empty (post-snapshot compaction): truncate to a
    /// fresh header.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the truncate or header write fails.
    pub fn reset(&mut self) -> Result<()> {
        self.file
            .set_len(0)
            .and_then(|()| self.file.seek(SeekFrom::Start(0)).map(|_| ()))
            .and_then(|()| self.file.write_all(&file_header(WAL_MAGIC)))
            .and_then(|()| self.file.flush())
            .map_err(|e| Error::io(format!("resetting wal {}", self.path.display()), &e))
    }

    /// The path this log lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Write a snapshot file atomically: one record per entry, its payload
/// encoded by `encode` straight into a fixed [`SNAPSHOT_BUF`]-byte buffer
/// that goes to `path.tmp` each time it fills, then a rename over `path`.
/// With `sync`, the tmp file is synced before the rename and the directory
/// after it, so once this returns the new snapshot survives power loss —
/// the caller may then drop what it covers (reset the WAL). Returns the
/// snapshot file's length.
///
/// # Errors
///
/// [`Error::Io`] on any filesystem failure (the previous snapshot, if any,
/// is left intact).
pub(crate) fn write_snapshot<T>(
    path: &Path,
    entries: impl IntoIterator<Item = T>,
    mut encode: impl FnMut(&T, &mut Vec<u8>),
    sync: bool,
) -> Result<u64> {
    let tmp = path.with_extension("tmp");
    let len = File::create(&tmp)
        .and_then(|mut file| {
            let mut buf = Vec::with_capacity(SNAPSHOT_BUF);
            buf.extend_from_slice(&file_header(SNAP_MAGIC));
            let mut len = 0;
            for entry in entries {
                frame(&mut buf, |out| encode(&entry, out));
                if buf.len() >= SNAPSHOT_BUF {
                    // Whole buffers out; the straddling record's tail
                    // starts the next one.
                    let full = buf.len() - buf.len() % SNAPSHOT_BUF;
                    file.write_all(&buf[..full])?;
                    buf.drain(..full);
                    len += full as u64;
                }
            }
            file.write_all(&buf)?;
            len += buf.len() as u64;
            if sync {
                wal_metrics().fsyncs.inc();
                file.sync_all()?;
            }
            Ok(len)
        })
        .map_err(|e| Error::io(format!("writing snapshot {}", tmp.display()), &e))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| Error::io(format!("publishing snapshot {}", path.display()), &e))?;
    if sync {
        sync_dir(path)?;
    }
    Ok(len)
}

/// Read a snapshot file, handing each record payload to `load` in file
/// order, borrowed from the file's bytes: `Ok(None)` if absent, the file's
/// length otherwise.
///
/// # Errors
///
/// [`Error::Io`] on read failures; [`Error::Codec`] /
/// [`Error::VersionMismatch`] if the file is malformed — a snapshot is
/// written atomically, so unlike a WAL tail, *any* invalid byte in one is
/// real corruption and must not be silently dropped — and any error from
/// `load`.
pub(crate) fn read_snapshot(
    path: &Path,
    mut load: impl FnMut(&[u8]) -> Result<()>,
) -> Result<Option<u64>> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(Error::io(
                format!("reading snapshot {}", path.display()),
                &e,
            ))
        }
    };
    check_header(&bytes, SNAP_MAGIC, "snapshot")?;
    let body = &bytes[FILE_HEADER_LEN..];
    let (records, valid) = scan_records(body);
    if valid != body.len() {
        return Err(Error::codec(format!(
            "snapshot {}: invalid record data at offset {valid}",
            path.display()
        )));
    }
    for record in records {
        load(record)?;
    }
    Ok(Some(bytes.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn payloads(n: u64) -> Vec<Vec<u8>> {
        (0..n).map(|i| i.to_le_bytes().to_vec()).collect()
    }

    /// A snapshot's record payloads, copied out.
    fn read_snapshot(path: &Path) -> Result<Option<Vec<Vec<u8>>>> {
        let mut records = Vec::new();
        let found = super::read_snapshot(path, |record| {
            records.push(record.to_vec());
            Ok(())
        })?;
        Ok(found.map(|_| records))
    }

    /// A snapshot whose records hold `entries`, through the one writer.
    fn write_snapshot(path: &Path, entries: &[Vec<u8>], sync: bool) -> Result<u64> {
        super::write_snapshot(path, entries, |e, out| out.extend_from_slice(e), sync)
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let dir = TempDir::new("wal-roundtrip");
        let path = dir.path().join("obj.wal");
        let (mut wal, recs, stats) = Wal::open(&path).expect("fresh wal");
        assert!(recs.is_empty());
        assert_eq!(stats, ReplayStats::default());
        for p in payloads(10) {
            wal.append(&p).expect("append");
        }
        drop(wal);
        let (_, recs, stats) = Wal::open(&path).expect("reopen");
        assert_eq!(recs, payloads(10));
        assert_eq!(stats.records, 10);
        assert_eq!(stats.truncated_bytes, 0);
    }

    #[test]
    fn reopened_wal_appends_after_the_replayed_prefix() {
        let dir = TempDir::new("wal-append-after");
        let path = dir.path().join("obj.wal");
        let (mut wal, _, _) = Wal::open(&path).expect("fresh");
        wal.append(b"one").expect("append");
        drop(wal);
        let (mut wal, _, _) = Wal::open(&path).expect("reopen");
        wal.append(b"two").expect("append");
        drop(wal);
        let (_, recs, _) = Wal::open(&path).expect("reopen again");
        assert_eq!(recs, vec![b"one".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn torn_tail_is_truncated_and_the_log_stays_usable() {
        let dir = TempDir::new("wal-torn");
        let path = dir.path().join("obj.wal");
        let (mut wal, _, _) = Wal::open(&path).expect("fresh");
        for p in payloads(5) {
            wal.append(&p).expect("append");
        }
        drop(wal);
        // Tear the last record: cut 3 bytes off the file.
        let len = std::fs::metadata(&path).expect("meta").len();
        let f = OpenOptions::new().write(true).open(&path).expect("open");
        f.set_len(len - 3).expect("truncate");
        drop(f);
        let (mut wal, recs, stats) = Wal::open(&path).expect("replay");
        assert_eq!(recs, payloads(4), "prefix survives");
        assert_eq!(stats.records, 4);
        assert!(stats.truncated_bytes > 0);
        // The log is append-able at the cut.
        wal.append(b"after").expect("append after truncation");
        drop(wal);
        let (_, recs, stats) = Wal::open(&path).expect("replay again");
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[4], b"after".to_vec());
        assert_eq!(stats.truncated_bytes, 0);
    }

    #[test]
    fn crc_mismatch_bounds_the_trusted_prefix() {
        let dir = TempDir::new("wal-crc");
        let path = dir.path().join("obj.wal");
        let (mut wal, _, _) = Wal::open(&path).expect("fresh");
        for p in payloads(4) {
            wal.append(&p).expect("append");
        }
        drop(wal);
        // Flip one payload byte of the third record.
        let mut bytes = std::fs::read(&path).expect("read");
        let rec = RECORD_HEADER_LEN + 8; // each record: 8B header + 8B payload
        let third_payload = FILE_HEADER_LEN + 2 * rec + RECORD_HEADER_LEN;
        bytes[third_payload] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write back");
        let (_, recs, stats) = Wal::open(&path).expect("replay");
        assert_eq!(recs, payloads(2), "records before the corruption survive");
        assert!(stats.truncated_bytes > 0, "corrupt tail cut off");
    }

    #[test]
    fn foreign_header_is_a_hard_error() {
        let dir = TempDir::new("wal-header");
        let path = dir.path().join("obj.wal");
        std::fs::write(&path, b"not a wal at all").expect("write");
        assert!(matches!(Wal::open(&path), Err(Error::Codec { .. })));
        std::fs::write(&path, [b'r', b'L', STORE_VERSION + 1, 0]).expect("write");
        assert!(matches!(
            Wal::open(&path),
            Err(Error::VersionMismatch { .. })
        ));
    }

    #[test]
    fn reset_empties_the_log() {
        let dir = TempDir::new("wal-reset");
        let path = dir.path().join("obj.wal");
        let (mut wal, _, _) = Wal::open(&path).expect("fresh");
        for p in payloads(3) {
            wal.append(&p).expect("append");
        }
        wal.reset().expect("reset");
        wal.append(b"fresh").expect("append");
        drop(wal);
        let (_, recs, _) = Wal::open(&path).expect("replay");
        assert_eq!(recs, vec![b"fresh".to_vec()]);
    }

    #[test]
    fn snapshots_roundtrip_and_absent_reads_none() {
        let dir = TempDir::new("snap");
        let path = dir.path().join("obj.snap");
        assert_eq!(read_snapshot(&path).expect("absent"), None);
        let entries = payloads(6);
        write_snapshot(&path, &entries, false).expect("write");
        assert_eq!(read_snapshot(&path).expect("read"), Some(entries.clone()));
        // Overwrite is atomic: the tmp sibling never lingers.
        write_snapshot(&path, &entries[..2], true).expect("rewrite");
        assert_eq!(
            read_snapshot(&path).expect("read"),
            Some(entries[..2].to_vec())
        );
        assert!(!path.with_extension("tmp").exists());
    }

    #[test]
    fn corrupt_snapshot_is_a_hard_error() {
        let dir = TempDir::new("snap-corrupt");
        let path = dir.path().join("obj.snap");
        write_snapshot(&path, &payloads(3), false).expect("write");
        let mut bytes = std::fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write back");
        assert!(matches!(read_snapshot(&path), Err(Error::Codec { .. })));
    }
}
