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
//! ## Snapshot atomicity
//!
//! Snapshots are written to a `.tmp` sibling and atomically renamed into
//! place, so a crash mid-snapshot leaves the previous snapshot (or none)
//! intact — a visible snapshot file is always complete, and any decode
//! failure inside one is real corruption, reported as an error instead of
//! being "recovered" into silent state loss. A rename is atomic but not
//! durable: against power loss the caller asks [`write_snapshot`] to sync
//! the file and its directory before it resets the log the snapshot
//! replaces.

use crate::crc::crc32;
use rastor_common::{Error, Result};
use rastor_obs::{names, Counter, Registry};
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
pub const STORE_VERSION: u8 = 1;

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
/// payloads, returning the payloads and the byte length of the valid
/// prefix (header-relative). Invalid data ends the scan — it does not
/// error, it bounds the trusted prefix.
fn scan_records(bytes: &[u8]) -> (Vec<Vec<u8>>, usize) {
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
        records.push(payload.to_vec());
        pos += RECORD_HEADER_LEN + len;
    }
    (records, pos)
}

/// Length of a WAL or snapshot file whose header is followed by `records`.
pub(crate) fn file_len(records: &[Vec<u8>]) -> u64 {
    records.iter().fold(FILE_HEADER_LEN as u64, |len, r| {
        len + (RECORD_HEADER_LEN + r.len()) as u64
    })
}

fn encode_record(payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_RECORD_LEN,
        "record payload exceeds MAX_RECORD_LEN"
    );
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// An open, append-positioned write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
}

impl Wal {
    /// Open (or create) the log at `path`, replay its valid prefix, and
    /// truncate any torn tail. Returns the log positioned for append, the
    /// replayed record payloads in append order, and the replay stats.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on filesystem failures; [`Error::Codec`] /
    /// [`Error::VersionMismatch`] if the file header itself is foreign
    /// (torn or corrupt *records* truncate instead of erroring).
    pub fn open(path: impl Into<PathBuf>) -> Result<(Wal, Vec<Vec<u8>>, ReplayStats)> {
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

        if bytes.is_empty() {
            file.write_all(&file_header(WAL_MAGIC))
                .map_err(|e| Error::io("writing a fresh wal header", &e))?;
            return Ok((Wal { file, path }, Vec::new(), ReplayStats::default()));
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
        Ok((Wal { file, path }, records, stats))
    }

    /// Append one record (length + CRC + payload) and flush it to the OS.
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
        wal_metrics().appends.inc();
        self.file
            .write_all(&encode_record(payload))
            .and_then(|()| self.file.flush())
            .map_err(|e| Error::io(format!("appending to wal {}", self.path.display()), &e))
    }

    /// Force the log's bytes to stable storage (`fdatasync`). The plain
    /// [`Wal::append`] flushes to the OS only — durable against process
    /// kills, not power loss; callers wanting power-loss durability call
    /// this after each append (see `WalBacked::with_fsync`).
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

/// Write a snapshot file atomically: records to `path.tmp`, then rename
/// over `path`. With `sync`, the tmp file is synced before the rename and
/// the directory after it, so once this returns the new snapshot survives
/// power loss — the caller may then drop what it covers (reset the WAL).
///
/// # Errors
///
/// [`Error::Io`] on any filesystem failure (the previous snapshot, if any,
/// is left intact).
pub fn write_snapshot(path: &Path, entries: &[Vec<u8>], sync: bool) -> Result<()> {
    let tmp = path.with_extension("tmp");
    let mut out = Vec::new();
    out.extend_from_slice(&file_header(SNAP_MAGIC));
    for e in entries {
        out.extend_from_slice(&encode_record(e));
    }
    let synced = |file: File| {
        wal_metrics().fsyncs.inc();
        file.sync_all()
    };
    File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(&out)?;
            if sync {
                synced(file)?;
            }
            Ok(())
        })
        .map_err(|e| Error::io(format!("writing snapshot {}", tmp.display()), &e))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| Error::io(format!("publishing snapshot {}", path.display()), &e))?;
    if sync {
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)
            .and_then(synced)
            .map_err(|e| Error::io(format!("syncing directory {}", dir.display()), &e))?;
    }
    Ok(())
}

/// Read a snapshot file: `Ok(None)` if absent, the record payloads
/// otherwise.
///
/// # Errors
///
/// [`Error::Io`] on read failures; [`Error::Codec`] /
/// [`Error::VersionMismatch`] if the file is malformed — a snapshot is
/// written atomically, so unlike a WAL tail, *any* invalid byte in one is
/// real corruption and must not be silently dropped.
pub fn read_snapshot(path: &Path) -> Result<Option<Vec<Vec<u8>>>> {
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
    Ok(Some(records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn payloads(n: u64) -> Vec<Vec<u8>> {
        (0..n).map(|i| i.to_le_bytes().to_vec()).collect()
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
