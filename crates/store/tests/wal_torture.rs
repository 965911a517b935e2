//! WAL torture: seeded random truncation and corruption of the log tail,
//! asserting that replay always recovers a **prefix-consistent** state —
//! the exact records (and, at the object level, the exact register state)
//! produced by some prefix of the original mutation history, never a
//! mangled or reordered one.
//!
//! Compaction rewrites its files in place — the snapshot is written over
//! its tmp sibling, which then swaps names with it, and the log is reset
//! to a terminator ahead of older generations' bytes — so the crash states
//! a compaction or an append over a reused log can leave are built here by
//! hand, from the files' bytes before and after each step, in the manner
//! of ALICE (Pillai et al., OSDI '14): each must recover the state some
//! prefix of the acked mutations produces.

use rastor_common::{ClientId, ObjectId, RegId, SplitMix64, Timestamp, TsVal, Value};
use rastor_core::msg::{ObjectView, Req, Stamped};
use rastor_core::object::HonestObject;
use rastor_sim::ObjectBehavior;
use rastor_store::wal::{ReplayStats, Wal, FILE_HEADER_LEN, RECORD_HEADER_LEN, TERMINATOR};
use rastor_store::{DurableObject, RecoveryStats, TempDir};
use std::path::Path;

/// Deterministic payloads of varying sizes.
fn payloads(n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            let len = 1 + rng.gen_range(0, 40) as usize;
            let mut p = vec![0u8; len];
            for (j, b) in p.iter_mut().enumerate() {
                *b = (i + j) as u8 ^ (rng.gen_range(0, 255) as u8);
            }
            p
        })
        .collect()
}

fn write_log(path: &Path, records: &[Vec<u8>]) {
    let (mut wal, existing, _) = Wal::open(path).expect("open wal");
    assert!(existing.is_empty(), "torture logs start fresh");
    for r in records {
        wal.append(r).expect("append");
    }
}

/// Byte offset of the end of record `n` (0 = just the file header).
fn boundary(records: &[Vec<u8>], n: usize) -> u64 {
    (FILE_HEADER_LEN
        + records[..n]
            .iter()
            .map(|r| RECORD_HEADER_LEN + r.len())
            .sum::<usize>()) as u64
}

/// Largest record count whose boundary fits within `cut` bytes.
fn expected_prefix(records: &[Vec<u8>], cut: u64) -> usize {
    (0..=records.len())
        .rev()
        .find(|&n| boundary(records, n) <= cut)
        .expect("boundary(0) is the header length")
}

#[test]
fn random_truncation_always_replays_a_prefix() {
    let dir = TempDir::new("torture-truncate");
    let records = payloads(24, 0xBEEF);
    let full = boundary(&records, records.len());
    let mut rng = SplitMix64::new(0x70C7);
    // A spread of cut points across the whole record region, plus the
    // exact record boundaries.
    let mut cuts: Vec<u64> = (0..40)
        .map(|_| FILE_HEADER_LEN as u64 + rng.gen_range(0, full - FILE_HEADER_LEN as u64))
        .collect();
    cuts.extend((0..=records.len()).map(|n| boundary(&records, n)));
    for (trial, cut) in cuts.into_iter().enumerate() {
        let path = dir.path().join(format!("cut-{trial}.wal"));
        write_log(&path, &records);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("open for truncation");
        f.set_len(cut).expect("truncate");
        drop(f);
        let (_, replayed, stats) = Wal::open(&path).expect("replay");
        let want = expected_prefix(&records, cut);
        assert_eq!(
            replayed,
            records[..want].to_vec(),
            "cut at byte {cut}: must replay exactly the {want}-record prefix"
        );
        let torn = cut - boundary(&records, want);
        assert_eq!(
            stats,
            ReplayStats {
                records: want as u64,
                truncated_bytes: torn,
            },
            "cut at byte {cut}"
        );
    }

    // A reused log: an append torn at `cut` leaves the bytes before it
    // from after the append and the rest from before it — the terminator
    // the record was written over, then an older generation's records.
    let path = dir.path().join("reused.wal");
    let fresh = payloads(9, 0xD0E);
    let steps = reused_log(&path, &records, &fresh);
    let cuts = (0..40).map(|_| FILE_HEADER_LEN as u64 + rng.gen_range(0, boundary(&fresh, 9)));
    for cut in cuts.chain((0..=fresh.len()).map(|n| boundary(&fresh, n))) {
        let want = expected_prefix(&fresh, cut);
        // Torn in the append `cut` falls in (on a boundary, before that
        // append began), or cut after the last one.
        let torn = match steps.get(want) {
            Some((before, after)) => {
                let mut torn = after[..cut as usize].to_vec();
                torn.extend_from_slice(before.get(cut as usize..).unwrap_or_default());
                torn
            }
            None => steps[want - 1].1.clone(),
        };
        std::fs::write(&path, &torn).expect("write the torn log");
        let (_, replayed, stats) = Wal::open(&path).expect("replay");
        assert_eq!(
            replayed,
            fresh[..want].to_vec(),
            "reused, cut at byte {cut}"
        );
        // Cut on a boundary, the append had not begun: the terminator
        // ends the prefix and nothing is cut. Inside a record, the record
        // and the older bytes behind it are.
        let cut_bytes = if cut == boundary(&fresh, want) {
            0
        } else {
            torn.len() as u64 - boundary(&fresh, want)
        };
        assert_eq!(
            stats,
            ReplayStats {
                records: want as u64,
                truncated_bytes: cut_bytes,
            },
            "reused, cut at byte {cut}"
        );
    }
}

/// A log that held `old`, was reset, and then took `fresh`, one append at a
/// time: the file's bytes before and after each of those appends. `old`
/// outweighs `fresh`, so older records lie behind every terminator.
fn reused_log(path: &Path, old: &[Vec<u8>], fresh: &[Vec<u8>]) -> Vec<(Vec<u8>, Vec<u8>)> {
    assert!(boundary(old, old.len()) > boundary(fresh, fresh.len()) + RECORD_HEADER_LEN as u64);
    let (mut wal, _, _) = Wal::open(path).expect("open wal");
    for r in old {
        wal.append(r).expect("append");
    }
    wal.reset().expect("reset");
    let read = || std::fs::read(path).expect("read log");
    fresh
        .iter()
        .map(|r| {
            let before = read();
            wal.append(r).expect("append");
            (before, read())
        })
        .collect()
}

#[test]
fn random_corruption_always_replays_the_prefix_before_the_flip() {
    let dir = TempDir::new("torture-corrupt");
    let records = payloads(24, 0xFACE);
    let full = boundary(&records, records.len());
    let mut rng = SplitMix64::new(0xC0FFEE);
    for trial in 0..40 {
        let path = dir.path().join(format!("flip-{trial}.wal"));
        write_log(&path, &records);
        let mut bytes = std::fs::read(&path).expect("read log");
        let pos = FILE_HEADER_LEN as u64 + rng.gen_range(0, full - FILE_HEADER_LEN as u64 - 1);
        let bit = 1u8 << rng.gen_range(0, 7);
        bytes[pos as usize] ^= bit;
        std::fs::write(&path, &bytes).expect("write corrupted log");
        // The record containing the flipped byte fails (CRC or framing);
        // everything strictly before it replays verbatim.
        let hit = expected_prefix(&records, pos);
        let (_, replayed, stats) = Wal::open(&path).expect("replay");
        assert_eq!(
            replayed,
            records[..hit].to_vec(),
            "flip at byte {pos}: must replay exactly the {hit}-record prefix"
        );
        assert!(
            stats.truncated_bytes > 0,
            "flip at byte {pos}: the corrupt tail must be cut"
        );
    }

    // A reused log, flipped inside its new generation: the older records
    // behind the terminator never make a corrupt record valid.
    let path = dir.path().join("reused.wal");
    let fresh = payloads(9, 0xF11);
    let steps = reused_log(&path, &records, &fresh);
    let reused = &steps.last().expect("nine appends").1;
    let end = boundary(&fresh, fresh.len());
    for _ in 0..40 {
        let mut bytes = reused.clone();
        let pos = FILE_HEADER_LEN as u64 + rng.gen_range(0, end - FILE_HEADER_LEN as u64 - 1);
        bytes[pos as usize] ^= 1u8 << rng.gen_range(0, 7);
        std::fs::write(&path, &bytes).expect("write corrupted log");
        let hit = expected_prefix(&fresh, pos);
        let (_, replayed, stats) = Wal::open(&path).expect("replay");
        assert_eq!(
            replayed,
            fresh[..hit].to_vec(),
            "reused, flip at byte {pos}"
        );
        assert_eq!(
            stats.truncated_bytes,
            bytes.len() as u64 - boundary(&fresh, hit),
            "reused, flip at byte {pos}: the corrupt record and what follows it are cut"
        );
    }
}

/// A seeded history of `len` mutations over `regs` registers with
/// `value_len`-byte values, timestamps out of order and repeating, so late
/// pairs land below the two an object keeps.
fn object_history(seed: u64, len: usize, regs: u64, value_len: usize) -> Vec<Req> {
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| {
            let reg = RegId::Writer(rng.gen_range(0, regs) as u32);
            let ts = 1 + rng.gen_range(0, 12);
            let mut val = vec![0u8; value_len];
            val[..8].copy_from_slice(&(1000 + ts).to_be_bytes());
            let pair = Stamped::plain(TsVal::new(Timestamp(ts), Value::from_bytes(val)));
            match rng.gen_range(0, 2) {
                0 => Req::Store { reg, pair },
                1 => Req::PreWrite { reg, pair },
                _ => Req::Commit { reg, pair },
            }
        })
        .collect()
}

/// The same guarantee one level up: a durable object whose WAL loses a
/// tail recovers exactly the state some prefix of its acked mutations
/// produces — same registers, same timestamps, the same two remembered
/// pairs — wherever the compacting snapshots fell. Two histories put them
/// where each half of the compaction rule governs: three registers of
/// 8-byte values, whose snapshot is about as long as `SNAPSHOT_EVERY`
/// records, so the count sets the spacing, and 64 registers of 1 KiB
/// values, whose snapshot soon outweighs many times that, so the byte rule
/// spaces them further apart.
#[test]
fn torn_object_logs_recover_prefix_consistent_register_state() {
    const SNAPSHOT_EVERY: usize = 8;
    let dir = TempDir::new("torture-object");
    let reg_of = |req: &Req| match req {
        Req::Store { reg, .. } | Req::PreWrite { reg, .. } | Req::Commit { reg, .. } => *reg,
        Req::Collect { .. } => unreachable!("the history is mutations"),
    };
    let small = object_history(0xD15C, 40, 3, 8);
    // Well over five mutations per register, so a snapshot boundary falls
    // inside every register's sequence.
    for reg in (0..3).map(RegId::Writer) {
        assert!(small.iter().filter(|req| reg_of(req) == reg).count() >= 5);
    }
    let large = object_history(0xB16, 160, 64, 1024);

    let id = ObjectId(0);
    for (case, history) in [small, large].iter().enumerate() {
        let mut snapshot_points = vec![0];
        for written in 0..=history.len() {
            let obj_dir = dir.path().join(format!("{case}-written-{written}"));
            let (mut obj, _) =
                DurableObject::open(&obj_dir, id, SNAPSHOT_EVERY as u64).expect("open");
            for req in &history[..written] {
                obj.on_request(ClientId::writer(), req).expect("acked");
            }
            drop(obj);
            // The WAL holds what was logged since the last snapshot; tear it
            // at every record boundary, longest first.
            let wal_path = obj_dir.join("obj-0.wal");
            let (_, logged, _) = Wal::open(&wal_path).expect("inspect");
            let snapshotted = written - logged.len();
            if snapshot_points.last() != Some(&snapshotted) {
                snapshot_points.push(snapshotted);
            }
            for keep in (0..=logged.len()).rev() {
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&wal_path)
                    .expect("open for truncation");
                f.set_len(boundary(&logged, keep)).expect("truncate");
                drop(f);

                let (recovered, stats) =
                    DurableObject::open(&obj_dir, id, SNAPSHOT_EVERY as u64).expect("recover");
                assert_eq!(stats.wal_records, keep as u64);
                // Reference: a fresh in-memory object given only the prefix.
                let mut reference = HonestObject::new();
                for req in &history[..snapshotted + keep] {
                    reference.apply(req);
                }
                assert_eq!(
                    recovered.object().export_regs(),
                    reference.export_regs(),
                    "{written} written, {keep} of the log kept: recovered state must equal \
                     the prefix state"
                );
            }
        }
        // Where the snapshots fell: the first after `SNAPSHOT_EVERY`
        // mutations, the rest no sooner, and — for the large registers —
        // many records later once the byte rule governs.
        let gaps: Vec<usize> = snapshot_points.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.len() >= 3 && gaps[0] == SNAPSHOT_EVERY, "{gaps:?}");
        assert!(gaps.iter().all(|&gap| gap >= SNAPSHOT_EVERY), "{gaps:?}");
        assert_eq!(
            gaps.iter().any(|&gap| gap > 4 * SNAPSHOT_EVERY),
            case == 1,
            "{gaps:?}"
        );
    }
}

/// The bytes of an object's three files: log, snapshot and tmp sibling.
#[derive(Clone, Debug)]
struct Files {
    wal: Vec<u8>,
    snap: Option<Vec<u8>>,
    tmp: Option<Vec<u8>>,
}

const SMALL_EVERY: u64 = 8;

impl Files {
    fn read(dir: &Path) -> Files {
        let file = |ext| std::fs::read(dir.join(format!("obj-0.{ext}"))).ok();
        Files {
            wal: file("wal").expect("the log exists"),
            snap: file("snap"),
            tmp: file("tmp"),
        }
    }

    /// Whether the mutation that left these files compacted: only then is
    /// a log's first record slot its terminator.
    fn just_compacted(&self) -> bool {
        self.wal
            .get(FILE_HEADER_LEN..FILE_HEADER_LEN + RECORD_HEADER_LEN)
            == Some(&TERMINATOR)
    }

    /// Lay these files out in `dir` and recover the object from them.
    fn recover(&self, dir: &Path) -> (DurableObject, RecoveryStats) {
        std::fs::create_dir_all(dir).expect("create dir");
        for (ext, bytes) in [
            ("wal", Some(&self.wal)),
            ("snap", self.snap.as_ref()),
            ("tmp", self.tmp.as_ref()),
        ] {
            let path = dir.join(format!("obj-0.{ext}"));
            match bytes {
                Some(bytes) => std::fs::write(path, bytes).expect("write file"),
                None => drop(std::fs::remove_file(path)),
            }
        }
        DurableObject::open(dir, ObjectId(0), SMALL_EVERY).expect("recover")
    }
}

/// Drive a durable object through `history` one mutation at a time, in
/// `dir`: the files after each mutation (index 0: fresh).
fn files_after_each(dir: &Path, history: &[Req]) -> Vec<Files> {
    let (mut obj, _) = DurableObject::open(dir, ObjectId(0), SMALL_EVERY).expect("open");
    let mut files = vec![Files::read(dir)];
    for req in history {
        obj.on_request(ClientId::writer(), req).expect("acked");
        files.push(Files::read(dir));
    }
    files
}

/// The register state a fresh object fed `prefix` holds.
fn prefix_state(prefix: &[Req]) -> Vec<(RegId, ObjectView)> {
    let mut reference = HonestObject::new();
    for req in prefix {
        reference.apply(req);
    }
    reference.export_regs()
}

/// A log holding `wal` once `req` is appended to it, as the object appends
/// (a terminator after it in a reused log).
fn with_appended(scratch: &Path, wal: &[u8], req: &Req) -> Vec<u8> {
    let path = scratch.join("append.wal");
    std::fs::write(&path, wal).expect("write log");
    let (mut log, _, _) = Wal::open(&path).expect("open log");
    let mut payload = Vec::new();
    rastor_core::codec::encode_req(req, &mut payload);
    log.append(&payload).expect("append");
    std::fs::read(&path).expect("read log")
}

/// A history of equal-sized records over three registers, whose snapshot
/// is about as long as `SMALL_EVERY` records: the count sets the spacing,
/// every generation of the log is as long as the one before, and the
/// records behind a terminator line up with the new ones.
fn small_history() -> Vec<Req> {
    object_history(0x5EED, 72, 3, 8)
}

/// A crash while a compaction writes its snapshot over the tmp file — the
/// new snapshot half written over the one before last — leaves the
/// snapshot and the log that mutation was appended to: recovery reads the
/// snapshot and replays the log, never the tmp file, and the next
/// compaction overwrites the half-written tmp file in place.
#[test]
fn a_half_overwritten_tmp_beside_an_intact_snapshot_is_never_read() {
    let dir = TempDir::new("torture-half-tmp");
    let history = small_history();
    let files = files_after_each(&dir.path().join("run"), &history);
    let mut states = 0;
    for n in (1..=history.len()).filter(|&n| files[n].just_compacted()) {
        let (before, after) = (&files[n - 1], &files[n]);
        let (Some(old_tmp), Some(new_snap)) = (&before.tmp, &after.snap) else {
            continue; // no tmp file before the second snapshot
        };
        for landed in [1, new_snap.len() / 2, new_snap.len() - 1] {
            let mut tmp = new_snap[..landed].to_vec();
            tmp.extend_from_slice(old_tmp.get(landed..).unwrap_or_default());
            let crashed = Files {
                wal: with_appended(dir.path(), &before.wal, &history[n - 1]),
                snap: before.snap.clone(),
                tmp: Some(tmp),
            };
            let obj_dir = dir.path().join(format!("{n}-{landed}"));
            let (mut obj, _) = crashed.recover(&obj_dir);
            assert_eq!(
                obj.object().export_regs(),
                prefix_state(&history[..n]),
                "mutation {n}, {landed} bytes landed"
            );
            for req in &history[n..] {
                obj.on_request(ClientId::writer(), req).expect("acked");
            }
            drop(obj);
            let (obj, _) = DurableObject::open(&obj_dir, ObjectId(0), SMALL_EVERY).expect("reopen");
            assert_eq!(
                obj.object().export_regs(),
                prefix_state(&history),
                "mutation {n}, {landed} bytes landed, then the rest"
            );
            states += 1;
        }
    }
    assert!(states >= 12, "{states} crash states");
}

/// A crash after the snapshot and its tmp sibling swapped names, before
/// the log was reset, leaves the new snapshot beside the log it covers:
/// replaying covered records changes nothing.
#[test]
fn files_swapped_before_the_log_reset_recover_the_acked_prefix() {
    let dir = TempDir::new("torture-swapped");
    let history = small_history();
    let files = files_after_each(&dir.path().join("run"), &history);
    let mut states = 0;
    for n in (1..=history.len()).filter(|&n| files[n].just_compacted()) {
        let crashed = Files {
            wal: with_appended(dir.path(), &files[n - 1].wal, &history[n - 1]),
            ..files[n].clone()
        };
        let (obj, stats) = crashed.recover(&dir.path().join(n.to_string()));
        assert!(stats.wal_records >= SMALL_EVERY, "mutation {n}: {stats:?}");
        assert_eq!(stats.truncated_bytes, 0, "mutation {n}");
        assert_eq!(
            obj.object().export_regs(),
            prefix_state(&history[..n]),
            "mutation {n}"
        );
        states += 1;
    }
    assert!(states >= 6, "{states} crash states");
}

/// The appends written over a reused log with older records behind its
/// terminator: for each mutation that did not compact, the files before
/// and after it, and where its record starts and ends in the log.
fn reused_appends(files: &[Files]) -> impl Iterator<Item = (usize, &Files, &Files, usize, usize)> {
    (1..files.len()).filter_map(move |n| {
        let (before, after) = (&files[n - 1], &files[n]);
        // A reused log ends each generation with a terminator; the record
        // is written over it, and older records lie behind it.
        let start = before
            .wal
            .windows(RECORD_HEADER_LEN)
            .position(|w| w == TERMINATOR)?;
        let stale = before.wal.len() > start + RECORD_HEADER_LEN;
        if after.just_compacted() || !stale {
            return None;
        }
        let len = u32::from_le_bytes(after.wal[start..start + 4].try_into().expect("4 bytes"));
        Some((
            n,
            before,
            after,
            start,
            start + RECORD_HEADER_LEN + len as usize,
        ))
    })
}

/// A power cut mid-append over a reused log leaves part of the record and,
/// behind it, the terminator it was written over and older records: the
/// torn record is cut and counted, and exactly the prefix before it
/// replays.
#[test]
fn a_reused_log_torn_mid_record_over_stale_bytes_replays_exactly_the_prefix() {
    let dir = TempDir::new("torture-reused-torn");
    let history = small_history();
    let files = files_after_each(&dir.path().join("run"), &history);
    let mut states = 0;
    for (n, before, after, start, end) in reused_appends(&files) {
        for landed in start + 1..end {
            // A tear whose lost bytes equal the older ones behind them lost
            // nothing: the record is whole (the next test's shape).
            if after.wal.get(landed..end) == before.wal.get(landed..end) {
                continue;
            }
            let mut wal = after.wal[..landed].to_vec();
            wal.extend_from_slice(before.wal.get(landed..).unwrap_or_default());
            let crashed = Files {
                wal,
                ..after.clone()
            };
            let (obj, stats) = crashed.recover(&dir.path().join(format!("{n}-{landed}")));
            assert_eq!(
                stats.truncated_bytes,
                (crashed.wal.len() - start) as u64,
                "mutation {n}, torn at {landed}"
            );
            assert_eq!(
                obj.object().export_regs(),
                prefix_state(&history[..n - 1]),
                "mutation {n}, torn at {landed}"
            );
            states += 1;
        }
    }
    assert!(states >= 100, "{states} crash states");
}

/// A power cut that kept an appended record but not the terminator after
/// it exposes the older generation's records behind it, which replay
/// too: they are covered by the snapshot, so the recovered registers are
/// the acked prefix's, whatever else replayed.
#[test]
fn a_record_whose_terminator_did_not_land_recovers_the_prefix_state() {
    let dir = TempDir::new("torture-no-terminator");
    let history = small_history();
    let files = files_after_each(&dir.path().join("run"), &history);
    let (mut states, mut stale_replays) = (0, 0);
    for (n, before, after, start, end) in reused_appends(&files) {
        let mut wal = after.wal[..end].to_vec();
        wal.extend_from_slice(before.wal.get(end..).unwrap_or_default());
        // The records are of one size: this generation's count.
        let logged = (start - FILE_HEADER_LEN) / (end - start) + 1;
        let crashed = Files {
            wal,
            ..after.clone()
        };
        let (obj, stats) = crashed.recover(&dir.path().join(n.to_string()));
        assert!(
            stats.wal_records >= logged as u64,
            "mutation {n}: {stats:?}"
        );
        stale_replays += usize::from(stats.wal_records > logged as u64);
        assert_eq!(
            obj.object().export_regs(),
            prefix_state(&history[..n]),
            "mutation {n}"
        );
        states += 1;
    }
    assert!(states >= 20, "{states} crash states");
    assert!(
        stale_replays * 2 >= states,
        "older records replayed in {stale_replays} of {states}"
    );
}
