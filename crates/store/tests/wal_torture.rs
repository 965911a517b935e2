//! WAL torture: seeded random truncation and corruption of the log tail,
//! asserting that replay always recovers a **prefix-consistent** state —
//! the exact records (and, at the object level, the exact register state)
//! produced by some prefix of the original mutation history, never a
//! mangled or reordered one.

use rastor_common::{ClientId, ObjectId, RegId, SplitMix64, Timestamp, TsVal, Value};
use rastor_core::msg::{Req, Stamped};
use rastor_core::object::HonestObject;
use rastor_sim::ObjectBehavior;
use rastor_store::wal::{ReplayStats, Wal, FILE_HEADER_LEN, RECORD_HEADER_LEN};
use rastor_store::{DurableObject, TempDir};
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
