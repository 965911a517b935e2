//! Recovery stats over a reused log, read off `store.wal_truncated_bytes`.
//! Compaction resets a log in place, so an older generation's records lie
//! behind the current one's terminator: a clean reopen must not count them
//! as a torn tail, and a torn record must still be cut and counted. The
//! counter is process-global, so this file is its own test binary and
//! holds a single test.

use rastor_common::{ClientId, ObjectId, RegId, Timestamp, TsVal, Value};
use rastor_core::msg::{Req, Stamped};
use rastor_obs::{names, Registry};
use rastor_sim::ObjectBehavior;
use rastor_store::wal::{FILE_HEADER_LEN, RECORD_HEADER_LEN};
use rastor_store::{DurableObject, TempDir};

#[test]
fn a_reset_log_reopens_without_a_cut_and_a_torn_record_in_it_is_counted() {
    let truncated = || Registry::global().counter(names::STORE_WAL_TRUNCATED).get();
    let dir = TempDir::new("recovery-stats");
    let (id, every) = (ObjectId(0), 4);
    let open = || DurableObject::open(dir.path(), id, every).expect("open");
    let (mut obj, _) = open();
    // Two compactions, then one record over the older generation.
    for ts in 1..=2 * every + 1 {
        let pair = Stamped::plain(TsVal::new(Timestamp(ts), Value::from_u64(ts)));
        obj.on_request(
            ClientId::writer(),
            &Req::Commit {
                reg: RegId::WRITER,
                pair,
            },
        )
        .expect("acked");
    }
    drop(obj);
    let wal = dir.path().join("obj-0.wal");
    let len = std::fs::metadata(&wal).expect("log").len();

    let before = truncated();
    let (obj, stats) = open();
    assert_eq!((stats.snapshot_regs, stats.wal_records), (1, 1));
    assert_eq!(stats.truncated_bytes, 0, "a clean shutdown");
    assert_eq!(truncated(), before, "a clean shutdown");
    assert_eq!(std::fs::metadata(&wal).expect("log").len(), len);
    assert_eq!(
        obj.object().view_of(RegId::WRITER).w.pair.ts.0,
        2 * every + 1
    );
    drop(obj);

    // Tear the record: one flipped payload bit fails its CRC.
    let mut bytes = std::fs::read(&wal).expect("read log");
    bytes[FILE_HEADER_LEN + RECORD_HEADER_LEN] ^= 1;
    std::fs::write(&wal, &bytes).expect("write log");
    let before = truncated();
    let (obj, stats) = open();
    let cut = len - FILE_HEADER_LEN as u64;
    assert_eq!((stats.wal_records, stats.truncated_bytes), (0, cut));
    assert_eq!(truncated() - before, cut);
    assert_eq!(obj.object().view_of(RegId::WRITER).w.pair.ts.0, 2 * every);
}
