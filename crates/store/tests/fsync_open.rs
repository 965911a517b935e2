//! Fsync mode covers every log it writes, read off `store.wal_fsyncs`. A log
//! opened in fsync mode syncs after each append, and a log it creates syncs
//! its header and its directory entry before anything is acked into it —
//! an object's log and an auxiliary log (the kv key directory's) alike.
//! The counter is process-global, so this file is its own test binary and
//! holds a single test.

use rastor_common::{ClientId, ObjectId, RegId, Timestamp, TsVal, Value};
use rastor_core::msg::{Req, Stamped};
use rastor_obs::{names, Registry};
use rastor_store::{Durability, TempDir, WalBacked};

#[test]
fn fresh_logs_sync_at_open_and_every_append_syncs_only_with_fsync_on() {
    let syncs = || Registry::global().counter(names::STORE_WAL_FSYNCS).get();
    let paid = |before: u64| syncs() - before;
    for fsync in [true, false] {
        let dir = TempDir::new("fsync-open");
        let store = WalBacked::new(dir.path())
            .with_snapshot_every(u64::MAX)
            .with_fsync(fsync);
        // Per sync the fsync mode promises: a fresh log's file and
        // directory are two, an append one.
        let want = |n: u64| if fsync { n } else { 0 };

        let before = syncs();
        let (mut obj, _) = store.object(ObjectId(0)).expect("fresh object");
        assert_eq!(paid(before), want(2), "fsync {fsync}: a fresh object log");
        let before = syncs();
        let pair = Stamped::plain(TsVal::new(Timestamp(1), Value::from_u64(1)));
        obj.on_request(
            ClientId::writer(),
            &Req::Commit {
                reg: RegId::WRITER,
                pair,
            },
        )
        .expect("acked");
        assert_eq!(paid(before), want(1), "fsync {fsync}: an object append");

        let before = syncs();
        let (mut keys, _) = store
            .aux_log("keys")
            .expect("open")
            .expect("a WAL-backed scope persists");
        assert_eq!(paid(before), want(2), "fsync {fsync}: a fresh aux log");
        for key in ["a", "b", "c"] {
            let before = syncs();
            keys.append(key.as_bytes()).expect("append");
            assert_eq!(paid(before), want(1), "fsync {fsync}: aux append {key}");
        }
        drop((obj, keys));

        // Reopening finds both logs on disk: nothing to create, no sync.
        let before = syncs();
        let (_, stats) = store.object(ObjectId(0)).expect("reopen object");
        let (_, records) = store.aux_log("keys").expect("reopen").expect("persists");
        assert_eq!((stats.wal_records, records.len()), (1, 3));
        assert_eq!(paid(before), 0, "fsync {fsync}: a reopen");
    }
}
