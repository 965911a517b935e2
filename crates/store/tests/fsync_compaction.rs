//! Power-loss safety of compaction, read off `store.wal_fsyncs`. A
//! compaction resets the log its snapshot replaces; with fsync on, a power
//! loss must not be able to keep that reset and lose the snapshot, so the
//! snapshot file and its directory are synced before the reset. The
//! counter is process-global, so this file is its own test binary and
//! holds a single test.

use rastor_common::{ClientId, ObjectId, RegId, Timestamp, TsVal, Value};
use rastor_core::msg::{Req, Stamped};
use rastor_obs::{names, Registry};
use rastor_sim::ObjectBehavior;
use rastor_store::{DurableObject, TempDir};

#[test]
fn a_compaction_syncs_its_snapshot_and_directory_only_with_fsync_on() {
    let registry = Registry::global();
    let count = |name| registry.counter(name).get();
    let every = 4;
    for fsync in [true, false] {
        let dir = TempDir::new("fsync-compaction");
        // Object 0 starts its cycle at phase 0: it compacts on the
        // `every`-th mutation, since a fresh object has no snapshot to
        // outgrow.
        let (mut obj, _) =
            DurableObject::open_with(dir.path(), ObjectId(0), every, fsync).expect("open");
        for ts in 1..=every {
            let (syncs, snapshots) = (
                count(names::STORE_WAL_FSYNCS),
                count(names::STORE_SNAPSHOTS),
            );
            let pair = Stamped::plain(TsVal::new(Timestamp(ts), Value::from_u64(ts)));
            obj.on_request(
                ClientId::writer(),
                &Req::Commit {
                    reg: RegId::WRITER,
                    pair,
                },
            )
            .expect("acked");
            let compacted = count(names::STORE_SNAPSHOTS) - snapshots;
            assert_eq!(compacted, u64::from(ts == every), "mutation {ts}");
            // One fdatasync per logged mutation, and two more — the
            // snapshot file, then its directory — when it compacts.
            let want = if fsync { 1 + 2 * compacted } else { 0 };
            assert_eq!(
                count(names::STORE_WAL_FSYNCS) - syncs,
                want,
                "fsync {fsync}, mutation {ts}"
            );
        }
    }
}
