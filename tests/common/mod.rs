//! Post-run assertions shared by the kv soak suites (`sharded_kv.rs`,
//! `net_kv.rs`): what a finished `workload::Run` must look like.

use rastor::kv::workload::Run;
use rastor::kv::ShardedKvStore;

/// Every op completed (inside its timeout) and every key's history is
/// atomic — the run's one verdict is empty.
pub fn assert_clean(run: &Run, what: &str) {
    let verdict = run.verdict();
    assert!(verdict.is_empty(), "{what}: {verdict:#?}");
    assert_eq!(
        run.records.len(),
        run.mix.total_ops(),
        "every operation must be recorded"
    );
}

/// After quiescence a fresh read of every written key returns at least the
/// newest completed write's timestamp.
pub fn assert_final_reads_see_newest_writes(store: &ShardedKvStore, run: &Run) {
    let mut h = store.handle(0).expect("handle");
    for (key, hist) in run.histories() {
        if let Some(max_ts) = hist.writes().map(|w| w.ts).max() {
            let pair = h.get_pair(&key).expect("final read");
            assert!(
                pair.ts >= max_ts,
                "final read of {key} returned {:?}, below completed write {max_ts:?}",
                pair.ts
            );
        }
    }
}
