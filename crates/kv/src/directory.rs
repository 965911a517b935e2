//! One shard's key directory: `key → dense per-shard key id` (the id names
//! the key's register group on the shard's objects), plus — on WAL-backed
//! stores — its durable twin, both behind one lock.
//!
//! The directory is read-mostly: [`KeyDirectory::get`] is one read lock and
//! one hash probe, and it sits on every operation; only the first put of a
//! key takes the write lock ([`KeyDirectory::get_or_alloc`]).

use rastor_common::{Error, Result};
use rastor_store::Durability;
use std::collections::HashMap;
use std::sync::RwLock;

/// Appends one record to the directory's durable log.
type Append = Box<dyn FnMut(&[u8]) -> Result<()> + Send + Sync>;

/// The durable twin of the id map (WAL-backed stores only): one record per
/// allocated key, appended *before* the in-memory insert, so key ids —
/// which name register groups on the objects — survive a cold start and
/// are never re-allocated to a different key. Record `i` holds the UTF-8
/// key that owns id `i`.
enum DirLog {
    /// A non-persistent scope: ids live and die with the process.
    Ephemeral,
    /// The log's append handle.
    Open(Append),
    /// A **broken** log: a failed append may have left a torn record on
    /// disk, and any later successful append would land after it — lost at
    /// the next replay's torn-tail truncation, desynchronizing key-id
    /// assignment from the log (two keys aliasing one register group after
    /// a cold start). Breakage is therefore sticky: once an append fails,
    /// every further allocation on the shard is refused.
    Broken,
}

struct State {
    ids: HashMap<String, u32>,
    log: DirLog,
}

/// The key ids of one shard and their optional durable log.
pub(crate) struct KeyDirectory {
    state: RwLock<State>,
}

impl KeyDirectory {
    /// Open one shard's key directory from its durability scope: the
    /// replayed map (record `i` owns key id `i`) plus the append handle, or
    /// an empty ephemeral map for non-persistent scopes.
    pub(crate) fn open(durability: &dyn Durability) -> Result<KeyDirectory> {
        let (ids, log) = match durability.aux_log("keys")? {
            None => (HashMap::new(), DirLog::Ephemeral),
            Some((mut wal, records)) => {
                let mut ids = HashMap::with_capacity(records.len());
                for (kid, rec) in records.into_iter().enumerate() {
                    let key = String::from_utf8(rec).map_err(|_| Error::InvariantViolation {
                        detail: format!("key directory record {kid} is not UTF-8"),
                    })?;
                    ids.insert(key, kid as u32);
                }
                (ids, DirLog::Open(Box::new(move |rec| wal.append(rec))))
            }
        };
        Ok(KeyDirectory {
            state: RwLock::new(State { ids, log }),
        })
    }

    /// The id of `key` if it has been written before. The steady-state
    /// path — one read lock, no allocation.
    pub(crate) fn get(&self, key: &str) -> Option<u32> {
        let state = self.state.read().expect("key directory lock");
        state.ids.get(key).copied()
    }

    /// The id of `key`, allocating one on its first put. On WAL-backed
    /// stores the allocation is logged **before** it becomes visible, so a
    /// key id can never be re-allocated to a different key across a
    /// restart (two keys sharing a register group would alias their
    /// histories).
    pub(crate) fn get_or_alloc(&self, key: &str) -> Result<u32> {
        if let Some(kid) = self.get(key) {
            return Ok(kid);
        }
        let mut state = self.state.write().expect("key directory lock");
        if let Some(kid) = state.ids.get(key) {
            return Ok(*kid); // lost the alloc race: someone else logged it
        }
        let kid = state.ids.len() as u32;
        match &mut state.log {
            DirLog::Ephemeral => {}
            DirLog::Open(append) => {
                if let Err(e) = append(key.as_bytes()) {
                    // The failed append may have torn the log tail; a
                    // later append would be silently lost to replay
                    // truncation. Break the log for good (see
                    // `DirLog::Broken`).
                    state.log = DirLog::Broken;
                    return Err(e);
                }
            }
            DirLog::Broken => {
                return Err(Error::InvariantViolation {
                    detail: "key directory log broken by an earlier failed append; \
                             refusing new key allocations"
                        .into(),
                });
            }
        }
        state.ids.insert(key.to_string(), kid);
        Ok(kid)
    }

    /// Number of keys allocated so far.
    pub(crate) fn len(&self) -> usize {
        self.state.read().expect("key directory lock").ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier, Mutex};

    /// A directory whose log records into `records` and fails every append
    /// once `fail` is set.
    fn logged(records: &Arc<Mutex<Vec<String>>>, fail: &Arc<Mutex<bool>>) -> KeyDirectory {
        let (records, fail) = (Arc::clone(records), Arc::clone(fail));
        let append: Append = Box::new(move |rec| {
            if *fail.lock().unwrap() {
                return Err(Error::io("appending", &std::io::Error::other("disk full")));
            }
            let key = String::from_utf8(rec.to_vec()).unwrap();
            records.lock().unwrap().push(key);
            Ok(())
        });
        KeyDirectory {
            state: RwLock::new(State {
                ids: HashMap::new(),
                log: DirLog::Open(append),
            }),
        }
    }

    #[test]
    fn a_failed_append_breaks_allocation_for_good_but_not_lookups() {
        let (records, fail) = (Arc::default(), Arc::default());
        let dir = logged(&records, &fail);
        assert_eq!(dir.get_or_alloc("a"), Ok(0));
        assert_eq!(dir.get_or_alloc("b"), Ok(1));

        *fail.lock().unwrap() = true;
        assert!(matches!(dir.get_or_alloc("c"), Err(Error::Io { .. })));
        assert_eq!(dir.get("c"), None, "an unlogged id never becomes visible");

        // The disk recovering does not un-break the log: a record appended
        // now could sit behind a torn one and vanish at the next replay.
        *fail.lock().unwrap() = false;
        for key in ["c", "d"] {
            assert!(
                matches!(dir.get_or_alloc(key), Err(Error::InvariantViolation { .. })),
                "{key}"
            );
        }
        assert_eq!(*records.lock().unwrap(), ["a", "b"]);
        // Keys allocated before the failure keep working, through both
        // entry points.
        assert_eq!((dir.get("a"), dir.get("b")), (Some(0), Some(1)));
        assert_eq!(dir.get_or_alloc("b"), Ok(1));
        assert_eq!(dir.len(), 2);
    }

    #[test]
    fn racing_allocations_of_one_key_get_one_id() {
        const KEYS: usize = 200;
        let (records, fail) = (Arc::default(), Arc::default());
        let dir = logged(&records, &fail);
        let start = Barrier::new(2);
        let race = || -> Vec<u32> {
            (0..KEYS)
                .map(|i| {
                    // Both threads reach each new key together.
                    start.wait();
                    dir.get_or_alloc(&format!("k{i}")).unwrap()
                })
                .collect()
        };
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(race);
            (race(), other.join().unwrap())
        });
        assert_eq!(a, b, "both racers see the same id for every key");
        assert_eq!(a, (0..KEYS as u32).collect::<Vec<_>>(), "ids stay dense");
        // One log record per key, and record `i` names the owner of id `i`.
        let records = records.lock().unwrap();
        assert_eq!(records.len(), KEYS);
        assert!(records
            .iter()
            .enumerate()
            .all(|(i, k)| *k == format!("k{i}")));
    }
}
