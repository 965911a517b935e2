//! The sharded, concurrent kv store: consistent-hash keys across `N`
//! independent `3t + 1` object clusters, with a pool of per-thread client
//! handles doing MWMR puts and atomic gets.
//!
//! Topology: every shard is its own cluster (own objects, own fault
//! budget) reached through a [`Transport`] — a [`ThreadCluster`] the store
//! spawned in process, or anything else that speaks the trait;
//! [`ShardRouter`] maps keys onto shards. Within a shard, each key owns one
//! MWMR register group (`RegGroup::keyed`): `H` writer registers and `H`
//! write-back registers for a store with `H` handles, all multiplexed over
//! the same `3t + 1` objects.
//!
//! Concurrency model: a [`ShardedKvStore`] is cheaply cloneable (an `Arc`
//! around the shards) and every OS thread works through its own
//! [`KvHandle`], identified by a handle id `h < H`. Handle `h` is writer
//! `h` and reader `h` of every key group, so puts from different handles
//! are genuine multi-writer writes (ordered by `(seq, handle)` tags) and
//! gets inherit atomicity from the write-back transformation. One handle
//! must not be shared between threads (it is `&mut self`) and each id is
//! issued to at most one live handle at a time. What a handle does with
//! its id — pipelining, the per-key rule, the blocking calls — is
//! [`crate::handle`]'s half of the story.

use crate::config::StoreConfig;
use crate::directory::KeyDirectory;
use crate::handle::KvHandle;
use crate::router::ShardRouter;
use rastor_common::{ClusterConfig, Error, ObjectId, Result};
use rastor_core::msg::{Rep, Req};
use rastor_core::ReadMode;
use rastor_obs::Registry;
use rastor_sim::runtime::{RepEnvelope, ReqEnvelope, ThreadCluster, Transport};
use rastor_sim::{ChaosCfg, ObjectBehavior, ObjectHost, ReplySink};
use rastor_store::Durability;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What a shard's traffic runs over.
type ShardTransport = Box<dyn Transport<Req, Rep> + Send + Sync>;

/// A shard's substrate: its transport, plus the cluster behind it when
/// this store spawned that in process.
type Substrate = (ShardTransport, Option<Arc<ThreadCluster<Req, Rep>>>);

/// One shard: an independent `3t + 1` cluster plus the key-id directory
/// for the keys routed here.
pub(crate) struct Shard {
    /// The cluster, whatever substrate it lives on: object hosts in this
    /// process or a socket connection to objects across a network.
    transport: ShardTransport,
    /// The cluster behind `transport` when this store spawned it in
    /// process — the local fault-injection surface
    /// ([`ShardedKvStore::crash_object`]). Remote shards inject faults at
    /// their servers.
    local: Option<Arc<ThreadCluster<Req, Rep>>>,
    /// key → dense per-shard key id (allocates register groups), durable
    /// on WAL-backed stores.
    pub(crate) keys: KeyDirectory,
}

impl Transport<Req, Rep> for Shard {
    fn send_frames(&self, env: ReqEnvelope<Req>, reply_to: &Sender<RepEnvelope<Rep>>) {
        self.transport.send_frames(env, reply_to)
    }
}

/// What a store's clones and its handles share.
pub(crate) struct Inner {
    pub(crate) cfg: ClusterConfig,
    pub(crate) router: ShardRouter,
    pub(crate) shards: Vec<Shard>,
    pub(crate) num_handles: u32,
    /// Read mode every handle's gets run in (see [`StoreConfig::fast_reads`]).
    pub(crate) read_mode: ReadMode,
    /// The store-wide durability policy (scoped per shard on use).
    durability: Arc<dyn Durability>,
    /// Which handle ids are currently issued; a handle id maps to fixed
    /// writer/reader registers, so two live handles with one id would
    /// produce colliding MWMR tags. Issuance is exclusive; dropping a
    /// [`KvHandle`] returns its id to the pool.
    pub(crate) taken: Mutex<Vec<bool>>,
    /// Registry the handles record kv-seam metrics into (see
    /// [`StoreConfig::metrics`]).
    pub(crate) metrics: Option<Arc<Registry>>,
}

/// A robust key-value store sharded over independent object clusters.
///
/// Clone the store (cheap, `Arc`-backed) into each worker thread and give
/// every thread its own [`KvHandle`]:
///
/// ```
/// use rastor_kv::{ShardedKvStore, StoreConfig};
/// use rastor_common::Value;
///
/// let store = ShardedKvStore::spawn(StoreConfig::new(1, 2, 2))?;
/// let mut h0 = store.handle(0)?;
/// let mut h1 = store.handle(1)?;
/// h0.put("user:42", Value::from_bytes(*b"alice"))?;
/// assert_eq!(h1.get("user:42")?.unwrap().as_bytes(), b"alice");
/// assert_eq!(h1.get("user:43")?, None);
/// # Ok::<(), rastor_common::Error>(())
/// ```
#[derive(Clone)]
pub struct ShardedKvStore {
    inner: Arc<Inner>,
}

impl ShardedKvStore {
    /// Spawn the store with all-honest objects (persisted per
    /// `cfg.durability`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InsufficientResilience`] if the per-shard fault
    /// budget is invalid, [`Error::InvariantViolation`] for an empty shard
    /// or handle pool, and I/O or corruption errors from a
    /// [`WalBacked`](rastor_store::WalBacked) durability opening its files.
    pub fn spawn(cfg: StoreConfig) -> Result<ShardedKvStore> {
        ShardedKvStore::spawn_with(cfg, |_, _| None)
    }

    /// Spawn the store, choosing each object's behavior by `(shard,
    /// object)` — the fault-injection hook: return
    /// `Some(byzantine_behavior)` for up to `t` objects per shard, and
    /// `None` for the rest to get the default durability-managed honest
    /// object. (Custom behaviors are never persisted: durability vouches
    /// for honest state only.)
    ///
    /// # Errors
    ///
    /// As [`ShardedKvStore::spawn`].
    pub fn spawn_with(
        cfg: StoreConfig,
        mut behavior: impl FnMut(usize, ObjectId) -> Option<Box<dyn ObjectBehavior<Req, Rep> + Send>>,
    ) -> Result<ShardedKvStore> {
        let spawn_shard = |s: usize, cluster_cfg: &ClusterConfig| {
            let shard_durability = cfg.durability.for_shard(s);
            let behaviors = (0..cluster_cfg.num_objects())
                .map(|o| {
                    let oid = ObjectId(o as u32);
                    match behavior(s, oid) {
                        Some(custom) => Ok(custom),
                        None => Ok(shard_durability.object(oid)?.0),
                    }
                })
                .collect::<Result<Vec<_>>>()?;
            let jitter = cfg.jitter.map(|j| Box::new(ChaosCfg::jitter_only(j)) as _);
            let cluster = Arc::new(ThreadCluster::spawn(behaviors, jitter));
            Ok((
                Box::new(Arc::clone(&cluster)) as ShardTransport,
                Some(cluster),
            ))
        };
        ShardedKvStore::assemble(
            cfg.t,
            cfg.num_shards,
            cfg.num_handles,
            cfg.fast_reads,
            spawn_shard,
            Arc::clone(&cfg.durability),
            cfg.metrics,
        )
    }

    /// Build the store over pre-connected **remote shards**: one
    /// [`Transport`] per shard (e.g. `rastor_net::NetCluster`s speaking to
    /// socket-backed object servers). Each
    /// transport must reach an independent `3t + 1` object cluster; the
    /// store's routing, register-group, and pipelining machinery is
    /// identical to the locally spawned case — only the substrate differs.
    ///
    /// [`ShardedKvStore::crash_object`] is unavailable on remote shards
    /// (inject faults at the servers instead).
    ///
    /// `durability` persists the *client-side* key directory only (the
    /// remote objects persist — or don't — at their servers): pass the
    /// same wal-backed config as the servers to make cold starts recover
    /// key routing, or [`InMemory`](rastor_store::InMemory) to keep the
    /// directory ephemeral.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InsufficientResilience`] if `t` is invalid,
    /// [`Error::InvariantViolation`] for an empty shard or handle pool,
    /// and I/O errors from opening the key directory.
    pub fn over_transports(
        t: usize,
        num_handles: u32,
        fast_reads: bool,
        transports: Vec<Box<dyn Transport<Req, Rep> + Send + Sync>>,
        durability: Arc<dyn Durability>,
        metrics: Option<Arc<Registry>>,
    ) -> Result<ShardedKvStore> {
        let mut transports = transports.into_iter();
        ShardedKvStore::assemble(
            t,
            transports.len(),
            num_handles,
            fast_reads,
            |_, _| Ok((transports.next().expect("one transport per shard"), None)),
            durability,
            metrics,
        )
    }

    /// The one way a store is put together: validate the shape, obtain
    /// each shard's substrate from `substrate(shard, cluster_cfg)`, open
    /// its key directory.
    fn assemble(
        t: usize,
        num_shards: usize,
        num_handles: u32,
        fast_reads: bool,
        mut substrate: impl FnMut(usize, &ClusterConfig) -> Result<Substrate>,
        durability: Arc<dyn Durability>,
        metrics: Option<Arc<Registry>>,
    ) -> Result<ShardedKvStore> {
        let cluster_cfg = ClusterConfig::byzantine(t)?;
        if num_shards == 0 || num_handles == 0 {
            return Err(Error::InvariantViolation {
                detail: "a store needs at least one shard and one handle".into(),
            });
        }
        let shards = (0..num_shards)
            .map(|s| {
                let (transport, local) = substrate(s, &cluster_cfg)?;
                let keys = KeyDirectory::open(durability.for_shard(s).as_ref())?;
                Ok(Shard {
                    transport,
                    local,
                    keys,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedKvStore {
            inner: Arc::new(Inner {
                cfg: cluster_cfg,
                router: ShardRouter::new(num_shards),
                shards,
                num_handles,
                read_mode: if fast_reads {
                    ReadMode::Fast
                } else {
                    ReadMode::Slow
                },
                durability,
                taken: Mutex::new(vec![false; num_handles as usize]),
                metrics,
            }),
        })
    }

    /// The per-shard cluster configuration.
    pub fn config(&self) -> ClusterConfig {
        self.inner.cfg
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Size of the handle pool.
    pub fn num_handles(&self) -> u32 {
        self.inner.num_handles
    }

    /// Total distinct keys written so far, across all shards.
    pub fn num_keys(&self) -> usize {
        self.inner.shards.iter().map(|s| s.keys.len()).sum()
    }

    /// The shard `key` routes to.
    pub fn shard_of(&self, key: &str) -> usize {
        self.inner.router.shard_of(key)
    }

    /// Obtain client handle `id` (`id < num_handles`). Handles are
    /// interchangeable but **exclusive**: each id can be held by at most
    /// one live handle, because an id maps to fixed writer/reader
    /// registers of every key group — two concurrent holders would mint
    /// colliding MWMR tags. Dropping a handle returns its id to the pool.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongRole`] if `id` is outside the pool, or
    /// [`Error::OperationPending`] if a live handle already holds `id`.
    pub fn handle(&self, id: u32) -> Result<KvHandle> {
        if id >= self.inner.num_handles {
            return Err(Error::WrongRole {
                detail: format!("handle {id} of {}", self.inner.num_handles),
            });
        }
        {
            let mut taken = self.inner.taken.lock().expect("handle pool lock");
            if taken[id as usize] {
                return Err(Error::OperationPending);
            }
            taken[id as usize] = true;
        }
        Ok(KvHandle::new(id, Arc::clone(&self.inner)))
    }

    /// Crash one object of one **locally spawned** shard (at most `t` per
    /// shard for that shard to keep completing operations). Waits only
    /// for the envelope that object is processing; every shard keeps
    /// serving throughout.
    ///
    /// # Panics
    ///
    /// Panics if the shard is remote
    /// ([`ShardedKvStore::over_transports`]): a remote object's crash is
    /// injected at its server, not through the client-side store.
    pub fn crash_object(&self, shard: usize, id: ObjectId) {
        match &self.inner.shards[shard].local {
            Some(cluster) => cluster.crash_object(id),
            None => panic!("crash_object on remote shard {shard}: inject the fault server-side"),
        }
    }

    /// Kill one object of one **locally spawned** shard and restart it
    /// from disk (see [`restart_from_disk`]): the rest of the shard serves
    /// traffic throughout — the slot is simply "crashed" for that window.
    /// Returns the wall-clock kill-to-serving-again time.
    ///
    /// A restarted object vouches for everything it acked before the kill
    /// (the WAL is written before the ack), so it rejoins its quorum as a
    /// correct object; while it is down it counts against the shard's
    /// fault budget exactly like a crash. Concurrent `restart_object`
    /// calls for the *same* object are the caller's responsibility to
    /// avoid (both would recover from disk; the later install wins).
    ///
    /// # Errors
    ///
    /// [`Error::InvariantViolation`] if the shard is remote
    /// ([`ShardedKvStore::over_transports`] — restart at the server
    /// instead) or the store's durability is not recoverable
    /// ([`InMemory`](rastor_store::InMemory) — a "restarted" amnesiac would
    /// silently shrink the
    /// fault budget); recovery I/O and corruption errors otherwise (the
    /// object is left crashed in that case).
    pub fn restart_object(&self, shard: usize, id: ObjectId) -> Result<Duration> {
        let Some(cluster) = &self.inner.shards[shard].local else {
            return Err(Error::InvariantViolation {
                detail: format!("restart_object on remote shard {shard}: restart at the server"),
            });
        };
        restart_from_disk(
            cluster.host(),
            self.inner.durability.for_shard(shard).as_ref(),
            id,
        )
    }
}

/// Kill-then-recover, on whichever substrate hosts the object: refuse
/// unless `durability` — the policy of the shard `host` serves — can
/// recover state, crash object `id` on `host` (which closes the old
/// behavior's files, so recovery reads a quiescent log), recover it from
/// the shard's data dir, and install the recovered behavior under the
/// same id. Returns the
/// wall-clock kill-to-serving-again time.
///
/// # Errors
///
/// [`Error::InvariantViolation`] if `durability` is not recoverable;
/// recovery I/O and corruption errors otherwise (the object is left
/// crashed in that case).
///
/// # Panics
///
/// Panics if `host` does not host `id`.
pub fn restart_from_disk<S: ReplySink<Rep>>(
    host: &ObjectHost<Req, Rep, S>,
    durability: &dyn Durability,
    id: ObjectId,
) -> Result<Duration> {
    if !durability.recoverable() {
        return Err(Error::InvariantViolation {
            detail: format!(
                "restarting object {}: durability '{}' cannot recover state \
                 (spawn with a wal-backed config)",
                id.0,
                durability.label()
            ),
        });
    }
    let started = Instant::now();
    host.crash(id);
    let (behavior, _stats) = durability.object(id)?;
    host.restart(id, behavior);
    Ok(started.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KvOpId, KvOutput};
    use rastor_common::{ClientId, Value};
    use rastor_core::adversary::SilentObject;
    use std::collections::HashMap;

    #[test]
    fn puts_and_gets_span_shards() {
        let store = ShardedKvStore::spawn(StoreConfig::new(1, 4, 2)).unwrap();
        let mut h = store.handle(0).unwrap();
        let keys: Vec<String> = (0..16).map(|i| format!("k{i}")).collect();
        for (i, k) in keys.iter().enumerate() {
            h.put(k, Value::from_u64(i as u64 + 1)).unwrap();
        }
        let mut shards_hit = std::collections::BTreeSet::new();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(h.get(k).unwrap(), Some(Value::from_u64(i as u64 + 1)));
            shards_hit.insert(store.shard_of(k));
        }
        assert!(shards_hit.len() > 1, "16 keys should span several shards");
        assert_eq!(store.num_keys(), 16);
    }

    #[test]
    fn out_of_pool_handle_rejected() {
        let store = ShardedKvStore::spawn(StoreConfig::new(1, 1, 2)).unwrap();
        assert!(matches!(store.handle(2), Err(Error::WrongRole { .. })));
    }

    #[test]
    fn handle_ids_are_exclusive_until_dropped() {
        let store = ShardedKvStore::spawn(StoreConfig::new(1, 1, 2)).unwrap();
        let h0 = store.handle(0).unwrap();
        // A second live holder of id 0 would mint colliding MWMR tags.
        assert!(matches!(store.handle(0), Err(Error::OperationPending)));
        assert!(store.handle(1).is_ok(), "other ids stay available");
        drop(h0);
        assert!(store.handle(0).is_ok(), "dropping returns the id");
    }

    #[test]
    fn survives_one_crash_per_shard() {
        let store = ShardedKvStore::spawn(StoreConfig::new(1, 3, 2)).unwrap();
        let mut h = store.handle(0).unwrap();
        for i in 0..6u64 {
            h.put(&format!("k{i}"), Value::from_u64(i)).unwrap();
        }
        for s in 0..store.num_shards() {
            store.crash_object(s, ObjectId(s as u32 % 4));
        }
        for i in 0..6u64 {
            assert_eq!(
                h.get(&format!("k{i}")).unwrap(),
                Some(Value::from_u64(i)),
                "key k{i} after crashes"
            );
        }
    }

    #[test]
    fn tolerates_a_silent_byzantine_object_per_shard() {
        let cfg = StoreConfig::new(1, 2, 2);
        let store = ShardedKvStore::spawn_with(cfg, |_, oid| {
            (oid == ObjectId(0)).then(|| Box::new(SilentObject) as _)
        })
        .unwrap();
        let mut h = store.handle(1).unwrap();
        h.put("k", Value::from_u64(9)).unwrap();
        assert_eq!(h.get("k").unwrap(), Some(Value::from_u64(9)));
    }

    /// No store-wide (or shard-wide) lock sits between a pumping handle
    /// and fault injection: while one handle waits out a quorum-less
    /// shard's timeout, `crash_object` returns at once — on the healthy
    /// shard, and on the stalled shard itself.
    #[test]
    fn crash_object_returns_while_a_handle_waits_out_a_stalled_shard() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let store = ShardedKvStore::spawn(StoreConfig::new(1, 2, 2)).unwrap();
        let key_on = |shard| {
            (0..)
                .map(|i| format!("k{i}"))
                .find(|k| store.shard_of(k) == shard)
                .unwrap()
        };
        let (stalled_key, healthy_key) = (key_on(0), key_on(1));
        store.crash_object(0, ObjectId(2));
        store.crash_object(0, ObjectId(3));

        let timed_out = AtomicBool::new(false);
        let (about_to_wait_tx, about_to_wait) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let mut h = store.handle(0).unwrap();
                h.set_timeout(Duration::from_secs(2));
                about_to_wait_tx.send(()).unwrap();
                let out = h.put(&stalled_key, Value::from_u64(1));
                timed_out.store(true, Ordering::SeqCst);
                out
            });
            about_to_wait.recv().unwrap();
            store.crash_object(1, ObjectId(0));
            store.crash_object(0, ObjectId(1));
            assert!(
                !timed_out.load(Ordering::SeqCst),
                "crash_object waited for the stalled shard's timeout"
            );
            // The healthy shard (one crash, within budget) serves meanwhile.
            let mut h = store.handle(1).unwrap();
            h.put(&healthy_key, Value::from_u64(2)).unwrap();
            assert_eq!(h.get(&healthy_key).unwrap(), Some(Value::from_u64(2)));
            assert!(matches!(
                waiter.join().unwrap(),
                Err(Error::Incomplete { .. })
            ));
        });
    }

    #[test]
    fn wal_backed_object_restarts_with_its_state() {
        let dir = rastor_store::TempDir::new("kv-restart");
        let store = ShardedKvStore::spawn(StoreConfig::new(1, 2, 2).with_wal(dir.path())).unwrap();
        let mut h = store.handle(0).unwrap();
        for i in 0..8u64 {
            h.put(&format!("k{i}"), Value::from_u64(i + 1)).unwrap();
        }
        // Kill-then-recover one object per shard; the shard keeps serving
        // while the slot is down, and the recovered object rejoins.
        for s in 0..store.num_shards() {
            let elapsed = store.restart_object(s, ObjectId(3)).expect("restart");
            assert!(elapsed > Duration::ZERO);
        }
        // Spend the remaining budget *elsewhere*: with object 2 crashed,
        // every quorum must now include the restarted object 3 — reads
        // only succeed (freshly) if it truly recovered its state.
        for s in 0..store.num_shards() {
            store.crash_object(s, ObjectId(2));
        }
        for i in 0..8u64 {
            assert_eq!(
                h.get(&format!("k{i}")).unwrap(),
                Some(Value::from_u64(i + 1)),
                "key k{i} after kill-and-restart"
            );
        }
    }

    /// Satellite regression: killing and recovering a WAL-backed object
    /// while a depth-8 pipelined batch is in flight must never yield a
    /// non-atomic history. A writer handle pipelines puts and a reader
    /// handle pipelines fast-path gets across 8 keys; object 3 of every
    /// shard restarts while the first full batch is on the wire; the
    /// observed completions then replay through the core atomicity
    /// checker, one per-key history at a time.
    #[test]
    fn restart_during_pipelined_batch_preserves_atomicity() {
        use rastor_core::checker::{History, ReadRec, WriteRec};

        const KEYS: u64 = 8;
        const ROUNDS: u64 = 4;
        let key = |k: u64| format!("pipe:{k}");

        let dir = rastor_store::TempDir::new("kv-restart-pipeline");
        let store = ShardedKvStore::spawn(
            StoreConfig::new(1, 2, 2)
                .with_wal(dir.path())
                .with_fast_reads(true),
        )
        .unwrap();
        let mut wh = store.handle(0).unwrap();
        let mut rh = store.handle(1).unwrap();
        wh.set_depth(8);
        rh.set_depth(8);

        // Wall-clock nanoseconds since the test started. Invocations are
        // stamped just before submit and completions just after poll, so
        // the recorded interval only ever *widens* the true one — the
        // checker stays sound (a violation it reports is real).
        let t0 = Instant::now();
        let mut histories: Vec<History> = (0..KEYS).map(|_| History::new()).collect();
        let mut puts: HashMap<KvOpId, (u64, Value, u64)> = HashMap::new();
        let mut gets: HashMap<KvOpId, (u64, u64)> = HashMap::new();

        let mut restarted = false;
        for round in 0..ROUNDS {
            for k in 0..KEYS {
                let invoked = t0.elapsed().as_nanos() as u64;
                let val = Value::from_u64(round * KEYS + k + 1);
                let id = wh.submit_put(&key(k), val.clone()).unwrap();
                puts.insert(id, (k, val, invoked));
            }
            if !restarted {
                // The whole first batch is in flight (8 distinct keys, so
                // nothing serialized or resolved yet) — now yank an object
                // out from under it on every shard and recover it from
                // the WAL while the batch keeps running.
                assert_eq!(wh.in_flight(), 8, "a full depth-8 batch in flight");
                for s in 0..store.num_shards() {
                    store.restart_object(s, ObjectId(3)).expect("restart");
                }
                restarted = true;
            }
            for k in 0..KEYS {
                let invoked = t0.elapsed().as_nanos() as u64;
                let id = rh.submit_get(&key(k)).unwrap();
                gets.insert(id, (k, invoked));
            }
            let last = round + 1 == ROUNDS;
            loop {
                let results = if last { wh.drain() } else { wh.try_poll() };
                let done = t0.elapsed().as_nanos() as u64;
                for (id, out) in results {
                    let (k, val, invoked) = puts.remove(&id).expect("unknown put id");
                    match out {
                        Ok(KvOutput::Put(tag)) => histories[k as usize].push_write(WriteRec {
                            ts: tag.to_timestamp(),
                            val,
                            invoked_at: invoked,
                            completed_at: Some(done),
                        }),
                        other => panic!("put resolved to {other:?}"),
                    }
                }
                let results = if last { rh.drain() } else { rh.try_poll() };
                let done = t0.elapsed().as_nanos() as u64;
                for (id, out) in results {
                    let (k, invoked) = gets.remove(&id).expect("unknown get id");
                    match out {
                        Ok(KvOutput::Get(pair)) => histories[k as usize].push_read(ReadRec {
                            client: ClientId::reader(1),
                            invoked_at: invoked,
                            completed_at: done,
                            returned: pair,
                        }),
                        other => panic!("get resolved to {other:?}"),
                    }
                }
                if !last || (puts.is_empty() && gets.is_empty()) {
                    break;
                }
            }
        }
        assert!(puts.is_empty() && gets.is_empty(), "all ops resolved");

        for (k, h) in histories.iter().enumerate() {
            assert_eq!(h.writes().count(), ROUNDS as usize, "key {k} writes");
            let violations = h.check_atomic();
            assert!(violations.is_empty(), "key {k}: {violations:?}");
        }
        // Every measured get took 1 or 2 (fast) or 4 (fallback) rounds.
        let (sum, count) = rh.take_get_rounds();
        assert!(count > 0, "cluster gets were measured");
        let mean = sum as f64 / count as f64;
        assert!(
            (1.0..=4.0).contains(&mean),
            "get rounds mean {mean} outside the fast/slow envelope"
        );
    }

    #[test]
    fn cold_start_on_an_existing_dir_recovers_the_registers() {
        let dir = rastor_store::TempDir::new("kv-cold-start");
        let cfg = || StoreConfig::new(1, 2, 1).with_wal(dir.path());
        {
            let store = ShardedKvStore::spawn(cfg()).unwrap();
            let mut h = store.handle(0).unwrap();
            for i in 0..6u64 {
                h.put(&format!("cold{i}"), Value::from_u64(i + 1)).unwrap();
            }
        } // the whole store dies here
        let store = ShardedKvStore::spawn(cfg()).unwrap();
        assert_eq!(store.num_keys(), 6, "key directory recovered from disk");
        let mut h = store.handle(0).unwrap();
        for i in 0..6u64 {
            // Values readable directly: directory AND registers recovered.
            assert_eq!(
                h.get(&format!("cold{i}")).unwrap(),
                Some(Value::from_u64(i + 1))
            );
            // And writes continue the old tag sequence instead of
            // restarting it: the collect sees the recovered tags.
            let tag = h
                .put(&format!("cold{i}"), Value::from_u64(100 + i))
                .unwrap();
            assert!(
                tag.seq >= 2,
                "cold{i}: a fresh store would mint seq 1, recovery must see the old tag"
            );
        }
    }

    #[test]
    fn restart_refuses_in_memory_stores() {
        let store = ShardedKvStore::spawn(StoreConfig::new(1, 1, 1)).unwrap();
        assert!(matches!(
            store.restart_object(0, ObjectId(0)),
            Err(Error::InvariantViolation { .. })
        ));
    }
}
