//! The sharded, concurrent kv store: consistent-hash keys across `N`
//! independent `3t + 1` object clusters, with a pool of per-thread client
//! handles doing MWMR puts and atomic gets.
//!
//! Topology: every shard is its own cluster (own objects, own fault
//! budget) reached through a [`Transport`] — a [`ThreadCluster`] the store
//! spawned in process, or anything else that speaks the trait;
//! [`ShardRouter`](crate::ShardRouter) maps keys onto shards. Within a shard, each key owns one MWMR register group
//! ([`RegGroup::keyed`]): `H` writer registers and `H` write-back
//! registers for a store with `H` handles, all multiplexed over the same
//! `3t + 1` objects.
//!
//! Concurrency model: a [`ShardedKvStore`] is cheaply cloneable (an `Arc`
//! around the shards) and every OS thread works through its own
//! [`KvHandle`], identified by a handle id `h < H`. Handle `h` is writer
//! `h` and reader `h` of every key group, so puts from different handles
//! are genuine multi-writer writes (ordered by `(seq, handle)` tags) and
//! gets inherit atomicity from the write-back transformation. One handle
//! must not be shared between threads (it is `&mut self`) and each id is
//! issued to at most one live handle at a time.
//!
//! ## Pipelining
//!
//! A handle is a pipelined connection, not a one-op-at-a-time client: it
//! multiplexes up to `depth` concurrent operation automata over a single
//! reply channel (nonce-keyed dispatch in the shared op driver), so a
//! shard's *latency* no longer caps a handle's *throughput*. Use
//! [`KvHandle::put_batch`] / [`KvHandle::get_batch`] for whole batches, or
//! the explicit [`KvHandle::submit_put`] / [`KvHandle::submit_get`] /
//! [`KvHandle::poll`] interface to keep a stream in flight. Operations of
//! one batch destined for the same shard share round trips: every flush
//! sends one coalesced envelope per object.
//!
//! The paper's one-outstanding-operation-per-process rule survives where
//! it is load-bearing: a handle never has two operations on the **same
//! key** in flight at once (two concurrent same-writer writes to one
//! register group could mint colliding MWMR tags; two write-backs could
//! race the reader's own register). Same-key submissions simply wait for
//! the in-flight one to resolve — pipelining wins come from distinct keys.

use crate::router::ShardRouter;
use rastor_common::{ClientId, ClusterConfig, Error, ObjectId, OpKind, Result, TsVal, Value};
use rastor_core::clients::OpOutput;
use rastor_core::msg::{Rep, Req};
use rastor_core::mwmr::{mw_read_in_group_mode, MwWriteClient, RegGroup, Tag};
use rastor_core::ReadMode;
use rastor_obs::{names, trace, CounterVec, Histogram, Registry, TimeRing};
use rastor_sim::runtime::{ObjReply, ReqFrame, ThreadClient, ThreadCluster, Transport};
use rastor_sim::{ObjectBehavior, ObjectHost, ReplySink};
use rastor_store::{Durability, InMemory, WalBacked};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Default maximum number of operations a handle keeps in flight.
pub const DEFAULT_DEPTH: usize = 8;

/// Construction-time options for a [`ShardedKvStore`].
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Per-shard fault budget (each shard deploys `3t + 1` objects).
    pub t: usize,
    /// Number of independent shard clusters.
    pub num_shards: usize,
    /// Size of the handle pool (= writers = readers per key group).
    pub num_handles: u32,
    /// Optional per-envelope service delay at every object (uniform in
    /// `0..jitter`): emulates network/storage latency and surfaces
    /// interleavings. A coalesced batch envelope pays it once, which is
    /// why batching amortizes it. `None` runs the objects flat out.
    pub jitter: Option<Duration>,
    /// How default (honest) objects persist their state. [`InMemory`]
    /// (the default) keeps today's behavior — a killed object is a
    /// permanent crash. A [`WalBacked`] config lays data out as
    /// `dir/shard-<s>/obj-<o>.{wal,snap}` and unlocks
    /// [`ShardedKvStore::restart_object`]: kill-then-recover from disk.
    pub durability: Arc<dyn Durability>,
    /// Run gets in [`ReadMode::Fast`]: an uncontended, confirmed read
    /// returns after its 2 collect rounds instead of the full 4-round
    /// write-back, falling back automatically under contention or
    /// Byzantine skew. Off by default (the paper's baseline read).
    pub fast_reads: bool,
    /// Where handles record their kv-seam metrics (`kv.*`: per-op latency
    /// histograms, per-shard fast/slow read counters, the ops time ring).
    /// Defaults to the process-wide [`Registry::global`]; point it at a
    /// private registry to isolate a store's numbers, or `None` to switch
    /// the kv seam off entirely (benchmark control runs).
    pub metrics: Option<Arc<Registry>>,
}

impl StoreConfig {
    /// A `num_shards`-way store with fault budget `t` and `num_handles`
    /// client handles, no object-side jitter, in-memory objects.
    pub fn new(t: usize, num_shards: usize, num_handles: u32) -> StoreConfig {
        StoreConfig {
            t,
            num_shards,
            num_handles,
            jitter: None,
            durability: Arc::new(InMemory),
            fast_reads: false,
            metrics: Some(Registry::global()),
        }
    }

    /// Enable (or disable) the adaptive 2-round fast read path for gets.
    #[must_use]
    pub fn with_fast_reads(mut self, fast_reads: bool) -> StoreConfig {
        self.fast_reads = fast_reads;
        self
    }

    /// Set the per-envelope object service delay.
    #[must_use]
    pub fn with_jitter(mut self, jitter: Duration) -> StoreConfig {
        self.jitter = Some(jitter);
        self
    }

    /// Back every honest object with a write-ahead log + snapshots under
    /// `dir` (per-shard sub-directories are carved automatically). Spawning
    /// on a dir that already holds data is a cold-start recovery: the
    /// store comes up with every shard's registers intact.
    #[must_use]
    pub fn with_wal(self, dir: impl AsRef<Path>) -> StoreConfig {
        self.with_durability(Arc::new(WalBacked::new(dir.as_ref())))
    }

    /// Set the durability policy directly.
    #[must_use]
    pub fn with_durability(mut self, durability: Arc<dyn Durability>) -> StoreConfig {
        self.durability = durability;
        self
    }

    /// Route kv-seam metrics to `registry` (`None` disables the seam).
    #[must_use]
    pub fn with_metrics(mut self, metrics: Option<Arc<Registry>>) -> StoreConfig {
        self.metrics = metrics;
        self
    }
}

/// What a shard's traffic runs over.
type ShardTransport = Box<dyn Transport<Req, Rep> + Send + Sync>;

/// A shard's substrate: its transport, plus the cluster behind it when
/// this store spawned that in process.
type Substrate = (ShardTransport, Option<Arc<ThreadCluster<Req, Rep>>>);

/// One shard: an independent `3t + 1` cluster plus the key-id directory
/// for the keys routed here.
struct Shard {
    /// The cluster, whatever substrate it lives on: object hosts in this
    /// process or a socket connection to objects across a network.
    transport: ShardTransport,
    /// The cluster behind `transport` when this store spawned it in
    /// process — the local fault-injection surface
    /// ([`ShardedKvStore::crash_object`]). Remote shards inject faults at
    /// their servers or proxies.
    local: Option<Arc<ThreadCluster<Req, Rep>>>,
    /// key → dense per-shard key id (allocates register groups). Read-
    /// mostly: only the first put of a key takes the write lock.
    keys: RwLock<HashMap<String, u32>>,
    /// Durable twin of `keys` (WAL-backed stores only): one record per
    /// allocated key, appended *before* the in-memory insert, so key ids —
    /// which name register groups on the objects — survive a cold start
    /// and are never re-allocated to a different key. Record `i` holds the
    /// UTF-8 key that owns id `i`.
    dir_log: DirLog,
}

impl Transport<Req, Rep> for Shard {
    fn send_frames(
        &self,
        from: ClientId,
        frames: &[ReqFrame<Req>],
        reply_to: &Sender<ObjReply<Rep>>,
    ) {
        self.transport.send_frames(from, frames, reply_to)
    }
}

struct Inner {
    cfg: ClusterConfig,
    router: ShardRouter,
    shards: Vec<Shard>,
    num_handles: u32,
    /// Read mode every handle's gets run in (see [`StoreConfig::fast_reads`]).
    read_mode: ReadMode,
    /// The store-wide durability policy (scoped per shard on use).
    durability: Arc<dyn Durability>,
    /// Which handle ids are currently issued; a handle id maps to fixed
    /// writer/reader registers, so two live handles with one id would
    /// produce colliding MWMR tags. Issuance is exclusive; dropping a
    /// [`KvHandle`] returns its id to the pool.
    taken: Mutex<Vec<bool>>,
    /// Registry the handles record kv-seam metrics into (see
    /// [`StoreConfig::metrics`]).
    metrics: Option<Arc<Registry>>,
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
    /// or handle pool, and I/O or corruption errors from a [`WalBacked`]
    /// durability opening its files.
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
            let cluster = Arc::new(ThreadCluster::spawn(behaviors, cfg.jitter));
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
    /// socket-backed object servers, possibly through chaos proxies). Each
    /// transport must reach an independent `3t + 1` object cluster; the
    /// store's routing, register-group, and pipelining machinery is
    /// identical to the locally spawned case — only the substrate differs.
    ///
    /// [`ShardedKvStore::crash_object`] is unavailable on remote shards
    /// (inject faults at the servers or proxies instead).
    ///
    /// `durability` persists the *client-side* key directory only (the
    /// remote objects persist — or don't — at their servers): pass the
    /// same wal-backed config as the servers to make cold starts recover
    /// key routing, or [`InMemory`] to keep the directory ephemeral.
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
                let (keys, dir_log) = open_key_directory(durability.for_shard(s).as_ref())?;
                Ok(Shard {
                    transport,
                    local,
                    keys: RwLock::new(keys),
                    dir_log,
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
        self.inner
            .shards
            .iter()
            .map(|s| s.keys.read().expect("key map lock").len())
            .sum()
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
        let metrics = self.inner.metrics.as_ref().map(|r| KvMetrics {
            put_latency: r.histogram(names::KV_PUT_LATENCY_US),
            get_latency: r.histogram(names::KV_GET_LATENCY_US),
            reads_fast: r.counter_vec(names::KV_READS_FAST, self.inner.shards.len()),
            reads_slow: r.counter_vec(names::KV_READS_SLOW, self.inner.shards.len()),
            ops_ring: r.ring(names::KV_OPS_RING_US, 60, Duration::from_secs(60)),
        });
        Ok(KvHandle {
            id,
            inner: Arc::clone(&self.inner),
            client: ThreadClient::new(ClientId::reader(id)),
            timeout: Duration::from_secs(10),
            depth: DEFAULT_DEPTH,
            next_op: 0,
            pending: HashMap::new(),
            keys_in_flight: HashSet::new(),
            ready: Vec::new(),
            get_rounds: (0, 0),
            metrics,
        })
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
    /// injected at its server (or its link's chaos proxy), not through the
    /// client-side store.
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
    /// ([`InMemory`] — a "restarted" amnesiac would silently shrink the
    /// fault budget); recovery I/O and corruption errors otherwise (the
    /// object is left crashed in that case).
    pub fn restart_object(&self, shard: usize, id: ObjectId) -> Result<Duration> {
        let Some(cluster) = &self.inner.shards[shard].local else {
            return Err(Error::InvariantViolation {
                detail: format!("restart_object on remote shard {shard}: restart at the server"),
            });
        };
        restart_from_disk(cluster.host(), self.inner.durability.as_ref(), shard, id)
    }
}

/// Kill-then-recover, on whichever substrate hosts the object: refuse
/// unless `durability` can recover state, crash object `id` of shard
/// `shard` on `host` (which closes the old behavior's files, so recovery
/// reads a quiescent log), recover it from the shard's data dir, and
/// install the recovered behavior under the same id. Returns the
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
pub fn restart_from_disk<S: ReplySink<Req, Rep>>(
    host: &ObjectHost<Req, Rep, S>,
    durability: &dyn Durability,
    shard: usize,
    id: ObjectId,
) -> Result<Duration> {
    if !durability.recoverable() {
        return Err(Error::InvariantViolation {
            detail: format!(
                "restart_object on shard {shard}: durability '{}' cannot recover state \
                 (spawn with a wal-backed config)",
                durability.label()
            ),
        });
    }
    let started = Instant::now();
    host.crash(id);
    let (behavior, _stats) = durability.for_shard(shard).object(id)?;
    host.restart(id, behavior);
    Ok(started.elapsed())
}

/// The key directory's durable append handle (WAL-backed stores only).
/// `wal: None` marks a **broken** log: a failed append may have left a
/// torn record on disk, and any later successful append would land after
/// it — lost at the next replay's torn-tail truncation, desynchronizing
/// key-id assignment from the log (two keys aliasing one register group
/// after a cold start). Breakage is therefore sticky: once an append
/// fails, every further allocation on the shard is refused.
struct DirLogState {
    wal: Option<rastor_store::wal::Wal>,
}

type DirLog = Option<Mutex<DirLogState>>;

/// Open one shard's key directory from its durability scope: the replayed
/// map (record `i` owns key id `i`) plus the append handle, or an empty
/// ephemeral map for non-persistent scopes.
fn open_key_directory(durability: &dyn Durability) -> Result<(HashMap<String, u32>, DirLog)> {
    match durability.aux_log("keys")? {
        None => Ok((HashMap::new(), None)),
        Some((wal, records)) => {
            let mut keys = HashMap::with_capacity(records.len());
            for (kid, rec) in records.into_iter().enumerate() {
                let key = String::from_utf8(rec).map_err(|_| Error::InvariantViolation {
                    detail: format!("key directory record {kid} is not UTF-8"),
                })?;
                keys.insert(key, kid as u32);
            }
            Ok((keys, Some(Mutex::new(DirLogState { wal: Some(wal) }))))
        }
    }
}

/// Names one operation submitted through a [`KvHandle`]'s pipelined
/// interface; [`KvHandle::poll`] reports completions under this id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct KvOpId(u64);

/// The completed outcome of one pipelined kv operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum KvOutput {
    /// A put committed with this multi-writer tag.
    Put(Tag),
    /// A get returned this `(timestamp, value)` pair (`⊥` for keys never
    /// written).
    Get(TsVal),
}

/// Bookkeeping for one in-flight pipelined operation.
struct PendingOp {
    op: KvOpId,
    kind: OpKind,
    key: String,
    shard: usize,
    /// Submission time — measures client-observed latency (queueing in the
    /// pipeline included) for the `kv.*_latency_us` histograms.
    started: Instant,
}

/// The kv-seam metric handles, resolved once per [`KvHandle`] so the hot
/// path never touches the registry lock.
struct KvMetrics {
    put_latency: Arc<Histogram>,
    get_latency: Arc<Histogram>,
    /// Per-shard completed cluster gets that took the 2-round fast path.
    reads_fast: Arc<CounterVec>,
    /// Per-shard completed cluster gets that paid the 4-round write-back.
    reads_slow: Arc<CounterVec>,
    /// Per-minute min/mean/max of op latency over the last hour.
    ops_ring: Arc<TimeRing>,
}

/// A per-thread client endpoint of a [`ShardedKvStore`].
///
/// One handle is one pipelined connection: a single reply channel and op
/// driver multiplex up to `depth` concurrent operations across all shards
/// (see [`crate::ShardedKvStore`] and the crate docs for the pipelining rules). The blocking
/// [`KvHandle::put`] / [`KvHandle::get`] convenience methods and the
/// batched/pipelined methods all drive the same machinery.
///
/// ## Mixing blocking calls with the pipeline
///
/// While pipelined operations are in flight — or [`KvHandle::poll`]
/// results remain unfetched — the blocking calls ([`KvHandle::put`],
/// [`KvHandle::get`], [`KvHandle::get_pair`], [`KvHandle::put_batch`],
/// [`KvHandle::get_batch`]) refuse with [`Error::OperationPending`] rather
/// than silently interleave their results with the pipeline's. Call
/// [`KvHandle::drain`] first to quiesce the handle (it resolves every
/// in-flight operation and hands back all pending results), then the
/// blocking API works again:
///
/// ```
/// use rastor_kv::{KvOutput, ShardedKvStore, StoreConfig};
/// use rastor_common::{Error, Value};
///
/// let store = ShardedKvStore::spawn(StoreConfig::new(1, 1, 1))?;
/// let mut h = store.handle(0)?;
/// let op = h.submit_put("k", Value::from_u64(1))?;
/// // Blocking calls refuse while pipelined ops are in flight…
/// assert_eq!(h.get("k"), Err(Error::OperationPending));
/// // …`drain()` quiesces the handle and hands back every result…
/// let results = h.drain();
/// assert_eq!(results.len(), 1);
/// assert_eq!(results[0].0, op);
/// assert!(matches!(results[0].1, Ok(KvOutput::Put(_))));
/// // …and the blocking API works again.
/// assert_eq!(h.get("k")?, Some(Value::from_u64(1)));
/// # Ok::<(), rastor_common::Error>(())
/// ```
///
/// Relatedly, submissions **buffer** until the next
/// [`KvHandle::poll`] / [`KvHandle::try_poll`] (or until the depth limit
/// forces an internal pump): submit the whole burst first, then poll —
/// polling after every submit sends one envelope per operation and forfeits
/// the coalescing win.
pub struct KvHandle {
    id: u32,
    inner: Arc<Inner>,
    client: ThreadClient<Req, Rep, OpOutput>,
    timeout: Duration,
    depth: usize,
    next_op: u64,
    /// driver nonce → pipelined-op bookkeeping.
    pending: HashMap<u64, PendingOp>,
    /// Keys with an in-flight operation (at most one per key per handle).
    keys_in_flight: HashSet<String>,
    /// Resolved operations awaiting a [`KvHandle::poll`].
    ready: Vec<(KvOpId, Result<KvOutput>)>,
    /// `(sum, count)` of round counts across completed cluster gets —
    /// the direct measurement of the fast path's 2-vs-4-round claim.
    get_rounds: (u64, u64),
    /// Resolved metric handles (`None` when the store was configured with
    /// [`StoreConfig::with_metrics`]`(None)`).
    metrics: Option<KvMetrics>,
}

impl KvHandle {
    /// This handle's pool id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Set the per-operation timeout (default 10 s; applies to operations
    /// submitted afterwards).
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Set the pipeline depth: the maximum number of operations this
    /// handle keeps in flight (default [`DEFAULT_DEPTH`]; clamped to ≥ 1).
    /// Depth 1 is the classic closed loop.
    pub fn set_depth(&mut self, depth: usize) {
        self.depth = depth.max(1);
    }

    /// Number of operations currently in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Mean protocol rounds per completed cluster get, since the handle
    /// was created or the stats last taken. `None` before any measured
    /// get. Gets answered from the key directory alone (absent keys) cost
    /// no rounds and are not counted. Slow-path gets take 4 rounds; with
    /// [`StoreConfig::fast_reads`] an uncontended confirmed get takes 2.
    pub fn get_rounds_mean(&self) -> Option<f64> {
        let (sum, count) = self.get_rounds;
        (count > 0).then(|| sum as f64 / count as f64)
    }

    /// Take (and reset) the `(sum, count)` round counters behind
    /// [`KvHandle::get_rounds_mean`] — lets a benchmark aggregate across
    /// many handles.
    pub fn take_get_rounds(&mut self) -> (u64, u64) {
        std::mem::take(&mut self.get_rounds)
    }

    /// Locate `key` if it has been written before: its shard and register
    /// group. The steady-state path — one read lock, no allocation.
    fn lookup(&self, key: &str) -> (usize, Option<RegGroup>) {
        let shard_idx = self.inner.router.shard_of(key);
        let kid = self.inner.shards[shard_idx]
            .keys
            .read()
            .expect("key map lock")
            .get(key)
            .copied();
        (
            shard_idx,
            kid.map(|kid| RegGroup::keyed(kid, self.inner.num_handles)),
        )
    }

    /// Locate `key`, allocating a key id on its first put. On WAL-backed
    /// stores the allocation is logged **before** it becomes visible, so a
    /// key id can never be re-allocated to a different key across a
    /// restart (two keys sharing a register group would alias their
    /// histories).
    fn lookup_or_alloc(&self, key: &str) -> Result<(usize, RegGroup)> {
        if let (shard_idx, Some(group)) = self.lookup(key) {
            return Ok((shard_idx, group));
        }
        let shard_idx = self.inner.router.shard_of(key);
        let shard = &self.inner.shards[shard_idx];
        let mut keys = shard.keys.write().expect("key map lock");
        let kid = match keys.get(key) {
            Some(kid) => *kid, // lost the alloc race: someone else logged it
            None => {
                let kid = keys.len() as u32;
                if let Some(log) = &shard.dir_log {
                    let mut log = log.lock().expect("dir log lock");
                    let Some(wal) = log.wal.as_mut() else {
                        return Err(Error::InvariantViolation {
                            detail: format!(
                                "shard {shard_idx}: key directory log broken by an earlier \
                                 failed append; refusing new key allocations"
                            ),
                        });
                    };
                    if let Err(e) = wal.append(key.as_bytes()) {
                        // The failed append may have torn the log tail; a
                        // later append would be silently lost to replay
                        // truncation. Break the log for good (see
                        // `DirLogState`).
                        log.wal = None;
                        return Err(e);
                    }
                }
                keys.insert(key.to_string(), kid);
                kid
            }
        };
        Ok((shard_idx, RegGroup::keyed(kid, self.inner.num_handles)))
    }

    /// Drive the pipeline: flush pending frames and move resolutions to
    /// the ready queue — blocking until at least one in-flight operation
    /// resolves, or (`blocking = false`) only as far as already-queued
    /// replies allow. No-op if nothing is in flight.
    fn pump_with(&mut self, blocking: bool) {
        if self.pending.is_empty() {
            return;
        }
        let results = if blocking {
            self.client.pump(&self.inner.shards)
        } else {
            self.client.try_pump(&self.inner.shards)
        };
        self.resolve_results(results);
    }

    /// Block until at least one in-flight operation resolves.
    fn pump_once(&mut self) {
        self.pump_with(true);
    }

    /// Put freshly submitted frames on the wire and ingest any replies
    /// already queued, without blocking.
    fn pump_ready(&mut self) {
        self.pump_with(false);
    }

    fn resolve_results(&mut self, results: Vec<rastor_sim::runtime::OpResult<OpOutput>>) {
        for r in results {
            let p = self.pending.remove(&r.nonce).expect("pending op");
            self.keys_in_flight.remove(&p.key);
            let outcome = match r.output {
                None => Err(Error::Incomplete {
                    detail: format!(
                        "{}({}) could not reach a quorum on shard {}",
                        if p.kind == OpKind::Write {
                            "put"
                        } else {
                            "get"
                        },
                        p.key,
                        p.shard
                    ),
                }),
                Some((out, rounds)) => Ok(match p.kind {
                    OpKind::Write => KvOutput::Put(Tag::from_timestamp(
                        out.into_wrote().expect("writes return Wrote outputs").ts,
                    )),
                    OpKind::Read => {
                        self.get_rounds.0 += u64::from(rounds);
                        self.get_rounds.1 += 1;
                        if let Some(m) = &self.metrics {
                            // Fast-path reads finish in 2 collect rounds;
                            // anything longer paid the write-back.
                            if rounds <= 2 {
                                m.reads_fast.inc(p.shard);
                            } else {
                                m.reads_slow.inc(p.shard);
                            }
                        }
                        KvOutput::Get(out.into_read().expect("reads return Read outputs"))
                    }
                }),
            };
            if let Some(m) = &self.metrics {
                let us = u64::try_from(p.started.elapsed().as_micros()).unwrap_or(u64::MAX);
                match p.kind {
                    OpKind::Write => m.put_latency.record(us),
                    OpKind::Read => m.get_latency.record(us),
                }
                m.ops_ring.record(us);
            }
            if r.trace != trace::NO_TRACE {
                // Close the trace at the harvest seam: one `kv.op` span
                // covering submit to harvest (detail 0 = put, 1 = get),
                // then hand the buffer to the slow-op filter.
                let end = trace::epoch_us();
                let us = u64::try_from(p.started.elapsed().as_micros()).unwrap_or(u64::MAX);
                trace::global().record(
                    r.trace,
                    trace::span::KV_OP,
                    u64::from(p.kind == OpKind::Read),
                    end.saturating_sub(us),
                    end,
                );
                trace::global().finish(r.trace, end);
            }
            self.ready.push((p.op, outcome));
        }
    }

    fn fresh_op_id(&mut self) -> KvOpId {
        let op = KvOpId(self.next_op);
        self.next_op += 1;
        op
    }

    /// Pump until no operation on `key` is in flight (a handle keeps at
    /// most one, see the module docs).
    fn await_key_free(&mut self, key: &str) {
        while self.keys_in_flight.contains(key) {
            self.pump_once();
        }
    }

    /// Pump until the pipeline is below its depth limit.
    fn await_depth(&mut self) {
        while self.pending.len() >= self.depth {
            self.pump_once();
        }
    }

    /// Reject blocking calls while pipelined state exists (in-flight ops
    /// or unfetched [`KvHandle::poll`] results would be silently mixed in
    /// otherwise).
    fn ensure_quiet(&self) -> Result<()> {
        if self.pending.is_empty() && self.ready.is_empty() {
            Ok(())
        } else {
            Err(Error::OperationPending)
        }
    }

    /// Submit a put without waiting for it: a 4-round multi-writer write
    /// that will resolve through [`KvHandle::poll`] as [`KvOutput::Put`].
    /// Blocks only while the pipeline is at its depth limit or another
    /// operation on the same key is in flight.
    ///
    /// Submissions are *buffered* so that consecutive submits to one shard
    /// share a round trip; they go on the wire on the next
    /// [`KvHandle::poll`] / [`KvHandle::try_poll`] (or when the depth
    /// limit forces a pump). Submit the burst first, then poll.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BottomWrite`] if `value` is the reserved empty
    /// value, and [`Error::Io`] if a WAL-backed store cannot log the
    /// key's first allocation.
    pub fn submit_put(&mut self, key: &str, value: Value) -> Result<KvOpId> {
        if value.is_bottom() {
            return Err(Error::BottomWrite);
        }
        self.await_key_free(key);
        self.await_depth();
        let (shard, group) = self.lookup_or_alloc(key)?;
        let automaton = MwWriteClient::in_group(self.inner.cfg, self.id, group, value);
        let nonce = self
            .client
            .submit_op(shard, OpKind::Write, Box::new(automaton), self.timeout);
        let op = self.fresh_op_id();
        self.pending.insert(
            nonce,
            PendingOp {
                op,
                kind: OpKind::Write,
                key: key.to_string(),
                shard,
                started: Instant::now(),
            },
        );
        self.keys_in_flight.insert(key.to_string());
        Ok(op)
    }

    /// Submit a get without waiting for it: an atomic read (4 rounds, or
    /// 2 when [`StoreConfig::fast_reads`] is on and the read is
    /// uncontended and confirmed) that will resolve through
    /// [`KvHandle::poll`] as [`KvOutput::Get`]. A key
    /// with no directory entry resolves to `⊥` immediately (see
    /// [`KvHandle::get_pair`] for why that linearizes). Blocks only while
    /// the pipeline is at its depth limit or another operation on the same
    /// key is in flight.
    ///
    /// # Errors
    ///
    /// Infallible today; returns `Result` for uniformity with
    /// [`KvHandle::submit_put`].
    pub fn submit_get(&mut self, key: &str) -> Result<KvOpId> {
        self.await_key_free(key);
        let (shard, group) = match self.lookup(key) {
            (_, None) => {
                let op = self.fresh_op_id();
                self.ready.push((op, Ok(KvOutput::Get(TsVal::bottom()))));
                return Ok(op);
            }
            (shard, Some(group)) => (shard, group),
        };
        self.await_depth();
        let automaton = mw_read_in_group_mode(self.inner.cfg, self.id, group, self.inner.read_mode);
        let nonce = self
            .client
            .submit_op(shard, OpKind::Read, Box::new(automaton), self.timeout);
        let op = self.fresh_op_id();
        self.pending.insert(
            nonce,
            PendingOp {
                op,
                kind: OpKind::Read,
                key: key.to_string(),
                shard,
                started: Instant::now(),
            },
        );
        self.keys_in_flight.insert(key.to_string());
        Ok(op)
    }

    /// Collect resolved operations. Returns whatever is ready; if nothing
    /// is ready but operations are in flight, drives the pipeline until at
    /// least one resolves. Returns an empty vector only when the handle is
    /// idle. Individual operations resolve to [`Error::Incomplete`] when
    /// their shard could not form a quorum within the timeout.
    pub fn poll(&mut self) -> Vec<(KvOpId, Result<KvOutput>)> {
        // Always launch buffered submissions and harvest queued replies
        // first — even when synchronous results (absent-key gets) are
        // already ready, fresh frames must reach the wire now, not after
        // the caller's next arbitrary delay (their deadlines are running).
        self.pump_ready();
        if self.ready.is_empty() {
            self.pump_once();
        }
        std::mem::take(&mut self.ready)
    }

    /// Collect resolved operations without ever blocking — the
    /// non-blocking companion of [`KvHandle::poll`] for callers that
    /// interleave submissions with collection. Drives the pipeline as far
    /// as queued replies allow (so spinning on `try_poll` makes progress)
    /// and returns whatever has resolved, possibly nothing.
    pub fn try_poll(&mut self) -> Vec<(KvOpId, Result<KvOutput>)> {
        self.pump_ready();
        std::mem::take(&mut self.ready)
    }

    /// Drive every in-flight operation to resolution and return all
    /// results (including any previously-ready ones).
    pub fn drain(&mut self) -> Vec<(KvOpId, Result<KvOutput>)> {
        while !self.pending.is_empty() {
            self.pump_once();
        }
        std::mem::take(&mut self.ready)
    }

    /// Store a batch of key/value pairs, keeping up to `depth` writes in
    /// flight; same-shard writes share round trips. Returns the committed
    /// multi-writer tags in input order.
    ///
    /// # Errors
    ///
    /// * [`Error::BottomWrite`] if any value is the reserved empty value;
    /// * [`Error::Incomplete`] if a shard could no longer form a quorum;
    /// * [`Error::OperationPending`] if pipelined operations are in flight
    ///   (resolve them with [`KvHandle::poll`]/[`KvHandle::drain`] first).
    ///
    /// The whole batch is driven to resolution even when some operations
    /// fail; the first error (in input order) is returned.
    pub fn put_batch<K: AsRef<str>>(&mut self, items: &[(K, Value)]) -> Result<Vec<Tag>> {
        self.run_batch(
            items.len(),
            |h, i| h.submit_put(items[i].0.as_ref(), items[i].1.clone()),
            |out| match out {
                KvOutput::Put(tag) => tag,
                KvOutput::Get(_) => unreachable!("puts resolve to Put"),
            },
        )
    }

    /// Read a batch of keys, keeping up to `depth` reads in flight;
    /// same-shard reads share round trips. Returns the values in input
    /// order (`None` for keys never written).
    ///
    /// # Errors
    ///
    /// * [`Error::Incomplete`] if a shard could no longer form a quorum;
    /// * [`Error::OperationPending`] if pipelined operations are in flight.
    ///
    /// The whole batch is driven to resolution even when some operations
    /// fail; the first error (in input order) is returned.
    pub fn get_batch<K: AsRef<str>>(&mut self, keys: &[K]) -> Result<Vec<Option<Value>>> {
        self.run_batch(
            keys.len(),
            |h, i| h.submit_get(keys[i].as_ref()),
            |out| match out {
                KvOutput::Get(pair) => {
                    if pair.is_bottom() {
                        None
                    } else {
                        Some(pair.val)
                    }
                }
                KvOutput::Put(_) => unreachable!("gets resolve to Get"),
            },
        )
    }

    /// The shared scaffolding of the batch APIs: submit every item
    /// (stopping at the first submit error), drain the pipeline so the
    /// handle ends quiet either way, then map each outcome into per-item
    /// results in input order — the first error in input order wins.
    fn run_batch<T>(
        &mut self,
        count: usize,
        mut submit: impl FnMut(&mut KvHandle, usize) -> Result<KvOpId>,
        map: impl Fn(KvOutput) -> T,
    ) -> Result<Vec<T>> {
        self.ensure_quiet()?;
        let mut ids = Vec::with_capacity(count);
        let mut submit_err = None;
        for i in 0..count {
            match submit(self, i) {
                Ok(id) => ids.push(id),
                Err(e) => {
                    submit_err = Some(e);
                    break;
                }
            }
        }
        let mut by_id: HashMap<KvOpId, Result<KvOutput>> = self.drain().into_iter().collect();
        if let Some(e) = submit_err {
            return Err(e);
        }
        ids.iter()
            .map(|id| by_id.remove(id).expect("drained result").map(&map))
            .collect()
    }

    /// Store `value` under `key`: a 4-round multi-writer write (2-round
    /// tag collect + 2-round pre-write/commit). Returns the multi-writer
    /// tag the put committed with.
    ///
    /// # Errors
    ///
    /// * [`Error::BottomWrite`] if `value` is the reserved empty value;
    /// * [`Error::Incomplete`] if the shard can no longer form a quorum;
    /// * [`Error::OperationPending`] if pipelined operations are in flight.
    pub fn put(&mut self, key: &str, value: Value) -> Result<Tag> {
        let mut tags = self.put_batch(&[(key, value)])?;
        Ok(tags.pop().expect("one result for one item"))
    }

    /// Read the latest value under `key` (4-round atomic read with
    /// write-back). Returns `None` if the key was never written.
    ///
    /// # Errors
    ///
    /// * [`Error::Incomplete`] if the shard can no longer form a quorum;
    /// * [`Error::OperationPending`] if pipelined operations are in flight.
    pub fn get(&mut self, key: &str) -> Result<Option<Value>> {
        let pair = self.get_pair(key)?;
        Ok(if pair.is_bottom() {
            None
        } else {
            Some(pair.val)
        })
    }

    /// As [`KvHandle::get`], but returns the raw `(timestamp, value)` pair
    /// (`⊥` for never-written keys) — what the atomicity checkers consume.
    ///
    /// A key with no directory entry has never had a put *start*, so
    /// returning ⊥ directly linearizes before any concurrent first put
    /// (which allocates its key id before running the write rounds). This
    /// also keeps read-only probes of absent keys from growing the
    /// directory.
    ///
    /// # Errors
    ///
    /// As [`KvHandle::get`].
    pub fn get_pair(&mut self, key: &str) -> Result<TsVal> {
        self.ensure_quiet()?;
        let id = self.submit_get(key)?;
        let mut results = self.drain();
        let (rid, outcome) = results.pop().expect("one result for one submission");
        debug_assert!(results.is_empty() && rid == id);
        match outcome? {
            KvOutput::Get(pair) => Ok(pair),
            KvOutput::Put(_) => unreachable!("gets resolve to Get"),
        }
    }
}

impl Drop for KvHandle {
    fn drop(&mut self) {
        // Drain in-flight pipelined operations before returning the id to
        // the pool: a reissued id acts as the same MWMR writer on the same
        // registers, and racing this handle's still-queued writes could
        // mint colliding tags. Bounded by the per-op deadlines. Skipped
        // when already panicking (no double-panic, no unwind stall); the
        // id is still released — the process is on its way down.
        if !std::thread::panicking() {
            while !self.pending.is_empty() {
                self.pump_once();
            }
        }
        self.inner.taken.lock().expect("handle pool lock")[self.id as usize] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rastor_core::adversary::SilentObject;

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
    fn handles_see_each_others_writes() {
        let store = ShardedKvStore::spawn(StoreConfig::new(1, 2, 3)).unwrap();
        let mut a = store.handle(0).unwrap();
        let mut b = store.handle(2).unwrap();
        let tag_a = a.put("x", Value::from_u64(1)).unwrap();
        let tag_b = b.put("x", Value::from_u64(2)).unwrap();
        assert!(tag_b > tag_a, "b's collect saw a's tag and dominated it");
        assert_eq!(a.get("x").unwrap(), Some(Value::from_u64(2)));
    }

    #[test]
    fn overwrites_are_ordered() {
        let store = ShardedKvStore::spawn(StoreConfig::new(1, 1, 2)).unwrap();
        let (mut w, mut r) = (store.handle(0).unwrap(), store.handle(1).unwrap());
        for v in 1..=5u64 {
            w.put("counter", Value::from_u64(v)).unwrap();
        }
        assert_eq!(r.get("counter").unwrap(), Some(Value::from_u64(5)));
    }

    #[test]
    fn keys_are_isolated() {
        let store = ShardedKvStore::spawn(StoreConfig::new(1, 1, 2)).unwrap();
        let (mut w, mut r) = (store.handle(0).unwrap(), store.handle(1).unwrap());
        w.put("x", Value::from_u64(10)).unwrap();
        w.put("y", Value::from_u64(20)).unwrap();
        w.put("x", Value::from_u64(11)).unwrap();
        assert_eq!(r.get("x").unwrap(), Some(Value::from_u64(11)));
        assert_eq!(r.get("y").unwrap(), Some(Value::from_u64(20)));
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
    fn probing_absent_keys_does_not_grow_the_directory() {
        let store = ShardedKvStore::spawn(StoreConfig::new(1, 2, 1)).unwrap();
        let mut h = store.handle(0).unwrap();
        for i in 0..50 {
            assert_eq!(h.get(&format!("missing:{i}")).unwrap(), None);
        }
        assert_eq!(store.num_keys(), 0, "gets must not allocate key ids");
        h.put("real", Value::from_u64(1)).unwrap();
        assert_eq!(store.num_keys(), 1);
    }

    #[test]
    fn bottom_put_rejected() {
        let store = ShardedKvStore::spawn(StoreConfig::new(1, 1, 1)).unwrap();
        let mut h = store.handle(0).unwrap();
        assert_eq!(h.put("k", Value::bottom()), Err(Error::BottomWrite));
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

    #[test]
    fn loss_of_quorum_times_out() {
        let store = ShardedKvStore::spawn(StoreConfig::new(1, 1, 1)).unwrap();
        let mut h = store.handle(0).unwrap();
        h.put("k", Value::from_u64(1)).unwrap();
        store.crash_object(0, ObjectId(2));
        store.crash_object(0, ObjectId(3));
        h.set_timeout(Duration::from_millis(100));
        assert!(matches!(
            h.put("k", Value::from_u64(2)),
            Err(Error::Incomplete { .. })
        ));
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
    fn concurrent_threads_with_jitter_roundtrip() {
        let store = ShardedKvStore::spawn(
            StoreConfig::new(1, 2, 4).with_jitter(Duration::from_micros(200)),
        )
        .unwrap();
        let mut threads = Vec::new();
        for hid in 0..4u32 {
            let store = store.clone();
            threads.push(std::thread::spawn(move || {
                let mut h = store.handle(hid).unwrap();
                let key = format!("own:{hid}");
                for v in 1..=5u64 {
                    h.put(&key, Value::from_u64(v)).unwrap();
                    // Each handle's own key stream is sequential, so the
                    // read must return its latest put (or a later one —
                    // impossible here, the key is handle-private).
                    assert_eq!(h.get(&key).unwrap(), Some(Value::from_u64(v)));
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(store.num_keys(), 4);
    }

    #[test]
    fn put_batch_then_get_batch_roundtrip_across_shards() {
        let store = ShardedKvStore::spawn(StoreConfig::new(1, 4, 2)).unwrap();
        let mut h = store.handle(0).unwrap();
        let items: Vec<(String, Value)> = (0..24)
            .map(|i| (format!("batch:{i}"), Value::from_u64(i + 1)))
            .collect();
        let tags = h.put_batch(&items).unwrap();
        assert_eq!(tags.len(), 24);
        assert!(
            tags.iter().all(|t| t.writer == 0 && t.seq >= 1),
            "every tag minted by writer 0"
        );
        let keys: Vec<String> = items.iter().map(|(k, _)| k.clone()).collect();
        let got = h.get_batch(&keys).unwrap();
        for (i, v) in got.into_iter().enumerate() {
            assert_eq!(v, Some(Value::from_u64(i as u64 + 1)));
        }
        // Absent keys interleave fine and cost no round trips.
        let got = h.get_batch(&["batch:0", "nope", "batch:7"]).unwrap();
        assert_eq!(got[0], Some(Value::from_u64(1)));
        assert_eq!(got[1], None);
        assert_eq!(got[2], Some(Value::from_u64(8)));
    }

    #[test]
    fn submit_poll_pipeline_keeps_depth_ops_in_flight() {
        let store = ShardedKvStore::spawn(StoreConfig::new(1, 2, 1)).unwrap();
        let mut h = store.handle(0).unwrap();
        h.set_depth(4);
        let mut expected = HashMap::new();
        for i in 0..12u64 {
            let id = h
                .submit_put(&format!("p:{i}"), Value::from_u64(i + 1))
                .unwrap();
            expected.insert(id, i + 1);
            assert!(h.in_flight() <= 4, "depth limit respected");
        }
        let mut puts_seen = 0;
        while h.in_flight() > 0 || puts_seen < 12 {
            for (id, out) in h.poll() {
                assert!(matches!(out, Ok(KvOutput::Put(_))), "{out:?}");
                assert!(expected.remove(&id).is_some(), "unknown op id");
                puts_seen += 1;
            }
        }
        assert!(expected.is_empty());
        // Now pipelined gets over the same keys.
        let ids: Vec<(KvOpId, u64)> = (0..12u64)
            .map(|i| (h.submit_get(&format!("p:{i}")).unwrap(), i + 1))
            .collect();
        let results: HashMap<KvOpId, Result<KvOutput>> = h.drain().into_iter().collect();
        for (id, want) in ids {
            match results.get(&id) {
                Some(Ok(KvOutput::Get(pair))) => assert_eq!(pair.val, Value::from_u64(want)),
                other => panic!("get resolved to {other:?}"),
            }
        }
    }

    #[test]
    fn same_key_ops_of_one_handle_are_serialized() {
        let store = ShardedKvStore::spawn(StoreConfig::new(1, 1, 2)).unwrap();
        let mut h = store.handle(0).unwrap();
        // Ten pipelined puts to ONE key: the per-key rule forces them
        // sequential, so their tags must be strictly increasing — no
        // colliding (seq, writer) pairs.
        let ids: Vec<KvOpId> = (0..10u64)
            .map(|i| h.submit_put("hot", Value::from_u64(i + 1)).unwrap())
            .collect();
        let results: HashMap<KvOpId, Result<KvOutput>> = h.drain().into_iter().collect();
        let tags: Vec<Tag> = ids
            .iter()
            .map(|id| match results.get(id) {
                Some(Ok(KvOutput::Put(tag))) => *tag,
                other => panic!("put resolved to {other:?}"),
            })
            .collect();
        for w in tags.windows(2) {
            assert!(
                w[0] < w[1],
                "same-key pipelined puts must serialize: tags {w:?}"
            );
        }
        assert_eq!(h.get("hot").unwrap(), Some(Value::from_u64(10)));
    }

    /// A submission below the depth limit must still go on the wire and be
    /// resolvable by spinning on the non-blocking `try_poll` alone.
    #[test]
    fn try_poll_alone_resolves_a_single_submission() {
        let store = ShardedKvStore::spawn(StoreConfig::new(1, 2, 1)).unwrap();
        let mut h = store.handle(0).unwrap();
        h.set_depth(8);
        let id = h.submit_put("lonely", Value::from_u64(7)).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut results = Vec::new();
        while results.is_empty() {
            assert!(
                std::time::Instant::now() < deadline,
                "try_poll never resolved the submission"
            );
            results = h.try_poll();
        }
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0, id);
        assert!(matches!(results[0].1, Ok(KvOutput::Put(_))));
    }

    /// Dropping a handle with in-flight pipelined writes must drain them
    /// before the id returns to the pool: a reissued id is the same MWMR
    /// writer, and racing the zombie writes could mint colliding tags.
    #[test]
    fn drop_drains_in_flight_ops_before_releasing_the_id() {
        let store = ShardedKvStore::spawn(
            StoreConfig::new(1, 1, 1).with_jitter(Duration::from_micros(200)),
        )
        .unwrap();
        let mut h = store.handle(0).unwrap();
        for i in 0..6u64 {
            h.submit_put(&format!("z:{i}"), Value::from_u64(i + 1))
                .unwrap();
        }
        drop(h); // in-flight ops resolve here, not just the id release
        let mut h2 = store.handle(0).unwrap();
        // The dropped handle's writes all landed; the reissued id's collect
        // sees their tags and strictly dominates them.
        for i in 0..6u64 {
            let tag = h2.put(&format!("z:{i}"), Value::from_u64(100 + i)).unwrap();
            assert!(
                tag.seq >= 2,
                "zombie write of z:{i} must have committed first"
            );
            assert_eq!(
                h2.get(&format!("z:{i}")).unwrap(),
                Some(Value::from_u64(100 + i))
            );
        }
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
        // Every measured get took 2 (fast) or 4 (fallback) rounds.
        let (sum, count) = rh.take_get_rounds();
        assert!(count > 0, "cluster gets were measured");
        let mean = sum as f64 / count as f64;
        assert!(
            (2.0..=4.0).contains(&mean),
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

    #[test]
    fn blocking_calls_reject_live_pipelines() {
        let store = ShardedKvStore::spawn(StoreConfig::new(1, 1, 1)).unwrap();
        let mut h = store.handle(0).unwrap();
        h.submit_put("a", Value::from_u64(1)).unwrap();
        assert!(matches!(
            h.put("b", Value::from_u64(2)),
            Err(Error::OperationPending)
        ));
        assert!(matches!(h.get("a"), Err(Error::OperationPending)));
        let results = h.drain();
        assert_eq!(results.len(), 1);
        // Quiet again: blocking calls work.
        assert_eq!(h.get("a").unwrap(), Some(Value::from_u64(1)));
    }

    #[test]
    fn batch_timeouts_resolve_every_op() {
        let store = ShardedKvStore::spawn(StoreConfig::new(1, 1, 1)).unwrap();
        let mut h = store.handle(0).unwrap();
        h.put("seed", Value::from_u64(1)).unwrap();
        store.crash_object(0, ObjectId(2));
        store.crash_object(0, ObjectId(3));
        h.set_timeout(Duration::from_millis(100));
        let items: Vec<(String, Value)> = (0..4)
            .map(|i| (format!("t:{i}"), Value::from_u64(i + 1)))
            .collect();
        let err = h.put_batch(&items).unwrap_err();
        assert!(matches!(err, Error::Incomplete { .. }));
        assert_eq!(h.in_flight(), 0, "batch resolved everything");
    }

    #[test]
    fn pipelined_batches_under_jitter_with_faults() {
        let store = ShardedKvStore::spawn_with(
            StoreConfig::new(1, 2, 2).with_jitter(Duration::from_micros(100)),
            |shard, oid| (shard == 0 && oid == ObjectId(1)).then(|| Box::new(SilentObject) as _),
        )
        .unwrap();
        store.crash_object(1, ObjectId(0));
        let mut h = store.handle(0).unwrap();
        h.set_depth(6);
        let items: Vec<(String, Value)> = (0..18)
            .map(|i| (format!("f:{i}"), Value::from_u64(i + 1)))
            .collect();
        h.put_batch(&items).unwrap();
        let keys: Vec<String> = items.iter().map(|(k, _)| k.clone()).collect();
        let got = h.get_batch(&keys).unwrap();
        for (i, v) in got.into_iter().enumerate() {
            assert_eq!(v, Some(Value::from_u64(i as u64 + 1)), "key f:{i}");
        }
    }
}
