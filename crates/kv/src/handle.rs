//! [`KvHandle`]: one thread's pipelined client endpoint of a
//! [`ShardedKvStore`](crate::ShardedKvStore) (see [`crate::store`] for the
//! topology and how handle ids are issued).
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
//!
//! ## Blocking calls
//!
//! [`KvHandle::put`], [`KvHandle::get`] and [`KvHandle::get_pair`] stay:
//! they are one-element pipeline calls, not a second path (DESIGN.md's kv
//! section records the decision). How they mix with pipelined submissions
//! is stated once, on the type:
//! [Mixing blocking calls with the pipeline](KvHandle#mixing-blocking-calls-with-the-pipeline).

use crate::config::DEFAULT_DEPTH;
use crate::store::Inner;
use rastor_common::{ClientId, Error, OpKind, Result, TsVal, Value};
use rastor_core::clients::OpOutput;
use rastor_core::msg::{Rep, Req};
use rastor_core::mwmr::{mw_read_in_group_mode, MwWriteClient, RegGroup, Tag};
use rastor_obs::{names, trace, CounterVec, Histogram, TimeRing};
use rastor_sim::runtime::ThreadClient;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// Per-shard completed cluster gets that took the fast path (no
    /// write-back).
    reads_fast: Arc<CounterVec>,
    /// Per-shard completed cluster gets that paid the 4-round write-back.
    reads_slow: Arc<CounterVec>,
    /// Per-shard completed puts whose tag collect was certified (3 rounds).
    puts_fast: Arc<CounterVec>,
    /// Per-shard completed puts whose tag collect decided (4 or more).
    puts_slow: Arc<CounterVec>,
    /// Per-minute min/mean/max of op latency over the last hour.
    ops_ring: Arc<TimeRing>,
}

/// A per-thread client endpoint of a [`ShardedKvStore`](crate::ShardedKvStore).
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
    /// [`StoreConfig::with_metrics`](crate::StoreConfig::with_metrics)`(None)`).
    metrics: Option<KvMetrics>,
}

impl KvHandle {
    /// Handle `id` of the store behind `inner`; the caller
    /// ([`ShardedKvStore::handle`](crate::ShardedKvStore::handle)) has
    /// marked the id taken.
    pub(crate) fn new(id: u32, inner: Arc<Inner>) -> KvHandle {
        let metrics = inner.metrics.as_ref().map(|r| KvMetrics {
            put_latency: r.histogram(names::KV_PUT_LATENCY_US),
            get_latency: r.histogram(names::KV_GET_LATENCY_US),
            reads_fast: r.counter_vec(names::KV_READS_FAST, inner.shards.len()),
            reads_slow: r.counter_vec(names::KV_READS_SLOW, inner.shards.len()),
            puts_fast: r.counter_vec(names::KV_PUTS_FAST, inner.shards.len()),
            puts_slow: r.counter_vec(names::KV_PUTS_SLOW, inner.shards.len()),
            ops_ring: r.ring(names::KV_OPS_RING_US, 60, Duration::from_secs(60)),
        });
        KvHandle {
            id,
            inner,
            client: ThreadClient::new(ClientId::reader(id)),
            timeout: Duration::from_secs(10),
            depth: DEFAULT_DEPTH,
            next_op: 0,
            pending: HashMap::new(),
            keys_in_flight: HashSet::new(),
            ready: Vec::new(),
            get_rounds: (0, 0),
            metrics,
        }
    }

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
    /// [`StoreConfig::fast_reads`](crate::StoreConfig::fast_reads) an
    /// uncontended confirmed get takes 2.
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
        let kid = self.inner.shards[shard_idx].keys.get(key);
        (
            shard_idx,
            kid.map(|kid| RegGroup::keyed(kid, self.inner.num_handles)),
        )
    }

    /// Locate `key`, allocating a key id on its first put (logged before
    /// it becomes visible on WAL-backed stores).
    fn lookup_or_alloc(&self, key: &str) -> Result<(usize, RegGroup)> {
        let shard_idx = self.inner.router.shard_of(key);
        let kid = self.inner.shards[shard_idx].keys.get_or_alloc(key)?;
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
                    OpKind::Write => {
                        if let Some(m) = &self.metrics {
                            // A certified tag collect is 1 round, so a fast
                            // put is 3; a decided one is 2 or more.
                            if rounds <= 3 {
                                m.puts_fast.inc(p.shard);
                            } else {
                                m.puts_slow.inc(p.shard);
                            }
                        }
                        KvOutput::Put(Tag::from_timestamp(
                            out.into_wrote().expect("writes return Wrote outputs").ts,
                        ))
                    }
                    OpKind::Read => {
                        self.get_rounds.0 += u64::from(rounds);
                        self.get_rounds.1 += 1;
                        if let Some(m) = &self.metrics {
                            // Fast-path reads finish in 1 or 2 collect
                            // rounds; anything longer paid the write-back.
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

    /// Submit a put without waiting for it: a multi-writer write (3 rounds
    /// when quiet, 4 or more when contended) that will resolve through
    /// [`KvHandle::poll`] as [`KvOutput::Put`].
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
        // Read before the driver's own submit clock, so the `kv.op` span
        // covers the `driver.op` one.
        let started = Instant::now();
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
                started,
            },
        );
        self.keys_in_flight.insert(key.to_string());
        Ok(op)
    }

    /// Submit a get without waiting for it: an atomic read (4 rounds, or
    /// 1 when [`StoreConfig::fast_reads`](crate::StoreConfig::fast_reads)
    /// is on and the read is uncontended and confirmed) that will resolve through
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
        // Read before the driver's own submit clock, so the `kv.op` span
        // covers the `driver.op` one.
        let started = Instant::now();
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
                started,
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

    /// Store `value` under `key`: a multi-writer write, a tag collect and
    /// the 2-round pre-write/commit — 3 rounds when the collect's first
    /// round certifies the newest tag, 4 or more otherwise. Returns the
    /// multi-writer tag the put committed with.
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
    use crate::{ShardedKvStore, StoreConfig};
    use rastor_common::ObjectId;
    use rastor_core::adversary::SilentObject;

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
