//! # rastor_obs — the observability spine
//!
//! Everything the bench harness *measures*, a live deployment should be
//! able to *observe*. This crate is the always-on side of that split (see
//! `docs/ARCHITECTURE.md`, "measure vs observe"): a metrics registry cheap
//! enough to leave recording on every hot path, fixed-size time-series
//! aggregation, and a manifest of every exported metric name so the docs
//! gate (`scripts/check_docs.py`) can refuse undocumented metrics.
//!
//! ## Design rules
//!
//! * **Lock-cheap recording.** [`Counter`], [`CounterVec`] and
//!   [`Histogram`] record with single relaxed atomic ops — no locks, no
//!   allocation, fixed memory. Call sites resolve their `Arc` handles once
//!   (at construction / connection setup) and record through the handle;
//!   the registry's name map is only locked at resolution time.
//! * **Fixed memory.** Histograms are log-bucketed (one `u64` per
//!   power-of-two bucket), rings hold a fixed number of slots and
//!   overwrite the oldest — nothing in this crate grows with traffic.
//! * **Deterministic when asked.** Every recorder has an explicit-input
//!   form ([`TimeRing::record_at`], a fresh non-global [`Registry`]) so
//!   tests assert exact counts; wall-clock convenience wrappers sit on
//!   top.
//! * **No dependencies.** Snapshots serialize to JSON by hand, one
//!   counter per line, so consumers can scan with [`flat_counters`]
//!   instead of a JSON parser.
//!
//! The registry deliberately does **not** know about sockets: `rastor_net`
//! serves [`Registry::snapshot_json`] behind its `Metrics` wire frame, and
//! the `rastor` CLI renders it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod manifest;
mod metrics;
mod ring;
pub mod trace;

pub use manifest::{manifest_json, metric_def, MetricDef, METRICS};
pub use metrics::{
    flat_counters, Counter, CounterVec, Histogram, HistogramSnapshot, Registry,
    COUNTER_VEC_CAPACITY, HISTOGRAM_BUCKETS, MAX_NAME_LEN,
};
pub use ring::{RingSlot, TimeRing};

/// The canonical names of every metric the workspace records, used by the
/// recording seams so the [`METRICS`] manifest can never drift from the
/// call sites (a unit test walks this module and the manifest both ways).
pub mod names {
    /// Operations completed by a pipelined op driver (any protocol op).
    pub const DRIVER_OPS_COMPLETED: &str = "driver.ops_completed";
    /// Operations expired by a driver deadline before completing.
    pub const DRIVER_OPS_EXPIRED: &str = "driver.ops_expired";
    /// Protocol rounds per completed driver op (histogram).
    pub const DRIVER_OP_ROUNDS: &str = "driver.op_rounds";
    /// End-to-end put latency, submit to harvest, in µs (histogram).
    pub const KV_PUT_LATENCY_US: &str = "kv.put_latency_us";
    /// End-to-end get latency, submit to harvest, in µs (histogram).
    pub const KV_GET_LATENCY_US: &str = "kv.get_latency_us";
    /// Per-shard gets completed on the 2-round fast path (counter/shard).
    pub const KV_READS_FAST: &str = "kv.reads_fast";
    /// Per-shard gets that paid the 4-round fallback (counter/shard).
    pub const KV_READS_SLOW: &str = "kv.reads_slow";
    /// Per-minute ring of op latencies in µs (min/mean/max per slot).
    pub const KV_OPS_RING_US: &str = "kv.ops_ring_us";
    /// Mutation records appended to write-ahead logs.
    pub const STORE_WAL_APPENDS: &str = "store.wal_appends";
    /// Fsyncs the store issued: one per logged mutation, two per snapshot
    /// (the file, then its directory); none with fsync off.
    pub const STORE_WAL_FSYNCS: &str = "store.wal_fsyncs";
    /// WAL records replayed during recovery opens.
    pub const STORE_WAL_REPLAYED: &str = "store.wal_replayed_records";
    /// Bytes cut off torn WAL tails during recovery opens.
    pub const STORE_WAL_TRUNCATED: &str = "store.wal_truncated_bytes";
    /// Compacting snapshots written by durable objects.
    pub const STORE_SNAPSHOTS: &str = "store.snapshots";
    /// Request frames read off client connections by object servers.
    pub const NET_FRAMES_IN: &str = "net.frames_in";
    /// Reply frames written back to clients by object servers.
    pub const NET_FRAMES_OUT: &str = "net.frames_out";
    /// Foreign-version frames refused by the server-side codec.
    pub const NET_VERSION_MISMATCHES: &str = "net.version_mismatches";
    /// In-band status/metrics queries answered by object servers.
    pub const NET_STATUS_QUERIES: &str = "net.status_queries";
    /// Per-minute min/mean/max of server-side envelope handling time.
    pub const NET_ENVELOPES_RING_US: &str = "net.envelopes_ring_us";
    /// Connections opened on reactor endpoints (cumulative).
    pub const NET_CONNS_OPEN: &str = "net.conns_open";
    /// Reactor readiness-loop wakeups (poller returns that found work).
    pub const NET_READINESS_WAKEUPS: &str = "net.readiness_wakeups";
    /// Request envelopes resubmitted by `NetCluster` clients.
    pub const NET_RESUBMISSIONS: &str = "net.resubmissions";
    /// Frames the chaos proxy dropped outright.
    pub const CHAOS_FRAMES_DROPPED: &str = "chaos.frames_dropped";
    /// Frames the chaos proxy delayed (fixed + jitter sleep).
    pub const CHAOS_FRAMES_DELAYED: &str = "chaos.frames_delayed";
    /// Adjacent frame pairs the chaos proxy swapped in flight.
    pub const CHAOS_FRAMES_REORDERED: &str = "chaos.frames_reordered";
    /// Frames swallowed while a chaos partition was toggled on.
    pub const CHAOS_PARTITION_DROPS: &str = "chaos.partition_drops";
    /// Spans recorded into live trace buffers.
    pub const TRACE_SPANS_RECORDED: &str = "trace.spans_recorded";
    /// Spans lost to buffer caps or live-ring eviction.
    pub const TRACE_SPANS_DROPPED: &str = "trace.spans_dropped";
    /// Finished ops whose latency crossed the slow-op threshold.
    pub const TRACE_SLOW_OPS_CAPTURED: &str = "trace.slow_ops_captured";
}
