//! The exported-metric manifest: one [`MetricDef`] per metric the
//! workspace records, with its kind, unit, and the seam that records it.
//!
//! The manifest is the contract between code and docs: `rastor manifest`
//! regenerates `docs/metrics.json` from [`manifest_json`], and
//! `scripts/check_docs.py` fails the build if any manifest name is
//! missing from `docs/OPERATIONS.md` — so a metric cannot ship
//! undocumented, and a doc cannot describe a metric that no longer
//! exists.

use crate::names;

/// One exported metric: everything an operator needs to read it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MetricDef {
    /// Canonical name (a `crate::names` constant).
    pub name: &'static str,
    /// Shape: `counter`, `counter/shard`, `histogram`, or `ring`.
    pub kind: &'static str,
    /// What one unit of the value means.
    pub unit: &'static str,
    /// The code seam that records it.
    pub seam: &'static str,
    /// One-line operator description.
    pub help: &'static str,
}

/// Every metric the workspace exports, in manifest order.
pub const METRICS: &[MetricDef] = &[
    MetricDef {
        name: names::DRIVER_OPS_COMPLETED,
        kind: "counter",
        unit: "operations",
        seam: "sim::driver::OpDriver",
        help: "Protocol operations completed by pipelined op drivers.",
    },
    MetricDef {
        name: names::DRIVER_OPS_EXPIRED,
        kind: "counter",
        unit: "operations",
        seam: "sim::driver::OpDriver",
        help: "Operations abandoned by a driver deadline before completing.",
    },
    MetricDef {
        name: names::DRIVER_OP_ROUNDS,
        kind: "histogram",
        unit: "rounds",
        seam: "sim::driver::OpDriver",
        help: "Message rounds per completed driver operation.",
    },
    MetricDef {
        name: names::KV_PUT_LATENCY_US,
        kind: "histogram",
        unit: "microseconds",
        seam: "kv::KvHandle",
        help: "Put latency from submit to harvested completion.",
    },
    MetricDef {
        name: names::KV_GET_LATENCY_US,
        kind: "histogram",
        unit: "microseconds",
        seam: "kv::KvHandle",
        help: "Get latency from submit to harvested completion.",
    },
    MetricDef {
        name: names::KV_READS_FAST,
        kind: "counter/shard",
        unit: "gets",
        seam: "kv::KvHandle",
        help: "Gets completed on the fast path (no write-back), per shard.",
    },
    MetricDef {
        name: names::KV_READS_SLOW,
        kind: "counter/shard",
        unit: "gets",
        seam: "kv::KvHandle",
        help: "Gets that paid the 4-round fallback (or slow mode), per shard.",
    },
    MetricDef {
        name: names::KV_PUTS_FAST,
        kind: "counter/shard",
        unit: "puts",
        seam: "kv::KvHandle",
        help: "Puts whose tag collect ended on a fast-path certificate (3 rounds), per shard.",
    },
    MetricDef {
        name: names::KV_PUTS_SLOW,
        kind: "counter/shard",
        unit: "puts",
        seam: "kv::KvHandle",
        help: "Puts whose tag collect had to decide (4 rounds or more), per shard.",
    },
    MetricDef {
        name: names::KV_OPS_RING_US,
        kind: "ring",
        unit: "microseconds",
        seam: "kv::KvHandle",
        help: "Per-minute min/mean/max of op latencies, last 60 minutes.",
    },
    MetricDef {
        name: names::STORE_WAL_APPENDS,
        kind: "counter",
        unit: "records",
        seam: "store::Wal",
        help: "Mutation records appended to write-ahead logs.",
    },
    MetricDef {
        name: names::STORE_WAL_FSYNCS,
        kind: "counter",
        unit: "syncs",
        seam: "store::Wal",
        help: "Fsyncs the store issued: one per logged mutation or key-directory append, two per snapshot and per log created.",
    },
    MetricDef {
        name: names::STORE_WAL_REPLAYED,
        kind: "counter",
        unit: "records",
        seam: "store::Wal",
        help: "WAL records replayed during recovery opens.",
    },
    MetricDef {
        name: names::STORE_WAL_TRUNCATED,
        kind: "counter",
        unit: "bytes",
        seam: "store::Wal",
        help: "Bytes cut off torn WAL tails during recovery opens (older records behind a reset log's terminator are kept, not cut).",
    },
    MetricDef {
        name: names::STORE_SNAPSHOTS,
        kind: "counter",
        unit: "snapshots",
        seam: "store::DurableObject",
        help: "Compacting snapshots written by durable objects.",
    },
    MetricDef {
        name: names::NET_FRAMES_IN,
        kind: "counter",
        unit: "frames",
        seam: "net::ObjectServer",
        help: "Request frames read off client connections.",
    },
    MetricDef {
        name: names::NET_FRAMES_OUT,
        kind: "counter",
        unit: "frames",
        seam: "net::ObjectServer",
        help: "Reply frames written back to clients.",
    },
    MetricDef {
        name: names::NET_VERSION_MISMATCHES,
        kind: "counter",
        unit: "frames",
        seam: "net::ObjectServer",
        help: "Foreign-version frames refused by the wire codec.",
    },
    MetricDef {
        name: names::NET_STATUS_QUERIES,
        kind: "counter",
        unit: "queries",
        seam: "net::ObjectServer",
        help: "In-band status/metrics queries answered.",
    },
    MetricDef {
        name: names::NET_ENVELOPES_RING_US,
        kind: "ring",
        unit: "microseconds",
        seam: "net::ObjectServer",
        help: "Per-minute min/mean/max of envelope handling time, last 60 minutes.",
    },
    MetricDef {
        name: names::NET_CONNS_OPEN,
        kind: "counter",
        unit: "connections",
        seam: "net::reactor",
        help: "Connections opened on reactor endpoints, cumulative.",
    },
    MetricDef {
        name: names::NET_READINESS_WAKEUPS,
        kind: "counter",
        unit: "wakeups",
        seam: "net::reactor",
        help: "Reactor readiness-loop wakeups: every poll return, for I/O, a wake, a timer deadline or the idle tick; a send written through on the caller's thread wakes no worker.",
    },
    MetricDef {
        name: names::NET_RESUBMISSIONS,
        kind: "counter",
        unit: "envelopes",
        seam: "net::NetCluster",
        help: "Request envelopes resubmitted after a drop or reconnect.",
    },
    MetricDef {
        name: names::CHAOS_FRAMES_DROPPED,
        kind: "counter",
        unit: "envelopes",
        seam: "sim::ObjectHost",
        help: "Object copies of request envelopes, and reply envelopes, a host's controller dropped (Verdict::Drop).",
    },
    MetricDef {
        name: names::CHAOS_FRAMES_DELAYED,
        kind: "counter",
        unit: "envelopes",
        seam: "sim::ObjectHost",
        help: "Object copies of request envelopes, and reply envelopes, a host held on a release timer for its controller's later DeliverAt (a profile's delay + jitter, service jitter included).",
    },
    MetricDef {
        name: names::CHAOS_FRAMES_REORDERED,
        kind: "counter",
        unit: "envelopes",
        seam: "sim::ObjectHost",
        help: "Object copies and reply envelopes a host's controller held back behind that object's next one (Verdict::Behind).",
    },
    MetricDef {
        name: names::CHAOS_PARTITION_DROPS,
        kind: "counter",
        unit: "envelopes",
        seam: "sim::ObjectHost",
        help: "Object copies a partitioned host dropped: one per live object for a refused request envelope, one per copy in transit at the cut, one per reply envelope.",
    },
    MetricDef {
        name: names::TRACE_SPANS_RECORDED,
        kind: "counter",
        unit: "spans",
        seam: "obs::trace::SpanRecorder",
        help: "Spans recorded into live trace buffers.",
    },
    MetricDef {
        name: names::TRACE_SPANS_DROPPED,
        kind: "counter",
        unit: "spans",
        seam: "obs::trace::SpanRecorder",
        help: "Spans lost to per-trace buffer caps or live-ring eviction.",
    },
    MetricDef {
        name: names::TRACE_SLOW_OPS_CAPTURED,
        kind: "counter",
        unit: "operations",
        seam: "obs::trace::SpanRecorder",
        help: "Finished operations captured because their latency crossed the slow-op threshold.",
    },
];

/// Look up one metric's definition by canonical name.
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// Serialize the manifest as the `rastor-metrics-manifest/v1` JSON
/// document committed at `docs/metrics.json` (regenerate with
/// `cargo run --bin rastor -- manifest`). One metric per line, same
/// scan-without-a-parser discipline as every other machine-readable
/// document in this repo.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n\"schema\": \"rastor-metrics-manifest/v1\",\n\"metrics\": [\n");
    for (i, m) in METRICS.iter().enumerate() {
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"kind\":\"{}\",\"unit\":\"{}\",\"seam\":\"{}\",\"help\":\"{}\"}}{}\n",
            m.name,
            m.kind,
            m.unit,
            m.seam,
            m.help,
            if i + 1 == METRICS.len() { "" } else { "," }
        ));
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    /// Both directions of the drift gate: every `names::` constant is in
    /// the manifest, and every manifest row names a `names::` constant.
    #[test]
    fn manifest_and_names_cover_each_other() {
        let consts = [
            names::DRIVER_OPS_COMPLETED,
            names::DRIVER_OPS_EXPIRED,
            names::DRIVER_OP_ROUNDS,
            names::KV_PUT_LATENCY_US,
            names::KV_GET_LATENCY_US,
            names::KV_READS_FAST,
            names::KV_READS_SLOW,
            names::KV_PUTS_FAST,
            names::KV_PUTS_SLOW,
            names::KV_OPS_RING_US,
            names::STORE_WAL_APPENDS,
            names::STORE_WAL_FSYNCS,
            names::STORE_WAL_REPLAYED,
            names::STORE_WAL_TRUNCATED,
            names::STORE_SNAPSHOTS,
            names::NET_FRAMES_IN,
            names::NET_FRAMES_OUT,
            names::NET_VERSION_MISMATCHES,
            names::NET_STATUS_QUERIES,
            names::NET_ENVELOPES_RING_US,
            names::NET_CONNS_OPEN,
            names::NET_READINESS_WAKEUPS,
            names::NET_RESUBMISSIONS,
            names::CHAOS_FRAMES_DROPPED,
            names::CHAOS_FRAMES_DELAYED,
            names::CHAOS_FRAMES_REORDERED,
            names::CHAOS_PARTITION_DROPS,
            names::TRACE_SPANS_RECORDED,
            names::TRACE_SPANS_DROPPED,
            names::TRACE_SLOW_OPS_CAPTURED,
        ];
        assert_eq!(consts.len(), METRICS.len());
        for c in consts {
            assert!(metric_def(c).is_some(), "{c} missing from METRICS");
        }
    }

    #[test]
    fn names_are_unique_and_json_safe() {
        for (i, m) in METRICS.iter().enumerate() {
            assert!(
                metrics::valid_name(m.name),
                "{} is not a valid metric name",
                m.name
            );
            assert!(
                METRICS[..i].iter().all(|p| p.name != m.name),
                "{} registered twice",
                m.name
            );
            for text in [m.kind, m.unit, m.seam, m.help] {
                assert!(
                    !text.contains('"') && !text.contains('\\'),
                    "{}: manifest text must not need JSON escaping",
                    m.name
                );
            }
        }
    }

    #[test]
    fn manifest_json_is_line_disciplined() {
        let doc = manifest_json();
        assert!(doc.contains("\"schema\": \"rastor-metrics-manifest/v1\""));
        assert_eq!(doc.matches("\"name\":").count(), METRICS.len());
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    /// The committed `docs/metrics.json` must match the code's manifest —
    /// regenerate with `cargo run --bin rastor -- manifest` after adding
    /// a metric.
    #[test]
    fn committed_manifest_matches_the_code() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/metrics.json");
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        assert_eq!(
            committed,
            manifest_json(),
            "docs/metrics.json is stale — run `cargo run --bin rastor -- manifest`"
        );
    }
}
