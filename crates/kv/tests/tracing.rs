//! End-to-end trace propagation through the in-process vertical stack:
//! a pipelined put/get batch with tracing on must leave one captured
//! trace per op whose span tree matches the protocol's structure.
//!
//! The cluster runs `t = 0` (a single object per shard) on purpose:
//! with one object every reply is needed for a quorum, so every
//! `obj.apply` lands in the trace buffer *before* the driver completes
//! the op — exact span counts instead of racy quorum stragglers. The
//! recorder is configured with threshold 0 (capture every finished
//! trace) and stride 1 (trace every op), so the test is deterministic
//! end to end.
//!
//! The whole test lives in one `#[test]` because [`trace::global`] is
//! process-wide: parallel test threads would interleave their captures.

use rastor_common::Value;
use rastor_kv::{ShardedKvStore, StoreConfig};
use rastor_obs::trace::{self, span, CapturedTrace};
use rastor_store::TempDir;

const PUTS: usize = 8;
const GETS: usize = 8;

/// Spans of `t` with the given name, in recording order.
fn named<'a>(t: &'a CapturedTrace, name: &str) -> Vec<&'a trace::Span> {
    t.spans.iter().filter(|s| s.name == name).collect()
}

/// Assert the protocol-shaped span tree every in-memory op must have:
/// one `driver.op` umbrella whose detail (the round count) matches the
/// `driver.round` spans, one `obj.apply` per round (single object), and
/// one closing `kv.op` recorded last at the harvest seam.
fn assert_op_shape(t: &CapturedTrace, expect_kind: u64) {
    assert_eq!(t.dropped, 0, "trace {:#x} dropped spans", t.trace);

    let ops = named(t, span::DRIVER_OP);
    assert_eq!(ops.len(), 1, "trace {:#x}: one driver.op umbrella", t.trace);
    let rounds = named(t, span::DRIVER_ROUND);
    assert_eq!(
        ops[0].detail,
        rounds.len() as u64,
        "trace {:#x}: driver.op detail is the round count",
        t.trace
    );
    // Rounds close in order: details are 1..=R on one shared clock.
    for (i, r) in rounds.iter().enumerate() {
        assert_eq!(r.detail, i as u64 + 1, "trace {:#x} round order", t.trace);
        assert!(r.start_us <= r.end_us);
    }

    // One object (t = 0) applies every round exactly once, and each
    // apply is recorded before the driver can see that round's reply.
    let applies = named(t, span::OBJ_APPLY);
    assert_eq!(
        applies.len(),
        rounds.len(),
        "trace {:#x}: one obj.apply per round",
        t.trace
    );

    // The harvest seam closes the trace: kv.op is recorded last, tagged
    // with the op kind (0 = put, 1 = get), and spans the whole op.
    let kv = named(t, span::KV_OP);
    assert_eq!(kv.len(), 1, "trace {:#x}: one kv.op close", t.trace);
    assert_eq!(kv[0].detail, expect_kind, "trace {:#x} op kind", t.trace);
    assert_eq!(
        t.spans.last().unwrap().name,
        span::KV_OP,
        "trace {:#x}: kv.op recorded last",
        t.trace
    );
    assert!(
        kv[0].duration_us() >= ops[0].duration_us(),
        "trace {:#x}: kv.op (submit..harvest) covers driver.op",
        t.trace
    );
}

#[test]
fn pipelined_batch_produces_protocol_shaped_span_trees() {
    let rec = trace::global();
    rec.set_threshold_us(0);
    rec.set_sample_every(1);
    rec.set_enabled(true);
    rec.clear_captured();

    // ---- In-memory store: driver/object/kv spans, no WAL. ----
    let store = ShardedKvStore::spawn(StoreConfig::new(0, 1, 1).with_fast_reads(true))
        .expect("t=0 is a valid budget");
    let mut h = store.handle(0).expect("handle");
    h.set_depth(PUTS);

    let items: Vec<(String, Value)> = (0..PUTS as u64)
        .map(|i| (format!("k{i}"), Value::from_u64(i)))
        .collect();
    h.put_batch(&items).expect("pipelined puts");
    let keys: Vec<String> = (0..GETS as u64).map(|i| format!("k{i}")).collect();
    let got = h.get_batch(&keys).expect("pipelined gets");
    assert!(got.iter().all(Option::is_some), "every key was written");

    let captured = rec.captured();
    assert_eq!(
        captured.len(),
        PUTS + GETS,
        "threshold 0 + stride 1 captures every op exactly once"
    );

    // Trace ids are unique and the capture queue retires in finish order:
    // all puts (pipelined together) before any get.
    let mut ids: Vec<u64> = captured.iter().map(|t| t.trace).collect();
    ids.dedup();
    assert_eq!(ids.len(), PUTS + GETS, "one distinct trace id per op");
    for (i, t) in captured.iter().enumerate() {
        assert_op_shape(t, u64::from(i >= PUTS));
    }

    // Writes pay the full collect + pre-write + commit ladder; reads
    // finish on the 1-round fast path (single object, no contention).
    let put_rounds = named(&captured[0], span::DRIVER_ROUND).len();
    let get_rounds = named(&captured[PUTS], span::DRIVER_ROUND).len();
    assert!(
        put_rounds > get_rounds,
        "puts ({put_rounds} rounds) outrank fast-path gets ({get_rounds})"
    );
    assert_eq!(get_rounds, 1, "uncontended gets take the 1-round fast path");

    // ---- WAL-backed store: the same ops grow wal.append spans. ----
    rec.clear_captured();
    let dir = TempDir::new("kv-tracing");
    let store = ShardedKvStore::spawn(StoreConfig::new(0, 1, 1).with_wal(dir.path()))
        .expect("t=0 with a WAL");
    let mut h = store.handle(0).expect("handle");
    h.set_depth(PUTS);
    h.put_batch(&items).expect("durable pipelined puts");

    let captured = rec.captured();
    rec.set_enabled(false);
    assert_eq!(captured.len(), PUTS, "every durable put captured");
    for t in &captured {
        assert_op_shape(t, 0);
        // The commit round mutates durable state, so at least one
        // wal.append hangs under this trace via the thread-local trace
        // context — and every append lands before its obj.apply closes.
        let appends = named(t, span::WAL_APPEND);
        assert!(
            !appends.is_empty(),
            "trace {:#x}: durable put logged no wal.append span",
            t.trace
        );
        let last_apply_end = named(t, span::OBJ_APPLY).last().unwrap().end_us;
        for a in appends {
            assert!(
                a.end_us <= last_apply_end,
                "trace {:#x}: wal.append inside the apply window",
                t.trace
            );
        }
    }
}
