//! The per-layer table of the traced run: counter deltas read from
//! `rastor_obs::Registry::global()`, probe results, span self times, and
//! the cost table whose rows — calls per operation × probe cost — plus
//! `cost.unattributed_us_per_op` equal the CPU spent per operation.

use crate::client::Report;
use crate::json::Metric;
use crate::names::PER_LAYER;
use crate::probes;
use crate::runner::{Count, RunCfg, TraceInputs};
use crate::spans::{Recorder, RAW_CAP};
use crate::stats;
use crate::workload::{Substrate, ValueMaker, T};
use rastor_obs::trace::span;
use std::collections::BTreeMap;
use std::path::Path;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn table(
    cfg: &RunCfg,
    inputs: &TraceInputs,
    reports: Vec<Report>,
    maker: &ValueMaker,
    keys: &[String],
    scratch: &Path,
) -> Result<Vec<Metric>, String> {
    let spec = cfg.spec;
    let sat = &inputs.sat;
    let count = |c: Count| sat.counters.get(c) as f64;
    let ops = inputs.ops as f64;
    let gets = count(Count::ReadsFast) + count(Count::ReadsSlow);
    let puts = (count(Count::OpsCompleted) - gets).max(0.0);
    let get_share = ratio(gets, gets + puts);

    // Fold the clients' reports.
    let mut spans = Recorder::new(RAW_CAP);
    let (mut polls, mut poll_ops, mut get_rounds) = (0u64, 0u64, (0u64, 0u64));
    let mut sat_op_ns = Vec::new();
    for mut r in reports {
        if let Some(rec) = r.spans.take() {
            spans.merge(rec);
        }
        polls += r.polls;
        poll_ops += r.poll_ops;
        get_rounds = (get_rounds.0 + r.get_rounds.0, get_rounds.1 + r.get_rounds.1);
        sat_op_ns.append(&mut r.sat_op_ns);
    }
    let sat_op_ns = stats::sorted(sat_op_ns);
    let trace_path = scratch
        .parent()
        .expect("the scratch dir sits under out/")
        .join(format!("trace-{}.json", spec.name));
    std::fs::write(&trace_path, spans.to_json(spec.name))
        .map_err(|e| format!("writing {trace_path:?}: {e}"))?;
    println!(
        "trace: {} spans recorded (bench-side submit/poll/put/get spans and the program's sampled \
         traces folded in as children); the first {RAW_CAP} per client written to {}",
        spans.seen(),
        trace_path.display()
    );

    let get_rounds_mean = ratio(get_rounds.0 as f64, get_rounds.1 as f64);
    let put_rounds_mean = ratio(count(Count::RoundsSum) - get_rounds.0 as f64, puts);
    let rounds_mean = get_share * get_rounds_mean + (1.0 - get_share) * put_rounds_mean;

    // Probes, with this workload's message shapes.
    let kv = probes::kv(keys);
    let core = probes::core(spec, maker);
    let simp = probes::sim(spec, maker, cfg.seed);
    let net = probes::net(spec, maker)?;
    // Values a key's register held midway through saturation, the preload
    // included: a put appends a pre-write and a commit at each of its
    // shard's four objects.
    let puts_by_midway = (sat.wal_appends_before + sat.counters.get(Count::WalAppends) / 2) / 8;
    let versions = 1 + puts_by_midway / u64::from(spec.keys);
    let store = probes::store(spec, maker, scratch, versions)?;
    let obs = probes::obs();

    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    let submits = ["kv.submit_put", "kv.submit_get"]
        .iter()
        .filter_map(|n| spans.agg(n))
        .fold((0u64, 0u64), |acc, a| (acc.0 + a.total_ns, acc.1 + a.count));
    let submit_ns = ratio(submits.0 as f64, submits.1 as f64);
    let ops_per_poll = ratio(poll_ops as f64, polls as f64);
    m.insert("kv.submit_ns", submit_ns);
    m.insert(
        "kv.poll_wait_us_per_op",
        ratio(
            spans.agg("kv.poll").map_or(0.0, |a| a.total_ns as f64) / 1e3,
            poll_ops as f64,
        ),
    );
    m.insert("kv.ops_per_poll", ops_per_poll);
    m.insert("kv.shard_of_ns", kv.shard_of_ns);
    m.insert("kv.reads_fast_ratio", ratio(count(Count::ReadsFast), gets));
    let pct = |q: f64| stats::percentile(&sat_op_ns, q).unwrap_or(0.0) / 1e3;
    m.insert("kv.sat_op_p50_us", pct(0.50));
    m.insert("kv.op_p99_us", pct(0.99));
    m.insert("kv.op_max_us", pct(1.0));
    m.insert("kv.get_p95_us", inputs.get_p95_us);
    m.insert("kv.put_p95_us", inputs.put_p95_us);
    m.insert("proc.rss_peak_mb", inputs.rss_peak_mb);
    m.insert("core.get_rounds_mean", get_rounds_mean);
    m.insert("core.put_rounds_mean", put_rounds_mean);
    m.insert("core.object_read_ns", core.object_read_ns);
    m.insert("core.object_write_ns", core.object_write_ns);
    m.insert("core.sim_get_ns", core.sim_get_ns);
    m.insert("core.sim_put_ns", core.sim_put_ns);
    m.insert("core.msgs_per_get", core.msgs_per_get);
    m.insert("core.msgs_per_put", core.msgs_per_put);
    m.insert("sim.echo_rtt_us", simp.echo_rtt_us);
    m.insert("sim.driver_reply_ns", simp.driver_reply_ns);
    m.insert("sim.ops_expired", count(Count::OpsExpired));
    m.insert("net.encode_ns_per_frame", net.encode_ns_per_frame);
    m.insert("net.decode_ns_per_frame", net.decode_ns_per_frame);
    m.insert("net.bytes_per_frame", net.bytes_per_frame);
    m.insert("net.echo_rtt_us", net.echo_rtt_us);
    let frames_in_per_op = ratio(count(Count::FramesIn), ops);
    m.insert("net.frames_in_per_op", frames_in_per_op);
    m.insert("net.frames_out_per_op", ratio(count(Count::FramesOut), ops));
    m.insert("net.wakeups_per_op", ratio(count(Count::Wakeups), ops));
    m.insert("net.resubmissions", count(Count::Resubmissions));
    m.insert("store.append_ns", store.append_ns);
    m.insert("store.bytes_per_record", store.bytes_per_record);
    m.insert("store.durable_write_ns", store.durable_write_ns);
    let appends_per_op = ratio(count(Count::WalAppends), ops);
    m.insert(
        "store.appends_per_put",
        ratio(count(Count::WalAppends), puts),
    );
    m.insert(
        "store.snapshots_per_kput",
        ratio(count(Count::Snapshots) * 1e3, puts),
    );
    m.insert("store.snapshot_write_ms", store.snapshot_write_ms);
    m.insert(
        "store.disk_bytes_per_user_byte",
        ratio(
            sat.disk_bytes as f64,
            f64::from(spec.keys) * spec.value_bytes as f64,
        ),
    );
    m.insert("store.replay_recs_per_s", store.replay_recs_per_s);
    m.insert("store.recover_ms", sat.recover_ms);
    m.insert("store.fsync_us", store.fsync_us);
    m.insert("obs.counter_inc_ns", obs.counter_inc_ns);
    m.insert("obs.histogram_record_ns", obs.histogram_record_ns);
    m.insert(
        "obs.trace_overhead_pct",
        100.0 * (1.0 - ratio(inputs.traced_rate, inputs.untraced_rate)),
    );

    // The cost table. Per operation: one submit; per round, one request to
    // and one reply from each live object; two collect rounds, the rest
    // writes; one hand-off (channel or socket round trip) per coalesced
    // envelope.
    let live = (3 * T + 1 - usize::from(spec.silent_object)) as f64;
    let replies = live * rounds_mean;
    let write_rounds = (rounds_mean - 2.0).max(0.0);
    let total = ratio(sat.cpu.as_secs_f64() * 1e6, ops);
    let cost_kv = submit_ns / 1e3;
    let cost_core = live * (2.0 * core.object_read_ns + write_rounds * core.object_write_ns) / 1e3;
    let in_process = spec.substrate != Substrate::Tcp;
    let cost_sim = replies * simp.driver_reply_ns / 1e3
        + if in_process {
            ratio(rounds_mean, ops_per_poll) * simp.echo_rtt_us
        } else {
            0.0
        };
    let cost_net = if in_process {
        0.0
    } else {
        (rounds_mean + replies) * (net.encode_ns_per_frame + net.decode_ns_per_frame) / 1e3
            + frames_in_per_op * net.echo_rtt_us
    };
    let cost_store = appends_per_op * store.append_ns / 1e3
        + ratio(count(Count::Snapshots), ops) * store.snapshot_write_ms * 1e3;
    m.insert("cost.kv_us_per_op", cost_kv);
    m.insert("cost.core_us_per_op", cost_core);
    m.insert("cost.sim_us_per_op", cost_sim);
    m.insert("cost.net_us_per_op", cost_net);
    m.insert("cost.store_us_per_op", cost_store);
    m.insert(
        "cost.unattributed_us_per_op",
        total - (cost_kv + cost_core + cost_sim + cost_net + cost_store),
    );
    m.insert("cost.total_us_per_op", total);

    // Span self times; a substrate that never records a span reports 0 in
    // the result line (every listed metric must appear) and "absent" here.
    for (metric, name) in [
        ("trace.kv_op.self_us", span::KV_OP),
        ("trace.driver_op.self_us", span::DRIVER_OP),
        ("trace.driver_round.self_us", span::DRIVER_ROUND),
        ("trace.obj_apply.self_us", span::OBJ_APPLY),
        ("trace.server_queue.self_us", span::SERVER_QUEUE),
        ("trace.server_apply.self_us", span::SERVER_APPLY),
        ("trace.wal_append.self_us", span::WAL_APPEND),
    ] {
        match spans.mean_self_us(name) {
            Some(us) => {
                m.insert(metric, us);
            }
            None => {
                println!("absent {metric} (this substrate records no {name} span)");
                m.insert(metric, 0.0);
            }
        }
    }

    PER_LAYER
        .iter()
        .map(|(name, unit)| {
            m.get(name)
                .map(|v| Metric::new(name, *v, unit))
                .ok_or_else(|| format!("per-layer metric {name} was not computed"))
        })
        .collect()
}
