//! The metric names, in one place: what a run emits, what `--dry` prints,
//! and what `check-names` compares with `BENCHMARK.json` so the two lists
//! cannot drift.

use crate::json::{self, Json};
use crate::workload::SPECS;

/// End-to-end metrics of the result line (`--trace 0`), with units.
///
/// `failed_ratio` and `atomicity_violations` are 0 on a healthy run, and
/// the driver's bound is a share of the parent's median, which means
/// nothing on 0. They are gated as their complements, 1.0 on a healthy
/// run: `succeeded_ratio` = 1 − `failed_ratio`, and `atomic_keys_ratio` =
/// verified keys with no violation ÷ verified keys. The run prints the
/// two under the issue's names as well. The p95 latencies and the peak
/// RSS miss every bound this box can hold and are per-layer diagnostics
/// (`kv.get_p95_us`, `kv.put_p95_us`, `proc.rss_peak_mb`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("get_p50_us", "us"),
    ("put_p50_us", "us"),
    ("succeeded_ratio", "ratio"),
    ("setup_s", "s"),
    ("atomic_keys_ratio", "ratio"),
];

/// Per-layer metrics of the traced run (`--trace 1`), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kv.submit_ns", "ns"),
    ("kv.poll_wait_us_per_op", "us"),
    ("kv.ops_per_poll", "count"),
    ("kv.shard_of_ns", "ns"),
    ("kv.reads_fast_ratio", "ratio"),
    ("kv.sat_op_p50_us", "us"),
    ("kv.op_p99_us", "us"),
    ("kv.op_max_us", "us"),
    ("kv.get_p95_us", "us"),
    ("kv.put_p95_us", "us"),
    ("core.get_rounds_mean", "count"),
    ("core.put_rounds_mean", "count"),
    ("core.object_read_ns", "ns"),
    ("core.object_write_ns", "ns"),
    ("core.sim_get_ns", "ns"),
    ("core.sim_put_ns", "ns"),
    ("core.msgs_per_get", "count"),
    ("core.msgs_per_put", "count"),
    ("sim.echo_rtt_us", "us"),
    ("sim.driver_reply_ns", "ns"),
    ("sim.ops_expired", "count"),
    ("net.encode_ns_per_frame", "ns"),
    ("net.decode_ns_per_frame", "ns"),
    ("net.bytes_per_frame", "count"),
    ("net.echo_rtt_us", "us"),
    ("net.frames_in_per_op", "count"),
    ("net.frames_out_per_op", "count"),
    ("net.wakeups_per_op", "count"),
    ("net.resubmissions", "count"),
    ("store.append_ns", "ns"),
    ("store.bytes_per_record", "count"),
    ("store.durable_write_ns", "ns"),
    ("store.appends_per_put", "count"),
    ("store.snapshots_per_kput", "count"),
    ("store.snapshot_write_ms", "ms"),
    ("store.disk_bytes_per_user_byte", "ratio"),
    ("store.replay_recs_per_s", "1/s"),
    ("store.recover_ms", "ms"),
    ("store.fsync_us", "us"),
    ("obs.counter_inc_ns", "ns"),
    ("obs.histogram_record_ns", "ns"),
    ("obs.trace_overhead_pct", "%"),
    ("proc.rss_peak_mb", "MB"),
    ("cost.kv_us_per_op", "us"),
    ("cost.core_us_per_op", "us"),
    ("cost.sim_us_per_op", "us"),
    ("cost.net_us_per_op", "us"),
    ("cost.store_us_per_op", "us"),
    ("cost.unattributed_us_per_op", "us"),
    ("cost.total_us_per_op", "us"),
    ("trace.kv_op.self_us", "us"),
    ("trace.driver_op.self_us", "us"),
    ("trace.driver_round.self_us", "us"),
    ("trace.obj_apply.self_us", "us"),
    ("trace.server_queue.self_us", "us"),
    ("trace.server_apply.self_us", "us"),
    ("trace.wal_append.self_us", "us"),
];

/// The metric list of a run in the given mode.
pub fn metrics(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// What `run --dry` prints: the names a real run would report.
pub fn print_dry(trace: bool) {
    for s in &SPECS {
        println!("workload {}", s.name);
    }
    for (name, unit) in metrics(trace) {
        println!("metric {name} {unit}");
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `(name, unit)` of every entry of `BENCHMARK.json`'s list `key`.
fn listed(doc: &Json, key: &str, second: &str) -> Result<Vec<(String, String)>, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json lacks the list {key:?}"))?
        .iter()
        .map(|e| {
            let field = |f: &str| {
                e.get(f)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("an entry of {key:?} lacks {f:?}"))
            };
            Ok((field("name")?, field(second)?))
        })
        .collect()
}

/// Compare the names a `--dry` run prints with the lists in
/// `BENCHMARK.json`; any difference is an error naming it.
pub fn compare(doc: &Json) -> Result<(), String> {
    let mut problems = Vec::new();
    let mut diff = |what: &str, ours: Vec<(String, String)>, theirs: Vec<(String, String)>| {
        for (name, _) in &ours {
            if !valid_name(name) {
                problems.push(format!(
                    "{what} name {name:?} uses characters outside [A-Za-z0-9_.-]"
                ));
            }
        }
        if ours != theirs {
            let missing: Vec<_> = ours.iter().filter(|o| !theirs.contains(o)).collect();
            let extra: Vec<_> = theirs.iter().filter(|t| !ours.contains(t)).collect();
            problems.push(format!(
                "{what}: the run and BENCHMARK.json differ (only in the run: {missing:?}; only in BENCHMARK.json: {extra:?}; else the order)"
            ));
        }
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    diff(
        "workloads",
        SPECS
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect(),
        listed(doc, "workloads", "why")?,
    );
    diff(
        "end_to_end",
        own(END_TO_END),
        listed(doc, "end_to_end", "unit")?,
    );
    diff(
        "per_layer",
        own(PER_LAYER),
        listed(doc, "per_layer", "unit")?,
    );
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// `BENCHMARK.json`, which sits beside the benchmark's directory.
pub fn benchmark_json() -> Result<Json, String> {
    let path = crate::runner::manifest_dir()
        .parent()
        .map(|root| root.join("BENCHMARK.json"))
        .ok_or("the benchmark's directory has no parent")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path:?}: {e}"))?;
    json::parse(&text)
}

/// `check-names`: compare this code's names with `BENCHMARK.json`'s.
pub fn check() -> Result<(), String> {
    compare(&benchmark_json()?)?;
    println!(
        "check-names: {} workloads, {} end-to-end and {} per-layer metrics match BENCHMARK.json",
        SPECS.len(),
        END_TO_END.len(),
        PER_LAYER.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(
                !unit.is_empty() && unit.len() <= 16,
                "{name}: unit {unit:?}"
            );
        }
        for s in &SPECS {
            assert!(valid_name(s.name) && seen.insert(s.name));
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
        }
        assert!(END_TO_END.iter().any(|(n, u)| *n == "setup_s" && *u == "s"));
        assert!(!valid_name("a b") && !valid_name("") && !valid_name(".x"));
    }

    #[test]
    fn compare_names_the_drift() {
        let entry = |n: &str, k: &str, v: &str| format!("{{\"name\": \"{n}\", \"{k}\": \"{v}\"}}");
        let list = |items: Vec<String>| format!("[{}]", items.join(","));
        let doc = |e2e: Vec<String>| {
            format!(
                "{{\"workloads\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
                list(SPECS.iter().map(|s| entry(s.name, "why", s.why)).collect()),
                list(e2e),
                list(PER_LAYER.iter().map(|(n, u)| entry(n, "unit", u)).collect()),
            )
        };
        let good: Vec<String> = END_TO_END
            .iter()
            .map(|(n, u)| entry(n, "unit", u))
            .collect();
        assert_eq!(compare(&json::parse(&doc(good.clone())).unwrap()), Ok(()));
        let mut drifted = good;
        drifted[0] = entry("ops_per_sec", "unit", "1/s");
        let e = compare(&json::parse(&doc(drifted)).unwrap()).unwrap_err();
        assert!(e.contains("ops_per_sec") && e.contains("ops_per_s"), "{e}");
    }
}
