//! `agree`: does the benchmark agree with itself? Two sets of full runs
//! of the same code, each run on another seed; per metric × workload each
//! set's median and quartiles, their spread, the relative difference of
//! the medians, and the bound from `BENCHMARK.json`. A spread over the
//! bound (`setup_s` excepted, as the driver excepts it) or a second
//! median worse than the first by more than the bound is a miss, and a
//! miss exits non-zero. The output is markdown: `BASELINE.md` is this.

use crate::json::Json;
use crate::stats;
use crate::workload::SPECS;
use crate::Args;
use std::collections::BTreeMap;

/// Runs per set: the driver judges the benchmark on the quartiles of ten
/// runs, so `agree` does the same.
const RUNS: usize = 10;

/// The bounds ISSUE 13 asked for. `BENCHMARK.json` holds wider ones (see
/// README.md, "Where the bounds come from"); the table says for every
/// metric × workload whether these would have held.
const ISSUE_BOUNDS: [(&str, f64); 5] = [
    ("ops_per_s", 0.10),
    ("cpu_us_per_op", 0.10),
    ("get_p50_us", 0.10),
    ("put_p50_us", 0.10),
    ("setup_s", 0.15),
];

struct Bounded {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

fn bounds() -> Result<Vec<Bounded>, String> {
    let doc = crate::names::benchmark_json()?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks \"end_to_end\"")?
        .iter()
        .map(|e| {
            let s = |k: &str| {
                e.get(k)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("an end_to_end entry lacks {k:?}"))
            };
            Ok(Bounded {
                name: s("name")?.to_string(),
                unit: s("unit")?.to_string(),
                higher_is_better: s("better")? == "higher",
                bound: e
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("an end_to_end entry lacks a numeric \"bound\"")?,
            })
        })
        .collect()
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative = better).
fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    let rel = (second - first) / first.abs().max(f64::MIN_POSITIVE);
    if higher_is_better {
        -rel
    } else {
        rel
    }
}

pub fn run(a: &Args) -> Result<(), String> {
    let bounds = bounds()?;
    let mut child = a.clone();
    child.trace = false;
    // values[(workload, metric)][set] = one value per run
    let mut values: BTreeMap<(usize, usize), [Vec<f64>; 2]> = BTreeMap::new();
    for set in 0..2 {
        for run in 0..RUNS {
            child.seed = a.seed + (set * RUNS + run) as u64;
            for (w, spec) in SPECS.iter().enumerate() {
                eprintln!(
                    "agree: set {} run {}/{} {} seed {}",
                    set + 1,
                    run + 1,
                    RUNS,
                    spec.name,
                    child.seed
                );
                let r = crate::run_child(spec.name, &child, false)?;
                if r.failed > 0 {
                    return Err(format!(
                        "{}: {} of {} ops failed",
                        spec.name, r.failed, r.attempted
                    ));
                }
                for (m, b) in bounds.iter().enumerate() {
                    let v = r
                        .metric(&b.name)
                        .ok_or_else(|| format!("{}: the run reported no {}", spec.name, b.name))?;
                    values.entry((w, m)).or_default()[set].push(v);
                }
            }
        }
    }

    println!(
        "# rastor_benchmark baseline: two sets of {} runs, same code\n",
        RUNS
    );
    println!(
        "`agree --seed {} --seconds {}` on {} core(s). Each run uses another seed \
         ({}..{}). `spread` is the distance between the first and third quartile \
         (Python's `statistics.quantiles(v, n=4)`) as a share of the median; `worse` is how far the \
         second set's median is on the wrong side of the first's. A spread over the bound \
         (`setup_s` excepted) or a `worse` over the bound is a MISS. `bound` is `BENCHMARK.json`'s; \
         the last column applies the same rule with the bound ISSUE 13 asked for.\n",
        a.seed,
        a.seconds,
        std::thread::available_parallelism().map_or(0, usize::from),
        a.seed,
        a.seed + 2 * RUNS as u64 - 1
    );
    let mut misses = Vec::new();
    for (w, spec) in SPECS.iter().enumerate() {
        println!("## {}\n", spec.name);
        println!("| metric | unit | set 1 median [q1, q3] | spread | set 2 median [q1, q3] | spread | worse | bound | | at the issue's bound |");
        println!("|---|---|---|---|---|---|---|---|---|---|");
        for (m, b) in bounds.iter().enumerate() {
            let sets = &values[&(w, m)];
            let cell = |v: &[f64]| -> (f64, String, f64) {
                let med = stats::median(v).unwrap_or(0.0);
                let (q1, q3) = stats::quartiles(v).unwrap_or((med, med));
                (
                    med,
                    format!("{med:.4} [{q1:.4}, {q3:.4}]"),
                    stats::spread(v).unwrap_or(0.0),
                )
            };
            let (m1, c1, s1) = cell(&sets[0]);
            let (m2, c2, s2) = cell(&sets[1]);
            let worse = worsening(m1, m2, b.higher_is_better);
            let spread_gated = b.name != "setup_s";
            let misses_at = |bound: f64| worse > bound || (spread_gated && s1.max(s2) > bound);
            let miss = misses_at(b.bound);
            if miss {
                misses.push(format!("{} {}", spec.name, b.name));
            }
            let at_issue = match ISSUE_BOUNDS.iter().find(|(n, _)| *n == b.name) {
                Some((_, bound)) if misses_at(*bound) => format!("{:.0} %: miss", bound * 100.0),
                Some((_, bound)) => format!("{:.0} %: ok", bound * 100.0),
                None => "same".to_string(),
            };
            println!(
                "| `{}` | {} | {c1} | {:.2} % | {c2} | {:.2} % | {:+.2} % | {:.1} % | {} | {at_issue} |",
                b.name,
                b.unit,
                s1 * 100.0,
                s2 * 100.0,
                worse * 100.0,
                b.bound * 100.0,
                if miss { "MISS" } else { "ok" }
            );
        }
        println!();
    }
    if misses.is_empty() {
        println!("Every metric × workload agrees within its bound.");
        Ok(())
    } else {
        println!("MISSES: {}", misses.join(", "));
        Err(format!(
            "{} metric × workload pair(s) missed their bound",
            misses.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::worsening;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!(
            (worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12,
            "latency up = worse"
        );
        assert!(
            (worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12,
            "throughput up = better"
        );
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
    }
}
