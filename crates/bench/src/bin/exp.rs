//! The experiment table printer: regenerates every table and figure of
//! EXPERIMENTS.md.
//!
//! Usage: `cargo run -p rastor_bench --bin exp -- [t1|…|t6|t9|f1|f2|all] [--quick]`
//!
//! Every table is deterministic paper content (round counts, simulated
//! time, lower-bound replays) and nothing is written to disk; wall-clock
//! performance is measured in `benchmark/`. `--quick` trims `t9`'s
//! explorer sweeps to one scenario and skips its budgeted `t = 2` pass.

use rastor_bench::{
    f1_prop1, t1_round_table, t2_contention_rounds, t3_recurrence_table, t4_boundary, t5_latency,
    t6_closed_loop, t9_fast_path_rounds,
};
use rastor_check::{
    budget_from_env, cast_t_plus_one_forgers, casts_single_fault, scenario_t2_mixed,
    scenario_two_writers_one_reader, scenario_write_then_read, scenario_write_then_two_reads, Cast,
    ReadPath,
};
use rastor_core::FaultKind;
use rastor_lowerbound::diagram::{render_lemma1_layout, render_lemma1_superblocks};
use rastor_lowerbound::lemma1::execute_first_pair;
use rastor_lowerbound::{Lemma1Partition, Lemma1Schedule};

fn t1() {
    println!("== T1: round complexity per protocol (contention-free, t = 1 and t = 3) ==");
    println!(
        "{:<14} {:<15} {:>3} {:>12} {:>11}   paper claim",
        "protocol", "model", "S", "write rnds", "read rnds"
    );
    for t in [1usize, 3] {
        println!("--- t = {t} ---");
        for row in t1_round_table(t, 2) {
            let claim = row
                .paper_claim
                .map(|(w, r)| format!("({w}W, {r}R)"))
                .unwrap_or_else(|| "unbounded".into());
            println!(
                "{:<14} {:<15} {:>3} {:>12} {:>11}   {claim}",
                row.protocol, row.model, row.s, row.write_rounds, row.read_rounds
            );
        }
    }
}

fn t2() {
    println!("== T2: read rounds vs. write contention (slow reader, fast writer) ==");
    println!(
        "{:>14} {:>20} {:>22}",
        "racing writes", "retry-stable rounds", "atomic-unauth rounds"
    );
    for (n, retry, atomic) in t2_contention_rounds(16) {
        println!("{n:>14} {retry:>20} {atomic:>22}");
    }
    println!("(retry-stable grows with contention; the transformation stays at 4)");
}

fn t3() {
    println!("== T3: the Lemma 1 recurrence and Lemma 2 closed form ==");
    println!(
        "{:>3} {:>16} {:>12} {:>10} {:>11}",
        "k", "t_k (recur.)", "t_k (closed)", "S=3t_k+1", "k_max(t_k)"
    );
    for (k, tk, closed, s, kmax) in t3_recurrence_table(16) {
        println!("{k:>3} {tk:>16} {closed:>12} {s:>10} {kmax:>11}");
    }
    println!("(3-round reads force k = Omega(log t) write rounds)");
}

fn t4() {
    println!("== T4: the S = 4t resilience boundary for 2-round reads ==");
    println!("{:>3} {:>3} {:>6} {:>12}", "S", "t", "S<=4t", "violations");
    for (s, t, v) in t4_boundary(4) {
        println!(
            "{s:>3} {t:>3} {:>6} {v:>12}",
            if s <= 4 * t { "yes" } else { "no" }
        );
    }
    println!("(the denial schedule breaks regularity exactly when S <= 4t)");
}

fn t5() {
    println!("== T5: end-to-end latency, random delays in [5,20] ==");
    for byz in [false, true] {
        println!(
            "--- {} ---",
            if byz {
                "t silent Byzantine objects"
            } else {
                "fault-free"
            }
        );
        println!(
            "{:<14} {:>14} {:>13} {:>5}",
            "protocol", "write latency", "read latency", "ops"
        );
        for row in t5_latency(2, 42, byz) {
            println!(
                "{:<14} {:>14.1} {:>13.1} {:>5}",
                row.protocol, row.write_latency, row.read_latency, row.ops
            );
        }
    }
}

fn t6() {
    println!("== T6: closed-loop saturation, simulator (t = 1, 2 readers, 20 ops/client) ==");
    println!(
        "{:<14} {:>5} {:>9} {:>11} {:>24}",
        "protocol", "ops", "makespan", "ops/1k time", "read latency p50/p95/max"
    );
    for row in t6_closed_loop(1, 2, 20, 42) {
        println!(
            "{:<14} {:>5} {:>9} {:>11.2} {:>16}/{}/{}",
            row.protocol,
            row.ops,
            row.makespan,
            row.throughput,
            row.read_latency.p50,
            row.read_latency.p95,
            row.read_latency.max
        );
    }
}

fn t9(quick: bool) {
    println!("== T9: the adaptive fast read path (t = 1) ==");
    println!(
        "{:<14} {:>18} {:>16}",
        "protocol", "uncontended rnds", "contended rnds"
    );
    for (protocol, uncontended, contended) in t9_fast_path_rounds() {
        println!("{protocol:<14} {uncontended:>18} {contended:>16}");
    }
    println!("(the fast path reads in 2 rounds when quiet, falls back to 4 under");
    println!(" write contention; the always-slow transformation pays 4 both ways)");
    println!();
    println!(
        "-- schedule explorer: exhaustive delay-rule sweeps ({} mode) --",
        if quick { "quick" } else { "full" }
    );
    let mut scenarios = vec![scenario_write_then_two_reads()];
    if !quick {
        scenarios.push(scenario_two_writers_one_reader());
    }
    let honest = Cast::honest();
    for scenario in &scenarios {
        for mode in [ReadPath::Slow, ReadPath::Fast] {
            let universe = 1u64 << scenario.universe_bits();
            let failures = scenario.sweep(mode, &honest);
            println!(
                "{:<28} {mode:?}: {universe} schedules, {} violations",
                scenario.name,
                failures.len()
            );
        }
    }
    // Checker efficacy: the deliberately unsound fast path (no
    // confirmation certificate) must be caught, and the repro shrinks.
    let scenario = scenario_write_then_two_reads();
    let failures = scenario.sweep(ReadPath::UnsoundFast, &honest);
    match failures.first() {
        None => println!("UnsoundFast: sweep found no violations — EXPLORER NOT BITING"),
        Some(first) => {
            let minimized = scenario.minimize(ReadPath::UnsoundFast, first.mask, &honest);
            println!(
                "{:<28} UnsoundFast: {} violating schedules; first mask {:#x} minimizes to {:#x} ({} delay rules)",
                scenario.name,
                failures.len(),
                first.mask,
                minimized,
                minimized.count_ones()
            );
        }
    }
    println!();
    println!("-- fault explorer: Byzantine casts over the same delay universe --");
    let scenario = scenario_write_then_read();
    let universe = 1u64 << scenario.universe_bits();
    for cast in casts_single_fault() {
        let failures = scenario.sweep(ReadPath::Fast, &cast);
        println!(
            "{:<28} <= t cast {:<18} {universe} schedules, {} violations",
            scenario.name,
            cast.name,
            failures.len()
        );
    }
    // The boundary witness: one more forger than the budget tolerates,
    // and the sweep must find the never-written read.
    let cast = cast_t_plus_one_forgers();
    let failures = scenario.sweep(ReadPath::Fast, &cast);
    match failures.first() {
        None => println!("t + 1 forgers: sweep found no witness — EXPLORER NOT BITING"),
        Some(first) => {
            let minimized = scenario.minimize(ReadPath::Fast, first.mask, &cast);
            println!(
                "{:<28} t + 1 cast {:<18} {} violating schedules; first mask {:#x} minimizes to {:#x}",
                scenario.name,
                cast.name,
                failures.len(),
                first.mask,
                minimized
            );
        }
    }
    if !quick {
        // t = 2: the 2^28 universe is out of exhaustion's reach, so the
        // explorer runs a seeded + perturbed + random-mask budgeted pass
        // under a within-budget Byzantine cast.
        let t2 = scenario_t2_mixed();
        let cast = Cast {
            name: "t2_stale_plus_crash",
            faults: vec![(0, FaultKind::StaleAfter(0)), (5, FaultKind::CrashAfter(2))],
        };
        let budget = budget_from_env("RASTOR_CHECK_BUDGET_MS", 2_000);
        let stats = t2.explore(ReadPath::Fast, &cast, 0xD0BE, budget, 400);
        println!(
            "{:<28} t = 2 budgeted ({}): {} runs ({} scheduled / {} perturbed / {} masks) in {:.0?}: {}",
            t2.name,
            cast.name,
            stats.runs,
            stats.scheduled_runs,
            stats.perturbed_runs,
            stats.mask_runs,
            stats.elapsed,
            if stats.is_clean() {
                "clean"
            } else {
                "VIOLATIONS FOUND"
            }
        );
    }
}

fn f1() {
    println!("== F1: Proposition 1 run family, executed mechanically (S=4, t=1) ==");
    println!(
        "{:>3} {:>12} {:>18} {:>22}",
        "k", "generations", "indistinguishable", "first violation at g"
    );
    for k in 1..=3 {
        let (k, gens, ind, first) = f1_prop1(k);
        println!(
            "{k:>3} {gens:>12} {ind:>18} {:>22}",
            first.map(|g| g.to_string()).unwrap_or_else(|| "-".into())
        );
    }
    println!("(every (pr_g, ∆pr_g) pair is transcript-identical to its reader,");
    println!(" so a 2-round read cannot avoid the violated run — Figure 1 executed)");
}

fn f2() {
    println!("== F2: Lemma 1 partition and key indistinguishability (Figure 2) ==");
    let part = Lemma1Partition::new(4);
    print!("{}", render_lemma1_layout(&part));
    println!("superblock cardinalities (equations 1-3):");
    print!("{}", render_lemma1_superblocks(&part));
    for k in 2..=5 {
        let sched = Lemma1Schedule::new(k);
        sched.check_invariants().expect("invariants");
        let pair = execute_first_pair(k);
        println!(
            "k={k}: |mimic set| = t_k = {:>3}; pr_1 ~ prC_1 indistinguishable: {}",
            sched.tk(),
            pair.indistinguishable()
        );
    }
}

const SECTIONS: [&str; 9] = ["t1", "t2", "t3", "t4", "t5", "t6", "t9", "f1", "f2"];

fn main() {
    let mut quick = false;
    let mut selected: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            other => selected = Some(other.to_string()),
        }
    }
    let arg = selected.unwrap_or_else(|| "all".into());
    if arg != "all" && !SECTIONS.contains(&arg.as_str()) {
        eprintln!(
            "unknown table {arg:?}; usage: exp [{}|all] [--quick]",
            SECTIONS.join("|")
        );
        std::process::exit(2);
    }
    for name in SECTIONS {
        if arg == name || arg == "all" {
            match name {
                "t1" => t1(),
                "t2" => t2(),
                "t3" => t3(),
                "t4" => t4(),
                "t5" => t5(),
                "t6" => t6(),
                "t9" => t9(quick),
                "f1" => f1(),
                "f2" => f2(),
                _ => unreachable!("SECTIONS is exhaustive"),
            }
            println!();
        }
    }
}
