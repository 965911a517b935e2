//! The net-substrate falsification acceptance suite.
//!
//! Same contract as `exhaustive.rs` — names start with `exhaustive_` so
//! the CI `model-check` lanes pick the suite up with one libtest filter —
//! but the system under test is the real TCP stack: reactor, wire v3,
//! client resubmission, link faults drawn per object at the hosts.
//! Schedules cannot be enumerated here, so the assertions are
//! search-shaped: a seeded chaos battery must come back clean at `≤ t`
//! Byzantine objects, and a `t + 1` forger cast must yield a
//! `check_atomic` witness the search finds, shrinks, and writes to
//! `target/model-check/`.
//!
//! Every seed goes through `rastor_common::test_seed` and is printed, so
//! a CI failure reproduces with `RASTOR_SEED=<printed> cargo test ...`.

use rastor_check::budget_from_env;
use rastor_check::netchaos::{chaos_battery, write_net_report, NetScenario};
use rastor_check::Cast;
use rastor_common::test_seed;
use rastor_core::FaultKind;
use rastor_kv::workload::Pattern;
use rastor_net::ChaosCfg;
use std::path::PathBuf;
use std::time::Duration;

/// Where net failure reports land; CI uploads this directory as an
/// artifact when the job fails (shared with the sim-substrate suite).
fn report_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/model-check")
}

/// Safe side: the full chaos battery (no faults, latency, loss, reorder,
/// loss+reorder, partition pulse) over a live TCP deployment with one
/// Byzantine object of each kind — zero violations, and the ops actually
/// completed (a search that starves is not a clean search). The budget
/// caps re-seeded rounds beyond the mandatory first full pass;
/// `RASTOR_CHECK_NET_BUDGET_MS` raises it in the extended CI lane.
#[test]
fn exhaustive_net_chaos_battery_is_clean_within_fault_budget() {
    let seed = test_seed(0xBA77E51);
    eprintln!("RASTOR_SEED={seed:#x} (chaos battery)");
    let budget = budget_from_env("RASTOR_CHECK_NET_BUDGET_MS", 1_000);
    for fault in [FaultKind::StaleAfter(0), FaultKind::ForgeHigh] {
        let mut scenario = NetScenario::small("battery");
        scenario.byzantine = scenario.t;
        scenario.fault = fault.clone();
        let stats = scenario.search(&chaos_battery(seed), budget);
        assert!(stats.runs >= chaos_battery(seed).len());
        assert!(stats.writes + stats.reads > 0, "the workload must run");
        if let Some(f) = stats.failures.first() {
            let path = write_net_report(&report_dir(), &scenario, f, &f.point)
                .expect("write net failure report");
            panic!(
                "{} of {} chaos points failed at byzantine = t ({fault:?}); \
                 first report at {path:?}: {:?}",
                stats.failures.len(),
                stats.runs,
                f.violations
            );
        }
    }
}

/// Broken side: `t + 1` colluding forgers behind per-object lossy links
/// must produce a read that returns a never-written value. The search
/// finds the witness, the minimizer strips fault axes that aren't
/// load-bearing (probing each ablation several times — wall clocks, not
/// masks), and the report lands in `target/model-check/` with a replay
/// line. The `≤ t` twin stays clean under the exact same point.
#[test]
fn exhaustive_net_search_finds_the_t_plus_one_forger_witness() {
    let seed = test_seed(0xF017CE);
    eprintln!("RASTOR_SEED={seed:#x} (witness search)");
    let mut scenario = NetScenario::small("forger_witness");
    scenario.byzantine = scenario.t + 1;
    scenario.fault = FaultKind::ForgeHigh;
    scenario.mix.pattern = Pattern::PutThenReads;
    // Loss is the load-bearing axis: a dropped commit leaves one honest
    // object behind, and a dropped reply hides the up-to-date one.
    let mut cfg = ChaosCfg::default().with_seed(seed).with_drops(0.3);
    cfg.delay = Duration::from_micros(100);
    let base = (cfg, None);
    let budget = budget_from_env("RASTOR_CHECK_NET_WITNESS_BUDGET_MS", 120_000);
    let witness = scenario
        .find_witness(&base, budget, 64)
        .expect("t + 1 forgers must produce an atomicity witness over TCP");
    assert!(
        witness
            .violations
            .iter()
            .any(|v| v.contains("never-written")),
        "the witness is a genuineness violation: {:?}",
        witness.violations
    );

    let minimized = scenario.minimize_point(&witness.point, 6);
    assert!(
        minimized.0.drop_prob > 0.0,
        "loss is load-bearing for the net witness, got {minimized:?}"
    );
    let path = write_net_report(&report_dir(), &scenario, &witness, &minimized)
        .expect("write net witness report");
    let body = std::fs::read_to_string(&path).expect("read net witness report");
    assert!(
        body.contains("ForgeHigh") && body.contains("replay:"),
        "report names the cast and carries a replay line:\n{body}"
    );

    // The ≤ t twin under the same point: one forger is outvoted however
    // the links misbehave.
    let mut twin = scenario.clone();
    twin.byzantine = twin.t;
    let out = twin.run_point(&witness.point);
    assert!(
        !out.has_atomicity_violation(),
        "a single forger must be outvoted under the witness point: {:?}",
        out.violations
    );
}

/// The cross-substrate seam: a net scenario names its faulty prefix with
/// the same `FaultKind` a sim cast does, so one value describes the fault
/// on both substrates and reports print it directly.
#[test]
fn exhaustive_net_scenarios_mirror_sim_casts() {
    let mut scenario = NetScenario::small("mirror");
    scenario.byzantine = 2;
    for fault in [FaultKind::ForgeHigh, FaultKind::StaleAfter(0)] {
        scenario.fault = fault.clone();
        let cast = Cast {
            name: "net_prefix",
            faults: (0..scenario.byzantine)
                .map(|o| (o, scenario.fault.clone()))
                .collect(),
        };
        assert_eq!(cast.byzantine_count(), 2);
        assert_eq!(cast.objects_for(4).len(), 4);
        assert!(format!("{scenario:?}").contains(&format!("{fault:?}")));
    }
}
