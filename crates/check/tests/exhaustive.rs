//! The schedule-explorer acceptance suite.
//!
//! Every test name starts with `exhaustive_` so the whole suite runs with a
//! libtest name filter: `cargo test -p rastor_check -- exhaustive`. The CI
//! `model-check` job runs exactly that (in release mode with the `ghost`
//! feature, so the protocol invariants stay armed).

use rastor_check::{
    budget_from_env, cast_one_forger, cast_one_stale, cast_t_plus_one_forgers, casts_single_fault,
    run_both_policies, scenario_policy_parity, scenario_t2_mixed,
    scenario_t2_three_writes_spanning_read, scenario_t2_two_writers_spanning_read,
    scenario_three_writes_spanning_read, scenario_two_writers_one_reader,
    scenario_two_writers_spanning_read, scenario_write_then_read, scenario_write_then_two_reads,
    write_failure_reports, Cast, RandomScheduler, ReadPath, Scenario,
};
use rastor_core::FaultKind;
use std::path::PathBuf;
use std::time::Duration;

/// Where minimized failing traces land; CI uploads this directory as an
/// artifact when the job fails.
fn report_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/model-check")
}

/// The `t = 2` fault budget spent on two different faults.
fn cast_t2_stale_plus_crash() -> Cast {
    let cast = Cast {
        name: "t2_stale_plus_crash",
        faults: vec![(0, FaultKind::StaleAfter(0)), (5, FaultKind::CrashAfter(2))],
    };
    assert!(cast.byzantine_count() <= 2, "within the t = 2 budget");
    cast
}

fn assert_sweep_clean(scenario: &Scenario, path: ReadPath, cast: &Cast) {
    let failures = scenario.sweep(path, cast);
    if !failures.is_empty() {
        let paths = write_failure_reports(&report_dir(), scenario, path, cast, &failures)
            .expect("write failure reports");
        panic!(
            "{} schedules violate atomicity for {} under cast {} / {path:?}; \
             minimized repros in {:?}",
            failures.len(),
            scenario.name,
            cast.name,
            paths
        );
    }
}

/// Acceptance: the exhaustive delay-rule sweep — every one of the 2^12
/// schedules in the universe, for the 2-writer/1-reader, 4-object (t = 1),
/// ≤ 3-op scripts — finds zero violations on both the slow (4-round) and
/// fast (2-round adaptive) read paths.
#[test]
fn exhaustive_sweep_finds_no_violations_on_sound_read_paths() {
    for scenario in [
        scenario_two_writers_one_reader(),
        scenario_write_then_two_reads(),
    ] {
        for path in [ReadPath::Slow, ReadPath::Fast] {
            assert_sweep_clean(&scenario, path, &Cast::honest());
        }
    }
}

/// Checker efficacy: a deliberately broken fast path
/// ([`ReadPath::UnsoundFast`] skips the confirmation certificate) is
/// caught by the same sweep, the failing schedule shrinks to a minimal
/// repro, and replaying the minimized mask still fails deterministically.
#[test]
fn exhaustive_sweep_catches_the_unsound_fast_path() {
    let scenario = scenario_write_then_two_reads();
    let honest = Cast::honest();
    let failures = scenario.sweep(ReadPath::UnsoundFast, &honest);
    let first = &failures[0];
    let minimized = scenario.minimize(ReadPath::UnsoundFast, first.mask, &honest);
    assert_eq!(
        (failures.len(), first.mask, minimized),
        (12, 0x106, 0x106),
        "the witness is pinned: same failing schedules, same 3-rule repro, as \
         when the unsound read was a `ReadMode` inside rastor_core"
    );

    // Replay-from-mask: the sim is deterministic, so the minimized mask is
    // a self-contained repro.
    let replay = scenario.run_mask(ReadPath::UnsoundFast, minimized, &honest);
    assert!(
        !replay.is_clean(),
        "replaying the minimized repro must fail"
    );
    assert!(
        replay
            .violations
            .iter()
            .any(|v| v.contains("inversion") || v.contains("regression")),
        "the unsound fast path fails as a new/old inversion, got {:?}",
        replay.violations
    );

    // The sound fast path survives the exact schedule that kills the
    // unsound one — the confirmation certificate is what saves it.
    let sound = scenario.run_mask(ReadPath::Fast, minimized, &honest);
    assert!(
        sound.is_clean(),
        "the confirmed fast path must survive the repro schedule: {:?}",
        sound.violations
    );
}

/// Seeded-random held-message schedules: many seeds, zero violations, and
/// replaying a seed reproduces the run bit for bit.
#[test]
fn exhaustive_random_schedules_stay_atomic_and_replay_from_seed() {
    for scenario in [
        scenario_two_writers_one_reader(),
        scenario_write_then_two_reads(),
    ] {
        for mode in [ReadPath::Slow, ReadPath::Fast] {
            for seed in 0..100 {
                let out = scenario.run_random(mode, seed, &Cast::honest());
                assert!(
                    out.is_clean(),
                    "seed {seed} violates atomicity for {} under {mode:?}: {:?}",
                    scenario.name,
                    out.violations
                );
            }
        }
    }

    // Replay-from-seed: identical seed, identical schedule, identical run.
    let scenario = scenario_two_writers_one_reader();
    let a = scenario.run_random(ReadPath::Fast, 42, &Cast::honest());
    let b = scenario.run_random(ReadPath::Fast, 42, &Cast::honest());
    let key = |o: &rastor_check::Outcome| {
        o.completions
            .iter()
            .map(|c| (c.client, c.op_seq, c.output.pair().clone(), c.stat.rounds))
            .collect::<Vec<_>>()
    };
    assert_eq!(key(&a), key(&b), "same seed must reproduce the same run");
}

/// Schedule perturbation: replay a recorded run's pick prefix with one
/// choice changed and continue randomly — the local neighborhood of every
/// explored schedule also stays atomic.
#[test]
fn exhaustive_perturbed_schedules_stay_atomic() {
    let scenario = scenario_two_writers_one_reader();
    for seed in 0..20 {
        let mut base = RandomScheduler::seeded(seed);
        let out = scenario.run_scheduled(ReadPath::Fast, &mut base, &Cast::honest());
        assert!(out.is_clean(), "base seed {seed}: {:?}", out.violations);
        let picks = base.picks;
        assert!(!picks.is_empty(), "a held-message run makes picks");
        for at in [0, picks.len() / 2, picks.len() - 1] {
            let mut perturbed = RandomScheduler::perturbed(seed, &picks, at);
            let out = scenario.run_scheduled(ReadPath::Fast, &mut perturbed, &Cast::honest());
            assert!(
                out.is_clean(),
                "perturbing seed {seed} at pick {at}: {:?}",
                out.violations
            );
        }
    }
}

/// Byzantine casts, safe side: every `≤ t` single-fault cast (silent,
/// crash, stale replay, equivocation, forgery) sweeps clean over the
/// *entire* delay-rule universe on both sound read paths — the paper's
/// fault budget holds under every schedule, not just the happy path.
#[test]
fn exhaustive_casts_within_fault_budget_sweep_clean() {
    let scenario = scenario_write_then_read();
    for cast in casts_single_fault()
        .into_iter()
        .chain([cast_one_stale(), cast_one_forger()])
    {
        assert_eq!(cast.byzantine_count(), 1, "these casts stay within t = 1");
        for path in [ReadPath::Slow, ReadPath::Fast] {
            assert_sweep_clean(&scenario, path, &cast);
        }
    }
}

/// Byzantine casts, broken side: `t + 1` colluding forgers give a
/// fabricated pair `t + 1` vouchers, and the sweep **must** find the
/// resulting `check_atomic` witness (a read returning a never-written
/// value), shrink it, and replay it — mirroring how the explorer catches
/// `ReadPath::UnsoundFast`. The `≤ t` twin stays clean under the exact
/// same minimized schedule: the boundary is the cast size, not the
/// schedule.
#[test]
fn exhaustive_sweep_finds_the_t_plus_one_forger_witness() {
    let scenario = scenario_write_then_read();
    let cast = cast_t_plus_one_forgers();
    assert_eq!(
        cast.byzantine_count(),
        2,
        "the witness cast is one past t = 1"
    );
    for mode in [ReadPath::Slow, ReadPath::Fast] {
        let failures = scenario.sweep(mode, &cast);
        assert!(
            failures
                .iter()
                .all(|f| f.violations.iter().any(|v| v.starts_with("atomicity"))),
            "every failure is an atomicity violation, not a liveness artifact"
        );

        let first = &failures[0];
        let minimized = scenario.minimize(mode, first.mask, &cast);
        assert_eq!(
            (failures.len(), first.mask, minimized),
            (84, 0x5, 0x5),
            "the pinned witness ({mode:?})"
        );
        let replay = scenario.run_mask(mode, minimized, &cast);
        assert!(
            replay
                .violations
                .iter()
                .any(|v| v.contains("never-written")),
            "the forgery witness is a genuineness violation, got {:?}",
            replay.violations
        );

        // The ≤ t twin under the same minimized schedule: one forger is
        // outvoted by the t + 1 voucher threshold.
        let twin = scenario.run_mask(mode, minimized, &cast_one_forger());
        assert!(
            twin.is_clean(),
            "a single forger must be outvoted on the witness schedule: {:?}",
            twin.violations
        );

        // The witness is also a report: the same artifact pipeline CI
        // uploads for delay-only failures.
        let paths = write_failure_reports(&report_dir(), &scenario, mode, &cast, &failures[..1])
            .expect("write witness report");
        assert_eq!(paths.len(), 1);
        let body = std::fs::read_to_string(&paths[0]).expect("read witness report");
        assert!(
            body.contains("cast:") && body.contains("replay:") && body.contains("ForgeHigh"),
            "report names the cast and carries a replay line:\n{body}"
        );
    }
}

/// Checker efficacy under faults: the deliberately unsound fast path is
/// still caught when a `≤ t` Byzantine cast is in play, and the sound
/// fast path survives the same schedule *and* the whole universe under
/// that cast — adaptive reads don't lean on all-honest assumptions.
#[test]
fn exhaustive_sweep_catches_the_unsound_fast_path_under_a_cast() {
    let scenario = scenario_write_then_two_reads();
    let cast = cast_one_stale();
    let failures = scenario.sweep(ReadPath::UnsoundFast, &cast);
    let first = &failures[0];
    let minimized = scenario.minimize(ReadPath::UnsoundFast, first.mask, &cast);
    assert_eq!(
        (failures.len(), first.mask, minimized),
        (12, 0x205, 0x205),
        "the pinned witness"
    );
    let sound = scenario.run_mask(ReadPath::Fast, minimized, &cast);
    assert!(
        sound.is_clean(),
        "the confirmed fast path survives the repro schedule under the cast: {:?}",
        sound.violations
    );
    let sound_sweep = scenario.sweep(ReadPath::Fast, &cast);
    assert!(
        sound_sweep.is_empty(),
        "the confirmed fast path survives the whole universe under the cast"
    );
}

/// Larger casts where exhaustion is out of reach: the `t = 2` scenario's
/// universe (> 24 bits) is explored with budgeted seeded-random schedules,
/// perturbation neighborhoods and random delay masks, under both an honest
/// cast and a two-fault `≤ t` cast — zero violations. The budget comes
/// from `RASTOR_CHECK_BUDGET_MS` so the extended CI lane can raise it
/// without a code change.
#[test]
fn exhaustive_t2_budgeted_exploration_stays_atomic() {
    let scenario = scenario_t2_mixed();
    assert!(
        scenario.universe_bits() > 24,
        "t = 2 universe must be beyond exhaustive reach, got {} bits",
        scenario.universe_bits()
    );
    let budget = budget_from_env("RASTOR_CHECK_BUDGET_MS", 1_000);
    for cast in [Cast::honest(), cast_t2_stale_plus_crash()] {
        let stats = scenario.explore(ReadPath::Fast, &cast, 0xD0BE, budget, 400);
        assert!(stats.runs > 0, "the explorer must run at least once");
        assert!(
            stats.is_clean(),
            "budgeted exploration of {} under cast {} found: {:?} {:?}",
            scenario.name,
            cast.name,
            stats.mask_failures,
            stats.schedule_failures
        );
    }
}

/// Satellite: a `DropLate` client and a `DeliverLate` client observing the
/// same schedule (same delay rules, same deterministic sim) complete the
/// same ops with the same results and leave every object's registers in
/// the same final state.
#[test]
fn exhaustive_drop_late_and_deliver_late_agree_on_final_state() {
    let scenario = scenario_policy_parity();
    // Delay the read's traffic to two objects so its early rounds outlast
    // the stragglers from the others — the window where the two staleness
    // policies actually classify replies differently.
    let read_op = 2;
    let s = scenario.num_objects() as u64;
    let mask = 1 << (read_op as u64 * s + 1) | 1 << (read_op as u64 * s + 2);
    for mode in [ReadPath::Slow, ReadPath::Fast] {
        let (deliver, deliver_views, drop, drop_views) = run_both_policies(&scenario, mode, mask);
        assert!(deliver.is_clean(), "DeliverLate: {:?}", deliver.violations);
        assert!(drop.is_clean(), "DropLate: {:?}", drop.violations);
        let key = |o: &rastor_check::Outcome| {
            let mut v = o
                .completions
                .iter()
                .map(|c| (c.client, c.op_seq, c.output.pair().clone()))
                .collect::<Vec<_>>();
            v.sort();
            v
        };
        assert_eq!(
            key(&deliver),
            key(&drop),
            "both policies must complete the same ops with the same results"
        );
        assert_eq!(
            deliver_views, drop_views,
            "both policies must leave identical final register state on every object"
        );
    }
}

/// The four scripts in which a register is written three times, so its
/// objects forget.
fn spanning_read_scenarios() -> [Scenario; 4] {
    [
        scenario_three_writes_spanning_read(),
        scenario_two_writers_spanning_read(),
        scenario_t2_three_writes_spanning_read(),
        scenario_t2_two_writers_spanning_read(),
    ]
}

/// No other scenario writes one register three times, so these are the
/// only sweeps that can see what forgetting does — provided it happens:
/// on the undelayed schedule every object ends holding exactly the two
/// newest pairs of each writer's register.
#[test]
fn exhaustive_forgetting_fires_in_the_spanning_read_scenarios() {
    for scenario in spanning_read_scenarios() {
        let (outcome, views, _, _) = run_both_policies(&scenario, ReadPath::Slow, 0);
        assert!(
            outcome.is_clean(),
            "{}: {:?}",
            scenario.name,
            outcome.violations
        );
        let n = u64::from(scenario.n_writers);
        for object in &views {
            for w in 0..n {
                // Writer `w` wrote 10 · (w + 1 + kn) for k = 0, 1, 2.
                let values: Vec<Option<u64>> = object[w as usize]
                    .hist
                    .iter()
                    .map(|s| s.pair.val.as_u64())
                    .collect();
                let kth = |k: u64| Some(10 * (w + 1 + k * n));
                assert_eq!(values, [kth(1), kth(2)], "{} writer {w}", scenario.name);
            }
        }
    }
}

/// One differential sweep of [`scenario_three_writes_spanning_read`]:
/// every schedule is clean with every op complete, returns what objects
/// that never forget return, in as many rounds, and the largest round
/// count of any op is `max_rounds`.
fn assert_forgetting_is_invisible(
    path: ReadPath,
    cast: &Cast,
    masks: impl Iterator<Item = u64>,
    max_rounds: u32,
) {
    let scenario = scenario_three_writes_spanning_read();
    let diff = scenario.sweep_beside_never_forgets(path, cast, masks);
    if !diff.failures.is_empty() {
        let paths = write_failure_reports(&report_dir(), &scenario, path, cast, &diff.failures)
            .expect("write failure reports");
        panic!(
            "{} schedules fail under cast {} / {path:?}; minimized repros in {paths:?}",
            diff.failures.len(),
            cast.name
        );
    }
    assert_eq!(
        diff.pairs_differ.first(),
        None,
        "{} masks return a different pair beside never-forgetting objects ({} / {path:?})",
        diff.pairs_differ.len(),
        cast.name
    );
    assert_eq!(
        diff.rounds_differ.first(),
        None,
        "{} masks take a different number of rounds beside never-forgetting objects \
         ({} / {path:?}): report them, do not re-pin",
        diff.rounds_differ.len(),
        cast.name
    );
    assert_eq!(diff.max_rounds, max_rounds, "{} / {path:?}", cast.name);
}

/// Every one of the 2^16 schedules of the three-writes script, all
/// objects honest, on both read paths: no op needs more than the
/// contention-free four rounds.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "2^16 masks, each run twice: --release only"
)]
fn exhaustive_three_writes_sweep_matches_never_forgetting_objects() {
    let universe = 0..1 << scenario_three_writes_spanning_read().universe_bits();
    for path in [ReadPath::Slow, ReadPath::Fast] {
        assert_forgetting_is_invisible(path, &Cast::honest(), universe.clone(), 4);
    }
}

/// The same under every single-fault cast. The forger is the exception
/// twice over: beside it no collect can terminate short of hearing all
/// three honest objects, so an op with a delayed link spins one empty
/// round per two ticks of [`rastor_check::DELAY`] — 2 002 rounds, with or
/// without forgetting, and 17 minutes a sweep. It gets the 2^8 masks that
/// delay only the two later writes (ops 2 and 3, the high eight bits).
fn sweep_three_writes_under_single_faults(path: ReadPath) {
    let universe = 0..1u64 << scenario_three_writes_spanning_read().universe_bits();
    for cast in casts_single_fault() {
        if cast.faults[0].1 == FaultKind::ForgeHigh {
            let later_writes_only = universe.clone().filter(|mask| mask & 0xff == 0);
            assert_forgetting_is_invisible(path, &cast, later_writes_only, 2_002);
        } else {
            assert_forgetting_is_invisible(path, &cast, universe.clone(), 4);
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "2^16 masks, each run twice: --release only"
)]
fn exhaustive_three_writes_sweep_under_single_faults_slow_reads() {
    sweep_three_writes_under_single_faults(ReadPath::Slow);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "2^16 masks, each run twice: --release only"
)]
fn exhaustive_three_writes_sweep_under_single_faults_fast_reads() {
    sweep_three_writes_under_single_faults(ReadPath::Fast);
}

/// The larger scripts — two writers each writing three times at `t = 1`,
/// and both scripts on seven objects — under budgeted exploration (random
/// held-message schedules, their perturbations, random delay masks) on
/// both read paths, honest and with the fault budget spent. The run cap is
/// the budget, so the pinned round count is reproducible: no op needs
/// more than the contention-free four.
#[test]
fn exhaustive_forgetting_budgeted_exploration_stays_atomic() {
    for scenario in &spanning_read_scenarios()[1..] {
        assert!(scenario.universe_bits() > 24, "{}", scenario.name);
        let spent = match scenario.t {
            1 => Cast::single("crash_after_3", 1, FaultKind::CrashAfter(3)),
            _ => cast_t2_stale_plus_crash(),
        };
        for cast in [Cast::honest(), spent] {
            for path in [ReadPath::Slow, ReadPath::Fast] {
                let stats = scenario.explore(path, &cast, 0xD0BE, Duration::MAX, 400);
                assert!(
                    stats.is_clean(),
                    "{} under cast {} / {path:?}: {:?} {:?}",
                    scenario.name,
                    cast.name,
                    stats.mask_failures,
                    stats.schedule_failures
                );
                assert_eq!(
                    (stats.runs, stats.max_rounds),
                    (400, 4),
                    "{} under cast {} / {path:?}",
                    scenario.name,
                    cast.name
                );
            }
        }
    }
}
