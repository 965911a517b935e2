//! The simulator's adversary on real threads: the same [`Controller`]
//! rules the explorer and the proofs are written in, run by the object
//! host of a [`ThreadCluster`] on the trace clock's microseconds.

use rastor::check::{
    cast_one_forger, cast_t_plus_one_forgers, scenario_write_then_read, Outcome, ReadPath,
};
use rastor::common::{ClientId, ClusterConfig, ObjectId, Value};
use rastor::core::mwmr::{mw_read_in_group_mode, MwWriteClient, RegGroup};
use rastor::core::{FaultKind, HonestObject, OpOutput, ReadMode, Rep, Req};
use rastor::sim::control::Rule;
use rastor::sim::runtime::{ThreadClient, ThreadCluster};
use rastor::sim::{MsgDir, ObjectBehavior, ScriptedController};
use std::time::Duration;

/// A schedule, not a lucky race: a `t = 1` cluster with a forger at
/// object 0, and every reply from honest object 3 to the reader held 2 ms.
/// Each collect round of the get hears the forger and objects 1 and 2 at
/// once — a quorum that cannot rule the forgery out — and object 3 only a
/// round late. A client that dropped late replies would open round after
/// round and never decide; the get must return the put's value well
/// before its deadline.
#[test]
fn a_late_honest_object_does_not_starve_a_get_beside_a_forger() {
    let cfg = ClusterConfig::byzantine(1).expect("t = 1");
    let group = RegGroup::first(1, 1);
    let objects: Vec<Box<dyn ObjectBehavior<Req, Rep> + Send>> = (0..4)
        .map(|o| match o {
            0 => FaultKind::ForgeHigh.materialize(),
            _ => Box::new(HonestObject::new()) as _,
        })
        .collect();
    let reader = ClientId::reader(0);
    let late = Rule {
        extra_delay: Some(2_000),
        ..Rule::hold(MsgDir::Reply).client(reader).object(ObjectId(3))
    };
    let controller = ScriptedController::new()
        .with_default_delay(0)
        .with_rule(late);
    let cluster = ThreadCluster::spawn(objects, Some(Box::new(controller)));

    let put = MwWriteClient::in_group(cfg, 0, group, Value::from_u64(10));
    let (wrote, _) = ThreadClient::new(ClientId::writer())
        .run_op(&cluster, Box::new(put), Duration::from_secs(5))
        .expect("the put completes: the rule delays only the reader");
    let OpOutput::Wrote(written) = wrote else {
        panic!("a put returns what it wrote, got {wrote:?}")
    };

    let get = mw_read_in_group_mode(cfg, 0, group, ReadMode::Slow);
    let (read, _) = ThreadClient::new(reader)
        .run_op(&cluster, Box::new(get), Duration::from_secs(1))
        .expect("the get decides before its deadline");
    assert_eq!(
        read,
        OpOutput::Read(written),
        "the get returns the put's value"
    );
}

/// The explorer's `t + 1` forger witness, mask `0x5` of
/// `scenario_write_then_read` (the write crawls to objects 0 and 2),
/// replayed on threads: the read returns a value nobody wrote, on both
/// read paths, as `exhaustive_sweep_finds_the_t_plus_one_forger_witness`
/// finds in the simulator.
///
/// The read is scripted 5 ms in, and the write's pre-write reaches the
/// fast objects about 8 ms in, above the forged timestamp. A thread that
/// wakes milliseconds late (a plain 5 ms sleep overshoots by 3 ms in about
/// one run in a hundred on a loaded two-CPU host) starts the read after
/// that: another schedule, which rightly reads the write. So the mask gets
/// up to five runs to show its witness.
#[test]
fn the_sims_forger_witness_mask_reproduces_on_threads() {
    let scenario = scenario_write_then_read();
    let never_written = |o: &Outcome| o.violations.iter().any(|v| v.contains("never-written"));
    for path in [ReadPath::Slow, ReadPath::Fast] {
        let sim = scenario.run_mask(path, 0x5, &cast_t_plus_one_forgers());
        assert!(never_written(&sim), "sim {path:?}: {:?}", sim.violations);
        let mut last = Vec::new();
        let found = (0..5).any(|_| {
            let outcome = scenario.run_mask_threaded(path, 0x5, &cast_t_plus_one_forgers());
            let hit = never_written(&outcome);
            last = outcome.violations;
            hit
        });
        assert!(
            found,
            "threads {path:?}: no run read a never-written value; last {last:?}"
        );
    }
}

/// The `≤ t` twin: one forger is outvoted under the same mask on threads.
#[test]
fn the_witness_mask_is_clean_on_threads_under_one_forger() {
    let scenario = scenario_write_then_read();
    for path in [ReadPath::Slow, ReadPath::Fast] {
        let outcome = scenario.run_mask_threaded(path, 0x5, &cast_one_forger());
        assert!(outcome.is_clean(), "{path:?}: {:?}", outcome.violations);
        assert_eq!(outcome.completions.len(), scenario.ops.len());
    }
}
