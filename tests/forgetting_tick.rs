//! The schedule on which forgetting shows, pinned as a deterministic
//! replay beside the reference that never forgets.
//!
//! `t = 1`, one writer writing 10, 20 and 30 back to back (ticks 0–6,
//! 6–12 and 12–18 undelayed), one reader, object 3 equivocating against
//! the reader. Mask `0x1a` (bits 1, 3 and 4) makes the read's traffic to
//! objects 1 and 3 and the first write's traffic to object 0 crawl, so
//! the read's quorum waits for a link that is slow until every write is
//! done. By then the real objects have forgotten 10; objects that keep
//! every pair still vouch for it. The read returns another legal pair
//! beside them — older or newer, depending on when it was invoked — in
//! the same 4 rounds, with no violation. `rastor_check`'s tick grid
//! (`exhaustive_tick_grid_*`) sweeps every mask at every tick.

use rastor::check::{casts_single_fault, scenario_three_writes_read_at, Outcome, ReadPath};
use rastor_common::ClientId;

const MASK: u64 = 0x1a;

/// The read's value and rounds, and the run's violations.
fn read(outcome: &Outcome) -> (Option<u64>, u32, Vec<String>) {
    let c = outcome
        .completions
        .iter()
        .find(|c| c.client == ClientId::reader(0))
        .expect("the read completes");
    let value = c.output.pair().val.as_u64();
    (value, c.stat.rounds.get(), outcome.violations.clone())
}

#[test]
fn a_spanning_read_beside_an_equivocator_returns_another_legal_pair() {
    let cast = casts_single_fault()
        .into_iter()
        .find(|c| c.name == "equivocate_reader");
    let cast = cast.expect("the equivocator's cast");
    // (tick, value on the real objects, value on the reference).
    for (tick, real, reference) in [(3, None, Some(10)), (5, Some(30), Some(10))] {
        let scenario = scenario_three_writes_read_at(tick);
        for path in [ReadPath::Slow, ReadPath::Fast] {
            let forgetting = read(&scenario.run_mask(path, MASK, &cast));
            let keeping = read(&scenario.run_mask_never_forgetting(path, MASK, &cast));
            assert_eq!(forgetting, (real, 4, vec![]), "tick {tick}, {path:?}");
            assert_eq!(keeping, (reference, 4, vec![]), "tick {tick}, {path:?}");
        }
    }
}
