//! Byzantine fault injection: corrupt `t` objects with each stock adversary
//! (silence, amnesia, forged sky-high values, early crash) and verify the
//! unauthenticated atomic construction neither stalls nor returns anything
//! that was not genuinely written — then contrast with the naive 2-round
//! read at `S ≤ 4t`, which the paper's denial schedule provably breaks.
//!
//! Run with: `cargo run --example byzantine_forgery`

use rastor::common::{ObjectId, Value};
use rastor::core::{FaultKind, Protocol, StorageSystem, Workload};
use rastor::lowerbound::prop1::denial_attack;
use rastor::sim::FixedDelay;

fn main() {
    let t = 2;
    println!("== part 1: the 4-round atomic read shrugs off every adversary ==");
    for adversary in FaultKind::stock() {
        let mut system = StorageSystem::new(Protocol::AtomicUnauth, t, 2).unwrap();
        let workload = Workload::default()
            .with_write(0, Value::from_u64(100))
            .with_write(60, Value::from_u64(200))
            .with_read(250, 0)
            .with_read(350, 1);
        // Corrupt the full budget: t objects run the adversary behavior.
        let corrupted = (0..t as u32)
            .map(|i| (ObjectId(i), adversary.materialize()))
            .collect();
        let result = system.run(Box::new(FixedDelay::new(1)), &workload, corrupted);
        let violations = result.history.check_atomic();
        assert_eq!(
            result.completions.len(),
            4,
            "wait-freedom under {adversary:?}"
        );
        assert!(violations.is_empty(), "{adversary:?}: {violations:?}");
        println!(
            "  {adversary:?}: all ops completed, reads = {:?} rounds, atomic ✓",
            result.read_rounds()
        );
    }

    println!("\n== part 2: the resilience boundary of Proposition 1 ==");
    for (s, t) in [(4usize, 1usize), (8, 2), (5, 1), (9, 2)] {
        let violations = denial_attack(s, t);
        let verdict = if violations.is_empty() {
            "safe"
        } else {
            "BROKEN"
        };
        println!(
            "  naive 2-round read @ S={s}, t={t} ({}4t): {verdict} {}",
            if s <= 4 * t { "≤ " } else { "> " },
            violations
                .first()
                .map(|v| format!("— {v}"))
                .unwrap_or_default()
        );
        assert_eq!(violations.is_empty(), s > 4 * t);
    }
    println!("\nexactly as the paper proves: 2-round reads die at S ≤ 4t.");
}
