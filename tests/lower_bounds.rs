//! Integration tests for the lower-bound machinery: the executable
//! renderings of Proposition 1 (Figure 1) and Lemma 1 (Figure 2) against
//! the simulator, plus the boundary experiments.

use rastor::lowerbound::lemma1::execute_first_pair;
use rastor::lowerbound::prop1::{denial_attack, execute, pair_one, Prop1Schedule};
use rastor::lowerbound::recurrence::{k_max, t_k};
use rastor::lowerbound::{Lemma1Schedule, Prop1Partition};

#[test]
fn prop1_full_chain_k1_through_k3() {
    for k in 1..=3u32 {
        let report = execute(k, 4, 1);
        assert_eq!(report.generations, 4 * k - 1);
        assert!(
            report.all_indistinguishable,
            "k={k}: some (pr, ∆pr) pair was distinguishable"
        );
        // The first generation always returns the written value in both
        // runs (the induction's base case).
        assert_eq!(report.returns[0].1, pair_one());
        assert_eq!(report.returns[0].2, pair_one());
        // And somewhere along the chain the 2-round protocol must violate
        // atomicity in a legal run.
        let (g, violations) = report
            .first_violation
            .unwrap_or_else(|| panic!("k={k}: no violation found"));
        assert!(g >= 1 && g <= report.generations);
        assert!(!violations.is_empty());
    }
}

#[test]
fn prop1_works_at_larger_t() {
    // S = 8 = 4t with t = 2: same construction, bigger blocks.
    let report = execute(1, 8, 2);
    assert!(report.all_indistinguishable);
    assert!(report.first_violation.is_some());
}

#[test]
fn prop1_schedule_scales_to_large_k() {
    for k in [8, 32] {
        let sched = Prop1Schedule::new(k, 4, 1);
        sched.check_invariants().unwrap();
        assert_eq!(sched.generations(), 4 * k - 1);
    }
    let sched = Prop1Schedule::new(64, 4, 1);
    sched.check_invariants().unwrap();
    assert_eq!(sched.generations(), 255);
    // Spot-check the recycling arithmetic deep into the chain.
    let spec = sched.pr(101); // g = 101 = 4·25 + 1 → rd1 by r1, i = 25
    assert_eq!(spec.appended_read().reader, 0);
    assert_eq!(spec.forged_level, 64 - 25 - 1);
}

#[test]
fn denial_attack_boundary_sweep() {
    for t in 1..=4 {
        assert!(
            !denial_attack(4 * t, t).is_empty(),
            "t={t}: S=4t must break"
        );
        assert!(
            denial_attack(4 * t + 1, t).is_empty(),
            "t={t}: S=4t+1 must hold"
        );
    }
}

#[test]
fn lemma1_first_pair_across_k() {
    for k in 2..=5 {
        let report = execute_first_pair(k);
        assert!(report.indistinguishable(), "k={k}");
        assert_eq!(report.returned_pr1, Some(pair_one()), "k={k}");
        // The transcripts are non-trivial: three rounds of replies from
        // quorums of size S − t_k.
        let s = Lemma1Schedule::new(k).num_objects();
        let tk = t_k(k as i64) as usize;
        assert!(report.transcript_pr1.len() >= 3 * (s - tk) - 3, "k={k}");
    }
}

#[test]
fn lemma1_schedules_check_out_to_k8() {
    for k in 2..=8 {
        Lemma1Schedule::new(k).check_invariants().unwrap();
    }
}

#[test]
fn lemma2_inversion_is_tight_at_thresholds() {
    // k_max(t) steps exactly at t = t_k: the smallest budget defeating k
    // write rounds.
    for k in 1..=12i64 {
        let t = t_k(k);
        assert_eq!(k_max(t), k as u32);
        if t > 1 {
            assert_eq!(k_max(t - 1), k as u32 - 1);
        }
    }
}

#[test]
fn prop1_partition_shapes() {
    // Proposition 1 applies for any 3t < S ≤ 4t; blocks B1..B3 always have
    // size exactly t (the malicious budget).
    for t in 1..=5 {
        for s in (3 * t + 1)..=(4 * t) {
            let p = Prop1Partition::new(s, t);
            assert_eq!(p.block(1).len(), t);
            assert!(!p.block(4).is_empty());
        }
    }
}

#[test]
fn paper_headline_numbers() {
    // The abstract's claims, as arithmetic:
    // "three rounds of communication are necessary to read" — Proposition 1
    // rules out 2-round reads (executed above); and "Ω(log t) write rounds
    // are necessary to read in three rounds":
    assert_eq!(k_max(1), 1);
    assert_eq!(k_max(10), 4);
    assert_eq!(k_max(682), 10);
    // Doubling t adds at most ~1 round: logarithmic growth.
    for t in [4u64, 16, 64, 256, 1024] {
        assert!(k_max(2 * t) <= k_max(t) + 1);
    }
}
