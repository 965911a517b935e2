//! A guided tour of the paper's two lower bounds, executed mechanically.
//!
//! 1. **Read lower bound (Proposition 1, Figure 1):** replay the full
//!    `(pr_g, ∆pr_g)` run family against a naive 2-round-read protocol at
//!    `S = 4t`, checking transcript indistinguishability pair by pair and
//!    locating the generation where atomicity necessarily breaks.
//! 2. **Write lower bound (Lemma 1 / Lemma 2, Figure 2):** print the block
//!    partition and superblock cardinalities for the paper's `k = 4`
//!    instance, replay the key `pr_1 ∼ prC_1` indistinguishability step,
//!    and tabulate the recurrence `t_k` with its closed form and the
//!    headline inversion `k = Ω(log t)`.
//!
//! Run with: `cargo run --example lower_bound_tour`

use rastor::exp;
use rastor::lowerbound::diagram::{render_lemma1_layout, render_lemma1_superblocks, render_prop1};
use rastor::lowerbound::lemma1::execute_first_pair;
use rastor::lowerbound::prop1::{execute, Prop1Schedule};
use rastor::lowerbound::{Lemma1Partition, Lemma1Schedule};

fn main() {
    println!("========== Proposition 1: no 2-round reads at S ≤ 4t ==========\n");
    let k = 2;
    let sched = Prop1Schedule::new(k, 4, 1);
    println!("run family for a {k}-round-write protocol, S = 4, t = 1:\n");
    for g in [1, 2, sched.generations()] {
        print!("{}", render_prop1(&sched.partition, &sched.pr(g)));
        print!("{}", render_prop1(&sched.partition, &sched.delta(g)));
        println!();
    }

    let report = execute(k, 4, 1);
    println!(
        "mechanical execution of all {} generations:",
        report.generations
    );
    for (g, pr_ret, delta_ret) in &report.returns {
        println!("  g={g}: rd returns {pr_ret} in pr{g}, {delta_ret} in ∆pr{g}");
    }
    println!(
        "every (pr, ∆pr) pair transcript-identical to its reader: {}",
        report.all_indistinguishable
    );
    let (g, violations) = report.first_violation.expect("the 2-round read must break");
    println!("atomicity breaks in legal run pr{g}: {}\n", violations[0]);

    println!("========== Lemma 1: 3-round reads force Ω(log t) write rounds ==========\n");
    let part = Lemma1Partition::new(4);
    print!("{}", render_lemma1_layout(&part));
    println!("\nsuperblock cardinalities (equations 1–3):");
    print!("{}", render_lemma1_superblocks(&part));

    let sched = Lemma1Schedule::new(4);
    sched.check_invariants().expect("paper invariants hold");
    println!(
        "\nall skip-sets and malicious budgets verified = t_k = {}",
        sched.tk()
    );

    for k in 2..=4 {
        let pair = execute_first_pair(k);
        println!(
            "k={k}: pr_1 ~ prC_1 indistinguishable: {} (rd_1 returned {:?} with write round {k} deleted)",
            pair.indistinguishable(),
            pair.returned_pr1.as_ref().map(|p| p.ts.0)
        );
        assert!(pair.indistinguishable());
    }

    println!("\nthe recurrence of Lemma 1 and its closed form (Lemma 2), as `exp t3` prints it:");
    print!("{}", exp::render("t3"));
    println!("reading in 3 rounds costs Ω(log t) write rounds — tour complete.");
}
