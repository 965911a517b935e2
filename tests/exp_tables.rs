//! `exp` is byte-for-byte reproducible, so its output is pinned:
//! `tests/golden/exp_all.txt` is what the `exp` binary printed before its
//! drivers moved into `rastor::exp` (less the mode word and the elapsed
//! time it no longer prints), and every section must still render to its
//! block of that file. CI's `smoke` job diffs the whole output, `t9`
//! included.

use rastor::exp;

#[test]
fn exp_tables_match_the_golden_file() {
    let golden = include_str!("golden/exp_all.txt");
    // A section's block runs from its `== ` header line to the next one.
    let mut starts: Vec<usize> = golden.match_indices("\n== ").map(|(i, _)| i + 1).collect();
    starts.insert(0, 0);
    starts.push(golden.len());
    let blocks: Vec<&str> = starts.windows(2).map(|w| &golden[w[0]..w[1]]).collect();
    assert_eq!(blocks.len(), exp::sections().count(), "one block a section");
    for (name, block) in exp::sections().zip(blocks) {
        // t9's 2^12-schedule sweeps take ~20 s unoptimized; its round
        // table is asserted in tests/round_complexity.rs and its sweeps in
        // rastor_check's own suite.
        if name != "t9" {
            assert_eq!(exp::render(name), block, "section {name}");
        }
    }
}
