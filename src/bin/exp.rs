//! The experiment table printer: regenerates every table and figure of
//! EXPERIMENTS.md from [`rastor::exp`].
//!
//! Usage: `cargo run --release --bin exp [-- t1 t4 …]` — no argument (or
//! `all`) prints every section.
//!
//! Every table is deterministic paper content (round counts, simulated
//! time, lower-bound replays, explorer sweeps), so two runs print the same
//! bytes and CI diffs the output against `tests/golden/exp_all.txt`.
//! Nothing is written to disk; wall-clock performance is measured in
//! `benchmark/`.

use rastor::exp;

/// The sections `args` name, each once and in table order (every section
/// for no argument or `all`); the usage line if any argument is not a
/// section name.
fn parse_args(args: &[String]) -> Result<Vec<&'static str>, String> {
    let names: Vec<&'static str> = exp::sections().collect();
    if let Some(bad) = args
        .iter()
        .find(|a| *a != "all" && !names.contains(&a.as_str()))
    {
        return Err(format!(
            "unknown table {bad:?}; usage: exp [{}|all]...",
            names.join("|")
        ));
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    Ok(names
        .into_iter()
        .filter(|name| all || args.iter().any(|a| a == name))
        .collect())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sections = parse_args(&args).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2);
    });
    for name in sections {
        print!("{}", exp::render(name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args)
    }

    #[test]
    fn every_named_section_prints_once_in_table_order() {
        let all: Vec<&str> = exp::sections().collect();
        assert_eq!(parse(&[]).unwrap(), all);
        assert_eq!(parse(&["all"]).unwrap(), all);
        assert_eq!(parse(&["t2", "all"]).unwrap(), all);
        assert_eq!(parse(&["t1", "t2"]).unwrap(), ["t1", "t2"]);
        assert_eq!(parse(&["f1", "t4", "f1"]).unwrap(), ["t4", "f1"]);
        // Anything else — flags and the retired sections included — is a
        // usage error, whatever it is mixed with.
        for bad in ["--quick", "--all", "t7", "t8", "t10", "T1", ""] {
            let err = parse(&["t1", bad]).expect_err(bad);
            assert!(err.contains("usage: exp [t1|"), "{bad:?}: {err}");
        }
    }
}
