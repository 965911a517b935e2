//! `rastor_benchmark` — the repository's benchmark (see `README.md`).
//!
//! ```text
//! rastor_benchmark run   [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--dry]
//! rastor_benchmark trace [--workload W] [--seed N] [--seconds S]
//! rastor_benchmark agree [--seed N] [--seconds S]
//! rastor_benchmark check-names
//! ```
//!
//! `run` measures each workload in a fresh child process, prints every
//! metric by name with its unit, checks the outputs, and ends each
//! workload with one JSON result line. A failed check exits non-zero.

mod agree;
mod client;
mod deploy;
mod json;
mod layers;
mod names;
mod probes;
mod procstat;
mod runner;
mod spans;
mod stats;
mod workload;

use json::RunResult;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

/// `--seconds` when not given: the `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// `--seed` when not given.
pub const DEFAULT_SEED: u64 = 42;

/// The flags shared by the subcommands.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub dry: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        dry: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                workload::spec(w).ok_or_else(|| format!("unknown workload {w:?}"))?;
                out.workload = Some(w.to_string());
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                out.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--dry" => out.dry = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(out)
}

/// Run one workload in a fresh child process, passing its output through
/// (`echo`) and reading its result line back.
pub fn run_child(workload: &str, a: &Args, echo: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut child = Command::new(exe)
        .args(["child", "--workload", workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if a.trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting the {workload} child: {e}"))?;
    let mut last = String::new();
    for line in BufReader::new(child.stdout.take().expect("piped stdout")).lines() {
        let line = line.map_err(|e| format!("reading the {workload} child: {e}"))?;
        if echo {
            println!("{line}");
        }
        last = line;
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for the {workload} child: {e}"))?;
    let result = RunResult::from_json_line(&last)
        .map_err(|e| format!("{workload}: no result line ({e}); child {status}"))?;
    if !status.success() || !result.correct {
        return Err(format!("{workload}: a check failed (child {status})"));
    }
    Ok(result)
}

fn cmd_run(a: &Args) -> Result<(), String> {
    let specs: Vec<&workload::Spec> = match &a.workload {
        Some(w) => vec![workload::spec(w).expect("validated at parse")],
        None => workload::SPECS.iter().collect(),
    };
    if a.dry {
        names::print_dry(a.trace);
        return Ok(());
    }
    let mut failures = Vec::new();
    for spec in specs {
        if let Err(e) = run_child(spec.name, a, true) {
            failures.push(e);
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn cmd_child(a: &Args) -> Result<(), String> {
    let name = a.workload.as_deref().ok_or("child needs --workload")?;
    let cfg = runner::RunCfg {
        spec: workload::spec(name).expect("validated at parse"),
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
    };
    let result = runner::run(&cfg)?;
    println!("{}", result.to_json_line());
    if result.correct {
        Ok(())
    } else {
        Err(format!("{name}: an output check failed"))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: rastor_benchmark run|trace|agree|check-names [flags] (see README.md)");
        return ExitCode::from(2);
    };
    let outcome = parse_args(rest).and_then(|mut a| match cmd.as_str() {
        "run" => cmd_run(&a),
        "trace" => {
            a.trace = true;
            cmd_run(&a)
        }
        "child" => cmd_child(&a),
        "agree" => agree::run(&a),
        "check-names" => names::check(),
        other => Err(format!("unknown subcommand {other:?}")),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rastor_benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
