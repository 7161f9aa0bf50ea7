//! The repository benchmark. One command runs a workload, prints every
//! metric by name with its unit, and checks the outputs it timed:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-lru --seed 0 --seconds 30 --trace 0
//! ```
//!
//! The workloads are `sweep-lru`, `sweep-policies`, `paper-all` and
//! `serve-open-loop`; `all` runs the four in turn. `--trace 0` reports
//! the end-to-end metrics, measured with no spans recorded; `--trace 1`
//! is the separate traced run that reports the per-layer metrics. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it is the run
//! record. `GLOSSARY.md` defines every workload and metric.

mod ledger;
mod paper_all;
mod serve;
mod stats;
mod sweeps;

use std::path::PathBuf;
use std::process::ExitCode;

use ledger::{Machine, Outcome};

/// Settings shared by every workload of one invocation.
pub struct RunConfig {
    /// Workload seed: trace generation and request schedules.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory for results trees and journals, removed on exit.
    pub work: PathBuf,
}

const WORKLOADS: [&str; 4] = [
    "sweep-lru",
    "sweep-policies",
    "paper-all",
    "serve-open-loop",
];

const USAGE: &str =
    "usage: perfbench --workload <sweep-lru|sweep-policies|paper-all|serve-open-loop|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut config = RunConfig {
        seed: 0,
        seconds: 25.0,
        trace: false,
        work: PathBuf::from(".perfbench_work"),
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                config.seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value:?} is not a whole number"))?;
            }
            "--seconds" => {
                config.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value:?} is not a positive number"))?;
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is neither 0 nor 1")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok((workload, config))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, config) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&config.work);
    if let Err(e) = std::fs::create_dir_all(&config.work) {
        eprintln!("perfbench: cannot create {}: {e}", config.work.display());
        return ExitCode::FAILURE;
    }
    let machine = Machine::probe();
    let names = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload.as_str()]
    };
    let mut outcomes: Vec<(&str, Outcome)> = Vec::new();
    for (k, name) in names.iter().copied().enumerate() {
        if !stats::reset_peak_rss() && k > 0 {
            eprintln!(
                "perfbench: cannot reset the peak resident set; {name}'s peak_rss_mb \
                 includes the workloads before it"
            );
        }
        let outcome = match name {
            "sweep-lru" => sweeps::run(sweeps::Family::Lru, &config),
            "sweep-policies" => sweeps::run(sweeps::Family::Policies, &config),
            "paper-all" => paper_all::run(&config),
            _ => serve::run(&config),
        };
        eprint!("{}", outcome.table(name, config.trace));
        println!("{}", outcome.record(name, &config, &machine));
        outcomes.push((name, outcome));
    }
    let _ = std::fs::remove_dir_all(&config.work);
    println!("{}", ledger::result_line(&outcomes, config.trace));
    if outcomes.iter().all(|(_, o)| o.failed == 0) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
