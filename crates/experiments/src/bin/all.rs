//! The one experiment binary: regenerates the paper's tables and figures,
//! and the extension studies, sharing materialised traces across
//! artifacts. Writes every CSV under `results/`.
//!
//! `all` runs every paper artifact in order; `all table7 fig2` runs the
//! named artifacts in argument order, and only a name runs the
//! `prefetch`, `task_switch` and `assoc_curves` studies. An unknown name
//! is refused before any work.
//!
//! Grid sweeps (Table 7, Figures 1–8) checkpoint completed design points
//! under `results/.checkpoint/`; an interrupted run resumes where it left
//! off. Pass `--fresh` to recompute everything.

use std::process::ExitCode;

use occache_experiments::runs::{select, Runner, Workbench, ARTIFACTS};
use occache_runtime::config::results_dir;

fn run_all(bench: &mut Workbench, runners: &[Runner]) -> std::io::Result<()> {
    for run in runners {
        // Stop starting new artifacts once an interrupt arrives: what is
        // already journalled is sealed, and a resume picks up from here.
        if occache_runtime::interrupt::requested() {
            break;
        }
        run(bench).emit()?;
    }
    Ok(())
}

fn main() -> ExitCode {
    occache_runtime::interrupt::install();
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|arg| arg != "--fresh")
        .collect();
    let runners = match select(&names) {
        Ok(runners) => runners,
        Err(unknown) => {
            let valid: Vec<&str> = ARTIFACTS.iter().map(|&(name, _)| name).collect();
            eprintln!(
                "error: unknown artifact {unknown:?}; valid names: {}",
                valid.join(" ")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = occache_runtime::config::check_batch_env() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let mut bench = Workbench::from_env();
    eprintln!(
        "regenerating {} artifact(s) at {} refs/trace",
        runners.len(),
        bench.len()
    );
    if names.is_empty() {
        // The paper set reads every trace set: generate them together.
        bench.generate_paper_sets();
    }
    match run_all(&mut bench, &runners)
        .and_then(|()| occache_experiments::run_report::write(&results_dir()))
    {
        Ok(path) => {
            eprintln!("wrote {}", path.display());
            if occache_runtime::interrupt::requested() {
                eprintln!("run interrupted; journal sealed and report marked — rerun to resume");
                return ExitCode::from(occache_runtime::interrupt::EXIT_INTERRUPTED);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
