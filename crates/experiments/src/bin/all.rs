//! Regenerates every table and figure in one run, sharing materialised
//! traces across artifacts. Writes all CSVs under `results/`.
//!
//! Grid sweeps (Table 7, Figures 1–8) checkpoint completed design points
//! under `results/.checkpoint/`; an interrupted run resumes where it left
//! off. Pass `--fresh` to recompute everything.

use std::process::ExitCode;

use occache_experiments::buffers::run_buffers;
use occache_experiments::characterize::{run_bus_contention, run_workload_stats};
use occache_experiments::extensions::{run_risc2_chip, run_split, run_writes};
use occache_experiments::runs::{
    run_ablations, run_fig9, run_figure, run_headline, run_risc2, run_table6, run_table7,
    run_table8, Workbench,
};

fn run_all(bench: &mut Workbench) -> std::io::Result<()> {
    type Runner = fn(&mut Workbench) -> occache_experiments::runs::Artifact;
    let runners: &[Runner] = &[
        run_headline,
        run_table6,
        run_table7,
        run_table8,
        |b| run_figure(b, 1),
        |b| run_figure(b, 2),
        |b| run_figure(b, 3),
        |b| run_figure(b, 4),
        |b| run_figure(b, 5),
        |b| run_figure(b, 6),
        |b| run_figure(b, 7),
        |b| run_figure(b, 8),
        run_fig9,
        run_risc2,
        run_risc2_chip,
        run_ablations,
        run_writes,
        run_split,
        run_workload_stats,
        run_bus_contention,
        run_buffers,
    ];
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
    if let Err(e) = occache_runtime::executor::SupervisorPolicy::try_from_env() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = occache_experiments::sweep::try_jobs() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = occache_experiments::sweep::try_slice_threads() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = occache_experiments::sweep::try_multisim_disabled() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = occache_experiments::sweep::try_replacement_override() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let mut bench = match Workbench::try_from_env() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("regenerating all artifacts at {} refs/trace", bench.len());
    match run_all(&mut bench).and_then(|()| {
        occache_experiments::run_report::write(&occache_experiments::report::results_dir())
    }) {
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
