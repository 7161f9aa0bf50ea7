//! Interrupt containment for the pooled unjournalled artifacts: a
//! runner that is already running when SIGINT arrives must still finish
//! its artifact, byte for byte. The pool skips the configs it has not
//! claimed once the interrupt flag is up, and `evaluate_points` and
//! `evaluate_metrics` then evaluate those on the direct path instead of
//! failing the grid.
//!
//! One `#[test]` only, in a file of its own: the interrupt flag is
//! process-global, and raising it would stop any sibling test's sweep.

use occache_experiments::extensions::run_writes;
use occache_experiments::runs::{run_ablations, run_table6, Artifact, Workbench};
use occache_runtime::interrupt;

#[test]
fn interrupted_runners_match_an_uninterrupted_run() {
    // `run_ablations` averages through `evaluate_points`; `run_writes`
    // and `run_table6` read per-trace rows from `evaluate_metrics`.
    let runners: [fn(&mut Workbench) -> Artifact; 3] = [run_ablations, run_writes, run_table6];
    interrupt::clear();
    let mut bench = Workbench::new(3_000);
    let clean: Vec<Artifact> = runners.iter().map(|run| run(&mut bench)).collect();

    interrupt::trigger();
    let interrupted: Vec<Artifact> = runners.iter().map(|run| run(&mut bench)).collect();
    let still_raised = interrupt::requested();
    interrupt::clear();

    assert!(still_raised, "the runners must not swallow the interrupt");
    for (clean, interrupted) in clean.iter().zip(&interrupted) {
        assert_eq!(interrupted.report, clean.report, "{}", clean.name);
        assert_eq!(interrupted.csv, clean.csv, "{}", clean.name);
    }
}
