//! Interrupt containment for the pooled unjournalled artifacts: a
//! runner that is already running when SIGINT arrives must still finish
//! its artifact, byte for byte. The pool skips the configs it has not
//! claimed once the interrupt flag is up, and `evaluate_points` then
//! evaluates those on the direct path instead of failing the grid.
//!
//! One `#[test]` only, in a file of its own: the interrupt flag is
//! process-global, and raising it would stop any sibling test's sweep.

use occache_experiments::interrupt;
use occache_experiments::runs::{run_ablations, Workbench};

#[test]
fn interrupted_ablations_match_an_uninterrupted_run() {
    interrupt::clear();
    let mut bench = Workbench::new(3_000);
    let clean = run_ablations(&mut bench);

    interrupt::trigger();
    let interrupted = run_ablations(&mut bench);
    let still_raised = interrupt::requested();
    interrupt::clear();

    assert!(still_raised, "the runner must not swallow the interrupt");
    assert_eq!(interrupted.report, clean.report);
    assert_eq!(interrupted.csv, clean.csv);
}
