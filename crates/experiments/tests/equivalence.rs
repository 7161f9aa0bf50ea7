//! Acceptance check for the sliced sweep: artifacts regenerated through
//! the one-pass engines are **byte-identical** to the direct-simulation
//! path (`OCCACHE_NO_MULTISIM=1`), reports and CSVs alike — first under
//! the stock LRU grids, then re-run down the FIFO axis via
//! `OCCACHE_REPLACEMENT=fifo` with only the FIFO engine disabled on the
//! reference side (`OCCACHE_NO_MULTISIM=fifo,random`). Beside the
//! journalled Table 7 and Figure 2, the mixed grids of the ablations and
//! Table 8 cover all three engines, load-forward configs on those
//! engines, and two warm-ups in one pooled call each.
//!
//! This file holds exactly one test because it mutates process-global
//! environment variables; sibling tests in the same binary would race.

use std::fs;
use std::path::PathBuf;

use occache_experiments::runs::{
    run_ablations, run_figure, run_table7, run_table8, Artifact, Workbench,
};

fn temp_results(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("occache-equiv-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp results dir");
    dir
}

fn build_artifacts(len: usize) -> Vec<Artifact> {
    let mut bench = Workbench::new(len);
    vec![
        run_table7(&mut bench),
        run_figure(&mut bench, 2),
        run_ablations(&mut bench),
        run_table8(&mut bench),
    ]
}

#[test]
fn artifacts_are_byte_identical_to_the_direct_path() {
    // Separate journal directories per phase, so the second run cannot
    // simply resume the first run's points instead of simulating.
    let direct_dir = temp_results("direct");
    let sliced_dir = temp_results("sliced");
    let len = 4_000;

    std::env::remove_var("OCCACHE_REPLACEMENT");
    std::env::set_var("OCCACHE_RESULTS", &direct_dir);
    std::env::set_var("OCCACHE_NO_MULTISIM", "1");
    let direct = build_artifacts(len);

    std::env::set_var("OCCACHE_RESULTS", &sliced_dir);
    std::env::remove_var("OCCACHE_NO_MULTISIM");
    let sliced = build_artifacts(len);
    std::env::remove_var("OCCACHE_RESULTS");

    for (d, s) in direct.iter().zip(&sliced) {
        assert_eq!(d.name, s.name);
        assert_eq!(d.report, s.report, "{} report differs", d.name);
        assert_eq!(d.csv, s.csv, "{} CSVs differ", d.name);
        // Both phases actually simulated a non-trivial grid.
        assert!(!d.csv.is_empty());
        assert!(!d.report.contains("FAILED"), "{}", d.report);
    }

    fs::remove_dir_all(&direct_dir).expect("clean up direct results dir");
    fs::remove_dir_all(&sliced_dir).expect("clean up sliced results dir");

    // The same property down the FIFO policy axis: the replacement
    // override re-runs the identical grids under FIFO, where the
    // one-pass FIFO engine must reproduce the direct path byte for
    // byte. (Per-policy disabling keeps the LRU/Random engines live on
    // the direct run — only the FIFO engine is being compared away.)
    let fifo_direct_dir = temp_results("fifo-direct");
    let fifo_sliced_dir = temp_results("fifo-sliced");
    std::env::set_var("OCCACHE_REPLACEMENT", "fifo");
    std::env::set_var("OCCACHE_RESULTS", &fifo_direct_dir);
    std::env::set_var("OCCACHE_NO_MULTISIM", "fifo,random");
    let fifo_direct = build_artifacts(len);

    std::env::set_var("OCCACHE_RESULTS", &fifo_sliced_dir);
    std::env::remove_var("OCCACHE_NO_MULTISIM");
    let fifo_sliced = build_artifacts(len);
    std::env::remove_var("OCCACHE_RESULTS");
    std::env::remove_var("OCCACHE_REPLACEMENT");

    for (d, s) in fifo_direct.iter().zip(&fifo_sliced) {
        assert_eq!(d.name, s.name);
        assert_eq!(d.report, s.report, "FIFO {} report differs", d.name);
        assert_eq!(d.csv, s.csv, "FIFO {} CSVs differ", d.name);
        assert!(!d.csv.is_empty());
        assert!(!d.report.contains("FAILED"), "{}", d.report);
    }

    fs::remove_dir_all(&fifo_direct_dir).expect("clean up FIFO direct results dir");
    fs::remove_dir_all(&fifo_sliced_dir).expect("clean up FIFO sliced results dir");
}
