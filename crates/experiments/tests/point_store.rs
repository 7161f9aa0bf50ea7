//! The results directory's point store across artifacts, as `all` runs
//! them: an unjournalled artifact's points live only in memory and never
//! reach a journal, while a journalled one's points serve every later
//! artifact, in this process or a later one.
//!
//! One `#[test]` only: the run depends on process-global environment
//! (`OCCACHE_RESULTS`, `OCCACHE_SLICE_THREADS`), so this file must not
//! gain a second test that could run concurrently in the same process.

use std::path::{Path, PathBuf};

use occache_experiments::runs::{run_headline, run_table7, Workbench};

/// References per trace: small enough for a debug-profile test run.
const REFS: usize = 2_000;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("occache-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch results dir");
    dir
}

/// Points every later call at `dir`: the process's point store follows
/// the results directory.
fn use_results(dir: &Path) {
    std::env::set_var("OCCACHE_RESULTS", dir);
}

fn table7_journal(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join(".checkpoint").join("table7.jsonl")).expect("read table7.jsonl")
}

#[test]
fn memory_points_stay_out_of_journals_and_journalled_points_serve_later_runs() {
    std::env::set_var("OCCACHE_SLICE_THREADS", "1");
    for var in [
        "OCCACHE_NO_MULTISIM",
        "OCCACHE_REPLACEMENT",
        "OCCACHE_REFS",
        "OCCACHE_POINT_TIMEOUT",
        "OCCACHE_FAULT_POINT",
        "OCCACHE_FRESH",
    ] {
        std::env::remove_var(var);
    }

    // `all headline table7`: the headline computes each architecture's
    // 1024-byte (8,8) cell without journalling it, so Table 7 must
    // compute that cell again rather than borrow it.
    let after_headline = fresh_dir("after-headline");
    use_results(&after_headline);
    let mut bench = Workbench::new(REFS);
    run_headline(&mut bench);
    assert_eq!(bench.computed(), 4, "one headline cell per architecture");
    run_table7(&mut bench);

    // `all table7` alone.
    let alone = fresh_dir("alone");
    use_results(&alone);
    run_table7(&mut Workbench::new(REFS));
    assert_eq!(
        table7_journal(&after_headline),
        table7_journal(&alone),
        "the headline's memory-only points changed table7.jsonl"
    );

    // A later run on the first directory loads Table 7's journal: the
    // headline recalls every cell and simulates nothing.
    use_results(&after_headline);
    let mut later = Workbench::new(REFS);
    run_headline(&mut later);
    assert_eq!(
        later.computed(),
        0,
        "the headline recomputed journalled cells"
    );

    std::env::remove_var("OCCACHE_RESULTS");
    std::env::remove_var("OCCACHE_SLICE_THREADS");
    let _ = std::fs::remove_dir_all(&after_headline);
    let _ = std::fs::remove_dir_all(&alone);
}
