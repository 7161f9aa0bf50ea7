//! Golden regression over the paper artifacts: the report text and
//! every CSV payload of the journalled Table 7 and Figures 1–8 plus the
//! unjournalled headline, Table 6, Table 8, Figure 9, risc2, ablations,
//! bus contention, split and workload statistics, and the sealed
//! checkpoint journal of each journalled one — regenerated at a small
//! reference count with a serial worker pool — must hash exactly to the
//! values committed in `golden_hashes.txt`.
//!
//! The committed hashes were produced by this same test (run with
//! `OCCACHE_GOLDEN_REGEN=1`), so any refactor of the execution path
//! that changes a single output byte fails here before it can corrupt
//! a resumable journal or silently shift an artifact.
//!
//! One `#[test]` only: the run depends on process-global environment
//! (`OCCACHE_RESULTS`, `OCCACHE_JOBS`), so this file must not gain a
//! second test that could run concurrently in the same process.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use occache_experiments::characterize::{run_bus_contention, run_workload_stats};
use occache_experiments::checkpoint::fnv1a;
use occache_experiments::extensions::run_split;
use occache_experiments::runs::{
    journalled_artifacts, run_ablations, run_fig9, run_figure, run_headline, run_risc2, run_table6,
    run_table7, run_table8, Artifact, Workbench,
};

/// References per trace: small enough for a debug-profile test run,
/// large enough that every Table 1 pair sees real misses.
const GOLDEN_REFS: usize = 2_000;

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_hashes.txt")
}

/// Hashes an artifact's report and each of its CSVs into `hashes`.
fn record(hashes: &mut BTreeMap<String, u64>, artifact: &Artifact) {
    let name = artifact.name;
    hashes.insert(format!("{name}/report"), fnv1a(artifact.report.as_bytes()));
    for (file, contents) in &artifact.csv {
        hashes.insert(format!("{name}/{file}"), fnv1a(contents.as_bytes()));
    }
}

/// `name -> fnv1a(contents)` for every hashed item of every artifact.
fn regenerate() -> BTreeMap<String, u64> {
    let scratch = std::env::temp_dir().join(format!("occache-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create scratch results dir");
    // A serial pool appends journal lines in planning order, so the
    // sealed journal bytes are deterministic; the scratch results dir
    // keeps the run away from any real `results/`.
    std::env::set_var("OCCACHE_RESULTS", &scratch);
    std::env::set_var("OCCACHE_JOBS", "1");
    std::env::remove_var("OCCACHE_NO_MULTISIM");
    std::env::remove_var("OCCACHE_REPLACEMENT");
    std::env::remove_var("OCCACHE_REFS");
    std::env::remove_var("OCCACHE_WARMUP");
    std::env::remove_var("OCCACHE_POINT_TIMEOUT");
    std::env::remove_var("OCCACHE_POINT_RETRIES");
    std::env::remove_var("OCCACHE_FAULT_POINT");
    std::env::remove_var("OCCACHE_FRESH");

    let mut bench = Workbench::new(GOLDEN_REFS);
    let mut hashes = BTreeMap::new();
    for &name in journalled_artifacts() {
        let artifact = match name {
            "table7" => run_table7(&mut bench),
            _ => {
                let figure: u8 = name
                    .strip_prefix("fig")
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| panic!("unexpected journalled artifact {name:?}"));
                run_figure(&mut bench, figure)
            }
        };
        assert_eq!(artifact.name, name);
        record(&mut hashes, &artifact);
        let journal = scratch.join(".checkpoint").join(format!("{name}.jsonl"));
        let bytes = std::fs::read(&journal)
            .unwrap_or_else(|e| panic!("missing journal {}: {e}", journal.display()));
        hashes.insert(format!("{name}/journal"), fnv1a(&bytes));
    }
    type Runner = fn(&mut Workbench) -> Artifact;
    let unjournalled: [Runner; 9] = [
        run_headline,
        run_table6,
        run_table8,
        run_fig9,
        run_risc2,
        run_ablations,
        run_bus_contention,
        run_split,
        run_workload_stats,
    ];
    for run in unjournalled {
        record(&mut hashes, &run(&mut bench));
    }
    let _ = std::fs::remove_dir_all(&scratch);
    hashes
}

fn render(hashes: &BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    for (name, hash) in hashes {
        let _ = writeln!(out, "{name} {hash:016x}");
    }
    out
}

#[test]
fn paper_artifacts_match_committed_golden_hashes() {
    let hashes = regenerate();
    let rendered = render(&hashes);
    if std::env::var_os("OCCACHE_GOLDEN_REGEN").is_some() {
        std::fs::write(golden_path(), &rendered).expect("write golden_hashes.txt");
        eprintln!("regenerated {}", golden_path().display());
        return;
    }
    let committed = std::fs::read_to_string(golden_path())
        .expect("golden_hashes.txt missing; regenerate with OCCACHE_GOLDEN_REGEN=1");
    assert_eq!(
        rendered, committed,
        "artifact bytes diverged from the committed goldens; if the change \
         is intentional, regenerate with OCCACHE_GOLDEN_REGEN=1"
    );
}
