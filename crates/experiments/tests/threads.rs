//! Slice-level parallelism must be invisible in the artifacts: Table 7
//! regenerated with `OCCACHE_SLICE_THREADS` at 1, 2 and 4 must write
//! byte-identical CSVs and a byte-identical `MANIFEST.json`. Worker and
//! shard threads race only on wall clock — results are stitched back in
//! planning order, and sharded traces folded back in trace order, before
//! anything is rendered, so a thread-count change can never shift a
//! committed byte.
//!
//! One `#[test]` only: the run depends on process-global environment
//! (`OCCACHE_RESULTS`, `OCCACHE_SLICE_THREADS`), so this file must not
//! gain a second test that could run concurrently in the same process.

use std::collections::BTreeMap;
use std::path::Path;

use occache_experiments::manifest::MANIFEST_FILE;
use occache_experiments::runs::{run_table7, Workbench};

/// References per trace: small enough for a debug-profile test run,
/// large enough that every Table 1 pair sees real misses.
const REFS: usize = 2_000;

/// Runs Table 7 into a fresh scratch results dir with the given slice
/// thread count and returns `file name -> bytes` for every emitted
/// file (CSVs plus `MANIFEST.json`).
fn emit_table7(threads: &str) -> BTreeMap<String, Vec<u8>> {
    let scratch =
        std::env::temp_dir().join(format!("occache-threads-{threads}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create scratch results dir");
    std::env::set_var("OCCACHE_RESULTS", &scratch);
    std::env::set_var("OCCACHE_SLICE_THREADS", threads);
    std::env::remove_var("OCCACHE_NO_MULTISIM");
    std::env::remove_var("OCCACHE_REPLACEMENT");
    std::env::remove_var("OCCACHE_REFS");
    std::env::remove_var("OCCACHE_POINT_TIMEOUT");
    std::env::remove_var("OCCACHE_FAULT_POINT");
    std::env::remove_var("OCCACHE_FRESH");
    // Manifest fingerprints fold over the in-process phase registry;
    // start each run from a clean one so every manifest describes the
    // same phases.
    occache_experiments::run_report::reset();

    let mut bench = Workbench::new(REFS);
    let artifact = run_table7(&mut bench);
    artifact.emit().expect("emit table7 artifact");

    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(&scratch).expect("read scratch results dir") {
        let entry = entry.expect("read scratch dir entry");
        let path = entry.path();
        if !path.is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == MANIFEST_FILE || Path::new(&name).extension().is_some_and(|e| e == "csv") {
            files.insert(name, std::fs::read(&path).expect("read emitted file"));
        }
    }
    std::env::remove_var("OCCACHE_SLICE_THREADS");
    let _ = std::fs::remove_dir_all(&scratch);
    files
}

#[test]
fn slice_thread_count_never_changes_artifact_bytes() {
    let serial = emit_table7("1");
    assert!(
        serial.contains_key(MANIFEST_FILE),
        "table7 emit must write {MANIFEST_FILE}"
    );
    assert!(
        serial.keys().any(|n| n.ends_with(".csv")),
        "table7 emit must write at least one CSV"
    );
    // Width 2 shards each architecture's single engine unit over two
    // threads (Z8000's five traces split 3/2); width 4 shards wider.
    for threads in ["2", "4"] {
        let threaded = emit_table7(threads);
        assert_eq!(
            serial.keys().collect::<Vec<_>>(),
            threaded.keys().collect::<Vec<_>>(),
            "thread count {threads} changed the set of emitted files"
        );
        for (name, bytes) in &serial {
            assert_eq!(
                bytes, &threaded[name],
                "{name} differs between OCCACHE_SLICE_THREADS=1 and ={threads}"
            );
        }
    }
}
