//! A checkpoint journal the run cannot use degrades to an unjournalled
//! sweep, and the run still records its phase: RUN_REPORT.json lists it
//! and MANIFEST.json carries its trace and config fingerprints. The
//! journal is made unusable by a directory squatting on its path, which
//! fails for every user (a read-only file does not stop a root process).
//! A journal that opens but cannot be written (a link to `/dev/full`)
//! keeps the evaluated grid: each point is simulated once.

use std::process::Command;

#[test]
fn an_unavailable_journal_still_records_its_phase() {
    let dir = std::env::temp_dir().join(format!("occache-unavailable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join(".checkpoint").join("fig2.jsonl")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_all"))
        .arg("fig2")
        .env("OCCACHE_RESULTS", &dir)
        .env("OCCACHE_REFS", "1000")
        .env_remove("OCCACHE_FRESH")
        .output()
        .expect("run all fig2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("checkpoint journal unavailable"),
        "the degraded path must be the one taken: {stderr}"
    );

    let report = std::fs::read_to_string(dir.join("RUN_REPORT.json")).unwrap();
    let phase = report
        .lines()
        .find(|l| l.contains("\"artifact\":\"fig2\""))
        .unwrap_or_else(|| panic!("RUN_REPORT.json has no fig2 phase:\n{report}"));
    assert!(phase.contains("\"computed\":50,"), "{phase}");
    assert!(phase.contains("\"restored\":0,"), "{phase}");

    let manifest = std::fs::read_to_string(dir.join("MANIFEST.json")).unwrap();
    let entry = manifest
        .lines()
        .find(|l| l.contains("\"name\":\"fig2.csv\""))
        .unwrap_or_else(|| panic!("MANIFEST.json has no fig2.csv entry:\n{manifest}"));
    let zero = "\"0000000000000000\"";
    assert!(
        !entry.contains(&format!("\"trace_fp\":{zero}"))
            && !entry.contains(&format!("\"config_fp\":{zero}")),
        "the manifest entry must carry the phase's fingerprints: {entry}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn a_journal_that_fails_its_writes_simulates_each_point_once() {
    if !std::path::Path::new("/dev/full").exists() {
        eprintln!("skipped: this system has no /dev/full");
        return;
    }
    let dir = std::env::temp_dir().join(format!("occache-dev-full-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join(".checkpoint")).unwrap();
    std::os::unix::fs::symlink("/dev/full", dir.join(".checkpoint").join("fig2.jsonl")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_all"))
        .arg("fig2")
        .env("OCCACHE_RESULTS", &dir)
        .env("OCCACHE_REFS", "1000")
        .env("OCCACHE_NO_MULTISIM", "all")
        .env_remove("OCCACHE_FRESH")
        .output()
        .expect("run all fig2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("fig2.jsonl could not be written"),
        "the warning names the journal: {stderr}"
    );
    assert!(
        !stderr.contains("checkpoint journal unavailable"),
        "no fallback re-run: {stderr}"
    );
    let report = std::fs::read_to_string(dir.join("RUN_REPORT.json")).unwrap();
    let phase = report
        .lines()
        .find(|l| l.contains("\"artifact\":\"fig2\""))
        .unwrap_or_else(|| panic!("RUN_REPORT.json has no fig2 phase:\n{report}"));
    assert!(phase.contains("\"computed\":50,"), "{phase}");
    assert!(phase.contains("\"failed\":0,"), "{phase}");
    // With the engines off every point is one direct evaluation, so the
    // count of direct points is the count of simulations.
    assert!(
        phase.contains("\"direct\":50,"),
        "each point simulated once: {phase}"
    );
    assert!(dir.join("fig2.csv").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
