//! The experiment binary checks its arguments and every batch variable
//! before any work starts: an unknown artifact name or a malformed value
//! exits non-zero with a message naming it, instead of running part of
//! the paper or reaching a lenient mid-run reader that warns and carries
//! on.

use std::process::Command;

#[test]
fn table7_refuses_a_malformed_progress_interval() {
    let dir = std::env::temp_dir().join(format!("occache-startup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_all"))
        .arg("table7")
        .env("OCCACHE_PROGRESS_EVERY", "abc")
        .env("OCCACHE_RESULTS", &dir)
        .env("OCCACHE_REFS", "1000")
        .output()
        .expect("run table7");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "table7 must refuse to start: {stderr}"
    );
    assert!(stderr.contains("OCCACHE_PROGRESS_EVERY"), "{stderr}");
    assert!(!dir.exists(), "a refused run must write nothing");
}

#[test]
fn all_refuses_an_unknown_artifact_name() {
    let dir = std::env::temp_dir().join(format!("occache-unknown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_all"))
        .args(["table7", "fig10"])
        .env("OCCACHE_RESULTS", &dir)
        .env("OCCACHE_REFS", "1000")
        .output()
        .expect("run all");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "all must refuse to start: {stderr}");
    assert!(
        stderr.contains("\"fig10\""),
        "the unknown name is named: {stderr}"
    );
    for valid in ["headline", "table7", "fig9", "split", "assoc_curves"] {
        assert!(stderr.contains(valid), "valid names are listed: {stderr}");
    }
    assert!(out.stdout.is_empty(), "a refused run must report nothing");
    assert!(!dir.exists(), "a refused run must write nothing");
}
