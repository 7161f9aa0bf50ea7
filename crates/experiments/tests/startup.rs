//! The experiment binaries check every batch variable before any work
//! starts: a malformed value exits non-zero with a message naming the
//! variable, instead of reaching a lenient mid-run reader that warns
//! and carries on.

use std::process::Command;

#[test]
fn table7_refuses_a_malformed_progress_interval() {
    let dir = std::env::temp_dir().join(format!("occache-startup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_table7"))
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
