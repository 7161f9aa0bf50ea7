//! `occache-sweep` checks every batch variable before it sweeps: a
//! misspelt replacement policy exits non-zero naming the variable
//! instead of silently running the grid under LRU.

use std::process::Command;

#[test]
fn sweep_refuses_a_malformed_replacement_policy() {
    let out = Command::new(env!("CARGO_BIN_EXE_occache-sweep"))
        .args(["--arch", "pdp11", "--refs", "1000", "--nets", "64"])
        .env("OCCACHE_REPLACEMENT", "lruu")
        .output()
        .expect("run occache-sweep");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "occache-sweep must refuse: {stderr}");
    assert!(stderr.contains("OCCACHE_REPLACEMENT"), "{stderr}");
    assert!(out.stdout.is_empty(), "a refused sweep must report nothing");
}
