//! The trace tools end to end, as a user chains them: `occache-gen`
//! writes a workload trace, `occache-sim` and `occache-stats` read it
//! back, and each exits 0. `occache-sim`'s miss ratio on its default
//! cache must be the one `occache_core::simulate` reports for the
//! library's default configuration on the same references.

use std::path::Path;
use std::process::{Command, Output};

use occache_core::{simulate, CacheConfig};
use occache_trace::io::parse_trace_auto;

fn run(bin: &str, args: &[&str]) -> Output {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("run {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn generated_trace_feeds_sim_and_stats() {
    let dir = std::env::temp_dir().join(format!("occache-cli-bins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("ed.trace");
    let path = trace.to_str().unwrap();

    run(
        env!("CARGO_BIN_EXE_occache-gen"),
        &["--workload", "ED", "--refs", "5000", "--out", path],
    );
    let refs = parse_trace_auto(std::fs::File::open(Path::new(path)).unwrap()).unwrap();
    assert_eq!(refs.len(), 5000);

    let sim = run(env!("CARGO_BIN_EXE_occache-sim"), &[path]);
    let report = String::from_utf8(sim.stdout).unwrap();
    let reported = report
        .lines()
        .find_map(|l| l.strip_prefix("miss ratio    : "))
        .unwrap_or_else(|| panic!("no miss ratio in:\n{report}"));
    let config = CacheConfig::builder().build().unwrap();
    let expected = simulate(config, refs.iter().copied(), 0).miss_ratio();
    assert_eq!(reported, format!("{expected:.4}"), "{report}");

    let stats = run(env!("CARGO_BIN_EXE_occache-stats"), &[path]);
    assert!(!stats.stdout.is_empty(), "occache-stats printed nothing");
    let _ = std::fs::remove_dir_all(&dir);
}
