//! The binary surface is closed: every `crates/*/src/bin/*.rs` target is
//! run by a ci.sh gate (`release/<name>`) or by a test
//! (`CARGO_BIN_EXE_<name>`), so no binary ships that nothing exercises.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The `key = "value"` of a manifest line, if it sets `key`.
fn manifest_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let (k, v) = line.split_once('=')?;
    (k.trim() == key).then(|| v.trim().trim_matches('"'))
}

/// `(path, name)` of each `[[bin]]` table in a Cargo.toml.
fn declared_bins(manifest: &str) -> Vec<(String, String)> {
    manifest
        .split("[[bin]]")
        .skip(1)
        .filter_map(|table| {
            let table = table.split("\n[").next().unwrap_or("");
            let name = table.lines().find_map(|l| manifest_value(l, "name"))?;
            let path = table.lines().find_map(|l| manifest_value(l, "path"))?;
            Some((path.to_string(), name.to_string()))
        })
        .collect()
}

/// Every binary target under `crates/*/src/bin`: its `[[bin]]` name
/// where the crate's manifest declares one, else its file stem.
fn bin_targets() -> Vec<String> {
    let mut names = Vec::new();
    for krate in fs::read_dir(root().join("crates")).expect("crates dir") {
        let krate = krate.expect("crate entry").path();
        let Ok(entries) = fs::read_dir(krate.join("src/bin")) else {
            continue;
        };
        let declared = declared_bins(&read(&krate.join("Cargo.toml")));
        for entry in entries {
            let path = entry.expect("bin entry").path();
            if path.extension().is_none_or(|e| e != "rs") {
                continue;
            }
            let file = path.file_name().unwrap().to_string_lossy();
            let relative = format!("src/bin/{file}");
            let name = declared
                .iter()
                .find(|(p, _)| *p == relative)
                .map(|(_, n)| n.clone())
                .unwrap_or_else(|| file.trim_end_matches(".rs").to_string());
            names.push(name);
        }
    }
    names.sort();
    names
}

/// `.rs` files directly under each `crates/*/tests` and the root `tests`.
fn test_sources() -> String {
    let mut dirs: Vec<PathBuf> = vec![root().join("tests")];
    for krate in fs::read_dir(root().join("crates")).expect("crates dir") {
        dirs.push(krate.expect("crate entry").path().join("tests"));
    }
    let mut text = String::new();
    for dir in dirs {
        let Ok(entries) = fs::read_dir(dir) else {
            continue;
        };
        for entry in entries {
            let path = entry.expect("test entry").path();
            if path.extension().is_some_and(|e| e == "rs") {
                text.push_str(&read(&path));
            }
        }
    }
    text
}

/// Whether `text` holds `prefix` + `name` not followed by another
/// name character (so `all` is not found inside `all_the_rest`).
fn mentions(text: &str, prefix: &str, name: &str) -> bool {
    let needle = format!("{prefix}{name}");
    text.match_indices(&needle).any(|(at, _)| {
        text[at + needle.len()..]
            .chars()
            .next()
            .is_none_or(|c| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
    })
}

#[test]
fn every_binary_is_run_by_a_gate_or_a_test() {
    let bins = bin_targets();
    for named in ["all", "occache-sim", "occache-top"] {
        assert!(
            bins.iter().any(|b| b == named),
            "{named} not found in {bins:?}"
        );
    }
    let ci = read(&root().join("ci.sh"));
    let tests = test_sources();
    let ungated: Vec<&String> = bins
        .iter()
        .filter(|name| {
            !mentions(&ci, "release/", name) && !mentions(&tests, "CARGO_BIN_EXE_", name)
        })
        .collect();
    assert!(
        ungated.is_empty(),
        "no ci.sh line (release/<name>) or test (CARGO_BIN_EXE_<name>) runs {ungated:?}"
    );
}

#[test]
fn manifest_and_mention_parsing() {
    let manifest = "[package]\nname = \"x\"\n\n[[bin]]\nname = \"occache-sim\"\n\
                    path = \"src/bin/occache_sim.rs\"\n\n[lints.clippy]\nname = \"no\"\n";
    assert_eq!(
        declared_bins(manifest),
        [(
            "src/bin/occache_sim.rs".to_string(),
            "occache-sim".to_string()
        )]
    );
    assert!(mentions("./target/release/all table7", "release/", "all"));
    assert!(!mentions("./target/release/all_x", "release/", "all"));
    assert!(!mentions(
        "./target/release/occache-sim-2",
        "release/",
        "occache-sim"
    ));
    assert!(mentions(
        "env!(\"CARGO_BIN_EXE_all\")",
        "CARGO_BIN_EXE_",
        "all"
    ));
}
