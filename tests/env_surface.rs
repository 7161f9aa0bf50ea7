//! The `OCCACHE_*` environment surface is closed: every variable is
//! documented in EXPERIMENTS.md's table, listed in the module table of
//! `crates/runtime/src/config.rs`, read by name in non-test code under
//! `crates/*/src`, and set by a ci.sh gate or by a test outside
//! `config.rs` — so no knob exists that nothing exercises. The golden
//! regeneration hook is the one exception: it is read only by tests and
//! set by hand when a byte change is intended.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The only name allowed to skip the "read in code, set by a gate"
/// rules.
const EXCEPTION: &str = "OCCACHE_GOLDEN_REGEN";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The `<NAME>` at the start of `tail` (the text after an `OCCACHE_`
/// prefix) and its length; a bare prefix has no name.
fn leading_name(tail: &str) -> (Option<String>, usize) {
    let len = tail
        .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
        .unwrap_or(tail.len());
    let name = tail[..len].trim_end_matches('_');
    ((!name.is_empty()).then(|| format!("OCCACHE_{name}")), len)
}

/// Every `OCCACHE_<NAME>` token in `text`.
fn names_in(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut rest = text;
    while let Some(at) = rest.find("OCCACHE_") {
        let (name, len) = leading_name(&rest[at + "OCCACHE_".len()..]);
        out.extend(name);
        rest = &rest[at + "OCCACHE_".len() + len..];
    }
    out
}

/// The names in the first cell of each table row whose line starts with
/// `prefix` followed by `` | `OCCACHE_ ``.
fn table_names(text: &str, prefix: &str) -> BTreeSet<String> {
    text.lines()
        .filter_map(|line| line.strip_prefix(prefix))
        .filter(|row| row.trim_start().starts_with("| `OCCACHE_"))
        .flat_map(|row| names_in(row.split('|').nth(1).unwrap_or("")))
        .collect()
}

/// `.rs` files under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Splits a source file at its unit-test module: `(code, tests)`.
fn split_tests(source: &str) -> (&str, &str) {
    match source.find("#[cfg(test)]\nmod tests") {
        Some(at) => source.split_at(at),
        None => (source, ""),
    }
}

/// Names quoted as the start of a string literal (`"OCCACHE_…`).
fn literal_names(code: &str) -> BTreeSet<String> {
    code.split("\"OCCACHE_")
        .skip(1)
        .filter_map(|tail| leading_name(tail).0)
        .collect()
}

/// Names a test sets with `set_var("…")` or `.env("…", …)`.
fn set_names(code: &str) -> BTreeSet<String> {
    ["set_var(\"", ".env(\""]
        .iter()
        .flat_map(|call| code.split(call).skip(1))
        .filter_map(|tail| tail.strip_prefix("OCCACHE_"))
        .filter_map(|tail| leading_name(tail).0)
        .collect()
}

/// `(literals in non-test code, names set by tests outside config.rs)`.
fn code_surface() -> (BTreeSet<String>, BTreeSet<String>) {
    let config = root().join("crates/runtime/src/config.rs");
    let mut literals = BTreeSet::new();
    let mut set_by_tests = BTreeSet::new();
    let mut test_files = Vec::new();
    rust_files(&root().join("tests"), &mut test_files);
    for krate in fs::read_dir(root().join("crates")).expect("crates dir") {
        let krate = krate.expect("crate entry").path();
        let mut sources = Vec::new();
        rust_files(&krate.join("src"), &mut sources);
        for path in sources {
            let source = read(&path);
            let (code, tests) = split_tests(&source);
            literals.extend(literal_names(code));
            if path != config {
                set_by_tests.extend(set_names(tests));
            }
        }
        rust_files(&krate.join("tests"), &mut test_files);
    }
    for path in test_files {
        set_by_tests.extend(set_names(&read(&path)));
    }
    (literals, set_by_tests)
}

#[test]
fn every_env_var_is_documented_parsed_and_exercised() {
    let experiments = read(&root().join("EXPERIMENTS.md"));
    let documented = table_names(&experiments, "");
    let config_table = table_names(&read(&root().join("crates/runtime/src/config.rs")), "//!");
    assert!(documented.contains(EXCEPTION), "{documented:?}");
    assert_eq!(
        documented, config_table,
        "EXPERIMENTS.md's table and config.rs's module table disagree"
    );
    assert_eq!(
        names_in(&experiments),
        documented,
        "EXPERIMENTS.md mentions an OCCACHE_ name outside its table"
    );

    let (literals, set_by_tests) = code_surface();
    let expected: BTreeSet<String> = documented
        .iter()
        .filter(|n| *n != EXCEPTION)
        .cloned()
        .collect();
    assert_eq!(
        literals, expected,
        "the names read in non-test code under crates/*/src differ from the documented ones"
    );

    let ci = read(&root().join("ci.sh"));
    let unexercised: Vec<&String> = expected
        .iter()
        .filter(|n| !ci.contains(&format!("{n}=")) && !set_by_tests.contains(*n))
        .collect();
    assert!(
        unexercised.is_empty(),
        "no ci.sh gate or test outside config.rs sets {unexercised:?}"
    );
}

#[test]
fn name_scanning_handles_literals_calls_and_tables() {
    assert_eq!(
        names_in("`OCCACHE_*` and OCCACHE_REFS=1, OCCACHE_SERVE_ADDR."),
        BTreeSet::from(["OCCACHE_REFS".to_string(), "OCCACHE_SERVE_ADDR".to_string()])
    );
    assert_eq!(
        literal_names(r#"var("OCCACHE_REFS") + "x OCCACHE_FRESH" + "OCCACHE_PEERS is set""#),
        BTreeSet::from(["OCCACHE_REFS".to_string(), "OCCACHE_PEERS".to_string()])
    );
    assert_eq!(
        set_names(
            r#"std::env::set_var("OCCACHE_A", "1"); cmd.env("OCCACHE_B", x); var("OCCACHE_C")"#
        ),
        BTreeSet::from(["OCCACHE_A".to_string(), "OCCACHE_B".to_string()])
    );
    assert_eq!(
        table_names(
            "| `OCCACHE_REFS` | x |\n|---|\n//! | `OCCACHE_FRESH` | y |",
            "//!"
        ),
        BTreeSet::from(["OCCACHE_FRESH".to_string()])
    );
}
