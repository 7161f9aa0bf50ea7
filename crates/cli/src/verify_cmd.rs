//! `occache-verify` — check a results directory end to end.
//!
//! Re-hashes every file against `MANIFEST.json`, scans every checkpoint
//! journal strictly, and re-simulates a deterministic sample of
//! journalled points through the direct simulator, comparing bit-exactly.
//! Also reachable as `occache sweep --verify`.

use occache_experiments::verify::{verify_dir, VerifyOptions};
use occache_runtime::config::results_dir;

use crate::args::parse;
use crate::error::CliError;

/// Usage text shown for `--help` and usage errors.
pub const USAGE: &str = "\
occache-verify: check results against MANIFEST.json and the checkpoint journals

USAGE:
    occache-verify [OPTIONS]
    occache sweep --verify [OPTIONS]

OPTIONS:
    --dir <PATH>      results directory to verify [default: $OCCACHE_RESULTS or results/]
    --sample <N>      journalled points to re-simulate per journal [default: 4]
    --refs <N>        references per trace for re-simulation; must match the
                      run's OCCACHE_REFS for journal keys to line up
    --no-resim        skip re-simulation (hash and journal checks still run)
    --help            print this help

EXIT STATUS:
    0 when everything checks out, 1 when any file, journal record or
    re-simulated point fails, 2 on usage or i/o errors.
";

const VALUE_FLAGS: &[&str] = &["dir", "sample", "refs"];
// "verify" is tolerated (as a no-op) so `occache sweep --verify ...`
// can forward its argv here unchanged.
const BOOL_FLAGS: &[&str] = &["help", "no-resim", "verify"];

/// Runs the verify command. A passing report comes back as `Ok`; a
/// failing one as [`CliError::Integrity`] carrying the full report so
/// the binary can print it and exit nonzero.
///
/// # Errors
///
/// [`CliError::Usage`] for bad flags, [`CliError::Io`] for filesystem
/// problems (including lock contention with a live run), and
/// [`CliError::Integrity`] when verification fails.
pub fn run<S: AsRef<str>>(argv: &[S]) -> Result<String, CliError> {
    let parsed = parse(argv, VALUE_FLAGS, BOOL_FLAGS)?;
    if parsed.switch("help") {
        return Ok(USAGE.to_string());
    }
    if let Some(extra) = parsed.positional().first() {
        return Err(CliError::Usage(format!(
            "unexpected positional argument '{extra}'"
        )));
    }
    let mut opts = VerifyOptions::from_env();
    opts.sample = parsed.value_or("sample", opts.sample)?;
    opts.refs = parsed.value_or("refs", opts.refs)?;
    opts.resim = !parsed.switch("no-resim");
    let dir = parsed
        .value("dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(results_dir);

    let report = verify_dir(&dir, &opts)?;
    let mut rendered = format!("verifying {}\n{}", dir.display(), report.render());
    if report.is_ok() {
        Ok(rendered)
    } else {
        rendered.truncate(rendered.trim_end().len());
        Err(CliError::Integrity(rendered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("occache-verifycmd-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&["--help"]).unwrap();
        assert!(out.contains("occache-verify"));
        assert!(out.contains("--no-resim"));
    }

    #[test]
    fn bad_sample_is_a_usage_error() {
        let err = run(&["--sample", "many"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        let err = run(&["extra-arg"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn empty_dir_fails_for_want_of_a_manifest() {
        let dir = temp_dir("nomanifest");
        let err = run(&["--dir", dir.to_str().unwrap()]).unwrap_err();
        match err {
            CliError::Integrity(report) => {
                assert!(report.contains("MANIFEST.json"));
                assert!(report.contains("verify: FAILED"));
            }
            other => panic!("expected Integrity, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn intact_results_pass_and_a_flipped_byte_fails() {
        let dir = temp_dir("roundtrip");
        let contents = "block,miss\n32,0.05\n";
        occache_runtime::config::write_result_in(&dir, "t.csv", contents).unwrap();
        let entry = occache_experiments::manifest::ManifestEntry::of("t.csv", contents, "t", 0, 0);
        occache_experiments::manifest::record(&dir, "t", vec![entry]).unwrap();
        let out = run(&["--dir", dir.to_str().unwrap(), "--no-resim"]).unwrap();
        assert!(out.contains("verify: OK"));
        // Flip one byte.
        let mut bytes = fs::read(dir.join("t.csv")).unwrap();
        bytes[3] ^= 1;
        fs::write(dir.join("t.csv"), &bytes).unwrap();
        let err = run(&["--dir", dir.to_str().unwrap(), "--no-resim"]).unwrap_err();
        match err {
            CliError::Integrity(report) => assert!(report.contains("t.csv")),
            other => panic!("expected Integrity, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
