//! `occache-sweep`: run the Table 1 design-space grid for one architecture.

use std::fmt::Write as _;

use occache_experiments::report::{points_to_csv, write_result_in};
use occache_experiments::sweep::{
    evaluate_results_sliced, failure_note, materialize, standard_config, table1_pairs, SweepOutcome,
};
use occache_workloads::{Architecture, WorkloadSpec};

use crate::args::parse;
use crate::CliError;

/// Usage text for `occache-sweep`.
pub const USAGE: &str = "\
occache-sweep — Table 1 design-space sweep for one architecture

USAGE:
  occache-sweep --arch ARCH [--nets LIST] [--refs N] [--warmup N] [--csv FILE]

  --arch ARCH     pdp11 | z8000 | vax11 | s370
  --nets LIST     comma-separated net sizes           [64,256,1024]
  --refs N        references per trace                [1000000]
  --warmup N      uncounted warm-up prefix            [0]
  --csv FILE      also write the results as CSV
  --verify        verify a results directory instead of sweeping
                  (see occache-verify --help for its options)

Averages the miss/traffic/nibble ratios over the architecture's trace set
(the paper's Tables 2-5), exactly as Table 7 does.
";

const VALUE_FLAGS: &[&str] = &["arch", "nets", "refs", "warmup", "csv"];
const BOOL_FLAGS: &[&str] = &["help"];

fn parse_arch(name: &str) -> Result<Architecture, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "pdp11" | "pdp-11" => Ok(Architecture::Pdp11),
        "z8000" => Ok(Architecture::Z8000),
        "vax11" | "vax-11" | "vax" => Ok(Architecture::Vax11),
        "s370" | "370" | "s/370" => Ok(Architecture::S370),
        other => Err(CliError::Usage(format!(
            "--arch: expected pdp11|z8000|vax11|s370, got {other:?}"
        ))),
    }
}

fn parse_nets(list: &str) -> Result<Vec<u64>, CliError> {
    list.split(',')
        .map(|token| {
            let net: u64 = token
                .trim()
                .parse()
                .map_err(|_| CliError::Usage(format!("--nets: bad size {token:?}")))?;
            if !net.is_power_of_two() || net < 16 {
                return Err(CliError::Usage(format!(
                    "--nets: {net} is not a power of two >= 16"
                )));
            }
            Ok(net)
        })
        .collect()
}

/// Runs the command and returns the report to print.
///
/// # Errors
///
/// Returns a [`CliError`] on bad usage or I/O failure writing the CSV.
pub fn run<S: AsRef<str>>(argv: &[S]) -> Result<String, CliError> {
    if argv.iter().any(|a| a.as_ref() == "--verify") {
        return crate::verify_cmd::run(argv);
    }
    let parsed = parse(argv, VALUE_FLAGS, BOOL_FLAGS)?;
    if parsed.switch("help") {
        return Ok(USAGE.to_string());
    }
    // Reject a malformed OCCACHE_JOBS / OCCACHE_SLICE_THREADS up front;
    // the sweep pool itself is lenient and would silently fall back to
    // hardware parallelism.
    occache_experiments::sweep::try_jobs().map_err(CliError::Usage)?;
    occache_experiments::sweep::try_slice_threads().map_err(CliError::Usage)?;
    let arch = parse_arch(
        parsed
            .value("arch")
            .ok_or_else(|| CliError::Usage("--arch is required".into()))?,
    )?;
    let nets = parse_nets(parsed.value("nets").unwrap_or("64,256,1024"))?;
    let refs = parsed.value_or("refs", 1_000_000usize)?;
    let warmup = parsed.value_or("warmup", 0usize)?;

    let traces = materialize(&WorkloadSpec::set_for(arch), refs);
    let mut points = Vec::new();
    let mut failures = Vec::new();
    for &net in &nets {
        let configs: Vec<_> = table1_pairs(net, arch.word_size())
            .into_iter()
            .map(|(block, sub)| standard_config(arch, net, block, sub))
            .collect();
        let outcome: SweepOutcome = evaluate_results_sliced(&configs, &traces, warmup)
            .into_iter()
            .collect();
        points.extend(outcome.points);
        failures.extend(outcome.failures);
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{arch}: {} traces x {refs} refs, warm-up {warmup}",
        traces.len()
    );
    let _ = writeln!(
        out,
        "{:>6} {:>7} {:>9} {:>9} {:>9}",
        "gross", "blk,sub", "miss", "traffic", "nibble"
    );
    for p in &points {
        let c = p.config;
        let _ = writeln!(
            out,
            "{:>6} {:>7} {:>9.4} {:>9.4} {:>9.4}",
            p.gross_size,
            format!("{},{}", c.block_size(), c.sub_block_size()),
            p.miss_ratio,
            p.traffic_ratio,
            p.nibble_traffic_ratio
        );
    }
    if let Some(note) = failure_note(&failures) {
        let _ = writeln!(out, "\n{note}");
    }
    if let Some(path) = parsed.value("csv") {
        // Atomic write (temp + fsync + rename): an interrupted sweep never
        // leaves a truncated CSV that looks complete.
        let target = std::path::Path::new(path);
        let file_name = target
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| CliError::Usage(format!("--csv: {path:?} has no file name")))?;
        let dir = match target.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => std::path::Path::new("."),
        };
        write_result_in(dir, file_name, &points_to_csv(arch.name(), &points))?;
        let _ = writeln!(out, "\ncsv written to {path}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_prints_usage() {
        assert!(run(&["--help"]).unwrap().contains("occache-sweep"));
    }

    #[test]
    fn sweeps_one_net_size() {
        let out = run(&["--arch", "pdp11", "--nets", "64", "--refs", "5000"]).unwrap();
        assert!(out.contains("16,8"), "{out}");
        assert!(out.contains("2,2"), "{out}");
    }

    #[test]
    fn writes_csv() {
        let dir = std::env::temp_dir().join("occache_sweep_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.csv");
        run(&[
            "--arch",
            "z8000",
            "--nets",
            "64",
            "--refs",
            "3000",
            "--csv",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("arch,net,block,sub"));
        assert!(text.lines().count() > 5);
    }

    #[test]
    fn rejects_bad_arch_and_nets() {
        assert!(run(&["--arch", "mips"]).is_err());
        assert!(run(&["--arch", "pdp11", "--nets", "100"]).is_err());
        assert!(run(&["--nets", "64"]).is_err());
    }
}
