//! Workload characterisation and the shared-bus sizing study.
//!
//! `run_workload_stats` documents the synthetic trace models — the §3.3
//! argument for trace-driven simulation is that workloads carry "complex
//! embedded correlations"; this artifact shows ours do, and that they
//! differ across architectures the way §4.2.5 describes.
//!
//! `run_bus_contention` turns traffic ratios into the paper's motivating
//! system-level question: how many microprocessors can share one memory
//! bus, with and without an on-chip cache?

use std::fmt::Write as _;

use occache_core::SharedBus;
use occache_trace::{TraceStats, WorkingSetCurve};
use occache_workloads::Architecture;

use crate::runs::{Artifact, Workbench};
use crate::sweep::{standard_config, Trace};

/// Per-trace characterisation: reference mix, footprint, sequential-run
/// structure and the Denning working-set curve.
pub fn run_workload_stats(bench: &mut Workbench) -> Artifact {
    let len = bench.len();
    let mut report = String::new();
    let _ = writeln!(report, "Workload characterisation ({len} refs/trace)\n");
    let _ = writeln!(
        report,
        "{:<10} {:<8} {:>7} {:>7} {:>9} {:>6} | {:>8} {:>8} {:>8}",
        "trace", "arch", "ifetch%", "write%", "footprint", "run", "ws(1k)", "ws(10k)", "ws(100k)"
    );
    let mut csv = String::from(
        "trace,arch,ifetch_fraction,write_fraction,footprint_bytes,mean_run,\
         ws_1k_blocks,ws_10k_blocks,ws_100k_blocks\n",
    );
    // One pass per trace on the pool; the rows come back in trace order.
    for (_, rows) in bench.map_arch_traces(characterize) {
        for (line, record) in rows {
            report.push_str(&line);
            csv.push_str(&record);
        }
        let _ = writeln!(report);
    }
    let _ = writeln!(
        report,
        "(working-set sizes in 16-byte blocks; §4.2.5 expects footprints to\n\
         grow from the compact Z8000 utilities to the hundreds-of-kilobyte\n\
         System/370 jobs)"
    );
    Artifact {
        name: "workload_stats",
        report,
        csv: vec![("workload_stats.csv".into(), csv)],
    }
}

/// One trace's report line and CSV record for [`run_workload_stats`].
fn characterize(arch: Architecture, trace: &Trace) -> (String, String) {
    let mut stats = TraceStats::new(arch.word_size());
    let mut ws = WorkingSetCurve::new(16);
    for r in trace.iter() {
        stats.observe(r);
        ws.observe(r);
    }
    let write_frac = stats.writes() as f64 / stats.total().max(1) as f64;
    let curve = ws.curve(&[1_000, 10_000, 100_000]);
    let line = format!(
        "{:<10} {:<8} {:>6.1}% {:>6.1}% {:>8}B {:>6.1} | {:>8.0} {:>8.0} {:>8.0}\n",
        trace.name,
        arch.name().split(' ').next_back().unwrap_or(""),
        stats.ifetch_fraction() * 100.0,
        write_frac * 100.0,
        stats.footprint_bytes(),
        stats.mean_ifetch_run(),
        curve[0].1,
        curve[1].1,
        curve[2].1,
    );
    let record = format!(
        "{},{},{:.4},{:.4},{},{:.2},{:.1},{:.1},{:.1}\n",
        trace.name,
        arch.name(),
        stats.ifetch_fraction(),
        write_frac,
        stats.footprint_bytes(),
        stats.mean_ifetch_run(),
        curve[0].1,
        curve[1].1,
        curve[2].1,
    );
    (line, record)
}

/// Shared-bus sizing: processors per bus at 70% utilisation, by cache
/// design, per architecture.
pub fn run_bus_contention(bench: &mut Workbench) -> Artifact {
    let len = bench.len();
    // One cacheless processor consumes 40% of the bus — a mid-1980s
    // multiprocessor backplane assumption; the comparison across designs
    // is what matters.
    let bus = SharedBus::new(0.4);
    const TARGET: f64 = 0.7;

    let mut report = String::new();
    let _ = writeln!(
        report,
        "Shared-bus sizing (extension; the paper's §1 motivation): \
         processors per bus at {:.0}% target utilisation, cacheless demand 0.4, {len} refs/trace\n",
        TARGET * 100.0
    );
    let _ = writeln!(
        report,
        "{:<16} {:>10} {:>12} {:>12} {:>12}",
        "architecture", "no cache", "64B (4,2)", "1024B (16,16)", "1024B (16,2)"
    );
    let mut csv = String::from("arch,design,traffic_ratio,max_processors\n");
    for arch in Architecture::ALL {
        let word = arch.word_size();
        let warmup = bench.warmup_for(arch);
        let traces = bench.arch_traces(arch).to_vec();
        let mut row = format!(
            "{:<16} {:>10}",
            arch.name(),
            bus.max_processors(1.0, TARGET)
        );
        let _ = writeln!(
            csv,
            "{},no cache,1.0,{}",
            arch.name(),
            bus.max_processors(1.0, TARGET)
        );
        let designs = [
            ("64B (4,2)", 64u64, 2 * word, word),
            ("1024B (16,16)", 1024, 16, 16),
            ("1024B (16,2)", 1024, 16, word.max(2)),
        ];
        // Every design is a Table 7 cell, recalled when Table 7 ran.
        for ((label, ..), p) in
            bench.evaluate_each(&designs, &traces, warmup, |(_, net, block, sub)| {
                standard_config(arch, net, block, sub)
            })
        {
            let traffic = p.traffic_ratio;
            let processors = bus.max_processors(traffic, TARGET);
            let _ = write!(row, " {processors:>12}");
            let _ = writeln!(csv, "{},{label},{traffic:.4},{processors}", arch.name());
        }
        let _ = writeln!(report, "{row}");
    }
    let _ = writeln!(
        report,
        "\n(small sub-blocks trade misses for bus headroom: exactly the\n\
         operating-point choice §4.2.1 describes for bus-limited systems)"
    );
    Artifact {
        name: "bus_contention",
        report,
        csv: vec![("bus_contention.csv".into(), csv)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_stats_covers_all_named_traces() {
        let mut bench = Workbench::new(8_000);
        let a = run_workload_stats(&mut bench);
        for name in ["OPSYS", "GREP", "spice", "FGO1"] {
            assert!(a.report.contains(name), "{name}");
        }
        // Header + 6+5+6+4 traces.
        assert_eq!(a.csv[0].1.lines().count(), 22);
    }

    #[test]
    fn bus_contention_shows_caches_helping() {
        let mut bench = Workbench::new(20_000);
        let a = run_bus_contention(&mut bench);
        assert!(a.report.contains("PDP-11"));
        // Every row of the CSV has a processor count; per architecture,
        // the "no cache" row comes first and every cached design sustains
        // at least as many processors. Some design must do better:
        // ties are possible (S/370's 64 B row ties at 1M refs), but not
        // for all three designs of an architecture.
        let mut rows: Vec<(&str, &str, u32)> = Vec::new();
        for line in a.csv[0].1.lines().skip(1) {
            // The design labels hold unquoted commas ("64B (4,2)"), so
            // the arch is the first field and the count the last.
            let (arch, rest) = line.split_once(',').expect("an arch field");
            let (rest, count) = rest.rsplit_once(',').expect("a count field");
            let (design, _traffic) = rest.rsplit_once(',').expect("a traffic field");
            let count = count
                .parse()
                .unwrap_or_else(|e| panic!("count in {line:?}: {e}"));
            rows.push((arch, design, count));
        }
        assert_eq!(rows.len(), 4 * Architecture::ALL.len());
        for (arch, per_arch) in Architecture::ALL.into_iter().zip(rows.chunks(4)) {
            let (name, design, bare) = per_arch[0];
            assert_eq!((name, design), (arch.name(), "no cache"));
            for &(name, design, count) in &per_arch[1..] {
                assert_eq!(name, arch.name());
                assert!(count >= bare, "{name} {design}: {count} < {bare}");
            }
            assert!(
                per_arch[1..].iter().any(|&(.., count)| count > bare),
                "no cached design helps {name}: {per_arch:?}"
            );
        }
    }
}
