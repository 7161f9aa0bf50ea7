//! The §2.2 study: instruction buffers vs minimum caches.
//!
//! §2.2 positions the "minimum cache" as "a cross between an instruction
//! buffer and a cache" and argues a few hundred bytes of cache beat plain
//! buffers because caches cut *traffic*, not just latency. This artifact
//! quantifies that on the instruction streams of each architecture:
//! a VAX-11/780-style 8-byte buffer, a CRAY-1-style set of four
//! loop-capturing buffers, and the paper's 64-byte minimum cache.

use std::fmt::Write as _;

use occache_core::InstructionBuffer;
use occache_runtime::executor::evaluate_metrics;
use occache_trace::AccessKind;

use crate::runs::{Artifact, Workbench};
use crate::sweep::standard_config;

/// Runs the instruction-delivery comparison.
pub fn run_buffers(bench: &mut Workbench) -> Artifact {
    let len = bench.len();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Instruction delivery (§2.2): buffers vs a minimum cache, \
         instruction fetches only, {len} refs/trace\n"
    );
    let _ = writeln!(
        report,
        "{:<16} {:>22} {:>22} {:>22}",
        "", "VAX-780 buffer (8B)", "CRAY-style 4x128B", "minimum cache 64B"
    );
    let _ = writeln!(
        report,
        "{:<16} {:>10} {:>11} {:>10} {:>11} {:>10} {:>11}",
        "architecture", "stall", "traffic", "stall", "traffic", "miss", "traffic"
    );
    let mut csv = String::from("arch,design,stall_or_miss_ratio,traffic_ratio\n");
    // Both buffer models in one pass per trace on the pool; each trace
    // also yields its instruction-only view for the minimum cache.
    let buffered = bench.map_arch_traces(|arch, trace| {
        let word = arch.word_size();
        let mut vax = InstructionBuffer::vax780();
        let mut cray = InstructionBuffer::cray_style(16, 8);
        for r in trace.iter().filter(|r| r.kind() == AccessKind::InstrFetch) {
            vax.fetch(r.address());
            cray.fetch(r.address());
        }
        let ratios = [
            vax.stall_ratio(),
            vax.traffic_ratio(word),
            cray.stall_ratio(),
            cray.traffic_ratio(word),
        ];
        let view = trace.filtered(format!("{}/I", trace.name), |k| k == AccessKind::InstrFetch);
        (ratios, view)
    });
    for (arch, rows) in buffered {
        let word = arch.word_size();
        let n = rows.len() as f64;
        // Each column is summed in trace order, then divided.
        let mut sums = [0.0; 6];
        let mut views = Vec::with_capacity(rows.len());
        for (ratios, view) in rows {
            for (sum, ratio) in sums.iter_mut().zip(ratios) {
                *sum += ratio;
            }
            views.push(view);
        }
        let cache = standard_config(arch, 64, 2 * word, word);
        for m in &evaluate_metrics(&[cache], &views, 0)[0] {
            sums[4] += m.miss_ratio();
            sums[5] += m.traffic_ratio();
        }
        let [vax_stall, vax_traffic, cray_stall, cray_traffic, cache_miss, cache_traffic] =
            sums.map(|sum| sum / n);
        let _ = writeln!(
            report,
            "{:<16} {vax_stall:>10.4} {vax_traffic:>11.4} {cray_stall:>10.4} \
             {cray_traffic:>11.4} {cache_miss:>10.4} {cache_traffic:>11.4}",
            arch.name(),
        );
        for (design, stall, traffic) in [
            ("vax780_buffer", vax_stall, vax_traffic),
            ("cray_buffers", cray_stall, cray_traffic),
            ("minimum_cache", cache_miss, cache_traffic),
        ] {
            let _ = writeln!(csv, "{},{design},{stall:.6},{traffic:.6}", arch.name());
        }
    }
    let _ = writeln!(
        report,
        "\n(§2.2's claim in numbers: the non-recognising buffer leaves the\n\
         instruction traffic ratio near 1.0 no matter how well it hides\n\
         latency; loop-capturing buffers and caches cut both)"
    );
    Artifact {
        name: "buffers",
        report,
        csv: vec![("buffers.csv".into(), csv)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occache_workloads::Architecture;

    #[test]
    fn buffers_artifact_shows_the_section_2_2_claim() {
        let mut bench = Workbench::new(30_000);
        let a = run_buffers(&mut bench);
        // The VAX-style buffer's traffic ratio stays near 1 on at least
        // one architecture line while the CRAY buffers cut it.
        let csv = &a.csv[0].1;
        let vax: Vec<f64> = csv
            .lines()
            .filter(|l| l.contains("vax780"))
            .map(|l| l.rsplit(',').next().unwrap().parse().unwrap())
            .collect();
        let cray: Vec<f64> = csv
            .lines()
            .filter(|l| l.contains("cray"))
            .map(|l| l.rsplit(',').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(vax.len(), 4);
        for (v, c) in vax.iter().zip(&cray) {
            assert!(*v > 0.9, "VAX buffer moves every byte: {v}");
            assert!(c < v, "CRAY buffers cut traffic: {c} vs {v}");
        }
    }

    /// The pooled minimum-cache column against its oracle: one direct
    /// `SubBlockCache` per trace fed only the instruction fetches,
    /// summed in trace order and divided by the trace count.
    #[test]
    fn minimum_cache_column_matches_the_sub_block_cache_oracle() {
        let mut bench = Workbench::new(6_000);
        let a = run_buffers(&mut bench);
        for arch in Architecture::ALL {
            let word = arch.word_size();
            let traces = bench.arch_traces(arch);
            let (mut miss, mut traffic) = (0.0, 0.0);
            for trace in traces {
                let mut cache =
                    occache_core::SubBlockCache::new(standard_config(arch, 64, 2 * word, word));
                for r in trace.iter().filter(|r| r.kind() == AccessKind::InstrFetch) {
                    cache.access(r.address(), r.kind());
                }
                miss += cache.metrics().miss_ratio();
                traffic += cache.metrics().traffic_ratio();
            }
            let n = traces.len() as f64;
            let row = format!(
                "{},minimum_cache,{:.6},{:.6}\n",
                arch.name(),
                miss / n,
                traffic / n
            );
            assert!(a.csv[0].1.contains(&row), "{row}");
        }
    }
}
