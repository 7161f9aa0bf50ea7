//! Extension studies: the directions §3.1 explicitly defers to "further
//! studies" (write-through vs copy-back, split instruction/data caches)
//! plus the full RISC II chip evaluation of §2.3 (remote program counter
//! and code compaction).

use std::fmt::Write as _;

use occache_core::{simulate, CacheConfig, Metrics, SplitCache, SubBlockCache, WritePolicy};
use occache_riscii::{compact_profile, ChipTiming, RiscIiCache};
use occache_trace::MemRef;
use occache_workloads::{riscii_instruction_workload, Architecture, ProgramGenerator};

use crate::runs::{evaluate_each, Artifact, Workbench};

/// Write-policy study: total bus traffic — fills *plus* write traffic —
/// under write-through vs copy-back, across the four architectures.
///
/// The paper's headline ratios exclude writes by design; this experiment
/// is the §3.1 "write through vs copy back factors" follow-up. The traffic
/// here is measured as bytes over counted references × word, so the
/// fill-only column matches the paper's traffic ratio.
pub fn run_writes(bench: &mut Workbench) -> Artifact {
    let len = bench.len();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Write policies (extension; §3.1 further study): 1024-byte 16,8 cache, {len} refs/trace\n"
    );
    let _ = writeln!(
        report,
        "{:<16} {:>9} {:>11} {:>11} {:>11}",
        "architecture", "fill", "+write-thru", "+copy-back", "wb/wt"
    );
    let mut csv = String::from("arch,fill_traffic,write_through_total,copy_back_total,ratio\n");
    for arch in Architecture::ALL {
        let warmup = bench.warmup_for(arch);
        let word = arch.word_size();
        let traces = bench.arch_traces(arch);
        let mut fill = 0.0;
        let mut wt_total = 0.0;
        let mut cb_total = 0.0;
        for policy in [WritePolicy::WriteThrough, WritePolicy::CopyBack] {
            let config = CacheConfig::builder()
                .net_size(1024)
                .block_size(16)
                .sub_block_size(8)
                .word_size(word)
                .write_policy(policy)
                .build()
                .expect("valid geometry");
            for trace in traces {
                let m: Metrics = simulate(config, trace.iter(), warmup);
                let denom = (m.accesses() * word) as f64;
                match policy {
                    WritePolicy::WriteThrough => {
                        fill += m.traffic_ratio();
                        wt_total += (m.fetch_bytes() + m.write_through_bytes()) as f64 / denom;
                    }
                    WritePolicy::CopyBack => {
                        cb_total += (m.fetch_bytes() + m.write_back_bytes()) as f64 / denom;
                    }
                }
            }
        }
        let n = traces.len() as f64;
        fill /= n;
        wt_total /= n;
        cb_total /= n;
        let _ = writeln!(
            report,
            "{:<16} {:>9.4} {:>11.4} {:>11.4} {:>11.3}",
            arch.name(),
            fill,
            wt_total,
            cb_total,
            cb_total / wt_total
        );
        let _ = writeln!(
            csv,
            "{},{fill:.6},{wt_total:.6},{cb_total:.6},{:.6}",
            arch.name(),
            cb_total / wt_total
        );
    }
    let _ = writeln!(
        report,
        "\n(copy-back flushes only dirty sub-blocks on eviction, so its total\n\
         traffic undercuts write-through whenever writes re-hit dirty data)"
    );
    Artifact {
        name: "writes",
        report,
        csv: vec![("writes.csv".into(), csv)],
    }
}

/// Split vs unified study: a unified cache of net size `S` against an
/// I/D split of two `S/2` caches, at equal total data capacity.
pub fn run_split(bench: &mut Workbench) -> Artifact {
    let len = bench.len();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Split I/D vs unified (extension; §3.1 further study): 16,8 geometry, {len} refs/trace\n"
    );
    let _ = writeln!(
        report,
        "{:<16} {:>6} {:>11} {:>11} {:>9}",
        "architecture", "net", "unified", "split I/D", "winner"
    );
    let mut csv = String::from("arch,net,unified_miss,split_miss\n");
    for arch in Architecture::ALL {
        let word = arch.word_size();
        let traces = bench.arch_traces(arch);
        let unified = evaluate_each(&[512u64, 1024], traces, 0, |net| {
            CacheConfig::builder()
                .net_size(net)
                .block_size(16)
                .sub_block_size(8)
                .word_size(word)
                .build()
                .expect("valid geometry")
        });
        for (net, unified) in unified {
            let half_config = CacheConfig::builder()
                .net_size(net / 2)
                .block_size(16)
                .sub_block_size(8)
                .word_size(word)
                .build()
                .expect("valid geometry");
            let unified_miss = unified.miss_ratio;
            let mut split_miss = 0.0;
            for trace in traces {
                let mut split = SplitCache::new(half_config, half_config);
                split.run(trace.iter());
                split_miss += split.miss_ratio();
            }
            split_miss /= traces.len() as f64;
            let winner = if unified_miss <= split_miss {
                "unified"
            } else {
                "split"
            };
            let _ = writeln!(
                report,
                "{:<16} {:>6} {:>11.4} {:>11.4} {:>9}",
                arch.name(),
                net,
                unified_miss,
                split_miss,
                winner
            );
            let _ = writeln!(
                csv,
                "{},{net},{unified_miss:.6},{split_miss:.6}",
                arch.name()
            );
        }
    }
    let _ = writeln!(
        report,
        "\n(a unified cache lets instructions and data share capacity\n\
         dynamically; the split halves eliminate I/D conflict misses —\n\
         which effect wins depends on the workload's I/D balance)"
    );
    Artifact {
        name: "split",
        report,
        csv: vec![("split.csv".into(), csv)],
    }
}

/// The full RISC II chip study (§2.3): size curve with the chip model,
/// remote-PC prediction accuracy and access-time reduction, and the
/// half-word code-compaction experiment.
pub fn run_risc2_chip(bench: &mut Workbench) -> Artifact {
    let len = bench.len();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "RISC II instruction-cache chip (§2.3), {len} refs\n"
    );

    // --- Remote program counter + access time, on the paper chip.
    let spec = riscii_instruction_workload();
    let trace: Vec<MemRef> = spec.generator(0).take(len).collect();
    let mut chip = RiscIiCache::paper_chip().expect("paper geometry is valid");
    for r in &trace {
        chip.fetch(r.address());
    }
    let _ = writeln!(report, "paper chip (512 B, direct-mapped, 8 B blocks):");
    let _ = writeln!(
        report,
        "  miss ratio                    : {:.4}",
        chip.miss_ratio()
    );
    let _ = writeln!(
        report,
        "  remote-PC prediction accuracy : {:.1}%   (paper: 89.9%)",
        chip.prediction_accuracy() * 100.0
    );
    let _ = writeln!(
        report,
        "  hit access-time reduction     : {:.1}%   (paper: 42.2%)",
        chip.hit_time_reduction() * 100.0
    );
    let _ = writeln!(
        report,
        "  mean access time              : {:.0} ns (250 ns nominal hit)",
        chip.mean_access_time()
    );

    // --- Code compaction at the paper's operating point.
    let base_profile = spec.profile().clone();
    let compacted = compact_profile(&base_profile, 0.4);
    let config = CacheConfig::builder()
        .net_size(512)
        .block_size(8)
        .sub_block_size(8)
        .associativity(1)
        .word_size(4)
        .build()
        .expect("valid geometry");
    let standard_miss = {
        let mut cache = SubBlockCache::new(config);
        cache.run(trace.iter().copied());
        cache.metrics().miss_ratio()
    };
    let compacted_trace: Vec<MemRef> = ProgramGenerator::new(compacted, 0x52_01)
        .take(len)
        .collect();
    let compacted_miss = {
        let mut cache = SubBlockCache::new(config);
        cache.run(compacted_trace.iter().copied());
        cache.metrics().miss_ratio()
    };
    let improvement = 1.0 - compacted_miss / standard_miss;
    let _ = writeln!(
        report,
        "\ncode compaction (40% half-word, 20% smaller code):"
    );
    let _ = writeln!(report, "  standard code miss ratio  : {standard_miss:.4}");
    let _ = writeln!(report, "  compacted code miss ratio : {compacted_miss:.4}");
    let _ = writeln!(
        report,
        "  miss-ratio improvement    : {:.1}%   (paper: 27.0%)",
        improvement * 100.0
    );

    // --- Size curve with the chip model (matches the risc2 artifact).
    let _ = writeln!(report, "\nstore-size curve (miss ratio):");
    let mut csv = String::from("store_bytes,miss_ratio,prediction_accuracy\n");
    for size in [512u64, 1024, 2048, 4096] {
        let mut chip = RiscIiCache::with_store(size, ChipTiming::paper()).expect("valid geometry");
        for r in &trace {
            chip.fetch(r.address());
        }
        let _ = writeln!(
            report,
            "  {size:>5} B : miss {:.4}, prediction {:.1}%",
            chip.miss_ratio(),
            chip.prediction_accuracy() * 100.0
        );
        let _ = writeln!(
            csv,
            "{size},{:.6},{:.6}",
            chip.miss_ratio(),
            chip.prediction_accuracy()
        );
    }
    Artifact {
        name: "risc2_chip",
        report,
        csv: vec![("risc2_chip.csv".into(), csv)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_artifact_covers_architectures() {
        let mut bench = Workbench::new(10_000);
        let a = run_writes(&mut bench);
        for arch in Architecture::ALL {
            assert!(a.report.contains(arch.name()));
        }
        assert_eq!(a.csv[0].1.lines().count(), 5);
    }

    #[test]
    fn split_artifact_has_both_net_sizes() {
        let mut bench = Workbench::new(10_000);
        let a = run_split(&mut bench);
        assert!(a.report.contains("512"));
        assert!(a.report.contains("1024"));
        // 4 architectures x 2 sizes + header.
        assert_eq!(a.csv[0].1.lines().count(), 9);
    }

    #[test]
    fn risc2_chip_reports_all_three_claims() {
        let mut bench = Workbench::new(30_000);
        let a = run_risc2_chip(&mut bench);
        assert!(a.report.contains("prediction accuracy"));
        assert!(a.report.contains("access-time reduction"));
        assert!(a.report.contains("compaction"));
    }

    #[test]
    fn split_never_panics_on_tiny_traces() {
        let mut bench = Workbench::new(500);
        let _ = run_split(&mut bench);
    }
}
