//! Extension studies: the directions §3.1 explicitly defers to "further
//! studies" (write-through vs copy-back, split instruction/data caches),
//! the full RISC II chip evaluation of §2.3 (remote program counter and
//! code compaction), and three studies that run only when named: §2.2's
//! prefetching, §3.3's task-switching bias and the associativity curve
//! behind the paper's 4-way choice.

use std::fmt::Write as _;

use occache_core::{
    CacheConfig, FetchPolicy, Metrics, SetAssocLruAnalyzer, SubBlockCache, WritePolicy,
};
use occache_riscii::{compact_profile, ChipTiming, RiscIiCache};
use occache_runtime::executor::evaluate_metrics;
use occache_trace::{AccessKind, MemRef, TraceSource};
use occache_workloads::{
    riscii_instruction_workload, Architecture, Multiprogram, ProgramGenerator, WorkloadSpec,
};

use crate::runs::{evaluate_each, Artifact, Workbench};
use crate::sweep::Trace;

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
        let configs = [WritePolicy::WriteThrough, WritePolicy::CopyBack].map(|policy| {
            CacheConfig::builder()
                .net_size(1024)
                .block_size(16)
                .sub_block_size(8)
                .word_size(word)
                .write_policy(policy)
                .build()
                .expect("valid geometry")
        });
        // Both policies share one engine pass per trace on the pool.
        let [through, back] =
            <[Vec<Metrics>; 2]>::try_from(evaluate_metrics(&configs, traces, warmup))
                .expect("one metrics row per config");
        let denom = |m: &Metrics| (m.accesses() * word) as f64;
        let mut fill = 0.0;
        let mut wt_total = 0.0;
        let mut cb_total = 0.0;
        for m in &through {
            fill += m.traffic_ratio();
            wt_total += (m.fetch_bytes() + m.write_through_bytes()) as f64 / denom(m);
        }
        for m in &back {
            cb_total += (m.fetch_bytes() + m.write_back_bytes()) as f64 / denom(m);
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
    let nets = [512u64, 1024];
    for arch in Architecture::ALL {
        let word = arch.word_size();
        let config = |net| {
            CacheConfig::builder()
                .net_size(net)
                .block_size(16)
                .sub_block_size(8)
                .word_size(word)
                .build()
                .expect("valid geometry")
        };
        let traces = bench.arch_traces(arch);
        let unified = evaluate_each(&nets, traces, 0, config);
        let split = split_miss_ratios(&nets.map(|net| config(net / 2)), traces);
        for ((net, unified), split_miss) in unified.into_iter().zip(split) {
            let unified_miss = unified.miss_ratio;
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

/// Cold-start miss ratio of a split I/D cache, per half config: both
/// halves use the config, each trace's instruction fetches go to one
/// and its data references to the other, and the trace's ratio is
/// combined misses over combined accesses (0 when it has none), as
/// [`occache_core::SplitCache::miss_ratio`] computes it. Returns the
/// trace-order mean per config. The halves never interfere, so each is
/// its own trace: every trace's instruction-only and data-only views
/// ride one pool call.
pub(crate) fn split_miss_ratios(halves: &[CacheConfig], traces: &[Trace]) -> Vec<f64> {
    let views: Vec<Trace> = traces
        .iter()
        .flat_map(|t| {
            [
                t.filtered(format!("{}/I", t.name), |k| !k.is_data()),
                t.filtered(format!("{}/D", t.name), AccessKind::is_data),
            ]
        })
        .collect();
    evaluate_metrics(halves, &views, 0)
        .iter()
        .map(|per_view| {
            let sum: f64 = per_view
                .chunks(2)
                .map(|pair| {
                    let accesses: u64 = pair.iter().map(Metrics::accesses).sum();
                    let misses: u64 = pair.iter().map(Metrics::misses).sum();
                    if accesses == 0 {
                        0.0
                    } else {
                        misses as f64 / accesses as f64
                    }
                })
                .sum();
            sum / traces.len() as f64
        })
        .collect()
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

/// Prefetch study (§2.2's "smart cache" direction).
///
/// §2.2 proposes caches whose "special-purpose logic can examine reference
/// patterns to prefetch instruction codes and operands", warning (after
/// Smith \[11\]) that "effective prefetching reduces latency at a cost of
/// increased memory traffic and at a risk of memory pollution". This
/// study quantifies all three quantities for demand fetch, sequential
/// prefetch-on-miss, tagged prefetch, and load-forward, at the 1024-byte
/// 16,4 design point.
pub fn run_prefetch(bench: &mut Workbench) -> Artifact {
    let len = bench.len();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Prefetch policies (extension; §2.2 smart cache): 1024-byte cache,\n\
         16-byte blocks, 4-byte sub-blocks, {len} refs/trace\n"
    );
    let policies: [(&str, FetchPolicy); 4] = [
        ("demand", FetchPolicy::Demand),
        (
            "prefetch-on-miss",
            FetchPolicy::PrefetchNext { tagged: false },
        ),
        (
            "tagged-prefetch",
            FetchPolicy::PrefetchNext { tagged: true },
        ),
        ("load-forward", FetchPolicy::LOAD_FORWARD),
    ];
    let mut csv = String::from("arch,policy,miss_ratio,traffic_ratio,pollution\n");
    let _ = writeln!(
        report,
        "{:<16} {:<18} {:>8} {:>9} {:>10}",
        "architecture", "policy", "miss", "traffic", "pollution"
    );
    for arch in Architecture::ALL {
        let word = arch.word_size();
        if word > 4 {
            continue;
        }
        let warmup = bench.warmup_for(arch);
        let traces = bench.arch_traces(arch);
        let configs = policies.map(|(_, fetch)| {
            CacheConfig::builder()
                .net_size(1024)
                .block_size(16)
                .sub_block_size(4)
                .word_size(word)
                .fetch(fetch)
                .build()
                .expect("valid geometry")
        });
        let rows = evaluate_metrics(&configs, traces, warmup);
        for ((name, _), per_trace) in policies.iter().zip(&rows) {
            let mut miss = 0.0;
            let mut traffic = 0.0;
            let mut pollution = 0.0;
            for m in per_trace {
                miss += m.miss_ratio();
                traffic += m.traffic_ratio();
                pollution += m.prefetch_pollution();
            }
            let n = traces.len() as f64;
            let _ = writeln!(
                report,
                "{:<16} {:<18} {:>8.4} {:>9.4} {:>9.1}%",
                arch.name(),
                name,
                miss / n,
                traffic / n,
                pollution / n * 100.0
            );
            let _ = writeln!(
                csv,
                "{},{name},{:.6},{:.6},{:.6}",
                arch.name(),
                miss / n,
                traffic / n,
                pollution / n
            );
        }
        let _ = writeln!(report);
    }
    let _ = writeln!(
        report,
        "(prefetching buys misses with traffic; pollution is the fraction of\n\
         prefetched sub-blocks evicted unused — Smith's risk, measured)"
    );
    Artifact {
        name: "prefetch",
        report,
        csv: vec![("prefetch.csv".into(), csv)],
    }
}

/// Task-switching study: quantifying the bias §3.3 concedes.
///
/// The paper ran each trace "without context switches" and argued the
/// omission "will bias our estimated performance upward, although the
/// small sizes of the caches studied make this effect minor". This
/// study interleaves four PDP-11 programs round-robin at several quanta
/// and measures the miss-ratio inflation per cache size — showing the
/// claim is right for on-chip sizes and where it stops being right.
pub fn run_task_switch(bench: &mut Workbench) -> Artifact {
    let len = bench.len();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Task switching (the §3.3 omission, quantified): four PDP-11 programs,\n\
         round-robin, 16,8 geometry where it fits, {len} total refs per run\n"
    );
    let specs = [
        WorkloadSpec::pdp11_ed(),
        WorkloadSpec::pdp11_opsys(),
        WorkloadSpec::pdp11_plot(),
        WorkloadSpec::pdp11_simp(),
    ];
    // Baseline: the paper's discipline — each program alone, averaged.
    let solo_traces: Vec<Trace> = specs
        .iter()
        .map(|s| Trace::new(s.name(), s.generator(0).collect_refs(len / specs.len())))
        .collect();
    let quanta = [5_000usize, 20_000, 100_000];
    let mixed_traces: Vec<Trace> = quanta
        .iter()
        .map(|&quantum| {
            let refs = Multiprogram::from_specs(&specs, quantum).collect_refs(len);
            Trace::new(format!("q={quantum}"), refs)
        })
        .collect();
    let configs: Vec<CacheConfig> = [64u64, 256, 1024, 4096, 16_384]
        .into_iter()
        .map(|net| {
            let block = 16.min(net / 4);
            CacheConfig::builder()
                .net_size(net)
                .block_size(block)
                .sub_block_size(8.min(block))
                .word_size(2)
                .build()
                .expect("valid geometry")
        })
        .collect();
    let solo_rows = evaluate_metrics(&configs, &solo_traces, 0);
    let mixed_rows = evaluate_metrics(&configs, &mixed_traces, 0);

    let mut csv = String::from("net,quantum,miss_ratio,solo_miss_ratio,inflation\n");
    let _ = writeln!(
        report,
        "{:>6} {:>10} | {:>10} {:>10} {:>10} {:>10}",
        "net", "solo", "q=5k", "q=20k", "q=100k", "worst infl."
    );
    for ((config, solo_row), mixed_row) in configs.iter().zip(&solo_rows).zip(&mixed_rows) {
        let net = config.net_size();
        let solo: f64 = solo_row.iter().map(Metrics::miss_ratio).sum::<f64>() / specs.len() as f64;
        let _ = write!(report, "{net:>6} {solo:>10.4} |");
        let mut worst: f64 = 0.0;
        for (quantum, m) in quanta.iter().zip(mixed_row) {
            let miss = m.miss_ratio();
            let inflation = miss / solo - 1.0;
            worst = worst.max(inflation);
            let _ = write!(report, " {miss:>10.4}");
            let _ = writeln!(csv, "{net},{quantum},{miss:.6},{solo:.6},{inflation:.4}");
        }
        let _ = writeln!(report, " {:>9.1}%", worst * 100.0);
    }
    let _ = writeln!(
        report,
        "\n(the paper's claim holds: at on-chip sizes the inflation is small\n\
         because each quantum rebuilds a tiny working set quickly; at\n\
         mainframe sizes — 16 KB — frequent switching costs real misses)"
    );
    Artifact {
        name: "task_switch",
        report,
        csv: vec![("task_switch.csv".into(), csv)],
    }
}

/// Associativity curves via single-pass Mattson analysis.
///
/// The paper fixes 4-way associativity citing Smith \[15\] (4-way ≈ fully
/// associative) and Strecker (little gain past 4). This study produces
/// the full curve for every architecture at a fixed 1024-byte capacity of
/// 16-byte blocks — 64 blocks split into sets × ways — from one
/// [`SetAssocLruAnalyzer`] pass per set count, the set-associative
/// generalisation of the stack-distance method. `tests/stackdist_vs_sim.rs`
/// holds the analyzer to the direct simulator at this geometry.
pub fn run_assoc_curves(bench: &mut Workbench) -> Artifact {
    const BLOCK: u64 = 16;
    const BLOCKS: u64 = 64;
    let len = bench.len();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Associativity at fixed 1024-byte capacity (single-pass Mattson, {len} refs/trace)\n"
    );
    let mut csv = String::from("arch,ways,sets,miss_ratio\n");
    for arch in Architecture::ALL {
        let traces = bench.arch_traces(arch);
        let _ = write!(report, "{:<16}", arch.name());
        for ways in [1u64, 2, 4, 8, 16] {
            let sets = BLOCKS / ways;
            let miss: f64 = traces
                .iter()
                .map(|trace| {
                    let mut an = SetAssocLruAnalyzer::new(BLOCK, sets);
                    for r in trace.iter() {
                        an.access(r.address());
                    }
                    an.miss_ratio_at_ways(ways as usize)
                })
                .sum::<f64>()
                / traces.len() as f64;
            let _ = write!(report, "  {ways}-way {miss:.4}");
            let _ = writeln!(csv, "{},{ways},{sets},{miss:.6}", arch.name());
        }
        let _ = writeln!(report);
    }
    let _ = writeln!(
        report,
        "\n(each point costs one pass; the direct simulator agrees exactly)"
    );
    Artifact {
        name: "assoc_curves",
        report,
        csv: vec![("assoc_curves.csv".into(), csv)],
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

    /// The oracle for the pooled split column: one direct
    /// [`occache_core::SplitCache`] per trace, averaged in trace order.
    fn split_cache_miss(half: CacheConfig, traces: &[Trace]) -> f64 {
        let mut sum = 0.0;
        for trace in traces {
            let mut split = occache_core::SplitCache::new(half, half);
            split.run(trace.iter());
            sum += split.miss_ratio();
        }
        sum / traces.len() as f64
    }

    fn geometry(net: u64, word: u64) -> CacheConfig {
        CacheConfig::builder()
            .net_size(net)
            .block_size(16)
            .sub_block_size(8)
            .word_size(word)
            .build()
            .expect("valid geometry")
    }

    #[test]
    fn split_csv_matches_the_split_cache_oracle_bit_for_bit() {
        let mut bench = Workbench::new(4_000);
        let artifact = run_split(&mut bench);
        let mut expected = String::from("arch,net,unified_miss,split_miss\n");
        for arch in Architecture::ALL {
            let word = arch.word_size();
            let traces = bench.arch_traces(arch);
            let pooled = split_miss_ratios(&[geometry(256, word), geometry(512, word)], traces);
            for (net, pooled) in [512u64, 1024].into_iter().zip(pooled) {
                let oracle = split_cache_miss(geometry(net / 2, word), traces);
                assert_eq!(pooled.to_bits(), oracle.to_bits(), "{} {net}", arch.name());
                let unified =
                    crate::sweep::evaluate_point(geometry(net, word), traces, 0).miss_ratio;
                let _ = writeln!(expected, "{},{net},{unified:.6},{oracle:.6}", arch.name());
            }
        }
        assert_eq!(artifact.csv[0].1, expected);
    }

    #[test]
    fn split_handles_an_empty_half() {
        let half = geometry(128, 2);
        let instr = Trace::new("instr", (0..300u64).map(|i| MemRef::ifetch(i * 6 % 700)));
        let data = Trace::new(
            "data",
            (0..300u64).map(|i| match i % 3 {
                0 => MemRef::write(i * 10 % 900),
                _ => MemRef::read(i * 14 % 1100),
            }),
        );
        let empty = Trace::new("empty", std::iter::empty());
        let mixed = Trace::new(
            "mixed",
            (0..300u64).map(|i| {
                if i % 2 == 0 {
                    MemRef::ifetch(i)
                } else {
                    MemRef::read(i * 4)
                }
            }),
        );
        let sets = [
            vec![instr.clone()],
            vec![data.clone()],
            vec![empty.clone()],
            vec![instr, empty, data, mixed],
        ];
        for set in &sets {
            let pooled = split_miss_ratios(&[half], set)[0];
            assert_eq!(pooled.to_bits(), split_cache_miss(half, set).to_bits());
        }
        // SplitCache's rule: a trace with no accesses contributes 0.
        assert_eq!(split_miss_ratios(&[half], &sets[2])[0], 0.0);
    }
}
