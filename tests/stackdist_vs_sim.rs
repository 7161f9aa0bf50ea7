//! Cross-validation of the simulation engines: the direct sub-block
//! simulator configured as a fully-associative conventional LRU cache must
//! agree *exactly* with the Mattson stack-distance analyzer, for every
//! capacity, on the same trace. Set-associative caches close a triangle:
//! the one-pass engine, the direct simulator and the per-set stack
//! analyzer must agree for every set count and associativity. This is the
//! strongest internal-consistency check in the workspace — the analyzers
//! share no code with either simulator.

use occache::core::{
    simulate, simulate_many, CacheConfig, LruStackAnalyzer, SetAssocLruAnalyzer,
    DEFAULT_RANDOM_SEED,
};
use occache::trace::TraceSource;
use occache::workloads::{Architecture, WorkloadSpec};

fn check(arch: Architecture, block: u64, capacities: &[u64], trace_len: usize) {
    let trace = WorkloadSpec::set_for(arch)[1]
        .generator(3)
        .collect_refs(trace_len);

    let mut analyzer = LruStackAnalyzer::new(block);
    for r in &trace {
        analyzer.access(r.address());
    }

    for &capacity_blocks in capacities {
        let config = CacheConfig::builder()
            .net_size(capacity_blocks * block)
            .block_size(block)
            .sub_block_size(block)
            .associativity(capacity_blocks) // one set: fully associative
            .word_size(arch.word_size())
            .build()
            .unwrap();
        assert_eq!(config.num_sets(), 1, "must be fully associative");
        let metrics = simulate(config, trace.iter().copied(), 0);
        // The analyzer counts every reference; the simulator's ratios
        // exclude writes, so compare raw miss *counts* via a write-free
        // re-check below — here all references are counted by running the
        // analyzer on the same stream and comparing totals.
        assert_eq!(
            analyzer.misses_at_capacity(capacity_blocks as usize),
            metrics.misses() + metrics.write_misses(),
            "{arch}, block {block}, capacity {capacity_blocks} blocks"
        );
    }
}

#[test]
fn analyzer_matches_simulator_pdp11_8_byte_blocks() {
    check(Architecture::Pdp11, 8, &[1, 2, 4, 8, 16, 32], 20_000);
}

#[test]
fn analyzer_matches_simulator_pdp11_32_byte_blocks() {
    check(Architecture::Pdp11, 32, &[2, 4, 8, 16], 20_000);
}

#[test]
fn analyzer_matches_simulator_vax_16_byte_blocks() {
    check(Architecture::Vax11, 16, &[1, 4, 16, 64], 20_000);
}

#[test]
fn analyzer_matches_simulator_s370() {
    check(Architecture::S370, 64, &[4, 16, 64], 20_000);
}

/// The stack-distance inclusion property: a larger LRU cache never misses
/// where a smaller one hits (on the same fully-associative stream).
#[test]
fn lru_inclusion_property() {
    let trace = WorkloadSpec::pdp11_simp().generator(9).collect_refs(30_000);
    let mut analyzer = LruStackAnalyzer::new(16);
    for r in &trace {
        analyzer.access(r.address());
    }
    let mut previous = u64::MAX;
    for capacity in 1..=128 {
        let misses = analyzer.misses_at_capacity(capacity);
        assert!(misses <= previous, "capacity {capacity}");
        previous = misses;
    }
}

/// The LRU oracle triangle over set-associative caches with sub-block =
/// block: for 1–64 sets and 1–16 ways, `simulate_many` equals
/// `simulate()` counter for counter, and both miss exactly where the
/// per-set stack analyzer says an LRU cache of that shape misses.
fn check_set_associative(arch: Architecture, block: u64, trace_len: usize) {
    let trace = WorkloadSpec::set_for(arch)[0]
        .generator(5)
        .collect_refs(trace_len);
    for sets in (0..=6).map(|k| 1u64 << k) {
        let mut analyzer = SetAssocLruAnalyzer::new(block, sets);
        for r in &trace {
            analyzer.access(r.address());
        }
        let configs: Vec<CacheConfig> = (0..=4)
            .map(|k| {
                let ways = 1u64 << k;
                CacheConfig::builder()
                    .net_size(sets * ways * block)
                    .block_size(block)
                    .sub_block_size(block)
                    .associativity(ways)
                    .word_size(arch.word_size())
                    .build()
                    .unwrap()
            })
            .collect();
        let engine = simulate_many(&configs, [trace.iter().copied()], 0, DEFAULT_RANDOM_SEED)
            .expect("every geometry runs on the one-pass engine");
        for (config, from_engine) in configs.iter().zip(&engine[0]) {
            assert_eq!(config.num_sets(), sets, "{config:?}");
            let ways = config.effective_associativity();
            let direct = simulate(*config, trace.iter().copied(), 0);
            assert_eq!(
                *from_engine, direct,
                "{arch}, block {block}: engine vs simulate() at {sets} set(s) x {ways} way(s)"
            );
            assert_eq!(
                analyzer.misses_at_ways(ways as usize),
                direct.misses() + direct.write_misses(),
                "{arch}, block {block}: analyzer vs simulate() at {sets} set(s) x {ways} way(s)"
            );
        }
    }
}

#[test]
fn set_associative_triangle_pdp11_8_byte_blocks() {
    check_set_associative(Architecture::Pdp11, 8, 20_000);
}

#[test]
fn set_associative_triangle_z8000_4_byte_blocks() {
    check_set_associative(Architecture::Z8000, 4, 20_000);
}

#[test]
fn set_associative_triangle_vax_32_byte_blocks() {
    check_set_associative(Architecture::Vax11, 32, 20_000);
}

/// The associativity study's geometry: 64 blocks of 16 bytes split into
/// sets × ways.
#[test]
fn set_associative_triangle_s370_16_byte_blocks() {
    check_set_associative(Architecture::S370, 16, 20_000);
}
