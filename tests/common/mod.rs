//! Strategies and the oracle check shared by the engine-equivalence
//! property tests (`multisim_equiv.rs`, `policy_equiv.rs`).

use proptest::prelude::*;

use occache::core::{
    simulate_many, simulate_seeded, CacheConfig, FetchPolicy, ReplacementPolicy, WritePolicy,
};
use occache::trace::{AccessKind, Address, MemRef};

/// Longest drawn trace: past two 4096-reference engine chunks, so
/// chunk boundaries and ragged pair tails are in the net.
const MAX_TRACE_LEN: usize = 9_000;

/// An arbitrary engine-eligible slice of the given replacement policy:
/// one block size at up to four net sizes with varying sub-block size,
/// associativity and word size, each config drawing its fetch policy
/// (demand, redundant or optimized load-forward) and write policy
/// (write-through or copy-back) independently, so plain and extended
/// residency classes mix within one slice. The planner never mixes
/// replacement policies in a slice, so neither does the generator.
pub fn arb_slice(policy: ReplacementPolicy) -> impl Strategy<Value = Vec<CacheConfig>> {
    (
        0u32..=4, // block 2..32
        proptest::collection::vec(
            (0u32..=4, 0u32..=3, 0u32..=1, 0u32..=4, 0usize..3, 0usize..2),
            4,
        ),
        1usize..=4, // how many of the four size candidates to keep
    )
        .prop_filter_map(
            "slice must contain at least one valid power-of-two geometry",
            move |(block_exp, sizes, take)| {
                let block = 2u64 << block_exp;
                let configs: Vec<CacheConfig> = sizes
                    .into_iter()
                    .take(take)
                    .filter_map(|(net_exp, ways_exp, word_exp, sub_exp, fetch, write)| {
                        CacheConfig::builder()
                            .net_size(32u64 << net_exp) // 32..512
                            .block_size(block)
                            .sub_block_size((2u64 << sub_exp).min(block)) // 2..block
                            .associativity(1u64 << ways_exp) // 1..8
                            .word_size(2u64 << word_exp) // 2 or 4
                            .replacement(policy)
                            .fetch(
                                [
                                    FetchPolicy::Demand,
                                    FetchPolicy::LOAD_FORWARD,
                                    FetchPolicy::LoadForward {
                                        remember_valid: true,
                                    },
                                ][fetch],
                            )
                            .write_policy([WritePolicy::WriteThrough, WritePolicy::CopyBack][write])
                            .build()
                            .ok()
                            .filter(occache::core::engine_supports)
                    })
                    .collect();
                (!configs.is_empty()).then_some(configs)
            },
        )
}

/// Ways a drawn residency class may have: every specialised width plus
/// 16 (generic only), with 4 weighted up so adjacent 4-way classes —
/// the interleaved pairs — come up often.
const CLASS_WAYS: [u64; 7] = [1, 2, 4, 4, 4, 8, 16];

/// The fetch and write policies an extended member may draw: every
/// engine combination except plain demand + write-through.
const EXTENDED_RULES: [(FetchPolicy, WritePolicy); 5] = [
    (FetchPolicy::Demand, WritePolicy::CopyBack),
    (FetchPolicy::LOAD_FORWARD, WritePolicy::WriteThrough),
    (FetchPolicy::LOAD_FORWARD, WritePolicy::CopyBack),
    (
        FetchPolicy::LoadForward {
            remember_valid: true,
        },
        WritePolicy::WriteThrough,
    ),
    (
        FetchPolicy::LoadForward {
            remember_valid: true,
        },
        WritePolicy::CopyBack,
    ),
];

/// An arbitrary slice of the given replacement policy built class by
/// class, so that every shape the engine's runners dispatch on is in the
/// net: one block size of 2 to 128 bytes (up to 64 sub-blocks per block,
/// past the specialised runners' 32) and one to three residency classes.
/// Each class has 1, 2, 4, 8 or 16 ways over 1 to 16 sets, and either 1
/// to 7 plain members (demand fetch, write-through) or 1 to 3 extended
/// ones (load-forward or copy-back); members differ in sub-block and
/// word size. That reaches every specialised (ways, members) shape, the
/// interleaved 4-way class pairs, and the generic fallback for 16 ways,
/// 64 sub-blocks and member counts past the shape table.
pub fn arb_shaped_slice(policy: ReplacementPolicy) -> impl Strategy<Value = Vec<CacheConfig>> {
    (
        0u32..=6, // block 2..128
        proptest::collection::vec(
            (
                0usize..CLASS_WAYS.len(),
                0u32..=4,   // sets 1..16
                0usize..2,  // plain or extended
                1usize..=7, // members
                proptest::collection::vec((0u32..=6, 0u32..=1, 0usize..EXTENDED_RULES.len()), 7),
            ),
            3,
        ),
        1usize..=3, // how many of the three classes to keep
    )
        .prop_map(move |(block_exp, classes, take)| {
            let block = 2u64 << block_exp;
            let mut configs = Vec::new();
            for (ways, sets_exp, extended, members, specs) in classes.into_iter().take(take) {
                let ways = CLASS_WAYS[ways];
                let members = if extended == 1 {
                    1 + (members - 1) % 3
                } else {
                    members
                };
                for (sub_exp, word_exp, rule) in specs.into_iter().take(members) {
                    let sub = (2u64 << sub_exp).min(block);
                    let (fetch, write) = if extended == 1 {
                        EXTENDED_RULES[rule]
                    } else {
                        (FetchPolicy::Demand, WritePolicy::WriteThrough)
                    };
                    let config = CacheConfig::builder()
                        .net_size((block * ways) << sets_exp)
                        .block_size(block)
                        .sub_block_size(sub)
                        .associativity(ways)
                        .word_size((2u64 << word_exp).min(sub))
                        .replacement(policy)
                        .fetch(fetch)
                        .write_policy(write)
                        .build()
                        .expect("drawn geometries are valid");
                    assert!(occache::core::engine_supports(&config), "{config}");
                    configs.push(config);
                }
            }
            configs
        })
}

/// An arbitrary 2-byte-aligned reference stream over a 32 KB space, of
/// arbitrary length in `0..=MAX_TRACE_LEN`.
fn arb_trace() -> impl Strategy<Value = Vec<MemRef>> {
    (
        proptest::collection::vec((0u64..16_384, 0usize..3), MAX_TRACE_LEN),
        0..=MAX_TRACE_LEN,
    )
        .prop_map(|(raw, len)| {
            raw.into_iter()
                .take(len)
                .map(|(word, kind)| {
                    let kind = [
                        AccessKind::InstrFetch,
                        AccessKind::DataRead,
                        AccessKind::DataWrite,
                    ][kind];
                    MemRef::new(Address::new(word * 2), kind)
                })
                .collect()
        })
}

/// One to three arbitrary traces, lengths drawn independently — two of
/// them run as an engine pair, a third alone.
pub fn arb_traces() -> impl Strategy<Value = Vec<Vec<MemRef>>> {
    (1usize..=3, arb_trace(), arb_trace(), arb_trace()).prop_map(|(n, a, b, c)| {
        let mut traces = vec![a, b, c];
        traces.truncate(n);
        traces
    })
}

/// Full `Metrics` equality (the type derives `Eq`, so this covers every
/// counter: accesses, misses, fetch bytes, sub-block and redundant
/// loads, write-through and write-back bytes, evictions and
/// unreferenced-sub-block statistics) between one `simulate_many` call
/// over all `traces` and `simulate_seeded` per trace and configuration.
pub fn assert_engine_matches_direct(
    configs: &[CacheConfig],
    traces: &[Vec<MemRef>],
    warmup: usize,
    seed: u64,
) {
    let all = simulate_many(
        configs,
        traces.iter().map(|t| t.iter().copied()),
        warmup,
        seed,
    )
    .expect("arb_slice only builds engine-eligible slices");
    prop_assert_eq!(all.len(), traces.len());
    for (t, (trace, per_config)) in traces.iter().zip(&all).enumerate() {
        for (config, metrics) in configs.iter().zip(per_config) {
            let direct = simulate_seeded(*config, trace.iter().copied(), warmup, seed);
            prop_assert_eq!(
                *metrics,
                direct,
                "{} trace {} (len {}) warmup {} seed {}",
                config,
                t,
                trace.len(),
                warmup,
                seed
            );
        }
    }
}
