//! Width determinism: an engine slice's results are a pure function of
//! (config, traces, warmup, seed), never of the pool width. Re-running
//! the same grid — in the same process, at one worker or five, with the
//! traces of a single-unit slice sharded over the spare workers or not —
//! must produce bit-identical design points, equal supervision stats and
//! identical journal point keys. The Random policy's per-class RNG is
//! seeded from the fixed default seed, never from time, thread identity
//! or scheduling order, and sharded traces are folded back in trace
//! order. Anything less would make artifacts depend on the box they ran
//! on and make journal resume unsound.

use occache_core::{CacheConfig, EngineKind, ReplacementPolicy};
use occache_runtime::eval::{DesignPoint, Trace};
use occache_runtime::executor::{
    evaluate_results_supervised_with, SuperviseStats, SupervisorPolicy,
};
use occache_runtime::keys::{point_key, trace_fingerprint};
use occache_workloads::{Architecture, WorkloadSpec};
use proptest::prelude::*;

const POLICIES: [(ReplacementPolicy, EngineKind); 3] = [
    (ReplacementPolicy::Lru, EngineKind::Lru),
    (ReplacementPolicy::Fifo, EngineKind::Fifo),
    (ReplacementPolicy::Random, EngineKind::Random),
];

fn grid(net: u64, replacement: ReplacementPolicy) -> Vec<CacheConfig> {
    let mut configs = Vec::new();
    let mut block = 32u64;
    while block >= 2 {
        let mut sub = block.min(16);
        while sub >= 2 {
            configs.push(
                CacheConfig::builder()
                    .net_size(net)
                    .block_size(block)
                    .sub_block_size(sub)
                    .word_size(2)
                    .associativity(4)
                    .replacement(replacement)
                    .build()
                    .expect("valid geometry"),
            );
            sub /= 2;
        }
        block /= 2;
    }
    configs
}

/// `count` distinct traces of `len` references; trace `i` is streamed
/// from its generator when bit `i` of `streamed` is set, packed
/// otherwise.
fn traces(count: usize, len: usize, seed: u64, streamed: u32) -> Vec<Trace> {
    let specs = WorkloadSpec::set_for(Architecture::Pdp11);
    (0..count)
        .map(|i| {
            let spec = specs[i % specs.len()].clone();
            let seed = seed + i as u64;
            if streamed >> i & 1 == 1 {
                Trace::streamed(spec.name(), len, move || spec.generator(seed))
            } else {
                Trace::new(spec.name(), spec.generator(seed).take(len))
            }
        })
        .collect()
}

fn run(
    configs: &[CacheConfig],
    traces: &[Trace],
    warmup: usize,
    width: usize,
) -> (Vec<DesignPoint>, SuperviseStats) {
    let policy = SupervisorPolicy::disabled();
    let (results, stats) =
        evaluate_results_supervised_with(&policy, configs, traces, warmup, Some(width), |_, _| {});
    let points = results
        .into_iter()
        .map(|r| r.expect("stock grid evaluates cleanly"))
        .collect();
    (points, stats)
}

fn assert_same_bits(a: &DesignPoint, b: &DesignPoint, what: &str) {
    assert_eq!(a.config, b.config, "{what}: config order differs");
    for (label, x, y) in [
        ("miss_ratio", a.miss_ratio, b.miss_ratio),
        ("traffic_ratio", a.traffic_ratio, b.traffic_ratio),
        (
            "nibble_traffic_ratio",
            a.nibble_traffic_ratio,
            b.nibble_traffic_ratio,
        ),
        (
            "redundant_load_fraction",
            a.redundant_load_fraction,
            b.redundant_load_fraction,
        ),
    ] {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{}: {label} differs ({what})",
            a.config
        );
    }
    assert_eq!(a.gross_size, b.gross_size, "{what}: gross size differs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every policy's single-unit slice over 1–7 traces (odd counts and
    /// more shards than traces included), mixed packed and streamed, with
    /// a warm-up prefix, at pool widths 1 through 5.
    #[test]
    fn slices_are_bit_identical_at_every_width(
        seed in 0u64..1_000,
        len in 600usize..1_500,
        warmup in 1usize..400,
        streamed in 0u32..128,
    ) {
        for (replacement, kind) in POLICIES {
            let configs = grid(256, replacement);
            for count in 1..=7 {
                let traces = traces(count, len, seed, streamed);
                let (serial, stats) = run(&configs, &traces, warmup, 1);
                // Every point must ride the policy's engine: the widths
                // only differ in how that engine's traces are spread.
                prop_assert_eq!(stats.direct_points, 0);
                prop_assert_eq!(stats.engine_points[kind.index()], configs.len());
                let (again, again_stats) = run(&configs, &traces, warmup, 1);
                prop_assert_eq!(again_stats, stats);
                for (a, b) in serial.iter().zip(&again) {
                    assert_same_bits(a, b, "two identical serial runs");
                }
                for width in 2..=5 {
                    let (wide, wide_stats) = run(&configs, &traces, warmup, width);
                    prop_assert_eq!(wide_stats, stats, "stats at width {} of {} traces", width, count);
                    let what = format!("{replacement:?}, {count} traces, width 1 vs {width}");
                    for (a, b) in serial.iter().zip(&wide) {
                        assert_same_bits(a, b, &what);
                    }
                }
            }
        }
    }
}

#[test]
fn random_point_keys_are_stable_and_policy_distinct() {
    // The journal identity of every Random point is stable: same key on
    // recomputation (resume would otherwise re-simulate or, worse,
    // mis-attribute), and distinct from the LRU twin's key (the seed
    // fold plus the policy in the config rendering).
    let spec = WorkloadSpec::pdp11_ed();
    let traces = vec![Trace::new(spec.name(), spec.generator(0).take(3_000))];
    let fingerprint = trace_fingerprint(&traces);
    for config in &grid(256, ReplacementPolicy::Random) {
        assert_eq!(
            point_key(config, fingerprint, 0),
            point_key(config, fingerprint, 0)
        );
        let lru_twin = CacheConfig::builder()
            .net_size(config.net_size())
            .block_size(config.block_size())
            .sub_block_size(config.sub_block_size())
            .word_size(config.word_size())
            .associativity(config.associativity())
            .build()
            .expect("valid geometry");
        assert_ne!(
            point_key(config, fingerprint, 0),
            point_key(&lru_twin, fingerprint, 0),
            "{config}: Random and LRU twins must never share a journal key"
        );
    }
}
