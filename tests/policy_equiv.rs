//! Property-based equivalence for FIFO and Random slices: the one-pass
//! engine must produce metrics **exactly equal** (every counter, hence
//! every derived ratio) to the direct simulator run once per
//! configuration and trace — across random geometries (including
//! sub-block < block), one to three random reference streams of
//! independent lengths, random warm-up prefixes and, for Random, random
//! seeds.
//!
//! Sibling of `tests/multisim_equiv.rs`, which pins the same property
//! for LRU slices. FIFO and Random share one fixed-way runner; the
//! shaped-slice properties drive it through every specialised shape, the
//! interleaved 4-way class pairs and the generic fallback, and
//! `shaped_slices_reach_every_runner_shape` checks the strategy really
//! gets there.

mod common;

use proptest::prelude::*;

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::SeedableRng;

use occache::core::{
    CacheConfig, FetchPolicy, ReplacementPolicy, WritePolicy, DEFAULT_RANDOM_SEED,
};

use common::{arb_shaped_slice, arb_slice, arb_traces, assert_engine_matches_direct};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// FIFO, arbitrary warm-up prefix included (0 keeps the cold-start
    /// case in the net).
    #[test]
    fn fifo_engine_equals_direct_simulation(
        configs in arb_slice(ReplacementPolicy::Fifo),
        traces in arb_traces(),
        warmup in 0usize..=5_000,
    ) {
        assert_engine_matches_direct(&configs, &traces, warmup, DEFAULT_RANDOM_SEED);
    }

    /// Random under the default seed: the per-class RNG replays exactly
    /// the draw sequence every member cache sees in its own direct
    /// simulation.
    #[test]
    fn random_engine_equals_direct_simulation(
        configs in arb_slice(ReplacementPolicy::Random),
        traces in arb_traces(),
        warmup in 0usize..=5_000,
    ) {
        assert_engine_matches_direct(&configs, &traces, warmup, DEFAULT_RANDOM_SEED);
    }

    /// FIFO over slices built class by class (see `arb_shaped_slice`),
    /// warm-up included.
    #[test]
    fn fifo_engine_equals_direct_simulation_on_every_shape(
        configs in arb_shaped_slice(ReplacementPolicy::Fifo),
        traces in arb_traces(),
        warmup in 0usize..=5_000,
    ) {
        assert_engine_matches_direct(&configs, &traces, warmup, DEFAULT_RANDOM_SEED);
    }

    /// Random over slices built class by class, under an arbitrary seed:
    /// paired classes must each replay their own draw sequence.
    #[test]
    fn random_engine_equals_direct_simulation_on_every_shape(
        configs in arb_shaped_slice(ReplacementPolicy::Random),
        traces in arb_traces(),
        warmup in 0usize..=5_000,
        seed in 0u64..u64::MAX,
    ) {
        assert_engine_matches_direct(&configs, &traces, warmup, seed);
    }

    /// The same equality under an arbitrary explicit seed, proving the
    /// seed threads identically through both paths (the property
    /// quantifies over the seed, not one blessed constant).
    #[test]
    fn random_engine_equals_seeded_direct_simulation(
        configs in arb_slice(ReplacementPolicy::Random),
        traces in arb_traces(),
        warmup in 0usize..=5_000,
        seed in 0u64..u64::MAX,
    ) {
        assert_engine_matches_direct(&configs, &traces, warmup, seed);
    }
}

/// A residency class as the engine forms it: (block size, set count,
/// ways, extended sub-block rule).
type ClassKey = (u64, u64, u64, bool);

/// The residency classes `configs` form, in the engine's order (first
/// appearance, plain classes before extended ones), with their members.
fn classes_of(configs: &[CacheConfig]) -> Vec<(ClassKey, Vec<CacheConfig>)> {
    let mut classes: Vec<(ClassKey, Vec<CacheConfig>)> = Vec::new();
    for &c in configs {
        let extended =
            c.fetch() != FetchPolicy::Demand || c.write_policy() != WritePolicy::WriteThrough;
        let key = (
            c.block_size(),
            c.num_sets(),
            c.effective_associativity(),
            extended,
        );
        match classes.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(c),
            None => classes.push((key, vec![c])),
        }
    }
    classes.sort_by_key(|((_, _, _, extended), _)| *extended);
    classes
}

/// Sub-blocks per block at the class's finest member grain: the
/// specialised runners take at most 32.
fn slots(members: &[CacheConfig]) -> u64 {
    members
        .iter()
        .map(CacheConfig::sub_blocks_per_block)
        .max()
        .unwrap_or(1)
}

#[test]
fn shaped_slices_reach_every_runner_shape() {
    let strategy = arb_shaped_slice(ReplacementPolicy::Fifo);
    let mut rng = StdRng::seed_from_u64(0);
    let mut shapes = BTreeSet::new();
    let (mut pairs, mut sixteen_way, mut wide_blocks) = (0, 0, 0);
    for _ in 0..2_000 {
        let configs = strategy
            .generate(&mut rng)
            .expect("the strategy never rejects");
        let classes = classes_of(&configs);
        for ((_, _, ways, extended), members) in &classes {
            if slots(members) <= 32 {
                shapes.insert((*ways, *extended, members.len()));
            } else {
                wide_blocks += 1;
            }
            sixteen_way += usize::from(*ways == 16);
        }
        pairs += classes
            .windows(2)
            .filter(|w| {
                let ((_, _, ways_a, ext_a), members_a) = &w[0];
                let ((_, _, ways_b, ext_b), members_b) = &w[1];
                *ways_a == 4
                    && *ways_b == 4
                    && ext_a == ext_b
                    && slots(members_a) <= 32
                    && slots(members_b) <= 32
            })
            .count();
    }
    for ways in [1, 2, 4, 8] {
        for members in 1..=6 {
            assert!(
                shapes.contains(&(ways, false, members)),
                "{ways}-way, {members} plain"
            );
        }
        for members in 1..=2 {
            assert!(
                shapes.contains(&(ways, true, members)),
                "{ways}-way, {members} extended"
            );
        }
    }
    assert!(pairs > 0, "no adjacent 4-way class pair");
    assert!(sixteen_way > 0, "no 16-way class");
    assert!(wide_blocks > 0, "no class past 32 sub-blocks per block");
}
