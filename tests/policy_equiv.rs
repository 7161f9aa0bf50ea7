//! Property-based equivalence for FIFO and Random slices: the one-pass
//! engine must produce metrics **exactly equal** (every counter, hence
//! every derived ratio) to the direct simulator run once per
//! configuration and trace — across random geometries (including
//! sub-block < block), one to three random reference streams of
//! independent lengths, random warm-up prefixes and, for Random, random
//! seeds.
//!
//! Sibling of `tests/multisim_equiv.rs`, which pins the same property
//! for LRU slices.

mod common;

use proptest::prelude::*;

use occache::core::{ReplacementPolicy, DEFAULT_RANDOM_SEED};

use common::{arb_slice, arb_traces, assert_engine_matches_direct};

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
