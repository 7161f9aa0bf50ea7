//! Property-based equivalence: the one-pass engine on LRU slices must
//! produce metrics **exactly equal** (every counter, hence every derived
//! ratio) to running the direct simulator once per configuration and
//! trace — across random geometries (including sub-block < block), one
//! to three random reference streams of independent lengths (crossing
//! engine chunk boundaries and ragged pair tails) and random warm-up
//! prefixes.

mod common;

use proptest::prelude::*;

use occache::core::{ReplacementPolicy, DEFAULT_RANDOM_SEED};

use common::{arb_slice, arb_traces, assert_engine_matches_direct};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cold-start equality for every size in the slice and every trace.
    #[test]
    fn engine_equals_direct_simulation(
        configs in arb_slice(ReplacementPolicy::Lru),
        traces in arb_traces(),
    ) {
        assert_engine_matches_direct(&configs, &traces, 0, DEFAULT_RANDOM_SEED);
    }

    /// The same equality under the warm-start discipline: an arbitrary
    /// warm-up prefix is simulated but excluded from the counters, and
    /// may outlast some traces of a pair.
    #[test]
    fn engine_equals_direct_simulation_with_warmup(
        configs in arb_slice(ReplacementPolicy::Lru),
        traces in arb_traces(),
        warmup in 0usize..=5_000,
    ) {
        assert_engine_matches_direct(&configs, &traces, warmup, DEFAULT_RANDOM_SEED);
    }
}
