#![warn(missing_docs)]

//! # occache-core — sub-block (sector) cache simulation
//!
//! The primary contribution of Hill & Smith's ISCA 1984 paper is an
//! evaluation of *sub-block placement* for small on-chip caches: address
//! tags cover a **block**, but memory transfers move smaller **sub-blocks**,
//! each with its own valid bit. This crate implements that cache model and
//! everything needed to evaluate it:
//!
//! * [`CacheConfig`] — the Table 1 design space (net size, block size,
//!   sub-block size, associativity, replacement, fetch policy) with
//!   validation and the paper's gross-size (tags + valid bits + data)
//!   arithmetic,
//! * [`SubBlockCache`] — the simulator, including the paper's
//!   *load-forward* prefetch (§4.4) in both the redundant and optimized
//!   variants,
//! * [`Metrics`] — miss ratio and traffic ratio exactly as the paper
//!   defines them (writes excluded), plus warm-start support and the
//!   "sub-blocks never referenced" eviction statistic,
//! * [`BusModel`] — the §4.3 `a + b·w` bus-cost models and scaled traffic
//!   ratios (nibble-mode memories, transactional busses),
//! * [`LruStackAnalyzer`] — single-pass Mattson stack-distance analysis,
//! * [`simulate_many`] — the one-pass engine ([`multisim`]): one pass
//!   per trace yields bit-identical metrics for every cache size of a
//!   design slice — demand or load-forward fetch, write-through or
//!   copy-back — under LRU, FIFO or Random replacement,
//! * [`SplitCache`] — the split I/D extension flagged as further work.
//!
//! # Example: the paper's miss/traffic trade-off
//!
//! ```
//! use occache_core::{CacheConfig, SubBlockCache};
//! use occache_trace::MemRef;
//!
//! // One 1024-byte cache, 32-byte blocks — vary the sub-block size.
//! let trace: Vec<MemRef> = (0..20_000u64)
//!     .map(|i| MemRef::read((i * 7) % 4096 * 2))
//!     .collect();
//! let mut results = Vec::new();
//! for sub in [2u64, 8, 32] {
//!     let config = CacheConfig::builder()
//!         .net_size(1024)
//!         .block_size(32)
//!         .sub_block_size(sub)
//!         .word_size(2)
//!         .build()?;
//!     let mut cache = SubBlockCache::new(config);
//!     cache.run(trace.iter().copied());
//!     results.push((sub, cache.metrics().miss_ratio(), cache.metrics().traffic_ratio()));
//! }
//! // Smaller sub-blocks: more misses, less traffic (the paper's §4.2 knob).
//! assert!(results[0].1 >= results[2].1);
//! assert!(results[0].2 <= results[2].2);
//! # Ok::<(), occache_core::ConfigError>(())
//! ```

mod bus;
mod cache;
mod config;
mod contention;
mod frame;
mod ibuffer;
mod metrics;
pub mod multisim;
mod set;
mod split;
mod stackdist;
mod timing;

pub use bus::BusModel;
pub use cache::{AccessOutcome, SubBlockCache};
pub use config::{
    CacheConfig, CacheConfigBuilder, ConfigError, FetchPolicy, ReplacementPolicy, WritePolicy,
};
pub use contention::SharedBus;
pub use ibuffer::InstructionBuffer;
pub use metrics::Metrics;
pub use multisim::{
    engine_supports, simulate_many, EngineKind, MultiSimError, MAX_MULTISIM_CONFIGS,
};
pub use split::SplitCache;
pub use stackdist::{LruStackAnalyzer, SetAssocLruAnalyzer};
pub use timing::AccessTiming;

/// Simulates a whole trace against a configuration and returns the metrics.
///
/// Convenience wrapper over [`SubBlockCache`]; `warmup` references are run
/// first and excluded from the metrics (pass 0 for cold-start ratios).
///
/// ```
/// use occache_core::{simulate, CacheConfig};
/// use occache_trace::MemRef;
///
/// let config = CacheConfig::builder()
///     .net_size(64)
///     .block_size(8)
///     .sub_block_size(4)
///     .word_size(2)
///     .build()?;
/// let trace = vec![MemRef::read(0), MemRef::read(0), MemRef::read(4)];
/// let metrics = simulate(config, trace, 0);
/// assert_eq!(metrics.accesses(), 3);
/// # Ok::<(), occache_core::ConfigError>(())
/// ```
pub fn simulate<I>(config: CacheConfig, refs: I, warmup: usize) -> Metrics
where
    I: IntoIterator<Item = occache_trace::MemRef>,
{
    simulate_seeded(config, refs, warmup, DEFAULT_RANDOM_SEED)
}

/// The seed [`SubBlockCache::new`], [`simulate`] and the one-pass
/// engines all use for Random replacement, so every default-seeded path
/// produces the same (deterministic) victim choices.
pub const DEFAULT_RANDOM_SEED: u64 = 0x0cac_4e5e;

/// [`simulate`] with an explicit seed for the Random-replacement
/// generator (other policies ignore it).
pub fn simulate_seeded<I>(config: CacheConfig, refs: I, warmup: usize, seed: u64) -> Metrics
where
    I: IntoIterator<Item = occache_trace::MemRef>,
{
    let mut cache = SubBlockCache::with_seed(config, seed);
    let mut iter = refs.into_iter();
    for r in iter.by_ref().take(warmup) {
        cache.access(r.address(), r.kind());
    }
    cache.reset_metrics();
    for r in iter {
        cache.access(r.address(), r.kind());
    }
    *cache.metrics()
}

#[cfg(test)]
mod tests {
    use super::*;
    use occache_trace::MemRef;

    #[test]
    fn simulate_with_warmup_excludes_prefix() {
        let config = CacheConfig::builder()
            .net_size(64)
            .block_size(8)
            .sub_block_size(8)
            .word_size(2)
            .build()
            .unwrap();
        let trace = vec![MemRef::read(0), MemRef::read(0), MemRef::read(0)];
        let cold = simulate(config, trace.clone(), 0);
        assert_eq!(cold.misses(), 1);
        assert_eq!(cold.accesses(), 3);
        let warm = simulate(config, trace, 1);
        assert_eq!(warm.misses(), 0);
        assert_eq!(warm.accesses(), 2);
    }
}
