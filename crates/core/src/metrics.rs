//! Performance metrics: miss ratio, traffic ratio, and the raw counts the
//! bus-cost models need.
//!
//! Following the paper (§3.1), the headline ratios count **only data reads
//! and instruction fetches**; data writes update cache state but are tallied
//! separately so write-policy effects stay out of the comparisons. The
//! warm-start discipline (§4.2.2) is supported by
//! [`Metrics::reset`][Metrics::reset] — run a warm-up prefix, reset, then
//! measure.
//!
//! Both the direct simulator and the one-pass engine
//! ([`multisim`](crate::multisim)) accumulate through the same recording
//! methods in the same per-access order, which is what makes their outputs
//! comparable with `==` rather than within a tolerance.

use crate::bus::BusModel;
use crate::config::{CacheConfig, WritePolicy};

/// Counters accumulated by a cache over a run.
///
/// ```
/// use occache_core::{CacheConfig, SubBlockCache};
/// use occache_trace::{AccessKind, Address};
///
/// let config = CacheConfig::builder()
///     .net_size(64)
///     .block_size(8)
///     .sub_block_size(4)
///     .word_size(4)
///     .build()?;
/// let mut cache = SubBlockCache::new(config);
/// cache.access(Address::new(0), AccessKind::DataRead);   // miss
/// cache.access(Address::new(0), AccessKind::DataRead);   // hit
/// let m = cache.metrics();
/// assert_eq!(m.accesses(), 2);
/// assert_eq!(m.misses(), 1);
/// assert_eq!(m.miss_ratio(), 0.5);
/// // Demand fetch moved one 4-byte sub-block for two 4-byte-word accesses.
/// assert_eq!(m.traffic_ratio(), 0.5);
/// # Ok::<(), occache_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Metrics {
    word_size: u64,
    accesses: u64,
    misses: u64,
    fetch_bytes: u64,
    fetch_transactions: u64,
    sub_loads: u64,
    redundant_sub_loads: u64,
    prefetched_subs: u64,
    prefetch_uses: u64,
    write_accesses: u64,
    write_misses: u64,
    write_through_bytes: u64,
    write_back_bytes: u64,
    evicted_blocks: u64,
    evicted_sub_slots: u64,
    evicted_unreferenced_subs: u64,
}

/// The counters the one-pass engine actually has to accumulate per
/// configuration. Every other `Metrics` field is a product of these
/// (each counted miss is one fetch transaction of `sub_loads`-worth of
/// sub-blocks, each write-through write moves exactly one word, each
/// eviction releases exactly `slots` sub-slots), so the engine's hot
/// path updates a few numbers and the rest are reconstructed here.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EngineCounters {
    /// Counted accesses (identical for every configuration in a slice).
    pub accesses: u64,
    /// Data writes (identical for every configuration in a slice).
    pub write_accesses: u64,
    pub misses: u64,
    pub write_misses: u64,
    /// Sub-blocks loaded on counted misses: equal to `misses` under
    /// demand fetch, more under load-forward.
    pub sub_loads: u64,
    /// Of `sub_loads`, re-fetches of already-valid sub-blocks (redundant
    /// load-forward only).
    pub redundant_sub_loads: u64,
    pub evicted_blocks: u64,
    /// Total referenced sub-blocks across all evictions.
    pub evicted_referenced_subs: u64,
    /// Total dirty sub-blocks across all evictions (charged as
    /// write-back traffic under copy-back only).
    pub evicted_dirty_subs: u64,
}

impl Metrics {
    pub(crate) fn new(word_size: u64) -> Self {
        Metrics {
            word_size,
            ..Metrics::default()
        }
    }

    /// Expands the engine's compact counters for `config` into full
    /// `Metrics`, bit-identical to accumulating through the recording
    /// methods: each counted miss is one fetch transaction, each loaded
    /// sub-block moves `sub_size` bytes, write-through moves one word
    /// per data write, copy-back moves each dirty sub-block of an evicted
    /// block, and an eviction releases `slots` sub-slots of which
    /// `evicted_referenced_subs` were touched.
    pub(crate) fn from_engine(config: &CacheConfig, c: EngineCounters) -> Metrics {
        let (word_size, sub_size) = (config.word_size(), config.sub_block_size());
        let slots = config.sub_blocks_per_block();
        let (write_through_bytes, write_back_bytes) = match config.write_policy() {
            WritePolicy::WriteThrough => (c.write_accesses * word_size, 0),
            WritePolicy::CopyBack => (0, c.evicted_dirty_subs * sub_size),
        };
        Metrics {
            word_size,
            accesses: c.accesses,
            misses: c.misses,
            fetch_bytes: c.sub_loads * sub_size,
            fetch_transactions: c.misses,
            sub_loads: c.sub_loads,
            redundant_sub_loads: c.redundant_sub_loads,
            write_accesses: c.write_accesses,
            write_misses: c.write_misses,
            write_through_bytes,
            write_back_bytes,
            evicted_blocks: c.evicted_blocks,
            evicted_sub_slots: c.evicted_blocks * slots,
            evicted_unreferenced_subs: c.evicted_blocks * slots - c.evicted_referenced_subs,
            ..Metrics::default()
        }
    }

    pub(crate) fn record_access(&mut self, counted: bool, hit: bool) {
        if counted {
            self.accesses += 1;
            if !hit {
                self.misses += 1;
            }
        } else {
            self.write_accesses += 1;
            if !hit {
                self.write_misses += 1;
            }
        }
    }

    pub(crate) fn record_fetch(&mut self, counted: bool, bytes: u64, subs: u64, redundant: u64) {
        if counted && bytes > 0 {
            self.fetch_bytes += bytes;
            self.fetch_transactions += 1;
            self.sub_loads += subs;
            self.redundant_sub_loads += redundant;
        }
    }

    pub(crate) fn record_prefetch(&mut self) {
        self.prefetched_subs += 1;
    }

    pub(crate) fn record_prefetch_use(&mut self) {
        self.prefetch_uses += 1;
    }

    pub(crate) fn record_write_through(&mut self, bytes: u64) {
        self.write_through_bytes += bytes;
    }

    pub(crate) fn record_write_back(&mut self, bytes: u64) {
        self.write_back_bytes += bytes;
    }

    pub(crate) fn record_eviction(&mut self, sub_slots: u64, unreferenced: u64) {
        self.evicted_blocks += 1;
        self.evicted_sub_slots += sub_slots;
        self.evicted_unreferenced_subs += unreferenced;
    }

    /// Counted accesses (instruction fetches + data reads).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Counted misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Bytes fetched from memory on behalf of counted accesses.
    pub fn fetch_bytes(&self) -> u64 {
        self.fetch_bytes
    }

    /// Number of memory fetch transactions (one per miss fill).
    pub fn fetch_transactions(&self) -> u64 {
        self.fetch_transactions
    }

    /// Sub-blocks loaded on behalf of counted accesses.
    pub fn sub_loads(&self) -> u64 {
        self.sub_loads
    }

    /// Sub-block loads that re-fetched already-resident data (only nonzero
    /// under the redundant load-forward scheme; Table 8's "few redundant
    /// loads" measurement).
    pub fn redundant_sub_loads(&self) -> u64 {
        self.redundant_sub_loads
    }

    /// Sub-blocks loaded by prefetching (all issues, including those
    /// triggered by writes — pollution bookkeeping is policy-level, while
    /// the traffic ratio stays filtered to counted accesses).
    pub fn prefetched_subs(&self) -> u64 {
        self.prefetched_subs
    }

    /// Prefetched sub-blocks later referenced before eviction.
    pub fn prefetch_uses(&self) -> u64 {
        self.prefetch_uses
    }

    /// Fraction of prefetches never used — the *pollution* §2.2 warns
    /// about, after Smith \[11\] (0 when nothing was prefetched).
    pub fn prefetch_pollution(&self) -> f64 {
        if self.prefetched_subs == 0 {
            0.0
        } else {
            1.0 - (self.prefetch_uses.min(self.prefetched_subs) as f64
                / self.prefetched_subs as f64)
        }
    }

    /// Data writes observed (excluded from the ratios).
    pub fn write_accesses(&self) -> u64 {
        self.write_accesses
    }

    /// Data writes that missed (excluded from the ratios).
    pub fn write_misses(&self) -> u64 {
        self.write_misses
    }

    /// Bytes sent to memory by write-through accounting.
    pub fn write_through_bytes(&self) -> u64 {
        self.write_through_bytes
    }

    /// Bytes flushed to memory by copy-back eviction accounting.
    pub fn write_back_bytes(&self) -> u64 {
        self.write_back_bytes
    }

    /// Blocks evicted so far.
    pub fn evicted_blocks(&self) -> u64 {
        self.evicted_blocks
    }

    /// Miss ratio: counted misses / counted accesses (0 if no accesses).
    pub fn miss_ratio(&self) -> f64 {
        ratio(self.misses, self.accesses)
    }

    /// Traffic ratio: bytes moved with the cache divided by bytes a
    /// cacheless system would move (one word per counted access).
    pub fn traffic_ratio(&self) -> f64 {
        ratio(self.fetch_bytes, self.accesses * self.word_size)
    }

    /// Traffic ratio under a bus-cost model `a + b*w` (the paper's *scaled*
    /// traffic ratio, §4.3). [`BusModel::Linear`] reproduces
    /// [`Metrics::traffic_ratio`].
    pub fn scaled_traffic_ratio(&self, bus: BusModel) -> f64 {
        // `word_size` is 0 only for `Metrics::default()`, which has no
        // recorded traffic either; guard rather than divide by zero.
        if self.word_size == 0 {
            return 0.0;
        }
        let words_fetched = self.fetch_bytes / self.word_size;
        let with_cache = bus.total_cost(self.fetch_transactions, words_fetched);
        let without_cache = self.accesses as f64 * bus.transfer_cost(1);
        if without_cache == 0.0 {
            0.0
        } else {
            with_cache / without_cache
        }
    }

    /// Fraction of sub-block slots in evicted blocks that were never
    /// referenced while the block was resident (the paper measures 72% for
    /// the 360/85 sector cache).
    pub fn unreferenced_sub_block_fraction(&self) -> f64 {
        ratio(self.evicted_unreferenced_subs, self.evicted_sub_slots)
    }

    /// Resets all counters (the warm-start discipline), keeping cache
    /// contents intact.
    pub fn reset(&mut self) {
        *self = Metrics::new(self.word_size);
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_are_zero_on_empty_metrics() {
        let m = Metrics::new(2);
        assert_eq!(m.miss_ratio(), 0.0);
        assert_eq!(m.traffic_ratio(), 0.0);
        assert_eq!(m.scaled_traffic_ratio(BusModel::paper_nibble()), 0.0);
        assert_eq!(m.unreferenced_sub_block_fraction(), 0.0);
    }

    #[test]
    fn default_metrics_do_not_divide_by_zero() {
        // `Metrics::default()` has word_size 0; every ratio must still be
        // finite (0), never a panic or NaN.
        let m = Metrics::default();
        assert_eq!(m.miss_ratio(), 0.0);
        assert_eq!(m.traffic_ratio(), 0.0);
        assert_eq!(m.scaled_traffic_ratio(BusModel::paper_nibble()), 0.0);
        assert_eq!(m.unreferenced_sub_block_fraction(), 0.0);
        assert_eq!(m.prefetch_pollution(), 0.0);
    }

    #[test]
    fn counted_and_uncounted_accesses_separate() {
        let mut m = Metrics::new(2);
        m.record_access(true, false);
        m.record_access(true, true);
        m.record_access(false, false);
        assert_eq!(m.accesses(), 2);
        assert_eq!(m.misses(), 1);
        assert_eq!(m.write_accesses(), 1);
        assert_eq!(m.write_misses(), 1);
    }

    #[test]
    fn traffic_ratio_uses_word_denominator() {
        let mut m = Metrics::new(2);
        for _ in 0..10 {
            m.record_access(true, true);
        }
        m.record_access(true, false);
        m.record_fetch(true, 8, 1, 0);
        // 8 bytes fetched over 11 accesses of 2 bytes each.
        assert!((m.traffic_ratio() - 8.0 / 22.0).abs() < 1e-12);
    }

    #[test]
    fn uncounted_fetches_do_not_add_traffic() {
        let mut m = Metrics::new(2);
        m.record_access(true, true);
        m.record_fetch(false, 64, 1, 0);
        assert_eq!(m.fetch_bytes(), 0);
    }

    #[test]
    fn scaled_traffic_matches_paper_formula() {
        // One miss fetching a 4-word sub-block per 10 accesses: linear
        // traffic ratio 0.4; nibble cost (1 + 3/3)/4 per word halves it.
        let mut m = Metrics::new(2);
        for _ in 0..9 {
            m.record_access(true, true);
        }
        m.record_access(true, false);
        m.record_fetch(true, 8, 1, 0); // 8 bytes = 4 words
        assert!((m.traffic_ratio() - 0.4).abs() < 1e-12);
        let scaled = m.scaled_traffic_ratio(BusModel::paper_nibble());
        assert!((scaled - 0.2).abs() < 1e-12, "scaled {scaled}");
    }

    #[test]
    fn eviction_statistics() {
        let mut m = Metrics::new(2);
        m.record_eviction(16, 12);
        m.record_eviction(16, 11);
        assert_eq!(m.evicted_blocks(), 2);
        assert!((m.unreferenced_sub_block_fraction() - 23.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_counts_but_keeps_word_size() {
        let mut m = Metrics::new(4);
        m.record_access(true, false);
        m.record_fetch(true, 4, 1, 0);
        m.reset();
        assert_eq!(m.accesses(), 0);
        m.record_access(true, false);
        m.record_fetch(true, 4, 1, 0);
        assert!((m.traffic_ratio() - 1.0).abs() < 1e-12);
    }
}
