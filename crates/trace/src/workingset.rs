//! Denning working-set analysis.
//!
//! The paper's inter-architecture comparison (§4.2.5) comes down to
//! working-set size: Z8000 utilities are "small, compact pieces of code"
//! while System/370 jobs use "hundreds of kilobytes". This module measures
//! that directly: the mean working-set size `s(T)` — the average number of
//! distinct blocks touched in a backward window of `T` references —
//! computed for all window sizes in one pass via the Denning–Schwartz
//! identity: each reference contributes `min(gᵢ, T)` window positions in
//! which it is its block's most recent occurrence, where `gᵢ` is the
//! forward re-reference gap (for a block's final reference, the distance
//! to the end of the trace).

use crate::hash::WordMap;
use crate::record::MemRef;

/// Single-pass working-set curve estimator at block granularity.
///
/// ```
/// use occache_trace::workingset::WorkingSetCurve;
/// use occache_trace::MemRef;
///
/// let mut ws = WorkingSetCurve::new(16);
/// for r in [MemRef::read(0), MemRef::read(16), MemRef::read(0)] {
///     ws.observe(r);
/// }
/// // In windows of 1 reference, each access sees exactly 1 block.
/// assert!((ws.mean_working_set(1) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct WorkingSetCurve {
    block_size: u64,
    last_access: WordMap<u64>,
    /// Histogram of inter-reference gaps (index = gap, saturating).
    gap_histogram: Vec<u64>,
    total: u64,
    clock: u64,
}

/// Gaps beyond this are treated as first touches; windows larger than
/// this saturate the estimate.
const MAX_GAP: usize = 1 << 20;

impl WorkingSetCurve {
    /// Creates an estimator at the given block granularity.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two.
    pub fn new(block_size: u64) -> Self {
        assert!(
            block_size.is_power_of_two(),
            "block size must be a power of two"
        );
        WorkingSetCurve {
            block_size,
            last_access: WordMap::default(),
            gap_histogram: Vec::new(),
            total: 0,
            clock: 0,
        }
    }

    /// Records one reference.
    pub fn observe(&mut self, r: MemRef) {
        let block = r.address().block_number(self.block_size);
        self.clock += 1;
        self.total += 1;
        if let Some(previous) = self.last_access.insert(block, self.clock) {
            let gap = ((self.clock - previous) as usize).min(MAX_GAP);
            if gap >= self.gap_histogram.len() {
                self.gap_histogram.resize(gap + 1, 0);
            }
            self.gap_histogram[gap] += 1;
        }
    }

    /// Total references observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Distinct blocks observed (the footprint in blocks).
    pub fn footprint_blocks(&self) -> usize {
        self.last_access.len()
    }

    /// Mean working-set size (in blocks) for a backward window of
    /// `window` references.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn mean_working_set(&self, window: u64) -> f64 {
        assert!(window > 0, "window must be positive");
        if self.total == 0 {
            return 0.0;
        }
        // Closed references contribute min(forward gap, T); each block's
        // final reference stays in windows until the end of the trace.
        let mut sum = 0.0;
        for (gap, &count) in self.gap_histogram.iter().enumerate() {
            sum += count as f64 * (gap as u64).min(window) as f64;
        }
        for &last in self.last_access.values() {
            sum += (self.clock - last + 1).min(window) as f64;
        }
        sum / self.total as f64
    }

    /// The curve at a list of window sizes.
    pub fn curve(&self, windows: &[u64]) -> Vec<(u64, f64)> {
        windows
            .iter()
            .map(|&w| (w, self.mean_working_set(w)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(ws: &mut WorkingSetCurve, addrs: &[u64]) {
        for &a in addrs {
            ws.observe(MemRef::read(a));
        }
    }

    #[test]
    fn window_of_one_is_one_block() {
        let mut ws = WorkingSetCurve::new(8);
        feed(&mut ws, &[0, 8, 16, 0, 8]);
        assert!((ws.mean_working_set(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tight_loop_saturates_at_loop_size() {
        // Cycling over 4 blocks: large windows see exactly 4 blocks.
        let addrs: Vec<u64> = (0..400).map(|i| (i % 4) * 8).collect();
        let mut ws = WorkingSetCurve::new(8);
        feed(&mut ws, &addrs);
        let s = ws.mean_working_set(10_000);
        assert!((s - 4.0).abs() < 0.2, "{s}");
    }

    #[test]
    fn curve_is_monotone_nondecreasing() {
        let addrs: Vec<u64> = (0..1000).map(|i| (i * 37) % 64 * 8).collect();
        let mut ws = WorkingSetCurve::new(8);
        feed(&mut ws, &addrs);
        let mut previous = 0.0;
        for (_, s) in ws.curve(&[1, 2, 4, 8, 16, 32, 64, 128]) {
            assert!(s >= previous - 1e-12);
            previous = s;
        }
    }

    #[test]
    fn working_set_never_exceeds_footprint_or_window() {
        let addrs: Vec<u64> = (0..500).map(|i| (i * 13) % 32 * 8).collect();
        let mut ws = WorkingSetCurve::new(8);
        feed(&mut ws, &addrs);
        for window in [1u64, 10, 100, 100_000] {
            let s = ws.mean_working_set(window);
            assert!(s <= window as f64 + 1e-12);
            assert!(s <= ws.footprint_blocks() as f64 + 1e-9);
        }
    }

    #[test]
    fn streaming_references_grow_linearly() {
        // A pure sweep never re-references: the average over all window
        // positions of min(t, 100) is exactly 95.05 for N = 1000.
        let addrs: Vec<u64> = (0..1000u64).map(|i| i * 8).collect();
        let mut ws = WorkingSetCurve::new(8);
        feed(&mut ws, &addrs);
        let s = ws.mean_working_set(100);
        assert!((s - 95.05).abs() < 1e-9, "{s}");
    }

    #[test]
    fn empty_curve_is_zero() {
        let ws = WorkingSetCurve::new(8);
        assert_eq!(ws.mean_working_set(64), 0.0);
        assert_eq!(ws.footprint_blocks(), 0);
    }
}
