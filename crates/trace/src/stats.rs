//! Locality statistics for characterising traces.
//!
//! The paper argues (§3.3) that synthetic workloads "often lack" the embedded
//! correlations of real traces; our workload models are therefore validated
//! by measuring exactly those correlations — footprint, access mix,
//! sequential-run structure — and checking that they differ across the four
//! architectures in the way the paper describes (small compact Z8000
//! utilities vs hundreds-of-kilobytes System/370 jobs).

use crate::hash::WordSet;
use crate::record::{AccessKind, MemRef};

/// Aggregate statistics over a trace, collected in a single pass.
///
/// ```
/// use occache_trace::{MemRef, TraceStats};
///
/// let mut stats = TraceStats::new(2);
/// for r in [MemRef::ifetch(0), MemRef::ifetch(2), MemRef::read(100)] {
///     stats.observe(r);
/// }
/// assert_eq!(stats.total(), 3);
/// assert_eq!(stats.ifetches(), 2);
/// assert_eq!(stats.footprint_words(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct TraceStats {
    word_size: u64,
    total: u64,
    ifetches: u64,
    reads: u64,
    writes: u64,
    touched_words: WordSet,
    last_ifetch_word: Option<u64>,
    current_run: u64,
    runs: u64,
    run_total: u64,
}

impl TraceStats {
    /// Creates a collector; `word_size` is the architecture data-path width
    /// in bytes (2 for PDP-11/Z8000, 4 for VAX-11/System/370).
    ///
    /// # Panics
    ///
    /// Panics if `word_size` is not a power of two.
    pub fn new(word_size: u64) -> Self {
        assert!(
            word_size.is_power_of_two(),
            "word size must be a power of two"
        );
        TraceStats {
            word_size,
            total: 0,
            ifetches: 0,
            reads: 0,
            writes: 0,
            touched_words: WordSet::default(),
            last_ifetch_word: None,
            current_run: 0,
            runs: 0,
            run_total: 0,
        }
    }

    /// Records one reference.
    pub fn observe(&mut self, r: MemRef) {
        self.total += 1;
        let word = r.address().value() / self.word_size;
        self.touched_words.insert(word);
        match r.kind() {
            AccessKind::InstrFetch => {
                self.ifetches += 1;
                match self.last_ifetch_word {
                    Some(prev) if word == prev + 1 => self.current_run += 1,
                    _ => {
                        self.flush_run();
                        self.current_run = 1;
                    }
                }
                self.last_ifetch_word = Some(word);
            }
            AccessKind::DataRead => self.reads += 1,
            AccessKind::DataWrite => self.writes += 1,
        }
    }

    fn flush_run(&mut self) {
        if self.current_run > 0 {
            self.runs += 1;
            self.run_total += self.current_run;
            self.current_run = 0;
        }
    }

    /// Total references observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Instruction fetches observed.
    pub fn ifetches(&self) -> u64 {
        self.ifetches
    }

    /// Data reads observed.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Data writes observed.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Number of distinct words touched (temporal footprint).
    pub fn footprint_words(&self) -> usize {
        self.touched_words.len()
    }

    /// Footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint_words() as u64 * self.word_size
    }

    /// Fraction of references that are instruction fetches.
    pub fn ifetch_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.ifetches as f64 / self.total as f64
        }
    }

    /// Mean sequential instruction-fetch run length in words.
    ///
    /// A "run" is a maximal sequence of consecutive-word instruction fetches;
    /// longer runs mean more spatial locality for larger (sub-)blocks to
    /// exploit.
    pub fn mean_ifetch_run(&self) -> f64 {
        let runs = self.runs + u64::from(self.current_run > 0);
        let total = self.run_total + self.current_run;
        if runs == 0 {
            0.0
        } else {
            total as f64 / runs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_by_kind() {
        let mut s = TraceStats::new(2);
        for r in [
            MemRef::ifetch(0),
            MemRef::read(10),
            MemRef::write(10),
            MemRef::read(12),
        ] {
            s.observe(r);
        }
        assert_eq!(s.total(), 4);
        assert_eq!(s.ifetches(), 1);
        assert_eq!(s.reads(), 2);
        assert_eq!(s.writes(), 1);
        assert!((s.ifetch_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn footprint_counts_distinct_words() {
        let mut s = TraceStats::new(4);
        for addr in [0u64, 0, 4, 4, 8] {
            s.observe(MemRef::read(addr));
        }
        assert_eq!(s.footprint_words(), 3);
        assert_eq!(s.footprint_bytes(), 12);
    }

    #[test]
    fn sequential_runs_are_measured() {
        let mut s = TraceStats::new(2);
        // Run of 3 sequential fetches, a branch, then a run of 2.
        for addr in [0u64, 2, 4, 100, 102] {
            s.observe(MemRef::ifetch(addr));
        }
        assert!((s.mean_ifetch_run() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn data_refs_do_not_break_ifetch_runs() {
        let mut s = TraceStats::new(2);
        s.observe(MemRef::ifetch(0));
        s.observe(MemRef::read(500));
        s.observe(MemRef::ifetch(2));
        assert!((s.mean_ifetch_run() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_yields_zeroes() {
        let s = TraceStats::new(2);
        assert_eq!(s.total(), 0);
        assert_eq!(s.ifetch_fraction(), 0.0);
        assert_eq!(s.mean_ifetch_run(), 0.0);
    }
}
