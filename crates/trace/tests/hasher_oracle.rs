//! `TraceStats` and `WorkingSetCurve` keep their tables on a
//! multiplicative hasher. Their answers must not depend on it: over
//! random traces, footprints, reference counts, run statistics and
//! working-set curves must equal, bit for bit, an independent reference
//! that keeps its words and blocks in `BTreeSet`/`BTreeMap`s and counts
//! each window's distinct blocks directly from the definition. Set
//! `PROPTEST_SEED` to explore other traces.

use std::collections::{BTreeMap, BTreeSet};

use occache_trace::{AccessKind, MemRef, TraceStats, WorkingSetCurve};
use proptest::prelude::*;

const MAX_LEN: usize = 400;

/// A trace driven by a program counter: most steps fetch the next
/// instruction word, some jump, the rest touch data. Targets mix a
/// small dense region with far, power-of-two-strided addresses, the
/// keys a weak multiplicative hash would collide on.
fn arb_trace(word: u64) -> impl Strategy<Value = Vec<MemRef>> {
    (
        0usize..=MAX_LEN,
        collection::vec((0u8..8, 0u64..64, 0u8..3), MAX_LEN),
    )
        .prop_map(move |(len, steps)| {
            let mut pc = 0u64;
            steps
                .into_iter()
                .take(len)
                .map(|(op, n, region)| {
                    let target = match region {
                        0 => n * word,
                        1 => (1 << 40) + (n << 12),
                        _ => n.wrapping_mul(0x9e37_79b9) << 16,
                    };
                    match op {
                        0..=3 => {
                            pc += word;
                            MemRef::ifetch(pc)
                        }
                        4 => {
                            pc = target;
                            MemRef::ifetch(pc)
                        }
                        5 | 6 => MemRef::read(target),
                        _ => MemRef::write(target),
                    }
                })
                .collect()
        })
}

/// The reference answers for one trace.
struct Expected {
    footprint_words: usize,
    ifetches: u64,
    reads: u64,
    writes: u64,
    mean_run: f64,
    footprint_blocks: usize,
    curve: Vec<f64>,
}

fn expected(trace: &[MemRef], word: u64, block: u64, windows: &[u64]) -> Expected {
    let words: BTreeSet<u64> = trace.iter().map(|r| r.address().value() / word).collect();
    let count = |kind| trace.iter().filter(|r| r.kind() == kind).count() as u64;
    let ifetches = count(AccessKind::InstrFetch);
    // A run starts at every fetch that does not follow the previous
    // fetch's word; every fetch belongs to exactly one run.
    let mut runs = 0u64;
    let mut previous: Option<u64> = None;
    for r in trace.iter().filter(|r| r.kind() == AccessKind::InstrFetch) {
        let w = r.address().value() / word;
        if previous.is_none_or(|p| w != p + 1) {
            runs += 1;
        }
        previous = Some(w);
    }
    let mean_run = if runs == 0 {
        0.0
    } else {
        ifetches as f64 / runs as f64
    };

    // next[i]: the position of the next reference to i's block (the
    // trace length when there is none). A block is in the window ending
    // at t exactly when its latest reference up to t lies in it, i.e.
    // at a position i in the window with next[i] > t.
    let blocks: Vec<u64> = trace
        .iter()
        .map(|r| r.address().block_number(block))
        .collect();
    let mut next = vec![trace.len(); trace.len()];
    let mut seen: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, &b) in blocks.iter().enumerate().rev() {
        if let Some(later) = seen.insert(b, i) {
            next[i] = later;
        }
    }
    let curve = windows
        .iter()
        .map(|&window| {
            if trace.is_empty() {
                return 0.0;
            }
            let mut sum = 0u64;
            for t in 0..trace.len() {
                let start = (t + 1).saturating_sub(window as usize);
                sum += (start..=t).filter(|&i| next[i] > t).count() as u64;
            }
            sum as f64 / trace.len() as f64
        })
        .collect();
    Expected {
        footprint_words: words.len(),
        ifetches,
        reads: count(AccessKind::DataRead),
        writes: count(AccessKind::DataWrite),
        mean_run,
        footprint_blocks: seen.len(),
        curve,
    }
}

fn check(trace: &[MemRef], word: u64, block: u64) {
    let windows = [1u64, 2, 7, 64, 333, 1 << 21];
    let want = expected(trace, word, block, &windows);
    let mut stats = TraceStats::new(word);
    let mut ws = WorkingSetCurve::new(block);
    for &r in trace {
        stats.observe(r);
        ws.observe(r);
    }
    assert_eq!(stats.total(), trace.len() as u64);
    assert_eq!(stats.footprint_words(), want.footprint_words);
    assert_eq!(stats.footprint_bytes(), want.footprint_words as u64 * word);
    assert_eq!(
        (stats.ifetches(), stats.reads(), stats.writes()),
        (want.ifetches, want.reads, want.writes)
    );
    assert_eq!(stats.mean_ifetch_run().to_bits(), want.mean_run.to_bits());
    assert_eq!(ws.footprint_blocks(), want.footprint_blocks);
    for ((window, got), want) in ws.curve(&windows).into_iter().zip(&want.curve) {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "window {window}: {got} vs {want}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sixteen_bit_stats_match_the_ordered_reference(trace in arb_trace(2)) {
        check(&trace, 2, 16);
    }

    #[test]
    fn thirty_two_bit_stats_match_the_ordered_reference(trace in arb_trace(4)) {
        check(&trace, 4, 8);
    }
}
