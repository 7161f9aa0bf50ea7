//! `PackedTrace` keeps the low address words, 2-bit access kinds and,
//! only once an address of 2^32 or more arrives, the high address words
//! in separate arrays. Whatever the layout, a packed trace must give back
//! exactly the references it was built from: over random reference
//! sequences of every kind, of lengths that are not a multiple of four,
//! and with addresses up to `u64::MAX` first appearing mid-trace,
//! `iter()` and `get(i)` must round-trip bit for bit, the iterator's
//! size hints must be exact, and a trace of 32-bit addresses must cost
//! at most 4.25 bytes per reference plus a constant. Set `PROPTEST_SEED`
//! to explore other traces.

use occache_trace::{MemRef, PackedTrace};
use proptest::prelude::*;

const MAX_LEN: usize = 203;

/// One address: mostly 32-bit (dense and scattered), and — from index
/// `high_from` on — sometimes 2^32, `u64::MAX` or an arbitrary `u64`.
fn address(i: usize, high_from: usize, pick: u8, raw: u64) -> u64 {
    match pick {
        0..=2 => raw & 0xffff,
        3..=5 => raw & 0xffff_ffff,
        _ if i < high_from => raw & 0xffff_ffff,
        6 => 1 << 32,
        7 => u64::MAX,
        _ => raw,
    }
}

/// A reference sequence of length `0..=MAX_LEN` over all three kinds.
/// `high_from` is drawn past the end about half the time, so half the
/// traces keep every address below 2^32.
fn arb_refs() -> impl Strategy<Value = Vec<MemRef>> {
    (
        0usize..=MAX_LEN,
        0usize..=2 * MAX_LEN,
        collection::vec((0u8..3, 0u8..9, 0u64..=u64::MAX), MAX_LEN),
    )
        .prop_map(|(len, high_from, steps)| {
            steps
                .into_iter()
                .take(len)
                .enumerate()
                .map(|(i, (kind, pick, raw))| {
                    let addr = address(i, high_from, pick, raw);
                    match kind {
                        0 => MemRef::ifetch(addr),
                        1 => MemRef::read(addr),
                        _ => MemRef::write(addr),
                    }
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn iter_and_get_round_trip_exactly(refs in arb_refs()) {
        let packed: PackedTrace = refs.iter().copied().collect();
        prop_assert_eq!(packed.len(), refs.len());
        prop_assert_eq!(packed.is_empty(), refs.is_empty());
        prop_assert_eq!(packed.iter().collect::<Vec<_>>(), refs.clone());
        for (i, &r) in refs.iter().enumerate() {
            prop_assert_eq!(packed.get(i), Some(r));
        }
        prop_assert_eq!(packed.get(refs.len()), None);
    }

    #[test]
    fn size_hints_are_exact_at_every_step(refs in arb_refs()) {
        let packed: PackedTrace = refs.iter().copied().collect();
        let mut it = packed.iter();
        for left in (0..=refs.len()).rev() {
            prop_assert_eq!(it.size_hint(), (left, Some(left)));
            prop_assert_eq!(it.len(), left);
            prop_assert_eq!(it.next().is_some(), left > 0);
        }
        prop_assert_eq!(it.next(), None);
    }

    #[test]
    fn every_way_of_building_packs_the_same(refs in arb_refs(), cut in 0usize..=MAX_LEN) {
        let collected: PackedTrace = refs.iter().copied().collect();
        // A stream of unknown length grows instead of allocating once.
        let unsized_stream: PackedTrace = refs.iter().copied().filter(|_| true).collect();
        prop_assert_eq!(&unsized_stream, &collected);
        let (head, tail) = refs.split_at(cut.min(refs.len()));
        let mut pushed = PackedTrace::new();
        for &r in head {
            pushed.push(r);
        }
        pushed.extend(tail.iter().copied());
        prop_assert_eq!(&pushed, &collected);
    }

    #[test]
    fn payload_stays_within_its_bound(refs in arb_refs()) {
        let packed: PackedTrace = refs.iter().copied().collect();
        let len = refs.len();
        if refs.iter().all(|r| r.address().value() < 1 << 32) {
            // payload_bytes() <= 4.25 * len + 8, in integers.
            prop_assert!(4 * packed.payload_bytes() <= 17 * len + 32);
        } else {
            // The high words, once allocated, cover every reference.
            prop_assert_eq!(packed.payload_bytes(), 8 * len + len.div_ceil(4));
        }
    }
}
