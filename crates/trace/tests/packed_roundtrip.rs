//! `PackedTrace` keeps 2-bit access kinds and per-stream address
//! differences, and falls back to fixed low and high address words when
//! the differences do not compress. Whatever the layout, a packed trace
//! must give back exactly the references it was built from: over random
//! reference sequences of every kind, of lengths that are not a multiple
//! of four, and with addresses up to `u64::MAX` first appearing
//! mid-trace, `iter()` and chunk reads of every size must round-trip bit
//! for bit, the iterator's size hints must be exact, kind counts must
//! match iteration, a trace of 32-bit
//! addresses must cost at most 4.25 bytes per reference plus a constant
//! and any trace at most 8.25 per reference, and uniformly random 64-bit
//! addresses must fall back to the fixed form. Set `PROPTEST_SEED` to
//! explore other traces.

use occache_trace::{AccessKind, ChunkRead, MemRef, PackedTrace, RefChunk};
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

/// Reads `packed` in chunks of at most `max` references.
fn read_in_chunks(packed: &PackedTrace, max: usize) -> Vec<MemRef> {
    let (mut reader, mut chunk, mut out) = (packed.reader(), RefChunk::new(), Vec::new());
    loop {
        let left = reader.remaining();
        let n = reader.read_chunk(&mut chunk, max);
        assert_eq!(n, chunk.len());
        assert_eq!(
            Some(n),
            left.map(|left| left.min(max)),
            "a chunk is full until the end"
        );
        if n == 0 {
            return out;
        }
        out.extend(chunk.iter());
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
    fn iter_and_chunk_reads_round_trip_exactly(refs in arb_refs(), max in 1usize..=9) {
        let packed: PackedTrace = refs.iter().copied().collect();
        prop_assert_eq!(packed.len(), refs.len());
        prop_assert_eq!(packed.is_empty(), refs.is_empty());
        prop_assert_eq!(packed.iter().collect::<Vec<_>>(), refs.clone());
        prop_assert_eq!(read_in_chunks(&packed, max), refs.clone());
        prop_assert_eq!(read_in_chunks(&packed, MAX_LEN + 1), refs);
    }

    #[test]
    fn chunk_reads_cut_anywhere_match_iteration(refs in arb_refs(), cuts in collection::vec(1usize..=64, 8)) {
        // Chunks of changing sizes put every boundary at a different
        // offset into the kind bytes and the stored differences.
        let packed: PackedTrace = refs.iter().copied().collect();
        let (mut reader, mut chunk, mut out) = (packed.reader(), RefChunk::new(), Vec::new());
        for &max in cuts.iter().cycle() {
            if reader.read_chunk(&mut chunk, max) == 0 {
                break;
            }
            out.extend(chunk.iter());
        }
        prop_assert_eq!(out, packed.iter().collect::<Vec<_>>());
    }

    #[test]
    fn kind_counts_match_iteration(refs in arb_refs()) {
        // The same kinds again with every fetch one step past the last,
        // so most fetches take the sequential code.
        let sequential: Vec<MemRef> = refs
            .iter()
            .enumerate()
            .map(|(i, &r)| if r.kind().is_data() { r } else { MemRef::ifetch(2 * i as u64) })
            .collect();
        for refs in [refs, sequential] {
            let packed: PackedTrace = refs.iter().copied().collect();
            let keeps: [fn(AccessKind) -> bool; 3] =
                [AccessKind::is_data, |k| !k.is_data(), |k| k == AccessKind::DataWrite];
            for keep in keeps {
                let kept = refs.iter().filter(|r| keep(r.kind())).count();
                prop_assert_eq!(packed.count_kinds(keep), kept);
            }
        }
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
            // At worst the fixed form, whose high words cover every
            // reference once allocated.
            prop_assert!(packed.payload_bytes() <= 8 * len + len.div_ceil(4));
        }
    }

    #[test]
    fn random_64_bit_addresses_fall_back_to_the_fixed_form(len in 1usize..=MAX_LEN, raw in collection::vec(0u64..=u64::MAX, MAX_LEN)) {
        // Uniform 64-bit addresses leave almost no difference that fits
        // 3 bytes, so the dense form passes its budget within the first
        // few references and the trace costs exactly what the fixed form
        // with high words does.
        let refs: Vec<MemRef> = raw[..len].iter().map(|&a| MemRef::read(a)).collect();
        let packed: PackedTrace = refs.iter().copied().collect();
        prop_assert!(packed.payload_bytes() <= 8 * len + len.div_ceil(4));
        if len >= 2 {
            prop_assert_eq!(packed.payload_bytes(), 8 * len + len.div_ceil(4));
        }
        prop_assert_eq!(packed.iter().collect::<Vec<_>>(), refs);
    }
}
