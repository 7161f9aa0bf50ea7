//! The four-way quad-interleave scheduler behind paired LRU runs: two
//! traces' chunks through two same-shape LRU engines in one loop.

use occache_trace::MemRef;

use super::{ClassState, CounterBank, EngineCore, SpecCtx};

/// One side of a [`run_quad_spec`] call: an adjacent class pair of one
/// engine, that engine's decoded chunk, and its counter bank.
type QuadSide<'a> = (
    &'a mut ClassState,
    &'a mut ClassState,
    &'a [u64],
    &'a [u8],
    &'a mut CounterBank,
);

/// Runs two engines' chunks through an adjacent class pair of each,
/// all four per-reference steps interleaved in a single loop.
///
/// The two engines see different references, so their chains share
/// nothing at all; the four-way interleave is what finally covers the
/// store-to-load forwarding stalls a two-way interleave still exposes.
/// Chunks must be the same length (the caller falls back otherwise).
fn run_quad_spec<const WAYS: usize, const MA: usize, const MB: usize>(
    side_a: QuadSide<'_>,
    side_b: QuadSide<'_>,
) {
    let (a1, a2, addrs_a, lanes_a, bank_a) = side_a;
    let (b1, b2, addrs_b, lanes_b, bank_b) = side_b;
    debug_assert_eq!(addrs_a.len(), addrs_b.len());
    let mut ca1 = SpecCtx::<MA>::new::<WAYS>(a1);
    let mut ca2 = SpecCtx::<MB>::new::<WAYS>(a2);
    let mut cb1 = SpecCtx::<MA>::new::<WAYS>(b1);
    let mut cb2 = SpecCtx::<MB>::new::<WAYS>(b2);
    for i in 0..addrs_a.len().min(addrs_b.len()) {
        let aa = addrs_a[i];
        let ab = addrs_b[i];
        // All-ones for data writes (lane 0), zero for counted refs.
        let wa = u64::from(lanes_a[i] & 1).wrapping_sub(1);
        let wb = u64::from(lanes_b[i] & 1).wrapping_sub(1);
        ca1.visit::<WAYS, false>(aa, wa);
        cb1.visit::<WAYS, false>(ab, wb);
        ca2.visit::<WAYS, false>(aa, wa);
        cb2.visit::<WAYS, false>(ab, wb);
    }
    ca1.flush(
        &mut bank_a.miss,
        &mut bank_a.evicted_blocks,
        &mut bank_a.evicted_referenced,
    );
    ca2.flush(
        &mut bank_a.miss,
        &mut bank_a.evicted_blocks,
        &mut bank_a.evicted_referenced,
    );
    cb1.flush(
        &mut bank_b.miss,
        &mut bank_b.evicted_blocks,
        &mut bank_b.evicted_referenced,
    );
    cb2.flush(
        &mut bank_b.miss,
        &mut bank_b.evicted_blocks,
        &mut bank_b.evicted_referenced,
    );
}

/// Runs one chunk through an LRU engine and an equal-length chunk
/// through a second, same-shape LRU engine (a clone of the same fresh
/// engine), interleaving their per-reference steps.
///
/// Two engines driven by different traces are completely independent,
/// so their steps overlap perfectly in the out-of-order window (see
/// `run_pair_spec` in the parent module for why that pays); combined
/// with adjacent-class pairing this keeps four dependency chains in
/// flight. Results are exactly what two separate chunk runs produce.
pub(super) fn run_pair(
    a: &mut EngineCore,
    refs: &[MemRef],
    b: &mut EngineCore,
    other_refs: &[MemRef],
) {
    debug_assert_eq!(refs.len(), other_refs.len());
    debug_assert_eq!(a.classes.len(), b.classes.len());
    a.decode_chunk(refs);
    b.decode_chunk(other_refs);
    let EngineCore {
        classes: classes_a,
        bank: bank_a,
        scratch_addr: addrs_a,
        scratch_lane: lanes_a,
        ..
    } = a;
    let EngineCore {
        classes: classes_b,
        bank: bank_b,
        scratch_addr: addrs_b,
        scratch_lane: lanes_b,
        ..
    } = b;
    let mut i = 0;
    while i < classes_a.len() {
        if i + 1 < classes_a.len() {
            let (head_a, tail_a) = classes_a.split_at_mut(i + 1);
            let (head_b, tail_b) = classes_b.split_at_mut(i + 1);
            let a1 = &mut head_a[i];
            let a2 = &mut tail_a[0];
            let b1 = &mut head_b[i];
            let b2 = &mut tail_b[0];
            if a1.assoc == 4 && a2.assoc == 4 {
                macro_rules! quad {
                    ($ma:literal, $mb:literal) => {{
                        run_quad_spec::<4, $ma, $mb>(
                            (a1, a2, addrs_a, lanes_a, bank_a),
                            (b1, b2, addrs_b, lanes_b, bank_b),
                        );
                        true
                    }};
                }
                let done = match (a1.meta.len(), a2.meta.len()) {
                    (1, 1) => quad!(1, 1),
                    (1, 2) => quad!(1, 2),
                    (1, 3) => quad!(1, 3),
                    (1, 4) => quad!(1, 4),
                    (1, 5) => quad!(1, 5),
                    (1, 6) => quad!(1, 6),
                    (2, 1) => quad!(2, 1),
                    (2, 2) => quad!(2, 2),
                    (2, 3) => quad!(2, 3),
                    (2, 4) => quad!(2, 4),
                    (2, 5) => quad!(2, 5),
                    (2, 6) => quad!(2, 6),
                    (3, 1) => quad!(3, 1),
                    (3, 2) => quad!(3, 2),
                    (3, 3) => quad!(3, 3),
                    (3, 4) => quad!(3, 4),
                    (3, 5) => quad!(3, 5),
                    (3, 6) => quad!(3, 6),
                    (4, 1) => quad!(4, 1),
                    (4, 2) => quad!(4, 2),
                    (4, 3) => quad!(4, 3),
                    (4, 4) => quad!(4, 4),
                    (4, 5) => quad!(4, 5),
                    (4, 6) => quad!(4, 6),
                    (5, 1) => quad!(5, 1),
                    (5, 2) => quad!(5, 2),
                    (5, 3) => quad!(5, 3),
                    (5, 4) => quad!(5, 4),
                    (5, 5) => quad!(5, 5),
                    (5, 6) => quad!(5, 6),
                    (6, 1) => quad!(6, 1),
                    (6, 2) => quad!(6, 2),
                    (6, 3) => quad!(6, 3),
                    (6, 4) => quad!(6, 4),
                    (6, 5) => quad!(6, 5),
                    (6, 6) => quad!(6, 6),
                    _ => false,
                };
                if done {
                    i += 2;
                    continue;
                }
            }
        }
        classes_a[i].run::<false>(
            addrs_a,
            lanes_a,
            &mut bank_a.miss,
            &mut bank_a.evicted_blocks,
            &mut bank_a.evicted_referenced,
        );
        classes_b[i].run::<false>(
            addrs_b,
            lanes_b,
            &mut bank_b.miss,
            &mut bank_b.evicted_blocks,
            &mut bank_b.evicted_referenced,
        );
        i += 1;
    }
}
