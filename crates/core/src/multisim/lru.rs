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
fn run_quad_spec<const WAYS: usize, const MA: usize, const MB: usize, const EXT: bool>(
    side_a: QuadSide<'_>,
    side_b: QuadSide<'_>,
) {
    let (a1, a2, addrs_a, lanes_a, bank_a) = side_a;
    let (b1, b2, addrs_b, lanes_b, bank_b) = side_b;
    debug_assert_eq!(addrs_a.len(), addrs_b.len());
    let mut ca1 = SpecCtx::<MA, EXT>::new::<WAYS>(a1);
    let mut ca2 = SpecCtx::<MB, EXT>::new::<WAYS>(a2);
    let mut cb1 = SpecCtx::<MA, EXT>::new::<WAYS>(b1);
    let mut cb2 = SpecCtx::<MB, EXT>::new::<WAYS>(b2);
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
    ca1.flush(bank_a);
    ca2.flush(bank_a);
    cb1.flush(bank_b);
    cb2.flush(bank_b);
}

/// Runs two engines' chunks through an adjacent 4-way class pair of
/// each, of one sub-block rule, when a [`run_quad_spec`]
/// specialisation exists for their shape; returns whether it ran.
fn run_quad(side_a: QuadSide<'_>, side_b: QuadSide<'_>) -> bool {
    macro_rules! plain {
        ($ma:literal, $mb:literal) => {{
            run_quad_spec::<4, $ma, $mb, false>(side_a, side_b);
            true
        }};
    }
    macro_rules! extended {
        ($ma:literal, $mb:literal) => {{
            run_quad_spec::<4, $ma, $mb, true>(side_a, side_b);
            true
        }};
    }
    debug_assert_eq!(side_a.0.ext, side_a.1.ext);
    let counts = (side_a.0.meta.len(), side_a.1.meta.len());
    pair_shapes!(side_a.0.ext, counts, plain, extended)
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
            if a1.pairs_with(a2) {
                let side_a = (a1, a2, &addrs_a[..], &lanes_a[..], &mut *bank_a);
                let side_b = (b1, b2, &addrs_b[..], &lanes_b[..], &mut *bank_b);
                if run_quad(side_a, side_b) {
                    i += 2;
                    continue;
                }
            }
        }
        classes_a[i].run::<false>(addrs_a, lanes_a, bank_a);
        classes_b[i].run::<false>(addrs_b, lanes_b, bank_b);
        i += 1;
    }
}
