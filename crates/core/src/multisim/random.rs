//! The fixed-way runner FIFO and Random share.
//!
//! Under both policies a block keeps the physical way it was filled
//! into until it is evicted: a hit touches only that way's mask row, and
//! a miss fills the victim way in place. Block word `w` of a set owns
//! mask row `w`, so no permutation is needed, and the probe, the member
//! step and the eviction charge are the same for both policies. They
//! differ only in how a miss picks its victim (a [`Victim`]):
//!
//! * **FIFO** — the direct simulator's set fills its first empty frame
//!   and hits never touch its queue, so the frames are filled in order
//!   0, 1, …, A−1 and then evicted in that same order, over and over. The
//!   queue is therefore a per-set round-robin pointer, which also names
//!   the first empty frame while the set fills. It lives in the per-set
//!   word LRU uses for its permutation.
//! * **Random** — the direct simulator gives every cache its own
//!   generator, seeded identically, and draws from it only on a block
//!   miss in a full set. Configurations in one residency class see the
//!   identical sequence of (miss, set-full) events in trace order, so
//!   their caches consume identical draw sequences and pick the same
//!   victims forever. One generator per class therefore reproduces every
//!   member cache's decisions exactly, and the engine stays bit-identical
//!   to [`simulate`](crate::simulate) — not merely statistically alike.
//!   Present frames are a prefix of the set, so the first empty frame is
//!   the number of non-[`EMPTY_WAY`] ways, counted in the same probe. The
//!   drawn victim index *is* the physical frame index, exactly what
//!   `gen_range` produces in the direct simulator.
//!
//! Each victim rule is a [`Step`] through a blanket impl, so the fixed-way
//! runner rides the same shape table, class-pair interleave and generic
//! fallback as LRU. The two Random classes of an interleaved class pair
//! each draw from their own generator.

use rand::rngs::StdRng;
use rand::Rng;

use super::{
    charge_eviction, touch_members, ClassState, CounterBank, Members, SpecCtx, Step, EMPTY_WAY,
};

/// How a fixed-way policy picks the way a block miss fills.
pub(super) trait Victim {
    /// The way to fill in a set of `ways` ways, `filled` of them holding
    /// a block; `next` is the set's per-set word.
    fn pick(&mut self, next: &mut u64, filled: usize, ways: usize) -> usize;
}

/// FIFO's victim rule: the per-set round-robin pointer.
#[derive(Debug, Clone, Copy)]
pub(super) struct Fifo;

impl Victim for Fifo {
    #[inline(always)]
    fn pick(&mut self, next: &mut u64, _filled: usize, ways: usize) -> usize {
        // Ways are a power of two (a power-of-two block count over a
        // power-of-two set count), so the wrap is a mask.
        let way = *next as usize & (ways - 1);
        *next = ((way + 1) & (ways - 1)) as u64;
        way
    }
}

/// Random's victim rule: the first empty way while the set fills, then
/// the class generator's draw.
impl Victim for StdRng {
    #[inline(always)]
    fn pick(&mut self, _next: &mut u64, filled: usize, ways: usize) -> usize {
        if filled < ways {
            filled
        } else {
            self.gen_range(0..ways)
        }
    }
}

impl<V: Victim> Step for V {
    /// The specialised fixed-way step: probe every way, touch the hit
    /// way's masks, or fill the victim way in place.
    #[inline(always)]
    fn visit<const WAYS: usize, const M: usize, const EXT: bool>(
        &mut self,
        ctx: &mut SpecCtx<'_, M, EXT>,
        a: u64,
        wmask: u64,
    ) {
        let way_words = M * Members::<M, EXT>::WORDS;
        let row_words = WAYS * (1 + way_words);
        let block = a >> ctx.shift;
        let set = (block & ctx.set_mask) as usize;
        let base = set * row_words;
        let row = &mut ctx.data[base..base + row_words];
        let off = ((a >> ctx.min_shift) & ctx.off_mask) as usize;
        // Probe every way, counting the filled ones on the way (Random's
        // first empty way; FIFO ignores it and the count compiles out).
        let mut j = usize::MAX;
        let mut filled = 0;
        #[allow(clippy::needless_range_loop)] // select scan: stay branch-free
        for t in 0..WAYS {
            if row[t] == block {
                j = t;
            }
            filled += usize::from(row[t] != EMPTY_WAY);
        }
        if j != usize::MAX {
            ctx.members
                .touch(row, WAYS + j * way_words, off, u64::MAX, wmask);
            return;
        }
        let way = self.pick(&mut ctx.perms[set], filled, WAYS) & (WAYS - 1);
        let mrow = WAYS + way * way_words;
        if row[way] != EMPTY_WAY {
            ctx.members.evict(row, mrow);
        }
        row[way] = block;
        ctx.members.touch(row, mrow, off, 0, wmask);
    }

    /// The generic fixed-way step, for shapes the specialised runners
    /// do not cover (16 ways, more than 32 sub-blocks per block, wide
    /// member counts).
    #[inline(always)]
    fn one<const EXT: bool>(
        &mut self,
        class: &mut ClassState,
        a: u64,
        lane: usize,
        bank: &mut CounterBank,
    ) {
        debug_assert_eq!(class.ext, EXT);
        let words = class.mask_words();
        let ways = class.assoc;
        let block = a >> class.shift;
        let set = (block & class.mask) as usize;
        let base = set * ways * (1 + words);
        let row = &mut class.data[base..base + ways * (1 + words)];
        // Probe every way (sentinels never match; resident block numbers
        // are distinct, so no early exit is needed).
        let mut j = usize::MAX;
        let mut filled = 0;
        #[allow(clippy::needless_range_loop)] // select scan: stay branch-free
        for t in 0..ways {
            if row[t] == block {
                j = t;
            }
            filled += usize::from(row[t] != EMPTY_WAY);
        }
        let hit = j != usize::MAX;
        let way = if hit {
            j
        } else {
            self.pick(&mut class.perm[set], filled, ways)
        };
        let mrow = ways + way * words;
        if !hit && row[way] != EMPTY_WAY {
            charge_eviction::<EXT>(&class.meta, row, mrow, bank);
        }
        row[way] = block;
        let keep = u64::from(hit).wrapping_neg();
        touch_members::<EXT>(&class.meta, row, mrow, a, keep, lane, bank);
    }
}
