//! The fixed-way runner LRU, FIFO and Random share.
//!
//! Under every policy a block keeps the physical way it was filled into
//! until it is evicted: a hit touches only that way's mask row, and a
//! miss fills the victim way in place. Block word `w` of a set owns mask
//! row `w`, so the probe, the member step and the eviction charge are the
//! same for all three policies. They differ only in their use of the
//! set's one word of policy state — which way a miss fills, and what a
//! hit records (a [`Step`]'s `pick` and `hit`):
//!
//! * **LRU** — the per-set word is the rank→way permutation: sixteen
//!   4-bit fields, rank 0 the most recently used way. A hit promotes its
//!   way's rank, found among the permutation's low `A` fields; a miss
//!   fills the way at rank A−1 and promotes it. Sentinel ways are never
//!   hit, so they sink to the bottom ranks and fill before any real block
//!   is evicted, as the direct simulator fills its empty frames first;
//!   once the set is full the victim is its least recently used block.
//!   Which physical way a block sits in never shows in the metrics.
//! * **FIFO** — the direct simulator's set fills its first empty frame
//!   and hits never touch its queue, so the frames are filled in order
//!   0, 1, …, A−1 and then evicted in that same order, over and over. The
//!   queue is therefore a per-set round-robin pointer, which also names
//!   the first empty frame while the set fills.
//! * **Random** — the direct simulator gives every cache its own
//!   generator, seeded identically, and draws from it only on a block
//!   miss in a full set. Configurations in one residency class see the
//!   identical sequence of (miss, set-full) events in trace order, so
//!   their caches consume identical draw sequences and pick the same
//!   victims forever. One generator per class therefore reproduces every
//!   member cache's decisions exactly, and the engine stays bit-identical
//!   to [`simulate`](crate::simulate) — not merely statistically alike.
//!   Present frames are a prefix of the set, so the first empty frame is
//!   the number of non-[`EMPTY_WAY`] ways, counted on a miss. The drawn
//!   victim index *is* the physical frame index, exactly what
//!   `gen_range` produces in the direct simulator. The per-set word is
//!   unused.
//!
//! The two Random classes of an interleaved class pair each draw from
//! their own generator.

use rand::rngs::StdRng;
use rand::Rng;

use super::{
    charge_eviction, promote, touch_members, ClassState, CounterBank, Members, SpecCtx, EMPTY_WAY,
};

/// A replacement policy on the fixed-way runner: its two hooks into the
/// per-set word, and the per-reference steps built around them — the
/// one thing the chunk schedulers (`run_classes`, `run_pair_spec`,
/// `ClassState::run`) are generic over. An implementor carries the
/// per-class state its policy needs — none for LRU and FIFO, the class's
/// generator for Random — and the schedulers hand each class its own.
pub(super) trait Step {
    /// The way a block miss fills in the set whose block words are
    /// `blocks` (one per way, [`EMPTY_WAY`] where none is held); `word`
    /// is the set's per-set word.
    fn pick(&mut self, word: &mut u64, blocks: &[u64]) -> usize;

    /// Records a hit on `way` of a `ways`-way set in its per-set word.
    /// Only LRU's recency moves on a hit.
    #[inline(always)]
    fn hit(&mut self, _word: &mut u64, _way: usize, _ways: usize) {}

    /// The shape-specialised step, one reference through `ctx`: probe
    /// every way, touch the hit way's masks, or fill the victim way in
    /// place.
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
        // Probe every way (sentinels never match; resident block numbers
        // are distinct, so no early exit is needed).
        let mut j = usize::MAX;
        #[allow(clippy::needless_range_loop)] // select scan: stay branch-free
        for t in 0..WAYS {
            if row[t] == block {
                j = t;
            }
        }
        if j != usize::MAX {
            self.hit(&mut ctx.perms[set], j, WAYS);
            ctx.members
                .touch(row, WAYS + j * way_words, off, u64::MAX, wmask);
            return;
        }
        let way = self.pick(&mut ctx.perms[set], &row[..WAYS]) & (WAYS - 1);
        let mrow = WAYS + way * way_words;
        if row[way] != EMPTY_WAY {
            ctx.members.evict(row, mrow);
        }
        row[way] = block;
        ctx.members.touch(row, mrow, off, 0, wmask);
    }

    /// The generic step, one reference (`lane` 1 = counted, 0 = data
    /// write) through `class`, for shapes the specialised runners do not
    /// cover (16 ways, more than 32 sub-blocks per block, wide member
    /// counts).
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
        let mut j = usize::MAX;
        #[allow(clippy::needless_range_loop)] // select scan: stay branch-free
        for t in 0..ways {
            if row[t] == block {
                j = t;
            }
        }
        let hit = j != usize::MAX;
        let word = &mut class.perm[set];
        let way = if hit {
            self.hit(word, j, ways);
            j
        } else {
            self.pick(word, &row[..ways])
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

/// LRU's rule: the per-set rank→way permutation.
#[derive(Debug, Clone, Copy)]
pub(super) struct Lru;

impl Step for Lru {
    #[inline(always)]
    fn pick(&mut self, perm: &mut u64, blocks: &[u64]) -> usize {
        // The least recent way, which the fill makes the most recent.
        let last = blocks.len() - 1;
        let way = (*perm >> (4 * last)) as usize & 15;
        *perm = promote(*perm, last);
        way
    }

    #[inline(always)]
    fn hit(&mut self, perm: &mut u64, way: usize, ways: usize) {
        // The hit way's rank: a select scan over the low `ways` fields,
        // rank 0 unless a later field names the way.
        let mut rank = 0;
        for r in 1..ways {
            if (*perm >> (4 * r)) as usize & 15 == way {
                rank = r;
            }
        }
        *perm = promote(*perm, rank);
    }
}

/// FIFO's rule: the per-set round-robin pointer.
#[derive(Debug, Clone, Copy)]
pub(super) struct Fifo;

impl Step for Fifo {
    #[inline(always)]
    fn pick(&mut self, next: &mut u64, blocks: &[u64]) -> usize {
        // Ways are a power of two (a power-of-two block count over a
        // power-of-two set count), so the wrap is a mask.
        let ways = blocks.len();
        let way = *next as usize & (ways - 1);
        *next = ((way + 1) & (ways - 1)) as u64;
        way
    }
}

/// Random's rule: the first empty way while the set fills, then the
/// class generator's draw.
impl Step for StdRng {
    #[inline(always)]
    fn pick(&mut self, _word: &mut u64, blocks: &[u64]) -> usize {
        let filled = blocks.iter().filter(|&&b| b != EMPTY_WAY).count();
        if filled < blocks.len() {
            filled
        } else {
            self.gen_range(0..blocks.len())
        }
    }
}
