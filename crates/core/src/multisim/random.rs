//! The Random policy's chunk runner: a seeded, deterministic
//! replication of the direct simulator's random replacement.
//!
//! Random replacement has no stack structure to exploit, but the
//! residency-class argument still holds — and extends to the random
//! draws themselves. The direct simulator gives every cache its own
//! generator, seeded identically, and draws from it only on a
//! block miss in a full set. Configurations in one residency class see
//! the identical sequence of (miss, set-full) events in trace order, so
//! their caches consume identical draw sequences from identically
//! seeded generators and pick the same victims forever. One generator
//! per class therefore reproduces every member cache's decisions
//! exactly, and the engine stays bit-identical to
//! [`simulate`](crate::simulate) — not merely statistically alike.
//!
//! Unlike the LRU and FIFO runners, blocks keep **fixed physical positions**:
//! fills take the first empty way in order (the direct simulator's
//! fill-the-first-empty-frame rule, tracked by a per-set fill count),
//! replacements overwrite the drawn way in place, and the permutation
//! word stays at identity — mask row `w` simply belongs to physical
//! way `w`. The drawn victim index *is* the physical frame index, which
//! is exactly what `gen_range` produces in the direct simulator.

use rand::rngs::StdRng;
use rand::Rng;

use super::{charge_eviction, touch_members, ClassState, CounterBank, EMPTY_WAY};

/// One chunk through one residency class: probe physically, fill the
/// first empty way, or replace the drawn way in place.
pub(super) fn run_class(
    class: &mut ClassState,
    filled: &mut [u16],
    rng: &mut StdRng,
    addrs: &[u64],
    lanes: &[u8],
    bank: &mut CounterBank,
) {
    if class.ext {
        run_class_as::<true>(class, filled, rng, addrs, lanes, bank);
    } else {
        run_class_as::<false>(class, filled, rng, addrs, lanes, bank);
    }
}

/// [`run_class`] for one sub-block rule.
fn run_class_as<const EXT: bool>(
    class: &mut ClassState,
    filled: &mut [u16],
    rng: &mut StdRng,
    addrs: &[u64],
    lanes: &[u8],
    bank: &mut CounterBank,
) {
    let words = class.mask_words();
    let ClassState {
        shift,
        mask,
        assoc,
        meta,
        data,
        ..
    } = class;
    let shift = *shift;
    let set_mask = *mask;
    let ways = *assoc;
    let row_words = ways * (1 + words);
    for (&a, &lane) in addrs.iter().zip(lanes) {
        let block = a >> shift;
        let set = (block & set_mask) as usize;
        let base = set * row_words;
        let row = &mut data[base..base + row_words];
        // Probe every way (sentinels never match; resident block
        // numbers are distinct, so no early exit is needed).
        let mut j = usize::MAX;
        #[allow(clippy::needless_range_loop)] // select scan: stay branch-free
        for t in 0..ways {
            if row[t] == block {
                j = t;
            }
        }
        let hit = j != usize::MAX;
        // Hit way; else first empty frame in fill order; else the
        // generator's draw — consumed *only* on a full-set miss, which
        // is what keeps the draw sequence identical to every member
        // cache's own generator.
        let way = if hit {
            j
        } else if usize::from(filled[set]) < ways {
            filled[set] += 1;
            usize::from(filled[set]) - 1
        } else {
            rng.gen_range(0..ways)
        };
        let mrow = ways + way * words;
        if !hit && row[way] != EMPTY_WAY {
            charge_eviction::<EXT>(meta, row, mrow, bank);
        }
        row[way] = block;
        let keep = u64::from(hit).wrapping_neg();
        touch_members::<EXT>(meta, row, mrow, a, keep, usize::from(lane), bank);
    }
}
