//! One-pass multi-configuration simulation, policy-generic.
//!
//! A *slice* is a set of configurations sharing power-of-two set counts
//! and one replacement policy — net size, block size, sub-block size,
//! word size, associativity, fetch policy (demand or load-forward) and
//! write policy (write-through or copy-back) may all differ per
//! configuration. For such a slice a single pass over a trace yields
//! every configuration's metrics, bit-identical to running
//! [`simulate`](crate::simulate) once per configuration.
//! [`simulate_many`] is the one entry point: it takes a slice, any
//! number of traces, a warm-up and a seed, and returns each trace's
//! per-configuration metrics.
//!
//! Behind it sits one engine type whose replacement policy picks the
//! chunk runner, once per chunk of references:
//!
//! * **LRU** — the Mattson-style stack simulation, permutation-packed
//!   recency per set.
//! * **FIFO** and **Random** — one fixed-way runner (the `random`
//!   module): blocks keep the physical way they were filled into, a hit
//!   touches only that way's sub-block masks, and a miss fills the
//!   victim way in place. The two policies differ only in the victim.
//!   FIFO has no inclusion property across associativities (CIPARSim's
//!   intersection property degenerates to exact class sharing), but
//!   hits never disturb its queue, so with fixed ways the queue is a
//!   per-set round-robin pointer. Random replicates the direct
//!   simulator's per-cache RNG exactly, one seeded generator per
//!   residency class, drawn only on a full-set miss.
//!
//! [`simulate_many`] runs each trace alone, on its own clone of the
//! slice's fresh engine: warm-up, metrics reset, counted chunks,
//! read-out, then the next trace. Traces never share state.
//!
//! The machinery shared by the policies lives here: the deduplicated
//! **residency class** (`ClassState` — configurations with equal block
//! size, set count and associativity make identical residency and
//! victim decisions under LRU *and* FIFO, and share one RNG draw
//! sequence under Random, so they share block-level state), the
//! shape-specialised reference loops (`SpecCtx`, const-generic over
//! way count and member count, with an `EXT` flag selecting the
//! sub-block rule), the chunk schedulers every policy's `Step` plugs
//! into (single classes and interleaved 4-way class pairs), and the flat
//! per-configuration counter bank from which full [`Metrics`] are
//! reconstructed exactly.
//!
//! Sub-block bitmasks are kept **per configuration** for each resident
//! way, because evictions (which clear them) happen at different times
//! for different cache sizes. Fetch and write policy never change which
//! block is resident or which one is evicted, so they only select the
//! sub-block rule a class's members follow; the residency class key
//! carries that choice, so each class has one rule:
//!
//! * **Plain** classes (demand fetch + write-through members only): a
//!   sub-block is valid exactly when it has been referenced, so one mask
//!   word per (way, configuration) serves as both the valid and the
//!   referenced set, every counted miss loads one sub-block and every
//!   write writes through one word. The Table 7 grids run here.
//! * **Extended** classes (any member with load-forward or copy-back)
//!   keep three words per (way, configuration) — referenced, valid and
//!   dirty sub-blocks — and follow one rule (`ext_touch`) in every
//!   runner: a miss at sub-block `s` fills `s` alone under demand fetch
//!   or `s..slots` under load-forward, counting the loaded and, under
//!   the redundant variant, the re-fetched valid sub-blocks on counted
//!   references; a data write marks its sub-block dirty; an eviction
//!   charges the dirty sub-blocks as copy-back traffic.
//!
//! Empty ways hold a sentinel block number (`u64::MAX`, which no real
//! block can equal once blocks span at least two bytes), so sets are
//! always structurally full: the fill path is the eviction path with
//! its statistics gated on the victim being real, and the number of
//! non-sentinel ways is a set's fill count.
//!
//! What the engine cannot express (callers fall back to [`simulate`]):
//! the prefetch fetch policies (their pollution statistics need a
//! fourth, prefetched-but-unused mask, and under tagged prefetch a
//! *hit* can fetch, which no runner's hit path models), geometries whose set count is not a power
//! of two (bit-selection needs one), more than 16 ways (recency
//! permutations pack into 4-bit fields) and 1-byte blocks (block
//! numbers reserve the sentinel). The engine's equivalence to the
//! direct simulator is enforced by property tests in
//! `tests/multisim_equiv.rs` and `tests/policy_equiv.rs`.
//!
//! [`simulate`]: crate::simulate

use std::error::Error;
use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use occache_trace::{ChunkRead, RefChunk};

use crate::config::{CacheConfig, FetchPolicy, ReplacementPolicy, WritePolicy};
use crate::metrics::{EngineCounters, Metrics};

/// Dispatches two adjacent classes' sub-block rule and member counts
/// to `$plain!(MA, MB)` or `$extended!(MA, MB)` for every specialised
/// two-class shape, or to `false`: the shape table of the class-pair
/// interleave ([`run_pair`]). Plain classes specialise 1 to 6 members each;
/// extended classes only 1 or 2, the most any artifact or benchmark
/// grid puts in one (more shapes would mostly grow the binary).
macro_rules! pair_shapes {
    ($ext:expr, $counts:expr, $plain:ident, $extended:ident) => {
        match ($ext, $counts) {
            (false, (1, 1)) => $plain!(1, 1),
            (false, (1, 2)) => $plain!(1, 2),
            (false, (1, 3)) => $plain!(1, 3),
            (false, (1, 4)) => $plain!(1, 4),
            (false, (1, 5)) => $plain!(1, 5),
            (false, (1, 6)) => $plain!(1, 6),
            (false, (2, 1)) => $plain!(2, 1),
            (false, (2, 2)) => $plain!(2, 2),
            (false, (2, 3)) => $plain!(2, 3),
            (false, (2, 4)) => $plain!(2, 4),
            (false, (2, 5)) => $plain!(2, 5),
            (false, (2, 6)) => $plain!(2, 6),
            (false, (3, 1)) => $plain!(3, 1),
            (false, (3, 2)) => $plain!(3, 2),
            (false, (3, 3)) => $plain!(3, 3),
            (false, (3, 4)) => $plain!(3, 4),
            (false, (3, 5)) => $plain!(3, 5),
            (false, (3, 6)) => $plain!(3, 6),
            (false, (4, 1)) => $plain!(4, 1),
            (false, (4, 2)) => $plain!(4, 2),
            (false, (4, 3)) => $plain!(4, 3),
            (false, (4, 4)) => $plain!(4, 4),
            (false, (4, 5)) => $plain!(4, 5),
            (false, (4, 6)) => $plain!(4, 6),
            (false, (5, 1)) => $plain!(5, 1),
            (false, (5, 2)) => $plain!(5, 2),
            (false, (5, 3)) => $plain!(5, 3),
            (false, (5, 4)) => $plain!(5, 4),
            (false, (5, 5)) => $plain!(5, 5),
            (false, (5, 6)) => $plain!(5, 6),
            (false, (6, 1)) => $plain!(6, 1),
            (false, (6, 2)) => $plain!(6, 2),
            (false, (6, 3)) => $plain!(6, 3),
            (false, (6, 4)) => $plain!(6, 4),
            (false, (6, 5)) => $plain!(6, 5),
            (false, (6, 6)) => $plain!(6, 6),
            (true, (1, 1)) => $extended!(1, 1),
            (true, (1, 2)) => $extended!(1, 2),
            (true, (2, 1)) => $extended!(2, 1),
            (true, (2, 2)) => $extended!(2, 2),
            _ => false,
        }
    };
}

mod random;

use random::Fifo;

/// Maximum configurations one engine instance simulates per pass.
///
/// Deduplicated residency classes make the residency cost per pass
/// depend on the distinct (block size, set count, associativity)
/// triples, not the slice width, so wide slices amortise the probes —
/// and the single pass over the trace — across more configurations
/// almost for free. The width is still bounded so the per-configuration
/// counter bank stays a few cache lines; planners chunk larger grids
/// into runs of at most this many.
pub const MAX_MULTISIM_CONFIGS: usize = 64;

/// Why a configuration (or a slice of them) cannot run on the one-pass
/// engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultiSimError {
    /// No configurations were given.
    NoConfigs,
    /// More than [`MAX_MULTISIM_CONFIGS`] configurations in one slice.
    TooManyConfigs {
        /// How many were given.
        given: usize,
    },
    /// A configuration uses a policy or geometry the engine cannot
    /// express; use the direct simulator for it.
    Unsupported {
        /// The offending configuration.
        config: CacheConfig,
        /// What exactly is unsupported.
        why: &'static str,
    },
}

impl fmt::Display for MultiSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultiSimError::NoConfigs => f.write_str("no configurations to simulate"),
            MultiSimError::TooManyConfigs { given } => write!(
                f,
                "at most {MAX_MULTISIM_CONFIGS} configurations per one-pass slice, got {given}"
            ),
            MultiSimError::Unsupported { config, why } => {
                write!(f, "{config}: {why}")
            }
        }
    }
}

impl Error for MultiSimError {}

/// Which replacement policy a one-pass slice runs under — one per
/// policy the direct simulator implements. Planners label engine slices
/// with it (progress feeds, run reports, per-policy kill switches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EngineKind {
    /// The permutation-packed LRU stack runner.
    Lru,
    /// The fixed-way runner with a round-robin FIFO victim.
    Fifo,
    /// The fixed-way runner with a seeded deterministic Random victim.
    Random,
}

impl EngineKind {
    /// Every engine kind, in planner dispatch order.
    pub const ALL: [EngineKind; 3] = [EngineKind::Lru, EngineKind::Fifo, EngineKind::Random];

    /// Stable lowercase name (environment knobs, progress feeds,
    /// metrics labels).
    pub fn as_str(self) -> &'static str {
        match self {
            EngineKind::Lru => "lru",
            EngineKind::Fifo => "fifo",
            EngineKind::Random => "random",
        }
    }

    /// Dense index into per-kind count arrays (`ALL[k.index()] == k`).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Parses a lowercase engine name as produced by
    /// [`as_str`](EngineKind::as_str) (case-insensitive).
    pub fn parse(s: &str) -> Option<EngineKind> {
        EngineKind::ALL
            .into_iter()
            .find(|k| s.eq_ignore_ascii_case(k.as_str()))
    }

    /// The policy under which `config` runs in one pass, or `None` when
    /// only the direct simulator can (prefetch, non-power-of-two sets,
    /// more than 16 ways, 1-byte blocks; see [`engine_supports`]).
    pub fn for_config(config: &CacheConfig) -> Option<EngineKind> {
        if supports_or_reason(config).is_some() {
            return None;
        }
        Some(match config.replacement() {
            ReplacementPolicy::Lru => EngineKind::Lru,
            ReplacementPolicy::Fifo => EngineKind::Fifo,
            ReplacementPolicy::Random => EngineKind::Random,
        })
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Whether a single configuration is expressible on some one-pass
/// engine: any replacement policy, demand or load-forward fetch (either
/// variant), write-through or copy-back, over a power-of-two set count
/// of at most 16 ways and blocks of at least 2 bytes.
///
/// Configurations failing this — prefetch, non-power-of-two set counts,
/// more than 16 ways, 1-byte blocks — must run on the direct simulator;
/// see the module docs for why each exclusion exists.
pub fn engine_supports(config: &CacheConfig) -> bool {
    supports_or_reason(config).is_none()
}

fn supports_or_reason(config: &CacheConfig) -> Option<&'static str> {
    if let FetchPolicy::PrefetchNext { .. } = config.fetch() {
        return Some(
            "one-pass simulation does not model prefetch (its hits can fetch, and its \
             pollution statistics need a prefetched-but-unused mask)",
        );
    }
    let sets = config.num_sets();
    if !sets.is_power_of_two() || sets * config.effective_associativity() != config.num_blocks() {
        return Some("one-pass simulation requires a power-of-two set count");
    }
    if config.block_size() < 2 {
        return Some(
            "one-pass simulation requires block size >= 2 (block numbers reserve a sentinel)",
        );
    }
    if config.effective_associativity() > 16 {
        return Some(
            "one-pass simulation caps associativity at 16 ways (recency permutations pack into 4-bit fields)",
        );
    }
    None
}

/// Per-configuration eviction/miss accumulators plus the two slice-wide
/// access counters, kept as flat arrays so the per-size hot loops touch
/// a handful of cache lines instead of one `Metrics` struct per size.
#[derive(Debug, Clone, Copy)]
struct CounterBank {
    /// Counted accesses — identical for every configuration in a slice,
    /// so one scalar stands in for all of them.
    accesses: u64,
    /// Data writes — likewise slice-wide; write-through bytes are
    /// `write_accesses * word_size` per configuration at read-out.
    write_accesses: u64,
    /// Miss counters in two lanes — `miss[1]` counted (read/fetch)
    /// misses, `miss[0]` data-write misses — so the hot loops pick a
    /// lane by index instead of by branch.
    miss: [[u64; MAX_MULTISIM_CONFIGS]; 2],
    evicted_blocks: [u64; MAX_MULTISIM_CONFIGS],
    /// Referenced sub-blocks summed over evictions (the unreferenced
    /// count is `evicted_blocks * slots` minus this, per configuration).
    evicted_referenced: [u64; MAX_MULTISIM_CONFIGS],
    /// Extended classes only: sub-blocks loaded on counted misses (a
    /// plain class loads exactly one per counted miss).
    loads: [u64; MAX_MULTISIM_CONFIGS],
    /// Extended classes only: of `loads`, re-fetches of valid sub-blocks.
    redundant: [u64; MAX_MULTISIM_CONFIGS],
    /// Extended classes only: dirty sub-blocks summed over evictions.
    evicted_dirty: [u64; MAX_MULTISIM_CONFIGS],
}

impl Default for CounterBank {
    // Derived `Default` needs `[u64; N]: Default`, which the standard
    // library only provides up to 32 elements.
    fn default() -> Self {
        CounterBank {
            accesses: 0,
            write_accesses: 0,
            miss: [[0; MAX_MULTISIM_CONFIGS]; 2],
            evicted_blocks: [0; MAX_MULTISIM_CONFIGS],
            evicted_referenced: [0; MAX_MULTISIM_CONFIGS],
            loads: [0; MAX_MULTISIM_CONFIGS],
            redundant: [0; MAX_MULTISIM_CONFIGS],
            evicted_dirty: [0; MAX_MULTISIM_CONFIGS],
        }
    }
}

/// What the per-size update loop needs about one configuration of a
/// class, packed so the loop reads it sequentially.
#[derive(Debug, Clone, Copy)]
struct SizeMeta {
    /// Index of the configuration within the slice (counter bank slot).
    si: u8,
    /// log2 of the sub-block size.
    sub_shift: u32,
    /// `sub_blocks_per_block - 1`: selects the sub-slot bit index from
    /// the shifted address.
    slot_mask: u64,
    /// All-ones under load-forward (a miss fills from the referenced
    /// sub-block to the end of the block), zero under demand fetch.
    forward: u64,
    /// All-ones under redundant load-forward (`remember_valid: false`),
    /// whose forward fill re-fetches the sub-blocks already valid.
    refetch: u64,
}

impl SizeMeta {
    fn new(si: usize, config: &CacheConfig) -> SizeMeta {
        let (forward, refetch) = match config.fetch() {
            FetchPolicy::LoadForward { remember_valid } => {
                (u64::MAX, u64::from(remember_valid).wrapping_sub(1))
            }
            _ => (0, 0),
        };
        SizeMeta {
            si: si as u8,
            sub_shift: config.sub_block_size().trailing_zeros(),
            slot_mask: config.sub_blocks_per_block() - 1,
            forward,
            refetch,
        }
    }

    /// The sub-block bit address `a` falls in.
    #[inline(always)]
    fn bit(&self, a: u64) -> u64 {
        1u64 << ((a >> self.sub_shift) & self.slot_mask)
    }

    /// The sub-blocks a miss on sub-block `bit` fills: `bit` alone
    /// under demand fetch, `bit` through the block's last sub-block
    /// under load-forward.
    #[inline(always)]
    fn fill(&self, bit: u64) -> u64 {
        let block = u64::MAX >> (63 - self.slot_mask);
        bit | (block & !(bit - 1) & self.forward)
    }
}

/// Whether `config` needs an extended residency class: load-forward
/// fetch or copy-back writes, whose sub-block state is more than the
/// referenced set.
fn is_extended(config: &CacheConfig) -> bool {
    config.fetch() != FetchPolicy::Demand || config.write_policy() != WritePolicy::WriteThrough
}

/// Mask words per (way, member) in an extended class: the referenced,
/// valid and dirty sub-blocks, in that order. A plain class keeps only
/// the first.
const EXT_WORDS: usize = 3;

/// What one member counted for one reference under [`ext_touch`].
struct ExtTouch {
    /// 1 when the referenced sub-block was not valid.
    missed: u64,
    /// Sub-blocks loaded, on counted references only.
    loads: u64,
    /// Of those, re-fetches of already-valid sub-blocks.
    redundant: u64,
}

/// The extended sub-block rule, the one every runner applies to an
/// extended class's members: presents a reference to sub-block `bit` to
/// the member's `[referenced, valid, dirty]` words at `row[at..at + 3]`,
/// the way `cache.rs`'s access and fill do.
///
/// `keep` is all-ones when the block was resident and zero when it is
/// being (re)filled, which clears the victim's masks. `fill` is
/// [`SizeMeta::fill`] of `bit` and `refetch` the member's
/// [`SizeMeta::refetch`]. `wmask` is all-ones for a data write, which
/// dirties the sub-block and counts no loads; counted references count
/// the fill's loads and redundant re-fetches.
#[inline(always)]
fn ext_touch(
    row: &mut [u64],
    at: usize,
    bit: u64,
    fill: u64,
    refetch: u64,
    keep: u64,
    wmask: u64,
) -> ExtTouch {
    let referenced = row[at] & keep;
    let valid = row[at + 1] & keep;
    let dirty = row[at + 2] & keep;
    row[at] = referenced | bit;
    row[at + 2] = dirty | (bit & wmask);
    if valid & bit != 0 {
        row[at + 1] = valid;
        return ExtTouch {
            missed: 0,
            loads: 0,
            redundant: 0,
        };
    }
    // A miss: rare enough that the population counts stay off the hit
    // path.
    let counted = !wmask;
    row[at + 1] = valid | fill;
    ExtTouch {
        missed: 1,
        loads: u64::from((fill & (!valid | refetch)).count_ones()) & counted,
        redundant: u64::from((fill & valid & refetch).count_ones()) & counted,
    }
}

/// Presents address `a` to every member's masks of one way — the mask
/// row at `mrow` — through the class's sub-block rule, counting into
/// the bank: the per-member step of the generic per-reference steps
/// (LRU's [`ClassState::one`] and the fixed-way one). `keep` is as for
/// [`ext_touch`]; `lane` is 1 for counted references, 0 for data writes.
#[inline(always)]
fn touch_members<const EXT: bool>(
    meta: &[SizeMeta],
    row: &mut [u64],
    mrow: usize,
    a: u64,
    keep: u64,
    lane: usize,
    bank: &mut CounterBank,
) {
    let wmask = (lane as u64 & 1).wrapping_sub(1);
    let miss_ctr = &mut bank.miss[lane];
    for (w, sm) in meta.iter().enumerate() {
        let bit = sm.bit(a);
        let si = usize::from(sm.si) & (MAX_MULTISIM_CONFIGS - 1);
        if EXT {
            let at = mrow + EXT_WORDS * w;
            let t = ext_touch(row, at, bit, sm.fill(bit), sm.refetch, keep, wmask);
            miss_ctr[si] += t.missed;
            bank.loads[si] += t.loads;
            bank.redundant[si] += t.redundant;
        } else {
            let old = row[mrow + w] & keep;
            miss_ctr[si] += u64::from(old & bit == 0);
            row[mrow + w] = old | bit;
        }
    }
}

/// Records the eviction of the block whose member masks sit in the row
/// at `mrow`, for every member: its referenced sub-blocks and, in an
/// extended class, its dirty ones. Called before the refill overwrites
/// the victim's masks.
#[inline(always)]
fn charge_eviction<const EXT: bool>(
    meta: &[SizeMeta],
    row: &[u64],
    mrow: usize,
    bank: &mut CounterBank,
) {
    let words = if EXT { EXT_WORDS } else { 1 };
    for (w, sm) in meta.iter().enumerate() {
        let si = usize::from(sm.si);
        let at = mrow + words * w;
        bank.evicted_blocks[si] += 1;
        bank.evicted_referenced[si] += u64::from(row[at].count_ones());
        if EXT {
            bank.evicted_dirty[si] += u64::from(row[at + 2].count_ones());
        }
    }
}

/// Sentinel block number marking an unoccupied way.
///
/// With block size ≥ 2 (enforced by [`engine_supports`]) real block
/// numbers are at most `u64::MAX >> 1`, so the sentinel never collides
/// and sets can be treated as always full: the probe compares every way
/// and the fill path is the eviction path with its statistics masked
/// off.
const EMPTY_WAY: u64 = u64::MAX;

/// One deduplicated residency class: the set-mapped block-level state
/// shared by every configuration with this (block size, set count,
/// associativity) triple and sub-block rule.
///
/// Configurations in one class make identical fill and eviction
/// decisions under LRU and FIFO alike — sub-block state never feeds
/// back into block-level residency — so the class is policy-agnostic
/// storage and the policy lives in how the runners update it.
///
/// `data` packs each set as `[block_0 .. block_{A-1},
/// masks_0 .. masks_{A-1}]` — the `A` resident block numbers
/// contiguous (so the probe reads one cache line), followed by `A` rows
/// of member-configuration mask words (one per member in a plain
/// class, [`EXT_WORDS`] per member in an extended one) in **physical**
/// order. Under LRU the block words are in recency order, most recent
/// first. Mask rows never move: moving a block rotates only the block
/// words, and the per-set entry of `perm` — sixteen 4-bit fields
/// mapping stack rank to physical mask row — is updated instead.
/// Rotating the mask rows too would make every promotion copy every
/// mask word through a store-to-load-forwarding chain; one
/// packed-permutation word update replaces all of that traffic. Under
/// FIFO and Random block word `w` simply belongs to mask row `w` (see
/// [`random`]). Unoccupied ways hold [`EMPTY_WAY`] with zero masks, so
/// every set is structurally full and the hot path never consults an
/// occupancy count.
#[derive(Debug, Clone)]
struct ClassState {
    /// log2 of the block size: addresses shift down by this to become
    /// this class's block numbers.
    shift: u32,
    /// `num_sets - 1`: bit-selection set index mask over block numbers.
    mask: u64,
    /// Effective associativity (ways per set).
    assoc: usize,
    /// Whether members follow the extended sub-block rule
    /// ([`ext_touch`]) rather than the plain one.
    ext: bool,
    /// The slice configurations belonging to this class.
    meta: Vec<SizeMeta>,
    /// `num_sets * assoc * (1 + mask_words())` words of per-set state
    /// (see the struct docs for the layout).
    data: Vec<u64>,
    /// One word per set. LRU: the rank→physical-mask-row permutation,
    /// 4 bits per rank (which is why the engine caps associativity at
    /// 16 ways). FIFO: the next victim way, a round-robin pointer.
    /// Random: unused.
    perm: Vec<u64>,
}

/// The identity permutation: rank `r` maps to physical row `r`.
const IDENT_PERM: u64 = 0xFEDC_BA98_7654_3210;

/// Promotes rank `pos` of a packed permutation to rank 0, shifting
/// ranks `0..pos` up by one — the stack rotation, applied to the
/// 4-bit fields instead of the mask rows they name.
#[inline]
fn promote(perm: u64, pos: usize) -> u64 {
    let lo_mask = u64::MAX >> (60 - 4 * pos);
    let moved = (perm >> (4 * pos)) & 15;
    (perm & !lo_mask) | ((perm << 4) & lo_mask) | moved
}

/// Chunk-loop context for one class in a shape-specialised runner:
/// per-chunk geometry, borrowed set state, and the chunk-local member
/// tables and counters ([`Members`]).
///
/// Factoring the per-reference step into a method lets one reference
/// loop drive either a single class ([`ClassState::run_spec`]) or two
/// classes interleaved ([`run_pair_spec`]); see the latter for why
/// interleaving pays. [`SpecCtx::visit`] is the LRU stack step; the
/// fixed-way step FIFO and Random share lives in the `random` module.
/// The context's `EXT` flag selects the class's sub-block rule; with it
/// clear, the extended tables and counters are never touched and the
/// member step is the plain demand/write-through one.
struct SpecCtx<'a, const M: usize, const EXT: bool> {
    shift: u32,
    set_mask: u64,
    /// Finest member sub-block granularity; block offsets are taken at
    /// this grain when indexing the member tables.
    min_shift: u32,
    off_mask: u64,
    data: &'a mut [u64],
    perms: &'a mut [u64],
    members: Members<M, EXT>,
}

/// The member side of a [`SpecCtx`]: per-offset tables and chunk-local
/// counters, flushed once by [`Members::flush`].
///
/// The shared bank's slots are the same few addresses every reference,
/// and a read-modify-write there each iteration serialises the loop on
/// store-to-load forwarding. Total and write-lane-only counts (plain
/// arrays, no per-reference lane indexing) let the register allocator
/// keep them live.
struct Members<const M: usize, const EXT: bool> {
    /// Per-offset sub-block bit per member; see [`SpecCtx::new`].
    bit_table: [[u64; M]; 32],
    /// `EXT` only: per-offset [`SizeMeta::fill`] of each member's bit.
    fill_table: [[u64; M]; 32],
    /// `EXT` only: each member's [`SizeMeta::refetch`].
    refetch: [u64; M],
    /// Member slice indices, pre-masked so the flush indexes unchecked.
    si: [usize; M],
    miss_total: [u64; M],
    miss_write: [u64; M],
    evb: u64,
    evr: [u64; M],
    /// `EXT` only: loads, redundant loads and evicted dirty sub-blocks.
    loads: [u64; M],
    redundant: [u64; M],
    evd: [u64; M],
}

impl<const M: usize, const EXT: bool> Members<M, EXT> {
    /// Mask words per member in a way's mask row.
    const WORDS: usize = if EXT { EXT_WORDS } else { 1 };

    /// The member step for the way whose mask row starts at `mrow`, for
    /// a reference at block offset `off`: the plain demand/write-through
    /// rule, or [`ext_touch`]. `keep` is all-ones when that way's block
    /// was resident and zero when it is being (re)filled; `wmask` is
    /// all-ones for a data write.
    #[inline(always)]
    fn touch(&mut self, row: &mut [u64], mrow: usize, off: usize, keep: u64, wmask: u64) {
        let bits = &self.bit_table[off];
        if EXT {
            let fills = &self.fill_table[off];
            for w in 0..M {
                let at = mrow + EXT_WORDS * w;
                let t = ext_touch(row, at, bits[w], fills[w], self.refetch[w], keep, wmask);
                self.miss_total[w] += t.missed;
                self.miss_write[w] += t.missed & wmask;
                self.loads[w] += t.loads;
                self.redundant[w] += t.redundant;
            }
        } else {
            for w in 0..M {
                let bit = bits[w];
                let old = row[mrow + w] & keep;
                let missed = u64::from(old & bit == 0);
                self.miss_total[w] += missed;
                self.miss_write[w] += missed & wmask;
                row[mrow + w] = old | bit;
            }
        }
    }

    /// Charges the eviction of the real block whose masks start at
    /// `mrow`, read before the refill overwrites them.
    #[inline(always)]
    fn evict(&mut self, row: &[u64], mrow: usize) {
        self.evb += 1;
        for w in 0..M {
            let at = mrow + Self::WORDS * w;
            self.evr[w] += u64::from(row[at].count_ones());
            if EXT {
                self.evd[w] += u64::from(row[at + 2].count_ones());
            }
        }
    }

    /// Folds the chunk-local counters into the shared bank.
    fn flush(self, bank: &mut CounterBank) {
        for w in 0..M {
            let si = self.si[w];
            bank.miss[1][si] += self.miss_total[w] - self.miss_write[w];
            bank.miss[0][si] += self.miss_write[w];
            bank.evicted_blocks[si] += self.evb;
            bank.evicted_referenced[si] += self.evr[w];
            if EXT {
                bank.loads[si] += self.loads[w];
                bank.redundant[si] += self.redundant[w];
                bank.evicted_dirty[si] += self.evd[w];
            }
        }
    }
}

impl<'a, const M: usize, const EXT: bool> SpecCtx<'a, M, EXT> {
    /// Mask words per member in a way's mask row.
    const WORDS: usize = Members::<M, EXT>::WORDS;

    #[inline(always)]
    fn new<const WAYS: usize>(class: &'a mut ClassState) -> Self {
        debug_assert_eq!(class.assoc, WAYS);
        debug_assert_eq!(class.meta.len(), M);
        debug_assert_eq!(class.ext, EXT);
        let mut sub_shift = [0u32; M];
        let mut slot_mask = [0u64; M];
        let mut si = [0usize; M];
        let mut refetch = [0u64; M];
        for (w, sm) in class.meta.iter().enumerate() {
            sub_shift[w] = sm.sub_shift;
            slot_mask[w] = sm.slot_mask;
            refetch[w] = sm.refetch;
            // Slice indices are < MAX_MULTISIM_CONFIGS by construction;
            // the mask proves it to the optimiser so the counter
            // updates in `flush` index unchecked.
            si[w] = usize::from(sm.si) & (MAX_MULTISIM_CONFIGS - 1);
        }
        // Every member's sub-block bit depends only on the address's
        // offset within the block, and the offset has at most
        // block/min-sub ≤ 32 distinct values — so the two shifts and
        // the mask-and-shift per member per reference collapse to one
        // load from this table, rebuilt per chunk on the stack (≤ 1.5 KB,
        // L1-hot).
        let shift = class.shift;
        let min_shift = sub_shift.iter().copied().min().unwrap_or(0);
        let off_bits = shift - min_shift;
        debug_assert!(
            class.fits_bit_table(),
            "callers route wider classes to the generic step"
        );
        let off_mask = (1u64 << off_bits) - 1;
        let mut bit_table = [[0u64; M]; 32];
        let mut fill_table = [[0u64; M]; 32];
        for (off, bits) in bit_table.iter_mut().enumerate().take(1 << off_bits) {
            for w in 0..M {
                let slot = ((off as u64) >> (sub_shift[w] - min_shift)) & slot_mask[w];
                bits[w] = 1u64 << slot;
                if EXT {
                    fill_table[off][w] = class.meta[w].fill(bits[w]);
                }
            }
        }
        let set_mask = class.mask;
        let data = &mut class.data[..];
        let perms = &mut class.perm[..];
        // Two length proofs ahead of the reference loop: every set
        // index in a step is `block & set_mask`, so `base + row_words`
        // never exceeds `(set_mask + 1) * row_words` — with the
        // equalities pinned here the per-reference row slicing and
        // per-set word access compile without bounds checks.
        assert_eq!(
            data.len(),
            (set_mask as usize + 1) * (WAYS * (1 + M * Self::WORDS))
        );
        assert_eq!(perms.len(), set_mask as usize + 1);
        SpecCtx {
            shift,
            set_mask,
            min_shift,
            off_mask,
            data,
            perms,
            members: Members {
                bit_table,
                fill_table,
                refetch,
                si,
                miss_total: [0u64; M],
                miss_write: [0u64; M],
                evb: 0,
                evr: [0u64; M],
                loads: [0u64; M],
                redundant: [0u64; M],
                evd: [0u64; M],
            },
        }
    }

    /// Presents one reference to this class under LRU: the entire
    /// per-reference step of the specialised LRU runners.
    #[inline(always)]
    fn visit<const WAYS: usize>(&mut self, a: u64, wmask: u64) {
        let row_words = WAYS * (1 + M * Self::WORDS);
        let block = a >> self.shift;
        let set = (block & self.set_mask) as usize;
        let base = set * row_words;
        let data = &mut *self.data;
        let perms = &mut *self.perms;
        let row = &mut data[base..base + row_words];
        let off = ((a >> self.min_shift) & self.off_mask) as usize;
        // Top-two fast path: hits on the two newest ways cover both
        // straight-line reuse and the in-set ping-pong of two
        // interleaved streams (instruction fetches alternating with
        // data references), so this branch predicts far better than
        // a front-way-only check — and which of the two ways hit is
        // resolved with selects, not a second branch. Mask rows are
        // physical: only the hit way's row is touched, found through
        // the permutation word. A way-1 hit swaps the two front
        // permutation fields instead of moving any masks.
        let p = perms[set];
        if WAYS >= 2 {
            let h1 = row[1] == block;
            if row[0] == block || h1 {
                let phys0 = (p as usize) & (WAYS - 1);
                let phys1 = ((p >> 4) as usize) & (WAYS - 1);
                let mrow = WAYS + if h1 { phys1 } else { phys0 } * M * Self::WORDS;
                let b0 = row[0];
                row[0] = block;
                row[1] = if h1 { b0 } else { row[1] };
                let swapped = (p & !0xFF) | (((p & 15) << 4) | ((p >> 4) & 15));
                perms[set] = if h1 { swapped } else { p };
                self.members.touch(row, mrow, off, u64::MAX, wmask);
                return;
            }
        } else if row[0] == block {
            self.members.touch(row, WAYS, off, u64::MAX, wmask);
            return;
        }
        // Ways 0 and 1 were just probed (way 0 alone when WAYS is
        // 1), so the scan starts at 2 — empty for 1- and 2-way sets,
        // where falling through means a miss.
        let mut j = usize::MAX;
        #[allow(clippy::needless_range_loop)] // select scan: stay branch-free
        for t in 2..WAYS {
            if row[t] == block {
                j = t;
            }
        }
        let hit = j != usize::MAX;
        let pos = if hit { j } else { WAYS - 1 };
        let mrow = WAYS + (((p >> (4 * pos)) as usize) & (WAYS - 1)) * M * Self::WORDS;
        // Eviction of a real block is the rarest outcome; keeping
        // its statistics behind a branch spares the common paths
        // the victim-mask loads and counter read-modify-writes. The
        // victim's masks live in the row about to be refilled, read
        // here before the update overwrites them.
        if !hit && row[WAYS - 1] != EMPTY_WAY {
            self.members.evict(row, mrow);
        }
        // All-ones when hit: masks the old way's words so the miss
        // case sees zeros without a separate arm.
        let keep = u64::from(hit).wrapping_neg();
        self.members.touch(row, mrow, off, keep, wmask);
        // Shift block words right where their slot index is ≤ pos,
        // leave the rest: with const bounds this unrolls to pure
        // load/select/store, no branch on `pos`. The mask rows stay
        // put — the permutation promotion below is the whole of the
        // stack bookkeeping for them.
        for t in (1..WAYS).rev() {
            let shifted = row[t - 1];
            let kept = row[t];
            row[t] = if t <= pos { shifted } else { kept };
        }
        row[0] = block;
        perms[set] = promote(p, pos);
    }

    /// Folds the chunk-local counters into the shared bank.
    fn flush(self, bank: &mut CounterBank) {
        self.members.flush(bank);
    }
}

/// A replacement policy's per-reference step over one residency class:
/// the one thing the chunk schedulers ([`run_classes`],
/// [`run_pair_spec`], [`ClassState::run`]) are generic over. An
/// implementor carries the per-class state its policy needs — none for
/// LRU and FIFO, the class's generator for Random — and the schedulers
/// hand each class its own.
trait Step {
    /// The shape-specialised step: one reference through `ctx`.
    fn visit<const WAYS: usize, const M: usize, const EXT: bool>(
        &mut self,
        ctx: &mut SpecCtx<'_, M, EXT>,
        a: u64,
        wmask: u64,
    );

    /// The generic step, for shapes without a specialisation: one
    /// reference (`lane` 1 = counted, 0 = data write) through `class`.
    fn one<const EXT: bool>(
        &mut self,
        class: &mut ClassState,
        a: u64,
        lane: usize,
        bank: &mut CounterBank,
    );
}

/// LRU's [`Step`]: the permutation-packed stack update.
#[derive(Debug, Clone, Copy)]
struct Lru;

impl Step for Lru {
    #[inline(always)]
    fn visit<const WAYS: usize, const M: usize, const EXT: bool>(
        &mut self,
        ctx: &mut SpecCtx<'_, M, EXT>,
        a: u64,
        wmask: u64,
    ) {
        ctx.visit::<WAYS>(a, wmask);
    }

    #[inline(always)]
    fn one<const EXT: bool>(
        &mut self,
        class: &mut ClassState,
        a: u64,
        lane: usize,
        bank: &mut CounterBank,
    ) {
        class.one::<EXT>(a, lane, bank);
    }
}

/// Runs one pre-decoded chunk through two same-shape classes with
/// their per-reference steps interleaved in a single loop, each class
/// under its own step state (so two Random classes draw from their own
/// generators).
///
/// A class's step for reference `i+1` frequently chains on its step
/// for reference `i` through store-to-load forwarding — sequential
/// code keeps hitting the same set, so the per-set word and the
/// front block words are stored and immediately reloaded. Interleaving
/// two classes puts a second, fully independent dependency chain in
/// the out-of-order window, overlapping those stalls (and sharing the
/// one address load per reference). Running every class alone instead
/// raised the benchmark's median `wall_s` by 9% on `sweep-lru` (the four
/// Table 7 grids on the LRU engine), 16% on `sweep-policies` and 10% on
/// `paper-all` (2 vCPUs, 10 alternating pairs each).
fn run_pair_spec<const WAYS: usize, const MA: usize, const MB: usize, const EXT: bool, S: Step>(
    (first, first_step): (&mut ClassState, &mut S),
    (second, second_step): (&mut ClassState, &mut S),
    addrs: &[u64],
    lanes: &[u8],
    bank: &mut CounterBank,
) {
    let mut ca = SpecCtx::<MA, EXT>::new::<WAYS>(first);
    let mut cb = SpecCtx::<MB, EXT>::new::<WAYS>(second);
    for (&a, &lane) in addrs.iter().zip(lanes) {
        // All-ones for data writes (lane 0), zero for counted refs.
        let wmask = u64::from(lane & 1).wrapping_sub(1);
        first_step.visit::<WAYS, MA, EXT>(&mut ca, a, wmask);
        second_step.visit::<WAYS, MB, EXT>(&mut cb, a, wmask);
    }
    ca.flush(bank);
    cb.flush(bank);
}

/// Runs a chunk through two adjacent 4-way classes of one sub-block
/// rule with their loops interleaved, when a [`run_pair_spec`]
/// specialisation exists for their shape; returns whether it ran.
fn run_pair<S: Step>(
    a: (&mut ClassState, &mut S),
    b: (&mut ClassState, &mut S),
    addrs: &[u64],
    lanes: &[u8],
    bank: &mut CounterBank,
) -> bool {
    macro_rules! plain {
        ($ma:literal, $mb:literal) => {{
            run_pair_spec::<4, $ma, $mb, false, S>(a, b, addrs, lanes, bank);
            true
        }};
    }
    macro_rules! extended {
        ($ma:literal, $mb:literal) => {{
            run_pair_spec::<4, $ma, $mb, true, S>(a, b, addrs, lanes, bank);
            true
        }};
    }
    debug_assert_eq!(a.0.ext, b.0.ext);
    let counts = (a.0.meta.len(), b.0.meta.len());
    pair_shapes!(a.0.ext, counts, plain, extended)
}

/// Runs a chunk through every class, `steps[i]` driving `classes[i]`,
/// pairing adjacent 4-way classes of one sub-block rule so their loops
/// interleave (see [`run_pair_spec`]); classes that cannot pair — odd
/// one out, non-4-way, the other rule, or too many members for a
/// specialisation — run alone via [`ClassState::run`].
///
/// Pairing never changes results (classes are independent); it only
/// changes how their per-reference steps are scheduled. Every policy
/// shares this scheduler through its [`Step`].
fn run_classes<S: Step>(
    classes: &mut [ClassState],
    steps: &mut [S],
    addrs: &[u64],
    lanes: &[u8],
    bank: &mut CounterBank,
) {
    debug_assert_eq!(classes.len(), steps.len());
    let mut i = 0;
    while i < classes.len() {
        if i + 1 < classes.len() {
            let (head, tail) = classes.split_at_mut(i + 1);
            let (step_head, step_tail) = steps.split_at_mut(i + 1);
            let a = (&mut head[i], &mut step_head[i]);
            let b = (&mut tail[0], &mut step_tail[0]);
            if a.0.pairs_with(b.0) && run_pair(a, b, addrs, lanes, bank) {
                i += 2;
                continue;
            }
        }
        classes[i].run(&mut steps[i], addrs, lanes, bank);
        i += 1;
    }
}

impl ClassState {
    /// Mask words per way: one per member, or [`EXT_WORDS`] per member
    /// in an extended class.
    fn mask_words(&self) -> usize {
        self.meta.len() * if self.ext { EXT_WORDS } else { 1 }
    }

    /// Whether the block offsets at the finest member's sub-block grain
    /// fit [`SpecCtx`]'s 32-entry tables: at most 32 sub-blocks per
    /// block, as in every Table 1 geometry. Wider classes (up to the 64
    /// sub-blocks a config allows) run on the generic [`Step::one`]
    /// path.
    fn fits_bit_table(&self) -> bool {
        let min_sub_shift = self.meta.iter().map(|sm| sm.sub_shift).min();
        min_sub_shift.is_some_and(|min| self.shift - min <= 5)
    }

    /// Whether this class and the next can share an interleaved loop
    /// ([`run_pair_spec`]): both 4-way, one sub-block rule, and within
    /// the specialised tables.
    fn pairs_with(&self, next: &ClassState) -> bool {
        self.assoc == 4
            && next.assoc == 4
            && self.ext == next.ext
            && self.fits_bit_table()
            && next.fits_bit_table()
    }

    /// Presents one reference (`lane` 1 = counted, 0 = data write) to
    /// this class and its member configurations under LRU. Generic
    /// fallback for shapes [`ClassState::run`] has no specialisation
    /// for.
    fn one<const EXT: bool>(&mut self, a: u64, lane: usize, bank: &mut CounterBank) {
        debug_assert_eq!(self.ext, EXT);
        let block = a >> self.shift;
        let ways = self.assoc;
        let words = self.mask_words();
        let set = (block & self.mask) as usize;
        let base = set * ways * (1 + words);
        let row = &mut self.data[base..base + ways * (1 + words)];
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
        // The way being replaced at the front: the hit way, or the
        // oldest way (victim) on a miss.
        let pos = if hit { j } else { ways - 1 };
        let perm = &mut self.perm[set];
        // The mask row of the touched way never moves; the permutation
        // names it and is rotated in its stead below.
        let mrow = ways + (((*perm >> (4 * pos)) & 15) as usize) * words;
        if !hit && row[ways - 1] != EMPTY_WAY {
            charge_eviction::<EXT>(&self.meta, row, mrow, bank);
        }
        // Rotate block words 0..=pos right by one — the pos way (hit or
        // victim) lands at slot 0 — and promote the permutation to
        // match; the mask rows stay put.
        row[..pos + 1].rotate_right(1);
        row[0] = block;
        *perm = promote(*perm, pos);
        let keep = u64::from(hit).wrapping_neg();
        touch_members::<EXT>(&self.meta, row, mrow, a, keep, lane, bank);
    }

    /// Runs a whole pre-decoded chunk of references through this class
    /// under its sub-block rule and `step`'s policy, dispatching to a
    /// shape-specialised inner loop when one exists.
    ///
    /// The plain specialisations cover every (associativity,
    /// member-count) shape the paper grids produce, the extended ones
    /// the one- and two-member classes the load-forward and copy-back
    /// configs form; anything else falls back to the generic
    /// per-reference [`Step::one`], which is exact but branchier.
    fn run<S: Step>(&mut self, step: &mut S, addrs: &[u64], lanes: &[u8], bank: &mut CounterBank) {
        macro_rules! plain {
            ($w:literal, $m:literal) => {
                self.run_spec::<$w, $m, false, S>(step, addrs, lanes, bank)
            };
        }
        macro_rules! extended {
            ($w:literal, $m:literal) => {
                self.run_spec::<$w, $m, true, S>(step, addrs, lanes, bank)
            };
        }
        let shape = if self.fits_bit_table() {
            (self.ext, self.assoc, self.meta.len())
        } else {
            (self.ext, 0, 0)
        };
        match shape {
            (false, 1, 1) => plain!(1, 1),
            (false, 1, 2) => plain!(1, 2),
            (false, 1, 3) => plain!(1, 3),
            (false, 1, 4) => plain!(1, 4),
            (false, 1, 5) => plain!(1, 5),
            (false, 1, 6) => plain!(1, 6),
            (false, 2, 1) => plain!(2, 1),
            (false, 2, 2) => plain!(2, 2),
            (false, 2, 3) => plain!(2, 3),
            (false, 2, 4) => plain!(2, 4),
            (false, 2, 5) => plain!(2, 5),
            (false, 2, 6) => plain!(2, 6),
            (false, 4, 1) => plain!(4, 1),
            (false, 4, 2) => plain!(4, 2),
            (false, 4, 3) => plain!(4, 3),
            (false, 4, 4) => plain!(4, 4),
            (false, 4, 5) => plain!(4, 5),
            (false, 4, 6) => plain!(4, 6),
            (false, 8, 1) => plain!(8, 1),
            (false, 8, 2) => plain!(8, 2),
            (true, 1, 1) => extended!(1, 1),
            (true, 1, 2) => extended!(1, 2),
            (true, 2, 1) => extended!(2, 1),
            (true, 2, 2) => extended!(2, 2),
            (true, 4, 1) => extended!(4, 1),
            (true, 4, 2) => extended!(4, 2),
            (true, 8, 1) => extended!(8, 1),
            (true, 8, 2) => extended!(8, 2),
            (true, ..) => {
                for (&a, &lane) in addrs.iter().zip(lanes) {
                    step.one::<true>(self, a, usize::from(lane), bank);
                }
            }
            (false, ..) => {
                for (&a, &lane) in addrs.iter().zip(lanes) {
                    step.one::<false>(self, a, usize::from(lane), bank);
                }
            }
        }
    }

    /// The shape-specialised inner loop: `WAYS`-way sets with `M`
    /// member configurations, both const so every way-loop and
    /// size-loop in the step fully unrolls and the hit/miss arms
    /// collapse to straight-line selects.
    ///
    /// Must be exactly equivalent to calling [`Step::one`] per
    /// reference; `access_next_matches_per_reference_access` and the
    /// equivalence proptests enforce this.
    fn run_spec<const WAYS: usize, const M: usize, const EXT: bool, S: Step>(
        &mut self,
        step: &mut S,
        addrs: &[u64],
        lanes: &[u8],
        bank: &mut CounterBank,
    ) {
        let mut ctx = SpecCtx::<M, EXT>::new::<WAYS>(self);
        for (&a, &lane) in addrs.iter().zip(lanes) {
            // All-ones for data writes (lane 0), zero for counted refs.
            let wmask = u64::from(lane & 1).wrapping_sub(1);
            step.visit::<WAYS, M, EXT>(&mut ctx, a, wmask);
        }
        ctx.flush(bank);
    }
}

/// The construction, chunk-decode and read-out machinery every policy
/// shares: per-slice residency classes, the counter bank, the per-size
/// read-out tables, and the chunk scratch buffers. [`Engine`] pairs it
/// with the policy that decides how a decoded chunk runs through the
/// classes.
#[derive(Debug, Clone)]
struct EngineCore {
    /// The slice, in counter-bank order.
    configs: Vec<CacheConfig>,
    classes: Vec<ClassState>,
    bank: CounterBank,
    /// Chunk scratch: the references of the current chunk, read in bulk
    /// (addresses and kinds as plain arrays) so the per-class passes
    /// read plain words instead of re-decoding every reference per
    /// class.
    chunk: RefChunk,
    /// Chunk scratch: counter lane per reference (1 counted, 0 write).
    scratch_lane: Vec<u8>,
}

impl EngineCore {
    /// Validates a non-empty slice for `policy` and builds its residency
    /// classes.
    fn new(configs: &[CacheConfig], policy: ReplacementPolicy) -> Result<Self, MultiSimError> {
        if configs.len() > MAX_MULTISIM_CONFIGS {
            return Err(MultiSimError::TooManyConfigs {
                given: configs.len(),
            });
        }
        for &config in configs {
            if let Some(why) = supports_or_reason(&config) {
                return Err(MultiSimError::Unsupported { config, why });
            }
            if config.replacement() != policy {
                return Err(MultiSimError::Unsupported {
                    config,
                    why: "a one-pass slice must not mix replacement policies \
                          (the planner groups per policy)",
                });
            }
        }
        let mut classes: Vec<ClassState> = Vec::new();
        for (si, c) in configs.iter().enumerate() {
            let shift = c.block_size().trailing_zeros();
            let mask = c.num_sets() - 1;
            let assoc = c.effective_associativity() as usize;
            let ext = is_extended(c);
            let class = match classes
                .iter_mut()
                .find(|x| x.shift == shift && x.mask == mask && x.assoc == assoc && x.ext == ext)
            {
                Some(class) => class,
                None => {
                    classes.push(ClassState {
                        shift,
                        mask,
                        assoc,
                        ext,
                        meta: Vec::new(),
                        data: Vec::new(),
                        perm: Vec::new(),
                    });
                    classes.last_mut().expect("just pushed")
                }
            };
            class.meta.push(SizeMeta::new(si, c));
        }
        // Plain classes first, in slice order, so a load-forward or
        // copy-back class never splits two plain classes the runners
        // would otherwise pair. Classes are independent, so their order
        // never changes results.
        classes.sort_by_key(|class| class.ext);
        // Set state is sized once membership is final: per way, one
        // block word plus the member configurations' mask words, the
        // block words leading each set and initialised to the sentinel.
        // The per-set word starts as LRU's identity permutation, or as
        // FIFO's pointer at way 0 (Random leaves it alone).
        let per_set = if policy == ReplacementPolicy::Lru {
            IDENT_PERM
        } else {
            0
        };
        for class in &mut classes {
            let sets = (class.mask + 1) as usize;
            let set_words = class.assoc * (1 + class.mask_words());
            class.data = vec![0; sets * set_words];
            for set in class.data.chunks_exact_mut(set_words) {
                set[..class.assoc].fill(EMPTY_WAY);
            }
            class.perm = vec![per_set; sets];
        }
        Ok(EngineCore {
            configs: configs.to_vec(),
            classes,
            bank: CounterBank::default(),
            chunk: RefChunk::new(),
            scratch_lane: Vec::new(),
        })
    }

    /// Derives the chunk's counter lanes from its kinds and folds the
    /// access totals into the bank.
    fn count_chunk(&mut self) {
        self.scratch_lane.clear();
        let mut counted = 0;
        for kind in self.chunk.kinds() {
            let lane = u8::from(kind.is_counted());
            counted += u64::from(lane);
            self.scratch_lane.push(lane);
        }
        self.bank.accesses += counted;
        self.bank.write_accesses += self.chunk.len() as u64 - counted;
    }

    /// Zeroes every configuration's metrics while keeping cache state.
    fn reset_metrics(&mut self) {
        self.bank = CounterBank::default();
    }

    /// Expands the compact per-size counters into full [`Metrics`],
    /// exactly.
    fn metrics(&self) -> Vec<Metrics> {
        let bank = &self.bank;
        self.configs
            .iter()
            .enumerate()
            .map(|(si, config)| {
                let misses = bank.miss[1][si];
                Metrics::from_engine(
                    config,
                    EngineCounters {
                        accesses: bank.accesses,
                        write_accesses: bank.write_accesses,
                        misses,
                        write_misses: bank.miss[0][si],
                        // A plain class loads one sub-block per counted
                        // miss and never counts loads itself.
                        sub_loads: if is_extended(config) {
                            bank.loads[si]
                        } else {
                            misses
                        },
                        redundant_sub_loads: bank.redundant[si],
                        evicted_blocks: bank.evicted_blocks[si],
                        evicted_referenced_subs: bank.evicted_referenced[si],
                        evicted_dirty_subs: bank.evicted_dirty[si],
                    },
                )
            })
            .collect()
    }
}

/// The replacement policy an [`Engine`] runs its classes under, with
/// the per-class state only Random needs.
#[derive(Debug, Clone)]
enum Policy {
    Lru,
    Fifo,
    /// Per class: the replacement generator every member cache of that
    /// class would have drawn from.
    Random(Vec<StdRng>),
}

/// The one-pass engine: one slice's residency classes, counter bank and
/// chunk scratch ([`EngineCore`]), run under one replacement policy.
#[derive(Debug, Clone)]
struct Engine {
    core: EngineCore,
    policy: Policy,
}

impl Engine {
    /// Builds an engine for a slice, taking the policy from its first
    /// configuration; `seed` seeds each Random class's generator.
    fn new(configs: &[CacheConfig], seed: u64) -> Result<Self, MultiSimError> {
        let replacement = configs
            .first()
            .ok_or(MultiSimError::NoConfigs)?
            .replacement();
        let core = EngineCore::new(configs, replacement)?;
        let policy = match replacement {
            ReplacementPolicy::Lru => Policy::Lru,
            ReplacementPolicy::Fifo => Policy::Fifo,
            ReplacementPolicy::Random => Policy::Random(
                core.classes
                    .iter()
                    .map(|_| StdRng::seed_from_u64(seed))
                    .collect(),
            ),
        };
        Ok(Engine { core, policy })
    }

    /// Reads up to `max` references from `refs` into the chunk scratch
    /// and feeds them through every residency class, one class at a
    /// time; returns how many it read (0 once `refs` is spent).
    ///
    /// Residency classes are independent simulations, so processing the
    /// whole chunk for one class before the next is exactly equivalent
    /// to presenting each reference to every class in turn — and much
    /// faster, because each class's tight inner loop keeps its set
    /// state cache-resident and its branch history coherent instead of
    /// cycling through every class's working set per reference.
    fn access_next(&mut self, refs: &mut impl ChunkRead, max: usize) -> usize {
        let n = refs.read_chunk(&mut self.core.chunk, max);
        if n == 0 {
            return 0;
        }
        self.core.count_chunk();
        let EngineCore {
            classes,
            bank,
            chunk,
            scratch_lane: lanes,
            ..
        } = &mut self.core;
        let addrs = chunk.addrs();
        // LRU and FIFO steps are zero-sized, so their per-class vectors
        // never allocate.
        let n_classes = classes.len();
        match &mut self.policy {
            Policy::Lru => run_classes(classes, &mut vec![Lru; n_classes], addrs, lanes, bank),
            Policy::Fifo => run_classes(classes, &mut vec![Fifo; n_classes], addrs, lanes, bank),
            Policy::Random(rngs) => run_classes(classes, rngs, addrs, lanes, bank),
        }
        n
    }
}

/// Chunk size (in references) read by [`Engine::access_next`]: a chunk
/// this size stays L1/L2-resident while every residency class sweeps
/// over it.
const ENGINE_CHUNK: usize = 4096;

/// Simulates every trace against a compatible slice of configurations,
/// one pass per trace, returning per-trace, per-configuration metrics
/// in input order.
///
/// The one-pass counterpart of [`simulate_seeded`](crate::simulate_seeded):
/// `warmup` references of each trace prime the caches and are excluded
/// from its metrics, and `result[t][i]` is bit-identical to
/// `simulate_seeded(configs[i], trace t, warmup, seed)`. The seed only
/// matters for Random slices; pass
/// [`DEFAULT_RANDOM_SEED`](crate::DEFAULT_RANDOM_SEED) to match
/// [`simulate`](crate::simulate).
///
/// Each trace runs alone on its own clone of one fresh engine, so a
/// trace's metrics never depend on the traces beside it in the call.
/// A trace is any [`ChunkRead`]er — a packed trace's reader decodes
/// straight into the engine's chunk, and any `Iterator<Item = MemRef>`
/// also reads, item by item.
///
/// ```
/// use occache_core::{simulate, simulate_many, CacheConfig, DEFAULT_RANDOM_SEED};
/// use occache_trace::MemRef;
///
/// let configs: Vec<CacheConfig> = [64u64, 256]
///     .iter()
///     .map(|&net| {
///         CacheConfig::builder()
///             .net_size(net)
///             .block_size(16)
///             .sub_block_size(8)
///             .word_size(2)
///             .build()
///             .expect("valid geometry")
///     })
///     .collect();
/// let trace: Vec<MemRef> = (0..500u64).map(|i| MemRef::read((i * 13) % 640 * 2)).collect();
/// let all = simulate_many(&configs, [trace.iter().copied()], 0, DEFAULT_RANDOM_SEED)?;
/// for (config, metrics) in configs.iter().zip(&all[0]) {
///     assert_eq!(*metrics, simulate(*config, trace.iter().copied(), 0));
/// }
/// # Ok::<(), occache_core::MultiSimError>(())
/// ```
///
/// # Errors
///
/// Returns a [`MultiSimError`] when the slice is empty, too wide, mixes
/// replacement policies, or contains a configuration no engine can run
/// (see [`engine_supports`]); no trace is read in that case.
pub fn simulate_many<T>(
    configs: &[CacheConfig],
    traces: T,
    warmup: usize,
    seed: u64,
) -> Result<Vec<Vec<Metrics>>, MultiSimError>
where
    T: IntoIterator,
    T::Item: ChunkRead,
{
    let fresh = Engine::new(configs, seed)?;
    Ok(traces
        .into_iter()
        .map(|trace| run_one(&fresh, trace, warmup))
        .collect())
}

/// Runs one trace through a clone of `fresh`, a chunk at a time straight
/// from its reader, and returns its metrics.
fn run_one(fresh: &Engine, mut refs: impl ChunkRead, warmup: usize) -> Vec<Metrics> {
    let mut engine = fresh.clone();
    let mut remaining = warmup;
    while remaining > 0 {
        match engine.access_next(&mut refs, remaining.min(ENGINE_CHUNK)) {
            0 => break,
            n => remaining -= n,
        }
    }
    engine.core.reset_metrics();
    while engine.access_next(&mut refs, ENGINE_CHUNK) > 0 {}
    engine.core.metrics()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, simulate_seeded, DEFAULT_RANDOM_SEED};
    use occache_trace::MemRef;

    const POLICIES: [ReplacementPolicy; 3] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
    ];

    fn cfg(net: u64, block: u64, sub: u64) -> CacheConfig {
        cfg_policy(net, block, sub, ReplacementPolicy::Lru)
    }

    fn cfg_policy(net: u64, block: u64, sub: u64, policy: ReplacementPolicy) -> CacheConfig {
        CacheConfig::builder()
            .net_size(net)
            .block_size(block)
            .sub_block_size(sub)
            .word_size(2)
            .replacement(policy)
            .build()
            .unwrap()
    }

    fn cfg_with(
        net: u64,
        block: u64,
        sub: u64,
        policy: ReplacementPolicy,
        fetch: FetchPolicy,
        write: WritePolicy,
    ) -> CacheConfig {
        CacheConfig::builder()
            .net_size(net)
            .block_size(block)
            .sub_block_size(sub)
            .word_size(2)
            .replacement(policy)
            .fetch(fetch)
            .write_policy(write)
            .build()
            .unwrap()
    }

    /// A deterministic trace with loops, strides and writes — enough
    /// structure to exercise hits, conflict misses and evictions.
    fn mixed_trace(len: u64, span: u64) -> Vec<MemRef> {
        (0..len)
            .map(|i| {
                let addr = (i * 7 + (i / 13) * 31) % span * 2;
                match i % 5 {
                    0 | 1 => MemRef::ifetch(addr),
                    2 | 3 => MemRef::read(addr),
                    _ => MemRef::write(addr),
                }
            })
            .collect()
    }

    /// Asserts the one-pass metrics of `configs` over `trace` equal the
    /// direct simulator's, per configuration.
    fn assert_matches_direct(configs: &[CacheConfig], trace: &[MemRef], warmup: usize) {
        let all = simulate_many(
            configs,
            [trace.iter().copied()],
            warmup,
            DEFAULT_RANDOM_SEED,
        )
        .unwrap();
        for (config, metrics) in configs.iter().zip(&all[0]) {
            let direct = simulate(*config, trace.iter().copied(), warmup);
            assert_eq!(*metrics, direct, "{config} warmup {warmup}");
        }
    }

    /// Presents one reference through the generic per-reference step
    /// (`Step::one`), bypassing the shape-specialised runners.
    fn access_one(engine: &mut Engine, r: MemRef) {
        fn one<S: Step>(
            step: &mut S,
            class: &mut ClassState,
            a: u64,
            lane: usize,
            bank: &mut CounterBank,
        ) {
            if class.ext {
                step.one::<true>(class, a, lane, bank);
            } else {
                step.one::<false>(class, a, lane, bank);
            }
        }
        let core = &mut engine.core;
        let counted = u64::from(r.kind().is_counted());
        core.bank.accesses += counted;
        core.bank.write_accesses += 1 - counted;
        let (a, lane, bank) = (r.address().value(), counted as usize, &mut core.bank);
        for (i, class) in core.classes.iter_mut().enumerate() {
            match &mut engine.policy {
                Policy::Lru => one(&mut Lru, class, a, lane, bank),
                Policy::Fifo => one(&mut Fifo, class, a, lane, bank),
                Policy::Random(rngs) => one(&mut rngs[i], class, a, lane, bank),
            }
        }
    }

    #[test]
    fn matches_direct_simulation_across_sizes() {
        let trace = mixed_trace(20_000, 4096);
        for policy in POLICIES {
            let configs = [
                cfg_policy(64, 16, 8, policy),
                cfg_policy(256, 16, 8, policy),
                cfg_policy(1024, 16, 8, policy),
                cfg_policy(256, 16, 4, policy),
                cfg_policy(256, 32, 8, policy),
            ];
            assert_matches_direct(&configs, &trace, 0);
        }
    }

    #[test]
    fn matches_direct_simulation_with_warmup() {
        let trace = mixed_trace(10_000, 2048);
        for policy in POLICIES {
            let configs = [
                cfg_policy(64, 8, 2, policy),
                cfg_policy(256, 8, 2, policy),
                cfg_policy(1024, 8, 2, policy),
            ];
            assert_matches_direct(&configs, &trace, 1_000);
        }
    }

    #[test]
    fn single_config_slice_matches_direct() {
        assert_matches_direct(&[cfg(128, 8, 8)], &mixed_trace(5_000, 1024), 0);
    }

    #[test]
    fn tiny_caches_with_capped_associativity_match() {
        // net 32, block 16 -> 2 blocks, effective associativity 2, 1 set.
        let trace = mixed_trace(5_000, 512);
        for policy in POLICIES {
            let configs = [cfg_policy(32, 16, 8, policy), cfg_policy(64, 16, 8, policy)];
            assert_matches_direct(&configs, &trace, 0);
        }
    }

    #[test]
    fn each_trace_of_a_call_matches_its_own_seeded_run() {
        // Three traces of one call, each of which must come out as its
        // own `simulate_seeded` run: no engine state and no warm-up
        // countdown may carry from one trace to the next. Lengths
        // straddle the 4096-reference chunk, and the 5 000-reference
        // warm-up outlasts the 3 000-reference trace.
        let traces = [
            mixed_trace(10_000, 4096),
            mixed_trace(3_000, 2048),
            mixed_trace(9_000, 1024),
        ];
        for policy in POLICIES {
            let configs = [
                cfg_policy(64, 16, 8, policy),
                cfg_policy(1024, 16, 4, policy),
            ];
            for warmup in [0, 5_000] {
                let all = simulate_many(
                    &configs,
                    traces.iter().map(|t| t.iter().copied()),
                    warmup,
                    7,
                )
                .unwrap();
                assert_eq!(all.len(), traces.len());
                for (trace, per_config) in traces.iter().zip(&all) {
                    for (config, metrics) in configs.iter().zip(per_config) {
                        let direct = simulate_seeded(*config, trace.iter().copied(), warmup, 7);
                        assert_eq!(*metrics, direct, "{config} warmup {warmup}");
                    }
                }
            }
        }
    }

    #[test]
    fn no_traces_yield_no_results() {
        let none: [std::vec::IntoIter<MemRef>; 0] = [];
        assert_eq!(simulate_many(&[cfg(64, 8, 4)], none, 0, 0), Ok(Vec::new()));
    }

    #[test]
    fn every_replacement_policy_is_engine_eligible() {
        for policy in POLICIES {
            let config = cfg_policy(64, 8, 4, policy);
            assert!(engine_supports(&config), "{policy:?}");
        }
        assert_eq!(
            EngineKind::for_config(&cfg_policy(64, 8, 4, ReplacementPolicy::Fifo)),
            Some(EngineKind::Fifo)
        );
        assert_eq!(
            EngineKind::for_config(&cfg_policy(64, 8, 4, ReplacementPolicy::Random)),
            Some(EngineKind::Random)
        );
    }

    #[test]
    fn engine_policy_follows_the_slice() {
        for policy in POLICIES {
            let engine = Engine::new(&[cfg_policy(64, 8, 4, policy)], 0).unwrap();
            let built = match engine.policy {
                Policy::Lru => ReplacementPolicy::Lru,
                Policy::Fifo => ReplacementPolicy::Fifo,
                Policy::Random(_) => ReplacementPolicy::Random,
            };
            assert_eq!(built, policy);
        }
    }

    #[test]
    fn rejects_unsupported_features_and_mixed_policies() {
        for first in POLICIES {
            for second in POLICIES.into_iter().filter(|&p| p != first) {
                let slice = [cfg_policy(64, 8, 4, first), cfg_policy(64, 8, 4, second)];
                assert!(matches!(
                    Engine::new(&slice, 0),
                    Err(MultiSimError::Unsupported { .. })
                ));
            }
        }
        let prefetch = CacheConfig::builder()
            .net_size(64)
            .block_size(8)
            .sub_block_size(4)
            .word_size(2)
            .fetch(FetchPolicy::PrefetchNext { tagged: false })
            .build()
            .unwrap();
        assert!(!engine_supports(&prefetch));
        assert_eq!(EngineKind::for_config(&prefetch), None);
    }

    #[test]
    fn load_forward_and_copy_back_are_engine_eligible() {
        for policy in POLICIES {
            for fetch in [
                FetchPolicy::LOAD_FORWARD,
                FetchPolicy::LoadForward {
                    remember_valid: true,
                },
            ] {
                for write in [WritePolicy::WriteThrough, WritePolicy::CopyBack] {
                    let config = cfg_with(64, 8, 4, policy, fetch, write);
                    assert!(engine_supports(&config), "{config}");
                }
            }
            let copy_back = cfg_with(64, 8, 4, policy, FetchPolicy::Demand, WritePolicy::CopyBack);
            assert_eq!(
                EngineKind::for_config(&copy_back),
                EngineKind::for_config(&cfg_policy(64, 8, 4, policy))
            );
        }
    }

    /// A slice mixing every engine fetch and write policy over three
    /// geometries, so plain and extended classes of one geometry run
    /// side by side.
    fn policy_mix(policy: ReplacementPolicy) -> Vec<CacheConfig> {
        let fetches = [
            FetchPolicy::Demand,
            FetchPolicy::LOAD_FORWARD,
            FetchPolicy::LoadForward {
                remember_valid: true,
            },
        ];
        let writes = [WritePolicy::WriteThrough, WritePolicy::CopyBack];
        let mut configs = Vec::new();
        for (net, block, sub) in [(64, 16, 2), (256, 16, 4), (256, 32, 8)] {
            for fetch in fetches {
                for write in writes {
                    configs.push(cfg_with(net, block, sub, policy, fetch, write));
                }
            }
        }
        configs
    }

    #[test]
    fn load_forward_and_copy_back_match_direct_simulation() {
        let trace = mixed_trace(20_000, 4096);
        for policy in POLICIES {
            let configs = policy_mix(policy);
            assert_matches_direct(&configs, &trace, 0);
            assert_matches_direct(&configs, &trace, 3_000);
        }
    }

    #[test]
    fn blocks_of_more_than_32_sub_blocks_match_direct_simulation() {
        // 128-byte blocks in 2-byte sub-blocks: 64 slots, past the
        // specialised runners' 32-entry offset tables, so these classes
        // take the generic path — alone, and beside a 4-way class of
        // narrow blocks they would otherwise pair with.
        let traces = [mixed_trace(20_000, 8192), mixed_trace(20_000, 4096)];
        for policy in POLICIES {
            let lf = FetchPolicy::LOAD_FORWARD;
            let (through, back) = (WritePolicy::WriteThrough, WritePolicy::CopyBack);
            let configs = [
                cfg_with(1024, 128, 2, policy, FetchPolicy::Demand, through),
                cfg_with(1024, 128, 8, policy, FetchPolicy::Demand, through),
                cfg_with(1024, 128, 2, policy, lf, back),
                cfg_with(2048, 128, 2, policy, lf, through),
                cfg_with(256, 16, 4, policy, FetchPolicy::Demand, through),
                cfg_with(256, 16, 4, policy, lf, back),
            ];
            let all = simulate_many(&configs, traces.iter().map(|t| t.iter().copied()), 0, 0);
            for (trace, per_config) in traces.iter().zip(all.unwrap()) {
                for (config, metrics) in configs.iter().zip(per_config) {
                    let direct = simulate_seeded(*config, trace.iter().copied(), 0, 0);
                    assert_eq!(metrics, direct, "{config}");
                }
            }
        }
    }

    #[test]
    fn redundant_load_forward_refetches_valid_data() {
        // Mirrors the direct simulator's test of the same name: a miss
        // on sub 4 loads 4..8, then a backward miss on sub 0 reloads
        // 4..8 redundantly.
        for policy in POLICIES {
            let config = cfg_with(
                64,
                16,
                2,
                policy,
                FetchPolicy::LOAD_FORWARD,
                WritePolicy::WriteThrough,
            );
            let trace = [MemRef::read(8), MemRef::read(0)];
            let m = simulate_many(&[config], [trace.iter().copied()], 0, 0).unwrap()[0][0];
            assert_eq!(m.redundant_sub_loads(), 4, "{policy:?}");
            assert_eq!(m.fetch_bytes(), 8 + 16, "{policy:?}");
            assert_matches_direct(&[config], &trace, 0);
            // The same backward miss on a data write fills the block too,
            // but loads count on counted references only.
            let write = [MemRef::read(8), MemRef::write(0)];
            let m = simulate_many(&[config], [write.iter().copied()], 0, 0).unwrap()[0][0];
            assert_eq!(m.redundant_sub_loads(), 0, "{policy:?}");
            assert_eq!(m.sub_loads(), 4, "{policy:?}");
            assert_eq!(m.write_misses(), 1, "{policy:?}");
            assert_matches_direct(&[config], &write, 0);
        }
    }

    #[test]
    fn optimized_load_forward_skips_valid_data() {
        for policy in POLICIES {
            let fetch = FetchPolicy::LoadForward {
                remember_valid: true,
            };
            let config = cfg_with(64, 16, 2, policy, fetch, WritePolicy::WriteThrough);
            let trace = [MemRef::read(8), MemRef::read(0)];
            let m = simulate_many(&[config], [trace.iter().copied()], 0, 0).unwrap()[0][0];
            assert_eq!(m.redundant_sub_loads(), 0, "{policy:?}");
            assert_eq!(m.fetch_bytes(), 8 + 8, "{policy:?}");
            assert_eq!(m.misses(), 2, "{policy:?}");
            assert_matches_direct(&[config], &trace, 0);
        }
    }

    #[test]
    fn copy_back_writes_back_dirty_sub_blocks_across_evictions() {
        // Direct-mapped, two sets of 8-byte blocks in 4-byte sub-blocks:
        // blocks 0 and 2 share set 0. Block 0 is written in both subs,
        // then evicted (8 bytes back); the blocks refilled after it are
        // clean, so neither later eviction writes anything back.
        let trace = [
            MemRef::write(0),
            MemRef::write(6),
            MemRef::read(16),
            MemRef::read(0),
            MemRef::read(16),
        ];
        for policy in POLICIES {
            let one_way = CacheConfig::builder()
                .net_size(16)
                .block_size(8)
                .sub_block_size(4)
                .associativity(1)
                .word_size(2)
                .replacement(policy)
                .write_policy(WritePolicy::CopyBack)
                .build()
                .unwrap();
            let m = simulate_many(&[one_way], [trace.iter().copied()], 0, 0).unwrap()[0][0];
            assert_eq!(m.evicted_blocks(), 3, "{policy:?}");
            assert_eq!(m.write_back_bytes(), 8, "{policy:?}");
            assert_eq!(m.write_through_bytes(), 0, "{policy:?}");
            assert_eq!(m.write_misses(), 2, "{policy:?}");
            assert_matches_direct(&[one_way], &trace, 0);
            // The same geometry at 2 ways beside its write-through twin,
            // over a trace that cycles dirty blocks through the set.
            let two_way = cfg_with(16, 8, 4, policy, FetchPolicy::Demand, WritePolicy::CopyBack);
            let through = cfg_with(
                16,
                8,
                4,
                policy,
                FetchPolicy::Demand,
                WritePolicy::WriteThrough,
            );
            assert_matches_direct(&[two_way, through], &mixed_trace(5_000, 64), 0);
        }
    }

    #[test]
    fn engine_kind_names_round_trip() {
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::parse(kind.as_str()), Some(kind));
            assert_eq!(EngineKind::ALL[kind.index()], kind);
        }
        assert_eq!(EngineKind::parse("LRU"), Some(EngineKind::Lru));
        assert_eq!(EngineKind::parse("direct"), None);
    }

    #[test]
    fn rejects_non_power_of_two_set_counts() {
        // 8 blocks at 3-way: 8/3 truncates, so bit selection cannot map it.
        let odd = CacheConfig::builder()
            .net_size(64)
            .block_size(8)
            .sub_block_size(8)
            .associativity(3)
            .word_size(2)
            .build()
            .unwrap();
        assert!(!engine_supports(&odd));
    }

    #[test]
    fn rejects_empty_and_oversized_slices() {
        let trace = [mixed_trace(10, 64).into_iter()];
        assert_eq!(
            simulate_many(&[], trace.clone(), 0, 0),
            Err(MultiSimError::NoConfigs)
        );
        let oversized = [cfg(64, 8, 4); MAX_MULTISIM_CONFIGS + 1];
        assert!(matches!(
            simulate_many(&oversized, trace, 0, 0),
            Err(MultiSimError::TooManyConfigs { .. })
        ));
    }

    #[test]
    fn mixed_block_sizes_share_one_pass() {
        // A whole Table-7-shaped grid in one slice: three block sizes
        // with distinct sub-block choices across three net sizes. Every
        // (block, sets, assoc) triple becomes its own residency class,
        // so no two configurations here may share residency decisions
        // incorrectly.
        let configs = [
            cfg(64, 32, 8),
            cfg(64, 16, 16),
            cfg(64, 8, 2),
            cfg(256, 32, 8),
            cfg(256, 16, 16),
            cfg(256, 8, 2),
            cfg(1024, 32, 8),
            cfg(1024, 16, 16),
            cfg(1024, 8, 2),
        ];
        assert_matches_direct(&configs, &mixed_trace(20_000, 4096), 500);
    }

    #[test]
    fn mixed_sub_block_sizes_share_one_pass() {
        // Same block size, three sub-block variants at two nets: six
        // configurations, two residency classes. The slice exercises the
        // class-deduplication path and per-size sub-block accounting.
        let configs = [
            cfg(64, 16, 16),
            cfg(64, 16, 8),
            cfg(64, 16, 4),
            cfg(256, 16, 16),
            cfg(256, 16, 8),
            cfg(256, 16, 4),
        ];
        assert_matches_direct(&configs, &mixed_trace(20_000, 4096), 0);
    }

    #[test]
    fn wide_span_traces_match_direct_with_bounded_state() {
        // Small caches with large blocks collapse to one set; a
        // wide-span trace forces thousands of distinct blocks through a
        // slice whose total resident capacity is a couple dozen ways.
        // The engine's state is capacity-bound by construction (only
        // resident blocks are stored), so this shape — quadratic for a
        // merged recency stack holding every block ever referenced —
        // must stay linear and exact.
        let configs = [cfg(64, 32, 8), cfg(256, 32, 8), cfg(1024, 32, 8)];
        let trace = mixed_trace(60_000, 1 << 17);
        let mut engine = Engine::new(&configs, 0).unwrap();
        for &r in &trace {
            access_one(&mut engine, r);
        }
        for (config, metrics) in configs.iter().zip(engine.core.metrics()) {
            assert_eq!(
                metrics,
                simulate(*config, trace.iter().copied(), 0),
                "{config}"
            );
        }
    }

    #[test]
    fn access_next_matches_per_reference_access() {
        let trace = mixed_trace(10_000, 2048);
        for policy in POLICIES {
            let mut configs = vec![
                cfg_policy(64, 16, 8, policy),
                cfg_policy(256, 16, 8, policy),
            ];
            configs.extend(policy_mix(policy));
            let mut chunked = Engine::new(&configs, 0).unwrap();
            let mut refs = trace.iter().copied();
            while chunked.access_next(&mut refs, 97) > 0 {}
            let mut one = Engine::new(&configs, 0).unwrap();
            for &r in &trace {
                access_one(&mut one, r);
            }
            assert_eq!(chunked.core.metrics(), one.core.metrics(), "{policy:?}");
        }
    }

    /// A one-set, 4-way engine of `policy` (8-byte blocks, so block `b`
    /// sits at address `8 * b`).
    fn one_set_engine(policy: ReplacementPolicy, seed: u64) -> Engine {
        let config = CacheConfig::builder()
            .net_size(32)
            .block_size(8)
            .sub_block_size(8)
            .associativity(4)
            .word_size(2)
            .replacement(policy)
            .build()
            .unwrap();
        Engine::new(&[config], seed).unwrap()
    }

    /// Drives a [`one_set_engine`] one reference at a time — through the
    /// specialised runner (`access_next` on one-reference chunks) or the
    /// generic step — beside the direct simulator's `CacheSet` seeded
    /// alike, over a block stream full of hits and misses. Asserts every
    /// miss fills the way `CacheSet::choose_victim` picks and every hit
    /// leaves the set alone; returns the filled ways in miss order.
    fn fixed_way_victims(policy: ReplacementPolicy, specialised: bool, seed: u64) -> Vec<usize> {
        use crate::set::CacheSet;
        use rand::Rng;
        let mut engine = one_set_engine(policy, seed);
        let mut set = CacheSet::new(4);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut victims = Vec::new();
        for i in 0..400u64 {
            // Mostly re-references of a few hot blocks, with a cold one
            // every few steps, so hits fall on every way between misses.
            let block = if i % 5 == 4 { 100 + i } else { (i * 7) % 6 };
            match set.find(block) {
                Some(idx) => set.touch(idx, policy),
                None => {
                    let v = set.choose_victim(policy, &mut rng);
                    set.frame_mut(v).install(block);
                    victims.push(v);
                }
            }
            let before = engine.core.classes[0].data[..4].to_vec();
            let r = MemRef::read(8 * block);
            if specialised {
                engine.access_next(&mut [r].into_iter(), 1);
            } else {
                access_one(&mut engine, r);
            }
            let ways = &engine.core.classes[0].data[..4];
            match set.find(block) {
                Some(idx) if before.contains(&block) => {
                    assert_eq!(
                        ways,
                        &before[..],
                        "{policy:?} hit on block {block} moved a way"
                    );
                    assert_eq!(ways[idx], block);
                }
                Some(idx) => assert_eq!(
                    ways.iter().position(|&b| b == block),
                    Some(idx),
                    "{policy:?} miss {} on block {block}: engine {ways:?}",
                    victims.len()
                ),
                None => unreachable!("the block was just installed"),
            }
            if policy == ReplacementPolicy::Random && victims.len() == 4 {
                // The set has just filled: no draw may have been taken
                // yet, so the class generator is still fresh.
                let Policy::Random(rngs) = &engine.policy else {
                    unreachable!()
                };
                let fresh = StdRng::seed_from_u64(seed).gen::<u64>();
                assert_eq!(
                    rngs[0].clone().gen::<u64>(),
                    fresh,
                    "a draw before the set filled"
                );
            }
        }
        victims
    }

    #[test]
    fn fifo_victims_cycle_through_the_ways_whatever_the_hits() {
        for specialised in [true, false] {
            let victims = fixed_way_victims(ReplacementPolicy::Fifo, specialised, 0);
            assert!(victims.len() > 40, "the stream must keep missing");
            for (k, &v) in victims.iter().enumerate() {
                assert_eq!(v, k % 4, "miss {k} (specialised: {specialised})");
            }
        }
    }

    #[test]
    fn random_victims_follow_the_direct_draw_sequence() {
        for seed in [0, 7, DEFAULT_RANDOM_SEED] {
            for specialised in [true, false] {
                let victims = fixed_way_victims(ReplacementPolicy::Random, specialised, seed);
                assert_eq!(victims[..4], [0, 1, 2, 3], "fills take the first empty way");
                assert!(victims.len() > 40, "the stream must keep missing");
            }
        }
    }

    #[test]
    fn paired_random_classes_draw_from_their_own_generators() {
        // Four 4-way classes of 16-byte blocks (1, 4, 16 and 8 sets),
        // which the scheduler runs as two interleaved pairs, over a
        // trace that keeps every set full and missing: sharing one
        // generator between the two classes of a pair would interleave
        // their draws and move every later victim.
        let random = |net, block| cfg_policy(net, block, 8, ReplacementPolicy::Random);
        let configs = [
            random(64, 16),
            random(256, 16),
            random(1024, 16),
            random(1024, 32),
        ];
        let engine = Engine::new(&configs, 0).unwrap();
        assert!(engine.core.classes[0].pairs_with(&engine.core.classes[1]));
        assert!(engine.core.classes[2].pairs_with(&engine.core.classes[3]));
        let trace = mixed_trace(20_000, 1 << 14);
        assert_matches_direct(&configs, &trace, 0);
        let all = simulate_many(&configs, [trace.iter().copied()], 0, DEFAULT_RANDOM_SEED).unwrap();
        assert!(all[0].iter().all(|m| m.evicted_blocks() > 1_000));
    }

    #[test]
    fn explicit_seeds_match_seeded_direct_simulation() {
        let random = |net| cfg_policy(net, 16, 8, ReplacementPolicy::Random);
        let configs = [random(64), random(256)];
        let trace = mixed_trace(10_000, 2048);
        for seed in [0u64, 9, 0xdead_beef] {
            let all = simulate_many(&configs, [trace.iter().copied()], 0, seed).unwrap();
            for (config, metrics) in configs.iter().zip(&all[0]) {
                let direct = simulate_seeded(*config, trace.iter().copied(), 0, seed);
                assert_eq!(*metrics, direct, "{config} seed {seed}");
            }
        }
    }

    #[test]
    fn random_runs_are_deterministic() {
        let random = |net| cfg_policy(net, 16, 8, ReplacementPolicy::Random);
        let configs = [random(64), random(256), random(1024)];
        let trace = [mixed_trace(15_000, 4096).into_iter()];
        let a = simulate_many(&configs, trace.clone(), 500, DEFAULT_RANDOM_SEED).unwrap();
        let b = simulate_many(&configs, trace, 500, DEFAULT_RANDOM_SEED).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn error_display_is_nonempty() {
        let errs = [
            MultiSimError::NoConfigs,
            MultiSimError::TooManyConfigs { given: 9 },
            MultiSimError::Unsupported {
                config: cfg(64, 8, 4),
                why: "test",
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
