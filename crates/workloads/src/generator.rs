//! The synthetic program generator: turns a [`Profile`] + seed into a
//! deterministic, endless reference stream.
//!
//! The model executes an abstract program:
//!
//! * **Instruction stream** — a program counter walks word-by-word through
//!   the current function. At the end of each basic-block run a branch
//!   decision is taken: iterate a backward loop, call another (Zipf-chosen)
//!   function, return, or skip forward.
//! * **Data stream** — each instruction may carry one data reference drawn
//!   from four streams: stack frames near SP, Zipf-hot globals, one long
//!   sequential sweep, or uniform-random heap words.
//!
//! Everything is word-aligned at the architecture's data-path width, as the
//! paper's traces were.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use occache_trace::sample::{chance, geometric_run, Zipf};
use occache_trace::{AccessKind, Address, MemRef};

use crate::profile::Profile;

/// Memory-map layout derived from a profile: region base addresses.
#[derive(Debug, Clone, Copy)]
struct Layout {
    code_base: u64,
    globals_base: u64,
    sweep_base: u64,
    heap_base: u64,
    stack_base: u64,
}

#[derive(Debug, Clone, Copy)]
struct LoopState {
    start_offset: u64,
    body_len: usize,
    iters_left: usize,
}

/// Endless deterministic reference stream for one synthetic program.
///
/// Implements [`Iterator`] (never returns `None`), so all the
/// [`TraceSource`](occache_trace::TraceSource) adapters apply.
///
/// ```
/// use occache_trace::TraceSource;
/// use occache_workloads::{Architecture, Profile, ProgramGenerator};
///
/// let profile = Profile::baseline(Architecture::Pdp11);
/// let mut a = ProgramGenerator::new(profile.clone(), 1);
/// let mut b = ProgramGenerator::new(profile, 1);
/// assert_eq!(a.collect_refs(100), b.collect_refs(100), "same seed, same trace");
/// ```
#[derive(Debug, Clone)]
pub struct ProgramGenerator {
    profile: Profile,
    layout: Layout,
    word: u64,
    rng: StdRng,
    function_zipf: Zipf,
    global_zipf: Zipf,
    data_mix: [f64; 4],
    /// Per-function sizes in words (vary around `profile.function_words`).
    function_sizes: Vec<u64>,
    /// Per-function base offsets in words from `code_base`.
    function_starts: Vec<u64>,
    /// Per-record base offsets (in words) within the globals region.
    /// Contiguous (`idx`) when the stride is 1; irregularly scattered
    /// otherwise — real linkers and allocators do not place records at
    /// exact power-of-two strides, and arithmetic strides would alias all
    /// records into a handful of cache sets.
    global_record_bases: Vec<u64>,
    // --- execution state ---
    current_fn: usize,
    offset: u64,
    run_left: usize,
    loop_state: Option<LoopState>,
    call_stack: Vec<(usize, u64)>,
    sp: u64,
    sweep_cursor: u64,
    pending_data: Option<MemRef>,
}

const MAX_CALL_DEPTH: usize = 64;

impl ProgramGenerator {
    /// Builds the generator; identical `(profile, seed)` pairs produce
    /// identical streams.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`Profile::validate`].
    pub fn new(profile: Profile, seed: u64) -> Self {
        profile.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        let word = profile.arch.word_size();

        // Function sizes vary in [0.5, 1.5] × mean, laid out contiguously.
        let mut function_sizes = Vec::with_capacity(profile.code_functions);
        let mut function_starts = Vec::with_capacity(profile.code_functions);
        let mut cursor = 0u64;
        for _ in 0..profile.code_functions {
            let lo = (profile.function_words / 2).max(4) as u64;
            let hi = (profile.function_words * 3 / 2).max(5) as u64;
            let size = rng.gen_range(lo..=hi);
            function_starts.push(cursor);
            function_sizes.push(size);
            cursor += size;
            if profile.code_gap_words > 0 {
                // Cold code (unexecuted paths, other modules) separates hot
                // functions, as linkers lay binaries out.
                cursor += geometric_run(&mut rng, profile.code_gap_words as f64, 1 << 14) as u64;
            }
        }
        // Compacted code packs instructions into fewer layout words.
        let code_words = (cursor as f64 * profile.code_density).ceil() as u64 + 1;

        let globals_words = profile.global_records as u64 * profile.global_stride_words;
        let global_record_bases: Vec<u64> = if profile.global_stride_words == 1 {
            (0..profile.global_records as u64).collect()
        } else {
            let limit = globals_words
                .saturating_sub(profile.global_stride_words)
                .max(1);
            (0..profile.global_records)
                .map(|_| rng.gen_range(0..limit))
                .collect()
        };
        let layout = {
            let code_base = 0x100;
            let globals_base = code_base + code_words * word;
            let sweep_base = globals_base + globals_words * word;
            let heap_base = sweep_base + profile.sweep_words * word;
            let stack_base = heap_base + profile.heap_words * word;
            Layout {
                code_base,
                globals_base,
                sweep_base,
                heap_base,
                stack_base,
            }
        };

        let function_zipf = Zipf::new(profile.code_functions, profile.function_zipf);
        let global_zipf = Zipf::new(profile.global_records, profile.global_zipf);
        let data_mix = profile.data_mix.normalised();
        let mean_run = profile.mean_run;
        let mut generator = ProgramGenerator {
            profile,
            layout,
            word,
            rng,
            function_zipf,
            global_zipf,
            data_mix,
            function_sizes,
            function_starts,
            global_record_bases,
            current_fn: 0,
            offset: 0,
            run_left: 1,
            loop_state: None,
            call_stack: Vec::new(),
            sp: 0,
            sweep_cursor: 0,
            pending_data: None,
        };
        generator.current_fn = generator.function_zipf.sample(&mut generator.rng);
        generator.run_left = geometric_run(&mut generator.rng, mean_run, 1 << 12);
        generator
    }

    /// The profile this generator runs.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    fn pc_address(&self) -> Address {
        let instr_index = self.function_starts[self.current_fn] + self.offset;
        // Map the instruction index into the (possibly compacted) layout:
        // with density < 1, several instructions share a word address,
        // exactly as RISC II half-word encodings share words (§2.3).
        let words = (instr_index as f64 * self.profile.code_density) as u64;
        Address::new(self.layout.code_base + words * self.word)
    }

    fn function_len(&self) -> u64 {
        self.function_sizes[self.current_fn]
    }

    fn new_run(&mut self) {
        self.run_left = geometric_run(&mut self.rng, self.profile.mean_run, 1 << 12);
    }

    /// Branch decision at the end of a basic-block run.
    fn branch(&mut self) {
        // Iterating loop: jump back to the loop head.
        if let Some(state) = &mut self.loop_state {
            if state.iters_left > 0 {
                state.iters_left -= 1;
                self.offset = state.start_offset;
                self.run_left = state.body_len;
                return;
            }
            self.loop_state = None;
        }

        let p = &self.profile;
        let r: f64 = self.rng.gen();
        if r < p.loop_prob && self.offset > 1 {
            // Enter a backward loop over the last `body` words.
            let body = geometric_run(&mut self.rng, p.loop_body, self.offset as usize);
            let iters = if p.loop_iters < 1.0 {
                0
            } else {
                geometric_run(&mut self.rng, p.loop_iters, 1 << 16)
            };
            self.loop_state = Some(LoopState {
                start_offset: self.offset - body as u64,
                body_len: body,
                iters_left: iters,
            });
            self.offset -= body as u64;
            self.run_left = body;
        } else if r < p.loop_prob + p.call_prob {
            self.call();
        } else if r < p.loop_prob + p.call_prob + p.return_prob {
            self.return_or_jump();
        } else {
            // Forward skip within the function.
            let skip = geometric_run(&mut self.rng, p.mean_run, 1 << 12) as u64;
            self.offset += skip;
            if self.offset >= self.function_len() {
                self.return_or_jump();
            }
            self.new_run();
        }
    }

    fn call(&mut self) {
        if self.call_stack.len() < MAX_CALL_DEPTH {
            self.call_stack.push((self.current_fn, self.offset));
            self.sp += self.profile.frame_words;
        }
        self.current_fn = self.function_zipf.sample(&mut self.rng);
        self.offset = 0;
        self.loop_state = None;
        self.new_run();
    }

    fn return_or_jump(&mut self) {
        self.loop_state = None;
        if let Some((f, off)) = self.call_stack.pop() {
            self.sp = self.sp.saturating_sub(self.profile.frame_words);
            self.current_fn = f;
            self.offset = off.min(self.function_sizes[f].saturating_sub(1));
        } else {
            self.current_fn = self.function_zipf.sample(&mut self.rng);
            self.offset = 0;
        }
        self.new_run();
    }

    fn data_ref(&mut self) -> MemRef {
        let p = &self.profile;
        let r: f64 = self.rng.gen();
        let addr = if r < self.data_mix[0] {
            // Stack: SP plus a small spread, wrapped into the stack region.
            let spread = geometric_run(&mut self.rng, p.stack_spread, 64) as u64 - 1;
            let word_idx = (self.sp + spread) % p.stack_words;
            self.layout.stack_base + word_idx * self.word
        } else if r < self.data_mix[0] + self.data_mix[1] {
            // A word within a (possibly scattered) global record.
            let record = self.global_zipf.sample(&mut self.rng);
            let stride = p.global_stride_words;
            let offset = geometric_run(
                &mut self.rng,
                p.global_record_spread,
                stride.max(1) as usize,
            ) as u64
                - 1;
            let base = self.global_record_bases[record];
            self.layout.globals_base + (base + offset % stride) * self.word
        } else if r < self.data_mix[0] + self.data_mix[1] + self.data_mix[2] {
            let addr = self.layout.sweep_base + self.sweep_cursor * self.word;
            self.sweep_cursor = (self.sweep_cursor + 1) % p.sweep_words;
            addr
        } else {
            let idx = self.rng.gen_range(0..p.heap_words);
            self.layout.heap_base + idx * self.word
        };
        let kind = if chance(&mut self.rng, p.write_frac) {
            AccessKind::DataWrite
        } else {
            AccessKind::DataRead
        };
        MemRef::new(Address::new(addr), kind)
    }
}

impl Iterator for ProgramGenerator {
    type Item = MemRef;

    fn next(&mut self) -> Option<MemRef> {
        if let Some(d) = self.pending_data.take() {
            return Some(d);
        }
        let fetch = MemRef::new(self.pc_address(), AccessKind::InstrFetch);
        let mem_ref_prob = self.profile.mem_ref_prob;
        if chance(&mut self.rng, mem_ref_prob) {
            self.pending_data = Some(self.data_ref());
        }
        // Advance the program counter.
        self.offset += 1;
        self.run_left = self.run_left.saturating_sub(1);
        if self.offset >= self.function_len() {
            self.return_or_jump();
        } else if self.run_left == 0 {
            self.branch();
        }
        Some(fetch)
    }

    /// Endless: a `take(n)` prefix reports exactly `n` references, so
    /// collecting one (`Trace::new`) allocates its buffers once.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use occache_trace::{ChunkRead, RefChunk, TraceSource, TraceStats};

    fn generator(arch: Architecture, seed: u64) -> ProgramGenerator {
        ProgramGenerator::new(Profile::baseline(arch), seed)
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generator(Architecture::Pdp11, 7).collect_refs(5_000);
        let b = generator(Architecture::Pdp11, 7).collect_refs(5_000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generator(Architecture::Pdp11, 1).collect_refs(2_000);
        let b = generator(Architecture::Pdp11, 2).collect_refs(2_000);
        assert_ne!(a, b);
    }

    #[test]
    fn generator_is_endless() {
        let mut g = generator(Architecture::Z8000, 3);
        for _ in 0..100_000 {
            assert!(g.next().is_some());
        }
    }

    #[test]
    fn addresses_are_word_aligned() {
        let word = Architecture::Vax11.word_size();
        for r in generator(Architecture::Vax11, 4).collect_refs(20_000) {
            assert_eq!(r.address().value() % word, 0, "{r}");
        }
    }

    #[test]
    fn sixteen_bit_traces_stay_in_address_space() {
        for arch in [Architecture::Pdp11, Architecture::Z8000] {
            for r in generator(arch, 5).collect_refs(50_000) {
                assert!(r.address().value() < 65_536, "{arch}: {r}");
            }
        }
    }

    #[test]
    fn reference_mix_is_plausible() {
        let mut stats = TraceStats::new(2);
        for r in generator(Architecture::Pdp11, 6).collect_refs(100_000) {
            stats.observe(r);
        }
        let ifrac = stats.ifetch_fraction();
        assert!((0.5..0.75).contains(&ifrac), "ifetch fraction {ifrac}");
        assert!(stats.writes() > 0, "writes must appear");
        assert!(stats.reads() > 2 * stats.writes(), "reads dominate writes");
    }

    #[test]
    fn instruction_stream_has_sequential_runs() {
        let mut stats = TraceStats::new(2);
        for r in generator(Architecture::Pdp11, 8).collect_refs(100_000) {
            stats.observe(r);
        }
        let run = stats.mean_ifetch_run();
        assert!((2.0..20.0).contains(&run), "mean run {run}");
    }

    #[test]
    fn s370_footprint_dwarfs_z8000() {
        // §4.2.5's explanation of the inter-architecture ordering.
        let mut z = TraceStats::new(2);
        for r in generator(Architecture::Z8000, 9).collect_refs(200_000) {
            z.observe(r);
        }
        let mut s = TraceStats::new(4);
        for r in generator(Architecture::S370, 9).collect_refs(200_000) {
            s.observe(r);
        }
        assert!(
            s.footprint_bytes() > 4 * z.footprint_bytes(),
            "S/370 {} vs Z8000 {}",
            s.footprint_bytes(),
            z.footprint_bytes()
        );
    }

    #[test]
    fn chunked_generation_matches_per_item_iteration() {
        // Uneven chunk sizes exercise the pending-data carry across
        // refill boundaries.
        let expected = generator(Architecture::Pdp11, 11).collect_refs(10_000);
        let mut gen = generator(Architecture::Pdp11, 11);
        let mut got = Vec::with_capacity(10_000);
        let mut chunk = RefChunk::new();
        while got.len() < 10_000 {
            let room = (10_000 - got.len()).min(257);
            assert_eq!(gen.read_chunk(&mut chunk, room), room);
            got.extend(chunk.iter());
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn regions_do_not_overlap() {
        let g = generator(Architecture::Pdp11, 10);
        let l = g.layout;
        assert!(l.code_base < l.globals_base);
        assert!(l.globals_base < l.sweep_base);
        assert!(l.sweep_base < l.heap_base);
        assert!(l.heap_base < l.stack_base);
    }
}
