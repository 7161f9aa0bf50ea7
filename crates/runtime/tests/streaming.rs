//! Streamed generation must be indistinguishable from materialization:
//! a [`Trace`] backed by a regenerating iterator and one backed by the
//! packed copy of the same stream must agree on the trace fingerprint
//! (and therefore every journal point key), and drive the simulators —
//! direct, and one-pass sliced on the serial path — to bit-identical
//! metrics. This is the contract that lets sweeps fuse
//! generation into simulation without touching any committed artifact.
//! Both backings are read a chunk at a time: chunk reads of every size
//! must give back the per-item stream, and the one-pass engine reading
//! a trace's chunks must match the direct simulator.

use occache_core::{simulate, simulate_many, CacheConfig, DEFAULT_RANDOM_SEED};
use occache_runtime::eval::{evaluate_point, DesignPoint, Trace};
use occache_runtime::executor::{evaluate_results_supervised_with, SupervisorPolicy};
use occache_runtime::keys::{point_key, trace_fingerprint};
use occache_trace::{AccessKind, ChunkRead, MemRef, RefChunk};
use occache_workloads::{Architecture, Profile, ProgramGenerator};
use proptest::prelude::*;

/// The pool at width 1: the serial path, one engine unit running the
/// traces one after another. `random_determinism.rs` covers widths 1–5.
fn sliced(configs: &[CacheConfig], traces: &[Trace], warmup: usize) -> Vec<DesignPoint> {
    let policy = SupervisorPolicy::disabled();
    evaluate_results_supervised_with(&policy, configs, traces, warmup, Some(1), |_, _| {})
        .0
        .into_iter()
        .map(|r| r.expect("no faults injected"))
        .collect()
}

fn config(net: u64, block: u64, sub: u64) -> CacheConfig {
    CacheConfig::builder()
        .net_size(net)
        .block_size(block)
        .sub_block_size(sub)
        .word_size(2)
        .build()
        .expect("valid geometry")
}

/// A profile the proptest perturbs around the pdp11 baseline; `validate`
/// panics on nonsense, so any generated combination is a legal workload.
fn profile(mem_ref_prob: f64, loop_prob: f64, functions: usize) -> Profile {
    let mut p = Profile::baseline(Architecture::Pdp11);
    p.mem_ref_prob = mem_ref_prob;
    p.loop_prob = loop_prob;
    p.code_functions = functions;
    p.validate();
    p
}

/// Reads `trace` with chunk sizes taken in turn from `sizes`.
fn read_in_chunks(trace: &Trace, sizes: &[usize]) -> Vec<MemRef> {
    let (mut reader, mut chunk, mut out) = (trace.reader(), RefChunk::new(), Vec::new());
    for &max in sizes.iter().cycle() {
        let n = reader.read_chunk(&mut chunk, max);
        assert_eq!(n, chunk.len());
        assert!(n <= max);
        if n == 0 {
            return out;
        }
        out.extend(chunk.iter());
    }
    out
}

/// A packed trace and a streamed one over the same generator prefix.
fn both_backings(p: &Profile, seed: u64, len: usize) -> [Trace; 2] {
    let p = p.clone();
    [
        Trace::new("prop", ProgramGenerator::new(p.clone(), seed).take(len)),
        Trace::streamed("prop", len, move || ProgramGenerator::new(p.clone(), seed)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn chunk_reads_of_every_size_match_per_item_iteration(
        seed in 0u64..1_000,
        len in 0usize..3_000,
        sizes in proptest::collection::vec(1usize..700, 5),
    ) {
        let p = Profile::baseline(Architecture::Vax11);
        let expected: Vec<MemRef> = ProgramGenerator::new(p.clone(), seed).take(len).collect();
        for trace in both_backings(&p, seed, len) {
            prop_assert_eq!(trace.iter().collect::<Vec<_>>(), expected.clone());
            prop_assert_eq!(read_in_chunks(&trace, &sizes), expected.clone());
            // Every boundary: one reference at a time, and all at once.
            prop_assert_eq!(read_in_chunks(&trace, &[1]), expected.clone());
            prop_assert_eq!(read_in_chunks(&trace, &[len + 1]), expected.clone());
        }
    }

    #[test]
    fn the_engine_reading_chunks_matches_the_direct_simulator(
        seed in 0u64..1_000,
        // Past the engine's 4096-reference chunk, with a warm-up that
        // ends inside one.
        len in 1usize..9_000,
        warmup in 0usize..6_000,
    ) {
        let p = Profile::baseline(Architecture::Pdp11);
        let configs = [config(256, 16, 8), config(1024, 32, 8), config(64, 8, 4)];
        for trace in both_backings(&p, seed, len) {
            let all = simulate_many(&configs, [trace.reader()], warmup, DEFAULT_RANDOM_SEED)
                .expect("engine-eligible slice");
            for (c, metrics) in configs.iter().zip(&all[0]) {
                prop_assert_eq!(*metrics, simulate(*c, trace.iter(), warmup));
            }
        }
    }

    #[test]
    fn streamed_trace_is_indistinguishable_from_materialized(
        seed in 0u64..1_000,
        warmup in 0usize..2_000,
        len in 1_000usize..4_000,
        mem_ref_permille in 50u64..950,
        // pdp11 baseline keeps call/return at 0.10 each, and the
        // branch-kind probabilities must sum below 1.
        loop_permille in 0u64..780,
        functions in 4usize..40,
    ) {
        let p = profile(
            mem_ref_permille as f64 / 1000.0,
            loop_permille as f64 / 1000.0,
            functions,
        );
        let materialized = Trace::new(
            "prop",
            ProgramGenerator::new(p.clone(), seed).take(len),
        );
        let streamed = {
            let p = p.clone();
            Trace::streamed("prop", len, move || ProgramGenerator::new(p.clone(), seed))
        };

        // Identical fingerprints — and, since a point key is derived
        // from the fingerprint, identical journal keys for every config.
        let fp_mat = trace_fingerprint(std::slice::from_ref(&materialized));
        let fp_str = trace_fingerprint(std::slice::from_ref(&streamed));
        prop_assert_eq!(fp_mat, fp_str);

        let configs = [config(256, 16, 8), config(1024, 32, 8), config(64, 8, 4)];
        for c in &configs {
            prop_assert_eq!(
                point_key(c, fp_mat, warmup),
                point_key(c, fp_str, warmup)
            );
            // Bit-identical metrics through the direct simulator.
            let direct_mat = simulate(*c, materialized.iter(), warmup);
            let direct_str = simulate(*c, streamed.iter(), warmup);
            prop_assert_eq!(direct_mat, direct_str);
        }

        // And through the sliced one-pass path, with two traces run one
        // after another by the same engine unit.
        let sliced_mat = sliced(
            &configs,
            &[materialized.clone(), materialized.clone()],
            warmup,
        );
        let sliced_str = sliced(&configs, &[streamed.clone(), streamed], warmup);
        for (m, s) in sliced_mat.iter().zip(&sliced_str) {
            prop_assert_eq!(m.config, s.config);
            prop_assert!(
                m.miss_ratio == s.miss_ratio
                    && m.traffic_ratio == s.traffic_ratio
                    && m.nibble_traffic_ratio == s.nibble_traffic_ratio
                    && m.redundant_load_fraction == s.redundant_load_fraction
            );
        }

        // The sliced point must also match the per-point average.
        let point = evaluate_point(
            configs[0],
            &[materialized.clone(), materialized],
            warmup,
        );
        prop_assert!(point.miss_ratio == sliced_str[0].miss_ratio);
    }
}

/// A filtered view replays exactly the kept references of its source,
/// in order, under the declared length — from a packed source or a
/// streamed one — and so fingerprints like a packed copy of them.
#[test]
fn filtered_views_replay_the_kept_references() {
    let p = Profile::baseline(Architecture::Z8000);
    let len = 3_000;
    let refs: Vec<_> = ProgramGenerator::new(p.clone(), 7).take(len).collect();
    let sources = [
        Trace::new("src", refs.clone()),
        Trace::streamed("src", len, move || ProgramGenerator::new(p.clone(), 7)),
    ];
    for source in &sources {
        for data in [false, true] {
            let keep: fn(AccessKind) -> bool = if data {
                AccessKind::is_data
            } else {
                |k| !k.is_data()
            };
            let view = source.filtered("view", keep);
            let kept: Vec<_> = refs
                .iter()
                .copied()
                .filter(|r| r.kind().is_data() == data)
                .collect();
            assert!(view.is_streamed());
            assert_eq!(view.len(), kept.len());
            assert_eq!(view.iter().collect::<Vec<_>>(), kept);
            // Replayable: a second pass yields the same stream.
            assert_eq!(view.iter().count(), kept.len());
            assert_eq!(
                trace_fingerprint(&[view]),
                trace_fingerprint(&[Trace::new("view", kept)])
            );
        }
    }
}
