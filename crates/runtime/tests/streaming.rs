//! Streamed generation must be indistinguishable from materialization:
//! a [`Trace`] backed by a regenerating iterator and one backed by the
//! packed copy of the same stream must agree on the trace fingerprint
//! (and therefore every journal point key), and drive the simulators —
//! direct, one-pass sliced, and the paired two-trace interleave — to
//! bit-identical metrics. This is the contract that lets sweeps fuse
//! generation into simulation without touching any committed artifact.

use occache_core::{simulate, CacheConfig};
use occache_runtime::eval::{evaluate_point, DesignPoint, Trace};
use occache_runtime::executor::{evaluate_results_supervised_with, SupervisorPolicy};
use occache_runtime::keys::{point_key, trace_fingerprint};
use occache_workloads::{Architecture, Profile, ProgramGenerator};
use proptest::prelude::*;

/// The pool at width 1, so the one engine unit runs both traces in one
/// paired (interleaved) pass instead of sharding them.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

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

        // And through the sliced one-pass path, with two traces so the
        // paired (interleaved) engine run is what actually executes.
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
