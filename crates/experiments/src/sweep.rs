//! Design-space sweeps at the workload layer: trace materialisation, the
//! paper's Table 1 grid helpers, and the `OCCACHE_REFS`/`OCCACHE_WARMUP`
//! knobs with their paper defaults.
//!
//! The evaluation machinery itself — [`Trace`], [`DesignPoint`], the
//! direct and one-pass engine paths, the slice planner, fault types and
//! the one supervised evaluation pool — lives in `occache-runtime`
//! (shared with the serving layer). The names the experiment binaries,
//! the CLI and the checkpoint layer call are re-exported here, so a
//! sweep needs one import path: [`evaluate_point`] for one design
//! point, [`evaluate_points`] for a complete grid, and
//! [`evaluate_results_sliced`] for per-point results, which collect
//! into a [`SweepOutcome`]. This module adds only what needs the workload crate:
//! turning [`WorkloadSpec`]s into traces and building the paper's
//! standard configurations.

use occache_core::{CacheConfig, FetchPolicy};
use occache_runtime::config::replacement_override;
use occache_workloads::{Architecture, WorkloadSpec};

pub use occache_runtime::config::{
    try_jobs, try_multisim_disabled, try_replacement_override, try_slice_threads,
};
pub use occache_runtime::eval::{
    evaluate_point, plan_units, DesignPoint, PointError, PointFault, SweepUnit, Trace,
};
pub use occache_runtime::executor::{
    evaluate_points, evaluate_results_sliced, failure_note, SweepOutcome,
};
pub use occache_runtime::journal::JournalHealth;

/// Generates `len` references for each spec (seed 0, the canonical trace).
pub fn materialize(specs: &[WorkloadSpec], len: usize) -> Vec<Trace> {
    specs
        .iter()
        .map(|spec| Trace::new(spec.name(), spec.generator(0).take(len)))
        .collect()
}

/// The `(block, sub-block)` pairs of the paper's Table 1 grid applicable to
/// a given net size and word size: blocks 2–64 bytes capped at `net/4`
/// (at least four blocks, matching Table 7's printed rows), sub-blocks
/// 2–32 bytes with `word <= sub <= block`.
pub fn table1_pairs(net: u64, word: u64) -> Vec<(u64, u64)> {
    let mut pairs = Vec::new();
    let max_block = (net / 4).min(64);
    let mut block = max_block;
    while block >= 2.max(word) {
        let mut sub = block.min(32);
        while sub >= word.max(2) {
            pairs.push((block, sub));
            sub /= 2;
        }
        block /= 2;
    }
    pairs
}

/// Builds the paper's standard configuration (4-way, LRU, demand) for an
/// architecture and geometry. `OCCACHE_REPLACEMENT=fifo|random|lru`
/// overrides the replacement policy grid-wide, which is how a stock
/// Table-7 sweep is re-run down a different policy axis — point keys,
/// journals and artifacts all see the overridden config, so runs under
/// different policies never collide.
///
/// # Panics
///
/// Panics if the geometry is invalid for the Table 1 grid (callers pass
/// pairs from [`table1_pairs`], which are always valid).
pub fn standard_config(arch: Architecture, net: u64, block: u64, sub: u64) -> CacheConfig {
    let mut builder = CacheConfig::builder();
    builder
        .net_size(net)
        .block_size(block)
        .sub_block_size(sub)
        .word_size(arch.word_size());
    if let Some(policy) = replacement_override() {
        builder.replacement(policy);
    }
    builder.build().expect("Table 1 geometry is valid")
}

/// Like [`standard_config`] but with the load-forward fetch policy.
pub fn load_forward_config(arch: Architecture, net: u64, block: u64, sub: u64) -> CacheConfig {
    CacheConfig::builder()
        .net_size(net)
        .block_size(block)
        .sub_block_size(sub)
        .word_size(arch.word_size())
        .fetch(FetchPolicy::LOAD_FORWARD)
        .build()
        .expect("Table 1 geometry is valid")
}

/// Number of references per trace: `OCCACHE_REFS` env var, defaulting to
/// the paper's 1 million.
///
/// # Errors
///
/// Returns a message naming the variable when it is set but malformed.
pub fn try_trace_len() -> Result<usize, String> {
    occache_runtime::config::env_usize("OCCACHE_REFS", occache_workloads::PAPER_TRACE_LEN)
}

/// Number of references per trace, tolerating a malformed `OCCACHE_REFS`
/// (falls back to the paper's 1 million). Prefer [`try_trace_len`] in
/// binaries so typos fail fast.
pub fn trace_len() -> usize {
    try_trace_len().unwrap_or(occache_workloads::PAPER_TRACE_LEN)
}

/// Warm-up references per run: `OCCACHE_WARMUP` env var, defaulting to 0.
///
/// # Errors
///
/// Returns a message naming the variable when it is set but malformed.
pub fn try_warmup_len() -> Result<usize, String> {
    occache_runtime::config::env_usize("OCCACHE_WARMUP", 0)
}

/// Warm-up references per run, tolerating a malformed `OCCACHE_WARMUP`
/// (falls back to 0). Prefer [`try_warmup_len`] in binaries.
pub fn warmup_len() -> usize {
    try_warmup_len().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use occache_core::{engine_supports, MAX_MULTISIM_CONFIGS};
    use occache_runtime::config::DisabledEngines;
    use occache_runtime::eval::plan_units_disabling;
    use occache_runtime::executor::{
        evaluate_results_supervised_with, FaultPlan, SupervisorPolicy,
    };
    use std::time::Duration;

    #[test]
    fn table1_pairs_match_table7_row_sets() {
        // Net 64, 16-bit word: the nine printed Table 7 rows plus (16,16),
        // which is in Table 1's legal space though the paper omits the row.
        let pairs = table1_pairs(64, 2);
        assert_eq!(
            pairs,
            vec![
                (16, 16),
                (16, 8),
                (16, 4),
                (16, 2),
                (8, 8),
                (8, 4),
                (8, 2),
                (4, 4),
                (4, 2),
                (2, 2),
            ]
        );
    }

    #[test]
    fn table1_pairs_include_block_equal_sub() {
        let pairs = table1_pairs(256, 2);
        assert!(pairs.contains(&(32, 32)));
        assert!(pairs.contains(&(64, 32)), "block 64 is legal at 256 bytes");
        assert!(pairs.contains(&(2, 2)));
        assert_eq!(pairs.len(), 20, "{pairs:?}");
    }

    #[test]
    fn table1_pairs_respect_word_size() {
        let pairs = table1_pairs(1024, 4);
        assert!(pairs.iter().all(|&(_, s)| s >= 4));
        assert!(!pairs.contains(&(4, 2)));
        assert!(pairs.contains(&(4, 4)));
    }

    #[test]
    fn table1_pairs_cap_sub_at_32() {
        let pairs = table1_pairs(1024, 2);
        assert!(pairs.contains(&(64, 32)));
        assert!(!pairs.contains(&(64, 64)));
    }

    #[test]
    fn evaluate_point_averages_traces() {
        let specs = vec![WorkloadSpec::pdp11_ed(), WorkloadSpec::pdp11_opsys()];
        let traces = materialize(&specs, 5_000);
        let config = standard_config(Architecture::Pdp11, 256, 8, 4);
        let point = evaluate_point(config, &traces, 0);
        assert!(point.miss_ratio > 0.0 && point.miss_ratio < 1.0);
        // Demand identity: averaged traffic = averaged miss × sub/word.
        assert!((point.traffic_ratio - point.miss_ratio * 2.0).abs() < 1e-12);
    }

    #[test]
    fn isolated_sweep_survives_a_hung_point() {
        let traces = materialize(&[WorkloadSpec::pdp11_ed()], 1_000);
        let configs: Vec<_> = table1_pairs(64, 2)
            .into_iter()
            .map(|(b, s)| standard_config(Architecture::Pdp11, 64, b, s))
            .collect();
        // Hang exactly one cell of the grid past the point deadline.
        let mut policy = SupervisorPolicy::disabled();
        policy.timeout = Some(Duration::from_millis(200));
        policy.fault = FaultPlan::hang(8, 4, Duration::from_secs(5));
        let (results, _) =
            evaluate_results_supervised_with(&policy, &configs, &traces, 0, None, |_, _| {});
        let outcome: SweepOutcome = results.into_iter().collect();
        assert_eq!(outcome.points.len(), configs.len() - 1);
        assert_eq!(outcome.failures.len(), 1);
        assert!(!outcome.is_complete());
        assert_eq!(outcome.timed_out(), 1);
        let failure = &outcome.failures[0];
        assert_eq!(failure.config.block_size(), 8);
        assert!(failure.message.contains("deadline"), "{failure}");
        // The failure note names the cell for the artifact report.
        let note = outcome.failure_note().unwrap();
        assert!(note.contains("FAILED"), "{note}");
        assert!(
            note.contains("(8,4)"),
            "note should name the config: {note}"
        );
    }

    #[test]
    fn isolated_sweep_preserves_config_order() {
        let traces = materialize(&[WorkloadSpec::pdp11_ed()], 1_000);
        let configs: Vec<_> = table1_pairs(64, 2)
            .into_iter()
            .map(|(b, s)| standard_config(Architecture::Pdp11, 64, b, s))
            .collect();
        let outcome: SweepOutcome = evaluate_results_sliced(&configs, &traces, 0)
            .into_iter()
            .collect();
        assert!(outcome.is_complete());
        assert_eq!(outcome.resumed, 0);
        for (cfg, p) in configs.iter().zip(&outcome.points) {
            assert_eq!(*cfg, p.config);
        }
    }

    #[test]
    fn point_error_display_names_the_config() {
        let config = standard_config(Architecture::Pdp11, 64, 8, 4);
        let e = PointError::panicked(config, "injected");
        let text = e.to_string();
        assert!(text.contains("(8,4)"), "{text}");
        assert!(text.contains("injected"), "{text}");
    }

    #[test]
    fn parallel_matches_serial() {
        let traces = materialize(&[WorkloadSpec::pdp11_ed()], 3_000);
        let configs: Vec<_> = table1_pairs(64, 2)
            .into_iter()
            .map(|(b, s)| standard_config(Architecture::Pdp11, 64, b, s))
            .collect();
        let parallel = evaluate_points(&configs, &traces, 0);
        for (cfg, p) in configs.iter().zip(&parallel) {
            let serial = evaluate_point(*cfg, &traces, 0);
            assert_eq!(serial.miss_ratio, p.miss_ratio);
        }
    }

    /// A Table-7-style grid plus a FIFO config (engine-eligible, but on
    /// its own policy's slice), load-forward and copy-back configs (on
    /// the LRU slice beside the grid) and the one config no engine can
    /// express (prefetch): exercises every planner path.
    fn mixed_grid() -> Vec<CacheConfig> {
        let mut configs = Vec::new();
        for net in [64u64, 256] {
            for (b, s) in table1_pairs(net, 2) {
                configs.push(standard_config(Architecture::Pdp11, net, b, s));
            }
        }
        let fallback = |builder: &mut occache_core::CacheConfigBuilder| {
            builder
                .net_size(256)
                .block_size(16)
                .sub_block_size(8)
                .word_size(2)
                .build()
                .expect("valid geometry")
        };
        configs.push(fallback(
            CacheConfig::builder().replacement(occache_core::ReplacementPolicy::Fifo),
        ));
        configs.push(fallback(
            CacheConfig::builder().fetch(FetchPolicy::PrefetchNext { tagged: true }),
        ));
        configs.push(fallback(
            CacheConfig::builder().write_policy(occache_core::WritePolicy::CopyBack),
        ));
        configs.push(fallback(
            CacheConfig::builder().fetch(FetchPolicy::LOAD_FORWARD),
        ));
        configs
    }

    #[test]
    fn planner_covers_every_index_exactly_once() {
        use occache_core::EngineKind;
        let configs = mixed_grid();
        let units = plan_units(&configs);
        let mut seen = vec![0usize; configs.len()];
        for unit in &units {
            match unit {
                SweepUnit::Direct(i) => seen[*i] += 1,
                SweepUnit::Engine { kind, members } => {
                    assert!(members.len() <= MAX_MULTISIM_CONFIGS);
                    for &i in members {
                        assert!(engine_supports(&configs[i]));
                        assert_eq!(EngineKind::for_config(&configs[i]), Some(*kind));
                        seen[i] += 1;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "{seen:?}");
        // Only prefetch still needs the direct simulator; the FIFO
        // config rides its own policy's engine slice, and the copy-back
        // and load-forward configs ride the LRU slice with the grid.
        let direct = units
            .iter()
            .filter(|u| matches!(u, SweepUnit::Direct(_)))
            .count();
        assert_eq!(direct, 1);
        let n = configs.len();
        let lru_slice = units
            .iter()
            .find_map(|u| match u {
                SweepUnit::Engine { kind, members } if *kind == EngineKind::Lru => Some(members),
                _ => None,
            })
            .expect("the grid plans an LRU slice");
        assert!(lru_slice.contains(&(n - 2)), "copy-back: {units:?}");
        assert!(lru_slice.contains(&(n - 1)), "load-forward: {units:?}");
        assert!(
            units
                .iter()
                .any(|u| matches!(u, SweepUnit::Engine { kind, members }
                    if *kind == EngineKind::Fifo && members.len() == 1)),
            "{units:?}"
        );
        // Sharing must actually happen: fewer engine passes than engine
        // points (each geometry common to both nets shares one pass).
        let engine_units = units.len() - direct;
        assert!(engine_units < configs.len() - direct, "{units:?}");
        assert!(
            units
                .iter()
                .any(|u| matches!(u, SweepUnit::Engine { members, .. } if members.len() > 1)),
            "{units:?}"
        );
    }

    #[test]
    fn planner_honours_per_engine_disabling() {
        let configs = mixed_grid();
        let disabled = DisabledEngines {
            fifo: true,
            ..DisabledEngines::NONE
        };
        let units = plan_units_disabling(&configs, disabled);
        // The FIFO config joins prefetch on the direct path; the LRU
        // grid still rides its engine.
        let direct = units
            .iter()
            .filter(|u| matches!(u, SweepUnit::Direct(_)))
            .count();
        assert_eq!(direct, 2);
        assert!(units
            .iter()
            .all(|u| !matches!(u, SweepUnit::Engine { kind, .. }
                if *kind == occache_core::EngineKind::Fifo)));
        let all_direct = plan_units_disabling(&configs, DisabledEngines::ALL);
        assert_eq!(all_direct.len(), configs.len());
        assert!(all_direct.iter().all(|u| matches!(u, SweepUnit::Direct(_))));
    }

    #[test]
    fn sliced_sweep_is_bit_identical_to_direct_evaluation() {
        let traces = materialize(
            &[WorkloadSpec::pdp11_ed(), WorkloadSpec::pdp11_trace()],
            3_000,
        );
        let configs = mixed_grid();
        let sliced = evaluate_results_sliced(&configs, &traces, 200);
        for (cfg, r) in configs.iter().zip(&sliced) {
            let p = r.as_ref().expect("no faults injected");
            let direct = evaluate_point(*cfg, &traces, 200);
            assert_eq!(p.miss_ratio, direct.miss_ratio, "{cfg}");
            assert_eq!(p.traffic_ratio, direct.traffic_ratio, "{cfg}");
            assert_eq!(p.nibble_traffic_ratio, direct.nibble_traffic_ratio, "{cfg}");
            assert_eq!(
                p.redundant_load_fraction, direct.redundant_load_fraction,
                "{cfg}"
            );
            assert_eq!(p.gross_size, direct.gross_size, "{cfg}");
        }
    }
}
