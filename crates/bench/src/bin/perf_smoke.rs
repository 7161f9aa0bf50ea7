//! CI perf smoke: regenerate a Table-7-style grid three ways — direct
//! simulation over materialized traces, the sliced one-pass sweep over
//! the same materialized traces, and the sliced sweep fed by streaming
//! generation — and record wall-clock and throughput in
//! `BENCH_sweep.json`. A fourth pass re-runs the grid under FIFO
//! replacement, timing the one-pass FIFO engine against per-config
//! direct simulation, so the trajectory gate covers every shipped
//! engine, not just the LRU fast path.
//!
//! All paths simulate identical work and are checked here to produce
//! bit-identical ratios before the timing is trusted; the speedup and
//! throughput figures are therefore like-for-like measurements, not a
//! benchmark of three different computations. The headline
//! `effective_refs_per_sec` comes from the **streamed** sliced sweep —
//! generation fused into simulation, nothing materialized — because
//! that is the path real sweeps take; its wall clock is the best of
//! [`REPS`] passes so one scheduler hiccup on a shared box does not
//! masquerade as a regression (`ci.sh` gates on the committed value).

use std::time::Instant;

use occache_core::CacheConfig;
use occache_experiments::sweep::{
    evaluate_point, evaluate_results_sliced, evaluate_results_with, materialize, plan_units,
    slice_pool, standard_config, stream_traces, table1_pairs, DesignPoint, PointError,
};
use occache_workloads::{Architecture, WorkloadSpec};

/// Default references per trace; `OCCACHE_REFS` overrides (the paper's
/// 1 M is ~10× this smoke size).
const REFS_PER_TRACE: usize = 100_000;

/// Timed passes for the streamed phase; the minimum wall is reported.
const REPS: usize = 5;

fn refs_per_trace() -> usize {
    std::env::var("OCCACHE_REFS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(REFS_PER_TRACE)
}

fn points(results: Vec<Result<DesignPoint, PointError>>) -> Vec<DesignPoint> {
    results
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect("perf smoke grid must evaluate cleanly")
}

fn main() {
    let arch = Architecture::Pdp11;
    let refs_per_trace = refs_per_trace();
    let specs = WorkloadSpec::set_for(arch);
    let traces = materialize(&specs, refs_per_trace);
    let streamed = stream_traces(&specs, refs_per_trace);
    let configs: Vec<CacheConfig> = [64u64, 256, 1024]
        .into_iter()
        .flat_map(|net| {
            table1_pairs(net, arch.word_size())
                .into_iter()
                .map(move |(b, s)| standard_config(arch, net, b, s))
        })
        .collect();

    // Pure generation drain: what the fused path folds into the engine
    // pass, reported separately so trajectory points stay attributable.
    let t = Instant::now();
    let mut generated = 0usize;
    for trace in &streamed {
        generated += trace.iter().count();
    }
    let gen_s = t.elapsed().as_secs_f64();
    assert_eq!(generated, streamed.len() * refs_per_trace);

    let t0 = Instant::now();
    let direct = points(evaluate_results_with(&configs, &traces, 0, evaluate_point));
    let direct_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let sliced = points(evaluate_results_sliced(&configs, &traces, 0));
    let sliced_s = t1.elapsed().as_secs_f64();

    let mut fused = sliced.clone();
    let mut fused_s = f64::MAX;
    for _ in 0..REPS {
        let t = Instant::now();
        fused = points(evaluate_results_sliced(&configs, &streamed, 0));
        fused_s = fused_s.min(t.elapsed().as_secs_f64());
    }

    for ((d, s), f) in direct.iter().zip(&sliced).zip(&fused) {
        assert_eq!(d.config, s.config);
        assert_eq!(d.config, f.config);
        assert!(
            d.miss_ratio == s.miss_ratio && d.traffic_ratio == s.traffic_ratio,
            "sliced sweep diverged from direct at {}: timing would be meaningless",
            d.config
        );
        assert!(
            d.miss_ratio == f.miss_ratio && d.traffic_ratio == f.traffic_ratio,
            "streamed sweep diverged from direct at {}: timing would be meaningless",
            d.config
        );
    }

    // The same grid down the FIFO axis: per-config direct simulation vs
    // the one-pass FIFO slice engine, bit-identity asserted before the
    // timing is trusted (exactly as above for LRU).
    let fifo_configs: Vec<CacheConfig> = configs
        .iter()
        .map(|c| {
            CacheConfig::builder()
                .net_size(c.net_size())
                .block_size(c.block_size())
                .sub_block_size(c.sub_block_size())
                .word_size(c.word_size())
                .replacement(occache_core::ReplacementPolicy::Fifo)
                .build()
                .expect("FIFO twin of a Table-1 geometry is valid")
        })
        .collect();
    let t2 = Instant::now();
    let fifo_direct = points(evaluate_results_with(
        &fifo_configs,
        &traces,
        0,
        evaluate_point,
    ));
    let fifo_direct_s = t2.elapsed().as_secs_f64();
    let mut fifo_sliced = fifo_direct.clone();
    let mut fifo_sim_s = f64::MAX;
    for _ in 0..REPS {
        let t = Instant::now();
        fifo_sliced = points(evaluate_results_sliced(&fifo_configs, &traces, 0));
        fifo_sim_s = fifo_sim_s.min(t.elapsed().as_secs_f64());
    }
    for (d, s) in fifo_direct.iter().zip(&fifo_sliced) {
        assert_eq!(d.config, s.config);
        assert!(
            d.miss_ratio == s.miss_ratio && d.traffic_ratio == s.traffic_ratio,
            "FIFO sliced sweep diverged from direct at {}: timing would be meaningless",
            d.config
        );
    }

    let threads = slice_pool(plan_units(&configs).len(), traces.len(), None).threads();
    let total_refs = (configs.len() * traces.len() * refs_per_trace) as f64;
    let json = format!(
        "{{\n  \"bench\": \"sweep\",\n  \"grid\": \"pdp11 Table 7 nets 64/256/1024\",\n  \
         \"points\": {},\n  \"traces\": {},\n  \"refs_per_trace\": {},\n  \
         \"threads\": {},\n  \"streamed\": true,\n  \
         \"direct_wall_s\": {:.3},\n  \"sliced_wall_s\": {:.3},\n  \
         \"gen_wall_s\": {:.3},\n  \"sim_wall_s\": {:.3},\n  \"speedup\": {:.2},\n  \
         \"effective_refs_per_sec\": {:.0},\n  \
         \"fifo_direct_wall_s\": {:.3},\n  \"fifo_sim_wall_s\": {:.3},\n  \
         \"fifo_vs_direct\": {:.2},\n  \"fifo_refs_per_sec\": {:.0}\n}}\n",
        configs.len(),
        traces.len(),
        refs_per_trace,
        threads,
        direct_s,
        sliced_s,
        gen_s,
        fused_s,
        direct_s / fused_s,
        total_refs / fused_s,
        fifo_direct_s,
        fifo_sim_s,
        fifo_direct_s / fifo_sim_s,
        total_refs / fifo_sim_s,
    );
    std::fs::write("BENCH_sweep.json", &json).expect("write BENCH_sweep.json");
    print!("{json}");
    eprintln!(
        "perf smoke: direct {direct_s:.3}s, sliced {sliced_s:.3}s, \
         streamed {fused_s:.3}s best-of-{REPS} (gen alone {gen_s:.3}s, {:.2}x); \
         fifo direct {fifo_direct_s:.3}s vs engine {fifo_sim_s:.3}s ({:.2}x)",
        direct_s / fused_s,
        fifo_direct_s / fifo_sim_s,
    );
}
