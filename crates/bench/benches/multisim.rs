//! One-pass multi-configuration engine vs N independent direct
//! simulations.
//!
//! The claim under test is the paper's "LRU permits more efficient
//! simulation": one engine pass over a trace yields the metrics of every
//! cache size in a slice, so a slice of N sizes should cost well under N
//! direct runs. Both sides simulate identical work (same trace, same
//! configurations, bit-identical outputs — see `tests/multisim_equiv.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use occache_bench::bench_trace;
use occache_core::{simulate, simulate_many, CacheConfig, DEFAULT_RANDOM_SEED};
use occache_workloads::Architecture;

const TRACE_LEN: usize = 100_000;

/// A Table 7 column: one (block, sub) geometry at the paper's three nets.
fn slice_configs(block: u64, sub: u64) -> Vec<CacheConfig> {
    [64u64, 256, 1024]
        .iter()
        .map(|&net| {
            CacheConfig::builder()
                .net_size(net)
                .block_size(block)
                .sub_block_size(sub)
                .word_size(2)
                .build()
                .expect("benchmark geometry is valid")
        })
        .collect()
}

fn bench_one_pass_vs_direct(c: &mut Criterion) {
    let trace = bench_trace(Architecture::Pdp11, TRACE_LEN);
    let mut group = c.benchmark_group("multisim");
    group.throughput(Throughput::Elements(TRACE_LEN as u64));
    for (block, sub) in [(8u64, 4u64), (16, 8), (16, 2)] {
        let configs = slice_configs(block, sub);
        group.bench_with_input(
            BenchmarkId::new("one_pass", format!("{block},{sub}x{}", configs.len())),
            &configs,
            |b, configs| {
                b.iter(|| {
                    simulate_many(configs, [trace.iter().copied()], 0, DEFAULT_RANDOM_SEED)
                        .expect("slice is engine-eligible")
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("n_direct", format!("{block},{sub}x{}", configs.len())),
            &configs,
            |b, configs| {
                b.iter(|| {
                    configs
                        .iter()
                        .map(|&cfg| simulate(cfg, trace.iter().copied(), 0))
                        .collect::<Vec<_>>()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_one_pass_vs_direct);
criterion_main!(benches);
