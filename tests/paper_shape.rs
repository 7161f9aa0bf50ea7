//! Shape checks against the paper's qualitative findings. These are the
//! findings a reproduction must preserve: orderings, trade-off directions
//! and rough factors — not absolute numbers, which depend on the (lost)
//! 1983 trace tapes.
//!
//! Trace lengths here are reduced for test speed; the experiment binary
//! reruns everything at the paper's 1 million references.

use occache::core::{simulate, CacheConfig, FetchPolicy};
use occache::workloads::{m85_mix, Architecture, WorkloadSpec};

const LEN: usize = 120_000;

fn mean_miss(arch: Architecture, net: u64, block: u64, sub: u64, len: usize) -> f64 {
    let specs = WorkloadSpec::set_for(arch);
    let config = CacheConfig::builder()
        .net_size(net)
        .block_size(block)
        .sub_block_size(sub)
        .word_size(arch.word_size())
        .build()
        .unwrap();
    let total: f64 = specs
        .iter()
        .map(|spec| {
            let trace: Vec<_> = spec.generator(0).take(len).collect();
            simulate(config, trace.iter().copied(), 0).miss_ratio()
        })
        .sum();
    total / specs.len() as f64
}

/// §4.2.5: miss ratios increase from Z8000 to PDP-11 to VAX-11 to
/// System/370, at the headline 1024-byte (8,8) configuration.
#[test]
fn architecture_ordering_at_1024() {
    let z = mean_miss(Architecture::Z8000, 1024, 8, 8, LEN);
    let p = mean_miss(Architecture::Pdp11, 1024, 8, 8, LEN);
    let v = mean_miss(Architecture::Vax11, 1024, 8, 8, LEN);
    let s = mean_miss(Architecture::S370, 1024, 8, 8, LEN);
    assert!(z < p, "Z8000 {z} < PDP-11 {p}");
    assert!(p < v, "PDP-11 {p} < VAX-11 {v}");
    assert!(v < s, "VAX-11 {v} < S/370 {s}");
    // And by roughly the paper's factors: S/370 is several times PDP-11.
    assert!(s > 3.0 * p, "S/370 {s} vs PDP-11 {p}");
}

/// §3.1: miss ratio declines monotonically with cache size.
#[test]
fn miss_declines_with_cache_size() {
    for arch in Architecture::ALL {
        let mut previous = f64::INFINITY;
        for net in [64u64, 256, 1024] {
            let miss = mean_miss(arch, net, 8, 8, LEN / 2);
            assert!(
                miss < previous,
                "{arch}: miss at {net} = {miss} vs previous {previous}"
            );
            previous = miss;
        }
    }
}

/// §4.2: at fixed cache and block size, shrinking the sub-block raises the
/// miss ratio and lowers the traffic ratio — the central trade-off.
#[test]
fn sub_block_trade_off_direction() {
    let specs = WorkloadSpec::pdp11_set();
    let traces: Vec<Vec<_>> = specs
        .iter()
        .map(|s| s.generator(0).take(LEN).collect())
        .collect();
    let mut last: Option<(f64, f64)> = None;
    for sub in [32u64, 16, 8, 4, 2] {
        let config = CacheConfig::builder()
            .net_size(1024)
            .block_size(32)
            .sub_block_size(sub)
            .word_size(2)
            .build()
            .unwrap();
        let mut miss = 0.0;
        let mut traffic = 0.0;
        for t in &traces {
            let m = simulate(config, t.iter().copied(), 0);
            miss += m.miss_ratio();
            traffic += m.traffic_ratio();
        }
        miss /= traces.len() as f64;
        traffic /= traces.len() as f64;
        if let Some((prev_miss, prev_traffic)) = last {
            assert!(miss > prev_miss, "sub {sub}: miss must rise as sub shrinks");
            assert!(traffic < prev_traffic, "sub {sub}: traffic must fall");
        }
        last = Some((miss, traffic));
    }
}

/// §4.2.1: caches with one-word sub-blocks can never amplify bus traffic
/// (traffic ratio <= 1), while large sub-blocks on tiny caches can.
#[test]
fn word_sub_blocks_never_amplify_traffic() {
    let trace: Vec<_> = WorkloadSpec::pdp11_roff().generator(0).take(LEN).collect();
    let word_sub = CacheConfig::builder()
        .net_size(32)
        .block_size(4)
        .sub_block_size(2)
        .word_size(2)
        .build()
        .unwrap();
    let m = simulate(word_sub, trace.iter().copied(), 0);
    assert!(m.traffic_ratio() <= 1.0 + 1e-12, "{}", m.traffic_ratio());

    // A 64-byte cache with 16-byte blocks & sub-blocks amplifies traffic
    // (the paper's 16,8 64-byte row has traffic 1.596).
    let big_sub = CacheConfig::builder()
        .net_size(64)
        .block_size(16)
        .sub_block_size(16)
        .word_size(2)
        .build()
        .unwrap();
    let m = simulate(big_sub, trace.iter().copied(), 0);
    assert!(m.traffic_ratio() > 1.0, "{}", m.traffic_ratio());
}

/// §4.4: load-forward, vs the same sub-block size without it, cuts misses
/// by a large factor at a modest traffic increase; vs full-block fetch it
/// cuts traffic at a small miss cost.
#[test]
fn load_forward_sits_between_extremes() {
    let traces: Vec<Vec<_>> = WorkloadSpec::z8000_load_forward_set()
        .iter()
        .map(|s| s.generator(0).take(LEN).collect())
        .collect();
    let run = |sub: u64, fetch: FetchPolicy| {
        let config = CacheConfig::builder()
            .net_size(256)
            .block_size(16)
            .sub_block_size(sub)
            .word_size(2)
            .fetch(fetch)
            .build()
            .unwrap();
        let mut miss = 0.0;
        let mut traffic = 0.0;
        for t in &traces {
            let m = simulate(config, t.iter().copied(), 0);
            miss += m.miss_ratio();
            traffic += m.traffic_ratio();
        }
        (miss / traces.len() as f64, traffic / traces.len() as f64)
    };
    let (full_miss, full_traffic) = run(16, FetchPolicy::Demand);
    let (lf_miss, lf_traffic) = run(2, FetchPolicy::LOAD_FORWARD);
    let (plain_miss, plain_traffic) = run(2, FetchPolicy::Demand);

    assert!(
        lf_miss < plain_miss / 1.5,
        "LF cuts misses: {lf_miss} vs {plain_miss}"
    );
    assert!(lf_traffic > plain_traffic, "LF costs traffic over plain");
    assert!(
        lf_miss > full_miss,
        "LF misses slightly more than full-block"
    );
    assert!(lf_traffic < full_traffic, "LF moves less than full-block");
}

/// §4.1 / Table 6: the 360/85 sector organisation performs far worse than
/// 4-way set-associative mapping at equal size, and most sector sub-blocks
/// are never referenced while resident.
#[test]
fn sector_cache_loses_to_set_associative() {
    let traces: Vec<Vec<_>> = m85_mix()
        .iter()
        .map(|s| s.generator(0).take(LEN).collect())
        .collect();
    let sector = CacheConfig::builder()
        .net_size(16 * 1024)
        .block_size(1024)
        .sub_block_size(64)
        .associativity(16)
        .word_size(4)
        .build()
        .unwrap();
    let set_assoc = CacheConfig::builder()
        .net_size(16 * 1024)
        .block_size(64)
        .sub_block_size(64)
        .associativity(4)
        .word_size(4)
        .build()
        .unwrap();
    let mut sector_miss = 0.0;
    let mut set_miss = 0.0;
    let mut unreferenced = 0.0;
    for t in &traces {
        let m = simulate(sector, t.iter().copied(), 0);
        sector_miss += m.miss_ratio();
        unreferenced += m.unreferenced_sub_block_fraction();
        set_miss += simulate(set_assoc, t.iter().copied(), 0).miss_ratio();
    }
    let n = traces.len() as f64;
    assert!(
        sector_miss / set_miss > 1.8,
        "sector {sector_miss} vs set-assoc {set_miss}: expected ~3x"
    );
    assert!(
        unreferenced / n > 0.6,
        "most sector sub-blocks must go unreferenced, got {}",
        unreferenced / n
    );
}

/// §2.3: RISC II instruction-cache miss ratio falls ~20% per size doubling
/// over 512..4096 bytes.
#[test]
fn riscii_curve_shape() {
    use occache::workloads::riscii_instruction_workload;
    let trace: Vec<_> = riscii_instruction_workload()
        .generator(0)
        .take(LEN)
        .collect();
    let mut previous = f64::INFINITY;
    for net in [512u64, 1024, 2048, 4096] {
        let config = CacheConfig::builder()
            .net_size(net)
            .block_size(8)
            .sub_block_size(8)
            .associativity(1)
            .word_size(4)
            .build()
            .unwrap();
        let miss = simulate(config, trace.iter().copied(), 0).miss_ratio();
        assert!(miss < previous, "net {net}");
        if previous.is_finite() {
            let reduction = 1.0 - miss / previous;
            assert!(
                (0.02..0.60).contains(&reduction),
                "net {net}: reduction per doubling {reduction}"
            );
        }
        previous = miss;
    }
}
