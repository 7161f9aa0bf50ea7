//! Prefetch study (extension; §2.2's "smart cache" direction).
//!
//! §2.2 proposes caches whose "special-purpose logic can examine reference
//! patterns to prefetch instruction codes and operands", warning (after
//! Smith \[11\]) that "effective prefetching reduces latency at a cost of
//! increased memory traffic and at a risk of memory pollution". This
//! binary quantifies all three quantities for demand fetch, sequential
//! prefetch-on-miss, tagged prefetch, and load-forward, at the 1024-byte
//! 16,4 design point.

use occache_core::{simulate, FetchPolicy};
use occache_experiments::report::write_result;
use occache_experiments::runs::Workbench;
use occache_workloads::Architecture;

fn main() -> std::process::ExitCode {
    let mut bench = match Workbench::try_from_env() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let len = bench.len();
    println!(
        "Prefetch policies (extension; §2.2 smart cache): 1024-byte cache,\n\
         16-byte blocks, 4-byte sub-blocks, {len} refs/trace\n"
    );
    let policies: [(&str, FetchPolicy); 4] = [
        ("demand", FetchPolicy::Demand),
        (
            "prefetch-on-miss",
            FetchPolicy::PrefetchNext { tagged: false },
        ),
        (
            "tagged-prefetch",
            FetchPolicy::PrefetchNext { tagged: true },
        ),
        ("load-forward", FetchPolicy::LOAD_FORWARD),
    ];
    let mut csv = String::from("arch,policy,miss_ratio,traffic_ratio,pollution\n");
    println!(
        "{:<16} {:<18} {:>8} {:>9} {:>10}",
        "architecture", "policy", "miss", "traffic", "pollution"
    );
    for arch in Architecture::ALL {
        let word = arch.word_size();
        if word > 4 {
            continue;
        }
        let warmup = bench.warmup_for(arch);
        let traces = bench.arch_traces(arch);
        for (name, fetch) in policies {
            let config = occache_core::CacheConfig::builder()
                .net_size(1024)
                .block_size(16)
                .sub_block_size(4)
                .word_size(word)
                .fetch(fetch)
                .build()
                .expect("valid geometry");
            let mut miss = 0.0;
            let mut traffic = 0.0;
            let mut pollution = 0.0;
            for t in traces {
                let m = simulate(config, t.iter(), warmup);
                miss += m.miss_ratio();
                traffic += m.traffic_ratio();
                pollution += m.prefetch_pollution();
            }
            let n = traces.len() as f64;
            println!(
                "{:<16} {:<18} {:>8.4} {:>9.4} {:>9.1}%",
                arch.name(),
                name,
                miss / n,
                traffic / n,
                pollution / n * 100.0
            );
            csv.push_str(&format!(
                "{},{name},{:.6},{:.6},{:.6}\n",
                arch.name(),
                miss / n,
                traffic / n,
                pollution / n
            ));
        }
        println!();
    }
    println!(
        "(prefetching buys misses with traffic; pollution is the fraction of\n\
         prefetched sub-blocks evicted unused — Smith's risk, measured)"
    );
    match write_result("prefetch.csv", &csv) {
        Ok(path) => {
            eprintln!("wrote {}", path.display());
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("failed to write prefetch.csv: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
