//! Cross-runtime equivalence: the same point list evaluated through the
//! batch executor (static-grid job source) and through the live-queue
//! scheduler (the serving layer's job source) must produce bit-identical
//! metrics. Both front-ends are thin clients of the same evaluation
//! core, and this test is the contract that keeps them that way.

use std::sync::mpsc::channel;
use std::sync::Arc;

use occache_core::CacheConfig;
use occache_runtime::eval::Trace;
use occache_runtime::executor::{evaluate_results_sliced, SupervisorPolicy, SweepOutcome};
use occache_runtime::keys::{point_key, trace_fingerprint};
use occache_runtime::queue::{Job, JobResult, Priority, Scheduler, TraceSet};
use occache_workloads::WorkloadSpec;

fn grid(net: u64) -> Vec<CacheConfig> {
    let mut configs = Vec::new();
    let mut block = 64u64;
    while block >= 2 {
        let mut sub = block.min(32);
        while sub >= 2 {
            configs.push(
                CacheConfig::builder()
                    .net_size(net)
                    .block_size(block)
                    .sub_block_size(sub)
                    .word_size(2)
                    .build()
                    .expect("valid geometry"),
            );
            sub /= 2;
        }
        block /= 2;
    }
    configs
}

#[test]
fn batch_executor_and_live_queue_agree_bit_for_bit() {
    let spec = WorkloadSpec::pdp11_ed();
    let traces = vec![Trace::new(spec.name(), spec.generator(0).take(2_000))];
    let configs = grid(256);

    // Batch front-end: the static-grid path every experiment binary uses
    // (engine-slice planning included).
    let batch: SweepOutcome = evaluate_results_sliced(&configs, &traces, 0)
        .into_iter()
        .collect();
    assert!(batch.failures.is_empty(), "{:?}", batch.failures);

    // Serving front-end: the same points submitted as live jobs through
    // the bounded queue, coalesced and evaluated by the worker pool.
    let fingerprint = trace_fingerprint(&traces);
    let set = Arc::new(TraceSet {
        traces,
        fingerprint,
    });
    let sched = Scheduler::new(2, configs.len(), 64, SupervisorPolicy::disabled());
    let (tx, rx) = channel();
    for config in &configs {
        sched
            .submit(Job {
                config: *config,
                traces: Arc::clone(&set),
                warmup: 0,
                priority: Priority::default(),
                key: point_key(config, fingerprint, 0),
                reply: tx.clone(),
            })
            .expect("queue sized to the grid");
    }
    drop(tx);
    let served: Vec<JobResult> = rx.iter().collect();
    sched.shutdown();
    assert_eq!(served.len(), configs.len());

    for config in &configs {
        let key = point_key(config, fingerprint, 0);
        let from_queue = served
            .iter()
            .find(|r| r.key == key)
            .and_then(|r| r.result.as_ref().ok())
            .unwrap_or_else(|| panic!("live queue lost {config}"));
        let from_batch = batch
            .points
            .iter()
            .find(|p| p.config == *config)
            .unwrap_or_else(|| panic!("batch executor lost {config}"));
        for (label, a, b) in [
            ("miss_ratio", from_batch.miss_ratio, from_queue.miss_ratio),
            (
                "traffic_ratio",
                from_batch.traffic_ratio,
                from_queue.traffic_ratio,
            ),
            (
                "nibble_traffic_ratio",
                from_batch.nibble_traffic_ratio,
                from_queue.nibble_traffic_ratio,
            ),
            (
                "redundant_load_fraction",
                from_batch.redundant_load_fraction,
                from_queue.redundant_load_fraction,
            ),
        ] {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{config}: {label} differs between front-ends ({a} vs {b})"
            );
        }
    }
}
