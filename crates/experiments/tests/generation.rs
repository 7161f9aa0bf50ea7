//! Generating trace sets on the worker pool must be invisible: at every
//! pool width, `materialize` hands back each set the `Workbench` uses
//! reference-for-reference equal to the spec's serial seed-0 stream, so
//! fingerprints, point keys, journals and artifacts cannot move.
//!
//! One `#[test]` only: the pool width follows the process-global
//! `OCCACHE_SLICE_THREADS`, so this file must not gain a second test
//! that could run concurrently in the same process.

use occache_experiments::sweep::{materialize, Trace};
use occache_runtime::keys::trace_fingerprint;
use occache_workloads::{m85_mix, riscii_instruction_workload, Architecture, WorkloadSpec};

/// References per trace: small enough for a debug-profile test run.
const REFS: usize = 3_000;

/// Every trace set `Workbench` generates, by name.
fn workbench_sets() -> Vec<(String, Vec<WorkloadSpec>)> {
    let mut sets: Vec<(String, Vec<WorkloadSpec>)> = Architecture::ALL
        .into_iter()
        .map(|arch| (arch.name().to_string(), WorkloadSpec::set_for(arch)))
        .collect();
    sets.push((
        "load-forward".to_string(),
        WorkloadSpec::z8000_load_forward_set(),
    ));
    sets.push(("M85 mix".to_string(), m85_mix()));
    sets.push(("RISC II".to_string(), vec![riscii_instruction_workload()]));
    sets
}

#[test]
fn pooled_generation_equals_serial_generation_at_every_width() {
    let sets = workbench_sets();
    let serial: Vec<Vec<Trace>> = sets
        .iter()
        .map(|(_, specs)| {
            specs
                .iter()
                .map(|spec| Trace::new(spec.name(), spec.generator(0).take(REFS)))
                .collect()
        })
        .collect();
    for width in ["1", "2", "3"] {
        std::env::set_var("OCCACHE_SLICE_THREADS", width);
        for ((set, specs), expected) in sets.iter().zip(&serial) {
            let pooled = materialize(specs, REFS);
            assert_eq!(pooled.len(), specs.len(), "{set} at width {width}");
            for (spec, trace) in specs.iter().zip(&pooled) {
                assert_eq!(trace.name, spec.name(), "{set} at width {width}");
                assert_eq!(trace.len(), REFS, "{} at width {width}", trace.name);
                assert!(
                    trace.iter().eq(spec.generator(0).take(REFS)),
                    "{} in {set} differs from its serial stream at width {width}",
                    trace.name
                );
            }
            assert_eq!(
                trace_fingerprint(&pooled),
                trace_fingerprint(expected),
                "{set} fingerprint at width {width}"
            );
        }
    }
    std::env::remove_var("OCCACHE_SLICE_THREADS");
}
