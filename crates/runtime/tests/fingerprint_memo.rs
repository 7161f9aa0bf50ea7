//! The trace-set fingerprint is memoized per process, keyed by the
//! identity of each trace's backing store. The memo must be invisible:
//! every call returns exactly the FNV-1a stream an uncached computation
//! gives — for packed, streamed and mixed sets, for a set rebuilt with
//! the same names and lengths after the old one was dropped, and for
//! callers racing on several threads.

use std::sync::{Arc, Barrier};
use std::thread;

use occache_runtime::eval::Trace;
use occache_runtime::keys::{fnv1a, trace_fingerprint};
use occache_trace::din::din_label;
use occache_trace::MemRef;
use occache_workloads::{Architecture, Profile, ProgramGenerator};

/// The fingerprint's byte stream, written out independently of the
/// library: per trace its name, 0xff, its length (u64 LE), then each
/// reference's din label byte and address (u64 LE).
fn uncached(traces: &[Trace]) -> u64 {
    let mut bytes = Vec::new();
    for trace in traces {
        bytes.extend_from_slice(trace.name.as_bytes());
        bytes.push(0xff);
        bytes.extend_from_slice(&(trace.len() as u64).to_le_bytes());
        for r in trace.iter() {
            bytes.push(din_label(r.kind()));
            bytes.extend_from_slice(&r.address().value().to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

fn packed(name: &str, seed: u64, len: usize) -> Trace {
    let profile = Profile::baseline(Architecture::Pdp11);
    Trace::new(name, ProgramGenerator::new(profile, seed).take(len))
}

fn streamed(name: &str, seed: u64, len: usize) -> Trace {
    let profile = Profile::baseline(Architecture::Pdp11);
    Trace::streamed(name, len, move || {
        ProgramGenerator::new(profile.clone(), seed)
    })
}

#[test]
fn memoized_value_is_the_uncached_stream_for_packed_streamed_and_mixed_sets() {
    let sets = [
        vec![packed("p0", 1, 3_000), packed("p1", 2, 2_000)],
        vec![streamed("s0", 3, 3_000), streamed("s1", 4, 1_000)],
        vec![packed("m0", 5, 2_500), streamed("m1", 6, 2_500)],
        vec![packed("empty", 7, 0)],
        Vec::new(),
    ];
    for set in &sets {
        let expected = uncached(set);
        assert_eq!(trace_fingerprint(set), expected, "first call");
        assert_eq!(trace_fingerprint(set), expected, "memoized call");
        // Clones share each backing: same set, same value.
        let clones = set.clone();
        assert_eq!(trace_fingerprint(&clones), expected, "cloned set");
    }
    // A packed trace and a streamed one over the same references hash
    // alike, memo or not.
    let (a, b) = (packed("same", 9, 2_000), streamed("same", 9, 2_000));
    let (fa, fb) = (
        trace_fingerprint(std::slice::from_ref(&a)),
        trace_fingerprint(&[b]),
    );
    assert_eq!(fa, fb);

    // Same backing, other name: not the same set.
    let mut renamed = a.clone();
    renamed.name = "other".into();
    assert_eq!(trace_fingerprint(&[renamed.clone()]), uncached(&[renamed]));
    // Same traces, other order or a subset: not the same set either.
    let set = &sets[0];
    let reversed = [set[1].clone(), set[0].clone()];
    assert_eq!(trace_fingerprint(&reversed), uncached(&reversed));
    assert_eq!(trace_fingerprint(&set[..1]), uncached(&set[..1]));
}

#[test]
fn a_set_rebuilt_with_the_same_names_and_lengths_gets_its_own_value() {
    let mut seen = Vec::new();
    for seed in 0..32u64 {
        // Identical names and lengths every round, different references;
        // the old set is dropped before the next is built, so allocations
        // may land where the old ones were.
        let set = vec![packed("a", seed, 1_500), streamed("b", seed + 100, 1_500)];
        let fingerprint = trace_fingerprint(&set);
        assert_eq!(fingerprint, uncached(&set), "round {seed}");
        seen.push(fingerprint);
        drop(set);
    }
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), 32, "every rebuilt set hashed to its own value");
}

#[test]
fn a_packed_buffer_rebuilt_in_place_gets_its_own_value() {
    // One reference, so every round's buffer has the same size and the
    // allocator is free to hand back the block it just took back.
    for address in 0..64u64 {
        let set = [Trace::new("x", [MemRef::read(address * 8)])];
        assert_eq!(trace_fingerprint(&set), uncached(&set), "address {address}");
    }
}

#[test]
fn concurrent_callers_agree() {
    const CALLERS: usize = 4;
    let shared = Arc::new(vec![packed("c0", 11, 4_000), streamed("c1", 12, 4_000)]);
    let expected = uncached(&shared);
    // Every caller is released at once onto a set nobody has hashed
    // yet, so they race on the first computation and on the insert.
    let start = Arc::new(Barrier::new(CALLERS));
    let handles: Vec<_> = (0..CALLERS as u64)
        .map(|t| {
            let (shared, start) = (Arc::clone(&shared), Arc::clone(&start));
            thread::spawn(move || {
                start.wait();
                for round in 0..8u64 {
                    assert_eq!(trace_fingerprint(&shared), expected);
                    let own = [packed("own", t * 100 + round, 500)];
                    assert_eq!(trace_fingerprint(&own), uncached(&own));
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("a fingerprint caller panicked");
    }
}

#[test]
fn the_memo_keeps_no_trace_alive() {
    // A streamed trace's factory owns what it captures; once the trace
    // is dropped, only a strong reference held by the memo could keep
    // the capture alive.
    let sentinel = Arc::new(());
    let held = Arc::clone(&sentinel);
    let profile = Profile::baseline(Architecture::Pdp11);
    let trace = Trace::streamed("kept", 1_000, move || {
        let _ = &held;
        ProgramGenerator::new(profile.clone(), 1)
    });
    let set = [trace];
    assert_eq!(trace_fingerprint(&set), uncached(&set));
    assert_eq!(Arc::strong_count(&sentinel), 2);
    drop(set);
    assert_eq!(Arc::strong_count(&sentinel), 1);
}
