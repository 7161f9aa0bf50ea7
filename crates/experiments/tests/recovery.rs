//! End-to-end failure-model tests: kill-and-resume from the checkpoint
//! journal, a sweep surviving an injected panicking design point plus an
//! injected faulty trace reader with surviving results written
//! atomically, supervised timeout → retry → quarantine transitions on
//! real checkpointed sweeps, and a manifest/verify round trip that
//! catches a single flipped byte.

use std::fs;
use std::io::Read as _;
use std::path::PathBuf;
use std::time::Duration;

use occache_core::CacheConfig;
use occache_experiments::checkpoint::evaluate_checkpointed_in;
use occache_experiments::manifest::{self, ManifestEntry};
use occache_experiments::report::{points_to_csv, write_result_in};
use occache_experiments::sweep::{
    evaluate_results_sliced, materialize, standard_config, table1_pairs,
};
use occache_experiments::verify::{verify_dir, VerifyOptions};
use occache_experiments::{PointError, PointFault, Trace};
use occache_runtime::executor::{evaluate_results_supervised_with, FaultPlan, SupervisorPolicy};
use occache_trace::fault::{FaultMode, FaultyReader};
use occache_trace::io::{parse_trace, write_trace, ParseTraceError};
use occache_workloads::{Architecture, WorkloadSpec};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("occache-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn grid() -> (Vec<CacheConfig>, Vec<Trace>) {
    let traces = materialize(
        &[WorkloadSpec::pdp11_ed(), WorkloadSpec::pdp11_opsys()],
        2_000,
    );
    let configs = table1_pairs(256, 2)
        .into_iter()
        .map(|(b, s)| standard_config(Architecture::Pdp11, 256, b, s))
        .collect();
    (configs, traces)
}

/// Run a sweep, "kill" it after K points (by only giving it the first K
/// configs), restart over the full grid, and check the merged result is
/// identical to a clean never-interrupted run.
#[test]
fn kill_and_resume_matches_clean_run() {
    let dir = temp_dir("kill-resume");
    let (configs, traces) = grid();
    let k = configs.len() / 2;
    assert!(k >= 3, "grid too small to be a meaningful test");

    // Phase 1: the "killed" run completes only the first K points. Dropping
    // all in-memory state afterwards is exactly what a process death does;
    // the journal on disk is the only survivor.
    let partial = evaluate_checkpointed_in(
        &dir,
        "grid",
        &configs[..k],
        &traces,
        0,
        false,
        evaluate_results_sliced,
    )
    .unwrap();
    assert_eq!(partial.points.len(), k);
    drop(partial);

    // Phase 2: restart over the full grid. The first K points must come
    // from the journal (the panicking eval proves no re-simulation), the
    // rest are computed.
    let mut fresh_evals = 0usize;
    let fresh_counter = std::sync::atomic::AtomicUsize::new(0);
    let counting_eval = |cs: &[CacheConfig], ts: &[Trace], w: usize| {
        fresh_counter.fetch_add(cs.len(), std::sync::atomic::Ordering::SeqCst);
        evaluate_results_sliced(cs, ts, w)
    };
    let resumed =
        evaluate_checkpointed_in(&dir, "grid", &configs, &traces, 0, false, counting_eval).unwrap();
    fresh_evals += fresh_counter.load(std::sync::atomic::Ordering::SeqCst);
    assert_eq!(resumed.resumed, k);
    assert_eq!(fresh_evals, configs.len() - k);
    assert!(resumed.is_complete());

    // The merged grid equals a clean run, point for point, bit for bit.
    let clean_dir = temp_dir("kill-resume-clean");
    let clean = evaluate_checkpointed_in(
        &clean_dir,
        "grid",
        &configs,
        &traces,
        0,
        false,
        evaluate_results_sliced,
    )
    .unwrap();
    assert_eq!(resumed.points.len(), clean.points.len());
    for (r, c) in resumed.points.iter().zip(&clean.points) {
        assert_eq!(r.config, c.config);
        assert_eq!(r.miss_ratio, c.miss_ratio);
        assert_eq!(r.traffic_ratio, c.traffic_ratio);
        assert_eq!(r.nibble_traffic_ratio, c.nibble_traffic_ratio);
        assert_eq!(r.redundant_load_fraction, c.redundant_load_fraction);
    }
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&clean_dir).unwrap();
}

/// The acceptance scenario: one design point panics and one trace file
/// dies mid-read. The sweep still completes, names the failed cell, the
/// surviving results land atomically, and a second invocation resumes
/// from the journal without re-simulating anything.
#[test]
fn faulty_sweep_completes_reports_and_resumes() {
    let dir = temp_dir("faulty");
    let (configs, traces) = grid();

    // --- Injected faulty trace: serialise one trace, then read it back
    // through a reader that fails after 64 bytes. The structured error is
    // the signal to drop that trace (with a note) rather than crash.
    let mut encoded = Vec::new();
    write_trace(&mut encoded, traces[0].iter()).unwrap();
    let faulty = FaultyReader::new(&encoded[..], FaultMode::ErrorAfter(64));
    let mut survivors = Vec::new();
    let mut trace_notes = Vec::new();
    match parse_trace(faulty) {
        Ok(refs) => survivors.push(Trace::new(traces[0].name.clone(), refs)),
        Err(e @ ParseTraceError::Io(_)) => {
            trace_notes.push(format!("dropped trace {}: {e}", traces[0].name));
        }
        Err(e) => panic!("expected an io error from the faulty reader, got {e:?}"),
    }
    survivors.push(traces[1].clone());
    assert_eq!(survivors.len(), 1, "the faulty trace must be dropped");
    assert_eq!(trace_notes.len(), 1);
    assert!(trace_notes[0].contains("injected fault"), "{trace_notes:?}");

    // --- Injected panicking design point, over the surviving trace set.
    let bad = configs[2];
    let faulty_eval = |cs: &[CacheConfig], ts: &[Trace], w: usize| {
        let mut results = evaluate_results_sliced(cs, ts, w);
        for (c, r) in cs.iter().zip(results.iter_mut()) {
            if *c == bad {
                *r = Err(PointError::panicked(bad, "injected point fault"));
            }
        }
        results
    };
    let outcome =
        evaluate_checkpointed_in(&dir, "faulty", &configs, &survivors, 0, false, faulty_eval)
            .unwrap();
    assert_eq!(outcome.points.len(), configs.len() - 1);
    assert_eq!(outcome.failures.len(), 1);

    // The failed cell is reported by name.
    let note = outcome.failure_note().unwrap();
    assert!(note.contains("FAILED"), "{note}");
    assert!(note.contains("injected point fault"), "{note}");
    assert!(
        note.contains(&format!("({},{})", bad.block_size(), bad.sub_block_size())),
        "failed cell not named: {note}"
    );

    // Surviving CSV written atomically (no temp debris, full content).
    let csv = points_to_csv("PDP-11", &outcome.points);
    let path = write_result_in(&dir, "faulty.csv", &csv).unwrap();
    let mut written = String::new();
    fs::File::open(&path)
        .unwrap()
        .read_to_string(&mut written)
        .unwrap();
    assert_eq!(written, csv);
    assert_eq!(written.lines().count(), outcome.points.len() + 1);
    let debris: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .filter(|n| n.to_string_lossy().contains(".tmp"))
        .collect();
    assert!(debris.is_empty(), "{debris:?}");

    // Second invocation: every surviving point resumes from the journal
    // (the always-panicking eval proves nothing is re-simulated), and the
    // previously failed cell is retried — this time successfully.
    let retry_eval = |cs: &[CacheConfig], ts: &[Trace], w: usize| {
        assert_eq!(cs, [bad], "only the failed cell may re-run");
        evaluate_results_sliced(cs, ts, w)
    };
    let second =
        evaluate_checkpointed_in(&dir, "faulty", &configs, &survivors, 0, false, retry_eval)
            .unwrap();
    assert_eq!(second.resumed, configs.len() - 1);
    assert!(second.is_complete());
    fs::remove_dir_all(&dir).unwrap();
}

/// The supervised acceptance scenario end to end: a design point hung by
/// fault injection times out under the point deadline on two consecutive
/// checkpointed runs (each appending a failure tombstone), and the third
/// run quarantines the cell — skipping it without evaluation — while
/// every healthy sibling completes and resumes normally.
#[test]
fn hung_point_times_out_twice_then_quarantines() {
    let dir = temp_dir("hang-quarantine");
    let (configs, traces) = grid();
    let bad = configs[2];
    let policy = SupervisorPolicy {
        timeout: Some(Duration::from_millis(250)),
        retries: 1,
        backoff: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(40),
        fault: FaultPlan::hang(
            bad.block_size(),
            bad.sub_block_size(),
            Duration::from_secs(30),
        ),
    };
    let supervised = |cs: &[CacheConfig], ts: &[Trace], w: usize| {
        evaluate_results_supervised_with(&policy, cs, ts, w, None, |_, _| {}).0
    };

    // Runs 1 and 2: the hung cell times out, everything else completes.
    for run in 1..=2 {
        let outcome =
            evaluate_checkpointed_in(&dir, "hang", &configs, &traces, 0, false, supervised)
                .unwrap();
        assert_eq!(outcome.points.len(), configs.len() - 1, "run {run}");
        assert_eq!(outcome.failures.len(), 1, "run {run}");
        assert_eq!(outcome.timed_out(), 1, "run {run}");
        let failure = &outcome.failures[0];
        assert_eq!(failure.config, bad);
        assert_eq!(failure.fault, PointFault::Timeout);
        assert!(
            failure.message.contains("OCCACHE_POINT_TIMEOUT"),
            "{failure}"
        );
        if run == 2 {
            // The healthy points resumed from the journal.
            assert_eq!(outcome.resumed, configs.len() - 1);
        }
    }

    // Run 3: two recorded failures quarantine the cell. The panicking
    // eval proves the quarantined point is never handed to the sweep.
    let must_not_run = |cs: &[CacheConfig], ts: &[Trace], w: usize| {
        assert!(
            !cs.contains(&bad),
            "quarantined cell must not be re-evaluated"
        );
        evaluate_results_sliced(cs, ts, w)
    };
    let third =
        evaluate_checkpointed_in(&dir, "hang", &configs, &traces, 0, false, must_not_run).unwrap();
    assert_eq!(third.quarantined(), 1);
    let failure = &third.failures[0];
    assert_eq!(failure.config, bad);
    assert_eq!(failure.fault, PointFault::Quarantined);
    assert!(failure.message.contains("--fresh"), "{failure}");

    // --fresh lifts the quarantine: with the fault gone the cell finally
    // computes and the grid completes.
    let fourth = evaluate_checkpointed_in(
        &dir,
        "hang",
        &configs,
        &traces,
        0,
        true,
        evaluate_results_sliced,
    )
    .unwrap();
    assert!(fourth.is_complete(), "{:?}", fourth.failure_note());
    fs::remove_dir_all(&dir).unwrap();
}

/// A transient panic (fires once, succeeds on retry) is absorbed by the
/// retry budget: the checkpointed sweep completes on the first run, the
/// retry is counted, and no tombstone survives into the journal.
#[test]
fn transient_panic_is_retried_within_a_single_run() {
    let dir = temp_dir("transient");
    let (configs, traces) = grid();
    let bad = configs[1];
    let policy = SupervisorPolicy {
        timeout: None,
        retries: 1,
        backoff: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(20),
        fault: FaultPlan::panic_once(bad.block_size(), bad.sub_block_size()),
    };
    let retries = std::sync::Mutex::new(0usize);
    let supervised = |cs: &[CacheConfig], ts: &[Trace], w: usize| {
        let (results, stats) =
            evaluate_results_supervised_with(&policy, cs, ts, w, None, |_, _| {});
        *retries.lock().unwrap() += stats.retries;
        results
    };
    let outcome =
        evaluate_checkpointed_in(&dir, "transient", &configs, &traces, 0, false, supervised)
            .unwrap();
    assert!(outcome.is_complete(), "{:?}", outcome.failure_note());
    assert!(*retries.lock().unwrap() >= 1, "the retry must be counted");

    // The journal holds only clean points: a resume restores everything.
    let nothing_pending = |cs: &[CacheConfig], _: &[Trace], _: usize| {
        panic!("nothing should be pending, got {} configs", cs.len());
    };
    let resumed = evaluate_checkpointed_in(
        &dir,
        "transient",
        &configs,
        &traces,
        0,
        false,
        nothing_pending,
    )
    .unwrap();
    assert_eq!(resumed.resumed, configs.len());
    fs::remove_dir_all(&dir).unwrap();
}

/// Manifest + verify round trip on a real checkpointed sweep: a clean
/// directory passes, then a single flipped byte in the CSV fails the
/// pass, and a single flipped byte inside a journal record fails it too.
#[test]
fn verify_catches_a_single_flipped_byte_anywhere() {
    let dir = temp_dir("verify");
    let (configs, traces) = grid();
    let outcome = evaluate_checkpointed_in(
        &dir,
        "grid",
        &configs,
        &traces,
        0,
        false,
        evaluate_results_sliced,
    )
    .unwrap();
    let csv = points_to_csv("PDP-11", &outcome.points);
    write_result_in(&dir, "grid.csv", &csv).unwrap();
    manifest::record(
        &dir,
        "grid",
        vec![ManifestEntry::of("grid.csv", &csv, "grid", 0, 0)],
    )
    .unwrap();
    let opts = VerifyOptions {
        sample: 2,
        refs: 2_000,
        resim: true,
    };

    let clean = verify_dir(&dir, &opts).unwrap();
    assert!(clean.is_ok(), "{}", clean.render());
    assert_eq!(clean.files_checked, 1);
    assert_eq!(clean.journals_checked, 1);

    // Flip one byte in the CSV.
    let mut bytes = fs::read(dir.join("grid.csv")).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(dir.join("grid.csv"), &bytes).unwrap();
    let flipped = verify_dir(&dir, &opts).unwrap();
    assert!(!flipped.is_ok());
    assert_eq!(flipped.files_mismatched.len(), 1, "{}", flipped.render());
    // Restore the CSV for the journal corruption case.
    bytes[mid] ^= 0x01;
    fs::write(dir.join("grid.csv"), &bytes).unwrap();

    // Flip one byte inside a journal record's metric digits.
    let journal = dir.join(".checkpoint").join("grid.jsonl");
    let mut jbytes = fs::read(&journal).unwrap();
    let miss_at = jbytes
        .windows(7)
        .position(|w| w == b"\"miss\":")
        .expect("journal has a point record");
    let digit = (miss_at + 7..jbytes.len())
        .find(|&i| jbytes[i].is_ascii_digit())
        .unwrap();
    jbytes[digit] = if jbytes[digit] == b'9' { b'8' } else { b'9' };
    fs::write(&journal, &jbytes).unwrap();
    let corrupted = verify_dir(&dir, &opts).unwrap();
    assert!(!corrupted.is_ok());
    assert!(
        !corrupted.journal_issues.is_empty(),
        "{}",
        corrupted.render()
    );
    fs::remove_dir_all(&dir).unwrap();
}
