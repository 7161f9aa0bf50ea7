//! Resumable sweeps: an append-only, checksummed journal of completed
//! design points.
//!
//! Paper-scale sweeps (1 M references × dozens of configs × four
//! architectures) take long enough that a crash or interrupt should not
//! restart them from zero. Each completed design point is appended to
//! `results/.checkpoint/<artifact>.jsonl` as one JSON line keyed by a hash
//! of the cache configuration, the trace-set fingerprint and the warm-up
//! length. On restart, points whose key is already journalled are restored
//! instead of re-simulated; anything else (changed trace set, changed
//! `OCCACHE_REFS`, new configs) misses the key and is evaluated normally.
//!
//! The record *codec*, compaction and the one journal writer
//! ([`Appender`]) live in [`occache_runtime::journal`], the key
//! derivation in [`occache_runtime::keys`], and the [`PointStore`] that
//! `occache-serve` answers from too in [`occache_runtime::store`]. This
//! module owns the *policy* around them: quarantine tallies, the
//! advisory lock, when to compact, and the checkpointed sweep entry
//! points. A checkpointed sweep is a resume filter in front of the
//! evaluation pool and a journal sink behind it.
//!
//! Since journal format v2 every record carries a schema-version field
//! and an FNV-1a checksum over its payload, so corruption is *detected*
//! rather than silently mis-parsed: bad lines are counted into
//! [`SweepOutcome::journal`] and warned about once per journal with
//! their line numbers, a torn trailing record (crash mid-append) is
//! truncated away, and any damage triggers an atomic compaction that
//! rewrites the journal from its intact records. Failed points are
//! journalled as *tombstones* (`"fail":1`); a point that failed in
//! [`QUARANTINE_AFTER`] runs is quarantined — skipped with a
//! [`PointFault::Quarantined`] failure instead of being retried
//! forever. A `.checkpoint/LOCK` advisory lockfile with stale-PID
//! detection makes each results directory single-writer, so two
//! concurrent runs cannot interleave appends.
//!
//! A results directory computes each point key once. Its journals load
//! once into a [`PointStore`], which takes every successful append too,
//! and a sweep borrows the pending points another journal holds (see
//! the store's read rules): Figures 2 and 4–6 restore Table 7's points,
//! Figure 7 Figure 1's and Figure 8 Figure 2's. A borrowed point counts
//! as restored, and its sealed line is appended to the borrower's
//! journal, so every journal stays self-contained for resume and
//! `occache-verify`. Sibling journals are only read: never compacted,
//! repaired or counted into the borrower's [`SweepOutcome::journal`],
//! and their tombstones do not cross over, so quarantine stays per
//! artifact.
//!
//! Pass `--fresh` (or set `OCCACHE_FRESH=1`) to discard the journal
//! (tombstones included) and recompute everything; `all --fresh` still
//! computes each point once.

use std::collections::{BTreeMap, HashSet};
use std::fs::{self, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use occache_core::CacheConfig;
use occache_runtime::config::{fresh_requested, results_dir};
use occache_runtime::eval::{DesignPoint, PointError, PointFault, Trace};
use occache_runtime::executor::{
    evaluate_results_supervised_with, SuperviseStats, SupervisorPolicy, SweepOutcome,
};
use occache_runtime::journal::{
    compact_journal, journal_path, lock_path, scan_journal, Appender, Entry, JournalScan, Record,
};
use occache_runtime::keys::{config_fingerprint, point_key, trace_fingerprint};
use occache_runtime::progress::ProgressWriter;
use occache_runtime::store::PointStore;

use crate::run_report::PhaseReport;

/// How many failed runs put a design point into quarantine: the point is
/// skipped (with a structured failure) instead of retried forever on
/// every resume. `--fresh` clears the tally.
pub const QUARANTINE_AFTER: u32 = 2;

/// Process exit code when another live run holds the checkpoint lock
/// (sysexits `EX_TEMPFAIL`: try again later).
pub const EXIT_LOCKED: i32 = 75;

// ---------------------------------------------------------------------------
// Advisory lock: .checkpoint/LOCK holds the writer's PID.
// ---------------------------------------------------------------------------

/// An acquired advisory lock on a results directory's checkpoint store.
/// Dropping it releases the lock (removes the file). The lock makes the
/// journal single-writer across processes: a second live process fails
/// fast with a diagnostic instead of interleaving appends.
#[derive(Debug)]
pub struct JournalLock {
    path: PathBuf,
}

/// Whether a PID refers to a live process. Uses `/proc` where it exists
/// (Linux); elsewhere every recorded PID is assumed live, so stale locks
/// need manual removal — the conservative failure mode.
fn pid_alive(pid: u32) -> bool {
    let proc_root = Path::new("/proc");
    if !proc_root.exists() {
        return true;
    }
    proc_root.join(pid.to_string()).exists()
}

impl JournalLock {
    /// Acquires the lock for `dir`, creating `.checkpoint/` on demand.
    ///
    /// A lockfile naming a dead PID is stale and silently replaced. One
    /// naming this process's own PID means another thread of this
    /// process holds it — we wait (bounded) for that thread to finish,
    /// because in-process callers are already serialised per artifact.
    /// One naming a live foreign PID (or unreadable content) fails with
    /// [`io::ErrorKind::WouldBlock`] and a diagnostic naming the holder.
    ///
    /// # Errors
    ///
    /// `WouldBlock` when another live run holds the lock; other I/O
    /// errors propagate from filesystem trouble.
    pub fn acquire(dir: &Path) -> io::Result<JournalLock> {
        let path = lock_path(dir);
        if let Some(ckpt) = path.parent() {
            fs::create_dir_all(ckpt)?;
        }
        let own_pid = std::process::id();
        // Bounded own-PID wait: 25 ms polls for up to ~10 minutes.
        let mut own_waits: u32 = 0;
        loop {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    f.write_all(own_pid.to_string().as_bytes())?;
                    f.sync_all()?;
                    return Ok(JournalLock { path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let holder = fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match holder {
                        Some(pid) if pid == own_pid => {
                            own_waits += 1;
                            if own_waits > 24_000 {
                                return Err(io::Error::new(
                                    io::ErrorKind::WouldBlock,
                                    format!(
                                        "checkpoint lock {} held by this process for over 10 \
                                         minutes; giving up",
                                        path.display()
                                    ),
                                ));
                            }
                            std::thread::sleep(std::time::Duration::from_millis(25));
                        }
                        Some(pid) if !pid_alive(pid) => {
                            // Stale: the writer died without releasing.
                            let _ = fs::remove_file(&path);
                        }
                        Some(pid) => {
                            return Err(io::Error::new(
                                io::ErrorKind::WouldBlock,
                                format!(
                                    "checkpoint lock {} is held by live process {pid}; \
                                     refusing to interleave journal writes",
                                    path.display()
                                ),
                            ));
                        }
                        None => {
                            return Err(io::Error::new(
                                io::ErrorKind::WouldBlock,
                                format!(
                                    "checkpoint lock {} exists with unreadable contents; \
                                     remove it manually if no other run is active",
                                    path.display()
                                ),
                            ));
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for JournalLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Warns about a damaged journal once per path per process, naming the
/// first few offending line numbers.
fn warn_once(path: &Path, scan: &JournalScan) {
    if scan.issues.is_empty() && scan.torn_tail_bytes == 0 {
        return;
    }
    static WARNED: OnceLock<Mutex<HashSet<PathBuf>>> = OnceLock::new();
    let warned = WARNED.get_or_init(|| Mutex::new(HashSet::new()));
    let mut warned = warned.lock().expect("journal warning registry lock");
    if !warned.insert(path.to_path_buf()) {
        return;
    }
    let mut detail = String::new();
    for (line_no, issue) in scan.issues.iter().take(8) {
        if !detail.is_empty() {
            detail.push_str(", ");
        }
        detail.push_str(&format!("line {line_no}: {issue}"));
    }
    if scan.issues.len() > 8 {
        detail.push_str(&format!(", … {} more", scan.issues.len() - 8));
    }
    if scan.torn_tail_bytes > 0 {
        if !detail.is_empty() {
            detail.push_str(", ");
        }
        detail.push_str(&format!("torn tail: {} byte(s)", scan.torn_tail_bytes));
    }
    eprintln!(
        "warning: journal {} had {} bad line(s) [{detail}]; damaged records were dropped and \
         the journal compacted",
        path.display(),
        scan.issues.len(),
    );
}

/// The point store of the results directory `dir`, loaded on first use.
/// The process keeps one store at a time: asking for another directory
/// drops the previous one, so a harness that runs each pass into a new
/// directory does not accumulate stores.
pub(crate) fn results_store(dir: &Path) -> Arc<PointStore> {
    static SLOT: Mutex<Option<Arc<PointStore>>> = Mutex::new(None);
    let mut slot = SLOT.lock().expect("point store slot lock");
    if let Some(store) = slot.as_ref().filter(|s| s.dir() == Some(dir)) {
        return Arc::clone(store);
    }
    *slot = None;
    Arc::clone(slot.insert(Arc::new(PointStore::load(dir, usize::MAX))))
}

/// The per-point completion sink a checkpointed sweep hands to its
/// evaluation function: `(pending_index, result)`. Must be called
/// exactly once per pending config, from any thread; each call queues
/// one record for the journal's [`Appender`].
pub type JournalSink<'a> = dyn Fn(usize, &Result<DesignPoint, PointError>) + Sync + 'a;

/// Checkpointed, fault-isolated sweep with an explicit point store (whose
/// results directory holds the journal), fresh flag and evaluation
/// function: the injectable form tests use; production callers use
/// [`evaluate_checkpointed`].
///
/// Journalled points are restored without re-simulation
/// ([`SweepOutcome::resumed`] counts them), including pending points
/// borrowed from the store (see the module docs), whose sealed lines
/// are written and fsynced before evaluation starts; quarantined points
/// (those with [`QUARANTINE_AFTER`] or more journalled failures) are
/// skipped with a structured failure. The rest go to `eval` in one
/// batch, so the production path can share trace passes across configs
/// ([`occache_runtime::executor::evaluate_results_sliced`]). `eval` must
/// return one result per pending config, in order, and call the
/// [`JournalSink`] once per pending config as each completes, so a
/// crash or interrupt mid-batch loses only the points in flight. A
/// success with finite metrics is journalled as a point and goes into
/// the store; a failure, or a non-finite "success" (rejected here),
/// journals a failure tombstone so the quarantine tally survives
/// restarts. Interrupted points ([`PointFault::Interrupted`]) are not
/// tombstoned: nothing was evaluated, and a tombstone would push an
/// innocent point toward quarantine. Lines land in completion order;
/// journal keys are per point, so resume does not depend on how points
/// were batched. Under `fresh` the first call per journal and store
/// discards the journal.
///
/// The phase also drives the live progress feed
/// ([`occache_runtime::progress`], `results/.checkpoint/PROGRESS.json`):
/// an initial snapshot lands once resume has settled restored and
/// quarantined counts, every sink call feeds it, and the feed is sealed,
/// interrupt flag included, before the outcome returns. `eval` receives
/// the [`ProgressWriter`] so it can fold in what only it observes
/// (supervisor retry tallies).
///
/// The whole call holds the directory's [`JournalLock`]; a second live
/// process gets [`io::ErrorKind::WouldBlock`]. Journal damage found on
/// load is counted into [`SweepOutcome::journal`], warned about once,
/// and repaired in place by atomic compaction. A journal write that
/// fails once evaluation has begun does not fail the call: the
/// evaluated outcome returns, stderr names the journal and the error,
/// and the points stay out of the store's on-disk view.
///
/// # Errors
///
/// Propagates journal I/O failures before evaluation (unreadable or
/// unwritable checkpoint directory, a failed borrowed-line write, lock
/// contention, a store with no results directory). Simulation faults
/// are *not* errors: they come back in [`SweepOutcome::failures`].
pub fn evaluate_checkpointed_in<F>(
    store: &PointStore,
    artifact: &str,
    configs: &[CacheConfig],
    traces: &[Trace],
    warmup: usize,
    fresh: bool,
    eval: F,
) -> io::Result<SweepOutcome>
where
    F: FnOnce(
        &[CacheConfig],
        &[Trace],
        usize,
        &JournalSink,
        &ProgressWriter,
    ) -> Vec<Result<DesignPoint, PointError>>,
{
    let dir = store
        .dir()
        .ok_or_else(|| io::Error::other("the point store has no results directory"))?;
    let path = journal_path(dir, artifact);
    let own = format!("{artifact}.jsonl");
    let _lock = JournalLock::acquire(dir)?;
    if fresh && store.freshen(&own) {
        match fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    let scan = scan_journal(&path)?;
    warn_once(&path, &scan);
    let health = scan.health();
    let scan = if scan.needs_repair() {
        compact_journal(&path, scan)?
    } else {
        scan
    };
    let fingerprint = trace_fingerprint(traces);
    let keys: Vec<u64> = configs
        .iter()
        .map(|c| point_key(c, fingerprint, warmup))
        .collect();

    // Partition into restored, quarantined and pending, remembering
    // original indices.
    let mut slots: Vec<Option<Result<DesignPoint, PointError>>> = vec![None; configs.len()];
    let mut pending_idx = Vec::new();
    let mut resumed = 0;
    let mut quarantined = 0;
    for (i, (&config, &key)) in configs.iter().zip(&keys).enumerate() {
        if let Some(entry) = scan.points.get(&key) {
            slots[i] = Some(Ok(entry.restore(config)));
            resumed += 1;
        } else if let Some(&fails) = scan.fails.get(&key).filter(|&&n| n >= QUARANTINE_AFTER) {
            slots[i] = Some(Err(PointError::quarantined(config, fails)));
            quarantined += 1;
        } else {
            pending_idx.push(i);
        }
    }

    // A results directory computes each point key once: a pending point
    // another artifact already journalled here is restored from the
    // store, and its sealed line is appended to this journal (in config
    // order, before any evaluation) so the journal stays self-contained
    // for resume and verification.
    let fresh_run = fresh || fresh_requested();
    let mut journalled = Vec::new();
    let mut sources: BTreeMap<Arc<str>, usize> = BTreeMap::new();
    pending_idx.retain(|&i| {
        let Some((entry, source)) = store.borrow(keys[i], &own, fresh_run) else {
            return true;
        };
        slots[i] = Some(Ok(entry.restore(configs[i])));
        journalled.push((keys[i], entry));
        *sources.entry(source).or_insert(0) += 1;
        false
    });
    resumed += journalled.len();
    // The journal opens only when there is a line to write, so a sweep
    // with nothing to append leaves no file behind.
    let appender = (!journalled.is_empty() || !pending_idx.is_empty())
        .then(|| Appender::open(dir, artifact, &scan, Arc::default()))
        .transpose()?;
    if let Some(appender) = &appender {
        for &(key, entry) in &journalled {
            appender.append(Record::Point(key, entry));
        }
        if !journalled.is_empty() && !pending_idx.is_empty() {
            appender.sync()?;
        }
    }
    if resumed > 0 {
        let mut line = format!(
            "{artifact}: resumed {resumed} of {} design point(s) from checkpoint",
            configs.len()
        );
        if !sources.is_empty() {
            let from: Vec<String> = sources
                .iter()
                .map(|(s, n)| format!("{n} from {s}"))
                .collect();
            line.push_str(&format!(" ({})", from.join(", ")));
        }
        eprintln!("{line}");
    }
    let pending_cfg: Vec<CacheConfig> = pending_idx.iter().map(|&i| configs[i]).collect();

    // The live progress feed starts once resume has settled what is
    // already done, and is sealed before this call returns — so a
    // dashboard sees `restored` jump at phase start, `computed` climb
    // during evaluation, and `sealed: true` exactly when the journal is
    // consistent with the outcome.
    let every = occache_runtime::config::try_progress_every().unwrap_or_else(|e| {
        eprintln!("warning: ignoring invalid progress settings: {e}");
        16
    });
    let progress = ProgressWriter::start(dir, artifact, configs.len(), resumed, quarantined, every);

    if let Some(appender) = appender {
        if !pending_cfg.is_empty() {
            let pending_keys: Vec<u64> = pending_idx.iter().map(|&i| keys[i]).collect();
            let progress = &progress;
            let appender = &appender;
            let sink = |pi: usize, result: &Result<DesignPoint, PointError>| {
                let Some(&key) = pending_keys.get(pi) else {
                    return; // out-of-range index from a buggy eval: ignore
                };
                let record = match result {
                    // Reject poisoned metrics at the journal gate: a
                    // NaN/inf must not round-trip into an artifact.
                    Ok(p) if Entry::of(p).non_finite_field().is_some() => {
                        progress.failed(false);
                        Record::Tombstone(key, 1)
                    }
                    Ok(p) => {
                        progress.completed();
                        Record::Point(key, Entry::of(p))
                    }
                    // An interrupted point was never evaluated: no
                    // tombstone, so the resumed run retries it without a
                    // quarantine mark.
                    Err(e) if e.fault == PointFault::Interrupted => return,
                    Err(e) => {
                        progress.failed(e.fault == PointFault::Timeout);
                        Record::Tombstone(key, 1)
                    }
                };
                appender.append(record);
            };
            let results = eval(&pending_cfg, traces, warmup, &sink, progress);
            assert_eq!(
                results.len(),
                pending_cfg.len(),
                "batch eval must return one result per pending config"
            );
            for (&i, result) in pending_idx.iter().zip(results) {
                slots[i] = Some(result.and_then(|p| {
                    let entry = Entry::of(&p);
                    match entry.non_finite_field() {
                        Some(field) => Err(PointError::non_finite(p.config, field)),
                        None => {
                            journalled.push((keys[i], entry));
                            Ok(p)
                        }
                    }
                }));
            }
        }
        // The points are evaluated: a journal that could not take them
        // costs resumability, not the science.
        let on_disk = match appender.close() {
            Ok(()) => Some(own.as_str()),
            Err(e) => {
                eprintln!(
                    "warning: journal {} could not be written ({e}); {artifact}'s points are \
                     computed but will not resume",
                    path.display()
                );
                None
            }
        };
        for (key, entry) in journalled {
            store.insert(key, entry, on_disk);
        }
    }

    progress.seal(occache_runtime::interrupt::requested());

    Ok(SweepOutcome {
        resumed,
        journal: health,
        ..slots
            .into_iter()
            .map(|slot| slot.expect("every config restored, quarantined or evaluated"))
            .collect()
    })
}

/// Checkpointed sweep for an artifact under the standard results
/// directory, through that directory's point store
/// (`results_store`), honouring `--fresh` / `OCCACHE_FRESH` (the
/// journal is discarded on the artifact's first sweep only, so one swept
/// in several calls keeps its earlier appends) and the supervisor
/// environment (`OCCACHE_POINT_TIMEOUT`, `OCCACHE_FAULT_POINT`). Every
/// evaluation runs under the supervisor: per-point deadlines, bounded
/// retries, quarantine on repeat offenders.
/// The phase is recorded into the in-process run report
/// ([`crate::run_report`]) for RUN_REPORT.json.
///
/// Journal I/O trouble degrades gracefully, because losing checkpointing
/// must never lose the science. Trouble before evaluation (opening,
/// scanning or compacting the journal) runs the sweep without resume;
/// a journal write that fails after evaluation began keeps the
/// evaluated outcome, so no point is simulated twice. Either way the
/// phase is recorded and stderr names the problem. The one exception is
/// lock contention — another live run writing the same results
/// directory — where continuing would interleave appends; the process
/// prints a diagnostic and exits with [`EXIT_LOCKED`].
pub fn evaluate_checkpointed(
    artifact: &str,
    configs: &[CacheConfig],
    traces: &[Trace],
    warmup: usize,
) -> SweepOutcome {
    let started = std::time::Instant::now();
    let policy = SupervisorPolicy::from_env_lenient();
    let stats = Mutex::new(SuperviseStats::default());
    let dir = results_dir();
    // Stream each point into the journal as the supervisor finishes it,
    // so a SIGINT mid-sweep still leaves everything completed so far
    // sealed on disk.
    let supervised = |cfgs: &[CacheConfig],
                      tr: &[Trace],
                      w: usize,
                      sink: &JournalSink,
                      progress: &ProgressWriter| {
        let (results, s) =
            evaluate_results_supervised_with(&policy, cfgs, tr, w, None, |i, r| sink(i, r));
        // The retry and evaluation-path tallies only exist in
        // supervisor stats; fold them into the progress feed so the
        // seal carries them.
        progress.add_retries(s.retries);
        progress.add_engine_points(s.engine_points, s.direct_points);
        stats.lock().expect("supervisor stats lock").merge(s);
        results
    };
    let mut outcome = match evaluate_checkpointed_in(
        &results_store(&dir),
        artifact,
        configs,
        traces,
        warmup,
        fresh_requested(),
        supervised,
    ) {
        Ok(outcome) => outcome,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
            eprintln!("{artifact}: {e}");
            eprintln!(
                "another run appears to hold the checkpoint lock for {}; \
                 wait for it to finish (or remove a stale LOCK) and retry",
                dir.display()
            );
            std::process::exit(EXIT_LOCKED);
        }
        Err(e) => {
            eprintln!("{artifact}: checkpoint journal unavailable ({e}); running without resume");
            let (results, s) =
                evaluate_results_supervised_with(&policy, configs, traces, warmup, None, |_, _| {});
            stats.lock().expect("supervisor stats lock").merge(s);
            results.into_iter().collect()
        }
    };
    let stats = *stats.lock().expect("supervisor stats lock");
    outcome.retries = stats.retries;
    crate::run_report::record_phase(PhaseReport {
        artifact: artifact.to_string(),
        computed: outcome.points.len().saturating_sub(outcome.resumed),
        restored: outcome.resumed,
        failed: outcome.failures.len(),
        timed_out: outcome.timed_out(),
        quarantined: outcome.quarantined(),
        non_finite: outcome.non_finite(),
        retries: stats.retries,
        abandoned_threads: stats.abandoned_threads,
        engine_points: stats.engine_points,
        direct_points: stats.direct_points,
        bad_journal_lines: outcome.journal.bad_lines,
        repaired_tail_bytes: outcome.journal.repaired_tail_bytes,
        wall_ms: started.elapsed().as_millis(),
        // The memoized value the point keys were derived from: no second
        // pass over the references.
        trace_fp: trace_fingerprint(traces),
        config_fp: config_fingerprint(configs),
    });
    // Phase boundary: flush the report accumulated so far as an
    // in-flight snapshot, so RUN_REPORT.json is readable mid-run
    // (marked `"in_progress": true` until the binary's final sealed
    // write). Failure to flush must not fail the science.
    if let Err(e) = crate::run_report::flush(&dir) {
        eprintln!(
            "warning: could not flush {}: {e}",
            crate::run_report::RUN_REPORT_FILE
        );
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::{journalled_grid, Workbench};
    use crate::sweep::{evaluate_results_sliced, materialize, standard_config, table1_pairs};
    use occache_runtime::journal::{
        parse_line, point_body, seal, tombstone_body, JournalHealth, LineIssue,
    };
    use occache_workloads::{Architecture, WorkloadSpec};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// One result per pending config, in order.
    type Results = Vec<Result<DesignPoint, PointError>>;

    /// Runs a batch evaluation, then journals each result in pending
    /// order: the shape the fault-injecting closures below take.
    fn batch(
        eval: impl FnOnce(&[CacheConfig], &[Trace], usize) -> Results,
    ) -> impl FnOnce(&[CacheConfig], &[Trace], usize, &JournalSink, &ProgressWriter) -> Results
    {
        move |cs, ts, w, sink, _| {
            let results = eval(cs, ts, w);
            for (i, r) in results.iter().enumerate() {
                sink(i, r);
            }
            results
        }
    }

    fn test_grid() -> (Vec<CacheConfig>, Vec<Trace>) {
        let traces = materialize(&[WorkloadSpec::pdp11_ed()], 1_000);
        let configs = table1_pairs(64, 2)
            .into_iter()
            .map(|(b, s)| standard_config(Architecture::Pdp11, 64, b, s))
            .collect();
        (configs, traces)
    }

    /// The point store a process starting now would load for `dir`.
    fn store_at(dir: &Path) -> PointStore {
        PointStore::load(dir, usize::MAX)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("occache-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn sealed_lines_round_trip_exactly() {
        let e = Entry {
            miss: 0.052_123_456_789,
            traffic: 1.0 / 3.0,
            nibble: f64::MIN_POSITIVE,
            redundant: 0.0,
        };
        let line = seal(&point_body(0xdead_beef, &e));
        match parse_line(&line).unwrap() {
            Record::Point(key, back) => {
                assert_eq!(key, 0xdead_beef);
                assert_eq!(back, e);
            }
            other => panic!("expected a point, got {other:?}"),
        }
        let tomb = seal(&tombstone_body(0xdead_beef, 3));
        assert_eq!(
            parse_line(&tomb).unwrap(),
            Record::Tombstone(0xdead_beef, 3)
        );
    }

    #[test]
    fn corrupt_lines_are_classified_not_skipped() {
        assert_eq!(parse_line(""), Err(LineIssue::Unparseable));
        assert_eq!(parse_line("not json at all"), Err(LineIssue::Unparseable));
        // A flipped payload byte breaks the checksum.
        let good = seal(&point_body(
            7,
            &Entry {
                miss: 0.5,
                traffic: 0.25,
                nibble: 0.1,
                redundant: 0.0,
            },
        ));
        let bad = good.replace("0.25", "0.35");
        assert_eq!(parse_line(&bad), Err(LineIssue::BadChecksum));
        // A flipped checksum byte likewise.
        let bad_sum = {
            let mut s = good.clone();
            let idx = s.rfind('"').unwrap() - 1;
            let old = s.as_bytes()[idx];
            let new = if old == b'0' { '1' } else { '0' };
            s.replace_range(idx..idx + 1, &new.to_string());
            s
        };
        assert_eq!(parse_line(&bad_sum), Err(LineIssue::BadChecksum));
        // Legacy v1 records are reported as stale versions, not garbage.
        let v1 = "{\"key\":\"00000000deadbeef\",\"miss\":0.1,\"traffic\":0.2,\"nibble\":0.3,\"redundant\":0.0}";
        assert_eq!(parse_line(v1), Err(LineIssue::BadVersion));
        // Every proper prefix of a sealed line is unparseable: truncation
        // can never masquerade as a valid record.
        for cut in 0..good.len() {
            assert!(
                parse_line(&good[..cut]).is_err(),
                "prefix of {cut} bytes parsed"
            );
        }
    }

    #[test]
    fn non_finite_metrics_are_rejected_by_the_parser() {
        let e = Entry {
            miss: f64::NAN,
            traffic: 0.2,
            nibble: 0.3,
            redundant: 0.0,
        };
        let line = seal(&point_body(1, &e));
        assert_eq!(parse_line(&line), Err(LineIssue::NonFinite));
        let inf = Entry {
            miss: 0.1,
            traffic: f64::INFINITY,
            nibble: 0.3,
            redundant: 0.0,
        };
        let line = seal(&point_body(1, &inf));
        assert_eq!(parse_line(&line), Err(LineIssue::NonFinite));
    }

    #[test]
    fn non_finite_results_become_point_errors_and_tombstones() {
        let dir = temp_dir("nonfinite");
        let store = store_at(&dir);
        let (configs, traces) = test_grid();
        let poisoned = configs[1];
        let eval = |cs: &[CacheConfig], ts: &[Trace], w: usize| {
            let mut results = evaluate_results_sliced(cs, ts, w);
            for p in results.iter_mut().flatten() {
                if p.config == poisoned {
                    p.miss_ratio = f64::NAN;
                }
            }
            results
        };
        let outcome =
            evaluate_checkpointed_in(&store, "t", &configs, &traces, 0, false, batch(eval))
                .unwrap();
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].fault, PointFault::NonFinite);
        assert!(outcome.failures[0].message.contains("miss_ratio"));
        // The journal holds a tombstone, not a poisoned point: a healthy
        // rerun re-simulates it.
        let second = evaluate_checkpointed_in(
            &store,
            "t",
            &configs,
            &traces,
            0,
            false,
            batch(evaluate_results_sliced),
        )
        .unwrap();
        assert!(second.is_complete());
        assert_eq!(second.resumed, configs.len() - 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_distinguishes_traces_and_warmup_keys() {
        let a = materialize(&[WorkloadSpec::pdp11_ed()], 500);
        let b = materialize(&[WorkloadSpec::pdp11_ed()], 501);
        let c = materialize(&[WorkloadSpec::pdp11_opsys()], 500);
        let fa = trace_fingerprint(&a);
        assert_eq!(fa, trace_fingerprint(&a), "deterministic");
        assert_ne!(fa, trace_fingerprint(&b), "length changes the set");
        assert_ne!(fa, trace_fingerprint(&c), "workload changes the set");
        let config = standard_config(Architecture::Pdp11, 64, 8, 4);
        assert_ne!(
            point_key(&config, fa, 0),
            point_key(&config, fa, 100),
            "warm-up is part of the key"
        );
        let grid: Vec<CacheConfig> = table1_pairs(64, 2)
            .into_iter()
            .map(|(b, s)| standard_config(Architecture::Pdp11, 64, b, s))
            .collect();
        assert_eq!(config_fingerprint(&grid), config_fingerprint(&grid));
        assert_ne!(
            config_fingerprint(&grid),
            config_fingerprint(&grid[1..]),
            "grid membership changes the fingerprint"
        );
    }

    #[test]
    fn second_run_resumes_everything() {
        let dir = temp_dir("resume");
        let store = store_at(&dir);
        let (configs, traces) = test_grid();
        let first = evaluate_checkpointed_in(
            &store,
            "t",
            &configs,
            &traces,
            0,
            false,
            batch(evaluate_results_sliced),
        )
        .unwrap();
        assert_eq!(first.resumed, 0);
        assert!(first.is_complete());
        // Second run: everything comes from the journal; an eval fn that
        // panics proves nothing is re-simulated.
        let second = evaluate_checkpointed_in(
            &store,
            "t",
            &configs,
            &traces,
            0,
            false,
            batch(
                |_: &[CacheConfig],
                 _: &[Trace],
                 _: usize|
                 -> Vec<Result<DesignPoint, PointError>> {
                    panic!("should not re-simulate")
                },
            ),
        )
        .unwrap();
        assert_eq!(second.resumed, configs.len());
        assert_eq!(second.journal, JournalHealth::default());
        for (a, b) in first.points.iter().zip(&second.points) {
            assert_eq!(a.miss_ratio, b.miss_ratio);
            assert_eq!(a.traffic_ratio, b.traffic_ratio);
            assert_eq!(a.nibble_traffic_ratio, b.nibble_traffic_ratio);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_discards_the_journal() {
        let dir = temp_dir("fresh");
        let store = store_at(&dir);
        let (configs, traces) = test_grid();
        evaluate_checkpointed_in(
            &store,
            "t",
            &configs,
            &traces,
            0,
            false,
            batch(evaluate_results_sliced),
        )
        .unwrap();
        let again = evaluate_checkpointed_in(
            &store,
            "t",
            &configs,
            &traces,
            0,
            true,
            batch(evaluate_results_sliced),
        )
        .unwrap();
        assert_eq!(again.resumed, 0, "--fresh must re-simulate");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_points_are_retried_then_quarantined() {
        let dir = temp_dir("quarantine");
        let store = store_at(&dir);
        let (configs, traces) = test_grid();
        let bad = configs[3];
        // The pool, with the bad cell failing as a panic on every run.
        let faulty = |cs: &[CacheConfig], ts: &[Trace], w: usize| {
            let mut results = evaluate_results_sliced(cs, ts, w);
            for (c, r) in cs.iter().zip(results.iter_mut()) {
                if *c == bad {
                    *r = Err(PointError::panicked(bad, "injected fault"));
                }
            }
            results
        };
        let first =
            evaluate_checkpointed_in(&store, "t", &configs, &traces, 0, false, batch(faulty))
                .unwrap();
        assert_eq!(first.failures.len(), 1);
        assert_eq!(first.failures[0].fault, PointFault::Panic);
        // Second failing run: the point is retried (1 < QUARANTINE_AFTER)
        // and fails again, reaching the quarantine threshold.
        let second =
            evaluate_checkpointed_in(&store, "t", &configs, &traces, 0, false, batch(faulty))
                .unwrap();
        assert_eq!(second.failures.len(), 1);
        assert_eq!(second.failures[0].fault, PointFault::Panic);
        assert_eq!(second.resumed, configs.len() - 1);
        // Third run: quarantined — a counting eval proves it never runs.
        let evals = std::sync::atomic::AtomicUsize::new(0);
        let counting = |cs: &[CacheConfig], ts: &[Trace], w: usize| {
            evals.fetch_add(cs.len(), std::sync::atomic::Ordering::SeqCst);
            evaluate_results_sliced(cs, ts, w)
        };
        let third =
            evaluate_checkpointed_in(&store, "t", &configs, &traces, 0, false, batch(counting))
                .unwrap();
        assert_eq!(evals.load(std::sync::atomic::Ordering::SeqCst), 0);
        assert_eq!(third.failures.len(), 1);
        assert_eq!(third.failures[0].fault, PointFault::Quarantined);
        assert!(
            third.failures[0].message.contains("--fresh"),
            "{}",
            third.failures[0]
        );
        // --fresh clears the tally and the point runs again.
        let fresh = evaluate_checkpointed_in(
            &store,
            "t",
            &configs,
            &traces,
            0,
            true,
            batch(evaluate_results_sliced),
        )
        .unwrap();
        assert!(fresh.is_complete());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn changed_traces_invalidate_the_journal() {
        let dir = temp_dir("invalidate");
        let store = store_at(&dir);
        let (configs, traces) = test_grid();
        evaluate_checkpointed_in(
            &store,
            "t",
            &configs,
            &traces,
            0,
            false,
            batch(evaluate_results_sliced),
        )
        .unwrap();
        let longer = materialize(&[WorkloadSpec::pdp11_ed()], 2_000);
        let outcome = evaluate_checkpointed_in(
            &store,
            "t",
            &configs,
            &longer,
            0,
            false,
            batch(evaluate_results_sliced),
        )
        .unwrap();
        assert_eq!(outcome.resumed, 0, "different traces must not resume");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_mid_file_line_is_counted_and_compacted_away() {
        let dir = temp_dir("compact");
        let store = store_at(&dir);
        let (configs, traces) = test_grid();
        evaluate_checkpointed_in(
            &store,
            "t",
            &configs,
            &traces,
            0,
            false,
            batch(evaluate_results_sliced),
        )
        .unwrap();
        let path = journal_path(&dir, "t");
        // Flip one byte in the middle of the second line.
        let mut bytes = fs::read(&path).unwrap();
        let first_nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        let target = first_nl + 10;
        bytes[target] = bytes[target].wrapping_add(1);
        fs::write(&path, &bytes).unwrap();

        let store = store_at(&dir);
        let outcome = evaluate_checkpointed_in(
            &store,
            "t",
            &configs,
            &traces,
            0,
            false,
            batch(evaluate_results_sliced),
        )
        .unwrap();
        assert_eq!(outcome.journal.bad_lines, 1, "{:?}", outcome.journal);
        assert_eq!(outcome.resumed, configs.len() - 1);
        assert!(outcome.is_complete(), "damaged point re-simulates");
        // Compaction left a pristine journal: a strict scan is clean and
        // the next run resumes everything.
        let rescan = scan_journal(&path).unwrap();
        assert!(!rescan.needs_repair(), "{rescan:?}");
        assert_eq!(rescan.points.len(), configs.len());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tail_truncation_at_every_byte_recovers_the_intact_prefix() {
        let dir = temp_dir("truncate");
        let store = store_at(&dir);
        let (configs, traces) = test_grid();
        let take = 4.min(configs.len());
        evaluate_checkpointed_in(
            &store,
            "t",
            &configs[..take],
            &traces,
            0,
            false,
            batch(evaluate_results_sliced),
        )
        .unwrap();
        let path = journal_path(&dir, "t");
        let full = fs::read(&path).unwrap();
        let lines: Vec<&[u8]> = full.split_inclusive(|&b| b == b'\n').collect();
        assert_eq!(lines.len(), take);
        let prefix_len = full.len() - lines[take - 1].len();
        let last_len = lines[take - 1].len();

        // Property: for every truncation point inside the final record,
        // recovery restores exactly the intact prefix — no more, no less
        // — and repair leaves a cleanly rescannable journal. (`last_len`
        // counts the trailing newline, so `last_len - 1` would be the
        // complete record merely missing its newline — that non-lossy
        // case is asserted separately below.)
        for cut in 0..last_len - 1 {
            fs::write(&path, &full[..prefix_len + cut]).unwrap();
            let scan = scan_journal(&path).unwrap();
            assert_eq!(
                scan.points.len(),
                take - 1,
                "cut at byte {cut}: wrong prefix restored"
            );
            assert!(scan.issues.is_empty(), "cut at {cut}: {:?}", scan.issues);
            if cut == 0 {
                assert!(!scan.needs_repair(), "empty tail needs no repair");
            } else {
                assert_eq!(scan.torn_tail_bytes, cut, "cut at byte {cut}");
                compact_journal(&path, scan).unwrap();
                let rescan = scan_journal(&path).unwrap();
                assert!(!rescan.needs_repair());
                assert_eq!(rescan.points.len(), take - 1);
            }
        }

        // The complete-record-missing-newline case keeps all records.
        fs::write(&path, &full[..full.len() - 1]).unwrap();
        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.points.len(), take);
        assert!(scan.missing_final_newline);
        assert_eq!(scan.torn_tail_bytes, 0);
        compact_journal(&path, scan).unwrap();
        assert!(!scan_journal(&path).unwrap().needs_repair());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The production pool at width 1: a serial pool appends journal
    /// lines in planning order, so journal bytes are deterministic.
    fn serial(cs: &[CacheConfig], ts: &[Trace], w: usize) -> Vec<Result<DesignPoint, PointError>> {
        let policy = SupervisorPolicy::disabled();
        evaluate_results_supervised_with(&policy, cs, ts, w, Some(1), |_, _| {}).0
    }

    #[test]
    fn a_results_dir_computes_each_point_key_once() {
        let mut bench = Workbench::new(1_000);
        let table7 = journalled_grid(&mut bench, "table7").unwrap();
        let fig2 = journalled_grid(&mut bench, "fig2").unwrap().remove(0);
        let shared = temp_dir("reuse");
        let shared_store = store_at(&shared);
        for g in &table7 {
            evaluate_checkpointed_in(
                &shared_store,
                "table7",
                &g.configs,
                &g.traces,
                g.warmup,
                false,
                batch(serial),
            )
            .unwrap();
        }
        let table7_bytes = fs::read(journal_path(&shared, "table7")).unwrap();
        let evals = AtomicUsize::new(0);
        let counting = |cs: &[CacheConfig], ts: &[Trace], w: usize| {
            evals.fetch_add(cs.len(), Ordering::SeqCst);
            serial(cs, ts, w)
        };
        let reused = evaluate_checkpointed_in(
            &shared_store,
            "fig2",
            &fig2.configs,
            &fig2.traces,
            fig2.warmup,
            false,
            batch(counting),
        )
        .unwrap();
        assert_eq!(
            evals.load(Ordering::SeqCst),
            0,
            "Table 7 already holds every point"
        );
        assert_eq!(reused.resumed, fig2.configs.len());
        assert!(reused.is_complete());

        // The borrower's journal is self-contained and byte-equal to a
        // standalone run's; the source journal is untouched.
        let alone = temp_dir("reuse-alone");
        let alone_store = store_at(&alone);
        let standalone = evaluate_checkpointed_in(
            &alone_store,
            "fig2",
            &fig2.configs,
            &fig2.traces,
            fig2.warmup,
            false,
            batch(serial),
        )
        .unwrap();
        assert_eq!(standalone.resumed, 0);
        assert_eq!(
            fs::read(journal_path(&shared, "fig2")).unwrap(),
            fs::read(journal_path(&alone, "fig2")).unwrap()
        );
        assert_eq!(
            fs::read(journal_path(&shared, "table7")).unwrap(),
            table7_bytes
        );
        for (a, b) in reused.points.iter().zip(&standalone.points) {
            assert_eq!(a.config, b.config);
            assert_eq!(Entry::of(a), Entry::of(b));
        }
        fs::remove_dir_all(&shared).unwrap();
        fs::remove_dir_all(&alone).unwrap();
    }

    #[test]
    fn fresh_borrows_only_from_siblings_this_process_freshened() {
        let dir = temp_dir("reuse-fresh");
        let store = store_at(&dir);
        let (configs, traces) = test_grid();
        let run = |artifact: &str, fresh: bool| {
            let evals = AtomicUsize::new(0);
            let counting = |cs: &[CacheConfig], ts: &[Trace], w: usize| {
                evals.fetch_add(cs.len(), Ordering::SeqCst);
                serial(cs, ts, w)
            };
            let outcome = evaluate_checkpointed_in(
                &store,
                artifact,
                &configs,
                &traces,
                0,
                fresh,
                batch(counting),
            )
            .unwrap();
            assert!(outcome.is_complete());
            evals.into_inner()
        };
        // A journal from an earlier, non-fresh run may be stale: a fresh
        // run recomputes rather than borrow it.
        assert_eq!(run("old", false), configs.len());
        assert_eq!(
            run("a", true),
            configs.len(),
            "fresh must not borrow stale points"
        );
        // A sibling this process freshened is current, so a later fresh
        // artifact restores from it.
        assert_eq!(run("b", true), 0, "fresh borrows from a freshened sibling");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_damaged_sibling_keeps_its_bytes_and_its_intact_points_serve() {
        let dir = temp_dir("reuse-damaged");
        let store = store_at(&dir);
        let (configs, traces) = test_grid();
        evaluate_checkpointed_in(&store, "a", &configs, &traces, 0, false, batch(serial)).unwrap();
        let sibling = journal_path(&dir, "a");
        // Flip a byte in the middle of the second line and tear the tail.
        let mut bytes = fs::read(&sibling).unwrap();
        let first_nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        bytes[first_nl + 10] = bytes[first_nl + 10].wrapping_add(1);
        bytes.extend_from_slice(b"{\"v\":2,\"key\":\"00");
        fs::write(&sibling, &bytes).unwrap();
        let store = store_at(&dir);

        let evals = AtomicUsize::new(0);
        let counting = |cs: &[CacheConfig], ts: &[Trace], w: usize| {
            evals.fetch_add(cs.len(), Ordering::SeqCst);
            serial(cs, ts, w)
        };
        let outcome =
            evaluate_checkpointed_in(&store, "b", &configs, &traces, 0, false, batch(counting))
                .unwrap();
        assert_eq!(
            evals.load(Ordering::SeqCst),
            1,
            "only the damaged point runs"
        );
        assert_eq!(outcome.resumed, configs.len() - 1);
        assert!(outcome.is_complete());
        assert_eq!(
            outcome.journal,
            JournalHealth::default(),
            "a sibling's damage is not the borrower's"
        );
        assert_eq!(fs::read(&sibling).unwrap(), bytes, "siblings are read-only");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_sibling_tombstone_does_not_quarantine_the_borrower() {
        let dir = temp_dir("reuse-tombstone");
        let store = store_at(&dir);
        let (configs, traces) = test_grid();
        let bad = configs[3];
        let faulty = |cs: &[CacheConfig], ts: &[Trace], w: usize| {
            let mut results = serial(cs, ts, w);
            for (c, r) in cs.iter().zip(results.iter_mut()) {
                if *c == bad {
                    *r = Err(PointError::panicked(bad, "injected fault"));
                }
            }
            results
        };
        for _ in 0..QUARANTINE_AFTER {
            evaluate_checkpointed_in(&store, "a", &configs, &traces, 0, false, batch(faulty))
                .unwrap();
        }
        let quarantined =
            evaluate_checkpointed_in(&store, "a", &configs, &traces, 0, false, batch(faulty))
                .unwrap();
        assert_eq!(
            quarantined.quarantined(),
            1,
            "the point is quarantined for its own artifact"
        );

        let evals = AtomicUsize::new(0);
        let counting = |cs: &[CacheConfig], ts: &[Trace], w: usize| {
            evals.fetch_add(cs.len(), Ordering::SeqCst);
            serial(cs, ts, w)
        };
        let outcome =
            evaluate_checkpointed_in(&store, "b", &configs, &traces, 0, false, batch(counting))
                .unwrap();
        assert_eq!(
            evals.load(Ordering::SeqCst),
            1,
            "the failed point runs for the borrower"
        );
        assert!(outcome.is_complete(), "{:?}", outcome.failures);
        assert_eq!(outcome.resumed, configs.len() - 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn an_unwritable_journal_keeps_the_evaluated_points() {
        if !Path::new("/dev/full").exists() {
            eprintln!("skipped: this system has no /dev/full");
            return;
        }
        let dir = temp_dir("dev-full");
        let store = store_at(&dir);
        let (configs, traces) = test_grid();
        let path = journal_path(&dir, "t");
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::os::unix::fs::symlink("/dev/full", &path).unwrap();
        let evals: Vec<AtomicUsize> = configs.iter().map(|_| AtomicUsize::new(0)).collect();
        let counting = |cs: &[CacheConfig], ts: &[Trace], w: usize| {
            for c in cs {
                let i = configs.iter().position(|x| x == c).unwrap();
                evals[i].fetch_add(1, Ordering::SeqCst);
            }
            serial(cs, ts, w)
        };
        let outcome =
            evaluate_checkpointed_in(&store, "t", &configs, &traces, 0, false, batch(counting))
                .expect("a failed append after evaluation is not an error");
        assert!(outcome.is_complete(), "{:?}", outcome.failures);
        assert_eq!(outcome.points.len(), configs.len());
        for (c, n) in configs.iter().zip(&evals) {
            assert_eq!(n.load(Ordering::SeqCst), 1, "{c:?} ran once");
        }
        // Nothing reached the disk, so no other journal may borrow it.
        let fingerprint = trace_fingerprint(&traces);
        for c in &configs {
            assert!(store
                .borrow(point_key(c, fingerprint, 0), "u.jsonl", false)
                .is_none());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lock_blocks_live_foreign_holders_and_clears_stale_ones() {
        let dir = temp_dir("lock");
        // Stale lock: a PID that cannot be alive (PIDs are bounded well
        // below u32::MAX on Linux).
        fs::create_dir_all(dir.join(".checkpoint")).unwrap();
        fs::write(lock_path(&dir), format!("{}", u32::MAX - 7)).unwrap();
        let lock = JournalLock::acquire(&dir).expect("stale lock must be replaced");
        drop(lock);
        assert!(!lock_path(&dir).exists(), "drop releases the lock");
        // Live foreign holder: PID 1 always exists on Linux.
        fs::write(lock_path(&dir), "1").unwrap();
        let err = JournalLock::acquire(&dir).expect_err("live holder must block");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(err.to_string().contains("LOCK"), "{err}");
        // Unreadable contents block too (conservative).
        fs::write(lock_path(&dir), "$garbage").unwrap();
        let err = JournalLock::acquire(&dir).expect_err("garbage must block");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpointed_run_fails_fast_under_a_foreign_lock() {
        let dir = temp_dir("lock-contention");
        let store = store_at(&dir);
        fs::create_dir_all(dir.join(".checkpoint")).unwrap();
        fs::write(lock_path(&dir), "1").unwrap();
        let (configs, traces) = test_grid();
        let err = evaluate_checkpointed_in(
            &store,
            "t",
            &configs,
            &traces,
            0,
            false,
            batch(evaluate_results_sliced),
        )
        .expect_err("held lock must fail the run");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        fs::remove_dir_all(&dir).unwrap();
    }
}
