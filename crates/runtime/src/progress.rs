//! The live progress feed: `results/.checkpoint/PROGRESS.json`.
//!
//! Long sweeps should be observable while they run, not only after
//! RUN_REPORT.json lands. The supervised executor path writes one
//! [`ProgressSnapshot`] — a single sealed, checksummed JSON line, the
//! same armor the checkpoint journal wears — atomically (same-directory
//! temp file + rename) every [`ProgressWriter`] flush interval, and
//! seals it on phase end or interrupt. A dashboard tailing the file
//! therefore never sees a half-written report: a read either yields a
//! checksum-verified snapshot or nothing.
//!
//! Record format (v2):
//! `{"v":2,"artifact":"<name>","total":T,"computed":C,"restored":R,
//! "failed":F,"timed_out":O,"quarantined":Q,"retries":E,
//! "engine_lru":L,"engine_fifo":G,"engine_random":N,"direct":D,
//! "elapsed_ms":M,"sealed":B,"interrupted":I,
//! "sum":"<fnv1a(body) as 016x>"}`. The four engine columns split the
//! computed points by which evaluation path produced them — the
//! one-pass engine under each of its three policies (see
//! [`occache_core::EngineKind`]) and the per-config direct simulator
//! fallback — so a dashboard can show *how*
//! a sweep is running, not just how far along it is. v1 readers reject
//! v2 records (and vice versa) via the version field; the feed is
//! ephemeral per phase, so no migration is needed.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::config::write_result_in;
use crate::keys::fnv1a;

/// The progress file name under a results directory's `.checkpoint/`.
pub const PROGRESS_FILE: &str = "PROGRESS.json";

/// The progress schema version this build reads and writes.
pub const PROGRESS_VERSION: u32 = 2;

/// The progress-feed path for a results directory.
pub fn progress_path(dir: &Path) -> PathBuf {
    dir.join(".checkpoint").join(PROGRESS_FILE)
}

/// A point-in-time accounting of one sweep phase, as written to (and
/// parsed back from) the progress feed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// The artifact (journal) name of the running phase.
    pub artifact: String,
    /// Design points the phase set out to produce.
    pub total: usize,
    /// Points computed so far in this run.
    pub computed: usize,
    /// Points restored from the checkpoint journal at phase start.
    pub restored: usize,
    /// Points failed so far (all classes).
    pub failed: usize,
    /// Failures that were watchdog deadline overruns.
    pub timed_out: usize,
    /// Points skipped because the journal quarantined them.
    pub quarantined: usize,
    /// Supervisor retry attempts so far.
    pub retries: usize,
    /// Computed points that ran on a one-pass slice engine, indexed by
    /// `occache_core::EngineKind::index()` (LRU, FIFO, Random).
    pub engine_points: [usize; 3],
    /// Computed points that fell back to the direct per-config
    /// simulator (unsupported geometry/feature, or containment re-run).
    pub direct_points: usize,
    /// Wall-clock since phase start, milliseconds.
    pub elapsed_ms: u128,
    /// True once the phase ended (normally or by interrupt) and this
    /// snapshot is final.
    pub sealed: bool,
    /// True when the phase was cut short by SIGINT/SIGTERM.
    pub interrupted: bool,
}

impl ProgressSnapshot {
    /// Points still outstanding (never underflows).
    pub fn remaining(&self) -> usize {
        self.total
            .saturating_sub(self.computed + self.restored + self.failed + self.quarantined)
    }

    /// Estimated milliseconds to completion, from the observed
    /// point-rate of this run. `None` until at least one point has been
    /// computed (no rate to extrapolate) or once the phase is sealed.
    pub fn eta_ms(&self) -> Option<u128> {
        if self.sealed || self.computed == 0 || self.elapsed_ms == 0 {
            return None;
        }
        let remaining = self.remaining();
        if remaining == 0 {
            return Some(0);
        }
        Some(self.elapsed_ms * remaining as u128 / self.computed as u128)
    }

    /// Renders the sealed single-line record, checksum included.
    pub fn render(&self) -> String {
        debug_assert!(
            !self.artifact.contains(['"', ',', '\\']),
            "artifact names are plain identifiers"
        );
        let body = format!(
            "\"v\":{PROGRESS_VERSION},\"artifact\":\"{}\",\"total\":{},\"computed\":{},\
             \"restored\":{},\"failed\":{},\"timed_out\":{},\"quarantined\":{},\
             \"retries\":{},\"engine_lru\":{},\"engine_fifo\":{},\"engine_random\":{},\
             \"direct\":{},\"elapsed_ms\":{},\"sealed\":{},\"interrupted\":{}",
            self.artifact,
            self.total,
            self.computed,
            self.restored,
            self.failed,
            self.timed_out,
            self.quarantined,
            self.retries,
            self.engine_points[0],
            self.engine_points[1],
            self.engine_points[2],
            self.direct_points,
            self.elapsed_ms,
            self.sealed,
            self.interrupted,
        );
        format!("{{{body},\"sum\":\"{:016x}\"}}\n", fnv1a(body.as_bytes()))
    }
}

/// Parses one progress record. `None` for anything that is not a
/// complete, checksum-verified v2 record — a torn prefix, a flipped
/// byte, a stale-version line, a foreign file — so a reader can never
/// mis-attribute counts.
pub fn parse_progress(text: &str) -> Option<ProgressSnapshot> {
    let trimmed = text.trim();
    let inner = trimmed.strip_prefix('{')?.strip_suffix('}')?;
    let (body, sum_part) = inner.rsplit_once(",\"sum\":\"")?;
    let sum = u64::from_str_radix(sum_part.strip_suffix('"')?, 16).ok()?;
    if fnv1a(body.as_bytes()) != sum {
        return None;
    }
    let mut version = None;
    let mut artifact = None;
    let mut fields = [None::<usize>; 11];
    let mut elapsed_ms = None;
    let mut sealed = None;
    let mut interrupted = None;
    for field in body.split(',') {
        let (name, value) = field.split_once(':')?;
        let name = name.trim().strip_prefix('"')?.strip_suffix('"')?;
        let value = value.trim();
        match name {
            "v" => version = Some(value.parse::<u32>().ok()?),
            "artifact" => {
                artifact = Some(value.strip_prefix('"')?.strip_suffix('"')?.to_string());
            }
            "total" => fields[0] = Some(value.parse().ok()?),
            "computed" => fields[1] = Some(value.parse().ok()?),
            "restored" => fields[2] = Some(value.parse().ok()?),
            "failed" => fields[3] = Some(value.parse().ok()?),
            "timed_out" => fields[4] = Some(value.parse().ok()?),
            "quarantined" => fields[5] = Some(value.parse().ok()?),
            "retries" => fields[6] = Some(value.parse().ok()?),
            "engine_lru" => fields[7] = Some(value.parse().ok()?),
            "engine_fifo" => fields[8] = Some(value.parse().ok()?),
            "engine_random" => fields[9] = Some(value.parse().ok()?),
            "direct" => fields[10] = Some(value.parse().ok()?),
            "elapsed_ms" => elapsed_ms = Some(value.parse::<u128>().ok()?),
            "sealed" => sealed = Some(value.parse::<bool>().ok()?),
            "interrupted" => interrupted = Some(value.parse::<bool>().ok()?),
            _ => return None,
        }
    }
    if version? != PROGRESS_VERSION {
        return None;
    }
    Some(ProgressSnapshot {
        artifact: artifact?,
        total: fields[0]?,
        computed: fields[1]?,
        restored: fields[2]?,
        failed: fields[3]?,
        timed_out: fields[4]?,
        quarantined: fields[5]?,
        retries: fields[6]?,
        engine_points: [fields[7]?, fields[8]?, fields[9]?],
        direct_points: fields[10]?,
        elapsed_ms: elapsed_ms?,
        sealed: sealed?,
        interrupted: interrupted?,
    })
}

/// Reads the progress feed without ever blocking, panicking or guessing:
/// a missing, unreadable, torn or corrupt file is `None`.
pub fn read_progress(path: &Path) -> Option<ProgressSnapshot> {
    let bytes = fs::read(path).ok()?;
    parse_progress(&String::from_utf8_lossy(&bytes))
}

/// The emitter side of the progress feed: created at phase start, fed a
/// completion event per finished point (from any worker thread), and
/// sealed exactly once at phase end. Flushes the snapshot to disk every
/// `every` completion events plus once at start and seal, so the file
/// cost stays negligible next to point evaluation.
///
/// Feed I/O must never lose the science: write failures are reported on
/// stderr once and further flushes are skipped.
#[derive(Debug)]
pub struct ProgressWriter {
    path: PathBuf,
    every: usize,
    started: Instant,
    state: Mutex<ProgressSnapshot>,
    /// Completion events since the last flush. Held across every
    /// flush, so concurrent workers never share the temp file and the
    /// last snapshot rendered is the last one written — the seal.
    since_flush: Mutex<usize>,
    broken: AtomicBool,
}

impl ProgressWriter {
    /// Starts the feed for a phase: records what resume already settled
    /// (restored and quarantined points) and writes the initial
    /// snapshot. `every` of zero flushes on every completion.
    pub fn start(
        dir: &Path,
        artifact: &str,
        total: usize,
        restored: usize,
        quarantined: usize,
        every: usize,
    ) -> ProgressWriter {
        let writer = ProgressWriter {
            path: progress_path(dir),
            every: every.max(1),
            started: Instant::now(),
            state: Mutex::new(ProgressSnapshot {
                artifact: artifact.to_string(),
                total,
                computed: 0,
                restored,
                failed: 0,
                timed_out: 0,
                quarantined,
                retries: 0,
                engine_points: [0; 3],
                direct_points: 0,
                elapsed_ms: 0,
                sealed: false,
                interrupted: false,
            }),
            since_flush: Mutex::new(0),
            broken: AtomicBool::new(false),
        };
        writer.flush(&mut writer.since_flush.lock().expect("progress flush lock"));
        writer
    }

    /// Renders and writes the snapshot; the caller holds the
    /// `since_flush` lock, which this resets.
    fn flush(&self, since_flush: &mut usize) {
        *since_flush = 0;
        if self.broken.load(Ordering::Relaxed) {
            return;
        }
        let content = {
            let mut state = self.state.lock().expect("progress state lock");
            state.elapsed_ms = self.started.elapsed().as_millis();
            state.render()
        };
        let dir = self.path.parent().unwrap_or_else(|| Path::new("."));
        if let Err(e) = write_result_in(dir, PROGRESS_FILE, &content) {
            if !self.broken.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "warning: progress feed {} unavailable ({e}); continuing without",
                    self.path.display()
                );
            }
        }
    }

    fn event(&self, update: impl FnOnce(&mut ProgressSnapshot)) {
        update(&mut self.state.lock().expect("progress state lock"));
        let mut since = self.since_flush.lock().expect("progress flush lock");
        *since += 1;
        if *since >= self.every {
            self.flush(&mut since);
        }
    }

    /// One point computed successfully.
    pub fn completed(&self) {
        self.event(|s| s.computed += 1);
    }

    /// One point failed; `timed_out` marks a watchdog deadline overrun.
    pub fn failed(&self, timed_out: bool) {
        self.event(|s| {
            s.failed += 1;
            if timed_out {
                s.timed_out += 1;
            }
        });
    }

    /// One supervisor retry attempt happened (the point is not finished).
    pub fn retried(&self) {
        let mut state = self.state.lock().expect("progress state lock");
        state.retries += 1;
    }

    /// Folds a batch retry tally in at once — for callers that only
    /// learn the count from supervisor stats after a batch returns. The
    /// tally lands on disk with the next flush (the seal at the latest).
    pub fn add_retries(&self, n: usize) {
        let mut state = self.state.lock().expect("progress state lock");
        state.retries += n;
    }

    /// Folds a batch of evaluation-path tallies in at once — slice-engine
    /// points per `occache_core::EngineKind` plus direct-simulator
    /// fallbacks — for callers that learn the split from supervisor
    /// stats after a batch returns. Lands with the next flush (the seal
    /// at the latest).
    pub fn add_engine_points(&self, engine: [usize; 3], direct: usize) {
        let mut state = self.state.lock().expect("progress state lock");
        for (total, n) in state.engine_points.iter_mut().zip(engine) {
            *total += n;
        }
        state.direct_points += direct;
    }

    /// Seals the feed: the final snapshot, flushed unconditionally, with
    /// `sealed: true` (and the interrupt flag). Call exactly once at
    /// phase end.
    pub fn seal(&self, interrupted: bool) {
        {
            let mut state = self.state.lock().expect("progress state lock");
            state.sealed = true;
            state.interrupted = interrupted;
        }
        self.flush(&mut self.since_flush.lock().expect("progress flush lock"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProgressSnapshot {
        ProgressSnapshot {
            artifact: "table7".to_string(),
            total: 50,
            computed: 12,
            restored: 5,
            failed: 1,
            timed_out: 1,
            quarantined: 2,
            retries: 3,
            engine_points: [8, 3, 1],
            direct_points: 2,
            elapsed_ms: 1500,
            sealed: false,
            interrupted: false,
        }
    }

    #[test]
    fn snapshot_round_trips_through_the_parser() {
        let snap = sample();
        assert_eq!(parse_progress(&snap.render()), Some(snap));
        let sealed = ProgressSnapshot {
            sealed: true,
            interrupted: true,
            ..sample()
        };
        assert_eq!(parse_progress(&sealed.render()), Some(sealed));
    }

    #[test]
    fn every_truncated_prefix_is_rejected() {
        let line = sample().render();
        for cut in 0..line.len() - 1 {
            assert_eq!(parse_progress(&line[..cut]), None, "prefix of {cut} bytes");
        }
    }

    #[test]
    fn flipped_bytes_break_the_checksum() {
        let line = sample().render();
        let bad = line.replace("\"computed\":12", "\"computed\":13");
        assert_eq!(parse_progress(&bad), None);
    }

    #[test]
    fn stale_version_records_are_rejected() {
        // A well-formed v1 line (correctly checksummed, engine columns
        // absent) must not parse as v2: the reader would otherwise
        // invent engine counts.
        let body = "\"v\":1,\"artifact\":\"t\",\"total\":4,\"computed\":1,\"restored\":0,\
                    \"failed\":0,\"timed_out\":0,\"quarantined\":0,\"retries\":0,\
                    \"elapsed_ms\":10,\"sealed\":false,\"interrupted\":false";
        let line = format!("{{{body},\"sum\":\"{:016x}\"}}\n", fnv1a(body.as_bytes()));
        assert_eq!(parse_progress(&line), None);
    }

    #[test]
    fn eta_extrapolates_the_point_rate() {
        let snap = sample();
        // 12 computed in 1500 ms -> 125 ms/point; 30 remaining.
        assert_eq!(snap.remaining(), 30);
        assert_eq!(snap.eta_ms(), Some(3750));
        let sealed = ProgressSnapshot {
            sealed: true,
            ..sample()
        };
        assert_eq!(sealed.eta_ms(), None);
    }

    #[test]
    fn writer_flushes_start_events_and_seal() {
        let dir = std::env::temp_dir().join(format!("occache-progress-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let w = ProgressWriter::start(&dir, "t", 4, 1, 0, 2);
        let first = read_progress(&progress_path(&dir)).expect("initial snapshot");
        assert_eq!(first.computed, 0);
        assert_eq!(first.restored, 1);
        w.completed();
        w.failed(true);
        let mid = read_progress(&progress_path(&dir)).expect("mid snapshot");
        assert_eq!((mid.computed, mid.failed, mid.timed_out), (1, 1, 1));
        w.retried();
        w.completed(); // below the flush interval: not yet on disk
        w.add_engine_points([2, 0, 0], 1);
        w.add_engine_points([0, 1, 0], 0);
        w.seal(false);
        let last = read_progress(&progress_path(&dir)).expect("sealed snapshot");
        assert!(last.sealed);
        assert_eq!((last.computed, last.retries), (2, 1));
        assert_eq!(last.engine_points, [2, 1, 0]);
        assert_eq!(last.direct_points, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_completions_still_seal_the_feed() {
        // Every worker flushing on every completion, as a direct-path
        // sweep under `OCCACHE_PROGRESS_EVERY=1` does: flushes must not
        // trip over each other, and the seal must be the snapshot that
        // lands last.
        let dir = std::env::temp_dir().join(format!("occache-progress-mt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (workers, per_worker) = (4, 50);
        let w = ProgressWriter::start(&dir, "t", workers * per_worker, 0, 0, 1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    for _ in 0..per_worker {
                        w.completed();
                    }
                });
            }
        });
        w.seal(false);
        let last = read_progress(&progress_path(&dir)).expect("sealed snapshot");
        assert!(last.sealed, "{last:?}");
        assert_eq!(last.computed, workers * per_worker);
        fs::remove_dir_all(&dir).unwrap();
    }
}
