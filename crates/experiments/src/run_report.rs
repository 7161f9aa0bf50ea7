//! The per-run supervision report: `results/RUN_REPORT.json`.
//!
//! Every checkpointed sweep phase records what actually happened —
//! points computed vs restored, failures by class (timed out,
//! quarantined, non-finite), supervisor retries, journal damage found,
//! and wall-clock — into an in-process registry; binaries write the
//! accumulated report once at exit via [`write()`]. The report is the
//! operator's first stop after an unattended paper-scale run: a clean
//! run shows zeros in every failure column, and anything else names the
//! phase to investigate (see the EXPERIMENTS.md runbook).
//!
//! The artifacts that keep no journal (headline, Table 8, RISC II,
//! ablations, split, bus contention and the other
//! `Workbench::evaluate_each` callers) are tallied apart, as
//! [`Unjournalled`]: their points have no phase, so they stay out of
//! the registry `MANIFEST.json` folds its fingerprints over.
//!
//! The format is the same hand-rolled line-oriented JSON as the
//! checkpoint journal: one `"phases"` array with one object per line,
//! an `"unjournalled"` object, and a `"totals"` object over the phases
//! — trivially greppable in CI.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use occache_runtime::config::write_result_in;
use occache_runtime::instrument::Registry;

/// The report file name under the results directory.
pub const RUN_REPORT_FILE: &str = "RUN_REPORT.json";

/// The Prometheus text-exposition sidecar written next to the report:
/// the same totals as machine-checkable samples, so CI gates read one
/// number with `occache-top --parse-metrics results/RUN_METRICS.prom
/// --get <name>` instead of grepping JSON. The per-evaluation-path
/// counters (`occache_run_points_engine_*_total`,
/// `occache_run_points_direct_total`) are the load-bearing ones: the
/// Table-7 grids must show zero direct-simulator fallbacks.
pub const RUN_METRICS_FILE: &str = "RUN_METRICS.prom";

/// What one checkpointed sweep phase (one `evaluate_checkpointed` call)
/// did. One artifact can contribute several phases — `table7` runs once
/// per architecture — and the report keeps them separate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseReport {
    /// The artifact (journal) name, e.g. `"table7"`.
    pub artifact: String,
    /// Points simulated in this run.
    pub computed: usize,
    /// Points restored from the checkpoint journal.
    pub restored: usize,
    /// Points that failed (all classes, including the ones below).
    pub failed: usize,
    /// Failures that were deadline overruns.
    pub timed_out: usize,
    /// Points skipped because the journal quarantined them.
    pub quarantined: usize,
    /// Points rejected for non-finite metrics.
    pub non_finite: usize,
    /// Supervisor retry attempts after transient failures.
    pub retries: usize,
    /// Watchdog threads abandoned at their deadline.
    pub abandoned_threads: usize,
    /// Computed points per one-pass slice engine, indexed by
    /// [`occache_core::EngineKind::index`] (LRU, FIFO, Random).
    pub engine_points: [usize; 3],
    /// Computed points that fell back to the direct per-config
    /// simulator (unsupported geometry/feature or containment re-run).
    pub direct_points: usize,
    /// Corrupt journal lines found (and compacted away) on load.
    pub bad_journal_lines: usize,
    /// Bytes of torn journal tail repaired on load.
    pub repaired_tail_bytes: usize,
    /// Wall-clock for the phase, milliseconds.
    pub wall_ms: u128,
    /// Fingerprint of the trace set the phase ran over.
    pub trace_fp: u64,
    /// Fingerprint of the config grid the phase ran over.
    pub config_fp: u64,
}

/// Points the unjournalled artifacts asked for this run: computed on
/// the pool, or recalled from the results directory's point store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Unjournalled {
    /// Points simulated in this run.
    pub computed: usize,
    /// Points the point store already held.
    pub recalled: usize,
}

fn tally() -> &'static Mutex<Unjournalled> {
    static TALLY: OnceLock<Mutex<Unjournalled>> = OnceLock::new();
    TALLY.get_or_init(Mutex::default)
}

/// Adds one `Workbench::evaluate_each` call's points to the tally.
pub fn record_unjournalled(computed: usize, recalled: usize) {
    let mut tally = tally().lock().expect("run report tally lock");
    tally.computed += computed;
    tally.recalled += recalled;
}

/// The unjournalled tally so far.
pub fn unjournalled() -> Unjournalled {
    *tally().lock().expect("run report tally lock")
}

fn registry() -> &'static Mutex<Vec<PhaseReport>> {
    static PHASES: OnceLock<Mutex<Vec<PhaseReport>>> = OnceLock::new();
    PHASES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Records a completed phase into the in-process registry.
pub fn record_phase(phase: PhaseReport) {
    registry()
        .lock()
        .expect("run report registry lock")
        .push(phase);
}

/// A snapshot of every phase recorded so far, in recording order.
pub fn phases() -> Vec<PhaseReport> {
    registry().lock().expect("run report registry lock").clone()
}

/// Clears the registry and the unjournalled tally (tests; binaries
/// never need it).
pub fn reset() {
    registry().lock().expect("run report registry lock").clear();
    *tally().lock().expect("run report tally lock") = Unjournalled::default();
}

/// Renders the report: one JSON object per phase line, the
/// unjournalled tally, and a totals object over the phases, so
/// `grep '"timed_out": [1-9]'` works without a JSON parser.
/// `interrupted` marks a run stopped by SIGINT/SIGTERM before every
/// phase finished — the journal is still sealed, so a rerun resumes.
pub fn render(phases: &[PhaseReport], unjournalled: Unjournalled, interrupted: bool) -> String {
    let mut out = format!("{{\n\"interrupted\": {interrupted},\n\"phases\": [\n");
    for (i, p) in phases.iter().enumerate() {
        let comma = if i + 1 < phases.len() { "," } else { "" };
        out.push_str(&format!(
            "{{\"artifact\":\"{}\",\"computed\":{},\"restored\":{},\"failed\":{},\
             \"timed_out\":{},\"quarantined\":{},\"non_finite\":{},\"retries\":{},\
             \"abandoned_threads\":{},\"engine_lru\":{},\"engine_fifo\":{},\
             \"engine_random\":{},\"direct\":{},\"bad_journal_lines\":{},\
             \"repaired_tail_bytes\":{},\"wall_ms\":{},\"trace_fp\":\"{:016x}\",\
             \"config_fp\":\"{:016x}\"}}{comma}\n",
            p.artifact,
            p.computed,
            p.restored,
            p.failed,
            p.timed_out,
            p.quarantined,
            p.non_finite,
            p.retries,
            p.abandoned_threads,
            p.engine_points[0],
            p.engine_points[1],
            p.engine_points[2],
            p.direct_points,
            p.bad_journal_lines,
            p.repaired_tail_bytes,
            p.wall_ms,
            p.trace_fp,
            p.config_fp,
        ));
    }
    out.push_str("],\n");
    let mut tally = Registry::new();
    tally
        .bare("computed", unjournalled.computed as u128)
        .bare("recalled", unjournalled.recalled as u128);
    out.push_str(&format!("\"unjournalled\": {},\n", tally.render_json()));
    // The totals object renders through the shared instrumentation
    // registry (the same sink machinery behind the server's /metrics),
    // which pins the uniform `"name": value` spacing CI greps for.
    let total = |f: fn(&PhaseReport) -> usize| phases.iter().map(f).sum::<usize>() as u128;
    let mut totals = Registry::new();
    totals
        .bare("phases", phases.len() as u128)
        .bare("computed", total(|p| p.computed))
        .bare("restored", total(|p| p.restored))
        .bare("failed", total(|p| p.failed))
        .bare("timed_out", total(|p| p.timed_out))
        .bare("quarantined", total(|p| p.quarantined))
        .bare("non_finite", total(|p| p.non_finite))
        .bare("retries", total(|p| p.retries))
        .bare("abandoned_threads", total(|p| p.abandoned_threads))
        .bare("engine_lru", total(|p| p.engine_points[0]))
        .bare("engine_fifo", total(|p| p.engine_points[1]))
        .bare("engine_random", total(|p| p.engine_points[2]))
        .bare("direct", total(|p| p.direct_points))
        .bare("bad_journal_lines", total(|p| p.bad_journal_lines))
        .bare("repaired_tail_bytes", total(|p| p.repaired_tail_bytes))
        .bare("wall_ms", phases.iter().map(|p| p.wall_ms).sum::<u128>());
    out.push_str(&format!("\"totals\": {}\n}}\n", totals.render_json()));
    out
}

/// Renders the in-flight variant of the report: byte-identical to
/// [`render`] except for one extra `"in_progress": true` line after the
/// opening brace. The final [`write()`] drops the marker again, so a
/// completed run's report bytes are unchanged by mid-run flushing.
pub fn render_in_progress(
    phases: &[PhaseReport],
    unjournalled: Unjournalled,
    interrupted: bool,
) -> String {
    let sealed = render(phases, unjournalled, interrupted);
    debug_assert!(sealed.starts_with("{\n"));
    format!("{{\n\"in_progress\": true,\n{}", &sealed[2..])
}

/// Renders the metrics sidecar ([`RUN_METRICS_FILE`]): run totals as
/// strict Prometheus text exposition. Every sample is a counter over
/// the whole run so far, so gates compare exact integers. The
/// `occache_run_points_*` counters cover the journalled phases only;
/// `occache_run_points_unjournalled_*` count the rest.
pub fn render_metrics(phases: &[PhaseReport], unjournalled: Unjournalled) -> String {
    let total = |f: fn(&PhaseReport) -> usize| phases.iter().map(f).sum::<usize>() as u64;
    let mut reg = Registry::new();
    reg.counter(
        "occache_run_points_computed_total",
        "Design points simulated in this run (all evaluation paths)",
        total(|p| p.computed),
    )
    .counter(
        "occache_run_points_restored_total",
        "Design points restored from the checkpoint journal",
        total(|p| p.restored),
    )
    .counter(
        "occache_run_points_failed_total",
        "Design points that failed, all classes",
        total(|p| p.failed),
    )
    .counter(
        "occache_run_points_engine_lru_total",
        "Points computed by the one-pass LRU slice engine",
        total(|p| p.engine_points[0]),
    )
    .counter(
        "occache_run_points_engine_fifo_total",
        "Points computed by the one-pass FIFO slice engine",
        total(|p| p.engine_points[1]),
    )
    .counter(
        "occache_run_points_engine_random_total",
        "Points computed by the one-pass seeded-Random slice engine",
        total(|p| p.engine_points[2]),
    )
    .counter(
        "occache_run_points_direct_total",
        "Points that fell back to the direct per-config simulator",
        total(|p| p.direct_points),
    )
    .counter(
        "occache_run_points_unjournalled_computed_total",
        "Design points of unjournalled artifacts simulated in this run",
        unjournalled.computed as u64,
    )
    .counter(
        "occache_run_points_unjournalled_recalled_total",
        "Design points of unjournalled artifacts recalled from the point store",
        unjournalled.recalled as u64,
    );
    reg.render_prometheus()
}

/// Flushes the phases accumulated so far as an in-flight snapshot
/// (atomic replace, marked `"in_progress": true`), plus the metrics
/// sidecar. Called at phase boundaries so an operator — or
/// `occache-top` — reads supervision totals mid-run instead of waiting
/// for process exit; the final [`write()`] replaces it with the sealed
/// bytes.
///
/// # Errors
///
/// Propagates filesystem errors from the atomic writes.
pub fn flush(dir: &Path) -> io::Result<PathBuf> {
    let (snapshot, tally) = (phases(), unjournalled());
    write_result_in(dir, RUN_METRICS_FILE, &render_metrics(&snapshot, tally))?;
    write_result_in(
        dir,
        RUN_REPORT_FILE,
        &render_in_progress(&snapshot, tally, occache_runtime::interrupt::requested()),
    )
}

/// Writes the accumulated report to `dir/RUN_REPORT.json` and the
/// metrics sidecar to `dir/RUN_METRICS.prom` (both atomically),
/// returning the report path. An empty registry still writes a report —
/// all zeros is exactly what a clean no-op run should say.
///
/// # Errors
///
/// Propagates filesystem errors from the atomic writes.
pub fn write(dir: &Path) -> io::Result<PathBuf> {
    let (snapshot, tally) = (phases(), unjournalled());
    write_result_in(dir, RUN_METRICS_FILE, &render_metrics(&snapshot, tally))?;
    write_result_in(
        dir,
        RUN_REPORT_FILE,
        &render(&snapshot, tally, occache_runtime::interrupt::requested()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(artifact: &str, timed_out: usize) -> PhaseReport {
        PhaseReport {
            artifact: artifact.to_string(),
            computed: 10,
            restored: 5,
            failed: timed_out,
            timed_out,
            quarantined: 0,
            non_finite: 0,
            retries: 1,
            abandoned_threads: timed_out,
            engine_points: [7, 2, 1],
            direct_points: timed_out,
            bad_journal_lines: 0,
            repaired_tail_bytes: 0,
            wall_ms: 42,
            trace_fp: 0xabc,
            config_fp: 0xdef,
        }
    }

    #[test]
    fn render_includes_phases_and_greppable_totals() {
        let tally = Unjournalled {
            computed: 3,
            recalled: 4,
        };
        let text = render(&[sample("table7", 0), sample("fig2", 1)], tally, false);
        assert!(text.contains("\"artifact\":\"table7\""));
        assert!(text.contains("\"artifact\":\"fig2\""));
        assert!(text.contains("\"timed_out\": 1"), "{text}");
        assert!(text.contains("\"computed\": 20"), "{text}");
        assert!(text.contains("\"engine_lru\":7"), "{text}");
        assert!(text.contains("\"engine_lru\": 14"), "{text}");
        assert!(text.contains("\"engine_fifo\": 4"), "{text}");
        assert!(text.contains("\"engine_random\": 2"), "{text}");
        assert!(text.contains("\"direct\": 1"), "{text}");
        assert!(text.contains("\"trace_fp\":\"0000000000000abc\""));
        assert!(text.contains("\"interrupted\": false"), "{text}");
        assert!(
            text.contains("\"unjournalled\": {\"computed\": 3,\"recalled\": 4}"),
            "{text}"
        );
    }

    #[test]
    fn metrics_sidecar_exposes_engine_split_as_strict_exposition() {
        let tally = Unjournalled {
            computed: 3,
            recalled: 4,
        };
        let text = render_metrics(&[sample("table7", 0), sample("fig2", 1)], tally);
        // The sidecar must round-trip through the same strict parser
        // occache-top --parse-metrics uses for the CI gate.
        let exposition =
            occache_runtime::instrument::Exposition::parse(&text).expect("strict parse");
        let get = |name: &str| exposition.value(name).expect(name);
        assert_eq!(get("occache_run_points_computed_total"), 20.0);
        assert_eq!(get("occache_run_points_engine_lru_total"), 14.0);
        assert_eq!(get("occache_run_points_engine_fifo_total"), 4.0);
        assert_eq!(get("occache_run_points_engine_random_total"), 2.0);
        assert_eq!(get("occache_run_points_direct_total"), 1.0);
        assert_eq!(get("occache_run_points_unjournalled_computed_total"), 3.0);
        assert_eq!(get("occache_run_points_unjournalled_recalled_total"), 4.0);
    }

    #[test]
    fn empty_report_renders_zero_totals() {
        let text = render(&[], Unjournalled::default(), false);
        assert!(text.contains("\"phases\": 0"), "{text}");
        assert!(text.contains("\"timed_out\": 0"), "{text}");
    }

    #[test]
    fn interrupted_run_is_marked() {
        let text = render(&[sample("table7", 0)], Unjournalled::default(), true);
        assert!(text.contains("\"interrupted\": true"), "{text}");
    }

    #[test]
    fn in_progress_variant_only_adds_the_marker_line() {
        let phases = [sample("table7", 0), sample("fig2", 1)];
        let sealed = render(&phases, Unjournalled::default(), false);
        let partial = render_in_progress(&phases, Unjournalled::default(), false);
        assert!(
            partial.starts_with("{\n\"in_progress\": true,\n"),
            "{partial}"
        );
        assert_eq!(
            &partial["{\n\"in_progress\": true,\n".len()..],
            &sealed[2..]
        );
        assert!(!sealed.contains("in_progress"), "{sealed}");
    }
}
