//! The data layer of the dashboard: every pane's content, collected
//! into one plain [`Frame`] value with no terminal or timing concerns.
//!
//! Each source degrades independently — a missing progress file, an
//! unreachable node or a repo without committed benchmarks leaves its
//! pane empty instead of failing the collection — so the dashboard is
//! usable at every stage of a run's life. Everything here is pure with
//! respect to rendering: [`collect`] reads the world once and the
//! renderer ([`crate::render`]) turns the resulting [`Frame`] into a
//! string, which is what makes both sides testable without a terminal.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use occache_runtime::instrument::Exposition;
use occache_runtime::journal;
use occache_runtime::progress::{progress_path, read_progress, ProgressSnapshot};
use occache_serve::json::Json;
use occache_serve::peer::http_call;

/// How long a node scrape may take before the ops pane marks the node
/// unreachable. Short: a dashboard must never hang on a dead peer.
pub const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

/// How many committed benchmark revisions the trajectory pane walks.
pub const BENCH_DEPTH: usize = 16;

/// Everything the renderer needs for one full redraw.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Frame {
    /// The results directory the sweep panes were read from.
    pub results_dir: String,
    /// The live (or last sealed) sweep phase, if a progress feed exists.
    pub progress: Option<ProgressSnapshot>,
    /// The run report accumulated so far, if RUN_REPORT.json exists.
    pub report: Option<ReportSummary>,
    /// One entry per scraped node, in `--metrics` order.
    pub nodes: Vec<NodeOps>,
    /// The run browser: every checkpoint journal under the results dir.
    pub runs: Vec<RunEntry>,
    /// Result artifacts (non-hidden files) under the results dir.
    pub artifacts: Vec<ArtifactEntry>,
    /// Benchmark trajectories over committed history, oldest first.
    pub bench: Vec<BenchSeries>,
}

/// RUN_REPORT.json, reduced to what the report pane shows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReportSummary {
    /// True while a run is mid-flight (phase-boundary flush); false once
    /// the final sealed report landed.
    pub in_progress: bool,
    /// True when the run was stopped by SIGINT/SIGTERM.
    pub interrupted: bool,
    /// Per-phase rows, in recording order.
    pub phases: Vec<PhaseRow>,
}

/// One phase line of RUN_REPORT.json.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseRow {
    /// The artifact (journal) name.
    pub artifact: String,
    /// Points computed in the run.
    pub computed: u64,
    /// Points restored from the journal.
    pub restored: u64,
    /// Failed points, all classes.
    pub failed: u64,
    /// Deadline overruns among the failures.
    pub timed_out: u64,
    /// Points skipped as quarantined.
    pub quarantined: u64,
    /// Supervisor retry attempts.
    pub retries: u64,
    /// Phase wall-clock, milliseconds.
    pub wall_ms: u64,
}

/// One scraped serve/route node for the ops pane.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeOps {
    /// The address that was scraped.
    pub addr: String,
    /// False when neither endpoint answered inside [`SCRAPE_TIMEOUT`].
    pub reachable: bool,
    /// `"occache-serve"` / `"occache-route"` from `/v1/status`.
    pub service: String,
    /// Integer uptime from `/v1/status`.
    pub uptime_s: Option<u64>,
    /// Points replayed from the write-behind journal at startup.
    pub journal_replayed: Option<u64>,
    /// Live queue depth.
    pub queue_depth: Option<f64>,
    /// Interactive-class requests shed under overload.
    pub shed_interactive: Option<f64>,
    /// Bulk-class requests shed under overload.
    pub shed_bulk: Option<f64>,
    /// Request latency p50, seconds.
    pub p50_s: Option<f64>,
    /// Request latency p99, seconds.
    pub p99_s: Option<f64>,
    /// Per-peer breaker state: 0 down, 1 half-open, 2 up.
    pub peers: Vec<(String, u64)>,
}

/// One checkpoint journal in the run browser.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunEntry {
    /// Artifact name (journal file stem).
    pub artifact: String,
    /// Intact completed points.
    pub points: usize,
    /// Keys with failure tombstones.
    pub fails: usize,
    /// Corrupt lines found by the scan.
    pub bad_lines: usize,
    /// Bytes of torn tail (crash mid-append).
    pub torn_tail_bytes: usize,
    /// False when the scan could not read the file at all.
    pub readable: bool,
}

impl RunEntry {
    /// Whether the journal needs no repair: every line intact, sealed
    /// newline present.
    pub fn healthy(&self) -> bool {
        self.readable && self.bad_lines == 0 && self.torn_tail_bytes == 0
    }
}

/// One result artifact file in the run browser.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArtifactEntry {
    /// File name under the results directory.
    pub name: String,
    /// Size in bytes.
    pub bytes: u64,
}

/// One benchmark metric over committed history, oldest first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchSeries {
    /// Display name, e.g. `"sweep-lru Mref/s"`.
    pub name: String,
    /// Unit suffix for the latest value, e.g. `"M"` or `"ms"`.
    pub unit: String,
    /// The values, oldest first; the last entry is the newest commit.
    pub values: Vec<f64>,
}

/// What to collect; the binary builds this from flags and environment.
#[derive(Debug, Clone, Default)]
pub struct CollectConfig {
    /// The results directory for the sweep/report/run-browser panes.
    pub results_dir: PathBuf,
    /// Node addresses (`host:port`) for the ops pane.
    pub metrics_addrs: Vec<String>,
    /// Repository root for the bench trajectory pane; `None` skips it.
    pub repo_dir: Option<PathBuf>,
}

/// Reads the world once. Infallible by design: each absent or broken
/// source leaves its pane empty.
pub fn collect(config: &CollectConfig) -> Frame {
    Frame {
        results_dir: config.results_dir.display().to_string(),
        progress: read_progress(&progress_path(&config.results_dir)),
        report: read_report(&config.results_dir.join("RUN_REPORT.json")),
        nodes: config
            .metrics_addrs
            .iter()
            .map(|a| scrape_node(a))
            .collect(),
        runs: scan_runs(&config.results_dir),
        artifacts: scan_artifacts(&config.results_dir),
        bench: config
            .repo_dir
            .as_deref()
            .map(bench_trajectories)
            .unwrap_or_default(),
    }
}

/// Parses RUN_REPORT.json into a [`ReportSummary`]. `None` for a
/// missing or unparseable file.
pub fn read_report(path: &Path) -> Option<ReportSummary> {
    let text = std::fs::read_to_string(path).ok()?;
    parse_report(&text)
}

/// [`read_report`] on in-memory text (tests, and torn-read tolerance:
/// an unparseable flush-in-flight read is `None`, never a panic).
pub fn parse_report(text: &str) -> Option<ReportSummary> {
    let doc = Json::parse(text).ok()?;
    let phases = doc
        .get("phases")
        .and_then(Json::as_array)?
        .iter()
        .map(|p| {
            let field = |name: &str| p.get(name).and_then(Json::as_u64).unwrap_or(0);
            PhaseRow {
                artifact: p
                    .get("artifact")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                computed: field("computed"),
                restored: field("restored"),
                failed: field("failed"),
                timed_out: field("timed_out"),
                quarantined: field("quarantined"),
                retries: field("retries"),
                wall_ms: field("wall_ms"),
            }
        })
        .collect();
    Some(ReportSummary {
        in_progress: doc
            .get("in_progress")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        interrupted: doc
            .get("interrupted")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        phases,
    })
}

/// Scrapes one node: `/v1/status` for the service summary, `/metrics`
/// (through the strict parser) for queue, shed, latency and breakers.
pub fn scrape_node(addr: &str) -> NodeOps {
    let mut node = NodeOps {
        addr: addr.to_string(),
        ..NodeOps::default()
    };
    if let Ok((200, body)) = http_call(addr, "GET", "/v1/status", b"", SCRAPE_TIMEOUT) {
        if let Ok(doc) = Json::parse(&String::from_utf8_lossy(&body)) {
            node.reachable = true;
            node.service = doc
                .get("service")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string();
            node.uptime_s = doc.get("uptime_s").and_then(Json::as_u64);
            node.journal_replayed = doc.get("journal_replayed").and_then(Json::as_u64);
        }
    }
    if let Ok((200, body)) = http_call(addr, "GET", "/metrics", b"", SCRAPE_TIMEOUT) {
        if let Ok(exposition) = Exposition::parse(&String::from_utf8_lossy(&body)) {
            node.reachable = true;
            node.queue_depth = exposition.value("occache_queue_depth");
            node.shed_interactive = exposition.value("occache_shed_interactive_total");
            node.shed_bulk = exposition.value("occache_shed_bulk_total");
            node.p50_s = exposition.labeled("occache_request_seconds", "quantile", "0.5");
            node.p99_s = exposition.labeled("occache_request_seconds", "quantile", "0.99");
            if let Some(family) = exposition.family("occache_peer_state") {
                node.peers = family
                    .samples
                    .iter()
                    .filter_map(|s| Some((s.label("peer")?.to_string(), s.value as u64)))
                    .collect();
            }
        }
    }
    node
}

/// Scans every checkpoint journal under `dir/.checkpoint/`, torn tails
/// and corrupt lines tolerated (they become integrity counts, exactly
/// as resume sees them).
pub fn scan_runs(dir: &Path) -> Vec<RunEntry> {
    let ckpt = dir.join(".checkpoint");
    let Ok(entries) = std::fs::read_dir(&ckpt) else {
        return Vec::new();
    };
    let mut runs: Vec<RunEntry> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let artifact = name.strip_suffix(".jsonl")?.to_string();
            let entry = match journal::scan_journal(&e.path()) {
                Ok(scan) => RunEntry {
                    artifact,
                    points: scan.points.len(),
                    fails: scan.fails.len(),
                    bad_lines: scan.issues.len(),
                    torn_tail_bytes: scan.torn_tail_bytes,
                    readable: true,
                },
                Err(_) => RunEntry {
                    artifact,
                    readable: false,
                    ..RunEntry::default()
                },
            };
            Some(entry)
        })
        .collect();
    runs.sort_by(|a, b| a.artifact.cmp(&b.artifact));
    runs
}

/// Lists the non-hidden regular files of the results directory.
pub fn scan_artifacts(dir: &Path) -> Vec<ArtifactEntry> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut artifacts: Vec<ArtifactEntry> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            if name.starts_with('.') {
                return None;
            }
            let meta = e.metadata().ok()?;
            meta.is_file().then_some(ArtifactEntry {
                name,
                bytes: meta.len(),
            })
        })
        .collect();
    artifacts.sort_by(|a, b| a.name.cmp(&b.name));
    artifacts
}

/// One `git` invocation in `repo`, stdout as a string; `None` on any
/// failure (no git, not a repo, no such revision). The dashboard never
/// requires version control — the bench pane just stays empty.
fn git(repo: &Path, args: &[&str]) -> Option<String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(repo)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The committed revisions of `file`, oldest first, newest-first input
/// from `git log` reversed, capped at [`BENCH_DEPTH`].
fn bench_revisions(repo: &Path, file: &str) -> Vec<String> {
    let depth = BENCH_DEPTH.to_string();
    let Some(log) = git(
        repo,
        &["log", "--format=%H", "--max-count", &depth, "--", file],
    ) else {
        return Vec::new();
    };
    let mut revs: Vec<String> = log.lines().map(str::to_string).collect();
    revs.reverse();
    revs
}

/// Extracts one numeric field from a committed benchmark revision.
fn bench_value(repo: &Path, rev: &str, file: &str, path: &[&str]) -> Option<f64> {
    let text = git(repo, &["show", &format!("{rev}:{file}")])?;
    let doc = Json::parse(&text).ok()?;
    let mut node = &doc;
    for key in path {
        node = node.get(key)?;
    }
    node.as_f64()
}

/// The benchmark trajectories: each committed revision of the two
/// benchmark files contributes one sample per series.
pub fn bench_trajectories(repo: &Path) -> Vec<BenchSeries> {
    let mut series = Vec::new();
    let mut push = |name: &str, unit: &str, file: &str, path: &[&str], scale: f64| {
        let values: Vec<f64> = bench_revisions(repo, file)
            .iter()
            .filter_map(|rev| bench_value(repo, rev, file, path).map(|v| v * scale))
            .collect();
        if !values.is_empty() {
            series.push(BenchSeries {
                name: name.to_string(),
                unit: unit.to_string(),
                values,
            });
        }
    };
    push(
        "sweep-lru Mref/s",
        "M",
        "BENCH_sweep.json",
        &["sweep-lru", "metrics", "sim_refs_per_s", "value"],
        1e-6,
    );
    push(
        "fifo ns/ref",
        "ns",
        "BENCH_sweep.json",
        &[
            "sweep-policies",
            "metrics",
            "core.multisim.fifo_ns_per_ref",
            "value",
        ],
        1.0,
    );
    push(
        "serve p99",
        "ms",
        "BENCH_serve.json",
        &["singles", "p99_seconds"],
        1e3,
    );
    push(
        "batch pts/s",
        "",
        "BENCH_serve.json",
        &["batch", "throughput_pps"],
        1.0,
    );
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_parses_the_experiments_renderer_output() {
        let text = "{\n\"in_progress\": true,\n\"interrupted\": false,\n\"phases\": [\n\
                    {\"artifact\":\"table7\",\"computed\":10,\"restored\":5,\"failed\":1,\
                    \"timed_out\":1,\"quarantined\":0,\"non_finite\":0,\"retries\":2,\
                    \"abandoned_threads\":1,\"bad_journal_lines\":0,\"repaired_tail_bytes\":0,\
                    \"wall_ms\":42,\"trace_fp\":\"0000000000000abc\",\"config_fp\":\"0000000000000def\"}],\n\
                    \"totals\": {\n\"phases\": 1\n}\n}\n";
        let report = parse_report(text).expect("parse");
        assert!(report.in_progress);
        assert!(!report.interrupted);
        assert_eq!(report.phases.len(), 1);
        let p = &report.phases[0];
        assert_eq!(p.artifact, "table7");
        assert_eq!((p.computed, p.restored, p.failed), (10, 5, 1));
        assert_eq!((p.timed_out, p.retries, p.wall_ms), (1, 2, 42));
    }

    #[test]
    fn torn_report_reads_reject_cleanly() {
        assert_eq!(parse_report(""), None);
        assert_eq!(parse_report("{\"interrupted\": fal"), None);
        assert_eq!(parse_report("{\"interrupted\": false}"), None, "no phases");
    }

    #[test]
    fn run_and_artifact_scans_tolerate_absence_and_damage() {
        let dir = std::env::temp_dir().join(format!("occache-top-scan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(scan_runs(&dir).is_empty(), "missing dir");
        assert!(scan_artifacts(&dir).is_empty(), "missing dir");
        std::fs::create_dir_all(dir.join(".checkpoint")).expect("mkdir");
        std::fs::write(dir.join(".checkpoint/torn.jsonl"), b"{\"v\":2,\"key\"").expect("write");
        std::fs::write(dir.join("table7.json"), b"{}").expect("write");
        std::fs::write(dir.join(".hidden"), b"x").expect("write");
        let runs = scan_runs(&dir);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].artifact, "torn");
        assert!(!runs[0].healthy(), "{:?}", runs[0]);
        let artifacts = scan_artifacts(&dir);
        assert_eq!(artifacts.len(), 1);
        assert_eq!(artifacts[0].name, "table7.json");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn bench_pane_reads_perfbench_records_from_git_history() {
        let dir = std::env::temp_dir().join(format!("occache-top-bench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let commit = |message: &str| {
            let args = [
                "-c",
                "user.name=t",
                "-c",
                "user.email=t@t",
                "commit",
                "-qam",
                message,
            ];
            git(&dir, &args).expect("git commit");
        };
        git(&dir, &["init", "-q"]).expect("git init");
        // One revision in the old flat schema, which has neither series,
        // then one in the per-workload record schema.
        std::fs::write(
            dir.join("BENCH_sweep.json"),
            "{\"effective_refs_per_sec\": 174600000, \"speedup\": 3.5}\n",
        )
        .expect("write");
        git(&dir, &["add", "BENCH_sweep.json"]).expect("git add");
        commit("old schema");
        std::fs::write(
            dir.join("BENCH_sweep.json"),
            "{\n\"sweep-lru\": {\"workload\":\"sweep-lru\",\"threads\":2,\"notes\":{},\
             \"metrics\":{\"sim_refs_per_s\": {\"value\": 420000000.5, \"unit\": \"1/s\"}}},\n\
             \"sweep-policies\": {\"workload\":\"sweep-policies\",\"threads\":2,\"notes\":{},\
             \"metrics\":{\"core.multisim.fifo_ns_per_ref\": {\"value\": 185.25, \"unit\": \"ns\"}}}\n}\n",
        )
        .expect("write");
        commit("new schema");
        let series = bench_trajectories(&dir);
        std::fs::remove_dir_all(&dir).expect("cleanup");
        assert_eq!(series.len(), 2, "{series:?}");
        assert_eq!(series[0].name, "sweep-lru Mref/s");
        assert_eq!(series[0].values.len(), 1, "the old schema adds no value");
        assert!((series[0].values[0] - 420.0000005).abs() < 1e-9);
        assert_eq!(series[1].name, "fifo ns/ref");
        assert_eq!(series[1].values, vec![185.25]);
    }

    #[test]
    fn unreachable_node_is_marked_not_fatal() {
        // A port from the TCP test range nothing listens on: bind one,
        // take its address, drop the listener.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        drop(listener);
        let node = scrape_node(&addr);
        assert!(!node.reachable);
        assert_eq!(node.addr, addr);
        assert_eq!(node.queue_depth, None);
    }
}
