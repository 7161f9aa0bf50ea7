//! Metric names and units, what one workload run measured, and the two
//! lines a run prints: the run record and the result object.
//!
//! Every run reports every name of its set — the end-to-end set with
//! tracing off, the per-layer set with tracing on — so the workloads'
//! results line up; a layer a workload does not exercise reads 0. The
//! names and units match `BENCHMARK.json`.

use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::RunConfig;

/// End-to-end metrics, `(name, unit)`: the result object's set.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_refs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("table7_err", "ratio"),
];

/// End-to-end metrics only `serve-open-loop` measures, `(name, unit)`.
/// They go into its table and run record but not into the result
/// object: that workload runs by hand, outside `BENCHMARK.json`.
const SERVE_ONLY: [(&str, &str); 5] = [
    ("p50_ms.light", "ms"),
    ("p99_ms.light", "ms"),
    ("p50_ms.heavy", "ms"),
    ("p99_ms.heavy", "ms"),
    ("max_rps", "1/s"),
];

/// The artifacts `paper-all` emits, in the `all` binary's order; each
/// has an `experiments.run_s.<artifact>` layer.
pub const ARTIFACTS: [&str; 21] = [
    "headline",
    "table6",
    "table7",
    "table8",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "risc2",
    "risc2_chip",
    "ablations",
    "writes",
    "split",
    "workload_stats",
    "bus_contention",
    "buffers",
];

/// Per-layer metrics besides the per-artifact ones, `(name, unit)`.
const LAYERS: [(&str, &str); 43] = [
    ("workloads.gen_s", "s"),
    ("workloads.gen_refs_per_s", "1/s"),
    ("trace.pack_s", "s"),
    ("trace.packed_mb", "MB"),
    ("runtime.plan_s", "s"),
    ("runtime.units.engine", "count"),
    ("runtime.units.direct", "count"),
    ("runtime.engine_points.lru", "count"),
    ("runtime.engine_points.fifo", "count"),
    ("runtime.engine_points.random", "count"),
    ("runtime.direct_points", "count"),
    ("runtime.executor_s", "s"),
    ("runtime.parallel_eff", "ratio"),
    ("runtime.scaling_2t", "ratio"),
    ("core.multisim.lru_s", "s"),
    ("core.multisim.fifo_s", "s"),
    ("core.multisim.random_s", "s"),
    ("core.multisim.lru_ns_per_ref", "ns"),
    ("core.multisim.fifo_ns_per_ref", "ns"),
    ("core.multisim.random_ns_per_ref", "ns"),
    ("core.direct_s", "s"),
    ("core.direct_ns_per_ref", "ns"),
    ("experiments.emit_s", "s"),
    ("experiments.report_s", "s"),
    ("experiments.checkpoint_s", "s"),
    ("experiments.journalled_s", "s"),
    ("experiments.unjournalled_s", "s"),
    ("serve.server_p50_ms", "ms"),
    ("serve.server_p99_ms", "ms"),
    ("serve.client_gap_ms", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.points_computed", "count"),
    ("serve.journal_appends", "count"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("serve.worker_util", "ratio"),
    ("serve.engine_share", "ratio"),
    ("serve.http_parse_us", "us"),
    ("serve.json_parse_us", "us"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.reconnects", "count"),
    ("trace_overhead_s", "s"),
    ("unattributed_s", "s"),
];

/// Every name of a run's set, `(name, unit)`, in reporting order.
fn names(trace: bool) -> Vec<(String, &'static str)> {
    if !trace {
        return END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
    }
    let mut names: Vec<(String, &str)> = LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    names.extend(
        ARTIFACTS
            .iter()
            .map(|a| (format!("experiments.run_s.{a}"), "s")),
    );
    names
}

/// What one workload run measured, and how many operations it checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted, output checks included.
    pub attempted: u64,
    /// Operations that failed or were refused, failed checks included.
    pub failed: u64,
    threads: usize,
    refs: usize,
    values: Vec<(String, f64)>,
    /// Record-only facts about the run, `(name, JSON value)`.
    notes: Vec<(String, String)>,
}

impl Outcome {
    /// An empty outcome for a workload run at `threads` worker threads
    /// over traces of `refs` references.
    pub fn new(threads: usize, refs: usize) -> Outcome {
        Outcome {
            threads,
            refs,
            ..Outcome::default()
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    /// Adds a fact to the run record: `json` is a JSON value.
    pub fn note(&mut self, name: &str, json: String) {
        self.notes.push((name.to_string(), json));
    }

    /// Counts one checked operation; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Sets `wall_s` and `sim_refs_per_s` of a batch workload from its
    /// timed passes, each the seconds of every operation of one pass in
    /// order. `work` is the references one pass simulates.
    ///
    /// `wall_s` is the sum over the operations of each one's fastest run
    /// across the passes. The work is deterministic, so noise only adds
    /// time. On the shared two-vCPU VM this was built on, passes of one
    /// run spread from 0.63 to 0.98 s. A busy thread ran up to a third
    /// slower for stretches of several seconds. Lower quartiles and
    /// medians over passes then moved by a fifth between identical runs.
    pub fn set_batch(&mut self, passes: &[Vec<f64>], work: f64) {
        let ops = passes.first().map_or(0, Vec::len);
        let wall: f64 = (0..ops)
            .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
            .sum();
        self.set("wall_s", wall);
        self.set("sim_refs_per_s", work / wall);
    }

    /// The reported metrics, `(name, value, unit)`: every name of the
    /// run's set, 0 where nothing was measured.
    pub fn metrics(&self, trace: bool) -> Vec<(String, f64, &'static str)> {
        names(trace)
            .into_iter()
            .map(|(name, unit)| (name.clone(), self.value(&name).unwrap_or(0.0), unit))
            .collect()
    }

    /// [`Outcome::metrics`] plus the serve-only end-to-end metrics this
    /// run set: what the table and the run record show.
    fn shown(&self, trace: bool) -> Vec<(String, f64, &'static str)> {
        let mut shown = self.metrics(trace);
        if !trace {
            for (name, unit) in SERVE_ONLY {
                if let Some(value) = self.value(name) {
                    shown.push((name.to_string(), value, unit));
                }
            }
        }
        shown
    }

    /// A metric's value if it was set, 0 in place of a non-finite one.
    fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| if v.is_finite() { *v } else { 0.0 })
    }

    fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The run record, one line: machine, settings, counts and every
    /// metric of the run's set.
    pub fn record(&self, workload: &str, config: &RunConfig, machine: &Machine) -> String {
        let metrics = self.shown(config.trace);
        format!(
            "# record {{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
             \"nproc\":{},\"threads\":{},\"refs_per_trace\":{},\"commit\":\"{}\",\"rustc\":\"{}\",\
             \"attempted\":{},\"failed\":{},\"fail_frac\":{},\"notes\":{{{}}},\"metrics\":{{{}}}}}",
            config.seed,
            config.seconds,
            u8::from(config.trace),
            machine.nproc,
            self.threads,
            self.refs,
            machine.commit,
            machine.rustc,
            self.attempted,
            self.failed,
            self.fail_frac(),
            self.notes
                .iter()
                .map(|(n, v)| format!("\"{n}\":{v}"))
                .collect::<Vec<_>>()
                .join(","),
            json_metrics(metrics.iter().map(|(n, v, u)| (n.as_str(), *v, *u))),
        )
    }

    /// Every metric of the run's set by name with its unit, plus
    /// `fail_frac`, as a table for people.
    pub fn table(&self, workload: &str, trace: bool) -> String {
        let kind = if trace {
            "per-layer (traced run)"
        } else {
            "end-to-end"
        };
        let mut out = format!("perfbench {workload}: {kind}\n");
        for (name, value, unit) in self.shown(trace) {
            let _ = writeln!(out, "  {name:<36} {value:>18.6} {unit}");
        }
        let _ = writeln!(
            out,
            "  {:<36} {:>18.6} ratio ({} of {} operations failed)",
            "fail_frac",
            self.fail_frac(),
            self.failed,
            self.attempted
        );
        out
    }
}

/// The machine and toolchain a result was measured with.
pub struct Machine {
    nproc: usize,
    commit: String,
    rustc: String,
}

impl Machine {
    /// Reads the CPU count, the git commit (`unknown` outside a git
    /// checkout) and the `rustc` version.
    pub fn probe() -> Machine {
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            commit: first_line("git", &["rev-parse", "--short=12", "HEAD"]),
            rustc: first_line("rustc", &["-V"]),
        }
    }
}

/// A command's trimmed output, or `unknown` when it cannot run.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().replace(['"', '\\'], "'"))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_metrics<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let mut out = String::new();
    for (name, value, unit) in metrics {
        if !out.is_empty() {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out
}

/// The result object, the last line of standard output. With several
/// workloads (`--workload all`) each metric name gets its workload as a
/// prefix.
pub fn result_line(outcomes: &[(&str, Outcome)], trace: bool) -> String {
    let attempted: u64 = outcomes.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|(_, o)| o.failed).sum();
    let mut named = Vec::new();
    for (workload, outcome) in outcomes {
        for (name, value, unit) in outcome.metrics(trace) {
            let name = if outcomes.len() > 1 {
                format!("{workload}.{name}")
            } else {
                name
            };
            named.push((name, value, unit));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        json_metrics(named.iter().map(|(n, v, u)| (n.as_str(), *v, *u))),
    )
}
