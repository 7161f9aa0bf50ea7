//! `paper-all`: every runner of the `all` binary, in process — Tables
//! 6–8, Figures 1–9, RISC II, ablations, writes, split, workload stats,
//! bus contention and buffers — each pass into a fresh results directory
//! with journals, CSVs, `MANIFEST.json` and `RUN_REPORT.json`.
//!
//! `Workbench` hardwires the canonical seed-0 traces, so this workload is
//! pinned to seed 0 whatever `--seed` says: its inputs, and so its
//! manifest digest, depend on the input size alone.

use std::path::{Path, PathBuf};
use std::time::Instant;

use occache_core::CacheConfig;
use occache_experiments::buffers::run_buffers;
use occache_experiments::characterize::{run_bus_contention, run_workload_stats};
use occache_experiments::checkpoint::evaluate_checkpointed;
use occache_experiments::extensions::{run_risc2_chip, run_split, run_writes};
use occache_experiments::paper;
use occache_experiments::report::relative_error;
use occache_experiments::run_report::{self, PhaseReport};
use occache_experiments::runs::{
    journalled_artifacts, journalled_grid, run_ablations, run_fig9, run_figure, run_headline,
    run_risc2, run_table6, run_table7, run_table8, Artifact, GridGroup, Workbench,
};
use occache_experiments::sweep::evaluate_results_sliced;
use occache_runtime::keys::fnv1a;
use occache_workloads::{m85_mix, riscii_instruction_workload, Architecture, WorkloadSpec};

use crate::ledger::{Outcome, ARTIFACTS};
use crate::stats::{self, median, timed};
use crate::sweeps::{generation_layers, plan_layers, replay_layers, Grid};
use crate::RunConfig;

/// References per trace.
pub const REFS: usize = 50_000;
/// Slice-pool threads of a timed pass; the traced run adds one pass at
/// one thread for the scaling row.
const THREADS: usize = 2;
/// FNV-1a of `MANIFEST.json` after a complete run, per input size. The
/// manifest hashes every CSV, so this pins every artifact's bytes.
const MANIFEST_DIGESTS: [(usize, u64); 1] = [(50_000, 0xf962_3a0c_77f4_238f)];

type Runner = fn(&mut Workbench) -> Artifact;

/// The `all` binary's runners, in its order.
fn runners() -> [Runner; 21] {
    [
        run_headline,
        run_table6,
        run_table7,
        run_table8,
        |b| run_figure(b, 1),
        |b| run_figure(b, 2),
        |b| run_figure(b, 3),
        |b| run_figure(b, 4),
        |b| run_figure(b, 5),
        |b| run_figure(b, 6),
        |b| run_figure(b, 7),
        |b| run_figure(b, 8),
        run_fig9,
        run_risc2,
        run_risc2_chip,
        run_ablations,
        run_writes,
        run_split,
        run_workload_stats,
        run_bus_contention,
        run_buffers,
    ]
}

/// The workbench every pass shares, with every trace set generated: the
/// set-up this workload times.
fn workbench() -> Workbench {
    let mut bench = Workbench::new(REFS);
    for arch in Architecture::ALL {
        bench.arch_traces(arch);
    }
    bench.load_forward_traces();
    bench.m85_traces();
    bench.riscii_traces();
    bench
}

/// Every spec the workbench generates, once each.
fn workbench_specs() -> Vec<WorkloadSpec> {
    let mut specs: Vec<WorkloadSpec> = Vec::new();
    let all = Architecture::ALL
        .into_iter()
        .flat_map(WorkloadSpec::set_for)
        .chain(WorkloadSpec::z8000_load_forward_set())
        .chain(m85_mix())
        .chain([riscii_instruction_workload()]);
    for spec in all {
        if !specs.iter().any(|s| s.name() == spec.name()) {
            specs.push(spec);
        }
    }
    specs
}

/// The grids of the journalled artifacts (Table 7 and Figures 1–8).
fn journalled_groups(bench: &mut Workbench) -> Vec<GridGroup> {
    journalled_artifacts()
        .iter()
        .filter_map(|name| journalled_grid(bench, name))
        .flatten()
        .collect()
}

/// Fresh results directories, one per pass.
struct PassDirs {
    root: PathBuf,
    count: usize,
}

impl PassDirs {
    fn next(&mut self) -> PathBuf {
        self.count += 1;
        self.root.join(format!("pass-{}", self.count))
    }
}

/// One `all` run into a results directory.
struct Pass {
    wall: f64,
    /// Run plus emit of each artifact, then the report write: one
    /// operation each.
    ops: Vec<f64>,
    /// Seconds in each artifact's `run_*` call.
    runs: Vec<(&'static str, f64)>,
    emit_s: f64,
    report_s: f64,
    phases: Vec<PhaseReport>,
    table7_err: f64,
}

/// Runs every artifact into `dir` with `threads` slice workers, checks
/// the outputs, and removes the directory.
fn run_pass(bench: &mut Workbench, threads: usize, dir: &Path, out: &mut Outcome) -> Pass {
    // The results directory and the slice pool size are read from the
    // environment at each call; no other thread runs between passes.
    std::env::set_var("OCCACHE_RESULTS", dir);
    std::env::set_var("OCCACHE_SLICE_THREADS", threads.to_string());
    run_report::reset();
    let mut pass = Pass {
        wall: 0.0,
        ops: Vec::new(),
        runs: Vec::new(),
        emit_s: 0.0,
        report_s: 0.0,
        phases: Vec::new(),
        table7_err: 0.0,
    };
    let started = Instant::now();
    for run in runners() {
        let (artifact, ran) = timed(|| run(bench));
        let (emitted, emit_s) = timed(|| artifact.emit());
        out.check(emitted.is_ok(), || {
            format!("{}: {emitted:?}", artifact.name)
        });
        pass.runs.push((artifact.name, ran));
        pass.emit_s += emit_s;
        pass.ops.push(ran + emit_s);
    }
    let (written, report_s) = timed(|| run_report::write(dir));
    pass.wall = started.elapsed().as_secs_f64();
    pass.report_s = report_s;
    pass.ops.push(report_s);
    out.check(written.is_ok(), || format!("RUN_REPORT.json: {written:?}"));
    pass.phases = run_report::phases();
    check_outputs(dir, &pass.phases, out);
    pass.table7_err = table7_err(dir);
    let _ = std::fs::remove_dir_all(dir);
    pass
}

/// Every journalled point computed, and the manifest digest equal to the
/// one recorded for this input size.
fn check_outputs(dir: &Path, phases: &[PhaseReport], out: &mut Outcome) {
    let failed: usize = phases.iter().map(|p| p.failed).sum();
    out.check(failed == 0, || {
        format!("{failed} journalled design point(s) failed")
    });
    let digest = std::fs::read(dir.join("MANIFEST.json")).map(|bytes| fnv1a(&bytes));
    let recorded = MANIFEST_DIGESTS
        .iter()
        .find(|(refs, _)| *refs == REFS)
        .map(|&(_, d)| d);
    let same = matches!((&digest, recorded), (Ok(d), Some(r)) if *d == r);
    out.check(same, || {
        format!("MANIFEST.json digest {digest:x?} is not the recorded {recorded:x?}")
    });
}

/// Mean |relative error| of the Table 7 CSVs' miss ratios against the
/// legible cells of `paper::table7`.
fn table7_err(dir: &Path) -> f64 {
    let mut errors = Vec::new();
    for arch in Architecture::ALL {
        let file = format!(
            "table7_{}.csv",
            arch.name().to_lowercase().replace([' ', '/'], "_")
        );
        let text = std::fs::read_to_string(dir.join(file)).unwrap_or_default();
        for line in text.lines().skip(1) {
            let cols: Vec<&str> = line.split(',').collect();
            let num = |i: usize| cols.get(i).and_then(|c| c.parse::<f64>().ok());
            let (Some(net), Some(block), Some(sub), Some(miss)) = (num(1), num(2), num(3), num(5))
            else {
                continue;
            };
            if let Some(row) = paper::table7_row(arch, net as u64, block as u64, sub as u64) {
                errors.push(relative_error(miss, row.miss));
            }
        }
    }
    stats::mean(&errors)
}

/// Runs `paper-all`.
pub fn run(config: &RunConfig) -> Outcome {
    let mut out = Outcome::new(THREADS, REFS);
    let (mut bench, setup_s) = stats::setup_sample(0.0, workbench);
    let mut setups = vec![setup_s];
    let mut dirs = PassDirs {
        root: config.work.join("paper-all"),
        count: 0,
    };
    // The first pass warms caches and the results path; it is checked
    // like every pass and left out of the timings.
    let reference = run_pass(&mut bench, THREADS, &dirs.next(), &mut out);
    if config.trace {
        traced(&mut bench, config, &mut dirs, &mut out);
    } else {
        let started = Instant::now();
        let mut passes = Vec::new();
        while started.elapsed().as_secs_f64() < config.seconds || passes.len() < 2 {
            // A set-up before each pass spreads the set-up samples over
            // the run as the passes are: the box's speed changes in
            // stretches of seconds.
            drop(bench);
            let (fresh, setup_s) = stats::setup_sample(0.0, workbench);
            bench = fresh;
            setups.push(setup_s);
            passes.push(run_pass(&mut bench, THREADS, &dirs.next(), &mut out).ops);
        }
        let work = journalled_groups(&mut bench)
            .iter()
            .map(|g| (g.configs.len() * g.traces.len() * REFS) as f64)
            .sum();
        out.set_batch(&passes, work);
        out.set(
            "setup_s",
            stats::median_of_window_minima(&setups, stats::SETUP_WINDOWS),
        );
        out.set("table7_err", reference.table7_err);
        out.set("peak_rss_mb", stats::peak_rss_mb());
    }
    std::env::remove_var("OCCACHE_RESULTS");
    std::env::remove_var("OCCACHE_SLICE_THREADS");
    out
}

/// The traced run: untraced and traced passes alternate at two threads
/// for most of the run's seconds, then a one-thread pass, the engine and
/// direct units of the journalled grids, the checkpoint overhead,
/// planning, and generation and packing are measured apart.
///
/// A pass splits into the journalled phases (Table 7, Figures 1–8:
/// engine units plus journal, `experiments.journalled_s`) and the
/// runners' time outside them (`experiments.unjournalled_s`), which
/// holds the direct `simulate()` calls of the other artifacts together
/// with rendering and characterisation: the runners expose no finer
/// split, so the benchmark reports none. `core.*` comes from replaying
/// the journalled grids through the executor, as the sweeps time them.
fn traced(bench: &mut Workbench, config: &RunConfig, dirs: &mut PassDirs, out: &mut Outcome) {
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while traced.is_empty() || started.elapsed().as_secs_f64() < config.seconds * 0.6 {
        plain.push(run_pass(bench, THREADS, &dirs.next(), out).wall);
        traced.push(run_pass(bench, THREADS, &dirs.next(), out));
    }
    let single = run_pass(bench, 1, &dirs.next(), out);
    let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall).collect();
    out.set("runtime.scaling_2t", single.wall / median(&plain));
    out.set("trace_overhead_s", median(&traced_walls) - median(&plain));

    let mean = |f: &dyn Fn(&Pass) -> f64| traced.iter().map(f).sum::<f64>() / traced.len() as f64;
    let run_time = |p: &Pass| p.runs.iter().map(|(_, s)| s).sum::<f64>();
    for name in ARTIFACTS {
        let secs = mean(&|p| {
            p.runs
                .iter()
                .filter(|(a, _)| *a == name)
                .map(|(_, s)| s)
                .sum()
        });
        out.set(&format!("experiments.run_s.{name}"), secs);
    }
    let phase_s = mean(&|p| p.phases.iter().map(|ph| ph.wall_ms as f64 / 1e3).sum());
    out.set("experiments.emit_s", mean(&|p| p.emit_s));
    out.set("experiments.report_s", mean(&|p| p.report_s));
    out.set("experiments.journalled_s", phase_s);
    out.set("experiments.unjournalled_s", mean(&run_time) - phase_s);
    out.set(
        "unattributed_s",
        mean(&|p| p.wall - run_time(p) - p.emit_s - p.report_s),
    );
    if let Some(last) = traced.last() {
        for (k, name) in ["lru", "fifo", "random"].into_iter().enumerate() {
            let points: usize = last.phases.iter().map(|p| p.engine_points[k]).sum();
            out.set(&format!("runtime.engine_points.{name}"), points as f64);
        }
        let direct: usize = last.phases.iter().map(|p| p.direct_points).sum();
        out.set("runtime.direct_points", direct as f64);
    }

    let groups = journalled_groups(bench);
    let configs: Vec<&[CacheConfig]> = groups.iter().map(|g| g.configs.as_slice()).collect();
    plan_layers(&configs, out);
    let grids: Vec<Grid> = groups
        .into_iter()
        .enumerate()
        .map(|(i, g)| Grid::from_group(format!("journalled grid {i}"), g))
        .collect();
    replay_layers(&grids, 3, out);
    out.set(
        "experiments.checkpoint_s",
        checkpoint_overhead(bench, &dirs.next()),
    );
    generation_layers(&workbench_specs(), 0, REFS, true, out);
}

/// `evaluate_checkpointed` minus `evaluate_results_sliced` over the same
/// Table 7 grids and traces: what journalling, locking, fingerprinting
/// and the progress feed add to a sweep.
fn checkpoint_overhead(bench: &mut Workbench, dir: &Path) -> f64 {
    std::env::set_var("OCCACHE_RESULTS", dir);
    let mut overhead = 0.0;
    for group in journalled_grid(bench, "table7").unwrap_or_default() {
        let (configs, traces, warmup) = (&group.configs, &group.traces, group.warmup);
        let (_, plain) = timed(|| evaluate_results_sliced(configs, traces, warmup));
        let (_, journalled) = timed(|| evaluate_checkpointed("table7", configs, traces, warmup));
        overhead += journalled - plain;
    }
    run_report::reset();
    let _ = std::fs::remove_dir_all(dir);
    overhead
}
