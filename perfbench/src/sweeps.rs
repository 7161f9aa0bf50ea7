//! `sweep-lru` and `sweep-policies`: Table 7 design-space sweeps through
//! the supervised slice executor — the call behind
//! `evaluate_results_sliced` — with the worker count set per pass.
//!
//! `sweep-lru` streams each architecture's traces from the workload
//! generator straight into the LRU engine: no packing, no disk, no
//! direct simulator. `sweep-policies` runs the same geometries under
//! FIFO and Random replacement on their one-pass engines, plus
//! load-forward and copy-back twins that only the direct simulator runs,
//! over materialized packed traces; the LRU engine sits idle there.

use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use occache_core::{CacheConfig, EngineKind, FetchPolicy, ReplacementPolicy, WritePolicy};
use occache_experiments::paper;
use occache_experiments::report::relative_error;
use occache_experiments::runs::{GridGroup, Workbench};
use occache_experiments::sweep::{
    evaluate_point, plan_units, table1_pairs, DesignPoint, PointError, SweepUnit, Trace,
};
use occache_runtime::executor::{
    evaluate_results_supervised_with, SuperviseStats, SupervisorPolicy,
};
use occache_trace::{MemRef, PackedTrace};
use occache_workloads::{Architecture, WorkloadSpec};

use crate::ledger::Outcome;
use crate::stats::{self, median, timed, Rng};
use crate::RunConfig;

/// References per trace.
pub const REFS: usize = 100_000;
/// Worker threads of a pass (the box's vCPUs); the traced run adds one
/// pass at one thread for the scaling row.
const THREADS: usize = 2;
/// Table 7's net sizes.
const NETS: [u64; 3] = [64, 256, 1024];
/// `(net, block, sub)` geometries whose load-forward and copy-back twins
/// join `sweep-policies`. Only the direct simulator runs them; two
/// geometries keep that path near a quarter of the wall.
const DIRECT_GEOMETRIES: [(u64, u64, u64); 2] = [(256, 16, 4), (1024, 32, 8)];
/// Shortest timed set-up sample: `sweep-lru`'s streamed set-up takes
/// microseconds, so it is repeated and timed as a batch mean.
const SETUP_BATCH_S: f64 = 0.05;
/// Points per evaluation path and architecture re-simulated directly.
const CHECKS_PER_PATH: usize = 2;

/// The sweep workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `sweep-lru`: LRU grids over streamed traces.
    Lru,
    /// `sweep-policies`: FIFO, Random and direct-only twins over packed
    /// traces.
    Policies,
}

impl Family {
    /// Worker threads of a timed pass. `sweep-lru` puts each
    /// architecture's grid in one engine unit, so one worker does a
    /// call's work at either count. `sweep-policies` splits its work
    /// evenly over two workers, so a two-thread pass runs fast only
    /// while both vCPUs do; on the shared VM this was built on, their
    /// slow stretches alternate, and its two-thread `wall_s` spread three
    /// times as far over seeds as its one-thread one.
    fn timed_threads(self) -> usize {
        match self {
            Family::Lru => THREADS,
            Family::Policies => 1,
        }
    }
}

/// One grid and its trace set: an architecture's, in the sweeps.
pub struct Grid {
    /// What the grid is, for check messages.
    name: String,
    configs: Vec<CacheConfig>,
    traces: Vec<Trace>,
    warmup: usize,
}

impl Grid {
    /// A grid of the paper's runs, as `journalled_grid` rebuilds it.
    pub fn from_group(name: String, group: GridGroup) -> Grid {
        Grid {
            name,
            configs: group.configs,
            traces: group.traces,
            warmup: group.warmup,
        }
    }
}

fn config(
    arch: Architecture,
    (net, block, sub): (u64, u64, u64),
    policy: ReplacementPolicy,
    fetch: FetchPolicy,
    write: WritePolicy,
) -> CacheConfig {
    CacheConfig::builder()
        .net_size(net)
        .block_size(block)
        .sub_block_size(sub)
        .word_size(arch.word_size())
        .replacement(policy)
        .fetch(fetch)
        .write_policy(write)
        .build()
        .expect("Table 1 geometry is valid")
}

/// Table 7's geometries for an architecture, nets outer.
fn geometries(arch: Architecture) -> Vec<(u64, u64, u64)> {
    NETS.iter()
        .flat_map(|&net| {
            table1_pairs(net, arch.word_size())
                .into_iter()
                .map(move |(block, sub)| (net, block, sub))
        })
        .collect()
}

fn configs_for(family: Family, arch: Architecture) -> Vec<CacheConfig> {
    let (demand, through) = (FetchPolicy::Demand, WritePolicy::WriteThrough);
    let mut configs = Vec::new();
    match family {
        Family::Lru => {
            for g in geometries(arch) {
                configs.push(config(arch, g, ReplacementPolicy::Lru, demand, through));
            }
        }
        Family::Policies => {
            for policy in [ReplacementPolicy::Fifo, ReplacementPolicy::Random] {
                for g in geometries(arch) {
                    configs.push(config(arch, g, policy, demand, through));
                }
            }
            for g in DIRECT_GEOMETRIES {
                let lru = ReplacementPolicy::Lru;
                configs.push(config(arch, g, lru, FetchPolicy::LOAD_FORWARD, through));
                configs.push(config(arch, g, lru, demand, WritePolicy::CopyBack));
            }
        }
    }
    configs
}

/// Builds every architecture's grid and traces: the set-up both sweeps
/// time. Warm-up follows `Workbench::warmup_for` (Z8000 warm, the rest
/// cold).
fn build(family: Family, seed: u64) -> Vec<Grid> {
    let bench = Workbench::new(REFS);
    Architecture::ALL
        .into_iter()
        .map(|arch| {
            let traces = WorkloadSpec::set_for(arch)
                .into_iter()
                .map(|spec| match family {
                    Family::Lru => Trace::streamed(spec.name(), REFS, move || spec.generator(seed)),
                    Family::Policies => Trace::new(spec.name(), spec.generator(seed).take(REFS)),
                })
                .collect();
            Grid {
                name: arch.to_string(),
                configs: configs_for(family, arch),
                traces,
                warmup: bench.warmup_for(arch),
            }
        })
        .collect()
}

/// Which evaluation path a sweep unit took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Engine(EngineKind),
    Direct,
}

impl Path {
    /// Slot in per-path tallies: the engine's index, then direct.
    fn slot(self) -> usize {
        match self {
            Path::Engine(kind) => kind.index(),
            Path::Direct => EngineKind::ALL.len(),
        }
    }
}

/// How long one sweep unit ran, and on which worker.
struct UnitSpan {
    path: Path,
    thread: ThreadId,
    secs: f64,
}

/// One pass over every architecture's grid.
struct Pass {
    wall: f64,
    /// Wall of each architecture's sweep call: one operation each.
    ops: Vec<f64>,
    results: Vec<Vec<Result<DesignPoint, PointError>>>,
    stats: SuperviseStats,
    /// Unit spans of each call, on a traced pass.
    spans: Vec<Vec<UnitSpan>>,
}

fn run_pass(grids: &[Grid], threads: usize, traced: bool) -> Pass {
    let policy = SupervisorPolicy::disabled();
    let mut pass = Pass {
        wall: 0.0,
        ops: Vec::new(),
        results: Vec::new(),
        stats: SuperviseStats::default(),
        spans: Vec::new(),
    };
    let started = Instant::now();
    for grid in grids {
        let completions = Mutex::new(Vec::new());
        let called = Instant::now();
        let (results, stats) = if traced {
            evaluate_results_supervised_with(
                &policy,
                &grid.configs,
                &grid.traces,
                grid.warmup,
                Some(threads),
                |i, _| {
                    let at = Instant::now();
                    let thread = std::thread::current().id();
                    completions
                        .lock()
                        .expect("completion log lock")
                        .push((thread, at, i));
                },
            )
        } else {
            evaluate_results_supervised_with(
                &policy,
                &grid.configs,
                &grid.traces,
                grid.warmup,
                Some(threads),
                |_, _| {},
            )
        };
        pass.ops.push(called.elapsed().as_secs_f64());
        if traced {
            let completions = completions.into_inner().expect("completion log lock");
            let units = plan_units(&grid.configs);
            pass.spans
                .push(unit_spans(called, completions, &units, grid.configs.len()));
        }
        pass.results.push(results);
        pass.stats.merge(stats);
    }
    pass.wall = started.elapsed().as_secs_f64();
    pass
}

/// Rebuilds each unit's span from the executor's completion hook. A
/// worker runs its units back to back and a unit's points complete
/// together when it ends, so on each worker a unit runs from the
/// previous unit's last completion (or the call) to its first one.
fn unit_spans(
    called: Instant,
    completions: Vec<(ThreadId, Instant, usize)>,
    units: &[SweepUnit],
    points: usize,
) -> Vec<UnitSpan> {
    let mut unit_of = vec![(0, Path::Direct); points];
    for (u, unit) in units.iter().enumerate() {
        match unit {
            SweepUnit::Direct(i) => unit_of[*i] = (u, Path::Direct),
            SweepUnit::Engine { kind, members } => {
                for &i in members {
                    unit_of[i] = (u, Path::Engine(*kind));
                }
            }
        }
    }
    let mut workers: Vec<(ThreadId, Vec<(Instant, usize)>)> = Vec::new();
    for (thread, at, i) in completions {
        match workers.iter_mut().find(|(t, _)| *t == thread) {
            Some((_, log)) => log.push((at, i)),
            None => workers.push((thread, vec![(at, i)])),
        }
    }
    let mut spans = Vec::new();
    for (thread, mut log) in workers {
        log.sort_by_key(|&(at, _)| at);
        let mut cursor = called;
        let mut k = 0;
        while k < log.len() {
            let (unit, path) = unit_of[log[k].1];
            let secs = log[k].0.duration_since(cursor).as_secs_f64();
            spans.push(UnitSpan { path, thread, secs });
            while k < log.len() && unit_of[log[k].1].0 == unit {
                cursor = log[k].0;
                k += 1;
            }
        }
    }
    spans
}

fn same_bits(a: &DesignPoint, b: &DesignPoint) -> bool {
    a.config == b.config
        && a.miss_ratio.to_bits() == b.miss_ratio.to_bits()
        && a.traffic_ratio.to_bits() == b.traffic_ratio.to_bits()
        && a.nibble_traffic_ratio.to_bits() == b.nibble_traffic_ratio.to_bits()
        && a.redundant_load_fraction.to_bits() == b.redundant_load_fraction.to_bits()
        && a.gross_size == b.gross_size
}

/// Checks the reference pass: every point evaluated, and a seed-chosen
/// sample on each evaluation path equal, bit for bit, to the direct
/// simulator (`evaluate_point` runs `simulate()` per trace).
fn check_against_direct(grids: &[Grid], pass: &Pass, seed: u64, out: &mut Outcome) {
    let mut rng = Rng::new(seed, 1);
    for (grid, results) in grids.iter().zip(&pass.results) {
        let mut paths: Vec<(Option<EngineKind>, Vec<usize>)> = Vec::new();
        for (i, (config, result)) in grid.configs.iter().zip(results).enumerate() {
            out.check(result.is_ok(), || {
                format!("{}: {config}: {result:?}", grid.name)
            });
            let path = EngineKind::for_config(config);
            match paths.iter_mut().find(|(p, _)| *p == path) {
                Some((_, members)) => members.push(i),
                None => paths.push((path, vec![i])),
            }
        }
        for (_, members) in &paths {
            for _ in 0..CHECKS_PER_PATH {
                let i = members[rng.below(members.len())];
                let direct = evaluate_point(grid.configs[i], &grid.traces, grid.warmup);
                let same = matches!(&results[i], Ok(p) if same_bits(p, &direct));
                out.check(same, || {
                    format!(
                        "{}: {} differs from the direct simulator",
                        grid.name, grid.configs[i]
                    )
                });
            }
        }
    }
}

/// Checks that a later pass reproduced the reference pass bit for bit.
fn check_repeat(reference: &Pass, pass: &Pass, out: &mut Outcome) {
    let pairs = reference
        .results
        .iter()
        .flatten()
        .zip(pass.results.iter().flatten());
    for (a, b) in pairs {
        let same = matches!((a, b), (Ok(x), Ok(y)) if same_bits(x, y));
        out.check(same, || format!("a repeated pass changed {a:?} into {b:?}"));
    }
}

/// Mean |relative error| of measured miss ratios against the legible
/// Table 7 cells: the LRU points of `sweep-lru`, and the FIFO points of
/// `sweep-policies` against the paper's LRU cells.
fn table7_err(family: Family, pass: &Pass) -> f64 {
    let policy = match family {
        Family::Lru => ReplacementPolicy::Lru,
        Family::Policies => ReplacementPolicy::Fifo,
    };
    let mut errors = Vec::new();
    // `build` makes one grid per architecture, in `Architecture::ALL` order.
    for (arch, results) in Architecture::ALL.into_iter().zip(&pass.results) {
        for p in results.iter().flatten() {
            let c = p.config;
            if c.replacement() != policy {
                continue;
            }
            let row = paper::table7_row(arch, c.net_size(), c.block_size(), c.sub_block_size());
            if let Some(row) = row {
                errors.push(relative_error(p.miss_ratio, row.miss));
            }
        }
    }
    stats::mean(&errors)
}

/// Runs one sweep workload.
pub fn run(family: Family, config: &RunConfig) -> Outcome {
    let threads = if config.trace {
        THREADS
    } else {
        family.timed_threads()
    };
    let mut out = Outcome::new(threads, REFS);
    let (mut grids, setup_s) = stats::setup_sample(SETUP_BATCH_S, || build(family, config.seed));
    let mut setups = vec![setup_s];
    // The first pass warms caches and is the reference every later pass
    // must reproduce; it is checked against the direct simulator and
    // left out of the timings.
    let reference = run_pass(&grids, THREADS, false);
    check_against_direct(&grids, &reference, config.seed, &mut out);
    if config.trace {
        traced(family, &grids, &reference, config, &mut out);
    } else {
        let started = Instant::now();
        let mut passes = Vec::new();
        while started.elapsed().as_secs_f64() < config.seconds || passes.len() < 2 {
            // A set-up before each pass spreads the set-up samples over
            // the run as the passes are: the box's speed changes in
            // stretches of seconds.
            drop(grids);
            let (fresh, setup_s) =
                stats::setup_sample(SETUP_BATCH_S, || build(family, config.seed));
            grids = fresh;
            setups.push(setup_s);
            let pass = run_pass(&grids, threads, false);
            check_repeat(&reference, &pass, &mut out);
            passes.push(pass.ops);
        }
        let work = grids
            .iter()
            .map(|g| (g.configs.len() * g.traces.len() * REFS) as f64)
            .sum();
        out.set_batch(&passes, work);
        out.set(
            "setup_s",
            stats::median_of_window_minima(&setups, stats::SETUP_WINDOWS),
        );
        out.set("table7_err", table7_err(family, &reference));
        out.set("peak_rss_mb", stats::peak_rss_mb());
    }
    out
}

/// The traced run: untraced and traced passes alternate at two threads
/// for most of the run's seconds; then a one-thread pass gives the
/// scaling row, and separate drains time generation and packing.
fn traced(family: Family, grids: &[Grid], reference: &Pass, config: &RunConfig, out: &mut Outcome) {
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut sums: Vec<(&'static str, f64)> = Vec::new();
    while traced.is_empty() || started.elapsed().as_secs_f64() < config.seconds * 0.75 {
        let pass = run_pass(grids, THREADS, false);
        check_repeat(reference, &pass, out);
        plain.push(pass.wall);
        let pass = run_pass(grids, THREADS, true);
        check_repeat(reference, &pass, out);
        traced.push(pass.wall);
        for (name, value) in layers(grids, &pass) {
            match sums.iter_mut().find(|(n, _)| *n == name) {
                Some(slot) => slot.1 += value,
                None => sums.push((name, value)),
            }
        }
    }
    for (name, sum) in sums {
        out.set(name, sum / traced.len() as f64);
    }
    let single = run_pass(grids, 1, false);
    check_repeat(reference, &single, out);
    out.set("runtime.scaling_2t", single.wall / median(&plain));
    out.set("trace_overhead_s", median(&traced) - median(&plain));
    let stats = reference.stats;
    for kind in EngineKind::ALL {
        let name = format!("runtime.engine_points.{}", kind.as_str());
        out.set(&name, stats.engine_points[kind.index()] as f64);
    }
    out.set("runtime.direct_points", stats.direct_points as f64);
    let configs: Vec<&[CacheConfig]> = grids.iter().map(|g| g.configs.as_slice()).collect();
    plan_layers(&configs, out);
    let specs: Vec<WorkloadSpec> = Architecture::ALL
        .into_iter()
        .flat_map(WorkloadSpec::set_for)
        .collect();
    generation_layers(&specs, config.seed, REFS, family == Family::Policies, out);
}

/// Per-layer figures of one traced pass. An engine's `ns_per_ref` is per
/// trace reference of one engine pass (every config of the slice at
/// once); the direct simulator's is per reference of one config.
/// `unattributed_s` is the pass wall outside the sweep calls: each
/// call's wall is its busiest worker's unit time plus `executor_s`.
fn layers(grids: &[Grid], pass: &Pass) -> Vec<(&'static str, f64)> {
    let slots = EngineKind::ALL.len() + 1;
    let (mut secs, mut refs) = (vec![0.0; slots], vec![0.0; slots]);
    let (mut executor, mut busy, mut capacity) = (0.0, 0.0, 0.0);
    for ((grid, spans), &op) in grids.iter().zip(&pass.spans).zip(&pass.ops) {
        let trace_refs = (grid.traces.len() * REFS) as f64;
        let mut per_worker: Vec<(ThreadId, f64)> = Vec::new();
        for span in spans {
            secs[span.path.slot()] += span.secs;
            refs[span.path.slot()] += trace_refs;
            busy += span.secs;
            match per_worker.iter_mut().find(|(t, _)| *t == span.thread) {
                Some(worker) => worker.1 += span.secs,
                None => per_worker.push((span.thread, span.secs)),
            }
        }
        let busiest = per_worker.iter().map(|w| w.1).fold(0.0, f64::max);
        executor += op - busiest;
        capacity += op * THREADS as f64;
    }
    let ns = |slot: usize| {
        if refs[slot] > 0.0 {
            secs[slot] * 1e9 / refs[slot]
        } else {
            0.0
        }
    };
    let direct = EngineKind::ALL.len();
    vec![
        ("core.multisim.lru_s", secs[EngineKind::Lru.index()]),
        ("core.multisim.fifo_s", secs[EngineKind::Fifo.index()]),
        ("core.multisim.random_s", secs[EngineKind::Random.index()]),
        ("core.direct_s", secs[direct]),
        ("core.multisim.lru_ns_per_ref", ns(EngineKind::Lru.index())),
        (
            "core.multisim.fifo_ns_per_ref",
            ns(EngineKind::Fifo.index()),
        ),
        (
            "core.multisim.random_ns_per_ref",
            ns(EngineKind::Random.index()),
        ),
        ("core.direct_ns_per_ref", ns(direct)),
        ("runtime.executor_s", executor),
        (
            "runtime.parallel_eff",
            if capacity > 0.0 { busy / capacity } else { 0.0 },
        ),
        ("unattributed_s", pass.wall - pass.ops.iter().sum::<f64>()),
    ]
}

/// Replays `grids` through the executor at two threads, `passes` times
/// with unit spans, and sets the mean of each pass's layers, all but
/// `unattributed_s`, which belongs to the caller's own passes.
pub fn replay_layers(grids: &[Grid], passes: usize, out: &mut Outcome) {
    let mut sums: Vec<(&'static str, f64)> = Vec::new();
    for _ in 0..passes {
        let pass = run_pass(grids, THREADS, true);
        for (name, value) in layers(grids, &pass) {
            match sums.iter_mut().find(|(n, _)| *n == name) {
                Some(slot) => slot.1 += value,
                None => sums.push((name, value)),
            }
        }
    }
    for (name, sum) in sums {
        if name != "unattributed_s" {
            out.set(name, sum / passes.max(1) as f64);
        }
    }
}

/// Plans every grid as the executor does: the unit counts, and the
/// planner's time for one plan of all of them.
pub fn plan_layers(grids: &[&[CacheConfig]], out: &mut Outcome) {
    const REPS: u32 = 200;
    let (mut engine, mut direct) = (0, 0);
    for grid in grids {
        for unit in plan_units(grid) {
            match unit {
                SweepUnit::Engine { .. } => engine += 1,
                SweepUnit::Direct(_) => direct += 1,
            }
        }
    }
    let ((), secs) = timed(|| {
        for _ in 0..REPS {
            for grid in grids {
                std::hint::black_box(plan_units(grid));
            }
        }
    });
    out.set("runtime.units.engine", f64::from(engine));
    out.set("runtime.units.direct", f64::from(direct));
    out.set("runtime.plan_s", secs / f64::from(REPS));
}

/// Times the workload generator apart from simulation, draining each
/// spec's stream (`workloads.gen_*`); where the workload packs its
/// traces, the drained streams are also packed as `Trace::new` does
/// (`trace.*`).
pub fn generation_layers(
    specs: &[WorkloadSpec],
    seed: u64,
    refs: usize,
    pack: bool,
    out: &mut Outcome,
) {
    let (mut gen_s, mut pack_s, mut bytes, mut total) = (0.0, 0.0, 0usize, 0usize);
    for spec in specs {
        if pack {
            let (stream, secs) = timed(|| spec.generator(seed).take(refs).collect::<Vec<MemRef>>());
            gen_s += secs;
            total += stream.len();
            bytes += stream
                .iter()
                .copied()
                .collect::<PackedTrace>()
                .payload_bytes();
            let (trace, secs) = timed(|| Trace::new(spec.name(), stream));
            pack_s += secs;
            drop(trace);
        } else {
            let (n, secs) = timed(|| spec.generator(seed).take(refs).count());
            gen_s += secs;
            total += n;
        }
    }
    out.set("workloads.gen_s", gen_s);
    let rate = if gen_s > 0.0 {
        total as f64 / gen_s
    } else {
        0.0
    };
    out.set("workloads.gen_refs_per_s", rate);
    out.set("trace.pack_s", pack_s);
    out.set("trace.packed_mb", bytes as f64 / (1024.0 * 1024.0));
}
