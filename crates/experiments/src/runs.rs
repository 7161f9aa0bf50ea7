//! One entry point per paper artifact (table or figure).
//!
//! Each `run_*` function produces an [`Artifact`]: a human-readable report
//! (with the paper's published values alongside, where available) plus CSV
//! files for downstream plotting. [`ARTIFACTS`] registers every runner
//! under its artifact name; the `all` binary runs them from there, prints
//! each report and writes the CSVs under `results/`.

use std::collections::HashMap;
use std::fmt::Write as _;

use occache_core::{CacheConfig, FetchPolicy, Metrics, ReplacementPolicy};
use occache_runtime::config::{fresh_requested, results_dir, write_result_in};
use occache_runtime::executor::{evaluate_metrics, failure_note, pool_map, SweepOutcome};
use occache_runtime::journal::Entry;
use occache_runtime::keys::{point_key, trace_fingerprint};
use occache_workloads::{m85_mix, riscii_instruction_workload, Architecture, WorkloadSpec};

use crate::paper;
use crate::plot::{ScatterPlot, Series};
use crate::report::{points_to_csv, relative_error, table7_block};
use crate::sweep::{materialize, standard_config, table1_pairs, trace_len, DesignPoint, Trace};

/// A regenerated artifact: report text plus named CSV payloads.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Artifact name (e.g. `"table7"`).
    pub name: &'static str,
    /// Human-readable report, including paper-vs-measured columns.
    pub report: String,
    /// `(file_name, contents)` pairs for `results/`.
    pub csv: Vec<(String, String)>,
}

impl Artifact {
    /// Prints the report to stdout, writes the CSVs (atomically) under
    /// `results/`, logging each path written, and records every file
    /// into the content-hashed manifest (`MANIFEST.json`) so
    /// `occache-verify` can later detect corruption — the shared tail of
    /// every experiment binary.
    ///
    /// # Errors
    ///
    /// Returns the first write failure, naming the file, so binaries can
    /// exit nonzero without tearing down mid-artifact.
    pub fn emit(&self) -> std::io::Result<()> {
        println!("{}", self.report);
        let (trace_fp, config_fp) = artifact_fingerprints(self.name);
        let mut entries = Vec::new();
        let dir = results_dir();
        for (file_name, contents) in &self.csv {
            let path = write_result_in(&dir, file_name, contents).map_err(|e| {
                std::io::Error::new(e.kind(), format!("failed to write {file_name}: {e}"))
            })?;
            eprintln!("wrote {}", path.display());
            entries.push(crate::manifest::ManifestEntry::of(
                file_name, contents, self.name, trace_fp, config_fp,
            ));
        }
        crate::manifest::record(&dir, self.name, entries).map_err(|e| {
            std::io::Error::new(e.kind(), format!("failed to update the manifest: {e}"))
        })
    }
}

/// The combined trace/config fingerprints of the sweep phases recorded
/// for an artifact this run: the phase's own fingerprints when it swept
/// once, an FNV fold when it swept several times (`table7` runs once per
/// architecture), and zeros for artifacts that run no checkpointed
/// sweep.
fn artifact_fingerprints(artifact: &str) -> (u64, u64) {
    let phases = crate::run_report::phases();
    let mine: Vec<_> = phases.iter().filter(|p| p.artifact == artifact).collect();
    match mine.as_slice() {
        [] => (0, 0),
        [one] => (one.trace_fp, one.config_fp),
        many => {
            let fold = |pick: fn(&crate::run_report::PhaseReport) -> u64| {
                let mut bytes = Vec::with_capacity(many.len() * 8);
                for p in many {
                    bytes.extend_from_slice(&pick(p).to_le_bytes());
                }
                occache_runtime::keys::fnv1a(&bytes)
            };
            (fold(|p| p.trace_fp), fold(|p| p.config_fp))
        }
    }
}

/// An artifact's runner: simulates, renders and returns it unwritten.
pub type Runner = fn(&mut Workbench) -> Artifact;

/// Every artifact the `all` binary can run, keyed by its
/// [`Artifact::name`]: the paper set a bare `all` runs, in that order,
/// then three extension studies, which run only when named.
pub const ARTIFACTS: &[(&str, Runner)] = &[
    ("headline", run_headline),
    ("table6", run_table6),
    ("table7", run_table7),
    ("table8", run_table8),
    ("fig1", |b| run_figure(b, 1)),
    ("fig2", |b| run_figure(b, 2)),
    ("fig3", |b| run_figure(b, 3)),
    ("fig4", |b| run_figure(b, 4)),
    ("fig5", |b| run_figure(b, 5)),
    ("fig6", |b| run_figure(b, 6)),
    ("fig7", |b| run_figure(b, 7)),
    ("fig8", |b| run_figure(b, 8)),
    ("fig9", run_fig9),
    ("risc2", run_risc2),
    ("risc2_chip", crate::extensions::run_risc2_chip),
    ("ablations", run_ablations),
    ("writes", crate::extensions::run_writes),
    ("split", crate::extensions::run_split),
    ("workload_stats", crate::characterize::run_workload_stats),
    ("bus_contention", crate::characterize::run_bus_contention),
    ("buffers", crate::buffers::run_buffers),
    ("prefetch", crate::extensions::run_prefetch),
    ("task_switch", crate::extensions::run_task_switch),
    ("assoc_curves", crate::extensions::run_assoc_curves),
];

/// How many entries at the end of [`ARTIFACTS`] run only when named.
const STUDIES: usize = 3;

/// The runners of `names`, in argument order, or the paper set when
/// `names` is empty.
///
/// # Errors
///
/// Returns the first name [`ARTIFACTS`] does not register.
pub fn select(names: &[String]) -> Result<Vec<Runner>, &str> {
    if names.is_empty() {
        let paper = &ARTIFACTS[..ARTIFACTS.len() - STUDIES];
        return Ok(paper.iter().map(|&(_, run)| run).collect());
    }
    names
        .iter()
        .map(|name| {
            ARTIFACTS
                .iter()
                .find(|&&(key, _)| key == name)
                .map(|&(_, run)| run)
                .ok_or(name.as_str())
        })
        .collect()
}

/// Materialised trace sets, built lazily and shared across artifacts.
///
/// Generation is memoized per workload spec (by its name, which is unique
/// across all sets; the seed is always 0 and the length fixed per
/// workbench), so `--bin all` and any artifacts whose trace sets overlap
/// generate each trace exactly once. The specs a set still lacks are
/// generated together on the worker pool ([`materialize`]); a set no
/// artifact asks for is never generated. A recalled [`Trace`] is an
/// `Arc` clone, not a copy of the stream.
///
/// Design points go through the results directory's point store
/// ([`occache_runtime::store::PointStore`]), keyed by config, trace-set
/// fingerprint and warm-up — the identity a journal line has — so a
/// design point two artifacts share is simulated once per results
/// directory. The unjournalled artifacts read and feed it through
/// `Workbench::evaluate_each`; the journalled sweeps (Table 7, Figures
/// 1–8) borrow only what it holds on disk, so their journals never
/// depend on which unjournalled artifacts ran first.
#[derive(Debug, Default)]
pub struct Workbench {
    store: HashMap<&'static str, Trace>,
    sets: HashMap<Architecture, Vec<Trace>>,
    load_forward: Option<Vec<Trace>>,
    m85: Option<Vec<Trace>>,
    riscii: Option<Vec<Trace>>,
    len: usize,
    /// Points [`Workbench::evaluate_each`] sent to the pool.
    computed: usize,
}

impl Workbench {
    /// Creates a workbench generating `len` references per trace.
    pub fn new(len: usize) -> Self {
        Workbench {
            len,
            ..Workbench::default()
        }
    }

    /// Creates a workbench with the length from `OCCACHE_REFS` (default:
    /// the paper's 1 million), tolerating a malformed value; binaries
    /// reject one first through
    /// [`occache_runtime::config::check_batch_env`].
    pub fn from_env() -> Self {
        Workbench::new(trace_len())
    }

    /// References per trace.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the workbench would generate empty traces.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Design points `Workbench::evaluate_each` has sent to the pool:
    /// those the point store could not recall.
    pub fn computed(&self) -> usize {
        self.computed
    }

    /// Warm-up prefix for an architecture: the paper quotes warm-start
    /// ratios for the Z8000 runs (§4.2.2) and cold-start elsewhere.
    pub fn warmup_for(&self, arch: Architecture) -> usize {
        if arch == Architecture::Z8000 {
            self.len / 20
        } else {
            0
        }
    }

    /// Generates (or recalls) the canonical seed-0 trace of each spec,
    /// one generation per spec name for the workbench's lifetime: the
    /// specs not stored yet go to [`materialize`] together, on the pool.
    fn traces_from(&mut self, specs: &[WorkloadSpec]) -> Vec<Trace> {
        let mut missing: Vec<WorkloadSpec> = Vec::new();
        for spec in specs {
            let name = spec.name();
            if !self.store.contains_key(name) && missing.iter().all(|m| m.name() != name) {
                missing.push(spec.clone());
            }
        }
        for (spec, trace) in missing.iter().zip(materialize(&missing, self.len)) {
            self.store.insert(spec.name(), trace);
        }
        specs
            .iter()
            .map(|spec| self.store[spec.name()].clone())
            .collect()
    }

    /// Generates every trace set the paper artifacts read — the four
    /// architecture sets, the Z8000 load-forward phases, Table 6's mix
    /// and the RISC II workload — in one [`materialize`] call, so the
    /// pool sees all of them at once instead of idling at the end of
    /// each set (the one-trace RISC II set alone would run serially).
    /// Each spec is seeded alone, so the traces are the ones the set
    /// accessors generate lazily.
    pub fn generate_paper_sets(&mut self) {
        let mut specs: Vec<WorkloadSpec> = Architecture::ALL
            .into_iter()
            .flat_map(WorkloadSpec::set_for)
            .collect();
        specs.extend(WorkloadSpec::z8000_load_forward_set());
        specs.extend(m85_mix());
        specs.push(riscii_instruction_workload());
        self.traces_from(&specs);
        for arch in Architecture::ALL {
            self.arch_traces(arch);
        }
        self.load_forward_traces();
        self.m85_traces();
        self.riscii_traces();
    }

    /// The main trace set for an architecture (Tables 2–5).
    pub fn arch_traces(&mut self, arch: Architecture) -> &[Trace] {
        if !self.sets.contains_key(&arch) {
            let set = self.traces_from(&WorkloadSpec::set_for(arch));
            self.sets.insert(arch, set);
        }
        &self.sets[&arch]
    }

    /// The Z8000 compiler phases (CPP, C1, C2) used by the load-forward
    /// study.
    pub fn load_forward_traces(&mut self) -> &[Trace] {
        if self.load_forward.is_none() {
            self.load_forward = Some(self.traces_from(&WorkloadSpec::z8000_load_forward_set()));
        }
        self.load_forward.as_deref().expect("just populated")
    }

    /// The six-program System/360-class mix of Table 6.
    pub fn m85_traces(&mut self) -> &[Trace] {
        if self.m85.is_none() {
            self.m85 = Some(self.traces_from(&m85_mix()));
        }
        self.m85.as_deref().expect("just populated")
    }

    /// The RISC II instruction-only workload of §2.3.
    pub fn riscii_traces(&mut self) -> &[Trace] {
        if self.riscii.is_none() {
            self.riscii = Some(self.traces_from(&[riscii_instruction_workload()]));
        }
        self.riscii.as_deref().expect("just populated")
    }

    /// Runs `f` on every trace of the four architecture sets, one trace
    /// per [`pool_map`] item, and returns each architecture's results in
    /// trace order.
    pub(crate) fn map_arch_traces<R: Send>(
        &mut self,
        f: impl Fn(Architecture, &Trace) -> R + Sync,
    ) -> Vec<(Architecture, Vec<R>)> {
        let sets: Vec<(Architecture, Vec<Trace>)> = Architecture::ALL
            .into_iter()
            .map(|arch| (arch, self.arch_traces(arch).to_vec()))
            .collect();
        let items: Vec<(Architecture, &Trace)> = sets
            .iter()
            .flat_map(|(arch, set)| set.iter().map(move |trace| (*arch, trace)))
            .collect();
        let mut results = pool_map(&items, |&(arch, trace)| f(arch, trace)).into_iter();
        sets.iter()
            .map(|(arch, set)| (*arch, results.by_ref().take(set.len()).collect()))
            .collect()
    }

    /// Builds one config per item and pairs each item with its design
    /// point over `traces`, in item order. Points the results directory's
    /// store holds for this trace set and warm-up are recalled
    /// ([`occache_runtime::store::PointStore::recall`]: under `--fresh`
    /// only this run's); the rest go to the sliced worker pool
    /// ([`evaluate_metrics`]) in one call and into the store. Either way a
    /// point is the pool's trace-order mean, the unweighted §3.3 average
    /// the artifacts report, so a recalled point has the bits a fresh
    /// evaluation would.
    pub(crate) fn evaluate_each<T: Copy>(
        &mut self,
        items: &[T],
        traces: &[Trace],
        warmup: usize,
        config: impl Fn(T) -> CacheConfig,
    ) -> Vec<(T, DesignPoint)> {
        let store = crate::checkpoint::results_store(&results_dir());
        let fresh = fresh_requested();
        let fingerprint = trace_fingerprint(traces);
        let key = |c: &CacheConfig| point_key(c, fingerprint, warmup);
        let configs: Vec<CacheConfig> = items.iter().map(|&item| config(item)).collect();
        let mut points: HashMap<u64, DesignPoint> = HashMap::new();
        let mut missing = Vec::new();
        for c in &configs {
            if let Some(entry) = store.recall(key(c), fresh) {
                points.insert(key(c), entry.restore(*c));
            } else if !missing.contains(c) {
                missing.push(*c);
            }
        }
        crate::run_report::record_unjournalled(missing.len(), points.len());
        if !missing.is_empty() {
            let computed = evaluate_metrics(&missing, traces, warmup);
            self.computed += computed.len();
            for (&c, per_trace) in missing.iter().zip(&computed) {
                let p = DesignPoint::from_metrics(c, per_trace);
                store.insert(key(&c), Entry::of(&p), None);
                points.insert(key(&c), p);
            }
        }
        items
            .iter()
            .zip(&configs)
            .map(|(&item, c)| (item, points[&key(c)]))
            .collect()
    }

    /// A journalled sweep of `arch`'s paper grid over `nets` (Table 7,
    /// Figures 1–8). The checkpoint layer restores, borrows and journals
    /// every point itself, and puts what it journals into the store.
    fn sweep_journalled(
        &mut self,
        artifact: &str,
        arch: Architecture,
        nets: &[u64],
    ) -> SweepOutcome {
        let warmup = self.warmup_for(arch);
        crate::checkpoint::evaluate_checkpointed(
            artifact,
            &paper_grid(arch, nets),
            self.arch_traces(arch),
            warmup,
        )
    }
}

// ----------------------------------------------------------------------
// Figures 1-8: the miss-ratio vs traffic-ratio design spaces
// ----------------------------------------------------------------------

/// Which bus model a figure's traffic axis uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TrafficAxis {
    Linear,
    Nibble,
}

/// Descriptions of Figures 1–8 (figure number, architecture, net sizes,
/// traffic axis).
const FIGURES: &[(u8, Architecture, [u64; 3], TrafficAxis)] = &[
    (1, Architecture::Pdp11, [32, 128, 512], TrafficAxis::Linear),
    (2, Architecture::Pdp11, [64, 256, 1024], TrafficAxis::Linear),
    (3, Architecture::Z8000, [32, 128, 512], TrafficAxis::Linear),
    (4, Architecture::Z8000, [64, 256, 1024], TrafficAxis::Linear),
    (5, Architecture::Vax11, [64, 256, 1024], TrafficAxis::Linear),
    (6, Architecture::S370, [64, 256, 1024], TrafficAxis::Linear),
    (7, Architecture::Pdp11, [32, 128, 512], TrafficAxis::Nibble),
    (8, Architecture::Pdp11, [64, 256, 1024], TrafficAxis::Nibble),
];

/// The paper's standard sweep grid for an architecture over a set of net
/// sizes: every Table 1 (block, sub-block) pair at each net, 4-way LRU
/// demand fetch. The order (nets outer, Table 1 pairs inner) is the
/// order every figure and Table 7 render in, and the order journal
/// verification reconstructs.
fn paper_grid(arch: Architecture, nets: &[u64]) -> Vec<CacheConfig> {
    nets.iter()
        .flat_map(|&net| {
            table1_pairs(net, arch.word_size())
                .into_iter()
                .map(move |(b, s)| standard_config(arch, net, b, s))
        })
        .collect()
}

/// One homogeneous slice of a journalled artifact's sweep: the configs
/// evaluated against one trace set with one warm-up. Verification
/// re-derives journal keys from these.
#[derive(Debug, Clone)]
pub struct GridGroup {
    /// The config grid of this slice, in sweep order.
    pub configs: Vec<CacheConfig>,
    /// The materialised trace set the slice ran over.
    pub traces: Vec<Trace>,
    /// Warm-up prefix length.
    pub warmup: usize,
}

/// The artifacts that keep checkpoint journals (grid sweeps): Table 7
/// and Figures 1–8.
pub fn journalled_artifacts() -> &'static [&'static str] {
    &[
        "table7", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
    ]
}

/// Reconstructs the sweep grid behind a journalled artifact so a
/// verifier can re-derive journal keys and re-simulate sampled points.
/// `table7` yields one group per architecture (each with its own trace
/// set and warm-up); each figure yields a single group. Returns `None`
/// for names that keep no journal.
pub fn journalled_grid(bench: &mut Workbench, artifact: &str) -> Option<Vec<GridGroup>> {
    if artifact == "table7" {
        let groups = Architecture::ALL
            .into_iter()
            .map(|arch| GridGroup {
                configs: paper_grid(arch, &[64, 256, 1024]),
                warmup: bench.warmup_for(arch),
                traces: bench.arch_traces(arch).to_vec(),
            })
            .collect();
        return Some(groups);
    }
    let figure: u8 = artifact.strip_prefix("fig")?.parse().ok()?;
    let &(_, arch, nets, _) = FIGURES.iter().find(|&&(n, ..)| n == figure)?;
    Some(vec![GridGroup {
        configs: paper_grid(arch, &nets),
        warmup: bench.warmup_for(arch),
        traces: bench.arch_traces(arch).to_vec(),
    }])
}

/// Regenerates one of Figures 1–8.
///
/// # Panics
///
/// Panics if `figure` is not in `1..=8` (Figure 9 is the load-forward
/// figure; see [`run_fig9`]).
pub fn run_figure(bench: &mut Workbench, figure: u8) -> Artifact {
    let &(_, arch, nets, axis) = FIGURES
        .iter()
        .find(|&&(n, ..)| n == figure)
        .unwrap_or_else(|| panic!("figure {figure} is not one of Figures 1-8"));
    let len = bench.len();

    let mut report = String::new();
    let axis_name = match axis {
        TrafficAxis::Linear => "traffic ratio",
        TrafficAxis::Nibble => "scaled traffic ratio (nibble-mode, cost 1 + (w-1)/3)",
    };
    let _ = writeln!(
        report,
        "Figure {figure}: {arch} miss ratio vs {axis_name}\n\
         nets {nets:?}, 4-way LRU demand, {len} refs/trace\n\
         (solid lines connect constant block size; dashed connect constant sub-block size)\n",
    );
    let mut csv = String::from("net,block,sub,gross,miss_ratio,traffic_axis_value\n");
    let mut plot = ScatterPlot::new(64, 24, "miss ratio", "traffic");
    // One checkpointed sweep spanning all three nets: the sweep planner
    // shares trace passes across nets (each (block, sub) geometry recurs
    // at every net), and journal keys are per-point, so journals written
    // by older per-net sweeps still resume.
    let outcome = bench.sweep_journalled(&format!("fig{figure}"), arch, &nets);
    let failures = outcome.failures;
    for net in nets {
        let points: Vec<&DesignPoint> = outcome
            .points
            .iter()
            .filter(|p| p.config.net_size() == net)
            .collect();
        let _ = writeln!(report, "net {net} bytes:");
        let mut last_block = 0;
        for p in &points {
            let c = p.config;
            let traffic = match axis {
                TrafficAxis::Linear => p.traffic_ratio,
                TrafficAxis::Nibble => p.nibble_traffic_ratio,
            };
            if c.block_size() != last_block {
                let _ = writeln!(report, "  b{}:", c.block_size());
                last_block = c.block_size();
            }
            let _ = writeln!(
                report,
                "    s{:<3} miss {:.4}  traffic {:.4}  (gross {} B)",
                c.sub_block_size(),
                p.miss_ratio,
                traffic,
                p.gross_size,
            );
            let _ = writeln!(
                csv,
                "{net},{},{},{},{:.6},{:.6}",
                c.block_size(),
                c.sub_block_size(),
                p.gross_size,
                p.miss_ratio,
                traffic,
            );
        }
        let _ = writeln!(report);

        // One constant-block line per block size, as the figures draw them.
        let mut by_block: Vec<(u64, Vec<(f64, f64)>)> = Vec::new();
        for p in &points {
            let block = p.config.block_size();
            let traffic = match axis {
                TrafficAxis::Linear => p.traffic_ratio,
                TrafficAxis::Nibble => p.nibble_traffic_ratio,
            };
            match by_block.iter_mut().find(|(b, _)| *b == block) {
                Some((_, line)) => line.push((p.miss_ratio, traffic)),
                None => by_block.push((block, vec![(p.miss_ratio, traffic)])),
            }
        }
        for (block, line) in by_block {
            plot.add_series(Series {
                marker: block_marker(block),
                label: format!("net {net}, block {block}"),
                points: line,
                connect: true,
            });
        }
    }
    let _ = writeln!(report, "{}", plot.render());
    if let Some(note) = failure_note(&failures) {
        let _ = writeln!(report, "{note}");
    }
    let name: &'static str = match figure {
        1 => "fig1",
        2 => "fig2",
        3 => "fig3",
        4 => "fig4",
        5 => "fig5",
        6 => "fig6",
        7 => "fig7",
        _ => "fig8",
    };
    Artifact {
        name,
        report,
        csv: vec![(format!("{name}.csv"), csv)],
    }
}

// ----------------------------------------------------------------------
// Table 6: the 360/85 sector cache vs set-associative mapping
// ----------------------------------------------------------------------

/// Marker character for a constant-block-size line in the figures.
fn block_marker(block: u64) -> char {
    match block {
        2 => '2',
        4 => '4',
        8 => '8',
        16 => 'x',
        32 => 'o',
        _ => '*',
    }
}

/// Regenerates Table 6: the 16 KB IBM 360/85 sector organisation against
/// 4/8/16-way set-associative caches with 64-byte blocks, on the
/// six-program System/360-class mix; also the §4.1 unreferenced-sub-block
/// measurement.
pub fn run_table6(bench: &mut Workbench) -> Artifact {
    let len = bench.len();
    let traces = bench.m85_traces();
    const NET: u64 = 16 * 1024;

    let sector = CacheConfig::builder()
        .net_size(NET)
        .block_size(1024)
        .sub_block_size(64)
        .associativity(16)
        .word_size(4)
        .build()
        .expect("360/85 geometry is valid");

    let mut report = String::new();
    let _ = writeln!(
        report,
        "Table 6: IBM System/360 Model 85 sector cache vs set-associative, \
         16 KB net, 64-byte transfers, {len} refs/trace\n"
    );
    let _ = writeln!(
        report,
        "{:<28} {:>9} {:>9} {:>9} {:>9}",
        "organisation", "miss", "rel.85", "p.miss", "p.rel"
    );

    let mut csv = String::from("organisation,miss_ratio,relative_to_sector,paper_miss\n");
    let rows = [
        (4u64, paper::table6::SET_ASSOC_4WAY),
        (8, paper::table6::SET_ASSOC_8WAY),
        (16, paper::table6::SET_ASSOC_16WAY),
    ];
    let mut configs = vec![sector];
    configs.extend(rows.iter().map(|&(ways, _)| {
        CacheConfig::builder()
            .net_size(NET)
            .block_size(64)
            .sub_block_size(64)
            .associativity(ways)
            .word_size(4)
            .build()
            .expect("set-associative geometry is valid")
    }));
    // One pooled call; the sector row also reads the unreferenced-sub-block
    // fraction, which a `DesignPoint` does not carry.
    let metrics = evaluate_metrics(&configs, traces, 0);
    let sector_miss = DesignPoint::from_metrics(sector, &metrics[0]).miss_ratio;
    let unref = metrics[0]
        .iter()
        .map(Metrics::unreferenced_sub_block_fraction)
        .sum::<f64>()
        / traces.len() as f64;
    let _ = writeln!(
        report,
        "{:<28} {:>9.4} {:>9.3} {:>9.4} {:>9.3}",
        "360/85 sector (16x1024,64)",
        sector_miss,
        1.0,
        paper::table6::SECTOR_360_85,
        1.0
    );
    let _ = writeln!(
        csv,
        "360/85,{sector_miss:.6},1.0,{}",
        paper::table6::SECTOR_360_85
    );

    for (((ways, paper_miss), &config), per_trace) in
        rows.into_iter().zip(&configs[1..]).zip(&metrics[1..])
    {
        let miss = DesignPoint::from_metrics(config, per_trace).miss_ratio;
        let _ = writeln!(
            report,
            "{:<28} {:>9.4} {:>9.3} {:>9.4} {:>9.3}",
            format!("{ways}-way set-assoc (64,64)"),
            miss,
            miss / sector_miss,
            paper_miss,
            paper_miss / paper::table6::SECTOR_360_85,
        );
        let _ = writeln!(
            csv,
            "{ways}-way,{miss:.6},{:.6},{paper_miss}",
            miss / sector_miss
        );
    }

    let _ = writeln!(
        report,
        "\nSub-blocks never referenced while their sector was resident: \
         measured {:.1}% (paper: {:.0}%)",
        unref * 100.0,
        paper::table6::UNREFERENCED_SUB_FRACTION * 100.0,
    );
    Artifact {
        name: "table6",
        report,
        csv: vec![("table6.csv".into(), csv)],
    }
}

// ----------------------------------------------------------------------
// Table 7: the full design-space grid
// ----------------------------------------------------------------------

/// Regenerates Table 7: miss / traffic / nibble-scaled traffic and gross
/// size for nets {64, 256, 1024} across the Table 1 grid, for all four
/// architectures, with the paper's legible cells alongside.
pub fn run_table7(bench: &mut Workbench) -> Artifact {
    let mut report = String::new();
    let len = bench.len();
    let _ = writeln!(
        report,
        "Table 7: nets 64/256/1024, 4-way LRU demand, {len} refs/trace\n"
    );
    let mut csv_all = Vec::new();
    for arch in Architecture::ALL {
        // All three nets in one checkpointed sweep, so the planner can
        // share trace passes across nets; journal keys stay per-point and
        // the concatenation preserves the per-net point order the render
        // expects.
        let outcome = bench.sweep_journalled("table7", arch, &[64, 256, 1024]);
        let points = outcome.points;
        let failures = outcome.failures;
        report.push_str(&table7_block(arch.name(), &points, paper::table7(arch)));
        if let Some(note) = failure_note(&failures) {
            report.push_str(&note);
        }
        report.push('\n');
        csv_all.push((
            format!(
                "table7_{}.csv",
                arch.name().to_lowercase().replace([' ', '/'], "_")
            ),
            points_to_csv(arch.name(), &points),
        ));
    }
    Artifact {
        name: "table7",
        report,
        csv: csv_all,
    }
}

// ----------------------------------------------------------------------
// Table 8 / Figure 9: load-forward
// ----------------------------------------------------------------------

/// Regenerates Table 8 (and the data of Figure 9): load-forward on the
/// Z8000 compiler traces at 64- and 256-byte caches.
pub fn run_table8(bench: &mut Workbench) -> Artifact {
    let len = bench.len();
    let warmup = bench.warmup_for(Architecture::Z8000);
    let traces = bench.load_forward_traces().to_vec();

    let mut report = String::new();
    let _ = writeln!(
        report,
        "Table 8: load-forward on Z8000 traces CPP, C1, C2 ({len} refs/trace)\n"
    );
    let _ = writeln!(
        report,
        "{:>5} {:>9} | {:>8} {:>8} {:>8} {:>7} | {:>8} {:>8}",
        "net", "blk,sub", "miss", "traffic", "nibble", "redund", "p.miss", "p.traf"
    );
    let mut csv = String::from(
        "net,block,sub,load_forward,gross,miss_ratio,traffic_ratio,nibble_traffic,redundant_fraction\n",
    );

    // One grid for every row: the demand and load-forward rows share
    // one LRU engine pass per trace. Figure 9 recalls them all.
    for (row, p) in bench.evaluate_each(paper::TABLE8, &traces, warmup, table8_config) {
        let (miss, traffic) = (p.miss_ratio, p.traffic_ratio);
        let (scaled, redundant) = (p.nibble_traffic_ratio, p.redundant_load_fraction);
        let label = if row.load_forward {
            format!("{},{},LF", row.block, row.sub)
        } else {
            format!("{},{}", row.block, row.sub)
        };
        let _ = writeln!(
            report,
            "{:>5} {:>9} | {:>8.4} {:>8.4} {:>8.4} {:>6.1}% | {:>8.3} {:>8.3}",
            row.net,
            label,
            miss,
            traffic,
            scaled,
            redundant * 100.0,
            row.miss,
            row.traffic
        );
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{miss:.6},{traffic:.6},{scaled:.6},{redundant:.6}",
            row.net, row.block, row.sub, row.load_forward, p.gross_size,
        );
    }
    let _ = writeln!(
        report,
        "\n(LF rows use the paper's redundant-load scheme; 'redund' is the\n\
         fraction of sub-block loads that re-fetched resident data — the\n\
         paper found it small enough to not justify the optimized scheme.)"
    );
    Artifact {
        name: "table8",
        report,
        csv: vec![("table8.csv".into(), csv)],
    }
}

/// The configuration of one Table 8 row: 4-way LRU, 16-bit words,
/// demand or load-forward fetch.
fn table8_config(row: paper::Table8Row) -> CacheConfig {
    let mut builder = CacheConfig::builder();
    builder
        .net_size(row.net)
        .block_size(row.block)
        .sub_block_size(row.sub)
        .word_size(2);
    if row.load_forward {
        builder.fetch(FetchPolicy::LOAD_FORWARD);
    }
    builder.build().expect("Table 8 geometry is valid")
}

/// Regenerates Figure 9 (identical data to Table 8, organised as the
/// miss-vs-traffic figure).
pub fn run_fig9(bench: &mut Workbench) -> Artifact {
    let mut artifact = run_table8(bench);
    artifact.name = "fig9";
    artifact.report = artifact
        .report
        .replace("Table 8:", "Figure 9 (same data as Table 8):");
    if let Some((name, _)) = artifact.csv.first_mut() {
        *name = "fig9.csv".into();
    }
    artifact
}

// ----------------------------------------------------------------------
// §2.3: the RISC II instruction-cache size curve
// ----------------------------------------------------------------------

/// Regenerates the §2.3 RISC II instruction-cache curve: direct-mapped,
/// 8-byte blocks, instruction fetches only, 512–4096 bytes.
pub fn run_risc2(bench: &mut Workbench) -> Artifact {
    let len = bench.len();
    let traces = bench.riscii_traces().to_vec();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "RISC II instruction cache (§2.3): direct-mapped, 8-byte blocks, \
         instruction-only workload ({len} refs)\n"
    );
    let _ = writeln!(
        report,
        "{:>6} {:>9} {:>9} {:>7}",
        "net", "miss", "p.miss", "relerr"
    );
    let mut csv = String::from("net,miss_ratio,paper_miss\n");
    for ((net, paper_miss), p) in
        bench.evaluate_each(paper::RISCII_CURVE, &traces, 0, |(net, _)| {
            CacheConfig::builder()
                .net_size(net)
                .block_size(8)
                .sub_block_size(8)
                .associativity(1)
                .word_size(4)
                .build()
                .expect("RISC II geometry is valid")
        })
    {
        let miss = p.miss_ratio;
        let _ = writeln!(
            report,
            "{:>6} {:>9.4} {:>9.4} {:>6.0}%",
            net,
            miss,
            paper_miss,
            relative_error(miss, paper_miss) * 100.0
        );
        let _ = writeln!(csv, "{net},{miss:.6},{paper_miss}");
    }
    let _ = writeln!(
        report,
        "\n(Paper: doubling the cache size reduced the miss ratio by ~20%.)"
    );
    Artifact {
        name: "risc2",
        report,
        csv: vec![("risc2.csv".into(), csv)],
    }
}

// ----------------------------------------------------------------------
// Ablations: the design choices the paper holds fixed
// ----------------------------------------------------------------------

/// Ablation experiments over the parameters the paper fixed, checking the
/// claims it cites for fixing them: associativity (4-way ≈ fully
/// associative, little gain past 4), replacement (LRU ≈ FIFO ≈ RANDOM),
/// Strecker's PDP-11 direct-mapped size curve, the optimized vs redundant
/// load-forward variant, and warm vs cold start.
pub fn run_ablations(bench: &mut Workbench) -> Artifact {
    let mut report = String::new();
    let len = bench.len();
    let _ = writeln!(report, "Ablations ({len} refs/trace)\n");
    let mut csv = String::from("experiment,arch,variant,miss_ratio,traffic_ratio\n");

    // --- Associativity (paper §3.1, citing Smith [15] and Strecker [4]).
    let _ = writeln!(report, "Associativity (1024-byte cache, 16,8):");
    for arch in [Architecture::Pdp11, Architecture::Vax11] {
        let warmup = bench.warmup_for(arch);
        let traces = bench.arch_traces(arch).to_vec();
        let mut row = format!("  {:<16}", arch.name());
        for (ways, p) in bench.evaluate_each(&[1u64, 2, 4, 8], &traces, warmup, |ways| {
            CacheConfig::builder()
                .net_size(1024)
                .block_size(16)
                .sub_block_size(8)
                .associativity(ways)
                .word_size(arch.word_size())
                .build()
                .expect("valid geometry")
        }) {
            let miss = p.miss_ratio;
            let _ = write!(row, " {ways}-way {miss:.4} ");
            let _ = writeln!(csv, "associativity,{},{ways}-way,{miss:.6},", arch.name());
        }
        let _ = writeln!(report, "{row}");
    }
    let _ = writeln!(
        report,
        "  (expected: 1 -> 2 -> 4 improves, little change beyond 4-way)\n"
    );

    // --- Replacement policy (Strecker: LRU ≈ FIFO ≈ RANDOM).
    let _ = writeln!(report, "Replacement policy (1024-byte cache, 16,8, 4-way):");
    for arch in [Architecture::Pdp11, Architecture::S370] {
        let warmup = bench.warmup_for(arch);
        let traces = bench.arch_traces(arch).to_vec();
        let mut row = format!("  {:<16}", arch.name());
        let policies = [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ];
        for (policy, p) in bench.evaluate_each(&policies, &traces, warmup, |policy| {
            CacheConfig::builder()
                .net_size(1024)
                .block_size(16)
                .sub_block_size(8)
                .replacement(policy)
                .word_size(arch.word_size())
                .build()
                .expect("valid geometry")
        }) {
            let miss = p.miss_ratio;
            let _ = write!(row, " {policy} {miss:.4} ");
            let _ = writeln!(csv, "replacement,{},{policy},{miss:.6},", arch.name());
        }
        let _ = writeln!(report, "{row}");
    }
    let _ = writeln!(report, "  (expected: all three comparable)\n");

    // --- Strecker's PDP-11 curve (§1.1): direct-mapped, 4-byte blocks.
    let _ = writeln!(
        report,
        "Strecker PDP-11 curve (direct-mapped, 4-byte blocks):"
    );
    let _ = writeln!(report, "  {:>6} {:>9} {:>9}", "net", "miss", "Strecker");
    {
        let traces = bench.arch_traces(Architecture::Pdp11).to_vec();
        for ((net, paper_miss), p) in
            bench.evaluate_each(paper::STRECKER_CURVE, &traces, 0, |(net, _)| {
                CacheConfig::builder()
                    .net_size(net)
                    .block_size(4)
                    .sub_block_size(4)
                    .associativity(1)
                    .word_size(2)
                    .build()
                    .expect("valid geometry")
            })
        {
            let miss = p.miss_ratio;
            let _ = writeln!(report, "  {:>6} {:>9.4} {:>9.2}", net, miss, paper_miss);
            let _ = writeln!(csv, "strecker,PDP-11,{net},{miss:.6},");
        }
    }
    let _ = writeln!(report);

    // --- Load-forward: redundant vs optimized (remember-valid) variant.
    let _ = writeln!(
        report,
        "Load-forward variants (Z8000 CPP/C1/C2, 256-byte cache, 16,2):"
    );
    {
        let warmup = bench.warmup_for(Architecture::Z8000);
        let traces = bench.load_forward_traces().to_vec();
        let variants = [
            ("redundant (paper)", FetchPolicy::LOAD_FORWARD),
            (
                "optimized",
                FetchPolicy::LoadForward {
                    remember_valid: true,
                },
            ),
        ];
        for ((label, _), p) in bench.evaluate_each(&variants, &traces, warmup, |(_, fetch)| {
            CacheConfig::builder()
                .net_size(256)
                .block_size(16)
                .sub_block_size(2)
                .word_size(2)
                .fetch(fetch)
                .build()
                .expect("valid geometry")
        }) {
            let (miss, traffic) = (p.miss_ratio, p.traffic_ratio);
            let _ = writeln!(report, "  {label:<20} miss {miss:.4}  traffic {traffic:.4}");
            let _ = writeln!(
                csv,
                "load_forward_variant,Z8000,{label},{miss:.6},{traffic:.6}"
            );
        }
        let _ = writeln!(
            report,
            "  (identical miss ratios; the optimized variant only trims traffic)\n"
        );
    }

    // --- Warm vs cold start (§4.2.2).
    let _ = writeln!(
        report,
        "Warm vs cold start (Z8000 set, 1024-byte cache, 16,8):"
    );
    {
        let len = bench.len();
        let traces = bench.arch_traces(Architecture::Z8000).to_vec();
        let config = CacheConfig::builder()
            .net_size(1024)
            .block_size(16)
            .sub_block_size(8)
            .word_size(2)
            .build()
            .expect("valid geometry");
        for (label, warmup) in [("cold", 0usize), ("warm (5%)", len / 20)] {
            let miss = bench.evaluate_each(&[config], &traces, warmup, |c| c)[0]
                .1
                .miss_ratio;
            let _ = writeln!(report, "  {label:<12} miss {miss:.4}");
            let _ = writeln!(csv, "warm_start,Z8000,{label},{miss:.6},");
        }
        let _ = writeln!(
            report,
            "  (warm-start ratios are slightly optimistic, as the paper notes)"
        );
    }

    Artifact {
        name: "ablations",
        report,
        csv: vec![("ablations.csv".into(), csv)],
    }
}

// ----------------------------------------------------------------------
// Headline summary (abstract anchors)
// ----------------------------------------------------------------------

/// Regenerates the abstract's headline numbers: miss/traffic ratios of the
/// 1024-byte 4-way 8-byte-block cache for all four architectures.
pub fn run_headline(bench: &mut Workbench) -> Artifact {
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Abstract headline: 1024-byte net, 4-way, 8-byte blocks (8,8)\n"
    );
    let _ = writeln!(
        report,
        "{:<16} {:>8} {:>8} | {:>8} {:>8}",
        "architecture", "miss", "traffic", "p.miss", "p.traf"
    );
    let mut csv = String::from("arch,miss_ratio,traffic_ratio,paper_miss,paper_traffic\n");
    for arch in Architecture::ALL {
        let warmup = bench.warmup_for(arch);
        let traces = bench.arch_traces(arch).to_vec();
        let config = standard_config(arch, 1024, 8, 8);
        let p = bench.evaluate_each(&[config], &traces, warmup, |c| c)[0].1;
        let (miss, traffic) = (p.miss_ratio, p.traffic_ratio);
        let reference = paper::table7_row(arch, 1024, 8, 8).expect("anchor row present");
        let _ = writeln!(
            report,
            "{:<16} {:>8.4} {:>8.4} | {:>8.4} {:>8.4}",
            arch.name(),
            miss,
            traffic,
            reference.miss,
            reference.traffic
        );
        let _ = writeln!(
            csv,
            "{},{miss:.6},{traffic:.6},{},{}",
            arch.name(),
            reference.miss,
            reference.traffic
        );
    }
    Artifact {
        name: "headline",
        report,
        csv: vec![("headline.csv".into(), csv)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sets_generated_together_match_the_lazy_sets() {
        let mut together = Workbench::new(2_000);
        together.generate_paper_sets();
        let mut lazy = Workbench::new(2_000);
        for arch in Architecture::ALL {
            let expected = trace_fingerprint(lazy.arch_traces(arch));
            assert_eq!(
                trace_fingerprint(together.arch_traces(arch)),
                expected,
                "{arch}"
            );
        }
        let expected = trace_fingerprint(lazy.load_forward_traces());
        assert_eq!(trace_fingerprint(together.load_forward_traces()), expected);
        let expected = trace_fingerprint(lazy.m85_traces());
        assert_eq!(trace_fingerprint(together.m85_traces()), expected);
        let expected = trace_fingerprint(lazy.riscii_traces());
        assert_eq!(trace_fingerprint(together.riscii_traces()), expected);
    }

    fn small_bench() -> Workbench {
        Workbench::new(20_000)
    }

    #[test]
    fn workbench_caches_trace_sets() {
        let mut b = small_bench();
        let first = b.arch_traces(Architecture::Pdp11).len();
        let second = b.arch_traces(Architecture::Pdp11).len();
        assert_eq!(first, second);
        assert_eq!(first, 6);
    }

    #[test]
    fn workbench_memoizes_trace_generation_per_spec() {
        let mut b = small_bench();
        let first = b.traces_from(&WorkloadSpec::z8000_load_forward_set());
        // A second request for the same specs — as another artifact in a
        // `--bin all` run would make — hands back the very same buffers
        // instead of regenerating them.
        let second = b.traces_from(&WorkloadSpec::z8000_load_forward_set());
        for (a, c) in first.iter().zip(&second) {
            assert!(a.shares_backing(c), "{} was generated twice", a.name);
        }
        // A list that is partly stored generates only the missing specs:
        // the full Z8000 set recalls CPP, C1 and C2 and adds the rest.
        let full_specs = WorkloadSpec::z8000_full_set();
        let full = b.traces_from(&full_specs);
        for (spec, trace) in full_specs.iter().zip(&full) {
            assert_eq!((trace.name.as_str(), trace.len()), (spec.name(), b.len()));
        }
        for stored in &first {
            let recalled = full.iter().find(|t| t.name == stored.name);
            let recalled = recalled.expect("the full Z8000 set holds the load-forward specs");
            assert!(
                stored.shares_backing(recalled),
                "{} was generated twice",
                stored.name
            );
        }
    }

    #[test]
    fn warmup_only_for_z8000() {
        let b = small_bench();
        assert_eq!(b.warmup_for(Architecture::Pdp11), 0);
        assert!(b.warmup_for(Architecture::Z8000) > 0);
    }

    #[test]
    fn select_defaults_to_the_paper_set_and_refuses_unknown_names() {
        assert_eq!(select(&[]).map(|r| r.len()), Ok(21));
        let named = ["assoc_curves".to_string(), "table7".to_string()];
        assert_eq!(select(&named).map(|r| r.len()), Ok(2));
        let unknown = ["table7".to_string(), "fig10".to_string()];
        assert_eq!(select(&unknown).map(|r| r.len()), Err("fig10"));
    }

    #[test]
    fn figure_artifact_is_well_formed() {
        let mut b = small_bench();
        let a = run_figure(&mut b, 1);
        assert_eq!(a.name, "fig1");
        assert!(a.report.contains("Figure 1"));
        assert!(a.report.contains("net 32 bytes"));
        let csv = &a.csv[0].1;
        assert!(csv.lines().count() > 10, "{csv}");

        // The journalled sweep fed the memo without asking it: every
        // point Figure 1 plotted is now a recall, with the bits it
        // printed.
        assert_eq!(b.computed, 0);
        let traces = b.arch_traces(Architecture::Pdp11).to_vec();
        let configs = paper_grid(Architecture::Pdp11, &[32, 128, 512]);
        let mut rows = String::new();
        for (_, p) in b.evaluate_each(&configs, &traces, 0, |c| c) {
            let c = p.config;
            let _ = writeln!(
                rows,
                "{},{},{},{},{:.6},{:.6}",
                c.net_size(),
                c.block_size(),
                c.sub_block_size(),
                p.gross_size,
                p.miss_ratio,
                p.traffic_ratio
            );
        }
        assert_eq!(b.computed, 0, "Figure 1's points were not remembered");
        assert!(csv.ends_with(&rows), "{csv}");
    }

    #[test]
    #[should_panic(expected = "not one of Figures 1-8")]
    fn figure_9_is_separate() {
        let mut b = small_bench();
        let _ = run_figure(&mut b, 9);
    }

    #[test]
    fn table8_rows_cover_paper() {
        let mut b = small_bench();
        let a = run_table8(&mut b);
        // One CSV data line per Table 8 row.
        assert_eq!(a.csv[0].1.lines().count(), paper::TABLE8.len() + 1);
        assert!(a.report.contains("16,2,LF"));
    }

    /// The point store is keyed by config, trace set *and* warm-up: a point
    /// evaluated over one trace set or warm-up is never returned for
    /// another, and every point it returns has the direct simulator's
    /// bits for its own inputs.
    #[test]
    fn point_memo_never_crosses_warmup_or_trace_set() {
        // A trace length of its own: every test in this process shares
        // the results directory's point store, and another test's Table 8
        // points must not be recalled here.
        let mut b = Workbench::new(20_001);
        let bits = |p: &DesignPoint| {
            [
                p.miss_ratio,
                p.traffic_ratio,
                p.nibble_traffic_ratio,
                p.redundant_load_fraction,
            ]
            .map(f64::to_bits)
        };
        let z8000 = b.arch_traces(Architecture::Z8000).to_vec();
        let load_forward = b.load_forward_traces().to_vec();
        let warm = b.warmup_for(Architecture::Z8000);

        // Ablations' warm and cold Z8000 rows share one config.
        let ablations = run_ablations(&mut b);
        let config = CacheConfig::builder()
            .net_size(1024)
            .block_size(16)
            .sub_block_size(8)
            .word_size(2)
            .build()
            .expect("valid geometry");
        let computed = b.computed;
        let mut misses = Vec::new();
        for (label, warmup) in [("cold", 0), ("warm (5%)", warm)] {
            let recalled = b.evaluate_each(&[config], &z8000, warmup, |c| c)[0].1;
            let direct = crate::sweep::evaluate_point(config, &z8000, warmup);
            assert_eq!(bits(&recalled), bits(&direct), "{label}");
            let row = format!("warm_start,Z8000,{label},{:.6},", direct.miss_ratio);
            assert!(ablations.csv[0].1.contains(&row), "{row}");
            misses.push(direct.miss_ratio);
        }
        assert_eq!(b.computed, computed, "both rows were remembered");
        assert_ne!(misses[0], misses[1], "the warm-up must change the point");

        // Table 8's configs and warm-up over the Z8000 main set first:
        // Table 8 must still evaluate its own (load-forward) set.
        let configs: Vec<CacheConfig> = paper::TABLE8.iter().copied().map(table8_config).collect();
        let main_set = b.evaluate_each(&configs, &z8000, warm, |c| c);
        let before = b.computed;
        let table8 = run_table8(&mut b);
        assert!(
            b.computed > before,
            "Table 8 recalled another trace set's points"
        );
        let recalled = b.evaluate_each(&configs, &load_forward, warm, |c| c);
        let mut differs = false;
        for ((config, (_, recalled)), (_, other)) in configs.iter().zip(&recalled).zip(&main_set) {
            let direct = crate::sweep::evaluate_point(*config, &load_forward, warm);
            assert_eq!(bits(recalled), bits(&direct), "{config}");
            differs |= bits(recalled) != bits(other);
        }
        assert!(differs, "the trace set must change some point");

        // Figure 9 recalls every Table 8 row and prints the same rows.
        let computed = b.computed;
        let fig9 = run_fig9(&mut b);
        assert_eq!(b.computed, computed, "Figure 9 simulated again");
        assert_eq!(fig9.csv[0].0, "fig9.csv");
        assert_eq!(fig9.csv[0].1, table8.csv[0].1);
    }

    #[test]
    fn headline_covers_all_architectures() {
        let mut b = small_bench();
        let a = run_headline(&mut b);
        for arch in Architecture::ALL {
            assert!(a.report.contains(arch.name()), "{}", arch.name());
        }
    }
}
