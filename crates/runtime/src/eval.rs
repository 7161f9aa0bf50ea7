//! Design-point evaluation: the direct simulator path, the one-pass
//! engine path, the slice planner, and structured point faults.
//!
//! Evaluation averages ratios across traces exactly as the paper does
//! ("Multiple-trace miss and traffic ratios are the unweighted average
//! of the miss and traffic ratios of individual runs", §3.3). Sweeps do
//! not simulate every point independently: [`plan_units`] groups a grid
//! into one-pass-compatible slices per replacement policy (demand
//! fetch, write-through, power-of-two sets — geometry may differ
//! freely per member) and [`evaluate_slice`] runs each through the
//! matching [`occache_core::multisim`] engine (LRU, FIFO or Random),
//! which yields every cache size's metrics from a single trace pass —
//! bit-identical to [`occache_core::simulate`]. Only points no engine
//! can express (prefetch/load-forward, copy-back, non-power-of-two
//! sets) fall back to the direct simulator, and
//! `OCCACHE_NO_MULTISIM=<list>` forces the direct path for the listed
//! engines — or all of them with `OCCACHE_NO_MULTISIM=all` — (used by
//! equivalence tests and timing comparisons; see
//! [`crate::config::multisim_disabled`]).

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;

use occache_core::{
    simulate, simulate_many, simulate_many_pair, BusModel, CacheConfig, EngineKind, Metrics,
    MAX_MULTISIM_CONFIGS,
};
use occache_trace::{MemRef, PackedTrace};

/// A named reference stream, reusable across configurations.
///
/// Two backings exist. [`Trace::new`] fully materialises the stream
/// into a shared [`PackedTrace`] (9 bytes per reference instead of 16),
/// so cloning a `Trace` — as the memoizing workbench and the sweep
/// workers do — bumps a reference count rather than copying a
/// million-entry stream. [`Trace::streamed`] instead stores a
/// replayable *factory*: every [`Trace::iter`] call regenerates the
/// stream on the fly, so evaluation feeds references straight from the
/// source (e.g. a workload generator) into the simulators without a
/// packed copy ever existing. Both backings yield identical references
/// in identical order for the same underlying stream, so journal keys,
/// fingerprints and metrics do not depend on which one a sweep used.
#[derive(Clone)]
pub struct Trace {
    /// Trace name (as in the paper's workload tables).
    pub name: String,
    source: TraceBacking,
}

#[derive(Clone)]
enum TraceBacking {
    /// Fully materialised, shared by reference across workers.
    Packed(Arc<PackedTrace>),
    /// Regenerated on every iteration from a replayable factory.
    Streamed {
        len: usize,
        make: Arc<dyn Fn() -> Box<dyn Iterator<Item = MemRef> + Send> + Send + Sync>,
    },
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("Trace");
        s.field("name", &self.name).field("len", &self.len());
        match &self.source {
            TraceBacking::Packed(_) => s.field("backing", &"packed"),
            TraceBacking::Streamed { .. } => s.field("backing", &"streamed"),
        };
        s.finish()
    }
}

impl Trace {
    /// Packs a reference stream under a name.
    pub fn new(name: impl Into<String>, refs: impl IntoIterator<Item = MemRef>) -> Self {
        Trace {
            name: name.into(),
            source: TraceBacking::Packed(Arc::new(refs.into_iter().collect())),
        }
    }

    /// A streamed trace: `make` must return a fresh iterator replaying
    /// the *same* `len`-reference stream on every call (a deterministic
    /// generator reseeded identically). Evaluation then consumes the
    /// stream chunk-by-chunk without materialising it; iteration is
    /// truncated to `len` so the declared length is authoritative.
    pub fn streamed<F, I>(name: impl Into<String>, len: usize, make: F) -> Self
    where
        F: Fn() -> I + Send + Sync + 'static,
        I: Iterator<Item = MemRef> + Send + 'static,
    {
        Trace {
            name: name.into(),
            source: TraceBacking::Streamed {
                len,
                make: Arc::new(move || Box::new(make())),
            },
        }
    }

    /// Number of references in the stream.
    pub fn len(&self) -> usize {
        match &self.source {
            TraceBacking::Packed(refs) => refs.len(),
            TraceBacking::Streamed { len, .. } => *len,
        }
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this trace regenerates on iteration instead of replaying
    /// a packed copy.
    pub fn is_streamed(&self) -> bool {
        matches!(self.source, TraceBacking::Streamed { .. })
    }

    /// Iterates the reference stream (decoding the packed copy, or
    /// regenerating via the factory).
    pub fn iter(&self) -> TraceIter<'_> {
        match &self.source {
            TraceBacking::Packed(refs) => TraceIter::Packed(refs.iter()),
            TraceBacking::Streamed { len, make } => TraceIter::Streamed(make().take(*len)),
        }
    }

    /// Whether two traces share the same backing store (packed buffer or
    /// stream factory) — i.e. cloning one of them produced the other.
    pub fn shares_backing(&self, other: &Trace) -> bool {
        match (&self.source, &other.source) {
            (TraceBacking::Packed(a), TraceBacking::Packed(b)) => Arc::ptr_eq(a, b),
            (TraceBacking::Streamed { make: a, .. }, TraceBacking::Streamed { make: b, .. }) => {
                Arc::ptr_eq(a, b)
            }
            _ => false,
        }
    }
}

/// Iterator over a [`Trace`]'s references, whichever backing it has.
pub enum TraceIter<'a> {
    /// Decoding a packed trace in place.
    Packed(occache_trace::packed::PackedIter<'a>),
    /// Draining a freshly regenerated stream.
    Streamed(std::iter::Take<Box<dyn Iterator<Item = MemRef> + Send>>),
}

impl Iterator for TraceIter<'_> {
    type Item = MemRef;

    fn next(&mut self) -> Option<MemRef> {
        match self {
            TraceIter::Packed(it) => it.next(),
            TraceIter::Streamed(it) => it.next(),
        }
    }
}

/// Averaged results for one cache design point over a trace set.
#[derive(Debug, Clone, Copy)]
pub struct DesignPoint {
    /// The configuration evaluated.
    pub config: CacheConfig,
    /// Unweighted mean miss ratio across traces.
    pub miss_ratio: f64,
    /// Unweighted mean traffic ratio across traces.
    pub traffic_ratio: f64,
    /// Unweighted mean nibble-mode scaled traffic ratio (§4.3).
    pub nibble_traffic_ratio: f64,
    /// Mean fraction of redundant sub-block loads (load-forward only).
    pub redundant_load_fraction: f64,
    /// Gross cache size in bytes.
    pub gross_size: u64,
}

/// Evaluates one configuration against every trace, averaging the ratios.
///
/// `warmup` references at the head of each trace prime the cache without
/// being counted (the paper's warm-start discipline; pass 0 for cold).
pub fn evaluate_point(config: CacheConfig, traces: &[Trace], warmup: usize) -> DesignPoint {
    let nibble = BusModel::paper_nibble();
    let mut miss = 0.0;
    let mut traffic = 0.0;
    let mut scaled = 0.0;
    let mut redundant = 0.0;
    for trace in traces {
        let metrics: Metrics = simulate(config, trace.iter(), warmup);
        miss += metrics.miss_ratio();
        traffic += metrics.traffic_ratio();
        scaled += metrics.scaled_traffic_ratio(nibble);
        if metrics.sub_loads() > 0 {
            redundant += metrics.redundant_sub_loads() as f64 / metrics.sub_loads() as f64;
        }
    }
    let n = traces.len().max(1) as f64;
    DesignPoint {
        config,
        miss_ratio: miss / n,
        traffic_ratio: traffic / n,
        nibble_traffic_ratio: scaled / n,
        redundant_load_fraction: redundant / n,
        gross_size: config.gross_size(),
    }
}

/// Evaluates a one-pass-compatible slice of configurations with a single
/// engine pass per trace, averaging exactly as [`evaluate_point`] does.
///
/// `shards` spreads the traces over that many threads (capped at the
/// trace count; 0 and 1 both mean serial): the trace list splits into
/// contiguous groups of near-equal count, the calling thread runs the
/// first group and scoped threads run the rest. Each trace's engine pass
/// is independent, and the per-trace metrics are folded in trace order
/// whatever the shard count, so the accumulation order per configuration
/// is identical to the per-point path (outer loop over traces, then the
/// division by the trace count) and the resulting floats are
/// bit-identical, not merely close. A panic on a shard thread resumes on
/// the calling thread with its original payload.
pub fn evaluate_slice(
    configs: &[CacheConfig],
    traces: &[Trace],
    warmup: usize,
    shards: usize,
) -> Vec<DesignPoint> {
    let shards = shards.clamp(1, traces.len().max(1));
    let (base, extra) = (traces.len() / shards, traces.len() % shards);
    let mut groups = Vec::with_capacity(shards);
    let mut rest = traces;
    for g in 0..shards {
        let (group, tail) = rest.split_at(base + usize::from(g < extra));
        groups.push(group);
        rest = tail;
    }
    let per_trace = thread::scope(|scope| {
        let handles: Vec<_> = groups[1..]
            .iter()
            .map(|&group| scope.spawn(move || engine_metrics(configs, group, warmup)))
            .collect();
        let mut all = engine_metrics(configs, groups[0], warmup);
        for handle in handles {
            match handle.join() {
                Ok(metrics) => all.extend(metrics),
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        all
    });
    let nibble = BusModel::paper_nibble();
    let mut miss = vec![0.0; configs.len()];
    let mut traffic = vec![0.0; configs.len()];
    let mut scaled = vec![0.0; configs.len()];
    let mut redundant = vec![0.0; configs.len()];
    for all in &per_trace {
        for (i, metrics) in all.iter().enumerate() {
            miss[i] += metrics.miss_ratio();
            traffic[i] += metrics.traffic_ratio();
            scaled[i] += metrics.scaled_traffic_ratio(nibble);
            if metrics.sub_loads() > 0 {
                redundant[i] += metrics.redundant_sub_loads() as f64 / metrics.sub_loads() as f64;
            }
        }
    }
    let n = traces.len().max(1) as f64;
    configs
        .iter()
        .enumerate()
        .map(|(i, &config)| DesignPoint {
            config,
            miss_ratio: miss[i] / n,
            traffic_ratio: traffic[i] / n,
            nibble_traffic_ratio: scaled[i] / n,
            redundant_load_fraction: redundant[i] / n,
            gross_size: config.gross_size(),
        })
        .collect()
}

/// One engine pass per trace over `configs`, returning each trace's
/// per-configuration metrics in trace order.
///
/// Traces go through the engine two at a time: the paired run
/// interleaves two independent engine passes to overlap their dependency
/// chains (see `simulate_many_pair`) and returns exactly what two
/// separate passes would, so pairing is purely a scheduling change.
fn engine_metrics(configs: &[CacheConfig], traces: &[Trace], warmup: usize) -> Vec<Vec<Metrics>> {
    const PLANNED: &str = "sweep planner grouped an engine-incompatible slice";
    let mut out = Vec::with_capacity(traces.len());
    let mut chunks = traces.chunks_exact(2);
    for pair in chunks.by_ref() {
        let (first, second) =
            simulate_many_pair(configs, pair[0].iter(), pair[1].iter(), warmup).expect(PLANNED);
        out.push(first);
        out.push(second);
    }
    for trace in chunks.remainder() {
        out.push(simulate_many(configs, trace.iter(), warmup).expect(PLANNED));
    }
    out
}

/// One schedulable unit of a sliced sweep: a group of config indices that
/// share an engine pass, or a single config that needs the direct
/// simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepUnit {
    /// A slice of config-grid indices, one-pass-compatible with each
    /// other, bound for one policy's engine.
    Engine {
        /// Which one-pass engine runs this slice.
        kind: EngineKind,
        /// Indices into the config grid.
        members: Vec<usize>,
    },
    /// Index of a config no engine can express.
    Direct(usize),
}

/// Groups a config grid into one-pass-compatible slices, one slice
/// family per replacement policy.
///
/// Every engine-eligible config (see [`EngineKind::for_config`]) joins
/// its policy's shared slice in grid order — net size, block size,
/// sub-block size, word size and associativity may all differ, the
/// engine tracks those per residency class and per size — chunked at
/// [`MAX_MULTISIM_CONFIGS`]; everything else becomes a direct unit. For
/// the paper's Table 1/Table 7 grids this means the whole grid rides a
/// single pass per trace regardless of the policy axis. Deterministic
/// for a given grid, and every input index appears in exactly one unit:
/// direct units in grid order first, then engine slices in
/// [`EngineKind::ALL`] order.
pub fn plan_units(configs: &[CacheConfig]) -> Vec<SweepUnit> {
    plan_units_disabling(configs, crate::config::DisabledEngines::NONE)
}

/// [`plan_units`] with some engines forced off: their configs route to
/// direct units instead. This is the hook behind the
/// `OCCACHE_NO_MULTISIM` escape hatch (see
/// [`crate::config::multisim_disabled`]).
pub fn plan_units_disabling(
    configs: &[CacheConfig],
    disabled: crate::config::DisabledEngines,
) -> Vec<SweepUnit> {
    let mut units = Vec::new();
    let mut members: [Vec<usize>; EngineKind::ALL.len()] = Default::default();
    for (i, config) in configs.iter().enumerate() {
        match EngineKind::for_config(config) {
            Some(kind) if !disabled.contains(kind) => members[kind.index()].push(i),
            _ => units.push(SweepUnit::Direct(i)),
        }
    }
    for kind in EngineKind::ALL {
        for chunk in members[kind.index()].chunks(MAX_MULTISIM_CONFIGS) {
            units.push(SweepUnit::Engine {
                kind,
                members: chunk.to_vec(),
            });
        }
    }
    units
}

/// Why a design point failed to produce a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointFault {
    /// The evaluation panicked (simulator bug or injected fault).
    Panic,
    /// The evaluation exceeded the supervisor's wall-clock deadline.
    Timeout,
    /// The evaluation produced a non-finite metric (NaN or infinity),
    /// which must never reach a journal or an artifact.
    NonFinite,
    /// The point failed in enough earlier runs that the journal
    /// quarantined it; it is skipped instead of being retried forever.
    Quarantined,
    /// A sweep worker thread died outside per-point isolation.
    WorkerLoss,
    /// The run was interrupted (SIGINT/SIGTERM) before this point was
    /// claimed by a worker; the point was never evaluated and is *not*
    /// tombstoned, so a resumed run picks it up cleanly.
    Interrupted,
}

impl std::fmt::Display for PointFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PointFault::Panic => "panic",
            PointFault::Timeout => "timeout",
            PointFault::NonFinite => "non-finite",
            PointFault::Quarantined => "quarantined",
            PointFault::WorkerLoss => "worker-loss",
            PointFault::Interrupted => "interrupted",
        })
    }
}

/// A design point whose evaluation failed (panic, deadline overrun,
/// poisoned metrics, or a journal quarantine). The sweep records the
/// failure and carries on with the remaining points.
#[derive(Debug, Clone)]
pub struct PointError {
    /// The configuration that failed.
    pub config: CacheConfig,
    /// The failure class (drives retry/quarantine policy and reporting).
    pub fault: PointFault,
    /// Human-readable detail (panic payload, deadline, field name, ...).
    pub message: String,
}

impl PointError {
    /// A panicking evaluation, with the rendered payload.
    pub fn panicked(config: CacheConfig, message: impl Into<String>) -> Self {
        PointError {
            config,
            fault: PointFault::Panic,
            message: message.into(),
        }
    }

    /// An evaluation abandoned at its wall-clock deadline.
    pub fn timed_out(config: CacheConfig, deadline: std::time::Duration) -> Self {
        PointError {
            config,
            fault: PointFault::Timeout,
            message: format!(
                "exceeded the {:.1}s point deadline (OCCACHE_POINT_TIMEOUT); evaluation abandoned",
                deadline.as_secs_f64()
            ),
        }
    }

    /// An evaluation that produced a non-finite metric.
    pub fn non_finite(config: CacheConfig, field: &str) -> Self {
        PointError {
            config,
            fault: PointFault::NonFinite,
            message: format!("{field} is not finite; the point was rejected, not journalled"),
        }
    }

    /// A point skipped because the journal quarantined it.
    pub fn quarantined(config: CacheConfig, failures: u32) -> Self {
        PointError {
            config,
            fault: PointFault::Quarantined,
            message: format!(
                "quarantined after {failures} failed run(s); pass --fresh to retry it"
            ),
        }
    }

    /// A worker thread dying outside per-point isolation.
    pub fn worker_loss(config: CacheConfig, message: impl Into<String>) -> Self {
        PointError {
            config,
            fault: PointFault::WorkerLoss,
            message: message.into(),
        }
    }

    /// A point left unevaluated because the run was interrupted.
    pub fn interrupted(config: CacheConfig) -> Self {
        PointError {
            config,
            fault: PointFault::Interrupted,
            message: "run interrupted (SIGINT/SIGTERM) before this point was evaluated; \
                      rerun to resume"
                .into(),
        }
    }
}

impl std::fmt::Display for PointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: [{}] {}", self.config, self.fault, self.message)
    }
}

/// Renders a panic payload as text (panics carry `&str` or `String`
/// payloads in practice; anything else is reported opaquely).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panicked with a non-string payload".to_string()
    }
}

/// Evaluates one configuration with panic containment: a panic inside
/// `eval` becomes an `Err(PointError)` instead of unwinding the sweep.
fn evaluate_contained<F>(
    config: CacheConfig,
    traces: &[Trace],
    warmup: usize,
    eval: &F,
) -> Result<DesignPoint, PointError>
where
    F: Fn(CacheConfig, &[Trace], usize) -> DesignPoint,
{
    panic::catch_unwind(AssertUnwindSafe(|| eval(config, traces, warmup)))
        .map_err(|payload| PointError::panicked(config, panic_message(payload)))
}

/// Fault-isolated parallel sweep returning one result per config, in
/// input order. The building block under the isolated-sweep entry points
/// and the checkpointed sweeps, which need the per-index mapping.
pub fn evaluate_results_with<F>(
    configs: &[CacheConfig],
    traces: &[Trace],
    warmup: usize,
    eval: F,
) -> Vec<Result<DesignPoint, PointError>>
where
    F: Fn(CacheConfig, &[Trace], usize) -> DesignPoint + Sync,
{
    let workers = pool_workers(configs.len());
    let chunk = configs.len().div_ceil(workers.max(1)).max(1);
    let mut slots: Vec<Option<Result<DesignPoint, PointError>>> = vec![None; configs.len()];
    let eval = &eval;
    thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, block) in configs.chunks(chunk).enumerate() {
            handles.push((
                i * chunk,
                block,
                scope.spawn(move || {
                    block
                        .iter()
                        .map(|&c| evaluate_contained(c, traces, warmup, eval))
                        .collect::<Vec<_>>()
                }),
            ));
        }
        for (start, block, h) in handles {
            match h.join() {
                Ok(results) => {
                    for (j, r) in results.into_iter().enumerate() {
                        slots[start + j] = Some(r);
                    }
                }
                // With per-point containment a worker should never die, but
                // if one does, name every config it was carrying rather
                // than poisoning the whole sweep.
                Err(payload) => {
                    let message = format!(
                        "sweep worker thread died outside point isolation: {}",
                        panic_message(payload)
                    );
                    for (j, &c) in block.iter().enumerate() {
                        slots[start + j] = Some(Err(PointError::worker_loss(c, message.clone())));
                    }
                }
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every chunk filled its slots"))
        .collect()
}

/// The worker count a sweep pool should use for `units` schedulable
/// units: the `OCCACHE_JOBS` override when set (malformed values fall
/// back silently — bins validate via [`crate::config::try_jobs`] at
/// startup), otherwise the hardware parallelism, never more workers than
/// units and never zero.
pub fn pool_workers(units: usize) -> usize {
    let hardware = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    crate::config::try_jobs()
        .unwrap_or(None)
        .unwrap_or(hardware)
        .min(units.max(1))
}

/// How a slice-level sweep spreads its planned units over threads: the
/// worker count, and how many threads each engine unit splits its
/// traces across (see [`evaluate_slice`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlicePool {
    /// Workers draining the unit queue.
    pub workers: usize,
    /// Trace shards per engine unit, the calling worker included.
    pub shards: usize,
}

impl SlicePool {
    /// Engine threads the pool runs at most at once.
    pub fn threads(&self) -> usize {
        self.workers * self.shards
    }
}

/// Sizes the pool for `units` planned units over `traces` traces. The
/// width is `width` when given, else `OCCACHE_SLICE_THREADS` when set (so
/// an operator can pin sweep concurrency without resizing the serving
/// pools), else [`pool_workers`]'s `OCCACHE_JOBS` / hardware-parallelism
/// fallback. At most one worker per unit runs; when there are fewer
/// units than the width, the spare workers shard each engine unit's
/// traces (`width / units` shards, capped at the trace count), so the
/// width bounds the total number of engine threads either way. Binaries
/// validate the variable strictly at startup via
/// [`crate::config::try_slice_threads`]; by the time a pool is being
/// sized, a malformed value falls back to the default rather than
/// aborting mid-sweep.
pub fn slice_pool(units: usize, traces: usize, width: Option<usize>) -> SlicePool {
    let width = width
        .or_else(|| crate::config::try_slice_threads().unwrap_or(None))
        .unwrap_or_else(|| pool_workers(usize::MAX))
        .max(1);
    let units = units.max(1);
    SlicePool {
        workers: width.min(units),
        shards: (width / units).clamp(1, traces.max(1)),
    }
}
