//! Design-point evaluation: traces, the one averaging function, the
//! direct simulator and one-pass engine paths, the slice planner, and
//! structured point faults.
//!
//! Evaluation averages ratios across traces exactly as the paper does
//! ("Multiple-trace miss and traffic ratios are the unweighted average
//! of the miss and traffic ratios of individual runs", §3.3), in one
//! place: [`DesignPoint::from_metrics`]. Every path — [`evaluate_point`]
//! and the evaluation pool in [`crate::executor`] — produces each
//! config's per-trace [`Metrics`] and hands them to it. Sweeps do not
//! simulate every point independently: [`plan_units`] groups a grid
//! into one-pass-compatible slices per replacement policy (power-of-two
//! sets — geometry, demand or load-forward fetch and write-through or
//! copy-back may differ freely per member), and the pool runs each
//! slice through the matching [`occache_core::multisim`] engine (LRU,
//! FIFO or Random), which yields every cache size's metrics from a
//! single trace pass — bit-identical to [`occache_core::simulate`].
//! Only points no engine can express (prefetch, non-power-of-two sets,
//! more than 16 ways, 1-byte blocks) fall back to the direct simulator,
//! and `OCCACHE_NO_MULTISIM=<list>` forces the direct path for the
//! listed engines — or all of them with `OCCACHE_NO_MULTISIM=all` —
//! (used by equivalence tests and timing comparisons; see
//! [`crate::config::multisim_disabled`]).

use std::panic;
use std::sync::{Arc, Weak};
use std::thread;

use occache_core::{
    simulate, simulate_many, BusModel, CacheConfig, EngineKind, Metrics, DEFAULT_RANDOM_SEED,
    MAX_MULTISIM_CONFIGS,
};
use occache_trace::packed::PackedReader;
use occache_trace::{AccessKind, ChunkIter, ChunkRead, MemRef, PackedTrace, RefChunk};

/// A named reference stream, reusable across configurations.
///
/// Two backings exist. [`Trace::new`] fully materialises the stream
/// into a shared [`PackedTrace`] (about 1.7 bytes per reference on the
/// paper's workloads instead of 16; see [`occache_trace::packed`]), so
/// cloning a `Trace` — as the memoizing workbench and the sweep workers
/// do — bumps a reference count rather than copying a million-entry
/// stream. [`Trace::streamed`] instead stores a replayable *factory*:
/// every read regenerates the stream on the fly, so evaluation feeds
/// references straight from the source (e.g. a workload generator) into
/// the simulators without a packed copy ever existing. Both backings
/// yield identical references in identical order for the same
/// underlying stream, so journal keys, fingerprints and metrics do not
/// depend on which one a sweep used.
///
/// Consumers read a trace a chunk at a time through [`Trace::reader`]
/// (the engines, the fingerprint) or item by item through
/// [`Trace::iter`], which decodes in chunks behind the scenes.
#[derive(Clone)]
pub struct Trace {
    /// Trace name (as in the paper's workload tables).
    pub name: String,
    source: TraceBacking,
}

/// A replayable stream factory: every call starts the stream afresh.
type MakeStream = dyn Fn() -> Box<dyn ChunkRead + Send> + Send + Sync;

#[derive(Clone)]
enum TraceBacking {
    /// Fully materialised, shared by reference across workers.
    Packed(Arc<PackedTrace>),
    /// Regenerated on every read from a replayable factory.
    Streamed { len: usize, make: Arc<MakeStream> },
}

/// A non-owning handle on a trace's backing store, for memos keyed by
/// trace identity (see [`crate::keys::trace_fingerprint`]). It keeps
/// the allocation's address reserved, so no later backing can reuse it,
/// without keeping the references alive.
pub(crate) enum WeakBacking {
    Packed(Weak<PackedTrace>),
    Streamed(Weak<MakeStream>),
}

impl WeakBacking {
    /// Whether the backing it names is still held by some trace.
    pub(crate) fn is_live(&self) -> bool {
        match self {
            WeakBacking::Packed(w) => w.strong_count() > 0,
            WeakBacking::Streamed(w) => w.strong_count() > 0,
        }
    }
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
    /// stream chunk-by-chunk without materialising it; reads stop after
    /// `len` references, so the declared length is authoritative.
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

    /// Whether this trace regenerates on every read instead of replaying
    /// a packed copy.
    pub fn is_streamed(&self) -> bool {
        matches!(self.source, TraceBacking::Streamed { .. })
    }

    /// A reader over the reference stream from its start, filling a
    /// caller's chunk in bulk: a packed trace decodes straight into it,
    /// a streamed one regenerates into it.
    pub fn reader(&self) -> TraceReader<'_> {
        let (source, left): (Box<dyn ChunkRead + Send + '_>, _) = match &self.source {
            TraceBacking::Packed(refs) => (Box::new(refs.reader()), refs.len()),
            TraceBacking::Streamed { len, make } => (make(), *len),
        };
        TraceReader { source, left }
    }

    /// Iterates the reference stream item by item, read a chunk at a
    /// time through [`Trace::reader`].
    pub fn iter(&self) -> ChunkIter<TraceReader<'_>> {
        ChunkIter::new(self.reader())
    }

    /// A streamed view of this trace that keeps only the references
    /// whose kind `keep` accepts, in order: e.g. the instruction or the
    /// data half of a split I/D study. The view replays the same backing
    /// (a packed buffer is shared, not copied) a chunk at a time; its
    /// length is counted here, from the kinds alone.
    pub fn filtered<F>(&self, name: impl Into<String>, keep: F) -> Trace
    where
        F: Fn(AccessKind) -> bool + Copy + Send + Sync + 'static,
    {
        // A packed source is counted from its kind codes alone; a
        // streamed one by a chunked pass over the stream.
        let (len, make) = match &self.source {
            TraceBacking::Packed(refs) => {
                let refs = Arc::clone(refs);
                let len = refs.count_kinds(keep);
                let make: Arc<MakeStream> = Arc::new(move || {
                    let source = PackedReader::new(Arc::clone(&refs));
                    Box::new(KindFilter::new(source, keep))
                });
                (len, make)
            }
            TraceBacking::Streamed { len, make } => {
                let (mut reader, mut chunk, mut kept) = (self.reader(), RefChunk::new(), 0);
                while reader.read_chunk(&mut chunk, FILTER_CHUNK) > 0 {
                    kept += chunk.kinds().iter().filter(|&&kind| keep(kind)).count();
                }
                let (len, make) = (*len, Arc::clone(make));
                let make: Arc<MakeStream> = Arc::new(move || {
                    let source = TraceReader {
                        source: make(),
                        left: len,
                    };
                    Box::new(KindFilter::new(source, keep))
                });
                (kept, make)
            }
        };
        Trace {
            name: name.into(),
            source: TraceBacking::Streamed { len, make },
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

    /// A non-owning handle on this trace's backing store.
    pub(crate) fn downgrade(&self) -> WeakBacking {
        match &self.source {
            TraceBacking::Packed(refs) => WeakBacking::Packed(Arc::downgrade(refs)),
            TraceBacking::Streamed { make, .. } => WeakBacking::Streamed(Arc::downgrade(make)),
        }
    }

    /// Whether `weak` names this trace's backing store.
    pub(crate) fn is_backed_by(&self, weak: &WeakBacking) -> bool {
        match (&self.source, weak) {
            (TraceBacking::Packed(refs), WeakBacking::Packed(w)) => {
                std::ptr::addr_eq(Arc::as_ptr(refs), w.as_ptr())
            }
            (TraceBacking::Streamed { make, .. }, WeakBacking::Streamed(w)) => {
                std::ptr::addr_eq(Arc::as_ptr(make), w.as_ptr())
            }
            _ => false,
        }
    }
}

/// Reads a [`Trace`] a chunk at a time, stopping after its declared
/// length.
pub struct TraceReader<'a> {
    source: Box<dyn ChunkRead + Send + 'a>,
    /// References still to read.
    left: usize,
}

impl ChunkRead for TraceReader<'_> {
    fn read_chunk(&mut self, chunk: &mut RefChunk, max: usize) -> usize {
        let n = self.source.read_chunk(chunk, max.min(self.left));
        self.left -= n;
        n
    }

    fn remaining(&self) -> Option<usize> {
        self.source.remaining().map(|left| left.min(self.left))
    }
}

/// References per source read of a [`Trace::filtered`] view: the
/// engine's chunk size, so one source chunk fills about one engine
/// chunk's worth of the kept kinds.
const FILTER_CHUNK: usize = 4096;

/// Reads the references of `source` whose kind `keep` accepts, a chunk
/// of the source at a time: the reader behind [`Trace::filtered`].
struct KindFilter<R, F> {
    source: R,
    keep: F,
    /// The source's current chunk.
    buf: RefChunk,
    /// The next unread index into `buf`.
    at: usize,
}

impl<R, F> KindFilter<R, F> {
    fn new(source: R, keep: F) -> Self {
        KindFilter {
            source,
            keep,
            buf: RefChunk::new(),
            at: 0,
        }
    }
}

impl<R: ChunkRead, F: Fn(AccessKind) -> bool> ChunkRead for KindFilter<R, F> {
    fn read_chunk(&mut self, chunk: &mut RefChunk, max: usize) -> usize {
        chunk.clear();
        while chunk.len() < max {
            if self.at == self.buf.len() {
                if self.source.read_chunk(&mut self.buf, FILTER_CHUNK) == 0 {
                    break;
                }
                self.at = 0;
            }
            self.at = chunk.extend_kept(&self.buf, self.at, max, &self.keep);
        }
        chunk.len()
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

impl DesignPoint {
    /// Averages one configuration's per-trace metrics into a design
    /// point: the paper's unweighted §3.3 mean. Each ratio is summed in
    /// trace order and then divided by the trace count, so every
    /// evaluation path that hands over the same per-trace metrics gets
    /// the same bits.
    pub fn from_metrics(config: CacheConfig, per_trace: &[Metrics]) -> DesignPoint {
        let nibble = BusModel::paper_nibble();
        let mut miss = 0.0;
        let mut traffic = 0.0;
        let mut scaled = 0.0;
        let mut redundant = 0.0;
        for metrics in per_trace {
            miss += metrics.miss_ratio();
            traffic += metrics.traffic_ratio();
            scaled += metrics.scaled_traffic_ratio(nibble);
            if metrics.sub_loads() > 0 {
                redundant += metrics.redundant_sub_loads() as f64 / metrics.sub_loads() as f64;
            }
        }
        let n = per_trace.len().max(1) as f64;
        DesignPoint {
            config,
            miss_ratio: miss / n,
            traffic_ratio: traffic / n,
            nibble_traffic_ratio: scaled / n,
            redundant_load_fraction: redundant / n,
            gross_size: config.gross_size(),
        }
    }
}

/// Simulates one configuration against every trace on the direct
/// simulator, returning each trace's metrics in trace order.
pub(crate) fn direct_metrics(config: CacheConfig, traces: &[Trace], warmup: usize) -> Vec<Metrics> {
    traces
        .iter()
        .map(|trace| simulate(config, trace.iter(), warmup))
        .collect()
}

/// Evaluates one configuration against every trace, averaging the ratios.
///
/// `warmup` references at the head of each trace prime the cache without
/// being counted (the paper's warm-start discipline; pass 0 for cold).
pub fn evaluate_point(config: CacheConfig, traces: &[Trace], warmup: usize) -> DesignPoint {
    DesignPoint::from_metrics(config, &direct_metrics(config, traces, warmup))
}

/// Runs a one-pass-compatible slice over every trace, returning each
/// trace's per-configuration metrics in trace order.
///
/// `shards` spreads the traces over that many threads (capped at the
/// trace count; 0 and 1 both mean serial): the trace list splits into
/// contiguous groups of near-equal count, the calling thread runs the
/// first group and scoped threads run the rest. Each trace's engine pass
/// is independent and the groups are joined in trace order, so the
/// result does not depend on the shard count. A panic on a shard thread
/// resumes on the calling thread with its original payload.
pub(crate) fn slice_metrics(
    configs: &[CacheConfig],
    traces: &[Trace],
    warmup: usize,
    shards: usize,
) -> Vec<Vec<Metrics>> {
    let shards = shards.clamp(1, traces.len().max(1));
    let (base, extra) = (traces.len() / shards, traces.len() % shards);
    let mut groups = Vec::with_capacity(shards);
    let mut rest = traces;
    for g in 0..shards {
        let (group, tail) = rest.split_at(base + usize::from(g < extra));
        groups.push(group);
        rest = tail;
    }
    thread::scope(|scope| {
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
    })
}

/// One engine pass per trace over `configs`, returning each trace's
/// per-configuration metrics in trace order. Random slices use
/// [`DEFAULT_RANDOM_SEED`], the seed the point keys fold in.
fn engine_metrics(configs: &[CacheConfig], traces: &[Trace], warmup: usize) -> Vec<Vec<Metrics>> {
    simulate_many(
        configs,
        traces.iter().map(Trace::reader),
        warmup,
        DEFAULT_RANDOM_SEED,
    )
    .expect("sweep planner grouped an engine-incompatible slice")
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

/// How the evaluation pool spreads its planned units over threads: the
/// worker count, and how many threads each engine unit splits its
/// traces across (see [`slice_metrics`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlicePool {
    /// Workers draining the unit queue.
    pub(crate) workers: usize,
    /// Trace shards per engine unit, the calling worker included.
    pub(crate) shards: usize,
}

/// Sizes the pool for `units` planned units over `traces` traces. The
/// width is `width` when given, else `OCCACHE_SLICE_THREADS` when set,
/// else the hardware parallelism. At most one worker per unit runs;
/// when there are fewer units than the width, the spare workers shard
/// each engine unit's traces (`width / units` shards, capped at the
/// trace count), so the width bounds the total number of engine threads
/// either way. Binaries validate the variable strictly at startup
/// ([`crate::config::check_batch_env`]); by the time a pool is being
/// sized, a malformed value falls back to the default rather than
/// aborting mid-sweep.
pub(crate) fn slice_pool(units: usize, traces: usize, width: Option<usize>) -> SlicePool {
    let width = width
        .or_else(|| crate::config::try_slice_threads().unwrap_or(None))
        .unwrap_or_else(|| thread::available_parallelism().map_or(4, |n| n.get()))
        .max(1);
    let units = units.max(1);
    SlicePool {
        workers: width.min(units),
        shards: (width / units).clamp(1, traces.max(1)),
    }
}
