//! The evaluation pool and its supervisor: the one worker pool that runs
//! design points. A config grid is planned into sweep units and drained
//! from a shared queue with per-unit wall-clock deadlines, bounded
//! retries with capped backoff, deterministic fault injection and
//! interrupt awareness. Each unit yields its configs' per-trace
//! [`Metrics`]; [`evaluate_results_supervised_with`] averages them with
//! [`DesignPoint::from_metrics`], and [`evaluate_metrics`] returns them
//! as they are. Batch sweeps hand the pool a static grid through those
//! two calls (or the thin [`evaluate_results_sliced`]); the serving
//! layer's live queue
//! ([`crate::queue`]) coalesces submissions into grids and runs them
//! through the same pool. Per-trace work that is not a cache simulation
//! runs on [`pool_map`], at the same width.
//!
//! Under a deadline, each design point (or engine slice) runs on a named
//! watchdog thread and the supervisor waits with a timeout; a point that
//! overruns is abandoned (the thread is leaked — Rust cannot kill a
//! thread — and counted in [`SuperviseStats::abandoned_threads`]) and
//! surfaces as [`PointFault::Timeout`](crate::eval::PointFault::Timeout)
//! instead of wedging the whole run. Panicking points get `retries`
//! further attempts separated by an exponential backoff capped at
//! `backoff_cap`; timeouts are never retried, because a hung point will
//! hang again and every extra attempt leaks another thread.
//!
//! The policy is configured from the environment in production bins:
//!
//! * `OCCACHE_POINT_TIMEOUT` — per-point deadline in seconds (float).
//!   `0`, `off` or empty disables the deadline; unset means the
//!   [`DEFAULT_POINT_TIMEOUT`] of 300 s.
//! * `OCCACHE_FAULT_POINT` — fault injection for tests and CI smoke
//!   runs: `hang:B,S[:secs]` or `panic-once:B,S` (see [`FaultPlan`]).

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use occache_core::{CacheConfig, Metrics};

use crate::config::parse_timeout;
use crate::eval::{
    direct_metrics, panic_message, plan_units_disabling, slice_metrics, slice_pool, DesignPoint,
    PointError, SlicePool, SweepUnit, Trace,
};
use crate::journal::JournalHealth;

/// The deadline applied when `OCCACHE_POINT_TIMEOUT` is unset: generous
/// enough for a 1M-reference point on slow hardware, small enough that
/// an unattended overnight sweep cannot wedge forever.
pub const DEFAULT_POINT_TIMEOUT: Duration = Duration::from_secs(300);

/// How a deliberately injected fault misbehaves (see [`FaultPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Sleep this long inside the evaluation, simulating a hung point.
    Hang(Duration),
    /// Panic exactly once per plan, simulating a transient failure that
    /// succeeds on retry.
    PanicOnce,
}

/// Deterministic fault injection for the supervisor, targeted at one
/// `(block, sub-block)` cell so every other point runs normally. This
/// is the supervisor-level sibling of the `FaultyReader` used for trace
/// I/O faults: tests and the CI smoke run use it to prove the
/// timeout → retry → quarantine transitions on real sweeps.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// `(block_size, sub_block_size)` of the targeted cell, or `None`
    /// for a plan that never fires on a cell.
    target: Option<(u64, u64)>,
    /// What the fault does when tripped.
    kind: Option<FaultKind>,
    /// Shared once-latch for [`FaultKind::PanicOnce`].
    fired: Arc<AtomicBool>,
    /// Count-based injection: panic every `period`-th evaluation,
    /// regardless of cell. Deterministic in the number of evaluations,
    /// so a retried attempt advances the counter and succeeds — the
    /// serving layer's `panic-worker:K` chaos mode.
    every: Option<u64>,
    /// Shared evaluation counter for [`FaultPlan::panic_every`].
    evaluations: Arc<AtomicU64>,
}

impl FaultPlan {
    fn cell(target: Option<(u64, u64)>, kind: Option<FaultKind>) -> Self {
        FaultPlan {
            target,
            kind,
            fired: Arc::new(AtomicBool::new(false)),
            every: None,
            evaluations: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A plan that never fires (the production default).
    pub fn none() -> Self {
        FaultPlan::cell(None, None)
    }

    /// A plan that hangs the `(block, sub)` cell for `delay` every time
    /// it is evaluated.
    pub fn hang(block: u64, sub: u64, delay: Duration) -> Self {
        FaultPlan::cell(Some((block, sub)), Some(FaultKind::Hang(delay)))
    }

    /// A plan that panics the first evaluation of the `(block, sub)`
    /// cell and lets every later attempt succeed.
    pub fn panic_once(block: u64, sub: u64) -> Self {
        FaultPlan::cell(Some((block, sub)), Some(FaultKind::PanicOnce))
    }

    /// A plan that panics every `period`-th evaluation (any cell),
    /// counting deterministically across clones. A retry is a fresh
    /// evaluation, so with a supervisor retry budget the point recovers
    /// — this is the scheduler-layer arm of `OCCACHE_SERVE_FAULT`.
    pub fn panic_every(period: u64) -> Self {
        let mut plan = FaultPlan::none();
        plan.every = Some(period.max(1));
        plan
    }

    /// Parses the `OCCACHE_FAULT_POINT` syntax: `hang:B,S` (30 s
    /// default), `hang:B,S:SECS`, or `panic-once:B,S`.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed part of the spec.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        let (kind, rest) = spec
            .split_once(':')
            .ok_or_else(|| format!("fault spec `{spec}` is missing `:B,S` (e.g. hang:8,4)"))?;
        let (cell, extra) = match rest.split_once(':') {
            Some((cell, extra)) => (cell, Some(extra)),
            None => (rest, None),
        };
        let (b, s) = cell
            .split_once(',')
            .ok_or_else(|| format!("fault target `{cell}` is not of the form B,S"))?;
        let block: u64 = b
            .trim()
            .parse()
            .map_err(|_| format!("fault block size `{b}` is not a number"))?;
        let sub: u64 = s
            .trim()
            .parse()
            .map_err(|_| format!("fault sub-block size `{s}` is not a number"))?;
        match kind {
            "hang" => {
                let secs = match extra {
                    Some(raw) => raw
                        .trim()
                        .parse::<f64>()
                        .ok()
                        .filter(|v| v.is_finite() && *v >= 0.0)
                        .ok_or_else(|| format!("hang duration `{raw}` is not a number"))?,
                    None => 30.0,
                };
                Ok(FaultPlan::hang(block, sub, Duration::from_secs_f64(secs)))
            }
            "panic-once" => {
                if extra.is_some() {
                    return Err(format!("panic-once takes no duration: `{spec}`"));
                }
                Ok(FaultPlan::panic_once(block, sub))
            }
            other => Err(format!(
                "unknown fault kind `{other}` (expected hang or panic-once)"
            )),
        }
    }

    /// Fires the fault if `config` is the targeted cell (or the
    /// evaluation counter hits a [`FaultPlan::panic_every`] period).
    /// Called inside the evaluation thread, so a hang is
    /// indistinguishable from a genuinely wedged simulation.
    pub fn trip(&self, config: &CacheConfig) {
        if let Some(period) = self.every {
            let n = self.evaluations.fetch_add(1, Ordering::SeqCst) + 1;
            if n.is_multiple_of(period) {
                panic!("injected worker panic (every {period} evaluations, at {n})");
            }
        }
        let Some((block, sub)) = self.target else {
            return;
        };
        if config.block_size() != block || config.sub_block_size() != sub {
            return;
        }
        match self.kind {
            Some(FaultKind::Hang(delay)) => thread::sleep(delay),
            Some(FaultKind::PanicOnce) if !self.fired.swap(true, Ordering::SeqCst) => {
                panic!("injected transient point fault at ({block},{sub})");
            }
            _ => {}
        }
    }
}

/// How the supervisor treats each design point: deadline, retry budget,
/// backoff shape, and any injected fault.
#[derive(Debug, Clone)]
pub struct SupervisorPolicy {
    /// Wall-clock deadline per point (and per engine slice). `None`
    /// disables the watchdog entirely — evaluation runs inline.
    pub timeout: Option<Duration>,
    /// Extra attempts after a panicking evaluation. Timeouts are never
    /// retried.
    pub retries: u32,
    /// Sleep before the first retry; doubled per attempt.
    pub backoff: Duration,
    /// Upper bound on the doubled backoff.
    pub backoff_cap: Duration,
    /// Fault injection (production plans never fire).
    pub fault: FaultPlan,
}

impl SupervisorPolicy {
    /// No deadline, no retries, no faults: the policy behind the plain
    /// sliced sweep and the in-process test suites.
    pub fn disabled() -> Self {
        SupervisorPolicy {
            timeout: None,
            retries: 0,
            backoff: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(1),
            fault: FaultPlan::none(),
        }
    }

    /// The production default when no environment overrides are set:
    /// [`DEFAULT_POINT_TIMEOUT`], one retry, 100 ms backoff capped at
    /// 5 s, no faults.
    pub fn production() -> Self {
        SupervisorPolicy {
            timeout: Some(DEFAULT_POINT_TIMEOUT),
            retries: 1,
            backoff: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
            fault: FaultPlan::none(),
        }
    }

    /// Builds the policy from `OCCACHE_POINT_TIMEOUT` and
    /// `OCCACHE_FAULT_POINT` (the retry budget stays the production 1),
    /// rejecting malformed values so bins can refuse to start instead of
    /// running a long sweep under a misread policy.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed variable.
    pub fn try_from_env() -> Result<Self, String> {
        let mut policy = SupervisorPolicy::production();
        if let Ok(raw) = std::env::var("OCCACHE_POINT_TIMEOUT") {
            policy.timeout = parse_timeout(&raw)?;
        }
        if let Ok(raw) = std::env::var("OCCACHE_FAULT_POINT") {
            if !raw.trim().is_empty() {
                policy.fault = FaultPlan::parse(&raw)?;
            }
        }
        Ok(policy)
    }

    /// Like [`SupervisorPolicy::try_from_env`], but a malformed setting
    /// degrades to the production default with a warning instead of
    /// failing — used mid-run where aborting would waste completed
    /// points.
    pub fn from_env_lenient() -> Self {
        SupervisorPolicy::try_from_env().unwrap_or_else(|e| {
            eprintln!("warning: ignoring invalid supervisor settings: {e}");
            SupervisorPolicy::production()
        })
    }
}

/// What the supervisor did beyond plain evaluation: retry attempts,
/// watchdog threads abandoned at their deadline, and how many points
/// each execution path computed. Feeds RUN_REPORT.json (and through it
/// the progress feed and the `occache-top` SWEEP pane).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuperviseStats {
    /// Evaluation attempts made after a first failure.
    pub retries: usize,
    /// Watchdog threads leaked because their point overran the deadline.
    pub abandoned_threads: usize,
    /// Points computed per one-pass engine, indexed by
    /// [`EngineKind::index`](occache_core::EngineKind::index).
    pub engine_points: [usize; 3],
    /// Points computed on the direct simulator — planner fallbacks,
    /// engines disabled via `OCCACHE_NO_MULTISIM`, and per-member
    /// containment re-runs after a slice failure.
    pub direct_points: usize,
}

impl SuperviseStats {
    /// Accumulates another worker's stats into this one.
    pub fn merge(&mut self, other: SuperviseStats) {
        self.retries += other.retries;
        self.abandoned_threads += other.abandoned_threads;
        for (mine, theirs) in self.engine_points.iter_mut().zip(other.engine_points) {
            *mine += theirs;
        }
        self.direct_points += other.direct_points;
    }
}

/// The outcome of one deadline-bounded evaluation.
enum Deadline<T> {
    /// The closure ran to completion (possibly panicking) in time.
    Finished(thread::Result<T>),
    /// The deadline elapsed; the watchdog thread was abandoned.
    Elapsed,
}

/// Runs `f` under an optional wall-clock deadline. With no deadline the
/// closure runs inline under `catch_unwind`. With one, it runs on a
/// named watchdog thread and the caller waits at most `timeout`; an
/// overrunning thread is leaked (Rust offers no way to kill it) and the
/// caller moves on.
fn run_with_deadline<T: Send + 'static>(
    timeout: Option<Duration>,
    f: impl FnOnce() -> T + Send + 'static,
) -> Deadline<T> {
    let Some(limit) = timeout else {
        return Deadline::Finished(panic::catch_unwind(AssertUnwindSafe(f)));
    };
    let (tx, rx) = mpsc::sync_channel::<thread::Result<T>>(1);
    let spawned = thread::Builder::new()
        .name("occache-point".to_string())
        .spawn(move || {
            let _ = tx.send(panic::catch_unwind(AssertUnwindSafe(f)));
        });
    let handle = match spawned {
        Ok(handle) => handle,
        // Thread spawn fails only under resource exhaustion; surface it
        // as a point failure rather than crashing the sweep.
        Err(e) => {
            return Deadline::Finished(Err(Box::new(format!(
                "could not spawn the point watchdog thread: {e}"
            ))))
        }
    };
    match rx.recv_timeout(limit) {
        Ok(result) => {
            // The sender has already produced a value; reap the thread.
            let _ = handle.join();
            Deadline::Finished(result)
        }
        Err(mpsc::RecvTimeoutError::Timeout) => Deadline::Elapsed,
        // The sender dropped without sending: the thread died outside
        // catch_unwind. Join it to recover the payload.
        Err(mpsc::RecvTimeoutError::Disconnected) => match handle.join() {
            Err(payload) => Deadline::Finished(Err(payload)),
            Ok(()) => Deadline::Finished(Err(Box::new(
                "point watchdog thread exited without a result".to_string(),
            ))),
        },
    }
}

/// Simulates one design point's traces on the direct simulator under the
/// policy: deadline per attempt, bounded retries with doubling backoff
/// after panics, no retry after a timeout (a hung point would hang again
/// and leak another thread).
fn supervise_point(
    policy: &SupervisorPolicy,
    config: CacheConfig,
    traces: &[Trace],
    warmup: usize,
    stats: &mut SuperviseStats,
) -> Result<Vec<Metrics>, PointError> {
    let mut backoff = policy.backoff;
    let mut attempt: u32 = 0;
    loop {
        let fault = policy.fault.clone();
        let owned = traces.to_vec();
        let run = run_with_deadline(policy.timeout, move || {
            fault.trip(&config);
            direct_metrics(config, &owned, warmup)
        });
        match run {
            Deadline::Finished(Ok(metrics)) => return Ok(metrics),
            Deadline::Finished(Err(payload)) => {
                let message = panic_message(payload);
                if attempt < policy.retries {
                    attempt += 1;
                    stats.retries += 1;
                    thread::sleep(backoff);
                    backoff = backoff
                        .checked_mul(2)
                        .unwrap_or(policy.backoff_cap)
                        .min(policy.backoff_cap);
                    continue;
                }
                return Err(PointError::panicked(
                    config,
                    format!("{message} (after {} attempt(s))", attempt + 1),
                ));
            }
            Deadline::Elapsed => {
                stats.abandoned_threads += 1;
                let limit = policy.timeout.unwrap_or_default();
                return Err(PointError::timed_out(config, limit));
            }
        }
    }
}

/// The evaluation pool. Plans `configs` into [`SweepUnit`]s (honouring
/// `OCCACHE_NO_MULTISIM`), drains them from a shared queue under the
/// policy, and turns each config's per-trace metrics into a result with
/// `finish` on the worker thread, calling `on_point` there as each
/// unit's points land. Returns one result per config, in input order.
///
/// An engine slice that panics or overruns its deadline does not fail
/// its sibling configs: each member is re-run alone on the direct
/// simulator under its own deadline, so only the genuinely broken or
/// hung cell fails and fault attribution stays per-point.
fn drain_units<T, F, H>(
    policy: &SupervisorPolicy,
    configs: &[CacheConfig],
    traces: &[Trace],
    warmup: usize,
    width: Option<usize>,
    finish: F,
    on_point: H,
) -> (Vec<Result<T, PointError>>, SuperviseStats)
where
    T: Send,
    F: Fn(CacheConfig, Vec<Metrics>) -> T + Sync,
    H: Fn(usize, &Result<T, PointError>) + Sync,
{
    // Per-policy escape hatch: disabled engines' configs become direct
    // units; the planner already routes engine-inexpressible configs
    // there unconditionally.
    let units = plan_units_disabling(configs, crate::config::multisim_disabled());
    let SlicePool { workers, shards } = slice_pool(units.len(), traces.len(), width);
    let mut slots: Vec<Option<Result<T, PointError>>> = std::iter::repeat_with(|| None)
        .take(configs.len())
        .collect();
    let mut stats = SuperviseStats::default();
    let mut died: Vec<String> = Vec::new();
    let next = AtomicUsize::new(0);
    let (units, next, finish, on_point) = (&units, &next, &finish, &on_point);
    thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..workers {
            handles.push(scope.spawn(move || {
                let mut done: Vec<(usize, Result<T, PointError>)> = Vec::new();
                let emit = |done: &mut Vec<(usize, Result<T, PointError>)>,
                            i: usize,
                            r: Result<Vec<Metrics>, PointError>| {
                    let r = r.map(|metrics| finish(configs[i], metrics));
                    on_point(i, &r);
                    done.push((i, r));
                };
                let mut local = SuperviseStats::default();
                loop {
                    if crate::interrupt::requested() {
                        break;
                    }
                    let u = next.fetch_add(1, Ordering::Relaxed);
                    let Some(unit) = units.get(u) else { break };
                    match unit {
                        SweepUnit::Direct(i) => {
                            let r =
                                supervise_point(policy, configs[*i], traces, warmup, &mut local);
                            local.direct_points += 1;
                            emit(&mut done, *i, r);
                        }
                        SweepUnit::Engine { kind, members } => {
                            let slice: Vec<CacheConfig> =
                                members.iter().map(|&i| configs[i]).collect();
                            let owned = traces.to_vec();
                            let fault = policy.fault.clone();
                            let run = run_with_deadline(policy.timeout, move || {
                                for config in &slice {
                                    fault.trip(config);
                                }
                                slice_metrics(&slice, &owned, warmup, shards)
                            });
                            match run {
                                Deadline::Finished(Ok(per_trace)) => {
                                    local.engine_points[kind.index()] += members.len();
                                    for (k, &i) in members.iter().enumerate() {
                                        let metrics = per_trace.iter().map(|m| m[k]).collect();
                                        emit(&mut done, i, Ok(metrics));
                                    }
                                }
                                // A slice panic or overrun must not take
                                // siblings down with it: re-run each
                                // member alone on the direct simulator
                                // under its own deadline, so only the
                                // broken or hung cell fails.
                                Deadline::Finished(Err(_)) | Deadline::Elapsed => {
                                    if matches!(run, Deadline::Elapsed) {
                                        local.abandoned_threads += 1;
                                    }
                                    local.retries += 1;
                                    for &i in members {
                                        let r = supervise_point(
                                            policy, configs[i], traces, warmup, &mut local,
                                        );
                                        local.direct_points += 1;
                                        emit(&mut done, i, r);
                                    }
                                }
                            }
                        }
                    }
                }
                (done, local)
            }));
        }
        for h in handles {
            match h.join() {
                Ok((done, local)) => {
                    for (i, r) in done {
                        slots[i] = Some(r);
                    }
                    stats.merge(local);
                }
                // With per-unit containment a worker should never die,
                // but if one does, its claimed units surface below as
                // failures rather than poisoning the whole sweep.
                Err(payload) => died.push(panic_message(payload)),
            }
        }
    });
    let interrupted = crate::interrupt::requested();
    let death = died.first().map(String::as_str).unwrap_or("unknown cause");
    let results = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| {
                if interrupted && died.is_empty() {
                    Err(PointError::interrupted(configs[i]))
                } else {
                    Err(PointError::worker_loss(
                        configs[i],
                        format!("sweep worker thread died outside point isolation: {death}"),
                    ))
                }
            })
        })
        .collect();
    (results, stats)
}

/// Supervised fault-isolated parallel sweep: every planned unit runs
/// under the policy's deadline and retry budget, and each config's
/// per-trace metrics are averaged by [`DesignPoint::from_metrics`].
/// Returns one result per config in input order, plus the supervision
/// stats.
///
/// `width` sets the pool width (`None` honours `OCCACHE_SLICE_THREADS`,
/// then the hardware parallelism). `on_point` is called
/// exactly once per evaluated config — from worker threads, as each
/// unit's points land — which the checkpoint layer uses to stream
/// journal appends to its single writer thread and the serving layer
/// uses to publish results as they complete.
///
/// The pool is interrupt-aware: once [`crate::interrupt::requested`]
/// turns true, workers finish their current unit and stop claiming new
/// ones; unclaimed configs come back as
/// [`PointFault::Interrupted`](crate::eval::PointFault::Interrupted)
/// failures (for which `on_point` is *not* called — nothing was
/// evaluated).
///
/// The width bounds the total number of engine threads: one worker per
/// unit at most, and when the grid plans fewer units than the width,
/// each engine unit's traces are sharded over the spare workers inside
/// the unit's deadline-bounded attempt. Fault trips, deadlines, retries
/// and the per-member direct fallback therefore still apply once per
/// unit attempt, and results stay bit-identical at every width.
pub fn evaluate_results_supervised_with<H>(
    policy: &SupervisorPolicy,
    configs: &[CacheConfig],
    traces: &[Trace],
    warmup: usize,
    width: Option<usize>,
    on_point: H,
) -> (Vec<Result<DesignPoint, PointError>>, SuperviseStats)
where
    H: Fn(usize, &Result<DesignPoint, PointError>) + Sync,
{
    drain_units(
        policy,
        configs,
        traces,
        warmup,
        width,
        |config, metrics| DesignPoint::from_metrics(config, &metrics),
        on_point,
    )
}

/// Fault-isolated parallel sweep that shares trace passes across
/// one-pass-compatible slices, returning one result per config in input
/// order: [`evaluate_results_supervised_with`] with no deadline, no
/// retries and the default pool width. A panic inside an engine slice
/// does not fail its sibling configs: each member is retried alone on
/// the direct simulator, so fault isolation stays per-point. Collect
/// the results into a [`SweepOutcome`] to split points from failures.
pub fn evaluate_results_sliced(
    configs: &[CacheConfig],
    traces: &[Trace],
    warmup: usize,
) -> Vec<Result<DesignPoint, PointError>> {
    let policy = SupervisorPolicy::disabled();
    evaluate_results_supervised_with(&policy, configs, traces, warmup, None, |_, _| {}).0
}

/// The outcome of a fault-isolated (and possibly resumed) sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    /// Successfully evaluated points, in the order of the input configs.
    pub points: Vec<DesignPoint>,
    /// Points whose evaluation failed, with the failing config named.
    pub failures: Vec<PointError>,
    /// How many points were restored from a checkpoint journal rather than
    /// re-simulated (always 0 for non-resumable sweeps).
    pub resumed: usize,
    /// Retried attempts the supervisor made after transient failures.
    pub retries: usize,
    /// Checkpoint-journal health observed while resuming.
    pub journal: JournalHealth,
}

/// Splits per-config results into points and failures, each in input
/// order; every other field starts at its default.
impl FromIterator<Result<DesignPoint, PointError>> for SweepOutcome {
    fn from_iter<I: IntoIterator<Item = Result<DesignPoint, PointError>>>(results: I) -> Self {
        let mut outcome = SweepOutcome::default();
        for result in results {
            match result {
                Ok(p) => outcome.points.push(p),
                Err(e) => outcome.failures.push(e),
            }
        }
        outcome
    }
}

impl SweepOutcome {
    /// True when every input config produced a point.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// How many failures were deadline overruns.
    pub fn timed_out(&self) -> usize {
        self.fault_count(crate::eval::PointFault::Timeout)
    }

    /// How many points the journal quarantined.
    pub fn quarantined(&self) -> usize {
        self.fault_count(crate::eval::PointFault::Quarantined)
    }

    /// How many points produced non-finite metrics.
    pub fn non_finite(&self) -> usize {
        self.fault_count(crate::eval::PointFault::NonFinite)
    }

    fn fault_count(&self, fault: crate::eval::PointFault) -> usize {
        self.failures.iter().filter(|f| f.fault == fault).count()
    }

    /// A short report block naming each failed cell, or `None` when the
    /// sweep is complete. Artifact reports append this so partial results
    /// are never mistaken for full grids.
    pub fn failure_note(&self) -> Option<String> {
        failure_note(&self.failures)
    }
}

/// Renders a failed-cells block for a report, or `None` when `failures`
/// is empty. See [`SweepOutcome::failure_note`].
pub fn failure_note(failures: &[PointError]) -> Option<String> {
    if failures.is_empty() {
        return None;
    }
    let mut note = format!(
        "WARNING: {} design point(s) FAILED and are missing above:\n",
        failures.len()
    );
    for f in failures {
        use std::fmt::Write as _;
        let _ = writeln!(note, "  FAILED {f}");
    }
    Some(note)
}

/// Every configuration's per-trace [`Metrics`], `result[config][trace]`,
/// from the pool under [`SupervisorPolicy::disabled`]. Nothing is
/// averaged, so an artifact can report counters a [`DesignPoint`] does
/// not carry, such as write-through and write-back traffic or the
/// unreferenced-sub-block fraction. Each entry is bit-identical to
/// [`occache_core::simulate`] of that config and trace.
///
/// An interrupt does not cut the result short: configs the pool skipped
/// once [`crate::interrupt::requested`] turned true (the
/// [`PointFault::Interrupted`](crate::eval::PointFault::Interrupted)
/// failures) are simulated here on the direct path, so a caller that is
/// running when SIGINT arrives still gets the complete, bit-identical
/// grid and can finish its artifact before the binary stops.
///
/// # Panics
///
/// Panics on any other failure, naming the failing configuration.
pub fn evaluate_metrics(
    configs: &[CacheConfig],
    traces: &[Trace],
    warmup: usize,
) -> Vec<Vec<Metrics>> {
    let policy = SupervisorPolicy::disabled();
    let (results, _) = drain_units(
        &policy,
        configs,
        traces,
        warmup,
        None,
        |_, metrics| metrics,
        |_, _| {},
    );
    let mut failures = Vec::new();
    let rows = results
        .into_iter()
        .map(|result| match result {
            Ok(metrics) => metrics,
            Err(e) if e.fault == crate::eval::PointFault::Interrupted => {
                direct_metrics(e.config, traces, warmup)
            }
            Err(e) => {
                failures.push(e);
                Vec::new()
            }
        })
        .collect();
    if let Some(first) = failures.first() {
        panic!(
            "sweep failed at {} of {} design point(s); first failure: {first}",
            failures.len(),
            configs.len()
        );
    }
    rows
}

/// Maps `f` over `items` on the pool's threads and returns the results
/// in item order: for per-trace work that is not a cache simulation,
/// such as trace statistics and instruction-buffer models. The width
/// follows the pool's rule (`OCCACHE_SLICE_THREADS`, else the hardware
/// parallelism), at most one thread per item, the calling thread
/// included. Threads claim items one at a time, so uneven items
/// balance. A panic in `f` resumes on the calling thread with its
/// original payload.
pub fn pool_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = slice_pool(items.len(), 1, None).workers;
    let (next, f) = (&AtomicUsize::new(0), &f);
    let work = move || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            done.push((i, f(item)));
        }
        done
    };
    thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for handle in handles {
            match handle.join() {
                Ok(more) => done.extend(more),
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, r)| r).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::PointFault;
    use occache_workloads::WorkloadSpec;
    use std::sync::Mutex;

    // Local stand-ins for the workload helpers that live above this
    // crate (`occache_experiments::sweep::{materialize, table1_pairs,
    // standard_config}`): a PDP-11 grid at net 256, word 2.
    fn small_grid() -> (Vec<CacheConfig>, Vec<Trace>) {
        let spec = WorkloadSpec::pdp11_ed();
        let traces = vec![Trace::new(spec.name(), spec.generator(0).take(1_000))];
        let mut configs = Vec::new();
        let mut block = 64u64;
        while block >= 2 {
            let mut sub = block.min(32);
            while sub >= 2 {
                configs.push(
                    CacheConfig::builder()
                        .net_size(256)
                        .block_size(block)
                        .sub_block_size(sub)
                        .word_size(2)
                        .build()
                        .expect("Table 1 geometry is valid"),
                );
                sub /= 2;
            }
            block /= 2;
        }
        (configs, traces)
    }

    /// The pool under `policy` at the default width, with no hook.
    fn supervised(
        policy: &SupervisorPolicy,
        configs: &[CacheConfig],
        traces: &[Trace],
    ) -> (Vec<Result<DesignPoint, PointError>>, SuperviseStats) {
        evaluate_results_supervised_with(policy, configs, traces, 0, None, |_, _| {})
    }

    #[test]
    fn evaluate_metrics_matches_simulate_per_config_and_trace() {
        use occache_core::{FetchPolicy, WritePolicy};
        let (mut configs, mut traces) = small_grid();
        let spec = WorkloadSpec::pdp11_opsys();
        traces.push(Trace::new(spec.name(), spec.generator(0).take(1_500)));
        // Engine slices with load-forward and copy-back members, plus a
        // prefetch config only the direct simulator runs.
        let mut extra = Vec::new();
        for config in configs.iter().take(6) {
            let mut builder = CacheConfig::builder();
            builder
                .net_size(config.net_size())
                .block_size(config.block_size())
                .sub_block_size(config.sub_block_size())
                .word_size(2);
            extra.push(
                builder
                    .fetch(FetchPolicy::LOAD_FORWARD)
                    .build()
                    .expect("valid geometry"),
            );
            extra.push(
                builder
                    .write_policy(WritePolicy::CopyBack)
                    .build()
                    .expect("valid geometry"),
            );
        }
        extra.push(
            CacheConfig::builder()
                .net_size(256)
                .block_size(16)
                .sub_block_size(4)
                .word_size(2)
                .fetch(FetchPolicy::PrefetchNext { tagged: true })
                .build()
                .expect("valid geometry"),
        );
        configs.extend(extra);
        let all = evaluate_metrics(&configs, &traces, 100);
        assert_eq!(all.len(), configs.len());
        for (config, per_trace) in configs.iter().zip(&all) {
            assert_eq!(per_trace.len(), traces.len());
            for (trace, metrics) in traces.iter().zip(per_trace) {
                assert_eq!(
                    *metrics,
                    occache_core::simulate(*config, trace.iter(), 100),
                    "{config}"
                );
            }
        }
    }

    #[test]
    fn fault_plan_parsing_round_trips_the_cli_syntax() {
        let hang = FaultPlan::parse("hang:8,4:0.25").unwrap();
        assert_eq!(hang.target, Some((8, 4)));
        assert_eq!(hang.kind, Some(FaultKind::Hang(Duration::from_millis(250))));
        let default_hang = FaultPlan::parse("hang:16,8").unwrap();
        assert_eq!(
            default_hang.kind,
            Some(FaultKind::Hang(Duration::from_secs(30)))
        );
        let panic_once = FaultPlan::parse("panic-once:8,4").unwrap();
        assert_eq!(panic_once.kind, Some(FaultKind::PanicOnce));
        assert!(FaultPlan::parse("hang").is_err());
        assert!(FaultPlan::parse("hang:8").is_err());
        assert!(FaultPlan::parse("hang:a,b").is_err());
        assert!(FaultPlan::parse("panic-once:8,4:1").is_err());
        assert!(FaultPlan::parse("explode:8,4").is_err());
    }

    #[test]
    fn disabled_policy_matches_the_plain_sweep() {
        let (configs, traces) = small_grid();
        let policy = SupervisorPolicy::disabled();
        let (results, stats) = supervised(&policy, &configs, &traces);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.abandoned_threads, 0);
        // The whole LRU grid rides the LRU engine; nothing is direct.
        assert_eq!(
            stats.engine_points[occache_core::EngineKind::Lru.index()],
            configs.len()
        );
        assert_eq!(stats.direct_points, 0);
        for (config, result) in configs.iter().zip(&results) {
            let (s, p) = (
                result.as_ref().unwrap(),
                crate::eval::evaluate_point(*config, &traces, 0),
            );
            assert_eq!(s.config, p.config);
            assert_eq!(s.miss_ratio.to_bits(), p.miss_ratio.to_bits());
            assert_eq!(s.traffic_ratio.to_bits(), p.traffic_ratio.to_bits());
            assert_eq!(
                s.nibble_traffic_ratio.to_bits(),
                p.nibble_traffic_ratio.to_bits()
            );
            assert_eq!(
                s.redundant_load_fraction.to_bits(),
                p.redundant_load_fraction.to_bits()
            );
            assert_eq!(s.gross_size, p.gross_size);
        }
    }

    #[test]
    fn hung_point_times_out_and_siblings_complete() {
        let (configs, traces) = small_grid();
        let mut policy = SupervisorPolicy::disabled();
        policy.timeout = Some(Duration::from_millis(200));
        policy.fault = FaultPlan::hang(8, 4, Duration::from_secs(60));
        let (results, stats) = supervised(&policy, &configs, &traces);
        let mut timeouts = 0;
        for (config, result) in configs.iter().zip(&results) {
            let hung = config.block_size() == 8 && config.sub_block_size() == 4;
            match result {
                Ok(point) => assert!(!hung, "hung cell {:?} completed", point.config),
                Err(e) => {
                    assert!(hung, "unexpected failure: {e}");
                    assert_eq!(e.fault, PointFault::Timeout);
                    assert!(e.message.contains("deadline"), "{e}");
                    timeouts += 1;
                }
            }
        }
        assert_eq!(timeouts, 1);
        assert!(stats.abandoned_threads >= 1);
    }

    #[test]
    fn transient_panic_succeeds_on_retry() {
        let (configs, traces) = small_grid();
        let mut policy = SupervisorPolicy::disabled();
        policy.retries = 1;
        policy.backoff = Duration::from_millis(1);
        policy.fault = FaultPlan::panic_once(8, 4);
        let (results, stats) = supervised(&policy, &configs, &traces);
        assert!(results.iter().all(Result::is_ok), "retry must recover");
        assert!(stats.retries >= 1);
    }

    /// Five traces — four packed, then a streamed one whose factory
    /// panics and records the thread it ran on — for a grid whose single
    /// engine unit shards 3/2 at width 2, so the panic is raised on a
    /// spawned shard thread.
    fn sharded_grid(
        panicking: bool,
    ) -> (
        Vec<CacheConfig>,
        Vec<Trace>,
        Arc<Mutex<Vec<thread::ThreadId>>>,
    ) {
        let (configs, mut traces) = small_grid();
        let spec = WorkloadSpec::pdp11_ed();
        for seed in 1..4 {
            traces.push(Trace::new(spec.name(), spec.generator(seed).take(1_000)));
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        traces.push(Trace::streamed(spec.name(), 1_000, move || {
            log.lock().unwrap().push(thread::current().id());
            assert!(!panicking, "injected trace factory failure");
            spec.generator(9)
        }));
        (configs, traces, seen)
    }

    #[test]
    fn shard_thread_panic_falls_back_per_member() {
        let (configs, traces, seen) = sharded_grid(true);
        for timeout in [None, Some(Duration::from_secs(60))] {
            seen.lock().unwrap().clear();
            let mut policy = SupervisorPolicy::disabled();
            policy.timeout = timeout;
            let worker = Mutex::new(None);
            let (results, stats) =
                evaluate_results_supervised_with(&policy, &configs, &traces, 0, Some(2), |_, _| {
                    *worker.lock().unwrap() = Some(thread::current().id());
                });
            // The factory first ran on a shard thread, not the worker
            // that ran group 0 and then re-ran every member directly.
            let first = seen.lock().unwrap()[0];
            assert_ne!(Some(first), *worker.lock().unwrap());
            for result in &results {
                let e = result.as_ref().unwrap_err();
                assert_eq!(e.fault, PointFault::Panic);
                assert!(e.message.contains("injected trace factory failure"), "{e}");
            }
            assert_eq!(stats.retries, 1);
            assert_eq!(stats.direct_points, configs.len());
            assert_eq!(stats.engine_points, [0; 3]);
            assert_eq!(stats.abandoned_threads, 0);
        }
    }

    #[test]
    fn sharded_unit_trips_faults_once_per_attempt() {
        let (configs, traces, _) = sharded_grid(false);
        let mut policy = SupervisorPolicy::disabled();
        policy.retries = 1;
        policy.backoff = Duration::from_millis(1);
        let mut runs = Vec::new();
        for width in [1, 3] {
            // The slice attempt panics once, then every member recovers
            // on its direct re-run.
            policy.fault = FaultPlan::panic_once(8, 4);
            let (results, stats) = evaluate_results_supervised_with(
                &policy,
                &configs,
                &traces,
                0,
                Some(width),
                |_, _| {},
            );
            assert_eq!(stats.retries, 1, "width {width}");
            assert_eq!(stats.direct_points, configs.len(), "width {width}");
            runs.push(results.into_iter().map(Result::unwrap).collect::<Vec<_>>());
            // One attempt trips each member once: a period one past the
            // member count never fires, unless every shard tripped too.
            policy.fault = FaultPlan::panic_every(configs.len() as u64 + 1);
            let (results, stats) = evaluate_results_supervised_with(
                &policy,
                &configs,
                &traces,
                0,
                Some(width),
                |_, _| {},
            );
            assert!(results.iter().all(Result::is_ok), "width {width}");
            assert_eq!(stats.retries, 0, "width {width}");
            assert_eq!(stats.direct_points, 0, "width {width}");
        }
        for (a, b) in runs[0].iter().zip(&runs[1]) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.miss_ratio.to_bits(), b.miss_ratio.to_bits());
            assert_eq!(a.traffic_ratio.to_bits(), b.traffic_ratio.to_bits());
        }
    }

    #[test]
    fn exhausted_retries_surface_the_panic() {
        let (configs, traces) = small_grid();
        let mut policy = SupervisorPolicy::disabled();
        policy.fault = FaultPlan::hang(8, 4, Duration::ZERO);
        // A zero-length hang never fails: the sweep completes.
        let (results, _) = supervised(&policy, &configs, &traces);
        assert!(results.iter().all(Result::is_ok));

        // A panic on every evaluation outlasts a one-retry budget: the
        // slice attempt fails, then each member's direct re-run panics
        // on both of its attempts.
        policy.retries = 1;
        policy.backoff = Duration::from_millis(1);
        policy.fault = FaultPlan::panic_every(1);
        let (results, stats) = supervised(&policy, &configs, &traces);
        for result in &results {
            let e = result.as_ref().unwrap_err();
            assert_eq!(e.fault, PointFault::Panic);
            assert!(e.message.contains("(after 2 attempt(s))"), "{e}");
        }
        // One retry for the failed slice, one per member re-run.
        assert_eq!(stats.retries, configs.len() + 1);
        assert_eq!(stats.direct_points, configs.len());
    }

    #[test]
    fn pool_map_keeps_item_order_over_uneven_items() {
        // Early items are the slow ones, so later items finish first on
        // any thread that is free.
        let items: Vec<u64> = (0..40).collect();
        let out = pool_map(&items, |&i| {
            thread::sleep(Duration::from_micros((40 - i) * 50));
            i * i
        });
        assert_eq!(out, items.iter().map(|i| i * i).collect::<Vec<_>>());
        assert!(pool_map(&[] as &[u8], |&b| b).is_empty());
    }

    #[test]
    fn pool_map_propagates_a_panic_with_its_payload() {
        let items: Vec<usize> = (0..16).collect();
        for bad in [0, 7, 15] {
            let payload = panic::catch_unwind(|| {
                pool_map(&items, |&i| {
                    if i == bad {
                        panic!("item {bad} failed");
                    }
                    i
                })
            })
            .expect_err("the panic must reach the caller");
            assert_eq!(panic_message(payload), format!("item {bad} failed"));
        }
    }
}
