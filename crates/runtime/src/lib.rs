//! `occache-runtime` — the one execution and instrumentation layer under
//! both front-ends of the workspace.
//!
//! Before this crate existed the batch harness
//! (`occache-experiments`) and the serving layer (`occache-serve`) each
//! carried their own worker pool, slice coalescing, retry/timeout
//! policy, point-key derivation and metrics stack. Everything shared
//! now lives here, below the workload layer, so a feature lands once:
//!
//! * [`eval`] — design-point evaluation: [`eval::Trace`],
//!   [`eval::DesignPoint`], the direct and one-pass engine paths, the
//!   slice planner, and structured [`eval::PointError`] faults.
//! * [`executor`] — the supervised executor: per-point watchdog
//!   deadlines, bounded retries with capped backoff, deterministic
//!   fault injection, and the bounded worker pool over planned sweep
//!   units. The *static grid* job source — batch sweeps hand it a
//!   config list and stream results out through a hook.
//! * [`queue`] — the live-queue job source: a bounded submission queue
//!   with backpressure, a fixed worker pool draining it, and batch
//!   coalescing of compatible jobs into one supervised grid. The
//!   serving layer's scheduler.
//! * [`instrument`] — atomic counters, fixed-bucket latency histograms,
//!   and the snapshot [`instrument::Registry`] whose named sinks render
//!   the same instruments as Prometheus text (`/metrics`) or greppable
//!   line-oriented JSON (`RUN_REPORT.json` totals).
//! * [`config`] — every `OCCACHE_*` environment variable, parsed in one
//!   place with strict error behavior, and the one atomic file write
//!   ([`config::write_result_in`]).
//! * [`keys`] — content addressing: FNV-1a, trace/config fingerprints,
//!   and the journal/cache point key.
//! * [`journal`] — the checkpoint journal record format (sealed,
//!   checksummed lines), the read-side scan, compaction, and the one
//!   appender both front-ends write through; the batch policy (locking,
//!   resume, quarantine) stays in `occache-experiments::checkpoint`.
//! * [`store`] — the point store: every computed point by point key,
//!   loaded once from a results directory's journals, which the
//!   checkpointed sweep, the batch `Workbench` and serve all consult.
//! * [`progress`] — the live progress feed
//!   (`results/.checkpoint/PROGRESS.json`): an atomically replaced,
//!   checksummed snapshot of the running sweep phase, written by the
//!   supervised execution path and tailed by `occache-top`.
//! * [`interrupt`] — cooperative SIGINT/SIGTERM handling shared by the
//!   batch bins and the server's accept loop.
//! * [`fmt`] — the shortest-round-trip f64 rendering convention shared
//!   by journal records, JSON responses and metric quantiles.

#![warn(missing_docs)]

pub mod config;
pub mod eval;
pub mod executor;
pub mod fmt;
pub mod instrument;
pub mod interrupt;
pub mod journal;
pub mod keys;
pub mod progress;
pub mod queue;
pub mod store;
