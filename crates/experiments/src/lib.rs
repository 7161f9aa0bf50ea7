#![warn(missing_docs)]

//! # occache-experiments — regenerating the paper's tables and figures
//!
//! Harness code behind the `all` experiment binary, which regenerates
//! every table and figure of Hill & Smith, ISCA 1984 (see `DESIGN.md` §5
//! for the index).
//!
//! The execution machinery itself — supervised worker pools, the slice
//! planner, watchdog/retry, the journal codec, instrumentation and
//! `OCCACHE_*` env parsing — lives in `occache-runtime` (DESIGN.md §9),
//! shared with `occache-serve`; import the supervisor from
//! `occache_runtime::executor` and the signal flag from
//! `occache_runtime::interrupt`. This crate adds the batch-side policy
//! and rendering:
//!
//! * [`sweep`] — trace materialisation and the Table 1 parameter grid
//!   (plus re-exports of the runtime evaluation/executor API:
//!   fault-isolated multi-threaded sweeps),
//! * [`checkpoint`] — resumable sweeps over the runtime's journal codec:
//!   advisory locking, atomic compaction, tombstone quarantine, and the
//!   checkpointed entry points (`--fresh` / `OCCACHE_FRESH=1` discards
//!   journals),
//! * [`manifest`] / [`run_report`] / [`verify`] — end-to-end result
//!   integrity: content-hashed artifact manifest, per-run supervision
//!   report, and the `occache-verify` checks (manifest + journal scan +
//!   sampled re-simulation),
//! * [`paper`] — the paper's published numbers (Tables 6–8, prose anchors)
//!   for paper-vs-measured comparison,
//! * [`report`] — paper-style text tables, CSV output, atomic writes.
//!
//! Run `cargo run --release -p occache-experiments --bin all` to regenerate
//! everything into `results/`; `--bin all -- table7 fig1` regenerates the
//! named artifacts ([`runs::ARTIFACTS`] lists them). `OCCACHE_REFS`
//! shortens traces for quick runs (default: the paper's 1 million
//! references).

pub mod buffers;
pub mod characterize;
pub mod checkpoint;
pub mod extensions;
pub mod manifest;
pub mod paper;
pub mod plot;
pub mod report;
pub mod run_report;
pub mod runs;
pub mod sweep;
pub mod verify;
