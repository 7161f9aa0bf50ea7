#![warn(missing_docs)]

//! Address-trace substrate for the `occache` cache-simulation workspace.
//!
//! Hill & Smith's 1984 study is *trace driven*: every experiment consumes a
//! stream of memory references. This crate provides the building blocks that
//! the rest of the workspace shares:
//!
//! * [`MemRef`], [`Address`] and [`AccessKind`] — the trace record types,
//! * [`PackedTrace`] — a compact delta-encoded reference buffer shared
//!   across sweep workers ([`packed`]),
//! * [`ChunkRead`] and [`RefChunk`] — reading a stream in bulk, a chunk
//!   of decoded references at a time ([`chunk`]),
//! * the [`TraceSource`] abstraction plus combinators ([`stream`]),
//! * a `dinero`-style text format for persisting traces ([`io`]),
//! * a fault-injecting reader for hardening tests ([`fault`]),
//! * locality statistics used to characterise traces ([`stats`]),
//! * deterministic sampling utilities (Zipf, geometric) used by the synthetic
//!   workload generators ([`sample`]).
//!
//! # Example
//!
//! ```
//! use occache_trace::{AccessKind, Address, MemRef, TraceSource};
//!
//! // A trace is anything that yields `MemRef`s; a vector works out of the box.
//! let refs = vec![
//!     MemRef::new(Address::new(0x100), AccessKind::InstrFetch),
//!     MemRef::new(Address::new(0x8000), AccessKind::DataRead),
//! ];
//! let mut source = refs.into_iter();
//! assert_eq!(source.next_ref().unwrap().address().value(), 0x100);
//! ```

pub mod chunk;
pub mod din;
pub mod fault;
mod hash;
pub mod io;
pub mod packed;
pub mod record;
pub mod sample;
pub mod stats;
pub mod stream;
pub mod workingset;

pub use chunk::{ChunkIter, ChunkRead, RefChunk};
pub use packed::PackedTrace;
pub use record::{AccessKind, Address, MemRef};
pub use stats::TraceStats;
pub use stream::TraceSource;
pub use workingset::WorkingSetCurve;
