//! `occache-serve` — a batching, cache-fronted simulation service.
//!
//! A dependency-free (std-only) HTTP/1.1 service that evaluates cache
//! design points on demand. Clients POST JSON design points or grids
//! referencing the named workload models from `occache-workloads`; the
//! service fronts the shared worker-pool scheduler
//! (`occache_runtime::queue`) with the content-addressed point store
//! (`occache_runtime::store`) keyed by the same FNV fingerprints the
//! checkpoint journals use, so
//! any point a batch sweep already sealed to disk — or any point served
//! once — comes back without re-simulation, bit-identical to direct
//! evaluation.
//!
//! Layers, bottom up:
//!
//! * [`json`] — a minimal recursive-descent JSON parser and escaper,
//!   plus the unified structured error body both wire sides speak.
//! * [`http`] — HTTP/1.1 framing over any `Read + Write` stream, with
//!   per-connection deadlines and torn-write injection support.
//! * [`metrics`] — atomic counters and a fixed-bucket latency histogram.
//! * [`fault`] — deterministic socket/scheduler chaos injection
//!   (`OCCACHE_SERVE_FAULT`).
//! * [`breaker`] — the per-point-key circuit breaker mirroring the
//!   journal quarantine policy.
//! * [`persist`] — the write-behind result journal (crash recovery).
//! * [`peer`] — the cluster peer table: health probes, per-peer circuit
//!   breakers, and the deadline-bounded peer HTTP client.
//! * [`router`] — rendezvous-hash request routing and the thin
//!   `occache-route` front door that scatters sweeps across shards.
//! * [`service`] — routing, request handling, accept loop, graceful
//!   shutdown.

#![warn(missing_docs)]

pub mod breaker;
pub mod fault;
pub mod http;
pub mod json;
pub mod metrics;
pub mod peer;
pub mod persist;
pub mod router;
pub mod service;
