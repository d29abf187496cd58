//! Layered end-to-end benchmark for the PAMA cache.
//!
//! Three closed-loop workloads, each putting a different layer on the
//! critical path (see `README.md` for the full record):
//!
//! * [`app_evict`] — core and slab: evictions and slab transfers run
//!   through the whole timed phase;
//! * [`hot_read`] — the kv read path: shared-lock hits under contention;
//! * [`wire_mix`] — the server: pipelined Memcached bursts to `pamad`.
//!
//! Inputs are generated from the seed by each workload's
//! `Inputs::generate`; the measured code receives only those inputs.
//! Untraced runs report the end-to-end metrics; traced runs report the
//! per-layer ones, read from timers around the calls into each layer
//! and from the program's own counters.

#![warn(missing_docs)]

pub mod app_evict;
pub mod child;
pub mod common;
pub mod hot_read;
pub mod values;
pub mod wire_mix;
