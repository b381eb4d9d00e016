//! End-to-end and per-layer benchmark for the TWiCe reproduction.
//!
//! The `twice-perfbench` binary runs one workload per process, untraced
//! for the end-to-end metrics or traced for the per-layer split; see
//! `README.md` next to this package for the metrics and workloads.

pub mod cells;
pub mod cpuclock;
pub mod timed;
pub mod tracer;
