//! # mcim-perfbench
//!
//! The repository's benchmark: four pipeline workloads, end-to-end metrics
//! from untraced runs, and per-layer metrics from a separate traced run.
//! It only calls the library's public API; spans are recorded by wrappers
//! in this package around the calls into each layer. See `README.md` for
//! the workloads, metrics, bounds and commands.

// Timing is this package's whole job.
#![allow(clippy::disallowed_methods)]
#![warn(missing_docs)]

pub mod args;
pub mod bench;
pub mod compare;
pub mod json;
pub mod layers;
pub mod stats;
pub mod trace;
pub mod workloads;
