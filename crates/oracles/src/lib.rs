//! # mcim-oracles
//!
//! Frequency-oracle substrate for *Multi-class Item Mining under Local
//! Differential Privacy* (ICDE 2025).
//!
//! This crate provides the single-value LDP mechanisms the paper builds on
//! (§II-B and the references therein), implemented from scratch:
//!
//! * [`Grr`] — Generalized Random Response over a categorical domain.
//! * [`UnaryEncoding`] — unary (one-hot) encoding with symmetric (SUE) or
//!   optimized (OUE) flip probabilities.
//! * [`Oracle::adaptive`] — the adaptive GRR/OUE selection rule of Wang et
//!   al. (USENIX Security '17), used throughout the paper's experiments.
//!
//! plus the shared plumbing every layer above needs:
//!
//! * [`Eps`] — validated privacy budgets with splitting (sequential
//!   composition),
//! * [`BitVec`] — packed bit vectors with geometric-skipping Bernoulli fill,
//! * [`hash`] — the `splitmix64` mixer behind the shard seeds and a
//!   deterministic [`hash::SplitMix64`] RNG used for reproducible shuffles,
//! * [`calibrate`] — unbiased count calibration and analytic variances,
//! * [`colsum`] — word-parallel (bit-sliced) column sums for block
//!   aggregation of unary-encoding reports,
//! * [`parallel`] — fixed-size sharding with deterministic per-shard RNG
//!   streams: `threads = N` is bit-identical to `threads = 1`,
//! * [`stream`] — bounded-memory chunked ingestion over pull-based
//!   [`stream::ReportSource`]s, bit-identical to a sequential shard scan
//!   for every chunk size and thread count,
//! * [`exec`] — declarative [`Exec`] execution plans (seed / threads /
//!   chunk), serializable [`exec::Stage`] fold objects, and the
//!   [`Executor`] backend trait every pipeline's `execute` entry point
//!   runs on ([`InProcess`] here; the multi-process `Coordinator` in
//!   `mcim-dist`),
//! * [`wire`] — hand-rolled byte codecs ([`wire::Wire`] items,
//!   [`wire::WireState`] accumulator partials, [`wire::StageSpec`] stage
//!   descriptors) the distributed reducer moves between processes.
//!
//! ## Example
//!
//! ```
//! use mcim_oracles::{Eps, Oracle, Aggregator};
//! use rand::SeedableRng;
//!
//! let eps = Eps::new(1.0).unwrap();
//! let d = 64;
//! let oracle = Oracle::adaptive(eps, d).unwrap(); // picks OUE here
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//!
//! // 10_000 users, 60% hold item 3, the rest item 11.
//! let mut agg = Aggregator::new(&oracle);
//! for u in 0..10_000u32 {
//!     let item = if u % 5 < 3 { 3 } else { 11 };
//!     agg.absorb(&oracle.privatize(item, &mut rng).unwrap()).unwrap();
//! }
//! let est = agg.estimate();
//! assert!((est[3] - 6000.0).abs() < 500.0);
//! assert!((est[11] - 4000.0).abs() < 500.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitvec;
mod budget;
mod error;
mod grr;
mod oracle;
mod ue;

pub mod calibrate;
pub mod colsum;
pub mod exec;
pub mod hash;
pub mod parallel;
pub mod stream;
pub mod wire;

pub use bitvec::{BitVec, WORDWISE_STEPS};
pub use budget::Eps;
pub use colsum::ColumnCounter;
pub use error::Error;
pub use exec::{Exec, Executor, FoldReport, InProcess};
pub use grr::Grr;
pub use oracle::{AbsorbBlock, Aggregator, Oracle, Report};
pub use ue::UnaryEncoding;

/// Convenience result alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;
