//! # multiclass-ldp
//!
//! A from-scratch Rust implementation of *Multi-class Item Mining under
//! Local Differential Privacy* (ICDE 2025): frameworks (HEC / PTJ / PTS),
//! the validity and correlated perturbation mechanisms, multi-class
//! frequency estimation and top-k item mining, plus the frequency-oracle
//! substrate, dataset generators and evaluation metrics used by the paper's
//! experiments.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! paths. See the member crates for details:
//!
//! * [`oracles`] — GRR, SUE/OUE, adaptive selection, budgets, bitvecs,
//!   and the [`Exec`](oracles::exec::Exec) execution-plan API every
//!   pipeline's `execute` entry point takes.
//! * [`core`] — domains, frameworks, validity/correlated perturbation,
//!   estimators (Eqs. 4 and 6), utility analysis (Theorems 4–10, Table I).
//! * [`topk`] — PEM, the shuffling scheme, Algorithms 1 & 2.
//! * [`dist`] — the multi-process distributed reducer: a socket-backed
//!   [`Coordinator`](dist::Coordinator) executor plus the worker runtime
//!   behind `mcim worker`, bit-identical to in-process execution.
//! * [`datasets`] — SYN1–SYN4 and simulated real-world workloads.
//! * [`metrics`] — RMSE, F1@k, NCR@k, PMI.
//! * [`obs`] — deterministic telemetry: the metrics registry, stage/fold
//!   spans behind an injectable clock, Prometheus/JSON export. Collection
//!   is off unless enabled and never changes estimates.
//!
//! ## Quickstart
//!
//! ```
//! use multiclass_ldp::prelude::*;
//!
//! // Each of 60k users holds one (class, item) pair.
//! let domains = Domains::new(2, 32)?;
//! let data: Vec<LabelItem> = (0..60_000)
//!     .map(|u| LabelItem::new((u % 2) as u32, ((u * 17) % 32) as u32))
//!     .collect();
//!
//! // Estimate every class's item histogram under ε = 2 with the paper's
//! // correlated perturbation (PTS-CP). The `Exec` plan carries the seed
//! // and the execution knobs; threads and chunk size never change the
//! // estimates, only the wall clock and memory.
//! let plan = Exec::seeded(1).threads(4);
//! let result = Framework::PtsCp { label_frac: 0.5 }
//!     .execute(Eps::new(2.0)?, domains, &plan, SliceSource::new(&data))?;
//! assert_eq!(result.table.domains().classes(), 2);
//! # Ok::<(), multiclass_ldp::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mcim_core as core;
pub use mcim_datasets as datasets;
pub use mcim_dist as dist;
pub use mcim_metrics as metrics;
pub use mcim_obs as obs;
pub use mcim_oracles as oracles;
pub use mcim_topk as topk;

pub use mcim_oracles::{Eps, Error, Result};

/// Everything a typical application needs.
pub mod prelude {
    pub use mcim_core::{
        CorrelatedPerturbation, Domains, Framework, FrequencyTable, LabelItem, PairAggregator,
        ValidityInput, ValidityPerturbation, VpAggregator,
    };
    pub use mcim_dist::Coordinator;
    pub use mcim_metrics::{f1_at_k, ncr_at_k, rmse};
    pub use mcim_oracles::exec::{Exec, Executor, InProcess};
    pub use mcim_oracles::stream::{ReportSource, SliceSource};
    pub use mcim_oracles::{
        exec, parallel, stream, Aggregator, ColumnCounter, Eps, Error, Oracle, Result,
    };
    pub use mcim_topk::{execute, execute_on, TopKConfig, TopKMethod, TopKResult};
}
