//! # mcim-core
//!
//! The primary contribution of *Multi-class Item Mining under Local
//! Differential Privacy* (ICDE 2025): frameworks and optimized perturbation
//! mechanisms for estimating **classwise** item statistics when every user
//! holds one private label-item pair.
//!
//! ## Layout
//!
//! | Paper section | Module |
//! |---|---|
//! | §II-C problem setting | [`Domains`], [`LabelItem`], [`FrequencyTable`] |
//! | §II-D HEC strawman | [`frameworks::Hec`] |
//! | §III frameworks PTJ / PTS | [`frameworks::Ptj`], [`frameworks::Pts`] |
//! | §IV-A validity perturbation | [`ValidityPerturbation`] |
//! | §IV-B correlated perturbation | [`CorrelatedPerturbation`] |
//! | §V utility analysis (Thm 4–10, Table I) | [`analysis`] |
//! | §VI-A frequency estimation (Eqs. 4, 6) | aggregator `estimate()` methods |
//!
//! ## Quick example
//!
//! ```
//! use mcim_core::{Domains, LabelItem, Framework, FrequencyTable};
//! use mcim_oracles::exec::Exec;
//! use mcim_oracles::stream::SliceSource;
//! use mcim_oracles::Eps;
//!
//! let domains = Domains::new(2, 16).unwrap();
//! // 2 classes, 16 items: class 0 buys item 3, class 1 buys item 9.
//! let data: Vec<LabelItem> = (0..50_000)
//!     .map(|u| if u % 2 == 0 { LabelItem::new(0, 3) } else { LabelItem::new(1, 9) })
//!     .collect();
//! let truth = FrequencyTable::ground_truth(domains, &data).unwrap();
//!
//! let result = Framework::PtsCp { label_frac: 0.5 }
//!     .execute(Eps::new(4.0).unwrap(), domains, &Exec::seeded(1), SliceSource::new(&data))
//!     .unwrap();
//! let err = (result.table.get(0, 3) - truth.get(0, 3)).abs();
//! assert!(err < 2_500.0, "estimate within 5% of 25k: err {err}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod correlated;
mod domain;
pub mod frameworks;
mod pair;
mod validity;

pub use correlated::{eq4_estimate, CorrelatedPerturbation};
pub use domain::{Domains, FrequencyTable, LabelItem};
pub use frameworks::{CommStats, EstimationResult, Framework};
pub use pair::{PairAggregator, PairReport};
pub use validity::{ValidityInput, ValidityPerturbation, VpAggregator};

/// Re-export of the substrate crate for downstream convenience.
pub use mcim_oracles as oracles;
