//! # mcim-datasets
//!
//! Dataset generators for the paper's evaluation (§VII-A): the exact
//! synthetic constructions SYN1–SYN4 and seeded simulations of the four
//! Kaggle datasets (Diabetes, Heart Disease, MyAnimeList, JD Contest) whose
//! originals an offline build cannot download — see README "Deviations
//! from the paper" for the substitution and the statistics each
//! simulation preserves.
//!
//! ```
//! use mcim_datasets::{synthetic, SynLargeConfig};
//!
//! let ds = synthetic::syn3(SynLargeConfig { classes: 5, items: 256, users: 10_000, seed: 1 });
//! assert_eq!(ds.domains.classes(), 5);
//! assert_eq!(ds.len(), ds.pairs.len());
//! let top = ds.true_top_k(10);
//! assert_eq!(top.len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
pub mod distributions;
pub mod realworld;
pub mod sources;
pub mod synthetic;

pub use dataset::{Dataset, GroupedDataset};
pub use realworld::{anime_like, diabetes_like, heart_like, jd_like, RealConfig};
pub use sources::{CsvPairSource, NdjsonPairSource, SyntheticPairSource, SyntheticSourceConfig};
pub use synthetic::{syn1, syn2, syn3, syn4, SynLargeConfig};
