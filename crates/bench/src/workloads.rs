//! Scale-aware dataset construction and shared top-k evaluation used by the
//! figure/table benchmark targets.

use mcim_datasets::{anime_like, jd_like, Dataset, RealConfig, SynLargeConfig};
use mcim_oracles::exec::Exec;
use mcim_oracles::stream::SliceSource;
use mcim_topk::{execute, TopKConfig, TopKMethod};

use crate::{mean, run_trials, Scale};

/// The Anime-like workload (Fig. 7a/b, Table III, Fig. 12).
pub fn anime(scale: Scale) -> Dataset {
    let config = match scale {
        Scale::Small => RealConfig {
            users: 200_000,
            items: 4096,
            seed: 0xA117E,
        },
        Scale::Paper => RealConfig {
            users: 7_000_000,
            items: 14_000,
            seed: 0xA117E,
        },
    };
    anime_like(config)
}

/// The JD-like workload (Fig. 7c/d, Fig. 8, Fig. 9, Fig. 12).
pub fn jd(scale: Scale) -> Dataset {
    let config = match scale {
        Scale::Small => RealConfig {
            users: 300_000,
            items: 2048,
            seed: 0x1D,
        },
        Scale::Paper => RealConfig {
            users: 9_000_000,
            items: 28_000,
            seed: 0x1D,
        },
    };
    jd_like(config)
}

/// SYN3/SYN4 configuration for a class count (Fig. 10, Fig. 11).
pub fn syn_config(scale: Scale, classes: u32) -> SynLargeConfig {
    match scale {
        Scale::Small => SynLargeConfig {
            classes,
            items: 2048,
            users: 200_000,
            seed: 0x5E3D,
        },
        Scale::Paper => SynLargeConfig {
            classes,
            items: 20_000,
            users: 5_000_000,
            seed: 0x5E3D,
        },
    }
}

/// Mean F1 and NCR of a mining method over trials (averaged across classes
/// within each trial, then across trials — the paper's aggregation).
#[derive(Debug, Clone, Copy)]
pub struct TopKScores {
    /// Mean F1 across classes and trials.
    pub f1: f64,
    /// Mean NCR across classes and trials.
    pub ncr: f64,
}

/// Evaluates one method on one dataset.
pub fn evaluate_topk(
    method: TopKMethod,
    config: TopKConfig,
    ds: &Dataset,
    truth: &[Vec<u32>],
    trials: usize,
    seed_base: u64,
) -> TopKScores {
    let per_trial = run_trials(trials, |trial| {
        let plan = Exec::seeded(seed_base ^ (trial.wrapping_mul(0x9E37))).threads(1);
        let result = execute(
            method,
            config,
            ds.domains,
            &plan,
            SliceSource::new(&ds.pairs),
        )
        .expect("mining failed");
        let classes = ds.domains.classes() as usize;
        let f1 = (0..classes)
            .map(|c| mcim_metrics::f1_at_k(&result.per_class[c], &truth[c]))
            .sum::<f64>()
            / classes as f64;
        let ncr = (0..classes)
            .map(|c| mcim_metrics::ncr_at_k(&result.per_class[c], &truth[c]))
            .sum::<f64>()
            / classes as f64;
        (f1, ncr)
    });
    TopKScores {
        f1: mean(&per_trial.iter().map(|x| x.0).collect::<Vec<_>>()),
        ncr: mean(&per_trial.iter().map(|x| x.1).collect::<Vec<_>>()),
    }
}
