//! Simulated stand-ins for the paper's four real-world datasets (§VII-A).
//!
//! The originals are Kaggle downloads an offline build cannot fetch; as
//! README "Deviations from the paper" records, each generator reproduces
//! every statistic the paper reports (user counts, class structure,
//! domain sizes, skew, global-item overlap) so the LDP pipelines exercise
//! the same code paths and exhibit the same utility orderings. All
//! generators are seed-deterministic.

use mcim_core::{Domains, LabelItem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::{Dataset, GroupedDataset};
use crate::distributions::{normal, Categorical, Zipf};

/// Scale knob shared by the real-world-like generators: `users` is the
/// total population before feature partitioning, `items` caps large item
/// domains (Anime/JD), `seed` fixes the generation.
#[derive(Debug, Clone, Copy)]
pub struct RealConfig {
    /// Total number of users.
    pub users: usize,
    /// Item-domain cap for the large-domain datasets.
    pub items: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RealConfig {
    fn default() -> Self {
        RealConfig {
            users: 200_000,
            items: 2048,
            seed: 0xDA7A,
        }
    }
}

/// Feature domains of the Diabetes-like dataset: 8 features, largest ≈ 600
/// (the paper: "eight features … the largest feature domain containing
/// about 600 items").
pub const DIABETES_FEATURE_DOMAINS: [u32; 8] = [2, 10, 21, 43, 86, 171, 342, 600];

/// Simulated *Comprehensive Diabetes Clinical Dataset*: binary diabetes
/// label (≈8.5% positive), 8 feature groups; each user contributes the
/// (label, feature-value) pair of her assigned feature. Feature values are
/// discretized normals whose mean shifts with the label, mimicking
/// clinical measurements.
pub fn diabetes_like(config: RealConfig) -> GroupedDataset {
    feature_dataset(
        "Diabetes",
        &DIABETES_FEATURE_DOMAINS,
        0.085,
        config.users,
        config.seed,
    )
}

/// Feature domains of the Heart-Disease-like dataset: 21 categorical
/// features with maximum domain 84 (paper: "21 categorical features, with
/// the largest item domain being 84").
pub const HEART_FEATURE_DOMAINS: [u32; 21] = [
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 5, 6, 6, 13, 14, 30, 31, 84,
];

/// Simulated *Heart Disease Health Indicators* (BRFSS 2015): binary label
/// (≈9.4% positive), 21 feature groups.
pub fn heart_like(config: RealConfig) -> GroupedDataset {
    feature_dataset(
        "HeartDisease",
        &HEART_FEATURE_DOMAINS,
        0.094,
        config.users,
        config.seed,
    )
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
fn random_permutation(n: u32, rng: &mut StdRng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n).collect();
    for i in (1..p.len()).rev() {
        let j = rng.random_range(0..=i);
        p.swap(i, j);
    }
    p
}

fn feature_dataset(
    name: &str,
    feature_domains: &[u32],
    positive_rate: f64,
    users: usize,
    seed: u64,
) -> GroupedDataset {
    // mcim-lint: allow(rng-discipline, generator stream seeded from the caller's explicit seed parameter; not a privatization stage)
    let mut rng = StdRng::seed_from_u64(seed);
    let per_group = users / feature_domains.len();
    let mut groups = Vec::with_capacity(feature_domains.len());
    for (fi, &d) in feature_domains.iter().enumerate() {
        let domains = Domains::of(2, d);
        // Label-dependent discretized normal over the feature values:
        // positives shift ~0.8σ upward (clinical signal).
        let mean_neg = d as f64 * 0.45;
        let mean_pos = d as f64 * 0.62;
        let std = (d as f64 * 0.18).max(0.5);
        let mut pairs = Vec::with_capacity(per_group);
        for _ in 0..per_group {
            let label = u32::from(rng.random_bool(positive_rate));
            let mean = if label == 1 { mean_pos } else { mean_neg };
            let value = normal(mean, std, &mut rng)
                .round()
                .clamp(0.0, d as f64 - 1.0) as u32;
            pairs.push(LabelItem::new(label, value));
        }
        groups.push(Dataset::pre_validated(
            format!("{name}/feature{fi}(d={d})"),
            domains,
            pairs,
        ));
    }
    GroupedDataset {
        name: name.to_string(),
        groups,
    }
}

/// Simulated *MyAnimeList*: 2 gender classes (≈58/42 split), large title
/// domain, Zipf popularity (s = 1.1) with a **shared global ranking** —
/// both genders watch largely the same top titles, with mild per-class
/// rank jitter. This is the high-overlap regime where the paper's
/// globally-frequent-candidate optimization shines (§VII-E).
pub fn anime_like(config: RealConfig) -> Dataset {
    let RealConfig { users, items, seed } = config;
    let domains = Domains::of(2, items);
    // mcim-lint: allow(rng-discipline, generator stream seeded from the caller's explicit seed parameter; not a privatization stage)
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(0.85, items);
    // Item ids carry no popularity information: ranks map to ids through a
    // global random permutation (real catalog ids are arbitrary). Per-class
    // jitter then reorders a few head ranks so the classes' top lists
    // differ in order but overlap heavily in membership.
    let base = random_permutation(items, &mut rng);
    let mappings: Vec<Vec<u32>> = (0..2)
        .map(|_| {
            let mut m = base.clone();
            let head = (items as usize / 32).clamp(4, 16);
            for r in 0..head / 2 {
                let other = rng.random_range(0..head);
                m.swap(r, other);
            }
            m
        })
        .collect();
    let mut pairs = Vec::with_capacity(users);
    for _ in 0..users {
        let label = u32::from(!rng.random_bool(0.58));
        let rank = zipf.sample(&mut rng);
        pairs.push(LabelItem::new(
            label,
            mappings[label as usize][rank as usize],
        ));
    }
    let mut ds = Dataset::pre_validated("Anime", domains, pairs);
    ds.shuffle(&mut rng);
    ds
}

/// The paper's per-class record counts for the JD dataset
/// (850k / 4M / 3M / 314k / 170k), used as class-weight proportions.
pub const JD_CLASS_WEIGHTS: [f64; 5] = [850_000.0, 4_000_000.0, 3_000_000.0, 314_000.0, 170_000.0];

/// Simulated *JD Contest* sale records: 5 age-group classes with the
/// paper's heavily imbalanced sizes, Zipf item popularity (s = 1.05) over a
/// shared global ranking plus small per-class preference jitter. Classes 4
/// and 5 are tiny — the regime where PTJ "fails to produce results"
/// (Fig. 8) while PTS recovers via global candidates.
pub fn jd_like(config: RealConfig) -> Dataset {
    let RealConfig { users, items, seed } = config;
    let domains = Domains::of(5, items);
    // mcim-lint: allow(rng-discipline, generator stream seeded from the caller's explicit seed parameter; not a privatization stage)
    let mut rng = StdRng::seed_from_u64(seed);
    let class_dist = Categorical::new(&JD_CLASS_WEIGHTS);
    let zipf = Zipf::new(0.9, items);
    // Ranks map to ids through a global random permutation (ids carry no
    // popularity signal); age groups get a somewhat stronger head jitter
    // than the anime genders — distinct but overlapping preferences.
    let base = random_permutation(items, &mut rng);
    let mappings: Vec<Vec<u32>> = (0..5)
        .map(|_| {
            let mut m = base.clone();
            let head = (items as usize / 16).clamp(8, 64);
            for r in 0..head / 2 {
                let other = rng.random_range(0..head);
                m.swap(r, other);
            }
            m
        })
        .collect();
    let mut pairs = Vec::with_capacity(users);
    for _ in 0..users {
        let label = class_dist.sample(&mut rng);
        let rank = zipf.sample(&mut rng);
        pairs.push(LabelItem::new(
            label,
            mappings[label as usize][rank as usize],
        ));
    }
    let mut ds = Dataset::pre_validated("JD", domains, pairs);
    ds.shuffle(&mut rng);
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn diabetes_structure_matches_paper() {
        let ds = diabetes_like(RealConfig {
            users: 80_000,
            items: 0, // unused by feature datasets
            seed: 1,
        });
        assert_eq!(ds.groups.len(), 8);
        assert_eq!(ds.groups.last().unwrap().domains.items(), 600);
        // Positive rate near the configured prevalence in each group.
        for g in &ds.groups {
            let sizes = g.class_sizes();
            let rate = sizes[1] as f64 / g.len() as f64;
            assert!((rate - 0.085).abs() < 0.02, "{}: rate {rate}", g.name);
        }
    }

    #[test]
    fn heart_has_21_features_max_domain_84() {
        let ds = heart_like(RealConfig {
            users: 42_000,
            items: 0,
            seed: 2,
        });
        assert_eq!(ds.groups.len(), 21);
        let max_d = ds.groups.iter().map(|g| g.domains.items()).max().unwrap();
        assert_eq!(max_d, 84);
    }

    #[test]
    fn label_shifts_feature_distribution() {
        // The diabetes signal: positives should have a higher mean value.
        let ds = diabetes_like(RealConfig {
            users: 160_000,
            items: 0,
            seed: 3,
        });
        let g = &ds.groups[7]; // largest domain
        let (mut sum_pos, mut n_pos, mut sum_neg, mut n_neg) = (0.0, 0.0, 0.0, 0.0);
        for p in &g.pairs {
            if p.label == 1 {
                sum_pos += p.item as f64;
                n_pos += 1.0;
            } else {
                sum_neg += p.item as f64;
                n_neg += 1.0;
            }
        }
        assert!(sum_pos / n_pos > sum_neg / n_neg + 50.0);
    }

    #[test]
    fn anime_classes_share_top_titles() {
        let ds = anime_like(RealConfig {
            users: 120_000,
            items: 512,
            seed: 4,
        });
        let tops = ds.true_top_k(20);
        let a: HashSet<u32> = tops[0].iter().copied().collect();
        let overlap = tops[1].iter().filter(|i| a.contains(i)).count();
        assert!(
            overlap >= 12,
            "genders should share top titles, got {overlap}"
        );
        let sizes = ds.class_sizes();
        let rate = sizes[0] as f64 / ds.len() as f64;
        assert!((rate - 0.58).abs() < 0.02, "gender split {rate}");
    }

    #[test]
    fn jd_class_imbalance_matches_paper_proportions() {
        let ds = jd_like(RealConfig {
            users: 300_000,
            items: 512,
            seed: 5,
        });
        let sizes = ds.class_sizes();
        let total: u64 = sizes.iter().sum();
        let weight_total: f64 = JD_CLASS_WEIGHTS.iter().sum();
        for (c, &w) in JD_CLASS_WEIGHTS.iter().enumerate() {
            let expected = w / weight_total;
            let actual = sizes[c] as f64 / total as f64;
            assert!(
                (actual - expected).abs() < 0.01,
                "class {c}: {actual} vs {expected}"
            );
        }
        // Classes 2 and 3 dominate; classes 4 and 5 are tiny (Fig. 8 setup).
        assert!(sizes[1] > 10 * sizes[4]);
    }

    #[test]
    fn generators_are_deterministic() {
        let cfg = RealConfig {
            users: 10_000,
            items: 256,
            seed: 9,
        };
        assert_eq!(anime_like(cfg).pairs, anime_like(cfg).pairs);
        assert_eq!(jd_like(cfg).pairs, jd_like(cfg).pairs);
    }
}
