//! The paper's synthetic datasets SYN1–SYN4 (§VII-A).
//!
//! * **SYN1 / SYN2** — 4 classes × 4 items with exactly controlled pair
//!   counts, for the empirical variance analysis of Fig. 5.
//! * **SYN3 / SYN4** — large-domain top-k workloads with 10–50 classes,
//!   normal class sizes and exponential within-class item ranks; SYN3
//!   plants globally frequent items (≈8 overlapping titles among any two
//!   classes' top-20), SYN4 does not.
//!
//! All generators take an explicit `scale` so benches can run a laptop-size
//! configuration by default and the paper's full size on demand (the
//! `MCIM_SCALE` knob of the `mcim-bench` targets).

use mcim_core::{Domains, LabelItem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::distributions::{normal, ExpRank};

/// The paper's pair-count levels for SYN1: 10³..10⁶ (scaled).
pub const SYN1_LEVELS: [f64; 4] = [1e3, 1e4, 1e5, 1e6];

/// The paper's class sizes for SYN2 (scaled).
pub const SYN2_CLASS_SIZES: [f64; 4] = [1.3e4, 2.11e5, 1.21e6, 3.01e6];

/// SYN1: 4 classes × 4 items; class `c` assigns item `i` the count
/// `SYN1_LEVELS[(i + c) % 4]·scale` (a Latin square), so every class total
/// and every global item total equals `1.111e6·scale` while the pair counts
/// span three orders of magnitude — exactly the "fix f(I) = n, vary
/// f(C, I)" setup of Fig. 5(a).
pub fn syn1(scale: f64, seed: u64) -> Dataset {
    assert!(scale > 0.0, "scale must be positive");
    let domains = Domains::of(4, 4);
    let mut pairs = Vec::new();
    for class in 0..4u32 {
        for item in 0..4u32 {
            let count = (SYN1_LEVELS[((item + class) % 4) as usize] * scale).round() as usize;
            pairs.extend(std::iter::repeat_n(LabelItem::new(class, item), count));
        }
    }
    let mut ds = Dataset::pre_validated("SYN1", domains, pairs);
    // mcim-lint: allow(rng-discipline, generator stream seeded from the caller's explicit seed parameter; not a privatization stage)
    ds.shuffle(&mut StdRng::seed_from_u64(seed));
    ds
}

/// SYN2: 4 classes × 4 items; every class holds the target item 0 with the
/// same count `10⁴·scale`, while class sizes vary over
/// [`SYN2_CLASS_SIZES`]·scale (the remainder spread over items 1–3) — the
/// "fix f(C, I), vary n" setup of Fig. 5(b).
pub fn syn2(scale: f64, seed: u64) -> Dataset {
    assert!(scale > 0.0, "scale must be positive");
    let domains = Domains::of(4, 4);
    let target = (1e4 * scale).round() as usize;
    let mut pairs = Vec::new();
    for class in 0..4u32 {
        pairs.extend(std::iter::repeat_n(LabelItem::new(class, 0), target));
        let rest = (SYN2_CLASS_SIZES[class as usize] * scale).round() as usize - target;
        for i in 0..rest {
            pairs.push(LabelItem::new(class, 1 + (i % 3) as u32));
        }
    }
    let mut ds = Dataset::pre_validated("SYN2", domains, pairs);
    // mcim-lint: allow(rng-discipline, generator stream seeded from the caller's explicit seed parameter; not a privatization stage)
    ds.shuffle(&mut StdRng::seed_from_u64(seed));
    ds
}

/// Configuration for SYN3/SYN4.
#[derive(Debug, Clone, Copy)]
pub struct SynLargeConfig {
    /// Number of classes (the paper sweeps 10–50).
    pub classes: u32,
    /// Item domain size (paper: 20,000).
    pub items: u32,
    /// Total users (paper: 5,000,000).
    pub users: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynLargeConfig {
    /// Laptop-scale default; the paper-scale values are 20k items / 5M users.
    fn default() -> Self {
        SynLargeConfig {
            classes: 10,
            items: 2048,
            users: 200_000,
            seed: 0x5E3D,
        }
    }
}

/// Size of the globally-frequent pool planted by SYN3.
const GLOBAL_POOL: usize = 12;
/// How many pool items each class pulls into its head ranks.
const POOL_PER_CLASS: usize = 10;

/// SYN3: with globally frequent items. Each class's rank→item mapping puts
/// 10 of a shared 12-item pool into its top-20 ranks (expected pairwise
/// top-20 overlap = 10·10/12 ≈ 8.3, the paper's "average of eight
/// overlapping items"), then fills the remainder with a class-specific
/// permutation. Class sizes are normal; within-class ranks are exponential
/// with per-class scale drawn from [0.01, 0.1].
pub fn syn3(config: SynLargeConfig) -> Dataset {
    generate_large("SYN3", config, true)
}

/// SYN4: same construction but **without** the shared pool — every class
/// draws its items from its own independent permutation, so classwise top
/// items almost never coincide.
pub fn syn4(config: SynLargeConfig) -> Dataset {
    generate_large("SYN4", config, false)
}

fn generate_large(name: &str, config: SynLargeConfig, global_pool: bool) -> Dataset {
    let SynLargeConfig {
        classes,
        items,
        users,
        seed,
    } = config;
    assert!(
        classes >= 1 && items as usize > GLOBAL_POOL * 2,
        "domain too small"
    );
    let domains = Domains::of(classes, items);
    // mcim-lint: allow(rng-discipline, generator stream seeded from the caller's explicit seed parameter; not a privatization stage)
    let mut rng = StdRng::seed_from_u64(seed);

    // Class sizes ~ Normal(N/c, N/(4c)), clipped to ≥ 1% of the mean, then
    // renormalized to sum to N ("the data size of each class satisfies the
    // normal distribution").
    let mean = users as f64 / classes as f64;
    let mut sizes: Vec<f64> = (0..classes)
        .map(|_| normal(mean, mean / 4.0, &mut rng).max(mean * 0.01))
        .collect();
    let total: f64 = sizes.iter().sum();
    for s in &mut sizes {
        *s = *s / total * users as f64;
    }

    // The shared pool (SYN3 only): GLOBAL_POOL random item ids — ids must
    // carry no popularity signal, or bit-prefix miners get an unrealistic
    // subtree-aggregation advantage.
    let mut id_perm: Vec<u32> = (0..items).collect();
    for i in (1..id_perm.len()).rev() {
        let j = rng.random_range(0..=i);
        id_perm.swap(i, j);
    }
    let pool: Vec<u32> = id_perm[..GLOBAL_POOL].to_vec();
    let non_pool: Vec<u32> = id_perm[GLOBAL_POOL..].to_vec();

    let mut pairs = Vec::with_capacity(users);
    for class in 0..classes {
        // Per-class rank→item mapping.
        let mut mapping: Vec<u32> = if global_pool {
            // Choose POOL_PER_CLASS pool items for the head ranks; the
            // unchosen pool items sink into the tail so the mapping stays a
            // complete permutation of the item domain.
            let mut shuffled_pool = pool.clone();
            for i in (1..shuffled_pool.len()).rev() {
                let j = rng.random_range(0..=i);
                shuffled_pool.swap(i, j);
            }
            let unchosen: Vec<u32> = shuffled_pool.split_off(POOL_PER_CLASS);
            let chosen = shuffled_pool;
            // A shuffled class-specific tail over the remaining ids.
            let mut tail: Vec<u32> = non_pool.clone();
            tail.extend(unchosen);
            for i in (1..tail.len()).rev() {
                let j = rng.random_range(0..=i);
                tail.swap(i, j);
            }
            // Interleave pool items among the first ~2·POOL_PER_CLASS ranks
            // so class-specific items also reach the head.
            let mut head: Vec<u32> = chosen;
            head.extend(tail.iter().take(POOL_PER_CLASS).copied());
            for i in (1..head.len()).rev() {
                let j = rng.random_range(0..=i);
                head.swap(i, j);
            }
            head.extend(tail.into_iter().skip(POOL_PER_CLASS));
            head
        } else {
            let mut all: Vec<u32> = (0..items).collect();
            for i in (1..all.len()).rev() {
                let j = rng.random_range(0..=i);
                all.swap(i, j);
            }
            all
        };
        mapping.truncate(items as usize);

        // Within-class rank distribution: exponential, scale ∈ [0.01, 0.1].
        let beta = rng.random_range(0.01..0.1);
        let dist = ExpRank::new(beta, items);
        let size = sizes[class as usize].round() as usize;
        for _ in 0..size {
            let rank = dist.sample(&mut rng);
            pairs.push(LabelItem::new(class, mapping[rank as usize]));
        }
    }
    let mut ds = Dataset::pre_validated(name, domains, pairs);
    ds.shuffle(&mut rng);
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn syn1_latin_square_structure() {
        let ds = syn1(0.01, 1);
        let t = ds.ground_truth();
        // Every class total and item total = 1.111e6 · 0.01 = 11,110.
        for c in 0..4 {
            assert!((t.class_total(c) - 11_110.0).abs() < 2.0, "class {c}");
        }
        for i in 0..4 {
            assert!((t.item_total(i) - 11_110.0).abs() < 2.0, "item {i}");
        }
        // Pair counts hit the four levels.
        let mut levels: Vec<f64> = (0..4).map(|i| t.get(0, i)).collect();
        levels.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(levels, vec![10.0, 100.0, 1_000.0, 10_000.0]);
    }

    #[test]
    fn syn2_fixed_pair_varying_class() {
        let ds = syn2(0.01, 2);
        let t = ds.ground_truth();
        for c in 0..4 {
            assert_eq!(t.get(c, 0), 100.0, "f(C, 0) fixed at 10⁴·scale");
        }
        let sizes = ds.class_sizes();
        assert_eq!(sizes[0], 130);
        assert_eq!(sizes[1], 2_110);
        assert_eq!(sizes[2], 12_100);
        assert_eq!(sizes[3], 30_100);
    }

    #[test]
    fn syn3_has_global_overlap_syn4_does_not() {
        let config = SynLargeConfig {
            classes: 6,
            items: 512,
            users: 60_000,
            seed: 3,
        };
        let overlap = |ds: &Dataset| {
            let tops = ds.true_top_k(20);
            let mut total = 0usize;
            let mut pairs = 0usize;
            for a in 0..tops.len() {
                for b in a + 1..tops.len() {
                    let sa: HashSet<u32> = tops[a].iter().copied().collect();
                    total += tops[b].iter().filter(|i| sa.contains(i)).count();
                    pairs += 1;
                }
            }
            total as f64 / pairs as f64
        };
        let o3 = overlap(&syn3(config));
        let o4 = overlap(&syn4(config));
        assert!(o3 > 5.0, "SYN3 mean top-20 overlap {o3} should be ≈8");
        assert!(o4 < 2.0, "SYN4 mean top-20 overlap {o4} should be ≈0");
    }

    #[test]
    fn syn3_class_sizes_sum_to_n() {
        let config = SynLargeConfig {
            classes: 10,
            items: 256,
            users: 50_000,
            seed: 4,
        };
        let ds = syn3(config);
        let total: u64 = ds.class_sizes().iter().sum();
        assert!((total as i64 - 50_000).unsigned_abs() < 20, "total {total}");
        assert_eq!(ds.domains.classes(), 10);
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let a = syn1(0.001, 7);
        let b = syn1(0.001, 7);
        assert_eq!(a.pairs, b.pairs);
        let c = syn1(0.001, 8);
        assert_ne!(a.pairs, c.pairs);
    }

    #[test]
    fn within_class_distribution_is_skewed() {
        let ds = syn4(SynLargeConfig {
            classes: 2,
            items: 512,
            users: 40_000,
            seed: 5,
        });
        let t = ds.ground_truth();
        for c in 0..2 {
            let top = t.top_k(c, 1)[0];
            let n_c = t.class_total(c);
            assert!(
                t.get(c, top) > 0.008 * n_c,
                "head item should dominate: {} of {n_c}",
                t.get(c, top)
            );
        }
    }
}
