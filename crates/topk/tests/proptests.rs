//! Property-based tests for the top-k mining crate.

use mcim_core::{Domains, LabelItem};
use mcim_oracles::exec::Exec;
use mcim_oracles::stream::SliceSource;
use mcim_oracles::Eps;
use mcim_topk::{
    execute, replay, shuffle::bucket_of, PemConfig, PemEngine, ShuffleEngine, TopKConfig,
    TopKMethod,
};
use proptest::prelude::*;

proptest! {
    /// Bucket assignment is a balanced partition for any (n, buckets).
    #[test]
    fn bucket_partition_is_balanced(n in 1usize..2_000, buckets in 1usize..64) {
        let buckets = buckets.min(n);
        let mut sizes = vec![0usize; buckets];
        for pos in 0..n {
            let b = bucket_of(pos, n, buckets);
            prop_assert!(b < buckets);
            sizes[b] += 1;
        }
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1, "unbalanced: {sizes:?}");
        prop_assert_eq!(sizes.iter().sum::<usize>(), n);
    }

    /// Client-side replay always reconstructs the server's candidate set,
    /// for arbitrary seeds, bucket counts and survival patterns.
    #[test]
    fn replay_equals_server(
        seeds in prop::collection::vec(any::<u64>(), 1..5),
        domain in 8u32..300,
        buckets in 2usize..32,
        keep_frac in 0.2f64..0.9,
    ) {
        let initial: Vec<u32> = (0..domain).collect();
        let mut engine = ShuffleEngine::new(initial.clone());
        for &seed in &seeds {
            if engine.candidates().is_empty() {
                break;
            }
            let view = engine.begin_round(seed, buckets);
            let b = view.buckets();
            let keep = ((b as f64 * keep_frac) as usize).max(1);
            let scores: Vec<f64> = (0..b).map(|i| (seed.wrapping_add(i as u64) % 97) as f64).collect();
            engine.complete_round(&view, &scores, keep);
            prop_assert_eq!(replay(&initial, engine.rounds()), engine.candidates());
        }
    }

    /// PEM round counts shrink by one per round and candidates never leave
    /// the domain.
    #[test]
    fn pem_round_accounting(d in 2u32..1_000, k in 1usize..20, seed in any::<u64>()) {
        let mut engine = PemEngine::new(d, PemConfig::new(k)).unwrap();
        let mut remaining = engine.remaining_rounds();
        let mut round_seed = seed;
        prop_assert!(remaining >= 1);
        while remaining > 0 {
            let inputs: Vec<Option<u32>> = (0..50).map(|i| Some(i % d)).collect();
            engine
                .execute_round(
                    Eps::new(2.0).unwrap(),
                    &Exec::seeded(round_seed).threads(1),
                    SliceSource::new(&inputs),
                )
                .unwrap();
            round_seed = round_seed.wrapping_add(1);
            let now = engine.remaining_rounds();
            prop_assert_eq!(now, remaining - 1);
            remaining = now;
        }
        let top = engine.top_items().unwrap();
        prop_assert!(top.len() <= k);
        for &item in &top {
            prop_assert!(item < d);
        }
    }

    /// Every mining method returns per-class lists bounded by k with
    /// in-domain items, for arbitrary small datasets.
    #[test]
    fn mining_output_shape(
        seed in any::<u64>(),
        c in 2u32..5,
        d in 16u32..128,
        n in 200usize..1_000,
        k in 1usize..6,
    ) {
        let domains = Domains::new(c, d).unwrap();
        let data: Vec<LabelItem> = (0..n)
            .map(|u| LabelItem::new((u as u32) % c, (u as u32 * 7919) % d))
            .collect();
        let config = TopKConfig::new(k, Eps::new(2.0).unwrap());
        for (i, method) in [
            TopKMethod::Hec,
            TopKMethod::PtjPem { validity: true },
            TopKMethod::PtsShuffled { validity: true, global: true, correlated: true },
        ]
        .into_iter()
        .enumerate()
        {
            let plan = Exec::seeded(seed.wrapping_add(i as u64)).threads(1);
            let result = execute(method, config, domains, &plan, SliceSource::new(&data)).unwrap();
            prop_assert_eq!(result.per_class.len(), c as usize);
            for items in &result.per_class {
                prop_assert!(items.len() <= k);
                let unique: std::collections::HashSet<_> = items.iter().collect();
                prop_assert_eq!(unique.len(), items.len(), "duplicates in {:?}", items);
                for &i in items {
                    prop_assert!(i < d);
                }
            }
        }
    }

    /// Total rounds formula is monotone: bigger domains need ≥ rounds.
    #[test]
    fn rounds_monotone_in_domain(k in 1usize..50) {
        let mut prev = 0;
        for d in [16usize, 64, 256, 1024, 4096, 16384] {
            let r = ShuffleEngine::total_rounds(d, k);
            prop_assert!(r >= prev);
            prev = r;
        }
    }
}
