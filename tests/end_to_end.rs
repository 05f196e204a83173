//! Cross-crate integration tests: datasets → frameworks/miners → metrics,
//! through the root facade's public API only.

use multiclass_ldp::datasets::{anime_like, syn1, RealConfig};
use multiclass_ldp::prelude::*;

#[test]
fn frequency_pipeline_on_syn1() {
    // SYN1's Latin-square structure: every framework must reproduce the
    // 4-level pair counts at high ε.
    let ds = syn1(0.005, 3);
    let truth = ds.ground_truth();
    let eps = Eps::new(4.0).unwrap();
    for (i, fw) in [
        Framework::Ptj,
        Framework::Pts { label_frac: 0.5 },
        Framework::PtsCp { label_frac: 0.5 },
    ]
    .into_iter()
    .enumerate()
    {
        let plan = Exec::seeded(41 + i as u64).threads(1);
        let result = fw
            .execute(eps, ds.domains, &plan, SliceSource::new(&ds.pairs))
            .unwrap();
        let err = rmse(result.table.values(), truth.values());
        // Largest cell is 5000; a calibrated estimator at ε=4 with ~55k
        // users stays well under 10% of it.
        assert!(err < 500.0, "{}: rmse {err}", fw.name());
    }
}

#[test]
fn frequency_estimates_are_consistent_with_class_totals() {
    let ds = syn1(0.002, 4);
    let result = Framework::PtsCp { label_frac: 0.5 }
        .execute(
            Eps::new(3.0).unwrap(),
            ds.domains,
            &Exec::seeded(42).threads(1),
            SliceSource::new(&ds.pairs),
        )
        .unwrap();
    let sizes = ds.class_sizes();
    for c in 0..4u32 {
        let estimated: f64 = result.table.class_total(c);
        let true_size = sizes[c as usize] as f64;
        assert!(
            (estimated - true_size).abs() < 0.25 * true_size.max(1000.0),
            "class {c}: estimated total {estimated} vs {true_size}"
        );
    }
}

#[test]
fn topk_pipeline_through_facade() {
    let ds = anime_like(RealConfig {
        users: 60_000,
        items: 512,
        seed: 5,
    });
    let k = 10;
    let truth = ds.true_top_k(k);
    let result = execute(
        TopKMethod::PtjShuffled { validity: true },
        TopKConfig::new(k, Eps::new(8.0).unwrap()),
        ds.domains,
        &Exec::seeded(43).threads(1),
        SliceSource::new(&ds.pairs),
    )
    .unwrap();
    for (c, (mined, tru)) in result.per_class.iter().zip(&truth).enumerate() {
        let f1 = f1_at_k(mined, tru);
        let ncr = ncr_at_k(mined, tru);
        assert!(f1 > 0.4, "class {c}: f1 {f1}");
        assert!(ncr >= f1 - 0.2, "class {c}: ncr {ncr} vs f1 {f1}");
    }
}

#[test]
fn error_paths_surface_cleanly() {
    // Domain violations and bad budgets come back as errors, not panics.
    assert!(Eps::new(-1.0).is_err());
    assert!(Domains::new(0, 5).is_err());
    let domains = Domains::new(2, 4).unwrap();
    let bad = vec![LabelItem::new(5, 0)];
    for plan in [
        Exec::new().threads(1),
        Exec::new().chunk_size(1),
        Exec::new(),
    ] {
        let result = Framework::Ptj.execute(
            Eps::new(1.0).unwrap(),
            domains,
            &plan,
            SliceSource::new(&bad),
        );
        assert!(result.is_err(), "{plan}");
    }
}

#[test]
fn oracle_facade_round_trip() {
    // The substrate is reachable and usable through the facade.
    let eps = Eps::new(2.0).unwrap();
    let oracle = Oracle::adaptive(eps, 100).unwrap();
    let mut agg = Aggregator::new(&oracle);
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(44);
    for _ in 0..20_000 {
        agg.absorb(&oracle.privatize(42, &mut rng).unwrap())
            .unwrap();
    }
    let est = agg.estimate();
    assert!((est[42] - 20_000.0).abs() < 1_500.0, "est {}", est[42]);
}

#[test]
fn deterministic_given_seed_across_the_stack() {
    let ds = syn1(0.001, 9);
    let run = |plan: Exec| {
        Framework::PtsCp { label_frac: 0.5 }
            .execute(
                Eps::new(1.0).unwrap(),
                ds.domains,
                &plan,
                SliceSource::new(&ds.pairs),
            )
            .unwrap()
            .table
    };
    for plan in [Exec::seeded(123).threads(1), Exec::seeded(123).threads(2)] {
        assert_eq!(run(plan).values(), run(plan).values(), "{plan}");
    }
}
