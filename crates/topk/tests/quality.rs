//! End-to-end quality tests: the paper's headline utility orderings must
//! hold on the simulated datasets at moderate scale.

use mcim_datasets::{anime_like, jd_like, RealConfig};
use mcim_metrics::{f1_at_k, ncr_at_k};
use mcim_oracles::exec::Exec;
use mcim_oracles::stream::SliceSource;
use mcim_oracles::Eps;
use mcim_topk::{execute, TopKConfig, TopKMethod};

fn mean_f1(
    method: TopKMethod,
    config: TopKConfig,
    ds: &mcim_datasets::Dataset,
    truth: &[Vec<u32>],
    seed: u64,
) -> f64 {
    let result = execute(
        method,
        config,
        ds.domains,
        &Exec::seeded(seed).threads(1),
        SliceSource::new(&ds.pairs),
    )
    .unwrap();
    let scores: Vec<f64> = truth
        .iter()
        .enumerate()
        .map(|(c, t)| f1_at_k(&result.per_class[c], t))
        .collect();
    scores.iter().sum::<f64>() / scores.len() as f64
}

/// Fig. 7's qualitative orderings on the anime-like workload at ε = 8:
/// each family's optimized method beats its own baseline, and the
/// optimized PTS scheme finds most of the true top titles.
#[test]
fn optimized_methods_beat_their_baselines_on_anime() {
    let ds = anime_like(RealConfig {
        users: 200_000,
        items: 2048,
        seed: 42,
    });
    let k = 20;
    let truth = ds.true_top_k(k);
    let config = TopKConfig::new(k, Eps::new(8.0).unwrap());
    let trials = 3;
    let mut scores = std::collections::HashMap::new();
    for (label, method) in [
        (
            "pts_base",
            TopKMethod::PtsPem {
                validity: false,
                global: false,
            },
        ),
        (
            "pts_opt",
            TopKMethod::PtsShuffled {
                validity: true,
                global: true,
                correlated: true,
            },
        ),
        ("ptj_base", TopKMethod::PtjPem { validity: false }),
        ("ptj_opt", TopKMethod::PtjShuffled { validity: true }),
    ] {
        let mut total = 0.0;
        for t in 0..trials {
            total += mean_f1(method, config, &ds, &truth, 7 + t);
        }
        scores.insert(label, total / trials as f64);
    }
    assert!(
        scores["pts_opt"] > scores["pts_base"],
        "PTS optimized {} vs baseline {}",
        scores["pts_opt"],
        scores["pts_base"]
    );
    assert!(
        scores["ptj_opt"] > scores["ptj_base"] - 0.05,
        "PTJ optimized {} vs baseline {}",
        scores["ptj_opt"],
        scores["ptj_base"]
    );
    assert!(
        scores["pts_opt"] > 0.7,
        "optimized PTS should find most top titles: {}",
        scores["pts_opt"]
    );
}

/// On the imbalanced JD-like workload the HEC strawman is the worst method
/// (Fig. 7c): partitioned users mostly mine classes they don't belong to.
#[test]
fn hec_loses_on_imbalanced_jd() {
    let ds = jd_like(RealConfig {
        users: 200_000,
        items: 2048,
        seed: 46,
    });
    let k = 20;
    let truth = ds.true_top_k(k);
    let config = TopKConfig::new(k, Eps::new(4.0).unwrap());
    let trials = 3;
    let mut hec = 0.0;
    let mut opt = 0.0;
    for t in 0..trials {
        hec += mean_f1(TopKMethod::Hec, config, &ds, &truth, 50 + t);
        opt += mean_f1(
            TopKMethod::PtjShuffled { validity: true },
            config,
            &ds,
            &truth,
            60 + t,
        );
    }
    assert!(
        opt > hec,
        "optimized mining ({opt}) must beat the HEC strawman ({hec}) on JD"
    );
}

/// Fig. 8's phenomenon: on the JD-like imbalanced workload PTJ produces
/// nothing (or garbage) for the tiny classes while the optimized PTS
/// scheme still returns results there.
#[test]
fn tiny_classes_favor_pts_over_ptj() {
    let ds = jd_like(RealConfig {
        users: 150_000,
        items: 512,
        seed: 43,
    });
    let k = 10;
    let truth = ds.true_top_k(k);
    let config = TopKConfig::new(k, Eps::new(8.0).unwrap());

    let pts = execute(
        TopKMethod::PtsShuffled {
            validity: true,
            global: true,
            correlated: true,
        },
        config,
        ds.domains,
        &Exec::seeded(11).threads(1),
        SliceSource::new(&ds.pairs),
    )
    .unwrap();
    let ptj = execute(
        TopKMethod::PtjPem { validity: false },
        config,
        ds.domains,
        &Exec::seeded(12).threads(1),
        SliceSource::new(&ds.pairs),
    )
    .unwrap();

    // Classes 3 and 4 hold ~3.7% and ~2% of users. PTJ mines top k·c joint
    // pairs globally, so the tiny classes get few candidates; PTS routes
    // every user and benefits from the global item pool.
    let tiny = [3usize, 4];
    let pts_f1: f64 = tiny
        .iter()
        .map(|&c| f1_at_k(&pts.per_class[c], &truth[c]))
        .sum::<f64>()
        / 2.0;
    let ptj_f1: f64 = tiny
        .iter()
        .map(|&c| f1_at_k(&ptj.per_class[c], &truth[c]))
        .sum::<f64>()
        / 2.0;
    assert!(
        pts_f1 > ptj_f1,
        "tiny classes: PTS {pts_f1} should beat PTJ {ptj_f1}"
    );
}

/// The VP and shuffling ablations must not *hurt*: optimized PTJ ≥ vanilla
/// PTJ on average (Table III's direction), measured by NCR.
#[test]
fn ptj_optimizations_do_not_hurt() {
    let ds = anime_like(RealConfig {
        users: 100_000,
        items: 256,
        seed: 44,
    });
    let k = 10;
    let truth = ds.true_top_k(k);
    let config = TopKConfig::new(k, Eps::new(5.0).unwrap());
    // Average a few runs to damp run-to-run noise.
    let trials = 3;
    let mut base_total = 0.0;
    let mut opt_total = 0.0;
    for t in 0..trials {
        let base = execute(
            TopKMethod::PtjPem { validity: false },
            config,
            ds.domains,
            &Exec::seeded(100 + t).threads(1),
            SliceSource::new(&ds.pairs),
        )
        .unwrap();
        let opt = execute(
            TopKMethod::PtjShuffled { validity: true },
            config,
            ds.domains,
            &Exec::seeded(110 + t).threads(1),
            SliceSource::new(&ds.pairs),
        )
        .unwrap();
        for (c, tru) in truth.iter().enumerate() {
            base_total += ncr_at_k(&base.per_class[c], tru);
            opt_total += ncr_at_k(&opt.per_class[c], tru);
        }
    }
    assert!(
        opt_total >= base_total - 0.2,
        "optimized PTJ ({opt_total}) should not lose to baseline ({base_total})"
    );
}

/// Determinism: the same seed must reproduce identical mining output.
#[test]
fn mining_is_seed_deterministic() {
    let ds = anime_like(RealConfig {
        users: 30_000,
        items: 256,
        seed: 45,
    });
    let config = TopKConfig::new(5, Eps::new(4.0).unwrap());
    let run = || {
        execute(
            TopKMethod::PtsShuffled {
                validity: true,
                global: true,
                correlated: true,
            },
            config,
            ds.domains,
            &Exec::seeded(555).threads(1),
            SliceSource::new(&ds.pairs),
        )
        .unwrap()
        .per_class
    };
    assert_eq!(run(), run());
}
