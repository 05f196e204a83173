//! The paper's headline claims, verified end-to-end at test scale. Each
//! test names the paper artifact it reproduces.

use multiclass_ldp::core::analysis::{self, CpProbs, Probs};
use multiclass_ldp::datasets::{jd_like, syn2, RealConfig};
use multiclass_ldp::prelude::*;

/// §V-A / Theorems 4-5: validity perturbation injects strictly less
/// invalid-user noise than any plain-LDP random substitution, across the
/// whole (ε, d) grid the paper's evaluation touches.
#[test]
fn claim_vp_reduces_invalid_noise_everywhere() {
    for eps_v in [0.5, 1.0, 2.0, 4.0, 8.0] {
        let pr = Probs::oue(Eps::new(eps_v).unwrap());
        for d in [2u32, 16, 128, 1024, 16384] {
            let plain = analysis::thm4_invalid_noise_mean(d, 1000.0, pr);
            let vp = analysis::thm5_vp_invalid_noise_mean(1000.0, pr);
            assert!(vp < plain, "ε={eps_v} d={d}: {vp} !< {plain}");
        }
    }
}

/// Theorem 10: correlated perturbation strictly dominates independent
/// GRR+OUE perturbation in estimator variance.
#[test]
fn claim_cp_variance_dominates_pts() {
    for eps_v in [0.5, 1.0, 2.0, 4.0] {
        for classes in [2u32, 5, 20] {
            let pr = CpProbs::even_split(Eps::new(eps_v).unwrap(), classes).unwrap();
            let (f, n, f_item, n_total) = (500.0, 5_000.0, 2_000.0, 100_000.0);
            let cp = analysis::thm8_cp_variance(f, n, n_total, pr);
            let pts = analysis::pts_variance(f, n, f_item, n_total, pr);
            assert!(cp < pts, "ε={eps_v} c={classes}: {cp} !< {pts}");
            assert!(analysis::thm10_variance_gap_lower_bound(f, n, f_item, n_total, pr) > 0.0);
        }
    }
}

/// Fig. 5(b): the empirical variance of the CP estimator grows with the
/// class size n, and CP's empirical variance stays below plain PTS.
#[test]
fn claim_variance_grows_with_class_size() {
    // At ε = 2 Eq. (5)'s n-coefficient dominates the N-term, so the
    // largest class (~68% of N) must show ≈2.5× the variance of the
    // smallest (~0.3%); we assert a conservative 1.4× with enough trials
    // to separate it from estimation noise.
    let ds = syn2(0.004, 6);
    let truth = ds.ground_truth();
    let eps = Eps::new(2.0).unwrap();
    let trials = 150;
    let mut per_class_sq = [0.0f64; 4];
    for t in 0..trials {
        let result = Framework::PtsCp { label_frac: 0.5 }
            .execute(
                eps,
                ds.domains,
                &Exec::seeded(1000 + t).threads(1),
                SliceSource::new(&ds.pairs),
            )
            .unwrap();
        for c in 0..4 {
            let d = result.table.get(c, 0) - truth.get(c, 0);
            per_class_sq[c as usize] += d * d;
        }
    }
    assert!(
        per_class_sq[3] > 1.4 * per_class_sq[0],
        "variance must grow with n: {per_class_sq:?}"
    );
}

/// Fig. 8: on the JD-like imbalanced workload the optimized PTS pipeline
/// retains utility on the two tiny classes where PTJ collapses.
#[test]
fn claim_global_candidates_rescue_tiny_classes() {
    let ds = jd_like(RealConfig {
        users: 200_000,
        items: 1024,
        seed: 17,
    });
    let k = 10;
    let truth = ds.true_top_k(k);
    let config = TopKConfig::new(k, Eps::new(8.0).unwrap());
    let trials = 3;
    let (mut pts_tiny, mut ptj_tiny) = (0.0, 0.0);
    for t in 0..trials {
        let pts = execute(
            TopKMethod::PtsShuffled {
                validity: true,
                global: true,
                correlated: true,
            },
            config,
            ds.domains,
            &Exec::seeded(2000 + t).threads(1),
            SliceSource::new(&ds.pairs),
        )
        .unwrap();
        let ptj = execute(
            TopKMethod::PtjPem { validity: false },
            config,
            ds.domains,
            &Exec::seeded(2100 + t).threads(1),
            SliceSource::new(&ds.pairs),
        )
        .unwrap();
        for c in [3usize, 4] {
            pts_tiny += f1_at_k(&pts.per_class[c], &truth[c]);
            ptj_tiny += f1_at_k(&ptj.per_class[c], &truth[c]);
        }
    }
    assert!(
        pts_tiny > ptj_tiny,
        "tiny classes: PTS {pts_tiny} must beat PTJ {ptj_tiny}"
    );
}

/// §V-C / Table II: PTJ's uplink exceeds PTS's by roughly the class count
/// when OUE is the oracle (joint domain c·d vs item domain d).
#[test]
fn claim_ptj_pays_c_times_uplink() {
    let domains = Domains::new(8, 512).unwrap();
    let data: Vec<LabelItem> = (0..500).map(|u| LabelItem::new(u % 8, u % 512)).collect();
    let eps = Eps::new(1.0).unwrap();
    let plan = Exec::seeded(3000).threads(1);
    let ptj = Framework::Ptj
        .execute(eps, domains, &plan, SliceSource::new(&data))
        .unwrap();
    let pts = Framework::Pts { label_frac: 0.5 }
        .execute(eps, domains, &plan, SliceSource::new(&data))
        .unwrap();
    let ratio = ptj.comm.bits_per_user() / pts.comm.bits_per_user();
    assert!(
        ratio > 6.0 && ratio < 9.0,
        "PTJ/PTS uplink ratio ≈ c = 8, got {ratio}"
    );
}

/// The b-test of Algorithm 2: with imbalanced classes the tiny groups are
/// flagged too noisy for CP while the big ones keep it. We verify through
/// the public API that both code paths execute without degrading shape.
#[test]
fn claim_noise_test_keeps_all_classes_functional() {
    let ds = jd_like(RealConfig {
        users: 100_000,
        items: 512,
        seed: 23,
    });
    let config = TopKConfig::new(5, Eps::new(4.0).unwrap());
    let result = execute(
        TopKMethod::PtsShuffled {
            validity: true,
            global: true,
            correlated: true,
        },
        config,
        ds.domains,
        &Exec::seeded(4000).threads(1),
        SliceSource::new(&ds.pairs),
    )
    .unwrap();
    assert_eq!(result.per_class.len(), 5);
    for (c, items) in result.per_class.iter().enumerate() {
        assert!(items.len() <= 5, "class {c}");
        for &i in items {
            assert!(i < 512);
        }
    }
}
