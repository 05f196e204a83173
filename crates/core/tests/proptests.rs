//! Property-based tests for the multi-class core.

use mcim_core::analysis::{self, CpProbs, Probs};
use mcim_core::{
    CorrelatedPerturbation, CpAggregator, Domains, FrequencyTable, LabelItem, ValidityInput,
    ValidityPerturbation, VpAggregator,
};
use mcim_oracles::{BitVec, Eps, UnaryEncoding};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

proptest! {
    /// Joint-index mapping is a bijection for arbitrary domains.
    #[test]
    fn joint_index_bijection(c in 1u32..50, d in 1u32..500) {
        let dom = Domains::new(c, d).unwrap();
        for joint in [0, dom.joint_size() / 2, dom.joint_size() - 1] {
            let pair = dom.pair_of_joint(joint);
            prop_assert!(pair.label < c && pair.item < d);
            prop_assert_eq!(dom.joint_index(pair), joint);
        }
    }

    /// Ground-truth tables conserve mass: cells sum to the dataset size.
    #[test]
    fn ground_truth_conserves_mass(seed in any::<u64>(), n in 1usize..2_000) {
        let dom = Domains::new(4, 16).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<LabelItem> = (0..n)
            .map(|_| {
                use rand::Rng;
                LabelItem::new(rng.random_range(0..4), rng.random_range(0..16))
            })
            .collect();
        let t = FrequencyTable::ground_truth(dom, &data).unwrap();
        let total: f64 = t.values().iter().sum();
        prop_assert!((total - n as f64).abs() < 1e-9);
        let class_sum: f64 = (0..4).map(|c| t.class_total(c)).sum();
        prop_assert!((class_sum - n as f64).abs() < 1e-9);
    }

    /// VP reports always have length d+1 and the encoding is one-hot.
    #[test]
    fn vp_encoding_is_one_hot(eps_v in 0.2f64..6.0, d in 1u32..200, item in 0u32..200) {
        let vp = ValidityPerturbation::new(Eps::new(eps_v).unwrap(), d).unwrap();
        let input = if item < d { ValidityInput::Valid(item) } else { ValidityInput::Invalid };
        let encoded = vp.encode(input).unwrap();
        prop_assert_eq!(encoded.len(), d as usize + 1);
        prop_assert_eq!(encoded.count_ones(), 1);
        match input {
            ValidityInput::Valid(v) => prop_assert!(encoded.get(v as usize)),
            ValidityInput::Invalid => prop_assert!(encoded.get(d as usize)),
        }
    }

    /// VP's allocation-free path is the one-hot case of perturbing the
    /// encoding: same bits, same RNG state afterwards, even when `out`
    /// starts with the wrong length.
    #[test]
    fn vp_privatize_into_matches_perturbed_encoding(
        eps_v in 0.2f64..6.0,
        d in 1u32..200,
        item in 0u32..200,
        seed in any::<u64>(),
    ) {
        let eps = Eps::new(eps_v).unwrap();
        let vp = ValidityPerturbation::new(eps, d).unwrap();
        let ue = UnaryEncoding::optimized(eps, d + 1).unwrap();
        let input = if item < d { ValidityInput::Valid(item) } else { ValidityInput::Invalid };
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        let mut out = BitVec::zeros(3);
        for _ in 0..4 {
            vp.privatize_into(input, &mut a, &mut out).unwrap();
            let expected = ue.perturb_bits(&vp.encode(input).unwrap(), &mut b).unwrap();
            prop_assert_eq!(&out, &expected);
        }
        prop_assert_eq!(a.next_u64(), b.next_u64());
    }

    /// `absorb_each` is `n` sequential `absorb` calls on the same reports,
    /// across bit-sliced flushes and a mix of flagged and unflagged
    /// reports. A wrong-length report or an error from `next` stops both
    /// with the same error class, keeping every report before it.
    #[test]
    fn vp_absorb_each_matches_per_report_absorb(
        d in 1u32..300,
        n in 0usize..700,
        q in 0.02f64..0.98,
        fault in 0u8..3,
        at_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        use mcim_oracles::Error;
        let vp = ValidityPerturbation::new(Eps::new(1.0).unwrap(), d).unwrap();
        let width = d as usize + 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let reports: Vec<BitVec> = (0..n)
            .map(|_| {
                let mut r = BitVec::zeros(width);
                r.fill_bernoulli(q, &mut rng);
                r
            })
            .collect();
        // 0: no fault; 1: report `at` has the wrong length; 2: `next` fails at `at`.
        let at = (at_frac * n as f64) as usize;
        let wrong = BitVec::zeros(width + 1);
        let report_at = |i: usize| if fault == 1 && i == at { &wrong } else { &reports[i] };

        let mut seq = VpAggregator::new(&vp);
        let mut each = VpAggregator::new(&vp);
        // Both start from the same non-empty state.
        seq.absorb(&BitVec::one_hot(width, 0)).unwrap();
        each.absorb(&BitVec::one_hot(width, 0)).unwrap();

        let mut expected = Ok(());
        for i in 0..n {
            if fault == 2 && i == at {
                expected = Err(Error::EmptyDomain);
                break;
            }
            if let Err(e) = seq.absorb(report_at(i)) {
                expected = Err(e);
                break;
            }
        }
        let got = each.absorb_each(n, |i, report| {
            if fault == 2 && i == at {
                return Err(Error::EmptyDomain);
            }
            report.clone_from(report_at(i));
            Ok(())
        });

        match (&got, &expected) {
            (Ok(()), Ok(())) => {}
            (Err(Error::EmptyDomain), Err(Error::EmptyDomain)) => prop_assert_eq!(fault, 2),
            (Err(Error::ReportMismatch { .. }), Err(Error::ReportMismatch { .. })) => {
                prop_assert_eq!(fault, 1)
            }
            _ => prop_assert!(false, "absorb_each gave {:?}, absorb gave {:?}", got, expected),
        }
        prop_assert_eq!(each.report_count(), seq.report_count());
        prop_assert_eq!(each.raw_flag_count(), seq.raw_flag_count());
        prop_assert_eq!(each.raw_counts(), seq.raw_counts());
    }

    /// Theorem 5's invalid noise is below Theorem 4's for every
    /// configuration (the paper's §V-A claim).
    #[test]
    fn vp_noise_strictly_better(eps_v in 0.1f64..8.0, d in 2u32..5_000, m in 1.0f64..1e6) {
        let pr = Probs::oue(Eps::new(eps_v).unwrap());
        prop_assert!(
            analysis::thm5_vp_invalid_noise_mean(m, pr)
                < analysis::thm4_invalid_noise_mean(d, m, pr)
        );
    }

    /// §V-B: the VP-vs-OUE count-variance difference is negative for any
    /// population composition.
    #[test]
    fn vp_variance_advantage_negative(
        eps_v in 0.1f64..8.0,
        d in 2u32..2_000,
        n1 in 0.0f64..1e5,
        n2 in 0.0f64..1e5,
        m in 1.0f64..1e5,
    ) {
        let pr = Probs::oue(Eps::new(eps_v).unwrap());
        prop_assert!(analysis::vp_variance_advantage(n1, n2, m, d, pr) < 0.0);
    }

    /// Eq. (5) variance is positive and monotone in n and N.
    #[test]
    fn thm8_variance_monotone(eps_v in 0.3f64..6.0, c in 2u32..30) {
        let pr = CpProbs::even_split(Eps::new(eps_v).unwrap(), c).unwrap();
        let v_base = analysis::thm8_cp_variance(100.0, 1_000.0, 10_000.0, pr);
        prop_assert!(v_base > 0.0);
        let v_more_n = analysis::thm8_cp_variance(100.0, 2_000.0, 10_000.0, pr);
        let v_more_total = analysis::thm8_cp_variance(100.0, 1_000.0, 20_000.0, pr);
        prop_assert!(v_more_n > v_base, "variance grows with class size n (§V-C)");
        prop_assert!(v_more_total > v_base, "variance grows with N");
    }

    /// Theorem 10's gap bound stays positive across budgets and shapes.
    #[test]
    fn thm10_gap_positive(
        eps_v in 0.2f64..8.0,
        c in 2u32..20,
        f in 1.0f64..1e4,
        extra_n in 0.0f64..1e5,
        extra_total in 0.0f64..1e6,
    ) {
        let pr = CpProbs::even_split(Eps::new(eps_v).unwrap(), c).unwrap();
        let n = f + extra_n;
        let n_total = n + extra_total;
        let f_item = f; // item appears only in this class
        prop_assert!(analysis::thm10_variance_gap_lower_bound(f, n, f_item, n_total, pr) > 0.0);
    }

    /// CP reports preserve shape invariants for arbitrary pairs.
    #[test]
    fn cp_report_shape(seed in any::<u64>(), c in 2u32..10, d in 1u32..100) {
        let domains = Domains::new(c, d).unwrap();
        let m = CorrelatedPerturbation::with_total(Eps::new(1.0).unwrap(), domains).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let pair = LabelItem::new(c - 1, d - 1);
        let r = m.privatize(pair, &mut rng).unwrap();
        prop_assert!(r.label < c);
        prop_assert_eq!(r.bits.len(), d as usize + 1);
    }

    /// The CP aggregator's estimate is finite everywhere for any stream.
    #[test]
    fn cp_estimates_finite(seed in any::<u64>(), n in 1usize..300) {
        let domains = Domains::new(3, 8).unwrap();
        let m = CorrelatedPerturbation::with_total(Eps::new(0.5).unwrap(), domains).unwrap();
        let mut agg = CpAggregator::new(&m);
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let pair = LabelItem::new((i % 3) as u32, (i % 8) as u32);
            agg.absorb(&m.privatize(pair, &mut rng).unwrap()).unwrap();
        }
        for v in agg.estimate().values() {
            prop_assert!(v.is_finite());
        }
    }

    /// VP aggregator invariants: flag count + filtered reports == N, and
    /// estimates stay finite.
    #[test]
    fn vp_aggregator_invariants(seed in any::<u64>(), n in 1usize..300, d in 1u32..64) {
        let vp = ValidityPerturbation::new(Eps::new(1.0).unwrap(), d).unwrap();
        let mut agg = VpAggregator::new(&vp);
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let input = if i % 3 == 0 { ValidityInput::Invalid } else { ValidityInput::Valid((i as u32) % d) };
            agg.absorb(&vp.privatize(input, &mut rng).unwrap()).unwrap();
        }
        prop_assert_eq!(agg.report_count(), n as u64);
        prop_assert!(agg.raw_flag_count() <= n as u64);
        for v in agg.estimate() {
            prop_assert!(v.is_finite());
        }
    }
}

proptest! {
    /// Mean estimators produce finite sums/means for arbitrary populations
    /// and budget splits, under both recipes and both numeric mechanisms.
    #[test]
    fn mean_estimators_finite(
        seed in any::<u64>(),
        classes in 2u32..8,
        n in 10usize..300,
        eps_v in 0.2f64..6.0,
    ) {
        use mcim_core::mean::{LabelValue, MeanAggregator, MeanCp, MeanPts, NumericMechanism};
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<LabelValue> = (0..n)
            .map(|i| {
                use rand::Rng;
                LabelValue::new((i as u32) % classes, rng.random_range(-1.0..1.0))
            })
            .collect();
        let eps = Eps::new(eps_v).unwrap();
        for mech_kind in [NumericMechanism::StochasticRounding, NumericMechanism::Piecewise] {
            let pts = MeanPts::with_total(eps, classes, mech_kind).unwrap();
            let cp = MeanCp::with_total(eps, classes, mech_kind).unwrap();
            let mut pts_agg = MeanAggregator::for_pts(&pts);
            let mut cp_agg = MeanAggregator::for_cp(&cp);
            for lv in &data {
                pts_agg.absorb(&pts.privatize(*lv, &mut rng).unwrap()).unwrap();
                cp_agg.absorb(&cp.privatize(*lv, &mut rng).unwrap()).unwrap();
            }
            for c in 0..classes {
                prop_assert!(pts_agg.estimate_class_sum(c).is_finite());
                prop_assert!(cp_agg.estimate_class_sum(c).is_finite());
                if let Some(m) = pts_agg.estimate_mean(c) {
                    prop_assert!(m.is_finite());
                }
            }
        }
    }

    /// MeanCp budget accounting: the three budgets always sum to the total.
    #[test]
    fn mean_cp_budget_sums(eps_v in 0.1f64..10.0) {
        let eps = Eps::new(eps_v).unwrap();
        let (e1, item) = eps.halve();
        let (ef, ev) = item.halve();
        prop_assert!((e1.value() + ef.value() + ev.value() - eps_v).abs() < 1e-12);
    }
}
