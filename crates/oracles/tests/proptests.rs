//! Property-based tests for the oracle substrate.

use mcim_oracles::{calibrate, hash::SplitMix64, BitVec, Eps, Grr, Oracle, UnaryEncoding};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// Calibration exactly inverts the affine expectation map for any valid
    /// (p, q, n, f) configuration.
    #[test]
    fn calibration_inverts_expectation(
        p in 0.02f64..0.99,
        q_frac in 0.01f64..0.95,
        n in 1u32..1_000_000,
        f_frac in 0.0f64..1.0,
    ) {
        let q = p * q_frac; // ensure q < p
        let n = n as f64;
        let f = n * f_frac;
        let count = f * p + (n - f) * q;
        let est = calibrate::unbiased_count(count, n, p, q);
        prop_assert!((est - f).abs() < 1e-6 * n.max(1.0));
    }

    /// Budget splitting always sums back to the original ε.
    #[test]
    fn budget_split_sums(eps in 1e-3f64..10.0, frac in 0.01f64..0.99) {
        let e = Eps::new(eps).unwrap();
        let (a, b) = e.split(frac).unwrap();
        prop_assert!((a.value() + b.value() - eps).abs() < 1e-12);
        prop_assert!(a.value() > 0.0 && b.value() > 0.0);
    }

    /// Halving twice, as a three-way split ε/2 + ε/4 + ε/4, sums back
    /// to ε.
    #[test]
    fn halving_twice_sums_back_to_eps(eps in 0.1f64..10.0) {
        let (first, rest) = Eps::new(eps).unwrap().halve();
        let (second, third) = rest.halve();
        prop_assert!((first.value() + second.value() + third.value() - eps).abs() < 1e-12);
    }

    /// One-hot vectors have exactly one set bit wherever placed.
    #[test]
    fn one_hot_invariant(len in 1usize..500, pos_frac in 0.0f64..1.0) {
        let pos = ((len as f64 - 1.0) * pos_frac) as usize;
        let v = BitVec::one_hot(len, pos);
        prop_assert_eq!(v.count_ones(), 1);
        prop_assert!(v.get(pos));
    }

    /// `iter_ones` agrees with `get` on arbitrary bit patterns.
    #[test]
    fn iter_ones_matches_get(len in 1usize..300, seed in any::<u64>(), q in 0.0f64..1.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = BitVec::zeros(len);
        v.fill_bernoulli(q, &mut rng);
        let from_iter: Vec<usize> = v.iter_ones().collect();
        let from_get: Vec<usize> = (0..len).filter(|&i| v.get(i)).collect();
        prop_assert_eq!(from_iter, from_get);
        prop_assert_eq!(v.count_ones(), (0..len).filter(|&i| v.get(i)).count());
    }

    /// GRR probabilities are a valid distribution and satisfy the tight LDP bound.
    #[test]
    fn grr_probability_invariants(eps in 0.05f64..8.0, d in 2u32..500) {
        let g = Grr::new(Eps::new(eps).unwrap(), d).unwrap();
        let total = g.p() + (d as f64 - 1.0) * g.q();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(g.p() / g.q() <= eps.exp() * (1.0 + 1e-9));
    }

    /// GRR outputs always stay in the domain.
    #[test]
    fn grr_output_in_domain(eps in 0.1f64..5.0, d in 1u32..100, v_frac in 0.0f64..1.0, seed in any::<u64>()) {
        let g = Grr::new(Eps::new(eps).unwrap(), d).unwrap();
        let v = ((d as f64 - 1.0) * v_frac) as u32;
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            let out = g.perturb(v, &mut rng).unwrap();
            prop_assert!(out < d);
        }
    }

    /// OUE/SUE both satisfy exactly their nominal ε via the UE bound.
    #[test]
    fn ue_effective_eps_tight(eps in 0.05f64..8.0, d in 1u32..200) {
        let e = Eps::new(eps).unwrap();
        for m in [UnaryEncoding::optimized(e, d).unwrap(), UnaryEncoding::symmetric(e, d).unwrap()] {
            prop_assert!((m.effective_eps() - eps).abs() < 1e-6);
        }
    }

    /// The adaptive oracle follows the published selection rule exactly.
    #[test]
    fn adaptive_selection_rule(eps in 0.05f64..6.0, d in 1u32..10_000) {
        let oracle = Oracle::adaptive(Eps::new(eps).unwrap(), d).unwrap();
        let expect_grr = (d as f64) < 3.0 * eps.exp() + 2.0;
        prop_assert_eq!(oracle.name() == "GRR", expect_grr);
    }

    /// Deterministic shuffle: same seed ⇒ same permutation; output is a permutation.
    #[test]
    fn shuffle_permutation_property(seed in any::<u64>(), len in 0usize..200) {
        let mut a: Vec<u32> = (0..len as u32).collect();
        let mut b: Vec<u32> = (0..len as u32).collect();
        SplitMix64::new(seed).shuffle(&mut a);
        SplitMix64::new(seed).shuffle(&mut b);
        prop_assert_eq!(&a, &b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..len as u32).collect::<Vec<_>>());
    }

    /// Aggregator estimates are finite for any report stream.
    #[test]
    fn aggregator_estimates_finite(seed in any::<u64>(), d in 2u32..64, n in 1usize..200) {
        let oracle = Oracle::adaptive(Eps::new(1.0).unwrap(), d).unwrap();
        let mut agg = mcim_oracles::Aggregator::new(&oracle);
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let v = (i as u32) % d;
            agg.absorb(&oracle.privatize(v, &mut rng).unwrap()).unwrap();
        }
        for est in agg.estimate() {
            prop_assert!(est.is_finite());
        }
    }
}

proptest! {
    /// The two Bernoulli fillers behind the RNG-contract sampler are
    /// statistically equivalent: for any density `q`, the word-parallel
    /// path and the geometric-skip path both realize per-bit marginal
    /// Bernoulli(q). The contract may therefore pick between them from the
    /// mechanism parameters alone — the choice moves which stream the
    /// bits come from, never their distribution.
    #[test]
    fn wordwise_and_geometric_fillers_share_the_bernoulli_marginal(
        q in 0.005f64..0.6,
        seed in any::<u64>(),
    ) {
        const LEN: usize = 4096;
        const TRIALS: usize = 32;
        let mean_of = |wordwise: bool| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ones = 0u64;
            let mut v = BitVec::zeros(LEN);
            for _ in 0..TRIALS {
                if wordwise {
                    v.fill_bernoulli_wordwise(q, &mut rng);
                } else {
                    v.fill_bernoulli(q, &mut rng);
                }
                ones += v.count_ones() as u64;
            }
            ones as f64 / (LEN * TRIALS) as f64
        };
        let n = (LEN * TRIALS) as f64;
        // Six standard deviations of the empirical mean: a per-case false
        // alarm rate around 1e-9, so the suite stays deterministic-green.
        let tol = 6.0 * (q * (1.0 - q) / n).sqrt();
        let (wordwise, geometric) = (mean_of(true), mean_of(false));
        prop_assert!((wordwise - q).abs() < tol, "wordwise {wordwise} vs q {q}");
        prop_assert!((geometric - q).abs() < tol, "geometric {geometric} vs q {q}");
        prop_assert!((wordwise - geometric).abs() < 2.0 * tol,
            "fillers disagree: {wordwise} vs {geometric} at q {q}");
    }
}
