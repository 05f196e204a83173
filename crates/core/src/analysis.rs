//! Utility analysis — closed forms for Theorems 4–10 and Table I (§V).
//!
//! Each function mirrors one theorem of the paper; the Monte-Carlo tests in
//! this module and in `validity.rs`/`correlated.rs` check the formulas
//! against simulation, which is the strongest reproduction evidence we can
//! offer for the analysis section.

use mcim_oracles::{Eps, Grr, Result, UnaryEncoding};

/// Mechanism flip probabilities `(p, q)` bundled for the analysis functions.
#[derive(Debug, Clone, Copy)]
pub struct Probs {
    /// Keep probability.
    pub p: f64,
    /// Flip-on probability.
    pub q: f64,
}

impl Probs {
    /// OUE probabilities for budget ε.
    pub fn oue(eps: Eps) -> Self {
        Probs {
            p: 0.5,
            q: 1.0 / (eps.exp() + 1.0),
        }
    }

    /// GRR probabilities for budget ε over domain size `d` (`p = 1` once
    /// `e^ε` overflows, as in `Grr::new`).
    pub fn grr(eps: Eps, d: u32) -> Self {
        let e = eps.exp();
        let denom = e + d as f64 - 1.0;
        Probs {
            p: if e.is_finite() { e / denom } else { 1.0 },
            q: 1.0 / denom,
        }
    }
}

/// **Theorem 4** — expected noise injected into one valid item by `m`
/// invalid users under a plain LDP mechanism (invalid users substitute a
/// uniformly random valid item): `E = m·q + m(p−q)/d`.
pub fn thm4_invalid_noise_mean(d: u32, m: f64, pr: Probs) -> f64 {
    m * pr.q + m * (pr.p - pr.q) / d as f64
}

/// **Theorem 4** — variance of that injected noise:
/// `Var = m·q(1−q) + (m/d)(p−q)(1−p−q)`.
pub fn thm4_invalid_noise_var(d: u32, m: f64, pr: Probs) -> f64 {
    m * pr.q * (1.0 - pr.q) + m / d as f64 * (pr.p - pr.q) * (1.0 - pr.p - pr.q)
}

/// **Theorem 5** — expected noise injected into one valid item by `m`
/// invalid users under validity perturbation: `E = m·q(1−p)`.
pub fn thm5_vp_invalid_noise_mean(m: f64, pr: Probs) -> f64 {
    m * pr.q * (1.0 - pr.p)
}

/// **Theorem 5** — variance of that injected noise:
/// `Var = m·q(1−q) − m·p·q(1 + pq − 2q)`.
pub fn thm5_vp_invalid_noise_var(m: f64, pr: Probs) -> f64 {
    m * pr.q * (1.0 - pr.q) - m * pr.p * pr.q * (1.0 + pr.p * pr.q - 2.0 * pr.q)
}

/// **Theorem 6** — expected collected count of the target item under a
/// plain LDP mechanism, with `n1` target holders, `n2` holders of other
/// valid items (domain size `d`) and `m` invalid users.
pub fn thm6_count_mean(n1: f64, n2: f64, m: f64, d: u32, pr: Probs) -> f64 {
    n1 * pr.p + n2 * pr.q + m * pr.q + m / d as f64 * (pr.p - pr.q)
}

/// **Theorem 6** — variance of that count.
pub fn thm6_count_var(n1: f64, n2: f64, m: f64, d: u32, pr: Probs) -> f64 {
    let Probs { p, q } = pr;
    n1 * (p - p * p) + n2 * (q - q * q) + m * (q - q * q) + m / d as f64 * (p - q) * (1.0 - p - q)
}

/// **Theorem 7** — expected flag-filtered count of the target item under
/// validity perturbation.
pub fn thm7_vp_count_mean(n1: f64, n2: f64, m: f64, pr: Probs) -> f64 {
    let Probs { p, q } = pr;
    n1 * p * (1.0 - q) + n2 * q * (1.0 - q) + m * q * (1.0 - p)
}

/// **Theorem 7** — variance of that count.
pub fn thm7_vp_count_var(n1: f64, n2: f64, m: f64, pr: Probs) -> f64 {
    let Probs { p, q } = pr;
    n1 * (p - p * p + 2.0 * p * p * q - p * q - p * p * q * q)
        + n2 * (q - 2.0 * q * q + 2.0 * q * q * q - q.powi(4))
        + m * (q - q * q + 2.0 * p * q * q - p * q - p * p * q * q)
}

/// §V-B — the count-variance difference `Var_VP − Var_LDP`; the paper shows
/// it is always negative (VP is strictly better at fixed composition).
pub fn vp_variance_advantage(n1: f64, n2: f64, m: f64, d: u32, pr: Probs) -> f64 {
    let Probs { p, q } = pr;
    n1 * p * q * (2.0 * p - 1.0 - p * q)
        + n2 * q * q * (2.0 * q - 1.0 - q * q)
        + m * p * q * (2.0 * q - 1.0 - p * q)
        - m / d as f64 * (p - q) * (1.0 - p - q)
}

/// Label/item probability set for the correlated-perturbation analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpProbs {
    /// Label keep probability `p₁`.
    pub p1: f64,
    /// Label flip probability `q₁`.
    pub q1: f64,
    /// Item keep probability `p₂`.
    pub p2: f64,
    /// Item flip-on probability `q₂`.
    pub q2: f64,
}

impl CpProbs {
    /// The paper's configuration: GRR(ε₁) over `c` labels + OUE(ε₂).
    pub fn standard(eps1: Eps, eps2: Eps, classes: u32) -> Result<Self> {
        let grr = Grr::new(eps1, classes)?;
        let oue = UnaryEncoding::optimized(eps2, 2)?; // q depends only on ε
        Ok(CpProbs {
            p1: grr.p(),
            q1: grr.q(),
            p2: oue.p(),
            q2: oue.q(),
        })
    }

    /// Even split of a total budget, the paper's default.
    pub fn even_split(eps: Eps, classes: u32) -> Result<Self> {
        let (e1, e2) = eps.halve();
        Self::standard(e1, e2, classes)
    }
}

/// **Theorem 8 / Eq. (5)** — variance of the calibrated CP estimate
/// `f̂(C, I)` given true pair count `f`, class size `n`, population `N`.
pub fn thm8_cp_variance(f: f64, n: f64, n_total: f64, pr: CpProbs) -> f64 {
    let CpProbs { p1, q1, p2, q2 } = pr;
    let a = p1 * (1.0 - q2) * (p2 - q2);
    let a2 = a * a;
    let t1 = f * (p1 * (1.0 - q2) * p2) * (1.0 - p1 * (1.0 - q2) * p2) / a2;
    let t2 = (n - f) * (p1 * (1.0 - q2) * q2) * (1.0 - p1 * (1.0 - q2) * q2) / a2;
    let t3 = (n_total - n) * (q1 * (1.0 - p2) * q2) * (1.0 - q1 * (1.0 - p2) * q2) / a2;
    let coef = q2 * (p1 * (1.0 - q2) - q1 * (1.0 - p2)) / a;
    let var_n_hat = (n * (p1 * (1.0 - p1) - q1 * (1.0 - q1)) + n_total * q1 * (1.0 - q1))
        / ((p1 - q1) * (p1 - q1));
    t1 + t2 + t3 + coef * coef * var_n_hat
}

/// Exact variance of the calibrated CP estimate — Theorem 8's Eq. (5)
/// **plus** the `f̃`–`n̂` covariance the paper's closed form drops when it
/// treats the class-size estimate as independent.
///
/// Every user counted by `f̃(C, I)` necessarily reported label `C`, so
/// `Cov(f̃, ñ) = Σ_u x_u (1 − y_u)` over the three user populations, where
/// `x_u` is the user's `f̃`-contribution probability and `y_u` its
/// label-report probability. The covariance enters the estimator variance
/// with coefficient `−2·c/a²` (`c` = Eq. (4)'s `n̂` coefficient, `a` the
/// calibration denominator) and is non-negligible at small populations —
/// the Monte-Carlo test below matches this form to well under a percent.
pub fn cp_variance_exact(f: f64, n: f64, n_total: f64, pr: CpProbs) -> f64 {
    let CpProbs { p1, q1, p2, q2 } = pr;
    let a = p1 * (1.0 - q2) * (p2 - q2);
    let c = q2 * (p1 * (1.0 - q2) - q1 * (1.0 - p2));
    let cov_raw = f * p1 * (1.0 - q2) * p2 * (1.0 - p1)
        + (n - f) * p1 * (1.0 - q2) * q2 * (1.0 - p1)
        + (n_total - n) * q1 * (1.0 - p2) * q2 * (1.0 - q1);
    let cov_n_hat = cov_raw / (p1 - q1);
    thm8_cp_variance(f, n, n_total, pr) - 2.0 * c * cov_n_hat / (a * a)
}

/// Derived variance of the PTS (GRR + OUE, uncorrelated) estimate Eq. (6),
/// treating `n̂` and the global item estimate as independent of the raw
/// pair count (the same simplification the paper's Eq. (5) uses for `n̂`).
/// `f_item` is the global frequency of the item across classes.
///
/// All three count the same reports: the raw count's covariances with the
/// other two are non-negative and enter Eq. (6) with a negative sign, so
/// dropping them makes this an **upper bound** on the exact
/// [`pts_variance_exact`] — typically 2–3× too large (~2.4× at
/// `d = 1024`, ε = 1) — the way [`thm8_cp_variance`] bounds
/// [`cp_variance_exact`].
pub fn pts_variance(f: f64, n: f64, f_item: f64, n_total: f64, pr: CpProbs) -> f64 {
    let CpProbs { p1, q1, p2, q2 } = pr;
    let denom = (p1 - q1) * (p2 - q2);
    let denom2 = denom * denom;
    // Var of the raw pair count f̃: four Binomial populations.
    let c11 = p1 * p2; // (C, I) users
    let c12 = p1 * q2; // (C, I') users
    let c21 = q1 * p2; // (C', I) users
    let c22 = q1 * q2; // (C', I') users
    let var_raw = f * c11 * (1.0 - c11)
        + (n - f) * c12 * (1.0 - c12)
        + (f_item - f) * c21 * (1.0 - c21)
        + (n_total - n - (f_item - f)) * c22 * (1.0 - c22);
    let var_n_hat = (n * (p1 * (1.0 - p1) - q1 * (1.0 - q1)) + n_total * q1 * (1.0 - q1))
        / ((p1 - q1) * (p1 - q1));
    let var_item_hat = (f_item * (p2 * (1.0 - p2) - q2 * (1.0 - q2)) + n_total * q2 * (1.0 - q2))
        / ((p2 - q2) * (p2 - q2));
    (var_raw
        + q2 * q2 * (p1 - q1) * (p1 - q1) * var_n_hat
        + q1 * q1 * (p2 - q2) * (p2 - q2) * var_item_hat)
        / denom2
}

/// Exact variance of the PTS estimate Eq. (6), per user rather than per
/// counter.
///
/// Up to constants the estimate is `Σ_u X_u / ((p₁−q₁)(p₂−q₂))` with
/// `X = A·B − q₂·A − q₁·B`, where `A` (label reported as `C`) and `B` (bit
/// `I` set) are a user's independent Bernoulli(`a`) and Bernoulli(`b`)
/// draws. Users are independent, so the variance is the sum over the four
/// user populations — `(C, I)`, `(C, I′)`, `(C′, I)`, `(C′, I′)`, with
/// `(a, b)` = `(p₁, p₂)`, `(p₁, q₂)`, `(q₁, p₂)`, `(q₁, q₂)` — of
/// `Var X = ab(1 − 2q₁ − 2q₂ + 2q₁q₂) + q₂²a + q₁²b − (ab − q₂a − q₁b)²`.
/// This keeps the `f̃`–`n̂` and `f̃`–item-total covariances
/// [`pts_variance`] drops.
pub fn pts_variance_exact(f: f64, n: f64, f_item: f64, n_total: f64, pr: CpProbs) -> f64 {
    let CpProbs { p1, q1, p2, q2 } = pr;
    let var_x = |a: f64, b: f64| {
        let mean = a * b - q2 * a - q1 * b;
        a * b * (1.0 - 2.0 * q1 - 2.0 * q2 + 2.0 * q1 * q2) + q2 * q2 * a + q1 * q1 * b
            - mean * mean
    };
    let raw = f * var_x(p1, p2)
        + (n - f) * var_x(p1, q2)
        + (f_item - f) * var_x(q1, p2)
        + (n_total - n - f_item + f) * var_x(q1, q2);
    let denom = (p1 - q1) * (p2 - q2);
    raw / (denom * denom)
}

/// **Theorem 10** — the paper's lower bound on the variance gap
/// `Var[f̂]_{GRR+OUE} − Var[f̂]_{CP}` (positive ⇒ CP wins).
pub fn thm10_variance_gap_lower_bound(
    f: f64,
    n: f64,
    f_item: f64,
    n_total: f64,
    pr: CpProbs,
) -> f64 {
    let CpProbs { p1, q1, p2, q2 } = pr;
    let a = p1 * (1.0 - q2) * (p2 - q2);
    let term1 = ((n - f) * p1 * p1 * q2 * q2 * (1.0 - q2) * (1.0 - q2)
        + (n_total - n) * q1 * q2 * p2 * (1.0 - q1 * q2) * (1.0 - q1 * q2))
        / (a * a);
    let c2 = q1 * q2 * (1.0 - p2) / a;
    let term2 =
        c2 * c2 * (n * p1 * (1.0 - p1) + (n_total - n) * q1 * (1.0 - q1)) / ((p1 - q1) * (p1 - q1));
    let c3 = q1 / ((p1 - q1) * (p2 - q2));
    let term3 = c3 * c3 * (f_item * p2 * (1.0 - p2) + (n_total - f_item) * q2 * (1.0 - q2));
    term1 + term2 + term3
}

/// One row of **Table I**: the linear coefficients of `f(C,I)`, `n`, `N` in
/// Eq. (5). Computed with GRR over `classes` labels and OUE items at an even
/// ε split, matching the paper's setup (SYN1: 4 classes).
#[derive(Debug, Clone, Copy)]
pub struct VarianceCoefficients {
    /// Coefficient of the pair frequency `f(C, I)`.
    pub f_coef: f64,
    /// Coefficient of the class size `n`.
    pub n_coef: f64,
    /// Coefficient of the population size `N`.
    pub n_total_coef: f64,
}

/// Computes one Table I row by symbolic differentiation of Eq. (5) (the
/// equation is affine in `f`, `n`, `N`).
pub fn table1_coefficients(eps: Eps, classes: u32) -> Result<VarianceCoefficients> {
    let pr = CpProbs::even_split(eps, classes)?;
    // Evaluate the affine map at unit probes.
    let base = thm8_cp_variance(0.0, 0.0, 0.0, pr);
    let f_coef = thm8_cp_variance(1.0, 0.0, 0.0, pr) - base;
    let n_coef = thm8_cp_variance(0.0, 1.0, 0.0, pr) - base;
    let n_total_coef = thm8_cp_variance(0.0, 0.0, 1.0, pr) - base;
    Ok(VarianceCoefficients {
        f_coef,
        n_coef,
        n_total_coef,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validity::{ValidityInput, ValidityPerturbation, VpAggregator};
    use mcim_oracles::UnaryEncoding;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn eps(v: f64) -> Eps {
        Eps::new(v).unwrap()
    }

    #[test]
    fn thm4_matches_simulation() {
        // m invalid users substitute a random item and report through OUE.
        let d = 10u32;
        let m = 50_000usize;
        let e = eps(1.0);
        let pr = Probs::oue(e);
        let oue = UnaryEncoding::optimized(e, d).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let mut count0 = 0u64;
        for _ in 0..m {
            let fake = rng.random_range(0..d);
            if oue.privatize(fake, &mut rng).unwrap().get(0) {
                count0 += 1;
            }
        }
        let predicted = thm4_invalid_noise_mean(d, m as f64, pr);
        assert!(
            (count0 as f64 - predicted).abs() < 0.03 * predicted,
            "sim {count0} vs thm4 {predicted}"
        );
    }

    #[test]
    fn thm5_matches_simulation() {
        let d = 10u32;
        let m = 50_000usize;
        let e = eps(1.0);
        let pr = Probs::oue(e);
        let vp = ValidityPerturbation::new(e, d).unwrap();
        let mut agg = VpAggregator::new(&vp);
        let mut rng = StdRng::seed_from_u64(32);
        for _ in 0..m {
            agg.absorb(&vp.privatize(ValidityInput::Invalid, &mut rng).unwrap())
                .unwrap();
        }
        let predicted = thm5_vp_invalid_noise_mean(m as f64, pr);
        let sim = agg.raw_counts()[0] as f64;
        assert!(
            (sim - predicted).abs() < 0.05 * predicted,
            "sim {sim} vs thm5 {predicted}"
        );
    }

    #[test]
    fn thm5_noise_is_below_thm4() {
        for e in [0.5, 1.0, 2.0, 4.0] {
            let pr = Probs::oue(eps(e));
            for d in [4u32, 64, 1024] {
                let m = 1000.0;
                assert!(
                    thm5_vp_invalid_noise_mean(m, pr) < thm4_invalid_noise_mean(d, m, pr),
                    "e={e} d={d}"
                );
            }
        }
    }

    #[test]
    fn vp_variance_advantage_always_negative() {
        // §V-B claims the difference is always < 0.
        for e in [0.5f64, 1.0, 2.0, 4.0] {
            let pr = Probs::oue(eps(e));
            for d in [4u32, 100] {
                for (n1, n2, m) in [
                    (100.0, 900.0, 500.0),
                    (0.0, 0.0, 1000.0),
                    (1000.0, 0.0, 10.0),
                ] {
                    let diff = vp_variance_advantage(n1, n2, m, d, pr);
                    assert!(diff < 0.0, "e={e} d={d} n1={n1} n2={n2} m={m}: diff={diff}");
                }
            }
        }
    }

    #[test]
    fn thm6_thm7_match_simulation() {
        let d = 8u32;
        let e = eps(1.0);
        let pr = Probs::oue(e);
        let (n1, n2, m) = (6_000usize, 18_000usize, 12_000usize);
        let mut rng = StdRng::seed_from_u64(33);

        // Plain OUE with random substitution for invalid users.
        let oue = UnaryEncoding::optimized(e, d).unwrap();
        let mut count = 0u64;
        for u in 0..n1 + n2 + m {
            let item = if u < n1 {
                0
            } else if u < n1 + n2 {
                1 + (u % (d as usize - 1)) as u32
            } else {
                rng.random_range(0..d)
            };
            if oue.privatize(item, &mut rng).unwrap().get(0) {
                count += 1;
            }
        }
        let predicted6 = thm6_count_mean(n1 as f64, n2 as f64, m as f64, d, pr);
        assert!(
            (count as f64 - predicted6).abs() < 0.03 * predicted6,
            "thm6: sim {count} vs {predicted6}"
        );

        // VP.
        let vp = ValidityPerturbation::new(e, d).unwrap();
        let mut agg = VpAggregator::new(&vp);
        for u in 0..n1 + n2 + m {
            let input = if u < n1 {
                ValidityInput::Valid(0)
            } else if u < n1 + n2 {
                ValidityInput::Valid(1 + (u % (d as usize - 1)) as u32)
            } else {
                ValidityInput::Invalid
            };
            agg.absorb(&vp.privatize(input, &mut rng).unwrap()).unwrap();
        }
        let predicted7 = thm7_vp_count_mean(n1 as f64, n2 as f64, m as f64, pr);
        let sim7 = agg.raw_counts()[0] as f64;
        assert!(
            (sim7 - predicted7).abs() < 0.03 * predicted7,
            "thm7: sim {sim7} vs {predicted7}"
        );
    }

    #[test]
    fn table1_n_row_matches_paper() {
        // Paper Table I, the `n` coefficient: ε=1 → 58.9, ε=2 → 10.5
        // (c = 4, the SYN1 configuration). Our exact evaluation of Eq. (5)
        // reproduces these to the paper's displayed precision.
        let c1 = table1_coefficients(eps(1.0), 4).unwrap();
        assert!((c1.n_coef - 58.9).abs() < 0.2, "ε=1 n coef {}", c1.n_coef);
        let c2 = table1_coefficients(eps(2.0), 4).unwrap();
        assert!((c2.n_coef - 10.5).abs() < 0.2, "ε=2 n coef {}", c2.n_coef);
    }

    #[test]
    fn table1_coefficients_decrease_with_eps() {
        let mut prev = table1_coefficients(eps(0.5), 4).unwrap();
        for e in [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0] {
            let cur = table1_coefficients(eps(e), 4).unwrap();
            assert!(cur.f_coef < prev.f_coef, "f coef must fall with ε");
            assert!(cur.n_coef < prev.n_coef, "n coef must fall with ε");
            assert!(
                cur.n_total_coef < prev.n_total_coef,
                "N coef must fall with ε"
            );
            prev = cur;
        }
    }

    #[test]
    fn thm8_variance_matches_monte_carlo() {
        use crate::CorrelatedPerturbation;
        use crate::{Domains, LabelItem};
        // Small population, many trials: empirical Var[f̂] ≈ Eq. (5).
        let domains = Domains::new(4, 4).unwrap();
        let e = eps(2.0);
        let m = CorrelatedPerturbation::with_total(e, domains).unwrap();
        let pr = CpProbs::even_split(e, 4).unwrap();
        let n_total = 2000usize;
        let n_class = 800usize; // class 0 size
        let f = 500usize; // f(class 0, item 0)
        let trials = 400;
        let mut rng = StdRng::seed_from_u64(77);
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..trials {
            let mut agg = m.aggregator();
            for u in 0..n_total {
                let pair = if u < f {
                    LabelItem::new(0, 0)
                } else if u < n_class {
                    LabelItem::new(0, 1 + (u % 3) as u32)
                } else {
                    LabelItem::new(1 + (u % 3) as u32, (u % 4) as u32)
                };
                agg.absorb(&m.privatize(pair, &mut rng).unwrap()).unwrap();
            }
            let est = m.estimate(&agg).unwrap().get(0, 0);
            sum += est;
            sum_sq += est * est;
        }
        let mean = sum / trials as f64;
        let var = sum_sq / trials as f64 - mean * mean;
        let predicted = cp_variance_exact(f as f64, n_class as f64, n_total as f64, pr);
        // Unbiasedness: mean close to f within a few standard errors.
        let se = (predicted / trials as f64).sqrt();
        assert!(
            (mean - f as f64).abs() < 5.0 * se,
            "mean {mean} vs f {f} (se {se})"
        );
        // The exact form (Eq. (5) + the f̃–n̂ covariance) must match the
        // empirical variance within its sampling error (~7% relative SE for
        // a variance over 400 trials).
        assert!(
            (var - predicted).abs() < 0.15 * predicted,
            "var {var} vs predicted {predicted}"
        );
        // Eq. (5) itself drops that covariance, which only *adds* noise
        // terms: it must stay a (strict, here) upper bound.
        let simplified = thm8_cp_variance(f as f64, n_class as f64, n_total as f64, pr);
        assert!(
            simplified > var,
            "Eq. (5) {simplified} should upper-bound empirical {var}"
        );
    }

    #[test]
    fn pts_exact_variance_matches_monte_carlo() {
        use crate::frameworks::Pts;
        use crate::{Domains, LabelItem};
        use mcim_oracles::BitVec;
        // 3 classes × 4 items; item 0 is held inside and outside class 0,
        // so both covariances the simplified form drops are present.
        let domains = Domains::new(3, 4).unwrap();
        let e = eps(2.0);
        let fw = Pts::with_total(e, domains).unwrap();
        let pr = CpProbs::even_split(e, 3).unwrap();
        let (n_total, n_class, f, f_item) = (1000usize, 400usize, 250usize, 400usize);
        let pair = |u: usize| {
            if u < f {
                LabelItem::new(0, 0)
            } else if u < n_class {
                LabelItem::new(0, 1 + (u % 3) as u32)
            } else if u < n_class + f_item - f {
                LabelItem::new(1 + (u % 2) as u32, 0)
            } else {
                LabelItem::new(1 + (u % 2) as u32, 1 + (u % 3) as u32)
            }
        };
        let trials = 4000;
        let mut rng = StdRng::seed_from_u64(78);
        let mut report = crate::PairReport {
            label: 0,
            bits: BitVec::zeros(4),
        };
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..trials {
            let mut agg = fw.aggregator();
            for u in 0..n_total {
                fw.privatize_into(pair(u), &mut rng, &mut report).unwrap();
                agg.absorb(&report).unwrap();
            }
            let est = fw.estimate(&agg).unwrap().get(0, 0);
            sum += est;
            sum_sq += est * est;
        }
        let mean = sum / trials as f64;
        let var = sum_sq / trials as f64 - mean * mean;
        let args = (f as f64, n_class as f64, f_item as f64, n_total as f64);
        let exact = pts_variance_exact(args.0, args.1, args.2, args.3, pr);
        let se = (exact / trials as f64).sqrt();
        assert!(
            (mean - f as f64).abs() < 5.0 * se,
            "mean {mean} vs f {f} (se {se})"
        );
        // A variance over 4000 trials has ~2.2% relative SE.
        assert!(
            (var - exact).abs() < 0.08 * exact,
            "var {var} vs exact {exact}"
        );
        // The independence form only drops negative covariance terms.
        let bound = pts_variance(args.0, args.1, args.2, args.3, pr);
        assert!(bound >= var, "bound {bound} vs empirical {var}");
        assert!(bound >= exact, "bound {bound} vs exact {exact}");
    }

    #[test]
    fn thm10_gap_is_positive() {
        for e in [0.5, 1.0, 2.0, 4.0] {
            let pr = CpProbs::even_split(eps(e), 4).unwrap();
            let gap = thm10_variance_gap_lower_bound(1e3, 1e5, 5e3, 1e6, pr);
            assert!(gap > 0.0, "ε={e}: gap {gap}");
        }
    }

    #[test]
    fn cp_beats_pts_in_analytic_variance() {
        // The actual comparison behind Theorem 10: our derived PTS variance
        // exceeds the CP variance across budgets.
        for e in [0.5, 1.0, 2.0, 4.0] {
            let pr = CpProbs::even_split(eps(e), 4).unwrap();
            let (f, n, f_item, n_total) = (1e3, 1e5, 5e3, 1e6);
            let cp = thm8_cp_variance(f, n, n_total, pr);
            let pts = pts_variance(f, n, f_item, n_total, pr);
            assert!(pts > cp, "ε={e}: pts {pts} vs cp {cp}");
            // And with both covariances kept.
            let pts = pts_variance_exact(f, n, f_item, n_total, pr);
            let cp = cp_variance_exact(f, n, n_total, pr);
            assert!(pts > cp, "ε={e}: exact pts {pts} vs exact cp {cp}");
        }
    }
}
