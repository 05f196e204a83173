//! Generalized Random Response (GRR), a.k.a. k-RR / direct encoding.
//!
//! Given an item `v` from a domain of size `d` and budget ε (§II-B):
//!
//! ```text
//! Pr[GRR(v) = v]  = p = e^ε / (e^ε + d − 1)
//! Pr[GRR(v) = v′] = q = 1   / (e^ε + d − 1)   for every v′ ≠ v
//! ```
//!
//! GRR transmits `⌈log₂ d⌉` bits and beats unary encoding when the domain is
//! small (`d < 3e^ε + 2`, the adaptive rule). The paper uses GRR for *label*
//! perturbation in the PTS framework and inside correlated perturbation.

use rand::Rng;

use crate::bitvec::Threshold;
use crate::{Eps, Error, Result};

/// The Generalized Random Response mechanism over the domain `[0, d)`.
#[derive(Debug, Clone)]
pub struct Grr {
    d: u32,
    eps: Eps,
    p: f64,
    q: f64,
    /// The keep decision's Bernoulli(`p`) draw.
    keep: Threshold,
}

impl Grr {
    /// Creates a GRR mechanism for domain size `d ≥ 1`.
    ///
    /// With `d == 1` the output is constant (and trivially private).
    /// Past ε ≈ 709.8, `e^ε` overflows and `p`'s formula is `∞/∞`; the
    /// mechanism then takes its limit `p = 1` (`q = 1/∞ = 0` already).
    pub fn new(eps: Eps, d: u32) -> Result<Self> {
        if d == 0 {
            return Err(Error::EmptyDomain);
        }
        let e = eps.exp();
        let denom = e + d as f64 - 1.0;
        let p = if e.is_finite() { e / denom } else { 1.0 };
        Ok(Grr {
            d,
            eps,
            p,
            q: 1.0 / denom,
            keep: Threshold::new(p),
        })
    }

    /// Domain size.
    #[inline]
    pub fn domain_size(&self) -> u32 {
        self.d
    }

    /// Probability of keeping the true value.
    #[inline]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Probability of reporting any particular other value.
    #[inline]
    pub fn q(&self) -> f64 {
        self.q
    }

    /// The privacy budget this mechanism satisfies.
    #[inline]
    pub fn eps(&self) -> Eps {
        self.eps
    }

    /// Report size in bits (communication accounting).
    #[inline]
    pub fn report_bits(&self) -> usize {
        (32 - (self.d.max(1) - 1).leading_zeros()).max(1) as usize
    }

    /// Perturbs `v`, keeping it with probability `p` and otherwise replacing
    /// it with a uniform draw from the *other* `d − 1` values.
    pub fn perturb<R: Rng + ?Sized>(&self, v: u32, rng: &mut R) -> Result<u32> {
        if v >= self.d {
            return Err(Error::ValueOutOfDomain {
                value: v as u64,
                domain: self.d as u64,
            });
        }
        if self.d == 1 {
            return Ok(0);
        }
        if self.keep.draw(rng) {
            Ok(v)
        } else {
            // Uniform over the d−1 values ≠ v: draw in [0, d−1) and skip v.
            let r = rng.random_range(0..self.d - 1);
            Ok(if r >= v { r + 1 } else { r })
        }
    }

    /// Exact probability that input `v` produces output `out` — used by the
    /// privacy-enumeration tests and the analysis module.
    pub fn response_probability(&self, v: u32, out: u32) -> f64 {
        if self.d == 1 {
            return 1.0;
        }
        if v == out {
            self.p
        } else {
            self.q
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eps(v: f64) -> Eps {
        Eps::new(v).unwrap()
    }

    #[test]
    fn probabilities_sum_to_one() {
        let g = Grr::new(eps(1.3), 17).unwrap();
        let total = g.p() + 16.0 * g.q();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn satisfies_ldp_ratio() {
        for (e, d) in [(0.5, 4u32), (1.0, 10), (4.0, 100)] {
            let g = Grr::new(eps(e), d).unwrap();
            // Worst case ratio over outputs for any pair of inputs is p/q.
            assert!(g.p() / g.q() <= e.exp() * (1.0 + 1e-12));
            assert!(
                (g.p() / g.q() - e.exp()).abs() < 1e-9,
                "GRR should be tight"
            );
        }
    }

    #[test]
    fn rejects_empty_domain_and_oob_values() {
        assert!(Grr::new(eps(1.0), 0).is_err());
        let g = Grr::new(eps(1.0), 5).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(g.perturb(5, &mut rng).is_err());
        assert!(g.perturb(4, &mut rng).is_ok());
    }

    #[test]
    fn singleton_domain_is_constant() {
        let g = Grr::new(eps(1.0), 1).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(g.perturb(0, &mut rng).unwrap(), 0);
    }

    #[test]
    fn empirical_distribution_matches_p_q() {
        let g = Grr::new(eps(2.0), 8).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 200_000;
        let mut counts = [0u32; 8];
        for _ in 0..n {
            counts[g.perturb(3, &mut rng).unwrap() as usize] += 1;
        }
        let kept = counts[3] as f64 / n as f64;
        assert!((kept - g.p()).abs() < 0.005, "kept={kept} p={}", g.p());
        for (v, &c) in counts.iter().enumerate() {
            if v != 3 {
                let rate = c as f64 / n as f64;
                assert!(
                    (rate - g.q()).abs() < 0.005,
                    "v={v} rate={rate} q={}",
                    g.q()
                );
            }
        }
    }

    #[test]
    fn flip_is_uniform_over_other_values() {
        // Condition on "value changed": every other value equally likely.
        let g = Grr::new(eps(0.1), 5).unwrap(); // low eps → mostly flips
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u32; 5];
        let n = 100_000;
        for _ in 0..n {
            counts[g.perturb(2, &mut rng).unwrap() as usize] += 1;
        }
        let others: Vec<u32> = (0..5).filter(|&v| v != 2).map(|v| counts[v]).collect();
        let mean = others.iter().sum::<u32>() as f64 / 4.0;
        for &c in &others {
            assert!((c as f64 - mean).abs() < mean * 0.05);
        }
    }

    #[test]
    fn report_bits_counts_domain_width() {
        assert_eq!(Grr::new(eps(1.0), 2).unwrap().report_bits(), 1);
        assert_eq!(Grr::new(eps(1.0), 3).unwrap().report_bits(), 2);
        assert_eq!(Grr::new(eps(1.0), 256).unwrap().report_bits(), 8);
        assert_eq!(Grr::new(eps(1.0), 257).unwrap().report_bits(), 9);
    }

    #[test]
    fn response_probability_enumerates_exactly() {
        let g = Grr::new(eps(1.0), 4).unwrap();
        for v in 0..4 {
            let total: f64 = (0..4).map(|o| g.response_probability(v, o)).sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }
}
