//! Optimal Local Hashing (OLH).
//!
//! Each user hashes their item into a small domain `g = ⌊e^ε⌋ + 1` with a
//! per-user seed, then runs GRR(ε) over the hashed domain and reports
//! `(seed, perturbed hash)`. Server-side, value `v` is *supported* by a
//! report whenever `hash(seed, v) == reported`, which happens with
//! probability `p* = p` for the true value and `q* = 1/g` for others (the
//! flipped-hash mass collapses to `1/g` in expectation).
//!
//! OLH matches OUE's variance with `O(log d)`-bit reports; the paper cites
//! it as the other state-of-the-art oracle (§VIII). The paper's experiments
//! use OUE/GRR, so OLH here serves the related-work comparison benches.

use rand::Rng;

use crate::hash::{seeded_hash, seeded_hash_from_state, seeded_hash_state};
use crate::{Eps, Error, Grr, Result};

/// A single OLH report: the user's hash seed and the GRR-perturbed hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OlhReport {
    /// Per-user hash seed (public).
    pub seed: u64,
    /// GRR-perturbed hash value in `[0, g)`.
    pub value: u32,
}

/// The Optimal Local Hashing mechanism over the domain `[0, d)`.
#[derive(Debug, Clone)]
pub struct Olh {
    d: u32,
    g: u32,
    inner: Grr,
}

impl Olh {
    /// Creates an OLH mechanism with the optimal hash range `g = ⌊e^ε⌋+1`.
    pub fn new(eps: Eps, d: u32) -> Result<Self> {
        if d == 0 {
            return Err(Error::EmptyDomain);
        }
        // Guard the cast: beyond ~2^31, g stops mattering and GRR would be
        // chosen by the adaptive rule anyway. The `as` cast saturates at
        // u64::MAX (ε ≥ 64·ln 2), so the `+ 1` saturates too.
        let g = (eps.exp().floor() as u64)
            .saturating_add(1)
            .min(u32::MAX as u64) as u32;
        let g = g.max(2);
        Ok(Olh {
            d,
            g,
            inner: Grr::new(eps, g)?,
        })
    }

    /// Item domain size.
    #[inline]
    pub fn domain_size(&self) -> u32 {
        self.d
    }

    /// Hash range `g`.
    #[inline]
    pub fn g(&self) -> u32 {
        self.g
    }

    /// Probability a report supports its own true value.
    #[inline]
    pub fn support_p(&self) -> f64 {
        self.inner.p()
    }

    /// Probability a report supports an unrelated value.
    #[inline]
    pub fn support_q(&self) -> f64 {
        1.0 / self.g as f64
    }

    /// Report size in bits: 64-bit seed + hashed value.
    #[inline]
    pub fn report_bits(&self) -> usize {
        64 + (32 - (self.g - 1).leading_zeros()).max(1) as usize
    }

    /// Privatizes item `v` with a fresh random seed.
    pub fn privatize<R: Rng + ?Sized>(&self, v: u32, rng: &mut R) -> Result<OlhReport> {
        if v >= self.d {
            return Err(Error::ValueOutOfDomain {
                value: v as u64,
                domain: self.d as u64,
            });
        }
        let seed: u64 = rng.random();
        let hashed = seeded_hash(seed, v as u64, self.g as u64) as u32;
        Ok(OlhReport {
            seed,
            value: self.inner.perturb(hashed, rng)?,
        })
    }

    /// Whether `report` supports domain value `v`.
    #[inline]
    pub fn supports(&self, report: &OlhReport, v: u32) -> bool {
        seeded_hash(report.seed, v as u64, self.g as u64) as u32 == report.value
    }

    /// Adds `report`'s support over the full domain into `counts[v]`,
    /// hoisting the per-seed hash state out of the candidate scan (the
    /// blocked aggregation path — half the mixing work of calling
    /// [`Olh::supports`] per value).
    ///
    /// # Panics
    /// Panics if `counts.len() != d`.
    pub fn support_counts_into(&self, report: &OlhReport, counts: &mut [u64]) {
        assert_eq!(
            counts.len(),
            self.d as usize,
            "counts slice must cover the item domain"
        );
        let state = seeded_hash_state(report.seed);
        let g = self.g as u64;
        let target = report.value as u64;
        for (v, c) in counts.iter_mut().enumerate() {
            *c += u64::from(seeded_hash_from_state(state, v as u64, g) == target);
        }
    }

    /// Adds a whole block of reports' support over the full domain into
    /// `counts` — [`Olh::support_counts_into`] with the per-report seed
    /// states hoisted four at a time.
    ///
    /// Each pass pre-mixes four reports' seed states and perturbed-hash
    /// targets into registers ("hash each seed once into its `g`-bucket
    /// scatter state") and then scans the domain once, scattering all four
    /// reports' candidate matches per value with a single counter
    /// read-modify-write. The four hash chains are independent, so the
    /// scan runs at mixer throughput instead of one
    /// load→hash→compare→store round-trip per (report, value) pair, and
    /// `counts` traffic drops 4×. Totals are exact `u64` sums — identical
    /// to absorbing the reports one by one in any order.
    ///
    /// # Panics
    /// Panics if `counts.len() != d`.
    pub fn support_counts_block_into(&self, reports: &[OlhReport], counts: &mut [u64]) {
        assert_eq!(
            counts.len(),
            self.d as usize,
            "counts slice must cover the item domain"
        );
        let g = self.g as u64;
        let mut quads = reports.chunks_exact(4);
        for quad in &mut quads {
            let (s0, t0) = (seeded_hash_state(quad[0].seed), quad[0].value as u64);
            let (s1, t1) = (seeded_hash_state(quad[1].seed), quad[1].value as u64);
            let (s2, t2) = (seeded_hash_state(quad[2].seed), quad[2].value as u64);
            let (s3, t3) = (seeded_hash_state(quad[3].seed), quad[3].value as u64);
            for (v, c) in counts.iter_mut().enumerate() {
                let v = v as u64;
                *c += u64::from(seeded_hash_from_state(s0, v, g) == t0)
                    + u64::from(seeded_hash_from_state(s1, v, g) == t1)
                    + u64::from(seeded_hash_from_state(s2, v, g) == t2)
                    + u64::from(seeded_hash_from_state(s3, v, g) == t3);
            }
        }
        for report in quads.remainder() {
            self.support_counts_into(report, counts);
        }
    }

    /// Support counts of a block of reports over an explicit candidate set:
    /// `counts[i]` = number of reports supporting `candidates[i]`. Reports
    /// are scanned once each with a pre-mixed seed state, so the cost is
    /// `O(|reports|·|candidates|)` single-round hashes instead of
    /// re-deriving the seed state per (report, candidate) pair.
    pub fn support_counts(&self, reports: &[OlhReport], candidates: &[u32]) -> Vec<u64> {
        let g = self.g as u64;
        let mut counts = vec![0u64; candidates.len()];
        for report in reports {
            let state = seeded_hash_state(report.seed);
            let target = report.value as u64;
            for (&v, c) in candidates.iter().zip(counts.iter_mut()) {
                *c += u64::from(seeded_hash_from_state(state, v as u64, g) == target);
            }
        }
        counts
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
    fn g_matches_formula() {
        assert_eq!(Olh::new(eps(1.0), 100).unwrap().g(), 3); // floor(e)+1
        assert_eq!(Olh::new(eps(2.0), 100).unwrap().g(), 8); // floor(e²)+1

        // ⌊e^ε⌋ passes u64::MAX from ε = 64·ln 2 ≈ 44.4 on: the `+ 1`
        // saturates and g stays at its u32 cap instead of wrapping to 2.
        for e in [44.0, 44.5, 710.0, f64::MAX] {
            assert_eq!(Olh::new(eps(e), 100).unwrap().g(), u32::MAX, "ε={e}");
        }
    }

    #[test]
    fn support_probabilities_empirical() {
        let m = Olh::new(eps(1.0), 50).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 50_000;
        let mut own = 0usize;
        let mut other = 0usize;
        for _ in 0..n {
            let r = m.privatize(7, &mut rng).unwrap();
            if m.supports(&r, 7) {
                own += 1;
            }
            if m.supports(&r, 8) {
                other += 1;
            }
        }
        let own_rate = own as f64 / n as f64;
        let other_rate = other as f64 / n as f64;
        assert!(
            (own_rate - m.support_p()).abs() < 0.01,
            "own {own_rate} vs p* {}",
            m.support_p()
        );
        assert!(
            (other_rate - m.support_q()).abs() < 0.01,
            "other {other_rate} vs q* {}",
            m.support_q()
        );
    }

    #[test]
    fn unbiased_estimate_end_to_end() {
        use crate::calibrate::unbiased_count;
        let d = 20u32;
        let m = Olh::new(eps(2.0), d).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let n = 40_000usize;
        // 70% hold item 2, 30% item 9.
        let mut support = vec![0f64; d as usize];
        for u in 0..n {
            let item = if u % 10 < 7 { 2 } else { 9 };
            let r = m.privatize(item, &mut rng).unwrap();
            for v in 0..d {
                if m.supports(&r, v) {
                    support[v as usize] += 1.0;
                }
            }
        }
        let est2 = unbiased_count(support[2], n as f64, m.support_p(), m.support_q());
        let est9 = unbiased_count(support[9], n as f64, m.support_p(), m.support_q());
        assert!(
            (est2 - 0.7 * n as f64).abs() < 0.05 * n as f64,
            "est2={est2}"
        );
        assert!(
            (est9 - 0.3 * n as f64).abs() < 0.05 * n as f64,
            "est9={est9}"
        );
    }

    #[test]
    fn blocked_support_counting_matches_supports() {
        let m = Olh::new(eps(1.5), 40).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let reports: Vec<OlhReport> = (0..200)
            .map(|v| m.privatize(v % 40, &mut rng).unwrap())
            .collect();
        // Reference: the per-pair `supports` scan.
        let mut expect = vec![0u64; 40];
        for r in &reports {
            for v in 0..40u32 {
                if m.supports(r, v) {
                    expect[v as usize] += 1;
                }
            }
        }
        // Full-domain blocked path.
        let mut got = vec![0u64; 40];
        for r in &reports {
            m.support_counts_into(r, &mut got);
        }
        assert_eq!(got, expect);
        // Four-wide scatter path, at block sizes exercising both the quad
        // loop and the remainder tail.
        for take in [0usize, 1, 3, 4, 5, 199, 200] {
            let mut block = vec![0u64; 40];
            m.support_counts_block_into(&reports[..take], &mut block);
            let mut reference = vec![0u64; 40];
            for r in &reports[..take] {
                m.support_counts_into(r, &mut reference);
            }
            assert_eq!(block, reference, "block of {take}");
        }
        // Candidate-set blocked path over a subset.
        let cands: Vec<u32> = vec![0, 7, 13, 39];
        let sub = m.support_counts(&reports, &cands);
        for (i, &v) in cands.iter().enumerate() {
            assert_eq!(sub[i], expect[v as usize], "candidate {v}");
        }
    }

    #[test]
    fn rejects_out_of_domain() {
        let m = Olh::new(eps(1.0), 4).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(m.privatize(4, &mut rng).is_err());
    }

    #[test]
    fn report_bits_accounting() {
        let m = Olh::new(eps(1.0), 1000).unwrap(); // g = 3 → 2 bits + 64 seed
        assert_eq!(m.report_bits(), 66);
    }
}
