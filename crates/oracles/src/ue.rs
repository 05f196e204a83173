//! Unary encoding (one-hot) mechanisms: SUE and OUE.
//!
//! An item `v ∈ [0, d)` is encoded as a `d`-bit one-hot vector; each bit is
//! flipped independently (§II-B):
//!
//! ```text
//! Pr[B′[i] = 1] = p  if B[i] = 1
//! Pr[B′[i] = 1] = q  if B[i] = 0
//! ```
//!
//! * **Symmetric UE (SUE / basic RAPPOR)**: `p = e^{ε/2}/(e^{ε/2}+1)`,
//!   `q = 1 − p`.
//! * **Optimized UE (OUE)**: `p = 1/2`, `q = 1/(e^ε+1)` — minimizes the
//!   estimator variance for rare values (Wang et al.).
//!
//! Both satisfy ε-LDP with `ε = ln[p(1−q) / ((1−p)q)]` (Theorem 1 of the
//! paper, which re-uses this bound for validity perturbation).

use rand::Rng;

use crate::bitvec::{Threshold, WordwisePlan};
use crate::{BitVec, Eps, Error, Result};

/// Which UE parameterization to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UeKind {
    /// Symmetric flip probabilities (`p + q = 1`).
    Symmetric,
    /// Optimized-for-variance probabilities (`p = 1/2`).
    Optimized,
}

/// A unary-encoding mechanism over the domain `[0, d)`.
#[derive(Debug, Clone)]
pub struct UnaryEncoding {
    d: u32,
    eps: Eps,
    kind: UeKind,
    p: f64,
    q: f64,
    /// The Bernoulli(`q`) noise-plane sampler, planned at construction.
    plane: PlaneSampler,
    /// The hot bit's Bernoulli(`p`) draw.
    hot: Threshold,
}

impl UnaryEncoding {
    fn new(eps: Eps, d: u32, kind: UeKind, p: f64, q: f64) -> Result<Self> {
        if d == 0 {
            return Err(Error::EmptyDomain);
        }
        Ok(UnaryEncoding {
            d,
            eps,
            kind,
            p,
            q,
            plane: PlaneSampler::new(q),
            hot: Threshold::new(p),
        })
    }

    /// Creates an **OUE** mechanism (`p = 1/2`, `q = 1/(e^ε+1)`).
    pub fn optimized(eps: Eps, d: u32) -> Result<Self> {
        Self::new(eps, d, UeKind::Optimized, 0.5, 1.0 / (eps.exp() + 1.0))
    }

    /// Creates a **SUE** mechanism (`p = e^{ε/2}/(e^{ε/2}+1)`, `q = 1 − p`).
    ///
    /// Past ε ≈ 1419.6, `e^{ε/2}` overflows and the formula is `∞/∞`; the
    /// mechanism then takes its limit `p = 1`, `q = 0`.
    pub fn symmetric(eps: Eps, d: u32) -> Result<Self> {
        let half = (eps.value() / 2.0).exp();
        let p = if half.is_finite() {
            half / (half + 1.0)
        } else {
            1.0
        };
        Self::new(eps, d, UeKind::Symmetric, p, 1.0 - p)
    }

    /// Domain size.
    #[inline]
    pub fn domain_size(&self) -> u32 {
        self.d
    }

    /// Probability a set bit stays set.
    #[inline]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Probability a clear bit becomes set.
    #[inline]
    pub fn q(&self) -> f64 {
        self.q
    }

    /// The nominal privacy budget.
    #[inline]
    pub fn eps(&self) -> Eps {
        self.eps
    }

    /// Which parameterization this mechanism uses.
    #[inline]
    pub fn kind(&self) -> UeKind {
        self.kind
    }

    /// The exact ε this mechanism satisfies: `ln[p(1−q)/((1−p)q)]`.
    pub fn effective_eps(&self) -> f64 {
        ((self.p * (1.0 - self.q)) / ((1.0 - self.p) * self.q)).ln()
    }

    /// Report size in bits.
    #[inline]
    pub fn report_bits(&self) -> usize {
        self.d as usize
    }

    /// Encodes and perturbs item `v`.
    ///
    /// Draws its Bernoulli(`q`) noise plane through the shared contract
    /// sampler, so a per-report loop over `privatize` consumes the RNG
    /// stream exactly like [`UnaryEncoding::privatize_into`] — the
    /// in-process and distributed folds reproduce this output bit-for-bit
    /// from the same `(stage_seed, shard)` stream.
    pub fn privatize<R: Rng + ?Sized>(&self, v: u32, rng: &mut R) -> Result<BitVec> {
        let mut bits = BitVec::zeros(self.d as usize);
        self.privatize_into(v, rng, &mut bits)?;
        Ok(bits)
    }

    /// Encodes and perturbs item `v` into `out`, reusing its allocation.
    ///
    /// This is the allocation-free twin of [`UnaryEncoding::privatize`]:
    /// both draw the Bernoulli(`q`) noise plane through the same
    /// contract sampler (word-parallel for dense `q` — no `ln` per set
    /// bit, 8.25 RNG words per 64 output bits on average; geometric
    /// skipping below [`UnaryEncoding::WORDWISE_MIN_Q`]), then one `p`
    /// draw for the hot bit. Identical inputs and RNG state produce identical outputs *and*
    /// identical post-call RNG states on either entry point.
    ///
    /// `out` is resized (reallocated) only when its length differs from
    /// `d`; streaming absorbers reuse one scratch report per worker and
    /// privatize with zero steady-state allocation.
    pub fn privatize_into<R: Rng + ?Sized>(
        &self,
        v: u32,
        rng: &mut R,
        out: &mut BitVec,
    ) -> Result<()> {
        if v >= self.d {
            return Err(Error::ValueOutOfDomain {
                value: v as u64,
                domain: self.d as u64,
            });
        }
        if out.len() != self.d as usize {
            *out = BitVec::zeros(self.d as usize);
        }
        self.plane.fill(out, rng);
        out.set(v as usize, self.hot.draw(rng));
        Ok(())
    }

    /// Probability at and above which the contract's plane sampler goes
    /// word-parallel (RNG contract v4; v2 and v3 used 1/16).
    ///
    /// The bit-sliced sampler costs a flat 8.25 RNG words per output word.
    /// Geometric skipping costs one draw and one `ln` per set bit (`64·q`
    /// per word) plus a fixed `ln_1p` per plane, which weighs most on
    /// short planes. The crossover sweep of the `oracle_throughput` bench
    /// (`plane_sampler_crossover` in `BENCH_oracle_throughput.json`,
    /// shared 2-core VM) measured, in ns per 64 output bits, word-parallel
    /// vs geometric at `q = 2⁻ᵏ·(1 + 2⁻⁴⁰)` (a full expansion, so the
    /// word-parallel side pays its fix-up draws as a mechanism's `q` does):
    ///
    /// | plane | q ≈ 2⁻⁵ | q ≈ 2⁻⁶ | q ≈ 2⁻⁷ | q ≈ 2⁻⁸ |
    /// |---|---|---|---|---|
    /// | 65 bits (PTS-CP at d = 64) | 40 vs 102 | 41 vs 84 | 36 vs 50 | 34 vs 34 |
    /// | 1024 bits | 17 vs 37 | 16 vs 21 | 16 vs 12 | 16 vs 8 |
    ///
    /// Over seven runs, word-parallel won at `2⁻⁶` on both lengths every
    /// time and geometric won at `2⁻⁷` on 1024-bit planes every time;
    /// 65-bit planes cross near `2⁻⁸`. 2⁻⁶ is the lowest threshold at
    /// which word-parallel never loses on either length. 65-bit planes in
    /// `[2⁻⁸, 2⁻⁶)` stay geometric, as under v3, and give up up to ~2×
    /// just below 2⁻⁶; a threshold on `q` alone cannot serve both lengths
    /// there.
    pub const WORDWISE_MIN_Q: f64 = 1.0 / 64.0;

    /// Perturbs an *already encoded* bit vector of length `d`, which may
    /// have any number of bits set.
    ///
    /// For a one-hot encoding on the sparse path below (always, for OUE's
    /// `p = 1/2` at `d ≥ 2`) this draws exactly what
    /// [`UnaryEncoding::privatize_into`] draws at the hot position — which
    /// is how the paper's validity perturbation privatizes its `d+1`-bit
    /// one-hot encodings without building them.
    ///
    /// The Bernoulli(`q`) noise plane comes from the shared contract
    /// sampler (word-parallel for dense `q`, geometric below
    /// [`UnaryEncoding::WORDWISE_MIN_Q`]). Set bits get one draw each
    /// while the encoding is sparse (the one-hot case), and a contract
    /// Bernoulli(`p`) mask once the per-bit draws would cost more than
    /// sampling the mask — so the RNG cost is `O(d·min(q + p, q + 1 − p))`
    /// draws even for dense inputs, never a per-bit loop over the whole
    /// domain. The sparse/dense branch depends only on the encoding and
    /// the mechanism parameters, so identical inputs consume the RNG
    /// stream identically in every execution mode.
    pub fn perturb_bits<R: Rng + ?Sized>(&self, encoded: &BitVec, rng: &mut R) -> Result<BitVec> {
        if encoded.len() != self.d as usize {
            return Err(Error::ReportMismatch {
                expected: "bit vector of the mechanism's domain length",
            });
        }
        let mut out = BitVec::zeros(encoded.len());
        self.plane.fill(&mut out, rng);
        let ones = encoded.count_ones();
        // The mask samples ~len·min(p, 1−p) effective density; the
        // per-bit path draws exactly `ones`.
        let mask_cost = encoded.len() as f64 * self.p.min(1.0 - self.p);
        if (ones as f64) <= mask_cost {
            for i in encoded.iter_ones() {
                out.set(i, self.hot.draw(rng));
            }
        } else {
            let mut keep = BitVec::zeros(encoded.len());
            if self.p <= 0.5 {
                PlaneSampler::new(self.p).fill(&mut keep, rng);
            } else {
                // Sample the (rarer) drops and complement.
                PlaneSampler::new(1.0 - self.p).fill(&mut keep, rng);
                keep.toggle_all();
            }
            out.merge_masked(encoded, &keep);
        }
        Ok(out)
    }

    /// Exact probability of producing output vector `out` from input item
    /// `v` — for privacy-enumeration tests (small `d` only: O(d) here, the
    /// caller enumerates `2^d` outputs).
    pub fn response_probability(&self, v: u32, out: &BitVec) -> f64 {
        assert_eq!(out.len(), self.d as usize);
        let mut prob = 1.0;
        for i in 0..self.d as usize {
            let bit = out.get(i);
            let keep_prob = if i == v as usize { self.p } else { self.q };
            prob *= if bit { keep_prob } else { 1.0 - keep_prob };
        }
        prob
    }
}

/// A Bernoulli(`q`) plane sampler planned once — **the** RNG-contract
/// sampler every UE path shares.
///
/// Word-parallel ([`BitVec::fill_bernoulli_wordwise`]'s draw order, its
/// expansion and step masks computed here once) when `q` is dense enough
/// for the bit-sliced sampler to beat geometric skipping, geometric
/// ([`BitVec::fill_bernoulli`]) below [`UnaryEncoding::WORDWISE_MIN_Q`].
/// Because the cross-over depends only on `q` (a mechanism parameter,
/// never on data), every execution mode picks the same branch and
/// consumes the RNG stream identically — this is what keeps
/// single-report, streamed and distributed outputs bit-identical.
#[derive(Debug, Clone)]
enum PlaneSampler {
    Wordwise(WordwisePlan),
    /// `q` below the cross-over, or a constant fill (`q ≤ 0`, `q ≥ 1`).
    Geometric(f64),
}

impl PlaneSampler {
    fn new(q: f64) -> Self {
        match WordwisePlan::new(q) {
            Some(plan) if q >= UnaryEncoding::WORDWISE_MIN_Q => PlaneSampler::Wordwise(plan),
            _ => PlaneSampler::Geometric(q),
        }
    }

    /// Overwrites `out` with an i.i.d. Bernoulli(`q`) plane.
    #[inline]
    fn fill<R: Rng + ?Sized>(&self, out: &mut BitVec, rng: &mut R) {
        match self {
            PlaneSampler::Wordwise(plan) => plan.fill(out, rng),
            PlaneSampler::Geometric(q) => out.fill_bernoulli(*q, rng),
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
    fn oue_parameters() {
        let m = UnaryEncoding::optimized(eps(1.0), 10).unwrap();
        assert_eq!(m.p(), 0.5);
        assert!((m.q() - 1.0 / (1f64.exp() + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn sue_parameters_are_symmetric() {
        let m = UnaryEncoding::symmetric(eps(2.0), 10).unwrap();
        assert!((m.p() + m.q() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn effective_eps_matches_nominal() {
        for e in [0.5, 1.0, 2.0, 4.0] {
            for m in [
                UnaryEncoding::optimized(eps(e), 5).unwrap(),
                UnaryEncoding::symmetric(eps(e), 5).unwrap(),
            ] {
                assert!(
                    (m.effective_eps() - e).abs() < 1e-9,
                    "kind {:?} e={e} got {}",
                    m.kind(),
                    m.effective_eps()
                );
            }
        }
    }

    #[test]
    fn privatize_rejects_out_of_domain() {
        let m = UnaryEncoding::optimized(eps(1.0), 4).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(m.privatize(4, &mut rng).is_err());
    }

    #[test]
    fn privatize_bit_rates() {
        let m = UnaryEncoding::optimized(eps(1.0), 64).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let mut set_true = 0usize;
        let mut set_false = 0usize;
        for _ in 0..n {
            let bits = m.privatize(7, &mut rng).unwrap();
            if bits.get(7) {
                set_true += 1;
            }
            set_false += bits.count_ones() - usize::from(bits.get(7));
        }
        let p_hat = set_true as f64 / n as f64;
        let q_hat = set_false as f64 / (n * 63) as f64;
        assert!((p_hat - m.p()).abs() < 0.02, "p_hat={p_hat}");
        assert!((q_hat - m.q()).abs() < 0.005, "q_hat={q_hat}");
    }

    #[test]
    fn privatize_and_privatize_into_share_one_rng_stream() {
        // The RNG-contract invariant: both entry points draw through
        // the same plane sampler, so equal seeds give equal outputs AND
        // equal post-call RNG states — on either side of the
        // WORDWISE_MIN_Q cross-over.
        let cases = [
            UnaryEncoding::optimized(eps(1.0), 96).unwrap(), // dense q
            UnaryEncoding::symmetric(eps(0.5), 96).unwrap(), // dense q
            // q ≈ 0.047: a PTS-CP plane at ε₂ = 3, d = 64 — word-parallel
            // since contract v4 (geometric under 1/16).
            UnaryEncoding::optimized(eps(3.0), 65).unwrap(),
            UnaryEncoding::optimized(eps(6.0), 96).unwrap(), // sparse q
        ];
        let wordwise = cases
            .iter()
            .filter(|m| m.q() >= UnaryEncoding::WORDWISE_MIN_Q)
            .count();
        assert_eq!(wordwise, 3, "both sampler branches must stay covered");
        for m in cases {
            let d = m.domain_size();
            let mut a = StdRng::seed_from_u64(77);
            let mut b = StdRng::seed_from_u64(77);
            let mut out = BitVec::zeros(d as usize);
            for v in 0..200u32 {
                let bits = m.privatize(v % d, &mut a).unwrap();
                m.privatize_into(v % d, &mut b, &mut out).unwrap();
                assert_eq!(bits, out, "kind {:?} d={d} v={v}", m.kind());
            }
            assert_eq!(
                a.random::<u64>(),
                b.random::<u64>(),
                "RNG states diverged for kind {:?}",
                m.kind()
            );
        }
    }

    #[test]
    fn fill_plane_switches_sampler_at_wordwise_min_q() {
        // Contract v4's crossover: planes with q ≥ 1/64 are drawn
        // word-parallel, sparser ones by geometric skipping.
        let m = UnaryEncoding::optimized(eps(3.0), 65).unwrap();
        let min_q = UnaryEncoding::WORDWISE_MIN_Q;
        assert!(matches!(m.plane, PlaneSampler::Wordwise(_)));
        for (q, wordwise) in [(m.q(), true), (min_q, true), (min_q * 0.999, false)] {
            let mut a = StdRng::seed_from_u64(5);
            let mut b = StdRng::seed_from_u64(5);
            let (mut plane, mut raw) = (BitVec::zeros(65), BitVec::zeros(65));
            let sampler = PlaneSampler::new(q);
            for _ in 0..50 {
                sampler.fill(&mut plane, &mut a);
                if wordwise {
                    raw.fill_bernoulli_wordwise(q, &mut b);
                } else {
                    raw.fill_bernoulli(q, &mut b);
                }
                assert_eq!(plane, raw, "q={q}");
            }
        }
    }

    #[test]
    fn perturb_bits_matches_privatize_distribution() {
        let m = UnaryEncoding::optimized(eps(1.0), 16).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let encoded = BitVec::one_hot(16, 3);
        let n = 20_000;
        let mut kept = 0;
        for _ in 0..n {
            if m.perturb_bits(&encoded, &mut rng).unwrap().get(3) {
                kept += 1;
            }
        }
        assert!((kept as f64 / n as f64 - 0.5).abs() < 0.02);
    }

    #[test]
    fn perturb_bits_dense_encoding_matches_rates() {
        // An all-ones encoding forces the word-parallel mask path; bit-set
        // rates must still be exactly p.
        for e in [0.5, 4.0] {
            // SUE: p > 1/2 exercises the complement branch; OUE: p = 1/2.
            for m in [
                UnaryEncoding::symmetric(eps(e), 256).unwrap(),
                UnaryEncoding::optimized(eps(e), 256).unwrap(),
            ] {
                let mut rng = StdRng::seed_from_u64(31);
                let mut encoded = BitVec::zeros(256);
                for i in 0..256 {
                    encoded.set(i, true);
                }
                let trials = 400;
                let mut set = 0usize;
                for _ in 0..trials {
                    set += m.perturb_bits(&encoded, &mut rng).unwrap().count_ones();
                }
                let rate = set as f64 / (trials * 256) as f64;
                assert!(
                    (rate - m.p()).abs() < 0.01,
                    "kind {:?} ε={e}: rate {rate} vs p {}",
                    m.kind(),
                    m.p()
                );
            }
        }
    }

    #[test]
    fn perturb_bits_length_checked() {
        let m = UnaryEncoding::optimized(eps(1.0), 16).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(m.perturb_bits(&BitVec::zeros(8), &mut rng).is_err());
    }

    #[test]
    fn response_probabilities_sum_to_one_small_domain() {
        // Enumerate all 2^4 outputs for d = 4.
        let m = UnaryEncoding::optimized(eps(1.0), 4).unwrap();
        for v in 0..4u32 {
            let mut total = 0.0;
            for mask in 0..16u32 {
                let mut out = BitVec::zeros(4);
                for i in 0..4 {
                    if (mask >> i) & 1 == 1 {
                        out.set(i, true);
                    }
                }
                total += m.response_probability(v, &out);
            }
            assert!((total - 1.0).abs() < 1e-12, "v={v} total={total}");
        }
    }

    #[test]
    fn ldp_bound_by_enumeration() {
        // max over outputs of P(out|v)/P(out|v') must be ≤ e^ε.
        let e = 1.2;
        let m = UnaryEncoding::optimized(eps(e), 4).unwrap();
        let mut worst: f64 = 0.0;
        for v1 in 0..4u32 {
            for v2 in 0..4u32 {
                for mask in 0..16u32 {
                    let mut out = BitVec::zeros(4);
                    for i in 0..4 {
                        if (mask >> i) & 1 == 1 {
                            out.set(i, true);
                        }
                    }
                    let r = m.response_probability(v1, &out) / m.response_probability(v2, &out);
                    worst = worst.max(r);
                }
            }
        }
        assert!(worst <= e.exp() * (1.0 + 1e-9), "worst ratio {worst}");
        assert!(worst >= e.exp() * (1.0 - 1e-9), "bound should be tight");
    }
}
