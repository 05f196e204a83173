//! The **validity perturbation** mechanism (§IV-A).
//!
//! Item mining pipelines produce *invalid* data: items pruned from the
//! candidate set, or items whose label was perturbed away. Existing
//! mechanisms make invalid users report a random valid item for deniability,
//! which injects `m·q + m(p−q)/d` noise into every valid item (Theorem 4).
//!
//! Validity perturbation instead *encodes validity into the report*: the
//! unary encoding is extended by one **validity flag** bit at position `d`.
//!
//! * valid item `v`   → one-hot at position `v` (flag bit 0),
//! * invalid          → one-hot at position `d` (the flag).
//!
//! Every bit is then flipped with the OUE probabilities, so no extra budget
//! is spent on the flag (Theorem 1: the whole vector still satisfies ε-LDP,
//! because valid and invalid encodings are both one-hot vectors of length
//! `d+1`). Server-side, a report only contributes to item counts when its
//! *perturbed* flag bit is 0; the residual noise from invalid users drops to
//! `m·q(1−p)` (Theorem 5).

use rand::Rng;

use mcim_oracles::{BitVec, ColumnCounter, Eps, Error, Result, UnaryEncoding};

/// The validity perturbation mechanism over item domain `[0, d)`.
///
/// Reports are `d+1`-bit vectors; bit `d` is the validity flag.
#[derive(Debug, Clone)]
pub struct ValidityPerturbation {
    d: u32,
    ue: UnaryEncoding,
}

/// An item to perturb: either a valid domain value or "invalid".
///
/// `Invalid` covers both pruned items and label-mismatch cases; the
/// mechanism does not care why the item is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidityInput {
    /// A valid item in `[0, d)`.
    Valid(u32),
    /// No valid item to report.
    Invalid,
}

impl ValidityPerturbation {
    /// Creates the mechanism with OUE probabilities (`p = 1/2`,
    /// `q = 1/(e^ε+1)`), the paper's choice (§IV-A).
    pub fn new(eps: Eps, d: u32) -> Result<Self> {
        if d == 0 {
            return Err(Error::EmptyDomain);
        }
        Ok(ValidityPerturbation {
            d,
            ue: UnaryEncoding::optimized(eps, d + 1)?,
        })
    }

    /// Item domain size `d` (the report carries `d+1` bits).
    #[inline]
    pub fn domain_size(&self) -> u32 {
        self.d
    }

    /// Keep probability `p` for set bits.
    #[inline]
    pub fn p(&self) -> f64 {
        self.ue.p()
    }

    /// Flip-on probability `q` for clear bits.
    #[inline]
    pub fn q(&self) -> f64 {
        self.ue.q()
    }

    /// Report size in bits.
    #[inline]
    pub fn report_bits(&self) -> usize {
        self.d as usize + 1
    }

    /// Index of the validity flag bit.
    #[inline]
    pub fn flag_index(&self) -> usize {
        self.d as usize
    }

    /// Encodes an input to its `d+1`-bit one-hot vector (Fig. 2).
    pub fn encode(&self, input: ValidityInput) -> Result<BitVec> {
        let len = self.d as usize + 1;
        match input {
            ValidityInput::Valid(v) => {
                if v >= self.d {
                    return Err(Error::ValueOutOfDomain {
                        value: v as u64,
                        domain: self.d as u64,
                    });
                }
                Ok(BitVec::one_hot(len, v as usize))
            }
            ValidityInput::Invalid => Ok(BitVec::one_hot(len, self.d as usize)),
        }
    }

    /// Encodes and perturbs an input.
    pub fn privatize<R: Rng + ?Sized>(&self, input: ValidityInput, rng: &mut R) -> Result<BitVec> {
        let mut out = BitVec::zeros(self.report_bits());
        self.privatize_into(input, rng, &mut out)?;
        Ok(out)
    }

    /// [`ValidityPerturbation::privatize`] into `out`, reusing its
    /// allocation (reallocated only when its length is not `d+1`).
    ///
    /// Both encodings are one-hot over `d+1` bits, so this is
    /// [`UnaryEncoding::privatize_into`] at the encoded position: the
    /// Bernoulli(`q`) plane, then one `p` draw for the hot bit — exactly
    /// what [`UnaryEncoding::perturb_bits`] draws for a one-hot input.
    pub fn privatize_into<R: Rng + ?Sized>(
        &self,
        input: ValidityInput,
        rng: &mut R,
        out: &mut BitVec,
    ) -> Result<()> {
        let hot = match input {
            ValidityInput::Valid(v) if v >= self.d => {
                return Err(Error::ValueOutOfDomain {
                    value: v as u64,
                    domain: self.d as u64,
                })
            }
            ValidityInput::Valid(v) => v,
            ValidityInput::Invalid => self.d,
        };
        self.ue.privatize_into(hot, rng, out)
    }

    /// Exact probability of an output vector given an input (for privacy
    /// enumeration tests; `O(d)` per call).
    pub fn response_probability(&self, input: ValidityInput, out: &BitVec) -> f64 {
        let set_pos = match input {
            ValidityInput::Valid(v) => v as usize,
            ValidityInput::Invalid => self.d as usize,
        };
        let (p, q) = (self.p(), self.q());
        let mut prob = 1.0;
        for i in 0..self.d as usize + 1 {
            let keep = if i == set_pos { p } else { q };
            prob *= if out.get(i) { keep } else { 1.0 - keep };
        }
        prob
    }
}

/// Streaming aggregation of validity-perturbation reports.
///
/// Implements the counting rule implied by Theorem 7: a report contributes
/// its item bits only when its perturbed flag is **0** (claims validity).
#[derive(Debug, Clone)]
pub struct VpAggregator {
    d: u32,
    p: f64,
    q: f64,
    counts: Vec<u64>,
    flag_count: u64,
    n: u64,
}

impl VpAggregator {
    /// Creates an empty aggregator matching `mechanism`.
    pub fn new(mechanism: &ValidityPerturbation) -> Self {
        VpAggregator {
            d: mechanism.d,
            p: mechanism.p(),
            q: mechanism.q(),
            counts: vec![0; mechanism.d as usize],
            flag_count: 0,
            n: 0,
        }
    }

    /// Whether a (length-checked) report's validity flag bit is set.
    #[inline]
    fn flag_set(&self, report: &BitVec) -> bool {
        report.bit(self.d as usize)
    }

    /// Absorbs one report.
    pub fn absorb(&mut self, report: &BitVec) -> Result<()> {
        if report.len() != self.d as usize + 1 {
            return Err(Error::ReportMismatch {
                expected: "VP report of length d+1",
            });
        }
        self.n += 1;
        if self.flag_set(report) {
            self.flag_count += 1;
            return Ok(()); // flagged invalid: item bits are excluded
        }
        // Flag bit is 0 here, so every set bit is an item bit; `counts` has
        // d entries and the d-th column is known clear, so a d-wide target
        // is safe.
        report.count_ones_into(&mut self.counts);
        Ok(())
    }

    /// Absorbs a block of reports through the word-parallel column-sum
    /// runtime: unflagged reports are summed bit-sliced, flagged ones only
    /// bump the flag counter. Counts equal sequential [`VpAggregator::absorb`],
    /// including the reports before a wrong-length one, which stops the
    /// block with [`Error::ReportMismatch`].
    pub fn absorb_all<'a, I>(&mut self, reports: I) -> Result<()>
    where
        I: IntoIterator<Item = &'a BitVec>,
    {
        let mut block = VpBlock::new(self.d);
        let outcome = reports.into_iter().try_for_each(|r| block.push(r));
        block.drain_into(self);
        outcome
    }

    /// Absorbs `n` reports built in place: `next(i, report)` writes report
    /// `i` into one reused `d+1`-bit scratch vector, which is then summed
    /// like [`VpAggregator::absorb_all`] — no report is allocated or kept.
    ///
    /// `n`, the flag count and the item counts equal `n` sequential
    /// [`VpAggregator::absorb`] calls on the same reports. The first error
    /// — from `next`, or a report whose length is not `d+1` — stops the
    /// loop; every report before it stays absorbed, as in the per-report
    /// loop.
    pub fn absorb_each<F>(&mut self, n: usize, mut next: F) -> Result<()>
    where
        F: FnMut(usize, &mut BitVec) -> Result<()>,
    {
        let mut block = VpBlock::new(self.d);
        let mut report = BitVec::zeros(self.d as usize + 1);
        let outcome = (0..n).try_for_each(|i| {
            next(i, &mut report)?;
            block.push(&report)
        });
        block.drain_into(self);
        outcome
    }

    /// Merges another aggregator over the same mechanism (sharded
    /// aggregation across threads).
    pub fn merge(&mut self, other: &VpAggregator) -> Result<()> {
        if self.d != other.d {
            return Err(Error::ReportMismatch {
                expected: "VP aggregator with identical domain",
            });
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.flag_count += other.flag_count;
        self.n += other.n;
        Ok(())
    }

    /// Number of absorbed reports.
    #[inline]
    pub fn report_count(&self) -> u64 {
        self.n
    }

    /// Raw flag-filtered item counts — the quantity Theorems 6/7 compare.
    /// Scaling is uniform across items, so ranking on these is sound
    /// (§V-B: "the counts of all items are scaled consistently").
    pub fn raw_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Raw count of reports whose perturbed flag was set.
    #[inline]
    pub fn raw_flag_count(&self) -> u64 {
        self.flag_count
    }

    /// Unbiased estimate of the number of *invalid* users:
    /// `m̂ = (flag_count − N·q)/(p − q)`.
    pub fn estimate_invalid(&self) -> f64 {
        mcim_oracles::calibrate::unbiased_count(
            self.flag_count as f64,
            self.n as f64,
            self.p,
            self.q,
        )
    }

    /// Unbiased item-frequency estimates.
    ///
    /// Inverts Theorem 7's expectation
    /// `E[count_I] = (1−q)[f·p + (N−m−f)·q] + m·q(1−p)` using the flag-based
    /// estimate `m̂` for the invalid population. (An extension over the
    /// paper, which only needs rank order from VP counts.)
    pub fn estimate(&self) -> Vec<f64> {
        let n = self.n as f64;
        let m = self.estimate_invalid();
        let (p, q) = (self.p, self.q);
        let valid = n - m;
        self.counts
            .iter()
            .map(|&c| {
                (c as f64 - (1.0 - q) * valid * q - m * q * (1.0 - p)) / ((1.0 - q) * (p - q))
            })
            .collect()
    }
}

/// The in-flight block of [`VpAggregator::absorb_all`] and
/// [`VpAggregator::absorb_each`]: unflagged reports are added to a
/// bit-sliced [`ColumnCounter`] over all `d+1` columns, flagged ones only
/// bump a tally.
struct VpBlock {
    cc: ColumnCounter,
    flagged: u64,
}

impl VpBlock {
    fn new(d: u32) -> Self {
        VpBlock {
            cc: ColumnCounter::new(d as usize + 1),
            flagged: 0,
        }
    }

    /// Adds one report after checking its length is `d+1`.
    #[inline]
    fn push(&mut self, report: &BitVec) -> Result<()> {
        let width = self.cc.len();
        if report.len() != width {
            return Err(Error::ReportMismatch {
                expected: "VP report of length d+1",
            });
        }
        if report.bit(width - 1) {
            self.flagged += 1;
        } else {
            self.cc.add(report.words());
        }
        Ok(())
    }

    /// Folds the block into `agg`: the `d` item columns go to its counts
    /// (the flag column is dropped), every pushed report to its total.
    fn drain_into(mut self, agg: &mut VpAggregator) {
        agg.n += self.cc.rows() + self.flagged;
        agg.flag_count += self.flagged;
        self.cc.drain_into(&mut agg.counts);
    }
}

/// Partial state for the distributed reducer: bucket counters, the flag
/// tally and the report count.
impl mcim_oracles::wire::WireState for VpAggregator {
    fn save(&self, buf: &mut Vec<u8>) {
        self.counts.save(buf);
        self.flag_count.save(buf);
        self.n.save(buf);
    }

    fn load(&mut self, r: &mut mcim_oracles::wire::WireReader<'_>) -> Result<()> {
        self.counts.load(r)?;
        self.flag_count.load(r)?;
        self.n.load(r)
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
    fn encode_valid_and_invalid() {
        let vp = ValidityPerturbation::new(eps(1.0), 4).unwrap();
        let valid = vp.encode(ValidityInput::Valid(2)).unwrap();
        assert_eq!(valid.iter_ones().collect::<Vec<_>>(), vec![2]);
        assert_eq!(valid.len(), 5);
        let invalid = vp.encode(ValidityInput::Invalid).unwrap();
        assert_eq!(invalid.iter_ones().collect::<Vec<_>>(), vec![4]);
    }

    #[test]
    fn encode_rejects_out_of_domain() {
        let vp = ValidityPerturbation::new(eps(1.0), 4).unwrap();
        assert!(vp.encode(ValidityInput::Valid(4)).is_err());
    }

    #[test]
    fn satisfies_ldp_by_enumeration() {
        // Enumerate all 2^(d+1) outputs for d = 3 over all input pairs
        // (valid items and invalid): worst-case ratio must be ≤ e^ε.
        let e = 1.5f64;
        let vp = ValidityPerturbation::new(eps(e), 3).unwrap();
        let inputs = [
            ValidityInput::Valid(0),
            ValidityInput::Valid(1),
            ValidityInput::Valid(2),
            ValidityInput::Invalid,
        ];
        let mut worst: f64 = 0.0;
        for mask in 0..16u32 {
            let mut out = BitVec::zeros(4);
            for i in 0..4 {
                if (mask >> i) & 1 == 1 {
                    out.set(i, true);
                }
            }
            for &a in &inputs {
                for &b in &inputs {
                    let r = vp.response_probability(a, &out) / vp.response_probability(b, &out);
                    worst = worst.max(r);
                }
            }
        }
        assert!(worst <= e.exp() * (1.0 + 1e-9), "worst ratio {worst}");
        assert!(worst >= e.exp() * (1.0 - 1e-9), "bound should be tight");
    }

    #[test]
    fn response_probabilities_normalize() {
        let vp = ValidityPerturbation::new(eps(0.8), 3).unwrap();
        for input in [ValidityInput::Valid(1), ValidityInput::Invalid] {
            let mut total = 0.0;
            for mask in 0..16u32 {
                let mut out = BitVec::zeros(4);
                for i in 0..4 {
                    if (mask >> i) & 1 == 1 {
                        out.set(i, true);
                    }
                }
                total += vp.response_probability(input, &out);
            }
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn aggregation_filters_flagged_reports() {
        let vp = ValidityPerturbation::new(eps(1.0), 3).unwrap();
        let mut agg = VpAggregator::new(&vp);
        // Handcrafted reports: flag set → item bits ignored.
        let mut flagged = BitVec::zeros(4);
        flagged.set(0, true);
        flagged.set(3, true);
        agg.absorb(&flagged).unwrap();
        assert_eq!(agg.raw_counts(), &[0, 0, 0]);
        assert_eq!(agg.raw_flag_count(), 1);
        // Unflagged report counts its bits.
        let mut ok = BitVec::zeros(4);
        ok.set(0, true);
        ok.set(2, true);
        agg.absorb(&ok).unwrap();
        assert_eq!(agg.raw_counts(), &[1, 0, 1]);
        assert_eq!(agg.report_count(), 2);
    }

    #[test]
    fn batch_paths_match_sequential() {
        let vp = ValidityPerturbation::new(eps(1.0), 70).unwrap();
        let inputs: Vec<ValidityInput> = (0..9000)
            .map(|u| match u % 3 {
                0 => ValidityInput::Valid(u as u32 % 70),
                1 => ValidityInput::Valid(7),
                _ => ValidityInput::Invalid,
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(42);
        let reports: Vec<BitVec> = inputs
            .iter()
            .map(|&input| vp.privatize(input, &mut rng).unwrap())
            .collect();
        let mut seq = VpAggregator::new(&vp);
        for r in &reports {
            seq.absorb(r).unwrap();
        }
        let mut all = VpAggregator::new(&vp);
        all.absorb_all(&reports).unwrap();
        assert_eq!(all.raw_counts(), seq.raw_counts());
        assert_eq!(all.raw_flag_count(), seq.raw_flag_count());
        assert_eq!(all.report_count(), seq.report_count());
        assert_eq!(all.estimate(), seq.estimate());
    }

    #[test]
    fn absorb_all_rejects_wrong_length_mid_block() {
        let vp = ValidityPerturbation::new(eps(1.0), 3).unwrap();
        let mut agg = VpAggregator::new(&vp);
        let good = BitVec::one_hot(4, 0);
        let bad = BitVec::zeros(3);
        assert!(agg.absorb_all([&good, &bad]).is_err());
    }

    #[test]
    fn absorb_rejects_wrong_length() {
        let vp = ValidityPerturbation::new(eps(1.0), 3).unwrap();
        let mut agg = VpAggregator::new(&vp);
        assert!(agg.absorb(&BitVec::zeros(3)).is_err());
    }

    #[test]
    fn estimate_recovers_frequencies_with_invalid_users() {
        let d = 16u32;
        let vp = ValidityPerturbation::new(eps(2.0), d).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let mut agg = VpAggregator::new(&vp);
        let n = 60_000;
        // 50% hold item 3, 20% item 7, 30% invalid.
        for u in 0..n {
            let input = match u % 10 {
                0..=4 => ValidityInput::Valid(3),
                5 | 6 => ValidityInput::Valid(7),
                _ => ValidityInput::Invalid,
            };
            agg.absorb(&vp.privatize(input, &mut rng).unwrap()).unwrap();
        }
        let m_hat = agg.estimate_invalid();
        assert!(
            (m_hat - 0.3 * n as f64).abs() < 0.05 * n as f64,
            "m̂={m_hat}"
        );
        let est = agg.estimate();
        assert!(
            (est[3] - 0.5 * n as f64).abs() < 0.05 * n as f64,
            "est3={}",
            est[3]
        );
        assert!(
            (est[7] - 0.2 * n as f64).abs() < 0.05 * n as f64,
            "est7={}",
            est[7]
        );
        assert!(est[0].abs() < 0.05 * n as f64, "est0={}", est[0]);
    }

    #[test]
    fn vp_injects_less_invalid_noise_than_plain_oue() {
        // The headline claim of §IV-A / Theorems 4 vs 5, checked empirically:
        // m invalid users add ~m·q+m(p−q)/d noise under OUE-with-random-item
        // but only ~m·q(1−p) under VP.
        let d = 8u32;
        let e = eps(1.0);
        let n = 40_000usize; // all users invalid
        let mut rng = StdRng::seed_from_u64(21);

        // Plain OUE baseline: invalid users pick a random item.
        let oue = UnaryEncoding::optimized(e, d).unwrap();
        let mut oue_counts = vec![0u64; d as usize];
        for _ in 0..n {
            let fake = rng.random_range(0..d);
            let bits = oue.privatize(fake, &mut rng).unwrap();
            for i in bits.iter_ones() {
                oue_counts[i] += 1;
            }
        }

        // VP: invalid users report the flag.
        let vp = ValidityPerturbation::new(e, d).unwrap();
        let mut agg = VpAggregator::new(&vp);
        for _ in 0..n {
            agg.absorb(&vp.privatize(ValidityInput::Invalid, &mut rng).unwrap())
                .unwrap();
        }

        let oue_noise = oue_counts[0] as f64;
        let vp_noise = agg.raw_counts()[0] as f64;
        let thm4 = n as f64 * (oue.q() + (oue.p() - oue.q()) / d as f64);
        let thm5 = n as f64 * vp.q() * (1.0 - vp.p());
        assert!(
            (oue_noise - thm4).abs() < 0.05 * thm4,
            "oue {oue_noise} vs thm4 {thm4}"
        );
        assert!(
            (vp_noise - thm5).abs() < 0.08 * thm5,
            "vp {vp_noise} vs thm5 {thm5}"
        );
        assert!(vp_noise < oue_noise, "VP must reduce invalid-user noise");
    }
}
