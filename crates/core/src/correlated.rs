//! The **correlated perturbation** mechanism (§IV-B).
//!
//! Labels and items are correlated: once the label is perturbed away, the
//! item no longer belongs to the reported class and should count as noise,
//! not signal. Correlated perturbation therefore perturbs the *label first*
//! (GRR with ε₁) and makes the item's validity depend on the outcome:
//!
//! * label survived (`C′ = C`)  → item is valid → one-hot at the item,
//! * label flipped  (`C′ ≠ C`)  → item invalid → one-hot at the flag bit,
//!
//! followed by the validity-perturbation bit flipping with ε₂
//! (ε = ε₁ + ε₂, sequential composition — Theorem 2).
//!
//! ## Aggregation rule (derived)
//!
//! The paper states the calibration Eq. (4) but not the counting rule; the
//! variance terms of Theorem 8 pin it down uniquely. `f̃(C, I)` counts bit
//! `I` among reports whose perturbed label is `C` **and** whose perturbed
//! flag bit is 0. Then for a user with true pair `(C*, I*)`:
//!
//! * `(C, I)` user:   contributes w.p. `p₁(1−q₂)p₂` (label kept, flag stays
//!   0, item bit kept),
//! * `(C, I′)` user:  `p₁(1−q₂)q₂`,
//! * other-class user: `q₁(1−p₂)q₂` (label flipped *to* `C`, so the vector
//!   was the invalid encoding: flag must flip to 0, item bit flips on),
//!
//! matching the three Binomial terms of Eq. (5). Solving the expectation for
//! `f(C, I)` yields exactly Eq. (4); see [`eq4_estimate`].
//!
//! Reports are `d+1`-bit [`PairReport`]s, counted by the [`PairAggregator`]
//! from [`CorrelatedPerturbation::aggregator`]: its report width tells it
//! that bit `d` is the flag, so it applies the rule above. PTS shares the
//! report and the aggregator with `d`-bit vectors.

use rand::Rng;

use mcim_oracles::{BitVec, Eps, Grr, Result};

use crate::analysis::CpProbs;
use crate::validity::{ValidityInput, ValidityPerturbation};
use crate::{Domains, FrequencyTable, LabelItem, PairAggregator, PairReport};

/// One cell of Eq. (4): the unbiased estimate `f̂(C, I)` from the
/// flag-filtered count `f̃(C, I)` (`collected`), the class-size estimate
/// `n̂(C)` and the report total `N`:
///
/// ```text
///           f̃(C,I) − N·q₁q₂(1−p₂)       n̂·q₂[p₁(1−q₂) − q₁(1−p₂)]
/// f̂(C,I) = ─────────────────────────  −  ─────────────────────────
///            p₁(1−q₂)(p₂−q₂)                p₁(1−q₂)(p₂−q₂)
/// ```
///
/// [`CorrelatedPerturbation::estimate`] applies it to every cell; the
/// top-k final round applies it to its candidates' scores.
pub fn eq4_estimate(collected: f64, n_hat: f64, n_total: f64, pr: CpProbs) -> f64 {
    let CpProbs { p1, q1, p2, q2 } = pr;
    let denom = p1 * (1.0 - q2) * (p2 - q2);
    let correction = n_hat * q2 * (p1 * (1.0 - q2) - q1 * (1.0 - p2));
    (collected - n_total * q1 * q2 * (1.0 - p2) - correction) / denom
}

/// The correlated perturbation mechanism.
#[derive(Debug, Clone)]
pub struct CorrelatedPerturbation {
    domains: Domains,
    label_mech: Grr,
    item_mech: ValidityPerturbation,
}

impl CorrelatedPerturbation {
    /// Creates the mechanism with an explicit budget split.
    pub fn new(eps1: Eps, eps2: Eps, domains: Domains) -> Result<Self> {
        Ok(CorrelatedPerturbation {
            domains,
            label_mech: Grr::new(eps1, domains.classes())?,
            item_mech: ValidityPerturbation::new(eps2, domains.items())?,
        })
    }

    /// Creates the mechanism with the paper's default even split
    /// (ε₁ = ε₂ = ε/2).
    pub fn with_total(eps: Eps, domains: Domains) -> Result<Self> {
        let (e1, e2) = eps.halve();
        Self::new(e1, e2, domains)
    }

    /// The domains.
    #[inline]
    pub fn domains(&self) -> Domains {
        self.domains
    }

    /// Label-side `(p₁, q₁)` and item-side `(p₂, q₂)` probabilities.
    pub fn probs(&self) -> CpProbs {
        CpProbs {
            p1: self.label_mech.p(),
            q1: self.label_mech.q(),
            p2: self.item_mech.p(),
            q2: self.item_mech.q(),
        }
    }

    /// Per-user report size in bits.
    pub fn report_bits(&self) -> usize {
        self.label_mech.report_bits() + self.item_mech.report_bits()
    }

    /// Privatizes one label-item pair.
    pub fn privatize<R: Rng + ?Sized>(&self, pair: LabelItem, rng: &mut R) -> Result<PairReport> {
        let mut report = PairReport {
            label: 0,
            bits: BitVec::zeros(0),
        };
        self.privatize_into(pair, rng, &mut report)?;
        Ok(report)
    }

    /// [`CorrelatedPerturbation::privatize`] into `out`, reusing its bit
    /// storage (reallocated only when its length is not `d+1`). Same
    /// draws, same report.
    pub fn privatize_into<R: Rng + ?Sized>(
        &self,
        pair: LabelItem,
        rng: &mut R,
        out: &mut PairReport,
    ) -> Result<()> {
        self.domains.check(pair)?;
        out.label = self.label_mech.perturb(pair.label, rng)?;
        let input = if out.label == pair.label {
            ValidityInput::Valid(pair.item)
        } else {
            ValidityInput::Invalid
        };
        self.item_mech.privatize_into(input, rng, &mut out.bits)
    }

    /// Exact probability of `(label_out, bits_out)` given a true pair — for
    /// the privacy-enumeration tests.
    pub fn response_probability(&self, pair: LabelItem, label_out: u32, bits_out: &BitVec) -> f64 {
        let p_label = self.label_mech.response_probability(pair.label, label_out);
        let input = if label_out == pair.label {
            ValidityInput::Valid(pair.item)
        } else {
            ValidityInput::Invalid
        };
        p_label * self.item_mech.response_probability(input, bits_out)
    }

    /// An empty aggregator for this mechanism's `d+1`-bit reports.
    pub fn aggregator(&self) -> PairAggregator {
        PairAggregator::new(self.domains, self.domains.items() as usize + 1)
    }

    /// Unbiased frequency estimates from an aggregator this mechanism
    /// built: [`eq4_estimate`] on every cell. Fails on an aggregator of
    /// another shape (a PTS one, or other domains).
    pub fn estimate(&self, agg: &PairAggregator) -> Result<FrequencyTable> {
        agg.check_shape(self.domains, self.domains.items() as usize + 1)?;
        let pr = self.probs();
        let n_total = agg.report_count() as f64;
        let mut table = FrequencyTable::zeros(self.domains);
        for label in 0..self.domains.classes() {
            let n_hat = agg.class_size(label, pr.p1, pr.q1);
            for item in 0..self.domains.items() {
                let collected = agg.raw_pair_count(label, item) as f64;
                *table.get_mut(label, item) = eq4_estimate(collected, n_hat, n_total, pr);
            }
        }
        Ok(table)
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

    fn small_mech(e: f64) -> CorrelatedPerturbation {
        CorrelatedPerturbation::with_total(eps(e), Domains::new(3, 3).unwrap()).unwrap()
    }

    #[test]
    fn budget_splits_evenly_by_default() {
        let m = small_mech(2.0);
        // ε₁ = 1 over 3 classes: p₁ = e/(e+2).
        let CpProbs { p1, p2, q2, .. } = m.probs();
        let e1 = 1.0f64.exp();
        assert!((p1 - e1 / (e1 + 2.0)).abs() < 1e-12);
        // ε₂ = 1: q₂ = 1/(e+1).
        assert_eq!(p2, 0.5);
        assert!((q2 - 1.0 / (e1 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn privatize_rejects_out_of_domain() {
        let m = small_mech(1.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(m.privatize(LabelItem::new(3, 0), &mut rng).is_err());
        assert!(m.privatize(LabelItem::new(0, 3), &mut rng).is_err());
    }

    #[test]
    fn satisfies_composed_ldp_by_enumeration() {
        // Enumerate all (label_out, bits_out) for c = 3, d = 3 (3 × 2^4
        // outputs) over all 9 inputs: worst ratio ≤ e^{ε₁+ε₂}.
        let total = 1.6f64;
        let m = small_mech(total);
        let mut worst: f64 = 0.0;
        let inputs: Vec<LabelItem> = (0..3)
            .flat_map(|c| (0..3).map(move |i| LabelItem::new(c, i)))
            .collect();
        for label_out in 0..3u32 {
            for mask in 0..16u32 {
                let mut bits = BitVec::zeros(4);
                for i in 0..4 {
                    if (mask >> i) & 1 == 1 {
                        bits.set(i, true);
                    }
                }
                for &a in &inputs {
                    for &b in &inputs {
                        let r = m.response_probability(a, label_out, &bits)
                            / m.response_probability(b, label_out, &bits);
                        worst = worst.max(r);
                    }
                }
            }
        }
        assert!(
            worst <= total.exp() * (1.0 + 1e-9),
            "worst ratio {worst} exceeds e^ε = {}",
            total.exp()
        );
    }

    #[test]
    fn response_probabilities_normalize() {
        let m = small_mech(1.0);
        for &pair in &[LabelItem::new(0, 0), LabelItem::new(2, 1)] {
            let mut sum = 0.0;
            for label_out in 0..3u32 {
                for mask in 0..16u32 {
                    let mut bits = BitVec::zeros(4);
                    for i in 0..4 {
                        if (mask >> i) & 1 == 1 {
                            bits.set(i, true);
                        }
                    }
                    sum += m.response_probability(pair, label_out, &bits);
                }
            }
            assert!((sum - 1.0).abs() < 1e-10, "sum={sum}");
        }
    }

    #[test]
    fn estimate_is_unbiased_monte_carlo() {
        // 4 classes × 8 items; a strongly skewed distribution. The mean of
        // the estimator over many reports must approach the truth.
        let domains = Domains::new(4, 8).unwrap();
        let m = CorrelatedPerturbation::with_total(eps(2.0), domains).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let n = 200_000usize;
        let mut agg = m.aggregator();
        let mut truth = FrequencyTable::zeros(domains);
        for u in 0..n {
            // class 0: item 0 (30%), class 1: item 1 (30%),
            // class 2: items 2/3 (20%), class 3: item 7 (20%).
            let pair = match u % 10 {
                0..=2 => LabelItem::new(0, 0),
                3..=5 => LabelItem::new(1, 1),
                6 => LabelItem::new(2, 2),
                7 => LabelItem::new(2, 3),
                _ => LabelItem::new(3, 7),
            };
            *truth.get_mut(pair.label, pair.item) += 1.0;
            agg.absorb(&m.privatize(pair, &mut rng).unwrap()).unwrap();
        }
        let est = m.estimate(&agg).unwrap();
        for label in 0..4 {
            for item in 0..8 {
                let t = truth.get(label, item);
                let e = est.get(label, item);
                assert!(
                    (e - t).abs() < 0.02 * n as f64,
                    "({label},{item}): est {e} vs truth {t}"
                );
            }
        }
    }

    #[test]
    fn class_size_estimate_is_unbiased() {
        let domains = Domains::new(3, 4).unwrap();
        let m = CorrelatedPerturbation::with_total(eps(1.0), domains).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let mut agg = m.aggregator();
        let n = 90_000;
        for u in 0..n {
            // class sizes 3:2:1
            let label = match u % 6 {
                0..=2 => 0,
                3 | 4 => 1,
                _ => 2,
            };
            agg.absorb(&m.privatize(LabelItem::new(label, 0), &mut rng).unwrap())
                .unwrap();
        }
        let CpProbs { p1, q1, .. } = m.probs();
        assert!((agg.class_size(0, p1, q1) - n as f64 / 2.0).abs() < 0.03 * n as f64);
        assert!((agg.class_size(1, p1, q1) - n as f64 / 3.0).abs() < 0.03 * n as f64);
        assert!((agg.class_size(2, p1, q1) - n as f64 / 6.0).abs() < 0.03 * n as f64);
    }

    #[test]
    fn flipped_label_reports_invalid_encoding() {
        // With ε₁ tiny, labels almost always flip; flag bit should then be
        // set about p₂ = 1/2 of the time.
        let domains = Domains::new(16, 4).unwrap();
        let m = CorrelatedPerturbation::new(eps(0.01), eps(1.0), domains).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut flagged = 0;
        let mut flipped = 0;
        let trials = 20_000;
        for _ in 0..trials {
            let r = m.privatize(LabelItem::new(0, 0), &mut rng).unwrap();
            if r.label != 0 {
                flipped += 1;
                if r.bits.get(4) {
                    flagged += 1;
                }
            }
        }
        assert!(
            flipped > trials * 9 / 10,
            "labels should almost always flip"
        );
        let rate = flagged as f64 / flipped as f64;
        assert!(
            (rate - 0.5).abs() < 0.02,
            "flag rate {rate} should be p₂ = 1/2"
        );
    }

    #[test]
    fn report_size_accounting() {
        let m = small_mech(1.0);
        let mut rng = StdRng::seed_from_u64(0);
        let r = m.privatize(LabelItem::new(0, 0), &mut rng).unwrap();
        assert_eq!(r.size_bits(), 32 + 4);
        assert_eq!(m.report_bits(), 2 + 4); // ⌈log₂3⌉ label bits + d+1
    }

    #[test]
    fn batch_paths_match_sequential() {
        let domains = Domains::new(4, 70).unwrap();
        let m = CorrelatedPerturbation::with_total(eps(2.0), domains).unwrap();
        let pairs: Vec<LabelItem> = (0..9000)
            .map(|u| LabelItem::new((u % 4) as u32, ((u * 13) % 70) as u32))
            .collect();
        let mut rng = StdRng::seed_from_u64(77);
        let reports: Vec<PairReport> = pairs
            .iter()
            .map(|&pair| m.privatize(pair, &mut rng).unwrap())
            .collect();
        let mut seq = m.aggregator();
        for r in &reports {
            seq.absorb(r).unwrap();
        }
        for block in [reports.len(), 1000] {
            let mut batch = m.aggregator();
            for part in reports.chunks(block) {
                batch.absorb_all(part).unwrap();
            }
            assert_eq!(batch.report_count(), seq.report_count(), "block={block}");
            for label in 0..4u32 {
                assert_eq!(batch.raw_label_count(label), seq.raw_label_count(label));
                for item in 0..70u32 {
                    assert_eq!(
                        batch.raw_pair_count(label, item),
                        seq.raw_pair_count(label, item),
                        "({label},{item}) block={block}"
                    );
                }
            }
            let (a, b) = (m.estimate(&batch).unwrap(), m.estimate(&seq).unwrap());
            for label in 0..4u32 {
                for item in 0..70u32 {
                    assert!(a.get(label, item) == b.get(label, item));
                }
            }
        }
    }
}
