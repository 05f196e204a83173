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
//! `f(C, I)` yields exactly Eq. (4); see `estimate` below.

use rand::Rng;

use mcim_oracles::{BitVec, ColumnCounter, Eps, Error, Grr, Result};

use crate::validity::{ValidityInput, ValidityPerturbation};
use crate::{Domains, FrequencyTable, LabelItem};

/// One correlated-perturbation report.
#[derive(Debug, Clone, PartialEq)]
pub struct CpReport {
    /// GRR-perturbed label.
    pub label: u32,
    /// VP-perturbed item bits (`d+1` bits, flag at index `d`).
    pub bits: BitVec,
}

impl CpReport {
    /// Communication cost in bits.
    pub fn size_bits(&self) -> usize {
        32 + self.bits.len()
    }
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

    /// Label-side probabilities `(p₁, q₁)`.
    pub fn label_probs(&self) -> (f64, f64) {
        (self.label_mech.p(), self.label_mech.q())
    }

    /// Item-side probabilities `(p₂, q₂)`.
    pub fn item_probs(&self) -> (f64, f64) {
        (self.item_mech.p(), self.item_mech.q())
    }

    /// Per-user report size in bits.
    pub fn report_bits(&self) -> usize {
        self.label_mech.report_bits() + self.item_mech.report_bits()
    }

    /// Privatizes one label-item pair.
    pub fn privatize<R: Rng + ?Sized>(&self, pair: LabelItem, rng: &mut R) -> Result<CpReport> {
        let mut report = CpReport {
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
        out: &mut CpReport,
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

    /// Privatizes a pair whose item may already be invalid (pruned), as in
    /// Algorithm 2's final iteration: validity requires *both* the label to
    /// survive and the item to be valid.
    pub fn privatize_with_validity<R: Rng + ?Sized>(
        &self,
        label: u32,
        item: ValidityInput,
        rng: &mut R,
    ) -> Result<CpReport> {
        let perturbed_label = self.label_mech.perturb(label, rng)?;
        let input = match item {
            ValidityInput::Valid(v) if perturbed_label == label => ValidityInput::Valid(v),
            _ => ValidityInput::Invalid,
        };
        Ok(CpReport {
            label: perturbed_label,
            bits: self.item_mech.privatize(input, rng)?,
        })
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
}

/// Streaming server-side aggregation for correlated perturbation.
#[derive(Debug, Clone)]
pub struct CpAggregator {
    domains: Domains,
    p1: f64,
    q1: f64,
    p2: f64,
    q2: f64,
    /// `f̃(C, I)`: flag-filtered item-bit counts, row-major `[class][item]`.
    pair_counts: Vec<u64>,
    /// `ñ(C)`: perturbed-label counts.
    label_counts: Vec<u64>,
    n: u64,
}

impl CpAggregator {
    /// Creates an empty aggregator matching `mechanism`.
    pub fn new(mechanism: &CorrelatedPerturbation) -> Self {
        let (p1, q1) = mechanism.label_probs();
        let (p2, q2) = mechanism.item_probs();
        CpAggregator {
            domains: mechanism.domains,
            p1,
            q1,
            p2,
            q2,
            pair_counts: vec![0; mechanism.domains.joint_size() as usize],
            label_counts: vec![0; mechanism.domains.classes() as usize],
            n: 0,
        }
    }

    /// Validates one report's shape.
    #[inline]
    fn check_report(&self, report: &CpReport) -> Result<()> {
        if report.label >= self.domains.classes() {
            return Err(Error::ValueOutOfDomain {
                value: report.label as u64,
                domain: self.domains.classes() as u64,
            });
        }
        if report.bits.len() != self.domains.items() as usize + 1 {
            return Err(Error::ReportMismatch {
                expected: "CP item bits of length d+1",
            });
        }
        Ok(())
    }

    /// Whether a (length-checked) report's flag bit is set.
    #[inline]
    fn flag_set(&self, bits: &BitVec) -> bool {
        bits.bit(self.domains.items() as usize)
    }

    /// Absorbs one report.
    pub fn absorb(&mut self, report: &CpReport) -> Result<()> {
        self.check_report(report)?;
        let d = self.domains.items() as usize;
        self.n += 1;
        self.label_counts[report.label as usize] += 1;
        if self.flag_set(&report.bits) {
            return Ok(()); // flagged invalid: item bits excluded (counting rule)
        }
        let base = report.label as usize * d;
        // Flag bit is 0, so a d-wide row slice holds every set column.
        report
            .bits
            .count_ones_into(&mut self.pair_counts[base..base + d]);
        Ok(())
    }

    /// Absorbs a block of reports through the word-parallel column-sum
    /// runtime: reports are bucketed by perturbed label, each class's
    /// unflagged rows are summed bit-sliced into its `pair_counts` row.
    /// Counts equal sequential [`CpAggregator::absorb`].
    pub fn absorb_all<'a, I>(&mut self, reports: I) -> Result<()>
    where
        I: IntoIterator<Item = &'a CpReport>,
    {
        let d = self.domains.items() as usize;
        let c = self.domains.classes() as usize;
        let mut buckets: Vec<Vec<&BitVec>> = vec![Vec::new(); c];
        let mut outcome = Ok(());
        for report in reports {
            if let Err(e) = self.check_report(report) {
                outcome = Err(e);
                break;
            }
            self.n += 1;
            self.label_counts[report.label as usize] += 1;
            if !self.flag_set(&report.bits) {
                buckets[report.label as usize].push(&report.bits);
            }
        }
        let mut cc = ColumnCounter::new(d + 1);
        for (label, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            for bits in bucket {
                cc.add(bits.words());
            }
            // d-column prefix: the flag column is dropped.
            cc.drain_into(&mut self.pair_counts[label * d..(label + 1) * d]);
        }
        outcome
    }

    /// Merges another aggregator over the same domains (sharded aggregation
    /// across threads).
    pub fn merge(&mut self, other: &CpAggregator) -> Result<()> {
        if self.domains != other.domains {
            return Err(Error::ReportMismatch {
                expected: "CP aggregator with identical domains",
            });
        }
        for (a, b) in self.pair_counts.iter_mut().zip(&other.pair_counts) {
            *a += b;
        }
        for (a, b) in self.label_counts.iter_mut().zip(&other.label_counts) {
            *a += b;
        }
        self.n += other.n;
        Ok(())
    }

    /// Number of absorbed reports `N`.
    #[inline]
    pub fn report_count(&self) -> u64 {
        self.n
    }

    /// Raw collected count `f̃(C, I)`.
    pub fn raw_pair_count(&self, label: u32, item: u32) -> u64 {
        self.pair_counts[(label * self.domains.items() + item) as usize]
    }

    /// Raw collected label count `ñ(C)`.
    pub fn raw_label_count(&self, label: u32) -> u64 {
        self.label_counts[label as usize]
    }

    /// Unbiased estimate `n̂(C) = (ñ − N·q₁)/(p₁ − q₁)` of the class size.
    pub fn estimate_class_size(&self, label: u32) -> f64 {
        mcim_oracles::calibrate::unbiased_count(
            self.label_counts[label as usize] as f64,
            self.n as f64,
            self.p1,
            self.q1,
        )
    }

    /// Unbiased frequency estimates — Eq. (4) of the paper:
    ///
    /// ```text
    ///           f̃(C,I) − N·q₁q₂(1−p₂)       n̂·q₂[p₁(1−q₂) − q₁(1−p₂)]
    /// f̂(C,I) = ─────────────────────────  −  ─────────────────────────
    ///            p₁(1−q₂)(p₂−q₂)                p₁(1−q₂)(p₂−q₂)
    /// ```
    pub fn estimate(&self) -> FrequencyTable {
        let (p1, q1, p2, q2) = (self.p1, self.q1, self.p2, self.q2);
        let denom = p1 * (1.0 - q2) * (p2 - q2);
        let n_total = self.n as f64;
        let mut table = FrequencyTable::zeros(self.domains);
        for label in 0..self.domains.classes() {
            let n_hat = self.estimate_class_size(label);
            let correction = n_hat * q2 * (p1 * (1.0 - q2) - q1 * (1.0 - p2));
            for item in 0..self.domains.items() {
                let collected = self.raw_pair_count(label, item) as f64;
                *table.get_mut(label, item) =
                    (collected - n_total * q1 * q2 * (1.0 - p2) - correction) / denom;
            }
        }
        table
    }
}

/// Partial state for the distributed reducer: pair/label counters and the
/// report tally (the calibration constants stay with the template).
impl mcim_oracles::wire::WireState for CpAggregator {
    fn save(&self, buf: &mut Vec<u8>) {
        self.pair_counts.save(buf);
        self.label_counts.save(buf);
        self.n.save(buf);
    }

    fn load(&mut self, r: &mut mcim_oracles::wire::WireReader<'_>) -> Result<()> {
        self.pair_counts.load(r)?;
        self.label_counts.load(r)?;
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

    fn small_mech(e: f64) -> CorrelatedPerturbation {
        CorrelatedPerturbation::with_total(eps(e), Domains::new(3, 3).unwrap()).unwrap()
    }

    #[test]
    fn budget_splits_evenly_by_default() {
        let m = small_mech(2.0);
        // ε₁ = 1 over 3 classes: p₁ = e/(e+2).
        let (p1, _) = m.label_probs();
        let e1 = 1.0f64.exp();
        assert!((p1 - e1 / (e1 + 2.0)).abs() < 1e-12);
        // ε₂ = 1: q₂ = 1/(e+1).
        let (p2, q2) = m.item_probs();
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
        let mut agg = CpAggregator::new(&m);
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
        let est = agg.estimate();
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
    fn batch_paths_match_sequential() {
        let domains = Domains::new(4, 70).unwrap();
        let m = CorrelatedPerturbation::with_total(eps(2.0), domains).unwrap();
        let pairs: Vec<LabelItem> = (0..9000)
            .map(|u| LabelItem::new((u % 4) as u32, ((u * 13) % 70) as u32))
            .collect();
        let mut rng = StdRng::seed_from_u64(77);
        let reports: Vec<CpReport> = pairs
            .iter()
            .map(|&pair| m.privatize(pair, &mut rng).unwrap())
            .collect();
        let mut seq = CpAggregator::new(&m);
        for r in &reports {
            seq.absorb(r).unwrap();
        }
        for block in [reports.len(), 1000] {
            let mut batch = CpAggregator::new(&m);
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
            let (a, b) = (batch.estimate(), seq.estimate());
            for label in 0..4u32 {
                for item in 0..70u32 {
                    assert!(a.get(label, item) == b.get(label, item));
                }
            }
        }
    }

    #[test]
    fn class_size_estimate_is_unbiased() {
        let domains = Domains::new(3, 4).unwrap();
        let m = CorrelatedPerturbation::with_total(eps(1.0), domains).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let mut agg = CpAggregator::new(&m);
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
        assert!((agg.estimate_class_size(0) - n as f64 / 2.0).abs() < 0.03 * n as f64);
        assert!((agg.estimate_class_size(1) - n as f64 / 3.0).abs() < 0.03 * n as f64);
        assert!((agg.estimate_class_size(2) - n as f64 / 6.0).abs() < 0.03 * n as f64);
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
    fn privatize_with_validity_respects_pruned_items() {
        // Invalid item input can never produce a valid encoding, even when
        // the label survives.
        let domains = Domains::new(2, 4).unwrap();
        let m = CorrelatedPerturbation::new(eps(8.0), eps(8.0), domains).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut flag_set = 0;
        let trials = 2_000;
        for _ in 0..trials {
            let r = m
                .privatize_with_validity(0, ValidityInput::Invalid, &mut rng)
                .unwrap();
            if r.bits.get(4) {
                flag_set += 1;
            }
        }
        // With ε₂ = 8, the flag survives perturbation with p₂ = 1/2 — but it
        // must be the *encoded* bit: rate ≈ p₂ not q₂.
        let rate = flag_set as f64 / trials as f64;
        assert!((rate - 0.5).abs() < 0.05, "flag rate {rate}");
    }

    #[test]
    fn report_size_accounting() {
        let m = small_mech(1.0);
        let mut rng = StdRng::seed_from_u64(0);
        let r = m.privatize(LabelItem::new(0, 0), &mut rng).unwrap();
        assert_eq!(r.size_bits(), 32 + 4);
        assert_eq!(m.report_bits(), 2 + 4); // ⌈log₂3⌉ label bits + d+1
    }
}
