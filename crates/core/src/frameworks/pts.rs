//! PTS — *Perturb The pair Separately* (§III-B), with the Eq. (6) estimator.
//!
//! The label is perturbed with GRR(ε₁) and the item with OUE(ε₂),
//! independently (no correlation — that is [`crate::CorrelatedPerturbation`]'s
//! job). The server buckets item reports under the *perturbed* label and
//! de-biases with Eq. (6), which corrects for three noise sources:
//!
//! 1. items of same-class users flipping on/off (`p₂`, `q₂`),
//! 2. users of *other* classes whose labels flipped into `C` and whose item
//!    bits leak in (`q₁` terms, weighted by the item's global frequency),
//! 3. the uncertainty in the class-size estimate `n̂`.

use rand::Rng;

use mcim_oracles::{
    calibrate::unbiased_count, BitVec, ColumnCounter, Eps, Error, Grr, Result, UnaryEncoding,
};

use crate::{Domains, FrequencyTable, LabelItem};

/// One PTS report: perturbed label + independently perturbed item bits.
#[derive(Debug, Clone, PartialEq)]
pub struct PtsReport {
    /// GRR-perturbed label.
    pub label: u32,
    /// OUE-perturbed item bits (`d` bits — no validity flag in plain PTS).
    pub bits: BitVec,
}

impl PtsReport {
    /// Communication cost in bits.
    pub fn size_bits(&self) -> usize {
        32 + self.bits.len()
    }
}

/// The PTS framework (client side).
#[derive(Debug, Clone)]
pub struct Pts {
    domains: Domains,
    label_mech: Grr,
    item_mech: UnaryEncoding,
}

impl Pts {
    /// Creates the framework with explicit per-phase budgets.
    pub fn new(eps1: Eps, eps2: Eps, domains: Domains) -> Result<Self> {
        Ok(Pts {
            domains,
            label_mech: Grr::new(eps1, domains.classes())?,
            item_mech: UnaryEncoding::optimized(eps2, domains.items())?,
        })
    }

    /// Creates the framework with the paper's even split ε₁ = ε₂ = ε/2.
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

    /// Privatizes one pair: label and item perturbed independently.
    pub fn privatize<R: Rng + ?Sized>(&self, pair: LabelItem, rng: &mut R) -> Result<PtsReport> {
        let mut report = PtsReport {
            label: 0,
            bits: BitVec::zeros(0),
        };
        self.privatize_into(pair, rng, &mut report)?;
        Ok(report)
    }

    /// [`Pts::privatize`] into `out`, reusing its bit storage (reallocated
    /// only when its length is not `d`). Same draws, same report.
    pub fn privatize_into<R: Rng + ?Sized>(
        &self,
        pair: LabelItem,
        rng: &mut R,
        out: &mut PtsReport,
    ) -> Result<()> {
        self.domains.check(pair)?;
        out.label = self.label_mech.perturb(pair.label, rng)?;
        self.item_mech.privatize_into(pair.item, rng, &mut out.bits)
    }
}

/// Server-side aggregation with the Eq. (6) estimator.
#[derive(Debug, Clone)]
pub struct PtsAggregator {
    domains: Domains,
    p1: f64,
    q1: f64,
    p2: f64,
    q2: f64,
    /// `f̃(C, I)`, row-major.
    pair_counts: Vec<u64>,
    /// `ñ(C)`.
    label_counts: Vec<u64>,
    n: u64,
}

impl PtsAggregator {
    /// Creates an empty aggregator matching the framework.
    pub fn new(framework: &Pts) -> Self {
        let (p1, q1) = framework.label_probs();
        let (p2, q2) = framework.item_probs();
        PtsAggregator {
            domains: framework.domains,
            p1,
            q1,
            p2,
            q2,
            pair_counts: vec![0; framework.domains.joint_size() as usize],
            label_counts: vec![0; framework.domains.classes() as usize],
            n: 0,
        }
    }

    /// Validates one report's shape.
    #[inline]
    fn check_report(&self, report: &PtsReport) -> Result<()> {
        if report.label >= self.domains.classes() {
            return Err(Error::ValueOutOfDomain {
                value: report.label as u64,
                domain: self.domains.classes() as u64,
            });
        }
        if report.bits.len() != self.domains.items() as usize {
            return Err(Error::ReportMismatch {
                expected: "PTS item bits of length d",
            });
        }
        Ok(())
    }

    /// Absorbs one report.
    pub fn absorb(&mut self, report: &PtsReport) -> Result<()> {
        self.check_report(report)?;
        let d = self.domains.items() as usize;
        self.n += 1;
        self.label_counts[report.label as usize] += 1;
        let base = report.label as usize * d;
        report
            .bits
            .count_ones_into(&mut self.pair_counts[base..base + d]);
        Ok(())
    }

    /// Absorbs a block of reports through the word-parallel column-sum
    /// runtime: reports are bucketed by perturbed label and each class's
    /// rows are summed bit-sliced. Counts equal sequential
    /// [`PtsAggregator::absorb`].
    pub fn absorb_all<'a, I>(&mut self, reports: I) -> Result<()>
    where
        I: IntoIterator<Item = &'a PtsReport>,
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
            buckets[report.label as usize].push(&report.bits);
        }
        let mut cc = ColumnCounter::new(d);
        for (label, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            for bits in bucket {
                cc.add(bits.words());
            }
            cc.drain_into(&mut self.pair_counts[label * d..(label + 1) * d]);
        }
        outcome
    }

    /// Merges another aggregator over the same domains (sharded aggregation
    /// across threads).
    pub fn merge(&mut self, other: &PtsAggregator) -> Result<()> {
        if self.domains != other.domains {
            return Err(Error::ReportMismatch {
                expected: "PTS aggregator with identical domains",
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

    /// Raw collected pair count `f̃(C, I)`.
    pub fn raw_pair_count(&self, label: u32, item: u32) -> u64 {
        self.pair_counts[(label * self.domains.items() + item) as usize]
    }

    /// Unbiased class-size estimate `n̂(C)`.
    pub fn estimate_class_size(&self, label: u32) -> f64 {
        unbiased_count(
            self.label_counts[label as usize] as f64,
            self.n as f64,
            self.p1,
            self.q1,
        )
    }

    /// Unbiased *global* item estimate `Σ_C f̂(C, I)` from the column sums
    /// (Eq. (6)'s helper term).
    pub fn estimate_item_total(&self, item: u32) -> f64 {
        let d = self.domains.items();
        let col_sum: u64 = (0..self.domains.classes())
            .map(|c| self.pair_counts[(c * d + item) as usize])
            .sum();
        unbiased_count(col_sum as f64, self.n as f64, self.p2, self.q2)
    }

    /// Unbiased frequency estimates — Eq. (6):
    ///
    /// ```text
    ///           f̃(C,I) − n̂·q₂(p₁−q₁)     Σ_C f̂(C,I)·q₁(p₂−q₂) + N·q₁q₂
    /// f̂(C,I) = ──────────────────────  −  ──────────────────────────────
    ///             (p₁−q₁)(p₂−q₂)               (p₁−q₁)(p₂−q₂)
    /// ```
    pub fn estimate(&self) -> FrequencyTable {
        let (p1, q1, p2, q2) = (self.p1, self.q1, self.p2, self.q2);
        let denom = (p1 - q1) * (p2 - q2);
        let n_total = self.n as f64;
        let mut table = FrequencyTable::zeros(self.domains);
        for item in 0..self.domains.items() {
            let item_total = self.estimate_item_total(item);
            for label in 0..self.domains.classes() {
                let n_hat = self.estimate_class_size(label);
                let collected = self.raw_pair_count(label, item) as f64;
                *table.get_mut(label, item) = (collected
                    - n_hat * q2 * (p1 - q1)
                    - item_total * q1 * (p2 - q2)
                    - n_total * q1 * q2)
                    / denom;
            }
        }
        table
    }
}

/// Partial state for the distributed reducer: pair/label counters and the
/// report tally (the calibration constants stay with the template).
impl mcim_oracles::wire::WireState for PtsAggregator {
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

    #[test]
    fn even_split_matches_manual() {
        let domains = Domains::new(4, 16).unwrap();
        let a = Pts::with_total(eps(2.0), domains).unwrap();
        let b = Pts::new(eps(1.0), eps(1.0), domains).unwrap();
        assert_eq!(a.label_probs(), b.label_probs());
        assert_eq!(a.item_probs(), b.item_probs());
    }

    #[test]
    fn eq6_estimator_is_unbiased_monte_carlo() {
        // Item 0 is globally frequent (shared by classes 0 and 1), so the
        // cross-class correction in Eq. (6) matters here.
        let domains = Domains::new(3, 6).unwrap();
        let fw = Pts::with_total(eps(2.0), domains).unwrap();
        let mut agg = PtsAggregator::new(&fw);
        let mut rng = StdRng::seed_from_u64(19);
        let n = 150_000;
        for u in 0..n {
            let pair = match u % 10 {
                0..=3 => LabelItem::new(0, 0), // 40%
                4..=6 => LabelItem::new(1, 0), // 30% — same item, other class
                7 | 8 => LabelItem::new(1, 3), // 20%
                _ => LabelItem::new(2, 5),     // 10%
            };
            agg.absorb(&fw.privatize(pair, &mut rng).unwrap()).unwrap();
        }
        let est = agg.estimate();
        let n = n as f64;
        assert!(
            (est.get(0, 0) - 0.4 * n).abs() < 0.03 * n,
            "got {}",
            est.get(0, 0)
        );
        assert!(
            (est.get(1, 0) - 0.3 * n).abs() < 0.03 * n,
            "got {}",
            est.get(1, 0)
        );
        assert!(
            (est.get(1, 3) - 0.2 * n).abs() < 0.03 * n,
            "got {}",
            est.get(1, 3)
        );
        assert!(
            (est.get(2, 5) - 0.1 * n).abs() < 0.03 * n,
            "got {}",
            est.get(2, 5)
        );
        assert!(
            est.get(2, 0).abs() < 0.03 * n,
            "empty cell {}",
            est.get(2, 0)
        );
    }

    #[test]
    fn item_total_estimate_is_unbiased() {
        let domains = Domains::new(2, 4).unwrap();
        let fw = Pts::with_total(eps(2.0), domains).unwrap();
        let mut agg = PtsAggregator::new(&fw);
        let mut rng = StdRng::seed_from_u64(20);
        let n = 50_000;
        for u in 0..n {
            let pair = if u % 2 == 0 {
                LabelItem::new(0, 2)
            } else {
                LabelItem::new(1, 2)
            };
            agg.absorb(&fw.privatize(pair, &mut rng).unwrap()).unwrap();
        }
        let total = agg.estimate_item_total(2);
        assert!((total - n as f64).abs() < 0.03 * n as f64, "total {total}");
    }

    #[test]
    fn batch_paths_match_sequential() {
        let domains = Domains::new(3, 130).unwrap();
        let fw = Pts::with_total(eps(2.0), domains).unwrap();
        let pairs: Vec<LabelItem> = (0..9000)
            .map(|u| LabelItem::new((u % 3) as u32, ((u * 11) % 130) as u32))
            .collect();
        let mut rng = StdRng::seed_from_u64(3);
        let reports: Vec<PtsReport> = pairs
            .iter()
            .map(|&pair| fw.privatize(pair, &mut rng).unwrap())
            .collect();
        let mut seq = PtsAggregator::new(&fw);
        for r in &reports {
            seq.absorb(r).unwrap();
        }
        for block in [reports.len(), 1000] {
            let mut batch = PtsAggregator::new(&fw);
            for part in reports.chunks(block) {
                batch.absorb_all(part).unwrap();
            }
            assert_eq!(batch.report_count(), seq.report_count(), "block={block}");
            for label in 0..3u32 {
                for item in 0..130u32 {
                    assert_eq!(
                        batch.raw_pair_count(label, item),
                        seq.raw_pair_count(label, item),
                        "({label},{item}) block={block}"
                    );
                }
            }
            let (a, b) = (batch.estimate(), seq.estimate());
            for label in 0..3u32 {
                for item in 0..130u32 {
                    assert!(a.get(label, item) == b.get(label, item));
                }
            }
        }
    }

    #[test]
    fn absorb_validates_shapes() {
        let domains = Domains::new(2, 4).unwrap();
        let fw = Pts::with_total(eps(1.0), domains).unwrap();
        let mut agg = PtsAggregator::new(&fw);
        assert!(agg
            .absorb(&PtsReport {
                label: 2,
                bits: BitVec::zeros(4)
            })
            .is_err());
        assert!(agg
            .absorb(&PtsReport {
                label: 0,
                bits: BitVec::zeros(5)
            })
            .is_err());
    }
}
