//! PTS — *Perturb The pair Separately* (§III-B), with the Eq. (6) estimator.
//!
//! The label is perturbed with GRR(ε₁) and the item with OUE(ε₂),
//! independently (no correlation — that is [`crate::CorrelatedPerturbation`]'s
//! job). Reports are `d`-bit [`PairReport`]s; the [`PairAggregator`] from
//! [`Pts::aggregator`] counts each report's item bits under its *perturbed*
//! label, and [`Pts::estimate`] de-biases those counts with Eq. (6), which
//! corrects for three noise sources:
//!
//! 1. items of same-class users flipping on/off (`p₂`, `q₂`),
//! 2. users of *other* classes whose labels flipped into `C` and whose item
//!    bits leak in (`q₁` terms, weighted by the item's global frequency),
//! 3. the uncertainty in the class-size estimate `n̂`.

use rand::Rng;

use mcim_oracles::{calibrate::unbiased_count, BitVec, Eps, Grr, Result, UnaryEncoding};

use crate::analysis::CpProbs;
use crate::{Domains, FrequencyTable, LabelItem, PairAggregator, PairReport};

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

    /// Label-side `(p₁, q₁)` and item-side `(p₂, q₂)` probabilities.
    pub fn probs(&self) -> CpProbs {
        CpProbs {
            p1: self.label_mech.p(),
            q1: self.label_mech.q(),
            p2: self.item_mech.p(),
            q2: self.item_mech.q(),
        }
    }

    /// Privatizes one pair: label and item perturbed independently.
    pub fn privatize<R: Rng + ?Sized>(&self, pair: LabelItem, rng: &mut R) -> Result<PairReport> {
        let mut report = PairReport {
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
        out: &mut PairReport,
    ) -> Result<()> {
        self.domains.check(pair)?;
        out.label = self.label_mech.perturb(pair.label, rng)?;
        self.item_mech.privatize_into(pair.item, rng, &mut out.bits)
    }

    /// An empty aggregator for this framework's `d`-bit reports.
    pub fn aggregator(&self) -> PairAggregator {
        PairAggregator::new(self.domains, self.domains.items() as usize)
    }

    /// Unbiased *global* item estimate `Σ_C f̂(C, I)` from the column sums
    /// (Eq. (6)'s helper term).
    fn item_total(&self, agg: &PairAggregator, item: u32) -> f64 {
        let CpProbs { p2, q2, .. } = self.probs();
        let col_sum: u64 = (0..self.domains.classes())
            .map(|c| agg.raw_pair_count(c, item))
            .sum();
        unbiased_count(col_sum as f64, agg.report_count() as f64, p2, q2)
    }

    /// Unbiased frequency estimates from an aggregator this framework
    /// built — Eq. (6):
    ///
    /// ```text
    ///           f̃(C,I) − n̂·q₂(p₁−q₁)     Σ_C f̂(C,I)·q₁(p₂−q₂) + N·q₁q₂
    /// f̂(C,I) = ──────────────────────  −  ──────────────────────────────
    ///             (p₁−q₁)(p₂−q₂)               (p₁−q₁)(p₂−q₂)
    /// ```
    ///
    /// Fails on an aggregator of another shape (a PTS-CP one, or other
    /// domains).
    pub fn estimate(&self, agg: &PairAggregator) -> Result<FrequencyTable> {
        agg.check_shape(self.domains, self.domains.items() as usize)?;
        let CpProbs { p1, q1, p2, q2 } = self.probs();
        let denom = (p1 - q1) * (p2 - q2);
        let n_total = agg.report_count() as f64;
        let mut table = FrequencyTable::zeros(self.domains);
        for item in 0..self.domains.items() {
            let item_total = self.item_total(agg, item);
            for label in 0..self.domains.classes() {
                let n_hat = agg.class_size(label, p1, q1);
                let collected = agg.raw_pair_count(label, item) as f64;
                *table.get_mut(label, item) = (collected
                    - n_hat * q2 * (p1 - q1)
                    - item_total * q1 * (p2 - q2)
                    - n_total * q1 * q2)
                    / denom;
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

    #[test]
    fn even_split_matches_manual() {
        let domains = Domains::new(4, 16).unwrap();
        let a = Pts::with_total(eps(2.0), domains).unwrap();
        let b = Pts::new(eps(1.0), eps(1.0), domains).unwrap();
        assert_eq!(a.probs(), b.probs());
    }

    #[test]
    fn eq6_estimator_is_unbiased_monte_carlo() {
        // Item 0 is globally frequent (shared by classes 0 and 1), so the
        // cross-class correction in Eq. (6) matters here.
        let domains = Domains::new(3, 6).unwrap();
        let fw = Pts::with_total(eps(2.0), domains).unwrap();
        let mut agg = fw.aggregator();
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
        let est = fw.estimate(&agg).unwrap();
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
        let mut agg = fw.aggregator();
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
        let total = fw.item_total(&agg, 2);
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
        let reports: Vec<PairReport> = pairs
            .iter()
            .map(|&pair| fw.privatize(pair, &mut rng).unwrap())
            .collect();
        let mut seq = fw.aggregator();
        for r in &reports {
            seq.absorb(r).unwrap();
        }
        for block in [reports.len(), 1000] {
            let mut batch = fw.aggregator();
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
            let (a, b) = (fw.estimate(&batch).unwrap(), fw.estimate(&seq).unwrap());
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
        let mut agg = fw.aggregator();
        assert!(agg
            .absorb(&PairReport {
                label: 2,
                bits: BitVec::zeros(4)
            })
            .is_err());
        assert!(agg
            .absorb(&PairReport {
                label: 0,
                bits: BitVec::zeros(5)
            })
            .is_err());
        assert_eq!(agg.report_count(), 0);
    }
}
