//! HEC — *Handle Each Class independently* (§II-D), the strawman baseline.
//!
//! Users are partitioned round-robin into `c` groups; group `g` collects
//! item statistics for class `C_g` with the full budget ε through the
//! adaptive oracle. A user whose label does not match her group's class has
//! no valid item for that class and must submit a **uniformly random item**
//! to keep deniability — the invalid-data noise that motivates the whole
//! paper (Theorem 4 quantifies it).
//!
//! Estimator (§VI-A): `f̂(C, I) = (c·f̃(C, I) − N·q)/(p − q)`, implemented
//! with the exact group sizes so it stays unbiased when `c ∤ N`.

use rand::Rng;

use mcim_oracles::{AbsorbBlock, Aggregator, Eps, Error, Oracle, Report, Result};

use crate::{Domains, FrequencyTable, LabelItem};

/// The HEC framework (client side).
#[derive(Debug, Clone)]
pub struct Hec {
    domains: Domains,
    oracle: Oracle,
}

/// A report tagged with the group that produced it.
#[derive(Debug, Clone)]
pub struct HecReport {
    /// Group index = class index the user was assigned to mine.
    pub group: u32,
    /// The perturbed item report.
    pub report: Report,
}

impl Hec {
    /// Creates the framework with the adaptive oracle over the item domain.
    pub fn new(eps: Eps, domains: Domains) -> Result<Self> {
        Ok(Hec {
            domains,
            oracle: Oracle::adaptive(eps, domains.items())?,
        })
    }

    /// The domains.
    #[inline]
    pub fn domains(&self) -> Domains {
        self.domains
    }

    /// The underlying oracle (exposed for analysis / tests).
    #[inline]
    pub fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    /// Which group (class) user `user_index` is assigned to mine.
    #[inline]
    pub fn group_of(&self, user_index: u64) -> u32 {
        (user_index % self.domains.classes() as u64) as u32
    }

    /// Privatizes one user's pair. `user_index` determines the group.
    pub fn privatize<R: Rng + ?Sized>(
        &self,
        user_index: u64,
        pair: LabelItem,
        rng: &mut R,
    ) -> Result<HecReport> {
        self.domains.check(pair)?;
        let group = self.group_of(user_index);
        // Mismatched label ⇒ invalid for this group ⇒ random item for
        // deniability (the strawman's handling of invalid data).
        let value = if pair.label == group {
            pair.item
        } else {
            rng.random_range(0..self.domains.items())
        };
        Ok(HecReport {
            group,
            report: self.oracle.privatize(value, rng)?,
        })
    }
}

/// Server-side aggregation: one oracle aggregator per class group.
#[derive(Debug, Clone)]
pub struct HecAggregator {
    domains: Domains,
    groups: Vec<Aggregator>,
}

impl HecAggregator {
    /// Creates an empty aggregator matching the framework.
    pub fn new(framework: &Hec) -> Self {
        HecAggregator {
            domains: framework.domains,
            groups: (0..framework.domains.classes())
                .map(|_| Aggregator::new(&framework.oracle))
                .collect(),
        }
    }

    /// Absorbs one report into its group.
    pub fn absorb(&mut self, report: &HecReport) -> Result<()> {
        let g = report.group as usize;
        if g >= self.groups.len() {
            return Err(Error::ValueOutOfDomain {
                value: report.group as u64,
                domain: self.groups.len() as u64,
            });
        }
        self.groups[g].absorb(&report.report)
    }

    /// Absorbs a block of reports: each report goes to its group's
    /// in-flight [`AbsorbBlock`] (word-parallel for unary-encoding
    /// reports, see [`Aggregator::absorb_all`]) in report order. Counts
    /// equal sequential [`HecAggregator::absorb`]; at a malformed report
    /// the block stops, with every report before it absorbed.
    pub fn absorb_all<'a, I>(&mut self, reports: I) -> Result<()>
    where
        I: IntoIterator<Item = &'a HecReport>,
    {
        let mut block = HecBlock::new(self);
        reports.into_iter().try_for_each(|r| block.push(r))
    }

    /// Absorbs `n` reports built in place: `next(i, report)` writes report
    /// `i` into one reused report, which is then summed like
    /// [`HecAggregator::absorb_all`]. Counts equal `n` sequential
    /// [`HecAggregator::absorb`] calls on the same reports; the first
    /// error, from `next` or a malformed report, stops the loop with every
    /// report before it absorbed.
    pub fn absorb_each<F>(&mut self, n: usize, mut next: F) -> Result<()>
    where
        F: FnMut(usize, &mut HecReport) -> Result<()>,
    {
        let mut report = HecReport {
            group: 0,
            report: Report::Value(0),
        };
        let mut block = HecBlock::new(self);
        (0..n).try_for_each(|i| {
            next(i, &mut report)?;
            block.push(&report)
        })
    }

    /// Merges another aggregator over the same framework (sharded
    /// aggregation across threads).
    pub fn merge(&mut self, other: &HecAggregator) -> Result<()> {
        if self.domains != other.domains || self.groups.len() != other.groups.len() {
            return Err(Error::ReportMismatch {
                expected: "HEC aggregator with identical domains",
            });
        }
        for (a, b) in self.groups.iter_mut().zip(&other.groups) {
            a.merge(b)?;
        }
        Ok(())
    }

    /// Total reports absorbed across groups.
    pub fn report_count(&self) -> u64 {
        self.groups.iter().map(|g| g.report_count()).sum()
    }

    /// Estimates the classwise frequency table.
    ///
    /// Each group's calibrated counts estimate the class's item frequencies
    /// *within the group's user sample*; scaling by `N / N_g` (≈ `c`)
    /// recovers population counts — the `c·f̃` of the paper's formula.
    pub fn estimate(&self) -> Result<FrequencyTable> {
        let n_total: u64 = self.report_count();
        let mut table = FrequencyTable::zeros(self.domains);
        for (g, agg) in self.groups.iter().enumerate() {
            let n_g = agg.report_count();
            if n_g == 0 {
                return Err(Error::InvalidParameter {
                    name: "data",
                    constraint: "every class group needs at least one user",
                });
            }
            let scale = n_total as f64 / n_g as f64;
            for (item, est) in agg.estimate().into_iter().enumerate() {
                *table.get_mut(g as u32, item as u32) = scale * est;
            }
        }
        Ok(table)
    }
}

/// The in-flight block of [`HecAggregator::absorb_all`] and
/// [`HecAggregator::absorb_each`]: one oracle block per class group, each
/// drained into its group when the block is dropped.
struct HecBlock<'a> {
    groups: Vec<AbsorbBlock<'a>>,
}

impl<'a> HecBlock<'a> {
    fn new(agg: &'a mut HecAggregator) -> Self {
        HecBlock {
            groups: agg.groups.iter_mut().map(Aggregator::block).collect(),
        }
    }

    #[inline]
    fn push(&mut self, report: &HecReport) -> Result<()> {
        let domain = self.groups.len() as u64;
        match self.groups.get_mut(report.group as usize) {
            Some(group) => group.push(&report.report),
            None => Err(Error::ValueOutOfDomain {
                value: report.group as u64,
                domain,
            }),
        }
    }
}

/// Partial state for the distributed reducer: every group's counters.
/// Decoded against a template, so a partial with a different group count
/// (built for other domains) is rejected.
impl mcim_oracles::wire::WireState for HecAggregator {
    fn save(&self, buf: &mut Vec<u8>) {
        use mcim_oracles::wire::Wire;
        (self.groups.len() as u32).put(buf);
        for group in &self.groups {
            group.save(buf);
        }
    }

    fn load(&mut self, r: &mut mcim_oracles::wire::WireReader<'_>) -> Result<()> {
        use mcim_oracles::wire::Wire;
        if u32::take(r)? as usize != self.groups.len() {
            return Err(Error::ReportMismatch {
                expected: "HEC partial with the template's group count",
            });
        }
        for group in &mut self.groups {
            group.load(r)?;
        }
        Ok(())
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
    fn groups_rotate_round_robin() {
        let fw = Hec::new(eps(1.0), Domains::new(3, 4).unwrap()).unwrap();
        assert_eq!(fw.group_of(0), 0);
        assert_eq!(fw.group_of(1), 1);
        assert_eq!(fw.group_of(2), 2);
        assert_eq!(fw.group_of(3), 0);
    }

    #[test]
    fn empty_group_is_an_error() {
        let fw = Hec::new(eps(1.0), Domains::new(3, 4).unwrap()).unwrap();
        let mut agg = HecAggregator::new(&fw);
        let mut rng = StdRng::seed_from_u64(0);
        // Only one user → groups 1 and 2 empty.
        let r = fw.privatize(0, LabelItem::new(0, 0), &mut rng).unwrap();
        agg.absorb(&r).unwrap();
        assert!(agg.estimate().is_err());
    }

    #[test]
    fn estimates_match_theorem4_biased_expectation() {
        // HEC is *not* unbiased: each group's invalid users add random-item
        // noise. After calibration and scaling, the bias per (C, I) cell is
        // (N − n_C)/d — exactly Theorem 4's injection. We assert the
        // estimate matches truth *plus* that predicted bias.
        let domains = Domains::new(2, 4).unwrap();
        let fw = Hec::new(eps(6.0), domains).unwrap();
        let mut agg = HecAggregator::new(&fw);
        let mut rng = StdRng::seed_from_u64(9);
        let n = 40_000u64;
        // class 0 → item 1 (60%), class 1 → item 2 (40%).
        for u in 0..n {
            let pair = if u % 5 < 3 {
                LabelItem::new(0, 1)
            } else {
                LabelItem::new(1, 2)
            };
            agg.absorb(&fw.privatize(u, pair, &mut rng).unwrap())
                .unwrap();
        }
        let est = agg.estimate().unwrap();
        let n = n as f64;
        let d = 4.0;
        let bias0 = (n - 0.6 * n) / d; // class 0 holds 60% of users
        let bias1 = (n - 0.4 * n) / d;
        assert!(
            (est.get(0, 1) - (0.6 * n + bias0)).abs() < 0.03 * n,
            "est {} vs biased expectation {}",
            est.get(0, 1),
            0.6 * n + bias0
        );
        assert!(
            (est.get(1, 2) - (0.4 * n + bias1)).abs() < 0.03 * n,
            "est {} vs biased expectation {}",
            est.get(1, 2),
            0.4 * n + bias1
        );
    }

    #[test]
    fn mismatched_users_submit_random_items() {
        // With a huge ε the oracle barely perturbs; a user in the wrong
        // group must still hide her item behind a uniform draw.
        let domains = Domains::new(2, 8).unwrap();
        let fw = Hec::new(eps(10.0), domains).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let mut counts = [0u32; 8];
        for _ in 0..8000 {
            // user_index 1 → group 1, but label is 0: invalid.
            let r = fw.privatize(1, LabelItem::new(0, 5), &mut rng).unwrap();
            if let Report::Value(v) = r.report {
                counts[v as usize] += 1;
            } else if let Report::Bits(bits) = &r.report {
                for i in bits.iter_ones() {
                    counts[i] += 1;
                }
            }
        }
        // No single item should dominate: uniform ⇒ each ≈ 1000.
        for (item, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - 1000.0).abs() < 250.0,
                "item {item}: count {c} not uniform"
            );
        }
    }
}
