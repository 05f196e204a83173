//! PTJ — *Perturb The pair Jointly* (§III-B).
//!
//! The perturbation domain is the Cartesian product `P = C × I` of size
//! `c·d`; each user perturbs her whole pair inside `P` with the full budget
//! through the adaptive oracle. PTJ never produces invalid data for
//! frequency estimation (every output is some pair), and it enjoys the full
//! ε, but its report is `O(c·d)` bits under OUE — the communication cost the
//! paper repeatedly flags (§V-C, Table II).

use rand::Rng;

use mcim_oracles::{Aggregator, Eps, Oracle, Report, Result};

use crate::{Domains, FrequencyTable, LabelItem};

/// The PTJ framework (client side).
#[derive(Debug, Clone)]
pub struct Ptj {
    domains: Domains,
    oracle: Oracle,
}

impl Ptj {
    /// Creates the framework with the adaptive oracle over `C × I`.
    pub fn new(eps: Eps, domains: Domains) -> Result<Self> {
        Ok(Ptj {
            domains,
            oracle: Oracle::adaptive(eps, domains.joint_size())?,
        })
    }

    /// The domains.
    #[inline]
    pub fn domains(&self) -> Domains {
        self.domains
    }

    /// The underlying oracle.
    #[inline]
    pub fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    /// Privatizes one pair over the joint domain.
    pub fn privatize<R: Rng + ?Sized>(&self, pair: LabelItem, rng: &mut R) -> Result<Report> {
        self.domains.check(pair)?;
        self.oracle.privatize(self.domains.joint_index(pair), rng)
    }
}

/// Server-side aggregation over the joint domain.
#[derive(Debug, Clone)]
pub struct PtjAggregator {
    domains: Domains,
    inner: Aggregator,
}

impl PtjAggregator {
    /// Creates an empty aggregator matching the framework.
    pub fn new(framework: &Ptj) -> Self {
        PtjAggregator {
            domains: framework.domains,
            inner: Aggregator::new(&framework.oracle),
        }
    }

    /// Absorbs one report.
    pub fn absorb(&mut self, report: &Report) -> Result<()> {
        self.inner.absorb(report)
    }

    /// Absorbs a block of reports through the word-parallel column-sum
    /// runtime (see [`Aggregator::absorb_all`]); counts equal sequential
    /// [`PtjAggregator::absorb`].
    pub fn absorb_all<'a, I>(&mut self, reports: I) -> Result<()>
    where
        I: IntoIterator<Item = &'a Report>,
    {
        self.inner.absorb_all(reports)
    }

    /// Absorbs `n` reports built in place into one reused report (see
    /// [`Aggregator::absorb_each`]); counts equal sequential
    /// [`PtjAggregator::absorb`].
    pub fn absorb_each<F>(&mut self, n: usize, next: F) -> Result<()>
    where
        F: FnMut(usize, &mut Report) -> Result<()>,
    {
        self.inner.absorb_each(n, next)
    }

    /// Merges another aggregator over the same framework (sharded
    /// aggregation across threads).
    pub fn merge(&mut self, other: &PtjAggregator) -> Result<()> {
        self.inner.merge(&other.inner)
    }

    /// Number of absorbed reports.
    pub fn report_count(&self) -> u64 {
        self.inner.report_count()
    }

    /// Estimates the classwise frequency table:
    /// `f̂(C, I) = (f̃(C, I) − N·q)/(p − q)` per joint value (§VI-A).
    pub fn estimate(&self) -> FrequencyTable {
        let mut table = FrequencyTable::zeros(self.domains);
        for (joint, est) in self.inner.estimate().into_iter().enumerate() {
            let pair = self.domains.pair_of_joint(joint as u32);
            *table.get_mut(pair.label, pair.item) = est;
        }
        table
    }
}

/// Partial state for the distributed reducer: the joint-domain counters.
impl mcim_oracles::wire::WireState for PtjAggregator {
    fn save(&self, buf: &mut Vec<u8>) {
        self.inner.save(buf);
    }

    fn load(&mut self, r: &mut mcim_oracles::wire::WireReader<'_>) -> Result<()> {
        self.inner.load(r)
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
    fn joint_domain_size_drives_oracle_choice() {
        // Small joint domain → GRR; large → OUE.
        let small = Ptj::new(eps(2.0), Domains::new(2, 3).unwrap()).unwrap();
        assert_eq!(small.oracle().name(), "GRR");
        let large = Ptj::new(eps(2.0), Domains::new(10, 100).unwrap()).unwrap();
        assert_eq!(large.oracle().name(), "OUE");
    }

    #[test]
    fn estimates_recover_truth() {
        let domains = Domains::new(3, 5).unwrap();
        let fw = Ptj::new(eps(3.0), domains).unwrap();
        let mut agg = PtjAggregator::new(&fw);
        let mut rng = StdRng::seed_from_u64(12);
        let n = 60_000;
        for u in 0..n {
            let pair = if u % 4 == 0 {
                LabelItem::new(2, 4)
            } else {
                LabelItem::new(0, 1)
            };
            agg.absorb(&fw.privatize(pair, &mut rng).unwrap()).unwrap();
        }
        let est = agg.estimate();
        assert!((est.get(2, 4) - 0.25 * n as f64).abs() < 0.04 * n as f64);
        assert!((est.get(0, 1) - 0.75 * n as f64).abs() < 0.04 * n as f64);
        assert!(est.get(1, 3).abs() < 0.04 * n as f64);
    }

    #[test]
    fn rejects_out_of_domain_pairs() {
        let fw = Ptj::new(eps(1.0), Domains::new(2, 2).unwrap()).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(fw.privatize(LabelItem::new(2, 0), &mut rng).is_err());
    }
}
