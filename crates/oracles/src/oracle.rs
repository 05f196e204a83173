//! The unified oracle interface and server-side aggregation.
//!
//! The paper's frameworks are generic over "an LDP mechanism" chosen
//! adaptively by domain size (GRR for small domains, OUE for large — Wang et
//! al.'s rule `d < 3e^ε + 2`, quoted verbatim in §VII-D). [`Oracle`] is that
//! closed sum of mechanisms, and [`Aggregator`] is the matching streaming
//! server state: reports are absorbed one by one so the server never holds
//! all raw reports in memory.

use rand::Rng;

use crate::calibrate::unbiased_count;
use crate::colsum::ColumnCounter;
use crate::{BitVec, Eps, Error, Grr, Result, UnaryEncoding};

/// A frequency oracle: one of the concrete LDP mechanisms.
#[derive(Debug, Clone)]
pub enum Oracle {
    /// Generalized random response.
    Grr(Grr),
    /// Unary encoding (SUE or OUE).
    Ue(UnaryEncoding),
}

/// A single privatized report, matching the oracle that produced it.
#[derive(Debug, Clone, PartialEq)]
pub enum Report {
    /// GRR output value.
    Value(u32),
    /// Unary-encoded perturbed bits.
    Bits(BitVec),
}

impl Report {
    /// Communication cost of this report in bits.
    pub fn size_bits(&self) -> usize {
        match self {
            Report::Value(_) => 32,
            Report::Bits(b) => b.len(),
        }
    }
}

impl Oracle {
    /// The adaptive mechanism of Wang et al.: GRR iff `d < 3e^ε + 2`,
    /// otherwise OUE. This is the oracle the paper plugs into HEC and PTJ.
    pub fn adaptive(eps: Eps, d: u32) -> Result<Self> {
        if (d as f64) < 3.0 * eps.exp() + 2.0 {
            Ok(Oracle::Grr(Grr::new(eps, d)?))
        } else {
            Ok(Oracle::Ue(UnaryEncoding::optimized(eps, d)?))
        }
    }

    /// Forces GRR.
    pub fn grr(eps: Eps, d: u32) -> Result<Self> {
        Ok(Oracle::Grr(Grr::new(eps, d)?))
    }

    /// Forces OUE.
    pub fn oue(eps: Eps, d: u32) -> Result<Self> {
        Ok(Oracle::Ue(UnaryEncoding::optimized(eps, d)?))
    }

    /// Domain size `d`.
    pub fn domain_size(&self) -> u32 {
        match self {
            Oracle::Grr(m) => m.domain_size(),
            Oracle::Ue(m) => m.domain_size(),
        }
    }

    /// Probability the true signal survives ("support p").
    pub fn p(&self) -> f64 {
        match self {
            Oracle::Grr(m) => m.p(),
            Oracle::Ue(m) => m.p(),
        }
    }

    /// Probability an unrelated value is supported ("support q").
    pub fn q(&self) -> f64 {
        match self {
            Oracle::Grr(m) => m.q(),
            Oracle::Ue(m) => m.q(),
        }
    }

    /// Per-user report size in bits.
    pub fn report_bits(&self) -> usize {
        match self {
            Oracle::Grr(m) => m.report_bits(),
            Oracle::Ue(m) => m.report_bits(),
        }
    }

    /// Privatizes a single value.
    pub fn privatize<R: Rng + ?Sized>(&self, v: u32, rng: &mut R) -> Result<Report> {
        match self {
            Oracle::Grr(m) => Ok(Report::Value(m.perturb(v, rng)?)),
            Oracle::Ue(m) => Ok(Report::Bits(m.privatize(v, rng)?)),
        }
    }

    /// Short name for logs and benchmark tables.
    pub fn name(&self) -> &'static str {
        match self {
            Oracle::Grr(_) => "GRR",
            Oracle::Ue(m) => match m.kind() {
                crate::ue::UeKind::Optimized => "OUE",
                crate::ue::UeKind::Symmetric => "SUE",
            },
        }
    }
}

/// Streaming server-side aggregation for one oracle.
///
/// Counts supports per domain value; [`Aggregator::estimate`] applies the
/// unbiased calibration `(c − n·q)/(p − q)`.
#[derive(Debug, Clone)]
pub struct Aggregator {
    oracle: Oracle,
    counts: Vec<u64>,
    n: u64,
}

impl Aggregator {
    /// Creates an empty aggregator for `oracle`.
    pub fn new(oracle: &Oracle) -> Self {
        Aggregator {
            oracle: oracle.clone(),
            counts: vec![0; oracle.domain_size() as usize],
            n: 0,
        }
    }

    /// Absorbs one report.
    pub fn absorb(&mut self, report: &Report) -> Result<()> {
        match (&self.oracle, report) {
            (Oracle::Grr(_), Report::Value(v)) => {
                let idx = *v as usize;
                if idx >= self.counts.len() {
                    return Err(Error::ValueOutOfDomain {
                        value: *v as u64,
                        domain: self.counts.len() as u64,
                    });
                }
                self.counts[idx] += 1;
            }
            (Oracle::Ue(m), Report::Bits(bits)) => {
                if bits.len() != m.domain_size() as usize {
                    return Err(Error::ReportMismatch {
                        expected: "UE bits of the aggregator's domain length",
                    });
                }
                bits.count_ones_into(&mut self.counts);
            }
            _ => {
                return Err(Error::ReportMismatch {
                    expected: "report variant matching the aggregator's oracle",
                })
            }
        }
        self.n += 1;
        Ok(())
    }

    /// Absorbs a whole block of reports through the word-parallel runtime
    /// ([`AbsorbBlock`]): unary-encoding rows are summed bit-sliced, GRR
    /// values counted directly. Counts
    /// are exactly the ones `reports.iter().map(|r| self.absorb(r))` would
    /// produce, including at an invalid report, which stops the block with
    /// every report before it absorbed.
    pub fn absorb_all<'a, I>(&mut self, reports: I) -> Result<()>
    where
        I: IntoIterator<Item = &'a Report>,
    {
        let mut block = self.block();
        reports.into_iter().try_for_each(|r| block.push(r))
    }

    /// Absorbs `n` reports built in place: `next(i, report)` writes report
    /// `i` into one reused report, which is then pushed into the block
    /// [`Aggregator::absorb_all`] uses — no report is kept.
    ///
    /// Counts and `n` equal `n` sequential [`Aggregator::absorb`] calls on
    /// the same reports. The first error, from `next` or an invalid
    /// report, stops the loop with every report before it absorbed.
    pub fn absorb_each<F>(&mut self, n: usize, mut next: F) -> Result<()>
    where
        F: FnMut(usize, &mut Report) -> Result<()>,
    {
        let mut report = Report::Value(0);
        let mut block = self.block();
        (0..n).try_for_each(|i| {
            next(i, &mut report)?;
            block.push(&report)
        })
    }

    /// An empty in-flight block over this aggregator; every report pushed
    /// into it has reached the counts once the block is dropped.
    pub fn block(&mut self) -> AbsorbBlock<'_> {
        let pending = match &self.oracle {
            Oracle::Grr(_) => Pending::Direct,
            Oracle::Ue(m) => Pending::Columns(ColumnCounter::new(m.domain_size() as usize)),
        };
        AbsorbBlock { agg: self, pending }
    }

    /// The oracle this aggregator matches.
    #[inline]
    pub fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    /// Number of absorbed reports.
    #[inline]
    pub fn report_count(&self) -> u64 {
        self.n
    }

    /// Raw (uncalibrated) support counts.
    pub fn raw_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Unbiased frequency estimates for every domain value.
    pub fn estimate(&self) -> Vec<f64> {
        let n = self.n as f64;
        let (p, q) = (self.oracle.p(), self.oracle.q());
        self.counts
            .iter()
            .map(|&c| unbiased_count(c as f64, n, p, q))
            .collect()
    }

    /// Merges another aggregator over the same oracle (for sharded
    /// aggregation across threads).
    pub fn merge(&mut self, other: &Aggregator) -> Result<()> {
        if self.counts.len() != other.counts.len() {
            return Err(Error::ReportMismatch {
                expected: "aggregator with identical domain",
            });
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        Ok(())
    }
}

/// The in-flight block of an [`Aggregator`]: what a block of reports
/// holds between being pushed and reaching the counts.
///
/// GRR values count straight into the aggregator; unary-encoding rows
/// wait in a [`ColumnCounter`]. Dropping the block moves the pending rows
/// into the counts, so the aggregator is never seen with a report counted
/// in `n` but not in its counts.
#[derive(Debug)]
pub struct AbsorbBlock<'a> {
    agg: &'a mut Aggregator,
    pending: Pending,
}

#[derive(Debug)]
enum Pending {
    Direct,
    Columns(ColumnCounter),
}

impl AbsorbBlock<'_> {
    /// Adds one report: counts it toward `n` and holds or counts its
    /// support. A report that does not match the oracle is refused with
    /// the error [`Aggregator::absorb`] gives, and nothing is added.
    #[inline]
    pub fn push(&mut self, report: &Report) -> Result<()> {
        let AbsorbBlock { agg, pending } = self;
        match (pending, report) {
            (Pending::Direct, _) => return agg.absorb(report),
            (Pending::Columns(cc), Report::Bits(bits)) if bits.len() == cc.len() => {
                cc.add(bits.words())
            }
            (Pending::Columns(_), Report::Bits(_)) => {
                return Err(Error::ReportMismatch {
                    expected: "UE bits of the aggregator's domain length",
                })
            }
            _ => {
                return Err(Error::ReportMismatch {
                    expected: "report variant matching the aggregator's oracle",
                })
            }
        }
        agg.n += 1;
        Ok(())
    }
}

impl Drop for AbsorbBlock<'_> {
    /// Moves the pending rows into the aggregator's counts.
    fn drop(&mut self) {
        match &mut self.pending {
            Pending::Direct => {}
            Pending::Columns(cc) => cc.drain_into(&mut self.agg.counts),
        }
    }
}

/// Partial state for the distributed reducer: the support counters and the
/// report tally. The oracle configuration never travels — a decoded
/// partial loads into a clone of the stage's template, which rejects
/// mismatched domain sizes.
impl crate::wire::WireState for Aggregator {
    fn save(&self, buf: &mut Vec<u8>) {
        self.counts.save(buf);
        self.n.save(buf);
    }

    fn load(&mut self, r: &mut crate::wire::WireReader<'_>) -> Result<()> {
        self.counts.load(r)?;
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
    fn adaptive_rule_matches_paper() {
        // d < 3e^ε + 2 → GRR, else OUE.
        let e = 1.0f64;
        let threshold = 3.0 * e.exp() + 2.0; // ≈ 10.15
        let small = Oracle::adaptive(eps(e), 10).unwrap();
        let large = Oracle::adaptive(eps(e), 11).unwrap();
        assert_eq!(small.name(), "GRR", "d=10 < {threshold}");
        assert_eq!(large.name(), "OUE", "d=11 > {threshold}");
    }

    /// Budgets past where `e^ε` (ε ≈ 709.8) or `e^{ε/2}` (ε ≈ 1419.6)
    /// overflows: every mechanism keeps probabilities in `[0, 1]`, takes
    /// the limit `p = 1` where its formula for `p` overflowed, and gives
    /// finite estimates.
    #[test]
    fn huge_budgets_keep_probabilities_and_estimates_finite() {
        for e in [44.5, 710.0, 1420.0, f64::MAX] {
            // Each oracle with the budget from which its `p` is 1 (OUE's
            // p is 1/2 at every budget).
            let oracles = [
                (Oracle::grr(eps(e), 8).unwrap(), 710.0),
                (Oracle::oue(eps(e), 8).unwrap(), f64::INFINITY),
                (
                    Oracle::Ue(UnaryEncoding::symmetric(eps(e), 8).unwrap()),
                    1420.0,
                ),
            ];
            for (oracle, p_is_one_from) in oracles {
                let (p, q) = (oracle.p(), oracle.q());
                assert!(
                    (0.0..=1.0).contains(&p) && (0.0..=1.0).contains(&q),
                    "{} at ε={e}: p={p} q={q}",
                    oracle.name()
                );
                if e >= p_is_one_from {
                    assert_eq!(p, 1.0, "{} at ε={e}", oracle.name());
                }
                let mut agg = Aggregator::new(&oracle);
                let mut rng = StdRng::seed_from_u64(5);
                for u in 0..200u32 {
                    agg.absorb(&oracle.privatize(u % 3, &mut rng).unwrap())
                        .unwrap();
                }
                let est = agg.estimate();
                assert!(
                    est.iter().all(|v| v.is_finite()),
                    "{} at ε={e}: {est:?}",
                    oracle.name()
                );
            }
        }
    }

    #[test]
    fn grr_roundtrip_estimation() {
        let oracle = Oracle::grr(eps(2.0), 6).unwrap();
        let mut agg = Aggregator::new(&oracle);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 30_000;
        for u in 0..n {
            let item = (u % 3) as u32; // uniform over {0,1,2}
            agg.absorb(&oracle.privatize(item, &mut rng).unwrap())
                .unwrap();
        }
        let est = agg.estimate();
        for (v, e) in est.iter().enumerate() {
            let expected = if v < 3 { n as f64 / 3.0 } else { 0.0 };
            assert!((e - expected).abs() < 0.05 * n as f64, "v={v} est={e}");
        }
    }

    #[test]
    fn oue_roundtrip_estimation() {
        let oracle = Oracle::oue(eps(1.0), 128).unwrap();
        let mut agg = Aggregator::new(&oracle);
        let mut rng = StdRng::seed_from_u64(4);
        let n = 30_000;
        for _ in 0..n {
            agg.absorb(&oracle.privatize(100, &mut rng).unwrap())
                .unwrap();
        }
        let est = agg.estimate();
        assert!((est[100] - n as f64).abs() < 0.05 * n as f64);
        assert!(est[0].abs() < 0.05 * n as f64);
    }

    #[test]
    fn word_parallel_sampler_matches_oue_rates() {
        // The word-parallel noise plane must reproduce (p, q) exactly like
        // the per-report path: check empirical bit rates.
        let oracle = Oracle::oue(eps(1.0), 128).unwrap();
        let n = 20_000u32;
        let mut rng = StdRng::seed_from_u64(99);
        let mut hot = 0usize;
        let mut cold = 0usize;
        for _ in 0..n {
            let Report::Bits(bits) = oracle.privatize(7, &mut rng).unwrap() else {
                panic!("OUE emits bit reports")
            };
            hot += usize::from(bits.get(7));
            cold += bits.count_ones() - usize::from(bits.get(7));
        }
        let p_hat = hot as f64 / n as f64;
        let q_hat = cold as f64 / (n as usize * 127) as f64;
        assert!((p_hat - oracle.p()).abs() < 0.02, "p_hat={p_hat}");
        assert!((q_hat - oracle.q()).abs() < 0.005, "q_hat={q_hat}");
    }

    #[test]
    fn absorb_all_and_stream_match_sequential_absorb() {
        for oracle in [
            Oracle::grr(eps(1.0), 6).unwrap(),
            Oracle::oue(eps(1.0), 200).unwrap(),
        ] {
            let d = oracle.domain_size();
            let mut rng = StdRng::seed_from_u64(5);
            let reports: Vec<Report> = (0..9000)
                .map(|u| oracle.privatize((u * 7) % d, &mut rng).unwrap())
                .collect();
            let mut seq = Aggregator::new(&oracle);
            for r in &reports {
                seq.absorb(r).unwrap();
            }
            let mut all = Aggregator::new(&oracle);
            all.absorb_all(&reports).unwrap();
            assert_eq!(all.raw_counts(), seq.raw_counts(), "{}", oracle.name());
            assert_eq!(all.report_count(), seq.report_count());
            assert_eq!(all.estimate(), seq.estimate(), "{}", oracle.name());
        }
    }

    #[test]
    fn absorb_all_rejects_bad_reports_in_ue_block() {
        let oracle = Oracle::oue(eps(1.0), 64).unwrap();
        let mut agg = Aggregator::new(&oracle);
        let good = Report::Bits(BitVec::one_hot(64, 3));
        let bad = Report::Bits(BitVec::zeros(63));
        assert!(agg.absorb_all([&good, &bad, &good]).is_err());
        assert!(
            agg.absorb_all([&good, &Report::Value(0)]).is_err(),
            "variant mismatch detected"
        );
    }

    #[test]
    fn mismatched_report_rejected() {
        let oracle = Oracle::grr(eps(1.0), 4).unwrap();
        let mut agg = Aggregator::new(&oracle);
        let err = agg.absorb(&Report::Bits(BitVec::zeros(4))).unwrap_err();
        assert!(matches!(err, Error::ReportMismatch { .. }));
    }

    #[test]
    fn merge_combines_counts() {
        let oracle = Oracle::grr(eps(1.0), 4).unwrap();
        let mut a = Aggregator::new(&oracle);
        let mut b = Aggregator::new(&oracle);
        a.absorb(&Report::Value(1)).unwrap();
        b.absorb(&Report::Value(1)).unwrap();
        b.absorb(&Report::Value(2)).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.report_count(), 3);
        assert_eq!(a.raw_counts(), &[0, 2, 1, 0]);
    }

    #[test]
    fn report_sizes() {
        assert_eq!(
            Oracle::oue(eps(1.0), 100).unwrap().report_bits(),
            100,
            "OUE sends one bit per item"
        );
        assert!(Oracle::grr(eps(1.0), 100).unwrap().report_bits() <= 7 + 1);
    }
}
