//! The report and the aggregator PTS and PTS-CP share.
//!
//! PTS (§III-B) and correlated perturbation (§IV-B) send the same report:
//! a GRR-perturbed label and a unary item vector. The server counts the
//! vector's set bits under the *perturbed* label. The two mechanisms differ
//! only in the vector's width and in their estimators:
//!
//! * PTS sends `d` OUE bits, and [`Pts::estimate`](crate::frameworks::Pts::estimate)
//!   applies Eq. (6);
//! * PTS-CP sends `d + 1` VP bits with the validity flag at bit `d`, and
//!   [`CorrelatedPerturbation::estimate`](crate::CorrelatedPerturbation::estimate)
//!   applies Eq. (4). A report whose perturbed flag is set counts toward
//!   its label's `ñ(C)` but toward no item (the counting rule derived in
//!   [`crate::CorrelatedPerturbation`]'s docs).
//!
//! Each mechanism builds its aggregator with its report width, so whether
//! bit `d` is a flag is fixed by the mechanism, not chosen by the caller.

use mcim_oracles::calibrate::unbiased_count;
use mcim_oracles::{BitVec, ColumnCounter, Error, Result};

use crate::Domains;

/// One PTS or PTS-CP report: a perturbed label and its item vector.
#[derive(Debug, Clone, PartialEq)]
pub struct PairReport {
    /// GRR-perturbed label.
    pub label: u32,
    /// Perturbed item bits: `d` for PTS, `d + 1` (flag at `d`) for PTS-CP.
    pub bits: BitVec,
}

impl PairReport {
    /// Communication cost in bits.
    pub fn size_bits(&self) -> usize {
        32 + self.bits.len()
    }
}

/// Server-side counts of [`PairReport`]s: `f̃(C, I)`, `ñ(C)` and `N`.
///
/// Built by [`Pts::aggregator`](crate::frameworks::Pts::aggregator) or
/// [`CorrelatedPerturbation::aggregator`](crate::CorrelatedPerturbation::aggregator)
/// and estimated by the same mechanism.
#[derive(Debug, Clone)]
pub struct PairAggregator {
    domains: Domains,
    /// Report width: `d`, or `d + 1` with the validity flag at bit `d`.
    width: usize,
    /// `f̃(C, I)`, row-major `[class][item]`.
    pair_counts: Vec<u64>,
    /// `ñ(C)`: perturbed-label counts.
    label_counts: Vec<u64>,
    n: u64,
}

impl PairAggregator {
    /// An empty aggregator for `width`-bit reports over `domains`.
    pub(crate) fn new(domains: Domains, width: usize) -> Self {
        PairAggregator {
            domains,
            width,
            pair_counts: vec![0; domains.joint_size() as usize],
            label_counts: vec![0; domains.classes() as usize],
            n: 0,
        }
    }

    /// Fails unless the aggregator counts `width`-bit reports over
    /// `domains`, i.e. was built by the mechanism asking.
    pub(crate) fn check_shape(&self, domains: Domains, width: usize) -> Result<()> {
        if self.domains != domains || self.width != width {
            return Err(Error::ReportMismatch {
                expected: "an aggregator built by the estimating mechanism",
            });
        }
        Ok(())
    }

    /// Validates `report`, counts it toward `N` and `ñ(C)`, and says
    /// whether its item bits count toward `f̃(C, ·)` (not flagged invalid).
    #[inline]
    fn tally(&mut self, report: &PairReport) -> Result<bool> {
        let (c, d) = (self.domains.classes(), self.domains.items() as usize);
        if report.label >= c {
            return Err(Error::ValueOutOfDomain {
                value: report.label as u64,
                domain: c as u64,
            });
        }
        if report.bits.len() != self.width {
            return Err(Error::ReportMismatch {
                expected: "item bits of the mechanism's report width",
            });
        }
        self.n += 1;
        self.label_counts[report.label as usize] += 1;
        Ok(self.width == d || !report.bits.bit(d))
    }

    /// Absorbs one report.
    pub fn absorb(&mut self, report: &PairReport) -> Result<()> {
        if self.tally(report)? {
            let d = self.domains.items() as usize;
            let base = report.label as usize * d;
            // An unflagged report's set bits all lie in the d item columns.
            report
                .bits
                .count_ones_into(&mut self.pair_counts[base..base + d]);
        }
        Ok(())
    }

    /// Absorbs a block of reports through the word-parallel column-sum
    /// runtime: each class's rows feed that class's own [`ColumnCounter`]
    /// in report order. Counts equal sequential [`PairAggregator::absorb`];
    /// at a malformed report the block stops, with every report before it
    /// absorbed.
    pub fn absorb_all<'a, I>(&mut self, reports: I) -> Result<()>
    where
        I: IntoIterator<Item = &'a PairReport>,
    {
        let mut block = PairBlock::new(self);
        reports.into_iter().try_for_each(|r| block.push(r))
    }

    /// Absorbs `n` reports built in place: `next(i, report)` writes report
    /// `i` into one reused report, which is then summed like
    /// [`PairAggregator::absorb_all`] — no report is allocated or kept.
    ///
    /// Counts and `N` equal `n` sequential [`PairAggregator::absorb`]
    /// calls on the same reports. The first error, from `next` or a
    /// malformed report, stops the loop with every report before it
    /// absorbed.
    pub fn absorb_each<F>(&mut self, n: usize, mut next: F) -> Result<()>
    where
        F: FnMut(usize, &mut PairReport) -> Result<()>,
    {
        let mut report = PairReport {
            label: 0,
            bits: BitVec::zeros(self.width),
        };
        let mut block = PairBlock::new(self);
        (0..n).try_for_each(|i| {
            next(i, &mut report)?;
            block.push(&report)
        })
    }

    /// Merges another aggregator of the same shape (sharded aggregation
    /// across threads).
    pub fn merge(&mut self, other: &PairAggregator) -> Result<()> {
        other.check_shape(self.domains, self.width)?;
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

    /// Raw collected label count `ñ(C)`.
    pub fn raw_label_count(&self, label: u32) -> u64 {
        self.label_counts[label as usize]
    }

    /// Unbiased class-size estimate `n̂(C) = (ñ − N·q₁)/(p₁ − q₁)` under
    /// the label mechanism's `(p₁, q₁)`.
    pub(crate) fn class_size(&self, label: u32, p1: f64, q1: f64) -> f64 {
        unbiased_count(self.raw_label_count(label) as f64, self.n as f64, p1, q1)
    }
}

/// The in-flight block of [`PairAggregator::absorb_all`] and
/// [`PairAggregator::absorb_each`]: `N` and `ñ(C)` are counted as reports
/// arrive, and each unflagged row waits in its perturbed label's
/// [`ColumnCounter`], built on the label's first row, until the block is
/// dropped.
struct PairBlock<'a> {
    agg: &'a mut PairAggregator,
    counters: Vec<Option<ColumnCounter>>,
}

impl<'a> PairBlock<'a> {
    fn new(agg: &'a mut PairAggregator) -> Self {
        let counters = vec![None; agg.label_counts.len()];
        PairBlock { agg, counters }
    }

    #[inline]
    fn push(&mut self, report: &PairReport) -> Result<()> {
        if self.agg.tally(report)? {
            let width = self.agg.width;
            self.counters[report.label as usize]
                .get_or_insert_with(|| ColumnCounter::new(width))
                .add(report.bits.words());
        }
        Ok(())
    }
}

impl Drop for PairBlock<'_> {
    /// Adds each class's pending rows to its `f̃(C, ·)` row.
    fn drop(&mut self) {
        let d = self.agg.domains.items() as usize;
        let rows = self.agg.pair_counts.chunks_exact_mut(d);
        for (row, counter) in rows.zip(&mut self.counters) {
            // The d-column prefix drops PTS-CP's (all-zero) flag column.
            if let Some(counter) = counter {
                counter.drain_into(row);
            }
        }
    }
}

/// Partial state for the distributed reducer: pair/label counters and the
/// report tally (the calibration constants stay with the template).
impl mcim_oracles::wire::WireState for PairAggregator {
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
    use crate::frameworks::Pts;
    use crate::{CorrelatedPerturbation, FrequencyTable, LabelItem};
    use mcim_oracles::wire::WireState;
    use mcim_oracles::Eps;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type Privatize = Box<dyn Fn(LabelItem, &mut StdRng) -> PairReport>;
    type Estimate = Box<dyn Fn(&PairAggregator) -> Result<FrequencyTable>>;

    /// A mechanism under test: its empty aggregator, privatizer and
    /// estimator.
    struct Mech {
        name: &'static str,
        empty: PairAggregator,
        privatize: Privatize,
        estimate: Estimate,
    }

    fn mechanisms(domains: Domains) -> [Mech; 2] {
        let eps = Eps::new(2.0).unwrap();
        let pts = Pts::with_total(eps, domains).unwrap();
        let cp = CorrelatedPerturbation::with_total(eps, domains).unwrap();
        let (pts2, cp2) = (pts.clone(), cp.clone());
        [
            Mech {
                name: "PTS",
                empty: pts.aggregator(),
                privatize: Box::new(move |pair, rng| pts.privatize(pair, rng).unwrap()),
                estimate: Box::new(move |agg| pts2.estimate(agg)),
            },
            Mech {
                name: "PTS-CP",
                empty: cp.aggregator(),
                privatize: Box::new(move |pair, rng| cp.privatize(pair, rng).unwrap()),
                estimate: Box::new(move |agg| cp2.estimate(agg)),
            },
        ]
    }

    /// A report made malformed in the middle of a block.
    #[derive(Clone, Copy, Debug)]
    enum Fault {
        Label,
        Width,
    }

    /// One row: reported labels in stream order, the block size
    /// `absorb_all` sees them in, and an optional fault at an index.
    struct Row {
        name: &'static str,
        domains: Domains,
        labels: Vec<u32>,
        blocks: Vec<usize>,
        fault: Option<(usize, Fault)>,
    }

    fn rows() -> Vec<Row> {
        // Per-class row counts straddling the 16-row stage and the
        // 255-row MAX_BLOCK, interleaved by a fixed permutation.
        let sizes = [0usize, 1, 15, 16, 17, 255, 256];
        let flat: Vec<u32> = sizes
            .iter()
            .enumerate()
            .flat_map(|(class, &n)| std::iter::repeat_n(class as u32, n))
            .collect();
        let edges = (0..flat.len()).map(|i| flat[(i * 7919) % flat.len()]);
        vec![
            Row {
                name: "stream",
                domains: Domains::new(3, 130).unwrap(),
                labels: (0..9000).map(|u| u % 3).collect(),
                blocks: vec![9000, 1000],
                fault: None,
            },
            Row {
                name: "bad label mid-block",
                domains: Domains::new(4, 70).unwrap(),
                labels: (0..600).map(|u| u % 4).collect(),
                blocks: vec![600],
                fault: Some((301, Fault::Label)),
            },
            Row {
                name: "bad width mid-block",
                domains: Domains::new(4, 70).unwrap(),
                labels: (0..600).map(|u| u % 4).collect(),
                blocks: vec![600],
                fault: Some((301, Fault::Width)),
            },
            Row {
                name: "class rows at stage and block edges",
                domains: Domains::new(sizes.len() as u32, 70).unwrap(),
                labels: edges.collect(),
                blocks: vec![flat.len()],
                fault: None,
            },
        ]
    }

    fn state(agg: &PairAggregator) -> Vec<u8> {
        let mut bytes = Vec::new();
        agg.save(&mut bytes);
        bytes
    }

    #[test]
    fn block_absorb_matches_sequential_absorb() {
        for row in rows() {
            let d = row.domains.items();
            for mech in mechanisms(row.domains) {
                let cell = format!("{} / {}", mech.name, row.name);
                let mut rng = StdRng::seed_from_u64(3);
                let mut reports: Vec<PairReport> = row
                    .labels
                    .iter()
                    .enumerate()
                    .map(|(u, &label)| {
                        let item = (u as u32 * 11) % d;
                        let mut r = (mech.privatize)(LabelItem::new(label, item), &mut rng);
                        r.label = label; // pin the perturbed label the row asks for
                        r
                    })
                    .collect();
                if let Some((at, fault)) = row.fault {
                    match fault {
                        Fault::Label => reports[at].label = row.domains.classes(),
                        Fault::Width => reports[at].bits = BitVec::zeros(mech.empty.width + 1),
                    }
                }
                let absorbed = row.fault.map_or(reports.len(), |(at, _)| at) as u64;

                let mut seq = mech.empty.clone();
                let seq_outcome = reports.iter().try_for_each(|r| seq.absorb(r));
                assert_eq!(seq_outcome.is_err(), row.fault.is_some(), "{cell}");
                assert_eq!(seq.report_count(), absorbed, "{cell}");
                for &block in &row.blocks {
                    let mut batch = mech.empty.clone();
                    let outcome = reports
                        .chunks(block)
                        .try_for_each(|part| batch.absorb_all(part));
                    assert_eq!(outcome, seq_outcome, "{cell} block={block}");
                    assert_eq!(state(&batch), state(&seq), "{cell} block={block}");
                    let (a, b) = ((mech.estimate)(&batch), (mech.estimate)(&seq));
                    let bits = |t: FrequencyTable| -> Vec<u64> {
                        t.values().iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(a.unwrap()), bits(b.unwrap()), "{cell} block={block}");
                }
            }
        }
    }

    #[test]
    fn estimators_and_merge_reject_the_other_shape() {
        let domains = Domains::new(2, 4).unwrap();
        let [pts, cp] = mechanisms(domains);
        assert!((pts.estimate)(&cp.empty).is_err());
        assert!((cp.estimate)(&pts.empty).is_err());
        let other = PairAggregator::new(Domains::new(3, 4).unwrap(), 4);
        assert!((pts.estimate)(&other).is_err());
        let mut agg = pts.empty.clone();
        assert!(agg.merge(&cp.empty).is_err());
        assert!(agg.merge(&other).is_err());
        agg.merge(&pts.empty).unwrap();
    }
}
