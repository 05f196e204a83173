//! The frameworks' bulk privatize+aggregate steps as named, serializable
//! [`Stage`] objects.
//!
//! [`Framework::execute_on`](crate::Framework::execute_on) used to hand its
//! [`Executor`] a closure per arm; closures cannot cross a process
//! boundary, so the distributed reducer needs each arm as a *stage object*
//! that (a) folds exactly like the old closure and (b) round-trips through
//! a [`StageSpec`] — the worker process rebuilds the mechanism from
//! `(ε, domains)` and replays the identical privatize+absorb loop under the
//! identical per-shard RNG streams.
//!
//! One generic [`FwStage`] wraps the four per-framework [`FwArm`]s (HEC,
//! PTJ, PTS, PTS-CP); the arm supplies the mechanism calls, the estimator
//! and the spec codec, the wrapper supplies the shared fold shape: one
//! loop that privatizes each pair into one reused report
//! ([`FwArm::privatize_into`]), prices its uplink and pushes it into the
//! aggregator's in-flight block, which is summed word-parallel once per
//! fragment. No fragment's reports are kept. PTS and PTS-CP share one
//! report and one aggregator type ([`PairReport`], [`PairAggregator`]).

use std::marker::PhantomData;

use rand::rngs::StdRng;

use mcim_oracles::exec::{Executor, Stage, StageDecode};
use mcim_oracles::stream::ReportSource;
use mcim_oracles::wire::{StageSpec, Wire, WireReader, WireState};
use mcim_oracles::{Eps, Report, Result};

use crate::frameworks::{CommStats, EstimationResult, Hec, HecAggregator, HecReport};
use crate::frameworks::{Ptj, PtjAggregator, Pts};
use crate::{CorrelatedPerturbation, Domains, FrequencyTable, LabelItem};
use crate::{PairAggregator, PairReport};

/// Per-worker fold state of one framework arm: a partial aggregator and
/// its uplink stats. `Rep` names the arm's report type; the partial holds
/// no report, since each one is counted as it is privatized.
#[derive(Clone)]
pub struct FwPartial<Agg, Rep> {
    agg: Agg,
    comm: CommStats,
    _rep: PhantomData<fn() -> Rep>,
}

impl<Agg: WireState, Rep> WireState for FwPartial<Agg, Rep> {
    fn save(&self, buf: &mut Vec<u8>) {
        self.agg.save(buf);
        self.comm.save(buf);
    }

    fn load(&mut self, r: &mut WireReader<'_>) -> Result<()> {
        self.agg.load(r)?;
        self.comm.load(r)
    }
}

/// One framework's mechanism calls plus its spec codec — the varying part
/// of [`FwStage`].
pub trait FwArm: Sync + Sized {
    /// The privatized report this arm produces per user.
    type Rep: Clone + Send;
    /// The partial aggregator this arm folds into.
    type Agg: Clone + Send + WireState;

    /// Registry key of this arm's stage.
    const KIND: &'static str;

    /// A fresh (empty) aggregator.
    fn new_agg(&self) -> Self::Agg;

    /// Privatizes the user at absolute stream position `abs`.
    fn privatize(&self, rng: &mut StdRng, abs: u64, pair: LabelItem) -> Result<Self::Rep>;

    /// [`FwArm::privatize`] into `out`, overwriting the report a previous
    /// call left there. Draws exactly what `privatize` draws, so a fold
    /// may use either. The default assigns from `privatize`; arms with
    /// unary-encoded reports override it to reuse `out`'s bit storage.
    fn privatize_into(
        &self,
        rng: &mut StdRng,
        abs: u64,
        pair: LabelItem,
        out: &mut Self::Rep,
    ) -> Result<()> {
        *out = self.privatize(rng, abs, pair)?;
        Ok(())
    }

    /// Uplink cost of one report in bits.
    fn report_bits(rep: &Self::Rep) -> usize;

    /// Absorbs a block of reports (word-parallel where the mechanism
    /// supports it).
    fn absorb(&self, agg: &mut Self::Agg, block: &[Self::Rep]) -> Result<()>;

    /// Absorbs `n` reports that `next(i, report)` writes into one reused
    /// report, summed like [`FwArm::absorb`]; the first error stops the
    /// loop with every report before it absorbed.
    fn absorb_each<F>(&self, agg: &mut Self::Agg, n: usize, next: F) -> Result<()>
    where
        F: FnMut(usize, &mut Self::Rep) -> Result<()>;

    /// Merges two disjoint-range partial aggregators.
    fn merge(agg: &mut Self::Agg, other: &Self::Agg) -> Result<()>;

    /// Estimates the frequency table from a merged aggregator.
    fn estimate(&self, agg: &Self::Agg) -> Result<FrequencyTable>;

    /// Writes the parameters [`FwArm::decode`] rebuilds this arm from.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Rebuilds the arm from an encoded spec payload.
    fn decode(r: &mut WireReader<'_>) -> Result<Self>;
}

/// The shared fold shape over a [`FwArm`]: the [`Stage`] every framework
/// pipeline hands its executor.
pub struct FwStage<M> {
    arm: M,
}

impl<M: FwArm> FwStage<M> {
    /// Wraps an arm.
    pub fn new(arm: M) -> Self {
        FwStage { arm }
    }

    /// Folds `source` on `executor` under `seed` and estimates the table
    /// from the merged partial.
    pub fn execute_on<E, S>(
        &self,
        executor: &E,
        seed: u64,
        source: &mut S,
    ) -> Result<EstimationResult>
    where
        E: Executor,
        S: ReportSource<Item = LabelItem>,
    {
        let part = executor.fold(source, seed, self)?;
        Ok(EstimationResult {
            table: self.arm.estimate(&part.agg)?,
            comm: part.comm,
        })
    }
}

impl<M: FwArm> Stage for FwStage<M> {
    type Item = LabelItem;
    type Acc = FwPartial<M::Agg, M::Rep>;

    fn template(&self) -> Self::Acc {
        FwPartial {
            agg: self.arm.new_agg(),
            comm: CommStats::default(),
            _rep: PhantomData,
        }
    }

    fn fold(
        &self,
        rng: &mut StdRng,
        abs: u64,
        pairs: &[LabelItem],
        part: &mut Self::Acc,
    ) -> Result<()> {
        let FwPartial { agg, comm, .. } = part;
        // One report in flight: each pair is privatized into the block's
        // reused report, priced, and counted before the next is drawn.
        self.arm.absorb_each(agg, pairs.len(), |i, report| {
            self.arm
                .privatize_into(rng, abs + i as u64, pairs[i], report)?;
            comm.record(M::report_bits(report));
            Ok(())
        })
    }

    fn merge(&self, into: &mut Self::Acc, from: &Self::Acc) -> Result<()> {
        M::merge(&mut into.agg, &from.agg)?;
        into.comm.merge(from.comm);
        Ok(())
    }

    fn spec(&self) -> Option<StageSpec> {
        Some(StageSpec::new(M::KIND, |buf| self.arm.encode(buf)))
    }
}

impl<M: FwArm> StageDecode for FwStage<M> {
    const KIND: &'static str = M::KIND;

    fn decode(payload: &mut WireReader<'_>) -> Result<Self> {
        Ok(FwStage {
            arm: M::decode(payload)?,
        })
    }
}

fn put_eps_domains(buf: &mut Vec<u8>, eps: Eps, domains: Domains) {
    eps.value().put(buf);
    domains.classes().put(buf);
    domains.items().put(buf);
}

fn take_eps_domains(r: &mut WireReader<'_>) -> Result<(Eps, Domains)> {
    let eps = Eps::new(f64::take(r)?)?;
    let classes = u32::take(r)?;
    let items = u32::take(r)?;
    Ok((eps, Domains::new(classes, items)?))
}

// ------------------------------------------------------------------ HEC --

/// HEC's stage arm: positional group assignment, adaptive oracle.
pub struct HecArm {
    mech: Hec,
    eps: Eps,
}

impl HecArm {
    /// Builds the arm from the framework parameters.
    pub fn new(eps: Eps, domains: Domains) -> Result<Self> {
        Ok(HecArm {
            mech: Hec::new(eps, domains)?,
            eps,
        })
    }
}

impl FwArm for HecArm {
    type Rep = HecReport;
    type Agg = HecAggregator;

    const KIND: &'static str = "fw/hec";

    fn new_agg(&self) -> HecAggregator {
        HecAggregator::new(&self.mech)
    }

    fn privatize(&self, rng: &mut StdRng, abs: u64, pair: LabelItem) -> Result<HecReport> {
        self.mech.privatize(abs, pair, rng)
    }

    fn report_bits(rep: &HecReport) -> usize {
        rep.report.size_bits()
    }

    fn absorb(&self, agg: &mut HecAggregator, block: &[HecReport]) -> Result<()> {
        agg.absorb_all(block)
    }

    fn absorb_each<F>(&self, agg: &mut HecAggregator, n: usize, next: F) -> Result<()>
    where
        F: FnMut(usize, &mut HecReport) -> Result<()>,
    {
        agg.absorb_each(n, next)
    }

    fn merge(agg: &mut HecAggregator, other: &HecAggregator) -> Result<()> {
        agg.merge(other)
    }

    fn estimate(&self, agg: &HecAggregator) -> Result<FrequencyTable> {
        agg.estimate()
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        put_eps_domains(buf, self.eps, self.mech.domains());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        let (eps, domains) = take_eps_domains(r)?;
        HecArm::new(eps, domains)
    }
}

// ------------------------------------------------------------------ PTJ --

/// PTJ's stage arm: joint-domain adaptive oracle.
pub struct PtjArm {
    mech: Ptj,
    eps: Eps,
}

impl PtjArm {
    /// Builds the arm from the framework parameters.
    pub fn new(eps: Eps, domains: Domains) -> Result<Self> {
        Ok(PtjArm {
            mech: Ptj::new(eps, domains)?,
            eps,
        })
    }
}

impl FwArm for PtjArm {
    type Rep = Report;
    type Agg = PtjAggregator;

    const KIND: &'static str = "fw/ptj";

    fn new_agg(&self) -> PtjAggregator {
        PtjAggregator::new(&self.mech)
    }

    fn privatize(&self, rng: &mut StdRng, _abs: u64, pair: LabelItem) -> Result<Report> {
        self.mech.privatize(pair, rng)
    }

    fn report_bits(rep: &Report) -> usize {
        rep.size_bits()
    }

    fn absorb(&self, agg: &mut PtjAggregator, block: &[Report]) -> Result<()> {
        agg.absorb_all(block)
    }

    fn absorb_each<F>(&self, agg: &mut PtjAggregator, n: usize, next: F) -> Result<()>
    where
        F: FnMut(usize, &mut Report) -> Result<()>,
    {
        agg.absorb_each(n, next)
    }

    fn merge(agg: &mut PtjAggregator, other: &PtjAggregator) -> Result<()> {
        agg.merge(other)
    }

    fn estimate(&self, agg: &PtjAggregator) -> Result<FrequencyTable> {
        Ok(agg.estimate())
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        put_eps_domains(buf, self.eps, self.mech.domains());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        let (eps, domains) = take_eps_domains(r)?;
        PtjArm::new(eps, domains)
    }
}

// ------------------------------------------------------------------ PTS --

/// PTS's stage arm: GRR label + OUE item, independent budgets.
pub struct PtsArm {
    mech: Pts,
    eps1: Eps,
    eps2: Eps,
}

impl PtsArm {
    /// Builds the arm from explicit per-phase budgets.
    pub fn new(eps1: Eps, eps2: Eps, domains: Domains) -> Result<Self> {
        Ok(PtsArm {
            mech: Pts::new(eps1, eps2, domains)?,
            eps1,
            eps2,
        })
    }
}

impl FwArm for PtsArm {
    type Rep = PairReport;
    type Agg = PairAggregator;

    const KIND: &'static str = "fw/pts";

    fn new_agg(&self) -> PairAggregator {
        self.mech.aggregator()
    }

    fn privatize(&self, rng: &mut StdRng, _abs: u64, pair: LabelItem) -> Result<PairReport> {
        self.mech.privatize(pair, rng)
    }

    fn privatize_into(
        &self,
        rng: &mut StdRng,
        _abs: u64,
        pair: LabelItem,
        out: &mut PairReport,
    ) -> Result<()> {
        self.mech.privatize_into(pair, rng, out)
    }

    fn report_bits(rep: &PairReport) -> usize {
        rep.size_bits()
    }

    fn absorb(&self, agg: &mut PairAggregator, block: &[PairReport]) -> Result<()> {
        agg.absorb_all(block)
    }

    fn absorb_each<F>(&self, agg: &mut PairAggregator, n: usize, next: F) -> Result<()>
    where
        F: FnMut(usize, &mut PairReport) -> Result<()>,
    {
        agg.absorb_each(n, next)
    }

    fn merge(agg: &mut PairAggregator, other: &PairAggregator) -> Result<()> {
        agg.merge(other)
    }

    fn estimate(&self, agg: &PairAggregator) -> Result<FrequencyTable> {
        self.mech.estimate(agg)
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        self.eps1.value().put(buf);
        put_eps_domains(buf, self.eps2, self.mech.domains());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        let eps1 = Eps::new(f64::take(r)?)?;
        let (eps2, domains) = take_eps_domains(r)?;
        PtsArm::new(eps1, eps2, domains)
    }
}

// --------------------------------------------------------------- PTS-CP --

/// PTS-CP's stage arm: correlated label/item perturbation.
pub struct CpArm {
    mech: CorrelatedPerturbation,
    eps1: Eps,
    eps2: Eps,
}

impl CpArm {
    /// Builds the arm from explicit per-phase budgets.
    pub fn new(eps1: Eps, eps2: Eps, domains: Domains) -> Result<Self> {
        Ok(CpArm {
            mech: CorrelatedPerturbation::new(eps1, eps2, domains)?,
            eps1,
            eps2,
        })
    }
}

impl FwArm for CpArm {
    type Rep = PairReport;
    type Agg = PairAggregator;

    const KIND: &'static str = "fw/pts-cp";

    fn new_agg(&self) -> PairAggregator {
        self.mech.aggregator()
    }

    fn privatize(&self, rng: &mut StdRng, _abs: u64, pair: LabelItem) -> Result<PairReport> {
        self.mech.privatize(pair, rng)
    }

    fn privatize_into(
        &self,
        rng: &mut StdRng,
        _abs: u64,
        pair: LabelItem,
        out: &mut PairReport,
    ) -> Result<()> {
        self.mech.privatize_into(pair, rng, out)
    }

    fn report_bits(rep: &PairReport) -> usize {
        rep.size_bits()
    }

    fn absorb(&self, agg: &mut PairAggregator, block: &[PairReport]) -> Result<()> {
        agg.absorb_all(block)
    }

    fn absorb_each<F>(&self, agg: &mut PairAggregator, n: usize, next: F) -> Result<()>
    where
        F: FnMut(usize, &mut PairReport) -> Result<()>,
    {
        agg.absorb_each(n, next)
    }

    fn merge(agg: &mut PairAggregator, other: &PairAggregator) -> Result<()> {
        agg.merge(other)
    }

    fn estimate(&self, agg: &PairAggregator) -> Result<FrequencyTable> {
        self.mech.estimate(agg)
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        self.eps1.value().put(buf);
        put_eps_domains(buf, self.eps2, self.mech.domains());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        let eps1 = Eps::new(f64::take(r)?)?;
        let (eps2, domains) = take_eps_domains(r)?;
        CpArm::new(eps1, eps2, domains)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcim_oracles::exec::Exec;
    use mcim_oracles::stream::SliceSource;

    fn pairs(n: usize) -> Vec<LabelItem> {
        (0..n as u32)
            .map(|u| LabelItem::new(u % 3, (u * 7) % 16))
            .collect()
    }

    /// Every arm's spec decodes to a stage that folds bit-identically to
    /// the original — the property the worker registry relies on.
    #[test]
    fn specs_round_trip_to_equivalent_stages() {
        let eps = Eps::new(2.0).unwrap();
        let domains = Domains::new(3, 16).unwrap();
        let (e1, e2) = eps.split(0.5).unwrap();
        let data = pairs(9000);

        fn check<M: FwArm>(stage: FwStage<M>, data: &[LabelItem])
        where
            M::Agg: std::fmt::Debug,
        {
            let spec = stage.spec().expect("framework stages are distributable");
            assert_eq!(spec.kind, M::KIND);
            let mut r = WireReader::new(&spec.payload);
            let rebuilt = FwStage::<M>::decode(&mut r).unwrap();
            r.finish().unwrap();

            let run = |s: &FwStage<M>| {
                let exec = Exec::seeded(11).threads(2);
                let part = exec
                    .in_process()
                    .fold(&mut SliceSource::new(data), 11, s)
                    .unwrap();
                let mut bytes = Vec::new();
                part.save(&mut bytes);
                bytes
            };
            assert_eq!(run(&stage), run(&rebuilt), "{} diverged", M::KIND);
        }

        check(FwStage::new(HecArm::new(eps, domains).unwrap()), &data);
        check(FwStage::new(PtjArm::new(eps, domains).unwrap()), &data);
        check(FwStage::new(PtsArm::new(e1, e2, domains).unwrap()), &data);
        check(FwStage::new(CpArm::new(e1, e2, domains).unwrap()), &data);
    }

    /// Folding one reused report at a time (`privatize_into` inside
    /// `absorb_each`, fragments of varying length) equals privatizing
    /// owned reports shard by shard with `privatize` and absorbing each
    /// shard's block — the draw order the executor's shard streams pin.
    #[test]
    fn scratch_reuse_matches_owned_reports() {
        use mcim_oracles::parallel::{shard_rng, SHARD_SIZE};
        let eps = Eps::new(2.0).unwrap();
        let domains = Domains::new(3, 70).unwrap();
        let (e1, e2) = eps.split(0.5).unwrap();
        let data = pairs(2 * SHARD_SIZE + 777);

        fn check<M: FwArm>(arm: M, data: &[LabelItem]) {
            let mut owned = arm.new_agg();
            let mut comm = CommStats::default();
            for (s, shard) in data.chunks(SHARD_SIZE).enumerate() {
                let mut rng = shard_rng(5, s as u64);
                let abs = (s * SHARD_SIZE) as u64;
                let block: Vec<M::Rep> = shard
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| arm.privatize(&mut rng, abs + i as u64, p).unwrap())
                    .collect();
                block.iter().for_each(|r| comm.record(M::report_bits(r)));
                arm.absorb(&mut owned, &block).unwrap();
            }
            let mut expected = Vec::new();
            owned.save(&mut expected);
            comm.save(&mut expected);

            let stage = FwStage::new(arm);
            for chunk in [SHARD_SIZE, 1000, 333] {
                let part = Exec::seeded(5)
                    .threads(1)
                    .chunk_size(chunk)
                    .in_process()
                    .fold(&mut SliceSource::new(data), 5, &stage)
                    .unwrap();
                let mut bytes = Vec::new();
                part.save(&mut bytes);
                assert_eq!(bytes, expected, "{} chunk={chunk}", M::KIND);
            }
        }

        check(PtsArm::new(e1, e2, domains).unwrap(), &data);
        check(CpArm::new(e1, e2, domains).unwrap(), &data);
        check(HecArm::new(eps, domains).unwrap(), &data);
        check(PtjArm::new(eps, domains).unwrap(), &data);
    }

    /// A partial's wire state loads only into a template of the same shape.
    #[test]
    fn partial_state_round_trips_and_checks_shape() {
        use mcim_oracles::exec::Stage as _;
        let domains = Domains::new(3, 16).unwrap();
        let eps = Eps::new(1.0).unwrap();
        let stage = FwStage::new(HecArm::new(eps, domains).unwrap());
        let exec = Exec::seeded(3).threads(1);
        let part = exec
            .in_process()
            .fold(&mut SliceSource::new(&pairs(500)), 3, &stage)
            .unwrap();
        let mut bytes = Vec::new();
        part.save(&mut bytes);

        let mut same = stage.template();
        same.load(&mut WireReader::new(&bytes)).unwrap();
        assert_eq!(same.comm, part.comm);
        assert_eq!(
            same.agg.estimate().unwrap().values(),
            part.agg.estimate().unwrap().values()
        );

        // A template over different domains rejects the partial.
        let other = FwStage::new(HecArm::new(eps, Domains::new(2, 16).unwrap()).unwrap());
        let mut wrong = other.template();
        assert!(wrong.load(&mut WireReader::new(&bytes)).is_err());
    }
}
