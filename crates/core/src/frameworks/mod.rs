//! The three multi-class frequency-estimation frameworks (§III, §VI-A).
//!
//! * [`Hec`] — *Handle Each Class independently*: the strawman; users are
//!   partitioned by class assignment and mismatched users submit random
//!   items (§II-D).
//! * [`Ptj`] — *Perturb The pair Jointly* over the Cartesian domain `C × I`
//!   (§III-B).
//! * [`Pts`] — *Perturb The pair Separately*: GRR on the label, OUE on the
//!   item, estimator Eq. (6).
//! * `PtsCp` ([`Framework::PtsCp`]) — PTS with the paper's **correlated perturbation**,
//!   estimator Eq. (4).
//!
//! Each framework exposes the same two-phase API: a client-side
//! `privatize`-style step and a streaming server-side aggregator, plus one
//! generic [`execute`](Framework::execute) entry point that processes a
//! whole dataset (or stream) under an [`Exec`] plan and returns the
//! estimated [`FrequencyTable`] with communication statistics. Under
//! the RNG contract every [`Exec`] plan folds through the same sharded
//! stages, so `execute` is a thin wrapper over
//! [`execute_on`](Framework::execute_on) with the plan's in-process
//! executor; the legacy `run`/`run_batch`/`run_stream` triplet (and the
//! separate sequential stream it preserved) is gone.

mod hec;
mod ptj;
mod pts;
pub mod stages;

pub use hec::{Hec, HecAggregator, HecReport};
pub use ptj::{Ptj, PtjAggregator};
pub use pts::Pts;

use mcim_oracles::exec::{Exec, Executor};
use mcim_oracles::stream::ReportSource;
use mcim_oracles::{Eps, Result};

use crate::{Domains, FrequencyTable, LabelItem};

/// Communication accounting for one pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    /// Total uplink bits across all users.
    pub total_report_bits: u64,
    /// Number of reporting users.
    pub users: u64,
}

impl CommStats {
    /// Adds one report of `bits` bits.
    #[inline]
    pub fn record(&mut self, bits: usize) {
        self.total_report_bits += bits as u64;
        self.users += 1;
    }

    /// Mean uplink bits per user.
    pub fn bits_per_user(&self) -> f64 {
        if self.users == 0 {
            0.0
        } else {
            self.total_report_bits as f64 / self.users as f64
        }
    }

    /// Merges another accounting record.
    pub fn merge(&mut self, other: CommStats) {
        self.total_report_bits += other.total_report_bits;
        self.users += other.users;
    }
}

/// Uplink accounting crosses the reducer's sockets as two `u64` tallies.
impl mcim_oracles::wire::WireState for CommStats {
    fn save(&self, buf: &mut Vec<u8>) {
        self.total_report_bits.save(buf);
        self.users.save(buf);
    }

    fn load(&mut self, r: &mut mcim_oracles::wire::WireReader<'_>) -> Result<()> {
        self.total_report_bits.load(r)?;
        self.users.load(r)
    }
}

/// Result of a full frequency-estimation run.
#[derive(Debug, Clone)]
pub struct EstimationResult {
    /// Estimated classwise frequencies `f̂(C, I)`.
    pub table: FrequencyTable,
    /// Communication statistics.
    pub comm: CommStats,
}

/// A framework selector for experiment harnesses (Fig. 6 sweeps these).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Framework {
    /// Handle-each-class strawman.
    Hec,
    /// Joint perturbation over `C × I`.
    Ptj,
    /// Separate label/item perturbation; `label_frac` is ε₁/ε.
    Pts {
        /// Fraction of the budget spent on the label (paper default 0.5).
        label_frac: f64,
    },
    /// PTS with correlated perturbation; `label_frac` is ε₁/ε.
    PtsCp {
        /// Fraction of the budget spent on the label (paper default 0.5).
        label_frac: f64,
    },
}

impl Framework {
    /// Display name used in benchmark tables (paper's labels).
    pub fn name(&self) -> &'static str {
        match self {
            Framework::Hec => "HEC",
            Framework::Ptj => "PTJ",
            Framework::Pts { .. } => "PTS",
            Framework::PtsCp { .. } => "PTS-CP",
        }
    }

    /// The paper's default framework set for Fig. 6.
    pub fn fig6_set() -> [Framework; 4] {
        [
            Framework::Hec,
            Framework::Ptj,
            Framework::Pts { label_frac: 0.5 },
            Framework::PtsCp { label_frac: 0.5 },
        ]
    }

    /// Runs the framework end-to-end under an [`Exec`] plan.
    ///
    /// Every plan folds the same sharded stages through its in-process
    /// [`Executor`], so seed-equal plans are bit-identical across thread
    /// counts and chunk sizes, which only pick the resource envelope. Pass any [`ReportSource`] of label-item pairs: a
    /// `SliceSource` over an in-memory dataset, a CSV/NDJSON file source,
    /// or `&mut source` to keep ownership.
    pub fn execute<S>(
        &self,
        eps: Eps,
        domains: Domains,
        plan: &Exec,
        source: S,
    ) -> Result<EstimationResult>
    where
        S: ReportSource<Item = LabelItem>,
    {
        self.execute_on(&plan.in_process(), eps, domains, source)
    }

    /// Runs the framework's sharded pipeline on an explicit [`Executor`]
    /// backend — the seam where the distributed reducer (`mcim-dist`'s
    /// `Coordinator`: one worker process per shard range, partials merged
    /// over sockets) plugs in without changing callers.
    ///
    /// Each arm is a named serializable [`stages`] stage, so any backend
    /// — local threads or remote worker processes rebuilding the stage
    /// from its spec — privatizes every user with the deterministic
    /// per-shard RNG stream `shard_rng(plan.base_seed(), shard)`,
    /// aggregates through the word-parallel column-sum path, and merges
    /// partial aggregators associatively. The estimated table is therefore
    /// a pure function of `(self, eps, domains, pairs, base_seed)` —
    /// bit-identical for every conforming executor, thread count, chunk
    /// size and worker count.
    pub fn execute_on<E, S>(
        &self,
        executor: &E,
        eps: Eps,
        domains: Domains,
        mut source: S,
    ) -> Result<EstimationResult>
    where
        E: Executor,
        S: ReportSource<Item = LabelItem>,
    {
        use stages::{CpArm, FwStage, HecArm, PtjArm, PtsArm};

        if mcim_obs::enabled() {
            mcim_obs::counter_add(
                &mcim_obs::labeled("mcim_pipeline_runs_total", &[("pipeline", self.name())]),
                1,
            );
        }
        let span = mcim_obs::span_with(|| {
            mcim_obs::labeled(
                "mcim_pipeline_duration_seconds",
                &[("pipeline", self.name())],
            )
        });
        let source = &mut source;
        let seed = executor.plan().base_seed();
        let result = match *self {
            Framework::Hec => {
                FwStage::new(HecArm::new(eps, domains)?).execute_on(executor, seed, source)
            }
            Framework::Ptj => {
                FwStage::new(PtjArm::new(eps, domains)?).execute_on(executor, seed, source)
            }
            Framework::Pts { label_frac } => {
                let (e1, e2) = eps.split(label_frac)?;
                FwStage::new(PtsArm::new(e1, e2, domains)?).execute_on(executor, seed, source)
            }
            Framework::PtsCp { label_frac } => {
                let (e1, e2) = eps.split(label_frac)?;
                FwStage::new(CpArm::new(e1, e2, domains)?).execute_on(executor, seed, source)
            }
        };
        span.finish();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcim_oracles::stream::SliceSource;

    fn eps(v: f64) -> Eps {
        Eps::new(v).unwrap()
    }

    /// A skewed 3-class, 8-item dataset with known counts.
    fn dataset(n: usize) -> (Domains, Vec<LabelItem>) {
        let domains = Domains::new(3, 8).unwrap();
        let data: Vec<LabelItem> = (0..n)
            .map(|u| match u % 10 {
                0..=3 => LabelItem::new(0, 0),
                4..=6 => LabelItem::new(1, 1),
                7 | 8 => LabelItem::new(2, 2),
                _ => LabelItem::new(2, 7),
            })
            .collect();
        (domains, data)
    }

    #[test]
    fn all_frameworks_recover_skewed_truth() {
        let n = 120_000;
        let (domains, data) = dataset(n);
        let truth = FrequencyTable::ground_truth(domains, &data).unwrap();
        for (i, fw) in Framework::fig6_set().into_iter().enumerate() {
            let plan = Exec::seeded(101 + i as u64).threads(1);
            let res = fw
                .execute(eps(4.0), domains, &plan, SliceSource::new(&data))
                .unwrap();
            for label in 0..3u32 {
                for item in 0..8 {
                    let t = truth.get(label, item);
                    let e = res.table.get(label, item);
                    // HEC carries Theorem 4's invalid-data bias of
                    // (N − n_C)/d per cell; the unbiased frameworks do not.
                    let expectation = if fw.name() == "HEC" {
                        let n_c = truth.class_total(label);
                        t + (n as f64 - n_c) / 8.0
                    } else {
                        t
                    };
                    assert!(
                        (e - expectation).abs() < 0.04 * n as f64,
                        "{}: ({label},{item}) est {e} expected {expectation}",
                        fw.name()
                    );
                }
            }
        }
    }

    #[test]
    fn huge_budgets_give_finite_estimates() {
        // Past ε ≈ 709.8 GRR's e^ε overflows, past ε ≈ 1419.6 so does the
        // half budget's; the mechanisms take their p = 1, q = 0 limits.
        let (domains, data) = dataset(2_000);
        for e in [44.5, 710.0, 1420.0, f64::MAX] {
            for fw in Framework::fig6_set() {
                let res = fw
                    .execute(eps(e), domains, &Exec::seeded(3), SliceSource::new(&data))
                    .unwrap();
                assert!(
                    res.table.values().iter().all(|v| v.is_finite()),
                    "{} at ε={e}",
                    fw.name()
                );
            }
        }
    }

    #[test]
    fn batch_execute_is_thread_count_invariant_and_accurate() {
        let n = 30_000;
        let (domains, data) = dataset(n);
        let truth = FrequencyTable::ground_truth(domains, &data).unwrap();
        for fw in Framework::fig6_set() {
            let seq = fw
                .execute(
                    eps(4.0),
                    domains,
                    &Exec::seeded(9).threads(1),
                    SliceSource::new(&data),
                )
                .unwrap();
            for threads in [2, 8] {
                let par = fw
                    .execute(
                        eps(4.0),
                        domains,
                        &Exec::seeded(9).threads(threads),
                        SliceSource::new(&data),
                    )
                    .unwrap();
                assert_eq!(par.comm, seq.comm, "{} threads={threads}", fw.name());
                for label in 0..3u32 {
                    for item in 0..8 {
                        assert!(
                            par.table.get(label, item) == seq.table.get(label, item),
                            "{} threads={threads} diverged at ({label},{item})",
                            fw.name()
                        );
                    }
                }
            }
            // Sanity: the sharded runtime estimates the same quantity the
            // sequential `run` does (HEC keeps its Theorem-4 bias).
            for label in 0..3u32 {
                for item in 0..8 {
                    let t = truth.get(label, item);
                    let expectation = if fw.name() == "HEC" {
                        t + (n as f64 - truth.class_total(label)) / 8.0
                    } else {
                        t
                    };
                    assert!(
                        (seq.table.get(label, item) - expectation).abs() < 0.08 * n as f64,
                        "{}: ({label},{item}) est {} expected {expectation}",
                        fw.name(),
                        seq.table.get(label, item)
                    );
                }
            }
        }
    }

    #[test]
    fn ptj_communication_exceeds_pts_for_large_domains() {
        // §V-C / Table II: PTJ pays O(c·d) bits per user, PTS pays O(d).
        let domains = Domains::new(5, 256).unwrap();
        let data: Vec<LabelItem> = (0..200).map(|u| LabelItem::new(u % 5, u % 256)).collect();
        let plan = Exec::seeded(7).threads(1);
        let ptj = Framework::Ptj
            .execute(eps(1.0), domains, &plan, SliceSource::new(&data))
            .unwrap();
        let pts = Framework::Pts { label_frac: 0.5 }
            .execute(eps(1.0), domains, &plan, SliceSource::new(&data))
            .unwrap();
        assert!(
            ptj.comm.bits_per_user() > 4.0 * pts.comm.bits_per_user(),
            "ptj {} vs pts {}",
            ptj.comm.bits_per_user(),
            pts.comm.bits_per_user()
        );
    }

    #[test]
    fn comm_stats_merge() {
        let mut a = CommStats::default();
        a.record(10);
        let mut b = CommStats::default();
        b.record(20);
        b.record(30);
        a.merge(b);
        assert_eq!(a.users, 3);
        assert_eq!(a.total_report_bits, 60);
        assert_eq!(a.bits_per_user(), 20.0);
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(Framework::Hec.name(), "HEC");
        assert_eq!(Framework::Ptj.name(), "PTJ");
        assert_eq!(Framework::Pts { label_frac: 0.5 }.name(), "PTS");
        assert_eq!(Framework::PtsCp { label_frac: 0.5 }.name(), "PTS-CP");
    }
}
