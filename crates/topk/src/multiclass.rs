//! Multi-class top-k mining — the five methods of Fig. 7 and every ablation
//! cell of Table III.
//!
//! | Method | Scheme |
//! |---|---|
//! | `Hec` | user partition per class, vanilla PEM each (§II-D) |
//! | `PtjPem` | PEM over the joint `(C, I)` code space; optional VP |
//! | `PtjShuffled` | the shuffling scheme over joint pairs; optional VP |
//! | `PtsPem` | GRR label routing + per-class PEM; optional VP / global candidates |
//! | `PtsShuffled` | Algorithms 1 & 2: global candidate generation on an `a·N` sample, classwise shuffled pruning, CP or VP final round chosen by the `b` noise test |
//!
//! ### Budget accounting
//! HEC/PTJ methods spend the full ε on the item report. PTS methods spend
//! ε₁ once on the GRR label (used for routing and class-size estimation)
//! and ε₂ on the single item report each user submits — every user reports
//! in exactly one round, so the total stays ε = ε₁ + ε₂.

use std::collections::HashMap;

use rand::Rng;

use mcim_core::{CommStats, Domains, LabelItem, ValidityInput, ValidityPerturbation, VpAggregator};
use mcim_oracles::exec::{Exec, Executor};
use mcim_oracles::hash::SplitMix64;
use mcim_oracles::stream::{drain_source, ReportSource, SliceSource};
use mcim_oracles::{
    calibrate::unbiased_count, parallel, Aggregator, Eps, Error, Grr, Oracle, Result,
};

use crate::pem::{Pem, PemConfig, PemEngine, PemOutcome};
use crate::shuffle::ShuffleEngine;

/// Which form of Algorithm 2's noise test gates the final CP round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NoiseTest {
    /// The paper's printed test: `|D_C| > b·|D'_C|` → fall back to VP.
    PaperRatio,
    /// The test's stated intent (default): fall back when the label-flip
    /// noise in the routed group exceeds `b ×` its valid mass `p₁·n̂_C`.
    /// Equivalent on imbalanced classes; additionally trips for many
    /// uniform classes where `p₁` collapses (DESIGN.md §4).
    #[default]
    NoiseToValid,
}

/// Tuning parameters shared by all multi-class top-k methods.
#[derive(Debug, Clone, Copy)]
pub struct TopKConfig {
    /// Items to mine per class.
    pub k: usize,
    /// Total privacy budget ε.
    pub eps: Eps,
    /// ε₁/ε for the PTS family (paper default 0.5; Fig. 11 sweeps this).
    pub label_frac: f64,
    /// Fraction `a` of users spent on global candidate generation
    /// (Algorithm 1; paper default 0.2, Fig. 12 sweeps it).
    pub sample_frac: f64,
    /// Noise threshold `b`: CP is applied only when the collected class
    /// group is at most `b ×` the estimated class size (Algorithm 2 line 8;
    /// paper default 2, Fig. 12 sweeps it).
    pub noise_factor: f64,
    /// PEM prefix extension bits per round (`m`, default 1).
    pub extend_bits: u32,
    /// Noise-test variant for Algorithm 2's final round.
    pub noise_test: NoiseTest,
}

impl TopKConfig {
    /// Paper-default configuration.
    pub fn new(k: usize, eps: Eps) -> Self {
        TopKConfig {
            k,
            eps,
            label_frac: 0.5,
            sample_frac: 0.2,
            noise_factor: 2.0,
            extend_bits: 1,
            noise_test: NoiseTest::default(),
        }
    }
}

/// Method selector (Fig. 7 legend + Table III ablation cells).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopKMethod {
    /// Handle-each-class + PEM.
    Hec,
    /// Joint-domain PEM.
    PtjPem {
        /// Replace random-candidate substitution with validity perturbation.
        validity: bool,
    },
    /// Joint-domain shuffling scheme.
    PtjShuffled {
        /// Use validity perturbation for pruned pairs.
        validity: bool,
    },
    /// Label-routed per-class PEM.
    PtsPem {
        /// Use validity perturbation for pruned items.
        validity: bool,
        /// Initialize per-class candidates from a global mining phase.
        global: bool,
    },
    /// Label-routed shuffling scheme (Algorithms 1 & 2 when all flags set).
    PtsShuffled {
        /// Use validity perturbation for pruned items.
        validity: bool,
        /// Run Algorithm 1's global candidate generation.
        global: bool,
        /// Apply correlated perturbation in the final round (implies
        /// validity).
        correlated: bool,
    },
}

impl TopKMethod {
    /// Display name (matches the paper's figure legends).
    pub fn name(&self) -> String {
        match *self {
            TopKMethod::Hec => "HEC".into(),
            TopKMethod::PtjPem { validity: false } => "PTJ".into(),
            TopKMethod::PtjPem { validity: true } => "PTJ+VP".into(),
            TopKMethod::PtjShuffled { validity: false } => "PTJ+Shuffling".into(),
            TopKMethod::PtjShuffled { validity: true } => "PTJ-Shuffling+VP".into(),
            TopKMethod::PtsPem { validity, global } => {
                let mut s = String::from("PTS");
                if global {
                    s.push_str("+Global");
                }
                if validity {
                    s.push_str("+VP");
                }
                s
            }
            TopKMethod::PtsShuffled {
                validity,
                global,
                correlated,
            } => {
                if validity && global && correlated {
                    "PTS-Shuffling+VP+CP".into()
                } else {
                    let mut s = String::from("PTS+Shuffling");
                    if global {
                        s.push_str("+Global");
                    }
                    if validity {
                        s.push_str("+VP");
                    }
                    if correlated {
                        s.push_str("+CP");
                    }
                    s
                }
            }
        }
    }

    /// The five methods of Fig. 7 / 8 / 9 / 10.
    pub fn fig7_set() -> [TopKMethod; 5] {
        [
            TopKMethod::Hec,
            TopKMethod::PtjPem { validity: false },
            TopKMethod::PtjShuffled { validity: true },
            TopKMethod::PtsPem {
                validity: false,
                global: false,
            },
            TopKMethod::PtsShuffled {
                validity: true,
                global: true,
                correlated: true,
            },
        ]
    }

    /// Table III PTJ row: baseline, +VP, +Shuffling, all.
    pub fn table3_ptj_set() -> [TopKMethod; 4] {
        [
            TopKMethod::PtjPem { validity: false },
            TopKMethod::PtjPem { validity: true },
            TopKMethod::PtjShuffled { validity: false },
            TopKMethod::PtjShuffled { validity: true },
        ]
    }

    /// Table III PTS row: baseline, +Global, +VP, +Shuffling, all.
    pub fn table3_pts_set() -> [TopKMethod; 5] {
        [
            TopKMethod::PtsPem {
                validity: false,
                global: false,
            },
            TopKMethod::PtsPem {
                validity: false,
                global: true,
            },
            TopKMethod::PtsPem {
                validity: true,
                global: false,
            },
            TopKMethod::PtsShuffled {
                validity: false,
                global: false,
                correlated: false,
            },
            TopKMethod::PtsShuffled {
                validity: true,
                global: true,
                correlated: true,
            },
        ]
    }
}

/// Result of one multi-class top-k run.
#[derive(Debug, Clone)]
pub struct TopKResult {
    /// Mined items per class (descending score; may be shorter than k when
    /// a class ran out of candidates — Fig. 8's failure mode for PTJ).
    pub per_class: Vec<Vec<u32>>,
    /// Uplink communication statistics.
    pub comm: CommStats,
    /// Worst-case downlink bits a single (late-joining) user must receive
    /// before reporting: the current candidate list for PEM methods, or the
    /// accumulated `(seed, bucket state)` history for the shuffling methods
    /// — the communication the paper's Fig. 4 optimizes.
    pub broadcast_bits_per_user: f64,
}

/// Execution pacing for the bulk privatize+aggregate stages: the sharded
/// deterministic runtime of [`parallel`].
///
/// Stage `i` takes the `i`-th seed of a [`SplitMix64`] stream over the
/// plan seed and fans out over fixed-size shards with derived per-shard
/// RNGs, so the mined result is bit-identical for every thread count,
/// chunk size and worker count. Sequential plans are this same runtime
/// pinned to one worker (the RNG contract; see `mcim_oracles::stream`).
struct Pace<'r, E: Executor> {
    /// Per-stage seed stream.
    stream: SplitMix64,
    /// Worker thread cap (local fan-out stages).
    threads: usize,
    /// Backend for the PEM stages — in-process threads or the distributed
    /// reducer. The label-routing and shuffling stages stay local: their
    /// folds are output-per-input maps, not mergeable reductions, so there
    /// is nothing for a reducer to merge.
    executor: &'r E,
}

impl<E: Executor> Pace<'_, E> {
    /// A fresh 64-bit seed (shuffle-round seeds, sharded-stage base seeds).
    fn next_seed(&mut self) -> u64 {
        self.stream.next_u64()
    }

    /// GRR-routes a block of labels, recording uplink per user.
    fn route(&mut self, grr: &Grr, labels: &[u32], comm: &mut CommStats) -> Result<Vec<u32>> {
        for _ in labels {
            comm.record(grr.report_bits());
        }
        let base = self.stream.next_u64();
        parallel::try_fill_shards(labels, self.threads, |shard, chunk, slots| {
            let mut rng = parallel::shard_rng(base, shard);
            for (&l, slot) in chunk.iter().zip(slots.iter_mut()) {
                *slot = Some(grr.perturb(l, &mut rng)?);
            }
            Ok(())
        })
    }

    /// Privatizes and aggregates a block of validity-perturbation inputs.
    fn vp_aggregate(
        &mut self,
        vp: &ValidityPerturbation,
        inputs: &[ValidityInput],
        comm: &mut CommStats,
    ) -> Result<VpAggregator> {
        let base = self.stream.next_u64();
        vp_aggregate_batch(vp, inputs, base, self.threads, comm)
    }

    /// Runs one PEM round on a prepared item group.
    fn pem_round(
        &mut self,
        engine: &mut PemEngine,
        eps: Eps,
        items: &[Option<u32>],
    ) -> Result<CommStats> {
        engine.execute_round_on(
            self.executor,
            eps,
            self.stream.next_u64(),
            SliceSource::new(items),
        )
    }

    /// Runs a full single-population PEM mine.
    fn pem_mine(&mut self, pem: &Pem, eps: Eps, items: &[Option<u32>]) -> Result<PemOutcome> {
        pem.execute_on(
            self.executor,
            eps,
            self.stream.next_u64(),
            SliceSource::new(items),
        )
    }
}

/// Runs `method` under an [`Exec`] plan and returns per-class top-k items
/// — the single entry point of the multi-class layer.
///
/// Every mode fans each bulk privatize+aggregate stage out over
/// fixed-size shards with RNG streams derived from the plan seed
/// (the RNG contract), so the mined result is a pure function of
/// `(method, config, domains, pairs, seed)` — bit-identical across
/// sequential, batch, stream and distributed execution for every thread
/// count and chunk size (the `MCIM_THREADS` CI matrix locks this in).
///
/// Multi-round mining routes users into per-class groups that later
/// rounds revisit, so the 8-byte pairs themselves are drained into memory
/// (≈ 40 MB at the paper's 5M users) in every mode — but every privatized
/// report still lives only inside the sharded runtime's
/// `O(threads × shard)` buffers, never as an `O(n)` slice, and the
/// pull-based ingestion means the pairs can come straight off disk or a
/// socket instead of a pre-built `Vec`.
pub fn execute<S>(
    method: TopKMethod,
    config: TopKConfig,
    domains: Domains,
    plan: &Exec,
    source: S,
) -> Result<TopKResult>
where
    S: ReportSource<Item = LabelItem>,
{
    execute_on(method, config, domains, &plan.in_process(), source)
}

/// Runs `method` on an explicit [`Executor`] backend — the
/// distributed-reducer seam of the multi-class layer (pass `mcim-dist`'s
/// `Coordinator` to fan the PEM mining stages out across worker
/// processes).
///
/// Stage `i` of the pipeline takes the `i`-th seed of a [`SplitMix64`]
/// stream over the executor's plan seed, exactly like [`execute`] with a
/// sharded plan — the mined result is bit-identical for every conforming
/// executor, thread count, chunk size and worker count. The PEM rounds run
/// on the executor; the label-routing and bucket-shuffling stages fan out
/// on local threads (output-per-input maps have no mergeable partials to
/// reduce).
pub fn execute_on<E, S>(
    method: TopKMethod,
    config: TopKConfig,
    domains: Domains,
    executor: &E,
    mut source: S,
) -> Result<TopKResult>
where
    E: Executor,
    S: ReportSource<Item = LabelItem>,
{
    if mcim_obs::enabled() {
        let name = method.name();
        mcim_obs::counter_add(
            &mcim_obs::labeled("mcim_pipeline_runs_total", &[("pipeline", &name)]),
            1,
        );
    }
    let span = mcim_obs::span_with(|| {
        mcim_obs::labeled(
            "mcim_pipeline_duration_seconds",
            &[("pipeline", &method.name())],
        )
    });
    let data = drain_source(&mut source)?;
    let mut pace = Pace {
        stream: SplitMix64::new(executor.plan().base_seed()),
        threads: executor.plan().resolved_threads(),
        executor,
    };
    let result = mine_with(method, config, domains, &data, &mut pace);
    span.finish();
    result
}

fn mine_with<E: Executor>(
    method: TopKMethod,
    config: TopKConfig,
    domains: Domains,
    data: &[LabelItem],
    pace: &mut Pace<'_, E>,
) -> Result<TopKResult> {
    if config.k == 0 {
        return Err(Error::InvalidParameter {
            name: "k",
            constraint: "k >= 1",
        });
    }
    if data.is_empty() {
        return Err(Error::InvalidParameter {
            name: "data",
            constraint: "at least one user required",
        });
    }
    match method {
        TopKMethod::Hec => hec(config, domains, data, pace),
        TopKMethod::PtjPem { validity } => ptj_pem(config, domains, data, validity, pace),
        TopKMethod::PtjShuffled { validity } => ptj_shuffled(config, domains, data, validity, pace),
        TopKMethod::PtsPem { validity, global } => {
            pts_pem(config, domains, data, validity, global, pace)
        }
        TopKMethod::PtsShuffled {
            validity,
            global,
            correlated,
        } => pts_shuffled(config, domains, data, validity, global, correlated, pace),
    }
}

// ---------------------------------------------------------------- HEC --

fn hec<E: Executor>(
    config: TopKConfig,
    domains: Domains,
    data: &[LabelItem],
    pace: &mut Pace<'_, E>,
) -> Result<TopKResult> {
    let c = domains.classes();
    let pem = Pem::new(
        domains.items(),
        PemConfig {
            k: config.k,
            extend_bits: config.extend_bits,
            keep_factor: 2,
            validity: false,
        },
    )?;
    let mut per_class = Vec::with_capacity(c as usize);
    let mut comm = CommStats::default();
    for class in 0..c {
        // Round-robin partition; mismatched labels are invalid.
        let items: Vec<Option<u32>> = data
            .iter()
            .enumerate()
            .filter(|(u, _)| (*u as u32) % c == class)
            .map(|(_, p)| if p.label == class { Some(p.item) } else { None })
            .collect();
        if items.is_empty() {
            per_class.push(Vec::new());
            continue;
        }
        let out = pace.pem_mine(&pem, config.eps, &items)?;
        comm.merge(out.comm);
        per_class.push(out.top);
    }
    Ok(TopKResult {
        per_class,
        comm,
        // HEC broadcasts each round's candidate prefixes.
        broadcast_bits_per_user: pem_broadcast_estimate(domains.items(), config.k),
    })
}

// ---------------------------------------------------------------- PTJ --

fn ptj_pem<E: Executor>(
    config: TopKConfig,
    domains: Domains,
    data: &[LabelItem],
    validity: bool,
    pace: &mut Pace<'_, E>,
) -> Result<TopKResult> {
    let kk = config.k * domains.classes() as usize;
    let pem = Pem::new(
        domains.joint_size(),
        PemConfig {
            k: kk,
            extend_bits: config.extend_bits,
            keep_factor: 2,
            validity,
        },
    )?;
    let items: Vec<Option<u32>> = data.iter().map(|p| Some(domains.joint_index(*p))).collect();
    let out = pace.pem_mine(&pem, config.eps, &items)?;
    Ok(TopKResult {
        per_class: split_joint_ranking(&out.top, domains, config.k),
        comm: out.comm,
        broadcast_bits_per_user: pem_broadcast_estimate(domains.joint_size(), kk),
    })
}

fn ptj_shuffled<E: Executor>(
    config: TopKConfig,
    domains: Domains,
    data: &[LabelItem],
    validity: bool,
    pace: &mut Pace<'_, E>,
) -> Result<TopKResult> {
    let kk = config.k * domains.classes() as usize;
    let buckets = 4 * kk;
    let joint: Vec<u32> = (0..domains.joint_size()).collect();
    let mut engine = ShuffleEngine::new(joint);
    let rounds = ShuffleEngine::total_rounds(domains.joint_size() as usize, kk);
    let mut comm = CommStats::default();
    let chunk_size = data.len().div_ceil(rounds).max(1);
    let mut chunks = data.chunks(chunk_size);

    for _ in 0..rounds.saturating_sub(1) {
        let chunk = chunks.next().unwrap_or(&[]);
        let view = engine.begin_round(pace.next_seed(), buckets);
        let inputs: Vec<Option<u32>> = chunk
            .iter()
            .map(|p| view.bucket_of_item(domains.joint_index(*p)))
            .collect();
        let scores = score_round(
            pace,
            config.eps,
            view.buckets(),
            &inputs,
            validity,
            &mut comm,
        )?;
        engine.complete_round(&view, &scores, 2 * kk);
    }

    // Final round: direct estimation over the surviving pairs.
    let final_chunk = chunks.next().unwrap_or(&[]);
    let cands = engine.candidates().to_vec();
    let index: HashMap<u32, u32> = cands
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, i as u32))
        .collect();
    let inputs: Vec<Option<u32>> = final_chunk
        .iter()
        .map(|p| index.get(&domains.joint_index(*p)).copied())
        .collect();
    let scores = score_round(pace, config.eps, cands.len(), &inputs, validity, &mut comm)?;

    let mut ranked: Vec<(u32, f64)> = cands.iter().copied().zip(scores).collect();
    ranked.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let ordered: Vec<u32> = ranked.into_iter().map(|(p, _)| p).collect();
    Ok(TopKResult {
        per_class: split_joint_ranking(&ordered, domains, config.k),
        comm,
        broadcast_bits_per_user: engine.broadcast_bits() as f64,
    })
}

// ---------------------------------------------------------------- PTS --

fn pts_pem<E: Executor>(
    config: TopKConfig,
    domains: Domains,
    data: &[LabelItem],
    validity: bool,
    global: bool,
    pace: &mut Pace<'_, E>,
) -> Result<TopKResult> {
    let (e1, e2) = config.eps.split(config.label_frac)?;
    let grr = Grr::new(e1, domains.classes())?;
    let pem_config = PemConfig {
        k: config.k,
        extend_bits: config.extend_bits,
        keep_factor: 2,
        validity,
    };
    let mut comm = CommStats::default();
    let mut broadcast: f64 = pem_broadcast_estimate(domains.items(), config.k);

    // Optional global candidate phase (the "+Global" optimization): a PEM
    // prefix run over the item domain ignoring labels, mining k·c global
    // candidates for the first ⌊IT/2⌋ rounds.
    let (template, rest): (PemEngine, &[LabelItem]) = if global {
        let global_config = PemConfig {
            k: config.k * domains.classes() as usize,
            ..pem_config
        };
        let mut g_engine = PemEngine::new(domains.items(), global_config)?;
        let total = g_engine.remaining_rounds();
        let it_f = (total / 2).max(1).min(total.saturating_sub(1));
        let (sample, rest) = split_at_frac(data, config.sample_frac);
        if it_f > 0 && !sample.is_empty() {
            let chunk_size = sample.len().div_ceil(it_f).max(1);
            let mut chunks = sample.chunks(chunk_size);
            for _ in 0..it_f {
                let chunk = chunks.next().unwrap_or(&[]);
                // Phase-1 users also perturb labels (class-size estimation;
                // unused by this PEM variant but budget must match).
                for _ in chunk {
                    comm.record(grr.report_bits());
                }
                let items: Vec<Option<u32>> = chunk.iter().map(|p| Some(p.item)).collect();
                let stats = pace.pem_round(&mut g_engine, e2, &items)?;
                comm.merge(stats);
            }
        }
        broadcast = broadcast.max(pem_broadcast_estimate(domains.items(), global_config.k));
        let resumed = PemEngine::resume(
            domains.items(),
            pem_config,
            g_engine.candidates().to_vec(),
            g_engine.prefix_len(),
        )?;
        (resumed, rest)
    } else {
        (PemEngine::new(domains.items(), pem_config)?, data)
    };

    // Route the remaining users by GRR-perturbed label.
    let labels: Vec<u32> = rest.iter().map(|p| p.label).collect();
    let routed = pace.route(&grr, &labels, &mut comm)?;
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); domains.classes() as usize];
    for (p, r) in rest.iter().zip(routed) {
        groups[r as usize].push(p.item);
    }

    let mut per_class = Vec::with_capacity(domains.classes() as usize);
    for items in &groups {
        if items.is_empty() {
            per_class.push(Vec::new());
            continue;
        }
        let mut engine = template.clone();
        let rounds = engine.remaining_rounds();
        let chunk_size = items.len().div_ceil(rounds).max(1);
        let mut chunks = items.chunks(chunk_size);
        for _ in 0..rounds {
            let chunk = chunks.next().unwrap_or(&[]);
            let round_items: Vec<Option<u32>> = chunk.iter().map(|&i| Some(i)).collect();
            let stats = pace.pem_round(&mut engine, e2, &round_items)?;
            comm.merge(stats);
        }
        per_class.push(engine.top_items()?);
    }
    Ok(TopKResult {
        per_class,
        comm,
        broadcast_bits_per_user: broadcast,
    })
}

/// Algorithms 1 & 2 (and their ablations): label-routed shuffled mining.
#[allow(clippy::too_many_arguments)]
fn pts_shuffled<E: Executor>(
    config: TopKConfig,
    domains: Domains,
    data: &[LabelItem],
    validity: bool,
    global: bool,
    correlated: bool,
    pace: &mut Pace<'_, E>,
) -> Result<TopKResult> {
    // CP is built on VP; `correlated` therefore implies validity reports.
    let validity = validity || correlated;
    let (e1, e2) = config.eps.split(config.label_frac)?;
    let grr = Grr::new(e1, domains.classes())?;
    let (p1, q1) = (grr.p(), grr.q());
    let c = domains.classes() as usize;
    let d = domains.items();
    let k = config.k;

    let total_rounds = ShuffleEngine::total_rounds(d as usize, k);
    let it_f = if global {
        (total_rounds / 2).min(total_rounds - 1)
    } else {
        0
    };
    let it_r = total_rounds - it_f;

    let mut comm = CommStats::default();
    let mut engine_global = ShuffleEngine::new((0..d).collect());

    // ---------------- Phase 1: Algorithm 1 (global candidates) ----------
    let (rest, class_frac): (&[LabelItem], Option<Vec<f64>>) = if it_f > 0 {
        let (sample, rest) = split_at_frac(data, config.sample_frac);
        let buckets = 4 * k * c;
        let mut label_tally = vec![0u64; c];
        let chunk_size = sample.len().div_ceil(it_f).max(1);
        let mut chunks = sample.chunks(chunk_size);
        for _ in 0..it_f {
            let chunk = chunks.next().unwrap_or(&[]);
            let view = engine_global.begin_round(pace.next_seed(), buckets);
            let labels: Vec<u32> = chunk.iter().map(|p| p.label).collect();
            for &r in &pace.route(&grr, &labels, &mut comm)? {
                label_tally[r as usize] += 1;
            }
            let inputs: Vec<Option<u32>> =
                chunk.iter().map(|p| view.bucket_of_item(p.item)).collect();
            let scores = score_round(pace, e2, view.buckets(), &inputs, validity, &mut comm)?;
            engine_global.complete_round(&view, &scores, 2 * k * c);
        }
        // Estimated class fractions from the phase-1 perturbed labels
        // (Algorithm 1 line 9): used by the `b` noise test.
        let n1: u64 = label_tally.iter().sum();
        let fracs = label_tally
            .iter()
            .map(|&t| (unbiased_count(t as f64, n1 as f64, p1, q1) / n1 as f64).max(0.0))
            .collect();
        (rest, Some(fracs))
    } else {
        (data, None)
    };

    // ---------------- Phase 2: Algorithm 2 (classwise mining) -----------
    // Route users by perturbed label.
    let labels: Vec<u32> = rest.iter().map(|p| p.label).collect();
    let routed = pace.route(&grr, &labels, &mut comm)?;
    let mut groups: Vec<Vec<&LabelItem>> = vec![Vec::new(); c];
    for (p, r) in rest.iter().zip(routed) {
        groups[r as usize].push(p);
    }
    let n2: usize = groups.iter().map(Vec::len).sum();

    // Class-size estimates |D'_C| over the phase-2 population: from the
    // phase-1 fractions when available, otherwise from the routing tallies.
    let estimated_class_sizes: Vec<f64> = match &class_frac {
        Some(fracs) => fracs.iter().map(|f| f * n2 as f64).collect(),
        None => groups
            .iter()
            .map(|g| unbiased_count(g.len() as f64, n2 as f64, p1, q1).max(0.0))
            .collect(),
    };

    // Per-class pruning rounds, collecting each class's final cohort.
    struct FinalGroup<'a> {
        class: u32,
        users: Vec<&'a LabelItem>,
        candidates: Vec<u32>,
        use_cp: bool,
    }
    let mut finals: Vec<FinalGroup<'_>> = Vec::with_capacity(c);
    // Worst-case per-user downlink: the phase-1 seed/state history plus the
    // deepest per-class history a final-round user must replay.
    let phase1_broadcast = engine_global.broadcast_bits() as f64;
    let mut class_broadcast: f64 = 0.0;
    for (class, group) in groups.iter().enumerate() {
        if group.is_empty() {
            finals.push(FinalGroup {
                class: class as u32,
                users: Vec::new(),
                candidates: engine_global.candidates().to_vec(),
                use_cp: false,
            });
            continue;
        }
        let mut engine = ShuffleEngine::new(engine_global.candidates().to_vec());
        let chunk_size = group.len().div_ceil(it_r).max(1);
        let mut chunks = group.chunks(chunk_size);
        for _ in 0..it_r - 1 {
            let chunk = chunks.next().unwrap_or(&[]);
            let view = engine.begin_round(pace.next_seed(), 4 * k);
            // Validity here is label-free: pruning is the only invalidity,
            // so globally frequent items from mislabeled users still count
            // (§VII-E's "benefit from globally frequent items").
            let inputs: Vec<Option<u32>> =
                chunk.iter().map(|p| view.bucket_of_item(p.item)).collect();
            let scores = score_round(pace, e2, view.buckets(), &inputs, validity, &mut comm)?;
            engine.complete_round(&view, &scores, 2 * k);
        }
        // Algorithm 2 line 8: the `b` noise test, in the configured form
        // (see `NoiseTest` and DESIGN.md §4 for why the default deviates
        // from the printed formula).
        let cp_feasible = match config.noise_test {
            NoiseTest::PaperRatio => {
                (group.len() as f64) <= config.noise_factor * estimated_class_sizes[class].max(1.0)
            }
            NoiseTest::NoiseToValid => {
                let valid = (grr.p() * estimated_class_sizes[class]).max(1.0);
                let noise = (group.len() as f64 - valid).max(0.0);
                noise <= config.noise_factor * valid
            }
        };
        let use_cp = correlated && cp_feasible;
        finals.push(FinalGroup {
            class: class as u32,
            users: chunks.next().unwrap_or(&[]).to_vec(),
            candidates: engine.candidates().to_vec(),
            use_cp,
        });
        class_broadcast = class_broadcast.max(engine.broadcast_bits() as f64);
    }

    // Final round. CP classes need the cohort-wide total N_f for Eq. (4).
    let n_final: usize = finals.iter().map(|f| f.users.len()).sum();
    let mut per_class: Vec<Vec<u32>> = vec![Vec::new(); c];

    // Pieces shared by both pacing arms, so the estimator math cannot
    // silently diverge between them.
    let cand_index = |fg: &FinalGroup<'_>| -> HashMap<u32, u32> {
        fg.candidates
            .iter()
            .enumerate()
            .map(|(i, &it)| (it, i as u32))
            .collect()
    };
    // Correlated perturbation: validity requires the routed label to match
    // the true label AND the item to have survived pruning.
    let cp_inputs = |fg: &FinalGroup<'_>, index: &HashMap<u32, u32>| -> Vec<ValidityInput> {
        fg.users
            .iter()
            .map(|p| match index.get(&p.item) {
                Some(&idx) if p.label == fg.class => ValidityInput::Valid(idx),
                _ => ValidityInput::Invalid,
            })
            .collect()
    };
    // Eq. (4) with N = final cohort size and ñ_C = |F_C| (every member of
    // this group was routed to this class).
    let cp_scores = |fg: &FinalGroup<'_>, vp: &ValidityPerturbation, agg: &VpAggregator| {
        let (p2, q2) = (vp.p(), vp.q());
        let n_f = n_final as f64;
        let n_hat = unbiased_count(fg.users.len() as f64, n_f, p1, q1);
        let denom = p1 * (1.0 - q2) * (p2 - q2);
        let correction = n_hat * q2 * (p1 * (1.0 - q2) - q1 * (1.0 - p2));
        agg.raw_counts()
            .iter()
            .map(|&cnt| (cnt as f64 - n_f * q1 * q2 * (1.0 - p2) - correction) / denom)
            .collect::<Vec<f64>>()
    };
    let item_inputs = |fg: &FinalGroup<'_>, index: &HashMap<u32, u32>| -> Vec<Option<u32>> {
        fg.users
            .iter()
            .map(|p| index.get(&p.item).copied())
            .collect()
    };
    let rank_top = |cands: &[u32], scores: Vec<f64>| -> Vec<u32> {
        let mut ranked: Vec<(u32, f64)> = cands.iter().copied().zip(scores).collect();
        ranked.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        ranked.into_iter().take(k).map(|(it, _)| it).collect()
    };

    // One class's final-round scores on the sharded runtime, under an
    // explicit base seed (so classes can run concurrently).
    let class_scores_batch =
        |fg: &FinalGroup<'_>, seed: u64, threads: usize| -> Result<(Vec<f64>, CommStats)> {
            let mut comm = CommStats::default();
            let index = cand_index(fg);
            let scores = if fg.use_cp {
                let vp = ValidityPerturbation::new(e2, fg.candidates.len() as u32)?;
                let inputs = cp_inputs(fg, &index);
                let agg = vp_aggregate_batch(&vp, &inputs, seed, threads, &mut comm)?;
                cp_scores(fg, &vp, &agg)
            } else {
                let inputs = item_inputs(fg, &index);
                score_round_batch(
                    e2,
                    fg.candidates.len(),
                    &inputs,
                    validity,
                    seed,
                    threads,
                    &mut comm,
                )?
            };
            Ok((scores, comm))
        };

    // Final cohorts rarely fill a single 4096-item shard, so per-class
    // sharding runs them one after another on one worker. Pre-drawing each
    // eligible class's base seed in class order (exactly the draws an
    // in-class-order execution performs) lets the classes themselves fan
    // out across workers while every RNG stream — and therefore the mined
    // set — stays bit-identical.
    let threads = pace.threads;
    let jobs: Vec<(usize, u64)> = finals
        .iter()
        .enumerate()
        .filter(|(_, fg)| !fg.users.is_empty() && !fg.candidates.is_empty())
        .map(|(i, _)| (i, pace.next_seed()))
        .collect();
    // Split the worker budget between the class fan-out and each class's
    // internal sharding: paper-scale cohorts exceed one shard, and
    // `jobs.len() × threads` workers would oversubscribe the machine in
    // exactly the path this fan-out accelerates.
    let inner_threads = (threads / jobs.len().max(1)).max(1);
    let outcomes = parallel::map_each(&jobs, threads, |_, &(i, seed)| {
        class_scores_batch(&finals[i], seed, inner_threads).map(|r| (i, r))
    });
    for outcome in outcomes {
        let (i, (scores, class_comm)) = outcome?;
        comm.merge(class_comm);
        let fg = &finals[i];
        per_class[fg.class as usize] = rank_top(&fg.candidates, scores);
    }

    Ok(TopKResult {
        per_class,
        comm,
        broadcast_bits_per_user: phase1_broadcast + class_broadcast,
    })
}

// ------------------------------------------------------------ helpers --

/// Aggregates one round of bucket/candidate reports and returns raw scores.
/// `inputs` holds each user's bucket (`None` = invalid). With `validity`
/// the VP mechanism is used; otherwise invalid users substitute a uniform
/// random bucket (vanilla PEM deniability) under the adaptive oracle.
/// Bulk work is sharded across `pace`'s threads with derived deterministic
/// streams.
fn score_round<E: Executor>(
    pace: &mut Pace<'_, E>,
    eps: Eps,
    buckets: usize,
    inputs: &[Option<u32>],
    validity: bool,
    comm: &mut CommStats,
) -> Result<Vec<f64>> {
    if buckets == 0 {
        return Ok(Vec::new());
    }
    if validity {
        let vp = ValidityPerturbation::new(eps, buckets as u32)?;
        let vp_inputs: Vec<ValidityInput> = inputs
            .iter()
            .map(|b| match b {
                Some(idx) => ValidityInput::Valid(*idx),
                None => ValidityInput::Invalid,
            })
            .collect();
        let agg = pace.vp_aggregate(&vp, &vp_inputs, comm)?;
        Ok(agg.raw_counts().iter().map(|&c| c as f64).collect())
    } else {
        let base = pace.next_seed();
        oracle_score_batch(eps, buckets, inputs, base, pace.threads, comm)
    }
}

/// The sharded half of [`score_round`]'s oracle path, callable with an
/// explicit base seed so the per-class final rounds can pre-draw their
/// seeds and run on worker threads.
fn oracle_score_batch(
    eps: Eps,
    buckets: usize,
    inputs: &[Option<u32>],
    base_seed: u64,
    threads: usize,
    comm: &mut CommStats,
) -> Result<Vec<f64>> {
    let oracle = Oracle::adaptive(eps, buckets as u32)?;
    let mut agg = Aggregator::new(&oracle);
    let shards = parallel::map_shards(inputs, threads, |shard, chunk| {
        let mut rng = parallel::shard_rng(base_seed, shard);
        let mut shard_comm = CommStats::default();
        let mut reports = Vec::with_capacity(chunk.len());
        for &b in chunk {
            let value = b.unwrap_or_else(|| rng.random_range(0..buckets as u32));
            let report = oracle.privatize(value, &mut rng)?;
            shard_comm.record(report.size_bits());
            reports.push(report);
        }
        let mut local = Aggregator::new(&oracle);
        local.absorb_all(&reports)?;
        Ok::<_, Error>((local, shard_comm))
    });
    for shard in shards {
        let (partial, partial_comm) = shard?;
        agg.merge(&partial)?;
        comm.merge(partial_comm);
    }
    Ok(agg.estimate())
}

/// The sharded half of [`Pace::vp_aggregate`], callable with an explicit
/// base seed (same rationale as [`oracle_score_batch`]).
fn vp_aggregate_batch(
    vp: &ValidityPerturbation,
    inputs: &[ValidityInput],
    base_seed: u64,
    threads: usize,
    comm: &mut CommStats,
) -> Result<VpAggregator> {
    let mut agg = VpAggregator::new(vp);
    let shards = parallel::map_shards(inputs, threads, |shard, chunk| {
        let mut rng = parallel::shard_rng(base_seed, shard);
        let mut shard_comm = CommStats::default();
        let mut local = VpAggregator::new(vp);
        local.absorb_each(chunk.len(), |i, report| {
            vp.privatize_into(chunk[i], &mut rng, report)?;
            shard_comm.record(report.len());
            Ok(())
        })?;
        Ok::<_, Error>((local, shard_comm))
    });
    for shard in shards {
        let (partial, partial_comm) = shard?;
        agg.merge(&partial)?;
        comm.merge(partial_comm);
    }
    Ok(agg)
}

/// [`score_round`]'s sharded path with an explicit base seed — the
/// per-class final rounds pre-draw one seed per class in class order and
/// then run the classes themselves on worker threads.
fn score_round_batch(
    eps: Eps,
    buckets: usize,
    inputs: &[Option<u32>],
    validity: bool,
    base_seed: u64,
    threads: usize,
    comm: &mut CommStats,
) -> Result<Vec<f64>> {
    if buckets == 0 {
        return Ok(Vec::new());
    }
    if validity {
        let vp = ValidityPerturbation::new(eps, buckets as u32)?;
        let vp_inputs: Vec<ValidityInput> = inputs
            .iter()
            .map(|b| match b {
                Some(idx) => ValidityInput::Valid(*idx),
                None => ValidityInput::Invalid,
            })
            .collect();
        let agg = vp_aggregate_batch(&vp, &vp_inputs, base_seed, threads, comm)?;
        Ok(agg.raw_counts().iter().map(|&c| c as f64).collect())
    } else {
        oracle_score_batch(eps, buckets, inputs, base_seed, threads, comm)
    }
}

/// Splits a ranked list of joint codes into per-class top-k item lists.
fn split_joint_ranking(ordered: &[u32], domains: Domains, k: usize) -> Vec<Vec<u32>> {
    let mut per_class: Vec<Vec<u32>> = vec![Vec::new(); domains.classes() as usize];
    for &joint in ordered {
        let pair = domains.pair_of_joint(joint);
        let list = &mut per_class[pair.label as usize];
        if list.len() < k {
            list.push(pair.item);
        }
    }
    per_class
}

/// First `⌈frac·N⌉` users vs the rest.
fn split_at_frac(data: &[LabelItem], frac: f64) -> (&[LabelItem], &[LabelItem]) {
    let cut = ((data.len() as f64 * frac).ceil() as usize).min(data.len());
    data.split_at(cut)
}

/// Per-user downlink estimate for PEM: a user participating in one round
/// must receive that round's candidate prefixes (up to `2k·2^m` codes of
/// `⌈log₂ d⌉` bits).
fn pem_broadcast_estimate(domain: u32, k: usize) -> f64 {
    let code_bits = crate::encoding::PrefixCode::for_domain(domain).bits() as f64;
    (4 * k) as f64 * code_bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eps(v: f64) -> Eps {
        Eps::new(v).unwrap()
    }

    /// A 3-class dataset with disjoint per-class heavy hitters: class c's
    /// top items are {c·10, c·10+1, …} with geometric weights.
    fn skewed_dataset(n: usize, d: u32) -> (Domains, Vec<LabelItem>) {
        let domains = Domains::new(3, d).unwrap();
        let mut data = Vec::with_capacity(n);
        for u in 0..n {
            let label = (u % 3) as u32;
            // Heavy head: item rank within class by geometric-ish weights.
            let rank = match u % 16 {
                0..=7 => 0,
                8..=11 => 1,
                12..=13 => 2,
                14 => 3,
                _ => 4 + (u / 16 % ((d as usize).min(20) - 4)) as u32 as usize,
            } as u32;
            data.push(LabelItem::new(label, (label * 37 + rank) % d));
        }
        // Interleave deterministically.
        let mut rng = StdRng::seed_from_u64(99);
        for i in (1..data.len()).rev() {
            let j = rng.random_range(0..=i);
            data.swap(i, j);
        }
        (domains, data)
    }

    #[test]
    fn method_names_match_paper() {
        assert_eq!(TopKMethod::Hec.name(), "HEC");
        assert_eq!(TopKMethod::PtjPem { validity: false }.name(), "PTJ");
        assert_eq!(
            TopKMethod::PtjShuffled { validity: true }.name(),
            "PTJ-Shuffling+VP"
        );
        assert_eq!(
            TopKMethod::PtsPem {
                validity: false,
                global: false
            }
            .name(),
            "PTS"
        );
        assert_eq!(
            TopKMethod::PtsShuffled {
                validity: true,
                global: true,
                correlated: true
            }
            .name(),
            "PTS-Shuffling+VP+CP"
        );
    }

    #[test]
    fn all_methods_return_k_items_per_class_at_high_eps() {
        let (domains, data) = skewed_dataset(120_000, 64);
        let config = TopKConfig::new(3, eps(8.0));
        for (i, method) in TopKMethod::fig7_set().into_iter().enumerate() {
            let plan = Exec::sequential().seed(7 + i as u64);
            let result = execute(method, config, domains, &plan, SliceSource::new(&data)).unwrap();
            assert_eq!(result.per_class.len(), 3, "{}", method.name());
            for (c, items) in result.per_class.iter().enumerate() {
                assert!(
                    items.len() <= 3,
                    "{} class {c}: {} items",
                    method.name(),
                    items.len()
                );
                for &i in items {
                    assert!(i < 64, "{} produced out-of-domain item {i}", method.name());
                }
            }
            assert!(result.comm.users > 0);
        }
    }

    #[test]
    fn optimized_pts_finds_true_tops_at_high_eps() {
        let (domains, data) = skewed_dataset(150_000, 64);
        let truth: Vec<Vec<u32>> = {
            let t = mcim_core::FrequencyTable::ground_truth(domains, &data).unwrap();
            (0..3).map(|c| t.top_k(c, 3)).collect()
        };
        let config = TopKConfig::new(3, eps(8.0));
        let result = execute(
            TopKMethod::PtsShuffled {
                validity: true,
                global: true,
                correlated: true,
            },
            config,
            domains,
            &Exec::sequential().seed(11),
            SliceSource::new(&data),
        )
        .unwrap();
        // At ε=8 with 50k users per class the top-1 must be found in every
        // class; allow slack on the tail.
        for (c, (mined, tru)) in result.per_class.iter().zip(&truth).enumerate() {
            assert!(
                mined.contains(&tru[0]),
                "class {c}: top-1 {} missing from {mined:?}",
                tru[0]
            );
        }
    }

    #[test]
    fn ptj_shuffled_finds_true_tops_at_high_eps() {
        let (domains, data) = skewed_dataset(150_000, 64);
        let truth: Vec<Vec<u32>> = {
            let t = mcim_core::FrequencyTable::ground_truth(domains, &data).unwrap();
            (0..3).map(|c| t.top_k(c, 3)).collect()
        };
        let config = TopKConfig::new(3, eps(8.0));
        let result = execute(
            TopKMethod::PtjShuffled { validity: true },
            config,
            domains,
            &Exec::sequential().seed(13),
            SliceSource::new(&data),
        )
        .unwrap();
        for (c, (mined, tru)) in result.per_class.iter().zip(&truth).enumerate() {
            assert!(
                mined.contains(&tru[0]),
                "class {c}: {mined:?} missing {}",
                tru[0]
            );
        }
    }

    #[test]
    fn batch_execute_is_thread_count_invariant_for_every_method() {
        let (domains, data) = skewed_dataset(30_000, 64);
        let config = TopKConfig::new(3, eps(6.0));
        for method in TopKMethod::fig7_set() {
            let batch = |threads: usize| {
                execute(
                    method,
                    config,
                    domains,
                    &Exec::batch().seed(13).threads(threads),
                    SliceSource::new(&data),
                )
            };
            let seq = batch(1).unwrap();
            for threads in [2, 8] {
                let par = batch(threads).unwrap();
                assert_eq!(
                    par.per_class,
                    seq.per_class,
                    "{} diverged at threads={threads}",
                    method.name()
                );
                assert_eq!(par.comm, seq.comm, "{}", method.name());
                assert!(
                    (par.broadcast_bits_per_user - seq.broadcast_bits_per_user).abs() == 0.0,
                    "{}",
                    method.name()
                );
            }
        }
    }

    #[test]
    fn batch_execute_finds_true_tops_at_high_eps() {
        let (domains, data) = skewed_dataset(150_000, 64);
        let truth: Vec<Vec<u32>> = {
            let t = mcim_core::FrequencyTable::ground_truth(domains, &data).unwrap();
            (0..3).map(|c| t.top_k(c, 3)).collect()
        };
        let config = TopKConfig::new(3, eps(8.0));
        let result = execute(
            TopKMethod::PtsShuffled {
                validity: true,
                global: true,
                correlated: true,
            },
            config,
            domains,
            &Exec::batch().seed(23).threads(2),
            SliceSource::new(&data),
        )
        .unwrap();
        for (c, (mined, tru)) in result.per_class.iter().zip(&truth).enumerate() {
            assert!(
                mined.contains(&tru[0]),
                "class {c}: top-1 {} missing from {mined:?}",
                tru[0]
            );
        }
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let domains = Domains::new(2, 16).unwrap();
        let plan = Exec::sequential().seed(0);
        let data = vec![LabelItem::new(0, 0)];
        assert!(execute(
            TopKMethod::Hec,
            TopKConfig::new(0, eps(1.0)),
            domains,
            &plan,
            SliceSource::new(&data),
        )
        .is_err());
        assert!(execute(
            TopKMethod::Hec,
            TopKConfig::new(1, eps(1.0)),
            domains,
            &plan,
            SliceSource::new(&[] as &[LabelItem]),
        )
        .is_err());
    }

    #[test]
    fn tiny_class_gets_empty_or_short_results_not_panic() {
        // One class has almost no users — the Fig. 8 regime.
        let domains = Domains::new(3, 64).unwrap();
        let mut data = Vec::new();
        for u in 0..30_000usize {
            let label = if u % 1000 == 0 { 2 } else { (u % 2) as u32 };
            data.push(LabelItem::new(label, (u % 10) as u32));
        }
        let config = TopKConfig::new(5, eps(4.0));
        for (i, method) in TopKMethod::fig7_set().into_iter().enumerate() {
            let plan = Exec::sequential().seed(21 + i as u64);
            let result = execute(method, config, domains, &plan, SliceSource::new(&data)).unwrap();
            assert_eq!(result.per_class.len(), 3, "{}", method.name());
        }
    }

    #[test]
    fn split_joint_ranking_caps_each_class_at_k() {
        let domains = Domains::new(2, 8).unwrap();
        // joint codes: class = joint / 8.
        let ordered = vec![0u32, 1, 8, 2, 9, 3, 10, 11];
        let split = split_joint_ranking(&ordered, domains, 2);
        assert_eq!(split[0], vec![0, 1]);
        assert_eq!(split[1], vec![0, 1]);
    }

    #[test]
    fn pts_family_uses_less_uplink_than_ptj_family() {
        // Table II's communication ordering at equal ε.
        let (domains, data) = skewed_dataset(6_000, 256);
        let config = TopKConfig::new(4, eps(4.0));
        let pts = execute(
            TopKMethod::PtsShuffled {
                validity: true,
                global: true,
                correlated: true,
            },
            config,
            domains,
            &Exec::sequential().seed(31),
            SliceSource::new(&data),
        )
        .unwrap();
        let ptj = execute(
            TopKMethod::PtjShuffled { validity: true },
            config,
            domains,
            &Exec::sequential().seed(32),
            SliceSource::new(&data),
        )
        .unwrap();
        assert!(
            pts.comm.bits_per_user() < ptj.comm.bits_per_user(),
            "pts {} vs ptj {}",
            pts.comm.bits_per_user(),
            ptj.comm.bits_per_user()
        );
    }
}
