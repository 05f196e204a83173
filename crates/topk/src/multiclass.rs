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
//!
//! ### Execution
//! Every scoring round is one [`Executor::fold`] of a PEM round stage
//! ([`PemVpRoundStage`] or [`PemOracleRoundStage`]): the PEM methods' trie
//! rounds over their candidate prefixes, and the shuffling methods' bucket
//! and final rounds over the identity candidate set `0..buckets`. So a
//! distributed executor runs all of them on its workers. The GRR label
//! routing is the only pass that stays on local threads.

use std::collections::HashMap;

use mcim_core::analysis::CpProbs;
use mcim_core::{eq4_estimate, CommStats, Domains, LabelItem, ValidityPerturbation};
use mcim_oracles::exec::{Exec, Executor};
use mcim_oracles::hash::SplitMix64;
use mcim_oracles::stream::{drain_source, ReportSource, SliceSource};
use mcim_oracles::{calibrate::unbiased_count, parallel, Eps, Error, Grr, Result};

use crate::encoding::PrefixCode;
use crate::pem::{Pem, PemConfig, PemEngine, PemOracleRoundStage, PemOutcome, PemVpRoundStage};
use crate::shuffle::ShuffleEngine;

/// Which form of Algorithm 2's noise test gates the final CP round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NoiseTest {
    /// The paper's printed test: `|D_C| > b·|D'_C|` → fall back to VP.
    PaperRatio,
    /// The test's stated intent (default): fall back when the label-flip
    /// noise in the routed group exceeds `b ×` its valid mass `p₁·n̂_C`.
    /// Equivalent on imbalanced classes; additionally trips for many
    /// uniform classes where `p₁` collapses (README "Deviations from the
    /// paper").
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

/// Execution pacing: the per-stage seed stream and the executor every
/// scoring round folds on.
///
/// Stage `i` takes the `i`-th seed of a [`SplitMix64`] stream over the
/// plan seed and processes fixed-size shards with derived per-shard RNGs,
/// so the mined result is bit-identical for every thread count, chunk
/// size and worker count (the RNG contract; see `mcim_oracles::stream`).
struct Pace<'r, E: Executor> {
    /// Per-stage seed stream.
    stream: SplitMix64,
    /// Worker thread cap of the local label-routing pass.
    threads: usize,
    /// Backend for every PEM and bucket-scoring round — in-process threads
    /// or the distributed reducer.
    executor: &'r E,
}

impl<E: Executor> Pace<'_, E> {
    /// A fresh 64-bit seed (shuffle-round seeds, sharded-stage base seeds).
    fn next_seed(&mut self) -> u64 {
        self.stream.next_u64()
    }

    /// GRR-routes a block of users by label, recording uplink per user,
    /// and returns each user's routed class in input order.
    ///
    /// The one pass that stays off the executor: it yields one output per
    /// input, in input order, which a fold cannot express — folds combine
    /// partials with a commutative [`Stage::merge`](mcim_oracles::exec::Stage::merge).
    /// It runs on local threads under the same shard RNG contract.
    fn route(&mut self, grr: &Grr, users: &[LabelItem], comm: &mut CommStats) -> Result<Vec<u32>> {
        for _ in users {
            comm.record(grr.report_bits());
        }
        let base = self.stream.next_u64();
        parallel::try_fill_shards(users, self.threads, |shard, chunk, slots| {
            let mut rng = parallel::shard_rng(base, shard);
            for (p, slot) in chunk.iter().zip(slots.iter_mut()) {
                *slot = grr.perturb(p.label, &mut rng)?;
            }
            Ok(())
        })
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
/// Every scoring round is a fold over fixed-size shards with RNG streams
/// derived from the plan seed (the RNG contract), so the mined result is a
/// pure function of `(method, config, domains, pairs, seed)` —
/// bit-identical across in-process and distributed execution for every
/// thread count and chunk size (the `MCIM_THREADS` CI matrix locks this
/// in).
///
/// Multi-round mining routes users into per-class groups that later
/// rounds revisit, so the 8-byte pairs themselves are drained into memory
/// under every plan. Routing adds one 4-byte routed class and one group
/// entry per user: the label-routed PTS methods peak at 14.4–17.6 bytes
/// of live heap per user, the drained pairs included
/// (`crates/topk/tests/peak_heap.rs`). Every privatized report is counted
/// as it is drawn, one per fold worker in flight, never kept as an
/// `O(n)` slice, and the pull-based ingestion means the pairs can come
/// straight off disk or a socket instead of a pre-built `Vec`.
///
/// # Errors
/// [`Error::InvalidParameter`] for `k = 0`, an empty source, a
/// `sample_frac` outside `(0, 1)` or a `noise_factor` that is not a finite
/// positive number.
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
/// `Coordinator` to fan every scoring round out across worker processes).
///
/// Stage `i` of the pipeline takes the `i`-th seed of a [`SplitMix64`]
/// stream over the executor's plan seed, exactly like [`execute`] — the
/// mined result is bit-identical for every conforming executor, thread
/// count, chunk size and worker count. Every PEM, bucket-scoring and
/// final round folds on the executor; only the GRR label routing runs on
/// local threads (an output-per-input map has no mergeable partials to
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
    if !(config.sample_frac > 0.0 && config.sample_frac < 1.0) {
        return Err(Error::InvalidParameter {
            name: "sample_frac",
            constraint: "0 < sample_frac < 1",
        });
    }
    if !(config.noise_factor > 0.0 && config.noise_factor.is_finite()) {
        return Err(Error::InvalidParameter {
            name: "noise_factor",
            constraint: "finite noise_factor > 0",
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
        // With no global round to run (a one-round engine), every user is
        // routed: a sample would be neither mined nor counted.
        let (sample, rest) = if it_f > 0 {
            split_at_frac(data, config.sample_frac)
        } else {
            (&data[..0], data)
        };
        if !sample.is_empty() {
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
    let routed = pace.route(&grr, rest, &mut comm)?;
    let groups = group_by_route(rest, routed, domains.classes() as usize, |p| p.item);

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
            for &r in &pace.route(&grr, chunk, &mut comm)? {
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
    let routed = pace.route(&grr, rest, &mut comm)?;
    let groups = group_by_route(rest, routed, c, |p| p);
    let n2 = rest.len();

    // Class-size estimates |D'_C| over the phase-2 population: from the
    // phase-1 fractions when available, otherwise from the routing tallies.
    let estimated_class_sizes: Vec<f64> = match &class_frac {
        Some(fracs) => fracs.iter().map(|f| f * n2 as f64).collect(),
        None => groups
            .iter()
            .map(|g| unbiased_count(g.len() as f64, n2 as f64, p1, q1).max(0.0))
            .collect(),
    };

    // Per-class pruning rounds, collecting each class's final cohort (the
    // last chunk of its group).
    struct FinalGroup<'g, 'a> {
        class: u32,
        users: &'g [&'a LabelItem],
        candidates: Vec<u32>,
        use_cp: bool,
    }
    let mut finals: Vec<FinalGroup<'_, '_>> = Vec::with_capacity(c);
    // Worst-case per-user downlink: the phase-1 seed/state history plus the
    // deepest per-class history a final-round user must replay.
    let phase1_broadcast = engine_global.broadcast_bits() as f64;
    let mut class_broadcast: f64 = 0.0;
    for (class, group) in groups.iter().enumerate() {
        if group.is_empty() {
            finals.push(FinalGroup {
                class: class as u32,
                users: &[],
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
        // (see `NoiseTest` and README "Deviations from the paper" for why
        // the default deviates from the printed formula).
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
            users: chunks.next().unwrap_or(&[]),
            candidates: engine.candidates().to_vec(),
            use_cp,
        });
        class_broadcast = class_broadcast.max(engine.broadcast_bits() as f64);
    }

    // Final round: one fold per eligible class, in class order. CP classes
    // need the cohort-wide total N_f for Eq. (4).
    let n_final: usize = finals.iter().map(|f| f.users.len()).sum();
    let mut per_class: Vec<Vec<u32>> = vec![Vec::new(); c];
    for fg in &finals {
        if fg.users.is_empty() || fg.candidates.is_empty() {
            continue;
        }
        let index: HashMap<u32, u32> = fg
            .candidates
            .iter()
            .enumerate()
            .map(|(i, &it)| (it, i as u32))
            .collect();
        // Correlated perturbation: validity also requires the routed label
        // to match the true label (besides the item surviving pruning).
        let inputs: Vec<Option<u32>> = fg
            .users
            .iter()
            .map(|p| {
                let idx = index.get(&p.item).copied();
                idx.filter(|_| !fg.use_cp || p.label == fg.class)
            })
            .collect();
        // `use_cp` implies `validity`, so CP classes get VP's raw counts.
        let n_cands = fg.candidates.len();
        let mut scores = score_round(pace, e2, n_cands, &inputs, validity, &mut comm)?;
        if fg.use_cp {
            // Eq. (4) with N = final cohort size and ñ_C = |F_C| (every
            // member of this group was routed to this class).
            let vp = ValidityPerturbation::new(e2, n_cands as u32)?;
            let (p2, q2) = (vp.p(), vp.q());
            let pr = CpProbs { p1, q1, p2, q2 };
            let n_f = n_final as f64;
            let n_hat = unbiased_count(fg.users.len() as f64, n_f, p1, q1);
            for s in &mut scores {
                *s = eq4_estimate(*s, n_hat, n_f, pr);
            }
        }
        let mut ranked: Vec<(u32, f64)> = fg.candidates.iter().copied().zip(scores).collect();
        ranked.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        per_class[fg.class as usize] = ranked.into_iter().take(k).map(|(it, _)| it).collect();
    }

    Ok(TopKResult {
        per_class,
        comm,
        broadcast_bits_per_user: phase1_broadcast + class_broadcast,
    })
}

// ------------------------------------------------------------ helpers --

/// Scores one round of bucket reports on the executor. `inputs` holds each
/// user's bucket in `0..buckets` (`None` = invalid). With `validity` the
/// scores are the VP mechanism's raw flag-filtered counts; otherwise
/// invalid users substitute a uniform random bucket (vanilla PEM
/// deniability) and the scores are the adaptive oracle's estimates.
///
/// The round is a fold of the PEM round stage over the *identity*
/// candidate set — bucket `b` is its own full-length code, so the stage
/// classifies it as candidate `b` — under the next seed of `pace`'s
/// stream. Every top-k scoring round therefore runs on the executor, and
/// a distributed one ships it to its workers.
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
    let domain = buckets as u32;
    let prefix_len = PrefixCode::for_domain(domain).bits();
    let candidates: Vec<u32> = (0..domain).collect();
    let seed = pace.next_seed();
    let source = &mut SliceSource::new(inputs);
    let (scores, stats) = if validity {
        let stage = PemVpRoundStage::new(eps, domain, prefix_len, candidates)?;
        let (agg, stats) = pace.executor.fold(source, seed, &stage)?;
        (agg.raw_counts().iter().map(|&c| c as f64).collect(), stats)
    } else {
        let stage = PemOracleRoundStage::new(eps, domain, prefix_len, candidates)?;
        let (agg, stats) = pace.executor.fold(source, seed, &stage)?;
        (agg.estimate(), stats)
    };
    comm.merge(stats);
    Ok(scores)
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

/// Splits `users` into per-class groups by their routed class
/// (`routed[u]` is user `u`'s), keeping each user's `pick` in input order.
/// Every group is allocated at its exact size, and `routed` is freed on
/// return.
fn group_by_route<'a, T>(
    users: &'a [LabelItem],
    routed: Vec<u32>,
    classes: usize,
    pick: impl Fn(&'a LabelItem) -> T,
) -> Vec<Vec<T>> {
    let mut sizes = vec![0usize; classes];
    for &r in &routed {
        sizes[r as usize] += 1;
    }
    let mut groups: Vec<Vec<T>> = sizes.into_iter().map(Vec::with_capacity).collect();
    for (p, &r) in users.iter().zip(&routed) {
        groups[r as usize].push(pick(p));
    }
    groups
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
    let code_bits = PrefixCode::for_domain(domain).bits() as f64;
    (4 * k) as f64 * code_bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
            let plan = Exec::seeded(7 + i as u64).threads(1);
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
            &Exec::seeded(11).threads(1),
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
            &Exec::seeded(13).threads(1),
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
                    &Exec::seeded(13).threads(threads),
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
            &Exec::seeded(23).threads(2),
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
        let plan = Exec::seeded(0).threads(1);
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
        // Algorithm 1's sample fraction and Algorithm 2's noise threshold
        // are refused before any draw, whichever method would use them.
        let opt = TopKMethod::PtsShuffled {
            validity: true,
            global: true,
            correlated: true,
        };
        let refused = |config: TopKConfig, name: &str| {
            for method in [TopKMethod::Hec, opt] {
                let err = execute(method, config, domains, &plan, SliceSource::new(&data));
                assert!(
                    matches!(err, Err(Error::InvalidParameter { name: n, .. }) if n == name),
                    "{}: {err:?}",
                    method.name()
                );
            }
        };
        for frac in [0.0, 1.0, 1.5, -1.0, f64::NAN, f64::INFINITY] {
            let mut config = TopKConfig::new(1, eps(1.0));
            config.sample_frac = frac;
            refused(config, "sample_frac");
        }
        for b in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut config = TopKConfig::new(1, eps(1.0));
            config.noise_factor = b;
            refused(config, "noise_factor");
        }
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
            let plan = Exec::seeded(21 + i as u64).threads(1);
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
            &Exec::seeded(31).threads(1),
            SliceSource::new(&data),
        )
        .unwrap();
        let ptj = execute(
            TopKMethod::PtjShuffled { validity: true },
            config,
            domains,
            &Exec::seeded(32).threads(1),
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
