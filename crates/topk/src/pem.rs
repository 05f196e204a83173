//! PEM — the Prefix Extending Method baseline (Wang et al., TDSC 2021),
//! the state-of-the-art trie-based heavy-hitter miner the paper builds on
//! and compares against (§VI-B).
//!
//! Items are `ℓ`-bit codes; mining proceeds over rounds. Round `r` estimates
//! the frequencies of the current candidate prefixes using a fresh group of
//! users and the adaptive frequency oracle, keeps the heaviest `2k`, and
//! extends them by `m` bits. The last round works on full-length codes and
//! keeps `k`.
//!
//! Two paper-relevant details are configurable:
//!
//! * **invalid handling** — a user whose prefix was pruned (or whose item
//!   is invalid for the class being mined) substitutes a uniformly random
//!   candidate in vanilla PEM; with `validity = true` the engine instead
//!   uses the paper's validity perturbation (§IV-A).
//! * the engine can start from an externally supplied candidate set (the
//!   "globally frequent candidates" optimization of Algorithm 1).

use rand::rngs::StdRng;
use rand::Rng;

use mcim_core::{CommStats, ValidityInput, ValidityPerturbation, VpAggregator};
use mcim_oracles::exec::{Exec, Executor, Stage, StageDecode};
use mcim_oracles::hash::SplitMix64;
use mcim_oracles::stream::{drain_source, required_len, ReportSource, SliceSource, Take};
use mcim_oracles::wire::{StageSpec, Wire, WireReader};
use mcim_oracles::{Aggregator, Eps, Error, Oracle, Result};

use crate::encoding::PrefixCode;

/// Bucket-number width of [`CandIndex`]: its start table indexes at most
/// the top `BUCKET_BITS` bits of a prefix, so it holds ≤ 4097 entries
/// (16 KiB) at any prefix width.
const BUCKET_BITS: u32 = 12;

/// Candidate-prefix → candidate-index lookup in constant time for the
/// prefix widths PEM rounds run.
///
/// The `(prefix, index)` pairs are sorted, and a bucket-start table over
/// the top ≤ [`BUCKET_BITS`] bits of the prefix (`shift = bits(max) − 12`,
/// saturating) splits them into runs. A lookup reads two starts, then
/// searches its run. Whenever the prefix space has ≤ 4096 values the
/// shift is 0 and each run holds at most one candidate; wider prefixes
/// share buckets, and the run is binary-searched, so even a clustered
/// candidate set from outside bytes costs `O(log n)` per lookup.
/// Duplicate prefixes resolve to their lowest candidate index.
///
/// This file is wire-sensitive (it carries `StageDecode` impls), so even
/// lookup-only tables stay off `HashMap` — hashed containers are banned
/// here outright (`mcim-lint`'s hashmap-in-wire rule) rather than audited
/// use-by-use for iteration-order leaks.
#[derive(Debug, Clone)]
struct CandIndex {
    /// `(prefix, candidate index)` pairs, sorted.
    by_prefix: Vec<(u32, u32)>,
    /// `by_prefix[starts[b]..starts[b + 1]]` are the pairs whose
    /// `prefix >> shift == b`.
    starts: Vec<u32>,
    shift: u32,
}

impl CandIndex {
    fn new(candidates: &[u32]) -> Self {
        let mut by_prefix: Vec<(u32, u32)> = candidates
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as u32))
            .collect();
        by_prefix.sort_unstable();
        let max = by_prefix.last().map_or(0, |&(p, _)| p);
        let shift = (u32::BITS - max.leading_zeros()).saturating_sub(BUCKET_BITS);
        let mut starts = vec![0u32; (max >> shift) as usize + 2];
        for &(p, _) in &by_prefix {
            starts[(p >> shift) as usize + 1] += 1;
        }
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        CandIndex {
            by_prefix,
            starts,
            shift,
        }
    }

    #[inline]
    fn get(&self, prefix: u32) -> Option<u32> {
        let b = (prefix >> self.shift) as usize;
        let (&lo, &hi) = (self.starts.get(b)?, self.starts.get(b + 1)?);
        let run = &self.by_prefix[lo as usize..hi as usize];
        match run.get(run.partition_point(|&(p, _)| p < prefix)) {
            Some(&(p, idx)) if p == prefix => Some(idx),
            _ => None,
        }
    }
}

/// What both PEM round stages are built from and ship in their spec
/// payload — `(ε, domain, prefix length, candidates)` — plus the candidate
/// lookup derived from it.
struct Round {
    eps: Eps,
    domain: u32,
    prefix_len: u32,
    candidates: Vec<u32>,
    code: PrefixCode,
    index: CandIndex,
}

impl Round {
    /// Refuses round parameters a fold could not classify with: an empty
    /// domain, or a prefix longer than the domain's code (which would panic
    /// in [`PrefixCode::prefix`] on the first valid item).
    fn new(eps: Eps, domain: u32, prefix_len: u32, candidates: Vec<u32>) -> Result<Self> {
        if domain == 0 || prefix_len > PrefixCode::for_domain(domain).bits() {
            return Err(Error::InvalidParameter {
                name: "prefix_len",
                constraint: "a non-empty domain and prefix_len <= its code length",
            });
        }
        Ok(Round {
            eps,
            domain,
            prefix_len,
            index: CandIndex::new(&candidates),
            candidates,
            code: PrefixCode::for_domain(domain),
        })
    }

    /// Writes the spec payload of either round stage.
    fn put(&self, buf: &mut Vec<u8>) {
        self.eps.value().put(buf);
        self.domain.put(buf);
        self.prefix_len.put(buf);
        self.candidates.put(buf);
    }

    /// Reads [`Round::put`]'s payload back, refusing an empty candidate set
    /// or domain before [`Round::new`]'s checks.
    fn take(r: &mut WireReader<'_>) -> Result<Self> {
        let eps = Eps::new(f64::take(r)?)?;
        let domain = u32::take(r)?;
        let prefix_len = u32::take(r)?;
        let candidates = Vec::<u32>::take(r)?;
        if domain == 0 || candidates.is_empty() {
            return Err(Error::InvalidParameter {
                name: "candidates",
                constraint: "non-empty candidate set over a non-empty domain",
            });
        }
        Round::new(eps, domain, prefix_len, candidates)
    }
}

/// One PEM round's bulk privatize+aggregate step over the
/// validity-perturbation mechanism, as a serializable [`Stage`]: a worker
/// process rebuilds the candidate index and VP mechanism from
/// `(ε, domain, prefix length, candidates)` and replays the identical
/// fold. Items are each user's raw item (`None` = invalid user).
pub struct PemVpRoundStage {
    round: Round,
    vp: ValidityPerturbation,
}

impl PemVpRoundStage {
    /// Builds the stage, constructing the VP mechanism for the candidate
    /// count.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when `domain` is 0 or `prefix_len`
    /// exceeds the domain's code length.
    pub fn new(eps: Eps, domain: u32, prefix_len: u32, candidates: Vec<u32>) -> Result<Self> {
        PemVpRoundStage::from_round(Round::new(eps, domain, prefix_len, candidates)?)
    }

    fn from_round(round: Round) -> Result<Self> {
        let vp = ValidityPerturbation::new(round.eps, round.candidates.len() as u32)?;
        Ok(PemVpRoundStage { round, vp })
    }

    fn classify(&self, item: Option<u32>) -> ValidityInput {
        let round = &self.round;
        match item {
            Some(it) => match round.index.get(round.code.prefix(it, round.prefix_len)) {
                Some(idx) => ValidityInput::Valid(idx),
                None => ValidityInput::Invalid,
            },
            None => ValidityInput::Invalid,
        }
    }
}

impl Stage for PemVpRoundStage {
    type Item = Option<u32>;
    type Acc = (VpAggregator, CommStats);

    fn template(&self) -> Self::Acc {
        (VpAggregator::new(&self.vp), CommStats::default())
    }

    fn fold(
        &self,
        rng: &mut StdRng,
        _abs: u64,
        items: &[Option<u32>],
        (agg, comm): &mut Self::Acc,
    ) -> Result<()> {
        agg.absorb_each(items.len(), |i, report| {
            self.vp
                .privatize_into(self.classify(items[i]), rng, report)?;
            comm.record(report.len());
            Ok(())
        })
    }

    fn merge(&self, into: &mut Self::Acc, from: &Self::Acc) -> Result<()> {
        into.0.merge(&from.0)?;
        into.1.merge(from.1);
        Ok(())
    }

    fn spec(&self) -> Option<StageSpec> {
        Some(StageSpec::new(Self::KIND, |buf| self.round.put(buf)))
    }
}

impl StageDecode for PemVpRoundStage {
    const KIND: &'static str = "pem/vp-round";

    fn decode(payload: &mut WireReader<'_>) -> Result<Self> {
        PemVpRoundStage::from_round(Round::take(payload)?)
    }
}

/// One vanilla PEM round's step over the adaptive frequency oracle, as a
/// serializable [`Stage`]. Pruned/invalid users substitute a uniformly
/// random candidate drawn from the same per-shard RNG stream, so workers
/// replay the substitution exactly.
pub struct PemOracleRoundStage {
    round: Round,
    oracle: Oracle,
}

impl PemOracleRoundStage {
    /// Builds the stage, constructing the adaptive oracle for the
    /// candidate count.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when `domain` is 0 or `prefix_len`
    /// exceeds the domain's code length.
    pub fn new(eps: Eps, domain: u32, prefix_len: u32, candidates: Vec<u32>) -> Result<Self> {
        PemOracleRoundStage::from_round(Round::new(eps, domain, prefix_len, candidates)?)
    }

    fn from_round(round: Round) -> Result<Self> {
        let oracle = Oracle::adaptive(round.eps, round.candidates.len() as u32)?;
        Ok(PemOracleRoundStage { round, oracle })
    }
}

impl Stage for PemOracleRoundStage {
    type Item = Option<u32>;
    type Acc = (Aggregator, CommStats);

    fn template(&self) -> Self::Acc {
        (Aggregator::new(&self.oracle), CommStats::default())
    }

    fn fold(
        &self,
        rng: &mut StdRng,
        _abs: u64,
        items: &[Option<u32>],
        (agg, comm): &mut Self::Acc,
    ) -> Result<()> {
        let round = &self.round;
        let n_cands = round.candidates.len() as u32;
        let mut reports = Vec::with_capacity(items.len());
        for &item in items {
            let value = match item {
                Some(it) => match round.index.get(round.code.prefix(it, round.prefix_len)) {
                    Some(idx) => idx,
                    None => rng.random_range(0..n_cands),
                },
                None => rng.random_range(0..n_cands),
            };
            let report = self.oracle.privatize(value, rng)?;
            comm.record(report.size_bits());
            reports.push(report);
        }
        // One block per fragment: unary-encoding reports sum through the
        // bit-sliced column counter instead of per-report increments.
        agg.absorb_all(&reports)
    }

    fn merge(&self, into: &mut Self::Acc, from: &Self::Acc) -> Result<()> {
        into.0.merge(&from.0)?;
        into.1.merge(from.1);
        Ok(())
    }

    fn spec(&self) -> Option<StageSpec> {
        Some(StageSpec::new(Self::KIND, |buf| self.round.put(buf)))
    }
}

impl StageDecode for PemOracleRoundStage {
    const KIND: &'static str = "pem/oracle-round";

    fn decode(payload: &mut WireReader<'_>) -> Result<Self> {
        PemOracleRoundStage::from_round(Round::take(payload)?)
    }
}

/// PEM tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct PemConfig {
    /// Number of items to mine.
    pub k: usize,
    /// Bits added to surviving prefixes per round (`m`, default 1).
    pub extend_bits: u32,
    /// Candidates kept per intermediate round, as a multiple of `k`
    /// (default 2 — the paper's "top 2·k buckets").
    pub keep_factor: usize,
    /// Use validity perturbation instead of random-candidate substitution.
    pub validity: bool,
}

impl PemConfig {
    /// Vanilla PEM with the paper's defaults.
    pub fn new(k: usize) -> Self {
        PemConfig {
            k,
            extend_bits: 1,
            keep_factor: 2,
            validity: false,
        }
    }

    /// Enables validity perturbation for invalid users.
    pub fn with_validity(mut self) -> Self {
        self.validity = true;
        self
    }
}

/// The incremental PEM state machine. Feed each round a fresh user group.
#[derive(Debug, Clone)]
pub struct PemEngine {
    code: PrefixCode,
    config: PemConfig,
    /// Current candidate prefixes (sorted, deduplicated).
    candidates: Vec<u32>,
    prefix_len: u32,
    /// Scores of `candidates` from the most recent round.
    last_scores: Vec<f64>,
    finished: bool,
}

impl PemEngine {
    /// Creates an engine over item domain `[0, d)` starting from all
    /// prefixes of length `γ₀ = min(⌈log₂ 4k⌉, ℓ)`.
    pub fn new(d: u32, config: PemConfig) -> Result<Self> {
        if config.k == 0 {
            return Err(Error::InvalidParameter {
                name: "k",
                constraint: "k >= 1",
            });
        }
        if d == 0 {
            return Err(Error::EmptyDomain);
        }
        let code = PrefixCode::for_domain(d);
        let gamma0 = PrefixCode::for_domain((4 * config.k as u64).min(u32::MAX as u64) as u32)
            .bits()
            .min(code.bits());
        let candidates = code.live_prefixes(gamma0);
        Ok(PemEngine {
            code,
            config,
            candidates,
            prefix_len: gamma0,
            last_scores: Vec::new(),
            finished: false,
        })
    }

    /// Creates an engine that *resumes* from externally mined candidates of
    /// length `prefix_len` (Algorithm 1's global candidates).
    pub fn resume(
        d: u32,
        config: PemConfig,
        candidates: Vec<u32>,
        prefix_len: u32,
    ) -> Result<Self> {
        let code = PrefixCode::for_domain(d);
        if prefix_len > code.bits() || candidates.is_empty() {
            return Err(Error::InvalidParameter {
                name: "candidates",
                constraint: "non-empty candidate set with prefix_len <= code length",
            });
        }
        Ok(PemEngine {
            code,
            config,
            candidates,
            prefix_len,
            last_scores: Vec::new(),
            finished: false,
        })
    }

    /// Remaining rounds, counting the final full-length round.
    pub fn remaining_rounds(&self) -> usize {
        if self.finished {
            return 0;
        }
        let gap = self.code.bits() - self.prefix_len;
        1 + gap.div_ceil(self.config.extend_bits) as usize
    }

    /// Whether the next round is the final (full-length) one.
    pub fn is_final_round(&self) -> bool {
        !self.finished && self.prefix_len == self.code.bits()
    }

    /// Current candidate prefixes.
    pub fn candidates(&self) -> &[u32] {
        &self.candidates
    }

    /// Current prefix length.
    pub fn prefix_len(&self) -> u32 {
        self.prefix_len
    }

    /// Runs one round under an [`Exec`] plan. `source` yields each participating user's
    /// item (`None` = the user is invalid for this mining task, e.g. her
    /// label does not match the class being mined). Returns uplink
    /// statistics.
    ///
    /// The round's serializable stage folds through the plan's in-process
    /// executor ([`PemEngine::execute_round_on`]), so seed-equal plans are
    /// bit-identical across thread counts and chunk sizes.
    ///
    /// The plan seed is **this round's** seed: a multi-round driver must
    /// pass a distinct seed per round — reusing one plan verbatim replays
    /// the same noise stream every round and correlates the rounds.
    /// [`Pem::execute`] does this for you by deriving one [`SplitMix64`]
    /// seed per round from its plan seed.
    pub fn execute_round<S>(&mut self, eps: Eps, plan: &Exec, source: S) -> Result<CommStats>
    where
        S: ReportSource<Item = Option<u32>>,
    {
        self.execute_round_on(&plan.in_process(), eps, plan.base_seed(), source)
    }

    /// Runs one sharded round on an explicit [`Executor`] backend — the
    /// distributed-reducer seam of the PEM layer (pass `mcim-dist`'s
    /// `Coordinator` to fan the round's users out across worker
    /// processes).
    ///
    /// The round's fold is a serializable stage ([`PemVpRoundStage`] /
    /// [`PemOracleRoundStage`]), so any backend processes the user group
    /// in fixed absolute shards with the deterministic per-shard RNG
    /// stream `shard_rng(stage_seed, shard)` (state carried across chunk
    /// boundaries). Candidates are looked up in constant time
    /// (`CandIndex`); the validity round privatizes each user into one
    /// reused report and sums the fragment through the bit-sliced column
    /// counter ([`VpAggregator::absorb_each`]), while the vanilla round
    /// absorbs each fragment's adaptive-oracle reports as one block
    /// ([`Aggregator::absorb_all`]). The
    /// surviving candidate set is a pure function of
    /// `(engine state, eps, items, stage_seed)` — bit-identical for every
    /// conforming executor, thread count, chunk size and worker count.
    /// `stage_seed` is explicit (rather than taken from the executor's
    /// plan) because multi-round miners derive one seed per round from the
    /// plan seed.
    pub fn execute_round_on<E, S>(
        &mut self,
        executor: &E,
        eps: Eps,
        stage_seed: u64,
        mut source: S,
    ) -> Result<CommStats>
    where
        E: Executor,
        S: ReportSource<Item = Option<u32>>,
    {
        let source = &mut source;
        if self.finished {
            return Err(Error::InvalidParameter {
                name: "round",
                constraint: "engine already finished",
            });
        }
        mcim_obs::counter_add("mcim_pem_rounds_total", 1);
        let (domain, candidates) = (self.code.domain(), self.candidates.clone());

        let (scores, comm) = if self.config.validity {
            let stage = PemVpRoundStage::new(eps, domain, self.prefix_len, candidates)?;
            let (agg, comm) = executor.fold(source, stage_seed, &stage)?;
            (agg.raw_counts().iter().map(|&c| c as f64).collect(), comm)
        } else {
            let stage = PemOracleRoundStage::new(eps, domain, self.prefix_len, candidates)?;
            let (agg, comm) = executor.fold(source, stage_seed, &stage)?;
            (agg.estimate(), comm)
        };

        self.prune_and_extend(scores);
        Ok(comm)
    }

    /// Applies external scores (one per candidate), for callers that
    /// aggregate reports themselves.
    pub fn apply_scores(&mut self, scores: Vec<f64>) -> Result<()> {
        if scores.len() != self.candidates.len() {
            return Err(Error::ReportMismatch {
                expected: "one score per candidate",
            });
        }
        if self.finished {
            return Err(Error::InvalidParameter {
                name: "round",
                constraint: "engine already finished",
            });
        }
        self.prune_and_extend(scores);
        Ok(())
    }

    fn prune_and_extend(&mut self, scores: Vec<f64>) {
        let is_final = self.prefix_len == self.code.bits();
        let keep = if is_final {
            self.config.k
        } else {
            self.config.keep_factor * self.config.k
        };
        let mut order: Vec<usize> = (0..self.candidates.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        order.truncate(keep);

        if is_final {
            // Record the surviving items (full codes) with their scores.
            self.last_scores = order.iter().map(|&i| scores[i]).collect();
            self.candidates = order.iter().map(|&i| self.candidates[i]).collect();
            self.finished = true;
            return;
        }

        let survivors: Vec<u32> = order.iter().map(|&i| self.candidates[i]).collect();
        let extend = self
            .config
            .extend_bits
            .min(self.code.bits() - self.prefix_len);
        let new_len = self.prefix_len + extend;
        let mut next: Vec<u32> = Vec::with_capacity(survivors.len() << extend);
        // Only keep children that still have a real item beneath them.
        let max_prefix = self.code.prefix(self.code.domain() - 1, new_len);
        for &s in &survivors {
            for child in self.code.children(s, extend) {
                if child <= max_prefix {
                    next.push(child);
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        self.candidates = next;
        self.prefix_len = new_len;
        self.last_scores.clear();
    }

    /// The mined top items (descending score). Only valid after the final
    /// round; items are full codes and always real domain values.
    pub fn top_items(&self) -> Result<Vec<u32>> {
        if !self.finished {
            return Err(Error::InvalidParameter {
                name: "round",
                constraint: "final round not yet run",
            });
        }
        Ok(self
            .candidates
            .iter()
            .copied()
            .filter(|&c| self.code.is_real_item(c))
            .collect())
    }

    /// Scores aligned with [`PemEngine::top_items`]' pre-filter candidate
    /// list (descending).
    pub fn final_scores(&self) -> &[f64] {
        &self.last_scores
    }
}

/// Convenience single-population miner: splits `items` evenly across the
/// required rounds and returns the mined top-k.
#[derive(Debug, Clone)]
pub struct Pem {
    d: u32,
    config: PemConfig,
}

/// Outcome of a [`Pem::execute`] run.
#[derive(Debug, Clone)]
pub struct PemOutcome {
    /// Mined items, descending estimated frequency.
    pub top: Vec<u32>,
    /// Uplink communication statistics.
    pub comm: CommStats,
}

impl Pem {
    /// Creates a miner over domain `[0, d)`.
    pub fn new(d: u32, config: PemConfig) -> Result<Self> {
        PemEngine::new(d, config)?; // validate early
        Ok(Pem { d, config })
    }

    /// Mines the top-k under an [`Exec`] plan. `None` items are invalid
    /// users.
    ///
    /// The source is split into one `⌈n/rounds⌉`-user group per round
    /// (pulled straight off the source via [`Take`], so a round group is
    /// never materialized beyond one chunk) and round `r` runs through
    /// [`PemEngine::execute_round_on`] with the `r`-th seed of the
    /// [`SplitMix64`] stream over the plan seed — bit-identical for every
    /// thread count and chunk size. The round split needs the population
    /// size up front, so an unsized source is drained first.
    pub fn execute<S>(&self, eps: Eps, plan: &Exec, mut source: S) -> Result<PemOutcome>
    where
        S: ReportSource<Item = Option<u32>>,
    {
        if source.size_hint().is_none() {
            let items = drain_source(&mut source)?;
            return self.execute_on(
                &plan.in_process(),
                eps,
                plan.base_seed(),
                SliceSource::new(&items),
            );
        }
        self.execute_on(&plan.in_process(), eps, plan.base_seed(), source)
    }

    /// Mines the top-k on an explicit [`Executor`] backend — the
    /// distributed-reducer seam of the whole-miner layer. Requires a
    /// **sized** source (rounds split the population up front).
    ///
    /// Round `r` runs through [`PemEngine::execute_round_on`] with the
    /// `r`-th seed of the [`SplitMix64`] stream over `base_seed`, exactly
    /// like [`Pem::execute`] with a plan seeded `base_seed` —
    /// bit-identical for every conforming executor. `base_seed` is
    /// explicit because multi-stage callers (the multi-class top-k
    /// methods) derive one seed per mining stage.
    pub fn execute_on<E, S>(
        &self,
        executor: &E,
        eps: Eps,
        base_seed: u64,
        mut source: S,
    ) -> Result<PemOutcome>
    where
        E: Executor,
        S: ReportSource<Item = Option<u32>>,
    {
        let n = required_len(&source)?;
        let mut engine = PemEngine::new(self.d, self.config)?;
        let rounds = engine.remaining_rounds();
        let mut comm = CommStats::default();
        let chunk = (n.div_ceil(rounds as u64)).max(1);
        let mut stream = SplitMix64::new(base_seed);
        for _ in 0..rounds {
            let group = Take::new(&mut source, chunk);
            let stats = engine.execute_round_on(executor, eps, stream.next_u64(), group)?;
            comm.merge(stats);
        }
        Ok(PemOutcome {
            top: engine.top_items()?,
            comm,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn eps(v: f64) -> Eps {
        Eps::new(v).unwrap()
    }

    /// A Zipf-ish population over d items: item i has weight ∝ 1/(i+1)².
    /// Users are shuffled so every PEM round group sees the same mixture.
    fn population(d: u32, n: usize) -> Vec<Option<u32>> {
        let weights: Vec<f64> = (0..d).map(|i| 1.0 / ((i + 1) as f64).powi(2)).collect();
        let total: f64 = weights.iter().sum();
        let mut items = Vec::with_capacity(n);
        let mut acc = 0.0;
        let mut cum = vec![0.0; d as usize];
        for (i, w) in weights.iter().enumerate() {
            acc += w / total;
            cum[i] = acc;
        }
        for u in 0..n {
            let x = (u as f64 + 0.5) / n as f64;
            let item = cum.partition_point(|&c| c < x) as u32;
            items.push(Some(item.min(d - 1)));
        }
        let mut rng = StdRng::seed_from_u64(1234);
        for i in (1..items.len()).rev() {
            let j = rng.random_range(0..=i);
            items.swap(i, j);
        }
        items
    }

    /// Linear-scan reference for [`CandIndex::get`]: the lowest candidate
    /// index holding `prefix`.
    fn scan_lookup(candidates: &[u32], prefix: u32) -> Option<u32> {
        candidates
            .iter()
            .position(|&c| c == prefix)
            .map(|i| i as u32)
    }

    #[test]
    fn cand_index_matches_linear_scan() {
        let mut rng = StdRng::seed_from_u64(77);
        for width in 1..=31u32 {
            let space = 1u64 << width;
            for _ in 0..6 {
                let n = rng.random_range(1..=300usize.min(space as usize * 2));
                // Unsorted, possibly duplicated prefixes, sometimes clustered
                // low so wide prefixes share a bucket.
                let top = if rng.random_bool(0.5) {
                    space
                } else {
                    space.min(64)
                };
                let mut candidates: Vec<u32> =
                    (0..n).map(|_| rng.random_range(0..top) as u32).collect();
                if rng.random_bool(0.5) {
                    candidates.push((space - 1) as u32);
                }
                if rng.random_bool(0.5) {
                    let dup = candidates[rng.random_range(0..candidates.len())];
                    candidates.push(dup);
                }
                let index = CandIndex::new(&candidates);
                assert!(index.starts.len() <= 4097, "width {width}");
                let max = *candidates.iter().max().unwrap();
                let mut probes: Vec<u32> = candidates.clone();
                probes.extend((0..200).map(|_| rng.random_range(0..space) as u32));
                probes.extend([0, max, max.saturating_add(1), u32::MAX]);
                if max > 0 {
                    probes.push(max - 1);
                }
                for prefix in probes {
                    assert_eq!(
                        index.get(prefix),
                        scan_lookup(&candidates, prefix),
                        "width {width}, prefix {prefix}, candidates {candidates:?}"
                    );
                }
            }
        }
        // Prefix widths up to 12 bits keep one candidate per bucket.
        let index = CandIndex::new(&(0..4096).rev().collect::<Vec<u32>>());
        assert_eq!(index.shift, 0);
        assert!(index.starts.windows(2).all(|w| w[1] - w[0] <= 1));
        assert_eq!(index.get(4095), Some(0));
        assert_eq!(index.get(4096), None);
    }

    /// The round fold as it was before the bit-sliced absorb: one `absorb`
    /// per report, candidates found by binary search.
    fn reference_vp_fold(
        stage: &PemVpRoundStage,
        rng: &mut StdRng,
        items: &[Option<u32>],
    ) -> (VpAggregator, CommStats) {
        let mut sorted: Vec<(u32, u32)> = stage
            .round
            .candidates
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as u32))
            .collect();
        sorted.sort_unstable();
        let (mut agg, mut comm) = stage.template();
        for &item in items {
            let input = item
                .and_then(|it| {
                    let prefix = stage.round.code.prefix(it, stage.round.prefix_len);
                    sorted.binary_search_by_key(&prefix, |&(p, _)| p).ok()
                })
                .map_or(ValidityInput::Invalid, |i| {
                    ValidityInput::Valid(sorted[i].1)
                });
            let report = stage.vp.privatize(input, rng).unwrap();
            comm.record(report.len());
            agg.absorb(&report).unwrap();
        }
        (agg, comm)
    }

    #[test]
    fn vp_round_fold_matches_per_report_reference() {
        let domain = 2048u32; // ℓ = 11
        let mut rng = StdRng::seed_from_u64(5);
        // (candidates, prefix length): 257-, 201-, 65-, 41- and 2-bit reports.
        for (n_cands, prefix_len) in [(256usize, 9u32), (200, 8), (64, 11), (40, 6), (1, 3)] {
            let mut pool: Vec<u32> = (0..1u32 << prefix_len).collect();
            for i in (1..pool.len()).rev() {
                pool.swap(i, rng.random_range(0..=i));
            }
            pool.truncate(n_cands);
            let stage = PemVpRoundStage::new(eps(2.0), domain, prefix_len, pool).unwrap();
            let items: Vec<Option<u32>> = (0..5000)
                .map(|_| rng.random_bool(0.9).then(|| rng.random_range(0..domain)))
                .collect();
            let seed = rng.random::<u64>();
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let mut acc = stage.template();
            stage.fold(&mut a, 0, &items, &mut acc).unwrap();
            let (agg, comm) = reference_vp_fold(&stage, &mut b, &items);
            let bits = n_cands + 1;
            assert_eq!(acc.0.raw_counts(), agg.raw_counts(), "{bits}-bit round");
            assert_eq!(acc.0.raw_flag_count(), agg.raw_flag_count(), "{bits}-bit");
            assert_eq!(acc.0.report_count(), agg.report_count(), "{bits}-bit");
            assert_eq!(acc.1, comm, "{bits}-bit");
            assert_eq!(
                a.next_u64(),
                b.next_u64(),
                "{bits}-bit: RNG streams diverged"
            );
        }
    }

    #[test]
    fn rounds_refuse_prefixes_longer_than_the_code() {
        // Domain 2048 has 11-bit codes: prefix length 40 used to decode and
        // then panic on the first valid item.
        let payload = |prefix_len: u32| {
            let mut buf = Vec::new();
            2.0f64.put(&mut buf);
            2048u32.put(&mut buf);
            prefix_len.put(&mut buf);
            vec![0u32, 1].put(&mut buf);
            buf
        };
        let bad = payload(40);
        assert!(PemVpRoundStage::decode(&mut WireReader::new(&bad)).is_err());
        assert!(PemOracleRoundStage::decode(&mut WireReader::new(&bad)).is_err());
        let good = payload(11);
        assert!(PemVpRoundStage::decode(&mut WireReader::new(&good)).is_ok());
        assert!(PemOracleRoundStage::decode(&mut WireReader::new(&good)).is_ok());
        assert!(PemVpRoundStage::new(eps(2.0), 0, 0, vec![0]).is_err());
        assert!(PemOracleRoundStage::new(eps(2.0), 0, 0, vec![0]).is_err());
    }

    #[test]
    fn engine_round_count() {
        // d = 256 (ℓ=8), k = 4 → γ0 = 4, rounds = 1 + (8−4)/1 = 5.
        let e = PemEngine::new(256, PemConfig::new(4)).unwrap();
        assert_eq!(e.remaining_rounds(), 5);
        assert_eq!(e.candidates().len(), 16);
        // Tiny domain: single direct round.
        let e = PemEngine::new(8, PemConfig::new(4)).unwrap();
        assert_eq!(e.remaining_rounds(), 1);
        assert!(e.is_final_round());
    }

    #[test]
    fn mines_true_heavy_hitters_at_high_eps() {
        let d = 256u32;
        let k = 5;
        let items = population(d, 60_000);
        let pem = Pem::new(d, PemConfig::new(k)).unwrap();
        let out = pem
            .execute(
                eps(6.0),
                &Exec::seeded(42).threads(1),
                SliceSource::new(&items),
            )
            .unwrap();
        assert!(out.top.len() <= k);
        // With ε=6 and 12k users per round, the true top-3 {0,1,2} must be found.
        for expected in 0..3u32 {
            assert!(
                out.top.contains(&expected),
                "missing item {expected} in {:?}",
                out.top
            );
        }
    }

    #[test]
    fn validity_variant_also_mines() {
        let d = 128u32;
        let k = 4;
        let mut items = population(d, 40_000);
        // A third of users are invalid.
        for (i, it) in items.iter_mut().enumerate() {
            if i % 3 == 0 {
                *it = None;
            }
        }
        let pem = Pem::new(d, PemConfig::new(k).with_validity()).unwrap();
        let out = pem
            .execute(
                eps(6.0),
                &Exec::seeded(43).threads(1),
                SliceSource::new(&items),
            )
            .unwrap();
        for expected in 0..2u32 {
            assert!(
                out.top.contains(&expected),
                "missing {expected}: {:?}",
                out.top
            );
        }
    }

    #[test]
    fn batch_rounds_are_thread_count_invariant_and_mine_tops() {
        let d = 128u32;
        let k = 4;
        let mut items = population(d, 40_000);
        for (i, it) in items.iter_mut().enumerate() {
            if i % 5 == 0 {
                *it = None;
            }
        }
        for config in [PemConfig::new(k), PemConfig::new(k).with_validity()] {
            let pem = Pem::new(d, config).unwrap();
            let seq = pem
                .execute(
                    eps(6.0),
                    &Exec::seeded(11).threads(1),
                    SliceSource::new(&items),
                )
                .unwrap();
            for threads in [2, 8] {
                let par = pem
                    .execute(
                        eps(6.0),
                        &Exec::seeded(11).threads(threads),
                        SliceSource::new(&items),
                    )
                    .unwrap();
                assert_eq!(
                    par.top, seq.top,
                    "validity={} threads={threads}",
                    config.validity
                );
                assert_eq!(par.comm, seq.comm);
            }
            // The sharded runtime still mines the heavy head.
            for expected in 0..2u32 {
                assert!(
                    seq.top.contains(&expected),
                    "validity={}: missing {expected} in {:?}",
                    config.validity,
                    seq.top
                );
            }
        }
    }

    #[test]
    fn extension_respects_domain_bound() {
        // d = 5 (ℓ=3): candidates never include codes ≥ 5.
        let mut engine = PemEngine::new(5, PemConfig::new(1)).unwrap();
        let mut round = 0u64;
        while engine.remaining_rounds() > 0 {
            let inputs: Vec<Option<u32>> = vec![Some(0); 200];
            engine
                .execute_round(
                    eps(2.0),
                    &Exec::seeded(round).threads(1),
                    SliceSource::new(&inputs),
                )
                .unwrap();
            round += 1;
        }
        for &item in engine.top_items().unwrap().iter() {
            assert!(item < 5, "item {item} outside domain");
        }
    }

    #[test]
    fn resume_from_external_candidates() {
        let engine = PemEngine::resume(256, PemConfig::new(4), vec![0b0000, 0b0001], 4).unwrap();
        assert_eq!(engine.remaining_rounds(), 5);
        assert_eq!(engine.candidates(), &[0, 1]);
        assert!(PemEngine::resume(256, PemConfig::new(4), vec![], 4).is_err());
        assert!(PemEngine::resume(256, PemConfig::new(4), vec![0], 99).is_err());
    }

    #[test]
    fn top_items_requires_finish() {
        let engine = PemEngine::new(256, PemConfig::new(4)).unwrap();
        assert!(engine.top_items().is_err());
    }

    #[test]
    fn apply_scores_validates_length() {
        let mut engine = PemEngine::new(256, PemConfig::new(4)).unwrap();
        assert!(engine.apply_scores(vec![0.0; 3]).is_err());
        let n = engine.candidates().len();
        assert!(engine.apply_scores(vec![1.0; n]).is_ok());
    }

    #[test]
    fn false_positive_prefix_failure_mode() {
        // Fig. 3's pathology: the most frequent item's prefix is light.
        // Item 0b000 has count 30, but the '0' subtree totals 61 < 63 of
        // the '1' subtree, so prefix pruning at high keep-pressure (k=1,
        // keep_factor=1) drops it. This documents the baseline's weakness
        // that shuffling fixes.
        let counts: [(u32, usize); 8] = [
            (0b000, 30),
            (0b001, 0),
            (0b010, 19),
            (0b011, 12),
            (0b100, 18),
            (0b101, 13),
            (0b110, 15),
            (0b111, 17),
        ];
        let mut items: Vec<Option<u32>> = Vec::new();
        for &(item, c) in &counts {
            items.extend(std::iter::repeat_n(Some(item), c * 200));
        }
        // Deterministic interleave so each round group sees the same mix.
        items.sort_by_key(|x| (x.unwrap() as usize * 2654435761) % 997);
        let config = PemConfig {
            k: 1,
            extend_bits: 1,
            keep_factor: 1,
            validity: false,
        };
        let pem = Pem::new(8, config).unwrap();
        let out = pem
            .execute(
                eps(8.0),
                &Exec::seeded(44).threads(1),
                SliceSource::new(&items),
            )
            .unwrap();
        assert_ne!(
            out.top,
            vec![0b000],
            "prefix expansion should miss the true top-1 here (Fig. 3)"
        );
    }
}
