//! Execution plans: one configurable front-end for every pipeline.
//!
//! The workspace used to expose each pipeline three times —
//! `run`/`run_batch`/`run_stream`, `mine`/`mine_batch`/`mine_stream` —
//! with seeds, thread counts and chunk sizes threaded ad hoc through every
//! signature. This module collapses that surface into three pieces:
//!
//! * [`Exec`] — a declarative **execution plan**: the RNG seed, the worker
//!   budget and the ingestion chunk size. Every pipeline takes one generic
//!   `execute`-style entry point that accepts an `Exec` plus a
//!   [`ReportSource`], instead of a method per mode.
//! * [`Stage`] — one bulk privatize+aggregate step expressed as an object
//!   instead of ad-hoc closures: a fold function over shard fragments, a
//!   merge of disjoint-range partials, and (for stages that can cross a
//!   process boundary) a serializable [`StageSpec`] plus wire codecs for
//!   its items and accumulator.
//! * [`Executor`] — the backend that actually drives a stage over a
//!   source. The in-process implementation ([`InProcess`]) wraps the
//!   existing [`fold_stream`] / [`crate::parallel`] machinery; the
//!   `mcim-dist` crate's `Coordinator` implements the same trait by
//!   shipping the stage spec and report chunks to socket-connected worker
//!   processes and merging their serialized partials — without touching
//!   any pipeline caller.
//!
//! ## One code path
//!
//! Under the [RNG contract](RNG_CONTRACT) there is exactly one way to run
//! a stage: the chunked executor over absolute [`parallel::SHARD_SIZE`]
//! shards, each shard privatized with its deterministic
//! [`parallel::shard_rng`]`(stage_seed, shard)` stream. The plan's two
//! other knobs only choose the resource envelope — `threads(1)` pins one
//! worker, a chunk as large as the source materializes it, the default
//! holds `O(chunk + threads × accumulator)` — so seed-equal plans produce
//! bit-identical results for every thread count and chunk size (and on
//! the distributed backend, which replays the same shard streams on
//! worker processes).
//!
//! ```
//! use mcim_oracles::exec::Exec;
//!
//! // Deterministic sharded run: 4 workers, 64k-item chunks.
//! let plan = Exec::seeded(7).threads(4).chunk_size(65_536);
//! assert_eq!(plan.resolved_threads(), 4);
//! // threads never changes the output, only the wall clock.
//! ```

use std::fmt;
use std::marker::PhantomData;

use rand::rngs::StdRng;

use crate::parallel;
use crate::stream::{fold_stream, ReportSource, DEFAULT_CHUNK_ITEMS};
use crate::wire::{StageSpec, Wire, WireReader, WireState};
use crate::Result;

/// The RNG contract this build implements: the version naming exactly
/// which seeded RNG draws every privatization path makes.
///
/// For a given `(stage_seed, shard)` pair the contract pins the whole
/// draw sequence — the shard streams and the word-parallel plane sampler
/// (see the `stream` module docs for the specification). It is what the
/// workspace's bit-identity nets actually test. Bumping it is how seeded
/// outputs are allowed to change: once, versioned, across every execution
/// backend together. Every [`StageSpec`] is stamped with it, and executors
/// and dist workers refuse a spec or job stamped with any other value
/// ([`check_contract`]).
pub const RNG_CONTRACT: u32 = 4;

/// `Ok` iff `version` is this build's [`RNG_CONTRACT`]. Executors apply it
/// to a stage's [`StageSpec`] before drawing any noise: a stage folded
/// under a different contract would return plausible but wrong results.
pub fn check_contract(version: u32) -> Result<()> {
    if version == RNG_CONTRACT {
        Ok(())
    } else {
        Err(crate::Error::InvalidParameter {
            name: "rng-contract",
            constraint: "the stage spec is stamped with an RNG contract this build does not \
                         implement; run coordinator and workers from the same build (see the \
                         README section \"RNG contract\")",
        })
    }
}

/// A declarative execution plan: seed, worker budget and chunk size.
///
/// Built with a fluent builder; unset knobs resolve lazily (`threads` to
/// [`parallel::configured_threads`], `chunk_size` to one
/// [`parallel::SHARD_SIZE`] shard when the plan resolves to one thread and
/// to [`DEFAULT_CHUNK_ITEMS`] otherwise) so a plan constructed once can be
/// reused on machines with different core counts. Outputs never depend on
/// `threads` or `chunk_size` — both knobs are purely about latency and
/// memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Exec {
    seed: u64,
    threads: Option<usize>,
    chunk_items: Option<usize>,
}

impl Exec {
    /// A plan with seed 0 and lazily resolved knobs.
    pub fn new() -> Self {
        Exec::default()
    }

    /// [`Exec::new`] with a base seed — the most common construction.
    pub fn seeded(seed: u64) -> Self {
        Exec::new().seed(seed)
    }

    /// Sets the base RNG seed (default 0). Every fold derives one
    /// deterministic stream per absolute shard from it
    /// ([`parallel::shard_rng`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps the worker threads (default: the `MCIM_THREADS` environment
    /// variable, then the machine's available parallelism —
    /// [`parallel::configured_threads`]). Never changes outputs.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Sets the items pulled (and held) per ingestion chunk. Never changes
    /// outputs. The default depends on the resolved thread count: one
    /// [`parallel::SHARD_SIZE`] shard for one thread, which folds a shard
    /// per pull and holds no more input than that, and
    /// [`DEFAULT_CHUNK_ITEMS`] (16 shards) for more, so every worker gets
    /// whole shards per pull.
    pub fn chunk_size(mut self, chunk_items: usize) -> Self {
        self.chunk_items = Some(chunk_items.max(1));
        self
    }

    /// The base RNG seed.
    pub fn base_seed(&self) -> u64 {
        self.seed
    }

    /// The worker-thread cap this plan resolves to on this machine.
    pub fn resolved_threads(&self) -> usize {
        self.threads.unwrap_or_else(parallel::configured_threads)
    }

    /// The ingestion chunk size this plan resolves to (see
    /// [`Exec::chunk_size`] for the thread-dependent default).
    pub fn resolved_chunk_items(&self) -> usize {
        self.chunk_items.unwrap_or_else(|| {
            if self.resolved_threads() <= 1 {
                parallel::SHARD_SIZE
            } else {
                DEFAULT_CHUNK_ITEMS
            }
        })
    }

    /// The in-process [`Executor`] for this plan.
    pub fn in_process(&self) -> InProcess {
        InProcess { plan: *self }
    }
}

impl fmt::Display for Exec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        match self.threads {
            Some(t) => write!(f, " threads={t}")?,
            None => write!(f, " threads={}(auto)", self.resolved_threads())?,
        }
        match self.chunk_items {
            Some(c) => write!(f, " chunk={c}")?,
            None => write!(f, " chunk={}(default)", self.resolved_chunk_items())?,
        }
        write!(f, " contract=v{RNG_CONTRACT}")
    }
}

/// One bulk privatize+aggregate step of a pipeline, expressed as an object
/// a backend can drive — and, when [`Stage::spec`] is provided, ship to
/// another process.
///
/// A stage owns everything the fold needs besides the stream itself: the
/// mechanism, candidate index, calibration constants. Its associated types
/// carry the wire bounds the distributed backend needs — [`Wire`] on the
/// items so report chunks can cross a socket, [`WireState`] on the
/// accumulator so partials can come back. In-process execution ignores
/// both bounds; they are satisfied by trivial codecs for every stage in
/// the workspace.
///
/// The template returned by [`Stage::template`] must be a **merge
/// identity** (fresh counters, zero tallies): the executors start every
/// worker-local accumulator from it, so any non-identity state would be
/// counted once per worker.
pub trait Stage: Sync {
    /// The stream item this stage consumes.
    type Item: Sync + Wire;
    /// The mergeable accumulator this stage folds into.
    type Acc: Clone + Send + WireState;

    /// A fresh (merge-identity) accumulator.
    fn template(&self) -> Self::Acc;

    /// Processes one shard fragment: a run of consecutive items within a
    /// single absolute shard, starting at stream position `abs`, with the
    /// shard's deterministic RNG positioned exactly where a sequential
    /// shard scan would have it.
    fn fold(
        &self,
        rng: &mut StdRng,
        abs: u64,
        items: &[Self::Item],
        acc: &mut Self::Acc,
    ) -> Result<()>;

    /// Combines two accumulators covering disjoint item ranges. Must be
    /// associative and commutative (counter sums are).
    fn merge(&self, into: &mut Self::Acc, from: &Self::Acc) -> Result<()>;

    /// The serialized descriptor a worker process can rebuild this stage
    /// from, or `None` if the stage only runs in-process (a distributed
    /// backend then falls back to local execution — the shard contract
    /// makes that bit-identical, just not remote).
    fn spec(&self) -> Option<StageSpec> {
        None
    }
}

/// Worker-side reconstruction of a [`Stage`] from its [`StageSpec`].
///
/// Implementations must uphold `Self::decode(spec.payload)` ≡ the stage
/// that produced `spec` — same fold, same merge, same template — so a
/// worker process replays exactly the computation the coordinator would
/// have run locally. The `mcim-dist` crate's registry maps
/// [`StageDecode::KIND`] to a monomorphized job runner per stage type.
pub trait StageDecode: Stage + Sized {
    /// Registry key; must equal the `kind` of every spec this stage emits.
    const KIND: &'static str;

    /// Rebuilds the stage from a spec payload.
    fn decode(payload: &mut WireReader<'_>) -> Result<Self>;
}

/// A [`Stage`] from plain closures — for callers that drive an executor
/// directly (tests, ad-hoc folds) without defining a named stage type.
/// Never distributable ([`Stage::spec`] is `None`).
pub struct FnStage<I, A, F, M> {
    template: A,
    fold: F,
    merge: M,
    _items: PhantomData<fn(&I)>,
}

impl<I, A, F, M> FnStage<I, A, F, M>
where
    I: Sync + Wire,
    A: Clone + Send + Sync + WireState,
    F: Fn(&mut StdRng, u64, &[I], &mut A) -> Result<()> + Sync,
    M: Fn(&mut A, &A) -> Result<()> + Sync,
{
    /// Wraps a template accumulator, a fold closure and a merge closure.
    pub fn new(template: A, fold: F, merge: M) -> Self {
        FnStage {
            template,
            fold,
            merge,
            _items: PhantomData,
        }
    }
}

impl<I, A, F, M> Stage for FnStage<I, A, F, M>
where
    I: Sync + Wire,
    A: Clone + Send + Sync + WireState,
    F: Fn(&mut StdRng, u64, &[I], &mut A) -> Result<()> + Sync,
    M: Fn(&mut A, &A) -> Result<()> + Sync,
{
    type Item = I;
    type Acc = A;

    fn template(&self) -> A {
        self.template.clone()
    }

    fn fold(&self, rng: &mut StdRng, abs: u64, items: &[I], acc: &mut A) -> Result<()> {
        (self.fold)(rng, abs, items, acc)
    }

    fn merge(&self, into: &mut A, from: &A) -> Result<()> {
        (self.merge)(into, from)
    }
}

/// The backend that drives a pipeline's bulk privatize+aggregate stages.
///
/// A stage run is a *fold*: pull items, process each absolute
/// [`parallel::SHARD_SIZE`] shard with its deterministic RNG stream
/// [`parallel::shard_rng`]`(stage_seed, shard)`, and merge the mergeable
/// accumulators. The contract an implementation must uphold so that every
/// backend produces **bit-identical** results:
///
/// * shard boundaries are absolute (item `i` belongs to shard
///   `i / SHARD_SIZE`), never dependent on workers, chunks or nodes;
/// * shard `s` is processed with `shard_rng(stage_seed, s)`, fragments of a
///   split shard continuing the carried RNG state in order;
/// * `merge` is only used to combine accumulators that cover disjoint item
///   ranges (it must be associative and commutative — counter sums are).
///
/// The in-process implementation is [`InProcess`]; the multi-process
/// implementation is the `mcim-dist` crate's `Coordinator`, which streams
/// report chunks to socket-connected worker processes that replay the same
/// per-shard RNG streams over their shard ranges and ship their partials
/// back. Both satisfy the contract by construction, which is what makes
/// this trait the multi-node seam: pipelines written against `Executor`
/// (e.g. `Framework::execute_on`) never change when the backend does.
pub trait Executor {
    /// The plan this executor resolves its knobs from.
    fn plan(&self) -> &Exec;

    /// Folds `source` through `stage` under the shard contract above,
    /// starting from the stage's template. `stage_seed` is the
    /// base seed of this stage's per-shard RNG streams — explicit (rather
    /// than always the plan seed) because multi-stage pipelines derive one
    /// seed per stage.
    fn fold<S, St>(&self, source: &mut S, stage_seed: u64, stage: &St) -> Result<St::Acc>
    where
        S: ReportSource<Item = St::Item>,
        St: Stage;

    /// Failure accounting for the most recent [`fold`](Executor::fold),
    /// when this backend tracks any — `None` for backends that cannot
    /// lose workers (the in-process executor). Recovery never changes a
    /// fold's *result* (the shard contract makes replays bit-identical),
    /// so this report is the only observable difference between a clean
    /// run and one that survived failures.
    fn last_fold_report(&self) -> Option<FoldReport> {
        None
    }
}

/// Per-fold failure accounting from a distributed [`Executor`] backend:
/// how many workers the fold started with, how many partials were merged,
/// what was lost, and where the orphaned shards were replayed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FoldReport {
    /// Worker connections at fold start.
    pub workers: usize,
    /// Workers whose primary partial was merged.
    pub workers_used: usize,
    /// Connections lost to transport failures during the fold.
    pub workers_lost: usize,
    /// Clean worker `Err` replies (stage failures, unknown stage kinds,
    /// undecodable partials) — the connection survived, the job did not.
    pub worker_errors: usize,
    /// Replay jobs re-routed to surviving workers.
    pub reroutes: u32,
    /// Shards replayed on surviving workers.
    pub rerouted_shards: u64,
    /// Shards replayed in-process as the last resort.
    pub local_shards: u64,
    /// Whether any part of the fold ran in-process (replayed shards, or
    /// the entire fold once every worker was gone).
    pub local_fallback: bool,
    /// Connect-time retries the backend needed (session-wide, not
    /// per-fold: connections are established once and reused).
    pub connect_retries: u32,
}

impl FoldReport {
    /// Whether the fold needed any recovery at all.
    pub fn degraded(&self) -> bool {
        self.workers_lost > 0 || self.worker_errors > 0 || self.local_fallback
    }
}

/// The in-process [`Executor`]: scoped worker threads over this process's
/// cores, backed by [`fold_stream`] (which in turn reuses the
/// [`parallel`] shard runtime for full shards).
#[derive(Debug, Clone, Copy)]
pub struct InProcess {
    plan: Exec,
}

impl InProcess {
    /// An in-process executor for `plan` (equivalent to
    /// [`Exec::in_process`]).
    pub fn new(plan: &Exec) -> Self {
        InProcess { plan: *plan }
    }
}

impl Executor for InProcess {
    fn plan(&self) -> &Exec {
        &self.plan
    }

    fn fold<S, St>(&self, source: &mut S, stage_seed: u64, stage: &St) -> Result<St::Acc>
    where
        S: ReportSource<Item = St::Item>,
        St: Stage,
    {
        let spec = stage.spec();
        if let Some(spec) = &spec {
            check_contract(spec.contract)?;
        }
        // Per-stage wall time, labeled by the stage's registry kind
        // (ad-hoc `FnStage` folds have no spec and share one label).
        let span = mcim_obs::span_with(|| {
            let kind = spec.as_ref().map_or("adhoc", |spec| spec.kind);
            mcim_obs::labeled("mcim_stage_duration_seconds", &[("stage", kind)])
        });
        let acc = fold_stream(
            source,
            &self.plan,
            stage_seed,
            || stage.template(),
            |rng, abs, items, acc| stage.fold(rng, abs, items, acc),
            |a, b| stage.merge(a, b),
        )?;
        span.finish();
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::SliceSource;
    use rand::RngCore;

    #[test]
    fn builder_and_resolution() {
        let plan = Exec::seeded(9).threads(3).chunk_size(100);
        assert_eq!(plan.base_seed(), 9);
        assert_eq!(plan.resolved_threads(), 3);
        assert_eq!(plan.resolved_chunk_items(), 100);

        // Zero clamps.
        let clamped = Exec::new().threads(0).chunk_size(0);
        assert_eq!(clamped.resolved_threads(), 1);
        assert_eq!(clamped.resolved_chunk_items(), 1);

        assert_eq!(Exec::default(), Exec::new());
    }

    /// Unset knobs resolve lazily: `threads` honors the `MCIM_THREADS`
    /// environment (the CI matrix sets it) falling back to the machine's
    /// parallelism, `chunk_size` falls back to one shard for one thread
    /// and to the 16-shard default chunk for more — and the explicit
    /// setters always win over both.
    #[test]
    fn lazy_knob_resolution_matches_environment() {
        let unset = Exec::new();
        assert_eq!(
            unset.resolved_threads(),
            parallel::configured_threads(),
            "unset threads resolve to MCIM_THREADS / available parallelism"
        );
        let default_chunk = if unset.resolved_threads() == 1 {
            parallel::SHARD_SIZE
        } else {
            DEFAULT_CHUNK_ITEMS
        };
        assert_eq!(unset.resolved_chunk_items(), default_chunk);
        assert_eq!(
            Exec::new().threads(1).resolved_chunk_items(),
            parallel::SHARD_SIZE
        );
        assert_eq!(
            Exec::new().threads(2).resolved_chunk_items(),
            DEFAULT_CHUNK_ITEMS
        );
        if let Ok(v) = std::env::var("MCIM_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                assert_eq!(unset.resolved_threads(), n.max(1));
            }
        }
        // Explicit settings shadow the environment.
        assert_eq!(Exec::new().threads(3).resolved_threads(), 3);
        assert_eq!(Exec::new().chunk_size(99).resolved_chunk_items(), 99);
    }

    #[test]
    fn display_names_the_resolved_plan() {
        let shown = Exec::seeded(5).threads(2).chunk_size(64).to_string();
        assert_eq!(shown, "seed=5 threads=2 chunk=64 contract=v4");
    }

    /// Unset knobs display their lazily resolved values tagged as such, so
    /// `--verbose` output always names the effective configuration.
    #[test]
    fn display_marks_lazily_resolved_knobs() {
        let auto = Exec::seeded(1).to_string();
        assert!(
            auto.contains(&format!("threads={}(auto)", parallel::configured_threads())),
            "{auto}"
        );
        let chunk = Exec::seeded(1).resolved_chunk_items();
        assert!(auto.contains(&format!("chunk={chunk}(default)")), "{auto}");
        let one = Exec::seeded(1).threads(1).to_string();
        assert!(
            one.contains(&format!("chunk={}(default)", parallel::SHARD_SIZE)),
            "{one}"
        );
        assert!(auto.contains("contract=v4"), "{auto}");
        let explicit = Exec::new().threads(7).to_string();
        assert!(explicit.contains("threads=7"), "{explicit}");
        assert!(!explicit.contains("threads=7(auto)"), "{explicit}");
    }

    /// A stage whose spec carries another contract is refused before any
    /// noise is drawn; the current contract folds.
    #[test]
    fn specs_from_another_contract_are_refused() {
        struct Stamped(u32);
        impl Stage for Stamped {
            type Item = u32;
            type Acc = u64;
            fn template(&self) -> u64 {
                0
            }
            fn fold(&self, _: &mut StdRng, _: u64, items: &[u32], acc: &mut u64) -> Result<()> {
                *acc += items.len() as u64;
                Ok(())
            }
            fn merge(&self, into: &mut u64, from: &u64) -> Result<()> {
                *into += from;
                Ok(())
            }
            fn spec(&self) -> Option<StageSpec> {
                Some(StageSpec {
                    contract: self.0,
                    ..StageSpec::new("test/stamped", |_| {})
                })
            }
        }

        assert_eq!(RNG_CONTRACT, 4);
        let exec = Exec::seeded(3).in_process();
        let items = [1u32, 2, 3];
        for stale in [1, 2, 3, RNG_CONTRACT + 1] {
            let err = exec
                .fold(&mut SliceSource::new(&items), 7, &Stamped(stale))
                .unwrap_err();
            let crate::Error::InvalidParameter { name, constraint } = &err else {
                panic!("expected InvalidParameter, got {err:?}");
            };
            assert_eq!(*name, "rng-contract");
            assert!(constraint.contains("RNG contract"), "{constraint}");
        }
        let folded = exec.fold(&mut SliceSource::new(&items), 7, &Stamped(RNG_CONTRACT));
        assert_eq!(folded.unwrap(), 3);
    }

    #[allow(clippy::type_complexity)]
    fn sum_mix_stage() -> FnStage<
        u32,
        (u64, u64),
        impl Fn(&mut StdRng, u64, &[u32], &mut (u64, u64)) -> Result<()> + Sync,
        impl Fn(&mut (u64, u64), &(u64, u64)) -> Result<()> + Sync,
    > {
        FnStage::new(
            (0u64, 0u64),
            |rng, _abs, chunk: &[u32], acc: &mut (u64, u64)| {
                for &v in chunk {
                    acc.0 += v as u64;
                    acc.1 = acc.1.wrapping_add(rng.next_u64() ^ v as u64);
                }
                Ok(())
            },
            |a, b| {
                a.0 += b.0;
                a.1 = a.1.wrapping_add(b.1);
                Ok(())
            },
        )
    }

    /// The shard contract: plans fold bit-identically for every thread
    /// count and chunk size — below a shard, above one, and the whole
    /// source in one chunk.
    #[test]
    fn in_process_fold_is_mode_and_chunk_invariant() {
        let items: Vec<u32> = (0..3 * parallel::SHARD_SIZE as u32 + 500).collect();
        let stage = sum_mix_stage();
        let fold = |plan: Exec| {
            plan.in_process()
                .fold(&mut SliceSource::new(&items), 77, &stage)
                .unwrap()
        };
        let reference = fold(Exec::new().threads(1).chunk_size(items.len()));
        for plan in [
            Exec::new().threads(4).chunk_size(items.len()),
            Exec::new().threads(1),
            Exec::new().threads(1).chunk_size(parallel::SHARD_SIZE + 1),
            Exec::new().threads(4).chunk_size(parallel::SHARD_SIZE - 1),
            Exec::new().threads(2).chunk_size(999),
            // An unvalidated chunk size must not be reserved up front.
            Exec::new().threads(2).chunk_size(usize::MAX),
        ] {
            assert_eq!(fold(plan), reference, "{plan}");
        }
    }

    #[test]
    fn fn_stages_are_not_distributable() {
        let stage = sum_mix_stage();
        assert!(stage.spec().is_none(), "closure stages carry no spec");
        assert_eq!(stage.template(), (0, 0));
    }

    #[test]
    fn in_process_reports_no_fold_accounting() {
        assert_eq!(Exec::new().in_process().last_fold_report(), None);
    }

    #[test]
    fn fold_report_accumulates_and_displays() {
        let clean = FoldReport {
            workers: 4,
            workers_used: 4,
            ..FoldReport::default()
        };
        assert!(!clean.degraded());
        let recovered = FoldReport {
            workers: 4,
            workers_used: 3,
            workers_lost: 1,
            reroutes: 1,
            rerouted_shards: 5,
            ..FoldReport::default()
        };
        assert!(recovered.degraded());
        let fallback = FoldReport {
            local_fallback: true,
            ..FoldReport::default()
        };
        assert!(fallback.degraded());
    }
}
