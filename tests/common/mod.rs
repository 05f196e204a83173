//! The identity table: every pipeline's output is a pure function of its
//! seed, whatever the thread count, chunk size, source kind or metrics
//! recording.
//!
//! **Rows** are pipelines; each reduces its outcome to a `Vec<u64>`
//! digest (every `f64` by its bits). **Columns** come in the groups of
//! [`Cols`]: threads {1, 2, 4, `configured_threads()`} over the whole
//! source and over chunks {1, shard−1, shard, shard+1}, the default plan,
//! unsized sources where the entry point drains one, metrics recording
//! on, a rerun of the reference and a second seed. [`check_row`] checks
//! a row in the groups it is given against that row's one-thread,
//! default-chunk reference.
//!
//! The test targets `determinism`, `exec_equivalence`, `obs_equivalence`,
//! `streaming` and `identity` each check their slice of the table; the
//! slices are disjoint and together cover every row in every group. The
//! CI thread matrix runs them all under `MCIM_THREADS=1` and `=4`; the
//! distributed matrix (`crates/cli/tests/dist_equivalence.rs`) extends the
//! identity across worker processes. Recording is process-wide, so every
//! test holds an [`ObsGuard`].

// Each target uses its own slice of the table.
#![allow(dead_code)]

use std::sync::{Mutex, MutexGuard};

use multiclass_ldp::core::{CommStats, EstimationResult};
use multiclass_ldp::obs;
use multiclass_ldp::prelude::*;
use multiclass_ldp::topk::{Pem, PemConfig, PemEngine};

pub const SHARD: usize = parallel::SHARD_SIZE;
/// Users per row: three whole shards, so two workers each take a
/// different number of shards, plus a tail that a chunk boundary splits.
pub const N: usize = 3 * SHARD + 537;
pub const SEED: u64 = 0x1D_2026;

static OBS_STATE: Mutex<()> = Mutex::new(());
pub static MANUAL: obs::ManualClock = obs::ManualClock::new();
pub static MONOTONIC: obs::MonotonicClock = obs::MonotonicClock::new();

/// Serializes the process-wide metrics state. On drop, also when an
/// assertion unwinds, it turns recording off, clears the registry and
/// restores the real clock, so no test leaks state into the next.
pub struct ObsGuard {
    _lock: MutexGuard<'static, ()>,
}

impl ObsGuard {
    pub fn take() -> Self {
        ObsGuard {
            _lock: OBS_STATE.lock().unwrap_or_else(|p| p.into_inner()),
        }
    }
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        obs::set_enabled(false);
        obs::reset();
        obs::set_clock(&MONOTONIC);
    }
}

/// The one data helper: `n` users spread over every class and item.
pub fn pairs(domains: Domains, n: usize) -> Vec<LabelItem> {
    (0..n)
        .map(|u| {
            LabelItem::new(
                (u % domains.classes() as usize) as u32,
                ((u * 7919) % domains.items() as usize) as u32,
            )
        })
        .collect()
}

/// PEM inputs: the items of [`pairs`], with class 0 standing for the
/// invalid users.
pub fn pem_items(n: usize) -> Vec<Option<u32>> {
    pairs(Domains::new(5, 40).unwrap(), n)
        .iter()
        .map(|p| (p.label != 0).then_some(p.item))
        .collect()
}

/// Every thread count at each of `chunks`.
fn thread_plans(chunks: &[usize]) -> Vec<Exec> {
    let mut threads = vec![1, 2, 4, parallel::configured_threads()];
    threads.sort_unstable();
    threads.dedup();
    threads
        .into_iter()
        .flat_map(|t| {
            chunks
                .iter()
                .map(move |&c| Exec::seeded(SEED).threads(t).chunk_size(c))
        })
        .collect()
}

/// The one plan list over an `n`-item source: every thread count against
/// every chunk size that splits, fills or overruns a shard, plus the
/// default plan.
pub fn plans(n: usize) -> Vec<Exec> {
    let mut plans = vec![Exec::seeded(SEED)];
    plans.extend(thread_plans(&[1, SHARD - 1, SHARD, SHARD + 1, n]));
    plans
}

/// The one-thread, default-chunk plan every row's reference runs under.
pub fn reference_plan(seed: u64) -> Exec {
    Exec::seeded(seed).threads(1)
}

/// A group of columns of the table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cols {
    /// The default plan and every thread count over the whole source.
    Threads,
    /// Every thread count at chunk 1, shard−1, shard and shard+1.
    Chunks,
    /// Every plan, reading a source that hides its length.
    Unsized,
    /// Every plan with metrics recording on.
    Recording,
    /// The reference plan again.
    Rerun,
    /// The reference plan under a second seed, which must change the
    /// digest.
    Reseed,
}

/// One column: a plan, whether the source is sized, whether recording is on.
struct Col(Exec, bool, bool);

impl Cols {
    fn columns(self, n: usize) -> Vec<Col> {
        let (plans, sized, on) = match self {
            Cols::Threads => (
                [vec![Exec::seeded(SEED)], thread_plans(&[n])].concat(),
                true,
                false,
            ),
            Cols::Chunks => (thread_plans(&[1, SHARD - 1, SHARD, SHARD + 1]), true, false),
            Cols::Unsized => (plans(n), false, false),
            Cols::Recording => (plans(n), true, true),
            Cols::Rerun => (vec![reference_plan(SEED)], true, false),
            Cols::Reseed => (Vec::new(), true, false),
        };
        plans.into_iter().map(|p| Col(p, sized, on)).collect()
    }
}

/// A slice source that hides its length when `sized` is false, like a
/// socket or a pipe would.
pub struct Source<'a, T> {
    inner: SliceSource<'a, T>,
    sized: bool,
}

pub fn source<T>(items: &[T], sized: bool) -> Source<'_, T> {
    Source {
        inner: SliceSource::new(items),
        sized,
    }
}

impl<T: Clone> ReportSource for Source<'_, T> {
    type Item = T;
    fn fill(&mut self, buf: &mut Vec<T>, max: usize) -> Result<usize> {
        self.inner.fill(buf, max)
    }
    fn size_hint(&self) -> Option<u64> {
        self.inner.size_hint().filter(|_| self.sized)
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn comm(c: CommStats) -> Vec<u64> {
    vec![c.total_report_bits, c.users]
}

pub fn freq_digest(r: &EstimationResult) -> Vec<u64> {
    [bits(r.table.values()), comm(r.comm)].concat()
}

/// Runs `f` with recording `on` under `clock`; returns its digest and
/// the snapshot it left.
pub fn recorded(
    on: bool,
    clock: &'static dyn obs::Clock,
    f: impl FnOnce() -> Vec<u64>,
) -> (Vec<u64>, obs::Snapshot) {
    obs::set_clock(clock);
    obs::reset();
    obs::set_enabled(on);
    let digest = f();
    obs::set_enabled(false);
    (digest, obs::snapshot())
}

/// Runs `row` in every column of `groups` over an `n`-item source and
/// checks it against `reference`. With recording off a run must leave no
/// snapshot; with it on, under a manual clock at rest, it must see a fold
/// and time nothing. `row` gets the plan and whether its source is sized.
/// Returns `mcim_pem_rounds_total`, which must be equal in every
/// recording column.
pub fn check_row(
    what: &str,
    reference: &[u64],
    n: usize,
    groups: &[Cols],
    row: impl Fn(&Exec, bool) -> Vec<u64>,
) -> Option<u64> {
    let mut rounds = None;
    for &group in groups {
        if group == Cols::Reseed {
            let reseeded = row(&reference_plan(SEED + 1), true);
            assert_ne!(
                reseeded, reference,
                "{what}: a second seed left the digest unchanged"
            );
        }
        for Col(plan, sized, on) in group.columns(n) {
            let what = format!("{what} {group:?} [{plan}] sized={sized} recording={on}");
            let (digest, snap) = recorded(on, &MANUAL, || row(&plan, sized));
            assert!(digest == reference, "{what}: diverged from the reference");
            if !on {
                assert!(snap.is_empty(), "{what}: recording off left a snapshot");
                continue;
            }
            assert!(
                snap.counters.contains_key("mcim_folds_total"),
                "{what}: recording on saw no fold"
            );
            for (key, h) in &snap.histograms {
                assert!(h.count > 0, "{what}: {key} observed nothing");
                assert_eq!(h.sum, 0, "{what}: {key} timed a clock at rest");
            }
            let r = snap.counters.get("mcim_pem_rounds_total").copied();
            assert_eq!(*rounds.get_or_insert(r), r, "{what}: PEM round count");
        }
    }
    rounds.flatten()
}

/// The `Framework::fig6_set()` rows.
pub fn frameworks(groups: &[Cols]) {
    let domains = Domains::new(3, 32).unwrap();
    let data = pairs(domains, N);
    let eps = Eps::new(2.0).unwrap();
    for fw in Framework::fig6_set() {
        let row = |plan: &Exec, sized: bool| {
            freq_digest(
                &fw.execute(eps, domains, plan, source(&data, sized))
                    .unwrap(),
            )
        };
        let reference = row(&reference_plan(SEED), true);
        check_row(fw.name(), &reference, data.len(), groups, row);
    }
}

/// Asserts the PEM rounds a row recorded when `groups` record any.
fn assert_rounds(what: &str, groups: &[Cols], rounds: Option<u64>) {
    if groups.contains(&Cols::Recording) {
        assert!(rounds > Some(0), "{what}: recorded no PEM round");
    }
}

/// The `PemEngine::execute_round` rows, validity off and on.
pub fn pem_engine(groups: &[Cols]) {
    let items = pem_items(N);
    for config in [PemConfig::new(4), PemConfig::new(4).with_validity()] {
        let what = format!("PemEngine::execute_round validity={}", config.validity);
        let row = |plan: &Exec, _| -> Vec<u64> {
            let mut engine = PemEngine::new(128, config).unwrap();
            let c = engine
                .execute_round(Eps::new(4.0).unwrap(), plan, SliceSource::new(&items))
                .unwrap();
            let prefix = [engine.prefix_len(), engine.candidates().len() as u32];
            let ids = prefix.iter().chain(engine.candidates()).map(|&x| x as u64);
            comm(c).into_iter().chain(ids).collect()
        };
        let reference = row(&reference_plan(SEED), true);
        let rounds = check_row(&what, &reference, items.len(), groups, row);
        assert_rounds(&what, groups, rounds);
    }
}

/// The `Pem::execute` rows, validity off and on.
pub fn pem_execute(groups: &[Cols]) {
    let items = pem_items(N);
    for config in [PemConfig::new(4), PemConfig::new(4).with_validity()] {
        let what = format!("Pem::execute validity={}", config.validity);
        let pem = Pem::new(128, config).unwrap();
        let row = |plan: &Exec, sized: bool| -> Vec<u64> {
            let out = pem
                .execute(Eps::new(4.0).unwrap(), plan, source(&items, sized))
                .unwrap();
            let top = out.top.iter().map(|&x| x as u64);
            comm(out.comm).into_iter().chain(top).collect()
        };
        let reference = row(&reference_plan(SEED), true);
        let rounds = check_row(&what, &reference, items.len(), groups, row);
        assert_rounds(&what, groups, rounds);
    }
}

/// The `topk::execute` rows.
pub fn topk(groups: &[Cols]) {
    let domains = Domains::new(3, 64).unwrap();
    let data = pairs(domains, 14_000);
    let config = TopKConfig::new(3, Eps::new(6.0).unwrap());
    for method in [
        TopKMethod::Hec,
        TopKMethod::PtjShuffled { validity: true },
        TopKMethod::PtsPem {
            validity: false,
            global: true,
        },
        TopKMethod::PtsShuffled {
            validity: true,
            global: true,
            correlated: true,
        },
    ] {
        let row = |plan: &Exec, sized: bool| {
            let out = execute(method, config, domains, plan, source(&data, sized)).unwrap();
            let mut d = comm(out.comm);
            d.push(out.broadcast_bits_per_user.to_bits());
            for class in &out.per_class {
                d.push(class.len() as u64);
                d.extend(class.iter().map(|&x| x as u64));
            }
            d
        };
        let reference = row(&reference_plan(SEED), true);
        check_row(&method.name(), &reference, data.len(), groups, row);
    }
}
