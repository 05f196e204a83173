//! Cross-commit pins for the multi-class top-k layer.
//!
//! `every_method_matches_its_golden_digest` hashes `per_class`, `comm` and
//! `broadcast_bits_per_user` of every [`TopKMethod`] variant over a seed ×
//! ε × thread matrix, plus the shuffled variants on cohorts that span
//! several shards, and compares the result with a committed digest. A
//! refactor of the runtime must leave the digest alone; a deliberate RNG
//! contract bump re-pins it (the failure message prints the new value).
//!
//! `every_fold_carries_a_spec` runs each method on an executor that
//! records every fold: each must carry a wire spec (so a distributed
//! executor can ship it), and the shuffled methods must fold at all.
//!
//! `every_user_reports_exactly_once` checks each method's uplink
//! accounting: HEC and PTJ users send one report, PTS users a GRR label
//! and one item report, so `comm.users` is `n` or `2n` exactly.

use std::cell::RefCell;

use mcim_core::{Domains, LabelItem};
use mcim_datasets::{jd_like, RealConfig};
use mcim_oracles::exec::{Exec, Executor, InProcess, Stage};
use mcim_oracles::stream::{ReportSource, SliceSource};
use mcim_oracles::{Eps, Result};
use mcim_topk::{execute, execute_on, TopKConfig, TopKMethod, TopKResult};

/// All 17 method variants: every flag combination of every family.
fn all_methods() -> Vec<TopKMethod> {
    let mut methods = vec![TopKMethod::Hec];
    for validity in [false, true] {
        methods.push(TopKMethod::PtjPem { validity });
        methods.push(TopKMethod::PtjShuffled { validity });
        for global in [false, true] {
            methods.push(TopKMethod::PtsPem { validity, global });
            for correlated in [false, true] {
                methods.push(TopKMethod::PtsShuffled {
                    validity,
                    global,
                    correlated,
                });
            }
        }
    }
    methods
}

fn is_shuffled(method: TopKMethod) -> bool {
    matches!(
        method,
        TopKMethod::PtjShuffled { .. } | TopKMethod::PtsShuffled { .. }
    )
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn result(&mut self, r: &TopKResult) {
        self.word(r.per_class.len() as u64);
        for items in &r.per_class {
            self.word(items.len() as u64);
            for &item in items {
                self.word(u64::from(item));
            }
        }
        self.word(r.comm.users);
        self.word(r.comm.total_report_bits);
        self.word(r.broadcast_bits_per_user.to_bits());
    }
}

/// Three equal classes with disjoint heavy heads over 64 items.
fn balanced_data(n: usize) -> (Domains, Vec<LabelItem>) {
    let domains = Domains::new(3, 64).unwrap();
    let data = (0..n)
        .map(|u| {
            let label = (u % 3) as u32;
            let rank = match (u / 3) % 16 {
                0..=7 => 0,
                8..=11 => 1,
                12..=13 => 2,
                r => r as u32 + (u as u32 / 48) % 20,
            };
            LabelItem::new(label, (label * 21 + rank) % 64)
        })
        .collect();
    (domains, data)
}

const GOLDEN_MATRIX: u64 = 0xaea7_ebfa_a93f_7129;
const GOLDEN_MULTI_SHARD: u64 = 0x4992_f98f_3aa3_6e44;

#[test]
fn every_method_matches_its_golden_digest() {
    let ds = jd_like(RealConfig {
        users: 13_500,
        items: 256,
        seed: 7,
    });
    let mut digest = Digest::new();
    for method in all_methods() {
        for seed in 1..=4u64 {
            for eps in [1.0, 3.0] {
                let config = TopKConfig::new(4, Eps::new(eps).unwrap());
                for threads in [1, 2] {
                    let plan = Exec::seeded(seed).threads(threads);
                    let r = execute(
                        method,
                        config,
                        ds.domains,
                        &plan,
                        SliceSource::new(&ds.pairs),
                    )
                    .unwrap();
                    digest.result(&r);
                }
            }
        }
    }
    assert_eq!(
        digest.0, GOLDEN_MATRIX,
        "method matrix digest moved: {:#018x}",
        digest.0
    );

    // Final cohorts of at least three 4096-item shards, split across
    // chunks that end one short of a shard and across worker threads.
    let (domains, data) = balanced_data(150_000);
    let config = TopKConfig::new(3, Eps::new(4.0).unwrap());
    let mut digest = Digest::new();
    for method in all_methods().into_iter().filter(|&m| is_shuffled(m)) {
        let mut first: Option<TopKResult> = None;
        for (threads, chunk) in [(1, 4095), (3, 4095), (1, data.len()), (3, data.len())] {
            let plan = Exec::seeded(5).threads(threads).chunk_size(chunk);
            let r = execute(method, config, domains, &plan, SliceSource::new(&data)).unwrap();
            match &first {
                None => {
                    digest.result(&r);
                    first = Some(r);
                }
                Some(f) => {
                    let cell = format!("{} threads={threads} chunk={chunk}", method.name());
                    assert_eq!(r.per_class, f.per_class, "{cell}");
                    assert_eq!(r.comm, f.comm, "{cell}");
                }
            }
        }
    }
    assert_eq!(
        digest.0, GOLDEN_MULTI_SHARD,
        "multi-shard digest moved: {:#018x}",
        digest.0
    );
}

/// Forwards to the in-process executor and records each fold's stage
/// kind (`None` for a stage without a wire spec).
struct Recording {
    inner: InProcess,
    kinds: RefCell<Vec<Option<&'static str>>>,
}

impl Executor for Recording {
    fn plan(&self) -> &Exec {
        self.inner.plan()
    }

    fn fold<S, St>(&self, source: &mut S, stage_seed: u64, stage: &St) -> Result<St::Acc>
    where
        S: ReportSource<Item = St::Item>,
        St: Stage,
    {
        self.kinds
            .borrow_mut()
            .push(stage.spec().map(|spec| spec.kind));
        self.inner.fold(source, stage_seed, stage)
    }
}

#[test]
fn every_fold_carries_a_spec() {
    let (domains, data) = balanced_data(30_000);
    let config = TopKConfig::new(3, Eps::new(4.0).unwrap());
    for method in all_methods() {
        let executor = Recording {
            inner: Exec::seeded(3).threads(1).in_process(),
            kinds: RefCell::new(Vec::new()),
        };
        let recorded =
            execute_on(method, config, domains, &executor, SliceSource::new(&data)).unwrap();
        let local = execute(
            method,
            config,
            domains,
            &Exec::seeded(3).threads(1),
            SliceSource::new(&data),
        )
        .unwrap();
        assert_eq!(recorded.per_class, local.per_class, "{}", method.name());
        let kinds = executor.kinds.into_inner();
        assert!(
            kinds.iter().all(Option::is_some),
            "{}: a fold without a wire spec cannot be distributed: {kinds:?}",
            method.name()
        );
        if is_shuffled(method) {
            assert!(!kinds.is_empty(), "{} issued no folds", method.name());
        }
    }
}

/// Reports per user: one item report for HEC and PTJ, plus the GRR label
/// for the label-routed PTS family.
fn reports_per_user(method: TopKMethod) -> u64 {
    match method {
        TopKMethod::Hec | TopKMethod::PtjPem { .. } | TopKMethod::PtjShuffled { .. } => 1,
        TopKMethod::PtsPem { .. } | TopKMethod::PtsShuffled { .. } => 2,
    }
}

/// At d = 64 the "+Global" PEM phase gets no round of its own, at d = 256
/// it does; user counts from a handful to several shards.
#[test]
fn every_user_reports_exactly_once() {
    let config = TopKConfig::new(3, Eps::new(4.0).unwrap());
    let mut wrong = Vec::new();
    for items in [64u32, 256] {
        let domains = Domains::new(5, items).unwrap();
        for n in [7usize, 101, 4097, 30_001] {
            let data: Vec<LabelItem> = (0..n as u32)
                .map(|u| LabelItem::new(u % 5, u.wrapping_mul(2_654_435_761) % items))
                .collect();
            for method in all_methods() {
                let plan = Exec::seeded(11).threads(1);
                let r = execute(method, config, domains, &plan, SliceSource::new(&data)).unwrap();
                let want = reports_per_user(method) * n as u64;
                if r.comm.users != want {
                    wrong.push(format!(
                        "{} d={items} n={n}: {} reports, want {want}",
                        method.name(),
                        r.comm.users
                    ));
                }
            }
        }
    }
    assert!(wrong.is_empty(), "{wrong:#?}");
}
