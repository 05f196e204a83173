//! The `Exec` equivalence matrix under the RNG contract: every plan of
//! every `execute` entry point must be **bit-identical** to every other
//! plan with the same seed.
//!
//! An [`Exec`] plan is seed + threads + chunk size. Each test compares a
//! one-thread, default-chunk reference against [`plans`]: threads
//! {1, 4} × chunk {one short of a shard, one past a shard, the whole
//! source}, plus the unset (environment-resolved) thread count. The
//! distributed worker matrix (`crates/dist/tests`, `crates/cli/tests`)
//! extends the same identity across process boundaries.

use multiclass_ldp::prelude::*;
use multiclass_ldp::topk::{Pem, PemConfig, PemEngine};

const SHARD: usize = parallel::SHARD_SIZE;

/// The matrix every test runs against its one-thread reference: chunk
/// sizes on both sides of a shard boundary and the whole `n`-item source,
/// at one and four threads, plus the default plan.
fn plans(seed: u64, n: usize) -> Vec<Exec> {
    let mut plans = vec![Exec::seeded(seed)];
    for threads in [1, 4] {
        for chunk in [SHARD - 1, SHARD + 1, n] {
            plans.push(Exec::seeded(seed).threads(threads).chunk_size(chunk));
        }
    }
    plans
}

fn sample_pairs(domains: Domains, n: usize) -> Vec<LabelItem> {
    (0..n)
        .map(|u| {
            LabelItem::new(
                (u % domains.classes() as usize) as u32,
                ((u * 7919) % domains.items() as usize) as u32,
            )
        })
        .collect()
}

fn assert_tables_identical(a: &EstimationResultPair, b: &EstimationResultPair, what: &str) {
    let (a, b) = (&a.0, &b.0);
    assert_eq!(a.comm, b.comm, "{what}: comm diverged");
    let domains = a.table.domains();
    for label in 0..domains.classes() {
        for item in 0..domains.items() {
            assert!(
                a.table.get(label, item) == b.table.get(label, item),
                "{what}: diverged at ({label},{item})"
            );
        }
    }
}

/// Newtype so the helper signature stays readable.
struct EstimationResultPair(multiclass_ldp::core::EstimationResult);

#[test]
fn framework_execute_is_mode_invariant() {
    let domains = Domains::new(3, 32).unwrap();
    let data = sample_pairs(domains, SHARD + 700);
    let eps = Eps::new(2.0).unwrap();
    let seed = 0xE0_2024;
    for fw in Framework::fig6_set() {
        let run = |plan: &Exec| {
            EstimationResultPair(
                fw.execute(eps, domains, plan, SliceSource::new(&data))
                    .unwrap(),
            )
        };
        let reference = run(&Exec::seeded(seed).threads(1));
        for plan in plans(seed, data.len()) {
            assert_tables_identical(&reference, &run(&plan), &format!("{} [{plan}]", fw.name()));
        }
    }
}

#[test]
fn pem_engine_execute_round_is_mode_invariant() {
    let d = 128u32;
    let eps = Eps::new(3.0).unwrap();
    let seed = 0xE0_4111;
    let items: Vec<Option<u32>> = (0..SHARD + 600)
        .map(|u| {
            if u % 6 == 0 {
                None
            } else {
                Some(((u * 13) % 40) as u32)
            }
        })
        .collect();
    for validity in [false, true] {
        let config = if validity {
            PemConfig::new(4).with_validity()
        } else {
            PemConfig::new(4)
        };
        let run = |plan: &Exec| {
            let mut engine = PemEngine::new(d, config).unwrap();
            let comm = engine
                .execute_round(eps, plan, SliceSource::new(&items))
                .unwrap();
            (comm, engine)
        };
        let (reference_comm, reference) = run(&Exec::seeded(seed).threads(1));
        for plan in plans(seed, items.len()) {
            let what = format!("validity={validity} [{plan}]");
            let (comm, engine) = run(&plan);
            assert_eq!(reference_comm, comm, "{what} comm");
            assert_eq!(reference.candidates(), engine.candidates(), "{what}");
            assert_eq!(reference.prefix_len(), engine.prefix_len(), "{what}");
        }
    }
}

#[test]
fn pem_execute_is_mode_invariant() {
    let d = 128u32;
    let eps = Eps::new(4.0).unwrap();
    let seed = 0xE0_5222;
    let items: Vec<Option<u32>> = (0..SHARD + 2200)
        .map(|u| {
            if u % 5 == 0 {
                None
            } else {
                Some(((u * 31) % 40) as u32)
            }
        })
        .collect();
    for config in [PemConfig::new(4), PemConfig::new(4).with_validity()] {
        let pem = Pem::new(d, config).unwrap();
        let run = |plan: &Exec| pem.execute(eps, plan, SliceSource::new(&items)).unwrap();
        let reference = run(&Exec::seeded(seed).threads(1));
        for plan in plans(seed, items.len()) {
            let what = format!("validity={} [{plan}]", config.validity);
            let out = run(&plan);
            assert_eq!(reference.top, out.top, "{what}");
            assert_eq!(reference.comm, out.comm, "{what}");
        }
    }
}

#[test]
fn topk_execute_is_mode_invariant() {
    let domains = Domains::new(3, 64).unwrap();
    let data = sample_pairs(domains, 14_000);
    let config = TopKConfig::new(3, Eps::new(6.0).unwrap());
    let seed = 0xE0_6333;
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
        let run =
            |plan: &Exec| execute(method, config, domains, plan, SliceSource::new(&data)).unwrap();
        let reference = run(&Exec::seeded(seed).threads(1));
        for plan in plans(seed, data.len()) {
            let what = format!("{} [{plan}]", method.name());
            let out = run(&plan);
            assert_eq!(reference.per_class, out.per_class, "{what}");
            assert_eq!(reference.comm, out.comm, "{what}");
            assert!(
                (reference.broadcast_bits_per_user - out.broadcast_bits_per_user).abs() == 0.0,
                "{what}"
            );
        }
    }
}

/// A one-thread plan IS the sharded runtime pinned to one worker — every
/// plan shares one noise stream, so a one-thread run and a two-thread
/// whole-source run of the same seed must agree bit-for-bit (pre-v2, the
/// one-thread path kept a separate caller-RNG stream and this test
/// asserted the opposite).
#[test]
fn sequential_and_sharded_modes_share_one_stream() {
    let domains = Domains::new(3, 32).unwrap();
    let data = sample_pairs(domains, SHARD + 700);
    let eps = Eps::new(2.0).unwrap();
    let seq = Framework::PtsCp { label_frac: 0.5 }
        .execute(
            eps,
            domains,
            &Exec::seeded(1).threads(1),
            SliceSource::new(&data),
        )
        .unwrap();
    let batch = Framework::PtsCp { label_frac: 0.5 }
        .execute(
            eps,
            domains,
            &Exec::seeded(1).threads(2).chunk_size(data.len()),
            SliceSource::new(&data),
        )
        .unwrap();
    assert_eq!(seq.comm, batch.comm, "comm diverged");
    for l in 0..domains.classes() {
        for i in 0..domains.items() {
            assert!(
                seq.table.get(l, i) == batch.table.get(l, i),
                "one-thread and whole-source runs diverged at ({l},{i})"
            );
        }
    }
}
