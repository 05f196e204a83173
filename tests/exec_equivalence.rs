//! The `Exec` equivalence matrix under the RNG contract: every in-process
//! mode of every `execute` entry point must be **bit-identical** to every
//! other mode for the same plan seed.
//!
//! | plan | machinery |
//! |---|---|
//! | `Exec::sequential().seed(s)` | sharded runtime pinned to 1 worker |
//! | `Exec::batch().seed(s).threads(t)` | sharded runtime, materialized input |
//! | `Exec::stream().seed(s).threads(t).chunk_size(c)` | sharded runtime, bounded chunks |
//! | `Exec::seeded(s)` (auto) | resolves to stream |
//!
//! Each sharded comparison runs at two `(threads, chunk_size)`
//! combinations, one of which splits shards mid-way; the distributed
//! worker matrix (`crates/dist/tests`, `crates/cli/tests`) extends the
//! same identity across process boundaries.

use multiclass_ldp::prelude::*;
use multiclass_ldp::topk::{Pem, PemConfig, PemEngine};

const SHARD: usize = parallel::SHARD_SIZE;

/// The acceptance combos: sequential-ish and parallel, with chunk sizes
/// on both sides of a shard boundary.
const COMBOS: [(usize, usize); 2] = [(1, SHARD - 1), (4, SHARD + 1)];

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
        // Reference: the batch plan at one thread.
        let reference = fw
            .execute(
                eps,
                domains,
                &Exec::batch().seed(seed).threads(1),
                SliceSource::new(&data),
            )
            .unwrap();
        let reference = EstimationResultPair(reference);
        let exec_seq = fw
            .execute(
                eps,
                domains,
                &Exec::sequential().seed(seed),
                SliceSource::new(&data),
            )
            .unwrap();
        assert_tables_identical(
            &reference,
            &EstimationResultPair(exec_seq),
            &format!("{} sequential vs batch", fw.name()),
        );

        for (threads, chunk) in COMBOS {
            let exec_batch = fw
                .execute(
                    eps,
                    domains,
                    &Exec::batch().seed(seed).threads(threads),
                    SliceSource::new(&data),
                )
                .unwrap();
            let exec_stream = fw
                .execute(
                    eps,
                    domains,
                    &Exec::stream().seed(seed).threads(threads).chunk_size(chunk),
                    SliceSource::new(&data),
                )
                .unwrap();
            let exec_auto = fw
                .execute(
                    eps,
                    domains,
                    &Exec::seeded(seed).threads(threads).chunk_size(chunk),
                    SliceSource::new(&data),
                )
                .unwrap();
            let exec_seq_chunked = fw
                .execute(
                    eps,
                    domains,
                    &Exec::sequential().seed(seed).chunk_size(chunk),
                    SliceSource::new(&data),
                )
                .unwrap();
            let what = format!("{} t={threads} chunk={chunk}", fw.name());
            for (label, result) in [
                ("batch", exec_batch),
                ("stream", exec_stream),
                ("auto", exec_auto),
                ("sequential+chunk", exec_seq_chunked),
            ] {
                assert_tables_identical(
                    &reference,
                    &EstimationResultPair(result),
                    &format!("{what} [{label} vs reference]"),
                );
            }
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
        let fresh = || PemEngine::new(d, config).unwrap();

        // Reference: one sequential round.
        let mut reference = fresh();
        let reference_comm = reference
            .execute_round(
                eps,
                &Exec::sequential().seed(seed),
                SliceSource::new(&items),
            )
            .unwrap();

        for (threads, chunk) in COMBOS {
            let what = format!("validity={validity} t={threads} chunk={chunk}");
            let (mut exec_b, mut exec_s, mut exec_a) = (fresh(), fresh(), fresh());
            let comm_b = exec_b
                .execute_round(
                    eps,
                    &Exec::batch().seed(seed).threads(threads),
                    SliceSource::new(&items),
                )
                .unwrap();
            let comm_s = exec_s
                .execute_round(
                    eps,
                    &Exec::stream().seed(seed).threads(threads).chunk_size(chunk),
                    SliceSource::new(&items),
                )
                .unwrap();
            let comm_a = exec_a
                .execute_round(
                    eps,
                    &Exec::seeded(seed).threads(threads).chunk_size(chunk),
                    SliceSource::new(&items),
                )
                .unwrap();
            assert_eq!(reference_comm, comm_b, "{what} batch comm");
            assert_eq!(reference_comm, comm_s, "{what} stream comm");
            assert_eq!(reference_comm, comm_a, "{what} auto comm");
            assert_eq!(reference.candidates(), exec_b.candidates(), "{what}");
            assert_eq!(reference.candidates(), exec_s.candidates(), "{what}");
            assert_eq!(reference.candidates(), exec_a.candidates(), "{what}");
            assert_eq!(reference.prefix_len(), exec_b.prefix_len(), "{what}");
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

        let reference = pem
            .execute(
                eps,
                &Exec::sequential().seed(seed),
                SliceSource::new(&items),
            )
            .unwrap();

        for (threads, chunk) in COMBOS {
            let what = format!("validity={} t={threads} chunk={chunk}", config.validity);
            let exec_batch = pem
                .execute(
                    eps,
                    &Exec::batch().seed(seed).threads(threads),
                    SliceSource::new(&items),
                )
                .unwrap();
            let exec_stream = pem
                .execute(
                    eps,
                    &Exec::stream().seed(seed).threads(threads).chunk_size(chunk),
                    SliceSource::new(&items),
                )
                .unwrap();
            let exec_auto = pem
                .execute(
                    eps,
                    &Exec::seeded(seed).threads(threads).chunk_size(chunk),
                    SliceSource::new(&items),
                )
                .unwrap();
            for (label, out) in [
                ("batch", &exec_batch),
                ("stream", &exec_stream),
                ("auto", &exec_auto),
            ] {
                assert_eq!(reference.top, out.top, "{what} [{label}]");
                assert_eq!(reference.comm, out.comm, "{what} [{label}]");
            }
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
        let reference = execute(
            method,
            config,
            domains,
            &Exec::sequential().seed(seed),
            SliceSource::new(&data),
        )
        .unwrap();

        for (threads, chunk) in COMBOS {
            let what = format!("{} t={threads} chunk={chunk}", method.name());
            let exec_batch = execute(
                method,
                config,
                domains,
                &Exec::batch().seed(seed).threads(threads),
                SliceSource::new(&data),
            )
            .unwrap();
            let exec_stream = execute(
                method,
                config,
                domains,
                &Exec::stream().seed(seed).threads(threads).chunk_size(chunk),
                SliceSource::new(&data),
            )
            .unwrap();
            let exec_auto = execute(
                method,
                config,
                domains,
                &Exec::seeded(seed).threads(threads).chunk_size(chunk),
                SliceSource::new(&data),
            )
            .unwrap();
            for (label, out) in [
                ("batch", &exec_batch),
                ("stream", &exec_stream),
                ("auto", &exec_auto),
            ] {
                assert_eq!(reference.per_class, out.per_class, "{what} [{label}]");
                assert_eq!(reference.comm, out.comm, "{what} [{label}]");
                assert!(
                    (reference.broadcast_bits_per_user - out.broadcast_bits_per_user).abs() == 0.0,
                    "{what} [{label}]"
                );
            }
        }
    }
}

/// Under the RNG contract sequential mode IS the sharded runtime pinned to
/// one worker — the modes share one noise stream, so a sequential run and
/// a multi-threaded batch run of the same seed must agree bit-for-bit
/// (pre-v2, sequential kept a separate caller-RNG stream and this test
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
            &Exec::sequential().seed(1),
            SliceSource::new(&data),
        )
        .unwrap();
    let batch = Framework::PtsCp { label_frac: 0.5 }
        .execute(
            eps,
            domains,
            &Exec::batch().seed(1).threads(2),
            SliceSource::new(&data),
        )
        .unwrap();
    assert_eq!(seq.comm, batch.comm, "comm diverged");
    for l in 0..domains.classes() {
        for i in 0..domains.items() {
            assert!(
                seq.table.get(l, i) == batch.table.get(l, i),
                "sequential and batch diverged at ({l},{i})"
            );
        }
    }
}
