//! Seeded-RNG determinism regression tests.
//!
//! Every pipeline in the workspace takes an explicit RNG, so identical seeds
//! must produce bit-identical outputs. HEC/PEM group users by position and
//! the shuffling scheme replays server seeds client-side, which makes seed
//! stability a correctness property, not a convenience — a refactor that
//! reorders RNG draws shows up here before it silently changes every
//! benchmark number.

use multiclass_ldp::prelude::*;

fn slice<'a>(data: &'a [LabelItem]) -> SliceSource<'a, LabelItem> {
    SliceSource::new(data)
}

fn sample_data(domains: Domains, n: usize) -> Vec<LabelItem> {
    (0..n)
        .map(|u| {
            LabelItem::new(
                (u % domains.classes() as usize) as u32,
                ((u * 7919) % domains.items() as usize) as u32,
            )
        })
        .collect()
}

#[test]
fn pts_cp_tables_identical_for_identical_seeds() {
    let domains = Domains::new(3, 32).unwrap();
    let data = sample_data(domains, 20_000);
    let eps = Eps::new(2.0).unwrap();
    let fw = Framework::PtsCp { label_frac: 0.5 };

    let run = |seed: u64| {
        fw.execute(eps, domains, &Exec::seeded(seed).threads(1), slice(&data))
            .unwrap()
    };
    let a = run(12345);
    let b = run(12345);
    for label in 0..domains.classes() {
        for item in 0..domains.items() {
            let (x, y) = (a.table.get(label, item), b.table.get(label, item));
            assert!(
                x == y,
                "seed-identical runs diverged at ({label},{item}): {x} vs {y}"
            );
        }
    }

    // And a different seed must actually change the noise (guards against a
    // run() that ignores the caller's RNG).
    let c = run(54321);
    let differs = (0..domains.classes())
        .any(|l| (0..domains.items()).any(|i| a.table.get(l, i) != c.table.get(l, i)));
    assert!(differs, "different seeds produced identical noisy tables");
}

#[test]
fn topk_mining_identical_for_identical_seeds() {
    let domains = Domains::new(2, 64).unwrap();
    let data = sample_data(domains, 30_000);
    let config = TopKConfig::new(5, Eps::new(4.0).unwrap());
    let method = TopKMethod::PtsShuffled {
        validity: true,
        global: true,
        correlated: true,
    };

    let run = |seed: u64| {
        execute(
            method,
            config,
            domains,
            &Exec::seeded(seed).threads(1),
            slice(&data),
        )
        .unwrap()
    };
    assert_eq!(
        run(7).per_class,
        run(7).per_class,
        "seed-identical top-k runs diverged"
    );
}

/// The sharded runtime's headline guarantee: `threads = N` produces
/// bit-identical estimates to `threads = 1` for every framework. The CI
/// thread matrix runs this file under `MCIM_THREADS=1` and `MCIM_THREADS=4`,
/// so `configured_threads()` exercises a genuinely different worker count
/// against the sequential reference.
#[test]
fn batch_plan_thread_matrix_is_bit_identical_for_every_framework() {
    let domains = Domains::new(3, 48).unwrap();
    let data = sample_data(domains, 25_000);
    let eps = Eps::new(2.0).unwrap();
    let threads = parallel::configured_threads();
    for fw in Framework::fig6_set() {
        let seq = fw
            .execute(eps, domains, &Exec::seeded(2024).threads(1), slice(&data))
            .unwrap();
        for t in [2, threads] {
            let par = fw
                .execute(
                    eps,
                    domains,
                    &Exec::seeded(2024).threads(t).chunk_size(data.len()),
                    slice(&data),
                )
                .unwrap();
            for label in 0..domains.classes() {
                for item in 0..domains.items() {
                    assert!(
                        par.table.get(label, item) == seq.table.get(label, item),
                        "{} threads={t} diverged at ({label},{item})",
                        fw.name()
                    );
                }
            }
        }
    }
}

/// Same guarantee for the standalone validity-perturbation aggregator (the
/// "VP" row of the acceptance matrix): reports privatized shard by shard
/// and absorbed through the sharded stream runtime equal sequential
/// absorption bit-for-bit at every thread count.
#[test]
fn vp_batch_thread_matrix_is_bit_identical() {
    let vp = ValidityPerturbation::new(Eps::new(1.5).unwrap(), 96).unwrap();
    let inputs: Vec<ValidityInput> = (0..20_000)
        .map(|u| {
            if u % 4 == 0 {
                ValidityInput::Invalid
            } else {
                ValidityInput::Valid(u as u32 % 96)
            }
        })
        .collect();
    let mut reports = Vec::new();
    for (s, chunk) in inputs.chunks(parallel::SHARD_SIZE).enumerate() {
        let mut rng = parallel::shard_rng(9, s as u64);
        for &input in chunk {
            reports.push(vp.privatize(input, &mut rng).unwrap());
        }
    }

    let mut seq = VpAggregator::new(&vp);
    for r in &reports {
        seq.absorb(r).unwrap();
    }
    for t in [1, 2, parallel::configured_threads()] {
        let mut par = VpAggregator::new(&vp);
        par.absorb_stream(&mut SliceSource::new(&reports), &Exec::new().threads(t))
            .unwrap();
        assert_eq!(par.raw_counts(), seq.raw_counts(), "threads={t}");
        assert_eq!(par.raw_flag_count(), seq.raw_flag_count());
        assert_eq!(par.estimate(), seq.estimate());
    }
}

/// Top-k mining on the sharded runtime is a pure function of the base seed —
/// the thread count never changes the mined sets.
#[test]
fn topk_batch_plan_thread_matrix_is_bit_identical() {
    let domains = Domains::new(2, 64).unwrap();
    let data = sample_data(domains, 24_000);
    let config = TopKConfig::new(4, Eps::new(4.0).unwrap());
    let threads = parallel::configured_threads();
    for method in [
        TopKMethod::Hec,
        TopKMethod::PtjShuffled { validity: true },
        TopKMethod::PtsShuffled {
            validity: true,
            global: true,
            correlated: true,
        },
    ] {
        let seq = execute(
            method,
            config,
            domains,
            &Exec::seeded(77).threads(1),
            slice(&data),
        )
        .unwrap();
        for t in [2, threads] {
            let par = execute(
                method,
                config,
                domains,
                &Exec::seeded(77).threads(t).chunk_size(data.len()),
                slice(&data),
            )
            .unwrap();
            assert_eq!(
                par.per_class,
                seq.per_class,
                "{} threads={t}",
                method.name()
            );
            assert_eq!(par.comm, seq.comm, "{}", method.name());
        }
    }
}
