//! Streaming-ingestion equivalence: every aggregator's `absorb_stream`
//! must produce **bit-identical** results to its `absorb_all` over the
//! materialized reports, and every plan to the one that holds the whole
//! source in a single chunk, for every chunk size (including ones that
//! split shards) and every thread count.
//! The CI thread matrix runs this file under `MCIM_THREADS=1` and `=4`.

use multiclass_ldp::core::frameworks::{
    Hec, HecAggregator, Ptj, PtjAggregator, Pts, PtsAggregator,
};
use multiclass_ldp::oracles::stream::{ReportSource, SliceSource};
use multiclass_ldp::prelude::*;
use multiclass_ldp::topk::{Pem, PemConfig};

const SHARD: usize = parallel::SHARD_SIZE;

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

/// Privatizes every input from one seeded stream.
fn privatize_all<I: Copy, R>(
    inputs: &[I],
    seed: u64,
    mut privatize: impl FnMut(I, &mut rand::rngs::StdRng) -> Result<R>,
) -> Vec<R> {
    let mut rng = parallel::shard_rng(seed, 0);
    inputs
        .iter()
        .map(|&x| privatize(x, &mut rng).unwrap())
        .collect()
}

fn config(chunk: usize, threads: usize) -> Exec {
    Exec::new().threads(threads).chunk_size(chunk)
}

/// Chunk sizes that hit every boundary case: single item, one short of a
/// shard, exactly a shard, one past, and the whole stream at once.
fn boundary_chunks(n: usize) -> [usize; 5] {
    [1, SHARD - 1, SHARD, SHARD + 1, n]
}

#[test]
fn aggregator_absorb_stream_matches_batch_for_every_oracle() {
    let eps = Eps::new(1.0).unwrap();
    for oracle in [
        Oracle::grr(eps, 6).unwrap(),
        Oracle::oue(eps, 200).unwrap(),
        Oracle::olh(Eps::new(2.0).unwrap(), 32).unwrap(),
    ] {
        let d = oracle.domain_size();
        let values: Vec<u32> = (0..SHARD as u32 + 700).map(|u| (u * 13) % d).collect();
        let reports = privatize_all(&values, 8, |v, rng| oracle.privatize(v, rng));
        let mut batch = Aggregator::new(&oracle);
        batch.absorb_all(&reports).unwrap();
        for chunk in [SHARD - 1, SHARD + 1] {
            for threads in [1, 4] {
                let mut streamed = Aggregator::new(&oracle);
                streamed
                    .absorb_stream(&mut SliceSource::new(&reports), &config(chunk, threads))
                    .unwrap();
                assert_eq!(
                    streamed.raw_counts(),
                    batch.raw_counts(),
                    "{} chunk={chunk} threads={threads}",
                    oracle.name()
                );
                assert_eq!(streamed.report_count(), batch.report_count());
                assert_eq!(streamed.estimate(), batch.estimate());
            }
        }
    }
}

#[test]
fn vp_and_cp_absorb_stream_match_batch() {
    let n = SHARD + 900;
    // VP
    let vp = ValidityPerturbation::new(Eps::new(1.5).unwrap(), 96).unwrap();
    let inputs: Vec<ValidityInput> = (0..n)
        .map(|u| {
            if u % 4 == 0 {
                ValidityInput::Invalid
            } else {
                ValidityInput::Valid(u as u32 % 96)
            }
        })
        .collect();
    let reports = privatize_all(&inputs, 3, |x, rng| vp.privatize(x, rng));
    let mut batch = VpAggregator::new(&vp);
    batch.absorb_all(&reports).unwrap();
    for threads in [1, 4] {
        let mut streamed = VpAggregator::new(&vp);
        streamed
            .absorb_stream(&mut SliceSource::new(&reports), &config(SHARD + 1, threads))
            .unwrap();
        assert_eq!(
            streamed.raw_counts(),
            batch.raw_counts(),
            "VP threads={threads}"
        );
        assert_eq!(streamed.raw_flag_count(), batch.raw_flag_count());
        assert_eq!(streamed.estimate(), batch.estimate());
    }
    // CP
    let domains = Domains::new(4, 48).unwrap();
    let cp = CorrelatedPerturbation::with_total(Eps::new(2.0).unwrap(), domains).unwrap();
    let pairs = sample_data(domains, n);
    let reports = privatize_all(&pairs, 5, |p, rng| cp.privatize(p, rng));
    let mut batch = CpAggregator::new(&cp);
    batch.absorb_all(&reports).unwrap();
    for threads in [1, 4] {
        let mut streamed = CpAggregator::new(&cp);
        streamed
            .absorb_stream(&mut SliceSource::new(&reports), &config(SHARD - 1, threads))
            .unwrap();
        assert_eq!(streamed.report_count(), batch.report_count());
        for label in 0..domains.classes() {
            assert_eq!(
                streamed.raw_label_count(label),
                batch.raw_label_count(label),
                "CP threads={threads}"
            );
            for item in 0..domains.items() {
                assert_eq!(
                    streamed.raw_pair_count(label, item),
                    batch.raw_pair_count(label, item),
                    "CP threads={threads} ({label},{item})"
                );
                assert!(
                    streamed.estimate().get(label, item) == batch.estimate().get(label, item),
                    "CP threads={threads}"
                );
            }
        }
    }
}

#[test]
fn pts_ptj_hec_absorb_stream_match_batch() {
    let domains = Domains::new(3, 40).unwrap();
    let n = SHARD + 600;
    let pairs = sample_data(domains, n);
    let eps = Eps::new(2.0).unwrap();

    let pts = Pts::new(Eps::new(1.0).unwrap(), Eps::new(1.0).unwrap(), domains).unwrap();
    let reports = privatize_all(&pairs, 6, |p, rng| pts.privatize(p, rng));
    let mut batch = PtsAggregator::new(&pts);
    batch.absorb_all(&reports).unwrap();
    for threads in [1, 4] {
        let mut streamed = PtsAggregator::new(&pts);
        streamed
            .absorb_stream(&mut SliceSource::new(&reports), &config(SHARD + 1, threads))
            .unwrap();
        assert_eq!(streamed.estimate().get(1, 2), batch.estimate().get(1, 2));
        assert_eq!(streamed.report_count(), batch.report_count());
    }

    let ptj = Ptj::new(eps, domains).unwrap();
    let reports = privatize_all(&pairs, 7, |p, rng| ptj.privatize(p, rng));
    let mut batch = PtjAggregator::new(&ptj);
    batch.absorb_all(&reports).unwrap();
    for threads in [1, 4] {
        let mut streamed = PtjAggregator::new(&ptj);
        streamed
            .absorb_stream(&mut SliceSource::new(&reports), &config(SHARD - 1, threads))
            .unwrap();
        assert_eq!(streamed.estimate().get(2, 3), batch.estimate().get(2, 3));
        assert_eq!(streamed.report_count(), batch.report_count());
    }

    let hec = Hec::new(eps, domains).unwrap();
    let mut user = 0..;
    let reports = privatize_all(&pairs, 9, |p, rng| {
        hec.privatize(user.next().unwrap(), p, rng)
    });
    let mut batch = HecAggregator::new(&hec);
    batch.absorb_all(&reports).unwrap();
    for threads in [1, 4] {
        let mut streamed = HecAggregator::new(&hec);
        streamed
            .absorb_stream(&mut SliceSource::new(&reports), &config(SHARD + 1, threads))
            .unwrap();
        assert_eq!(
            streamed.estimate().unwrap().get(0, 1),
            batch.estimate().unwrap().get(0, 1)
        );
        assert_eq!(streamed.report_count(), batch.report_count());
    }
}

/// The chunk-boundary property: every plan equals the whole-source plan
/// bit-for-bit at chunk sizes 1, shard−1, shard, shard+1 and n, for every
/// framework (RNG state must carry correctly across split shards).
#[test]
fn stream_plans_match_batch_plans_at_every_chunk_boundary() {
    let domains = Domains::new(3, 32).unwrap();
    let n = 2 * SHARD + 537;
    let data = sample_data(domains, n);
    let eps = Eps::new(2.0).unwrap();
    let threads = parallel::configured_threads();
    for fw in Framework::fig6_set() {
        let batch = fw
            .execute(
                eps,
                domains,
                &Exec::seeded(2025).threads(threads).chunk_size(n),
                SliceSource::new(&data),
            )
            .unwrap();
        for chunk in boundary_chunks(n) {
            for t in [1, threads] {
                let plan = Exec::seeded(2025).threads(t).chunk_size(chunk);
                let streamed = fw
                    .execute(eps, domains, &plan, SliceSource::new(&data))
                    .unwrap();
                assert_eq!(
                    streamed.comm,
                    batch.comm,
                    "{} chunk={chunk} threads={t}",
                    fw.name()
                );
                for label in 0..domains.classes() {
                    for item in 0..domains.items() {
                        assert!(
                            streamed.table.get(label, item) == batch.table.get(label, item),
                            "{} chunk={chunk} threads={t} diverged at ({label},{item})",
                            fw.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn pem_stream_plans_match_batch_plans() {
    let d = 128u32;
    let n = SHARD + 2200;
    let items: Vec<Option<u32>> = (0..n)
        .map(|u| {
            if u % 5 == 0 {
                None
            } else {
                Some(((u * 31) % 40) as u32)
            }
        })
        .collect();
    let eps = Eps::new(4.0).unwrap();
    for pem_config in [PemConfig::new(4), PemConfig::new(4).with_validity()] {
        let pem = Pem::new(d, pem_config).unwrap();
        let batch = pem
            .execute(
                eps,
                &Exec::seeded(55).threads(2).chunk_size(n),
                SliceSource::new(&items),
            )
            .unwrap();
        for chunk in [997, SHARD, n] {
            for threads in [1, 4] {
                let plan = Exec::seeded(55).threads(threads).chunk_size(chunk);
                let streamed = pem.execute(eps, &plan, SliceSource::new(&items)).unwrap();
                assert_eq!(
                    streamed.top, batch.top,
                    "validity={} chunk={chunk} threads={threads}",
                    pem_config.validity
                );
                assert_eq!(streamed.comm, batch.comm);
            }
        }
    }
}

/// A source that hides its length, like a socket or a pipe would.
struct Unsized<'a>(SliceSource<'a, Option<u32>>);

impl ReportSource for Unsized<'_> {
    type Item = Option<u32>;
    fn fill(&mut self, buf: &mut Vec<Option<u32>>, max: usize) -> Result<usize> {
        self.0.fill(buf, max)
    }
}

#[test]
fn pem_sharded_execute_requires_sized_source() {
    let items: Vec<Option<u32>> = (0..100).map(|u| Some(u % 64)).collect();
    let pem = Pem::new(64, PemConfig::new(2)).unwrap();
    let plan = Exec::seeded(1);
    // An explicit executor splits rounds up front and needs the size …
    let err = pem
        .execute_on(
            &plan.in_process(),
            Eps::new(1.0).unwrap(),
            1,
            Unsized(SliceSource::new(&items)),
        )
        .unwrap_err();
    assert!(matches!(err, Error::InvalidParameter { .. }));
    // … while `execute` drains an unsized source first.
    assert!(pem
        .execute(
            Eps::new(1.0).unwrap(),
            &plan,
            Unsized(SliceSource::new(&items))
        )
        .is_ok());
}

/// `Pem::execute` mines an unsized source bit-identically to the same
/// items behind a sized `SliceSource`, at every thread count.
#[test]
fn pem_execute_drains_unsized_sources_under_every_plan() {
    let items: Vec<Option<u32>> = (0..SHARD + 1500)
        .map(|u| (u % 6 != 0).then_some(((u * 17) % 50) as u32))
        .collect();
    let eps = Eps::new(4.0).unwrap();
    let pem = Pem::new(128, PemConfig::new(4).with_validity()).unwrap();
    for threads in [1, 4] {
        let plan = Exec::seeded(12).threads(threads);
        let sized = pem.execute(eps, &plan, SliceSource::new(&items)).unwrap();
        let drained = pem
            .execute(eps, &plan, Unsized(SliceSource::new(&items)))
            .unwrap();
        assert_eq!(drained.top, sized.top, "threads={threads}");
        assert_eq!(drained.comm, sized.comm, "threads={threads}");
    }
}

#[test]
fn topk_stream_plans_match_batch_plans() {
    let domains = Domains::new(3, 64).unwrap();
    let data = sample_data(domains, 18_000);
    let config_k = TopKConfig::new(3, Eps::new(6.0).unwrap());
    for method in [
        TopKMethod::Hec,
        TopKMethod::PtsShuffled {
            validity: true,
            global: true,
            correlated: true,
        },
    ] {
        let batch = execute(
            method,
            config_k,
            domains,
            &Exec::seeded(31).threads(2).chunk_size(data.len()),
            SliceSource::new(&data),
        )
        .unwrap();
        for threads in [1, 4] {
            let plan = Exec::seeded(31).threads(threads).chunk_size(4096);
            let streamed =
                execute(method, config_k, domains, &plan, SliceSource::new(&data)).unwrap();
            assert_eq!(
                streamed.per_class,
                batch.per_class,
                "{} threads={threads}",
                method.name()
            );
            assert_eq!(streamed.comm, batch.comm);
        }
    }
}
