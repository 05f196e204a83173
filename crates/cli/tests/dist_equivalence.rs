//! The distributed equivalence matrix: real `mcim worker` processes
//! (spawned from the built binary), a socket-backed `Coordinator`, and
//! all four pipelines — framework frequency estimation, one PEM round, a
//! whole PEM mine, and multi-class top-k — each proven **bit-identical**
//! to the in-process executor at multiple worker counts × chunk sizes.
//!
//! This is the acceptance net for the `mcim-dist` subsystem: if any
//! backend drifts from the shard contract (boundaries, per-shard RNG
//! streams, merge order), some cell of this matrix fails.

use mcim_core::{Domains, Framework, LabelItem};
use mcim_dist::{spawn_local_workers, Coordinator, SpawnedWorkers};
use mcim_oracles::exec::Exec;
use mcim_oracles::parallel::SHARD_SIZE;
use mcim_oracles::stream::SliceSource;
use mcim_oracles::Eps;
use mcim_topk::{Pem, PemConfig, PemEngine, TopKConfig, TopKMethod};

fn spawn(n: usize) -> SpawnedWorkers {
    let binary = std::path::Path::new(env!("CARGO_BIN_EXE_mcim"));
    spawn_local_workers(binary, n).expect("spawning local mcim workers")
}

fn pairs(n: usize, domains: Domains) -> Vec<LabelItem> {
    (0..n as u32)
        .map(|u| {
            let label = u % domains.classes();
            let item = (u.wrapping_mul(2_654_435_761)) % domains.items();
            LabelItem::new(label, item)
        })
        .collect()
}

/// The worker-count × chunk-size grid each pipeline is checked over.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn chunk_sizes() -> [usize; 2] {
    [SHARD_SIZE - 1, 2 * SHARD_SIZE]
}

/// Framework frequency estimation (all four frameworks on the largest
/// grid cell, PTS-CP across the whole grid).
#[test]
fn framework_freq_matrix() {
    let domains = Domains::new(4, 128).unwrap();
    let data = pairs(3 * SHARD_SIZE + 1234, domains);
    let eps = Eps::new(2.0).unwrap();

    for workers in WORKER_COUNTS {
        for chunk in chunk_sizes() {
            let plan = Exec::seeded(1001).threads(2).chunk_size(chunk);
            let spawned = spawn(workers);
            let coordinator = Coordinator::connect(&plan, &spawned.addrs).unwrap();
            let frameworks: &[Framework] = if workers == 4 && chunk == 2 * SHARD_SIZE {
                &Framework::fig6_set()
            } else {
                &[Framework::PtsCp { label_frac: 0.5 }]
            };
            for fw in frameworks {
                let reference = fw
                    .execute_on(&plan.in_process(), eps, domains, SliceSource::new(&data))
                    .unwrap();
                let distributed = fw
                    .execute_on(&coordinator, eps, domains, SliceSource::new(&data))
                    .unwrap();
                assert_eq!(
                    distributed.comm,
                    reference.comm,
                    "{} w={workers} chunk={chunk}",
                    fw.name()
                );
                for label in 0..domains.classes() {
                    for item in 0..domains.items() {
                        assert!(
                            distributed.table.get(label, item) == reference.table.get(label, item),
                            "{} w={workers} chunk={chunk}: cell ({label},{item}) diverged",
                            fw.name()
                        );
                    }
                }
            }
        }
    }
}

/// A single PEM round (validity-perturbation and adaptive-oracle arms).
#[test]
fn pem_round_matrix() {
    let d = 256u32;
    let items: Vec<Option<u32>> = (0..2 * SHARD_SIZE as u32 + 500)
        .map(|u| if u % 7 == 0 { None } else { Some(u % d) })
        .collect();
    let eps = Eps::new(3.0).unwrap();

    for validity in [false, true] {
        for workers in WORKER_COUNTS {
            for chunk in chunk_sizes() {
                let plan = Exec::seeded(7).threads(2).chunk_size(chunk);
                let config = if validity {
                    PemConfig::new(4).with_validity()
                } else {
                    PemConfig::new(4)
                };
                let mut reference_engine = PemEngine::new(d, config).unwrap();
                let reference = reference_engine
                    .execute_round_on(&plan.in_process(), eps, 555, SliceSource::new(&items))
                    .unwrap();

                let spawned = spawn(workers);
                let coordinator = Coordinator::connect(&plan, &spawned.addrs).unwrap();
                let mut engine = PemEngine::new(d, config).unwrap();
                let stats = engine
                    .execute_round_on(&coordinator, eps, 555, SliceSource::new(&items))
                    .unwrap();
                assert_eq!(
                    stats, reference,
                    "validity={validity} w={workers} c={chunk}"
                );
                assert_eq!(
                    engine.candidates(),
                    reference_engine.candidates(),
                    "validity={validity} w={workers} c={chunk}: surviving candidates diverged"
                );
            }
        }
    }
}

/// A whole multi-round PEM mine (the rounds reuse one set of worker
/// connections).
#[test]
fn pem_mine_matrix() {
    let d = 128u32;
    let items: Vec<Option<u32>> = (0..SHARD_SIZE as u32 * 3)
        .map(|u| {
            if u % 6 == 0 {
                None
            } else {
                Some((u % 16) * (u % 3 + 1) % d)
            }
        })
        .collect();
    let eps = Eps::new(5.0).unwrap();
    let pem = Pem::new(d, PemConfig::new(5).with_validity()).unwrap();

    for workers in WORKER_COUNTS {
        for chunk in chunk_sizes() {
            let plan = Exec::seeded(31).threads(2).chunk_size(chunk);
            let reference = pem
                .execute_on(&plan.in_process(), eps, 31, SliceSource::new(&items))
                .unwrap();
            let spawned = spawn(workers);
            let coordinator = Coordinator::connect(&plan, &spawned.addrs).unwrap();
            let distributed = pem
                .execute_on(&coordinator, eps, 31, SliceSource::new(&items))
                .unwrap();
            assert_eq!(distributed.top, reference.top, "w={workers} c={chunk}");
            assert_eq!(distributed.comm, reference.comm, "w={workers} c={chunk}");
        }
    }
}

/// Multi-class top-k mining end to end (the full Algorithms 1 & 2
/// pipeline, the plain PTS-PEM ablation, and PTJ shuffling, whose bucket
/// rounds fold the oracle stage over the identity candidate set).
#[test]
fn topk_matrix() {
    let domains = Domains::new(3, 64).unwrap();
    let data = pairs(3 * SHARD_SIZE + 77, domains);
    let config = TopKConfig::new(3, Eps::new(6.0).unwrap());
    let methods = [
        TopKMethod::PtsPem {
            validity: false,
            global: true,
        },
        TopKMethod::PtjShuffled { validity: false },
        TopKMethod::PtsShuffled {
            validity: true,
            global: true,
            correlated: true,
        },
    ];

    for method in methods {
        for workers in WORKER_COUNTS {
            for chunk in chunk_sizes() {
                let plan = Exec::seeded(77).threads(2).chunk_size(chunk);
                let reference = mcim_topk::execute_on(
                    method,
                    config,
                    domains,
                    &plan.in_process(),
                    SliceSource::new(&data),
                )
                .unwrap();
                let spawned = spawn(workers);
                let coordinator = Coordinator::connect(&plan, &spawned.addrs).unwrap();
                let distributed = mcim_topk::execute_on(
                    method,
                    config,
                    domains,
                    &coordinator,
                    SliceSource::new(&data),
                )
                .unwrap();
                assert_eq!(
                    distributed.per_class,
                    reference.per_class,
                    "{} w={workers} c={chunk}",
                    method.name()
                );
                assert_eq!(distributed.comm, reference.comm);
            }
        }
    }
}

/// The CLI plumbing end to end: `freq --dist-spawn` writes the same CSV
/// as the local run.
#[test]
fn cli_dist_spawn_freq_matches_local() {
    let dir = std::env::temp_dir().join("mcim-dist-equivalence");
    std::fs::create_dir_all(&dir).unwrap();
    let mcim = env!("CARGO_BIN_EXE_mcim");
    let pairs_path = dir.join("pairs.csv");
    let run = |extra: &[&str], out: &std::path::Path| {
        let mut cmd = std::process::Command::new(mcim);
        cmd.args([
            "freq",
            "--input",
            pairs_path.to_str().unwrap(),
            "--eps",
            "2.0",
            "--seed",
            "13",
            "--output",
            out.to_str().unwrap(),
        ]);
        cmd.args(extra);
        let status = cmd.status().expect("running mcim");
        assert!(status.success(), "mcim freq {extra:?} failed");
    };

    let status = std::process::Command::new(mcim)
        .args([
            "gen",
            "--dataset",
            "syn3",
            "--users",
            "12000",
            "--items",
            "64",
            "--classes",
            "3",
            "--output",
            pairs_path.to_str().unwrap(),
        ])
        .status()
        .expect("running mcim gen");
    assert!(status.success());

    let local = dir.join("freq_local.csv");
    let dist = dir.join("freq_dist.csv");
    run(&[], &local);
    run(&["--dist-spawn", "2"], &dist);
    assert_eq!(
        std::fs::read_to_string(&local).unwrap(),
        std::fs::read_to_string(&dist).unwrap(),
        "--dist-spawn must not change the estimates"
    );
}
