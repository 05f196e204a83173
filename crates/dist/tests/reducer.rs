//! Socket-level integration tests of the distributed reducer: worker
//! threads serving real TCP connections, a `Coordinator` folding through
//! them, and the equivalence + failure properties the protocol promises.
//! (The full four-pipeline equivalence matrix against spawned worker
//! *processes* lives in `crates/cli/tests/dist_equivalence.rs`.)

use std::net::TcpListener;
use std::thread::JoinHandle;

use mcim_core::{Domains, Framework, LabelItem};
use mcim_dist::{builtin_worker, Coordinator};
use mcim_oracles::exec::{Exec, Executor, FnStage, Stage};
use mcim_oracles::stream::{ReportSource, SliceSource};
use mcim_oracles::wire::StageSpec;
use mcim_oracles::{Eps, Error, Result};
use mcim_topk::{Pem, PemConfig, PemEngine};
use rand::RngCore;

/// Workers on loopback TCP, each serving connections on its own thread
/// until its listener is dropped with the harness.
struct TestWorkers {
    addrs: Vec<String>,
    handles: Vec<JoinHandle<()>>,
}

impl TestWorkers {
    /// `conns_per_worker` lets one worker outlive several coordinators.
    fn start(n: usize, conns_per_worker: usize) -> Self {
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            addrs.push(listener.local_addr().expect("local addr").to_string());
            handles.push(std::thread::spawn(move || {
                let worker = builtin_worker();
                for _ in 0..conns_per_worker {
                    if worker.serve_once(&listener).is_err() {
                        break;
                    }
                }
            }));
        }
        TestWorkers { addrs, handles }
    }

    fn join(self) {
        for handle in self.handles {
            handle.join().expect("worker thread panicked");
        }
    }
}

fn pairs(n: usize, domains: Domains) -> Vec<LabelItem> {
    (0..n as u32)
        .map(|u| LabelItem::new(u % domains.classes(), (u * 13) % domains.items()))
        .collect()
}

/// Frequency estimation over sockets is bit-identical to in-process
/// execution, across worker counts and chunk sizes, with connections
/// reused across several folds.
#[test]
fn framework_fold_is_bit_identical_over_sockets() {
    let domains = Domains::new(3, 64).unwrap();
    let data = pairs(3 * 4096 + 777, domains);
    let eps = Eps::new(2.0).unwrap();
    let fw = Framework::PtsCp { label_frac: 0.5 };

    for workers in [1, 2, 3] {
        for chunk in [4096 - 1, 3 * 4096] {
            let plan = Exec::seeded(42).threads(2).chunk_size(chunk);
            let reference = fw
                .execute_on(&plan.in_process(), eps, domains, SliceSource::new(&data))
                .unwrap();
            let cluster = TestWorkers::start(workers, 1);
            let coordinator = Coordinator::connect(&plan, &cluster.addrs).unwrap();
            assert_eq!(coordinator.workers(), workers);
            let distributed = fw
                .execute_on(&coordinator, eps, domains, SliceSource::new(&data))
                .unwrap();
            assert_eq!(distributed.comm, reference.comm, "w={workers} c={chunk}");
            for label in 0..domains.classes() {
                for item in 0..domains.items() {
                    assert!(
                        distributed.table.get(label, item) == reference.table.get(label, item),
                        "w={workers} c={chunk} diverged at ({label},{item})"
                    );
                }
            }
            drop(coordinator);
            cluster.join();
        }
    }
}

/// A whole multi-round PEM mine reuses the worker connections for every
/// round and still matches in-process execution bit for bit.
#[test]
fn pem_mine_reuses_connections_across_rounds() {
    let d = 128u32;
    let items: Vec<Option<u32>> = (0..20_000u32)
        .map(|u| {
            if u % 5 == 0 {
                None
            } else {
                Some((u * u) % (u % 7 + 1).pow(2) % d)
            }
        })
        .collect();
    let eps = Eps::new(4.0).unwrap();
    let pem = Pem::new(d, PemConfig::new(4).with_validity()).unwrap();
    let plan = Exec::seeded(9).threads(2);

    let reference = pem
        .execute_on(&plan.in_process(), eps, 9, SliceSource::new(&items))
        .unwrap();
    let cluster = TestWorkers::start(2, 1);
    let coordinator = Coordinator::connect(&plan, &cluster.addrs).unwrap();
    let distributed = pem
        .execute_on(&coordinator, eps, 9, SliceSource::new(&items))
        .unwrap();
    assert_eq!(distributed.top, reference.top);
    assert_eq!(distributed.comm, reference.comm);
    drop(coordinator);
    cluster.join();
}

/// An unsized source takes the round-robin stride assignment and still
/// matches the sized (contiguous-range) run bit for bit.
#[test]
fn unsized_sources_use_strides_and_stay_identical() {
    struct Unsized<'a> {
        inner: SliceSource<'a, Option<u32>>,
    }
    impl ReportSource for Unsized<'_> {
        type Item = Option<u32>;
        fn fill(&mut self, buf: &mut Vec<Option<u32>>, max: usize) -> Result<usize> {
            self.inner.fill(buf, max)
        }
        // size_hint: deliberately absent.
    }

    let items: Vec<Option<u32>> = (0..10_000u32).map(|u| Some(u % 32)).collect();
    let eps = Eps::new(3.0).unwrap();
    let plan = Exec::seeded(5).threads(2).chunk_size(4096 + 1);

    let mut reference_engine = PemEngine::new(32, PemConfig::new(3)).unwrap();
    let reference = reference_engine
        .execute_round_on(&plan.in_process(), eps, 77, SliceSource::new(&items))
        .unwrap();

    let cluster = TestWorkers::start(3, 1);
    let coordinator = Coordinator::connect(&plan, &cluster.addrs).unwrap();
    let mut engine = PemEngine::new(32, PemConfig::new(3)).unwrap();
    let stats = engine
        .execute_round_on(
            &coordinator,
            eps,
            77,
            Unsized {
                inner: SliceSource::new(&items),
            },
        )
        .unwrap();
    assert_eq!(stats, reference);
    assert_eq!(engine.candidates(), reference_engine.candidates());
    drop(coordinator);
    cluster.join();
}

/// Closure stages carry no spec; the coordinator transparently falls back
/// to in-process execution instead of failing.
#[test]
fn spec_less_stages_fall_back_to_in_process() {
    let items: Vec<u32> = (0..9000).collect();
    let stage = FnStage::new(
        (0u64, 0u64),
        |rng: &mut rand::rngs::StdRng, _abs, chunk: &[u32], acc: &mut (u64, u64)| {
            for &v in chunk {
                acc.0 += v as u64;
                acc.1 = acc.1.wrapping_add(rng.next_u64());
            }
            Ok(())
        },
        |a, b| {
            a.0 += b.0;
            a.1 = a.1.wrapping_add(b.1);
            Ok(())
        },
    );
    let plan = Exec::seeded(1).threads(2);
    let reference = plan
        .in_process()
        .fold(&mut SliceSource::new(&items), 3, &stage)
        .unwrap();

    let cluster = TestWorkers::start(1, 1);
    let coordinator = Coordinator::connect(&plan, &cluster.addrs).unwrap();
    let local = coordinator
        .fold(&mut SliceSource::new(&items), 3, &stage)
        .unwrap();
    assert_eq!(local, reference);
    drop(coordinator);
    cluster.join();
}

/// A stage kind the worker does not know is refused cleanly: the worker
/// drains the stream and reports the failure, the coordinator recovers
/// by replaying the refused shards in-process, and the connections stay
/// usable for the next (valid) job.
/// A stage whose kind no worker registry knows: every remote job it is
/// shipped in comes back as an `Err` reply.
struct AlienStage;
impl Stage for AlienStage {
    type Item = u32;
    type Acc = u64;
    fn template(&self) -> u64 {
        0
    }
    fn fold(
        &self,
        _rng: &mut rand::rngs::StdRng,
        _abs: u64,
        items: &[u32],
        acc: &mut u64,
    ) -> Result<()> {
        *acc += items.len() as u64;
        Ok(())
    }
    fn merge(&self, into: &mut u64, from: &u64) -> Result<()> {
        *into += *from;
        Ok(())
    }
    fn spec(&self) -> Option<StageSpec> {
        Some(StageSpec::new("test/alien", |_| {}))
    }
}

#[test]
fn unknown_stage_kind_is_refused_not_hung() {
    // Two workers: every worker refuses the alien kind, so the fold
    // degrades to the in-process replay path — and still succeeds,
    // because the refused shards are recomputable locally. The refusals
    // must not leave any queued reply behind to desynchronize the next
    // job (the coordinator drains every reply before recovering).
    let cluster = TestWorkers::start(2, 1);
    let plan = Exec::seeded(0);
    let coordinator = Coordinator::connect(&plan, &cluster.addrs).unwrap();
    let items: Vec<u32> = (0..5000).collect();
    let total = coordinator
        .fold(&mut SliceSource::new(&items), 1, &AlienStage)
        .unwrap();
    assert_eq!(total, 5000, "local replay folds every refused shard");
    let report = coordinator.last_fold_report().unwrap();
    assert!(report.degraded(), "{report}");
    assert_eq!(report.worker_errors, 2, "{report}");
    assert!(report.local_fallback, "{report}");
    assert_eq!(report.local_shards, 2, "{report}");
    assert_eq!(report.workers_lost, 0, "refusal is not death: {report}");

    // Same connections, valid job: still works.
    let domains = Domains::new(2, 16).unwrap();
    let data = pairs(2000, domains);
    let eps = Eps::new(1.0).unwrap();
    let reference = Framework::Ptj
        .execute_on(&plan.in_process(), eps, domains, SliceSource::new(&data))
        .unwrap();
    let distributed = Framework::Ptj
        .execute_on(&coordinator, eps, domains, SliceSource::new(&data))
        .unwrap();
    assert_eq!(distributed.comm, reference.comm);
    drop(coordinator);
    cluster.join();
}

/// When recovery needs a rewind the source cannot provide, the fold fails
/// with `Unrecoverable` wrapping the original worker failure — never with
/// silently partial results.
#[test]
fn non_rewindable_source_fails_unrecoverably() {
    struct NonRewind<'a> {
        inner: SliceSource<'a, u32>,
    }
    impl ReportSource for NonRewind<'_> {
        type Item = u32;
        fn fill(&mut self, buf: &mut Vec<u32>, max: usize) -> Result<usize> {
            self.inner.fill(buf, max)
        }
        fn size_hint(&self) -> Option<u64> {
            self.inner.size_hint()
        }
        // rewind: deliberately left at the `Ok(false)` default.
    }

    let cluster = TestWorkers::start(1, 1);
    let plan = Exec::seeded(0);
    let coordinator = Coordinator::connect(&plan, &cluster.addrs).unwrap();
    let items: Vec<u32> = (0..5000).collect();
    let err = coordinator
        .fold(
            &mut NonRewind {
                inner: SliceSource::new(&items),
            },
            1,
            &AlienStage,
        )
        .unwrap_err();
    assert!(matches!(err, Error::Unrecoverable { .. }), "{err}");
    let message = err.to_string();
    assert!(message.contains("cannot rewind"), "{message}");
    assert!(
        message.contains("unknown stage kind"),
        "the original failure is preserved as the cause: {message}"
    );
    drop(coordinator);
    cluster.join();
}

/// A deterministic stage failure (out-of-domain item) fails every replay
/// target the same way, so it ends as a clean error from the local replay
/// — not a hang, not a poisoned socket.
#[test]
fn worker_stage_errors_propagate() {
    let domains = Domains::new(2, 16).unwrap();
    let mut data = pairs(3000, domains);
    data[2999] = LabelItem::new(9, 3); // label outside c=2

    let cluster = TestWorkers::start(2, 1);
    let plan = Exec::seeded(4);
    let coordinator = Coordinator::connect(&plan, &cluster.addrs).unwrap();
    let err = Framework::Ptj
        .execute_on(
            &coordinator,
            Eps::new(1.0).unwrap(),
            domains,
            SliceSource::new(&data),
        )
        .unwrap_err();
    assert!(err.to_string().contains("outside domain"), "{err}");
    // The failure reproduced on every target: the primary worker, the
    // rerouted worker, and finally the in-process replay (whence the
    // typed error instead of a worker's stringified one).
    assert!(!matches!(err, Error::Source { .. }), "{err}");
    let report = coordinator.session_report();
    assert!(report.worker_errors >= 2, "{report}");

    // Every connection was drained (one reply per worker), so a valid
    // retry on the same coordinator produces correct results.
    data.pop();
    let plan2 = Exec::seeded(4);
    let reference = Framework::Ptj
        .execute_on(
            &plan2.in_process(),
            Eps::new(1.0).unwrap(),
            domains,
            SliceSource::new(&data),
        )
        .unwrap();
    let retried = Framework::Ptj
        .execute_on(
            &coordinator,
            Eps::new(1.0).unwrap(),
            domains,
            SliceSource::new(&data),
        )
        .unwrap();
    assert_eq!(retried.comm, reference.comm);
    for label in 0..2 {
        for item in 0..16 {
            assert!(retried.table.get(label, item) == reference.table.get(label, item));
        }
    }
    drop(coordinator);
    cluster.join();
}

/// A job or spec stamped with another RNG contract is refused on both
/// ends: the worker drains the job and replies `Err` naming both
/// versions, and the coordinator refuses to ship (or locally fold) it.
#[test]
fn other_contract_jobs_and_specs_are_refused() {
    use mcim_dist::proto::{read_frame, write_frame};
    use mcim_dist::{Frame, ShardAssignment, PROTOCOL_VERSION};
    use mcim_oracles::exec::RNG_CONTRACT;

    let mut script = Vec::new();
    for frame in [
        Frame::Hello {
            version: PROTOCOL_VERSION,
        },
        Frame::Job {
            stage_seed: 1,
            contract: 3,
            kind: "fw/pts".into(),
            payload: Vec::new(),
            shards: ShardAssignment::Range { first: 0, end: 1 },
        },
        Frame::Flush,
        Frame::Shutdown,
    ] {
        write_frame(&mut script, &frame).unwrap();
    }
    let mut replies = Vec::new();
    builtin_worker()
        .serve_io(&script[..], &mut replies)
        .unwrap();
    let mut replies = &replies[..];
    assert!(matches!(
        read_frame(&mut replies).unwrap(),
        Some(Frame::Hello { .. })
    ));
    match read_frame(&mut replies).unwrap() {
        Some(Frame::Err { message }) => {
            assert!(message.contains("declares v3"), "{message}");
            assert!(
                message.contains(&format!("implements v{RNG_CONTRACT}")),
                "{message}"
            );
        }
        other => panic!("expected an Err reply, got {other:?}"),
    }
    assert_eq!(read_frame(&mut replies).unwrap(), None);

    struct StaleStage;
    impl Stage for StaleStage {
        type Item = u32;
        type Acc = u64;
        fn template(&self) -> u64 {
            0
        }
        fn fold(
            &self,
            _rng: &mut rand::rngs::StdRng,
            _abs: u64,
            items: &[u32],
            acc: &mut u64,
        ) -> Result<()> {
            *acc += items.len() as u64;
            Ok(())
        }
        fn merge(&self, into: &mut u64, from: &u64) -> Result<()> {
            *into += *from;
            Ok(())
        }
        fn spec(&self) -> Option<StageSpec> {
            Some(StageSpec {
                contract: 3,
                ..StageSpec::new("fw/pts", |_| {})
            })
        }
    }
    let cluster = TestWorkers::start(1, 1);
    let coordinator = Coordinator::connect(&Exec::seeded(0), &cluster.addrs).unwrap();
    let items: Vec<u32> = (0..100).collect();
    let err = coordinator
        .fold(&mut SliceSource::new(&items), 1, &StaleStage)
        .unwrap_err();
    assert!(
        matches!(
            err,
            Error::InvalidParameter {
                name: "rng-contract",
                ..
            }
        ),
        "{err}"
    );
    drop(coordinator);
    cluster.join();
}

/// A PEM round spec whose prefix is longer than its domain's code used to
/// decode and then panic the worker on the first valid item. Both round
/// kinds are now refused at decode: the worker drains the job, replies
/// `Err`, and serves the next, well-formed job of the same kind.
#[test]
fn pem_rounds_with_overlong_prefixes_are_refused() {
    use mcim_dist::proto::{read_frame, write_frame};
    use mcim_dist::{Frame, ShardAssignment, PROTOCOL_VERSION};
    use mcim_oracles::exec::RNG_CONTRACT;
    use mcim_oracles::wire::Wire;

    // ε = 2, domain 2048 (11-bit codes), candidates [0, 1].
    let payload = |prefix_len: u32| {
        let mut buf = Vec::new();
        2.0f64.put(&mut buf);
        2048u32.put(&mut buf);
        prefix_len.put(&mut buf);
        vec![0u32, 1].put(&mut buf);
        buf
    };
    let mut items = Vec::new();
    vec![Some(5u32), None, Some(2047)].put(&mut items);

    let kinds = ["pem/vp-round", "pem/oracle-round"];
    let mut script = Vec::new();
    write_frame(
        &mut script,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
        },
    )
    .unwrap();
    for kind in kinds {
        for prefix_len in [40, 11] {
            for frame in [
                Frame::Job {
                    stage_seed: 1,
                    contract: RNG_CONTRACT,
                    kind: kind.into(),
                    payload: payload(prefix_len),
                    shards: ShardAssignment::Range { first: 0, end: 1 },
                },
                Frame::Chunk {
                    first_abs: 0,
                    items: items.clone(),
                },
                Frame::Flush,
            ] {
                write_frame(&mut script, &frame).unwrap();
            }
        }
    }
    write_frame(&mut script, &Frame::Shutdown).unwrap();

    let mut replies = Vec::new();
    builtin_worker()
        .serve_io(&script[..], &mut replies)
        .unwrap();
    let mut replies = &replies[..];
    assert!(matches!(
        read_frame(&mut replies).unwrap(),
        Some(Frame::Hello { .. })
    ));
    for kind in kinds {
        match read_frame(&mut replies).unwrap() {
            Some(Frame::Err { message }) => assert!(message.contains("prefix_len"), "{message}"),
            other => panic!("{kind}: expected an Err reply, got {other:?}"),
        }
        match read_frame(&mut replies).unwrap() {
            Some(Frame::Partial { .. }) => {}
            other => panic!("{kind}: expected a Partial reply, got {other:?}"),
        }
    }
    assert_eq!(read_frame(&mut replies).unwrap(), None);
}

/// Zero workers is an immediate configuration error.
#[test]
fn empty_worker_set_is_rejected() {
    let plan = Exec::seeded(0);
    let err = match Coordinator::connect(&plan, &Vec::<String>::new()) {
        Ok(_) => panic!("zero workers must be rejected"),
        Err(e) => e,
    };
    assert!(matches!(err, Error::InvalidParameter { .. }), "{err}");
}

/// More workers than shards: the surplus workers stay idle (no empty
/// no-op jobs on the wire) and the result is still identical.
#[test]
fn more_workers_than_shards_is_fine() {
    let domains = Domains::new(2, 32).unwrap();
    let data = pairs(1500, domains); // < one shard
    let eps = Eps::new(2.0).unwrap();
    let plan = Exec::seeded(8);
    let reference = Framework::Pts { label_frac: 0.5 }
        .execute_on(&plan.in_process(), eps, domains, SliceSource::new(&data))
        .unwrap();
    let cluster = TestWorkers::start(4, 1);
    let coordinator = Coordinator::connect(&plan, &cluster.addrs).unwrap();
    let distributed = Framework::Pts { label_frac: 0.5 }
        .execute_on(&coordinator, eps, domains, SliceSource::new(&data))
        .unwrap();
    assert_eq!(distributed.comm, reference.comm);
    for label in 0..2 {
        for item in 0..32 {
            assert!(distributed.table.get(label, item) == reference.table.get(label, item));
        }
    }
    let report = coordinator.last_fold_report().unwrap();
    assert_eq!(report.workers, 4, "{report}");
    assert_eq!(report.workers_used, 1, "one shard, one job: {report}");
    assert!(!report.degraded(), "{report}");
    drop(coordinator);
    cluster.join();
}
