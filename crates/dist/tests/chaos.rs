//! The chaos suite: workers that die, stall, truncate and lag at scripted
//! points of the wire conversation, and the property every test asserts —
//! the recovered fold is **bit-identical** to the unfailed run.
//!
//! Workers here are real `builtin_worker()` frame loops over real loopback
//! TCP, with [`fault::scripted`] wrapped around the worker's side of the
//! socket so faults fire at exact frame boundaries (see
//! `mcim_dist::proto::fault`). Frame indices used below, counted on the
//! worker side: reads complete Hello at 1 and Job at 2 (so the first
//! Chunk is *frame index 2*, the third frame); writes count the Hello
//! reply as frame 0 and the Partial as frame 1.
//!
//! Per the workspace determinism rules, no test measures time — stalls
//! are asserted through *behavior* (the fold recovers and the report says
//! a worker was lost), never through clocks.

use std::net::TcpListener;
use std::thread::JoinHandle;

use mcim_core::{Domains, EstimationResult, Framework, LabelItem};
use mcim_dist::proto::fault::{self, Fault, FaultPlan};
use mcim_dist::{builtin_worker, Coordinator, DistConfig};
use mcim_oracles::exec::{Exec, Executor, FoldReport};
use mcim_oracles::stream::{ReportSource, SliceSource};
use mcim_oracles::{Eps, Result};
use mcim_topk::{Pem, PemConfig};

mod session;
use session::Session;

/// Workers on loopback TCP, each serving exactly one connection through a
/// scripted fault plan on its own thread. An empty plan is a healthy
/// worker.
struct ChaosWorkers {
    addrs: Vec<String>,
    handles: Vec<JoinHandle<()>>,
}

impl ChaosWorkers {
    fn start(plans: Vec<FaultPlan>) -> Self {
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for plan in plans {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            addrs.push(listener.local_addr().expect("local addr").to_string());
            handles.push(std::thread::spawn(move || {
                let worker = builtin_worker();
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
                let Ok((reader, writer)) = fault::scripted(stream, plan) else {
                    return;
                };
                // A faulted conversation ends in an I/O error by design;
                // the assertions live on the coordinator side.
                let _ = worker.serve_io(reader, writer);
            }));
        }
        ChaosWorkers { addrs, handles }
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

fn assert_tables_identical(got: &EstimationResult, want: &EstimationResult, ctx: &str) {
    assert_eq!(got.comm, want.comm, "{ctx}: comm diverged");
    let domains = want.table.domains();
    let (classes, items) = (domains.classes(), domains.items());
    for label in 0..classes {
        for item in 0..items {
            assert!(
                got.table.get(label, item) == want.table.get(label, item),
                "{ctx}: diverged at ({label},{item})"
            );
        }
    }
}

/// Runs one PtsCp estimation through a chaos cluster and returns the
/// result plus the coordinator's fold report.
fn chaos_fold(
    plan: &Exec,
    config: DistConfig,
    plans: Vec<FaultPlan>,
    data: &[LabelItem],
    domains: Domains,
) -> (EstimationResult, FoldReport) {
    chaos_fold_from(plan, config, plans, SliceSource::new(data), domains)
}

/// [`chaos_fold`] over any source of pairs.
fn chaos_fold_from(
    plan: &Exec,
    config: DistConfig,
    plans: Vec<FaultPlan>,
    source: impl ReportSource<Item = LabelItem>,
    domains: Domains,
) -> (EstimationResult, FoldReport) {
    let cluster = ChaosWorkers::start(plans);
    let coordinator = Coordinator::connect_with(plan, &cluster.addrs, config).expect("connect");
    let result = Framework::PtsCp { label_frac: 0.5 }
        .execute_on(&coordinator, Eps::new(2.0).expect("eps"), domains, source)
        .expect("a chaos fold must recover");
    let report = coordinator.last_fold_report().expect("a report per fold");
    drop(coordinator);
    cluster.join();
    (result, report)
}

/// Reference setup shared by the matrix tests: 6 shards of data split
/// across 2 workers (worker 0 owns shards 0–2, worker 1 owns 3–5), one
/// 4096-item Chunk frame per shard.
fn matrix_fixture() -> (Exec, Domains, Vec<LabelItem>, EstimationResult) {
    let domains = Domains::new(3, 64).expect("domains");
    let data = pairs(5 * 4096 + 20, domains);
    let plan = Exec::seeded(42).threads(2).chunk_size(4096);
    let reference = Framework::PtsCp { label_frac: 0.5 }
        .execute_on(
            &plan.in_process(),
            Eps::new(2.0).expect("eps"),
            domains,
            SliceSource::new(&data),
        )
        .expect("reference");
    (plan, domains, data, reference)
}

/// THE acceptance property: a worker killed partway through a Chunk
/// frame's body loses its whole shard range, and the recovered fold is
/// bit-identical both to in-process execution and to an unfailed
/// distributed run.
#[test]
fn worker_killed_mid_chunk_is_bit_identical() {
    let (plan, domains, data, reference) = matrix_fixture();

    let (failed, report) = chaos_fold(
        &plan,
        DistConfig::default(),
        vec![
            FaultPlan::new().with(Fault::DieInsideFrame { index: 2 }),
            FaultPlan::new(),
        ],
        &data,
        domains,
    );
    assert_tables_identical(&failed, &reference, "mid-chunk kill vs in-process");
    assert_eq!(report.workers_lost, 1, "{report:?}");
    assert_eq!(report.reroutes, 1, "{report:?}");
    assert_eq!(report.rerouted_shards, 3, "{report:?}");
    assert!(!report.local_fallback, "{report:?}");
    assert!(report.degraded(), "{report:?}");

    // And against an unfailed single-worker distributed run: the survivor
    // plus re-route must equal the topology that never failed.
    let (unfailed, clean_report) = chaos_fold(
        &plan,
        DistConfig::default(),
        vec![FaultPlan::new()],
        &data,
        domains,
    );
    assert_tables_identical(&unfailed, &reference, "unfailed 1-worker vs in-process");
    assert!(!clean_report.degraded(), "{clean_report:?}");
    assert_tables_identical(&failed, &unfailed, "mid-chunk kill vs unfailed 1-worker");
}

/// A worker that dies right after the handshake (before ever seeing a
/// Job) is detected while streaming and its shards are re-routed.
#[test]
fn worker_killed_before_job_is_bit_identical() {
    let (plan, domains, data, reference) = matrix_fixture();
    let (result, report) = chaos_fold(
        &plan,
        DistConfig::default(),
        vec![
            FaultPlan::new().with(Fault::DieAfterReadingFrames(1)),
            FaultPlan::new(),
        ],
        &data,
        domains,
    );
    assert_tables_identical(&result, &reference, "pre-job kill");
    assert_eq!(report.workers_lost, 1, "{report:?}");
    assert_eq!(report.rerouted_shards, 3, "{report:?}");
}

/// A worker that folds everything but dies after reading Flush — its
/// Partial is never written (truncated at byte 0). The work is lost and
/// redone elsewhere; the result does not change.
#[test]
fn worker_killed_after_flush_is_bit_identical() {
    let (plan, domains, data, reference) = matrix_fixture();
    let (result, report) = chaos_fold(
        &plan,
        DistConfig::default(),
        vec![
            FaultPlan::new().with(Fault::TruncateWrittenFrame {
                index: 1,
                keep_bytes: 0,
            }),
            FaultPlan::new(),
        ],
        &data,
        domains,
    );
    assert_tables_identical(&result, &reference, "post-flush kill");
    assert_eq!(report.workers_lost, 1, "{report:?}");
    assert_eq!(report.rerouted_shards, 3, "{report:?}");
}

/// A Partial cut off mid-frame (9 bytes: the length prefix plus a sliver
/// of body) is an unreadable reply, not a crash: the shards are re-routed
/// and the result is identical.
#[test]
fn truncated_partial_frame_is_bit_identical() {
    let (plan, domains, data, reference) = matrix_fixture();
    let (result, report) = chaos_fold(
        &plan,
        DistConfig::default(),
        vec![
            FaultPlan::new().with(Fault::TruncateWrittenFrame {
                index: 1,
                keep_bytes: 9,
            }),
            FaultPlan::new(),
        ],
        &data,
        domains,
    );
    assert_tables_identical(&result, &reference, "truncated partial");
    assert_eq!(report.workers_lost, 1, "{report:?}");
    assert_eq!(report.rerouted_shards, 3, "{report:?}");
}

/// A worker that stops consuming input and just holds the socket open: a
/// hang, the failure mode timeouts exist for. With a read/write deadline
/// configured, the hung worker surfaces as an ordinary transport loss and
/// the fold recovers; without one it would block forever.
#[test]
fn stalled_worker_times_out_and_is_rerouted() {
    let (plan, domains, data, reference) = matrix_fixture();
    let config = DistConfig {
        io_timeout: Some(std::time::Duration::from_millis(150)),
        ..DistConfig::default()
    };
    let (result, report) = chaos_fold(
        &plan,
        config,
        vec![
            // Reads Hello + Job, then never consumes another byte. The
            // hold is long enough that the coordinator's 150ms deadline
            // always fires first, and bounded so the worker thread (and
            // the test) cannot leak forever.
            FaultPlan::new().with(Fault::StallAfterReadingFrames {
                frames: 2,
                hold_millis: 2_000,
            }),
            FaultPlan::new(),
        ],
        &data,
        domains,
    );
    assert_tables_identical(&result, &reference, "stalled worker");
    assert_eq!(report.workers_lost, 1, "{report:?}");
    assert_eq!(report.rerouted_shards, 3, "{report:?}");
}

/// A slow-but-alive worker (delayed reply, no deadline configured) is not
/// a failure at all: nothing is lost, nothing re-routed.
#[test]
fn slow_worker_without_deadline_is_not_a_failure() {
    let (plan, domains, data, reference) = matrix_fixture();
    let (result, report) = chaos_fold(
        &plan,
        DistConfig::default(),
        vec![
            FaultPlan::new().with(Fault::DelayWrittenFrames {
                from_index: 1,
                millis: 120,
            }),
            FaultPlan::new(),
        ],
        &data,
        domains,
    );
    assert_tables_identical(&result, &reference, "slow worker");
    assert!(!report.degraded(), "{report:?}");
}

/// Three workers, two of them lost in the first pass (worker 0 owns shards
/// 0–1, worker 1 shards 2–3, worker 2 shards 4–5): both lost assignments
/// replay on the one survivor, and nothing folds in-process.
#[test]
fn two_lost_assignments_replay_on_one_survivor() {
    let (plan, domains, data, reference) = matrix_fixture();
    let (result, report) = chaos_fold(
        &plan,
        DistConfig::default(),
        vec![
            FaultPlan::new().with(Fault::DieInsideFrame { index: 2 }),
            FaultPlan::new().with(Fault::DieInsideFrame { index: 2 }),
            FaultPlan::new(),
        ],
        &data,
        domains,
    );
    assert_tables_identical(&result, &reference, "two lost, one survivor");
    let want = FoldReport {
        workers: 3,
        workers_used: 1,
        workers_lost: 2,
        reroutes: 2,
        rerouted_shards: 4,
        ..FoldReport::default()
    };
    assert_eq!(report, want);
}

/// A source that can rewind but declares no size: the jobs take stride
/// assignments (worker 0 owns shards 0, 2, 4), and the lost stride replays
/// on the survivor.
#[test]
fn unsized_source_replays_a_lost_stride() {
    struct Unsized<'a>(SliceSource<'a, LabelItem>);
    impl ReportSource for Unsized<'_> {
        type Item = LabelItem;
        fn fill(&mut self, buf: &mut Vec<LabelItem>, max: usize) -> Result<usize> {
            self.0.fill(buf, max)
        }
        // size_hint: deliberately absent.
        fn rewind(&mut self, n: u64) -> Result<bool> {
            self.0.rewind(n)
        }
    }

    let (plan, domains, data, reference) = matrix_fixture();
    let (result, report) = chaos_fold_from(
        &plan,
        DistConfig::default(),
        vec![
            FaultPlan::new().with(Fault::DieInsideFrame { index: 2 }),
            FaultPlan::new(),
        ],
        Unsized(SliceSource::new(&data)),
        domains,
    );
    assert_tables_identical(&result, &reference, "lost stride");
    let want = FoldReport {
        workers: 2,
        workers_used: 1,
        workers_lost: 1,
        reroutes: 1,
        rerouted_shards: 3,
        ..FoldReport::default()
    };
    assert_eq!(report, want);
}

/// With no re-route budget, a lost assignment folds in-process even though
/// a healthy survivor is connected.
#[test]
fn zero_reroute_budget_folds_the_lost_assignment_locally() {
    let (plan, domains, data, reference) = matrix_fixture();
    let config = DistConfig {
        max_reroutes: 0,
        ..DistConfig::default()
    };
    let (result, report) = chaos_fold(
        &plan,
        config,
        vec![
            FaultPlan::new().with(Fault::DieInsideFrame { index: 2 }),
            FaultPlan::new(),
        ],
        &data,
        domains,
    );
    assert_tables_identical(&result, &reference, "zero budget");
    let want = FoldReport {
        workers: 2,
        workers_used: 1,
        workers_lost: 1,
        local_shards: 3,
        local_fallback: true,
        ..FoldReport::default()
    };
    assert_eq!(report, want);
}

/// The replay target dies inside its replay job: worker 1 serves its own
/// job, reads the replay through Flush, and dies before its second Partial
/// (written frame 2) leaves. No worker is left, so the assignment folds
/// in-process.
#[test]
fn replay_target_killed_mid_replay_falls_back_to_local() {
    let (plan, domains, data, reference) = matrix_fixture();
    let (result, report) = chaos_fold(
        &plan,
        DistConfig::default(),
        vec![
            FaultPlan::new().with(Fault::DieInsideFrame { index: 2 }),
            FaultPlan::new().with(Fault::TruncateWrittenFrame {
                index: 2,
                keep_bytes: 0,
            }),
        ],
        &data,
        domains,
    );
    assert_tables_identical(&result, &reference, "replay target killed");
    let want = FoldReport {
        workers: 2,
        workers_used: 1,
        workers_lost: 2,
        reroutes: 1,
        local_shards: 3,
        local_fallback: true,
        ..FoldReport::default()
    };
    assert_eq!(report, want);
}

/// As above, but the replay target dies inside its first replayed Chunk
/// (read frame 7, after Hello, Job, three Chunks, Flush and the replay
/// Job). The coordinator may see the death on a later send, mid-stream;
/// the pass still reads the source to its end, so the in-process pass
/// after it starts from the fold's first item.
#[test]
fn replay_target_killed_mid_chunk_falls_back_to_local() {
    let (plan, domains, data, reference) = matrix_fixture();
    let (result, report) = chaos_fold(
        &plan,
        DistConfig::default(),
        vec![
            FaultPlan::new().with(Fault::DieInsideFrame { index: 2 }),
            FaultPlan::new().with(Fault::DieInsideFrame { index: 7 }),
        ],
        &data,
        domains,
    );
    assert_tables_identical(&result, &reference, "replay target killed mid-chunk");
    let want = FoldReport {
        workers: 2,
        workers_used: 1,
        workers_lost: 2,
        reroutes: 1,
        local_shards: 3,
        local_fallback: true,
        ..FoldReport::default()
    };
    assert_eq!(report, want);
}

/// Every worker dies: the fold falls back to replaying every lost shard
/// in-process, still bit-identical — and the next fold on the now
/// worker-less coordinator degrades cleanly to in-process execution
/// instead of erroring (attrition is not shutdown).
#[test]
fn losing_every_worker_falls_back_to_local_and_stays_usable() {
    let (plan, domains, data, reference) = matrix_fixture();
    let cluster = ChaosWorkers::start(vec![
        FaultPlan::new().with(Fault::DieInsideFrame { index: 2 }),
        FaultPlan::new().with(Fault::DieInsideFrame { index: 2 }),
    ]);
    let coordinator =
        Coordinator::connect_with(&plan, &cluster.addrs, DistConfig::default()).expect("connect");
    let session = Session::new(&coordinator);
    let eps = Eps::new(2.0).expect("eps");
    let result = Framework::PtsCp { label_frac: 0.5 }
        .execute_on(&session, eps, domains, SliceSource::new(&data))
        .expect("total loss must still fold");
    assert_tables_identical(&result, &reference, "all workers dead");
    let report = coordinator.last_fold_report().expect("report");
    assert_eq!(report.workers_lost, 2, "{report:?}");
    assert!(report.local_fallback, "{report:?}");
    assert_eq!(
        report.local_shards, 6,
        "every shard replayed locally: {report:?}"
    );
    assert_eq!(coordinator.workers(), 0, "attrition emptied the pool");

    // The coordinator was never shut down; later folds keep working.
    let again = Framework::PtsCp { label_frac: 0.5 }
        .execute_on(&session, eps, domains, SliceSource::new(&data))
        .expect("worker-less coordinator degrades to in-process");
    assert_tables_identical(&again, &reference, "fold after total attrition");
    let report = coordinator.last_fold_report().expect("report");
    assert!(report.local_fallback, "{report:?}");

    let total = session.report();
    assert_eq!(total.workers_lost, 2, "{total:?}");
    assert!(total.local_fallback, "{total:?}");

    drop(coordinator);
    cluster.join();
}

/// A multi-round PEM mine that loses a worker in round one: the lost
/// round-1 shards are re-routed (exercising rewind through the `Take`
/// views each round carves from the source), the survivor serves the
/// remaining rounds alone, and the mined top-k is bit-identical.
#[test]
fn pem_mine_survives_worker_loss_mid_round() {
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
    let eps = Eps::new(4.0).expect("eps");
    let pem = Pem::new(d, PemConfig::new(4).with_validity()).expect("pem");
    let plan = Exec::seeded(9).threads(2).chunk_size(4096);

    let reference = pem
        .execute_on(&plan.in_process(), eps, 9, SliceSource::new(&items))
        .expect("reference");

    let cluster = ChaosWorkers::start(vec![
        FaultPlan::new().with(Fault::DieInsideFrame { index: 2 }),
        FaultPlan::new(),
    ]);
    let coordinator =
        Coordinator::connect_with(&plan, &cluster.addrs, DistConfig::default()).expect("connect");
    let session = Session::new(&coordinator);
    let mined = pem
        .execute_on(&session, eps, 9, SliceSource::new(&items))
        .expect("mine through the loss");
    assert_eq!(mined.top, reference.top);
    assert_eq!(mined.comm, reference.comm);

    let total = session.report();
    assert_eq!(total.workers_lost, 1, "{total:?}");
    assert!(total.rerouted_shards > 0, "{total:?}");
    assert_eq!(coordinator.workers(), 1, "the survivor serves the rest");

    drop(coordinator);
    cluster.join();
}
