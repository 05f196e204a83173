//! # mcim-dist
//!
//! Multi-process distributed reducer for *Multi-class Item Mining under
//! Local Differential Privacy*: a socket-backed
//! [`Executor`](mcim_oracles::exec::Executor) backend that shards the
//! pipelines' bulk privatize+aggregate stages across worker processes.
//!
//! The paper's protocols are embarrassingly parallel over user reports,
//! and PR 4 left exactly one seam for scaling past a single process: the
//! `Executor` trait with its absolute-shard / per-shard-RNG / associative-
//! merge contract. This crate implements the second backend:
//!
//! * [`proto`] — a hand-rolled, length-prefixed binary wire protocol
//!   carrying the stage spec, absolute shard assignments, report chunks
//!   and serialized accumulator partials,
//! * [`Worker`] — the worker-process loop: rebuild the stage from its
//!   [`StageSpec`](mcim_oracles::wire::StageSpec) via the [`Registry`],
//!   replay the same SplitMix64-derived per-shard RNG streams the
//!   in-process executor uses, fold the owned shard ranges, ship the
//!   partial back,
//! * [`Coordinator`] — the `Executor` implementation: stream the
//!   [`ReportSource`](mcim_oracles::stream::ReportSource) out over TCP,
//!   merge partials in shard order.
//!
//! Because both backends honor the same shard contract,
//! `Framework::execute_on`, `PemEngine::execute_round_on`,
//! `Pem::execute_on` and `mcim_topk::execute_on` produce **bit-identical**
//! results on a `Coordinator` as on
//! [`InProcess`](mcim_oracles::exec::InProcess) — for every worker count,
//! thread count and chunk size. The workspace's distributed equivalence
//! matrix (`crates/cli/tests/dist_equivalence.rs`, run in CI with 1, 2 and
//! 4 spawned workers) locks that in.
//!
//! ## Fault tolerance: passes over the source
//!
//! The same shard contract that makes results placement-independent makes
//! them **failure-independent**: a shard's fold depends only on
//! `(stage_seed, shard, items)`, never on which process folds it. So a
//! [`Coordinator`] fold is a sequence of passes over the source. The first
//! ships every shard assignment to its worker. When a worker dies mid-fold
//! (socket error, kill, hang past [`DistConfig::io_timeout`]) or refuses a
//! job, its assignment is lost, and the next pass
//! [`rewind`](mcim_oracles::stream::ReportSource::rewind)s the source and
//! ships the lost assignments to surviving workers, one each — or folds
//! them in-process when no worker or re-route budget is left. The fold's
//! result is bit-identical to the unfailed run. The chaos suite
//! (`crates/dist/tests/chaos.rs`) asserts exactly that, killing workers
//! at scripted frame boundaries via the [`proto::fault`] seam. Recovery
//! requires a rewindable source
//! (`SliceSource`, the dataset file/synthetic sources, and `Take` views of
//! them all are); a non-rewindable source fails the fold with
//! [`Unrecoverable`](mcim_oracles::Error::Unrecoverable) instead of
//! returning partial data. Per-fold failure accounting is reported through
//! [`Executor::last_fold_report`](mcim_oracles::exec::Executor::last_fold_report);
//! the `mcim_dist_*` metrics carry the session totals.
//!
//! ## Lint-enforced determinism
//!
//! The wire paths in this crate (`proto.rs`, `coord.rs`, `worker.rs`) are
//! **statically enforced deterministic** by the workspace's invariant
//! checker (`cargo run -p mcim-lint`, see the README's "Static analysis"
//! section): hashed containers (`HashMap`/`HashSet` iterate in a
//! per-process random order), ambient entropy (`thread_rng`,
//! `SystemTime::now`, `Instant::now`) and panicking shortcuts
//! (`unwrap`/`expect`/`panic!`) are all banned here, so nothing
//! order-dependent or process-local can leak into an encoded frame and a
//! malformed frame can never crash a worker. Lookup tables use ordered
//! containers (the [`Registry`] is a `BTreeMap`); the
//! encode → decode → re-encode byte-identity of every frame is
//! property-tested in `tests/proto_roundtrip.rs`, and the bytes of every
//! frame, item, stage payload and partial are pinned by the wire golden
//! table (`tests/wire_golden.rs`).
//!
//! ## Quick start
//!
//! ```text
//! # terminal 1 and 2: workers
//! mcim worker --listen 127.0.0.1:7001
//! mcim worker --listen 127.0.0.1:7002
//!
//! # terminal 3: any freq/topk run, distributed
//! mcim freq --input pairs.csv --eps 2.0 --dist 127.0.0.1:7001,127.0.0.1:7002
//! # or let the CLI spawn+reap local workers:
//! mcim freq --input pairs.csv --eps 2.0 --dist-spawn 4
//! ```
//!
//! Library-side:
//!
//! ```no_run
//! use mcim_core::{Domains, Framework};
//! use mcim_dist::Coordinator;
//! use mcim_oracles::exec::Exec;
//! use mcim_oracles::stream::SliceSource;
//! use mcim_oracles::Eps;
//!
//! let plan = Exec::seeded(7);
//! let coordinator = Coordinator::connect(&plan, &["127.0.0.1:7001", "127.0.0.1:7002"])?;
//! let domains = Domains::new(4, 1024)?;
//! let pairs = Vec::new();
//! let result = Framework::PtsCp { label_frac: 0.5 }.execute_on(
//!     &coordinator,
//!     Eps::new(2.0)?,
//!     domains,
//!     SliceSource::new(&pairs),
//! )?;
//! # let _ = result;
//! # Ok::<(), mcim_oracles::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod proto;

mod coord;
mod spawn;
mod worker;

pub use coord::{Coordinator, DistConfig};
pub use proto::{Frame, ShardAssignment, MAX_FRAME, PROTOCOL_VERSION};
pub use spawn::{spawn_local_workers, SpawnedWorkers, LISTENING_PREFIX};
pub use worker::{Registry, Worker};

use mcim_core::frameworks::stages::{CpArm, FwStage, HecArm, PtjArm, PtsArm};
use mcim_oracles::{Error, Result};
use mcim_topk::{PemOracleRoundStage, PemVpRoundStage};

/// The registry of every distributable stage in the workspace: the four
/// framework arms (HEC / PTJ / PTS / PTS-CP) and the two PEM round stages
/// (validity-perturbation and adaptive-oracle) that power `Pem` mining and
/// the multi-class top-k methods.
pub fn builtin_registry() -> Registry {
    let mut registry = Registry::new();
    registry.register::<FwStage<HecArm>>();
    registry.register::<FwStage<PtjArm>>();
    registry.register::<FwStage<PtsArm>>();
    registry.register::<FwStage<CpArm>>();
    registry.register::<PemVpRoundStage>();
    registry.register::<PemOracleRoundStage>();
    registry
}

/// A [`Worker`] over the [`builtin_registry`].
pub fn builtin_worker() -> Worker {
    Worker::new(builtin_registry())
}

/// The body of a `worker` subcommand: bind `listen_addr` (port 0 picks an
/// ephemeral port), announce [`LISTENING_PREFIX`]` <addr>` on stdout, and
/// serve — one connection with `once` (spawned workers exit with their
/// coordinator), forever otherwise.
pub fn worker_main(listen_addr: &str, once: bool) -> Result<()> {
    let listener = std::net::TcpListener::bind(listen_addr)
        .map_err(|e| Error::transport(format!("binding {listen_addr}"), e))?;
    let local = listener
        .local_addr()
        .map_err(|e| Error::transport("reading the bound address", e))?;
    // Best-effort announcement (piped parents read it; broken pipes must
    // not kill the worker).
    use std::io::Write;
    let mut stdout = std::io::stdout();
    let _ = writeln!(stdout, "{LISTENING_PREFIX}{local}");
    let _ = stdout.flush();
    let worker = builtin_worker();
    if once {
        worker.serve_once(&listener)
    } else {
        worker.serve(&listener)
    }
}
