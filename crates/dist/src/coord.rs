//! The coordinator: a socket-backed [`Executor`] that shards a pipeline
//! stage across worker processes.
//!
//! [`Coordinator::fold`] is the whole trick: it ships the stage's
//! [`spec`](Stage::spec) to every connected worker, streams the
//! [`ReportSource`] out in shard-aligned chunks (each worker owns an
//! absolute shard range, so the per-shard RNG streams land exactly where
//! [`InProcess`] would put them), and merges the serialized partials back
//! in worker order. Because the shard contract fixes boundaries, RNG
//! streams and merge associativity, the result is **bit-identical** to
//! in-process execution for every worker count and chunk size — proven by
//! the workspace's distributed equivalence matrix.
//!
//! Stages without a spec (ad-hoc closure stages) fall back to in-process
//! execution: the contract makes that equally correct, just local.
//!
//! ## Fault tolerance: a fold is a sequence of passes
//!
//! A fold survives worker failure because a lost worker's
//! [`ShardAssignment`] is *recomputable anywhere*: the shard contract
//! derives shard `s`'s RNG stream from `(stage_seed, s)` — never from the
//! host that folds it — and merges only disjoint shard ranges. So a fold
//! runs in passes over the source, each streaming it from the fold's
//! start to its end:
//!
//! * pass 0 ships every assignment to its worker;
//! * an assignment is lost when its worker dies (transport error) or
//!   refuses it (an `Err` reply, or a partial that does not decode);
//! * each later pass [`rewind`](ReportSource::rewind)s the source and
//!   ships the assignments the previous pass lost. Every surviving worker
//!   that refused nothing this fold takes one, while
//!   [`DistConfig::max_reroutes`] lasts, and the rest wait for the next
//!   pass. With no such worker left, or the budget spent, every lost
//!   assignment folds in-process through one [`ShardCursor`], as a worker
//!   would fold it.
//!
//! The recovered result is bit-identical to the unfailed run; the only
//! observable difference is the fold's [`FoldReport`]. A later pass that
//! streams another item count than pass 0 fails the fold with
//! [`Error::Source`].
//!
//! Recovery needs a rewindable source. When the source cannot rewind,
//! the fold fails with [`Error::Unrecoverable`] wrapping the original
//! worker failure. Timeouts ([`DistConfig::io_timeout`]) turn a *hung*
//! worker into an ordinary transport failure so it enters the same path.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use mcim_oracles::exec::{check_contract, Exec, Executor, FoldReport, InProcess, Stage};
use mcim_oracles::parallel::SHARD_SIZE;
use mcim_oracles::stream::{chunk_buffer, fill_chunk, ReportSource, ShardCursor};
use mcim_oracles::wire::{StageSpec, Wire, WireReader, WireState};
use mcim_oracles::{Error, Result};

use crate::proto::count::{CountingReader, CountingWriter, IoStats};
use crate::proto::{
    expect_frame, write_chunk_frame, write_frame, Frame, ShardAssignment, MAX_CHUNK_PAYLOAD,
};
use crate::spawn::{spawn_local_workers, SpawnedWorkers};
use crate::PROTOCOL_VERSION;

/// Transport-hardening knobs of a [`Coordinator`] session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistConfig {
    /// Total TCP connection attempts per worker address (≥ 1). Retries
    /// cover establishing the connection; a failed *handshake* (version
    /// mismatch) fails fast, since retrying cannot fix it.
    pub connect_attempts: u32,
    /// Base delay of the deterministic exponential backoff between
    /// connection attempts (see [`DistConfig::backoff_delay`]).
    pub connect_backoff: Duration,
    /// Socket read/write deadline for every worker conversation. A hung
    /// worker then surfaces as a `Transport` error (and enters shard
    /// re-routing) instead of blocking the fold forever. `None` (the
    /// default) blocks indefinitely; must be nonzero when set.
    pub io_timeout: Option<Duration>,
    /// Upper bound on replay jobs re-routed to surviving workers within
    /// one fold; assignments beyond it are replayed in-process.
    pub max_reroutes: u32,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            connect_attempts: 3,
            connect_backoff: Duration::from_millis(25),
            io_timeout: None,
            max_reroutes: 8,
        }
    }
}

impl DistConfig {
    /// The delay before retry number `retry` (0-based): the base backoff
    /// doubled per retry, capped at one second. Deliberately jitter-free —
    /// the workspace's determinism rules ban ambient entropy, and the
    /// coordinator retries a handful of known addresses, not a fleet.
    pub fn backoff_delay(&self, retry: u32) -> Duration {
        let base = u64::try_from(self.connect_backoff.as_millis()).unwrap_or(u64::MAX);
        let factor = 1u64 << retry.min(10);
        Duration::from_millis(base.saturating_mul(factor).min(1_000))
    }
}

/// One worker connection (buffered writer for the chunk torrent, direct
/// reader for the single partial per job). Both halves run through the
/// [`count`](crate::proto::count) wrappers, so byte/frame tallies
/// accumulate as a side effect of ordinary I/O.
struct WorkerConn {
    peer: String,
    /// Position in the connect-time address list — the stable `worker`
    /// metric label. Peer addresses would not do: spawned workers bind
    /// ephemeral ports, which would break run-to-run snapshot identity.
    index: usize,
    stats: Arc<IoStats>,
    round_trips: u64,
    /// The [`io_tallies`](WorkerConn::io_tallies) already exported, so each
    /// flush exports only the delta since the previous one.
    flushed: [u64; 5],
    /// The reused encode buffer of outgoing Chunk payloads.
    encoded: Vec<u8>,
    reader: BufReader<CountingReader<TcpStream>>,
    writer: BufWriter<CountingWriter<TcpStream>>,
}

impl WorkerConn {
    /// Connects and handshakes, retrying the TCP connection per
    /// `config`. Returns the connection and the retries it took.
    fn connect(addr: &str, config: &DistConfig) -> Result<(Self, u32)> {
        let attempts = config.connect_attempts.max(1);
        let mut retries = 0u32;
        let mut last: Option<Error> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(config.backoff_delay(attempt - 1));
                retries += 1;
            }
            match Self::open_stream(addr, config) {
                Ok(stream) => return Self::handshake(addr, stream).map(|conn| (conn, retries)),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            Error::transport(
                format!("connecting to worker {addr}"),
                std::io::Error::new(std::io::ErrorKind::NotFound, "no connection attempts"),
            )
        }))
    }

    fn open_stream(addr: &str, config: &DistConfig) -> Result<TcpStream> {
        let ctx = |what: &str| format!("{what} worker {addr}");
        let mut last_err = None;
        let addrs = addr
            .to_socket_addrs()
            .map_err(|e| Error::transport(ctx("resolving"), e))?;
        let mut stream = None;
        for resolved in addrs {
            match TcpStream::connect(resolved) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let stream = match (stream, last_err) {
            (Some(s), _) => s,
            (None, Some(e)) => return Err(Error::transport(ctx("connecting to"), e)),
            (None, None) => {
                return Err(Error::transport(
                    ctx("resolving"),
                    std::io::Error::new(std::io::ErrorKind::NotFound, "no addresses"),
                ))
            }
        };
        stream
            .set_nodelay(true)
            .map_err(|e| Error::transport(ctx("configuring"), e))?;
        stream
            .set_read_timeout(config.io_timeout)
            .and_then(|()| stream.set_write_timeout(config.io_timeout))
            .map_err(|e| Error::transport(ctx("setting deadlines for"), e))?;
        Ok(stream)
    }

    fn handshake(addr: &str, stream: TcpStream) -> Result<Self> {
        let reader = stream
            .try_clone()
            .map_err(|e| Error::transport(format!("cloning the handle of worker {addr}"), e))?;
        let stats = Arc::new(IoStats::new());
        let mut conn = WorkerConn {
            peer: addr.to_string(),
            index: 0,
            round_trips: 0,
            flushed: [0; 5],
            encoded: Vec::new(),
            reader: BufReader::new(CountingReader::new(reader, Arc::clone(&stats))),
            writer: BufWriter::new(CountingWriter::new(stream, Arc::clone(&stats))),
            stats,
        };
        // Version handshake, coordinator leads.
        conn.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
        })?;
        conn.flush()?;
        match conn.receive()? {
            Frame::Hello {
                version: PROTOCOL_VERSION,
            } => Ok(conn),
            Frame::Hello { version } => Err(Error::protocol(format!(
                "handshaking with worker {addr} (it speaks protocol {version}, we speak \
                 {PROTOCOL_VERSION})"
            ))),
            Frame::Err { message } => Err(Error::protocol(format!(
                "handshaking with worker {addr} (it refused: {message})"
            ))),
            other => Err(Error::protocol(format!(
                "handshaking with worker {addr} (expected Hello, got {})",
                other.name()
            ))),
        }
    }

    fn send(&mut self, frame: &Frame) -> Result<()> {
        write_frame(&mut self.writer, frame)
    }

    /// Sends `items` as Chunk frames starting at `first_abs`: one frame,
    /// unless that would pass [`MAX_CHUNK_PAYLOAD`] (see
    /// [`encode_chunks`]). Each payload is encoded into the connection's
    /// reused buffer and goes straight into the buffered socket writer,
    /// with no owned `Frame` round-trip.
    fn send_chunk<T: Wire>(&mut self, first_abs: u64, items: &[T]) -> Result<()> {
        let writer = &mut self.writer;
        encode_chunks(
            first_abs,
            items,
            MAX_CHUNK_PAYLOAD,
            &mut self.encoded,
            |abs, payload| write_chunk_frame(writer, abs, payload),
        )
    }

    fn flush(&mut self) -> Result<()> {
        self.writer
            .flush()
            .map_err(|e| Error::transport(format!("flushing frames to worker {}", self.peer), e))
    }

    fn receive(&mut self) -> Result<Frame> {
        self.round_trips += 1;
        expect_frame(&mut self.reader)
    }

    /// This connection's I/O tallies, each under the `mcim_dist_*`
    /// counter it is exported as.
    fn io_tallies(&self) -> [(&'static str, u64); 5] {
        let load = |v: &AtomicU64| v.load(Ordering::Relaxed);
        [
            ("mcim_dist_tx_bytes_total", load(&self.stats.tx_bytes)),
            ("mcim_dist_rx_bytes_total", load(&self.stats.rx_bytes)),
            ("mcim_dist_tx_frames_total", load(&self.stats.tx_frames)),
            ("mcim_dist_rx_frames_total", load(&self.stats.rx_frames)),
            ("mcim_dist_round_trips_total", self.round_trips),
        ]
    }

    /// Exports this connection's I/O deltas since the previous flush as
    /// `mcim_dist_*` counters labeled by worker index. No-op while
    /// metrics are disabled (the unflushed tallies keep accumulating and
    /// surface whole once metrics turn on).
    fn flush_obs(&mut self) {
        if !mcim_obs::enabled() {
            return;
        }
        let index = self.index.to_string();
        for ((name, current), exported) in self.io_tallies().into_iter().zip(&mut self.flushed) {
            if current > *exported {
                mcim_obs::counter_add(
                    &mcim_obs::labeled(name, &[("worker", &index)]),
                    current - *exported,
                );
                *exported = current;
            }
        }
    }
}

impl Drop for WorkerConn {
    fn drop(&mut self) {
        // Every removal path (a lost worker dropped from the table, a
        // teardown, the coordinator's own drop) exports what the
        // connection still owes the registry.
        self.flush_obs();
    }
}

/// Where one job of a pass folds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// On the worker connection at this index.
    Worker(usize),
    /// In-process, through the pass's one [`ShardCursor`].
    Local,
}

/// One shard assignment and where a pass folds it.
#[derive(Debug, Clone, Copy)]
struct Job {
    assignment: ShardAssignment,
    target: Target,
}

/// One fold's state, carried from pass to pass.
struct FoldRun<'a, St: Stage> {
    stage: &'a St,
    stage_seed: u64,
    spec: &'a StageSpec,
    /// Connections not lost this fold, indexed like the connection table.
    alive: Vec<bool>,
    /// Workers that cleanly failed a job this fold. Their sockets are in
    /// step (they drained to Flush and replied), but the same shards would
    /// fail again, so no later pass of this fold ships to them.
    tainted: Vec<bool>,
    /// The assignments lost so far and not yet shipped again.
    pending: Vec<ShardAssignment>,
    report: FoldReport,
    /// The first worker failure, reported as the cause when the fold
    /// cannot recover.
    first_failure: Option<Error>,
    acc: St::Acc,
}

impl<St: Stage> FoldRun<'_, St> {
    /// Records a transport failure of `worker`: its connection is dropped
    /// when the fold ends, and `assignment` waits for the next pass.
    fn lose(&mut self, worker: usize, assignment: ShardAssignment, e: Error) {
        if self.alive[worker] {
            self.alive[worker] = false;
            self.report.workers_lost += 1;
            self.pending.push(assignment);
        }
        self.first_failure.get_or_insert(e);
    }

    /// Records a clean job failure of `worker` (an `Err` reply or an
    /// undecodable partial): it keeps its connection, and `assignment`
    /// waits for the next pass.
    fn refuse(&mut self, worker: usize, assignment: ShardAssignment, e: Error) {
        self.tainted[worker] = true;
        self.report.worker_errors += 1;
        self.pending.push(assignment);
        self.first_failure.get_or_insert(e);
    }

    /// The jobs of the next pass. Each surviving, untainted worker takes
    /// one pending assignment while the re-route budget lasts, and the rest
    /// wait for a later pass. With no such worker, or the budget spent,
    /// every pending assignment folds in-process.
    fn next_jobs(&mut self, max_reroutes: u32) -> Vec<Job> {
        let budget = max_reroutes.saturating_sub(self.report.reroutes) as usize;
        let targets: Vec<usize> = (0..self.alive.len())
            .filter(|&w| self.alive[w] && !self.tainted[w])
            .take(budget)
            .collect();
        if targets.is_empty() {
            self.report.local_fallback = true;
            return self
                .pending
                .drain(..)
                .map(|assignment| Job {
                    assignment,
                    target: Target::Local,
                })
                .collect();
        }
        let n = targets.len().min(self.pending.len());
        self.report.reroutes += n as u32;
        targets
            .into_iter()
            .zip(self.pending.drain(..n))
            .map(|(w, assignment)| Job {
                assignment,
                target: Target::Worker(w),
            })
            .collect()
    }
}

/// A socket-backed [`Executor`]: the distributed reducer's client half.
///
/// Connect it to running `mcim worker` processes (or spawn local ones
/// with [`Coordinator::connect_spawned`] / `mcim --dist-spawn`), then
/// pass it anywhere an executor goes — `Framework::execute_on`,
/// `PemEngine::execute_round_on`, `Pem::execute_on`,
/// `mcim_topk::execute_on`. Multi-stage pipelines reuse the same
/// connections for every stage; dropping the coordinator sends `Shutdown`
/// so `--once` workers exit (and reaps adopted spawned children).
///
/// The plan's `chunk_size` controls how many items are pulled (and
/// encoded) per network round; left unset it resolves through the plan
/// like an in-process fold's, so a one-thread plan sends one shard per
/// Chunk frame. `threads` otherwise only affects stages that run
/// in-process (spec-less stages and replayed shards). Neither changes
/// any output. A lost or refusing worker's shards are replayed on a
/// survivor (or in-process) from the rewound source, bit-identically;
/// [`DistConfig`] sets the timeouts that turn a hung worker into a lost
/// one. Per-fold accounting is available from
/// [`Executor::last_fold_report`]; the `mcim_dist_*` metrics carry the
/// session totals.
pub struct Coordinator {
    plan: Exec,
    config: DistConfig,
    conns: Mutex<Vec<WorkerConn>>,
    /// Set by an explicit [`Coordinator::shutdown`] (or drop). Tells an
    /// empty connection table apart from one emptied by attrition: the
    /// former is a caller error, the latter degrades to in-process folds.
    shut_down: AtomicBool,
    connect_retries: u32,
    last_report: Mutex<Option<FoldReport>>,
    spawned: Mutex<Option<SpawnedWorkers>>,
}

impl Coordinator {
    /// Connects to workers at `addrs` (e.g. `["127.0.0.1:7001",
    /// "10.0.0.2:7001"]`) with default [`DistConfig`] and handshakes with
    /// each. At least one worker is required.
    pub fn connect<A: AsRef<str>>(plan: &Exec, addrs: &[A]) -> Result<Self> {
        Self::connect_with(plan, addrs, DistConfig::default())
    }

    /// [`Coordinator::connect`] with explicit transport knobs: connect
    /// retry/backoff, socket deadlines, and the re-route budget.
    pub fn connect_with<A: AsRef<str>>(
        plan: &Exec,
        addrs: &[A],
        config: DistConfig,
    ) -> Result<Self> {
        if addrs.is_empty() {
            return Err(Error::InvalidParameter {
                name: "addrs",
                constraint: "a distributed reducer needs at least one worker",
            });
        }
        let mut conns = Vec::with_capacity(addrs.len());
        let mut retries = 0u32;
        for (index, addr) in addrs.iter().enumerate() {
            let (mut conn, r) = WorkerConn::connect(addr.as_ref(), &config)?;
            conn.index = index;
            conns.push(conn);
            retries += r;
        }
        Ok(Coordinator {
            plan: *plan,
            config,
            conns: Mutex::new(conns),
            shut_down: AtomicBool::new(false),
            connect_retries: retries,
            last_report: Mutex::new(None),
            spawned: Mutex::new(None),
        })
    }

    /// Spawns `n` local `--once` workers of `binary`, connects to them,
    /// and adopts the children so the coordinator's drop path shuts them
    /// down and reaps them (no orphaned processes even when a fold
    /// panics the calling thread later).
    pub fn connect_spawned(
        plan: &Exec,
        binary: &Path,
        n: usize,
        config: DistConfig,
    ) -> Result<Self> {
        let spawned = spawn_local_workers(binary, n)?;
        let coordinator = Self::connect_with(plan, &spawned.addrs, config)?;
        coordinator.adopt_workers(spawned);
        Ok(coordinator)
    }

    /// Takes ownership of spawned worker processes: on shutdown (or
    /// drop) they get the `Shutdown` frame first, then a grace period to
    /// exit cleanly, then a kill for stragglers. Replaces (and thereby
    /// immediately reaps) any previously adopted batch.
    pub fn adopt_workers(&self, workers: SpawnedWorkers) {
        *self.spawned.lock().unwrap_or_else(PoisonError::into_inner) = Some(workers);
    }

    /// Locks the connection table. Poisoning is survivable: the guarded
    /// state is only a list of socket handles, and a connection left
    /// mid-conversation by a panicking fold surfaces as a protocol error
    /// on its next use — so recover the guard instead of re-panicking.
    fn conns(&self) -> MutexGuard<'_, Vec<WorkerConn>> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of connected workers. Shrinks when folds lose workers.
    pub fn workers(&self) -> usize {
        self.conns().len()
    }

    fn finish_report(&self, conns: &mut [WorkerConn], report: FoldReport) {
        for conn in conns.iter_mut() {
            conn.flush_obs();
        }
        record_report(&report);
        *self
            .last_report
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(report);
    }

    /// The shard assignment of each job for a stream of `size_hint`
    /// items: contiguous ranges when the size is known (one process per
    /// shard range), round-robin strides otherwise. Returns at most
    /// `min(workers, shards)` assignments — surplus workers stay idle
    /// rather than being sent empty no-op jobs over the wire (and double
    /// as first-choice replay targets when a job-holder dies).
    fn assignments(&self, size_hint: Option<u64>, workers: u64) -> Vec<ShardAssignment> {
        match size_hint {
            Some(n) => {
                let shards = n.div_ceil(SHARD_SIZE as u64);
                let jobs = workers.min(shards);
                // Evenly split contiguous ranges; the first `extra`
                // jobs take one extra shard.
                let base = shards.checked_div(jobs).unwrap_or(0);
                let extra = shards.checked_rem(jobs).unwrap_or(0);
                let mut first = 0u64;
                (0..jobs)
                    .map(|w| {
                        let len = base + u64::from(w < extra);
                        let range = ShardAssignment::Range {
                            first,
                            end: first + len,
                        };
                        first += len;
                        range
                    })
                    .collect()
            }
            None => (0..workers)
                .map(|offset| ShardAssignment::Stride {
                    offset,
                    stride: workers,
                })
                .collect(),
        }
    }

    /// Sends `Shutdown` to every worker and reaps any adopted spawned
    /// children (idempotent; also done on drop).
    pub fn shutdown(&self) {
        self.shut_down.store(true, Ordering::Release);
        Self::teardown(&mut self.conns());
        let spawned = self
            .spawned
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(mut spawned) = spawned {
            // The Shutdown frames are already on the wire; give `--once`
            // children a moment to exit on their own before killing.
            spawned.reap(Duration::from_millis(500));
        }
    }

    /// Best-effort `Shutdown` to every connection, then clears the table.
    fn teardown(conns: &mut Vec<WorkerConn>) {
        for conn in conns.iter_mut() {
            let _ = conn.send(&Frame::Shutdown);
            let _ = conn.flush();
        }
        conns.clear();
    }

    /// Drops the connections marked dead, keeping survivors (including
    /// job-refusing but transport-healthy ones) for later folds.
    fn drop_dead(conns: &mut Vec<WorkerConn>, alive: &[bool]) {
        let mut index = 0;
        conns.retain(|_| {
            let keep = alive.get(index).copied().unwrap_or(true);
            index += 1;
            keep
        });
    }

    /// Runs a fold's passes over `source`. The first ships every
    /// assignment to its worker; each later one rewinds the source and
    /// ships what the previous pass lost.
    fn passes<S, St>(
        &self,
        conns: &mut Vec<WorkerConn>,
        source: &mut S,
        run: &mut FoldRun<'_, St>,
    ) -> Result<()>
    where
        S: ReportSource<Item = St::Item>,
        St: Stage,
    {
        let mut jobs: Vec<Job> = self
            .assignments(source.size_hint(), conns.len() as u64)
            .into_iter()
            .enumerate()
            .map(|(w, assignment)| Job {
                assignment,
                target: Target::Worker(w),
            })
            .collect();
        let first = self.pass(conns, source, run, &jobs, None)?;
        while !run.pending.is_empty() {
            if !source.rewind(first)? {
                let cause = run.first_failure.take().unwrap_or_else(|| {
                    Error::protocol("recovering a fold (failure recorded without a cause)")
                });
                return Err(Error::unrecoverable(
                    format!(
                        "{} shard assignment(s) were lost and the source cannot rewind",
                        run.pending.len()
                    ),
                    cause,
                ));
            }
            jobs = run.next_jobs(self.config.max_reroutes);
            self.pass(conns, source, run, &jobs, Some(first))?;
        }
        Ok(())
    }

    /// One pass over `source`, from the fold's start to its end. It ships
    /// each worker job's frame, hands every run of same-owner shards to one
    /// [`send_chunk`](WorkerConn::send_chunk) or to the local cursor,
    /// flushes, and collects every live reply before acting on any failure:
    /// each job owes one reply, and a reply left queued would be read by a
    /// later fold as its own. Lost and refused jobs join `run.pending`.
    ///
    /// Returns the number of items streamed; `first` is the first pass's
    /// count, which a later pass must match. A source failure, or a first
    /// pass that meets a shard no job owns, tears the session down, since
    /// no job in flight can finish. A local fold or merge failure is
    /// returned once the replies are in, with the connections kept.
    fn pass<S, St>(
        &self,
        conns: &mut Vec<WorkerConn>,
        source: &mut S,
        run: &mut FoldRun<'_, St>,
        jobs: &[Job],
        first: Option<u64>,
    ) -> Result<u64>
    where
        S: ReportSource<Item = St::Item>,
        St: Stage,
    {
        let remote = || {
            jobs.iter().filter_map(|job| match job.target {
                Target::Worker(w) => Some((w, job.assignment)),
                Target::Local => None,
            })
        };
        for (w, shards) in remote() {
            let sent = conns[w].send(&Frame::Job {
                stage_seed: run.stage_seed,
                contract: run.spec.contract,
                kind: run.spec.kind.to_string(),
                payload: run.spec.payload.clone(),
                shards,
            });
            if let Err(e) = sent {
                run.lose(w, shards, e);
            }
        }

        // Stream the source in shard-aligned runs: consecutive items whose
        // shards one job owns travel as one Chunk frame (or several of
        // whole shards, when one would pass `MAX_FRAME`) or fold locally
        // in one cursor call. Items of lost workers and of shards no job
        // owns are read all the same: every pass streams to the end.
        let owner = |shard: u64| jobs.iter().position(|job| job.assignment.owns(shard));
        let shard_size = SHARD_SIZE as u64;
        let chunk_items = self.plan.resolved_chunk_items();
        let mut buf = chunk_buffer(chunk_items);
        let mut cursor = ShardCursor::default();
        let mut local_failure = None;
        let mut streamed = 0u64;
        loop {
            match fill_chunk(source, &mut buf, chunk_items) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => {
                    Self::teardown(conns);
                    return Err(e);
                }
            }
            let mut offset = 0usize;
            while offset < buf.len() {
                let start_abs = streamed + offset as u64;
                let job = owner(start_abs / shard_size);
                // Extend the run across consecutive shards with the same
                // owner (always whole shards except at the buffer edges).
                let mut end = offset;
                loop {
                    let shard = (streamed + end as u64) / shard_size;
                    if owner(shard) != job {
                        break;
                    }
                    end = (((shard + 1) * shard_size - streamed) as usize).min(buf.len());
                    if end == buf.len() {
                        break;
                    }
                }
                let items = &buf[offset..end];
                offset = end;
                match job.map(|j| jobs[j]) {
                    Some(Job {
                        assignment,
                        target: Target::Worker(w),
                    }) if run.alive[w] => {
                        if let Err(e) = conns[w].send_chunk(start_abs, items) {
                            run.lose(w, assignment, e);
                        }
                    }
                    Some(Job {
                        target: Target::Local,
                        ..
                    }) if local_failure.is_none() => {
                        let fold = |rng: &mut _, abs, items: &[_]| {
                            run.stage.fold(rng, abs, items, &mut run.acc)
                        };
                        local_failure = cursor.fold(run.stage_seed, start_abs, items, fold).err();
                    }
                    None if first.is_none() => {
                        Self::teardown(conns);
                        return Err(Error::protocol(format!(
                            "routing shard {} (the source yielded more items than its \
                             size_hint declared)",
                            start_abs / shard_size
                        )));
                    }
                    _ => {}
                }
            }
            streamed += buf.len() as u64;
        }

        for (w, shards) in remote() {
            if run.alive[w] {
                if let Err(e) = conns[w].send(&Frame::Flush).and_then(|()| conns[w].flush()) {
                    run.lose(w, shards, e);
                }
            }
        }
        let replies: Vec<_> = remote()
            .filter(|&(w, _)| run.alive[w])
            .map(|(w, shards)| (w, shards, conns[w].receive()))
            .collect();
        let shards = streamed.div_ceil(shard_size);
        let owned = |assignment: ShardAssignment| {
            (0..shards).filter(|&s| assignment.owns(s)).count() as u64
        };
        for (w, assignment, reply) in replies {
            match reply {
                Ok(Frame::Partial { state }) => {
                    let mut partial = run.stage.template();
                    let mut reader = WireReader::new(&state);
                    match partial.load(&mut reader).and_then(|()| reader.finish()) {
                        Ok(()) => {
                            // A merge failure is a local logic error, not
                            // a worker failure: `acc` may be half-mutated,
                            // so no replay can fix it.
                            run.stage.merge(&mut run.acc, &partial)?;
                            match first {
                                None => run.report.workers_used += 1,
                                Some(_) => run.report.rerouted_shards += owned(assignment),
                            }
                        }
                        // A well-framed reply whose state does not decode:
                        // the socket is in step, the payload untrustworthy.
                        Err(e) => run.refuse(w, assignment, e),
                    }
                }
                Ok(Frame::Err { message }) => {
                    let e = Error::Source {
                        message: format!("worker {} failed: {message}", conns[w].peer),
                    };
                    run.refuse(w, assignment, e);
                }
                Ok(other) => {
                    let e = Error::protocol(format!(
                        "collecting partials (worker {} sent {})",
                        conns[w].peer,
                        other.name()
                    ));
                    run.lose(w, assignment, e);
                }
                Err(e) => run.lose(w, assignment, e),
            }
        }
        if let Some(e) = local_failure {
            return Err(e);
        }
        for job in jobs.iter().filter(|job| job.target == Target::Local) {
            run.report.local_shards += owned(job.assignment);
        }
        match first {
            Some(first) if first != streamed => Err(Error::Source {
                message: format!(
                    "source yielded {streamed} items on a replay pass and {first} on the first \
                     pass"
                ),
            }),
            _ => Ok(streamed),
        }
    }
}

/// Absorbs one fold's [`FoldReport`] into the metrics registry: the
/// per-fold event counts become `mcim_dist_*` counters, the state-like
/// fields (worker counts, session-wide connect retries) become gauges.
/// No wire traffic, no behavioral change — the counters are the session
/// totals of every fold's report.
fn record_report(report: &FoldReport) {
    if !mcim_obs::enabled() {
        return;
    }
    let gauge = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
    mcim_obs::counter_add("mcim_dist_folds_total", 1);
    mcim_obs::gauge_set("mcim_dist_workers", gauge(report.workers as u64));
    mcim_obs::gauge_set("mcim_dist_workers_used", gauge(report.workers_used as u64));
    mcim_obs::gauge_set(
        "mcim_dist_connect_retries",
        gauge(u64::from(report.connect_retries)),
    );
    mcim_obs::counter_add("mcim_dist_workers_lost_total", report.workers_lost as u64);
    mcim_obs::counter_add("mcim_dist_worker_errors_total", report.worker_errors as u64);
    mcim_obs::counter_add("mcim_dist_reroutes_total", u64::from(report.reroutes));
    mcim_obs::counter_add("mcim_dist_rerouted_shards_total", report.rerouted_shards);
    mcim_obs::counter_add("mcim_dist_local_shards_total", report.local_shards);
    mcim_obs::counter_add(
        "mcim_dist_local_fallbacks_total",
        u64::from(report.local_fallback),
    );
}

/// Encodes `items`, which start at absolute index `first_abs`, into Chunk
/// payloads (the `u32` count, then the items) of at most `budget` bytes,
/// and hands each to `emit(first_abs, payload)` in order. A payload is cut
/// only at a shard boundary, so a split run still travels as whole shards.
/// `Wire` items have no fixed width, so each shard is encoded first and
/// the cut decided from the encoded length. A lone shard over `budget`
/// still goes out whole, for the frame writer to refuse.
fn encode_chunks<T: Wire>(
    first_abs: u64,
    items: &[T],
    budget: usize,
    buf: &mut Vec<u8>,
    mut emit: impl FnMut(u64, &[u8]) -> Result<()>,
) -> Result<()> {
    const COUNT: usize = std::mem::size_of::<u32>();
    let shard_size = SHARD_SIZE as u64;
    buf.clear();
    buf.resize(COUNT, 0);
    // `items[start..next]` is encoded in `buf`, after the count slot.
    let mut start = 0usize;
    let mut next = 0usize;
    while next < items.len() {
        let shard = (first_abs + next as u64) / shard_size;
        let shard_end = (((shard + 1) * shard_size - first_abs) as usize).min(items.len());
        let cut = buf.len();
        for item in &items[next..shard_end] {
            item.put(buf);
        }
        if buf.len() > budget && next > start {
            buf[..COUNT].copy_from_slice(&((next - start) as u32).to_le_bytes());
            emit(first_abs + start as u64, &buf[..cut])?;
            buf.drain(COUNT..cut);
            start = next;
        }
        next = shard_end;
    }
    buf[..COUNT].copy_from_slice(&((items.len() - start) as u32).to_le_bytes());
    emit(first_abs + start as u64, buf)
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Executor for Coordinator {
    fn plan(&self) -> &Exec {
        &self.plan
    }

    fn fold<S, St>(&self, source: &mut S, stage_seed: u64, stage: &St) -> Result<St::Acc>
    where
        S: ReportSource<Item = St::Item>,
        St: Stage,
    {
        let Some(spec) = stage.spec() else {
            // No wire form — run the stage locally. The shard contract
            // makes this bit-identical, just not remote.
            return InProcess::new(&self.plan).fold(source, stage_seed, stage);
        };
        // Refuse before shipping anything: workers would refuse the job
        // too, and the in-process fallback must not fold it either.
        check_contract(spec.contract)?;

        let mut conns = self.conns();
        if conns.is_empty() {
            if self.shut_down.load(Ordering::Acquire) {
                return Err(Error::protocol(
                    "starting a job (coordinator already shut down)",
                ));
            }
            // Every worker was lost to earlier folds. Keep multi-stage
            // pipelines alive by degrading to in-process execution — the
            // report says so, the result does not change.
            let report = FoldReport {
                connect_retries: self.connect_retries,
                local_fallback: true,
                ..FoldReport::default()
            };
            let acc = InProcess::new(&self.plan).fold(source, stage_seed, stage)?;
            self.finish_report(&mut conns, report);
            return Ok(acc);
        }

        let workers = conns.len();
        let mut run = FoldRun {
            stage,
            stage_seed,
            spec: &spec,
            alive: vec![true; workers],
            tainted: vec![false; workers],
            pending: Vec::new(),
            report: FoldReport {
                workers,
                connect_retries: self.connect_retries,
                ..FoldReport::default()
            },
            first_failure: None,
            acc: stage.template(),
        };
        let result = self.passes(&mut conns, source, &mut run);
        Self::drop_dead(&mut conns, &run.alive);
        self.finish_report(&mut conns, run.report);
        result.map(|()| run.acc)
    }

    fn last_fold_report(&self) -> Option<FoldReport> {
        self.last_report
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `encode_chunks` and returns each payload with its first index.
    fn payloads(first_abs: u64, items: &[u32], budget: usize) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        encode_chunks(first_abs, items, budget, &mut Vec::new(), |abs, payload| {
            out.push((abs, payload.to_vec()));
            Ok(())
        })
        .unwrap();
        out
    }

    fn decode(payload: &[u8]) -> Vec<u32> {
        let mut r = WireReader::new(payload);
        let items = Vec::<u32>::take(&mut r).unwrap();
        r.finish().unwrap();
        items
    }

    #[test]
    fn runs_split_into_whole_shards_under_the_budget() {
        let shard = SHARD_SIZE as u64;
        // A run from mid-shard 3 into shard 8; two and a half shards of
        // u32s fit the budget, so every cut lands on a shard boundary.
        let first_abs = 3 * shard + 100;
        let items: Vec<u32> = (0..5 * SHARD_SIZE as u32).collect();
        let budget = 4 + 10 * SHARD_SIZE;
        let frames = payloads(first_abs, &items, budget);
        let starts: Vec<u64> = frames.iter().map(|(abs, _)| *abs).collect();
        assert_eq!(starts, [first_abs, 5 * shard, 7 * shard]);
        assert!(frames.iter().all(|(_, p)| p.len() <= budget));
        let rejoined: Vec<u32> = frames.iter().flat_map(|(_, p)| decode(p)).collect();
        assert_eq!(rejoined, items);
        // Under the frame bound the same run is one payload, byte for
        // byte the unsplit encoding.
        let mut whole = Vec::new();
        items.put(&mut whole);
        assert_eq!(
            payloads(first_abs, &items, MAX_CHUNK_PAYLOAD),
            [(first_abs, whole)]
        );
    }

    #[test]
    fn a_shard_over_the_budget_travels_alone() {
        let items: Vec<u32> = (0..2 * SHARD_SIZE as u32).collect();
        let frames = payloads(0, &items, 8);
        let starts: Vec<u64> = frames.iter().map(|(abs, _)| *abs).collect();
        assert_eq!(starts, [0, SHARD_SIZE as u64]);
        assert_eq!(decode(&frames[1].1), &items[SHARD_SIZE..]);
    }
}
