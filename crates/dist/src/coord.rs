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
//! ## Fault tolerance: the re-route invariant
//!
//! A fold survives worker failure because a lost worker's
//! [`ShardAssignment`] is *recomputable anywhere*: the shard contract
//! derives shard `s`'s RNG stream from `(stage_seed, s)` — never from the
//! host that folds it — and merges only disjoint shard ranges. So when a
//! worker dies (transport error) or refuses (an `Err` reply), the
//! coordinator [`rewind`](ReportSource::rewind)s the source, replays
//! *only the lost assignment's shards* on a surviving worker (or
//! in-process as the last resort), and merges the replacement partial.
//! The recovered result is bit-identical to the unfailed run; the only
//! observable difference is the fold's [`FoldReport`].
//!
//! Recovery needs a rewindable source. When the source cannot rewind,
//! the fold fails with [`Error::Unrecoverable`] wrapping the original
//! worker failure. Timeouts ([`DistConfig::io_timeout`]) turn a *hung*
//! worker into an ordinary transport failure so it enters the same path.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use rand::rngs::StdRng;

use mcim_oracles::exec::{check_contract, Exec, Executor, FoldReport, InProcess, Stage};
use mcim_oracles::parallel::{shard_rng, SHARD_SIZE};
use mcim_oracles::stream::ReportSource;
use mcim_oracles::wire::{StageSpec, Wire, WireReader, WireState};
use mcim_oracles::{Error, Result};

use crate::proto::count::{CountingReader, CountingWriter, IoStats};
use crate::proto::{expect_frame, write_chunk_frame, write_frame, Frame, ShardAssignment};
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

/// Per-connection I/O tallies already flushed into the metrics registry,
/// so each flush exports only the delta since the previous one.
#[derive(Debug, Default)]
struct FlushedIo {
    tx_bytes: u64,
    rx_bytes: u64,
    tx_frames: u64,
    rx_frames: u64,
    round_trips: u64,
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
    flushed: FlushedIo,
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
            flushed: FlushedIo::default(),
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

    fn send_chunk(&mut self, first_abs: u64, items: &[u8]) -> Result<()> {
        write_chunk_frame(&mut self.writer, first_abs, items)
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

    /// Exports this connection's I/O deltas since the previous flush as
    /// `mcim_dist_*` counters labeled by worker index. No-op while
    /// metrics are disabled (the unflushed tallies keep accumulating and
    /// surface whole once metrics turn on).
    fn flush_obs(&mut self) {
        if !mcim_obs::enabled() {
            return;
        }
        let index = self.index.to_string();
        let flush = |name: &str, current: u64, exported: &mut u64| {
            if current > *exported {
                mcim_obs::counter_add(
                    &mcim_obs::labeled(name, &[("worker", &index)]),
                    current - *exported,
                );
                *exported = current;
            }
        };
        let load = |v: &std::sync::atomic::AtomicU64| v.load(Ordering::Relaxed);
        flush(
            "mcim_dist_tx_bytes_total",
            load(&self.stats.tx_bytes),
            &mut self.flushed.tx_bytes,
        );
        flush(
            "mcim_dist_rx_bytes_total",
            load(&self.stats.rx_bytes),
            &mut self.flushed.rx_bytes,
        );
        flush(
            "mcim_dist_tx_frames_total",
            load(&self.stats.tx_frames),
            &mut self.flushed.tx_frames,
        );
        flush(
            "mcim_dist_rx_frames_total",
            load(&self.stats.rx_frames),
            &mut self.flushed.rx_frames,
        );
        flush(
            "mcim_dist_round_trips_total",
            self.round_trips,
            &mut self.flushed.round_trips,
        );
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

/// How a replay attempt failed, which decides what happens to the target
/// and to the assignment being replayed.
enum ReplayFailure {
    /// The target's socket failed mid-conversation; the connection is
    /// dead and the assignment goes back on the queue.
    Dead(Error),
    /// The target finished the conversation but failed the job (an `Err`
    /// reply or an undecodable partial). Its socket stays synchronized,
    /// but it is excluded as a replay target for the rest of this fold.
    Refused(Error),
    /// A local failure (source error, merge error): the fold cannot
    /// complete at all.
    Fatal(Error),
}

/// One replay job's immutable inputs (bundled so the replay methods keep
/// a readable arity).
struct Replay<'a, St> {
    stage_seed: u64,
    spec: &'a StageSpec,
    stage: &'a St,
    assignment: ShardAssignment,
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
/// encoded) per network round; `threads` only affects stages that run
/// in-process (spec-less stages and replayed shards). Neither changes
/// any output. A lost or refusing worker's shards are replayed on a
/// survivor (or in-process) from the rewound source, bit-identically;
/// [`DistConfig`] sets the timeouts that turn a hung worker into a lost
/// one. Per-fold accounting is available from
/// [`Executor::last_fold_report`] and [`Coordinator::session_report`].
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
    session: Mutex<FoldReport>,
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
            session: Mutex::new(FoldReport::default()),
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

    /// Session-cumulative failure accounting across every fold so far
    /// (see [`FoldReport::absorb`] for the aggregation rules).
    pub fn session_report(&self) -> FoldReport {
        self.session
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn finish_report(&self, conns: &mut [WorkerConn], report: FoldReport) {
        for conn in conns.iter_mut() {
            conn.flush_obs();
        }
        record_report(&report);
        self.session
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .absorb(&report);
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

    /// Replays `replay.assignment` on one surviving worker: rewinds the
    /// source to the fold's start, re-streams only the owned shards, and
    /// merges the replacement partial. Returns the shard count replayed.
    fn replay_remote<S, St>(
        &self,
        conn: &mut WorkerConn,
        source: &mut S,
        position: &mut u64,
        replay: &Replay<'_, St>,
        acc: &mut St::Acc,
    ) -> std::result::Result<u64, ReplayFailure>
    where
        S: ReportSource<Item = St::Item>,
        St: Stage,
    {
        conn.send(&Frame::Job {
            stage_seed: replay.stage_seed,
            contract: replay.spec.contract,
            kind: replay.spec.kind.to_string(),
            payload: replay.spec.payload.clone(),
            shards: replay.assignment,
        })
        .map_err(ReplayFailure::Dead)?;
        rewind_to_start(source, position).map_err(ReplayFailure::Fatal)?;

        let shard_size = SHARD_SIZE as u64;
        let chunk_items = self.plan.resolved_chunk_items();
        let mut buf: Vec<St::Item> = Vec::with_capacity(chunk_items);
        let mut encoded = Vec::new();
        let mut counted = 0u64;
        let mut last_counted: Option<u64> = None;
        'stream: loop {
            buf.clear();
            loop {
                let want = chunk_items - buf.len();
                if want == 0 || source.fill(&mut buf, want).map_err(ReplayFailure::Fatal)? == 0 {
                    break;
                }
            }
            if buf.is_empty() {
                break;
            }
            let mut offset = 0usize;
            while offset < buf.len() {
                let abs = *position + offset as u64;
                let shard = abs / shard_size;
                let end = (((shard + 1) * shard_size - *position) as usize).min(buf.len());
                if replay.assignment.owns(shard) {
                    encoded.clear();
                    ((end - offset) as u32).put(&mut encoded);
                    for item in &buf[offset..end] {
                        item.put(&mut encoded);
                    }
                    conn.send_chunk(abs, &encoded)
                        .map_err(ReplayFailure::Dead)?;
                    if last_counted != Some(shard) {
                        counted += 1;
                        last_counted = Some(shard);
                    }
                }
                offset = end;
            }
            *position += buf.len() as u64;
            if let ShardAssignment::Range { end, .. } = replay.assignment {
                // Every shard this assignment can own has streamed; the
                // caller repositions the source afterwards.
                if *position >= end * shard_size {
                    break 'stream;
                }
            }
        }
        conn.send(&Frame::Flush)
            .and_then(|()| conn.flush())
            .map_err(ReplayFailure::Dead)?;
        match conn.receive() {
            Ok(Frame::Partial { state }) => {
                let mut partial = replay.stage.template();
                let mut reader = WireReader::new(&state);
                match partial.load(&mut reader).and_then(|()| reader.finish()) {
                    Ok(()) => {
                        replay
                            .stage
                            .merge(acc, &partial)
                            .map_err(ReplayFailure::Fatal)?;
                        Ok(counted)
                    }
                    Err(e) => Err(ReplayFailure::Refused(e)),
                }
            }
            Ok(Frame::Err { message }) => Err(ReplayFailure::Refused(Error::Source {
                message: format!("worker {} failed a replay: {message}", conn.peer),
            })),
            Ok(other) => Err(ReplayFailure::Dead(Error::protocol(format!(
                "collecting a replayed partial (worker {} sent {})",
                conn.peer,
                other.name()
            )))),
            Err(e) => Err(ReplayFailure::Dead(e)),
        }
    }

    /// Replays `replay.assignment` in-process from the rewound source —
    /// the last resort when no worker survives (or the re-route budget is
    /// spent). Mirrors the worker's fold exactly: fresh
    /// `shard_rng(stage_seed, shard)` at shard starts, carried RNG across
    /// chunk-boundary fragments. Returns the shard count replayed.
    fn replay_local<S, St>(
        &self,
        source: &mut S,
        position: &mut u64,
        replay: &Replay<'_, St>,
        acc: &mut St::Acc,
    ) -> Result<u64>
    where
        S: ReportSource<Item = St::Item>,
        St: Stage,
    {
        rewind_to_start(source, position)?;
        let shard_size = SHARD_SIZE as u64;
        let chunk_items = self.plan.resolved_chunk_items();
        let mut buf: Vec<St::Item> = Vec::with_capacity(chunk_items);
        let mut carry: Option<StdRng> = None;
        let mut counted = 0u64;
        let mut last_counted: Option<u64> = None;
        'stream: loop {
            buf.clear();
            loop {
                let want = chunk_items - buf.len();
                if want == 0 || source.fill(&mut buf, want)? == 0 {
                    break;
                }
            }
            if buf.is_empty() {
                break;
            }
            let mut offset = 0usize;
            while offset < buf.len() {
                let abs = *position + offset as u64;
                let shard = abs / shard_size;
                let shard_end = (shard + 1) * shard_size;
                let end = ((shard_end - *position) as usize).min(buf.len());
                if replay.assignment.owns(shard) {
                    let mut rng = if abs % shard_size == 0 {
                        shard_rng(replay.stage_seed, shard)
                    } else {
                        carry.take().ok_or_else(|| {
                            Error::protocol(format!(
                                "replaying shard {shard} locally (mid-shard fragment without \
                                 carried RNG state)"
                            ))
                        })?
                    };
                    replay.stage.fold(&mut rng, abs, &buf[offset..end], acc)?;
                    if *position + (end as u64) < shard_end {
                        carry = Some(rng);
                    }
                    if last_counted != Some(shard) {
                        counted += 1;
                        last_counted = Some(shard);
                    }
                }
                offset = end;
            }
            *position += buf.len() as u64;
            if let ShardAssignment::Range { end, .. } = replay.assignment {
                if *position >= end * shard_size {
                    break 'stream;
                }
            }
        }
        Ok(counted)
    }
}

/// Absorbs one fold's [`FoldReport`] into the metrics registry: the
/// per-fold event counts become `mcim_dist_*` counters, the state-like
/// fields (worker counts, session-wide connect retries) become gauges.
/// No wire traffic, no behavioral change — the snapshot simply carries
/// the same numbers `session_report` aggregates.
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

/// Rewinds `source` back to the fold's start position (`*position` items
/// ago). `Ok(false)` mid-recovery means the source changed its answer
/// between calls — fail the fold rather than replay from a wrong offset.
fn rewind_to_start<S: ReportSource>(source: &mut S, position: &mut u64) -> Result<()> {
    if *position == 0 {
        return Ok(());
    }
    if !source.rewind(*position)? {
        return Err(Error::unrecoverable(
            "replaying shards (the source stopped supporting rewind mid-recovery)",
            Error::protocol("rewind support changed between calls"),
        ));
    }
    *position = 0;
    Ok(())
}

/// Finds which assignment owns `shard`, if any.
fn owner_of(assignments: &[ShardAssignment], shard: u64) -> Option<usize> {
    assignments.iter().position(|a| a.owns(shard))
}

/// Records a lost (transport-dead) job holder: the connection is gone and
/// its assignment joins the replay queue.
fn mark_lost(
    i: usize,
    e: Error,
    alive: &mut [bool],
    assignments: &[ShardAssignment],
    pending: &mut Vec<ShardAssignment>,
    report: &mut FoldReport,
    first_failure: &mut Option<Error>,
) {
    if alive[i] {
        alive[i] = false;
        report.workers_lost += 1;
        if let Some(&assignment) = assignments.get(i) {
            pending.push(assignment);
        }
    }
    first_failure.get_or_insert(e);
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
        let mut report = FoldReport {
            workers,
            connect_retries: self.connect_retries,
            ..FoldReport::default()
        };
        let assignments = self.assignments(source.size_hint(), workers as u64);
        let njobs = assignments.len();
        let mut alive = vec![true; workers];
        // Workers that cleanly failed a job this fold: their sockets are
        // synchronized (they drained to Flush and replied), but handing
        // them the same shards again would fail again — excluded as
        // replay targets until the next fold.
        let mut tainted = vec![false; workers];
        let mut pending: Vec<ShardAssignment> = Vec::new();
        let mut first_failure: Option<Error> = None;

        for (i, &shards) in assignments.iter().enumerate() {
            let sent = conns[i].send(&Frame::Job {
                stage_seed,
                contract: spec.contract,
                kind: spec.kind.to_string(),
                payload: spec.payload.clone(),
                shards,
            });
            if let Err(e) = sent {
                mark_lost(
                    i,
                    e,
                    &mut alive,
                    &assignments,
                    &mut pending,
                    &mut report,
                    &mut first_failure,
                );
            }
        }

        // Stream the source out in shard-aligned runs: consecutive items
        // that land in one worker's shards travel as one Chunk frame.
        // Sends to workers already marked dead are skipped — their items
        // are still consumed (the position accounting must match the
        // unfailed run), and their shards are already queued for replay.
        let shard_size = SHARD_SIZE as u64;
        let chunk_items = self.plan.resolved_chunk_items();
        let mut buf: Vec<St::Item> = Vec::with_capacity(chunk_items);
        let mut encoded = Vec::new();
        let mut consumed = 0u64;
        let mut source_failure: Option<Error> = None;
        'stream: loop {
            buf.clear();
            loop {
                let want = chunk_items - buf.len();
                if want == 0 {
                    break;
                }
                match source.fill(&mut buf, want) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e) => {
                        source_failure = Some(e);
                        break 'stream;
                    }
                }
            }
            if buf.is_empty() {
                break;
            }
            let mut offset = 0usize;
            while offset < buf.len() {
                let start_abs = consumed + offset as u64;
                let Some(owner) = owner_of(&assignments, start_abs / shard_size) else {
                    source_failure = Some(Error::protocol(format!(
                        "routing shard {} (the source yielded more items than its size_hint \
                         declared)",
                        start_abs / shard_size
                    )));
                    break 'stream;
                };
                // Extend the run across consecutive shards with the same
                // owner (always whole shards except at the buffer edges).
                let mut end = offset;
                loop {
                    let shard = (consumed + end as u64) / shard_size;
                    if owner_of(&assignments, shard) != Some(owner) {
                        break;
                    }
                    let shard_end = ((shard + 1) * shard_size - consumed) as usize;
                    end = shard_end.min(buf.len());
                    if end == buf.len() {
                        break;
                    }
                }
                if alive[owner] {
                    encoded.clear();
                    ((end - offset) as u32).put(&mut encoded);
                    for item in &buf[offset..end] {
                        item.put(&mut encoded);
                    }
                    // Hot path: the chunk payload goes straight into the
                    // buffered socket writer, no owned `Frame` round-trip.
                    if let Err(e) = conns[owner].send_chunk(start_abs, &encoded) {
                        mark_lost(
                            owner,
                            e,
                            &mut alive,
                            &assignments,
                            &mut pending,
                            &mut report,
                            &mut first_failure,
                        );
                    }
                }
                offset = end;
            }
            consumed += buf.len() as u64;
        }
        if let Some(e) = source_failure {
            // The *source* failed mid-stream: every in-flight job is
            // unfinishable and no connection's framing can be trusted by
            // a later fold. Tear the session down.
            Self::teardown(&mut conns);
            self.finish_report(&mut conns, report);
            return Err(e);
        }

        for i in 0..njobs {
            if !alive[i] {
                continue;
            }
            if let Err(e) = conns[i].send(&Frame::Flush).and_then(|()| conns[i].flush()) {
                mark_lost(
                    i,
                    e,
                    &mut alive,
                    &assignments,
                    &mut pending,
                    &mut report,
                    &mut first_failure,
                );
            }
        }

        // Collect every live job's reply before acting on any failure:
        // each job owes exactly one Partial/Err per connection, so a
        // worker's error must not leave the other workers' replies queued
        // (a later fold would read them as its own).
        let replies: Vec<Option<Result<Frame>>> = (0..njobs)
            .map(|i| alive[i].then(|| conns[i].receive()))
            .collect();
        let mut acc = stage.template();
        for (i, reply) in replies.into_iter().enumerate() {
            let Some(reply) = reply else { continue };
            match reply {
                Ok(Frame::Partial { state }) => {
                    let mut partial = stage.template();
                    let mut reader = WireReader::new(&state);
                    match partial.load(&mut reader).and_then(|()| reader.finish()) {
                        Ok(()) => {
                            // A merge failure is a local logic error, not
                            // a worker failure: `acc` may be half-mutated,
                            // so replaying cannot fix it. Every reply is
                            // drained, so the session stays usable.
                            if let Err(e) = stage.merge(&mut acc, &partial) {
                                Self::drop_dead(&mut conns, &alive);
                                self.finish_report(&mut conns, report);
                                return Err(e);
                            }
                            report.workers_used += 1;
                        }
                        Err(e) => {
                            // Undecodable partial in a well-framed reply:
                            // the socket is synchronized, the payload is
                            // not trustworthy. Replay elsewhere.
                            tainted[i] = true;
                            report.worker_errors += 1;
                            pending.push(assignments[i]);
                            first_failure.get_or_insert(e);
                        }
                    }
                }
                Ok(Frame::Err { message }) => {
                    tainted[i] = true;
                    report.worker_errors += 1;
                    pending.push(assignments[i]);
                    first_failure.get_or_insert(Error::Source {
                        message: format!("worker {} failed: {message}", conns[i].peer),
                    });
                }
                Ok(other) => {
                    let e = Error::protocol(format!(
                        "collecting partials (worker {} sent {})",
                        conns[i].peer,
                        other.name()
                    ));
                    mark_lost(
                        i,
                        e,
                        &mut alive,
                        &assignments,
                        &mut pending,
                        &mut report,
                        &mut first_failure,
                    );
                }
                Err(e) => {
                    mark_lost(
                        i,
                        e,
                        &mut alive,
                        &assignments,
                        &mut pending,
                        &mut report,
                        &mut first_failure,
                    );
                }
            }
        }

        if !pending.is_empty() {
            // Recovery. Rewind the source to the fold's start, replay
            // each lost assignment on a surviving worker (idle workers
            // first-class among them), or in-process as the last resort.
            match source.rewind(consumed) {
                Ok(true) => {}
                Ok(false) => {
                    Self::drop_dead(&mut conns, &alive);
                    self.finish_report(&mut conns, report);
                    let cause = first_failure.take().unwrap_or_else(|| {
                        Error::protocol("recovering a fold (failure recorded without a cause)")
                    });
                    return Err(Error::unrecoverable(
                        format!(
                            "{} shard assignment(s) were lost and the source cannot rewind",
                            pending.len()
                        ),
                        cause,
                    ));
                }
                Err(e) => {
                    Self::drop_dead(&mut conns, &alive);
                    self.finish_report(&mut conns, report);
                    return Err(e);
                }
            }
            let mut position = 0u64;
            let mut rr = 0usize;
            while let Some(assignment) = pending.pop() {
                let replay = Replay {
                    stage_seed,
                    spec: &spec,
                    stage,
                    assignment,
                };
                let target = if report.reroutes < self.config.max_reroutes {
                    (0..workers)
                        .map(|k| (rr + k) % workers)
                        .find(|&i| alive[i] && !tainted[i])
                } else {
                    None
                };
                match target {
                    Some(t) => {
                        rr = (t + 1) % workers;
                        report.reroutes += 1;
                        match self.replay_remote(
                            &mut conns[t],
                            source,
                            &mut position,
                            &replay,
                            &mut acc,
                        ) {
                            Ok(shards) => report.rerouted_shards += shards,
                            Err(ReplayFailure::Dead(e)) => {
                                alive[t] = false;
                                report.workers_lost += 1;
                                pending.push(assignment);
                                first_failure.get_or_insert(e);
                            }
                            Err(ReplayFailure::Refused(e)) => {
                                tainted[t] = true;
                                report.worker_errors += 1;
                                pending.push(assignment);
                                first_failure.get_or_insert(e);
                            }
                            Err(ReplayFailure::Fatal(e)) => {
                                Self::teardown(&mut conns);
                                self.finish_report(&mut conns, report);
                                return Err(e);
                            }
                        }
                    }
                    None => {
                        report.local_fallback = true;
                        match self.replay_local(source, &mut position, &replay, &mut acc) {
                            Ok(shards) => report.local_shards += shards,
                            Err(e) => {
                                Self::drop_dead(&mut conns, &alive);
                                self.finish_report(&mut conns, report);
                                return Err(e);
                            }
                        }
                    }
                }
            }
            // Replays may stop early (a Range's last shard streamed);
            // leave the source exactly where the primary pass did — the
            // fold's contract is to consume precisely its items, and
            // round-based callers carve views that rely on it.
            while position < consumed {
                buf.clear();
                let want =
                    chunk_items.min(usize::try_from(consumed - position).unwrap_or(chunk_items));
                match source.fill(&mut buf, want) {
                    Ok(0) => {
                        Self::drop_dead(&mut conns, &alive);
                        self.finish_report(&mut conns, report);
                        return Err(Error::Source {
                            message: format!(
                                "source yielded fewer items on replay ({position}) than on the \
                                 first pass ({consumed})"
                            ),
                        });
                    }
                    Ok(got) => position += got as u64,
                    Err(e) => {
                        Self::drop_dead(&mut conns, &alive);
                        self.finish_report(&mut conns, report);
                        return Err(e);
                    }
                }
            }
        }

        Self::drop_dead(&mut conns, &alive);
        self.finish_report(&mut conns, report);
        Ok(acc)
    }

    fn last_fold_report(&self) -> Option<FoldReport> {
        self.last_report
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}
