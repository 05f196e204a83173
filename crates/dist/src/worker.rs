//! The worker process runtime: a connection loop that rebuilds fold
//! stages from their specs and replays the coordinator's shard ranges.
//!
//! A worker is deliberately dumb: it holds no pipeline logic of its own.
//! Every [`Job`](crate::proto::Frame::Job) frame names a stage kind; the
//! [`Registry`] maps the kind to a monomorphized job runner that decodes
//! the stage ([`StageDecode`]), folds the incoming item chunks through
//! the same [`ShardCursor`] as the in-process executor (so every shard
//! fragment gets the RNG that executor would give it), and ships the
//! accumulator's [`WireState`](mcim_oracles::wire::WireState) back as one
//! `Partial` frame. Chunks outside the job's shards, or in an order no
//! coordinator sends (a mid-shard start, a gap, a new shard while one is
//! open), fail the job.
//!
//! If a stage fails mid-stream (out-of-domain item, mismatched report) the
//! worker keeps draining frames until `Flush` and answers with an `Err`
//! frame instead — it never stops reading while the coordinator is
//! writing, which is what keeps the socket deadlock-free.

use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};

use mcim_oracles::exec::{StageDecode, RNG_CONTRACT};
use mcim_oracles::parallel::SHARD_SIZE;
use mcim_oracles::stream::ShardCursor;
use mcim_oracles::wire::{Wire, WireReader, WireState};
use mcim_oracles::{Error, Result};

use crate::proto::{expect_frame, read_frame, write_frame, Frame, ShardAssignment};
use crate::PROTOCOL_VERSION;

/// The frame I/O a job runner sees (type-erased so runners stay plain
/// function pointers).
struct JobConn<'a> {
    reader: &'a mut dyn Read,
    writer: &'a mut dyn Write,
}

impl JobConn<'_> {
    fn read(&mut self) -> Result<Frame> {
        expect_frame(&mut self.reader)
    }

    fn write(&mut self, frame: &Frame) -> Result<()> {
        write_frame(&mut self.writer, frame)?;
        self.writer
            .flush()
            .map_err(|e| Error::transport("flushing a frame", e))
    }
}

type JobRunner = fn(&[u8], u64, ShardAssignment, &mut JobConn<'_>) -> Result<()>;

/// Maps stage kinds to monomorphized job runners.
///
/// [`crate::builtin_registry`] registers every distributable stage in the
/// workspace; embedders with custom stages add their own with
/// [`Registry::register`].
/// Keyed on a `BTreeMap` so diagnostics and any future capability
/// handshake enumerate kinds deterministically (`mcim-lint` forbids hash
/// iteration in wire paths).
#[derive(Default)]
pub struct Registry {
    runners: BTreeMap<&'static str, JobRunner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers a stage type under its [`StageDecode::KIND`].
    ///
    /// # Panics
    /// Panics if the kind is already registered — duplicate kinds would
    /// silently shadow each other's folds.
    pub fn register<St: StageDecode>(&mut self) {
        let previous = self.runners.insert(St::KIND, run_job::<St>);
        assert!(previous.is_none(), "duplicate stage kind {:?}", St::KIND);
    }

    /// The registered kinds (in sorted order; for diagnostics).
    pub fn kinds(&self) -> Vec<&'static str> {
        self.runners.keys().copied().collect()
    }
}

/// One job: decode the stage, fold chunks until `Flush`, reply with the
/// partial (or drain and reply with `Err`).
fn run_job<St: StageDecode>(
    payload: &[u8],
    stage_seed: u64,
    shards: ShardAssignment,
    conn: &mut JobConn<'_>,
) -> Result<()> {
    let stage_err = (|| {
        let mut reader = WireReader::new(payload);
        let stage = St::decode(&mut reader)?;
        reader.finish()?;
        Ok(stage)
    })();
    let mut state = match stage_err {
        Ok(stage) => {
            let acc = stage.template();
            Ok((stage, acc))
        }
        Err(e) => Err(e),
    };
    let mut cursor = ShardCursor::default();
    loop {
        match conn.read()? {
            Frame::Chunk { first_abs, items } => {
                if let Ok((stage, acc)) = &mut state {
                    let outcome = (|| {
                        let mut reader = WireReader::new(&items);
                        let decoded = Vec::<St::Item>::take(&mut reader)?;
                        reader.finish()?;
                        cursor.fold(stage_seed, first_abs, &decoded, |rng, abs, items| {
                            let shard = abs / SHARD_SIZE as u64;
                            if !shards.owns(shard) {
                                return Err(Error::protocol(format!(
                                    "folding a chunk (shard {shard} routed to a worker that \
                                     does not own it)"
                                )));
                            }
                            stage.fold(rng, abs, items, acc)
                        })
                    })();
                    if let Err(e) = outcome {
                        // Keep draining (the coordinator is still
                        // writing); answer at Flush.
                        state = Err(e);
                    }
                }
            }
            Frame::Flush => {
                let reply = match &state {
                    Ok((_, acc)) => {
                        let mut bytes = Vec::new();
                        acc.save(&mut bytes);
                        Frame::Partial { state: bytes }
                    }
                    Err(e) => Frame::Err {
                        message: e.to_string(),
                    },
                };
                return conn.write(&reply);
            }
            other => {
                return Err(Error::protocol(format!(
                    "running a job (unexpected {} frame mid-stream)",
                    other.name()
                )))
            }
        }
    }
}

/// Drains a malformed job's stream (unknown stage kind) until `Flush`,
/// then reports the failure — the coordinator must not be left writing
/// into a closed socket.
fn drain_and_refuse(conn: &mut JobConn<'_>, message: String) -> Result<()> {
    loop {
        match conn.read()? {
            Frame::Chunk { .. } => {}
            Frame::Flush => return conn.write(&Frame::Err { message }),
            other => {
                return Err(Error::protocol(format!(
                    "refusing a job (unexpected {} frame mid-stream)",
                    other.name()
                )))
            }
        }
    }
}

/// A worker process's serving half: a [`Registry`] plus the connection
/// loop.
pub struct Worker {
    registry: Registry,
}

impl Worker {
    /// A worker over an explicit registry.
    pub fn new(registry: Registry) -> Self {
        Worker { registry }
    }

    /// Serves connections forever (the `mcim worker` default).
    pub fn serve(&self, listener: &TcpListener) -> Result<()> {
        loop {
            let (stream, peer) = listener
                .accept()
                .map_err(|e| Error::transport("accepting a coordinator connection", e))?;
            // One coordinator at a time; a protocol error on one
            // connection must not take the worker down for the next —
            // but the operator gets the evidence.
            if let Err(e) = self.serve_conn(stream) {
                // mcim-lint: allow(stdout-noise, serve() is the worker binary's operator-facing loop; stderr is its diagnostic channel)
                eprintln!("mcim worker: connection from {peer} failed: {e}");
            }
        }
    }

    /// Serves exactly one connection, then returns — the mode
    /// coordinator-spawned workers run in (`mcim worker --once`), so the
    /// child process exits when its coordinator disconnects.
    pub fn serve_once(&self, listener: &TcpListener) -> Result<()> {
        let (stream, _) = listener
            .accept()
            .map_err(|e| Error::transport("accepting a coordinator connection", e))?;
        self.serve_conn(stream)
    }

    /// Runs the frame loop on an accepted connection until the
    /// coordinator sends `Shutdown` or closes the socket.
    pub fn serve_conn(&self, stream: TcpStream) -> Result<()> {
        stream
            .set_nodelay(true)
            .map_err(|e| Error::transport("configuring a connection", e))?;
        let reader = stream
            .try_clone()
            .map_err(|e| Error::transport("cloning a connection handle", e))?;
        self.serve_io(reader, stream)
    }

    /// Runs the frame loop over arbitrary reader/writer halves — the
    /// transport-agnostic core of [`Worker::serve_conn`], also driven
    /// directly by the chaos harness over fault-injected streams
    /// ([`crate::proto::fault`]). Buffering is applied here; pass the raw
    /// halves.
    pub fn serve_io<R: Read, W: Write>(&self, reader: R, writer: W) -> Result<()> {
        let mut reader = BufReader::new(reader);
        let mut writer = BufWriter::new(writer);

        // Handshake: the coordinator leads with its version.
        match expect_frame(&mut reader)? {
            Frame::Hello { version } if version == PROTOCOL_VERSION => {}
            Frame::Hello { version } => {
                let refusal = Frame::Err {
                    message: format!(
                        "protocol version mismatch: worker speaks {PROTOCOL_VERSION}, \
                         coordinator {version}"
                    ),
                };
                let mut conn = JobConn {
                    reader: &mut reader,
                    writer: &mut writer,
                };
                conn.write(&refusal)?;
                return Err(Error::protocol(format!(
                    "handshaking (coordinator speaks protocol {version}, worker \
                     {PROTOCOL_VERSION})"
                )));
            }
            other => {
                return Err(Error::protocol(format!(
                    "handshaking (expected Hello, got {})",
                    other.name()
                )))
            }
        }
        {
            let mut conn = JobConn {
                reader: &mut reader,
                writer: &mut writer,
            };
            conn.write(&Frame::Hello {
                version: PROTOCOL_VERSION,
            })?;
        }

        loop {
            let frame = match read_frame(&mut reader)? {
                Some(frame) => frame,
                None => return Ok(()), // clean disconnect between jobs
            };
            match frame {
                Frame::Job {
                    stage_seed,
                    contract,
                    kind,
                    payload,
                    shards,
                } => {
                    shards.validate()?;
                    let mut conn = JobConn {
                        reader: &mut reader,
                        writer: &mut writer,
                    };
                    // Refuse cross-contract jobs before touching the
                    // registry: a stage folded under a different sampling
                    // contract would return plausible but wrong partials.
                    if contract != RNG_CONTRACT {
                        drain_and_refuse(
                            &mut conn,
                            format!(
                                "RNG-contract mismatch: job declares v{contract}, worker \
                                 implements v{RNG_CONTRACT} — run coordinator and workers \
                                 from the same build (see the README section \"RNG \
                                 contract\")"
                            ),
                        )?;
                        continue;
                    }
                    match self.registry.runners.get(kind.as_str()) {
                        Some(runner) => runner(&payload, stage_seed, shards, &mut conn)?,
                        None => drain_and_refuse(
                            &mut conn,
                            format!(
                                "unknown stage kind {kind:?} (worker knows: {:?})",
                                self.registry.kinds()
                            ),
                        )?,
                    }
                }
                Frame::Shutdown => return Ok(()),
                other => {
                    return Err(Error::protocol(format!(
                        "waiting for a job (unexpected {} frame)",
                        other.name()
                    )))
                }
            }
        }
    }
}
