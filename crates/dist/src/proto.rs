//! The reducer's length-prefixed binary wire protocol.
//!
//! Every message is one **frame**: a little-endian `u32` length, a one-byte
//! tag, and the tag's body encoded with the [`mcim_oracles::wire`] codecs.
//! The length counts the tag plus body and is capped at [`MAX_FRAME`] on
//! both sides, so a corrupt or hostile peer can neither make the other
//! side allocate unboundedly nor stall it mid-message: truncated,
//! oversized and malformed frames all surface as
//! [`Error::Transport`] before any bytes
//! reach an aggregator.
//!
//! ## Conversation shape
//!
//! ```text
//! coordinator                                worker
//!   Hello{version}            ─────────────▶
//!                             ◀─────────────  Hello{version}
//!   Job{seed, kind, payload,  ─────────────▶    (stage rebuilt from spec)
//!       shard assignment}
//!   Chunk{first_abs, items}   ─────────────▶    (fold, carry RNG mid-shard)
//!   Chunk…                    ─────────────▶
//!   Flush                     ─────────────▶
//!                             ◀─────────────  Partial{acc state} | Err{msg}
//!   Job…  (next stage, same socket)
//!   Shutdown                  ─────────────▶    (worker returns)
//! ```
//!
//! Workers never write while a stage is streaming — the only worker frames
//! are the handshake reply and the per-job `Partial`/`Err` after `Flush` —
//! so the socket carries strictly one direction of bulk traffic at a time
//! and the pair cannot deadlock on full TCP windows.
//!
//! ## Wire golden table
//!
//! Every layout decision in this module — the [`Frame`] variants, the tag
//! bytes, [`MAX_FRAME`], and the `Wire` codecs the bodies ride on — is
//! pinned by bytes in the crate's wire golden table
//! (`tests/golden/wire_golden.txt`, checked by `tests/wire_golden.rs`),
//! together with every item, stage payload and accumulator state a frame
//! carries. Each row encodes a canonical value and compares it with the
//! pinned hex, then decodes the hex back through the real entry point.
//! The table's first line is `protocol_version = N` and must equal
//! [`PROTOCOL_VERSION`]; CI fails a change that alters or removes a row
//! without moving that line, so no byte a peer reads changes under a live
//! protocol version. See README "Static analysis".

use std::io::{Read, Write};

use mcim_oracles::wire::{Wire, WireReader};
use mcim_oracles::{Error, Result};

pub mod count;
pub mod fault;

/// Protocol version; bumped on any frame-layout change. Coordinator and
/// worker exchange it in `Hello` and refuse mismatches. Version 2 added
/// the RNG-contract field to `Job`; a worker refuses any job whose
/// contract differs from its own, so builds on different contracts never
/// silently produce divergent bits.
pub const PROTOCOL_VERSION: u32 = 2;

/// Upper bound on one frame's tag+body bytes (64 MiB — comfortably above
/// the default ingestion chunk of 65 536 pairs, far below anything a
/// refusing allocator would mind).
pub const MAX_FRAME: u32 = 64 << 20;

/// The largest item payload (the `u32` count, then the items) one Chunk
/// frame carries: [`MAX_FRAME`] less the tag, `first_abs` and the
/// payload's byte-length prefix. The coordinator splits longer runs.
pub const MAX_CHUNK_PAYLOAD: usize = MAX_FRAME as usize - (1 + 8 + 4);

/// Which absolute shards a worker owns for one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardAssignment {
    /// The contiguous range `[first, end)` — used for sized sources, where
    /// the coordinator can partition the shard count up front.
    Range {
        /// First owned shard.
        first: u64,
        /// One past the last owned shard.
        end: u64,
    },
    /// Every shard with `shard % stride == offset` — used for unsized
    /// sources, dealt round-robin as the stream arrives.
    Stride {
        /// This worker's residue class.
        offset: u64,
        /// Total worker count.
        stride: u64,
    },
}

impl ShardAssignment {
    /// Whether this assignment owns `shard`.
    pub fn owns(&self, shard: u64) -> bool {
        match *self {
            ShardAssignment::Range { first, end } => (first..end).contains(&shard),
            ShardAssignment::Stride { offset, stride } => shard % stride == offset,
        }
    }

    /// Fail-fast shape validation (a `Range` with `first > end` or a
    /// `Stride` with `stride == 0` means the peers disagree about the
    /// worker count).
    pub fn validate(&self) -> Result<()> {
        match *self {
            ShardAssignment::Range { first, end } if first > end => Err(Error::protocol(format!(
                "validating a shard assignment (range {first}..{end} is inverted)"
            ))),
            ShardAssignment::Stride { offset, stride } if stride == 0 || offset >= stride => {
                Err(Error::protocol(format!(
                    "validating a shard assignment (stride {stride} with offset {offset})"
                )))
            }
            _ => Ok(()),
        }
    }
}

impl Wire for ShardAssignment {
    fn put(&self, buf: &mut Vec<u8>) {
        match *self {
            ShardAssignment::Range { first, end } => {
                0u8.put(buf);
                first.put(buf);
                end.put(buf);
            }
            ShardAssignment::Stride { offset, stride } => {
                1u8.put(buf);
                offset.put(buf);
                stride.put(buf);
            }
        }
    }

    fn take(r: &mut WireReader<'_>) -> Result<Self> {
        let assignment = match u8::take(r)? {
            0 => ShardAssignment::Range {
                first: u64::take(r)?,
                end: u64::take(r)?,
            },
            1 => ShardAssignment::Stride {
                offset: u64::take(r)?,
                stride: u64::take(r)?,
            },
            tag => {
                return Err(Error::protocol(format!(
                    "decoding a shard assignment (unknown tag {tag})"
                )))
            }
        };
        assignment.validate()?;
        Ok(assignment)
    }
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Version handshake, sent by the coordinator on connect and echoed by
    /// the worker.
    Hello {
        /// [`PROTOCOL_VERSION`] of the sender.
        version: u32,
    },
    /// Starts one fold job on the worker.
    Job {
        /// Base seed of the stage's per-shard RNG streams.
        stage_seed: u64,
        /// RNG-contract version the coordinator built the stage under
        /// (see [`RNG_CONTRACT`](mcim_oracles::exec::RNG_CONTRACT)). The
        /// worker refuses jobs from a different contract — a mismatch
        /// would merge partials sampled from incompatible RNG streams.
        contract: u32,
        /// Registry key of the stage implementation.
        kind: String,
        /// Encoded stage parameters (see
        /// [`StageSpec`](mcim_oracles::wire::StageSpec)).
        payload: Vec<u8>,
        /// The absolute shards this worker owns.
        shards: ShardAssignment,
    },
    /// A run of consecutive stream items for the current job, starting at
    /// absolute position `first_abs`. `items` is a `Wire`-encoded
    /// `Vec<Item>` of the job's item type. On the wire it rides in the
    /// `Vec<u8>` encoding; [`read_frame`] copies it out as one checked
    /// slice ([`WireReader::take_prefixed_bytes`]), never byte by byte.
    Chunk {
        /// Absolute stream index of the first item.
        first_abs: u64,
        /// Encoded items.
        items: Vec<u8>,
    },
    /// Ends the current job's stream; the worker answers with `Partial`
    /// or `Err`.
    Flush,
    /// The worker's serialized accumulator state for the finished job.
    Partial {
        /// Encoded [`WireState`](mcim_oracles::wire::WireState) bytes.
        state: Vec<u8>,
    },
    /// The worker failed the current job (after draining its stream).
    Err {
        /// Human-readable failure description.
        message: String,
    },
    /// Ends the session; the worker's connection loop returns.
    Shutdown,
}

const TAG_HELLO: u8 = 0;
const TAG_JOB: u8 = 1;
const TAG_CHUNK: u8 = 2;
const TAG_FLUSH: u8 = 3;
const TAG_PARTIAL: u8 = 4;
const TAG_ERR: u8 = 5;
const TAG_SHUTDOWN: u8 = 6;

impl Frame {
    fn tag(&self) -> u8 {
        match self {
            Frame::Hello { .. } => TAG_HELLO,
            Frame::Job { .. } => TAG_JOB,
            Frame::Chunk { .. } => TAG_CHUNK,
            Frame::Flush => TAG_FLUSH,
            Frame::Partial { .. } => TAG_PARTIAL,
            Frame::Err { .. } => TAG_ERR,
            Frame::Shutdown => TAG_SHUTDOWN,
        }
    }

    /// Short frame name for protocol-error messages.
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "Hello",
            Frame::Job { .. } => "Job",
            Frame::Chunk { .. } => "Chunk",
            Frame::Flush => "Flush",
            Frame::Partial { .. } => "Partial",
            Frame::Err { .. } => "Err",
            Frame::Shutdown => "Shutdown",
        }
    }

    fn encode_body(&self, buf: &mut Vec<u8>) {
        match self {
            Frame::Hello { version } => version.put(buf),
            Frame::Job {
                stage_seed,
                contract,
                kind,
                payload,
                shards,
            } => {
                stage_seed.put(buf);
                contract.put(buf);
                kind.put(buf);
                payload.put(buf);
                shards.put(buf);
            }
            Frame::Chunk { first_abs, items } => {
                first_abs.put(buf);
                items.put(buf);
            }
            Frame::Flush | Frame::Shutdown => {}
            Frame::Partial { state } => state.put(buf),
            Frame::Err { message } => message.put(buf),
        }
    }

    fn decode(tag: u8, r: &mut WireReader<'_>) -> Result<Frame> {
        let frame = match tag {
            TAG_HELLO => Frame::Hello {
                version: u32::take(r)?,
            },
            TAG_JOB => Frame::Job {
                stage_seed: u64::take(r)?,
                contract: u32::take(r)?,
                kind: String::take(r)?,
                payload: r.take_prefixed_bytes()?.to_vec(),
                shards: ShardAssignment::take(r)?,
            },
            TAG_CHUNK => Frame::Chunk {
                first_abs: u64::take(r)?,
                items: r.take_prefixed_bytes()?.to_vec(),
            },
            TAG_FLUSH => Frame::Flush,
            TAG_PARTIAL => Frame::Partial {
                state: r.take_prefixed_bytes()?.to_vec(),
            },
            TAG_ERR => Frame::Err {
                message: String::take(r)?,
            },
            TAG_SHUTDOWN => Frame::Shutdown,
            other => {
                return Err(Error::protocol(format!(
                    "decoding a frame (unknown tag {other})"
                )))
            }
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Writes one frame. The caller flushes any buffering writer before it
/// expects the peer to react.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<()> {
    let mut body = vec![frame.tag()];
    frame.encode_body(&mut body);
    if body.len() as u64 > MAX_FRAME as u64 {
        return Err(Error::protocol(format!(
            "writing a {} frame ({} bytes exceeds the {MAX_FRAME}-byte cap)",
            frame.name(),
            body.len()
        )));
    }
    let ctx = || format!("writing a {} frame", frame.name());
    w.write_all(&(body.len() as u32).to_le_bytes())
        .map_err(|e| Error::transport(ctx(), e))?;
    w.write_all(&body).map_err(|e| Error::transport(ctx(), e))?;
    Ok(())
}

/// Writes a `Chunk` frame from a borrowed item payload — the streaming
/// hot path. Byte-identical on the wire to
/// `write_frame(w, &Frame::Chunk { first_abs, items: items.to_vec() })`,
/// but the payload goes straight from the caller's reused encode buffer
/// into the (buffered) writer: no owned `Frame`, no second copy, no
/// per-frame allocation.
pub fn write_chunk_frame(w: &mut impl Write, first_abs: u64, items: &[u8]) -> Result<()> {
    // tag + first_abs + u32 byte-length prefix + payload
    let body_len = 1 + 8 + 4 + items.len();
    if body_len as u64 > MAX_FRAME as u64 {
        return Err(Error::protocol(format!(
            "writing a Chunk frame ({body_len} bytes exceeds the {MAX_FRAME}-byte cap)"
        )));
    }
    let mut header = [0u8; 4 + 1 + 8 + 4];
    header[0..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    header[4] = TAG_CHUNK;
    header[5..13].copy_from_slice(&first_abs.to_le_bytes());
    header[13..17].copy_from_slice(&(items.len() as u32).to_le_bytes());
    let ctx = "writing a Chunk frame";
    w.write_all(&header).map_err(|e| Error::transport(ctx, e))?;
    w.write_all(items).map_err(|e| Error::transport(ctx, e))?;
    Ok(())
}

/// Reads one frame, or `None` on a clean end-of-stream at a frame
/// boundary (the peer closed the connection between messages).
///
/// The body is read into one buffer; the byte payloads of `Job`, `Chunk`
/// and `Partial` are then copied out of it as one checked slice each
/// ([`WireReader::take_prefixed_bytes`]), so a `Chunk`'s items cost one
/// `memcpy` between the socket and the item decode, and a declared length
/// past the end of the body fails before anything is allocated.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>> {
    let mut len = [0u8; 4];
    // A clean close at a frame boundary yields zero bytes; anything
    // shorter than the length prefix afterwards is a truncated frame.
    let mut filled = 0;
    while filled < len.len() {
        match r.read(&mut len[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(Error::transport(
                    "reading a frame length",
                    std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed inside a length prefix",
                    ),
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(Error::transport("reading a frame length", e)),
        }
    }
    let len = u32::from_le_bytes(len);
    if len == 0 {
        return Err(Error::protocol("reading a frame (empty frame)"));
    }
    if len > MAX_FRAME {
        return Err(Error::protocol(format!(
            "reading a frame ({len} bytes exceeds the {MAX_FRAME}-byte cap)"
        )));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)
        .map_err(|e| Error::transport("reading a frame body", e))?;
    let mut reader = WireReader::new(&body[1..]);
    Frame::decode(body[0], &mut reader).map(Some)
}

/// [`read_frame`] where end-of-stream is a protocol error (used while a
/// job or handshake is in flight and the peer must still be there).
pub fn expect_frame(r: &mut impl Read) -> Result<Frame> {
    read_frame(r)?.ok_or_else(|| {
        Error::transport(
            "reading a frame",
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "peer closed the connection mid-conversation",
            ),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let mut cursor = &buf[..];
        let decoded = read_frame(&mut cursor).unwrap().expect("one frame");
        assert_eq!(decoded, frame);
        assert!(cursor.is_empty(), "frame consumed exactly");
    }

    #[test]
    fn frames_round_trip() {
        round_trip(Frame::Hello {
            version: PROTOCOL_VERSION,
        });
        round_trip(Frame::Job {
            stage_seed: 0xDEAD_BEEF,
            contract: 2,
            kind: "fw/pts".into(),
            payload: vec![1, 2, 3],
            shards: ShardAssignment::Range { first: 2, end: 9 },
        });
        round_trip(Frame::Job {
            stage_seed: 1,
            contract: 1,
            kind: "pem/vp-round".into(),
            payload: Vec::new(),
            shards: ShardAssignment::Stride {
                offset: 1,
                stride: 4,
            },
        });
        round_trip(Frame::Chunk {
            first_abs: 123_456,
            items: vec![9; 100],
        });
        round_trip(Frame::Flush);
        round_trip(Frame::Partial {
            state: vec![0xAB; 17],
        });
        round_trip(Frame::Err {
            message: "bucket 7 out of domain".into(),
        });
        round_trip(Frame::Shutdown);
    }

    #[test]
    fn chunk_fast_path_is_byte_identical_to_write_frame() {
        let items: Vec<u8> = (0..200u8).collect();
        let mut slow = Vec::new();
        write_frame(
            &mut slow,
            &Frame::Chunk {
                first_abs: 0xABCD_EF01,
                items: items.clone(),
            },
        )
        .unwrap();
        let mut fast = Vec::new();
        write_chunk_frame(&mut fast, 0xABCD_EF01, &items).unwrap();
        assert_eq!(fast, slow);
        // And the cap applies to the fast path too, exactly at the
        // payload bound the coordinator splits runs against.
        let mut sink = Vec::new();
        let mut huge = vec![0u8; MAX_CHUNK_PAYLOAD + 1];
        assert!(write_chunk_frame(&mut sink, 0, &huge).is_err());
        assert!(sink.is_empty());
        huge.pop();
        write_chunk_frame(&mut sink, 0, &huge).unwrap();
        assert_eq!(
            sink.len(),
            4 + MAX_FRAME as usize,
            "a full frame, length prefix included"
        );
    }

    #[test]
    fn clean_eof_is_none_and_mid_frame_eof_errors() {
        assert_eq!(read_frame(&mut &[][..]).unwrap(), None);

        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Flush).unwrap();
        // Truncate at every possible byte offset: all must error, never
        // panic and never decode.
        for cut in 1..buf.len() {
            let err = read_frame(&mut &buf[..cut]).unwrap_err();
            assert!(
                matches!(err, mcim_oracles::Error::Transport { .. }),
                "cut={cut}: {err}"
            );
        }
        // expect_frame turns even the clean EOF into a transport error.
        assert!(expect_frame(&mut &[][..]).is_err());
    }

    #[test]
    fn oversized_frames_are_rejected_on_both_sides() {
        // Writing: a frame whose body exceeds the cap never hits the wire.
        let huge = Frame::Chunk {
            first_abs: 0,
            items: vec![0; MAX_FRAME as usize + 1],
        };
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, &huge).unwrap_err();
        assert!(
            matches!(err, mcim_oracles::Error::Transport { .. }),
            "{err}"
        );
        assert!(sink.is_empty(), "nothing written for an oversized frame");

        // Reading: a hostile length prefix is rejected before allocation.
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        wire.push(3);
        let err = read_frame(&mut &wire[..]).unwrap_err();
        assert!(
            matches!(err, mcim_oracles::Error::Transport { .. }),
            "{err}"
        );

        // Zero-length frames are likewise malformed.
        assert!(read_frame(&mut &0u32.to_le_bytes()[..]).is_err());
    }

    #[test]
    fn malformed_bodies_are_rejected() {
        // Unknown tag.
        let mut wire = Vec::new();
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.push(99);
        assert!(read_frame(&mut &wire[..]).is_err());

        // Trailing garbage after a valid body.
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Flush).unwrap();
        let len = 3u32; // claim 2 extra body bytes
        buf.splice(0..4, len.to_le_bytes());
        buf.extend_from_slice(&[0, 0]);
        assert!(read_frame(&mut &buf[..]).is_err());

        // Inverted range assignment.
        let mut body = vec![1u8]; // Job tag
        7u64.put(&mut body);
        2u32.put(&mut body); // contract
        "k".to_string().put(&mut body);
        Vec::<u8>::new().put(&mut body);
        body.push(0); // Range
        9u64.put(&mut body);
        2u64.put(&mut body);
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(&body);
        assert!(read_frame(&mut &wire[..]).is_err(), "inverted range");
    }

    #[test]
    fn assignments_own_their_shards() {
        let range = ShardAssignment::Range { first: 3, end: 6 };
        assert!(!range.owns(2) && range.owns(3) && range.owns(5) && !range.owns(6));
        let stride = ShardAssignment::Stride {
            offset: 1,
            stride: 3,
        };
        assert!(stride.owns(1) && stride.owns(4) && !stride.owns(0) && !stride.owns(5));
        assert!(ShardAssignment::Range { first: 1, end: 1 }
            .validate()
            .is_ok());
        assert!(ShardAssignment::Stride {
            offset: 3,
            stride: 3
        }
        .validate()
        .is_err());
    }
}
