//! Deterministic-seed roundtrip properties for the reducer's wire
//! protocol: every [`Frame`] variant and [`ShardAssignment`] shape must
//! survive **encode → decode → re-encode byte-identically**, and the
//! borrowed-payload chunk writer must stay byte-compatible with the owned
//! frame encoder.
//!
//! Byte (not just value) equality is the property the distributed
//! equivalence matrix leans on: a frame relayed or re-serialized by any
//! process must not drift. Golden hex literals pin the bytes themselves,
//! one frame per variant plus a `Chunk` of label-item pairs.

use mcim_core::LabelItem;
use mcim_dist::proto::{expect_frame, read_frame, write_chunk_frame, write_frame};
use mcim_dist::{Frame, ShardAssignment, PROTOCOL_VERSION};
use mcim_oracles::wire::{Wire, WireReader};
use proptest::prelude::*;

/// Frame → bytes → frame → bytes; asserts value and byte equality and
/// that the reader stops exactly at the frame boundary.
fn frame_bytes_stable(frame: &Frame) {
    let mut first = Vec::new();
    write_frame(&mut first, frame).expect("encode");
    let mut cursor = &first[..];
    let decoded = read_frame(&mut cursor).expect("decode").expect("one frame");
    assert!(cursor.is_empty(), "frame consumed exactly");
    assert_eq!(&decoded, frame);
    let mut second = Vec::new();
    write_frame(&mut second, &decoded).expect("re-encode");
    assert_eq!(first, second, "re-encode drifted");
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn golden_pairs() -> Vec<LabelItem> {
    vec![
        LabelItem::new(0, 0),
        LabelItem::new(7, 63),
        LabelItem::new(u32::MAX, 1),
    ]
}

/// What a coordinator puts in a `Chunk` for [`golden_pairs`].
fn golden_pair_bytes() -> Vec<u8> {
    let mut items = Vec::new();
    golden_pairs().put(&mut items);
    items
}

const PAIR_CHUNK_FIRST_ABS: u64 = 0x0102_0304_0506_0708;

/// The `Chunk` frame carrying [`golden_pair_bytes`] at
/// [`PAIR_CHUNK_FIRST_ABS`].
const PAIR_CHUNK_HEX: &str = concat!(
    "29000000",
    "02",
    "0807060504030201", // first_abs
    "1c000000",         // byte length of the items
    "03000000",         // pair count
    "00000000",
    "00000000",
    "07000000",
    "3f000000",
    "ffffffff",
    "01000000",
);

/// One frame of every variant with the exact bytes it takes on the wire,
/// length prefix included. These literals pin the protocol independently
/// of the schema lock: a codec change that keeps the fingerprints happy
/// (or regenerates them) still has to leave these bytes alone.
fn golden_frames() -> Vec<(Frame, &'static str)> {
    vec![
        (
            Frame::Hello { version: 2 },
            concat!("05000000", "00", "02000000"),
        ),
        (
            Frame::Job {
                stage_seed: 0x0123_4567_89ab_cdef,
                contract: 4,
                kind: "fw/pts".into(),
                payload: vec![1, 2, 3],
                shards: ShardAssignment::Range { first: 2, end: 9 },
            },
            concat!(
                "2f000000",
                "01",
                "efcdab8967452301", // stage_seed
                "04000000",         // contract
                "06000000",         // kind
                "66772f707473",
                "03000000", // payload
                "010203",
                "00", // Range
                "0200000000000000",
                "0900000000000000",
            ),
        ),
        (
            Frame::Job {
                stage_seed: 7,
                contract: 4,
                kind: String::new(),
                payload: Vec::new(),
                shards: ShardAssignment::Stride {
                    offset: 1,
                    stride: 4,
                },
            },
            concat!(
                "26000000",
                "01",
                "0700000000000000",
                "04000000",
                "00000000", // empty kind
                "00000000", // empty payload
                "01",       // Stride
                "0100000000000000",
                "0400000000000000",
            ),
        ),
        (
            Frame::Chunk {
                first_abs: 65_536,
                items: vec![0xaa, 0xbb],
            },
            concat!("0f000000", "02", "0000010000000000", "02000000", "aabb"),
        ),
        (
            Frame::Chunk {
                first_abs: PAIR_CHUNK_FIRST_ABS,
                items: golden_pair_bytes(),
            },
            PAIR_CHUNK_HEX,
        ),
        (Frame::Flush, concat!("01000000", "03")),
        (
            Frame::Partial {
                state: vec![0xab; 5],
            },
            concat!("0a000000", "04", "05000000", "ababababab"),
        ),
        (
            Frame::Err {
                message: "bad".into(),
            },
            concat!("08000000", "05", "03000000", "626164"),
        ),
        (Frame::Shutdown, concat!("01000000", "06")),
    ]
}

/// Every variant encodes to its golden bytes, and the golden bytes decode
/// back to the frame.
#[test]
fn frames_match_golden_bytes() {
    for (frame, golden) in golden_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).expect("encode");
        assert_eq!(hex(&wire), golden, "{} frame bytes drifted", frame.name());
        let mut cursor = &wire[..];
        assert_eq!(read_frame(&mut cursor).expect("decode"), Some(frame));
        assert!(cursor.is_empty(), "frame consumed exactly");
    }
}

/// The pair chunk's golden bytes come out of the borrowed-payload writer
/// too, and decode back to the three pairs.
#[test]
fn pair_chunk_matches_golden_bytes() {
    let mut fast = Vec::new();
    write_chunk_frame(&mut fast, PAIR_CHUNK_FIRST_ABS, &golden_pair_bytes()).expect("encode");
    assert_eq!(hex(&fast), PAIR_CHUNK_HEX);
    let Some(Frame::Chunk { items, .. }) = read_frame(&mut &fast[..]).expect("decode") else {
        panic!("expected a Chunk frame");
    };
    let mut r = WireReader::new(&items);
    let pairs = Vec::<LabelItem>::take(&mut r).expect("pairs");
    r.finish().expect("exact consumption");
    assert_eq!(pairs, golden_pairs());
}

/// Valid `Range` assignment from two arbitrary draws.
fn range_of(a: u64, b: u64) -> ShardAssignment {
    ShardAssignment::Range {
        first: a.min(b),
        end: a.max(b),
    }
}

/// Valid `Stride` assignment from two arbitrary draws.
fn stride_of(offset: u64, stride: u64) -> ShardAssignment {
    let stride = stride.max(1);
    ShardAssignment::Stride {
        offset: offset % stride,
        stride,
    }
}

proptest! {
    /// Both shard-assignment shapes re-encode byte-identically.
    #[test]
    fn shard_assignment_roundtrip(a in any::<u64>(), b in any::<u64>()) {
        for assignment in [range_of(a, b), stride_of(a, b)] {
            let mut first = Vec::new();
            assignment.put(&mut first);
            let mut r = WireReader::new(&first);
            let decoded = ShardAssignment::take(&mut r).expect("decode");
            r.finish().expect("exact consumption");
            prop_assert_eq!(decoded, assignment);
            let mut second = Vec::new();
            decoded.put(&mut second);
            prop_assert_eq!(first, second);
        }
    }

    /// Every frame variant roundtrips; bodies drawn from the full space
    /// (arbitrary payload bytes, lossily-repaired UTF-8 messages).
    #[test]
    fn every_frame_variant_roundtrips(
        version in any::<u32>(),
        stage_seed in any::<u64>(),
        contract in any::<u32>(),
        raw_kind in prop::collection::vec(any::<u8>(), 0..24),
        payload in prop::collection::vec(any::<u8>(), 0..80),
        first_abs in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
        stride_not_range in any::<bool>(),
    ) {
        let kind = String::from_utf8_lossy(&raw_kind).into_owned();
        let shards = if stride_not_range { stride_of(a, b) } else { range_of(a, b) };
        frame_bytes_stable(&Frame::Hello { version });
        frame_bytes_stable(&Frame::Hello { version: PROTOCOL_VERSION });
        frame_bytes_stable(&Frame::Job {
            stage_seed,
            contract,
            kind: kind.clone(),
            payload: payload.clone(),
            shards,
        });
        frame_bytes_stable(&Frame::Chunk { first_abs, items: payload.clone() });
        frame_bytes_stable(&Frame::Flush);
        frame_bytes_stable(&Frame::Partial { state: payload });
        frame_bytes_stable(&Frame::Err { message: kind });
        frame_bytes_stable(&Frame::Shutdown);
    }

    /// The streaming chunk writer is byte-identical on the wire to the
    /// owned `Frame::Chunk` encoder — the hot path may never fork the
    /// protocol.
    #[test]
    fn chunk_fast_path_matches_owned_frame(
        first_abs in any::<u64>(),
        items in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut fast = Vec::new();
        write_chunk_frame(&mut fast, first_abs, &items).expect("fast path");
        let mut owned = Vec::new();
        write_frame(&mut owned, &Frame::Chunk { first_abs, items }).expect("owned path");
        prop_assert_eq!(fast, owned);
    }

    /// Back-to-back frames on one stream decode in order with no
    /// bleed-through, and the stream ends cleanly.
    #[test]
    fn frame_streams_decode_in_order(
        seeds in prop::collection::vec(any::<u64>(), 1..8),
        payload in prop::collection::vec(any::<u8>(), 0..40),
    ) {
        let frames: Vec<Frame> = seeds
            .iter()
            .map(|&s| Frame::Chunk { first_abs: s, items: payload.clone() })
            .chain([Frame::Flush, Frame::Shutdown])
            .collect();
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).expect("encode");
        }
        let mut cursor = &buf[..];
        for f in &frames {
            prop_assert_eq!(&expect_frame(&mut cursor).expect("decode"), f);
        }
        prop_assert!(read_frame(&mut cursor).expect("clean EOF").is_none());
    }
}
