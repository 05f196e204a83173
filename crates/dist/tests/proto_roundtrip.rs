//! Deterministic-seed roundtrip properties for the reducer's wire
//! protocol: every [`Frame`] variant and [`ShardAssignment`] shape must
//! survive **encode → decode → re-encode byte-identically**, and the
//! borrowed-payload chunk writer must stay byte-compatible with the owned
//! frame encoder.
//!
//! Byte (not just value) equality is the property the distributed
//! equivalence matrix leans on: a frame relayed or re-serialized by any
//! process must not drift. The bytes themselves are pinned once, in the
//! wire golden table (`golden/wire_golden.txt`, checked row by row in
//! `wire_golden.rs`); here every `Frame` variant must have a row there,
//! and the streaming chunk writer must reproduce the pinned pair `Chunk`.

mod golden;

use std::collections::BTreeSet;

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

/// Every variant has a row in the golden table (`wire_golden.rs` checks
/// each row's bytes both ways).
#[test]
fn frames_match_golden_bytes() {
    let (_, pinned) = golden::pinned();
    let variants: BTreeSet<&str> = pinned
        .iter()
        .filter(|(key, _)| key.starts_with("Frame |"))
        .map(|(key, hex)| {
            let bytes = golden::unhex(hex);
            let frame = read_frame(&mut &bytes[..]).expect("decode").expect(key);
            frame.name()
        })
        .collect();
    let all = [
        "Hello", "Job", "Chunk", "Flush", "Partial", "Err", "Shutdown",
    ];
    assert_eq!(
        variants,
        BTreeSet::from(all),
        "a Frame variant has no golden row"
    );
}

/// The pinned pair `Chunk` comes out of the borrowed-payload writer too,
/// and decodes back to the three pairs.
#[test]
fn pair_chunk_matches_golden_bytes() {
    let mut items = Vec::new();
    golden::pairs().put(&mut items);
    let mut fast = Vec::new();
    write_chunk_frame(&mut fast, golden::PAIR_CHUNK_FIRST_ABS, &items).expect("encode");
    assert_eq!(golden::hex(&fast), golden::pinned_hex(golden::PAIR_CHUNK));
    let Some(Frame::Chunk { items, .. }) = read_frame(&mut &fast[..]).expect("decode") else {
        panic!("expected a Chunk frame");
    };
    let mut r = WireReader::new(&items);
    let pairs = Vec::<LabelItem>::take(&mut r).expect("pairs");
    r.finish().expect("exact consumption");
    assert_eq!(pairs, golden::pairs());
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
