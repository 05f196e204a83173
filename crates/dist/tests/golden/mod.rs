//! The wire golden table: one canonical value per row, each encoded by
//! the code under test and pinned to the hex in `wire_golden.txt`.
//!
//! Every row is bytes that cross the dist socket, alone or inside a
//! frame: the `Wire` items of a `Chunk`, a `Job`'s shard assignment and
//! stage payload, the accumulator state of a `Partial`, the frames
//! themselves. A row's key is `trait | type | label`; the type is the
//! Rust type name of the value with its module paths dropped.
//!
//! Each row also carries its decode entry point — `take`, `load` into the
//! stage's template, `StageDecode::decode`, or `read_frame` to the end of
//! the stream — which must consume the bytes exactly and returns the
//! re-encoding of what it decoded.
//!
//! `wire_golden.rs` checks every row; `proto_roundtrip.rs` checks that
//! every `Frame` variant has one.

#![allow(dead_code)]

use std::fmt::Debug;

use mcim_core::frameworks::stages::{CpArm, FwStage, HecArm, PtjArm, PtsArm};
use mcim_core::{Domains, LabelItem};
use mcim_dist::proto::{expect_frame, read_frame, write_frame};
use mcim_dist::{Frame, ShardAssignment, MAX_FRAME, PROTOCOL_VERSION};
use mcim_oracles::exec::{StageDecode, RNG_CONTRACT};
use mcim_oracles::parallel::shard_rng;
use mcim_oracles::wire::{Wire, WireReader, WireState};
use mcim_oracles::{Eps, Error, Result};
use mcim_topk::{PemOracleRoundStage, PemVpRoundStage};

/// The committed table: a `protocol_version = N` line, then one
/// `trait | type | label | hex` line per row (`#` lines are comments).
const TABLE: &str = include_str!("wire_golden.txt");

type Decode = Box<dyn Fn(&[u8]) -> Result<Vec<u8>>>;

/// One golden row.
pub struct Row {
    /// `Wire`, `WireState`, `StageDecode` or `Frame`.
    pub kind: &'static str,
    /// The value's type, module paths dropped.
    pub ty: String,
    /// Which value of that type (for a stage or its state: the stage kind).
    pub label: String,
    /// The value's encoding by the code under test.
    pub bytes: Vec<u8>,
    /// The decode entry point; returns the re-encoding of what it decoded.
    pub decode: Decode,
}

impl Row {
    /// The row's key in [`TABLE`].
    pub fn key(&self) -> String {
        format!("{} | {} | {}", self.kind, self.ty, self.label)
    }
}

/// Lower-case hex of `bytes`.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Bytes of a hex string.
pub fn unhex(hex: &str) -> Vec<u8> {
    assert!(hex.len() % 2 == 0, "odd hex length: {hex}");
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// [`TABLE`]'s protocol version and its `(key, hex)` rows, in file order.
pub fn pinned() -> (u32, Vec<(String, String)>) {
    let mut lines = TABLE
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'));
    let version = lines
        .next()
        .and_then(|l| l.strip_prefix("protocol_version = "))
        .and_then(|v| v.parse().ok())
        .expect("the table starts with `protocol_version = N`");
    let rows = lines
        .map(|l| {
            let (key, hex) = l.rsplit_once(" | ").expect("`trait | type | label | hex`");
            (key.to_string(), hex.to_string())
        })
        .collect();
    (version, rows)
}

/// The pinned hex of the row `key`.
pub fn pinned_hex(key: &str) -> String {
    let (_, rows) = pinned();
    rows.into_iter()
        .find_map(|(k, hex)| (k == key).then_some(hex))
        .unwrap_or_else(|| panic!("no `{key}` row in wire_golden.txt"))
}

/// `std::any::type_name` without module paths:
/// `(mcim_core::validity::VpAggregator, …)` → `(VpAggregator, …)`.
fn short_type<T>() -> String {
    let full = std::any::type_name::<T>();
    let mut segments = full.split("::").peekable();
    let mut out = String::new();
    while let Some(segment) = segments.next() {
        if segments.peek().is_none() {
            out.push_str(segment);
        } else if let Some(end) = segment.rfind(|c: char| !(c.is_alphanumeric() || c == '_')) {
            out.push_str(&segment[..=end]);
        }
    }
    out
}

fn wire<T: Wire + PartialEq + Debug + 'static>(label: &str, value: T) -> Row {
    let mut bytes = Vec::new();
    value.put(&mut bytes);
    Row {
        kind: "Wire",
        ty: short_type::<T>(),
        label: label.to_string(),
        bytes,
        decode: Box::new(move |b| {
            let mut r = WireReader::new(b);
            let decoded = T::take(&mut r)?;
            r.finish()?;
            assert_eq!(decoded, value, "decoded value");
            let mut out = Vec::new();
            decoded.put(&mut out);
            Ok(out)
        }),
    }
}

/// `value`'s state, loaded back into a clone of `template`.
fn state<S: WireState + Clone + 'static>(label: &str, value: S, template: S) -> Row {
    let mut bytes = Vec::new();
    value.save(&mut bytes);
    Row {
        kind: "WireState",
        ty: short_type::<S>(),
        label: label.to_string(),
        bytes,
        decode: Box::new(move |b| {
            let mut loaded = template.clone();
            let mut r = WireReader::new(b);
            loaded.load(&mut r)?;
            r.finish()?;
            let mut out = Vec::new();
            loaded.save(&mut out);
            Ok(out)
        }),
    }
}

/// A stage's spec payload, and its accumulator after folding `items`
/// (loaded back into the stage's template, as the coordinator does).
fn stage_rows<St: StageDecode + 'static>(stage: St, items: &[St::Item]) -> [Row; 2]
where
    St::Acc: 'static,
{
    let spec = stage.spec().expect("a registered stage has a spec");
    assert_eq!((spec.kind, spec.contract), (St::KIND, RNG_CONTRACT));
    let payload = Row {
        kind: "StageDecode",
        ty: short_type::<St>(),
        label: St::KIND.to_string(),
        bytes: spec.payload,
        decode: Box::new(|b| {
            let mut r = WireReader::new(b);
            let decoded = St::decode(&mut r)?;
            r.finish()?;
            Ok(decoded.spec().expect("spec").payload)
        }),
    };
    let mut acc = stage.template();
    stage
        .fold(&mut shard_rng(1, 0), 0, items, &mut acc)
        .expect("fold the row's items");
    let partial = state(St::KIND, acc, stage.template());
    [payload, partial]
}

fn frame(label: &str, value: Frame) -> Row {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &value).expect("encode");
    Row {
        kind: "Frame",
        ty: "Frame".to_string(),
        label: label.to_string(),
        bytes,
        decode: Box::new(move |b| {
            let mut stream = b;
            let decoded = expect_frame(&mut stream)?;
            if let Some(next) = read_frame(&mut stream)? {
                return Err(Error::protocol(format!(
                    "decoding one frame (a {} frame follows)",
                    next.name()
                )));
            }
            assert_eq!(decoded, value, "decoded frame");
            let mut out = Vec::new();
            write_frame(&mut out, &decoded)?;
            Ok(out)
        }),
    }
}

/// The label-item pairs of the pinned pair `Chunk`.
pub fn pairs() -> Vec<LabelItem> {
    vec![
        LabelItem::new(0, 0),
        LabelItem::new(7, 63),
        LabelItem::new(u32::MAX, 1),
    ]
}

/// `first_abs` of the pinned pair `Chunk`.
pub const PAIR_CHUNK_FIRST_ABS: u64 = 0x0102_0304_0506_0708;

/// Key of the pinned pair `Chunk`.
pub const PAIR_CHUNK: &str = "Frame | Frame | Chunk of three pairs";

/// Every row, in table order.
pub fn rows() -> Vec<Row> {
    let eps = |v| Eps::new(v).expect("eps");
    let domains = Domains::new(2, 3).expect("domains");
    let fw_items = [(0, 0), (1, 2), (0, 1), (1, 1), (1, 2)].map(|(l, i)| LabelItem::new(l, i));
    let pem_items = [Some(0), Some(5), None, Some(7), Some(4)];
    let mut rows = vec![
        wire("zero", 0u8),
        wire("max", u8::MAX),
        wire("0x0102", 0x0102u16),
        wire("max", u16::MAX),
        wire("zero", 0u32),
        wire("0xdeadbeef", 0xdead_beefu32),
        wire("max", u32::MAX),
        wire("MAX_FRAME", MAX_FRAME),
        wire("0x0102030405060708", 0x0102_0304_0506_0708u64),
        wire("max", u64::MAX),
        wire("-1.25", -1.25f64),
        wire("-0", -0.0f64),
        wire("infinity", f64::INFINITY),
        wire("smallest subnormal", f64::from_bits(1)),
        wire("false", false),
        wire("true", true),
        wire("none", None::<u32>),
        wire("some", Some(7u32)),
        wire("empty", Vec::<u16>::new()),
        wire("two", vec![1u16, u16::MAX]),
        wire("empty", String::new()),
        wire("utf-8", "héllo".to_string()),
        wire("pair", (3u32, Some(9u64))),
        wire("origin", LabelItem::new(0, 0)),
        wire("max label", LabelItem::new(u32::MAX, 1)),
        wire("chunk items", pairs()),
        wire("chunk items", vec![Some(5u32), None]),
        wire("range", ShardAssignment::Range { first: 2, end: 9 }),
        wire("empty range", ShardAssignment::Range { first: 0, end: 0 }),
        wire(
            "stride",
            ShardAssignment::Stride {
                offset: 1,
                stride: 4,
            },
        ),
        wire(
            "widest stride",
            ShardAssignment::Stride {
                offset: u64::MAX - 1,
                stride: u64::MAX,
            },
        ),
        state("zero", 0u64, 1),
        state("max", u64::MAX, 0),
        state("0.5", 0.5f64, 0.0),
        state("empty", Vec::<u64>::new(), Vec::new()),
        state("three", vec![1u64, 0, u64::MAX], vec![0; 3]),
        state("pair", (7u64, 0.5f64), (0, 0.0)),
    ];
    rows.extend(stage_rows(
        FwStage::new(HecArm::new(eps(1.5), domains).expect("hec")),
        &fw_items,
    ));
    rows.extend(stage_rows(
        FwStage::new(PtjArm::new(eps(1.5), domains).expect("ptj")),
        &fw_items,
    ));
    rows.extend(stage_rows(
        FwStage::new(PtsArm::new(eps(0.5), eps(1.0), domains).expect("pts")),
        &fw_items,
    ));
    rows.extend(stage_rows(
        FwStage::new(CpArm::new(eps(0.5), eps(1.0), domains).expect("pts-cp")),
        &fw_items,
    ));
    rows.extend(stage_rows(
        PemVpRoundStage::new(eps(1.5), 8, 2, vec![0, 2, 3]).expect("vp round"),
        &pem_items,
    ));
    rows.extend(stage_rows(
        PemOracleRoundStage::new(eps(1.5), 8, 2, vec![0, 2, 3]).expect("oracle round"),
        &pem_items,
    ));
    rows.extend([
        frame(
            "Hello",
            Frame::Hello {
                version: PROTOCOL_VERSION,
            },
        ),
        frame(
            "Job over a range",
            Frame::Job {
                stage_seed: 0x0123_4567_89ab_cdef,
                contract: 4,
                kind: "fw/pts".into(),
                payload: vec![1, 2, 3],
                shards: ShardAssignment::Range { first: 2, end: 9 },
            },
        ),
        frame(
            "Job over a stride, empty kind and payload",
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
        ),
        frame(
            "Chunk",
            Frame::Chunk {
                first_abs: 65_536,
                items: vec![0xaa, 0xbb],
            },
        ),
        frame(
            "Chunk of three pairs",
            Frame::Chunk {
                first_abs: PAIR_CHUNK_FIRST_ABS,
                items: {
                    let mut items = Vec::new();
                    pairs().put(&mut items);
                    items
                },
            },
        ),
        frame("Flush", Frame::Flush),
        frame(
            "Partial",
            Frame::Partial {
                state: vec![0xab; 5],
            },
        ),
        frame(
            "Err",
            Frame::Err {
                message: "bad".into(),
            },
        ),
        frame("Shutdown", Frame::Shutdown),
    ]);
    rows
}
