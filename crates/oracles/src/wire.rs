//! Byte-level codecs for the distributed reducer.
//!
//! A distributed [`Executor`](crate::exec::Executor) backend has to move
//! three kinds of data between coordinator and worker processes:
//!
//! * **stage descriptors** — enough configuration to reconstruct a fold
//!   stage (mechanism parameters, candidate sets) in another process,
//! * **stream items** — the raw per-user inputs a fold consumes
//!   (label-item pairs, candidate indices), and
//! * **accumulator partials** — the mergeable state a worker ships back
//!   (counter vectors, report tallies).
//!
//! This module defines the traits for all three, deliberately hand-rolled
//! (no serde — the build environment vendors its dependencies) and
//! deliberately boring: little-endian fixed-width integers, `u32` length
//! prefixes, no varints, no framing. Framing (length-prefixed messages over
//! a socket) lives in the `mcim-dist` crate; these codecs only define the
//! *payload* bytes, so they can be unit-tested without any I/O.
//!
//! Decoding is fail-fast: every read is bounds-checked against the buffer
//! and a truncated or over-long payload surfaces as
//! [`Error::Transport`] — a malformed frame must never panic or silently
//! mis-aggregate.
//!
//! Two traits split the two decode shapes:
//!
//! * [`Wire`] — self-contained values (items, stage parameters): decode
//!   constructs the value from bytes alone.
//! * [`WireState`] — accumulator partials: decode loads state **into a
//!   clone of the stage's template**, so mechanism configuration (domain
//!   sizes, probabilities) never travels with every partial and shape
//!   mismatches are detected against the template.

use crate::{Error, Result};

/// A bounds-checked cursor over a received payload.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps a payload buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes `n` raw bytes.
    #[inline]
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(truncated());
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Takes a byte payload in the `Vec<u8>` encoding (a `u32` length,
    /// then that many bytes) as one borrowed slice. The declared length is
    /// checked against the remaining bytes before anything is allocated,
    /// so the caller copies the payload once, as one checked slice, rather
    /// than through `Vec::<u8>::take`'s per-byte decode.
    pub fn take_prefixed_bytes(&mut self) -> Result<&'a [u8]> {
        let len = u32::take(self)? as usize;
        self.take_bytes(len)
    }

    /// Errors unless the payload was consumed exactly — trailing garbage in
    /// a frame means the two sides disagree about the codec.
    pub fn finish(&self) -> Result<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(Error::protocol(format!(
                "decoding a payload ({} trailing bytes)",
                self.remaining()
            )))
        }
    }
}

fn truncated() -> Error {
    Error::transport(
        "decoding a payload",
        std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "payload truncated"),
    )
}

/// A self-contained value with a stable byte encoding: stream items and
/// stage parameters.
///
/// `put` followed by `take` must round-trip exactly; `take` must reject
/// (never panic on) truncated or malformed bytes.
pub trait Wire: Sized {
    /// Appends this value's encoding to `buf`.
    fn put(&self, buf: &mut Vec<u8>);

    /// Decodes one value from the reader.
    fn take(r: &mut WireReader<'_>) -> Result<Self>;
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn take(r: &mut WireReader<'_>) -> Result<Self> {
                let bytes = r.take_bytes(std::mem::size_of::<$t>())?;
                // take_bytes returned exactly size_of bytes, so the
                // conversion cannot fail; map it anyway — decode paths
                // must be statically panic-free.
                let sized = bytes.try_into().map_err(|_| truncated())?;
                Ok(<$t>::from_le_bytes(sized))
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64);

impl Wire for f64 {
    fn put(&self, buf: &mut Vec<u8>) {
        self.to_bits().put(buf);
    }
    fn take(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(f64::from_bits(u64::take(r)?))
    }
}

impl Wire for bool {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn take(r: &mut WireReader<'_>) -> Result<Self> {
        match u8::take(r)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Error::protocol(format!(
                "decoding a bool (byte {other} is neither 0 nor 1)"
            ))),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.put(buf);
            }
        }
    }
    fn take(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(match bool::take(r)? {
            false => None,
            true => Some(T::take(r)?),
        })
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        for v in self {
            v.put(buf);
        }
    }
    fn take(r: &mut WireReader<'_>) -> Result<Self> {
        let len = u32::take(r)? as usize;
        // Every element costs at least one byte, so a length beyond the
        // remaining payload is malformed — reject before allocating.
        if len > r.remaining() {
            return Err(Error::protocol(format!(
                "decoding a sequence (declares {len} elements, {} bytes remain)",
                r.remaining()
            )));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::take(r)?);
        }
        Ok(out)
    }
}

impl Wire for String {
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn take(r: &mut WireReader<'_>) -> Result<Self> {
        let len = u32::take(r)? as usize;
        let bytes = r.take_bytes(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::protocol("decoding a string (invalid UTF-8)"))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
    }
    fn take(r: &mut WireReader<'_>) -> Result<Self> {
        Ok((A::take(r)?, B::take(r)?))
    }
}

/// Mergeable accumulator state that can cross a process boundary.
///
/// `save` writes only the *mutable* state (counters, tallies); `load`
/// overwrites the state of `self` — a clone of the stage's template — with
/// the decoded bytes, erroring on any shape mismatch. Mechanism
/// configuration is reconstructed from the stage descriptor on the far
/// side, never re-shipped with every partial.
pub trait WireState {
    /// Appends this accumulator's mergeable state to `buf`.
    fn save(&self, buf: &mut Vec<u8>);

    /// Overwrites `self`'s state with the decoded bytes.
    fn load(&mut self, r: &mut WireReader<'_>) -> Result<()>;
}

impl WireState for u64 {
    fn save(&self, buf: &mut Vec<u8>) {
        self.put(buf);
    }
    fn load(&mut self, r: &mut WireReader<'_>) -> Result<()> {
        *self = u64::take(r)?;
        Ok(())
    }
}

impl WireState for f64 {
    fn save(&self, buf: &mut Vec<u8>) {
        self.put(buf);
    }
    fn load(&mut self, r: &mut WireReader<'_>) -> Result<()> {
        *self = f64::take(r)?;
        Ok(())
    }
}

/// Fixed-shape counter blocks: the element count is part of the template's
/// shape, so a partial with a different length is rejected.
impl WireState for Vec<u64> {
    fn save(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        for v in self {
            v.put(buf);
        }
    }
    fn load(&mut self, r: &mut WireReader<'_>) -> Result<()> {
        let len = u32::take(r)? as usize;
        if len != self.len() {
            return Err(Error::ReportMismatch {
                expected: "partial counter block of the template's length",
            });
        }
        for v in self.iter_mut() {
            *v = u64::take(r)?;
        }
        Ok(())
    }
}

impl<A: WireState, B: WireState> WireState for (A, B) {
    fn save(&self, buf: &mut Vec<u8>) {
        self.0.save(buf);
        self.1.save(buf);
    }
    fn load(&mut self, r: &mut WireReader<'_>) -> Result<()> {
        self.0.load(r)?;
        self.1.load(r)
    }
}

/// A serialized stage descriptor: the registry key plus the parameter
/// payload a worker needs to reconstruct the fold stage.
///
/// Returned by [`Stage::spec`](crate::exec::Stage::spec); decoded by the
/// matching [`StageDecode`](crate::exec::StageDecode) implementation on
/// the worker side.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpec {
    /// Registry key naming the stage implementation (e.g.
    /// `"fw/pts-cp"`). Must be unique across the workspace.
    pub kind: &'static str,
    /// Encoded stage parameters ([`Wire`] values).
    pub payload: Vec<u8>,
    /// The [`RNG_CONTRACT`](crate::exec::RNG_CONTRACT) the emitting build
    /// folds under. Travels in the dist Job frame so a worker on a
    /// different contract refuses the job instead of silently folding a
    /// different stream.
    pub contract: u32,
}

impl StageSpec {
    /// Builds a spec from a kind and an encoding closure, stamped with the
    /// current build's RNG contract.
    pub fn new(kind: &'static str, encode: impl FnOnce(&mut Vec<u8>)) -> Self {
        let mut payload = Vec::new();
        encode(&mut payload);
        StageSpec {
            kind,
            payload,
            contract: crate::exec::RNG_CONTRACT,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.put(&mut buf);
        let mut r = WireReader::new(&buf);
        assert_eq!(T::take(&mut r).unwrap(), v);
        r.finish().unwrap();
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(0xA5u8);
        round_trip(54321u16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(-1.25f64);
        round_trip(f64::NAN.to_bits()); // NaN bits survive as u64
        round_trip(true);
        round_trip(false);
        round_trip(Some(7u32));
        round_trip(None::<u32>);
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip("héllo".to_string());
        round_trip((3u32, Some(9u64)));
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut buf = Vec::new();
        0xAABBCCDDu32.put(&mut buf);
        for cut in 0..4 {
            let mut r = WireReader::new(&buf[..cut]);
            let err = u32::take(&mut r).unwrap_err();
            assert!(matches!(err, Error::Transport { .. }), "cut={cut}: {err}");
        }
    }

    #[test]
    fn oversized_sequence_length_is_rejected_before_allocating() {
        let mut buf = Vec::new();
        u32::MAX.put(&mut buf); // claims 4 billion elements, provides zero
        let mut r = WireReader::new(&buf);
        let err = Vec::<u64>::take(&mut r).unwrap_err();
        assert!(matches!(err, Error::Transport { .. }), "{err}");
    }

    #[test]
    fn bool_and_string_reject_malformed_bytes() {
        let mut r = WireReader::new(&[2u8]);
        assert!(bool::take(&mut r).is_err());
        let mut buf = Vec::new();
        2u32.put(&mut buf);
        buf.extend_from_slice(&[0xFF, 0xFE]); // invalid UTF-8
        assert!(String::take(&mut WireReader::new(&buf)).is_err());
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut buf = Vec::new();
        1u8.put(&mut buf);
        2u8.put(&mut buf);
        let mut r = WireReader::new(&buf);
        u8::take(&mut r).unwrap();
        assert!(r.finish().is_err());
        u8::take(&mut r).unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn counter_state_loads_into_matching_shape_only() {
        let state = vec![5u64, 6, 7];
        let mut buf = Vec::new();
        state.save(&mut buf);
        let mut same = vec![0u64; 3];
        same.load(&mut WireReader::new(&buf)).unwrap();
        assert_eq!(same, state);
        let mut wrong = vec![0u64; 4];
        let err = wrong.load(&mut WireReader::new(&buf)).unwrap_err();
        assert!(matches!(err, Error::ReportMismatch { .. }), "{err}");
    }

    #[test]
    fn tuple_state_round_trips() {
        let partial = (vec![1u64, 2], 9u64);
        let mut buf = Vec::new();
        partial.save(&mut buf);
        let mut out = (vec![0u64, 0], 0u64);
        out.load(&mut WireReader::new(&buf)).unwrap();
        assert_eq!(out, partial);
    }

    #[test]
    fn stage_spec_builder() {
        let spec = StageSpec::new("test/x", |buf| {
            7u32.put(buf);
        });
        assert_eq!(spec.kind, "test/x");
        assert_eq!(u32::take(&mut WireReader::new(&spec.payload)).unwrap(), 7);
        assert_eq!(
            spec.contract,
            crate::exec::RNG_CONTRACT,
            "specs are stamped with the build's contract"
        );
    }
}
