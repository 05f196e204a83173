//! Streaming [`ReportSource`] backends: files on disk and synthetic
//! generators, so paper-scale (5–9M user) runs never materialize the whole
//! user population in memory.
//!
//! * [`NdjsonPairSource`] — newline-delimited JSON, one
//!   `{"label": c, "item": i}` object per line (field order free,
//!   whitespace tolerated). Malformed lines fail with the 1-based line
//!   number.
//! * [`CsvPairSource`] — the CLI's `label,item` CSV, with an optional
//!   header.
//! * [`SyntheticPairSource`] — a seeded generator producing Zipf-per-class
//!   pairs on the fly (the stream-ingestion benchmark's 5M-user workload
//!   costs no input memory at all).
//!
//! Both file sources scan lines in place in an 8 KiB `BufReader`'s buffer:
//! memory is that buffer plus one carry line (a line cut by a refill is
//! copied there), with no allocation per line. The buffer is read 64 bytes
//! at a time: SWAR over eight `u64` words marks each block's newlines and
//! non-digit bytes as two bitmaps, and the scanner walks the newline bits.
//! A CSV line that is exactly `digits,digits` with 1–9 digits a field (too
//! few to overflow a `u32`) is decoded from those bitmaps and word
//! arithmetic. Every other line — header, blanks and whitespace, CRLF,
//! signs, 10+ digit fields, extra fields, invalid UTF-8, a line cut by a
//! refill, and every NDJSON line — goes through the format's one `&str`
//! parser, so errors and the grammar are the same whichever way a line is
//! read. One UTF-8 byte-order mark at the start of the file is skipped.

use std::io::BufRead;
use std::path::{Path, PathBuf};

use mcim_core::LabelItem;
use mcim_oracles::stream::ReportSource;
use mcim_oracles::{Error, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::distributions::Zipf;

/// Maps an I/O error to [`Error::Source`] naming the file.
fn io_err(path: &Path, e: std::io::Error) -> Error {
    Error::Source {
        message: format!("{}: {e}", path.display()),
    }
}

/// A position-aware parse failure: [`Error::Source`] naming file and line.
fn line_err(path: &Path, lineno: u64, what: &str) -> Error {
    Error::Source {
        message: format!("{} line {lineno}: {what}", path.display()),
    }
}

/// The shared line scanner behind both file-backed pair sources:
/// buffered reading, 1-based line counting, and I/O-error wrapping live
/// here exactly once; the formats differ only in their [`Grammar`].
///
/// Lines are split in place in the reader's buffer (`fill_buf` /
/// `consume`), so a line costs no allocation; only a line that straddles a
/// refill is copied, into the one reused `carry` buffer.
#[derive(Debug)]
struct PairFile {
    path: PathBuf,
    grammar: Grammar,
    reader: std::io::BufReader<std::fs::File>,
    /// The start of a line cut off by the end of the reader's buffer.
    carry: Vec<u8>,
    lineno: u64,
    yielded: u64,
}

impl PairFile {
    fn open(path: &Path, grammar: Grammar) -> Result<Self> {
        let file = std::fs::File::open(path).map_err(|e| io_err(path, e))?;
        Ok(PairFile {
            path: path.to_path_buf(),
            grammar,
            reader: std::io::BufReader::new(file),
            carry: Vec::new(),
            lineno: 0,
            yielded: 0,
        })
    }

    /// Pulls up to `max` pairs into `buf`.
    fn fill(&mut self, buf: &mut Vec<LabelItem>, max: usize) -> Result<usize> {
        let got = self.scan(max as u64, |pair| buf.push(pair))?;
        self.yielded += got;
        Ok(got as usize)
    }

    /// Un-consumes the `n` most recent pairs by reopening the file and
    /// re-scanning (and discarding) everything before the target position.
    /// Exactness depends on the file not changing between passes — the
    /// CLI's domain-inference pre-pass already assumes that.
    fn rewind(&mut self, n: u64) -> Result<bool> {
        let target = self.yielded.checked_sub(n).ok_or_else(|| Error::Source {
            message: format!(
                "{}: rewind({n}) exceeds the {} pairs already yielded",
                self.path.display(),
                self.yielded
            ),
        })?;
        *self = PairFile::open(&self.path, self.grammar)?;
        if self.scan(target, |_| {})? < target {
            return Err(Error::Source {
                message: format!("{}: file shrank during rewind", self.path.display()),
            });
        }
        self.yielded = target;
        Ok(true)
    }

    /// Hands the next pairs, up to `want`, to `sink` and returns how many
    /// it handed over; fewer than `want` only at the end of the file. A
    /// line that fails to parse is consumed before its error returns.
    fn scan(&mut self, want: u64, mut sink: impl FnMut(LabelItem)) -> Result<u64> {
        let PairFile {
            path,
            grammar,
            reader,
            carry,
            lineno,
            ..
        } = self;
        let grammar = *grammar;
        let mut got = 0u64;
        while got < want {
            let chunk = match reader.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_err(path, e)),
            };
            if chunk.is_empty() {
                // End of file: an unterminated last line is still a line.
                if carry.is_empty() {
                    break;
                }
                let parsed = grammar.parse_next(path, lineno, carry);
                carry.clear();
                if let Some(pair) = parsed? {
                    sink(pair);
                    got += 1;
                }
                continue;
            }
            // `used` is where the next line starts; `window` holds the
            // non-digit bits of the block before `base` and of the block
            // at `base`, so a short line across their edge is one mask.
            let (mut used, mut base, mut window) = (0, 0, 0u128);
            while got < want && base < chunk.len() {
                let (mut newlines, non_digits) = classify_block(chunk, base);
                window = window >> 64 | u128::from(non_digits) << 64;
                while newlines != 0 && got < want {
                    let end = base + newlines.trailing_zeros() as usize;
                    newlines &= newlines - 1;
                    let canonical = match (grammar, carry.is_empty()) {
                        (Grammar::Csv, true) => canonical_csv_pair(chunk, used, end, window, base),
                        _ => None,
                    };
                    let parsed = match canonical {
                        Some(pair) => {
                            *lineno += 1;
                            Ok(Some(pair))
                        }
                        None if carry.is_empty() => {
                            grammar.parse_next(path, lineno, &chunk[used..end])
                        }
                        None => {
                            carry.extend_from_slice(&chunk[used..end]);
                            let parsed = grammar.parse_next(path, lineno, carry);
                            carry.clear();
                            parsed
                        }
                    };
                    used = end + 1;
                    match parsed {
                        Ok(Some(pair)) => {
                            sink(pair);
                            got += 1;
                        }
                        Ok(None) => {}
                        Err(e) => {
                            reader.consume(used);
                            return Err(e);
                        }
                    }
                }
                base += 64;
            }
            if got < want {
                // No newline after `used`: the next refill ends this line.
                carry.extend_from_slice(&chunk[used..]);
                used = chunk.len();
            }
            reader.consume(used);
        }
        Ok(got)
    }
}

/// `(newlines, non_digits)`: bit `i` of each is set when byte `base + i`
/// of `buf` is `\n`, or is not an ASCII digit. Bytes past the end of
/// `buf` count as non-digits that are not newlines.
fn classify_block(buf: &[u8], base: usize) -> (u64, u64) {
    let mut padded = [0u8; 64];
    let block = match buf[base..].first_chunk::<64>() {
        Some(block) => block,
        None => {
            padded[..buf.len() - base].copy_from_slice(&buf[base..]);
            &padded
        }
    };
    let (mut newlines, mut digits) = (0, 0);
    for (i, bytes) in block.chunks_exact(8).enumerate() {
        let mut word = [0u8; 8];
        word.copy_from_slice(bytes);
        let word = u64::from_le_bytes(word);
        newlines |= byte_mask(eq_bytes(word, b'\n')) << (8 * i);
        digits |= byte_mask(digit_bytes(word)) << (8 * i);
    }
    (newlines, !digits)
}

const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
const HIGH: u64 = 0x8080_8080_8080_8080;

/// `byte` in every byte of a word.
const fn splat(byte: u8) -> u64 {
    0x0101_0101_0101_0101 * byte as u64
}

/// The high bit of each byte of `word` that equals `byte`; no other bits.
fn eq_bytes(word: u64, byte: u8) -> u64 {
    let x = word ^ splat(byte);
    !(((x & LOW7) + LOW7) | x | LOW7)
}

/// The high bit of each byte of `word` that is an ASCII digit; no other
/// bits. With the high bits cleared, the adds cannot carry between bytes.
fn digit_bytes(word: u64) -> u64 {
    let low = word & LOW7;
    let at_least_0 = low + splat(0x80 - b'0');
    let at_least_colon = low + splat(0x80 - b':');
    at_least_0 & !at_least_colon & !word & HIGH
}

/// The high bit of each byte of `word` gathered into bit `i` for byte `i`.
fn byte_mask(word: u64) -> u64 {
    ((word & HIGH) >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// The line grammar of a pair file.
#[derive(Debug, Clone, Copy)]
enum Grammar {
    Csv,
    Ndjson,
}

impl Grammar {
    /// Counts the next line and parses it, given without its `\n`,
    /// through the format's `&str` parser, the one grammar of each format.
    /// Line 1 starts the file: one UTF-8 byte-order mark there is skipped.
    fn parse_next(self, path: &Path, lineno: &mut u64, line: &[u8]) -> Result<Option<LabelItem>> {
        *lineno += 1;
        let line = match *lineno {
            1 => line.strip_prefix(b"\xEF\xBB\xBF").unwrap_or(line),
            _ => line,
        };
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let line = std::str::from_utf8(line).map_err(|_| Error::Source {
            message: format!("{}: stream did not contain valid UTF-8", path.display()),
        })?;
        match self {
            Grammar::Csv => parse_csv_line(path, *lineno, line),
            Grammar::Ndjson => parse_ndjson_line(path, *lineno, line),
        }
    }
}

/// `Some` iff the line `buf[start..end]` is exactly `digits,digits` with
/// 1–9 digits a field — lines [`parse_csv_line`] reads to the same pair,
/// and too short to overflow a `u32` — decoded without UTF-8 validation;
/// `None` sends the line to the full grammar. `end` lies in the block at
/// `base`, and `window` holds the non-digit bits of the 128 bytes from
/// `base - 64`.
fn canonical_csv_pair(
    buf: &[u8],
    start: usize,
    end: usize,
    window: u128,
    base: usize,
) -> Option<LabelItem> {
    let len = end - start;
    if !(3..=19).contains(&len) {
        return None;
    }
    // A line of at most 19 bytes ending in this block starts at most 19
    // bytes before it, inside the window.
    let non_digits = (window >> (start + 64 - base)) as u64 & ((1 << len) - 1);
    let comma = non_digits.trailing_zeros() as usize;
    let item_len = len.checked_sub(comma + 1)?;
    let one_comma = non_digits.is_power_of_two() && buf[start + comma] == b',';
    if !one_comma || !(1..=9).contains(&comma) || !(1..=9).contains(&item_len) {
        return None;
    }
    Some(LabelItem::new(
        decimal_u32(buf, start, comma),
        decimal_u32(buf, start + comma + 1, item_len),
    ))
}

/// The value of the `len` (1–9) ASCII digits at `buf[at..]`, read as
/// words; nine digits cannot overflow a `u32`.
fn decimal_u32(buf: &[u8], at: usize, len: usize) -> u32 {
    let (high, at, len) = match len {
        9 => (u32::from(buf[at] - b'0') * 100_000_000, at + 1, 8),
        _ => (0, at, len),
    };
    // Little-endian, the field's first digit is the low byte; shifting it
    // left drops the bytes after the field and leaves leading zeros. A
    // borrow from those bytes only runs upward, out of the word.
    let digits = word_at(buf, at).wrapping_sub(splat(b'0')) << (8 * (8 - len));
    // Pairs, then quads, of digits: the 8-digit SWAR parse.
    let pairs = digits.wrapping_mul(10).wrapping_add(digits >> 8);
    let value = ((pairs & 0x0000_00ff_0000_00ff).wrapping_mul(100 + (1_000_000 << 32))
        + ((pairs >> 16) & 0x0000_00ff_0000_00ff).wrapping_mul(1 + (10_000 << 32)))
        >> 32;
    high + value as u32
}

/// The 8 bytes of `buf` from `at`, zero-padded past its end, as a
/// little-endian word.
fn word_at(buf: &[u8], at: usize) -> u64 {
    let mut word = [0u8; 8];
    match buf[at..].first_chunk::<8>() {
        Some(bytes) => word = *bytes,
        None => word[..buf.len() - at].copy_from_slice(&buf[at..]),
    }
    u64::from_le_bytes(word)
}

/// Parses one `label,item` CSV line (line 1 may be a header).
fn parse_csv_line(path: &Path, lineno: u64, line: &str) -> Result<Option<LabelItem>> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(None);
    }
    if lineno == 1 && line.to_ascii_lowercase().starts_with("label") {
        return Ok(None); // header
    }
    let bad = |what: &str| line_err(path, lineno, what);
    let mut fields = line.split(',');
    let (a, b) = (fields.next(), fields.next());
    if fields.next().is_some() {
        return Err(bad("expected `label,item`"));
    }
    let parse = |s: Option<&str>, what: &str| -> Result<u32> {
        s.map(str::trim)
            .filter(|s| !s.is_empty())
            .ok_or_else(|| bad(&format!("missing {what}")))?
            .parse()
            .map_err(|_| bad(&format!("{what} is not a non-negative integer")))
    };
    Ok(Some(LabelItem::new(parse(a, "label")?, parse(b, "item")?)))
}

/// Parses one `{"label": c, "item": i}` NDJSON line (fields in any order).
fn parse_ndjson_line(path: &Path, lineno: u64, line: &str) -> Result<Option<LabelItem>> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(None);
    }
    let bad = |what: &str| line_err(path, lineno, what);
    let body = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| bad("expected a {\"label\": …, \"item\": …} object"))?;
    let (mut label, mut item) = (None::<u32>, None::<u32>);
    for field in body.split(',') {
        let (key, value) = field
            .split_once(':')
            .ok_or_else(|| bad("expected `\"key\": value` fields"))?;
        let key = key.trim().trim_matches('"');
        let value: u32 = value
            .trim()
            .parse()
            .map_err(|_| bad(&format!("field `{key}` is not a non-negative integer")))?;
        match key {
            "label" => label = Some(value),
            "item" => item = Some(value),
            other => return Err(bad(&format!("unknown field `{other}`"))),
        }
    }
    match (label, item) {
        (Some(label), Some(item)) => Ok(Some(LabelItem::new(label, item))),
        _ => Err(bad("object needs both `label` and `item`")),
    }
}

/// A `label,item` CSV file as a stream source. Lines are scanned in place
/// in a buffered reader; memory is the reader's buffer plus one carry
/// line. This is the **only** CSV pair grammar in the workspace — the
/// CLI reads every CSV input through this same source.
#[derive(Debug)]
pub struct CsvPairSource {
    file: PairFile,
}

impl CsvPairSource {
    /// Opens `path`. An optional `label,item` header is skipped on read.
    pub fn open(path: &Path) -> Result<Self> {
        Ok(CsvPairSource {
            file: PairFile::open(path, Grammar::Csv)?,
        })
    }
}

impl ReportSource for CsvPairSource {
    type Item = LabelItem;

    fn fill(&mut self, buf: &mut Vec<LabelItem>, max: usize) -> Result<usize> {
        self.file.fill(buf, max)
    }

    fn rewind(&mut self, n: u64) -> Result<bool> {
        self.file.rewind(n)
    }
}

/// A newline-delimited JSON file of `{"label": c, "item": i}` objects as a
/// stream source. The parser is deliberately minimal (two integer fields,
/// any order); anything else fails with the offending line number.
#[derive(Debug)]
pub struct NdjsonPairSource {
    file: PairFile,
}

impl NdjsonPairSource {
    /// Opens `path`.
    pub fn open(path: &Path) -> Result<Self> {
        Ok(NdjsonPairSource {
            file: PairFile::open(path, Grammar::Ndjson)?,
        })
    }
}

impl ReportSource for NdjsonPairSource {
    type Item = LabelItem;

    fn fill(&mut self, buf: &mut Vec<LabelItem>, max: usize) -> Result<usize> {
        self.file.fill(buf, max)
    }

    fn rewind(&mut self, n: u64) -> Result<bool> {
        self.file.rewind(n)
    }
}

/// Configuration for [`SyntheticPairSource`].
#[derive(Debug, Clone, Copy)]
pub struct SyntheticSourceConfig {
    /// Class-domain size.
    pub classes: u32,
    /// Item-domain size.
    pub items: u32,
    /// Total users the source will yield.
    pub users: u64,
    /// Zipf exponent of the per-class item ranking (SYN3 uses 1.5).
    pub zipf_s: f64,
    /// Generator seed.
    pub seed: u64,
}

/// A seeded on-the-fly generator of label-item pairs: labels rotate
/// round-robin, items follow a per-class Zipf ranking (class `c`'s rank-`r`
/// item is `(c·37 + r) mod d`, mirroring the SYN3 construction). Knows its
/// length, so it also feeds round-splitting consumers.
#[derive(Debug, Clone)]
pub struct SyntheticPairSource {
    config: SyntheticSourceConfig,
    zipf: Zipf,
    rng: StdRng,
    emitted: u64,
}

impl SyntheticPairSource {
    /// Creates the generator.
    pub fn new(config: SyntheticSourceConfig) -> Self {
        SyntheticPairSource {
            config,
            zipf: Zipf::new(config.zipf_s, config.items),
            // mcim-lint: allow(rng-discipline, generator stream seeded from the source's explicit config seed; not a privatization stage)
            rng: StdRng::seed_from_u64(config.seed),
            emitted: 0,
        }
    }

    /// Draws the next pair — the single place the generator's RNG stream
    /// advances, so replaying from the seed reproduces it exactly.
    fn next_pair(&mut self) -> LabelItem {
        let label = self.rng.random_range(0..self.config.classes);
        let rank = self.zipf.sample(&mut self.rng);
        let item = (label.wrapping_mul(37).wrapping_add(rank)) % self.config.items;
        self.emitted += 1;
        LabelItem::new(label, item)
    }
}

impl ReportSource for SyntheticPairSource {
    type Item = LabelItem;

    fn fill(&mut self, buf: &mut Vec<LabelItem>, max: usize) -> Result<usize> {
        let take = (self.config.users - self.emitted).min(max as u64) as usize;
        for _ in 0..take {
            let pair = self.next_pair();
            buf.push(pair);
        }
        Ok(take)
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.config.users - self.emitted)
    }

    fn rewind(&mut self, n: u64) -> Result<bool> {
        let target = self.emitted.checked_sub(n).ok_or_else(|| Error::Source {
            message: format!(
                "rewind({n}) exceeds the {} pairs already generated",
                self.emitted
            ),
        })?;
        // The RNG stream has no random access; replay it from the seed up
        // to the target position (cheap and exact — `next_pair` is the
        // only consumer of the stream).
        // mcim-lint: allow(rng-discipline, replaying the generator stream from its explicit config seed; not a privatization stage)
        self.rng = StdRng::seed_from_u64(self.config.seed);
        self.emitted = 0;
        for _ in 0..target {
            let _ = self.next_pair();
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    use rand::rngs::StdRng;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mcim-dataset-sources");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn drain<S: ReportSource<Item = LabelItem>>(mut s: S) -> Result<Vec<LabelItem>> {
        let mut out = Vec::new();
        while s.fill(&mut out, 3)? > 0 {}
        Ok(out)
    }

    #[test]
    fn ndjson_round_trip() {
        let path = tmp("ok.ndjson");
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "{{\"label\": 0, \"item\": 5}}").unwrap();
        writeln!(f).unwrap(); // blank lines are skipped
        writeln!(f, "  {{ \"item\": 2 , \"label\" : 3 }}  ").unwrap();
        drop(f);
        let pairs = drain(NdjsonPairSource::open(&path).unwrap()).unwrap();
        assert_eq!(pairs, vec![LabelItem::new(0, 5), LabelItem::new(3, 2)]);
    }

    #[test]
    fn ndjson_malformed_line_names_position() {
        let path = tmp("bad.ndjson");
        std::fs::write(
            &path,
            "{\"label\": 0, \"item\": 1}\n{\"label\": 0, \"item\": -3}\n",
        )
        .unwrap();
        let err = drain(NdjsonPairSource::open(&path).unwrap()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "error should name the line: {msg}");

        std::fs::write(&path, "label,item\n").unwrap();
        assert!(drain(NdjsonPairSource::open(&path).unwrap()).is_err());
        std::fs::write(&path, "{\"label\": 0}\n").unwrap();
        assert!(drain(NdjsonPairSource::open(&path).unwrap()).is_err());
        std::fs::write(&path, "{\"label\": 0, \"item\": 1, \"x\": 2}\n").unwrap();
        assert!(drain(NdjsonPairSource::open(&path).unwrap()).is_err());
        assert!(NdjsonPairSource::open(&tmp("missing.ndjson")).is_err());
    }

    #[test]
    fn csv_round_trip_with_header() {
        let path = tmp("ok.csv");
        std::fs::write(&path, "label,item\n1,2\n0, 7\n").unwrap();
        let pairs = drain(CsvPairSource::open(&path).unwrap()).unwrap();
        assert_eq!(pairs, vec![LabelItem::new(1, 2), LabelItem::new(0, 7)]);
    }

    #[test]
    fn csv_malformed_line_names_position() {
        let path = tmp("bad.csv");
        std::fs::write(&path, "0,1\n1,2,3\n").unwrap();
        let err = drain(CsvPairSource::open(&path).unwrap()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn synthetic_source_is_seed_deterministic_and_sized() {
        let config = SyntheticSourceConfig {
            classes: 4,
            items: 64,
            users: 1000,
            zipf_s: 1.5,
            seed: 9,
        };
        let a = drain(SyntheticPairSource::new(config)).unwrap();
        let b = drain(SyntheticPairSource::new(config)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 1000);
        let source = SyntheticPairSource::new(config);
        assert_eq!(source.size_hint(), Some(1000));
        for p in &a {
            assert!(p.label < 4 && p.item < 64);
        }
        // The Zipf head must dominate: rank-0 items are the per-class modes.
        let head = a.iter().filter(|p| p.item == (p.label * 37) % 64).count();
        assert!(head > a.len() / 4, "zipf head too light: {head}");
    }

    /// Shared shape of every rewind test: consume a prefix, rewind part of
    /// it, and require the replayed stream to match the first pass exactly.
    fn assert_rewind_replays<S: ReportSource<Item = LabelItem>>(mut source: S, total: usize) {
        let mut first = Vec::new();
        let consumed = total * 2 / 3;
        while first.len() < consumed {
            let want = consumed - first.len();
            let got = source.fill(&mut first, want).unwrap();
            assert!(got > 0, "source ended early");
        }
        let back = (consumed / 2) as u64;
        assert!(source.rewind(back).unwrap(), "source must support rewind");
        let mut replay = Vec::new();
        while source.fill(&mut replay, 7).unwrap() > 0 {}
        assert_eq!(replay.len(), total - consumed + back as usize);
        assert_eq!(
            replay[..back as usize],
            first[consumed - back as usize..],
            "replayed items must be byte-identical"
        );
        assert!(source.rewind(u64::MAX).is_err(), "over-rewind must error");
    }

    #[test]
    fn synthetic_rewind_replays_identically() {
        let config = SyntheticSourceConfig {
            classes: 4,
            items: 64,
            users: 900,
            zipf_s: 1.5,
            seed: 9,
        };
        assert_rewind_replays(SyntheticPairSource::new(config), 900);
    }

    #[test]
    fn csv_rewind_replays_identically() {
        let path = tmp("rewind.csv");
        let mut body = String::from("label,item\n");
        for i in 0..120u32 {
            body.push_str(&format!("{},{}\n\n", i % 5, i % 11)); // blanks interleaved
        }
        std::fs::write(&path, body).unwrap();
        assert_rewind_replays(CsvPairSource::open(&path).unwrap(), 120);
    }

    /// The reader `PairFile` replaced — `BufRead::lines()` and the `&str`
    /// parsers: the pairs before the first error, and that error's text.
    fn reference_read(path: &Path, grammar: Grammar) -> (Vec<LabelItem>, Option<String>) {
        let file = std::fs::File::open(path).unwrap();
        let mut pairs = Vec::new();
        for (lineno, line) in (1u64..).zip(std::io::BufReader::new(file).lines()) {
            let parsed = line
                .map_err(|e| io_err(path, e))
                .and_then(|line| match grammar {
                    Grammar::Csv => parse_csv_line(path, lineno, &line),
                    Grammar::Ndjson => parse_ndjson_line(path, lineno, &line),
                });
            match parsed {
                Ok(Some(pair)) => pairs.push(pair),
                Ok(None) => {}
                Err(e) => return (pairs, Some(e.to_string())),
            }
        }
        (pairs, None)
    }

    /// Drains a source `max` pairs at a time, stopping at the first error.
    fn drain_at<S: ReportSource<Item = LabelItem>>(
        mut source: S,
        max: usize,
    ) -> (Vec<LabelItem>, Option<String>) {
        let mut pairs = Vec::new();
        loop {
            let before = pairs.len();
            match source.fill(&mut pairs, max) {
                Ok(0) => return (pairs, None),
                Ok(got) => assert!(got <= max && pairs.len() == before + got),
                Err(e) => return (pairs, Some(e.to_string())),
            }
        }
    }

    /// One line of a seeded test file: mostly canonical, with every other
    /// kind the grammar accepts mixed in — or, with `fault`, a line of a
    /// kind the grammar rejects. CRLF endings are mixed into either. The
    /// CSV rows cover the word decode's edges: 1–9 digit fields, 10-digit
    /// fields around `u32::MAX`, and lines of 7–9 and 63–65 bytes that end
    /// on and across word and block edges.
    fn random_line(rng: &mut StdRng, grammar: Grammar, fault: bool) -> Vec<u8> {
        let (a, b) = (
            rng.random_range(0..5000u32),
            rng.random_range(0..100_000u32),
        );
        let (max, over) = (u32::MAX, u64::from(u32::MAX) + 1);
        // A field of exactly 1–9 digits, leading zeros included.
        let mut field = || {
            let width = rng.random_range(1..=9usize);
            let value = rng.random_range(0..10u32.pow(width as u32));
            format!("{value:0width$}")
        };
        let (c, d) = (field(), field());
        let long = rng.random_range(63..=65usize) - 6;
        let kinds: Vec<Vec<u8>> = match (grammar, fault) {
            (Grammar::Csv, false) => vec![
                format!("{a},{b}").into(),
                format!("{},{}", a % 10, b % 10).into(),
                format!("{},{}", a % 100, b % 100).into(),
                format!("{c},{d}").into(),
                format!("999999999,{}", 100_000_000 + b).into(),
                format!("{max},{b}").into(),
                format!("{a},{max}").into(),
                format!("{a},0000000007").into(),
                format!("{:03},{:03}", a % 1000, b % 1000).into(),
                format!("{:04},{:03}", a % 1000, b % 1000).into(),
                format!("{:04},{:04}", a % 1000, b % 1000).into(),
                format!("{a:0long$},{:05}", b % 1000).into(),
                format!("+{a},00{b}").into(),
                format!(" {a} , {b}\t").into(),
                b"".into(),
                b" \t ".into(),
            ],
            (Grammar::Ndjson, false) => vec![
                format!("{{\"label\": {a}, \"item\": {b}}}").into(),
                format!("{{\"label\": {a}, \"item\": {b}}}").into(),
                format!("{{\"item\": {b}, \"label\": {max}}}").into(),
                format!(" {{ \"item\":0{b} ,\"label\" : +{a} }} ").into(),
                b"".into(),
                b" \t ".into(),
            ],
            (Grammar::Csv, true) => vec![
                format!("{a},{over}").into(),
                format!("{over},{b}").into(),
                format!("{a},{b},7").into(),
                format!(",{b}").into(),
                format!("{a},").into(),
                format!("{a},,{b}").into(),
                format!("{a};{b}").into(),
                b"label,item".into(),
                [format!("{a},").as_bytes(), &[0xff, 0xfe]].concat(),
            ],
            (Grammar::Ndjson, true) => vec![
                format!("{{\"label\": {over}, \"item\": {b}}}").into(),
                format!("{{\"label\": {a}}}").into(),
                b"label,item".into(),
                [format!("{{\"label\": {a}, ").as_bytes(), &[0xff, 0xfe]].concat(),
            ],
        };
        let mut line = kinds[rng.random_range(0..kinds.len())].clone();
        if rng.random_bool(0.2) {
            line.push(b'\r');
        }
        line
    }

    /// A seeded file of 2–5k lines, well over the 8 KiB reader buffer so
    /// lines straddle refills at every offset, sometimes without a final
    /// newline. Half the CSV files start with a header; with `fault`, one
    /// line is rejected — a CSV header on line 2 counts.
    fn random_file(seed: u64, grammar: Grammar, fault: bool) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let lines = rng.random_range(2000..5000usize);
        let header_at = match (grammar, rng.random_range(0..4)) {
            (Grammar::Ndjson, _) => None,
            (_, 0 | 1) => Some(0),
            (_, 2) if fault => Some(1),
            _ => None,
        };
        let fault_at = (fault && header_at != Some(1)).then(|| rng.random_range(0..lines));
        let mut body = Vec::new();
        for i in 0..lines {
            let line = if header_at == Some(i) {
                b"Label,Item".to_vec()
            } else {
                random_line(&mut rng, grammar, fault_at == Some(i))
            };
            body.extend_from_slice(&line);
            if i + 1 < lines || rng.random_bool(0.5) {
                body.push(b'\n');
            }
        }
        body
    }

    fn open_as(path: &Path, grammar: Grammar) -> PairFile {
        PairFile::open(path, grammar).unwrap()
    }

    impl ReportSource for PairFile {
        type Item = LabelItem;

        fn fill(&mut self, buf: &mut Vec<LabelItem>, max: usize) -> Result<usize> {
            PairFile::fill(self, buf, max)
        }

        fn rewind(&mut self, n: u64) -> Result<bool> {
            PairFile::rewind(self, n)
        }
    }

    #[test]
    fn scanner_matches_the_line_reader() {
        let mut errors = 0;
        for grammar in [Grammar::Csv, Grammar::Ndjson] {
            for seed in 0..40u64 {
                let path = tmp(&format!("scan-{grammar:?}-{seed}.txt"));
                std::fs::write(&path, random_file(seed, grammar, seed % 2 == 1)).unwrap();
                let expected = reference_read(&path, grammar);
                errors += usize::from(expected.1.is_some());
                for max in [1, 2, 7, 100, 4096, usize::MAX] {
                    let got = drain_at(open_as(&path, grammar), max);
                    assert_eq!(got, expected, "{grammar:?} seed {seed} max {max}");
                }
            }
        }
        assert_eq!(errors, 40, "every file with a fault must fail");
    }

    #[test]
    fn a_byte_order_mark_at_the_file_start_is_skipped() {
        let ndjson = "{\"label\": 0, \"item\": 1}\n{\"label\": 1, \"item\": 2}\n";
        let cases = [
            (Grammar::Csv, "label,item\n0,1\n1,2\n"),
            (Grammar::Csv, "0,1\n1,2\n"),
            (Grammar::Ndjson, ndjson),
        ];
        let pairs = vec![LabelItem::new(0, 1), LabelItem::new(1, 2)];
        for (i, (grammar, body)) in cases.into_iter().enumerate() {
            let (plain, marked) = (
                tmp(&format!("bom-{i}.txt")),
                tmp(&format!("bom-{i}-marked.txt")),
            );
            std::fs::write(&plain, body).unwrap();
            std::fs::write(&marked, format!("\u{feff}{body}")).unwrap();
            assert_eq!(drain_at(open_as(&plain, grammar), 7), (pairs.clone(), None));
            assert_eq!(
                drain_at(open_as(&marked, grammar), 7),
                (pairs.clone(), None)
            );
            // A rewind re-reads the file from its first byte.
            let mut source = open_as(&marked, grammar);
            let mut seen = Vec::new();
            while source.fill(&mut seen, 1).unwrap() > 0 {}
            assert!(source.rewind(2).unwrap());
            assert_eq!(
                drain_at(source, 1),
                (pairs.clone(), None),
                "{grammar:?} {i}"
            );
        }
        // Only one mark, and only at the start of the file.
        for (i, body) in ["\u{feff}\u{feff}0,1\n", "0,1\n\u{feff}1,2\n"]
            .into_iter()
            .enumerate()
        {
            let path = tmp(&format!("bom-misplaced-{i}.csv"));
            std::fs::write(&path, body).unwrap();
            let (_, err) = drain_at(open_as(&path, Grammar::Csv), 7);
            let err = err.expect("a misplaced mark is not a number");
            assert!(err.contains(&format!("line {}: label", i + 1)), "{err}");
        }
    }

    #[test]
    fn scanner_rewinds_replay_the_first_pass() {
        for grammar in [Grammar::Csv, Grammar::Ndjson] {
            for seed in 100..110u64 {
                let path = tmp(&format!("rewind-{grammar:?}-{seed}.txt"));
                std::fs::write(&path, random_file(seed, grammar, false)).unwrap();
                let (all, err) = reference_read(&path, grammar);
                assert!(err.is_none() && all.len() > 1000);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut source = open_as(&path, grammar);
                let mut pos = 0usize;
                let mut seen = Vec::new();
                for _ in 0..8 {
                    let advance = rng.random_range(0..all.len() - pos);
                    while seen.len() < pos + advance {
                        let max = rng
                            .random_range(1..600usize)
                            .min(pos + advance - seen.len());
                        assert!(source.fill(&mut seen, max).unwrap() > 0);
                    }
                    pos += advance;
                    assert_eq!(seen[..], all[..pos], "{grammar:?} seed {seed}");
                    let back = rng.random_range(0..=pos);
                    assert!(source.rewind(back as u64).unwrap());
                    pos -= back;
                    seen.truncate(pos);
                }
                let (rest, err) = drain_at(source, 333);
                assert!(err.is_none());
                assert_eq!(rest[..], all[pos..], "{grammar:?} seed {seed}");
            }
        }
    }

    #[test]
    fn ndjson_rewind_replays_identically() {
        let path = tmp("rewind.ndjson");
        let mut body = String::new();
        for i in 0..90u32 {
            body.push_str(&format!("{{\"label\": {}, \"item\": {}}}\n", i % 3, i % 13));
        }
        std::fs::write(&path, body).unwrap();
        assert_rewind_replays(NdjsonPairSource::open(&path).unwrap(), 90);
    }
}
