//! Word-parallel vertical popcount column sums.
//!
//! Every unary-encoding aggregator in the workspace reduces a stream of
//! packed bit-vector reports to one counter per domain value. The obvious
//! loop — scan each report's set bits and increment `counts[i]` — touches
//! `O(len·q)` scattered counters per report. [`ColumnCounter`] instead
//! treats a block of reports as a bit matrix and adds whole 64-bit words at
//! a time, 64 independent per-column counters per word:
//!
//! 1. **Stage.** Rows are copied into a stage of `STAGE` = 16 rows.
//! 2. **Carry-save tree.** A full stage is reduced column word by column
//!    word with a Harley–Seal tree of 15 full adders (carry-save adders:
//!    three input words of one weight become a sum word of that weight and
//!    a carry word of the next). Its output is the stage's 5-bit
//!    per-column count, bit-sliced: word `k` holds bit `k` of 64 counts.
//! 3. **Planes.** One ripple adds that 5-bit count into the 8 bit-sliced
//!    planes, where plane `p` holds bit `p` of the 64 in-flight counters.
//! 4. **Transpose.** Before another stage could carry a counter past
//!    [`ColumnCounter::MAX_BLOCK`], the planes are transposed ("flushed")
//!    into the wide `u64` totals.
//!
//! Per 16 rows and column word that is ~75 bitwise ops for the tree and
//! ~40 for the ripple, ~7 ops per word-row, with no data-dependent
//! branch; the transpose adds ~2 ops per word-row. For OUE at `d = 1024`,
//! ε = 1 this replaces ~276 scattered increments per report with ~16
//! column words of straight-line adds. A partial stage (at a drain, or
//! when [`ColumnCounter::totals`] is read) is zero-padded and goes through
//! the same tree, so there is one adder path.
//!
//! The counter is purely data-parallel state: shard a report stream across
//! threads, give each shard its own `ColumnCounter`, and add the per-shard
//! totals — `u64` sums are associative, so the result is bit-identical to
//! sequential aggregation in any merge order.

use crate::BitVec;

/// Bit width of the in-flight per-column counters (one plane per bit).
const PLANES: usize = 8;

/// Rows per stage: one carry-save tree reduces this many rows at once.
const STAGE: usize = 16;

/// Accumulates per-column (per-bit-position) counts over a stream of
/// equal-length packed bit rows.
#[derive(Debug, Clone)]
pub struct ColumnCounter {
    /// Bits per row.
    len: usize,
    /// Words per row.
    cols: usize,
    /// Staged rows, one array per column word; rows at and past `staged`
    /// are stale until the stage is reduced.
    stage: Vec<[u64; STAGE]>,
    /// Rows in the stage.
    staged: usize,
    /// Bit-sliced pending counters, one array of planes per column word.
    planes: Vec<[u64; PLANES]>,
    /// Rows reduced into the planes since the last transpose.
    pending: u32,
    /// Flushed wide totals, one per column.
    totals: Vec<u64>,
    /// Total rows ever added.
    rows: u64,
}

impl ColumnCounter {
    /// Rows a block of bit-sliced counters can hold before flushing.
    pub const MAX_BLOCK: u32 = (1 << PLANES) - 1;

    /// Creates a counter for rows of `len` bits.
    pub fn new(len: usize) -> Self {
        let cols = len.div_ceil(64);
        ColumnCounter {
            len,
            cols,
            stage: vec![[0; STAGE]; cols],
            staged: 0,
            planes: vec![[0; PLANES]; cols],
            pending: 0,
            totals: vec![0; len],
            rows: 0,
        }
    }

    /// Bits per row.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether rows have zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total rows added so far.
    #[inline]
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Adds one row given as packed words (low bit of `words[0]` is column
    /// 0). Bits beyond `len` must be zero — [`BitVec`] maintains exactly
    /// that invariant.
    ///
    /// The row is staged; every 16th row reduces the stage into
    /// the planes.
    ///
    /// # Panics
    /// Panics if `words.len()` does not match the row width.
    #[inline]
    pub fn add(&mut self, words: &[u64]) {
        assert_eq!(
            words.len(),
            self.cols,
            "row has {} words, counter expects {}",
            words.len(),
            self.cols
        );
        for (column, &word) in self.stage.iter_mut().zip(words) {
            column[self.staged] = word;
        }
        self.staged += 1;
        self.rows += 1;
        if self.staged == STAGE {
            self.reduce_stage();
        }
    }

    /// Adds one [`BitVec`] row.
    ///
    /// # Panics
    /// Panics if `bits.len()` differs from the counter's row width.
    #[inline]
    pub fn add_bits(&mut self, bits: &BitVec) {
        assert_eq!(bits.len(), self.len, "row length mismatch");
        self.add(bits.words());
    }

    /// Reduces the stage into the planes: per column word, the carry-save
    /// tree's 5-bit count rippled into the 8 planes. Rows past `staged`
    /// are zeroed first, so a partial stage takes the same path.
    fn reduce_stage(&mut self) {
        if self.staged == 0 {
            return;
        }
        if self.pending + STAGE as u32 > Self::MAX_BLOCK {
            self.transpose();
        }
        for (column, lanes) in self.stage.iter_mut().zip(&mut self.planes) {
            column[self.staged..].fill(0);
            let count = stage_count(column);
            let mut carry = 0u64;
            for (p, lane) in lanes.iter_mut().enumerate() {
                let a = count.get(p).copied().unwrap_or(0);
                let half = *lane ^ a;
                let next = (*lane & a) | (half & carry);
                *lane = half ^ carry;
                carry = next;
            }
            // No carry survives the last plane: the planes were transposed
            // above whenever this stage could push a counter past MAX_BLOCK.
            debug_assert_eq!(carry, 0, "bit-sliced counter overflow");
        }
        self.pending += self.staged as u32;
        self.staged = 0;
    }

    /// Transposes the planes into the wide totals.
    fn transpose(&mut self) {
        if self.pending == 0 {
            return;
        }
        for (col, lanes) in self.planes.iter().enumerate() {
            if lanes.iter().all(|&l| l == 0) {
                continue;
            }
            let limit = 64.min(self.len - col * 64);
            let out = &mut self.totals[col * 64..col * 64 + limit];
            // Eight columns at a time: byte `p` of `x` is plane `p`'s bits
            // for the eight columns, an 8×8 bit matrix whose transpose has
            // each column's 8-bit count in one byte.
            for (g, totals) in out.chunks_mut(8).enumerate() {
                let mut x = 0u64;
                for (p, &lane) in lanes.iter().enumerate() {
                    x |= ((lane >> (8 * g)) & 0xff) << (8 * p);
                }
                let x = transpose8(x);
                for (b, total) in totals.iter_mut().enumerate() {
                    *total += (x >> (8 * b)) & 0xff;
                }
            }
        }
        self.planes.fill([0; PLANES]);
        self.pending = 0;
    }

    /// Reduces any partial stage and transposes the planes, so the totals
    /// hold every row added.
    fn flush(&mut self) {
        self.reduce_stage();
        self.transpose();
    }

    /// Flushes and adds the first `out.len()` column totals into `out`,
    /// then resets the counter (totals and row count) for reuse.
    ///
    /// Taking a prefix is deliberate: validity-perturbation reports carry
    /// `d + 1` columns but only the `d` item columns feed item counters.
    ///
    /// # Panics
    /// Panics if `out` is wider than the rows.
    pub fn drain_into(&mut self, out: &mut [u64]) {
        assert!(
            out.len() <= self.len,
            "output width {} exceeds row width {}",
            out.len(),
            self.len
        );
        self.flush();
        for (o, &t) in out.iter_mut().zip(&self.totals) {
            *o += t;
        }
        self.totals.fill(0);
        self.rows = 0;
    }

    /// Flushes and returns a copy of all column totals (test/debug helper;
    /// hot paths use [`ColumnCounter::drain_into`]).
    pub fn totals(&mut self) -> Vec<u64> {
        self.flush();
        self.totals.clone()
    }
}

/// Transposes the 8×8 bit matrix held in `x` (row `i` in byte `i`, column
/// `j` in bit `j` of each byte) with three delta swaps (Hacker's Delight
/// §7-3).
#[inline(always)]
fn transpose8(x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    let x = x ^ t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    let x = x ^ t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// One carry-save (full) adder over bit-sliced words: per lane,
/// `a + b + c = sum + 2·carry`.
#[inline(always)]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    (u ^ c, (a & b) | (u & c))
}

/// The Harley–Seal tree: reduces 16 words of weight 1 to their per-lane
/// count `Σ rows = c₀ + 2c₁ + 4c₂ + 8c₃ + 16c₄`, returned as
/// `[c₀, c₁, c₂, c₃, c₄]`, with 15 full adders (8 on weight 1, 4 on
/// weight 2, 2 on weight 4, 1 on weight 8; a zero third input makes one a
/// half adder).
#[inline(always)]
fn stage_count(r: &[u64; STAGE]) -> [u64; 5] {
    let (ones, twos_a) = csa(r[0], r[1], r[2]);
    let (ones, twos_b) = csa(ones, r[3], r[4]);
    let (twos, fours_a) = csa(twos_a, twos_b, 0);
    let (ones, twos_a) = csa(ones, r[5], r[6]);
    let (ones, twos_b) = csa(ones, r[7], r[8]);
    let (twos, fours_b) = csa(twos, twos_a, twos_b);
    let (fours, eights_a) = csa(fours_a, fours_b, 0);
    let (ones, twos_a) = csa(ones, r[9], r[10]);
    let (ones, twos_b) = csa(ones, r[11], r[12]);
    let (twos, fours_a) = csa(twos, twos_a, twos_b);
    let (ones, twos_a) = csa(ones, r[13], r[14]);
    let (ones, twos_b) = csa(ones, r[15], 0);
    let (twos, fours_b) = csa(twos, twos_a, twos_b);
    let (fours, eights_b) = csa(fours, fours_a, fours_b);
    let (eights, sixteens) = csa(eights_a, eights_b, 0);
    [ones, twos, fours, eights, sixteens]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Reference: per-bit scatter increments.
    fn reference_counts(rows: &[BitVec], len: usize) -> Vec<u64> {
        let mut counts = vec![0u64; len];
        for row in rows {
            for i in row.iter_ones() {
                counts[i] += 1;
            }
        }
        counts
    }

    /// `n` random rows of `len` bits, drawn at a density that varies by
    /// row so columns see both sparse and dense stretches.
    fn random_rows(rng: &mut StdRng, len: usize, n: usize) -> Vec<BitVec> {
        (0..n)
            .map(|i| {
                let mut b = BitVec::zeros(len);
                b.fill_bernoulli([0.05, 0.5, 0.95][i % 3], rng);
                b
            })
            .collect()
    }

    /// Row counts around every boundary of the adder: one stage (16), the
    /// transpose point (240 = 15 stages, the last that fit MAX_BLOCK = 255)
    /// and several transpose cycles.
    const ROW_COUNTS: [usize; 10] = [1, 15, 16, 17, 239, 240, 241, 255, 256, 3 * 255 + 17];
    const WIDTHS: [usize; 6] = [1, 63, 64, 65, 257, 1024];

    #[test]
    fn matches_reference_on_random_rows() {
        let mut rng = StdRng::seed_from_u64(1);
        for len in WIDTHS {
            for n in ROW_COUNTS {
                let rows = random_rows(&mut rng, len, n);
                let mut cc = ColumnCounter::new(len);
                for r in &rows {
                    cc.add_bits(r);
                }
                assert_eq!(cc.rows(), n as u64, "len={len} n={n}");
                assert_eq!(cc.totals(), reference_counts(&rows, len), "len={len} n={n}");
            }
        }
    }

    #[test]
    fn survives_many_flush_cycles() {
        // All-ones rows push every counter to its limit: each column
        // counts every row, across stages and transposes.
        for len in WIDTHS {
            let mut ones = BitVec::zeros(len);
            ones.toggle_all();
            for n in ROW_COUNTS {
                let mut cc = ColumnCounter::new(len);
                for _ in 0..n {
                    cc.add_bits(&ones);
                }
                assert!(
                    cc.totals().iter().all(|&c| c == n as u64),
                    "len={len} n={n}"
                );
            }
        }
    }

    #[test]
    fn drain_mid_stage_then_reuse_matches_reference() {
        // Drain after `first` rows (mid-stage for most counts), reuse the
        // counter for `second` more, drain again: each drain holds exactly
        // its own rows, on the full width and on a one-column-short prefix.
        let mut rng = StdRng::seed_from_u64(9);
        for len in WIDTHS {
            for (first, second) in [(1, 16), (15, 17), (17, 239), (241, 5), (256, 3 * 255 + 17)] {
                let rows = random_rows(&mut rng, len, first + second);
                let (a, b) = rows.split_at(first);
                let mut cc = ColumnCounter::new(len);
                for prefix in [len, len - 1] {
                    for part in [a, b] {
                        for r in part {
                            cc.add_bits(r);
                        }
                        assert_eq!(cc.rows(), part.len() as u64);
                        let mut out = vec![7u64; prefix];
                        cc.drain_into(&mut out);
                        let want: Vec<u64> = reference_counts(part, len)[..prefix]
                            .iter()
                            .map(|c| c + 7)
                            .collect();
                        assert_eq!(out, want, "len={len} rows={} prefix={prefix}", part.len());
                        assert_eq!(cc.rows(), 0, "drain resets the row count");
                    }
                }
            }
        }
    }

    #[test]
    fn drain_into_takes_prefix_and_resets() {
        let mut cc = ColumnCounter::new(5);
        cc.add_bits(&BitVec::one_hot(5, 4));
        cc.add_bits(&BitVec::one_hot(5, 0));
        let mut out = vec![10u64; 4]; // one column short: flag-style prefix
        cc.drain_into(&mut out);
        assert_eq!(out, vec![11, 10, 10, 10], "flag column 4 excluded");
        assert_eq!(cc.rows(), 0, "drain resets the row count");
        // Counter is reusable after a drain.
        cc.add_bits(&BitVec::one_hot(5, 1));
        assert_eq!(cc.totals(), vec![0, 1, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "row has")]
    fn rejects_mismatched_word_width() {
        ColumnCounter::new(65).add(&[0u64]);
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn rejects_mismatched_bit_length() {
        ColumnCounter::new(64).add_bits(&BitVec::zeros(63));
    }

    #[test]
    fn empty_rows_are_fine() {
        let mut cc = ColumnCounter::new(0);
        cc.add(&[]);
        assert!(cc.is_empty());
        assert_eq!(cc.totals(), Vec::<u64>::new());
    }
}
