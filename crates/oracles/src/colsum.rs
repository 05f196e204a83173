//! Word-parallel vertical popcount column sums.
//!
//! Every unary-encoding aggregator in the workspace reduces a stream of
//! packed bit-vector reports to one counter per domain value. The obvious
//! loop — scan each report's set bits and increment `counts[i]` — touches
//! `O(len·q)` scattered counters per report. [`ColumnCounter`] instead
//! treats a block of reports as a bit matrix and adds whole 64-bit words at
//! a time with a *bit-sliced* (carry-save) adder: plane `p` holds bit `p`
//! of 64 independent per-column counters, so adding one report costs a
//! handful of XOR/AND ops per word regardless of how many bits are set.
//!
//! Counters are `PLANES` (8) bits wide; after [`ColumnCounter::MAX_BLOCK`]
//! rows the planes are transposed ("flushed") into the wide `u64` totals.
//! The amortized flush cost is ~2 ops per word-row, so the per-report cost
//! is `O(len/64)` word operations — for OUE at `d = 1024`, ε = 1 this
//! replaces ~276 scattered increments with ~16 word additions.
//!
//! The counter is purely data-parallel state: shard a report stream across
//! threads, give each shard its own `ColumnCounter`, and add the per-shard
//! totals — `u64` sums are associative, so the result is bit-identical to
//! sequential aggregation in any merge order.

use crate::BitVec;

/// Bit width of the in-flight per-column counters (one plane per bit).
const PLANES: usize = 8;

/// Accumulates per-column (per-bit-position) counts over a stream of
/// equal-length packed bit rows.
#[derive(Debug, Clone)]
pub struct ColumnCounter {
    /// Bits per row.
    len: usize,
    /// Words per row.
    cols: usize,
    /// Bit-sliced pending counters, layout `[col * PLANES + plane]`.
    planes: Vec<u64>,
    /// Rows added since the last flush (kept `< MAX_BLOCK`… `== MAX_BLOCK`
    /// triggers a flush on the next add).
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
            planes: vec![0; cols * PLANES],
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
    /// The hot loop is 4-way unrolled: four word-columns ripple their
    /// carries through the planes as independent chains per pass, so the
    /// adder is bound by instruction throughput instead of the
    /// load→xor→store latency of one chain at a time (a single chain's
    /// early exit saved plane work but serialized every word on its
    /// predecessor's carry test).
    ///
    /// # Panics
    /// Panics if `words.len()` does not match the row width.
    pub fn add(&mut self, words: &[u64]) {
        assert_eq!(
            words.len(),
            self.cols,
            "row has {} words, counter expects {}",
            words.len(),
            self.cols
        );
        if self.pending == Self::MAX_BLOCK {
            self.flush();
        }
        let mut quads = words.chunks_exact(4);
        let mut plane_quads = self.planes.chunks_exact_mut(4 * PLANES);
        for (quad, lanes) in (&mut quads).zip(&mut plane_quads) {
            let (mut c0, mut c1, mut c2, mut c3) = (quad[0], quad[1], quad[2], quad[3]);
            if c0 | c1 | c2 | c3 == 0 {
                continue;
            }
            let (l0, rest) = lanes.split_at_mut(PLANES);
            let (l1, rest) = rest.split_at_mut(PLANES);
            let (l2, l3) = rest.split_at_mut(PLANES);
            for p in 0..PLANES {
                // Shared early exit: carry chains are short (the joint
                // chain ends when the longest of the four does).
                if c0 | c1 | c2 | c3 == 0 {
                    break;
                }
                let s0 = l0[p] ^ c0;
                c0 &= l0[p];
                l0[p] = s0;
                let s1 = l1[p] ^ c1;
                c1 &= l1[p];
                l1[p] = s1;
                let s2 = l2[p] ^ c2;
                c2 &= l2[p];
                l2[p] = s2;
                let s3 = l3[p] ^ c3;
                c3 &= l3[p];
                l3[p] = s3;
            }
            // No carry survives the last plane: counters max out at
            // MAX_BLOCK rows and we flushed above.
            debug_assert_eq!(c0 | c1 | c2 | c3, 0, "bit-sliced counter overflow");
        }
        // Remainder columns (row width not a multiple of 256 bits) keep the
        // scalar chain.
        let rem_start = self.cols / 4 * 4;
        for (col, &word) in quads.remainder().iter().enumerate() {
            let mut carry = word;
            if carry == 0 {
                continue;
            }
            let col = rem_start + col;
            let lanes = &mut self.planes[col * PLANES..(col + 1) * PLANES];
            for lane in lanes {
                let sum = *lane ^ carry;
                carry &= *lane;
                *lane = sum;
                if carry == 0 {
                    break;
                }
            }
            debug_assert_eq!(carry, 0, "bit-sliced counter overflow");
        }
        self.pending += 1;
        self.rows += 1;
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

    /// Transposes the pending bit-sliced block into the wide totals.
    fn flush(&mut self) {
        if self.pending == 0 {
            return;
        }
        for col in 0..self.cols {
            let lanes = &self.planes[col * PLANES..(col + 1) * PLANES];
            if lanes.iter().all(|&l| l == 0) {
                continue;
            }
            let limit = 64.min(self.len - col * 64);
            let out = &mut self.totals[col * 64..col * 64 + limit];
            for (j, total) in out.iter_mut().enumerate() {
                let mut c = 0u64;
                for (p, &lane) in lanes.iter().enumerate() {
                    c |= ((lane >> j) & 1) << p;
                }
                *total += c;
            }
        }
        self.planes.fill(0);
        self.pending = 0;
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

    #[test]
    fn matches_reference_on_random_rows() {
        let mut rng = StdRng::seed_from_u64(1);
        // Lengths straddling both the 4-word unrolled path (≥ 256 bits)
        // and the scalar remainder (width % 256 ≠ 0).
        for len in [1usize, 63, 64, 65, 130, 257, 320, 1024] {
            for q in [0.05, 0.5, 0.95] {
                let rows: Vec<BitVec> = (0..300)
                    .map(|_| {
                        let mut b = BitVec::zeros(len);
                        b.fill_bernoulli(q, &mut rng);
                        b
                    })
                    .collect();
                let mut cc = ColumnCounter::new(len);
                for r in &rows {
                    cc.add_bits(r);
                }
                assert_eq!(cc.rows(), 300);
                assert_eq!(cc.totals(), reference_counts(&rows, len), "len={len} q={q}");
            }
        }
    }

    #[test]
    fn survives_many_flush_cycles() {
        // > MAX_BLOCK rows of all-ones: every column counts every row.
        let len = 70;
        let mut ones = BitVec::zeros(len);
        for i in 0..len {
            ones.set(i, true);
        }
        let n = 3 * ColumnCounter::MAX_BLOCK as u64 + 17;
        let mut cc = ColumnCounter::new(len);
        for _ in 0..n {
            cc.add_bits(&ones);
        }
        assert!(cc.totals().iter().all(|&c| c == n));
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
