//! Packed bit vectors used as unary-encoding reports.
//!
//! Unary-encoding mechanisms (SUE/OUE, and the paper's validity
//! perturbation) transmit one bit per domain value, so reports for realistic
//! domains (hundreds to tens of thousands of items) dominate both memory and
//! aggregation time. [`BitVec`] packs bits into `u64` words and provides the
//! hot operations:
//!
//! * [`BitVec::fill_bernoulli_wordwise`] — set every bit independently with
//!   probability `q`, 64 lanes per RNG word: a fixed 8 bit-sliced steps
//!   per output word plus one 64-bit draw per lane they leave undecided
//!   (8.25 words per 64 output bits on average, exact for every `q`).
//! * [`BitVec::fill_bernoulli`] — the same fill using *geometric skipping*:
//!   instead of `len` Bernoulli draws it draws one geometric gap per set
//!   bit, i.e. `O(len·q)` RNG calls — cheaper for sparse fills (small `q`).
//! * [`BitVec::iter_ones`] — word-at-a-time iteration over set bits for
//!   server-side aggregation.

use rand::Rng;

/// A fixed-length packed bit vector.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an all-zero bit vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a vector with exactly one bit set at `pos`.
    ///
    /// # Panics
    /// Panics if `pos >= len`.
    pub fn one_hot(len: usize, pos: usize) -> Self {
        let mut v = Self::zeros(len);
        v.set(pos, true);
        v
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        self.bit(i)
    }

    /// Reads bit `i` with a single word access and no length assert — for
    /// hot paths (e.g. validity-flag checks) that already validated the
    /// report length. Still memory-safe: the word index is bounds-checked
    /// by the slice.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of range");
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Raw word view (low bit of `words[0]` is bit 0).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Increments `counts[i]` for every set bit `i`, scanning word-at-a-time
    /// so aggregation hot loops never take [`BitVec::get`]'s per-bit bounds
    /// check.
    ///
    /// `counts` may be shorter than the vector when the caller knows the
    /// tail columns are clear (e.g. a validity-perturbation report whose
    /// flag bit was already checked).
    ///
    /// # Panics
    /// Panics if any **set** bit's index is `>= counts.len()`.
    pub fn count_ones_into(&self, counts: &mut [u64]) {
        let mut chunks = counts.chunks_mut(64);
        for &word in &self.words {
            let chunk = chunks.next();
            if word == 0 {
                continue;
            }
            let Some(chunk) = chunk else {
                // mcim-lint: allow(panic-freedom, the documented # Panics contract for out-of-range set bits)
                panic!(
                    "set bit beyond counts length {} (vector holds {} bits)",
                    counts.len(),
                    self.len
                );
            };
            let mut bits = word;
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                assert!(
                    j < chunk.len(),
                    "set bit beyond counts length {} (vector holds {} bits)",
                    counts.len(),
                    self.len
                );
                chunk[j] += 1;
                bits &= bits - 1; // clear lowest set bit
            }
        }
    }

    /// Replaces the bits selected by `mask` with the corresponding bits of
    /// `src`: `self = (self & !mask) | (src & mask)`, word-parallel.
    ///
    /// # Panics
    /// Panics if the three vectors have different lengths.
    pub fn merge_masked(&mut self, mask: &BitVec, src: &BitVec) {
        assert!(
            self.len == mask.len && self.len == src.len,
            "merge_masked length mismatch ({} / {} / {})",
            self.len,
            mask.len,
            src.len
        );
        for ((w, &m), &s) in self.words.iter_mut().zip(&mask.words).zip(&src.words) {
            *w = (*w & !m) | (s & m);
        }
    }

    /// Flips every bit (padding bits beyond `len` stay clear).
    pub fn toggle_all(&mut self) {
        for (idx, w) in self.words.iter_mut().enumerate() {
            let remaining = self.len - idx * 64;
            let live = if remaining >= 64 {
                u64::MAX
            } else {
                (1u64 << remaining) - 1
            };
            *w = !*w & live;
        }
    }

    /// Sets every bit independently to 1 with probability `q`, sampling
    /// **64 lanes at a time** instead of per-set-bit geometric gaps.
    ///
    /// Each lane's bit is `[U < q]` for an independent uniform `U ∈ [0, 1)`
    /// built from fresh fair bits, compared against `q`'s exact binary
    /// expansion MSB-first. Per output word (RNG contract v3 and later):
    ///
    /// 1. **K = [`WORDWISE_STEPS`] = 8 bit-sliced steps, always.** Step
    ///    `j` draws one word whose lane bits are bit `j` of every lane's
    ///    `U`. A lane is decided `U < q` at the first step where its bit
    ///    is 0 and `q`'s is 1, `U ≥ q` where its bit is 1 and `q`'s is 0,
    ///    and stays undecided while the prefixes agree. The steps are
    ///    branch-free and their count does not depend on the draws.
    /// 2. **Fix-up, per lane still undecided, in increasing lane order.**
    ///    When `q`'s expansion ended within the K steps the lane has matched
    ///    all of `q` and is `≥ q`, with no draw. Otherwise one fresh word is
    ///    `U`'s next 64 bits (MSB first), compared as an integer against
    ///    `q`'s next 64 expansion bits; on a tie the next word is drawn,
    ///    only while `q`'s expansion continues past the bits compared.
    ///
    /// The result is **exactly** Bernoulli(`q`): no truncation bias. A lane
    /// survives the K steps with probability `2⁻ᴷ`, so the expected RNG
    /// cost is at most `K + 64·2⁻ᴷ = 8.25` words per output word
    /// *independent of `q`*, with no `ln` evaluations. Geometric skipping
    /// ([`BitVec::fill_bernoulli`]) costs one `f64` draw **and one `ln`**
    /// per set bit, i.e. `O(64·q)` per word — cheaper only for sparse fills
    /// (small `q`). `UnaryEncoding`'s plane sampler picks between the two
    /// by `q`; both are exact, they only consume the RNG stream differently.
    ///
    /// Each call plans its constants from `q` (the expansion and the step
    /// masks), then fills; `UnaryEncoding` keeps one plan per mechanism
    /// and fills through it, drawing exactly the same words.
    pub fn fill_bernoulli_wordwise<R: Rng + ?Sized>(&mut self, q: f64, rng: &mut R) {
        match WordwisePlan::new(q) {
            Some(plan) => plan.fill(self, rng),
            // Degenerate probabilities: delegate for the constant fills.
            None => self.fill_bernoulli(if q >= 1.0 { 1.0 } else { 0.0 }, rng),
        }
    }

    /// Sets every bit independently to 1 with probability `q`.
    ///
    /// Existing contents are overwritten. Uses geometric skipping: the gap
    /// between consecutive set bits under i.i.d. Bernoulli(q) is geometric,
    /// so we sample gaps directly with one `f64` draw per set bit.
    pub fn fill_bernoulli<R: Rng + ?Sized>(&mut self, q: f64, rng: &mut R) {
        for w in &mut self.words {
            *w = 0;
        }
        if self.len == 0 || q <= 0.0 {
            return;
        }
        if q >= 1.0 {
            for (idx, w) in self.words.iter_mut().enumerate() {
                let remaining = self.len - idx * 64;
                *w = if remaining >= 64 {
                    u64::MAX
                } else {
                    (1u64 << remaining) - 1
                };
            }
            return;
        }
        // ln(1-q) is strictly negative here.
        let log1mq = (-q).ln_1p();
        let mut i = 0usize;
        loop {
            // gap ~ Geometric(q): number of zeros before the next one.
            let u: f64 = rng.random::<f64>();
            // Guard against u == 0 producing ln(0) = -inf (gap = +inf, ends fill).
            let gap = if u <= f64::MIN_POSITIVE {
                self.len // effectively "no more ones"
            } else {
                let g = (u.ln() / log1mq).floor();
                if g >= self.len as f64 {
                    self.len
                } else {
                    g as usize
                }
            };
            i = match i.checked_add(gap) {
                Some(next) if next < self.len => next,
                _ => break,
            };
            self.words[i / 64] |= 1u64 << (i % 64);
            i += 1;
            if i >= self.len {
                break;
            }
        }
    }
}

/// Bit-sliced steps [`BitVec::fill_bernoulli_wordwise`] runs per output
/// word before settling the lanes still undecided one by one. A constant
/// of the RNG contract since v3: changing it changes every seeded output.
pub const WORDWISE_STEPS: u32 = 8;

/// The constants [`BitVec::fill_bernoulli_wordwise`] derives from `q`,
/// computed once: `q`'s exact binary expansion and the
/// [`WORDWISE_STEPS`] step masks (step `j`'s mask is all ones where `q`'s
/// bit `j` is 1). Filling through one plan draws exactly what a fresh
/// `fill_bernoulli_wordwise(q, rng)` call draws.
#[derive(Debug, Clone)]
pub(crate) struct WordwisePlan {
    q: Expansion,
    steps: [u64; WORDWISE_STEPS as usize],
}

impl WordwisePlan {
    /// Plans Bernoulli(`q`) fills; `None` unless `q ∈ (0, 1)` (the constant
    /// fills draw nothing and need no plan).
    pub(crate) fn new(q: f64) -> Option<Self> {
        if q.is_nan() || q <= 0.0 || q >= 1.0 {
            return None;
        }
        let q = Expansion::new(q);
        let head = q.window(WORDWISE_STEPS);
        let steps = std::array::from_fn(|j| {
            0u64.wrapping_sub((head >> (WORDWISE_STEPS as usize - 1 - j)) & 1)
        });
        Some(WordwisePlan { q, steps })
    }

    /// Overwrites `bits` with an i.i.d. Bernoulli(`q`) plane in the
    /// contract's word-parallel draw order.
    pub(crate) fn fill<R: Rng + ?Sized>(&self, bits: &mut BitVec, rng: &mut R) {
        let tail = bits.len % 64;
        let n_words = bits.words.len();
        for (idx, w) in bits.words.iter_mut().enumerate() {
            let live = if idx + 1 < n_words || tail == 0 {
                u64::MAX
            } else {
                (1u64 << tail) - 1
            };
            let mut result = 0u64;
            let mut undecided = live;
            for &q_bit in &self.steps {
                let r = rng.next_u64();
                result |= undecided & !r & q_bit;
                undecided &= !(r ^ q_bit);
            }
            while undecided != 0 {
                let lane = undecided.trailing_zeros();
                undecided &= undecided - 1;
                if self.q.tail_below(rng) {
                    result |= 1 << lane;
                }
            }
            *w = result;
        }
    }
}

/// A Bernoulli(`p`) draw from one RNG word, planned once:
/// `t = ⌈p·2⁵³⌉`, and a draw is `(next_u64() >> 11) < t`.
///
/// This decides exactly what `rng.random_bool(p)` decides from the same
/// word: that compares `x·2⁻⁵³ < p` for the 53-bit integer `x`, `p·2⁵³`
/// is exact (a power-of-two scaling of `p ∈ [0, 1]`), and for an integer
/// `x`, `x < p·2⁵³` exactly when `x < ⌈p·2⁵³⌉`. So the single-bit draws
/// of UE's hot bit and GRR's keep decision cost one integer compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Threshold(u64);

impl Threshold {
    /// Plans Bernoulli(`p`) draws.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`, as `random_bool` does (a NaN `p` would
    /// otherwise plan a draw that never keeps).
    pub(crate) fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p={p} is not a probability");
        Threshold((p * (1u64 << 53) as f64).ceil() as u64)
    }

    /// One Bernoulli(`p`) draw: consumes one RNG word.
    #[inline]
    pub(crate) fn draw<R: Rng + ?Sized>(self, rng: &mut R) -> bool {
        (rng.next_u64() >> 11) < self.0
    }
}

/// A probability `q ∈ (0, 1)` as its exact binary expansion `q = m·2⁻ˢ`,
/// read off the `f64` bits.
#[derive(Debug, Clone, Copy)]
struct Expansion {
    m: u64,
    s: u32,
    /// Position of the expansion's last 1-bit (position 1 is the bit just
    /// after the binary point).
    last: u32,
}

impl Expansion {
    /// `q` must be finite and in `(0, 1)`.
    fn new(q: f64) -> Self {
        let bits = q.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as u32;
        let frac = bits & ((1 << 52) - 1);
        // Subnormals have no implicit bit and the minimum exponent.
        let (m, s) = if exp == 0 {
            (frac, 1074)
        } else {
            (frac | 1 << 52, 1075 - exp)
        };
        Expansion {
            m,
            s,
            last: s - m.trailing_zeros(),
        }
    }

    /// `⌊q·2ᵗ⌋ mod 2⁶⁴`: expansion positions `t−63 ..= t` as an integer,
    /// position `t` in the lowest bit.
    fn window(&self, t: u32) -> u64 {
        if t >= self.s {
            self.m.checked_shl(t - self.s).unwrap_or(0)
        } else {
            self.m.checked_shr(self.s - t).unwrap_or(0)
        }
    }

    /// Settles one lane whose first [`WORDWISE_STEPS`] bits equal `q`'s:
    /// whether the rest of its `U` falls below the rest of `q`, drawing
    /// 64-bit words only while `q`'s expansion continues past the bits
    /// already compared.
    fn tail_below<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        let mut t = WORDWISE_STEPS;
        while self.last > t {
            t += 64;
            let q_word = self.window(t);
            let r = rng.next_u64();
            if r != q_word {
                return r < q_word;
            }
        }
        false
    }
}

/// Iterator over set-bit indices of a [`BitVec`].
pub struct IterOnes<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_idx * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn zeros_is_empty_of_ones() {
        let v = BitVec::zeros(130);
        assert_eq!(v.len(), 130);
        assert_eq!(v.count_ones(), 0);
        assert_eq!(v.iter_ones().count(), 0);
    }

    #[test]
    fn one_hot_round_trip() {
        for len in [1usize, 63, 64, 65, 129] {
            for pos in [0, len / 2, len - 1] {
                let v = BitVec::one_hot(len, pos);
                assert_eq!(v.count_ones(), 1);
                assert!(v.get(pos));
                assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![pos]);
            }
        }
    }

    #[test]
    fn set_and_clear() {
        let mut v = BitVec::zeros(100);
        v.set(0, true);
        v.set(64, true);
        v.set(99, true);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![0, 64, 99]);
        v.set(64, false);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![0, 99]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(10).get(10);
    }

    #[test]
    fn fill_bernoulli_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut v = BitVec::zeros(200);
        v.fill_bernoulli(0.0, &mut rng);
        assert_eq!(v.count_ones(), 0);
        v.fill_bernoulli(1.0, &mut rng);
        assert_eq!(v.count_ones(), 200);
        // Padding bits in the last word must stay clear so count_ones is exact.
        assert_eq!(v.words().last().unwrap().count_ones(), 200 - 3 * 64);
        v.fill_bernoulli(0.0, &mut rng);
        assert_eq!(v.count_ones(), 0, "refill overwrites previous contents");
    }

    #[test]
    fn fill_bernoulli_mean_matches_q() {
        let mut rng = StdRng::seed_from_u64(42);
        for q in [0.01, 0.1, 0.3, 0.5, 0.9] {
            let len = 10_000;
            let trials = 50;
            let mut total = 0usize;
            let mut v = BitVec::zeros(len);
            for _ in 0..trials {
                v.fill_bernoulli(q, &mut rng);
                total += v.count_ones();
            }
            let mean = total as f64 / (trials * len) as f64;
            // Binomial std for the pooled mean is sqrt(q(1-q)/(trials*len)) < 0.0011.
            assert!(
                (mean - q).abs() < 0.01,
                "q={q}: empirical mean {mean} too far off"
            );
        }
    }

    #[test]
    fn fill_bernoulli_wordwise_extremes_and_padding() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v = BitVec::zeros(200);
        v.fill_bernoulli_wordwise(0.0, &mut rng);
        assert_eq!(v.count_ones(), 0);
        v.fill_bernoulli_wordwise(1.0, &mut rng);
        assert_eq!(v.count_ones(), 200);
        // Padding bits beyond len must stay clear for every q.
        v.fill_bernoulli_wordwise(0.7, &mut rng);
        assert_eq!(v.words().last().unwrap() >> (200 - 3 * 64), 0);
        v.fill_bernoulli_wordwise(0.3, &mut rng);
        assert!(v.count_ones() <= 200);
    }

    #[test]
    fn fill_bernoulli_wordwise_mean_matches_q() {
        let mut rng = StdRng::seed_from_u64(17);
        // Includes dyadic q (0.5, 0.25: shortest expansions) and the OUE
        // values the privatizer actually uses.
        for q in [0.01, 0.1, 0.25, 1.0 / (1f64.exp() + 1.0), 0.5, 0.9] {
            let len = 10_000;
            let trials = 50;
            let mut total = 0usize;
            let mut v = BitVec::zeros(len);
            for _ in 0..trials {
                v.fill_bernoulli_wordwise(q, &mut rng);
                total += v.count_ones();
            }
            let mean = total as f64 / (trials * len) as f64;
            assert!(
                (mean - q).abs() < 0.01,
                "q={q}: empirical mean {mean} too far off"
            );
        }
    }

    /// `q`'s binary expansion at positions `1..=n` by the doubling walk
    /// (doubling an `f64 < 1` and subtracting 1 from one in `[1, 2)` are
    /// both exact), independent of the sampler's bit arithmetic.
    fn expansion_bits(q: f64, n: usize) -> Vec<bool> {
        let mut x = q;
        (0..n)
            .map(|_| {
                x *= 2.0;
                let bit = x >= 1.0;
                if bit {
                    x -= 1.0;
                }
                bit
            })
            .collect()
    }

    /// The contract's word-parallel draw order (v3 and later), replayed
    /// draw by draw: every lane's `U` is its K sliced bits followed by its
    /// fix-up words, every output bit is exactly `[U < q]`, and the
    /// sampler consumes exactly K words per output word plus one per
    /// fix-up draw. Each `q` is planned once and its plan fills every
    /// length, as `UnaryEncoding`'s plane sampler does.
    #[test]
    fn fill_bernoulli_wordwise_is_exactly_u_below_q() {
        const K: usize = WORDWISE_STEPS as usize;
        let oue = |e: f64| 1.0 / (e.exp() + 1.0);
        let long = (1.0 / 3.0) * 2f64.powi(-30);
        let qs = [
            0.5,
            0.25,
            0.75,
            oue(0.5),
            oue(1.0),
            oue(2.0),
            1.0 / 16.0,
            0.003,
            long,
        ];
        let mut rng = StdRng::seed_from_u64(2024);
        let mut total_fixups = 0usize;
        for q in qs {
            let plan = WordwisePlan::new(q).expect("q is in (0, 1)");
            let q_bits = expansion_bits(q, 1100);
            let q_len = q_bits.iter().rposition(|&b| b).map_or(0, |i| i + 1);
            if q == long {
                assert!(q_len > K + 64, "{q} must run past K+64 bits");
            }
            for len in [1usize, 63, 64, 65, 1024] {
                let mut replay = rng.clone();
                let mut v = BitVec::zeros(len);
                plan.fill(&mut v, &mut rng);

                let (mut draws, mut fixups) = (0usize, 0usize);
                for word in 0..len.div_ceil(64) {
                    let sliced: Vec<u64> = (0..K).map(|_| replay.next_u64()).collect();
                    draws += K;
                    for lane in 0..(len - word * 64).min(64) {
                        // The first position where U and q differ decides;
                        // equal through q's last 1-bit means U ≥ q.
                        let mut u_bits: Vec<bool> =
                            sliced.iter().map(|r| (r >> lane) & 1 == 1).collect();
                        let below = loop {
                            let differ = u_bits
                                .iter()
                                .zip(q_bits.iter().chain(std::iter::repeat(&false)))
                                .find(|(u, q)| u != q);
                            if let Some((_, &q_bit)) = differ {
                                break q_bit;
                            }
                            if u_bits.len() >= q_len {
                                break false;
                            }
                            let r = replay.next_u64();
                            draws += 1;
                            fixups += 1;
                            u_bits.extend((0..64).rev().map(|b| (r >> b) & 1 == 1));
                        };
                        assert_eq!(
                            v.get(word * 64 + lane),
                            below,
                            "q={q} len={len} bit {}",
                            word * 64 + lane
                        );
                    }
                }
                if q_len <= K {
                    assert_eq!(fixups, 0, "q={q}: expansion ends within K steps");
                }
                assert_eq!(draws, K * len.div_ceil(64) + fixups);
                assert_eq!(replay, rng, "q={q} len={len}: draw count differs");
                total_fixups += fixups;
            }
        }
        assert!(total_fixups > 0, "the fix-up path was never exercised");
    }

    #[test]
    fn one_plan_reused_matches_fresh_fills() {
        // A plan kept across many planes draws exactly what a fresh
        // `fill_bernoulli_wordwise` call per plane draws: same words, same
        // RNG state after every plane.
        let oue = |e: f64| 1.0 / (e.exp() + 1.0);
        for q in [
            0.5,
            0.75,
            oue(1.0),
            oue(3.0),
            1.0 / 64.0,
            (1.0 / 3.0) * 2f64.powi(-30),
        ] {
            let plan = WordwisePlan::new(q).expect("q is in (0, 1)");
            for len in [1usize, 63, 64, 65, 1024] {
                let mut planned_rng = StdRng::seed_from_u64(41);
                let mut fresh_rng = StdRng::seed_from_u64(41);
                let (mut planned, mut fresh) = (BitVec::zeros(len), BitVec::zeros(len));
                for plane in 0..40 {
                    plan.fill(&mut planned, &mut planned_rng);
                    fresh.fill_bernoulli_wordwise(q, &mut fresh_rng);
                    assert_eq!(planned, fresh, "q={q} len={len} plane {plane}");
                    assert_eq!(planned_rng, fresh_rng, "q={q} len={len} plane {plane}");
                }
            }
        }
        for q in [f64::NAN, -0.5, 0.0, 1.0, 2.0] {
            assert!(WordwisePlan::new(q).is_none(), "q={q} is a constant fill");
        }
    }

    /// An RNG that returns one fixed word.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn threshold_decides_exactly_what_random_bool_decides() {
        use crate::{Eps, Grr, UnaryEncoding};
        let two53 = 1u64 << 53;
        let mut ps = vec![0.0, f64::from_bits(1), 0.5, 1.0 - 2f64.powi(-53), 1.0];
        for e in [0.5, 1.0, 3.0] {
            let eps = Eps::new(e).unwrap();
            ps.push(UnaryEncoding::symmetric(eps, 4).unwrap().p());
            ps.push(Grr::new(eps, 10).unwrap().p());
        }
        for p in ps {
            let threshold = Threshold::new(p);
            let t = threshold.0;
            assert!(t <= two53, "p={p}: t={t}");
            let xs = [
                Some(0),
                t.checked_sub(1),
                Some(t),
                Some(t + 1),
                Some(two53 - 1),
            ];
            for x in xs.into_iter().flatten().filter(|&x| x < two53) {
                let below = (x as f64) * (1.0 / two53 as f64) < p;
                // The 11 low bits are discarded by both draws.
                for low in [0, 0x7ff] {
                    let word = (x << 11) | low;
                    assert_eq!(threshold.draw(&mut Fixed(word)), below, "p={p} x={x}");
                    assert_eq!(Fixed(word).random_bool(p), below, "p={p} x={x}");
                }
            }
        }
    }

    #[test]
    fn fill_bernoulli_wordwise_is_unclustered() {
        // Bit-sliced sampling must still produce independent-looking bits,
        // both within a word and across the word boundary.
        let mut rng = StdRng::seed_from_u64(23);
        let q = 0.3;
        let len = 20_000;
        let mut v = BitVec::zeros(len);
        let mut pairs = 0usize;
        let mut boundary_pairs = 0usize;
        let mut boundary_n = 0usize;
        let trials = 20;
        for _ in 0..trials {
            v.fill_bernoulli_wordwise(q, &mut rng);
            for i in 0..len - 1 {
                if v.get(i) && v.get(i + 1) {
                    pairs += 1;
                    if i % 64 == 63 {
                        boundary_pairs += 1;
                    }
                }
                if i % 64 == 63 {
                    boundary_n += 1;
                }
            }
        }
        let rate = pairs as f64 / (trials * (len - 1)) as f64;
        assert!(
            (rate - q * q).abs() < 0.01,
            "pair rate {rate} vs q²={}",
            q * q
        );
        let boundary_rate = boundary_pairs as f64 / boundary_n as f64;
        assert!(
            (boundary_rate - q * q).abs() < 0.03,
            "word-boundary pair rate {boundary_rate} vs q²={}",
            q * q
        );
    }

    #[test]
    fn fill_bernoulli_is_unclustered() {
        // Geometric skipping must produce independent-looking bits: adjacent
        // pairs should both be set with probability ~q².
        let mut rng = StdRng::seed_from_u64(7);
        let q = 0.3;
        let len = 20_000;
        let mut v = BitVec::zeros(len);
        let mut pairs = 0usize;
        let trials = 20;
        for _ in 0..trials {
            v.fill_bernoulli(q, &mut rng);
            for i in 0..len - 1 {
                if v.get(i) && v.get(i + 1) {
                    pairs += 1;
                }
            }
        }
        let rate = pairs as f64 / (trials * (len - 1)) as f64;
        assert!(
            (rate - q * q).abs() < 0.01,
            "pair rate {rate} vs q²={}",
            q * q
        );
    }

    #[test]
    fn count_ones_into_matches_iter_ones() {
        let mut rng = StdRng::seed_from_u64(11);
        for len in [1usize, 64, 65, 200] {
            let mut v = BitVec::zeros(len);
            v.fill_bernoulli(0.4, &mut rng);
            let mut fast = vec![0u64; len + 3]; // longer slice is allowed
            v.count_ones_into(&mut fast);
            let mut slow = vec![0u64; len + 3];
            for i in v.iter_ones() {
                slow[i] += 1;
            }
            assert_eq!(fast, slow, "len={len}");
        }
    }

    #[test]
    fn count_ones_into_allows_clear_tail_columns() {
        // Flag-style layout: 65 bits, counts only cover the first 64, and
        // the tail bit is clear — allowed.
        let mut v = BitVec::zeros(65);
        v.set(63, true);
        let mut counts = [0u64; 64];
        v.count_ones_into(&mut counts);
        assert_eq!(counts[63], 1);
    }

    #[test]
    #[should_panic(expected = "set bit beyond counts length")]
    fn count_ones_into_rejects_set_bit_past_slice() {
        let mut v = BitVec::zeros(65);
        v.set(64, true);
        v.count_ones_into(&mut [0u64; 64]);
    }

    #[test]
    #[should_panic(expected = "set bit beyond counts length")]
    fn count_ones_into_rejects_set_bit_past_partial_chunk() {
        // counts ends mid-word: a set bit just past it must still panic.
        let mut v = BitVec::zeros(40);
        v.set(39, true);
        v.count_ones_into(&mut [0u64; 39]);
    }

    #[test]
    fn merge_masked_selects_per_bit() {
        let len = 130;
        let mut rng = StdRng::seed_from_u64(5);
        let mut dst = BitVec::zeros(len);
        let mut mask = BitVec::zeros(len);
        let mut src = BitVec::zeros(len);
        dst.fill_bernoulli(0.5, &mut rng);
        mask.fill_bernoulli(0.5, &mut rng);
        src.fill_bernoulli(0.5, &mut rng);
        let expect: Vec<bool> = (0..len)
            .map(|i| if mask.get(i) { src.get(i) } else { dst.get(i) })
            .collect();
        dst.merge_masked(&mask, &src);
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(dst.get(i), e, "bit {i}");
        }
    }

    #[test]
    fn toggle_all_keeps_padding_clear() {
        let mut v = BitVec::zeros(70);
        v.set(3, true);
        v.toggle_all();
        assert_eq!(v.count_ones(), 69);
        assert!(!v.get(3));
        v.toggle_all();
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn iter_ones_crosses_word_boundaries() {
        let mut v = BitVec::zeros(256);
        let positions = [0usize, 1, 63, 64, 127, 128, 200, 255];
        for &p in &positions {
            v.set(p, true);
        }
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), positions);
    }
}
