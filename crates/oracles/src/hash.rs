//! The `splitmix64` mixer and a deterministic RNG built on it.
//!
//! Two consumers need *stable, seed-reproducible* randomness:
//!
//! * the shard-stream seeds ([`crate::parallel::shard_rng`]) mix a stage
//!   seed and a shard index through [`splitmix64`];
//! * the paper's shuffling scheme (§VI-B, Fig. 4) sends users a 64-bit seed
//!   per iteration from which they reconstruct the server's candidate
//!   shuffle locally: [`SplitMix64::shuffle`] permutes the candidates and
//!   `bucket_of` in `mcim-topk` cuts the permutation into buckets. User and
//!   server must agree bit-for-bit, so the shuffle cannot depend on
//!   `rand`'s internals.
//!
//! `splitmix64` is the finalizer from Steele et al., "Fast Splittable
//! Pseudorandom Number Generators" (OOPSLA 2014): a cheap, well-distributed
//! 64-bit mixer.

/// One round of the splitmix64 output mixer.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A tiny deterministic RNG (splitmix64 stream) for reproducible shuffles.
///
/// Not a `rand::RngCore` implementation on purpose: its byte-for-byte output
/// is part of the client/server protocol (both sides replay the same
/// shuffle), so it must never change out from under us via a dependency
/// upgrade.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)` via Lemire reduction.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Fisher–Yates shuffle of `slice`, fully determined by the seed.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_golden_values_are_protocol_constants() {
        // The shuffle protocol replays these on both client and server; a
        // change here is a silent wire-protocol break. Reference values from
        // the splitmix64 reference implementation (Steele et al.).
        assert_eq!(splitmix64(0x0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(0x1), 0x910a_2dec_8902_5cc1);
        assert_eq!(splitmix64(0xDEAD_BEEF), 0x4adf_b90f_68c9_eb9b);
        // And the stream form used by shuffles.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn shuffle_golden_permutation() {
        // Protocol stability for the Fisher–Yates order itself.
        let mut v: Vec<u32> = (0..8).collect();
        SplitMix64::new(12345).shuffle(&mut v);
        assert_eq!(v, vec![3, 4, 6, 2, 5, 0, 7, 1]);
    }

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        // Adjacent inputs should differ in many bits (avalanche sanity).
        let d = (splitmix64(12345) ^ splitmix64(12346)).count_ones();
        assert!(d > 16, "only {d} differing bits");
    }

    #[test]
    fn shuffle_is_seed_deterministic_and_permutes() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b: Vec<u32> = (0..100).collect();
        SplitMix64::new(5).shuffle(&mut a);
        SplitMix64::new(5).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        let mut c: Vec<u32> = (0..100).collect();
        SplitMix64::new(6).shuffle(&mut c);
        assert_ne!(a, c, "different seeds should give different shuffles");
    }

    #[test]
    fn shuffle_is_roughly_unbiased() {
        // Position of element 0 after shuffling should be uniform.
        let mut counts = [0usize; 8];
        for seed in 0..8000u64 {
            let mut v: Vec<u8> = (0..8).collect();
            SplitMix64::new(seed).shuffle(&mut v);
            let pos = v.iter().position(|&x| x == 0).unwrap();
            counts[pos] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 1000.0).abs() < 150.0, "position count {c}");
        }
    }

    #[test]
    fn next_below_bounds() {
        let mut rng = SplitMix64::new(3);
        for bound in [1u64, 2, 3, 100] {
            for _ in 0..100 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }
}
