//! The shuffling-based candidate-pruning scheme (§VI-B, Fig. 4).
//!
//! PEM's prefix trie produces *false positive prefixes*: a heavy item under
//! a light prefix is pruned before it can surface (Fig. 3). The paper's fix
//! decouples prefix groups by **shuffling**: each round the surviving
//! candidate set is permuted with a fresh public seed and split into
//! equal-size buckets; users report their item's *bucket* under the LDP
//! mechanism; the heaviest half of the buckets survives. Because groupings
//! are re-randomized every round, no item is permanently tied to light
//! companions.
//!
//! Communication: the server broadcasts only `(seed, bucket bitmask)` per
//! past round — each user replays the shuffle history locally to find her
//! item's current bucket ([`replay`] is that shared client/server code
//! path; determinism is guaranteed by [`mcim_oracles::hash::SplitMix64`],
//! not by `rand` internals).

use std::collections::HashMap;

use mcim_oracles::hash::SplitMix64;

/// Balanced contiguous bucket assignment: position `pos` of `n` shuffled
/// candidates into `buckets` buckets. Buckets differ in size by at most 1.
#[inline]
pub fn bucket_of(pos: usize, n: usize, buckets: usize) -> usize {
    debug_assert!(pos < n, "position out of range");
    (pos as u128 * buckets as u128 / n as u128) as usize
}

/// One completed shuffle round: everything a late-joining user needs.
#[derive(Debug, Clone)]
pub struct CompletedRound {
    /// Public shuffle seed.
    pub seed: u64,
    /// Number of buckets the candidates were split into.
    pub buckets: usize,
    /// Which buckets survived pruning.
    pub surviving: Vec<bool>,
}

impl CompletedRound {
    /// Broadcast size of this round's metadata in bits (64-bit seed + one
    /// bit per bucket).
    pub fn broadcast_bits(&self) -> usize {
        64 + self.buckets
    }
}

/// Replays a shuffle history: from the initial candidates and the completed
/// rounds, reconstructs the current candidate set. Client and server run
/// this identical function (Fig. 4's "current shuffled result").
pub fn replay(initial: &[u32], rounds: &[CompletedRound]) -> Vec<u32> {
    let mut candidates = initial.to_vec();
    for round in rounds {
        let mut shuffled = candidates;
        SplitMix64::new(round.seed).shuffle(&mut shuffled);
        let n = shuffled.len();
        candidates = shuffled
            .into_iter()
            .enumerate()
            .filter(|&(pos, _)| round.surviving[bucket_of(pos, n, round.buckets)])
            .map(|(_, item)| item)
            .collect();
    }
    candidates
}

/// A live round: the shuffled view plus an item → bucket index.
#[derive(Debug, Clone)]
pub struct RoundView {
    seed: u64,
    buckets: usize,
    item_bucket: HashMap<u32, u32>,
}

impl RoundView {
    /// The bucket holding `item`, or `None` if the item was pruned in an
    /// earlier round (i.e. it is *invalid* now).
    #[inline]
    pub fn bucket_of_item(&self, item: u32) -> Option<u32> {
        self.item_bucket.get(&item).copied()
    }

    /// Number of buckets.
    #[inline]
    pub fn buckets(&self) -> usize {
        self.buckets
    }
}

/// Server-side shuffle state across rounds.
#[derive(Debug, Clone)]
pub struct ShuffleEngine {
    initial: Vec<u32>,
    rounds: Vec<CompletedRound>,
    candidates: Vec<u32>,
    /// Pending (seed, buckets) for the round currently in flight.
    pending: Option<(u64, usize)>,
}

impl ShuffleEngine {
    /// Creates the engine over an initial candidate set.
    pub fn new(initial: Vec<u32>) -> Self {
        ShuffleEngine {
            candidates: initial.clone(),
            initial,
            rounds: Vec::new(),
            pending: None,
        }
    }

    /// The total round count the paper prescribes:
    /// `IT = ⌈log₂(d/4k)⌉ + 1` (Algorithm 1 line 1), minimum 1.
    pub fn total_rounds(domain: usize, k: usize) -> usize {
        let target = 4 * k.max(1);
        if domain <= target {
            return 1;
        }
        let ratio = domain as f64 / target as f64;
        ratio.log2().ceil() as usize + 1
    }

    /// Current candidates.
    pub fn candidates(&self) -> &[u32] {
        &self.candidates
    }

    /// Completed round metadata (what the server has broadcast so far).
    pub fn rounds(&self) -> &[CompletedRound] {
        &self.rounds
    }

    /// Total broadcast (downlink) bits a user joining now must receive.
    pub fn broadcast_bits(&self) -> usize {
        self.rounds.iter().map(CompletedRound::broadcast_bits).sum()
    }

    /// Begins a pruning round: shuffles the candidates under `seed` into
    /// `buckets` buckets and returns the view used to route user items.
    pub fn begin_round(&mut self, seed: u64, buckets: usize) -> RoundView {
        let mut shuffled = self.candidates.clone();
        SplitMix64::new(seed).shuffle(&mut shuffled);
        let n = shuffled.len();
        let buckets = buckets.min(n.max(1));
        let item_bucket = shuffled
            .iter()
            .enumerate()
            .map(|(pos, &item)| (item, bucket_of(pos, n, buckets) as u32))
            .collect();
        self.pending = Some((seed, buckets));
        RoundView {
            seed,
            buckets,
            item_bucket,
        }
    }

    /// Completes the pending round: keeps the `keep` heaviest buckets
    /// (ties broken by bucket index) and prunes the candidate set.
    ///
    /// # Panics
    /// Panics if no round is pending or `scores` does not match the bucket
    /// count — engine-internal misuse, not data-dependent.
    pub fn complete_round(&mut self, view: &RoundView, scores: &[f64], keep: usize) {
        // mcim-lint: allow(panic-freedom, the documented # Panics contract for engine-internal misuse)
        let (seed, buckets) = self.pending.take().expect("no round in flight");
        assert_eq!(seed, view.seed, "view does not match pending round");
        assert_eq!(scores.len(), buckets, "one score per bucket required");
        let mut order: Vec<usize> = (0..buckets).collect();
        order.sort_unstable_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut surviving = vec![false; buckets];
        for &b in order.iter().take(keep) {
            surviving[b] = true;
        }
        self.rounds.push(CompletedRound {
            seed,
            buckets,
            surviving,
        });
        self.candidates = replay(&self.initial, &self.rounds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_assignment_is_balanced() {
        let n = 103;
        let buckets = 10;
        let mut sizes = vec![0usize; buckets];
        for pos in 0..n {
            sizes[bucket_of(pos, n, buckets)] += 1;
        }
        assert_eq!(sizes.iter().sum::<usize>(), n);
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "sizes {sizes:?}");
    }

    #[test]
    fn total_rounds_formula() {
        // d = 2048, k = 20: ceil(log2(2048/80)) + 1 = ceil(4.678)+1 = 6.
        assert_eq!(ShuffleEngine::total_rounds(2048, 20), 6);
        // Degenerate: domain already ≤ 4k.
        assert_eq!(ShuffleEngine::total_rounds(64, 20), 1);
        assert_eq!(ShuffleEngine::total_rounds(1, 1), 1);
    }

    #[test]
    fn replay_matches_server_state() {
        // The user-side reconstruction must equal the server's candidate
        // set after any number of rounds — this is the Fig. 4 protocol
        // invariant.
        let initial: Vec<u32> = (0..200).collect();
        let mut engine = ShuffleEngine::new(initial.clone());
        for round in 0..3 {
            let view = engine.begin_round(1234 + round, 16);
            // Score buckets by an arbitrary deterministic rule.
            let scores: Vec<f64> = (0..view.buckets())
                .map(|b| ((b * 7 + round as usize) % 13) as f64)
                .collect();
            engine.complete_round(&view, &scores, 8);
            let user_side = replay(&initial, engine.rounds());
            assert_eq!(user_side, engine.candidates(), "round {round}");
        }
        // Three halvings: 200 → ~100 → ~50 → ~25 (±bucket granularity,
        // since surviving buckets differ in size by at most one).
        let len = engine.candidates().len();
        assert!(
            (22..=28).contains(&len),
            "candidate count {len} after 3 halvings"
        );
    }

    #[test]
    fn round_view_routes_members_and_rejects_pruned() {
        let initial: Vec<u32> = (0..64).collect();
        let mut engine = ShuffleEngine::new(initial);
        let view = engine.begin_round(5, 8);
        // Every candidate has a bucket; buckets are in range.
        for item in 0..64u32 {
            let b = view.bucket_of_item(item).expect("live item");
            assert!(b < 8);
        }
        let scores = vec![1.0; 8];
        engine.complete_round(&view, &scores, 4);
        // Pruned items are now invalid in the next round's view.
        let view2 = engine.begin_round(6, 8);
        let live = engine.candidates().to_vec();
        for item in 0..64u32 {
            assert_eq!(view2.bucket_of_item(item).is_some(), live.contains(&item));
        }
        assert_eq!(live.len(), 32);
    }

    #[test]
    fn different_seeds_decouple_groupings() {
        // The core anti-false-positive property: two rounds with different
        // seeds should not group the same items together.
        let initial: Vec<u32> = (0..256).collect();
        let mut e1 = ShuffleEngine::new(initial.clone());
        let mut e2 = ShuffleEngine::new(initial);
        let v1 = e1.begin_round(100, 16);
        let v2 = e2.begin_round(200, 16);
        let same = (0..256u32)
            .filter(|&i| v1.bucket_of_item(i) == v2.bucket_of_item(i))
            .count();
        // Random agreement rate ≈ 1/16.
        assert!(same < 50, "groupings should differ, {same} agreed");
    }

    #[test]
    fn broadcast_accounting() {
        let mut engine = ShuffleEngine::new((0..128).collect());
        let view = engine.begin_round(1, 32);
        engine.complete_round(&view, &vec![0.0; 32], 16);
        assert_eq!(engine.broadcast_bits(), 64 + 32);
    }

    #[test]
    fn buckets_capped_at_candidate_count() {
        let mut engine = ShuffleEngine::new((0..4).collect());
        let view = engine.begin_round(9, 100);
        assert_eq!(
            view.buckets(),
            4,
            "cannot have more buckets than candidates"
        );
    }
}
