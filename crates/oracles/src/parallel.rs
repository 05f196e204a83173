//! Sharded, deterministic data-parallel execution.
//!
//! The server-side pipelines are embarrassingly parallel over user reports,
//! but naïve multi-threading would make estimates depend on the thread
//! count (RNG streams and merge order would shift). This module pins both
//! down:
//!
//! * work is split into **fixed-size shards** ([`SHARD_SIZE`] items) that
//!   depend only on the input, never on the worker count;
//! * every shard derives its own RNG stream from `(base_seed, shard
//!   index)` via the protocol-stable [`splitmix64`] mixer ([`shard_rng`]).
//!
//! Every fold (`crate::stream::fold_stream`, and through it every
//! [`crate::exec::Executor`]) is built on these two pieces.
//! [`try_fill_shards`] is the one output-per-input map on them — the GRR
//! label routing of the top-k pipelines — whose outputs stay in input
//! order, so `threads = N` is bit-identical to `threads = 1`.
//!
//! ## Scheduling
//!
//! Workers own **contiguous shard ranges** (static partitioning) and write
//! into **preallocated disjoint output slices**. An earlier version used
//! an atomic work-stealing cursor with one `Mutex<Option<T>>` slot per
//! shard; the per-shard output `Vec` allocations and slot locking
//! serialized workers on the allocator and made the sharded path *slower*
//! than the sequential one. Shards are uniform-cost, so static ranges lose
//! nothing to stealing and need no synchronization beyond the scoped join.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::hash::splitmix64;

/// Items per shard. Fixed so that shard boundaries — and therefore every
/// per-shard RNG stream — are independent of the worker count.
pub const SHARD_SIZE: usize = 4096;

/// Domain-separation salt for shard seed derivation.
const SHARD_SALT: u64 = 0x5AAD_C0DE_0B5E_55ED;

/// Number of worker threads to use when the caller does not specify:
/// the `MCIM_THREADS` environment variable if set (values `< 1` clamp to
/// 1), otherwise [`std::thread::available_parallelism`].
pub fn configured_threads() -> usize {
    if let Ok(v) = std::env::var("MCIM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// The seed of shard `shard`'s RNG stream under `base_seed`.
///
/// Mixed through [`splitmix64`] twice with a salt so that consecutive base
/// seeds and consecutive shard indices both land on decorrelated streams.
///
/// This derivation is part of the workspace RNG contract
/// ([`crate::exec::RNG_CONTRACT`]) and is identical under every version so
/// far: the v2, v3 and v4 bumps changed *what* each shard's RNG is asked
/// to sample, never *which* RNG a shard gets.
#[inline]
pub fn shard_seed(base_seed: u64, shard: u64) -> u64 {
    splitmix64(base_seed.wrapping_add(splitmix64(shard ^ SHARD_SALT)))
}

/// The deterministic RNG for shard `shard` under `base_seed`.
#[inline]
pub fn shard_rng(base_seed: u64, shard: u64) -> StdRng {
    StdRng::seed_from_u64(shard_seed(base_seed, shard))
}

/// Contiguous task ranges assigning `n` tasks to at most `workers` workers
/// as evenly as possible (the first `n % workers` ranges get one extra).
pub(crate) fn ranges(n: usize, workers: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let workers = workers.max(1).min(n.max(1));
    let base = n / workers;
    let extra = n % workers;
    let mut start = 0usize;
    (0..workers).map(move |w| {
        let len = base + usize::from(w < extra);
        let r = start..start + len;
        start += len;
        r
    })
}

/// One-output-per-input sharded execution into a preallocated buffer.
///
/// The output starts as `items.len()` copies of `T::default()`, and `f`
/// receives `(shard_index, shard_items, shard_output)` where
/// `shard_output` is the shard's disjoint slice of it (same length as
/// `shard_items`); `f` overwrites each slot in place. The buffer is the
/// returned `Vec` itself, so a call holds one `T` per item and nothing
/// more. Workers own contiguous shard ranges; there is no per-shard `Vec`,
/// no result flattening and no locking (see "Scheduling" above). Fails
/// with the first error in shard order; the output is discarded on error.
pub fn try_fill_shards<I, T, E, F>(
    items: &[I],
    threads: usize,
    f: F,
) -> std::result::Result<Vec<T>, E>
where
    I: Sync,
    T: Default + Clone + Send,
    E: Send,
    F: Fn(u64, &[I], &mut [T]) -> std::result::Result<(), E> + Sync,
{
    let mut out = vec![T::default(); items.len()];
    let n_shards = items.len().div_ceil(SHARD_SIZE);
    let workers = threads.max(1).min(n_shards.max(1));
    if workers <= 1 {
        for (i, (chunk, slots)) in items
            .chunks(SHARD_SIZE)
            .zip(out.chunks_mut(SHARD_SIZE))
            .enumerate()
        {
            f(i as u64, chunk, slots)?;
        }
    } else {
        let worker_results = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            let mut rest: &mut [T] = &mut out;
            for range in ranges(n_shards, workers) {
                let item_start = range.start * SHARD_SIZE;
                let item_end = (range.end * SHARD_SIZE).min(items.len());
                let (mine, tail) = rest.split_at_mut(item_end - item_start);
                rest = tail;
                let f = &f;
                let worker_items = &items[item_start..item_end];
                handles.push(scope.spawn(move || -> std::result::Result<(), E> {
                    for ((chunk, slots), shard) in worker_items
                        .chunks(SHARD_SIZE)
                        .zip(mine.chunks_mut(SHARD_SIZE))
                        .zip(range)
                    {
                        f(shard as u64, chunk, slots)?;
                    }
                    Ok(())
                }));
            }
            handles
                .into_iter()
                // mcim-lint: allow(panic-freedom, join only fails if a worker panicked; re-raising that panic is the scoped-thread idiom)
                .map(|h| h.join().expect("shard worker panicked"))
                .collect::<Vec<_>>()
        });
        for r in worker_results {
            r?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    /// Per-shard RNG draws through [`try_fill_shards`], one output per item.
    fn draws(items: &[u32], threads: usize) -> Vec<(u64, u64)> {
        try_fill_shards(items, threads, |shard, chunk, slots| {
            let mut rng = shard_rng(99, shard);
            for (&x, slot) in chunk.iter().zip(slots.iter_mut()) {
                *slot = (shard, x as u64 ^ rng.next_u64());
            }
            Ok::<(), ()>(())
        })
        .unwrap()
    }

    #[test]
    fn shard_results_are_thread_count_invariant() {
        let items: Vec<u32> = (0..3 * SHARD_SIZE as u32 + 17).collect();
        let seq = draws(&items, 1);
        assert_eq!(
            seq.last().unwrap().0,
            3,
            "fixed shard size decides the shard count"
        );
        for threads in [2, 3, 8] {
            assert_eq!(draws(&items, threads), seq, "threads={threads}");
        }
    }

    #[test]
    fn shards_cover_items_in_order() {
        let items: Vec<u32> = (0..SHARD_SIZE as u32 + 5).collect();
        let shards: Vec<u64> = draws(&items, 4).into_iter().map(|(s, _)| s).collect();
        let expected: Vec<u64> = (0..items.len()).map(|i| (i / SHARD_SIZE) as u64).collect();
        assert_eq!(shards, expected);
    }

    #[test]
    fn empty_input_yields_no_shards() {
        assert!(draws(&[], 8).is_empty());
    }

    #[test]
    fn ranges_partition_exactly() {
        for n in [0usize, 1, 2, 5, 7, 16, 100] {
            for workers in [1usize, 2, 3, 8, 200] {
                let rs: Vec<_> = ranges(n, workers).collect();
                let mut next = 0usize;
                for r in &rs {
                    assert_eq!(r.start, next, "n={n} workers={workers}");
                    next = r.end;
                }
                assert_eq!(next, n, "n={n} workers={workers}");
                let (min, max) = rs.iter().fold((usize::MAX, 0), |(lo, hi), r| {
                    (lo.min(r.len()), hi.max(r.len()))
                });
                assert!(
                    n == 0 || max - min <= 1,
                    "uneven split: n={n} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn try_fill_shards_fills_every_slot_in_order() {
        let items: Vec<u32> = (0..2 * SHARD_SIZE as u32 + 100).collect();
        for threads in [1, 2, 8] {
            let out: Vec<u64> = try_fill_shards(&items, threads, |shard, chunk, slots| {
                for (&v, slot) in chunk.iter().zip(slots.iter_mut()) {
                    *slot = v as u64 + shard * 1_000_000;
                }
                Ok::<(), ()>(())
            })
            .unwrap();
            assert_eq!(out.len(), items.len());
            assert_eq!(out[0], 0);
            assert_eq!(out[SHARD_SIZE], SHARD_SIZE as u64 + 1_000_000);
            assert_eq!(
                out[2 * SHARD_SIZE + 99],
                (2 * SHARD_SIZE + 99) as u64 + 2_000_000
            );
        }
    }

    #[test]
    fn try_fill_shards_surfaces_first_shard_error() {
        let items: Vec<u32> = (0..3 * SHARD_SIZE as u32).collect();
        for threads in [1, 4] {
            let err = try_fill_shards(&items, threads, |shard, _chunk, slots| {
                if shard >= 1 {
                    return Err(shard);
                }
                for slot in slots.iter_mut() {
                    *slot = 1u8;
                }
                Ok(())
            })
            .unwrap_err();
            assert_eq!(err, 1, "threads={threads}");
        }
    }

    #[test]
    fn shard_seeds_are_decorrelated() {
        // Adjacent shards and adjacent base seeds must not collide.
        let mut seen = std::collections::HashSet::new();
        for base in 0..8u64 {
            for shard in 0..64u64 {
                assert!(seen.insert(shard_seed(base, shard)), "collision");
            }
        }
        // And the streams actually differ.
        let a = shard_rng(1, 0).next_u64();
        let b = shard_rng(1, 1).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }
}
