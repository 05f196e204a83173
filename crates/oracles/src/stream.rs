//! Bounded-memory streaming ingestion: the one fold every pipeline runs.
//!
//! Materializing a pipeline's input is what paper scale cannot afford:
//! 5–9M users × a kilobit per unary report costs hundreds of megabytes
//! before aggregation even starts. This module pulls items from a
//! **pull-based source** ([`ReportSource`]) through a chunked executor
//! ([`fold_stream`]) that holds only
//!
//! * one reusable input buffer of `chunk_items` items (by default one
//!   [`SHARD_SIZE`] shard for a one-thread plan, [`DEFAULT_CHUNK_ITEMS`]
//!   otherwise), and
//! * per worker, one accumulator clone plus what its stage keeps in
//!   flight — for the framework and top-k stages, one reused report and
//!   the aggregator's in-flight block, not a shard of reports,
//!
//! i.e. `O(chunk + threads × accumulator)` memory instead of `O(n)`.
//!
//! ## Independent of chunks and threads
//!
//! The executor assigns every pulled item its **absolute stream index**,
//! so shard boundaries land at the same places regardless of the chunk
//! size. Shard `s` is always processed with the deterministic RNG
//! [`shard_rng`]`(base_seed, s)`; when a chunk boundary splits a shard,
//! a [`ShardCursor`] carries the partially-advanced RNG to the next chunk
//! and the shard's remaining items continue the same stream.
//! Consequently `fold_stream` produces bit-identical results to a
//! sequential shard-by-shard scan for **every** chunk size and thread
//! count, provided the fold function is prefix-composable (processing a
//! shard in two fragments with a carried RNG equals processing it at once
//! — true for every privatize+absorb loop in this workspace) and the
//! merge is commutative and associative (true for counter sums).
//!
//! ## RNG contract v4: one sampler stream for every plan
//!
//! The workspace's seeded outputs are governed by a versioned **RNG
//! contract** ([`crate::exec::RNG_CONTRACT`]); this section is the v4
//! specification.
//!
//! 1. **Shard streams.** Item `i` belongs to absolute shard
//!    `i / `[`SHARD_SIZE`]; shard `s` is processed with
//!    [`shard_rng`]`(stage_seed, s)` (splitmix64 over a salted shard
//!    index, seeding a `StdRng`). Fragments of a split shard continue the
//!    carried RNG state in order, including on distributed workers and
//!    their recovery replays. [`ShardCursor`] is this rule's one
//!    implementation; every fold picks its fragments' RNGs through it.
//! 2. **One plane sampler, everywhere.** Unary-encoding noise planes are
//!    drawn through the `PlaneSampler` each `UnaryEncoding` plans when it
//!    is built: geometric skipping below `UnaryEncoding::WORDWISE_MIN_Q`
//!    = 1/64, and otherwise (`q ≥ 1/64`) the word-parallel draw order of
//!    [`crate::BitVec::fill_bernoulli_wordwise`]. The branch depends only
//!    on mechanism parameters, never on the execution plan, so
//!    `privatize`, `privatize_into` and `perturb_bits` consume the RNG
//!    stream identically wherever they run. A single Bernoulli(`p`) bit
//!    (UE's hot bit, GRR's keep decision) is one word `x = next_u64()`,
//!    set iff `x >> 11 < ⌈p·2⁵³⌉`, exactly `random_bool(p)`'s decision.
//! 3. **The word-parallel draw order.** For each 64-bit output word, in
//!    word order: exactly [`crate::WORDWISE_STEPS`]` = 8` draws,
//!    draw `j` supplying bit `j` (MSB first) of every lane's uniform `U`;
//!    then, for each lane still tied with `q`'s expansion, in increasing
//!    lane order, one draw holding `U`'s next 64 bits, repeated only on a
//!    tie while `q`'s expansion continues. A lane is set iff `U < q`.
//!    Lanes tied after the 8 draws when `q`'s expansion has already ended
//!    are clear and draw nothing. On average that is 8.25 draws per word.
//! 4. **Consequence.** In-process and distributed execution are one code
//!    path differing only in resource envelope, and their outputs are
//!    bit-identical for every `(threads, chunk, workers)` under one
//!    `stage_seed` — the committed determinism / `Exec`-equivalence /
//!    chaos nets pin exactly this.
//!
//! History: v1 privatized the sequential path through a per-report
//! geometric sampler while the sharded batch path went word-parallel —
//! two streams for one seed. v2 unified them on a bit-sliced sampler whose
//! loop ran until every lane was decided, costing a mispredicted branch
//! per word. v3 fixes the depth at 8 steps plus an exact per-lane
//! fix-up. v4 moves the geometric/word-parallel crossover from 1/16 to
//! the measured 1/64; only planes with `q` in `[1/64, 1/16)` — e.g.
//! PTS-CP's validity plane at ε = 6 — draw differently. Each bump changed
//! seeded estimates once, across all plans together; earlier contracts
//! are refused, not emulated.

use rand::rngs::StdRng;

use crate::exec::Exec;
use crate::parallel::{shard_rng, SHARD_SIZE};
use crate::{Error, Result};

/// Chunk size of a multi-threaded plan that sets none: 16 shards (65 536
/// items), enough whole shards per pull to keep every worker busy. A plan
/// that resolves to one thread pulls one [`SHARD_SIZE`] shard instead
/// (see [`Exec::chunk_size`]).
pub const DEFAULT_CHUNK_ITEMS: usize = 16 * SHARD_SIZE;

/// A pull-based supplier of stream items (raw values, label-item pairs, or
/// already privatized reports).
///
/// Implementations exist for in-memory slices ([`SliceSource`]), for
/// NDJSON / CSV files and synthetic generators (`mcim-datasets`), and are
/// trivial to add for sockets or queues: the executor only ever asks for
/// "up to `max` more items".
pub trait ReportSource {
    /// The item type this source yields.
    type Item;

    /// Appends up to `max` items to `buf`, returning how many were
    /// appended. Returning `0` signals exhaustion; the executor may call
    /// `fill` several times per chunk, so partial fills are fine.
    fn fill(&mut self, buf: &mut Vec<Self::Item>, max: usize) -> Result<usize>;

    /// Total number of items this source will yield, when known up front.
    /// Round-splitting consumers (PEM) require a sized source.
    fn size_hint(&self) -> Option<u64> {
        None
    }

    /// Un-consumes the `n` most recently yielded items, so subsequent
    /// [`fill`](ReportSource::fill) calls yield them again —
    /// **byte-for-byte identical** to the first pass.
    ///
    /// Returns `Ok(true)` when the source rewound, `Ok(false)` when it
    /// cannot (the default — one-shot sources like sockets or queues).
    /// The distributed reducer uses this capability to *replay* a dead
    /// worker's shard ranges: a rewound source re-yields the same items,
    /// and the shard contract pins every shard's RNG stream to its
    /// absolute index rather than its host, so the re-routed fold is
    /// bit-identical to the unfailed one.
    ///
    /// Implementations must either restore the stream position exactly
    /// `n` items back or report `Ok(false)`; rewinding to any *other*
    /// position would silently corrupt a replayed fold. `n` larger than
    /// the number of items already yielded is an error. Wrappers forward
    /// the call ([`Take`] adds the `n` items back to its own budget),
    /// which keeps the capability intact through the view types the
    /// round-based miners build mid-stream.
    fn rewind(&mut self, n: u64) -> Result<bool> {
        let _ = n;
        Ok(false)
    }
}

/// Every `&mut` to a source is itself a source — lets `execute`-style
/// entry points take `impl ReportSource` by value while callers keep
/// ownership (pass `&mut source`) when they need the source afterwards.
impl<S: ReportSource + ?Sized> ReportSource for &mut S {
    type Item = S::Item;

    fn fill(&mut self, buf: &mut Vec<Self::Item>, max: usize) -> Result<usize> {
        (**self).fill(buf, max)
    }

    fn size_hint(&self) -> Option<u64> {
        (**self).size_hint()
    }

    // Forwarded explicitly: the default body would report `Ok(false)` and
    // silently strip the rewind capability from any source passed by
    // reference, which is exactly how the executors receive them.
    fn rewind(&mut self, n: u64) -> Result<bool> {
        (**self).rewind(n)
    }
}

/// Drains `source` to exhaustion into a fresh `Vec` — the materialization
/// step of pipelines that must revisit their input (multi-round top-k
/// mining) or need its length before they start.
///
/// A source whose `size_hint` is exact drains into exactly that many
/// slots. The hint is advisory, so it never reserves far ahead of the
/// items: at most `4 ×` [`DEFAULT_CHUNK_ITEMS`] before the first fill, and
/// after that at most as many slots as items already arrived, each step
/// clamped to the hint. Past the hint the buffer grows as usual.
pub fn drain_source<S: ReportSource>(source: &mut S) -> Result<Vec<S::Item>> {
    let hint = source
        .size_hint()
        .and_then(|n| usize::try_from(n).ok())
        .unwrap_or(0);
    let mut items = Vec::with_capacity(hint.min(4 * DEFAULT_CHUNK_ITEMS));
    loop {
        if items.len() == items.capacity() && items.len() < hint {
            items.reserve_exact((hint - items.len()).min(items.len()));
        }
        // Fill no further than the reserved slots while any are free, so a
        // fill never makes the buffer double past the hint.
        let free = items.capacity() - items.len();
        let max = if free > 0 {
            free.min(DEFAULT_CHUNK_ITEMS)
        } else {
            DEFAULT_CHUNK_ITEMS
        };
        if source.fill(&mut items, max)? == 0 {
            break;
        }
    }
    Ok(items)
}

/// An in-memory slice as a stream source (items are cloned out).
#[derive(Debug)]
pub struct SliceSource<'a, T> {
    items: &'a [T],
    pos: usize,
}

impl<'a, T> SliceSource<'a, T> {
    /// Wraps a slice.
    pub fn new(items: &'a [T]) -> Self {
        SliceSource { items, pos: 0 }
    }
}

impl<T: Clone> ReportSource for SliceSource<'_, T> {
    type Item = T;

    fn fill(&mut self, buf: &mut Vec<T>, max: usize) -> Result<usize> {
        let take = max.min(self.items.len() - self.pos);
        buf.extend_from_slice(&self.items[self.pos..self.pos + take]);
        self.pos += take;
        Ok(take)
    }

    fn size_hint(&self) -> Option<u64> {
        Some((self.items.len() - self.pos) as u64)
    }

    fn rewind(&mut self, n: u64) -> Result<bool> {
        match usize::try_from(n).ok().filter(|&back| back <= self.pos) {
            Some(back) => {
                self.pos -= back;
                Ok(true)
            }
            None => Err(Error::Source {
                message: format!("rewind({n}) exceeds the {} items already yielded", self.pos),
            }),
        }
    }
}

/// A borrowed view of another source limited to `remaining` items — how
/// round-based miners carve per-round user groups out of one stream.
#[derive(Debug)]
pub struct Take<'s, S> {
    source: &'s mut S,
    remaining: u64,
    taken: u64,
}

impl<'s, S: ReportSource> Take<'s, S> {
    /// Limits `source` to at most `limit` further items.
    pub fn new(source: &'s mut S, limit: u64) -> Self {
        Take {
            source,
            remaining: limit,
            taken: 0,
        }
    }
}

impl<S: ReportSource> ReportSource for Take<'_, S> {
    type Item = S::Item;

    fn fill(&mut self, buf: &mut Vec<S::Item>, max: usize) -> Result<usize> {
        let max = max.min(usize::try_from(self.remaining).unwrap_or(usize::MAX));
        if max == 0 {
            return Ok(0);
        }
        let got = self.source.fill(buf, max)?;
        self.remaining -= got as u64;
        self.taken += got as u64;
        Ok(got)
    }

    fn size_hint(&self) -> Option<u64> {
        self.source.size_hint().map(|n| n.min(self.remaining))
    }

    // A relative rewind composes through mid-stream views: un-consuming
    // the underlying source restores exactly this view's items (they were
    // the most recent ones pulled), so the budget gets them back. An
    // absolute "rewind to start" could not be forwarded this way — it
    // would replay items that belong to earlier rounds' views.
    fn rewind(&mut self, n: u64) -> Result<bool> {
        if n > self.taken {
            return Err(Error::Source {
                message: format!(
                    "rewind({n}) exceeds the {} items this view yielded",
                    self.taken
                ),
            });
        }
        if !self.source.rewind(n)? {
            return Ok(false);
        }
        self.remaining += n;
        self.taken -= n;
        Ok(true)
    }
}

/// Clears `buf` and refills it from `source` until it holds `chunk_items`
/// items or the source is exhausted; returns how many it holds (`0` once
/// the source is drained). Every chunked fold pulls through this one loop.
pub fn fill_chunk<S: ReportSource>(
    source: &mut S,
    buf: &mut Vec<S::Item>,
    chunk_items: usize,
) -> Result<usize> {
    buf.clear();
    loop {
        let want = chunk_items - buf.len();
        if want == 0 || source.fill(buf, want)? == 0 {
            return Ok(buf.len());
        }
    }
}

/// An empty chunk buffer for `chunk_items`-item pulls. The up-front
/// reservation is capped at [`DEFAULT_CHUNK_ITEMS`] (a caller-supplied
/// chunk size is unvalidated); a larger chunk grows the buffer as items
/// actually arrive.
pub fn chunk_buffer<T>(chunk_items: usize) -> Vec<T> {
    Vec::with_capacity(chunk_items.min(DEFAULT_CHUNK_ITEMS))
}

/// Picks the RNG of every shard fragment of a fold: contract point 1's
/// one implementation, shared by the in-process executor, distributed
/// workers and the coordinator's local replays.
///
/// A fragment that starts on a shard boundary gets a fresh
/// [`shard_rng`]`(seed, s)`; a fragment that starts exactly where the
/// previous one stopped mid-shard continues its carried RNG. Any other
/// position is a protocol error: a mid-shard start with nothing carried,
/// or a start anywhere but the carried position.
#[derive(Debug, Default)]
pub struct ShardCursor {
    /// Where the open shard continues, and its RNG.
    carry: Option<(u64, StdRng)>,
}

impl ShardCursor {
    /// Cuts `items`, which start at absolute stream index `abs`, into
    /// shard fragments and calls `f(rng, abs, fragment)` once per
    /// fragment, in order.
    pub fn fold<T, F>(&mut self, seed: u64, mut abs: u64, mut items: &[T], mut f: F) -> Result<()>
    where
        F: FnMut(&mut StdRng, u64, &[T]) -> Result<()>,
    {
        let shard_size = SHARD_SIZE as u64;
        while !items.is_empty() {
            let shard = abs / shard_size;
            let shard_end = (shard + 1) * shard_size;
            let mut rng = match self.carry.take() {
                Some((at, rng)) if at == abs => rng,
                Some((at, _)) => {
                    return Err(Error::protocol(format!(
                        "folding shard {shard} (expected the open shard to continue at item \
                         {at}, got {abs})"
                    )))
                }
                None if abs % shard_size == 0 => shard_rng(seed, shard),
                None => {
                    return Err(Error::protocol(format!(
                        "folding shard {shard} (item {abs} is mid-shard but no RNG state is \
                         carried)"
                    )))
                }
            };
            let take = ((shard_end - abs) as usize).min(items.len());
            let (fragment, rest) = items.split_at(take);
            f(&mut rng, abs, fragment)?;
            abs += take as u64;
            items = rest;
            if abs < shard_end {
                self.carry = Some((abs, rng));
            }
        }
        Ok(())
    }
}

/// Drains `source` in chunks of `plan`'s resolved chunk size, folding
/// every item into an accumulator with shard-deterministic RNG streams.
///
/// `f(rng, abs_index, items, acc)` processes one shard *fragment*: a run
/// of consecutive items that all belong to the same absolute shard,
/// starting at stream position `abs_index`, with the RNG a
/// [`ShardCursor`] picks for it. Fragments of distinct shards run on up
/// to the plan's resolved thread count of workers, each folding into its
/// own accumulator from `template()`; partials are combined with `merge`.
///
/// Memory: one chunk-sized input buffer plus one accumulator per worker —
/// independent of the stream length. The fold's own accumulator is built
/// once and no pristine copy of it is kept. The plan's seed is unused:
/// `base_seed` is explicit because multi-stage pipelines derive one seed
/// per stage.
pub fn fold_stream<S, A, T, F, M>(
    source: &mut S,
    plan: &Exec,
    base_seed: u64,
    template: T,
    f: F,
    merge: M,
) -> Result<A>
where
    S: ReportSource,
    S::Item: Sync,
    A: Send,
    T: Fn() -> A + Sync,
    F: Fn(&mut StdRng, u64, &[S::Item], &mut A) -> Result<()> + Sync,
    M: Fn(&mut A, &A) -> Result<()>,
{
    let chunk_items = plan.resolved_chunk_items();
    let threads = plan.resolved_threads();
    let mut acc = template();
    let mut buf = chunk_buffer(chunk_items);
    let mut abs: u64 = 0;
    // Carries the RNG of a shard split across chunk boundaries.
    let mut cursor = ShardCursor::default();
    // Telemetry: locals accumulate for free and flush once at the end,
    // so the instrumented loop costs nothing beyond three integer adds.
    let obs_span = mcim_obs::span("mcim_fold_duration_seconds");
    let (mut obs_chunks, mut obs_reports, mut obs_fragments) = (0u64, 0u64, 0u64);

    while fill_chunk(source, &mut buf, chunk_items)? > 0 {
        obs_chunks += 1;
        obs_reports += buf.len() as u64;

        // Head: the rest of the shard the previous chunk left open. Body:
        // whole shards. Tail: the start of a shard the next chunk ends.
        let head = (SHARD_SIZE - (abs % SHARD_SIZE as u64) as usize) % SHARD_SIZE;
        let head = head.min(buf.len());
        let shards = (buf.len() - head) / SHARD_SIZE;
        if threads <= 1 || shards <= 1 {
            cursor.fold(base_seed, abs, &buf, |rng, at, items| {
                obs_fragments += 1;
                f(rng, at, items, &mut acc)
            })?;
        } else {
            let (head_items, rest) = buf.split_at(head);
            let (body, tail) = rest.split_at(shards * SHARD_SIZE);
            cursor.fold(base_seed, abs, head_items, |rng, at, items| {
                obs_fragments += 1;
                f(rng, at, items, &mut acc)
            })?;
            obs_fragments += shards as u64;
            let body_abs = abs + head as u64;
            let partials = std::thread::scope(|scope| {
                let handles: Vec<_> = crate::parallel::ranges(shards, threads)
                    .map(|range| {
                        let (f, template) = (&f, &template);
                        let items = &body[range.start * SHARD_SIZE..range.end * SHARD_SIZE];
                        let at = body_abs + (range.start * SHARD_SIZE) as u64;
                        scope.spawn(move || -> Result<A> {
                            let mut local = template();
                            ShardCursor::default().fold(
                                base_seed,
                                at,
                                items,
                                |rng, at, items| f(rng, at, items, &mut local),
                            )?;
                            Ok(local)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    // mcim-lint: allow(panic-freedom, join only fails if a worker panicked; re-raising that panic is the scoped-thread idiom)
                    .map(|h| h.join().expect("stream worker panicked"))
                    .collect::<Vec<_>>()
            });
            for partial in partials {
                merge(&mut acc, &partial?)?;
            }
            let tail_abs = body_abs + body.len() as u64;
            cursor.fold(base_seed, tail_abs, tail, |rng, at, items| {
                obs_fragments += 1;
                f(rng, at, items, &mut acc)
            })?;
        }
        abs += buf.len() as u64;
    }
    if mcim_obs::enabled() {
        mcim_obs::counter_add("mcim_folds_total", 1);
        mcim_obs::counter_add("mcim_fold_chunks_total", obs_chunks);
        mcim_obs::counter_add("mcim_fold_reports_total", obs_reports);
        mcim_obs::counter_add("mcim_fold_shard_fragments_total", obs_fragments);
    }
    obs_span.finish();
    Ok(acc)
}

/// The size a sized source must declare; errors otherwise. Used by
/// round-splitting consumers (PEM) that need the total count up front.
pub fn required_len<S: ReportSource>(source: &S) -> Result<u64> {
    source.size_hint().ok_or(Error::InvalidParameter {
        name: "source",
        constraint: "round-splitting streams require a sized source (size_hint)",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    /// A source that drips items in fixed dribbles to exercise partial
    /// fills (the executor must keep pulling until its chunk is full).
    struct Dribble {
        next: u32,
        n: u32,
        per_call: usize,
    }

    impl ReportSource for Dribble {
        type Item = u32;
        fn fill(&mut self, buf: &mut Vec<u32>, max: usize) -> Result<usize> {
            let take = max.min(self.per_call).min((self.n - self.next) as usize);
            for _ in 0..take {
                buf.push(self.next);
                self.next += 1;
            }
            Ok(take)
        }
        fn size_hint(&self) -> Option<u64> {
            Some((self.n - self.next) as u64)
        }
    }

    /// Reference: a sequential shard-by-shard scan the stream must
    /// reproduce bit-for-bit.
    fn batch_reference(items: &[u32], base_seed: u64) -> (u64, u64) {
        let mut sum = 0u64;
        let mut rng_mix = 0u64;
        for (s, chunk) in items.chunks(SHARD_SIZE).enumerate() {
            let mut rng = shard_rng(base_seed, s as u64);
            for &v in chunk {
                sum += v as u64;
                rng_mix = rng_mix.wrapping_add(rng.next_u64() ^ v as u64);
            }
        }
        (sum, rng_mix)
    }

    fn stream_fold(items: &[u32], chunk: usize, threads: usize, base_seed: u64) -> (u64, u64) {
        let mut source = SliceSource::new(items);
        fold_stream(
            &mut source,
            &Exec::new().threads(threads).chunk_size(chunk),
            base_seed,
            || (0u64, 0u64),
            |rng, _abs, items, acc| {
                for &v in items {
                    acc.0 += v as u64;
                    acc.1 = acc.1.wrapping_add(rng.next_u64() ^ v as u64);
                }
                Ok(())
            },
            |a, b| {
                a.0 += b.0;
                a.1 = a.1.wrapping_add(b.1);
                Ok(())
            },
        )
        .unwrap()
    }

    #[test]
    fn chunk_boundaries_never_change_the_result() {
        let n = 2 * SHARD_SIZE + 777;
        let items: Vec<u32> = (0..n as u32).collect();
        let expected = batch_reference(&items, 42);
        for chunk in [1, SHARD_SIZE - 1, SHARD_SIZE, SHARD_SIZE + 1, n] {
            for threads in [1, 4] {
                assert_eq!(
                    stream_fold(&items, chunk, threads, 42),
                    expected,
                    "chunk={chunk} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn partial_fills_are_replenished() {
        let n = SHARD_SIZE as u32 + 300;
        let items: Vec<u32> = (0..n).collect();
        let expected = batch_reference(&items, 7);
        let mut source = Dribble {
            next: 0,
            n,
            per_call: 17,
        };
        let got = fold_stream(
            &mut source,
            &Exec::new().threads(2).chunk_size(1000),
            7,
            || (0u64, 0u64),
            |rng, _abs, items, acc| {
                for &v in items {
                    acc.0 += v as u64;
                    acc.1 = acc.1.wrapping_add(rng.next_u64() ^ v as u64);
                }
                Ok(())
            },
            |a, b| {
                a.0 += b.0;
                a.1 = a.1.wrapping_add(b.1);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn abs_indices_cover_the_stream_exactly_once() {
        let n = 3 * SHARD_SIZE + 5;
        let items: Vec<u32> = (0..n as u32).collect();
        for chunk in [SHARD_SIZE - 3, 2 * SHARD_SIZE + 1] {
            let mut source = SliceSource::new(&items);
            let spans = fold_stream(
                &mut source,
                &Exec::new().threads(1).chunk_size(chunk),
                0,
                Vec::<(u64, u64)>::new,
                |_rng, abs, items, acc| {
                    acc.push((abs, abs + items.len() as u64));
                    Ok(())
                },
                |a, b| {
                    a.extend_from_slice(b);
                    Ok(())
                },
            )
            .unwrap();
            let mut sorted = spans.clone();
            sorted.sort_unstable();
            let mut next = 0u64;
            for (start, end) in sorted {
                assert_eq!(start, next, "chunk={chunk}");
                assert!(end > start);
                // No fragment may straddle a shard boundary.
                assert!(
                    start / SHARD_SIZE as u64 == (end - 1) / SHARD_SIZE as u64,
                    "fragment {start}..{end} crosses a shard boundary"
                );
                next = end;
            }
            assert_eq!(next, n as u64);
        }
    }

    #[test]
    fn shard_cursor_refuses_a_mid_shard_start_with_nothing_carried() {
        let err = ShardCursor::default()
            .fold(1, 100, &[0u32; 10], |_, _, _| Ok(()))
            .unwrap_err();
        assert!(matches!(err, Error::Transport { .. }), "{err}");
    }

    #[test]
    fn shard_cursor_refuses_a_continuation_at_the_wrong_index() {
        let items = [0u32; 100];
        // A gap inside the open shard, and a new shard while it is open.
        for next in [200, SHARD_SIZE as u64] {
            let mut cursor = ShardCursor::default();
            cursor.fold(1, 0, &items, |_, _, _| Ok(())).unwrap();
            let err = cursor
                .fold(1, next, &items[..10], |_, _, _| Ok(()))
                .unwrap_err();
            assert!(matches!(err, Error::Transport { .. }), "next={next}: {err}");
        }
        // The carried position itself continues.
        let mut cursor = ShardCursor::default();
        cursor.fold(1, 0, &items, |_, _, _| Ok(())).unwrap();
        cursor.fold(1, 100, &items, |_, _, _| Ok(())).unwrap();
    }

    #[test]
    fn take_limits_and_resumes() {
        let items: Vec<u32> = (0..100).collect();
        let mut source = SliceSource::new(&items);
        let mut buf = Vec::new();
        {
            let mut take = Take::new(&mut source, 30);
            assert_eq!(take.size_hint(), Some(30));
            while take.fill(&mut buf, 7).unwrap() > 0 {}
        }
        assert_eq!(buf.len(), 30);
        assert_eq!(buf.last(), Some(&29));
        // The underlying source resumes where the take stopped.
        buf.clear();
        source.fill(&mut buf, 5).unwrap();
        assert_eq!(buf, vec![30, 31, 32, 33, 34]);
    }

    #[test]
    fn empty_source_yields_template() {
        let items: Vec<u32> = Vec::new();
        let mut source = SliceSource::new(&items);
        let out = fold_stream(
            &mut source,
            &Exec::new().threads(4),
            1,
            || 123u64,
            |_, _, _, _| Ok(()),
            |_, _| Ok(()),
        )
        .unwrap();
        assert_eq!(out, 123);
    }

    #[test]
    fn drain_source_and_mut_blanket_impl() {
        let items: Vec<u32> = (0..100).collect();
        let mut source = SliceSource::new(&items);
        // A &mut source is a source; draining through it consumes the
        // underlying one.
        let first: Vec<u32> = {
            let mut view = Take::new(&mut source, 40);
            drain_source(&mut &mut view).unwrap()
        };
        assert_eq!(first, (0..40).collect::<Vec<u32>>());
        assert_eq!(drain_source(&mut source).unwrap().len(), 60);
        assert_eq!(drain_source(&mut source).unwrap(), Vec::<u32>::new());
    }

    /// An exact hint drains into exactly `hint` slots, also past the
    /// up-front cap; a hint far above the items reserves no more than the
    /// cap before they arrive.
    #[test]
    fn drain_source_fills_an_exact_hint_exactly() {
        let cap = 4 * DEFAULT_CHUNK_ITEMS;
        for n in [0, 1, SHARD_SIZE + 3, cap, cap + 1, 400_000] {
            let items = vec![7u32; n];
            let drained = drain_source(&mut SliceSource::new(&items)).unwrap();
            assert_eq!((drained.len(), drained.capacity()), (n, n), "n={n}");
        }

        struct Boastful(Dribble);
        impl ReportSource for Boastful {
            type Item = u32;
            fn fill(&mut self, buf: &mut Vec<u32>, max: usize) -> Result<usize> {
                self.0.fill(buf, max)
            }
            fn size_hint(&self) -> Option<u64> {
                Some(u64::MAX / 2)
            }
        }
        let mut boastful = Boastful(Dribble {
            next: 0,
            n: 10,
            per_call: 3,
        });
        let drained = drain_source(&mut boastful).unwrap();
        assert_eq!(drained, (0..10).collect::<Vec<u32>>());
        assert!(drained.capacity() <= cap, "{}", drained.capacity());
    }

    #[test]
    fn required_len_errors_on_unsized_sources() {
        struct Unsized;
        impl ReportSource for Unsized {
            type Item = u32;
            fn fill(&mut self, _: &mut Vec<u32>, _: usize) -> Result<usize> {
                Ok(0)
            }
        }
        assert!(required_len(&Unsized).is_err());
        assert_eq!(required_len(&SliceSource::new(&[1u32, 2])).unwrap(), 2);
    }

    #[test]
    fn rewind_defaults_to_unsupported() {
        let mut dribble = Dribble {
            next: 0,
            n: 10,
            per_call: 10,
        };
        drain_source(&mut dribble).unwrap();
        assert!(!dribble.rewind(3).unwrap());
        // The blanket &mut impl forwards rather than re-defaulting.
        let mut source = SliceSource::new(&[1u32, 2, 3]);
        drain_source(&mut source).unwrap();
        let mut view: &mut SliceSource<'_, u32> = &mut source;
        assert!(ReportSource::rewind(&mut view, 2).unwrap());
        assert_eq!(drain_source(&mut source).unwrap(), vec![2, 3]);
    }

    #[test]
    fn slice_rewind_replays_identically() {
        let items: Vec<u32> = (0..300).collect();
        let mut source = SliceSource::new(&items);
        let mut buf = Vec::new();
        source.fill(&mut buf, 200).unwrap();
        assert!(source.rewind(150).unwrap());
        assert_eq!(source.size_hint(), Some(250));
        let mut again = Vec::new();
        source.fill(&mut again, 250).unwrap();
        assert_eq!(again, (50..300).collect::<Vec<u32>>());
        assert!(source.rewind(301).is_err());
    }

    #[test]
    fn take_rewind_restores_only_its_own_budget() {
        let items: Vec<u32> = (0..100).collect();
        let mut source = SliceSource::new(&items);
        // First round consumes 0..40 through its own view.
        drain_source(&mut Take::new(&mut source, 40)).unwrap();
        // Second round: consume 30, rewind 20, re-drain — the view must
        // hand back exactly its own items, never round one's.
        let mut view = Take::new(&mut source, 30);
        let mut buf = Vec::new();
        view.fill(&mut buf, 30).unwrap();
        assert!(view.rewind(20).unwrap());
        assert!(view.rewind(31).is_err(), "cannot rewind past this view");
        assert_eq!(
            drain_source(&mut view).unwrap(),
            (50..70).collect::<Vec<u32>>()
        );
        // The underlying source continues where round two's budget ended.
        assert_eq!(
            drain_source(&mut source).unwrap(),
            (70..100).collect::<Vec<u32>>()
        );
    }
}
