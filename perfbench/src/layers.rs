//! Per-layer figures: the traced runs' spans broken down by layer, and
//! replays of the public calls below the fold on the workload's own input.

use std::hint::black_box;
use std::time::Instant;

use mcim_core::frameworks::stages::{CpArm, FwArm, PtsArm};
use mcim_core::{Domains, Framework, LabelItem};
use mcim_dist::proto::{read_frame, write_chunk_frame, Frame};
use mcim_oracles::parallel::{shard_rng, SHARD_SIZE};
use mcim_oracles::wire::{Wire, WireReader};
use mcim_oracles::{Error, Grr, Result, UnaryEncoding};
use rand::RngCore;

use crate::trace::{
    self_times, SpanRecord, FILL, FOLD, FRAMEWORK_PIPELINE, STAGE_FOLD, STAGE_MERGE, TOPK_PIPELINE,
};
use crate::workloads::{Prepared, Task};

/// Shards of the workload's input the replays run through.
pub const REPLAY_SHARDS: usize = 16;

/// One traced run's wall time split by layer (milliseconds, self time).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunLayers {
    /// The pipeline's root span.
    pub pipeline_ms: f64,
    /// Root span minus everything below it: the framework's estimate, or
    /// top-k's local label routing and candidate bookkeeping.
    pub pipeline_self_ms: f64,
    /// `ReportSource::fill` on the pipeline's input.
    pub fill_ms: f64,
    /// `Executor::fold` minus its stage calls and fills: dispatch, or on
    /// a coordinator the wait for workers.
    pub fold_self_ms: f64,
    /// `Stage::fold` and `Stage::merge` calls made in this process.
    pub stage_ms: f64,
    /// Count of `Executor::fold` calls.
    pub folds: u64,
    /// Count of `Stage::fold` calls (shard fragments) in this process.
    pub fragments: u64,
}

/// Splits one run's spans by layer.
pub fn run_layers(spans: &[SpanRecord]) -> RunLayers {
    let own = self_times(spans);
    let mut out = RunLayers::default();
    for (span, &self_ns) in spans.iter().zip(&own) {
        let ms = self_ns as f64 / 1e6;
        match span.name {
            FRAMEWORK_PIPELINE | TOPK_PIPELINE => {
                out.pipeline_ms += span.duration_ns() as f64 / 1e6;
                out.pipeline_self_ms += ms;
            }
            FILL => out.fill_ms += ms,
            FOLD => {
                out.fold_self_ms += ms;
                out.folds += 1;
            }
            STAGE_FOLD => {
                out.stage_ms += ms;
                out.fragments += 1;
            }
            STAGE_MERGE => out.stage_ms += ms,
            _ => {}
        }
    }
    out
}

/// Per-user (or per-word) costs of the calls below the fold on the
/// workload's input, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Replays {
    /// `FwArm::privatize`, one user.
    pub privatize_ns: f64,
    /// `FwArm::absorb`, per user of a shard block.
    pub absorb_ns: f64,
    /// `UnaryEncoding::privatize_into` at the workload's `(d, ε₂)`.
    pub ue_into_ns: f64,
    /// `UnaryEncoding::privatize` minus `privatize_into`: the report
    /// allocation.
    pub ue_alloc_ns: f64,
    /// `Grr::perturb` at `(c, ε₁)`.
    pub grr_ns: f64,
    /// `shard_rng(..).next_u64()`.
    pub rng_ns_per_word: f64,
    /// `Wire::put` of the pairs plus `write_chunk_frame`, per user.
    pub encode_ns: f64,
    /// `read_frame` plus decoding the pairs, per user.
    pub decode_ns: f64,
}

fn elapsed_ns(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// `(privatize, absorb)` nanoseconds per user of one framework arm, each
/// shard privatized with its own `shard_rng(seed, s)` stream.
fn arm_replay<M: FwArm>(arm: &M, pairs: &[LabelItem], seed: u64) -> Result<(f64, f64)> {
    let mut agg = arm.new_agg();
    let mut block = Vec::with_capacity(SHARD_SIZE);
    let (mut privatize, mut absorb) = (0.0, 0.0);
    for (s, shard) in pairs.chunks(SHARD_SIZE).enumerate() {
        let mut rng = shard_rng(seed, s as u64);
        let abs = (s * SHARD_SIZE) as u64;
        block.clear();
        let start = Instant::now();
        for (i, &pair) in shard.iter().enumerate() {
            block.push(arm.privatize(&mut rng, abs + i as u64, pair)?);
        }
        privatize += elapsed_ns(start);
        let start = Instant::now();
        arm.absorb(&mut agg, &block)?;
        absorb += elapsed_ns(start);
    }
    black_box(&agg);
    let n = pairs.len() as f64;
    Ok((privatize / n, absorb / n))
}

/// `(privatize_into, privatize − privatize_into)` nanoseconds per report.
fn ue_replay(ue: &UnaryEncoding, pairs: &[LabelItem], seed: u64) -> Result<(f64, f64)> {
    let mut out = mcim_oracles::BitVec::zeros(ue.domain_size() as usize);
    let start = Instant::now();
    for (s, shard) in pairs.chunks(SHARD_SIZE).enumerate() {
        let mut rng = shard_rng(seed, s as u64);
        for p in shard {
            ue.privatize_into(p.item, &mut rng, &mut out)?;
            black_box(&out);
        }
    }
    let into = elapsed_ns(start);
    let start = Instant::now();
    for (s, shard) in pairs.chunks(SHARD_SIZE).enumerate() {
        let mut rng = shard_rng(seed, s as u64);
        for p in shard {
            black_box(ue.privatize(p.item, &mut rng)?);
        }
    }
    let owned = elapsed_ns(start);
    let n = pairs.len() as f64;
    Ok((into / n, (owned - into) / n))
}

fn grr_replay(grr: &Grr, pairs: &[LabelItem], seed: u64) -> Result<f64> {
    let start = Instant::now();
    for (s, shard) in pairs.chunks(SHARD_SIZE).enumerate() {
        let mut rng = shard_rng(seed, s as u64);
        for p in shard {
            black_box(grr.perturb(p.label, &mut rng)?);
        }
    }
    Ok(elapsed_ns(start) / pairs.len() as f64)
}

fn rng_replay(seed: u64) -> f64 {
    let start = Instant::now();
    let mut acc = 0u64;
    for s in 0..REPLAY_SHARDS as u64 {
        let mut rng = shard_rng(seed, s);
        for _ in 0..SHARD_SIZE {
            acc ^= rng.next_u64();
        }
    }
    black_box(acc);
    elapsed_ns(start) / (REPLAY_SHARDS * SHARD_SIZE) as f64
}

/// Encodes each shard the way the coordinator streams it (count prefix,
/// `Wire::put` per pair, one `Chunk` frame), then reads every frame back
/// and decodes the pairs as a worker does.
fn chunk_replay(pairs: &[LabelItem]) -> Result<(f64, f64)> {
    let mut frames = Vec::new();
    let mut encoded = Vec::new();
    let start = Instant::now();
    for (s, shard) in pairs.chunks(SHARD_SIZE).enumerate() {
        encoded.clear();
        (shard.len() as u32).put(&mut encoded);
        for p in shard {
            p.put(&mut encoded);
        }
        write_chunk_frame(&mut frames, (s * SHARD_SIZE) as u64, &encoded)?;
    }
    let encode = elapsed_ns(start);
    let mut reader = frames.as_slice();
    let mut decoded = 0usize;
    let start = Instant::now();
    while let Some(frame) = read_frame(&mut reader)? {
        let Frame::Chunk { items, .. } = frame else {
            return Err(Error::protocol("replaying chunks (expected Chunk frames)"));
        };
        decoded += black_box(Vec::<LabelItem>::take(&mut WireReader::new(&items))?).len();
    }
    let decode = elapsed_ns(start);
    if decoded != pairs.len() {
        return Err(Error::protocol(
            "replaying chunks (decoded a different pair count)",
        ));
    }
    let n = pairs.len() as f64;
    Ok((encode / n, decode / n))
}

/// One pass of [`REPLAY_SHARDS`] shards of the workload's input (`pairs`,
/// from [`Prepared::head`]) through the public calls below the fold, using
/// `shard_rng(seed, s)`. Every workload replays every call, at its own
/// `(c, d, ε₁, ε₂)`; PTS-CP replays its own arm, the others the PTS arm.
pub fn replay(prepared: &Prepared, pairs: &[LabelItem], seed: u64) -> Result<Replays> {
    let spec = prepared.spec;
    let (e1, e2) = spec.split_budget()?;
    let domains = Domains::new(spec.classes, spec.items)?;
    let (privatize_ns, absorb_ns) = match spec.task {
        Task::Freq(Framework::PtsCp { .. }) => {
            arm_replay(&CpArm::new(e1, e2, domains)?, pairs, seed)?
        }
        _ => arm_replay(&PtsArm::new(e1, e2, domains)?, pairs, seed)?,
    };
    let (ue_into_ns, ue_alloc_ns) =
        ue_replay(&UnaryEncoding::optimized(e2, spec.items)?, pairs, seed)?;
    let (encode_ns, decode_ns) = chunk_replay(pairs)?;
    Ok(Replays {
        privatize_ns,
        absorb_ns,
        ue_into_ns,
        ue_alloc_ns,
        grr_ns: grr_replay(&Grr::new(e1, spec.classes)?, pairs, seed)?,
        rng_ns_per_word: rng_replay(seed),
        encode_ns,
        decode_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            run_id: 0,
            span_id: id,
            parent_id: parent,
            name,
            thread: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn run_layers_split_wall_time_by_self_time() {
        let ms = 1_000_000;
        let spans = [
            span(1, 0, FRAMEWORK_PIPELINE, 0, 100 * ms),
            span(2, 1, FOLD, 5 * ms, 95 * ms),
            span(3, 2, FILL, 5 * ms, 10 * ms),
            span(4, 2, STAGE_FOLD, 10 * ms, 50 * ms),
            span(5, 2, STAGE_FOLD, 50 * ms, 90 * ms),
            span(6, 2, STAGE_MERGE, 90 * ms, 92 * ms),
        ];
        let layers = run_layers(&spans);
        assert_eq!(layers.pipeline_ms, 100.0);
        assert_eq!(layers.pipeline_self_ms, 10.0);
        assert_eq!(layers.fill_ms, 5.0);
        assert_eq!(layers.stage_ms, 82.0);
        assert_eq!(layers.fold_self_ms, 3.0);
        assert_eq!((layers.folds, layers.fragments), (1, 2));
        let sum = layers.pipeline_self_ms + layers.fill_ms + layers.stage_ms + layers.fold_self_ms;
        assert_eq!(
            sum, layers.pipeline_ms,
            "self times partition the root span"
        );
    }
}
