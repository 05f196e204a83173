//! Oracle privatize/aggregate throughput at the acceptance workload
//! `d = 1024`, `n = 100_000`, ε = 1.
//!
//! OUE privatization is timed one report at a time from one RNG stream
//! (`oue_privatize_seq`), and OUE aggregation through the word-parallel
//! bit-sliced column sums (`absorb_all`, `oue_aggregate_colsum_t1`) on one
//! thread; threaded absorption is the `exec_plan` slice's job. The VP and
//! PTS-CP aggregators are timed both ways: per-report `absorb` against
//! `absorb_all`.
//!
//! An `exec_plan` slice additionally races three `Exec` plans of one full
//! frequency pipeline at `d = 1024`, `n = 1M` (`MCIM_BENCH_EXEC_N`
//! overrides), so the dispatch layer's overhead is tracked in
//! `BENCH_oracle_throughput.json`: one thread, many threads over one
//! whole-source chunk, and many threads over default chunks. The last two
//! must stay within noise of each other, and on multi-core machines both
//! must keep their multiple over one thread (the JSON's `cores` field
//! records the machine's real parallelism — on one core the three plans
//! are expected to tie).
//!
//! A `pipeline` slice times the four frameworks' frequency pipelines
//! (client privatization + server aggregation + calibration) end to end
//! on one thread at `n = 20k`, `c = 4`, `d = 256`, ε = 2.
//!
//! A `dist_reduce` slice then races the same pipeline on the
//! multi-process distributed reducer with 1, 2 and 4 locally spawned
//! worker processes (loopback TCP, real `mcim-dist` Worker runtime):
//! `dist_reduce_w1` vs `exec_plan_stream_tn` prices the protocol tax,
//! `dist_reduce_w4_vs_w1` the multi-process scaling — all bit-identical
//! outputs by the executor contract.
//!
//! A `plane_sampler_crossover` sweep times the two exact Bernoulli plane
//! fillers the RNG contract chooses between — `fill_bernoulli_wordwise`
//! and the geometric `fill_bernoulli` — in ns per 64 output bits at
//! `q ≈ 2⁻⁴ … 2⁻⁹`, for a 65-bit plane (a PTS-CP report at `d = 64`) and a
//! 1024-bit one. `UnaryEncoding::WORDWISE_MIN_Q` is read off this sweep.
//!
//! A `pem_vp_round_fold` slice times one validity-perturbation PEM round
//! fold (`PemVpRoundStage`, ε₂ = 2, 4096-item fragments) in ns per user
//! at the 257-, 201- and 41-bit report widths the PTS+Global+VP top-k
//! miner runs — rounds the repo benchmark's layer replay never reaches.
//!
//! A `dist_chunk_codec` point prices the reducer's chunk codec alone, in
//! ns per user over 16 `Chunk` frames of 65 536 pairs: encode is the
//! coordinator's `Wire::put` per pair plus `write_chunk_frame`, decode the
//! worker's `read_frame` plus `Vec::<LabelItem>::take`. `dist_reduce_w1`
//! pays both once per user on top of the fold.
//!
//! Prints a table, saves `results/oracle_throughput.csv`, and emits the
//! machine-readable baseline `results/BENCH_oracle_throughput.json` that
//! the CI uploads so later PRs can track the perf trajectory.
//!
//! Run: `cargo bench -p mcim-bench --bench oracle_throughput`
//! (`MCIM_BENCH_N` shrinks the workload for smoke tests.)

// Timing tool: measuring wall-clock time is this target's whole job
// (mcim-lint classifies benches as Tool; clippy needs the explicit allow).
#![allow(clippy::disallowed_methods)]

use std::fmt::Write as _;
use std::time::Instant;

use mcim_bench::{count_from_env, results_dir, BenchEnv, Table};
use mcim_core::{
    CorrelatedPerturbation, Domains, Framework, LabelItem, ValidityInput, ValidityPerturbation,
    VpAggregator,
};
use mcim_dist::proto::{read_frame, write_chunk_frame};
use mcim_dist::Frame;
use mcim_oracles::exec::{Exec, Stage};
use mcim_oracles::stream::SliceSource;
use mcim_oracles::wire::{Wire, WireReader};
use mcim_oracles::{parallel, Aggregator, BitVec, Eps, Oracle, Report, UnaryEncoding};
use mcim_topk::PemVpRoundStage;
use rand::rngs::StdRng;

const D: u32 = 1024;
const EPS: f64 = 1.0;
/// Disabled/enabled run pairs behind `metrics_overhead_batch_tn`.
const OVERHEAD_PAIRS: usize = 10;

/// Plane lengths of the sampler crossover sweep.
const SWEEP_LENS: [usize; 2] = [65, 1024];
/// Exponents `k` of the swept probabilities `q = 2⁻ᵏ·(1 + 2⁻⁴⁰)`.
///
/// The `1 + 2⁻⁴⁰` factor gives every `q` a binary expansion longer than
/// the word-parallel sampler's fixed steps, as a mechanism's `q` (e.g.
/// OUE's `1/(e^ε + 1)`) has; an exact `2⁻ᵏ` with `k ≤ 8` would skip the
/// per-lane fix-up draws and flatter the word-parallel side.
const SWEEP_LOG2_Q: std::ops::RangeInclusive<i32> = 4..=9;
/// Output bits each sweep point fills per trial.
const SWEEP_BITS: usize = 1 << 24;
/// Trials per sweep point; a ~10 ms trial is short enough for the best of
/// many to dodge a shared machine's noise.
const SWEEP_TRIALS: usize = 15;

/// Users of the per-framework `pipeline` scenarios.
const PIPELINE_N: usize = 20_000;
/// Trials of the `pipeline` scenarios; each takes milliseconds.
const PIPELINE_TRIALS: usize = 10;

/// Report widths (candidates + the validity flag) of the PEM round folds.
const PEM_ROUND_BITS: [usize; 3] = [257, 201, 41];
/// Item domain of the PEM round folds (11-bit codes).
const PEM_DOMAIN: u32 = 2048;
/// Fragments of [`parallel::SHARD_SIZE`] users folded per PEM trial.
const PEM_FRAGMENTS: u64 = 64;

/// `Chunk` frames of the `dist_chunk_codec` point.
const CODEC_FRAMES: usize = 16;
/// Label-item pairs per `Chunk` frame: the default ingestion chunk.
const CODEC_PAIRS: usize = 65_536;

/// Best-of-[`SWEEP_TRIALS`] costs of encoding [`CODEC_FRAMES`] chunks of
/// [`CODEC_PAIRS`] pairs into `Chunk` frames and of decoding them back, in
/// ns per user each.
fn chunk_codec_ns_per_user() -> (f64, f64) {
    let pairs: Vec<LabelItem> = (0..(CODEC_FRAMES * CODEC_PAIRS) as u32)
        .map(|u| LabelItem::new(u % 8, u.wrapping_mul(2_654_435_761) % 64))
        .collect();
    let mut encoded = Vec::new();
    let mut wire = Vec::new();
    let (encode_ms, wire_len) = time(SWEEP_TRIALS, || {
        wire.clear();
        for (i, chunk) in pairs.chunks(CODEC_PAIRS).enumerate() {
            encoded.clear();
            (chunk.len() as u32).put(&mut encoded);
            for p in chunk {
                p.put(&mut encoded);
            }
            write_chunk_frame(&mut wire, (i * CODEC_PAIRS) as u64, &encoded).unwrap();
        }
        wire.len()
    });
    std::hint::black_box(wire_len);
    let (decode_ms, decoded) = time(SWEEP_TRIALS, || {
        let mut reader = wire.as_slice();
        let mut decoded = 0usize;
        while let Some(frame) = read_frame(&mut reader).unwrap() {
            let Frame::Chunk { items, .. } = frame else {
                unreachable!("only Chunk frames were written");
            };
            let mut r = WireReader::new(&items);
            decoded += std::hint::black_box(Vec::<LabelItem>::take(&mut r).unwrap()).len();
            r.finish().unwrap();
        }
        decoded
    });
    assert_eq!(decoded, pairs.len(), "every pair decodes");
    let per_user = 1e6 / pairs.len() as f64;
    (encode_ms * per_user, decode_ms * per_user)
}

/// Best-of-[`SWEEP_TRIALS`] cost of folding a validity PEM round whose
/// reports carry `bits` bits, in ns per user.
///
/// The `bits − 1` candidates are spread evenly over the prefixes of the
/// shortest length with at least twice as many values, so about half the
/// users hold a candidate; every tenth user is invalid outright.
fn pem_round_ns_per_user(bits: usize) -> f64 {
    let n_cands = bits as u32 - 1;
    let prefix_len = (2 * n_cands).next_power_of_two().trailing_zeros();
    let space = 1u32 << prefix_len;
    let candidates = (0..n_cands).map(|i| i * space / n_cands).collect();
    let stage =
        PemVpRoundStage::new(Eps::new(2.0).unwrap(), PEM_DOMAIN, prefix_len, candidates).unwrap();
    let fragment: Vec<Option<u32>> = (0..parallel::SHARD_SIZE as u32)
        .map(|u| (u % 10 != 0).then_some(u.wrapping_mul(2_654_435_761) % PEM_DOMAIN))
        .collect();
    let (ms, flagged) = time(SWEEP_TRIALS, || {
        let mut acc = stage.template();
        for shard in 0..PEM_FRAGMENTS {
            let mut rng = parallel::shard_rng(9, shard);
            stage.fold(&mut rng, 0, &fragment, &mut acc).unwrap();
        }
        acc.0.raw_flag_count()
    });
    std::hint::black_box(flagged);
    ms * 1e6 / (PEM_FRAGMENTS as f64 * parallel::SHARD_SIZE as f64)
}

/// One point of the crossover sweep, in ns per 64 output bits.
struct Crossover {
    len: usize,
    log2_q: i32,
    wordwise: f64,
    geometric: f64,
}

/// Best-of-[`SWEEP_TRIALS`] cost of `fill` on a `len`-bit plane, in ns per
/// 64 output bits.
fn ns_per_64_bits(len: usize, mut fill: impl FnMut(&mut BitVec, &mut StdRng)) -> f64 {
    let fills = SWEEP_BITS / len;
    let mut plane = BitVec::zeros(len);
    let mut rng = parallel::shard_rng(7, 0);
    let (ms, ()) = time(SWEEP_TRIALS, || {
        for _ in 0..fills {
            fill(&mut plane, &mut rng);
            std::hint::black_box(&plane);
        }
    });
    ms * 1e6 * 64.0 / (fills * len) as f64
}

struct Scenario {
    name: &'static str,
    /// Best-of-trials wall time in milliseconds.
    ms: f64,
    /// Reports per second implied by `ms`.
    reports_per_sec: f64,
}

/// Best-of-`trials` wall time of `f`, in milliseconds. `f` must return
/// something data-dependent so the work cannot be optimized away.
/// Privatizes every input from one RNG stream: the materialized reports
/// the aggregation scenarios absorb.
fn privatize_all<I: Copy, R>(
    inputs: &[I],
    privatize: impl Fn(I, &mut StdRng) -> mcim_oracles::Result<R>,
) -> Vec<R> {
    let mut rng = parallel::shard_rng(2, 0);
    inputs
        .iter()
        .map(|&x| privatize(x, &mut rng).unwrap())
        .collect()
}

fn time<T: std::fmt::Debug>(trials: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..trials.max(1) {
        let start = Instant::now();
        let out = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    (best, last.expect("at least one trial"))
}

/// Median of `xs` (mean of the middle two for an even count).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 0 {
        (xs[mid - 1] + xs[mid]) / 2.0
    } else {
        xs[mid]
    }
}

fn scenario(name: &'static str, n: usize, trials: usize, f: impl FnMut() -> u64) -> Scenario {
    let mut f = f;
    let (ms, checksum) = time(trials, &mut f);
    // Keep the checksum alive (and visible when scenarios disagree).
    std::hint::black_box(checksum);
    Scenario {
        name,
        ms,
        reports_per_sec: n as f64 / (ms / 1e3),
    }
}

fn main() {
    let or_exit = |settings: std::io::Result<usize>| {
        settings.unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1)
        })
    };
    let n = or_exit(count_from_env("MCIM_BENCH_N", 100_000));
    let exec_n = or_exit(count_from_env("MCIM_BENCH_EXEC_N", (10 * n).min(1_000_000)));
    let trials = or_exit(BenchEnv::from_env(3).map(|env| env.trials));
    let threads = parallel::configured_threads();
    let eps = Eps::new(EPS).unwrap();
    println!("== oracle_throughput | d={D} n={n} eps={EPS} threads={threads} trials={trials} ==");

    let mut scenarios: Vec<Scenario> = Vec::new();

    // ---------------------------------------------------------- OUE ----
    let oue = Oracle::oue(eps, D).unwrap();
    let values: Vec<u32> = (0..n as u32).map(|u| u % D).collect();
    scenarios.push(scenario("oue_privatize_seq", n, trials, || {
        // The seed path: one report at a time from a single RNG stream.
        let mut rng = parallel::shard_rng(1, 0);
        let mut acc = 0u64;
        for &v in &values {
            if let Report::Bits(b) = oue.privatize(v, &mut rng).unwrap() {
                acc = acc.wrapping_add(b.count_ones() as u64);
            }
        }
        acc
    }));

    let reports = privatize_all(&values, |v, rng| oue.privatize(v, rng));
    scenarios.push(scenario("oue_aggregate_colsum_t1", n, trials, || {
        let mut agg = Aggregator::new(&oue);
        agg.absorb_all(&reports).unwrap();
        agg.raw_counts().iter().sum()
    }));

    // ----------------------------------------------------------- VP ----
    let vp = ValidityPerturbation::new(eps, D).unwrap();
    let vp_inputs: Vec<ValidityInput> = (0..n as u32)
        .map(|u| {
            if u % 5 == 0 {
                ValidityInput::Invalid
            } else {
                ValidityInput::Valid(u % D)
            }
        })
        .collect();
    let vp_reports = privatize_all(&vp_inputs, |v, rng| vp.privatize(v, rng));
    scenarios.push(scenario("vp_aggregate_absorb", n, trials, || {
        let mut agg = VpAggregator::new(&vp);
        for r in &vp_reports {
            agg.absorb(r).unwrap();
        }
        agg.raw_counts().iter().sum()
    }));
    scenarios.push(scenario("vp_aggregate_colsum_t1", n, trials, || {
        let mut agg = VpAggregator::new(&vp);
        agg.absorb_all(&vp_reports).unwrap();
        agg.raw_counts().iter().sum()
    }));

    // ----------------------------------------------------------- CP ----
    let domains = Domains::new(8, D).unwrap();
    let cp = CorrelatedPerturbation::with_total(Eps::new(2.0).unwrap(), domains).unwrap();
    let cp_pairs: Vec<LabelItem> = (0..n as u32)
        .map(|u| LabelItem::new(u % 8, (u * 13) % D))
        .collect();
    let cp_reports = privatize_all(&cp_pairs, |p, rng| cp.privatize(p, rng));
    scenarios.push(scenario("cp_aggregate_absorb", n, trials, || {
        let mut agg = cp.aggregator();
        for r in &cp_reports {
            agg.absorb(r).unwrap();
        }
        agg.report_count()
    }));
    scenarios.push(scenario("cp_aggregate_colsum_t1", n, trials, || {
        let mut agg = cp.aggregator();
        agg.absorb_all(&cp_reports).unwrap();
        agg.report_count()
    }));

    // ------------------------------------------------- exec dispatch ----
    // The `Exec` plan layer must cost nothing measurable over driving the
    // sharded machinery directly: race three plans of one full frequency
    // pipeline (PTS: GRR label + OUE item per user) end to end. The JSON
    // keys keep the names of the execution modes these plans replaced.
    let exec_domains = Domains::new(8, D).unwrap();
    let exec_pairs: Vec<LabelItem> = (0..exec_n as u32)
        .map(|u| LabelItem::new(u % 8, (u * 13) % D))
        .collect();
    let exec_fw = Framework::Pts { label_frac: 0.5 };
    let run_plan = |plan: &Exec| {
        let result = exec_fw
            .execute(eps, exec_domains, plan, SliceSource::new(&exec_pairs))
            .unwrap();
        result.comm.total_report_bits ^ result.table.get(0, 0).to_bits()
    };
    // One worker thread, default chunks.
    let one_thread = Exec::seeded(6).threads(1);
    // All threads over a single chunk holding the whole source.
    let whole_source = Exec::seeded(6).threads(threads).chunk_size(exec_n);
    // All threads, default chunks.
    let chunked = Exec::seeded(6).threads(threads);
    scenarios.push(scenario("exec_plan_sequential", exec_n, trials, || {
        run_plan(&one_thread)
    }));
    scenarios.push(scenario("exec_plan_batch_tn", exec_n, trials, || {
        run_plan(&whole_source)
    }));
    scenarios.push(scenario("exec_plan_stream_tn", exec_n, trials, || {
        run_plan(&chunked)
    }));

    // ---------------------------------------------------- metrics tax ----
    // The same whole-source pipeline with the global `mcim_obs` registry
    // recording. Disabled (every scenario above), each instrumentation
    // site folds to one relaxed atomic load, so the plain scenarios
    // already price the off path; enabled it must stay within noise.
    // A single pair swings with whatever else the box is doing, so the
    // JSON's `metrics_overhead_batch_tn` is the median enabled/disabled
    // wall-time ratio over OVERHEAD_PAIRS back-to-back pairs, alternating
    // which side runs first (acceptance gate: ≤ 1.03). The snapshot
    // recorded by the enabled runs is embedded in the JSON under `obs`.
    mcim_obs::reset();
    let mut off_ms = Vec::with_capacity(OVERHEAD_PAIRS);
    let mut on_ms = Vec::with_capacity(OVERHEAD_PAIRS);
    let mut ratios = Vec::with_capacity(OVERHEAD_PAIRS);
    for pair in 0..OVERHEAD_PAIRS {
        let on_first = pair % 2 == 1;
        let (mut off, mut on) = (0.0, 0.0);
        for enabled in [on_first, !on_first] {
            mcim_obs::set_enabled(enabled);
            let (ms, checksum) = time(1, || run_plan(&whole_source));
            std::hint::black_box(checksum);
            if enabled {
                on = ms;
            } else {
                off = ms;
            }
        }
        off_ms.push(off);
        on_ms.push(on);
        ratios.push(on / off);
    }
    mcim_obs::set_enabled(false);
    let obs_snapshot = mcim_obs::snapshot();
    mcim_obs::reset();
    let metrics_overhead = median(&mut ratios);
    let (off_median_ms, on_median_ms) = (median(&mut off_ms), median(&mut on_ms));

    // ------------------------------------------------------ pipeline ----
    let pipeline_domains = Domains::new(4, 256).unwrap();
    let pipeline_pairs: Vec<LabelItem> = (0..PIPELINE_N as u32)
        .map(|u| LabelItem::new(u % 4, (u * 31) % 256))
        .collect();
    let pipeline_plan = Exec::seeded(9).threads(1);
    let pipelines: Vec<Scenario> = Framework::fig6_set()
        .into_iter()
        .zip([
            "pipeline_hec",
            "pipeline_ptj",
            "pipeline_pts",
            "pipeline_pts_cp",
        ])
        .map(|(fw, name)| {
            scenario(name, PIPELINE_N, PIPELINE_TRIALS, || {
                let result = fw
                    .execute(
                        Eps::new(2.0).unwrap(),
                        pipeline_domains,
                        &pipeline_plan,
                        SliceSource::new(&pipeline_pairs),
                    )
                    .unwrap();
                result.comm.total_report_bits ^ result.table.get(0, 0).to_bits()
            })
        })
        .collect();

    // ------------------------------------------------- dist reduce ----
    // The distributed reducer racing the in-process executor on the same
    // PTS pipeline: 1/2/4 locally spawned worker *processes* (loopback
    // TCP, the real `Worker` runtime via the mcim-bench-worker bin).
    // Workers fold their shard ranges single-threaded, so the scaling
    // story is worker count, not threads; `dist_reduce_w1` vs
    // `exec_plan_stream_tn` is the protocol's serialization+socket tax.
    let worker_bin = std::path::Path::new(env!("CARGO_BIN_EXE_mcim-bench-worker"));
    for workers in [1usize, 2, 4] {
        let name: &'static str = match workers {
            1 => "dist_reduce_w1",
            2 => "dist_reduce_w2",
            _ => "dist_reduce_w4",
        };
        // Spawn/connect once per worker count; the timed closure measures
        // the fold itself (serialization, sockets, worker compute), not
        // process startup.
        let spawned =
            mcim_dist::spawn_local_workers(worker_bin, workers).expect("spawning workers");
        let plan = Exec::seeded(6).threads(threads);
        let coordinator =
            mcim_dist::Coordinator::connect(&plan, &spawned.addrs).expect("connecting");
        scenarios.push(scenario(name, exec_n, trials, || {
            let result = exec_fw
                .execute_on(
                    &coordinator,
                    eps,
                    exec_domains,
                    SliceSource::new(&exec_pairs),
                )
                .unwrap();
            result.comm.total_report_bits ^ result.table.get(0, 0).to_bits()
        }));
        drop(coordinator);
        drop(spawned);
    }

    // -------------------------------------------- sampler crossover ----
    // The contract's plane sampler goes word-parallel at and above
    // `WORDWISE_MIN_Q` and skips geometrically below it; both fillers are
    // exact, so the threshold is purely a cost choice made from this sweep.
    let mut crossover = Vec::new();
    for len in SWEEP_LENS {
        for log2_q in SWEEP_LOG2_Q {
            let q = (-f64::from(log2_q)).exp2() * (1.0 + 2f64.powi(-40));
            crossover.push(Crossover {
                len,
                log2_q,
                wordwise: ns_per_64_bits(len, |plane, rng| {
                    plane.fill_bernoulli_wordwise(q, rng);
                }),
                geometric: ns_per_64_bits(len, |plane, rng| {
                    plane.fill_bernoulli(q, rng);
                }),
            });
        }
    }
    let mut sweep = Table::new(
        "plane_sampler_crossover",
        &[
            "len",
            "q",
            "wordwise_ns_per_64",
            "geometric_ns_per_64",
            "faster",
        ],
    );
    for c in &crossover {
        sweep.push(vec![
            c.len.to_string(),
            format!("2^-{}·(1+2^-40)", c.log2_q),
            format!("{:.2}", c.wordwise),
            format!("{:.2}", c.geometric),
            if c.wordwise <= c.geometric {
                "wordwise"
            } else {
                "geometric"
            }
            .to_string(),
        ]);
    }
    sweep.print_and_save().expect("saving CSV");
    println!(
        "WORDWISE_MIN_Q = 2^{} (planes at or above it go word-parallel)",
        UnaryEncoding::WORDWISE_MIN_Q.log2()
    );

    // ---------------------------------------------- PEM round folds ----
    let pem_rounds: Vec<(usize, f64)> = PEM_ROUND_BITS
        .iter()
        .map(|&bits| (bits, pem_round_ns_per_user(bits)))
        .collect();
    let mut pem_table = Table::new("pem_vp_round_fold", &["scenario", "ns_per_user"]);
    for &(bits, ns) in &pem_rounds {
        pem_table.push(vec![
            format!("pem_vp_round_fold_{bits}"),
            format!("{ns:.1}"),
        ]);
    }
    pem_table.print_and_save().expect("saving CSV");

    // --------------------------------------------- dist chunk codec ----
    let (codec_encode_ns, codec_decode_ns) = chunk_codec_ns_per_user();
    let mut codec_table = Table::new("dist_chunk_codec", &["step", "ns_per_user"]);
    codec_table.push(vec!["encode".into(), format!("{codec_encode_ns:.2}")]);
    codec_table.push(vec!["decode".into(), format!("{codec_decode_ns:.2}")]);
    codec_table.print_and_save().expect("saving CSV");

    // ------------------------------------------------------- results ----
    let mut table = Table::new("oracle_throughput", &["scenario", "ms", "reports_per_sec"]);
    for s in &scenarios {
        table.push(vec![
            s.name.to_string(),
            format!("{:.2}", s.ms),
            format!("{:.0}", s.reports_per_sec),
        ]);
    }
    table.print_and_save().expect("saving CSV");
    let mut pipeline_table = Table::new("pipeline", &["scenario", "ms", "reports_per_sec"]);
    for s in &pipelines {
        pipeline_table.push(vec![
            s.name.to_string(),
            format!("{:.2}", s.ms),
            format!("{:.0}", s.reports_per_sec),
        ]);
    }
    pipeline_table.print_and_save().expect("saving CSV");

    let ms_of = |name: &str| {
        scenarios
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.ms)
            .expect("scenario present")
    };
    let speedups = [
        (
            "vp_colsum_t1_vs_absorb",
            ms_of("vp_aggregate_absorb") / ms_of("vp_aggregate_colsum_t1"),
        ),
        (
            "cp_colsum_t1_vs_absorb",
            ms_of("cp_aggregate_absorb") / ms_of("cp_aggregate_colsum_t1"),
        ),
        (
            "exec_plan_batch_tn_vs_sequential",
            ms_of("exec_plan_sequential") / ms_of("exec_plan_batch_tn"),
        ),
        (
            "exec_plan_stream_tn_vs_batch_tn",
            ms_of("exec_plan_batch_tn") / ms_of("exec_plan_stream_tn"),
        ),
        (
            "dist_reduce_w4_vs_w1",
            ms_of("dist_reduce_w1") / ms_of("dist_reduce_w4"),
        ),
        (
            "dist_reduce_w4_vs_stream_tn",
            ms_of("exec_plan_stream_tn") / ms_of("dist_reduce_w4"),
        ),
    ];
    println!("speedups:");
    for (name, x) in &speedups {
        println!("  {name:>32}  {x:.2}x");
    }
    println!(
        "metrics overhead (exec_plan_batch_tn, enabled/disabled, median of {OVERHEAD_PAIRS} \
         pairs): {metrics_overhead:.3}x (off {off_median_ms:.1} ms, on {on_median_ms:.1} ms)"
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"oracle_throughput\",");
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let _ = writeln!(
        json,
        "  \"config\": {{ \"d\": {D}, \"n\": {n}, \"exec_n\": {exec_n}, \"eps\": {EPS}, \"threads\": {threads}, \"cores\": {cores}, \"trials\": {trials} }},"
    );
    let _ = writeln!(json, "  \"scenarios\": [");
    for (i, s) in scenarios.iter().enumerate() {
        let comma = if i + 1 < scenarios.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"ms\": {:.3}, \"reports_per_sec\": {:.0} }}{comma}",
            s.name, s.ms, s.reports_per_sec
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"speedups\": {{");
    for (i, (name, x)) in speedups.iter().enumerate() {
        let comma = if i + 1 < speedups.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{name}\": {x:.2}{comma}");
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        json,
        "  \"metrics_overhead_batch_tn\": {metrics_overhead:.3},"
    );
    let _ = writeln!(
        json,
        "  \"metrics_overhead_pairs\": {{ \"pairs\": {OVERHEAD_PAIRS}, \"off_median_ms\": {off_median_ms:.3}, \"on_median_ms\": {on_median_ms:.3} }},"
    );
    let _ = writeln!(
        json,
        "  \"plane_sampler_crossover\": {{ \"unit\": \"ns per 64 output bits\", \"q\": \"2^q_log2 * (1 + 2^-40)\", \"wordwise_min_q_log2\": {}, \"points\": [",
        UnaryEncoding::WORDWISE_MIN_Q.log2()
    );
    for (i, c) in crossover.iter().enumerate() {
        let comma = if i + 1 < crossover.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"len\": {}, \"q_log2\": -{}, \"wordwise\": {:.2}, \"geometric\": {:.2} }}{comma}",
            c.len, c.log2_q, c.wordwise, c.geometric
        );
    }
    let _ = writeln!(json, "  ] }},");
    let _ = writeln!(
        json,
        "  \"pem_vp_round_fold\": {{ \"unit\": \"ns per user\", \"eps\": 2, \"domain\": {PEM_DOMAIN}, \"fragment\": {}, \"points\": [",
        parallel::SHARD_SIZE
    );
    for (i, &(bits, ns)) in pem_rounds.iter().enumerate() {
        let comma = if i + 1 < pem_rounds.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"name\": \"pem_vp_round_fold_{bits}\", \"bits\": {bits}, \"ns_per_user\": {ns:.1} }}{comma}"
        );
    }
    let _ = writeln!(json, "  ] }},");
    let _ = writeln!(
        json,
        "  \"dist_chunk_codec\": {{ \"unit\": \"ns per user\", \"frames\": {CODEC_FRAMES}, \"pairs_per_frame\": {CODEC_PAIRS}, \"encode_ns_per_user\": {codec_encode_ns:.2}, \"decode_ns_per_user\": {codec_decode_ns:.2} }},"
    );
    let _ = writeln!(
        json,
        "  \"pipeline\": {{ \"n\": {PIPELINE_N}, \"c\": 4, \"d\": 256, \"eps\": 2, \"threads\": 1, \"trials\": {PIPELINE_TRIALS}, \"scenarios\": ["
    );
    for (i, s) in pipelines.iter().enumerate() {
        let comma = if i + 1 < pipelines.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"ms\": {:.3}, \"reports_per_sec\": {:.0} }}{comma}",
            s.name, s.ms, s.reports_per_sec
        );
    }
    let _ = writeln!(json, "  ] }},");
    let _ = writeln!(json, "  \"obs\": {}", obs_snapshot.to_json().trim_end());
    let _ = writeln!(json, "}}");

    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("results dir");
    let path = dir.join("BENCH_oracle_throughput.json");
    std::fs::write(&path, json).expect("writing JSON baseline");
    println!("[saved {}]", path.display());
}
