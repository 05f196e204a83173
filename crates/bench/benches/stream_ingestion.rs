//! Streaming ingestion: a paper-scale (default 5M-user) run under a fixed
//! RSS budget, against the materialized batch path.
//!
//! Three phases, run low-memory-first so the `VmHWM` high-water mark
//! cleanly attributes the RSS jump to materialization:
//!
//! 1. `pts_run_stream` — the PTS pipeline over 5M users from a synthetic
//!    pair generator: each user's OUE item report (`d = 1024`, ~136 B, so
//!    ≈ 680 MB if materialized) is privatized and absorbed inside the
//!    bounded-memory chunked fold: memory stays `O(chunk)`.
//! 2. `pts_cp_run_stream` — the PTS-CP pipeline end-to-end from the same
//!    kind of generator (no input `Vec` at all).
//! 3. `absorb_all` over `min(n, 500k)` reports privatized into one `Vec`
//!    first, to show the per-report RSS cost streaming avoids.
//!
//! Prints a table, saves `results/stream_ingestion.csv` and the
//! machine-readable `results/BENCH_stream_ingestion.json` the CI uploads.
//!
//! Run: `cargo bench -p mcim-bench --bench stream_ingestion`
//! (`MCIM_BENCH_N` shrinks the workload; CI uses a small N.)

// Timing tool: measuring wall-clock time is this target's whole job
// (mcim-lint classifies benches as Tool; clippy needs the explicit allow).
#![allow(clippy::disallowed_methods)]

use std::fmt::Write as _;
use std::time::Instant;

use mcim_bench::{count_from_env, results_dir, Table};
use mcim_core::{Domains, Framework};
use mcim_datasets::{SyntheticPairSource, SyntheticSourceConfig};
use mcim_oracles::exec::Exec;
use mcim_oracles::{parallel, Aggregator, Eps, Oracle, Report};

const D: u32 = 1024;

/// Peak resident set size (VmHWM) in MiB, from `/proc/self/status`.
/// Returns 0.0 where procfs is unavailable.
fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            if let Some(kb) = rest
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<f64>().ok())
            {
                return kb / 1024.0;
            }
        }
    }
    0.0
}

struct Phase {
    name: &'static str,
    users: u64,
    ms: f64,
    reports_per_sec: f64,
    peak_rss_mib_after: f64,
}

fn main() {
    let count = |name, default| {
        count_from_env(name, default).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1)
        })
    };
    let n = count("MCIM_BENCH_N", 5_000_000) as u64;
    let chunk = count("MCIM_CHUNK", 16 * parallel::SHARD_SIZE);
    let threads = parallel::configured_threads();
    let eps = Eps::new(1.0).unwrap();
    let plan = Exec::seeded(3).threads(threads).chunk_size(chunk);
    let rss_baseline = peak_rss_mib();
    println!(
        "== stream_ingestion | n={n} d={D} chunk={chunk} threads={threads} baseline_rss={rss_baseline:.0}MiB =="
    );

    // Record the whole run: every phase pays the (noise-level) metrics
    // tax uniformly, and the fold/stage counters land in the JSON
    // artifact under `obs` alongside the wall-clock numbers.
    mcim_obs::reset();
    mcim_obs::set_enabled(true);

    let mut phases: Vec<Phase> = Vec::new();
    let mut record = |name: &'static str, users: u64, start: Instant| {
        let ms = start.elapsed().as_secs_f64() * 1e3;
        phases.push(Phase {
            name,
            users,
            ms,
            reports_per_sec: users as f64 / (ms / 1e3),
            peak_rss_mib_after: peak_rss_mib(),
        });
    };

    // Phases 1 and 2: PTS and PTS-CP end-to-end from generator sources,
    // with bounded memory.
    let domains = Domains::new(8, D).unwrap();
    let synthetic = |users, seed| {
        SyntheticPairSource::new(SyntheticSourceConfig {
            classes: 8,
            items: D,
            users,
            zipf_s: 1.5,
            seed,
        })
    };
    let start = Instant::now();
    let result = Framework::Pts { label_frac: 0.5 }
        .execute(eps, domains, &plan, &mut synthetic(n, 1))
        .unwrap();
    record("pts_run_stream", n, start);
    assert_eq!(result.comm.users, n);
    std::hint::black_box(result.table.get(0, 0));

    let n_freq = n.min(1_000_000);
    let mut pairs = synthetic(n_freq, 2);
    let start = Instant::now();
    let result = Framework::PtsCp { label_frac: 0.5 }
        .execute(eps, domains, &plan, &mut pairs)
        .unwrap();
    record("pts_cp_run_stream", n_freq, start);
    std::hint::black_box(result.table.get(0, 0));

    // Phase 3: the materialized batch path (the memory cost streaming
    // avoids) at a size that still fits CI.
    let n_batch = n.min(500_000);
    let oracle = Oracle::oue(eps, D).unwrap();
    let start = Instant::now();
    let mut rng = parallel::shard_rng(4, 0);
    let reports: Vec<Report> = (0..n_batch)
        .map(|u| oracle.privatize(u as u32 % D, &mut rng).unwrap())
        .collect();
    let mut agg = Aggregator::new(&oracle);
    agg.absorb_all(&reports).unwrap();
    record("oue_materialized_batch", n_batch, start);
    std::hint::black_box(agg.raw_counts().iter().sum::<u64>());
    let report_bytes: usize = reports.iter().map(|r| r.size_bits() / 8 + 56).sum();
    drop(reports);

    mcim_obs::set_enabled(false);
    let obs_snapshot = mcim_obs::snapshot();
    mcim_obs::reset();

    // ------------------------------------------------------- results ----
    let mut table = Table::new(
        "stream_ingestion",
        &["phase", "users", "ms", "reports_per_sec", "peak_rss_mib"],
    );
    for p in &phases {
        table.push(vec![
            p.name.to_string(),
            p.users.to_string(),
            format!("{:.0}", p.ms),
            format!("{:.0}", p.reports_per_sec),
            format!("{:.0}", p.peak_rss_mib_after),
        ]);
    }
    table.print_and_save().expect("saving CSV");

    let stream_delta = phases[0].peak_rss_mib_after - rss_baseline;
    let batch_delta = phases[2].peak_rss_mib_after - phases[1].peak_rss_mib_after;
    println!(
        "PTS streamed {n} users within +{stream_delta:.0} MiB of RSS; \
         materializing {n_batch} reports (~{:.0} MiB of report heap) grew peak RSS by +{batch_delta:.0} MiB",
        report_bytes as f64 / (1024.0 * 1024.0)
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"stream_ingestion\",");
    let _ = writeln!(
        json,
        "  \"config\": {{ \"n\": {n}, \"d\": {D}, \"chunk_items\": {chunk}, \"threads\": {threads}, \"baseline_rss_mib\": {rss_baseline:.1} }},"
    );
    let _ = writeln!(json, "  \"phases\": [");
    for (i, p) in phases.iter().enumerate() {
        let comma = if i + 1 < phases.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"users\": {}, \"ms\": {:.1}, \"reports_per_sec\": {:.0}, \"peak_rss_mib\": {:.1} }}{comma}",
            p.name, p.users, p.ms, p.reports_per_sec, p.peak_rss_mib_after
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"stream_rss_delta_mib\": {stream_delta:.1},");
    let _ = writeln!(
        json,
        "  \"materialized_report_heap_mib\": {:.1},",
        report_bytes as f64 / (1024.0 * 1024.0)
    );
    let _ = writeln!(json, "  \"obs\": {}", obs_snapshot.to_json().trim_end());
    let _ = writeln!(json, "}}");

    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("results dir");
    let path = dir.join("BENCH_stream_ingestion.json");
    std::fs::write(&path, json).expect("writing JSON baseline");
    println!("[saved {}]", path.display());
}
