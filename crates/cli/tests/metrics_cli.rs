//! End-to-end checks of the CLI's telemetry surface: `--metrics-out`
//! files must parse under the same strict Prometheus/JSON grammar the
//! golden tests pin, `--verbose` must print the snapshot table (the one
//! rendering path for stage timings and the distributed fold report),
//! and none of it may perturb results. The CLI runs as a real
//! subprocess so stderr/stdout and exit codes are observed exactly as a
//! user sees them.

use std::path::PathBuf;
use std::process::Command;

fn mcim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mcim"))
        .args(args)
        .output()
        .expect("running the mcim binary")
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("mcim-metrics-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

/// A small generated dataset shared by the tests below.
fn dataset(name: &str) -> String {
    let pairs = tmp(name);
    let gen = mcim(&[
        "gen",
        "--dataset",
        "syn3",
        "--users",
        "9000",
        "--items",
        "64",
        "--classes",
        "3",
        "--output",
        &pairs,
    ]);
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );
    pairs
}

#[test]
fn metrics_out_writes_parseable_prometheus_text() {
    let pairs = dataset("prom_pairs.csv");
    let metrics = tmp("freq_metrics.prom");
    let out = mcim(&[
        "freq",
        "--input",
        &pairs,
        "--eps",
        "2.0",
        "--seed",
        "5",
        "--metrics-out",
        &metrics,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&metrics).unwrap();
    let samples = mcim_obs::parse_prometheus(&text).expect("strict Prometheus grammar");
    let value = |name: &str| -> f64 {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing {name} in:\n{text}"))
            .value
            .parse()
            .expect("numeric sample value")
    };
    // One fold per stage of the PTS-CP pipeline, each chunk and report
    // accounted for (PTS splits users into a label and an item report).
    assert!(value("mcim_folds_total") >= 1.0);
    // Each of the pipeline's folds walks all 9000 pairs.
    assert!(value("mcim_fold_reports_total") >= 9000.0);
    assert_eq!(
        value("mcim_fold_reports_total") % 9000.0,
        0.0,
        "fold report totals must be whole passes over the input"
    );
    assert!(value("mcim_fold_chunks_total") >= 1.0);
    assert!(samples
        .iter()
        .any(|s| s.name == "mcim_pipeline_runs_total" && s.labels.contains("pipeline=\"PTS-CP\"")));
    // Histogram families expose their full bucket layout.
    assert!(samples
        .iter()
        .any(|s| s.name == "mcim_fold_duration_seconds_bucket"));
    assert!(samples
        .iter()
        .any(|s| s.name == "mcim_stage_duration_seconds_count"));
}

#[test]
fn metrics_out_json_envelope_and_results_unperturbed() {
    let pairs = dataset("json_pairs.csv");
    let metrics = tmp("freq_metrics.json");
    let with = tmp("freq_with_metrics.csv");
    let without = tmp("freq_without_metrics.csv");

    let run = mcim(&[
        "freq", "--input", &pairs, "--eps", "2.0", "--seed", "5", "--output", &without,
    ]);
    assert!(run.status.success());
    let run = mcim(&[
        "freq",
        "--input",
        &pairs,
        "--eps",
        "2.0",
        "--seed",
        "5",
        "--output",
        &with,
        "--metrics-out",
        &metrics,
    ]);
    assert!(run.status.success());
    assert_eq!(
        std::fs::read_to_string(&without).unwrap(),
        std::fs::read_to_string(&with).unwrap(),
        "metrics collection must never change estimates"
    );

    let body = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        body.starts_with("{\"mcim_obs\":1,"),
        "envelope marker: {body}"
    );
    assert!(body.ends_with('\n'));
    assert!(body.contains("\"counters\""), "{body}");
    assert!(body.contains("\"mcim_folds_total\":"), "{body}");
    assert!(body.contains("\"bounds_micros\":[100,"), "{body}");
}

#[test]
fn verbose_prints_the_snapshot_table() {
    let pairs = dataset("table_pairs.csv");
    let out = mcim(&[
        "topk",
        "--input",
        &pairs,
        "--eps",
        "4.0",
        "--k",
        "3",
        "--seed",
        "5",
        "--method",
        "pts",
        "--verbose",
        "--output",
        &tmp("table_topk.csv"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);

    // Header row, then `metric  value` rows the table promises.
    let header = stderr
        .lines()
        .position(|l| l.starts_with("metric") && l.trim_end().ends_with("value"))
        .unwrap_or_else(|| panic!("no snapshot table header in stderr:\n{stderr}"));
    let rows: Vec<&str> = stderr.lines().skip(header + 1).collect();
    assert!(
        rows.iter().any(|r| r.starts_with("mcim_pem_rounds_total")),
        "PEM round counter missing from table:\n{stderr}"
    );
    assert!(
        rows.iter()
            .any(|r| r.starts_with("mcim_pipeline_duration_seconds")),
        "pipeline span missing from table:\n{stderr}"
    );
    // Every table row splits into a metric key and a value column.
    for row in rows.iter().filter(|r| r.starts_with("mcim_")) {
        let mut cols = row.split_whitespace();
        let key = cols.next().unwrap();
        let value = cols
            .next()
            .unwrap_or_else(|| panic!("no value in row {row:?}"));
        assert!(key.starts_with("mcim_"), "{row:?}");
        assert!(
            value
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit() || c == '-')
                || value.starts_with("count="),
            "unparseable value column in {row:?}"
        );
    }
}

#[test]
fn dist_report_rides_the_snapshot_table() {
    let pairs = dataset("dist_table_pairs.csv");
    let out = mcim(&[
        "freq",
        "--input",
        &pairs,
        "--eps",
        "2.0",
        "--seed",
        "5",
        "--dist-spawn",
        "2",
        "--verbose",
        "--output",
        &tmp("dist_table_freq.csv"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);

    // The old bespoke `dist: <FoldReport>` line is gone; its numbers now
    // live in the table as mcim_dist_* rows.
    assert!(
        !stderr.lines().any(|l| l.starts_with("dist: workers")),
        "bespoke session-report line resurfaced:\n{stderr}"
    );
    for metric in [
        "mcim_dist_folds_total",
        "mcim_dist_workers",
        "mcim_dist_workers_used",
        "mcim_dist_spawned_workers_total",
    ] {
        assert!(
            stderr.lines().any(|l| l.starts_with(metric)),
            "{metric} missing from table:\n{stderr}"
        );
    }
    // Per-worker I/O counters, labeled by stable worker index.
    for worker in ["0", "1"] {
        let label = format!("mcim_dist_tx_bytes_total{{worker=\"{worker}\"}}");
        assert!(
            stderr.lines().any(|l| l.starts_with(&label)),
            "{label} missing from table:\n{stderr}"
        );
    }

    let path = PathBuf::from(tmp("dist_table_freq.csv"));
    assert!(path.exists());
}

/// The shuffled top-k methods fold every scoring round on the executor,
/// so a spawned worker receives their jobs.
#[test]
fn shuffled_topk_rounds_reach_dist_workers() {
    let pairs = dataset("dist_topk_pairs.csv");
    for method in ["pts-opt", "ptj-opt"] {
        let out = mcim(&[
            "topk",
            "--input",
            &pairs,
            "--eps",
            "4.0",
            "--k",
            "3",
            "--seed",
            "5",
            "--method",
            method,
            "--dist-spawn",
            "1",
            "--verbose",
            "--output",
            &tmp("dist_topk.csv"),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{method}: {stderr}");
        let folds: u64 = stderr
            .lines()
            .find_map(|l| l.strip_prefix("mcim_dist_folds_total"))
            .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
            .unwrap_or_else(|| panic!("{method}: no dist fold count in:\n{stderr}"));
        assert!(folds > 0, "{method}: no fold reached the worker");
    }
}

/// Out-of-range Algorithm 1/2 parameters exit non-zero and write nothing,
/// instead of silently skipping a phase or emitting a header-only CSV.
#[test]
fn topk_refuses_out_of_range_pipeline_parameters() {
    let pairs = dataset("bad_param_pairs.csv");
    let output = tmp("bad_param_topk.csv");
    for (flag, value) in [
        ("--sample-frac", "1"),
        ("--sample-frac", "1.5"),
        ("--sample-frac", "nan"),
        ("--sample-frac", "-1"),
        ("--noise-b", "nan"),
        ("--noise-b", "0"),
    ] {
        let _ = std::fs::remove_file(&output);
        let out = mcim(&[
            "topk", "--input", &pairs, "--eps", "4", "--k", "3", flag, value, "--output", &output,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} {value} was accepted");
        assert!(stderr.starts_with("error:"), "{flag} {value}: {stderr}");
        assert!(
            !PathBuf::from(&output).exists(),
            "{flag} {value} wrote output"
        );
    }
}
