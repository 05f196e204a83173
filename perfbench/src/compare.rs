//! `--compare <parent-dir> <change-dir>`: medians and quartiles of two sets
//! of stored untraced results, with one verdict per workload and metric
//! against the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::stats::{median, quartiles};

/// File, inside a results directory, that every invocation appends its
/// result to.
pub const RESULTS_FILE: &str = "results.jsonl";

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether smaller values are better.
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// The outcome for one workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the parent's own spread.
    Improved,
    /// Not worse by more than the bound.
    WithinBound,
    /// Worse by more than the bound.
    Worse,
    /// The parent's interquartile range exceeds the bound, and the change
    /// does not beat every parent run.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `change` against `parent` for a metric with `bound`.
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (mp, mc) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let scale = mp.abs().max(f64::MIN_POSITIVE);
    // Positive when the change is worse.
    let worse_by = if lower_is_better { mc - mp } else { mp - mc };
    let beats_every_parent_run = if lower_is_better {
        change.iter().copied().fold(f64::MIN, f64::max)
            < parent.iter().copied().fold(f64::MAX, f64::min)
    } else {
        change.iter().copied().fold(f64::MAX, f64::min)
            > parent.iter().copied().fold(f64::MIN, f64::max)
    };
    if (q3 - q1) / scale > bound {
        if beats_every_parent_run {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse_by / scale > bound {
        Verdict::Worse
    } else if -worse_by > q3 - q1 {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// The `end_to_end` rules of a `BENCHMARK.json` document.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(text)?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::arr)
        .ok_or("no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or_else(|| format!("an end_to_end metric has no {k}"))
            };
            Ok(Bound {
                name: field("name")?.str().unwrap_or_default().to_string(),
                lower_is_better: field("better")?.str() == Some("lower"),
                bound: field("bound")?.num().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Values per workload and metric of the untraced records in the text of
/// a results file.
pub fn parse_results(text: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if record.get("trace").and_then(Json::num) != Some(0.0) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Json::str)
            .unwrap_or_default();
        let metrics = record
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::obj)
            .unwrap_or_default();
        for (name, metric) in metrics {
            if let Some(v) = metric.get("value").and_then(Json::num) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// The comparison table, one row per workload and bounded metric, from a
/// `BENCHMARK.json` document and the parent's and change's results files.
pub fn compare(benchmark: &str, parent: &str, change: &str) -> Result<String, String> {
    let bounds = parse_bounds(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let parent = parse_results(parent).map_err(|e| format!("parent results: {e}"))?;
    let change = parse_results(change).map_err(|e| format!("change results: {e}"))?;
    let mut workloads: Vec<&String> = parent.keys().map(|(w, _)| w).collect();
    workloads.dedup();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:<24} {:>34} {:>34}  verdict",
        "workload", "metric", "parent median [q1, q3] (n)", "change median [q1, q3] (n)"
    );
    let side = |xs: &[f64]| {
        let (q1, q3) = quartiles(xs);
        format!("{:.4} [{q1:.4}, {q3:.4}] ({})", median(xs), xs.len())
    };
    for workload in workloads {
        for b in &bounds {
            let key = (workload.clone(), b.name.clone());
            let (Some(p), Some(c)) = (parent.get(&key), change.get(&key)) else {
                let _ = writeln!(out, "{workload:<20} {:<24} missing on one side", b.name);
                continue;
            };
            let v = verdict(p, c, b.lower_is_better, b.bound);
            let _ = writeln!(
                out,
                "{workload:<20} {:<24} {:>34} {:>34}  {}",
                b.name,
                side(p),
                side(c),
                v.label()
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_parent_spread() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better: 5% slower with a 10% bound is within bound.
        assert_eq!(
            verdict(&parent, &[105.0; 5], true, 0.10),
            Verdict::WithinBound
        );
        assert_eq!(verdict(&parent, &[115.0; 5], true, 0.10), Verdict::Worse);
        assert_eq!(verdict(&parent, &[90.0; 5], true, 0.10), Verdict::Improved);
        // Higher is better flips the direction.
        assert_eq!(verdict(&parent, &[90.0; 5], false, 0.05), Verdict::Worse);
        // A parent spread wider than the bound cannot resolve a change…
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            verdict(&noisy, &[101.0; 5], true, 0.10),
            Verdict::Unresolved
        );
        // …unless every change run beats every parent run.
        assert_eq!(verdict(&noisy, &[70.0; 5], true, 0.10), Verdict::Improved);
    }

    #[test]
    fn reads_bounds_and_untraced_results() {
        let bench = r#"{"end_to_end": [{"name": "run_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}]}"#;
        let line = |trace: u8, v: f64| {
            format!(
                "{{\"workload\": \"w\", \"seed\": 1, \"trace\": {trace}, \"result\": {{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {{\"run_ms_p50\": {{\"value\": {v}, \"unit\": \"ms\"}}}}}}}}\n"
            )
        };
        let results = line(0, 10.0) + &line(0, 10.2) + &line(1, 99.0) + &line(0, 10.1);
        let bounds = parse_bounds(bench).unwrap();
        assert_eq!(bounds[0].name, "run_ms_p50");
        assert!(bounds[0].lower_is_better);
        // The traced record is left out.
        let parsed = parse_results(&results).unwrap();
        assert_eq!(
            parsed[&("w".to_string(), "run_ms_p50".to_string())],
            vec![10.0, 10.2, 10.1]
        );
        let table = compare(bench, &results, &results).unwrap();
        assert!(table.contains("within bound"), "{table}");
        assert!(parse_bounds("{}").is_err());
    }
}
