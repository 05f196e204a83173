//! The two kinds of invocation: the untraced run that yields the
//! end-to-end metrics, and the traced run that yields the per-layer ones.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use mcim_oracles::parallel::SHARD_SIZE;
use mcim_oracles::Result;

use crate::layers::{replay, run_layers, Replays, RunLayers, REPLAY_SHARDS};
use crate::stats::{median, percentile, Digest};
use crate::trace::Tracer;
use crate::workloads::{plan_seeds, Backend, Checked, Env, Prepared, Spec, Task};

/// Set-ups per untraced invocation; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Runs always made, whatever `--seconds` says; `output_digest` covers
/// exactly these, so invocations of different lengths stay comparable.
pub const DIGEST_RUNS: usize = 3;

/// Traced/untraced run pairs always made in a traced invocation.
pub const TRACE_PAIRS: usize = 10;

/// The run-time percentile behind the bounded timings. Other tenants of a
/// shared host only ever slow a run, in episodes from seconds to minutes
/// long; the fast tail of a long invocation is the pipeline's own cost,
/// and it moves far less between invocations than the median does.
pub const FAST_PERCENTILE: f64 = 0.10;

/// How long to measure.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Keep starting runs until this much time has passed.
    pub seconds: f64,
    /// Untraced runs: at least [`DIGEST_RUNS`]. Traced: at least
    /// [`TRACE_PAIRS`] pairs. Tests lower these.
    pub min_runs: usize,
    /// Set-ups per untraced invocation.
    pub setups: usize,
}

impl Budget {
    /// The benchmark's own budget for a traced or untraced invocation.
    pub fn new(seconds: f64, trace: bool) -> Budget {
        Budget {
            seconds,
            min_runs: if trace { TRACE_PAIRS } else { DIGEST_RUNS },
            setups: SETUPS,
        }
    }
}

/// One named figure with its unit and sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// How many runs (or replay passes) it summarizes.
    pub runs: usize,
}

/// Everything one invocation prints.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Whether every run passed every check.
    pub correct: bool,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that returned an error or failed a check.
    pub failed: u64,
    /// The metrics of the result object.
    pub metrics: Vec<Metric>,
    /// Further figures printed as metric lines but left out of the result
    /// object.
    pub extra: Vec<Metric>,
    /// Free-form lines (digest, failures, the residual's span).
    pub notes: Vec<String>,
}

impl Report {
    /// One `<workload> <metric> <value> <unit> runs=<R>` line per metric,
    /// then the notes.
    pub fn lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .metrics
            .iter()
            .chain(&self.extra)
            .map(|m| {
                format!(
                    "{} {} {} {} runs={}",
                    self.workload, m.name, m.value, m.unit, m.runs
                )
            })
            .collect();
        lines.extend(self.notes.iter().map(|n| format!("{} {n}", self.workload)));
        lines
    }

    /// The result object: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// JSON has no NaN or infinity; a non-finite figure is written as 0.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// Outcomes of the runs of one invocation.
#[derive(Default)]
struct Tally {
    ms: Vec<f64>,
    checked: Vec<(usize, Checked)>,
    attempted: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record(
        &mut self,
        prepared: &Prepared,
        run: usize,
        ms: f64,
        output: Result<crate::workloads::Output>,
    ) {
        self.attempted += 1;
        let checked = output
            .map_err(|e| e.to_string())
            .and_then(|o| prepared.check(&o));
        let checked = checked.and_then(|c| match prepared.reference() {
            Some(r) if run == 0 && r != c.digest => {
                Err("run 0 differs from its in-process reference".to_string())
            }
            _ => Ok(c),
        });
        match checked {
            Ok(c) => {
                self.ms.push(ms);
                self.checked.push((run, c));
            }
            Err(e) => self.errors.push(format!("run {run}: {e}")),
        }
    }

    fn failed(&self) -> u64 {
        self.errors.len() as u64
    }

    fn mean(&self, f: impl Fn(&Checked) -> Option<f64>) -> Option<f64> {
        let xs: Vec<f64> = self.checked.iter().filter_map(|(_, c)| f(c)).collect();
        (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
    }

    /// Digest of the first [`DIGEST_RUNS`] runs' digests, in run order.
    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for (run, c) in &self.checked {
            if *run < DIGEST_RUNS {
                d.word(*run as u64);
                d.word(c.digest);
            }
        }
        d.value()
    }

    fn quality(&self) -> Vec<Metric> {
        let runs = self.checked.len();
        let mut out = Vec::new();
        let mut push = |name, unit, value: Option<f64>| {
            if let Some(value) = value {
                out.push(Metric {
                    name,
                    unit,
                    value,
                    runs,
                });
            }
        };
        push("rmse_ratio", "ratio", self.mean(|c| c.rmse_ratio));
        push("f1_at_k", "ratio", self.mean(|c| c.f1_at_k));
        push(
            "broadcast_bits_per_user",
            "bits",
            self.mean(|c| c.broadcast_bits_per_user),
        );
        out
    }

    fn notes(&self) -> Vec<String> {
        let mut notes = vec![format!("output_digest {:016x}", self.digest())];
        notes.extend(self.errors.iter().map(|e| format!("FAILED {e}")));
        notes
    }
}

/// Starts runs until `budget.seconds` have passed and at least
/// `budget.min_runs` were made.
fn keep_going(start: Instant, made: usize, budget: &Budget) -> bool {
    made < budget.min_runs || start.elapsed() < Duration::from_secs_f64(budget.seconds)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> std::result::Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn error_rate(tally: &Tally) -> Metric {
    Metric {
        name: "error_rate",
        unit: "ratio",
        value: tally.failed() as f64 / tally.attempted.max(1) as f64,
        runs: tally.attempted as usize,
    }
}

/// The untraced invocation: sets up `budget.setups` times, then times
/// runs with tracing and telemetry off.
pub fn measure(
    spec: Spec,
    seed: u64,
    env: &Env,
    budget: &Budget,
) -> std::result::Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..budget.setups.max(1) {
        // The previous set-up is torn down outside the timed interval.
        drop(prepared.take());
        let start = Instant::now();
        let p = Prepared::setup(spec, seed, env).map_err(|e| format!("set-up failed: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up");

    let mut tally = Tally::default();
    let start = Instant::now();
    for (run, plan_seed) in plan_seeds(seed).enumerate() {
        if !keep_going(start, run, budget) {
            break;
        }
        let t = Instant::now();
        let output = prepared.run(plan_seed, None);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tally.record(&prepared, run, ms, output);
    }
    if tally.ms.is_empty() {
        return Err(format!("every run failed: {}", tally.errors.join("; ")));
    }
    let runs = tally.ms.len();
    let fast = percentile(&tally.ms, FAST_PERCENTILE);
    let metric = |name, unit, value| Metric {
        name,
        unit,
        value,
        runs,
    };
    let metrics = vec![
        metric(
            "throughput_users_per_s",
            "users/s",
            spec.users as f64 / (fast / 1e3),
        ),
        metric("run_ms_p10", "ms", fast),
        Metric {
            name: "setup_s",
            unit: "s",
            value: median(&setup_s),
            runs: setup_s.len(),
        },
        metric("peak_rss_mib", "MiB", peak_rss_mib()?),
        metric(
            "uplink_bits_per_user",
            "bits",
            tally
                .mean(|c| Some(c.uplink_bits_per_user))
                .expect("a run succeeded"),
        ),
    ];
    // The median and the tail are printed but not bounded: on a shared
    // machine a few minutes of contention move them between invocations by
    // more than any bound that would still catch a regression.
    let mut extra = vec![
        metric("run_ms_p50", "ms", percentile(&tally.ms, 0.5)),
        metric("run_ms_p75", "ms", percentile(&tally.ms, 0.75)),
        error_rate(&tally),
    ];
    extra.extend(tally.quality());
    Ok(Report {
        workload: spec.name,
        correct: tally.errors.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed(),
        metrics,
        extra,
        notes: tally.notes(),
    })
}

/// Sums the counters whose key starts with `family` (one per worker label).
fn family_total(counters: &BTreeMap<String, u64>, family: &str) -> u64 {
    counters
        .iter()
        .filter(|(k, _)| k.as_str() == family || k.starts_with(&format!("{family}{{")))
        .map(|(_, v)| v)
        .sum()
}

/// The `mcim_dist_*` counter families the traced run reads, per run.
const DIST_FAMILIES: [&str; 5] = [
    "mcim_dist_tx_bytes_total",
    "mcim_dist_rx_bytes_total",
    "mcim_dist_tx_frames_total",
    "mcim_dist_rx_frames_total",
    "mcim_dist_round_trips_total",
];

/// Growth of each [`DIST_FAMILIES`] counter over one run.
fn dist_deltas(run: impl FnOnce()) -> [f64; 5] {
    let before = mcim_obs::snapshot().counters;
    run();
    let after = mcim_obs::snapshot().counters;
    DIST_FAMILIES.map(|f| family_total(&after, f).saturating_sub(family_total(&before, f)) as f64)
}

/// Median of one field over samples.
fn median_of<T>(xs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&xs.iter().map(f).collect::<Vec<_>>())
}

/// The traced invocation. Pairs of runs alternate which side goes first:
/// one untraced run on its own set-up, and one run with the wrappers and
/// `mcim_obs` recording on, on a second set-up (so the untraced side's
/// socket counters never reach the registry). Each pair ends with one
/// replay pass, so replays and traced runs see the same machine load.
pub fn trace(
    spec: Spec,
    seed: u64,
    env: &Env,
    budget: &Budget,
) -> std::result::Result<(Report, Tracer), String> {
    let setup = || Prepared::setup(spec, seed, env).map_err(|e| format!("set-up failed: {e}"));
    let base = setup()?;
    mcim_obs::reset();
    mcim_obs::set_enabled(true);
    let traced = setup();
    mcim_obs::set_enabled(false);
    let traced = traced?;
    let head = traced
        .head(REPLAY_SHARDS * SHARD_SIZE)
        .map_err(|e| format!("reading the replay input: {e}"))?;

    let tracer = Tracer::default();
    let (mut plain, mut with_trace) = (Tally::default(), Tally::default());
    let mut deltas: Vec<[f64; 5]> = Vec::new();
    let mut replays: Vec<Replays> = Vec::new();
    let start = Instant::now();
    for (pair, plan_seed) in plan_seeds(seed).enumerate() {
        if !keep_going(start, pair, budget) {
            break;
        }
        for traced_side in [pair % 2 == 1, pair % 2 == 0] {
            if traced_side {
                tracer.begin_run(pair as u32);
                mcim_obs::set_enabled(true);
                let (mut ms, mut output) = (0.0, None);
                deltas.push(dist_deltas(|| {
                    let t = Instant::now();
                    output = Some(traced.run(plan_seed, Some(&tracer)));
                    ms = t.elapsed().as_secs_f64() * 1e3;
                }));
                mcim_obs::set_enabled(false);
                with_trace.record(&traced, pair, ms, output.expect("run made"));
            } else {
                let t = Instant::now();
                let output = base.run(plan_seed, None);
                plain.record(&base, pair, t.elapsed().as_secs_f64() * 1e3, output);
            }
        }
        replays.push(replay(&traced, &head, seed).map_err(|e| format!("replay failed: {e}"))?);
    }
    drop(base);
    if with_trace.ms.is_empty() || plain.ms.is_empty() {
        let errors: Vec<String> = plain
            .errors
            .iter()
            .chain(&with_trace.errors)
            .cloned()
            .collect();
        return Err(format!("every run failed: {}", errors.join("; ")));
    }

    let mut by_run: BTreeMap<u32, Vec<_>> = BTreeMap::new();
    for s in tracer.spans() {
        by_run.entry(s.run_id).or_default().push(s);
    }
    let layers: Vec<(usize, RunLayers)> = by_run
        .iter()
        .map(|(&run, s)| (run as usize, run_layers(s)))
        .collect();
    let runs = layers.len();
    let med = |f: &dyn Fn(&RunLayers) -> f64| median_of(&layers, |(_, l)| f(l));
    let users = spec.users as f64;
    // On in-process frequency workloads every `Stage::fold` privatizes and
    // absorbs, so the replays must explain the stage time.
    let in_process_freq = matches!(spec.task, Task::Freq(_)) && spec.backend == Backend::InProcess;
    let dist = |i: usize| median_of(&deltas, |d| d[i]);
    let folds = med(&|l| l.folds as f64);
    let probe = tracer.last_partial().unwrap_or_default();

    let residual = median_of(&layers, |(run, l)| {
        let stage = match replays.get(*run) {
            Some(r) if in_process_freq => users * (r.privatize_ns + r.absorb_ns) / 1e6,
            _ => l.stage_ms,
        };
        1.0 - (l.pipeline_self_ms + l.fill_ms + l.fold_self_ms + stage) / l.pipeline_ms
    });
    let traced_p50 = percentile(&with_trace.ms, 0.5);
    let untraced_p50 = percentile(&plain.ms, 0.5);

    let m = |name, unit, value| Metric {
        name,
        unit,
        value,
        runs,
    };
    let replayed = |name, unit, f: fn(&Replays) -> f64| Metric {
        name,
        unit,
        value: median_of(&replays, f),
        runs: replays.len(),
    };
    let quality = |f: fn(&Checked) -> Option<f64>| with_trace.mean(f).unwrap_or(0.0);
    let metrics = vec![
        m(
            "pipeline.self_ms_per_run",
            "ms",
            med(&|l| l.pipeline_self_ms),
        ),
        m(
            "datasets.fill_ns_per_user",
            "ns",
            med(&|l| l.fill_ms) * 1e6 / users,
        ),
        m("oracles.exec.folds_per_run", "count", folds),
        m(
            "oracles.exec.fragments_per_run",
            "count",
            med(&|l| l.fragments as f64),
        ),
        m(
            "oracles.exec.items_per_fold",
            "count",
            tracer.items_folded() as f64 / (folds * runs as f64),
        ),
        m(
            "oracles.exec.self_ms_per_run",
            "ms",
            med(&|l| l.fold_self_ms),
        ),
        m("oracles.exec.stage_ms_per_run", "ms", med(&|l| l.stage_ms)),
        replayed("core.frameworks.privatize_ns_per_user", "ns", |r| {
            r.privatize_ns
        }),
        replayed("oracles.colsum.absorb_ns_per_user", "ns", |r| r.absorb_ns),
        replayed("oracles.ue.privatize_into_ns_per_report", "ns", |r| {
            r.ue_into_ns
        }),
        replayed("oracles.ue.alloc_ns_per_report", "ns", |r| r.ue_alloc_ns),
        replayed("oracles.grr.perturb_ns_per_user", "ns", |r| r.grr_ns),
        replayed("oracles.parallel.rng_ns_per_word", "ns", |r| {
            r.rng_ns_per_word
        }),
        replayed("dist.proto.chunk_encode_ns_per_user", "ns", |r| r.encode_ns),
        replayed("dist.proto.chunk_decode_ns_per_user", "ns", |r| r.decode_ns),
        m("dist.coord.tx_bytes_per_user", "bytes", dist(0) / users),
        m("dist.coord.rx_bytes_per_run", "bytes", dist(1)),
        m("dist.coord.frames_per_run", "count", dist(2) + dist(3)),
        m("dist.coord.round_trips_per_run", "count", dist(4)),
        m(
            "dist.coord.degraded_folds",
            "count",
            tracer.degraded_folds() as f64,
        ),
        m("oracles.wire.partial_bytes", "bytes", probe.bytes as f64),
        m(
            "oracles.wire.partial_load_us",
            "us",
            probe.load_ns as f64 / 1e3,
        ),
        m(
            "core.frameworks.rmse_ratio",
            "ratio",
            quality(|c| c.rmse_ratio),
        ),
        m("topk.f1_at_k", "ratio", quality(|c| c.f1_at_k)),
        m(
            "topk.broadcast_bits_per_user",
            "bits",
            quality(|c| c.broadcast_bits_per_user),
        ),
        m("layers.residual_share", "ratio", residual),
        m("trace.overhead_ratio", "ratio", traced_p50 / untraced_p50),
        m("trace.traced_ms_p50", "ms", traced_p50),
        Metric {
            name: "trace.untraced_ms_p50",
            unit: "ms",
            value: untraced_p50,
            runs: plain.ms.len(),
        },
    ];
    let mut notes = with_trace.notes();
    notes.extend(plain.errors.iter().map(|e| format!("FAILED untraced {e}")));
    // Elsewhere the self times partition the root span, so only the
    // replay-explained stage time can leave a residual.
    if residual >= 0.10 {
        notes.push(
            "layers.residual_span Stage::fold (its time exceeds the privatize and absorb replays)"
                .into(),
        );
    }
    let partial_ok = tracer.last_partial().is_none_or(|p| p.round_trips);
    if !partial_ok {
        notes.push("FAILED the last fold's partial did not round-trip through WireState".into());
    }
    let failed = with_trace.failed() + plain.failed() + u64::from(!partial_ok);
    Ok((
        Report {
            workload: spec.name,
            correct: failed == 0,
            attempted: with_trace.attempted + plain.attempted,
            failed,
            metrics,
            extra: vec![error_rate(&with_trace)],
            notes,
        },
        tracer,
    ))
}
