//! The four workloads: their inputs, set-up, one run, and the checks on a
//! run's output.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use mcim_core::analysis::{cp_variance_exact, CpProbs};
use mcim_core::{Domains, EstimationResult, Framework, FrequencyTable, LabelItem};
use mcim_datasets::{
    jd_like, CsvPairSource, RealConfig, SyntheticPairSource, SyntheticSourceConfig,
};
use mcim_dist::{Coordinator, DistConfig};
use mcim_oracles::exec::{Exec, Executor, InProcess};
use mcim_oracles::stream::{drain_source, ReportSource, SliceSource};
use mcim_oracles::{Eps, Error};
use mcim_topk::{TopKConfig, TopKMethod, TopKResult};

use crate::stats::{rmse_ratio, Digest};
use crate::trace::{BenchExecutor, TracedSource, Tracer, FRAMEWORK_PIPELINE, TOPK_PIPELINE};

/// Per-run bounds on RMSE over the analytic standard deviation.
pub const RMSE_RATIO_RANGE: (f64, f64) = (0.8, 1.25);

/// Lowest acceptable mean F1 of one top-k run. One run's mean over the five
/// classes ranged 0.50–0.68 over eight runs each of data seeds 1–10.
pub const F1_FLOOR: f64 = 0.4;

/// What a workload computes.
#[derive(Debug, Clone, Copy)]
pub enum Task {
    /// Classwise frequency estimation.
    Freq(Framework),
    /// Multi-class top-k mining of `k` items per class.
    TopK(TopKMethod, usize),
}

/// Where a workload's pairs come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// Zipf(1.5) synthetic pairs held in memory.
    Memory,
    /// The same generator written to a CSV file during set-up and streamed
    /// from disk by every run.
    Csv,
    /// The JD-like imbalanced five-class dataset, held in memory.
    Jd,
}

/// Which executor folds the stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The in-process executor, pinned to one thread.
    InProcess,
    /// A coordinator with one spawned worker process over loopback.
    Dist,
}

/// One workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line and in every metric line.
    pub name: &'static str,
    /// Class-domain size `c`.
    pub classes: u32,
    /// Item-domain size `d`.
    pub items: u32,
    /// Total budget ε.
    pub eps: f64,
    /// Users per run.
    pub users: u64,
    /// What runs.
    pub task: Task,
    /// Input kind.
    pub input: Input,
    /// Executor kind.
    pub backend: Backend,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Spec; 4] = [
    // ROADMAP's headline pipeline: each report carries a 16-word OUE noise
    // plane, so `Stage::fold` is nearly all of the run.
    Spec {
        name: "freq_pts_d1024",
        classes: 8,
        items: 1024,
        eps: 1.0,
        users: 1_000_000,
        task: Task::Freq(Framework::Pts { label_frac: 0.5 }),
        input: Input::Memory,
        backend: Backend::InProcess,
    },
    // The paper's correlated perturbation on 1-word reports streamed from
    // disk: per-report fixed costs (GRR label, validity flag, report
    // allocation, CSV parsing) dominate, and memory stays bounded.
    Spec {
        name: "freq_cp_csv_stream",
        classes: 16,
        items: 64,
        eps: 6.0,
        users: 1_000_000,
        task: Task::Freq(Framework::PtsCp { label_frac: 0.5 }),
        input: Input::Csv,
        backend: Backend::InProcess,
    },
    // Multi-round mining: 12 executor folds per run over shrinking candidate
    // sets expose the per-fold costs the single-fold workloads hide.
    // PTS-Shuffling+VP+CP never reaches `Executor::fold`, so none of its
    // layers could be seen from outside.
    Spec {
        name: "topk_jd_pem",
        classes: 5,
        items: 2048,
        eps: 4.0,
        users: 2_000_000,
        task: Task::TopK(
            TopKMethod::PtsPem {
                validity: true,
                global: true,
            },
            10,
        ),
        input: Input::Jd,
        backend: Backend::InProcess,
    },
    // With 1-word reports compute is cheap, so chunk encoding, the socket
    // and partial decoding become a visible share of the run.
    Spec {
        name: "dist_pts_d64_w1",
        classes: 8,
        items: 64,
        eps: 1.0,
        users: 1_000_000,
        task: Task::Freq(Framework::Pts { label_frac: 0.5 }),
        input: Input::Memory,
        backend: Backend::Dist,
    },
];

impl Spec {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().find(|w| w.name == name).copied()
    }

    /// The budget as a validated [`Eps`].
    pub fn budget(&self) -> Eps {
        Eps::new(self.eps).expect("workload budgets are positive")
    }

    /// `(ε₁, ε₂)`: the label and item budgets of the PTS family.
    pub fn split_budget(&self) -> mcim_oracles::Result<(Eps, Eps)> {
        let frac = match self.task {
            Task::Freq(Framework::Pts { label_frac } | Framework::PtsCp { label_frac }) => {
                label_frac
            }
            Task::Freq(_) => 0.5,
            Task::TopK(..) => TopKConfig::new(1, self.budget()).label_frac,
        };
        self.budget().split(frac)
    }
}

/// Where set-up may write, and the binary that serves as a dist worker.
#[derive(Debug, Clone)]
pub struct Env {
    /// Directory for the CSV input (created on demand).
    pub scratch: PathBuf,
    /// An executable accepting `worker --listen <addr> --once`.
    pub worker: PathBuf,
}

/// The expected answer a run is checked against.
enum Truth {
    Freq {
        table: FrequencyTable,
        /// Mean over cells of the analytic variance of an estimate.
        mean_variance: f64,
    },
    TopK(Vec<Vec<u32>>),
}

/// A CSV input file, deleted when dropped.
struct CsvFile(PathBuf);

impl Drop for CsvFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A set-up workload, ready to run.
pub struct Prepared {
    /// The workload.
    pub spec: Spec,
    domains: Domains,
    pairs: Vec<LabelItem>,
    csv: Option<CsvFile>,
    truth: Truth,
    coordinator: Option<Coordinator>,
    /// Digest of the in-process reference for the dist workload's run 0.
    reference: Option<u64>,
}

/// One run's output.
pub enum Output {
    /// A frequency table.
    Freq(EstimationResult),
    /// Mined top-k lists.
    TopK(TopKResult),
}

/// What the checks extract from a run's output.
#[derive(Debug, Clone, Copy)]
pub struct Checked {
    /// Fingerprint of every output bit.
    pub digest: u64,
    /// Total uplink report bits ÷ users.
    pub uplink_bits_per_user: f64,
    /// Frequency workloads: RMSE over the analytic standard deviation.
    pub rmse_ratio: Option<f64>,
    /// Top-k workloads: mean F1@k over classes.
    pub f1_at_k: Option<f64>,
    /// Top-k workloads: downlink bits per user.
    pub broadcast_bits_per_user: Option<f64>,
}

/// Run `i`'s plan seed: the `i`-th output of SplitMix64 over the seed.
pub fn plan_seeds(seed: u64) -> impl Iterator<Item = u64> {
    let mut stream = mcim_oracles::hash::SplitMix64::new(seed);
    std::iter::repeat_with(move || stream.next_u64())
}

fn synthetic(spec: &Spec, seed: u64) -> SyntheticPairSource {
    SyntheticPairSource::new(SyntheticSourceConfig {
        classes: spec.classes,
        items: spec.items,
        users: spec.users,
        zipf_s: 1.5,
        seed,
    })
}

fn io_error(what: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Source {
        message: format!("{what} {}: {e}", path.display()),
    }
}

/// Streams the synthetic pairs to `path` as `label,item` lines and returns
/// their true counts.
fn write_csv(
    spec: &Spec,
    seed: u64,
    path: &Path,
    domains: Domains,
) -> mcim_oracles::Result<FrequencyTable> {
    let file = std::fs::File::create(path).map_err(|e| io_error("creating", path, e))?;
    let mut out = std::io::BufWriter::new(file);
    let mut truth = FrequencyTable::zeros(domains);
    let mut source = synthetic(spec, seed);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if source.fill(&mut buf, 1 << 16)? == 0 {
            break;
        }
        for p in &buf {
            *truth.get_mut(p.label, p.item) += 1.0;
            writeln!(out, "{},{}", p.label, p.item).map_err(|e| io_error("writing", path, e))?;
        }
    }
    out.flush().map_err(|e| io_error("writing", path, e))?;
    Ok(truth)
}

/// Exact variance of the PTS estimate Eq. (6) of one cell.
///
/// `analysis::pts_variance` treats `n̂` and the global item estimate as
/// independent of the raw pair count, although all three count the same
/// reports; at `d = 1024`, ε = 1 it overstates the variance about 2.4×. Up
/// to constants the estimate is `Σ_u X_u / ((p₁−q₁)(p₂−q₂))` with
/// `X = A·B − q₂·A − q₁·B`, where `A` (label reported as `C`) and `B` (bit
/// `I` set) are independent Bernoulli(`a`), Bernoulli(`b`) draws, so the
/// variance is a sum over the four user populations of
/// `Var X = ab(1 − 2q₁ − 2q₂ + 2q₁q₂) + q₂²a + q₁²b − (ab − q₂a − q₁b)²`.
fn pts_variance_exact(f: f64, n: f64, f_item: f64, n_total: f64, pr: CpProbs) -> f64 {
    let CpProbs { p1, q1, p2, q2 } = pr;
    let var_x = |a: f64, b: f64| {
        let mean = a * b - q2 * a - q1 * b;
        a * b * (1.0 - 2.0 * q1 - 2.0 * q2 + 2.0 * q1 * q2) + q2 * q2 * a + q1 * q1 * b
            - mean * mean
    };
    let raw = f * var_x(p1, p2)
        + (n - f) * var_x(p1, q2)
        + (f_item - f) * var_x(q1, p2)
        + (n_total - n - f_item + f) * var_x(q1, q2);
    let denom = (p1 - q1) * (p2 - q2);
    raw / (denom * denom)
}

/// Mean over all cells of the analytic variance of the framework's
/// estimate given the true table: [`pts_variance_exact`] for PTS,
/// `analysis::cp_variance_exact` for PTS-CP.
fn mean_cell_variance(spec: &Spec, truth: &FrequencyTable) -> mcim_oracles::Result<f64> {
    let (e1, e2) = spec.split_budget()?;
    let pr = CpProbs::standard(e1, e2, spec.classes)?;
    let n_total = spec.users as f64;
    let item_totals: Vec<f64> = (0..spec.items).map(|i| truth.item_total(i)).collect();
    let mut sum = 0.0;
    for label in 0..spec.classes {
        let n = truth.class_total(label);
        for item in 0..spec.items {
            let f = truth.get(label, item);
            sum += match spec.task {
                Task::Freq(Framework::PtsCp { .. }) => cp_variance_exact(f, n, n_total, pr),
                _ => pts_variance_exact(f, n, item_totals[item as usize], n_total, pr),
            };
        }
    }
    Ok(sum / f64::from(spec.classes * spec.items))
}

static CSV_SERIAL: AtomicU64 = AtomicU64::new(0);

impl Prepared {
    /// Set-up: generates the input from `seed` (and writes the CSV),
    /// computes the truth, connects the dist worker and checks an
    /// in-process reference, then makes one untimed warm-up run with run
    /// 0's plan seed.
    pub fn setup(spec: Spec, seed: u64, env: &Env) -> mcim_oracles::Result<Prepared> {
        let domains = Domains::new(spec.classes, spec.items)?;
        let mut csv = None;
        let (pairs, table) = match spec.input {
            Input::Memory => {
                let pairs = drain_source(&mut synthetic(&spec, seed))?;
                let table = FrequencyTable::ground_truth(domains, &pairs)?;
                (pairs, table)
            }
            Input::Csv => {
                std::fs::create_dir_all(&env.scratch)
                    .map_err(|e| io_error("creating", &env.scratch, e))?;
                let path = env.scratch.join(format!(
                    "{}-{seed}-{}-{}.csv",
                    spec.name,
                    std::process::id(),
                    CSV_SERIAL.fetch_add(1, Ordering::Relaxed)
                ));
                let file = CsvFile(path);
                let table = write_csv(&spec, seed, &file.0, domains)?;
                csv = Some(file);
                (Vec::new(), table)
            }
            Input::Jd => {
                let users = usize::try_from(spec.users).expect("user count fits in memory");
                let pairs = jd_like(RealConfig {
                    users,
                    items: spec.items,
                    seed,
                })
                .pairs;
                let table = FrequencyTable::ground_truth(domains, &pairs)?;
                (pairs, table)
            }
        };
        let truth = match spec.task {
            Task::Freq(_) => Truth::Freq {
                mean_variance: mean_cell_variance(&spec, &table)?,
                table,
            },
            Task::TopK(_, k) => Truth::TopK((0..spec.classes).map(|c| table.top_k(c, k)).collect()),
        };
        let mut prepared = Prepared {
            spec,
            domains,
            pairs,
            csv,
            truth,
            coordinator: None,
            reference: None,
        };
        let first_seed = plan_seeds(seed).next().expect("endless stream");
        if spec.backend == Backend::Dist {
            let reference =
                prepared.run_on(&InProcess::new(&plan(first_seed)), first_seed, None)?;
            prepared.reference = Some(prepared.check(&reference).map_err(check_error)?.digest);
            prepared.coordinator = Some(Coordinator::connect_spawned(
                &plan(0),
                &env.worker,
                1,
                DistConfig::default(),
            )?);
        }
        let warm = prepared.run(first_seed, None)?;
        let checked = prepared.check(&warm).map_err(check_error)?;
        if prepared.reference.is_some_and(|r| r != checked.digest) {
            return Err(check_error(
                "the dist run differs from its in-process reference".into(),
            ));
        }
        Ok(prepared)
    }

    /// The first `n` pairs of the workload's input, wherever it lives.
    pub fn head(&self, n: usize) -> mcim_oracles::Result<Vec<LabelItem>> {
        match &self.csv {
            Some(file) => {
                let mut source = CsvPairSource::open(&file.0)?;
                let mut buf = Vec::with_capacity(n);
                loop {
                    let want = n - buf.len();
                    if want == 0 || source.fill(&mut buf, want)? == 0 {
                        return Ok(buf);
                    }
                }
            }
            None => Ok(self.pairs[..n.min(self.pairs.len())].to_vec()),
        }
    }

    /// The digest run 0 must reproduce, for the dist workload.
    pub fn reference(&self) -> Option<u64> {
        self.reference
    }

    /// One run with `plan_seed`, through the workload's backend pinned to
    /// one thread, traced when `tracer` is given.
    pub fn run(&self, plan_seed: u64, tracer: Option<&Tracer>) -> mcim_oracles::Result<Output> {
        match &self.coordinator {
            Some(coordinator) => self.run_on(coordinator, plan_seed, tracer),
            None => self.run_on(&InProcess::new(&plan(plan_seed)), plan_seed, tracer),
        }
    }

    fn run_on<E: Executor>(
        &self,
        backend: &E,
        plan_seed: u64,
        tracer: Option<&Tracer>,
    ) -> mcim_oracles::Result<Output> {
        let executor = BenchExecutor::new(backend, plan(plan_seed), tracer);
        match &self.csv {
            Some(file) => self.execute(&executor, CsvPairSource::open(&file.0)?, tracer),
            None => self.execute(&executor, SliceSource::new(&self.pairs), tracer),
        }
    }

    fn execute<E, S>(
        &self,
        executor: &E,
        source: S,
        tracer: Option<&Tracer>,
    ) -> mcim_oracles::Result<Output>
    where
        E: Executor,
        S: ReportSource<Item = LabelItem>,
    {
        let source = TracedSource::new(source, tracer);
        match self.spec.task {
            Task::Freq(fw) => {
                let _span = tracer.map(|t| t.span(FRAMEWORK_PIPELINE));
                fw.execute_on(executor, self.spec.budget(), self.domains, source)
                    .map(Output::Freq)
            }
            Task::TopK(method, k) => {
                let _span = tracer.map(|t| t.span(TOPK_PIPELINE));
                let config = TopKConfig::new(k, self.spec.budget());
                mcim_topk::execute_on(method, config, self.domains, executor, source)
                    .map(Output::TopK)
            }
        }
    }

    /// Checks a run's output and extracts its quality and cost figures.
    pub fn check(&self, output: &Output) -> Result<Checked, String> {
        let mut digest = Digest::default();
        let mut checked = Checked {
            digest: 0,
            uplink_bits_per_user: 0.0,
            rmse_ratio: None,
            f1_at_k: None,
            broadcast_bits_per_user: None,
        };
        // Top-k users send two reports each: the GRR label that routes
        // them, and their item report.
        let (comm, reports_per_user) = match (output, &self.truth, self.spec.task) {
            (
                Output::Freq(result),
                Truth::Freq {
                    table,
                    mean_variance,
                },
                _,
            ) => {
                result.table.values().iter().for_each(|&v| digest.float(v));
                let ratio = rmse_ratio(result.table.values(), table.values(), *mean_variance);
                let (lo, hi) = RMSE_RATIO_RANGE;
                if !(lo..=hi).contains(&ratio) {
                    return Err(format!("rmse_ratio {ratio:.4} outside [{lo}, {hi}]"));
                }
                checked.rmse_ratio = Some(ratio);
                (result.comm, 1)
            }
            (Output::TopK(result), Truth::TopK(top), Task::TopK(_, k)) => {
                if result.per_class.len() != top.len() {
                    return Err(format!(
                        "{} classes mined, expected {}",
                        result.per_class.len(),
                        top.len()
                    ));
                }
                let mut f1 = 0.0;
                for (class, (mined, truth)) in result.per_class.iter().zip(top).enumerate() {
                    if mined.len() != k {
                        return Err(format!(
                            "class {class} mined {} items, expected {k}",
                            mined.len()
                        ));
                    }
                    digest.word(mined.len() as u64);
                    mined.iter().for_each(|&i| digest.word(u64::from(i)));
                    f1 += mcim_metrics::f1_at_k(mined, truth);
                }
                f1 /= top.len() as f64;
                if f1 < F1_FLOOR {
                    return Err(format!("mean F1@{k} {f1:.3} below the floor {F1_FLOOR}"));
                }
                digest.float(result.broadcast_bits_per_user);
                checked.f1_at_k = Some(f1);
                checked.broadcast_bits_per_user = Some(result.broadcast_bits_per_user);
                (result.comm, 2)
            }
            _ => return Err("output kind does not match the workload".into()),
        };
        if comm.users != reports_per_user * self.spec.users {
            return Err(format!(
                "{} reports, expected {reports_per_user} from each of {} users",
                comm.users, self.spec.users
            ));
        }
        digest.word(comm.total_report_bits);
        digest.word(comm.users);
        checked.digest = digest.value();
        checked.uplink_bits_per_user = comm.total_report_bits as f64 / self.spec.users as f64;
        Ok(checked)
    }
}

/// Every in-process plan runs on one thread, whatever `MCIM_THREADS`
/// says: on a small shared machine two-thread run times spread far more
/// between sets of runs than one-thread run times do.
fn plan(seed: u64) -> Exec {
    Exec::seeded(seed).threads(1)
}

fn check_error(message: String) -> Error {
    Error::Source {
        message: format!("set-up check failed: {message}"),
    }
}
