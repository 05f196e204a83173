//! # mcim-bench
//!
//! Shared harness for the benchmark targets. `figures` holds one registry
//! row per table and figure of the paper's evaluation (§VII): each prints
//! its tables, writes each as a CSV under `results/` and prints the
//! paper's claim. `oracle_throughput` and `stream_ingestion` time the
//! runtime and write the `BENCH_*.json` baselines.
//!
//! ## Scaling
//!
//! Paper-scale workloads (5–9M users, 14k–28k items, 20 trials) exceed a CI
//! time budget; every target therefore reads (see [`BenchEnv::from_env`]):
//!
//! * `MCIM_SCALE` — `small` (default) or `paper`,
//! * `MCIM_TRIALS` — trial-count override, a positive integer.
//!
//! `oracle_throughput` and `stream_ingestion` read their workload sizes
//! (`MCIM_BENCH_N`, `MCIM_BENCH_EXEC_N`, `MCIM_CHUNK`) through
//! [`count_from_env`], just as strictly.
//!
//! The README section "Reproducing the paper's tables and figures" shows
//! how to run the registry, whole or filtered by row name.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod workloads;

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::PathBuf;

/// Workload scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop/CI scale (default): seconds per figure.
    Small,
    /// The paper's full sizes: hours per figure.
    Paper,
}

/// Environment-driven benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct BenchEnv {
    /// Selected workload scale.
    pub scale: Scale,
    /// Number of trials to average (paper: 20).
    pub trials: usize,
}

impl BenchEnv {
    /// Reads `MCIM_SCALE` / `MCIM_TRIALS`, with `default_trials` used for
    /// the small scale (paper scale defaults to the paper's 20 trials).
    ///
    /// An unknown scale, or a trial count that is 0 or not a number, is an
    /// [`io::ErrorKind::InvalidInput`] error that names the variable: zero
    /// trials would average nothing into all-zero tables.
    pub fn from_env(default_trials: usize) -> io::Result<Self> {
        Self::from_vars(
            env_value("MCIM_SCALE").as_deref(),
            env_value("MCIM_TRIALS").as_deref(),
            default_trials,
        )
    }

    /// [`BenchEnv::from_env`] with the variables' values injected —
    /// testable without mutating process-global environment.
    fn from_vars(
        scale: Option<&str>,
        trials: Option<&str>,
        default_trials: usize,
    ) -> io::Result<Self> {
        let scale = match scale {
            None | Some("small" | "SMALL") => Scale::Small,
            Some("paper" | "PAPER" | "full") => Scale::Paper,
            Some(s) => {
                let msg = format!("MCIM_SCALE={s}: expected `small` or `paper`");
                return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
            }
        };
        let default_trials = match scale {
            Scale::Small => default_trials,
            Scale::Paper => 20,
        };
        let trials = parse_count("MCIM_TRIALS", trials, default_trials)?;
        Ok(BenchEnv { scale, trials })
    }

    /// Announces the configuration on stdout.
    pub fn announce(&self, bench: &str) {
        println!(
            "== {bench} | scale={:?} trials={} (set MCIM_SCALE=paper / MCIM_TRIALS=n to change) ==",
            self.scale, self.trials
        );
    }
}

/// Reads the count variable `name` (a workload size), `default` when
/// unset. A value that is 0 or not a number is an
/// [`io::ErrorKind::InvalidInput`] error that names the variable, as for
/// `MCIM_TRIALS`.
pub fn count_from_env(name: &str, default: usize) -> io::Result<usize> {
    parse_count(name, env_value(name).as_deref(), default)
}

/// The environment variable `name`, if set.
fn env_value(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}

/// [`count_from_env`] with the variable's value injected.
fn parse_count(name: &str, value: Option<&str>, default: usize) -> io::Result<usize> {
    match value.map(str::parse) {
        None => Ok(default),
        Some(Ok(n)) if n > 0 => Ok(n),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "{name}={}: expected a count above 0",
                value.unwrap_or_default()
            ),
        )),
    }
}

/// A printable, CSV-dumpable results table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table. `name` becomes the CSV file stem.
    pub fn new(name: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            name: name.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header arity).
    pub fn push(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(line, "{cell:>w$}  ");
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Prints the table and writes `results/<name>.csv` (see
    /// [`results_dir`]), creating the directory on first run.
    pub fn print_and_save(&self) -> io::Result<PathBuf> {
        println!("{}", self.render());
        let path = self.save_csv(&results_dir())?;
        println!("[saved {}]\n", path.display());
        Ok(path)
    }

    /// Writes `<dir>/<name>.csv`, creating `dir` (and parents) if absent.
    pub fn save_csv(&self, dir: &std::path::Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("creating results dir {}: {e}", dir.display()),
            )
        })?;
        let path = dir.join(format!("{}.csv", self.name));
        fs::write(&path, self.to_csv())
            .map_err(|e| io::Error::new(e.kind(), format!("writing {}: {e}", path.display())))?;
        Ok(path)
    }

    /// Renders the table as RFC-4180-style CSV.
    pub fn to_csv(&self) -> String {
        let mut csv = String::new();
        let esc = |s: &str| {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            csv,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                csv,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        csv
    }
}

/// Where CSVs land: `MCIM_RESULTS` if set, otherwise the repo root's
/// `results/` directory (resolved lexically from this crate's location so
/// the path is identical no matter which directory the target is run from).
pub fn results_dir() -> PathBuf {
    results_dir_from(std::env::var_os("MCIM_RESULTS"))
}

/// [`results_dir`] with the override injected — testable without mutating
/// process-global environment.
fn results_dir_from(env_override: Option<std::ffi::OsString>) -> PathBuf {
    if let Some(dir) = env_override {
        return PathBuf::from(dir);
    }
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    // crates/bench -> repo root, without leaving ".." components in the
    // path benches print and error messages show.
    manifest
        .parent()
        .and_then(std::path::Path::parent)
        .map(|root| root.join("results"))
        .unwrap_or_else(|| manifest.join("results"))
}

/// Runs `trials` independent jobs (seeded 0..trials) across threads and
/// collects the results in trial order.
pub fn run_trials<T, F>(trials: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(trials.max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let done: Vec<std::sync::Mutex<Option<T>>> =
        (0..trials).map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= trials {
                    break;
                }
                let value = f(i as u64);
                *done[i].lock().expect("slot lock") = Some(value);
            });
        }
    });
    done.into_iter()
        .map(|m| {
            m.into_inner()
                .expect("lock")
                .expect("every trial slot filled")
        })
        .collect()
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Formats a float compactly for table cells.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 || x.abs() < 0.01 {
        format!("{x:.3e}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults_to_small() {
        let env = BenchEnv::from_vars(None, None, 5).unwrap();
        assert_eq!((env.scale, env.trials), (Scale::Small, 5));
    }

    #[test]
    fn env_parses_or_names_the_bad_variable() {
        let env = |scale, trials| BenchEnv::from_vars(scale, trials, 5);
        let ok = env(None, Some("7")).unwrap();
        assert_eq!((ok.scale, ok.trials), (Scale::Small, 7));
        let paper = env(Some("paper"), None).unwrap();
        assert_eq!((paper.scale, paper.trials), (Scale::Paper, 20));
        for (scale, trials, var) in [
            (None, Some("0"), "MCIM_TRIALS"),
            (None, Some("abc"), "MCIM_TRIALS"),
            (Some("large"), None, "MCIM_SCALE"),
        ] {
            let err = env(scale, trials).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            let shown = format!("{var}={}:", scale.or(trials).unwrap());
            assert!(err.to_string().starts_with(&shown), "{err}");
        }
    }

    #[test]
    fn counts_parse_strictly() {
        let parse = |value| parse_count("MCIM_BENCH_N", value, 5);
        assert_eq!(parse(None).unwrap(), 5);
        assert_eq!(parse(Some("7")).unwrap(), 7);
        for bad in ["0", "abc"] {
            let err = parse(Some(bad)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert!(
                err.to_string().starts_with(&format!("MCIM_BENCH_N={bad}:")),
                "{err}"
            );
        }
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("test", &["a", "long_header"]);
        t.push(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("long_header"));
        assert!(s.lines().count() >= 3);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new("test", &["a"]);
        t.push(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn run_trials_returns_in_order() {
        let out = run_trials(16, |seed| seed * 2);
        assert_eq!(out, (0..16).map(|i| i * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn save_csv_creates_missing_directory() {
        let dir = std::env::temp_dir().join(format!(
            "mcim_bench_save_csv_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let nested = dir.join("results");
        let _ = fs::remove_dir_all(&dir);
        assert!(!nested.exists(), "fresh temp dir");

        let mut t = Table::new("first_run", &["a", "b"]);
        t.push(vec!["1".into(), "x,y".into()]);
        let path = t.save_csv(&nested).expect("first run must create the dir");
        let written = fs::read_to_string(&path).unwrap();
        assert_eq!(written, "a,b\n1,\"x,y\"\n", "quoted CSV cell");

        // Second run overwrites without error.
        t.save_csv(&nested).expect("existing dir is fine too");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn to_csv_escapes_quotes() {
        let mut t = Table::new("esc", &["h"]);
        t.push(vec!["say \"hi\"".into()]);
        assert_eq!(t.to_csv(), "h\n\"say \"\"hi\"\"\"\n");
    }

    #[test]
    fn results_dir_has_no_dotdot_components() {
        let dir = results_dir_from(None);
        assert!(
            dir.components()
                .all(|c| c != std::path::Component::ParentDir),
            "normalized: {}",
            dir.display()
        );
        assert!(dir.ends_with("results"));
        assert_eq!(
            results_dir_from(Some("/tmp/override".into())),
            PathBuf::from("/tmp/override"),
            "env override wins"
        );
    }

    #[test]
    fn mean_and_fmt() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(fmt(0.0), "0");
        assert!(fmt(12345.0).contains('e'));
        assert_eq!(fmt(0.5), "0.500");
    }
}
