//! The benchmark's command line; see `README.md` for the commands.

// Timing is this binary's whole job.
#![allow(clippy::disallowed_methods)]

use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use perfbench::args::{parse, Mode, USAGE};
use perfbench::bench::{measure, trace, Budget};
use perfbench::compare::{compare, RESULTS_FILE};
use perfbench::workloads::{Env, Spec, WORKLOADS};

/// Results, span files and the CSV input, relative to the working
/// directory (the root of a checkout).
const RESULTS_DIR: &str = "results/perfbench";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse(&args) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match mode {
        Mode::Worker { listen, once } => {
            mcim_dist::worker_main(&listen, once).map_err(|e| format!("worker failed: {e}"))
        }
        Mode::Compare { parent, change } => compare_dirs(&parent, &change),
        Mode::Run {
            workload: Some(name),
            seed,
            seconds,
            trace,
        } => run_one(&name, seed, seconds, trace),
        Mode::Run {
            workload: None,
            seed,
            seconds,
            trace,
        } => run_all(seed, seconds, trace),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn read_file(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Compares the results files of two results directories under the bounds
/// of the `BENCHMARK.json` in the working directory.
fn compare_dirs(parent: &Path, change: &Path) -> Result<(), String> {
    let table = compare(
        &read_file(Path::new("BENCHMARK.json"))?,
        &read_file(&parent.join(RESULTS_FILE))?,
        &read_file(&change.join(RESULTS_FILE))?,
    )?;
    print!("{table}");
    Ok(())
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// One workload in this process: prints a line per metric, appends the
/// result to the results file, and prints the result object last.
fn run_one(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<(), String> {
    let spec = Spec::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })?;
    let dir = PathBuf::from(RESULTS_DIR);
    let env = Env {
        scratch: dir.clone(),
        worker: std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?,
    };
    let budget = Budget::new(seconds, traced);
    let report = if traced {
        let (report, tracer) = trace(spec, seed, &env, &budget)?;
        let path = dir.join(format!("{name}.trace.json"));
        write_file(&path, &tracer.to_json(name, seed))?;
        println!("{name} span_file {}", path.display());
        report
    } else {
        measure(spec, seed, &env, &budget)?
    };
    for line in report.lines() {
        println!("{line}");
    }
    let json = report.json();
    let record = format!(
        "{{\"workload\": \"{name}\", \"seed\": {seed}, \"trace\": {}, \"result\": {json}}}\n",
        u8::from(traced)
    );
    let results = dir.join(RESULTS_FILE);
    std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&results)
        })
        .and_then(|mut f| f.write_all(record.as_bytes()))
        .map_err(|e| format!("appending to {}: {e}", results.display()))?;
    println!("{json}");
    if report.correct {
        Ok(())
    } else {
        Err(format!(
            "{name}: {} of {} runs failed",
            report.failed, report.attempted
        ))
    }
}

/// Every workload, each in a fresh child process so its peak RSS is its
/// own; writes the combined result objects to one file.
fn run_all(seed: u64, seconds: f64, traced: bool) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut objects = Vec::new();
    let mut failed = Vec::new();
    for spec in WORKLOADS {
        let mut child = Command::new(&exe)
            .args(["--workload", spec.name, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if traced { "1" } else { "0" },
            ])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut last: Option<String> = None;
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("reading {}'s output: {e}", spec.name))?;
            if let Some(previous) = last.replace(line) {
                println!("{previous}");
            }
        }
        let status = child
            .wait()
            .map_err(|e| format!("waiting for {}: {e}", spec.name))?;
        match last {
            Some(object) if object.starts_with('{') => {
                objects.push(format!("\"{}\": {object}", spec.name))
            }
            Some(line) => println!("{line}"),
            None => {}
        }
        if !status.success() {
            failed.push(spec.name);
        }
    }
    let path = Path::new(RESULTS_DIR).join(format!("summary-trace{}.json", u8::from(traced)));
    write_file(
        &path,
        &format!(
            "{{\"seed\": {seed}, \"trace\": {}, \"workloads\": {{{}}}}}\n",
            u8::from(traced),
            objects.join(", ")
        ),
    )?;
    println!("summary {}", path.display());
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("failed workloads: {}", failed.join(", ")))
    }
}
