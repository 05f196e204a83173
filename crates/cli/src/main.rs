//! `mcim` — multi-class item mining under local differential privacy.
//!
//! ```text
//! mcim freq --input pairs.csv --eps 2.0 --framework pts-cp --output est.csv
//! mcim topk --input pairs.csv --eps 4.0 --k 20 --method pts-opt --output top.csv
//! mcim gen  --dataset jd --users 100000 --items 2048 --output pairs.csv
//! mcim worker --listen 127.0.0.1:7001
//! mcim freq --input pairs.csv --eps 2.0 --dist 127.0.0.1:7001,127.0.0.1:7002
//! mcim help
//! ```

mod args;
mod io;

use std::path::Path;
use std::process::ExitCode;

use args::{ArgError, Args};
use mcim_core::Framework;
use mcim_topk::{TopKConfig, TopKMethod};

const HELP: &str = "\
mcim — multi-class item mining under local differential privacy

USAGE:
  mcim freq --input <pairs.csv> --eps <f64> [options]
  mcim topk --input <pairs.csv> --eps <f64> --k <n> [options]
  mcim gen  --dataset <anime|jd|syn3|syn4> --users <n> [options]
  mcim worker --listen <addr[:port]> [--once]
  mcim help

COMMON OPTIONS:
  --classes <n>   class-domain size (default: inferred as max label + 1)
  --items <n>     item-domain size (default: inferred as max item + 1)
  --seed <n>      RNG seed of the execution plan (default 0)
  --threads <n>   worker threads for freq/topk (default: MCIM_THREADS env,
                  then the machine's parallelism; results are identical for
                  every thread count under a fixed --seed)
  --chunk-size <n> pairs pulled (and held) per ingestion chunk (default
                  4096, one shard, at one thread; 65536 otherwise). Values
                  below 4096 (one shard — chunks smaller than a shard
                  cannot parallelize) are raised to 4096.
                  Results are bit-identical for every chunk size.
  --dist <a,b,..> run the bulk stages on the distributed reducer: a
                  comma-separated list of `mcim worker` addresses. Results
                  are bit-identical to the local run under the same --seed,
                  for every worker count.
  --dist-spawn <n> like --dist, but spawn (and reap) n local worker
                  processes automatically
  --dist-timeout <ms> socket read/write deadline per worker conversation;
                  a worker silent for this long counts as failed and its
                  shards are re-routed (0 = wait forever, the default).
                  Don't set it below the time a worker legitimately needs
                  to fold its share, or slow-but-alive workers get dropped
  --dist-retries <n> connection attempts per worker (with deterministic
                  exponential backoff) and the per-fold re-route budget
                  (default 3 attempts, 8 re-routes). Requires --dist or
                  --dist-spawn, as does --dist-timeout. Worker loss is
                  survived either way: lost shards replay on surviving
                  workers, or in-process when none remain — results stay
                  bit-identical, only `--verbose` shows the difference
  --metrics-out <file> write the run's telemetry snapshot after the
                  results: Prometheus text exposition, or the JSON
                  envelope when the path ends in `.json`. Metrics never
                  change results — estimates are bit-identical with the
                  snapshot on or off (freq/topk only)
  --verbose       print the resolved execution plan (seed/threads/chunk/
                  contract) before running, then the telemetry
                  snapshot table (stage/fold timings plus the distributed
                  reducer's I/O and fold-report counters) after
  --output <file> write results as CSV (default: print a summary)

These options assemble one execution plan (see `Exec` in the library).
freq/topk stream the input file: `.ndjson`/`.jsonl` inputs are parsed as
{\"label\": c, \"item\": i} lines, anything else as CSV. When --classes or
--items is missing, one pre-pass over the file infers it. freq memory
stays bounded by the chunk; topk still holds the 8-byte pairs (multi-round
mining revisits them) but never the privatized reports.

freq OPTIONS:
  --framework <hec|ptj|pts|pts-cp>   (default pts-cp)
  --label-frac <f64>                 PTS budget share for the label (default 0.5)

topk OPTIONS:
  --method <hec|ptj|ptj-opt|pts|pts-opt>   (default pts-opt)
  --label-frac / --sample-frac / --noise-b  pipeline parameters (defaults 0.5 / 0.2 / 2)

gen OPTIONS:
  --classes <n>   class count for syn3/syn4 (default 10)
  --items <n>     item-domain size (default 2048)

worker OPTIONS:
  --listen <addr> bind address (port 0 picks an ephemeral port; the worker
                  prints `MCIM_WORKER_LISTENING <addr>` once bound).
                  Default 127.0.0.1:0
  --once          serve exactly one coordinator connection, then exit
                  (what --dist-spawn children run)
";

/// Best-effort stdout line: results piped into `head` (or any reader that
/// closes early) must end the program quietly, not panic like `println!`
/// does on a broken pipe.
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `mcim help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(raw: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse(raw)?;
    match args.command.as_str() {
        "help" | "--help" | "-h" => {
            out!("{HELP}");
            Ok(())
        }
        "freq" => cmd_freq(&args),
        "topk" => cmd_topk(&args),
        "gen" => cmd_gen(&args),
        "worker" => cmd_worker(&args),
        other => Err(ArgError(format!("unknown subcommand `{other}`")).into()),
    }
}

fn parse_framework(name: &str) -> Result<Framework, ArgError> {
    match name {
        "hec" => Ok(Framework::Hec),
        "ptj" => Ok(Framework::Ptj),
        "pts" => Ok(Framework::Pts { label_frac: 0.5 }),
        "pts-cp" => Ok(Framework::PtsCp { label_frac: 0.5 }),
        _ => Err(ArgError(format!(
            "unknown framework `{name}` (hec|ptj|pts|pts-cp)"
        ))),
    }
}

fn parse_method(name: &str) -> Result<TopKMethod, ArgError> {
    match name {
        "hec" => Ok(TopKMethod::Hec),
        "ptj" => Ok(TopKMethod::PtjPem { validity: false }),
        "ptj-opt" => Ok(TopKMethod::PtjShuffled { validity: true }),
        "pts" => Ok(TopKMethod::PtsPem {
            validity: false,
            global: false,
        }),
        "pts-opt" => Ok(TopKMethod::PtsShuffled {
            validity: true,
            global: true,
            correlated: true,
        }),
        _ => Err(ArgError(format!(
            "unknown method `{name}` (hec|ptj|ptj-opt|pts|pts-opt)"
        ))),
    }
}

/// Builds the transport config from `--dist-timeout`/`--dist-retries`
/// (defaults otherwise).
fn dist_config(args: &Args) -> Result<mcim_dist::DistConfig, Box<dyn std::error::Error>> {
    let mut config = mcim_dist::DistConfig::default();
    if args.optional("dist-timeout").is_some() {
        let millis: u64 = args.required_num("dist-timeout")?;
        // 0 = "wait forever"; the socket API would reject a zero timeout.
        config.io_timeout = (millis > 0).then(|| std::time::Duration::from_millis(millis));
    }
    if args.optional("dist-retries").is_some() {
        let n: u32 = args.required_num("dist-retries")?;
        config.connect_attempts = n.max(1);
        config.max_reroutes = n;
    }
    Ok(config)
}

/// Assembles the distributed backend from `--dist addr,addr,...` or
/// `--dist-spawn n` (mutually exclusive). `None` means run locally. The
/// coordinator owns any spawned children (adopted; reaped on drop) and
/// carries the `--dist-timeout`/`--dist-retries` transport knobs.
fn dist_setup(
    args: &Args,
    plan: &mcim_oracles::exec::Exec,
) -> Result<Option<mcim_dist::Coordinator>, Box<dyn std::error::Error>> {
    let addrs = args.optional("dist");
    let spawn = args.optional("dist-spawn");
    match (addrs, spawn) {
        (None, None) => {
            for knob in ["dist-timeout", "dist-retries"] {
                if args.optional(knob).is_some() {
                    return Err(
                        ArgError(format!("--{knob} requires --dist or --dist-spawn")).into(),
                    );
                }
            }
            Ok(None)
        }
        (Some(_), Some(_)) => {
            Err(ArgError("--dist and --dist-spawn are mutually exclusive".into()).into())
        }
        (Some(list), None) => {
            let addrs: Vec<&str> = list
                .split(',')
                .map(str::trim)
                .filter(|a| !a.is_empty())
                .collect();
            if addrs.is_empty() {
                return Err(ArgError("--dist needs at least one worker address".into()).into());
            }
            let coordinator =
                mcim_dist::Coordinator::connect_with(plan, &addrs, dist_config(args)?)?;
            Ok(Some(coordinator))
        }
        (None, Some(_)) => {
            let n: usize = args.required_num("dist-spawn")?;
            if n == 0 {
                return Err(ArgError("--dist-spawn needs at least one worker".into()).into());
            }
            let binary = std::env::current_exe()
                .map_err(|e| mcim_oracles::Error::transport("locating the mcim binary", e))?;
            let coordinator =
                mcim_dist::Coordinator::connect_spawned(plan, &binary, n, dist_config(args)?)?;
            Ok(Some(coordinator))
        }
    }
}

/// Turns metric recording on when this run asked for it (`--metrics-out`
/// or `--verbose`) and returns the export path, if any. Resets the
/// registry first so one process invocation is one snapshot.
fn metrics_setup(args: &Args) -> Option<&str> {
    let out = args.optional("metrics-out");
    if out.is_some() || args.flag("verbose") {
        mcim_obs::reset();
        mcim_obs::set_enabled(true);
    }
    out
}

/// Emits the run's telemetry: the `--verbose` snapshot table to stderr
/// (the one rendering path for fold reports, dist I/O and stage timings)
/// and the `--metrics-out` file — the JSON envelope for `.json` paths,
/// Prometheus text exposition otherwise.
fn metrics_finish(args: &Args, out: Option<&str>) -> Result<(), Box<dyn std::error::Error>> {
    if !mcim_obs::enabled() {
        return Ok(());
    }
    let snap = mcim_obs::snapshot();
    if args.flag("verbose") && !snap.is_empty() {
        eprint!("{}", snap.render_table());
    }
    if let Some(path) = out {
        let json = Path::new(path)
            .extension()
            .and_then(|e| e.to_str())
            .is_some_and(|e| e.eq_ignore_ascii_case("json"));
        let body = if json {
            snap.to_json()
        } else {
            snap.to_prometheus()
        };
        std::fs::write(path, body)
            .map_err(|e| mcim_oracles::Error::transport(format!("writing metrics to {path}"), e))?;
        eprintln!("wrote {path}");
    }
    mcim_obs::set_enabled(false);
    Ok(())
}

fn cmd_worker(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    args.expect_only(&["listen", "once"])?;
    let listen = args.optional("listen").unwrap_or("127.0.0.1:0");
    mcim_dist::worker_main(listen, args.flag("once"))?;
    Ok(())
}

/// Opens `input` with the `--classes`/`--items` domains (0 = infer).
fn open_input(
    args: &Args,
    input: &str,
) -> Result<io::CountedPairSource, Box<dyn std::error::Error>> {
    io::open_pairs(
        Path::new(input),
        args.num_or("classes", 0)?,
        args.num_or("items", 0)?,
    )
}

fn cmd_freq(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    args.expect_only(&[
        "input",
        "eps",
        "classes",
        "items",
        "seed",
        "threads",
        "chunk-size",
        "dist",
        "dist-spawn",
        "dist-timeout",
        "dist-retries",
        "verbose",
        "metrics-out",
        "output",
        "framework",
        "label-frac",
    ])?;
    let input = args.required("input")?;
    let eps = mcim_oracles::Eps::new(args.required_num::<f64>("eps")?)?;
    let label_frac: f64 = args.num_or("label-frac", 0.5)?;
    let framework = match parse_framework(args.optional("framework").unwrap_or("pts-cp"))? {
        Framework::Pts { .. } => Framework::Pts { label_frac },
        Framework::PtsCp { .. } => Framework::PtsCp { label_frac },
        other => other,
    };
    let plan = args.exec_plan()?;
    let metrics_out = metrics_setup(args);
    let dist = dist_setup(args, &plan)?;
    if args.flag("verbose") {
        eprintln!("plan: {plan}");
        if let Some(backend) = &dist {
            eprintln!("dist: {} workers", backend.workers());
        }
    }
    let mut source = open_input(args, input)?;
    let domains = source.domains();
    let result = match &dist {
        Some(backend) => framework.execute_on(backend, eps, domains, &mut source)?,
        None => framework.execute(eps, domains, &plan, &mut source)?,
    };
    let n = source.yielded();
    // Shut the backend down before snapshotting so its final I/O deltas
    // (including the Shutdown frames) land in the exported metrics; the
    // `mcim_dist_*` rows of the snapshot table carry the session's fold
    // accounting.
    drop(dist);
    eprintln!(
        "{}: N = {n}, c = {}, d = {}, {}, threads = {} — {:.0} uplink bits/user",
        framework.name(),
        domains.classes(),
        domains.items(),
        eps,
        plan.resolved_threads(),
        result.comm.bits_per_user()
    );
    match args.optional("output") {
        Some(path) => {
            io::write_frequency_csv(Path::new(path), &result.table)?;
            eprintln!("wrote {path}");
        }
        None => {
            out!("class | top-5 items by estimated frequency");
            for class in 0..domains.classes() {
                let top = result.table.top_k(class, 5);
                let cells: Vec<String> = top
                    .iter()
                    .map(|&i| format!("#{i} ({:.0})", result.table.get(class, i)))
                    .collect();
                out!("{class:>5} | {}", cells.join(", "));
            }
        }
    }
    metrics_finish(args, metrics_out)
}

fn cmd_topk(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    args.expect_only(&[
        "input",
        "eps",
        "k",
        "classes",
        "items",
        "seed",
        "threads",
        "chunk-size",
        "dist",
        "dist-spawn",
        "dist-timeout",
        "dist-retries",
        "verbose",
        "metrics-out",
        "output",
        "method",
        "label-frac",
        "sample-frac",
        "noise-b",
    ])?;
    let input = args.required("input")?;
    let eps = mcim_oracles::Eps::new(args.required_num::<f64>("eps")?)?;
    let k: usize = args.required_num("k")?;
    let method = parse_method(args.optional("method").unwrap_or("pts-opt"))?;
    let mut config = TopKConfig::new(k, eps);
    config.label_frac = args.num_or("label-frac", config.label_frac)?;
    config.sample_frac = args.num_or("sample-frac", config.sample_frac)?;
    config.noise_factor = args.num_or("noise-b", config.noise_factor)?;
    let plan = args.exec_plan()?;
    let metrics_out = metrics_setup(args);
    let dist = dist_setup(args, &plan)?;
    if args.flag("verbose") {
        eprintln!("plan: {plan}");
        if let Some(backend) = &dist {
            eprintln!("dist: {} workers", backend.workers());
        }
    }
    let mut source = open_input(args, input)?;
    let domains = source.domains();
    let result = match &dist {
        Some(backend) => mcim_topk::execute_on(method, config, domains, backend, &mut source)?,
        None => mcim_topk::execute(method, config, domains, &plan, &mut source)?,
    };
    let n = source.yielded();
    // See cmd_freq: the backend flushes its final I/O deltas on drop.
    drop(dist);
    eprintln!(
        "{}: N = {n}, c = {}, d = {}, {}, k = {k}, threads = {} — {:.0} uplink bits/user",
        method.name(),
        domains.classes(),
        domains.items(),
        eps,
        plan.resolved_threads(),
        result.comm.bits_per_user()
    );
    match args.optional("output") {
        Some(path) => {
            io::write_topk_csv(Path::new(path), &result.per_class)?;
            eprintln!("wrote {path}");
        }
        None => {
            for (class, items) in result.per_class.iter().enumerate() {
                out!("class {class}: {items:?}");
            }
        }
    }
    metrics_finish(args, metrics_out)
}

fn cmd_gen(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    args.expect_only(&["dataset", "users", "items", "classes", "seed", "output"])?;
    let dataset = args.required("dataset")?;
    let users: usize = args.num_or("users", 100_000)?;
    let items: u32 = args.num_or("items", 2_048)?;
    let classes: u32 = args.num_or("classes", 10)?;
    let seed: u64 = args.num_or("seed", 0)?;
    let ds = match dataset {
        "anime" => mcim_datasets::anime_like(mcim_datasets::RealConfig { users, items, seed }),
        "jd" => mcim_datasets::jd_like(mcim_datasets::RealConfig { users, items, seed }),
        "syn3" => mcim_datasets::syn3(mcim_datasets::SynLargeConfig {
            classes,
            items,
            users,
            seed,
        }),
        "syn4" => mcim_datasets::syn4(mcim_datasets::SynLargeConfig {
            classes,
            items,
            users,
            seed,
        }),
        other => {
            return Err(ArgError(format!("unknown dataset `{other}` (anime|jd|syn3|syn4)")).into())
        }
    };
    let output = args.optional("output").unwrap_or("pairs.csv");
    io::write_pairs_csv(Path::new(output), &ds.pairs)?;
    eprintln!(
        "generated {}: {} users, c = {}, d = {} → {output}",
        ds.name,
        ds.len(),
        ds.domains.classes(),
        ds.domains.items()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(parts: &[&str]) -> Result<(), Box<dyn std::error::Error>> {
        run(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("mcim-cli-main-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run_cli(&["help"]).is_ok());
        assert!(run_cli(&["frobnicate"]).is_err());
        assert!(run_cli(&[]).is_err());
    }

    #[test]
    fn gen_then_freq_then_topk() {
        let pairs = tmp("e2e_pairs.csv");
        run_cli(&[
            "gen",
            "--dataset",
            "syn4",
            "--users",
            "20000",
            "--items",
            "256",
            "--classes",
            "4",
            "--output",
            &pairs,
        ])
        .unwrap();

        let freq_out = tmp("e2e_freq.csv");
        run_cli(&[
            "freq",
            "--input",
            &pairs,
            "--eps",
            "4.0",
            "--framework",
            "pts-cp",
            "--output",
            &freq_out,
        ])
        .unwrap();
        let content = std::fs::read_to_string(&freq_out).unwrap();
        assert!(content.lines().count() > 4 * 256, "one row per cell");

        let topk_out = tmp("e2e_topk.csv");
        run_cli(&[
            "topk", "--input", &pairs, "--eps", "4.0", "--k", "5", "--method", "pts-opt",
            "--output", &topk_out,
        ])
        .unwrap();
        let content = std::fs::read_to_string(&topk_out).unwrap();
        assert!(content.starts_with("class,rank,item"));
        assert!(content.lines().count() > 1);
    }

    #[test]
    fn freq_output_is_identical_for_every_thread_count() {
        let pairs = tmp("threads_pairs.csv");
        run_cli(&[
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
        ])
        .unwrap();
        let mut outputs = Vec::new();
        for threads in ["1", "3"] {
            let out = tmp(&format!("threads_freq_{threads}.csv"));
            run_cli(&[
                "freq",
                "--input",
                &pairs,
                "--eps",
                "2.0",
                "--seed",
                "7",
                "--threads",
                threads,
                "--output",
                &out,
            ])
            .unwrap();
            outputs.push(std::fs::read_to_string(&out).unwrap());
        }
        assert_eq!(
            outputs[0], outputs[1],
            "estimates must not depend on --threads"
        );
    }

    #[test]
    fn streaming_freq_matches_batch_bit_for_bit() {
        let pairs = tmp("stream_pairs.csv");
        run_cli(&[
            "gen",
            "--dataset",
            "syn3",
            "--users",
            "12000",
            "--items",
            "64",
            "--classes",
            "3",
            "--output",
            &pairs,
        ])
        .unwrap();
        let batch_out = tmp("stream_freq_batch.csv");
        run_cli(&[
            "freq", "--input", &pairs, "--eps", "2.0", "--seed", "5", "--output", &batch_out,
        ])
        .unwrap();
        // Several chunk sizes, including one that splits shards mid-way
        // and `usize::MAX`, which must not be reserved up front.
        for chunk in ["1000", "4096", "5000", "18446744073709551615"] {
            let stream_out = tmp(&format!("stream_freq_{chunk}.csv"));
            run_cli(&[
                "freq",
                "--input",
                &pairs,
                "--eps",
                "2.0",
                "--seed",
                "5",
                "--chunk-size",
                chunk,
                "--classes",
                "3",
                "--items",
                "64",
                "--output",
                &stream_out,
            ])
            .unwrap();
            assert_eq!(
                std::fs::read_to_string(&batch_out).unwrap(),
                std::fs::read_to_string(&stream_out).unwrap(),
                "chunk-size {chunk} diverged from the batch run"
            );
        }
    }

    #[test]
    fn streaming_topk_runs_and_requires_domains() {
        let pairs = tmp("stream_topk_pairs.csv");
        run_cli(&[
            "gen",
            "--dataset",
            "syn4",
            "--users",
            "9000",
            "--items",
            "128",
            "--classes",
            "3",
            "--output",
            &pairs,
        ])
        .unwrap();
        // Without --classes/--items a chunked run infers the domains in a
        // pre-pass, exactly like the unchunked run.
        let run_topk = |extra: &[&str], out: &str| {
            let mut cmd = vec![
                "topk", "--input", &pairs, "--eps", "4.0", "--k", "3", "--seed", "2", "--output",
                out,
            ];
            cmd.extend_from_slice(extra);
            run_cli(&cmd).unwrap();
            std::fs::read_to_string(out).unwrap()
        };
        let unchunked = run_topk(&[], &tmp("stream_topk_plain.csv"));
        assert!(unchunked.starts_with("class,rank,item"));
        let inferred = run_topk(&["--chunk-size", "2048"], &tmp("stream_topk_inferred.csv"));
        assert_eq!(inferred, unchunked, "chunked run inferred other domains");
        let explicit = run_topk(
            &["--chunk-size", "2048", "--classes", "3", "--items", "128"],
            &tmp("stream_topk_explicit.csv"),
        );
        assert_eq!(explicit, unchunked);
    }

    /// NDJSON input is recognised by extension whether or not
    /// `--chunk-size` is given, and parses to the same pairs as CSV.
    #[test]
    fn ndjson_input_matches_csv_without_chunk_size() {
        let csv = tmp("ndjson_twin.csv");
        let ndjson = tmp("ndjson_twin.ndjson");
        let (mut csv_body, mut ndjson_body) = (String::from("label,item\n"), String::new());
        for u in 0..5000u32 {
            let (label, item) = (u % 3, (u * 7) % 40);
            csv_body.push_str(&format!("{label},{item}\n"));
            ndjson_body.push_str(&format!("{{\"label\": {label}, \"item\": {item}}}\n"));
        }
        std::fs::write(&csv, csv_body).unwrap();
        std::fs::write(&ndjson, ndjson_body).unwrap();
        for cmd in [
            vec!["freq", "--eps", "2.0", "--seed", "4"],
            vec!["topk", "--eps", "4.0", "--k", "3", "--seed", "4"],
        ] {
            let run_on = |input: &str, out: &str| {
                let mut full = cmd.clone();
                full.extend_from_slice(&["--input", input, "--output", out]);
                run_cli(&full).unwrap();
                std::fs::read_to_string(out).unwrap()
            };
            let from_csv = run_on(&csv, &tmp(&format!("ndjson_twin_{}_csv.out", cmd[0])));
            let from_ndjson = run_on(&ndjson, &tmp(&format!("ndjson_twin_{}_nd.out", cmd[0])));
            assert_eq!(from_csv, from_ndjson, "{}", cmd[0]);
        }
    }

    #[test]
    fn streaming_rejects_out_of_domain_pairs() {
        let path = tmp("stream_violation.csv");
        std::fs::write(&path, "label,item\n0,1\n5,1\n").unwrap();
        for cmd in [
            vec![
                "freq",
                "--input",
                path.as_str(),
                "--eps",
                "2.0",
                "--chunk-size",
                "10",
                "--classes",
                "2",
                "--items",
                "10",
            ],
            vec![
                "topk",
                "--input",
                path.as_str(),
                "--eps",
                "2.0",
                "--k",
                "2",
                "--chunk-size",
                "10",
                "--classes",
                "2",
                "--items",
                "10",
            ],
        ] {
            let err = run_cli(&cmd).unwrap_err();
            assert!(err.to_string().contains("outside domain"), "{cmd:?}: {err}");
        }
    }

    #[test]
    fn streaming_freq_reads_ndjson() {
        let path = tmp("stream_pairs.ndjson");
        let mut body = String::new();
        for u in 0..4000u32 {
            body.push_str(&format!(
                "{{\"label\": {}, \"item\": {}}}\n",
                u % 2,
                (u * 7) % 32
            ));
        }
        std::fs::write(&path, body).unwrap();
        let out = tmp("stream_ndjson_freq.csv");
        run_cli(&[
            "freq",
            "--input",
            &path,
            "--eps",
            "2.0",
            "--chunk-size",
            "512",
            "--classes",
            "2",
            "--items",
            "32",
            "--output",
            &out,
        ])
        .unwrap();
        assert!(std::fs::read_to_string(&out).unwrap().lines().count() > 64);
    }

    #[test]
    fn verbose_flag_is_accepted_and_stable() {
        let pairs = tmp("verbose_pairs.csv");
        run_cli(&[
            "gen",
            "--dataset",
            "syn3",
            "--users",
            "6000",
            "--items",
            "32",
            "--classes",
            "2",
            "--output",
            &pairs,
        ])
        .unwrap();
        let quiet = tmp("verbose_off.csv");
        let loud = tmp("verbose_on.csv");
        run_cli(&[
            "freq", "--input", &pairs, "--eps", "2.0", "--seed", "3", "--output", &quiet,
        ])
        .unwrap();
        run_cli(&[
            "freq",
            "--input",
            &pairs,
            "--eps",
            "2.0",
            "--seed",
            "3",
            "--verbose",
            "--output",
            &loud,
        ])
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&quiet).unwrap(),
            std::fs::read_to_string(&loud).unwrap(),
            "--verbose only adds diagnostics, never changes results"
        );
    }

    #[test]
    fn freq_rejects_bad_options() {
        assert!(run_cli(&["freq", "--eps", "2.0"]).is_err(), "missing input");
        assert!(
            run_cli(&["freq", "--input", "x.csv", "--eps", "-1"]).is_err(),
            "bad eps"
        );
        assert!(
            run_cli(&["freq", "--input", "x.csv", "--eps", "1", "--typo", "1"]).is_err(),
            "unknown option"
        );
        // The contract is fixed per build: there is no flag to assert it.
        let err = run_cli(&[
            "freq",
            "--input",
            "x.csv",
            "--eps",
            "1",
            "--rng-contract",
            "v4",
        ])
        .expect_err("no contract flag");
        assert!(err.to_string().contains("unknown option"), "{err}");
    }

    #[test]
    fn dist_knobs_require_a_dist_backend() {
        for knob in ["--dist-timeout", "--dist-retries"] {
            let err = run_cli(&["freq", "--input", "x.csv", "--eps", "1", knob, "100"])
                .expect_err("transport knobs without --dist must be rejected");
            assert!(err.to_string().contains("requires --dist"), "{knob}: {err}");
        }
    }

    #[test]
    fn parser_round_trips_methods_and_frameworks() {
        for name in ["hec", "ptj", "pts", "pts-cp"] {
            assert!(parse_framework(name).is_ok());
        }
        assert!(parse_framework("nope").is_err());
        for name in ["hec", "ptj", "ptj-opt", "pts", "pts-opt"] {
            assert!(parse_method(name).is_ok());
        }
        assert!(parse_method("nope").is_err());
    }
}
