//! Command-line parsing.

use std::path::PathBuf;

/// Usage text for argument errors.
pub const USAGE: &str = "\
usage: mcim-perfbench --seed <u64> [--workload <name>] [--seconds <s>] [--trace [0|1]]
       mcim-perfbench --compare <parent-dir> <change-dir>
       mcim-perfbench worker --listen <addr> [--once]
Without --workload every workload runs, each in its own child process.";

/// Seconds measured per invocation when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 30.0;

/// What the invocation does.
#[derive(Debug, Clone, PartialEq)]
pub enum Mode {
    /// Benchmark one workload, or all of them.
    Run {
        /// `None` runs every workload in a child process each.
        workload: Option<String>,
        /// Input and plan seed.
        seed: u64,
        /// Measuring time.
        seconds: f64,
        /// The traced per-layer run instead of the end-to-end one.
        trace: bool,
    },
    /// Compare stored results of two checkouts.
    Compare {
        /// Results directory of the parent.
        parent: PathBuf,
        /// Results directory of the change.
        change: PathBuf,
    },
    /// Serve as the dist workload's worker process.
    Worker {
        /// Address to bind.
        listen: String,
        /// Serve one connection, then exit.
        once: bool,
    },
}

fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// Parses the arguments after the program name. A trailing `--bench`, as
/// `cargo bench` appends, is ignored.
pub fn parse(args: &[String]) -> Result<Mode, String> {
    if args.first().map(String::as_str) == Some("worker") {
        let (mut listen, mut once) = ("127.0.0.1:0".to_string(), false);
        let mut it = args[1..].iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--listen" => listen = value(&mut it, "--listen")?.clone(),
                "--once" => once = true,
                other => return Err(format!("unknown worker argument {other:?}")),
            }
        }
        return Ok(Mode::Worker { listen, once });
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut compare) =
        (None, None, DEFAULT_SECONDS, false, None);
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => workload = Some(value(&mut it, "--workload")?.clone()),
            "--seed" => {
                let v = value(&mut it, "--seed")?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--seed {v:?} is not a u64"))?,
                );
            }
            "--seconds" => {
                let v = value(&mut it, "--seconds")?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {v:?} is not a positive number"))?;
            }
            // `--trace 0|1`, or a bare `--trace` flag.
            "--trace" => {
                trace = match it.peek().map(|v| v.as_str()) {
                    Some(v @ ("0" | "1")) => {
                        let on = v == "1";
                        it.next();
                        on
                    }
                    _ => true,
                };
            }
            "--compare" => {
                let parent = PathBuf::from(value(&mut it, "--compare")?);
                let change = PathBuf::from(value(&mut it, "--compare")?);
                compare = Some((parent, change));
            }
            "--bench" => {}
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some((parent, change)) = compare {
        return Ok(Mode::Compare { parent, change });
    }
    Ok(Mode::Run {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn accepts_the_per_workload_form_and_cargo_bench_trailer() {
        assert_eq!(
            parse(&args(
                "--workload freq_pts_d1024 --seed 7 --seconds 12 --trace 1 --bench"
            )),
            Ok(Mode::Run {
                workload: Some("freq_pts_d1024".into()),
                seed: 7,
                seconds: 12.0,
                trace: true,
            })
        );
        assert_eq!(
            parse(&args("--seed 1 --bench")),
            Ok(Mode::Run {
                workload: None,
                seed: 1,
                seconds: DEFAULT_SECONDS,
                trace: false,
            })
        );
        // `--trace` alone is a flag; `--trace 0` turns it off.
        assert!(matches!(
            parse(&args("--trace --seed 2")),
            Ok(Mode::Run { trace: true, .. })
        ));
        assert!(matches!(
            parse(&args("--seed 2 --trace 0")),
            Ok(Mode::Run { trace: false, .. })
        ));
    }

    #[test]
    fn other_modes_and_errors() {
        assert_eq!(
            parse(&args("--compare a b")),
            Ok(Mode::Compare {
                parent: "a".into(),
                change: "b".into(),
            })
        );
        assert_eq!(
            parse(&args("worker --listen 127.0.0.1:0 --once")),
            Ok(Mode::Worker {
                listen: "127.0.0.1:0".into(),
                once: true,
            })
        );
        for bad in [
            "--workload w",
            "--seed x",
            "--seed 1 --seconds 0",
            "--seed 1 --frob",
            "--seed",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
