//! Minimal argument parsing (`--key value` / `--flag`) plus the one place
//! the CLI turns its execution options into an [`Exec`] plan.

use std::collections::HashMap;

use mcim_oracles::exec::Exec;
use mcim_oracles::parallel;

/// Options that take no value (`--flag` instead of `--key value`).
const BOOL_FLAGS: &[&str] = &["verbose", "once"];

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// A user-facing argument error.
#[derive(Debug, Clone, PartialEq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments (without the program name).
    pub fn parse(raw: &[String]) -> Result<Self, ArgError> {
        let mut iter = raw.iter();
        let command = iter
            .next()
            .ok_or_else(|| ArgError("missing subcommand (try `mcim help`)".into()))?
            .clone();
        let mut options = HashMap::new();
        let mut flags = Vec::new();
        while let Some(key) = iter.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(ArgError(format!("expected `--option`, got `{key}`")));
            };
            if BOOL_FLAGS.contains(&name) {
                if flags.iter().any(|f| f == name) {
                    return Err(ArgError(format!("flag `--{name}` given twice")));
                }
                flags.push(name.to_string());
                continue;
            }
            let value = iter
                .next()
                .ok_or_else(|| ArgError(format!("option `--{name}` needs a value")))?;
            if options.insert(name.to_string(), value.clone()).is_some() {
                return Err(ArgError(format!("option `--{name}` given twice")));
            }
        }
        Ok(Args {
            command,
            options,
            flags,
        })
    }

    /// Whether a boolean `--flag` was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A required string option.
    pub fn required(&self, name: &str) -> Result<&str, ArgError> {
        self.options
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| ArgError(format!("missing required option `--{name}`")))
    }

    /// An optional string option.
    pub fn optional(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// A required numeric option.
    pub fn required_num<T: std::str::FromStr>(&self, name: &str) -> Result<T, ArgError> {
        self.required(name)?
            .parse()
            .map_err(|_| ArgError(format!("option `--{name}` is not a valid number")))
    }

    /// An optional numeric option with a default.
    pub fn num_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.options.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("option `--{name}` is not a valid number"))),
        }
    }

    /// Rejects unknown options (catches typos early).
    pub fn expect_only(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for key in self.options.keys().chain(self.flags.iter()) {
            if !allowed.contains(&key.as_str()) {
                return Err(ArgError(format!(
                    "unknown option `--{key}` (allowed: {})",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }

    /// Builds the [`Exec`] plan shared by the `freq` and `topk` commands
    /// from `--seed`, `--threads` and `--chunk-size` — the single place
    /// the CLI's execution options are interpreted.
    ///
    /// `--chunk-size` is clamped up to one shard (chunks smaller than a
    /// shard cannot parallelize); without it the default chunk applies.
    /// `--threads` wins over the `MCIM_THREADS` environment variable,
    /// which wins over the machine's parallelism; results never depend on
    /// the choice. Print the resolved plan with `--verbose`.
    pub fn exec_plan(&self) -> Result<Exec, ArgError> {
        let mut plan = Exec::seeded(self.num_or("seed", 0u64)?);
        if self.optional("chunk-size").is_some() {
            let chunk: usize = self.required_num("chunk-size")?;
            plan = plan.chunk_size(chunk.max(parallel::SHARD_SIZE));
        }
        if self.optional("threads").is_some() {
            plan = plan.threads(self.required_num::<usize>("threads")?.max(1));
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Result<Args, ArgError> {
        Args::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_command_and_options() {
        let args = parse(&["freq", "--eps", "2.0", "--input", "a.csv"]).unwrap();
        assert_eq!(args.command, "freq");
        assert_eq!(args.required("eps").unwrap(), "2.0");
        assert_eq!(args.required_num::<f64>("eps").unwrap(), 2.0);
        assert_eq!(args.optional("missing"), None);
        assert_eq!(args.num_or("k", 20usize).unwrap(), 20);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["freq", "eps", "2.0"]).is_err(), "missing --");
        assert!(parse(&["freq", "--eps"]).is_err(), "missing value");
        assert!(
            parse(&["freq", "--eps", "1", "--eps", "2"]).is_err(),
            "duplicate"
        );
    }

    #[test]
    fn required_and_typo_detection() {
        let args = parse(&["freq", "--epz", "2.0"]).unwrap();
        assert!(args.required("eps").is_err());
        assert!(args.expect_only(&["eps"]).is_err());
        assert!(args.expect_only(&["epz"]).is_ok());
    }

    #[test]
    fn numeric_validation() {
        let args = parse(&["freq", "--eps", "abc"]).unwrap();
        assert!(args.required_num::<f64>("eps").is_err());
        assert!(args.num_or::<f64>("eps", 1.0).is_err());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let args = parse(&["freq", "--verbose", "--eps", "2.0"]).unwrap();
        assert!(args.flag("verbose"));
        assert_eq!(args.required("eps").unwrap(), "2.0");
        assert!(!parse(&["freq"]).unwrap().flag("verbose"));
        assert!(parse(&["freq", "--verbose", "--verbose"]).is_err());
        // expect_only sees flags too.
        let args = parse(&["freq", "--verbose"]).unwrap();
        assert!(args.expect_only(&["eps"]).is_err());
        assert!(args.expect_only(&["eps", "verbose"]).is_ok());
    }

    #[test]
    fn exec_plan_reflects_options() {
        use mcim_oracles::parallel::SHARD_SIZE;
        use mcim_oracles::stream::DEFAULT_CHUNK_ITEMS;

        let plain = parse(&["freq", "--seed", "9", "--threads", "3"])
            .unwrap()
            .exec_plan()
            .unwrap();
        assert_eq!(plain.base_seed(), 9);
        assert_eq!(plain.resolved_threads(), 3);
        assert_eq!(plain.resolved_chunk_items(), DEFAULT_CHUNK_ITEMS);
        let one = parse(&["freq", "--threads", "1"])
            .unwrap()
            .exec_plan()
            .unwrap();
        assert_eq!(
            one.resolved_chunk_items(),
            SHARD_SIZE,
            "one thread pulls one shard"
        );

        let chunked = parse(&["freq", "--chunk-size", "10"])
            .unwrap()
            .exec_plan()
            .unwrap();
        assert_eq!(
            chunked.resolved_chunk_items(),
            SHARD_SIZE,
            "sub-shard chunks clamp up"
        );

        assert!(parse(&["freq", "--threads", "x"])
            .unwrap()
            .exec_plan()
            .is_err());
        assert!(parse(&["freq", "--chunk-size", "x"])
            .unwrap()
            .exec_plan()
            .is_err());
    }
}
