//! `mcim-lint` — the workspace invariant checker.
//!
//! The system's headline guarantee is bit-identical results across every
//! in-process plan and the distributed backend. That rests on invariants
//! no compiler checks: no ambient entropy in pipeline code, no
//! order-nondeterministic hash iteration feeding wire encoding, no
//! panicking escape hatches in library crates a long-lived server would
//! hit at traffic, RNG streams born only in their sanctioned homes. This
//! binary is a self-contained static-analysis pass (hand-rolled lexer, no
//! `syn` — the build environment is offline) that machine-enforces them;
//! the analysis itself lives in the `mcim_lint` library. Wire formats are
//! pinned by bytes, not here: see the golden table in
//! `crates/dist/tests/golden/`.
//!
//! ```text
//! cargo run -p mcim-lint                      # human output, exit 1 on violations
//! cargo run -p mcim-lint -- --format=json     # machine output for CI
//! cargo run -p mcim-lint -- --list-rules      # the rule inventory
//! ```
//!
//! Exit codes: `0` clean (or `--help`), `1` any finding, `2` usage or
//! I/O error. The only escape from a finding is an inline
//! `// mcim-lint: allow(rule, reason)` pragma, visible in review; see
//! README "Static analysis".

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mcim_lint::rules::{self, classify, Finding};

const USAGE: &str = "usage: mcim-lint [--root DIR] [--format=human|json] [--list-rules]";

#[derive(Debug, Default)]
struct Args {
    root: Option<PathBuf>,
    json: bool,
    list_rules: bool,
}

/// Parses the command line; `Ok(None)` means `--help` was asked for.
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let root = it.next().ok_or("--root requires a path argument")?;
                args.root = Some(PathBuf::from(root));
            }
            "--format=json" => args.json = true,
            "--format=human" => args.json = false,
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(Some(args))
}

/// Finds the workspace root: `--root`, or walk up from cwd looking for a
/// directory holding both `Cargo.toml` and `crates/`.
fn find_root(arg: Option<PathBuf>) -> Result<PathBuf, String> {
    if let Some(root) = arg {
        return Ok(root);
    }
    let mut dir = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err("no workspace root found (run from the repo or pass --root)".to_string());
        }
    }
}

/// Collects every `.rs` file under the workspace's source directories,
/// sorted for deterministic reports.
fn collect_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    let mut stack: Vec<PathBuf> = ["crates", "src", "tests", "examples"]
        .iter()
        .map(|d| root.join(d))
        .filter(|d| d.is_dir())
        .collect();
    while let Some(dir) = stack.pop() {
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn finding_json(f: &Finding) -> String {
    format!(
        "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"token\":\"{}\",\
         \"message\":\"{}\"}}",
        f.rule,
        json_escape(&f.file),
        f.line,
        f.col,
        json_escape(&f.token),
        json_escape(&f.message)
    )
}

fn run() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = parse_args(&argv)? else {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    };

    if args.list_rules {
        for rule in rules::RULE_IDS {
            println!("{rule}");
        }
        return Ok(ExitCode::SUCCESS);
    }

    let root = find_root(args.root)?;

    let mut violations: Vec<Finding> = Vec::new();
    let mut pragma_allowed = 0usize;
    let mut files_checked = 0usize;
    for path in collect_files(&root)? {
        let rel = rel_path(&root, &path);
        let Some(class) = classify(&rel) else {
            continue;
        };
        let source = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        files_checked += 1;
        let report = rules::check_file(&rel, &source, class);
        let (found, allowed) = rules::apply_pragmas(report, &rel);
        violations.extend(found);
        pragma_allowed += allowed.len();
    }
    let ok = violations.is_empty();

    if args.json {
        let mut items: Vec<String> = violations.iter().map(finding_json).collect();
        items.sort();
        println!(
            "{{\"ok\":{ok},\"files_checked\":{files_checked},\"violations\":{},\
             \"pragma_allowed\":{pragma_allowed},\"findings\":[{}]}}",
            violations.len(),
            items.join(",")
        );
    } else {
        for f in &violations {
            println!(
                "{}:{}:{}: [{}] {}",
                f.file, f.line, f.col, f.rule, f.message
            );
        }
        println!(
            "mcim-lint: {files_checked} files, {} violation(s), {pragma_allowed} \
             pragma-allowed",
            violations.len()
        );
    }

    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("mcim-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parse_the_documented_surface() {
        let a = parse_args(&argv(&["--root", "/x", "--format=json"]))
            .unwrap()
            .unwrap();
        assert_eq!(a.root.as_deref(), Some(Path::new("/x")));
        assert!(a.json);
        assert!(!a.list_rules);
        let b = parse_args(&argv(&["--format=json", "--format=human", "--list-rules"]))
            .unwrap()
            .unwrap();
        assert!(!b.json && b.list_rules);
        // Help is a successful parse that asks for the usage text.
        for help in ["--help", "-h"] {
            assert!(parse_args(&argv(&["--format=json", help]))
                .unwrap()
                .is_none());
        }
        assert!(parse_args(&argv(&["--bogus"])).is_err());
        // The flags of the deleted baseline subsystem and schema lock are
        // unknown now.
        for gone in [
            &["--deny-stale"][..],
            &["--write-baseline"],
            &["--baseline", "b.toml"],
            &["--check-shrink", "b.toml"],
            &["--schema-lock", "w.lock"],
            &["--write-schema-lock"],
            &["--schema-compat", "r.lock"],
        ] {
            assert!(parse_args(&argv(gone)).is_err(), "{gone:?}");
        }
        assert!(parse_args(&argv(&["--root"])).is_err(), "missing value");
    }

    #[test]
    fn json_escaping_is_safe() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn finding_json_shape() {
        let f = Finding {
            rule: "panic-freedom",
            file: "crates/a/src/x.rs".into(),
            line: 3,
            col: 7,
            token: "unwrap".into(),
            message: "msg".into(),
        };
        assert_eq!(
            finding_json(&f),
            "{\"rule\":\"panic-freedom\",\"file\":\"crates/a/src/x.rs\",\"line\":3,\"col\":7,\
             \"token\":\"unwrap\",\"message\":\"msg\"}"
        );
    }
}
