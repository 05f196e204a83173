//! Golden tests pinning the machine-facing surface of `mcim-lint`: the
//! `--list-rules` inventory and the exact `--format=json` shape CI parses.
//! A change here is an API change for every downstream consumer of the
//! findings artifact — update the README and CI workflow together with it.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Materializes a throwaway workspace under `target/tmp` (inside the repo,
/// never scanned by the self-lint) and returns its root.
fn fixture(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).unwrap();
    fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
    for (rel, text) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, text).unwrap();
    }
    root
}

/// Runs the built `mcim-lint` binary and returns (success, stdout, stderr).
fn lint(root: &Path, extra: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mcim-lint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("spawn mcim-lint");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn list_rules_inventory_is_pinned() {
    let out = Command::new(env!("CARGO_BIN_EXE_mcim-lint"))
        .arg("--list-rules")
        .output()
        .expect("spawn mcim-lint");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout,
        "ambient-entropy\nclock-discipline\nhashmap-in-wire\npanic-freedom\nstdout-noise\n\
         sampler-bypass\nrng-discipline\nunsafe-header\nschema-drift\nschema-lock\n\
         protocol-version\npragma-syntax\n",
        "rule inventory changed — update README, CI, and this golden"
    );
}

#[test]
fn clean_workspace_json_is_pinned_exactly() {
    let root = fixture(
        "golden-clean",
        &[(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn ok() {}\n",
        )],
    );
    let (ok, stdout, stderr) = lint(&root, &["--format=json"]);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(
        stdout,
        "{\"ok\":true,\"files_checked\":1,\"violations\":0,\"pragma_allowed\":0,\
         \"schema_entries\":0,\"findings\":[]}\n",
        "JSON envelope changed — CI parses these fields by name"
    );
}

#[test]
fn violation_finding_json_is_pinned_exactly() {
    let root = fixture(
        "golden-violation",
        &[
            (
                "crates/demo/src/lib.rs",
                "#![forbid(unsafe_code)]\npub mod bad;\n",
            ),
            (
                "crates/demo/src/bad.rs",
                "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
            ),
        ],
    );
    let (ok, stdout, _) = lint(&root, &["--format=json"]);
    assert!(!ok, "the unwrap must fail the run");
    let expected_finding = "{\"rule\":\"panic-freedom\",\"file\":\"crates/demo/src/bad.rs\",\
         \"line\":2,\"col\":7,\"token\":\"unwrap\",\"message\":\"`unwrap` can panic; library code must propagate `Error` (or document \
         the infallible pattern with `// mcim-lint: allow(panic-freedom, \u{2026})`)\"}";
    assert_eq!(
        stdout,
        format!(
            "{{\"ok\":false,\"files_checked\":2,\"violations\":1,\"pragma_allowed\":0,\
             \"schema_entries\":0,\"findings\":[{expected_finding}]}}\n"
        ),
        "finding shape changed — CI parses these fields by name"
    );
}

#[test]
fn schema_entries_count_and_lock_finding_appear_in_json() {
    // One wire impl and no lock: schema_entries counts it and the missing
    // lock surfaces as a schema-lock finding no pragma can allow.
    let root = fixture(
        "golden-schema",
        &[(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub struct Packet { pub seq: u32 }\n\
             impl Wire for Packet { fn encode(&self) {} }\n",
        )],
    );
    let (ok, stdout, _) = lint(&root, &["--format=json"]);
    assert!(!ok);
    assert!(stdout.contains("\"schema_entries\":1"), "{stdout}");
    assert!(stdout.contains("\"rule\":\"schema-lock\""), "{stdout}");
    // After generating the lock the same tree is clean.
    let (ok, _, stderr) = lint(&root, &["--write-schema-lock"]);
    assert!(ok, "stderr: {stderr}");
    let (ok, stdout, _) = lint(&root, &["--format=json"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("\"ok\":true"), "{stdout}");
}

#[test]
fn a_grandfathering_baseline_file_no_longer_excuses_a_finding() {
    // This `lint-baseline.toml` entry once grandfathered the unwrap. The
    // file is no longer read, so the finding fails the run.
    let root = fixture(
        "golden-no-baseline",
        &[
            (
                "crates/demo/src/lib.rs",
                "#![forbid(unsafe_code)]\npub mod bad;\n",
            ),
            (
                "crates/demo/src/bad.rs",
                "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
            ),
            (
                "lint-baseline.toml",
                "[[allow]]\nrule = \"panic-freedom\"\nfile = \"crates/demo/src/bad.rs\"\n\
                 token = \"unwrap\"\ncount = 1\nreason = \"legacy\"\n",
            ),
        ],
    );
    let (ok, stdout, stderr) = lint(&root, &["--format=json"]);
    assert!(!ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.starts_with("{\"ok\":false,"), "{stdout}");
    assert!(stdout.contains("\"violations\":1,"), "{stdout}");
    assert!(
        stdout.contains(
            "{\"rule\":\"panic-freedom\",\"file\":\"crates/demo/src/bad.rs\",\"line\":2,"
        ),
        "{stdout}"
    );
}

#[test]
fn help_exits_zero_and_a_removed_flag_exits_two() {
    let run = |arg: &str| {
        Command::new(env!("CARGO_BIN_EXE_mcim-lint"))
            .arg(arg)
            .output()
            .expect("spawn mcim-lint")
    };
    let help = run("--help");
    assert_eq!(help.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&help.stdout);
    assert!(stdout.starts_with("usage: mcim-lint "), "{stdout}");
    assert!(help.stderr.is_empty());
    let gone = run("--deny-stale");
    assert_eq!(gone.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&gone.stderr).contains("unknown argument"));
}
