//! The rule engine: per-crate policies, test-region tracking, and the
//! individual invariant checks.
//!
//! Every rule answers one question the compiler cannot:
//!
//! | rule | invariant |
//! |---|---|
//! | `ambient-entropy` | pipeline output depends only on the seed |
//! | `clock-discipline` | wall time is read only through the obs clock seam |
//! | `hashmap-in-wire` | iteration order never reaches encoded bytes |
//! | `panic-freedom` | library code returns `Error`, never panics |
//! | `stdout-noise` | library crates never write to stdout/stderr |
//! | `sampler-bypass` | noise planes come from the one UE sampler |
//! | `rng-discipline` | RNG streams are only constructed in their homes |
//! | `unsafe-header` | every lib crate carries `#![forbid(unsafe_code)]` |
//! | `pragma-syntax` | every `mcim-lint:` comment actually parses |
//!
//! The bytes themselves are not a lint concern: the wire golden table in
//! `crates/dist/tests/golden/` pins every codec's output.
//!
//! Every finding fails the run. The one escape from a per-file finding
//! is an inline `// mcim-lint: allow(rule, reason)` pragma on or directly
//! above the line, so each exception is visible in review.

use crate::lexer::{scrub, tokenize, Pragma, Tok};

/// The codec traits whose implementations put a file on the wire path.
const WIRE_TRAITS: &[&str] = &["Wire", "WireState", "StageDecode"];

/// Every rule identifier, for `--list-rules` and pragma validation.
pub const RULE_IDS: &[&str] = &[
    "ambient-entropy",
    "clock-discipline",
    "hashmap-in-wire",
    "panic-freedom",
    "stdout-noise",
    "sampler-bypass",
    "rng-discipline",
    "unsafe-header",
    "pragma-syntax",
];

/// How a file is policed, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library crate source: all rules apply.
    Lib,
    /// Front-end / harness binaries (`crates/cli`, `crates/bench`,
    /// `crates/lint`): may panic, print, and read clocks.
    Tool,
    /// Tests, benches, examples: may panic and print, but stay
    /// deterministic (`ambient-entropy` still applies).
    TestLike,
}

/// Classifies a workspace-relative path, or `None` to skip the file
/// entirely (vendored shims, build output).
pub fn classify(rel: &str) -> Option<FileClass> {
    if !rel.ends_with(".rs") || rel.starts_with("vendor/") || rel.starts_with("target/") {
        return None;
    }
    for tool in ["crates/cli/", "crates/bench/", "crates/lint/"] {
        if rel.starts_with(tool) {
            return Some(FileClass::Tool);
        }
    }
    if rel.starts_with("tests/") || rel.starts_with("examples/") {
        return Some(FileClass::TestLike);
    }
    if let Some(in_crate) = rel.strip_prefix("crates/") {
        let (_, sub) = in_crate.split_once('/')?;
        if sub.starts_with("tests/") || sub.starts_with("benches/") || sub.starts_with("examples/")
        {
            return Some(FileClass::TestLike);
        }
        return Some(FileClass::Lib);
    }
    if rel.starts_with("src/") {
        return Some(FileClass::Lib);
    }
    None
}

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Rule identifier (one of [`RULE_IDS`]).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// The offending token.
    pub token: String,
    /// Human explanation.
    pub message: String,
}

/// Marks the lines belonging to `#[cfg(test)]` / `#[test]` items and
/// `mod tests { … }` blocks.
pub fn test_lines(toks: &[Tok], n_lines: usize) -> Vec<bool> {
    let mut in_test = vec![false; n_lines + 2];
    let mut i = 0usize;
    let mut pending_test: Option<usize> = None; // line of the test attr
    while i < toks.len() {
        // Attribute: `#` (`!`)? `[` … `]` — is it test-flavoured?
        if toks[i].is_punct('#') {
            let attr_line = toks[i].line;
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_punct('!')) {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_punct('[')) {
                let mut depth = 1usize;
                let mut idents: Vec<&str> = Vec::new();
                j += 1;
                while j < toks.len() && depth > 0 {
                    if toks[j].is_punct('[') {
                        depth += 1;
                    } else if toks[j].is_punct(']') {
                        depth -= 1;
                    } else if let Some(id) = toks[j].ident() {
                        idents.push(id);
                    }
                    j += 1;
                }
                // `not(test)` guards non-test code — don't let it exempt.
                let test_attr = idents.first() == Some(&"test")
                    || (idents.first() == Some(&"cfg")
                        && idents.contains(&"test")
                        && !idents.contains(&"not"));
                if test_attr && pending_test.is_none() {
                    pending_test = Some(attr_line);
                }
                i = j;
                continue;
            }
        }
        // `mod tests {` without an attribute still counts.
        let mod_tests = toks[i].ident() == Some("mod")
            && toks.get(i + 1).and_then(Tok::ident) == Some("tests")
            && toks.get(i + 2).is_some_and(|t| t.is_punct('{'));
        if pending_test.is_some() || mod_tests {
            let start_line = pending_test.unwrap_or(toks[i].line);
            // Find the item's body: first `{` (brace-match it) or a
            // terminating `;` at top level.
            let mut j = i;
            let mut end_line = toks[i].line;
            while j < toks.len() {
                if toks[j].is_punct('{') {
                    let mut depth = 1usize;
                    j += 1;
                    while j < toks.len() && depth > 0 {
                        if toks[j].is_punct('{') {
                            depth += 1;
                        } else if toks[j].is_punct('}') {
                            depth -= 1;
                        }
                        end_line = toks[j].line;
                        j += 1;
                    }
                    break;
                }
                if toks[j].is_punct(';') {
                    end_line = toks[j].line;
                    j += 1;
                    break;
                }
                end_line = toks[j].line;
                j += 1;
            }
            for flag in in_test
                .iter_mut()
                .take(end_line.min(n_lines) + 1)
                .skip(start_line)
            {
                *flag = true;
            }
            pending_test = None;
            i = j;
            continue;
        }
        i += 1;
    }
    in_test
}

/// Basenames whose whole file is a wire path: order there reaches bytes.
const WIRE_FILES: &[&str] = &["wire.rs", "stages.rs", "coord.rs", "worker.rs", "proto.rs"];

fn is_wire_sensitive(rel: &str, toks: &[Tok]) -> bool {
    let base = rel.rsplit('/').next().unwrap_or(rel);
    if WIRE_FILES.contains(&base) {
        return true;
    }
    toks.windows(2).any(|w| {
        w[0].ident().is_some_and(|id| WIRE_TRAITS.contains(&id)) && w[1].ident() == Some("for")
    })
}

/// The raw Bernoulli fillers. Under the RNG contract every noise plane
/// must be drawn through `UnaryEncoding`'s private `PlaneSampler` —
/// a pipeline call site reaching these directly forks the noise stream
/// (the wordwise/geometric branch point would no longer be
/// mode-invariant). Call sites (`.name(` / `::name(`) are flagged;
/// definitions (`fn name`) are not.
const RAW_SAMPLERS: &[&str] = &["fill_bernoulli", "fill_bernoulli_wordwise"];

/// The sampler module itself: where the fillers live (`bitvec.rs`) and
/// the one sanctioned chooser between them (`ue.rs`'s `PlaneSampler`).
const SAMPLER_HOME_FILES: &[&str] = &["crates/oracles/src/bitvec.rs", "crates/oracles/src/ue.rs"];

/// RNG-stream constructors. Under the RNG contract every stream a
/// pipeline consumes is derived by `shard_rng(stage_seed, shard)`
/// (splitmix64 key-stretching in `parallel.rs`); constructing a stream
/// any other way forks the noise sequence and breaks the cross-mode
/// bit-identity the equivalence matrices pin. Call sites are flagged;
/// definitions (`fn splitmix64`) are not.
const RNG_CONSTRUCTORS: &[&str] = &[
    "seed_from_u64",
    "from_seed",
    "from_rng",
    "try_from_rng",
    "from_entropy",
    "from_os_rng",
    "splitmix64",
];

/// Where RNG streams may legitimately be born: the shard-stream derivation
/// (`parallel.rs`) and the samplers that consume them (`ue.rs`,
/// `bitvec.rs`).
const RNG_HOME_FILES: &[&str] = &[
    "crates/oracles/src/parallel.rs",
    "crates/oracles/src/ue.rs",
    "crates/oracles/src/bitvec.rs",
];

/// `hash.rs` uses `splitmix64` as a *mixing function* (OLH seed
/// hashing), not to seed a stream — sanctioned for that token only.
const SPLITMIX_EXTRA_HOMES: &[&str] = &["crates/oracles/src/hash.rs"];

/// The one sanctioned home of `Instant::now` outside tool crates: the
/// telemetry layer's clock seam. Everything else (instrumentation sites,
/// spans, tests) goes through `mcim_obs::Clock`, so a test can inject a
/// `ManualClock` and every timing-shaped code path stays reproducible.
const CLOCK_HOME_FILES: &[&str] = &["crates/obs/src/clock.rs"];

/// Everything the engine knows about one analyzed file.
pub struct FileReport {
    /// All findings, before pragma filtering.
    pub findings: Vec<Finding>,
    /// Pragmas seen in the file (consumed ones and not).
    pub pragmas: Vec<Pragma>,
}

/// Whether this path must carry the `#![forbid(unsafe_code)]` header:
/// the root of every library crate.
fn requires_unsafe_header(rel: &str) -> bool {
    let is_lib_root =
        rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"));
    is_lib_root && classify(rel) == Some(FileClass::Lib)
}

/// Runs every rule over one file.
pub fn check_file(rel: &str, source: &str, class: FileClass) -> FileReport {
    let scrubbed = scrub(source);
    let toks = tokenize(&scrubbed.code);
    let n_lines = source.lines().count().max(1);
    let in_test = test_lines(&toks, n_lines);
    let wire = class == FileClass::Lib && is_wire_sensitive(rel, &toks);
    let mut findings = Vec::new();

    for (line, err) in &scrubbed.malformed_pragmas {
        findings.push(Finding {
            rule: "pragma-syntax",
            file: rel.to_string(),
            line: *line,
            col: 1,
            token: "pragma".to_string(),
            message: err.clone(),
        });
    }

    let mut push = |rule: &'static str, tok: &Tok, token: &str, message: String| {
        findings.push(Finding {
            rule,
            file: rel.to_string(),
            line: tok.line,
            col: tok.col,
            token: token.to_string(),
            message,
        });
    };

    for (idx, tok) in toks.iter().enumerate() {
        let Some(id) = tok.ident() else { continue };
        let prev = idx.checked_sub(1).and_then(|p| toks.get(p));
        let next = toks.get(idx + 1);
        let next_is = |c: char| next.is_some_and(|t| t.is_punct(c));
        let prev_is = |c: char| prev.is_some_and(|t| t.is_punct(c));
        let tested = in_test.get(tok.line).copied().unwrap_or(false);

        // ambient-entropy: everywhere except Tool crates, including tests —
        // the equivalence nets are only as deterministic as their inputs.
        // (Monotonic `Instant::now` is the separate `clock-discipline`
        // rule below: it has a sanctioned non-tool home, wall clocks and
        // thread RNGs do not.)
        if class != FileClass::Tool {
            let entropy = match id {
                "thread_rng" if next_is('(') => true,
                "now"
                    if prev_is(':') && idx >= 3 && toks[idx - 3].ident() == Some("SystemTime") =>
                {
                    true
                }
                _ => false,
            };
            if entropy {
                let what = if id == "thread_rng" {
                    "thread_rng()"
                } else {
                    "SystemTime::now()"
                };
                push(
                    "ambient-entropy",
                    tok,
                    id,
                    format!(
                        "{what} injects ambient entropy; pipeline code must derive all \
                         randomness and time from explicit seeds/parameters (clocks are \
                         allowed only in crates/bench and crates/cli)"
                    ),
                );
            }

            // clock-discipline: `Instant::now` lives in exactly one place
            // outside tool crates — the obs clock seam. Everything else
            // times through `mcim_obs` spans/`Clock`, so tests can inject
            // a manual clock and timing stays test-reproducible.
            if id == "now"
                && prev_is(':')
                && idx >= 3
                && toks[idx - 3].ident() == Some("Instant")
                && !CLOCK_HOME_FILES.contains(&rel)
            {
                push(
                    "clock-discipline",
                    tok,
                    id,
                    "`Instant::now()` outside the telemetry clock seam \
                     (crates/obs/src/clock.rs); time spans through `mcim_obs::span` / the \
                     `Clock` trait instead, so a `ManualClock` can reproduce them in tests"
                        .to_string(),
                );
            }
        }

        if class == FileClass::Lib && !tested {
            // panic-freedom
            let panicky = match id {
                "unwrap" | "expect" => prev_is('.') && next_is('('),
                "panic" | "todo" | "unimplemented" => next_is('!'),
                _ => false,
            };
            if panicky {
                push(
                    "panic-freedom",
                    tok,
                    id,
                    format!(
                        "`{id}` can panic; library code must propagate `Error` (or document \
                         the infallible pattern with `// mcim-lint: allow(panic-freedom, …)`)"
                    ),
                );
            }

            // stdout-noise
            if matches!(id, "println" | "eprintln" | "dbg") && next_is('!') {
                push(
                    "stdout-noise",
                    tok,
                    id,
                    format!(
                        "`{id}!` writes to stdout/stderr from a library crate; surface \
                         diagnostics through return values instead"
                    ),
                );
            }

            // hashmap-in-wire
            if wire && matches!(id, "HashMap" | "HashSet") {
                push(
                    "hashmap-in-wire",
                    tok,
                    id,
                    format!(
                        "`{id}` in a wire path: iteration order is nondeterministic and must \
                         never reach encoded bytes or merge order — use `BTreeMap`/sorted \
                         drains, or assert lookup-only use with a pragma"
                    ),
                );
            }
        }

        // sampler-bypass: lib code (tests may probe the fillers directly);
        // call sites only; the sampler module itself is exempt.
        if class == FileClass::Lib
            && !tested
            && RAW_SAMPLERS.contains(&id)
            && (prev_is('.') || prev_is(':'))
            && next_is('(')
            && !SAMPLER_HOME_FILES.contains(&rel)
        {
            push(
                "sampler-bypass",
                tok,
                id,
                format!(
                    "`{id}` bypasses the RNG-contract sampler; draw noise planes through \
                     `UnaryEncoding` (its `PlaneSampler` picks the wordwise/geometric path \
                     from the mechanism parameters alone, keeping every execution mode on \
                     one stream)"
                ),
            );
        }

        // rng-discipline: lib code may not construct RNG streams outside
        // the sanctioned homes (tests may build seeded fixtures freely).
        if class == FileClass::Lib
            && !tested
            && RNG_CONSTRUCTORS.contains(&id)
            && next_is('(')
            && prev.and_then(Tok::ident) != Some("fn")
            && !RNG_HOME_FILES.contains(&rel)
            && !(id == "splitmix64" && SPLITMIX_EXTRA_HOMES.contains(&rel))
        {
            push(
                "rng-discipline",
                tok,
                id,
                format!(
                    "`{id}` constructs an RNG stream outside the sanctioned homes \
                     (parallel.rs/ue.rs/bitvec.rs); the RNG contract derives every pipeline \
                     stream via `shard_rng(stage_seed, shard)` so all execution modes share \
                     one noise sequence — route through it, or justify a non-privatization \
                     stream with a pragma"
                ),
            );
        }
    }

    // unsafe-header: lib crate roots must forbid unsafe code.
    if requires_unsafe_header(rel) {
        let has = toks.windows(8).any(|w| {
            w[0].is_punct('#')
                && w[1].is_punct('!')
                && w[2].is_punct('[')
                && w[3].ident() == Some("forbid")
                && w[4].is_punct('(')
                && w[5].ident() == Some("unsafe_code")
                && w[6].is_punct(')')
                && w[7].is_punct(']')
        });
        if !has {
            findings.push(Finding {
                rule: "unsafe-header",
                file: rel.to_string(),
                line: 1,
                col: 1,
                token: "forbid(unsafe_code)".to_string(),
                message: "library crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            });
        }
    }

    FileReport {
        findings,
        pragmas: scrubbed.pragmas,
    }
}

/// Splits findings into (violations, allowed) by applying the file's
/// pragmas. A pragma that allowed nothing (dead pragmas rot) or names an
/// unknown rule is itself a violation.
pub fn apply_pragmas(report: FileReport, rel: &str) -> (Vec<Finding>, Vec<Finding>) {
    let FileReport { findings, pragmas } = report;
    let mut used = vec![false; pragmas.len()];
    let mut violations = Vec::new();
    let mut allowed = Vec::new();
    for f in findings {
        let covering = pragmas.iter().enumerate().find(|(_, p)| {
            p.rule == f.rule
                && if p.trailing {
                    p.line == f.line
                } else {
                    p.line + 1 == f.line
                }
        });
        match covering {
            Some((i, _)) => {
                used[i] = true;
                allowed.push(f);
            }
            None => violations.push(f),
        }
    }
    for (p, used) in pragmas.iter().zip(&used) {
        let unknown_rule = !RULE_IDS.contains(&p.rule.as_str());
        if !used || unknown_rule {
            violations.push(Finding {
                rule: "pragma-syntax",
                file: rel.to_string(),
                line: p.line,
                col: 1,
                token: "pragma".to_string(),
                message: if unknown_rule {
                    format!("pragma allows unknown rule `{}`", p.rule)
                } else {
                    format!(
                        "pragma `allow({}, …)` matches no finding on line {} — remove it",
                        p.rule,
                        p.line + usize::from(!p.trailing)
                    )
                },
            });
        }
    }
    (violations, allowed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_findings(rel: &str, src: &str) -> Vec<Finding> {
        check_file(rel, src, FileClass::Lib).findings
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn classify_follows_the_policy_table() {
        assert_eq!(classify("crates/oracles/src/wire.rs"), Some(FileClass::Lib));
        assert_eq!(classify("src/lib.rs"), Some(FileClass::Lib));
        assert_eq!(classify("crates/cli/src/main.rs"), Some(FileClass::Tool));
        assert_eq!(classify("crates/bench/benches/x.rs"), Some(FileClass::Tool));
        assert_eq!(classify("crates/lint/src/rules.rs"), Some(FileClass::Tool));
        assert_eq!(
            classify("crates/dist/tests/reducer.rs"),
            Some(FileClass::TestLike)
        );
        assert_eq!(classify("tests/identity.rs"), Some(FileClass::TestLike));
        assert_eq!(
            classify("examples/quickstart.rs"),
            Some(FileClass::TestLike)
        );
        assert_eq!(classify("vendor/rand/src/lib.rs"), None);
        assert_eq!(classify("README.md"), None);
    }

    #[test]
    fn entropy_rule_catches_all_three_clocks() {
        let src = "fn f() { let mut r = thread_rng(); }\n\
                   fn g() -> u64 { SystemTime::now() }\n\
                   fn h() { let t = Instant::now(); }\n";
        let f = lib_findings("crates/core/src/x.rs", src);
        // thread_rng and the wall clock are ambient entropy; the
        // monotonic clock is owned by the clock-discipline rule.
        assert_eq!(
            rules_of(&f),
            ["ambient-entropy", "ambient-entropy", "clock-discipline"]
        );
        assert_eq!(f[0].line, 1);
        assert_eq!(f[1].token, "now");
        assert_eq!(f[2].line, 3);
        // And in tests too — determinism nets need seeded inputs.
        let t = check_file(
            "crates/core/tests/x.rs",
            "#[test]\nfn t() { thread_rng(); }",
            FileClass::TestLike,
        );
        assert_eq!(rules_of(&t.findings), ["ambient-entropy"]);
        // But tool crates may read clocks.
        let b = check_file("crates/bench/src/x.rs", src, FileClass::Tool);
        assert!(b.findings.is_empty());
    }

    #[test]
    fn clock_discipline_sanctions_only_the_obs_seam() {
        let src = "pub fn origin() { let t = Instant::now(); }\n";
        // The telemetry clock seam is the one sanctioned home …
        for home in CLOCK_HOME_FILES {
            assert!(lib_findings(home, src).is_empty(), "{home}");
        }
        // … any other lib file is a violation, including obs itself
        // outside clock.rs, and test-like files.
        let f = lib_findings("crates/obs/src/registry.rs", src);
        assert_eq!(rules_of(&f), ["clock-discipline"]);
        assert!(f[0].message.contains("clock seam"));
        let t = check_file("tests/identity.rs", src, FileClass::TestLike);
        assert_eq!(rules_of(&t.findings), ["clock-discipline"]);
        // Tool crates (bench timing loops) stay free to read clocks.
        let b = check_file("crates/bench/benches/x.rs", src, FileClass::Tool);
        assert!(b.findings.is_empty());
        // Lookalikes don't trip it: a fn named now, a field, other paths.
        let src = "fn f(now: u64) { other::now(); instant.now_field; }";
        assert!(lib_findings("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn entropy_rule_ignores_lookalikes() {
        let src = "fn f(now: u64) { other::now(); my_thread_rng_state(); x.now_field; }";
        assert!(lib_findings("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn panic_rule_catches_the_five_escape_hatches() {
        let src = "fn f() { a.unwrap(); b.expect(\"x\"); panic!(\"y\"); todo!(); \
                   unimplemented!(); }";
        let f = lib_findings("crates/oracles/src/x.rs", src);
        assert_eq!(f.len(), 5);
        assert!(f.iter().all(|f| f.rule == "panic-freedom"));
    }

    #[test]
    fn panic_rule_skips_tests_tools_and_lookalikes() {
        // unwrap_or / unwrap_err / a fn named unwrap are not findings.
        let src = "fn f() { a.unwrap_or(0); b.unwrap_err(); fn unwrap() {} }";
        assert!(lib_findings("crates/oracles/src/x.rs", src).is_empty());
        // #[cfg(test)] mod tests is exempt.
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\n";
        assert!(lib_findings("crates/oracles/src/x.rs", src).is_empty());
        // #[test] fn without a mod wrapper is exempt too.
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn lib() { y.unwrap(); }";
        let f = lib_findings("crates/oracles/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
        // Tool crates may panic.
        let t = check_file(
            "crates/cli/src/main.rs",
            "fn f() { x.unwrap(); }",
            FileClass::Tool,
        );
        assert!(t.findings.is_empty());
    }

    #[test]
    fn panic_rule_ignores_comments_and_strings() {
        let src = "fn f() -> &'static str { \"call .unwrap() or panic!()\" }\n\
                   // .unwrap() in a comment\n/* panic!() */\n";
        assert!(lib_findings("crates/oracles/src/x.rs", src).is_empty());
    }

    #[test]
    fn hashmap_rule_fires_only_in_wire_sensitive_files() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) {}\n";
        // Named wire file: every HashMap token flagged.
        let f = lib_findings("crates/dist/src/worker.rs", src);
        assert_eq!(rules_of(&f), ["hashmap-in-wire", "hashmap-in-wire"]);
        // Impl-detected wire file.
        let src2 = format!("{src}impl Wire for X {{}}\nstruct S {{ s: HashSet<u8> }}\n");
        let f2 = lib_findings("crates/core/src/domain.rs", &src2);
        assert_eq!(f2.len(), 3);
        assert_eq!(f2[2].token, "HashSet");
        // Ordinary lib file: no finding.
        assert!(lib_findings("crates/topk/src/multiclass.rs", src).is_empty());
        // Wire file, but only in test code: no finding.
        let src3 = "#[cfg(test)]\nmod tests { use std::collections::HashMap; }\n";
        assert!(lib_findings("crates/oracles/src/wire.rs", src3).is_empty());
    }

    #[test]
    fn stdout_rule_flags_library_prints() {
        let src = "fn f() { println!(\"a\"); eprintln!(\"b\"); dbg!(1); }";
        let f = lib_findings("crates/dist/src/x.rs", src);
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|f| f.rule == "stdout-noise"));
    }

    #[test]
    fn sampler_bypass_rule_flags_calls_not_definitions() {
        let src = "fn f(b: &mut BitVec) { b.fill_bernoulli(q, rng); \
                   BitVec::fill_bernoulli_wordwise(b, q, rng); }\n\
                   pub fn fill_bernoulli() {}\n";
        let f = lib_findings("crates/topk/src/x.rs", src);
        assert_eq!(rules_of(&f), ["sampler-bypass", "sampler-bypass"]);
        assert_eq!(f[0].token, "fill_bernoulli");
        assert_eq!(f[1].token, "fill_bernoulli_wordwise");
        // The sampler module itself is the sanctioned caller …
        for home in SAMPLER_HOME_FILES {
            assert!(lib_findings(home, src).is_empty(), "{home}");
        }
        // … and tests may probe the fillers directly.
        let t = check_file(
            "crates/oracles/tests/proptests.rs",
            "fn t() { b.fill_bernoulli(q, rng); }",
            FileClass::TestLike,
        );
        assert!(t.findings.is_empty());
        let src = "#[cfg(test)]\nmod tests {\n fn t() { b.fill_bernoulli(q, rng); }\n}\n";
        assert!(lib_findings("crates/oracles/src/colsum.rs", src).is_empty());
    }

    #[test]
    fn rng_discipline_bans_stream_construction_outside_homes() {
        let src = "fn f(seed: u64) { let r = StdRng::seed_from_u64(seed); \
                   let s = SmallRng::from_entropy(); let k = splitmix64(seed); }\n\
                   pub fn splitmix64(x: u64) -> u64 { x }\n";
        let f = lib_findings("crates/topk/src/pem.rs", src);
        assert_eq!(
            rules_of(&f),
            ["rng-discipline", "rng-discipline", "rng-discipline"]
        );
        assert_eq!(f[0].token, "seed_from_u64");
        assert_eq!(f[2].token, "splitmix64");
        // The sanctioned homes may construct streams …
        for home in RNG_HOME_FILES {
            assert!(lib_findings(home, src).is_empty(), "{home}");
        }
        // … hash.rs may call splitmix64 (mixing, not stream seeding) but
        // not the other constructors.
        let h = lib_findings("crates/oracles/src/hash.rs", src);
        assert_eq!(rules_of(&h), ["rng-discipline", "rng-discipline"]);
        assert!(h.iter().all(|f| f.token != "splitmix64"));
        // Tests and tool crates build seeded fixtures freely.
        let t = check_file(
            "crates/oracles/tests/p.rs",
            "fn t() { StdRng::seed_from_u64(7); }",
            FileClass::TestLike,
        );
        assert!(t.findings.is_empty());
        let src = "#[cfg(test)]\nmod tests {\n fn t() { StdRng::seed_from_u64(7); }\n}\n";
        assert!(lib_findings("crates/core/src/domain.rs", src).is_empty());
        let b = check_file(
            "crates/bench/src/x.rs",
            "fn f() { StdRng::seed_from_u64(7); }",
            FileClass::Tool,
        );
        assert!(b.findings.is_empty());
    }

    #[test]
    fn unsafe_header_required_on_lib_roots_only() {
        let f = lib_findings("crates/core/src/lib.rs", "pub mod x;\n");
        assert_eq!(rules_of(&f), ["unsafe-header"]);
        let ok = lib_findings(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod x;\n",
        );
        assert!(ok.is_empty());
        // Non-root files don't need the header.
        assert!(lib_findings("crates/core/src/domain.rs", "pub fn f() {}\n").is_empty());
    }

    #[test]
    fn pragmas_allow_same_line_and_next_line() {
        let src = "fn f() {\n\
                   a.unwrap(); // mcim-lint: allow(panic-freedom, join cannot fail)\n\
                   // mcim-lint: allow(panic-freedom, slot is always filled)\n\
                   b.expect(\"x\");\n\
                   c.unwrap();\n}\n";
        let report = check_file("crates/oracles/src/x.rs", src, FileClass::Lib);
        let (violations, allowed) = apply_pragmas(report, "crates/oracles/src/x.rs");
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].line, 5);
        assert_eq!(allowed.len(), 2);
    }

    #[test]
    fn dead_and_unknown_pragmas_are_findings() {
        let src = "// mcim-lint: allow(panic-freedom, nothing here)\nfn f() {}\n\
                   fn g() {} // mcim-lint: allow(no-such-rule, reason)\n";
        let report = check_file("crates/oracles/src/x.rs", src, FileClass::Lib);
        let (dead, allowed) = apply_pragmas(report, "crates/oracles/src/x.rs");
        assert!(allowed.is_empty());
        assert_eq!(rules_of(&dead), ["pragma-syntax", "pragma-syntax"]);
        assert!(dead[0].message.contains("matches no finding"));
        assert!(dead[1].message.contains("unknown rule"));
    }

    #[test]
    fn malformed_pragma_is_a_finding() {
        let src = "fn f() {} // mcim-lint: allow(panic-freedom)\n";
        let f = lib_findings("crates/oracles/src/x.rs", src);
        assert_eq!(rules_of(&f), ["pragma-syntax"]);
    }

    #[test]
    fn seeded_synthetic_violation_file_is_fully_caught() {
        // One file tripping every rule at once — the acceptance scenario.
        let src = "use std::collections::HashMap;\n\
                   impl WireState for X {}\n\
                   fn f() -> u64 {\n\
                       let t = SystemTime::now();\n\
                       let i = Instant::now();\n\
                       let r = thread_rng();\n\
                       let s = StdRng::seed_from_u64(7);\n\
                       println!(\"{t:?} {i:?}\");\n\
                       plane.fill_bernoulli(q, &mut r).unwrap()\n\
                   }\n";
        let f = lib_findings("crates/core/src/lib.rs", src);
        let mut rules = rules_of(&f);
        rules.sort_unstable();
        assert_eq!(
            rules,
            [
                "ambient-entropy",
                "ambient-entropy",
                "clock-discipline",
                "hashmap-in-wire",
                "panic-freedom",
                "rng-discipline",
                "sampler-bypass",
                "stdout-noise",
                "unsafe-header",
            ]
        );
    }
}
