//! The wire-schema lock: canonical fingerprints of every wire-visible
//! symbol, committed to `wire-schema.lock` and checked on every run.
//!
//! ## What gets fingerprinted
//!
//! * **Resolved types** — every `struct`/`enum` implementing
//!   `Wire`/`WireState`/`StageDecode`, fingerprinted twice: the
//!   *declaration* (field names, type tokens, order, variant tags — all
//!   `#[cfg]`-gated duplicates concatenated) and the *impl bodies* (the
//!   encode/decode logic, so a silent re-encoding of an unchanged struct
//!   is still drift).
//! * **Unresolved impls** — wire impls whose implementing type has no
//!   workspace definition (primitives, `Vec<T>`, tuples): one entry per
//!   `(trait, type)` hashing head plus body.
//! * **Macro-generated impls** — a `macro_rules!` whose body emits a wire
//!   impl (`wire_int!`) is fingerprinted **unexpanded**: the macro body
//!   plus every module-level invocation's argument list. Editing the
//!   codec rules or instantiating it for a new type both register as
//!   drift; expanding macros would need a full macro engine and buy
//!   nothing beyond that.
//! * **Protocol constants** — `PROTOCOL_VERSION` and `MAX_FRAME`
//!   anywhere, plus every `TAG_*` constant under `crates/dist/` (the
//!   frame tag bytes).
//! * **Special types** — `Frame` (in `crates/dist/`) and `StageSpec` (in
//!   `crates/oracles/`) are covered even without a direct wire impl:
//!   `Frame` is encoded by hand in `proto.rs`, and its variant list *is*
//!   the protocol.
//!
//! ## The dist guard
//!
//! Entries under `crates/dist/` are the multi-process protocol surface.
//! Any drift in them must ride with a `PROTOCOL_VERSION` bump:
//! [`check`] emits a `protocol-version` finding when dist entries drift
//! while the constant still equals the locked version, and
//! [`write_guard`] refuses to regenerate the lock in that state — so the
//! escape hatch cannot silently swallow a protocol change.
//!
//! Identity is the `(kind, name, traits)` key, not file paths or line
//! numbers: moving a definition between files or reformatting it does
//! not churn the lock. Fingerprints are FNV-1a 64 over the canonical
//! space-joined token text (comments/strings scrubbed first).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::rules::Finding;
use crate::symbols::{SymbolIndex, TraitImpl};

/// Constants fingerprinted wherever they are defined.
pub const WATCHED_CONSTS: &[&str] = &["PROTOCOL_VERSION", "MAX_FRAME"];

/// Path prefix marking the dist protocol surface.
pub const DIST_PREFIX: &str = "crates/dist/";

/// Types covered even without a resolvable wire impl: `(name, required
/// path prefix)`.
pub const SPECIAL_TYPES: &[(&str, &str)] =
    &[("Frame", "crates/dist/"), ("StageSpec", "crates/oracles/")];

/// What a lock entry describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// A resolved type definition plus its wire impls.
    Type,
    /// A wire impl for a type defined outside the workspace.
    Impl,
    /// A wire-impl-emitting macro plus its invocations.
    Macro,
    /// A protocol constant.
    Const,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Type => "type",
            Kind::Impl => "impl",
            Kind::Macro => "macro",
            Kind::Const => "const",
        }
    }

    fn parse(s: &str) -> Option<Kind> {
        match s {
            "type" => Some(Kind::Type),
            "impl" => Some(Kind::Impl),
            "macro" => Some(Kind::Macro),
            "const" => Some(Kind::Const),
            _ => None,
        }
    }
}

/// One fingerprinted wire-visible symbol — both the computed current
/// state and a parsed lock line share this shape.
#[derive(Debug, Clone, PartialEq)]
pub struct LockEntry {
    /// Entry kind.
    pub kind: Kind,
    /// Type/macro/const name (or full type text for `Kind::Impl`).
    pub name: String,
    /// `+`-joined wire traits implemented (empty for macros/consts).
    pub traits: String,
    /// Defining file (informational; not part of the identity key).
    pub file: String,
    /// Whether this entry is dist-protocol-reachable.
    pub dist: bool,
    /// FNV-1a 64 of the canonical declaration text.
    pub fingerprint: String,
    /// FNV-1a 64 of the concatenated impl bodies (`Kind::Type` only).
    pub impl_fp: Option<String>,
    /// Human-readable declaration summary (const values, macro
    /// invocation lists, type decls) — for reviewing lock diffs.
    pub decl: String,
}

impl LockEntry {
    fn key(&self) -> (Kind, &str, &str) {
        (self.kind, &self.name, &self.traits)
    }

    fn describe(&self) -> String {
        format!("{} `{}`", self.kind.as_str(), self.name)
    }
}

/// A parsed `wire-schema.lock`.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Lock {
    /// The `PROTOCOL_VERSION` value recorded at generation time.
    pub protocol_version: String,
    /// All fingerprint entries, sorted by key.
    pub entries: Vec<LockEntry>,
}

/// FNV-1a 64-bit over a canonical token string.
pub fn fnv64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fp(s: &str) -> String {
    format!("{:016x}", fnv64(s))
}

fn is_dist(file: &str) -> bool {
    file.starts_with(DIST_PREFIX)
}

/// Derives the current lock entries from the symbol index.
pub fn compute(index: &SymbolIndex) -> Vec<LockEntry> {
    let mut entries = Vec::new();

    // Partition wire impls into workspace-resolved and extern.
    let mut by_type: BTreeMap<&str, Vec<&TraitImpl>> = BTreeMap::new();
    let mut extern_impls: Vec<&TraitImpl> = Vec::new();
    for imp in &index.impls {
        match imp
            .type_head
            .as_deref()
            .filter(|h| index.types.contains_key(*h))
        {
            Some(head) => by_type.entry(head).or_default().push(imp),
            None => extern_impls.push(imp),
        }
    }
    // Cover the special types even when nothing impls a wire trait for
    // them (Frame's codec is hand-written in proto.rs).
    for &(name, prefix) in SPECIAL_TYPES {
        let defined_there = index
            .types
            .get(name)
            .is_some_and(|defs| defs.iter().any(|d| d.file.starts_with(prefix)));
        if defined_there {
            by_type.entry(name).or_default();
        }
    }

    for (name, mut imps) in by_type {
        let defs = &index.types[name];
        imps.sort_by(|a, b| {
            (&a.file, a.line, &a.trait_name).cmp(&(&b.file, b.line, &b.trait_name))
        });
        let decl = defs
            .iter()
            .map(|d| d.decl.as_str())
            .collect::<Vec<_>>()
            .join(" | ");
        let mut traits: Vec<&str> = imps.iter().map(|i| i.trait_name.as_str()).collect();
        traits.sort_unstable();
        traits.dedup();
        let impl_src = imps
            .iter()
            .map(|i| i.body.as_str())
            .collect::<Vec<_>>()
            .join(" | ");
        entries.push(LockEntry {
            kind: Kind::Type,
            name: name.to_string(),
            traits: traits.join("+"),
            file: defs[0].file.clone(),
            dist: defs.iter().any(|d| is_dist(&d.file)) || imps.iter().any(|i| is_dist(&i.file)),
            fingerprint: fp(&decl),
            impl_fp: Some(fp(&impl_src)),
            decl,
        });
    }

    for imp in extern_impls {
        entries.push(LockEntry {
            kind: Kind::Impl,
            name: imp.type_text.clone(),
            traits: imp.trait_name.clone(),
            file: imp.file.clone(),
            dist: is_dist(&imp.file),
            fingerprint: fp(&format!(
                "{} for {} {{ {} }}",
                imp.trait_name, imp.type_text, imp.body
            )),
            impl_fp: None,
            decl: imp.type_text.clone(),
        });
    }

    for mac in index.macros.iter().filter(|m| m.emits_wire_impl) {
        let mut uses: Vec<_> = index
            .macro_uses
            .iter()
            .filter(|u| u.name == mac.name)
            .collect();
        uses.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        let invocations = uses
            .iter()
            .map(|u| u.args.as_str())
            .collect::<Vec<_>>()
            .join(" ; ");
        entries.push(LockEntry {
            kind: Kind::Macro,
            name: mac.name.clone(),
            traits: String::new(),
            file: mac.file.clone(),
            dist: is_dist(&mac.file) || uses.iter().any(|u| is_dist(&u.file)),
            fingerprint: fp(&format!("{} || {}", mac.body, invocations)),
            impl_fp: None,
            decl: invocations,
        });
    }

    let mut consts: BTreeMap<&str, Vec<&crate::symbols::ConstDef>> = BTreeMap::new();
    for c in &index.consts {
        let watched = WATCHED_CONSTS.contains(&c.name.as_str())
            || (c.name.starts_with("TAG_") && is_dist(&c.file));
        if watched {
            consts.entry(c.name.as_str()).or_default().push(c);
        }
    }
    for (name, defs) in consts {
        let value = defs
            .iter()
            .map(|d| d.value.as_str())
            .collect::<Vec<_>>()
            .join(" | ");
        entries.push(LockEntry {
            kind: Kind::Const,
            name: name.to_string(),
            traits: String::new(),
            file: defs[0].file.clone(),
            dist: defs.iter().any(|d| is_dist(&d.file)),
            fingerprint: fp(&format!("{name} = {value}")),
            impl_fp: None,
            decl: value,
        });
    }

    entries.sort_by(|a, b| a.key().cmp(&b.key()));
    entries
}

/// The current `PROTOCOL_VERSION` value as recorded in the entries.
pub fn current_protocol_version(entries: &[LockEntry]) -> String {
    entries
        .iter()
        .find(|e| e.kind == Kind::Const && e.name == "PROTOCOL_VERSION")
        .map(|e| e.decl.clone())
        .unwrap_or_default()
}

/// Dist-reachable entries that differ between `current` and `reference`
/// (fingerprint/impl drift, additions, removals), as human descriptions.
fn dist_changes(current: &[LockEntry], reference: &[LockEntry]) -> Vec<String> {
    let cur: BTreeMap<_, _> = current
        .iter()
        .filter(|e| e.dist)
        .map(|e| (e.key(), e))
        .collect();
    let old: BTreeMap<_, _> = reference
        .iter()
        .filter(|e| e.dist)
        .map(|e| (e.key(), e))
        .collect();
    let mut changed = BTreeSet::new();
    for (key, e) in &cur {
        match old.get(key) {
            None => {
                changed.insert(format!("{} (new)", e.describe()));
            }
            Some(o) if o.fingerprint != e.fingerprint || o.impl_fp != e.impl_fp => {
                changed.insert(e.describe());
            }
            Some(_) => {}
        }
    }
    for (key, o) in &old {
        if !cur.contains_key(key) {
            changed.insert(format!("{} (removed)", o.describe()));
        }
    }
    changed.into_iter().collect()
}

/// Checks the computed entries against the committed lock. Returns
/// `schema-drift` findings for every mismatch, plus one
/// `protocol-version` finding when dist-reachable entries drifted while
/// `PROTOCOL_VERSION` still equals the locked version.
pub fn check(entries: &[LockEntry], lock: &Lock, lock_rel: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let locked: BTreeMap<_, _> = lock.entries.iter().map(|e| (e.key(), e)).collect();
    let current: BTreeMap<_, _> = entries.iter().map(|e| (e.key(), e)).collect();

    let mut drift = |file: &str, line: usize, name: &str, message: String| {
        out.push(Finding {
            rule: "schema-drift",
            file: file.to_string(),
            line,
            col: 1,
            token: name.to_string(),
            message,
        });
    };

    for (key, e) in &current {
        let bump_hint = if e.dist {
            " and bump PROTOCOL_VERSION (dist-protocol-reachable)"
        } else {
            ""
        };
        match locked.get(key) {
            None => drift(
                &e.file,
                1,
                &e.name,
                format!(
                    "wire-visible {} is not in {lock_rel}; if intended, regenerate with \
                     `--write-schema-lock`{bump_hint}",
                    e.describe()
                ),
            ),
            Some(l) if l.fingerprint != e.fingerprint => drift(
                &e.file,
                1,
                &e.name,
                format!(
                    "declaration of {} changed (fingerprint {} -> {}); wire layout must not \
                     drift silently — if intended, regenerate with `--write-schema-lock`{bump_hint}",
                    e.describe(),
                    l.fingerprint,
                    e.fingerprint
                ),
            ),
            Some(l) if l.impl_fp != e.impl_fp => drift(
                &e.file,
                1,
                &e.name,
                format!(
                    "encode/decode implementation of {} changed (impl fingerprint {} -> {}); \
                     the byte format may have moved — if intended, regenerate with \
                     `--write-schema-lock`{bump_hint}",
                    e.describe(),
                    l.impl_fp.as_deref().unwrap_or("-"),
                    e.impl_fp.as_deref().unwrap_or("-")
                ),
            ),
            Some(_) => {}
        }
    }
    for (key, l) in &locked {
        if !current.contains_key(key) {
            drift(
                lock_rel,
                1,
                &l.name,
                format!(
                    "locked wire-visible {} no longer exists (moved out of library code, \
                     renamed, or deleted); regenerate with `--write-schema-lock`",
                    l.describe()
                ),
            );
        }
    }

    let changes = dist_changes(entries, &lock.entries);
    let version = current_protocol_version(entries);
    if !changes.is_empty() && version == lock.protocol_version {
        let file = entries
            .iter()
            .find(|e| e.kind == Kind::Const && e.name == "PROTOCOL_VERSION")
            .map(|e| e.file.clone())
            .unwrap_or_else(|| lock_rel.to_string());
        out.push(Finding {
            rule: "protocol-version",
            file,
            line: 1,
            col: 1,
            token: "PROTOCOL_VERSION".to_string(),
            message: format!(
                "dist protocol surface changed ({}) but PROTOCOL_VERSION is still {} — a \
                 coordinator/worker pair from different builds would disagree about frame \
                 bytes; bump PROTOCOL_VERSION in the same change",
                changes.join(", "),
                if version.is_empty() {
                    "unset"
                } else {
                    &version
                }
            ),
        });
    }
    out
}

/// Gate for `--write-schema-lock`: refuses to regenerate over `old` when
/// dist-reachable entries changed but `PROTOCOL_VERSION` did not — the
/// regeneration escape hatch must not swallow a protocol change.
pub fn write_guard(entries: &[LockEntry], old: &Lock) -> Result<(), Vec<String>> {
    let changes = dist_changes(entries, &old.entries);
    let version = current_protocol_version(entries);
    if changes.is_empty() || version != old.protocol_version {
        return Ok(());
    }
    let mut errs: Vec<String> = changes
        .iter()
        .map(|c| format!("dist-protocol-reachable change without a version bump: {c}"))
        .collect();
    errs.push(format!(
        "refusing to rewrite the schema lock: bump PROTOCOL_VERSION (currently {}) in \
         crates/dist/src/proto.rs first, then rerun --write-schema-lock",
        if version.is_empty() {
            "unset"
        } else {
            &version
        }
    ));
    Err(errs)
}

/// CI guard comparing the committed lock against the merge-base lock:
/// dist-reachable entries may only differ between them alongside a
/// `protocol_version` change.
pub fn compat(current: &Lock, reference: &Lock) -> Result<(), Vec<String>> {
    let changes = dist_changes(&current.entries, &reference.entries);
    if changes.is_empty() || current.protocol_version != reference.protocol_version {
        return Ok(());
    }
    Err(changes
        .into_iter()
        .map(|c| {
            format!(
                "dist protocol drift vs reference lock without a PROTOCOL_VERSION bump \
                 (both say {}): {c}",
                if current.protocol_version.is_empty() {
                    "unset"
                } else {
                    &current.protocol_version
                }
            )
        })
        .collect())
}

/// Serializes a lock in the canonical committed form.
pub fn render(entries: &[LockEntry]) -> String {
    let mut out = String::from(
        "# wire-schema.lock — canonical fingerprints of every wire-visible symbol.\n\
         # Generated by `cargo run -p mcim-lint -- --write-schema-lock`; do not edit.\n\
         #\n\
         # Each entry pins one Wire/WireState/StageDecode implementation (declaration\n\
         # + encode/decode bodies), the dist `Frame` enum and tag bytes, the\n\
         # `wire_int!` macro (unexpanded: body + invocation lists), and the protocol\n\
         # constants. `mcim-lint` fails with `schema-drift` when the code no longer\n\
         # matches this file.\n\
         #\n\
         # To change a wire type intentionally:\n\
         #   1. make the code change;\n\
         #   2. if any affected entry says `dist = true` (the multi-process frame\n\
         #      protocol), bump PROTOCOL_VERSION in crates/dist/src/proto.rs in the\n\
         #      same change — regeneration refuses dist drift without the bump, and\n\
         #      CI cross-checks this lock against the merge-base copy;\n\
         #   3. regenerate: cargo run -p mcim-lint -- --write-schema-lock\n",
    );
    let version = current_protocol_version(entries);
    let _ = write!(out, "\nprotocol_version = \"{version}\"\n");
    for e in entries {
        let _ = write!(
            out,
            "\n[[entry]]\nkind = \"{}\"\nname = \"{}\"\ntraits = \"{}\"\nfile = \"{}\"\n\
             dist = {}\nfingerprint = \"{}\"\n",
            e.kind.as_str(),
            e.name,
            e.traits,
            e.file,
            e.dist,
            e.fingerprint
        );
        if let Some(ifp) = &e.impl_fp {
            let _ = writeln!(out, "impl_fp = \"{ifp}\"");
        }
        let _ = writeln!(out, "decl = \"{}\"", e.decl);
    }
    out
}

/// Parses the lock format (a tiny TOML subset: `[[entry]]` tables).
pub fn parse(text: &str) -> Result<Lock, String> {
    let mut lock = Lock::default();
    let mut current: Option<BTreeMap<String, String>> = None;

    fn finish(
        fields: BTreeMap<String, String>,
        at: usize,
        entries: &mut Vec<LockEntry>,
    ) -> Result<(), String> {
        let get = |k: &str| {
            fields
                .get(k)
                .cloned()
                .ok_or_else(|| format!("entry ending near line {at}: missing `{k}`"))
        };
        let kind = get("kind")?;
        let kind = Kind::parse(&kind)
            .ok_or_else(|| format!("entry ending near line {at}: unknown kind `{kind}`"))?;
        let dist = match get("dist")?.as_str() {
            "true" => true,
            "false" => false,
            other => {
                return Err(format!(
                    "entry ending near line {at}: `dist` must be true/false, got `{other}`"
                ))
            }
        };
        entries.push(LockEntry {
            kind,
            name: get("name")?,
            traits: fields.get("traits").cloned().unwrap_or_default(),
            file: get("file")?,
            dist,
            fingerprint: get("fingerprint")?,
            impl_fp: fields.get("impl_fp").cloned(),
            decl: fields.get("decl").cloned().unwrap_or_default(),
        });
        Ok(())
    }

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[entry]]" {
            if let Some(fields) = current.take() {
                finish(fields, lineno, &mut lock.entries)?;
            }
            current = Some(BTreeMap::new());
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "line {lineno}: expected `key = value`, got `{raw}`"
            ));
        };
        let key = key.trim().to_string();
        let value = value.trim();
        let value = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .unwrap_or(value)
            .to_string();
        match current.as_mut() {
            None if key == "protocol_version" => lock.protocol_version = value,
            None => {
                return Err(format!("line {lineno}: `{key}` outside an [[entry]]"));
            }
            Some(fields) => {
                if !matches!(
                    key.as_str(),
                    "kind"
                        | "name"
                        | "traits"
                        | "file"
                        | "dist"
                        | "fingerprint"
                        | "impl_fp"
                        | "decl"
                ) {
                    return Err(format!("line {lineno}: unknown key `{key}`"));
                }
                if fields.insert(key.clone(), value).is_some() {
                    return Err(format!("line {lineno}: duplicate key `{key}` in entry"));
                }
            }
        }
    }
    if let Some(fields) = current.take() {
        finish(fields, text.lines().count(), &mut lock.entries)?;
    }
    Ok(lock)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::SymbolIndex;

    fn index_of(files: &[(&str, &str)]) -> SymbolIndex {
        let mut idx = SymbolIndex::default();
        for (rel, src) in files {
            idx.add_file(rel, src);
        }
        idx
    }

    fn lock_of(entries: &[LockEntry]) -> Lock {
        parse(&render(entries)).unwrap()
    }

    const POINT: &str = "pub struct Point { pub x: u32, pub y: u32 }\n\
                         impl Wire for Point { fn put(&self, b: &mut Vec<u8>) { self.x.put(b); } }\n";

    #[test]
    fn resolved_types_are_fingerprinted_with_decl_and_impls() {
        let entries = compute(&index_of(&[("crates/a/src/x.rs", POINT)]));
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(
            (e.kind, e.name.as_str(), e.traits.as_str()),
            (Kind::Type, "Point", "Wire")
        );
        assert!(!e.dist);
        assert!(e.impl_fp.is_some());
    }

    #[test]
    fn field_mutation_moves_the_fingerprint_and_body_moves_impl_fp() {
        let base = compute(&index_of(&[("crates/a/src/x.rs", POINT)]));
        let renamed = POINT.replace("pub y: u32", "pub z: u32");
        let renamed = compute(&index_of(&[("crates/a/src/x.rs", &renamed)]));
        assert_ne!(base[0].fingerprint, renamed[0].fingerprint);

        let rebody = POINT.replace("self.x.put(b);", "self.y.put(b); self.x.put(b);");
        let rebody = compute(&index_of(&[("crates/a/src/x.rs", &rebody)]));
        assert_eq!(base[0].fingerprint, rebody[0].fingerprint, "decl unchanged");
        assert_ne!(base[0].impl_fp, rebody[0].impl_fp, "encoding changed");
    }

    #[test]
    fn reformatting_is_not_drift() {
        let reformatted = "pub struct Point {\n    pub x: u32,\n    pub y: u32,\n}\n\
             impl Wire for Point {\n    fn put(&self, b: &mut Vec<u8>) {\n        self.x.put(b);\n    }\n}\n";
        let a = compute(&index_of(&[("crates/a/src/x.rs", POINT)]));
        let b = compute(&index_of(&[("crates/a/src/x.rs", reformatted)]));
        // Trailing comma is a token, so normalize it out for the decl…
        let c = compute(&index_of(&[(
            "crates/a/src/x.rs",
            &POINT.replace("pub y: u32 ", "pub y: u32, "),
        )]));
        assert_eq!(b[0].fingerprint, c[0].fingerprint);
        assert_eq!(a[0].impl_fp, b[0].impl_fp, "bodies token-identical");
    }

    #[test]
    fn special_types_are_covered_without_wire_impls() {
        let src = "pub enum Frame { Hello { version: u32 }, Flush }\n\
                   pub const PROTOCOL_VERSION: u32 = 2;\n\
                   pub const MAX_FRAME: u32 = 64 << 20;\n\
                   const TAG_HELLO: u8 = 0;\n";
        let entries = compute(&index_of(&[("crates/dist/src/proto.rs", src)]));
        let frame = entries.iter().find(|e| e.name == "Frame").expect("Frame");
        assert_eq!(frame.kind, Kind::Type);
        assert!(frame.dist && frame.traits.is_empty());
        let names: Vec<&str> = entries
            .iter()
            .filter(|e| e.kind == Kind::Const)
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(names, ["MAX_FRAME", "PROTOCOL_VERSION", "TAG_HELLO"]);
        assert!(entries
            .iter()
            .filter(|e| e.kind == Kind::Const)
            .all(|e| e.dist));
        // TAG_* consts outside crates/dist are not protocol surface.
        let other = compute(&index_of(&[(
            "crates/a/src/x.rs",
            "const TAG_HELLO: u8 = 0;\n",
        )]));
        assert!(other.is_empty());
    }

    #[test]
    fn macro_generated_impls_fingerprint_body_and_invocations() {
        let mac = "macro_rules! wire_int { ($($t:ty),*) => {$(impl Wire for $t { fn put(&self) {} })*}; }\n";
        let base = compute(&index_of(&[(
            "crates/a/src/x.rs",
            &format!("{mac}wire_int!(u8, u16, u32, u64);\n"),
        )]));
        let e = base.iter().find(|e| e.kind == Kind::Macro).expect("macro");
        assert_eq!(e.name, "wire_int");
        assert!(e.decl.contains("u8 , u16 , u32 , u64"));
        // New instantiation drifts…
        let wider = compute(&index_of(&[(
            "crates/a/src/x.rs",
            &format!("{mac}wire_int!(u8, u16, u32, u64, u128);\n"),
        )]));
        let w = wider.iter().find(|e| e.kind == Kind::Macro).unwrap();
        assert_ne!(e.fingerprint, w.fingerprint);
        // …and so does editing the codec body.
        let edited = compute(&index_of(&[(
            "crates/a/src/x.rs",
            &format!(
                "{}wire_int!(u8, u16, u32, u64);\n",
                mac.replace("fn put(&self) {}", "fn put(&self) { loop {} }")
            ),
        )]));
        let ed = edited.iter().find(|e| e.kind == Kind::Macro).unwrap();
        assert_ne!(e.fingerprint, ed.fingerprint);
    }

    #[test]
    fn lock_round_trips_and_check_is_quiet_when_in_sync() {
        let src = "pub struct Frame { tag: u8 }\nimpl Wire for Frame { fn put(&self) {} }\n\
                   pub const PROTOCOL_VERSION: u32 = 2;\n";
        let entries = compute(&index_of(&[("crates/dist/src/proto.rs", src)]));
        let lock = lock_of(&entries);
        assert_eq!(lock.protocol_version, "2");
        assert_eq!(lock.entries, entries);
        assert!(check(&entries, &lock, "wire-schema.lock").is_empty());
    }

    #[test]
    fn drift_new_and_removed_entries_are_findings() {
        let v1 = compute(&index_of(&[("crates/a/src/x.rs", POINT)]));
        let lock = lock_of(&v1);
        // Field rename: fingerprint drift.
        let v2 = compute(&index_of(&[(
            "crates/a/src/x.rs",
            &POINT.replace("pub y", "pub z"),
        )]));
        let f = check(&v2, &lock, "wire-schema.lock");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "schema-drift");
        assert!(f[0].message.contains("declaration of type `Point`"));
        // New wire type: not in lock.
        let v3 = compute(&index_of(&[(
            "crates/a/src/x.rs",
            &format!("{POINT}pub struct Extra {{ e: u8 }}\nimpl Wire for Extra {{ fn put(&self) {{}} }}\n"),
        )]));
        let f = check(&v3, &lock, "wire-schema.lock");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("not in wire-schema.lock"));
        // Type gone: locked entry orphaned.
        let f = check(&[], &lock, "wire-schema.lock");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("no longer exists"));
        assert_eq!(f[0].file, "wire-schema.lock");
    }

    const DIST: &str = "pub enum Frame { Hello { version: u32 } }\n\
                        impl Wire for Frame { fn put(&self) {} }\n\
                        pub const PROTOCOL_VERSION: u32 = 2;\n";

    #[test]
    fn dist_drift_without_version_bump_adds_protocol_finding() {
        let v2 = compute(&index_of(&[("crates/dist/src/proto.rs", DIST)]));
        let lock = lock_of(&v2);
        let changed = DIST.replace(
            "Hello { version: u32 }",
            "Hello { version: u32, node: u64 }",
        );
        let cur = compute(&index_of(&[("crates/dist/src/proto.rs", &changed)]));
        let f = check(&cur, &lock, "wire-schema.lock");
        let rules: Vec<&str> = f.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"schema-drift"), "{rules:?}");
        assert!(rules.contains(&"protocol-version"), "{rules:?}");
        // With the bump, only the (regenerable) drift findings remain.
        let bumped = changed.replace("PROTOCOL_VERSION: u32 = 2", "PROTOCOL_VERSION: u32 = 3");
        let cur = compute(&index_of(&[("crates/dist/src/proto.rs", &bumped)]));
        let f = check(&cur, &lock, "wire-schema.lock");
        assert!(f.iter().all(|f| f.rule == "schema-drift"), "{f:?}");
    }

    #[test]
    fn write_guard_refuses_unbumped_dist_drift() {
        let v2 = compute(&index_of(&[("crates/dist/src/proto.rs", DIST)]));
        let lock = lock_of(&v2);
        let changed = DIST.replace("Hello { version: u32 }", "Hello { v: u32 }");
        let cur = compute(&index_of(&[("crates/dist/src/proto.rs", &changed)]));
        let err = write_guard(&cur, &lock).unwrap_err();
        assert!(
            err.iter().any(|e| e.contains("bump PROTOCOL_VERSION")),
            "{err:?}"
        );
        // Bumped: allowed.
        let bumped = changed.replace("= 2", "= 3");
        let cur = compute(&index_of(&[("crates/dist/src/proto.rs", &bumped)]));
        assert!(write_guard(&cur, &lock).is_ok());
        // Non-dist drift never needs a bump.
        let v1 = compute(&index_of(&[("crates/a/src/x.rs", POINT)]));
        let lock = lock_of(&v1);
        let cur = compute(&index_of(&[(
            "crates/a/src/x.rs",
            &POINT.replace("pub y", "pub z"),
        )]));
        assert!(write_guard(&cur, &lock).is_ok());
    }

    #[test]
    fn compat_compares_two_locks_for_unbumped_dist_drift() {
        let old = lock_of(&compute(&index_of(&[("crates/dist/src/proto.rs", DIST)])));
        let same_version_drift = DIST.replace("version: u32", "version: u64");
        let cur = lock_of(&compute(&index_of(&[(
            "crates/dist/src/proto.rs",
            &same_version_drift,
        )])));
        assert!(compat(&cur, &old).is_err());
        let bumped = same_version_drift.replace("= 2", "= 3");
        let cur = lock_of(&compute(&index_of(&[(
            "crates/dist/src/proto.rs",
            &bumped,
        )])));
        assert!(compat(&cur, &old).is_ok());
        assert!(compat(&old, &old).is_ok());
    }

    #[test]
    fn parse_rejects_malformed_locks() {
        assert!(parse("kind = \"type\"\n").is_err(), "field outside entry");
        assert!(parse("[[entry]]\nkind = \"bogus\"\n").is_err(), "bad kind");
        assert!(
            parse("[[entry]]\nkind = \"type\"\nname = \"X\"\nfile = \"f\"\ndist = maybe\nfingerprint = \"0\"\n")
                .is_err(),
            "bad dist"
        );
        assert!(
            parse("[[entry]]\nkind = \"type\"\nname = \"X\"\n").is_err(),
            "missing fields"
        );
    }
}
