//! The wire golden table (`golden/wire_golden.txt`): the exact bytes of
//! every value that crosses the dist socket, checked against the codecs
//! that write and read them.
//!
//! * Every row's value encodes to its pinned hex, and the hex decodes
//!   back through the real entry point, consumed exactly.
//! * The table's `protocol_version` line is [`PROTOCOL_VERSION`]. Every
//!   row can ride inside a frame, so a changed or removed row needs a
//!   version bump; CI compares the file with its merge-base copy and
//!   fails a row change whose version line did not move. Adding a row
//!   needs no bump.
//! * Every strict prefix of a row, and the row plus one trailing byte, is
//!   a typed `Err` at its entry point, never a panic.
//! * Every `Wire`/`WireState`/`StageDecode` impl in `crates/*/src`, and
//!   every `wire_int!` width, has a row; every registered stage kind has
//!   a payload row and an accumulator row.

mod golden;

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use golden::{hex, pinned, rows, unhex, Row};
use mcim_dist::proto::read_frame;
use mcim_dist::{builtin_registry, PROTOCOL_VERSION};

#[test]
fn the_table_is_pinned_under_the_current_protocol_version() {
    let (version, _) = pinned();
    assert_eq!(
        version, PROTOCOL_VERSION,
        "wire_golden.txt says protocol_version = {version}; the code says {PROTOCOL_VERSION}"
    );
}

#[test]
fn every_row_encodes_to_its_hex_and_decodes_back() {
    let (_, pinned) = pinned();
    let rows = rows();
    let keys: Vec<String> = rows.iter().map(Row::key).collect();
    let unique: BTreeSet<&String> = keys.iter().collect();
    assert_eq!(unique.len(), keys.len(), "duplicate row keys");
    let missing: Vec<String> = rows
        .iter()
        .filter(|row| !pinned.iter().any(|(k, _)| *k == row.key()))
        .map(|row| format!("{} | {}", row.key(), hex(&row.bytes)))
        .collect();
    assert!(
        missing.is_empty(),
        "rows without a line in wire_golden.txt; add:\n{}",
        missing.join("\n")
    );
    for (key, pinned_hex) in &pinned {
        let row = rows
            .iter()
            .find(|row| row.key() == *key)
            .unwrap_or_else(|| panic!("`{key}` in wire_golden.txt has no row in golden/mod.rs"));
        assert_eq!(
            &hex(&row.bytes),
            pinned_hex,
            "the bytes of `{key}` changed; a deliberate wire change re-pins the row and bumps \
             PROTOCOL_VERSION with the table's protocol_version line"
        );
        let bytes = unhex(pinned_hex);
        match (row.decode)(&bytes) {
            Ok(again) => assert_eq!(hex(&again), *pinned_hex, "`{key}` re-encodes differently"),
            Err(e) => panic!("`{key}` does not decode: {e}"),
        }
    }
}

#[test]
fn every_registered_stage_kind_has_payload_and_state_rows() {
    let rows = rows();
    for kind in builtin_registry().kinds() {
        for trait_ in ["StageDecode", "WireState"] {
            assert!(
                rows.iter().any(|r| r.kind == trait_ && r.label == kind),
                "no {trait_} row for the stage kind {kind}"
            );
        }
    }
}

#[test]
fn hostile_prefixes_and_a_trailing_byte_are_typed_errors() {
    for row in rows() {
        let key = row.key();
        let mut longer = row.bytes.clone();
        longer.push(0);
        let inputs = (1..row.bytes.len())
            .map(|cut| (format!("its first {cut} bytes"), &row.bytes[..cut]))
            .chain([("one trailing byte".to_string(), &longer[..])]);
        for (what, input) in inputs {
            match catch_unwind(AssertUnwindSafe(|| (row.decode)(input))) {
                Ok(Err(_)) => {}
                Ok(Ok(_)) => panic!("`{key}` decoded from {what}"),
                Err(_) => panic!("`{key}` panicked on {what}"),
            }
        }
    }
    // An empty stream is a clean end of stream, not an error.
    assert!(matches!(read_frame(&mut &[][..]), Ok(None)));
}

/// The impl heads and `wire_int!` widths of one source file's non-test
/// part, as `(trait, type)` with the type's generics dropped and a tuple
/// written `(..)`.
fn wire_impls(source: &str) -> Vec<(String, String)> {
    let code = source.split("#[cfg(test)]").next().unwrap_or_default();
    let lines: Vec<&str> = code.lines().map(str::trim).collect();
    let mut found = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if let Some(args) = line.strip_prefix("wire_int!(") {
            for arg in args.split([',', ')', ';']).map(str::trim) {
                if !arg.is_empty() {
                    found.push(("Wire".to_string(), arg.to_string()));
                }
            }
            continue;
        }
        if !(line.starts_with("impl ") || line.starts_with("impl<")) {
            continue;
        }
        // The head runs to the opening brace, possibly over several lines.
        let end = lines[i..]
            .iter()
            .position(|l| l.contains('{'))
            .map_or(lines.len(), |at| i + at + 1);
        let head = lines[i..end].join(" ");
        let head = head.split('{').next().unwrap_or_default();
        // The trait is the last word before ` for ` (after any `impl<…>`
        // generics); its module path is dropped.
        let Some((trait_path, ty)) = head.split_once(" for ") else {
            continue;
        };
        let trait_path = trait_path.split_whitespace().last().unwrap_or_default();
        let trait_ = trait_path.rsplit("::").next().unwrap_or_default();
        let ty = ty.split(" where").next().unwrap_or_default().trim();
        if !["Wire", "WireState", "StageDecode"].contains(&trait_) || ty.starts_with('$') {
            continue;
        }
        let ty = if ty.starts_with('(') {
            "(..)"
        } else {
            ty.split('<').next().unwrap_or_default()
        };
        found.push((trait_.to_string(), ty.to_string()));
    }
    found
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Whether `row` covers `(trait_, ty)`: same trait, and the type appears in
/// the row's type (`FwPartial<HecAggregator, HecReport>` covers both
/// `FwPartial` and `HecAggregator`; any tuple row covers `(..)`).
fn covers(row: &Row, trait_: &str, ty: &str) -> bool {
    row.kind == trait_
        && if ty == "(..)" {
            row.ty.starts_with('(')
        } else {
            row.ty
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .any(|word| word == ty)
        }
}

#[test]
fn every_wire_impl_in_the_sources_has_a_row() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(&crates).expect("read crates/") {
        let src = krate.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let rows = rows();
    let mut impls = BTreeSet::new();
    for file in &files {
        let source = std::fs::read_to_string(file).expect("read source");
        for (trait_, ty) in wire_impls(&source) {
            assert!(
                rows.iter().any(|row| covers(row, &trait_, &ty)),
                "`impl {trait_} for {ty}` in {} has no golden row; add one to \
                 crates/dist/tests/golden/mod.rs",
                file.display()
            );
            impls.insert((trait_, ty));
        }
    }
    // The scan itself works: every trait and the four integer widths show.
    for trait_ in ["Wire", "WireState", "StageDecode"] {
        assert!(
            impls.iter().any(|(t, _)| t == trait_),
            "no {trait_} impl found"
        );
    }
    for width in ["u8", "u16", "u32", "u64"] {
        assert!(impls.contains(&("Wire".to_string(), width.to_string())));
    }
}
