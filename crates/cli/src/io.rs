//! Pair-file ingestion and CSV output of result tables.
//!
//! Input: one `label,item` pair per line (base-10, 0-indexed, optional
//! `label,item` header), or one `{"label": c, "item": i}` object per line
//! when the path ends in `.ndjson`/`.jsonl`. Domains are inferred as
//! `max + 1` unless overridden on the command line.

use std::fs;
use std::path::Path;

use mcim_core::{Domains, FrequencyTable, LabelItem};
use mcim_datasets::{CsvPairSource, NdjsonPairSource};
use mcim_oracles::stream::{ReportSource, DEFAULT_CHUNK_ITEMS};

/// The file source for `path`, by extension: `.ndjson`/`.jsonl` →
/// NDJSON, anything else CSV. The grammars live in `mcim-datasets`.
fn open_pair_file(path: &Path) -> mcim_oracles::Result<Box<dyn ReportSource<Item = LabelItem>>> {
    let ndjson = path
        .extension()
        .and_then(|e| e.to_str())
        .is_some_and(|e| e.eq_ignore_ascii_case("ndjson") || e.eq_ignore_ascii_case("jsonl"));
    Ok(if ndjson {
        Box::new(NdjsonPairSource::open(path)?)
    } else {
        Box::new(CsvPairSource::open(path)?)
    })
}

/// A pair file as a stream source: validates every pair against the
/// domains (out-of-domain items must fail fast, not feed the miners) and
/// counts the pairs it yields, so the summary line can report the user
/// count (`comm.users` counts *reports*, and PTS users submit a label
/// report and an item report each).
pub struct CountedPairSource {
    inner: Box<dyn ReportSource<Item = LabelItem>>,
    domains: Domains,
    yielded: u64,
}

impl CountedPairSource {
    /// The declared or inferred domains.
    pub fn domains(&self) -> Domains {
        self.domains
    }

    /// Pairs yielded so far (net of rewinds).
    pub fn yielded(&self) -> u64 {
        self.yielded
    }
}

impl ReportSource for CountedPairSource {
    type Item = LabelItem;

    fn fill(&mut self, buf: &mut Vec<LabelItem>, max: usize) -> mcim_oracles::Result<usize> {
        let start = buf.len();
        let got = self.inner.fill(buf, max)?;
        for pair in &buf[start..] {
            self.domains.check(*pair)?;
        }
        self.yielded += got as u64;
        Ok(got)
    }

    fn rewind(&mut self, n: u64) -> mcim_oracles::Result<bool> {
        // Forwarded so `--dist` runs stay recoverable on worker loss (the
        // file sources replay from the start of the file). The replayed
        // pairs re-validate in `fill`; the count stays in step.
        let ok = self.inner.rewind(n)?;
        if ok {
            self.yielded = self.yielded.saturating_sub(n);
        }
        Ok(ok)
    }
}

/// Opens a pair file. `classes`/`items` of 0 mean "infer from data": one
/// streaming pre-pass finds the largest label and item, then the source
/// rewinds to the start. Either way the pairs themselves are never held
/// in memory here.
pub fn open_pairs(
    path: &Path,
    mut classes: u32,
    mut items: u32,
) -> Result<CountedPairSource, Box<dyn std::error::Error>> {
    let mut inner = open_pair_file(path)?;
    if classes == 0 || items == 0 {
        let (mut max_label, mut max_item, mut n) = (0u32, 0u32, 0u64);
        let mut buf = Vec::with_capacity(DEFAULT_CHUNK_ITEMS);
        while inner.fill(&mut buf, DEFAULT_CHUNK_ITEMS)? > 0 {
            for p in &buf {
                max_label = max_label.max(p.label);
                max_item = max_item.max(p.item);
            }
            n += buf.len() as u64;
            buf.clear();
        }
        if n == 0 {
            return Err("input contains no pairs".into());
        }
        if !inner.rewind(n)? {
            return Err(format!("{}: cannot rewind after the pre-pass", path.display()).into());
        }
        if classes == 0 {
            classes = max_label.saturating_add(1);
        }
        if items == 0 {
            items = max_item.saturating_add(1);
        }
    }
    Ok(CountedPairSource {
        inner,
        domains: Domains::new(classes, items)?,
        yielded: 0,
    })
}

/// Writes `content` to `path`, creating parent directories and naming the
/// path in any error (a bare `fs::write` error omits it).
fn write_with_context(path: &Path, content: &str) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    fs::write(path, content).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(())
}

/// Writes an estimated frequency table as `class,item,estimate` CSV.
pub fn write_frequency_csv(
    path: &Path,
    table: &FrequencyTable,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut out = String::from("class,item,estimate\n");
    for class in 0..table.domains().classes() {
        for item in 0..table.domains().items() {
            out.push_str(&format!("{class},{item},{}\n", table.get(class, item)));
        }
    }
    write_with_context(path, &out)
}

/// Writes per-class top-k results as `class,rank,item` CSV.
pub fn write_topk_csv(
    path: &Path,
    per_class: &[Vec<u32>],
) -> Result<(), Box<dyn std::error::Error>> {
    let mut out = String::from("class,rank,item\n");
    for (class, items) in per_class.iter().enumerate() {
        for (rank, item) in items.iter().enumerate() {
            out.push_str(&format!("{class},{},{item}\n", rank + 1));
        }
    }
    write_with_context(path, &out)
}

/// Writes a dataset as `label,item` CSV.
pub fn write_pairs_csv(path: &Path, pairs: &[LabelItem]) -> Result<(), Box<dyn std::error::Error>> {
    let mut out = String::from("label,item\n");
    for p in pairs {
        out.push_str(&format!("{},{}\n", p.label, p.item));
    }
    write_with_context(path, &out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcim_oracles::stream::drain_source;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("mcim-cli-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trip_pairs() {
        let path = tmp("round_trip.csv");
        let pairs = vec![LabelItem::new(0, 3), LabelItem::new(2, 7)];
        write_pairs_csv(&path, &pairs).unwrap();
        let mut loaded = open_pairs(&path, 0, 0).unwrap();
        assert_eq!(loaded.domains().classes(), 3, "inferred as max+1");
        assert_eq!(loaded.domains().items(), 8);
        assert_eq!(
            drain_source(&mut loaded).unwrap(),
            pairs,
            "the pre-pass rewinds"
        );
        assert_eq!(loaded.yielded(), 2);
    }

    #[test]
    fn explicit_domains_override_inference() {
        let path = tmp("explicit.csv");
        write_pairs_csv(&path, &[LabelItem::new(0, 0)]).unwrap();
        let loaded = open_pairs(&path, 5, 100).unwrap();
        assert_eq!(loaded.domains().classes(), 5);
        assert_eq!(loaded.domains().items(), 100);
    }

    #[test]
    fn rejects_garbage() {
        let path = tmp("garbage.csv");
        fs::write(&path, "label,item\n1,2,3\n").unwrap();
        assert!(open_pairs(&path, 0, 0).is_err(), "extra field");
        fs::write(&path, "label,item\nx,2\n").unwrap();
        assert!(open_pairs(&path, 0, 0).is_err(), "non-numeric");
        fs::write(&path, "").unwrap();
        assert!(open_pairs(&path, 0, 0).is_err(), "empty");
        assert!(
            open_pairs(&tmp("missing.csv"), 0, 0).is_err(),
            "missing file"
        );
    }

    #[test]
    fn output_creates_missing_parent_dirs() {
        let dir = tmp("nested").join("deep");
        let _ = fs::remove_dir_all(tmp("nested"));
        let path = dir.join("out.csv");
        write_pairs_csv(&path, &[LabelItem::new(0, 0)]).expect("parents created on demand");
        assert!(path.exists());
        let _ = fs::remove_dir_all(tmp("nested"));
    }

    #[test]
    fn write_errors_name_the_path() {
        // A directory path is unwritable as a file; the error must say which.
        let dir = tmp("is_a_dir");
        fs::create_dir_all(&dir).unwrap();
        let err = write_pairs_csv(&dir, &[LabelItem::new(0, 0)]).unwrap_err();
        assert!(
            err.to_string().contains("is_a_dir"),
            "error should name the path: {err}"
        );
    }

    #[test]
    fn domain_violation_with_explicit_domains() {
        let path = tmp("violation.csv");
        fs::write(&path, "5,1\n").unwrap();
        let mut source = open_pairs(&path, 2, 10).unwrap();
        assert!(drain_source(&mut source).is_err(), "label 5 outside c=2");
    }

    #[test]
    fn frequency_and_topk_outputs() {
        let domains = Domains::new(2, 2).unwrap();
        let table =
            FrequencyTable::ground_truth(domains, &[LabelItem::new(0, 1), LabelItem::new(1, 0)])
                .unwrap();
        let fpath = tmp("freq_out.csv");
        write_frequency_csv(&fpath, &table).unwrap();
        let content = fs::read_to_string(&fpath).unwrap();
        assert!(content.starts_with("class,item,estimate"));
        assert_eq!(content.lines().count(), 5);

        let tpath = tmp("topk_out.csv");
        write_topk_csv(&tpath, &[vec![1, 0], vec![0]]).unwrap();
        let content = fs::read_to_string(&tpath).unwrap();
        assert!(content.contains("0,1,1"));
        assert!(content.contains("1,1,0"));
    }
}
