//! Tabular experiment reports: console rendering and TSV export.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A rendered experiment artifact: a titled table of rows.
#[derive(Debug, Clone)]
pub struct Report {
    id: String,
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Report {
    /// Starts an empty report for artifact `id`.
    pub fn new(id: &str, title: &str, columns: &[impl AsRef<str>]) -> Report {
        Report {
            id: id.to_owned(),
            title: title.to_owned(),
            columns: columns.iter().map(|c| c.as_ref().to_owned()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width mismatch in {}",
            self.id
        );
        self.rows.push(row);
    }

    /// Appends a free-form note shown under the table.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Artifact id (`table1`, `fig5`, ...).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Human title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Looks up a cell as text (for tests).
    pub fn cell(&self, row: usize, col: usize) -> Option<&str> {
        self.rows.get(row).and_then(|r| r.get(col)).map(|s| s.as_str())
    }

    /// Finds the first row whose first column equals `key`.
    pub fn row_by_key(&self, key: &str) -> Option<&[String]> {
        self.rows.iter().find(|r| r[0] == key).map(|r| r.as_slice())
    }

    /// Renders an aligned console table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }

    /// Serializes as tab-separated values (header + rows).
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.columns.join("\t"));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join("\t"));
        }
        out
    }

    /// Writes `<dir>/<id>.tsv`, creating `dir` if needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_tsv(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.tsv", self.id));
        fs::write(&path, self.to_tsv())?;
        Ok(path)
    }
}

/// Formats nanoseconds compactly ("2010 ns" / "1.41 ms").
pub fn fmt_ns(ns: f64) -> String {
    if !ns.is_finite() {
        "n/a".to_owned()
    } else if ns < 10_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 10_000_000.0 {
        format!("{:.1} us", ns / 1_000.0)
    } else {
        format!("{:.2} ms", ns / 1_000_000.0)
    }
}

/// Formats a ratio with two decimals, or "n/a".
pub fn fmt_ratio(r: Option<f64>) -> String {
    match r {
        Some(v) if v.is_finite() => format!("{v:.2}"),
        _ => "n/a".to_owned(),
    }
}

/// Formats simulated seconds; unfinished runs render as `> limit`.
pub fn fmt_secs(seconds: f64, finished: bool) -> String {
    if finished {
        format!("{seconds:.3}")
    } else {
        format!("> {seconds:.0} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("t", "sample", &["lock", "value"]);
        r.push_row(vec!["TATAS".into(), "1".into()]);
        r.push_row(vec!["MCS".into(), "22".into()]);
        r.push_note("hello");
        r
    }

    #[test]
    fn render_aligns_and_includes_notes() {
        let s = sample().render();
        assert!(s.contains("== t — sample =="));
        assert!(s.contains("TATAS"));
        assert!(s.contains("note: hello"));
    }

    #[test]
    fn tsv_roundtrip() {
        let tsv = sample().to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines[0], "lock\tvalue");
        assert_eq!(lines[2], "MCS\t22");
    }

    #[test]
    fn write_tsv_creates_file() {
        let dir = std::env::temp_dir().join("hbo_repro_report_test");
        let path = sample().write_tsv(&dir).unwrap();
        assert!(path.exists());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn row_lookup() {
        let r = sample();
        assert_eq!(r.row_by_key("MCS").unwrap()[1], "22");
        assert!(r.row_by_key("QOLB").is_none());
        assert_eq!(r.cell(0, 1), Some("1"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut r = Report::new("t", "t", &["a", "b"]);
        r.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ns(2010.0), "2010 ns");
        assert_eq!(fmt_ns(150_000.0), "150.0 us");
        assert_eq!(fmt_ns(f64::NAN), "n/a");
        assert_eq!(fmt_ratio(Some(0.5)), "0.50");
        assert_eq!(fmt_ratio(None), "n/a");
        assert_eq!(fmt_secs(1.5, true), "1.500");
        assert!(fmt_secs(200.0, false).starts_with("> 200"));
    }
}
