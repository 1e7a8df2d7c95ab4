//! Text tables and CSV output for the experiment harness.

use std::io::Write;
use std::path::Path;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns (header, separator, rows).
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        out.push_str(
            &self
                .header
                .iter()
                .map(|s| esc(s))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|s| esc(s)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Writes `content` to `dir/name`, creating the directory.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_file(dir: &Path, name: &str, content: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::File::create(dir.join(name))?;
    f.write_all(content.as_bytes())
}

/// Writes per-run manifests as `<stem>.manifest.jsonl` next to the
/// artifacts of the same stem, one JSON line per run in job order.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_manifests<'a>(
    dir: &Path,
    stem: &str,
    manifests: impl IntoIterator<Item = &'a tactic_telemetry::RunManifest>,
) -> std::io::Result<()> {
    let mut content = String::new();
    for m in manifests {
        content.push_str(&m.to_json_line());
        content.push('\n');
    }
    write_file(dir, &format!("{stem}.manifest.jsonl"), &content)
}

/// Formats a float compactly (up to 4 significant decimals).
pub fn fmt_f(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new(vec!["a", "bbbb"]);
        t.row(vec!["xxxxx", "1"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a    "));
        assert!(lines[1].starts_with("-----"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn csv_escapes() {
        let mut t = TextTable::new(vec!["x"]);
        t.row(vec!["a,b"]);
        t.row(vec!["q\"q"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"q\"\"q\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        TextTable::new(vec!["a", "b"]).row(vec!["only one"]);
    }

    #[test]
    fn write_file_roundtrip() {
        let dir = std::env::temp_dir().join("tactic-output-test");
        write_file(&dir, "t.csv", "a,b\n").unwrap();
        assert_eq!(std::fs::read_to_string(dir.join("t.csv")).unwrap(), "a,b\n");
    }

    #[test]
    fn manifests_written_next_to_csv() {
        let dir = std::env::temp_dir().join("tactic-output-manifest-test");
        let m = tactic_telemetry::RunManifest {
            label: "x".into(),
            topology: "Topo1".into(),
            scenario_id: 1,
            run_idx: 0,
            seed: 2,
            scenario: "duration=3s".into(),
            sim_events: 4,
            peak_queue_depth: 5,
            wall_ms: 6,
            drops: Default::default(),
            shards: 1,
            edge_cut: 0,
            epochs: 0,
            per_shard_events: vec![4],
            per_shard_peak_queue: vec![5],
            per_shard_peak_pit: vec![3],
            per_shard_peak_cs: vec![2],
            lifecycle: Default::default(),
        };
        write_manifests(&dir, "exp", &[m.clone(), m]).unwrap();
        let body = std::fs::read_to_string(dir.join("exp.manifest.jsonl")).unwrap();
        assert_eq!(body.lines().count(), 2);
        assert!(body.starts_with("{\"label\":\"x\""));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(0.25), "0.2500");
        assert_eq!(fmt_f(2.5), "2.500");
        assert_eq!(fmt_f(123.456), "123.5");
    }
}
