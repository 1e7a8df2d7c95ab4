//! What an experiment reports through: the [`Sheet`] — columns declared
//! once, rows pushed once, rendered as an aligned text table and as CSV
//! and written next to the run manifests — plus the file writers and the
//! float format every table shares.

use std::io::Write;
use std::ops::Range;
use std::path::Path;

use tactic_telemetry::RunManifest;
use tactic_topology::paper::PaperTopology;

/// One column of a [`Sheet`]: its CSV key and its table title — only one
/// of them for a column only that rendering shows.
#[derive(Debug, Clone)]
pub struct Column {
    key: Option<String>,
    title: Option<String>,
}

impl Column {
    /// A column of both renderings: `key` heads it in the CSV, `title` in
    /// the table.
    pub fn new(key: impl Into<String>, title: impl Into<String>) -> Self {
        Column {
            key: Some(key.into()),
            title: Some(title.into()),
        }
    }

    /// A column only the rendered table has.
    pub fn table(title: impl Into<String>) -> Self {
        Column {
            key: None,
            title: Some(title.into()),
        }
    }

    /// A column only the CSV has.
    pub fn csv(key: impl Into<String>) -> Self {
        Column {
            key: Some(key.into()),
            title: None,
        }
    }
}

/// One value of a [`Sheet`] row, as the table and as the CSV show it —
/// the same text unless [`Field::two`] says otherwise.
#[derive(Debug, Clone)]
pub struct Field {
    table: String,
    csv: String,
}

impl Field {
    /// A value the table and the CSV spell differently.
    pub fn two(table: impl Into<String>, csv: impl Into<String>) -> Self {
        Field {
            table: table.into(),
            csv: csv.into(),
        }
    }

    /// A false-positive probability: `1e-4` in tables, Rust's shortest
    /// exact `{:e}` form in CSVs.
    pub fn fpp(p: f64) -> Self {
        Field::two(format!("{p:.0e}"), format!("{p:e}"))
    }
}

impl From<String> for Field {
    fn from(text: String) -> Self {
        Field::two(text.clone(), text)
    }
}

impl From<&str> for Field {
    fn from(text: &str) -> Self {
        Field::two(text, text)
    }
}

/// A paper topology is `Topo. 1` in tables and `1` in CSVs.
impl From<PaperTopology> for Field {
    fn from(topo: PaperTopology) -> Self {
        Field::two(topo.to_string(), topo.index().to_string())
    }
}

/// The one type an experiment reports through: columns declared once, rows
/// pushed once, rendered as an aligned text table and as CSV.
#[derive(Debug, Clone)]
pub struct Sheet {
    columns: Vec<Column>,
    rows: Vec<Vec<Field>>,
}

impl Sheet {
    /// Creates a sheet with the given columns.
    pub fn new(columns: impl IntoIterator<Item = Column>) -> Self {
        Sheet {
            columns: columns.into_iter().collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row, one field per declared column (whichever rendering
    /// the column shows in).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the column count.
    pub fn row(&mut self, fields: impl IntoIterator<Item = Field>) -> &mut Self {
        let fields: Vec<Field> = fields.into_iter().collect();
        assert_eq!(fields.len(), self.columns.len(), "row width mismatch");
        self.rows.push(fields);
        self
    }

    /// One rendering's lines, header first: the columns `head` names,
    /// each row's fields as `text` spells them.
    fn lines<'a>(
        &'a self,
        rows: Range<usize>,
        head: impl Fn(&'a Column) -> Option<&'a String>,
        text: impl Fn(&'a Field) -> &'a String,
    ) -> Vec<Vec<&'a str>> {
        let shown = |c: &usize| head(&self.columns[*c]).is_some();
        let shown: Vec<usize> = (0..self.columns.len()).filter(shown).collect();
        let header = shown.iter().filter_map(|&c| head(&self.columns[c]));
        let mut lines = vec![header.map(String::as_str).collect()];
        for row in &self.rows[rows] {
            lines.push(shown.iter().map(|&c| text(&row[c]).as_str()).collect());
        }
        lines
    }

    /// Renders the table with aligned columns (header, separator, rows).
    pub fn render(&self) -> String {
        self.render_rows(0..self.rows.len())
    }

    /// [`render`](Self::render) over a range of the rows only, aligned to
    /// those rows — for a report that shows one sheet in sections.
    pub fn render_rows(&self, rows: Range<usize>) -> String {
        let mut lines = self.lines(rows, |column| column.title.as_ref(), |field| &field.table);
        let mut widths = vec![0; lines[0].len()];
        for line in &lines {
            for (width, cell) in widths.iter_mut().zip(line) {
                *width = (*width).max(cell.len());
            }
        }
        let rules: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        lines.insert(1, rules.iter().map(String::as_str).collect());
        let mut out = String::new();
        for line in lines {
            let cells = line.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}"));
            out.push_str(cells.collect::<Vec<_>>().join("  ").trim_end());
            out.push('\n');
        }
        out
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let esc = |s: &&str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        for line in self.lines(
            0..self.rows.len(),
            |column| column.key.as_ref(),
            |field| &field.csv,
        ) {
            out.push_str(&line.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the sheet as `<stem>.csv` and `manifests` (when the
    /// experiment simulated anything) as `<stem>.manifest.jsonl`, and
    /// returns the rendered table with its "Written to" trailer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn finish<'a>(
        &self,
        dir: &Path,
        stem: &str,
        manifests: impl IntoIterator<Item = &'a RunManifest>,
    ) -> std::io::Result<String> {
        write_file(dir, &format!("{stem}.csv"), &self.to_csv())?;
        let mut manifests = manifests.into_iter().peekable();
        if manifests.peek().is_some() {
            write_manifests(dir, stem, manifests)?;
        }
        Ok(format!("{}\nWritten to {stem}.csv\n", self.render()))
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
    manifests: impl IntoIterator<Item = &'a RunManifest>,
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
        let mut t = Sheet::new([Column::new("a", "a"), Column::new("b", "bbbb")]);
        t.row(["xxxxx".into(), "1".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a    "));
        assert!(lines[1].starts_with("-----"));
    }

    #[test]
    fn csv_escapes() {
        let mut t = Sheet::new([Column::new("x", "X")]);
        t.row(["a,b".into()]);
        t.row(["q\"q".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"q\"\"q\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        Sheet::new([Column::new("a", "A"), Column::table("B")]).row(["only one".into()]);
    }

    /// Columns land where they are declared, a two-form field shows each
    /// form in its place, and a section aligns to its own rows.
    #[test]
    fn one_row_renders_both_ways() {
        let mut t = Sheet::new([
            Column::new("topology", "Topology"),
            Column::csv("requested"),
            Column::table("retx/req"),
            Column::new("fpp", "FPP"),
        ]);
        t.row([
            PaperTopology::Topo1.into(),
            "10".into(),
            "0.5".into(),
            Field::fpp(1e-4),
        ]);
        t.row([
            Field::two("a much longer name", "2"),
            "20".into(),
            "0.25".into(),
            Field::fpp(0.01),
        ]);
        assert_eq!(t.to_csv(), "topology,requested,fpp\n1,10,1e-4\n2,20,1e-2\n");
        assert_eq!(
            t.render(),
            "Topology            retx/req  FPP\n\
             ------------------  --------  ----\n\
             Topo. 1             0.5       1e-4\n\
             a much longer name  0.25      1e-2\n"
        );
        assert_eq!(
            t.render_rows(0..1),
            "Topology  retx/req  FPP\n--------  --------  ----\nTopo. 1   0.5       1e-4\n"
        );
    }

    /// `finish` leaves the CSV, a manifest file only when something was
    /// simulated, and hands back the table under its trailer.
    #[test]
    fn finish_writes_the_artifacts_and_returns_the_report() {
        let dir = std::env::temp_dir().join("tactic-output-finish-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = Sheet::new([Column::new("k", "K")]);
        t.row(["v".into()]);
        let report = t.finish(&dir, "quiet", []).unwrap();
        assert_eq!(report, "K\n-\nv\n\nWritten to quiet.csv\n");
        assert_eq!(
            std::fs::read_to_string(dir.join("quiet.csv")).unwrap(),
            "k\nv\n"
        );
        assert!(!dir.join("quiet.manifest.jsonl").exists());
        t.finish(&dir, "ran", [&manifest()]).unwrap();
        let body = std::fs::read_to_string(dir.join("ran.manifest.jsonl")).unwrap();
        assert_eq!(body.lines().count(), 1);
    }

    #[test]
    fn write_file_roundtrip() {
        let dir = std::env::temp_dir().join("tactic-output-test");
        write_file(&dir, "t.csv", "a,b\n").unwrap();
        assert_eq!(std::fs::read_to_string(dir.join("t.csv")).unwrap(), "a,b\n");
    }

    fn manifest() -> RunManifest {
        RunManifest {
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
        }
    }

    #[test]
    fn manifests_written_next_to_csv() {
        let dir = std::env::temp_dir().join("tactic-output-manifest-test");
        let m = manifest();
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
