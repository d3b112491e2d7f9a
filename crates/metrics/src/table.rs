//! Plain-text tables: the harness prints every figure's data as an aligned
//! table (for reading) and CSV (for re-plotting).

use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header count.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned plain-text table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "# {}", self.title);
        }
        let mut line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(line, "{:>width$}", h, width = widths[i]);
            if i + 1 < ncols {
                line.push_str("  ");
            }
        }
        let _ = writeln!(out, "{line}");
        let _ = writeln!(out, "{}", "-".repeat(line.len()));
        for row in &self.rows {
            let mut line = String::new();
            for (i, c) in row.iter().enumerate() {
                let _ = write!(line, "{:>width$}", c, width = widths[i]);
                if i + 1 < ncols {
                    line.push_str("  ");
                }
            }
            let _ = writeln!(out, "{line}");
        }
        out
    }

    /// Renders CSV (headers + rows). Cells containing commas or quotes are
    /// quoted.
    pub fn to_csv(&self) -> String {
        fn esc(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let _ =
            writeln!(out, "{}", self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Fig X", &["mds", "ops/s"]);
        t.row(&["5".into(), "3100.0".into()]);
        t.row(&["10".into(), "2900.5".into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let r = sample().render();
        assert!(r.starts_with("# Fig X\n"));
        assert!(r.contains("mds"));
        assert!(r.contains("3100.0"));
        // All data lines share the header line's width.
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines[1].len(), lines[3].len());
    }

    #[test]
    fn csv_output() {
        let c = sample().to_csv();
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines[0], "mds,ops/s");
        assert_eq!(lines[1], "5,3100.0");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("", &["a", "b"]);
        t.row(&["x,y".into(), "he said \"hi\"".into()]);
        let c = t.to_csv();
        assert!(c.contains("\"x,y\""));
        assert!(c.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("", &["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
