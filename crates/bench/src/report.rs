//! Plain-text tables and CSV emission for the figure harnesses.

use std::fmt::Write as _;
use std::path::PathBuf;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:<w$}  ", c, w = widths[i]);
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Renders as CSV (headers first).
    pub fn to_csv(&self) -> String {
        let escape = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_owned()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Writes CSV content under `results/<name>.csv` (created on demand),
/// returning the path. Errors are printed, not fatal — benches should still
/// show their tables on a read-only filesystem.
pub fn write_csv(name: &str, content: &str) -> Option<PathBuf> {
    let dir = PathBuf::from("results");
    if std::fs::create_dir_all(&dir).is_err() {
        eprintln!("warning: cannot create results/");
        return None;
    }
    let path = dir.join(format!("{name}.csv"));
    match std::fs::write(&path, content) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["engine", "time"]);
        t.row(vec!["PostgreSQL".into(), "1.2s".into()]);
        t.row(vec!["MySQL".into(), "10.5s".into()]);
        let r = t.render();
        assert!(r.contains("engine"));
        assert!(r.lines().count() >= 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x,y".into(), "q\"z".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"q\"\"z\""));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
