//! Table rendering for experiment output (console and Markdown).

use std::fmt::Write as _;

/// A simple rectangular table with a title.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table title (e.g. `"Table 2: Execution Times for Barnes-Hut (s)"`).
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes rendered under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Create a table with a title and header.
    #[must_use]
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Create a table with owned headers.
    #[must_use]
    pub fn new_owned(title: &str, header: Vec<String>) -> Self {
        Table { title: title.to_string(), header, rows: Vec::new(), notes: Vec::new() }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Append a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    fn widths(&self) -> Vec<usize> {
        let cols = self.header.len().max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut w = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            w[i] = w[i].max(h.chars().count());
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                w[i] = w[i].max(c.chars().count());
            }
        }
        w
    }

    /// Render for the console.
    #[must_use]
    pub fn to_console(&self) -> String {
        let w = self.widths();
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let line = |out: &mut String| {
            for wi in &w {
                let _ = write!(out, "+{}", "-".repeat(wi + 2));
            }
            let _ = writeln!(out, "+");
        };
        line(&mut out);
        for (i, h) in self.header.iter().enumerate() {
            let _ = write!(out, "| {:width$} ", h, width = w[i]);
        }
        let _ = writeln!(out, "|");
        line(&mut out);
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                let _ = write!(out, "| {:width$} ", c, width = w[i]);
            }
            let _ = writeln!(out, "|");
        }
        line(&mut out);
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }

    /// Render as Markdown.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let _ = writeln!(out, "| {} |", self.header.join(" | "));
        let _ =
            writeln!(out, "|{}|", self.header.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
        for r in &self.rows {
            let _ = writeln!(out, "| {} |", r.join(" | "));
        }
        for n in &self.notes {
            let _ = writeln!(out, "\n*{n}*");
        }
        let _ = writeln!(out);
        out
    }
}

/// Format a duration in seconds with 3 decimals.
#[must_use]
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Format a duration in whole microseconds.
#[must_use]
pub fn micros(d: std::time::Duration) -> String {
    d.as_micros().to_string()
}

/// Format a duration in milliseconds with 2 decimals.
#[must_use]
pub fn millis(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_console_and_markdown() {
        let mut t = Table::new("T", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("hello");
        let c = t.to_console();
        assert!(c.contains("| a "));
        assert!(c.contains("note: hello"));
        let m = t.to_markdown();
        assert!(m.contains("| a | bb |"));
        assert!(m.contains("*hello*"));
    }
}
