//! Plain-text table rendering for experiment reports.
//!
//! All figure regenerators return a `String` so the same output appears in
//! the `repro` binary and `EXPERIMENTS.md`.

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (shorter rows are padded with empty cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate().take(cols) {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate().take(cols) {
                if c > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>width$}", width = widths[c]);
            }
            out.push('\n');
        };
        render_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats a ratio with three decimals.
pub fn ratio(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a goal fraction the way the paper's x-axes label it.
pub fn goal_label(frac: f64) -> String {
    format!("{:.0}%", 100.0 * frac)
}

/// Standard report preamble: figure id, what the paper reported, scale note.
pub fn preamble(experiment: &str, paper_claim: &str, scale_note: &str) -> String {
    format!("== {experiment} ==\npaper: {paper_claim}\n{scale_note}\n\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_and_padding() {
        let mut t = Table::new(["goal", "Spart", "Rollover"]);
        t.row(["50%", "0.9", "1.0"]);
        t.row(vec!["95%"]); // padded
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Rollover"));
        assert!(lines[1].starts_with('-'));
        assert!(lines[2].trim_start().starts_with("50%"));
        assert_eq!(lines[3].trim(), "95%");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.438), "43.8%");
        assert_eq!(ratio(1.0 / 3.0), "0.333");
        assert_eq!(goal_label(0.55), "55%");
    }

    #[test]
    fn preamble_contains_pieces() {
        let p = preamble("Fig. 6a", "Rollover best", "Quick scale");
        assert!(p.contains("Fig. 6a"));
        assert!(p.contains("Rollover best"));
        assert!(p.contains("Quick scale"));
    }
}
