//! Plain-text table rendering for the experiment harness.
//!
//! Tables are printed in GitHub-flavoured Markdown so the harness output can be
//! pasted into a Markdown document as is.

/// A simple Markdown table builder.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must have as many cells as there are headers).
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Render as Markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n### {}\n\n", self.title));
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        out.push_str(&render_row(&self.headers, &widths));
        out.push('\n');
        let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("| {} |", dashes.join(" | ")));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render and print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Format a float with three decimals, trimming ".000" for integral values.
pub fn fmt_value(v: f64) -> String {
    if (v - v.round()).abs() < 1e-9 {
        format!("{}", v.round() as i64)
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown() {
        let mut t = Table::new("demo", &["a", "longer"]);
        t.add_row(vec!["1".into(), "2".into()]);
        t.add_row(vec!["100".into(), "x".into()]);
        let r = t.render();
        assert!(r.contains("### demo"));
        assert!(r.contains("| a   | longer |"));
        assert!(r.contains("| 100 | x      |"));
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    #[should_panic]
    fn row_width_mismatch_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.add_row(vec!["1".into()]);
    }

    #[test]
    fn value_formatting() {
        assert_eq!(fmt_value(3.0), "3");
        assert_eq!(fmt_value(2.5), "2.500");
        assert_eq!(fmt_value(1.9999999999), "2");
    }
}
