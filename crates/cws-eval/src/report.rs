//! Structured experiment output: tables that render as text, CSV or JSON.

/// A rectangular table of results (one per figure panel or paper table).
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Panel / table caption.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of values, already formatted as strings.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given caption and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        Self { title: title.into(), columns, rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row length differs from the number of columns.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.columns.len(), "row arity must match the header");
        self.rows.push(row);
    }

    /// Renders the table as aligned plain text.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(header.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect();
            out.push_str(&cells.join("  "));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (header + rows).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(&self.columns.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// The result of one experiment (a paper table or figure).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Experiment id (`"table2"`, `"fig3"`, …) as `experiments list` prints it.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Free-form notes (what to look for; deviations from the paper).
    pub notes: Vec<String>,
    /// The result tables (one per figure panel).
    pub tables: Vec<Table>,
}

impl ExperimentReport {
    /// Creates an empty report.
    #[must_use]
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        Self { id: id.into(), title: title.into(), notes: Vec::new(), tables: Vec::new() }
    }

    /// Adds a note shown above the tables.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Adds a table.
    pub fn push_table(&mut self, table: Table) {
        self.tables.push(table);
    }

    /// Renders the full report as plain text.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = format!("# [{}] {}\n", self.id, self.title);
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out.push('\n');
        for table in &self.tables {
            out.push_str(&table.render_text());
            out.push('\n');
        }
        out
    }

    /// Renders every table as CSV, each under a `# <id> :: <table title>`
    /// line and followed by a blank line. Notes are not part of the CSV.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for table in &self.tables {
            out.push_str(&format!("# {} :: {}\n", self.id, table.title));
            out.push_str(&table.to_csv());
            out.push('\n');
        }
        out
    }

    /// Serializes the report as pretty JSON.
    ///
    /// Hand-rolled (the workspace builds without crates.io access, so there
    /// is no `serde_json`); the layout matches `serde_json::to_string_pretty`
    /// with two-space indentation.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"id\": {},\n", json_string(&self.id)));
        out.push_str(&format!("  \"title\": {},\n", json_string(&self.title)));
        out.push_str("  \"notes\": ");
        push_string_array(&mut out, &self.notes, 1);
        out.push_str(",\n  \"tables\": [");
        for (i, table) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!("      \"title\": {},\n", json_string(&table.title)));
            out.push_str("      \"columns\": ");
            push_string_array(&mut out, &table.columns, 3);
            out.push_str(",\n      \"rows\": [");
            for (j, row) in table.rows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n        ");
                push_string_array(&mut out, row, 4);
            }
            if table.rows.is_empty() {
                out.push(']');
            } else {
                out.push_str("\n      ]");
            }
            out.push_str("\n    }");
        }
        if self.tables.is_empty() {
            out.push(']');
        } else {
            out.push_str("\n  ]");
        }
        out.push_str("\n}");
        out
    }
}

/// Escapes and quotes a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Appends a pretty-printed JSON array of strings at the given indent depth.
fn push_string_array(out: &mut String, items: &[String], depth: usize) {
    if items.is_empty() {
        out.push_str("[]");
        return;
    }
    let pad = "  ".repeat(depth + 1);
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&pad);
        out.push_str(&json_string(item));
    }
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
    out.push(']');
}

/// Formats a float in compact scientific-ish notation for table cells.
#[must_use]
pub fn fmt(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else if !value.is_finite() {
        format!("{value}")
    } else if value.abs() >= 1e6 || value.abs() < 1e-3 {
        format!("{value:.3e}")
    } else if value.abs() >= 100.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_text_and_csv() {
        let mut table =
            Table::new("demo", vec!["k".to_string(), "value".to_string(), "note".to_string()]);
        table.push_row(vec!["16".into(), "0.5".into(), "a,b".into()]);
        table.push_row(vec!["64".into(), "0.25".into(), "plain".into()]);
        let text = table.render_text();
        assert!(text.contains("## demo"));
        assert!(text.contains("16"));
        let csv = table.to_csv();
        assert!(csv.starts_with("k,value,note"));
        assert!(csv.contains("\"a,b\""));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn row_arity_is_checked() {
        let mut table = Table::new("demo", vec!["a".to_string()]);
        table.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn report_renders_and_serializes() {
        let mut report = ExperimentReport::new("fig0", "demo report");
        report.note("a note");
        let mut table = Table::new("panel", vec!["x".to_string()]);
        table.push_row(vec!["1".into()]);
        report.push_table(table);
        let text = report.render_text();
        assert!(text.contains("[fig0]"));
        assert!(text.contains("note: a note"));
        let json = report.to_json();
        assert!(json.contains("\"id\": \"fig0\""));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(0.5), "0.5000");
        assert_eq!(fmt(1234.5678), "1234.6");
        assert!(fmt(1.5e9).contains('e'));
        assert!(fmt(2.0e-7).contains('e'));
        assert_eq!(fmt(f64::INFINITY), "inf");
    }
}
