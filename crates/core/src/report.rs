//! Experiment reporting: small tables that print as Markdown (for
//! EXPERIMENTS.md).

/// A table of experiment results.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment identifier (e.g. "F16").
    pub id: String,
    /// Title shown above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Table {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render as GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut s = format!("### {} — {}\n\n", self.id, self.title);
        s.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        s.push_str(&format!(
            "|{}|\n",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        ));
        for r in &self.rows {
            s.push_str(&format!("| {} |\n", r.join(" | ")));
        }
        s
    }

    /// Print the Markdown rendering and a blank line.
    pub fn print(&self) {
        println!("{}", self.to_markdown());
    }

    /// Append exactly what [`Table::print`] would write to stdout
    /// (Markdown plus the trailing newline) to a string buffer, so
    /// experiments can render into per-run buffers when driven in
    /// parallel.
    pub fn write_into(&self, out: &mut String) {
        // A page up front: an experiment's whole report (0.5–1.5 kB)
        // then lands in one allocation, and that allocation is too big
        // for glibc's per-thread cache. The drivers free the buffer on
        // another thread than the pool worker that filled it; a cached
        // chunk would pin that worker's arena (76 MB after a suite pass)
        // for the rest of the process.
        out.reserve(4096);
        out.push_str(&self.to_markdown());
        out.push('\n');
    }
}

/// Format a float with engineering-style precision.
pub fn fmt_f(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Format a byte count using binary units.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.1} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_shape() {
        let mut t = Table::new("F00", "demo", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### F00 — demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
        assert!(md.contains("|---|---|"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("F00", "demo", &["a", "b"]);
        t.row(&["1".into()]);
    }

    #[test]
    fn write_into_matches_print_bytes() {
        let mut t = Table::new("F02", "w", &["a"]);
        t.row(&["7".into()]);
        let mut buf = String::new();
        t.write_into(&mut buf);
        assert_eq!(buf, format!("{}\n", t.to_markdown()));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(123.456), "123");
        assert_eq!(fmt_f(1.234), "1.23");
        assert_eq!(fmt_f(0.1234), "0.1234");
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0 MiB");
        assert_eq!(fmt_bytes(5 << 30), "5.0 GiB");
    }
}
