//! Experiment reporting: typed tables that print as Markdown (for
//! EXPERIMENTS.md) and that tests read cell by cell.

use std::fmt;

use deep_simkit::SimDuration;

/// One table cell: a label, or a number with the formatter that prints
/// it. A claim reads the number; the Markdown shows `formatter(number)`.
#[derive(Debug, Clone)]
pub enum Cell {
    /// Text, printed as is.
    Label(String),
    /// A number and the function that renders it.
    Num(f64, fn(f64) -> String),
}

impl Cell {
    /// A number printed by [`fmt_f`].
    pub fn f(v: f64) -> Cell {
        Cell::Num(v, fmt_f)
    }

    /// A byte count printed by [`fmt_bytes`].
    pub fn bytes(b: u64) -> Cell {
        Cell::Num(b as f64, |v| fmt_bytes(v as u64))
    }

    /// A ratio printed as `1.23x`.
    pub fn x(v: f64) -> Cell {
        Cell::Num(v, |v| format!("{v:.2}x"))
    }

    /// A simulated span, read in seconds and printed by
    /// [`SimDuration`]'s `Display` (the nanosecond round trip is exact).
    pub fn secs(d: SimDuration) -> Cell {
        Cell::Num(d.as_secs_f64(), |s| {
            SimDuration::from_secs_f64(s).to_string()
        })
    }

    /// The number, or `None` for a label.
    pub fn value(&self) -> Option<f64> {
        match *self {
            Cell::Label(_) => None,
            Cell::Num(v, _) => Some(v),
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Label(s) => f.write_str(s),
            Cell::Num(v, render) => f.write_str(&render(*v)),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Label(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Label(s)
    }
}

impl From<&String> for Cell {
    fn from(s: &String) -> Cell {
        Cell::Label(s.clone())
    }
}

/// Counts print as integers (`f64`'s `Display` of a whole number, exact
/// below 2⁵³).
macro_rules! count_cells {
    ($($t:ty),*) => {$(
        impl From<$t> for Cell {
            fn from(n: $t) -> Cell {
                Cell::Num(n as f64, |v| v.to_string())
            }
        }
    )*};
}
count_cells!(u32, u64, usize);

/// A table of experiment results, with the prose printed after it.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment identifier (e.g. "F16").
    pub id: String,
    /// Title shown above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<Cell>>,
    /// Prose printed verbatim after the table (see [`Table::note`]).
    pub notes: String,
}

impl Table {
    /// Start a table.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Table {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: String::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: impl IntoIterator<Item = impl Into<Cell>>) {
        let cells: Vec<Cell> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Append a line of prose to print after the table.
    pub fn note(&mut self, line: &str) {
        self.notes.push_str(line);
        self.notes.push('\n');
    }

    /// The cell in column `col` of the row whose printed cells begin
    /// with `row` (`"1 | DynamicFcfs"` names a row by its first two
    /// cells). Panics unless exactly one row and one column match.
    pub fn cell(&self, row: &str, col: &str) -> &Cell {
        let c = self.headers.iter().position(|h| h == col);
        let c = c.unwrap_or_else(|| panic!("{}: no column {col:?}", self.id));
        let prefix = format!("{row} | ");
        let mut hits = self.rows.iter().filter(|r| {
            let line = line(r);
            line == row || line.starts_with(&prefix)
        });
        let hit = hits.next();
        let hit = hit.unwrap_or_else(|| panic!("{}: no row {row:?}", self.id));
        assert!(
            hits.next().is_none(),
            "{}: row {row:?} is ambiguous",
            self.id
        );
        &hit[c]
    }

    /// The number in [`Table::cell`]`(row, col)`; panics on a label.
    pub fn get(&self, row: &str, col: &str) -> f64 {
        let cell = self.cell(row, col);
        cell.value()
            .unwrap_or_else(|| panic!("{}: {row:?} / {col:?} is the label {cell}", self.id))
    }

    /// Render the table (without its notes) as GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut s = format!("### {} — {}\n\n", self.id, self.title);
        s.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        s.push_str(&format!(
            "|{}|\n",
            vec!["---"; self.headers.len()].join("|")
        ));
        for r in &self.rows {
            s.push_str(&format!("| {} |\n", line(r)));
        }
        s
    }

    /// Print what [`Table::write_into`] appends.
    pub fn print(&self) {
        let mut s = String::new();
        self.write_into(&mut s);
        print!("{s}");
    }

    /// Append the Markdown, a blank line and the notes to a string
    /// buffer, so experiments can render into per-run buffers when
    /// driven in parallel.
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
        out.push_str(&self.notes);
    }
}

/// A row's printed cells, joined as in the Markdown.
fn line(cells: &[Cell]) -> String {
    cells
        .iter()
        .map(Cell::to_string)
        .collect::<Vec<_>>()
        .join(" | ")
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
        t.row(["1", "2"]);
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
        t.row(["1"]);
    }

    #[test]
    fn write_into_matches_print_bytes() {
        let mut t = Table::new("F02", "w", &["a"]);
        t.row([7u32]);
        t.note("seven");
        let mut buf = String::new();
        t.write_into(&mut buf);
        assert_eq!(buf, format!("{}\nseven\n", t.to_markdown()));
    }

    #[test]
    fn cells_render_their_number_and_read_back_by_row_and_column() {
        let mut t = Table::new("T", "typed", &["k", "n", "v", "b", "x", "d"]);
        t.row([
            Cell::from("a"),
            3u64.into(),
            Cell::f(123.456),
            Cell::bytes(2048),
            Cell::x(1.5),
            Cell::secs(SimDuration::nanos(8144)),
        ]);
        t.row([
            Cell::from("a"),
            4u64.into(),
            "-".into(),
            Cell::bytes(1),
            Cell::x(0.5),
            Cell::f(0.0),
        ]);
        assert!(t
            .to_markdown()
            .contains("| a | 3 | 123 | 2.0 KiB | 1.50x | 8144ns |"));
        assert_eq!(t.get("a | 3", "v"), 123.456);
        assert_eq!(t.get("a | 3", "d"), 8.144e-6);
        assert_eq!(t.cell("a | 4", "v").value(), None);
    }

    #[test]
    #[should_panic(expected = "ambiguous")]
    fn a_row_label_must_name_one_row() {
        let mut t = Table::new("T", "dup", &["k", "n"]);
        t.row(["a", "1"]);
        t.row(["a", "2"]);
        t.get("a", "n");
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
