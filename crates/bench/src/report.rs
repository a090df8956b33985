//! Report formatting for the experiment binaries: aligned console tables,
//! TSV files under `results/`, and byte/number formatting.

use std::io::Write;
use std::path::{Path, PathBuf};

/// A simple column-aligned table that prints to stdout and can be saved as
/// TSV.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    ///
    /// # Panics
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Render to a string with aligned columns.
    fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n## {}\n\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("| ");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{c:<w$} | ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{}-|", "-".repeat(w + 2)));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        lock.write_all(self.render().as_bytes())
            .expect("stdout write");
    }

    /// Write as TSV under `results/<file>`.
    ///
    /// # Panics
    /// Panics on I/O errors (experiment binaries want loud failures).
    pub fn save_tsv(&self, file: &str) -> PathBuf {
        let dir = results_dir();
        std::fs::create_dir_all(&dir).expect("create results dir");
        let path = dir.join(file);
        let mut out = String::new();
        out.push_str(&self.headers.join("\t"));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        std::fs::write(&path, out).expect("write TSV");
        path
    }
}

/// The results directory: `$PFE_RESULTS_DIR` or `./results`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("PFE_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new("results").to_path_buf())
}

/// Format a byte count with binary units.
pub fn fmt_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.2} {}", UNITS[unit])
    }
}

/// Format a float compactly (3 significant-ish digits, scientific for
/// extremes).
pub fn fmt_f64(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let a = v.abs();
    if !(1e-3..1e6).contains(&a) {
        format!("{v:.3e}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// Print a section banner.
pub fn banner(text: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{text}");
    println!("{}", "=".repeat(72));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-header"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["333".into(), "4".into()]);
        let r = t.render();
        assert!(r.contains("## demo"));
        assert!(r.contains("| a   | long-header |"));
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_ragged_rows() {
        Table::new("x", &["a", "b"]).row(&["1".into()]);
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.00 MiB");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(1.5), "1.5000");
        assert_eq!(fmt_f64(123.456), "123.5");
        assert!(fmt_f64(1e9).contains('e'));
        assert!(fmt_f64(1e-9).contains('e'));
    }

    #[test]
    fn tsv_roundtrip() {
        let tmp = std::env::temp_dir().join(format!("pfe-test-{}", std::process::id()));
        std::env::set_var("PFE_RESULTS_DIR", &tmp);
        let mut t = Table::new("t", &["x", "y"]);
        t.row(&["1".into(), "2".into()]);
        let path = t.save_tsv("demo.tsv");
        let content = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(content, "x\ty\n1\t2\n");
        std::fs::remove_dir_all(&tmp).ok();
        std::env::remove_var("PFE_RESULTS_DIR");
    }
}
