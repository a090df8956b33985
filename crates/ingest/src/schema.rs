//! Schema discovery and ingest options.

use crate::error::IngestError;

/// Most columns a stream may have: a column subset is a `u64` mask, and
/// an α-net summary needs `d ≤ 63`. A wider file is rejected at its
/// header, before any sink is built.
pub const MAX_COLUMNS: usize = 63;

/// The discovered (or declared) shape of the input: one named column per
/// stream dimension, over alphabet `[0, Q)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Column names, in file order. One per stream dimension.
    pub columns: Vec<String>,
    /// Alphabet size `Q`: every value must lie in `[0, Q)`.
    pub alphabet: u32,
}

impl Schema {
    /// The stream dimension `d` (number of columns).
    pub fn dimension(&self) -> u32 {
        self.columns.len() as u32
    }

    /// Whether this schema takes the packed binary fast path
    /// (`Q = 2`, `d ≤ 63`: one row is one `u64`).
    pub fn packed(&self) -> bool {
        self.alphabet == 2 && self.columns.len() <= MAX_COLUMNS
    }

    /// Synthesized column names `c0..c{d-1}` for headerless input.
    pub fn synthetic(d: u32, alphabet: u32) -> Self {
        Self {
            columns: (0..d).map(|i| format!("c{i}")).collect(),
            alphabet,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), IngestError> {
        if self.columns.is_empty() {
            return Err(IngestError::Schema("zero columns".into()));
        }
        if self.columns.len() > MAX_COLUMNS {
            return Err(IngestError::Schema(format!(
                "{} columns: a stream has at most {MAX_COLUMNS}",
                self.columns.len()
            )));
        }
        if let Some(i) = self.columns.iter().position(|c| c.is_empty()) {
            return Err(IngestError::Schema(format!(
                "column {} has an empty name",
                i + 1
            )));
        }
        if self.alphabet < 2 {
            return Err(IngestError::Schema(format!(
                "alphabet Q={} must be at least 2",
                self.alphabet
            )));
        }
        if self.alphabet > u16::MAX as u32 + 1 {
            return Err(IngestError::Schema(format!(
                "alphabet Q={} exceeds the u16 symbol range",
                self.alphabet
            )));
        }
        Ok(())
    }
}

/// Knobs for one ingest run. `Default` matches the common case: headered
/// CSV over a binary alphabet, 8192-row chunks, strict (no rejects).
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Field delimiter; `None` infers from the file extension
    /// (`.tsv`/`.tab` → tab, anything else → comma).
    pub delimiter: Option<u8>,
    /// Whether the first line names the columns (default `true`).
    pub has_header: bool,
    /// Explicit column names. With a header, these are validated against
    /// it; without one, they declare the dimension directly.
    pub columns: Option<Vec<String>>,
    /// Alphabet size `Q` (default 2).
    pub alphabet: u32,
    /// Rows per chunk handed to the sink (default 8192).
    pub chunk_rows: usize,
    /// Bytes per read from the underlying file (default 1 MiB).
    pub chunk_bytes: usize,
    /// How many malformed rows to skip (counted, not silently dropped)
    /// before giving up with the typed error. 0 = strict: the first bad
    /// row aborts the run (default).
    pub max_rejects: u64,
}

impl Default for IngestOptions {
    fn default() -> Self {
        Self {
            delimiter: None,
            has_header: true,
            columns: None,
            alphabet: 2,
            chunk_rows: 8192,
            chunk_bytes: 1 << 20,
            max_rejects: 0,
        }
    }
}

impl IngestOptions {
    pub(crate) fn delimiter_for(&self, path: &str) -> u8 {
        if let Some(d) = self.delimiter {
            return d;
        }
        let lower = path.to_ascii_lowercase();
        if lower.ends_with(".tsv") || lower.ends_with(".tab") {
            b'\t'
        } else {
            b','
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_shape_and_packing() {
        let s = Schema::synthetic(8, 2);
        assert_eq!(s.dimension(), 8);
        assert_eq!(s.columns[0], "c0");
        assert!(s.packed());
        assert!(Schema::synthetic(63, 2).packed());
        assert!(!Schema::synthetic(64, 2).packed());
        assert!(!Schema::synthetic(8, 3).packed());
        assert!(s.validate().is_ok());
        assert!(Schema::synthetic(0, 2).validate().is_err());
        assert!(Schema::synthetic(63, 2).validate().is_ok());
        assert!(Schema::synthetic(64, 4).validate().is_err());
        assert!(Schema::synthetic(4, 1).validate().is_err());
        assert!(Schema::synthetic(4, 70_000).validate().is_err());
        assert!(Schema::synthetic(4, 65_536).validate().is_ok());
    }

    #[test]
    fn delimiter_inference() {
        let opts = IngestOptions::default();
        assert_eq!(opts.delimiter_for("rows.csv"), b',');
        assert_eq!(opts.delimiter_for("rows.TSV"), b'\t');
        assert_eq!(opts.delimiter_for("rows.tab"), b'\t');
        assert_eq!(opts.delimiter_for("rows"), b',');
        let opts = IngestOptions {
            delimiter: Some(b';'),
            ..Default::default()
        };
        assert_eq!(opts.delimiter_for("rows.tsv"), b';');
    }
}
