//! CSV edge-case suite: every way a file can be malformed is a typed
//! error with line/column provenance — never a panic, never a silent
//! skip — and every accepted file parses identically to a naive
//! row-at-a-time reference reader regardless of chunk boundaries.

use std::io::Cursor;

use pfe_ingest::{
    FileIngester, IngestError, IngestOptions, ParseErrorKind, Schema, VecSink, MAX_COLUMNS,
};
use proptest::prelude::*;

fn ingest_str(
    text: &[u8],
    opts: IngestOptions,
) -> Result<(VecSink, pfe_ingest::IngestReport), IngestError> {
    FileIngester::new(opts).ingest_reader_with(Cursor::new(text.to_vec()), "test.csv", |_| {
        Ok(VecSink::default())
    })
}

fn parse_error(e: IngestError) -> (u64, u32, ParseErrorKind) {
    match e {
        IngestError::Parse {
            line, column, kind, ..
        } => (line, column, kind),
        other => panic!("expected parse error, got {other}"),
    }
}

#[test]
fn quoted_fields_and_crlf() {
    let (sink, report) = ingest_str(
        b"a,b,c\r\n\"1\",0,1\r\n0,\"1\",\"1\"\r\n",
        IngestOptions::default(),
    )
    .expect("quoted CRLF input parses");
    assert_eq!(report.rows, 2);
    assert_eq!(report.schema.columns, vec!["a", "b", "c"]);
    assert_eq!(sink.packed, vec![0b101, 0b110]);
}

#[test]
fn missing_trailing_newline() {
    let (sink, report) =
        ingest_str(b"a,b\n1,0\n0,1", IngestOptions::default()).expect("last line still a row");
    assert_eq!(report.rows, 2);
    assert_eq!(sink.packed, vec![0b01, 0b10]);
}

#[test]
fn ragged_rows_carry_provenance() {
    let err = ingest_str(b"a,b,c\n1,0,1\n1,0\n", IngestOptions::default()).unwrap_err();
    assert_eq!(parse_error(err), (3, 2, ParseErrorKind::Ragged));
    let err = ingest_str(b"a,b\n1,0,1\n", IngestOptions::default()).unwrap_err();
    assert_eq!(parse_error(err), (2, 3, ParseErrorKind::Ragged));
    // A blank interior line is ragged too, flagged at the row level.
    let err = ingest_str(b"a,b\n1,0\n\n0,1\n", IngestOptions::default()).unwrap_err();
    assert_eq!(parse_error(err), (3, 0, ParseErrorKind::Ragged));
}

#[test]
fn empty_inputs_are_typed() {
    assert!(matches!(
        ingest_str(b"", IngestOptions::default()),
        Err(IngestError::EmptyInput { .. })
    ));
    // Header but no data rows.
    assert!(matches!(
        ingest_str(b"a,b\n", IngestOptions::default()),
        Err(IngestError::EmptyInput { .. })
    ));
}

#[test]
fn non_utf8_bytes_are_typed() {
    // In a header: the column name must be text.
    let err = ingest_str(b"a,\xff\xfe\n1,0\n", IngestOptions::default()).unwrap_err();
    assert_eq!(parse_error(err).2, ParseErrorKind::Utf8);
    // In a data field: flagged with exact row/field position.
    let err = ingest_str(b"a,b\n1,\xc3\xa9\n", IngestOptions::default()).unwrap_err();
    assert_eq!(parse_error(err), (2, 2, ParseErrorKind::Utf8));
}

#[test]
fn bad_digits_and_out_of_range() {
    let err = ingest_str(b"a,b\n1,x\n", IngestOptions::default()).unwrap_err();
    assert_eq!(parse_error(err), (2, 2, ParseErrorKind::BadDigit));
    let err = ingest_str(b"a,b\n1,7\n", IngestOptions::default()).unwrap_err();
    assert_eq!(parse_error(err), (2, 2, ParseErrorKind::OutOfRange));
    let err = ingest_str(
        b"a\n9\n",
        IngestOptions {
            alphabet: 9,
            ..Default::default()
        },
    )
    .unwrap_err();
    assert_eq!(parse_error(err), (2, 1, ParseErrorKind::OutOfRange));
}

#[test]
fn quote_errors_are_typed() {
    let err = ingest_str(b"a,b\n\"1,0\n", IngestOptions::default()).unwrap_err();
    assert!(matches!(
        parse_error(err).2,
        ParseErrorKind::Quote | ParseErrorKind::BadDigit
    ));
    let err = ingest_str(b"a,b\n\"1\"x,0\n", IngestOptions::default()).unwrap_err();
    assert_eq!(parse_error(err), (2, 1, ParseErrorKind::Quote));
}

#[test]
fn reject_budget_skips_and_counts() {
    let opts = IngestOptions {
        max_rejects: 2,
        ..Default::default()
    };
    let (sink, report) =
        ingest_str(b"a,b\n1,0\nbad,row\n0,1\n1,1,1\n", opts).expect("under budget");
    assert_eq!(report.rows, 2);
    assert_eq!(report.rejected, 2);
    assert_eq!(sink.packed, vec![0b01, 0b10]);
    // One over budget: the typed error comes back.
    let opts = IngestOptions {
        max_rejects: 1,
        ..Default::default()
    };
    let err = ingest_str(b"a,b\n1,0\nbad,row\n0,1\n1,1,1\n", opts).unwrap_err();
    assert_eq!(parse_error(err).0, 5);
}

#[test]
fn header_validation_against_declared_columns() {
    let opts = IngestOptions {
        columns: Some(vec!["a".into(), "b".into()]),
        ..Default::default()
    };
    assert!(ingest_str(b"a,b\n1,0\n", opts.clone()).is_ok());
    let err = ingest_str(b"a,c\n1,0\n", opts).unwrap_err();
    assert!(matches!(err, IngestError::Schema(_)), "{err}");
}

/// A stream has at most 63 columns (every engine's α-net needs `d ≤ 63`):
/// a 64-column file is a typed schema error naming the limit, raised at
/// the header before any sink is built, binary or not; 63 columns ingest.
#[test]
fn more_than_63_columns_are_rejected_at_the_header() {
    let file = |d: usize| {
        let header: Vec<String> = (0..d).map(|c| format!("c{c}")).collect();
        format!("{}\n{}\n", header.join(","), vec!["1"; d].join(",")).into_bytes()
    };
    assert_eq!(MAX_COLUMNS, 63);
    let (sink, report) = ingest_str(&file(63), IngestOptions::default()).expect("63 columns");
    assert_eq!((report.schema.dimension(), report.rows), (63, 1));
    assert_eq!(sink.packed, [(1 << 63) - 1]);
    for q in [2, 4] {
        let opts = IngestOptions {
            alphabet: q,
            ..Default::default()
        };
        let mut built = false;
        let err = FileIngester::new(opts)
            .ingest_reader_with(Cursor::new(file(64)), "wide.csv", |_| {
                built = true;
                Ok(VecSink::default())
            })
            .unwrap_err();
        assert!(!built, "q={q}: the sink is never built");
        match err {
            IngestError::Schema(msg) => assert!(msg.contains("at most 63"), "{msg}"),
            other => panic!("q={q}: expected a schema error, got {other}"),
        }
    }
}

#[test]
fn headerless_modes() {
    // Declared columns fix the dimension.
    let opts = IngestOptions {
        has_header: false,
        columns: Some(vec!["x".into(), "y".into()]),
        ..Default::default()
    };
    let (sink, report) = ingest_str(b"1,0\n0,1\n", opts).expect("headerless");
    assert_eq!(report.rows, 2);
    assert_eq!(report.schema.columns, vec!["x", "y"]);
    assert_eq!(sink.packed, vec![0b01, 0b10]);
    // Undeclared: the first row fixes the dimension, names synthesize.
    let opts = IngestOptions {
        has_header: false,
        ..Default::default()
    };
    let (sink, report) = ingest_str(b"1,0,1\n0,1,1\n", opts).expect("headerless undeclared");
    assert_eq!(report.rows, 2);
    assert_eq!(report.schema, Schema::synthetic(3, 2));
    assert_eq!(sink.packed, vec![0b101, 0b110]);
}

#[test]
fn dense_alphabets_flatten_row_major() {
    let opts = IngestOptions {
        alphabet: 10,
        ..Default::default()
    };
    let (sink, report) = ingest_str(b"a,b\n3,7\n9,0\n", opts).expect("dense");
    assert_eq!(report.rows, 2);
    assert!(sink.packed.is_empty());
    assert_eq!(sink.dense, vec![3, 7, 9, 0]);
}

#[test]
fn chunk_boundaries_never_change_the_answer() {
    // Torture the reader with a chunk size smaller than any line: every
    // line crosses a read boundary, and the result must be identical.
    let text: Vec<u8> = {
        let mut t = b"a,b,c\n".to_vec();
        for i in 0..500u64 {
            t.extend_from_slice(
                format!("{},{},{}\n", i & 1, (i >> 1) & 1, (i >> 2) & 1).as_bytes(),
            );
        }
        t
    };
    let (whole, _) = ingest_str(&text, IngestOptions::default()).expect("one-shot");
    for chunk_bytes in [1, 3, 7, 64] {
        let opts = IngestOptions {
            chunk_bytes,
            chunk_rows: 13,
            ..Default::default()
        };
        let (pieces, report) = ingest_str(&text, opts).expect("chunked");
        assert_eq!(pieces, whole, "chunk_bytes={chunk_bytes} changed the parse");
        assert_eq!(report.rows, 500);
    }
}

/// The naive row-at-a-time reference: String splitting, per-row allocs —
/// everything the columnar path avoids, kept here as its ground truth.
/// With `header`, the first line names the columns and is skipped.
fn naive_reference(text: &str, q: u32, delim: char, header: bool) -> Result<Vec<Vec<u16>>, String> {
    let mut rows = Vec::new();
    let mut d: Option<usize> = None;
    for line in text.lines().skip(usize::from(header)) {
        let line = line.strip_suffix('\r').unwrap_or(line);
        let mut row = Vec::new();
        for field in line.split(delim) {
            let field = field
                .strip_prefix('"')
                .and_then(|f| f.strip_suffix('"'))
                .unwrap_or(field);
            let v: u16 = field.parse().map_err(|e| format!("{e}"))?;
            if v as u32 >= q {
                return Err(format!("{v} out of range"));
            }
            row.push(v);
        }
        if *d.get_or_insert(row.len()) != row.len() {
            return Err("ragged".into());
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Generated files, read from disk by `FileIngester`, hold the rows the
/// naive reference reads: headers, quoted fields, CRLF, a `.tsv` file's
/// inferred tab and two-digit `Q = 16` fields, with regular lines (the
/// parser's eight-bytes-a-step path) between lines only its byte walk
/// takes, and reads that cut lines anywhere.
#[test]
fn generated_files_parse_as_the_naive_reference() {
    let dir = std::env::temp_dir().join(format!("pfe-ingest-naive-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut state = 0x5eed_u64;
    let mut next = |n: u64| {
        state = state.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0xb5);
        (state >> 33) % n
    };
    // (file, Q, d, every line CRLF)
    for (name, q, d, crlf) in [
        ("binary.csv", 2u32, 12u32, false),
        ("qary.csv", 4, 8, false),
        ("crlf.csv", 4, 5, true),
        ("wide.tsv", 16, 6, false),
    ] {
        let delim = if name.ends_with(".tsv") { '\t' } else { ',' };
        let join = |fields: Vec<String>| fields.join(&delim.to_string());
        let mut text = join((0..d).map(|c| format!("c{c}")).collect()) + "\n";
        for _ in 0..2000 {
            // One line in four quotes a field, so only the walk takes it.
            let quoted = next(4) == 0;
            let fields = (0..d).map(|c| {
                let v = next(u64::from(q));
                if quoted && c == d / 2 {
                    format!("\"{v}\"")
                } else {
                    v.to_string()
                }
            });
            text += &join(fields.collect());
            text += if crlf { "\r\n" } else { "\n" };
        }
        let path = dir.join(name);
        std::fs::write(&path, &text).expect("write file");
        let opts = IngestOptions {
            alphabet: q,
            chunk_bytes: 4093,
            chunk_rows: 500,
            ..Default::default()
        };
        let (sink, report) = FileIngester::new(opts)
            .ingest_path_with(&path, |_| Ok(VecSink::default()))
            .expect("the file parses");
        let expect = naive_reference(&text, q, delim, true).expect("the reference parses");
        assert_eq!(report.rows, expect.len() as u64, "{name}");
        if report.schema.packed() {
            let packed: Vec<u64> = expect
                .iter()
                .map(|row| row.iter().rev().fold(0, |acc, &v| acc << 1 | u64::from(v)))
                .collect();
            assert_eq!(sink.packed, packed, "{name}");
        } else {
            assert_eq!(sink.dense, expect.concat(), "{name}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random well-formed numeric CSV: the columnar parser agrees with
    /// the naive reference value-for-value, under random quoting, CRLF,
    /// delimiter, trailing-newline presence, and chunk size.
    #[test]
    fn prop_columnar_matches_naive(
        flat in proptest::collection::vec(0u16..9, 24..300),
        d in 1usize..6,
        crlf in 0u8..2,
        tab in 0u8..2,
        trailing in 0u8..2,
        chunk_bytes in 1usize..40,
    ) {
        let q = 9u32;
        let rows: Vec<&[u16]> = flat.chunks_exact(d).collect();
        prop_assume!(!rows.is_empty());
        let delim = if tab == 1 { '\t' } else { ',' };
        let eol = if crlf == 1 { "\r\n" } else { "\n" };
        let mut text = String::new();
        for (i, row) in rows.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(j, v)| if (i * 7 + j * 3) % 5 == 0 { format!("\"{v}\"") } else { v.to_string() })
                .collect();
            text.push_str(&line.join(&delim.to_string()));
            if i + 1 < rows.len() || trailing == 1 {
                text.push_str(eol);
            }
        }
        let expect: Vec<u16> = naive_reference(&text, q, delim, false)
            .expect("reference accepts generated input")
            .into_iter()
            .flatten()
            .collect();
        let opts = IngestOptions {
            has_header: false,
            alphabet: q,
            delimiter: Some(delim as u8),
            chunk_bytes,
            chunk_rows: 17,
            ..Default::default()
        };
        let (sink, report) = ingest_str(text.as_bytes(), opts).expect("columnar accepts");
        prop_assert_eq!(report.rows, rows.len() as u64);
        prop_assert_eq!(sink.dense, expect);
    }
}
