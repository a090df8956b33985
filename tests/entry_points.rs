//! One stream, every entry point, the same state: a dataset pushed as
//! packed rows, as dense rows, over the wire (a pipe-mode `ingest` line)
//! and from a CSV file through `FileIngester` writes byte-equal
//! checkpoints; the file mixes lines for both of the parser's paths.
//! Rows are routed to shards by content, so this holds only if every
//! entry point hashes a row in the same form. A prefix pushed in chunks
//! of one and of seven rows — short runs at every shard — writes the
//! checkpoint the prefix pushed as one chunk writes.

use std::path::{Path, PathBuf};

use subspace_exploration::engine::{
    Chunk, Engine, EngineConfig, FpConfig, FreqNetConfig, Json, TraceHandle,
};
use subspace_exploration::ingest::{FileIngester, IngestError, IngestOptions};
use subspace_exploration::row::Dataset;
use subspace_exploration::server::proto::Backend;
use subspace_exploration::server::Dispatcher;
use subspace_exploration::stream::gen::{uniform_qary, zipf_patterns};

/// Four shards, a reservoir smaller than the stream, a frequency net and
/// two moment nets: every summary a shard keeps depends on which rows it
/// was routed.
fn config() -> EngineConfig {
    EngineConfig {
        shards: 4,
        sample_t: 256,
        kmv_k: 64,
        freq_net: Some(FreqNetConfig::default()),
        fp: Some(FpConfig::with_orders([2.0, 1.5])),
        ..EngineConfig::default()
    }
}

fn start(data: &Dataset) -> Engine {
    Engine::start(data.dimension(), data.alphabet(), config()).expect("engine starts")
}

/// Row `i` of `data`, one symbol per column.
fn rows(data: &Dataset) -> Vec<Vec<u16>> {
    (0..data.num_rows()).map(|i| data.row_dense(i)).collect()
}

/// Checkpoint `engine` to `path` and read the bytes back.
fn checkpoint(engine: &Engine, path: &Path) -> Vec<u8> {
    engine.checkpoint(path).expect("checkpoint writes");
    std::fs::read(path).expect("checkpoint reads")
}

fn pushed(data: &Dataset, chunk: Chunk<'_>, path: &Path) -> Vec<u8> {
    let engine = start(data);
    engine
        .push(chunk, &TraceHandle::disabled())
        .expect("rows are in shape");
    checkpoint(&engine, path)
}

fn over_the_wire(data: &Dataset, path: &Path) -> Vec<u8> {
    let dispatcher = Dispatcher::new(None);
    dispatcher.install(Backend::Plain(start(data)), data.alphabet());
    let rows = rows(data)
        .iter()
        .map(|row| Json::Arr(row.iter().map(|&s| Json::Num(f64::from(s))).collect()))
        .collect();
    let ingest = Json::obj([
        ("op", Json::Str("ingest".into())),
        ("rows", Json::Arr(rows)),
    ]);
    let checkpoint = Json::obj([
        ("op", Json::Str("checkpoint".into())),
        ("path", Json::Str(path.display().to_string())),
    ]);
    for line in [ingest, checkpoint] {
        let reply = dispatcher.handle_line(&line.to_string()).json;
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
    }
    std::fs::read(path).expect("checkpoint reads")
}

fn from_a_file(data: &Dataset, dir: &Path, path: &Path) -> Vec<u8> {
    let csv = dir.join("rows.csv");
    let header: Vec<String> = (0..data.dimension()).map(|c| format!("c{c}")).collect();
    let mut text = header.join(",") + "\n";
    for (i, row) in rows(data).iter().enumerate() {
        let mut fields: Vec<String> = row.iter().map(u16::to_string).collect();
        // Every seventh line is spelled for the parser's byte walk (one
        // quoted field, or CRLF), the rest for its eight-byte path: the
        // file switches paths inside a chunk.
        let eol = match i % 14 {
            0 => {
                let c = i / 14 % fields.len();
                fields[c] = format!("\"{}\"", fields[c]);
                "\n"
            }
            7 => "\r\n",
            _ => "\n",
        };
        text += &(fields.join(",") + eol);
    }
    std::fs::write(&csv, text).expect("csv writes");
    let opts = IngestOptions {
        alphabet: data.alphabet(),
        ..IngestOptions::default()
    };
    let (engine, report) = FileIngester::new(opts)
        .ingest_path_with(&csv, |_| {
            Engine::start(data.dimension(), data.alphabet(), config())
                .map_err(|e| IngestError::Sink(e.to_string()))
        })
        .expect("file ingests");
    assert_eq!(report.rows, data.num_rows() as u64);
    checkpoint(&engine, path)
}

/// Rows of the stream pushed in short chunks: enough for every shard's
/// sketches to fill and for repeats, few enough for a debug build.
const SHORT_RUN_ROWS: usize = 400;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pfe-entry-points-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn every_entry_point_leaves_the_same_checkpoint() {
    let binary = zipf_patterns(10, 5_000, 300, 1.1, 7);
    let qary = uniform_qary(4, 6, 3_000, 8);
    for (name, data) in [("binary", &binary), ("q4", &qary)] {
        let dir = scratch(name);
        let flat: Vec<u16> = rows(data).concat();
        let mut entries = vec![
            (
                "dense",
                pushed(data, Chunk::Dense(&flat), &dir.join("dense.pfes")),
            ),
            ("wire", over_the_wire(data, &dir.join("wire.pfes"))),
            ("file", from_a_file(data, &dir, &dir.join("file.pfes"))),
        ];
        if let Dataset::Binary(m) = data {
            let packed = pushed(data, Chunk::Packed(m.rows()), &dir.join("packed.pfes"));
            entries.push(("packed", packed));
        }
        let (first, reference) = &entries[0];
        for (entry, bytes) in &entries[1..] {
            assert!(
                bytes == reference,
                "{name}: the {entry} checkpoint differs from the {first} one"
            );
        }
        // Short runs: a prefix pushed a row, then seven rows, at a time
        // reaches the shards as runs shorter than a vector of keys, and
        // leaves what the prefix pushed as one chunk leaves.
        let prefix = &flat[..SHORT_RUN_ROWS * data.dimension() as usize];
        let whole = pushed(data, Chunk::Dense(prefix), &dir.join("prefix.pfes"));
        for len in [1, 7] {
            let engine = start(data);
            for chunk in prefix.chunks(len * data.dimension() as usize) {
                engine
                    .push(Chunk::Dense(chunk), &TraceHandle::disabled())
                    .expect("rows are in shape");
            }
            let bytes = checkpoint(&engine, &dir.join(format!("chunks-{len}.pfes")));
            assert!(
                bytes == whole,
                "{name}: {len}-row chunks leave another checkpoint than one chunk"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
