//! `checkpoint_resume` — the durable-snapshot lifecycle, end to end:
//!
//! 1. ingest a stream and **checkpoint** the engine to a snapshot file;
//! 2. **resume** a fresh engine from the file and show its answers are
//!    bit-identical to the engine that never stopped;
//! 3. keep ingesting on the resumed engine (the checkpointed state folds
//!    under the new rows);
//! 4. build two snapshot files from *disjoint halves* of a stream in two
//!    independent engines and **merge** them into one snapshot equal to
//!    the single-process build — the cross-machine union path.
//!
//! Run with `cargo run --release --example checkpoint_resume`.

use subspace_exploration::engine::{
    merge_snapshot_files, Chunk, Engine, EngineConfig, Query, Snapshot, TraceHandle,
};
use subspace_exploration::row::{ColumnSet, Dataset};
use subspace_exploration::stream::gen::uniform_binary;

fn cfg() -> EngineConfig {
    EngineConfig {
        shards: 4,
        sample_t: 4096,
        kmv_k: 128,
        seed: 7,
        ..Default::default()
    }
}

fn f0_of(engine: &Engine, cols: &[u32]) -> f64 {
    engine
        .query(&Query::over(cols.iter().copied()).f0())
        .expect("query")
        .estimate()
        .expect("F0 answers carry a scalar estimate")
}

fn main() {
    let d = 14;
    let dir = std::env::temp_dir().join("pfe-checkpoint-resume-example");
    std::fs::create_dir_all(&dir).expect("temp dir");

    // 1. Ingest and checkpoint.
    let path = dir.join("engine.pfes");
    let engine = Engine::start(d, 2, cfg()).expect("start");
    engine
        .ingest(&uniform_binary(d, 50_000, 1))
        .expect("ingest");
    let snap = engine.checkpoint(&path).expect("checkpoint");
    let bytes = std::fs::metadata(&path).expect("stat").len();
    println!(
        "checkpointed {} rows at epoch {} -> {} ({bytes} bytes)",
        snap.n(),
        snap.epoch(),
        path.display()
    );

    // 2. Resume in a "new process" and compare answers.
    let resumed = Engine::resume(&path, cfg()).expect("resume");
    let cols: Vec<u32> = (0..6).collect();
    let (a, b) = (f0_of(&engine, &cols), f0_of(&resumed, &cols));
    println!(
        "F0 on {cols:?}: original {a}, resumed {b}, bit-identical: {}",
        a == b
    );
    assert_eq!(a, b, "resumed engine must answer identically");

    // 3. The resumed engine keeps ingesting on top of the checkpoint.
    resumed
        .ingest(&uniform_binary(d, 10_000, 2))
        .expect("ingest after resume");
    let newer = resumed.refresh().expect("refresh");
    println!(
        "resumed engine kept ingesting: {} rows at epoch {}",
        newer.n(),
        newer.epoch()
    );

    // 4. Cross-process union: two halves, two files, one merged snapshot.
    let data = uniform_binary(d, 40_000, 3);
    let rows: Vec<u64> = match &data {
        Dataset::Binary(m) => m.rows().to_vec(),
        Dataset::Qary(_) => unreachable!("generator yields binary data"),
    };
    let (path_a, path_b) = (dir.join("half-a.pfes"), dir.join("half-b.pfes"));
    let worker_a = Engine::start(d, 2, cfg()).expect("start");
    let worker_b = Engine::start(d, 2, cfg()).expect("start");
    let (first, second) = (
        Chunk::Packed(&rows[..20_000]),
        Chunk::Packed(&rows[20_000..]),
    );
    worker_a
        .push(first, &TraceHandle::disabled())
        .expect("push");
    worker_b
        .push(second, &TraceHandle::disabled())
        .expect("push");
    worker_a.checkpoint(&path_a).expect("checkpoint a");
    worker_b.checkpoint(&path_b).expect("checkpoint b");
    let merged = merge_snapshot_files(&[&path_a, &path_b]).expect("merge");

    let single = Engine::start(d, 2, cfg()).expect("start");
    single.ingest(&data).expect("ingest");
    let single_snap: std::sync::Arc<Snapshot> = single.refresh().expect("refresh");
    let probe = ColumnSet::from_indices(d, &[0, 2, 4, 6, 8]).expect("valid");
    let (m, s) = (
        merged.f0(&probe).expect("ok").estimate,
        single_snap.f0(&probe).expect("ok").estimate,
    );
    println!(
        "union of two half-stream files: F0 {m} vs single-process {s}, bit-identical: {}",
        m == s
    );
    assert_eq!(m, s, "cross-process union must equal the single build");

    for p in [path, path_a, path_b] {
        std::fs::remove_file(p).ok();
    }
}
