//! `layers` — the traced replay: per-layer metrics from outside.
//!
//! This is the ONLY file of the benchmark that calls crate APIs (see
//! README.md, "Stability rule"): an internal refactor can break this
//! binary, and nothing else. It replays one workload's own inputs in this
//! process, wraps each public call (in batches, so a 2 ns call is not
//! drowned by its own timer) in a span, and prints every per-layer metric
//! of `BENCHMARK.json` as a *row budget* and a *request budget*.
//!
//! Every layer is timed on every workload's data — also the layers that
//! workload's program configuration never reaches (an AMS update on
//! `bulk_binary`, say): the contract wants one metric vector for all
//! workloads, and README.md says which layers are on which workload's path.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pfe_benchmark::gen::{self, QuerySpec, Request, Rows, Stat};
use pfe_benchmark::json::Json as HarnessJson;
use pfe_benchmark::sizes::{Sizes, BINARY, QARY};
use pfe_benchmark::stats::median;
use pfe_benchmark::{procfs, spec};

use pfe_core::alpha_net::{AlphaNet, AlphaNetF0, NetMode};
use pfe_core::fp::{fp_seed, FpConfig, FpNet};
use pfe_core::UniformSampleSummary;
use pfe_engine::cache::{CachedAnswer, QueryCache};
use pfe_engine::wire::{answer_to_json, query_from_json};
use pfe_engine::{
    planner, Engine, EngineConfig, IngestPipeline, Json, Query, Recorder, ShardSummary, Snapshot,
};
use pfe_hash::hash_u64;
use pfe_ingest::{FileIngester, IngestError, IngestOptions, VecSink};
use pfe_persist::{frame, kind};
use pfe_row::{pext_u64, ColumnSet, PatternCodec, PatternKey};
use pfe_server::proto::Backend;
use pfe_server::{Dispatcher, LineFramer, Server, ServerConfig};
use pfe_sketch::traits::{DistinctSketch, MomentSketch};
use pfe_sketch::{AmsF2, Kmv, Reservoir};
use pfe_window::{WindowConfig, WindowedEngine};

// --------------------------------------------------------------------- spans

struct SpanRec {
    id: u32,
    parent: u32,
    name: String,
    start_ns: u64,
    end_ns: u64,
    calls: u64,
}

/// In-memory span store: name, start, end, the span that caused it, and
/// how many public calls the span covers. Written out once, at exit.
struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<u32>,
    /// Off during the untraced replay that `trace.overhead_frac` compares.
    on: bool,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            on: true,
        }
    }

    fn open(&mut self, name: &str) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(SpanRec {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            name: name.to_string(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            calls: 0,
        });
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: u32, calls: u64) {
        if id == 0 {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = now;
        span.calls = calls;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"workload\":\"{workload}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.calls
            ));
        }
        out.push_str("\n]\n");
        std::fs::write(path, out)
    }
}

/// Time one layer: repeat `batch` (which returns how many public calls it
/// made) until `slice` is used up, one span per batch, and report the
/// median nanoseconds per call over the batches.
fn timed(tr: &mut Tracer, name: &str, slice: Duration, mut batch: impl FnMut() -> u64) -> f64 {
    let section = tr.open(name);
    let started = Instant::now();
    let mut per_call = Vec::new();
    let mut total = 0u64;
    loop {
        let span = tr.open(name);
        let t = Instant::now();
        let calls = batch();
        let ns = t.elapsed().as_nanos() as f64;
        tr.close(span, calls);
        if calls > 0 {
            per_call.push(ns / calls as f64);
            total += calls;
        }
        if started.elapsed() >= slice || per_call.len() >= 4_096 {
            break;
        }
    }
    tr.close(section, total);
    median(&per_call)
}

/// Time something that is done once per file or snapshot: `reps` runs,
/// median milliseconds.
fn timed_ms<T>(tr: &mut Tracer, name: &str, reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let section = tr.open(name);
    let mut ms = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let span = tr.open(name);
        let t = Instant::now();
        let v = f();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        tr.close(span, 1);
        last = Some(v);
    }
    tr.close(section, reps as u64);
    (median(&ms), last.expect("at least one repetition"))
}

// -------------------------------------------------------------------- inputs

/// Parsed rows in the representation the real ingest path hands on.
enum Data {
    Packed(Vec<u64>),
    Dense(Vec<u16>),
}

struct Inputs {
    workload: String,
    d: u32,
    q: u32,
    rows: Rows,
    cfg: EngineConfig,
    hot: Vec<Request>,
    cold: Vec<Request>,
    windowed: Vec<Request>,
    /// The request stream this workload itself sends.
    primary_is_cold: bool,
    sizes: Sizes,
}

fn engine_config(with_fp: bool, shards: usize) -> EngineConfig {
    EngineConfig {
        shards,
        alpha: 0.25,
        kmv_k: 256,
        sample_t: 4096,
        cache_capacity: 1024,
        fp: with_fp.then(|| FpConfig::with_orders(vec![2.0])),
        ..Default::default()
    }
}

fn inputs(workload: &str, seed: u64, quick: bool) -> Inputs {
    let sizes = Sizes::of(quick);
    let (shape, n, with_fp) = match workload {
        "bulk_qary" => (QARY, sizes.bulk_qary_rows, true),
        "bulk_binary" => (BINARY, sizes.bulk_binary_rows, false),
        "window_mixed" => (BINARY, sizes.preload_rows + 20 * 512, false),
        _ => (BINARY, sizes.snapshot_rows, false),
    };
    let rows = gen::gen_rows(seed, shape, n);
    Inputs {
        workload: workload.to_string(),
        d: shape.d,
        q: shape.q,
        cfg: engine_config(with_fp, 2),
        hot: gen::hot_requests(seed, &rows, 0, 256),
        cold: gen::cold_requests(seed, &rows, 0, 2),
        windowed: gen::window_requests(seed, &rows, sizes.window_rows),
        primary_is_cold: workload == "serve_cold",
        rows,
        sizes,
    }
}

impl Data {
    fn len(&self, d: u32) -> usize {
        match self {
            Data::Packed(v) => v.len(),
            Data::Dense(v) => v.len() / d as usize,
        }
    }
}

#[derive(Clone, Copy)]
enum RowRef<'a> {
    Packed(u64),
    Dense(&'a [u16]),
}

/// Visit rows `from..to` in whichever representation the data has.
fn for_rows<'a>(data: &'a Data, d: u32, from: usize, to: usize, mut f: impl FnMut(RowRef<'a>)) {
    match data {
        Data::Packed(v) => v[from..to].iter().for_each(|&r| f(RowRef::Packed(r))),
        Data::Dense(v) => v[from * d as usize..to * d as usize]
            .chunks_exact(d as usize)
            .for_each(|r| f(RowRef::Dense(r))),
    }
}

/// The four summaries a row is pushed into, behind one call.
trait PushRow {
    fn push_row(&mut self, row: RowRef<'_>);
}

macro_rules! impl_push_row {
    ($($summary:ty),*) => {$(
        impl PushRow for $summary {
            fn push_row(&mut self, row: RowRef<'_>) {
                match row {
                    RowRef::Packed(r) => self.push_packed(r),
                    RowRef::Dense(r) => self.push_dense(r),
                }
            }
        }
    )*};
}
impl_push_row!(AlphaNetF0<Kmv>, FpNet, UniformSampleSummary, ShardSummary);

/// Time `target`'s per-row push over chunks of `chunk` rows, cycling.
fn timed_push(
    tr: &mut Tracer,
    name: &str,
    slice: Duration,
    data: &Data,
    d: u32,
    chunk: usize,
    target: &mut impl PushRow,
) -> f64 {
    let mut cursor = Chunks::new(data.len(d), chunk);
    timed(tr, name, slice, || {
        let (a, b) = cursor.next();
        for_rows(data, d, a, b, |row| target.push_row(row));
        (b - a) as u64
    })
}

/// The members of the α-net with what projecting onto each needs, built
/// once: the real dense path rebuilds set and codec per (row, mask), which
/// is the `core` layer's cost, not the `row` layer's.
struct Members {
    masks: Vec<u64>,
    sets: Vec<ColumnSet>,
    codecs: Vec<PatternCodec>,
}

impl Members {
    fn key(&self, i: usize, row: RowRef<'_>) -> PatternKey {
        match row {
            RowRef::Packed(r) => PatternKey::from(pext_u64(r, self.masks[i])),
            RowRef::Dense(r) => self.codecs[i].encode_row(r, &self.sets[i]),
        }
    }
}

/// A cursor cycling over the rows in fixed-size chunks.
struct Chunks {
    n: usize,
    size: usize,
    at: usize,
}

impl Chunks {
    fn new(n: usize, size: usize) -> Self {
        Chunks {
            n,
            size: size.min(n),
            at: 0,
        }
    }
    fn next(&mut self) -> (usize, usize) {
        if self.at + self.size > self.n {
            self.at = 0;
        }
        let r = (self.at, self.at + self.size);
        self.at += self.size;
        r
    }
}

fn to_query(spec: &QuerySpec) -> Query {
    let b = Query::over(spec.cols.iter().copied());
    let q = match &spec.stat {
        Stat::F0 => b.f0(),
        Stat::Frequency { pattern } => {
            b.frequency(pattern.iter().map(|&s| u16::from(s)).collect::<Vec<u16>>())
        }
        Stat::HeavyHitters { phi } => b.heavy_hitters(*phi),
        Stat::L1Sample { k } => b.l1_sample(*k as usize).with_seed(7),
        Stat::Fp { p } => b.fp(*p),
    };
    match spec.window {
        Some(w) => q.window(w),
        None => q,
    }
}

fn push_all(pipeline: &mut IngestPipeline, data: &Data, d: u32, from: usize, to: usize) {
    const CHUNK: usize = 8_192;
    let mut at = from;
    while at < to {
        let end = (at + CHUNK).min(to);
        match data {
            Data::Packed(v) => pipeline.push_packed_batch(&v[at..end]),
            Data::Dense(v) => pipeline.push_dense_batch(&v[at * d as usize..end * d as usize]),
        }
        .expect("generated rows are in shape");
        at = end;
    }
}

// --------------------------------------------------------------- the replay

struct Results {
    values: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
}

impl Results {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not declared in spec::PER_LAYER"
        );
        assert!(
            !self.values.iter().any(|(n, _)| *n == name),
            "{name} measured twice"
        );
        self.values.push((name, value));
    }
    fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |v| v.1)
    }
}

/// The whole of what `pfe ingest FILE --out SNAP` does, in this process:
/// the end-to-end figure the row budget must add up to.
fn whole_ingest(inp: &Inputs, csv: &Path, snap_path: &Path) -> f64 {
    let t = Instant::now();
    let opts = IngestOptions {
        alphabet: inp.q,
        ..Default::default()
    };
    let cfg = inp.cfg.clone();
    let (engine, report) = FileIngester::new(opts)
        .ingest_path_with(csv, move |schema| {
            Engine::start(schema.dimension(), schema.alphabet, cfg)
                .map_err(|e| IngestError::Sink(e.to_string()))
        })
        .expect("generated CSV parses");
    engine.checkpoint(snap_path).expect("checkpoint writes");
    engine.shutdown().expect("engine stops");
    t.elapsed().as_nanos() as f64 / report.rows as f64
}

fn row_budget(
    inp: &Inputs,
    dir: &Path,
    tr: &mut Tracer,
    slice: Duration,
    out: &mut Results,
) -> (Data, Snapshot) {
    let (d, q) = (inp.d, inp.q);
    let root = tr.open("row_budget");
    let csv = dir.join("layers.csv");
    gen::write_csv(&inp.rows, &csv).expect("write csv");
    let bytes = std::fs::metadata(&csv).expect("csv exists").len() as f64;

    // ingest: FileIngester into a VecSink.
    let opts = || IngestOptions {
        alphabet: q,
        ..Default::default()
    };
    let (parse_ms, sink) = timed_ms(tr, "ingest.parse", 3, || {
        FileIngester::new(opts())
            .ingest_path_with(&csv, |_| Ok(VecSink::default()))
            .expect("generated CSV parses")
            .0
    });
    let data = if q == 2 {
        Data::Packed(sink.packed)
    } else {
        Data::Dense(sink.dense)
    };
    let n = data.len(d);
    assert_eq!(n, inp.rows.len(), "the parser returned every generated row");
    out.set("ingest.parse_ns_per_row", parse_ms * 1e6 / n as f64);
    out.set("ingest.parse_mb_per_s", bytes / 1e6 / (parse_ms / 1e3));

    // row / hash / sketch: the three steps of one (row, mask) update.
    let net = AlphaNet::new(d, inp.cfg.alpha).expect("alpha is valid");
    let masks: Vec<u64> = net.members(NetMode::Full).collect();
    out.set("core.net_members", masks.len() as f64);
    let sets: Vec<ColumnSet> = masks
        .iter()
        .map(|&m| ColumnSet::from_mask(d, m).expect("member mask"))
        .collect();
    let codecs: Vec<PatternCodec> = sets
        .iter()
        .map(|c| PatternCodec::new(q, c.len()).expect("codec fits"))
        .collect();
    let members = Members {
        masks,
        sets,
        codecs,
    };
    let count = members.masks.len();
    let mut cursor = Chunks::new(n, 256);
    let mut sink64 = 0u64;
    out.set(
        "row.project_ns",
        timed(tr, "row.project", slice, || {
            let (a, b) = cursor.next();
            for_rows(&data, d, a, b, |row| {
                (0..count).for_each(|i| sink64 ^= members.key(i, row).raw() as u64);
            });
            ((b - a) * count) as u64
        }),
    );
    // Keys of one wide member, for the per-item sketch timings.
    let wide = members
        .masks
        .iter()
        .position(|&m| m.count_ones() == net.large_size())
        .unwrap_or(0);
    let mut keys: Vec<PatternKey> = Vec::with_capacity(n);
    for_rows(&data, d, 0, n, |row| keys.push(members.key(wide, row)));
    let mut cursor = Chunks::new(n, 4_096);
    out.set(
        "hash.fingerprint_ns",
        timed(tr, "hash.fingerprint", slice, || {
            let (a, b) = cursor.next();
            keys[a..b]
                .iter()
                .for_each(|k| sink64 ^= k.fingerprint64(0x5eed));
            (b - a) as u64
        }),
    );
    let prints: Vec<u64> = keys.iter().map(|k| k.fingerprint64(0x5eed)).collect();
    let mut kmv = Kmv::new(inp.cfg.kmv_k, 1);
    let mut cursor = Chunks::new(n, 4_096);
    out.set(
        "sketch.kmv_insert_ns",
        timed(tr, "sketch.kmv_insert", slice, || {
            let (a, b) = cursor.next();
            prints[a..b].iter().for_each(|&p| kmv.insert(p));
            (b - a) as u64
        }),
    );
    out.set(
        "sketch.kmv_accept_ratio",
        kmv_accept_ratio(&data, d, &members, inp.cfg.kmv_k, n.min(4_096)),
    );
    let mut reservoir: Reservoir<u64> = Reservoir::new(inp.cfg.sample_t, 1);
    let mut cursor = Chunks::new(n, 4_096);
    out.set(
        "sketch.reservoir_insert_ns",
        timed(tr, "sketch.reservoir_insert", slice, || {
            let (a, b) = cursor.next();
            prints[a..b].iter().for_each(|&p| reservoir.insert(p));
            (b - a) as u64
        }),
    );
    let fp_cfg = FpConfig::with_orders(vec![2.0]);
    let mut ams = AmsF2::new(fp_cfg.ams_groups, fp_cfg.ams_per_group, 1);
    let mut cursor = Chunks::new(n, 1_024);
    out.set(
        "sketch.ams_update_ns",
        timed(tr, "sketch.ams_update", slice, || {
            let (a, b) = cursor.next();
            prints[a..b].iter().for_each(|&p| ams.update(p, 1));
            (b - a) as u64
        }),
    );
    std::hint::black_box((sink64, kmv.estimate(), reservoir.seen(), ams.estimate()));

    // core: one whole net / sample push per row.
    let (k, seed) = (inp.cfg.kmv_k, inp.cfg.seed);
    let mut net_f0 =
        AlphaNetF0::new_streaming_qary(net, NetMode::Full, inp.cfg.max_subsets, q, |mask| {
            Kmv::new(k, mask ^ seed)
        })
        .expect("net materializes");
    out.set(
        "core.net_f0_push_ns_per_row",
        timed_push(tr, "core.net_f0_push", slice * 2, &data, d, 64, &mut net_f0),
    );
    let mut net_fp = FpNet::new_streaming_qary(
        net,
        NetMode::Full,
        inp.cfg.max_subsets,
        q,
        2.0,
        &fp_cfg,
        fp_seed(seed, 0),
    )
    .expect("moment net materializes");
    out.set(
        "core.net_fp_push_ns_per_row",
        timed_push(tr, "core.net_fp_push", slice * 2, &data, d, 16, &mut net_fp),
    );
    let mut sample = UniformSampleSummary::new(d, q, inp.cfg.sample_t, seed);
    out.set(
        "core.sample_push_ns_per_row",
        timed_push(tr, "core.sample_push", slice, &data, d, 4_096, &mut sample),
    );

    // engine: one shard's push, then the pipeline around it.
    let mut shard = ShardSummary::new(d, q, 0, &inp.cfg).expect("shard builds");
    out.set(
        "engine.shard_push_ns_per_row",
        timed_push(tr, "engine.shard_push", slice * 2, &data, d, 64, &mut shard),
    );
    // The pipeline is timed over a prefix sized to the slice, from the
    // shard figure just measured, so `--seconds` bounds it too.
    let shard_ns = out.get("engine.shard_push_ns_per_row").max(1.0);
    let prefix = ((slice.as_nanos() as f64 * 3.0 / shard_ns) as usize).clamp(1_024.min(n), n);
    let pipeline_run = |tr: &mut Tracer, name: &str, shards: usize, from: usize, to: usize| {
        let cfg = EngineConfig {
            shards,
            ..inp.cfg.clone()
        };
        let counter = Arc::new(pfe_obs::Counter::new());
        let span = tr.open(name);
        let t = Instant::now();
        let mut pipeline = IngestPipeline::new(d, q, &cfg).expect("pipeline starts");
        pipeline.instrument(Arc::clone(&counter));
        push_all(&mut pipeline, &data, d, from, to);
        let snap = pipeline.finish().expect("shards finish");
        let ns = t.elapsed().as_nanos() as f64;
        tr.close(span, (to - from) as u64);
        (ns / (to - from) as f64, snap, counter.get())
    };
    let (two, _, blocks) = pipeline_run(tr, "engine.pipeline", 2, 0, prefix);
    out.set("engine.pipeline_ns_per_row", two);
    out.set("engine.backpressure_blocks", blocks as f64);
    let (one, _, _) = pipeline_run(tr, "engine.pipeline_1shard", 1, 0, prefix);
    out.set("engine.pipeline_1shard_ns_per_row", one);

    // merge of two half-stream snapshots; the result serves the request budget.
    let half = prefix / 2;
    let (_, mut left, _) = pipeline_run(tr, "engine.pipeline", 2, 0, half);
    let (_, right, _) = pipeline_run(tr, "engine.pipeline", 2, half, prefix);
    let (merge_ms, ()) = timed_ms(tr, "engine.merge", 1, || {
        left.merge(&right).expect("halves are mergeable")
    });
    out.set("engine.merge_ms", merge_ms);
    let snapshot = left;

    // refresh with nothing new to drain: collect + fold + publish.
    let engine = Engine::start(d, q, inp.cfg.clone()).expect("engine starts");
    match &data {
        Data::Packed(v) => engine.push_packed_batch(&v[..prefix.min(8_192)]),
        Data::Dense(v) => engine.push_dense_batch(&v[..prefix.min(8_192) * d as usize]),
    }
    .expect("rows are in shape");
    engine.refresh().expect("first refresh drains the shards");
    let (refresh_ms, _) = timed_ms(tr, "engine.refresh", 5, || {
        engine.refresh().expect("refresh")
    });
    out.set("engine.refresh_ms", refresh_ms);
    engine.shutdown().expect("engine stops");

    // persist: encode / save / decode / load of that snapshot.
    let snap_path = dir.join("layers.pfes");
    let (encode_ms, encoded) = timed_ms(tr, "persist.encode", 5, || {
        frame::to_bytes(kind::SNAPSHOT, &snapshot)
    });
    out.set("persist.encode_ms", encode_ms);
    let (save_ms, ()) = timed_ms(tr, "persist.save", 5, || {
        snapshot.save_to(&snap_path).expect("snapshot saves")
    });
    out.set("persist.save_ms", save_ms);
    let (decode_ms, _) = timed_ms(tr, "persist.decode", 5, || {
        frame::from_bytes::<Snapshot>(kind::SNAPSHOT, &encoded).expect("snapshot decodes")
    });
    out.set("persist.decode_ms", decode_ms);
    let (load_ms, _) = timed_ms(tr, "persist.load", 5, || {
        Snapshot::load_from(&snap_path).expect("snapshot loads")
    });
    out.set("persist.load_ms", load_ms);
    out.set(
        "persist.bytes_per_member",
        encoded.len() as f64 / count as f64,
    );

    // The budget: the whole path in one go, against the sum of its layers
    // at the same row count.
    let whole_csv = dir.join("layers-prefix.csv");
    gen::write_csv(&inp.rows.slice(0, prefix), &whole_csv).expect("write csv");
    let whole_path = dir.join("layers-whole.pfes");
    // Twice each way, alternating, so a slow spell of the machine does not
    // read as tracing overhead.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        tr.on = false;
        untraced.push(whole_ingest(inp, &whole_csv, &whole_path));
        tr.on = true;
        let span = tr.open("ingest.whole");
        traced.push(whole_ingest(inp, &whole_csv, &whole_path));
        tr.close(span, prefix as u64);
    }
    let (untraced, traced) = (median(&untraced), median(&traced));
    let accounted = out.get("ingest.parse_ns_per_row") + two + save_ms * 1e6 / prefix as f64;
    out.set("budget.row_unaccounted_frac", 1.0 - accounted / untraced);
    out.set("trace.overhead_frac", traced / untraced - 1.0);
    tr.close(root, n as u64);
    (data, snapshot)
}

/// Share of KMV inserts that change the sketch, over every member of the
/// net and the first `rows` rows. `Kmv` does not say whether an insert
/// changed it, so the k smallest hashes are mirrored here with the
/// sketch's own hash; being a count, the ratio repeats exactly.
fn kmv_accept_ratio(data: &Data, d: u32, members: &Members, k: usize, rows: usize) -> f64 {
    let (mut attempts, mut accepted) = (0u64, 0u64);
    for (i, &mask) in members.masks.iter().enumerate() {
        let mut smallest: BTreeSet<u64> = BTreeSet::new();
        let mut offer = |key: PatternKey| {
            attempts += 1;
            let h = hash_u64(key.fingerprint64(0x5eed), mask);
            if smallest.len() == k && smallest.last().is_some_and(|&max| h >= max) {
                return;
            }
            if smallest.insert(h) {
                accepted += 1;
                if smallest.len() > k {
                    smallest.pop_last();
                }
            }
        };
        for_rows(data, d, 0, rows, |row| offer(members.key(i, row)));
    }
    accepted as f64 / attempts.max(1) as f64
}

fn window_layers(inp: &Inputs, data: &Data, tr: &mut Tracer, slice: Duration, out: &mut Results) {
    let (d, q) = (inp.d, inp.q);
    let root = tr.open("window");
    let wcfg = WindowConfig {
        bucket_rows: inp.sizes.bucket_rows as u64,
        tier_cap: 4,
        max_tiers: 6,
        ..Default::default()
    };
    let cfg = EngineConfig {
        fp: None,
        ..inp.cfg.clone()
    };
    let engine = WindowedEngine::start(d, q, cfg, wcfg).expect("windowed engine starts");
    let n = data.len(d);
    let push = |from: usize, to: usize| {
        match data {
            Data::Packed(v) => engine.push_packed_batch(&v[from..to]),
            Data::Dense(v) => engine.push_dense_batch(&v[from * d as usize..to * d as usize]),
        }
        .expect("rows are in shape")
    };
    // A fixed row count, so `window.tier_merges` repeats exactly.
    let fill = inp.sizes.bucket_rows * 16;
    let mut cursor = Chunks::new(n, 512);
    let mut pushed = 0usize;
    let span = tr.open("window.push");
    let t = Instant::now();
    while pushed < fill {
        let (a, b) = cursor.next();
        push(a, b);
        pushed += b - a;
    }
    out.set(
        "window.push_ns_per_row",
        t.elapsed().as_nanos() as f64 / pushed as f64,
    );
    tr.close(span, pushed as u64);
    out.set(
        "window.tier_merges",
        engine.window_stats().tier_merges as f64,
    );
    let window = inp.sizes.window_rows;
    out.set(
        "window.covering_buckets",
        f64::from(engine.coverage(Some(window)).buckets),
    );

    // The workload's own rhythm: one write of 512 rows, then five reads.
    // The first read after a write merges the covering set cold; the rest
    // find it in the merged-snapshot cache.
    let queries: Vec<Query> = inp
        .windowed
        .iter()
        .map(|r| to_query(&r.queries[0]))
        .collect();
    let before = engine.window_stats();
    let (mut cold_ms, mut warm_ns) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut turn = 0usize;
    while turn < 8 || (started.elapsed() < slice * 3 && turn < 400) {
        let (a, b) = cursor.next();
        push(a, b);
        for j in 0..5 {
            let query = &queries[(turn * 5 + j) % queries.len()];
            let span = tr.open(if j == 0 {
                "window.cover_merge"
            } else {
                "window.query_warm"
            });
            let t = Instant::now();
            let answer = engine.query(query);
            let ns = t.elapsed().as_nanos() as f64;
            tr.close(span, 1);
            out.attempted += 1;
            out.failed += u64::from(answer.is_err());
            if j == 0 {
                cold_ms.push(ns / 1e6);
            } else {
                warm_ns.push(ns);
            }
        }
        turn += 1;
    }
    let after = engine.window_stats();
    let hits = (after.merged_cache_hits - before.merged_cache_hits) as f64;
    let misses = (after.merged_cache_misses - before.merged_cache_misses) as f64;
    out.set("window.cover_merge_ms", median(&cold_ms));
    out.set("window.query_warm_ns", median(&warm_ns));
    out.set(
        "window.merged_cache_hit_ratio",
        hits / (hits + misses).max(1.0),
    );
    tr.close(root, 0);

    // server: the wire path of one 512-row `ingest` line into a window.
    let dispatcher = Dispatcher::new(None);
    let start = format!(
        "{{\"op\":\"start\",\"d\":{d},\"q\":{q},\"shards\":2,\"alpha\":0.25,\"kmv_k\":256,\"sample_t\":4096,\"window\":{{\"bucket_rows\":{},\"tier_cap\":4,\"max_tiers\":6}}}}",
        inp.sizes.bucket_rows
    );
    let reply = dispatcher.handle_line(&start);
    assert_eq!(
        reply.json.get("ok"),
        Some(&Json::Bool(true)),
        "start: {}",
        reply.json
    );
    let lines: Vec<String> = (0..(n / 512).clamp(1, 8))
        .map(|i| gen::ingest_line(&inp.rows, i * 512, ((i + 1) * 512).min(n)))
        .collect();
    let rows_per_line = 512.min(n) as u64;
    let mut at = 0usize;
    out.set(
        "server.wire_ingest_ns_per_row",
        timed(tr, "server.wire_ingest", slice * 2, || {
            let reply = dispatcher.handle_line(&lines[at % lines.len()]);
            at += 1;
            out_check(&reply.json);
            rows_per_line
        }),
    );
}

fn out_check(reply: &Json) {
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "request failed: {reply}"
    );
}

/// Loopback round trips on one connection against a live in-process
/// server: median seconds per request.
fn live_round_trips(
    addr: &str,
    lines: &[String],
    slice: Duration,
    tr: &mut Tracer,
    name: &str,
) -> (f64, u64) {
    let stream = TcpStream::connect(addr).expect("connect to the in-process server");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut reply = String::new();
    let mut rtts = Vec::new();
    let span = tr.open(name);
    let started = Instant::now();
    let mut i = 0usize;
    while rtts.len() < 64 || (started.elapsed() < slice && rtts.len() < 200_000) {
        let line = &lines[i % lines.len()];
        i += 1;
        let t = Instant::now();
        writer.write_all(line.as_bytes()).expect("write request");
        writer.write_all(b"\n").expect("write newline");
        reply.clear();
        reader.read_line(&mut reply).expect("read reply");
        rtts.push(t.elapsed().as_secs_f64());
        assert!(
            reply.contains("\"ok\":true"),
            "live request failed: {reply}"
        );
    }
    tr.close(span, rtts.len() as u64);
    (median(&rtts), rtts.len() as u64)
}

fn request_budget(
    inp: &Inputs,
    snapshot: Snapshot,
    tr: &mut Tracer,
    slice: Duration,
    out: &mut Results,
) {
    let (d, q) = (inp.d, inp.q);
    let root = tr.open("request_budget");
    let hot_lines: Vec<String> = inp.hot.iter().map(|r| r.line().to_string()).collect();
    let cold_lines: Vec<String> = inp.cold.iter().map(|r| r.line().to_string()).collect();
    let per_hot = inp.hot[0].queries.len() as f64;

    // server framing, JSON parse and wire decode of hot batch lines.
    let framed: Vec<Vec<u8>> = hot_lines
        .iter()
        .map(|l| format!("{l}\n").into_bytes())
        .collect();
    let mut framer = LineFramer::new(1 << 20);
    let mut at = 0usize;
    out.set(
        "server.frame_ns_per_req",
        timed(tr, "server.frame", slice, || {
            for _ in 0..64 {
                framer.push(&framed[at % framed.len()]);
                at += 1;
                std::hint::black_box(framer.pop_event());
            }
            64
        }),
    );
    out.set(
        "engine.json_parse_ns",
        timed(tr, "engine.json_parse", slice, || {
            for _ in 0..16 {
                std::hint::black_box(
                    Json::parse(&hot_lines[at % hot_lines.len()]).expect("request parses"),
                );
                at += 1;
            }
            16
        }),
    );
    let parsed: Vec<Json> = hot_lines
        .iter()
        .map(|l| Json::parse(l).expect("request parses"))
        .collect();
    out.set(
        "engine.wire_decode_ns",
        timed(tr, "engine.wire_decode", slice, || {
            let batch = parsed[at % parsed.len()]
                .get("queries")
                .and_then(Json::as_arr)
                .expect("batch has queries");
            at += 1;
            batch.iter().for_each(|j| {
                std::hint::black_box(query_from_json(j).expect("query decodes"));
            });
            batch.len() as u64
        }),
    );

    // engine planner and cache.
    let hot_queries: Vec<Vec<Query>> = inp
        .hot
        .iter()
        .map(|r| r.queries.iter().map(to_query).collect())
        .collect();
    let cold_queries: Vec<Query> = inp.cold.iter().map(|r| to_query(&r.queries[0])).collect();
    out.set(
        "engine.plan_ns_per_query",
        timed(tr, "engine.plan", slice, || {
            let batch = &hot_queries[at % hot_queries.len()];
            at += 1;
            std::hint::black_box(planner::plan(&snapshot, batch));
            batch.len() as u64
        }),
    );
    let keys: Vec<_> = cold_queries
        .chunks(64)
        .flat_map(|c| {
            planner::plan(&snapshot, c)
                .groups
                .into_iter()
                .map(|g| g.key)
        })
        .take(1_024)
        .collect();
    let cache = QueryCache::new(inp.cfg.cache_capacity);
    out.set(
        "engine.cache_put_ns",
        timed(tr, "engine.cache_put", slice, || {
            keys.iter()
                .for_each(|k| cache.put(*k, CachedAnswer::F0(1.0)));
            keys.len() as u64
        }),
    );
    out.set(
        "engine.cache_get_ns",
        timed(tr, "engine.cache_get", slice, || {
            keys.iter().for_each(|k| {
                std::hint::black_box(cache.get(k));
            });
            keys.len() as u64
        }),
    );

    // core rounding and the five computes, on the cold column sets.
    let net = *snapshot.net_f0().net();
    let cold_cols: Vec<ColumnSet> = inp
        .cold
        .iter()
        .map(|r| {
            ColumnSet::from_indices(d, &r.queries[0].cols).expect("generated columns are in range")
        })
        .collect();
    let per = 32usize;
    let mut cursor = Chunks::new(cold_cols.len(), per);
    out.set(
        "core.net_round_ns",
        timed(tr, "core.net_round", slice, || {
            let (a, b) = cursor.next();
            cold_cols[a..b].iter().for_each(|c| {
                std::hint::black_box(net.round(c).expect("rounds"));
            });
            (b - a) as u64
        }),
    );
    let targets: Vec<ColumnSet> = cold_cols
        .iter()
        .map(|c| net.round(c).expect("rounds").target)
        .collect();
    out.set(
        "engine.compute_f0_ns",
        timed(tr, "engine.compute_f0", slice, || {
            let (a, b) = cursor.next();
            targets[a..b].iter().for_each(|c| {
                std::hint::black_box(snapshot.f0(c).expect("f0"));
            });
            (b - a) as u64
        }),
    );
    let pattern_keys: Vec<PatternKey> = inp
        .cold
        .iter()
        .zip(&cold_cols)
        .map(|(r, cols)| {
            let pattern: Vec<u16> = match &r.queries[0].stat {
                Stat::Frequency { pattern } => pattern.iter().map(|&s| u16::from(s)).collect(),
                _ => vec![0; cols.len() as usize],
            };
            snapshot
                .encode_pattern(cols, &pattern)
                .expect("pattern encodes")
        })
        .collect();
    out.set(
        "engine.compute_frequency_ns",
        timed(tr, "engine.compute_frequency", slice, || {
            let (a, b) = cursor.next();
            (a..b).for_each(|i| {
                std::hint::black_box(
                    snapshot
                        .frequency(&cold_cols[i], pattern_keys[i])
                        .expect("frequency"),
                );
            });
            (b - a) as u64
        }),
    );
    out.set(
        "engine.compute_hh_ns",
        timed(tr, "engine.compute_hh", slice, || {
            let (a, b) = cursor.next();
            cold_cols[a..b].iter().for_each(|c| {
                std::hint::black_box(
                    snapshot
                        .heavy_hitters(c, gen::HH_PHI, 1.0, 2.0)
                        .expect("heavy hitters"),
                );
            });
            (b - a) as u64
        }),
    );
    out.set(
        "engine.compute_l1_ns",
        timed(tr, "engine.compute_l1", slice, || {
            let (a, b) = cursor.next();
            cold_cols[a..b].iter().for_each(|c| {
                std::hint::black_box(
                    snapshot
                        .l1_sample(c, gen::L1_K as usize, 7)
                        .expect("l1 sample"),
                );
            });
            (b - a) as u64
        }),
    );
    // `fp` needs moment nets; a snapshot without them gets a small one of
    // its own, over the same rows.
    let fp_snapshot = if snapshot.fp_net(2.0).is_some() {
        None
    } else {
        let cfg = EngineConfig {
            shards: 1,
            ..engine_config(true, 1)
        };
        let mut pipeline = IngestPipeline::new(d, q, &cfg).expect("pipeline starts");
        let take = inp.rows.len().min(2_048);
        let flat: Vec<u16> = inp.rows.symbols[..take * d as usize]
            .iter()
            .map(|&s| u16::from(s))
            .collect();
        pipeline.push_dense_batch(&flat).expect("rows are in shape");
        Some(pipeline.finish().expect("shards finish"))
    };
    let fp_source = fp_snapshot.as_ref().unwrap_or(&snapshot);
    out.set(
        "engine.compute_fp_ns",
        timed(tr, "engine.compute_fp", slice, || {
            let (a, b) = cursor.next();
            cold_cols[a..b].iter().for_each(|c| {
                std::hint::black_box(fp_source.fp(c, 2.0).expect("fp"));
            });
            (b - a) as u64
        }),
    );

    // engine whole: hot (cached) and cold (computed) queries. The engine
    // records into the registry of the server it will sit behind, as it
    // does in `pfe serve`.
    let server = Server::bind(ServerConfig {
        workers: 2,
        ..Default::default()
    })
    .expect("in-process server binds");
    let dispatcher = Arc::clone(server.dispatcher());
    let recorder: Arc<Recorder> = Arc::clone(dispatcher.recorder());
    let (engine, _) =
        Engine::from_snapshot(Arc::new(snapshot), inp.cfg.clone(), Arc::clone(&recorder))
            .expect("engine resumes");
    hot_queries.iter().take(32).for_each(|b| {
        engine.query_batch(b);
    });
    let (mut asked, mut errors) = (0u64, 0u64);
    let hot_ns = timed(tr, "engine.query_hot", slice, || {
        let batch = &hot_queries[at % hot_queries.len()];
        at += 1;
        let answers = engine.query_batch(batch);
        asked += answers.len() as u64;
        errors += answers.iter().filter(|a| a.is_err()).count() as u64;
        batch.len() as u64
    });
    out.set("engine.query_hot_ns", hot_ns);
    let mut cold_at = 0usize;
    let cold_ns = timed(tr, "engine.query_cold", slice * 2, || {
        for _ in 0..per {
            let answer = engine.query(&cold_queries[cold_at % cold_queries.len()]);
            cold_at += 1;
            asked += 1;
            errors += u64::from(answer.is_err());
        }
        per as u64
    });
    out.set("engine.query_cold_ns", cold_ns);
    out.attempted += asked;
    out.failed += errors;

    // wire encode of the workload's own answers, and the reply size.
    let primary: Vec<Query> = if inp.primary_is_cold {
        cold_queries.iter().take(512).cloned().collect()
    } else {
        hot_queries.iter().take(32).flatten().cloned().collect()
    };
    let answers: Vec<_> = engine.query_batch(&primary).into_iter().flatten().collect();
    let mut reply_bytes = Vec::new();
    let mut cursor = Chunks::new(answers.len(), 16);
    out.set(
        "engine.wire_encode_ns",
        timed(tr, "engine.wire_encode", slice, || {
            let (a, b) = cursor.next();
            answers[a..b].iter().for_each(|ans| {
                let text = answer_to_json(ans, q).to_string();
                reply_bytes.push(text.len() as f64);
            });
            (b - a) as u64
        }),
    );
    let per_answer = reply_bytes.iter().sum::<f64>() / reply_bytes.len().max(1) as f64;
    out.set(
        "engine.reply_bytes",
        per_answer * if inp.primary_is_cold { 1.0 } else { per_hot },
    );

    // server: dispatcher whole, then a live server around it.
    dispatcher.install(Backend::Plain(engine), q);
    hot_lines
        .iter()
        .take(32)
        .for_each(|l| out_check(&dispatcher.handle_line(l).json));
    out.set(
        "server.dispatch_hot_ns",
        timed(tr, "server.dispatch_hot", slice, || {
            out_check(
                &dispatcher
                    .handle_line(&hot_lines[at % hot_lines.len()])
                    .json,
            );
            at += 1;
            1
        }),
    );
    out.set(
        "server.dispatch_cold_ns",
        timed(tr, "server.dispatch_cold", slice * 2, || {
            for _ in 0..per {
                out_check(
                    &dispatcher
                        .handle_line(&cold_lines[cold_at % cold_lines.len()])
                        .json,
                );
                cold_at += 1;
            }
            per as u64
        }),
    );

    // The hit ratio of the workload's own stream, from the engine's counters.
    let counter = |name: &str| recorder.counter(name).get() as f64;
    let (hits0, misses0) = (counter("engine_cache_hits"), counter("engine_cache_misses"));
    let stream: &[String] = if inp.primary_is_cold {
        &cold_lines
    } else {
        &hot_lines
    };
    for i in 0..512 {
        out_check(
            &dispatcher
                .handle_line(&stream[(cold_at + i) % stream.len()])
                .json,
        );
    }
    let (hits, misses) = (
        counter("engine_cache_hits") - hits0,
        counter("engine_cache_misses") - misses0,
    );
    out.set("engine.cache_hit_ratio", hits / (hits + misses).max(1.0));

    let handle = server.handle();
    let addr = handle.addr().to_string();
    let runner = std::thread::spawn(move || server.run());
    let wakeups0 = counter("server_loop_wakeups");
    let cpu0 = procfs::cpu_seconds(std::process::id()).unwrap_or(0.0);
    let (rtt_hot, n_hot) = live_round_trips(&addr, &hot_lines, slice * 3, tr, "server.live_hot");
    let cpu_s = procfs::cpu_seconds(std::process::id()).unwrap_or(0.0) - cpu0;
    let wakeups = counter("server_loop_wakeups") - wakeups0;
    let (rtt_cold, _) = live_round_trips(&addr, &cold_lines, slice * 3, tr, "server.live_cold");
    out.set(
        "server.transport_us",
        rtt_hot * 1e6 - out.get("server.dispatch_hot_ns") / 1e3,
    );
    out.set("server.wakeups_per_req", wakeups / n_hot as f64);
    out.set("server.cpu_us_per_req", cpu_s * 1e6 / n_hot as f64);
    out.set(
        "server.rejected_saturated",
        counter("server_rejected_saturated"),
    );
    handle.shutdown();
    runner
        .join()
        .expect("server thread does not panic")
        .expect("server stops cleanly");

    // The program's own stage histograms, as a cross-check.
    let stages = recorder.histograms_snapshot();
    let p50 = |name: &str| {
        stages
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, h)| h.p50 as f64)
    };
    out.set("engine.stage_plan_ns_p50", p50("engine_stage_plan_ns"));
    out.set(
        "engine.stage_cache_probe_ns_p50",
        p50("engine_stage_cache_probe_ns"),
    );
    out.set(
        "engine.stage_compute_ns_p50",
        p50("engine_stage_compute_ns"),
    );
    out.set(
        "engine.stage_materialize_ns_p50",
        p50("engine_stage_materialize_ns"),
    );

    // obs: the fixed tax of one counter add and one histogram record.
    let (c, h) = (
        recorder.counter("bench_counter"),
        recorder.histogram("bench_histogram"),
    );
    out.set(
        "obs.record_ns",
        timed(tr, "obs.record", slice, || {
            for i in 0..4_096u64 {
                c.add(1);
                h.record(i);
            }
            4_096
        }),
    );

    // The budget: one live request against the sum of its layers.
    let g = |name: &str| out.get(name);
    let (rtt_ns, accounted) = if inp.primary_is_cold {
        let compute = (g("engine.compute_f0_ns")
            + g("engine.compute_frequency_ns")
            + g("engine.compute_hh_ns")
            + g("engine.compute_l1_ns"))
            / 4.0;
        let transport = rtt_cold * 1e9 - g("server.dispatch_cold_ns");
        (
            rtt_cold * 1e9,
            g("server.frame_ns_per_req")
                + g("engine.json_parse_ns") / per_hot
                + g("engine.wire_decode_ns")
                + g("engine.plan_ns_per_query")
                + g("core.net_round_ns") / 4.0
                + g("engine.cache_get_ns")
                + compute
                + g("engine.cache_put_ns")
                + g("engine.wire_encode_ns")
                + transport,
        )
    } else {
        (
            rtt_hot * 1e9,
            g("server.frame_ns_per_req")
                + g("engine.json_parse_ns")
                + per_hot
                    * (g("engine.wire_decode_ns")
                        + g("engine.plan_ns_per_query")
                        + g("engine.cache_get_ns")
                        + g("engine.wire_encode_ns"))
                + g("server.transport_us") * 1e3,
        )
    };
    out.set("budget.req_unaccounted_frac", 1.0 - accounted / rtt_ns);
    tr.close(root, 0);
}

/// `pfe query` on a tiny snapshot: the fixed process + resume cost that
/// sits inside every bulk pass.
fn cli_spawn(pfe: &Path, dir: &Path, tr: &mut Tracer, out: &mut Results) {
    let tiny = dir.join("tiny.pfes");
    let cfg = engine_config(false, 2);
    let engine = Engine::start(BINARY.d, BINARY.q, cfg).expect("engine starts");
    engine
        .push_packed_batch(&(0..64u64).collect::<Vec<_>>())
        .expect("rows are in shape");
    engine.checkpoint(&tiny).expect("checkpoint writes");
    engine.shutdown().expect("engine stops");
    let (ms, ok) = timed_ms(tr, "cli.spawn", 9, || {
        Command::new(pfe)
            .args([
                "query",
                tiny.to_str().expect("ASCII path"),
                "--op",
                "f0",
                "--cols",
                "0,1",
                "--shards",
                "2",
            ])
            .output()
            .map(|o| o.status.success())
            .unwrap_or(false)
    });
    out.attempted += 9;
    out.failed += u64::from(!ok);
    out.set("cli.spawn_ms", ms);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(workload), Some(dir), Some(pfe)) =
        (value("--workload"), value("--dir"), value("--pfe"))
    else {
        eprintln!(
            "usage: layers --workload NAME --seed N --seconds S --dir SCRATCH --pfe PATH [--quick]"
        );
        std::process::exit(2);
    };
    let seed: u64 = value("--seed").and_then(|s| s.parse().ok()).unwrap_or(1);
    let seconds: f64 = value("--seconds")
        .and_then(|s| s.parse().ok())
        .unwrap_or(10.0);
    let quick = args.iter().any(|a| a == "--quick");
    let dir = PathBuf::from(dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");

    let inp = inputs(&workload, seed, quick);
    // About fifty timed sections share `--seconds`.
    let slice = Duration::from_secs_f64(seconds / 50.0);
    let mut tr = Tracer::new();
    let mut out = Results {
        values: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let root = tr.open(&workload);
    let (data, snapshot) = row_budget(&inp, &dir, &mut tr, slice, &mut out);
    window_layers(&inp, &data, &mut tr, slice, &mut out);
    cli_spawn(Path::new(&pfe), &dir, &mut tr, &mut out);
    request_budget(&inp, snapshot, &mut tr, slice, &mut out);
    tr.close(root, 0);

    let spans = PathBuf::from(format!("benchmark/out/trace-{workload}.json"));
    if let Some(parent) = spans.parent() {
        std::fs::create_dir_all(parent).expect("benchmark/out");
    }
    tr.write(&spans, &inp.workload).expect("write span file");
    println!(
        "detail {workload}: {} spans written to {}",
        tr.spans.len(),
        spans.display()
    );
    for m in spec::PER_LAYER {
        assert!(out.get(m.name).is_finite(), "{} was not measured", m.name);
    }
    let metrics = HarnessJson::obj(out.values.iter().map(|(n, v)| (*n, HarnessJson::Num(*v))));
    println!(
        "{}",
        HarnessJson::obj([
            ("attempted", HarnessJson::Num(out.attempted.max(1) as f64)),
            ("failed", HarnessJson::Num(out.failed as f64)),
            ("metrics", metrics),
        ])
    );
}
