//! `pfe ingest` and `pfe resume` — bulk-load a file into an engine and
//! checkpoint the result.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pfe_engine::{Json, Recorder};
use pfe_ingest::{FileIngester, IngestError, IngestReport};
use pfe_window::Backend;

use crate::args::{engine_config, ingest_options, window_config, Args};

/// A once-a-second progress line on stderr, fed by the same recorder
/// counters the ingester reports into. Silent under `--quiet`.
struct Progress {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Progress {
    fn start(recorder: &Arc<Recorder>, quiet: bool) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        if quiet {
            return Self { stop, handle: None };
        }
        let rows = recorder.counter("ingest_rows");
        let bytes = recorder.counter("ingest_bytes");
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let started = std::time::Instant::now();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(1000));
                if flag.load(Ordering::Relaxed) {
                    break;
                }
                let secs = started.elapsed().as_secs_f64();
                eprintln!(
                    "ingest: {} rows read, {:.1} MiB ({:.0} rows/s)",
                    rows.get(),
                    bytes.get() as f64 / (1024.0 * 1024.0),
                    rows.get() as f64 / secs.max(1e-9),
                );
            }
        });
        Self {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Progress {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.join().ok();
        }
    }
}

/// The report line. `report.elapsed` arrives as the reader's time — up to
/// the last row *routed*, with whole channels of chunks still unswept —
/// and both callers overwrite it with their own clock, stopped once the
/// shards are drained and the checkpoint is on disk: rows/s from a file
/// into a published snapshot.
fn report_json(file: &str, report: &IngestReport, out: Option<&str>) -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("file", Json::Str(file.to_string())),
        ("rows", Json::Num(report.rows as f64)),
        ("bytes", Json::Num(report.bytes as f64)),
        ("chunks", Json::Num(report.chunks as f64)),
        ("rejected", Json::Num(report.rejected as f64)),
        ("elapsed_ms", Json::Num(report.elapsed.as_secs_f64() * 1e3)),
        ("rows_per_sec", Json::Num(report.rows_per_sec())),
        ("mb_per_sec", Json::Num(report.mb_per_sec())),
        ("d", Json::Num(report.schema.dimension() as f64)),
        ("q", Json::Num(report.schema.alphabet as f64)),
        (
            "columns",
            Json::Arr(
                report
                    .schema
                    .columns
                    .iter()
                    .map(|c| Json::Str(c.clone()))
                    .collect(),
            ),
        ),
        (
            "out",
            out.map(|o| Json::Str(o.to_string())).unwrap_or(Json::Null),
        ),
    ])
}

/// `pfe ingest FILE [--out SNAP]`: columnar-ingest the file into a
/// fresh engine (whole-stream, or sliding-window with `--window`),
/// optionally checkpoint it, and print the throughput report.
pub fn ingest(args: &Args) -> Result<i32, String> {
    let pos = args.positionals();
    let [file] = pos[..] else {
        return Err("usage: pfe ingest FILE [--out SNAP] [file-shape flags] [engine flags]".into());
    };
    let ecfg = engine_config(args)?;
    let opts = ingest_options(args)?;
    let wcfg = window_config(args)?;
    let out = args.value("--out");
    let recorder = Arc::new(Recorder::new());
    let ingester = FileIngester::with_recorder(opts, &recorder);
    let progress = Progress::start(&recorder, args.present("--quiet"));

    let rec = Arc::clone(&recorder);
    let started = Instant::now();
    let (backend, mut report) = ingester
        .ingest_path_with(file, move |schema| {
            Backend::start(schema.dimension(), schema.alphabet, ecfg, wcfg, rec)
                .map_err(|e| IngestError::Sink(e.to_string()))
        })
        .map_err(|e| e.to_string())?;
    drop(progress);

    if let Some(out) = out {
        backend
            .checkpoint(Path::new(out))
            .map_err(|e| format!("checkpoint {out}: {e}"))?;
    }
    backend.close();
    report.elapsed = started.elapsed();
    println!("{}", report_json(file, &report, out));
    Ok(0)
}

/// `pfe resume SNAP --ingest FILE [--out NEW]`: reopen a checkpoint,
/// ingest more rows from a file, and checkpoint again (over the same
/// path unless `--out` says otherwise). Engine flags must repeat the
/// values the checkpoint was built with.
pub fn resume(args: &Args) -> Result<i32, String> {
    let pos = args.positionals();
    let [snap] = pos[..] else {
        return Err("usage: pfe resume SNAP --ingest FILE [--out NEW] [engine flags]".into());
    };
    let file = args
        .value("--ingest")
        .ok_or("usage: pfe resume SNAP --ingest FILE [--out NEW]")?;
    let ecfg = engine_config(args)?;
    let recorder = Arc::new(Recorder::new());
    let backend =
        Backend::resume(snap, ecfg, Arc::clone(&recorder)).map_err(|e| format!("{snap}: {e}"))?;
    let q = backend.alphabet();

    let mut opts = ingest_options(args)?;
    // The checkpoint fixes the alphabet; the flag may only agree.
    if let Some(flag_q) = args.parse::<u32>("--q")? {
        if flag_q != q {
            return Err(format!(
                "--q {flag_q} disagrees with the checkpoint's q={q}"
            ));
        }
    }
    opts.alphabet = q;

    let ingester = FileIngester::with_recorder(opts, &recorder);
    let progress = Progress::start(&recorder, args.present("--quiet"));
    let started = Instant::now();
    let (backend, mut report) = ingester
        .ingest_into(file, backend)
        .map_err(|e| e.to_string())?;
    drop(progress);

    let out = args.value("--out").unwrap_or(snap);
    backend
        .checkpoint(Path::new(out))
        .map_err(|e| format!("checkpoint {out}: {e}"))?;
    backend.close();
    report.elapsed = started.elapsed();
    println!("{}", report_json(file, &report, Some(out)));
    Ok(0)
}
