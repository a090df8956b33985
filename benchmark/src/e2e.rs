//! The end-to-end run: five workloads driven only through the `pfe`
//! binary and the canonical wire ops of docs/PROTOCOL.md, tracing off.
//!
//! Nothing here calls a crate API (that is `layers.rs`), so an internal
//! refactor cannot break or bend these numbers. Every workload goes
//! through the same three steps — `setup` (timed as `setup_s`, repeated
//! and reported as a median), `measure` (the `--seconds` section, fenced
//! by the drift canary) and `finish` (checks against the exact reference,
//! teardown).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::canary::{drift, scale, spin_ms, Calibrator, DRIFT_LIMIT, REFERENCE_MS};
use crate::gen::{self, QuerySpec, Request, Rows, Shape};
use crate::json::{validate, Json};
use crate::procfs;
use crate::reference::{beyond, Checker, Tally, DELTA, GROSS};
use crate::sizes::{Sizes, BINARY, QARY};
use crate::stats::{median, percentile_sorted, sorted, tail_percentile};

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// Tiny inputs, one setup: a smoke test, not for reporting.
    pub quick: bool,
    /// The program under test.
    pub pfe: PathBuf,
    /// A directory of this run's own for generated files.
    pub scratch: PathBuf,
}

/// One end-to-end metric as measured, with the number of samples behind it.
pub struct Reading {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

pub struct Outcome {
    /// One per `spec::END_TO_END` entry, in that order.
    pub readings: Vec<Reading>,
    pub attempted: u64,
    pub failed: u64,
    /// A workload's own assertion (hit ratio, lateness, ...) did not hold.
    pub broken: Vec<String>,
    /// Human-readable lines: sample counts, ack latencies, canaries.
    pub details: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty()
    }
}

/// Engine parameters are fixed here, never derived from the machine.
const ENGINE_FLAGS: [&str; 10] = [
    "--shards",
    "2",
    "--alpha",
    "0.25",
    "--kmv-k",
    "256",
    "--sample-t",
    "4096",
    "--cache",
    "1024",
];
const WORKERS: &str = "2";
const CONNECTIONS: usize = 2;
/// Windows a serve or window timed section is cut into (a calibration
/// reading sits between two windows).
const QPS_WINDOWS: usize = 10;
/// Latency samples a segment needs for percentiles of its own.
const PER_SEGMENT_SAMPLES: usize = 1_000;
/// Keep every fiftieth reply for the reference check.
const CHECK_EVERY: usize = 50;

// ---------------------------------------------------------------- processes

/// Run `pfe` to completion, returning its stdout. Exit status ≠ 0 is an
/// error carrying stderr.
fn run_pfe(pfe: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new(pfe)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", pfe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "pfe {} exited with {}: {}",
            args.join(" "),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("pfe output is not UTF-8: {e}"))
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("scratch paths are ASCII")
}

/// A `pfe serve` child. Dropping it kills and reaps the process, so no
/// error path can leave a server behind.
struct ServerProc {
    child: Child,
    addr: String,
    stderr_drain: Option<std::thread::JoinHandle<()>>,
}

impl ServerProc {
    fn start(pfe: &Path, extra: &[&str]) -> Result<Self, String> {
        let mut child = Command::new(pfe)
            .args(["serve", "--listen", "127.0.0.1:0", "--workers", WORKERS])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {} serve: {e}", pfe.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
        let mut seen = String::new();
        let addr = loop {
            let mut line = String::new();
            let n = stderr.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                child.kill().ok();
                child.wait().ok();
                return Err(format!(
                    "pfe serve exited before listening: {}",
                    seen.trim()
                ));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                break addr.to_string();
            }
            seen.push_str(&line);
        };
        // Keep reading so the server never blocks on a full stderr pipe.
        let stderr_drain = std::thread::spawn(move || {
            let mut sink = Vec::new();
            stderr.read_to_end(&mut sink).ok();
        });
        Ok(ServerProc {
            child,
            addr,
            stderr_drain: Some(stderr_drain),
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Graceful stop through the protocol's `shutdown` op.
    fn stop(mut self) -> Result<(), String> {
        let mut conn = Conn::open(&self.addr)?;
        conn.call("{\"op\":\"shutdown\"}")?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("pfe serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("pfe serve did not exit after shutdown".into()),
                Err(e) => return Err(format!("waiting for pfe serve: {e}")),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.child.kill().ok();
        }
        self.child.wait().ok();
        if let Some(h) = self.stderr_drain.take() {
            h.join().ok();
        }
    }
}

/// One wire session: a request line out, a reply line back.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Conn {
    fn open(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let reader =
            BufReader::with_capacity(1 << 16, stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            stream,
            reader,
            reply: String::new(),
        })
    }

    /// Send a request that already ends in its newline (`Request::wire`);
    /// return the reply line without its newline.
    fn send(&mut self, wire: &str) -> Result<&str, String> {
        self.stream
            .write_all(wire.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.reply.clear();
        let n = self
            .reader
            .read_line(&mut self.reply)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 || !self.reply.ends_with('\n') {
            return Err("connection closed mid-reply".into());
        }
        Ok(self.reply.trim_end_matches(['\n', '\r']))
    }

    /// `send` for a line written on the spot.
    fn call(&mut self, line: &str) -> Result<&str, String> {
        self.send(&format!("{line}\n"))
    }

    /// `call`, parsed, and required to be `"ok":true`.
    fn call_ok(&mut self, line: &str) -> Result<Json, String> {
        let reply = self.call(line)?;
        let parsed = Json::parse(reply).ok_or_else(|| format!("malformed reply: {reply}"))?;
        if parsed.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("request failed: {reply}"));
        }
        Ok(parsed)
    }
}

fn count(haystack: &str, needle: &str) -> usize {
    haystack.matches(needle).count()
}

/// The cheap per-reply judgement made inside timed loops: one well-formed
/// JSON line, one `"ok":true` per statistic asked (plus the batch
/// envelope's own), and no `"ok":false` anywhere.
fn reply_ok(reply: &str, request: &Request) -> bool {
    let want = request.queries.len() + usize::from(request.batch);
    validate(reply) && count(reply, "\"ok\":true") == want && !reply.contains("\"ok\":false")
}

// ------------------------------------------------------------ load generators

/// What one client connection saw.
#[derive(Default)]
struct ClientLog {
    /// (completion time since the common start, latency), seconds.
    samples: Vec<(f64, f64)>,
    /// How late each request left, seconds (open loop only).
    lateness: Vec<f64>,
    /// Every `CHECK_EVERY`-th reply, with the index of its request.
    kept: Vec<(usize, String)>,
    bad: u64,
    bad_notes: Vec<String>,
    answers: u64,
    cached: u64,
    /// Among single-statistic sample-path requests only.
    sample_answers: u64,
    sample_cached: u64,
}

impl ClientLog {
    /// Fold in the log of a later window of the same connection.
    fn absorb(&mut self, other: ClientLog) {
        self.samples.extend(other.samples);
        self.lateness.extend(other.lateness);
        self.kept.extend(other.kept);
        self.bad += other.bad;
        self.bad_notes.extend(other.bad_notes);
        self.answers += other.answers;
        self.cached += other.cached;
        self.sample_answers += other.sample_answers;
        self.sample_cached += other.sample_cached;
    }

    fn record(&mut self, idx: usize, seq: usize, request: &Request, reply: &str, ok: bool) {
        if !ok {
            self.bad += 1;
            if self.bad_notes.len() < 3 {
                self.bad_notes.push(format!(
                    "{} -> {}",
                    request.line(),
                    &reply[..reply.len().min(300)]
                ));
            }
            return;
        }
        let cached = count(reply, "\"cached\":true") as u64;
        self.answers += request.queries.len() as u64;
        self.cached += cached;
        if request.queries.len() == 1 && !request.queries[0].stat.net_path() {
            self.sample_answers += 1;
            self.sample_cached += cached;
        }
        if seq.is_multiple_of(CHECK_EVERY) {
            self.kept.push((idx, reply.to_string()));
        }
    }
}

/// Closed loop: the next request leaves when the previous reply is in.
/// Runs from `start` for `run`, cycling through `requests` from `first`.
fn closed_loop(
    conn: &mut Conn,
    requests: &[Request],
    first: usize,
    start: Instant,
    run: Duration,
) -> Result<(ClientLog, usize), String> {
    let mut log = ClientLog::default();
    log.samples.reserve(1 << 16);
    while Instant::now() < start {
        std::hint::spin_loop();
    }
    let mut seq = 0usize;
    loop {
        let sent = Instant::now();
        if sent.duration_since(start) >= run {
            break;
        }
        let idx = (first + seq) % requests.len();
        let reply = conn.send(&requests[idx].wire)?;
        let done = Instant::now();
        log.samples.push((
            done.duration_since(start).as_secs_f64(),
            done.duration_since(sent).as_secs_f64(),
        ));
        log.record(
            idx,
            seq,
            &requests[idx],
            reply,
            reply_ok(reply, &requests[idx]),
        );
        seq += 1;
    }
    Ok((log, first + seq))
}

/// Open loop: request `i` is due at `start + offset + i·period` whatever
/// the server does; latency is counted from the due time, and how late
/// the generator itself ran is kept beside it. `judge` is the per-reply
/// verdict (a statistic reply or an ingest acknowledgement).
fn open_loop(
    conn: &mut Conn,
    requests: &[Request],
    judge: fn(&str, &Request) -> bool,
    start: Instant,
    offset: Duration,
    period: Duration,
    run: Duration,
) -> Result<ClientLog, String> {
    let mut log = ClientLog::default();
    let mut seq = 0usize;
    loop {
        let due_in = offset + period * seq as u32;
        if due_in >= run {
            break;
        }
        let due = start + due_in;
        // Sleep most of the way, spin the last stretch: sleep alone
        // overshoots by tens of microseconds, which would be charged to
        // the program.
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let left = due - now;
            if left > Duration::from_micros(300) {
                std::thread::sleep(left - Duration::from_micros(200));
            } else {
                std::hint::spin_loop();
            }
        }
        let sent = Instant::now();
        let idx = seq % requests.len();
        let reply = conn.send(&requests[idx].wire)?;
        let done = Instant::now();
        log.lateness.push(sent.duration_since(due).as_secs_f64());
        log.samples.push((
            done.duration_since(start).as_secs_f64(),
            done.duration_since(due).as_secs_f64(),
        ));
        log.record(
            idx,
            seq,
            &requests[idx],
            reply,
            judge(reply, &requests[idx]),
        );
        seq += 1;
    }
    Ok(log)
}

// ------------------------------------------------------------------ workloads

/// One slice of a timed section — a bulk pass, a closed-loop window —
/// measured between two calibration readings.
struct Segment {
    /// Wall seconds the slice's operations took.
    seconds: f64,
    /// Operations completed in it (rows, answered statistics, requests).
    ops: f64,
    /// CPU seconds the program spent on them.
    cpu_s: f64,
    /// Query latencies observed in it, seconds.
    latencies: Vec<f64>,
}

/// What a workload hands back from its timed section.
struct Measured {
    segments: Vec<Segment>,
    /// Calibration readings around the segments: one more than segments.
    calibration_ms: Vec<f64>,
    /// The rate is set by the harness's schedule (open loop), not by the
    /// program's speed, and is therefore reported unscaled.
    fixed_rate: bool,
    peak_rss_mb: f64,
    state_bytes: f64,
    attempted: u64,
    failed: u64,
    broken: Vec<String>,
    details: Vec<String>,
    tally: Tally,
}

trait Workload {
    /// Build inputs and bring the program to the point where the first
    /// timed operation can start.
    fn setup(&mut self) -> Result<(), String>;
    /// The timed section, cut into segments with a calibration reading
    /// before, between and after them.
    fn measure(&mut self, seconds: f64, calibrator: &mut Calibrator) -> Result<Measured, String>;
    /// Undo `setup`; the next `setup` starts from nothing.
    fn teardown(&mut self) -> Result<(), String>;
}

fn p95(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 0.95)
}

/// Run one workload: timed setups (the last one is kept), the timed
/// section between two spin-canary readings, the checks, teardown. Every
/// time is reported scaled to the reference machine (see `canary.rs`);
/// the raw figures go to the `detail` lines.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.scratch)
        .map_err(|e| format!("{}: {e}", opts.scratch.display()))?;
    let sizes = Sizes::of(opts.quick);
    let setups = sizes.setups;
    let mut workload: Box<dyn Workload> = match opts.workload.as_str() {
        "bulk_binary" => Box::new(Bulk::new(
            opts,
            BINARY,
            sizes.bulk_binary_rows,
            (3, 6),
            false,
            &sizes,
        )),
        "bulk_qary" => Box::new(Bulk::new(
            opts,
            QARY,
            sizes.bulk_qary_rows,
            (3, 5),
            true,
            &sizes,
        )),
        "serve_hot" => Box::new(Serve::new(opts, true, &sizes)),
        "serve_cold" => Box::new(Serve::new(opts, false, &sizes)),
        "window_mixed" => Box::new(Window::new(opts, sizes)),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let mut calibrator = Calibrator::new();

    let (mut setup_raw, mut setup_scaled) = (Vec::new(), Vec::new());
    let mut reading = calibrator.sample_ms();
    for i in 0..setups {
        if i > 0 {
            workload.teardown()?;
            reading = calibrator.sample_ms();
        }
        let t = Instant::now();
        workload.setup()?;
        let took = t.elapsed().as_secs_f64();
        let after = calibrator.sample_ms();
        setup_raw.push(took);
        setup_scaled.push(took * scale(reading, after));
    }

    let spin_before = spin_ms();
    let measured = workload.measure(opts.seconds, &mut calibrator)?;
    let spin_after = spin_ms();
    workload.teardown()?;
    let moved = drift(spin_before, spin_after);
    let mut details = vec![format!(
        "canary_ms: before {spin_before:.3} after {spin_after:.3} drift {:.1}%{}",
        moved * 100.0,
        if moved > DRIFT_LIMIT { " DRIFT" } else { "" }
    )];

    let cal = &measured.calibration_ms;
    if cal.len() != measured.segments.len() + 1 || measured.segments.is_empty() {
        return Err("a workload must read the calibrator around every segment".into());
    }
    let factors: Vec<f64> = cal.windows(2).map(|w| scale(w[0], w[1])).collect();
    // Every figure is taken per segment and scaled by that segment's own
    // factor; the reported value is the median over segments, so a slow
    // spell that covers a minority of the run does not move it. Latency
    // percentiles need enough samples: where a segment has fewer than
    // `PER_SEGMENT_SAMPLES` (bulk passes, the windowed reader) they are
    // taken once over all scaled samples instead.
    let per_segment = measured
        .segments
        .iter()
        .all(|s| s.latencies.len() >= PER_SEGMENT_SAMPLES);
    let (mut rates, mut raw_rates, mut cpu_us, mut cpu_raw_us) = (vec![], vec![], vec![], vec![]);
    let (mut p50s, mut p99s, mut raw_p50s, mut raw_p99s) = (vec![], vec![], vec![], vec![]);
    let (mut pooled, mut pooled_raw) = (Vec::new(), Vec::new());
    for (seg, &f) in measured.segments.iter().zip(&factors) {
        raw_rates.push(seg.ops / seg.seconds);
        rates.push(seg.ops / (seg.seconds * if measured.fixed_rate { 1.0 } else { f }));
        cpu_raw_us.push(seg.cpu_s * 1e6 / seg.ops.max(1.0));
        cpu_us.push(seg.cpu_s * f * 1e6 / seg.ops.max(1.0));
        let raw_us = sorted(&seg.latencies.iter().map(|s| s * 1e6).collect::<Vec<_>>());
        if per_segment {
            raw_p50s.push(percentile_sorted(&raw_us, 0.5));
            raw_p99s.push(percentile_sorted(&raw_us, 0.99));
            p50s.push(percentile_sorted(&raw_us, 0.5) * f);
            p99s.push(percentile_sorted(&raw_us, 0.99) * f);
        }
        pooled.extend(raw_us.iter().map(|us| us * f));
        pooled_raw.extend(raw_us);
    }
    let samples = pooled.len();
    let tail = if per_segment {
        0.99
    } else {
        tail_percentile(samples, 0.99)
    };
    let (pooled, pooled_raw) = (sorted(&pooled), sorted(&pooled_raw));
    let pick = |per: &[f64], all: &[f64], p: f64| {
        if per_segment {
            median(per)
        } else {
            percentile_sorted(all, p)
        }
    };
    let (p50, p99) = (pick(&p50s, &pooled, 0.5), pick(&p99s, &pooled, tail));
    details.push(format!(
        "calibration: kernel ms {:?} (reference {REFERENCE_MS}); times are scaled by reference / kernel",
        cal.iter().map(|c| (c * 100.0).round() / 100.0).collect::<Vec<_>>()
    ));
    details.push(format!(
        "unscaled: setup_s {:.4} ops_per_s {:.4} cpu_us_per_op {:.4} query_p50_us {:.4} query_p99_us {:.4}",
        median(&setup_raw),
        median(&raw_rates),
        median(&cpu_raw_us),
        pick(&raw_p50s, &pooled_raw, 0.5),
        pick(&raw_p99s, &pooled_raw, tail),
    ));
    details.push(format!(
        "query latency: n={samples} in {} segments; p50 and p{:.4} (at most p99, with >=10 samples beyond it), {}",
        measured.segments.len(),
        tail * 100.0,
        if per_segment {
            "per segment, median over segments"
        } else {
            "over all samples"
        }
    ));
    let tally = &measured.tally;
    details.push(format!(
        "checked answers: {} ({} failed); slack (observed error / advertised bound) p95: net {:.4} of {}, sample {:.4} of {}",
        tally.checked,
        tally.failures(),
        p95(&tally.net_slack),
        tally.net_slack.len(),
        p95(&tally.sample_slack),
        tally.sample_slack.len()
    ));
    details.push(format!(
        "past their bound: net {}, sample {} (bounds are advertised at confidence {}: failed if more \
         than that share of a path, or any answer past {GROSS}x its bound)",
        beyond(&tally.net_slack),
        beyond(&tally.sample_slack),
        1.0 - DELTA
    ));
    details.extend(tally.notes.iter().map(|n| format!("FAILED CHECK {n}")));
    details.extend(tally.past_bound.iter().map(|n| format!("PAST BOUND {n}")));
    details.extend(measured.details);
    let mut broken = measured.broken;
    if measured.tally.net_slack.is_empty() || measured.tally.sample_slack.is_empty() {
        broken.push("no answers were checked on one of the two guarantee paths".into());
    }
    let r = |name, value, samples| Reading {
        name,
        value,
        samples,
    };
    Ok(Outcome {
        readings: vec![
            r("setup_s", median(&setup_scaled), setup_scaled.len()),
            r("ops_per_s", median(&rates), rates.len()),
            r("cpu_us_per_op", median(&cpu_us), cpu_us.len()),
            r("peak_rss_mb", measured.peak_rss_mb, 1),
            r("query_p50_us", p50, samples),
            r("query_p99_us", p99, samples),
            r("state_bytes", measured.state_bytes, 1),
            r(
                "headroom_net",
                1.0 - p95(&measured.tally.net_slack),
                measured.tally.net_slack.len(),
            ),
            r(
                "headroom_sample",
                1.0 - p95(&measured.tally.sample_slack),
                measured.tally.sample_slack.len(),
            ),
        ],
        attempted: measured.attempted,
        failed: measured.failed + measured.tally.failures(),
        broken,
        details,
    })
}

// ----------------------------------------------------------------------- bulk

/// `bulk_binary` / `bulk_qary`: file → `pfe ingest` → durable checkpoint,
/// then a checked `pfe query --batch` against it, pass after pass.
struct Bulk {
    pfe: PathBuf,
    dir: PathBuf,
    seed: u64,
    shape: Shape,
    rows: usize,
    subset_sizes: (u32, u32),
    with_fp: bool,
    check_queries: usize,
    min_passes: usize,
    queries: Vec<QuerySpec>,
    checker: Option<Checker>,
}

struct Pass {
    wall_s: f64,
    cpu_s: f64,
    rss_mb: f64,
    bytes: u64,
}

impl Bulk {
    fn new(
        opts: &Options,
        shape: Shape,
        rows: usize,
        subset_sizes: (u32, u32),
        with_fp: bool,
        s: &Sizes,
    ) -> Self {
        Bulk {
            pfe: opts.pfe.clone(),
            dir: opts.scratch.clone(),
            seed: opts.seed,
            shape,
            rows,
            subset_sizes,
            with_fp,
            check_queries: s.check_queries,
            min_passes: if opts.quick { 2 } else { 3 },
            queries: Vec::new(),
            checker: None,
        }
    }

    fn csv(&self) -> PathBuf {
        self.dir.join("rows.csv")
    }
    fn snap(&self) -> PathBuf {
        self.dir.join("rows.pfes")
    }
    fn batch_file(&self) -> PathBuf {
        self.dir.join("check.jsonl")
    }

    /// `--fp 2.0` when the workload keeps moment nets: an engine flag,
    /// repeated when the checkpoint is queried.
    fn fp_flags(&self) -> &'static [&'static str] {
        if self.with_fp {
            &["--fp", "2.0"]
        } else {
            &[]
        }
    }

    /// One timed pass: spawn → parse → route → shards drained → merge →
    /// checkpoint on disk → exit. The clock is the harness's own.
    fn ingest_pass(&self, engine_seed: u64) -> Result<Pass, String> {
        std::fs::remove_file(self.snap()).ok();
        let (q, engine_seed) = (self.shape.q.to_string(), engine_seed.to_string());
        let cpu_before = procfs::reaped_children_cpu_seconds();
        let started = Instant::now();
        let mut child = Command::new(&self.pfe)
            .args([
                "ingest",
                path_str(&self.csv()),
                "--out",
                path_str(&self.snap()),
                "--quiet",
            ])
            .args(["--q", &q])
            .args(self.fp_flags())
            .args(ENGINE_FLAGS)
            .args(["--seed", &engine_seed])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot run {}: {e}", self.pfe.display()))?;
        let pid = child.id();
        let mut stdout = child.stdout.take().expect("stdout was piped");
        let mut stderr = child.stderr.take().expect("stderr was piped");
        let exited = AtomicBool::new(false);
        let mut report = String::new();
        let mut errors = String::new();
        // VmHWM is only readable while the process lives and only rises,
        // so it is polled on the side and read once more the moment the
        // final report line arrives (just before the process exits).
        let mut rss_mb = std::thread::scope(|scope| {
            let poller = scope.spawn(|| {
                let mut peak = 0.0f64;
                while !exited.load(Ordering::Relaxed) {
                    if let Some(mb) = procfs::peak_rss_mib(pid) {
                        peak = peak.max(mb);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                peak
            });
            stdout.read_to_string(&mut report).ok();
            let at_report = procfs::peak_rss_mib(pid).unwrap_or(0.0);
            stderr.read_to_string(&mut errors).ok();
            exited.store(true, Ordering::Relaxed);
            poller.join().expect("poller does not panic").max(at_report)
        });
        let status = child
            .wait()
            .map_err(|e| format!("wait for pfe ingest: {e}"))?;
        let wall_s = started.elapsed().as_secs_f64();
        let cpu_s = procfs::reaped_children_cpu_seconds() - cpu_before;
        if !status.success() {
            return Err(format!(
                "pfe ingest exited with {status}: {}",
                errors.trim()
            ));
        }
        let parsed =
            Json::parse(report.trim()).ok_or_else(|| format!("pfe ingest printed {report:?}"))?;
        if parsed.get("ok").and_then(Json::as_bool) != Some(true)
            || parsed.num("rows") != Some(self.rows as f64)
            || parsed.num("rejected") != Some(0.0)
        {
            return Err(format!("pfe ingest report is wrong: {}", report.trim()));
        }
        let bytes = std::fs::metadata(self.snap())
            .map_err(|e| format!("no checkpoint after pfe ingest: {e}"))?
            .len();
        if rss_mb == 0.0 {
            rss_mb = f64::NAN;
        }
        Ok(Pass {
            wall_s,
            cpu_s,
            rss_mb,
            bytes,
        })
    }

    /// `pfe query SNAP --batch`: returns (seconds, one reply line per query).
    fn query_batch(&self, engine_seed: u64) -> Result<(f64, Vec<String>), String> {
        let engine_seed = engine_seed.to_string();
        let (snap, batch) = (self.snap(), self.batch_file());
        let mut args = vec!["query", path_str(&snap), "--batch", path_str(&batch)];
        args.extend(self.fp_flags());
        args.extend(ENGINE_FLAGS);
        args.extend(["--seed", &engine_seed]);
        let t = Instant::now();
        let out = run_pfe(&self.pfe, &args)?;
        let secs = t.elapsed().as_secs_f64();
        Ok((secs, out.lines().map(str::to_string).collect()))
    }
}

/// `pfe query --batch` runs per pass, all timed. The first run of each of
/// the first `min_passes` passes is checked against the reference: how
/// many more passes fit in the time depends on the machine, and the
/// checked answers must not.
const QUERY_RUNS_PER_PASS: usize = 5;

impl Workload for Bulk {
    fn setup(&mut self) -> Result<(), String> {
        let rows = gen::gen_rows(self.seed, self.shape, self.rows);
        gen::write_csv(&rows, &self.csv()).map_err(|e| format!("write csv: {e}"))?;
        self.queries = gen::check_queries(
            self.seed,
            &rows,
            self.check_queries,
            self.subset_sizes,
            self.with_fp,
            None,
        );
        let batch: String = self.queries.iter().map(|q| q.to_json() + "\n").collect();
        std::fs::write(self.batch_file(), batch).map_err(|e| format!("write batch file: {e}"))?;
        self.checker = Some(Checker::new(&rows));
        Ok(())
    }

    fn measure(&mut self, seconds: f64, calibrator: &mut Calibrator) -> Result<Measured, String> {
        // One pass that is not counted: the first `pfe ingest` after a
        // quiet spell runs up to twice as long as the rest (cold caches,
        // clocks ramping up), pass after pass the same way.
        self.ingest_pass(0)?;
        let mut passes = Vec::new();
        let mut segments = Vec::new();
        let mut calibration_ms = vec![calibrator.sample_ms()];
        let mut tally = Tally::default();
        let mut failed = 0u64;
        let mut attempted = 0u64;
        let started = Instant::now();
        while passes.len() < self.min_passes || started.elapsed().as_secs_f64() < seconds {
            // Each pass seeds the engine's own randomness (reservoir, KMV
            // hashes) differently: the work is the same, but the checked
            // answers then come from independent samples, which steadies
            // the slack percentiles.
            let engine_seed = passes.len() as u64;
            let checked_pass = passes.len() < self.min_passes;
            let pass = self.ingest_pass(engine_seed)?;
            attempted += 1;
            let mut query_s = Vec::new();
            for run in 0..QUERY_RUNS_PER_PASS {
                let (secs, replies) = self.query_batch(engine_seed)?;
                query_s.push(secs / self.queries.len() as f64);
                attempted += self.queries.len() as u64;
                if replies.len() != self.queries.len() {
                    failed += self.queries.len() as u64;
                    continue;
                }
                if run > 0 || !checked_pass {
                    failed += replies
                        .iter()
                        .filter(|r| !validate(r) || !r.contains("\"ok\":true"))
                        .count() as u64;
                    continue;
                }
                let checker = self.checker.as_mut().expect("setup ran");
                for (spec, reply) in self.queries.iter().zip(&replies) {
                    match Json::parse(reply) {
                        Some(parsed) => checker.check(spec, &parsed, &mut tally),
                        None => failed += 1,
                    }
                }
            }
            calibration_ms.push(calibrator.sample_ms());
            segments.push(Segment {
                seconds: pass.wall_s,
                ops: self.rows as f64,
                cpu_s: pass.cpu_s,
                latencies: query_s,
            });
            passes.push(pass);
        }
        let sizes: Vec<u64> = passes.iter().map(|p| p.bytes).collect();
        let mut broken = Vec::new();
        if sizes.iter().any(|&b| b != sizes[0]) {
            broken.push(format!("checkpoint size does not repeat: {sizes:?}"));
        }
        let details = vec![format!(
            "passes: {} of {} rows, {} pfe query --batch runs of {} statistics after each; wall s {:?}",
            passes.len(),
            self.rows,
            QUERY_RUNS_PER_PASS,
            self.queries.len(),
            passes
                .iter()
                .map(|p| (p.wall_s * 1e3).round() / 1e3)
                .collect::<Vec<_>>()
        )];
        Ok(Measured {
            segments,
            calibration_ms,
            fixed_rate: false,
            peak_rss_mb: median(&passes.iter().map(|p| p.rss_mb).collect::<Vec<_>>()),
            state_bytes: sizes[sizes.len() - 1] as f64,
            attempted,
            failed,
            broken,
            details,
            tally,
        })
    }

    fn teardown(&mut self) -> Result<(), String> {
        for f in [self.csv(), self.snap(), self.batch_file()] {
            std::fs::remove_file(f).ok();
        }
        self.checker = None;
        Ok(())
    }
}

// ---------------------------------------------------------------------- serve

/// `serve_hot` / `serve_cold`: a server resumed from a snapshot, two
/// closed-loop connections.
struct Serve {
    pfe: PathBuf,
    dir: PathBuf,
    seed: u64,
    hot: bool,
    rows: usize,
    live: Option<ServeLive>,
}

struct ServeLive {
    server: ServerProc,
    conns: Vec<Conn>,
    requests: Vec<Vec<Request>>,
    /// Where each connection's cycle continues.
    next: Vec<usize>,
    checker: Checker,
    snapshot_bytes: u64,
}

/// Distinct batch lines generated per hot connection (cycled).
const HOT_LINES: usize = 2_048;

fn metrics_counter(metrics: &Json, section: &str, name: &str) -> f64 {
    metrics
        .get(section)
        .and_then(|s| s.num(name))
        .unwrap_or(0.0)
}

impl Serve {
    fn new(opts: &Options, hot: bool, s: &Sizes) -> Self {
        Serve {
            pfe: opts.pfe.clone(),
            dir: opts.scratch.clone(),
            seed: opts.seed,
            hot,
            rows: s.snapshot_rows,
            live: None,
        }
    }
}

impl Workload for Serve {
    fn setup(&mut self) -> Result<(), String> {
        let rows = gen::gen_rows(self.seed, BINARY, self.rows);
        let csv = self.dir.join("rows.csv");
        let snap = self.dir.join("rows.pfes");
        gen::write_csv(&rows, &csv).map_err(|e| format!("write csv: {e}"))?;
        let mut args = vec![
            "ingest",
            path_str(&csv),
            "--out",
            path_str(&snap),
            "--quiet",
        ];
        args.extend(ENGINE_FLAGS);
        run_pfe(&self.pfe, &args)?;
        let snapshot_bytes = std::fs::metadata(&snap)
            .map_err(|e| format!("no snapshot: {e}"))?
            .len();
        let mut resume = vec!["--resume", path_str(&snap)];
        resume.extend(ENGINE_FLAGS);
        let server = ServerProc::start(&self.pfe, &resume)?;
        let requests: Vec<Vec<Request>> = (0..CONNECTIONS)
            .map(|c| {
                if self.hot {
                    gen::hot_requests(self.seed, &rows, c, HOT_LINES)
                } else {
                    gen::cold_requests(self.seed, &rows, c, CONNECTIONS)
                }
            })
            .collect();
        let mut conns = Vec::new();
        let mut next = Vec::new();
        // Warm-up: open the sessions and let lazy set-up finish. On the
        // hot workload 64 batches of 16 touch every hot key many times, so
        // the cache is full before the clock starts.
        for reqs in &requests {
            let mut conn = Conn::open(&server.addr)?;
            let warm = if self.hot { 64 } else { 256 };
            for r in reqs.iter().take(warm) {
                let reply = conn.send(&r.wire)?;
                if !reply_ok(reply, r) {
                    return Err(format!("warm-up request failed: {} -> {reply}", r.line()));
                }
            }
            next.push(warm % reqs.len());
            conns.push(conn);
        }
        self.live = Some(ServeLive {
            server,
            conns,
            requests,
            next,
            checker: Checker::new(&rows),
            snapshot_bytes,
        });
        Ok(())
    }

    fn measure(&mut self, seconds: f64, calibrator: &mut Calibrator) -> Result<Measured, String> {
        let hot = self.hot;
        let live = self.live.as_mut().expect("setup ran");
        let pid = live.server.pid();
        let mut admin = Conn::open(&live.server.addr)?;
        let before = admin.call_ok("{\"op\":\"metrics\"}")?;
        let per_request = live.requests[0][0].queries.len() as f64;
        let window = Duration::from_secs_f64(seconds / QPS_WINDOWS as f64);

        let mut tally = Tally::default();
        let mut segments = Vec::new();
        let mut calibration_ms = vec![calibrator.sample_ms()];
        let (mut requests, mut answers, mut cached, mut sample_answers, mut sample_cached, mut bad) =
            (0u64, 0, 0, 0, 0, 0u64);
        let mut details = Vec::new();
        // The closed loops run in equal windows with a calibration reading
        // between them; the sessions stay open and each connection's cycle
        // continues where the last window left it.
        for _ in 0..QPS_WINDOWS {
            let cpu_before = procfs::cpu_seconds(pid).ok_or("server is gone")?;
            let start = Instant::now() + Duration::from_millis(2);
            let logs: Vec<Result<(ClientLog, usize), String>> = std::thread::scope(|scope| {
                let handles: Vec<_> = live
                    .conns
                    .iter_mut()
                    .zip(&live.requests)
                    .zip(&live.next)
                    .map(|((conn, reqs), &first)| {
                        scope.spawn(move || closed_loop(conn, reqs, first, start, window))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread does not panic"))
                    .collect()
            });
            let cpu_s = procfs::cpu_seconds(pid).ok_or("server is gone")? - cpu_before;
            calibration_ms.push(calibrator.sample_ms());
            let mut latencies = Vec::new();
            let mut window_answers = 0u64;
            let mut last_done = 0.0f64;
            for (c, log) in logs.into_iter().enumerate() {
                let (log, next) = log?;
                live.next[c] = next % live.requests[c].len();
                for (idx, reply) in &log.kept {
                    let request = &live.requests[c][*idx];
                    let Some(parsed) = Json::parse(reply) else {
                        bad += 1;
                        continue;
                    };
                    let one = [parsed];
                    let answers: &[Json] = if request.queries.len() == 1 {
                        &one
                    } else {
                        one[0].get("answers").and_then(Json::as_arr).unwrap_or(&[])
                    };
                    if answers.len() != request.queries.len() {
                        bad += 1;
                        continue;
                    }
                    for (spec, answer) in request.queries.iter().zip(answers) {
                        live.checker.check(spec, answer, &mut tally);
                    }
                }
                latencies.extend(log.samples.iter().map(|s| s.1));
                last_done = log.samples.iter().map(|s| s.0).fold(last_done, f64::max);
                requests += log.samples.len() as u64;
                window_answers += log.answers;
                cached += log.cached;
                sample_answers += log.sample_answers;
                sample_cached += log.sample_cached;
                bad += log.bad;
                details.extend(log.bad_notes.into_iter().map(|n| format!("BAD REPLY {n}")));
            }
            answers += window_answers;
            segments.push(Segment {
                seconds: last_done,
                ops: window_answers as f64,
                cpu_s,
                latencies,
            });
        }
        let after = admin.call_ok("{\"op\":\"metrics\"}")?;
        let peak_rss_mb = procfs::peak_rss_mib(pid).ok_or("server is gone")?;
        let delta = |name: &str| {
            metrics_counter(&after, "counters", name) - metrics_counter(&before, "counters", name)
        };
        let (hits, misses) = (delta("engine_cache_hits"), delta("engine_cache_misses"));
        let hit_ratio = hits / (hits + misses).max(1.0);
        let cached_share = sample_cached as f64 / (sample_answers as f64).max(1.0);
        details.push(format!(
            "requests: {requests} ({per_request} statistics each) in {QPS_WINDOWS} windows; unscaled windows 1/s {:?}",
            segments
                .iter()
                .map(|s| (s.ops / s.seconds).round())
                .collect::<Vec<_>>()
        ));
        details.push(format!(
            "engine cache: hit ratio {hit_ratio:.4} ({hits} hits, {misses} misses); replies cached {cached} of {answers}; sample-path replies cached {sample_cached} of {sample_answers}"
        ));
        details.push(format!(
            "server: wakeups/request {:.3}, rejected_saturated {}",
            delta("server_loop_wakeups") / (requests as f64).max(1.0),
            delta("server_rejected_saturated")
        ));
        let mut broken = Vec::new();
        if hot && hit_ratio < 0.95 {
            broken.push(format!(
                "serve_hot must hit the cache: hit ratio {hit_ratio:.4} < 0.95"
            ));
        }
        if !hot && cached_share > 0.05 {
            broken.push(format!("serve_cold must miss the cache: {cached_share:.4} of sample-path answers were cached"));
        }
        if delta("server_rejected_saturated") > 0.0 {
            broken.push("the server refused connections".into());
        }
        Ok(Measured {
            segments,
            calibration_ms,
            fixed_rate: false,
            peak_rss_mb,
            state_bytes: live.snapshot_bytes as f64,
            attempted: requests * per_request as u64,
            failed: bad * per_request as u64,
            broken,
            details,
            tally,
        })
    }

    fn teardown(&mut self) -> Result<(), String> {
        if let Some(live) = self.live.take() {
            drop(live.conns);
            live.server.stop()?;
        }
        for f in ["rows.csv", "rows.pfes"] {
            std::fs::remove_file(self.dir.join(f)).ok();
        }
        Ok(())
    }
}

// --------------------------------------------------------------------- window

/// `window_mixed`: a windowed engine created over the wire, written while
/// it is read, both on fixed schedules.
struct Window {
    pfe: PathBuf,
    dir: PathBuf,
    seed: u64,
    sizes: Sizes,
    /// Rows the writer can send in one timed section at its fixed rate.
    timed_rows: usize,
    live: Option<WindowLive>,
}

struct WindowLive {
    server: ServerProc,
    writer: Conn,
    reader: Conn,
    rows: Rows,
    writes: Vec<Request>,
    reads: Vec<Request>,
}

const INGEST_ROWS: usize = 512;
/// 5 writes/s beside 50 reads/s: of the ten reads between two writes the
/// first merges the new covering set cold (and may wait for the write
/// itself) and the rest find it merged, so the median is robustly the
/// warm path and the tail the cold one. At 20 writes/s the cold share
/// sits near one half and the median flips between the two modes; and the
/// ring's lock is then busy enough that a slow spell of the machine grows
/// the queue, not just the service time.
const WRITE_PERIOD: Duration = Duration::from_millis(200);
const READ_PERIOD: Duration = Duration::from_millis(20);
const READS_PER_WRITE: usize = (WRITE_PERIOD.as_millis() / READ_PERIOD.as_millis()) as usize;
/// The writer's schedule is shifted so a write and a read are never due
/// at the same instant.
const WRITE_OFFSET: Duration = Duration::from_millis(1);
/// A request that left more than this after its due time counts as late.
const LATE: f64 = 1e-3;
/// Share of late requests above which the run is not a measurement of the
/// schedule any more. On a quiet machine it stays under 1%; a slow spell
/// makes the reads queued behind one long cold read leave late.
const LATE_LIMIT: f64 = 0.05;
const WINDOW_CHECKS: usize = 64;

impl Window {
    fn new(opts: &Options, sizes: Sizes) -> Self {
        // The schedule restarts in every window: a window holds the writes
        // due before its end, the first one `WRITE_OFFSET` in.
        let window = opts.seconds / QPS_WINDOWS as f64;
        let per_window = ((window - WRITE_OFFSET.as_secs_f64()) / WRITE_PERIOD.as_secs_f64())
            .ceil()
            .max(1.0);
        let writes = QPS_WINDOWS * per_window as usize;
        Window {
            pfe: opts.pfe.clone(),
            dir: opts.scratch.clone(),
            seed: opts.seed,
            sizes,
            timed_rows: writes * INGEST_ROWS,
            live: None,
        }
    }
}

fn ingest_requests(rows: &Rows, from: usize, to: usize) -> Vec<Request> {
    (from..to)
        .step_by(INGEST_ROWS)
        .map(|at| Request::ingest(rows, at, (at + INGEST_ROWS).min(to)))
        .collect()
}

/// An `ingest` acknowledgement: every row of the request landed.
fn ack_ok(reply: &str, _request: &Request) -> bool {
    validate(reply)
        && reply.contains("\"ok\":true")
        && reply.contains(&format!("\"rows\":{INGEST_ROWS}"))
}

impl Workload for Window {
    fn setup(&mut self) -> Result<(), String> {
        let s = &self.sizes;
        let rows = gen::gen_rows(self.seed, BINARY, s.preload_rows + self.timed_rows);
        let server = ServerProc::start(&self.pfe, &[])?;
        let mut writer = Conn::open(&server.addr)?;
        writer.call_ok(&format!(
            "{{\"op\":\"start\",\"d\":{},\"q\":{},\"shards\":2,\"alpha\":0.25,\"kmv_k\":256,\"sample_t\":4096,\"window\":{{\"bucket_rows\":{},\"tier_cap\":4,\"max_tiers\":6}}}}",
            BINARY.d, BINARY.q, s.bucket_rows
        ))?;
        for r in ingest_requests(&rows, 0, s.preload_rows) {
            let reply = writer.send(&r.wire)?;
            if !ack_ok(reply, &r) {
                return Err(format!("preload failed: {reply}"));
            }
        }
        let reads: Vec<Request> = gen::window_requests(self.seed, &rows, s.window_rows);
        let mut reader = Conn::open(&server.addr)?;
        for r in &reads {
            let reply = reader.send(&r.wire)?;
            if !reply_ok(reply, r) {
                return Err(format!("warm-up query failed: {} -> {reply}", r.line()));
            }
        }
        let writes = ingest_requests(&rows, s.preload_rows, rows.len());
        self.live = Some(WindowLive {
            server,
            writer,
            reader,
            rows,
            writes,
            reads,
        });
        Ok(())
    }

    fn measure(&mut self, seconds: f64, calibrator: &mut Calibrator) -> Result<Measured, String> {
        let window_rows = self.sizes.window_rows;
        let preload = self.sizes.preload_rows;
        let checkpoint = self.dir.join("window.pfes");
        let live = self.live.as_mut().expect("setup ran");
        let pid = live.server.pid();
        let window = Duration::from_secs_f64(seconds / QPS_WINDOWS as f64);
        let mut segments = Vec::new();
        let mut calibration_ms = vec![calibrator.sample_ms()];
        let (mut write_log, mut read_log) = (ClientLog::default(), ClientLog::default());
        // Both schedules run in equal windows with a calibration reading
        // between them; the writer continues through its prepared lines.
        for _ in 0..QPS_WINDOWS {
            let cpu_before = procfs::cpu_seconds(pid).ok_or("server is gone")?;
            let start = Instant::now() + Duration::from_millis(2);
            let sent = write_log.samples.len().min(live.writes.len());
            let (w, r) = std::thread::scope(|scope| {
                let (writer, writes) = (&mut live.writer, &live.writes[sent..]);
                let w = scope.spawn(move || {
                    open_loop(
                        writer,
                        writes,
                        ack_ok,
                        start,
                        WRITE_OFFSET,
                        WRITE_PERIOD,
                        window,
                    )
                });
                let (reader, reads) = (&mut live.reader, &live.reads);
                let r = scope.spawn(move || {
                    open_loop(
                        reader,
                        reads,
                        reply_ok,
                        start,
                        Duration::ZERO,
                        READ_PERIOD,
                        window,
                    )
                });
                (
                    w.join().expect("writer thread does not panic"),
                    r.join().expect("reader thread does not panic"),
                )
            });
            let (w, r) = (w?, r?);
            let cpu_s = procfs::cpu_seconds(pid).ok_or("server is gone")? - cpu_before;
            calibration_ms.push(calibrator.sample_ms());
            let last_done = w
                .samples
                .iter()
                .chain(&r.samples)
                .map(|s| s.0)
                .fold(0.0, f64::max);
            segments.push(Segment {
                // Up to the last completion, so a server that falls behind
                // its schedule shows as a lower rate.
                seconds: last_done,
                ops: (w.samples.len() + r.samples.len()) as f64,
                cpu_s,
                // The gated latency is that of the read that pays for a
                // write: the first one due after it, which merges the new
                // covering set (and waits for the write if it is still
                // running). The other reads find the merge done; at a few
                // hundred microseconds on an otherwise idle server they
                // mostly measure how fast a halted virtual CPU wakes up,
                // which on a shared host is not the program's doing. They
                // are printed, not gated.
                latencies: r
                    .samples
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % READS_PER_WRITE == 1)
                    .map(|(_, s)| s.1)
                    .collect(),
            });
            write_log.absorb(w);
            read_log.absorb(r);
        }
        let acks = write_log.samples.len();
        if acks > live.writes.len() {
            return Err(format!(
                "--seconds {seconds} outran the {} prepared writes",
                live.writes.len()
            ));
        }
        let ingested = preload + acks * INGEST_ROWS;

        // The ring must now account for exactly what was acknowledged:
        // no write dropped, none doubled.
        let mut failed = write_log.bad + read_log.bad;
        let stats = live.writer.call_ok("{\"op\":\"window_stats\"}")?;
        let accounted =
            stats.num("retained_rows").unwrap_or(-1.0) + stats.num("evicted_rows").unwrap_or(0.0);
        let mut broken = Vec::new();
        if accounted != ingested as f64 {
            broken.push(format!(
                "ring accounts for {accounted} rows, {ingested} were acknowledged"
            ));
        }

        // Checked answers: the writer is idle now, so a window is exactly
        // the last `covered_rows` rows of what was sent.
        let sent = live.rows.slice(0, ingested);
        let checks = gen::check_queries(
            self.seed ^ 0x5eed,
            &sent,
            WINDOW_CHECKS,
            (3, 6),
            false,
            Some(window_rows),
        );
        let mut tally = Tally::default();
        let mut checkers: Vec<(usize, Checker)> = Vec::new();
        for spec in &checks {
            let reply = live.reader.call(&spec.to_json())?;
            let parsed = Json::parse(reply);
            let covered = parsed
                .as_ref()
                .and_then(|p| p.get("window"))
                .and_then(|w| w.num("covered_rows"))
                .map(|c| c as usize)
                .filter(|&c| c <= ingested);
            let (Some(parsed), Some(covered)) = (parsed, covered) else {
                failed += 1;
                continue;
            };
            let at = match checkers.iter().position(|(c, _)| *c == covered) {
                Some(at) => at,
                None => {
                    checkers.push((
                        covered,
                        Checker::new(&sent.slice(ingested - covered, ingested)),
                    ));
                    checkers.len() - 1
                }
            };
            checkers[at].1.check(spec, &parsed, &mut tally);
        }

        live.writer.call_ok(&format!(
            "{{\"op\":\"checkpoint\",\"path\":\"{}\"}}",
            path_str(&checkpoint)
        ))?;
        let state_bytes = std::fs::metadata(&checkpoint)
            .map_err(|e| format!("no checkpoint: {e}"))?
            .len();
        std::fs::remove_file(&checkpoint).ok();
        let peak_rss_mb = procfs::peak_rss_mib(pid).ok_or("server is gone")?;

        let requests = acks + read_log.samples.len();
        let lateness = || write_log.lateness.iter().chain(&read_log.lateness);
        let late = lateness().filter(|&&l| l > LATE).count();
        let late_share = late as f64 / requests.max(1) as f64;
        let read_us = sorted(
            &read_log
                .samples
                .iter()
                .map(|s| s.1 * 1e6)
                .collect::<Vec<_>>(),
        );
        let read_tail = tail_percentile(read_us.len(), 0.99);
        let ack_us = sorted(
            &write_log
                .samples
                .iter()
                .map(|s| s.1 * 1e6)
                .collect::<Vec<_>>(),
        );
        let ack_tail = tail_percentile(ack_us.len(), 0.99);
        let mut details = vec![
            format!(
                "ingest_ack_us: n={} p50 {:.1} p{:.2} {:.1} (printed, not gated: it exists on this workload only)",
                ack_us.len(),
                percentile_sorted(&ack_us, 0.5),
                ack_tail * 100.0,
                percentile_sorted(&ack_us, ack_tail)
            ),
            format!(
                "all reads, unscaled us: n={} p50 {:.1} p{:.2} {:.1} (the gated query latency is that of the {} reads that follow a write)",
                read_us.len(),
                percentile_sorted(&read_us, 0.5),
                read_tail * 100.0,
                percentile_sorted(&read_us, read_tail),
                read_us.len() / READS_PER_WRITE
            ),
            format!(
                "generator lateness: {late} of {requests} requests left >1 ms late ({:.3}%); worst {:.1} us",
                late_share * 100.0,
                lateness().fold(0.0f64, |a, &b| a.max(b)) * 1e6
            ),
            format!(
                "ring: tier_merges {} buckets {} merged_cache hits {} misses {}; reader replies cached {} of {}",
                stats.num("tier_merges").unwrap_or(-1.0),
                stats.num("buckets").unwrap_or(-1.0),
                stats.num("merged_cache_hits").unwrap_or(-1.0),
                stats.num("merged_cache_misses").unwrap_or(-1.0),
                read_log.cached,
                read_log.answers
            ),
        ];
        for n in write_log.bad_notes.iter().chain(&read_log.bad_notes) {
            details.push(format!("BAD REPLY {n}"));
        }
        if late_share > LATE_LIMIT {
            broken.push(format!(
                "the load generator ran late on {:.2}% of requests",
                late_share * 100.0
            ));
        }
        Ok(Measured {
            segments,
            calibration_ms,
            // The schedule fixes the rate; a faster machine does not raise it.
            fixed_rate: true,
            peak_rss_mb,
            state_bytes: state_bytes as f64,
            attempted: (requests + checks.len()) as u64,
            failed,
            broken,
            details,
            tally,
        })
    }

    fn teardown(&mut self) -> Result<(), String> {
        if let Some(live) = self.live.take() {
            drop((live.writer, live.reader));
            live.server.stop()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{QuerySpec, Stat};

    fn f0(cols: &[u32]) -> QuerySpec {
        QuerySpec {
            cols: cols.to_vec(),
            stat: Stat::F0,
            window: None,
        }
    }

    #[test]
    fn replies_are_judged_by_shape_not_by_trust() {
        let single = Request::single(f0(&[0, 1]));
        let good = r#"{"cached":false,"estimate":4,"ok":true}"#;
        assert!(reply_ok(good, &single));
        assert!(!reply_ok(r#"{"ok":false,"error":"no engine"}"#, &single));
        assert!(!reply_ok(r#"{"ok":true"#, &single), "truncated JSON");
        let batch = Request::batch(vec![f0(&[0]), f0(&[1])]);
        let answers =
            r#"{"answers":[{"ok":true,"estimate":2},{"ok":true,"estimate":2}],"ok":true}"#;
        assert!(reply_ok(answers, &batch));
        let one_failed =
            r#"{"answers":[{"ok":true,"estimate":2},{"ok":false,"error":"x"}],"ok":true}"#;
        assert!(!reply_ok(one_failed, &batch));
        let one_missing = r#"{"answers":[{"ok":true,"estimate":2}],"ok":true}"#;
        assert!(!reply_ok(one_missing, &batch));
        let ack = Request::ingest(&gen::gen_rows(1, BINARY, 8), 0, 8);
        assert!(ack_ok(r#"{"ok":true,"rows":512}"#, &ack));
        assert!(!ack_ok(r#"{"ok":true,"rows":49}"#, &ack));
        assert!(!ack_ok(
            r#"{"ok":false,"error":"...","rows_ingested":49}"#,
            &ack
        ));
    }

    #[test]
    fn client_log_counts_cached_answers_by_path() {
        let mut log = ClientLog::default();
        let hh = Request::single(QuerySpec {
            cols: vec![0, 1, 2],
            stat: Stat::HeavyHitters { phi: 0.05 },
            window: None,
        });
        log.record(0, 0, &hh, r#"{"cached":true,"ok":true}"#, true);
        log.record(1, 1, &hh, r#"{"cached":false,"ok":true}"#, true);
        log.record(
            2,
            2,
            &Request::single(f0(&[0])),
            r#"{"cached":true,"ok":true}"#,
            true,
        );
        log.record(3, 3, &hh, "garbage", false);
        assert_eq!((log.answers, log.cached), (3, 2));
        assert_eq!((log.sample_answers, log.sample_cached), (2, 1));
        assert_eq!(
            (log.bad, log.kept.len()),
            (1, 1),
            "every 50th reply is kept, from the first"
        );
    }
}
