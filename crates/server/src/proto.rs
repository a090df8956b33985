//! The protocol dispatcher: one definition of the line-delimited JSON
//! surface, shared by stdin (pipe) mode, TCP sessions, and tests.
//!
//! A [`Dispatcher`] owns the serving [`Backend`] (whole-stream or
//! sliding-window, selected by the `start` request — the dispatcher never
//! asks which) plus the server-level counters, and turns one request line
//! into one response [`Reply`]. Statistic requests and responses are
//! the canonical `pfe-query` types serialized by `pfe_engine::wire`, so
//! the Rust API, the cache keys, and every transport speak one language.
//! The full request/response reference lives in `docs/PROTOCOL.md`
//! (checked against [`OPS`] by CI).
//!
//! ```
//! use pfe_server::proto::{Control, Dispatcher};
//! use pfe_engine::Json;
//!
//! let dispatcher = Dispatcher::new(None);
//! let reply = dispatcher.handle_line(r#"{"op":"start","d":8,"q":2,"shards":2}"#);
//! assert_eq!(reply.json.get("ok"), Some(&Json::Bool(true)));
//! let reply = dispatcher.handle_line(r#"{"op":"ingest","rows":[[0,1,0,0,1,0,1,1]]}"#);
//! assert_eq!(reply.json.get("rows").and_then(Json::as_f64), Some(1.0));
//! dispatcher.handle_line(r#"{"op":"snapshot"}"#);
//! let reply = dispatcher.handle_line(r#"{"op":"f0","cols":[0,1,2]}"#);
//! assert!(reply.json.get("estimate").is_some());
//! assert!(matches!(reply.control, Control::Continue));
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Instant, SystemTime};

use pfe_engine::{wire, Engine, EngineConfig, Json, Query, Snapshot};
use pfe_obs::{
    chrome_trace_json, AttrValue, CompletedTrace, Counter, Gauge, Histogram, Recorder, SpanRecord,
    TraceContext, TraceHandle,
};
use pfe_window::{wire as window_wire, WindowConfig};

/// The serving backend — whole-stream or sliding-window — lives in
/// `pfe-window`, the lowest crate that sees both engines; re-exported here
/// for the transports and tools that install one.
pub use pfe_window::Backend;

/// Every op name the dispatcher recognizes.
///
/// This is the single registry the `match` in [`Dispatcher::handle_line`]
/// is built from; `scripts/check_protocol_docs.sh` (CI) fails if any name
/// listed here is missing from `docs/PROTOCOL.md`.
pub const OPS: &[&str] = &[
    // OPS_START — one op per line; greppable by the docs-drift check.
    "start",
    "ingest",
    "snapshot",
    "f0",
    "frequency",
    "heavy_hitters",
    "l1_sample",
    "fp",
    "batch",
    "stats",
    "window_stats",
    "server_stats",
    "metrics",
    "slow_log",
    "set_slow_ms",
    "trace",
    "replica_stats",
    "checkpoint",
    "shutdown",
    "quit",
    // OPS_END
];

/// Build an `{"ok":false,"error":msg}` payload.
fn err(msg: impl Into<String>) -> Json {
    Json::obj([("ok", Json::Bool(false)), ("error", Json::Str(msg.into()))])
}

/// Error payload for an unrecognized op name: the offending op string is
/// echoed in its own field so clients can match it programmatically
/// instead of parsing the message.
fn err_unknown_op(op: &str, context: &str) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::Str(format!("unknown {context} op '{op}'"))),
        ("op", Json::Str(op.to_string())),
    ])
}

/// The typed saturation rejection a client receives when the worker pool
/// cannot take its connection (`"code":"saturated"` is the stable,
/// machine-matchable field).
pub fn err_saturated(workers: usize, queue: usize) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::Str(format!(
                "server saturated: all {workers} workers busy and the \
                 {queue}-connection queue is full; retry later"
            )),
        ),
        ("code", Json::Str("saturated".to_string())),
    ])
}

/// The typed rejection a read-replica answers to any mutating op
/// (`"code":"read_only"` is the stable, machine-matchable field).
fn err_read_only(op: &str) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::Str(format!(
                "replica is read-only: '{op}' must run on the writer"
            )),
        ),
        ("code", Json::Str("read_only".to_string())),
        ("op", Json::Str(op.to_string())),
    ])
}

/// The typed rejection for a request line over the configured cap
/// (`"code":"line_too_long"`). The session survives: the server discards
/// to the next newline and keeps answering.
pub fn err_line_too_long(limit: usize) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::Str(format!(
                "request line exceeds the {limit}-byte cap; request discarded"
            )),
        ),
        ("code", Json::Str("line_too_long".to_string())),
    ])
}

/// Replication lag: milliseconds elapsed since the writer produced the
/// snapshot (its file mtime). `None` when the clock went backwards.
fn lag_ms_since(mtime: SystemTime) -> Option<u64> {
    SystemTime::now()
        .duration_since(mtime)
        .ok()
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
}

/// Parse the optional `"trace"` field of a request: a bare hex string
/// (the trace id) or `{"id": hex, "parent": hex}`. Returns a typed error
/// payload on a malformed value, `Ok(None)` when absent.
fn trace_context_from(req: &Json) -> Result<Option<TraceContext>, Json> {
    let bad = |what: &str| err(format!("bad 'trace' field: {what}"));
    match req.get("trace") {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => {
            let trace_id =
                TraceContext::parse_id(s).ok_or_else(|| bad("expected a hex trace id"))?;
            Ok(Some(TraceContext {
                trace_id,
                parent: None,
            }))
        }
        Some(obj @ Json::Obj(_)) => {
            let id = obj
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("object form requires a hex 'id'"))?;
            let trace_id = TraceContext::parse_id(id).ok_or_else(|| bad("'id' must be hex"))?;
            let parent = match obj.get("parent") {
                None | Some(Json::Null) => None,
                Some(p) => Some(
                    p.as_str()
                        .and_then(TraceContext::parse_id)
                        .filter(|&v| v <= u64::MAX as u128)
                        .ok_or_else(|| bad("'parent' must be a hex span id"))?
                        as u64,
                ),
            };
            Ok(Some(TraceContext { trace_id, parent }))
        }
        Some(_) => Err(bad("expected a hex string or an object")),
    }
}

/// Overwrite `slot` with the `start` parameter `obj[field]` when it is
/// present. The value must be a nonnegative integer fitting `T` — never
/// a silently truncated float.
fn set_uint<T: TryFrom<u64>>(obj: &Json, field: &str, slot: &mut T) -> Result<(), Json> {
    if let Some(v) = wire::uint(obj, field).map_err(err)? {
        *slot = T::try_from(v).map_err(|_| err(format!("'{field}' is out of range")))?;
    }
    Ok(())
}

/// `start` reads a closed set of fields: a key of `obj` (the request, or
/// its `fp` / `window` object) outside `known` is a typed error naming it.
fn known_fields(obj: &Json, what: &str, known: &[&str]) -> Result<(), Json> {
    wire::known_fields(obj, what, |k| known.contains(&k)).map_err(err)
}

/// One completed trace as a span-tree JSON object: spans nest under
/// their parents (`children` arrays), roots in start order.
fn trace_to_json(t: &CompletedTrace) -> Json {
    fn span_json(
        t: &CompletedTrace,
        s: &SpanRecord,
        by_parent: &BTreeMap<u64, Vec<&SpanRecord>>,
    ) -> Json {
        let children: Vec<Json> = by_parent
            .get(&s.id)
            .map(|kids| kids.iter().map(|k| span_json(t, k, by_parent)).collect())
            .unwrap_or_default();
        Json::obj([
            ("name", Json::Str(s.name.to_string())),
            ("span", Json::Num(s.id as f64)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            (
                "attrs",
                Json::Obj(
                    t.attrs_of(s)
                        .iter()
                        .map(|(k, v)| {
                            let value = match v {
                                AttrValue::Str(s) => Json::Str((*s).to_string()),
                                AttrValue::Text(s) => Json::Str(s.clone()),
                                // f64 holds integers exactly up to 2^53;
                                // larger ids (fingerprints) go as strings.
                                AttrValue::U64(n) if *n <= (1u64 << 53) => Json::Num(*n as f64),
                                AttrValue::U64(n) => Json::Str(n.to_string()),
                                AttrValue::Hex(n) => Json::Str(format!("{n:#x}")),
                                AttrValue::I64(n) => Json::Num(*n as f64),
                                AttrValue::F64(n) => Json::Num(*n),
                                AttrValue::Bool(b) => Json::Bool(*b),
                            };
                            (k.to_string(), value)
                        })
                        .collect(),
                ),
            ),
            ("children", Json::Arr(children)),
        ])
    }
    let known: std::collections::BTreeSet<u64> = t.spans.iter().map(|s| s.id).collect();
    let mut by_parent: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for s in &t.spans {
        match s.parent {
            // A parent id the trace never recorded (e.g. a span still
            // open at finish) degrades to a root, not a lost span.
            Some(p) if known.contains(&p) => by_parent.entry(p).or_default().push(s),
            _ => roots.push(s),
        }
    }
    for list in by_parent.values_mut() {
        list.sort_by_key(|s| s.start_ns);
    }
    roots.sort_by_key(|s| s.start_ns);
    Json::obj([
        ("trace_id", Json::Str(TraceContext::format_id(t.trace_id))),
        ("slow", Json::Bool(t.slow)),
        (
            "spans",
            Json::Arr(roots.iter().map(|r| span_json(t, r, &by_parent)).collect()),
        ),
    ])
}

/// What the transport should do after writing a [`Reply`]'s response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep reading requests on this session.
    Continue,
    /// Close this session (the `quit` op); the server keeps running.
    CloseSession,
    /// Stop the whole server (the `shutdown` op): sessions drain — each
    /// finishes its in-flight request — and then the transport writes
    /// the shutdown checkpoint via [`Dispatcher::shutdown_checkpoint`],
    /// so every request acknowledged before exit is included.
    ShutdownServer,
}

/// One response line plus the transport action that follows it.
pub struct Reply {
    /// The response object (always carries `"ok"`).
    pub json: Json,
    /// What the session should do after sending `json`.
    pub control: Control,
}

impl Reply {
    fn cont(json: Json) -> Self {
        Self {
            json,
            control: Control::Continue,
        }
    }
}

/// Connection/request counters served by `server_stats`. The TCP layer
/// owns the connection-shaped ones; the dispatcher maintains the request
/// and per-op counters on every transport (in pipe mode the connection
/// counters simply stay 0).
///
/// Every field is a handle into the dispatcher's shared
/// [`Recorder`] (`server_*` names), so `server_stats`, the `metrics` op,
/// and the Prometheus endpoint all read the same series. Per-op handles
/// are pre-resolved for all of [`OPS`] at construction — the hot path
/// never takes the registry lock.
#[derive(Debug)]
pub struct ServerCounters {
    /// Connections accepted since start.
    pub connections_accepted: Arc<Counter>,
    /// Connections currently open (accepted, not yet closed).
    pub connections_open: Arc<Gauge>,
    /// Connections rejected with the typed saturation error.
    pub rejected_saturated: Arc<Counter>,
    /// Requests handled to completion across all sessions.
    pub requests_handled: Arc<Counter>,
    /// Requests currently being dispatched.
    pub in_flight: Arc<Gauge>,
    /// `op name -> (request counter, latency histogram)`; unrecognized
    /// names share the `unknown` slot.
    ops: BTreeMap<&'static str, (Arc<Counter>, Arc<Histogram>)>,
}

impl ServerCounters {
    fn new(recorder: &Recorder) -> Self {
        let mut ops = BTreeMap::new();
        for &op in OPS.iter().chain(std::iter::once(&"unknown")) {
            ops.insert(
                op,
                (
                    recorder.counter(&format!("server_op_requests_{op}")),
                    recorder.histogram(&format!("server_op_latency_ns_{op}")),
                ),
            );
        }
        Self {
            connections_accepted: recorder.counter("server_connections_accepted"),
            connections_open: recorder.gauge("server_connections_open"),
            rejected_saturated: recorder.counter("server_rejected_saturated"),
            requests_handled: recorder.counter("server_requests_handled"),
            in_flight: recorder.gauge("server_in_flight"),
            ops,
        }
    }

    fn op_handles(&self, op: &str) -> &(Arc<Counter>, Arc<Histogram>) {
        self.ops.get(op).unwrap_or_else(|| &self.ops["unknown"])
    }

    /// Per-op request counts — ops with traffic only (unrecognized names
    /// land under `unknown`).
    fn ops(&self) -> BTreeMap<String, u64> {
        self.ops
            .iter()
            .filter(|(_, (count, _))| count.get() > 0)
            .map(|(&op, (count, _))| (op.to_string(), count.get()))
            .collect()
    }
}

struct Started {
    backend: Backend,
    /// Stream shape, cached at install so request parsing needs no
    /// engine lock.
    d: u32,
    q: u32,
}

/// Replica-role bookkeeping: where snapshots come from, how many swaps
/// landed or failed, and what the last applied epoch looks like. Present
/// only on dispatchers serving in `--replica-of` mode.
struct ReplicaState {
    sources: Vec<PathBuf>,
    applies: Arc<Counter>,
    failures: Arc<Counter>,
    epoch_gauge: Arc<Gauge>,
    lag_gauge: Arc<Gauge>,
    last: Mutex<ReplicaLast>,
}

#[derive(Default)]
struct ReplicaLast {
    epoch: u64,
    /// Per-source epochs folded into the applied snapshot.
    source_epochs: Vec<u64>,
    /// Modification time of the newest snapshot file applied — the
    /// writer-side timestamp replication lag is measured against.
    snapshot_mtime: Option<SystemTime>,
    applied: bool,
    last_error: Option<String>,
}

/// The shared protocol state machine: owns the backend, the counters, and
/// the shutdown-checkpoint path; `handle_line` is safe to call from many
/// session threads at once (ingest serializes inside the engine, queries
/// are wait-free against the published snapshot).
pub struct Dispatcher {
    started: RwLock<Option<Started>>,
    recorder: Arc<Recorder>,
    counters: ServerCounters,
    checkpoint_path: Option<PathBuf>,
    checkpointed: AtomicBool,
    /// `(workers, queue)` reported by `server_stats`; `(0, 0)` until the
    /// TCP layer announces its pool shape.
    pool_shape: RwLock<(usize, usize)>,
    /// Process start, for `process_uptime_seconds`.
    started_at: Instant,
    /// `process_uptime_seconds` gauge, refreshed on every metrics read.
    uptime: Arc<Gauge>,
    /// `Some` when serving as a read replica (set once at bind, before
    /// any session exists).
    replica: RwLock<Option<ReplicaState>>,
}

impl Dispatcher {
    /// A fresh dispatcher with no backend. `checkpoint_path` is where the
    /// `shutdown` op (and the TCP server's signal-driven shutdown) writes
    /// the durable state; `None` disables shutdown checkpointing.
    pub fn new(checkpoint_path: Option<PathBuf>) -> Self {
        let recorder = Arc::new(Recorder::new());
        let counters = ServerCounters::new(&recorder);
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        recorder.set_info(
            "build_info",
            &[
                ("version", env!("CARGO_PKG_VERSION")),
                ("statistics", "f0|frequency|heavy_hitters|l1_sample|fp"),
                ("cores", &cores.to_string()),
            ],
        );
        let uptime = recorder.gauge("process_uptime_seconds");
        Self {
            started: RwLock::new(None),
            recorder,
            counters,
            checkpoint_path,
            checkpointed: AtomicBool::new(false),
            pool_shape: RwLock::new((0, 0)),
            started_at: Instant::now(),
            uptime,
            replica: RwLock::new(None),
        }
    }

    /// Mark this dispatcher as a read replica fed from `sources` (snapshot
    /// directories): mutating ops (`start`, `ingest`, `snapshot`,
    /// `checkpoint`) answer the typed `read_only` rejection, and
    /// `replica_stats` reports replication health. Called once at bind,
    /// before any session is served.
    pub fn set_replica_sources(&self, sources: Vec<PathBuf>) {
        let state = ReplicaState {
            sources,
            applies: self.recorder.counter("replica_applies"),
            failures: self.recorder.counter("replica_apply_failures"),
            epoch_gauge: self.recorder.gauge("replica_epoch"),
            lag_gauge: self.recorder.gauge("replica_lag_ms"),
            last: Mutex::new(ReplicaLast::default()),
        };
        *self.replica.write().expect("replica lock") = Some(state);
    }

    /// Whether this dispatcher serves in read-replica mode.
    fn is_replica(&self) -> bool {
        self.replica.read().expect("replica lock").is_some()
    }

    /// Swap a freshly loaded snapshot in as the serving state (replica
    /// apply path). Tries the in-place [`Engine::install_snapshot`] swap
    /// first (keeps the warm answer cache); where that is not legal —
    /// first load, a non-increasing merged epoch, or a non-plain backend —
    /// it rebuilds a fresh engine around the snapshot. Returns the epoch
    /// now serving.
    ///
    /// # Errors
    /// The engine error, stringified, when the snapshot is incompatible
    /// with `cfg`; the previous state keeps serving untouched.
    pub fn adopt_snapshot(&self, snap: Snapshot, cfg: &EngineConfig) -> Result<u64, String> {
        let epoch = snap.epoch();
        let snap = Arc::new(snap);
        let swapped = self.with_live_backend(|b| {
            b.plain()
                .is_some_and(|e| e.install_snapshot(Arc::clone(&snap)).is_ok())
        });
        if swapped == Some(true) {
            return Ok(epoch);
        }
        let (engine, q) = Engine::from_snapshot(snap, cfg.clone(), Arc::clone(&self.recorder))
            .map_err(|e| e.to_string())?;
        self.install(Backend::Plain(engine), q);
        Ok(epoch)
    }

    /// Record a successful replica apply (watcher thread): bump counters,
    /// publish the epoch and lag gauges, clear any sticky error.
    pub fn record_replica_apply(
        &self,
        epoch: u64,
        source_epochs: Vec<u64>,
        snapshot_mtime: Option<SystemTime>,
    ) {
        let guard = self.replica.read().expect("replica lock");
        let Some(state) = guard.as_ref() else {
            return;
        };
        state.applies.inc();
        state.epoch_gauge.set(epoch);
        if let Some(ms) = snapshot_mtime.and_then(lag_ms_since) {
            state.lag_gauge.set(ms);
        }
        let mut last = state.last.lock().expect("replica last lock");
        last.epoch = epoch;
        last.source_epochs = source_epochs;
        last.snapshot_mtime = snapshot_mtime;
        last.applied = true;
        last.last_error = None;
    }

    /// Record a failed replica apply (truncated/corrupt/incompatible
    /// snapshot): bump the failure counter and write a typed slow-log
    /// entry. The previously applied epoch keeps serving.
    pub fn record_replica_failure(&self, file: &str, error: &str) {
        let guard = self.replica.read().expect("replica lock");
        let Some(state) = guard.as_ref() else {
            return;
        };
        state.failures.inc();
        state.last.lock().expect("replica last lock").last_error = Some(error.to_string());
        self.recorder.slow_log().note(
            "replica",
            vec![
                ("code".to_string(), "replica_apply_failed".to_string()),
                ("file".to_string(), file.to_string()),
                ("error".to_string(), error.to_string()),
            ],
        );
    }

    /// Response body for the `replica_stats` op.
    fn replica_stats_op(&self) -> Json {
        let guard = self.replica.read().expect("replica lock");
        let Some(state) = guard.as_ref() else {
            return Json::obj([("ok", Json::Bool(true)), ("replica", Json::Bool(false))]);
        };
        let last = state.last.lock().expect("replica last lock");
        let lag = last.snapshot_mtime.and_then(lag_ms_since);
        if let Some(ms) = lag {
            state.lag_gauge.set(ms);
        }
        Json::obj([
            ("ok", Json::Bool(true)),
            ("replica", Json::Bool(true)),
            (
                "sources",
                Json::Arr(
                    state
                        .sources
                        .iter()
                        .map(|p| Json::Str(p.display().to_string()))
                        .collect(),
                ),
            ),
            (
                "epoch",
                if last.applied {
                    Json::Num(last.epoch as f64)
                } else {
                    Json::Null
                },
            ),
            (
                "source_epochs",
                Json::Arr(
                    last.source_epochs
                        .iter()
                        .map(|&e| Json::Num(e as f64))
                        .collect(),
                ),
            ),
            ("applies", Json::Num(state.applies.get() as f64)),
            ("failures", Json::Num(state.failures.get() as f64)),
            (
                "lag_ms",
                lag.map(|ms| Json::Num(ms as f64)).unwrap_or(Json::Null),
            ),
            (
                "last_error",
                last.last_error
                    .as_ref()
                    .map(|e| Json::Str(e.clone()))
                    .unwrap_or(Json::Null),
            ),
        ])
    }

    /// Install a pre-built backend (e.g. one resumed from a checkpoint by
    /// the CLI) so sessions can query immediately without a `start` op.
    /// `q` is the stream alphabet — it scopes wire-level answer encoding
    /// exactly as the `start` op's `q` parameter does. A later `start`
    /// op replaces the installed backend, same as restarting.
    ///
    /// For metrics to flow into this dispatcher's registry, build the
    /// backend with [`recorder`](Self::recorder) (the `*_with_recorder`
    /// engine constructors).
    pub fn install(&self, backend: Backend, q: u32) {
        let d = backend.dimension();
        *self.started.write().expect("backend lock") = Some(Started { backend, d, q });
    }

    /// Announce the worker-pool shape reported by `server_stats`.
    pub fn set_pool_shape(&self, workers: usize, queue: usize) {
        *self.pool_shape.write().expect("pool shape lock") = (workers, queue);
    }

    /// The live counters (the TCP layer increments the connection ones).
    pub fn counters(&self) -> &ServerCounters {
        &self.counters
    }

    /// The shared metrics registry: server, engine, and window series all
    /// live here (the `start` op threads it into whichever backend it
    /// builds), so `metrics`, `slow_log`, and the Prometheus endpoint
    /// expose one coherent view.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// Mirror backend-derived values into their gauges so a metrics read
    /// reflects the live state, not the state at the last `stats` call.
    fn sync_gauges(&self) {
        self.uptime.set(self.started_at.elapsed().as_secs());
        self.with_live_backend(|b| b.stats());
    }

    /// The full registry in Prometheus text-exposition format (metric
    /// prefix `pfe`), gauges synced first. This is what the optional
    /// `--metrics` HTTP endpoint serves.
    pub fn render_prometheus(&self) -> String {
        self.sync_gauges();
        self.recorder.render_prometheus("pfe")
    }

    /// Handle one request line: parse, count, dispatch, and answer. Never
    /// panics on malformed input — every failure is an `"ok":false`
    /// response.
    pub fn handle_line(&self, line: &str) -> Reply {
        self.handle_line_with_session(line, None)
    }

    /// [`handle_line`](Self::handle_line) with the transport's session id
    /// attached: the request's `session` root span carries it, so a span
    /// tree names the TCP connection it was served on. Pipe mode and
    /// tests pass `None`.
    pub fn handle_line_with_session(&self, line: &str, session: Option<u64>) -> Reply {
        self.counters.in_flight.add(1);
        let reply = self.handle_inner(line, session);
        self.counters.in_flight.sub(1);
        self.counters.requests_handled.inc();
        reply
    }

    fn handle_inner(&self, line: &str, session: Option<u64>) -> Reply {
        let req = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => return Reply::cont(err(e.to_string())),
        };
        let op = match req.get("op").and_then(Json::as_str) {
            Some(op) => op.to_string(),
            None => return Reply::cont(err("missing 'op'")),
        };
        // Resolve the op to its interned name so per-op labels (metric
        // handles, trace attrs) borrow 'static strings.
        let canonical: &'static str = OPS.iter().copied().find(|o| *o == op).unwrap_or("unknown");
        let ctx = match trace_context_from(&req) {
            Ok(ctx) => ctx,
            Err(e) => return Reply::cont(e),
        };
        // Per-request trace: a `session` root span (one per request,
        // carrying the connection id) over a `dispatch` span the op
        // handlers hang their stage spans under. Disabled (all no-ops)
        // when `--trace-sample 0` turned tracing off and the client sent
        // no context.
        let trace = self.recorder.begin_trace(ctx);
        let mut session_span = trace.span("session");
        if session_span.is_enabled() {
            session_span.attr("transport", if session.is_some() { "tcp" } else { "pipe" });
            if let Some(id) = session {
                session_span.attr("session", id);
            }
        }
        let dispatch_parent = session_span.handle();
        let mut dispatch_span = dispatch_parent.span("dispatch");
        dispatch_span.attr(
            "op",
            if canonical == op {
                AttrValue::Str(canonical)
            } else {
                AttrValue::Text(op.clone())
            },
        );
        let stage_trace = dispatch_span.handle();
        let (count, latency) = self.counters.op_handles(canonical);
        count.inc();
        let begin = Instant::now();
        let mut reply = match self.dispatch(&op, &req, &stage_trace) {
            Ok(reply) => reply,
            Err(json) => Reply::cont(json),
        };
        let elapsed = begin.elapsed();
        drop(dispatch_span);
        drop(session_span);
        // Release the derived handles so `finish` holds the last
        // reference and can drain the trace without locking.
        drop(stage_trace);
        drop(dispatch_parent);
        latency.record_duration(elapsed);
        let logged = self
            .recorder
            .slow_log()
            .record(&format!("op:{canonical}"), elapsed, || {
                let mut detail = vec![("op".to_string(), op.clone())];
                if let Some(id) = trace.trace_id() {
                    detail.push(("trace_id".to_string(), TraceContext::format_id(id)));
                }
                detail
            });
        if logged {
            trace.mark_slow();
        }
        // Echo the trace id on the reply when the client asked for the
        // trace (supplied its id) or the request turned out slow — the
        // two cases where the caller will want to drill in. Fast
        // server-initiated traces skip the echo: the extra wire field
        // costs more than the whole span-recording path, and those ids
        // stay discoverable via `{"op":"trace","last":N}` and the slow
        // log.
        if trace.client_supplied() || trace.is_slow() {
            if let Some(id) = trace.trace_id() {
                if let Json::Obj(map) = &mut reply.json {
                    if !map.contains_key("trace_id") {
                        map.insert(
                            "trace_id".to_string(),
                            Json::Str(TraceContext::format_id(id)),
                        );
                    }
                }
            }
        }
        self.recorder.trace_store().finish(trace);
        reply
    }

    /// Run `f` against the live backend; `None` when none is installed.
    pub(crate) fn with_live_backend<T>(&self, f: impl FnOnce(&Backend) -> T) -> Option<T> {
        let guard = self.started.read().expect("backend lock");
        guard.as_ref().map(|s| f(&s.backend))
    }

    fn with_backend<T>(&self, f: impl FnOnce(&Started) -> Result<T, Json>) -> Result<T, Json> {
        let guard = self.started.read().expect("backend lock");
        match guard.as_ref() {
            Some(s) => f(s),
            None => Err(err("no engine: send 'start' first")),
        }
    }

    /// Serve one statistic request through the canonical query types.
    fn serve_query(&self, req: &Json, trace: &TraceHandle) -> Result<Json, Json> {
        let query = wire::query_from_json(req).map_err(err)?;
        self.with_backend(|s| {
            let answer = s
                .backend
                .query_batch_traced(std::slice::from_ref(&query), trace)
                .pop()
                .expect("one answer per query")
                .map_err(|e| err(e.to_string()))?;
            Ok(wire::answer_to_json(&answer, s.q))
        })
    }

    /// Serve a whole batch through the mask-sharing planner; per-query
    /// failures — parse errors included — come back as error objects in
    /// their slots, never batch-fatal.
    fn serve_batch(&self, req: &Json, trace: &TraceHandle) -> Result<Json, Json> {
        let items = req
            .get("queries")
            .and_then(Json::as_arr)
            .ok_or_else(|| err("missing 'queries'"))?;
        let parsed: Vec<Result<Query, Json>> = items
            .iter()
            .map(|item| {
                wire::query_from_json(item).map_err(|e| {
                    // Echo an unrecognized statistic op by name; other
                    // parse failures keep their field-naming message.
                    match item.get("op").and_then(Json::as_str) {
                        Some(op) if e.contains("unknown statistic op") => {
                            err_unknown_op(op, "statistic")
                        }
                        _ => err(e),
                    }
                })
            })
            .collect();
        let valid: Vec<Query> = parsed.iter().filter_map(|p| p.clone().ok()).collect();
        self.with_backend(|s| {
            let mut served = s.backend.query_batch_traced(&valid, trace).into_iter();
            let answers = parsed
                .iter()
                .map(|p| match p {
                    Err(e) => e.clone(),
                    Ok(_) => match served.next().expect("one answer per valid query") {
                        Ok(answer) => wire::answer_to_json(&answer, s.q),
                        Err(e) => err(e.to_string()),
                    },
                })
                .collect();
            Ok(Json::obj([
                ("ok", Json::Bool(true)),
                ("answers", Json::Arr(answers)),
            ]))
        })
    }

    fn start(&self, req: &Json) -> Result<Json, Json> {
        known_fields(
            req,
            "start",
            &[
                "op", "trace", "d", "q", "shards", "alpha", "sample_t", "kmv_k", "seed", "fp",
                "slow_ms", "window",
            ],
        )?;
        let (mut d, mut q) = (0u32, 2u32);
        set_uint(req, "d", &mut d)?;
        set_uint(req, "q", &mut q)?;
        let mut cfg = EngineConfig::default();
        set_uint(req, "shards", &mut cfg.shards)?;
        match req.get("alpha") {
            None | Some(Json::Null) => {}
            Some(a) => cfg.alpha = a.as_f64().ok_or_else(|| err("'alpha' must be a number"))?,
        }
        set_uint(req, "sample_t", &mut cfg.sample_t)?;
        set_uint(req, "kmv_k", &mut cfg.kmv_k)?;
        set_uint(req, "seed", &mut cfg.seed)?;
        match req.get("fp") {
            None | Some(Json::Null) => {}
            Some(fp) => {
                known_fields(
                    fp,
                    "fp",
                    &["orders", "stable_t", "ams_groups", "ams_per_group"],
                )?;
                let orders = fp
                    .get("orders")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| err("'fp' requires an 'orders' array"))?
                    .iter()
                    .map(|v| v.as_f64().ok_or_else(|| err("'orders' must be numbers")))
                    .collect::<Result<Vec<f64>, Json>>()?;
                let mut fp_cfg = pfe_engine::FpConfig::with_orders(orders);
                set_uint(fp, "stable_t", &mut fp_cfg.stable_t)?;
                set_uint(fp, "ams_groups", &mut fp_cfg.ams_groups)?;
                set_uint(fp, "ams_per_group", &mut fp_cfg.ams_per_group)?;
                cfg.fp = Some(fp_cfg);
            }
        }
        if let Some(ms) = wire::uint(req, "slow_ms").map_err(err)? {
            self.recorder.slow_log().set_threshold_ms(ms);
        }
        let wcfg = match req.get("window") {
            None | Some(Json::Null) => None,
            Some(win) => {
                known_fields(
                    win,
                    "window",
                    &["bucket_rows", "tier_cap", "max_tiers", "merged_cache"],
                )?;
                let mut wcfg = WindowConfig::default();
                set_uint(win, "bucket_rows", &mut wcfg.bucket_rows)?;
                set_uint(win, "tier_cap", &mut wcfg.tier_cap)?;
                set_uint(win, "max_tiers", &mut wcfg.max_tiers)?;
                set_uint(win, "merged_cache", &mut wcfg.merged_cache)?;
                Some(wcfg)
            }
        };
        let backend = Backend::start(d, q, cfg, wcfg, Arc::clone(&self.recorder))
            .map_err(|e| err(e.to_string()))?;
        // Last start wins (operator action): sessions already in flight
        // keep their answers consistent — the swap happens between
        // requests, never inside one.
        self.install(backend, q);
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("windowed", Json::Bool(wcfg.is_some())),
        ]))
    }

    /// Response body for the `server_stats` op.
    fn server_stats(&self) -> Json {
        let (workers, queue) = *self.pool_shape.read().expect("pool shape lock");
        let c = &self.counters;
        let engine = self
            .with_live_backend(|b| wire::stats_to_json(&b.stats()))
            .unwrap_or(Json::Null);
        Json::obj([
            ("ok", Json::Bool(true)),
            (
                "connections_accepted",
                Json::Num(c.connections_accepted.get() as f64),
            ),
            (
                "connections_open",
                Json::Num(c.connections_open.get() as f64),
            ),
            (
                "rejected_saturated",
                Json::Num(c.rejected_saturated.get() as f64),
            ),
            (
                "requests_handled",
                Json::Num(c.requests_handled.get() as f64),
            ),
            ("in_flight", Json::Num(c.in_flight.get() as f64)),
            ("workers", Json::Num(workers as f64)),
            ("queue_capacity", Json::Num(queue as f64)),
            (
                "ops",
                Json::Obj(
                    c.ops()
                        .into_iter()
                        .map(|(k, v)| (k, Json::Num(v as f64)))
                        .collect(),
                ),
            ),
            ("engine", engine),
        ])
    }

    /// Response body for the `metrics` op: the full registry as JSON, or
    /// Prometheus text exposition when the request carries
    /// `"format":"prometheus"`.
    fn metrics_op(&self, req: &Json) -> Json {
        if req.get("format").and_then(Json::as_str) == Some("prometheus") {
            return Json::obj([
                ("ok", Json::Bool(true)),
                ("format", Json::Str("prometheus".to_string())),
                ("text", Json::Str(self.render_prometheus())),
            ]);
        }
        self.sync_gauges();
        let counters: BTreeMap<String, Json> = self
            .recorder
            .counters_snapshot()
            .into_iter()
            .map(|(k, v)| (k, Json::Num(v as f64)))
            .collect();
        let gauges: BTreeMap<String, Json> = self
            .recorder
            .gauges_snapshot()
            .into_iter()
            .map(|(k, v)| (k, Json::Num(v as f64)))
            .collect();
        let histograms: BTreeMap<String, Json> = self
            .recorder
            .histograms_snapshot()
            .into_iter()
            .map(|(k, s)| {
                (
                    k,
                    Json::obj([
                        ("count", Json::Num(s.count as f64)),
                        ("sum", Json::Num(s.sum as f64)),
                        ("max", Json::Num(s.max as f64)),
                        ("p50", Json::Num(s.p50 as f64)),
                        ("p90", Json::Num(s.p90 as f64)),
                        ("p99", Json::Num(s.p99 as f64)),
                    ]),
                )
            })
            .collect();
        let info: BTreeMap<String, Json> = self
            .recorder
            .infos_snapshot()
            .into_iter()
            .map(|(name, labels)| {
                (
                    name,
                    Json::Obj(labels.into_iter().map(|(k, v)| (k, Json::Str(v))).collect()),
                )
            })
            .collect();
        Json::obj([
            ("ok", Json::Bool(true)),
            ("counters", Json::Obj(counters)),
            ("gauges", Json::Obj(gauges)),
            ("histograms", Json::Obj(histograms)),
            ("info", Json::Obj(info)),
        ])
    }

    /// Response body for the `slow_log` op: optionally set the threshold,
    /// then return the retained entries (oldest first).
    fn slow_log_op(&self, req: &Json) -> Result<Json, Json> {
        let log = self.recorder.slow_log();
        if let Some(ms) = wire::uint(req, "threshold_ms").map_err(err)? {
            log.set_threshold_ms(ms);
        }
        let entries: Vec<Json> = log
            .entries()
            .into_iter()
            .map(|e| {
                let detail: BTreeMap<String, Json> = e
                    .detail
                    .into_iter()
                    .map(|(k, v)| (k, Json::Str(v)))
                    .collect();
                Json::obj([
                    ("what", Json::Str(e.what)),
                    ("micros", Json::Num(e.micros as f64)),
                    ("detail", Json::Obj(detail)),
                ])
            })
            .collect();
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("threshold_ms", Json::Num(log.threshold_ms() as f64)),
            ("entries", Json::Arr(entries)),
        ]))
    }

    /// Response body for the `set_slow_ms` op: retune the slow-log
    /// threshold on a live server (0 disables capture).
    fn set_slow_ms_op(&self, req: &Json) -> Result<Json, Json> {
        let ms = wire::uint(req, "ms")
            .map_err(err)?
            .ok_or_else(|| err("missing 'ms'"))?;
        self.recorder.slow_log().set_threshold_ms(ms);
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("threshold_ms", Json::Num(ms as f64)),
        ]))
    }

    /// Response body for the `trace` op: fetch one retained trace by id,
    /// or the last `n` completed traces, as span trees — or as Chrome
    /// trace-event JSON when the request carries `"format":"chrome"`.
    fn trace_op(&self, req: &Json) -> Result<Json, Json> {
        let store = self.recorder.trace_store();
        let selected: Vec<CompletedTrace> = match req.get("id").and_then(Json::as_str) {
            Some(s) => {
                let id = TraceContext::parse_id(s)
                    .ok_or_else(|| err(format!("bad trace id '{s}': expected hex")))?;
                store
                    .lookup(id)
                    .map(|t| vec![t])
                    .ok_or_else(|| err(format!("no retained trace with id '{s}'")))?
            }
            None => {
                let n = wire::uint(req, "last").map_err(err)?.unwrap_or(8);
                store.last(usize::try_from(n).unwrap_or(usize::MAX))
            }
        };
        if req.get("format").and_then(Json::as_str) == Some("chrome") {
            let text = chrome_trace_json(&selected);
            let events = Json::parse(&text).expect("chrome trace JSON is well-formed");
            return Ok(Json::obj([
                ("ok", Json::Bool(true)),
                ("format", Json::Str("chrome".to_string())),
                ("events", events),
            ]));
        }
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            (
                "traces",
                Json::Arr(selected.iter().map(trace_to_json).collect()),
            ),
        ]))
    }

    /// Write the shutdown checkpoint (configured path) exactly once —
    /// called by the transport *after* sessions drain, so acknowledged
    /// requests are always included. Returns the path written, `None`
    /// when unconfigured, no backend is live, or an earlier call already
    /// checkpointed.
    ///
    /// # Errors
    /// The persistence error, stringified for the wire.
    pub fn shutdown_checkpoint(&self) -> Result<Option<PathBuf>, String> {
        let Some(path) = self.checkpoint_path.clone() else {
            return Ok(None);
        };
        if self.checkpointed.swap(true, Ordering::SeqCst) {
            return Ok(None);
        }
        match self.with_live_backend(|b| b.checkpoint(&path)) {
            Some(written) => written.map(|()| Some(path)).map_err(|e| e.to_string()),
            None => Ok(None),
        }
    }

    fn checkpoint_op(&self, req: &Json) -> Result<Json, Json> {
        let path: PathBuf = match req.get("path").and_then(Json::as_str) {
            Some(p) => PathBuf::from(p),
            None => self
                .checkpoint_path
                .clone()
                .ok_or_else(|| err("no checkpoint path: pass 'path' or configure one"))?,
        };
        self.with_backend(|s| {
            s.backend
                .checkpoint(&path)
                .map_err(|e| err(e.to_string()))?;
            Ok(Json::obj([
                ("ok", Json::Bool(true)),
                ("path", Json::Str(path.display().to_string())),
            ]))
        })
    }

    fn dispatch(&self, op: &str, req: &Json, trace: &TraceHandle) -> Result<Reply, Json> {
        // A replica's state is whatever the writer shipped: the mutating
        // ops are rejected up front with a typed error. (`snapshot` is
        // mutating here — republishing the local pipeline would clobber
        // the swapped-in snapshot with the stale base it was built on.)
        if matches!(op, "start" | "ingest" | "snapshot" | "checkpoint") && self.is_replica() {
            return Err(err_read_only(op));
        }
        match op {
            "start" => self.start(req).map(Reply::cont),
            "ingest" => {
                let rows = req
                    .get("rows")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| err("missing 'rows'"))?;
                // All or nothing: arity and symbol range are checked while
                // the rows are flattened, the alphabet by the engine's
                // whole-chunk check — so every rejection happens before
                // anything is routed, and `rows_ingested` is always 0.
                let rejected = |msg: String| {
                    Json::obj([
                        ("ok", Json::Bool(false)),
                        ("error", Json::Str(msg)),
                        ("rows_ingested", Json::Num(0.0)),
                    ])
                };
                self.with_backend(|s| {
                    let flat = wire::dense_rows(rows, s.d as usize).map_err(rejected)?;
                    let mut ingest_span = trace.span("ingest");
                    ingest_span.attr("rows", rows.len());
                    s.backend
                        .push_dense_batch(&flat, &ingest_span.handle())
                        .map_err(|e| rejected(e.to_string()))?;
                    Ok(Reply::cont(Json::obj([
                        ("ok", Json::Bool(true)),
                        ("rows", Json::Num(rows.len() as f64)),
                    ])))
                })
            }
            "snapshot" => self.with_backend(|s| {
                let (epoch, rows) = s.backend.publish().map_err(|e| err(e.to_string()))?;
                let mut fields = vec![("ok", Json::Bool(true)), ("rows", Json::Num(rows as f64))];
                fields.extend(epoch.map(|e| ("epoch", Json::Num(e as f64))));
                Ok(Reply::cont(Json::obj(fields)))
            }),
            "f0" | "frequency" | "heavy_hitters" | "l1_sample" | "fp" => {
                self.serve_query(req, trace).map(Reply::cont)
            }
            "batch" => self.serve_batch(req, trace).map(Reply::cont),
            "stats" => self
                .with_backend(|s| Ok(wire::stats_to_json(&s.backend.stats())))
                .map(Reply::cont),
            "window_stats" => self
                .with_backend(|s| {
                    let stats = s.backend.window_stats().ok_or_else(|| {
                        err("window_stats requires a windowed engine: start with a 'window' object")
                    })?;
                    Ok(window_wire::window_stats_to_json(&stats))
                })
                .map(Reply::cont),
            "server_stats" => Ok(Reply::cont(self.server_stats())),
            "metrics" => Ok(Reply::cont(self.metrics_op(req))),
            "slow_log" => self.slow_log_op(req).map(Reply::cont),
            "set_slow_ms" => self.set_slow_ms_op(req).map(Reply::cont),
            "trace" => self.trace_op(req).map(Reply::cont),
            "replica_stats" => Ok(Reply::cont(self.replica_stats_op())),
            "checkpoint" => self.checkpoint_op(req).map(Reply::cont),
            // The checkpoint itself is NOT written here: it happens after
            // every session drains (`Server::run`, or the pipe-mode loop),
            // so rows acknowledged by in-flight ingests during the drain
            // window are always included. The reply announces the path the
            // drain will write.
            "shutdown" => Ok(Reply {
                json: Json::obj([
                    ("ok", Json::Bool(true)),
                    ("shutdown", Json::Bool(true)),
                    (
                        "checkpoint",
                        self.checkpoint_path
                            .as_ref()
                            .map(|p| Json::Str(p.display().to_string()))
                            .unwrap_or(Json::Null),
                    ),
                ]),
                control: Control::ShutdownServer,
            }),
            "quit" => Ok(Reply {
                json: Json::obj([("ok", Json::Bool(true)), ("bye", Json::Bool(true))]),
                control: Control::CloseSession,
            }),
            other => Err(err_unknown_op(other, "request")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started() -> Dispatcher {
        let d = Dispatcher::new(None);
        let r = d.handle_line(r#"{"op":"start","d":8,"q":2,"shards":2,"sample_t":256,"kmv_k":32}"#);
        assert_eq!(r.json.get("ok"), Some(&Json::Bool(true)));
        d
    }

    #[test]
    fn every_match_arm_is_registered_in_ops() {
        // Any op the dispatcher serves must answer without the
        // unknown-op error; any name not in OPS must get it. This pins
        // the OPS registry to the match arms.
        let d = started();
        for op in OPS {
            let r = d.handle_line(&format!(r#"{{"op":"{op}"}}"#));
            assert_ne!(
                r.json.get("error").and_then(Json::as_str),
                Some(format!("unknown request op '{op}'").as_str()),
                "op '{op}' is listed in OPS but not dispatched"
            );
        }
        // The retired `freq` / `hh` aliases are unknown like any other.
        for op in ["definitely_not_an_op", "freq", "hh"] {
            let r = d.handle_line(&format!(r#"{{"op":"{op}","cols":[0],"phi":0.5}}"#));
            assert_eq!(r.json.get("op").and_then(Json::as_str), Some(op));
            assert_eq!(
                r.json.get("error").and_then(Json::as_str),
                Some(format!("unknown request op '{op}'").as_str())
            );
        }
    }

    #[test]
    fn lifecycle_and_errors() {
        let d = Dispatcher::new(None);
        // Before start, statistic ops are typed failures.
        let r = d.handle_line(r#"{"op":"f0","cols":[0]}"#);
        assert_eq!(r.json.get("ok"), Some(&Json::Bool(false)));
        // Unparseable JSON never panics.
        let r = d.handle_line("{nope");
        assert_eq!(r.json.get("ok"), Some(&Json::Bool(false)));
        let r = d.handle_line(r#"{"cols":[0]}"#);
        assert!(r.json.get("error").is_some());
        // Full happy path.
        let r = d.handle_line(r#"{"op":"start","d":8,"q":2,"shards":2}"#);
        assert_eq!(r.json.get("windowed"), Some(&Json::Bool(false)));
        d.handle_line(r#"{"op":"ingest","rows":[[0,1,0,0,1,0,1,1],[1,1,0,0,0,0,1,1]]}"#);
        let r = d.handle_line(r#"{"op":"snapshot"}"#);
        assert_eq!(r.json.get("rows").and_then(Json::as_f64), Some(2.0));
        let r = d.handle_line(r#"{"op":"f0","cols":[0,1,2]}"#);
        assert!(r.json.get("estimate").is_some());
        let r = d.handle_line(
            r#"{"op":"batch","queries":[{"op":"f0","cols":[0,1]},{"op":"bogus","cols":[0]},
                {"op":"f0","cols":[0,1],"windw":5}]}"#,
        );
        let answers = r
            .json
            .get("answers")
            .and_then(Json::as_arr)
            .expect("answers");
        assert_eq!(answers[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(answers[1].get("op").and_then(Json::as_str), Some("bogus"));
        // A misspelt option fails its own slot, not the batch.
        assert_eq!(
            answers[2].get("error").and_then(Json::as_str),
            Some("unknown 'f0' field 'windw'")
        );
        // quit closes the session, not the server.
        let r = d.handle_line(r#"{"op":"quit"}"#);
        assert!(matches!(r.control, Control::CloseSession));
        // stats and server_stats serve on the shared schema.
        let r = d.handle_line(r#"{"op":"stats"}"#);
        assert_eq!(
            r.json.get("rows_ingested").and_then(Json::as_f64),
            Some(2.0)
        );
        let r = d.handle_line(r#"{"op":"server_stats"}"#);
        assert!(r.json.get("ops").is_some());
        assert!(r
            .json
            .get("engine")
            .and_then(|e| e.get("rows_ingested"))
            .is_some());
    }

    #[test]
    fn fp_op_serves_with_guarantee_when_configured() {
        let d = Dispatcher::new(None);
        let r = d.handle_line(
            r#"{"op":"start","d":8,"q":2,"shards":2,"sample_t":256,"kmv_k":32,
                "fp":{"orders":[2.0,1.5],"stable_t":4,"ams_groups":3,"ams_per_group":4}}"#,
        );
        assert_eq!(r.json.get("ok"), Some(&Json::Bool(true)));
        for _ in 0..8 {
            d.handle_line(r#"{"op":"ingest","rows":[[0,1,0,0,1,0,1,1],[1,1,0,0,0,0,1,1]]}"#);
        }
        d.handle_line(r#"{"op":"snapshot"}"#);
        for p in ["2.0", "1.5"] {
            let r = d.handle_line(&format!(r#"{{"op":"fp","cols":[0,1],"p":{p}}}"#));
            assert_eq!(r.json.get("ok"), Some(&Json::Bool(true)), "p={p}");
            assert!(r.json.get("estimate").and_then(Json::as_f64).expect("num") > 0.0);
            let g = r.json.get("guarantee").expect("guarantee travels");
            assert_eq!(g.get("source").and_then(Json::as_str), Some("alpha_net"));
            assert!(g.get("alpha").and_then(Json::as_f64).expect("num") > 1.0);
        }
        // Unmaterialized order: typed per-request error, session stays up.
        let r = d.handle_line(r#"{"op":"fp","cols":[0,1],"p":0.7}"#);
        assert_eq!(r.json.get("ok"), Some(&Json::Bool(false)));
        // A malformed fp config is a typed start failure.
        let r = d.handle_line(r#"{"op":"start","d":8,"q":2,"fp":{"orders":[2.5]}}"#);
        assert_eq!(r.json.get("ok"), Some(&Json::Bool(false)));
        let r = d.handle_line(r#"{"op":"start","d":8,"q":2,"fp":{}}"#);
        assert_eq!(r.json.get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn windowed_backend_over_the_same_protocol() {
        let d = Dispatcher::new(None);
        let r = d.handle_line(
            r#"{"op":"start","d":8,"q":2,"window":{"bucket_rows":64,"tier_cap":2,"max_tiers":3}}"#,
        );
        assert_eq!(r.json.get("windowed"), Some(&Json::Bool(true)));
        for _ in 0..4 {
            d.handle_line(r#"{"op":"ingest","rows":[[0,1,0,0,1,0,1,1],[1,1,0,0,0,0,1,1]]}"#);
        }
        let r = d.handle_line(r#"{"op":"f0","cols":[0,1,2],"window":4}"#);
        let w = r.json.get("window").expect("coverage");
        assert_eq!(w.get("requested_rows").and_then(Json::as_f64), Some(4.0));
        let r = d.handle_line(r#"{"op":"window_stats"}"#);
        assert!(r.json.get("buckets_per_tier").is_some());
        // stats keeps the plain schema on windowed engines.
        let r = d.handle_line(r#"{"op":"stats"}"#);
        assert_eq!(
            r.json.get("rows_ingested").and_then(Json::as_f64),
            Some(8.0)
        );
    }

    #[test]
    fn rejected_ingest_ingests_nothing() {
        // A bad row in the middle of a request must not land the rows
        // before it: the whole request is checked before any is routed.
        let good = "[0,1,0,0,1,0,1,1]";
        for start in [
            r#"{"op":"start","d":8,"q":2,"shards":2}"#,
            r#"{"op":"start","d":8,"q":2,"window":{"bucket_rows":2}}"#,
        ] {
            let d = Dispatcher::new(None);
            d.handle_line(start);
            d.handle_line(&format!(r#"{{"op":"ingest","rows":[{good}]}}"#));
            let ingested = || {
                let stats = d.handle_line(r#"{"op":"stats"}"#).json;
                stats.get("rows_ingested").and_then(Json::as_f64)
            };
            assert_eq!(ingested(), Some(1.0));
            for (bad, names) in [
                ("[1,1,0]", "row 1: expected an array of d = 8 symbols"),
                ("[0,1,0,0,1,0,1,2]", "symbol 2 outside alphabet"),
                ("[0,1,0,0,1,0,1,0.5]", "row 1: symbols must be integers"),
            ] {
                let r = d.handle_line(&format!(
                    r#"{{"op":"ingest","rows":[{good},{bad},{good}]}}"#
                ));
                assert_eq!(r.json.get("ok"), Some(&Json::Bool(false)), "{start} {bad}");
                assert_eq!(ingested(), Some(1.0), "{start}: a prefix of {bad} landed");
                assert_eq!(
                    r.json.get("rows_ingested").and_then(Json::as_f64),
                    Some(0.0)
                );
                let error = r.json.get("error").and_then(Json::as_str).expect("error");
                assert!(error.contains(names), "{error}");
            }
            // The session is still healthy.
            let r = d.handle_line(&format!(r#"{{"op":"ingest","rows":[{good},{good}]}}"#));
            assert_eq!(r.json.get("rows").and_then(Json::as_f64), Some(2.0));
            assert_eq!(ingested(), Some(3.0));
        }
    }

    #[test]
    fn start_rejects_non_integer_parameters_by_name() {
        let d = Dispatcher::new(None);
        for (field, request) in [
            ("d", r#"{"op":"start","d":8.7}"#),
            ("d", r#"{"op":"start","d":-4}"#),
            ("d", r#"{"op":"start","d":"8"}"#),
            ("d", r#"{"op":"start","d":4294967304}"#),
            ("q", r#"{"op":"start","d":8,"q":2.5}"#),
            ("shards", r#"{"op":"start","d":8,"shards":1.9}"#),
            ("sample_t", r#"{"op":"start","d":8,"sample_t":-1}"#),
            ("kmv_k", r#"{"op":"start","d":8,"kmv_k":16.5}"#),
            ("seed", r#"{"op":"start","d":8,"seed":"x"}"#),
            ("slow_ms", r#"{"op":"start","d":8,"slow_ms":0.5}"#),
            (
                "stable_t",
                r#"{"op":"start","d":8,"fp":{"orders":[2.0],"stable_t":4.5}}"#,
            ),
            (
                "ams_groups",
                r#"{"op":"start","d":8,"fp":{"orders":[2.0],"ams_groups":-3}}"#,
            ),
            (
                "bucket_rows",
                r#"{"op":"start","d":8,"window":{"bucket_rows":63.9}}"#,
            ),
            (
                "max_tiers",
                r#"{"op":"start","d":8,"window":{"max_tiers":"3"}}"#,
            ),
            // A present, non-numeric alpha is an error, not the default.
            ("alpha", r#"{"op":"start","d":8,"q":2,"alpha":"0.3"}"#),
            // A field `start`, `fp` or `window` does not read is an error
            // naming it, not a parameter served at its default.
            ("kmvk", r#"{"op":"start","d":8,"q":2,"kmvk":64}"#),
            (
                "bucketrows",
                r#"{"op":"start","d":8,"q":2,"window":{"bucketrows":64}}"#,
            ),
            (
                "stablet",
                r#"{"op":"start","d":8,"fp":{"orders":[2.0],"stablet":4}}"#,
            ),
            ("window", r#"{"op":"start","d":8,"q":2,"window":64}"#),
        ] {
            let r = d.handle_line(request);
            assert_eq!(r.json.get("ok"), Some(&Json::Bool(false)), "{request}");
            let error = r.json.get("error").and_then(Json::as_str).expect("error");
            assert!(
                error.contains(&format!("'{field}'")),
                "{request}: error does not name '{field}': {error}"
            );
            let stats = d.handle_line(r#"{"op":"stats"}"#).json;
            assert_eq!(
                stats.get("error").and_then(Json::as_str),
                Some("no engine: send 'start' first"),
                "{request} started a backend"
            );
        }
        // Integral values written as floats are still integers, and the
        // documented non-parameter fields pass.
        let r = d.handle_line(
            r#"{"op":"start","d":8.0,"q":2,"shards":1,"alpha":0.3,"trace":"ab12","slow_ms":0}"#,
        );
        assert_eq!(r.json.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn shutdown_checkpoints_once_to_configured_path() {
        let dir = std::env::temp_dir().join("pfe-server-proto-shutdown");
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("proto-shutdown.pfes");
        std::fs::remove_file(&path).ok();
        let d = Dispatcher::new(Some(path.clone()));
        d.handle_line(r#"{"op":"start","d":8,"q":2,"shards":1}"#);
        d.handle_line(r#"{"op":"ingest","rows":[[0,1,0,0,1,0,1,1]]}"#);
        // The op announces the path but does NOT write it — the write
        // belongs to the transport's post-drain step, so rows ingested by
        // other sessions during the drain are never lost.
        let r = d.handle_line(r#"{"op":"shutdown"}"#);
        assert!(matches!(r.control, Control::ShutdownServer));
        assert_eq!(
            r.json.get("checkpoint").and_then(Json::as_str),
            Some(path.display().to_string().as_str())
        );
        assert!(!path.exists(), "the op itself must not checkpoint");
        // The transport's drain writes it exactly once.
        assert_eq!(d.shutdown_checkpoint(), Ok(Some(path.clone())));
        assert!(path.exists());
        assert_eq!(d.shutdown_checkpoint(), Ok(None), "second write is a no-op");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn protocol_doc_covers_every_registered_op() {
        // Belt and braces with scripts/check_protocol_docs.sh: the wire
        // reference must name every op the dispatcher serves.
        let doc = include_str!("../../../docs/PROTOCOL.md");
        for op in OPS {
            assert!(
                doc.contains(&format!("\"{op}\"")),
                "docs/PROTOCOL.md does not document op '{op}'"
            );
        }
    }

    #[test]
    fn metrics_op_serves_the_shared_registry() {
        let d = started();
        d.handle_line(r#"{"op":"ingest","rows":[[0,1,0,0,1,0,1,1]]}"#);
        d.handle_line(r#"{"op":"snapshot"}"#);
        d.handle_line(r#"{"op":"f0","cols":[0,1,2]}"#);
        let r = d.handle_line(r#"{"op":"metrics"}"#);
        assert_eq!(r.json.get("ok"), Some(&Json::Bool(true)));
        // Engine and server series live in one registry.
        let counters = r.json.get("counters").expect("counters");
        assert_eq!(
            counters.get("engine_queries_f0").and_then(Json::as_f64),
            Some(1.0)
        );
        assert_eq!(
            counters
                .get("server_op_requests_ingest")
                .and_then(Json::as_f64),
            Some(1.0)
        );
        // Gauges are synced from the live backend at read time.
        let gauges = r.json.get("gauges").expect("gauges");
        assert_eq!(
            gauges.get("engine_rows_ingested").and_then(Json::as_f64),
            Some(1.0)
        );
        // The latency histogram counted the query.
        let hist = r
            .json
            .get("histograms")
            .and_then(|h| h.get("engine_query_latency_ns_f0"))
            .expect("f0 latency histogram");
        assert_eq!(hist.get("count").and_then(Json::as_f64), Some(1.0));
        assert!(hist.get("p99").and_then(Json::as_f64).is_some());
        // Prometheus form is the same registry as text.
        let r = d.handle_line(r#"{"op":"metrics","format":"prometheus"}"#);
        let text = r.json.get("text").and_then(Json::as_str).expect("text");
        assert!(text.contains("# TYPE pfe_engine_queries_f0_total counter"));
        assert!(text.contains("pfe_engine_queries_f0_total 1"));
        assert!(text.contains("pfe_server_requests_handled_total"));
    }

    #[test]
    fn slow_log_op_sets_threshold_and_lists_entries() {
        let d = started();
        // Default: disabled, empty.
        let r = d.handle_line(r#"{"op":"slow_log"}"#);
        assert_eq!(r.json.get("threshold_ms").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            r.json
                .get("entries")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(0)
        );
        // Setting the threshold through the op sticks (and is shared with
        // the engine's slow log — one ring for the whole process).
        let r = d.handle_line(r#"{"op":"slow_log","threshold_ms":250}"#);
        assert_eq!(
            r.json.get("threshold_ms").and_then(Json::as_f64),
            Some(250.0)
        );
        assert_eq!(d.recorder().slow_log().threshold_ms(), 250);
        // `start` accepts slow_ms too.
        d.handle_line(r#"{"op":"start","d":8,"q":2,"shards":1,"slow_ms":9}"#);
        assert_eq!(d.recorder().slow_log().threshold_ms(), 9);
    }

    #[test]
    fn integer_fields_reject_what_is_not_a_nonnegative_integer() {
        let d = started();
        d.handle_line(r#"{"op":"set_slow_ms","ms":40}"#);
        for (op, field) in [
            ("set_slow_ms", "ms"),
            ("slow_log", "threshold_ms"),
            ("trace", "last"),
        ] {
            for bad in ["-1", "1.5", "\"5\""] {
                let r = d.handle_line(&format!(r#"{{"op":"{op}","{field}":{bad}}}"#));
                assert_eq!(
                    r.json.get("error").and_then(Json::as_str),
                    Some(format!("'{field}' must be a nonnegative integer").as_str()),
                    "{op} {field}={bad}"
                );
            }
        }
        // Nothing above moved the threshold (-1 used to disable the log).
        assert_eq!(d.recorder().slow_log().threshold_ms(), 40);
    }

    #[test]
    fn checkpoint_op_with_explicit_path() {
        let dir = std::env::temp_dir().join("pfe-server-proto-ckpt");
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("explicit.pfes");
        std::fs::remove_file(&path).ok();
        let d = started();
        d.handle_line(r#"{"op":"ingest","rows":[[0,1,0,0,1,0,1,1]]}"#);
        // No configured path and none given: typed error.
        let r = d.handle_line(r#"{"op":"checkpoint"}"#);
        assert_eq!(r.json.get("ok"), Some(&Json::Bool(false)));
        let r = d.handle_line(&format!(
            r#"{{"op":"checkpoint","path":"{}"}}"#,
            path.display()
        ));
        assert_eq!(r.json.get("ok"), Some(&Json::Bool(true)));
        assert!(path.exists());
        std::fs::remove_file(&path).ok();
    }
}
