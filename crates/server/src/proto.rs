//! The protocol dispatcher: one definition of the line-delimited JSON
//! surface, shared by stdin (pipe) mode, TCP sessions, and tests.
//!
//! The protocol is declared once, as the [`OPS`] table: each [`Op`] names
//! its wire op, says whether it writes (the read-replica rule), lists the
//! closed set of fields it reads and points at its handler. Dispatch, the
//! replica rejection, the unknown-field rejection, the per-op counters,
//! the `docs/PROTOCOL.md` drift test and the request fuzzer all read it.
//!
//! A [`Dispatcher`] owns the serving [`Backend`] (whole-stream or
//! sliding-window, selected by the `start` request — the dispatcher never
//! asks which) plus the server-level counters, and turns one request line
//! into one response [`Reply`]. Statistic requests and responses are
//! the canonical `pfe-query` types serialized by `pfe_engine::wire`, so
//! the Rust API, the cache keys, and every transport speak one language.
//! The full request/response reference lives in `docs/PROTOCOL.md`
//! (held to [`OPS`] by the unit test `protocol_doc_covers_every_registered_op`).
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

/// One wire op, as the [`OPS`] table declares it.
pub struct Op {
    /// The `"op"` value that selects it.
    pub name: &'static str,
    /// Whether it mutates serving state: a read replica answers it with
    /// the typed `read_only` rejection. (`snapshot` writes: republishing
    /// the local pipeline would clobber the swapped-in snapshot with the
    /// stale base it was built on.)
    pub writes: bool,
    /// The closed set of top-level fields it reads besides `op` and
    /// `trace`, which every op accepts: any other key is the typed error
    /// `unknown '<op>' field '<key>'`, never a field silently ignored.
    /// `None` for the statistic ops, whose set `wire::query_from_json`
    /// closes.
    pub fields: Option<&'static [&'static str]>,
    /// The handler, run once the checks above pass.
    serve: fn(&Dispatcher, &Json, &TraceHandle) -> Result<Reply, Json>,
}

/// The wire protocol, declared once: every op the dispatcher serves.
/// Dispatch, the replica rule, the closed field sets, the per-op counters
/// and the `docs/PROTOCOL.md` test all read this table; nothing else in
/// the server names an op.
#[rustfmt::skip]
pub const OPS: &[Op] = &[
    Op { name: "start", writes: true, serve: Dispatcher::start, fields: Some(&[
        "d", "q", "shards", "alpha", "sample_t", "kmv_k", "seed", "fp", "slow_ms", "window",
    ]) },
    Op { name: "ingest", writes: true, fields: Some(&["rows"]), serve: Dispatcher::ingest },
    Op { name: "snapshot", writes: true, fields: Some(&[]), serve: Dispatcher::snapshot },
    Op { name: "f0", writes: false, fields: None, serve: Dispatcher::serve_query },
    Op { name: "frequency", writes: false, fields: None, serve: Dispatcher::serve_query },
    Op { name: "heavy_hitters", writes: false, fields: None, serve: Dispatcher::serve_query },
    Op { name: "l1_sample", writes: false, fields: None, serve: Dispatcher::serve_query },
    Op { name: "fp", writes: false, fields: None, serve: Dispatcher::serve_query },
    Op { name: "batch", writes: false, fields: Some(&["queries"]), serve: Dispatcher::serve_batch },
    Op { name: "stats", writes: false, fields: Some(&[]), serve: Dispatcher::stats },
    Op { name: "window_stats", writes: false, fields: Some(&[]), serve: Dispatcher::window_stats },
    Op { name: "server_stats", writes: false, fields: Some(&[]), serve: Dispatcher::server_stats },
    Op { name: "metrics", writes: false, fields: Some(&["format"]), serve: Dispatcher::metrics },
    Op { name: "slow_log", writes: false, fields: Some(&["threshold_ms"]),
         serve: Dispatcher::slow_log },
    Op { name: "set_slow_ms", writes: false, fields: Some(&["ms"]), serve: Dispatcher::set_slow_ms },
    Op { name: "trace", writes: false, fields: Some(&["id", "last", "format"]),
         serve: Dispatcher::trace },
    Op { name: "replica_stats", writes: false, fields: Some(&[]), serve: Dispatcher::replica_stats },
    Op { name: "checkpoint", writes: true, fields: Some(&["path"]), serve: Dispatcher::checkpoint },
    Op { name: "shutdown", writes: false, fields: Some(&[]), serve: Dispatcher::shutdown },
    Op { name: "quit", writes: false, fields: Some(&[]), serve: Dispatcher::quit },
];

/// Build an `{"ok":false,"error":msg}` payload.
fn err(msg: impl Into<String>) -> Json {
    err_with(msg.into(), [])
}

/// An error payload with machine-matchable string fields (`"code"`,
/// `"op"`) beside the message, so clients need not parse it.
fn err_with<const N: usize>(msg: String, extra: [(&'static str, &str); N]) -> Json {
    let mut fields = vec![("ok", Json::Bool(false)), ("error", Json::Str(msg))];
    fields.extend(extra.map(|(k, v)| (k, Json::Str(v.to_string()))));
    Json::obj(fields)
}

/// Error payload for an unrecognized op name, the name echoed in `"op"`.
fn err_unknown_op(op: &str, context: &str) -> Json {
    err_with(format!("unknown {context} op '{op}'"), [("op", op)])
}

/// The typed saturation rejection a client receives when the worker pool
/// cannot take its connection (`"code":"saturated"`).
pub fn err_saturated(workers: usize, queue: usize) -> Json {
    let msg = format!(
        "server saturated: all {workers} workers busy and the \
         {queue}-connection queue is full; retry later"
    );
    err_with(msg, [("code", "saturated")])
}

/// The typed rejection a read-replica answers to any mutating op
/// (`"code":"read_only"`).
fn err_read_only(op: &str) -> Json {
    let msg = format!("replica is read-only: '{op}' must run on the writer");
    err_with(msg, [("code", "read_only"), ("op", op)])
}

/// The typed rejection for a request line over the configured cap
/// (`"code":"line_too_long"`). The session survives: the server discards
/// to the next newline and keeps answering.
pub fn err_line_too_long(limit: usize) -> Json {
    let msg = format!("request line exceeds the {limit}-byte cap; request discarded");
    err_with(msg, [("code", "line_too_long")])
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

/// `start`'s nested `fp` / `window` objects read closed sets too: a key of
/// `obj` outside `known` is a typed error naming it.
fn known_fields(obj: &Json, what: &str, known: &[&str]) -> Result<(), Json> {
    wire::known_fields(obj, what, |k| known.contains(&k)).map_err(err)
}

/// An optional string field: `Ok(None)` when absent or `null`; any other
/// value that is not a string is an error naming the field, never the
/// default.
fn opt_str<'a>(req: &'a Json, field: &str, what: &str) -> Result<Option<&'a str>, Json> {
    match req.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| err(format!("'{field}' must be {what}"))),
    }
}

/// Whether the request asks for `format`, the one alternative rendering
/// its op serves; any other `format` is an error, not the default.
fn wants_format(req: &Json, format: &str) -> Result<bool, Json> {
    match req.get("format") {
        None | Some(Json::Null) => Ok(false),
        Some(v) if v.as_str() == Some(format) => Ok(true),
        Some(_) => Err(err(format!("'format' must be \"{format}\""))),
    }
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
/// are pre-resolved for every op of [`OPS`] at construction — the hot
/// path never takes the registry lock.
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
        for op in OPS.iter().map(|op| op.name).chain(["unknown"]) {
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
    /// directories): the ops [`OPS`] declares as writes answer the typed
    /// `read_only` rejection, and `replica_stats` reports replication
    /// health. Called once at bind, before any session is served.
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

    /// The `replica_stats` op.
    fn replica_stats(&self, _: &Json, _: &TraceHandle) -> Result<Reply, Json> {
        let guard = self.replica.read().expect("replica lock");
        let Some(state) = guard.as_ref() else {
            return Ok(Reply::cont(Json::obj([
                ("ok", Json::Bool(true)),
                ("replica", Json::Bool(false)),
            ])));
        };
        let last = state.last.lock().expect("replica last lock");
        let lag = last.snapshot_mtime.and_then(lag_ms_since);
        if let Some(ms) = lag {
            state.lag_gauge.set(ms);
        }
        Ok(Reply::cont(Json::obj([
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
        ])))
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
        let name = match req.get("op").and_then(Json::as_str) {
            Some(name) => name.to_string(),
            None => return Reply::cont(err("missing 'op'")),
        };
        // Resolve the op once: its table entry names the per-op series
        // and trace label ('static strings) and decides what runs.
        let op = OPS.iter().find(|op| op.name == name);
        let canonical = op.map_or("unknown", |op| op.name);
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
            match op {
                Some(op) => AttrValue::Str(op.name),
                None => AttrValue::Text(name.clone()),
            },
        );
        let stage_trace = dispatch_span.handle();
        let (count, latency) = &self.counters.ops[canonical];
        count.inc();
        let begin = Instant::now();
        let mut reply = match op {
            Some(op) => self.serve(op, &req, &stage_trace),
            None => Err(err_unknown_op(&name, "request")),
        }
        .unwrap_or_else(Reply::cont);
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
                let mut detail = vec![("op".to_string(), name.clone())];
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

    /// Run a resolved op: a write on a replica and a field outside the
    /// op's closed set are typed rejections its handler never sees.
    fn serve(&self, op: &Op, req: &Json, trace: &TraceHandle) -> Result<Reply, Json> {
        if op.writes && self.replica.read().expect("replica lock").is_some() {
            return Err(err_read_only(op.name));
        }
        if let Some(fields) = op.fields {
            let known = |k: &str| k == "op" || k == "trace" || fields.contains(&k);
            wire::known_fields(req, op.name, known).map_err(err)?;
        }
        (op.serve)(self, req, trace)
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
    fn serve_query(&self, req: &Json, trace: &TraceHandle) -> Result<Reply, Json> {
        let query = wire::query_from_json(req).map_err(err)?;
        self.with_backend(|s| {
            let answer = s
                .backend
                .query_batch_traced(std::slice::from_ref(&query), trace)
                .pop()
                .expect("one answer per query")
                .map_err(|e| err(e.to_string()))?;
            Ok(Reply::cont(wire::answer_to_json(&answer, s.q)))
        })
    }

    /// Serve a whole batch through the mask-sharing planner; per-query
    /// failures — parse errors included — come back as error objects in
    /// their slots, never batch-fatal.
    fn serve_batch(&self, req: &Json, trace: &TraceHandle) -> Result<Reply, Json> {
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
            Ok(Reply::cont(Json::obj([
                ("ok", Json::Bool(true)),
                ("answers", Json::Arr(answers)),
            ])))
        })
    }

    fn start(&self, req: &Json, _: &TraceHandle) -> Result<Reply, Json> {
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
        Ok(Reply::cont(Json::obj([
            ("ok", Json::Bool(true)),
            ("windowed", Json::Bool(wcfg.is_some())),
        ])))
    }

    /// All or nothing: arity and symbol range are checked while the rows
    /// are flattened, the alphabet by the engine's whole-chunk check — so
    /// every rejection happens before anything is routed, and
    /// `rows_ingested` is always 0.
    fn ingest(&self, req: &Json, trace: &TraceHandle) -> Result<Reply, Json> {
        let rows = req
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or_else(|| err("missing 'rows'"))?;
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

    fn snapshot(&self, _: &Json, _: &TraceHandle) -> Result<Reply, Json> {
        self.with_backend(|s| {
            let (epoch, rows) = s.backend.publish().map_err(|e| err(e.to_string()))?;
            let mut fields = vec![("ok", Json::Bool(true)), ("rows", Json::Num(rows as f64))];
            fields.extend(epoch.map(|e| ("epoch", Json::Num(e as f64))));
            Ok(Reply::cont(Json::obj(fields)))
        })
    }

    fn stats(&self, _: &Json, _: &TraceHandle) -> Result<Reply, Json> {
        self.with_backend(|s| Ok(Reply::cont(wire::stats_to_json(&s.backend.stats()))))
    }

    fn window_stats(&self, _: &Json, _: &TraceHandle) -> Result<Reply, Json> {
        self.with_backend(|s| {
            let stats = s.backend.window_stats().ok_or_else(|| {
                err("window_stats requires a windowed engine: start with a 'window' object")
            })?;
            Ok(Reply::cont(window_wire::window_stats_to_json(&stats)))
        })
    }

    /// The `server_stats` op.
    fn server_stats(&self, _: &Json, _: &TraceHandle) -> Result<Reply, Json> {
        let (workers, queue) = *self.pool_shape.read().expect("pool shape lock");
        let c = &self.counters;
        let engine = self
            .with_live_backend(|b| wire::stats_to_json(&b.stats()))
            .unwrap_or(Json::Null);
        Ok(Reply::cont(Json::obj([
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
        ])))
    }

    /// The `metrics` op: the full registry as JSON, or Prometheus text
    /// exposition when the request carries `"format":"prometheus"`.
    fn metrics(&self, req: &Json, _: &TraceHandle) -> Result<Reply, Json> {
        if wants_format(req, "prometheus")? {
            return Ok(Reply::cont(Json::obj([
                ("ok", Json::Bool(true)),
                ("format", Json::Str("prometheus".to_string())),
                ("text", Json::Str(self.render_prometheus())),
            ])));
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
        Ok(Reply::cont(Json::obj([
            ("ok", Json::Bool(true)),
            ("counters", Json::Obj(counters)),
            ("gauges", Json::Obj(gauges)),
            ("histograms", Json::Obj(histograms)),
            ("info", Json::Obj(info)),
        ])))
    }

    /// The `slow_log` op: optionally set the threshold, then return the
    /// retained entries (oldest first).
    fn slow_log(&self, req: &Json, _: &TraceHandle) -> Result<Reply, Json> {
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
        Ok(Reply::cont(Json::obj([
            ("ok", Json::Bool(true)),
            ("threshold_ms", Json::Num(log.threshold_ms() as f64)),
            ("entries", Json::Arr(entries)),
        ])))
    }

    /// The `set_slow_ms` op: retune the slow-log threshold on a live
    /// server (0 disables capture).
    fn set_slow_ms(&self, req: &Json, _: &TraceHandle) -> Result<Reply, Json> {
        let ms = wire::uint(req, "ms")
            .map_err(err)?
            .ok_or_else(|| err("missing 'ms'"))?;
        self.recorder.slow_log().set_threshold_ms(ms);
        Ok(Reply::cont(Json::obj([
            ("ok", Json::Bool(true)),
            ("threshold_ms", Json::Num(ms as f64)),
        ])))
    }

    /// The `trace` op: fetch one retained trace by id, or the last `n`
    /// completed traces, as span trees — or as Chrome trace-event JSON
    /// when the request carries `"format":"chrome"`.
    fn trace(&self, req: &Json, _: &TraceHandle) -> Result<Reply, Json> {
        let chrome = wants_format(req, "chrome")?;
        let store = self.recorder.trace_store();
        let selected: Vec<CompletedTrace> = match opt_str(req, "id", "a hex string")? {
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
        if chrome {
            let text = chrome_trace_json(&selected);
            let events = Json::parse(&text).expect("chrome trace JSON is well-formed");
            return Ok(Reply::cont(Json::obj([
                ("ok", Json::Bool(true)),
                ("format", Json::Str("chrome".to_string())),
                ("events", events),
            ])));
        }
        Ok(Reply::cont(Json::obj([
            ("ok", Json::Bool(true)),
            (
                "traces",
                Json::Arr(selected.iter().map(trace_to_json).collect()),
            ),
        ])))
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

    fn checkpoint(&self, req: &Json, _: &TraceHandle) -> Result<Reply, Json> {
        let path: PathBuf = match opt_str(req, "path", "a string")? {
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
            Ok(Reply::cont(Json::obj([
                ("ok", Json::Bool(true)),
                ("path", Json::Str(path.display().to_string())),
            ])))
        })
    }

    /// The checkpoint itself is NOT written here: it happens after every
    /// session drains (`Server::run`, or the pipe-mode loop), so rows
    /// acknowledged by in-flight ingests during the drain window are
    /// always included. The reply announces the path the drain will
    /// write.
    fn shutdown(&self, _: &Json, _: &TraceHandle) -> Result<Reply, Json> {
        Ok(Reply {
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
        })
    }

    fn quit(&self, _: &Json, _: &TraceHandle) -> Result<Reply, Json> {
        Ok(Reply {
            json: Json::obj([("ok", Json::Bool(true)), ("bye", Json::Bool(true))]),
            control: Control::CloseSession,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;

    fn started() -> Dispatcher {
        let d = Dispatcher::new(None);
        let r = d.handle_line(r#"{"op":"start","d":8,"q":2,"shards":2,"sample_t":256,"kmv_k":32}"#);
        assert_eq!(r.json.get("ok"), Some(&Json::Bool(true)));
        d
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
        // docs/PROTOCOL.md and OPS, read in both directions: exactly one
        // `### <op>` section under `## Ops` per table op and no other,
        // every `"op":"x"` example a table op, each closed-set op's
        // `**Fields:**` paragraph naming exactly the fields it declares,
        // and the replica paragraph naming exactly the ops that write.
        let doc = include_str!("../../../docs/PROTOCOL.md");
        let ops_part = doc.split("\n## Ops\n").nth(1).expect("an '## Ops' part");
        let ops_part = ops_part
            .split("\n## ")
            .next()
            .expect("split is never empty");
        let sections: Vec<(&str, &str)> = ops_part
            .split("\n### ")
            .skip(1)
            .map(|s| s.split_once('\n').unwrap_or((s, "")))
            .collect();
        for (heading, _) in &sections {
            assert!(
                OPS.iter().any(|op| op.name == *heading),
                "docs/PROTOCOL.md has '### {heading}', which OPS does not declare"
            );
        }
        for op in OPS {
            let mut named = sections.iter().filter(|(heading, _)| *heading == op.name);
            let (Some((_, body)), None) = (named.next(), named.next()) else {
                panic!(
                    "docs/PROTOCOL.md needs exactly one '### {}' section",
                    op.name
                );
            };
            let Some(declared) = op.fields else { continue };
            let para = body
                .split("\n\n")
                .find(|p| p.starts_with("**Fields:**"))
                .unwrap_or_else(|| panic!("'### {}' has no **Fields:** paragraph", op.name));
            let mut listed: Vec<&str> = para.split('`').skip(1).step_by(2).collect();
            let mut declared = declared.to_vec();
            listed.sort_unstable();
            declared.sort_unstable();
            assert_eq!(listed, declared, "'### {}' **Fields:** paragraph", op.name);
        }
        // The replica rule as the doc states it is the table's `writes`.
        let rule = doc
            .split("\n\n")
            .find(|p| p.starts_with("On a replica the mutating ops"))
            .expect("the replica paragraph");
        let named: Vec<&str> = rule.split('`').skip(1).step_by(2).collect();
        let mut writes: Vec<&str> = OPS
            .iter()
            .filter(|op| op.writes)
            .map(|op| op.name)
            .collect();
        writes.push("read_only");
        assert_eq!(
            named[..writes.len()],
            writes[..],
            "replica paragraph: {rule}"
        );
        for example in doc.split("\"op\":\"").skip(1) {
            let name = example.split('"').next().expect("split is never empty");
            if name
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
            {
                assert!(
                    OPS.iter().any(|op| op.name == name),
                    "docs/PROTOCOL.md sends op '{name}', which OPS does not declare"
                );
            }
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

    #[test]
    fn type_confused_fields_are_errors_not_defaults() {
        // Each of these used to be served as if the field were absent —
        // the first wrote the configured `--checkpoint` file.
        let dir = std::env::temp_dir().join("pfe-server-proto-typed");
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let configured = dir.join("configured.pfes");
        std::fs::remove_file(&configured).ok();
        let d = Dispatcher::new(Some(configured.clone()));
        d.handle_line(r#"{"op":"start","d":8,"q":2,"shards":1}"#);
        d.handle_line(r#"{"op":"ingest","rows":[[0,1,0,0,1,0,1,1]]}"#);
        for (request, error) in [
            (r#"{"op":"checkpoint","path":7}"#, "'path' must be a string"),
            (r#"{"op":"trace","id":12}"#, "'id' must be a hex string"),
            (
                r#"{"op":"metrics","format":"json"}"#,
                r#"'format' must be "prometheus""#,
            ),
            (
                r#"{"op":"trace","format":true}"#,
                r#"'format' must be "chrome""#,
            ),
        ] {
            let r = d.handle_line(request);
            assert_eq!(r.json.get("ok"), Some(&Json::Bool(false)), "{request}");
            assert_eq!(
                r.json.get("error").and_then(Json::as_str),
                Some(error),
                "{request}"
            );
        }
        assert!(!configured.exists(), "a non-string 'path' wrote the file");
    }

    #[test]
    fn every_op_rejects_a_field_it_does_not_declare() {
        let dir = std::env::temp_dir().join("pfe-server-proto-bogus");
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let configured = dir.join("configured.pfes");
        let explicit = dir.join("explicit.pfes");
        for path in [&configured, &explicit] {
            std::fs::remove_file(path).ok();
        }
        let d = Dispatcher::new(Some(configured.clone()));
        d.handle_line(r#"{"op":"start","d":8,"q":2,"shards":1}"#);
        d.handle_line(r#"{"op":"ingest","rows":[[0,1,0,0,1,0,1,1]]}"#);
        d.handle_line(r#"{"op":"snapshot"}"#);
        d.handle_line(r#"{"op":"set_slow_ms","ms":40}"#);
        // A request each op would serve, plus the one key it does not read.
        let served = |name: &str| match name {
            "start" => r#","d":8,"q":2"#.to_string(),
            "ingest" => r#","rows":[[0,1,0,0,1,0,1,1]]"#.to_string(),
            "f0" => r#","cols":[0,1]"#.to_string(),
            "frequency" => r#","cols":[0,1],"pattern":[0,1]"#.to_string(),
            "heavy_hitters" => r#","cols":[0,1],"phi":0.5"#.to_string(),
            "l1_sample" => r#","cols":[0,1],"k":2"#.to_string(),
            "fp" => r#","cols":[0,1],"p":2.0"#.to_string(),
            "batch" => r#","queries":[]"#.to_string(),
            "slow_log" => r#","threshold_ms":5"#.to_string(),
            "set_slow_ms" => r#","ms":5"#.to_string(),
            "checkpoint" => format!(r#","path":"{}""#, explicit.display()),
            _ => String::new(),
        };
        for op in OPS {
            let request = format!(r#"{{"op":"{}"{},"bogus":1}}"#, op.name, served(op.name));
            let r = d.handle_line(&request);
            assert_eq!(
                r.json,
                err(format!("unknown '{}' field 'bogus'", op.name)),
                "{request}"
            );
            assert!(matches!(r.control, Control::Continue), "{request}");
        }
        // Nothing reached the backend: the same engine holds the same one
        // row, no file was written, the threshold stayed.
        let stats = d.handle_line(r#"{"op":"stats"}"#).json;
        assert_eq!(stats.get("rows_ingested").and_then(Json::as_f64), Some(1.0));
        assert!(!configured.exists() && !explicit.exists());
        assert_eq!(d.recorder().slow_log().threshold_ms(), 40);
        // A name OPS does not declare — the retired `freq` / `hh` aliases
        // included — is the unknown-op error, the name echoed.
        for name in ["definitely_not_an_op", "freq", "hh"] {
            let r = d.handle_line(&format!(r#"{{"op":"{name}","cols":[0],"phi":0.5}}"#));
            assert_eq!(r.json, err_unknown_op(name, "request"));
        }
    }

    /// Cases per dispatcher in the request fuzz. The seed is fixed, so a
    /// failure replays; the failing line is in the assertion message.
    const FUZZ_CASES: u64 = 1500;
    const FUZZ_SEED: u64 = 0x0b5_f022;

    /// Keys of the nested objects the protocol reads (`start`'s `fp` and
    /// `window`, the object form of `trace`).
    const NESTED_KEYS: &[&str] = &[
        "orders",
        "stable_t",
        "ams_groups",
        "ams_per_group",
        "bucket_rows",
        "tier_cap",
        "max_tiers",
        "merged_cache",
        "id",
        "parent",
    ];

    fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
        items[rng.below(items.len() as u128) as usize]
    }

    fn small_ints(rng: &mut TestRng, max: u128, len: std::ops::Range<u128>) -> Json {
        let n = len.start + rng.below(len.end - len.start);
        Json::Arr((0..n).map(|_| Json::Num(rng.below(max) as f64)).collect())
    }

    /// A value of any shape: null, bools, small / negative / fractional /
    /// beyond-2^64 numbers, hex and other strings, arrays, objects.
    fn any_value(rng: &mut TestRng, depth: u32) -> Json {
        match rng.below(if depth >= 3 { 8 } else { 11 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            2 | 3 => Json::Num(rng.below(13) as f64),
            4 => Json::Num(-1.0 - rng.below(1 << 20) as f64),
            5 => Json::Num(rng.below(64) as f64 + pick(rng, &[0.5, 0.25, 1e-9])),
            6 => Json::Num(2f64.powi(64) * (1.5 + rng.below(1 << 30) as f64)),
            7 => Json::Str(
                pick(
                    rng,
                    &[
                        "",
                        "ab12",
                        "0x1f",
                        "00000000000000000000000000abcdef",
                        "ffffffffffffffffffffffffffffffffff",
                        "xyz",
                        "prometheus",
                        "chrome",
                        "f0",
                        "é\u{0}\"",
                    ],
                )
                .to_string(),
            ),
            8 => small_ints(rng, 13, 0..10),
            9 => Json::Arr(
                (0..rng.below(5))
                    .map(|_| any_value(rng, depth + 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.below(4))
                    .map(|_| {
                        (
                            pick(rng, NESTED_KEYS).to_string(),
                            any_value(rng, depth + 1),
                        )
                    })
                    .collect(),
            ),
        }
    }

    /// Some of `keys`, each a small integer.
    fn some_ints(rng: &mut TestRng, keys: &[&str]) -> BTreeMap<String, Json> {
        let mut map = BTreeMap::new();
        for key in keys {
            if rng.below(2) == 0 {
                map.insert(key.to_string(), Json::Num(rng.below(13) as f64));
            }
        }
        map
    }

    /// Where fuzzed `checkpoint`s write: a string `path` always lands
    /// here, never in the working directory.
    fn fuzz_scratch() -> std::path::PathBuf {
        std::env::temp_dir().join("pfe-server-proto-fuzz")
    }

    /// A value for `key`, shaped like what the key holds five times in
    /// six (rows near d = 8, columns, statistic requests, `start`'s
    /// nested objects, paths under [`fuzz_scratch`]), any value — but
    /// never a stray path string — otherwise.
    fn field_value(rng: &mut TestRng, key: &str) -> Json {
        if rng.below(6) == 0 {
            match any_value(rng, 0) {
                Json::Str(_) if key == "path" => {}
                wrong => return wrong,
            }
        }
        match key {
            "rows" => Json::Arr(
                (0..rng.below(4))
                    .map(|_| small_ints(rng, 3, 7..10))
                    .collect(),
            ),
            "cols" | "pattern" => small_ints(rng, 10, 0..6),
            "queries" => Json::Arr((0..rng.below(5)).map(|_| statistic_request(rng)).collect()),
            "path" => Json::Str(
                fuzz_scratch()
                    .join(pick(rng, &["a", "b"]))
                    .display()
                    .to_string(),
            ),
            "trace" | "id" => Json::Str(pick(rng, &["ab12", "0x1f", "zz"]).to_string()),
            "format" => Json::Str(pick(rng, &["prometheus", "chrome", "json"]).to_string()),
            "alpha" | "phi" | "p" => Json::Num(pick(rng, &[0.05, 0.25, 0.3, 0.5, 1.0, 1.5, 2.0])),
            "exact" | "bypass_cache" => Json::Bool(rng.below(2) == 0),
            "fp" => {
                let mut fp = some_ints(rng, &["stable_t", "ams_groups", "ams_per_group"]);
                let orders = (0..rng.below(3)).map(|_| Json::Num(pick(rng, &[0.5, 1.0, 2.0, 2.5])));
                fp.insert("orders".to_string(), Json::Arr(orders.collect()));
                Json::Obj(fp)
            }
            "window" if rng.below(2) == 0 => Json::Obj(some_ints(
                rng,
                &["bucket_rows", "tier_cap", "max_tiers", "merged_cache"],
            )),
            _ => Json::Num(rng.below(13) as f64),
        }
    }

    /// A request object: the fields an op is about (`d`, `rows`, `cols`,
    /// payloads) seven times in eight, each other one of `declared` three
    /// in eight, now and then `trace`, sometimes one key outside them.
    fn request(rng: &mut TestRng, name: &str, declared: &[&'static str]) -> Json {
        let mut map = BTreeMap::new();
        map.insert("op".to_string(), Json::Str(name.to_string()));
        for &key in declared {
            let usual = [
                "d", "rows", "queries", "ms", "cols", "pattern", "phi", "k", "p",
            ];
            if rng.below(8) < if usual.contains(&key) { 7 } else { 3 } {
                map.insert(key.to_string(), field_value(rng, key));
            }
        }
        if rng.below(8) == 0 {
            map.insert("trace".to_string(), field_value(rng, "trace"));
        }
        if rng.below(4) == 0 {
            let stray = pick(rng, &["bogus", "cols", "rows", "windw", "path", "phi", "k"]);
            map.insert(stray.to_string(), field_value(rng, stray));
        }
        Json::Obj(map)
    }

    /// A statistic request: `wire`'s common fields and the op's own
    /// payload (another op's payload is one of the stray keys).
    fn statistic_request(rng: &mut TestRng) -> Json {
        let stats: Vec<&str> = OPS
            .iter()
            .filter(|op| op.fields.is_none())
            .map(|op| op.name)
            .chain(["bogus"])
            .collect();
        let name = pick(rng, &stats);
        let mut fields: Vec<&'static str> = wire::COMMON_FIELDS.to_vec();
        fields.retain(|&k| k != "op" && k != "trace");
        fields.extend(match name {
            "frequency" => Some("pattern"),
            "heavy_hitters" => Some("phi"),
            "l1_sample" => Some("k"),
            "fp" => Some("p"),
            _ => None,
        });
        request(rng, name, &fields)
    }

    #[test]
    fn fuzz_handle_line_with_the_ops_grammar() {
        let scratch = fuzz_scratch();
        std::fs::create_dir_all(&scratch).expect("tmpdir");
        let seeded = |start: &str| {
            let d = Dispatcher::new(None);
            d.handle_line(start);
            d.handle_line(r#"{"op":"ingest","rows":[[0,1,0,0,1,0,1,1],[1,1,0,0,0,0,1,1]]}"#);
            d.handle_line(r#"{"op":"snapshot"}"#);
            d
        };
        let replica = seeded(r#"{"op":"start","d":8,"q":2,"shards":2}"#);
        replica.set_replica_sources(vec![scratch.clone()]);
        let dispatchers = [
            ("fresh", Dispatcher::new(None)),
            ("plain", seeded(r#"{"op":"start","d":8,"q":2,"shards":2}"#)),
            (
                "windowed",
                seeded(r#"{"op":"start","d":8,"q":2,"window":{"bucket_rows":2,"tier_cap":2}}"#),
            ),
            ("replica", replica),
        ];
        let mut rng = TestRng::deterministic(FUZZ_SEED, 0);
        for (which, d) in &dispatchers {
            for _ in 0..FUZZ_CASES {
                let req = match OPS.get(rng.below(OPS.len() as u128 + 2) as usize) {
                    Some(op) if op.fields.is_none() => statistic_request(&mut rng),
                    Some(op) => request(&mut rng, op.name, op.fields.unwrap_or(&[])),
                    None => {
                        let name = pick(&mut rng, &["bogus", "freq", "hh", ""]);
                        request(&mut rng, name, &[])
                    }
                };
                let mut line = req.to_string();
                if rng.below(32) == 0 {
                    let half = (0..=line.len() / 2)
                        .rev()
                        .find(|&i| line.is_char_boundary(i));
                    line.truncate(half.unwrap_or(0));
                }
                let reply =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.handle_line(&line)))
                        .unwrap_or_else(|_| panic!("{which}: handle_line panicked on {line}"));
                let text = reply.json.to_string();
                assert!(!text.contains('\n'), "{which}: {line}: a multi-line reply");
                let reply = Json::parse(&text).expect("a reply re-parses");
                match reply.get("ok") {
                    Some(Json::Bool(true)) => {}
                    Some(Json::Bool(false)) => assert!(
                        reply.get("error").and_then(Json::as_str).is_some(),
                        "{which}: {line}: ok:false without an error string: {text}"
                    ),
                    _ => panic!("{which}: {line}: no bool 'ok': {text}"),
                }
                let stats = d.handle_line(r#"{"op":"stats"}"#).json;
                assert!(
                    matches!(stats.get("ok"), Some(Json::Bool(_))),
                    "{which}: {line}: stats stopped answering: {stats}"
                );
            }
        }
        std::fs::remove_dir_all(&scratch).ok();
    }
}
