//! Request-scoped tracing: wire-propagated trace contexts, per-request
//! span trees, and a bounded head-sampled store of completed traces.
//!
//! A trace follows *one* request through every layer — session →
//! dispatch → plan → cache probe → compute → materialize (plus window
//! resolution, shard channel hops, and ingest chunks) — where the
//! aggregate [`Recorder`](crate::Recorder) series only say how the
//! fleet of requests behaved. The pieces:
//!
//! - [`TraceContext`]: the wire-propagated identity (128-bit trace id +
//!   optional parent span id) a client may attach to any request.
//! - [`TraceHandle`] / [`SpanGuard`]: the instrumentation surface. A
//!   handle is cheap to clone and thread through call stacks; opening a
//!   span borrows the handle's parent, and `guard.handle()` yields a
//!   child-parented handle for the next layer down. A disabled handle
//!   makes every operation a no-op, so untraced hot paths pay one
//!   branch.
//! - [`TraceStore`]: a bounded ring of [`CompletedTrace`]s with
//!   head-sampling — keep 1-in-N traces (N = 0 disables tracing
//!   entirely), always keep traces marked slow
//!   ([`TraceHandle::mark_slow`]) and traces whose id the client
//!   supplied (an explicit id is an explicit request to keep it).
//! - [`chrome_trace_json`]: completed traces as Chrome trace-event JSON
//!   (`[{"ph":"X","ts":…,"dur":…,…}]`), loadable in `chrome://tracing`
//!   and Perfetto.
//!
//! ```
//! use pfe_obs::{TraceContext, TraceStore};
//!
//! let store = TraceStore::new(16);
//! let trace = store.begin(Some(TraceContext { trace_id: 0xabc, parent: None }));
//! {
//!     let mut session = trace.span("session");
//!     session.attr("peer", "example");
//!     let session_handle = session.handle();
//!     let mut dispatch = session_handle.span("dispatch");
//!     dispatch.attr("op", "f0");
//! } // spans record on drop, innermost first
//! store.finish(trace);
//! let done = store.lookup(0xabc).expect("kept: client-supplied id");
//! assert_eq!(done.spans.len(), 2);
//! assert_eq!(done.spans[0].name, "dispatch"); // child closed first
//! assert_eq!(done.spans[1].parent, None);     // session is the root
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The process-wide monotonic clock base every span timestamp is
/// relative to, so spans from different threads and layers order
/// correctly within one process.
///
/// On x86-64 this reads the invariant TSC directly (a handful of
/// cycles) and converts with a once-calibrated fixed-point ratio —
/// span open/close is the tracing hot path and `clock_gettime` would
/// otherwise be its single largest cost. Elsewhere it falls back to
/// [`Instant`].
#[cfg(target_arch = "x86_64")]
fn now_ns() -> u64 {
    // (tsc_base, ns per 2^24 ticks)
    static CAL: OnceLock<(u64, u64)> = OnceLock::new();
    let (base, ns_per_tick_q24) = *CAL.get_or_init(|| {
        let t0 = Instant::now();
        let tsc0 = unsafe { core::arch::x86_64::_rdtsc() };
        // Spin long enough for a stable ratio; one-time cost at the
        // first span of the process.
        while t0.elapsed().as_micros() < 2_000 {
            std::hint::spin_loop();
        }
        let tsc1 = unsafe { core::arch::x86_64::_rdtsc() };
        let elapsed_ns = t0.elapsed().as_nanos() as u64;
        let ticks = tsc1.saturating_sub(tsc0).max(1);
        let q24 = ((elapsed_ns as u128) << 24) / ticks as u128;
        (tsc0, (q24 as u64).max(1))
    });
    let ticks = unsafe { core::arch::x86_64::_rdtsc() }.saturating_sub(base);
    (((ticks as u128) * ns_per_tick_q24 as u128) >> 24) as u64
}

#[cfg(not(target_arch = "x86_64"))]
fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    let base = *BASE.get_or_init(Instant::now);
    Instant::now()
        .duration_since(base)
        .as_nanos()
        .min(u64::MAX as u128) as u64
}

/// The wire-propagated identity of a trace: which trace a request
/// belongs to, and (optionally) which span in that trace is its parent.
///
/// Clients attach one via the optional `"trace"` field on any wire op —
/// either a bare hex trace id or `{"id": "…", "parent": "…"}`. The
/// server generates a fresh id when the client sends none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit trace id (rendered as 32 lowercase hex digits on the
    /// wire).
    pub trace_id: u128,
    /// Parent span id within the trace, when the request continues a
    /// span opened elsewhere (e.g. a client-side root span).
    pub parent: Option<u64>,
}

impl TraceContext {
    /// Parse a hex trace id (with or without a `0x` prefix).
    pub fn parse_id(s: &str) -> Option<u128> {
        let s = s.strip_prefix("0x").unwrap_or(s);
        if s.is_empty() || s.len() > 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok()
    }

    /// Render a trace id the way the wire protocol does: 32 lowercase
    /// hex digits.
    pub fn format_id(trace_id: u128) -> String {
        format!("{trace_id:032x}")
    }
}

/// A span attribute value, stored unformatted: the recording hot path
/// keeps numbers as numbers and static strings as pointers, so
/// attaching an attribute never allocates unless the value itself is
/// an owned `String`. Rendering to text happens only on the export
/// paths (wire JSON, Chrome trace).
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A static string (stage labels, formats, statistic names).
    Str(&'static str),
    /// An owned string (peer addresses, client-supplied text).
    Text(String),
    /// An unsigned integer (counts, ids, epochs, fingerprints).
    U64(u64),
    /// An unsigned integer rendered as `0x…` hex (column masks), so hot
    /// paths need not `format!` one into a string.
    Hex(u64),
    /// A signed integer.
    I64(i64),
    /// A float (estimates, rates).
    F64(f64),
    /// A boolean (cache hit, cached).
    Bool(bool),
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Str(s) => f.write_str(s),
            AttrValue::Text(s) => f.write_str(s),
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::Hex(v) => write!(f, "{v:#x}"),
            AttrValue::I64(v) => write!(f, "{v}"),
            AttrValue::F64(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        AttrValue::Str(v)
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Text(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<i32> for AttrValue {
    fn from(v: i32) -> Self {
        AttrValue::I64(i64::from(v))
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

/// One finished span: a named interval within a trace, with its parent
/// link and ordered key/value attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span id, unique within its trace.
    pub id: u64,
    /// Parent span id (`None` for a root span).
    pub parent: Option<u64>,
    /// Stage name (`session`, `dispatch`, `plan`, `compute`, …).
    /// Static so the hot recording path never allocates for it.
    pub name: &'static str,
    /// Start, in monotonic nanoseconds since the process trace clock
    /// base.
    pub start_ns: u64,
    /// End, same clock as `start_ns` (`end_ns >= start_ns`).
    pub end_ns: u64,
    /// Offset of this span's attributes in the owning trace's shared
    /// attribute arena ([`CompletedTrace::attrs_of`] resolves them).
    /// One arena per trace keeps per-span attribute storage off the
    /// recording hot path entirely.
    attr_start: u32,
    /// Number of attributes in the arena run starting at `attr_start`.
    attr_len: u32,
}

/// One completed request trace: every span recorded under one trace id.
///
/// Spans appear in completion (drop) order — children before their
/// parents — and every non-root span's parent id refers to another span
/// of the same trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedTrace {
    /// The trace's 128-bit id.
    pub trace_id: u128,
    /// Whether the trace was kept because a slow-log-qualifying request
    /// marked it (rather than by head-sampling).
    pub slow: bool,
    /// All recorded spans, completion order.
    pub spans: Vec<SpanRecord>,
    /// The trace-wide attribute arena the spans' `(attr_start,
    /// attr_len)` runs index into.
    attrs: Vec<(&'static str, AttrValue)>,
}

impl CompletedTrace {
    /// The ordered `(key, value)` attributes of one of this trace's
    /// spans (op, statistic, mask, epoch, cache hit, shard, chunk, …).
    pub fn attrs_of(&self, span: &SpanRecord) -> &[(&'static str, AttrValue)] {
        let start = span.attr_start as usize;
        &self.attrs[start..start + span.attr_len as usize]
    }
}

/// The span list and attribute arena of one trace: one allocation pair
/// per trace (not per span), recorded under one lock and recycled
/// through the store's buffer pool.
#[derive(Debug, Default)]
struct TraceBuf {
    spans: Vec<SpanRecord>,
    attrs: Vec<(&'static str, AttrValue)>,
}

/// The shared mutable state of one in-flight trace.
#[derive(Debug)]
struct ActiveTrace {
    trace_id: u128,
    /// Next span id to hand out (span ids start at 1).
    next_id: AtomicU64,
    buf: Mutex<TraceBuf>,
    /// Head-sampling said keep this one.
    sampled: bool,
    /// The id came from the client, so a retained trace with the same
    /// id may already exist (server-generated ids never collide).
    client_id: bool,
    /// A slow-log-qualifying request marked it; overrides sampling.
    slow: AtomicBool,
}

/// A cheap, cloneable reference into an in-flight trace, carrying the
/// parent span id that new spans attach under.
///
/// The default / [`disabled`](TraceHandle::disabled) handle makes every
/// operation a no-op: untraced code paths thread the same calls and pay
/// one `Option` branch.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle {
    trace: Option<Arc<ActiveTrace>>,
    parent: Option<u64>,
}

impl TraceHandle {
    /// A handle that records nothing (all operations are no-ops).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether spans opened on this handle are recorded.
    pub fn is_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// The trace id, when enabled.
    pub fn trace_id(&self) -> Option<u128> {
        self.trace.as_ref().map(|t| t.trace_id)
    }

    /// Open a span named `name` under this handle's parent. The span
    /// records into the trace when the guard drops.
    ///
    /// The guard borrows the handle rather than bumping the trace's
    /// refcount: span open/close is the hot path and the borrow keeps
    /// it free of atomic traffic.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        match &self.trace {
            None => SpanGuard {
                trace: None,
                id: 0,
                parent: None,
                name,
                start_ns: 0,
                attr_len: 0,
                attrs: Default::default(),
            },
            Some(t) => SpanGuard {
                id: t.next_id.fetch_add(1, Ordering::Relaxed),
                trace: Some(t),
                parent: self.parent,
                name,
                start_ns: now_ns(),
                attr_len: 0,
                attrs: Default::default(),
            },
        }
    }

    /// Whether the trace's id was supplied by the client — an explicit
    /// request to keep (and echo) it.
    pub fn client_supplied(&self) -> bool {
        self.trace.as_ref().is_some_and(|t| t.client_id)
    }

    /// Whether the trace has been marked slow-log-qualifying
    /// ([`mark_slow`](TraceHandle::mark_slow)).
    pub fn is_slow(&self) -> bool {
        self.trace
            .as_ref()
            .is_some_and(|t| t.slow.load(Ordering::Relaxed))
    }

    /// Mark the trace as slow-log-qualifying: it is kept regardless of
    /// the head-sampling decision.
    pub fn mark_slow(&self) {
        if let Some(t) = &self.trace {
            t.slow.store(true, Ordering::Relaxed);
        }
    }
}

/// The most attributes one span records; later [`SpanGuard::attr`]
/// calls are dropped. The cap lets attributes live inline in the guard
/// (on the caller's stack) until the span closes, so attaching one
/// never allocates.
pub const MAX_SPAN_ATTRS: usize = 8;

/// An open span: closes (and records) when dropped. Attributes are
/// attached while open; [`handle`](SpanGuard::handle) derives a
/// [`TraceHandle`] whose spans become children of this one.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    trace: Option<&'a Arc<ActiveTrace>>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    attr_len: u8,
    attrs: [Option<(&'static str, AttrValue)>; MAX_SPAN_ATTRS],
}

impl SpanGuard<'_> {
    /// Attach one `(key, value)` attribute (no-op when disabled; at
    /// most [`MAX_SPAN_ATTRS`] stick, extras are dropped).
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if self.trace.is_some() && (self.attr_len as usize) < MAX_SPAN_ATTRS {
            self.attrs[self.attr_len as usize] = Some((key, value.into()));
            self.attr_len += 1;
        }
    }

    /// A handle whose spans become children of this span.
    pub fn handle(&self) -> TraceHandle {
        TraceHandle {
            trace: self.trace.cloned(),
            parent: self.trace.map(|_| self.id),
        }
    }

    /// Whether this span records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.trace.is_some()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.trace {
            let end_ns = now_ns().max(self.start_ns);
            let mut buf = t.buf.lock().expect("trace span lock");
            let attr_start = buf.attrs.len() as u32;
            for slot in &mut self.attrs[..self.attr_len as usize] {
                buf.attrs.push(slot.take().expect("attr slot filled"));
            }
            buf.spans.push(SpanRecord {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
                attr_start,
                attr_len: u32::from(self.attr_len),
            });
        }
    }
}

/// How many completed traces a [`TraceStore`] retains by default.
pub const TRACE_STORE_CAPACITY: usize = 256;

/// A bounded ring of completed traces with head-sampling.
///
/// [`begin`](TraceStore::begin) decides at the head whether a trace is
/// kept: every `sample`-th server-initiated trace is (1-in-N; `N = 0`
/// disables tracing entirely, `N = 1` keeps everything), traces with a
/// client-supplied [`TraceContext`] always are, and a trace marked slow
/// mid-flight ([`TraceHandle::mark_slow`]) is kept regardless of the
/// head decision. Unkept traces still collect spans (the slow override
/// needs them) but are dropped at [`finish`](TraceStore::finish).
#[derive(Debug)]
pub struct TraceStore {
    capacity: usize,
    /// Keep 1-in-`sample` (0 = tracing disabled).
    sample: AtomicU64,
    /// Server-initiated traces begun so far (the sampling counter).
    seq: AtomicU64,
    done: Mutex<VecDeque<CompletedTrace>>,
    /// Recycled span/attr buffers: traces evicted from the ring (and
    /// unkept traces) donate their allocations to the next
    /// [`begin`](TraceStore::begin), so steady-state tracing performs
    /// no per-request buffer allocation.
    pool: Mutex<Vec<TraceBuf>>,
}

impl Default for TraceStore {
    fn default() -> Self {
        Self::new(TRACE_STORE_CAPACITY)
    }
}

impl TraceStore {
    /// A store retaining the most recent `capacity` kept traces, with
    /// sampling 1 (keep every trace).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            sample: AtomicU64::new(1),
            seq: AtomicU64::new(0),
            done: Mutex::new(VecDeque::new()),
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Set the head-sampling rate: keep 1-in-`n` traces (`0` disables
    /// tracing, `1` keeps all).
    pub fn set_sample(&self, n: u64) {
        self.sample.store(n, Ordering::Relaxed);
    }

    /// Begin a trace. With a client-supplied `ctx` the trace keeps that
    /// id (and is always retained); otherwise a fresh id is generated
    /// and the head-sampler decides retention. Returns a disabled
    /// handle when tracing is off (`sample == 0`).
    pub fn begin(&self, ctx: Option<TraceContext>) -> TraceHandle {
        let n = self.sample.load(Ordering::Relaxed);
        if n == 0 {
            return TraceHandle::disabled();
        }
        let (trace_id, parent, sampled, client_id) = match ctx {
            Some(c) => (c.trace_id, c.parent, true, true),
            None => {
                let seq = self.seq.fetch_add(1, Ordering::Relaxed);
                (generate_trace_id(seq), None, seq.is_multiple_of(n), false)
            }
        };
        // Pooling is opportunistic: under contention a fresh allocation
        // is cheaper than waiting on the pool lock.
        let buf = self
            .pool
            .try_lock()
            .ok()
            .and_then(|mut pool| pool.pop())
            .unwrap_or_else(|| {
                // Typical requests record well under 8 spans; sizing
                // fresh buffers up front keeps regrowth off the hot
                // path.
                TraceBuf {
                    spans: Vec::with_capacity(8),
                    attrs: Vec::with_capacity(16),
                }
            });
        TraceHandle {
            trace: Some(Arc::new(ActiveTrace {
                trace_id,
                next_id: AtomicU64::new(1),
                buf: Mutex::new(buf),
                sampled,
                client_id,
                slow: AtomicBool::new(false),
            })),
            parent,
        }
    }

    /// Finish a trace begun on this store: drain its spans and retain
    /// the completed trace if the head-sampler kept it or it was marked
    /// slow. Open [`SpanGuard`]s must be dropped first — spans still
    /// open at finish are lost.
    pub fn finish(&self, handle: TraceHandle) {
        let Some(t) = handle.trace else { return };
        // In the normal request path every guard and derived handle is
        // gone by finish, so the `Arc` unwraps and the buffers move out
        // without touching the span lock; a trace still shared (e.g. a
        // clone parked in a long-lived reader) drains under the lock.
        let (trace_id, sampled, client_id, slow, buf) = match Arc::try_unwrap(t) {
            Ok(t) => (
                t.trace_id,
                t.sampled,
                t.client_id,
                t.slow.into_inner(),
                t.buf.into_inner().expect("trace span lock"),
            ),
            Err(t) => (
                t.trace_id,
                t.sampled,
                t.client_id,
                t.slow.load(Ordering::Relaxed),
                std::mem::take(&mut *t.buf.lock().expect("trace span lock")),
            ),
        };
        if !sampled && !slow {
            // Unkept: recycle the buffers straight back to the pool.
            self.recycle(buf);
            return;
        }
        let done = CompletedTrace {
            trace_id,
            slow,
            spans: buf.spans,
            attrs: buf.attrs,
        };
        // The ring lock is shared by every worker thread: hold it only
        // for the pointer shuffles and recycle the evicted capture
        // after unlocking.
        let evicted = {
            let mut ring = self.done.lock().expect("trace store lock");
            // A re-used trace id (e.g. a client tracing several requests
            // under one id) replaces the older capture. Server-generated
            // ids are sequence-derived and never collide, so only
            // client-supplied ids pay the dedup scan.
            if client_id {
                ring.retain(|c| c.trace_id != done.trace_id);
            }
            let evicted = if ring.len() == self.capacity {
                ring.pop_front()
            } else {
                None
            };
            ring.push_back(done);
            evicted
        };
        if let Some(old) = evicted {
            self.recycle(TraceBuf {
                spans: old.spans,
                attrs: old.attrs,
            });
        }
    }

    /// Return a trace's buffers to the pool (bounded so a burst of huge
    /// traces cannot pin memory forever; skipped outright when the pool
    /// lock is contended — dropping the buffers is cheaper than
    /// waiting).
    fn recycle(&self, mut buf: TraceBuf) {
        const POOL_CAP: usize = 64;
        buf.spans.clear();
        buf.attrs.clear();
        if let Ok(mut pool) = self.pool.try_lock() {
            if pool.len() < POOL_CAP {
                pool.push(buf);
            }
        }
    }

    /// The completed trace with `trace_id`, if retained.
    pub fn lookup(&self, trace_id: u128) -> Option<CompletedTrace> {
        self.done
            .lock()
            .expect("trace store lock")
            .iter()
            .find(|c| c.trace_id == trace_id)
            .cloned()
    }

    /// The most recent `n` completed traces, newest last.
    pub fn last(&self, n: usize) -> Vec<CompletedTrace> {
        let ring = self.done.lock().expect("trace store lock");
        ring.iter()
            .skip(ring.len().saturating_sub(n))
            .cloned()
            .collect()
    }

    /// Number of retained completed traces.
    pub fn len(&self) -> usize {
        self.done.lock().expect("trace store lock").len()
    }

    /// Whether no completed traces are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Derive a well-mixed 128-bit trace id from the store's sequence
/// number and a once-sampled wall clock (SplitMix64 finalizer on both
/// halves). The wall clock seeds distinctness *across* processes; the
/// sequence number guarantees it within one (the mixer is a bijection,
/// so distinct `seq` always yields distinct ids). Sampling the wall
/// clock once keeps the per-request path down to one atomic increment.
fn generate_trace_id(seq: u64) -> u128 {
    static WALL: OnceLock<u64> = OnceLock::new();
    let wall = *WALL.get_or_init(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
    });
    let mix = |mut z: u64| {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let hi = mix(wall ^ seq.rotate_left(32));
    let lo = mix(seq ^ wall.rotate_left(17) ^ 0x5851_f42d_4c95_7f2d);
    ((hi as u128) << 64) | lo as u128
}

/// Minimal JSON string escaping for span names and attribute values.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render completed traces as Chrome trace-event JSON: an array of
/// complete (`"ph":"X"`) events with microsecond `ts`/`dur`, loadable
/// in `chrome://tracing` and Perfetto. Each trace renders as its own
/// `tid` so concurrent requests stack side by side; span attributes
/// (plus the trace id and parent span) travel in `args`.
pub fn chrome_trace_json(traces: &[CompletedTrace]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for (tid, trace) in traces.iter().enumerate() {
        for s in &trace.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let dur_us = (s.end_ns - s.start_ns) as f64 / 1000.0;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"pfe\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{",
                json_escape(s.name),
                s.start_ns as f64 / 1000.0,
                dur_us,
                tid + 1,
            ));
            out.push_str(&format!(
                "\"trace_id\":\"{}\",\"span\":{}",
                TraceContext::format_id(trace.trace_id),
                s.id
            ));
            if let Some(p) = s.parent {
                out.push_str(&format!(",\"parent\":{p}"));
            }
            for (k, v) in trace.attrs_of(s) {
                out.push_str(&format!(",\"{}\":", json_escape(k)));
                match v {
                    AttrValue::Str(s) => out.push_str(&format!("\"{}\"", json_escape(s))),
                    AttrValue::Text(s) => out.push_str(&format!("\"{}\"", json_escape(s))),
                    AttrValue::U64(n) => out.push_str(&n.to_string()),
                    AttrValue::Hex(n) => out.push_str(&format!("\"{n:#x}\"")),
                    AttrValue::I64(n) => out.push_str(&n.to_string()),
                    AttrValue::F64(n) if n.is_finite() => out.push_str(&n.to_string()),
                    AttrValue::F64(_) => out.push_str("null"),
                    AttrValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                }
            }
            out.push_str("}}");
        }
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_parse_and_format_roundtrip() {
        let id = 0xdead_beef_0102_0304_0506_0708_090a_0b0cu128;
        let s = TraceContext::format_id(id);
        assert_eq!(s.len(), 32);
        assert_eq!(TraceContext::parse_id(&s), Some(id));
        assert_eq!(TraceContext::parse_id("0xff"), Some(0xff));
        assert_eq!(TraceContext::parse_id(""), None);
        assert_eq!(TraceContext::parse_id("zz"), None);
        assert_eq!(TraceContext::parse_id(&"f".repeat(33)), None);
    }

    #[test]
    fn disabled_handle_is_a_no_op() {
        let h = TraceHandle::disabled();
        assert!(!h.is_enabled());
        assert_eq!(h.trace_id(), None);
        let mut g = h.span("anything");
        g.attr("k", "v");
        assert!(!g.is_enabled());
        let child = g.handle();
        assert!(!child.is_enabled());
        h.mark_slow();
    }

    #[test]
    fn spans_nest_and_record_parent_links() {
        let store = TraceStore::new(4);
        let trace = store.begin(Some(TraceContext {
            trace_id: 7,
            parent: None,
        }));
        {
            let mut root = trace.span("session");
            root.attr("conn", 3u64);
            let child_handle = root.handle();
            {
                let mut child = child_handle.span("dispatch");
                child.attr("op", "f0");
                let grand_handle = child.handle();
                drop(grand_handle.span("plan"));
            }
            // Siblings share the parent.
            drop(child_handle.span("sibling"));
        }
        store.finish(trace);
        let done = store.lookup(7).expect("client-supplied id is kept");
        assert_eq!(done.spans.len(), 4);
        let by_name = |n: &str| done.spans.iter().find(|s| s.name == n).expect("span");
        let session = by_name("session");
        let dispatch = by_name("dispatch");
        let plan = by_name("plan");
        let sibling = by_name("sibling");
        assert_eq!(session.parent, None);
        assert_eq!(dispatch.parent, Some(session.id));
        assert_eq!(plan.parent, Some(dispatch.id));
        assert_eq!(sibling.parent, Some(session.id));
        assert_eq!(done.attrs_of(session), [("conn", AttrValue::U64(3))]);
        // Children nest within the parent interval.
        assert!(session.start_ns <= dispatch.start_ns);
        assert!(dispatch.end_ns <= session.end_ns);
        assert!(dispatch.start_ns <= plan.start_ns && plan.end_ns <= dispatch.end_ns);
        // Span ids are unique.
        let mut ids: Vec<u64> = done.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn sampler_keeps_one_in_n_plus_slow_and_client_supplied() {
        let store = TraceStore::new(16);
        store.set_sample(1000);
        // Trace 0 is head-sampled (seq 0 % 1000 == 0); 1–4 are not.
        let ids: Vec<Option<u128>> = (0..5)
            .map(|i| {
                let t = store.begin(None);
                let id = t.trace_id();
                drop(t.span("work"));
                if i == 3 {
                    t.mark_slow(); // the slow override
                }
                store.finish(t);
                id
            })
            .collect();
        assert_eq!(store.len(), 2, "head sample + slow override");
        assert!(store.lookup(ids[0].unwrap()).is_some());
        let slow = store.lookup(ids[3].unwrap()).expect("slow trace kept");
        assert!(slow.slow);
        for &i in &[1usize, 2, 4] {
            assert!(store.lookup(ids[i].unwrap()).is_none(), "trace {i} dropped");
        }
        // Client-supplied ids bypass the sampler entirely.
        let t = store.begin(Some(TraceContext {
            trace_id: 42,
            parent: None,
        }));
        drop(t.span("explicit"));
        store.finish(t);
        assert!(store.lookup(42).is_some());
        // Sample 0 disables tracing: handles come back disabled.
        store.set_sample(0);
        assert!(!store.begin(None).is_enabled());
        assert!(!store
            .begin(Some(TraceContext {
                trace_id: 9,
                parent: None
            }))
            .is_enabled());
    }

    #[test]
    fn ring_evicts_oldest_and_replaces_reused_ids() {
        let store = TraceStore::new(2);
        for id in [1u128, 2, 3] {
            let t = store.begin(Some(TraceContext {
                trace_id: id,
                parent: None,
            }));
            drop(t.span("s"));
            store.finish(t);
        }
        assert_eq!(store.len(), 2);
        assert!(store.lookup(1).is_none(), "oldest evicted");
        assert_eq!(
            store
                .last(10)
                .iter()
                .map(|c| c.trace_id)
                .collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(store.last(1)[0].trace_id, 3);
        // Re-finishing an id replaces the previous capture.
        let t = store.begin(Some(TraceContext {
            trace_id: 2,
            parent: None,
        }));
        drop(t.span("fresh"));
        drop(t.span("again"));
        store.finish(t);
        assert_eq!(store.len(), 2);
        assert_eq!(store.lookup(2).expect("kept").spans.len(), 2);
    }

    #[test]
    fn generated_ids_are_distinct() {
        let store = TraceStore::new(64);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..32 {
            let t = store.begin(None);
            assert!(seen.insert(t.trace_id().expect("enabled")));
            store.finish(t);
        }
    }

    #[test]
    fn chrome_trace_renders_complete_events() {
        let store = TraceStore::new(4);
        let trace = store.begin(Some(TraceContext {
            trace_id: 0xabc,
            parent: None,
        }));
        {
            let mut root = trace.span("session");
            root.attr("op", "f0");
            root.attr("quoted", "say \"hi\"\n");
            drop(root.handle().span("dispatch"));
        }
        store.finish(trace);
        let json = chrome_trace_json(&store.last(10));
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"session\""));
        assert!(json.contains("\"name\":\"dispatch\""));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"ts\":"));
        assert!(json.contains("\"dur\":"));
        assert!(json.contains(&format!(
            "\"trace_id\":\"{}\"",
            TraceContext::format_id(0xabc)
        )));
        // The escaping kept it structurally valid: quotes balance and the
        // raw control byte never appears.
        assert!(json.contains("say \\\"hi\\\"\\n"));
        assert!(!json.contains('\n'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Empty input renders an empty (still valid) array.
        assert_eq!(chrome_trace_json(&[]), "[]");
    }

    #[test]
    fn concurrent_spans_from_multiple_threads_all_record() {
        let store = Arc::new(TraceStore::new(4));
        let trace = store.begin(Some(TraceContext {
            trace_id: 77,
            parent: None,
        }));
        let root = trace.span("root");
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let h = root.handle();
                std::thread::spawn(move || {
                    let mut s = h.span("worker");
                    s.attr("shard", i);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panic");
        }
        drop(root);
        store.finish(trace);
        let done = store.lookup(77).expect("kept");
        assert_eq!(done.spans.len(), 5);
        let root_id = done
            .spans
            .iter()
            .find(|s| s.name == "root")
            .expect("root")
            .id;
        let mut ids = std::collections::BTreeSet::new();
        for s in done.spans.iter().filter(|s| s.name == "worker") {
            assert_eq!(s.parent, Some(root_id));
            assert!(ids.insert(s.id), "span ids unique under concurrency");
        }
        assert_eq!(ids.len(), 4);
    }
}
