//! The TCP server: a nonblocking readiness loop (epoll via
//! [`crate::poll`]) holding many simultaneous line-protocol sessions over
//! one shared [`Dispatcher`], with per-session incremental read/write
//! buffers, a resumable line framer, a bounded dispatch worker pool with
//! typed saturation rejection, and graceful shutdown (signal, handle, or
//! the `shutdown` op) that checkpoints via `pfe-persist` before exiting.
//!
//! Sessions are event-driven: an idle connection costs one registered fd
//! and nothing else — no thread, no timer, no speculative read — so one
//! process holds tens of thousands of mostly-idle connections. Request
//! *execution* still runs on the worker pool (one in-flight request per
//! session preserves per-connection reply order), so multi-core boxes
//! dispatch in parallel exactly as before. `workers + queue` bounds the
//! concurrently open sessions; beyond it a fresh connection receives the
//! typed `"code":"saturated"` rejection and a close.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pfe_engine::Json;

use crate::proto::{err_saturated, Dispatcher};
use crate::replica::{ReplicaSpec, ShipSpec};

/// How a TCP server is shaped.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Dispatch worker threads — the maximum number of requests *executing*
    /// concurrently.
    pub workers: usize,
    /// Extra session headroom: `workers + queue` is the maximum number of
    /// concurrently open sessions; beyond it the server answers with the
    /// typed saturation rejection and closes. Size this to the connection
    /// count, not the parallelism — idle sessions are nearly free under
    /// the readiness loop.
    pub queue: usize,
    /// Where graceful shutdown checkpoints the backend (`None` disables
    /// shutdown checkpointing). Also the default path of the `checkpoint`
    /// op.
    pub checkpoint_path: Option<PathBuf>,
    /// Poll granularity for shutdown: the readiness-wait timeout, i.e. how
    /// long the loop sleeps with no socket activity before re-checking the
    /// stop flag.
    pub poll_interval: Duration,
    /// Optional address for the Prometheus scrape endpoint: any HTTP GET
    /// against it answers the full registry in text exposition format
    /// (`None` disables the endpoint). Port 0 picks an ephemeral port
    /// (see [`Server::metrics_addr`]).
    pub metrics_addr: Option<String>,
    /// Slow-query log threshold in milliseconds: requests taking at least
    /// this long land in the ring served by the `slow_log` op (`None`
    /// leaves the log disabled until a `slow_log`/`start` request sets a
    /// threshold).
    pub slow_ms: Option<u64>,
    /// Request-trace head-sampling: keep 1-in-`N` server-initiated traces
    /// (`0` disables tracing entirely; client-supplied trace contexts and
    /// slow-log-qualifying requests are always kept). `None` leaves the
    /// store's default of 1 — trace everything.
    pub trace_sample: Option<u64>,
    /// Per-request line cap in bytes: a longer line gets the typed
    /// `"code":"line_too_long"` error and is discarded to the next
    /// newline (the session survives and resyncs).
    pub max_line_bytes: usize,
    /// Writer role: periodically checkpoint the plain engine into this
    /// snapshot directory for read replicas (atomic rename, monotonic
    /// epoch filenames).
    pub ship: Option<ShipSpec>,
    /// Replica role: watch snapshot directories shipped by writers, load
    /// new epochs, and atomically swap them in while serving. Mutually
    /// exclusive with `ship`; makes the wire surface read-only.
    pub replica: Option<ReplicaSpec>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue: 16,
            checkpoint_path: None,
            poll_interval: Duration::from_millis(50),
            metrics_addr: None,
            slow_ms: None,
            trace_sample: None,
            max_line_bytes: crate::framing::DEFAULT_MAX_LINE,
            ship: None,
            replica: None,
        }
    }
}

/// What a completed [`Server::run`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Where the shutdown checkpoint was written (`None`: no path
    /// configured, no backend started, or a `shutdown` op already wrote
    /// it — the op reports its own path on the wire).
    pub checkpointed: Option<PathBuf>,
    /// Connections accepted over the server's lifetime.
    pub connections_accepted: u64,
    /// Connections bounced with the saturation rejection.
    pub rejected_saturated: u64,
    /// Requests handled to completion.
    pub requests_handled: u64,
}

/// Errors from binding or running a [`Server`].
#[derive(Debug)]
pub enum ServerError {
    /// Socket-level failure (bind, accept, configure).
    Io(std::io::Error),
    /// The configuration is invalid.
    BadConfig(String),
    /// The shutdown checkpoint failed; the message carries the
    /// persistence error.
    Checkpoint(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "server io error: {e}"),
            Self::BadConfig(m) => write!(f, "bad server config: {m}"),
            Self::Checkpoint(m) => write!(f, "shutdown checkpoint failed: {m}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// A handle for stopping a running server from another thread (tests,
/// operator tooling). Cheap to clone.
#[derive(Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Ask the server to stop: the loop stops accepting, sessions drain
    /// (each finishes its in-flight request), and the shutdown checkpoint
    /// is written before [`Server::run`] returns.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

// Process-wide SIGINT/SIGTERM flag. The handler may only touch
// async-signal-safe state, so it sets one static flag that every running
// event loop polls alongside its own stop flag.
static SIGNAL_STOP: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_signal(_sig: i32) {
    SIGNAL_STOP.store(true, Ordering::SeqCst);
}

/// Install SIGINT/SIGTERM handlers that gracefully stop every running
/// [`Server`] in this process (ctrl-c → checkpoint → drain → exit).
///
/// Deliberately *not* called by [`Server::bind`]: embedding applications
/// and tests keep their own signal semantics unless they opt in. The
/// `serve --listen` CLI opts in.
#[cfg(unix)]
pub fn install_signal_handlers() {
    // `signal(2)` via the libc std already links; glibc gives BSD
    // semantics (the handler stays installed). SIGINT = 2, SIGTERM = 15.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler = on_signal as *const () as usize;
    unsafe {
        signal(2, handler);
        signal(15, handler);
    }
}

/// Install SIGINT/SIGTERM handlers (no-op off Unix).
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

/// A bound, not-yet-running TCP server: a listener, a shared
/// [`Dispatcher`], and the readiness-loop session table. [`run`](Self::run)
/// blocks; grab a [`handle`](Self::handle) first to stop it.
pub struct Server {
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    dispatcher: Arc<Dispatcher>,
    cfg: ServerConfig,
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl Server {
    /// Bind the listen socket (and the metrics endpoint, when configured)
    /// and build the shared dispatcher.
    ///
    /// # Errors
    /// `BadConfig` for a zero-worker pool, a zero line cap, or a config
    /// that is both writer (`ship`) and replica; `Io` for socket failures.
    pub fn bind(cfg: ServerConfig) -> Result<Self, ServerError> {
        if cfg.workers == 0 {
            return Err(ServerError::BadConfig("workers must be >= 1".into()));
        }
        if cfg.max_line_bytes == 0 {
            return Err(ServerError::BadConfig("max_line_bytes must be >= 1".into()));
        }
        if cfg.ship.is_some() && cfg.replica.is_some() {
            return Err(ServerError::BadConfig(
                "a server is a snapshot writer (ship) or a replica, not both".into(),
            ));
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let metrics_listener = match &cfg.metrics_addr {
            Some(maddr) => {
                let l = TcpListener::bind(maddr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let dispatcher = Arc::new(Dispatcher::new(cfg.checkpoint_path.clone()));
        dispatcher.set_pool_shape(cfg.workers, cfg.queue);
        if let Some(ms) = cfg.slow_ms {
            dispatcher.recorder().slow_log().set_threshold_ms(ms);
        }
        if let Some(n) = cfg.trace_sample {
            dispatcher.recorder().trace_store().set_sample(n);
        }
        if let Some(replica) = &cfg.replica {
            dispatcher.set_replica_sources(replica.dirs.clone());
        }
        Ok(Self {
            listener,
            metrics_listener,
            dispatcher,
            cfg,
            stop: Arc::new(AtomicBool::new(false)),
            addr,
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port picked).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound Prometheus endpoint address, when one is configured
    /// (resolves port 0 to the ephemeral port picked).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// A clonable handle that can stop this server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            stop: Arc::clone(&self.stop),
            addr: self.addr,
        }
    }

    /// The shared dispatcher (embedding applications can pre-`start` an
    /// engine or read counters without a connection).
    pub fn dispatcher(&self) -> &Arc<Dispatcher> {
        &self.dispatcher
    }

    /// Serve until stopped (handle, `shutdown` op, or signal): run the
    /// readiness loop, accepting connections into the session table (or
    /// rejecting with the typed saturation error), then drain sessions
    /// and write the shutdown checkpoint.
    ///
    /// # Errors
    /// `Io` on loop failures, `Checkpoint` if the final checkpoint cannot
    /// be written (the server still drained).
    #[cfg(unix)]
    pub fn run(mut self) -> Result<ShutdownReport, ServerError> {
        let metrics_thread = self.metrics_listener.take().map(|listener| {
            let dispatcher = Arc::clone(&self.dispatcher);
            let stop = Arc::clone(&self.stop);
            std::thread::spawn(move || serve_metrics(&listener, &dispatcher, &stop))
        });
        let shipper = self.cfg.ship.clone().map(|spec| {
            crate::replica::spawn_shipper(
                Arc::clone(&self.dispatcher),
                spec,
                Arc::clone(&self.stop),
            )
        });
        let watcher = self.cfg.replica.clone().map(|spec| {
            crate::replica::spawn_watcher(
                Arc::clone(&self.dispatcher),
                spec,
                Arc::clone(&self.stop),
            )
        });
        let mut event_loop = event_loop::EventLoop::new(
            self.listener,
            Arc::clone(&self.dispatcher),
            Arc::clone(&self.stop),
            &self.cfg,
        )?;
        let loop_result = event_loop.run();
        // However the loop ended, everything downstream must still run:
        // stop the helper threads, ship a final snapshot, checkpoint.
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = metrics_thread {
            let _ = t.join();
        }
        if let Some(t) = watcher {
            let _ = t.join();
        }
        if let Some(t) = shipper {
            let _ = t.join();
            // One last ship so replicas converge on the writer's final
            // state (best-effort — the durable truth is the checkpoint).
            if let Some(spec) = &self.cfg.ship {
                let _ = crate::replica::ship_once(&self.dispatcher, &spec.dir, &mut None);
            }
        }
        if let Err(e) = loop_result {
            // Best-effort durability even on the failure path.
            let _ = self.dispatcher.shutdown_checkpoint();
            return Err(ServerError::Io(e));
        }
        let checkpointed = self
            .dispatcher
            .shutdown_checkpoint()
            .map_err(ServerError::Checkpoint)?;
        let counters = self.dispatcher.counters();
        Ok(ShutdownReport {
            checkpointed,
            connections_accepted: counters.connections_accepted.get(),
            rejected_saturated: counters.rejected_saturated.get(),
            requests_handled: counters.requests_handled.get(),
        })
    }

    /// Serve until stopped. The readiness loop needs a Unix platform
    /// (epoll/poll); off Unix this reports `BadConfig` immediately.
    ///
    /// # Errors
    /// Always `BadConfig` on this platform.
    #[cfg(not(unix))]
    pub fn run(self) -> Result<ShutdownReport, ServerError> {
        Err(ServerError::BadConfig(
            "the readiness-loop server requires a unix platform (epoll/poll)".into(),
        ))
    }
}

/// The Prometheus scrape endpoint: a deliberately tiny HTTP/1.1 loop (one
/// route, no keep-alive — `GET`/`HEAD /metrics` gets the full registry
/// and a close, anything else a 404) so scraping needs nothing beyond the
/// standard library. It runs on its own thread and exits with the
/// server's stop flag.
fn serve_metrics(listener: &TcpListener, dispatcher: &Dispatcher, stop: &AtomicBool) {
    while !(stop.load(Ordering::SeqCst) || SIGNAL_STOP.load(Ordering::SeqCst)) {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                // Read the request head (method + path are all that's
                // routed on). Bounded by a read timeout so a stalled
                // scraper cannot wedge the endpoint.
                let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
                let mut head = Vec::new();
                let mut buf = [0u8; 1024];
                loop {
                    match stream.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            head.extend_from_slice(&buf[..n]);
                            if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
                                break;
                            }
                        }
                    }
                }
                let head_text = String::from_utf8_lossy(&head);
                let mut parts = head_text.split_whitespace();
                let method = parts.next().unwrap_or("");
                let path = parts.next().unwrap_or("");
                // HEAD answers the same headers (Content-Length included)
                // with no body, per RFC 9110.
                let is_head = method.eq_ignore_ascii_case("HEAD");
                let served = path.split('?').next().unwrap_or("") == "/metrics"
                    && (is_head || method.eq_ignore_ascii_case("GET"));
                let (status, body) = if served {
                    ("200 OK", dispatcher.render_prometheus())
                } else {
                    ("404 Not Found", "not found: try /metrics\n".to_string())
                };
                let _ = write!(
                    stream,
                    "HTTP/1.1 {}\r\n\
                     Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
                     Content-Length: {}\r\n\
                     Connection: close\r\n\r\n{}",
                    status,
                    body.len(),
                    if is_head { "" } else { body.as_str() }
                );
                let _ = stream.flush();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Runs on the rejector thread, never on the loop thread: the lingering
/// read parks its caller for up to 100 ms per silent peer. Once `stop` is
/// set the linger is skipped — a drain does not wait on peers it never
/// admitted.
fn reject_saturated(mut stream: TcpStream, workers: usize, queue: usize, stop: &AtomicBool) {
    // Best-effort: the client may already be gone. The accepted socket is
    // blocking (accept does not inherit the listener's nonblocking flag
    // on Linux), so plain writes work here.
    let _ = stream.set_nonblocking(false);
    let _ = writeln!(stream, "{}", err_saturated(workers, queue));
    let _ = stream.flush();
    // Let the rejection land before the close: a client that pipelined a
    // request has unread bytes in our receive buffer, and closing over
    // them sends RST — which can discard the rejection line in flight.
    // Half-close our side, then drain (bounded) what the client sent.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut sink = [0u8; 1024];
    for _ in 0..64 {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match std::io::Read::read(&mut stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

fn shutting_down() -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::Str("server shutting down".to_string())),
        ("code", Json::Str("shutting_down".to_string())),
    ])
}

#[cfg(unix)]
mod event_loop {
    use super::{reject_saturated, shutting_down, ServerConfig, SIGNAL_STOP};
    use std::collections::{HashMap, VecDeque};
    use std::io::{self, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    use pfe_obs::{Counter, Histogram};

    use crate::framing::{FrameEvent, LineFramer};
    use crate::poll::{Interest, Poller};
    use crate::pool::WorkerPool;
    use crate::proto::{err_line_too_long, Control, Dispatcher, Reply};

    const TOKEN_LISTENER: u64 = 0;
    const TOKEN_WAKE: u64 = 1;
    const TOKEN_BASE: u64 = 2;
    /// Bounced sockets the rejector may hold; a silent peer costs it the
    /// 100 ms linger, so a full backlog of them clears in 6.4 s.
    const REJECT_BACKLOG: usize = 64;

    /// Parsed requests queued per session before read interest is
    /// dropped (backpressure against a pipelining flood).
    const PENDING_CAP: usize = 128;
    /// Unflushed reply bytes per session before read interest is dropped
    /// (backpressure against a client that writes but never reads).
    const OUT_CAP: usize = 256 * 1024;
    /// How long flush-only sessions get at drain before being cut off.
    const DRAIN_FLUSH_DEADLINE: Duration = Duration::from_secs(5);

    /// One request handed to the dispatch pool.
    struct Job {
        token: u64,
        trace_id: u64,
        line: String,
    }

    enum Pending {
        Line(String),
        Oversized { limit: usize },
    }

    struct Session {
        stream: TcpStream,
        fd: i32,
        /// Monotone per-connection id carried by trace `session` spans.
        trace_id: u64,
        framer: LineFramer,
        pending: VecDeque<Pending>,
        out: Vec<u8>,
        out_pos: usize,
        in_flight: bool,
        read_closed: bool,
        /// Close once `out` flushes; no further reads or dispatches.
        closing: bool,
        /// Waiting in `submit_waiters` for a free pool slot.
        queued: bool,
        interest: Interest,
        opened: Instant,
    }

    impl Session {
        fn out_len(&self) -> usize {
            self.out.len() - self.out_pos
        }

        fn desired_interest(&self) -> Interest {
            let read = !self.read_closed
                && !self.closing
                && self.pending.len() < PENDING_CAP
                && self.out_len() < OUT_CAP;
            Interest {
                read,
                write: self.out_len() > 0,
            }
        }

        fn push_reply(&mut self, json: &pfe_engine::Json) {
            self.out.extend_from_slice(json.to_string().as_bytes());
            self.out.push(b'\n');
        }
    }

    pub(super) struct EventLoop {
        poller: Poller,
        listener: TcpListener,
        dispatcher: Arc<Dispatcher>,
        stop: Arc<AtomicBool>,
        poll_interval: Duration,
        max_line: usize,
        capacity: usize,
        sessions: HashMap<u64, Session>,
        next_token: u64,
        next_trace: u64,
        pool: Option<WorkerPool<Job>>,
        /// Bounced sockets waiting for their rejection line and lingering
        /// half-close. One thread, bounded: a flood beyond the backlog is
        /// dropped unanswered rather than queued without limit.
        rejector: Option<WorkerPool<TcpStream>>,
        completions: Arc<Mutex<Vec<(u64, Reply)>>>,
        wake_rx: TcpStream,
        submit_waiters: VecDeque<u64>,
        draining: bool,
        drain_started: Option<Instant>,
        listener_registered: bool,
        wakeups: Arc<Counter>,
        ticks: Arc<Counter>,
        oversized: Arc<Counter>,
        accept_soft_errors: Arc<Counter>,
        lifetime_hist: Arc<Histogram>,
        drain_hist: Arc<Histogram>,
    }

    /// The wake channel: a loopback TCP pair (pure std, no `pipe(2)`
    /// declaration needed). Workers write one byte to `tx` after pushing
    /// a completion; the loop drains `rx`.
    fn wake_pair() -> io::Result<(TcpStream, TcpStream)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        tx.set_nonblocking(true)?;
        tx.set_nodelay(true)?;
        rx.set_nonblocking(true)?;
        Ok((tx, rx))
    }

    impl EventLoop {
        pub(super) fn new(
            listener: TcpListener,
            dispatcher: Arc<Dispatcher>,
            stop: Arc<AtomicBool>,
            cfg: &ServerConfig,
        ) -> io::Result<Self> {
            let capacity = cfg.workers + cfg.queue;
            let mut poller = Poller::new(capacity + 2)?;
            poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
            let (wake_tx, wake_rx) = wake_pair()?;
            poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
            let completions: Arc<Mutex<Vec<(u64, Reply)>>> = Arc::new(Mutex::new(Vec::new()));
            let pool = {
                let dispatcher = Arc::clone(&dispatcher);
                let completions = Arc::clone(&completions);
                let wake_tx = Arc::new(wake_tx);
                WorkerPool::new(cfg.workers, cfg.queue, move |job: Job| {
                    let reply = dispatcher.handle_line_with_session(&job.line, Some(job.trace_id));
                    completions
                        .lock()
                        .expect("completions lock")
                        .push((job.token, reply));
                    // A failed wake write means the pipe already holds an
                    // unread wakeup — the loop will drain us regardless.
                    let _ = (&*wake_tx).write(&[1u8]);
                })
            };
            let (workers, queue, stopped) = (cfg.workers, cfg.queue, Arc::clone(&stop));
            let rejector = WorkerPool::new(1, REJECT_BACKLOG, move |stream| {
                reject_saturated(stream, workers, queue, &stopped)
            });
            let recorder = dispatcher.recorder();
            let wakeups = recorder.counter("server_loop_wakeups");
            let ticks = recorder.counter("server_loop_ticks");
            let oversized = recorder.counter("server_lines_oversized");
            let accept_soft_errors = recorder.counter("server_accept_soft_errors");
            let lifetime_hist = recorder.histogram("server_connection_lifetime_ns");
            let drain_hist = recorder.histogram("server_drain_ns");
            Ok(Self {
                poller,
                listener,
                dispatcher,
                stop,
                poll_interval: cfg.poll_interval,
                max_line: cfg.max_line_bytes,
                capacity,
                sessions: HashMap::new(),
                next_token: TOKEN_BASE,
                next_trace: 1,
                pool: Some(pool),
                rejector: Some(rejector),
                completions,
                wake_rx,
                submit_waiters: VecDeque::new(),
                draining: false,
                drain_started: None,
                listener_registered: true,
                wakeups,
                ticks,
                oversized,
                accept_soft_errors,
                lifetime_hist,
                drain_hist,
            })
        }

        fn stopping(&self) -> bool {
            self.stop.load(Ordering::SeqCst) || SIGNAL_STOP.load(Ordering::SeqCst)
        }

        /// Run until drained. On return every session is closed and the
        /// dispatch pool is joined (all acknowledged requests executed),
        /// so the caller can checkpoint.
        pub(super) fn run(&mut self) -> io::Result<()> {
            let mut fatal: Option<io::Error> = None;
            let mut events = Vec::with_capacity(256);
            loop {
                events.clear();
                // A broken poller is unrecoverable; `?` propagates and the
                // pool is still joined by the caller.
                self.poller.wait(&mut events, Some(self.poll_interval))?;
                if events.is_empty() {
                    // Pure timer tick: the honest idle count — an idle
                    // fleet of connections must not inflate `wakeups`.
                    self.ticks.inc();
                } else {
                    self.wakeups.inc();
                }
                if self.stopping() && !self.draining {
                    self.enter_drain();
                }
                let mut accept_ready = false;
                for ev in &events {
                    match ev.token {
                        TOKEN_LISTENER => accept_ready = true,
                        TOKEN_WAKE => self.drain_wake(),
                        token => {
                            if ev.readable {
                                self.do_read(token);
                            }
                            if ev.writable {
                                self.do_write(token);
                            }
                            if ev.hangup && self.sessions.contains_key(&token) {
                                // Error/hangup with nothing readable left:
                                // the peer is gone; reclaim the session.
                                let still_readable =
                                    self.sessions.get(&token).map(|s| s.read_closed);
                                if still_readable == Some(true) {
                                    self.close_session(token);
                                }
                            }
                            self.update_interest(token);
                        }
                    }
                }
                self.drain_completions();
                if accept_ready && !self.draining {
                    if let Err(e) = self.accept_ready() {
                        fatal = Some(e);
                        self.enter_drain();
                    }
                }
                self.pump_submissions();
                if self.draining {
                    self.enforce_drain_deadline();
                    let in_flight_left = self.sessions.values().any(|s| s.in_flight);
                    if self.sessions.is_empty() && !in_flight_left {
                        break;
                    }
                }
            }
            // Join the pool: workers finish every job already accepted, so
            // the checkpoint that follows includes all acknowledged work.
            if let Some(pool) = self.pool.take() {
                pool.join();
            }
            // The loop is done however it ended (flag, signal, accept
            // error): strangers still queued get their line, no linger.
            self.stop.store(true, Ordering::SeqCst);
            if let Some(rejector) = self.rejector.take() {
                rejector.join();
            }
            if let Some(t0) = self.drain_started {
                self.drain_hist.record_duration(t0.elapsed());
            }
            match fatal {
                Some(e) => Err(e),
                None => Ok(()),
            }
        }

        /// Accept everything pending. A resource-exhaustion error
        /// (EMFILE/ENFILE) sheds the connection and keeps serving; any
        /// other accept error is fatal and starts the drain.
        fn accept_ready(&mut self) -> io::Result<()> {
            loop {
                match self.listener.accept() {
                    Ok((stream, _peer)) => self.admit(stream),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) if matches!(e.raw_os_error(), Some(23) | Some(24)) => {
                        // ENFILE/EMFILE: out of descriptors. Back off so
                        // the still-readable listener doesn't spin the
                        // loop, and let closes free capacity.
                        self.accept_soft_errors.inc();
                        std::thread::sleep(Duration::from_millis(10));
                        return Ok(());
                    }
                    Err(e) => return Err(e),
                }
            }
        }

        fn admit(&mut self, stream: TcpStream) {
            let counters = self.dispatcher.counters();
            counters.connections_accepted.inc();
            counters.connections_open.add(1);
            if self.sessions.len() >= self.capacity {
                counters.rejected_saturated.inc();
                counters.connections_open.sub(1);
                if let Some(rejector) = &self.rejector {
                    let _ = rejector.try_submit(stream);
                }
                return;
            }
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                counters.connections_open.sub(1);
                return;
            }
            let token = self.next_token;
            self.next_token += 1;
            let trace_id = self.next_trace;
            self.next_trace += 1;
            let fd = stream.as_raw_fd();
            if self.poller.register(fd, token, Interest::READ).is_err() {
                counters.connections_open.sub(1);
                return;
            }
            self.sessions.insert(
                token,
                Session {
                    stream,
                    fd,
                    trace_id,
                    framer: LineFramer::new(self.max_line),
                    pending: VecDeque::new(),
                    out: Vec::new(),
                    out_pos: 0,
                    in_flight: false,
                    read_closed: false,
                    closing: false,
                    queued: false,
                    interest: Interest::READ,
                    opened: Instant::now(),
                },
            );
        }

        fn drain_wake(&mut self) {
            let mut sink = [0u8; 256];
            loop {
                match (&self.wake_rx).read(&mut sink) {
                    Ok(0) => return, // wake writer gone (loop is exiting)
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return, // WouldBlock: drained
                }
            }
        }

        /// Read everything the kernel has for this session, frame it, and
        /// queue/submit the resulting requests.
        fn do_read(&mut self, token: u64) {
            let mut buf = [0u8; 16384];
            let mut dead = false;
            loop {
                let Some(sess) = self.sessions.get_mut(&token) else {
                    return;
                };
                if sess.closing || sess.read_closed {
                    break;
                }
                if sess.pending.len() >= PENDING_CAP || sess.out_len() >= OUT_CAP {
                    break; // backpressured: interest update mutes reads
                }
                match sess.stream.read(&mut buf) {
                    Ok(0) => {
                        // Half-open peer: it can still receive. Serve
                        // what was already framed, then close.
                        sess.read_closed = true;
                        break;
                    }
                    Ok(n) => {
                        sess.framer.push(&buf[..n]);
                        while let Some(ev) = sess.framer.pop_event() {
                            match ev {
                                FrameEvent::Line(bytes) => {
                                    // Invalid UTF-8 becomes U+FFFD and
                                    // fails JSON parsing with an ordinary
                                    // error response; blank lines are
                                    // ignored — both exactly as the old
                                    // blocking server behaved.
                                    let text = String::from_utf8_lossy(&bytes);
                                    let trimmed = text.trim();
                                    if !trimmed.is_empty() {
                                        sess.pending.push_back(Pending::Line(trimmed.to_string()));
                                    }
                                }
                                FrameEvent::Oversized { limit } => {
                                    sess.pending.push_back(Pending::Oversized { limit });
                                }
                            }
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if dead {
                self.close_session(token);
                return;
            }
            self.process_session(token);
        }

        /// Drive the per-session request pipeline: submit the next pending
        /// line when no request is in flight, answer oversized markers
        /// inline, and begin closing a drained half-open session.
        fn process_session(&mut self, token: u64) {
            loop {
                let Some(sess) = self.sessions.get_mut(&token) else {
                    return;
                };
                if sess.in_flight || sess.closing {
                    break;
                }
                match sess.pending.pop_front() {
                    None => {
                        if sess.read_closed {
                            // Everything the peer sent is answered (or
                            // nothing was): flush and close.
                            sess.closing = true;
                        }
                        break;
                    }
                    Some(Pending::Oversized { limit }) => {
                        sess.push_reply(&err_line_too_long(limit));
                        self.oversized.inc();
                    }
                    Some(Pending::Line(line)) => {
                        let job = Job {
                            token,
                            trace_id: sess.trace_id,
                            line,
                        };
                        let pool = self.pool.as_ref().expect("pool lives until drain");
                        match pool.try_submit(job) {
                            Ok(()) => {
                                sess.in_flight = true;
                            }
                            Err(job) => {
                                // Pool momentarily full: requeue the line
                                // and retry when a completion frees a slot.
                                sess.pending.push_front(Pending::Line(job.line));
                                if !sess.queued {
                                    sess.queued = true;
                                    self.submit_waiters.push_back(token);
                                }
                            }
                        }
                        break;
                    }
                }
            }
            self.try_flush(token);
            self.update_interest(token);
        }

        /// Retry sessions whose submissions bounced off a full pool.
        fn pump_submissions(&mut self) {
            for _ in 0..self.submit_waiters.len() {
                let Some(token) = self.submit_waiters.pop_front() else {
                    break;
                };
                if let Some(sess) = self.sessions.get_mut(&token) {
                    sess.queued = false;
                    self.process_session(token);
                }
            }
        }

        fn drain_completions(&mut self) {
            let done = std::mem::take(&mut *self.completions.lock().expect("completions lock"));
            for (token, reply) in done {
                let Some(sess) = self.sessions.get_mut(&token) else {
                    // The client vanished mid-request; the work still
                    // counted (and lands in the next checkpoint), there
                    // is just no one to answer.
                    continue;
                };
                sess.in_flight = false;
                sess.push_reply(&reply.json);
                match reply.control {
                    Control::Continue => {}
                    Control::CloseSession => {
                        sess.pending.clear();
                        sess.closing = true;
                    }
                    Control::ShutdownServer => {
                        sess.pending.clear();
                        sess.closing = true;
                        self.stop.store(true, Ordering::SeqCst);
                    }
                }
                if self.draining {
                    // Sessions learn about the drain as their in-flight
                    // request completes.
                    let Some(sess) = self.sessions.get_mut(&token) else {
                        continue;
                    };
                    if !sess.closing {
                        sess.push_reply(&shutting_down());
                        sess.pending.clear();
                        sess.closing = true;
                    }
                }
                self.process_session(token);
            }
            if self.stopping() && !self.draining {
                self.enter_drain();
            }
            self.pump_submissions();
        }

        /// Write as much buffered output as the socket takes; finish the
        /// close when a closing session fully flushes.
        fn do_write(&mut self, token: u64) {
            let mut dead = false;
            loop {
                let Some(sess) = self.sessions.get_mut(&token) else {
                    return;
                };
                if sess.out_len() == 0 {
                    sess.out.clear();
                    sess.out_pos = 0;
                    break;
                }
                match sess.stream.write(&sess.out[sess.out_pos..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        sess.out_pos += n;
                        if sess.out_pos == sess.out.len() {
                            sess.out.clear();
                            sess.out_pos = 0;
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if dead {
                self.close_session(token);
                return;
            }
            let finished = self
                .sessions
                .get(&token)
                .map(|s| s.closing && s.out_len() == 0 && !s.in_flight)
                .unwrap_or(false);
            if finished {
                self.close_session(token);
            }
        }

        fn try_flush(&mut self, token: u64) {
            let has_out = self
                .sessions
                .get(&token)
                .map(|s| s.out_len() > 0 || s.closing)
                .unwrap_or(false);
            if has_out {
                self.do_write(token);
            }
        }

        fn update_interest(&mut self, token: u64) {
            let Some(sess) = self.sessions.get(&token) else {
                return;
            };
            let desired = sess.desired_interest();
            if desired != sess.interest {
                let fd = sess.fd;
                if self.poller.modify(fd, token, desired).is_ok() {
                    if let Some(sess) = self.sessions.get_mut(&token) {
                        sess.interest = desired;
                    }
                } else {
                    self.close_session(token);
                }
            }
        }

        fn close_session(&mut self, token: u64) {
            if let Some(sess) = self.sessions.remove(&token) {
                let _ = self.poller.deregister(sess.fd);
                self.dispatcher.counters().connections_open.sub(1);
                self.lifetime_hist.record_duration(sess.opened.elapsed());
                // `sess.stream` drops here and closes the fd.
            }
        }

        /// Stop accepting and tell every session the server is going
        /// down. In-flight requests finish (their completions append the
        /// reply before the shutting-down notice); everything else queued
        /// is discarded — exactly the old thread-per-connection contract.
        fn enter_drain(&mut self) {
            self.draining = true;
            self.drain_started = Some(Instant::now());
            if self.listener_registered {
                let _ = self.poller.deregister(self.listener.as_raw_fd());
                self.listener_registered = false;
            }
            let tokens: Vec<u64> = self.sessions.keys().copied().collect();
            for token in tokens {
                if let Some(sess) = self.sessions.get_mut(&token) {
                    sess.pending.clear();
                    if !sess.in_flight && !sess.closing {
                        sess.push_reply(&shutting_down());
                        sess.closing = true;
                    }
                }
                self.try_flush(token);
                self.update_interest(token);
            }
        }

        /// A drain must not hang on a peer that never reads its last
        /// replies: past the deadline, flush-only sessions are cut off.
        /// Sessions with a request still executing are always awaited —
        /// their acknowledged work belongs in the checkpoint.
        fn enforce_drain_deadline(&mut self) {
            let Some(t0) = self.drain_started else {
                return;
            };
            if t0.elapsed() < DRAIN_FLUSH_DEADLINE {
                return;
            }
            let stuck: Vec<u64> = self
                .sessions
                .iter()
                .filter(|(_, s)| !s.in_flight)
                .map(|(&t, _)| t)
                .collect();
            for token in stuck {
                self.close_session(token);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_rejects_zero_workers() {
        let cfg = ServerConfig {
            workers: 0,
            ..Default::default()
        };
        assert!(matches!(Server::bind(cfg), Err(ServerError::BadConfig(_))));
    }

    #[test]
    fn bind_rejects_writer_and_replica_roles_together() {
        let cfg = ServerConfig {
            ship: Some(ShipSpec {
                dir: std::env::temp_dir().join("pfe-ship-x"),
                interval: Duration::from_millis(100),
            }),
            replica: Some(ReplicaSpec {
                dirs: vec![std::env::temp_dir().join("pfe-ship-x")],
                poll: Duration::from_millis(100),
                engine: pfe_engine::EngineConfig::default(),
            }),
            ..Default::default()
        };
        assert!(matches!(Server::bind(cfg), Err(ServerError::BadConfig(_))));
    }

    #[test]
    fn handle_stops_an_idle_server() {
        let server = Server::bind(ServerConfig {
            workers: 1,
            queue: 1,
            ..Default::default()
        })
        .expect("bind");
        let handle = server.handle();
        let t = std::thread::spawn(move || server.run().expect("run"));
        handle.shutdown();
        let report = t.join().expect("join");
        assert_eq!(report.connections_accepted, 0);
        assert_eq!(report.checkpointed, None);
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let server = Server::bind(ServerConfig {
            metrics_addr: Some("127.0.0.1:0".to_string()),
            slow_ms: Some(7),
            workers: 1,
            queue: 1,
            ..Default::default()
        })
        .expect("bind");
        let maddr = server.metrics_addr().expect("metrics bound");
        assert_eq!(server.dispatcher().recorder().slow_log().threshold_ms(), 7);
        server
            .dispatcher()
            .handle_line(r#"{"op":"start","d":8,"q":2,"shards":1}"#);
        let handle = server.handle();
        let t = std::thread::spawn(move || server.run().expect("run"));
        // Plain HTTP GET against the scrape endpoint.
        let mut stream = TcpStream::connect(maddr).expect("connect metrics");
        write!(stream, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").expect("send");
        stream.flush().expect("flush");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("Content-Type: text/plain; version=0.0.4"));
        let body = response.split("\r\n\r\n").nth(1).expect("body");
        assert!(body.contains("# TYPE pfe_server_op_requests_start_total counter"));
        assert!(body.contains("pfe_server_op_requests_start_total 1"));
        handle.shutdown();
        t.join().expect("join");
    }
}
