#![deny(missing_docs)]
//! `pfe-server` — concurrent network serving of projected-frequency
//! queries: the line-delimited JSON protocol over TCP, served by a
//! nonblocking readiness loop (epoll, via a hand-rolled `std`-only
//! poller) so one process holds tens of thousands of mostly-idle
//! connections, with a bounded dispatch pool, typed saturation
//! rejection, graceful checkpoint-on-shutdown, and snapshot-shipping
//! read replicas for horizontal read scale. Zero external dependencies
//! (`std::net` + raw `epoll`/`poll` syscalls, per the repo's
//! offline-compat convention).
//!
//! The layers, each usable alone:
//!
//! 1. **[`proto`]** — the protocol dispatcher. One [`Dispatcher`] turns a
//!    request line into a response [`proto::Reply`]; it owns the backend
//!    (whole-stream [`Engine`](pfe_engine::Engine) or sliding-window
//!    [`WindowedEngine`](pfe_window::WindowedEngine)) and the
//!    `server_stats` counters. Stdin (pipe) mode, TCP sessions, and tests
//!    all share this one definition, so transports can never drift. The
//!    protocol itself is one table, [`proto::OPS`]: per op its name,
//!    whether a read replica rejects it, its closed field set and its
//!    handler — dispatch, the per-op counters, the replica rule and the
//!    `docs/PROTOCOL.md` test all read it.
//! 2. **[`poll`] + [`framing`]** — the event-loop building blocks: a
//!    mio-style readiness poller (epoll on Linux, `poll(2)` elsewhere on
//!    Unix; the module exists on Unix only) and a resumable line framer that reassembles requests from
//!    arbitrary TCP chunkings and rejects oversized lines with a typed
//!    error.
//! 3. **[`Server`]** — the TCP listener and readiness loop. Sessions are
//!    event-driven (an idle connection costs one fd, no thread); request
//!    execution fans out over a bounded [`pool::WorkerPool`], and
//!    `workers + queue` bounds concurrently open sessions — beyond it a
//!    connection gets the typed `"code":"saturated"` rejection. Shutdown
//!    — via [`ServerHandle::shutdown`], the wire `shutdown` op, or
//!    SIGINT/SIGTERM ([`install_signal_handlers`]) — stops accepting,
//!    drains in-flight requests, and checkpoints the backend durably via
//!    `pfe-persist`.
//! 4. **[`replica`]** — snapshot-shipping replication: a writer
//!    checkpoints into a snapshot directory (atomic rename, monotonic
//!    epoch filenames); read replicas watch it and atomically swap new
//!    epochs in while serving, answering bit-identically to the writer
//!    at the same epoch.
//! 5. **[`Client`]** — a small synchronous client (one request line out,
//!    one response line back), the library behind `examples/client.rs`.
//!
//! A full round trip, in process:
//!
//! ```
//! use pfe_server::{Client, Server, ServerConfig};
//! use pfe_engine::Json;
//!
//! let server = Server::bind(ServerConfig::default()).unwrap();
//! let addr = server.local_addr();
//! let handle = server.handle();
//! let running = std::thread::spawn(move || server.run().unwrap());
//!
//! let mut client = Client::connect(addr).unwrap();
//! let r = client.request_line(r#"{"op":"start","d":8,"q":2,"shards":2}"#).unwrap();
//! assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
//! client.request_line(r#"{"op":"ingest","rows":[[0,1,0,0,1,0,1,1],[1,1,0,0,0,0,1,1]]}"#).unwrap();
//! client.request_line(r#"{"op":"snapshot"}"#).unwrap();
//! let r = client.request_line(r#"{"op":"f0","cols":[0,1,2]}"#).unwrap();
//! assert!(r.get("estimate").and_then(Json::as_f64).unwrap() >= 1.0);
//!
//! handle.shutdown();
//! running.join().unwrap();
//! ```
//!
//! `pfe serve` (`crates/cli`) runs this server from the command line
//! (`--listen`, or pipe mode without it), `crates/bench/benches/server.rs`
//! measures throughput and latency across connection and worker counts,
//! `scripts/load_test.sh` drives the writer + replica topology end to
//! end, and `docs/GUIDE.md` walks the whole install → ingest → query →
//! serve → scale-out path.

pub mod client;
pub mod framing;
#[cfg(unix)]
pub mod poll;
pub mod pool;
pub mod proto;
pub mod replica;
pub mod server;

pub use client::{Client, ClientError};
pub use framing::{FrameEvent, LineFramer};
pub use proto::{Control, Dispatcher};
pub use replica::{ReplicaSpec, ShipSpec};
pub use server::{
    install_signal_handlers, Server, ServerConfig, ServerError, ServerHandle, ShutdownReport,
};
