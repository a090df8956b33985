//! `pfe serve` — the wire protocol from the installed binary.
//!
//! The one front door onto the dispatcher: pipe mode (stdin/stdout) or
//! `--listen ADDR` (TCP). With `--resume SNAP` the backend comes up
//! pre-installed from a checkpoint (snapshot or window ring,
//! auto-detected) instead of waiting for a `start` request, so a server
//! can restart into its durable state in one command.
//!
//! Replication roles (TCP mode only): `--ship DIR` makes this server a
//! writer that periodically checkpoints into the snapshot directory;
//! `--replica-of DIR` (repeatable) makes it a read-only replica that
//! watches those directories and swaps new snapshots in while serving.
//! `pfe replica ADDR` reports a replica's health.

use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use pfe_server::proto::{Control, Dispatcher};
use pfe_server::{install_signal_handlers, ReplicaSpec, Server, ServerConfig, ShipSpec};
use pfe_window::Backend;

use crate::args::{engine_config, Args};

/// Install the `--resume` checkpoint (if any) into `dispatcher`.
fn preinstall(args: &Args, dispatcher: &Dispatcher) -> Result<(), String> {
    let Some(snap) = args.value("--resume") else {
        return Ok(());
    };
    let ecfg = engine_config(args)?;
    let recorder = Arc::clone(dispatcher.recorder());
    let backend = Backend::resume(snap, ecfg, recorder).map_err(|e| format!("{snap}: {e}"))?;
    let q = backend.alphabet();
    dispatcher.install(backend, q);
    eprintln!("resumed {snap} (q={q})");
    Ok(())
}

fn serve_tcp(args: &Args, listen: String) -> Result<i32, String> {
    let mut cfg = ServerConfig {
        addr: listen,
        ..Default::default()
    };
    if let Some(w) = args.parse("--workers")? {
        cfg.workers = w;
    }
    if let Some(q) = args.parse("--queue")? {
        cfg.queue = q;
    }
    if let Some(p) = args.value("--checkpoint") {
        cfg.checkpoint_path = Some(PathBuf::from(p));
    }
    if let Some(m) = args.value("--metrics") {
        cfg.metrics_addr = Some(m.to_string());
    }
    if let Some(ms) = args.parse("--slow-ms")? {
        cfg.slow_ms = Some(ms);
    }
    if let Some(n) = args.parse("--trace-sample")? {
        cfg.trace_sample = Some(n);
    }
    if let Some(n) = args.parse("--max-line")? {
        cfg.max_line_bytes = n;
    }
    if let Some(dir) = args.value("--ship") {
        let interval = args.parse("--ship-ms")?.unwrap_or(1000u64);
        cfg.ship = Some(ShipSpec {
            dir: PathBuf::from(dir),
            interval: Duration::from_millis(interval),
        });
    }
    let replica_dirs = args.values("--replica-of");
    if !replica_dirs.is_empty() {
        if args.value("--resume").is_some() {
            return Err("--replica-of and --resume are mutually exclusive: \
                        a replica's state comes from the watched snapshots"
                .to_string());
        }
        let poll = args.parse("--replica-poll-ms")?.unwrap_or(200u64);
        // Engine flags (--alpha, --kmv-k, ...) must match the writer's:
        // every loaded snapshot is verified against them, exactly as
        // `--resume` verifies.
        cfg.replica = Some(ReplicaSpec {
            dirs: replica_dirs.iter().map(PathBuf::from).collect(),
            poll: Duration::from_millis(poll),
            engine: engine_config(args)?,
        });
    }
    let server = Server::bind(cfg).map_err(|e| e.to_string())?;
    preinstall(args, server.dispatcher())?;
    install_signal_handlers();
    eprintln!("listening on {}", server.local_addr());
    if let Some(maddr) = server.metrics_addr() {
        eprintln!("metrics on {maddr}");
    }
    let report = server.run().map_err(|e| e.to_string())?;
    if let Some(path) = &report.checkpointed {
        eprintln!("checkpointed to {}", path.display());
    }
    eprintln!(
        "served {} connections, {} requests ({} rejected saturated)",
        report.connections_accepted, report.requests_handled, report.rejected_saturated
    );
    Ok(0)
}

fn serve_pipe(args: &Args) -> Result<i32, String> {
    let dispatcher = Dispatcher::new(args.value("--checkpoint").map(PathBuf::from));
    if let Some(n) = args.parse("--trace-sample")? {
        dispatcher.recorder().trace_store().set_sample(n);
    }
    preinstall(args, &dispatcher)?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let reply = dispatcher.handle_line(&line);
        writeln!(out, "{}", reply.json).map_err(|e| format!("stdout: {e}"))?;
        if !matches!(reply.control, Control::Continue) {
            // In pipe mode the session IS the server: when `shutdown`
            // ends the loop, write the configured checkpoint.
            if matches!(reply.control, Control::ShutdownServer) {
                match dispatcher.shutdown_checkpoint() {
                    Ok(Some(path)) => eprintln!("checkpointed to {}", path.display()),
                    Ok(None) => {}
                    Err(e) => eprintln!("shutdown checkpoint failed: {e}"),
                }
            }
            break;
        }
    }
    Ok(0)
}

/// `pfe serve [--listen ADDR] [--resume SNAP] [--ship DIR |
/// --replica-of DIR...] [server flags]`.
pub fn serve(args: &Args) -> Result<i32, String> {
    match args.value("--listen") {
        Some(listen) => serve_tcp(args, listen.to_string()),
        None => {
            if args.value("--ship").is_some() || !args.values("--replica-of").is_empty() {
                return Err(
                    "--ship/--replica-of require --listen: replication is a TCP-server role"
                        .to_string(),
                );
            }
            serve_pipe(args)
        }
    }
}
