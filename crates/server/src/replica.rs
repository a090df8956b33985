//! Snapshot-shipping replication: a writer periodically checkpoints its
//! plain engine into a snapshot directory; read replicas watch one or
//! more of those directories, merge the newest snapshot from each
//! (`merge_snapshot_files` — snapshot merge is associative and
//! commutative, so fanning several writers into one replica is the same
//! operation as loading one), and atomically swap the result in while
//! serving.
//!
//! The directory is the replication protocol:
//!
//! * Files are named `snap-<epoch:016x>.pfes`, so lexicographic order is
//!   epoch order and "the newest snapshot" is one sorted scan.
//! * A snapshot is written to a dotted temp name and `rename(2)`d into
//!   place — readers never observe a partial file through the protocol.
//!   (A *corrupt* file — truncated by a crashed writer before the
//!   rename, say — is still detected by the snapshot checksum on load;
//!   the replica keeps serving its previous epoch and logs a typed
//!   slow-log entry.)
//! * Shipped epochs strictly increase: the writer skips shipping when no
//!   rows arrived since the last ship, and every actual ship cuts a
//!   fresh snapshot (which bumps the engine epoch). That makes the
//!   replica's epoch-keyed answer cache safe across in-place swaps.
//!
//! Both roles run as plain threads beside the event loop, communicating
//! with sessions only through the [`Dispatcher`]'s atomics — replication
//! never blocks serving.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pfe_engine::{merge_snapshot_files, EngineConfig};

use crate::proto::Dispatcher;

/// Writer-side replication config: where to ship snapshots, and how
/// often to check for new rows.
#[derive(Debug, Clone)]
pub struct ShipSpec {
    /// The snapshot directory (created if missing). Point replicas at it.
    pub dir: PathBuf,
    /// How often to consider shipping (a ship only happens when rows
    /// arrived since the last one).
    pub interval: Duration,
}

/// Replica-side replication config: which directories to watch, how
/// often, and the engine parameters the snapshots were built with.
#[derive(Debug, Clone)]
pub struct ReplicaSpec {
    /// Snapshot directories to watch — one per writer; several merge.
    pub dirs: Vec<PathBuf>,
    /// Directory poll interval.
    pub poll: Duration,
    /// Engine parameters (`alpha`, `kmv_k`, `sample_t`, `seed`, …) —
    /// must match the writer's, exactly as `Engine::resume` requires;
    /// verified against every loaded snapshot.
    pub engine: EngineConfig,
}

/// How many shipped snapshots the writer retains per directory: enough
/// that a replica mid-download of epoch N survives N+1 landing, without
/// the directory growing forever.
const SHIPPED_RETAIN: usize = 4;

/// Sleep granularity for the shipper/watcher loops, so a stop request is
/// honored promptly even under long intervals.
const NAP: Duration = Duration::from_millis(20);

fn snapshot_file_name(epoch: u64) -> String {
    format!("snap-{epoch:016x}.pfes")
}

/// Parse the epoch out of a shipped snapshot filename; `None` for
/// anything that is not a `snap-<16 hex digits>.pfes` name (temp files,
/// stray editors droppings).
fn parse_epoch(file_name: &str) -> Option<u64> {
    let hex = file_name.strip_prefix("snap-")?.strip_suffix(".pfes")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// The newest shipped snapshot in `dir`: `(path, epoch)` of the highest
/// epoch-named file, or `None` for an empty/unreadable directory.
fn newest_snapshot(dir: &Path) -> Option<(PathBuf, u64)> {
    let mut best: Option<(PathBuf, u64)> = None;
    for entry in std::fs::read_dir(dir).ok()? {
        let entry = entry.ok()?;
        let name = entry.file_name();
        let Some(epoch) = parse_epoch(&name.to_string_lossy()) else {
            continue;
        };
        if best.as_ref().map(|&(_, e)| epoch > e).unwrap_or(true) {
            best = Some((entry.path(), epoch));
        }
    }
    best
}

/// Ship one snapshot if the engine grew since `last_rows`: cut a fresh
/// snapshot (bumping the epoch), write it to a temp file, and rename it
/// to its epoch name. Returns the shipped epoch, or `None` when there is
/// nothing to ship (no backend yet, or no new rows).
///
/// # Errors
/// A windowed backend (snapshots describe whole-stream state only), or
/// stringified engine/IO failures. The caller keeps serving either way.
pub fn ship_once(
    dispatcher: &Dispatcher,
    dir: &Path,
    last_rows: &mut Option<u64>,
) -> Result<Option<u64>, String> {
    let shipped = dispatcher
        .with_live_backend(|backend| -> Result<Option<u64>, String> {
            let engine = backend
                .plain()
                .ok_or("snapshot shipping requires a plain (whole-stream) engine")?;
            let rows = engine.stats().rows_ingested;
            if *last_rows == Some(rows) {
                return Ok(None);
            }
            let snap = engine.refresh().map_err(|e| e.to_string())?;
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            let final_path = dir.join(snapshot_file_name(snap.epoch()));
            let tmp_path = dir.join(format!(".snap-{:016x}.tmp", snap.epoch()));
            snap.save_to(&tmp_path).map_err(|e| e.to_string())?;
            std::fs::rename(&tmp_path, &final_path).map_err(|e| e.to_string())?;
            *last_rows = Some(rows);
            Ok(Some(snap.epoch()))
        })
        .unwrap_or(Ok(None))?; // nothing started yet
    if let Some(epoch) = shipped {
        let recorder = dispatcher.recorder();
        recorder.counter("server_snapshots_shipped").inc();
        recorder.gauge("server_shipped_epoch").set(epoch);
        prune_shipped(dir);
    }
    Ok(shipped)
}

/// Drop all but the newest [`SHIPPED_RETAIN`] shipped snapshots.
fn prune_shipped(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut epochs: Vec<(u64, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            parse_epoch(&e.file_name().to_string_lossy()).map(|epoch| (epoch, e.path()))
        })
        .collect();
    epochs.sort_by_key(|&(e, _)| std::cmp::Reverse(e));
    for (_, path) in epochs.into_iter().skip(SHIPPED_RETAIN) {
        let _ = std::fs::remove_file(path);
    }
}

/// Writer role: a thread shipping a snapshot every `spec.interval` while
/// rows keep arriving. Ship failures land in the slow log (once per
/// distinct error, not once per tick) and never stop the thread.
pub fn spawn_shipper(
    dispatcher: Arc<Dispatcher>,
    spec: ShipSpec,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let _ = std::fs::create_dir_all(&spec.dir);
        let mut last_rows: Option<u64> = None;
        let mut last_error: Option<String> = None;
        while !stop.load(Ordering::SeqCst) {
            // Nap towards the next tick, stopping promptly on request.
            let tick = Instant::now();
            while tick.elapsed() < spec.interval && !stop.load(Ordering::SeqCst) {
                std::thread::sleep(NAP.min(spec.interval));
            }
            if stop.load(Ordering::SeqCst) {
                break;
            }
            match ship_once(&dispatcher, &spec.dir, &mut last_rows) {
                Ok(_) => last_error = None,
                Err(e) => {
                    if last_error.as_deref() != Some(e.as_str()) {
                        dispatcher.recorder().slow_log().note(
                            "ship",
                            vec![
                                ("code".to_string(), "ship_failed".to_string()),
                                ("dir".to_string(), spec.dir.display().to_string()),
                                ("error".to_string(), e.clone()),
                            ],
                        );
                        last_error = Some(e);
                    }
                }
            }
        }
    })
}

/// Replica role: a thread polling the snapshot directories and swapping
/// newer merged snapshots into the dispatcher. A failed apply (corrupt,
/// truncated, incompatible) is recorded and *pinned*: that exact set of
/// source epochs is not retried, so a bad file cannot hot-loop the
/// watcher — the replica keeps serving its previous epoch until a writer
/// ships something new.
pub fn spawn_watcher(
    dispatcher: Arc<Dispatcher>,
    spec: ReplicaSpec,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        // Per-source epoch fingerprints of the last successful and the
        // last failed apply attempts.
        let mut applied: Option<Vec<u64>> = None;
        let mut failed: Option<Vec<u64>> = None;
        loop {
            watch_tick(&dispatcher, &spec, &mut applied, &mut failed);
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let tick = Instant::now();
            while tick.elapsed() < spec.poll && !stop.load(Ordering::SeqCst) {
                std::thread::sleep(NAP.min(spec.poll));
            }
            if stop.load(Ordering::SeqCst) {
                break;
            }
        }
    })
}

/// One watcher scan: find the newest snapshot per source directory and,
/// if the combination is new, merge and swap it in.
fn watch_tick(
    dispatcher: &Dispatcher,
    spec: &ReplicaSpec,
    applied: &mut Option<Vec<u64>>,
    failed: &mut Option<Vec<u64>>,
) {
    let mut files = Vec::with_capacity(spec.dirs.len());
    let mut fingerprint = Vec::with_capacity(spec.dirs.len());
    for dir in &spec.dirs {
        match newest_snapshot(dir) {
            Some((path, epoch)) => {
                files.push(path);
                fingerprint.push(epoch);
            }
            // A source with nothing shipped yet: wait for all writers
            // rather than serve a partial merge.
            None => return,
        }
    }
    if applied.as_ref() == Some(&fingerprint) || failed.as_ref() == Some(&fingerprint) {
        return;
    }
    // The mtime of the newest source file is the writer-side timestamp
    // replication lag is measured against. Captured before the (slow)
    // load so lag is never under-reported.
    let newest_mtime = files
        .iter()
        .filter_map(|p| std::fs::metadata(p).and_then(|m| m.modified()).ok())
        .max();
    let outcome = merge_snapshot_files(&files)
        .map_err(|e| e.to_string())
        .and_then(|snap| dispatcher.adopt_snapshot(snap, &spec.engine));
    match outcome {
        Ok(epoch) => {
            *applied = Some(fingerprint.clone());
            *failed = None;
            dispatcher.record_replica_apply(epoch, fingerprint, newest_mtime);
        }
        Err(e) => {
            *failed = Some(fingerprint);
            let shown = files
                .iter()
                .map(|p| p.display().to_string())
                .collect::<Vec<_>>()
                .join(",");
            dispatcher.record_replica_failure(&shown, &e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_filenames_roundtrip_and_sort_lexicographically() {
        assert_eq!(parse_epoch(&snapshot_file_name(7)), Some(7));
        assert_eq!(parse_epoch(&snapshot_file_name(u64::MAX)), Some(u64::MAX));
        assert_eq!(parse_epoch("snap-0000000000000010.pfes"), Some(16));
        assert_eq!(parse_epoch(".snap-0000000000000010.tmp"), None);
        assert_eq!(parse_epoch("snap-10.pfes"), None, "unpadded names rejected");
        assert_eq!(parse_epoch("other.pfes"), None);
        // Zero-padded hex means max-by-epoch == max-by-name.
        let (a, b) = (snapshot_file_name(9), snapshot_file_name(10));
        assert!(b > a);
    }

    #[test]
    fn newest_snapshot_picks_the_highest_epoch_and_skips_temp_files() {
        let dir = std::env::temp_dir().join(format!("pfe-replica-scan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        assert_eq!(newest_snapshot(&dir), None, "empty dir");
        for name in [
            &snapshot_file_name(3),
            &snapshot_file_name(11),
            ".snap-00000000000000ff.tmp",
            "README",
        ] {
            std::fs::write(dir.join(name), b"x").expect("write");
        }
        let (path, epoch) = newest_snapshot(&dir).expect("found");
        assert_eq!(epoch, 11);
        assert_eq!(path, dir.join(snapshot_file_name(11)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_the_newest_retained_snapshots() {
        let dir = std::env::temp_dir().join(format!("pfe-replica-prune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        for epoch in 1..=7u64 {
            std::fs::write(dir.join(snapshot_file_name(epoch)), b"x").expect("write");
        }
        prune_shipped(&dir);
        let mut left: Vec<u64> = std::fs::read_dir(&dir)
            .expect("read dir")
            .flatten()
            .filter_map(|e| parse_epoch(&e.file_name().to_string_lossy()))
            .collect();
        left.sort_unstable();
        assert_eq!(left, vec![4, 5, 6, 7]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
