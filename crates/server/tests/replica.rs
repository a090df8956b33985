//! Replication end-to-end: a writer shipping snapshots into a directory,
//! a read replica watching it — answers must be bit-identical to the
//! writer at the same epoch, mutation ops must be the typed `read_only`
//! rejection, and a corrupt snapshot must leave the replica serving its
//! previous epoch with a typed slow-log entry, never crash it.

use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pfe_engine::{EngineConfig, Json};
use pfe_server::{
    Client, ReplicaSpec, Server, ServerConfig, ServerHandle, ShipSpec, ShutdownReport,
};
use pfe_stream::gen::uniform_binary;

const D: u32 = 8;
const ROWS: usize = 400;

fn test_cfg() -> EngineConfig {
    EngineConfig {
        shards: 2,
        sample_t: 128,
        kmv_k: 32,
        seed: 3,
        ..Default::default()
    }
}

fn start_line() -> String {
    let cfg = test_cfg();
    format!(
        r#"{{"op":"start","d":{D},"q":2,"shards":{},"sample_t":{},"kmv_k":{},"seed":{}}}"#,
        cfg.shards, cfg.sample_t, cfg.kmv_k, cfg.seed
    )
}

fn dense_rows(rows: usize, seed: u64) -> Vec<Vec<u16>> {
    let data = uniform_binary(D, rows, seed);
    let packed = match data {
        pfe_row::Dataset::Binary(m) => m.rows().to_vec(),
        pfe_row::Dataset::Qary(_) => unreachable!("generator yields binary data"),
    };
    packed
        .iter()
        .map(|row| (0..D).map(|i| ((row >> i) & 1) as u16).collect())
        .collect()
}

fn ingest(client: &mut Client, rows: &[Vec<u16>]) {
    for chunk in rows.chunks(200) {
        let body: Vec<String> = chunk
            .iter()
            .map(|r| {
                let syms: Vec<String> = r.iter().map(|s| s.to_string()).collect();
                format!("[{}]", syms.join(","))
            })
            .collect();
        let line = format!(r#"{{"op":"ingest","rows":[{}]}}"#, body.join(","));
        let r = client.request_line(&line).expect("ingest");
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "ingest failed: {r}");
    }
}

fn requests() -> Vec<String> {
    vec![
        r#"{"op":"f0","cols":[0,1,2,3]}"#.to_string(),
        r#"{"op":"frequency","cols":[0,1],"pattern":[1,1]}"#.to_string(),
        r#"{"op":"heavy_hitters","cols":[0,1,2],"phi":0.05}"#.to_string(),
        r#"{"op":"l1_sample","cols":[0,1,2],"k":4,"seed":7}"#.to_string(),
    ]
}

/// Strip only the cache metadata — `epoch` stays, because replica parity
/// is claimed *at the same epoch*.
fn strip_cost(json: &Json) -> Json {
    match json {
        Json::Obj(map) => Json::Obj(
            map.iter()
                .filter(|(k, _)| !matches!(k.as_str(), "cached" | "group_size" | "trace_id"))
                .map(|(k, v)| (k.clone(), strip_cost(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip_cost).collect()),
        other => other.clone(),
    }
}

fn answers(client: &mut Client) -> Vec<Json> {
    requests()
        .iter()
        .map(|req| strip_cost(&client.request_line(req).expect("query")))
        .collect()
}

fn spawn(cfg: ServerConfig) -> (ServerHandle, JoinHandle<ShutdownReport>) {
    let server = Server::bind(cfg).expect("bind");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run"));
    (handle, join)
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pfe-replica-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir
}

/// Poll until `cond` holds or panic with `what` after 15 s.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

struct Pair {
    dir: PathBuf,
    writer: (ServerHandle, JoinHandle<ShutdownReport>),
    replica: (ServerHandle, JoinHandle<ShutdownReport>),
    writer_client: Client,
    replica_client: Client,
}

/// A writer shipping every 50 ms, fed with the test stream, and a
/// replica that has fully caught up to it.
fn converged_pair(name: &str) -> Pair {
    let dir = fresh_dir(name);
    let writer = spawn(ServerConfig {
        poll_interval: Duration::from_millis(5),
        ship: Some(ShipSpec {
            dir: dir.clone(),
            interval: Duration::from_millis(50),
        }),
        ..Default::default()
    });
    let mut writer_client = Client::connect(writer.0.addr()).expect("connect writer");
    writer_client.request_line(&start_line()).expect("start");
    ingest(&mut writer_client, &dense_rows(ROWS, 11));

    let replica = spawn(ServerConfig {
        poll_interval: Duration::from_millis(5),
        replica: Some(ReplicaSpec {
            dirs: vec![dir.clone()],
            poll: Duration::from_millis(50),
            engine: test_cfg(),
        }),
        ..Default::default()
    });
    let mut replica_client = Client::connect(replica.0.addr()).expect("connect replica");

    // Converged = the replica answers the first probe bit-identically
    // (same values AND same epoch); the shipper stops moving the epoch
    // once ingest is done, so this settles.
    let probe = &requests()[0];
    wait_for("replica catch-up", || {
        let w = writer_client.request_line(probe).expect("writer probe");
        let r = replica_client.request_line(probe).expect("replica probe");
        r.get("ok") == Some(&Json::Bool(true)) && strip_cost(&w) == strip_cost(&r)
    });
    let mut pair = Pair {
        dir,
        writer,
        replica,
        writer_client,
        replica_client,
    };
    wait_applied_newest(&mut pair);
    pair
}

/// Wait until the replica has applied the writer's newest shipped epoch,
/// and that epoch is the snapshot the writer serves, holding every row it
/// took. A probe answered alike at some epoch is not enough: a ship still
/// due could land between that probe and the checks after it. Here none
/// is due — the shipper ships only when rows grew since its last ship.
fn wait_applied_newest(pair: &mut Pair) {
    wait_for("the replica to apply the newest shipped epoch", || {
        let newest = Some(newest_epoch(&pair.dir) as f64);
        let writer = pair
            .writer_client
            .request_line(r#"{"op":"stats"}"#)
            .expect("writer stats");
        let replica = pair
            .replica_client
            .request_line(r#"{"op":"replica_stats"}"#)
            .expect("replica_stats");
        replica.get("epoch").and_then(Json::as_f64) == newest
            && writer.get("snapshot_epoch").and_then(Json::as_f64) == newest
            && writer.get("snapshot_rows") == writer.get("rows_ingested")
    });
}

fn shutdown(pair: Pair) {
    pair.writer.0.shutdown();
    pair.replica.0.shutdown();
    pair.writer.1.join().expect("writer");
    pair.replica.1.join().expect("replica");
    let _ = std::fs::remove_dir_all(&pair.dir);
}

/// Newest shipped epoch in the snapshot directory, by filename.
fn newest_epoch(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let hex = name.strip_prefix("snap-")?.strip_suffix(".pfes")?;
            u64::from_str_radix(hex, 16).ok()
        })
        .max()
        .expect("at least one shipped snapshot")
}

#[test]
fn replica_is_bit_identical_to_writer_at_the_same_epoch() {
    let mut pair = converged_pair("parity");

    // Every statistic, bit-for-bit including the epoch field.
    let from_writer = answers(&mut pair.writer_client);
    let from_replica = answers(&mut pair.replica_client);
    assert_eq!(
        from_writer, from_replica,
        "replica diverges from writer at the same epoch"
    );

    // replica_stats tells the whole story on the replica...
    let stats = pair
        .replica_client
        .request_line(r#"{"op":"replica_stats"}"#)
        .expect("replica_stats");
    assert_eq!(stats.get("replica"), Some(&Json::Bool(true)));
    assert!(
        stats.get("applies").and_then(Json::as_f64) >= Some(1.0),
        "no applies recorded: {stats}"
    );
    assert_eq!(stats.get("failures").and_then(Json::as_f64), Some(0.0));
    assert_eq!(
        stats.get("epoch").and_then(Json::as_f64),
        Some(newest_epoch(&pair.dir) as f64),
        "applied epoch is not the newest shipped one"
    );
    assert!(
        stats.get("lag_ms").and_then(Json::as_f64).is_some(),
        "lag should be measurable after an apply: {stats}"
    );
    // ...and a writer reports it is not a replica.
    let stats = pair
        .writer_client
        .request_line(r#"{"op":"replica_stats"}"#)
        .expect("replica_stats");
    assert_eq!(stats.get("replica"), Some(&Json::Bool(false)));

    // Mutations against the replica are the typed read-only rejection.
    for req in [
        start_line(),
        r#"{"op":"ingest","rows":[[0,1,0,1,0,1,0,1]]}"#.to_string(),
        r#"{"op":"snapshot"}"#.to_string(),
        r#"{"op":"checkpoint"}"#.to_string(),
    ] {
        let reply = pair.replica_client.request_line(&req).expect("request");
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "accepted: {req}");
        assert_eq!(
            reply.get("code").and_then(Json::as_str),
            Some("read_only"),
            "rejection must be machine-matchable: {reply}"
        );
    }
    shutdown(pair);
}

#[test]
fn corrupt_snapshot_keeps_previous_epoch_and_logs_typed_failure() {
    let mut pair = converged_pair("corrupt");
    let baseline = answers(&mut pair.replica_client);
    let good_epoch = newest_epoch(&pair.dir);

    // An attractive lie: a higher epoch than anything real, garbage
    // inside. The watcher must try it, fail, and pin it as failed.
    let corrupt = pair.dir.join(format!("snap-{:016x}.pfes", good_epoch + 50));
    std::fs::write(&corrupt, b"not a snapshot at all").expect("write corrupt");

    let mut replica_stats = Json::Bool(false);
    wait_for("apply failure to be counted", || {
        replica_stats = pair
            .replica_client
            .request_line(r#"{"op":"replica_stats"}"#)
            .expect("replica_stats");
        replica_stats.get("failures").and_then(Json::as_f64) >= Some(1.0)
    });

    // Still serving, still the good epoch, bit-identical answers.
    assert_eq!(
        replica_stats.get("epoch").and_then(Json::as_f64),
        Some(good_epoch as f64),
        "corrupt snapshot moved the epoch: {replica_stats}"
    );
    assert!(
        replica_stats
            .get("last_error")
            .and_then(Json::as_str)
            .is_some(),
        "failure should be surfaced: {replica_stats}"
    );
    assert_eq!(
        answers(&mut pair.replica_client),
        baseline,
        "replica answers changed after a failed apply"
    );

    // The failure landed in the slow log as a typed entry.
    let log = pair
        .replica_client
        .request_line(r#"{"op":"slow_log"}"#)
        .expect("slow_log");
    let found = log
        .get("entries")
        .and_then(Json::as_arr)
        .map(|entries| {
            entries.iter().any(|e| {
                e.get("what").and_then(Json::as_str) == Some("replica")
                    && e.get("detail")
                        .and_then(|d| d.get("code"))
                        .and_then(Json::as_str)
                        == Some("replica_apply_failed")
            })
        })
        .unwrap_or(false);
    assert!(found, "no typed replica failure in the slow log: {log}");

    // Operator deletes the bad file, the writer moves on: the replica
    // recovers onto the next good epoch without a restart.
    std::fs::remove_file(&corrupt).expect("remove corrupt");
    ingest(&mut pair.writer_client, &dense_rows(200, 23));
    let probe = &requests()[0];
    wait_for("recovery onto the next good epoch", || {
        let w = pair
            .writer_client
            .request_line(probe)
            .expect("writer probe");
        let r = pair
            .replica_client
            .request_line(probe)
            .expect("replica probe");
        strip_cost(&w) == strip_cost(&r)
    });
    wait_applied_newest(&mut pair);
    assert_eq!(
        answers(&mut pair.writer_client),
        answers(&mut pair.replica_client),
        "replica diverges from writer after recovery"
    );
    shutdown(pair);
}
