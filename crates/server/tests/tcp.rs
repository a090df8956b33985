//! End-to-end TCP integration: a real server on an ephemeral port, real
//! sockets, concurrent clients — answers must be bit-identical to direct
//! library calls, saturation must be the typed rejection, and the
//! shutdown checkpoint must resume bit-exactly.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use pfe_engine::{wire, Engine, EngineConfig, Json, Query};
use pfe_server::{Client, ClientError, Server, ServerConfig, ServerHandle, ShutdownReport};
use pfe_stream::gen::uniform_binary;
use pfe_window::{WindowConfig, WindowedEngine};

const D: u32 = 10;
const ROWS: usize = 1500;

/// The engine shape used on both sides of every parity check; the JSON
/// `start` request and the direct engine must agree on every parameter.
fn test_cfg() -> EngineConfig {
    EngineConfig {
        shards: 2,
        sample_t: 512,
        kmv_k: 64,
        seed: 3,
        fp: Some(pfe_engine::FpConfig {
            orders: vec![2.0, 1.5],
            stable_t: 4,
            ams_groups: 3,
            ams_per_group: 4,
        }),
        ..Default::default()
    }
}

fn start_request(window: Option<&str>) -> String {
    let cfg = test_cfg();
    let window = window
        .map(|w| format!(r#","window":{w}"#))
        .unwrap_or_default();
    let fp = cfg.fp.expect("test config enables fp");
    format!(
        concat!(
            r#"{{"op":"start","d":{d},"q":2,"shards":{shards},"sample_t":{sample_t},"#,
            r#""kmv_k":{kmv_k},"seed":{seed},"fp":{{"orders":[2.0,1.5],"stable_t":{stable_t},"#,
            r#""ams_groups":{ams_groups},"ams_per_group":{ams_per_group}}}{window}}}"#
        ),
        d = D,
        shards = cfg.shards,
        sample_t = cfg.sample_t,
        kmv_k = cfg.kmv_k,
        seed = cfg.seed,
        stable_t = fp.stable_t,
        ams_groups = fp.ams_groups,
        ams_per_group = fp.ams_per_group,
        window = window
    )
}

fn test_wcfg() -> WindowConfig {
    WindowConfig {
        bucket_rows: 128,
        tier_cap: 3,
        max_tiers: 4,
        merged_cache: 4,
    }
}

/// Dense rows of the deterministic test stream, in ingest order.
fn dense_rows(seed: u64) -> Vec<Vec<u16>> {
    let data = uniform_binary(D, ROWS, seed);
    let packed = match data {
        pfe_row::Dataset::Binary(m) => m.rows().to_vec(),
        pfe_row::Dataset::Qary(_) => unreachable!("generator yields binary data"),
    };
    packed
        .iter()
        .map(|row| (0..D).map(|i| ((row >> i) & 1) as u16).collect())
        .collect()
}

/// Serialize dense rows as `ingest` request lines (chunked).
fn ingest_lines(rows: &[Vec<u16>]) -> Vec<String> {
    rows.chunks(500)
        .map(|chunk| {
            let body: Vec<String> = chunk
                .iter()
                .map(|r| {
                    let syms: Vec<String> = r.iter().map(|s| s.to_string()).collect();
                    format!("[{}]", syms.join(","))
                })
                .collect();
            format!(r#"{{"op":"ingest","rows":[{}]}}"#, body.join(","))
        })
        .collect()
}

/// Remove the fields that legitimately differ between a shared-cache
/// concurrent server and a fresh direct engine (`cached`, `group_size`,
/// and the per-request `trace_id` echo), recursively — batch responses
/// nest answers.
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

/// `strip_cost` plus `epoch` (recursively — batch responses nest
/// answers): checkpointing bumps the plain engine's epoch, so resume
/// parity compares values/guarantees/provenance only.
fn strip_cost_and_epoch(json: &Json) -> Json {
    match json {
        Json::Obj(map) => Json::Obj(
            map.iter()
                .filter(|(k, _)| {
                    !matches!(k.as_str(), "cached" | "group_size" | "epoch" | "trace_id")
                })
                .map(|(k, v)| (k.clone(), strip_cost_and_epoch(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip_cost_and_epoch).collect()),
        other => other.clone(),
    }
}

fn spawn_server(cfg: ServerConfig) -> (ServerHandle, JoinHandle<ShutdownReport>) {
    let server = Server::bind(cfg).expect("bind");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run"));
    (handle, join)
}

fn quick_poll() -> ServerConfig {
    ServerConfig {
        poll_interval: Duration::from_millis(5),
        ..Default::default()
    }
}

/// The statistic requests every parity check issues: all five statistics
/// (`F_p` at both plug-in families) plus a mask-colliding batch,
/// optionally windowed.
fn statistic_requests(window: Option<u64>) -> Vec<String> {
    let w = window
        .map(|n| format!(r#","window":{n}"#))
        .unwrap_or_default();
    vec![
        format!(r#"{{"op":"f0","cols":[0,1,2,3,4,5]{w}}}"#),
        format!(r#"{{"op":"f0","cols":[0,1]{w}}}"#),
        format!(r#"{{"op":"frequency","cols":[0,1],"pattern":[1,1]{w}}}"#),
        format!(r#"{{"op":"heavy_hitters","cols":[0,1,2],"phi":0.05{w}}}"#),
        format!(r#"{{"op":"l1_sample","cols":[0,1,2],"k":8,"seed":7{w}}}"#),
        format!(r#"{{"op":"fp","cols":[0,1,2,3,4,5],"p":2.0{w}}}"#),
        format!(r#"{{"op":"fp","cols":[0,1],"p":1.5{w}}}"#),
        format!(
            r#"{{"op":"batch","queries":[{{"op":"f0","cols":[0,1,2,3,4,5]{w}}},{{"op":"fp","cols":[0,1,2,3,4,5],"p":2.0{w}}},{{"op":"heavy_hitters","cols":[0,1,2],"phi":0.05{w}}}]}}"#
        ),
    ]
}

#[test]
fn concurrent_clients_match_direct_engine_bit_for_bit() {
    let rows = dense_rows(1);

    // The direct side: same config, same rows, same order.
    let direct = Engine::start(D, 2, test_cfg()).expect("start");
    for row in &rows {
        direct.push_dense_batch(row).expect("push");
    }
    direct.refresh().expect("refresh");
    let expected: Vec<Json> = statistic_requests(None)
        .iter()
        .map(|req_line| {
            let req = Json::parse(req_line).expect("valid request");
            match req.get("op").and_then(Json::as_str) {
                Some("batch") => {
                    let queries: Vec<Query> = req
                        .get("queries")
                        .and_then(Json::as_arr)
                        .expect("queries")
                        .iter()
                        .map(|q| wire::query_from_json(q).expect("parse"))
                        .collect();
                    let answers: Vec<Json> = direct
                        .query_batch(&queries)
                        .into_iter()
                        .map(|a| wire::answer_to_json(&a.expect("ok"), 2))
                        .collect();
                    Json::obj([("ok", Json::Bool(true)), ("answers", Json::Arr(answers))])
                }
                _ => {
                    let q = wire::query_from_json(&req).expect("parse");
                    wire::answer_to_json(&direct.query(&q).expect("ok"), 2)
                }
            }
        })
        .map(|j| strip_cost(&j))
        .collect();
    let expected = Arc::new(expected);

    // The served side: one engine, started and fed over the wire.
    let (handle, join) = spawn_server(quick_poll());
    let addr = handle.addr();
    let mut feeder = Client::connect(addr).expect("connect");
    feeder.request_line(&start_request(None)).expect("start");
    for line in ingest_lines(&rows) {
        let r = feeder.request_line(&line).expect("ingest");
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "ingest failed: {r}");
    }
    let r = feeder
        .request_line(r#"{"op":"snapshot"}"#)
        .expect("snapshot");
    assert_eq!(r.get("epoch").and_then(Json::as_f64), Some(1.0));

    // N concurrent clients, interleaved statistics, several rounds each.
    let mut clients = Vec::new();
    for t in 0..4u64 {
        let expected = Arc::clone(&expected);
        clients.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            for round in 0..3 {
                for step in 0..statistic_requests(None).len() {
                    // Interleave: each thread walks the list from its own
                    // offset so different statistics overlap in flight.
                    let i = (step + t as usize + round) % expected.len();
                    let req = &statistic_requests(None)[i];
                    let resp = client.request_line(req).expect("query");
                    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "failed: {resp}");
                    assert_eq!(
                        strip_cost(&resp),
                        expected[i],
                        "served answer diverges from direct call for {req}"
                    );
                }
            }
            // quit closes this session; the server keeps running.
            let bye = client.request_line(r#"{"op":"quit"}"#).expect("quit");
            assert_eq!(bye.get("bye"), Some(&Json::Bool(true)));
        }));
    }
    for c in clients {
        c.join().expect("client thread");
    }

    // The feeder session survived its neighbors quitting.
    let stats = feeder
        .request_line(r#"{"op":"server_stats"}"#)
        .expect("stats");
    assert_eq!(
        stats.get("connections_accepted").and_then(Json::as_f64),
        Some(5.0)
    );
    assert_eq!(
        stats
            .get("engine")
            .and_then(|e| e.get("rows_ingested"))
            .and_then(Json::as_f64),
        Some(ROWS as f64)
    );

    handle.shutdown();
    let report = join.join().expect("server thread");
    assert_eq!(report.connections_accepted, 5);
    assert_eq!(report.rejected_saturated, 0);
}

#[test]
fn windowed_backend_matches_direct_windowed_engine() {
    let rows = dense_rows(2);

    let direct = WindowedEngine::start(D, 2, test_cfg(), test_wcfg()).expect("start");
    for row in &rows {
        direct.push_dense_batch(row).expect("push");
    }

    let (handle, join) = spawn_server(quick_poll());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let wcfg = test_wcfg();
    let win = format!(
        r#"{{"bucket_rows":{},"tier_cap":{},"max_tiers":{},"merged_cache":{}}}"#,
        wcfg.bucket_rows, wcfg.tier_cap, wcfg.max_tiers, wcfg.merged_cache
    );
    let r = client
        .request_line(&start_request(Some(&win)))
        .expect("start");
    assert_eq!(r.get("windowed"), Some(&Json::Bool(true)));
    for line in ingest_lines(&rows) {
        client.request_line(&line).expect("ingest");
    }

    // Windowed and whole-retention answers, including the fingerprint
    // epoch and the reported coverage, must be bit-identical: the ring
    // states are equal, so nothing may differ but cache metadata.
    for window in [Some(300u64), Some(1000), None] {
        for req_line in statistic_requests(window) {
            let req = Json::parse(&req_line).expect("valid");
            let served = client.request_line(&req_line).expect("query");
            assert_eq!(
                served.get("ok"),
                Some(&Json::Bool(true)),
                "failed: {served}"
            );
            let expect = match req.get("op").and_then(Json::as_str) {
                Some("batch") => {
                    let queries: Vec<Query> = req
                        .get("queries")
                        .and_then(Json::as_arr)
                        .expect("queries")
                        .iter()
                        .map(|q| wire::query_from_json(q).expect("parse"))
                        .collect();
                    let answers: Vec<Json> = direct
                        .query_batch(&queries)
                        .into_iter()
                        .map(|a| wire::answer_to_json(&a.expect("ok"), 2))
                        .collect();
                    Json::obj([("ok", Json::Bool(true)), ("answers", Json::Arr(answers))])
                }
                _ => {
                    let q = wire::query_from_json(&req).expect("parse");
                    wire::answer_to_json(&direct.query(&q).expect("ok"), 2)
                }
            };
            assert_eq!(
                strip_cost(&served),
                strip_cost(&expect),
                "diverges for {req_line}"
            );
        }
    }

    let ws = client.request_line(r#"{"op":"window_stats"}"#).expect("ws");
    assert_eq!(
        ws.get("retained_rows").and_then(Json::as_f64),
        Some(direct.retained_rows() as f64)
    );

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn metrics_counters_account_for_every_concurrent_request_exactly() {
    // N clients each issue a known op mix; afterwards the `metrics` op
    // must account for every request exactly — counter totals and
    // latency-histogram counts both — with no loss under concurrency.
    const CLIENTS: u64 = 4;
    const MIX: &[(&str, usize)] = &[
        ("f0", 5),
        ("frequency", 3),
        ("heavy_hitters", 2),
        ("l1_sample", 1),
        ("fp", 2),
        ("stats", 1),
    ];
    fn req_for(op: &str) -> String {
        match op {
            "f0" => r#"{"op":"f0","cols":[0,1,2,3]}"#.to_string(),
            "frequency" => r#"{"op":"frequency","cols":[0,1],"pattern":[1,1]}"#.to_string(),
            "heavy_hitters" => r#"{"op":"heavy_hitters","cols":[0,1,2],"phi":0.05}"#.to_string(),
            "l1_sample" => r#"{"op":"l1_sample","cols":[0,1],"k":4,"seed":7}"#.to_string(),
            "fp" => r#"{"op":"fp","cols":[0,1,2],"p":1.5}"#.to_string(),
            other => format!(r#"{{"op":"{other}"}}"#),
        }
    }

    let rows = dense_rows(5);
    let (handle, join) = spawn_server(quick_poll());
    let addr = handle.addr();
    let mut feeder = Client::connect(addr).expect("connect");
    feeder.request_line(&start_request(None)).expect("start");
    let ingest_requests = ingest_lines(&rows);
    for line in &ingest_requests {
        feeder.request_line(line).expect("ingest");
    }
    feeder
        .request_line(r#"{"op":"snapshot"}"#)
        .expect("snapshot");

    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for &(op, n) in MIX {
                    for _ in 0..n {
                        let r = client.request_line(&req_for(op)).expect("request");
                        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "failed: {r}");
                    }
                }
                client.request_line(r#"{"op":"quit"}"#).expect("quit");
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    let m = feeder.request_line(r#"{"op":"metrics"}"#).expect("metrics");
    let counters = m.get("counters").expect("counters");
    let histograms = m.get("histograms").expect("histograms");
    let counter = |name: &str| counters.get(name).and_then(Json::as_f64).unwrap_or(0.0);
    let hist_count = |name: &str| {
        histograms
            .get(name)
            .and_then(|h| h.get("count"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };

    // Per-op request counters and latency histograms agree with each
    // other and with what the clients actually sent.
    let mut total = 0.0;
    for &(op, n) in MIX {
        let sent = (CLIENTS as usize * n) as f64;
        assert_eq!(counter(&format!("server_op_requests_{op}")), sent, "{op}");
        assert_eq!(
            hist_count(&format!("server_op_latency_ns_{op}")),
            sent,
            "latency count for {op}"
        );
        total += sent;
    }
    assert_eq!(counter("server_op_requests_quit"), CLIENTS as f64);
    assert_eq!(counter("server_op_requests_start"), 1.0);
    assert_eq!(counter("server_op_requests_snapshot"), 1.0);
    assert_eq!(
        counter("server_op_requests_ingest"),
        ingest_requests.len() as f64
    );
    // Everything the feeder + clients sent before this metrics request.
    total += (CLIENTS + 2) as f64 + ingest_requests.len() as f64;
    assert_eq!(counter("server_requests_handled"), total);
    assert_eq!(counter("server_connections_accepted"), (CLIENTS + 1) as f64);

    // The engine saw exactly one query per statistic request, and its
    // per-statistic latency histograms counted every one — `fp` included.
    for &(op, n) in &MIX[..5] {
        let sent = (CLIENTS as usize * n) as f64;
        assert_eq!(counter(&format!("engine_queries_{op}")), sent, "{op}");
        assert_eq!(
            hist_count(&format!("engine_query_latency_ns_{op}")),
            sent,
            "engine latency count for {op}"
        );
    }

    handle.shutdown();
    let report = join.join().expect("server thread");
    assert_eq!(report.requests_handled, total as u64 + 1); // + the metrics op
}

#[test]
fn saturation_is_a_typed_rejection_not_a_queue() {
    // One worker, rendezvous queue: the first connection owns the worker
    // for its whole session, so the second must bounce.
    let (handle, join) = spawn_server(ServerConfig {
        workers: 1,
        queue: 0,
        ..quick_poll()
    });
    let mut first = Client::connect(handle.addr()).expect("connect");
    // A round trip proves the worker has picked this session up.
    first.request_line(&start_request(None)).expect("start");

    let mut second = Client::connect(handle.addr()).expect("connect");
    let rejection = second.read_response().expect("rejection line");
    assert_eq!(rejection.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        rejection.get("code").and_then(Json::as_str),
        Some("saturated"),
        "rejection must be machine-matchable: {rejection}"
    );
    // The rejected connection is closed, not queued.
    assert!(matches!(
        second.request_line(r#"{"op":"stats"}"#),
        Err(ClientError::ServerClosed) | Err(ClientError::Io(_))
    ));

    // The server told the first session about the rejection…
    let stats = first
        .request_line(r#"{"op":"server_stats"}"#)
        .expect("stats");
    assert_eq!(
        stats.get("rejected_saturated").and_then(Json::as_f64),
        Some(1.0)
    );
    // …and once the worker frees up, new connections are served again.
    let bye = first.request_line(r#"{"op":"quit"}"#).expect("quit");
    assert_eq!(bye.get("bye"), Some(&Json::Bool(true)));
    let mut third = loop {
        // The worker needs a poll tick to return to the queue.
        let mut c = Client::connect(handle.addr()).expect("connect");
        match c.request_line(r#"{"op":"server_stats"}"#) {
            Ok(_) => break c,
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    third.request_line(r#"{"op":"quit"}"#).expect("quit");

    handle.shutdown();
    let report = join.join().expect("server thread");
    assert_eq!(report.rejected_saturated, 1);
}

#[test]
fn shutdown_op_checkpoints_and_resume_is_bit_exact() {
    let dir = std::env::temp_dir().join("pfe-server-tcp-shutdown");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("engine.pfes");
    std::fs::remove_file(&path).ok();

    let rows = dense_rows(3);
    let (handle, join) = spawn_server(ServerConfig {
        checkpoint_path: Some(path.clone()),
        ..quick_poll()
    });
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.request_line(&start_request(None)).expect("start");
    for line in ingest_lines(&rows) {
        client.request_line(&line).expect("ingest");
    }
    client
        .request_line(r#"{"op":"snapshot"}"#)
        .expect("snapshot");
    let before: Vec<Json> = statistic_requests(None)
        .iter()
        .map(|req| strip_cost_and_epoch(&client.request_line(req).expect("query")))
        .collect();

    // The wire shutdown: the reply announces the configured path, then
    // the server drains every session and writes the checkpoint — so
    // requests acknowledged during the drain are always included.
    let r = client
        .request_line(r#"{"op":"shutdown"}"#)
        .expect("shutdown");
    assert_eq!(
        r.get("checkpoint").and_then(Json::as_str),
        Some(path.display().to_string().as_str())
    );
    let report = join.join().expect("server thread");
    assert_eq!(report.checkpointed, Some(path.clone()));
    assert!(path.exists());

    // Resume the checkpoint directly: every statistic answers
    // bit-identically (modulo the snapshot epoch, which the checkpoint's
    // refresh advanced).
    let resumed = Engine::resume(&path, test_cfg()).expect("resume");
    for (req_line, before) in statistic_requests(None).iter().zip(&before) {
        let req = Json::parse(req_line).expect("valid");
        let after = match req.get("op").and_then(Json::as_str) {
            Some("batch") => {
                let queries: Vec<Query> = req
                    .get("queries")
                    .and_then(Json::as_arr)
                    .expect("queries")
                    .iter()
                    .map(|q| wire::query_from_json(q).expect("parse"))
                    .collect();
                let answers: Vec<Json> = resumed
                    .query_batch(&queries)
                    .into_iter()
                    .map(|a| wire::answer_to_json(&a.expect("ok"), 2))
                    .collect();
                Json::obj([("ok", Json::Bool(true)), ("answers", Json::Arr(answers))])
            }
            _ => {
                let q = wire::query_from_json(&req).expect("parse");
                wire::answer_to_json(&resumed.query(&q).expect("ok"), 2)
            }
        };
        assert_eq!(
            &strip_cost_and_epoch(&after),
            before,
            "resumed answer diverges for {req_line}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn windowed_shutdown_checkpoint_resumes_bit_exact() {
    let dir = std::env::temp_dir().join("pfe-server-tcp-shutdown-window");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("ring.pfew");
    std::fs::remove_file(&path).ok();

    let rows = dense_rows(4);
    let (handle, join) = spawn_server(ServerConfig {
        checkpoint_path: Some(path.clone()),
        ..quick_poll()
    });
    let mut client = Client::connect(handle.addr()).expect("connect");
    let wcfg = test_wcfg();
    let win = format!(
        r#"{{"bucket_rows":{},"tier_cap":{},"max_tiers":{},"merged_cache":{}}}"#,
        wcfg.bucket_rows, wcfg.tier_cap, wcfg.max_tiers, wcfg.merged_cache
    );
    client
        .request_line(&start_request(Some(&win)))
        .expect("start");
    for line in ingest_lines(&rows) {
        client.request_line(&line).expect("ingest");
    }
    let before: Vec<Json> = statistic_requests(Some(400))
        .iter()
        .map(|req| strip_cost(&client.request_line(req).expect("query")))
        .collect();

    // Signal-style shutdown (the handle, not the op): the server itself
    // writes the checkpoint during drain.
    handle.shutdown();
    let report = join.join().expect("server thread");
    assert_eq!(report.checkpointed, Some(path.clone()));

    // The ring resumes bit-exactly — fingerprint epochs included.
    let resumed = WindowedEngine::resume(&path, test_cfg()).expect("resume");
    for (req_line, before) in statistic_requests(Some(400)).iter().zip(&before) {
        let req = Json::parse(req_line).expect("valid");
        let after = match req.get("op").and_then(Json::as_str) {
            Some("batch") => {
                let queries: Vec<Query> = req
                    .get("queries")
                    .and_then(Json::as_arr)
                    .expect("queries")
                    .iter()
                    .map(|q| wire::query_from_json(q).expect("parse"))
                    .collect();
                let answers: Vec<Json> = resumed
                    .query_batch(&queries)
                    .into_iter()
                    .map(|a| wire::answer_to_json(&a.expect("ok"), 2))
                    .collect();
                Json::obj([("ok", Json::Bool(true)), ("answers", Json::Arr(answers))])
            }
            _ => {
                let q = wire::query_from_json(&req).expect("parse");
                wire::answer_to_json(&resumed.query(&q).expect("ok"), 2)
            }
        };
        assert_eq!(
            &strip_cost(&after),
            before,
            "resumed windowed answer diverges for {req_line}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpoint_file_conventions() {
    // The saved files are regular pfe-persist frames: resuming the plain
    // checkpoint as a window ring (and vice versa) is a typed error, not
    // a panic — exercised here through the public resume APIs.
    let dir = std::env::temp_dir().join("pfe-server-tcp-kind");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("kind.pfes");
    std::fs::remove_file(&path).ok();

    let (handle, join) = spawn_server(quick_poll());
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.request_line(&start_request(None)).expect("start");
    client
        .request_line(r#"{"op":"ingest","rows":[[0,1,0,0,1,0,1,1,0,0]]}"#)
        .expect("ingest");
    let r = client
        .request_line(&format!(
            r#"{{"op":"checkpoint","path":"{}"}}"#,
            path.display()
        ))
        .expect("checkpoint");
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
    assert!(matches!(
        WindowedEngine::resume(&path, test_cfg()),
        Err(pfe_engine::EngineError::Persist(_))
    ));
    handle.shutdown();
    join.join().expect("server thread");
    std::fs::remove_file(&path).ok();
}
