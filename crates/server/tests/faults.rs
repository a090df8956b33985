//! Deterministic fault injection against the readiness-loop server: the
//! network misbehaving in every way the framing layer claims to survive
//! — byte-at-a-time writes, requests shredded across dozens of TCP
//! segments, disconnects mid-request, half-open sockets, oversized
//! lines, and a slow-loris client — each asserting typed errors where an
//! error is due and that the session (and its neighbors) keep answering
//! bit-identically to direct engine calls afterwards.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pfe_engine::{wire, Engine, EngineConfig, Json};
use pfe_server::{Client, Server, ServerConfig, ServerHandle, ShutdownReport};
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

fn dense_rows() -> Vec<Vec<u16>> {
    let data = uniform_binary(D, ROWS, 11);
    let packed = match data {
        pfe_row::Dataset::Binary(m) => m.rows().to_vec(),
        pfe_row::Dataset::Qary(_) => unreachable!("generator yields binary data"),
    };
    packed
        .iter()
        .map(|row| (0..D).map(|i| ((row >> i) & 1) as u16).collect())
        .collect()
}

/// The statistic requests every parity check issues.
fn requests() -> Vec<String> {
    vec![
        r#"{"op":"f0","cols":[0,1,2,3]}"#.to_string(),
        r#"{"op":"frequency","cols":[0,1],"pattern":[1,1]}"#.to_string(),
        r#"{"op":"heavy_hitters","cols":[0,1,2],"phi":0.05}"#.to_string(),
    ]
}

/// What a fresh direct engine answers for [`requests`], stripped of
/// cache metadata.
fn direct_answers() -> Vec<Json> {
    let engine = Engine::start(D, 2, test_cfg()).expect("start");
    for row in &dense_rows() {
        engine.push_dense_batch(row).expect("push");
    }
    engine.refresh().expect("refresh");
    requests()
        .iter()
        .map(|line| {
            let req = Json::parse(line).expect("valid");
            let q = wire::query_from_json(&req).expect("parse");
            strip_cost(&wire::answer_to_json(&engine.query(&q).expect("ok"), 2))
        })
        .collect()
}

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

/// A running server pre-loaded with the test stream (started, ingested,
/// snapshotted over the wire by a feeder session that then quits).
fn spawn_served(cfg: ServerConfig) -> (ServerHandle, JoinHandle<ShutdownReport>) {
    let server = Server::bind(cfg).expect("bind");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run"));
    let mut feeder = Client::connect(handle.addr()).expect("connect feeder");
    feeder.request_line(&start_line()).expect("start");
    for chunk in dense_rows().chunks(200) {
        let body: Vec<String> = chunk
            .iter()
            .map(|r| {
                let syms: Vec<String> = r.iter().map(|s| s.to_string()).collect();
                format!("[{}]", syms.join(","))
            })
            .collect();
        let line = format!(r#"{{"op":"ingest","rows":[{}]}}"#, body.join(","));
        let r = feeder.request_line(&line).expect("ingest");
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "ingest failed: {r}");
    }
    feeder
        .request_line(r#"{"op":"snapshot"}"#)
        .expect("snapshot");
    feeder.request_line(r#"{"op":"quit"}"#).expect("quit");
    (handle, join)
}

fn quick_poll() -> ServerConfig {
    ServerConfig {
        poll_interval: Duration::from_millis(5),
        ..Default::default()
    }
}

/// A raw socket speaking the protocol with full control over write
/// boundaries (the library [`Client`] would coalesce).
struct RawSession {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawSession {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Self { stream, reader }
    }

    fn write_all(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write");
        self.stream.flush().expect("flush");
    }

    fn read_reply(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read reply");
        assert!(n > 0, "server closed instead of answering");
        Json::parse(line.trim()).expect("reply is JSON")
    }

    fn read_eof(&mut self) {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read");
        assert_eq!(n, 0, "expected EOF, got {line:?}");
    }
}

#[test]
fn byte_at_a_time_requests_answer_bit_identically() {
    let expected = direct_answers();
    let (handle, join) = spawn_served(quick_poll());
    let mut raw = RawSession::connect(handle.addr());
    for (req, expect) in requests().iter().zip(&expected) {
        // Every byte its own TCP segment: the cruelest possible framing.
        for &b in req.as_bytes() {
            raw.write_all(&[b]);
        }
        raw.write_all(b"\n");
        let reply = raw.read_reply();
        assert_eq!(&strip_cost(&reply), expect, "diverged for {req}");
    }
    handle.shutdown();
    join.join().expect("server");
}

#[test]
fn pipelined_requests_shredded_across_segments_answer_in_order() {
    let expected = direct_answers();
    let (handle, join) = spawn_served(quick_poll());
    let mut raw = RawSession::connect(handle.addr());
    // All three requests in one buffer, then shredded into dozens of
    // 7-byte segments that land nowhere near line boundaries.
    let mut pipeline = String::new();
    for req in requests() {
        pipeline.push_str(&req);
        pipeline.push('\n');
    }
    for chunk in pipeline.as_bytes().chunks(7) {
        raw.write_all(chunk);
        std::thread::sleep(Duration::from_millis(1));
    }
    for (req, expect) in requests().iter().zip(&expected) {
        let reply = raw.read_reply();
        assert_eq!(
            &strip_cost(&reply),
            expect,
            "pipelined reply out of order or diverged for {req}"
        );
    }
    handle.shutdown();
    join.join().expect("server");
}

#[test]
fn disconnect_mid_request_leaves_the_server_serving() {
    let expected = direct_answers();
    let (handle, join) = spawn_served(quick_poll());

    // One client abandons a half-written request...
    let mut torn = RawSession::connect(handle.addr());
    torn.write_all(br#"{"op":"f0","cols":[0,1,"#);
    drop(torn);
    // ...another abandons a complete request without reading its reply
    // (the dispatch may still be in flight when the close lands).
    let mut unread = RawSession::connect(handle.addr());
    unread.write_all(b"{\"op\":\"f0\",\"cols\":[0,1,2,3]}\n");
    drop(unread);

    // Neither corpse affects a healthy session.
    let mut client = Client::connect(handle.addr()).expect("connect");
    for (req, expect) in requests().iter().zip(&expected) {
        let reply = client.request_line(req).expect("query");
        assert_eq!(&strip_cost(&reply), expect, "diverged for {req}");
    }
    // The abandoned sockets are reclaimed (no fd/session leak): open
    // connections settle back to just ours.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = client
            .request_line(r#"{"op":"server_stats"}"#)
            .expect("stats");
        if stats.get("connections_open").and_then(Json::as_f64) == Some(1.0) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "abandoned sessions never reclaimed: {stats}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.shutdown();
    join.join().expect("server");
}

#[test]
fn half_open_peer_still_receives_every_queued_reply() {
    let expected = direct_answers();
    let (handle, join) = spawn_served(quick_poll());
    let mut raw = RawSession::connect(handle.addr());
    // Pipeline every request, then close only our write side: the
    // server sees EOF but must still answer everything already sent
    // (half-open TCP — we can still receive).
    for req in requests() {
        raw.write_all(format!("{req}\n").as_bytes());
    }
    raw.stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    for (req, expect) in requests().iter().zip(&expected) {
        let reply = raw.read_reply();
        assert_eq!(&strip_cost(&reply), expect, "diverged for {req}");
    }
    // ...and then closes cleanly, not by RST or by hanging.
    raw.read_eof();
    handle.shutdown();
    join.join().expect("server");
}

#[test]
fn oversized_line_is_a_typed_error_and_the_session_resyncs() {
    let expected = direct_answers();
    // The cap must clear the feeder's ~3.5 KiB ingest lines but sit far
    // below the monster.
    let (handle, join) = spawn_served(ServerConfig {
        max_line_bytes: 8 * 1024,
        ..quick_poll()
    });
    let mut raw = RawSession::connect(handle.addr());
    // A 64 KiB monster against an 8 KiB cap, written in chunks so the
    // rejection triggers long before the newline arrives.
    let monster = vec![b'x'; 64 * 1024];
    for chunk in monster.chunks(4096) {
        raw.write_all(chunk);
    }
    raw.write_all(b"\n");
    let reply = raw.read_reply();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        reply.get("code").and_then(Json::as_str),
        Some("line_too_long"),
        "oversized rejection must be machine-matchable: {reply}"
    );
    // The same session resyncs onto the next line and serves it
    // bit-identically — no desync, no close.
    for (req, expect) in requests().iter().zip(&expected) {
        raw.write_all(format!("{req}\n").as_bytes());
        let reply = raw.read_reply();
        assert_eq!(&strip_cost(&reply), expect, "diverged after resync: {req}");
    }
    handle.shutdown();
    join.join().expect("server");
}

#[test]
fn idle_connections_cost_no_dispatches_and_no_wakeups() {
    // The busy-spin proof: a box holding a crowd of idle sessions must
    // sit in epoll_wait, not spin. Ticks keep counting (the loop times
    // out and rearms — that is its heartbeat), but wakeups only count
    // when events actually arrive, and the dispatcher must see nothing.
    let server = Server::bind(ServerConfig {
        queue: 64, // session capacity = workers + queue ≥ the idle crowd
        ..ServerConfig::default()
    })
    .expect("bind");
    let recorder = std::sync::Arc::clone(server.dispatcher().recorder());
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run"));

    let conns: Vec<TcpStream> = (0..32)
        .map(|_| TcpStream::connect(handle.addr()).expect("connect"))
        .collect();
    // Let the accept churn fully settle before measuring.
    std::thread::sleep(Duration::from_millis(500));

    let wakeups = recorder.counter("server_loop_wakeups");
    let ticks = recorder.counter("server_loop_ticks");
    let requests = recorder.counter("server_requests_handled");
    let (w0, t0, r0) = (wakeups.get(), ticks.get(), requests.get());
    std::thread::sleep(Duration::from_secs(1));
    let (dw, dt, dr) = (wakeups.get() - w0, ticks.get() - t0, requests.get() - r0);

    assert_eq!(dr, 0, "idle connections reached the dispatcher");
    assert!(dt >= 2, "event loop stopped ticking ({dt} ticks in 1 s)");
    assert!(
        dw <= 2,
        "{dw} wakeups in 1 s of pure idleness — the loop is spinning on phantom events"
    );

    drop(conns);
    handle.shutdown();
    join.join().expect("server");
}

#[test]
fn slow_loris_does_not_stall_other_sessions() {
    // ONE worker: under the old thread-per-connection design a loris
    // dribbling a never-finished request would own it forever. Under the
    // readiness loop an incomplete line never reaches the dispatch pool,
    // so the lone worker stays free for everyone else.
    let expected = direct_answers();
    let (handle, join) = spawn_served(ServerConfig {
        workers: 1,
        queue: 4,
        ..quick_poll()
    });
    let addr = handle.addr();
    let loris_done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let loris_stop = std::sync::Arc::clone(&loris_done);
    let loris = std::thread::spawn(move || {
        let mut raw = RawSession::connect(addr);
        let payload = br#"{"op":"f0","cols":[0"#;
        let mut i = 0;
        while !loris_stop.load(std::sync::atomic::Ordering::SeqCst) {
            raw.write_all(&payload[i % payload.len()..][..1]);
            i += 1;
            std::thread::sleep(Duration::from_millis(10));
        }
    });

    let begin = Instant::now();
    let mut client = Client::connect(addr).expect("connect");
    for round in 0..10 {
        for (req, expect) in requests().iter().zip(&expected) {
            let reply = client.request_line(req).expect("query");
            assert_eq!(
                &strip_cost(&reply),
                expect,
                "diverged during loris round {round}: {req}"
            );
        }
    }
    // 30 round trips against a single worker while the loris dribbles:
    // anything near the loris' own timescale means it stalled us.
    assert!(
        begin.elapsed() < Duration::from_secs(10),
        "queries stalled behind the slow-loris client: {:?}",
        begin.elapsed()
    );
    loris_done.store(true, std::sync::atomic::Ordering::SeqCst);
    loris.join().expect("loris");
    handle.shutdown();
    join.join().expect("server");
}

#[test]
fn idle_bounced_peers_do_not_stall_an_admitted_session() {
    // Capacity one: the admitted session fills the server, so every
    // further connection is bounced. A bounced peer that says nothing
    // holds its rejector for the whole lingering half-close — which must
    // not be the loop thread the admitted session is served from.
    let (handle, join) = spawn_served(ServerConfig {
        workers: 1,
        queue: 0,
        ..quick_poll()
    });
    let mut admitted = Client::connect(handle.addr()).expect("connect");
    let warm = admitted
        .request_line(r#"{"op":"server_stats"}"#)
        .expect("admitted");
    assert_eq!(warm.get("ok"), Some(&Json::Bool(true)), "{warm}");

    let mut strangers: Vec<RawSession> = (0..10)
        .map(|_| RawSession::connect(handle.addr()))
        .collect();
    let begin = Instant::now();
    let stats = admitted
        .request_line(r#"{"op":"server_stats"}"#)
        .expect("served beside the bounced peers");
    let waited = begin.elapsed();
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)), "{stats}");
    assert!(
        waited < Duration::from_millis(500),
        "an admitted request waited {waited:?} behind idle bounced peers"
    );
    for (i, stranger) in strangers.iter_mut().enumerate() {
        let reply = stranger.read_reply();
        assert_eq!(
            reply.get("code").and_then(Json::as_str),
            Some("saturated"),
            "stranger {i}: {reply}"
        );
        stranger.read_eof();
    }

    // Nor does a drain wait out the linger of peers it never admitted:
    // thirty more, all bounced by the time the next reply is back, would
    // hold the rejector for 3 s.
    let late: Vec<RawSession> = (0..30)
        .map(|_| RawSession::connect(handle.addr()))
        .collect();
    admitted
        .request_line(r#"{"op":"server_stats"}"#)
        .expect("admitted");
    drop(admitted);
    let begin = Instant::now();
    handle.shutdown();
    let report = join.join().expect("server");
    let drained = begin.elapsed();
    assert!(
        drained < Duration::from_millis(1500),
        "the drain waited {drained:?} on bounced peers"
    );
    assert_eq!(report.rejected_saturated, 40);
    drop(late);
}
