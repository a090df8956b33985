//! End-to-end tracing over real TCP: client-supplied trace contexts
//! must be echoed, the `trace` op must return complete well-formed span
//! trees, the Chrome export must be structurally valid, `set_slow_ms`
//! must tune the slow log live, and the metrics responder must speak
//! enough HTTP (404, HEAD) to survive a real scraper.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use pfe_engine::Json;
use pfe_server::{Client, Server, ServerConfig, ServerHandle, ShutdownReport};
use proptest::prelude::*;

const D: u32 = 8;

fn spawn_server(cfg: ServerConfig) -> (ServerHandle, std::thread::JoinHandle<ShutdownReport>) {
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

/// Start an engine and ingest a deterministic handful of rows so every
/// statistic has something to answer over.
fn prime(client: &mut Client) {
    let r = client
        .request_line(&format!(r#"{{"op":"start","d":{D},"q":2,"shards":2}}"#))
        .expect("start");
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
    let rows: Vec<String> = (0..200u64)
        .map(|i| {
            let bits: Vec<String> = (0..D)
                .map(|b| (((i * 7 + 3) >> b) & 1).to_string())
                .collect();
            format!("[{}]", bits.join(","))
        })
        .collect();
    let r = client
        .request_line(&format!(r#"{{"op":"ingest","rows":[{}]}}"#, rows.join(",")))
        .expect("ingest");
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
    let r = client
        .request_line(r#"{"op":"snapshot"}"#)
        .expect("snapshot");
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
}

/// Collect every span name in a trace's tree, depth-first.
fn span_names(trace: &Json, out: &mut Vec<String>) {
    fn walk(span: &Json, out: &mut Vec<String>) {
        if let Some(name) = span.get("name").and_then(Json::as_str) {
            out.push(name.to_string());
        }
        for child in span.get("children").and_then(Json::as_arr).unwrap_or(&[]) {
            walk(child, out);
        }
    }
    for root in trace.get("spans").and_then(Json::as_arr).unwrap_or(&[]) {
        walk(root, out);
    }
}

/// Check the structural invariants of one rendered span tree: ids are
/// unique within the trace, and every child nests inside its parent's
/// `[start_ns, end_ns]` interval.
fn assert_well_formed(trace: &Json) {
    fn walk(span: &Json, ids: &mut BTreeSet<u64>, parent: Option<(f64, f64)>) {
        let id = span.get("span").and_then(Json::as_f64).expect("span id") as u64;
        assert!(ids.insert(id), "span id {id} collides within its trace");
        let start = span.get("start_ns").and_then(Json::as_f64).expect("start");
        let end = span.get("end_ns").and_then(Json::as_f64).expect("end");
        assert!(start <= end, "span {id} ends before it starts");
        if let Some((ps, pe)) = parent {
            assert!(
                start >= ps && end <= pe,
                "span {id} [{start}, {end}] escapes its parent [{ps}, {pe}]"
            );
        }
        for child in span.get("children").and_then(Json::as_arr).unwrap_or(&[]) {
            walk(child, ids, Some((start, end)));
        }
    }
    let mut ids = BTreeSet::new();
    for root in trace.get("spans").and_then(Json::as_arr).unwrap_or(&[]) {
        walk(root, &mut ids, None);
    }
    assert!(!ids.is_empty(), "trace has no spans: {trace}");
}

#[test]
fn client_supplied_trace_id_is_echoed_and_retained() {
    let (handle, join) = spawn_server(quick_poll());
    let mut client = Client::connect(handle.addr()).expect("connect");
    prime(&mut client);

    let id = "00000000000000000000000000abcdef";
    let r = client
        .request_line(&format!(r#"{{"op":"f0","cols":[0,1,2],"trace":"{id}"}}"#))
        .expect("query");
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
    assert_eq!(
        r.get("trace_id").and_then(Json::as_str),
        Some(id),
        "client-supplied trace id must be echoed: {r}"
    );

    // The same id must now be fetchable from the retained store.
    let r = client
        .request_line(&format!(r#"{{"op":"trace","id":"{id}"}}"#))
        .expect("trace");
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
    let traces = r.get("traces").and_then(Json::as_arr).expect("traces");
    assert_eq!(traces.len(), 1);
    assert_eq!(traces[0].get("trace_id").and_then(Json::as_str), Some(id));
    assert_well_formed(&traces[0]);

    handle.shutdown();
    join.join().expect("join");
}

#[test]
fn trace_op_returns_the_complete_query_span_tree() {
    let (handle, join) = spawn_server(quick_poll());
    let mut client = Client::connect(handle.addr()).expect("connect");
    prime(&mut client);

    // An uncached query (fresh mask) exercises every execution stage. A
    // client-supplied trace id keeps the reply echo deterministic.
    let r = client
        .request_line(r#"{"op":"f0","cols":[0,1,2,3],"trace":"00000000000000000000000000c0ffee"}"#)
        .expect("query");
    let id = r
        .get("trace_id")
        .and_then(Json::as_str)
        .expect("client-supplied trace id echoed")
        .to_string();

    let r = client
        .request_line(&format!(r#"{{"op":"trace","id":"{id}"}}"#))
        .expect("trace");
    let traces = r.get("traces").and_then(Json::as_arr).expect("traces");
    let mut names = Vec::new();
    span_names(&traces[0], &mut names);
    for want in [
        "session",
        "dispatch",
        "plan",
        "cache_probe",
        "compute",
        "materialize",
    ] {
        assert!(
            names.iter().any(|n| n == want),
            "span {want:?} missing from trace: {names:?}"
        );
    }
    // The tree is rooted at the session span, dispatch directly below.
    let root = &traces[0]
        .get("spans")
        .and_then(Json::as_arr)
        .expect("spans")[0];
    assert_eq!(root.get("name").and_then(Json::as_str), Some("session"));
    let dispatch = &root
        .get("children")
        .and_then(Json::as_arr)
        .expect("children")[0];
    assert_eq!(
        dispatch.get("name").and_then(Json::as_str),
        Some("dispatch")
    );
    assert_well_formed(&traces[0]);

    handle.shutdown();
    join.join().expect("join");
}

#[test]
fn traced_ingest_records_the_route_under_the_ingest_span() {
    let (handle, join) = spawn_server(quick_poll());
    let mut client = Client::connect(handle.addr()).expect("connect");
    prime(&mut client);

    let id = "0000000000000000000000000000abcd";
    let r = client
        .request_line(&format!(
            r#"{{"op":"ingest","trace":"{id}","rows":[[0,1,0,0,1,0,1,1],[1,1,0,0,0,0,1,1]]}}"#
        ))
        .expect("ingest");
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
    let r = client
        .request_line(&format!(r#"{{"op":"trace","id":"{id}"}}"#))
        .expect("trace");
    let traces = r.get("traces").and_then(Json::as_arr).expect("traces");
    assert_well_formed(&traces[0]);

    // session ─► dispatch ─► ingest ─► ingest_route: the router's sweep
    // hangs under the handler's span, carrying the chunk's row count.
    let child = |span: &Json, name: &str| -> Json {
        span.get("children")
            .and_then(Json::as_arr)
            .and_then(|kids| {
                kids.iter()
                    .find(|k| k.get("name").and_then(Json::as_str) == Some(name))
            })
            .unwrap_or_else(|| panic!("span {name:?} missing under {span}"))
            .clone()
    };
    let session = &traces[0]
        .get("spans")
        .and_then(Json::as_arr)
        .expect("spans")[0];
    let ingest = child(&child(session, "dispatch"), "ingest");
    let route = child(&ingest, "ingest_route");
    let attrs = route.get("attrs").expect("attrs");
    assert_eq!(attrs.get("rows").and_then(Json::as_f64), Some(2.0));
    assert_eq!(attrs.get("format").and_then(Json::as_str), Some("dense"));

    handle.shutdown();
    join.join().expect("join");
}

#[test]
fn chrome_export_is_structurally_valid() {
    let (handle, join) = spawn_server(quick_poll());
    let mut client = Client::connect(handle.addr()).expect("connect");
    prime(&mut client);
    client
        .request_line(r#"{"op":"f0","cols":[0,1]}"#)
        .expect("query");

    let r = client
        .request_line(r#"{"op":"trace","last":8,"format":"chrome"}"#)
        .expect("trace");
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
    assert_eq!(r.get("format").and_then(Json::as_str), Some("chrome"));
    let events = r.get("events").and_then(Json::as_arr).expect("events");
    assert!(!events.is_empty());
    for ev in events {
        // The chrome trace-event contract: complete ("X") events with
        // microsecond timestamps and a pid/tid pair.
        assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"), "{ev}");
        assert_eq!(ev.get("cat").and_then(Json::as_str), Some("pfe"), "{ev}");
        for key in ["name", "ts", "dur", "pid", "tid"] {
            assert!(ev.get(key).is_some(), "event missing {key:?}: {ev}");
        }
        assert!(
            ev.get("args").and_then(|a| a.get("trace_id")).is_some(),
            "event args must carry the trace id: {ev}"
        );
    }

    handle.shutdown();
    join.join().expect("join");
}

#[test]
fn set_slow_ms_tunes_live_and_slow_entries_carry_trace_ids() {
    let (handle, join) = spawn_server(quick_poll());
    let mut client = Client::connect(handle.addr()).expect("connect");
    prime(&mut client);

    // Tune the threshold down to 1 ms live, then issue a request heavy
    // enough (50k-row ingest) that it reliably qualifies.
    let r = client
        .request_line(r#"{"op":"set_slow_ms","ms":1}"#)
        .expect("set_slow_ms");
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
    assert_eq!(r.get("threshold_ms").and_then(Json::as_f64), Some(1.0));

    let rows: Vec<String> = (0..50_000u64)
        .map(|i| {
            let bits: Vec<String> = (0..D)
                .map(|b| (((i * 11 + 5) >> b) & 1).to_string())
                .collect();
            format!("[{}]", bits.join(","))
        })
        .collect();
    let r = client
        .request_line(&format!(r#"{{"op":"ingest","rows":[{}]}}"#, rows.join(",")))
        .expect("ingest");
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
    let id = r
        .get("trace_id")
        .and_then(Json::as_str)
        .expect("trace id")
        .to_string();

    let r = client
        .request_line(r#"{"op":"slow_log"}"#)
        .expect("slow_log");
    let entries = r.get("entries").and_then(Json::as_arr).expect("entries");
    let logged: Vec<&str> = entries
        .iter()
        .filter_map(|e| e.get("detail")?.get("trace_id")?.as_str())
        .collect();
    assert!(
        logged.contains(&id.as_str()),
        "slow-log entries must carry the trace id {id}: {r}"
    );

    // Missing ms is a usage error.
    let r = client
        .request_line(r#"{"op":"set_slow_ms"}"#)
        .expect("send");
    assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{r}");

    handle.shutdown();
    join.join().expect("join");
}

#[test]
fn metrics_json_includes_build_info_and_uptime() {
    let (handle, join) = spawn_server(quick_poll());
    let mut client = Client::connect(handle.addr()).expect("connect");
    prime(&mut client);

    let r = client.request_line(r#"{"op":"metrics"}"#).expect("metrics");
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
    let info = r.get("info").expect("info section");
    let build = info.get("build_info").expect("build_info");
    assert_eq!(
        build.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(build
        .get("statistics")
        .and_then(Json::as_str)
        .is_some_and(|s| s.contains("f0")));
    assert!(r
        .get("gauges")
        .and_then(|g| g.get("process_uptime_seconds"))
        .is_some());

    handle.shutdown();
    join.join().expect("join");
}

fn http_exchange(addr: std::net::SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics");
    stream.write_all(request.as_bytes()).expect("send");
    stream.flush().expect("flush");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    response
}

#[test]
fn metrics_endpoint_404s_unknown_paths_and_answers_head() {
    let server = Server::bind(ServerConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        workers: 1,
        queue: 1,
        poll_interval: Duration::from_millis(5),
        ..Default::default()
    })
    .expect("bind");
    let maddr = server.metrics_addr().expect("metrics bound");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run"));

    let resp = http_exchange(maddr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 404 Not Found\r\n"), "{resp}");
    assert!(resp.contains("not found: try /metrics"), "{resp}");

    let resp = http_exchange(maddr, "HEAD /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
    let (head, body) = resp.split_once("\r\n\r\n").expect("header/body split");
    assert!(body.is_empty(), "HEAD must not carry a body: {body:?}");
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .trim()
        .parse()
        .expect("numeric length");
    assert!(len > 0, "HEAD must advertise the GET body length");

    // Query strings on the scrape path still serve.
    let resp = http_exchange(
        maddr,
        "GET /metrics?format=text HTTP/1.1\r\nHost: x\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");

    handle.shutdown();
    join.join().expect("join");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Under concurrent clients the retained span trees stay well-formed:
    /// every span's parent resolves inside its own trace (rendered trees
    /// have no orphans), ids never collide within a trace, and children
    /// nest inside their parents' intervals.
    #[test]
    fn prop_concurrent_span_trees_stay_well_formed(
        rounds in 1usize..4,
        masks in proptest::collection::vec(1u64..(1 << D), 4),
    ) {
        let (handle, join) = spawn_server(quick_poll());
        let addr = handle.addr();
        let mut client = Client::connect(addr).expect("connect");
        prime(&mut client);

        // 4 concurrent clients, each hammering its own column subset.
        let threads: Vec<_> = masks
            .iter()
            .enumerate()
            .map(|(i, &mask)| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    for round in 0..rounds {
                        let cols: Vec<String> = (0..D)
                            .filter(|b| (mask >> b) & 1 == 1)
                            .map(|b| b.to_string())
                            .collect();
                        // Client-supplied ids are echoed and survive ring
                        // eviction dedup; unique per (thread, round).
                        let tid =
                            format!("{:032x}", ((i as u128) << 64) | (round as u128 + 1));
                        let r = c
                            .request_line(&format!(
                                r#"{{"op":"f0","cols":[{}],"trace":"{tid}"}}"#,
                                cols.join(",")
                            ))
                            .expect("query");
                        assert_eq!(
                            r.get("trace_id").and_then(Json::as_str),
                            Some(tid.as_str()),
                            "{r}"
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("thread");
        }

        let r = client
            .request_line(r#"{"op":"trace","last":64}"#)
            .expect("trace");
        let traces = r.get("traces").and_then(Json::as_arr).expect("traces");
        prop_assert!(!traces.is_empty());
        for trace in traces {
            assert_well_formed(trace);
        }

        handle.shutdown();
        join.join().expect("join");
    }
}
