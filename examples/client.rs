//! `client` — command-line client for a running `pfe-server`
//! (`pfe serve --listen ADDR`).
//!
//! ```text
//! cargo run --release --example client -- 127.0.0.1:7070            # interactive/pipe
//! cargo run --release --example client -- 127.0.0.1:7070 --demo     # scripted session
//! cargo run --release --example client -- 127.0.0.1:7070 --shutdown # stop the server
//! ```
//!
//! In pipe mode every stdin line is sent as one request and the response
//! is printed to stdout — the same framing as the server's own pipe mode,
//! so scripts can switch transports without changes. `--demo` runs a
//! self-contained session (start, ingest generated rows, one of each
//! statistic, batch, stats, server_stats) against the live server and
//! prints each request/response pair. See `docs/PROTOCOL.md` for the op
//! reference.

use std::io::BufRead;

use subspace_exploration::server::{Client, ClientError};

fn demo_script() -> Vec<String> {
    use subspace_exploration::hash::rng::Xoshiro256pp;
    let d = 12;
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    let rows: Vec<String> = (0..2000)
        .map(|_| {
            let row = rng.next_u64() & ((1 << d) - 1);
            let bits: Vec<String> = (0..d).map(|i| ((row >> i) & 1).to_string()).collect();
            format!("[{}]", bits.join(","))
        })
        .collect();
    vec![
        format!(r#"{{"op":"start","d":{d},"q":2,"shards":4,"fp":{{"orders":[2.0,1.5]}}}}"#),
        format!(r#"{{"op":"ingest","rows":[{}]}}"#, rows.join(",")),
        r#"{"op":"snapshot"}"#.to_string(),
        r#"{"op":"f0","cols":[0,1,2,3,4,5]}"#.to_string(),
        r#"{"op":"frequency","cols":[0,1],"pattern":[1,1]}"#.to_string(),
        r#"{"op":"heavy_hitters","cols":[0,1,2],"phi":0.05}"#.to_string(),
        r#"{"op":"l1_sample","cols":[0,1,2],"k":4,"seed":7}"#.to_string(),
        r#"{"op":"fp","cols":[0,1,2,3,4,5],"p":2.0}"#.to_string(),
        r#"{"op":"fp","cols":[0,1,2],"p":1.5}"#.to_string(),
        r#"{"op":"batch","queries":[{"op":"f0","cols":[0,1]},{"op":"f0","cols":[0,1,2]}]}"#
            .to_string(),
        r#"{"op":"stats"}"#.to_string(),
        r#"{"op":"server_stats"}"#.to_string(),
        r#"{"op":"quit"}"#.to_string(),
    ]
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("client: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(addr) = args.get(1).filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: client ADDR [--demo|--shutdown]");
        eprintln!("  ADDR      a running `serve --listen` server, e.g. 127.0.0.1:7070");
        eprintln!("  --demo    run a scripted session (start/ingest/query/stats) and print it");
        eprintln!("  --shutdown  send {{\"op\":\"shutdown\"}} (drain + checkpoint) and exit");
        eprintln!("  (default: read request lines from stdin, print response lines to stdout)");
        std::process::exit(2);
    };
    let mut client = match Client::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => fail(e),
    };

    if args.iter().any(|a| a == "--shutdown") {
        match client.request_line(r#"{"op":"shutdown"}"#) {
            Ok(resp) => println!("{resp}"),
            Err(e) => fail(e),
        }
        return;
    }

    if args.iter().any(|a| a == "--demo") {
        for line in demo_script() {
            // Ingest lines are huge; echo a summary, print responses whole.
            let shown = if line.len() > 120 {
                format!("{}…", &line[..117])
            } else {
                line.clone()
            };
            println!("> {shown}");
            match client.request_line(&line) {
                Ok(resp) => println!("{resp}"),
                Err(ClientError::ServerClosed) => fail("server closed the connection"),
                Err(e) => fail(e),
            }
        }
        return;
    }

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.expect("stdin");
        if line.trim().is_empty() {
            continue;
        }
        match client.request_line(&line) {
            Ok(resp) => {
                println!("{resp}");
                if line.contains("\"quit\"") || line.contains("\"shutdown\"") {
                    break;
                }
            }
            Err(ClientError::ServerClosed) => fail("server closed the connection"),
            Err(e) => fail(e),
        }
    }
}
