//! `pfe trace` — fetch request traces from a live server.
//!
//! A thin wire client for the `{"op":"trace"}` endpoint: fetch one
//! retained trace by id (the `trace_id` echoed on any traced answer, or
//! listed by `slow_log`), or the last N completed traces; `--follow`
//! polls and prints traces as they complete; `--chrome FILE` exports
//! Chrome trace-event JSON loadable in `chrome://tracing` and Perfetto.

use std::collections::HashSet;
use std::time::Duration;

use pfe_engine::Json;
use pfe_server::Client;

use crate::args::Args;
use crate::request;

const USAGE: &str = "usage: pfe trace ADDR [--id HEX] [--last N] [--follow] [--chrome FILE]";

fn trace_request(args: &Args, chrome: bool) -> Result<Json, String> {
    let mut fields = vec![("op", Json::Str("trace".to_string()))];
    if let Some(id) = args.value("--id") {
        fields.push(("id", Json::Str(id.to_string())));
    } else if let Some(n) = args.parse::<u64>("--last")? {
        fields.push(("last", Json::Num(n as f64)));
    }
    if chrome {
        fields.push(("format", Json::Str("chrome".to_string())));
    }
    Ok(Json::obj(fields))
}

/// Write the server's Chrome trace-event export to `path`.
fn export_chrome(client: &mut Client, args: &Args, path: &str) -> Result<(), String> {
    let resp = request(client, &trace_request(args, true)?)?;
    let events = resp.get("events").ok_or("no 'events' in response")?;
    std::fs::write(path, format!("{events}\n")).map_err(|e| format!("write {path}: {e}"))?;
    let n = events.as_arr().map(<[Json]>::len).unwrap_or(0);
    println!(
        "{}",
        Json::obj([
            ("ok", Json::Bool(true)),
            ("chrome", Json::Str(path.to_string())),
            ("events", Json::Num(n as f64)),
        ])
    );
    Ok(())
}

/// `pfe trace ADDR [--id HEX] [--last N] [--follow] [--chrome FILE]`:
/// span trees (one JSON object per trace, one per line) on stdout.
pub fn trace(args: &Args) -> Result<i32, String> {
    let pos = args.positionals();
    let [addr] = pos[..] else {
        return Err(USAGE.into());
    };
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    if let Some(path) = args.value("--chrome") {
        export_chrome(&mut client, args, path)?;
        return Ok(0);
    }
    if !args.present("--follow") {
        let resp = request(&mut client, &trace_request(args, false)?)?;
        for t in resp.get("traces").and_then(Json::as_arr).unwrap_or(&[]) {
            println!("{t}");
        }
        return Ok(0);
    }
    // --follow: poll, printing each completed trace once (newest ids are
    // remembered so re-fetches stay silent). Runs until the server goes
    // away or the user interrupts.
    let mut seen: HashSet<String> = HashSet::new();
    let mut first_sweep = true;
    loop {
        let resp = request(&mut client, &trace_request(args, false)?)?;
        for t in resp.get("traces").and_then(Json::as_arr).unwrap_or(&[]) {
            let Some(id) = t.get("trace_id").and_then(Json::as_str) else {
                continue;
            };
            if seen.insert(id.to_string()) && !first_sweep {
                println!("{t}");
            }
        }
        first_sweep = false;
        std::thread::sleep(Duration::from_millis(500));
    }
}
