//! `pfe replica` — replication health of a live server.
//!
//! A thin wire client for the `{"op":"replica_stats"}` endpoint: one
//! JSON object on stdout. `--watch` polls and reprints whenever the
//! applied epoch or the failure count changes — a terminal-friendly way
//! to watch a replica catch up to its writer.

use std::time::Duration;

use pfe_engine::Json;
use pfe_server::Client;

use crate::args::Args;
use crate::request;

const USAGE: &str = "usage: pfe replica ADDR [--watch] [--interval-ms N]";

/// `pfe replica ADDR [--watch] [--interval-ms N]`: the server's
/// `replica_stats` object on stdout (once, or on every change).
pub fn replica(args: &Args) -> Result<i32, String> {
    let pos = args.positionals();
    let [addr] = pos[..] else {
        return Err(USAGE.into());
    };
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let stats = Json::obj([("op", Json::Str("replica_stats".to_string()))]);
    let fetch = |client: &mut Client| request(client, &stats);
    if !args.present("--watch") {
        println!("{}", fetch(&mut client)?);
        return Ok(0);
    }
    let interval = args.parse("--interval-ms")?.unwrap_or(500u64);
    let mut last_key: Option<(String, String)> = None;
    loop {
        let resp = fetch(&mut client)?;
        // Reprint on apply/failure progress; lag alone changes every
        // tick and would just scroll the terminal.
        let key = (
            resp.get("epoch").map(Json::to_string).unwrap_or_default(),
            resp.get("failures")
                .map(Json::to_string)
                .unwrap_or_default(),
        );
        if last_key.as_ref() != Some(&key) {
            println!("{resp}");
            last_key = Some(key);
        }
        std::thread::sleep(Duration::from_millis(interval));
    }
}
