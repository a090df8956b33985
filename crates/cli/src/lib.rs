#![deny(missing_docs)]
//! `pfe` — the operator command line for the projected-frequency engine.
//!
//! One binary covers the whole bulk-data workflow: load a CSV/TSV file
//! through the columnar ingest path ([`pfe-ingest`](pfe_ingest)), write
//! a durable checkpoint, answer any of the five projected statistics
//! against it, merge shard checkpoints, and serve the wire protocol
//! over TCP or a pipe.
//!
//! ```text
//! pfe ingest rows.csv --out rows.pfes
//! pfe query rows.pfes --op f0 --cols 0,1,2
//! pfe stats rows.pfes
//! pfe serve --resume rows.pfes --listen 127.0.0.1:7070
//! ```
//!
//! Every subcommand prints one JSON object (or one per answer) on
//! stdout and human-readable progress on stderr, so output composes
//! with `jq` and shell pipelines. Exit status is 0 on success, 1 on
//! runtime failure, 2 on usage errors.

pub mod args;
mod cmd_checkpoint;
mod cmd_ingest;
mod cmd_query;
mod cmd_replica;
mod cmd_serve;
mod cmd_trace;
mod cmd_verify;

pub use args::{Args, UnknownFlag};

const USAGE: &str = "\
pfe — projected frequency estimation over file data

USAGE: pfe <SUBCOMMAND> [ARGS]

SUBCOMMANDS
  ingest FILE --out SNAP     columnar-ingest a CSV/TSV file, checkpoint the engine
  query SNAP --op OP ...     answer a statistic against a checkpoint
  stats SNAP                 engine counters for a checkpoint
  checkpoint A B.. --out M   merge shard snapshots into one
  resume SNAP --ingest FILE  continue ingesting into an existing checkpoint
  serve [--listen ADDR]      wire protocol over TCP, or stdin/stdout pipe mode
  replica ADDR [--watch]     replication health of a live server
  trace ADDR [--last N]      fetch request traces from a live server
  verify FILE                prove file ingest matches the Rust API bit-for-bit
  help                       this text

FILE SHAPE (ingest / resume / verify)
  --q Q               alphabet size (default 2; values must lie in [0,Q))
  --no-header         first line is data, not column names
  --columns a,b,c     declare/validate column names
  --delim CH|tab      field delimiter (default: by extension, .tsv => tab)
  --chunk-rows N      rows per engine batch (default 8192)
  --max-rejects N     tolerate up to N malformed rows (default 0 = strict)

ENGINE (must repeat the ingest-time values when querying/resuming)
  --shards N --alpha A --kmv-k K --sample-t T --seed S
  --max-subsets M --cache C --fp 2.0,1.5
  --batch-rows N      rows per shard batch (default 4096); tunes ingest
                      speed only, answers and checkpoint bytes do not change
  --window ROWS[,TIER_CAP[,MAX_TIERS]]   sliding-window engine (ingest/serve)

QUERY
  --op f0|frequency|heavy_hitters|l1_sample|fp
  --cols 0,1,2 [--pattern 1,0,1] [--phi 0.05] [--k 8] [--p 2.0]
  [--sample-seed S] [--window N] [--exact] [--bypass-cache]
  --json '{...}'      raw wire-protocol request instead of flags
  --batch FILE        one JSON request per line, answered in order

SERVE (TCP mode)
  --workers N --queue N      dispatch parallelism / extra session headroom
  --checkpoint SNAP          durable state written on graceful shutdown
  --metrics ADDR             Prometheus scrape endpoint
  --max-line BYTES           per-request line cap (default 1 MiB)
  --ship DIR [--ship-ms N]   writer role: ship snapshots for replicas
  --replica-of DIR           replica role: watch a writer's snapshot dir
                             (repeatable; engine flags must match writer)
  --replica-poll-ms N        replica directory poll interval (default 200)

Run 'pfe <SUBCOMMAND>' with no operands for that subcommand's usage.
";

/// One wire round trip of the `replica` / `trace` clients; an `ok:false`
/// reply is the error.
fn request(
    client: &mut pfe_server::Client,
    req: &pfe_engine::Json,
) -> Result<pfe_engine::Json, String> {
    use pfe_engine::Json;
    let resp = client.request(req).map_err(|e| e.to_string())?;
    if resp.get("ok") == Some(&Json::Bool(false)) {
        return Err(resp
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("request failed")
            .to_string());
    }
    Ok(resp)
}

/// Run the CLI against `argv` (everything after the program name);
/// returns the process exit code.
pub fn run(argv: Vec<String>) -> i32 {
    let Some((cmd, rest)) = argv.split_first() else {
        eprint!("{USAGE}");
        return 2;
    };
    let args = match Args::new(rest.to_vec()) {
        Ok(args) => args,
        Err(unknown) => {
            eprintln!("pfe {cmd}: {unknown} (see 'pfe help')");
            return 2;
        }
    };
    let result = match cmd.as_str() {
        "ingest" => cmd_ingest::ingest(&args),
        "query" => cmd_query::query(&args),
        "stats" => cmd_query::stats(&args),
        "checkpoint" => cmd_checkpoint::merge(&args),
        "resume" => cmd_ingest::resume(&args),
        "serve" => cmd_serve::serve(&args),
        "replica" => cmd_replica::replica(&args),
        "trace" => cmd_trace::trace(&args),
        "verify" => cmd_verify::verify(&args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return 0;
        }
        other => {
            eprintln!("pfe: unknown subcommand {other:?}\n");
            eprint!("{USAGE}");
            return 2;
        }
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("pfe {cmd}: {msg}");
            if msg.starts_with("usage:") {
                2
            } else {
                1
            }
        }
    }
}
