//! End-to-end tests for the `pfe` binary: every subcommand exercised
//! through a real process, on real files, asserting on stdout JSON and
//! exit codes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use pfe_engine::Json;

fn pfe(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pfe"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn pfe")
}

fn stdout_json(out: &Output) -> Json {
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_else(|| {
        panic!(
            "no stdout; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    Json::parse(line).unwrap_or_else(|e| panic!("bad json {line:?}: {e}"))
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pfe-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Deterministic binary CSV with a header.
fn write_csv(path: &Path, d: u32, n: usize, state: u64) {
    write_csv_bits(path, d, n, state, 1);
}

/// Deterministic CSV with a header over the alphabet `[2^bits]`.
fn write_csv_bits(path: &Path, d: u32, n: usize, mut state: u64, bits: u32) {
    let mut text = (0..d)
        .map(|i| format!("c{i}"))
        .collect::<Vec<_>>()
        .join(",");
    text.push('\n');
    for _ in 0..n {
        state = state.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0xb5);
        let row = state >> 17;
        let line: Vec<String> = (0..d)
            .map(|i| ((row >> (bits * i)) & ((1 << bits) - 1)).to_string())
            .collect();
        text.push_str(&line.join(","));
        text.push('\n');
    }
    std::fs::write(path, text).expect("write csv");
}

#[test]
fn ingest_query_stats_roundtrip() {
    let dir = temp_dir("roundtrip");
    write_csv(&dir.join("rows.csv"), 10, 800, 0xabc);

    let out = pfe(
        &dir,
        &["ingest", "rows.csv", "--out", "rows.pfes", "--quiet"],
    );
    assert_ok(&out, "ingest");
    let report = stdout_json(&out);
    assert_eq!(report.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(report.get("rows").and_then(Json::as_f64), Some(800.0));
    assert_eq!(report.get("q").and_then(Json::as_f64), Some(2.0));
    assert_eq!(
        report
            .get("columns")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(10)
    );

    let out = pfe(
        &dir,
        &["query", "rows.pfes", "--op", "f0", "--cols", "0,1,2"],
    );
    assert_ok(&out, "query");
    let ans = stdout_json(&out);
    assert_eq!(ans.get("ok"), Some(&Json::Bool(true)));
    assert!(ans.get("estimate").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(ans.get("guarantee").is_some());

    // The other statistics answer through the same checkpoint.
    for extra in [
        vec!["--op", "frequency", "--cols", "0,1", "--pattern", "1,0"],
        vec!["--op", "heavy_hitters", "--cols", "0,1,2", "--phi", "0.05"],
        vec!["--op", "l1_sample", "--cols", "0,1,2,3", "--k", "4"],
    ] {
        let mut args = vec!["query", "rows.pfes"];
        args.extend(extra);
        let out = pfe(&dir, &args);
        assert_ok(&out, "query variant");
        assert_eq!(stdout_json(&out).get("ok"), Some(&Json::Bool(true)));
    }

    let out = pfe(&dir, &["stats", "rows.pfes"]);
    assert_ok(&out, "stats");
    let stats = stdout_json(&out);
    assert_eq!(
        stats.get("snapshot_rows").and_then(Json::as_f64),
        Some(800.0)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `elapsed_ms` is the ingest's time — file to checkpoint on disk — not
/// the reader's: 20,000 rows sit entirely in the shard channels when the
/// last line has been routed, with nearly all of the work still to do.
#[test]
fn ingest_reports_end_to_end_time_not_the_readers() {
    let dir = temp_dir("elapsed");
    write_csv_bits(&dir.join("rows.csv"), 10, 20_000, 0x51, 2);
    for args in [
        &["ingest", "rows.csv", "--out", "rows.pfes"][..],
        &["resume", "rows.pfes", "--ingest", "rows.csv"][..],
    ] {
        let mut args = args.to_vec();
        args.extend(["--q", "4", "--fp", "2.0", "--shards", "2", "--quiet"]);
        let begin = std::time::Instant::now();
        let out = pfe(&dir, &args);
        let wall_ms = begin.elapsed().as_secs_f64() * 1e3;
        assert_ok(&out, args[0]);
        let report = stdout_json(&out);
        let field = |name| report.get(name).and_then(Json::as_f64).expect(name);
        let elapsed_ms = field("elapsed_ms");
        assert!(
            elapsed_ms >= 0.5 * wall_ms && elapsed_ms <= wall_ms,
            "{}: reported {elapsed_ms} ms of a {wall_ms} ms process",
            args[0]
        );
        let rate = 20_000.0 / (elapsed_ms / 1e3);
        assert!((field("rows_per_sec") / rate - 1.0).abs() < 1e-6);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_queries_answer_in_order() {
    let dir = temp_dir("batch");
    write_csv(&dir.join("rows.csv"), 8, 400, 0x17);
    assert_ok(
        &pfe(&dir, &["ingest", "rows.csv", "--out", "s.pfes", "--quiet"]),
        "ingest",
    );
    std::fs::write(
        dir.join("queries.jsonl"),
        "{\"op\":\"f0\",\"cols\":[0,1]}\n{\"op\":\"f0\",\"cols\":[0,1,2]}\n",
    )
    .unwrap();
    let out = pfe(&dir, &["query", "s.pfes", "--batch", "queries.jsonl"]);
    assert_ok(&out, "batch query");
    let lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(lines.len(), 2);
    let a = Json::parse(&lines[0]).unwrap();
    let b = Json::parse(&lines[1]).unwrap();
    // F0 over a superset of columns can only grow.
    assert!(
        b.get("estimate").and_then(Json::as_f64).unwrap()
            >= a.get("estimate").and_then(Json::as_f64).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_merge_equals_single_engine() {
    let dir = temp_dir("merge");
    write_csv(&dir.join("a.csv"), 9, 300, 1);
    write_csv(&dir.join("b.csv"), 9, 300, 2);
    for (f, s) in [("a.csv", "a.pfes"), ("b.csv", "b.pfes")] {
        assert_ok(&pfe(&dir, &["ingest", f, "--out", s, "--quiet"]), "ingest");
    }
    let out = pfe(&dir, &["checkpoint", "a.pfes", "b.pfes", "--out", "m.pfes"]);
    assert_ok(&out, "merge");
    let merged = stdout_json(&out);
    assert_eq!(merged.get("rows").and_then(Json::as_f64), Some(600.0));

    let out = pfe(&dir, &["stats", "m.pfes"]);
    assert_ok(&out, "stats on merged");
    assert_eq!(
        stdout_json(&out)
            .get("snapshot_rows")
            .and_then(Json::as_f64),
        Some(600.0)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_continues_ingesting() {
    let dir = temp_dir("resume");
    write_csv(&dir.join("one.csv"), 7, 250, 3);
    write_csv(&dir.join("two.csv"), 7, 150, 4);
    assert_ok(
        &pfe(&dir, &["ingest", "one.csv", "--out", "s.pfes", "--quiet"]),
        "ingest",
    );
    let out = pfe(
        &dir,
        &["resume", "s.pfes", "--ingest", "two.csv", "--quiet"],
    );
    assert_ok(&out, "resume");
    let out = pfe(&dir, &["stats", "s.pfes"]);
    assert_eq!(
        stdout_json(&out)
            .get("snapshot_rows")
            .and_then(Json::as_f64),
        Some(400.0)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_agrees_on_clean_files() {
    let dir = temp_dir("verify");
    write_csv(&dir.join("rows.csv"), 11, 600, 5);
    let out = pfe(&dir, &["verify", "rows.csv"]);
    assert_ok(&out, "verify");
    let v = stdout_json(&out);
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(v.get("packed"), Some(&Json::Bool(true)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_files_fail_with_provenance() {
    let dir = temp_dir("badfile");
    std::fs::write(dir.join("bad.csv"), "a,b\n1,0\n1,x\n").unwrap();
    let out = pfe(&dir, &["ingest", "bad.csv", "--out", "s.pfes", "--quiet"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 3"), "stderr was: {err}");
    assert!(!dir.join("s.pfes").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn windowed_ingest_serves_window_queries() {
    let dir = temp_dir("window");
    write_csv(&dir.join("rows.csv"), 8, 2000, 6);
    assert_ok(
        &pfe(
            &dir,
            &[
                "ingest", "rows.csv", "--out", "w.pfes", "--window", "256", "--quiet",
            ],
        ),
        "windowed ingest",
    );
    let out = pfe(
        &dir,
        &[
            "query", "w.pfes", "--op", "f0", "--cols", "0,1,2", "--window", "500",
        ],
    );
    assert_ok(&out, "window query");
    let ans = stdout_json(&out);
    assert_eq!(ans.get("ok"), Some(&Json::Bool(true)));
    assert!(ans.get("window").is_some(), "window provenance missing");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_pipe_mode_resumes_a_checkpoint() {
    use std::io::Write;
    let dir = temp_dir("pipe");
    write_csv(&dir.join("rows.csv"), 8, 300, 7);
    assert_ok(
        &pfe(&dir, &["ingest", "rows.csv", "--out", "s.pfes", "--quiet"]),
        "ingest",
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_pfe"))
        .current_dir(&dir)
        .args(["serve", "--resume", "s.pfes"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"{\"op\":\"f0\",\"cols\":[0,1,2]}\n{\"op\":\"quit\"}\n")
        .unwrap();
    let out = child.wait_with_output().expect("serve exits");
    assert_ok(&out, "serve pipe");
    let first = String::from_utf8_lossy(&out.stdout)
        .lines()
        .next()
        .unwrap()
        .to_string();
    let ans = Json::parse(&first).unwrap();
    assert_eq!(ans.get("ok"), Some(&Json::Bool(true)));
    assert!(ans.get("estimate").and_then(Json::as_f64).unwrap() > 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_exit_2() {
    let dir = temp_dir("usage");
    let out = pfe(&dir, &["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let out = pfe(&dir, &["ingest"]);
    assert_eq!(out.status.code(), Some(2));
    let out = pfe(&dir, &["help"]);
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(help.contains("verify FILE"));
    // The removed ingest benchmark is gone from every surface: typed
    // unknown-subcommand and unknown-flag errors, no help entry.
    assert!(!help.contains("bench-ingest") && !help.contains("--iters"));
    let out = pfe(&dir, &["bench-ingest", "rows.csv"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand \"bench-ingest\""));
    let out = pfe(&dir, &["verify", "rows.csv", "--iters", "1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --iters"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_flags_are_refused_before_anything_is_written() {
    let dir = temp_dir("unknown-flag");
    write_csv(&dir.join("rows.csv"), 8, 200, 0x5eed);
    // A typo of --kmv-k used to ingest with the default k and exit 0.
    let out = pfe(
        &dir,
        &[
            "ingest", "rows.csv", "--out", "x.pfes", "--kmvk", "7", "--bogus", "1",
        ],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --kmvk"));
    assert!(!dir.join("x.pfes").exists(), "nothing may be written");

    // Flags valid for *some* subcommand pass on all of them: one fixed
    // engine-flag list (the benchmark's, `--cache` included) is handed to
    // ingest, query and stats alike.
    let engine = ["--shards", "2", "--kmv-k", "64", "--cache", "16"];
    let with_engine = |head: &[&'static str]| [head, &engine[..]].concat();
    assert_ok(
        &pfe(
            &dir,
            &with_engine(&["ingest", "rows.csv", "--out", "x.pfes", "--quiet"]),
        ),
        "ingest with engine flags",
    );
    assert_ok(
        &pfe(
            &dir,
            &with_engine(&["query", "x.pfes", "--op", "f0", "--cols", "0,1"]),
        ),
        "query with engine flags",
    );
    assert_ok(
        &pfe(&dir, &with_engine(&["stats", "x.pfes"])),
        "stats with engine flags",
    );
    std::fs::remove_dir_all(&dir).ok();
}
