//! `benchmark` — the repo benchmark's command line (see README.md).
//!
//! ```text
//! benchmark [run] --workload NAME --seed N --seconds S --trace 0|1   one run, contract output
//! benchmark run   [--reps N] [--quick] [--out FILE]                  all five workloads
//! benchmark trace [...]                                              the same with --trace 1
//! benchmark compare A.json B.json [--agree]                          two result files side by side
//! ```
//!
//! The last line of a single-workload run is the one JSON object the
//! driver reads: `correct`, `attempted`, `failed`, `metrics`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use pfe_benchmark::e2e::{self, Options};
use pfe_benchmark::json::Json;
use pfe_benchmark::stats::{median, spread};
use pfe_benchmark::{reference, spec};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    reps: usize,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String], trace_default: bool) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: f64::NAN,
        trace: trace_default,
        quick: false,
        reps: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()).filter(|w| w != "all"),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed: not a whole number")?,
            "--seconds" => a.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?,
            "--trace" => a.trace = value()? == "1",
            "--reps" => a.reps = value()?.parse().map_err(|_| "--reps: not a whole number")?,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.seconds.is_nan() {
        a.seconds = if a.quick { 1.0 } else { 10.0 };
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) || a.reps == 0 {
        return Err("--seconds must be in (0, 60] and --reps at least 1".into());
    }
    Ok(a)
}

/// Programs built next to this one: `pfe` (the program under test) and
/// `layers` (the traced replay).
fn sibling(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = me.parent().ok_or("executable has no directory")?.join(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} is not built; use benchmark/run.sh",
            path.display()
        ))
    }
}

/// One run's result in both shapes: the contract line and the result file.
struct RunResult {
    workload: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// (name, value, unit, samples)
    metrics: Vec<(String, f64, String, usize)>,
}

impl RunResult {
    /// `correct`, `attempted`, `failed`, `metrics` — the contract's keys.
    /// The result file also keeps the sample count behind every metric.
    fn fields(&self, with_samples: bool) -> Vec<(&'static str, Json)> {
        let metrics = self.metrics.iter().map(|(name, value, unit, samples)| {
            let mut m = vec![
                ("value", Json::Num(*value)),
                ("unit", Json::Str(unit.clone())),
            ];
            if with_samples {
                m.push(("samples", Json::Num(*samples as f64)));
            }
            (name.clone(), Json::obj(m))
        });
        vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ]
    }

    fn contract_line(&self) -> String {
        Json::obj(self.fields(false)).to_string()
    }

    fn file_entry(&self, rep: usize) -> Json {
        let mut fields = vec![
            ("workload", Json::Str(self.workload.clone())),
            ("rep", Json::Num(rep as f64)),
        ];
        fields.extend(self.fields(true));
        Json::obj(fields)
    }

    fn print_table(&self) {
        for (name, value, unit, samples) in &self.metrics {
            println!(
                "metric {:<14} {:<34} {:>16.4} {:<6} n={samples}",
                self.workload, name, value, unit
            );
        }
    }
}

fn run_e2e(workload: &str, a: &Args, scratch: &Path) -> Result<RunResult, String> {
    let outcome = e2e::run(&Options {
        workload: workload.to_string(),
        seed: a.seed,
        seconds: a.seconds,
        quick: a.quick,
        pfe: sibling("pfe")?,
        scratch: scratch.to_path_buf(),
    })?;
    for d in &outcome.details {
        println!("detail {workload}: {d}");
    }
    for b in &outcome.broken {
        println!("BROKEN {workload}: {b}");
    }
    let correct = outcome.correct();
    let metrics = spec::END_TO_END
        .iter()
        .map(|m| {
            let r = outcome
                .readings
                .iter()
                .find(|r| r.name == m.name)
                .ok_or_else(|| format!("{workload} did not measure {}", m.name))?;
            Ok((m.name.to_string(), r.value, m.unit.to_string(), r.samples))
        })
        .collect::<Result<Vec<_>, String>>()?;
    if let Some((name, value, ..)) = metrics.iter().find(|(_, v, ..)| !v.is_finite()) {
        return Err(format!("{workload}: {name} measured as {value}"));
    }
    Ok(RunResult {
        workload: workload.to_string(),
        correct,
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        metrics,
    })
}

/// The traced run: `layers` replays the workload's inputs in-process and
/// prints its result as one JSON line.
fn run_traced(workload: &str, a: &Args, scratch: &Path) -> Result<RunResult, String> {
    let mut cmd = Command::new(sibling("layers")?);
    cmd.args(["--workload", workload, "--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .arg("--dir")
        .arg(scratch)
        .args(["--pfe", sibling("pfe")?.to_str().ok_or("non-UTF-8 path")?]);
    if a.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run layers: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in lines {
        println!("{l}");
    }
    if !out.status.success() {
        return Err(format!("layers exited with {}: {last}", out.status));
    }
    let doc = Json::parse(last).ok_or_else(|| format!("layers printed {last:?}"))?;
    let values = doc.get("metrics").ok_or("layers result has no metrics")?;
    let metrics = spec::PER_LAYER
        .iter()
        .map(|m| {
            let v = values
                .num(m.name)
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("layers did not measure {}", m.name))?;
            Ok((m.name.to_string(), v, m.unit.to_string(), 1))
        })
        .collect::<Result<Vec<_>, String>>()?;
    if let Some(extra) = values.as_obj().and_then(|o| {
        o.iter()
            .find(|(k, _)| !spec::PER_LAYER.iter().any(|m| m.name == k))
    }) {
        return Err(format!(
            "layers printed {}, which BENCHMARK.json does not declare",
            extra.0
        ));
    }
    let failed = doc.num("failed").unwrap_or(0.0) as u64;
    Ok(RunResult {
        workload: workload.to_string(),
        correct: failed == 0,
        attempted: (doc.num("attempted").unwrap_or(1.0) as u64).max(1),
        failed,
        metrics,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

fn run(args: &[String], trace_default: bool) -> Result<ExitCode, String> {
    let a = parse_run_args(args, trace_default)?;
    let declared = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    spec::self_check(&declared)?;
    reference::self_test()?;
    let scratch = PathBuf::from(format!("benchmark/out/tmp-{}", std::process::id()));
    let workloads: Vec<&str> = match &a.workload {
        Some(w) => vec![
            spec::workload(w)
                .ok_or_else(|| format!("unknown workload {w:?}"))?
                .name,
        ],
        None => spec::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    println!(
        "benchmark: nproc={} seed={} seconds={} trace={} quick={} reps={}",
        nproc(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        a.quick,
        a.reps
    );
    let mut entries = Vec::new();
    let mut all_correct = true;
    let mut last_line = String::new();
    // Round-robin over workloads inside each repetition, so slow drift of
    // the machine spreads over all of them instead of landing on one.
    let result: Result<(), String> = (0..a.reps).try_for_each(|rep| {
        workloads.iter().try_for_each(|w| {
            let r = if a.trace {
                run_traced(w, &a, &scratch)?
            } else {
                run_e2e(w, &a, &scratch)?
            };
            r.print_table();
            all_correct &= r.correct;
            entries.push(r.file_entry(rep));
            last_line = r.contract_line();
            if workloads.len() > 1 || a.reps > 1 {
                println!("result {w} rep {rep}: {last_line}");
            }
            Ok(())
        })
    });
    std::fs::remove_dir_all(&scratch).ok();
    result?;
    if workloads.len() > 1 || a.reps > 1 || a.out.is_some() {
        let out = a.out.clone().unwrap_or_else(|| {
            PathBuf::from(if a.trace {
                "benchmark/out/trace-run.json"
            } else {
                "benchmark/out/run.json"
            })
        });
        let doc = Json::obj([
            ("nproc", Json::Num(nproc() as f64)),
            ("seed", Json::Num(a.seed as f64)),
            ("seconds", Json::Num(a.seconds)),
            ("quick", Json::Bool(a.quick)),
            ("trace", Json::Bool(a.trace)),
            ("runs", Json::Arr(entries)),
        ]);
        if let Some(dir) = out.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&out, doc.to_string() + "\n")
            .map_err(|e| format!("{}: {e}", out.display()))?;
        println!("wrote {}", out.display());
    }
    if workloads.len() == 1 && a.reps == 1 {
        // The contract form: the verdict travels in the line itself.
        println!("{last_line}");
        return Ok(ExitCode::SUCCESS);
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

// -------------------------------------------------------------------- compare

/// (workload, metric) → values over repetitions, in file order.
type Series = Vec<((String, String), Vec<f64>)>;

fn load(path: &str) -> Result<(Json, Series), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(text.trim()).ok_or_else(|| format!("{path}: not a result file"))?;
    let mut series: Series = Vec::new();
    for run in doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no runs"))?
    {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        for (name, m) in run.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            let Some(v) = m.num("value") else { continue };
            let key = (workload.clone(), name.clone());
            match series.iter_mut().find(|(k, _)| *k == key) {
                Some((_, vs)) => vs.push(v),
                None => series.push((key, vec![v])),
            }
        }
    }
    Ok((doc, series))
}

/// Nanoseconds per unit, for the units that are times.
fn time_scale(unit: &str) -> Option<f64> {
    match unit {
        "ns" => Some(1.0),
        "us" => Some(1e3),
        "ms" => Some(1e6),
        "s" => Some(1e9),
        _ => None,
    }
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let agree = args.iter().any(|a| a == "--agree");
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [a_path, b_path] = files[..] else {
        return Err("usage: benchmark compare A.json B.json [--agree]".into());
    };
    let declared =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let bounds = spec::bounds(&declared);
    let (a_doc, a) = load(a_path)?;
    let (b_doc, b) = load(b_path)?;
    for (label, doc) in [("A", &a_doc), ("B", &b_doc)] {
        println!(
            "{label}: nproc={} seed={} seconds={} quick={}",
            doc.num("nproc").unwrap_or(f64::NAN),
            doc.num("seed").unwrap_or(f64::NAN),
            doc.num("seconds").unwrap_or(f64::NAN),
            doc.get("quick").and_then(Json::as_bool).unwrap_or(false)
        );
    }
    println!(
        "{:<13} {:<18} {:>14} {:>14} {:>8} {:>6} {:>7} {:>7}  verdict   (delta = (B-A)/A, base A)",
        "workload", "metric", "A median", "B median", "delta", "bound", "A sprd", "B sprd"
    );
    let mut worse = 0;
    let mut differs = 0;
    let mut layer_rows = Vec::new();
    for ((workload, name), a_vals) in &a {
        let Some((_, b_vals)) = b.iter().find(|(k, _)| k.0 == *workload && k.1 == *name) else {
            continue;
        };
        let (ma, mb) = (median(a_vals), median(b_vals));
        let delta = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
        if let Some(m) = spec::END_TO_END.iter().find(|m| m.name == name) {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |b| b.1);
            let harm = if m.better == "lower" { delta } else { -delta };
            let (sa, sb) = (spread(a_vals), spread(b_vals));
            // With one run a side there is no spread to judge by.
            let all_better = a_vals.iter().all(|x| {
                b_vals
                    .iter()
                    .all(|y| if m.better == "lower" { y < x } else { y > x })
            });
            let verdict = if sa.max(sb) > bound && !all_better && harm.abs() > bound {
                "unresolved"
            } else if harm > bound {
                "worse"
            } else if harm < -bound {
                "better"
            } else {
                "same"
            };
            worse += usize::from(verdict == "worse");
            differs += usize::from(verdict != "same");
            println!(
                "{workload:<13} {name:<18} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>5.0}% {:>6.1}% {:>6.1}%  {verdict}",
                delta * 100.0,
                bound * 100.0,
                sa * 100.0,
                sb * 100.0
            );
        } else if let Some(m) = spec::PER_LAYER.iter().find(|m| m.name == name) {
            let contribution = time_scale(m.unit).map(|s| (mb - ma) * s);
            layer_rows.push((
                contribution,
                workload.clone(),
                name.clone(),
                ma,
                mb,
                delta,
                m.unit,
            ));
        }
    }
    if !layer_rows.is_empty() {
        // Largest absolute change in time first; counts and ratios after.
        layer_rows.sort_by(|x, y| {
            let key = |c: &Option<f64>| c.map_or(-1.0, f64::abs);
            key(&y.0)
                .total_cmp(&key(&x.0))
                .then(y.5.abs().total_cmp(&x.5.abs()))
        });
        println!("per-layer deltas, largest change in time first (delta = (B-A)/A, base A):");
        for (contribution, workload, name, ma, mb, delta, unit) in layer_rows {
            let moved = contribution.map_or(String::from("-"), |c| format!("{c:+.0} ns"));
            println!(
                "{workload:<13} {name:<34} {ma:>14.4} {mb:>14.4} {unit:<6} {:>+7.1}% {moved:>16}",
                delta * 100.0
            );
        }
    }
    let bad = if agree { differs } else { worse };
    println!(
        "{} end-to-end pairs outside their bound ({})",
        bad,
        if agree {
            "--agree: any direction counts"
        } else {
            "worse only"
        }
    );
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..], false),
        Some("trace") => run(&args[1..], true),
        Some("compare") => compare(&args[1..]),
        // The driver appends its flags straight after the command.
        Some(flag) if flag.starts_with("--") => run(&args, false),
        _ => Err("usage: benchmark [run|trace] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                  [--quick] [--reps N] [--out FILE] | compare A.json B.json [--agree]"
            .into()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
