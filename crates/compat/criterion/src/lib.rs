#![forbid(unsafe_code)]
//! Offline, API-compatible stand-in for the `criterion` benchmark harness.
//!
//! The build environment has no crate registry, so the workspace vendors
//! this minimal subset of criterion's surface: `criterion_group!` /
//! `criterion_main!`, [`Criterion`], benchmark groups, [`BenchmarkId`],
//! [`Throughput`], and a [`Bencher`] whose `iter` genuinely measures
//! wall-clock time (median over samples) and prints one line per benchmark.
//! It exists so `cargo bench` runs and reports real numbers, not so the
//! statistics match upstream criterion.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`] for API parity.
pub use std::hint::black_box;

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_size: 20,
            measurement_time: Duration::from_millis(400),
        }
    }
}

impl Criterion {
    /// Override the number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Override the measurement budget per benchmark.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = t;
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
            sample_size: None,
        }
    }

    /// Run a single free-standing benchmark.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = id.into();
        run_bench(
            &id.label(),
            self.sample_size,
            self.measurement_time,
            None,
            f,
        );
        self
    }
}

/// Units for reporting per-iteration throughput.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Iterations process this many logical elements.
    Elements(u64),
    /// Iterations process this many bytes.
    Bytes(u64),
}

/// A named benchmark identifier, optionally parameterized.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    function: String,
    parameter: Option<String>,
}

impl BenchmarkId {
    /// Identifier with a function name and a parameter value.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            function: function.into(),
            parameter: Some(parameter.to_string()),
        }
    }

    /// Identifier carrying only a parameter value.
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            function: String::new(),
            parameter: Some(parameter.to_string()),
        }
    }

    fn label(&self) -> String {
        match (&self.function.is_empty(), &self.parameter) {
            (false, Some(p)) => format!("{}/{}", self.function, p),
            (false, None) => self.function.clone(),
            (true, Some(p)) => p.clone(),
            (true, None) => String::new(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self {
            function: s.to_string(),
            parameter: None,
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        Self {
            function: s,
            parameter: None,
        }
    }
}

/// A group of benchmarks sharing a name prefix and throughput setting.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Set the per-iteration throughput used for rate reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Override the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(2));
        self
    }

    /// Override the measurement budget for this group.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.criterion.measurement_time = t;
        self
    }

    /// Run one benchmark in the group.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = id.into();
        let label = format!("{}/{}", self.name, id.label());
        let samples = self.sample_size.unwrap_or(self.criterion.sample_size);
        run_bench(
            &label,
            samples,
            self.criterion.measurement_time,
            self.throughput,
            f,
        );
        self
    }

    /// Run one benchmark with an explicit input value.
    pub fn bench_with_input<I>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Finish the group (upstream criterion emits summary artifacts here).
    pub fn finish(&mut self) {}
}

/// Timing handle passed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `routine` over this sample's iteration count.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Let `routine` time itself: it receives the iteration count and
    /// returns the measured wall-clock total, mirroring upstream
    /// criterion's escape hatch for workloads whose timing the harness
    /// cannot wrap (e.g. measurements captured out-of-band).
    pub fn iter_custom(&mut self, mut routine: impl FnMut(u64) -> Duration) {
        self.elapsed = routine(self.iters);
    }
}

fn run_bench(
    label: &str,
    samples: usize,
    budget: Duration,
    throughput: Option<Throughput>,
    mut f: impl FnMut(&mut Bencher),
) {
    // Calibrate: find an iteration count taking roughly budget/samples.
    let mut iters = 1u64;
    loop {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        if b.elapsed * (samples as u32) >= budget || iters >= 1 << 24 {
            break;
        }
        let per_iter = b.elapsed.as_secs_f64() / iters as f64;
        let target = budget.as_secs_f64() / samples as f64;
        let next = if per_iter > 0.0 {
            (target / per_iter).ceil() as u64
        } else {
            iters * 2
        };
        iters = next.clamp(iters + 1, iters.saturating_mul(16));
    }
    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            b.elapsed.as_secs_f64() / iters as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = per_iter[per_iter.len() / 2];
    let rate = throughput.map(|t| match t {
        Throughput::Elements(n) => format!("  {:>12}/s", human_rate(n as f64 / median)),
        Throughput::Bytes(n) => format!("  {:>12}B/s", human_rate(n as f64 / median)),
    });
    println!(
        "bench: {label:<56} {:>12}/iter{}",
        human_time(median),
        rate.unwrap_or_default()
    );
    let bytes_per_sec = match throughput {
        Some(Throughput::Bytes(n)) => Some(n as f64 / median),
        _ => None,
    };
    emit_json_line(label, median, bytes_per_sec);
}

/// When `BENCH_JSON_PATH` is set, append one JSON line per benchmark —
/// `{"id":"<label>","estimate_ns":<median>}`, plus `"bytes_per_sec"`
/// for byte-throughput benchmarks — to that file.
/// `scripts/bench_json.sh` assembles these into a `BENCH_<date>.json`
/// report; unset, benchmarks print to stdout only.
fn emit_json_line(label: &str, median_secs: f64, bytes_per_sec: Option<f64>) {
    let Ok(path) = std::env::var("BENCH_JSON_PATH") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let escaped: String = label
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect();
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        use std::io::Write as _;
        let rate = bytes_per_sec
            .map(|r| format!(",\"bytes_per_sec\":{r:.1}"))
            .unwrap_or_default();
        let _ = writeln!(
            f,
            "{{\"id\":\"{escaped}\",\"estimate_ns\":{:.1}{rate}}}",
            median_secs * 1e9
        );
    }
}

fn human_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

fn human_rate(per_sec: f64) -> String {
    if per_sec >= 1e9 {
        format!("{:.2}G", per_sec / 1e9)
    } else if per_sec >= 1e6 {
        format!("{:.2}M", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.2}K", per_sec / 1e3)
    } else {
        format!("{per_sec:.1}")
    }
}

/// Collect benchmark functions into a single runner, mirroring criterion.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Entry point running every group, mirroring criterion.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
