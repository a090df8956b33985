//! Seeded inputs: rows, CSV files and request lines.
//!
//! Everything the program sees is derived from `--seed` here and nowhere
//! else: the same seed gives byte-identical files and request lines (see
//! the tests). No repo code is used, so the generator cannot drift with
//! the program.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// SplitMix64 — small, seedable, and good enough to shape a workload.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one named purpose, so adding a consumer
    /// never shifts the values another consumer sees.
    pub fn fork(seed: u64, purpose: &str) -> Self {
        let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
        for b in purpose.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut r = Rng(h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n > 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Columns per row and alphabet size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub d: u32,
    pub q: u32,
}

/// Generated rows, one symbol per byte, row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rows {
    pub shape: Shape,
    pub symbols: Vec<u8>,
}

impl Rows {
    pub fn len(&self) -> usize {
        self.symbols.len() / self.shape.d as usize
    }

    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    pub fn row(&self, i: usize) -> &[u8] {
        let d = self.shape.d as usize;
        &self.symbols[i * d..(i + 1) * d]
    }

    /// Rows `from..to` as their own `Rows` (the tail a window covers).
    pub fn slice(&self, from: usize, to: usize) -> Rows {
        let d = self.shape.d as usize;
        Rows {
            shape: self.shape,
            symbols: self.symbols[from * d..to * d].to_vec(),
        }
    }
}

const BASE_ROWS: usize = 4096;
const ZIPF_EXPONENT: f64 = 1.1;
const RESAMPLE_PROB: f64 = 0.02;

/// `n` rows drawn from 4096 random base rows with Zipf(1.1) weights, each
/// symbol then resampled uniformly with probability 0.02: skewed, with
/// near-duplicates, so heavy hitters exist and projections onto many
/// columns are not saturated.
pub fn gen_rows(seed: u64, shape: Shape, n: usize) -> Rows {
    let d = shape.d as usize;
    let q = u64::from(shape.q);
    let mut rng = Rng::fork(seed, "rows");
    let base: Vec<u8> = (0..BASE_ROWS * d).map(|_| rng.below(q) as u8).collect();
    let mut cumulative = Vec::with_capacity(BASE_ROWS);
    let mut total = 0.0;
    for rank in 1..=BASE_ROWS {
        total += (rank as f64).powf(-ZIPF_EXPONENT);
        cumulative.push(total);
    }
    let mut symbols = Vec::with_capacity(n * d);
    for _ in 0..n {
        let u = rng.unit() * total;
        let pick = cumulative.partition_point(|&c| c <= u).min(BASE_ROWS - 1);
        for &s in &base[pick * d..(pick + 1) * d] {
            if rng.unit() < RESAMPLE_PROB {
                symbols.push(rng.below(q) as u8);
            } else {
                symbols.push(s);
            }
        }
    }
    Rows { shape, symbols }
}

/// The CSV text `pfe ingest` reads: a `c0,c1,…` header, one row per line.
pub fn csv_bytes(rows: &Rows) -> Vec<u8> {
    let d = rows.shape.d as usize;
    let mut out = Vec::with_capacity(rows.symbols.len() * 2 + d * 4);
    for c in 0..d {
        if c > 0 {
            out.push(b',');
        }
        write!(out, "c{c}").expect("write to Vec");
    }
    out.push(b'\n');
    for r in 0..rows.len() {
        for (c, &s) in rows.row(r).iter().enumerate() {
            if c > 0 {
                out.push(b',');
            }
            // Alphabets here are single-digit.
            out.push(b'0' + s);
        }
        out.push(b'\n');
    }
    out
}

pub fn write_csv(rows: &Rows, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, csv_bytes(rows))
}

/// One `ingest` request line carrying rows `from..to`.
pub fn ingest_line(rows: &Rows, from: usize, to: usize) -> String {
    let mut out = String::with_capacity((to - from) * (rows.shape.d as usize * 2 + 3) + 32);
    out.push_str("{\"op\":\"ingest\",\"rows\":[");
    for r in from..to {
        if r > from {
            out.push(',');
        }
        push_list(&mut out, rows.row(r).iter().map(|&s| u64::from(s)));
    }
    out.push_str("]}");
    out
}

fn push_list(out: &mut String, items: impl Iterator<Item = u64>) {
    out.push('[');
    for (i, v) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{v}").expect("write to String");
    }
    out.push(']');
}

/// One of the five statistics, with its payload. Only the canonical op
/// names of docs/PROTOCOL.md are ever written.
#[derive(Debug, Clone, PartialEq)]
pub enum Stat {
    F0,
    Frequency { pattern: Vec<u8> },
    HeavyHitters { phi: f64 },
    L1Sample { k: u32 },
    Fp { p: f64 },
}

impl Stat {
    pub fn op(&self) -> &'static str {
        match self {
            Stat::F0 => "f0",
            Stat::Frequency { .. } => "frequency",
            Stat::HeavyHitters { .. } => "heavy_hitters",
            Stat::L1Sample { .. } => "l1_sample",
            Stat::Fp { .. } => "fp",
        }
    }

    /// True when the α-net answers it (the others come from the sample).
    pub fn net_path(&self) -> bool {
        matches!(self, Stat::F0 | Stat::Fp { .. })
    }
}

/// One statistic request: what was asked, kept beside the line that asks
/// it so the checker never has to parse its own requests.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    pub cols: Vec<u32>,
    pub stat: Stat,
    pub window: Option<u64>,
}

pub const HH_PHI: f64 = 0.05;
pub const L1_K: u32 = 16;
const L1_SEED: u64 = 7;

impl QuerySpec {
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        write!(out, "{{\"op\":\"{}\",\"cols\":", self.stat.op()).expect("write to String");
        push_list(&mut out, self.cols.iter().map(|&c| u64::from(c)));
        match &self.stat {
            Stat::F0 => {}
            Stat::Frequency { pattern } => {
                out.push_str(",\"pattern\":");
                push_list(&mut out, pattern.iter().map(|&s| u64::from(s)));
            }
            Stat::HeavyHitters { phi } => write!(out, ",\"phi\":{phi}").expect("write to String"),
            Stat::L1Sample { k } => {
                write!(out, ",\"k\":{k},\"seed\":{L1_SEED}").expect("write to String");
            }
            Stat::Fp { p } => write!(out, ",\"p\":{p}").expect("write to String"),
        }
        if let Some(w) = self.window {
            write!(out, ",\"window\":{w}").expect("write to String");
        }
        out.push('}');
        out
    }
}

/// One request and the statistics it asks for (one, the members of a
/// `batch`, or none for an `ingest`).
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The request line as it goes on the wire, newline included, so a
    /// timed loop writes it with one call and builds nothing.
    pub wire: String,
    pub queries: Vec<QuerySpec>,
    /// True when the statistics travel inside a `batch` envelope, which
    /// carries an `"ok"` of its own.
    pub batch: bool,
}

impl Request {
    /// The request line without its newline.
    pub fn line(&self) -> &str {
        self.wire.trim_end_matches('\n')
    }

    pub fn single(q: QuerySpec) -> Self {
        Request {
            wire: q.to_json() + "\n",
            queries: vec![q],
            batch: false,
        }
    }

    pub fn batch(queries: Vec<QuerySpec>) -> Self {
        let mut wire = String::from("{\"op\":\"batch\",\"queries\":[");
        for (i, q) in queries.iter().enumerate() {
            if i > 0 {
                wire.push(',');
            }
            wire.push_str(&q.to_json());
        }
        wire.push_str("]}\n");
        Request {
            wire,
            queries,
            batch: true,
        }
    }

    /// An `ingest` request carrying rows `from..to`.
    pub fn ingest(rows: &Rows, from: usize, to: usize) -> Self {
        Request {
            wire: ingest_line(rows, from, to) + "\n",
            queries: Vec::new(),
            batch: false,
        }
    }
}

/// Every column subset of `d` columns with `lo..=hi` members, in
/// lexicographic order within each size.
pub fn subsets(d: u32, lo: u32, hi: u32) -> Vec<Vec<u32>> {
    fn rec(d: u32, k: u32, start: u32, cur: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if cur.len() as u32 == k {
            out.push(cur.clone());
            return;
        }
        for c in start..d {
            cur.push(c);
            rec(d, k, c + 1, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    for k in lo..=hi {
        rec(d, k, 0, &mut Vec::new(), &mut out);
    }
    out
}

/// The projection of a random data row onto `cols`: a pattern that
/// actually occurs, so point-frequency queries are not all zero.
fn occurring_pattern(rng: &mut Rng, rows: &Rows, cols: &[u32]) -> Vec<u8> {
    let row = rows.row(rng.below(rows.len() as u64) as usize);
    cols.iter().map(|&c| row[c as usize]).collect()
}

fn random_subset(rng: &mut Rng, d: u32, lo: u32, hi: u32) -> Vec<u32> {
    let k = lo + rng.below(u64::from(hi - lo + 1)) as u32;
    let mut all: Vec<u32> = (0..d).collect();
    rng.shuffle(&mut all);
    all.truncate(k as usize);
    all.sort_unstable();
    all
}

/// Which statistics a query mix may draw, cycled in this order.
fn mix_stat(rng: &mut Rng, rows: &Rows, cols: &[u32], slot: usize, with_fp: bool) -> Stat {
    let kinds = if with_fp { 5 } else { 4 };
    match slot % kinds {
        0 => Stat::F0,
        1 => Stat::Frequency {
            pattern: occurring_pattern(rng, rows, cols),
        },
        2 => Stat::HeavyHitters { phi: HH_PHI },
        3 => Stat::L1Sample { k: L1_K },
        _ => Stat::Fp { p: 2.0 },
    }
}

/// `n` checked projections over random subsets of `lo..=hi` columns,
/// cycling through every statistic the snapshot can answer. Subset sizes
/// are chosen by the caller so that every answer's guarantee holds
/// deterministically (see README.md, "Checked answers").
pub fn check_queries(
    seed: u64,
    rows: &Rows,
    n: usize,
    (lo, hi): (u32, u32),
    with_fp: bool,
    window: Option<u64>,
) -> Vec<QuerySpec> {
    let mut rng = Rng::fork(seed, "check");
    (0..n)
        .map(|i| {
            let cols = random_subset(&mut rng, rows.shape.d, lo, hi);
            let stat = mix_stat(&mut rng, rows, &cols, i, with_fp);
            QuerySpec { cols, stat, window }
        })
        .collect()
}

pub const HOT_KEYS: usize = 64;
pub const HOT_BATCH: usize = 16;

/// `serve_hot`: `count` batch requests of 16 queries drawn from a 64-key
/// hot set (50% `f0`, 25% `frequency`, 25% `heavy_hitters`).
pub fn hot_requests(seed: u64, rows: &Rows, conn: usize, count: usize) -> Vec<Request> {
    let mut rng = Rng::fork(seed, "hot-set");
    let hot: Vec<QuerySpec> = (0..HOT_KEYS)
        .map(|i| {
            let cols = random_subset(&mut rng, rows.shape.d, 3, 6);
            let stat = match i % 4 {
                0 | 1 => Stat::F0,
                2 => Stat::Frequency {
                    pattern: occurring_pattern(&mut rng, rows, &cols),
                },
                _ => Stat::HeavyHitters { phi: HH_PHI },
            };
            QuerySpec {
                cols,
                stat,
                window: None,
            }
        })
        .collect();
    let mut rng = Rng::fork(seed, &format!("hot-draws-{conn}"));
    (0..count)
        .map(|_| {
            Request::batch(
                (0..HOT_BATCH)
                    .map(|_| hot[rng.below(HOT_KEYS as u64) as usize].clone())
                    .collect(),
            )
        })
        .collect()
}

/// `serve_cold`: one single-statistic request per (subset of 3–6 columns)
/// × {heavy_hitters, frequency, l1_sample, f0}, in one seeded shuffle.
/// Connection `conn` of `conns` starts its cycle `conn/conns` of the way
/// in, so two connections never re-reference a key within the cache's
/// reach.
pub fn cold_requests(seed: u64, rows: &Rows, conn: usize, conns: usize) -> Vec<Request> {
    let mut rng = Rng::fork(seed, "cold");
    let mut all = Vec::new();
    for cols in subsets(rows.shape.d, 3, 6) {
        for slot in 0..4 {
            let stat = mix_stat(&mut rng, rows, &cols, slot, false);
            all.push(QuerySpec {
                cols: cols.clone(),
                stat,
                window: None,
            });
        }
    }
    rng.shuffle(&mut all);
    let offset = all.len() * conn / conns.max(1);
    all.rotate_left(offset);
    all.into_iter().map(Request::single).collect()
}

pub const WINDOW_KEYS: usize = 16;

/// `window_mixed`: the reader's 16 keys over the last `window` rows, cycled.
pub fn window_requests(seed: u64, rows: &Rows, window: u64) -> Vec<Request> {
    check_queries(seed ^ 0x77, rows, WINDOW_KEYS, (3, 6), false, Some(window))
        .into_iter()
        .map(Request::single)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    const BINARY: Shape = Shape { d: 12, q: 2 };

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = gen_rows(1, BINARY, 2_000);
        let b = gen_rows(1, BINARY, 2_000);
        let c = gen_rows(2, BINARY, 2_000);
        assert_eq!(csv_bytes(&a), csv_bytes(&b));
        assert_ne!(csv_bytes(&a), csv_bytes(&c));
        let lines = |rows: &Rows, seed| -> Vec<String> {
            let mut out = vec![ingest_line(rows, 0, 512)];
            out.extend(hot_requests(seed, rows, 0, 8).into_iter().map(|r| r.wire));
            out.extend(cold_requests(seed, rows, 1, 2).into_iter().map(|r| r.wire));
            out.extend(
                window_requests(seed, rows, 50_000)
                    .into_iter()
                    .map(|r| r.wire),
            );
            out.extend(
                check_queries(seed, rows, 50, (3, 6), true, None)
                    .iter()
                    .map(QuerySpec::to_json),
            );
            out
        };
        assert_eq!(lines(&a, 1), lines(&b, 1));
        assert_ne!(lines(&a, 1), lines(&c, 2));
    }

    #[test]
    fn rows_are_skewed_and_in_alphabet() {
        let shape = Shape { d: 10, q: 4 };
        let rows = gen_rows(3, shape, 20_000);
        assert_eq!(rows.len(), 20_000);
        assert!(rows.symbols.iter().all(|&s| s < 4));
        let mut counts = std::collections::HashMap::new();
        for r in 0..rows.len() {
            *counts.entry(rows.row(r).to_vec()).or_insert(0u32) += 1;
        }
        let top = counts.values().copied().max().unwrap();
        // Zipf(1.1) over 4096 ranks puts ~9% of the mass on rank 1.
        assert!(top > 1_000, "heaviest row only {top} of 20000");
        assert!(counts.len() > 1_000, "only {} distinct rows", counts.len());
    }

    #[test]
    fn request_lines_are_json_with_canonical_ops() {
        let rows = gen_rows(1, BINARY, 1_000);
        let cold = cold_requests(1, &rows, 0, 2);
        // C(12,3)+C(12,4)+C(12,5)+C(12,6) = 2431 subsets × 4 statistics.
        assert_eq!(cold.len(), 2431 * 4);
        let hot = hot_requests(1, &rows, 0, 4);
        assert!(hot.iter().all(|r| r.queries.len() == HOT_BATCH));
        for r in cold
            .iter()
            .take(64)
            .chain(&hot)
            .chain(&window_requests(1, &rows, 500))
        {
            assert!(validate(r.line()), "{}", r.wire);
            assert!(!r.wire.contains("\"freq\"") && !r.wire.contains("\"hh\""));
        }
        assert!(validate(&ingest_line(&rows, 10, 20)));
        assert_eq!(subsets(5, 2, 3).len(), 10 + 10);
    }
}
