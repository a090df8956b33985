//! The `(α, ε)` contract on the wire, pinned bit for bit: one table of
//! queries, each beside the guarantee its answer must carry, with every
//! formula written out here rather than read from `pfe_core::bounds` — so
//! a change to how or where the guarantee is assembled cannot move a
//! reply without failing this file.
//!
//! - α-net answers (Theorem 6.5 with Lemma 6.4): `β × Q^s` for `F_0`
//!   (`powi`), `β × Q^{s·|p−1|}` for `F_p` (`powf`), where `s = |C Δ C′|`
//!   is the query's own rounding — members of one plan group (and later
//!   cache hits of the group's entry) share a value but not an `α`;
//! - sample answers (Theorem 5.1 at δ = 0.05): `ε·n` for frequency and
//!   heavy hitters, `ε` of probability mass for `ℓ_1` draws, with
//!   `ε = √(ln(2/δ)/t)` over the `t` sampled rows;
//! - the exact path: `(1, 0, exact)`.

use pfe_engine::{Engine, EngineConfig, FpConfig, GuaranteeSource, Query};
use pfe_stream::gen::uniform_qary;

const Q: u32 = 3;
const D: u32 = 8;
const ROWS: usize = 3_000;
const KMV_K: usize = 64;
const SAMPLE_T: usize = 512;
const STABLE_T: usize = 8;
const AMS_PER_GROUP: usize = 6;

/// Theorem 5.1's δ for reported guarantees.
const DELTA: f64 = 0.05;

fn engine(sample_t: usize) -> Engine {
    let engine = Engine::start(
        D,
        Q,
        EngineConfig {
            shards: 2,
            kmv_k: KMV_K,
            sample_t,
            fp: Some(FpConfig {
                orders: vec![2.0, 1.5],
                stable_t: STABLE_T,
                ams_groups: 3,
                ams_per_group: AMS_PER_GROUP,
            }),
            ..Default::default()
        },
    )
    .expect("start");
    engine.ingest(&uniform_qary(Q, D, ROWS, 5)).expect("ingest");
    engine.refresh().expect("refresh");
    engine
}

/// The KMV plug-in's β at two standard errors: `1 + 2/√(k−2)`.
fn kmv_beta() -> f64 {
    1.0 + 2.0 / ((KMV_K - 2) as f64).sqrt()
}

/// The AMS plug-in's β: `1 + √(8/per_group)`.
fn ams_beta() -> f64 {
    1.0 + (8.0 / AMS_PER_GROUP as f64).sqrt()
}

/// The stable-projection plug-in's β: `1 + 3/√t`.
fn stable_beta() -> f64 {
    1.0 + 3.0 / (STABLE_T as f64).sqrt()
}

/// Theorem 5.1's ε over `t` sampled rows.
fn sample_epsilon(t: usize) -> f64 {
    ((2.0 / DELTA).ln() / t as f64).sqrt()
}

/// One table row: the query, the `(α, ε, source)` its answer must carry,
/// and the rounding `|C Δ C′|` it must report.
struct Row {
    what: &'static str,
    query: Query,
    alpha: f64,
    epsilon: f64,
    source: GuaranteeSource,
    sym_diff: u32,
}

fn net(what: &'static str, query: Query, alpha: f64, sym_diff: u32) -> Row {
    Row {
        what,
        query,
        alpha,
        epsilon: 0.0,
        source: GuaranteeSource::AlphaNet,
        sym_diff,
    }
}

fn sample(what: &'static str, query: Query, epsilon: f64) -> Row {
    Row {
        what,
        query,
        alpha: 1.0,
        epsilon,
        source: GuaranteeSource::Sample,
        sym_diff: 0,
    }
}

/// Ask the whole table as one batch, twice — the second time every
/// answer is a cache hit — and compare each guarantee bit for bit.
fn check(engine: &Engine, table: &[Row]) {
    let queries: Vec<Query> = table.iter().map(|r| r.query.clone()).collect();
    for pass in ["computed", "cached"] {
        let answers = engine.query_batch(&queries);
        for (row, answer) in table.iter().zip(&answers) {
            let a = answer
                .as_ref()
                .unwrap_or_else(|e| panic!("{}: {e:?}", row.what));
            assert_eq!(a.cost.cached, pass == "cached", "{} ({pass})", row.what);
            assert_eq!(a.provenance.sym_diff, row.sym_diff, "{} ({pass})", row.what);
            let g = a.guarantee;
            assert_eq!(
                (g.alpha.to_bits(), g.epsilon.to_bits(), g.source),
                (row.alpha.to_bits(), row.epsilon.to_bits(), row.source),
                "{} ({pass}): got alpha {} epsilon {}, want alpha {} epsilon {}",
                row.what,
                g.alpha,
                g.epsilon,
                row.alpha,
                row.epsilon,
            );
        }
    }
}

#[test]
fn every_answer_carries_its_theorem_guarantee_bit_for_bit() {
    // d = 8, α = 0.25: the net keeps subsets of ≤ 2 or ≥ 6 columns. A
    // 3-column query shrinks by one column onto {0, 1}, a 4-column query
    // (shrink and grow tie at 2) by two — the same member as the in-net
    // {0, 1}, so all three share one plan group and one cache entry.
    let engine = engine(SAMPLE_T);
    let q = f64::from(Q);
    let t = SAMPLE_T.min(ROWS);
    let n = ROWS as f64;
    let eps = sample_epsilon(t);
    let table = [
        net(
            "f0 in net",
            Query::over([0, 1]).f0(),
            kmv_beta() * q.powi(0),
            0,
        ),
        net(
            "f0 rounded by 1",
            Query::over([0, 1, 2]).f0(),
            kmv_beta() * q.powi(1),
            1,
        ),
        net(
            "f0 rounded by 2",
            Query::over([0, 1, 2, 3]).f0(),
            kmv_beta() * q.powi(2),
            2,
        ),
        net(
            "fp p=2 (AMS) in net",
            Query::over([0, 1]).fp(2.0),
            ams_beta() * q.powf(0.0 * (2.0f64 - 1.0).abs()),
            0,
        ),
        net(
            "fp p=2 (AMS) rounded by 1",
            Query::over([0, 1, 2]).fp(2.0),
            ams_beta() * q.powf(1.0 * (2.0f64 - 1.0).abs()),
            1,
        ),
        net(
            "fp p=1.5 (stable) rounded by 2: Q^{s/2}",
            Query::over([0, 1, 2, 3]).fp(1.5),
            stable_beta() * q.powf(2.0 * (1.5f64 - 1.0).abs()),
            2,
        ),
        sample(
            "frequency",
            Query::over([0, 1, 2]).frequency([0u16, 1, 2]),
            eps * n,
        ),
        sample(
            "heavy hitters",
            Query::over([0, 1, 2]).heavy_hitters(0.05),
            eps * n,
        ),
        sample(
            "l1 sample: probability mass",
            Query::over([0, 1, 2]).l1_sample(4).with_seed(9),
            eps,
        ),
    ];
    check(&engine, &table);
}

#[test]
fn the_exact_path_reports_one_and_zero() {
    // The reservoir holds every row, so `exact_if_available` is honoured.
    let engine = engine(ROWS);
    let exact = |what, query: Query| Row {
        what,
        query,
        alpha: 1.0,
        epsilon: 0.0,
        source: GuaranteeSource::Exact,
        sym_diff: 0,
    };
    let table = [
        exact(
            "f0 exact, even where the net would round",
            Query::over([0, 1, 2, 3]).f0().exact_if_available(),
        ),
        exact(
            "fp exact",
            Query::over([0, 1, 2]).fp(1.5).exact_if_available(),
        ),
        exact(
            "frequency exact",
            Query::over([0, 1])
                .frequency([2u16, 0])
                .exact_if_available(),
        ),
        exact(
            "heavy hitters exact",
            Query::over([0, 1]).heavy_hitters(0.1).exact_if_available(),
        ),
        exact(
            "l1 sample exact",
            Query::over([0, 1]).l1_sample(4).exact_if_available(),
        ),
    ];
    check(&engine, &table);
}
