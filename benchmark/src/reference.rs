//! The exact reference every answer is judged against.
//!
//! Exact projected counts come from the generated rows through this
//! file's own hash maps — no repo code — so a bug shared by the program's
//! estimator and its tests cannot hide here. The ratio of an answer's
//! observed error to the bound its `guarantee` advertises is the *slack*.
//!
//! The program advertises its bounds at confidence `1 − δ`, `δ = 0.05`
//! (`DEFAULT_DELTA` in crates/core/src/bounds.rs: the Theorem 5.1 sample
//! `ε`, the KMV and AMS `β`), so one answer past its bound is within the
//! contract and must not make a run incorrect on the seeds where chance
//! produces it. Judged here, per path: an answer past `GROSS` times its
//! bound is failed outright (for the sample path that is more than eight
//! standard errors), and if more than `DELTA` of the checked answers are
//! past their bound (slack p95 above 1), all of those are failed.

use std::collections::HashMap;
use std::rc::Rc;

use crate::gen::{QuerySpec, Rows, Shape, Stat};
use crate::json::Json;

/// Distinct rows with multiplicities: projecting these is much cheaper
/// than projecting every row when the data is skewed.
pub struct Exact {
    shape: Shape,
    rows: Vec<u8>,
    counts: Vec<u64>,
    n: u64,
}

/// Exact pattern counts on one column subset. Patterns are keyed by their
/// base-`q` value, first listed column least significant.
pub struct Projection {
    q: u64,
    counts: HashMap<u64, u64>,
    pub n: u64,
}

fn key_of(symbols: impl Iterator<Item = u8>, q: u64) -> u64 {
    let mut key = 0u64;
    let mut place = 1u64;
    for s in symbols {
        key += u64::from(s) * place;
        place *= q;
    }
    key
}

impl Exact {
    pub fn new(rows: &Rows) -> Self {
        let q = u64::from(rows.shape.q);
        let mut index: HashMap<u64, usize> = HashMap::new();
        let mut distinct = Vec::new();
        let mut counts = Vec::new();
        for r in 0..rows.len() {
            let row = rows.row(r);
            let slot = *index
                .entry(key_of(row.iter().copied(), q))
                .or_insert_with(|| {
                    distinct.extend_from_slice(row);
                    counts.push(0);
                    counts.len() - 1
                });
            counts[slot] += 1;
        }
        Exact {
            shape: rows.shape,
            rows: distinct,
            counts,
            n: rows.len() as u64,
        }
    }

    pub fn project(&self, cols: &[u32]) -> Projection {
        let d = self.shape.d as usize;
        let q = u64::from(self.shape.q);
        let mut counts = HashMap::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let row = &self.rows[i * d..(i + 1) * d];
            *counts
                .entry(key_of(cols.iter().map(|&col| row[col as usize]), q))
                .or_insert(0) += c;
        }
        Projection {
            q,
            counts,
            n: self.n,
        }
    }
}

impl Projection {
    pub fn f0(&self) -> f64 {
        self.counts.len() as f64
    }

    pub fn f2(&self) -> f64 {
        self.counts.values().map(|&c| (c as f64) * (c as f64)).sum()
    }

    pub fn count(&self, pattern: &[u8]) -> f64 {
        let key = key_of(pattern.iter().copied(), self.q);
        self.counts.get(&key).copied().unwrap_or(0) as f64
    }
}

/// The share of answers the advertised confidence lets past their bound.
pub const DELTA: f64 = 0.05;
/// An answer past this many times its bound is failed whatever the share.
pub const GROSS: f64 = 2.0;
/// Float noise allowed on a slack of exactly 1.
const SLACK_LIMIT: f64 = 1.0 + 1e-9;

/// Which of the two guarantee paths an answer came by.
#[derive(Clone, Copy)]
enum Path {
    Net,
    Sample,
}

/// Running result of checking: how many answers were judged, how many
/// were malformed, refused or grossly wrong, and every slack seen.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub checked: u64,
    /// Failed whatever the confidence; `failures` adds the rest.
    pub failed: u64,
    pub net_slack: Vec<f64>,
    pub sample_slack: Vec<f64>,
    /// The first few failures, for the operator.
    pub notes: Vec<String>,
    /// The first few answers past their bound but not past `GROSS`.
    pub past_bound: Vec<String>,
}

/// Answers past their bound but not past `GROSS` (those are in `failed`).
fn past_bound(slack: &[f64]) -> usize {
    let past = |s: &&f64| **s > SLACK_LIMIT && **s <= GROSS;
    slack.iter().filter(past).count()
}

/// Answers past their bound, gross or not.
pub fn beyond(slack: &[f64]) -> usize {
    let past = |s: &&f64| s.is_nan() || **s > SLACK_LIMIT;
    slack.iter().filter(past).count()
}

impl Tally {
    fn fail(&mut self, spec: &QuerySpec, why: String) {
        self.failed += 1;
        if self.notes.len() < 5 {
            self.notes.push(format!("{}: {why}", spec.to_json()));
        }
    }

    /// Record one slack; `why` describes the answer if it must be noted.
    fn judge(&mut self, spec: &QuerySpec, path: Path, slack: f64, why: impl FnOnce() -> String) {
        match path {
            Path::Net => self.net_slack.push(slack),
            Path::Sample => self.sample_slack.push(slack),
        }
        // NaN (a non-finite estimate) must fail too.
        if slack.is_nan() || slack > GROSS {
            self.fail(spec, why());
        } else if slack > SLACK_LIMIT && self.past_bound.len() < 5 {
            self.past_bound
                .push(format!("{}: {}", spec.to_json(), why()));
        }
    }

    /// Failed answers with the advertised confidence applied: the ones
    /// failed outright, plus every answer past its bound on a path where
    /// more than `DELTA` of the answers are.
    pub fn failures(&self) -> u64 {
        let over = |slack: &[f64]| {
            if beyond(slack) as f64 > DELTA * slack.len() as f64 {
                past_bound(slack) as u64
            } else {
                0
            }
        };
        self.failed + over(&self.net_slack) + over(&self.sample_slack)
    }

    pub fn absorb(&mut self, other: Tally) {
        self.checked += other.checked;
        self.failed += other.failed;
        self.net_slack.extend(other.net_slack);
        self.sample_slack.extend(other.sample_slack);
        let room = |have: &Vec<String>| 5usize.saturating_sub(have.len());
        let take = room(&self.notes);
        self.notes.extend(other.notes.into_iter().take(take));
        let take = room(&self.past_bound);
        self.past_bound
            .extend(other.past_bound.into_iter().take(take));
    }
}

/// Judges answers against one data set, memoizing projections.
pub struct Checker {
    exact: Exact,
    memo: HashMap<Vec<u32>, Rc<Projection>>,
}

fn pattern_of(v: &Json) -> Option<Vec<u8>> {
    v.as_arr()?
        .iter()
        .map(|s| {
            s.as_f64()
                .filter(|f| (0.0..256.0).contains(f))
                .map(|f| f as u8)
        })
        .collect()
}

impl Checker {
    pub fn new(rows: &Rows) -> Self {
        Checker {
            exact: Exact::new(rows),
            memo: HashMap::new(),
        }
    }

    fn projection(&mut self, cols: &[u32]) -> Rc<Projection> {
        if let Some(p) = self.memo.get(cols) {
            return Rc::clone(p);
        }
        let p = Rc::new(self.exact.project(cols));
        self.memo.insert(cols.to_vec(), Rc::clone(&p));
        p
    }

    /// Judge one answer object against what `spec` asked.
    pub fn check(&mut self, spec: &QuerySpec, reply: &Json, tally: &mut Tally) {
        tally.checked += 1;
        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
            return tally.fail(spec, format!("not ok: {reply}"));
        }
        let guarantee = reply.get("guarantee");
        let (Some(alpha), Some(epsilon)) = (
            guarantee.and_then(|g| g.num("alpha")),
            guarantee.and_then(|g| g.num("epsilon")),
        ) else {
            return tally.fail(spec, "no guarantee in reply".into());
        };
        let proj = self.projection(&spec.cols);
        let n = proj.n as f64;
        match &spec.stat {
            Stat::F0 | Stat::Fp { .. } => {
                let exact = if spec.stat == Stat::F0 {
                    proj.f0()
                } else {
                    proj.f2()
                };
                let Some(est) = reply.num("estimate").filter(|e| *e > 0.0) else {
                    return tally.fail(spec, "no positive estimate".into());
                };
                if exact == 0.0 || alpha < 1.0 {
                    return tally.fail(spec, format!("exact={exact} alpha={alpha}"));
                }
                let slack = (est / exact).max(exact / est) / alpha;
                tally.judge(spec, Path::Net, slack, || {
                    format!("est {est} vs exact {exact}, alpha {alpha}")
                });
            }
            Stat::Frequency { pattern } => {
                let Some(est) = reply.num("estimate") else {
                    return tally.fail(spec, "no estimate".into());
                };
                self.judge_additive(spec, est, proj.count(pattern), epsilon, tally);
            }
            Stat::HeavyHitters { phi } => {
                let Some(hitters) = reply.get("hitters").and_then(Json::as_arr) else {
                    return tally.fail(spec, "no hitters array".into());
                };
                let mut reported = Vec::with_capacity(hitters.len());
                for h in hitters {
                    let (Some(pattern), Some(est)) =
                        (h.get("pattern").and_then(pattern_of), h.num("estimate"))
                    else {
                        return tally.fail(spec, format!("malformed hitter {h}"));
                    };
                    if pattern.len() != spec.cols.len() {
                        return tally.fail(spec, format!("hitter arity {}", pattern.len()));
                    }
                    self.judge_additive(spec, est, proj.count(&pattern), epsilon, tally);
                    reported.push(pattern);
                }
                // Completeness: a pattern is reported when its estimate
                // reaches the threshold, so missing one heavier than the
                // threshold by more than the advertised error is an error
                // of at least the difference.
                let must = phi * n + epsilon;
                let q = u64::from(self.exact.shape.q);
                let reported: Vec<u64> = reported
                    .iter()
                    .map(|p| key_of(p.iter().copied(), q))
                    .collect();
                for (&key, &count) in &proj.counts {
                    if count as f64 >= must && !reported.contains(&key) {
                        let slack = (count as f64 - phi * n) / epsilon;
                        tally.judge(spec, Path::Sample, slack, || {
                            format!("missed a pattern with count {count}, epsilon {epsilon}")
                        });
                    }
                }
            }
            Stat::L1Sample { k } => {
                let Some(patterns) = reply.get("patterns").and_then(Json::as_arr) else {
                    return tally.fail(spec, "no patterns array".into());
                };
                if patterns.len() != *k as usize {
                    return tally.fail(spec, format!("{} draws, asked {k}", patterns.len()));
                }
                for p in patterns {
                    let (Some(pattern), Some(prob)) =
                        (p.get("pattern").and_then(pattern_of), p.num("probability"))
                    else {
                        return tally.fail(spec, format!("malformed draw {p}"));
                    };
                    // Here epsilon is advertised on probabilities.
                    self.judge_additive(spec, prob, proj.count(&pattern) / n, epsilon, tally);
                }
            }
        }
    }

    fn judge_additive(&self, spec: &QuerySpec, est: f64, exact: f64, eps: f64, tally: &mut Tally) {
        let err = (est - exact).abs();
        let slack = if eps > 0.0 {
            err / eps
        } else if err <= 1e-9 * exact.max(1.0) {
            0.0
        } else {
            f64::INFINITY
        };
        tally.judge(spec, Path::Sample, slack, || {
            format!("est {est} vs exact {exact}, epsilon {eps}")
        });
    }
}

/// Prove the checker can fail: an honest answer passes, the same answer
/// with its estimate corrupted is caught, and so is a dropped heavy
/// hitter; answers just past their bound are failed once they are more
/// than `DELTA` of the answers. Run at the start of every benchmark run.
pub fn self_test() -> Result<(), String> {
    let shape = Shape { d: 3, q: 2 };
    // 60 × (1,0,1), 30 × (0,0,1), 10 × (1,1,0).
    let mut symbols = Vec::new();
    for (row, times) in [([1u8, 0, 1], 60), ([0, 0, 1], 30), ([1, 1, 0], 10)] {
        for _ in 0..times {
            symbols.extend_from_slice(&row);
        }
    }
    let mut checker = Checker::new(&Rows { shape, symbols });
    let parse =
        |s: &str| Json::parse(s).ok_or_else(|| format!("self-test reply does not parse: {s}"));
    let f0 = QuerySpec {
        cols: vec![0, 2],
        stat: Stat::F0,
        window: None,
    };
    let hh = QuerySpec {
        cols: vec![0, 1],
        stat: Stat::HeavyHitters { phi: 0.2 },
        window: None,
    };
    let net = |est: f64| {
        format!(
            r#"{{"ok":true,"estimate":{est},"guarantee":{{"alpha":1.125,"epsilon":0,"source":"alpha_net"}}}}"#
        )
    };
    let hitters = |list: &str| {
        format!(
            r#"{{"ok":true,"hitters":[{list}],"guarantee":{{"alpha":1,"epsilon":5,"source":"sample"}}}}"#
        )
    };
    let honest_hh = r#"{"pattern":[1,0],"estimate":58},{"pattern":[0,0],"estimate":33}"#;
    let cases: [(&QuerySpec, String, bool); 5] = [
        (&f0, net(3.0), true),
        (&f0, net(7.0), false),
        (&hh, hitters(honest_hh), true),
        (
            &hh,
            hitters(r#"{"pattern":[1,0],"estimate":75},{"pattern":[0,0],"estimate":33}"#),
            false,
        ),
        (&hh, hitters(r#"{"pattern":[0,0],"estimate":33}"#), false),
    ];
    for (spec, reply, should_pass) in cases {
        let mut tally = Tally::default();
        checker.check(spec, &parse(&reply)?, &mut tally);
        if (tally.failures() == 0) != should_pass {
            return Err(format!(
                "checker self-test: {reply} should {} but {:?}",
                if should_pass { "pass" } else { "be caught" },
                tally.notes
            ));
        }
    }
    // 3.6 for an exact 3 is past alpha 1.125 but not grossly: within the
    // advertised confidence as 1 answer in 25, failed as 3 in 27.
    let mut tally = Tally::default();
    for (past, honest, failures) in [(1, 24, 0), (2, 0, 3)] {
        for est in [(3.6, past), (3.0, honest)] {
            for _ in 0..est.1 {
                checker.check(&f0, &parse(&net(est.0))?, &mut tally);
            }
        }
        if tally.failures() != failures {
            return Err(format!(
                "checker self-test: {} of {} answers past their bound should count {failures} \
                 failures, not {}",
                beyond(&tally.net_slack),
                tally.checked,
                tally.failures()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_rows;

    #[test]
    fn corrupted_answers_are_caught() {
        self_test().unwrap();
    }

    #[test]
    fn projections_agree_with_a_naive_count() {
        let rows = gen_rows(5, Shape { d: 10, q: 4 }, 3_000);
        let exact = Exact::new(&rows);
        let cols = [1u32, 4, 7];
        let proj = exact.project(&cols);
        let mut naive: HashMap<Vec<u8>, u64> = HashMap::new();
        for r in 0..rows.len() {
            let row = rows.row(r);
            *naive
                .entry(cols.iter().map(|&c| row[c as usize]).collect())
                .or_insert(0) += 1;
        }
        assert_eq!(proj.f0(), naive.len() as f64);
        assert_eq!(proj.n, 3_000);
        for (pattern, &count) in &naive {
            assert_eq!(proj.count(pattern), count as f64);
        }
        let f2: f64 = naive.values().map(|&c| (c * c) as f64).sum();
        assert_eq!(proj.f2(), f2);
        assert_eq!(
            proj.count(&[3, 3, 3]).max(0.0),
            *naive.get(&vec![3u8, 3, 3]).unwrap_or(&0) as f64
        );
    }

    #[test]
    fn l1_and_frequency_slack_are_measured_in_their_own_units() {
        let rows = gen_rows(1, Shape { d: 12, q: 2 }, 1_000);
        let mut checker = Checker::new(&rows);
        let cols = vec![0u32, 1];
        let exact = Exact::new(&rows).project(&cols).count(&[1, 1]);
        let spec = QuerySpec {
            cols: cols.clone(),
            stat: Stat::Frequency {
                pattern: vec![1, 1],
            },
            window: None,
        };
        let reply = Json::parse(&format!(
            r#"{{"ok":true,"estimate":{},"guarantee":{{"alpha":1,"epsilon":30,"source":"sample"}}}}"#,
            exact + 15.0
        ))
        .unwrap();
        let mut tally = Tally::default();
        checker.check(&spec, &reply, &mut tally);
        assert_eq!((tally.failed, tally.sample_slack.clone()), (0, vec![0.5]));
        let spec = QuerySpec {
            cols,
            stat: Stat::L1Sample { k: 1 },
            window: None,
        };
        let reply = Json::parse(&format!(
            r#"{{"ok":true,"patterns":[{{"pattern":[1,1],"probability":{}}}],"guarantee":{{"alpha":1,"epsilon":0.03,"source":"sample"}}}}"#,
            exact / 1000.0 + 0.045
        ))
        .unwrap();
        let mut tally = Tally::default();
        checker.check(&spec, &reply, &mut tally);
        // Past the bound, not grossly: failed because 1 of 1 is over DELTA.
        assert_eq!((tally.failed, tally.failures()), (0, 1));
        assert!((tally.sample_slack[0] - 1.5).abs() < 1e-9);
    }
}
