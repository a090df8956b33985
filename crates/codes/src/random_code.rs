//! Randomly sampled codes with bounded pairwise intersection (Lemma 3.2).
//!
//! Lemma 3.2: for `ε, γ ∈ (0,1)`, sampling words i.i.d. from `B(d, εd)`
//! yields, with probability `≥ 1 − exp(−2dγ²)` per pair, a code `C` of size
//! `2^{O(γ²d)}` in which any two distinct words share at most `(ε² + γ)d`
//! ones. We realize the lemma constructively: sample, then *verify* the
//! intersection property, rejecting offending words (at most a vanishing
//! fraction, by the same Chernoff bound), so the returned code satisfies the
//! bound deterministically — which the downstream Theorem 5.3/5.4/5.5
//! instances require as a hard invariant, not just w.h.p.

use pfe_hash::rng::Xoshiro256pp;

/// Parameters of a Lemma 3.2 random code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomCodeParams {
    /// Word length `d` (`<= 63`).
    pub d: u32,
    /// Weight fraction `ε ∈ (0, 1)`: words have weight `round(εd) >= 1`.
    pub epsilon: f64,
    /// Slack `γ ∈ (0, 1)`: pairwise intersection bound is `(ε² + γ)d`.
    pub gamma: f64,
    /// Target number of codewords. Lemma 3.2 guarantees `2^{γ²d/ln 2}` is
    /// achievable; callers may ask for fewer (more is allowed but may fail).
    pub target_size: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl RandomCodeParams {
    /// The weight `k = round(εd)`, at least 1.
    pub fn weight(&self) -> u32 {
        ((self.epsilon * self.d as f64).round() as u32).max(1)
    }

    /// The pairwise intersection cap `⌊(ε² + γ)d⌋`.
    pub fn intersection_cap(&self) -> u32 {
        ((self.epsilon * self.epsilon + self.gamma) * self.d as f64).floor() as u32
    }
}

/// Error from random-code construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RandomCodeError {
    /// Parameters out of range (d, ε, γ or target size).
    BadParams(String),
    /// Could not reach the target size within the sampling budget; carries
    /// the number of words actually found.
    Exhausted(usize),
}

impl std::fmt::Display for RandomCodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadParams(msg) => write!(f, "bad random-code parameters: {msg}"),
            Self::Exhausted(found) => {
                write!(f, "sampling budget exhausted with only {found} codewords")
            }
        }
    }
}

impl std::error::Error for RandomCodeError {}

/// A verified random code: every pair of distinct words shares at most
/// [`RandomCodeParams::intersection_cap`] ones.
#[derive(Debug, Clone)]
pub struct RandomCode {
    params: RandomCodeParams,
    words: Vec<u64>,
}

impl RandomCode {
    /// Sample and verify a code per Lemma 3.2.
    ///
    /// Words are drawn i.i.d. uniform from `B(d, εd)` (a uniformly random
    /// weight-`k` mask); a draw is kept only if it respects the intersection
    /// cap against all kept words and is not a duplicate. The sampling
    /// budget is `64 × target_size` draws; exceeding it returns
    /// [`RandomCodeError::Exhausted`] (which signals the parameters violate
    /// the lemma's regime, e.g. `target_size >> 2^{γ²d}`).
    pub fn generate(params: RandomCodeParams) -> Result<Self, RandomCodeError> {
        if params.d == 0 || params.d > 63 {
            return Err(RandomCodeError::BadParams(format!(
                "d={} outside 1..=63",
                params.d
            )));
        }
        if !(0.0..1.0).contains(&params.epsilon) || params.epsilon <= 0.0 {
            return Err(RandomCodeError::BadParams(format!(
                "epsilon={} outside (0,1)",
                params.epsilon
            )));
        }
        if !(0.0..1.0).contains(&params.gamma) || params.gamma <= 0.0 {
            return Err(RandomCodeError::BadParams(format!(
                "gamma={} outside (0,1)",
                params.gamma
            )));
        }
        if params.target_size == 0 {
            return Err(RandomCodeError::BadParams("target_size=0".into()));
        }
        let k = params.weight();
        if k > params.d {
            return Err(RandomCodeError::BadParams(format!(
                "weight {k} exceeds d={}",
                params.d
            )));
        }
        let cap = params.intersection_cap();
        if cap >= k {
            // Every pair trivially satisfies the cap; sampling reduces to
            // de-duplication. Allowed, but worth noting in the type's docs.
        }
        let mut rng = Xoshiro256pp::seed_from_u64(params.seed);
        let mut words: Vec<u64> = Vec::with_capacity(params.target_size);
        let budget = params.target_size.saturating_mul(64).max(4096);
        for _ in 0..budget {
            if words.len() == params.target_size {
                break;
            }
            let w = random_weight_k_word(&mut rng, params.d, k);
            if words.iter().all(|&x| x != w && (x & w).count_ones() <= cap) {
                words.push(w);
            }
        }
        if words.len() < params.target_size {
            return Err(RandomCodeError::Exhausted(words.len()));
        }
        Ok(Self { params, words })
    }

    /// Wrap an externally constructed word list (e.g. from
    /// [`GreedyCode`](crate::greedy_code::GreedyCode)) after verifying the
    /// weight and intersection invariants against `params`. This lets the
    /// deterministic greedy construction drive everything downstream that
    /// expects a Lemma 3.2 code (instances, protocols).
    ///
    /// # Errors
    /// Returns `BadParams` if any word violates the weight or the
    /// intersection cap, or the list is empty/duplicated.
    pub fn from_verified_words(
        params: RandomCodeParams,
        words: Vec<u64>,
    ) -> Result<Self, RandomCodeError> {
        if words.is_empty() {
            return Err(RandomCodeError::BadParams("empty word list".into()));
        }
        let k = params.weight();
        let cap = params.intersection_cap();
        for (i, &x) in words.iter().enumerate() {
            if x.count_ones() != k {
                return Err(RandomCodeError::BadParams(format!(
                    "word {i} has weight {}, expected {k}",
                    x.count_ones()
                )));
            }
            if params.d < 64 && x >= (1u64 << params.d) {
                return Err(RandomCodeError::BadParams(format!(
                    "word {i} has bits above d={}",
                    params.d
                )));
            }
            for &y in &words[i + 1..] {
                if x == y {
                    return Err(RandomCodeError::BadParams(format!("duplicate word {x:#x}")));
                }
                if (x & y).count_ones() > cap {
                    return Err(RandomCodeError::BadParams(format!(
                        "pair intersects in {} > cap {cap}",
                        (x & y).count_ones()
                    )));
                }
            }
        }
        Ok(Self { params, words })
    }

    /// The construction parameters.
    pub fn params(&self) -> &RandomCodeParams {
        &self.params
    }

    /// The codewords, in generation order (the canonical enumeration used by
    /// the Index reductions).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of codewords.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the code has no words (never true after `generate` succeeds).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// Uniformly random `d`-bit word with exactly `k` ones.
fn random_weight_k_word(rng: &mut Xoshiro256pp, d: u32, k: u32) -> u64 {
    rng.sample_indices(d as usize, k as usize)
        .into_iter()
        .fold(0u64, |acc, b| acc | (1u64 << b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(d: u32, epsilon: f64, gamma: f64, target: usize, seed: u64) -> RandomCodeParams {
        RandomCodeParams {
            d,
            epsilon,
            gamma,
            target_size: target,
            seed,
        }
    }

    #[test]
    fn generates_verified_code() {
        let p = params(32, 0.25, 0.15, 40, 1);
        let code = RandomCode::generate(p).expect("generate");
        assert_eq!(code.len(), 40);
        assert!(RandomCode::from_verified_words(p, code.words().to_vec()).is_ok());
    }

    #[test]
    fn all_words_have_weight_epsilon_d() {
        let p = params(40, 0.2, 0.1, 30, 2);
        let code = RandomCode::generate(p).expect("generate");
        let k = p.weight();
        assert_eq!(k, 8);
        assert!(code.words().iter().all(|w| w.count_ones() == k));
    }

    #[test]
    fn pairwise_cap_respected() {
        let p = params(48, 0.25, 0.08, 50, 3);
        let code = RandomCode::generate(p).expect("generate");
        let cap = p.intersection_cap();
        for (i, &x) in code.words().iter().enumerate() {
            for &y in &code.words()[i + 1..] {
                assert!((x & y).count_ones() <= cap);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = RandomCode::generate(params(32, 0.25, 0.15, 20, 9)).expect("a");
        let b = RandomCode::generate(params(32, 0.25, 0.15, 20, 9)).expect("b");
        let c = RandomCode::generate(params(32, 0.25, 0.15, 20, 10)).expect("c");
        assert_eq!(a.words(), b.words());
        assert_ne!(a.words(), c.words());
    }

    #[test]
    fn infeasible_target_exhausts() {
        // Demand far more codewords than B(8, 2)=28 can even contain
        // distinctly, with a tight cap: must exhaust, not loop forever.
        let r = RandomCode::generate(params(8, 0.25, 0.01, 1000, 5));
        match r {
            Err(RandomCodeError::Exhausted(found)) => assert!(found < 1000),
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn bad_params_rejected() {
        assert!(matches!(
            RandomCode::generate(params(0, 0.2, 0.1, 4, 0)),
            Err(RandomCodeError::BadParams(_))
        ));
        assert!(matches!(
            RandomCode::generate(params(16, 0.0, 0.1, 4, 0)),
            Err(RandomCodeError::BadParams(_))
        ));
        assert!(matches!(
            RandomCode::generate(params(16, 0.2, 0.0, 4, 0)),
            Err(RandomCodeError::BadParams(_))
        ));
        assert!(matches!(
            RandomCode::generate(params(16, 0.2, 0.1, 0, 0)),
            Err(RandomCodeError::BadParams(_))
        ));
    }

    #[test]
    fn lemma_regime_generation_succeeds_at_moderate_dims() {
        // At d=48, gamma=0.3: lemma promises exp(48*0.09) ~ 75 words.
        let p = params(48, 0.25, 0.3, 64, 7);
        let code = RandomCode::generate(p).expect("lemma-regime generation succeeds");
        assert!(RandomCode::from_verified_words(p, code.words().to_vec()).is_ok());
    }

    #[test]
    fn from_verified_words_accepts_valid_and_rejects_invalid() {
        let p = params(16, 0.25, 0.2, 4, 0); // weight 4, cap floor((0.0625+0.2)*16)=4
                                             // Disjoint-support words trivially satisfy any cap.
        let good = vec![0b1111u64, 0b1111_0000, 0b1111_0000_0000];
        let code = RandomCode::from_verified_words(p, good).expect("valid words wrap");
        assert_eq!(code.len(), 3);
        // Wrong weight rejected.
        assert!(matches!(
            RandomCode::from_verified_words(p, vec![0b111]),
            Err(RandomCodeError::BadParams(_))
        ));
        // Duplicate rejected.
        assert!(matches!(
            RandomCode::from_verified_words(p, vec![0b1111, 0b1111]),
            Err(RandomCodeError::BadParams(_))
        ));
        // Cap violation rejected (cap for these params is 4 only if the
        // words are identical, which duplicates catch; craft a tighter one).
        let tight = params(16, 0.25, 0.01, 4, 0); // cap = floor(0.0725*16) = 1
        assert!(matches!(
            RandomCode::from_verified_words(tight, vec![0b1111, 0b0011_1100]),
            Err(RandomCodeError::BadParams(_))
        ));
    }

    #[test]
    fn expected_intersection_near_eps_sq_d() {
        // Sanity of the Chernoff setup: E|x∩y| = ε²d for random pairs.
        let p = params(60, 0.3, 0.5, 2, 0);
        let mut rng = Xoshiro256pp::seed_from_u64(123);
        let k = p.weight();
        let trials = 4000;
        let mut total = 0u64;
        for _ in 0..trials {
            let x = random_weight_k_word(&mut rng, p.d, k);
            let y = random_weight_k_word(&mut rng, p.d, k);
            total += (x & y).count_ones() as u64;
        }
        let mean = total as f64 / trials as f64;
        let expect = (k as f64).powi(2) / p.d as f64; // = ε²d up to rounding of k
        assert!(
            (mean - expect).abs() < 0.15 * expect,
            "mean intersection {mean}, expected {expect}"
        );
    }
}
