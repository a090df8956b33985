//! k-wise independent hash families over the Mersenne prime `p = 2^61 - 1`.
//!
//! A degree-`(k-1)` polynomial with independent uniform coefficients in
//! `F_p` evaluated at the item gives a k-wise independent family — the
//! standard construction behind the analyses of AMS, CountSketch and
//! CountMin. We use `p = 2^61 - 1` because reduction modulo a Mersenne prime
//! needs only shifts and adds.
//!
//! # One sign, three products, one fold
//!
//! A [`SignHash`] is the low bit of a cubic `c₀x³ + c₁x² + c₂x + c₃` over
//! `F_p`, its four coefficients held inline. Horner's rule evaluates it as
//! three dependent multiply-and-reduce steps; an AMS update evaluates 80
//! such cubics at *one* key, so [`SignHash::powers`] reduces the key and
//! computes `x³, x², x mod p` once and [`SignHash::sign_at`] sums the three
//! products `cᵢ·xⁱ` unreduced — each below `2^122`, the sum with `c₃` below
//! `2^124`, inside what `mod_mersenne61` folds — and reduces once. Both
//! routes end in the canonical residue in `[0, p)` of the same field
//! element, hence in the same low bit: same signs, same sums, same bytes.

use crate::rng::SplitMix64;

/// The Mersenne prime `2^61 - 1`.
const MERSENNE61: u64 = (1 << 61) - 1;

/// Reduce `x < 2^125` (a product of residues, or a few of them summed)
/// to its canonical residue modulo `2^61 - 1`.
#[inline]
fn mod_mersenne61(x: u128) -> u64 {
    // x = hi * 2^61 + lo  =>  x ≡ hi + lo (mod 2^61-1); `hi < 2^64` is
    // folded once more, and two folds suffice because `lo ≤ p` and the
    // folded `hi < p` sum to less than `2p`.
    let lo = (x & MERSENNE61 as u128) as u64;
    let hi = (x >> 61) as u64;
    let mut s = lo.wrapping_add(mod_once(hi));
    if s >= MERSENNE61 {
        s -= MERSENNE61;
    }
    s
}

/// Reduce a u64 (< 2^64) modulo `2^61 - 1`.
#[inline]
fn mod_once(x: u64) -> u64 {
    let mut s = (x & MERSENNE61) + (x >> 61);
    if s >= MERSENNE61 {
        s -= MERSENNE61;
    }
    s
}

/// Multiply-add in `F_{2^61-1}`: `(a * b + c) mod p`.
#[inline]
fn mul_add_mod(a: u64, b: u64, c: u64) -> u64 {
    mod_mersenne61(a as u128 * b as u128 + c as u128)
}

/// Rejection-sample a uniform element of `F_p`.
fn field_element(sm: &mut SplitMix64) -> u64 {
    loop {
        let v = sm.next_u64() & ((1 << 61) - 1);
        if v < MERSENNE61 {
            return v;
        }
    }
}

/// A k-wise independent hash function `F_p -> F_p` given by a random
/// degree-`(k-1)` polynomial.
#[derive(Debug, Clone)]
struct PolyHash {
    /// Coefficients, constant term last (Horner order: highest degree first).
    coeffs: Vec<u64>,
}

impl PolyHash {
    /// Draw a fresh function with independence `k` from `seed`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    fn new(k: usize, seed: u64) -> Self {
        assert!(k >= 1, "independence k must be >= 1");
        let mut sm = SplitMix64::new(seed);
        let coeffs = (0..k).map(|_| field_element(&mut sm)).collect();
        Self { coeffs }
    }

    /// Independence level (number of coefficients).
    fn independence(&self) -> usize {
        self.coeffs.len()
    }

    /// Rebuild a function from its stored coefficients (Horner order).
    ///
    /// Returns `None` if the list is empty or any coefficient lies outside
    /// `F_p` — the validation a deserializer needs to stay panic-free.
    fn from_coefficients(coeffs: Vec<u64>) -> Option<Self> {
        if coeffs.is_empty() || coeffs.iter().any(|&c| c >= MERSENNE61) {
            return None;
        }
        Some(Self { coeffs })
    }

    /// Evaluate at `x` (reduced into `F_p` first). Output is in `[0, p)`.
    #[inline]
    fn eval(&self, x: u64) -> u64 {
        let x = mod_once(x);
        let mut acc = 0u64;
        for &c in &self.coeffs {
            acc = mul_add_mod(acc, x, c);
        }
        acc
    }

    /// Evaluate and map to a bucket in `[0, m)` by multiply-shift on the
    /// 61-bit output (low bias for `m << 2^61`).
    #[inline]
    fn bucket(&self, x: u64, m: usize) -> usize {
        debug_assert!(m > 0);
        ((self.eval(x) as u128 * m as u128) >> 61) as usize
    }
}

/// Pairwise (2-wise) independent hash — a thin wrapper fixing `k = 2`.
#[derive(Debug, Clone)]
pub struct TwoWise(PolyHash);

impl TwoWise {
    /// Draw a pairwise independent function from `seed`.
    pub fn new(seed: u64) -> Self {
        Self(PolyHash::new(2, seed))
    }

    /// Bucket in `[0, m)`.
    #[inline]
    pub fn bucket(&self, x: u64, m: usize) -> usize {
        self.0.bucket(x, m)
    }
}

/// A ±1 sign hash built from a 4-wise independent polynomial (parity of the
/// low bit), as required by AMS / CountSketch. The four coefficients sit
/// inline, highest degree first, so a `Vec<SignHash>` is one flat table.
#[derive(Debug, Clone)]
pub struct SignHash([u64; 4]);

impl SignHash {
    /// Draw a 4-wise independent sign function from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self(std::array::from_fn(|_| field_element(&mut sm)))
    }

    /// `[x³, x², x]` in `F_p`: what every sign of one key shares.
    #[inline]
    pub fn powers(x: u64) -> [u64; 3] {
        let x = mod_once(x);
        let x2 = mul_add_mod(x, x, 0);
        [mul_add_mod(x2, x, 0), x2, x]
    }

    /// The sign of the key whose [`powers`](Self::powers) these are (see
    /// the [module docs](self)).
    #[inline]
    pub fn sign_at(&self, &[x3, x2, x]: &[u64; 3]) -> i64 {
        let [c0, c1, c2, c3] = self.0.map(u128::from);
        let sum = c0 * x3 as u128 + c1 * x2 as u128 + c2 * x as u128 + c3;
        1 - 2 * (mod_mersenne61(sum) & 1) as i64
    }

    /// Returns `+1` or `-1`.
    #[inline]
    pub fn sign(&self, x: u64) -> i64 {
        self.sign_at(&Self::powers(x))
    }
}

impl pfe_persist::Persist for PolyHash {
    fn encode(&self, enc: &mut pfe_persist::Encoder) {
        self.coeffs.encode(enc);
    }

    fn decode(dec: &mut pfe_persist::Decoder<'_>) -> Result<Self, pfe_persist::PersistError> {
        let coeffs = Vec::<u64>::decode(dec)?;
        Self::from_coefficients(coeffs).ok_or_else(|| {
            pfe_persist::PersistError::Malformed(
                "polynomial hash needs >= 1 coefficient, all in F_{2^61-1}".into(),
            )
        })
    }
}

/// Travels as its polynomial; anything but a pairwise one is malformed.
impl pfe_persist::Persist for TwoWise {
    fn encode(&self, enc: &mut pfe_persist::Encoder) {
        self.0.encode(enc);
    }

    fn decode(dec: &mut pfe_persist::Decoder<'_>) -> Result<Self, pfe_persist::PersistError> {
        let poly = PolyHash::decode(dec)?;
        if poly.independence() != 2 {
            return Err(pfe_persist::PersistError::Malformed(format!(
                "TwoWise requires independence 2, got {}",
                poly.independence()
            )));
        }
        Ok(Self(poly))
    }
}

/// Travels as what a `Vec<u64>` of its four coefficients writes.
impl pfe_persist::Persist for SignHash {
    const MIN_WIRE_BYTES: usize = 40;

    fn encode(&self, enc: &mut pfe_persist::Encoder) {
        enc.put_len(4);
        self.0.iter().for_each(|&c| enc.put_u64(c));
    }

    fn decode(dec: &mut pfe_persist::Decoder<'_>) -> Result<Self, pfe_persist::PersistError> {
        match <[u64; 4]>::try_from(Vec::<u64>::decode(dec)?) {
            Ok(coeffs) if coeffs.iter().all(|&c| c < MERSENNE61) => Ok(Self(coeffs)),
            _ => Err(pfe_persist::PersistError::Malformed(
                "sign hash needs 4 coefficients, all in F_{2^61-1}".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mersenne_reduction_correct() {
        // Cross-check against naive u128 arithmetic.
        let cases: [(u64, u64, u64); 4] = [
            (MERSENNE61 - 1, MERSENNE61 - 1, MERSENNE61 - 2),
            (12345, 67890, 11),
            (0, 999, 999),
            (1 << 60, 1 << 60, (1 << 59) + 7),
        ];
        for (a, b, c) in cases {
            let expect = ((a as u128 * b as u128 + c as u128) % MERSENNE61 as u128) as u64;
            assert_eq!(mul_add_mod(a, b, c), expect, "a={a} b={b} c={c}");
        }
    }

    #[test]
    fn mod_once_idempotent_on_reduced() {
        for v in [0u64, 1, MERSENNE61 - 1] {
            assert_eq!(mod_once(v), v);
        }
        assert_eq!(mod_once(MERSENNE61), 0);
        assert_eq!(mod_once(u64::MAX), u64::MAX % MERSENNE61);
    }

    #[test]
    fn polyhash_deterministic_per_seed() {
        let h1 = PolyHash::new(3, 5);
        let h2 = PolyHash::new(3, 5);
        let h3 = PolyHash::new(3, 6);
        for x in 0..100u64 {
            assert_eq!(h1.eval(x), h2.eval(x));
        }
        assert!((0..100u64).any(|x| h1.eval(x) != h3.eval(x)));
    }

    #[test]
    fn polyhash_outputs_in_field() {
        let h = PolyHash::new(5, 99);
        for x in 0..1000u64 {
            assert!(h.eval(x) < MERSENNE61);
        }
    }

    #[test]
    fn bucket_uniformity() {
        let h = TwoWise::new(123);
        let m = 16;
        let mut counts = vec![0u32; m];
        let n = 160_000u64;
        for x in 0..n {
            counts[h.bucket(x, m)] += 1;
        }
        let expect = n as f64 / m as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "bucket {i} deviation {dev}");
        }
    }

    #[test]
    fn sign_hash_balanced_and_pairwise_decorrelated() {
        let s = SignHash::new(77);
        let n = 100_000u64;
        let sum: i64 = (0..n).map(|x| s.sign(x)).sum();
        assert!(
            (sum.abs() as f64) < 4.0 * (n as f64).sqrt(),
            "sign sum {sum} too far from 0"
        );
        // Pairwise: product of signs at (x, x+1) should also be balanced.
        let psum: i64 = (0..n).map(|x| s.sign(x) * s.sign(x + 1)).sum();
        assert!(
            (psum.abs() as f64) < 4.0 * (n as f64).sqrt(),
            "pair sum {psum} correlated"
        );
    }

    #[test]
    fn empirical_pairwise_independence() {
        // For a pairwise family, P[h(a)=i and h(b)=j] ~ 1/m^2 averaged over
        // seeds. Estimate over 2000 seeds with m=4.
        let m = 4;
        let (a, b) = (17u64, 42u64);
        let mut joint = vec![vec![0u32; m]; m];
        let seeds = 4000u64;
        for seed in 0..seeds {
            let h = TwoWise::new(seed);
            joint[h.bucket(a, m)][h.bucket(b, m)] += 1;
        }
        let expect = seeds as f64 / (m * m) as f64;
        for (i, row) in joint.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                let dev = (c as f64 - expect).abs() / expect;
                assert!(dev < 0.25, "joint ({i},{j}) deviation {dev}");
            }
        }
    }

    /// `((c₀x + c₁)x + c₂)x + c₃` with `%` on `u128`: no fold to get wrong.
    fn naive_sign(c: &[u64], x: u64) -> i64 {
        let p = MERSENNE61 as u128;
        let x = x as u128 % p;
        let v = c.iter().fold(0, |acc, &c| (acc * x + c as u128) % p);
        1 - 2 * (v & 1) as i64
    }

    #[test]
    fn sign_equals_the_naive_cubic_and_the_horner_polynomial() {
        let mut rng = SplitMix64::new(0x5167);
        let edges = [0, 1, MERSENNE61 - 1, MERSENNE61, MERSENNE61 + 1, u64::MAX];
        for i in 0..10_000 {
            let (seed, x) = (rng.next_u64(), rng.next_u64());
            let (s, poly) = (SignHash::new(seed), PolyHash::new(4, seed));
            assert_eq!(s.0[..], poly.coeffs[..], "seed {seed}: other coefficients");
            for x in std::iter::once(x).chain(edges.into_iter().filter(|_| i < 100)) {
                assert_eq!(s.sign(x), naive_sign(&s.0, x), "seed {seed} x {x}");
                assert_eq!(s.sign(x), 1 - 2 * (poly.eval(x) & 1) as i64);
            }
        }
        // The largest sum `sign_at` can form still folds to its residue.
        let top = SignHash([MERSENNE61 - 1; 4]);
        assert_eq!(top.sign(MERSENNE61 - 1), naive_sign(&top.0, MERSENNE61 - 1));
    }

    #[test]
    fn sign_hash_travels_as_a_vec_of_four_field_elements() {
        use pfe_persist::{Decoder, Encoder, Persist, PersistError};
        fn bytes(v: &impl Persist) -> Vec<u8> {
            let mut enc = Encoder::new();
            v.encode(&mut enc);
            enc.into_bytes()
        }
        let s = SignHash::new(9);
        let wire = bytes(&s);
        assert_eq!(wire, bytes(&s.0.to_vec()));
        assert_eq!(wire.len(), SignHash::MIN_WIRE_BYTES);
        let back = SignHash::decode(&mut Decoder::new(&wire)).expect("decodes");
        assert_eq!(back.0, s.0);
        for bad in [
            vec![1, 2, 3],
            vec![1, 2, 3, 4, 5],
            vec![1, 2, MERSENNE61, 4],
            vec![],
        ] {
            let wire = bytes(&bad);
            assert!(
                matches!(
                    SignHash::decode(&mut Decoder::new(&wire)),
                    Err(PersistError::Malformed(_))
                ),
                "{bad:?} must be malformed"
            );
        }
    }

    #[test]
    #[should_panic(expected = "independence k must be >= 1")]
    fn polyhash_rejects_zero_k() {
        PolyHash::new(0, 1);
    }

    #[test]
    fn persist_roundtrip_preserves_function() {
        use pfe_persist::{Decoder, Encoder, Persist};
        let h = TwoWise::new(123);
        let mut enc = Encoder::new();
        h.encode(&mut enc);
        let bytes = enc.into_bytes();
        let back = TwoWise::decode(&mut Decoder::new(&bytes)).expect("decodes");
        for x in 0..500u64 {
            assert_eq!(h.bucket(x, 37), back.bucket(x, 37));
        }
        // A SignHash payload (4 coefficients) is not a TwoWise.
        let s = SignHash::new(9);
        let mut enc = Encoder::new();
        s.encode(&mut enc);
        let bytes = enc.into_bytes();
        assert!(TwoWise::decode(&mut Decoder::new(&bytes)).is_err());
        // Out-of-field coefficients are malformed, not a panic.
        assert!(PolyHash::from_coefficients(vec![MERSENNE61]).is_none());
        assert!(PolyHash::from_coefficients(vec![]).is_none());
    }
}
