//! k-wise independent hash families over the Mersenne prime `p = 2^61 - 1`.
//!
//! A degree-`(k-1)` polynomial with independent uniform coefficients in
//! `F_p` evaluated at the item gives a k-wise independent family — the
//! standard construction behind the analyses of AMS, CountSketch and
//! CountMin. We use `p = 2^61 - 1` because reduction modulo a Mersenne prime
//! needs only shifts and adds.
//!
//! # Eighty signs, one limb kernel
//!
//! A [`SignHash`] is the low bit of a cubic `c₀x³ + c₁x² + c₂x + c₃` over
//! `F_p`. An AMS update evaluates 80 such cubics at *one* key, so the key
//! is reduced and `x³, x², x mod p` computed once, and a [`SignBank`]
//! holds the 80 hashes' coefficients as four planes of `u64`, plane `k`
//! holding every hash's `c_k` — 32 bytes a hash, as four inline `u64`s
//! were. The planes are the coefficients' only copy; [`SignHash`] is how
//! they are drawn and how they travel.
//!
//! With each coefficient `c < 2^61` and each power split in registers as
//! `c = c_h·2^31 + c_l` and `X = X_h·2^31 + X_l`, a sign needs only
//! `u32 × u32 → u64` products, which vectorize across the hashes
//! (`vpmuludq`) where the three `u64 × u64 → u128` products of Horner's
//! rule or of the plain cubic cannot. Per hash, summed over the three
//! powers:
//!
//! - `HH = Σ c_h·X_h`: three terms below `2^60`, so below `2^62`;
//! - `MID = Σ (c_h·X_l + c_l·X_h)`: six terms below `2^61`, so below `2^64`;
//! - `LL = Σ c_l·X_l`: three terms below `2^62`, so below `2^64`.
//!
//! Since `c·X = c_h·X_h·2^62 + (c_h·X_l + c_l·X_h)·2^31 + c_l·X_l`,
//! `2^62 ≡ 2` and `2^61 ≡ 1 (mod p)`, and
//! `MID·2^31 = (MID >> 30)·2^61 + (MID & (2^30−1))·2^31`, the sum
//! `S = 2·HH + (MID >> 30) + ((MID & (2^30−1)) << 31) + (LL & p) + (LL >> 61) + c₃`
//! is congruent to the cubic and below `7·2^61 < 2^64`. One fold,
//! `T = (S & p) + (S >> 61)`, leaves `T ≤ p + 6`: the canonical residue
//! is `T` or, when `T ≥ p`, `T − p` with `p` odd, so its low bit is
//! `T`'s flipped exactly when `(T + 1) >> 61` is 1. Every route ends in
//! the parity of the same canonical residue: same signs, same sums, same
//! bytes.
//!
//! The kernel is compiled for AVX-512 F and for AVX2 through
//! [`isa`](crate::isa)'s dispatch, the CPU asked at run time on each
//! update; its AVX-512 build leaves DQ off, or LLVM multiplies the
//! 32-bit halves with the slower `vpmullq`. Without either feature (or off x86-64) the update runs the `u128`
//! loop on the same planes — each cubic summed in `u128`, folded once to
//! a `u64` and read by the same parity step — which is the reference the
//! kernel's tests compare every instantiation against.

use crate::isa::{Features, Isa, Kernel};
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
    fn powers(x: u64) -> [u64; 3] {
        let x = mod_once(x);
        let x2 = mul_add_mod(x, x, 0);
        [mul_add_mod(x2, x, 0), x2, x]
    }

    /// The sign of the key whose [`powers`](Self::powers) these are: three
    /// products summed below `2^124`, inside what `mod_mersenne61` folds.
    #[inline]
    fn sign_at(&self, &[x3, x2, x]: &[u64; 3]) -> i64 {
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

/// The sign kernel's builds, preferred first: AVX-512 F alone, as its
/// products are all of 32-bit halves (see [`Isa::Avx512F`]).
const SIGN_ISAS: [Isa; 2] = [Isa::Avx512F, Isa::Avx2];

/// Four coefficient planes: `c₀ c₁ c₂ c₃`.
const PLANES: usize = 4;
const LOW31: u64 = (1 << 31) - 1;
const LOW30: u64 = (1 << 30) - 1;

/// `t` [`SignHash`]es evaluated together at one key (see the [module
/// docs](self)). The coefficients live only here, plane by plane, each
/// plane `t` contiguous `u64`s.
#[derive(Debug, Clone)]
pub struct SignBank {
    planes: Vec<u64>,
}

impl FromIterator<SignHash> for SignBank {
    fn from_iter<I: IntoIterator<Item = SignHash>>(hashes: I) -> Self {
        let hashes: Vec<SignHash> = hashes.into_iter().collect();
        let planes = (0..PLANES)
            .flat_map(|k| hashes.iter().map(move |h| h.0[k]))
            .collect();
        Self { planes }
    }
}

impl SignBank {
    /// Number of sign hashes.
    pub fn len(&self) -> usize {
        self.planes.len() / PLANES
    }

    /// True when the bank holds no hash.
    pub fn is_empty(&self) -> bool {
        self.planes.is_empty()
    }

    /// Heap bytes of the planes: 32 a hash.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.planes.as_slice())
    }

    /// Hash `j`, gathered from the planes.
    fn hash(&self, j: usize) -> SignHash {
        let [c0, c1, c2, c3] = split_planes(&self.planes, self.len());
        SignHash([c0[j], c1[j], c2[j], c3[j]])
    }

    /// `sums[j] += sign_j(x) · delta` for every hash `j`.
    ///
    /// # Panics
    /// Panics unless there is one sum per hash.
    pub fn add_signs(&self, x: u64, delta: i64, sums: &mut [i64]) {
        self.add_signs_on(Features::detect(), x, delta, sums);
    }

    /// [`add_signs`](Self::add_signs) on the limb kernel compiled for the
    /// first of [`SIGN_ISAS`] `features` allow, else on the `u128` loop.
    fn add_signs_on(&self, features: Features, x: u64, delta: i64, sums: &mut [i64]) {
        assert_eq!(sums.len(), self.len(), "one AMS sum per sign hash");
        let powers = SignHash::powers(x);
        match features.first(&SIGN_ISAS) {
            Some(found) => found.run(AddSignsLimbs {
                planes: &self.planes,
                powers,
                delta,
                sums,
            }),
            None => self.add_signs_u128(&powers, delta, sums),
        }
    }

    /// The reference, and the path of a CPU with neither vector feature:
    /// each cubic summed in `u128` (three products below `2^122`, so the
    /// sum is below `2^124`), folded once to a `u64` and its residue's
    /// parity read by [`residue_parity`].
    fn add_signs_u128(&self, powers: &[u64; 3], delta: i64, sums: &mut [i64]) {
        let t = sums.len();
        let [c0, c1, c2, c3] = split_planes(&self.planes, t);
        let [x3, x2, x1] = powers.map(u128::from);
        for j in 0..t {
            let sum = u128::from(c0[j]) * x3 + u128::from(c1[j]) * x2 + u128::from(c2[j]) * x1;
            let sum = sum + u128::from(c3[j]);
            // `(sum >> 61) < 2^63`: the fold stays below 2^64.
            let folded = (sum as u64 & MERSENNE61) + (sum >> 61) as u64;
            sums[j] += signed(delta, residue_parity(folded));
        }
    }
}

/// The `t`-coefficient planes of `planes`, plane `k` holding coefficient
/// `k` of every hash.
#[inline(always)]
fn split_planes(planes: &[u64], t: usize) -> [&[u64]; PLANES] {
    let plane = |k: usize| &planes[k * t..(k + 1) * t];
    [plane(0), plane(1), plane(2), plane(3)]
}

/// The parity of the canonical residue of `s` modulo `p`, for any
/// `s < 2^64`: one fold leaves `T = (s & p) + (s >> 61) ≤ p + 7`, whose
/// residue is `T`, or `T − p` when `T ≥ p` — `p` odd, so the low bit flips
/// exactly when `(T + 1) >> 61` is 1.
#[inline(always)]
fn residue_parity(s: u64) -> u64 {
    let folded = (s & MERSENNE61) + (s >> 61);
    (folded ^ ((folded + 1) >> 61)) & 1
}

/// `delta` for an even residue, `−delta` for an odd one, without a
/// multiply or a branch.
#[inline(always)]
fn signed(delta: i64, parity: u64) -> i64 {
    let neg = parity.wrapping_neg() as i64;
    (delta ^ neg) - neg
}

/// The limb kernel (see the [module docs](self)): `sums.len()` hashes,
/// each plane `sums.len()` coefficients of `planes`.
struct AddSignsLimbs<'a> {
    planes: &'a [u64],
    powers: [u64; 3],
    delta: i64,
    sums: &'a mut [i64],
}

impl Kernel for AddSignsLimbs<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Self {
            planes,
            powers,
            delta,
            sums,
        } = self;
        let t = sums.len();
        let [c0, c1, c2, c3] = split_planes(planes, t);
        // `X < 2^61` and `c < 2^61`: every limb fits a `u32`, so both
        // factors of every product below are zero-extended `u32`s.
        let limbs = |x: u64| (x & LOW31, (x >> 31) as u32 as u64);
        let [(x3l, x3h), (x2l, x2h), (x1l, x1h)] = powers.map(limbs);
        for j in 0..t {
            let [(a0, b0), (a1, b1), (a2, b2)] = [c0[j], c1[j], c2[j]].map(limbs);
            let hh = b0 * x3h + b1 * x2h + b2 * x1h;
            let mid = b0 * x3l + a0 * x3h + b1 * x2l + a1 * x2h + b2 * x1l + a2 * x1h;
            let ll = a0 * x3l + a1 * x2l + a2 * x1l;
            let s = 2 * hh + (mid >> 30) + ((mid & LOW30) << 31) + (ll & MERSENNE61) + (ll >> 61);
            sums[j] += signed(delta, residue_parity(s + c3[j]));
        }
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

/// Travels as the `Vec<SignHash>` it holds, and is decoded through one.
impl pfe_persist::Persist for SignBank {
    fn encode(&self, enc: &mut pfe_persist::Encoder) {
        enc.put_len(self.len());
        (0..self.len()).for_each(|j| self.hash(j).encode(enc));
    }

    fn decode(dec: &mut pfe_persist::Decoder<'_>) -> Result<Self, pfe_persist::PersistError> {
        Ok(Vec::<SignHash>::decode(dec)?.into_iter().collect())
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
    fn every_kernel_instantiation_equals_the_u128_reference() {
        // Coefficients at the limb edges: `c_l = 2^31 − 1` alone, `c_h =
        // 2^30 − 1` alone, `p − 1` (`c_h` full, `c_l = 2^31 − 2`), and
        // `2^32 − 1`, `2^32` either side of a 32-bit word.
        let edges = [
            0,
            1,
            MERSENNE61 - 1,
            (1 << 31) - 1,
            ((1 << 30) - 1) << 31,
            (1 << 32) - 1,
            1 << 32,
        ];
        let mut rng = SplitMix64::new(0xb4c4);
        let mut hashes: Vec<SignHash> = (0..edges.len().pow(4))
            .map(|i| {
                SignHash(std::array::from_fn(|k| {
                    edges[i / edges.len().pow(k as u32) % edges.len()]
                }))
            })
            .collect();
        // 2401 + 3 hashes: a tail shorter than any vector.
        hashes.extend((0..3).map(|_| SignHash::new(rng.next_u64())));
        let bank: SignBank = hashes.iter().cloned().collect();
        let items = [
            0,
            1,
            MERSENNE61 - 1,
            MERSENNE61,
            MERSENNE61 + 1,
            1 << 61,
            (1 << 62) + 5,
            u64::MAX,
        ];
        let items = items.into_iter().chain((0..64).map(|_| rng.next_u64()));
        let mut reference = vec![0i64; bank.len()];
        let mut kernels: Vec<(String, Features, Vec<i64>)> = Features::detect()
            .each_build_of("add_signs", &SIGN_ISAS)
            .into_iter()
            .map(|(name, features)| (name, features, vec![0i64; bank.len()]))
            .collect();
        for (i, x) in items.enumerate() {
            let delta = [1, -7, u32::MAX as i64][i % 3];
            bank.add_signs_u128(&SignHash::powers(x), delta, &mut reference);
            for (name, features, sums) in &mut kernels {
                bank.add_signs_on(*features, x, delta, sums);
                assert_eq!(*sums, reference, "{name} after item {x}");
            }
        }
        for (j, h) in hashes.iter().enumerate() {
            assert_eq!(bank.hash(j).0, h.0, "hash {j} gathered from the planes");
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
