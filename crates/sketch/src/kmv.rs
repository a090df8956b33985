//! KMV (k-minimum values) distinct-count sketch.
//!
//! Keep the `k` smallest distinct hash values seen; if the `k`-th smallest,
//! normalized to `(0,1)`, is `v_k`, then `(k-1)/v_k` is an unbiased distinct
//! count estimate with relative standard error `≈ 1/√(k-2)` (Bar-Yossef et
//! al.). This is the default `β`-approximate `F_0` plug-in for the α-net
//! summary: its accuracy depends only on `k`, never on the pattern domain,
//! matching the `O(ε^{-2} + log n')` sketches cited in Section 6.
//!
//! Every write is one walk over ascending hashes in the sketch's own
//! buffer (see `merge_sorted`): a hash is a one-hash walk, another
//! sketch's minima one walk, and a block of keys of any length
//! ([`insert_keys`](DistinctSketch::insert_keys)) is hashed in one pass of
//! the vector kernel, cut once to the hashes that can stay, sorted and
//! walked once. The walk is the one growth rule: a full sketch gives up
//! its largest minimum before it takes a smaller hash, and the buffer
//! grows only to hold the new length, doubling from its capacity (at
//! least to 4) but never past `k`. A sketch never shrinks, so its
//! capacity follows from the lengths it has held, whatever order its
//! hashes came in; inserting a sketch again, or a hash it already
//! rejected, leaves it unchanged.

use crate::traits::{vec_bytes, DistinctSketch, SpaceUsage};
use pfe_hash::{hash_u64, Features};
use pfe_persist::Persist;

/// KMV sketch with capacity `k`.
///
/// ```
/// use pfe_sketch::kmv::Kmv;
/// use pfe_sketch::traits::DistinctSketch;
///
/// let mut sketch = Kmv::new(256, 42);
/// for item in 0..100_000u64 {
///     sketch.insert(item);
/// }
/// let estimate = sketch.estimate();
/// assert!((estimate - 100_000.0).abs() / 100_000.0 < 0.25);
/// ```
#[derive(Debug, Clone)]
pub struct Kmv {
    /// Ascending sorted distinct hash values; at most `k` of them.
    minima: Vec<u64>,
    k: usize,
    seed: u64,
}

impl Kmv {
    /// Create a sketch keeping the `k` minimum hash values.
    ///
    /// # Panics
    /// Panics if `k < 2` (the estimator needs at least 2 minima).
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k >= 2, "KMV requires k >= 2, got {k}");
        Self {
            minima: Vec::with_capacity(k.min(1024)),
            k,
            seed,
        }
    }

    /// Capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Seed (merging requires equal seeds).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fold in `hashes`, in any order and with repeats, by one cut and one
    /// merge. The cut keeps the hashes below the `k`-th minimum when the
    /// sketch is full, then the `k` smallest of those, then the ones the
    /// sketch does not hold. `hashes` is scratch.
    fn insert_hashes(&mut self, hashes: &mut [u64]) {
        let mut n = match self.minima.get(self.k - 1) {
            Some(&last) => retain(hashes, |h| h < last),
            None => hashes.len(),
        };
        if n > self.k {
            // Only the `k` smallest can stay; when they are `k` distinct
            // hashes, nothing above them can.
            hashes[..n].select_nth_unstable(self.k - 1);
            if sort_dedup(&mut hashes[..self.k]).len() == self.k {
                n = self.k;
            }
        }
        let fresh = retain(&mut hashes[..n], |h| self.minima.binary_search(&h).is_err());
        self.merge_sorted(sort_dedup(&mut hashes[..fresh]));
    }

    /// The one write: fold in `b`, strictly ascending hashes, keeping the
    /// `k` smallest of both in the `Vec` `self` already owns. Only here
    /// does the `Vec` grow, and only to hold the new length: doubling from
    /// its capacity, at least to 4, never past `k`.
    fn merge_sorted(&mut self, b: &[u64]) {
        let (len, k) = (self.minima.len(), self.k);
        // A full sketch rejects every hash from its `k`-th minimum up.
        let rejected = |y: &u64| len == k && *y >= self.minima[k - 1];
        if b.first().is_none_or(rejected) {
            return;
        }
        // Forward: `fresh` of `b`'s hashes are new to `self` and land
        // among the union's `k` smallest, the last of them at `b[end - 1]`,
        // above `self`'s first `last_at` minima.
        let (mut fresh, mut from, mut end, mut last_at) = (0, 0, 0, 0);
        for (j, &y) in b.iter().enumerate() {
            let at = from + rank_from_front(&self.minima[from..], y);
            if self.minima.get(at) == Some(&y) {
                from = at + 1;
            } else if at + fresh < k {
                (from, fresh, end, last_at) = (at, fresh + 1, j + 1, at);
            } else {
                break;
            }
        }
        if fresh == 0 {
            return; // the union's smallest are `self`'s own
        }
        let out = (len + fresh).min(k);
        let mut cap = self.minima.capacity();
        while cap < out {
            cap = (cap * 2).max(4);
        }
        self.minima.reserve_exact(cap.min(k) - len);
        self.minima.resize(out, 0);
        // Backward: `self`'s first `kept` minima survive, and `b[..end]`
        // holds every `b` hash that does. Those above the last new hash
        // move up as one block, then the rest go largest first, so every
        // write lands at or above the `self` minimum it could overwrite.
        let kept = out - fresh;
        self.minima.copy_within(last_at..kept, last_at + fresh);
        let (m, mut i, mut j, mut w) = (&mut self.minima, last_at, end, last_at + fresh);
        while j > 0 {
            w -= 1;
            let y = b[j - 1];
            if i > 0 && m[i - 1] >= y {
                j -= usize::from(m[i - 1] == y);
                i -= 1;
                m[w] = m[i];
            } else {
                j -= 1;
                m[w] = y;
            }
        }
        debug_assert_eq!(w, i, "`self`'s surviving prefix is already in place");
    }
}

/// Move the values of `xs` that pass `keep` to its front, in order; how
/// many there are. Branch-free, whichever way the tests fall.
fn retain(xs: &mut [u64], keep: impl Fn(u64) -> bool) -> usize {
    let mut kept = 0;
    for i in 0..xs.len() {
        let x = xs[i];
        xs[kept] = x;
        kept += usize::from(keep(x));
    }
    kept
}

/// How many values of ascending `xs` are below `y`, searched from the
/// front in steps that double, then halve: `O(log r)` for a rank `r`, so a
/// merge walking one list through another pays for the gaps it crosses.
fn rank_from_front(xs: &[u64], y: u64) -> usize {
    let mut bound = 1;
    while bound <= xs.len() && xs[bound - 1] < y {
        bound *= 2;
    }
    let lo = bound / 2;
    lo + xs[lo..(bound - 1).min(xs.len())].partition_point(|&x| x < y)
}

/// `xs` sorted, its repeats dropped: the distinct values, ascending, at
/// its front.
fn sort_dedup(xs: &mut [u64]) -> &[u64] {
    xs.sort_unstable();
    let mut kept = usize::from(!xs.is_empty());
    for i in 1..xs.len() {
        if xs[i] != xs[kept - 1] {
            xs[kept] = xs[i];
            kept += 1;
        }
    }
    &xs[..kept]
}

impl SpaceUsage for Kmv {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + vec_bytes(&self.minima)
    }
}

impl DistinctSketch for Kmv {
    fn insert(&mut self, item: u64) {
        self.merge_sorted(&[hash_u64(item, self.seed)]);
    }

    fn estimate(&self) -> f64 {
        if self.minima.len() < self.k {
            // Under-full: every distinct hash was kept, so the count is exact
            // (up to hash collisions, negligible at 64 bits).
            return self.minima.len() as f64;
        }
        let vk = (*self.minima.last().expect("k >= 2") as f64 + 1.0) / (u64::MAX as f64 + 1.0);
        (self.k as f64 - 1.0) / vk
    }

    /// Keep the `k` smallest of both sketches' minima by one walk over
    /// `other`'s ascending minima (see `merge_sorted`), growing by the one
    /// rule: never past `k` slots.
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.k, other.k, "KMV merge: k mismatch");
        assert_eq!(self.seed, other.seed, "KMV merge: seed mismatch");
        self.merge_sorted(&other.minima);
    }

    /// Fingerprint and hash the whole block in one pass of the vector
    /// kernel, then `insert_hashes`: one cut and one merge, growing by the
    /// one rule, never past `k` slots.
    fn insert_keys(&mut self, keys: &mut [u64], key_seed: u64) {
        pfe_hash::hash_keys(Features::detect(), keys, key_seed, Some(self.seed));
        self.insert_hashes(keys);
    }
}

impl Persist for Kmv {
    fn encode(&self, enc: &mut pfe_persist::Encoder) {
        enc.put_u64(self.k as u64);
        enc.put_u64(self.seed);
        self.minima.encode(enc);
    }

    fn decode(dec: &mut pfe_persist::Decoder<'_>) -> Result<Self, pfe_persist::PersistError> {
        use pfe_persist::PersistError;
        let k = dec.take_u64()? as usize;
        if k < 2 {
            return Err(PersistError::Malformed(format!("KMV k={k} below 2")));
        }
        let seed = dec.take_u64()?;
        let minima = Vec::<u64>::decode(dec)?;
        if minima.len() > k {
            return Err(PersistError::Malformed(format!(
                "KMV holds {} minima above capacity {k}",
                minima.len()
            )));
        }
        if !minima.windows(2).all(|w| w[0] < w[1]) {
            return Err(PersistError::Malformed(
                "KMV minima must be strictly ascending".into(),
            ));
        }
        Ok(Self { minima, k, seed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_when_underfull() {
        let mut s = Kmv::new(64, 1);
        for i in 0..40u64 {
            s.insert(i);
            s.insert(i); // duplicates must not count
        }
        assert_eq!(s.estimate(), 40.0);
    }

    #[test]
    fn estimates_within_expected_error() {
        let k = 256;
        let mut s = Kmv::new(k, 7);
        let n = 100_000u64;
        for i in 0..n {
            s.insert(i);
        }
        let est = s.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        // 4 standard errors of 1/sqrt(k-2): 4/sqrt(254) ~ 0.25.
        assert!(rel < 4.0 / (k as f64 - 2.0).sqrt(), "relative error {rel}");
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut s = Kmv::new(64, 3);
        for _ in 0..1000 {
            for i in 0..10u64 {
                s.insert(i);
            }
        }
        assert_eq!(s.estimate(), 10.0);
    }

    #[test]
    fn merge_equals_union_build() {
        let (k, seed) = (128, 9);
        let mut a = Kmv::new(k, seed);
        let mut b = Kmv::new(k, seed);
        let mut u = Kmv::new(k, seed);
        for i in 0..5000u64 {
            a.insert(i);
            u.insert(i);
        }
        for i in 2500..7500u64 {
            b.insert(i);
            u.insert(i);
        }
        a.merge(&b);
        assert_eq!(a.estimate(), u.estimate());
    }

    /// The one-at-a-time reference: a plain `Vec` holding `s`'s minima in
    /// `s`'s capacity, which [`push`] fills.
    fn reference(s: &Kmv) -> Vec<u64> {
        let mut r = Vec::with_capacity(s.minima.capacity());
        r.extend_from_slice(&s.minima);
        r
    }

    /// Insert `h` into the reference by binary search, a full reference
    /// popping its largest minimum first; `Vec::insert` grows it by
    /// doubling (at least to 4), with no bound.
    fn push(r: &mut Vec<u64>, k: usize, h: u64) {
        if let Err(pos) = r.binary_search(&h) {
            if r.len() == k {
                if pos == k {
                    return;
                }
                r.pop();
            }
            r.insert(pos, h);
        }
    }

    /// `s` holds the reference's capacity while that is at most `k`, and
    /// `k` slots once the doubling reference passes `k`.
    fn check_capacity(s: &Kmv, r: &Vec<u64>, case: &str) {
        let cap = s.minima.capacity();
        assert!(cap <= s.k, "capacity {cap} past k: {case}");
        assert_eq!(cap, r.capacity().min(s.k), "{case}");
    }

    /// [`check_capacity`], and `s` holds the reference's minima.
    fn check(s: &Kmv, r: &Vec<u64>, case: &str) {
        assert_eq!(s.minima, *r, "{case}");
        check_capacity(s, r, case);
    }

    /// `s` through its checkpoint bytes: the capacity is the length.
    fn decoded(s: &Kmv) -> Kmv {
        use pfe_persist::{Decoder, Encoder};
        let mut enc = Encoder::new();
        s.encode(&mut enc);
        Kmv::decode(&mut Decoder::new(&enc.into_bytes())).expect("decode")
    }

    /// The linear merge leaves the minima of the one-at-a-time reference,
    /// in at most `k` slots by the one growth rule, over 10,752 random
    /// pairs: every `k` the engine and its tests use, overlapping and
    /// disjoint item domains, empty sides, and the capacities a sketch can
    /// carry into a merge (fresh, decoded or cloned = its length, grown by
    /// an earlier merge). Every insert on the way is checked too.
    #[test]
    fn linear_merge_matches_the_insert_loop_minima() {
        use pfe_hash::rng::Xoshiro256pp;
        let mut rng = Xoshiro256pp::seed_from_u64(29);
        let mut below = |n: u64| rng.next_u64() % n;
        // One side and its reference: `n` items from `[from, from + span)`,
        // carried in `how`.
        let side = |k: usize, n: u64, from: u64, span: u64, how: u64| {
            let mut s = Kmv::new(k, 7);
            let mut r = reference(&s);
            for i in 0..n {
                let item = from + (i * 7919) % span;
                s.insert(item);
                push(&mut r, k, hash_u64(item, 7));
                check_capacity(&s, &r, "insert");
            }
            match how {
                0 => {}
                1 | 2 => {
                    s = if how == 1 { decoded(&s) } else { s.clone() };
                    r = reference(&s);
                }
                _ => {
                    let mut extra = Kmv::new(k, 7);
                    (0..2 * k as u64).for_each(|i| extra.insert(u64::MAX - i));
                    s.merge(&extra);
                    extra.minima.iter().for_each(|&h| push(&mut r, k, h));
                }
            }
            check(&s, &r, "side");
            (s, r)
        };
        let mut cases = 0;
        for k in [2usize, 3, 4, 7, 16, 64, 256] {
            for _ in 0..1536 {
                let sizes = [0, 1, k as u64 / 2, k as u64, k as u64 + 1, 3 * k as u64];
                let mut draw = || sizes[below(6) as usize] + below(3);
                let (na, nb) = (draw(), draw());
                let span = 1 + below(4 * k as u64);
                // Overlapping or disjoint item domains.
                let from_b = [0, span / 2, 1 << 40][below(3) as usize];
                let (how_a, how_b) = (below(4), below(4));
                let (mut a, mut r) = side(k, na, 0, span.max(na), how_a);
                let (b, _) = side(k, nb, from_b, span.max(nb), how_b);
                a.merge(&b);
                b.minima.iter().for_each(|&h| push(&mut r, k, h));
                let case = format!(
                    "k={k} na={na} nb={nb} span={span} from_b={from_b} how={how_a}/{how_b}"
                );
                check(&a, &r, &case);
                cases += 1;
            }
        }
        assert!(cases >= 10_000);
    }

    /// A block inserted by `insert_keys` / `insert_hashes` leaves the
    /// minima of the one-at-a-time reference, and so do one-hash inserts,
    /// each in at most `k` slots by the one growth rule: for every `k` from
    /// 2 to past the 1024 a new sketch reserves, sketches empty,
    /// part-filled and full (fresh, cloned or decoded, so their capacity is
    /// their length), and blocks holding repeats and hashes the sketch
    /// already holds, in random, ascending and descending hash order. A
    /// fresh sketch of `k ≤ 1024` never reallocates.
    #[test]
    fn block_insert_matches_the_insert_loop_minima() {
        use pfe_hash::rng::Xoshiro256pp;
        let mut rng = Xoshiro256pp::seed_from_u64(31);
        let mut below = |n: u64| rng.next_u64() % n;
        let key_seed = 0xf1a9;
        let hash = |s: &Kmv, key: u64| hash_u64(pfe_hash::hash_u128(key.into(), key_seed), s.seed);
        let mut decoded_past_k = 0;
        for k in [2usize, 3, 64, 256, 1025, 2048] {
            let ku = k as u64;
            for _ in 0..200 {
                let span = [ku / 2 + 1, 2 * ku, 1 << 40][below(3) as usize];
                let held = [0, ku / 2, ku - 1, ku, 3 * ku][below(5) as usize];
                let how = below(3); // fresh, cloned, decoded
                let start = || {
                    let mut s = Kmv::new(k, 7);
                    (0..held).for_each(|i| s.merge_sorted(&[hash(&s, (i * 7919) % span)]));
                    match how {
                        1 => s.clone(),
                        2 => decoded(&s),
                        _ => s,
                    }
                };
                let n = [0, 1, 7, ku / 2, ku, 2 * ku + 1][below(6) as usize];
                let keys: Vec<u64> = (0..n).map(|_| below(span)).collect();
                let (mut one, mut block) = (start(), start());
                let (mut r, was) = (reference(&one), block.minima.as_ptr());
                let mut hashes: Vec<u64> = keys.iter().map(|&key| hash(&block, key)).collect();
                let order = below(3);
                match order {
                    1 => hashes.sort_unstable(),
                    2 => hashes.sort_unstable_by(|a, b| b.cmp(a)),
                    _ => {}
                }
                let case = format!("k={k} span={span} held={held} how={how} n={n} order={order}");
                for &h in &hashes {
                    one.merge_sorted(&[h]);
                    push(&mut r, k, h);
                    check_capacity(&one, &r, &case);
                }
                if order == 0 {
                    block.insert_keys(&mut keys.clone(), key_seed);
                } else {
                    block.insert_hashes(&mut hashes.clone());
                }
                check(&one, &r, &case);
                check(&block, &r, &case);
                if how == 0 && k <= 1024 {
                    let now = (block.minima.as_ptr(), block.minima.capacity());
                    assert_eq!(now, (was, k), "a fresh sketch reallocated: {case}");
                }
                decoded_past_k += usize::from(how == 2 && held < ku && block.minima.len() == k);
            }
        }
        assert!(
            decoded_past_k > 0,
            "no decoded under-full sketch was fed past k"
        );
    }

    #[test]
    fn galloping_rank_equals_the_partition_point() {
        for n in 0..40u64 {
            let xs: Vec<u64> = (0..n).map(|i| 3 * i + 1).collect();
            for y in 0..=3 * n + 2 {
                let rank = xs.partition_point(|&x| x < y);
                assert_eq!(rank_from_front(&xs, y), rank, "n={n} y={y}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "seed mismatch")]
    fn merge_rejects_seed_mismatch() {
        let mut a = Kmv::new(16, 1);
        let b = Kmv::new(16, 2);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn rejects_tiny_k() {
        Kmv::new(1, 0);
    }

    #[test]
    fn space_bounded_by_k() {
        let mut s = Kmv::new(64, 5);
        for i in 0..100_000u64 {
            s.insert(i);
        }
        // 64 u64s plus struct overhead; must stay well under 2 KiB.
        assert!(s.space_bytes() < 2048, "space {}", s.space_bytes());
    }

    #[test]
    fn deterministic() {
        let build = || {
            let mut s = Kmv::new(32, 11);
            for i in 0..1000u64 {
                s.insert(i * 3);
            }
            s.estimate()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn seed_changes_estimate_noise_not_scale() {
        let n = 50_000u64;
        for seed in 0..5 {
            let mut s = Kmv::new(128, seed);
            for i in 0..n {
                s.insert(i);
            }
            let rel = (s.estimate() - n as f64).abs() / n as f64;
            assert!(rel < 0.5, "seed {seed} relative error {rel}");
        }
    }
}
