//! KMV (k-minimum values) distinct-count sketch.
//!
//! Keep the `k` smallest distinct hash values seen; if the `k`-th smallest,
//! normalized to `(0,1)`, is `v_k`, then `(k-1)/v_k` is an unbiased distinct
//! count estimate with relative standard error `≈ 1/√(k-2)` (Bar-Yossef et
//! al.). This is the default `β`-approximate `F_0` plug-in for the α-net
//! summary: its accuracy depends only on `k`, never on the pattern domain,
//! matching the `O(ε^{-2} + log n')` sketches cited in Section 6.
//!
//! Two sketches of one seed merge by one walk over their ascending
//! minima, in the left sketch's own buffer (see `merge_sorted`), and a
//! block of keys of any length goes in by the same merge
//! ([`insert_keys`](DistinctSketch::insert_keys)): hashed in one pass of
//! the vector kernel, cut to what a full sketch would keep and to the
//! hashes the sketch does not hold, sorted and merged. Either leaves the
//! minima and the `Vec` capacity that inserting the hashes one at a time,
//! in their order, leaves; inserting a sketch again, or a hash it already
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

    /// Insert a pre-hashed value (for callers that already hold a uniform
    /// 64-bit fingerprint).
    fn insert_hash(&mut self, h: u64) {
        if self.minima.len() == self.k {
            let last = *self.minima.last().expect("nonempty at capacity");
            if h >= last {
                return;
            }
        }
        match self.minima.binary_search(&h) {
            Ok(_) => {} // duplicate hash = duplicate item (hash is injective per seed)
            Err(pos) => {
                self.minima.insert(pos, h);
                if self.minima.len() > self.k {
                    self.minima.pop();
                }
            }
        }
    }

    /// The merge as it was before the linear walk — one insert per hash —
    /// kept as the reference [`DistinctSketch::merge`] must match, minima
    /// and capacity alike.
    #[cfg(test)]
    fn merge_by_inserts(&mut self, other: &Self) {
        for &h in &other.minima {
            self.insert_hash(h);
        }
    }

    /// [`insert_hash`](Self::insert_hash) of every hash of `hashes`, in
    /// order: the same minima and the same capacity, by sorted merges of
    /// the hashes the sketch does not hold (a held hash changes nothing).
    /// While the sketch has `room` for more hashes, the next `room` of
    /// them hold at most `room` new to it, so none displaces another and
    /// they merge as one ascending block. A full sketch rejects, then and
    /// later, every hash at or above its `k`-th minimum and changes on
    /// none it holds: the rest of `hashes` is cut to those left, which
    /// merge at once. `hashes` is scratch.
    fn insert_hashes(&mut self, mut hashes: &mut [u64]) {
        while self.minima.len() < self.k && !hashes.is_empty() {
            let room = self.k - self.minima.len();
            let (block, rest) = hashes.split_at_mut(room.min(hashes.len()));
            let fresh = self.retain_fresh(block);
            self.merge_sorted(sort_dedup(&mut block[..fresh]));
            hashes = rest;
        }
        if hashes.is_empty() {
            return;
        }
        let last = self.minima[self.k - 1];
        let mut below = retain(hashes, |h| h < last);
        if below > self.k {
            // Only the `k` smallest can stay; when they are `k` distinct
            // hashes, nothing above them can.
            hashes[..below].select_nth_unstable(self.k - 1);
            if sort_dedup(&mut hashes[..self.k]).len() == self.k {
                below = self.k;
            }
        }
        let fresh = self.retain_fresh(&mut hashes[..below]);
        self.merge_sorted(sort_dedup(&mut hashes[..fresh]));
    }

    /// [`retain`] of the hashes of `hashes` the sketch does not hold.
    fn retain_fresh(&self, hashes: &mut [u64]) -> usize {
        retain(hashes, |h| self.minima.binary_search(&h).is_err())
    }

    /// Fold in `b`, strictly ascending hashes: the `k` smallest of both
    /// stay, in the `Vec` `self` already owns, with the capacity that
    /// inserting `b`'s hashes one at a time, ascending, leaves. That loop
    /// grows the `Vec` to `max(2·cap, 4)` whenever it is full, and holds
    /// `k + 1` hashes for a moment at a displacing insert (one into a full
    /// sketch) — which, ascending, happens exactly when more than `k`
    /// hashes meet: a full sketch doubles on its first.
    fn merge_sorted(&mut self, b: &[u64]) {
        let (len, k) = (self.minima.len(), self.k);
        // Forward: `fresh` of `b`'s hashes are new to `self` and land
        // among the union's `k` smallest, the last of them at `b[end - 1]`.
        let (mut fresh, mut from, mut end) = (0, 0, 0);
        for (j, &y) in b.iter().enumerate() {
            let at = from + rank_from_front(&self.minima[from..], y);
            if self.minima.get(at) == Some(&y) {
                from = at + 1;
            } else if at + fresh < k {
                (from, fresh, end) = (at, fresh + 1, j + 1);
            } else {
                break;
            }
        }
        if fresh == 0 {
            return; // the union's smallest are `self`'s own
        }
        let mut cap = self.minima.capacity();
        while cap < (len + fresh).min(k + 1) {
            cap = (cap * 2).max(4);
        }
        self.minima.reserve_exact(cap - len);
        let out = (len + fresh).min(k);
        self.minima.resize(out, 0);
        // Backward: the largest survivor first, so every write lands at or
        // above the `self` minimum it could overwrite; `self`'s first
        // `out - fresh` minima survive, and `b[..end]` holds every `b`
        // hash that does.
        let (m, mut i, mut j, mut w) = (&mut self.minima, out - fresh, end, out);
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
        self.insert_hash(hash_u64(item, self.seed));
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

    /// Keep the `k` smallest of both sketches' minima by one merge of
    /// `other`'s ascending minima (see `merge_sorted`): what inserting
    /// them one at a time leaves — the same minima and the same capacity,
    /// which [`SpaceUsage`] counts.
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.k, other.k, "KMV merge: k mismatch");
        assert_eq!(self.seed, other.seed, "KMV merge: seed mismatch");
        self.merge_sorted(&other.minima);
    }

    /// Fingerprint and hash the whole block in one pass of the vector
    /// kernel, then `insert_hashes`: sorted merges that leave the minima
    /// and capacity inserting one hash at a time leaves.
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

    /// A full sketch's `Vec` doubles on its first displacing insert: it
    /// inserts before it pops, so for a moment it holds `k + 1` hashes.
    /// `space_bytes` counts capacity, so the merge replays this.
    #[test]
    fn a_full_sketch_doubles_on_its_first_displacing_insert() {
        let full = || {
            let mut s = Kmv::new(4, 1);
            [10, 20, 30, 40].into_iter().for_each(|h| s.insert_hash(h));
            s
        };
        let mut s = full();
        assert_eq!((s.minima.len(), s.minima.capacity()), (4, 4));
        s.insert_hash(50); // above the 4th minimum: rejected, no growth
        assert_eq!(s.minima.capacity(), 4);
        s.insert_hash(5);
        assert_eq!(s.minima, [5, 10, 20, 30]);
        assert_eq!(s.minima.capacity(), 8, "insert-then-pop grows a full Vec");
        let mut merged = full();
        let mut one = Kmv::new(4, 1);
        one.insert_hash(5);
        merged.merge(&one);
        assert_eq!(merged.minima, s.minima);
        assert_eq!(merged.minima.capacity(), 8, "the merge replays the growth");
    }

    /// The linear merge leaves exactly what the one-at-a-time loop leaves —
    /// minima *and* capacity — over 10,752 random pairs: every `k` the
    /// engine and its tests use, overlapping and disjoint item domains,
    /// empty sides, and the capacities a sketch can carry into a merge
    /// (fresh, decoded or cloned = its length, grown by a displacing
    /// insert, grown by an earlier merge).
    #[test]
    fn linear_merge_matches_the_insert_loop_minima_and_capacity() {
        use pfe_hash::rng::Xoshiro256pp;
        use pfe_persist::{Decoder, Encoder};
        let mut rng = Xoshiro256pp::seed_from_u64(29);
        let mut below = |n: u64| rng.next_u64() % n;
        // One side: `n` items from `[from, from + span)`, carried in `how`.
        let side = |k: usize, n: u64, from: u64, span: u64, how: u64| {
            let mut s = Kmv::new(k, 7);
            (0..n).for_each(|i| s.insert(from + (i * 7919) % span));
            match how {
                0 => s,
                1 => {
                    let mut enc = Encoder::new();
                    s.encode(&mut enc);
                    let bytes = enc.into_bytes();
                    Kmv::decode(&mut Decoder::new(&bytes)).expect("decode")
                }
                2 => s.clone(),
                _ => {
                    let mut extra = Kmv::new(k, 7);
                    (0..2 * k as u64).for_each(|i| extra.insert(u64::MAX - i));
                    s.merge_by_inserts(&extra);
                    s
                }
            }
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
                let build = || {
                    let a = side(k, na, 0, span.max(na), how_a);
                    let b = side(k, nb, from_b, span.max(nb), how_b);
                    (a, b)
                };
                let (mut linear, b) = build();
                let (mut reference, _) = build();
                assert_eq!(linear.minima.capacity(), reference.minima.capacity());
                linear.merge(&b);
                reference.merge_by_inserts(&b);
                let case = format!(
                    "k={k} na={na} nb={nb} span={span} from_b={from_b} how={how_a}/{how_b}"
                );
                assert_eq!(linear.minima, reference.minima, "{case}");
                assert_eq!(
                    linear.minima.capacity(),
                    reference.minima.capacity(),
                    "{case}"
                );
                assert_eq!(linear.space_bytes(), reference.space_bytes(), "{case}");
                cases += 1;
            }
        }
        assert!(cases >= 10_000);
    }

    /// A block inserted by `insert_keys` / `insert_hashes` leaves what
    /// inserting it one hash at a time leaves — minima *and* capacity —
    /// for every `k` from 2 to past the 1024 a new sketch reserves,
    /// sketches empty, part-filled and full (fresh, or cloned so their
    /// capacity is their length), and blocks holding repeats and hashes
    /// the sketch already holds, in random, ascending and descending hash
    /// order.
    #[test]
    fn block_insert_matches_the_insert_loop_minima_and_capacity() {
        use pfe_hash::rng::Xoshiro256pp;
        let mut rng = Xoshiro256pp::seed_from_u64(31);
        let mut below = |n: u64| rng.next_u64() % n;
        let key_seed = 0xf1a9;
        let hash = |s: &Kmv, key: u64| hash_u64(pfe_hash::hash_u128(key.into(), key_seed), s.seed);
        for k in [2usize, 3, 64, 256, 1025, 2048] {
            let ku = k as u64;
            for _ in 0..200 {
                let span = [ku / 2 + 1, 2 * ku, 1 << 40][below(3) as usize];
                let held = [0, ku / 2, ku - 1, ku, 3 * ku][below(5) as usize];
                let cloned = below(2) == 0;
                let start = || {
                    let mut s = Kmv::new(k, 7);
                    (0..held).for_each(|i| s.insert_hash(hash(&s, (i * 7919) % span)));
                    if cloned {
                        s = s.clone();
                    }
                    s
                };
                let n = [0, 1, 7, ku / 2, ku, 2 * ku + 1][below(6) as usize];
                let keys: Vec<u64> = (0..n).map(|_| below(span)).collect();
                let (mut reference, mut block) = (start(), start());
                let mut hashes: Vec<u64> = keys.iter().map(|&key| hash(&block, key)).collect();
                let order = below(3);
                match order {
                    1 => hashes.sort_unstable(),
                    2 => hashes.sort_unstable_by(|a, b| b.cmp(a)),
                    _ => {}
                }
                hashes.iter().for_each(|&h| reference.insert_hash(h));
                if order == 0 {
                    block.insert_keys(&mut keys.clone(), key_seed);
                } else {
                    block.insert_hashes(&mut hashes.clone());
                }
                let case =
                    format!("k={k} span={span} held={held} cloned={cloned} n={n} order={order}");
                assert_eq!(block.minima, reference.minima, "{case}");
                assert_eq!(
                    block.minima.capacity(),
                    reference.minima.capacity(),
                    "{case}"
                );
            }
        }
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
