//! Uniform reservoir sampling (Vitter's Algorithm R).
//!
//! Maintains a uniform sample of `t` items from a stream of unknown length —
//! the entire machinery behind the paper's Theorem 5.1 upper bound: a
//! uniform row sample taken *before* the query `C` arrives supports
//! `ε‖f‖_1`-additive frequency estimates for every later projection. The
//! sampler is generic over the item type so `pfe-core` can store full rows.

use crate::traits::SpaceUsage;
use pfe_hash::rng::Xoshiro256pp;
use pfe_persist::Persist;

/// Uniform reservoir sampler of capacity `t`.
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    items: Vec<T>,
    t: usize,
    seen: u64,
    rng: Xoshiro256pp,
}

impl<T> Reservoir<T> {
    /// Create with capacity `t`.
    ///
    /// # Panics
    /// Panics if `t == 0`.
    pub fn new(t: usize, seed: u64) -> Self {
        assert!(t > 0, "reservoir capacity must be positive");
        Self {
            items: Vec::with_capacity(t.min(1 << 20)),
            t,
            seen: 0,
            rng: Xoshiro256pp::seed_from_u64(seed),
        }
    }

    /// Capacity `t`.
    pub fn capacity(&self) -> usize {
        self.t
    }

    /// Stream length observed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Current sample (length `min(t, seen)`).
    pub fn sample(&self) -> &[T] {
        &self.items
    }

    /// The sampling rate `min(t, seen)/seen` used to scale estimates
    /// (Theorem 5.1's `α = t/n`); 1.0 while under-full, 0 on an empty
    /// stream.
    pub fn rate(&self) -> f64 {
        if self.seen == 0 {
            0.0
        } else {
            self.items.len() as f64 / self.seen as f64
        }
    }

    /// Observe one item.
    pub fn insert(&mut self, item: T) {
        self.seen += 1;
        if self.items.len() < self.t {
            self.items.push(item);
            return;
        }
        // Algorithm R: replace slot j with probability t/seen.
        let j = self.rng.range_u64(self.seen);
        if (j as usize) < self.t {
            self.items[j as usize] = item;
        }
    }

    /// Merge another reservoir over a disjoint stream segment, producing a
    /// uniform sample of the concatenated stream.
    ///
    /// The number of output items taken from each side follows the
    /// multivariate hypergeometric law of a uniform `t`-subset of the
    /// concatenated stream, realized sequentially: each draw picks side A
    /// with probability `remaining_A / (remaining_A + remaining_B)` over
    /// *stream positions* (decremented by one per draw), then moves a
    /// uniformly chosen unused item from that side's sample. A uniform
    /// `j`-subset of a uniform sample is a uniform `j`-subset of the
    /// stream, so every stream position is equally likely in the result.
    /// Randomness comes from `self`'s seeded generator, so merges are
    /// deterministic per seed.
    ///
    /// # Panics
    /// Panics on capacity mismatch.
    pub fn merge(&mut self, other: &Self)
    where
        T: Clone,
    {
        assert_eq!(self.t, other.t, "reservoir merge: capacity mismatch");
        if other.seen == 0 {
            return;
        }
        if self.seen == 0 {
            self.items = other.items.clone();
            self.seen = other.seen;
            return;
        }
        // Fast path: both sides retained their entire stream and the union
        // still fits — the union is itself the entire stream.
        if self.items.len() as u64 == self.seen
            && other.items.len() as u64 == other.seen
            && self.items.len() + other.items.len() <= self.t
        {
            self.items.extend(other.items.iter().cloned());
            self.seen += other.seen;
            return;
        }
        let mut pool_a = std::mem::take(&mut self.items);
        let mut pool_b = other.items.clone();
        let mut rem_a = self.seen;
        let mut rem_b = other.seen;
        let mut out = Vec::with_capacity(self.t);
        while out.len() < self.t && (!pool_a.is_empty() || !pool_b.is_empty()) {
            // A sample can run dry before its side's positions do (the side
            // held more than t items); the forced draws from the other side
            // are the standard truncation of the hypergeometric tail.
            let take_a = if pool_b.is_empty() {
                true
            } else if pool_a.is_empty() {
                false
            } else {
                self.rng.range_u64(rem_a + rem_b) < rem_a
            };
            if take_a {
                let i = self.rng.range_u64(pool_a.len() as u64) as usize;
                out.push(pool_a.swap_remove(i));
                rem_a -= 1;
            } else {
                let i = self.rng.range_u64(pool_b.len() as u64) as usize;
                out.push(pool_b.swap_remove(i));
                rem_b -= 1;
            }
        }
        self.items = out;
        self.seen += other.seen;
    }
}

impl<T: Persist> Persist for Reservoir<T> {
    fn encode(&self, enc: &mut pfe_persist::Encoder) {
        enc.put_u64(self.t as u64);
        enc.put_u64(self.seen);
        self.rng.encode(enc);
        self.items.encode(enc);
    }

    fn decode(dec: &mut pfe_persist::Decoder<'_>) -> Result<Self, pfe_persist::PersistError> {
        use pfe_persist::PersistError;
        let t = dec.take_u64()? as usize;
        if t == 0 {
            return Err(PersistError::Malformed(
                "reservoir capacity must be positive".into(),
            ));
        }
        let seen = dec.take_u64()?;
        let rng = Xoshiro256pp::decode(dec)?;
        let items = Vec::<T>::decode(dec)?;
        // The Algorithm R invariant: the sample holds min(t, seen) items.
        let expected = (t as u64).min(seen);
        if items.len() as u64 != expected {
            return Err(PersistError::Malformed(format!(
                "reservoir holds {} item(s), expected min(t={t}, seen={seen}) = {expected}",
                items.len()
            )));
        }
        Ok(Self {
            items,
            t,
            seen,
            rng,
        })
    }
}

impl<T> SpaceUsage for Reservoir<T> {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.items.capacity() * std::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn underfull_keeps_everything() {
        let mut r = Reservoir::new(100, 1);
        for i in 0..50u64 {
            r.insert(i);
        }
        assert_eq!(r.sample().len(), 50);
        assert_eq!(r.rate(), 1.0);
        let mut s: Vec<u64> = r.sample().to_vec();
        s.sort_unstable();
        assert_eq!(s, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn capacity_respected() {
        let mut r = Reservoir::new(10, 2);
        for i in 0..10_000u64 {
            r.insert(i);
        }
        assert_eq!(r.sample().len(), 10);
        assert_eq!(r.seen(), 10_000);
    }

    #[test]
    fn uniformity_over_positions() {
        // Each stream position should land in the final sample with
        // probability t/n; aggregate over many independent runs.
        let (t, n, runs) = (10usize, 100u64, 3000u64);
        let mut hits = vec![0u32; n as usize];
        for seed in 0..runs {
            let mut r = Reservoir::new(t, seed);
            for i in 0..n {
                r.insert(i);
            }
            for &x in r.sample() {
                hits[x as usize] += 1;
            }
        }
        let expect = runs as f64 * t as f64 / n as f64;
        for (i, &h) in hits.iter().enumerate() {
            let dev = (h as f64 - expect).abs() / expect;
            assert!(dev < 0.30, "position {i} inclusion deviates {dev}");
        }
    }

    #[test]
    fn merge_underfull_is_concatenation() {
        let mut a = Reservoir::new(100, 1);
        let mut b = Reservoir::new(100, 2);
        for i in 0..30u64 {
            a.insert(i);
        }
        for i in 30..60u64 {
            b.insert(i);
        }
        a.merge(&b);
        assert_eq!(a.seen(), 60);
        assert_eq!(a.rate(), 1.0);
        let mut s: Vec<u64> = a.sample().to_vec();
        s.sort_unstable();
        assert_eq!(s, (0..60).collect::<Vec<_>>());
    }

    #[test]
    fn merge_respects_capacity_and_seen() {
        let mut a = Reservoir::new(50, 3);
        let mut b = Reservoir::new(50, 4);
        for i in 0..5000u64 {
            a.insert(i);
        }
        for i in 5000..12_000u64 {
            b.insert(i);
        }
        a.merge(&b);
        assert_eq!(a.seen(), 12_000);
        assert_eq!(a.sample().len(), 50);
    }

    #[test]
    fn merge_weighting_is_uniform_over_segments() {
        // Segment A holds 1/4 of the stream, B holds 3/4; merged samples
        // must draw from each in proportion. Aggregate over many seeds.
        let (t, runs) = (40usize, 800u64);
        let mut from_a = 0u64;
        for seed in 0..runs {
            let mut a = Reservoir::new(t, seed * 2 + 1);
            let mut b = Reservoir::new(t, seed * 2 + 2);
            for i in 0..2500u64 {
                a.insert(i);
            }
            for i in 2500..10_000u64 {
                b.insert(i);
            }
            a.merge(&b);
            from_a += a.sample().iter().filter(|&&x| x < 2500).count() as u64;
        }
        let frac = from_a as f64 / (runs * t as u64) as f64;
        assert!((frac - 0.25).abs() < 0.02, "segment A fraction {frac}");
    }

    #[test]
    fn merge_asymmetric_fullness() {
        // A underfull (sample == stream), B overflowed: weights differ.
        let (t, runs) = (32usize, 1200u64);
        let mut from_a = 0u64;
        for seed in 0..runs {
            let mut a = Reservoir::new(t, seed * 2 + 1);
            let mut b = Reservoir::new(t, seed * 2 + 2);
            for i in 0..20u64 {
                a.insert(i);
            }
            for i in 20..2000u64 {
                b.insert(i);
            }
            a.merge(&b);
            from_a += a.sample().iter().filter(|&&x| x < 20).count() as u64;
        }
        // E[items from A per merge] = t * 20/2000 = 0.32.
        let per_merge = from_a as f64 / runs as f64;
        assert!(
            (per_merge - 0.32).abs() < 0.08,
            "items from A per merge {per_merge}"
        );
    }

    #[test]
    fn merge_empty_sides() {
        let mut a: Reservoir<u64> = Reservoir::new(8, 1);
        let b: Reservoir<u64> = Reservoir::new(8, 2);
        a.merge(&b);
        assert_eq!(a.seen(), 0);
        let mut c = Reservoir::new(8, 3);
        c.insert(7);
        a.merge(&c);
        assert_eq!(a.seen(), 1);
        assert_eq!(a.sample(), &[7]);
    }

    #[test]
    fn merge_deterministic_per_seed() {
        let run = |seed| {
            let mut a = Reservoir::new(16, seed);
            let mut b = Reservoir::new(16, seed ^ 0xff);
            for i in 0..500u64 {
                a.insert(i);
            }
            for i in 500..900u64 {
                b.insert(i);
            }
            a.merge(&b);
            a.sample().to_vec()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn merge_rejects_capacity_mismatch() {
        let mut a: Reservoir<u64> = Reservoir::new(8, 1);
        let b: Reservoir<u64> = Reservoir::new(9, 2);
        a.merge(&b);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut r = Reservoir::new(5, seed);
            for i in 0..1000u64 {
                r.insert(i);
            }
            r.sample().to_vec()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn space_bounded_by_capacity() {
        let mut r = Reservoir::new(64, 0);
        for i in 0..1_000_000u64 {
            r.insert(i);
        }
        assert!(r.space_bytes() < 64 * 8 + 256);
    }

    #[test]
    fn empty_stream_has_rate_zero() {
        let r: Reservoir<u64> = Reservoir::new(4, 0);
        assert_eq!(r.rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        Reservoir::<u64>::new(0, 0);
    }
}
