//! Common sketch interfaces.
//!
//! Algorithm 1 of the paper is parameterized by "a β-approximate sketch" for
//! the underlying streaming problem; these traits are that plug-in point.
//! Items are `u64` fingerprints — projected pattern keys are hashed to 64
//! bits by the caller (`PatternKey::fingerprint64`), which keeps every
//! sketch oblivious to the pattern domain.

/// Heap + inline memory accounting, used for the space axis of every
/// experiment (Figure 1's "relative space", the Index-reduction space
/// reports).
pub trait SpaceUsage {
    /// Total bytes attributable to this structure (self + owned heap).
    fn space_bytes(&self) -> usize;
}

/// A distinct-count (`F_0`) sketch over a stream of 64-bit items.
pub trait DistinctSketch: SpaceUsage {
    /// Observe one item (duplicates allowed; only distinctness matters).
    fn insert(&mut self, item: u64);

    /// Observe the fingerprint [`hash_u128`](pfe_hash::hash_u128)`(key,
    /// key_seed)` of every key of `keys`, in order: the sketch
    /// [`insert`](Self::insert) of each leaves. `keys` is scratch the
    /// sketch may overwrite.
    fn insert_keys(&mut self, keys: &mut [u64], key_seed: u64) {
        pfe_hash::hash_keys(pfe_hash::Features::detect(), keys, key_seed, None);
        keys.iter().for_each(|&item| self.insert(item));
    }

    /// Estimate the number of distinct items observed.
    fn estimate(&self) -> f64;

    /// Merge another sketch built with identical parameters/seed.
    ///
    /// # Panics
    /// Implementations panic on parameter mismatch — merging incompatible
    /// sketches is a logic error, not a runtime condition.
    fn merge(&mut self, other: &Self)
    where
        Self: Sized;
}

/// A frequency (point-query) sketch over a stream of `(item, delta)` updates.
pub trait FrequencySketch: SpaceUsage {
    /// Apply an additive update (CountMin restricts to `delta >= 0`).
    fn update(&mut self, item: u64, delta: i64);

    /// Estimate the current frequency of `item`.
    fn estimate(&self, item: u64) -> f64;

    /// Total of all applied deltas (the stream length `‖f‖_1` for
    /// insert-only streams).
    fn total(&self) -> i64;
}

/// A frequency-moment sketch estimating `F_p = Σ f_i^p`.
pub trait MomentSketch: SpaceUsage {
    /// Whether `update(item, n)` leaves bit-for-bit the state of `n`
    /// calls of `update(item, 1)` interleaved anywhere among other
    /// updates. True for integer sums; false for float sums, which are
    /// only bit-stable under a fixed addition order. A caller that
    /// batches repeated items into one weighted update must check it.
    const EXACT_IN_DELTA: bool;

    /// The moment order `p` this sketch targets.
    fn p(&self) -> f64;

    /// Apply an additive update.
    fn update(&mut self, item: u64, delta: i64);

    /// Estimate `F_p`.
    fn estimate(&self) -> f64;

    /// Merge another sketch built with identical parameters/seed.
    ///
    /// # Panics
    /// Implementations panic on parameter mismatch — merging incompatible
    /// sketches is a logic error, not a runtime condition.
    fn merge_with(&mut self, other: &Self)
    where
        Self: Sized;
}

/// Blanket helper: bytes of a `Vec`'s heap buffer.
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_bytes_counts_capacity() {
        let v: Vec<u64> = Vec::with_capacity(10);
        assert_eq!(vec_bytes(&v), 80);
        let w: Vec<u8> = Vec::new();
        assert_eq!(vec_bytes(&w), 0);
    }
}
