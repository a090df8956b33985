//! Thread-safe LRU cache for query answers, keyed by the canonical
//! [`QueryKey`].
//!
//! The key is the *effective* identity of a query against one snapshot:
//! `(epoch, rounded subset mask, statistic, payload, exactness)` — the
//! rounded mask, because every query that rounds to the same net member
//! reads the same sketch; caching at that granularity makes the
//! `subspace_explorer` access pattern (many nearby subsets probing the
//! same region of the net) hit after the first probe. The batch planner
//! groups by the same key, so "shares a cache entry" and "shares a
//! planner group" coincide by construction. Entries from older epochs age
//! out through normal LRU pressure since no new queries touch them.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use pfe_core::{HeavyHitter, SampledPattern};
use pfe_obs::{Counter, Gauge, Recorder};
use pfe_query::QueryKey;

use crate::snapshot::FrequencyAnswer;

/// A cached answer — the snapshot-derived payload only; per-query
/// provenance, guarantees, and cost metadata are rebuilt by the planner
/// for each query the entry serves.
#[derive(Debug, Clone, PartialEq)]
pub enum CachedAnswer {
    /// `F_0` estimate for the key's (rounded) mask.
    F0(f64),
    /// Point-frequency answer.
    Frequency(FrequencyAnswer),
    /// Heavy-hitter list.
    HeavyHitters(Vec<HeavyHitter>),
    /// `ℓ_1` pattern draws (deterministic per the key's `(k, seed)`).
    L1Sample(Vec<SampledPattern>),
    /// `F_p` moment estimate for the key's (rounded) mask.
    Fp(f64),
}

struct LruState {
    map: HashMap<QueryKey, (CachedAnswer, u64)>,
    /// Recency index: tick -> key; first entry is least recent.
    order: BTreeMap<u64, QueryKey>,
    tick: u64,
}

/// Bounded LRU cache; `capacity == 0` disables it entirely.
///
/// Hit/miss/eviction counters and the occupancy gauge live in `pfe-obs`
/// handles, so the stats replies, the `metrics` wire op and the
/// Prometheus endpoint read one series each; a cache built with
/// [`QueryCache::new`] keeps detached (unregistered) handles.
pub struct QueryCache {
    capacity: usize,
    state: Mutex<LruState>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    len_gauge: Arc<Gauge>,
}

impl QueryCache {
    /// Create with room for `capacity` answers and detached counters.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            state: Mutex::new(LruState {
                map: HashMap::new(),
                order: BTreeMap::new(),
                tick: 0,
            }),
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            evictions: Arc::new(Counter::new()),
            len_gauge: Arc::new(Gauge::new()),
        }
    }

    /// Create with counters registered in `recorder` under the
    /// `engine_cache_*` names.
    pub fn with_recorder(capacity: usize, recorder: &Recorder) -> Self {
        let mut cache = Self::new(capacity);
        cache.hits = recorder.counter("engine_cache_hits");
        cache.misses = recorder.counter("engine_cache_misses");
        cache.evictions = recorder.counter("engine_cache_evictions");
        cache.len_gauge = recorder.gauge("engine_cache_len");
        cache
    }

    /// Look up a key, refreshing its recency on hit.
    pub fn get(&self, key: &QueryKey) -> Option<CachedAnswer> {
        if self.capacity == 0 {
            return None;
        }
        let mut s = self.state.lock().expect("cache lock");
        s.tick += 1;
        let tick = s.tick;
        match s.map.get_mut(key) {
            Some((value, last)) => {
                let old = *last;
                *last = tick;
                let value = value.clone();
                s.order.remove(&old);
                s.order.insert(tick, *key);
                self.hits.inc();
                Some(value)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Insert (or refresh) an answer, evicting the least recently used
    /// entry on overflow.
    pub fn put(&self, key: QueryKey, value: CachedAnswer) {
        if self.capacity == 0 {
            return;
        }
        let mut s = self.state.lock().expect("cache lock");
        s.tick += 1;
        let tick = s.tick;
        if let Some((_, old)) = s.map.remove(&key) {
            s.order.remove(&old);
        }
        s.map.insert(key, (value, tick));
        s.order.insert(tick, key);
        while s.map.len() > self.capacity {
            let (&oldest, &victim) = s.order.iter().next().expect("nonempty over capacity");
            s.order.remove(&oldest);
            s.map.remove(&victim);
            self.evictions.inc();
        }
        self.len_gauge.set(s.map.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfe_query::Statistic;

    fn key(mask: u64) -> QueryKey {
        QueryKey::new(1, mask, &Statistic::F0, None, false, 0)
    }

    fn answer(v: f64) -> CachedAnswer {
        CachedAnswer::F0(v)
    }

    /// A cache whose series are registered, and a reader of them:
    /// `(hits, misses, evictions, len)`. (The hit ratio the stats replies
    /// derive from these is pinned in the server's stats-view tests.)
    fn registered(capacity: usize) -> (QueryCache, impl Fn() -> (u64, u64, u64, u64)) {
        let rec = Arc::new(Recorder::new());
        let cache = QueryCache::with_recorder(capacity, &rec);
        let read = move || {
            let counter = |name: &str| rec.counter(name).get();
            (
                counter("engine_cache_hits"),
                counter("engine_cache_misses"),
                counter("engine_cache_evictions"),
                rec.gauge("engine_cache_len").get(),
            )
        };
        (cache, read)
    }

    #[test]
    fn hit_after_put() {
        let (c, read) = registered(4);
        assert!(c.get(&key(1)).is_none());
        c.put(key(1), answer(10.0));
        assert_eq!(c.get(&key(1)), Some(answer(10.0)));
        let (hits, misses, _, len) = read();
        assert_eq!((hits, misses, len), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let (c, read) = registered(2);
        c.put(key(1), answer(1.0));
        c.put(key(2), answer(2.0));
        assert!(c.get(&key(1)).is_some()); // 1 now most recent
        c.put(key(3), answer(3.0)); // evicts 2
        assert!(c.get(&key(2)).is_none());
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(3)).is_some());
        assert_eq!(read().2, 1);
    }

    #[test]
    fn counters_start_at_zero_before_any_lookup() {
        let (_c, read) = registered(4);
        let (hits, misses, _, _) = read();
        assert_eq!((hits, misses), (0, 0));
    }

    #[test]
    fn recorder_backed_cache_shares_its_counters() {
        let (c, read) = registered(1);
        c.get(&key(1));
        c.put(key(1), answer(1.0));
        c.put(key(2), answer(2.0)); // evicts 1
        c.get(&key(2));
        assert_eq!(read(), (1, 1, 1, 1));
    }

    #[test]
    fn distinct_stats_epochs_and_exactness_do_not_collide() {
        let c = QueryCache::new(8);
        let f0 = QueryKey::new(1, 5, &Statistic::F0, None, false, 0);
        let hh = QueryKey::new(1, 5, &Statistic::HeavyHitters { phi: 0.0 }, None, false, 0);
        let f0e2 = QueryKey::new(2, 5, &Statistic::F0, None, false, 0);
        let f0exact = QueryKey::new(1, 5, &Statistic::F0, None, true, 0);
        c.put(f0, answer(1.0));
        c.put(hh, answer(2.0));
        c.put(f0e2, answer(3.0));
        c.put(f0exact, answer(4.0));
        assert_eq!(c.get(&f0), Some(answer(1.0)));
        assert_eq!(c.get(&hh), Some(answer(2.0)));
        assert_eq!(c.get(&f0e2), Some(answer(3.0)));
        assert_eq!(c.get(&f0exact), Some(answer(4.0)));
    }

    #[test]
    fn zero_capacity_disables() {
        let (c, read) = registered(0);
        c.put(key(1), answer(1.0));
        assert!(c.get(&key(1)).is_none());
        // Nothing held and nothing counted: the derived hit ratio is 0.
        assert_eq!(read(), (0, 0, 0, 0));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let (c, read) = registered(64);
        let c = Arc::new(c);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        c.put(key(t * 1000 + i % 100), answer(i as f64));
                        c.get(&key(t * 1000 + (i + 1) % 100));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panic");
        }
        assert!(read().3 <= 64);
    }
}
