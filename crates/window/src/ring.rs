//! The tiered bucket ring: an exponential histogram of sealed, mergeable
//! summary buckets over the most recent rows of a stream.
//!
//! ```text
//!   oldest ──────────────────────────────────────────▶ newest
//!   [ 4×|tier2 ][ 2×|tier1 ][ 2×|tier1 ][ 1× ][ 1× ]( active )
//!        ▲            two oldest of an over-cap tier      ▲
//!        └ evicted when the TOP tier exceeds its cap      └ seals at
//!          merge into one bucket of the next tier           bucket_rows
//! ```
//!
//! Every bucket holds one sealed [`ShardSummary`] — the same mergeable
//! suite (uniform row sample + α-net `F_0` KMVs + optional CountMin
//! frequency net) the engine's ingest shards own — so any *contiguous
//! run* of buckets merges into a [`Snapshot`](pfe_engine::Snapshot) that
//! answers all four paper statistics over exactly the rows those buckets
//! observed. A `last_n` query takes the minimal covering suffix of
//! buckets (newest first), overshooting by less than the oldest bucket
//! included; the covering set's *fingerprint* (a hash of the included
//! bucket ids) keys the windowed engine's merged-snapshot and answer
//! caches, so cached windowed answers invalidate exactly when their
//! covering buckets change.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use pfe_core::FedRows;
use pfe_engine::{check_chunk, EngineConfig, EngineError, FreqNetConfig, ShardSummary};
use pfe_hash::hash_u64;
use pfe_obs::{Counter, Histogram, Recorder};
use pfe_persist::{Decoder, Encoder, Persist, PersistError};
use pfe_row::Chunk;
use pfe_sketch::traits::SpaceUsage;

use crate::config::WindowConfig;

/// Domain separators for the covering-set fingerprint hash chain.
const FP_SEED: u64 = 0x77f1_0b0c_ce71_25ed;

/// One sealed bucket: a summary suite over a contiguous row segment.
#[derive(Clone)]
pub struct Bucket {
    /// Monotone identity — fresh per seal *and* per tier merge, so equal
    /// ids imply identical content and fingerprints can key caches.
    id: u64,
    /// Tier: the bucket covers on the order of `bucket_rows · 2^level`
    /// rows.
    level: u32,
    /// The sealed summaries — immutable once sealed, so shared with
    /// in-flight covering reads instead of copied; a tier merge writes
    /// through [`Arc::make_mut`], which copies only while a read holds it.
    summary: Arc<ShardSummary>,
}

impl Bucket {
    /// Rows the bucket summarizes.
    fn rows(&self) -> u64 {
        self.summary.rows()
    }

    /// The sealed summaries.
    fn summary(&self) -> &ShardSummary {
        &self.summary
    }
}

/// The minimal covering suffix the ring resolved for one window request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Covering {
    /// Index of the oldest sealed bucket included (`buckets()[start..]`
    /// plus the active bucket are merged); equals the bucket count when
    /// the active bucket alone covers the window.
    pub start: usize,
    /// Rows of the covered suffix (sealed buckets + active rows).
    pub covered_rows: u64,
    /// Buckets merged, counting the active bucket when it holds rows.
    pub buckets: u32,
    /// Rows of the oldest merged bucket — the window-overshoot bound.
    pub oldest_rows: u64,
    /// Whether rows the request wanted were already evicted.
    pub truncated: bool,
    /// Content fingerprint of the covering set (included bucket ids plus
    /// the active bucket's state): the merged snapshot's epoch slot and
    /// cache key.
    pub fingerprint: u64,
}

/// The tiered ring of sealed buckets plus the live active bucket.
pub struct BucketRing {
    wcfg: WindowConfig,
    ecfg: EngineConfig,
    d: u32,
    q: u32,
    /// Sealed buckets, oldest at the front; levels are non-increasing
    /// front → back (the exponential-histogram invariant).
    buckets: VecDeque<Bucket>,
    /// The live bucket ingest routes into.
    active: ShardSummary,
    /// The rows the active bucket's `F_0` net has been fed (bounded, see
    /// [`FedRows`]): a write sweeps that net over only the rows new to
    /// the bucket. Cleared at seal, never persisted, so empty after
    /// resume — which costs one full sweep, not a byte.
    fed: FedRows,
    /// Distinct rows the active `F_0` net was fed (`window_f0_rows_swept`).
    f0_rows_swept: Arc<Counter>,
    /// Tier-merge durations, µs (`window_tier_merge_us`).
    tier_merge_us: Arc<Histogram>,
    /// Id the active bucket will take when sealed (fresh ids are also
    /// consumed by tier merges, so this is *not* a seal count).
    next_id: u64,
    /// Buckets sealed so far.
    seals: u64,
    /// Rows dropped off the tail so far.
    evicted_rows: u64,
    /// Tier merges performed.
    tier_merges: u64,
    /// Buckets evicted.
    evictions: u64,
}

impl BucketRing {
    /// Create an empty ring for a `d`-column stream over alphabet `q`.
    /// `ecfg` supplies the per-bucket summary parameters (`alpha`,
    /// `kmv_k`, `sample_t`, `seed`, `freq_net`, `fp`); its sharding
    /// fields are unused.
    ///
    /// # Errors
    /// Config validation or summary construction errors.
    pub fn new(
        d: u32,
        q: u32,
        ecfg: &EngineConfig,
        wcfg: WindowConfig,
    ) -> Result<Self, EngineError> {
        wcfg.validate()?;
        ShardSummary::validate(d, q, ecfg)?;
        let active = ShardSummary::new(d, q, 0, ecfg)?;
        Ok(Self {
            wcfg,
            ecfg: ecfg.clone(),
            d,
            q,
            buckets: VecDeque::new(),
            active,
            fed: FedRows::default(),
            f0_rows_swept: Arc::default(),
            tier_merge_us: Arc::default(),
            next_id: 0,
            seals: 0,
            evicted_rows: 0,
            tier_merges: 0,
            evictions: 0,
        })
    }

    /// Record the ring's write-path series in `recorder`:
    /// `window_f0_rows_swept` and `window_tier_merge_us`.
    pub(crate) fn record_into(&mut self, recorder: &Recorder) {
        self.f0_rows_swept = recorder.counter("window_f0_rows_swept");
        self.tier_merge_us = recorder.histogram("window_tier_merge_us");
    }

    /// Dimension `d`.
    pub fn dimension(&self) -> u32 {
        self.d
    }

    /// Alphabet `Q`.
    pub fn alphabet(&self) -> u32 {
        self.q
    }

    /// The ring's window configuration.
    pub fn window_config(&self) -> &WindowConfig {
        &self.wcfg
    }

    /// Resume under `ecfg`: every bucket, sealed and active, must merge
    /// with a probe summary built from it — by reference, the same
    /// [`ShardSummary::check_mergeable`] engine resume and file merges ask
    /// — and future seals then build from `ecfg`, so what was probed is
    /// what the ring will construct.
    ///
    /// # Errors
    /// `Incompatible` naming the first mismatch; summary construction
    /// errors.
    pub(crate) fn adopt_config(&mut self, ecfg: &EngineConfig) -> Result<(), EngineError> {
        let probe = ShardSummary::new(self.d, self.q, 0, ecfg)?;
        for summary in self
            .buckets
            .iter()
            .map(Bucket::summary)
            .chain([&self.active])
        {
            summary.check_mergeable(&probe)?;
        }
        self.ecfg = ecfg.clone();
        Ok(())
    }

    /// Sealed buckets, oldest first.
    pub fn buckets(&self) -> impl Iterator<Item = &Bucket> {
        self.buckets.iter()
    }

    /// The live (unsealed) bucket.
    pub fn active(&self) -> &ShardSummary {
        &self.active
    }

    /// Rows currently summarized (active + sealed).
    pub fn retained_rows(&self) -> u64 {
        self.active.rows() + self.buckets.iter().map(Bucket::rows).sum::<u64>()
    }

    /// Rows dropped off the tail so far.
    pub fn evicted_rows(&self) -> u64 {
        self.evicted_rows
    }

    /// Buckets sealed so far (monotone).
    pub fn sealed_buckets(&self) -> u64 {
        self.seals
    }

    /// Tier merges performed so far.
    pub fn tier_merges(&self) -> u64 {
        self.tier_merges
    }

    /// Evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Buckets currently held per tier (`index = level`).
    pub fn buckets_per_tier(&self) -> Vec<u32> {
        let mut tiers = vec![0u32; self.wcfg.max_tiers as usize];
        for b in &self.buckets {
            tiers[b.level as usize] += 1;
        }
        tiers
    }

    /// Observe a chunk (a single row is a one-row chunk). The ring is a
    /// serving boundary like the ingest pipeline: the chunk is checked as
    /// a whole first ([`check_chunk`]), so a malformed chunk is a typed
    /// error that observes nothing. The checked chunk then feeds the
    /// active bucket, split at every seal boundary: each piece tops the
    /// active bucket up to at most `bucket_rows`, and a full bucket seals
    /// before the next piece lands. The active `F_0` net sweeps only the
    /// rows of a piece the bucket has not held yet (narrowed by `fed`).
    ///
    /// # Errors
    /// `Query(BadParameter)` on shape violations.
    pub fn push(&mut self, chunk: Chunk<'_>) -> Result<(), EngineError> {
        let mut packed = Vec::new();
        let mut rest = check_chunk(self.d, self.q, chunk, &mut packed)?;
        while rest.rows(self.d) > 0 {
            let room = self.wcfg.bucket_rows.saturating_sub(self.active.rows());
            let take = room.min(rest.rows(self.d) as u64) as usize;
            let (head, tail) = rest.split_at(take, self.d);
            let swept = self.active.push_chunk(head, Some(&mut self.fed));
            self.f0_rows_swept.add(swept as u64);
            rest = tail;
            if self.active.rows() >= self.wcfg.bucket_rows {
                self.seal();
            }
        }
        Ok(())
    }

    /// Seal the active bucket into tier 0 and restore the tier caps.
    fn seal(&mut self) {
        let fresh = ShardSummary::new(self.d, self.q, (self.next_id + 1) as usize, &self.ecfg)
            .expect("parameters validated at ring construction");
        let summary = std::mem::replace(&mut self.active, fresh);
        self.fed.clear();
        self.buckets.push_back(Bucket {
            id: self.next_id,
            level: 0,
            summary: Arc::new(summary),
        });
        self.next_id += 1;
        self.seals += 1;
        self.cascade();
    }

    /// Restore the per-tier caps: merge the two oldest buckets of any
    /// over-cap tier into the next tier, evicting at the top tier.
    fn cascade(&mut self) {
        loop {
            let tiers = self.buckets_per_tier();
            let Some(level) =
                (0..self.wcfg.max_tiers).find(|&l| tiers[l as usize] as usize > self.wcfg.tier_cap)
            else {
                return;
            };
            if level + 1 >= self.wcfg.max_tiers {
                // Top tier: drop the oldest bucket. Levels are
                // non-increasing front → back, so it is the front.
                let victim = self.buckets.pop_front().expect("over-cap tier is nonempty");
                debug_assert_eq!(victim.level, level);
                self.evicted_rows += victim.rows();
                self.evictions += 1;
                continue;
            }
            // The two oldest buckets of `level` are adjacent (everything
            // older sits in higher tiers).
            let first = self
                .buckets
                .iter()
                .position(|b| b.level == level)
                .expect("over-cap tier is nonempty");
            debug_assert_eq!(self.buckets[first + 1].level, level);
            let newer = self.buckets.remove(first + 1).expect("adjacent pair");
            let older = &mut self.buckets[first];
            // Older absorbs newer so the merged sample keeps stream order
            // while both reservoirs are under-full (lossless regime).
            let started = Instant::now();
            Arc::make_mut(&mut older.summary).merge(&newer.summary);
            self.tier_merge_us
                .record(started.elapsed().as_micros().try_into().unwrap_or(u64::MAX));
            older.level = level + 1;
            older.id = self.next_id;
            self.next_id += 1;
            self.tier_merges += 1;
        }
    }

    /// Resolve the minimal covering suffix for a `last_n` request
    /// (`None` = everything retained).
    pub fn covering(&self, last_n: Option<u64>) -> Covering {
        let active_rows = self.active.rows();
        let mut covered = active_rows;
        let mut oldest = active_rows;
        let mut start = self.buckets.len();
        let stop_at = last_n.unwrap_or(u64::MAX);
        while covered < stop_at && start > 0 {
            start -= 1;
            covered += self.buckets[start].rows();
            oldest = self.buckets[start].rows();
        }
        let truncated = last_n.is_some_and(|n| covered < n && self.evicted_rows > 0);
        let sealed = (self.buckets.len() - start) as u32;
        let buckets = sealed + u32::from(active_rows > 0);
        Covering {
            start,
            covered_rows: covered,
            buckets,
            oldest_rows: oldest,
            truncated,
            fingerprint: self.fingerprint(start),
        }
    }

    /// Content fingerprint of `buckets[start..]` plus the active bucket.
    fn fingerprint(&self, start: usize) -> u64 {
        let mut h = hash_u64((self.d as u64) | ((self.q as u64) << 32), FP_SEED);
        for b in self.buckets.iter().skip(start) {
            h = hash_u64(h ^ b.id, FP_SEED.rotate_left(17));
        }
        h = hash_u64(h ^ self.next_id, FP_SEED.rotate_left(31));
        hash_u64(h ^ self.active.rows(), FP_SEED.rotate_left(47))
    }

    /// The parts of a covering suffix in stream order: the sealed
    /// buckets' `(id, summary)` pairs oldest first — shared pointers, not
    /// copies — and a copy of the active bucket, which folds in last.
    pub fn covering_summaries(
        &self,
        covering: &Covering,
    ) -> (Vec<(u64, Arc<ShardSummary>)>, ShardSummary) {
        let sealed = self
            .buckets
            .iter()
            .skip(covering.start)
            .map(|b| (b.id, Arc::clone(&b.summary)))
            .collect();
        (sealed, self.active.clone())
    }
}

impl SpaceUsage for BucketRing {
    fn space_bytes(&self) -> usize {
        self.active.space_bytes()
            + self
                .buckets
                .iter()
                .map(|b| b.summary.space_bytes())
                .sum::<usize>()
    }
}

impl Persist for BucketRing {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.wcfg.bucket_rows);
        enc.put_u64(self.wcfg.tier_cap as u64);
        enc.put_u32(self.wcfg.max_tiers);
        enc.put_u64(self.wcfg.merged_cache as u64);
        // The summary-construction parameters future seals derive sketch
        // and reservoir seeds from.
        enc.put_f64(self.ecfg.alpha);
        enc.put_u64(self.ecfg.kmv_k as u64);
        enc.put_u64(self.ecfg.sample_t as u64);
        enc.put_u128(self.ecfg.max_subsets);
        enc.put_u64(self.ecfg.seed);
        match &self.ecfg.freq_net {
            None => enc.put_bool(false),
            Some(fc) => {
                enc.put_bool(true);
                enc.put_u64(fc.depth as u64);
                enc.put_u64(fc.width as u64);
            }
        }
        self.ecfg.fp.encode(enc);
        enc.put_u32(self.d);
        enc.put_u32(self.q);
        enc.put_u64(self.next_id);
        enc.put_u64(self.seals);
        enc.put_u64(self.evicted_rows);
        enc.put_u64(self.tier_merges);
        enc.put_u64(self.evictions);
        self.active.encode(enc);
        enc.put_len(self.buckets.len());
        for b in &self.buckets {
            enc.put_u64(b.id);
            enc.put_u32(b.level);
            b.summary.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let wcfg = WindowConfig {
            bucket_rows: dec.take_u64()?,
            tier_cap: dec.take_u64()? as usize,
            max_tiers: dec.take_u32()?,
            merged_cache: dec.take_u64()? as usize,
        };
        let alpha = dec.take_f64()?;
        let kmv_k = dec.take_u64()? as usize;
        let sample_t = dec.take_u64()? as usize;
        let max_subsets = dec.take_u128()?;
        let seed = dec.take_u64()?;
        let freq_net = if dec.take_bool()? {
            Some(FreqNetConfig {
                depth: dec.take_u64()? as usize,
                width: dec.take_u64()? as usize,
            })
        } else {
            None
        };
        let fp = Option::<pfe_core::FpConfig>::decode(dec)?;
        let ecfg = EngineConfig {
            alpha,
            kmv_k,
            sample_t,
            max_subsets,
            seed,
            freq_net,
            fp,
            ..EngineConfig::default()
        };
        let d = dec.take_u32()?;
        let q = dec.take_u32()?;
        let next_id = dec.take_u64()?;
        let seals = dec.take_u64()?;
        let evicted_rows = dec.take_u64()?;
        let tier_merges = dec.take_u64()?;
        let evictions = dec.take_u64()?;
        wcfg.validate()
            .map_err(|e| PersistError::Malformed(e.to_string()))?;
        ecfg.validate()
            .map_err(|e| PersistError::Malformed(e.to_string()))?;
        let active = ShardSummary::decode(dec)?;
        let check_shape = |s: &ShardSummary, what: &str| {
            if s.sample().dimension() != d || s.sample().alphabet() != q {
                return Err(PersistError::Malformed(format!(
                    "{what} summarizes ({}, Q={}) but the ring holds ({d}, Q={q})",
                    s.sample().dimension(),
                    s.sample().alphabet()
                )));
            }
            Ok(())
        };
        check_shape(&active, "active bucket")?;
        let count = dec.take_len(8)?;
        let mut buckets = VecDeque::with_capacity(count);
        let mut ids = HashSet::with_capacity(count);
        let mut prev_level: Option<u32> = None;
        for i in 0..count {
            let id = dec.take_u64()?;
            let level = dec.take_u32()?;
            if id >= next_id {
                return Err(PersistError::Malformed(format!(
                    "bucket id {id} at or above next_id {next_id}"
                )));
            }
            // Equal ids must mean equal content: the covering fingerprint
            // and the sealed-fold memo key on them.
            if !ids.insert(id) {
                return Err(PersistError::Malformed(format!(
                    "bucket id {id} held by two buckets"
                )));
            }
            if level >= wcfg.max_tiers {
                return Err(PersistError::Malformed(format!(
                    "bucket level {level} at or above max_tiers {}",
                    wcfg.max_tiers
                )));
            }
            if let Some(prev) = prev_level {
                if level > prev {
                    return Err(PersistError::Malformed(format!(
                        "bucket {i} level {level} above its older neighbor's {prev} \
                         (tier order violated)"
                    )));
                }
            }
            prev_level = Some(level);
            let summary = ShardSummary::decode(dec)?;
            check_shape(&summary, "sealed bucket")?;
            if summary.rows() == 0 {
                return Err(PersistError::Malformed(
                    "sealed bucket summarizes zero rows".into(),
                ));
            }
            buckets.push_back(Bucket {
                id,
                level,
                summary: Arc::new(summary),
            });
        }
        Ok(Self {
            wcfg,
            ecfg,
            d,
            q,
            buckets,
            active,
            fed: FedRows::default(),
            f0_rows_swept: Arc::default(),
            tier_merge_us: Arc::default(),
            next_id,
            seals,
            evicted_rows,
            tier_merges,
            evictions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfe_row::ColumnSet;
    use pfe_stream::gen::uniform_binary;

    fn ecfg() -> EngineConfig {
        EngineConfig {
            sample_t: 64,
            kmv_k: 32,
            ..Default::default()
        }
    }

    fn wcfg(bucket_rows: u64, tier_cap: usize, max_tiers: u32) -> WindowConfig {
        WindowConfig {
            bucket_rows,
            tier_cap,
            max_tiers,
            merged_cache: 4,
        }
    }

    fn fill(ring: &mut BucketRing, d: u32, rows: usize, seed: u64) {
        if let pfe_row::Dataset::Binary(m) = &uniform_binary(d, rows, seed) {
            ring.push(Chunk::Packed(m.rows())).expect("push");
        }
    }

    #[test]
    fn seals_at_bucket_rows_and_respects_tier_caps() {
        let d = 8;
        let mut ring = BucketRing::new(d, 2, &ecfg(), wcfg(10, 2, 4)).expect("new");
        fill(&mut ring, d, 25, 1);
        // 25 rows: two sealed tier-0 buckets + 5 active rows.
        assert_eq!(ring.active().rows(), 5);
        assert_eq!(ring.retained_rows(), 25);
        assert_eq!(ring.buckets_per_tier(), vec![2, 0, 0, 0]);
        fill(&mut ring, d, 10, 2);
        // Third seal overflows tier 0 (cap 2): two oldest merge upward.
        assert_eq!(ring.buckets_per_tier(), vec![1, 1, 0, 0]);
        assert_eq!(ring.tier_merges(), 1);
        assert_eq!(ring.evictions(), 0);
        // Every tier-1 bucket holds 2x rows; retention is exact.
        assert_eq!(ring.retained_rows(), 35);
        let levels: Vec<u32> = ring.buckets().map(|b| b.level).collect();
        assert_eq!(levels, vec![1, 0], "older buckets sit in higher tiers");
    }

    #[test]
    fn eviction_at_top_tier_drops_oldest_and_accounts_rows() {
        let d = 8;
        // 1 tier, cap 2: the third seal evicts the oldest bucket.
        let mut ring = BucketRing::new(d, 2, &ecfg(), wcfg(10, 2, 1)).expect("new");
        fill(&mut ring, d, 30, 3);
        assert_eq!(ring.evictions(), 1);
        assert_eq!(ring.evicted_rows(), 10);
        assert_eq!(ring.retained_rows(), 20);
        assert_eq!(ring.buckets_per_tier(), vec![2]);
    }

    #[test]
    fn covering_is_minimal_with_sub_bucket_slack() {
        let d = 8;
        let mut ring = BucketRing::new(d, 2, &ecfg(), wcfg(10, 4, 4)).expect("new");
        fill(&mut ring, d, 47, 4); // 4 sealed buckets + 7 active
        let c = ring.covering(Some(5));
        assert_eq!((c.covered_rows, c.buckets), (7, 1), "active alone covers");
        let c = ring.covering(Some(8));
        assert_eq!(c.covered_rows, 17, "one sealed bucket joins");
        assert_eq!(c.oldest_rows, 10);
        assert!(c.covered_rows - 8 < c.oldest_rows + 1);
        let c = ring.covering(Some(40));
        assert_eq!(c.covered_rows, 47);
        assert!(!c.truncated);
        // Everything retained.
        let all = ring.covering(None);
        assert_eq!(all.covered_rows, 47);
        assert_eq!(all.start, 0);
    }

    #[test]
    fn truncation_flag_requires_eviction() {
        let d = 8;
        let mut ring = BucketRing::new(d, 2, &ecfg(), wcfg(10, 2, 1)).expect("new");
        fill(&mut ring, d, 15, 5);
        // Request beyond the stream, nothing evicted yet: not truncated.
        let c = ring.covering(Some(1000));
        assert!(!c.truncated);
        assert_eq!(c.covered_rows, 15);
        fill(&mut ring, d, 15, 6); // forces an eviction
        assert!(ring.evicted_rows() > 0);
        let c = ring.covering(Some(1000));
        assert!(c.truncated);
        assert_eq!(c.covered_rows, ring.retained_rows());
    }

    #[test]
    fn fingerprint_tracks_content() {
        let d = 8;
        let mut ring = BucketRing::new(d, 2, &ecfg(), wcfg(10, 4, 4)).expect("new");
        fill(&mut ring, d, 25, 7);
        let before = ring.covering(Some(20)).fingerprint;
        // Same request, untouched ring: stable.
        assert_eq!(ring.covering(Some(20)).fingerprint, before);
        // One more row lands in the active bucket: fingerprint moves.
        ring.push(Chunk::Packed(&[0b1])).expect("push");
        let after = ring.covering(Some(20)).fingerprint;
        assert_ne!(before, after);
        // Different coverings differ.
        assert_ne!(
            ring.covering(Some(1)).fingerprint,
            ring.covering(None).fingerprint
        );
    }

    #[test]
    fn malformed_rows_are_typed_errors() {
        let mut ring = BucketRing::new(8, 2, &ecfg(), wcfg(10, 2, 2)).expect("new");
        assert!(matches!(
            ring.push(Chunk::Packed(&[0, 1 << 20])),
            Err(EngineError::Query(_))
        ));
        assert!(matches!(
            ring.push(Chunk::Dense(&[0, 1])),
            Err(EngineError::Query(_))
        ));
        assert!(matches!(
            ring.push(Chunk::Dense(&[
                1, 0, 1, 0, 1, 0, 1, 0, 9, 9, 9, 9, 9, 9, 9, 9
            ])),
            Err(EngineError::Query(_))
        ));
        assert_eq!(ring.retained_rows(), 0, "malformed chunk observes nothing");
        ring.push(Chunk::Dense(&[1, 0, 1, 0, 1, 0, 1, 0]))
            .expect("good row");
        assert_eq!(ring.retained_rows(), 1);
    }

    #[test]
    fn covering_merge_answers_match_ring_content() {
        let d = 10;
        let mut ring = BucketRing::new(d, 2, &ecfg(), wcfg(50, 3, 3)).expect("new");
        fill(&mut ring, d, 500, 8);
        let c = ring.covering(None);
        let (sealed, active) = ring.covering_summaries(&c);
        let mut parts: Vec<ShardSummary> = sealed.iter().map(|(_, s)| (**s).clone()).collect();
        parts.push(active);
        let snap = pfe_engine::Snapshot::from_shards(parts, c.fingerprint);
        assert_eq!(snap.n(), ring.retained_rows());
        assert_eq!(snap.epoch(), c.fingerprint);
        let cols = ColumnSet::from_mask(d, 0b111).expect("valid");
        assert!(snap.f0(&cols).expect("ok").estimate > 0.0);
    }

    #[test]
    fn persist_roundtrip_is_byte_stable_and_validated() {
        let d = 8;
        let mut ring = BucketRing::new(d, 2, &ecfg(), wcfg(10, 2, 3)).expect("new");
        fill(&mut ring, d, 137, 9);
        let mut enc = Encoder::new();
        ring.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = BucketRing::decode(&mut dec).expect("decode");
        dec.expect_end().expect("fully consumed");
        assert_eq!(back.retained_rows(), ring.retained_rows());
        assert_eq!(back.next_id, ring.next_id);
        assert_eq!(back.buckets_per_tier(), ring.buckets_per_tier());
        assert_eq!(back.covering(Some(60)), ring.covering(Some(60)));
        let mut enc2 = Encoder::new();
        back.encode(&mut enc2);
        assert_eq!(enc2.into_bytes(), bytes, "re-encode is byte-identical");
        // Truncated input is a typed error, not a panic.
        for cut in [0, 8, bytes.len() / 2, bytes.len() - 1] {
            let mut dec = Decoder::new(&bytes[..cut]);
            assert!(BucketRing::decode(&mut dec).is_err());
        }
    }

    /// Regression: decode checked only `id < next_id`, so a ring holding
    /// ids `[5, 5]` decoded — and the sealed-fold memo, keyed by ids, took
    /// the newer bucket's fold for the older one's.
    #[test]
    fn decode_rejects_a_bucket_id_held_twice() {
        let d = 8;
        let mut ring = BucketRing::new(d, 2, &ecfg(), wcfg(10, 4, 3)).expect("new");
        fill(&mut ring, d, 25, 10); // two sealed buckets, ids 0 and 1
        let encode = |ring: &BucketRing| {
            let mut enc = Encoder::new();
            ring.encode(&mut enc);
            enc.into_bytes()
        };
        ring.next_id = 6;
        for (bucket, id) in ring.buckets.iter_mut().zip([4, 5]) {
            bucket.id = id;
        }
        let distinct = encode(&ring);
        assert!(BucketRing::decode(&mut Decoder::new(&distinct)).is_ok());
        ring.buckets[0].id = 5;
        let twice = encode(&ring);
        match BucketRing::decode(&mut Decoder::new(&twice)) {
            Err(PersistError::Malformed(msg)) => assert!(msg.contains("id 5"), "{msg}"),
            other => panic!("expected Malformed, got {:?}", other.map(|r| r.next_id)),
        }
    }

    /// A ring whose active `F_0` net sweeps only rows new to the bucket
    /// ends every write with the bytes *and* the `SpaceUsage` of a ring
    /// that sweeps every row — packed and dense, with every net on.
    #[test]
    fn new_rows_only_sweeps_match_full_sweeps_in_bytes_and_space() {
        // Writes of up to 150 rows: seals, tier merges and evictions, and
        // KMVs small enough to fill inside one write.
        for kmv_k in [2, 8] {
            for shape in [(2, 9), (4, 5)] {
                narrowed_and_full_rings_agree(shape, kmv_k, [1, 5, 30, 64, 150], [6, 60, 600], 0);
            }
        }
        // Writes of 1–8 rows from tiny pools at k = 2: the one-column
        // members (4 patterns) take the histogram path while the rows
        // swept have 4 distinct rows, so a sketch that fills mid-write
        // often takes its keys in a different order in each ring.
        for seed in 29..34 {
            narrowed_and_full_rings_agree((4, 5), 2, [1, 2, 3, 5, 8], [3, 6, 10], seed);
        }
    }

    fn narrowed_and_full_rings_agree(
        (q, d): (u32, u32),
        kmv_k: usize,
        lens: [usize; 5],
        pools: [u64; 3],
        seed: u64,
    ) {
        let ecfg = EngineConfig {
            sample_t: 32,
            kmv_k,
            freq_net: Some(FreqNetConfig {
                depth: 2,
                width: 32,
            }),
            fp: Some(pfe_core::FpConfig {
                orders: vec![2.0, 1.5],
                stable_t: 2,
                ams_groups: 2,
                ams_per_group: 2,
            }),
            ..Default::default()
        };
        let bytes = |ring: &BucketRing| {
            let mut enc = Encoder::new();
            ring.encode(&mut enc);
            enc.into_bytes()
        };
        let mut ring = BucketRing::new(d, q, &ecfg, wcfg(64, 2, 3)).expect("new");
        let mut full = BucketRing::new(d, q, &ecfg, wcfg(64, 2, 3)).expect("new");
        let swept = Arc::clone(&ring.f0_rows_swept);
        let mut rng = pfe_hash::rng::Xoshiro256pp::seed_from_u64(u64::from(q) + 10 * seed);
        let mut pushed = 0;
        for step in 0..120u64 {
            let len = lens[(rng.next_u64() % 5) as usize];
            let pool = pools[(step / 5 % 3) as usize];
            let dense: Vec<u16> = (0..len)
                .flat_map(|_| {
                    let row = rng.next_u64() % pool;
                    (0..d).map(move |c| (row / u64::from(q).pow(c) % u64::from(q)) as u16)
                })
                .collect();
            ring.push(Chunk::Dense(&dense)).expect("push");
            // A record cleared before every write narrows nothing.
            full.fed.clear();
            full.push(Chunk::Dense(&dense)).expect("push");
            pushed += len as u64;
            let at = format!("k={kmv_k} q={q} seed {seed} step {step}");
            assert_eq!(bytes(&ring), bytes(&full), "{at}");
            assert_eq!(ring.space_bytes(), full.space_bytes(), "{at}");
        }
        assert!(
            swept.get() < pushed * 3 / 4,
            "q={q}: swept {} of {pushed} rows",
            swept.get()
        );
        if lens[4] > 64 {
            assert!(ring.tier_merges() > 0 && ring.evictions() > 0);
        }
    }
}
