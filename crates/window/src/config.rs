//! Sliding-window configuration.

use pfe_engine::EngineError;

/// Shape of the tiered bucket ring behind a
/// [`WindowedEngine`](crate::WindowedEngine).
///
/// The ring is an exponential histogram over row counts: rows land in an
/// *active* bucket that seals at [`bucket_rows`](Self::bucket_rows) rows
/// (tier 0); when a tier exceeds [`tier_cap`](Self::tier_cap) buckets,
/// its two oldest buckets merge into one bucket of the next tier (2×,
/// 4×, … rows); at the top tier ([`max_tiers`](Self::max_tiers)) the
/// oldest bucket is evicted instead. Total retention is therefore about
/// `tier_cap · bucket_rows · (2^max_tiers − 1)` rows, and any `last_n`
/// inside retention is coverable with overshoot smaller than the oldest
/// bucket included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Rows per tier-0 bucket — the granularity of window boundaries and
    /// the worst-case relative overshoot for small windows.
    pub bucket_rows: u64,
    /// Maximum buckets per tier before a merge (or, at the top tier, an
    /// eviction) restores the cap.
    pub tier_cap: usize,
    /// Number of tiers (bucket sizes `bucket_rows · 2^0 … 2^(max_tiers-1)`).
    pub max_tiers: u32,
    /// Covering-set snapshots kept merged and ready (tiny LRU keyed by
    /// covering-set fingerprint). 0 disables reuse: both this LRU and the
    /// sealed-fold memo, so every windowed read folds its whole covering
    /// afresh — the reference path reuse is tested against.
    pub merged_cache: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        Self {
            bucket_rows: 1024,
            tier_cap: 4,
            max_tiers: 8,
            merged_cache: 4,
        }
    }
}

impl WindowConfig {
    /// Validate parameter ranges.
    ///
    /// # Errors
    /// `BadConfig` naming the offending field.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.bucket_rows == 0 {
            return Err(EngineError::BadConfig("bucket_rows must be >= 1".into()));
        }
        if self.tier_cap < 2 {
            return Err(EngineError::BadConfig(
                "tier_cap must be >= 2 (a merge needs two buckets)".into(),
            ));
        }
        if self.max_tiers == 0 || self.max_tiers > 32 {
            return Err(EngineError::BadConfig("max_tiers must be in 1..=32".into()));
        }
        // Retention must fit u64. (`checked_shl` only rejects shifts
        // ≥ 64, not value overflow, so the check multiplies instead.)
        if self.checked_retention().is_none() {
            return Err(EngineError::BadConfig(
                "bucket_rows * tier_cap * 2^max_tiers overflows".into(),
            ));
        }
        Ok(())
    }

    /// The retention computation with every step checked: cap buckets per
    /// tier, tier ℓ holds `bucket_rows · 2^ℓ` rows, plus the unsealed
    /// active bucket.
    fn checked_retention(&self) -> Option<u64> {
        let mut per_cap = 0u64;
        for level in 0..self.max_tiers {
            // `1 << level` fits: max_tiers is capped at 32.
            per_cap = per_cap.checked_add(self.bucket_rows.checked_mul(1u64 << level)?)?;
        }
        per_cap
            .checked_mul(self.tier_cap as u64)?
            .checked_add(self.bucket_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(WindowConfig::default().validate().is_ok());
        // 4 tiers-worth of doubling buckets: 4 * 1024 * 255 + 1024.
        assert_eq!(
            WindowConfig::default().checked_retention(),
            Some(4 * 1024 * 255 + 1024)
        );
    }

    #[test]
    fn rejects_bad_fields() {
        for cfg in [
            WindowConfig {
                bucket_rows: 0,
                ..Default::default()
            },
            WindowConfig {
                tier_cap: 1,
                ..Default::default()
            },
            WindowConfig {
                max_tiers: 0,
                ..Default::default()
            },
            WindowConfig {
                max_tiers: 33,
                ..Default::default()
            },
            // Regression: value overflow that checked_shl cannot see
            // (shift < 64 but the product exceeds u64).
            WindowConfig {
                bucket_rows: 1 << 60,
                tier_cap: 2,
                max_tiers: 8,
                ..Default::default()
            },
        ] {
            assert!(cfg.validate().is_err(), "{cfg:?} should be rejected");
        }
        // Rejected-as-overflowing configs report no retention instead of
        // panicking.
        let huge = WindowConfig {
            bucket_rows: 1 << 60,
            tier_cap: 2,
            max_tiers: 8,
            ..Default::default()
        };
        assert_eq!(huge.checked_retention(), None);
    }
}
