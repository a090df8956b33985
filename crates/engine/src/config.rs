//! Engine configuration.

use pfe_core::FpConfig;

use crate::error::EngineError;

/// Optional α-net point-frequency summary (one CountMin per net subset on
/// every shard). Off by default: the uniform sample already answers point
/// frequencies unbiasedly; the CountMin net adds a one-sided upper bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreqNetConfig {
    /// CountMin depth (rows).
    pub depth: usize,
    /// CountMin width (counters per row).
    pub width: usize,
}

impl Default for FreqNetConfig {
    fn default() -> Self {
        Self {
            depth: 4,
            width: 1024,
        }
    }
}

/// Largest [`EngineConfig::shards`]. Each shard is one OS thread and one
/// full α-net summary built before the first row arrives, so the count is
/// threads and memory the caller sizes (a failed spawn would panic the
/// thread starting the engine). 64 is 16× the default and above the core
/// count of every machine the repo is measured on; past the cores, more
/// shards only add merge work.
pub const MAX_SHARDS: usize = 64;

/// Configuration for [`crate::Engine`] / [`crate::IngestPipeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Number of ingest worker shards (each owns its own summaries).
    pub shards: usize,
    /// Rows buffered per shard before a batch is sent down the channel. A
    /// shard sweeps every batch queued when it wakes as one run.
    pub batch_rows: usize,
    /// α-net parameter for the `F_0` net.
    pub alpha: f64,
    /// KMV capacity per net subset.
    pub kmv_k: usize,
    /// Uniform-sample reservoir size (per shard and for the merged
    /// snapshot).
    pub sample_t: usize,
    /// Net materialization cap (safety against runaway `|N|`).
    pub max_subsets: u128,
    /// Base seed; per-shard reservoir seeds and per-mask sketch seeds are
    /// derived from it, so runs are reproducible.
    pub seed: u64,
    /// Optional point-frequency net.
    pub freq_net: Option<FreqNetConfig>,
    /// Optional `F_p` moment nets (one α-net of moment sketches per
    /// configured order). Off by default: each order costs a full net.
    pub fp: Option<FpConfig>,
    /// Query-cache entries kept (LRU); 0 disables caching.
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            // A shard's mask-major sweep amortizes over every batch
            // queued when it wakes, at least one: 4096 rows put every
            // member of a d <= 12 binary net (domain 2^w <= 4096) on its
            // histogram path.
            batch_rows: 4096,
            alpha: 0.25,
            kmv_k: 256,
            sample_t: 4096,
            max_subsets: 1 << 22,
            seed: 0,
            freq_net: None,
            fp: None,
            cache_capacity: 1024,
        }
    }
}

impl EngineConfig {
    /// Validate parameter ranges.
    ///
    /// # Errors
    /// `BadConfig` naming the offending field.
    pub fn validate(&self) -> Result<(), EngineError> {
        if !(1..=MAX_SHARDS).contains(&self.shards) {
            return Err(EngineError::BadConfig(format!(
                "shards={} outside 1..={MAX_SHARDS}",
                self.shards
            )));
        }
        if self.batch_rows == 0 {
            return Err(EngineError::BadConfig("batch_rows must be >= 1".into()));
        }
        if !(self.alpha > 0.0 && self.alpha < 0.5) {
            return Err(EngineError::BadConfig(format!(
                "alpha={} outside (0, 1/2)",
                self.alpha
            )));
        }
        if self.kmv_k < 2 {
            return Err(EngineError::BadConfig("kmv_k must be >= 2".into()));
        }
        if self.sample_t == 0 {
            return Err(EngineError::BadConfig("sample_t must be >= 1".into()));
        }
        if let Some(fc) = &self.freq_net {
            if fc.depth == 0 || fc.width == 0 {
                return Err(EngineError::BadConfig(
                    "freq_net depth/width must be >= 1".into(),
                ));
            }
        }
        if let Some(fp) = &self.fp {
            fp.validate()
                .map_err(|e| EngineError::BadConfig(format!("fp: {e}")))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(EngineConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_bad_fields() {
        for cfg in [
            EngineConfig {
                shards: 0,
                ..Default::default()
            },
            EngineConfig {
                batch_rows: 0,
                ..Default::default()
            },
            EngineConfig {
                alpha: 0.5,
                ..Default::default()
            },
            EngineConfig {
                kmv_k: 1,
                ..Default::default()
            },
            EngineConfig {
                sample_t: 0,
                ..Default::default()
            },
            EngineConfig {
                freq_net: Some(FreqNetConfig { depth: 0, width: 8 }),
                ..Default::default()
            },
            EngineConfig {
                fp: Some(FpConfig::with_orders([2.5])),
                ..Default::default()
            },
        ] {
            assert!(cfg.validate().is_err(), "{cfg:?} should be rejected");
        }
    }
}
