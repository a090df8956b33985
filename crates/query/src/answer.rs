//! The uniform [`Answer`]: estimate + theorem-derived [`Guarantee`] +
//! rounded-mask [`Provenance`] + cache/cost metadata.

use pfe_core::{HeavyHitter, SampledPattern};
use pfe_row::ColumnSet;

// The accuracy contract is `pfe-core`'s: each summary states its own.
pub use pfe_core::{Guarantee, GuaranteeSource};

use crate::statistic::StatKind;

/// Which column set actually answered the query — the α-net rounding
/// provenance (Lemma 6.4) clients need to interpret a net answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Provenance {
    /// The column set the client asked for.
    pub requested: ColumnSet,
    /// The column set the answer was computed on (a net member for
    /// rounded `F_0`; equals `requested` otherwise).
    pub answered_on: ColumnSet,
    /// `|C Δ C′|` — zero when no rounding happened.
    pub sym_diff: u32,
}

/// Realized coverage of a windowed answer.
///
/// A windowed engine answers `last_n`-row queries by merging the minimal
/// covering set of its tiered buckets, so the suffix actually summarized
/// can overshoot the request by less than one bucket (the oldest one
/// included). The accompanying [`Guarantee`] then holds over the
/// `covered_rows`-row suffix, not the requested window — clients that
/// need the slack can read it off `covered_rows - requested_rows`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowCoverage {
    /// The `last_n` the query asked for.
    pub requested_rows: u64,
    /// Rows of the suffix actually summarized: at least
    /// `min(requested_rows, retained)`, at most one bucket more than
    /// `requested_rows`.
    pub covered_rows: u64,
    /// How many ring buckets (including the active one) were merged to
    /// cover the window.
    pub buckets: u32,
    /// True when the ring has already evicted rows the request wanted
    /// (`requested_rows` exceeds total retention): the answer covers
    /// everything retained, which is less than asked.
    pub truncated: bool,
}

/// Cache and planner cost metadata for one answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostInfo {
    /// The answer came from the LRU cache rather than a fresh compute.
    pub cached: bool,
    /// How many queries of the same batch shared this answer's planner
    /// group (one snapshot compute / cache probe served them all); `1`
    /// means the query was alone in its group.
    pub group_size: u32,
}

/// The statistic-specific payload of an [`Answer`].
#[derive(Debug, Clone, PartialEq)]
pub enum AnswerValue {
    /// Projected distinct count.
    F0 {
        /// The (possibly rounded) estimate.
        estimate: f64,
    },
    /// Point frequency.
    Frequency {
        /// Unbiased sample estimate `g/α` (absolute count).
        estimate: f64,
        /// One-sided CountMin overestimate, when the frequency net is
        /// materialized.
        upper_bound: Option<f64>,
    },
    /// Heavy hitters, heaviest first.
    HeavyHitters {
        /// Reported patterns with estimated absolute frequencies.
        hitters: Vec<HeavyHitter>,
    },
    /// `ℓ_1` pattern draws.
    L1Sample {
        /// Sampled patterns with estimated probability mass.
        patterns: Vec<SampledPattern>,
    },
    /// Frequency moment `F_p`.
    Fp {
        /// The (possibly rounded) moment estimate.
        estimate: f64,
    },
}

/// Answer to one [`Query`](crate::Query): the value plus everything a
/// client needs to interpret it — the theorem-derived [`Guarantee`], the
/// rounded-mask [`Provenance`], the snapshot epoch, and [`CostInfo`].
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The statistic-specific payload.
    pub value: AnswerValue,
    /// Accuracy contract for `value`.
    pub guarantee: Guarantee,
    /// Which column set actually answered.
    pub provenance: Provenance,
    /// Epoch of the snapshot the answer was computed against; for
    /// windowed answers, the covering-set fingerprint of the merged
    /// buckets (stable exactly while the covering buckets are).
    pub epoch: u64,
    /// Cache/planner metadata.
    pub cost: CostInfo,
    /// Realized window coverage — `Some` exactly when the query carried
    /// [`QueryOptions::window`](crate::QueryOptions::window).
    pub window: Option<WindowCoverage>,
    /// Echo of the request-scoped trace id the answer was computed
    /// under — `Some` when the client supplied the trace context or
    /// the request qualified as slow, so clients can fetch the span
    /// tree of the query that produced this answer. Fast
    /// server-generated traces skip the echo; their ids are browsed
    /// from the trace store instead.
    pub trace_id: Option<u128>,
}

impl Answer {
    /// The payload's statistic kind.
    pub fn kind(&self) -> StatKind {
        match &self.value {
            AnswerValue::F0 { .. } => StatKind::F0,
            AnswerValue::Frequency { .. } => StatKind::Frequency,
            AnswerValue::HeavyHitters { .. } => StatKind::HeavyHitters,
            AnswerValue::L1Sample { .. } => StatKind::L1Sample,
            AnswerValue::Fp { .. } => StatKind::Fp,
        }
    }

    /// The scalar estimate, for the scalar statistics (`F0`, frequency,
    /// `F_p`).
    pub fn estimate(&self) -> Option<f64> {
        match &self.value {
            AnswerValue::F0 { estimate }
            | AnswerValue::Frequency { estimate, .. }
            | AnswerValue::Fp { estimate } => Some(*estimate),
            _ => None,
        }
    }

    /// The heavy-hitter list, if this is a heavy-hitter answer.
    pub fn hitters(&self) -> Option<&[HeavyHitter]> {
        match &self.value {
            AnswerValue::HeavyHitters { hitters } => Some(hitters),
            _ => None,
        }
    }

    /// The sampled patterns, if this is an `ℓ_1`-sample answer.
    pub fn patterns(&self) -> Option<&[SampledPattern]> {
        match &self.value {
            AnswerValue::L1Sample { patterns } => Some(patterns),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(value: AnswerValue) -> Answer {
        let cols = ColumnSet::from_indices(8, &[0, 1]).expect("valid");
        Answer {
            value,
            guarantee: Guarantee::exact(),
            provenance: Provenance {
                requested: cols,
                answered_on: cols,
                sym_diff: 0,
            },
            epoch: 1,
            cost: CostInfo {
                cached: false,
                group_size: 1,
            },
            window: None,
            trace_id: None,
        }
    }

    #[test]
    fn accessors_match_payload() {
        let a = answer(AnswerValue::F0 { estimate: 4.0 });
        assert_eq!(a.kind(), StatKind::F0);
        assert_eq!(a.estimate(), Some(4.0));
        assert!(a.hitters().is_none() && a.patterns().is_none());

        let a = answer(AnswerValue::HeavyHitters { hitters: vec![] });
        assert_eq!(a.kind(), StatKind::HeavyHitters);
        assert_eq!(a.estimate(), None);
        assert_eq!(a.hitters(), Some(&[][..]));

        let a = answer(AnswerValue::L1Sample { patterns: vec![] });
        assert_eq!(a.kind(), StatKind::L1Sample);
        assert_eq!(a.patterns(), Some(&[][..]));

        let a = answer(AnswerValue::Fp { estimate: 9.5 });
        assert_eq!(a.kind(), StatKind::Fp);
        assert_eq!(a.estimate(), Some(9.5));
        assert!(a.hitters().is_none() && a.patterns().is_none());
    }

    #[test]
    fn source_names_stable() {
        assert_eq!(GuaranteeSource::Exact.name(), "exact");
        assert_eq!(GuaranteeSource::Sample.name(), "sample");
        assert_eq!(GuaranteeSource::AlphaNet.name(), "alpha_net");
    }
}
