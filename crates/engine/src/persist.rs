//! Durable snapshots: cross-process union and resume validation.
//!
//! A [`Snapshot`] file (an epoch, then one [`ShardSummary`]) is a
//! complete, self-describing stand-in for the stream it summarized (the
//! whole point of the paper's summaries — Theorem 5.1's sample and the
//! Section 6 α-net survive the data). Because every summary in the stack
//! is mergeable — KMV and CountMin exactly under shared per-mask seeds,
//! the row sample by the seeded hypergeometric union — snapshot files
//! built by *independent processes over disjoint slices of one stream*
//! can be unioned after the fact:
//!
//! ```text
//! process A: ingest slice 1 ──▶ checkpoint ──▶ a.pfes ─┐
//! process B: ingest slice 2 ──▶ checkpoint ──▶ b.pfes ─┼─▶ merge_snapshot_files
//! process C: ingest slice 3 ──▶ checkpoint ──▶ c.pfes ─┘        │
//!                                                               ▼
//!                                            one snapshot ≡ single-process build
//! ```
//!
//! The sketch-backed statistics (`F_0`, frequency-net bounds) of the
//! merged snapshot are *bit-identical* to a single-process build over the
//! concatenated slices; the sample-backed statistics are an unbiased
//! uniform sample of the union (and exactly the concatenation while the
//! reservoirs stay under-full).

use std::path::Path;

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::shard::ShardSummary;
use crate::snapshot::Snapshot;

/// Load several snapshot files and union them into one snapshot — the
/// cross-machine compaction path. Inputs must have been built with the
/// same engine parameters and base seed (checked; mismatches are typed
/// errors, not panics). The merged epoch is the maximum input epoch.
///
/// # Errors
/// [`EngineError::Persist`] for unreadable/corrupt files,
/// [`EngineError::Incompatible`] for parameter mismatches,
/// [`EngineError::BadConfig`] for an empty path list.
pub fn merge_snapshot_files<P: AsRef<Path>>(paths: &[P]) -> Result<Snapshot, EngineError> {
    let (first, rest) = paths
        .split_first()
        .ok_or_else(|| EngineError::BadConfig("merge_snapshot_files needs >= 1 file".into()))?;
    let mut acc = Snapshot::load_from(first)?;
    for path in rest {
        let next = Snapshot::load_from(path)?;
        acc.merge(&next)?;
    }
    Ok(acc)
}

/// Verify that a decoded snapshot was built with exactly the parameters in
/// `cfg`, so a resumed pipeline's shards merge with it seamlessly (same
/// α-net, same per-mask sketch seeds, same reservoir capacity). Returns
/// the snapshot's `(d, q)` on success.
///
/// The rules are not re-stated here: an empty probe shard is constructed
/// from `cfg` — the same construction the resumed pipeline's workers will
/// perform — and checked by reference with
/// [`ShardSummary::check_mergeable`], so resume validation, window resume
/// and file-merge validation share one source of truth.
///
/// # Errors
/// [`EngineError::Incompatible`] naming the first mismatch.
pub(crate) fn validate_resume(
    snap: &Snapshot,
    cfg: &EngineConfig,
) -> Result<(u32, u32), EngineError> {
    cfg.validate()?;
    let (d, q) = (snap.sample().dimension(), snap.sample().alphabet());
    snap.summary()
        .check_mergeable(&ShardSummary::new(d, q, 0, cfg)?)?;
    Ok((d, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_path_list_is_typed_error() {
        let none: &[&str] = &[];
        assert!(matches!(
            merge_snapshot_files(none),
            Err(EngineError::BadConfig(_))
        ));
    }

    #[test]
    fn missing_file_is_persist_error() {
        assert!(matches!(
            merge_snapshot_files(&["/nonexistent/engine-snapshot.pfes"]),
            Err(EngineError::Persist(_))
        ));
    }
}
