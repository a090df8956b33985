//! Algorithm 1 / Theorem 6.5, declared once: one β-approximate sketch per
//! α-net member, every row projected onto every member, every query
//! answered from the member it rounds to.
//!
//! [`AlphaNetSummary`] is the α-net summary, for every statistic: it owns
//! the materialization cap, the per-width codec validation, the members
//! themselves (ascending by mask — the persisted order), the row →
//! [`PatternKey`] projection for packed and dense rows, the typed
//! compatibility check and the per-member merge that relies on it,
//! rounding with the BoundaryOnly fallback, space accounting and the
//! persisted sketch map. What depends on the statistic is a plug-in: a
//! [`Statistic`] — the member sketch type, whether that sketch may take
//! a chunk's repeated key once with its multiplicity, what it does with a
//! projected key — whose sketch is [`Mergeable`] (whether two members may
//! merge, and how); beside it, each statistic says how an answer is read
//! off a member and what its persisted header holds. The public
//! summaries ([`AlphaNetF0`](crate::alpha_net::AlphaNetF0),
//! [`AlphaNetFrequency`](crate::alpha_net_freq::AlphaNetFrequency),
//! [`FpNet`](crate::fp::FpNet)) are aliases of this one type.
//!
//! # The update loop: a de-duplicated, mask-major chunk sweep
//!
//! Rows arrive as chunks ([`push_packed_chunk`](AlphaNetSummary::push_packed_chunk),
//! [`push_dense_chunk`](AlphaNetSummary::push_dense_chunk); a single row is a
//! one-row chunk, a whole dataset is one chunk). Projected frequency
//! estimation is interesting when rows repeat, so the sweep pays per
//! *distinct* row, not per row:
//!
//! 0. **de-duplicate, once per chunk** — the chunk is sorted (packed rows
//!    as `u64`, dense rows as `&[u16]` slices) into its distinct rows and a
//!    `u32` weight each, how often the row occurs; every member below
//!    reads those;
//!
//! then one pass over the distinct rows *per member*, so one sketch is hot
//! at a time:
//!
//! 1. **project** — packed rows through the member's mask compiled to its
//!    runs of adjacent columns ([`pfe_row::bit_runs`], one shift-and-mask
//!    per run), dense rows through its [`PatternCodec`];
//! 2. **histogram or not** — the net is made of subsets of size `≤ αd` or
//!    `≥ (1−α)d`, so half of the members project onto only `Q^{≤αd}`
//!    patterns and distinct rows still collide on them. When a member's
//!    domain `Q^w` is no larger than the number of distinct rows, the
//!    weights are summed into a `Q^w`-slot histogram and each *present*
//!    key is fed once with its total; a wider member is fed each distinct
//!    row's key with that row's weight;
//! 3. **feed** — [`Statistic::feed`] gets `(sketch, key, multiplicity)`,
//!    statically dispatched: the sweep is monomorphized per statistic.
//!
//! Which sketches may take a multiplicity is the statistic's call
//! ([`Statistic::counted`]): set sketches (KMV) ignore it, exact integer
//! sums (CountMin, AMS) take it as the update weight and end in the same
//! bits as `n` unit updates in any order — a summary is charged for its
//! bits, so any evaluation order that ends in the same bits is the same
//! summary. Float sums (`StableFp`) round differently under `n·x` than
//! under `n` additions of `x`, so a net of those skips step 0 — as does a
//! chunk too long for `u32` weights — and is fed the raw chunk: every row,
//! in row order, with multiplicity 1. Either way a summary's bytes do not
//! depend on how its rows were cut into chunks, or on how much they
//! repeat.

use std::fmt::Debug;

use pfe_persist::{Decoder, Encoder, Persist, PersistError};
use pfe_row::{BitRun, ColumnSet, Dataset, PatternCodec, PatternKey};
use pfe_sketch::traits::SpaceUsage;

use crate::alpha_net::{AlphaNet, NetMode, RoundedQuery};
use crate::problem::QueryError;

/// What Algorithm 1 leaves to the statistic: which β-approximate sketch a
/// net member keeps and how that sketch consumes a projected key (how two
/// such sketches combine is [`Mergeable`]). Everything else is
/// [`AlphaNetSummary`].
pub trait Statistic {
    /// The sketch kept per net member.
    type Sketch;

    /// Whether `sketch` may be handed a key the chunk holds `n` times
    /// once, with multiplicity `n`, in any order — true of sets and exact
    /// integer sums, the default. A rounding-sensitive sketch (a float
    /// sum) gets every row's key, in row order, with multiplicity 1.
    fn counted(&self, _sketch: &Self::Sketch) -> bool {
        true
    }

    /// Observe a projected key the chunk holds `multiplicity` times.
    fn feed(&self, sketch: &mut Self::Sketch, key: PatternKey, multiplicity: u32);

    /// Whether the parameters the statistic keeps beside the member map
    /// agree.
    ///
    /// # Errors
    /// Names the first parameter that differs.
    fn check_mergeable(&self, _other: &Self) -> Result<(), String> {
        Ok(())
    }
}

/// A member sketch that folds in the sketch of a disjoint stream segment,
/// with the preconditions its own `merge` asserts by panic checkable as
/// a value.
pub trait Mergeable {
    /// Whether `other` was built with the parameters and seed of `self`.
    ///
    /// # Errors
    /// Names the first parameter that differs.
    fn check_mergeable(&self, other: &Self) -> Result<(), String>;

    /// Fold `other`, which passed
    /// [`check_mergeable`](Self::check_mergeable), into `self`.
    fn merge_from(&mut self, other: &Self);
}

/// `Err` naming `what` unless both sides hold the same value of it.
///
/// # Errors
/// `"<what> differs (<mine> vs <theirs>)"`.
pub fn same<T: PartialEq + Debug>(what: &str, mine: T, theirs: T) -> Result<(), String> {
    if mine == theirs {
        return Ok(());
    }
    Err(format!("{what} differs ({mine:?} vs {theirs:?})"))
}

/// One materialized net subset: its columns, the codec of its projection
/// width, and the statistic's sketch over the projected stream.
#[derive(Clone)]
struct Member<T> {
    cols: ColumnSet,
    codec: PatternCodec,
    /// Where `cols`, compiled for packed rows, sits in the net's run table.
    runs: std::ops::Range<u32>,
    /// The projected domain `Q^w`, when it fits a `usize`.
    domain: Option<usize>,
    sketch: T,
}

impl<T> Member<T> {
    /// Appends the member's compiled mask to `run_table`.
    ///
    /// # Panics
    /// Panics unless [`AlphaNet::check_materializable`] passed for
    /// `(mode, q)` and `mask` is a member of that net.
    fn new(net: &AlphaNet, q: u32, mask: u64, sketch: T, run_table: &mut Vec<BitRun>) -> Self {
        let cols = ColumnSet::from_mask(net.dimension(), mask).expect("net member is a valid mask");
        let codec = PatternCodec::new(q, cols.len()).expect("member widths validated");
        let start = run_table.len() as u32;
        run_table.extend(pfe_row::bit_runs(mask));
        Self {
            cols,
            codec,
            runs: start..run_table.len() as u32,
            domain: usize::try_from(codec.domain_size()).ok(),
            sketch,
        }
    }
}

/// An empty run table with room for every member's compiled mask. Sized
/// once, up front: a table regrown while the sketches are being allocated
/// leaves a freed block between their buffers at every doubling (0.5 MB
/// more resident after resuming a 598-member snapshot, measured).
fn run_table_for(net: &AlphaNet, mode: NetMode) -> Vec<BitRun> {
    let runs = net
        .members(mode)
        .map(|mask| pfe_row::bit_runs(mask).count())
        .sum();
    Vec::with_capacity(runs)
}

/// One member's pass over a chunk whose entries project onto it as `keys`.
/// `weights = None` is the raw chunk: every key is fed as it comes, in row
/// order, with multiplicity 1. `Some` is the de-duplicated chunk, one
/// weight per key: when the member's `domain = Some(Q^w)` is no larger
/// than the chunk's distinct rows the weights are summed into `hist` and
/// each present key is fed once, in ascending key order; otherwise every
/// key is fed with its row's weight.
fn absorb<P: Statistic>(
    stat: &P,
    sketch: &mut P::Sketch,
    keys: impl ExactSizeIterator<Item = PatternKey>,
    weights: Option<&[u32]>,
    domain: Option<usize>,
    hist: &mut Vec<u32>,
) {
    let Some(weights) = weights else {
        return keys.for_each(|key| stat.feed(sketch, key, 1));
    };
    let weighted = keys.zip(weights.iter().copied());
    match domain.filter(|&n| n <= weights.len()) {
        Some(n) => {
            hist.clear();
            hist.resize(n, 0);
            for (key, weight) in weighted {
                hist[key.raw() as usize] += weight;
            }
            for (key, &count) in hist.iter().enumerate() {
                if count != 0 {
                    stat.feed(sketch, PatternKey::from(key as u64), count);
                }
            }
        }
        None => weighted.for_each(|(key, weight)| stat.feed(sketch, key, weight)),
    }
}

/// The α-net summary of Algorithm 1 for the statistic `P`: one
/// `P::Sketch` per materialized net member.
#[derive(Clone)]
pub struct AlphaNetSummary<P: Statistic> {
    /// The statistic's own parameters.
    pub(crate) stat: P,
    net: AlphaNet,
    mode: NetMode,
    q: u32,
    /// Ascending by mask.
    members: Vec<Member<P::Sketch>>,
    /// Every member's mask compiled for packed rows ([`Member::runs`]
    /// indexes it). One table, not an allocation per member: a small
    /// block of each member's own, sitting between two sketch buffers,
    /// keeps the holes those buffers leave when they grow from coalescing
    /// (+0.6 MB resident per 598-member KMV net, measured).
    run_table: Vec<BitRun>,
}

impl<P: Statistic> AlphaNetSummary<P> {
    /// One member per subset of `net` under `mode`, ascending by mask,
    /// holding what `sketch_for(mask)` returns.
    ///
    /// # Panics
    /// As [`Member::new`].
    fn materialize<E>(
        stat: P,
        (net, mode, q): (AlphaNet, NetMode, u32),
        mut sketch_for: impl FnMut(u64) -> Result<P::Sketch, E>,
    ) -> Result<Self, E> {
        let mut masks: Vec<u64> = net.members(mode).collect();
        masks.sort_unstable();
        let mut run_table = run_table_for(&net, mode);
        let mut members = Vec::with_capacity(masks.len());
        for mask in masks {
            let sketch = sketch_for(mask)?;
            members.push(Member::new(&net, q, mask, sketch, &mut run_table));
        }
        Ok(Self {
            stat,
            net,
            mode,
            q,
            members,
            run_table,
        })
    }

    /// Materialize `factory(mask)` for every member of `net` under `mode`.
    ///
    /// # Errors
    /// As [`AlphaNet::check_materializable`].
    pub(crate) fn new(
        stat: P,
        net: AlphaNet,
        mode: NetMode,
        max_subsets: u128,
        q: u32,
        mut factory: impl FnMut(u64) -> P::Sketch,
    ) -> Result<Self, QueryError> {
        net.check_materializable(mode, max_subsets, q)?;
        Self::materialize(stat, (net, mode, q), |mask| Ok(factory(mask)))
    }

    /// Observe a whole dataset as one chunk: what `build` does to a fresh
    /// summary over the alphabet of `data`.
    ///
    /// # Errors
    /// A dimension mismatch between `data` and the net.
    pub(crate) fn fed(mut self, data: &Dataset) -> Result<Self, QueryError> {
        if data.dimension() != self.net.dimension() {
            return Err(QueryError::DimensionMismatch {
                data: data.dimension(),
                query: self.net.dimension(),
            });
        }
        match data {
            Dataset::Binary(rows) => self.push_packed_chunk(rows.rows()),
            Dataset::Qary(rows) => self.push_dense_chunk(rows.flat()),
        }
        Ok(self)
    }

    /// The chunk as the sweep reads it: sorted into its distinct rows and
    /// how often each occurs, when every member sketch takes multiplicities
    /// and the chunk is short enough for `u32` counts; else the rows as
    /// they came and no weights. Sorted once per chunk, not per member.
    fn distinct<R: Ord>(&self, mut rows: Vec<R>) -> (Vec<R>, Option<Vec<u32>>) {
        let counted = self.sketches().all(|sketch| self.stat.counted(sketch));
        if !counted || rows.is_empty() || u32::try_from(rows.len()).is_err() {
            return (rows, None);
        }
        rows.sort_unstable();
        let mut weights = vec![1];
        rows.dedup_by(|row, kept| {
            let repeat = row == kept;
            if repeat {
                *weights.last_mut().expect("starts with one") += 1;
            } else {
                weights.push(1);
            }
            repeat
        });
        (rows, Some(weights))
    }

    /// Observe one packed binary row — a one-row
    /// [`push_packed_chunk`](Self::push_packed_chunk).
    ///
    /// # Panics
    /// Panics if the summary is not binary or the row has bits at or
    /// above `d`.
    pub fn push_packed(&mut self, row: u64) {
        self.push_packed_chunk(&[row]);
    }

    /// Observe one dense row over alphabet `Q` — a one-row
    /// [`push_dense_chunk`](Self::push_dense_chunk).
    ///
    /// # Panics
    /// Panics on wrong row length or out-of-alphabet symbols.
    pub fn push_dense(&mut self, row: &[u16]) {
        assert_eq!(row.len(), self.net.dimension() as usize, "row length != d");
        self.push_dense_chunk(row);
    }

    /// Observe a chunk of packed binary rows: one mask-major sweep over
    /// every member (see the [module docs](self)). Leaves the sketch
    /// contents a build over the same rows would, however they are cut
    /// into chunks.
    ///
    /// # Panics
    /// Panics if the summary is not binary or a row has bits at or above
    /// `d`.
    pub fn push_packed_chunk(&mut self, rows: &[u64]) {
        assert_eq!(self.q, 2, "push_packed requires a binary summary");
        let d = self.net.dimension();
        assert!(
            rows.iter().all(|&row| row >> d == 0),
            "row has bits above d={d}"
        );
        let (rows, weights) = self.distinct(rows.to_vec());
        let (weights, hist) = (weights.as_deref(), &mut Vec::new());
        for m in &mut self.members {
            let runs = &self.run_table[m.runs.start as usize..m.runs.end as usize];
            let keys = rows
                .iter()
                .map(|&row| PatternKey::from(pfe_row::extract_runs(runs, row)));
            absorb(&self.stat, &mut m.sketch, keys, weights, m.domain, hist);
        }
    }

    /// Observe a flat row-major chunk of dense rows (`d` symbols per
    /// row): one mask-major sweep. A binary summary packs the chunk once
    /// and takes the [`push_packed_chunk`](Self::push_packed_chunk)
    /// sweep, so both surfaces feed identical keys.
    ///
    /// # Panics
    /// Panics unless `flat` is a whole number of rows of in-alphabet
    /// symbols.
    pub fn push_dense_chunk(&mut self, flat: &[u16]) {
        let d = self.net.dimension();
        assert!(flat.len().is_multiple_of(d as usize), "row length != d");
        if let Some(s) = flat.iter().find(|&&s| s as u32 >= self.q) {
            panic!("symbol {s} outside alphabet");
        }
        if self.q == 2 {
            return self.push_packed_chunk(&pfe_row::pack_binary_rows(flat, d));
        }
        let (rows, weights) = self.distinct(flat.chunks_exact(d as usize).collect());
        let (weights, hist) = (weights.as_deref(), &mut Vec::new());
        for m in &mut self.members {
            let keys = rows.iter().map(|row| m.codec.encode_row(row, &m.cols));
            absorb(&self.stat, &mut m.sketch, keys, weights, m.domain, hist);
        }
    }

    /// The net definition.
    pub fn net(&self) -> &AlphaNet {
        &self.net
    }

    /// The materialization mode.
    pub fn mode(&self) -> NetMode {
        self.mode
    }

    /// The alphabet size `Q`.
    pub fn alphabet(&self) -> u32 {
        self.q
    }

    /// `(net, mode, Q)`: what two summaries of one stream share whatever
    /// their statistics.
    pub fn shape(&self) -> (AlphaNet, NetMode, u32) {
        (self.net, self.mode, self.q)
    }

    /// Number of sketches kept.
    pub fn num_sketches(&self) -> usize {
        self.members.len()
    }

    /// Every member's sketch, ascending by mask.
    pub(crate) fn sketches(&self) -> impl Iterator<Item = &P::Sketch> {
        self.members.iter().map(|m| &m.sketch)
    }

    /// One member's sketch, for reading the shape all members share
    /// (every net materializes at least one subset).
    pub(crate) fn first(&self) -> &P::Sketch {
        &self.members[0].sketch
    }

    /// The sketch materialized for `mask`, if it is a member.
    pub fn sketch(&self, mask: u64) -> Option<&P::Sketch> {
        self.members
            .binary_search_by_key(&mask, |m| m.cols.mask())
            .ok()
            .map(|i| &self.members[i].sketch)
    }

    /// Nearest-neighbour rounding as the summary will answer it: under
    /// `BoundaryOnly` an in-net query of non-boundary size is not
    /// materialized and is re-rounded to the boundary weight on its side.
    ///
    /// # Errors
    /// Dimension mismatch.
    pub fn effective_rounding(&self, cols: &ColumnSet) -> Result<RoundedQuery, QueryError> {
        let r = self.net.round(cols)?;
        if self.mode == NetMode::Full || self.sketch(r.target.mask()).is_some() {
            return Ok(r);
        }
        let side = if cols.len() <= self.net.small_size() {
            self.net.small_size()
        } else {
            self.net.large_size()
        };
        Ok(self.net.resized(cols, side))
    }

    /// The sketch a rounded query is answered from (Algorithm 1 line 5).
    ///
    /// # Panics
    /// Panics if `r` did not come from this net's rounding.
    pub(crate) fn answering(&self, r: &RoundedQuery) -> &P::Sketch {
        self.sketch(r.target.mask())
            .expect("rounded target is materialized")
    }

    /// Persist `(net, mode, Q)` — the start of every header that keeps a
    /// mode; [`decode_shape`] reads it back.
    pub(crate) fn encode_shape(&self, enc: &mut Encoder) {
        self.net.encode(enc);
        self.mode.encode(enc);
        enc.put_u32(self.q);
    }

    /// Persist the sketch map in ascending mask order.
    pub(crate) fn encode_members(
        &self,
        enc: &mut Encoder,
        encode: impl Fn(&P::Sketch, &mut Encoder),
    ) {
        enc.put_len(self.members.len());
        for m in &self.members {
            enc.put_u64(m.cols.mask());
            encode(&m.sketch, enc);
        }
    }

    /// Decode a sketch map and verify it holds *exactly* the membership of
    /// `net` under `mode`, in ascending order, over an alphabet every
    /// member width has a codec for — anything else would panic later, at
    /// push or query time, so it is rejected here as malformed input.
    pub(crate) fn decode_members(
        dec: &mut Decoder<'_>,
        stat: P,
        (net, mode, q): (AlphaNet, NetMode, u32),
        decode: impl Fn(&mut Decoder<'_>) -> Result<P::Sketch, PersistError>,
    ) -> Result<Self, PersistError> {
        net.check_materializable(mode, u128::MAX, q)
            .map_err(|e| PersistError::Malformed(format!("alphabet q={q}: {e}")))?;
        // Each entry is at least a mask (8 bytes) plus one sketch byte.
        let n = dec.take_len(9)?;
        let expected = net.member_count(mode);
        if n as u128 != expected {
            return Err(PersistError::Malformed(format!(
                "sketch map holds {n} subset(s), net materializes {expected}"
            )));
        }
        Self::materialize(stat, (net, mode, q), |want| {
            let mask = dec.take_u64()?;
            if mask != want {
                return Err(PersistError::Malformed(format!(
                    "sketch map holds subset {mask:#b} where net member {want:#b} belongs"
                )));
            }
            decode(dec)
        })
    }
}

/// Read back what [`AlphaNetSummary::encode_shape`] wrote.
pub(crate) fn decode_shape(
    dec: &mut Decoder<'_>,
) -> Result<(AlphaNet, NetMode, u32), PersistError> {
    Ok((
        AlphaNet::decode(dec)?,
        NetMode::decode(dec)?,
        dec.take_u32()?,
    ))
}

/// A statistic with no parameters of its own is built from the sketch
/// factory alone.
impl<P: Statistic + Default> AlphaNetSummary<P> {
    /// Create an empty streaming summary over alphabet `q`:
    /// `factory(mask)` creates the β-approximate sketch for one subset
    /// (typically seeding it from the mask), `max_subsets` is a safety
    /// cap against runaway materialization. Every net codec is validated
    /// up front, so pushes are panic-free on in-alphabet rows.
    ///
    /// # Errors
    /// Parameter/codec errors; net size above `max_subsets`.
    pub fn new_streaming_qary(
        net: AlphaNet,
        mode: NetMode,
        max_subsets: u128,
        q: u32,
        factory: impl FnMut(u64) -> P::Sketch,
    ) -> Result<Self, QueryError> {
        Self::new(P::default(), net, mode, max_subsets, q, factory)
    }

    /// Build over a dataset: the summary streaming its rows in any
    /// chunking would leave (for order-insensitive sketches, in any
    /// order).
    ///
    /// # Errors
    /// As [`new_streaming_qary`](Self::new_streaming_qary), plus a
    /// dimension mismatch between `data` and `net`.
    pub fn build(
        data: &Dataset,
        net: AlphaNet,
        mode: NetMode,
        max_subsets: u128,
        factory: impl FnMut(u64) -> P::Sketch,
    ) -> Result<Self, QueryError> {
        Self::new_streaming_qary(net, mode, max_subsets, data.alphabet(), factory)?.fed(data)
    }
}

impl<P: Statistic> AlphaNetSummary<P>
where
    P::Sketch: Mergeable,
{
    /// Whether `other` summarizes a disjoint segment of the *same*
    /// stream configuration: equal net, mode, alphabet, statistic
    /// parameters, and per-member sketch parameters and seeds (what one
    /// factory gives both sides).
    ///
    /// # Errors
    /// Names the first parameter that differs.
    pub fn check_mergeable(&self, other: &Self) -> Result<(), String> {
        same("alpha-net (d, alpha)", self.net, other.net)?;
        same("net materialization mode", self.mode, other.mode)?;
        same("alphabet Q", self.q, other.q)?;
        // Equal `(net, mode)` means equal member lists.
        let mut pairs = self.sketches().zip(other.sketches());
        pairs.try_for_each(|(mine, theirs)| mine.check_mergeable(theirs))?;
        self.stat.check_mergeable(&other.stat)
    }

    /// Fold in a summary of a disjoint segment of the same stream, member
    /// by member. Exact for union-mergeable sets (KMV) and integer sums
    /// (CountMin, AMS) under any grouping; float sums (`StableFp`) merge
    /// exactly up to f64 addition order.
    ///
    /// # Panics
    /// Panics unless [`check_mergeable`](Self::check_mergeable) passes.
    pub fn merge(&mut self, other: &Self) {
        if let Err(what) = self.check_mergeable(other) {
            panic!("alpha-net merge: {what}");
        }
        for (mine, theirs) in self.members.iter_mut().zip(&other.members) {
            mine.sketch.merge_from(&theirs.sketch);
        }
    }
}

impl<P: Statistic> SpaceUsage for AlphaNetSummary<P>
where
    P::Sketch: SpaceUsage,
{
    fn space_bytes(&self) -> usize {
        let overhead = std::mem::size_of::<Member<P::Sketch>>() - std::mem::size_of::<P::Sketch>();
        let sketches: usize = self.sketches().map(|s| s.space_bytes() + overhead).sum();
        std::mem::size_of::<Self>() + sketches + std::mem::size_of_val(&*self.run_table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alpha_net::AlphaNetF0;
    use crate::alpha_net_freq::AlphaNetFrequency;
    use crate::fp::{FpConfig, FpNet};
    use pfe_hash::rng::{Xoshiro256pp, ZipfTable};
    use pfe_sketch::kmv::Kmv;
    use pfe_stream::gen::{indexed_rows, uniform_binary, uniform_qary};

    const CAP: u128 = 1 << 20;

    fn bytes<T: Persist>(summary: &T) -> Vec<u8> {
        let mut enc = Encoder::new();
        summary.encode(&mut enc);
        enc.into_bytes()
    }

    /// `rows` dealt round-robin over three shards, folded left to right.
    fn three_way<P: Statistic>(
        empty: impl Fn() -> AlphaNetSummary<P>,
        rows: &[Vec<u16>],
        packed: bool,
    ) -> AlphaNetSummary<P>
    where
        P::Sketch: Mergeable,
    {
        let mut shards: Vec<_> = (0..3).map(|_| empty()).collect();
        for (i, row) in rows.iter().enumerate() {
            if packed {
                let bits = row.iter().rev().fold(0u64, |acc, &b| acc << 1 | b as u64);
                shards[i % 3].push_packed(bits);
            } else {
                shards[i % 3].push_dense(row);
            }
        }
        let mut merged = shards.remove(0);
        for shard in &shards {
            assert_eq!(merged.check_mergeable(shard), Ok(()));
            merged.merge(shard);
        }
        merged
    }

    /// The chunk lengths that exercise the sweep's path choice: one row,
    /// an odd length, the whole stream, and one row either side of a
    /// boundary member's domain `Q^w` (a chunk with fewer distinct rows
    /// than that feeds the member key by key, any other through the
    /// histogram).
    fn chunk_lengths(net: &AlphaNet, q: u32, n_rows: usize) -> Vec<usize> {
        let mut lengths = vec![1, 7, n_rows];
        for w in [net.small_size(), net.large_size()] {
            if let Some(domain) = (q as usize).checked_pow(w).filter(|&n| n < n_rows) {
                lengths.extend([domain - 1, domain, domain + 1]);
            }
        }
        lengths.retain(|&len| len > 0);
        lengths
    }

    /// `merge_is_exact`: whether a merge of shards equals one build to
    /// the byte. Float sums (stable projections) only promise that under
    /// an identical merge structure.
    fn check<P: Statistic>(
        name: &str,
        build: impl Fn(&Dataset, AlphaNet) -> AlphaNetSummary<P>,
        empty: impl Fn(AlphaNet, u32) -> AlphaNetSummary<P>,
        merge_is_exact: bool,
    ) where
        AlphaNetSummary<P>: Persist,
        P::Sketch: Mergeable,
    {
        let mut datasets = vec![
            (uniform_binary(10, 900, 7), AlphaNet::new(10, 0.25)),
            (uniform_qary(4, 7, 400, 23), AlphaNet::new(7, 0.3)),
            // Full-width member at d = 63: `1 << w` and `Q^w` must neither
            // overflow nor be allocated for.
            (uniform_binary(63, 3, 11), AlphaNet::new(63, 0.48)),
        ];
        // What the de-duplicated sweep must not show in the bytes: a chunk
        // that is one row repeated, one with no repeat, one in between.
        let zipf = zipf_indices(256, 3);
        for (q, d, alpha) in [(2, 10, 0.25), (4, 7, 0.3)] {
            let inputs: [&dyn Fn(usize) -> u64; 3] = [&|_| 77, &|i| i as u64, &|i| zipf[i]];
            for index in inputs {
                datasets.push((indexed_rows(q, d, 256, index), AlphaNet::new(d, alpha)));
            }
        }
        for (data, net) in datasets {
            let (net, q) = (net.expect("valid"), data.alphabet());
            let d = data.dimension() as usize;
            let rows: Vec<Vec<u16>> = (0..data.num_rows()).map(|i| data.row_dense(i)).collect();
            let built = bytes(&build(&data, net));

            // The sweep is invisible in the bytes: however the stream is
            // cut into chunks, the summary is the one-row-chunk summary.
            let flat = rows.concat();
            for len in chunk_lengths(&net, q, rows.len()) {
                let mut chunked = empty(net, q);
                for chunk in flat.chunks(len * d) {
                    chunked.push_dense_chunk(chunk);
                }
                assert_eq!(
                    bytes(&chunked),
                    built,
                    "{name} q={q} d={d}: dense chunks of {len} != build"
                );
                if let Dataset::Binary(m) = &data {
                    let mut chunked = empty(net, q);
                    for chunk in m.rows().chunks(len) {
                        chunked.push_packed_chunk(chunk);
                    }
                    assert_eq!(
                        bytes(&chunked),
                        built,
                        "{name} d={d}: packed chunks of {len} != build"
                    );
                }
            }

            let mut streamed = empty(net, q);
            rows.iter().for_each(|row| streamed.push_dense(row));
            assert_eq!(
                bytes(&streamed),
                built,
                "{name} q={q}: dense pushes != build"
            );

            let sharded = bytes(&three_way(|| empty(net, q), &rows, false));
            if merge_is_exact {
                assert_eq!(sharded, built, "{name} q={q}: 3-way merge != build");
            }
            if let Dataset::Binary(m) = &data {
                let mut packed = empty(net, q);
                m.rows().iter().for_each(|&row| packed.push_packed(row));
                assert_eq!(bytes(&packed), built, "{name}: packed pushes != build");
                assert_eq!(
                    bytes(&three_way(|| empty(net, q), &rows, true)),
                    sharded,
                    "{name}: packed and dense shards merge differently"
                );
            }
        }
    }

    /// `n` Zipf draws over `n` ranks, about a fifth of them distinct — the
    /// share a shard batch of the benchmark's rows has.
    fn zipf_indices(n: usize, seed: u64) -> Vec<u64> {
        let (table, mut rng) = (ZipfTable::new(n, 1.3), Xoshiro256pp::seed_from_u64(seed));
        let draws: Vec<u64> = (0..n).map(|_| table.sample(&mut rng) as u64).collect();
        let distinct = draws
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        assert!(
            (n / 10..n * 3 / 10).contains(&distinct),
            "{distinct} of {n} distinct"
        );
        draws
    }

    fn kmv(m: u64) -> Kmv {
        Kmv::new(64, m ^ 0xbeef)
    }

    fn fp_cfg() -> FpConfig {
        FpConfig {
            orders: vec![2.0, 1.5],
            stable_t: 8,
            ams_groups: 5,
            ams_per_group: 8,
        }
    }

    #[test]
    fn every_streaming_summary_build_equals_pushes_equals_sharded_merge() {
        check(
            "F0/KMV",
            |d, n| AlphaNetF0::build(d, n, NetMode::Full, CAP, kmv).expect("build"),
            |n, q| AlphaNetF0::new_streaming_qary(n, NetMode::Full, CAP, q, kmv).expect("new"),
            true,
        );
        for (name, p, seed, merge_is_exact) in [
            ("Fp/AMS", 2.0, 0xf2f2, true),
            ("Fp/stable", 1.5, 0x51ab, false),
        ] {
            let cfg = fp_cfg();
            check(
                name,
                |d, n| FpNet::build(d, n, NetMode::Full, CAP, p, &cfg, seed).expect("build"),
                |n, q| {
                    FpNet::new_streaming_qary(n, NetMode::Full, CAP, q, p, &cfg, seed).expect("new")
                },
                merge_is_exact,
            );
        }
        check(
            "Frequency/CountMin",
            |d, n| AlphaNetFrequency::build(d, n, 4, 128, CAP, 9).expect("build"),
            |n, q| AlphaNetFrequency::new_streaming(n, q, 4, 128, CAP, 9).expect("new"),
            true,
        );
    }

    /// Pairs of nets that differ in exactly the named parameter (equal
    /// parameters — `Ok`, and merged bytes equal to the single build — are
    /// the test above).
    #[test]
    fn check_mergeable_names_the_differing_parameter_and_merge_refuses() {
        fn refuses<P: Statistic + Clone>(
            a: &AlphaNetSummary<P>,
            b: &AlphaNetSummary<P>,
            field: &str,
        ) where
            P::Sketch: Mergeable + Clone,
        {
            let err = a.check_mergeable(b).expect_err(field);
            assert!(err.contains(field), "expected '{field}' in '{err}'");
            let mut a = a.clone();
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.merge(b)))
                .expect_err("merge must refuse");
            let msg = panic.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains(field), "expected '{field}' in '{msg}'");
        }
        let net = |alpha| AlphaNet::new(8, alpha).expect("valid");
        let f0 = |alpha, mode, q, k, seed| {
            AlphaNetF0::new_streaming_qary(net(alpha), mode, CAP, q, |m| Kmv::new(k, m ^ seed))
                .expect("new")
        };
        let base = f0(0.25, NetMode::Full, 2, 64, 1);
        for (other, field) in [
            (f0(0.3, NetMode::Full, 2, 64, 1), "alpha-net (d, alpha)"),
            (f0(0.25, NetMode::BoundaryOnly, 2, 64, 1), "mode"),
            (f0(0.25, NetMode::Full, 3, 64, 1), "alphabet Q"),
            (f0(0.25, NetMode::Full, 2, 32, 1), "KMV capacity k"),
            (f0(0.25, NetMode::Full, 2, 64, 2), "KMV seed"),
        ] {
            refuses(&base, &other, field);
        }

        let freq = |depth, width, seed| {
            AlphaNetFrequency::new_streaming(net(0.25), 2, depth, width, CAP, seed).expect("new")
        };
        for (other, field) in [
            (freq(3, 128, 9), "CountMin depth"),
            (freq(4, 64, 9), "CountMin width"),
            (freq(4, 128, 10), "fingerprint seed"),
        ] {
            refuses(&freq(4, 128, 9), &other, field);
        }

        let fp = |p, cfg: FpConfig| {
            FpNet::new_streaming_qary(net(0.25), NetMode::Full, CAP, 2, p, &cfg, 7).expect("new")
        };
        let with = |change: fn(&mut FpConfig)| {
            let mut cfg = fp_cfg();
            change(&mut cfg);
            cfg
        };
        for (a, b, field) in [
            (2.0, fp(1.5, fp_cfg()), "family"),
            (1.5, fp(1.0, fp_cfg()), "moment order p"),
            (
                2.0,
                fp(2.0, with(|c| c.ams_groups = 7)),
                "AMS (groups, per_group)",
            ),
            (
                2.0,
                fp(2.0, with(|c| c.ams_per_group = 4)),
                "AMS (groups, per_group)",
            ),
            (1.5, fp(1.5, with(|c| c.stable_t = 4)), "stable_t"),
        ] {
            refuses(&fp(a, fp_cfg()), &b, field);
        }
    }
}
