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
//! off a member, what it guarantees of that answer ([`Distortion`],
//! [`Guaranteed`]) and what its persisted header holds. The public
//! summaries ([`AlphaNetF0`](crate::alpha_net::AlphaNetF0),
//! [`AlphaNetFrequency`](crate::alpha_net_freq::AlphaNetFrequency),
//! [`FpNet`](crate::fp::FpNet)) are aliases of this one type.
//!
//! # The update loop: a de-duplicated, mask-major chunk sweep
//!
//! Rows arrive as chunks ([`push_chunk`](AlphaNetSummary::push_chunk), a
//! [`Chunk`] of packed or dense rows; a single row is a one-row chunk, a
//! whole dataset is one chunk). Projected frequency
//! estimation is interesting when rows repeat, so the sweep pays per
//! *distinct* row, not per row:
//!
//! 0. **de-duplicate, once per run** — the run is sorted (packed rows as
//!    `u64`, dense rows as `&[u16]` slices; a run of several batches
//!    batch by batch, where each lies, then merged) into its distinct rows
//!    and a `u32` weight each, how often the row occurs: a
//!    [`DistinctRows`]. A shard builds it once and every counted net of
//!    the shard sweeps it ([`push_distinct`](AlphaNetSummary::push_distinct));
//!    a chunk pushed to a lone net is its own run. Every member below
//!    reads those rows;
//!
//! then one pass over the distinct rows *per member*, so one sketch is hot
//! at a time, and in that pass the member takes the rows as **one block**:
//!
//! 1. **project** — every row's key into one reusable `u64` buffer
//!    ([`SweepRow::project_block`]): packed rows through the member's mask
//!    compiled to its runs of adjacent columns ([`pfe_row::bit_runs`]),
//!    applied run by run over the whole block as shift, mask, OR
//!    ([`pfe_row::extract_runs_block`]); dense rows transposed to
//!    column-major once per sweep ([`SweepRow::columns`]), then
//!    `Σ col·Q^j` a column at a time
//!    ([`PatternCodec::encode_columns`]). Both loops run over rows, so
//!    they are compiled for the widest vectors the CPU has
//!    ([`Features::widest`]); the sweep asks the CPU once and hands its
//!    [`Features`] to each member's projection;
//! 2. **histogram or not** — the net is made of subsets of size `≤ αd` or
//!    `≥ (1−α)d`, so half of the members project onto only `Q^{≤αd}`
//!    patterns and distinct rows still collide on them. When a member's
//!    domain `Q^w` is no larger than the number of distinct rows, the
//!    weights are summed into a `Q^w`-slot histogram and the *present*
//!    keys, ascending, replace the block, each with its total; a wider
//!    member keeps the block of every distinct row's key with that row's
//!    weight;
//! 3. **feed** — [`Statistic::feed_block`] gets `(sketch, keys, weights)`,
//!    statically dispatched: the sweep is monomorphized per statistic.
//!    Each statistic hashes the block in one pass of the vector kernel
//!    ([`pfe_hash::hash_keys`]): CountMin and AMS take the fingerprints
//!    and update as before; a KMV takes `hash_u64` of the fingerprint
//!    under its own seed in the same pass, drops every hash a full sketch
//!    would reject and merges the rest at once
//!    ([`DistinctSketch::insert_keys`](pfe_sketch::traits::DistinctSketch::insert_keys)).
//!
//! A run of any length takes this one path, a one-row chunk too. Only a
//! member whose domain does not fit a `usize` (`Q^w ≥ 2^64` on a 64-bit
//! target), whose keys a `u64` block cannot hold, is fed its keys one at a
//! time ([`Statistic::feed`], one [`PatternKey`] at a time), in the order
//! a block would hold them.
//!
//! Which sketches may take a multiplicity is the statistic's call
//! ([`Statistic::counted`]): set sketches (KMV) ignore it, exact integer
//! sums (CountMin, AMS) take it as the update weight and end in the same
//! bits as `n` unit updates in any order — a summary is charged for its
//! bits, so any evaluation order that ends in the same bits is the same
//! summary. Float sums (`StableFp`) round differently under `n·x` than
//! under `n` additions of `x`, so a net of those skips step 0 and is fed
//! the raw chunk: every row, in row order, with multiplicity 1. A stretch
//! of rows too long for `u32` weights is swept in runs of at most
//! [`MAX_RUN_ROWS`]. Either way a summary's bytes do not depend on how its
//! rows were cut into chunks or grouped into runs, or on how much they
//! repeat.
//!
//! A set statistic may also be narrowed past step 0 to the distinct rows
//! a [`FedRows`] record has not seen
//! ([`AlphaNetF0::push_distinct_once`](crate::AlphaNetF0::push_distinct_once)):
//! a row the net was fed before projects onto keys every member holds, so
//! each sketch ends with the same minima, and a KMV, whose capacity
//! follows from the lengths it has held, in as many slots.

use std::fmt::Debug;

use pfe_hash::{hash_u64, Features};
use pfe_persist::{Decoder, Encoder, Persist, PersistError};
use pfe_row::{BitRun, Chunk, ColumnSet, Dataset, PatternCodec, PatternKey};
use pfe_sketch::traits::SpaceUsage;

use crate::alpha_net::{AlphaNet, FedRows, NetAnswer, NetMode, RoundedQuery, MAX_FED_ROWS};
use crate::bounds::{Guarantee, GuaranteeSource};
use crate::problem::QueryError;
use crate::uniform_sample::{RowStore, UniformSampleSummary};

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

    /// [`feed`](Self::feed) every key of `keys`, in order, key `i` with
    /// multiplicity `weights[i]` (`None`: 1 each): one member's block of
    /// projected keys, each below `2^64`. `keys` is the sweep's scratch,
    /// which the statistic may overwrite — with the keys' fingerprints,
    /// say, from one pass of [`pfe_hash::hash_keys`].
    fn feed_block(&self, sketch: &mut Self::Sketch, keys: &mut [u64], weights: Option<&[u32]>);

    /// Whether the parameters the statistic keeps beside the member map
    /// agree.
    ///
    /// # Errors
    /// Names the first parameter that differs.
    fn check_mergeable(&self, _other: &Self) -> Result<(), String> {
        Ok(())
    }
}

/// A statistic Lemma 6.4 bounds under net rounding, whatever the member
/// sketch.
pub trait Distortion: Statistic {
    /// The factor by which rounding a query `sym_diff` columns over
    /// alphabet `q` can move the statistic.
    fn distortion(&self, q: u32, sym_diff: u32) -> f64;
}

/// A statistic whose net answer carries Theorem 6.5's multiplicative
/// guarantee. With [`Distortion`], what the plug-in states, once, about
/// its own answers; [`AlphaNetSummary::guarantee`] assembles them.
pub trait Guaranteed: Distortion {
    /// The β the estimate of `sketch` is within: the plug-in factor of
    /// Theorem 6.5.
    fn beta(&self, sketch: &Self::Sketch) -> f64;
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

/// One member's keys: what the swept rows project onto at the member, in
/// row order, one `weights` entry each (`None`: the raw chunk, every key
/// with multiplicity 1), handed to [`Statistic::feed_block`] as one block.
/// With a `histogram` of `n = Q^w` slots the weights are summed into
/// `hist` and each present key is fed once, in ascending key order, with
/// its total in `counts`; without one every key is fed with its row's
/// weight.
fn feed_member<P: Statistic>(
    stat: &P,
    sketch: &mut P::Sketch,
    keys: &mut Vec<u64>,
    weights: Option<&[u32]>,
    histogram: Option<usize>,
    (hist, counts): (&mut Vec<u32>, &mut Vec<u32>),
) {
    let (Some(weights), Some(n)) = (weights, histogram) else {
        return stat.feed_block(sketch, keys, weights);
    };
    hist.clear();
    hist.resize(n, 0);
    for (&key, &weight) in keys.iter().zip(weights) {
        hist[key as usize] += weight;
    }
    keys.resize(n, 0);
    counts.resize(n, 0);
    let mut present = 0;
    for (key, &count) in hist.iter().enumerate() {
        keys[present] = key as u64;
        counts[present] = count;
        present += usize::from(count != 0);
    }
    keys.truncate(present);
    counts.truncate(present);
    stat.feed_block(sketch, keys, Some(counts));
}

/// Most rows one [`DistinctRows`] holds: a weight, and a histogram slot
/// summing weights, is a `u32`. A longer stretch of rows is swept in runs
/// of this length — the same bytes, as any cut into chunks is.
pub const MAX_RUN_ROWS: usize = u32::MAX as usize;

/// A run of rows as a counted net sweeps it: its distinct rows, ascending,
/// and how often each occurs. Built once per run and read by every net of
/// a shard that takes multiplicities.
#[derive(Debug)]
pub struct DistinctRows<R> {
    rows: Vec<R>,
    weights: Vec<u32>,
}

impl<R: Ord + Copy> DistinctRows<R> {
    /// The distinct rows of `parts` together, each part sorted where it
    /// lies: one part is de-duplicated in place, several are merged. A run
    /// of queued batches is neither copied nor concatenated, and what is
    /// allocated is only as long as the run's distinct rows.
    ///
    /// # Panics
    /// Panics on more than [`MAX_RUN_ROWS`] rows in all.
    pub fn new(mut parts: Vec<Vec<R>>) -> Self {
        let total: usize = parts.iter().map(Vec::len).sum();
        assert!(total <= MAX_RUN_ROWS, "a run holds at most u32::MAX rows");
        parts.iter_mut().for_each(|part| part.sort_unstable());
        if let [rows] = &mut parts[..] {
            let mut rows = std::mem::take(rows);
            let mut weights = Vec::new();
            if !rows.is_empty() {
                weights.push(1);
            }
            rows.dedup_by(|row, kept| {
                let repeat = row == kept;
                if repeat {
                    *weights.last_mut().expect("starts with one") += 1;
                } else {
                    weights.push(1);
                }
                repeat
            });
            return Self { rows, weights };
        }
        let mut heads: Vec<&[R]> = parts.iter().map(Vec::as_slice).collect();
        let (mut rows, mut weights) = (Vec::new(), Vec::new());
        while let Some(&least) = heads.iter().filter_map(|head| head.first()).min() {
            let mut weight = 0;
            for head in &mut heads {
                let n = head.iter().take_while(|&&row| row == least).count();
                *head = &head[n..];
                weight += n as u32;
            }
            rows.push(least);
            weights.push(weight);
        }
        Self { rows, weights }
    }

    /// Distinct rows in the run.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the run holds no row.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// A row as the sweep reads it: a packed binary row (`u64`) or a dense
/// row of `d` symbols (`&[u16]`). The sweep is monomorphized per kind.
/// Below a [`Chunk`], every choice that depends on the row form is made
/// here: how a row projects, how it is routed to a shard, batched,
/// sampled and recorded as fed.
pub trait SweepRow: Ord + Copy {
    /// What a batch of such rows stores per row: the packed row, or the
    /// row's `d` symbols.
    type Cell: Copy;

    /// The key the row projects onto at the member of columns `cols`,
    /// compiled for packed rows as `runs`, with codec `codec`.
    fn project(self, runs: &[BitRun], cols: &ColumnSet, codec: &PatternCodec) -> PatternKey;

    /// `rows` laid out once for every member's
    /// [`project_block`](Self::project_block): dense rows transposed to
    /// column-major, `d` columns of `rows.len()` symbols; nothing for
    /// packed rows, which are read as they are.
    fn columns(rows: &[Self], d: u32) -> Vec<u16>;

    /// [`project`](Self::project) of every row of `rows`, into `keys`,
    /// for a member whose keys fit a `u64`, on the vector `features` the
    /// sweep found; `columns` is what [`columns`](Self::columns) made of
    /// `rows`.
    fn project_block(
        features: Features,
        rows: &[Self],
        columns: &[u16],
        member: (&[BitRun], &ColumnSet, &PatternCodec),
        keys: &mut Vec<u64>,
    );

    /// Whether `fed` has no record of the row; records it when there is
    /// room.
    fn first_fed(self, fed: &mut FedRows) -> bool;

    /// Panics unless the row fits a `d`-column net over alphabet `q`.
    fn check(self, d: u32, q: u32);

    /// The row's hash under `seed`, which picks its shard: every copy of
    /// a row goes to the same one.
    fn shard_hash(self, seed: u64) -> u64;

    /// Append the row to a batch of such rows.
    fn append_to(self, batch: &mut Vec<Self::Cell>);

    /// Offer the row to `sample`'s reservoir.
    ///
    /// # Panics
    /// Panics if `sample` keeps its rows in the other form: a binary
    /// sample takes its rows packed.
    fn sample_into(self, sample: &mut UniformSampleSummary);
}

impl SweepRow for u64 {
    type Cell = u64;

    #[inline]
    fn project(self, runs: &[BitRun], _: &ColumnSet, _: &PatternCodec) -> PatternKey {
        PatternKey::from(pfe_row::extract_runs(runs, self))
    }

    fn columns(_: &[u64], _: u32) -> Vec<u16> {
        Vec::new()
    }

    #[inline]
    fn project_block(
        features: Features,
        rows: &[u64],
        _: &[u16],
        (runs, _, _): (&[BitRun], &ColumnSet, &PatternCodec),
        keys: &mut Vec<u64>,
    ) {
        pfe_row::extract_runs_block(features, runs, rows, keys);
    }

    #[inline]
    fn first_fed(self, fed: &mut FedRows) -> bool {
        if fed.len() < MAX_FED_ROWS {
            return fed.packed.insert(self);
        }
        !fed.packed.contains(&self)
    }

    #[inline]
    fn check(self, d: u32, q: u32) {
        assert_eq!(q, 2, "packed rows require a binary summary");
        assert!(self >> d == 0, "row has bits above d={d}");
    }

    #[inline]
    fn shard_hash(self, seed: u64) -> u64 {
        hash_u64(self, seed)
    }

    #[inline]
    fn append_to(self, batch: &mut Vec<u64>) {
        batch.push(self);
    }

    #[inline]
    fn sample_into(self, sample: &mut UniformSampleSummary) {
        match &mut sample.rows {
            RowStore::Binary(r) => r.insert(self),
            RowStore::Qary(_) => panic!("packed rows require a binary summary"),
        }
    }
}

impl SweepRow for &[u16] {
    type Cell = u16;

    #[inline]
    fn project(self, _: &[BitRun], cols: &ColumnSet, codec: &PatternCodec) -> PatternKey {
        codec.encode_row(self, cols)
    }

    fn columns(rows: &[&[u16]], d: u32) -> Vec<u16> {
        let n = rows.len();
        let mut columns = vec![0; d as usize * n];
        for (i, row) in rows.iter().enumerate() {
            for (c, &s) in row.iter().enumerate() {
                columns[c * n + i] = s;
            }
        }
        columns
    }

    #[inline]
    fn project_block(
        features: Features,
        rows: &[&[u16]],
        columns: &[u16],
        (_, cols, codec): (&[BitRun], &ColumnSet, &PatternCodec),
        keys: &mut Vec<u64>,
    ) {
        codec.encode_columns(features, columns, rows.len(), cols, keys);
    }

    #[inline]
    fn first_fed(self, fed: &mut FedRows) -> bool {
        if fed.dense.contains(self) {
            return false;
        }
        if fed.len() < MAX_FED_ROWS {
            fed.dense.insert(self.into());
        }
        true
    }

    #[inline]
    fn check(self, d: u32, q: u32) {
        assert_eq!(self.len(), d as usize, "row length != d");
        assert_ne!(q, 2, "a binary summary takes its rows packed");
        if let Some(s) = self.iter().find(|&&s| s as u32 >= q) {
            panic!("symbol {s} outside alphabet");
        }
    }

    #[inline]
    fn shard_hash(self, seed: u64) -> u64 {
        self.iter()
            .fold(seed, |h, &s| hash_u64(h ^ u64::from(s), seed))
    }

    #[inline]
    fn append_to(self, batch: &mut Vec<u16>) {
        batch.extend_from_slice(self);
    }

    #[inline]
    fn sample_into(self, sample: &mut UniformSampleSummary) {
        match &mut sample.rows {
            RowStore::Qary(r) => r.insert(self.into()),
            RowStore::Binary(_) => panic!("a binary summary takes its rows packed"),
        }
    }
}

/// `chunk` in the form a summary over alphabet `q` sweeps it: a binary
/// summary's rows packed, any other's dense. A dense chunk for a binary
/// summary is packed here, into `packed` — the one place rows change form
/// (an engine calls it once, where a chunk comes in); any other chunk is
/// handed back as it is.
///
/// # Panics
/// Panics on a dense binary chunk that is not whole rows of `0`/`1`
/// symbols, `d ≤ 63`.
pub fn sweep_form<'a>(chunk: Chunk<'a>, d: u32, q: u32, packed: &'a mut Vec<u64>) -> Chunk<'a> {
    match chunk {
        Chunk::Dense(flat) if q == 2 => {
            *packed = pfe_row::pack_binary_rows(flat, d);
            Chunk::Packed(packed)
        }
        chunk => chunk,
    }
}

/// The rows of a flat row-major dense chunk, `d` symbols each.
///
/// # Panics
/// Panics unless `flat` is a whole number of rows.
pub fn flat_rows(flat: &[u16], d: u32) -> Vec<&[u16]> {
    assert!(
        d > 0 && flat.len().is_multiple_of(d as usize),
        "row length != d"
    );
    flat.chunks_exact(d as usize).collect()
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
        self.push_chunk(Chunk::from(data));
        Ok(self)
    }

    /// Whether every member sketch takes a row's multiplicity
    /// ([`Statistic::counted`]): such a net sweeps a run's
    /// [`DistinctRows`], any other every row in row order.
    pub fn counted(&self) -> bool {
        self.sketches().all(|sketch| self.stat.counted(sketch))
    }

    /// Observe one packed binary row — a one-row
    /// [`push_chunk`](Self::push_chunk).
    pub fn push_packed(&mut self, row: u64) {
        self.push_chunk(Chunk::Packed(&[row]));
    }

    /// Observe one dense row — a one-row [`push_chunk`](Self::push_chunk).
    pub fn push_dense(&mut self, row: &[u16]) {
        self.push_chunk(Chunk::Dense(row));
    }

    /// Observe a chunk: one mask-major sweep over every member (see the
    /// [module docs](self)). A binary summary takes its rows packed (a
    /// dense chunk is brought to [`sweep_form`] first), so both forms feed
    /// identical keys. Leaves the sketch contents a build over the same
    /// rows would, however they are cut into chunks.
    ///
    /// # Panics
    /// Panics on rows that do not fit the net: a packed row for a
    /// non-binary summary or with bits at or above `d`, a dense chunk that
    /// is not whole rows of in-alphabet symbols.
    pub fn push_chunk(&mut self, chunk: Chunk<'_>) {
        let (d, mut packed) = (self.net.dimension(), Vec::new());
        match sweep_form(chunk, d, self.q, &mut packed) {
            Chunk::Packed(rows) => self.push_rows(rows),
            Chunk::Dense(flat) => self.push_rows(&flat_rows(flat, d)),
        }
    }

    /// Observe `rows` in row order: a counted net de-duplicates them, in
    /// runs of at most [`MAX_RUN_ROWS`]; any other net is fed every row.
    ///
    /// # Panics
    /// As [`push_distinct`](Self::push_distinct), on rows of the wrong
    /// shape.
    pub fn push_rows<R: SweepRow>(&mut self, rows: &[R]) {
        if !self.counted() {
            self.sweep(rows, None);
            return;
        }
        for part in rows.chunks(MAX_RUN_ROWS) {
            self.push_distinct(&DistinctRows::new(vec![part.to_vec()]));
        }
    }

    /// Observe a run already de-duplicated — built once and shared by
    /// every counted net of a shard. The same sketches as pushing the
    /// run's rows in any order and chunking.
    ///
    /// # Panics
    /// Panics unless the net is [`counted`](Self::counted), and on rows
    /// of the wrong shape: a packed row with bits at or above `d`, a dense
    /// row of the wrong length or alphabet, or dense rows for a binary
    /// net (which takes them packed).
    pub fn push_distinct<R: SweepRow>(&mut self, run: &DistinctRows<R>) {
        self.sweep_distinct(run, None);
    }

    /// [`push_distinct`](Self::push_distinct), with `fed` over only the
    /// distinct rows `fed` has no record of, which it then records — for
    /// a set statistic only, where a row fed again changes nothing
    /// ([`AlphaNetF0::push_distinct_once`](crate::AlphaNetF0::push_distinct_once)).
    /// Returns the distinct rows swept.
    pub(crate) fn sweep_distinct<R: SweepRow>(
        &mut self,
        run: &DistinctRows<R>,
        fed: Option<&mut FedRows>,
    ) -> usize {
        assert!(
            self.counted(),
            "a net of uncounted sketches sweeps raw rows"
        );
        let Some(fed) = fed else {
            return self.sweep(&run.rows, Some(&run.weights));
        };
        let unfed = |&(&row, _): &(&R, &u32)| row.first_fed(fed);
        let (rows, weights): (Vec<R>, Vec<u32>) =
            run.rows.iter().zip(&run.weights).filter(unfed).unzip();
        self.sweep(&rows, Some(&weights))
    }

    /// The mask-major sweep of `rows` — distinct rows with `weights`, or
    /// with `None` the raw rows in row order (see [`feed_member`]).
    /// Each member whose domain fits a `usize` — every key a `u64` —
    /// takes the run as one block of keys, a wider member row by row.
    /// Returns the rows swept.
    fn sweep<R: SweepRow>(&mut self, rows: &[R], weights: Option<&[u32]>) -> usize {
        let (d, q) = (self.net.dimension(), self.q);
        rows.iter().for_each(|&row| row.check(d, q));
        if rows.is_empty() {
            return 0;
        }
        let (features, columns) = (Features::detect(), R::columns(rows, d));
        let (keys, hist, counts) = (&mut Vec::new(), &mut Vec::new(), &mut Vec::new());
        for m in &mut self.members {
            let runs = &self.run_table[m.runs.start as usize..m.runs.end as usize];
            let Some(domain) = m.domain else {
                // A `u64` block cannot hold a wide member's keys.
                for (i, &row) in rows.iter().enumerate() {
                    let key = row.project(runs, &m.cols, &m.codec);
                    self.stat
                        .feed(&mut m.sketch, key, weights.map_or(1, |w| w[i]));
                }
                continue;
            };
            let histogram = weights.and(Some(domain)).filter(|&n| n <= rows.len());
            R::project_block(features, rows, &columns, (runs, &m.cols, &m.codec), keys);
            let (stat, sketch) = (&self.stat, &mut m.sketch);
            feed_member(stat, sketch, keys, weights, histogram, (hist, counts));
        }
        rows.len()
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

impl<P: Distortion> AlphaNetSummary<P> {
    /// The answer to a query rounded by `r` whose member estimates
    /// `estimate`, with that rounding's distortion.
    pub(crate) fn net_answer(&self, r: RoundedQuery, estimate: f64) -> NetAnswer {
        NetAnswer {
            estimate,
            answered_on: r.target,
            sym_diff: r.sym_diff,
            distortion_bound: self.stat.distortion(self.q, r.sym_diff),
        }
    }
}

/// Theorem 6.5, assembled in one place from what the plug-in states.
impl<P: Guaranteed> AlphaNetSummary<P> {
    /// The plug-in β of this net's member sketches, which all share one
    /// shape.
    pub fn beta(&self) -> f64 {
        self.stat.beta(self.first())
    }

    /// The guarantee of an answer from this net to a query rounded by
    /// `sym_diff` columns: `alpha` is β times the plug-in's Lemma 6.4
    /// distortion for that rounding, with no additive term. Queries that
    /// round to one member share its estimate but not their rounding, so
    /// each asks with its own `sym_diff`.
    pub fn guarantee(&self, sym_diff: u32) -> Guarantee {
        Guarantee {
            alpha: self.beta() * self.stat.distortion(self.q, sym_diff),
            epsilon: 0.0,
            source: GuaranteeSource::AlphaNet,
        }
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

    /// The chunk lengths that exercise the sweep's path choices: one row,
    /// the whole stream, one row either side of 8 keys (one AVX-512
    /// vector of the block kernels: a shorter block is all remainder, a
    /// longer one a vector and a remainder), and one row either side of a
    /// boundary member's domain `Q^w` (a chunk with fewer distinct rows
    /// than that feeds the member its block of keys as they are, any
    /// other through the histogram).
    fn chunk_lengths(net: &AlphaNet, q: u32, n_rows: usize) -> Vec<usize> {
        let vector = 8;
        let mut lengths = vec![1, vector - 1, vector, vector + 1, n_rows];
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
            // Members of 16 and 17 columns over Q = 16: domains of 2^64
            // and 2^68, whose keys a `u64` block cannot hold, fed row by
            // row beside block-fed narrow members.
            (uniform_qary(16, 17, 120, 5), AlphaNet::new(17, 0.4)),
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
                    chunked.push_chunk(Chunk::Dense(chunk));
                }
                assert_eq!(
                    bytes(&chunked),
                    built,
                    "{name} q={q} d={d}: dense chunks of {len} != build"
                );
                if let Dataset::Binary(m) = &data {
                    let mut chunked = empty(net, q);
                    for chunk in m.rows().chunks(len) {
                        chunked.push_chunk(Chunk::Packed(chunk));
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

    /// A run handed over as several batches de-duplicates to what the
    /// same rows give as one batch, empty batches included.
    #[test]
    fn distinct_rows_of_batches_equal_distinct_rows_of_their_concatenation() {
        let rows = zipf_indices(256, 9);
        let whole = DistinctRows::new(vec![rows.clone()]);
        assert_eq!(whole.weights.iter().sum::<u32>(), 256);
        assert!(whole.rows.windows(2).all(|pair| pair[0] < pair[1]));
        for cuts in [[0, 0], [1, 255], [100, 200], [256, 256], [0, 256]] {
            let [a, b] = cuts;
            let parts = vec![rows[..a].to_vec(), rows[a..b].to_vec(), rows[b..].to_vec()];
            let run = DistinctRows::new(parts);
            assert_eq!((&run.rows, &run.weights), (&whole.rows, &whole.weights));
        }
        assert!(DistinctRows::<u64>::new(vec![Vec::new(), Vec::new()]).is_empty());
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
