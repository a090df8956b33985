//! Algorithm 1 / Theorem 6.5, stated once: one β-approximate sketch per
//! α-net member, every row projected onto every member, every query
//! answered from the member it rounds to.
//!
//! [`NetSketches`] owns everything that does not depend on the statistic:
//! the materialization cap, the per-width codec validation, the members
//! themselves (ascending by mask — the persisted order), the row →
//! [`PatternKey`] projection for packed and dense rows, the per-member
//! merge, rounding with the BoundaryOnly fallback, space accounting and
//! the persisted sketch map. The summaries in [`crate::alpha_net`] and
//! [`crate::alpha_net_freq`] add only what to do with a projected key and
//! how to read an answer off a member's sketch.
//!
//! # The update loop: a mask-major chunk sweep
//!
//! Rows arrive as chunks ([`push_packed_chunk`](NetSketches::push_packed_chunk),
//! [`push_dense_chunk`](NetSketches::push_dense_chunk); a single row is a
//! one-row chunk, a whole dataset is one chunk) and the sweep makes one
//! pass over the whole chunk *per member*, so one sketch is hot at a time:
//!
//! 1. **project** — packed rows through the member's mask compiled to its
//!    runs of adjacent columns ([`pfe_row::bit_runs`], one shift-and-mask
//!    per run), dense rows through its [`PatternCodec`];
//! 2. **histogram or not** — the net is made of subsets of size `≤ αd` or
//!    `≥ (1−α)d`, so half of the members project onto only `Q^{≤αd}`
//!    patterns and see the same few keys over and over. When a member's
//!    domain `Q^w` is no larger than the chunk, its keys are counted into
//!    a `Q^w`-slot histogram and each *present* key is fed once with its
//!    multiplicity; a wider member is fed row by row;
//! 3. **feed** — the statistic's closure gets `(sketch, key, multiplicity)`.
//!
//! Which sketches may take a multiplicity is the statistic's call
//! ([`Feed`]): set sketches (KMV) ignore it, exact integer sums (CountMin,
//! AMS) take it as the update weight and end in the same bits as `n` unit
//! updates in any order. Float sums (`StableFp`) round differently under
//! `n·x` than under `n` additions of `x`, so they are always fed
//! [`Feed::RowOrder`]. Either way a summary's bytes do not depend on how
//! its rows were cut into chunks.

use pfe_persist::{Decoder, Encoder, Persist, PersistError};
use pfe_row::{BitRun, ColumnSet, Dataset, PatternCodec, PatternKey};
use pfe_sketch::traits::SpaceUsage;

use crate::alpha_net::{AlphaNet, NetMode, RoundedQuery};
use crate::problem::QueryError;

/// How a statistic's sketches consume the keys a chunk projects to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Feed {
    /// Sets and exact integer sums: a key the chunk holds `n` times may
    /// arrive once, with multiplicity `n`, in any order.
    Counted,
    /// Rounding-sensitive sketches (float sums): every row's key, in row
    /// order, with multiplicity 1.
    RowOrder,
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
    /// Panics unless [`AlphaNet::check_codecs`] passed for `(mode, q)` and
    /// `mask` is a member of that net.
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

/// One member's pass over a chunk whose projections onto it are `keys`,
/// in row order. When the sketch takes multiplicities and the member's
/// `domain = Some(Q^w)` is no larger than the chunk, the keys are counted
/// into `hist` and each present key is fed once, in ascending key order;
/// otherwise every key is fed as it comes.
fn absorb<T>(
    sketch: &mut T,
    keys: impl ExactSizeIterator<Item = PatternKey>,
    domain: Option<usize>,
    order: Feed,
    hist: &mut Vec<u32>,
    feed: &mut impl FnMut(&mut T, PatternKey, u32),
) {
    let rows = keys.len();
    // A count is at most `rows`, so it fits the `u32` slots.
    let counted = order == Feed::Counted && u32::try_from(rows).is_ok();
    match domain.filter(|&n| counted && n <= rows) {
        Some(n) => {
            hist.clear();
            hist.resize(n, 0);
            for key in keys {
                hist[key.raw() as usize] += 1;
            }
            for (key, &count) in hist.iter().enumerate() {
                if count != 0 {
                    feed(sketch, PatternKey::from(key as u64), count);
                }
            }
        }
        None => keys.for_each(|key| feed(sketch, key, 1)),
    }
}

/// The sketches of one α-net summary, one per materialized member.
#[derive(Clone)]
pub(crate) struct NetSketches<T> {
    net: AlphaNet,
    mode: NetMode,
    q: u32,
    /// Ascending by mask.
    members: Vec<Member<T>>,
    /// Every member's mask compiled for packed rows ([`Member::runs`]
    /// indexes it). One table, not an allocation per member: a small
    /// block of each member's own, sitting between two sketch buffers,
    /// keeps the holes those buffers leave when they grow from coalescing
    /// (+0.6 MB resident per 598-member KMV net, measured).
    run_table: Vec<BitRun>,
}

impl<T> NetSketches<T> {
    /// Materialize `factory(mask)` for every member of `net` under `mode`.
    ///
    /// # Errors
    /// As [`AlphaNet::check_materializable`].
    pub(crate) fn new(
        net: AlphaNet,
        mode: NetMode,
        max_subsets: u128,
        q: u32,
        mut factory: impl FnMut(u64) -> T,
    ) -> Result<Self, QueryError> {
        net.check_materializable(mode, max_subsets, q)?;
        // The factory sees masks in the net's own (weight-major) order.
        let mut run_table = run_table_for(&net, mode);
        let mut members = Vec::with_capacity(net.member_count(mode) as usize);
        members.extend(
            net.members(mode)
                .map(|mask| Member::new(&net, q, mask, factory(mask), &mut run_table)),
        );
        members.sort_unstable_by_key(|m: &Member<T>| m.cols.mask());
        Ok(Self {
            net,
            mode,
            q,
            members,
            run_table,
        })
    }

    /// [`new`](Self::new), then `data` as one chunk.
    ///
    /// # Errors
    /// As [`new`](Self::new), plus a dimension mismatch between `data`
    /// and `net`.
    pub(crate) fn build(
        data: &Dataset,
        net: AlphaNet,
        mode: NetMode,
        max_subsets: u128,
        factory: impl FnMut(u64) -> T,
        order: Feed,
        feed: impl FnMut(&mut T, PatternKey, u32),
    ) -> Result<Self, QueryError> {
        if data.dimension() != net.dimension() {
            return Err(QueryError::DimensionMismatch {
                data: data.dimension(),
                query: net.dimension(),
            });
        }
        let mut this = Self::new(net, mode, max_subsets, data.alphabet(), factory)?;
        match data {
            Dataset::Binary(rows) => this.push_packed_chunk(rows.rows(), order, feed),
            Dataset::Qary(rows) => this.push_dense_chunk(rows.flat(), order, feed),
        }
        Ok(this)
    }

    /// Sweep a chunk of packed binary rows over every member (see the
    /// [module docs](self)): `feed` gets each member's sketch with the
    /// projected keys and their multiplicities.
    ///
    /// # Panics
    /// Panics if the summary is not binary or a row has bits at or above
    /// `d`.
    pub(crate) fn push_packed_chunk(
        &mut self,
        rows: &[u64],
        order: Feed,
        mut feed: impl FnMut(&mut T, PatternKey, u32),
    ) {
        assert_eq!(self.q, 2, "push_packed requires a binary summary");
        let d = self.net.dimension();
        assert!(
            rows.iter().all(|&row| row >> d == 0),
            "row has bits above d={d}"
        );
        let mut hist = Vec::new();
        for m in &mut self.members {
            let runs = &self.run_table[m.runs.start as usize..m.runs.end as usize];
            let keys = rows
                .iter()
                .map(|&row| PatternKey::from(pfe_row::extract_runs(runs, row)));
            absorb(&mut m.sketch, keys, m.domain, order, &mut hist, &mut feed);
        }
    }

    /// Sweep a flat row-major chunk of dense rows (`d` symbols per row)
    /// over every member. A binary summary packs the chunk once and takes
    /// the [`push_packed_chunk`](Self::push_packed_chunk) sweep, so both
    /// surfaces feed identical keys.
    ///
    /// # Panics
    /// Panics unless `flat` is a whole number of rows of in-alphabet
    /// symbols.
    pub(crate) fn push_dense_chunk(
        &mut self,
        flat: &[u16],
        order: Feed,
        mut feed: impl FnMut(&mut T, PatternKey, u32),
    ) {
        let d = self.net.dimension();
        assert!(flat.len().is_multiple_of(d as usize), "row length != d");
        if let Some(s) = flat.iter().find(|&&s| s as u32 >= self.q) {
            panic!("symbol {s} outside alphabet");
        }
        if self.q == 2 {
            return self.push_packed_chunk(&pfe_row::pack_binary_rows(flat, d), order, feed);
        }
        let mut hist = Vec::new();
        for m in &mut self.members {
            let keys = flat
                .chunks_exact(d as usize)
                .map(|row| m.codec.encode_row(row, &m.cols));
            absorb(&mut m.sketch, keys, m.domain, order, &mut hist, &mut feed);
        }
    }

    /// Fold in a summary of a disjoint segment of the same stream, member
    /// by member. Equal `(net, mode)` means equal member lists.
    ///
    /// # Panics
    /// Panics on net/mode/alphabet mismatch.
    pub(crate) fn merge(&mut self, other: &Self, mut merge_one: impl FnMut(&mut T, &T)) {
        assert_eq!(self.net, other.net, "alpha-net merge: net mismatch");
        assert_eq!(self.mode, other.mode, "alpha-net merge: mode mismatch");
        assert_eq!(self.q, other.q, "alpha-net merge: alphabet mismatch");
        for (mine, theirs) in self.members.iter_mut().zip(&other.members) {
            merge_one(&mut mine.sketch, &theirs.sketch);
        }
    }

    pub(crate) fn net(&self) -> &AlphaNet {
        &self.net
    }

    pub(crate) fn mode(&self) -> NetMode {
        self.mode
    }

    pub(crate) fn alphabet(&self) -> u32 {
        self.q
    }

    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    /// Every member's sketch, ascending by mask.
    pub(crate) fn sketches(&self) -> impl Iterator<Item = &T> {
        self.members.iter().map(|m| &m.sketch)
    }

    /// One member's sketch, for reading the shape all members share
    /// (every net materializes at least one subset).
    pub(crate) fn first(&self) -> &T {
        &self.members[0].sketch
    }

    /// The sketch materialized for `mask`, if it is a member.
    pub(crate) fn get(&self, mask: u64) -> Option<&T> {
        self.members
            .binary_search_by_key(&mask, |m| m.cols.mask())
            .ok()
            .map(|i| &self.members[i].sketch)
    }

    /// Nearest-neighbour rounding as the summary will answer it: under
    /// `BoundaryOnly` an in-net query of non-boundary size is not
    /// materialized and is re-rounded to the boundary weight on its side.
    pub(crate) fn effective_rounding(&self, cols: &ColumnSet) -> Result<RoundedQuery, QueryError> {
        let r = self.net.round(cols)?;
        if self.mode == NetMode::Full || self.get(r.target.mask()).is_some() {
            return Ok(r);
        }
        let side = if cols.len() <= self.net.small_size() {
            self.net.small_size()
        } else {
            self.net.large_size()
        };
        Ok(self.net.resized(cols, side))
    }

    /// The sketch a rounded query is answered from.
    ///
    /// # Panics
    /// Panics if `r` did not come from this net's rounding.
    pub(crate) fn answering(&self, r: &RoundedQuery) -> &T {
        self.get(r.target.mask())
            .expect("rounded target is materialized")
    }

    /// Persist the sketch map in ascending mask order.
    pub(crate) fn encode_members(&self, enc: &mut Encoder)
    where
        T: Persist,
    {
        enc.put_len(self.members.len());
        for m in &self.members {
            enc.put_u64(m.cols.mask());
            m.sketch.encode(enc);
        }
    }

    /// Decode a sketch map and verify it holds *exactly* the membership of
    /// `net` under `mode`, in ascending order, over an alphabet every
    /// member width has a codec for — anything else would panic later, at
    /// push or query time, so it is rejected here as malformed input.
    pub(crate) fn decode_members(
        dec: &mut Decoder<'_>,
        net: AlphaNet,
        mode: NetMode,
        q: u32,
    ) -> Result<Self, PersistError>
    where
        T: Persist,
    {
        if q < 2 {
            return Err(PersistError::Malformed(format!("alphabet q={q} below 2")));
        }
        net.check_codecs(mode, q)
            .map_err(|e| PersistError::Malformed(format!("alphabet q={q}: {e}")))?;
        // Each entry is at least a mask (8 bytes) plus one sketch byte.
        let n = dec.take_len(9)?;
        let expected = net.member_count(mode);
        if n as u128 != expected {
            return Err(PersistError::Malformed(format!(
                "sketch map holds {n} subset(s), net materializes {expected}"
            )));
        }
        let mut masks: Vec<u64> = net.members(mode).collect();
        masks.sort_unstable();
        let mut run_table = run_table_for(&net, mode);
        let mut members = Vec::with_capacity(n);
        for want in masks {
            let mask = dec.take_u64()?;
            if mask != want {
                return Err(PersistError::Malformed(format!(
                    "sketch map holds subset {mask:#b} where net member {want:#b} belongs"
                )));
            }
            members.push(Member::new(&net, q, mask, T::decode(dec)?, &mut run_table));
        }
        Ok(Self {
            net,
            mode,
            q,
            members,
            run_table,
        })
    }
}

impl<T: SpaceUsage> NetSketches<T> {
    /// Heap bytes of the member table (the owning summary adds its own
    /// inline size).
    pub(crate) fn member_bytes(&self) -> usize {
        let overhead = std::mem::size_of::<Member<T>>() - std::mem::size_of::<T>();
        let sketches: usize = self.sketches().map(|s| s.space_bytes() + overhead).sum();
        sketches + std::mem::size_of_val(&*self.run_table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alpha_net::{AlphaNetF0, AlphaNetFp};
    use crate::alpha_net_freq::AlphaNetFrequency;
    use pfe_sketch::ams_f2::AmsF2;
    use pfe_sketch::kmv::Kmv;
    use pfe_sketch::stable_fp::StableFp;
    use pfe_stream::gen::{uniform_binary, uniform_qary};

    const CAP: u128 = 1 << 20;

    fn bytes<T: Persist>(summary: &T) -> Vec<u8> {
        let mut enc = Encoder::new();
        summary.encode(&mut enc);
        enc.into_bytes()
    }

    /// The streaming surface every net summary shares, as plain function
    /// pointers so one body can drive all of them.
    struct Surface<T> {
        name: &'static str,
        build: fn(&Dataset, AlphaNet) -> T,
        empty: fn(AlphaNet, u32) -> T,
        push_packed: fn(&mut T, u64),
        push_dense: fn(&mut T, &[u16]),
        push_packed_chunk: fn(&mut T, &[u64]),
        push_dense_chunk: fn(&mut T, &[u16]),
        merge: fn(&mut T, &T),
        /// Whether a merge of shards equals one build to the byte. Float
        /// sums (stable projections) only promise that under an identical
        /// merge structure.
        merge_is_exact: bool,
    }

    /// `rows` dealt round-robin over three shards, folded left to right.
    fn three_way<T>(s: &Surface<T>, net: AlphaNet, q: u32, rows: &[Vec<u16>], packed: bool) -> T {
        let mut shards: Vec<T> = (0..3).map(|_| (s.empty)(net, q)).collect();
        for (i, row) in rows.iter().enumerate() {
            if packed {
                let bits = row.iter().rev().fold(0u64, |acc, &b| acc << 1 | b as u64);
                (s.push_packed)(&mut shards[i % 3], bits);
            } else {
                (s.push_dense)(&mut shards[i % 3], row);
            }
        }
        let mut merged = shards.remove(0);
        for shard in &shards {
            (s.merge)(&mut merged, shard);
        }
        merged
    }

    /// The chunk lengths that exercise the sweep's path choice: one row,
    /// an odd length, the whole stream, and one row either side of a
    /// boundary member's domain `Q^w` (below it that member is fed per
    /// row, from it on through the histogram).
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

    fn check<T: Persist>(s: Surface<T>) {
        let datasets = [
            (uniform_binary(10, 900, 7), AlphaNet::new(10, 0.25)),
            (uniform_qary(4, 7, 400, 23), AlphaNet::new(7, 0.3)),
            // Full-width member at d = 63: `1 << w` and `Q^w` must neither
            // overflow nor be allocated for.
            (uniform_binary(63, 3, 11), AlphaNet::new(63, 0.48)),
        ];
        for (data, net) in datasets {
            let (net, q, name) = (net.expect("valid"), data.alphabet(), s.name);
            let d = data.dimension() as usize;
            let rows: Vec<Vec<u16>> = (0..data.num_rows()).map(|i| data.row_dense(i)).collect();
            let built = bytes(&(s.build)(&data, net));

            // The sweep is invisible in the bytes: however the stream is
            // cut into chunks, the summary is the one-row-chunk summary.
            let flat = rows.concat();
            for len in chunk_lengths(&net, q, rows.len()) {
                let mut chunked = (s.empty)(net, q);
                for chunk in flat.chunks(len * d) {
                    (s.push_dense_chunk)(&mut chunked, chunk);
                }
                assert_eq!(
                    bytes(&chunked),
                    built,
                    "{name} q={q} d={d}: dense chunks of {len} != build"
                );
                if let Dataset::Binary(m) = &data {
                    let mut chunked = (s.empty)(net, q);
                    for chunk in m.rows().chunks(len) {
                        (s.push_packed_chunk)(&mut chunked, chunk);
                    }
                    assert_eq!(
                        bytes(&chunked),
                        built,
                        "{name} d={d}: packed chunks of {len} != build"
                    );
                }
            }

            let mut streamed = (s.empty)(net, q);
            rows.iter()
                .for_each(|row| (s.push_dense)(&mut streamed, row));
            assert_eq!(
                bytes(&streamed),
                built,
                "{name} q={q}: dense pushes != build"
            );

            let sharded = bytes(&three_way(&s, net, q, &rows, false));
            if s.merge_is_exact {
                assert_eq!(sharded, built, "{name} q={q}: 3-way merge != build");
            }
            if q == 2 {
                let mut packed = (s.empty)(net, q);
                for &row in match &data {
                    Dataset::Binary(m) => m.rows(),
                    Dataset::Qary(_) => unreachable!("q=2 fixture is packed"),
                } {
                    (s.push_packed)(&mut packed, row);
                }
                assert_eq!(bytes(&packed), built, "{name}: packed pushes != build");
                assert_eq!(
                    bytes(&three_way(&s, net, q, &rows, true)),
                    sharded,
                    "{name}: packed and dense shards merge differently"
                );
            }
        }
    }

    #[test]
    fn every_streaming_summary_build_equals_pushes_equals_sharded_merge() {
        fn kmv(m: u64) -> Kmv {
            Kmv::new(64, m ^ 0xbeef)
        }
        fn ams(m: u64) -> AmsF2 {
            AmsF2::new(5, 8, m ^ 0xf2f2)
        }
        fn stable(m: u64) -> StableFp {
            StableFp::new(8, 1.5, m ^ 0x51ab)
        }
        check(Surface {
            name: "F0/KMV",
            build: |d, n| AlphaNetF0::build(d, n, NetMode::Full, CAP, kmv).expect("build"),
            empty: |n, q| {
                AlphaNetF0::new_streaming_qary(n, NetMode::Full, CAP, q, kmv).expect("new")
            },
            push_packed: AlphaNetF0::push_packed,
            push_dense: AlphaNetF0::push_dense,
            push_packed_chunk: AlphaNetF0::push_packed_chunk,
            push_dense_chunk: AlphaNetF0::push_dense_chunk,
            merge: AlphaNetF0::merge,
            merge_is_exact: true,
        });
        check(Surface {
            name: "Fp/AMS",
            build: |d, n| AlphaNetFp::build(d, n, NetMode::Full, CAP, ams).expect("build"),
            empty: |n, q| {
                AlphaNetFp::new_streaming_qary(n, NetMode::Full, CAP, q, ams).expect("new")
            },
            push_packed: AlphaNetFp::push_packed,
            push_dense: AlphaNetFp::push_dense,
            push_packed_chunk: AlphaNetFp::push_packed_chunk,
            push_dense_chunk: AlphaNetFp::push_dense_chunk,
            merge: AlphaNetFp::merge,
            merge_is_exact: true,
        });
        check(Surface {
            name: "Fp/stable",
            build: |d, n| AlphaNetFp::build(d, n, NetMode::Full, CAP, stable).expect("build"),
            empty: |n, q| {
                AlphaNetFp::new_streaming_qary(n, NetMode::Full, CAP, q, stable).expect("new")
            },
            push_packed: AlphaNetFp::push_packed,
            push_dense: AlphaNetFp::push_dense,
            push_packed_chunk: AlphaNetFp::push_packed_chunk,
            push_dense_chunk: AlphaNetFp::push_dense_chunk,
            merge: AlphaNetFp::merge,
            merge_is_exact: false,
        });
        check(Surface {
            name: "Frequency/CountMin",
            build: |d, n| AlphaNetFrequency::build(d, n, 4, 128, CAP, 9).expect("build"),
            empty: |n, q| AlphaNetFrequency::new_streaming(n, q, 4, 128, CAP, 9).expect("new"),
            // No single-row door on the frequency net: a one-row chunk.
            push_packed: |s, row| s.push_packed_chunk(&[row]),
            push_dense: AlphaNetFrequency::push_dense_chunk,
            push_packed_chunk: AlphaNetFrequency::push_packed_chunk,
            push_dense_chunk: AlphaNetFrequency::push_dense_chunk,
            merge: AlphaNetFrequency::merge,
            merge_is_exact: true,
        });
    }
}
