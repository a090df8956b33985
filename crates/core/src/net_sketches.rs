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

use pfe_persist::{Decoder, Encoder, Persist, PersistError};
use pfe_row::{ColumnSet, Dataset, PatternCodec, PatternCodecError, PatternKey};
use pfe_sketch::traits::SpaceUsage;

use crate::alpha_net::{AlphaNet, NetMode, RoundedQuery};
use crate::problem::QueryError;

/// One materialized net subset: its columns, the codec of its projection
/// width, and the statistic's sketch over the projected stream.
#[derive(Clone)]
struct Member<T> {
    cols: ColumnSet,
    codec: PatternCodec,
    sketch: T,
}

impl<T> Member<T> {
    /// # Panics
    /// Panics unless [`check_codecs`] passed for `(net, mode, q)` and
    /// `mask` is a member of that net.
    fn new(net: &AlphaNet, q: u32, mask: u64, sketch: T) -> Self {
        let cols = ColumnSet::from_mask(net.dimension(), mask).expect("net member is a valid mask");
        let codec = PatternCodec::new(q, cols.len()).expect("member widths validated");
        Self {
            cols,
            codec,
            sketch,
        }
    }

    fn feed_packed(&mut self, row: u64, feed: &mut impl FnMut(&mut T, PatternKey)) {
        let key = PatternKey::from(pfe_row::pext_u64(row, self.cols.mask()));
        feed(&mut self.sketch, key);
    }

    fn feed_dense(&mut self, row: &[u16], feed: &mut impl FnMut(&mut T, PatternKey)) {
        let key = self.codec.encode_row(row, &self.cols);
        feed(&mut self.sketch, key);
    }
}

/// Every projection width the net materializes under `mode` must have a
/// pattern codec over alphabet `q`, so projecting a row can never fail.
fn check_codecs(net: &AlphaNet, mode: NetMode, q: u32) -> Result<(), PatternCodecError> {
    for w in net.member_widths(mode) {
        PatternCodec::new(q, w)?;
    }
    Ok(())
}

/// The sketches of one α-net summary, one per materialized member.
#[derive(Clone)]
pub(crate) struct NetSketches<T> {
    net: AlphaNet,
    mode: NetMode,
    q: u32,
    /// Ascending by mask.
    members: Vec<Member<T>>,
}

impl<T> NetSketches<T> {
    /// Materialize `factory(mask)` for every member of `net` under `mode`.
    ///
    /// # Errors
    /// `q < 2`, more than `max_subsets` members, or a member width whose
    /// pattern domain `q^w` has no codec.
    pub(crate) fn new(
        net: AlphaNet,
        mode: NetMode,
        max_subsets: u128,
        q: u32,
        mut factory: impl FnMut(u64) -> T,
    ) -> Result<Self, QueryError> {
        if q < 2 {
            return Err(QueryError::BadParameter(format!(
                "alphabet q={q} must be >= 2"
            )));
        }
        let count = net.member_count(mode);
        if count > max_subsets {
            return Err(QueryError::BadParameter(format!(
                "net would materialize {count} subsets, above the safety cap {max_subsets}"
            )));
        }
        check_codecs(&net, mode, q)?;
        // The factory sees masks in the net's own (weight-major) order.
        let mut members = Vec::with_capacity(count as usize);
        members.extend(
            net.members(mode)
                .map(|mask| Member::new(&net, q, mask, factory(mask))),
        );
        members.sort_unstable_by_key(|m: &Member<T>| m.cols.mask());
        Ok(Self {
            net,
            mode,
            q,
            members,
        })
    }

    /// [`new`](Self::new), then feed every projected row of `data` to
    /// every member. Subset-major (all rows per member, then the next
    /// member) keeps each sketch hot in cache.
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
        mut feed: impl FnMut(&mut T, PatternKey),
    ) -> Result<Self, QueryError> {
        if data.dimension() != net.dimension() {
            return Err(QueryError::DimensionMismatch {
                data: data.dimension(),
                query: net.dimension(),
            });
        }
        let mut this = Self::new(net, mode, max_subsets, data.alphabet(), factory)?;
        for m in &mut this.members {
            match data {
                Dataset::Binary(rows) => {
                    for &row in rows.rows() {
                        m.feed_packed(row, &mut feed);
                    }
                }
                Dataset::Qary(rows) => {
                    for i in 0..rows.num_rows() {
                        m.feed_dense(rows.row(i), &mut feed);
                    }
                }
            }
        }
        Ok(this)
    }

    /// Project one packed binary row onto every member (row-major).
    ///
    /// # Panics
    /// Panics if the summary is not binary or the row has bits at or
    /// above `d`.
    pub(crate) fn push_packed(&mut self, row: u64, mut feed: impl FnMut(&mut T, PatternKey)) {
        assert_eq!(self.q, 2, "push_packed requires a binary summary");
        assert!(
            row >> self.net.dimension() == 0,
            "row has bits above d={}",
            self.net.dimension()
        );
        for m in &mut self.members {
            m.feed_packed(row, &mut feed);
        }
    }

    /// Project one dense row onto every member (row-major). A binary
    /// summary packs the row and takes the [`push_packed`](Self::push_packed)
    /// path, so both surfaces feed identical keys.
    ///
    /// # Panics
    /// Panics on wrong row length or out-of-alphabet symbols.
    pub(crate) fn push_dense(&mut self, row: &[u16], mut feed: impl FnMut(&mut T, PatternKey)) {
        assert_eq!(row.len(), self.net.dimension() as usize, "row length != d");
        for &s in row {
            assert!((s as u32) < self.q, "symbol {s} outside alphabet");
        }
        if self.q == 2 {
            let packed = row
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, &s)| acc | (s as u64) << i);
            return self.push_packed(packed, feed);
        }
        for m in &mut self.members {
            m.feed_dense(row, &mut feed);
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
        check_codecs(&net, mode, q)
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
        let mut members = Vec::with_capacity(n);
        for want in masks {
            let mask = dec.take_u64()?;
            if mask != want {
                return Err(PersistError::Malformed(format!(
                    "sketch map holds subset {mask:#b} where net member {want:#b} belongs"
                )));
            }
            members.push(Member::new(&net, q, mask, T::decode(dec)?));
        }
        Ok(Self {
            net,
            mode,
            q,
            members,
        })
    }
}

impl<T: SpaceUsage> NetSketches<T> {
    /// Heap bytes of the member table (the owning summary adds its own
    /// inline size).
    pub(crate) fn member_bytes(&self) -> usize {
        let overhead = std::mem::size_of::<Member<T>>() - std::mem::size_of::<T>();
        self.sketches()
            .map(|s| s.space_bytes() + overhead)
            .sum::<usize>()
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

    fn check<T: Persist>(s: Surface<T>) {
        let datasets = [
            (uniform_binary(10, 900, 7), AlphaNet::new(10, 0.25)),
            (uniform_qary(4, 7, 400, 23), AlphaNet::new(7, 0.3)),
        ];
        for (data, net) in datasets {
            let (net, q, name) = (net.expect("valid"), data.alphabet(), s.name);
            let rows: Vec<Vec<u16>> = (0..data.num_rows()).map(|i| data.row_dense(i)).collect();
            let built = bytes(&(s.build)(&data, net));

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
            merge: AlphaNetFp::merge,
            merge_is_exact: false,
        });
        check(Surface {
            name: "Frequency/CountMin",
            build: |d, n| AlphaNetFrequency::build(d, n, 4, 128, CAP, 9).expect("build"),
            empty: |n, q| AlphaNetFrequency::new_streaming(n, q, 4, 128, CAP, 9).expect("new"),
            push_packed: AlphaNetFrequency::push_packed,
            push_dense: AlphaNetFrequency::push_dense,
            merge: AlphaNetFrequency::merge,
            merge_is_exact: true,
        });
    }
}
