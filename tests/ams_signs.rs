//! An AMS sketch's sums are exactly `Σ sign(x)·δ` over its sign hashes,
//! whichever kernel this CPU runs. The hashes are read back from the
//! sketch's own encoding and evaluated one at a time by
//! `SignHash::sign`, so the check does not share the update's code path.

use subspace_exploration::hash::{SignHash, SplitMix64};
use subspace_exploration::persist::{Decoder, Encoder, Persist};
use subspace_exploration::sketch::traits::MomentSketch;
use subspace_exploration::sketch::AmsF2;

const P: u64 = (1 << 61) - 1;

/// Items at the edges of the field reduction, then seeded random ones.
fn items() -> Vec<u64> {
    let edges = [0, 1, P - 1, P, P + 1, 1 << 61, (1 << 62) + 5, u64::MAX];
    let mut rng = SplitMix64::new(0xa115);
    edges
        .into_iter()
        .chain((0..500).map(|_| rng.next_u64()))
        .collect()
}

/// `(per_group, sums, hashes)` as the sketch encodes them.
fn decode(sketch: &AmsF2) -> (u64, Vec<i64>, Vec<SignHash>) {
    let mut enc = Encoder::new();
    sketch.encode(&mut enc);
    let bytes = enc.into_bytes();
    let mut dec = Decoder::new(&bytes);
    let per_group = dec.take_u64().expect("per_group");
    let sums = Vec::<i64>::decode(&mut dec).expect("sums");
    let hashes = Vec::<SignHash>::decode(&mut dec).expect("sign hashes");
    (per_group, sums, hashes)
}

#[test]
fn every_ams_sum_is_the_signed_weight_of_its_hash() {
    // 80 and 21 estimators: the second is not a multiple of 8 lanes.
    for (groups, per_group, seed) in [(5, 16, 3), (3, 7, 0x5eed)] {
        let mut sketch = AmsF2::new(groups, per_group, seed);
        let mut updates = Vec::new();
        for (i, x) in items().into_iter().enumerate() {
            let delta = [1, 7, u32::MAX as i64][i % 3];
            updates.push((x, delta));
            if i == 40 {
                updates.push((x, -3 * delta));
            }
        }
        for &(x, delta) in &updates {
            sketch.update(x, delta);
        }
        let (stored_per_group, sums, hashes) = decode(&sketch);
        assert_eq!(stored_per_group, per_group as u64);
        assert_eq!(sums.len(), groups * per_group);
        assert_eq!(hashes.len(), sums.len());
        for (j, (sum, h)) in sums.iter().zip(&hashes).enumerate() {
            let want: i64 = updates.iter().map(|&(x, d)| h.sign(x) * d).sum();
            assert_eq!(*sum, want, "shape {groups}x{per_group}, estimator {j}");
        }
    }
}
