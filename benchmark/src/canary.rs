//! Two fixed kernels of the harness's own (no repo code) that read the
//! machine, not the program.
//!
//! * [`spin_ms`] — a serial ALU chain. Run before and after every timed
//!   section and printed as `canary_ms`; two readings more than
//!   [`DRIFT_LIMIT`] apart flag the section as measured under drift.
//! * [`Calibrator`] — a cache-resident sorted-array insert kernel, sampled
//!   between the segments of every timed section. The sandbox's speed moves
//!   in episodes that last from a second to minutes and sit in the memory
//!   system: identical `pfe ingest` passes ranged 0.75–1.5 s inside four
//!   minutes while the ALU chain did not move. This kernel moves with
//!   them, so every *time* the harness reports is scaled by
//!   `REFERENCE_MS / kernel time around that segment`. Over ten seeds per
//!   workload taken through such episodes that cut the spread (IQR ÷
//!   median) of `ops_per_s` on `serve_hot` from 0.21 to 0.12 and of
//!   `cpu_us_per_op` on `window_mixed` from 0.48 to 0.21; it does not
//!   remove it, because different code feels an episode differently.
//!   Raw, unscaled figures are printed beside the scaled ones.

use std::time::Instant;

/// Spin readings that differ by more than this share are drift.
pub const DRIFT_LIMIT: f64 = 0.10;

fn spin_kernel() -> u64 {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut acc = 0u64;
    for _ in 0..4_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x >> 3);
    }
    acc
}

/// Milliseconds for one spin kernel: the fastest of five, so a single
/// preemption does not read as drift.
pub fn spin_ms() -> f64 {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(spin_kernel());
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Relative difference between two spin readings.
pub fn drift(before_ms: f64, after_ms: f64) -> f64 {
    (before_ms - after_ms).abs() / before_ms.min(after_ms)
}

/// What one calibration sample takes on the sandbox when it is quiet;
/// fixed, so scaled times stay comparable from run to run and read as
/// "time on a quiet machine".
pub const REFERENCE_MS: f64 = 16.0;

const ARRAYS: usize = 600;
const ARRAY_LEN: usize = 256;
const ITEMS: u64 = 1_000;

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// The calibration kernel: 600 sorted arrays of 256 hashes (1.2 MB, so it
/// lives in the shared cache levels), each offered 1,000 items — hash,
/// compare with the largest kept, binary search, insert. Every sample
/// starts from the same arrays and does the same work.
pub struct Calibrator {
    pristine: Vec<u64>,
    work: Vec<u64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    pub fn new() -> Self {
        let mut pristine = Vec::with_capacity(ARRAYS * ARRAY_LEN);
        for a in 0..ARRAYS as u64 {
            let mut arr: Vec<u64> = (0..ARRAY_LEN as u64).map(|j| mix(a * 1_000 + j)).collect();
            arr.sort_unstable();
            pristine.extend(arr);
        }
        Calibrator {
            work: pristine.clone(),
            pristine,
        }
    }

    fn kernel(&mut self) -> u64 {
        self.work.copy_from_slice(&self.pristine);
        let mut kept = 0u64;
        for item in 0..ITEMS {
            for (a, arr) in self.work.chunks_exact_mut(ARRAY_LEN).enumerate() {
                let h = mix(item ^ ((a as u64) << 32));
                if h >= arr[ARRAY_LEN - 1] {
                    continue;
                }
                if let Err(at) = arr.binary_search(&h) {
                    arr.copy_within(at..ARRAY_LEN - 1, at + 1);
                    arr[at] = h;
                    kept += 1;
                }
            }
        }
        kept
    }

    /// One reading in milliseconds: the median of three kernel runs.
    pub fn sample_ms(&mut self) -> f64 {
        let mut ms: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(self.kernel());
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        ms[1]
    }
}

/// The factor that turns a time measured between two calibration readings
/// into time on the reference machine (and divides a rate).
pub fn scale(before_ms: f64, after_ms: f64) -> f64 {
    REFERENCE_MS / ((before_ms + after_ms) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_takes_measurable_time_and_drift_is_relative() {
        let ms = spin_ms();
        assert!(ms > 0.5 && ms < 2_000.0, "spin took {ms} ms");
        assert_eq!(drift(10.0, 10.0), 0.0);
        assert!((drift(10.0, 11.5) - 0.15).abs() < 1e-12);
        assert!((drift(11.5, 10.0) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn calibration_kernel_repeats_its_work_exactly() {
        let mut c = Calibrator::new();
        let first = c.kernel();
        assert_eq!(first, c.kernel(), "every sample does the same inserts");
        assert!(
            first > 50_000,
            "only {first} inserts: the kernel would measure nothing"
        );
        assert!(c
            .work
            .chunks_exact(ARRAY_LEN)
            .all(|a| a.windows(2).all(|w| w[0] <= w[1])));
        let ms = c.sample_ms();
        assert!(ms > 0.5 && ms < 5_000.0, "sample took {ms} ms");
        assert!((scale(REFERENCE_MS, REFERENCE_MS) - 1.0).abs() < 1e-12);
        assert!((scale(3.0 * REFERENCE_MS, REFERENCE_MS) - 0.5).abs() < 1e-12);
    }
}
