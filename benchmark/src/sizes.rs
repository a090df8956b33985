//! Input sizes and shapes, shared by the end-to-end run and the traced
//! replay so both see the same data.

use crate::gen::Shape;

pub const BINARY: Shape = Shape { d: 12, q: 2 };
pub const QARY: Shape = Shape { d: 10, q: 4 };

pub struct Sizes {
    pub bulk_binary_rows: usize,
    pub bulk_qary_rows: usize,
    pub snapshot_rows: usize,
    pub preload_rows: usize,
    pub bucket_rows: usize,
    pub window_rows: u64,
    pub check_queries: usize,
    /// Timed setups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Sizes {
    /// `quick` is the smoke-test scale: same protocol, tiny inputs.
    pub fn of(quick: bool) -> Self {
        if quick {
            Sizes {
                bulk_binary_rows: 4_000,
                bulk_qary_rows: 1_000,
                snapshot_rows: 4_000,
                preload_rows: 4_096,
                bucket_rows: 512,
                window_rows: 3_000,
                check_queries: 40,
                setups: 1,
            }
        } else {
            Sizes {
                bulk_binary_rows: 100_000,
                bulk_qary_rows: 20_000,
                snapshot_rows: 100_000,
                preload_rows: 65_536,
                bucket_rows: 4_096,
                window_rows: 50_000,
                check_queries: 200,
                setups: 3,
            }
        }
    }
}
