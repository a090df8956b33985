//! Checkpoint bytes pinned across commits: two seeded engines must keep
//! writing the same file, byte for byte. A round trip only proves a build
//! agrees with itself; these constants catch a codec or checksum change
//! that moves a byte. Each file is pinned by its length and its trailing
//! CRC-32, which covers every byte before it. The constants were taken
//! before checkpoints were written and checked a slice at a time, with a
//! byte-at-a-time codec and checksum.

use std::path::PathBuf;

use subspace_exploration::engine::{Engine, EngineConfig, FpConfig, FreqNetConfig};
use subspace_exploration::row::Dataset;
use subspace_exploration::stream::gen::{uniform_binary, uniform_qary};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pfe-checkpoint-bytes-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{}-{name}", std::process::id()))
}

/// Checkpoint `rows` through a fresh engine; the file's length and the
/// CRC-32 in its last four bytes.
fn length_and_crc(name: &str, d: u32, q: u32, cfg: EngineConfig, rows: &Dataset) -> (usize, u32) {
    let path = tmp(name);
    let engine = Engine::start(d, q, cfg).expect("start");
    engine.ingest(rows).expect("ingest");
    engine.checkpoint(&path).expect("checkpoint");
    engine.shutdown().expect("shutdown");
    let bytes = std::fs::read(&path).expect("read");
    std::fs::remove_file(&path).ok();
    let crc = bytes[bytes.len() - 4..].try_into().expect("4 bytes");
    (bytes.len(), u32::from_le_bytes(crc))
}

#[test]
fn binary_checkpoint_bytes_are_pinned() {
    let cfg = EngineConfig {
        shards: 2,
        sample_t: 256,
        kmv_k: 64,
        seed: 11,
        ..Default::default()
    };
    assert_eq!(
        length_and_crc("binary.pfes", 8, 2, cfg, &uniform_binary(8, 2000, 3)),
        (24_526, 0xc0aa_6619)
    );
}

#[test]
fn qary_checkpoint_with_frequency_ams_and_stable_nets_is_pinned() {
    // Q = 4 takes the dense path; orders 2 and 1.5 give an AMS and a
    // stable-projection moment net beside the CountMin frequency net.
    let cfg = EngineConfig {
        shards: 2,
        sample_t: 256,
        kmv_k: 64,
        freq_net: Some(FreqNetConfig {
            depth: 3,
            width: 64,
        }),
        fp: Some(FpConfig {
            orders: vec![2.0, 1.5],
            stable_t: 4,
            ams_groups: 3,
            ams_per_group: 4,
        }),
        seed: 13,
        ..Default::default()
    };
    assert_eq!(
        length_and_crc("q4.pfes", 6, 4, cfg, &uniform_qary(4, 6, 1000, 5)),
        (42_074, 0x224e_3231)
    );
}
