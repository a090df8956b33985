//! Durability parity: a resumed engine must be indistinguishable from the
//! engine that never stopped, and snapshot files from independent
//! processes must union to the single-process build.

use std::sync::Arc;

use pfe_engine::{
    merge_snapshot_files, Engine, EngineConfig, EngineError, FpConfig, FreqNetConfig, Query,
    Recorder, Snapshot,
};
use pfe_row::{ColumnSet, Dataset};
use pfe_stream::gen::uniform_binary;

fn cfg() -> EngineConfig {
    EngineConfig {
        shards: 3,
        sample_t: 4096, // stays under-full at the row counts below
        kmv_k: 64,
        batch_rows: 64,
        freq_net: Some(FreqNetConfig {
            depth: 4,
            width: 256,
        }),
        // Both F_p plug-in families ride through every checkpoint below:
        // AMS (p = 2) and stable projections (p = 1.5).
        fp: Some(FpConfig {
            orders: vec![2.0, 1.5],
            stable_t: 4,
            ams_groups: 3,
            ams_per_group: 4,
        }),
        seed: 42,
        ..Default::default()
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pfe-engine-persistence-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// The query battery every parity test compares: mixed in-net, rounded,
/// frequency, heavy-hitter, and `ℓ_1`-sample requests.
fn battery(d: u32) -> Vec<Query> {
    vec![
        Query::over(0..2).f0(),
        Query::over(0..d / 2).f0(),
        Query::over(0..d).f0(),
        Query::over([0, 1]).frequency([1u16, 0]),
        Query::over([0, 1, 2]).heavy_hitters(0.05),
        Query::over([0, 1, 2]).l1_sample(8).with_seed(5),
        Query::over(0..2).fp(2.0),
        Query::over(0..d / 2).fp(1.5),
    ]
}

#[test]
fn checkpoint_resume_answers_bit_identical() {
    let d = 12;
    let path = tmp("roundtrip.pfes");
    let engine = Engine::start(d, 2, cfg()).expect("start");
    engine.ingest(&uniform_binary(d, 3000, 7)).expect("ingest");
    engine.checkpoint(&path).expect("checkpoint");
    let recorder = Arc::new(Recorder::new());
    let resumed =
        Engine::resume_with_recorder(&path, cfg(), Arc::clone(&recorder)).expect("resume");
    // The resumed engine serves immediately — no refresh needed — and
    // every statistic matches to the bit.
    for req in battery(d) {
        let a = engine.query(&req).expect("original answers");
        let b = resumed.query(&req).expect("resumed answers");
        // Compare values and guarantees; cache/cost metadata is
        // legitimately engine-local.
        assert_eq!(a.value, b.value, "answers diverged on {req:?}");
        assert_eq!(a.guarantee, b.guarantee, "guarantees diverged on {req:?}");
        assert_eq!(a.provenance, b.provenance);
    }
    resumed.sync_gauges();
    assert_eq!(recorder.gauge("engine_snapshot_rows").get(), 3000);
    std::fs::remove_file(&path).ok();
}

#[test]
fn resumed_engine_continues_ingesting() {
    let d = 10;
    let path = tmp("continue.pfes");
    let first = uniform_binary(d, 1500, 21);
    let second = uniform_binary(d, 1500, 22);

    // Uninterrupted reference: both chunks through one engine.
    let full = Engine::start(d, 2, cfg()).expect("start");
    full.ingest(&first).expect("ingest");
    full.ingest(&second).expect("ingest");
    full.refresh().expect("refresh");

    // Interrupted run: chunk 1, checkpoint, resume, chunk 2.
    let before = Engine::start(d, 2, cfg()).expect("start");
    before.ingest(&first).expect("ingest");
    before.checkpoint(&path).expect("checkpoint");
    let resumed = Engine::resume(&path, cfg()).expect("resume");
    resumed.ingest(&second).expect("ingest after resume");
    let resumed_snap = resumed.refresh().expect("refresh");
    assert_eq!(resumed_snap.n(), 3000, "resumed snapshot covers all rows");

    // KMV unions are order-insensitive and CountMin merges are additive,
    // so the sketch-backed statistics stay bit-exact across the restart.
    let full_snap = full.snapshot().expect("published");
    for mask in [0b11u64, 0b11111, (1 << d) - 1] {
        let cols = ColumnSet::from_mask(d, mask).expect("valid");
        assert_eq!(
            full_snap.f0(&cols).expect("ok").estimate,
            resumed_snap.f0(&cols).expect("ok").estimate,
            "F0 diverged after resume at mask {mask:#b}"
        );
        let key = full_snap
            .encode_pattern(&cols, &vec![0; mask.count_ones() as usize])
            .expect("ok");
        assert_eq!(
            full_snap.frequency(&cols, key).expect("ok").upper_bound,
            resumed_snap.frequency(&cols, key).expect("ok").upper_bound,
            "CountMin bound diverged after resume at mask {mask:#b}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn merged_half_stream_files_equal_single_stream_snapshot() {
    let d = 12;
    let data = uniform_binary(d, 2400, 33);
    let rows: Vec<u64> = match &data {
        Dataset::Binary(m) => m.rows().to_vec(),
        Dataset::Qary(_) => unreachable!("generator yields binary data"),
    };
    let (path_a, path_b, path_full) = (tmp("half-a.pfes"), tmp("half-b.pfes"), tmp("full.pfes"));

    // Two independent "processes" each summarize half the stream.
    let a = Engine::start(d, 2, cfg()).expect("start");
    for &row in &rows[..1200] {
        a.push_packed_batch(&[row]).expect("push");
    }
    a.checkpoint(&path_a).expect("checkpoint a");
    let b = Engine::start(d, 2, cfg()).expect("start");
    for &row in &rows[1200..] {
        b.push_packed_batch(&[row]).expect("push");
    }
    b.checkpoint(&path_b).expect("checkpoint b");

    // One process summarizes everything.
    let full = Engine::start(d, 2, cfg()).expect("start");
    full.ingest(&data).expect("ingest");
    full.checkpoint(&path_full).expect("checkpoint full");
    let full_snap = Snapshot::load_from(&path_full).expect("load full");

    // Cross-process union == single-process build, statistic by statistic.
    let merged = merge_snapshot_files(&[&path_a, &path_b]).expect("merge");
    assert_eq!(merged.n(), full_snap.n());
    for mask in [0b1u64, 0b1111, 0b101010101010, (1 << d) - 1] {
        let cols = ColumnSet::from_mask(d, mask).expect("valid");
        assert_eq!(
            merged.f0(&cols).expect("ok"),
            full_snap.f0(&cols).expect("ok"),
            "merged F0 diverged at mask {mask:#b}"
        );
        let pattern = vec![0u16; mask.count_ones() as usize];
        let key = merged.encode_pattern(&cols, &pattern).expect("ok");
        // Reservoirs stay under-full at these sizes, so the merged sample
        // is the exact union and the estimates match to the bit.
        assert_eq!(
            merged.frequency(&cols, key).expect("ok"),
            full_snap.frequency(&cols, key).expect("ok"),
            "merged frequency diverged at mask {mask:#b}"
        );
        assert_eq!(
            merged.heavy_hitters(&cols, 0.05, 1.0, 2.0).expect("ok"),
            full_snap.heavy_hitters(&cols, 0.05, 1.0, 2.0).expect("ok"),
            "merged heavy hitters diverged at mask {mask:#b}"
        );
        // AMS F_2 counters are i64 sums: cross-process union is bit-exact.
        assert_eq!(
            merged.fp(&cols, 2.0).expect("ok").estimate.to_bits(),
            full_snap.fp(&cols, 2.0).expect("ok").estimate.to_bits(),
            "merged AMS F_2 diverged at mask {mask:#b}"
        );
        // Stable-projection sums are f64: the union reassociates the
        // additions, so equality holds up to the last ulp, not bit-wise.
        let (m, s) = (
            merged.fp(&cols, 1.5).expect("ok").estimate,
            full_snap.fp(&cols, 1.5).expect("ok").estimate,
        );
        assert!(
            (m - s).abs() <= 1e-9 * s.abs().max(1.0),
            "merged stable F_1.5 diverged at mask {mask:#b}: {m} vs {s}"
        );
    }
    for p in [path_a, path_b, path_full] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn corrupt_files_are_typed_errors_never_panics() {
    let d = 8;
    let path = tmp("corrupt.pfes");
    let engine = Engine::start(d, 2, cfg()).expect("start");
    engine.ingest(&uniform_binary(d, 400, 3)).expect("ingest");
    engine.checkpoint(&path).expect("checkpoint");
    let pristine = std::fs::read(&path).expect("read");

    // Bit-flips anywhere in the file are detected (checksum or decoder).
    let step = (pristine.len() / 97).max(1);
    for byte in (0..pristine.len()).step_by(step) {
        let mut bytes = pristine.clone();
        bytes[byte] ^= 0x10;
        std::fs::write(&path, &bytes).expect("write");
        let r = Snapshot::load_from(&path);
        assert!(
            matches!(r, Err(EngineError::Persist(_))),
            "bit flip at byte {byte} not rejected: {r:?}",
            r = r.map(|_| "decoded fine")
        );
    }

    // Truncations at any prefix length are detected.
    for cut in [0, 3, 8, 15, 16, pristine.len() / 2, pristine.len() - 1] {
        std::fs::write(&path, &pristine[..cut]).expect("write");
        assert!(
            matches!(Snapshot::load_from(&path), Err(EngineError::Persist(_))),
            "truncation to {cut} bytes not rejected"
        );
    }

    // Wrong magic / wrong version / wrong kind are each their own error.
    let mut bad_magic = pristine.clone();
    bad_magic[0] = b'X';
    std::fs::write(&path, &bad_magic).expect("write");
    assert!(matches!(
        Snapshot::load_from(&path),
        Err(EngineError::Persist(
            pfe_persist::PersistError::BadMagic { .. }
        ))
    ));
    let mut bad_version = pristine.clone();
    bad_version[4] = 0xff;
    std::fs::write(&path, &bad_version).expect("write");
    assert!(matches!(
        Snapshot::load_from(&path),
        Err(EngineError::Persist(
            pfe_persist::PersistError::UnsupportedVersion { .. }
        ))
    ));
    let sketch_kind_file = pfe_persist::frame::to_bytes(pfe_persist::kind::SKETCH, &7u64);
    std::fs::write(&path, &sketch_kind_file).expect("write");
    assert!(matches!(
        Snapshot::load_from(&path),
        Err(EngineError::Persist(pfe_persist::PersistError::WrongKind {
            found: pfe_persist::kind::SKETCH,
            expected: pfe_persist::kind::SNAPSHOT,
        }))
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_rejects_mismatched_config() {
    let d = 8;
    let path = tmp("mismatch.pfes");
    let engine = Engine::start(d, 2, cfg()).expect("start");
    engine.ingest(&uniform_binary(d, 300, 5)).expect("ingest");
    engine.checkpoint(&path).expect("checkpoint");
    for (what, bad) in [
        (
            "sample_t",
            EngineConfig {
                sample_t: 512,
                ..cfg()
            },
        ),
        (
            "alpha",
            EngineConfig {
                alpha: 0.1,
                ..cfg()
            },
        ),
        (
            "kmv_k",
            EngineConfig {
                kmv_k: 128,
                ..cfg()
            },
        ),
        ("seed", EngineConfig { seed: 7, ..cfg() }),
        (
            "freq_net off",
            EngineConfig {
                freq_net: None,
                ..cfg()
            },
        ),
        (
            "freq_net shape",
            EngineConfig {
                freq_net: Some(FreqNetConfig {
                    depth: 2,
                    width: 64,
                }),
                ..cfg()
            },
        ),
        ("fp off", EngineConfig { fp: None, ..cfg() }),
        (
            "fp orders",
            EngineConfig {
                fp: Some(FpConfig {
                    orders: vec![2.0, 0.5],
                    ..cfg().fp.unwrap()
                }),
                ..cfg()
            },
        ),
        (
            "fp shape",
            EngineConfig {
                fp: Some(FpConfig {
                    stable_t: 8,
                    ..cfg().fp.unwrap()
                }),
                ..cfg()
            },
        ),
    ] {
        assert!(
            matches!(
                Engine::resume(&path, bad),
                Err(EngineError::Incompatible(_))
            ),
            "mismatched {what} accepted by resume"
        );
    }
    // Shard count and cache size may legitimately change across restarts.
    let restarted = Engine::resume(
        &path,
        EngineConfig {
            shards: 1,
            cache_capacity: 16,
            ..cfg()
        },
    );
    assert!(restarted.is_ok(), "shards/cache are not part of the state");
    std::fs::remove_file(&path).ok();
}

#[test]
fn merge_rejects_incompatible_snapshot_files() {
    let d = 8;
    let (path_a, path_b) = (tmp("inc-a.pfes"), tmp("inc-b.pfes"));
    let a = Engine::start(d, 2, cfg()).expect("start");
    a.ingest(&uniform_binary(d, 200, 1)).expect("ingest");
    a.checkpoint(&path_a).expect("checkpoint");
    let b = Engine::start(d, 2, EngineConfig { seed: 99, ..cfg() }).expect("start");
    b.ingest(&uniform_binary(d, 200, 2)).expect("ingest");
    b.checkpoint(&path_b).expect("checkpoint");
    assert!(matches!(
        merge_snapshot_files(&[&path_a, &path_b]),
        Err(EngineError::Incompatible(_))
    ));
    for p in [path_a, path_b] {
        std::fs::remove_file(p).ok();
    }
}

/// Byte length and the frame's own trailing CRC-32 of a checkpoint file.
fn length_and_crc(path: &std::path::Path) -> (usize, u32) {
    let bytes = std::fs::read(path).expect("read");
    let crc = bytes[bytes.len() - 4..].try_into().expect("4 bytes");
    (bytes.len(), u32::from_le_bytes(crc))
}

#[test]
fn checkpoint_bytes_are_pinned_across_commits() {
    // Round-trip tests only prove a commit agrees with itself. These
    // values were recorded at 6b95527, before the α-net summaries moved
    // onto one member container: a seeded stream must keep producing the
    // same file, byte for byte, whatever holds the sketches in memory.
    let binary = tmp("pinned-binary.pfes");
    let engine = Engine::start(12, 2, cfg()).expect("start");
    engine.ingest(&uniform_binary(12, 3000, 7)).expect("ingest");
    engine.checkpoint(&binary).expect("checkpoint");
    assert_eq!(length_and_crc(&binary), (5_594_858, 0xe571_1b9d));

    // Q = 4 takes the dense push path; frequency net on, AMS and a
    // stable-projection moment net.
    let qary = tmp("pinned-q4.pfes");
    let qcfg = EngineConfig {
        fp: Some(FpConfig {
            orders: vec![2.0, 1.0],
            ..cfg().fp.expect("set")
        }),
        ..cfg()
    };
    let engine = Engine::start(8, 4, qcfg).expect("start");
    engine
        .ingest(&pfe_stream::gen::uniform_qary(4, 8, 1500, 9))
        .expect("ingest");
    engine.checkpoint(&qary).expect("checkpoint");
    assert_eq!(length_and_crc(&qary), (727_402, 0x8182_aa79));
    std::fs::remove_file(&binary).ok();
    std::fs::remove_file(&qary).ok();
}
