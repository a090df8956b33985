//! The [`Backend`] contract, once, over both engines — and the window
//! resume probe over every summary parameter.
//!
//! Everything above `pfe-window` (wire dispatcher, CLI, file sink) holds a
//! `Backend` and never looks inside, so what it may rely on is pinned
//! here: one script, run against `Backend::start(.., None, ..)` and
//! `Backend::start(.., Some(wcfg), ..)`.

use std::path::PathBuf;
use std::sync::Arc;

use pfe_core::FpConfig;
use pfe_engine::{
    AnswerValue, EngineConfig, EngineError, FreqNetConfig, Query, Recorder, TraceHandle,
};
use pfe_row::Dataset;
use pfe_stream::gen::uniform_binary;
use pfe_window::{Backend, WindowConfig};

const D: u32 = 10;

fn ecfg() -> EngineConfig {
    EngineConfig {
        shards: 2,
        sample_t: 4096, // above every stream here: merges stay lossless
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
        ..Default::default()
    }
}

fn wcfg() -> WindowConfig {
    WindowConfig {
        bucket_rows: 64,
        tier_cap: 3,
        max_tiers: 6,
        merged_cache: 2,
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pfe-window-backend-tests");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir.join(name)
}

fn rows(n: usize, seed: u64) -> Vec<u64> {
    match uniform_binary(D, n, seed) {
        Dataset::Binary(m) => m.rows().to_vec(),
        Dataset::Qary(_) => unreachable!("generator yields binary data"),
    }
}

/// One of each statistic.
fn battery() -> Vec<Query> {
    vec![
        Query::over([0, 1, 2, 3]).f0(),
        Query::over([0, 1]).frequency([1u16, 0]),
        Query::over([0, 1, 2]).heavy_hitters(0.05),
        Query::over([0, 1, 2]).l1_sample(8).with_seed(7),
        Query::over([0, 1, 2, 3]).fp(2.0),
    ]
}

fn values(backend: &Backend) -> Vec<AnswerValue> {
    backend
        .query_batch_traced(&battery(), &TraceHandle::disabled())
        .into_iter()
        .map(|a| a.expect("every statistic answers").value)
        .collect()
}

#[test]
fn one_script_over_both_engines() {
    for (name, wcfg) in [("plain", None), ("windowed", Some(wcfg()))] {
        let windowed = wcfg.is_some();
        let recorder = Arc::new(Recorder::new());
        let backend = Backend::start(D, 2, ecfg(), wcfg, recorder).expect("start");
        assert_eq!((backend.dimension(), backend.alphabet()), (D, 2), "{name}");
        assert_eq!(backend.window_stats().is_some(), windowed, "{name}");
        assert_eq!(backend.plain().is_some(), !windowed, "{name}");

        // A packed chunk, then the same stream's next rows as a dense one.
        let trace = TraceHandle::disabled();
        let packed = rows(200, 3);
        backend.push_packed_batch(&packed, &trace).expect("packed");
        let dense: Vec<u16> = rows(100, 4)
            .iter()
            .flat_map(|&row| (0..D).map(move |i| ((row >> i) & 1) as u16))
            .collect();
        backend.push_dense_batch(&dense, &trace).expect("dense");
        // A malformed chunk is a typed error that ingests nothing.
        assert!(backend.push_packed_batch(&[1 << D], &trace).is_err());
        assert!(backend.push_dense_batch(&dense[..7], &trace).is_err());

        let (epoch, published) = backend.publish().expect("publish");
        assert_eq!(published, 300, "{name}");
        assert_eq!(
            epoch.is_some(),
            !windowed,
            "{name}: only snapshots have epochs"
        );
        let before = values(&backend);
        let stats = backend.stats();
        assert_eq!(stats.rows_ingested, 300, "{name}");
        assert_eq!(stats.snapshot_rows, 300, "{name}");
        assert_eq!(stats.queries_served, battery().len() as u64, "{name}");

        let path = tmp(&format!("contract-{name}.pfes"));
        backend.checkpoint(&path).expect("checkpoint");
        backend.close();
        backend.close(); // idempotent
        assert_eq!(
            values(&backend),
            before,
            "{name}: closed backends still answer"
        );

        let resumed = Backend::resume(&path, ecfg(), Arc::new(Recorder::new())).expect("resume");
        assert_eq!(resumed.window_stats().is_some(), windowed, "{name}");
        assert_eq!((resumed.dimension(), resumed.alphabet()), (D, 2), "{name}");
        assert_eq!(values(&resumed), before, "{name}: resumed answers differ");
        assert_eq!(resumed.stats().rows_ingested, 300, "{name}");
        // …and keeps ingesting.
        resumed
            .push_packed_batch(&rows(50, 5), &trace)
            .expect("push");
        assert_eq!(resumed.publish().expect("publish").1, 350, "{name}");
        resumed.close();
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn resume_of_an_unservable_kind_is_a_typed_error() {
    let path = tmp("sketch.pfes");
    let sketch = pfe_sketch::Kmv::new(16, 1);
    pfe_persist::save(&path, pfe_persist::kind::SKETCH, &sketch).expect("save");
    match Backend::resume(&path, ecfg(), Arc::new(Recorder::new())) {
        Err(EngineError::Incompatible(msg)) => assert!(msg.contains("not servable"), "{msg}"),
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("a sketch file resumed into a backend"),
    }
    assert!(matches!(
        Backend::resume(tmp("missing.pfes"), ecfg(), Arc::new(Recorder::new())),
        Err(EngineError::Persist(_))
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn ring_resume_rejects_every_differing_summary_parameter() {
    let backend =
        Backend::start(D, 2, ecfg(), Some(wcfg()), Arc::new(Recorder::new())).expect("start");
    backend
        .push_packed_batch(&rows(200, 9), &TraceHandle::disabled())
        .expect("ingest");
    let stats = backend.window_stats().expect("windowed");
    assert!(stats.sealed_buckets >= 2 && stats.active_rows > 0);
    let path = tmp("probe.pfew");
    backend.checkpoint(&path).expect("checkpoint");

    let resume = |cfg: EngineConfig| Backend::resume(&path, cfg, Arc::new(Recorder::new()));
    assert!(resume(ecfg()).is_ok(), "the same config resumes");
    // Serving-only fields are not summary parameters.
    let serving = EngineConfig {
        shards: 7,
        cache_capacity: 3,
        ..ecfg()
    };
    assert!(resume(serving).is_ok());
    let fp_orders = |orders: Vec<f64>| {
        Some(FpConfig {
            orders,
            ..ecfg().fp.expect("fp on")
        })
    };
    for (what, cfg) in [
        (
            "seed",
            EngineConfig {
                seed: 999,
                ..ecfg()
            },
        ),
        (
            "kmv_k",
            EngineConfig {
                kmv_k: 32,
                ..ecfg()
            },
        ),
        (
            "sample_t",
            EngineConfig {
                sample_t: 2048,
                ..ecfg()
            },
        ),
        (
            "alpha",
            EngineConfig {
                alpha: 0.3,
                ..ecfg()
            },
        ),
        (
            "fp orders",
            EngineConfig {
                fp: fp_orders(vec![2.0, 1.0]),
                ..ecfg()
            },
        ),
        ("fp count", EngineConfig { fp: None, ..ecfg() }),
        (
            "freq_net presence",
            EngineConfig {
                freq_net: None,
                ..ecfg()
            },
        ),
        (
            "freq_net geometry",
            EngineConfig {
                freq_net: Some(FreqNetConfig {
                    depth: 3,
                    width: 128,
                }),
                ..ecfg()
            },
        ),
    ] {
        match resume(cfg) {
            Err(EngineError::Incompatible(_)) => {}
            Err(other) => panic!("{what}: wrong error: {other}"),
            Ok(_) => panic!("{what}: a mismatched config resumed the ring"),
        }
    }
    std::fs::remove_file(&path).ok();
}
