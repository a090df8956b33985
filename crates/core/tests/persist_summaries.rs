//! Round-trip property tests at the summary level: a decoded summary must
//! answer every query bit-identically to the one that was encoded — the
//! contract the engine's durable snapshots are built on.

use pfe_core::alpha_net::{AlphaNet, AlphaNetF0, NetMode};
use pfe_core::{
    AlphaNetFrequency, FpConfig, FpNet, SuiteConfig, SummarySuite, UniformSampleSummary,
};
use pfe_persist::{Decoder, Encoder, Persist, PersistError};
use pfe_row::ColumnSet;
use pfe_sketch::kmv::Kmv;
use pfe_stream::gen::{uniform_binary, uniform_qary, zipf_patterns};
use proptest::prelude::*;

fn encode_to_vec<T: Persist>(value: &T) -> Vec<u8> {
    let mut enc = Encoder::new();
    value.encode(&mut enc);
    enc.into_bytes()
}

fn decode_all<T: Persist>(bytes: &[u8]) -> Result<T, PersistError> {
    let mut dec = Decoder::new(bytes);
    let v = T::decode(&mut dec)?;
    dec.expect_end()?;
    Ok(v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn uniform_sample_roundtrip_identical_answers(
        seed in 0u64..500,
        n in 1usize..3_000,
        t in 1usize..512,
    ) {
        let d = 12;
        let data = zipf_patterns(d, n, 20, 1.2, seed);
        let original = UniformSampleSummary::build(&data, t, seed ^ 0xf00d);
        let bytes = encode_to_vec(&original);
        let restored: UniformSampleSummary = decode_all(&bytes).expect("roundtrip");
        prop_assert_eq!(encode_to_vec(&restored), bytes);
        for mask in [0b1u64, 0b1010, 0b111111111111] {
            let cols = ColumnSet::from_mask(d, mask).expect("valid");
            prop_assert_eq!(
                original.projected_sample(&cols).expect("ok"),
                restored.projected_sample(&cols).expect("ok")
            );
            let hh_a = original.heavy_hitters(&cols, 0.1, 1.0, 2.0).expect("ok");
            let hh_b = restored.heavy_hitters(&cols, 0.1, 1.0, 2.0).expect("ok");
            prop_assert_eq!(hh_a, hh_b);
        }
    }

    #[test]
    fn alpha_net_f0_roundtrip_identical_answers(
        seed in 0u64..500,
        n in 1usize..2_000,
    ) {
        let d = 10;
        let data = uniform_binary(d, n, seed);
        let net = AlphaNet::new(d, 0.25).expect("valid");
        let original = AlphaNetF0::build(&data, net, NetMode::Full, 1 << 20, |mask| {
            Kmv::new(32, mask ^ seed)
        })
        .expect("build");
        let bytes = encode_to_vec(&original);
        let restored: AlphaNetF0<Kmv> = decode_all(&bytes).expect("roundtrip");
        prop_assert_eq!(encode_to_vec(&restored), bytes);
        for mask in [0b1u64, 0b11111, 0b1010101010, (1 << d) - 1] {
            let cols = ColumnSet::from_mask(d, mask).expect("valid");
            prop_assert_eq!(
                original.f0(&cols).expect("ok"),
                restored.f0(&cols).expect("ok")
            );
        }
    }

    #[test]
    fn alpha_net_fp_roundtrip_identical_answers(
        seed in 0u64..200,
        n in 1usize..500,
    ) {
        let d = 8;
        let data = uniform_binary(d, n, seed);
        let net = AlphaNet::new(d, 0.3).expect("valid");
        let cfg = FpConfig { stable_t: 5, ..FpConfig::with_orders([0.5]) };
        let original = FpNet::build(&data, net, NetMode::Full, 1 << 16, 0.5, &cfg, seed)
            .expect("build");
        let bytes = encode_to_vec(&original);
        let restored: FpNet = decode_all(&bytes).expect("roundtrip");
        prop_assert_eq!(encode_to_vec(&restored), bytes);
        for mask in [0b1u64, 0b1111, (1 << d) - 1] {
            let cols = ColumnSet::from_mask(d, mask).expect("valid");
            prop_assert_eq!(
                original.fp(&cols).expect("ok"),
                restored.fp(&cols).expect("ok")
            );
        }
    }

    #[test]
    fn frequency_net_roundtrip_identical_answers(
        seed in 0u64..200,
        n in 1usize..800,
    ) {
        let d = 8;
        let data = uniform_qary(3, d, n, seed);
        let net = AlphaNet::new(d, 0.3).expect("valid");
        let original =
            AlphaNetFrequency::build(&data, net, 3, 64, 1 << 16, seed).expect("build");
        let bytes = encode_to_vec(&original);
        let restored: AlphaNetFrequency = decode_all(&bytes).expect("roundtrip");
        prop_assert_eq!(encode_to_vec(&restored), bytes);
        prop_assert_eq!(original.n(), restored.n());
        let cols = ColumnSet::from_indices(d, &[0, 3]).expect("valid");
        let codec = pfe_row::PatternCodec::new(3, 2).expect("fits");
        for raw in 0..9u128 {
            let key = codec.encode_pattern(&[(raw % 3) as u16, (raw / 3) as u16]);
            prop_assert_eq!(
                original.frequency(&cols, key).expect("ok"),
                restored.frequency(&cols, key).expect("ok")
            );
        }
    }

    #[test]
    fn summary_suite_roundtrip_identical_answers(
        seed in 0u64..200,
        n in 1usize..1_500,
        keep_exact in proptest::strategy::Just(true),
    ) {
        let d = 10;
        let data = uniform_binary(d, n, seed);
        let cfg = SuiteConfig {
            kmv_k: 32,
            sample_t: 256,
            keep_exact,
            seed,
            ..Default::default()
        };
        let original = SummarySuite::build(&data, &cfg).expect("build");
        let bytes = encode_to_vec(&original);
        let restored: SummarySuite = decode_all(&bytes).expect("roundtrip");
        prop_assert_eq!(encode_to_vec(&restored), bytes);
        for mask in [0b11u64, 0b1111100000, (1 << d) - 1] {
            let cols = ColumnSet::from_mask(d, mask).expect("valid");
            prop_assert_eq!(
                original.f0(&cols).expect("ok"),
                restored.f0(&cols).expect("ok")
            );
            // The exact baseline travelled too.
            prop_assert_eq!(
                original.exact().expect("kept").f0(&cols).expect("ok").value,
                restored.exact().expect("kept").f0(&cols).expect("ok").value
            );
        }
    }

    #[test]
    fn summaries_never_panic_on_random_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..300),
    ) {
        let _ = decode_all::<UniformSampleSummary>(&bytes);
        let _ = decode_all::<AlphaNetF0<Kmv>>(&bytes);
        let _ = decode_all::<AlphaNetFrequency>(&bytes);
        let _ = decode_all::<SummarySuite>(&bytes);
    }
}

#[test]
fn cross_dimension_tampering_rejected() {
    // Encode a valid suite, then splice the sample's dimension field: the
    // cross-component consistency check must reject the hybrid.
    let data = uniform_binary(10, 200, 1);
    let suite = SummarySuite::build(
        &data,
        &SuiteConfig {
            keep_exact: false,
            kmv_k: 16,
            sample_t: 64,
            ..Default::default()
        },
    )
    .expect("build");
    let mut enc = Encoder::new();
    suite.encode(&mut enc);
    let mut bytes = enc.into_bytes();
    // Layout: option tag (1 byte), then the sample's d: u32.
    assert_eq!(bytes[0], 0, "exact baseline omitted");
    bytes[1] = 9; // d: 10 -> 9
    let mut dec = Decoder::new(&bytes);
    let r = SummarySuite::decode(&mut dec);
    assert!(
        matches!(r.as_ref().err(), Some(PersistError::Malformed(_))),
        "tampered dimension accepted: {:?}",
        r.is_ok()
    );
}

#[test]
fn alphabet_without_member_codecs_rejected_at_decode() {
    // A summary whose alphabet has no codec for some member width used to
    // decode fine and panic on its first dense push. Splice Q = 2^16 into
    // valid bytes (65536^10 > 2^127): every net summary must refuse it.
    let d = 10;
    let data = uniform_binary(d, 50, 1);
    let net = AlphaNet::new(d, 0.25).expect("valid");
    let f0 =
        AlphaNetF0::build(&data, net, NetMode::Full, 1 << 20, |m| Kmv::new(8, m)).expect("build");
    let cfg = FpConfig {
        stable_t: 4,
        ..FpConfig::with_orders([0.5])
    };
    let fp = FpNet::build(&data, net, NetMode::Full, 1 << 20, 0.5, &cfg, 0).expect("build");
    let freq = AlphaNetFrequency::build(&data, net, 2, 16, 1 << 20, 3).expect("build");

    // `q: u32` follows the net (d: u32, alpha: f64) and, where the summary
    // has one, the mode tag; the fp net leads with its family tag.
    fn with_huge_alphabet(mut bytes: Vec<u8>, q_at: usize) -> Vec<u8> {
        assert_eq!(bytes[q_at..q_at + 4], 2u32.to_le_bytes(), "layout moved");
        bytes[q_at..q_at + 4].copy_from_slice(&(1u32 << 16).to_le_bytes());
        bytes
    }
    let is_malformed = |e: Option<PersistError>| matches!(e, Some(PersistError::Malformed(_)));
    let bytes = with_huge_alphabet(encode_to_vec(&f0), 13);
    assert!(is_malformed(decode_all::<AlphaNetF0<Kmv>>(&bytes).err()));
    let bytes = with_huge_alphabet(encode_to_vec(&fp), 14);
    assert!(is_malformed(decode_all::<FpNet>(&bytes).err()));
    let bytes = with_huge_alphabet(encode_to_vec(&freq), 12);
    assert!(is_malformed(decode_all::<AlphaNetFrequency>(&bytes).err()));
}
