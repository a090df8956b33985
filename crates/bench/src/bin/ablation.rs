//! Ablation experiments (E-A1, E-A2):
//!
//! 1. **Lemma 6.4 tightness** — the measured rounding distortion
//!    `P(A,C′)/P(A,C)` against the bound `2^{|CΔC′|·x}` (`x = 1` for `F_0`,
//!    `|p−1|` for `F_p`), on uniform and adversarial (star-code) data.
//! 2. **Sketch plug-in ablation** — KMV vs LinearCounting vs BJKST
//!    inside the α-net: bytes and observed error at equal α.
//! 3. **Net-mode ablation** — Full vs BoundaryOnly materialization.
//!
//! Run: `cargo run -p pfe-bench --release --bin ablation`

use pfe_bench::report::{banner, fmt_bytes, fmt_f64, Table};
use pfe_codes::constant_weight::ConstantWeightCode;
use pfe_core::alpha_net::{AlphaNet, AlphaNetF0, NetMode};
use pfe_core::ExactSummary;
use pfe_hash::rng::Xoshiro256pp;
use pfe_row::{ColumnSet, Dataset, FrequencyVector};
use pfe_sketch::traits::{DistinctSketch, SpaceUsage};
use pfe_sketch::{Bjkst, Kmv, LinearCounting};
use pfe_stream::adversarial::F0Instance;
use pfe_stream::gen::uniform_binary;

const D: u32 = 12;

fn datasets() -> Vec<(&'static str, Dataset)> {
    let uniform = uniform_binary(D, 4096, 1);
    // Adversarial: a star-code instance (the Theorem 4.1 shape) over
    // binary alphabet — concentrated supports stress the rounding.
    let code = ConstantWeightCode::new(D, 4);
    let mut rng = Xoshiro256pp::seed_from_u64(2);
    let mut words = std::collections::BTreeSet::new();
    while words.len() < 12 {
        let r = (rng.next_u64() as u128) % code.size();
        words.insert(code.unrank(r));
    }
    let words: Vec<u64> = words.into_iter().collect();
    let star = F0Instance::build(code, 2, &words).data;
    vec![("uniform", uniform), ("star-code", star)]
}

/// Part 1: measured distortion vs the Lemma 6.4 bound.
fn distortion_tightness() {
    banner("Lemma 6.4: measured rounding distortion vs bound (E-A1)");
    let mut t = Table::new(
        "Worst measured distortion over 300 queries",
        &[
            "data",
            "P",
            "alpha",
            "worst measured",
            "bound 2^{max |delta| * x}",
            "tight?",
        ],
    );
    for (name, data) in datasets() {
        let exact = ExactSummary::build(&data);
        for &alpha in &[0.1, 0.25, 0.4] {
            let net = AlphaNet::new(D, alpha).expect("valid");
            for &(label, p) in &[("F0", 0.0), ("F0.5", 0.5), ("F2", 2.0)] {
                let x = if p == 0.0 { 1.0 } else { (p - 1.0_f64).abs() };
                let mut rng = Xoshiro256pp::seed_from_u64(3);
                let mut worst: f64 = 1.0;
                let mut worst_bound: f64 = 1.0;
                for _ in 0..300 {
                    let mask = rng.next_u64() & ((1 << D) - 1);
                    let cols = ColumnSet::from_mask(D, mask).expect("valid");
                    let r = net.round(&cols).expect("ok");
                    if r.sym_diff == 0 {
                        continue;
                    }
                    let orig = FrequencyVector::compute(&data, &cols).expect("fits");
                    let rounded = exact.freq_vector(&r.target).expect("ok");
                    let (a, b) = if p == 0.0 {
                        (orig.f0() as f64, rounded.f0() as f64)
                    } else {
                        (orig.fp(p), rounded.fp(p))
                    };
                    let ratio = (a / b).max(b / a);
                    let bound = 2f64.powf(r.sym_diff as f64 * x);
                    assert!(
                        ratio <= bound * (1.0 + 1e-9),
                        "{name}/{label}/alpha={alpha}: measured distortion {ratio} \
                         exceeds Lemma 6.4 bound {bound}"
                    );
                    if ratio > worst {
                        worst = ratio;
                        worst_bound = bound;
                    }
                }
                t.row(&[
                    name.to_string(),
                    label.to_string(),
                    fmt_f64(alpha),
                    fmt_f64(worst),
                    fmt_f64(worst_bound),
                    if worst > 0.5 * worst_bound {
                        "near-tight".into()
                    } else {
                        "loose".to_string()
                    },
                ]);
            }
        }
    }
    t.print();
    t.save_tsv("ablation_distortion.tsv");
}

/// Part 2: sketch plug-ins at equal alpha.
fn sketch_plugins() {
    banner("Sketch plug-in ablation inside the alpha-net (E-A2)");
    let data = uniform_binary(D, 4096, 4);
    let exact = ExactSummary::build(&data);
    let alpha = 0.25;
    let net = AlphaNet::new(D, alpha).expect("valid");
    let mut t = Table::new(
        "KMV vs LinearCounting vs BJKST (alpha = 0.25, 200 queries)",
        &["plug-in", "bytes", "median ratio", "worst ratio"],
    );

    fn run<S: DistinctSketch>(
        data: &Dataset,
        exact: &ExactSummary,
        net: AlphaNet,
        factory: impl FnMut(u64) -> S,
    ) -> (usize, f64, f64) {
        let summary = AlphaNetF0::build(data, net, NetMode::Full, 1 << 22, factory).expect("build");
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut ratios: Vec<f64> = Vec::new();
        for _ in 0..200 {
            let mask = rng.next_u64() & ((1 << D) - 1);
            let cols = ColumnSet::from_mask(D, mask).expect("valid");
            let est = summary.f0(&cols).expect("ok").estimate.max(1.0);
            let truth = exact.f0(&cols).expect("ok").value.max(1.0);
            ratios.push((est / truth).max(truth / est));
        }
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        (
            summary.space_bytes(),
            ratios[ratios.len() / 2],
            *ratios.last().expect("nonempty"),
        )
    }

    let (b, m, w) = run(&data, &exact, net, |mask| Kmv::new(64, mask));
    t.row(&["KMV k=64".to_string(), fmt_bytes(b), fmt_f64(m), fmt_f64(w)]);
    let (b, m, w) = run(&data, &exact, net, |mask| LinearCounting::new(512, mask));
    t.row(&[
        "LinearCounting m=512".to_string(),
        fmt_bytes(b),
        fmt_f64(m),
        fmt_f64(w),
    ]);
    let (b, m, w) = run(&data, &exact, net, |mask| Bjkst::new(64, mask));
    t.row(&[
        "BJKST budget=64".to_string(),
        fmt_bytes(b),
        fmt_f64(m),
        fmt_f64(w),
    ]);
    t.print();
    t.save_tsv("ablation_plugins.tsv");
}

/// Part 3: Full vs BoundaryOnly nets.
fn net_modes() {
    banner("Net-mode ablation: Full vs BoundaryOnly (E-A2)");
    let data = uniform_binary(D, 4096, 6);
    let exact = ExactSummary::build(&data);
    let mut t = Table::new(
        "Full vs BoundaryOnly (KMV k=64)",
        &[
            "alpha",
            "mode",
            "sketches",
            "bytes",
            "median ratio",
            "worst ratio",
        ],
    );
    for &alpha in &[0.15, 0.25, 0.35] {
        let net = AlphaNet::new(D, alpha).expect("valid");
        for (mode, label) in [(NetMode::Full, "full"), (NetMode::BoundaryOnly, "boundary")] {
            let summary = AlphaNetF0::build(&data, net, mode, 1 << 22, |mask| Kmv::new(64, mask))
                .expect("build");
            let mut rng = Xoshiro256pp::seed_from_u64(7);
            let mut ratios: Vec<f64> = Vec::new();
            for _ in 0..200 {
                let mask = rng.next_u64() & ((1 << D) - 1);
                let cols = ColumnSet::from_mask(D, mask).expect("valid");
                let est = summary.f0(&cols).expect("ok").estimate.max(1.0);
                let truth = exact.f0(&cols).expect("ok").value.max(1.0);
                ratios.push((est / truth).max(truth / est));
            }
            ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            t.row(&[
                fmt_f64(alpha),
                label.to_string(),
                summary.num_sketches().to_string(),
                fmt_bytes(summary.space_bytes()),
                fmt_f64(ratios[ratios.len() / 2]),
                fmt_f64(*ratios.last().expect("nonempty")),
            ]);
        }
    }
    t.print();
    t.save_tsv("ablation_modes.tsv");
}

fn main() {
    banner("ABLATIONS — distortion tightness, sketch plug-ins, net modes");
    distortion_tightness();
    sketch_plugins();
    net_modes();
    println!(
        "\nresults written under {:?}",
        pfe_bench::report::results_dir()
    );
}
