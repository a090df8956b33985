//! The binary entropy function and the α-net size bounds of Lemma 6.2.
//!
//! `H(x) = -x log2 x - (1-x) log2 (1-x)` controls the number of subsets the
//! α-net scheme materializes: `|N| ≤ 2^{H(1/2-α)d + 1}`. Figure 1 of the
//! paper plots `2^{H(1/2-α)d}/2^d` (relative space) against the rounding
//! distortion `2^{αd}`.

/// Binary entropy `H(x)` in bits, with the standard convention `H(0)=H(1)=0`.
///
/// # Panics
/// Panics if `x` is outside `[0, 1]`.
pub fn binary_entropy(x: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&x),
        "entropy argument {x} outside [0,1]"
    );
    if x == 0.0 || x == 1.0 {
        return 0.0;
    }
    -(x * x.log2() + (1.0 - x) * (1.0 - x).log2())
}

/// `log2` of the Lemma 6.2 net-size bound: `H(1/2 - α)·d + 1`.
///
/// # Panics
/// Panics if `alpha` is outside `(0, 1/2)`.
pub fn net_size_bound_log2(d: u32, alpha: f64) -> f64 {
    assert!(alpha > 0.0 && alpha < 0.5, "alpha {alpha} outside (0, 1/2)");
    binary_entropy(0.5 - alpha) * d as f64 + 1.0
}

/// Rounding distortion for projected `F_0` (Lemma 6.4 case 1): `2^{αd}`.
pub fn f0_distortion(d: u32, alpha: f64) -> f64 {
    (alpha * d as f64).exp2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_endpoints_and_peak() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_symmetric() {
        for i in 1..50 {
            let x = i as f64 / 100.0;
            assert!((binary_entropy(x) - binary_entropy(1.0 - x)).abs() < 1e-12);
        }
    }

    #[test]
    fn entropy_concave_monotone_on_half() {
        // Strictly increasing on (0, 1/2).
        let mut prev = 0.0;
        for i in 1..=50 {
            let h = binary_entropy(i as f64 / 100.0);
            assert!(h > prev);
            prev = h;
        }
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn entropy_rejects_out_of_range() {
        binary_entropy(1.5);
    }

    #[test]
    fn known_entropy_value() {
        // H(1/4) = 2 - (3/4) log2 3 ≈ 0.811278...
        let h = binary_entropy(0.25);
        assert!((h - 0.811_278_124_459_132_8).abs() < 1e-12);
    }

    #[test]
    fn distortion_curves() {
        // F0 distortion at alpha=0.25, d=20 is 2^5 = 32 (Figure 1 midpoint).
        assert!((f0_distortion(20, 0.25) - 32.0).abs() < 1e-9);
    }
}
