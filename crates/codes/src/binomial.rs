//! Binomial coefficients, exact in checked `u128`.
//!
//! The paper's space bounds are expressed through `C(d, k)` (code sizes,
//! Theorem 4.1) and partial binomial sums (net sizes, Lemma 6.2).

/// Exact binomial coefficient `C(n, k)`, or `None` on `u128` overflow.
///
/// Uses the multiplicative formula with division at every step (each prefix
/// product is itself a binomial coefficient, so divisions are exact).
/// `None` is returned when any *intermediate* product `C(n, i)·(n-i)`
/// overflows, so final values up to roughly `u128::MAX / n` are guaranteed
/// representable.
pub fn binomial(n: u64, k: u64) -> Option<u128> {
    if k > n {
        return Some(0);
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        // acc * (n - i) / (i + 1), with exact intermediate division:
        acc = acc.checked_mul((n - i) as u128)?;
        acc /= (i + 1) as u128;
    }
    Some(acc)
}

/// Partial binomial sum `Σ_{i=0}^{m} C(n, i)`, or `None` on overflow.
///
/// This is the exact count of subsets of `[n]` with size at most `m`,
/// used for exact α-net sizes (Lemma 6.2 bounds it by `2^{H(m/n) n}`).
pub fn binomial_sum(n: u64, m: u64) -> Option<u128> {
    let mut acc: u128 = 0;
    for i in 0..=m.min(n) {
        acc = acc.checked_add(binomial(n, i)?)?;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_exact() {
        assert_eq!(binomial(0, 0), Some(1));
        assert_eq!(binomial(5, 0), Some(1));
        assert_eq!(binomial(5, 5), Some(1));
        assert_eq!(binomial(5, 2), Some(10));
        assert_eq!(binomial(10, 3), Some(120));
        assert_eq!(binomial(52, 5), Some(2_598_960));
        assert_eq!(binomial(4, 7), Some(0));
    }

    #[test]
    fn pascal_identity() {
        for n in 1..40u64 {
            for k in 1..n {
                let lhs = binomial(n, k).expect("fits");
                let rhs = binomial(n - 1, k - 1).expect("fits") + binomial(n - 1, k).expect("fits");
                assert_eq!(lhs, rhs, "Pascal fails at ({n},{k})");
            }
        }
    }

    #[test]
    fn symmetry() {
        for n in 0..50u64 {
            for k in 0..=n {
                assert_eq!(binomial(n, k), binomial(n, n - k));
            }
        }
    }

    #[test]
    fn row_sums_are_powers_of_two() {
        for n in 0..30u64 {
            assert_eq!(binomial_sum(n, n), Some(1u128 << n));
        }
    }

    #[test]
    fn central_binomial_lower_bound_from_paper() {
        // Section 3.2: C(d, d/2) >= 2^d / sqrt(2d).
        for d in (2..60u64).step_by(2) {
            let lhs = binomial(d, d / 2).expect("fits") as f64;
            let rhs = 2f64.powi(d as i32) / ((2 * d) as f64).sqrt();
            assert!(lhs >= rhs, "central binomial bound fails at d={d}");
        }
    }

    #[test]
    fn ratio_lower_bound_from_paper() {
        // Section 3.2: C(d, k) >= (d/k)^k for k < d/2.
        for d in 4..50u64 {
            for k in 1..d / 2 {
                let lhs = binomial(d, k).expect("fits") as f64;
                let rhs = (d as f64 / k as f64).powi(k as i32);
                assert!(lhs >= rhs, "(d/k)^k bound fails at d={d}, k={k}");
            }
        }
    }

    #[test]
    fn overflow_returns_none() {
        assert!(binomial(400, 200).is_none());
        // Values with headroom for the intermediate product still fit:
        // C(120, 60) ~ 9.7e34 and 9.7e34 * 62 < u128::MAX.
        assert!(binomial(120, 60).is_some());
        assert_eq!(
            binomial(120, 60).map(|v| (v as f64).log10().floor() as i32),
            Some(34)
        );
    }

    #[test]
    fn binomial_sum_prefix_monotone() {
        let n = 24;
        let mut prev = 0u128;
        for m in 0..=n {
            let s = binomial_sum(n, m).expect("fits");
            assert!(s > prev || (m == 0 && s == 1));
            prev = s;
        }
        assert_eq!(prev, 1u128 << n);
    }
}
