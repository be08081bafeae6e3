//! Combinatorial primitives: factorials, binomial coefficients and the
//! coefficient-ratio bound the paper uses as Proposition 3.14.
//!
//! Everything is computed in log-space (`ln_factorial`, `ln_choose`) so the
//! quantities stay representable for universes of thousands of servers, and
//! exact `u128` versions are provided for the small arguments where they fit.

/// Natural logarithm of `n!`, computed via a cached table for small `n` and
/// Stirling's series otherwise.
///
/// Accurate to better than `1e-10` relative error over the whole range used
/// by this workspace (universes up to a few hundred thousand servers).
///
/// # Examples
///
/// ```
/// use pqs_math::comb::ln_factorial;
/// assert!((ln_factorial(5) - 120f64.ln()).abs() < 1e-12);
/// ```
pub fn ln_factorial(n: u64) -> f64 {
    // Table of ln(n!) for n in 0..=255, filled lazily at first use.
    const TABLE_SIZE: usize = 256;
    use std::sync::OnceLock;
    static TABLE: OnceLock<[f64; TABLE_SIZE]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0.0f64; TABLE_SIZE];
        let mut acc = 0.0f64;
        for (i, slot) in t.iter_mut().enumerate().skip(1) {
            acc += (i as f64).ln();
            *slot = acc;
        }
        t
    });
    if (n as usize) < TABLE_SIZE {
        return table[n as usize];
    }
    stirling_ln_gamma(n as f64 + 1.0)
}

/// Stirling/Lanczos-style approximation of `ln Γ(x)` for `x ≥ 1`.
///
/// Uses the classical Stirling series with correction terms up to `1/x^9`,
/// which is more than sufficient for `x ≥ 256` where it is used.
fn stirling_ln_gamma(x: f64) -> f64 {
    debug_assert!(x >= 1.0);
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    // ln Γ(x) = (x - 1/2) ln x − x + ln(2π)/2 + 1/(12x) − 1/(360x³) + 1/(1260x⁵) − 1/(1680x⁷) + …
    let series =
        inv * (1.0 / 12.0 + inv2 * (-1.0 / 360.0 + inv2 * (1.0 / 1260.0 + inv2 * (-1.0 / 1680.0))));
    (x - 0.5) * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI).ln() + series
}

/// Natural logarithm of the binomial coefficient `C(n, k)`.
///
/// Returns `f64::NEG_INFINITY` when `k > n` (the coefficient is zero).
///
/// # Examples
///
/// ```
/// use pqs_math::comb::ln_choose;
/// assert!((ln_choose(10, 3) - 120f64.ln()).abs() < 1e-10);
/// assert_eq!(ln_choose(3, 10), f64::NEG_INFINITY);
/// ```
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    if k == 0 || k == n {
        return 0.0;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Binomial coefficient `C(n, k)` as an `f64`.
///
/// Overflows gracefully to `f64::INFINITY` for astronomically large values;
/// returns `0.0` when `k > n`.
///
/// # Examples
///
/// ```
/// use pqs_math::comb::choose_f64;
/// assert!((choose_f64(6, 2) - 15.0).abs() < 1e-9);
/// ```
pub fn choose_f64(n: u64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    ln_choose(n, k).exp()
}

/// Exact binomial coefficient `C(n, k)` in `u128`, or `None` on overflow.
///
/// Uses the multiplicative formula with interleaved division so intermediate
/// values stay as small as possible.
///
/// # Examples
///
/// ```
/// use pqs_math::comb::choose_exact;
/// assert_eq!(choose_exact(52, 5), Some(2_598_960));
/// assert_eq!(choose_exact(5, 9), Some(0));
/// ```
pub fn choose_exact(n: u64, k: u64) -> Option<u128> {
    if k > n {
        return Some(0);
    }
    let k = k.min(n - k);
    let mut result: u128 = 1;
    for i in 0..k {
        // result *= (n - i); result /= (i + 1);  with overflow checks.
        result = result.checked_mul((n - i) as u128)?;
        result /= (i + 1) as u128;
    }
    Some(result)
}

/// The ratio `C(n − c, c − i) / C(n, c)` bounded per Proposition 3.14:
/// it is at most `(c/n)^i · ((n − c)/(n − i))^(c − i)`.
///
/// This helper returns the *bound* (right-hand side); the unit tests hold it
/// against the exact ratio, [`quorum_overlap_ratio`].
///
/// # Panics
///
/// Panics in debug builds if `c > n` or `i > c`.
pub fn proposition_3_14_bound(n: u64, c: u64, i: u64) -> f64 {
    debug_assert!(c <= n, "c must be at most n");
    debug_assert!(i <= c, "i must be at most c");
    let n_f = n as f64;
    let c_f = c as f64;
    let i_f = i as f64;
    let first = (c_f / n_f).powf(i_f);
    let second = if n_f - i_f <= 0.0 {
        0.0
    } else {
        ((n_f - c_f) / (n_f - i_f)).powf(c_f - i_f)
    };
    first * second
}

/// The exact ratio `C(n − c, c − i) / C(n, c)` computed in log-space.
///
/// Returns `0.0` whenever the numerator coefficient is zero
/// (i.e. `c − i > n − c`).
pub fn quorum_overlap_ratio(n: u64, c: u64, i: u64) -> f64 {
    if i > c || c > n {
        return 0.0;
    }
    let num = ln_choose(n - c, c - i);
    if num == f64::NEG_INFINITY {
        return 0.0;
    }
    (num - ln_choose(n, c)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn factorial_u128(n: u64) -> u128 {
        (1..=n as u128).product::<u128>().max(1)
    }

    #[test]
    fn ln_factorial_matches_exact_small() {
        for n in 0..30u64 {
            let exact = (factorial_u128(n) as f64).ln();
            let approx = ln_factorial(n);
            assert!(
                (exact - approx).abs() < 1e-9,
                "n={n} exact={exact} approx={approx}"
            );
        }
    }

    #[test]
    fn ln_factorial_large_is_consistent_with_recurrence() {
        // ln((n+1)!) - ln(n!) = ln(n+1), also across the table/Stirling boundary.
        for n in [200u64, 254, 255, 256, 300, 1000, 10_000, 100_000] {
            let lhs = ln_factorial(n + 1) - ln_factorial(n);
            let rhs = ((n + 1) as f64).ln();
            assert!(
                (lhs - rhs).abs() < 1e-8,
                "n={n} lhs={lhs} rhs={rhs} diff={}",
                (lhs - rhs).abs()
            );
        }
    }

    #[test]
    fn ln_choose_matches_exact() {
        for n in 0..40u64 {
            for k in 0..=n {
                let exact = choose_exact(n, k).unwrap() as f64;
                let approx = ln_choose(n, k).exp();
                assert!(
                    (exact - approx).abs() / exact.max(1.0) < 1e-9,
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn choose_exact_edge_cases() {
        assert_eq!(choose_exact(0, 0), Some(1));
        assert_eq!(choose_exact(10, 0), Some(1));
        assert_eq!(choose_exact(10, 10), Some(1));
        assert_eq!(choose_exact(10, 11), Some(0));
        assert_eq!(choose_exact(4, 2), Some(6));
        // C(120, 60) does not fit u64 but fits u128.
        assert!(choose_exact(120, 60).is_some());
    }

    #[test]
    fn choose_exact_overflow_returns_none() {
        // C(200, 100) ~ 9e58 overflows u128's ~3.4e38.
        assert_eq!(choose_exact(200, 100), None);
        assert_eq!(choose_exact(1000, 500), None);
    }

    #[test]
    fn choose_f64_zero_when_k_exceeds_n() {
        assert_eq!(choose_f64(3, 5), 0.0);
    }

    #[test]
    fn pascal_identity_holds_in_log_space() {
        // C(n, k) = C(n-1, k-1) + C(n-1, k)
        for n in 2..60u64 {
            for k in 1..n {
                let lhs = choose_f64(n, k);
                let rhs = choose_f64(n - 1, k - 1) + choose_f64(n - 1, k);
                assert!((lhs - rhs).abs() / lhs < 1e-9, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn proposition_3_14_is_an_upper_bound() {
        // The proposition states C(n-c, c-i)/C(n, c) <= (c/n)^i ((n-c)/(n-i))^(c-i).
        for n in [25u64, 100, 225, 400] {
            let c = (n as f64).sqrt() as u64 * 2;
            for i in 0..=c.min(n - c) {
                let exact = quorum_overlap_ratio(n, c, i);
                let bound = proposition_3_14_bound(n, c, i);
                assert!(
                    exact <= bound + 1e-12,
                    "n={n} c={c} i={i} exact={exact} bound={bound}"
                );
            }
        }
    }
}
