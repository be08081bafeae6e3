//! Exact ε computations and parameter selection for the `R(n, q)` family.
//!
//! The paper's Chernoff-style bounds (Lemma 3.15, Theorem 4.4, Theorem 5.10)
//! are convenient analytically but loose for the concrete system sizes of
//! Section 6; the tables there pick "ℓ as small as possible subject to
//! ε ≤ .001", which requires the *exact* probabilities.  Because the access
//! strategy is uniform over `q`-subsets, all three intersection events have
//! closed forms in terms of hypergeometric distributions:
//!
//! * **ε-intersecting** (Definition 3.1):
//!   `ε(n, q) = P(Q ∩ Q′ = ∅) = C(n−q, q)/C(n, q)`.
//! * **dissemination** (Definition 4.1): conditioning on `j = |Q′ ∩ B|`
//!   (hypergeometric), `Q ∩ Q′ ⊆ B` iff `Q` avoids the `q − j` servers of
//!   `Q′ ∖ B`, so
//!   `ε(n, q, b) = Σ_j P(|Q′ ∩ B| = j) · C(n−q+j, q)/C(n, q)`.
//! * **masking** (Definition 5.1): with `X = |Q ∩ B|` and, given `X` and the
//!   write quorum, `Y = |Q ∩ Q′ ∖ B|`; conditioning on the *write* quorum's
//!   good part `g = |Q′ ∖ B| ≥ q − b` and on `X`,
//!   `P(consistent) = Σ_{x<k} P(X = x) · P(H(n, q−b, q) ≥ k)` is a lower
//!   bound attained when `B ⊆ Q′`; the adversary places all `b` faults inside
//!   the write quorum, so this worst case is the right quantity to report.
//!
//! These functions drive the `with_target_epsilon` constructors and the
//! Table 2–4 harness.

use crate::rnq::Rnq;
use crate::CoreError;
use pqs_math::bounds::masking_threshold_k;
use pqs_math::comb::ln_choose;
use pqs_math::hypergeometric::Hypergeometric;
use std::ops::RangeInclusive;

/// Exact probability that two independent uniform `q`-subsets of an
/// `n`-universe are disjoint: `C(n−q, q)/C(n, q)` (zero when `2q > n`).
///
/// # Errors
///
/// Returns [`CoreError::InvalidConstruction`] if `q` is zero or exceeds `n`.
///
/// # Examples
///
/// ```
/// use pqs_core::probabilistic::params::exact_epsilon_intersecting;
/// let eps = exact_epsilon_intersecting(100, 22).unwrap();
/// assert!(eps > 0.0 && eps < 0.01);
/// assert_eq!(exact_epsilon_intersecting(100, 51).unwrap(), 0.0);
/// ```
pub fn exact_epsilon_intersecting(n: u32, q: u32) -> crate::Result<f64> {
    if Rnq::new(n, q)?.always_intersects() {
        return Ok(0.0);
    }
    Ok((ln_choose((n - q) as u64, q as u64) - ln_choose(n as u64, q as u64)).exp())
}

/// Exact probability that the intersection of two independent uniform
/// `q`-subsets is contained in a fixed adversarial set `B` of size `b`
/// (the complement of the Definition 4.1 requirement).
///
/// By symmetry the value does not depend on *which* `b` servers are faulty.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConstruction`] if `q` is zero, `q > n`, or
/// `b ≥ n`.
pub fn exact_epsilon_dissemination(n: u32, q: u32, b: u32) -> crate::Result<f64> {
    Rnq::new(n, q)?;
    if b >= n {
        return Err(CoreError::invalid(format!(
            "byzantine set size {b} must be smaller than the universe {n}"
        )));
    }
    if b == 0 {
        return exact_epsilon_intersecting(n, q);
    }
    // j = |Q' ∩ B| is hypergeometric; given j, Q ∩ Q' ⊆ B iff Q avoids the
    // q − j servers of Q' ∖ B, which happens with probability
    // C(n − (q−j), q)/C(n, q).
    let overlap = Hypergeometric::new(n as u64, b as u64, q as u64)?;
    let ln_total = ln_choose(n as u64, q as u64);
    let mut eps = 0.0f64;
    for j in overlap.min_value()..=overlap.max_value() {
        let good_servers = q as u64 - j; // |Q' \ B|
        if good_servers > n as u64 {
            continue;
        }
        let avoid = if n as u64 - good_servers < q as u64 {
            0.0
        } else {
            (ln_choose(n as u64 - good_servers, q as u64) - ln_total).exp()
        };
        eps += overlap.pmf(j) * avoid;
    }
    Ok(eps.clamp(0.0, 1.0))
}

/// Exact probability that the masking event of Definition 5.1 fails, i.e.
/// the complement of `P(|Q ∩ B| < k ∧ |Q ∩ Q′ ∖ B| ≥ k)` when the read
/// quorum `Q` and the write quorum `Q′` are both drawn uniformly and
/// independently and `B` is any fixed set of `b` servers (by symmetry of the
/// uniform strategy the value does not depend on the placement of `B`).
///
/// The computation conditions on `X = |Q ∩ B| ∼ H(n, b, q)`: given `X = x`,
/// the set `Q ∖ B` has `q − x` servers, and `Y = |Q′ ∩ (Q ∖ B)| ∼
/// H(n, q − x, q)` because `Q′` is an independent uniform `q`-subset.
///
/// See [`worst_case_epsilon_masking`] for the pessimistic variant in which
/// the faulty servers all sit inside the previous write quorum.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConstruction`] for out-of-range parameters
/// (`q = 0`, `q > n`, `b ≥ n`, `b ≥ q`, or `k > q`).
pub fn exact_epsilon_masking(n: u32, q: u32, b: u32, k: u32) -> crate::Result<f64> {
    validate_masking(n, q, b, k)?;
    if k == 0 {
        // A zero threshold accepts fabricated values whenever any faulty
        // server is contacted; the consistent event is then just X < 0,
        // impossible, so epsilon is 1.
        return Ok(1.0);
    }
    let x_dist = Hypergeometric::new(n as u64, b as u64, q as u64)?;
    let mut consistent = 0.0f64;
    let x_hi = x_dist.max_value().min((k - 1) as u64);
    for x in x_dist.min_value()..=x_hi {
        let y_dist = Hypergeometric::new(n as u64, q as u64 - x, q as u64)?;
        consistent += x_dist.pmf(x) * y_dist.at_least(k as u64);
    }
    Ok((1.0 - consistent).clamp(0.0, 1.0))
}

/// Pessimistic variant of [`exact_epsilon_masking`]: the probability that
/// the masking read rule fails *given that every faulty server lies inside
/// the previous write quorum* (`B ⊆ Q′`), which is the coupling behind
/// Lemma 5.9's variable `Z ∼ H(n, q − b, q)`.
///
/// This is an upper bound on [`exact_epsilon_masking`] and is the right
/// quantity to use when the adversary can influence *which* servers the
/// writer contacts.
///
/// # Errors
///
/// Same as [`exact_epsilon_masking`].
pub fn worst_case_epsilon_masking(n: u32, q: u32, b: u32, k: u32) -> crate::Result<f64> {
    validate_masking(n, q, b, k)?;
    if k == 0 {
        return Ok(1.0);
    }
    // X = |Q ∩ B| ~ H(n, b, q). Given X = x, the remaining q − x read
    // servers are a uniform subset of the n − b correct servers, of which
    // q − b lie in Q' ∖ B, so Y | X = x ~ H(n − b, q − b, q − x).
    let x_dist = Hypergeometric::new(n as u64, b as u64, q as u64)?;
    let mut consistent = 0.0f64;
    let x_hi = x_dist.max_value().min((k - 1) as u64);
    for x in x_dist.min_value()..=x_hi {
        let y_dist = Hypergeometric::new((n - b) as u64, (q - b) as u64, q as u64 - x)?;
        consistent += x_dist.pmf(x) * y_dist.at_least(k as u64);
    }
    Ok((1.0 - consistent).clamp(0.0, 1.0))
}

fn validate_masking(n: u32, q: u32, b: u32, k: u32) -> crate::Result<()> {
    Rnq::new(n, q)?;
    if b >= n {
        return Err(CoreError::invalid(format!(
            "byzantine set size {b} must be smaller than the universe {n}"
        )));
    }
    if b >= q {
        return Err(CoreError::invalid(format!(
            "masking analysis requires b < q (got b={b}, q={q})"
        )));
    }
    if k > q {
        return Err(CoreError::invalid(format!(
            "read threshold k={k} cannot exceed the quorum size q={q}"
        )));
    }
    Ok(())
}

/// The smallest `q` among `candidates` whose ε is at most `target_epsilon`;
/// `None` if there is none or the target is not in `(0, 1)`.  Candidates for
/// which `epsilon_at` fails are skipped.
///
/// The scan is linear on purpose: it is the reference the rest of the
/// repository's searches are checked against, and masking's ε is not
/// monotone in `q` (its `k = ⌈q²/2n⌉` moves in steps).
fn smallest_quorum_where(
    target_epsilon: f64,
    mut candidates: RangeInclusive<u32>,
    epsilon_at: impl Fn(u32) -> crate::Result<f64>,
) -> Option<u32> {
    if !(target_epsilon > 0.0 && target_epsilon < 1.0) {
        return None;
    }
    candidates.find(|&q| epsilon_at(q).is_ok_and(|eps| eps <= target_epsilon))
}

/// The masking candidates `2b + 1 ..= n − b`: `ℓ = q/b > 2` and a fault
/// tolerance above `b`.  `None` for `b = 0`, which is not a masking system.
fn masking_candidates(n: u32, b: u32) -> Option<RangeInclusive<u32>> {
    (b > 0).then(|| b.saturating_mul(2).saturating_add(1)..=n.saturating_sub(b))
}

/// The error of a `with_target_epsilon` constructor whose search found no
/// quorum size.
pub(crate) fn unattainable(kind: &str, n: u32, b: u32, target_epsilon: f64) -> CoreError {
    CoreError::invalid(format!(
        "no quorum size achieves {kind} epsilon <= {target_epsilon} for n={n}, b={b}"
    ))
}

/// Smallest quorum size `q` such that the exact non-intersection probability
/// is at most `target_epsilon`, or `None` if no `q ≤ n` achieves it
/// (never the case for `target_epsilon > 0`, since `2q > n` gives ε = 0).
pub fn smallest_quorum_intersecting(n: u32, target_epsilon: f64) -> Option<u32> {
    smallest_quorum_where(target_epsilon, 1..=n, |q| exact_epsilon_intersecting(n, q))
}

/// Smallest quorum size `q ≤ n − b` such that the exact dissemination ε is
/// at most `target_epsilon`; `None` if none exists (the cap `q ≤ n − b`
/// keeps the fault tolerance above `b`, per Definition 4.1).
pub fn smallest_quorum_dissemination(n: u32, b: u32, target_epsilon: f64) -> Option<u32> {
    smallest_quorum_where(target_epsilon, 1..=n.saturating_sub(b), |q| {
        exact_epsilon_dissemination(n, q, b)
    })
}

/// Smallest quorum size `q` (with its threshold `k = ⌈q²/2n⌉`) such that the
/// exact masking ε is at most `target_epsilon`, scanning `q` from `2b + 1`
/// to `n − b`; `None` if none qualifies.
pub fn smallest_quorum_masking(n: u32, b: u32, target_epsilon: f64) -> Option<(u32, u32)> {
    let k_at = |q: u32| masking_threshold_k(n as u64, q as u64) as u32;
    let q = smallest_quorum_where(target_epsilon, masking_candidates(n, b)?, |q| {
        exact_epsilon_masking(n, q, b, k_at(q))
    })?;
    Some((q, k_at(q)))
}

/// The read threshold `k ∈ 1..=q` minimising the exact masking ε for the
/// given parameters, together with that ε.
///
/// The paper fixes `k = q²/2n` for its general analysis and remarks
/// (Section 5.4) that choosing `k` to balance the two tail bounds yields
/// "marginally better factors"; for the concrete Table 4 parameters the
/// optimised threshold can be substantially better when `b` is small
/// (because `P(|Q ∩ B| ≥ k)` is already zero for every `k > b`).
///
/// # Errors
///
/// Returns [`CoreError::InvalidConstruction`] for out-of-range parameters.
pub fn optimal_threshold_masking(n: u32, q: u32, b: u32) -> crate::Result<(u32, f64)> {
    validate_masking(n, q, b, 1)?;
    let mut best = (1u32, f64::INFINITY);
    for k in 1..=q {
        let eps = exact_epsilon_masking(n, q, b, k)?;
        if eps < best.1 {
            best = (k, eps);
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqs_math::bounds;

    #[test]
    fn intersecting_epsilon_matches_hand_computation() {
        // n=25, q=9: C(16,9)/C(25,9) = 11440 / 2042975.
        let eps = exact_epsilon_intersecting(25, 9).unwrap();
        assert!((eps - 11440.0 / 2_042_975.0).abs() < 1e-12);
        // Quorums larger than half the universe always intersect.
        assert_eq!(exact_epsilon_intersecting(25, 13).unwrap(), 0.0);
    }

    #[test]
    fn intersecting_epsilon_below_lemma_3_15_bound() {
        for &(n, q) in &[(100u32, 22u32), (225, 36), (400, 49), (900, 75)] {
            let exact = exact_epsilon_intersecting(n, q).unwrap();
            let ell = q as f64 / (n as f64).sqrt();
            assert!(exact <= bounds::epsilon_intersecting_bound(ell) + 1e-12);
        }
    }

    #[test]
    fn intersecting_epsilon_decreasing_in_q() {
        let mut prev = 1.0;
        for q in 1..=50 {
            let e = exact_epsilon_intersecting(100, q).unwrap();
            assert!(e <= prev + 1e-12, "q={q}");
            prev = e;
        }
    }

    #[test]
    fn parameter_validation() {
        assert!(exact_epsilon_intersecting(0, 1).is_err());
        assert!(exact_epsilon_intersecting(10, 0).is_err());
        assert!(exact_epsilon_intersecting(10, 11).is_err());
        assert!(exact_epsilon_dissemination(10, 5, 10).is_err());
        assert!(exact_epsilon_masking(10, 5, 5, 2).is_err());
        assert!(exact_epsilon_masking(10, 5, 2, 6).is_err());
        assert_eq!(exact_epsilon_masking(100, 30, 5, 0).unwrap(), 1.0);
    }

    #[test]
    fn dissemination_reduces_to_intersecting_when_b_is_zero() {
        let a = exact_epsilon_dissemination(100, 20, 0).unwrap();
        let b = exact_epsilon_intersecting(100, 20).unwrap();
        assert!((a - b).abs() < 1e-15);
    }

    #[test]
    fn dissemination_epsilon_grows_with_b_and_shrinks_with_q() {
        let base = exact_epsilon_dissemination(100, 24, 4).unwrap();
        let more_faults = exact_epsilon_dissemination(100, 24, 10).unwrap();
        assert!(more_faults > base);
        let bigger_quorum = exact_epsilon_dissemination(100, 30, 4).unwrap();
        assert!(bigger_quorum < base);
    }

    #[test]
    fn dissemination_epsilon_matches_monte_carlo() {
        use pqs_math::sampling::sample_k_of_n;
        use rand::SeedableRng;
        let (n, q, b) = (50u32, 12u32, 8u32);
        let exact = exact_epsilon_dissemination(n, q, b).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(21);
        let trials = 60_000;
        let mut bad = 0usize;
        for _ in 0..trials {
            let q1 = sample_k_of_n(&mut rng, q as u64, n as u64).unwrap();
            let q2 = sample_k_of_n(&mut rng, q as u64, n as u64).unwrap();
            // B = {0, .., b-1} (placement is irrelevant by symmetry).
            let q2set: std::collections::HashSet<u64> = q2.into_iter().collect();
            let contained = q1
                .iter()
                .filter(|x| q2set.contains(x))
                .all(|&x| x < b as u64);
            if contained {
                bad += 1;
            }
        }
        let mc = bad as f64 / trials as f64;
        assert!((mc - exact).abs() < 0.01, "exact={exact} monte-carlo={mc}");
    }

    #[test]
    fn dissemination_epsilon_below_lemma_4_3_bound_for_one_third() {
        // b = n/3: the Lemma 4.3 bound 2e^{-l^2/6} must dominate the exact value.
        let n = 300u32;
        let b = 100u32;
        for &q in &[35u32, 52, 70] {
            let ell = q as f64 / (n as f64).sqrt();
            let exact = exact_epsilon_dissemination(n, q, b).unwrap();
            let bound = bounds::dissemination_bound_one_third(ell);
            assert!(exact <= bound + 1e-12, "q={q} exact={exact} bound={bound}");
        }
    }

    #[test]
    fn masking_epsilon_matches_monte_carlo() {
        use pqs_math::sampling::sample_k_of_n;
        use rand::SeedableRng;
        let (n, q, b) = (60u32, 25u32, 6u32);
        let k = pqs_math::bounds::masking_threshold_k(n as u64, q as u64) as u32;
        let exact = exact_epsilon_masking(n, q, b, k).unwrap();
        // Monte-Carlo straight from Definition 5.1: read and write quorums
        // both uniform, B = {0..b} (placement irrelevant by symmetry).
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(31);
        let trials = 60_000;
        let mut bad = 0usize;
        for _ in 0..trials {
            let read = sample_k_of_n(&mut rng, q as u64, n as u64).unwrap();
            let write: std::collections::HashSet<u64> = sample_k_of_n(&mut rng, q as u64, n as u64)
                .unwrap()
                .into_iter()
                .collect();
            let x = read.iter().filter(|&&s| s < b as u64).count() as u32;
            let y = read
                .iter()
                .filter(|&&s| s >= b as u64 && write.contains(&s))
                .count() as u32;
            if !(x < k && y >= k) {
                bad += 1;
            }
        }
        let mc = bad as f64 / trials as f64;
        assert!((mc - exact).abs() < 0.01, "exact={exact} mc={mc}");
    }

    #[test]
    fn worst_case_masking_dominates_exact() {
        for &(n, q, b) in &[(100u32, 30u32, 5u32), (225, 64, 7), (400, 94, 9)] {
            let k = pqs_math::bounds::masking_threshold_k(n as u64, q as u64) as u32;
            let exact = exact_epsilon_masking(n, q, b, k).unwrap();
            let worst = worst_case_epsilon_masking(n, q, b, k).unwrap();
            assert!(worst + 1e-12 >= exact, "n={n} exact={exact} worst={worst}");
        }
    }

    #[test]
    fn masking_epsilon_below_theorem_5_10_bound() {
        let n = 400u32;
        let b = 9u32;
        for &ell in &[3.0f64, 4.7, 6.0] {
            let q = (ell * b as f64).round() as u32;
            let k = pqs_math::bounds::masking_threshold_k(n as u64, q as u64) as u32;
            let exact = exact_epsilon_masking(n, q, b, k).unwrap();
            let bound = bounds::masking_bound(n as u64, q as u64, q as f64 / b as f64);
            assert!(
                exact <= bound + 1e-9,
                "ell={ell} exact={exact} bound={bound}"
            );
        }
    }

    #[test]
    fn smallest_quorum_intersecting_is_minimal() {
        let q = smallest_quorum_intersecting(100, 0.001).unwrap();
        assert!(exact_epsilon_intersecting(100, q).unwrap() <= 0.001);
        assert!(exact_epsilon_intersecting(100, q - 1).unwrap() > 0.001);
        assert!(smallest_quorum_intersecting(100, 0.0).is_none());
        assert!(smallest_quorum_intersecting(100, 1.0).is_none());
    }

    #[test]
    fn smallest_quorum_dissemination_is_minimal_and_capped() {
        let (n, b) = (100, 4);
        let q = smallest_quorum_dissemination(n, b, 0.001).unwrap();
        assert!(q <= n - b);
        assert!(exact_epsilon_dissemination(n, q, b).unwrap() <= 0.001);
        assert!(exact_epsilon_dissemination(n, q - 1, b).unwrap() > 0.001);
        assert!(smallest_quorum_dissemination(n, 100, 0.001).is_none());
    }

    #[test]
    fn smallest_quorum_masking_meets_target() {
        let (n, b) = (100, 4);
        let (q, k) = smallest_quorum_masking(n, b, 0.001).unwrap();
        assert!(q > 2 * b);
        assert!(exact_epsilon_masking(n, q, b, k).unwrap() <= 0.001);
        assert!(smallest_quorum_masking(n, 0, 0.001).is_none());
        // A tiny universe with a large b cannot reach a small epsilon.
        assert!(smallest_quorum_masking(10, 4, 1e-6).is_none());
    }

    #[test]
    fn optimal_threshold_never_worse_than_default() {
        for &(n, b) in &[(100u32, 4u32), (225, 7), (400, 9)] {
            let ell_table = [(100, 3.80), (225, 4.27), (400, 4.70)]
                .iter()
                .find(|(m, _)| *m == n)
                .unwrap()
                .1;
            let q = (ell_table * (n as f64).sqrt()).round() as u32;
            let default_k = pqs_math::bounds::masking_threshold_k(n as u64, q as u64) as u32;
            let default_eps = exact_epsilon_masking(n, q, b, default_k).unwrap();
            let (opt_k, opt_eps) = optimal_threshold_masking(n, q, b).unwrap();
            assert!(opt_eps <= default_eps + 1e-15, "n={n}");
            assert!(opt_k >= 1 && opt_k <= q);
            // With the optimised threshold the paper's Table 4 parameters get
            // within a small factor of the 0.001 consistency target.
            assert!(opt_eps <= 2e-2, "n={n} opt_eps={opt_eps}");
        }
    }

    #[test]
    fn table_two_shape_small_quorums_suffice() {
        // The headline of Table 2: for eps <= 0.001 the probabilistic system
        // needs far smaller quorums than the majority system's (n+1)/2.
        for &n in &[100u32, 225, 400, 625, 900] {
            let q = smallest_quorum_intersecting(n, 0.001).unwrap();
            assert!(
                (q as f64) < 0.6 * (n as f64 / 2.0),
                "n={n}: probabilistic quorum {q} not clearly smaller than majority {}",
                n / 2 + 1
            );
        }
    }
}
