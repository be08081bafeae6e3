//! Random subset sampling.
//!
//! The probabilistic constructions of the paper are *implicit* quorum
//! systems: `R(n, q)` contains every `q`-subset of the universe and the
//! access strategy is uniform, so "pick a quorum" means "sample a uniform
//! random `q`-subset of `{0, …, n−1}`".  This module provides that sampling
//! primitive (Floyd's algorithm, `O(q)` expected work).

use crate::MathError;
use rand::Rng;

/// Samples a uniformly random `k`-subset of `{0, 1, …, n−1}` using Robert
/// Floyd's algorithm.
///
/// The returned vector is sorted ascending, which downstream code relies on
/// for building bitsets and computing intersections cheaply.
///
/// # Errors
///
/// Returns [`MathError::InvalidParameter`] if `k > n`.
///
/// # Examples
///
/// ```
/// use pqs_math::sampling::sample_k_of_n;
/// let mut rng = rand::thread_rng();
/// let subset = sample_k_of_n(&mut rng, 5, 20).unwrap();
/// assert_eq!(subset.len(), 5);
/// assert!(subset.windows(2).all(|w| w[0] < w[1]));
/// assert!(subset.iter().all(|&x| x < 20));
/// ```
pub fn sample_k_of_n<R: Rng + ?Sized>(rng: &mut R, k: u64, n: u64) -> crate::Result<Vec<u64>> {
    if k > n {
        return Err(MathError::invalid(format!(
            "cannot sample {k} items from a universe of {n}"
        )));
    }
    // Both paths make the same draws and apply the same insertion rule, so
    // which one serves a call is invisible in the output and the RNG stream.
    Ok(if n <= MASK_LIMIT {
        floyd_bitmask(rng, k, n)
    } else {
        floyd_ordered_set(rng, k, n)
    })
}

/// Universes up to this size sample on a stack bitmask ([`floyd_bitmask`]);
/// larger ones fall back to the ordered set.  1024 bits is 128 bytes of
/// stack and covers every quorum system the workspace builds.
const MASK_LIMIT: u64 = 64 * MASK_WORDS as u64;
const MASK_WORDS: usize = 16;

/// Floyd's algorithm over an ordered set: for `j = n-k .. n-1`, pick `t`
/// uniform in `[0, j]`; insert `t` unless already present, else insert `j`.
/// Produces a uniform `k`-subset, ascending.  Serves universes beyond
/// [`MASK_LIMIT`] and is the oracle the bitmask path is tested against.
fn floyd_ordered_set<R: Rng + ?Sized>(rng: &mut R, k: u64, n: u64) -> Vec<u64> {
    let mut chosen = std::collections::BTreeSet::new();
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    chosen.into_iter().collect()
}

/// [`floyd_ordered_set`] with the set held as a word bitmask on the stack:
/// membership and insertion are one shift and mask, and reading the set
/// bits out low to high yields the ascending output without a sort.  The
/// only allocation is the returned vector.
fn floyd_bitmask<R: Rng + ?Sized>(rng: &mut R, k: u64, n: u64) -> Vec<u64> {
    debug_assert!(k <= n && n <= MASK_LIMIT);
    let mut mask = [0u64; MASK_WORDS];
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j);
        let (word, bit) = ((t / 64) as usize, 1u64 << (t % 64));
        if mask[word] & bit == 0 {
            mask[word] |= bit;
        } else {
            // `j` exceeds every earlier draw's bound, so it is never present.
            mask[(j / 64) as usize] |= 1u64 << (j % 64);
        }
    }
    let mut out = Vec::with_capacity(k as usize);
    for (w, &bits) in mask.iter().enumerate() {
        let mut bits = bits;
        while bits != 0 {
            out.push(w as u64 * 64 + u64::from(bits.trailing_zeros()));
            bits &= bits - 1;
        }
    }
    out
}

/// Samples a uniformly random `k`-subset *excluding* the indices in
/// `excluded` (which must be sorted ascending and within range).
///
/// Used by failure injectors ("choose a quorum among the live servers") and
/// adversary placement.
///
/// # Errors
///
/// Returns [`MathError::InvalidParameter`] if fewer than `k` indices remain
/// after exclusion.
pub fn sample_k_of_n_excluding<R: Rng + ?Sized>(
    rng: &mut R,
    k: u64,
    n: u64,
    excluded: &[u64],
) -> crate::Result<Vec<u64>> {
    let available = n.saturating_sub(excluded.len() as u64);
    if k > available {
        return Err(MathError::invalid(format!(
            "cannot sample {k} items: only {available} of {n} remain after exclusions"
        )));
    }
    // Sample positions within the compacted index space, then map back.
    let positions = sample_k_of_n(rng, k, available)?;
    let mut result = Vec::with_capacity(k as usize);
    for pos in positions {
        result.push(map_compacted_index(pos, excluded));
    }
    result.sort_unstable();
    Ok(result)
}

/// Maps an index in the compacted space (with `excluded` removed) back to the
/// original index space. `excluded` must be sorted ascending.
fn map_compacted_index(pos: u64, excluded: &[u64]) -> u64 {
    // The original index is pos plus the number of excluded values <= answer.
    // Walk the exclusions in order, shifting as we pass them.
    let mut candidate = pos;
    for &e in excluded {
        if e <= candidate {
            candidate += 1;
        } else {
            break;
        }
    }
    candidate
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn sample_rejects_k_greater_than_n() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(sample_k_of_n(&mut rng, 11, 10).is_err());
    }

    #[test]
    fn sample_full_and_empty_sets() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert_eq!(sample_k_of_n(&mut rng, 0, 10).unwrap(), Vec::<u64>::new());
        assert_eq!(
            sample_k_of_n(&mut rng, 10, 10).unwrap(),
            (0..10).collect::<Vec<_>>()
        );
        assert_eq!(sample_k_of_n(&mut rng, 0, 0).unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn bitmask_floyd_equals_ordered_set_floyd_draw_for_draw() {
        // Same output and the same RNG position afterwards, for every
        // universe the mask can hold — including the word boundaries, the
        // empty draw and the full universe.
        let mut pick = ChaCha8Rng::seed_from_u64(11);
        for case in 0..2_000u64 {
            let n = match case % 8 {
                0 => MASK_LIMIT,
                1 => 64,
                2 => 65,
                _ => pick.gen_range(0..=MASK_LIMIT),
            };
            let k = match case % 5 {
                0 => 0,
                1 => n,
                _ => pick.gen_range(0..=n),
            };
            let mut a = ChaCha8Rng::seed_from_u64(case);
            let mut b = ChaCha8Rng::seed_from_u64(case);
            assert_eq!(
                floyd_bitmask(&mut a, k, n),
                floyd_ordered_set(&mut b, k, n),
                "k={k} n={n} seed={case}"
            );
            assert_eq!(a.gen_range(0..u64::MAX), b.gen_range(0..u64::MAX));
        }
    }

    #[test]
    fn universes_beyond_the_mask_limit_still_sample() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let n = MASK_LIMIT + 1;
        let s = sample_k_of_n(&mut rng, n, n).unwrap();
        assert_eq!(s, (0..n).collect::<Vec<_>>());
        let s = sample_k_of_n(&mut rng, 40, 5 * MASK_LIMIT).unwrap();
        assert_eq!(s.len(), 40);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&x| x < 5 * MASK_LIMIT));
    }

    #[test]
    fn sample_is_sorted_distinct_and_in_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..200 {
            let s = sample_k_of_n(&mut rng, 7, 30).unwrap();
            assert_eq!(s.len(), 7);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(s.iter().all(|&x| x < 30));
        }
    }

    #[test]
    fn sample_is_approximately_uniform_per_element() {
        // Each element should appear with probability k/n.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let (k, n, trials) = (4u64, 12u64, 30_000usize);
        let mut counts = vec![0usize; n as usize];
        for _ in 0..trials {
            for x in sample_k_of_n(&mut rng, k, n).unwrap() {
                counts[x as usize] += 1;
            }
        }
        let expected = trials as f64 * k as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "element {i} count {c} expected {expected}");
        }
    }

    #[test]
    fn excluding_respects_exclusions() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let excluded = vec![0, 3, 4, 9];
        for _ in 0..200 {
            let s = sample_k_of_n_excluding(&mut rng, 4, 10, &excluded).unwrap();
            assert_eq!(s.len(), 4);
            for x in &s {
                assert!(!excluded.contains(x), "sampled excluded element {x}");
                assert!(*x < 10);
            }
        }
    }

    #[test]
    fn excluding_errors_when_not_enough_remain() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let excluded = vec![0, 1, 2, 3, 4, 5, 6];
        assert!(sample_k_of_n_excluding(&mut rng, 4, 10, &excluded).is_err());
        assert!(sample_k_of_n_excluding(&mut rng, 3, 10, &excluded).is_ok());
    }

    #[test]
    fn compacted_index_mapping() {
        // universe 0..10, excluded {0, 3, 4, 9} -> remaining [1,2,5,6,7,8]
        let excluded = vec![0, 3, 4, 9];
        let remaining: Vec<u64> = (0..6).map(|p| map_compacted_index(p, &excluded)).collect();
        assert_eq!(remaining, vec![1, 2, 5, 6, 7, 8]);
    }
}
