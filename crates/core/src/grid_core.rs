//! The `r × r` grid over a `d × d` universe, written once.
//!
//! The `n = d²` servers are laid out in a square array and a quorum is the
//! union of `r` full rows and `r` full columns, drawn uniformly.  Section 6
//! of the paper compares `R(n, q)` against this family three times: `r = 1`
//! is the classical grid of Table 2, and the smallest `r` with `2r² ≥ b + 1`
//! or `2r² ≥ 2b + 1` gives the strict dissemination and masking grids of
//! Tables 3 and 4 (two quorums share at least the `2r²` cells where the rows
//! of one cross the columns of the other).  So the mechanics live here, in
//! [`GridCore`], beside the crate's other core (`rnq.rs`), and
//! [`Grid`](crate::strict::Grid),
//! [`DisseminationGrid`](crate::byzantine::DisseminationGrid) and
//! [`MaskingGrid`](crate::byzantine::MaskingGrid) each hold one plus what
//! only they have.  `scripts/check_set_systems.sh` keeps a second copy from
//! growing back.

use crate::quorum::Quorum;
use crate::universe::Universe;
use crate::CoreError;
use pqs_math::binomial::Binomial;
use pqs_math::sampling::sample_k_of_n;
use rand::RngCore;

/// All unions of `r` rows and `r` columns of a `d × d` array of servers,
/// under the uniform access strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GridCore {
    universe: Universe,
    side: u32,
    rows_and_cols: u32,
}

impl GridCore {
    /// The `kind` grid over `n` servers whose quorums pairwise share at
    /// least `overlap` servers: `r` is the smallest with `2r² ≥ overlap`.
    /// An error unless `n` is a positive perfect square `d²` and `r ≤ d`.
    /// All arithmetic is in `u64`, so no `n` or `overlap` overflows.
    pub(crate) fn new(kind: &str, n: u32, overlap: u64) -> crate::Result<Self> {
        if n == 0 {
            return Err(CoreError::invalid("universe must be non-empty"));
        }
        let d = (n as f64).sqrt().round() as u64;
        if d * d != n as u64 {
            return Err(CoreError::invalid(format!(
                "{kind} requires a perfect-square universe, got n={n}"
            )));
        }
        let Some(r) = (1..=d).find(|r| 2 * r * r >= overlap) else {
            return Err(CoreError::invalid(format!(
                "{kind} over n={n} needs more than its {d} rows and columns for quorums to share {overlap} servers"
            )));
        };
        Ok(GridCore {
            universe: Universe::new(n),
            side: d as u32,
            rows_and_cols: r as u32,
        })
    }

    /// [`new`](Self::new) analysed against `b` Byzantine servers: also an
    /// error unless the crash fault tolerance `d − r + 1` exceeds `b`, so
    /// that a quorum survives whatever the `b` faulty servers do.
    pub(crate) fn against_byzantine(
        kind: &str,
        n: u32,
        b: u32,
        overlap: u64,
    ) -> crate::Result<Self> {
        let core = Self::new(kind, n, overlap)?;
        if core.fault_tolerance() <= b {
            return Err(CoreError::invalid(format!(
                "{kind} over n={n} has fault tolerance {} which does not exceed b={b}",
                core.fault_tolerance()
            )));
        }
        Ok(core)
    }

    pub(crate) fn universe(&self) -> Universe {
        self.universe
    }

    /// The side length `d = √n`.
    pub(crate) fn side(&self) -> u32 {
        self.side
    }

    /// The number `r` of rows (equivalently columns) in each quorum.
    pub(crate) fn rows_and_cols(&self) -> u32 {
        self.rows_and_cols
    }

    /// `2rd − r²`: `r` rows and `r` columns, their `r²` crossings once.
    pub(crate) fn quorum_size(&self) -> usize {
        let (d, r) = (self.side as u64, self.rows_and_cols as u64);
        (r * (2 * d - r)) as usize
    }

    /// The quorum made of the given rows and columns; an error unless there
    /// are `r` of each, all below `d`.
    pub(crate) fn quorum_for(&self, rows: &[u32], cols: &[u32]) -> crate::Result<Quorum> {
        let d = self.side;
        let r = self.rows_and_cols as usize;
        if rows.len() != r || cols.len() != r {
            return Err(CoreError::invalid(format!(
                "expected exactly {r} rows and {r} columns"
            )));
        }
        if rows.iter().chain(cols).any(|&x| x >= d) {
            return Err(CoreError::invalid(format!(
                "rows {rows:?} / columns {cols:?} out of range for side {d}"
            )));
        }
        let row_cells = rows
            .iter()
            .flat_map(|&row| (0..d).map(move |c| row * d + c));
        let col_cells = cols
            .iter()
            .flat_map(|&col| (0..d).map(move |row| row * d + col));
        Quorum::from_indices(self.universe, row_cells.chain(col_cells))
    }

    /// `r` of the `d` rows, then `r` of the `d` columns, each uniform.
    pub(crate) fn sample(&self, rng: &mut dyn RngCore) -> Quorum {
        let mut lines = || -> Vec<u32> {
            sample_k_of_n(rng, self.rows_and_cols as u64, self.side as u64)
                .expect("r <= d was checked at construction")
                .into_iter()
                .map(|x| x as u32)
                .collect()
        };
        let (rows, cols) = (lines(), lines());
        self.quorum_for(&rows, &cols).expect("sampled in range")
    }

    /// Every server lies in the same share of the quorums (the strategy is
    /// uniform and the array symmetric), so the load is exactly
    /// `(2rd − r²)/n`.
    pub(crate) fn load(&self) -> f64 {
        self.quorum_size() as f64 / self.universe.size() as f64
    }

    /// `d − r + 1`: one crash in each of that many rows leaves fewer than
    /// `r` clean rows, so no quorum survives; any smaller set leaves `r`
    /// clean rows and `r` clean columns.
    pub(crate) fn fault_tolerance(&self) -> u32 {
        self.side - self.rows_and_cols + 1
    }

    /// Exact.  The system fails iff fewer than `r` rows or fewer than `r`
    /// columns are free of crashes.  A row is clean with probability
    /// `(1−p)^d`; one that is not dirties `h ~ Bin(j, p)` of the `j` columns
    /// still clean (`h = 0` when its crashes all fall in columns that were
    /// dirty already), whichever rows came before it.  So walk the rows that
    /// have a crash, keeping the law of the columns still clean, and for
    /// each count of dirty rows add the mass of the failing states — times
    /// the ways to place the clean rows — directly, never as
    /// `1 − P(available)`: every term is non-negative and nothing cancels.
    /// `O(d³)` time, `O(d²)` memory.  See
    /// [`QuorumSystem::failure_probability`](crate::system::QuorumSystem::failure_probability)
    /// for the treatment of `p` outside `[0, 1]`.
    pub(crate) fn failure_probability(&self, p: f64) -> f64 {
        if p.is_nan() {
            return f64::NAN;
        }
        let p = p.clamp(0.0, 1.0);
        let alive = 1.0 - p;
        let (d, r) = (self.side as usize, self.rows_and_cols as usize);
        // hits[j][h] = P(a row with a crash dirties h of the j clean columns):
        // P(Bin(j, p) = h) by Pascal's rule, except that such a row misses
        // all j only by crashing in the other d − j, which has probability
        // (1−p)^j · Σ_{i < d−j} p(1−p)^i.
        let mut hits = vec![vec![1.0]];
        for j in 1..=d {
            let mut row = vec![0.0; j + 1];
            for (h, &above) in hits[j - 1].iter().enumerate() {
                row[h] += above * alive;
                row[h + 1] += above * p;
            }
            hits.push(row);
        }
        for (j, row) in hits.iter_mut().enumerate() {
            row[0] = (0..d - j).map(|i| p * alive.powi((j + i) as i32)).sum();
        }
        let clean_row = alive.powi(d as i32);

        // clean_cols[j] = P(the first `dirty_rows` rows each have a crash and
        // leave exactly j columns clean); `placements` = C(d, dirty_rows).
        let mut clean_cols = vec![0.0; d + 1];
        clean_cols[d] = 1.0;
        let mut placements = 1.0;
        let mut failure = 0.0;
        for dirty_rows in 0..=d {
            let clean_rows = d - dirty_rows;
            let failing = if clean_rows < r { d + 1 } else { r };
            let mass: f64 = clean_cols[..failing].iter().sum();
            failure += placements * clean_row.powi(clean_rows as i32) * mass;
            placements = placements * clean_rows as f64 / (dirty_rows + 1) as f64;

            let mut next = vec![0.0; d + 1];
            for (j, &m) in clean_cols.iter().enumerate() {
                for (h, &hit) in hits[j].iter().enumerate() {
                    next[j - h] += m * hit;
                }
            }
            clean_cols = next;
        }
        failure.min(1.0)
    }

    /// A cheap analytical *upper bound* on the failure probability, the
    /// union bound over "too few clean rows" and "too few clean columns":
    /// `2·P(Bin(d, 1 − (1−p)^d) > d − r)`, counting the rows with a crash so
    /// that a small `p` is not lost in `1 − (1−p)^d`.
    pub(crate) fn failure_probability_union_bound(&self, p: f64) -> f64 {
        if p.is_nan() {
            return f64::NAN;
        }
        let (d, r) = (self.side as u64, self.rows_and_cols as u64);
        let dirty_row = -f64::exp_m1(d as f64 * f64::ln_1p(-p.clamp(0.0, 1.0)));
        let dirty_rows = Binomial::new(d, dirty_row).expect("a probability");
        (2.0 * dirty_rows.sf(d - r)).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::{exact_fault_tolerance, induced_load};
    use crate::prelude::*;
    use crate::strategy::WeightedStrategy;
    use pqs_math::comb::choose_f64;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The core with exactly `r` rows and columns over a `d × d` array.
    fn core(d: u32, r: u32) -> GridCore {
        let core = GridCore::new("test grid", d * d, 2 * (r * r) as u64).unwrap();
        assert_eq!((core.side(), core.rows_and_cols()), (d, r));
        core
    }

    /// Every `k`-subset of `0..d`, ascending.
    fn subsets(d: u32, k: u32) -> Vec<Vec<u32>> {
        (0..1u32 << d)
            .filter(|m| m.count_ones() == k)
            .map(|m| (0..d).filter(|i| m >> i & 1 == 1).collect())
            .collect()
    }

    /// The brute-force twin (ROADMAP 1(b)), d ≤ 4 and every r ≤ d: the
    /// recurrence against the sum over all `2^(d²)` crash sets (≤ 65 536)
    /// to 1e-12.  The crash sets are first counted by (clean rows, clean
    /// columns, crashes), so the sum has a few hundred terms with exact
    /// integer weights rather than 65 536 roundings.
    #[test]
    fn failure_probability_matches_the_sum_over_all_crash_sets() {
        for d in 1..=4u32 {
            let n = d * d;
            let row = (1u32 << d) - 1;
            let col = (0..d).fold(0u32, |m, i| m | 1 << (i * d));
            let mut crash_sets = [[[0u32; 17]; 5]; 5];
            for crashed in 0..1u32 << n {
                let clean_rows = (0..d).filter(|i| crashed & row << (i * d) == 0).count();
                let clean_cols = (0..d).filter(|i| crashed & col << i == 0).count();
                crash_sets[clean_rows][clean_cols][crashed.count_ones() as usize] += 1;
            }
            for r in 1..=d as usize {
                for p in [0.01f64, 0.1, 0.3, 0.5, 0.9] {
                    let mut summed = 0.0;
                    for (clean_rows, by_cols) in crash_sets.iter().enumerate() {
                        for (clean_cols, by_dead) in by_cols.iter().enumerate() {
                            if clean_rows < r || clean_cols < r {
                                for (dead, &sets) in by_dead.iter().enumerate().take(n as usize + 1)
                                {
                                    let alive = n as i32 - dead as i32;
                                    summed +=
                                        sets as f64 * p.powi(dead as i32) * (1.0 - p).powi(alive);
                                }
                            }
                        }
                    }
                    let exact = core(d, r as u32).failure_probability(p);
                    assert!(
                        (exact - summed).abs() < 1e-12,
                        "d={d} r={r} F_{p}: {exact} vs {summed}"
                    );
                }
            }
        }
    }

    /// Load and fault tolerance against the generic measures over all
    /// `C(d, r)²` enumerated quorums, d ≤ 4 (at most 36 quorums of 16
    /// servers): load to 1e-12, fault tolerance exactly.  By Definition 2.5
    /// this settles `d − r + 1` against the `√n` the paper's Tables 3 and 4
    /// print for the Byzantine grids: the minimum hitting set of the
    /// enumerated quorums has `d − r + 1` servers.
    #[test]
    fn load_and_fault_tolerance_match_enumeration_of_all_quorums() {
        for d in 1..=4u32 {
            for r in 1..=d {
                let core = core(d, r);
                let lines = subsets(d, r);
                let quorums: Vec<Quorum> = lines
                    .iter()
                    .flat_map(|rows| lines.iter().map(move |cols| (rows, cols)))
                    .map(|(rows, cols)| core.quorum_for(rows, cols).unwrap())
                    .collect();
                assert!(quorums.iter().all(|q| q.len() == core.quorum_size()));
                let uniform = WeightedStrategy::uniform(quorums.len());
                let load = induced_load(&quorums, &uniform).unwrap();
                assert!((core.load() - load).abs() < 1e-12, "d={d} r={r} load");
                assert_eq!(
                    core.fault_tolerance(),
                    exact_fault_tolerance(&quorums).unwrap(),
                    "d={d} r={r} fault tolerance"
                );
            }
        }
    }

    /// What `Grid::failure_probability` used to be: inclusion–exclusion over
    /// the clean rows and columns.  Its terms alternate in sign and cancel
    /// catastrophically for small `p` or large `d`; it is kept as a twin
    /// where it is well-conditioned.
    fn alternating_sum(d: u64, p: f64) -> f64 {
        let alive = 1.0 - p;
        let all_rows_hit = (1.0 - alive.powi(d as i32)).powi(d as i32);
        let mut no_clean_line = 0.0f64;
        for a in 0..=d {
            for b in 0..=d {
                let sign = if (a + b) % 2 == 0 { 1.0 } else { -1.0 };
                let cells = (a * d + b * d - a * b) as i32;
                no_clean_line += sign * choose_f64(d, a) * choose_f64(d, b) * alive.powi(cells);
            }
        }
        2.0 * all_rows_hit - no_clean_line
    }

    #[test]
    fn one_row_one_column_matches_the_alternating_sum_where_that_is_stable() {
        for d in 1..=10u32 {
            for p in [0.05, 0.1, 0.3, 0.5, 0.7, 0.95] {
                let exact = core(d, 1).failure_probability(p);
                let twin = alternating_sum(d as u64, p);
                assert!(
                    (exact - twin).abs() < 1e-9,
                    "d={d} p={p}: {exact} vs {twin}"
                );
            }
        }
    }

    /// On d ≤ 30 and every r ≤ d: never above the union bound, with no
    /// slack (the two differ by the chance that rows *and* columns fail, at
    /// least `d!/2dᵈ` of the bound — 6e-13 at d = 30, far above rounding),
    /// and non-decreasing in p up to the rounding of a sum near 1 (1e-13
    /// relative; the largest dip seen is 1.2e-15).
    #[test]
    fn failure_probability_is_monotone_and_below_the_union_bound() {
        const PS: [f64; 12] = [
            1e-9, 1e-6, 1e-3, 0.01, 0.03, 0.05, 0.1, 0.2, 0.4, 0.7, 0.95, 0.999,
        ];
        for d in 1..=30u32 {
            for r in 1..=d {
                let core = core(d, r);
                let mut below = 0.0;
                for p in PS {
                    let exact = core.failure_probability(p);
                    let bound = core.failure_probability_union_bound(p);
                    assert!(exact <= bound, "d={d} r={r} p={p}: {exact} > {bound}");
                    assert!(
                        exact >= below * (1.0 - 1e-13),
                        "d={d} r={r} p={p}: {exact} < {below}"
                    );
                    below = exact;
                }
            }
        }
    }

    /// The three values the alternating sum got wrong (9 % off, zero, and
    /// therefore not monotone), each to 1e-3 relative.
    #[test]
    fn small_failure_probabilities_are_resolved() {
        let close = |value: f64, expected: f64| (value / expected - 1.0).abs() < 1e-3;
        let f = Grid::new(100).unwrap().failure_probability(0.01);
        assert!(close(f, 1.2767e-10), "{f:e}");
        let g = Grid::new(900).unwrap();
        assert!(close(g.failure_probability(0.01), 5.82e-18));
        assert!(g.failure_probability(0.001) < g.failure_probability(0.01));
        assert!(g.failure_probability(0.001) > 0.0);
    }

    /// The stream did not move: three quorums of each grid at seed 23 and
    /// the draw after them, captured on the commit before the three were
    /// folded onto [`GridCore`] (`Grid` drew `gen_range(0..d)` twice then).
    #[test]
    fn sampler_reproduces_quorums_captured_before_the_refactor() {
        type Captured = (Box<dyn QuorumSystem>, [&'static [u32]; 3], u64);
        let captured: [Captured; 3] = [
            (
                Box::new(Grid::new(25).unwrap()),
                [
                    &[0, 1, 2, 3, 4, 5, 10, 15, 20],
                    &[1, 5, 6, 7, 8, 9, 11, 16, 21],
                    &[2, 7, 12, 17, 20, 21, 22, 23, 24],
                ],
                12_439_899_562_478_287_178,
            ),
            (
                Box::new(DisseminationGrid::new(100, 4).unwrap()),
                [
                    &[
                        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 19, 23, 29, 33, 39, 43, 49, 53, 59, 63,
                        69, 73, 79, 83, 89, 90, 91, 92, 93, 94, 95, 96, 97, 98, 99,
                    ],
                    &[
                        3, 6, 13, 16, 23, 26, 33, 36, 43, 46, 50, 51, 52, 53, 54, 55, 56, 57, 58,
                        59, 63, 66, 73, 76, 80, 81, 82, 83, 84, 85, 86, 87, 88, 89, 93, 96,
                    ],
                    &[
                        2, 7, 12, 17, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34,
                        35, 36, 37, 38, 39, 42, 47, 52, 57, 62, 67, 72, 77, 82, 87, 92, 97,
                    ],
                ],
                8_952_022_927_420_396_957,
            ),
            (
                Box::new(MaskingGrid::new(100, 4).unwrap()),
                [
                    &[
                        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 18, 22, 25, 28, 30, 31, 32, 33, 34,
                        35, 36, 37, 38, 39, 42, 45, 48, 52, 55, 58, 62, 65, 68, 72, 75, 78, 80, 81,
                        82, 83, 84, 85, 86, 87, 88, 89, 92, 95, 98,
                    ],
                    &[
                        2, 7, 8, 12, 17, 18, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32,
                        33, 34, 35, 36, 37, 38, 39, 42, 47, 48, 50, 51, 52, 53, 54, 55, 56, 57, 58,
                        59, 62, 67, 68, 72, 77, 78, 82, 87, 88, 92, 97, 98,
                    ],
                    &[
                        1, 2, 4, 11, 12, 14, 21, 22, 24, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39,
                        40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 51, 52, 54, 61, 62, 64, 71, 72, 74,
                        80, 81, 82, 83, 84, 85, 86, 87, 88, 89, 91, 92, 94,
                    ],
                ],
                11_808_959_277_049_494_010,
            ),
        ];
        for (system, quorums, next) in captured {
            let mut rng = ChaCha8Rng::seed_from_u64(23);
            for expected in quorums {
                let members: Vec<u32> = system
                    .sample_quorum(&mut rng)
                    .iter()
                    .map(|s| s.index())
                    .collect();
                assert_eq!(members, expected, "{}", system.name());
            }
            assert_eq!(rng.next_u64(), next, "{}", system.name());
        }
    }

    /// The three constructors at the largest universes and thresholds
    /// (nothing is sampled): `side * side`, `b + 1` and `2 * b + 1` used to
    /// be computed in `u32`.
    #[test]
    fn validators_do_not_overflow_at_the_largest_universe() {
        const SIDE: u32 = 65_535;
        const SQUARE: u32 = SIDE * SIDE;
        for n in [u32::MAX, SQUARE + 1] {
            assert!(Grid::new(n).is_err(), "n={n}");
            for b in [(1 << 31) - 1, 1 << 31, u32::MAX] {
                assert!(DisseminationGrid::new(n, b).is_err(), "n={n} b={b}");
                assert!(MaskingGrid::new(n, b).is_err(), "n={n} b={b}");
            }
        }
        let g = Grid::new(SQUARE).unwrap();
        assert_eq!((g.side(), g.fault_tolerance()), (SIDE, SIDE));
        assert_eq!(g.quorum_size(), 2 * SIDE as usize - 1);
        // 2r² ≥ b + 1 fits the array (r ≤ 46 341) but leaves d − r + 1 ≤ b.
        for b in [(1 << 31) - 1, 1 << 31, u32::MAX] {
            assert!(DisseminationGrid::new(SQUARE, b).is_err(), "b={b}");
            assert!(MaskingGrid::new(SQUARE, b).is_err(), "b={b}");
            assert!(DisseminationGrid::new(25, b).is_err(), "b={b}");
            assert!(MaskingGrid::new(25, b).is_err(), "b={b}");
        }
        // The largest thresholds the largest array does take.
        let d = DisseminationGrid::new(SQUARE, 65_353).unwrap();
        assert_eq!((d.rows_and_cols(), d.fault_tolerance()), (181, 65_355));
        assert_eq!(d.quorum_size(), 181 * (2 * SIDE as usize - 181));
        assert!(DisseminationGrid::new(SQUARE, 65_355).is_err());
        let m = MaskingGrid::new(SQUARE, 65_279).unwrap();
        assert_eq!((m.rows_and_cols(), m.fault_tolerance()), (256, 65_280));
        assert!(MaskingGrid::new(SQUARE, 65_280).is_err());
    }
}
