//! Tables I–4 of Section 6: the load and resilience bounds, and quorum size
//! and fault tolerance of the probabilistic constructions against the
//! strict threshold and grid systems, for ε ≤ 0.001 and b = (√n − 1)/2.
//!
//! Tables 2–4 report two selections of the probabilistic quorum size: the
//! paper's published ℓ (columns `paper …`) and the smallest quorum whose
//! *exact* ε is ≤ 0.001 (column `q*`).  The paper's own rows are data here
//! (`Published`), and each probabilistic one is a check: `round(ℓ√n)`
//! must be the published quorum size and `n − q + 1` the published fault
//! tolerance.  The strict rows are printed beside this repository's
//! constructions and not asserted — the two disagree in places.

use pqs_core::analysis::lower_bounds::table_one_row;
use pqs_core::prelude::*;
use pqs_core::probabilistic::params::{
    exact_epsilon_dissemination, exact_epsilon_intersecting, exact_epsilon_masking,
};
use pqs_math::bounds::masking_threshold_k;

use crate::harness::Harness;
use crate::{
    fmt_prob, section_6_byzantine_threshold, ExperimentTable, SECTION_6_EPSILON, SECTION_6_SIZES,
};

/// One row as the paper prints it: the universe size, the ℓ of the
/// probabilistic construction, and (quorum size, fault tolerance) of the
/// probabilistic, threshold and grid systems.
struct Published(u32, f64, (u32, u32), (u32, u32), (u32, u32));

/// Table 2 of the paper.
const TABLE_2: [Published; 6] = [
    Published(25, 1.80, (9, 17), (13, 13), (9, 5)),
    Published(100, 2.20, (22, 79), (51, 51), (19, 10)),
    Published(225, 2.40, (36, 190), (113, 113), (29, 15)),
    Published(400, 2.45, (49, 352), (201, 201), (39, 20)),
    Published(625, 2.48, (62, 564), (313, 313), (49, 25)),
    Published(900, 2.50, (75, 826), (451, 451), (59, 30)),
];

/// Table 3 of the paper.  The n = 225 and n = 900 threshold/grid entries
/// of the scanned paper contain typographic errors; those four pairs follow
/// the constructions instead.
const TABLE_3: [Published; 6] = [
    Published(25, 2.20, (11, 15), (14, 12), (16, 5)),
    Published(100, 2.40, (24, 77), (53, 48), (36, 10)),
    Published(225, 2.47, (37, 189), (117, 109), (56, 15)),
    Published(400, 2.50, (50, 351), (205, 196), (111, 20)),
    Published(625, 2.52, (63, 563), (319, 307), (141, 25)),
    Published(900, 2.57, (77, 824), (458, 443), (171, 30)),
];

/// Table 4 of the paper (ℓ = q/√n there).
const TABLE_4: [Published; 6] = [
    Published(25, 3.00, (15, 11), (15, 11), (16, 5)),
    Published(100, 3.80, (38, 63), (55, 46), (51, 10)),
    Published(225, 4.27, (64, 162), (120, 106), (81, 15)),
    Published(400, 4.70, (94, 307), (210, 191), (144, 20)),
    Published(625, 4.92, (123, 503), (325, 301), (184, 25)),
    Published(900, 5.07, (152, 749), (465, 436), (224, 30)),
];

fn pair((q, ft): (u32, u32)) -> String {
    format!("{q}/{ft}")
}

/// What one table computes for a row from `n` and the paper's quorum size:
/// its leading cells after `n` (the Byzantine threshold, for Tables 3 and
/// 4), the cells of the probabilistic construction (`paper q eps`, then the
/// exact-ε selection), and the two strict systems it is compared with.
struct Row {
    lead: Vec<String>,
    probabilistic: Vec<String>,
    threshold: Box<dyn QuorumSystem>,
    grid: Box<dyn QuorumSystem>,
}

/// Emits one of Tables 2–4: per published row the paper's quorum size
/// `round(ℓ√n)` and its fault tolerance `n − q + 1`, **checked** against
/// the published pair; then `row`'s cells, each strict construction
/// followed by the pair the paper prints for it.
fn comparison_table(
    h: &mut Harness<'_>,
    name: &str,
    published: &[Published; 6],
    lead_columns: &[&str],
    probabilistic_columns: &[&str],
    row: impl Fn(u32, u32) -> Row,
) {
    let columns = [
        &["n"][..],
        lead_columns,
        &[
            "paper l",
            "paper q",
            "paper FT",
            "published q/FT",
            "as published",
            "paper q eps",
        ],
        probabilistic_columns,
        &[
            "threshold q",
            "threshold FT",
            "published threshold q/FT",
            "grid q",
            "grid FT",
            "published grid q/FT",
        ],
    ]
    .concat();
    let mut table = ExperimentTable::new(name, &columns);
    for &Published(n, ell, probabilistic, threshold, grid) in published {
        assert!(SECTION_6_SIZES.contains(&n));
        let paper_q = (ell * (n as f64).sqrt()).round() as u32;
        let paper = (paper_q, n - paper_q + 1);
        let as_published = h.check(
            paper == probabilistic,
            format_args!(
                "n={n}: l={ell:.2} gives quorum size/fault tolerance {}, the paper prints {}",
                pair(paper),
                pair(probabilistic)
            ),
        );
        let computed = row(n, paper_q);
        let mut cells = vec![n.to_string()];
        cells.extend(computed.lead);
        cells.extend([
            format!("{ell:.2}"),
            paper.0.to_string(),
            paper.1.to_string(),
            pair(probabilistic),
            as_published.to_string(),
        ]);
        cells.extend(computed.probabilistic);
        for (system, printed) in [(computed.threshold, threshold), (computed.grid, grid)] {
            cells.extend([
                system.min_quorum_size().to_string(),
                system.fault_tolerance().to_string(),
                pair(printed),
            ]);
        }
        table.push_row(cells);
    }
    h.emit(&table);
}

/// Table I: lower bounds on the load and caps on the resilience of strict,
/// b-dissemination and b-masking quorum systems, at the Section 6 sizes.
pub(super) fn table1(h: &mut Harness<'_>) {
    let mut table = ExperimentTable::new(
        "table1_load_and_resilience_bounds",
        &[
            "n",
            "b",
            "strict load >= sqrt(1/n)",
            "dissem load >= sqrt((b+1)/n)",
            "masking load >= sqrt((2b+1)/n)",
            "dissem b <= (n-1)/3",
            "masking b <= (n-1)/4",
        ],
    );
    for n in SECTION_6_SIZES {
        let b = section_6_byzantine_threshold(n);
        let row = table_one_row(n, b);
        table.push_row(vec![
            n.to_string(),
            b.to_string(),
            format!("{:.4}", row.strict_load),
            format!("{:.4}", row.dissemination_load),
            format!("{:.4}", row.masking_load),
            row.dissemination_max_b.to_string(),
            row.masking_max_b.to_string(),
        ]);
    }
    h.emit(&table);
    h.line(
        "Paper's Table I states the bounds symbolically: sqrt(1/n), sqrt((b+1)/n), sqrt((2b+1)/n) \
         and resilience caps (n-1)/3, (n-1)/4; the rows above instantiate them.",
    );
}

/// Table 2: the ε-intersecting construction vs majority and grid.
pub(super) fn table2(h: &mut Harness<'_>) {
    comparison_table(
        h,
        "table2_epsilon_intersecting_vs_strict",
        &TABLE_2,
        &[],
        &["q* (exact<=1e-3)", "eps-int FT"],
        |n, paper_q| {
            let paper_eps = exact_epsilon_intersecting(n, paper_q).expect("valid parameters");
            let exact = EpsilonIntersecting::with_target_epsilon(n, SECTION_6_EPSILON)
                .expect("target epsilon achievable");
            Row {
                lead: vec![],
                probabilistic: vec![
                    fmt_prob(paper_eps),
                    exact.quorum_size().to_string(),
                    exact.fault_tolerance().to_string(),
                ],
                threshold: Box::new(Majority::new(n).expect("valid n")),
                grid: Box::new(Grid::new(n).expect("perfect square")),
            }
        },
    );
}

/// Table 3: (b, ε)-dissemination systems vs the strict dissemination
/// threshold and grid constructions.
pub(super) fn table3(h: &mut Harness<'_>) {
    comparison_table(
        h,
        "table3_dissemination_systems",
        &TABLE_3,
        &["b"],
        &["q* (exact<=1e-3)", "prob FT"],
        |n, paper_q| {
            let b = section_6_byzantine_threshold(n);
            let paper_eps = exact_epsilon_dissemination(n, paper_q, b).expect("valid parameters");
            let exact = ProbabilisticDissemination::with_target_epsilon(n, b, SECTION_6_EPSILON)
                .expect("target achievable");
            Row {
                lead: vec![b.to_string()],
                probabilistic: vec![
                    fmt_prob(paper_eps),
                    exact.quorum_size().to_string(),
                    exact.fault_tolerance().to_string(),
                ],
                threshold: Box::new(
                    DisseminationThreshold::new(n, b).expect("within resilience bound"),
                ),
                grid: Box::new(DisseminationGrid::new(n, b).expect("perfect square")),
            }
        },
    );
}

/// Table 4: (b, ε)-masking systems vs the strict masking threshold and
/// grid constructions.
pub(super) fn table4(h: &mut Harness<'_>) {
    comparison_table(
        h,
        "table4_masking_systems",
        &TABLE_4,
        &["b"],
        &["q* (exact<=1e-3)", "k*", "prob FT"],
        |n, paper_q| {
            let b = section_6_byzantine_threshold(n);
            let paper_k = masking_threshold_k(n as u64, paper_q as u64) as u32;
            let paper_eps =
                exact_epsilon_masking(n, paper_q, b, paper_k).expect("valid parameters");
            let exact = ProbabilisticMasking::with_target_epsilon(n, b, SECTION_6_EPSILON)
                .expect("target achievable");
            Row {
                lead: vec![b.to_string()],
                probabilistic: vec![
                    fmt_prob(paper_eps),
                    exact.quorum_size().to_string(),
                    exact.read_threshold().to_string(),
                    exact.fault_tolerance().to_string(),
                ],
                threshold: Box::new(MaskingThreshold::new(n, b).expect("within resilience bound")),
                grid: Box::new(MaskingGrid::new(n, b).expect("perfect square")),
            }
        },
    );
}
