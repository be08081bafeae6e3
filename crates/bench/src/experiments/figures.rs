//! Figures 1–3 of Section 6: the failure probability `F_p` of the three
//! probabilistic constructions (ε ≤ 0.001) at n = 100 and n = 300, against
//! the lower bound on the failure probability of *any* strict quorum system
//! over at most 300 servers (majority for p < ½, singleton for p ≥ ½) and
//! against the strict threshold construction of the same size.

use pqs_core::prelude::*;
use pqs_math::bounds::strict_failure_probability_floor;

use crate::harness::Harness;
use crate::{fmt_prob, ExperimentTable, SECTION_6_EPSILON};

/// (n, b = √n) of the two Byzantine panels.
const BYZANTINE_CONFIGS: [(u32, u32); 2] = [(100, 10), (300, 17)];

/// Tabulates `F_p` for p = 0, 0.02, …, 1 of two probabilistic systems and
/// their two strict counterparts; `labels` names those four columns.
fn failure_curves(
    h: &mut Harness<'_>,
    table_name: &str,
    labels: [&str; 4],
    probabilistic: [&dyn QuorumSystem; 2],
    strict: [&dyn QuorumSystem; 2],
) {
    let mut table = ExperimentTable::new(
        table_name,
        &[
            "p",
            labels[0],
            labels[1],
            "strict lower bound (n<=300)",
            labels[2],
            labels[3],
        ],
    );
    for step in 0..=50 {
        let p = step as f64 / 50.0;
        table.push_row(vec![
            format!("{p:.2}"),
            fmt_prob(probabilistic[0].failure_probability(p)),
            fmt_prob(probabilistic[1].failure_probability(p)),
            fmt_prob(strict_failure_probability_floor(300, p)),
            fmt_prob(strict[0].failure_probability(p)),
            fmt_prob(strict[1].failure_probability(p)),
        ]);
    }
    h.emit(&table);
}

const BYZANTINE_LABELS: [&str; 4] = [
    "prob(100,b=10) F_p",
    "prob(300,b=17) F_p",
    "threshold(100,b=10) F_p",
    "threshold(300,b=17) F_p",
];

/// Figure 1: `R(n, ℓ√n)` against the strict floor and majority.
pub(super) fn figure1(h: &mut Harness<'_>) {
    let systems = [100u32, 300].map(|n| {
        EpsilonIntersecting::with_target_epsilon(n, SECTION_6_EPSILON).expect("target achievable")
    });
    for sys in &systems {
        h.line(format_args!(
            "{}: quorum size {}, exact epsilon {:.2e}",
            sys.name(),
            sys.quorum_size(),
            sys.epsilon()
        ));
    }
    let majorities = [100u32, 300].map(|n| Majority::new(n).expect("valid"));
    failure_curves(
        h,
        "figure1_failure_probability_epsilon_intersecting",
        [
            "R(100) F_p",
            "R(300) F_p",
            "threshold(100) F_p",
            "threshold(300) F_p",
        ],
        [&systems[0], &systems[1]],
        [&majorities[0], &majorities[1]],
    );
    h.line(
        "Shape to compare with the paper's Figure 1: the probabilistic curves stay near zero \
         until p approaches 1 - l/sqrt(n) (~0.75 for n=100, ~0.85 for n=300), beating the strict \
         lower bound for every p in [0.5, 1 - l/sqrt(n)], while the threshold systems' failure \
         probability blows up as soon as p exceeds 1/2.",
    );
}

/// Figure 2: probabilistic dissemination systems (b = √n) against the
/// strict dissemination threshold of size ⌈(n+b+1)/2⌉.
pub(super) fn figure2(h: &mut Harness<'_>) {
    let probabilistic = BYZANTINE_CONFIGS.map(|(n, b)| {
        ProbabilisticDissemination::with_target_epsilon(n, b, SECTION_6_EPSILON)
            .expect("target achievable")
    });
    for sys in &probabilistic {
        h.line(format_args!(
            "{}: quorum size {}, exact epsilon {:.2e}",
            sys.name(),
            sys.quorum_size(),
            sys.epsilon()
        ));
    }
    let strict =
        BYZANTINE_CONFIGS.map(|(n, b)| DisseminationThreshold::new(n, b).expect("within bound"));
    failure_curves(
        h,
        "figure2_failure_probability_dissemination",
        BYZANTINE_LABELS,
        [&probabilistic[0], &probabilistic[1]],
        [&strict[0], &strict[1]],
    );
    h.line(
        "Shape to compare with the paper's Figure 2: the strict dissemination threshold needs \
         quorums of ~(n+b)/2 servers, so its failure probability rises before p reaches 1/2, \
         while the probabilistic construction keeps F_p ~ 0 well beyond p = 1/2.",
    );
}

/// Figure 3: probabilistic masking systems (b = √n) against the strict
/// masking threshold of size ⌈(n+2b+1)/2⌉.
pub(super) fn figure3(h: &mut Harness<'_>) {
    let probabilistic = BYZANTINE_CONFIGS.map(|(n, b)| {
        ProbabilisticMasking::with_target_epsilon(n, b, SECTION_6_EPSILON)
            .expect("target achievable")
    });
    for sys in &probabilistic {
        h.line(format_args!(
            "{}: quorum size {}, threshold k = {}, exact epsilon {:.2e}",
            sys.name(),
            sys.quorum_size(),
            sys.read_threshold(),
            sys.epsilon()
        ));
    }
    let strict = BYZANTINE_CONFIGS.map(|(n, b)| MaskingThreshold::new(n, b).expect("within bound"));
    failure_curves(
        h,
        "figure3_failure_probability_masking",
        BYZANTINE_LABELS,
        [&probabilistic[0], &probabilistic[1]],
        [&strict[0], &strict[1]],
    );
    h.line(
        "Shape to compare with the paper's Figure 3: the strict masking threshold uses quorums of \
         ~(n+2b)/2 servers and its availability collapses earliest of all; the probabilistic \
         masking construction, whose quorums stay O(sqrt(n) log-ish), keeps F_p ~ 0 past p = 1/2.",
    );
}
