//! The graceful-degradation contract for the adversarial scenario engine:
//! churn, healing partitions and adaptive Byzantine attackers must bend the
//! measured ε, never break it.
//!
//! For every scenario (steady / membership churn / healing partitions /
//! both) × protocol (safe, dissemination) this validator runs a **same-seed twin pair** — the static-adversary
//! baseline and the adaptive run — and enforces:
//!
//! * **replay invariance** — the adaptive adversary is evaluated at
//!   probe-reply time from foreground-only statistics, so the diffusion-off
//!   twin pair must agree on every foreground count (completions, events,
//!   per-server accesses); only staleness may move;
//! * **monotonicity** — an adaptive sleeper set can only *raise* the
//!   eligible stale-read rate over the same-seed static baseline;
//! * **graceful degradation** — the adaptive rate stays inside a
//!   quantified band of the baseline:
//!   `adaptive ≤ max(FACTOR · static, static + SLACK)`;
//! * **the masking bound for signed registers** — in unpartitioned
//!   scenarios the dissemination protocol's measured rate (static *and*
//!   adaptive) must sit below the Lemma 4.3-style Monte-Carlo probability
//!   that two quorums intersect only inside the worst-case faulty set
//!   (static Byzantine servers plus every sleeper), plus sampling slack —
//!   signed data cannot be forged, so that is all the adversary can buy;
//! * **heal re-convergence** — the diffusion-on partition lanes must
//!   observe their heals and report a monotone post-heal coverage curve.
//!
//! Any miss fails the run.  `--quick` sweeps 10 seeds at a short duration
//! (the CI smoke configuration), the full run sweeps fewer seeds at full
//! length.

use pqs_core::analysis::intersection::estimate_contained_in_faulty;
use pqs_core::prelude::*;
use pqs_sim::failure::{ByzantineStrategy, FailurePlan};
use pqs_sim::metrics::SimReport;
use pqs_sim::runner::{DiffusionPolicy, ProtocolKind, SimConfig, Simulation};
use pqs_sim::workload::KeySpace;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use super::retrying_sim_config;
use crate::harness::Harness;
use crate::{fmt_prob, ExperimentTable};

/// Universe size of the validation system.
const N: u32 = 60;
/// Quorum size — the paper's `ℓ√n` regime, where non-intersection (and so
/// baseline staleness) is actually observable.
const Q: u32 = 12;
/// Statically Byzantine servers (ids `0..BYZANTINE`).
const BYZANTINE: u32 = 4;
/// Adaptive sleepers (ids `BYZANTINE..BYZANTINE + SLEEPERS`), correct until
/// their strategy predicate fires.
const SLEEPERS: u32 = 6;
/// Graceful-degradation band: the adaptive rate may not exceed
/// `max(FACTOR · static, static + SLACK)`.
const DEGRADATION_FACTOR: f64 = 8.0;
/// Absolute arm of the degradation band, sized to finite-sample noise at
/// the quick duration.
const DEGRADATION_SLACK: f64 = 0.08;
/// Sampling slack on the Monte-Carlo masking bound.
const MASKING_SLACK: f64 = 0.08;

/// One scenario of the sweep: which schedule families the failure plan
/// carries.
struct Scenario {
    name: &'static str,
    churn: bool,
    partition: bool,
}

const SCENARIOS: [Scenario; 4] = [
    Scenario {
        name: "steady",
        churn: false,
        partition: false,
    },
    Scenario {
        name: "churn",
        churn: true,
        partition: false,
    },
    Scenario {
        name: "partition",
        churn: false,
        partition: true,
    },
    Scenario {
        name: "churn+partition",
        churn: true,
        partition: true,
    },
];

fn sleeper_ids() -> Vec<ServerId> {
    (BYZANTINE..BYZANTINE + SLEEPERS)
        .map(ServerId::new)
        .collect()
}

/// The scenario's failure plan, schedules scaled to the run duration:
/// churn takes two servers down mid-run and brings them (plus one
/// initially-absent joiner) back; partitions split the cluster twice, into
/// two then three components, each window healing before the run ends.
fn scenario_plan(scenario: &Scenario, d: f64, strategy: ByzantineStrategy) -> FailurePlan {
    let mut plan = FailurePlan::none();
    plan.byzantine = (0..BYZANTINE).map(ServerId::new).collect();
    if scenario.churn {
        plan = plan
            .with_join(0.15 * d, ServerId::new(22)) // first event is a join: initially absent
            .with_leave(0.25 * d, ServerId::new(20))
            .with_leave(0.30 * d, ServerId::new(21))
            .with_join(0.60 * d, ServerId::new(20))
            .with_join(0.65 * d, ServerId::new(21));
    }
    if scenario.partition {
        plan = plan
            .with_partition(0.25 * d, 0.55 * d, 2)
            .with_partition(0.70 * d, 0.85 * d, 3);
    }
    plan.with_strategy(strategy)
}

/// One shard: the report does not depend on the layout, and proving that
/// is `validate_parallel`'s job.
fn config(seed: u64, duration: f64) -> SimConfig {
    retrying_sim_config(seed, duration, 80.0, KeySpace::zipf(16, 1.0)).build()
}

fn run(
    system: &EpsilonIntersecting,
    kind: ProtocolKind,
    config: SimConfig,
    plan: FailurePlan,
) -> SimReport {
    Simulation::new(system, kind, config)
        .with_failure_plan(plan)
        .run()
}

/// Checks the adaptive twin's rate against the quantified degradation
/// ceiling of its static baseline; with a `row` — the (scenario, protocol,
/// gossip, adversary) cells of the sweep's first seed — tabulates the pair.
fn check_degradation(
    h: &mut Harness<'_>,
    table: &mut ExperimentTable,
    row: Option<[&str; 4]>,
    tag: &str,
    baseline: &SimReport,
    adaptive: &SimReport,
) {
    let s_rate = baseline.eligible_stale_read_rate();
    let a_rate = adaptive.eligible_stale_read_rate();
    let ceiling = (s_rate * DEGRADATION_FACTOR).max(s_rate + DEGRADATION_SLACK);
    h.check(
        a_rate <= ceiling,
        format_args!(
            "{tag}: adaptive rate {} above degradation ceiling {} (static {})",
            fmt_prob(a_rate),
            fmt_prob(ceiling),
            fmt_prob(s_rate)
        ),
    );
    if let Some(lane) = row {
        let mut cells = lane.map(String::from).to_vec();
        cells.extend([
            fmt_prob(s_rate),
            fmt_prob(a_rate),
            fmt_prob(ceiling),
            adaptive.adaptive_activations.to_string(),
            adaptive.dropped_probes.to_string(),
            adaptive.membership_events.to_string(),
        ]);
        table.push_row(cells);
    }
}

pub(super) fn validate_adversarial(h: &mut Harness<'_>) {
    let cli = h.cli().clone();
    let mut table = ExperimentTable::new(
        "validate_adversarial_graceful_degradation",
        &[
            "scenario",
            "protocol",
            "gossip",
            "adversary",
            "static eps",
            "adaptive eps",
            "ceiling",
            "activations",
            "dropped probes",
            "membership events",
        ],
    );

    let system = EpsilonIntersecting::new(N, Q).expect("n=60, q=12 is a valid PQS");
    let duration = if cli.quick { 6.0 } else { 30.0 };
    let seed_base = cli
        .seed
        .wrapping_mul(0x9e37_79b9)
        .wrapping_add("validate_adversarial".len() as u64);
    let seeds: Vec<u64> = if cli.quick {
        (0..10).map(|i| seed_base.wrapping_add(i)).collect()
    } else {
        (0..3).map(|i| seed_base.wrapping_add(i)).collect()
    };

    // The Lemma 4.3-style ceiling for signed registers: the probability
    // that two quorums intersect only inside the worst-case faulty set —
    // every static Byzantine server plus every sleeper.  Signed data
    // cannot be forged, so no adaptive strategy buys more than this.
    let faulty = Quorum::from_indices(system.universe(), 0..BYZANTINE + SLEEPERS)
        .expect("faulty set smaller than the universe");
    let mc_trials = if cli.quick { 20_000 } else { 100_000 };
    let mut mc_rng = ChaCha8Rng::seed_from_u64(0xadb ^ cli.seed);
    let masking_bound = estimate_contained_in_faulty(&system, &faulty, mc_trials, &mut mc_rng)
        .expect("trials > 0")
        .estimate()
        + MASKING_SLACK;

    let protocols: [(&str, ProtocolKind); 2] = [
        ("safe", ProtocolKind::Safe),
        ("dissemination", ProtocolKind::Dissemination),
    ];
    let adversaries: [(&str, ByzantineStrategy); 2] = [
        (
            "hot-key",
            ByzantineStrategy::HotKeyTargeting {
                sleepers: sleeper_ids(),
                min_writes: 3,
            },
        ),
        (
            "stale-signed",
            ByzantineStrategy::StaleSigned {
                sleepers: sleeper_ids(),
                window: 0.5,
            },
        ),
    ];

    for scenario in &SCENARIOS {
        for (proto_name, kind) in protocols {
            for &seed in &seeds {
                let cfg = config(seed, duration);
                let static_plan = scenario_plan(scenario, duration, ByzantineStrategy::Static);
                let baseline = run(&system, kind, cfg, static_plan.clone());
                let tag = |adv: &str| format!("{}/{proto_name}/{adv} seed {seed}", scenario.name);

                if scenario.churn {
                    let scheduled = static_plan
                        .transitions
                        .iter()
                        .filter(|t| t.kind.is_membership())
                        .count() as u64;
                    h.check(
                        baseline.membership_events == scheduled,
                        format_args!(
                            "{}: {} membership events applied, schedule has {scheduled}",
                            tag("static"),
                            baseline.membership_events,
                        ),
                    );
                }
                if scenario.partition {
                    h.check(
                        baseline.dropped_probes != 0,
                        format_args!("{}: partition windows dropped no probes", tag("static")),
                    );
                }

                for (adv_name, strategy) in &adversaries {
                    let plan = scenario_plan(scenario, duration, strategy.clone());
                    let adaptive = run(&system, kind, cfg, plan);
                    let s_rate = baseline.eligible_stale_read_rate();
                    let a_rate = adaptive.eligible_stale_read_rate();

                    // Replay invariance: foreground-only adversary
                    // evaluation leaves every foreground count of the
                    // diffusion-off twin untouched.
                    h.check(
                        adaptive.completed_reads == baseline.completed_reads
                            && adaptive.completed_writes == baseline.completed_writes
                            && adaptive.events_processed == baseline.events_processed
                            && adaptive.per_server_accesses == baseline.per_server_accesses,
                        format_args!(
                            "{}: adaptive run diverged from the static twin's \
                                 foreground trajectory",
                            tag(adv_name)
                        ),
                    );
                    h.check(
                        adaptive.adaptive_activations != 0,
                        format_args!("{}: adaptive adversary never activated", tag(adv_name)),
                    );
                    h.check(
                        a_rate + 1e-12 >= s_rate,
                        format_args!(
                            "{}: adaptive rate {} below static baseline {} — \
                             monotonicity broken",
                            tag(adv_name),
                            fmt_prob(a_rate),
                            fmt_prob(s_rate)
                        ),
                    );
                    let row = [scenario.name, proto_name, "off", *adv_name];
                    let row = (seed == seeds[0]).then_some(row);
                    check_degradation(h, &mut table, row, &tag(adv_name), &baseline, &adaptive);
                    if kind == ProtocolKind::Dissemination && !scenario.partition {
                        for (label, rate) in [("static", s_rate), ("adaptive", a_rate)] {
                            h.check(
                                rate <= masking_bound,
                                format_args!(
                                    "{}: signed {label} rate {} above the masking \
                                     bound {}",
                                    tag(adv_name),
                                    fmt_prob(rate),
                                    fmt_prob(masking_bound)
                                ),
                            );
                        }
                    }
                    let component_sum: u64 = adaptive.per_component_stale_reads.iter().sum();
                    h.check(
                        component_sum <= adaptive.stale_reads + adaptive.empty_reads,
                        format_args!(
                            "{}: per-component staleness {} exceeds total stale+empty {}",
                            tag(adv_name),
                            component_sum,
                            adaptive.stale_reads + adaptive.empty_reads
                        ),
                    );
                }

                // Diffusion-on lane: gossip crosses components
                // only after heal time, heals must be observed and the
                // post-heal coverage curve must be monotone.  Gossip RNG
                // streams diverge between the twins once stored records
                // differ, so only the degradation band (not replay
                // equality or exact monotonicity) is asserted here.
                let cfg = SimConfig {
                    diffusion: Some(DiffusionPolicy::full_push(0.1, 3)),
                    ..config(seed, duration)
                };
                let baseline = run(
                    &system,
                    kind,
                    cfg,
                    scenario_plan(scenario, duration, ByzantineStrategy::Static),
                );
                let adaptive = run(
                    &system,
                    kind,
                    cfg,
                    scenario_plan(scenario, duration, adversaries[0].1.clone()),
                );
                let tag = format!("{}/{proto_name}/gossip/hot-key seed {seed}", scenario.name);
                let row = [scenario.name, proto_name, "full-push", "hot-key"];
                let row = (seed == seeds[0]).then_some(row);
                check_degradation(h, &mut table, row, &tag, &baseline, &adaptive);
                if scenario.partition {
                    for (label, report) in [("static", &baseline), ("adaptive", &adaptive)] {
                        h.check(
                            report.heals_observed != 0,
                            format_args!("{tag}: {label} run observed no partition heals"),
                        );
                        h.check(
                            report.post_heal_coverage.windows(2).all(|w| w[1] >= w[0]),
                            format_args!("{tag}: {label} post-heal coverage curve is not monotone"),
                        );
                    }
                }
            }
        }
    }

    h.emit(&table);
    h.line(
        "Graceful degradation: an adaptive adversary may bend the measured epsilon — \
         never beyond a quantified multiple of the static baseline, never below it, and \
         never past the masking bound on signed registers.",
    );
}
