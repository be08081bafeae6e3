//! Bridge from [`pqs_math::plan`] capacity plans to runnable simulator
//! configurations, shared by the `plan` and `validate_plan` experiments.
//!
//! The math crate solves for `(n, q, probe_margin, gossip)` without knowing
//! the simulator exists; this module does the mechanical mapping — workload
//! shape to [`KeySpace`], gossip plan to [`DiffusionPolicy`]; the latency law
//! is one type in both crates and passes through — picks a run duration long
//! enough for the measured stale-read rate to be statistically meaningful,
//! and implements the
//! tolerance-band checks of the prediction contract (`docs/ANALYSIS.md`):
//! the Wilson interval of the measured ε must intersect the predicted
//! `[epsilon_lower, epsilon_upper]` band and the measured p99 must land
//! within `±P99_REL_TOL` of the prediction.

use pqs_math::mc::BernoulliEstimator;
use pqs_math::plan::{tolerance, CapacityPlan, PlanInput, ProbeLatency, SloTargets, WorkloadShape};
use pqs_sim::metrics::SimReport;
use pqs_sim::runner::{DiffusionPolicy, SimConfig};
use pqs_sim::workload::KeySpace;

use crate::harness::Harness;

/// Expected stale-read events the run duration is sized for (at the
/// mid-band ε): enough that the Wilson interval is a few times narrower
/// than the predicted band.
const EPS_EVENTS_TARGET: f64 = 40.0;

/// Minimum completed operations the run duration is sized for, so the p99
/// estimate rests on a real sample.
const MIN_OP_SAMPLES: f64 = 4000.0;

/// Run-duration clamp in simulated seconds (quick mode divides by 4 and
/// clamps to the same floor).
const DURATION_RANGE: (f64, f64) = (20.0, 240.0);

/// A named workload/SLO preset — the worked examples of `docs/PLANNER.md`.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// CLI name (`--scenario NAME`).
    pub name: &'static str,
    /// One-line description for tables and help text.
    pub about: &'static str,
    /// The planner input the preset expands to.
    pub input: PlanInput,
}

/// The three worked examples: a low-ε directory service, a hot-key Zipf
/// cache, and a crash-heavy lock service.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "directory",
            about: "low-epsilon directory service (tight staleness, mild skew)",
            input: PlanInput {
                workload: WorkloadShape {
                    arrival_rate: 200.0,
                    read_fraction: 0.9,
                    keys: 64,
                    zipf_exponent: 0.8,
                    crash_fraction: 0.02,
                },
                slo: SloTargets {
                    epsilon: 0.01,
                    p99_latency: 0.030,
                    max_server_rate: 40.0,
                },
                latency: ProbeLatency::Exponential { mean: 0.005 },
                max_universe: 4096,
            },
        },
        Scenario {
            name: "hotkey",
            about: "hot-key Zipf service (read-mostly, heavy skew, loose epsilon)",
            input: PlanInput {
                workload: WorkloadShape {
                    arrival_rate: 400.0,
                    read_fraction: 0.95,
                    keys: 512,
                    zipf_exponent: 1.2,
                    crash_fraction: 0.0,
                },
                slo: SloTargets {
                    epsilon: 0.05,
                    p99_latency: 0.012,
                    max_server_rate: 120.0,
                },
                latency: ProbeLatency::Exponential { mean: 0.003 },
                max_universe: 4096,
            },
        },
        Scenario {
            name: "lock",
            about: "crash-heavy lock service (write-heavy, 20% crashed servers)",
            input: PlanInput {
                workload: WorkloadShape {
                    arrival_rate: 120.0,
                    read_fraction: 0.7,
                    keys: 32,
                    zipf_exponent: 0.5,
                    crash_fraction: 0.2,
                },
                slo: SloTargets {
                    epsilon: 0.02,
                    p99_latency: 0.050,
                    max_server_rate: 60.0,
                },
                latency: ProbeLatency::Exponential { mean: 0.008 },
                max_universe: 4096,
            },
        },
    ]
}

/// Looks a scenario preset up by name.
pub fn scenario_by_name(name: &str) -> Option<Scenario> {
    scenarios().into_iter().find(|s| s.name == name)
}

/// Maps the workload shape onto the simulator's key space.
fn keyspace_for(workload: &WorkloadShape) -> KeySpace {
    if workload.keys == 1 {
        KeySpace::single()
    } else if workload.zipf_exponent == 0.0 {
        KeySpace::uniform(workload.keys)
    } else {
        KeySpace::zipf(workload.keys, workload.zipf_exponent)
    }
}

/// Picks a run duration long enough that (a) the mid-band ε prediction
/// implies ≥ `EPS_EVENTS_TARGET` expected stale reads and (b) at least
/// `MIN_OP_SAMPLES` operations complete, clamped to `DURATION_RANGE`;
/// `quick` divides by 4 for smoke runs (the Wilson check automatically
/// widens with the smaller sample).
pub fn duration_for(input: &PlanInput, plan: &CapacityPlan, quick: bool) -> f64 {
    let eps_ref = (0.5 * plan.predicted.epsilon_upper)
        .max(plan.predicted.epsilon_lower)
        .max(1e-4);
    let read_rate = (input.workload.arrival_rate * input.workload.read_fraction).max(1.0);
    let d_eps = EPS_EVENTS_TARGET / (eps_ref * read_rate);
    let d_ops = MIN_OP_SAMPLES / input.workload.arrival_rate;
    let (lo, hi) = DURATION_RANGE;
    let full = d_eps.max(d_ops).clamp(lo, hi);
    if quick {
        (full / 4.0).max(lo / 2.0)
    } else {
        full
    }
}

/// Renders a solved plan as a runnable [`SimConfig`].  `diffusion_on`
/// selects between the emitted configuration (gossip as planned) and its
/// diffusion-off twin, which `validate_plan` uses for the two-sided ε band
/// check (without gossip the steady-state stale rate must land *inside*
/// `[epsilon_lower, epsilon_upper]`, not merely below the top).
pub fn plan_config(
    input: &PlanInput,
    plan: &CapacityPlan,
    seed: u64,
    duration: f64,
    diffusion_on: bool,
) -> SimConfig {
    let mut builder = SimConfig::builder()
        .with_duration(duration)
        .with_arrival_rate(input.workload.arrival_rate)
        .with_read_fraction(input.workload.read_fraction)
        .with_keyspace(keyspace_for(&input.workload))
        .with_latency(input.latency)
        .with_crash_probability(input.workload.crash_fraction)
        .with_probe_margin(plan.probe_margin as u32)
        .with_op_timeout(plan.predicted.op_timeout)
        .with_seed(seed);
    if diffusion_on {
        if let Some(g) = plan.gossip {
            let mut policy = if g.digest_delta {
                DiffusionPolicy::digest_delta(g.period, g.fanout)
            } else {
                DiffusionPolicy::full_push(g.period, g.fanout)
            };
            policy = policy.with_push_latency(input.latency);
            builder = builder.with_diffusion(policy);
        }
    }
    builder.build()
}

/// Rebuilds a configuration through the builder from its own fields and
/// checks both the struct and its rendered chain agree — the round-trip
/// half of the serialization contract.
pub fn builder_round_trips(config: &SimConfig) -> bool {
    let mut b = SimConfig::builder()
        .with_duration(config.duration)
        .with_arrival_rate(config.arrival_rate)
        .with_read_fraction(config.read_fraction)
        .with_keyspace(config.keyspace)
        .with_latency(config.latency)
        .with_crash_probability(config.crash_probability)
        .with_byzantine(config.byzantine)
        .with_probe_margin(config.probe_margin)
        .with_op_timeout(config.op_timeout)
        .with_max_retries(config.max_retries)
        .with_retry_backoff(config.retry_backoff)
        .with_seed(config.seed)
        .with_num_shards(config.num_shards)
        .with_threads(config.threads);
    if let Some(policy) = config.diffusion {
        b = b.with_diffusion(policy);
    }
    let rebuilt = b.build();
    rebuilt == *config && rebuilt.to_builder_chain() == config.to_builder_chain()
}

/// Checks a measured report against a plan's tolerance bands, one
/// [`Harness::check`] per band (no violation = contract honored).
/// `diffusion_on` must say which twin produced the report: with gossip the
/// ε check is one-sided (gossip only freshens state), without it the band
/// is two-sided.
pub fn check_prediction(
    h: &mut Harness<'_>,
    label: &str,
    plan: &CapacityPlan,
    report: &SimReport,
    diffusion_on: bool,
) {
    let p = &plan.predicted;

    // ε: Wilson interval of the measured stale rate vs the predicted band.
    // Eligible trials only — reads of never-written keys cannot be stale
    // and would dilute the per-read probability the bounds predict.
    let trials = report
        .completed_reads
        .saturating_sub(report.concurrent_reads)
        .saturating_sub(report.unwritten_reads);
    let stale = (report.stale_reads + report.empty_reads).min(trials);
    let est = BernoulliEstimator::from_counts(stale, trials);
    let (wilson_lo, wilson_hi) = est.wilson_interval(tolerance::EPS_CONFIDENCE_Z);
    h.check(
        trials >= 100,
        format_args!("{label}: only {trials} eligible reads — run too short to check the ε band"),
    );
    h.check(
        wilson_lo <= p.epsilon_upper,
        format_args!(
            "{label}: measured stale rate {:.5} (Wilson ≥ {:.5}) exceeds the predicted \
             upper band {:.5}",
            est.estimate(),
            wilson_lo,
            p.epsilon_upper
        ),
    );
    if !diffusion_on {
        h.check(
            wilson_hi >= p.epsilon_lower,
            format_args!(
                "{label}: measured stale rate {:.5} (Wilson ≤ {:.5}) falls below the predicted \
                 lower band {:.5} — the analysis is too pessimistic somewhere",
                est.estimate(),
                wilson_hi,
                p.epsilon_lower
            ),
        );
    }

    // p99: relative band anchored on the [p99_lower, p99_upper] bracket
    // (the crash draw is one Binomial realization per run, so the live
    // universe — and with it the quantile — varies seed to seed), plus
    // absolute slack.
    let measured_p99 = report.p99_latency();
    let band_lo = p.p99_lower * (1.0 - tolerance::P99_REL_TOL) - tolerance::P99_ABS_TOL;
    let band_hi = p.p99_upper * (1.0 + tolerance::P99_REL_TOL) + tolerance::P99_ABS_TOL;
    h.check(
        (band_lo..=band_hi).contains(&measured_p99),
        format_args!(
            "{label}: measured p99 {:.4}s outside the predicted band \
             [{band_lo:.4}s, {band_hi:.4}s] (prediction {:.4}s, bracket \
             [{:.4}s, {:.4}s] ± {:.0}%)",
            measured_p99,
            p.p99_latency,
            p.p99_lower,
            p.p99_upper,
            tolerance::P99_REL_TOL * 100.0
        ),
    );

    // Unavailability: operations that never got a reply must stay inside
    // the timeout budget (Wilson lower bound, so short runs don't flap).
    let total_ops = report.completed_reads + report.completed_writes + report.unavailable_ops;
    let unavail = BernoulliEstimator::from_counts(report.unavailable_ops, total_ops.max(1));
    let (unavail_lo, _) = unavail.wilson_interval(tolerance::EPS_CONFIDENCE_Z);
    h.check(
        unavail_lo <= tolerance::TIMEOUT_BUDGET,
        format_args!(
            "{label}: unavailability {:.5} exceeds the timeout budget {:.5}",
            unavail.estimate(),
            tolerance::TIMEOUT_BUDGET
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqs_math::plan;

    #[test]
    fn scenarios_are_named_and_solvable() {
        for s in scenarios() {
            let solved = plan::solve(&s.input)
                .unwrap_or_else(|e| panic!("scenario {} must solve: {e}", s.name));
            assert!(solved.n >= 2, "{}", s.name);
            assert!(
                solved.predicted.epsilon_upper <= s.input.slo.epsilon + 1e-12,
                "{}",
                s.name
            );
            assert!(scenario_by_name(s.name).is_some());
        }
        assert!(scenario_by_name("nonesuch").is_none());
    }

    #[test]
    fn emitted_configs_round_trip_through_the_builder() {
        for s in scenarios() {
            let solved = plan::solve(&s.input).unwrap();
            for diffusion_on in [false, true] {
                let config = plan_config(&s.input, &solved, 7, 30.0, diffusion_on);
                assert!(builder_round_trips(&config), "{} round trip", s.name);
                assert_eq!(
                    config.diffusion.is_some(),
                    diffusion_on && solved.gossip.is_some()
                );
                assert_eq!(config.probe_margin as u64, solved.probe_margin);
            }
        }
    }

    #[test]
    fn duration_scales_with_rarity_and_quick_mode() {
        let s = scenario_by_name("directory").unwrap();
        let solved = plan::solve(&s.input).unwrap();
        let full = duration_for(&s.input, &solved, false);
        let quick = duration_for(&s.input, &solved, true);
        assert!(full >= DURATION_RANGE.0 && full <= DURATION_RANGE.1);
        assert!(quick < full);
        // Tighter ε ⇒ rarer events ⇒ never a shorter run.
        let mut tighter = s.input;
        tighter.slo.epsilon = 0.005;
        let solved_tight = plan::solve(&tighter).unwrap();
        assert!(duration_for(&tighter, &solved_tight, false) >= full);
    }

    #[test]
    fn latency_and_keyspace_mappings_are_isomorphic() {
        // The latency law needs no mapping: the two names are one type.
        let law: pqs_sim::latency::LatencyModel = ProbeLatency::Fixed(0.001);
        assert_eq!(law, ProbeLatency::Fixed(0.001));
        let mut w = scenario_by_name("directory").unwrap().input.workload;
        assert_eq!(keyspace_for(&w), KeySpace::zipf(64, 0.8));
        w.zipf_exponent = 0.0;
        assert_eq!(keyspace_for(&w), KeySpace::uniform(64));
        w.keys = 1;
        assert_eq!(keyspace_for(&w), KeySpace::single());
    }

    #[test]
    fn check_prediction_flags_band_misses() {
        let s = scenario_by_name("directory").unwrap();
        let solved = plan::solve(&s.input).unwrap();
        // A healthy synthetic report: stale rate mid-band, p99 on target.
        let mut report = SimReport {
            completed_reads: 10_000,
            completed_writes: 1_000,
            stale_reads: (0.5
                * (solved.predicted.epsilon_lower + solved.predicted.epsilon_upper)
                * 10_000.0) as u64,
            ..SimReport::default()
        };
        report
            .read_latency
            .record(solved.predicted.p99_latency * 0.99);
        let caught = |report: &SimReport, diffusion_on: bool| {
            let mut out = Vec::new();
            let cli = crate::cli::ValidatorCli::default();
            let mut h = Harness::new("demo", cli, Vec::new(), &mut out);
            check_prediction(&mut h, "demo", &solved, report, diffusion_on);
            h.finish().violations
        };
        assert_eq!(caught(&report, false), Vec::<String>::new());
        // Stale rate far above the band trips the one-sided check.
        report.stale_reads = 4_000;
        let caught_stale = caught(&report, true);
        assert!(
            caught_stale.iter().any(|v| v.contains("upper band")),
            "{caught_stale:?}"
        );
        // A measured p99 far above the prediction trips the latency band.
        let mut slow = SimReport {
            completed_reads: 10_000,
            ..SimReport::default()
        };
        slow.read_latency.record(solved.predicted.p99_latency * 3.0);
        let caught_slow = caught(&slow, true);
        assert!(
            caught_slow.iter().any(|v| v.contains("p99")),
            "{caught_slow:?}"
        );
    }
}
