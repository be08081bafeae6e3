//! The five named workloads: how each is built from the seed, and the
//! correctness checks its outputs must pass.
//!
//! The program under test receives only the generated `SimConfig`,
//! `FailurePlan` and `PlanInput` values; the seed never reaches it any
//! other way.

use crate::trace::Tracer;
use pqs_core::prelude::*;
use pqs_math::mc::BernoulliEstimator;
use pqs_math::plan::{CapacityPlan, PlanInput};
use pqs_sim::failure::{ByzantineStrategy, FailurePlan};
use pqs_sim::latency::LatencyModel;
use pqs_sim::metrics::SimReport;
use pqs_sim::runner::{DiffusionPolicy, ProtocolKind, SimConfig, Simulation};
use pqs_sim::workload::KeySpace;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A workload's fixed name, why it exists, and how many timed repetitions
/// it needs at least.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub min_reps: usize,
}

/// The workloads, in report order.  The names are fixed: later issues
/// refer to them.
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "seq_foreground",
        why: "classic single-key safe register on the sequential engine: queue, quorum sampling \
              and sessions do all the work; spine, gossip, faults and planner do none",
        min_reps: 5,
    },
    Spec {
        name: "sharded_fullpush",
        why: "8 shards under full-push gossip, timed on one worker thread: the spine (sync, \
              plan, route) is about half the wall clock, foreground under 15 % of events",
        min_reps: 7,
    },
    Spec {
        name: "adversarial_digest",
        why: "signed registers on 4 shards under churn, healing partitions and adaptive sleepers \
              with digest/delta gossip: failure gating, retries, signature checks; full push idle",
        min_reps: 5,
    },
    Spec {
        name: "write_heavy_masking",
        why: "70 % writes on masking quorums of 100 of 400 servers over 4096 keys: the foreground \
              layers with large quorums, threshold reads and a store far beyond cache",
        min_reps: 5,
    },
    Spec {
        name: "planner_grid",
        why: "36 capacity-planner solves and no simulation: pqs-math does all the work, so every \
              engine change must leave it unchanged",
        min_reps: 5,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Normal quantile for the one-sided Wilson check of the measured stale
/// rate against the exact ε: about 5·10⁻⁵ false alarms per run, so the
/// hundred-odd runs of a benchmark session stay clean when the rate is
/// exactly ε.
const WILSON_Z: f64 = 3.9;

/// Simulated length of `adversarial_digest`, which its schedule scales to.
pub const ADVERSARIAL_SECONDS: f64 = 300.0;

const PROBE_LATENCY: LatencyModel = LatencyModel::Exponential { mean: 2e-3 };

/// Seeds the fault placement of `write_heavy_masking`; this draw crashes 20
/// of the 400 servers, the expected number, none of them Byzantine.
const FAULT_PLACEMENT_SEED: u64 = 415;

/// A workload that drives the simulator.
pub struct SimWorkload {
    pub system: Box<dyn QuorumSystem>,
    pub kind: ProtocolKind,
    pub config: SimConfig,
    pub plan: Option<FailurePlan>,
    /// The system's exact ε, where the measured stale rate must respect it.
    pub epsilon: Option<f64>,
    /// Whether the run must show churn, dropped probes and a heal.
    pub adversarial: bool,
}

impl SimWorkload {
    /// A ready-to-run simulation on `threads` worker threads (the report
    /// never depends on the thread count).
    pub fn simulation(&self, threads: u32) -> Simulation<'_, dyn QuorumSystem> {
        let mut config = self.config;
        config.threads = threads;
        let sim = Simulation::new(&*self.system, self.kind, config);
        match &self.plan {
            Some(plan) => sim.with_failure_plan(plan.clone()),
            None => sim,
        }
    }

    pub fn sharded(&self) -> bool {
        self.config.num_shards > 1
    }

    /// The workload's own checks on a report; one line per failure.
    pub fn check(&self, report: &SimReport) -> Vec<String> {
        let mut failures = Vec::new();
        if report.completed_reads + report.completed_writes == 0 {
            failures.push("no operation completed".to_string());
        }
        if let Some(epsilon) = self.epsilon {
            let eligible = report
                .completed_reads
                .saturating_sub(report.concurrent_reads)
                .saturating_sub(report.unwritten_reads);
            let stale = report.stale_reads + report.empty_reads;
            let (lower, _) =
                BernoulliEstimator::from_counts(stale, eligible).wilson_interval(WILSON_Z);
            if lower > epsilon {
                failures.push(format!(
                    "stale-read rate {stale}/{eligible} has Wilson lower bound {lower:.6} above \
                     the exact epsilon {epsilon:.6}"
                ));
            }
        }
        if self.adversarial {
            if report.membership_events != 5 {
                failures.push(format!(
                    "membership_events = {}, the churn schedule has 5",
                    report.membership_events
                ));
            }
            if report.dropped_probes == 0 {
                failures.push("no probe was dropped by a partition".to_string());
            }
            if report.heals_observed == 0 {
                failures.push("no partition heal was observed".to_string());
            }
        }
        failures
    }
}

/// The planner workload: a grid of inputs for `pqs_math::plan::solve`.
pub struct PlannerWorkload {
    pub inputs: Vec<PlanInput>,
}

impl PlannerWorkload {
    pub fn solve_all(&self) -> Vec<pqs_math::Result<CapacityPlan>> {
        self.inputs.iter().map(pqs_math::plan::solve).collect()
    }

    /// Every solve is `Ok` and each plan's prediction meets its own SLO;
    /// returns the failures and how many solves they cover.
    pub fn check(&self, plans: &[pqs_math::Result<CapacityPlan>]) -> (Vec<String>, u64) {
        let mut failures = Vec::new();
        let mut failed = 0;
        for (i, (input, plan)) in self.inputs.iter().zip(plans).enumerate() {
            let problem = match plan {
                Err(e) => Some(format!("solve failed: {e}")),
                Ok(p) if p.predicted.epsilon_upper > input.slo.epsilon => Some(format!(
                    "predicted epsilon_upper {} misses the SLO {}",
                    p.predicted.epsilon_upper, input.slo.epsilon
                )),
                Ok(p) if p.predicted.p99_latency > input.slo.p99_latency => Some(format!(
                    "predicted p99 {} misses the SLO {}",
                    p.predicted.p99_latency, input.slo.p99_latency
                )),
                Ok(_) => None,
            };
            if let Some(problem) = problem {
                failures.push(format!("input {i}: {problem}"));
                failed += 1;
            }
        }
        (failures, failed)
    }
}

pub enum Workload {
    Sim(Box<SimWorkload>),
    Planner(PlannerWorkload),
}

/// Builds the workload `spec` names from `seed`.  `scale` multiplies every
/// simulated duration (and the planner grid's length).  Each call into a
/// layer gets a span.
pub fn build(spec: &Spec, seed: u64, scale: f64, tracer: &mut Tracer) -> Workload {
    match spec.name {
        "seq_foreground" => Workload::Sim(Box::new(seq_foreground(seed, scale, tracer))),
        "sharded_fullpush" => Workload::Sim(Box::new(sharded_fullpush(seed, scale, tracer))),
        "adversarial_digest" => Workload::Sim(Box::new(adversarial_digest(seed, scale, tracer))),
        "write_heavy_masking" => Workload::Sim(Box::new(write_heavy_masking(seed, scale, tracer))),
        "planner_grid" => Workload::Planner(planner_grid(seed, scale, tracer)),
        other => unreachable!("{other} is in SPECS but has no builder"),
    }
}

fn paper_register(n: u32, q: u32, tracer: &mut Tracer) -> EpsilonIntersecting {
    tracer
        .span("core.system_build", |_| EpsilonIntersecting::new(n, q))
        .1
        .expect("the workload's (n, q) is a valid probabilistic quorum system")
}

fn seq_foreground(seed: u64, scale: f64, tracer: &mut Tracer) -> SimWorkload {
    let system = paper_register(100, 16, tracer);
    let (_, epsilon) = tracer.span("bench.bounds", |_| system.exact_epsilon());
    let config = SimConfig::builder()
        .with_duration(150.0 * scale)
        .with_arrival_rate(2000.0)
        .with_read_fraction(0.9)
        .with_latency(PROBE_LATENCY)
        .with_seed(seed)
        .build();
    SimWorkload {
        system: Box::new(system),
        kind: ProtocolKind::Safe,
        config,
        plan: None,
        epsilon: Some(epsilon),
        adversarial: false,
    }
}

fn sharded_fullpush(seed: u64, scale: f64, tracer: &mut Tracer) -> SimWorkload {
    let system = paper_register(100, 16, tracer);
    let config = SimConfig::builder()
        .with_duration(120.0 * scale)
        .with_arrival_rate(500.0)
        .with_read_fraction(0.9)
        .with_keyspace(KeySpace::zipf(64, 1.0))
        .with_latency(PROBE_LATENCY)
        .with_diffusion(DiffusionPolicy::full_push(0.25, 2).with_push_latency(PROBE_LATENCY))
        .with_num_shards(8)
        .with_seed(seed)
        .build();
    SimWorkload {
        system: Box::new(system),
        kind: ProtocolKind::Safe,
        config,
        plan: None,
        // Gossip freshens replicas between writes, so the stale rate sits
        // far below ε here and the bound says nothing.
        epsilon: None,
        adversarial: false,
    }
}

/// The `validate_adversarial` churn + partition schedule, scaled to a run
/// of `d` simulated seconds: 4 static Byzantine servers, one initially
/// absent joiner, two servers that leave and rejoin, a 2-way then a 3-way
/// partition that both heal, and six sleepers that answer stale inside a
/// write window.
pub fn adversarial_schedule(d: f64) -> FailurePlan {
    let mut plan = FailurePlan::none();
    plan.byzantine = (0..4).map(ServerId::new).collect();
    plan.with_join(0.15 * d, ServerId::new(22))
        .with_leave(0.25 * d, ServerId::new(20))
        .with_leave(0.30 * d, ServerId::new(21))
        .with_join(0.60 * d, ServerId::new(20))
        .with_join(0.65 * d, ServerId::new(21))
        .with_partition(0.25 * d, 0.55 * d, 2)
        .with_partition(0.70 * d, 0.85 * d, 3)
        .with_strategy(ByzantineStrategy::StaleSigned {
            sleepers: (4..10).map(ServerId::new).collect(),
            window: 0.5,
        })
}

fn adversarial_digest(seed: u64, scale: f64, tracer: &mut Tracer) -> SimWorkload {
    let system = paper_register(60, 12, tracer);
    let d = ADVERSARIAL_SECONDS * scale;
    let config = SimConfig::builder()
        .with_duration(d)
        .with_arrival_rate(400.0)
        .with_read_fraction(0.8)
        .with_keyspace(KeySpace::zipf(16, 1.0))
        .with_latency(PROBE_LATENCY)
        .with_probe_margin(2)
        .with_op_timeout(0.05)
        .with_max_retries(2)
        .with_diffusion(DiffusionPolicy::digest_delta(0.1, 3))
        .with_num_shards(4)
        .with_seed(seed)
        .build();
    let (_, plan) = tracer.span("sim.failure_plan_build", |_| adversarial_schedule(d));
    SimWorkload {
        system: Box::new(system),
        kind: ProtocolKind::Dissemination,
        config,
        plan: Some(plan),
        epsilon: None,
        adversarial: true,
    }
}

fn write_heavy_masking(seed: u64, scale: f64, tracer: &mut Tracer) -> SimWorkload {
    let (_, system) = tracer.span("core.system_build", |_| {
        ProbabilisticMasking::with_target_epsilon(400, 20, 1e-3)
    });
    let system = system.expect("R_k(400, q) reaches epsilon 1e-3 with 20 Byzantine servers");
    let (_, epsilon) = tracer.span("bench.bounds", |_| system.exact_epsilon());
    let config = SimConfig::builder()
        .with_duration(60.0 * scale)
        .with_arrival_rate(500.0)
        .with_read_fraction(0.3)
        .with_keyspace(KeySpace::zipf(4096, 0.8))
        .with_latency(PROBE_LATENCY)
        .with_probe_margin(8)
        .with_seed(seed)
        .build();
    // Which 20 servers are Byzantine and which crash (each with
    // probability 0.05) is part of the workload, not of the seed: the p99
    // of a first-100-of-108 access moves by a tenth with the number of
    // crashed servers, which would drown the metric in seed-to-seed noise.
    // Arrivals, keys, quorums and latencies still follow the seed.
    let (_, plan) = tracer.span("sim.failure_plan_build", |_| {
        let mut placement = ChaCha8Rng::seed_from_u64(FAULT_PLACEMENT_SEED);
        FailurePlan::none()
            .with_random_byzantine(system.universe(), 20, &mut placement)
            .with_independent_crashes(system.universe(), 0.05, 0.0, &mut placement)
    });
    let kind = ProtocolKind::Masking {
        threshold: system.read_threshold(),
    };
    SimWorkload {
        system: Box::new(system),
        kind,
        config,
        plan: Some(plan),
        epsilon: Some(epsilon),
        adversarial: false,
    }
}

/// The 3 presets × ε target {0.5, 1, 2}× × crash fraction {+0, +0.05} ×
/// arrival and per-server rate {1, 2}×, each SLO and rate nudged by up to
/// ±2 % from the seed so that no two seeds solve the same inputs.  `scale`
/// keeps a prefix of the grid.
fn planner_grid(seed: u64, scale: f64, tracer: &mut Tracer) -> PlannerWorkload {
    let (_, inputs) = tracer.span("bench.grid_build", |_| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut nudge = move || 1.0 + rng.gen_range(-0.02..0.02);
        let mut inputs = Vec::new();
        for preset in pqs_bench::planner::scenarios() {
            for epsilon_factor in [0.5, 1.0, 2.0] {
                for extra_crash in [0.0, 0.05] {
                    for rate_factor in [1.0, 2.0] {
                        let mut input = preset.input;
                        input.slo.epsilon *= epsilon_factor * nudge();
                        input.slo.p99_latency *= nudge();
                        input.workload.crash_fraction += extra_crash;
                        input.workload.arrival_rate *= rate_factor * nudge();
                        input.slo.max_server_rate *= rate_factor;
                        inputs.push(input);
                    }
                }
            }
        }
        inputs
    });
    let keep = ((inputs.len() as f64 * scale).round() as usize).clamp(1, inputs.len());
    PlannerWorkload {
        inputs: inputs.into_iter().take(keep).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1/100-duration run of every workload: the builders produce valid
    /// configurations and the checks pass on what the program returns.
    #[test]
    fn every_workload_builds_and_passes_its_checks_at_one_hundredth_scale() {
        for spec in &SPECS {
            let mut tracer = Tracer::new(spec.name);
            match build(spec, 1, 0.01, &mut tracer) {
                Workload::Sim(w) => {
                    let report = w.simulation(1).run();
                    assert_eq!(w.check(&report), Vec::<String>::new(), "{}", spec.name);
                    if w.sharded() {
                        assert_eq!(w.simulation(2).run(), report, "{}", spec.name);
                    }
                }
                Workload::Planner(w) => {
                    assert_eq!(w.inputs.len(), 1);
                    let plans = w.solve_all();
                    assert_eq!(w.check(&plans), (Vec::new(), 0));
                }
            }
        }
    }

    #[test]
    fn the_seed_changes_the_inputs_and_nothing_else_does() {
        let grid = |seed| planner_grid(seed, 1.0, &mut Tracer::new("p")).inputs;
        assert_eq!(grid(1).len(), 36);
        assert_eq!(grid(1), grid(1));
        assert_ne!(grid(1), grid(2));
        let config = |seed| seq_foreground(seed, 1.0, &mut Tracer::new("s")).config;
        assert_eq!(config(3), config(3));
        assert_ne!(config(3), config(4));
    }

    #[test]
    fn checks_report_what_went_wrong() {
        let w = adversarial_digest(1, 0.01, &mut Tracer::new("a"));
        let failures = w.check(&SimReport::default());
        assert_eq!(failures.len(), 4, "{failures:?}");
        let w = seq_foreground(1, 0.01, &mut Tracer::new("s"));
        let all_stale = SimReport {
            completed_reads: 1000,
            stale_reads: 900,
            ..SimReport::default()
        };
        assert_eq!(w.check(&all_stale).len(), 1);
        let p = planner_grid(1, 0.01, &mut Tracer::new("p"));
        let (failures, failed) = p.check(&[Err(pqs_math::MathError::invalid("x"))]);
        assert_eq!((failures.len(), failed), (1, 1));
    }
}
