//! The registry: every table, figure and validator of the reproduction,
//! each one function over a [`Harness`], listed once in [`EXPERIMENTS`].
//!
//! `pqs <name>` runs one ([`find`], [`Experiment::run`]), `pqs all` runs
//! every one ([`run_all`]).  The modules group experiments that share
//! their setup: the closed-form Section 6 artefacts (`tables`, `figures`),
//! the Section 3–5 bounds (`bounds`), and the simulator validators.

use std::io::Write;

use pqs_sim::latency::LatencyModel;
use pqs_sim::runner::{SimConfig, SimConfigBuilder};
use pqs_sim::workload::KeySpace;

use crate::cli::{ExtraFlag, ValidatorCli};
use crate::harness::{self, Harness, Outcome};

mod adversarial;
mod bounds;
mod diffusion;
mod figures;
mod parallel;
mod plan;
mod protocols;
mod sharding;
mod tables;

/// One registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The name after `pqs`, and the prefix of the experiment's CSV files.
    pub name: &'static str,
    /// One line for `pqs list` and `--help`.
    pub about: &'static str,
    /// Flags of its own, beyond the shared six.
    pub flags: &'static [ExtraFlag],
    body: fn(&mut Harness<'_>),
}

impl Experiment {
    /// Runs the experiment under `cli` (and its own `(flag, value)`
    /// extras), printing to `out`; returns its checks' outcome after the
    /// verdict is printed.
    pub fn run(
        &self,
        cli: ValidatorCli,
        extras: Vec<(String, String)>,
        out: &mut dyn Write,
    ) -> Outcome {
        let mut harness = Harness::new(self.name, cli, extras, out);
        (self.body)(&mut harness);
        harness.finish()
    }
}

const fn shared(name: &'static str, about: &'static str, body: fn(&mut Harness<'_>)) -> Experiment {
    Experiment {
        name,
        about,
        flags: &[],
        body,
    }
}

/// Every experiment, in the order `pqs list` prints and `pqs all` runs
/// them: the paper's artefacts, its Section 3–5 bounds, then the
/// simulator validators.
pub const EXPERIMENTS: &[Experiment] = &[
    shared(
        "table1",
        "Table I: load lower bounds and resilience caps",
        tables::table1,
    ),
    shared(
        "table2",
        "Table 2: eps-intersecting vs threshold vs grid",
        tables::table2,
    ),
    shared(
        "table3",
        "Table 3: dissemination systems vs threshold vs grid",
        tables::table3,
    ),
    shared(
        "table4",
        "Table 4: masking systems vs threshold vs grid",
        tables::table4,
    ),
    shared(
        "figure1",
        "Figure 1: failure probability, eps-intersecting systems",
        figures::figure1,
    ),
    shared(
        "figure2",
        "Figure 2: failure probability, dissemination systems",
        figures::figure2,
    ),
    shared(
        "figure3",
        "Figure 3: failure probability, masking systems",
        figures::figure3,
    ),
    shared(
        "validate_epsilon",
        "Lemma 3.15 / Theorem 3.16: eps-intersecting bounds",
        bounds::validate_epsilon,
    ),
    shared(
        "validate_dissemination",
        "Lemma 4.3 / Theorems 4.4, 4.6: dissemination bounds",
        bounds::validate_dissemination,
    ),
    shared(
        "validate_masking",
        "Lemmas 5.7, 5.9 / Theorem 5.10: masking tail bounds",
        bounds::validate_masking,
    ),
    shared(
        "validate_load",
        "Theorems 3.9, 5.5 and Table I: load bounds",
        bounds::validate_load,
    ),
    shared(
        "validate_protocols",
        "Theorems 3.2, 4.2, 5.2 by simulation",
        protocols::validate_protocols,
    ),
    shared(
        "validate_sharding",
        "sharded KV store: per-server load, per-key popularity",
        sharding::validate_sharding,
    ),
    shared(
        "validate_diffusion",
        "Section 1.1 full-push diffusion: hot-key stale-read cut",
        diffusion::validate_diffusion,
    ),
    shared(
        "validate_adaptive_diffusion",
        "digest/delta gossip: >=60% less volume, no more staleness",
        diffusion::validate_adaptive_diffusion,
    ),
    shared(
        "validate_parallel",
        "engine layouts: identical reports across shards/threads",
        parallel::validate_parallel,
    ),
    Experiment {
        name: "plan",
        about: plan::ABOUT,
        flags: plan::FLAGS,
        body: plan::plan,
    },
    shared(
        "validate_plan",
        "planner contract: measured eps and p99 inside the bands",
        plan::validate_plan,
    ),
    shared(
        "validate_adversarial",
        "churn, partitions, adaptive adversaries: eps degrades gracefully",
        adversarial::validate_adversarial,
    ),
];

/// Looks an experiment up by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Runs each of `experiments` (`pqs all` passes [`EXPERIMENTS`]) under the
/// same shared flags, one after the other, and ends with a one-line tally.
/// Returns the names of those with a violated check (empty = all passed).
pub fn run_all(
    experiments: &[Experiment],
    cli: &ValidatorCli,
    out: &mut dyn Write,
) -> Vec<&'static str> {
    let mut failed = Vec::new();
    for experiment in experiments {
        if !experiment
            .run(cli.clone(), Vec::new(), out)
            .violations
            .is_empty()
        {
            failed.push(experiment.name);
        }
    }
    harness::print(
        out,
        &format!(
            "pqs all: {} of {} experiments passed (seed {})\n",
            experiments.len() - failed.len(),
            experiments.len(),
            cli.seed
        ),
    );
    failed
}

/// The key–value workload `validate_sharding`, `validate_diffusion` and
/// `validate_adaptive_diffusion` drive: 80 ops/s over `keyspace` with
/// exponential 2 ms probes and a generous timeout, so no operation fails
/// for lack of replies.
fn kv_sim_config(seed: u64, duration: f64, read_fraction: f64, keyspace: KeySpace) -> SimConfig {
    SimConfig::builder()
        .with_duration(duration)
        .with_arrival_rate(80.0)
        .with_read_fraction(read_fraction)
        .with_keyspace(keyspace)
        .with_latency(LatencyModel::Exponential { mean: 2e-3 })
        .with_op_timeout(5.0)
        .with_seed(seed)
        .build()
}

/// The workload `validate_parallel` and `validate_adversarial` drive:
/// 80% reads with exponential 2 ms probes, probing two servers beyond the
/// quorum, a 50 ms attempt timeout and up to two retries — so crashes,
/// churn and partitions show up as retries, not as lost operations.
fn retrying_sim_config(
    seed: u64,
    duration: f64,
    arrival_rate: f64,
    keyspace: KeySpace,
) -> SimConfigBuilder {
    SimConfig::builder()
        .with_duration(duration)
        .with_arrival_rate(arrival_rate)
        .with_read_fraction(0.8)
        .with_keyspace(keyspace)
        .with_latency(LatencyModel::Exponential { mean: 2e-3 })
        .with_probe_margin(2)
        .with_op_timeout(0.05)
        .with_max_retries(2)
        .with_seed(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_all_names_exactly_the_experiments_whose_checks_failed() {
        fn holds(h: &mut Harness<'_>) {
            h.check(true, "never formatted");
        }
        fn fails(h: &mut Harness<'_>) {
            h.check(false, "n=1: above bound");
        }
        let experiments = [
            shared("holds", "a check that holds", holds),
            shared("fails", "a check that fails", fails),
            shared("table", "no check at all", |_| {}),
        ];
        let cli = ValidatorCli {
            seed: 11,
            ..ValidatorCli::default()
        };
        let mut out = Vec::new();
        assert_eq!(run_all(&experiments, &cli, &mut out), ["fails"]);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "holds: all checks passed (seed 11)\n\
             pqs all: 2 of 3 experiments passed (seed 11)\n"
        );
        let mut out = Vec::new();
        assert!(run_all(&experiments[..1], &cli, &mut out).is_empty());
    }
}
