//! Experiment V4: protocol-level validation of Theorems 3.2, 4.2 and 5.2 by
//! simulation, plus the effect of the Section 1.1 diffusion mechanism and
//! of first-q-of-probed access.
//!
//! Each row of the first table runs the discrete-event simulator with one
//! protocol/system pair and holds the measured stale-read rate to the
//! system's exact ε (with generous sampling slack), so the smoke job
//! genuinely re-verifies the paper under every seed.

use pqs_core::prelude::*;
use pqs_protocols::cluster::Cluster;
use pqs_protocols::diffusion::{diffuse, DiffusionConfig};
use pqs_protocols::register::SafeRegister;
use pqs_protocols::value::{TaggedValue, Value};
use pqs_sim::latency::LatencyModel;
use pqs_sim::metrics::SimReport;
use pqs_sim::runner::{ProtocolKind, SimConfig, Simulation};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::harness::Harness;
use crate::{fmt_prob, ExperimentTable};

fn sim_config(quick: bool, seed: u64) -> SimConfig {
    SimConfig::builder()
        .with_duration(if quick { 60.0 } else { 200.0 })
        .with_arrival_rate(40.0)
        .with_read_fraction(0.7)
        .with_latency(LatencyModel::Fixed(1e-6))
        .with_crash_probability(0.0)
        .with_byzantine(0)
        .with_seed(seed)
        .build()
}

/// One row of the theorem table: checks that the measured stale-read rate
/// does not exceed the system's exact ε by more than sampling noise, and
/// that no operation was unavailable in these failure-free-availability
/// runs.  The slack (3 standard deviations plus an absolute floor) keeps
/// seed variation from producing false alarms while still catching real
/// regressions.
fn theorem_row(
    h: &mut Harness<'_>,
    table: &mut ExperimentTable,
    protocol: &str,
    system: &dyn ProbabilisticQuorumSystem,
    byzantine: u32,
    report: &SimReport,
) {
    let (name, epsilon) = (system.name(), system.epsilon());
    let reads = (report.completed_reads.max(1)) as f64;
    let noise = 3.0 * (epsilon * (1.0 - epsilon) / reads).sqrt();
    let bound = epsilon + noise + 0.01;
    let measured = report.stale_read_rate();
    h.check(
        measured <= bound,
        format_args!(
            "{protocol} over {name}: stale rate {measured} exceeds eps {epsilon} + slack ({bound})"
        ),
    );
    h.check(
        report.unavailable_ops == 0,
        format_args!(
            "{protocol} over {name}: {} unavailable ops in a crash-free run",
            report.unavailable_ops
        ),
    );
    table.push_row(vec![
        protocol.into(),
        name,
        byzantine.to_string(),
        fmt_prob(epsilon),
        fmt_prob(measured),
        fmt_prob(report.unavailability()),
        format!("{:.4}", report.empirical_load()),
        format!("{:.4}", system.load()),
    ]);
}

pub(super) fn validate_protocols(h: &mut Harness<'_>) {
    let (base_seed, quick) = (h.cli().seed, h.cli().quick);
    let mut table = ExperimentTable::new(
        "validate_protocols_theorems_3_2_4_2_5_2",
        &[
            "protocol",
            "system",
            "byzantine",
            "exact eps",
            "measured stale rate",
            "unavailability",
            "empirical load",
            "analytic load",
        ],
    );

    // Theorem 3.2 — safe register, crash model, two quorum sizes.
    for &(n, q) in &[(64u32, 8u32), (100, 15), (400, 49)] {
        let sys = EpsilonIntersecting::new(n, q).expect("valid");
        let report =
            Simulation::new(&sys, ProtocolKind::Safe, sim_config(quick, base_seed ^ 1)).run();
        theorem_row(h, &mut table, "safe (Thm 3.2)", &sys, 0, &report);
    }

    // Theorem 4.2 — dissemination register with Byzantine servers.
    for &(n, b) in &[(100u32, 20u32), (300, 100)] {
        let sys = ProbabilisticDissemination::with_target_epsilon(n, b, 1e-3).expect("valid");
        let mut config = sim_config(quick, base_seed ^ 2);
        config.byzantine = b;
        let report = Simulation::new(&sys, ProtocolKind::Dissemination, config).run();
        theorem_row(h, &mut table, "dissemination (Thm 4.2)", &sys, b, &report);
    }

    // Theorem 5.2 — masking register with colluding forgers.
    for &(n, b) in &[(100u32, 5u32), (400, 20)] {
        let sys = ProbabilisticMasking::with_target_epsilon(n, b, 1e-3).expect("valid");
        let mut config = sim_config(quick, base_seed ^ 3);
        config.byzantine = b;
        let kind = ProtocolKind::Masking {
            threshold: sys.read_threshold(),
        };
        let report = Simulation::new(&sys, kind, config).run();
        theorem_row(h, &mut table, "masking (Thm 5.2)", &sys, b, &report);
    }
    h.emit(&table);

    // Diffusion (Section 1.1): write, gossip, read — staleness collapses.
    let mut diffusion_table = ExperimentTable::new(
        "validate_protocols_diffusion_effect",
        &["system", "rounds", "stale rate without", "stale rate with"],
    );
    let sys = EpsilonIntersecting::new(64, 8).expect("valid");
    let mut rng = ChaCha8Rng::seed_from_u64(base_seed ^ 9);
    for &rounds in &[1usize, 3, 5] {
        let mut cluster = Cluster::new(sys.universe());
        let mut register = SafeRegister::new(&sys, 1);
        let trials = if quick { 500u64 } else { 3000 };
        let mut stale_without = 0u64;
        let mut stale_with = 0u64;
        for i in 1..=trials {
            register
                .write(&mut cluster, &mut rng, Value::from_u64(i))
                .expect("servers up");
            match register.read(&mut cluster, &mut rng).expect("servers up") {
                Some(tv) if tv.value == Value::from_u64(i) => {}
                _ => stale_without += 1,
            }
            diffuse::<TaggedValue>(
                &mut cluster,
                0,
                DiffusionConfig { fanout: 2, rounds },
                &mut rng,
            );
            match register.read(&mut cluster, &mut rng).expect("servers up") {
                Some(tv) if tv.value == Value::from_u64(i) => {}
                _ => stale_with += 1,
            }
        }
        diffusion_table.push_row(vec![
            sys.name(),
            rounds.to_string(),
            fmt_prob(stale_without as f64 / trials as f64),
            fmt_prob(stale_with as f64 / trials as f64),
        ]);
    }
    h.emit(&diffusion_table);

    // First-q-of-probed access: under a long-tail (Pareto) latency model,
    // probing q + margin servers and finishing on the first q replies cuts
    // the p99 of quorum-operation latency at a small cost in load.
    let mut margin_table = ExperimentTable::new(
        "validate_protocols_probe_margin_tail_latency",
        &[
            "probe margin",
            "read p50 (s)",
            "read p95 (s)",
            "read p99 (s)",
            "mean in-flight",
            "empirical load",
            "stale rate",
        ],
    );
    let sys = EpsilonIntersecting::new(100, 22).expect("valid");
    let mut margin_p99s: Vec<f64> = Vec::new();
    for &margin in &[0u32, 4, 8] {
        let mut config = sim_config(quick, base_seed ^ 4);
        config.duration = 60.0;
        config.latency = LatencyModel::Pareto {
            scale: 1e-3,
            shape: 1.8,
        };
        config.op_timeout = 10.0;
        config.probe_margin = margin;
        let report = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        let quantiles = report.read_latency.percentiles(&[50.0, 95.0, 99.0]);
        margin_p99s.push(quantiles[2]);
        margin_table.push_row(vec![
            margin.to_string(),
            format!("{:.5}", quantiles[0]),
            format!("{:.5}", quantiles[1]),
            format!("{:.5}", quantiles[2]),
            format!("{:.2}", report.mean_in_flight),
            format!("{:.4}", report.empirical_load()),
            fmt_prob(report.stale_read_rate()),
        ]);
    }
    h.emit(&margin_table);
    // The headline first-q-of-probed claim, with slack for sampling noise:
    // the widest margin must beat margin 0's p99 by a clear factor.
    h.check(
        margin_p99s[2] < margin_p99s[0] * 0.8,
        format_args!(
            "probe margin 8 p99 {} does not beat margin 0 p99 {}",
            margin_p99s[2], margin_p99s[0]
        ),
    );
    h.line(
        "Expected shape: each measured stale rate tracks (and does not exceed by more than \
         sampling noise) the system's exact epsilon; diffusion drives it further toward zero; \
         and read p99 falls monotonically as the probe margin grows.",
    );
}
