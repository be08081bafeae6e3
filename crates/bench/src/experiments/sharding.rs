//! Experiment V6: the sharded key–value store over one quorum system.
//!
//! Sweeps key count × popularity skew and checks, for every cell of the
//! sweep, that sharding the workload over many replicated variables leaves
//! the **per-server** load exactly where the paper's analysis puts it
//! (Definition 2.4: the access strategy — not the key popularity — decides
//! which servers are touched), while the **per-key** load follows the
//! workload's popularity law.  Also prints the hot-key p99 table for the
//! most skewed configuration: per-key latency percentiles out of one shared
//! event queue.

use pqs_core::prelude::*;
use pqs_sim::runner::{ProtocolKind, Simulation};
use pqs_sim::workload::KeySpace;

use super::kv_sim_config;
use crate::harness::Harness;
use crate::ExperimentTable;

pub(super) fn validate_sharding(h: &mut Harness<'_>) {
    let base_seed = h.cli().seed;
    let duration = if h.cli().quick { 40.0 } else { 150.0 };
    let sys = EpsilonIntersecting::with_target_epsilon(100, 1e-3).expect("valid system");
    let analytic_load = sys.load();

    let mut table = ExperimentTable::new(
        "validate_sharding_key_count_x_skew",
        &[
            "keys",
            "skew",
            "ops",
            "hot key share",
            "predicted share",
            "key imbalance",
            "empirical load",
            "analytic load",
            "hot-key p99 (s)",
            "aggregate p99 (s)",
        ],
    );

    let sweep: &[KeySpace] = &[
        KeySpace::single(),
        KeySpace::uniform(16),
        KeySpace::zipf(16, 1.0),
        KeySpace::uniform(256),
        KeySpace::zipf(256, 1.0),
        KeySpace::zipf(1024, 0.8),
        KeySpace::zipf(1024, 1.2),
    ];

    let mut hot_key_report = None;
    for (i, &keyspace) in sweep.iter().enumerate() {
        let config = kv_sim_config(base_seed ^ (i as u64 + 1), duration, 0.8, keyspace);
        let report = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        let total_ops = report.completed_reads + report.completed_writes + report.unavailable_ops;
        let key = format!("keys={} {}", keyspace.keys, keyspace.skew);

        // Invariant 1: the per-key breakdown loses no operations.
        h.check(
            report.summed_per_variable_ops() == total_ops,
            format_args!(
                "{key}: per-key op sum {} != aggregate {total_ops}",
                report.summed_per_variable_ops()
            ),
        );

        // Invariant 2 — the paper's load bound: per-server load only
        // depends on the access strategy, so it must track the analytic
        // load of Theorem 3.9 for every key count and skew.
        let empirical = report.empirical_load();
        h.check(
            (empirical - analytic_load).abs() <= 0.05,
            format_args!(
                "{key}: empirical server load {empirical:.4} strays from analytic \
                 {analytic_load:.4}"
            ),
        );

        // Invariant 3: the hottest key's measured share tracks the
        // popularity law's predicted mass (4-sigma sampling slack).
        let popularity = keyspace.popularity();
        let predicted = popularity[0];
        let hot = report
            .hottest_variable()
            .expect("per-variable breakdown is populated");
        let share = hot.operations() as f64 / total_ops.max(1) as f64;
        let sigma = (predicted * (1.0 - predicted) / total_ops.max(1) as f64).sqrt();
        h.check(
            (share - predicted).abs() <= 4.0 * sigma + 0.01,
            format_args!("{key}: hot-key share {share:.4} strays from predicted {predicted:.4}"),
        );

        table.push_row(vec![
            keyspace.keys.to_string(),
            keyspace.skew.to_string(),
            total_ops.to_string(),
            format!("{share:.4}"),
            format!("{predicted:.4}"),
            format!("{:.2}", report.key_load_imbalance()),
            format!("{empirical:.4}"),
            format!("{analytic_load:.4}"),
            format!("{:.5}", hot.p99_latency()),
            format!("{:.5}", report.p99_latency()),
        ]);

        if keyspace == KeySpace::zipf(1024, 1.2) {
            hot_key_report = Some(report);
        }
    }
    h.emit(&table);

    // The hot-key p99 table: per-key percentiles of the most skewed run.
    let report = hot_key_report.expect("the sweep contains the zipf(1024, 1.2) cell");
    let mut hot_table = ExperimentTable::new(
        "validate_sharding_hot_key_p99_zipf1024",
        &[
            "key rank",
            "key",
            "ops",
            "share",
            "p50 (s)",
            "p99 (s)",
            "stale rate",
        ],
    );
    let mut by_ops: Vec<_> = report.per_variable.iter().collect();
    by_ops.sort_by_key(|v| std::cmp::Reverse(v.operations()));
    let total: u64 = report.summed_per_variable_ops().max(1);
    for (rank, v) in by_ops.iter().take(8).enumerate() {
        let quantiles = v.latency.percentiles(&[50.0, 99.0]);
        hot_table.push_row(vec![
            rank.to_string(),
            v.variable.to_string(),
            v.operations().to_string(),
            format!("{:.4}", v.operations() as f64 / total as f64),
            format!("{:.5}", quantiles[0]),
            format!("{:.5}", quantiles[1]),
            format!("{:.4}", v.stale_read_rate()),
        ]);
        // The Zipf ranking must be visible in the measured ordering for the
        // heaviest keys (rank i is key i for the top of a 1.2-skew law).
        if rank < 3 {
            h.check(
                v.variable == rank as u64,
                format_args!(
                    "hot-key table rank {rank} is key {} (expected {rank})",
                    v.variable
                ),
            );
        }
    }
    h.emit(&hot_table);
}
