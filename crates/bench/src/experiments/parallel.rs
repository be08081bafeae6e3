//! Experiment V9: the multi-core layouts of the event engine.
//!
//! The simulator partitions the key space by `variable % num_shards`,
//! drains each shard's event queue on a worker thread, and reconciles
//! cross-shard gossip on a sequenced spine at deterministic time-window
//! barriers.  The design claim is sharp: the merged report is
//! **bit-identical for every shard count ≥ 1 and every thread count** —
//! layout and parallelism are speed knobs, never results knobs.  One shard
//! on one thread is the reference every other cell is held to.
//!
//! This validator re-checks the claim end to end under a digest/delta
//! gossip workload with a mid-run crash wave, then measures wall-clock
//! throughput as the thread count grows.  The equality checks always run;
//! the speedup check only engages when the host actually has ≥ 4 cores
//! (`std::thread::available_parallelism`), so the experiment stays green on
//! single-core containers while CI's multi-core runners enforce it.
//!
//! With `--ops N` (or `--soak`, = 10⁸ events) an additional **soak lane**
//! runs a gossip-dominated endurance cell: a short calibration run
//! measures the configuration's event density, the duration is sized to
//! hit the requested event count, and the run's per-stage wall-clock
//! breakdown (drain / sync / plan / route) is reported.  Under `--quick`
//! the target is scaled down 100× so the CI smoke job exercises the lane
//! in seconds.
//!
//! `--threads N` caps the thread sweep.

use std::time::Instant;

use pqs_core::prelude::*;
use pqs_sim::latency::LatencyModel;
use pqs_sim::runner::{DiffusionPolicy, ProtocolKind, SimConfig, Simulation};
use pqs_sim::workload::KeySpace;

use super::retrying_sim_config;
use crate::harness::Harness;
use crate::ExperimentTable;

fn sharded_config(seed: u64, duration: f64, num_shards: u32, threads: u32) -> SimConfig {
    retrying_sim_config(seed, duration, 400.0, KeySpace::zipf(64, 1.0))
        .with_crash_probability(0.1)
        .with_diffusion(
            DiffusionPolicy::digest_delta(0.2, 2)
                .with_push_latency(LatencyModel::Exponential { mean: 2e-3 }),
        )
        .with_num_shards(num_shards)
        .with_threads(threads)
        .build()
}

/// The soak cell: gossip-dominated on purpose.  A 20 Hz full-push round
/// over 64 keys and 100 servers generates ~10⁵ engine events per simulated
/// second from diffusion alone, so a 10⁸-event run needs only a few
/// hundred simulated seconds — and a few tens of thousands of foreground
/// ops — keeping memory flat while the event count scales.
fn soak_config(seed: u64, duration: f64, threads: u32) -> SimConfig {
    retrying_sim_config(seed, duration, 100.0, KeySpace::zipf(64, 1.0))
        .with_diffusion(
            DiffusionPolicy::full_push(0.05, 3)
                .with_push_latency(LatencyModel::Exponential { mean: 2e-3 }),
        )
        .with_num_shards(8)
        .with_threads(threads)
        .build()
}

pub(super) fn validate_parallel(h: &mut Harness<'_>) {
    let cli = h.cli().clone();
    let base_seed = cli.seed;
    let duration = if cli.quick { 8.0 } else { 20.0 };
    let sys = EpsilonIntersecting::with_target_epsilon(100, 1e-3).expect("valid system");

    // The determinism claim: every (shards, threads) pair produces the
    // same report as the smallest layout.
    let reference = Simulation::new(
        &sys,
        ProtocolKind::Safe,
        sharded_config(base_seed, duration, 1, 1),
    )
    .run();
    h.check(
        reference.completed_reads + reference.completed_writes != 0,
        "reference run completed no operations",
    );

    let mut table = ExperimentTable::new(
        "validate_parallel_shard_x_thread_equality",
        &["shards", "threads", "events", "identical to reference"],
    );
    let grid: &[(u32, u32)] = if cli.quick {
        &[(1, 2), (2, 2), (4, 4), (8, 2)]
    } else {
        &[(1, 2), (2, 1), (2, 2), (4, 1), (4, 4), (8, 2), (8, 8)]
    };
    for &(shards, threads) in grid {
        let report = Simulation::new(
            &sys,
            ProtocolKind::Safe,
            sharded_config(base_seed, duration, shards, threads),
        )
        .run();
        let identical = h.check(
            report == reference,
            format_args!(
                "shards={shards} threads={threads}: report differs from the \
                 1-shard single-thread reference"
            ),
        );
        table.push_row(vec![
            shards.to_string(),
            threads.to_string(),
            report.events_processed.to_string(),
            identical.to_string(),
        ]);
    }
    h.emit(&table);

    // Throughput: the same 8-shard run drained by 1..=N worker threads.
    // Reports must stay identical while wall-clock time falls.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get() as u32);
    let max_threads = cli.threads.clamp(1, 8);
    let mut speed_table = ExperimentTable::new(
        "validate_parallel_thread_throughput",
        &["threads", "events", "wall (s)", "events/sec"],
    );
    let mut rates: Vec<(u32, f64)> = Vec::new();
    for threads in 1..=max_threads {
        let config = sharded_config(base_seed, duration, 8, threads);
        let start = Instant::now();
        let report = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        let wall = start.elapsed().as_secs_f64();
        h.check(
            report == reference,
            format_args!("throughput run with {threads} thread(s) changed the report"),
        );
        let rate = report.events_processed as f64 / wall.max(1e-9);
        speed_table.push_row(vec![
            threads.to_string(),
            report.events_processed.to_string(),
            format!("{wall:.3}"),
            format!("{rate:.0}"),
        ]);
        rates.push((threads, rate));
    }
    h.emit(&speed_table);

    // The speedup claim only binds where the hardware can express it.
    if cores >= 4 && max_threads >= 4 {
        let single = rates[0].1;
        let best = rates
            .iter()
            .filter(|(t, _)| *t >= 4)
            .map(|(_, r)| *r)
            .fold(0.0f64, f64::max);
        h.check(
            best >= 1.5 * single,
            format_args!(
                "4+ worker threads reached only {:.2}x the single-thread rate",
                best / single.max(1e-9)
            ),
        );
    } else {
        h.line(format_args!(
            "speedup check skipped: {cores} core(s) available, \
             thread sweep capped at {max_threads} (pass --threads 4 on a \
             multi-core host to engage it)"
        ));
    }

    // Soak lane: an endurance run sized to the requested event count, with
    // the engine's per-stage wall-clock breakdown.
    if let Some(requested) = cli.ops {
        let target = if cli.quick {
            (requested / 100).max(100_000)
        } else {
            requested
        };
        // Two-point calibration: full-push event density ramps up while
        // records are still spreading (a cold Zipf key only starts
        // circulating after its first write), so a cold-start average
        // undersizes the density and oversizes the run badly.  Fitting
        // `events(t) = density·t + offset` through a short and a longer
        // horizon captures both the steady-state (marginal) density and
        // the ramp's one-time event deficit; solving it for the target
        // (plus a 5% pad) lands the sized run at or slightly above the
        // target for small and huge targets alike.
        let (calib_short, calib_long) = (5.0, 30.0);
        let short = Simulation::new(
            &sys,
            ProtocolKind::Safe,
            soak_config(base_seed, calib_short, cli.threads),
        )
        .run();
        let long = Simulation::new(
            &sys,
            ProtocolKind::Safe,
            soak_config(base_seed, calib_long, cli.threads),
        )
        .run();
        let events_per_sim_sec = ((long.events_processed - short.events_processed) as f64
            / (calib_long - calib_short))
            .max(1.0);
        let ramp_offset = short.events_processed as f64 - events_per_sim_sec * calib_short;
        let duration = ((1.05 * target as f64 - ramp_offset) / events_per_sim_sec).max(calib_short);
        h.line(format_args!(
            "soak: calibrated {events_per_sim_sec:.0} events/sim-sec, \
             running {duration:.1} simulated seconds for a {target}-event target"
        ));
        let start = Instant::now();
        let (report, stages) = Simulation::new(
            &sys,
            ProtocolKind::Safe,
            soak_config(base_seed, duration, cli.threads),
        )
        .run_with_stats();
        let wall = start.elapsed().as_secs_f64();
        let mut soak_table = ExperimentTable::new(
            "validate_parallel_soak",
            &[
                "events",
                "target",
                "wall (s)",
                "events/sec",
                "drain (s)",
                "sync (s)",
                "plan (s)",
                "route (s)",
                "spine fraction",
            ],
        );
        soak_table.push_row(vec![
            report.events_processed.to_string(),
            target.to_string(),
            format!("{wall:.2}"),
            format!("{:.0}", report.events_processed as f64 / wall.max(1e-9)),
            format!("{:.3}", stages.drain_seconds),
            format!("{:.3}", stages.sync_seconds),
            format!("{:.3}", stages.plan_seconds),
            format!("{:.3}", stages.route_seconds),
            format!("{:.4}", stages.spine_fraction()),
        ]);
        h.emit(&soak_table);
        h.check(
            (report.events_processed as f64) >= 0.8 * target as f64,
            format_args!(
                "soak run processed {} events, under 80% of the {target}-event target",
                report.events_processed
            ),
        );
        h.check(
            report.completed_reads + report.completed_writes != 0,
            "soak run completed no operations",
        );
    }
}
