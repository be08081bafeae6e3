//! The discrete-event engine end to end: concurrent client sessions, a
//! mid-run crash wave with recovery, and the first-q-of-probed access model
//! cutting tail latency under a long-tail network.
//!
//! Run with `cargo run --release --example event_engine`.

use probabilistic_quorums::core::prelude::*;
use probabilistic_quorums::sim::failure::FailurePlan;
use probabilistic_quorums::sim::latency::LatencyModel;
use probabilistic_quorums::sim::runner::{DiffusionPolicy, ProtocolKind, SimConfig, Simulation};
use probabilistic_quorums::sim::workload::KeySpace;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let system = EpsilonIntersecting::with_target_epsilon(100, 1e-3)?;
    println!(
        "event-driven simulation over {} (quorum size {})",
        probabilistic_quorums::core::system::QuorumSystem::name(&system),
        system.quorum_size()
    );

    // Part 1: a heavy open-loop load keeps many operations in flight at
    // once — the regime the old one-op-at-a-time simulator could not model.
    let config = SimConfig::builder()
        .with_duration(30.0)
        .with_arrival_rate(400.0)
        .with_read_fraction(0.9)
        .with_latency(LatencyModel::Exponential { mean: 5e-3 })
        .with_seed(7)
        .build();
    let report = Simulation::new(&system, ProtocolKind::Safe, config).run();
    println!("\nconcurrency under 400 op/s with ~5 ms probes:");
    println!("  events processed : {}", report.events_processed);
    println!("  max in-flight    : {}", report.max_in_flight);
    println!("  mean in-flight   : {:.2}", report.mean_in_flight);
    println!("  concurrent reads : {}", report.concurrent_reads);
    println!("  stale-read rate  : {:.2e}", report.stale_read_rate());

    // Part 2: a crash wave hits 95 of 100 servers mid-run and recovers
    // 10 simulated seconds later. The engine honours the transitions
    // between the probes of in-flight operations: inside the window many
    // probe sets contain no live server at all, so attempts resample and
    // some operations fail outright.
    let mut wave = FailurePlan::none().with_crash_wave(10.0, (0..95).map(ServerId::new));
    for i in 0..95 {
        wave = wave.with_transition(20.0, ServerId::new(i), false);
    }
    let report = Simulation::new(&system, ProtocolKind::Safe, config)
        .with_failure_plan(wave)
        .run();
    println!("\ncrash wave t=10s..20s hitting 95/100 servers:");
    println!(
        "  completed ops    : {}",
        report.completed_reads + report.completed_writes
    );
    println!("  unavailable ops  : {}", report.unavailable_ops);
    println!("  retries          : {}", report.retries);
    println!("  unavailability   : {:.4}", report.unavailability());
    println!("  stale-read rate  : {:.4}", report.stale_read_rate());

    // Part 3: long-tail latency. Probing q + margin servers and finishing
    // on the first q replies trades a little load for a much shorter tail.
    println!("\nfirst-q-of-probed under a Pareto(scale=1ms, shape=1.8) network:");
    println!("  margin  read p50    read p95    read p99    empirical load");
    for margin in [0u32, 4, 8] {
        let config = SimConfig::builder()
            .with_duration(30.0)
            .with_arrival_rate(100.0)
            .with_latency(LatencyModel::Pareto {
                scale: 1e-3,
                shape: 1.8,
            })
            .with_op_timeout(10.0)
            .with_probe_margin(margin)
            .with_seed(11)
            .build();
        let report = Simulation::new(&system, ProtocolKind::Safe, config).run();
        let quantiles = report.read_latency.percentiles(&[50.0, 95.0, 99.0]);
        println!(
            "  {margin:<6}  {:<10.5}  {:<10.5}  {:<10.5}  {:.4}",
            quantiles[0],
            quantiles[1],
            quantiles[2],
            report.empirical_load(),
        );
    }
    println!("\nthe p99 column shrinks as the margin grows; load grows mildly.");

    // Part 4: the sharded key-value store. The same engine drives 1024
    // replicated variables at once under a Zipf(1.0) popularity law — one
    // writer timestamp chain per key, per-key staleness/latency accounting,
    // sessions for different keys interleaving in one event queue.
    let config = SimConfig::builder()
        .with_duration(30.0)
        .with_arrival_rate(400.0)
        .with_read_fraction(0.9)
        .with_keyspace(KeySpace::zipf(1024, 1.0))
        .with_latency(LatencyModel::Exponential { mean: 5e-3 })
        .with_seed(13)
        .build();
    let report = Simulation::new(&system, ProtocolKind::Safe, config).run();
    println!("\nsharded run: 1024 keys, Zipf(1.0) popularity, 400 op/s:");
    println!(
        "  ops (aggregate / per-key sum) : {} / {}",
        report.completed_reads + report.completed_writes + report.unavailable_ops,
        report.summed_per_variable_ops()
    );
    println!(
        "  key load imbalance (max/mean) : {:.1}x",
        report.key_load_imbalance()
    );
    println!(
        "  empirical server load         : {:.4}",
        report.empirical_load()
    );
    println!("  hottest keys:");
    let mut by_ops: Vec<_> = report.per_variable.iter().collect();
    by_ops.sort_by_key(|v| std::cmp::Reverse(v.operations()));
    println!("    key   ops    share   p99 latency   stale rate");
    for v in by_ops.iter().take(5) {
        println!(
            "    {:<5} {:<6} {:<7.4} {:<13.5} {:.2e}",
            v.variable,
            v.operations(),
            v.operations() as f64 / report.summed_per_variable_ops() as f64,
            v.p99_latency(),
            v.stale_read_rate(),
        );
    }

    // Part 5: write diffusion as engine events. A deliberately loose system
    // (epsilon ~ 0.3) makes stale reads common; scheduling anti-entropy
    // gossip rounds inside the engine drives them down while the foreground
    // trajectory (same workload, probe sets and latencies, thanks to the
    // dedicated gossip RNG stream) replays identically.
    let loose = EpsilonIntersecting::new(64, 8)?;
    let mut config = SimConfig::builder()
        .with_duration(30.0)
        .with_arrival_rate(80.0)
        .with_read_fraction(0.9)
        .with_keyspace(KeySpace::zipf(8, 1.0))
        .with_latency(LatencyModel::Exponential { mean: 2e-3 })
        .with_seed(17)
        .build();
    let off = Simulation::new(&loose, ProtocolKind::Safe, config).run();
    config.diffusion = Some(
        DiffusionPolicy::full_push(0.1, 3)
            .with_push_latency(LatencyModel::Exponential { mean: 2e-3 }),
    );
    let on = Simulation::new(&loose, ProtocolKind::Safe, config).run();
    let hot = &on.per_variable[0];
    println!("\nwrite diffusion over a loose R(64, 8) system (epsilon ~ 0.3):");
    println!(
        "  stale-read rate   : {:.4} without gossip, {:.4} with (period 0.1s, fanout 3)",
        off.stale_read_rate(),
        on.stale_read_rate()
    );
    println!(
        "  gossip traffic    : {} rounds, {} pushes, {} of them freshened a replica",
        on.gossip_rounds, on.gossip_pushes, on.gossip_stores
    );
    if let Some(rounds) = hot.mean_rounds_to_coverage() {
        println!(
            "  hot-key coverage  : a fresh write reaches 90% of correct servers in {rounds:.1} rounds on average"
        );
    }

    // Part 6: multi-core layouts. The key space is partitioned by
    // `variable % num_shards` and each shard drains its own event queue on
    // a worker thread; gossip crosses shards on a sequenced spine at
    // deterministic barriers.  The merged report is bit-identical for
    // every shard count and every thread count — both are purely speed
    // knobs.
    let sharded = |threads: u32| {
        SimConfig::builder()
            .with_duration(20.0)
            .with_arrival_rate(400.0)
            .with_read_fraction(0.9)
            .with_keyspace(KeySpace::zipf(64, 1.0))
            .with_latency(LatencyModel::Exponential { mean: 2e-3 })
            .with_seed(23)
            .with_num_shards(4)
            .with_threads(threads)
            .build()
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4) as u32);
    let one = Simulation::new(&system, ProtocolKind::Safe, sharded(1)).run();
    let many = Simulation::new(&system, ProtocolKind::Safe, sharded(workers)).run();
    println!("\nsharded layout: 4 shards, 64 keys, {workers} worker thread(s):");
    println!("  events processed  : {}", many.events_processed);
    println!(
        "  reports identical : {} (1 thread vs {workers} threads)",
        one == many
    );
    Ok(())
}
