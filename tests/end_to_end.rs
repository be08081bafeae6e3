//! Cross-crate integration tests: quorum systems + protocols + simulator +
//! applications working together, exercising the paper's headline claims
//! end to end.

use probabilistic_quorums::apps::location::{mobility_experiment, LocationDirectory};
use probabilistic_quorums::apps::voting::{repeat_voting_experiment, VoterLockService};
use probabilistic_quorums::core::prelude::*;
use probabilistic_quorums::protocols::cluster::Cluster;
use probabilistic_quorums::protocols::crypto::KeyRegistry;
use probabilistic_quorums::protocols::register::{
    DisseminationRegister, MaskingRegister, SafeRegister,
};
use probabilistic_quorums::protocols::server::Behavior;
use probabilistic_quorums::protocols::value::Value;
use probabilistic_quorums::sim::failure::FailurePlan;
use probabilistic_quorums::sim::latency::LatencyModel;
use probabilistic_quorums::sim::runner::{DiffusionPolicy, ProtocolKind, SimConfig, Simulation};
use probabilistic_quorums::sim::workload::KeySpace;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Theorem 3.2 end to end: the stale-read rate of the safe register over an
/// ε-intersecting system tracks the system's exact ε.
#[test]
fn safe_register_stale_rate_tracks_epsilon() {
    let sys = EpsilonIntersecting::new(81, 12).unwrap();
    let eps = sys.epsilon();
    assert!(
        eps > 0.02 && eps < 0.2,
        "test needs a visible epsilon, got {eps}"
    );
    let mut cluster = Cluster::new(sys.universe());
    let mut register = SafeRegister::new(&sys, 1);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let trials = 3000u64;
    let mut stale = 0u64;
    for i in 1..=trials {
        register
            .write(&mut cluster, &mut rng, Value::from_u64(i))
            .unwrap();
        match register.read(&mut cluster, &mut rng).unwrap() {
            Some(tv) if tv.value == Value::from_u64(i) => {}
            _ => stale += 1,
        }
    }
    let rate = stale as f64 / trials as f64;
    assert!((rate - eps).abs() < 0.02, "rate {rate} vs epsilon {eps}");
}

/// Theorems 4.2 and 5.2 end to end: Byzantine servers cannot corrupt reads
/// beyond ε for either Byzantine protocol, at resilience levels no strict
/// system can match.
#[test]
fn byzantine_protocols_hold_at_high_resilience() {
    let n = 150u32;
    let mut rng = ChaCha8Rng::seed_from_u64(2);

    // Dissemination at b = 50 = n/3 (strict limit is (n-1)/3 = 49 with
    // load >= sqrt(51/150) ~ 0.58; ours uses quorums of ~1/4 the universe).
    let b = 50u32;
    let dis = ProbabilisticDissemination::with_target_epsilon(n, b, 1e-3).unwrap();
    assert!(dis.load() < 0.5);
    let mut cluster = Cluster::new(dis.universe());
    cluster.corrupt_all((0..b).map(ServerId::new), Behavior::ByzantineStale);
    let mut registry = KeyRegistry::new();
    let key = registry.register(1, 3);
    let mut reg = DisseminationRegister::new(&dis, key, registry);
    let mut bad = 0;
    for i in 1..=400u64 {
        reg.write(&mut cluster, &mut rng, Value::from_u64(i))
            .unwrap();
        match reg.read(&mut cluster, &mut rng).unwrap() {
            Some(tv) if tv.value == Value::from_u64(i) => {}
            _ => bad += 1,
        }
    }
    assert!(
        bad <= 2,
        "dissemination protocol returned {bad} stale results"
    );

    // Masking at b = 40 > (n-1)/4 = 37 (beyond any strict masking system).
    let b = 40u32;
    let mask = ProbabilisticMasking::with_target_epsilon(n, b, 1e-2).unwrap();
    assert!(mask.byzantine_threshold() > pqs_core::byzantine::max_masking_threshold(n));
    let mut cluster = Cluster::new(mask.universe());
    cluster.corrupt_all((0..b).map(ServerId::new), Behavior::ByzantineForge);
    let mut reg = MaskingRegister::new(&mask, mask.read_threshold(), 1);
    let mut wrong = 0;
    for i in 1..=400u64 {
        reg.write(&mut cluster, &mut rng, Value::from_u64(i))
            .unwrap();
        match reg.read(&mut cluster, &mut rng).unwrap() {
            Some(tv) if tv.value == Value::from_u64(i) => {}
            _ => wrong += 1,
        }
    }
    assert!(
        (wrong as f64) < 400.0 * 0.05,
        "masking protocol returned {wrong} incorrect results"
    );
}

/// The load / fault-tolerance trade-off of Table 2, checked through the
/// public API: at matched ε the probabilistic system dominates the grid on
/// fault tolerance and the majority on load.
#[test]
fn table_two_tradeoff_through_public_api() {
    for n in [100u32, 400, 900] {
        let probabilistic = EpsilonIntersecting::with_target_epsilon(n, 1e-3).unwrap();
        let majority = Majority::new(n).unwrap();
        let grid = Grid::new(n).unwrap();
        assert!(probabilistic.load() < majority.load());
        assert!(probabilistic.fault_tolerance() > grid.fault_tolerance() * 5);
        assert!(probabilistic.fault_tolerance() > majority.fault_tolerance());
        // And availability beyond p = 1/2, impossible for any strict system.
        assert!(probabilistic.failure_probability(0.6) < 0.01);
        assert!(majority.failure_probability(0.6) > 0.9);
    }
}

/// Full simulator run for each protocol completes and stays consistent.
#[test]
fn simulator_round_trip_all_protocols() {
    let config = SimConfig::builder()
        .with_duration(30.0)
        .with_arrival_rate(30.0)
        .with_read_fraction(0.8)
        .with_latency(LatencyModel::Exponential { mean: 2e-3 })
        .with_crash_probability(0.05)
        .with_byzantine(0)
        .with_seed(11)
        .build();
    let sys = EpsilonIntersecting::with_target_epsilon(100, 1e-3).unwrap();
    let report = Simulation::new(&sys, ProtocolKind::Safe, config).run();
    assert!(report.completed_reads > 300);
    assert!(report.stale_read_rate() < 0.05);

    let dis = ProbabilisticDissemination::with_target_epsilon(100, 10, 1e-3).unwrap();
    let mut c2 = config;
    c2.byzantine = 10;
    let report = Simulation::new(&dis, ProtocolKind::Dissemination, c2).run();
    assert!(report.completed_reads > 300);
    assert!(report.stale_read_rate() < 0.05);

    let mask = ProbabilisticMasking::with_target_epsilon(100, 5, 1e-3).unwrap();
    let mut c3 = config;
    c3.byzantine = 5;
    let report = Simulation::new(
        &mask,
        ProtocolKind::Masking {
            threshold: mask.read_threshold(),
        },
        c3,
    )
    .run();
    assert!(report.completed_reads > 300);
    assert!(report.stale_read_rate() < 0.05);
}

/// The two Section 1.1 applications work end to end on one shared cluster
/// configuration.
#[test]
fn applications_end_to_end() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);

    // Voting.
    let mask = ProbabilisticMasking::with_target_epsilon(225, 7, 1e-3).unwrap();
    let mut cluster = Cluster::new(mask.universe());
    cluster.corrupt_all((0..7).map(ServerId::new), Behavior::ByzantineForge);
    let mut service = VoterLockService::new(&mask, mask.read_threshold());
    let stats = repeat_voting_experiment(&mut service, &mut cluster, &mut rng, 300, 2);
    assert_eq!(stats.first_attempts_accepted, 300);
    assert!(stats.undetected_repeat_rate() < 0.01);

    // Location directory.
    let eps = EpsilonIntersecting::with_target_epsilon(225, 1e-3).unwrap();
    let mut cluster = Cluster::new(eps.universe());
    let mut directory = LocationDirectory::new(&eps);
    let stats = mobility_experiment(&mut directory, &mut cluster, &mut rng, 50, 30, 10, 2);
    assert!(stats.reachability() > 0.99);
    assert!(stats.staleness() < 0.02);
}

/// Every probe an attempt sends counts at its server, on any layout —
/// also the margin's probes, which reach a read after it completed and
/// released its session, and the probes of attempts a retry superseded.
#[test]
fn every_probe_sent_counts_as_a_server_access_in_both_engines() {
    let (n, q, margin) = (30u32, 8u64, 3u32);
    let sys = EpsilonIntersecting::new(n, q as u32).unwrap();
    // Everything is down until t = 0.15, so the first arrivals (writes among
    // them) find only silent servers and retry until the servers are back.
    let mut outage = FailurePlan::none();
    for i in 0..n {
        outage = outage
            .with_transition(0.0, ServerId::new(i), true)
            .with_transition(0.15, ServerId::new(i), false);
    }
    for num_shards in [1u32, 4] {
        let config = SimConfig::builder()
            .with_duration(20.0)
            .with_arrival_rate(100.0)
            .with_read_fraction(0.7)
            .with_keyspace(KeySpace::zipf(8, 1.0))
            .with_latency(LatencyModel::Exponential { mean: 0.002 })
            .with_probe_margin(margin)
            .with_op_timeout(0.05)
            .with_max_retries(40)
            .with_seed(5)
            .with_num_shards(num_shards)
            .build();
        let report = Simulation::new(&sys, ProtocolKind::Safe, config)
            .with_failure_plan(outage.clone())
            .run();
        assert!(report.retries > 0, "the outage must force retries");
        assert_eq!(report.unavailable_ops, 0, "every op outlives the outage");
        assert!(report.completed_reads > 1000 && report.completed_writes > 300);
        // `total_operations` counts attempts; each sends q + margin probes.
        let sent = report.total_operations * (q + margin as u64);
        let counted: u64 = report.per_server_accesses.iter().sum();
        assert_eq!(counted, sent, "{num_shards} shard(s)");
        assert_eq!(
            report.total_operations,
            report.completed_reads + report.completed_writes + report.retries
        );
    }
}

/// Plan-time resolution of covered pushes, ratcheted on counts (not
/// timings): on the determinism suite's full-push configuration the
/// spine plans every push the report counts, queues every push that can
/// store, and queues little else.
#[test]
fn the_spine_queues_only_the_pushes_that_can_store() {
    let sys = EpsilonIntersecting::with_target_epsilon(100, 1e-3).unwrap();
    let push_latency = LatencyModel::Exponential { mean: 2e-3 };
    let full_push = SimConfig::builder()
        .with_duration(20.0)
        .with_arrival_rate(80.0)
        .with_read_fraction(0.8)
        .with_keyspace(KeySpace::zipf(32, 1.0))
        .with_latency(LatencyModel::Exponential { mean: 2e-3 })
        .with_probe_margin(2)
        .with_op_timeout(0.05)
        .with_max_retries(2)
        .with_seed(99)
        .with_num_shards(8)
        .with_threads(2)
        .with_diffusion(DiffusionPolicy::full_push(0.2, 2).with_push_latency(push_latency))
        .build();
    let (report, stages) = Simulation::new(&sys, ProtocolKind::Safe, full_push).run_with_stats();
    assert!(report.gossip_stores > 10_000, "gossip must do real work");
    assert_eq!(
        stages.planned_pushes,
        report.gossip_pushes + report.partition_blocked_gossip
    );
    assert!(stages.queued_pushes >= report.gossip_stores);
    assert!(
        stages.queued_pushes as f64 <= 0.15 * stages.planned_pushes as f64,
        "{} of {} planned pushes were queued",
        stages.queued_pushes,
        stages.planned_pushes
    );

    // One shard plans and resolves exactly what eight do.
    let mut one_shard = full_push;
    one_shard.num_shards = 1;
    let (_, one) = Simulation::new(&sys, ProtocolKind::Safe, one_shard).run_with_stats();
    assert_eq!(
        (one.planned_pushes, one.queued_pushes),
        (stages.planned_pushes, stages.queued_pushes)
    );

    // Nothing is resolved (or counted) off the full-push path.
    let mut digest = full_push;
    digest.diffusion = Some(DiffusionPolicy::digest_delta(0.2, 2).with_push_latency(push_latency));
    let (report, stages) = Simulation::new(&sys, ProtocolKind::Safe, digest).run_with_stats();
    assert!(report.gossip_pushes > 0);
    assert_eq!((stages.planned_pushes, stages.queued_pushes), (0, 0));
}

/// The one case a covered push *can* store: its receiver rejoins — stores
/// wiped — while the push is in flight.  Server 40 holds most of a cold key
/// space when it leaves at 5.25 s; it rejoins at 6.0 s, the time of the
/// last gossip round, so everything it ever gets back comes from pushes
/// planned against its pre-departure records: the rounds at 5.5 s (landing
/// exactly at the join, which pops first), 5.75 s, and 6.0 s (planned
/// exactly at the join, which the spine has not applied yet).  A spine that
/// resolves those pushes as covered starves the joiner; debug builds catch
/// it earlier, in the shard's shadow delivery.
#[test]
fn a_rejoining_server_bootstraps_from_pushes_planned_before_it_left() {
    let sys = EpsilonIntersecting::new(49, 7).unwrap();
    let config = SimConfig::builder()
        .with_duration(6.0)
        .with_arrival_rate(100.0)
        .with_read_fraction(0.5)
        .with_keyspace(KeySpace::uniform(256))
        .with_latency(LatencyModel::Exponential { mean: 2e-3 })
        .with_diffusion(
            // Push latency is two round periods.
            DiffusionPolicy::full_push(0.25, 1).with_push_latency(LatencyModel::Fixed(0.5)),
        )
        .with_seed(7)
        .with_num_shards(4)
        .build();
    let leaver = ServerId::new(40);
    let leaves = FailurePlan::none().with_leave(5.25, leaver);
    let rejoins = leaves.clone().with_join(6.0, leaver);
    let run = |plan: FailurePlan| {
        Simulation::new(&sys, ProtocolKind::Safe, config)
            .with_failure_plan(plan)
            .run()
    };
    let gone = run(leaves);
    let back = run(rejoins);
    let written = gone
        .per_variable
        .iter()
        .filter(|v| v.completed_writes > 0)
        .count() as u64;
    assert!(written > 150, "the key space must be large: {written}");
    // The two runs share every gossip round, so the rejoin run's extra
    // stores are the joiner's.
    assert_eq!(back.gossip_rounds, gone.gossip_rounds);
    let regained = back.gossip_stores - gone.gossip_stores;
    assert!(
        2 * regained > written,
        "the joiner regained {regained} of {written} written keys"
    );
    // Measured at the parent commit, where every push went through a queue.
    assert_eq!(back.gossip_stores, 10392);
    assert_eq!(back.events_processed, 91507);
}

/// A failure schedule is a set of timed events: a plan written as a struct
/// literal in any order runs exactly like the builder-made, time-sorted
/// one.  The worlds walk the transition list with a monotone cursor, and
/// before the plan was sorted where it enters a run, an unsorted plan with
/// gossip on kept the spine planning pushes from servers every world held
/// as crashed.
#[test]
fn a_failure_plan_means_the_same_in_any_listed_order() {
    let sys = EpsilonIntersecting::new(36, 9).unwrap();
    let built = FailurePlan::none()
        .with_crash_wave(4.0, (0..12).map(ServerId::new))
        .with_transition(12.0, ServerId::new(3), false)
        .with_leave(6.0, ServerId::new(20))
        .with_join(14.0, ServerId::new(20))
        .with_partition(8.0, 10.0, 2)
        .with_partition(16.0, 17.0, 3);
    let reversed = FailurePlan {
        transitions: built.transitions.iter().rev().copied().collect(),
        partitions: built.partitions.iter().rev().copied().collect(),
        ..FailurePlan::none()
    };
    assert_ne!(reversed, built);
    let mut config = SimConfig::builder()
        .with_duration(20.0)
        .with_arrival_rate(200.0)
        .with_read_fraction(0.7)
        .with_keyspace(KeySpace::zipf(8, 1.0))
        .with_seed(11)
        .build();
    for (num_shards, threads) in [(1u32, 1u32), (4, 3)] {
        for diffusion in [None, Some(DiffusionPolicy::full_push(0.25, 2))] {
            (config.num_shards, config.threads) = (num_shards, threads);
            config.diffusion = diffusion;
            let run = |plan: &FailurePlan| {
                Simulation::new(&sys, ProtocolKind::Safe, config)
                    .with_failure_plan(plan.clone())
                    .run()
            };
            let expected = run(&built);
            assert_eq!(expected.membership_events, 2);
            if diffusion.is_some() {
                assert!(expected.gossip_stores > 1000, "gossip must do real work");
            }
            assert_eq!(
                run(&reversed),
                expected,
                "{num_shards} shard(s) x {threads} thread(s), diffusion {}",
                diffusion.is_some()
            );
        }
    }
}
