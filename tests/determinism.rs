//! Determinism of the discrete-event engine: the same `SimConfig` + seed
//! must produce **bit-identical** `SimReport`s for every protocol and every
//! key space, however hostile the configuration — and for every layout:
//! `num_shards` and `threads` only say how the run is executed.  Everything
//! random flows from seeded ChaCha streams (one for the workload and failure
//! plan, one per variable, one for gossip), the event queues break time ties
//! FIFO, and the merge replays per-op logs in canonical `(time, op)` order.
//!
//! There is one fingerprint family.  The literals below were captured from
//! the engine itself; the one-shard pins were re-pinned when the sequential
//! event loop was retired (PR 14, old → new values and the statistical
//! equivalence table in CHANGES.md), every other literal predates that.

use probabilistic_quorums::core::prelude::*;
use probabilistic_quorums::sim::failure::{ByzantineStrategy, FailurePlan};
use probabilistic_quorums::sim::latency::LatencyModel;
use probabilistic_quorums::sim::metrics::SimReport;
use probabilistic_quorums::sim::runner::{
    DiffusionPolicy, KeyGossipPolicy, ProtocolKind, SimConfig, Simulation,
};
use probabilistic_quorums::sim::workload::KeySpace;

fn hostile_config(seed: u64) -> SimConfig {
    // Crashes, Byzantine placement, probe margin, a tight timeout and a
    // long-tail latency model: every engine code path fires.
    SimConfig::builder()
        .with_duration(25.0)
        .with_arrival_rate(60.0)
        .with_read_fraction(0.8)
        .with_latency(LatencyModel::Pareto {
            scale: 1e-3,
            shape: 1.9,
        })
        .with_crash_probability(0.15)
        .with_probe_margin(3)
        .with_op_timeout(0.05)
        .with_max_retries(2)
        .with_seed(seed)
        .build()
}

/// Runs `config` on one shard and on the wider layouts, asserts they all
/// agree, and returns the one report.
fn on_every_layout(config: SimConfig, run: impl Fn(SimConfig) -> SimReport) -> SimReport {
    let layout = |num_shards: u32, threads: u32| {
        let mut config = config;
        config.num_shards = num_shards;
        config.threads = threads;
        run(config)
    };
    let reference = layout(1, 1);
    for (num_shards, threads) in [(2, 1), (4, 3), (8, 8)] {
        assert_eq!(
            reference,
            layout(num_shards, threads),
            "{num_shards} shards on {threads} threads diverged from one shard"
        );
    }
    reference
}

/// Order-sensitive hash of the per-server access vector, the idiom shared
/// by every pinned fingerprint below.
fn server_access_hash(r: &SimReport) -> u64 {
    r.per_server_accesses
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, &c)| {
            acc.wrapping_mul(1000003).wrapping_add(c ^ i as u64)
        })
}

#[test]
fn safe_runs_are_bit_identical_per_seed() {
    let sys = EpsilonIntersecting::with_target_epsilon(100, 1e-3).unwrap();
    let a = on_every_layout(hostile_config(42), |config| {
        Simulation::new(&sys, ProtocolKind::Safe, config).run()
    });
    let b = Simulation::new(&sys, ProtocolKind::Safe, hostile_config(42)).run();
    assert_eq!(a, b);
    // The run exercised the interesting paths.
    assert!(a.completed_reads > 0 && a.completed_writes > 0);
    assert!(a.events_processed > 0);
    // And a different seed genuinely changes the trajectory.
    let c = Simulation::new(&sys, ProtocolKind::Safe, hostile_config(43)).run();
    assert_ne!(a, c);
}

#[test]
fn dissemination_runs_are_bit_identical_per_seed() {
    let sys = ProbabilisticDissemination::with_target_epsilon(100, 15, 1e-3).unwrap();
    let mut config = hostile_config(7);
    config.byzantine = 15;
    let a = on_every_layout(config, |config| {
        Simulation::new(&sys, ProtocolKind::Dissemination, config).run()
    });
    let b = Simulation::new(&sys, ProtocolKind::Dissemination, config).run();
    assert_eq!(a, b);
    assert!(a.completed_reads > 0);
}

#[test]
fn masking_runs_are_bit_identical_per_seed() {
    let sys = ProbabilisticMasking::with_target_epsilon(100, 5, 1e-3).unwrap();
    let mut config = hostile_config(9);
    config.byzantine = 5;
    let kind = ProtocolKind::Masking {
        threshold: sys.read_threshold(),
    };
    let a = on_every_layout(config, |config| Simulation::new(&sys, kind, config).run());
    let b = Simulation::new(&sys, kind, config).run();
    assert_eq!(a, b);
    assert!(a.completed_reads > 0);
}

#[test]
fn multi_key_runs_are_bit_identical_per_seed() {
    // A hostile 1024-key Zipf(1.0) run: the per-variable session table,
    // per-key write logs and per-key metrics must replay exactly.
    let sys = EpsilonIntersecting::with_target_epsilon(100, 1e-3).unwrap();
    let mut config = hostile_config(77);
    config.keyspace = KeySpace::zipf(1024, 1.0);
    let a = on_every_layout(config, |config| {
        Simulation::new(&sys, ProtocolKind::Safe, config).run()
    });
    let b = Simulation::new(&sys, ProtocolKind::Safe, config).run();
    assert_eq!(a, b, "same seed must give identical per-variable reports");
    assert_eq!(a.per_variable.len(), 1024);
    // The per-key breakdown loses nothing: summed op counts equal the
    // aggregate (the sharding acceptance criterion).
    assert_eq!(
        a.summed_per_variable_ops(),
        a.completed_reads + a.completed_writes + a.unavailable_ops
    );
    let per_key_retries: u64 = a.per_variable.iter().map(|v| v.retries).sum();
    let per_key_timeouts: u64 = a.per_variable.iter().map(|v| v.timed_out_attempts).sum();
    let per_key_stale: u64 = a.per_variable.iter().map(|v| v.stale_reads).sum();
    assert_eq!(per_key_retries, a.retries);
    assert_eq!(per_key_timeouts, a.timed_out_attempts);
    assert_eq!(per_key_stale, a.stale_reads);
    // A different key space genuinely changes the trajectory.
    let mut other = config;
    other.keyspace = KeySpace::uniform(1024);
    let c = Simulation::new(&sys, ProtocolKind::Safe, other).run();
    assert_ne!(a, c);
}

#[test]
fn gossip_runs_are_bit_identical_per_seed() {
    // Diffusion adds a spine, a pending-push table and a second RNG stream;
    // none of it may perturb determinism, even with crashes and a probe
    // margin in the mix.
    let sys = EpsilonIntersecting::with_target_epsilon(100, 1e-3).unwrap();
    let mut config = hostile_config(55);
    config.keyspace = KeySpace::zipf(64, 1.0);
    config.diffusion = Some(
        DiffusionPolicy::full_push(0.2, 2)
            .with_push_latency(LatencyModel::Exponential { mean: 2e-3 }),
    );
    let a = on_every_layout(config, |config| {
        Simulation::new(&sys, ProtocolKind::Safe, config).run()
    });
    let b = Simulation::new(&sys, ProtocolKind::Safe, config).run();
    assert_eq!(a, b, "gossip runs must replay bit for bit");
    assert!(a.gossip_rounds > 0 && a.gossip_pushes > 0 && a.gossip_stores > 0);
    // The per-key gossip accounting sums to the aggregates.
    let pushes: u64 = a.per_variable.iter().map(|v| v.gossip_pushes).sum();
    let stores: u64 = a.per_variable.iter().map(|v| v.gossip_stores).sum();
    assert_eq!(pushes, a.gossip_pushes);
    assert_eq!(stores, a.gossip_stores);
    // And turning diffusion off genuinely changes the trajectory's
    // consistency outcomes while replaying the identical foreground.
    config.diffusion = None;
    let off = Simulation::new(&sys, ProtocolKind::Safe, config).run();
    assert_eq!(off.completed_reads, a.completed_reads);
    assert_eq!(off.per_server_accesses, a.per_server_accesses);
    assert_eq!(off.gossip_rounds, 0);
    assert!(off.stale_reads >= a.stale_reads);
}

#[test]
fn digest_runs_are_bit_identical_per_seed() {
    // Digest/delta mode adds two more event kinds, two pending tables and
    // a policy-driven key selection computed from foreground state; none of
    // it may perturb determinism, under any advertisement policy.
    let sys = EpsilonIntersecting::with_target_epsilon(100, 1e-3).unwrap();
    let mut config = hostile_config(56);
    config.keyspace = KeySpace::zipf(64, 1.0);
    for key_policy in [
        KeyGossipPolicy::Uniform,
        KeyGossipPolicy::HotFirst {
            hot_keys: 6,
            cold_every: 4,
        },
        KeyGossipPolicy::RecentWrites {
            window: 0.5,
            cold_every: 8,
        },
    ] {
        config.diffusion = Some(
            DiffusionPolicy::digest_delta(0.2, 2)
                .with_push_latency(LatencyModel::Exponential { mean: 2e-3 })
                .with_key_policy(key_policy),
        );
        let a = on_every_layout(config, |config| {
            Simulation::new(&sys, ProtocolKind::Safe, config).run()
        });
        let b = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        assert_eq!(a, b, "digest runs must replay bit for bit");
        assert!(a.gossip_rounds > 0 && a.gossip_digests > 0 && a.gossip_stores > 0);
        // Delta records are the only push volume in digest mode, and the
        // per-key accounting sums to the aggregates.
        let pushes: u64 = a.per_variable.iter().map(|v| v.gossip_pushes).sum();
        let deltas: u64 = a.per_variable.iter().map(|v| v.gossip_delta_records).sum();
        let avoided: u64 = a
            .per_variable
            .iter()
            .map(|v| v.gossip_redundant_pushes_avoided)
            .sum();
        assert_eq!(pushes, a.gossip_pushes);
        assert_eq!(deltas, a.gossip_pushes);
        assert_eq!(avoided, a.gossip_redundant_pushes_avoided);
        assert!(a.gossip_stores <= a.gossip_pushes);
        // Digest mode replays the identical foreground of the diffusion-off
        // run and can only improve consistency.
        let mut off = config;
        off.diffusion = None;
        let off = Simulation::new(&sys, ProtocolKind::Safe, off).run();
        assert_eq!(off.completed_reads, a.completed_reads);
        assert_eq!(off.per_server_accesses, a.per_server_accesses);
        assert!(off.stale_reads + off.empty_reads >= a.stale_reads + a.empty_reads);
    }
}

/// A one-shard full-push gossip run over derived crashes, captured field by
/// field from the engine (re-pinned in PR 14): the full-push mode is frozen,
/// not merely similar.
#[test]
fn full_push_gossip_fingerprint_is_pinned() {
    let sys = EpsilonIntersecting::new(64, 8).unwrap();
    let config = SimConfig::builder()
        .with_duration(30.0)
        .with_arrival_rate(60.0)
        .with_read_fraction(0.85)
        .with_keyspace(KeySpace::zipf(16, 1.2))
        .with_latency(LatencyModel::Exponential { mean: 2e-3 })
        .with_crash_probability(0.1)
        .with_probe_margin(2)
        .with_op_timeout(0.5)
        .with_max_retries(2)
        .with_seed(4242)
        .with_diffusion(
            DiffusionPolicy::full_push(0.1, 3)
                .with_push_latency(LatencyModel::Exponential { mean: 2e-3 }),
        )
        .build();
    let r = on_every_layout(config, |config| {
        Simulation::new(&sys, ProtocolKind::Safe, config).run()
    });
    assert_eq!(r.completed_reads, 1503);
    assert_eq!(r.completed_writes, 283);
    assert_eq!(r.stale_reads, 28);
    assert_eq!(r.empty_reads, 1);
    assert_eq!(r.unavailable_ops, 0);
    assert_eq!(r.concurrent_reads, 16);
    assert_eq!(r.retries, 0);
    assert_eq!(r.timed_out_attempts, 0);
    assert_eq!(r.gossip_rounds, 299);
    assert_eq!(r.gossip_pushes, 729677);
    assert_eq!(r.gossip_stores, 12281);
    assert_eq!(r.events_processed, 751414);
    assert_eq!(r.max_in_flight, 4);
    assert_eq!(r.total_operations, 1786);
    // Digest-mode machinery must stay completely cold in full-push mode.
    assert_eq!(r.gossip_digests, 0);
    assert_eq!(r.gossip_redundant_pushes_avoided, 0);
    assert!(r.per_variable.iter().all(|v| v.gossip_delta_records == 0));
    // Floating-point trajectories, pinned to the bit.
    assert_eq!(r.mean_in_flight, 0.22145516349452313);
    assert_eq!(r.mean_latency(), 0.0037199791665598605);
    assert_eq!(r.p99_latency(), 0.010587806977600422);
    assert_eq!(server_access_hash(&r), 13266753428964552100);
    // The hot key's gossip and convergence accounting, also frozen.
    let hot = &r.per_variable[0];
    assert_eq!(hot.gossip_pushes, 50012);
    assert_eq!(hot.gossip_stores, 3581);
    assert_eq!(hot.coverage_rounds_sum, 108);
    assert_eq!(hot.coverage_events, 37);
    assert_eq!(hot.stale_reads, 18);
    assert_eq!(hot.completed_reads, 531);
}

/// The default 1-key `KeySpace`, diffusion-free, under two protocols,
/// captured field by field from the engine (re-pinned in PR 14): same
/// workload draws, same probe sets, same event count, same latencies to the
/// last ulp.
#[test]
fn one_key_fingerprint_is_pinned() {
    let sys = EpsilonIntersecting::with_target_epsilon(100, 1e-3).unwrap();
    let config = SimConfig::builder()
        .with_duration(30.0)
        .with_arrival_rate(40.0)
        .with_read_fraction(0.8)
        .with_latency(LatencyModel::Pareto {
            scale: 1e-3,
            shape: 1.9,
        })
        .with_crash_probability(0.1)
        .with_byzantine(0)
        .with_probe_margin(3)
        .with_op_timeout(0.05)
        .with_max_retries(2)
        .with_seed(20260730)
        .build();
    assert_eq!(config.keyspace, KeySpace::single());
    assert_eq!(config.diffusion, None, "the pinned run is diffusion-free");
    let r = on_every_layout(config, |config| {
        Simulation::new(&sys, ProtocolKind::Safe, config).run()
    });
    // A `DiffusionPolicy::None` run schedules no gossip event at all.
    assert_eq!(r.gossip_rounds, 0);
    assert_eq!(r.gossip_pushes, 0);
    assert_eq!(r.completed_reads, 955);
    assert_eq!(r.completed_writes, 240);
    assert_eq!(r.stale_reads, 0);
    assert_eq!(r.empty_reads, 0);
    assert_eq!(r.unavailable_ops, 0);
    assert_eq!(r.concurrent_reads, 75);
    assert_eq!(r.retries, 0);
    assert_eq!(r.timed_out_attempts, 2);
    assert_eq!(r.events_processed, 33467);
    assert_eq!(r.max_in_flight, 4);
    assert_eq!(r.total_operations, 1195);
    // Floating-point trajectories, pinned to the bit.
    assert_eq!(r.mean_in_flight, 0.2009251629910557);
    assert_eq!(r.mean_latency(), 0.0050423547788399576);
    assert_eq!(r.p99_latency(), 0.02448848278187299);
    // Per-server access vector, pinned through an order-sensitive hash.
    assert_eq!(server_access_hash(&r), 6031251255751975920);
    // The per-key breakdown degenerates to one row equal to the aggregates.
    assert_eq!(r.per_variable.len(), 1);
    assert_eq!(r.per_variable[0].completed_reads, r.completed_reads);
    assert_eq!(r.per_variable[0].completed_writes, r.completed_writes);
    assert_eq!(r.per_variable[0].stale_reads, r.stale_reads);

    // A second protocol, same obligation (captured the same way).
    let sys2 = ProbabilisticDissemination::with_target_epsilon(100, 10, 1e-3).unwrap();
    let mut c2 = config;
    c2.crash_probability = 0.0;
    c2.byzantine = 10;
    c2.probe_margin = 0;
    c2.seed = 777;
    let r2 = on_every_layout(c2, |config| {
        Simulation::new(&sys2, ProtocolKind::Dissemination, config).run()
    });
    assert_eq!(r2.completed_reads, 970);
    assert_eq!(r2.completed_writes, 203);
    assert_eq!(r2.stale_reads, 1);
    assert_eq!(r2.events_processed, 31671);
    assert_eq!(r2.mean_latency(), 0.009035634071514772);
}

/// Base configuration of the layout-invariance obligations: a hostile
/// multi-key run exercising probe margins, timeouts and retries.
fn sharded_base() -> SimConfig {
    SimConfig::builder()
        .with_duration(20.0)
        .with_arrival_rate(80.0)
        .with_read_fraction(0.8)
        .with_keyspace(KeySpace::zipf(32, 1.0))
        .with_latency(LatencyModel::Exponential { mean: 2e-3 })
        .with_probe_margin(2)
        .with_op_timeout(0.05)
        .with_max_retries(2)
        .with_seed(99)
        .build()
}

/// A mid-run correlated crash wave: ten servers die at t = 10 s, halfway
/// through the arrivals, so the engine must replay failure transitions
/// identically inside every shard *and* on the gossip spine.
fn mid_run_wave() -> FailurePlan {
    FailurePlan::none().with_crash_wave(10.0, (0..10).map(ServerId::new))
}

/// The engine's core obligation: the report is a pure function of the seed
/// — identical for every shard count ≥ 1 and every thread count — for
/// plain, signed and digest/delta configurations, including a crash wave
/// landing mid-run.
#[test]
fn sharded_reports_are_identical_across_shard_and_thread_counts() {
    let sys = EpsilonIntersecting::with_target_epsilon(100, 1e-3).unwrap();
    let signed_sys = ProbabilisticDissemination::with_target_epsilon(100, 10, 1e-3).unwrap();

    let plain = sharded_base();
    let mut signed = sharded_base();
    signed.byzantine = 10;
    signed.probe_margin = 0;
    let mut digest = sharded_base();
    digest.diffusion = Some(
        DiffusionPolicy::digest_delta(0.2, 2)
            .with_push_latency(LatencyModel::Exponential { mean: 2e-3 })
            .with_key_policy(KeyGossipPolicy::HotFirst {
                hot_keys: 6,
                cold_every: 4,
            }),
    );
    let mut push = sharded_base();
    push.diffusion = Some(
        DiffusionPolicy::full_push(0.2, 2)
            .with_push_latency(LatencyModel::Exponential { mean: 2e-3 }),
    );

    let run = |config: SimConfig, num_shards: u32, threads: u32, kind: ProtocolKind| {
        let mut config = config;
        config.num_shards = num_shards;
        config.threads = threads;
        if matches!(kind, ProtocolKind::Dissemination) {
            Simulation::new(&signed_sys, kind, config)
                .with_failure_plan(mid_run_wave())
                .run()
        } else {
            Simulation::new(&sys, kind, config)
                .with_failure_plan(mid_run_wave())
                .run()
        }
    };

    for (label, config, kind) in [
        ("plain", plain, ProtocolKind::Safe),
        ("signed", signed, ProtocolKind::Dissemination),
        ("digest-delta", digest, ProtocolKind::Safe),
        ("full-push", push, ProtocolKind::Safe),
    ] {
        let reference = run(config, 1, 1, kind);
        assert!(
            reference.completed_reads > 0 && reference.completed_writes > 0,
            "{label}: the run must exercise the engine"
        );
        for (num_shards, threads) in [(1, 4), (2, 1), (2, 2), (4, 1), (4, 3), (8, 2), (8, 8)] {
            let report = run(config, num_shards, threads, kind);
            assert_eq!(
                reference, report,
                "{label}: {num_shards} shards on {threads} threads diverged from 1 shard on 1 thread"
            );
        }
    }
}

/// A pinned fingerprint captured from the PR 6 engine on an
/// 8-shard/2-thread **full-push** run of `sharded_base` with a mid-run
/// crash wave.  Together with the digest/delta pin at the end of this file
/// (`sharded_family_fingerprint_is_pinned`) it freezes both gossip modes,
/// so hot-path work (batched routing, slab pending stores, planning from
/// the owning shards) can be proven bit-preserving, not merely plausible.
#[test]
#[allow(clippy::excessive_precision)]
fn sharded_full_push_fingerprint_is_pinned() {
    let sys = EpsilonIntersecting::with_target_epsilon(100, 1e-3).unwrap();
    let mut config = sharded_base();
    config.num_shards = 8;
    config.threads = 2;
    config.diffusion = Some(
        DiffusionPolicy::full_push(0.2, 2)
            .with_push_latency(LatencyModel::Exponential { mean: 2e-3 }),
    );
    let r = Simulation::new(&sys, ProtocolKind::Safe, config)
        .with_failure_plan(mid_run_wave())
        .run();
    assert_eq!(r.completed_reads, 1256);
    assert_eq!(r.completed_writes, 323);
    assert_eq!(r.stale_reads, 0);
    assert_eq!(r.empty_reads, 0);
    assert_eq!(r.unavailable_ops, 0);
    assert_eq!(r.concurrent_reads, 23);
    assert_eq!(r.retries, 0);
    assert_eq!(r.timed_out_attempts, 0);
    assert_eq!(r.gossip_rounds, 100);
    assert_eq!(r.gossip_digests, 0);
    assert_eq!(r.gossip_pushes, 499250);
    assert_eq!(r.gossip_stores, 17867);
    assert_eq!(r.gossip_redundant_pushes_avoided, 0);
    assert_eq!(r.events_processed, 541993);
    assert_eq!(r.max_in_flight, 5);
    assert_eq!(r.total_operations, 1579);
    // Floating-point trajectories, pinned to the bit.
    assert_eq!(r.mean_in_flight, 4.5105489249514724e-1);
    assert_eq!(r.mean_latency(), 5.7143094013534885e-3);
    assert_eq!(r.p99_latency(), 1.3249916559010089e-2);
    let hash = r
        .per_server_accesses
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, &c)| {
            acc.wrapping_mul(1000003).wrapping_add(c ^ i as u64)
        });
    assert_eq!(hash, 12038364402710033471);
    // The hot key's gossip and convergence accounting, also frozen.
    let hot = &r.per_variable[0];
    assert_eq!(hot.gossip_pushes, 18165);
    assert_eq!(hot.gossip_stores, 3259);
    assert_eq!(hot.coverage_rounds_sum, 15);
    assert_eq!(hot.coverage_events, 5);
    assert_eq!(hot.stale_reads, 0);
    assert_eq!(hot.completed_reads, 314);
}

/// The scenario engine's membership-churn schedule: one initially-absent
/// joiner, two mid-run leaves, two rejoins.
fn churn_schedule() -> FailurePlan {
    FailurePlan::none()
        .with_join(3.0, ServerId::new(92)) // first event is a join: initially absent
        .with_leave(6.0, ServerId::new(90))
        .with_leave(7.0, ServerId::new(91))
        .with_join(14.0, ServerId::new(90))
        .with_join(15.0, ServerId::new(91))
}

/// An adaptive hot-key adversary over eight static Byzantine servers and
/// six sleepers, shared by the adaptive fingerprints below.
fn adaptive_schedule() -> FailurePlan {
    let mut plan = FailurePlan::none();
    plan.byzantine = (0..8).map(ServerId::new).collect();
    plan.with_strategy(ByzantineStrategy::HotKeyTargeting {
        sleepers: (8..14).map(ServerId::new).collect(),
        min_writes: 2,
    })
}

/// Membership churn, frozen: the `sharded_base` workload under
/// `churn_schedule`, pinned on one shard (re-pinned in PR 14) and, with the
/// PR 10 literals, on four.  Joins bootstrap through `Cluster::join_server` (stores wiped,
/// variables re-reserved) and the probe margin is re-solved against the
/// ε budget at every membership event, so any drift in that machinery
/// breaks these pins.
#[test]
#[allow(clippy::excessive_precision)]
fn churn_fingerprint_is_pinned() {
    let sys = EpsilonIntersecting::with_target_epsilon(100, 1e-3).unwrap();
    let mut config = sharded_base();
    config.seed = 1001;
    let r = Simulation::new(&sys, ProtocolKind::Safe, config)
        .with_failure_plan(churn_schedule())
        .run();
    assert_eq!(r.completed_reads, 1217);
    assert_eq!(r.completed_writes, 375);
    assert_eq!(r.stale_reads, 0);
    assert_eq!(r.empty_reads, 0);
    assert_eq!(r.unavailable_ops, 0);
    assert_eq!(r.concurrent_reads, 24);
    assert_eq!(r.retries, 0);
    assert_eq!(r.timed_out_attempts, 0);
    assert_eq!(r.events_processed, 42989);
    assert_eq!(r.total_operations, 1592);
    assert_eq!(r.membership_events, 5);
    assert_eq!(r.dropped_probes, 0);
    assert_eq!(r.adaptive_activations, 0);
    assert_eq!(r.mean_in_flight, 0.38882578667847545);
    assert_eq!(r.mean_latency(), 0.004883960487292785);
    assert_eq!(r.p99_latency(), 0.009467893529183868);
    assert_eq!(server_access_hash(&r), 17532421316546503462);

    // The same run on wider layouts, invariant across shard/thread counts.
    let mut cs = config;
    cs.num_shards = 4;
    cs.threads = 2;
    let rs = Simulation::new(&sys, ProtocolKind::Safe, cs)
        .with_failure_plan(churn_schedule())
        .run();
    let mut cs2 = config;
    cs2.num_shards = 2;
    cs2.threads = 1;
    let rs2 = Simulation::new(&sys, ProtocolKind::Safe, cs2)
        .with_failure_plan(churn_schedule())
        .run();
    assert_eq!(rs, rs2, "churn must be shard- and thread-invariant");
    assert_eq!(r, rs, "churn must be shard- and thread-invariant");
    assert_eq!(rs.completed_reads, 1217);
    assert_eq!(rs.completed_writes, 375);
    assert_eq!(rs.events_processed, 42989);
    assert_eq!(rs.membership_events, 5);
    assert_eq!(rs.mean_in_flight, 0.38882578667847545);
    assert_eq!(rs.mean_latency(), 0.004883960487292785);
    assert_eq!(server_access_hash(&rs), 17532421316546503462);
}

/// A healing partition under full-push diffusion, frozen on one shard
/// (re-pinned in PR 14) and on four: probes and gossip cross components only after the heal, the heal is
/// observed by the coverage tracker, and the post-heal coverage curve
/// re-converges in a pinned number of rounds.
#[test]
#[allow(clippy::excessive_precision)]
fn partition_heal_fingerprint_is_pinned() {
    let sys = EpsilonIntersecting::with_target_epsilon(100, 1e-3).unwrap();
    let mut config = sharded_base();
    config.seed = 1002;
    config.diffusion = Some(
        DiffusionPolicy::full_push(0.2, 2)
            .with_push_latency(LatencyModel::Exponential { mean: 2e-3 }),
    );
    let plan = FailurePlan::none().with_partition(5.0, 12.0, 2);
    let r = Simulation::new(&sys, ProtocolKind::Safe, config)
        .with_failure_plan(plan.clone())
        .run();
    assert_eq!(r.completed_reads, 1290);
    assert_eq!(r.completed_writes, 332);
    assert_eq!(r.stale_reads, 0);
    assert_eq!(r.empty_reads, 0);
    assert_eq!(r.gossip_rounds, 100);
    assert_eq!(r.gossip_pushes, 399201);
    assert_eq!(r.gossip_stores, 17691);
    assert_eq!(r.events_processed, 529455);
    assert_eq!(r.total_operations, 1622);
    assert_eq!(r.dropped_probes, 7144);
    assert_eq!(r.partition_blocked_gossip, 86360);
    assert_eq!(r.heals_observed, 1);
    assert_eq!(r.post_heal_rounds_to_coverage, 4);
    assert_eq!(r.post_heal_coverage_completions, 1);
    assert_eq!(r.post_heal_coverage, vec![2, 20, 26, 28, 30]);
    assert_eq!(r.per_component_stale_reads, vec![0, 0]);
    assert_eq!(r.mean_in_flight, 0.45921389786412087);
    assert_eq!(r.mean_latency(), 0.005662250694559051);
    assert_eq!(r.p99_latency(), 0.012944505085215496);
    assert_eq!(server_access_hash(&r), 16193927228281797792);

    // The same run on wider layouts: spine-planned digest gating and
    // global-id delta dedup keep the counts shard-layout-invariant.
    let mut cs = config;
    cs.num_shards = 4;
    cs.threads = 2;
    let rs = Simulation::new(&sys, ProtocolKind::Safe, cs)
        .with_failure_plan(plan.clone())
        .run();
    let mut cs2 = config;
    cs2.num_shards = 2;
    cs2.threads = 1;
    let rs2 = Simulation::new(&sys, ProtocolKind::Safe, cs2)
        .with_failure_plan(plan)
        .run();
    assert_eq!(
        rs, rs2,
        "partition heal must be shard- and thread-invariant"
    );
    assert_eq!(r, rs, "partition heal must be shard- and thread-invariant");
    assert_eq!(rs.completed_reads, 1290);
    assert_eq!(rs.gossip_pushes, 399201);
    assert_eq!(rs.gossip_stores, 17691);
    assert_eq!(rs.events_processed, 529455);
    assert_eq!(rs.dropped_probes, 7144);
    assert_eq!(rs.partition_blocked_gossip, 86360);
    assert_eq!(rs.heals_observed, 1);
    assert_eq!(rs.post_heal_rounds_to_coverage, 4);
    assert_eq!(rs.post_heal_coverage, vec![2, 20, 26, 28, 30]);
    assert_eq!(rs.mean_in_flight, 0.45921389786412087);
    assert_eq!(server_access_hash(&rs), 16193927228281797792);
}

/// The adaptive hot-key adversary, frozen on one shard (re-pinned in
/// PR 14) and on four — and checked against its same-seed static twin: foreground trajectory identical,
/// staleness never lower (the sleeper flip is a pure read-side overlay).
#[test]
#[allow(clippy::excessive_precision)]
fn adaptive_adversary_fingerprint_is_pinned() {
    let sys = EpsilonIntersecting::with_target_epsilon(100, 1e-3).unwrap();
    let mut config = sharded_base();
    config.seed = 1003;
    let r = Simulation::new(&sys, ProtocolKind::Safe, config)
        .with_failure_plan(adaptive_schedule())
        .run();
    assert_eq!(r.completed_reads, 1327);
    assert_eq!(r.completed_writes, 303);
    assert_eq!(r.stale_reads, 1030);
    assert_eq!(r.empty_reads, 0);
    assert_eq!(r.events_processed, 44010);
    assert_eq!(r.total_operations, 1630);
    assert_eq!(r.adaptive_activations, 1930);
    assert_eq!(r.mean_in_flight, 0.3774505017038662);
    assert_eq!(r.mean_latency(), 0.004622407899601067);
    assert_eq!(r.p99_latency(), 0.008199413647309584);
    assert_eq!(server_access_hash(&r), 5134640556423834096);

    // Same-seed static twin: identical foreground, never fresher reads.
    let stat = Simulation::new(&sys, ProtocolKind::Safe, config)
        .with_failure_plan(adaptive_schedule().with_strategy(ByzantineStrategy::Static))
        .run();
    assert_eq!(stat.completed_reads, r.completed_reads);
    assert_eq!(stat.completed_writes, r.completed_writes);
    assert_eq!(stat.events_processed, r.events_processed);
    assert_eq!(stat.per_server_accesses, r.per_server_accesses);
    assert_eq!(stat.adaptive_activations, 0);
    assert!(stat.stale_reads + stat.empty_reads <= r.stale_reads + r.empty_reads);

    // The same run on wider layouts, invariant across shard/thread counts.
    let mut cs = config;
    cs.num_shards = 4;
    cs.threads = 2;
    let rs = Simulation::new(&sys, ProtocolKind::Safe, cs)
        .with_failure_plan(adaptive_schedule())
        .run();
    let mut cs2 = config;
    cs2.num_shards = 2;
    cs2.threads = 1;
    let rs2 = Simulation::new(&sys, ProtocolKind::Safe, cs2)
        .with_failure_plan(adaptive_schedule())
        .run();
    assert_eq!(rs, rs2, "adaptive runs must be shard- and thread-invariant");
    assert_eq!(r, rs, "adaptive runs must be shard- and thread-invariant");
    assert_eq!(rs.completed_reads, 1327);
    assert_eq!(rs.completed_writes, 303);
    assert_eq!(rs.stale_reads, 1030);
    assert_eq!(rs.events_processed, 44010);
    assert_eq!(rs.adaptive_activations, 1930);
    assert_eq!(rs.mean_in_flight, 0.3774505017038662);
    assert_eq!(server_access_hash(&rs), 5134640556423834096);
}

#[test]
#[allow(clippy::excessive_precision)]
fn sharded_family_fingerprint_is_pinned() {
    let sys = EpsilonIntersecting::with_target_epsilon(100, 1e-3).unwrap();
    let mut config = sharded_base();
    config.num_shards = 4;
    config.threads = 2;
    config.diffusion = Some(
        DiffusionPolicy::digest_delta(0.2, 2)
            .with_push_latency(LatencyModel::Exponential { mean: 2e-3 }),
    );
    let r = Simulation::new(&sys, ProtocolKind::Safe, config)
        .with_failure_plan(mid_run_wave())
        .run();
    assert_eq!(r.completed_reads, 1256);
    assert_eq!(r.completed_writes, 323);
    assert_eq!(r.stale_reads, 0);
    assert_eq!(r.empty_reads, 0);
    assert_eq!(r.unavailable_ops, 0);
    assert_eq!(r.concurrent_reads, 23);
    assert_eq!(r.retries, 0);
    assert_eq!(r.timed_out_attempts, 0);
    assert_eq!(r.gossip_rounds, 100);
    assert_eq!(r.gossip_digests, 18811);
    assert_eq!(r.gossip_pushes, 25594);
    assert_eq!(r.gossip_stores, 18799);
    assert_eq!(r.gossip_redundant_pushes_avoided, 449121);
    assert_eq!(r.events_processed, 75000);
    assert_eq!(r.max_in_flight, 5);
    assert_eq!(r.total_operations, 1579);
    // Floating-point trajectories, pinned to the bit.
    assert_eq!(r.mean_in_flight, 4.5105489249514724e-1);
    assert_eq!(r.mean_latency(), 5.7143094013534885e-3);
    assert_eq!(r.p99_latency(), 1.3249916559010089e-2);
    let hash = r
        .per_server_accesses
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, &c)| {
            acc.wrapping_mul(1000003).wrapping_add(c ^ i as u64)
        });
    assert_eq!(hash, 12038364402710033471);
}
