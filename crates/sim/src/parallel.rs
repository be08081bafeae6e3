//! The engine's spine: deterministic barriers, gossip planning and crash
//! waves over per-shard worlds.
//!
//! [`run`] executes every [`Simulation`], whatever its
//! [`SimConfig::num_shards`](crate::runner::SimConfig::num_shards) — one
//! shard is the smallest layout, not a different path:
//!
//! 1. The failure plan is derived on the main RNG stream, then each
//!    [`World`] opens the arrival streams of the variables it owns
//!    (`variable % num_shards`, each key on its own stream, drawn lazily)
//!    and borrows the full crash and membership schedules, which it walks
//!    with cursors rather than queueing them.
//! 2. With no diffusion configured there is no cross-shard traffic at all:
//!    every world drains independently (on up to
//!    [`SimConfig::threads`](crate::runner::SimConfig::threads) worker
//!    threads), in windows of a constant simulated length, and the
//!    accumulators merge.
//! 3. With diffusion, the gossip round times are the spine's **barriers**:
//!    all worlds drain up to (strictly before) each barrier, the spine
//!    applies the crash and membership transitions due by then to its
//!    behaviour timeline, and plans the round straight from the records
//!    where they live — key `v`'s on world `v % num_shards`, the only copy
//!    there is, read through [`Shards`] — on the dedicated gossip RNG
//!    stream, drawing *all* message latencies eagerly, so the stream never
//!    depends on shard outcomes.  Each message goes into its destination
//!    world's [`RoundBatch`], bulk-scheduled in one pre-sorted pass per
//!    world.  A full push whose receiver already holds a record as fresh
//!    is *covered*: it can store nothing whenever it lands, so the spine
//!    counts its delivery on the spot and sends nothing (see
//!    `docs/ARCHITECTURE.md`, "Plan-time resolution of covered pushes").
//!
//! After every drain window — a gossip barrier, or a fixed stretch of
//! simulated time without gossip — the spine's [`InFlightGauge`] takes the
//! worlds' start and end transitions of that window and walks them in time
//! order, so the maximum in flight is exact across worlds while no world
//! holds more than one window's transitions.  Every other aggregate is a
//! sum the worlds keep themselves.
//!
//! Everything the spine computes is a function of per-variable outcomes
//! and the seed, never of shard layout or thread interleaving — which is
//! what makes the merged report bit-identical across all shard counts and
//! all thread counts.
//!
//! A barrier costs one scan of the records held plus the round's
//! messages; [`run`] reports wall-clock per stage through
//! [`EngineStageTimings`].

use crate::failure::FailurePlan;
use crate::metrics::{merge_shard_reports, EngineStageTimings, InFlightGauge, SimReport};
use crate::runner::{GossipMode, KeyGossipPolicy, ProtocolKind, Simulation};
use crate::staleness::HealTracking;
use crate::time::SimTime;
use crate::workload::{Arrivals, WorkloadConfig};
use crate::world::{DigestIds, QueuedPush, RoundBatch, World};
use pqs_core::system::QuorumSystem;
use pqs_core::universe::ServerId;
use pqs_protocols::cluster::Cluster;
use pqs_protocols::crypto::SignedValue;
use pqs_protocols::diffusion::{self, Holdings};
use pqs_protocols::server::{Behavior, Record, VariableId};
use pqs_protocols::timestamp::Timestamp;
use pqs_protocols::value::TaggedValue;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::time::Instant;

/// Fraction of correct servers a fresh record must reach for the
/// rounds-to-coverage accounting (per key, and after a heal) to call it
/// converged.
const COVERAGE_TARGET: f64 = 0.9;

/// Expected arrivals per drain window of a gossip-free run: the window's
/// simulated length is this over the arrival rate, so the in-flight
/// gauge's buffers hold about a thousand transitions whatever the run's
/// length.
const WINDOW_ARRIVALS: f64 = 1024.0;

/// The records of a run where they live, as the round planners read them at
/// a barrier: key `v`'s records and write state on world `v % worlds.len()`
/// — the only copy there is — and every server's behaviour on the spine's
/// own timeline.
struct Shards<'w, 'a, S: QuorumSystem + ?Sized> {
    behaviors: &'w Cluster,
    worlds: &'w [World<'a, S>],
    keys: VariableId,
}

impl<'a, S: QuorumSystem + ?Sized> Shards<'_, 'a, S> {
    /// The world that owns key `v`.
    fn owner(&self, v: VariableId) -> &World<'a, S> {
        &self.worlds[(v % self.worlds.len() as VariableId) as usize]
    }

    /// Key `v`'s write count and latest write time.
    fn write_state(&self, v: usize) -> (u64, SimTime) {
        let world = self.owner(v as VariableId);
        (world.sequences[v], world.last_write_at[v])
    }
}

impl<S: QuorumSystem + ?Sized> Holdings for Shards<'_, '_, S> {
    fn servers(&self) -> usize {
        self.behaviors.len()
    }
    fn behavior(&self, id: ServerId) -> Behavior {
        self.behaviors.server(id).behavior()
    }
    fn record<R: Record>(&self, id: ServerId, var: VariableId) -> Option<&R> {
        self.owner(var).cluster.server(id).record(var)
    }
    fn variables<R: Record>(&self, id: ServerId) -> impl Iterator<Item = VariableId> + '_ {
        (0..self.keys).filter(move |&v| self.record::<R>(id, v).is_some())
    }
}

/// Resolves the digest advertisement policy for one round into the concrete
/// key set the digests carry, from foreground-observable state only —
/// `write_state(v)` is key `v`'s write count and last write time, for each
/// of the `keys` keys.  The selection itself never draws randomness, so
/// every policy replays the identical foreground trajectory.
pub(crate) fn digest_selector(
    policy: KeyGossipPolicy,
    round: u64,
    now: SimTime,
    keys: usize,
    write_state: impl Fn(usize) -> (u64, SimTime),
) -> diffusion::KeySelector {
    match policy {
        KeyGossipPolicy::Uniform => diffusion::KeySelector::All,
        KeyGossipPolicy::HotFirst {
            hot_keys,
            cold_every,
        } => {
            if cold_every <= 1 || round.is_multiple_of(cold_every) {
                return diffusion::KeySelector::All;
            }
            let mut ranked: Vec<(u64, usize)> = (0..keys)
                .map(|v| (write_state(v).0, v))
                .filter(|&(w, _)| w > 0)
                .collect();
            ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            let set: BTreeSet<VariableId> = ranked
                .iter()
                .take(hot_keys as usize)
                .map(|&(_, i)| i as VariableId)
                .collect();
            diffusion::KeySelector::Only(set)
        }
        KeyGossipPolicy::RecentWrites { window, cold_every } => {
            if cold_every <= 1 || round.is_multiple_of(cold_every) {
                return diffusion::KeySelector::All;
            }
            let since = now - window;
            let set: BTreeSet<VariableId> = (0..keys)
                .filter(|&v| write_state(v).1 >= since)
                .map(|v| v as VariableId)
                .collect();
            diffusion::KeySelector::Only(set)
        }
    }
}

/// Per-variable state of the rounds-to-coverage accounting: which record
/// generation is being tracked and when (at which round) it was first seen.
#[derive(Debug, Clone, Copy)]
struct ConvergenceTracker {
    freshest: Timestamp,
    birth_round: u64,
    covered: bool,
}

impl Default for ConvergenceTracker {
    fn default() -> Self {
        ConvergenceTracker {
            freshest: Timestamp::ZERO,
            birth_round: 0,
            covered: true,
        }
    }
}

/// Runs the simulation: [`Simulation::run_with_stats`], in full.  The one
/// point where a run's record kind — a consequence of its protocol — becomes
/// a type: the spine below is monomorphic in the records it plans from.
pub(crate) fn run<S: QuorumSystem + ?Sized>(
    sim: &Simulation<'_, S>,
) -> (SimReport, EngineStageTimings) {
    match sim.kind {
        ProtocolKind::Dissemination => run_on::<SignedValue, S>(sim),
        ProtocolKind::Safe | ProtocolKind::Masking { .. } => run_on::<TaggedValue, S>(sim),
    }
}

/// [`run`] for a protocol whose servers store `R` records.
fn run_on<R: Record, S: QuorumSystem + ?Sized>(
    sim: &Simulation<'_, S>,
) -> (SimReport, EngineStageTimings) {
    let run_start = Instant::now();
    let mut stages = EngineStageTimings::default();
    let config = sim.config;
    // The fields are public, so a 0 can get past the builder's check.
    let num_shards = u64::from(config.num_shards.max(1));

    // Plan derivation on the main RNG stream.  A caller-supplied plan is
    // borrowed, never cloned — not here and not by the worlds: crash waves
    // can carry thousands of transitions and the engine only reads them.
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let derived_plan;
    let plan: &FailurePlan = match &sim.plan {
        Some(plan) => plan,
        None => {
            let mut plan = FailurePlan::none();
            if config.byzantine > 0 {
                plan =
                    plan.with_random_byzantine(sim.system.universe(), config.byzantine, &mut rng);
            }
            if config.crash_probability > 0.0 {
                plan = plan.with_independent_crashes(
                    sim.system.universe(),
                    config.crash_probability,
                    0.0,
                    &mut rng,
                );
            }
            derived_plan = plan;
            &derived_plan
        }
    };
    let byz_behavior = match sim.kind {
        // Against self-verifying data the strongest undetectable attack is
        // suppression / stale replay; against plain data it is a colluding
        // forgery.
        ProtocolKind::Dissemination => Behavior::ByzantineStale,
        _ => Behavior::ByzantineForge,
    };
    let workload = WorkloadConfig {
        duration: config.duration,
        arrival_rate: config.arrival_rate,
        read_fraction: config.read_fraction,
        keyspace: config.keyspace,
    };
    let popularity = config.keyspace.popularity();

    let mut worlds: Vec<World<'_, S>> = (0..num_shards)
        .map(|shard| {
            let keys = (shard..config.keyspace.keys).step_by(num_shards as usize);
            let arrivals = Arrivals::new(&workload, &popularity, config.seed, keys);
            World::new(sim, arrivals, plan, byz_behavior)
        })
        .collect();
    let threads = (config.threads as usize).min(worlds.len()).max(1);
    let mut gauge = InFlightGauge::default();
    let mut drain = |worlds: &mut [World<'_, S>], barrier: Option<SimTime>| {
        let drain_start = Instant::now();
        drain_all(worlds, barrier, threads);
        gauge.window(worlds.iter_mut().map(|w| (&mut w.starts, &mut w.ends)));
        drain_start.elapsed().as_secs_f64()
    };

    let nvars = config.keyspace.keys as usize;
    let mut coverage_rounds_sum = vec![0u64; nvars];
    let mut coverage_events = vec![0u64; nvars];
    let mut rounds: u64 = 0;
    let mut digests_planned: u64 = 0;
    let mut digests_blocked: u64 = 0;
    // Covered full pushes settled at planning time: what the owning
    // shard's `Event::GossipPush` arm would have counted for each —
    // delivered (per variable) or dropped at a partition.
    let mut resolved_pushes = vec![0u64; nvars];
    let mut resolved_blocked: u64 = 0;
    // Post-heal re-convergence accounting, spine-level like the coverage
    // trackers (no-op without partition windows).
    let mut heals = HealTracking::default();

    if let Some(policy) = config.diffusion {
        assert!(
            policy.period > 0.0 && policy.period.is_finite(),
            "diffusion period must be positive and finite"
        );
        assert!(policy.fanout >= 1, "diffusion fanout must be at least 1");

        // The spine's behaviour timeline.  It stores no record: the
        // planners read each key's records on its owning world.
        let mut behaviors = Cluster::new(sim.system.universe());
        behaviors.corrupt_all(plan.byzantine.iter().copied(), byz_behavior);
        for absent in plan.initially_absent() {
            behaviors.set_behavior(absent, Behavior::Crashed);
        }
        let mut gossip_rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut trackers: Vec<ConvergenceTracker> = vec![ConvergenceTracker::default(); nvars];
        let mut crash_cursor = 0usize;
        let mut membership_cursor = 0usize;
        let mut next_gossip_id: u64 = 0;

        // Round-scoped buffers, all reused across barriers: per-shard
        // message batches, the digest planner's arena, and each shard's
        // range of the sender being routed.
        let mut batches: Vec<RoundBatch> = (0..num_shards).map(|_| RoundBatch::default()).collect();
        let mut arena = diffusion::DigestArena::default();
        let mut spans: Vec<(u32, u32)> = vec![(0, 0); num_shards as usize];

        // Round `r` fires at `r · period`, accumulated by repeated addition;
        // rounds stop with the foreground arrivals.
        let mut round: u64 = 1;
        let mut t = policy.period;
        loop {
            stages.drain_seconds += drain(&mut worlds, Some(t));

            let sync_start = Instant::now();
            // Crash transitions due by now flip the spine's behaviours — a
            // transition at the barrier time itself precedes the round.
            while crash_cursor < plan.crashes.len() && plan.crashes[crash_cursor].at <= t {
                let c = &plan.crashes[crash_cursor];
                let behavior = if c.crash {
                    Behavior::Crashed
                } else {
                    Behavior::Correct
                };
                behaviors.set_behavior(c.server, behavior);
                crash_cursor += 1;
            }
            // Membership transitions use a *strict* cursor (`at < t`, not
            // `<= t`): a join wipes the joiner's records, and the worlds
            // replay a join at the barrier time itself only after the
            // round, so the strict bound keeps the joiner's behaviour in
            // step with the records the worlds hold for it.
            while membership_cursor < plan.memberships.len()
                && plan.memberships[membership_cursor].at < t
            {
                let m = &plan.memberships[membership_cursor];
                if m.join {
                    behaviors.join_server(m.server);
                } else {
                    behaviors.set_behavior(m.server, Behavior::Crashed);
                }
                membership_cursor += 1;
            }
            stages.sync_seconds += sync_start.elapsed().as_secs_f64();

            let plan_start = Instant::now();
            rounds += 1;
            let shards = Shards {
                behaviors: &behaviors,
                worlds: &worlds,
                keys: config.keyspace.keys,
            };
            let (coverage, correct_servers) = match policy.mode {
                GossipMode::PushAll => {
                    let outline = diffusion::outline_cluster_round::<R, _>(
                        &shards,
                        policy.fanout as usize,
                        &mut gossip_rng,
                    );
                    stages.planned_pushes += outline.pushes.len() as u64;
                    for push in &outline.pushes {
                        let at = t + policy.push_latency.sample(&mut gossip_rng);
                        // The planner read the receiver's record on its
                        // owning world at this barrier, and a stored
                        // timestamp only ever falls at a join, so a covered
                        // push stores nothing at `at` unless its receiver
                        // joins in between.  Both ends of the window count:
                        // the world replays a join *at* `t` only after the
                        // round, so the planner still saw the pre-join
                        // record, and a join *at* `at` is replayed before
                        // the push (the membership cursor wins its ties
                        // with the queue).
                        // `Some(blocked)`: resolved here.
                        let resolved = (push.covered && !plan.joins_within(push.to, t, at))
                            .then(|| plan.blocks_link(at, push.from, push.to));
                        match resolved {
                            Some(true) => resolved_blocked += 1,
                            Some(false) => resolved_pushes[push.variable as usize] += 1,
                            None => stages.queued_pushes += 1,
                        }
                        // Debug builds send the resolved pushes too, as
                        // uncounted shadows (see `QueuedPush`).
                        if resolved.is_some() && !cfg!(debug_assertions) {
                            continue;
                        }
                        let dest = (push.variable % num_shards) as usize;
                        batches[dest].pushes.push((
                            at,
                            QueuedPush {
                                push: push.materialise::<R>(&shards),
                                #[cfg(debug_assertions)]
                                resolved,
                            },
                        ));
                    }
                    (outline.coverage, outline.correct_servers)
                }
                GossipMode::DigestDelta => {
                    let selector = digest_selector(policy.key_policy, round, t, nvars, |v| {
                        shards.write_state(v)
                    });
                    let (coverage, correct_servers) = diffusion::plan_digest_into::<R, _>(
                        &shards,
                        policy.fanout as usize,
                        &selector,
                        &mut gossip_rng,
                        &mut arena,
                    );
                    // The arena range whose per-shard split `spans` holds:
                    // a sender's digests share one range, so its entries
                    // are routed once and its sub-digests share the copy.
                    let mut routed: Option<(u32, u32)> = None;
                    for &digest in &arena.digests {
                        // Both legs' latencies are drawn eagerly at
                        // planning time: the gossip stream must never
                        // depend on whether a shard's delta turns out
                        // non-empty.
                        let digest_rtt = policy.push_latency.sample(&mut gossip_rng);
                        let delta_rtt = policy.push_latency.sample(&mut gossip_rng);
                        digests_planned += 1;
                        let id = next_gossip_id;
                        next_gossip_id += 1;
                        // Partition gating for digests happens here on the
                        // spine (one digest fans out to sub-digests on
                        // several shards but is one message), evaluated at
                        // the digest's *delivery* time.  Both latencies are
                        // already drawn, so the gossip RNG stream is
                        // unaffected.
                        if plan.blocks_link(t + digest_rtt, digest.from, digest.to) {
                            digests_blocked += 1;
                            continue;
                        }
                        // One pass appends the sender's advertised entries
                        // to their owning shards' arenas — O(entries +
                        // shards) per sender.
                        if routed != Some((digest.start, digest.end)) {
                            for (span, batch) in spans.iter_mut().zip(&batches) {
                                span.0 = batch.entries.len() as u32;
                            }
                            for &entry in digest.entries(&arena.entries) {
                                batches[(entry.0 % num_shards) as usize].entries.push(entry);
                            }
                            for (span, batch) in spans.iter_mut().zip(&batches) {
                                span.1 = batch.entries.len() as u32;
                            }
                            routed = Some((digest.start, digest.end));
                        }
                        for (&(start, end), batch) in spans.iter().zip(batches.iter_mut()) {
                            // An incomplete digest with no entries for this
                            // shard can neither transfer nor avoid
                            // anything; a *complete* one still lets the
                            // receiver volunteer records the sender never
                            // advertised, so it visits every shard.
                            if start == end && !digest.complete {
                                continue;
                            }
                            let sub = diffusion::PlannedDigest {
                                start,
                                end,
                                ..digest
                            };
                            batch.digests.push((t + digest_rtt, id, sub, delta_rtt));
                        }
                    }
                    (coverage, correct_servers)
                }
            };

            // Convergence accounting against the planner's coverage
            // snapshot: a fresher record restarts its variable's clock;
            // reaching the target closes it.
            let target = ((correct_servers as f64 * COVERAGE_TARGET).ceil() as u32).max(1);
            for cov in &coverage {
                let tracker = &mut trackers[cov.variable as usize];
                if cov.freshest > tracker.freshest {
                    tracker.freshest = cov.freshest;
                    tracker.birth_round = round;
                    tracker.covered = false;
                }
                // The holder count only speaks for the tracked generation
                // if it is still the freshest one: when every correct holder
                // of a newer record crashes, the snapshot regresses to an
                // older timestamp whose coverage must not close the newer
                // clock.
                if !tracker.covered && cov.freshest == tracker.freshest && cov.holders >= target {
                    tracker.covered = true;
                    coverage_rounds_sum[cov.variable as usize] += round - tracker.birth_round;
                    coverage_events[cov.variable as usize] += 1;
                }
            }
            heals.on_round(plan, t, round, &coverage, target, nvars);
            stages.plan_seconds += plan_start.elapsed().as_secs_f64();

            let route_start = Instant::now();
            for (world, batch) in worlds.iter_mut().zip(batches.iter_mut()) {
                world.schedule_round_batch(batch);
            }
            stages.route_seconds += route_start.elapsed().as_secs_f64();

            if t + policy.period <= config.duration {
                round += 1;
                t += policy.period;
            } else {
                break;
            }
        }
    } else {
        let window = WINDOW_ARRIVALS / config.arrival_rate;
        let mut t = window;
        while t < config.duration {
            stages.drain_seconds += drain(&mut worlds, Some(t));
            t += window;
        }
    }

    // No more cross-shard traffic will ever be injected: drain everything.
    stages.drain_seconds += drain(&mut worlds, None);

    // One delta *event* per digest id that produced any records (a
    // digest's delta is one message, however many shards contributed to
    // it); blocked deltas likewise deduplicate to one dropped message per
    // id.
    let deltas_sent = DigestIds::union_len(worlds.iter().map(|w| &w.deltas_sent));
    let deltas_blocked = DigestIds::union_len(worlds.iter().map(|w| &w.deltas_blocked));

    let mut report = merge_shard_reports(worlds.into_iter().map(World::into_accumulator).collect());
    report.max_in_flight = gauge.max();
    report.gossip_rounds = rounds;
    // A digest a partition blocked was planned but never delivered.
    report.gossip_digests = digests_planned - digests_blocked;
    let resolved_delivered: u64 = resolved_pushes.iter().sum();
    report.gossip_pushes += resolved_delivered;
    report.partition_blocked_gossip += resolved_blocked + digests_blocked + deltas_blocked;
    report.membership_events = plan.memberships.len() as u64;
    heals.finish_into(&mut report);
    // Spine-level events: crash and membership transitions (replayed per
    // shard but one event each), rounds, digest deliveries, delta
    // deliveries and the push deliveries resolved at planning time.
    report.events_processed += plan.crashes.len() as u64
        + plan.memberships.len() as u64
        + rounds
        + digests_planned
        + deltas_sent
        + resolved_delivered
        + resolved_blocked;
    for v in 0..nvars {
        report.per_variable[v].coverage_rounds_sum = coverage_rounds_sum[v];
        report.per_variable[v].coverage_events = coverage_events[v];
        report.per_variable[v].gossip_pushes += resolved_pushes[v];
    }
    stages.total_seconds = run_start.elapsed().as_secs_f64();
    (report, stages)
}

/// Drains every shard up to `barrier` — inline on this thread, or on up to
/// `threads` scoped worker threads.  Purely an execution choice: shards
/// share nothing while draining, so the interleaving cannot matter.
fn drain_all<S: QuorumSystem + ?Sized>(
    worlds: &mut [World<'_, S>],
    barrier: Option<SimTime>,
    threads: usize,
) {
    if threads <= 1 || worlds.len() <= 1 {
        for world in worlds {
            world.drain_until(barrier);
        }
        return;
    }
    let chunk = worlds.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for chunk_worlds in worlds.chunks_mut(chunk) {
            scope.spawn(move || {
                for world in chunk_worlds {
                    world.drain_until(barrier);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{DiffusionPolicy, SimConfig};
    use crate::workload::KeySpace;
    use pqs_core::probabilistic::EpsilonIntersecting;
    use pqs_protocols::diffusion::{outline_cluster_round, plan_digest_into};
    use pqs_protocols::diffusion::{DigestArena, KeySelector};

    /// `SimConfig`'s fields are public, so a zero shard count can bypass
    /// the builder's check; it must mean the smallest layout, not a
    /// division by zero.
    #[test]
    fn zero_shards_run_as_one_shard() {
        let sys = EpsilonIntersecting::new(36, 9).unwrap();
        let mut config = SimConfig::builder()
            .with_duration(5.0)
            .with_arrival_rate(80.0)
            .with_keyspace(KeySpace::zipf(8, 1.0))
            .with_diffusion(DiffusionPolicy::digest_delta(0.25, 2))
            .with_seed(11)
            .build();
        let one = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        assert!(one.completed_reads > 0 && one.gossip_digests > 0);
        config.num_shards = 0;
        assert_eq!(Simulation::new(&sys, ProtocolKind::Safe, config).run(), one);
    }

    /// Each key's records live only on its owning world, so the view the
    /// planners read reads what one cluster holding a merge of every
    /// world's records would: the same held keys and records per server,
    /// and the same planned rounds.
    #[test]
    fn shards_hold_what_one_merged_cluster_holds() {
        type R = TaggedValue;
        let sys = EpsilonIntersecting::new(36, 9).unwrap();
        let keys = 16;
        let config = SimConfig::builder()
            .with_duration(3.0)
            .with_arrival_rate(200.0)
            .with_keyspace(KeySpace::zipf(keys, 1.0))
            .with_diffusion(DiffusionPolicy::digest_delta(0.25, 2))
            .with_num_shards(3)
            .with_seed(5)
            .build();
        let s = ServerId::new;
        // Churn: an initially absent server joins, another leaves and
        // rejoins with its records wiped, a third crashes.
        let plan = FailurePlan::none()
            .with_join(0.4, s(30))
            .with_leave(0.8, s(31))
            .with_join(1.5, s(31))
            .with_transition(1.0, s(2), true);
        let sim = Simulation::new(&sys, ProtocolKind::Safe, config);
        let workload = WorkloadConfig {
            duration: config.duration,
            arrival_rate: config.arrival_rate,
            read_fraction: config.read_fraction,
            keyspace: config.keyspace,
        };
        let popularity = config.keyspace.popularity();
        let mut worlds: Vec<_> = (0..3)
            .map(|shard| {
                let keys = (shard..keys).step_by(3);
                let arrivals = Arrivals::new(&workload, &popularity, 5, keys);
                World::new(&sim, arrivals, &plan, Behavior::ByzantineForge)
            })
            .collect();
        drain_all(&mut worlds, Some(2.0), 1);

        let universe = sys.universe();
        let mut behaviors = Cluster::new(universe);
        for id in universe.servers() {
            behaviors.set_behavior(id, worlds[0].cluster.server(id).behavior());
        }
        let mut merged = behaviors.clone();
        for world in &worlds {
            for id in universe.servers() {
                let src = world.cluster.server(id);
                for var in src.variables::<R>() {
                    merged.server_mut(id).merge(var, &src.stored::<R>(var));
                }
            }
        }
        let shards = Shards {
            behaviors: &behaviors,
            worlds: &worlds,
            keys,
        };
        let mut held = 0;
        for id in universe.servers() {
            let vars: Vec<VariableId> = merged.variables::<R>(id).collect();
            assert_eq!(shards.variables::<R>(id).collect::<Vec<_>>(), vars);
            for v in 0..keys {
                let record = merged.record::<R>(id, v);
                assert_eq!(shards.record::<R>(id, v), record, "{id:?}, key {v}");
            }
            held += vars.len();
        }
        assert!(held > 3 * keys as usize, "only {held} records held");

        let rng = || ChaCha8Rng::seed_from_u64(9);
        assert_eq!(
            outline_cluster_round::<R, _>(&shards, 2, &mut rng()),
            outline_cluster_round::<R, _>(&merged, 2, &mut rng()),
        );
        let hot = KeySelector::Only(BTreeSet::from([0, 1, 5]));
        for keys in [KeySelector::All, hot] {
            let (mut a, mut b) = (DigestArena::default(), DigestArena::default());
            let planned = plan_digest_into::<R, _>(&shards, 2, &keys, &mut rng(), &mut a);
            let expected = plan_digest_into::<R, _>(&merged, 2, &keys, &mut rng(), &mut b);
            assert_eq!(planned, expected);
            assert_eq!((a.entries, a.digests), (b.entries, b.digests));
        }
    }
}
