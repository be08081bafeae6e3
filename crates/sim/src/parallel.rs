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
//!    and borrows the plan's one transition list (crashes, recoveries,
//!    joins and leaves), which it walks with a cursor rather than queueing
//!    it.  Every world applies every transition, so every world holds the
//!    run's behaviours.
//! 2. With no diffusion configured there is no cross-shard traffic at all:
//!    every world drains independently (on up to
//!    [`SimConfig::threads`](crate::runner::SimConfig::threads) worker
//!    threads), in windows of a constant simulated length, and the
//!    accumulators merge.
//! 3. With diffusion, the gossip round times are the spine's **barriers**:
//!    all worlds drain up to (strictly before) each barrier and apply the
//!    crashes and recoveries due exactly at it, and the spine plans the
//!    round straight from the state where it lives — key `v`'s records on
//!    world `v % num_shards`, the only copy there is, and every behaviour
//!    on the first world, read through [`Shards`] — on the dedicated
//!    gossip RNG stream, which takes or skips *every* message latency
//!    draw, so the stream never depends on shard outcomes.  Each message
//!    goes into its destination world's [`RoundBatch`], bulk-scheduled in
//!    one pre-sorted pass per world.
//! 4. A full push whose receiver already holds a record as fresh is
//!    *covered*: it can store nothing whenever it lands, so the spine
//!    counts its delivery and sends nothing.  The one planning loop,
//!    [`diffusion::plan_pushes`], hands each push to the spine's sink as
//!    its peer is drawn.  In a *quiet* round — no join at or after the
//!    barrier, no partition window still open at it — a covered push
//!    resolves the same wherever its latency lands, so the sink counts it
//!    there and then, and the stream seeks past its latency draw instead
//!    of making it ([`ChaCha8Rng::set_word_pos`]).  The sink keeps every
//!    other push with its ordinal in the round, which locates its draw
//!    (see `docs/ARCHITECTURE.md`, "Plan-time resolution of covered
//!    pushes").
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
//! A barrier costs one scan of the records held, one peer draw and one
//! receiver lookup per planned push, and a latency draw, a record copy
//! and a queue slot for each push it cannot settle; [`run`] reports
//! wall-clock per stage through [`EngineStageTimings`].

use crate::failure::{FailurePlan, TransitionKind};
use crate::metrics::{merge_shard_reports, EngineStageTimings, InFlightGauge, SimReport};
use crate::runner::{DiffusionPolicy, GossipMode, KeyGossipPolicy, ProtocolKind, Simulation};
use crate::staleness::HealTracking;
use crate::time::SimTime;
use crate::workload::{Arrivals, WorkloadConfig};
use crate::world::{DigestIds, QueuedPush, RoundBatch, World};
use pqs_core::system::QuorumSystem;
use pqs_core::universe::ServerId;
use pqs_protocols::crypto::SignedValue;
use pqs_protocols::diffusion::{self, Holdings, PlannedPush, VariableCoverage};
use pqs_protocols::server::{Behavior, KeyRecords, Record, VariableId};
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
/// — the only copy there is — and every server's behaviour on the first
/// world, which holds the same behaviours as every other.
struct Shards<'w, 'a, S: QuorumSystem + ?Sized, R> {
    worlds: &'w [World<'a, S>],
    /// Key `v`'s records on its owning world, found once per barrier: a
    /// round reads them once per held key and once per push.
    keys: Vec<KeyRecords<'w, R>>,
}

impl<'w, 'a, S: QuorumSystem + ?Sized, R: Record> Shards<'w, 'a, S, R> {
    /// The records of keys `0..keys` on `worlds`.
    fn new(worlds: &'w [World<'a, S>], keys: VariableId) -> Self {
        // Cycling through the worlds in step with the keys finds each
        // key's owner without a division.
        let owners = worlds.iter().cycle();
        let keys = (0..keys)
            .zip(owners)
            .map(|(v, world)| world.cluster.key_records(v));
        Shards {
            worlds,
            keys: keys.collect(),
        }
    }

    /// Key `v`'s write count and latest write time.
    fn write_state(&self, v: usize) -> (u64, SimTime) {
        let world = &self.worlds[v % self.worlds.len()];
        (world.sequences[v], world.last_write_at[v])
    }
}

impl<S: QuorumSystem + ?Sized, R: Record> Holdings<R> for Shards<'_, '_, S, R> {
    fn servers(&self) -> usize {
        self.worlds[0].cluster.len()
    }
    fn behavior(&self, id: ServerId) -> Behavior {
        self.worlds[0].cluster.server(id).behavior()
    }
    fn record(&self, id: ServerId, var: VariableId) -> Option<&R> {
        self.keys.get(var as usize)?.get(id)
    }
    fn held(&self, id: ServerId) -> impl Iterator<Item = (VariableId, Timestamp)> + '_ {
        let keys = (0..).zip(&self.keys);
        keys.filter_map(move |(v, key)| key.get(id).map(|r| (v, r.timestamp())))
    }
}

/// The spine's full-push rounds under one failure plan: the covered
/// pushes settled at planning time, and a buffer of the pushes left to
/// resolve that every barrier reuses.
struct FullPush<'p> {
    plan: &'p FailurePlan,
    /// The plan's last join and when its last partition window heals (−∞
    /// without any): what makes a round [quiet](Self::quiet).
    last_join: SimTime,
    last_heal: SimTime,
    /// The round's pushes still to resolve, each with its ordinal in the
    /// round — also the index of its latency draw.
    kept: Vec<(u64, PlannedPush)>,
    /// Covered pushes settled at planning time: what the owning shard's
    /// `Event::GossipPush` arm would have counted for each — delivered
    /// (per variable) or dropped at a partition.
    resolved: Vec<u64>,
    blocked: u64,
}

impl<'p> FullPush<'p> {
    fn new(plan: &'p FailurePlan, keys: usize) -> Self {
        let joins = (plan.transitions.iter()).filter(|m| m.kind == TransitionKind::Join);
        let heals = plan.partitions.iter().map(|w| w.heals_at);
        FullPush {
            plan,
            last_join: (joins.map(|m| m.at)).fold(SimTime::NEG_INFINITY, SimTime::max),
            last_heal: heals.fold(SimTime::NEG_INFINITY, SimTime::max),
            kept: Vec::new(),
            resolved: vec![0; keys],
            blocked: 0,
        }
    }

    /// Whether the round at barrier `t` is *quiet*: the plan has no join at
    /// or after `t` and no partition window still open at `t`.  A push is
    /// delivered at `t` or later, so in a quiet round no join can wipe its
    /// receiver before it lands and no partition can block it: a covered
    /// push is delivered without a store whenever it lands, and its latency
    /// draw is never needed.  A join at `t` itself counts (the world
    /// replays it only after the round is planned); a window healing at `t`
    /// is closed.
    fn quiet(&self, t: SimTime) -> bool {
        t > self.last_join && t >= self.last_heal
    }

    /// Plans the round at barrier `t` on the gossip stream `rng` and puts
    /// every push it cannot settle into its destination's batch.  Returns
    /// the planner's coverage snapshot and correct-server count.
    fn round<R: Record, S: QuorumSystem + ?Sized>(
        &mut self,
        shards: &Shards<'_, '_, S, R>,
        policy: &DiffusionPolicy,
        t: SimTime,
        rng: &mut ChaCha8Rng,
        batches: &mut [RoundBatch],
        stages: &mut EngineStageTimings,
    ) -> (Vec<VariableCoverage>, u32) {
        // The planning loop hands over each push as its peer is drawn.  A
        // covered push in a quiet round is counted on the spot; the others
        // are kept.  Debug builds keep the counted ones too, to queue as
        // shadows.
        let quiet = self.quiet(t);
        let mut planned: u64 = 0;
        let (kept, resolved) = (&mut self.kept, &mut self.resolved);
        kept.clear();
        let planner = diffusion::plan_pushes::<R, _>(shards, policy.fanout as usize, rng, |push| {
            let settled = quiet && push.covered;
            if settled {
                resolved[push.variable as usize] += 1;
            }
            if !settled || cfg!(debug_assertions) {
                kept.push((planned, push));
            }
            planned += 1;
        });
        stages.planned_pushes += planned;
        // The round's latencies follow its peers on the stream, one per push
        // in push order: push `k`'s draw starts `k · words` words past
        // `start`.  Each kept push seeks to its own, and the stream ends past
        // them all, as if every latency had been drawn.
        let start = rng.get_word_pos();
        let words = 2 * u128::from(policy.push_latency.draws());
        // Debug builds draw every latency in order on a clone: the skipped
        // ones time the shadows, the others must be what the seeks read.
        let mut drawn_rng = cfg!(debug_assertions).then(|| rng.clone());
        let num_shards = batches.len() as VariableId;
        for &(ordinal, push) in &self.kept {
            let drawn = (drawn_rng.as_mut()).map(|rng| t + policy.push_latency.sample(rng));
            let settled = quiet && push.covered;
            let at = match drawn {
                Some(at) if settled => at,
                _ => {
                    rng.set_word_pos(start + u128::from(ordinal) * words);
                    t + policy.push_latency.sample(rng)
                }
            };
            assert!(
                drawn.is_none_or(|d| d == at),
                "push {ordinal}: the seek missed its draw"
            );
            // `Some(blocked)`: resolved here.
            let resolved = if settled {
                Some(false)
            } else {
                // The planner read the receiver's record on its owning world
                // at this barrier, and a stored timestamp only ever falls at
                // a join, so a covered push stores nothing at `at` unless its
                // receiver joins in between.  Both ends of the window count:
                // the world replays a join *at* `t` only after the round, so
                // the planner still saw the pre-join record, and a join *at*
                // `at` is replayed before the push (the transition cursor
                // wins its ties with the queue).
                let plan = self.plan;
                let resolved = (push.covered && !plan.joins_within(push.to, t, at))
                    .then(|| plan.blocks_link(at, push.from, push.to));
                match resolved {
                    Some(true) => self.blocked += 1,
                    Some(false) => self.resolved[push.variable as usize] += 1,
                    None => stages.queued_pushes += 1,
                }
                resolved
            };
            // Debug builds send the resolved pushes too, as uncounted
            // shadows (see `QueuedPush`).
            if resolved.is_some() && !cfg!(debug_assertions) {
                continue;
            }
            let dest = (push.variable % num_shards) as usize;
            batches[dest].pushes.push((
                at,
                QueuedPush {
                    push: push.materialise::<R>(shards),
                    #[cfg(debug_assertions)]
                    resolved,
                },
            ));
        }
        rng.set_word_pos(start + u128::from(planned) * words);
        if let Some(drawn_rng) = drawn_rng {
            assert_eq!(drawn_rng.get_word_pos(), rng.get_word_pos());
        }
        planner
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
    // The fields are public and may be written after `build()`.
    config.validate();
    // A shard count of 0 is read as 1.
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
    let mut worlds = open_worlds(sim, plan, num_shards, byz_behavior);
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
    let mut full_push = FullPush::new(plan, nvars);
    // Post-heal re-convergence accounting, spine-level like the coverage
    // trackers (no-op without partition windows).
    let mut heals = HealTracking::default();

    if let Some(policy) = config.diffusion {
        let mut gossip_rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut trackers: Vec<ConvergenceTracker> = vec![ConvergenceTracker::default(); nvars];
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

            let plan_start = Instant::now();
            rounds += 1;
            let shards = Shards::<_, R>::new(&worlds, config.keyspace.keys);
            let (coverage, correct_servers) = match policy.mode {
                GossipMode::PushAll => full_push.round(
                    &shards,
                    &policy,
                    t,
                    &mut gossip_rng,
                    &mut batches,
                    &mut stages,
                ),
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
    let FullPush {
        resolved: resolved_pushes,
        blocked: resolved_blocked,
        ..
    } = full_push;
    let resolved_delivered: u64 = resolved_pushes.iter().sum();
    report.gossip_pushes += resolved_delivered;
    report.partition_blocked_gossip += resolved_blocked + digests_blocked + deltas_blocked;
    report.membership_events = plan
        .transitions
        .iter()
        .filter(|t| t.kind.is_membership())
        .count() as u64;
    heals.finish_into(&mut report);
    // Spine-level events: transitions (applied per shard but one event
    // each), rounds, digest deliveries, delta deliveries and the push
    // deliveries resolved at planning time.
    report.events_processed += plan.transitions.len() as u64
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

/// One world per shard, each opening the arrival streams of the keys it
/// owns (`variable % num_shards`) and walking `plan`.
fn open_worlds<'a, S: QuorumSystem + ?Sized>(
    sim: &Simulation<'a, S>,
    plan: &'a FailurePlan,
    num_shards: u64,
    byz_behavior: Behavior,
) -> Vec<World<'a, S>> {
    let config = sim.config;
    let workload = WorkloadConfig {
        duration: config.duration,
        arrival_rate: config.arrival_rate,
        read_fraction: config.read_fraction,
        keyspace: config.keyspace,
    };
    let popularity = config.keyspace.popularity();
    (0..num_shards)
        .map(|shard| {
            let keys = (shard..config.keyspace.keys).step_by(num_shards as usize);
            let arrivals = Arrivals::new(&workload, &popularity, config.seed, keys);
            World::new(sim, arrivals, plan, byz_behavior)
        })
        .collect()
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
    use crate::latency::LatencyModel;
    use crate::runner::SimConfig;
    use crate::workload::KeySpace;
    use pqs_core::probabilistic::EpsilonIntersecting;
    use pqs_protocols::cluster::Cluster;
    use pqs_protocols::diffusion::{plan_digest_into, plan_pushes};
    use pqs_protocols::diffusion::{DigestArena, KeySelector};
    use rand::RngCore;

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

    /// The behaviours the planners read at a barrier — and every world
    /// holds — are the plan folded by hand: Byzantine servers from the
    /// start, a server whose first membership change is a join absent
    /// until it joins, then every crash and recovery at or before the
    /// barrier and every join and leave strictly before it.  The barriers
    /// hit each kind's ties exactly.
    #[test]
    fn shards_read_the_plan_folded_up_to_each_barrier() {
        let sys = EpsilonIntersecting::new(36, 9).unwrap();
        let s = ServerId::new;
        let mut plan = FailurePlan::none()
            .with_join(0.5, s(30))
            .with_transition(0.5, s(1), true)
            .with_leave(1.0, s(31))
            .with_transition(1.0, s(2), true)
            .with_transition(1.5, s(1), false)
            .with_join(1.5, s(31))
            .with_crash_wave(2.0, [s(3), s(4)])
            .with_leave(2.0, s(5));
        plan.byzantine = vec![s(6)];
        let keys = 6;
        let config = SimConfig::builder()
            .with_duration(3.0)
            .with_arrival_rate(100.0)
            .with_keyspace(KeySpace::zipf(keys, 1.0))
            .with_num_shards(3)
            .with_seed(7)
            .build();
        let sim = Simulation::new(&sys, ProtocolKind::Safe, config);
        let mut worlds = open_worlds(&sim, &plan, 3, Behavior::ByzantineForge);

        let n = sys.universe().size() as usize;
        for barrier in [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5] {
            drain_all(&mut worlds, Some(barrier), 1);
            let mut expected = vec![Behavior::Correct; n];
            for b in &plan.byzantine {
                expected[b.as_usize()] = Behavior::ByzantineForge;
            }
            let memberships = plan.transitions.iter().filter(|t| t.kind.is_membership());
            let mut seen = vec![false; n];
            for t in memberships {
                let i = t.server.as_usize();
                if !seen[i] && t.kind == TransitionKind::Join {
                    expected[i] = Behavior::Crashed;
                }
                seen[i] = true;
            }
            for t in &plan.transitions {
                let due = match t.kind {
                    TransitionKind::Crash | TransitionKind::Recover => t.at <= barrier,
                    TransitionKind::Join | TransitionKind::Leave => t.at < barrier,
                };
                if due {
                    expected[t.server.as_usize()] = match t.kind {
                        TransitionKind::Crash | TransitionKind::Leave => Behavior::Crashed,
                        TransitionKind::Recover | TransitionKind::Join => Behavior::Correct,
                    };
                }
            }
            let shards = Shards::<_, TaggedValue>::new(&worlds, keys);
            assert_eq!(shards.servers(), n);
            let universe = sys.universe();
            let read: Vec<Behavior> = universe.servers().map(|id| shards.behavior(id)).collect();
            assert_eq!(read, expected, "barrier {barrier}");
            for (shard, world) in worlds.iter().enumerate() {
                let held: Vec<Behavior> = universe
                    .servers()
                    .map(|id| world.cluster.server(id).behavior())
                    .collect();
                assert_eq!(held, expected, "world {shard} at barrier {barrier}");
            }
        }
    }

    /// A round is quiet from just after the last join and from the last
    /// heal on: a join at the barrier itself, or a window still open at it
    /// or yet to open, keeps a round from being quiet.
    #[test]
    fn quiet_rounds_start_after_the_last_join_and_heal() {
        let s = ServerId::new;
        let quiet = |plan: FailurePlan, t: SimTime| FullPush::new(&plan, 0).quiet(t);
        let joins = || {
            FailurePlan::none()
                .with_join(1.0, s(3))
                .with_join(0.5, s(4))
        };
        assert!(!quiet(joins(), 0.75) && !quiet(joins(), 1.0) && quiet(joins(), 1.25));
        let windows = || {
            (FailurePlan::none())
                .with_partition(0.5, 1.0, 2)
                .with_partition(2.0, 3.0, 2)
        };
        for (t, expected) in [(0.75, false), (1.0, false), (1.5, false), (2.5, false)] {
            assert_eq!(quiet(windows(), t), expected, "{t}");
        }
        assert!(quiet(windows(), 3.0) && quiet(windows(), 9.0));
        let leaves = || FailurePlan::none().with_leave(2.0, s(3));
        assert!(quiet(leaves(), 0.25) && quiet(leaves(), 2.0));
        assert!(quiet(FailurePlan::none(), 0.0));
    }

    /// The spine's full-push round — pushes counted inside the planning
    /// loop, the gossip stream seeked past their latencies — diffed against
    /// the round as the spine planned it before: every push outlined first,
    /// then every latency drawn in order and each covered push resolved at
    /// its delivery time.  Four rounds: a quiet one under each of a drawn
    /// and a fixed latency, one inside a partition window that heals while
    /// its pushes are in flight, and one whose flight window holds a
    /// receiver's join.  Compared: the queued pushes (shadows included in
    /// debug builds) and their times, the per-key settled counts, the
    /// blocked count, the push counters and the stream's final position.
    #[test]
    fn a_settled_round_queues_and_counts_what_sampling_every_push_does() {
        type R = TaggedValue;
        let sys = EpsilonIntersecting::new(36, 9).unwrap();
        let s = ServerId::new;
        let (keys, t) = (8, 1.0);
        let exponential = LatencyModel::Exponential { mean: 2e-3 };
        let rounds = [
            ("quiet", FailurePlan::none(), exponential),
            (
                "quiet, fixed",
                FailurePlan::none(),
                LatencyModel::Fixed(1e-3),
            ),
            (
                "partitioned",
                FailurePlan::none().with_partition(0.9, t + 2e-3, 2),
                exponential,
            ),
            (
                "joining",
                FailurePlan::none()
                    .with_leave(0.95, s(5))
                    .with_join(t + 2e-3, s(5)),
                exponential,
            ),
        ];
        for (name, plan, latency) in rounds {
            let policy = DiffusionPolicy::full_push(0.25, 2).with_push_latency(latency);
            let config = SimConfig::builder()
                .with_duration(3.0)
                .with_arrival_rate(200.0)
                .with_keyspace(KeySpace::zipf(keys, 1.0))
                .with_diffusion(policy)
                .with_num_shards(3)
                .with_seed(3)
                .build();
            let sim = Simulation::new(&sys, ProtocolKind::Safe, config);
            let mut worlds = open_worlds(&sim, &plan, 3, Behavior::ByzantineForge);
            drain_all(&mut worlds, Some(t), 1);
            let shards = Shards::<_, R>::new(&worlds, keys);
            let stream = || {
                let mut rng = ChaCha8Rng::seed_from_u64(17);
                rng.next_u32(); // an odd start
                rng
            };

            let mut rng = stream();
            let mut full_push = FullPush::new(&plan, keys as usize);
            let mut batches: Vec<RoundBatch> = (0..3).map(|_| RoundBatch::default()).collect();
            let mut stages = EngineStageTimings::default();
            let planned = full_push.round(&shards, &policy, t, &mut rng, &mut batches, &mut stages);
            #[cfg(debug_assertions)]
            let shadow = |q: &QueuedPush| q.resolved;
            #[cfg(not(debug_assertions))]
            let shadow = |_: &QueuedPush| None;
            let sent: Vec<Vec<_>> = (batches.iter())
                .map(|b| (b.pushes.iter()).map(|(at, q)| (*at, q.push.clone(), shadow(q))))
                .map(Iterator::collect)
                .collect();

            let mut reference = stream();
            let mut outline = Vec::new();
            let expected = plan_pushes::<R, _>(&shards, 2, &mut reference, |p| outline.push(p));
            let mut queued: Vec<Vec<_>> = vec![Vec::new(); 3];
            let (mut resolved, mut blocked) = (vec![0u64; keys as usize], 0);
            let mut joined = 0;
            for push in &outline {
                let at = t + latency.sample(&mut reference);
                let joins = plan.joins_within(push.to, t, at);
                joined += u64::from(push.covered && joins);
                let verdict =
                    (push.covered && !joins).then(|| plan.blocks_link(at, push.from, push.to));
                match verdict {
                    Some(true) => blocked += 1,
                    Some(false) => resolved[push.variable as usize] += 1,
                    None => {}
                }
                if verdict.is_none() || cfg!(debug_assertions) {
                    let shadow = verdict.filter(|_| cfg!(debug_assertions));
                    let message = push.materialise::<R>(&shards);
                    queued[(push.variable % 3) as usize].push((at, message, shadow));
                }
            }

            assert_eq!(planned, expected, "{name}: coverage");
            assert_eq!(sent, queued, "{name}: queued pushes");
            assert_eq!(full_push.resolved, resolved, "{name}: settled per key");
            assert_eq!(full_push.blocked, blocked, "{name}: blocked");
            let unsettled = outline.len() as u64 - resolved.iter().sum::<u64>() - blocked;
            assert_eq!(
                (stages.planned_pushes, stages.queued_pushes),
                (outline.len() as u64, unsettled),
                "{name}: counters"
            );
            assert_eq!(
                rng.get_word_pos(),
                reference.get_word_pos(),
                "{name}: stream"
            );
            assert_eq!(rng.next_u64(), reference.next_u64(), "{name}: stream");
            // Each round exercises what it is named for.
            assert!(resolved.iter().sum::<u64>() > 20, "{name}: {resolved:?}");
            assert_eq!(full_push.quiet(t), name.starts_with("quiet"), "{name}");
            match name {
                "partitioned" => assert!(blocked > 0, "{name}: nothing blocked"),
                "joining" => assert!(joined > 0, "{name}: no covered push to the joiner"),
                _ => {}
            }
        }
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
        let mut worlds = open_worlds(&sim, &plan, 3, Behavior::ByzantineForge);
        drain_all(&mut worlds, Some(2.0), 1);

        let universe = sys.universe();
        let mut merged = Cluster::new(universe);
        for id in universe.servers() {
            merged.set_behavior(id, worlds[0].cluster.server(id).behavior());
        }
        for world in &worlds {
            for id in universe.servers() {
                let src = world.cluster.server(id);
                for var in src.variables::<R>() {
                    merged.server_mut(id).merge(var, &src.stored::<R>(var));
                }
            }
        }
        let shards = Shards::<_, R>::new(&worlds, keys);
        let mut held = 0;
        for id in universe.servers() {
            let vars: Vec<(VariableId, Timestamp)> = merged.server(id).held::<R>().collect();
            assert_eq!(shards.held(id).collect::<Vec<_>>(), vars);
            for v in 0..keys {
                let record = merged.server(id).record::<R>(v);
                assert_eq!(shards.record(id, v), record, "{id:?}, key {v}");
            }
            held += vars.len();
        }
        assert!(held > 3 * keys as usize, "only {held} records held");

        let rng = || ChaCha8Rng::seed_from_u64(9);
        let (mut pushes, mut expected) = (Vec::new(), Vec::new());
        assert_eq!(
            plan_pushes::<R, _>(&shards, 2, &mut rng(), |p| pushes.push(p)),
            plan_pushes::<R, _>(&merged, 2, &mut rng(), |p| expected.push(p)),
        );
        assert_eq!(pushes, expected);
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
