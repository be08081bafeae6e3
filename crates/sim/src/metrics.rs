//! What a simulation run measures: the [`SimReport`] and its per-key
//! breakdown, the engine's wall-clock [`EngineStageTimings`], and the merge
//! that rebuilds one report from the worlds' accumulators and per-op logs
//! in canonical `(time, op)` order — bit-identically for every shard and
//! thread count.

use crate::time::SimTime;
use pqs_math::mc::RunningStats;
use pqs_protocols::server::VariableId;

/// A collection of latency samples supporting percentile queries.
///
/// [`RunningStats`] aggregates on the fly but cannot answer percentile
/// questions; the event engine's tail-latency claims (the whole point of
/// probing `q + margin` servers) need p95/p99, so completed-operation
/// latencies are kept individually.  Sample counts are bounded by the
/// workload size, so memory stays proportional to the run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencySamples {
    samples: Vec<f64>,
}

impl LatencySamples {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency observation (seconds).
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// The `p`-th percentile (nearest-rank on a sorted copy; `p` in
    /// `[0, 100]`).  Returns 0 when empty.  For several quantiles of the
    /// same collection prefer [`percentiles`](Self::percentiles), which
    /// sorts once.
    pub fn percentile(&self, p: f64) -> f64 {
        self.percentiles(&[p])[0]
    }

    /// Several percentiles from a single sort of the samples (0 for every
    /// entry when the collection is empty).
    pub fn percentiles(&self, ps: &[f64]) -> Vec<f64> {
        if self.samples.is_empty() {
            return vec![0.0; ps.len()];
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        ps.iter()
            .map(|p| {
                let p = p.clamp(0.0, 100.0);
                let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
                sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
            })
            .collect()
    }

    /// Median latency.
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// 95th-percentile latency.
    pub fn p95(&self) -> f64 {
        self.percentile(95.0)
    }

    /// 99th-percentile latency — the tail the first-q-of-probed access model
    /// is designed to cut.
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    /// Iterates over the raw samples in recording order.
    pub fn samples_iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().copied()
    }
}

/// Per-variable (per-key) breakdown of one simulation run.
///
/// The sharded workload spreads operations over a
/// [`KeySpace`](crate::workload::KeySpace); each key's consistency, availability
/// and latency is accounted separately so skewed-popularity runs can show
/// where the hot keys sit.  Summing any op-count field over all variables
/// reproduces the corresponding [`SimReport`] aggregate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VariableReport {
    /// The key this row describes.
    pub variable: VariableId,
    /// Reads of this key that completed.
    pub completed_reads: u64,
    /// Writes of this key that completed.
    pub completed_writes: u64,
    /// Stale reads of this key.
    pub stale_reads: u64,
    /// Reads of this key that returned ⊥ despite a completed write.
    pub empty_reads: u64,
    /// Reads of this key that completed before any write of the key had —
    /// nothing exists to be stale against, so they are structurally
    /// ineligible for the staleness accounting.
    pub unwritten_reads: u64,
    /// Operations on this key that failed outright.
    pub unavailable_ops: u64,
    /// Reads of this key concurrent with a write of the same key.
    pub concurrent_reads: u64,
    /// Zero-reply attempts on this key that were resampled.
    pub retries: u64,
    /// Attempts on this key cut short by the per-operation timeout.
    pub timed_out_attempts: u64,
    /// Gossip pushes carrying this key's records that were delivered
    /// (whether or not they freshened the receiver).
    pub gossip_pushes: u64,
    /// Gossip pushes of this key that actually freshened their receiver's
    /// stored record — the effective anti-entropy work done for the key.
    pub gossip_stores: u64,
    /// Records of this key transferred inside digest-mode deltas (a subset
    /// of `gossip_pushes`: every delta record is counted in both, so the
    /// per-key push totals stay comparable across gossip modes).
    pub gossip_delta_records: u64,
    /// Transfers of this key's records that digest mode proved unnecessary:
    /// the digest receiver held the record within the exchange's scope but
    /// the summary showed the digest sender already had it — exactly the
    /// redundant pushes a blind full-push exchange would have made.
    pub gossip_redundant_pushes_avoided: u64,
    /// Summed rounds-to-coverage over this key's coverage events: each time
    /// a fresh record first reaches the coverage target (90% of correct
    /// servers), the number of gossip rounds it took is added here.
    pub coverage_rounds_sum: u64,
    /// Number of records of this key that reached the coverage target.
    pub coverage_events: u64,
    /// Latencies of this key's completed operations (reads and writes).
    pub latency: LatencySamples,
}

impl VariableReport {
    /// Total operations issued against this key (completed + failed).
    pub fn operations(&self) -> u64 {
        self.completed_reads + self.completed_writes + self.unavailable_ops
    }

    /// Fraction of this key's non-concurrent reads that were stale or
    /// empty — the key's empirical ε.
    pub fn stale_read_rate(&self) -> f64 {
        let eligible = self.completed_reads.saturating_sub(self.concurrent_reads);
        if eligible == 0 {
            0.0
        } else {
            (self.stale_reads + self.empty_reads) as f64 / eligible as f64
        }
    }

    /// Mean operation latency on this key in seconds.
    pub fn mean_latency(&self) -> f64 {
        self.latency.mean()
    }

    /// 99th-percentile latency on this key.
    pub fn p99_latency(&self) -> f64 {
        self.latency.p99()
    }

    /// Mean number of gossip rounds it took this key's fresh records to
    /// reach the coverage target (90% of correct servers), or `None` if no
    /// record of this key ever converged (e.g. diffusion was off).  0 means
    /// the foreground write itself already covered the target before the
    /// first round observed it.
    pub fn mean_rounds_to_coverage(&self) -> Option<f64> {
        if self.coverage_events == 0 {
            None
        } else {
            Some(self.coverage_rounds_sum as f64 / self.coverage_events as f64)
        }
    }
}

/// Aggregated results of one simulation run.
///
/// Two reports of the same `SimConfig` + seed compare equal (`PartialEq`):
/// the engine is fully deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// Reads that completed (returned a value or ⊥).
    pub completed_reads: u64,
    /// Writes that completed (stored at at least one server).
    pub completed_writes: u64,
    /// Reads that returned a value older than the latest completed,
    /// non-concurrent write (the Theorem 3.2 / 4.2 / 5.2 failure event).
    pub stale_reads: u64,
    /// Reads that returned ⊥ (no acceptable value) even though a write had
    /// completed.
    pub empty_reads: u64,
    /// Reads that completed before any write of their key had: there is
    /// nothing to be stale against, so they can never count as stale or
    /// empty.  [`stale_read_rate`](Self::stale_read_rate) keeps them in its
    /// denominator (the workload-level rate every validator sweeps);
    /// [`eligible_stale_read_rate`](Self::eligible_stale_read_rate)
    /// excludes them, which is the per-read probability the analytic
    /// bounds — and the capacity planner's prediction contract — speak
    /// about.
    pub unwritten_reads: u64,
    /// Operations that failed because no probed server answered within any
    /// attempt.
    pub unavailable_ops: u64,
    /// Reads that were concurrent with a write (excluded from the staleness
    /// accounting, as in the theorems' hypotheses).
    pub concurrent_reads: u64,
    /// Latency statistics over completed operations (seconds).
    pub latency: RunningStats,
    /// Per-sample latencies of completed reads (for percentiles).
    pub read_latency: LatencySamples,
    /// Per-sample latencies of completed writes (for percentiles).
    pub write_latency: LatencySamples,
    /// Operation attempts that were resampled onto a fresh probe set after
    /// gathering zero replies (timeout-and-resample retries).
    pub retries: u64,
    /// Attempts cut short by the per-operation timeout.
    pub timed_out_attempts: u64,
    /// Write-diffusion rounds the engine scheduled (0 with
    /// [`SimConfig::diffusion`](crate::runner::SimConfig::diffusion) off).
    pub gossip_rounds: u64,
    /// Server-to-server record transfers delivered by gossip: full-push
    /// pushes plus digest-mode delta records — the *push volume* the
    /// adaptive policies exist to cut.
    pub gossip_pushes: u64,
    /// Gossip pushes that freshened their receiver's stored record.
    pub gossip_stores: u64,
    /// Digest messages delivered in digest/delta mode (0 in full-push mode
    /// and with diffusion off).  A digest carries per-key timestamps, not
    /// records, so it is counted separately from the push volume.
    pub gossip_digests: u64,
    /// Record transfers the digests proved unnecessary across all keys —
    /// the redundant share of a blind push exchange that digest mode never
    /// put on the wire.
    pub gossip_redundant_pushes_avoided: u64,
    /// Total discrete events processed by the engine.
    pub events_processed: u64,
    /// Largest number of simultaneously in-flight operations.
    pub max_in_flight: u64,
    /// Time-weighted mean number of in-flight operations.
    pub mean_in_flight: f64,
    /// Per-server access counts.
    pub per_server_accesses: Vec<u64>,
    /// Total quorum operations issued (for load normalisation).
    pub total_operations: u64,
    /// Per-key breakdown, one entry per key of the run's
    /// [`KeySpace`](crate::workload::KeySpace) (index == key id).
    pub per_variable: Vec<VariableReport>,
    /// Probe replies dropped because an active partition window separated
    /// the probed server from the operation's component (0 without a
    /// partition schedule; the dropped probe behaves like a silent server).
    pub dropped_probes: u64,
    /// Gossip messages (pushes, digests, deltas) whose delivery an active
    /// partition window blocked at the component border.
    pub partition_blocked_gossip: u64,
    /// Probe replies on which an adaptive-adversary sleeper's predicate
    /// fired and the reply was answered stale (0 under
    /// [`ByzantineStrategy::Static`](crate::failure::ByzantineStrategy)).
    pub adaptive_activations: u64,
    /// Membership transitions (joins + leaves) the run executed.
    pub membership_events: u64,
    /// Stale + empty reads finalized *during* an active partition window,
    /// bucketed by the component of the read's key (`key % components`);
    /// sized to the largest component count over all windows, empty
    /// without a partition schedule.
    pub per_component_stale_reads: Vec<u64>,
    /// Partition windows whose heal time the gossip spine observed (a
    /// round at or after `heals_at` fired while diffusion was on).
    pub heals_observed: u64,
    /// Summed gossip rounds from each observed heal until every key's
    /// freshest-at-heal record reached the coverage target — the
    /// re-convergence debt a healed partition leaves behind.
    pub post_heal_rounds_to_coverage: u64,
    /// Number of observed heals whose post-heal coverage completed before
    /// the run ended (the denominator for the mean of the sum above).
    pub post_heal_coverage_completions: u64,
    /// For the *first* observed heal: the cumulative number of keys whose
    /// freshest-at-heal record had reached the coverage target, one entry
    /// per gossip round after the heal.  Monotone by construction — the
    /// property tests assert it.
    pub post_heal_coverage: Vec<u64>,
}

impl SimReport {
    /// Fraction of non-concurrent reads that were stale or empty —
    /// the empirical counterpart of ε.
    pub fn stale_read_rate(&self) -> f64 {
        let eligible = self.completed_reads.saturating_sub(self.concurrent_reads);
        if eligible == 0 {
            0.0
        } else {
            (self.stale_reads + self.empty_reads) as f64 / eligible as f64
        }
    }

    /// Fraction of *eligible* reads — non-concurrent reads of keys with at
    /// least one completed predecessor write — that were stale or empty.
    /// This is the empirical counterpart of the analytic per-read ε (the
    /// Lemma 3.15 nonintersection probability): each eligible read is one
    /// Bernoulli trial of "did my quorum miss the latest write's probe
    /// set".  Reads of never-written keys are excluded, since they cannot
    /// miss anything; [`stale_read_rate`](Self::stale_read_rate) keeps
    /// them and therefore dilutes toward 0 on sparse key spaces.
    pub fn eligible_stale_read_rate(&self) -> f64 {
        let eligible = self
            .completed_reads
            .saturating_sub(self.concurrent_reads)
            .saturating_sub(self.unwritten_reads);
        if eligible == 0 {
            0.0
        } else {
            (self.stale_reads + self.empty_reads) as f64 / eligible as f64
        }
    }

    /// Fraction of issued operations that found no live server in their
    /// probe set — the empirical counterpart of the failure probability.
    pub fn unavailability(&self) -> f64 {
        let total = self.completed_reads + self.completed_writes + self.unavailable_ops;
        if total == 0 {
            0.0
        } else {
            self.unavailable_ops as f64 / total as f64
        }
    }

    /// Empirical load: the busiest server's share of all per-server accesses
    /// normalised by the number of quorum operations (Definition 2.4
    /// measured on the wire).
    pub fn empirical_load(&self) -> f64 {
        if self.total_operations == 0 {
            return 0.0;
        }
        let max = self.per_server_accesses.iter().copied().max().unwrap_or(0);
        max as f64 / self.total_operations as f64
    }

    /// Mean operation latency in seconds.
    pub fn mean_latency(&self) -> f64 {
        self.latency.mean()
    }

    /// 99th-percentile latency over all completed operations (reads and
    /// writes merged).
    pub fn p99_latency(&self) -> SimTime {
        let mut merged = LatencySamples::new();
        merged.samples.extend(
            self.read_latency
                .samples_iter()
                .chain(self.write_latency.samples_iter()),
        );
        merged.p99()
    }

    /// Total operations summed over the per-key breakdown; equals
    /// `completed_reads + completed_writes + unavailable_ops` on every run
    /// (the sharded accounting must not lose operations).
    pub fn summed_per_variable_ops(&self) -> u64 {
        self.per_variable.iter().map(|v| v.operations()).sum()
    }

    /// The key that absorbed the most operations (ties broken by lowest
    /// key id); `None` when the run recorded no per-key data.
    pub fn hottest_variable(&self) -> Option<&VariableReport> {
        self.per_variable.iter().max_by(|a, b| {
            a.operations()
                .cmp(&b.operations())
                .then(b.variable.cmp(&a.variable))
        })
    }

    /// Hot-key load imbalance: the busiest key's operation count divided by
    /// the mean per-key operation count (1.0 = perfectly balanced; a
    /// Zipf(1) workload over k keys approaches `k / H_k`).  Returns 0 when
    /// no per-key data was recorded.
    pub fn key_load_imbalance(&self) -> f64 {
        if self.per_variable.is_empty() {
            return 0.0;
        }
        let total = self.summed_per_variable_ops();
        if total == 0 {
            return 0.0;
        }
        let max = self
            .per_variable
            .iter()
            .map(|v| v.operations())
            .max()
            .unwrap_or(0);
        let mean = total as f64 / self.per_variable.len() as f64;
        max as f64 / mean
    }
}

/// Wall-clock breakdown of one engine run by pipeline stage, returned by
/// [`Simulation::run_with_stats`](crate::runner::Simulation::run_with_stats).
///
/// The engine alternates between parallel shard drains and serial spine
/// work at each gossip barrier; the split below is exactly the Amdahl
/// decomposition of a run — `drain` scales with worker threads, everything
/// else is the serial fraction.  Timings live **outside** [`SimReport`] on
/// purpose: reports are compared bit-for-bit across shard/thread counts
/// and wall-clock measurements would break that.
///
/// Without diffusion there is no barrier: the run is one drain between
/// setup and merge, and the spine stages are zero.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStageTimings {
    /// Time spent draining shard event queues (parallel across threads).
    pub drain_seconds: f64,
    /// Time spent synchronising shard records into the spine cluster at
    /// barriers (serial).
    pub sync_seconds: f64,
    /// Time spent planning gossip rounds on the spine — RNG draws, digest
    /// assembly, per-shard bucketing (serial).
    pub plan_seconds: f64,
    /// Time spent bulk-scheduling the planned messages into shard queues
    /// (serial).
    pub route_seconds: f64,
    /// Wall-clock time of the whole run, including setup and the final
    /// merge.
    pub total_seconds: f64,
    /// Full-push messages the spine planned.  Every one is a logical event
    /// of the report, delivered or partition-blocked; zero in digest mode
    /// and without diffusion.
    pub planned_pushes: u64,
    /// The planned pushes that went through a shard queue.  The rest were
    /// *covered* — receiver already as fresh at planning time — and were
    /// counted on the spine without being sent (see
    /// `docs/ARCHITECTURE.md`, "Plan-time resolution of covered pushes").
    pub queued_pushes: u64,
}

impl EngineStageTimings {
    /// Total serial (spine) time: sync + plan + route.
    pub fn spine_seconds(&self) -> f64 {
        self.sync_seconds + self.plan_seconds + self.route_seconds
    }

    /// Serial fraction of the run: spine time over total wall time (0 for
    /// an instantaneous or diffusion-free run).
    pub fn spine_fraction(&self) -> f64 {
        if self.total_seconds > 0.0 {
            self.spine_seconds() / self.total_seconds
        } else {
            0.0
        }
    }
}

/// How an owned operation left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpOutcome {
    /// Still in flight (every operation ends before its world is merged:
    /// each attempt arms a timeout).
    Pending,
    /// Completed as a read.
    Read,
    /// Completed as a write.
    Write,
    /// Gave up: no probed server answered within any attempt.
    Unavailable,
}

/// The one per-operation log entry a world keeps, preallocated for every
/// op it owns: when the op entered the system, when it left and how.
///
/// Latency aggregates ([`SimReport::latency`], the read/write percentile
/// collections) and the in-flight gauge are order-sensitive —
/// floating-point accumulation and the `PartialEq` on raw sample vectors
/// both depend on insertion order — so worlds only log, and the merge
/// replays the union in canonical `(time, op)` orders no shard or thread
/// count can perturb.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OpRecord {
    /// The operation's global workload index (the canonical tie-breaker).
    pub(crate) op: u64,
    /// Arrival time.
    pub(crate) start: SimTime,
    /// Completion or give-up time (meaningless while `Pending`).
    pub(crate) end: SimTime,
    /// How the operation ended.
    pub(crate) outcome: OpOutcome,
}

impl OpRecord {
    /// Closes the record at `end`.
    pub(crate) fn finish(&mut self, end: SimTime, outcome: OpOutcome) {
        self.end = end;
        self.outcome = outcome;
    }
}

/// Everything one world accumulates: its partial report (order-free
/// counters plus the per-variable rows it owns), the per-op log for
/// canonical replay, and the count of logical events it processed.
#[derive(Debug, Default)]
pub(crate) struct ShardAccumulator {
    /// Counters and the owned per-variable rows.  Order-sensitive
    /// aggregates (latency stats, the in-flight gauge) are left at their
    /// defaults here and reconstructed by [`merge_shard_reports`].
    pub(crate) report: SimReport,
    /// One record per owned op, in arrival order.
    pub(crate) ops: Vec<OpRecord>,
    /// Logical events this world processed (arrivals, probe replies,
    /// timeouts, retries, gossip pushes — the event classes whose count is
    /// shard-count-independent; spine-level events are counted by the
    /// spine).
    pub(crate) logical_events: u64,
}

/// Merges per-world accumulators into one [`SimReport`], bit-identically
/// for any shard count ≥ 1 and any thread count:
///
/// * `u64` counters, per-server access counts and logical event counts sum
///   (addition is order-free);
/// * per-variable rows are taken verbatim from their owning world
///   (`variable % num_shards` — ownership is total and disjoint);
/// * latency aggregates are replayed from the union of op logs in
///   `(end, op)` order with `latency = end − start`, so the floating-point
///   accumulation order is canonical;
/// * the in-flight gauge is rebuilt by an area walk over every op's
///   entering and leaving transition in `(time, op, start-before-end)`
///   order — a time-weighted mean over the span in which operations
///   existed.
///
/// Spine-level quantities (gossip rounds/digests, coverage accounting,
/// spine event counts) are not known here; the caller adds them onto the
/// merged report afterwards.
pub(crate) fn merge_shard_reports(shards: Vec<ShardAccumulator>) -> SimReport {
    let num_shards = shards.len();
    let mut merged = SimReport::default();
    for acc in &shards {
        let r = &acc.report;
        merged.completed_reads += r.completed_reads;
        merged.completed_writes += r.completed_writes;
        merged.stale_reads += r.stale_reads;
        merged.empty_reads += r.empty_reads;
        merged.unwritten_reads += r.unwritten_reads;
        merged.unavailable_ops += r.unavailable_ops;
        merged.concurrent_reads += r.concurrent_reads;
        merged.retries += r.retries;
        merged.timed_out_attempts += r.timed_out_attempts;
        merged.gossip_pushes += r.gossip_pushes;
        merged.gossip_stores += r.gossip_stores;
        merged.gossip_redundant_pushes_avoided += r.gossip_redundant_pushes_avoided;
        merged.dropped_probes += r.dropped_probes;
        merged.partition_blocked_gossip += r.partition_blocked_gossip;
        merged.adaptive_activations += r.adaptive_activations;
        merged.events_processed += acc.logical_events;
        merged.total_operations += r.total_operations;
        if merged.per_component_stale_reads.len() < r.per_component_stale_reads.len() {
            merged
                .per_component_stale_reads
                .resize(r.per_component_stale_reads.len(), 0);
        }
        for (m, s) in merged
            .per_component_stale_reads
            .iter_mut()
            .zip(&r.per_component_stale_reads)
        {
            *m += s;
        }
        if merged.per_server_accesses.is_empty() {
            merged.per_server_accesses = vec![0; r.per_server_accesses.len()];
        }
        for (m, s) in merged
            .per_server_accesses
            .iter_mut()
            .zip(&r.per_server_accesses)
        {
            *m += s;
        }
    }
    let nvars = shards
        .first()
        .map(|a| a.report.per_variable.len())
        .unwrap_or(0);
    merged.per_variable = (0..nvars)
        .map(|v| shards[v % num_shards].report.per_variable[v].clone())
        .collect();

    let mut by_end: Vec<OpRecord> = Vec::new();
    for mut acc in shards {
        by_end.append(&mut acc.ops);
    }
    let mut starts: Vec<(SimTime, u64)> = by_end.iter().map(|r| (r.start, r.op)).collect();
    starts.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    by_end.retain(|r| r.outcome != OpOutcome::Pending);
    by_end.sort_unstable_by(|a, b| a.end.total_cmp(&b.end).then(a.op.cmp(&b.op)));
    for r in &by_end {
        let samples = match r.outcome {
            OpOutcome::Read => &mut merged.read_latency,
            OpOutcome::Write => &mut merged.write_latency,
            OpOutcome::Unavailable | OpOutcome::Pending => continue,
        };
        let latency = r.end - r.start;
        merged.latency.record(latency);
        samples.record(latency);
    }
    // The gauge walk merges the two sorted transition streams.  At equal
    // (time, op) the entering transition goes first: an operation that
    // completes with zero latency still registers.
    let mut ends = by_end.iter().map(|r| (r.end, r.op)).peekable();
    let mut starts = starts.into_iter().peekable();
    let mut in_flight: u64 = 0;
    let mut area = 0.0;
    let mut prev = 0.0;
    let mut busy_until = 0.0;
    loop {
        let entering = match (starts.peek(), ends.peek()) {
            (Some(s), Some(e)) => s.0.total_cmp(&e.0).then(s.1.cmp(&e.1)).is_le(),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        let (time, _) = if entering { starts.next() } else { ends.next() }
            .expect("the peeked transition exists");
        if time > prev {
            area += in_flight as f64 * (time - prev);
            prev = time;
        }
        if entering {
            in_flight += 1;
            merged.max_in_flight = merged.max_in_flight.max(in_flight);
        } else {
            in_flight = in_flight.saturating_sub(1);
        }
        busy_until = time;
    }
    merged.mean_in_flight = if busy_until <= 0.0 {
        0.0
    } else {
        area / busy_until
    };
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_with_no_operations_are_zero() {
        let r = SimReport::default();
        assert_eq!(r.stale_read_rate(), 0.0);
        assert_eq!(r.unavailability(), 0.0);
        assert_eq!(r.empirical_load(), 0.0);
        assert_eq!(r.mean_latency(), 0.0);
        assert_eq!(r.p99_latency(), 0.0);
    }

    #[test]
    fn rates_compute_from_counts() {
        let mut r = SimReport {
            completed_reads: 100,
            completed_writes: 50,
            stale_reads: 3,
            empty_reads: 1,
            unavailable_ops: 10,
            concurrent_reads: 20,
            total_operations: 150,
            per_server_accesses: vec![10, 30, 20],
            ..SimReport::default()
        };
        r.latency.record(0.1);
        r.latency.record(0.3);
        assert!((r.stale_read_rate() - 4.0 / 80.0).abs() < 1e-12);
        assert!((r.unavailability() - 10.0 / 160.0).abs() < 1e-12);
        assert!((r.empirical_load() - 30.0 / 150.0).abs() < 1e-12);
        assert!((r.mean_latency() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn latency_samples_percentiles() {
        let mut s = LatencySamples::new();
        assert!(s.is_empty());
        assert_eq!(s.percentile(99.0), 0.0);
        for i in 1..=100 {
            s.record(i as f64);
        }
        assert_eq!(s.count(), 100);
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.p95(), 95.0);
        assert_eq!(s.p99(), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.max(), 100.0);
        assert!((s.mean() - 50.5).abs() < 1e-12);
        // Batch form agrees with single calls and sorts only once.
        assert_eq!(s.percentiles(&[50.0, 95.0, 99.0]), vec![50.0, 95.0, 99.0]);
        assert_eq!(
            LatencySamples::new().percentiles(&[50.0, 99.0]),
            vec![0.0, 0.0]
        );
    }

    #[test]
    fn p99_latency_merges_read_and_write_samples() {
        let mut r = SimReport::default();
        for i in 1..=99 {
            r.read_latency.record(i as f64 / 1000.0);
        }
        r.write_latency.record(1.0);
        assert!((r.p99_latency() - 0.099).abs() < 1e-12);
    }

    #[test]
    fn per_variable_breakdown_helpers() {
        let mut r = SimReport::default();
        assert_eq!(r.summed_per_variable_ops(), 0);
        assert!(r.hottest_variable().is_none());
        assert_eq!(r.key_load_imbalance(), 0.0);
        for (i, ops) in [(0u64, 60u64), (1, 30), (2, 10)] {
            let mut v = VariableReport {
                variable: i,
                completed_reads: ops - 2,
                completed_writes: 1,
                unavailable_ops: 1,
                ..VariableReport::default()
            };
            v.latency.record(0.001 * (i + 1) as f64);
            r.per_variable.push(v);
        }
        assert_eq!(r.summed_per_variable_ops(), 100);
        let hot = r.hottest_variable().unwrap();
        assert_eq!(hot.variable, 0);
        assert_eq!(hot.operations(), 60);
        // max 60 over mean 100/3.
        assert!((r.key_load_imbalance() - 60.0 / (100.0 / 3.0)).abs() < 1e-12);
        assert!((hot.mean_latency() - 0.001).abs() < 1e-12);
        assert_eq!(hot.p99_latency(), 0.001);
    }

    #[test]
    fn rounds_to_coverage_is_a_mean_over_coverage_events() {
        let mut v = VariableReport::default();
        assert_eq!(v.mean_rounds_to_coverage(), None);
        v.coverage_rounds_sum = 7;
        v.coverage_events = 2;
        assert_eq!(v.mean_rounds_to_coverage(), Some(3.5));
        // Covered instantly by the foreground write: a genuine 0.
        let instant = VariableReport {
            coverage_events: 4,
            ..VariableReport::default()
        };
        assert_eq!(instant.mean_rounds_to_coverage(), Some(0.0));
    }

    #[test]
    fn variable_report_stale_rate() {
        let v = VariableReport {
            variable: 3,
            completed_reads: 50,
            concurrent_reads: 10,
            stale_reads: 3,
            empty_reads: 1,
            ..VariableReport::default()
        };
        assert!((v.stale_read_rate() - 0.1).abs() < 1e-12);
        assert_eq!(VariableReport::default().stale_read_rate(), 0.0);
    }

    #[test]
    fn merge_replays_completions_canonically_and_sums_counters() {
        // Two shards log the same global history split two ways; the merge
        // must be identical either way and independent of per-shard order.
        let make = |rows: &[(f64, u64, OpOutcome, f64)], reads: u64, accesses: Vec<u64>| {
            let mut acc = ShardAccumulator {
                logical_events: 10,
                ..ShardAccumulator::default()
            };
            acc.report.completed_reads = reads;
            acc.report.per_server_accesses = accesses;
            acc.report.per_variable = vec![VariableReport::default(); 2];
            for &(end, op, outcome, latency) in rows {
                acc.ops.push(OpRecord {
                    op,
                    start: end - latency,
                    end,
                    outcome,
                });
            }
            acc
        };
        // Op 3 gave up: it moves the gauge but records no latency.
        let first = [
            (1.0, 0, OpOutcome::Read, 0.5),
            (3.0, 2, OpOutcome::Read, 0.125),
        ];
        let second = [
            (2.0, 1, OpOutcome::Write, 0.25),
            (2.5, 3, OpOutcome::Unavailable, 1.0),
        ];
        let a = merge_shard_reports(vec![
            make(&first, 2, vec![1, 0]),
            make(&second, 0, vec![0, 2]),
        ]);
        let b = merge_shard_reports(vec![
            make(&second, 0, vec![0, 2]),
            make(&first, 2, vec![1, 0]),
        ]);
        assert_eq!(a.completed_reads, 2);
        assert_eq!(a.events_processed, 20);
        assert_eq!(a.per_server_accesses, vec![1, 2]);
        assert_eq!(a.read_latency.count(), 2);
        assert_eq!(a.write_latency.count(), 1);
        assert!((a.mean_latency() - (0.5 + 0.25 + 0.125) / 3.0).abs() < 1e-15);
        // Replayed in completion order, not in log order.
        assert_eq!(
            a.read_latency.samples_iter().collect::<Vec<_>>(),
            vec![0.5, 0.125]
        );
        // Canonical replay: identical regardless of which shard held what.
        assert_eq!(a, b);
    }

    #[test]
    fn merge_walks_the_in_flight_gauge_like_the_sequential_engine() {
        // Ops: #1 in flight over [1, 4), #2 over [2, 4): area 5 over busy
        // time 4.  #0 enters and leaves at t = 0.5; were its leave walked
        // before its enter, the gauge would stay one too high for good.
        let mut shards = vec![ShardAccumulator::default(), ShardAccumulator::default()];
        for (shard, op, start, end) in [(0, 0u64, 0.5, 0.5), (1, 1, 1.0, 4.0), (0, 2, 2.0, 4.0)] {
            shards[shard].ops.push(OpRecord {
                op,
                start,
                end,
                outcome: OpOutcome::Read,
            });
        }
        let merged = merge_shard_reports(shards);
        assert_eq!(merged.max_in_flight, 2);
        assert!((merged.mean_in_flight - 5.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn merge_takes_per_variable_rows_from_their_owning_shard() {
        let mut shard0 = ShardAccumulator::default();
        let mut shard1 = ShardAccumulator::default();
        for acc in [&mut shard0, &mut shard1] {
            acc.report.per_variable = (0..4)
                .map(|v| VariableReport {
                    variable: v,
                    ..VariableReport::default()
                })
                .collect();
        }
        // Shard 0 owns even keys, shard 1 odd keys.
        shard0.report.per_variable[2].completed_reads = 7;
        shard1.report.per_variable[3].completed_writes = 5;
        let merged = merge_shard_reports(vec![shard0, shard1]);
        assert_eq!(merged.per_variable.len(), 4);
        assert_eq!(merged.per_variable[2].completed_reads, 7);
        assert_eq!(merged.per_variable[3].completed_writes, 5);
        assert_eq!(merged.per_variable[0].completed_reads, 0);
    }

    #[test]
    fn reports_compare_equal_field_by_field() {
        let mut a = SimReport::default();
        let mut b = SimReport::default();
        a.latency.record(0.5);
        b.latency.record(0.5);
        a.read_latency.record(0.5);
        b.read_latency.record(0.5);
        assert_eq!(a, b);
        b.read_latency.record(0.6);
        assert_ne!(a, b);
    }
}
