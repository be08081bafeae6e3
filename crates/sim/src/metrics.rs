//! What a simulation run measures: the [`SimReport`] and its per-key
//! breakdown, the log-bucketed [`LatencySamples`] histogram, the engine's
//! wall-clock [`EngineStageTimings`], and the merge that rebuilds one
//! report from the worlds' accumulators — bit-identically for every shard
//! and thread count, because every aggregate is a sum or an extremum:
//! counters, histogram buckets, latency moments and time in the system in
//! integer fixed point.  Nothing here keeps a record per operation, so a
//! run's metrics take the same memory however long it runs.

use crate::time::SimTime;
use pqs_protocols::server::VariableId;

/// Relative error of every [`LatencySamples`] quantile: the reported value
/// lies within `α · x` of the exact nearest-rank sample `x`.
pub const LATENCY_RELATIVE_ERROR: f64 = 0.005;

/// The bucket growth factor `γ = (1 + α) / (1 − α)`: bucket `i` holds the
/// samples in `(γ^(i−1), γ^i]`.
const GAMMA: f64 = (1.0 + LATENCY_RELATIVE_ERROR) / (1.0 - LATENCY_RELATIVE_ERROR);

/// `ln γ`, written out because `f64::ln` is not `const`; a unit test pins
/// it to `GAMMA.ln()`.
const LN_GAMMA: f64 = 0.010_000_083_334_583_179;

/// The bucket index of the non-positive samples, which report as 0.
const ZERO_BUCKET: i32 = i32::MIN;

/// Units per simulated second of the fixed-point latency sums: integer
/// sums are exact, so they come out the same in any order of addition.
const FIXED_PER_SECOND: f64 = (1u64 << 32) as f64;

/// `x` seconds in fixed point (`2⁻³²` s units; negative or NaN becomes 0,
/// beyond `2³²` s saturates).
pub(crate) fn fixed_point(x: SimTime) -> u64 {
    (x * FIXED_PER_SECOND).round() as u64
}

/// A fixed-point sum back in seconds.
pub(crate) fn from_fixed_point(sum: u128) -> f64 {
    sum as f64 / FIXED_PER_SECOND
}

/// A log-bucketed latency histogram with a fixed relative quantile error —
/// the DDSketch construction (Masson et al., VLDB 2019).
///
/// [`record`](Self::record) puts a sample into bucket
/// `⌈log_γ x⌉` with `γ = (1 + α) / (1 − α)` and
/// `α =` [`LATENCY_RELATIVE_ERROR`]; a quantile walks the buckets to the
/// nearest rank and reports its bucket's centre `2γ^i / (γ + 1)`, which
/// lies within `α · x` of every sample `x` of the bucket.  Beside the
/// bucket counts the histogram keeps the exact count, minimum and maximum,
/// and the sum and sum of squares in integer fixed point (`2⁻³²` s), so
/// the mean is exact to `2⁻³³` s and no statistic depends on the order the
/// samples came in: two histograms of the same samples are equal, and
/// [`merge`](Self::merge) is a sum.  Storage is sparse — one
/// `(bucket, count)` pair per occupied bucket — so memory follows the
/// spread of the latencies, not the number of operations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencySamples {
    /// `(bucket index, samples)` of the occupied buckets, by index.
    buckets: Vec<(i32, u64)>,
    count: u64,
    /// Sum of the samples in fixed point.
    sum: u128,
    /// Sum of the squared fixed-point samples.
    sum_squares: u128,
    min: f64,
    max: f64,
}

/// The bucket `x` falls in.
fn bucket_of(x: f64) -> i32 {
    if x > 0.0 {
        // Saturates at the ends: `+∞` lands in the top bucket.
        (x.ln() / LN_GAMMA).ceil() as i32
    } else {
        ZERO_BUCKET
    }
}

/// The value bucket `i` reports: its centre, within `α` of every sample in
/// it.
fn bucket_value(i: i32) -> f64 {
    if i == ZERO_BUCKET {
        0.0
    } else {
        2.0 * (f64::from(i) * LN_GAMMA).exp() / (GAMMA + 1.0)
    }
}

impl LatencySamples {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency observation (seconds).
    pub fn record(&mut self, x: f64) {
        self.add(bucket_of(x), 1);
        if self.count == 0 {
            (self.min, self.max) = (x, x);
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        let fixed = u128::from(fixed_point(x));
        self.sum += fixed;
        self.sum_squares = self.sum_squares.saturating_add(fixed * fixed);
    }

    /// Adds `n` samples to bucket `bucket`.
    fn add(&mut self, bucket: i32, n: u64) {
        match self.buckets.binary_search_by_key(&bucket, |&(i, _)| i) {
            Ok(at) => self.buckets[at].1 += n,
            Err(at) => self.buckets.insert(at, (bucket, n)),
        }
    }

    /// Adds every sample of `other`: the histogram of both sample sets,
    /// whichever order they are merged in.
    pub fn merge(&mut self, other: &LatencySamples) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.clone_from(other);
            return;
        }
        for &(bucket, n) in &other.buckets {
            self.add(bucket, n);
        }
        self.count += other.count;
        self.sum += other.sum;
        self.sum_squares = self.sum_squares.saturating_add(other.sum_squares);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the samples (0 when empty), from the fixed-point sum.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            from_fixed_point(self.sum) / self.count as f64
        }
    }

    /// Unbiased sample variance (0 for fewer than two samples), from the
    /// fixed-point sums.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = self.count as f64;
        let (sum, squares) = (self.sum as f64, self.sum_squares as f64);
        ((squares - sum * sum / n) / (n - 1.0)).max(0.0) / (FIXED_PER_SECOND * FIXED_PER_SECOND)
    }

    /// Largest sample, exact (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The `p`-th percentile (nearest rank, `p` in `[0, 100]`), within
    /// [`LATENCY_RELATIVE_ERROR`] of the exact nearest-rank sample; the
    /// lowest and highest ranks report the exact minimum and maximum.
    /// Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = (((p / 100.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == 1 {
            return self.min;
        }
        if rank == self.count {
            return self.max;
        }
        let mut seen = 0;
        for &(bucket, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_value(bucket).clamp(self.min, self.max);
            }
        }
        unreachable!("the bucket counts sum to the sample count")
    }

    /// Several percentiles at once (0 for every entry when empty).
    pub fn percentiles(&self, ps: &[f64]) -> Vec<f64> {
        ps.iter().map(|&p| self.percentile(p)).collect()
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
    /// Latencies of completed reads (seconds): a histogram with exact
    /// count, mean and maximum and quantiles within
    /// [`LATENCY_RELATIVE_ERROR`].
    pub read_latency: LatencySamples,
    /// Latencies of completed writes (seconds), likewise.
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
    /// Time-weighted mean number of in-flight operations: the fixed-point
    /// sum of every operation's time in the system over the time the last
    /// one left.
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

    /// Latencies of every completed operation: the read and write
    /// histograms merged.
    fn all_latency(&self) -> LatencySamples {
        let mut all = self.read_latency.clone();
        all.merge(&self.write_latency);
        all
    }

    /// Mean operation latency in seconds, over reads and writes.
    pub fn mean_latency(&self) -> f64 {
        self.all_latency().mean()
    }

    /// 99th-percentile latency over all completed operations (reads and
    /// writes merged), within [`LATENCY_RELATIVE_ERROR`].
    pub fn p99_latency(&self) -> SimTime {
        self.all_latency().p99()
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
    /// Always 0: the spine keeps no copy of the shards' records or
    /// behaviours, so there is nothing left to bring in step at a barrier.
    /// The field stays only because the repo benchmark reads it.
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
    /// Total serial (spine) time: plan + route.
    fn spine_seconds(&self) -> f64 {
        self.plan_seconds + self.route_seconds
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

/// Everything one world accumulates, all of it order-free: its partial
/// report (counters, latency histograms and the per-variable rows it
/// owns), the fixed-point time its operations spent in the system, and
/// the count of logical events it processed.
#[derive(Debug, Default)]
pub(crate) struct ShardAccumulator {
    /// Counters, histograms and the owned per-variable rows.  The per-key
    /// outcome totals are counted in the rows only, and the in-flight
    /// gauge is left at its default here; [`merge_shard_reports`] sums the
    /// one and the spine's [`InFlightGauge`] walks the other.
    pub(crate) report: SimReport,
    /// Summed time in the system of every operation that left it, given up
    /// ones included, in fixed point.
    pub(crate) op_time: u128,
    /// When the last of this world's operations left the system.
    pub(crate) busy_until: SimTime,
    /// Logical events this world processed (arrivals, probe replies,
    /// timeouts, retries, gossip pushes — the event classes whose count is
    /// shard-count-independent; spine-level events are counted by the
    /// spine).
    pub(crate) logical_events: u64,
}

/// The in-flight gauge's maximum, exact for any layout: the spine feeds it
/// each drain window's start and end transitions from every world, and it
/// walks their union in time order.  Each world records its transitions in
/// time order within a window, and windows follow one another in time, so
/// the walk sees every transition of the run in time order while holding
/// only one window's.
#[derive(Debug, Default)]
pub(crate) struct InFlightGauge {
    starts: Vec<SimTime>,
    ends: Vec<SimTime>,
    in_flight: u64,
    max: u64,
}

impl InFlightGauge {
    /// Walks one window: every world's `(starts, ends)` transitions since
    /// the last window, which it clears.  At equal times the entering
    /// transitions go first, so an operation that leaves the instant it
    /// arrives still registers.
    pub(crate) fn window<'w>(
        &mut self,
        transitions: impl IntoIterator<Item = (&'w mut Vec<SimTime>, &'w mut Vec<SimTime>)>,
    ) {
        for (starts, ends) in transitions {
            self.starts.append(starts);
            self.ends.append(ends);
        }
        // Each world's transitions are already sorted: the sort merges
        // the runs.
        self.starts.sort_by(f64::total_cmp);
        self.ends.sort_by(f64::total_cmp);
        let mut ends = self.ends.iter().peekable();
        for &start in &self.starts {
            while ends.next_if(|&&end| end < start).is_some() {
                self.in_flight -= 1;
            }
            self.in_flight += 1;
            self.max = self.max.max(self.in_flight);
        }
        self.in_flight -= ends.count() as u64;
        self.starts.clear();
        self.ends.clear();
    }

    /// The largest number of operations in flight at once.
    pub(crate) fn max(&self) -> u64 {
        self.max
    }
}

/// Merges per-world accumulators into one [`SimReport`], bit-identically
/// for any shard count ≥ 1 and any thread count, because every quantity
/// is a sum or an extremum, whose value does not depend on the order of
/// its terms:
///
/// * per-variable rows are taken verbatim from their owning world
///   (`variable % num_shards` — ownership is total and disjoint), and each
///   per-key outcome total (completed, stale, empty and unwritten reads,
///   completed writes, unavailable ops, concurrent reads, retries,
///   timeouts, gossip pushes, stores and avoided pushes) is the sum of its
///   rows — a world counts each outcome once, in its key's row;
/// * the other `u64` counters, per-server access counts and logical event
///   counts sum over the worlds;
/// * the read and write latency histograms merge, which sums their bucket
///   counts and fixed-point moments;
/// * the mean in flight is the summed fixed-point time operations spent in
///   the system over the time the last one left.
///
/// The maximum in flight comes from the spine's [`InFlightGauge`], and the
/// spine-level quantities (gossip rounds/digests, coverage accounting,
/// spine event counts) are not known here; the caller adds them onto the
/// merged report afterwards.
pub(crate) fn merge_shard_reports(shards: Vec<ShardAccumulator>) -> SimReport {
    let num_shards = shards.len();
    let mut merged = SimReport::default();
    let mut op_time: u128 = 0;
    let mut busy_until: SimTime = 0.0;
    for acc in &shards {
        let r = &acc.report;
        merged.dropped_probes += r.dropped_probes;
        merged.partition_blocked_gossip += r.partition_blocked_gossip;
        merged.adaptive_activations += r.adaptive_activations;
        merged.events_processed += acc.logical_events;
        merged.total_operations += r.total_operations;
        merged.read_latency.merge(&r.read_latency);
        merged.write_latency.merge(&r.write_latency);
        op_time += acc.op_time;
        busy_until = busy_until.max(acc.busy_until);
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
    for row in &merged.per_variable {
        merged.completed_reads += row.completed_reads;
        merged.completed_writes += row.completed_writes;
        merged.stale_reads += row.stale_reads;
        merged.empty_reads += row.empty_reads;
        merged.unwritten_reads += row.unwritten_reads;
        merged.unavailable_ops += row.unavailable_ops;
        merged.concurrent_reads += row.concurrent_reads;
        merged.retries += row.retries;
        merged.timed_out_attempts += row.timed_out_attempts;
        merged.gossip_pushes += row.gossip_pushes;
        merged.gossip_stores += row.gossip_stores;
        merged.gossip_redundant_pushes_avoided += row.gossip_redundant_pushes_avoided;
    }
    merged.mean_in_flight = if busy_until <= 0.0 {
        0.0
    } else {
        from_fixed_point(op_time) / busy_until
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
        // Binary fractions: exact in the fixed-point sums.
        r.read_latency.record(0.125);
        r.write_latency.record(0.375);
        assert!((r.stale_read_rate() - 4.0 / 80.0).abs() < 1e-12);
        assert!((r.unavailability() - 10.0 / 160.0).abs() < 1e-12);
        assert!((r.empirical_load() - 30.0 / 150.0).abs() < 1e-12);
        assert_eq!(r.mean_latency(), 0.25);
    }

    /// Whether `got` is within the histogram's relative error of `exact`.
    fn within_alpha(got: f64, exact: f64) -> bool {
        (got - exact).abs() <= LATENCY_RELATIVE_ERROR * exact * (1.0 + 1e-9)
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
        for (p, exact) in [(50.0, 50.0), (95.0, 95.0), (99.0, 99.0)] {
            assert!(within_alpha(s.percentile(p), exact), "p{p}");
        }
        // The extreme ranks are the exact extremes.
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.max(), 100.0);
        // Integers are exact in the fixed-point sums.
        assert_eq!(s.mean(), 50.5);
        assert!((s.variance() - 841.666_666_666_666_6).abs() < 1e-9);
        // Batch form agrees with single calls.
        assert_eq!(
            s.percentiles(&[50.0, 95.0, 99.0]),
            vec![s.p50(), s.p95(), s.p99()]
        );
        assert_eq!(
            LatencySamples::new().percentiles(&[50.0, 99.0]),
            vec![0.0, 0.0]
        );
    }

    #[test]
    fn the_bucket_constants_agree() {
        assert_eq!(LN_GAMMA, GAMMA.ln());
        // A bucket's centre is within α of both of its edges.
        for i in [-2000, -1, 1, 700] {
            let (lo, hi) = (
                (f64::from(i - 1) * LN_GAMMA).exp(),
                (f64::from(i) * LN_GAMMA).exp(),
            );
            let centre = bucket_value(i);
            assert!(
                within_alpha(centre, lo) && within_alpha(centre, hi),
                "bucket {i}"
            );
            assert_eq!(bucket_of(centre), i);
        }
        // Non-positive samples report as 0; they count like any other.
        let mut s = LatencySamples::new();
        for x in [0.0, 0.0, 2.0] {
            s.record(x);
        }
        assert_eq!((s.p50(), s.max(), s.count()), (0.0, 2.0, 3));
    }

    #[test]
    fn p99_latency_merges_read_and_write_samples() {
        let mut r = SimReport::default();
        for i in 1..=99 {
            r.read_latency.record(i as f64 / 1000.0);
        }
        r.write_latency.record(1.0);
        assert!(within_alpha(r.p99_latency(), 0.099));
        assert_eq!(r.read_latency.max(), 0.099);
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
        assert!((hot.mean_latency() - 0.001).abs() < 1e-9);
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
    fn merge_sums_counters_and_histograms_in_any_order() {
        // Two shards hold the same global history split two ways; the merge
        // must be identical either way and independent of shard order.
        // Each shard's row of its own key counts one completed read.
        let make = |reads: &[f64], writes: &[f64], accesses: Vec<u64>, end: f64| {
            let mut acc = ShardAccumulator {
                logical_events: 10,
                op_time: u128::from(fixed_point(1.0)),
                busy_until: end,
                ..ShardAccumulator::default()
            };
            acc.report.per_server_accesses = accesses;
            let read_once = VariableReport {
                completed_reads: 1,
                ..VariableReport::default()
            };
            acc.report.per_variable = vec![read_once; 2];
            for &x in reads {
                acc.report.read_latency.record(x);
            }
            for &x in writes {
                acc.report.write_latency.record(x);
            }
            acc
        };
        let first = || make(&[0.5, 0.125], &[], vec![1, 0], 3.0);
        let second = || make(&[], &[0.25], vec![0, 2], 2.5);
        let a = merge_shard_reports(vec![first(), second()]);
        let b = merge_shard_reports(vec![second(), first()]);
        assert_eq!(a.completed_reads, 2);
        assert_eq!(a.events_processed, 20);
        assert_eq!(a.per_server_accesses, vec![1, 2]);
        assert_eq!(a.read_latency.count(), 2);
        assert_eq!(a.write_latency.count(), 1);
        assert_eq!(a.mean_latency(), (0.5 + 0.25 + 0.125) / 3.0);
        // Two seconds in the system over the three until the last left.
        assert_eq!(a.mean_in_flight, 2.0 / 3.0);
        // Order-free: identical regardless of which shard held what.
        assert_eq!(a, b);
        let mut both = LatencySamples::new();
        for x in [0.125, 0.5] {
            both.record(x);
        }
        assert_eq!(a.read_latency, both);
    }

    #[test]
    fn merge_walks_the_in_flight_gauge_like_the_sequential_engine() {
        // Ops: #1 in flight over [1, 4), #2 over [2, 4).  #0 enters and
        // leaves at t = 0.5; were its leave walked before its enter, the
        // gauge would stay one too high for good.  The windows split the
        // run at 1.5 and at 3, and #1's and #2's starts come from two
        // worlds.
        let mut gauge = InFlightGauge::default();
        let world = |starts: &[f64], ends: &[f64]| (starts.to_vec(), ends.to_vec());
        let (mut a, mut b) = (world(&[0.5, 1.0], &[0.5]), world(&[], &[]));
        gauge.window([(&mut a.0, &mut a.1), (&mut b.0, &mut b.1)]);
        assert!(
            a.0.is_empty() && a.1.is_empty(),
            "a window clears its buffers"
        );
        assert_eq!(gauge.max(), 1);
        let (mut a, mut b) = (world(&[], &[]), world(&[2.0], &[]));
        gauge.window([(&mut a.0, &mut a.1), (&mut b.0, &mut b.1)]);
        let (mut a, mut b) = (world(&[], &[4.0]), world(&[], &[4.0]));
        gauge.window([(&mut a.0, &mut a.1), (&mut b.0, &mut b.1)]);
        assert_eq!(gauge.max(), 2);
        // Starts go first at a tie: a third op entering at 4 overlaps both.
        let mut late = InFlightGauge::default();
        let (mut s, mut e) = (vec![1.0, 2.0, 4.0], vec![4.0, 4.0, 5.0]);
        late.window([(&mut s, &mut e)]);
        assert_eq!(late.max(), 3);
        // The mean is the time in the system over the time the last op
        // left: 3 + 2 + 0 over 4.
        let acc = ShardAccumulator {
            op_time: u128::from(fixed_point(3.0) + fixed_point(2.0)),
            busy_until: 4.0,
            ..ShardAccumulator::default()
        };
        let merged = merge_shard_reports(vec![acc]);
        assert_eq!(merged.mean_in_flight, 5.0 / 4.0);
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
        // Every per-key outcome field gets distinct values in the rows
        // each shard owns; a shard's copy of a key it does not own must
        // not count.
        type Row = fn(&mut VariableReport) -> &mut u64;
        type Total = fn(&SimReport) -> u64;
        let fields: [(Row, Total); 12] = [
            (|v| &mut v.completed_reads, |r| r.completed_reads),
            (|v| &mut v.completed_writes, |r| r.completed_writes),
            (|v| &mut v.stale_reads, |r| r.stale_reads),
            (|v| &mut v.empty_reads, |r| r.empty_reads),
            (|v| &mut v.unwritten_reads, |r| r.unwritten_reads),
            (|v| &mut v.unavailable_ops, |r| r.unavailable_ops),
            (|v| &mut v.concurrent_reads, |r| r.concurrent_reads),
            (|v| &mut v.retries, |r| r.retries),
            (|v| &mut v.timed_out_attempts, |r| r.timed_out_attempts),
            (|v| &mut v.gossip_pushes, |r| r.gossip_pushes),
            (|v| &mut v.gossip_stores, |r| r.gossip_stores),
            (
                |v| &mut v.gossip_redundant_pushes_avoided,
                |r| r.gossip_redundant_pushes_avoided,
            ),
        ];
        for (i, (field, _)) in fields.iter().enumerate() {
            for (shard, acc) in [&mut shard0, &mut shard1].into_iter().enumerate() {
                for (v, row) in acc.report.per_variable.iter_mut().enumerate() {
                    let owned = 10 * (shard + 1) + i;
                    *field(row) += if v % 2 == shard { owned as u64 } else { 1000 };
                }
            }
        }
        let merged = merge_shard_reports(vec![shard0, shard1]);
        assert_eq!(merged.per_variable.len(), 4);
        assert_eq!(merged.per_variable[2].completed_reads, 7 + 10);
        assert_eq!(merged.per_variable[3].completed_writes, 5 + 20 + 1);
        assert_eq!(merged.per_variable[0].completed_reads, 10);
        assert_eq!(merged.completed_reads, 7 + 2 * 10 + 2 * 20);
        for (i, (field, total)) in fields.iter().enumerate() {
            let mut rows = merged.per_variable.clone();
            let sum: u64 = rows.iter_mut().map(|row| *field(row)).sum();
            assert_eq!(total(&merged), sum, "field {i}");
        }
    }

    #[test]
    fn reports_compare_equal_field_by_field() {
        let mut a = SimReport::default();
        let mut b = SimReport::default();
        a.read_latency.record(0.5);
        b.read_latency.record(0.5);
        assert_eq!(a, b);
        b.read_latency.record(0.6);
        assert_ne!(a, b);
    }
}
