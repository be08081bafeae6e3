//! Staleness and re-convergence bookkeeping: the per-variable write log a
//! read is classified against, and the post-heal coverage tracker the spine
//! feeds once per gossip round.

use crate::failure::FailurePlan;
use crate::metrics::SimReport;
use crate::time::SimTime;
use pqs_protocols::diffusion;
use pqs_protocols::timestamp::Timestamp;

/// Record of a write operation used for staleness accounting.  `end` stays
/// `+∞` while the write is in flight, so overlapping reads classify as
/// concurrent.
#[derive(Debug, Clone, Copy)]
struct WriteWindow {
    start: SimTime,
    end: SimTime,
    sequence: u64,
    failed: bool,
}

/// The write windows of one variable, pruned as simulated time advances so
/// the per-read staleness checks scan only windows that can still matter —
/// without pruning the event loop would be O(reads × writes), quadratic in
/// run duration.  A world keeps one log per key: staleness is a
/// per-variable property (a write of key 3 cannot make a read of key 5
/// stale).
#[derive(Debug, Default)]
pub(crate) struct WriteLog {
    windows: Vec<WriteWindow>,
    /// Windows before this index are archived: they ended at or before
    /// every start time a still-unfinished operation can have, so they can
    /// never again classify as concurrent; their freshest sequence is kept
    /// in `archived_max_seq`.
    frontier: usize,
    archived_max_seq: Option<u64>,
}

impl WriteLog {
    /// Opens an in-flight window (end `+∞`); returns its handle.
    pub(crate) fn open(&mut self, start: SimTime, sequence: u64) -> usize {
        self.windows.push(WriteWindow {
            start,
            end: f64::INFINITY,
            sequence,
            failed: false,
        });
        self.windows.len() - 1
    }

    /// Marks a write completed at `end`.
    pub(crate) fn close(&mut self, handle: usize, end: SimTime) {
        self.windows[handle].end = end;
    }

    /// Marks a write failed (stored nowhere): excluded from accounting.
    pub(crate) fn fail(&mut self, handle: usize, end: SimTime) {
        self.windows[handle].end = end;
        self.windows[handle].failed = true;
    }

    /// Archives every leading window that ended at or before `horizon`
    /// (the earliest start time any in-flight or future operation can
    /// have).  Amortised O(1) per write over the run.
    pub(crate) fn advance(&mut self, horizon: SimTime) {
        while let Some(w) = self.windows.get(self.frontier) {
            if w.end > horizon {
                break;
            }
            if !w.failed {
                self.archived_max_seq = Some(match self.archived_max_seq {
                    Some(m) => m.max(w.sequence),
                    None => w.sequence,
                });
            }
            self.frontier += 1;
        }
    }

    /// Whether any (non-failed) write window overlaps the read interval
    /// `(start, end)` — archived windows cannot, by construction.
    pub(crate) fn concurrent_with(&self, start: SimTime, end: SimTime) -> bool {
        self.windows[self.frontier..]
            .iter()
            .any(|w| !w.failed && w.start < end && w.end > start)
    }

    /// Sequence number of the freshest write completed before `start`.
    pub(crate) fn latest_completed_before(&self, start: SimTime) -> Option<u64> {
        let recent = self.windows[self.frontier..]
            .iter()
            .filter(|w| !w.failed && w.end <= start)
            .map(|w| w.sequence)
            .max();
        match (self.archived_max_seq, recent) {
            (Some(a), Some(r)) => Some(a.max(r)),
            (a, r) => a.or(r),
        }
    }
}

/// One healed partition window being watched back to convergence: the
/// per-variable freshest timestamps snapshotted at the first gossip round
/// at (or after) the heal, and which of them the whole cluster has since
/// re-covered.
#[derive(Debug)]
struct HealWatch {
    /// Whether this is the first heal of the run (only the first heal
    /// records the round-by-round [`SimReport::post_heal_coverage`] curve).
    is_first: bool,
    /// The gossip round at which the heal was observed.
    start_round: u64,
    /// Per-variable snapshot timestamp, `None` once re-covered (or never
    /// written).  Covered bits latch, so the curve is monotone.
    pending: Vec<Option<Timestamp>>,
    /// Variables still awaiting re-coverage.
    remaining: usize,
    /// Variables the snapshot started tracking.
    total: usize,
}

/// Spine-level post-heal re-convergence accounting: after each partition
/// window heals, watch the gossip coverage snapshots until every variable
/// written before the heal is again held at its heal-time freshness by the
/// round's coverage target of correct servers.  Pure function of the
/// (deterministic) round coverage snapshots, so it never perturbs any RNG
/// stream.
#[derive(Debug, Default)]
pub(crate) struct HealTracking {
    /// Next partition window whose heal is awaiting observation.
    cursor: usize,
    /// The window currently being watched (one at a time; a window healing
    /// while another is watched is observed at a later round).
    active: Option<HealWatch>,
    /// Whether the first-heal coverage curve has been claimed.
    first_used: bool,
    /// Heals observed by a gossip round so far.
    pub(crate) heals_observed: u64,
    /// Sum over completed watches of rounds-to-full-recoverage.
    pub(crate) rounds_sum: u64,
    /// Number of watches that reached full re-coverage.
    pub(crate) completions: u64,
    /// Cumulative re-covered-variable count per round for the first heal.
    pub(crate) curve: Vec<u64>,
}

impl HealTracking {
    /// Feeds one gossip round's coverage snapshot into the tracker.
    pub(crate) fn on_round(
        &mut self,
        plan: &FailurePlan,
        t: SimTime,
        round: u64,
        coverage: &[diffusion::VariableCoverage],
        target: u32,
        nvars: usize,
    ) {
        if plan.partitions.is_empty() {
            return;
        }
        if self.active.is_none()
            && self.cursor < plan.partitions.len()
            && plan.partitions[self.cursor].heals_at <= t
        {
            self.cursor += 1;
            self.heals_observed += 1;
            let mut pending = vec![None; nvars];
            let mut remaining = 0;
            for cov in coverage {
                if cov.freshest > Timestamp::ZERO {
                    pending[cov.variable as usize] = Some(cov.freshest);
                    remaining += 1;
                }
            }
            let is_first = !self.first_used;
            self.first_used = true;
            self.active = Some(HealWatch {
                is_first,
                start_round: round,
                pending,
                remaining,
                total: remaining,
            });
        }
        let Some(watch) = self.active.as_mut() else {
            return;
        };
        for cov in coverage {
            if let Some(slot) = watch.pending.get_mut(cov.variable as usize) {
                if let Some(snap) = *slot {
                    if cov.freshest >= snap && cov.holders >= target {
                        *slot = None;
                        watch.remaining -= 1;
                    }
                }
            }
        }
        if watch.is_first {
            self.curve.push((watch.total - watch.remaining) as u64);
        }
        if watch.remaining == 0 {
            self.rounds_sum += round - watch.start_round;
            self.completions += 1;
            self.active = None;
        }
    }

    /// Copies the accumulated post-heal statistics into the report.
    pub(crate) fn finish_into(self, report: &mut SimReport) {
        report.heals_observed = self.heals_observed;
        report.post_heal_rounds_to_coverage = self.rounds_sum;
        report.post_heal_coverage_completions = self.completions;
        report.post_heal_coverage = self.curve;
    }
}
