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
/// run duration — and freed once pruned, so the log's memory follows the
/// writes that can still matter, not the writes run.  A world keeps one log
/// per key: staleness is a per-variable property (a write of key 3 cannot
/// make a read of key 5 stale).
#[derive(Debug, Default)]
pub(crate) struct WriteLog {
    windows: Vec<WriteWindow>,
    /// The handle of `windows[0]`: archived windows are drained off the
    /// front, and handles count from the log's first write.
    base: usize,
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
        self.base + self.windows.len() - 1
    }

    /// Marks a write completed at `end`.
    pub(crate) fn close(&mut self, handle: usize, end: SimTime) {
        self.windows[handle - self.base].end = end;
    }

    /// Marks a write failed (stored nowhere): excluded from accounting.
    pub(crate) fn fail(&mut self, handle: usize, end: SimTime) {
        let window = &mut self.windows[handle - self.base];
        window.end = end;
        window.failed = true;
    }

    /// Archives every leading window that ended at or before `horizon`
    /// (the earliest start time any in-flight or future operation can
    /// have), and frees the archived windows once they make up half the
    /// log.  A window is archived only after its write closed or failed,
    /// so no handle still in use ever points at a freed window.  Amortised
    /// O(1) per write over the run: a drain moves at most as many windows
    /// as it frees.
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
        if self.frontier > 0 && 2 * self.frontier >= self.windows.len() {
            self.windows.drain(..self.frontier);
            self.base += self.frontier;
            self.frontier = 0;
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::VecDeque;

    /// 10⁵ writes, each open for a random spell, with the horizon at the
    /// earliest start still in flight: the log frees what it archives, and
    /// every handle stays valid across the drains.
    #[test]
    fn archived_windows_are_freed_and_handles_stay_valid() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut log = WriteLog::default();
        // (handle, start, end) of the writes in flight, in start order.
        let mut open: VecDeque<(usize, SimTime, SimTime)> = VecDeque::new();
        let mut latest_closed = 0;
        for i in 0..100_000u64 {
            let now = i as SimTime;
            // Close every write that ended by now, in end order.
            let mut due: Vec<(usize, SimTime)> = open
                .iter()
                .filter(|w| w.2 <= now)
                .map(|w| (w.0, w.2))
                .collect();
            due.sort_by(|a, b| a.1.total_cmp(&b.1));
            for (handle, end) in due {
                if handle % 7 == 0 {
                    log.fail(handle, end);
                } else {
                    log.close(handle, end);
                    latest_closed = latest_closed.max(handle as u64 + 1);
                }
            }
            open.retain(|w| w.2 > now);
            let horizon = open.front().map_or(now, |w| w.1);
            log.advance(horizon);
            let in_flight = open.len();
            assert!(
                log.windows.len() <= 2 * in_flight + 64,
                "write {i}: {} windows kept with {in_flight} in flight",
                log.windows.len()
            );
            let handle = log.open(now, i + 1);
            assert_eq!(handle, i as usize, "handles count from the first write");
            open.push_back((handle, now, now + rng.gen_range(0.5..6.0)));
        }
        // Sequence `h + 1` belongs to handle `h`: the freshest completed
        // write is the latest one closed, archived or not.
        assert_eq!(log.latest_completed_before(1e12), Some(latest_closed));
    }
}
