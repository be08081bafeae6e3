//! Voter-ID locking over masking quorums (the Costa Rica scenario).
//!
//! Section 1.1: each voter presents a unique voter ID at one of over a
//! thousand stations; to prevent repeat voting the ID must be "locked"
//! country-wide, and it suffices that *repeated* use is detected with high
//! probability.  The lock record for a voter is a replicated variable: a
//! station trying to cast a ballot first reads the record through a quorum,
//! refuses if it finds an existing lock, and otherwise writes a lock naming
//! itself.  Using a (b, ε)-masking quorum system the scheme also withstands
//! stations "altered by bribed election officials" (Byzantine stations
//! answering arbitrarily), while the Θ(n) crash fault tolerance keeps the
//! election going when many stations are simply offline.
//!
//! The service shards one lock variable per voter through the key–value
//! facade ([`RegisterMap`]) over masking registers; the station holding a
//! lock is encoded in the lock value itself.

use pqs_core::system::QuorumSystem;
use pqs_protocols::cluster::Cluster;
use pqs_protocols::register::{RegisterFlavor, RegisterMap};
use pqs_protocols::value::Value;
use pqs_protocols::ClientId;
use rand::RngCore;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A unique voter identifier.
pub type VoterId = u64;

/// Identifier of the voting station performing an operation.
pub type StationId = ClientId;

/// Outcome of an attempt to cast a vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VoteOutcome {
    /// The voter ID was not locked; the lock has now been written by this
    /// station and the ballot is accepted.
    Accepted,
    /// The voter ID was already locked by the given station: repeat voting
    /// detected, ballot rejected.
    RejectedAlreadyVoted {
        /// Station that holds the lock.
        locked_by: StationId,
    },
    /// Too few replicas answered to decide; the station should retry.
    Unavailable,
}

/// The replicated voter-lock service.
///
/// One logical lock variable per voter ID, lazily instantiated in a
/// [`RegisterMap`] of masking registers so that up to `b` corrupt stations
/// can neither forge a lock (blocking an honest voter) nor erase one
/// (enabling repeat voting) except with the system's ε probability.
#[derive(Debug)]
pub struct VoterLockService<'a, S: QuorumSystem + ?Sized> {
    registers: RegisterMap<'a, S>,
}

impl<'a, S: QuorumSystem + ?Sized> VoterLockService<'a, S> {
    /// Creates the service over a quorum system with the given read
    /// threshold (`k` of the masking construction, or `b + 1` for a strict
    /// masking system, or `1` when only crash failures are expected).
    pub fn new(system: &'a S, threshold: usize) -> Self {
        let threshold = threshold.max(1);
        VoterLockService {
            registers: RegisterMap::new(system, RegisterFlavor::Masking { threshold }, 1),
        }
    }

    /// Probes `margin` extra replicas per access and completes on the first
    /// `q` responders, so ballots keep flowing when many stations are
    /// offline.
    pub fn with_probe_margin(mut self, margin: usize) -> Self {
        self.registers.set_probe_margin(margin);
        self
    }

    /// The configured probe margin.
    pub fn probe_margin(&self) -> usize {
        self.registers.probe_margin()
    }

    /// The read-acceptance threshold in use.
    pub fn threshold(&self) -> usize {
        match self.registers.flavor() {
            RegisterFlavor::Masking { threshold } => *threshold,
            _ => unreachable!("the voter-lock service only builds masking registers"),
        }
    }

    /// Attempts to cast a vote for `voter` at `station`.
    ///
    /// The protocol is the lock protocol sketched in Section 1.1: read the
    /// voter's lock record through a quorum; if a lock is visible, reject;
    /// otherwise write a lock naming the station and accept.
    pub fn cast_vote(
        &mut self,
        cluster: &mut Cluster,
        rng: &mut dyn RngCore,
        station: StationId,
        voter: VoterId,
    ) -> VoteOutcome {
        let variable = lock_variable(voter);
        match self.registers.get(cluster, rng, variable) {
            Err(_) => VoteOutcome::Unavailable,
            Ok(Some(existing)) => VoteOutcome::RejectedAlreadyVoted {
                locked_by: decode_station(&existing.value),
            },
            Ok(None) => match self
                .registers
                .put(cluster, rng, variable, encode_lock(station))
            {
                Ok(_) => VoteOutcome::Accepted,
                Err(_) => VoteOutcome::Unavailable,
            },
        }
    }
}

/// Result of a repeat-voting experiment (see
/// [`repeat_voting_experiment`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepeatVotingStats {
    /// First (legitimate) attempts that were accepted.
    pub first_attempts_accepted: u64,
    /// Repeat attempts that were correctly rejected.
    pub repeats_rejected: u64,
    /// Repeat attempts that slipped through (double votes).
    pub repeats_accepted: u64,
    /// Attempts that could not complete.
    pub unavailable: u64,
}

impl RepeatVotingStats {
    /// Fraction of repeat attempts that went undetected.
    pub fn undetected_repeat_rate(&self) -> f64 {
        let total = self.repeats_rejected + self.repeats_accepted;
        if total == 0 {
            0.0
        } else {
            self.repeats_accepted as f64 / total as f64
        }
    }
}

/// Runs the Section 1.1 scenario: `voters` distinct voter IDs each vote
/// once, then each makes `repeat_attempts` additional attempts from other
/// stations.  Returns detection statistics.
pub fn repeat_voting_experiment<S: QuorumSystem + ?Sized>(
    service: &mut VoterLockService<'_, S>,
    cluster: &mut Cluster,
    rng: &mut dyn RngCore,
    voters: u64,
    repeat_attempts: u32,
) -> RepeatVotingStats {
    let mut stats = RepeatVotingStats::default();
    for voter in 0..voters {
        match service.cast_vote(cluster, rng, 1, voter) {
            VoteOutcome::Accepted => stats.first_attempts_accepted += 1,
            VoteOutcome::RejectedAlreadyVoted { .. } => {}
            VoteOutcome::Unavailable => stats.unavailable += 1,
        }
        for attempt in 0..repeat_attempts {
            let station = 2 + attempt;
            match service.cast_vote(cluster, rng, station, voter) {
                VoteOutcome::Accepted => stats.repeats_accepted += 1,
                VoteOutcome::RejectedAlreadyVoted { .. } => stats.repeats_rejected += 1,
                VoteOutcome::Unavailable => stats.unavailable += 1,
            }
        }
    }
    stats
}

/// The lock variable for a voter: a stable hash of the voter ID
/// (variables are namespaced per voter).
fn lock_variable(voter: VoterId) -> u64 {
    let mut hasher = DefaultHasher::new();
    ("voter-lock", voter).hash(&mut hasher);
    hasher.finish()
}

fn encode_lock(station: StationId) -> Value {
    Value::from_u64(station as u64)
}

fn decode_station(value: &Value) -> StationId {
    value.as_u64().unwrap_or(u64::MAX) as StationId
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqs_core::probabilistic::ProbabilisticMasking;
    use pqs_core::system::QuorumSystem;
    use pqs_core::universe::ServerId;
    use pqs_protocols::server::Behavior;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn service_and_cluster(n: u32, b: u32) -> (ProbabilisticMasking, Cluster) {
        let sys = ProbabilisticMasking::with_target_epsilon(n, b, 1e-3).unwrap();
        let cluster = Cluster::new(sys.universe());
        (sys, cluster)
    }

    #[test]
    fn single_vote_accepted_then_repeat_rejected() {
        let (sys, mut cluster) = service_and_cluster(100, 4);
        let mut service = VoterLockService::new(&sys, sys.read_threshold());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(service.threshold(), sys.read_threshold());
        assert_eq!(
            service.cast_vote(&mut cluster, &mut rng, 10, 777),
            VoteOutcome::Accepted
        );
        match service.cast_vote(&mut cluster, &mut rng, 11, 777) {
            VoteOutcome::RejectedAlreadyVoted { locked_by } => assert_eq!(locked_by, 10),
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn distinct_voters_do_not_interfere() {
        let (sys, mut cluster) = service_and_cluster(100, 4);
        let mut service = VoterLockService::new(&sys, sys.read_threshold());
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for voter in 0..20u64 {
            assert_eq!(
                service.cast_vote(&mut cluster, &mut rng, 1, voter),
                VoteOutcome::Accepted,
                "voter {voter}"
            );
        }
    }

    #[test]
    fn repeat_experiment_detects_virtually_all_repeats() {
        let (sys, mut cluster) = service_and_cluster(100, 4);
        let mut service = VoterLockService::new(&sys, sys.read_threshold());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let stats = repeat_voting_experiment(&mut service, &mut cluster, &mut rng, 200, 3);
        assert_eq!(stats.first_attempts_accepted, 200);
        assert_eq!(stats.unavailable, 0);
        // With epsilon <= 1e-3 per attempt, 600 repeats should essentially
        // all be caught; allow a couple of unlucky misses.
        assert!(stats.repeats_accepted <= 2, "{stats:?}");
        assert!(stats.undetected_repeat_rate() <= 2.0 / 600.0 + 1e-9);
    }

    #[test]
    fn corrupt_stations_cannot_unlock_voters() {
        let (sys, mut cluster) = service_and_cluster(100, 4);
        // Corrupt 4 replicas: they forge values, but below the threshold k
        // their fabrications are ignored.
        cluster.corrupt_all((0..4).map(ServerId::new), Behavior::ByzantineForge);
        let mut service = VoterLockService::new(&sys, sys.read_threshold());
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        assert_eq!(
            service.cast_vote(&mut cluster, &mut rng, 1, 42),
            VoteOutcome::Accepted
        );
        let mut undetected = 0;
        for attempt in 0..100u32 {
            if service.cast_vote(&mut cluster, &mut rng, 2 + attempt, 42) == VoteOutcome::Accepted {
                undetected += 1;
            }
        }
        assert!(undetected <= 1, "{undetected} repeats slipped through");
    }

    #[test]
    fn probe_margin_improves_repeat_detection_under_crashes() {
        // With many replicas down, the masking read needs k matching live
        // replies to see an existing lock; probing spares recovers lost
        // quorum members, so detection with a margin is at least as good.
        let (sys, _) = service_and_cluster(100, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut rates = Vec::new();
        for margin in [0usize, 12] {
            let mut cluster = Cluster::new(sys.universe());
            cluster.crash_all((60..100).map(ServerId::new));
            let mut service =
                VoterLockService::new(&sys, sys.read_threshold()).with_probe_margin(margin);
            assert_eq!(service.probe_margin(), margin);
            let stats = repeat_voting_experiment(&mut service, &mut cluster, &mut rng, 100, 2);
            rates.push(stats.undetected_repeat_rate());
        }
        assert!(
            rates[1] <= rates[0],
            "margin 12 undetected {} vs margin 0 {}",
            rates[1],
            rates[0]
        );
    }

    #[test]
    fn election_progresses_despite_many_crashed_stations() {
        let (sys, mut cluster) = service_and_cluster(100, 4);
        // Crash 20 replicas. A strict masking-threshold system over n=100
        // needs 55 live servers per quorum and would already be shaky; the
        // probabilistic system keeps accepting ballots and detecting repeats.
        cluster.crash_all((80..100).map(ServerId::new));
        let mut service = VoterLockService::new(&sys, sys.read_threshold());
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let stats = repeat_voting_experiment(&mut service, &mut cluster, &mut rng, 50, 1);
        assert_eq!(stats.unavailable, 0);
        assert_eq!(stats.first_attempts_accepted, 50);
        // Detection degrades gracefully with crashes (fewer lock holders
        // answer), but the vast majority of repeats is still caught.
        assert!(
            stats.undetected_repeat_rate() < 0.2,
            "undetected rate {}",
            stats.undetected_repeat_rate()
        );
    }
}
