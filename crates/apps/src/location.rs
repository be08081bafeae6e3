//! Mobile-device location tracking over ε-intersecting quorums.
//!
//! Section 1.1: "the location of a mobile device can be recorded in a
//! variable that is replicated at several location stores. This variable is
//! updated (e.g., by the device itself) using a quorum-based protocol among
//! the location stores when the device moves from cell to cell.  The ability
//! of callers to access this information, even at the risk of it being
//! stale, is the primary requirement."  A stale answer just forwards the
//! caller to the previous cell; *no* answer blocks the call — exactly the
//! trade probabilistic quorums make.
//!
//! The directory is a thin application shell over the sharded key–value
//! facade ([`RegisterMap`]): one replicated variable per device, each with
//! its own writer timestamp chain, all sharing the store universe.

use pqs_core::system::QuorumSystem;
use pqs_protocols::cluster::Cluster;
use pqs_protocols::register::{RegisterFlavor, RegisterMap};
use pqs_protocols::value::Value;
use rand::Rng;
use rand::RngCore;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// A device identifier.
pub type DeviceId = u64;

/// A cell (base-station / area) identifier.
pub type CellId = u64;

/// Result of a caller's lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The directory returned the device's current cell.
    Current(CellId),
    /// The directory returned a previous cell; the call can be forwarded
    /// from there (degraded but usable).
    Stale(CellId),
    /// The directory had no record or no quorum answered: the call fails.
    Miss,
}

/// The replicated location directory: a key–value store mapping devices to
/// cells, one safe register per device.
#[derive(Debug)]
pub struct LocationDirectory<'a, S: QuorumSystem + ?Sized> {
    /// Ground truth of each device's location (what the device itself
    /// knows), used to classify lookups as current or stale.
    truth: HashMap<DeviceId, CellId>,
    /// The per-device registers: each device is the single writer of its
    /// own location variable, so successive moves carry strictly
    /// increasing timestamps along the variable's own chain.
    registers: RegisterMap<'a, S>,
}

impl<'a, S: QuorumSystem + ?Sized> LocationDirectory<'a, S> {
    /// Creates an empty directory over the given quorum system.
    pub fn new(system: &'a S) -> Self {
        LocationDirectory {
            truth: HashMap::new(),
            registers: RegisterMap::new(system, RegisterFlavor::Safe, 1),
        }
    }

    /// Probes `margin` extra location stores per access and completes on
    /// the first `q` responders — the availability knob for a directory
    /// whose primary requirement is that callers *always* get an answer.
    /// Devices that have already moved follow the new margin too.
    pub fn with_probe_margin(mut self, margin: usize) -> Self {
        self.registers.set_probe_margin(margin);
        self
    }

    /// The configured probe margin.
    pub fn probe_margin(&self) -> usize {
        self.registers.probe_margin()
    }

    /// Number of devices whose location variable has been touched.
    pub fn tracked_devices(&self) -> usize {
        self.registers.len()
    }

    /// The device reports that it moved to `cell`: writes the replicated
    /// variable through a quorum.  Returns `false` if no replica stored the
    /// update.
    pub fn report_move(
        &mut self,
        cluster: &mut Cluster,
        rng: &mut dyn RngCore,
        device: DeviceId,
        cell: CellId,
    ) -> bool {
        self.truth.insert(device, cell);
        self.registers
            .put(
                cluster,
                rng,
                location_variable(device),
                Value::from_u64(cell),
            )
            .is_ok()
    }

    /// A caller looks up the device's location through a quorum.
    pub fn lookup(&self, cluster: &mut Cluster, rng: &mut dyn RngCore, device: DeviceId) -> Lookup {
        match self.registers.get(cluster, rng, location_variable(device)) {
            Err(_) | Ok(None) => Lookup::Miss,
            Ok(Some(tv)) => {
                let cell = tv.value.as_u64().unwrap_or(u64::MAX);
                match self.truth.get(&device) {
                    Some(&current) if current == cell => Lookup::Current(cell),
                    Some(_) => Lookup::Stale(cell),
                    None => Lookup::Stale(cell),
                }
            }
        }
    }

    /// The ground-truth location of a device, if it ever reported one.
    pub fn true_location(&self, device: DeviceId) -> Option<CellId> {
        self.truth.get(&device).copied()
    }
}

/// Statistics of a mobility/lookup workload (see [`mobility_experiment`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MobilityStats {
    /// Lookups that returned the device's current cell.
    pub current: u64,
    /// Lookups that returned a stale (previous) cell.
    pub stale: u64,
    /// Lookups that found nothing.
    pub miss: u64,
}

impl MobilityStats {
    /// Fraction of lookups that found *some* location (current or stale) —
    /// the paper's primary requirement for this application.
    pub fn reachability(&self) -> f64 {
        let total = self.current + self.stale + self.miss;
        if total == 0 {
            0.0
        } else {
            (self.current + self.stale) as f64 / total as f64
        }
    }

    /// Fraction of successful lookups that were stale.
    pub fn staleness(&self) -> f64 {
        let found = self.current + self.stale;
        if found == 0 {
            0.0
        } else {
            self.stale as f64 / found as f64
        }
    }
}

/// Runs a simple mobility workload: `devices` devices move between `cells`
/// cells `moves_per_device` times, and after every move a caller performs
/// `lookups_per_move` lookups.
pub fn mobility_experiment<S: QuorumSystem + ?Sized>(
    directory: &mut LocationDirectory<'_, S>,
    cluster: &mut Cluster,
    rng: &mut dyn RngCore,
    devices: u64,
    cells: u64,
    moves_per_device: u32,
    lookups_per_move: u32,
) -> MobilityStats {
    let mut stats = MobilityStats::default();
    for device in 0..devices {
        for _ in 0..moves_per_device {
            let cell = rng.gen_range(0..cells.max(1));
            directory.report_move(cluster, rng, device, cell);
            for _ in 0..lookups_per_move {
                match directory.lookup(cluster, rng, device) {
                    Lookup::Current(_) => stats.current += 1,
                    Lookup::Stale(_) => stats.stale += 1,
                    Lookup::Miss => stats.miss += 1,
                }
            }
        }
    }
    stats
}

fn location_variable(device: DeviceId) -> u64 {
    let mut hasher = DefaultHasher::new();
    ("device-location", device).hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqs_core::probabilistic::EpsilonIntersecting;
    use pqs_core::system::{ProbabilisticQuorumSystem, QuorumSystem};
    use pqs_core::universe::ServerId;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn lookup_after_move_is_usually_current() {
        let sys = EpsilonIntersecting::with_target_epsilon(100, 1e-3).unwrap();
        let mut cluster = Cluster::new(sys.universe());
        let mut dir = LocationDirectory::new(&sys);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(dir.tracked_devices(), 0);
        assert!(dir.report_move(&mut cluster, &mut rng, 5, 17));
        assert_eq!(dir.tracked_devices(), 1);
        assert_eq!(dir.true_location(5), Some(17));
        assert_eq!(dir.true_location(6), None);
        match dir.lookup(&mut cluster, &mut rng, 5) {
            Lookup::Current(17) => {}
            other => panic!("unexpected lookup result {other:?}"),
        }
        assert_eq!(dir.lookup(&mut cluster, &mut rng, 999), Lookup::Miss);
    }

    #[test]
    fn staleness_tracks_epsilon_and_reachability_is_high() {
        let sys = EpsilonIntersecting::new(100, 15).unwrap();
        let mut cluster = Cluster::new(sys.universe());
        let mut dir = LocationDirectory::new(&sys);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let stats = mobility_experiment(&mut dir, &mut cluster, &mut rng, 20, 50, 10, 3);
        assert_eq!(stats.current + stats.stale + stats.miss, 20 * 10 * 3);
        assert!(stats.reachability() > 0.97, "{stats:?}");
        // Each of the 20 devices holds its own register in the map.
        assert_eq!(dir.tracked_devices(), 20);
        // Stale or missed lookups happen at roughly the epsilon rate.
        let failure_rate = 1.0 - stats.current as f64 / 600.0;
        assert!(
            failure_rate < sys.epsilon() * 4.0 + 0.02,
            "failure rate {failure_rate} vs epsilon {}",
            sys.epsilon()
        );
    }

    #[test]
    fn lookups_survive_heavy_store_failures() {
        // 30 of 100 location stores down: callers still find the device.
        let sys = EpsilonIntersecting::with_target_epsilon(100, 1e-3).unwrap();
        let mut cluster = Cluster::new(sys.universe());
        let mut dir = LocationDirectory::new(&sys);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        dir.report_move(&mut cluster, &mut rng, 1, 4);
        cluster.crash_all((0..30).map(ServerId::new));
        let mut found = 0;
        for _ in 0..100 {
            if matches!(
                dir.lookup(&mut cluster, &mut rng, 1),
                Lookup::Current(_) | Lookup::Stale(_)
            ) {
                found += 1;
            }
        }
        assert!(found >= 95, "only {found}/100 lookups succeeded");
    }

    #[test]
    fn probe_margin_restores_reachability_under_crashes() {
        // Crash 40 of 100 stores. With margin 0 a lookup that draws a
        // quorum of mostly-crashed stores returns fewer replies; with a
        // margin the spares stand in, so reachability is at least as good
        // and the margin directory never does worse.
        let sys = EpsilonIntersecting::new(100, 15).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut plain_miss = 0u32;
        let mut margined_miss = 0u32;
        for (margin, miss) in [(0usize, &mut plain_miss), (10, &mut margined_miss)] {
            let mut cluster = Cluster::new(sys.universe());
            let mut dir = LocationDirectory::new(&sys).with_probe_margin(margin);
            assert_eq!(dir.probe_margin(), margin);
            dir.report_move(&mut cluster, &mut rng, 1, 7);
            cluster.crash_all((0..40).map(ServerId::new));
            for _ in 0..300 {
                if dir.lookup(&mut cluster, &mut rng, 1) == Lookup::Miss {
                    *miss += 1;
                }
            }
        }
        assert!(
            margined_miss <= plain_miss,
            "margin 10 missed {margined_miss} vs margin 0 {plain_miss}"
        );
    }

    #[test]
    fn margin_set_after_first_move_covers_cached_registers() {
        // The device's timestamp chain exists since its first move; a
        // margin configured afterwards must still apply to its later
        // accesses.
        // Majority of 5 (quorums of 3) with 2 crashed servers and margin 2:
        // every probe set covers all five servers, so lookups always reach
        // the three live replicas — deterministically, no misses at all.
        let sys = pqs_core::strict::Majority::new(5).unwrap();
        let mut cluster = Cluster::new(sys.universe());
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut dir = LocationDirectory::new(&sys);
        dir.report_move(&mut cluster, &mut rng, 1, 3);
        let mut dir = dir.with_probe_margin(2);
        assert_eq!(dir.probe_margin(), 2);
        cluster.crash_all([ServerId::new(0), ServerId::new(1)]);
        for _ in 0..50 {
            assert_eq!(dir.lookup(&mut cluster, &mut rng, 1), Lookup::Current(3));
            assert!(dir.report_move(&mut cluster, &mut rng, 1, 3));
        }
    }

    #[test]
    fn stale_answers_point_to_a_previous_cell() {
        let sys = EpsilonIntersecting::new(64, 8).unwrap();
        let mut cluster = Cluster::new(sys.universe());
        let mut dir = LocationDirectory::new(&sys);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        // Move the device through known cells; any stale lookup must return
        // one of them, never garbage.
        let cells = [3u64, 8, 21, 34];
        let mut seen = Vec::new();
        for &c in &cells {
            dir.report_move(&mut cluster, &mut rng, 9, c);
            seen.push(c);
            for _ in 0..20 {
                match dir.lookup(&mut cluster, &mut rng, 9) {
                    Lookup::Current(x) => assert_eq!(x, c),
                    Lookup::Stale(x) => assert!(seen.contains(&x), "unknown cell {x}"),
                    Lookup::Miss => {}
                }
            }
        }
        let stats = MobilityStats {
            current: 10,
            stale: 5,
            miss: 5,
        };
        assert!((stats.reachability() - 0.75).abs() < 1e-12);
        assert!((stats.staleness() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(MobilityStats::default().reachability(), 0.0);
        assert_eq!(MobilityStats::default().staleness(), 0.0);
    }
}
