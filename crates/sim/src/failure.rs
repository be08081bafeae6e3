//! Failure plans: who fails, how, and when — crash schedules, membership
//! churn, healing partitions and adaptive Byzantine strategies.

use crate::time::SimTime;
use pqs_core::universe::{ServerId, Universe};
use pqs_math::sampling::sample_k_of_n;
use pqs_protocols::server::VariableId;
use rand::RngCore;

/// A scheduled crash (or recovery) of one server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashEvent {
    /// When the transition happens.
    pub at: SimTime,
    /// Which server.
    pub server: ServerId,
    /// `true` for a crash, `false` for a recovery.
    pub crash: bool,
}

/// A scheduled membership transition: a server joining or leaving the
/// cluster mid-run.  A server whose *first* membership event is a join is
/// absent (crashed, empty stores) from the start of the run; a joiner
/// always comes up with freshly reset record stores and bootstraps its
/// state through gossip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MembershipEvent {
    /// When the transition happens.
    pub at: SimTime,
    /// Which server.
    pub server: ServerId,
    /// `true` for a join, `false` for a leave.
    pub join: bool,
}

/// A healing partition: from `from` until `heals_at` the universe is split
/// into `components` groups (server `s` belongs to component
/// `s.index() % components`); probes and gossip cross component borders
/// only after the heal time.  Clients are attributed to components by the
/// variable they operate on (`variable % components`), so a probe is
/// delivered only when the server sits in the client's component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionWindow {
    /// Partition onset (inclusive).
    pub from: SimTime,
    /// Heal time (exclusive — the window is `[from, heals_at)`).
    pub heals_at: SimTime,
    /// Number of components the universe splits into (≥ 2 to have any
    /// effect; component of server `s` is `s.index() % components`).
    pub components: u32,
}

/// How the Byzantine set behaves over the run.
///
/// The static set in [`FailurePlan::byzantine`] always misbehaves.  The
/// adaptive strategies add *sleeper* servers that act correct until a
/// foreground-observable predicate fires for the probed variable, then
/// answer that probe stale-but-signed ([`Behavior::ByzantineStale`]
/// semantics).  Predicates read only the engines' foreground write
/// statistics (per-variable write counts and last-write times), never
/// gossip state or RNG draws, so diffusion-off replay invariants and the
/// gossip-stream isolation survive unchanged.
///
/// [`Behavior::ByzantineStale`]: pqs_protocols::server::Behavior::ByzantineStale
#[derive(Debug, Clone, Default, PartialEq)]
pub enum ByzantineStrategy {
    /// The frozen PR ≤ 9 model: only [`FailurePlan::byzantine`] misbehaves.
    #[default]
    Static,
    /// Sleepers watch the foreground write volume and re-aim at the
    /// observed hottest keys: a sleeper answers a probe stale once the
    /// probed variable has accumulated at least `min_writes` completed
    /// writes — the adversary concentrates on exactly the keys whose probe
    /// windows matter most.
    HotKeyTargeting {
        /// Servers that flip to stale replies on hot keys.
        sleepers: Vec<ServerId>,
        /// Foreground write count at which a key counts as hot.
        min_writes: u64,
    },
    /// Sleepers maximize `stale_read_rate` directly: a sleeper answers a
    /// probe stale whenever the probed variable was written within the
    /// last `window` seconds — exactly the reads where a stale (but
    /// correctly signed) record is still plausible enough to win a quorum.
    StaleSigned {
        /// Servers that flip to stale replies inside the write window.
        sleepers: Vec<ServerId>,
        /// Seconds after a write during which sleepers reply stale.
        window: SimTime,
    },
}

impl ByzantineStrategy {
    /// The sleeper set of the adaptive strategies (empty for `Static`).
    pub fn sleepers(&self) -> &[ServerId] {
        match self {
            ByzantineStrategy::Static => &[],
            ByzantineStrategy::HotKeyTargeting { sleepers, .. } => sleepers,
            ByzantineStrategy::StaleSigned { sleepers, .. } => sleepers,
        }
    }
}

/// A complete failure plan for one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailurePlan {
    /// Servers that behave Byzantine from the start of the run.
    pub byzantine: Vec<ServerId>,
    /// Crash / recovery transitions ordered by time.
    pub crashes: Vec<CrashEvent>,
    /// Membership churn: join / leave transitions ordered by time.
    pub memberships: Vec<MembershipEvent>,
    /// Healing partitions ordered by onset time.
    pub partitions: Vec<PartitionWindow>,
    /// How the Byzantine set adapts over the run.
    pub strategy: ByzantineStrategy,
}

impl FailurePlan {
    /// An empty plan: every server stays correct.
    pub fn none() -> Self {
        FailurePlan::default()
    }

    /// Places `count` Byzantine servers uniformly at random.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the universe size.
    pub fn with_random_byzantine(
        mut self,
        universe: Universe,
        count: u32,
        rng: &mut dyn RngCore,
    ) -> Self {
        assert!(
            count <= universe.size(),
            "cannot corrupt {count} of {} servers",
            universe.size()
        );
        self.byzantine = sample_k_of_n(rng, count as u64, universe.size() as u64)
            .expect("count validated")
            .into_iter()
            .map(|i| ServerId::new(i as u32))
            .collect();
        self
    }

    /// Crashes each server independently with probability `p` at time
    /// `at` (the iid model of Definition 2.6).
    pub fn with_independent_crashes(
        mut self,
        universe: Universe,
        p: f64,
        at: SimTime,
        rng: &mut dyn RngCore,
    ) -> Self {
        use rand::Rng;
        let p = p.clamp(0.0, 1.0);
        for i in 0..universe.size() {
            if rng.gen_bool(p) {
                self.crashes.push(CrashEvent {
                    at,
                    server: ServerId::new(i),
                    crash: true,
                });
            }
        }
        self.sort_crashes();
        self
    }

    /// Adds an explicit crash or recovery transition.
    pub fn with_transition(mut self, at: SimTime, server: ServerId, crash: bool) -> Self {
        self.crashes.push(CrashEvent { at, server, crash });
        self.sort_crashes();
        self
    }

    /// Crashes every server in `servers` simultaneously at time `at` — a
    /// correlated "crash wave" (rack power loss, network partition onset).
    /// The event engine honours the wave mid-run: operations in flight when
    /// it hits lose the probes that had not yet been answered.
    pub fn with_crash_wave<I: IntoIterator<Item = ServerId>>(
        mut self,
        at: SimTime,
        servers: I,
    ) -> Self {
        for server in servers {
            self.crashes.push(CrashEvent {
                at,
                server,
                crash: true,
            });
        }
        self.sort_crashes();
        self
    }

    /// Schedules `server` to join the cluster at time `at`.  If this is
    /// the server's first membership event it is absent (crashed) from the
    /// start of the run; the join resets its record stores and it
    /// bootstraps through gossip.
    pub fn with_join(mut self, at: SimTime, server: ServerId) -> Self {
        self.memberships.push(MembershipEvent {
            at,
            server,
            join: true,
        });
        self.sort_memberships();
        self
    }

    /// Schedules `server` to leave the cluster at time `at`.
    pub fn with_leave(mut self, at: SimTime, server: ServerId) -> Self {
        self.memberships.push(MembershipEvent {
            at,
            server,
            join: false,
        });
        self.sort_memberships();
        self
    }

    /// Adds a healing partition window `[from, heals_at)` splitting the
    /// universe into `components` groups.
    ///
    /// # Panics
    ///
    /// Panics on an empty or inverted window or fewer than two components.
    pub fn with_partition(mut self, from: SimTime, heals_at: SimTime, components: u32) -> Self {
        assert!(
            from < heals_at,
            "partition window [{from}, {heals_at}) is empty"
        );
        assert!(components >= 2, "a partition needs at least 2 components");
        self.partitions.push(PartitionWindow {
            from,
            heals_at,
            components,
        });
        self.sort_partitions();
        self
    }

    /// Sets the Byzantine strategy for the run.
    pub fn with_strategy(mut self, strategy: ByzantineStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Number of servers that are Byzantine from the start.
    pub fn byzantine_count(&self) -> usize {
        self.byzantine.len()
    }

    /// Servers whose first membership event is a join: they are absent
    /// (crashed, empty stores) from the start of the run.
    pub fn initially_absent(&self) -> Vec<ServerId> {
        let mut seen: Vec<ServerId> = Vec::new();
        let mut absent: Vec<ServerId> = Vec::new();
        for m in &self.memberships {
            if seen.contains(&m.server) {
                continue;
            }
            seen.push(m.server);
            if m.join {
                absent.push(m.server);
            }
        }
        absent
    }

    /// Whether `server` has a join scheduled anywhere in the closed
    /// interval `[from, to]` — the only event that can lower a stored
    /// timestamp ([`Cluster::join_server`] wipes the joiner's stores), so
    /// the only one that can make a message planned at `from` against the
    /// receiver's records store something it would not have at `from`.
    ///
    /// [`Cluster::join_server`]: pqs_protocols::cluster::Cluster::join_server
    pub fn joins_within(&self, server: ServerId, from: SimTime, to: SimTime) -> bool {
        let first = self.memberships.partition_point(|m| m.at < from);
        self.memberships[first..]
            .iter()
            .take_while(|m| m.at <= to)
            .any(|m| m.join && m.server == server)
    }

    /// The partition window active at time `t`, if any.
    pub fn active_partition(&self, t: SimTime) -> Option<&PartitionWindow> {
        if self.partitions.is_empty() {
            return None;
        }
        self.partitions
            .iter()
            .find(|w| w.from <= t && t < w.heals_at)
    }

    /// Whether a probe on `variable` delivered at time `t` is blocked from
    /// reaching `server`: the client sits in component
    /// `variable % components`, the server in `s.index() % components`.
    pub fn blocks_probe(&self, t: SimTime, variable: VariableId, server: ServerId) -> bool {
        match self.active_partition(t) {
            None => false,
            Some(w) => {
                let c = w.components as u64;
                variable % c != server.index() as u64 % c
            }
        }
    }

    /// Whether a gossip message delivered at time `t` is blocked on the
    /// server-to-server link `a → b` (distinct components cannot talk).
    pub fn blocks_link(&self, t: SimTime, a: ServerId, b: ServerId) -> bool {
        match self.active_partition(t) {
            None => false,
            Some(w) => {
                let c = w.components as u64;
                a.index() as u64 % c != b.index() as u64 % c
            }
        }
    }

    /// The sleeper servers of the adaptive strategy (empty for `Static`).
    pub fn sleepers(&self) -> &[ServerId] {
        self.strategy.sleepers()
    }

    fn sort_crashes(&mut self) {
        // `total_cmp` so a NaN transition time cannot scramble the
        // schedule; the engine's scheduler rejects it with a clear panic
        // instead.
        self.crashes.sort_by(|a, b| a.at.total_cmp(&b.at));
    }

    fn sort_memberships(&mut self) {
        self.memberships.sort_by(|a, b| a.at.total_cmp(&b.at));
    }

    fn sort_partitions(&mut self) {
        self.partitions.sort_by(|a, b| a.from.total_cmp(&b.from));
    }

    /// Puts the three schedules in time order, as the `with_*` builders
    /// leave them.  The fields are public, so a struct literal can list
    /// events in any order, and the spine's monotone cursors,
    /// [`joins_within`](Self::joins_within) and
    /// [`initially_absent`](Self::initially_absent) all read the lists as
    /// timelines.  The sorts are stable: a schedule already in order — any
    /// builder-made one — comes out unchanged.
    pub(crate) fn sort_schedules(&mut self) {
        self.sort_crashes();
        self.sort_memberships();
        self.sort_partitions();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn empty_plan() {
        let p = FailurePlan::none();
        assert_eq!(p.byzantine_count(), 0);
        assert!(p.crashes.is_empty());
        assert!(p.memberships.is_empty());
        assert!(p.partitions.is_empty());
        assert_eq!(p.strategy, ByzantineStrategy::Static);
        assert!(p.sleepers().is_empty());
        assert!(p.initially_absent().is_empty());
        assert!(p.active_partition(1.0).is_none());
    }

    #[test]
    fn random_byzantine_placement() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let u = Universe::new(50);
        let p = FailurePlan::none().with_random_byzantine(u, 7, &mut rng);
        assert_eq!(p.byzantine_count(), 7);
        let mut unique: Vec<_> = p.byzantine.clone();
        unique.dedup();
        assert_eq!(unique.len(), 7);
        assert!(p.byzantine.iter().all(|s| s.index() < 50));
    }

    #[test]
    #[should_panic(expected = "cannot corrupt")]
    fn byzantine_count_validated() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let _ = FailurePlan::none().with_random_byzantine(Universe::new(5), 6, &mut rng);
    }

    #[test]
    fn independent_crashes_and_ordering() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let u = Universe::new(100);
        let p = FailurePlan::none()
            .with_transition(5.0, ServerId::new(0), true)
            .with_independent_crashes(u, 0.2, 1.0, &mut rng)
            .with_transition(0.5, ServerId::new(1), true);
        // Sorted by time.
        assert!(p.crashes.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(p.crashes.first().unwrap().at, 0.5);
        // Roughly 20 crashes from the independent model (plus the 2 manual).
        let count = p.crashes.len();
        assert!((10..=35).contains(&count), "count={count}");
    }

    #[test]
    fn crash_wave_is_simultaneous_and_sorted() {
        let p = FailurePlan::none()
            .with_transition(1.0, ServerId::new(9), true)
            .with_crash_wave(0.25, (0..4).map(ServerId::new));
        assert_eq!(p.crashes.len(), 5);
        assert!(p.crashes[..4].iter().all(|c| c.at == 0.25 && c.crash));
        assert_eq!(p.crashes[4].at, 1.0);
    }

    #[test]
    fn recovery_transitions_are_supported() {
        let p = FailurePlan::none()
            .with_transition(1.0, ServerId::new(3), true)
            .with_transition(2.0, ServerId::new(3), false);
        assert!(p.crashes[0].crash);
        assert!(!p.crashes[1].crash);
    }

    #[test]
    fn membership_schedule_is_sorted_and_absence_is_first_event() {
        let p = FailurePlan::none()
            .with_leave(9.0, ServerId::new(2))
            .with_join(5.0, ServerId::new(7))
            .with_join(12.0, ServerId::new(2))
            .with_join(1.0, ServerId::new(9));
        assert!(p.memberships.windows(2).all(|w| w[0].at <= w[1].at));
        // Server 7 and 9 join first → absent at t=0; server 2 leaves first
        // → present at t=0.
        let absent = p.initially_absent();
        assert!(absent.contains(&ServerId::new(7)));
        assert!(absent.contains(&ServerId::new(9)));
        assert!(!absent.contains(&ServerId::new(2)));
        assert_eq!(absent.len(), 2);
    }

    #[test]
    fn joins_within_is_closed_on_both_ends_and_sees_only_that_servers_joins() {
        let s = ServerId::new;
        let p = FailurePlan::none()
            .with_leave(1.0, s(3))
            .with_join(2.0, s(3))
            .with_join(2.0, s(4))
            .with_join(5.0, s(3));
        assert!(p.joins_within(s(3), 2.0, 2.0));
        assert!(p.joins_within(s(3), 1.5, 2.0), "closed on the right");
        assert!(p.joins_within(s(3), 2.0, 3.0), "closed on the left");
        assert!(p.joins_within(s(3), 0.0, 9.0));
        assert!(!p.joins_within(s(3), 2.5, 4.5), "between its two joins");
        assert!(!p.joins_within(s(3), 0.0, 1.5), "a leave is not a join");
        assert!(!p.joins_within(s(5), 0.0, 9.0), "another server's joins");
        assert!(p.joins_within(s(4), 1.0, 2.0));
        assert!(!FailurePlan::none().joins_within(s(3), 0.0, 9.0));
    }

    #[test]
    fn partition_windows_gate_probes_and_links() {
        let p = FailurePlan::none().with_partition(2.0, 6.0, 2);
        // Outside the window nothing is blocked.
        assert!(!p.blocks_probe(1.0, 0, ServerId::new(1)));
        assert!(!p.blocks_link(6.0, ServerId::new(0), ServerId::new(1)));
        // Inside, odd servers are cut off from even variables and from
        // even servers; same-component traffic flows.
        assert!(p.blocks_probe(2.0, 0, ServerId::new(1)));
        assert!(!p.blocks_probe(2.0, 0, ServerId::new(2)));
        assert!(p.blocks_link(3.0, ServerId::new(0), ServerId::new(3)));
        assert!(!p.blocks_link(3.0, ServerId::new(1), ServerId::new(3)));
        assert_eq!(p.active_partition(2.0).unwrap().components, 2);
        assert!(p.active_partition(6.0).is_none());
    }

    #[test]
    #[should_panic(expected = "at least 2 components")]
    fn partition_component_count_validated() {
        let _ = FailurePlan::none().with_partition(0.0, 1.0, 1);
    }

    #[test]
    fn strategy_sleepers_are_exposed() {
        let sleepers = vec![ServerId::new(3), ServerId::new(5)];
        let hot = FailurePlan::none().with_strategy(ByzantineStrategy::HotKeyTargeting {
            sleepers: sleepers.clone(),
            min_writes: 4,
        });
        assert_eq!(hot.sleepers(), &sleepers[..]);
        let stale = FailurePlan::none().with_strategy(ByzantineStrategy::StaleSigned {
            sleepers: sleepers.clone(),
            window: 0.5,
        });
        assert_eq!(stale.sleepers(), &sleepers[..]);
        // The new fields default to the frozen static model, so existing
        // plans compare equal to their pre-churn selves.
        assert_eq!(
            FailurePlan::none(),
            FailurePlan {
                byzantine: vec![],
                crashes: vec![],
                memberships: vec![],
                partitions: vec![],
                strategy: ByzantineStrategy::Static,
            }
        );
    }
}
