//! The replicated-register client protocol and its three flavors.
//!
//! The paper's three protocols are one: all share the Section 3.1 write —
//! pick a quorum by the access strategy, pick a fresh timestamp, push
//! ⟨v, t⟩ to every quorum member — and differ only in whether the pushed
//! pair is signed and in how a reader condenses the replies.  [`Register`]
//! implements that one protocol; a [`RegisterFlavor`] names the variant,
//! and each variant has its constructor:
//!
//! * [`SafeRegister::new`] (Section 3.1) — pick the reply with the highest
//!   timestamp.  Approximates a multi-reader single-writer safe variable
//!   with probability ≥ 1 − ε under crash failures (Theorem 3.2).
//! * [`DisseminationRegister::new`] (Section 4) — discard replies whose
//!   signature does not verify, then pick the highest timestamp.  Tolerates
//!   `b` Byzantine servers for self-verifying data (Theorem 4.2).
//! * [`MaskingRegister::new`] (Section 5) — only consider value–timestamp
//!   pairs reported by at least `k` servers, then pick the highest
//!   timestamp (`⊥` if none qualifies).  Tolerates `b` Byzantine servers
//!   for arbitrary data (Theorem 5.2).
//!
//! [`RegisterMap`] lifts a flavor into a sharded key–value store: one
//! writer timestamp chain per [`VariableId`](crate::server::VariableId),
//! all keys sharing the quorum system and the replica cluster.

mod client;
pub mod map;
pub mod session;

pub use client::{Register, RegisterFlavor, WriteReceipt};
pub use dissemination::DisseminationRegister;
pub use map::RegisterMap;
pub use masking::MaskingRegister;
pub use safe::SafeRegister;
pub use session::{ProbeSet, ReadMode, ReadSession, SessionStatus, WriteSession};

mod safe {
    use super::{Register, RegisterFlavor};
    use crate::ClientId;
    use pqs_core::system::QuorumSystem;

    /// The Section 3.1 multi-reader single-writer register: a reader picks
    /// the reply with the highest timestamp.
    ///
    /// Theorem 3.2: if a read is not concurrent with any write and only
    /// crash failures occur, the read returns the last written value with
    /// probability at least `1 − ε`.
    #[derive(Debug)]
    pub enum SafeRegister {}

    impl SafeRegister {
        /// Creates a safe-flavor client for variable 0 writing as `writer`.
        #[allow(clippy::new_ret_no_self)]
        pub fn new<S: QuorumSystem + ?Sized>(system: &S, writer: ClientId) -> Register<'_, S> {
            Register::new(system, RegisterFlavor::Safe, writer, 0)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::cluster::Cluster;
        use crate::register::SessionStatus;
        use crate::server::Behavior;
        use crate::value::Value;
        use crate::ProtocolError;
        use pqs_core::probabilistic::EpsilonIntersecting;
        use pqs_core::strict::Majority;
        use pqs_core::universe::ServerId;
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;

        #[test]
        fn read_before_any_write_returns_none() {
            let sys = Majority::new(9).unwrap();
            let mut cluster = Cluster::new(sys.universe());
            let reg = SafeRegister::new(&sys, 1);
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            assert_eq!(reg.read(&mut cluster, &mut rng).unwrap(), None);
            assert_eq!(reg.variable(), 0);
        }

        #[test]
        fn strict_majority_register_is_always_consistent() {
            let sys = Majority::new(15).unwrap();
            let mut cluster = Cluster::new(sys.universe());
            let mut reg = SafeRegister::new(&sys, 1);
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            for i in 1..=200u64 {
                let receipt = reg
                    .write(&mut cluster, &mut rng, Value::from_u64(i))
                    .unwrap();
                assert_eq!(receipt.acks, receipt.quorum_size);
                let got = reg.read(&mut cluster, &mut rng).unwrap().unwrap();
                assert_eq!(got.value, Value::from_u64(i), "write {i}");
            }
        }

        #[test]
        fn stale_read_rate_is_close_to_epsilon() {
            // Theorem 3.2 (empirical): stale reads happen with probability ~eps.
            // Use a deliberately loose system (small quorums) so the effect is
            // visible within a reasonable number of trials.
            let sys = EpsilonIntersecting::new(64, 8).unwrap();
            let eps = pqs_core::system::ProbabilisticQuorumSystem::epsilon(&sys);
            let mut cluster = Cluster::new(sys.universe());
            let mut reg = SafeRegister::new(&sys, 1);
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let trials = 4000u64;
            let mut stale = 0u64;
            for i in 1..=trials {
                reg.write(&mut cluster, &mut rng, Value::from_u64(i))
                    .unwrap();
                let got = reg.read(&mut cluster, &mut rng).unwrap();
                match got {
                    Some(tv) if tv.value == Value::from_u64(i) => {}
                    _ => stale += 1,
                }
            }
            let rate = stale as f64 / trials as f64;
            // The observed stale rate should be of the same order as epsilon
            // (it is actually a bit lower because older values may coincide...
            // they cannot here since each write uses a distinct value, so it
            // should track epsilon closely).
            assert!(
                (rate - eps).abs() < 0.02,
                "stale rate {rate} vs epsilon {eps}"
            );
        }

        #[test]
        fn write_fails_only_when_entire_quorum_is_down() {
            let sys = Majority::new(5).unwrap();
            let mut cluster = Cluster::new(sys.universe());
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            let mut reg = SafeRegister::new(&sys, 1);
            // Crash two servers: every 3-server majority still has a live member.
            cluster.crash_all([ServerId::new(0), ServerId::new(1)]);
            let receipt = reg
                .write(&mut cluster, &mut rng, Value::from_u64(9))
                .unwrap();
            assert!(receipt.acks >= 1);
            // Crash everything: now both reads and writes report unavailability.
            cluster.crash_all((0..5).map(ServerId::new));
            assert!(matches!(
                reg.write(&mut cluster, &mut rng, Value::from_u64(10)),
                Err(ProtocolError::QuorumUnavailable { .. })
            ));
            assert!(matches!(
                reg.read(&mut cluster, &mut rng),
                Err(ProtocolError::QuorumUnavailable { .. })
            ));
        }

        #[test]
        fn reads_survive_partial_crashes_with_high_probability() {
            // With q = 22 of n = 100 and 30 crashed servers, most read quorums
            // still contain live servers holding the latest value.
            let sys = EpsilonIntersecting::new(100, 22).unwrap();
            let mut cluster = Cluster::new(sys.universe());
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            let mut reg = SafeRegister::new(&sys, 1);
            reg.write(&mut cluster, &mut rng, Value::from_u64(42))
                .unwrap();
            cluster.crash_all((0..30).map(ServerId::new));
            let mut ok = 0;
            for _ in 0..200 {
                if let Ok(Some(tv)) = reg.read(&mut cluster, &mut rng) {
                    if tv.value == Value::from_u64(42) {
                        ok += 1;
                    }
                }
            }
            assert!(ok > 150, "only {ok}/200 reads returned the written value");
        }

        #[test]
        fn probe_margin_masks_crashed_quorum_members() {
            // Majority of 5: quorums have size 3. Crash two servers; with a
            // margin of 2 every probe set covers all five servers, so reads and
            // writes always reach the full quorum count of live servers.
            let sys = Majority::new(5).unwrap();
            let mut cluster = Cluster::new(sys.universe());
            cluster.crash_all([ServerId::new(0), ServerId::new(1)]);
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let mut reg = SafeRegister::new(&sys, 1).with_probe_margin(2);
            assert_eq!(reg.probe_margin(), 2);
            for i in 1..=50u64 {
                let receipt = reg
                    .write(&mut cluster, &mut rng, Value::from_u64(i))
                    .unwrap();
                assert_eq!(receipt.acks, 3, "margin should supply 3 live ackers");
                let got = reg.read(&mut cluster, &mut rng).unwrap().unwrap();
                assert_eq!(got.value, Value::from_u64(i));
            }
        }

        #[test]
        fn incremental_session_matches_atomic_read() {
            let sys = Majority::new(9).unwrap();
            let mut cluster = Cluster::new(sys.universe());
            let mut rng = ChaCha8Rng::seed_from_u64(8);
            let mut reg = SafeRegister::new(&sys, 1);
            reg.write(&mut cluster, &mut rng, Value::from_u64(4))
                .unwrap();
            // Drive a read by hand through the session API.
            let probe = reg.sample_probe_set(&mut rng);
            assert_eq!(probe.needed, 5);
            let mut session = reg.begin_read(probe.needed);
            for &id in &probe.servers {
                if session.probe(&mut cluster, id, reg.variable()) == SessionStatus::Complete {
                    break;
                }
            }
            assert!(session.is_complete());
            assert_eq!(session.finish().unwrap().unwrap().value, Value::from_u64(4));
        }

        #[test]
        fn behavior_distribution_does_not_panic_register() {
            // Smoke test mixing behaviours; the safe register makes no Byzantine
            // promises but must not panic or return errors while servers reply.
            let sys = EpsilonIntersecting::new(30, 10).unwrap();
            let mut cluster = Cluster::new(sys.universe());
            cluster.set_behavior(ServerId::new(0), Behavior::ByzantineForge);
            cluster.set_behavior(ServerId::new(1), Behavior::ByzantineStale);
            cluster.set_behavior(ServerId::new(2), Behavior::Crashed);
            let mut rng = ChaCha8Rng::seed_from_u64(6);
            let mut reg = SafeRegister::new(&sys, 1);
            for i in 0..50u64 {
                let _ = reg.write(&mut cluster, &mut rng, Value::from_u64(i));
                let _ = reg.read(&mut cluster, &mut rng);
            }
        }
    }
}

mod dissemination {
    use super::{Register, RegisterFlavor};
    use crate::crypto::{KeyRegistry, SigningKey};
    use pqs_core::system::QuorumSystem;

    /// The Section 4 register for self-verifying data: values are signed by
    /// the writer, and readers discard any reply whose signature does not
    /// verify before picking the highest timestamp.
    ///
    /// Theorem 4.2: with a (b, ε)-dissemination quorum system, a read that
    /// is not concurrent with a write returns the last written value with
    /// probability at least `1 − ε`, despite up to `b` Byzantine servers.
    #[derive(Debug)]
    pub enum DisseminationRegister {}

    impl DisseminationRegister {
        /// Creates a dissemination-flavor client for variable 0.
        ///
        /// `key` is the writer's signing key; `registry` is the verification
        /// material readers use (in a deployment this is the PKI; here it is
        /// the simulated [`KeyRegistry`]).
        #[allow(clippy::new_ret_no_self)]
        pub fn new<S: QuorumSystem + ?Sized>(
            system: &S,
            key: SigningKey,
            registry: KeyRegistry,
        ) -> Register<'_, S> {
            let flavor = RegisterFlavor::Dissemination { key, registry };
            Register::new(system, flavor, key.owner(), 0)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::cluster::Cluster;
        use crate::server::Behavior;
        use crate::value::Value;
        use crate::ProtocolError;
        use pqs_core::probabilistic::ProbabilisticDissemination;
        use pqs_core::universe::ServerId;
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;

        fn setup(n: u32, b: u32) -> (ProbabilisticDissemination, Cluster, KeyRegistry, SigningKey) {
            let sys = ProbabilisticDissemination::with_target_epsilon(n, b, 1e-3).unwrap();
            let cluster = Cluster::new(sys.universe());
            let mut registry = KeyRegistry::new();
            let key = registry.register(1, 11);
            (sys, cluster, registry, key)
        }

        #[test]
        fn read_before_write_returns_none() {
            let (sys, mut cluster, registry, key) = setup(64, 8);
            let reg = DisseminationRegister::new(&sys, key, registry);
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            assert_eq!(reg.read(&mut cluster, &mut rng).unwrap(), None);
            assert_eq!(reg.variable(), 0);
        }

        #[test]
        fn round_trip_with_byzantine_servers_never_returns_forgeries() {
            let (sys, mut cluster, registry, key) = setup(100, 20);
            // Corrupt 20 servers; they can only suppress or replay.
            cluster.corrupt_all((0..20).map(ServerId::new), Behavior::ByzantineStale);
            let mut reg = DisseminationRegister::new(&sys, key, registry);
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            let mut stale = 0usize;
            let trials = 300u64;
            for i in 1..=trials {
                reg.write(&mut cluster, &mut rng, Value::from_u64(i))
                    .unwrap();
                match reg.read(&mut cluster, &mut rng).unwrap() {
                    Some(tv) if tv.value == Value::from_u64(i) => {}
                    Some(tv) => {
                        // Any non-latest reply must still be a genuinely written
                        // (signed) earlier value, never a fabrication.
                        assert!(tv.value.as_u64().unwrap() < i);
                        stale += 1;
                    }
                    None => stale += 1,
                }
            }
            // epsilon <= 1e-3, so a handful of stale reads at most.
            assert!(stale <= 3, "too many stale reads: {stale}");
        }

        #[test]
        fn forging_servers_cannot_pass_verification() {
            let (sys, mut cluster, registry, key) = setup(64, 8);
            cluster.corrupt_all((0..8).map(ServerId::new), Behavior::ByzantineForge);
            let mut reg = DisseminationRegister::new(&sys, key, registry);
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            reg.write(&mut cluster, &mut rng, Value::from_u64(5))
                .unwrap();
            for _ in 0..100 {
                if let Some(tv) = reg.read(&mut cluster, &mut rng).unwrap() {
                    assert_eq!(tv.value, Value::from_u64(5));
                }
            }
        }

        #[test]
        fn unavailable_when_all_crash() {
            let (sys, mut cluster, registry, key) = setup(64, 8);
            cluster.crash_all((0..64).map(ServerId::new));
            let mut reg = DisseminationRegister::new(&sys, key, registry);
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            assert!(matches!(
                reg.write(&mut cluster, &mut rng, Value::from_u64(1)),
                Err(ProtocolError::QuorumUnavailable { .. })
            ));
            assert!(matches!(
                reg.read(&mut cluster, &mut rng),
                Err(ProtocolError::QuorumUnavailable { .. })
            ));
        }

        #[test]
        fn reader_without_writer_key_rejects_everything() {
            // A registry that does not know the writer treats all data as
            // unverifiable, so reads return None — data is suppressed, never
            // forged.
            let sys = ProbabilisticDissemination::with_target_epsilon(64, 8, 1e-3).unwrap();
            let mut cluster = Cluster::new(sys.universe());
            let mut writer_registry = KeyRegistry::new();
            let key = writer_registry.register(1, 11);
            let empty_registry = KeyRegistry::new();
            let mut writer = DisseminationRegister::new(&sys, key, writer_registry);
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            writer
                .write(&mut cluster, &mut rng, Value::from_u64(3))
                .unwrap();
            let reader = DisseminationRegister::new(&sys, key, empty_registry);
            assert_eq!(reader.read(&mut cluster, &mut rng).unwrap(), None);
        }
    }
}

mod masking {
    use super::{Register, RegisterFlavor};
    use crate::ClientId;
    use pqs_core::system::QuorumSystem;

    /// The Section 5 register for arbitrary (non-self-verifying) data: a
    /// reader only accepts a value–timestamp pair reported by at least `k`
    /// servers of its quorum, then picks the highest timestamp among the
    /// accepted pairs, or `⊥` (`None`) if none qualifies.
    ///
    /// Theorem 5.2: with a (b, ε)-masking quorum system and its threshold
    /// `k`, a read not concurrent with a write returns the last written
    /// value with probability at least `1 − ε` despite up to `b` Byzantine
    /// servers storing arbitrary data.
    #[derive(Debug)]
    pub enum MaskingRegister {}

    impl MaskingRegister {
        /// Creates a masking-flavor client for variable 0 with read
        /// threshold `k` (clamped to at least 1).
        ///
        /// For the `R_k(n, q)` construction pass
        /// [`ProbabilisticMasking::read_threshold`](pqs_core::probabilistic::ProbabilisticMasking::read_threshold);
        /// for a strict b-masking system pass `b + 1`.
        #[allow(clippy::new_ret_no_self)]
        pub fn new<S: QuorumSystem + ?Sized>(
            system: &S,
            threshold: usize,
            writer: ClientId,
        ) -> Register<'_, S> {
            let threshold = threshold.max(1);
            Register::new(system, RegisterFlavor::Masking { threshold }, writer, 0)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::cluster::Cluster;
        use crate::server::{forged_value, Behavior};
        use crate::value::Value;
        use crate::ProtocolError;
        use pqs_core::byzantine::MaskingThreshold;
        use pqs_core::probabilistic::ProbabilisticMasking;
        use pqs_core::universe::ServerId;
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;

        #[test]
        fn read_before_write_returns_bottom() {
            let sys = ProbabilisticMasking::with_target_epsilon(64, 4, 1e-3).unwrap();
            let mut cluster = Cluster::new(sys.universe());
            let reg = MaskingRegister::new(&sys, sys.read_threshold(), 1);
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            assert_eq!(reg.read(&mut cluster, &mut rng).unwrap(), None);
            let RegisterFlavor::Masking { threshold } = *reg.flavor() else {
                panic!("a masking register speaks the masking flavor");
            };
            assert_eq!(threshold, sys.read_threshold());
            assert_eq!(reg.variable(), 0);
        }

        #[test]
        fn forged_values_below_threshold_are_rejected() {
            let n = 100u32;
            let b = 5u32;
            let sys = ProbabilisticMasking::with_target_epsilon(n, b, 1e-3).unwrap();
            let mut cluster = Cluster::new(sys.universe());
            cluster.corrupt_all((0..b).map(ServerId::new), Behavior::ByzantineForge);
            let mut reg = MaskingRegister::new(&sys, sys.read_threshold(), 1);
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            let trials = 300u64;
            let mut wrong = 0usize;
            for i in 1..=trials {
                reg.write(&mut cluster, &mut rng, Value::from_u64(i))
                    .unwrap();
                match reg.read(&mut cluster, &mut rng).unwrap() {
                    Some(tv) => {
                        assert_ne!(tv.value, forged_value(), "forgery accepted at read {i}");
                        if tv.value != Value::from_u64(i) {
                            wrong += 1;
                        }
                    }
                    None => wrong += 1,
                }
            }
            // epsilon <= 1e-3: essentially every read returns the latest value.
            assert!(wrong <= 3, "too many incorrect reads: {wrong}");
        }

        #[test]
        fn strict_masking_system_with_threshold_b_plus_one() {
            // The same client code runs over a strict b-masking system with
            // k = b + 1 and is then deterministically safe.
            let b = 3u32;
            let sys = MaskingThreshold::new(25, b).unwrap();
            let mut cluster = Cluster::new(sys.universe());
            cluster.corrupt_all((0..b).map(ServerId::new), Behavior::ByzantineForge);
            let mut reg = MaskingRegister::new(&sys, (b + 1) as usize, 1);
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            for i in 1..=100u64 {
                reg.write(&mut cluster, &mut rng, Value::from_u64(i))
                    .unwrap();
                let got = reg.read(&mut cluster, &mut rng).unwrap().unwrap();
                assert_eq!(got.value, Value::from_u64(i));
            }
        }

        #[test]
        fn large_byzantine_coalition_cannot_forge_but_may_cause_bottom() {
            // With b much larger than the design threshold the reader may return
            // ⊥ more often, but it still never accepts the fabricated value as
            // long as fewer than k forgers land in the read quorum.
            let sys = ProbabilisticMasking::new(100, 40, 10).unwrap();
            let mut cluster = Cluster::new(sys.universe());
            cluster.corrupt_all((0..10).map(ServerId::new), Behavior::ByzantineForge);
            let mut reg = MaskingRegister::new(&sys, sys.read_threshold(), 1);
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            reg.write(&mut cluster, &mut rng, Value::from_u64(7))
                .unwrap();
            let mut forged_accepted = 0usize;
            for _ in 0..200 {
                if let Some(tv) = reg.read(&mut cluster, &mut rng).unwrap() {
                    if tv.value == forged_value() {
                        forged_accepted += 1;
                    }
                }
            }
            // k = ceil(40^2/200) = 8; ten forgers exist, so acceptance is
            // *possible* but must be rare (P(|Q cap B| >= 8) is a few percent at
            // most), far below the ~100% a threshold-free reader would suffer.
            assert!(
                forged_accepted < 20,
                "forgeries accepted {forged_accepted} times out of 200"
            );
        }

        #[test]
        fn unavailable_when_all_crash() {
            let sys = ProbabilisticMasking::with_target_epsilon(64, 4, 1e-3).unwrap();
            let mut cluster = Cluster::new(sys.universe());
            cluster.crash_all((0..64).map(ServerId::new));
            let mut reg = MaskingRegister::new(&sys, sys.read_threshold(), 1);
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            assert!(matches!(
                reg.write(&mut cluster, &mut rng, Value::from_u64(1)),
                Err(ProtocolError::QuorumUnavailable { .. })
            ));
            assert!(matches!(
                reg.read(&mut cluster, &mut rng),
                Err(ProtocolError::QuorumUnavailable { .. })
            ));
        }

        #[test]
        fn threshold_is_clamped_to_at_least_one() {
            let sys = ProbabilisticMasking::with_target_epsilon(64, 4, 1e-3).unwrap();
            let reg = MaskingRegister::new(&sys, 0, 1);
            assert!(matches!(
                reg.flavor(),
                RegisterFlavor::Masking { threshold: 1 }
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::crypto::KeyRegistry;
    use crate::server::Behavior;
    use crate::value::Value;
    use pqs_core::probabilistic::{
        EpsilonIntersecting, ProbabilisticDissemination, ProbabilisticMasking,
    };
    use pqs_core::system::QuorumSystem;
    use pqs_core::universe::ServerId;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// End-to-end: all three registers return the last written value in a
    /// failure-free run.
    #[test]
    fn failure_free_round_trips() {
        let mut rng = ChaCha8Rng::seed_from_u64(100);

        // Safe register over an epsilon-intersecting system.
        let sys = EpsilonIntersecting::with_target_epsilon(64, 1e-3).unwrap();
        let mut cluster = Cluster::new(sys.universe());
        let mut reg = SafeRegister::new(&sys, 1);
        for i in 1..=5u64 {
            reg.write(&mut cluster, &mut rng, Value::from_u64(i))
                .unwrap();
            let got = reg.read(&mut cluster, &mut rng).unwrap().unwrap();
            assert_eq!(got.value, Value::from_u64(i));
        }

        // Dissemination register over signed data.
        let sys = ProbabilisticDissemination::with_target_epsilon(64, 8, 1e-3).unwrap();
        let mut cluster = Cluster::new(sys.universe());
        let mut registry = KeyRegistry::new();
        let key = registry.register(2, 7);
        let mut reg = DisseminationRegister::new(&sys, key, registry.clone());
        reg.write(&mut cluster, &mut rng, Value::from_u64(77))
            .unwrap();
        let got = reg.read(&mut cluster, &mut rng).unwrap().unwrap();
        assert_eq!(got.value, Value::from_u64(77));

        // Masking register.
        let sys = ProbabilisticMasking::with_target_epsilon(64, 4, 1e-3).unwrap();
        let mut cluster = Cluster::new(sys.universe());
        let mut reg = MaskingRegister::new(&sys, sys.read_threshold(), 3);
        reg.write(&mut cluster, &mut rng, Value::from_u64(123))
            .unwrap();
        let got = reg.read(&mut cluster, &mut rng).unwrap().unwrap();
        assert_eq!(got.value, Value::from_u64(123));
    }

    /// The safe register is fooled by forging servers (it has no defence);
    /// the masking register with the same adversary is not, and the
    /// dissemination register rejects forgeries by signature.
    #[test]
    fn byzantine_resistance_comparison() {
        let mut rng = ChaCha8Rng::seed_from_u64(200);
        let n = 64u32;
        let b = 4u32;
        let byz: Vec<ServerId> = (0..b).map(ServerId::new).collect();

        // Safe register: a single forging reply wins because its timestamp
        // is inflated.
        let sys = EpsilonIntersecting::new(n, 20).unwrap();
        let mut cluster = Cluster::new(sys.universe());
        cluster.corrupt_all(byz.clone(), Behavior::ByzantineForge);
        let mut reg = SafeRegister::new(&sys, 1);
        reg.write(&mut cluster, &mut rng, Value::from_u64(1))
            .unwrap();
        let mut fooled = 0;
        for _ in 0..50 {
            let got = reg.read(&mut cluster, &mut rng).unwrap().unwrap();
            if got.value == crate::server::forged_value() {
                fooled += 1;
            }
        }
        assert!(
            fooled > 0,
            "with 4 forgers in 64 servers and q=20, some read should see one"
        );

        // Masking register with threshold k: the forgery needs k colluders in
        // the read quorum, which is unlikely by construction.
        let sys = ProbabilisticMasking::with_target_epsilon(n, b, 1e-3).unwrap();
        let mut cluster = Cluster::new(sys.universe());
        cluster.corrupt_all(byz.clone(), Behavior::ByzantineForge);
        let mut reg = MaskingRegister::new(&sys, sys.read_threshold(), 3);
        reg.write(&mut cluster, &mut rng, Value::from_u64(1))
            .unwrap();
        for _ in 0..50 {
            let got = reg.read(&mut cluster, &mut rng).unwrap();
            if let Some(tv) = got {
                assert_ne!(tv.value, crate::server::forged_value());
            }
        }

        // Dissemination register: forged signatures never verify, so reads
        // return the genuine value even if every forger is contacted.
        let sys = ProbabilisticDissemination::with_target_epsilon(n, b, 1e-3).unwrap();
        let mut cluster = Cluster::new(sys.universe());
        cluster.corrupt_all(byz, Behavior::ByzantineStale);
        let mut registry = KeyRegistry::new();
        let key = registry.register(9, 1);
        let mut reg = DisseminationRegister::new(&sys, key, registry);
        reg.write(&mut cluster, &mut rng, Value::from_u64(5))
            .unwrap();
        for _ in 0..50 {
            let got = reg.read(&mut cluster, &mut rng).unwrap();
            if let Some(sv) = got {
                assert_eq!(sv.value, Value::from_u64(5));
            }
        }
    }
}
