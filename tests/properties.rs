//! Property-based tests (proptest) over the core invariants of the paper's
//! constructions, run across randomly drawn parameters rather than the
//! hand-picked values of the unit tests.

use probabilistic_quorums::core::prelude::*;
use probabilistic_quorums::core::probabilistic::params::{
    exact_epsilon_dissemination, exact_epsilon_intersecting, exact_epsilon_masking,
};
use probabilistic_quorums::math::binomial::Binomial;
use probabilistic_quorums::math::bounds;
use probabilistic_quorums::math::hypergeometric::Hypergeometric;
use probabilistic_quorums::math::sampling::sample_k_of_n;
use probabilistic_quorums::protocols::cluster::Cluster;
use probabilistic_quorums::protocols::diffusion::{
    self, count_fresh_correct, diffuse, DiffusionConfig,
};
use probabilistic_quorums::protocols::register::{RegisterFlavor, RegisterMap};
use probabilistic_quorums::protocols::server::{Behavior, Record, VariableId};
use probabilistic_quorums::protocols::timestamp::Timestamp;
use probabilistic_quorums::protocols::value::{TaggedValue, Value};
use probabilistic_quorums::sim::latency::LatencyModel;
use probabilistic_quorums::sim::metrics::{LatencySamples, LATENCY_RELATIVE_ERROR};
use probabilistic_quorums::sim::runner::{DiffusionPolicy, ProtocolKind, SimConfig, Simulation};
use probabilistic_quorums::sim::workload::{KeySpace, Skew};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Binomial pmf sums to 1 and the cdf is a proper distribution function.
    #[test]
    fn binomial_is_a_distribution(n in 1u64..200, p in 0.0f64..=1.0) {
        let d = Binomial::new(n, p).unwrap();
        let total: f64 = (0..=n).map(|k| d.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-8);
        let mut prev = 0.0;
        for k in 0..=n {
            let c = d.cdf(k);
            prop_assert!(c + 1e-12 >= prev);
            prop_assert!((d.cdf(k) + d.sf(k) - 1.0).abs() < 1e-8);
            prev = c;
        }
    }

    /// Hypergeometric overlap law: mean matches n*K/N and the pmf sums to 1.
    #[test]
    fn hypergeometric_is_a_distribution(
        population in 1u64..300,
        successes_frac in 0.0f64..=1.0,
        draws_frac in 0.0f64..=1.0,
    ) {
        let successes = (population as f64 * successes_frac) as u64;
        let draws = (population as f64 * draws_frac) as u64;
        let h = Hypergeometric::new(population, successes, draws).unwrap();
        let total: f64 = (h.min_value()..=h.max_value()).map(|k| h.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-8);
        let weighted: f64 = (h.min_value()..=h.max_value()).map(|k| k as f64 * h.pmf(k)).sum();
        prop_assert!((weighted - h.mean()).abs() < 1e-6);
    }

    /// Lemma 3.15 for arbitrary parameters: the exact non-intersection
    /// probability never exceeds e^{-l^2}, and shrinks as q grows.
    #[test]
    fn lemma_3_15_holds_for_random_parameters(n in 4u32..800, q_frac in 0.02f64..0.5) {
        let q = ((n as f64 * q_frac) as u32).max(1);
        let exact = exact_epsilon_intersecting(n, q).unwrap();
        let ell = q as f64 / (n as f64).sqrt();
        prop_assert!(exact <= bounds::epsilon_intersecting_bound(ell) + 1e-12);
        if q < n {
            let larger = exact_epsilon_intersecting(n, q + 1).unwrap();
            prop_assert!(larger <= exact + 1e-12);
        }
    }

    /// Dissemination epsilon is monotone in b and dominated by the
    /// intersection epsilon from below (more faults can only hurt).
    #[test]
    fn dissemination_epsilon_monotone_in_b(n in 10u32..400, q_frac in 0.05f64..0.4, b_frac in 0.01f64..0.5) {
        let q = ((n as f64 * q_frac) as u32).max(1);
        let b = ((n as f64 * b_frac) as u32).max(1).min(n - 1);
        let eps_b = exact_epsilon_dissemination(n, q, b).unwrap();
        let eps_0 = exact_epsilon_intersecting(n, q).unwrap();
        prop_assert!(eps_b + 1e-12 >= eps_0);
        if b + 1 < n {
            let eps_b1 = exact_epsilon_dissemination(n, q, b + 1).unwrap();
            prop_assert!(eps_b1 + 1e-12 >= eps_b);
        }
    }

    /// The masking epsilon is a probability and is monotone in the read
    /// threshold moving away from the optimum in either direction is never
    /// better than the best k found by scanning.
    #[test]
    fn masking_epsilon_is_a_probability(n in 20u32..400, b_frac in 0.01f64..0.2, ell in 2.1f64..8.0) {
        let b = ((n as f64 * b_frac) as u32).max(1);
        let q = (ell * b as f64).round() as u32;
        prop_assume!(q > 2 * b && q < n && n - q + 1 > b);
        let k = bounds::masking_threshold_k(n as u64, q as u64) as u32;
        prop_assume!(k <= q);
        let eps = exact_epsilon_masking(n, q, b, k).unwrap();
        prop_assert!((0.0..=1.0).contains(&eps));
        // Theorem 5.10 bound dominates.
        prop_assert!(eps <= bounds::masking_bound(n as u64, q as u64, q as f64 / b as f64) + 1e-9);
    }

    /// Sampled quorums of every construction have exactly the advertised
    /// size, lie in the universe and (for strict systems) pairwise intersect.
    #[test]
    fn sampled_quorums_are_well_formed(n in 5u32..300, seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let majority = Majority::new(n).unwrap();
        let a = majority.sample_quorum(&mut rng);
        let b = majority.sample_quorum(&mut rng);
        prop_assert_eq!(a.len(), majority.min_quorum_size());
        prop_assert!(a.intersects(&b));
        prop_assert!(a.iter().all(|s| s.index() < n));

        let q = (n / 3).max(1);
        let eps = EpsilonIntersecting::new(n, q).unwrap();
        let sample = eps.sample_quorum(&mut rng);
        prop_assert_eq!(sample.len(), q as usize);
        prop_assert!(sample.iter().all(|s| s.index() < n));
    }

    /// The six named `R(n, q)` systems are one set system: from equal RNG
    /// states each draws exactly `sample_k_of_n`'s indices and leaves the
    /// stream where `sample_k_of_n` leaves it.
    #[test]
    fn rnq_systems_draw_exactly_sample_k_of_n(
        n in 9u32..300,
        b_frac in 0.0f64..1.0,
        q_frac in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        // 1 <= b <= (n-1)/4 suits both strict thresholds; 2b < q <= n - b
        // suits both probabilistic Byzantine systems.
        let b = 1 + (b_frac * ((n - 1) / 4 - 1) as f64) as u32;
        let q = 2 * b + 1 + (q_frac * (n - 3 * b - 1) as f64) as u32;
        let systems: [Box<dyn QuorumSystem>; 6] = [
            Box::new(EpsilonIntersecting::new(n, q).unwrap()),
            Box::new(ProbabilisticDissemination::new(n, q, b).unwrap()),
            Box::new(ProbabilisticMasking::new(n, q, b).unwrap()),
            Box::new(Majority::with_quorum_size(n, q.max(n / 2 + 1)).unwrap()),
            Box::new(DisseminationThreshold::new(n, b).unwrap()),
            Box::new(MaskingThreshold::new(n, b).unwrap()),
        ];
        for system in &systems {
            let mut reference = ChaCha8Rng::seed_from_u64(seed);
            let size = system.min_quorum_size() as u64;
            let mut indices = sample_k_of_n(&mut reference, size, n as u64).unwrap();
            indices.sort_unstable();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let quorum = system.sample_quorum(&mut rng);
            let members: Vec<u64> = quorum.iter().map(|s| s.index() as u64).collect();
            prop_assert_eq!(&members, &indices, "{}", system.name());
            prop_assert_eq!(rng.next_u64(), reference.next_u64(), "{}", system.name());
        }
    }

    /// The failure probability of the R(n, q) construction is monotone in p,
    /// equals 0 at p=0 and 1 at p=1, and beats any strict system for
    /// 1/2 <= p <= 1 - q/n (Section 3.4).
    #[test]
    fn failure_probability_properties(n in 20u32..500, q_frac in 0.05f64..0.45, p in 0.0f64..=1.0) {
        let q = ((n as f64 * q_frac) as u32).max(1);
        let sys = EpsilonIntersecting::new(n, q).unwrap();
        let f = sys.failure_probability(p);
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert!(sys.failure_probability(0.0) == 0.0);
        prop_assert!((sys.failure_probability(1.0) - 1.0).abs() < 1e-12);
        let f_higher = sys.failure_probability((p + 0.05).min(1.0));
        prop_assert!(f_higher + 1e-9 >= f);
        if p >= 0.5 && p <= 1.0 - q as f64 / n as f64 {
            prop_assert!(f < bounds::strict_failure_probability_floor(n as u64, p) + 1e-12);
        }
    }

    /// BitSet algebra: `union` / `intersection` / `difference` /
    /// `is_subset_of` are mutually consistent with `intersection_count` and
    /// `len` on randomly drawn sets (the word-level fast paths must agree
    /// with the element-level definitions).
    #[test]
    fn bitset_algebra_is_consistent(capacity in 1usize..300, seed in 0u64..10_000) {
        use probabilistic_quorums::core::bitset::BitSet;
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let draw = |rng: &mut ChaCha8Rng| {
            let density = rng.gen_range(0.0..1.0f64);
            let mut s = BitSet::new(capacity);
            for i in 0..capacity {
                if rng.gen_bool(density) {
                    s.insert(i);
                }
            }
            s
        };
        let a = draw(&mut rng);
        let b = draw(&mut rng);

        let union = a.union(&b);
        let inter = a.intersection(&b);
        let a_minus_b = a.difference(&b);
        let b_minus_a = b.difference(&a);

        // Counting identities.
        prop_assert_eq!(inter.len(), a.intersection_count(&b));
        prop_assert_eq!(union.len() + inter.len(), a.len() + b.len());
        prop_assert_eq!(a_minus_b.len() + inter.len(), a.len());
        prop_assert_eq!(b_minus_a.len() + inter.len(), b.len());
        prop_assert_eq!(a.intersects(&b), !inter.is_empty());

        // Element-level agreement.
        for i in 0..capacity {
            prop_assert_eq!(union.contains(i), a.contains(i) || b.contains(i));
            prop_assert_eq!(inter.contains(i), a.contains(i) && b.contains(i));
            prop_assert_eq!(a_minus_b.contains(i), a.contains(i) && !b.contains(i));
        }

        // Subset relations implied by the algebra.
        prop_assert!(inter.is_subset_of(&a) && inter.is_subset_of(&b));
        prop_assert!(a.is_subset_of(&union) && b.is_subset_of(&union));
        prop_assert!(a_minus_b.is_subset_of(&a));
        prop_assert_eq!(a.is_subset_of(&b), a_minus_b.is_empty());
        prop_assert_eq!(a.is_subset_of(&b), inter.len() == a.len());

        // Idempotence / identity cases.
        prop_assert_eq!(a.union(&a).len(), a.len());
        prop_assert_eq!(a.intersection(&a).len(), a.len());
        prop_assert_eq!(a.difference(&a).len(), 0);
        prop_assert!(a.is_subset_of(&a));
    }

    /// `KeySpace` popularity is a valid probability distribution for any
    /// admissible parameters: sums to 1, every key has positive mass, and
    /// the mass is non-increasing in the key rank (hot keys first).  The
    /// sampler only ever produces in-range keys, and its empirical hot-key
    /// share tracks the predicted mass.
    #[test]
    fn keyspace_popularity_is_a_distribution(
        keys in 1u64..600,
        exponent in 0.0f64..2.5,
        uniform in 0u32..2,
        seed in 0u64..10_000,
    ) {
        let ks = if uniform == 1 {
            KeySpace::uniform(keys)
        } else {
            KeySpace::zipf(keys, exponent)
        };
        let p = ks.popularity();
        prop_assert_eq!(p.len(), keys as usize);
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&x| x > 0.0));
        prop_assert!(p.windows(2).all(|w| w[0] >= w[1] - 1e-15));
        if let Skew::Zipf { .. } = ks.skew {
            // Zipf mass ratios follow the power law exactly.
            if keys >= 2 {
                let ratio = p[0] / p[1];
                prop_assert!((ratio - 2f64.powf(exponent)).abs() < 1e-9);
            }
        }
        let sampler = ks.sampler();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let draws = 2000u64;
        let mut hot = 0u64;
        for _ in 0..draws {
            let k = sampler.sample(&mut rng);
            prop_assert!(k < keys);
            if k == 0 {
                hot += 1;
            }
        }
        // Generous sampling slack: 2000 draws, tolerance ~4 sigma.
        let share = hot as f64 / draws as f64;
        let sigma = (p[0] * (1.0 - p[0]) / draws as f64).sqrt();
        prop_assert!(
            (share - p[0]).abs() < 4.0 * sigma + 1e-3,
            "hot share {} vs predicted {}", share, p[0]
        );
    }

    /// `RegisterMap` get/put round-trips per key over a strict system:
    /// every key returns exactly its latest value, regardless of how many
    /// other keys interleave, for both plain and masking flavors.
    #[test]
    fn register_map_round_trips_per_key(
        n in 3u32..40,
        keys in 1u64..24,
        masking in 0u32..2,
        seed in 0u64..10_000,
    ) {
        let sys = Majority::new(n).unwrap();
        let mut cluster = Cluster::new(sys.universe());
        let flavor = if masking == 1 {
            // Threshold 1 over a strict majority: deterministic reads.
            RegisterFlavor::Masking { threshold: 1 }
        } else {
            RegisterFlavor::Safe
        };
        let mut map = RegisterMap::new(&sys, flavor, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Interleaved writes: two rounds so every key is overwritten once.
        for round in 0..2u64 {
            for key in 0..keys {
                let value = 1 + round * 1000 + key;
                prop_assert!(map
                    .put(&mut cluster, &mut rng, key, Value::from_u64(value))
                    .is_ok());
            }
        }
        for key in 0..keys {
            let got = map.get(&mut cluster, &mut rng, key).unwrap();
            prop_assert_eq!(
                got.map(|tv| tv.value),
                Some(Value::from_u64(1001 + key)),
                "key {} must return its own latest value", key
            );
        }
        // A never-written key reads as empty, not as some other key's value.
        let got = map.get(&mut cluster, &mut rng, keys + 7).unwrap();
        prop_assert_eq!(got, None);
    }

    /// The facade adds nothing: a `Register` bound to variable `v` and a
    /// `RegisterMap` of the same flavor, driven by the same seed, return
    /// equal receipts and read results, consume the same RNG draws and
    /// leave clusters that agree on every server — for each flavor, over a
    /// strict and a probabilistic system, with faulty servers and a probe
    /// margin in play.
    #[test]
    fn a_register_and_a_map_of_its_flavor_cannot_be_told_apart(
        flavor in 0u32..3,
        strict in 0u32..2,
        v in 0u64..1_000_000,
        margin in 0usize..4,
        ops in 1u64..40,
        seed in 0u64..10_000,
    ) {
        use probabilistic_quorums::protocols::crypto::{KeyRegistry, SignedValue};
        use probabilistic_quorums::protocols::register::Register;
        use probabilistic_quorums::protocols::server::Behavior;
        use rand::{Rng, RngCore};
        let (majority, loose) = (Majority::new(31).unwrap(), EpsilonIntersecting::new(31, 8).unwrap());
        let sys: &dyn QuorumSystem = if strict == 1 { &majority } else { &loose };
        let mut registry = KeyRegistry::new();
        let key = registry.register(5, seed);
        let flavor = match flavor {
            0 => RegisterFlavor::Safe,
            1 => RegisterFlavor::Dissemination { key, registry },
            _ => RegisterFlavor::Masking { threshold: 2 },
        };
        let mut reg = Register::new(sys, flavor.clone(), 3, v).with_probe_margin(margin);
        let mut map = RegisterMap::new(sys, flavor, 3).with_probe_margin(margin);
        let mut by_reg = Cluster::new(sys.universe());
        by_reg.set_behavior(ServerId::new(0), Behavior::Crashed);
        by_reg.set_behavior(ServerId::new(1), Behavior::ByzantineForge);
        let mut by_map = by_reg.clone();
        let mut rng_reg = ChaCha8Rng::seed_from_u64(seed);
        let mut rng_map = ChaCha8Rng::seed_from_u64(seed);
        let mut script = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        for i in 1..=ops {
            if script.gen_bool(0.5) {
                prop_assert_eq!(
                    reg.write(&mut by_reg, &mut rng_reg, Value::from_u64(i)),
                    map.put(&mut by_map, &mut rng_map, v, Value::from_u64(i))
                );
            } else {
                prop_assert_eq!(
                    reg.read(&mut by_reg, &mut rng_reg),
                    map.get(&mut by_map, &mut rng_map, v)
                );
            }
        }
        prop_assert_eq!(rng_reg.next_u64(), rng_map.next_u64(), "same draws");
        prop_assert_eq!(by_reg.access_counts(), by_map.access_counts());
        prop_assert_eq!(by_reg.total_accesses(), by_map.total_accesses());
        for i in 0..31 {
            let (a, b) = (by_reg.server(ServerId::new(i)), by_map.server(ServerId::new(i)));
            prop_assert_eq!(a.stored::<TaggedValue>(v), b.stored::<TaggedValue>(v));
            prop_assert_eq!(a.stored::<SignedValue>(v), b.stored::<SignedValue>(v));
        }
    }

    /// The cluster's var-major record slabs against a slow model, one
    /// `BTreeMap<(server, var), record>` per record kind: random write
    /// probes under all four behaviours, bare merges, gossip deliveries,
    /// read probes and joins, over dense ids and ids ≥ 2^16, with and
    /// without a capacity plan.  After every step each server's reads and
    /// held ids (ascending) agree with the model, for both kinds.
    #[test]
    fn record_slabs_match_a_map_model(
        n in 1u32..7,
        reserve in 0u64..20,
        steps in 1usize..150,
        seed in 0u64..10_000,
    ) {
        use probabilistic_quorums::protocols::crypto::{SignedValue, SigningKey};
        use rand::Rng;
        let key = SigningKey::derive(1, seed);
        let plain = |v, c| TaggedValue::new(Value::from_u64(v), Timestamp::new(c, 1));
        let signed = |v, c| SignedValue::create(&key, Value::from_u64(v), Timestamp::new(c, 1));
        let mut cluster = Cluster::new(Universe::new(n));
        if reserve > 0 {
            cluster.reserve_variables(reserve);
        }
        let mut behaviors = vec![Behavior::Correct; n as usize];
        let (mut plain_model, mut signed_model) = (SlabModel::new(), SlabModel::new());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..steps {
            let server = ServerId::new(rng.gen_range(0..n));
            match rng.gen_range(0u32..12) {
                0 => {
                    let behavior = BEHAVIORS[rng.gen_range(0..BEHAVIORS.len())];
                    cluster.set_behavior(server, behavior);
                    behaviors[server.as_usize()] = behavior;
                }
                1 => {
                    cluster.join_server(server);
                    behaviors[server.as_usize()] = Behavior::Correct;
                    plain_model.retain(|&(s, _), _| s != server);
                    signed_model.retain(|&(s, _), _| s != server);
                }
                draw if draw % 2 == 0 => {
                    slab_step(&mut cluster, &mut plain_model, &behaviors, server, &mut rng, &plain)
                }
                _ => slab_step(&mut cluster, &mut signed_model, &behaviors, server, &mut rng, &signed),
            }
            slab_agrees(&cluster, &plain_model, n);
            slab_agrees(&cluster, &signed_model, n);
        }
    }

    /// Post-gossip coverage is monotone in rounds: stepping the incremental
    /// plan/deliver rounds on one cluster can only ever add holders of the
    /// freshest record (the merge rule never discards fresh state).
    #[test]
    fn gossip_coverage_is_monotone_in_rounds(
        n in 10u32..150,
        holders in 1u32..6,
        fanout in 1usize..5,
        seed in 0u64..10_000,
    ) {
        use probabilistic_quorums::core::universe::{ServerId, Universe};
        let mut cluster = Cluster::new(Universe::new(n));
        let record = TaggedValue::new(Value::from_u64(7), Timestamp::new(3, 1));
        for i in 0..holders.min(n) {
            cluster
                .server_mut(ServerId::new(i))
                .store_plain_if_fresher(0, record.clone());
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut last = count_fresh_correct::<TaggedValue>(&cluster, 0);
        for _ in 0..6 {
            let plan = diffusion::plan_cluster_round(&cluster, fanout, false, &mut rng);
            for push in &plan.pushes {
                diffusion::deliver(&mut cluster, push);
            }
            let now = count_fresh_correct::<TaggedValue>(&cluster, 0);
            prop_assert!(now >= last, "coverage shrank: {} -> {}", last, now);
            last = now;
        }
        prop_assert!(last >= holders.min(n) as usize);
    }

    /// Post-gossip coverage is monotone in fanout: pushing to 4 peers per
    /// round spreads (at least) as far as pushing to 1, summed over a few
    /// seeds to wash out individual draw luck.
    #[test]
    fn gossip_coverage_is_monotone_in_fanout(n in 30u32..120, seed in 0u64..10_000) {
        use probabilistic_quorums::core::universe::{ServerId, Universe};
        let record = TaggedValue::new(Value::from_u64(1), Timestamp::new(1, 1));
        let run = |fanout: usize, sub: u64| {
            let mut cluster = Cluster::new(Universe::new(n));
            cluster
                .server_mut(ServerId::new(0))
                .store_plain_if_fresher(0, record.clone());
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ sub);
            diffuse::<TaggedValue>(
                &mut cluster,
                0,
                DiffusionConfig { fanout, rounds: 3 },
                &mut rng,
            )
        };
        let narrow: usize = (0..3).map(|s| run(1, s)).sum();
        let wide: usize = (0..3).map(|s| run(4, s)).sum();
        prop_assert!(
            wide >= narrow,
            "fanout 4 covered {} but fanout 1 covered {}",
            wide,
            narrow
        );
    }

    /// Plain and signed diffusion are the same process: with identical
    /// initial holders and the same RNG seed the planners draw identical
    /// peers, so final coverage is identical.
    #[test]
    fn plain_and_signed_diffusion_agree(
        n in 10u32..100,
        variable in 0u64..50,
        fanout in 1usize..4,
        rounds in 1usize..5,
        seed in 0u64..10_000,
    ) {
        use probabilistic_quorums::core::universe::{ServerId, Universe};
        use probabilistic_quorums::protocols::crypto::{KeyRegistry, SignedValue};
        let variable: VariableId = variable;
        let mut registry = KeyRegistry::new();
        let key = registry.register(1, seed);
        let mut plain_cluster = Cluster::new(Universe::new(n));
        let mut signed_cluster = Cluster::new(Universe::new(n));
        let ts = Timestamp::new(2, 1);
        for i in 0..3u32.min(n) {
            plain_cluster
                .server_mut(ServerId::new(i))
                .store_plain_if_fresher(variable, TaggedValue::new(Value::from_u64(9), ts));
            signed_cluster
                .server_mut(ServerId::new(i))
                .store_signed_if_fresher(variable, SignedValue::create(&key, Value::from_u64(9), ts));
        }
        let config = DiffusionConfig { fanout, rounds };
        let mut rng_a = ChaCha8Rng::seed_from_u64(seed);
        let mut rng_b = ChaCha8Rng::seed_from_u64(seed);
        let plain = diffuse::<TaggedValue>(&mut plain_cluster, variable, config, &mut rng_a);
        let signed = diffuse::<SignedValue>(&mut signed_cluster, variable, config, &mut rng_b);
        prop_assert_eq!(plain, signed);
    }

    /// Digest/delta gossip reaches the same fixed point as full-push
    /// gossip: run each mechanism to (near-)convergence on identically
    /// seeded clusters and every correct server ends up holding the
    /// freshest record of every key — and the signed flavor agrees with
    /// the plain one step for step.
    #[test]
    fn digest_diffusion_converges_to_the_full_push_state(
        n in 15u32..80,
        keys in 1u64..6,
        seed in 0u64..10_000,
    ) {
        use probabilistic_quorums::core::universe::{ServerId, Universe};
        use probabilistic_quorums::protocols::crypto::{KeyRegistry, SignedValue};
        let mut registry = KeyRegistry::new();
        let signing = registry.register(1, seed);
        let seed_cluster = |signed: bool| {
            let mut c = Cluster::new(Universe::new(n));
            for k in 0..keys {
                // A deterministic, seed-dependent holder per key.
                let holder = ((seed + 3 * k) % n as u64) as u32;
                let ts = Timestamp::new(2 + k, 1);
                if signed {
                    c.server_mut(ServerId::new(holder)).store_signed_if_fresher(
                        k,
                        SignedValue::create(&signing, Value::from_u64(k), ts),
                    );
                } else {
                    c.server_mut(ServerId::new(holder)).store_plain_if_fresher(
                        k,
                        TaggedValue::new(Value::from_u64(k), ts),
                    );
                }
            }
            c
        };
        // Generous round budget: pull gossip at fanout 3 covers tens of
        // servers in a handful of rounds; 12 makes convergence certain for
        // every deterministic case the runner draws.
        let config = DiffusionConfig { fanout: 3, rounds: 12 };
        let mut push_cluster = seed_cluster(false);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for k in 0..keys {
            diffuse::<TaggedValue>(&mut push_cluster, k, config, &mut rng);
        }
        let mut digest_cluster = seed_cluster(false);
        let mut rng_d = ChaCha8Rng::seed_from_u64(seed ^ 0xd1);
        let stats = diffusion::diffuse_digest::<TaggedValue>(&mut digest_cluster, config, &mut rng_d);
        for k in 0..keys {
            prop_assert_eq!(count_fresh_correct::<TaggedValue>(&push_cluster, k), n as usize);
            prop_assert_eq!(count_fresh_correct::<TaggedValue>(&digest_cluster, k), n as usize);
            // Same fixed point: every server stores the identical record.
            for i in 0..n {
                prop_assert_eq!(
                    push_cluster.server(ServerId::new(i)).stored::<TaggedValue>(k),
                    digest_cluster.server(ServerId::new(i)).stored::<TaggedValue>(k)
                );
            }
        }
        // Each (server, key) was freshened exactly once on the way there.
        prop_assert_eq!(stats.stores, (n as u64 - 1) * keys);
        // The signed flavor replays the plain digest run exactly.
        let mut signed_cluster = seed_cluster(true);
        let mut rng_s = ChaCha8Rng::seed_from_u64(seed ^ 0xd1);
        let signed_stats =
            diffusion::diffuse_digest::<SignedValue>(&mut signed_cluster, config, &mut rng_s);
        prop_assert_eq!(stats, signed_stats);
        for k in 0..keys {
            prop_assert_eq!(
                count_fresh_correct::<SignedValue>(&signed_cluster, k),
                n as usize
            );
        }
    }

    /// Redundant-push savings are monotone in digest accuracy: a digest
    /// that advertises more of its sender's true per-key versions can only
    /// prove *more* transfers redundant, never fewer.
    #[test]
    fn digest_savings_are_monotone_in_digest_accuracy(
        n in 4u32..40,
        keys in 1u64..12,
        cut in 0usize..12,
        seed in 0u64..10_000,
    ) {
        use probabilistic_quorums::core::universe::{ServerId, Universe};
        use std::collections::BTreeSet;
        let mut cluster = Cluster::new(Universe::new(n));
        // Seed a pseudo-random mix of records at two servers so the
        // receiver holds some keys fresher, some staler, some not at all.
        let sender = ServerId::new(0);
        let receiver = ServerId::new(1);
        for k in 0..keys {
            let h = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(k * 0x85eb);
            let (s_ts, r_ts) = (1 + (h % 5), 1 + ((h >> 8) % 5));
            if h % 3 != 0 {
                cluster.server_mut(sender).store_plain_if_fresher(
                    k,
                    TaggedValue::new(Value::from_u64(k), Timestamp::new(s_ts, 1)),
                );
            }
            if (h >> 16) % 3 != 0 {
                cluster.server_mut(receiver).store_plain_if_fresher(
                    k,
                    TaggedValue::new(Value::from_u64(100 + k), Timestamp::new(r_ts, 1)),
                );
            }
        }
        let full_entries: Vec<(VariableId, Timestamp)> = (0..keys)
            .map(|k| (k, cluster.server(sender).stored::<TaggedValue>(k).timestamp))
            .filter(|&(_, ts)| ts != Timestamp::ZERO)
            .collect();
        let digest = |entries: Vec<(VariableId, Timestamp)>| diffusion::GossipDigest {
            from: sender,
            to: receiver,
            signed: false,
            complete: false,
            entries,
        };
        let avoided = |d: &diffusion::GossipDigest| -> u64 {
            diffusion::diff_digest(&cluster, d)
                .map(|diff| diff.avoided.len() as u64)
                .unwrap_or(0)
        };
        // Chain of increasingly accurate digests: each prefix of the full
        // entry list is a strictly-less-informed summary.
        let mut last = 0u64;
        for take in 0..=full_entries.len() {
            let now = avoided(&digest(full_entries[..take].to_vec()));
            prop_assert!(
                now >= last,
                "adding an entry reduced savings: {} -> {} at {}", last, now, take
            );
            last = now;
        }
        // Dropping an arbitrary entry from the full digest never helps.
        if !full_entries.is_empty() {
            let mut pruned = full_entries.clone();
            pruned.remove(cut % full_entries.len());
            prop_assert!(avoided(&digest(pruned)) <= avoided(&digest(full_entries.clone())));
        }
        // And the complete flag only adds volunteered records, never
        // changes what the digest proved redundant.
        let complete = diffusion::GossipDigest {
            complete: true,
            ..digest(full_entries.clone())
        };
        let partial_diff = diffusion::diff_digest(&cluster, &digest(full_entries)).unwrap();
        let complete_diff = diffusion::diff_digest(&cluster, &complete).unwrap();
        prop_assert_eq!(&partial_diff.avoided, &complete_diff.avoided);
        prop_assert!(complete_diff.delta.records.len() >= partial_diff.delta.records.len());
        // Scope check: volunteered keys are exactly the receiver-held keys
        // absent from the digest.
        let advertised: BTreeSet<VariableId> =
            complete.entries.iter().map(|&(v, _)| v).collect();
        for &(v, _) in &complete_diff.delta.records {
            if !advertised.contains(&v) {
                prop_assert!(
                    cluster.server(receiver).stored_timestamp::<TaggedValue>(v) != Timestamp::ZERO
                );
            }
        }
    }

    /// Engine dominance: because gossip only ever freshens server state and
    /// draws from its own RNG stream, a diffusion run completes the exact
    /// same operations as the diffusion-off run with the same seed and its
    /// stale-read count can only be lower — for every seed, period and
    /// fanout, on every key.
    #[test]
    fn engine_diffusion_never_hurts_consistency(
        seed in 0u64..10_000,
        period_idx in 0usize..3,
        fanout in 1u32..4,
    ) {
        let sys = EpsilonIntersecting::new(49, 7).unwrap();
        let mut config = SimConfig::builder()
            .with_duration(8.0)
            .with_arrival_rate(40.0)
            .with_read_fraction(0.8)
            .with_keyspace(KeySpace::zipf(4, 1.0))
            .with_latency(LatencyModel::Exponential { mean: 2e-3 })
            .with_seed(seed)
            .build();
        let off = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        config.diffusion = Some(DiffusionPolicy::full_push([0.05, 0.2, 0.5][period_idx], fanout));
        let on = Simulation::new(&sys, ProtocolKind::Safe, config).run();
        prop_assert_eq!(on.completed_reads, off.completed_reads);
        prop_assert_eq!(on.completed_writes, off.completed_writes);
        prop_assert_eq!(&on.per_server_accesses, &off.per_server_accesses);
        // Gossip can convert an *empty* read (no probed server held any
        // record) into a merely *stale* one, so only the combined
        // stale + empty failure count is dominated read by read.
        prop_assert!(on.stale_reads + on.empty_reads <= off.stale_reads + off.empty_reads);
        for (v_on, v_off) in on.per_variable.iter().zip(off.per_variable.iter()) {
            prop_assert!(
                v_on.stale_reads + v_on.empty_reads <= v_off.stale_reads + v_off.empty_reads
            );
            prop_assert_eq!(v_on.completed_reads, v_off.completed_reads);
        }
        prop_assert!(on.gossip_rounds > 0);
    }

    /// The event queue is observationally identical to its
    /// [`QueueReference`]: random interleavings of `schedule`,
    /// `schedule_batch`, `pop` and `peek_time` produce the same pop
    /// stream, clock, and lengths, event for event, in debug and release
    /// builds alike.  The time modes are clustered (tie-heavy), uniform,
    /// far-future outliers, the engine's own shape (latencies after the
    /// clock, with the drain loop's schedule below a peeked head), timeouts
    /// interleaved with trains and latency singles, and rare far-future
    /// singles that push the lane tail out of reach of the near-term
    /// entries after them.
    #[test]
    fn event_queue_matches_heap_reference(
        seed in 0u64..10_000,
        ops in 50usize..400,
        mode in 0u32..6,
    ) {
        use probabilistic_quorums::sim::time::EventQueue;
        use rand::Rng;
        /// The constant offset of a timeout-shaped entry.
        const TIMEOUT: f64 = 0.05;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut queue = EventQueue::<u64>::new();
        let mut reference = QueueReference::default();
        let mut next_id = 0u64;
        let draw_time = |rng: &mut ChaCha8Rng, now: f64| -> f64 {
            // A message sent now arrives one latency later, a fixed one for
            // a third of them (exact ties, like a round of deltas) and an
            // exponential one otherwise.
            let latency = |rng: &mut ChaCha8Rng| {
                if rng.gen_bool(1.0 / 3.0) {
                    1e-3
                } else {
                    -2e-3 * (1.0 - rng.gen_range(0.0..1.0_f64)).ln()
                }
            };
            match mode {
                // Clustered: eight distinct times, so most events tie and
                // FIFO order within a time carries the whole contract.
                0 => f64::from(rng.gen_range(0u32..8)) * 0.5,
                // Uniform spread over a moderate horizon.
                1 => rng.gen_range(0.0..100.0),
                // Mostly near-term with rare far-future outliers.
                2 => {
                    if rng.gen_bool(0.2) {
                        rng.gen_range(1.0e6..1.0e9)
                    } else {
                        rng.gen_range(0.0..4.0)
                    }
                }
                // Engine-shaped, and the latencies beside mode 4's
                // timeouts.
                3 | 4 => now + latency(rng),
                // A rare far-future single: the lane tail moves out past
                // everything near-term scheduled after it.
                _ => {
                    if rng.gen_bool(0.05) {
                        now + 1e3 + rng.gen_range(0.0..1.0)
                    } else {
                        now + latency(rng)
                    }
                }
            }
        };
        for _ in 0..ops {
            match rng.gen_range(0u32..10) {
                0..=3 => {
                    let now = queue.now();
                    let t = if mode >= 4 && rng.gen_bool(0.5) {
                        now + TIMEOUT
                    } else {
                        draw_time(&mut rng, now)
                    };
                    queue.schedule(t, next_id);
                    reference.schedule(t, next_id);
                    next_id += 1;
                }
                4..=5 => {
                    let n = rng.gen_range(0usize..12);
                    let now = queue.now();
                    let mut batch: Vec<(f64, u64)> = (0..n)
                        .map(|i| (draw_time(&mut rng, now), next_id + i as u64))
                        .collect();
                    next_id += n as u64;
                    reference.pending.extend(batch.iter().copied());
                    queue.schedule_batch(&mut batch);
                }
                6..=8 => {
                    prop_assert_eq!(queue.pop(), reference.pop());
                    prop_assert_eq!(queue.now(), reference.now);
                }
                _ => {
                    let head = queue.peek_time();
                    prop_assert_eq!(head, reference.peek_time());
                    // `World::drain_until`'s pattern: an arrival earlier
                    // than the peeked head sends a message due before it.
                    if let (3.., Some(head)) = (mode, head) {
                        let now = queue.now();
                        let t = now + (head - now) * rng.gen_range(0.0..1.0);
                        queue.schedule(t, next_id);
                        reference.schedule(t, next_id);
                        next_id += 1;
                    }
                }
            }
            prop_assert_eq!(queue.len(), reference.len());
        }
        // Drain both: the remaining pop streams agree element for element.
        while let Some(expect) = reference.pop() {
            prop_assert_eq!(queue.pop(), Some(expect));
        }
        prop_assert!(queue.pop().is_none());
        prop_assert!(queue.is_empty());
    }

    /// Byzantine strict systems: sampled quorum overlaps always meet the
    /// Definition 2.7 requirements.
    #[test]
    fn byzantine_strict_overlap_requirements(n_side in 3u32..12, seed in 0u64..500) {
        let n = n_side * n_side;
        let b = pqs_core::byzantine::max_masking_threshold(n).min(n_side / 2 + 1);
        prop_assume!(b >= 1);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let dis = DisseminationThreshold::new(n, b).unwrap();
        let q1 = dis.sample_quorum(&mut rng);
        let q2 = dis.sample_quorum(&mut rng);
        prop_assert!(q1.intersection_size(&q2) >= (b + 1) as usize);
        let mask = MaskingThreshold::new(n, b).unwrap();
        let q1 = mask.sample_quorum(&mut rng);
        let q2 = mask.sample_quorum(&mut rng);
        prop_assert!(q1.intersection_size(&q2) >= (2 * b + 1) as usize);
    }
}

// The layout cases below run two full simulations per input, so they get a
// smaller case budget than the block above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The engine's determinism claim, fuzzed: for random seeds, arrival
    /// rates, gossip modes, crash waves and shard counts from 1 up, a
    /// 4-shard/2-thread run produces a report bit-identical to the
    /// narrower single-thread run — so planning each round from the
    /// records on their owning shards reads the same state under every
    /// layout.  Full pushes the spine settles at planning time are checked
    /// against a reference spine that queues every push, in
    /// `pqs-sim`'s `parallel::tests`.
    #[test]
    fn sharded_reports_are_shard_and_thread_invariant(
        seed in 0u64..10_000,
        rate in 40.0f64..160.0,
        digest_mode in 0u32..2,
        crash_wave in 0u32..2,
        num_shards in 1u32..4,
    ) {
        let sys = EpsilonIntersecting::new(49, 7).unwrap();
        let config = |num_shards: u32, threads: u32| {
            let policy = if digest_mode == 1 {
                DiffusionPolicy::digest_delta(0.2, 2)
            } else {
                DiffusionPolicy::full_push(0.2, 2)
            };
            SimConfig::builder()
                .with_duration(4.0)
                .with_arrival_rate(rate)
                .with_read_fraction(0.8)
                .with_keyspace(KeySpace::zipf(16, 1.0))
                .with_latency(LatencyModel::Exponential { mean: 2e-3 })
                .with_probe_margin(1)
                .with_op_timeout(0.05)
                .with_max_retries(2)
                .with_crash_probability(if crash_wave == 1 { 0.15 } else { 0.0 })
                .with_diffusion(policy.with_push_latency(LatencyModel::Exponential { mean: 2e-3 }))
                .with_seed(seed)
                .with_num_shards(num_shards)
                .with_threads(threads)
                .build()
        };
        let reference = Simulation::new(&sys, ProtocolKind::Safe, config(num_shards, 1)).run();
        let wide = Simulation::new(&sys, ProtocolKind::Safe, config(4, 2)).run();
        prop_assert!(
            reference.completed_reads + reference.completed_writes > 0,
            "degenerate case: no operations completed"
        );
        prop_assert_eq!(reference, wide);
    }

    /// The scenario engine keeps the layout-invariance claim: random
    /// membership-churn and partition schedules (joins, leaves, an
    /// initially-absent server, healing windows with random component
    /// counts) replay bit-identically across shard and thread counts, for
    /// both gossip modes — including the spine-planned digest gating and
    /// the global-id delta dedup that make blocked-gossip accounting
    /// layout-invariant.
    #[test]
    fn sharded_reports_are_invariant_under_churn_and_partitions(
        seed in 0u64..10_000,
        rate in 40.0f64..160.0,
        digest_mode in 0u32..2,
        leave_at in 0.5f64..2.0,
        heal_at in 1.5f64..3.5,
        num_shards in 1u32..4,
    ) {
        use probabilistic_quorums::sim::failure::FailurePlan;
        let sys = EpsilonIntersecting::new(49, 7).unwrap();
        let plan = || {
            FailurePlan::none()
                .with_join(0.3, ServerId::new(45)) // initially absent
                .with_leave(leave_at, ServerId::new(40))
                .with_leave(leave_at + 0.4, ServerId::new(41))
                .with_join(leave_at + 1.2, ServerId::new(40))
                .with_partition(heal_at * 0.4, heal_at, 2 + (seed % 2) as u32)
        };
        let config = |num_shards: u32, threads: u32| {
            let policy = if digest_mode == 1 {
                DiffusionPolicy::digest_delta(0.2, 2)
            } else {
                DiffusionPolicy::full_push(0.2, 2)
            };
            SimConfig::builder()
                .with_duration(4.0)
                .with_arrival_rate(rate)
                .with_read_fraction(0.8)
                .with_keyspace(KeySpace::zipf(16, 1.0))
                .with_latency(LatencyModel::Exponential { mean: 2e-3 })
                .with_probe_margin(1)
                .with_op_timeout(0.05)
                .with_max_retries(2)
                .with_diffusion(policy.with_push_latency(LatencyModel::Exponential { mean: 2e-3 }))
                .with_seed(seed)
                .with_num_shards(num_shards)
                .with_threads(threads)
                .build()
        };
        let reference = Simulation::new(&sys, ProtocolKind::Safe, config(num_shards, 1))
            .with_failure_plan(plan())
            .run();
        let wide = Simulation::new(&sys, ProtocolKind::Safe, config(4, 2))
            .with_failure_plan(plan())
            .run();
        prop_assert!(
            reference.completed_reads + reference.completed_writes > 0,
            "degenerate case: no operations completed"
        );
        prop_assert_eq!(&reference, &wide);
        prop_assert_eq!(reference.membership_events, 4);
    }

    /// Plan-time resolution of covered pushes under the cases that could
    /// break it: random shard counts, fanouts, round periods and push
    /// latencies of up to several periods, over crash waves with recovery,
    /// leave/rejoin churn and a healing partition.  All times are whole
    /// eighths of a second — exact in binary, so joins, round barriers and
    /// fixed-latency deliveries coincide to the bit again and again.  The
    /// settled pushes' outcomes are diffed against a reference spine that
    /// queues every push, on scenarios drawn from this space, in
    /// `pqs-sim`'s
    /// `parallel::tests::full_push_runs_match_a_reference_spine_that_queues_every_push`.
    #[test]
    fn covered_pushes_resolve_at_planning_time_under_churn_and_partitions(
        seed in 0u64..10_000,
        num_shards in 1u32..7,
        fanout in 1u32..4,
        period_eighths in 1u32..4,
        latency_eighths in 0u32..12,
        fixed_latency in 0u32..2,
        leave_eighths in 2u32..16,
        away_eighths in 0u32..8,
        heal_eighths in 10u32..28,
        wave_eighths in 4u32..28,
    ) {
        use probabilistic_quorums::sim::failure::FailurePlan;
        let eighths = |k: u32| k as f64 * 0.125;
        let sys = EpsilonIntersecting::new(49, 7).unwrap();
        let plan = || {
            FailurePlan::none()
                .with_join(eighths(3), ServerId::new(45)) // initially absent
                .with_leave(eighths(leave_eighths), ServerId::new(40))
                .with_join(eighths(leave_eighths + away_eighths), ServerId::new(40))
                .with_leave(eighths(leave_eighths + 2), ServerId::new(41))
                .with_join(eighths(leave_eighths + 2 + 2 * away_eighths), ServerId::new(41))
                .with_partition(eighths(heal_eighths) * 0.4, eighths(heal_eighths), 2 + (seed % 2) as u32)
                .with_crash_wave(eighths(wave_eighths), (10..16).map(ServerId::new))
                .with_transition(eighths(wave_eighths + 3), ServerId::new(12), false)
        };
        let push_latency = if fixed_latency == 1 {
            LatencyModel::Fixed(eighths(latency_eighths))
        } else {
            LatencyModel::Exponential { mean: eighths(latency_eighths) }
        };
        let config = |num_shards: u32, threads: u32| {
            SimConfig::builder()
                .with_duration(4.0)
                .with_arrival_rate(100.0)
                .with_read_fraction(0.7)
                .with_keyspace(KeySpace::zipf(24, 0.8))
                .with_latency(LatencyModel::Exponential { mean: 2e-3 })
                .with_probe_margin(1)
                .with_op_timeout(0.05)
                .with_max_retries(2)
                .with_diffusion(
                    DiffusionPolicy::full_push(eighths(period_eighths), fanout)
                        .with_push_latency(push_latency),
                )
                .with_seed(seed)
                .with_num_shards(num_shards)
                .with_threads(threads)
                .build()
        };
        let reference = Simulation::new(&sys, ProtocolKind::Safe, config(2, 1))
            .with_failure_plan(plan())
            .run();
        let (wide, stages) = Simulation::new(&sys, ProtocolKind::Safe, config(num_shards, 2))
            .with_failure_plan(plan())
            .run_with_stats();
        prop_assert_eq!(&reference, &wide);
        prop_assert!(wide.gossip_stores > 0, "degenerate case: gossip stored nothing");
        prop_assert_eq!(
            stages.planned_pushes,
            wide.gossip_pushes + wide.partition_blocked_gossip
        );
        prop_assert!(stages.queued_pushes >= wide.gossip_stores);
        prop_assert!(stages.queued_pushes < stages.planned_pushes);
    }

    /// An adaptive adversary is a pure read-side overlay: because sleepers
    /// flip to stale-serving only around a single probe delivery (and a
    /// stale server acknowledges writes like a correct one), the
    /// diffusion-off adaptive run replays its static twin's foreground
    /// trajectory exactly — and can only ever *raise* the combined
    /// stale + empty failure count, never lower it.
    #[test]
    fn adaptive_adversary_never_improves_consistency(
        seed in 0u64..10_000,
        rate in 40.0f64..120.0,
        min_writes in 1u64..4,
        strategy_kind in 0u32..2,
    ) {
        use probabilistic_quorums::sim::failure::{ByzantineStrategy, FailurePlan};
        let sys = EpsilonIntersecting::new(49, 7).unwrap();
        let sleepers: Vec<ServerId> = (4..10).map(ServerId::new).collect();
        let strategy = if strategy_kind == 1 {
            ByzantineStrategy::StaleSigned { sleepers, window: 0.5 }
        } else {
            ByzantineStrategy::HotKeyTargeting { sleepers, min_writes }
        };
        let plan = |strategy: ByzantineStrategy| {
            let mut plan = FailurePlan::none();
            plan.byzantine = (0..4).map(ServerId::new).collect();
            plan.with_strategy(strategy)
        };
        let config = SimConfig::builder()
            .with_duration(6.0)
            .with_arrival_rate(rate)
            .with_read_fraction(0.8)
            .with_keyspace(KeySpace::zipf(8, 1.0))
            .with_latency(LatencyModel::Exponential { mean: 2e-3 })
            .with_probe_margin(1)
            .with_op_timeout(0.05)
            .with_max_retries(2)
            .with_seed(seed)
            .build();
        let stat = Simulation::new(&sys, ProtocolKind::Safe, config)
            .with_failure_plan(plan(ByzantineStrategy::Static))
            .run();
        let adaptive = Simulation::new(&sys, ProtocolKind::Safe, config)
            .with_failure_plan(plan(strategy))
            .run();
        prop_assert_eq!(adaptive.completed_reads, stat.completed_reads);
        prop_assert_eq!(adaptive.completed_writes, stat.completed_writes);
        prop_assert_eq!(adaptive.events_processed, stat.events_processed);
        prop_assert_eq!(&adaptive.per_server_accesses, &stat.per_server_accesses);
        prop_assert_eq!(stat.adaptive_activations, 0);
        prop_assert!(
            adaptive.stale_reads + adaptive.empty_reads
                >= stat.stale_reads + stat.empty_reads,
            "adaptive adversary lowered staleness: {} < {}",
            adaptive.stale_reads + adaptive.empty_reads,
            stat.stale_reads + stat.empty_reads
        );
    }

    /// After a partition heals, diffusion re-converges: the heal is
    /// observed by the coverage tracker and the recorded post-heal coverage
    /// curve (covered keys per round) is monotone non-decreasing and never
    /// exceeds the key count — on one shard and on four.
    #[test]
    fn post_heal_coverage_curve_is_monotone(
        seed in 0u64..10_000,
        rate in 40.0f64..120.0,
        components in 2u32..4,
        sharded in 0u32..2,
    ) {
        use probabilistic_quorums::sim::failure::FailurePlan;
        let sys = EpsilonIntersecting::new(49, 7).unwrap();
        let plan = FailurePlan::none().with_partition(0.8, 2.0, components);
        let mut config = SimConfig::builder()
            .with_duration(4.0)
            .with_arrival_rate(rate)
            .with_read_fraction(0.8)
            .with_keyspace(KeySpace::zipf(16, 1.0))
            .with_latency(LatencyModel::Exponential { mean: 2e-3 })
            .with_probe_margin(1)
            .with_op_timeout(0.05)
            .with_max_retries(2)
            .with_diffusion(
                DiffusionPolicy::full_push(0.2, 2)
                    .with_push_latency(LatencyModel::Exponential { mean: 2e-3 }),
            )
            .with_seed(seed)
            .build();
        if sharded == 1 {
            config.num_shards = 4;
            config.threads = 2;
        }
        let r = Simulation::new(&sys, ProtocolKind::Safe, config)
            .with_failure_plan(plan)
            .run();
        prop_assert_eq!(r.heals_observed, 1);
        prop_assert!(r.post_heal_coverage_completions <= r.heals_observed);
        prop_assert!(r.post_heal_coverage.iter().all(|&c| c <= 16));
        prop_assert!(
            r.post_heal_coverage.windows(2).all(|w| w[1] >= w[0]),
            "post-heal coverage curve regressed: {:?}",
            r.post_heal_coverage
        );
        prop_assert!(r.partition_blocked_gossip > 0);
    }
}

/// Every behaviour a server can take.
const BEHAVIORS: [Behavior; 4] = [
    Behavior::Correct,
    Behavior::Crashed,
    Behavior::ByzantineForge,
    Behavior::ByzantineStale,
];

/// The slab oracle's model of one record kind: what each server holds.
type SlabModel<R> = BTreeMap<(ServerId, VariableId), R>;

/// The ids the slab oracle draws: dense ones and three sparse ones, the
/// first at the tier boundary.
const SLAB_VARS: [VariableId; 9] = [0, 1, 2, 5, 9, 14, 1 << 16, (1 << 16) + 3, u64::MAX / 7];

/// One random step on records of kind `R` at `server`, applied to the
/// cluster and to the model: a write probe, a bare merge, a gossip delivery
/// or a read probe, of a fresh record or (one time in ten) the initial one.
fn slab_step<R: Record>(
    cluster: &mut Cluster,
    model: &mut SlabModel<R>,
    behaviors: &[Behavior],
    server: ServerId,
    rng: &mut ChaCha8Rng,
    make: &dyn Fn(u64, u64) -> R,
) {
    use rand::Rng;
    let var = SLAB_VARS[rng.gen_range(0..SLAB_VARS.len())];
    let record = if rng.gen_bool(0.1) {
        R::initial()
    } else {
        make(var, rng.gen_range(1..6))
    };
    let held = model
        .get(&(server, var))
        .map_or(Timestamp::ZERO, Record::timestamp);
    let fresher = record.timestamp() > held;
    let behavior = behaviors[server.as_usize()];
    let stores = match rng.gen_range(0u32..4) {
        0 => {
            let acked = cluster.probe_write(server, var, &record);
            assert_eq!(acked, behavior != Behavior::Crashed);
            behavior == Behavior::Correct && fresher
        }
        1 => {
            assert_eq!(cluster.server_mut(server).merge(var, &record), fresher);
            fresher
        }
        2 => {
            let stored = diffusion::deliver_record(cluster, server, var, &record.clone().into());
            assert_eq!(stored, behavior == Behavior::Correct && fresher);
            stored
        }
        _ => {
            let stored = model
                .get(&(server, var))
                .cloned()
                .unwrap_or_else(R::initial);
            let expected = match behavior {
                Behavior::Crashed => None,
                Behavior::ByzantineForge => Some(R::forged().unwrap_or(stored)),
                Behavior::Correct | Behavior::ByzantineStale => Some(stored),
            };
            assert_eq!(cluster.probe_read::<R>(server, var), expected);
            false
        }
    };
    if stores {
        model.insert((server, var), record);
    }
}

/// Each server's held ids of kind `R`, ascending, and its record for every
/// drawn id are the model's.
fn slab_agrees<R: Record>(cluster: &Cluster, model: &SlabModel<R>, n: u32) {
    for id in (0..n).map(ServerId::new) {
        let server = cluster.server(id);
        let held: Vec<VariableId> = model
            .range((id, 0)..=(id, VariableId::MAX))
            .map(|(&(_, var), _)| var)
            .collect();
        assert_eq!(server.variables::<R>().collect::<Vec<_>>(), held);
        for var in SLAB_VARS {
            assert_eq!(server.record::<R>(var), model.get(&(id, var)));
        }
    }
}

/// The event queue's contract written the slow way: the pending
/// `(time, event)` entries in insertion order, where a pop takes the
/// minimum `(time, insertion sequence)` by a linear scan — the first of the
/// earliest entries.
#[derive(Default)]
struct QueueReference {
    pending: Vec<(f64, u64)>,
    now: f64,
}

impl QueueReference {
    fn schedule(&mut self, time: f64, event: u64) {
        self.pending.push((time, event));
    }

    fn len(&self) -> usize {
        self.pending.len()
    }

    /// The index of the earliest entry; insertion order breaks ties.
    fn first(&self) -> Option<usize> {
        (0..self.pending.len()).reduce(|best, i| {
            if self.pending[i].0 < self.pending[best].0 {
                i
            } else {
                best
            }
        })
    }

    fn peek_time(&self) -> Option<f64> {
        self.first().map(|i| self.pending[i].0)
    }

    fn pop(&mut self) -> Option<(f64, u64)> {
        let entry = self.pending.remove(self.first()?);
        self.now = self.now.max(entry.0);
        Some(entry)
    }
}

/// The exact sample collection the latency histogram replaced, kept as its
/// oracle: the nearest-rank `p`-th percentile of `samples`.
fn exact_percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The histogram of `samples`, recorded in order.
fn histogram(samples: &[f64]) -> LatencySamples {
    let mut h = LatencySamples::new();
    samples.iter().for_each(|&x| h.record(x));
    h
}

/// `n` latencies spread over `10^−6 .. 10^(−6 + decades)` seconds, with
/// repeats and exact zeros mixed in.
fn latencies(rng: &mut ChaCha8Rng, n: usize, decades: f64) -> Vec<f64> {
    let mut out: Vec<f64> = Vec::with_capacity(n);
    for _ in 0..n {
        let u = rng.next_u64();
        let x = match u % 16 {
            0 => 0.0,
            1 if !out.is_empty() => out[(u >> 8) as usize % out.len()],
            _ => 10f64.powf(-6.0 + decades * (u >> 11) as f64 / (1u64 << 53) as f64),
        };
        out.push(x);
    }
    out
}

const QUANTILES: [f64; 10] = [0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every quantile of the histogram is within its stated relative error
    /// of the exact nearest-rank sample, and merging is a sum: in either
    /// order it gives the histogram of the concatenated samples.
    #[test]
    fn latency_histogram_quantiles_and_merge(
        seed in 0u64..1_000_000,
        len_a in 1usize..400,
        len_b in 0usize..400,
        decades in 0.0f64..9.0,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = latencies(&mut rng, len_a, decades);
        let b = latencies(&mut rng, len_b, decades);
        let ha = histogram(&a);
        for p in QUANTILES {
            let (got, exact) = (ha.percentile(p), exact_percentile(&a, p));
            prop_assert!(
                (got - exact).abs() <= LATENCY_RELATIVE_ERROR * exact * (1.0 + 1e-9),
                "p{} of {} samples: {} against {}", p, a.len(), got, exact
            );
        }
        prop_assert_eq!(ha.count(), a.len());
        prop_assert_eq!(ha.max(), a.iter().copied().fold(0.0, f64::max));
        let exact_mean = a.iter().sum::<f64>() / a.len() as f64;
        prop_assert!((ha.mean() - exact_mean).abs() <= 1e-9, "mean");

        let hb = histogram(&b);
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        let concatenated: Vec<f64> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(&ab, &histogram(&concatenated));
    }
}

/// On one fixed trace — the completion latencies of 10⁵ first-13-of-16
/// probe sets under Pareto(1 ms, 1.9) probe latencies — the histogram's
/// p99 is within its relative error of the exact one, and its variance
/// matches the exact sample variance.
#[test]
fn latency_histogram_p99_matches_the_exact_oracle_on_a_fixed_trace() {
    let model = LatencyModel::Pareto {
        scale: 1e-3,
        shape: 1.9,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(2019);
    let trace: Vec<f64> = (0..100_000)
        .map(|_| {
            let mut probes: Vec<f64> = (0..16).map(|_| model.sample(&mut rng)).collect();
            probes.sort_by(f64::total_cmp);
            probes[12]
        })
        .collect();
    let h = histogram(&trace);
    let exact = exact_percentile(&trace, 99.0);
    assert!(
        (h.p99() - exact).abs() <= LATENCY_RELATIVE_ERROR * exact,
        "p99 {} against exact {exact}",
        h.p99()
    );
    let mean = trace.iter().sum::<f64>() / trace.len() as f64;
    let variance = trace.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (trace.len() - 1) as f64;
    assert!(
        (h.variance() - variance).abs() <= 1e-6 * variance,
        "variance"
    );
}
