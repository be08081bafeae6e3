//! Per-layer micro-timings: each probe times one public function of
//! `pqs-math`, `pqs-core`, `pqs-protocols` or `pqs-sim` from outside, on
//! the parameters the workloads use, and gets one span carrying its call
//! count.

use crate::metrics::PER_LAYER;
use crate::trace::Tracer;
use pqs_core::prelude::*;
use pqs_core::probabilistic::params::exact_epsilon_intersecting;
use pqs_math::plan::{self, ProbeLatency};
use pqs_math::sampling::sample_k_of_n;
use pqs_protocols::cluster::Cluster;
use pqs_protocols::crypto::{KeyRegistry, SignedValue, SigningKey};
use pqs_protocols::diffusion::{self, KeySelector};
use pqs_protocols::register::session::{ReadMode, ReadSession, WriteSession};
use pqs_protocols::register::{DisseminationRegister, MaskingRegister, SafeRegister};
use pqs_protocols::timestamp::Timestamp;
use pqs_protocols::value::{TaggedValue, Value};
use pqs_sim::failure::FailurePlan;
use pqs_sim::latency::LatencyModel;
use pqs_sim::time::{EventQueue, QueueKind};
use pqs_sim::workload::{KeySpace, WorkloadConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times one closure.
pub fn timed<T>(body: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let result = body();
    (start.elapsed(), result)
}

/// Runs every micro-timing for about `budget` seconds of timed work each
/// and returns `(metric name, value in the metric's unit)` pairs.
/// `adversarial_plan` is the failure plan `sim.blocks_probe_ns` queries.
pub fn run_all(
    budget: f64,
    adversarial_plan: &FailurePlan,
    tracer: &mut Tracer,
) -> Vec<(&'static str, f64)> {
    let mut probes = Probes {
        budget,
        tracer,
        results: Vec::new(),
    };
    probes.math();
    probes.core();
    probes.register_operations();
    probes.session_steps();
    probes.full_push_gossip();
    probes.digest_gossip();
    probes.event_queue();
    probes.sim_samplers(adversarial_plan);
    probes.results
}

struct Probes<'t> {
    budget: f64,
    tracer: &'t mut Tracer,
    results: Vec<(&'static str, f64)>,
}

impl Probes<'_> {
    /// Repeats `batch` until its timed parts add up to the budget.  A batch
    /// does its own untimed preparation, then returns how long its calls
    /// took and how many there were; the probe reports the median time per
    /// call over the batches, in the unit the metric table gives `name`.
    fn probe(&mut self, name: &'static str, mut batch: impl FnMut() -> (Duration, u64)) {
        let unit = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the metric table"))
            .unit;
        let per_second = match unit {
            "ns" => 1e9,
            "us" => 1e6,
            "ms" => 1e3,
            other => panic!("{name}: a micro-timing cannot have unit {other}"),
        };
        let budget = self.budget;
        let (span, per_call) = self.tracer.span(name, |_| {
            let started = Instant::now();
            let mut timed_total = 0.0;
            let mut calls_total = 0;
            let mut per_call = Vec::new();
            loop {
                let (elapsed, calls) = batch();
                let elapsed = elapsed.as_secs_f64();
                timed_total += elapsed;
                calls_total += calls;
                if calls > 0 {
                    per_call.push(elapsed / calls as f64);
                }
                // Preparation is untimed but not free: a probe whose
                // batches are mostly preparation stops at four budgets of
                // wall time.
                if timed_total >= budget || started.elapsed().as_secs_f64() >= 4.0 * budget {
                    break;
                }
            }
            let median = crate::metrics::Summary::of(&per_call).map_or(0.0, |s| s.median);
            (calls_total, median)
        });
        let (calls, seconds_per_call) = per_call;
        self.tracer.set_calls(span, calls);
        self.results.push((name, seconds_per_call * per_second));
    }

    /// A probe whose batch is `calls` timed calls of `call` (handed the call's
    /// index) and no preparation.
    fn probe_loop(&mut self, name: &'static str, calls: u64, mut call: impl FnMut(u64)) {
        self.probe(name, || {
            let (elapsed, ()) = timed(|| (0..calls).for_each(&mut call));
            (elapsed, calls)
        });
    }

    fn math(&mut self) {
        for preset in pqs_bench::planner::scenarios() {
            let name = match preset.name {
                "directory" => "math.plan_solve_ms.directory",
                "hotkey" => "math.plan_solve_ms.hotkey",
                "lock" => "math.plan_solve_ms.lock",
                other => panic!("unknown planner preset {other}"),
            };
            self.probe_loop(name, 1, |_| {
                black_box(plan::solve(black_box(&preset.input))).expect("the presets are feasible");
            });
        }
        self.probe_loop("math.nonintersection_us", 200, |_| {
            black_box(plan::nonintersection_probability(
                black_box(100),
                black_box(16),
                16,
            ));
        });
        // The `directory` preset's plan: 25 + 5 probes of 150 servers, 3 down.
        let latency = ProbeLatency::Exponential { mean: 0.005 };
        self.probe_loop("math.predicted_quantile_us", 5, |_| {
            black_box(plan::predicted_quantile(
                black_box(150),
                147,
                25,
                5,
                &latency,
                0.99,
            ));
        });
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for (name, k, n) in [
            ("math.sample_k_of_n_ns.n100", 16, 100),
            ("math.sample_k_of_n_ns.n400", 100, 400),
        ] {
            self.probe_loop(name, 500, |_| {
                black_box(sample_k_of_n(&mut rng, black_box(k), n)).expect("k <= n");
            });
        }
    }

    fn core(&mut self) {
        let register = EpsilonIntersecting::new(100, 16).expect("valid (n, q)");
        let masking = masking_system();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let systems: [(&'static str, &dyn QuorumSystem); 2] = [
            ("core.sample_quorum_ns.n100", &register),
            ("core.sample_quorum_ns.n400", &masking),
        ];
        for (name, system) in systems {
            self.probe_loop(name, 500, |_| {
                black_box(system.sample_quorum(&mut rng));
            });
        }
        let a = masking.sample_quorum(&mut rng);
        let b = masking.sample_quorum(&mut rng);
        self.probe_loop("core.bitset_intersection_ns.n400", 10_000, |_| {
            black_box(black_box(a.as_bitset()).intersection_count(black_box(b.as_bitset())));
        });
        self.probe_loop("core.system_build_ms.masking_n400", 1, |_| {
            black_box(masking_system());
        });
        self.probe_loop("core.exact_epsilon_us.n100", 50, |_| {
            black_box(exact_epsilon_intersecting(black_box(100), 16)).expect("q <= n");
        });
    }

    /// One register write followed by one read on an in-memory cluster.
    fn register_operations(&mut self) {
        const OPS: u64 = 200;
        let mut rng = ChaCha8Rng::seed_from_u64(13);

        let system = EpsilonIntersecting::new(100, 16).expect("valid (n, q)");
        let mut cluster = Cluster::new(system.universe());
        let mut register = SafeRegister::new(&system, 1);
        self.probe_loop("protocols.safe_rw_us.n100", OPS, |i| {
            black_box(register.write(&mut cluster, &mut rng, Value::from_u64(i)))
                .expect("no faults");
            black_box(register.read(&mut cluster, &mut rng)).expect("no faults");
        });

        let system = EpsilonIntersecting::new(60, 12).expect("valid (n, q)");
        let mut cluster = Cluster::new(system.universe());
        let mut registry = KeyRegistry::new();
        let key = registry.register(1, 7);
        let mut register = DisseminationRegister::new(&system, key, registry);
        self.probe_loop("protocols.dissemination_rw_us.n60", OPS, |i| {
            black_box(register.write(&mut cluster, &mut rng, Value::from_u64(i)))
                .expect("no faults");
            black_box(register.read(&mut cluster, &mut rng)).expect("no faults");
        });

        let system = masking_system();
        let mut cluster = Cluster::new(system.universe());
        let mut register = MaskingRegister::new(&system, system.read_threshold(), 1);
        self.probe_loop("protocols.masking_rw_us.n400", OPS, |i| {
            black_box(register.write(&mut cluster, &mut rng, Value::from_u64(i)))
                .expect("no faults");
            black_box(register.read(&mut cluster, &mut rng)).expect("no faults");
        });
    }

    /// The per-reply steps of `ReadSession` / `WriteSession`, including the
    /// session's construction and `finish`, divided over its replies.
    fn session_steps(&mut self) {
        const SESSIONS: usize = 500;
        let stamp = |counter| Timestamp::new(counter, 1);
        let server = ServerId::new(0);

        let q = 16;
        self.probe("protocols.read_reply_ns", || {
            let replies: Vec<Vec<TaggedValue>> = (0..SESSIONS)
                .map(|s| {
                    (0..q)
                        .map(|i| {
                            TaggedValue::new(Value::from_u64(i), stamp(1 + (s as u64 + i) % 3))
                        })
                        .collect()
                })
                .collect();
            let (elapsed, ()) = timed(|| {
                for session_replies in replies {
                    let mut session = ReadSession::new(ReadMode::Safe, q as usize);
                    for reply in session_replies {
                        session.on_plain_reply(server, reply);
                    }
                    black_box(session.finish()).expect("q replies arrived");
                }
            });
            (elapsed, SESSIONS as u64 * q)
        });

        let q = 12;
        let mut registry = KeyRegistry::new();
        let key = registry.register(1, 7);
        self.probe("protocols.signed_reply_ns", || {
            let replies: Vec<Vec<SignedValue>> = (0..SESSIONS)
                .map(|s| {
                    (0..q)
                        .map(|i| {
                            let ts = stamp(1 + (s as u64 + i) % 3);
                            SignedValue::create(&key, Value::from_u64(i), ts)
                        })
                        .collect()
                })
                .collect();
            let (elapsed, ()) = timed(|| {
                for session_replies in replies {
                    let mode = ReadMode::Dissemination(registry.clone());
                    let mut session = ReadSession::new(mode, q as usize);
                    for reply in session_replies {
                        session.on_signed_reply(server, reply);
                    }
                    black_box(session.finish()).expect("q replies arrived");
                }
            });
            (elapsed, SESSIONS as u64 * q)
        });

        let q = 16;
        self.probe("protocols.write_ack_ns", || {
            let (elapsed, ()) = timed(|| {
                for s in 0..SESSIONS {
                    let mut session = WriteSession::new(stamp(s as u64 + 1), q, q);
                    for _ in 0..q {
                        session.on_ack(black_box(true));
                    }
                    black_box(session.finish()).expect("q acks arrived");
                }
            });
            (elapsed, (SESSIONS * q) as u64)
        });
    }

    /// Full-push gossip on a cluster shaped like `sharded_fullpush`'s: 100
    /// servers, 64 keys, records of mixed age so that some pushes freshen
    /// their receiver and some do not.
    fn full_push_gossip(&mut self) {
        let mut cluster = Cluster::new(Universe::new(100));
        cluster.reserve_variables(64);
        for s in 0..100u32 {
            for v in 0..64u64 {
                let age = 1 + (u64::from(s) * 31 + v * 17) % 4;
                let record = TaggedValue::new(Value::from_u64(v), Timestamp::new(age, 1));
                cluster
                    .server_mut(ServerId::new(s))
                    .store_plain_if_fresher(v, record);
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        self.probe("protocols.plan_cluster_round_us", || {
            let (elapsed, round) =
                timed(|| diffusion::plan_cluster_round(&cluster, 2, false, &mut rng));
            black_box(round);
            (elapsed, 1)
        });
        self.probe("protocols.deliver_record_ns", || {
            let round = diffusion::plan_cluster_round(&cluster, 2, false, &mut rng);
            let mut receiver = cluster.clone();
            let (elapsed, ()) = timed(|| {
                for push in &round.pushes {
                    black_box(diffusion::deliver(&mut receiver, push));
                }
            });
            (elapsed, round.pushes.len() as u64)
        });
    }

    /// Digest/delta gossip on a cluster shaped like `adversarial_digest`'s:
    /// 60 servers, 16 keys of signed records of mixed age.
    fn digest_gossip(&mut self) {
        let key = SigningKey::derive(1, 7);
        let mut cluster = Cluster::new(Universe::new(60));
        cluster.reserve_variables(16);
        for s in 0..60u32 {
            for v in 0..16u64 {
                let age = 1 + (u64::from(s) * 31 + v * 17) % 4;
                let record = SignedValue::create(&key, Value::from_u64(v), Timestamp::new(age, 1));
                cluster
                    .server_mut(ServerId::new(s))
                    .store_signed_if_fresher(v, record);
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let all = KeySelector::All;
        self.probe("protocols.plan_digest_us", || {
            let (elapsed, round) =
                timed(|| diffusion::plan_digest(&cluster, 3, true, &all, &mut rng));
            black_box(round);
            (elapsed, 1)
        });
        self.probe("protocols.diff_digest_us", || {
            let round = diffusion::plan_digest(&cluster, 3, true, &all, &mut rng);
            let (elapsed, ()) = timed(|| {
                for digest in &round.digests {
                    black_box(diffusion::diff_digest(&cluster, digest));
                }
            });
            (elapsed, round.digests.len() as u64)
        });
        self.probe("protocols.deliver_delta_ns", || {
            let round = diffusion::plan_digest(&cluster, 3, true, &all, &mut rng);
            let deltas: Vec<_> = round
                .digests
                .iter()
                .filter_map(|digest| diffusion::diff_digest(&cluster, digest))
                .map(|diff| diff.delta)
                .collect();
            let records = deltas.iter().map(|d| d.records.len() as u64).sum();
            let mut receiver = cluster.clone();
            let (elapsed, ()) = timed(|| {
                for delta in &deltas {
                    black_box(diffusion::deliver_delta(&mut receiver, delta));
                }
            });
            (elapsed, records)
        });
    }

    /// The calendar queue's hold cost (pop the earliest event, reschedule
    /// it a uniform `[0, depth)` ahead) at three pending depths, and the
    /// per-event cost of a bulk `schedule_batch`.
    fn event_queue(&mut self) {
        const HOLDS: u64 = 50_000;
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        for (name, depth) in [
            ("sim.queue_hold_ns.d100", 100usize),
            ("sim.queue_hold_ns.d10000", 10_000),
            ("sim.queue_hold_ns.d1000000", 1_000_000),
        ] {
            let span = depth as f64;
            let mut queue = EventQueue::with_kind(QueueKind::Calendar);
            for i in 0..depth {
                queue.schedule(rng.gen_range(0.0..span), i as u64);
            }
            self.probe_loop(name, HOLDS, |_| {
                let (t, event) = queue.pop().expect("hold keeps the queue full");
                queue.schedule(t + rng.gen_range(0.0..span), event);
            });
        }

        const BATCH: usize = 4096;
        let mut queue = EventQueue::with_kind(QueueKind::Calendar);
        for i in 0..100u64 {
            queue.schedule(rng.gen_range(0.0..100.0), i);
        }
        let mut batch: Vec<(f64, u64)> = Vec::with_capacity(BATCH);
        self.probe("sim.queue_schedule_batch_ns", || {
            let now = queue.now();
            batch.extend((0..BATCH).map(|i| (now + rng.gen_range(0.0..100.0), i as u64)));
            let (elapsed, ()) = timed(|| queue.schedule_batch(&mut batch));
            for _ in 0..BATCH {
                black_box(queue.pop());
            }
            (elapsed, BATCH as u64)
        });
    }

    /// The samplers and gates the engine calls per operation or per probe.
    fn sim_samplers(&mut self, adversarial_plan: &FailurePlan) {
        const DRAWS: u64 = 10_000;
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let generator = WorkloadConfig {
            duration: 5.0,
            arrival_rate: 2000.0,
            read_fraction: 0.9,
            keyspace: KeySpace::zipf(64, 1.0),
        };
        self.probe("sim.workload_generate_ns_per_op", || {
            let (elapsed, ops) = timed(|| generator.generate(&mut rng));
            (elapsed, black_box(ops).len() as u64)
        });
        for (name, keyspace) in [
            ("sim.key_sample_ns.zipf64", KeySpace::zipf(64, 1.0)),
            ("sim.key_sample_ns.zipf4096", KeySpace::zipf(4096, 0.8)),
        ] {
            let sampler = keyspace.sampler();
            self.probe_loop(name, DRAWS, |_| {
                black_box(sampler.sample(&mut rng));
            });
        }
        let latency = LatencyModel::Exponential { mean: 2e-3 };
        self.probe_loop("sim.latency_sample_ns", DRAWS, |_| {
            black_box(black_box(&latency).sample(&mut rng));
        });
        let end = adversarial_plan
            .partitions
            .iter()
            .map(|w| w.heals_at)
            .fold(1.0, f64::max);
        self.probe_loop("sim.blocks_probe_ns", DRAWS, |i| {
            let t = end * (i as f64 / DRAWS as f64);
            black_box(adversarial_plan.blocks_probe(
                black_box(t),
                i % 16,
                ServerId::new((i % 60) as u32),
            ));
        });
    }
}

fn masking_system() -> ProbabilisticMasking {
    ProbabilisticMasking::with_target_epsilon(400, 20, 1e-3)
        .expect("R_k(400, q) reaches epsilon 1e-3 with 20 Byzantine servers")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_micro_timing_in_the_metric_table_is_measured_once() {
        let mut tracer = Tracer::new("probes");
        // A zero budget still runs each probe's first batch.
        let plan = FailurePlan::none().with_partition(1.0, 2.0, 2);
        let results = run_all(0.0, &plan, &mut tracer);
        let mut expected: Vec<&str> = PER_LAYER
            .iter()
            .filter(|m| matches!(m.unit, "ns" | "us" | "ms"))
            .map(|m| m.name)
            .filter(|n| *n != "sim.ns_per_event")
            .collect();
        let mut measured: Vec<&str> = results.iter().map(|(n, _)| *n).collect();
        expected.sort_unstable();
        measured.sort_unstable();
        assert_eq!(measured, expected);
        for (name, value) in &results {
            assert!(*value > 0.0 && value.is_finite(), "{name} = {value}");
        }
        assert_eq!(tracer.spans().len(), results.len(), "one span per probe");
        assert!(tracer
            .spans()
            .iter()
            .all(|s| s.calls.is_some_and(|c| c > 0)));
    }
}
