//! The per-message path allocates nothing in steady state, and a run's heap
//! does not grow with its length.
//!
//! This binary installs a counting global allocator (which is why it is a
//! test target of its own) and asserts a count of **zero** heap requests
//! for the steps the engines repeat per probe and per gossip message, after
//! the stores and buffers they touch have been sized, and pins what sizing
//! a cluster's record storage costs.  It also tracks the bytes each thread
//! holds live and their peak, and asserts that a run ten times longer peaks
//! at about the same live heap.  The counters are per-thread, so the tests
//! of this binary can run in parallel.
//!
//! Beside them sit the property tests of the two representations this
//! rests on: `Value`'s inline/heap split against a `Vec<u8>` oracle, and
//! the bitmask form of Floyd's sampling against the ordered-set form.

use probabilistic_quorums::core::probabilistic::EpsilonIntersecting;
use probabilistic_quorums::core::universe::{ServerId, Universe};
use probabilistic_quorums::math::sampling::sample_k_of_n;
use probabilistic_quorums::protocols::cluster::Cluster;
use probabilistic_quorums::protocols::crypto::{KeyRegistry, SignedValue, SigningKey};
use probabilistic_quorums::protocols::diffusion::{
    self, DigestArena, GossipDigest, GossipPush, KeySelector,
};
use probabilistic_quorums::protocols::register::session::{ReadMode, ReadSession};
use probabilistic_quorums::protocols::server::AnyRecord;
use probabilistic_quorums::protocols::timestamp::Timestamp;
use probabilistic_quorums::protocols::value::{TaggedValue, Value};
use probabilistic_quorums::sim::latency::LatencyModel;
use probabilistic_quorums::sim::runner::{DiffusionPolicy, ProtocolKind, SimConfig, Simulation};
use probabilistic_quorums::sim::time::EventQueue;
use probabilistic_quorums::sim::workload::KeySpace;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

thread_local! {
    /// Heap requests (`alloc`, `alloc_zeroed`, `realloc`) made by this thread.
    static REQUESTS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those requests asked for (a `realloc` counts its new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated and has not freed (`dealloc` subtracts;
    /// signed, since a thread may free what another allocated).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` has been since the last [`peak_live_during`].
    static PEAK_LIVE: Cell<i64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_request(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when the counters are no longer reachable.
    let _ = REQUESTS.try_with(|requests| requests.set(requests.get() + 1));
    let _ = BYTES.try_with(|total| total.set(total.get() + bytes as u64));
}

/// Moves this thread's live byte count by `delta`, raising its peak.
fn count_live(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK_LIVE.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract.  The counters are const-initialised
// thread-local integers without a destructor, so touching them neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_request(layout.size());
        count_live(layout.size() as i64);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_request(layout.size());
        count_live(layout.size() as i64);
        // SAFETY: the caller's obligations are exactly `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_request(new_size);
        count_live(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_live(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Heap requests this thread makes while `body` runs, and the bytes they
/// ask for.
fn heap_during(body: impl FnOnce()) -> (u64, u64) {
    let before = (REQUESTS.with(Cell::get), BYTES.with(Cell::get));
    body();
    (
        REQUESTS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

/// Heap requests this thread makes while `body` runs.
fn requests_during(body: impl FnOnce()) -> u64 {
    heap_during(body).0
}

/// The most bytes this thread held live at once while `body` ran, above
/// what it held when `body` started.
fn peak_live_during(body: impl FnOnce()) -> u64 {
    let start = LIVE.with(Cell::get);
    PEAK_LIVE.with(|peak| peak.set(start));
    body();
    (PEAK_LIVE.with(Cell::get) - start) as u64
}

/// The shorter run of the two heap-flatness tests, in simulated seconds:
/// both runs of each test together take a few seconds in a debug build.
const SHORT_RUN: f64 = 3.0;

/// Asserts that `run`, `seconds → peak live bytes`, peaks at no more than
/// 1.10 × its short run's live heap plus 256 KiB over a ten times longer
/// run.
fn assert_heap_flat_in_run_length(short: f64, run: impl Fn(f64) -> u64) {
    let (short_peak, long_peak) = (run(short), run(10.0 * short));
    assert!(
        long_peak as f64 <= 1.10 * short_peak as f64 + 256.0 * 1024.0,
        "{short} s peaked at {short_peak} live bytes, {} s at {long_peak}",
        10.0 * short
    );
}

/// One-shard, one-thread `seq_foreground`-shaped runs (ε-intersecting
/// 100/16, 2 000 op/s, 90 % reads, exponential 2 ms probes): nearly all
/// of the memory such a run could grow is per-operation state.
#[test]
fn a_single_key_run_keeps_its_heap_flat_in_run_length() {
    let system = EpsilonIntersecting::new(100, 16).unwrap();
    assert_heap_flat_in_run_length(SHORT_RUN, |seconds| {
        let config = SimConfig::builder()
            .with_duration(seconds)
            .with_arrival_rate(2000.0)
            .with_read_fraction(0.9)
            .with_latency(LatencyModel::Exponential { mean: 2e-3 })
            .with_seed(1)
            .build();
        let simulation = Simulation::new(&system, ProtocolKind::Safe, config);
        peak_live_during(|| assert!(simulation.run().completed_reads > 0))
    });
}

/// Four-shard full-push runs on one thread: the drain windows are the
/// gossip barriers, and the in-flight gauge's buffers are emptied at each
/// one.  Eight keys and an even read/write mix write every key, and gossip
/// spreads it to every server, within the first rounds, so the record
/// store is at its full size in the shorter run too.
#[test]
fn a_sharded_gossip_run_keeps_its_heap_flat_in_run_length() {
    let system = EpsilonIntersecting::new(100, 16).unwrap();
    assert_heap_flat_in_run_length(SHORT_RUN, |seconds| {
        let config = SimConfig::builder()
            .with_duration(seconds)
            .with_arrival_rate(500.0)
            .with_read_fraction(0.5)
            .with_keyspace(KeySpace::uniform(8))
            .with_latency(LatencyModel::Exponential { mean: 2e-3 })
            .with_diffusion(
                DiffusionPolicy::full_push(0.25, 2)
                    .with_push_latency(LatencyModel::Exponential { mean: 2e-3 }),
            )
            .with_num_shards(4)
            .with_threads(1)
            .with_seed(1)
            .build();
        let simulation = Simulation::new(&system, ProtocolKind::Safe, config);
        peak_live_during(|| assert!(simulation.run().gossip_pushes > 0))
    });
}

const STEPS: u64 = 10_000;
const VARIABLE: u64 = 5;

/// The server every step of these tests addresses.
fn server() -> ServerId {
    ServerId::new(2)
}

fn tagged(value: u64, counter: u64) -> TaggedValue {
    TaggedValue::new(Value::from_u64(value), Timestamp::new(counter, 1))
}

/// A cluster whose stores are sized and already hold a record for
/// `VARIABLE` at `server()`, plain and signed, written at counter 1.
fn warm_cluster(key: &SigningKey) -> Cluster {
    let mut cluster = Cluster::new(Universe::new(8));
    cluster.reserve_variables(16);
    assert!(cluster.probe_write(server(), VARIABLE, &tagged(0, 1)));
    let signed = SignedValue::create(key, Value::from_u64(0), Timestamp::new(1, 1));
    assert!(cluster.probe_write(server(), VARIABLE, &signed));
    cluster
}

#[test]
fn the_counter_sees_allocations() {
    assert_eq!(
        requests_during(|| drop(std::hint::black_box(vec![1u8; 64]))),
        1
    );
    assert_eq!(requests_during(|| ()), 0);
}

#[test]
fn read_probes_into_a_sized_session_allocate_nothing() {
    let key = SigningKey::derive(1, 7);
    let mut cluster = warm_cluster(&key);

    let mut session = ReadSession::new(ReadMode::Safe, STEPS as usize);
    let requests = requests_during(|| {
        for _ in 0..STEPS {
            let reply = cluster
                .probe_read::<TaggedValue>(server(), VARIABLE)
                .expect("correct");
            session.on_plain_reply(server(), reply);
        }
    });
    assert_eq!(requests, 0, "plain read probe + reply");
    assert!(session.is_complete());

    let mut registry = KeyRegistry::new();
    registry.register(1, 7);
    // Taking the registry into a session shares its table.
    let mut mode = None;
    let requests = requests_during(|| {
        mode = Some(ReadMode::Dissemination(registry.clone()));
    });
    assert_eq!(requests, 0, "registry clone");
    let mut session = ReadSession::new(mode.expect("set above"), STEPS as usize);
    let requests = requests_during(|| {
        for _ in 0..STEPS {
            let reply = cluster
                .probe_read::<SignedValue>(server(), VARIABLE)
                .expect("correct");
            session.on_signed_reply(server(), reply);
        }
    });
    assert_eq!(requests, 0, "signed read probe + reply");
    assert_eq!(
        session
            .finish()
            .expect("replies arrived")
            .map(|tv| tv.timestamp),
        Some(Timestamp::new(1, 1))
    );
}

#[test]
fn write_probes_allocate_nothing_whether_or_not_they_store() {
    let key = SigningKey::derive(1, 7);
    let mut cluster = warm_cluster(&key);

    let requests = requests_during(|| {
        for i in 0..STEPS {
            // Ever fresher: every probe replaces the stored record.
            assert!(cluster.probe_write(server(), VARIABLE, &tagged(i, 2 + i)));
            let signed = SignedValue::create(&key, Value::from_u64(i), Timestamp::new(2 + i, 1));
            assert!(cluster.probe_write(server(), VARIABLE, &signed));
        }
    });
    assert_eq!(requests, 0, "write probes that store");
    let stored = cluster.server(server());
    assert_eq!(
        stored.stored_timestamp::<TaggedValue>(VARIABLE).counter(),
        1 + STEPS
    );
    assert_eq!(
        stored.stored_timestamp::<SignedValue>(VARIABLE).counter(),
        1 + STEPS
    );

    let stale = tagged(9, 1);
    let stale_signed = SignedValue::create(&key, Value::from_u64(9), Timestamp::new(1, 1));
    let requests = requests_during(|| {
        for _ in 0..STEPS {
            // Acknowledged, never stored.
            assert!(cluster.probe_write(server(), VARIABLE, &stale));
            assert!(cluster.probe_write(server(), VARIABLE, &stale_signed));
        }
    });
    assert_eq!(requests, 0, "write probes that do not store");
    assert_eq!(
        cluster
            .server(server())
            .stored_timestamp::<TaggedValue>(VARIABLE)
            .counter(),
        1 + STEPS
    );
}

#[test]
fn a_gossip_delivery_that_stores_nothing_allocates_nothing() {
    let key = SigningKey::derive(1, 7);
    let mut cluster = warm_cluster(&key);
    let push = |record| GossipPush {
        from: ServerId::new(0),
        to: server(),
        variable: VARIABLE,
        record,
    };
    // As fresh as what the receiver holds, so not strictly fresher.
    let plain = push(AnyRecord::Plain(tagged(0, 1)));
    let signed = push(AnyRecord::Signed(SignedValue::create(
        &key,
        Value::from_u64(0),
        Timestamp::new(1, 1),
    )));
    // A payload beyond the inline capacity lives on the heap: the merge
    // must turn it down on its timestamp before copying it.
    let long = push(AnyRecord::Plain(TaggedValue::new(
        Value::new(vec![7; 4 * Value::INLINE_CAPACITY]),
        Timestamp::new(1, 1),
    )));
    let requests = requests_during(|| {
        for _ in 0..STEPS {
            assert!(!diffusion::deliver(&mut cluster, &plain));
            assert!(!diffusion::deliver(&mut cluster, &signed));
            assert!(!diffusion::deliver(&mut cluster, &long));
        }
    });
    assert_eq!(requests, 0);
}

#[test]
fn diffing_a_digest_into_a_warmed_buffer_allocates_nothing() {
    // The receiver holds keys 0..12 at counter 1 + key % 3; the digest
    // advertises the even keys at counter 2, so some records ride back,
    // some are proven redundant and, when the digest is complete, the odd
    // keys are volunteered.
    let key = SigningKey::derive(1, 7);
    let mut cluster = Cluster::new(Universe::new(8));
    cluster.reserve_variables(16);
    for var in 0..12u64 {
        let ts = Timestamp::new(1 + var % 3, 1);
        assert!(cluster.probe_write(server(), var, &tagged(var, 1 + var % 3)));
        let signed = SignedValue::create(&key, Value::from_u64(var), ts);
        assert!(cluster.probe_write(server(), var, &signed));
    }
    let entries: Vec<(u64, Timestamp)> = (0..12u64)
        .step_by(2)
        .map(|var| (var, Timestamp::new(2, 1)))
        .collect();
    let mut records = Vec::new();
    for signed in [false, true] {
        for complete in [false, true] {
            let digest = GossipDigest {
                from: ServerId::new(0),
                to: server(),
                signed,
                complete,
                entries: entries.clone(),
            };
            // Sized by one diff of the same digest.
            assert!(diffusion::diff_digest_into(
                &cluster,
                &digest,
                &mut records,
                |_| ()
            ));
            let sent = records.len();
            let mut avoided = 0u64;
            let requests = requests_during(|| {
                for _ in 0..STEPS {
                    records.clear();
                    diffusion::diff_digest_into(&cluster, &digest, &mut records, |_| avoided += 1);
                }
            });
            assert_eq!(requests, 0, "signed {signed}, complete {complete}");
            assert_eq!(records.len(), sent);
            assert_eq!(
                sent,
                if complete { 8 } else { 2 },
                "2 fresher + 6 volunteered"
            );
            assert_eq!(avoided, 4 * STEPS, "keys 0, 4, 6 and 10");
            records.clear();
        }
    }
}

#[test]
fn planning_a_digest_round_into_warmed_buffers_allocates_only_the_coverage_snapshot() {
    // The repo benchmark's digest shape: 16 keys of signed records of
    // mixed age on every server, fanout 3.  Once the arena has grown to a
    // round's size, a round's heap requests are the returned coverage
    // snapshot's, whatever the number of servers.
    let key = SigningKey::derive(1, 7);
    let planned = |n: u32| {
        let mut cluster = Cluster::new(Universe::new(n));
        cluster.reserve_variables(16);
        for s in 0..n {
            for v in 0..16u64 {
                let age = 1 + (u64::from(s) * 31 + v * 17) % 4;
                let record = SignedValue::create(&key, Value::from_u64(v), Timestamp::new(age, 1));
                assert!(cluster.probe_write(ServerId::new(s), v, &record));
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let mut arena = DigestArena::default();
        let plan = |rng: &mut ChaCha8Rng, arena: &mut DigestArena| {
            diffusion::plan_digest_into::<SignedValue, _>(
                &cluster,
                3,
                &KeySelector::All,
                rng,
                arena,
            )
        };
        for _ in 0..3 {
            plan(&mut rng, &mut arena);
        }
        let mut coverage = Vec::new();
        let requests = requests_during(|| coverage = plan(&mut rng, &mut arena).0);
        assert_eq!(coverage.len(), 16);
        assert_eq!(arena.entries.len(), 16 * n as usize, "one range per sender");
        requests
    };
    // A 16-entry snapshot collects through 4, 8 and 16 slots.
    let requests = planned(60);
    assert_eq!(requests, 3, "the coverage snapshot and nothing else");
    assert_eq!(planned(240), requests, "independent of n");
}

#[test]
fn sizing_a_cluster_takes_a_constant_number_of_heap_requests() {
    // `write_heavy_masking`'s shape: 400 servers planned for 4096 keys,
    // then one plain store.  Five requests whatever `n` is: the
    // behaviour and access-count vectors, then the plain slab's handle
    // slots and its per-block handles at their planned size, and its
    // arena's first entries.  Planning allocates nothing, and no signed
    // slab is allocated, since nothing signed is stored.
    const KEYS: u64 = 4096;
    let sized = |n: u32| {
        heap_during(|| {
            let mut cluster = Cluster::new(Universe::new(n));
            cluster.reserve_variables(KEYS);
            assert!(cluster.probe_write(server(), 0, &tagged(1, 1)));
            std::hint::black_box(&cluster);
        })
    };
    let (requests, bytes) = sized(400);
    assert_eq!(requests, 5);
    assert_eq!(sized(8).0, requests, "independent of n");
    // A four-byte handle per slot and per block; the records themselves
    // are interned, one arena entry per distinct record.
    let plain_slab = (KEYS * 400 + KEYS) * std::mem::size_of::<u32>() as u64;
    assert!(
        (plain_slab..plain_slab + 8 * 1024).contains(&bytes),
        "{bytes} bytes for a {plain_slab}-byte plain slab"
    );
}

#[test]
fn sampling_a_quorum_allocates_only_its_output() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let requests = requests_during(|| {
        for _ in 0..STEPS {
            let quorum = sample_k_of_n(&mut rng, 16, 100).expect("k <= n");
            assert_eq!(quorum.len(), 16);
        }
    });
    assert_eq!(requests, STEPS, "one vector per call and nothing else");
}

#[test]
fn a_probe_train_allocates_nothing_once_warm() {
    // The probe fan-out of a masking write: 100 quorum members plus an
    // 8-server margin, with replies landing out of send order.
    const TRAIN: u64 = 108;
    let train = |start: f64| (0..TRAIN).map(move |i| (start + ((i * 37) % TRAIN) as f64 * 1e-4, i));
    let mut queue: EventQueue<u64> = EventQueue::new();
    // One train scheduled and drained sizes the recycled train buffer and
    // the heap of train heads (and, in debug builds, the shadow heap).
    queue.schedule_train(train(0.0));
    while queue.pop().is_some() {}
    let mut popped = 0;
    let requests = requests_during(|| {
        for round in 1..=100 {
            queue.schedule_train(train(f64::from(round)));
            while queue.pop().is_some() {
                popped += 1;
            }
        }
    });
    assert_eq!(popped, 100 * TRAIN);
    assert_eq!(requests, 0);
}

#[test]
fn a_round_of_trains_timeouts_and_deltas_allocates_nothing_once_warm() {
    // Per round, the production queue's three sources each take what the
    // engine gives them: a probe train, a timeout one `op_timeout` after
    // the clock (the lane) and a delta due before that timeout (a single,
    // since it is earlier than the lane tail).
    const TRAIN: u64 = 16;
    const OP_TIMEOUT: f64 = 0.5;
    let mut queue: EventQueue<u64> = EventQueue::new();
    let round = |queue: &mut EventQueue<u64>| {
        let now = queue.now();
        queue.schedule_train((0..TRAIN).map(|i| (now + ((i * 7) % TRAIN) as f64 * 1e-3, i)));
        queue.schedule(now + OP_TIMEOUT, TRAIN);
        queue.schedule(now + 2e-3, TRAIN + 1);
        let mut popped = 0;
        while queue.pop().is_some() {
            popped += 1;
        }
        popped
    };
    // Warm-up rounds size the train buffer, the heaps of train heads and
    // singles, the lane (and, in debug builds, the shadow heap).
    for _ in 0..4 {
        round(&mut queue);
    }
    let mut popped = 0;
    let requests = requests_during(|| {
        for _ in 0..100 {
            popped += round(&mut queue);
        }
    });
    assert_eq!(popped, 100 * (TRAIN + 2));
    assert_eq!(requests, 0);
}

/// Floyd's algorithm over an ordered set, as `sample_k_of_n` ran it before
/// it had a bitmask form: the reference for the draws and the output.
fn floyd_reference(rng: &mut ChaCha8Rng, k: u64, n: u64) -> Vec<u64> {
    let mut chosen = BTreeSet::new();
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    chosen.into_iter().collect()
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

fn random_bytes(rng: &mut ChaCha8Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `Value` is indistinguishable from the `Vec<u8>` it used to wrap, on
    /// both sides of the inline/heap boundary.
    #[test]
    fn value_agrees_with_a_byte_vector(len in 0usize..=64, other_len in 0usize..=64, seed in 0u64..1_000_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let bytes = random_bytes(&mut rng, len);
        // Half the time a near copy, so equality is exercised both ways.
        let other = if seed % 2 == 0 {
            let mut near = bytes.clone();
            if let Some(last) = near.last_mut() {
                *last ^= (seed % 3) as u8;
            }
            near
        } else {
            random_bytes(&mut rng, other_len)
        };
        let value = Value::new(bytes.clone());
        let other_value = Value::from(other.clone());

        prop_assert_eq!(value.as_bytes(), &bytes[..]);
        prop_assert_eq!(value.as_ref(), &bytes[..]);
        prop_assert_eq!(value.len(), bytes.len());
        prop_assert_eq!(value.is_empty(), bytes.is_empty());
        let as_u64 = <[u8; 8]>::try_from(&bytes[..]).ok().map(u64::from_le_bytes);
        prop_assert_eq!(value.as_u64(), as_u64);
        let display = match as_u64 {
            Some(v) => format!("u64:{v}"),
            None => format!("bytes[{len}]"),
        };
        prop_assert_eq!(value.to_string(), display);

        prop_assert_eq!(value == other_value, bytes == other);
        prop_assert_eq!(&value.clone(), &value);
        prop_assert_eq!(hash_of(&value), hash_of(&bytes));
        prop_assert_eq!(hash_of(&value) == hash_of(&other_value), hash_of(&bytes) == hash_of(&other));
        if let Ok(text) = std::str::from_utf8(&bytes) {
            prop_assert_eq!(Value::from_str_value(text), value);
        }
    }

    /// The bitmask form of Floyd's algorithm makes the ordered-set form's
    /// draws and returns its output, and past the mask limit the ordered
    /// set still serves.
    #[test]
    fn sampling_matches_ordered_set_floyd(seed in 0u64..1_000_000, n_pick in 0u64..3000, k_frac in 0.0f64..=1.0) {
        // The mask holds universes of up to 1024 servers.
        let n = match seed % 6 {
            0 => 1023,
            1 => 1024,
            2 => 1025,
            _ => n_pick,
        };
        let k = match seed % 5 {
            0 => 0,
            1 => n,
            _ => (n as f64 * k_frac) as u64,
        };
        let mut sampled_rng = ChaCha8Rng::seed_from_u64(seed);
        let mut reference_rng = ChaCha8Rng::seed_from_u64(seed);
        let sampled = sample_k_of_n(&mut sampled_rng, k, n).unwrap();
        prop_assert_eq!(&sampled, &floyd_reference(&mut reference_rng, k, n));
        prop_assert_eq!(sampled.len() as u64, k);
        // Draw for draw: both generators stand at the same position.
        prop_assert_eq!(sampled_rng.gen_range(0..u64::MAX), reference_rng.gen_range(0..u64::MAX));
    }
}
