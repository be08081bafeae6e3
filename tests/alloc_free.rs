//! The per-message path allocates nothing in steady state.
//!
//! This binary installs a counting global allocator (which is why it is a
//! test target of its own) and asserts a count of **zero** heap requests
//! for the steps the engines repeat per probe and per gossip message, after
//! the stores and buffers they touch have been sized.  The counter is
//! per-thread, so the tests of this binary can run in parallel.
//!
//! Beside them sit the property tests of the two representations this
//! rests on: `Value`'s inline/heap split against a `Vec<u8>` oracle, and
//! the bitmask form of Floyd's sampling against the ordered-set form.

use probabilistic_quorums::core::universe::{ServerId, Universe};
use probabilistic_quorums::math::sampling::sample_k_of_n;
use probabilistic_quorums::protocols::cluster::Cluster;
use probabilistic_quorums::protocols::crypto::{KeyRegistry, SignedValue, SigningKey};
use probabilistic_quorums::protocols::diffusion::{self, GossipPush};
use probabilistic_quorums::protocols::register::session::{ReadMode, ReadSession};
use probabilistic_quorums::protocols::server::AnyRecord;
use probabilistic_quorums::protocols::timestamp::Timestamp;
use probabilistic_quorums::protocols::value::{TaggedValue, Value};
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
}

struct CountingAllocator;

fn count_request() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when the counter is no longer reachable.
    let _ = REQUESTS.try_with(|requests| requests.set(requests.get() + 1));
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract.  The counter is a const-initialised
// thread-local integer without a destructor, so touching it neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_request();
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_request();
        // SAFETY: the caller's obligations are exactly `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_request();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Heap requests this thread makes while `body` runs.
fn requests_during(body: impl FnOnce()) -> u64 {
    let before = REQUESTS.with(Cell::get);
    body();
    REQUESTS.with(Cell::get) - before
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
