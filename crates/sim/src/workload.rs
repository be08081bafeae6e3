//! Open-loop workload generation over a sharded key space.
//!
//! Clients issue operations following a Poisson arrival process with a
//! configurable read/write mix — the standard open-loop model for a
//! replicated service such as the location directory of Section 1.1, where
//! device moves (writes) are far rarer than caller lookups (reads).
//!
//! Each operation targets one key of a [`KeySpace`]: the directory holds one
//! replicated variable per device, and real key popularity is skewed — a few
//! hot devices absorb most lookups.  The key space models that with a
//! uniform or Zipf popularity law ([`Skew`]); the per-key arrival stream the
//! simulator sees is exactly the per-variable load profile the paper's
//! ε/load analysis is stated against.
//!
//! The engine draws that stream lazily, key by key: a Poisson process of
//! rate `λ` whose arrivals pick key `v` with probability `p_v` is the
//! superposition of independent Poisson processes of rates `λ · p_v`, one
//! per key (Poisson splitting), and independent read/write marks stay
//! independent under the split.  So each key draws its own arrivals from
//! its own ChaCha stream (`key_stream_seed`), a world merges the next
//! arrivals of the keys it owns by `(time, key)`, and no run holds more of
//! its workload than one pending arrival per key — a key's history is its
//! own, whatever else shares its world, which is Kishon's argument for
//! judging each key on its own.  [`WorkloadConfig::generate`] draws the
//! same process as one global trace; it is the oracle the per-key streams
//! are tested against.

use crate::time::SimTime;
use pqs_protocols::server::VariableId;
use rand::Rng;
use rand::RngCore;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Seed of variable `var`'s private RNG stream: a splitmix64-style mix of
/// the run seed and the variable id, so neighbouring variables get
/// statistically independent streams and the mapping is stable across
/// shard counts (it depends on the *variable*, never on the shard).
pub(crate) fn key_stream_seed(seed: u64, var: VariableId) -> u64 {
    let mut z = seed ^ var.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Salt that separates a key's arrival stream from its protocol stream:
/// the arrivals of key `v` draw from `key_stream_seed(seed ^ ARRIVAL_SALT,
/// v)`.
const ARRIVAL_SALT: u64 = 0x5851_f42d_4c95_7f2d;

/// The kind of a client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A read of a replicated variable.
    Read,
    /// A write of a fresh value.
    Write,
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Operation {
    /// Arrival (start) time of the operation.
    pub at: SimTime,
    /// Whether it is a read or a write.
    pub kind: OpKind,
    /// The key (replicated variable) the operation targets.
    pub variable: VariableId,
}

/// How key popularity is distributed across the key space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Skew {
    /// Every key is equally likely.
    Uniform,
    /// Key `i` (0-based) is drawn with probability proportional to
    /// `1 / (i + 1)^exponent` — the classic Zipf law; exponent 0 is
    /// uniform, exponent 1 the canonical web/cache skew.
    Zipf {
        /// The Zipf exponent (≥ 0).
        exponent: f64,
    },
}

impl std::fmt::Display for Skew {
    /// Canonical short name used in experiment tables: `uniform` or
    /// `zipf(s)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Skew::Uniform => write!(f, "uniform"),
            Skew::Zipf { exponent } => write!(f, "zipf({exponent})"),
        }
    }
}

/// The key space one workload shards over: how many keys exist and how
/// popular each is.
///
/// The single-key space ([`KeySpace::single`], the default) reproduces the
/// one-register workloads exactly: key 0 is assigned without consuming any
/// randomness, so a 1-key trace is RNG-stream-identical to the pre-sharding
/// generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeySpace {
    /// Number of distinct keys (≥ 1).
    pub keys: u64,
    /// Popularity law across the keys.
    pub skew: Skew,
}

impl Default for KeySpace {
    /// One key — the single-register workload.
    fn default() -> Self {
        KeySpace::single()
    }
}

impl KeySpace {
    /// The single-register key space (key 0 only).
    pub fn single() -> Self {
        KeySpace {
            keys: 1,
            skew: Skew::Uniform,
        }
    }

    /// A uniformly popular key space of `keys` keys.
    pub fn uniform(keys: u64) -> Self {
        KeySpace {
            keys,
            skew: Skew::Uniform,
        }
    }

    /// A Zipf-skewed key space of `keys` keys.
    pub fn zipf(keys: u64, exponent: f64) -> Self {
        KeySpace {
            keys,
            skew: Skew::Zipf { exponent },
        }
    }

    /// Validates the key space.
    ///
    /// # Panics
    ///
    /// Panics if there are zero keys or the Zipf exponent is negative or
    /// non-finite.
    fn validate(&self) {
        assert!(self.keys >= 1, "key space must hold at least one key");
        if let Skew::Zipf { exponent } = self.skew {
            assert!(
                exponent >= 0.0 && exponent.is_finite(),
                "zipf exponent must be finite and non-negative, got {exponent}"
            );
        }
    }

    /// The popularity of each key: a probability vector over `0..keys`,
    /// non-increasing in the key index.
    ///
    /// # Panics
    ///
    /// Panics on an invalid key space (see [`sampler`](Self::sampler)).
    pub fn popularity(&self) -> Vec<f64> {
        self.validate();
        match self.skew {
            Skew::Uniform => vec![1.0 / self.keys as f64; self.keys as usize],
            Skew::Zipf { exponent } => {
                let weights: Vec<f64> = (0..self.keys)
                    .map(|i| 1.0 / ((i + 1) as f64).powf(exponent))
                    .collect();
                let total: f64 = weights.iter().sum();
                weights.into_iter().map(|w| w / total).collect()
            }
        }
    }

    /// Builds the per-operation key sampler (precomputes the Zipf CDF once).
    ///
    /// # Panics
    ///
    /// Panics if there are zero keys or the Zipf exponent is invalid.
    pub fn sampler(&self) -> KeySampler {
        self.validate();
        // One key, uniform skew, or a zero Zipf exponent: sampled directly,
        // no CDF table needed.
        let skewed =
            self.keys > 1 && matches!(self.skew, Skew::Zipf { exponent } if exponent > 0.0);
        let cdf = if skewed {
            let mut acc = 0.0;
            let mut cdf = Vec::with_capacity(self.keys as usize);
            for p in self.popularity() {
                acc += p;
                cdf.push(acc);
            }
            cdf
        } else {
            Vec::new()
        };
        // Memoize the hot head of the CDF: the shortest prefix holding at
        // least half the probability mass.  Zipf mass concentrates on the
        // first few keys, so most draws resolve with a short linear scan
        // over a handful of cache-resident entries instead of a binary
        // search across the whole table.
        let head = if cdf.is_empty() {
            0
        } else {
            (cdf.partition_point(|&c| c < 0.5) + 1).min(cdf.len())
        };
        KeySampler {
            keys: self.keys,
            cdf,
            head,
        }
    }
}

/// Draws keys according to a [`KeySpace`]'s popularity law.
///
/// A single-key sampler returns key 0 **without consuming randomness**, so
/// 1-key workloads replay the exact RNG stream of the unsharded generator.
#[derive(Debug, Clone, PartialEq)]
pub struct KeySampler {
    keys: u64,
    /// Cumulative popularity for Zipf draws; empty for the uniform (and
    /// single-key) fast paths.
    cdf: Vec<f64>,
    /// Length of the shortest CDF prefix covering ≥ 50% of the mass — the
    /// hot-key fast path scanned linearly before falling back to binary
    /// search.  Zero when `cdf` is empty.
    head: usize,
}

impl KeySampler {
    /// Number of keys this sampler draws from.
    pub fn keys(&self) -> u64 {
        self.keys
    }

    /// Draws one key.
    pub fn sample(&self, rng: &mut dyn RngCore) -> VariableId {
        if self.keys <= 1 {
            return 0;
        }
        if self.cdf.is_empty() {
            return rng.gen_range(0..self.keys);
        }
        let u: f64 = rng.gen_range(0.0..1.0);
        // Hot-key fast path: when the draw lands inside the memoized head
        // (at least half of all draws, by construction) a short linear scan
        // finds the key.  Both branches compute exactly
        // `cdf.partition_point(|&c| c <= u)`, so the drawn key — and the
        // RNG stream — are identical to the plain binary search.
        let idx = if u < self.cdf[self.head - 1] {
            self.cdf[..self.head]
                .iter()
                .position(|&c| c > u)
                .expect("u below the head's last CDF entry") as u64
        } else {
            (self.head + self.cdf[self.head..].partition_point(|&c| c <= u)) as u64
        };
        idx.min(self.keys - 1)
    }
}

/// Configuration of the arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Length of the generated trace (seconds).
    pub duration: SimTime,
    /// Mean operation arrival rate (operations per second).
    pub arrival_rate: f64,
    /// Fraction of operations that are reads (the rest are writes).
    pub read_fraction: f64,
    /// The key space operations are spread over.
    pub keyspace: KeySpace,
}

impl Default for WorkloadConfig {
    /// 60 seconds, 10 op/s, 90% reads, a single key.
    fn default() -> Self {
        WorkloadConfig {
            duration: 60.0,
            arrival_rate: 10.0,
            read_fraction: 0.9,
            keyspace: KeySpace::single(),
        }
    }
}

impl WorkloadConfig {
    /// Generates the full operation trace for this configuration.
    ///
    /// Inter-arrival times are exponential with mean `1/arrival_rate`
    /// (Poisson process); each operation is independently a read with
    /// probability `read_fraction` and targets a key drawn from the
    /// key space's popularity law.
    ///
    /// # Panics
    ///
    /// Panics if the duration or rate is non-positive, the read fraction is
    /// outside `[0, 1]`, or the key space is invalid.
    pub fn generate(&self, rng: &mut dyn RngCore) -> Vec<Operation> {
        self.validate();
        let sampler = self.keyspace.sampler();
        let mut ops = Vec::new();
        let mut t = 0.0;
        loop {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            t += -u.ln() / self.arrival_rate;
            if t > self.duration {
                break;
            }
            let kind = if rng.gen_bool(self.read_fraction) {
                OpKind::Read
            } else {
                OpKind::Write
            };
            let variable = sampler.sample(rng);
            ops.push(Operation {
                at: t,
                kind,
                variable,
            });
        }
        ops
    }

    /// Checks the arrival process's parameters.
    ///
    /// # Panics
    ///
    /// Panics if the duration or rate is non-positive, or the read fraction
    /// is outside `[0, 1]`.
    fn validate(&self) {
        assert!(
            self.duration > 0.0 && self.duration.is_finite(),
            "duration must be positive"
        );
        assert!(
            self.arrival_rate > 0.0 && self.arrival_rate.is_finite(),
            "arrival rate must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&self.read_fraction),
            "read fraction must be in [0,1]"
        );
    }
}

/// One key's pending arrival, as the merge orders it: time (as its bits,
/// which order like the non-negative times they encode), key, the key's
/// stream in [`Arrivals::streams`] and whether it is a write.
type Head = Reverse<(u64, VariableId, u32, bool)>;

/// One key's arrival process: a Poisson process of the key's share of the
/// arrival rate, on the key's own arrival stream.
#[derive(Debug)]
struct KeyStream {
    key: VariableId,
    rng: ChaCha8Rng,
    /// The key's arrival rate, `λ · p_v`.
    rate: f64,
    /// The time of the key's latest drawn arrival.
    at: SimTime,
}

/// The arrivals of the keys one world owns, drawn lazily: each key's next
/// arrival waits in a heap, and taking the earliest draws that key's
/// following one.  Memory is one pending arrival and one stream per key,
/// however long the run.
#[derive(Debug)]
pub(crate) struct Arrivals {
    heads: BinaryHeap<Head>,
    streams: Vec<KeyStream>,
    duration: SimTime,
    read_fraction: f64,
}

impl Arrivals {
    /// The arrival processes of `keys` under `workload` in the run seeded
    /// `seed`, each key's first arrival drawn.  `popularity` is the key
    /// space's ([`KeySpace::popularity`]).
    ///
    /// # Panics
    ///
    /// Panics if the duration or rate is non-positive, or the read fraction
    /// is outside `[0, 1]`.
    pub(crate) fn new(
        workload: &WorkloadConfig,
        popularity: &[f64],
        seed: u64,
        keys: impl Iterator<Item = VariableId>,
    ) -> Self {
        workload.validate();
        let mut arrivals = Arrivals {
            heads: BinaryHeap::new(),
            streams: Vec::new(),
            duration: workload.duration,
            read_fraction: workload.read_fraction,
        };
        for v in keys {
            arrivals.streams.push(KeyStream {
                key: v,
                rng: ChaCha8Rng::seed_from_u64(key_stream_seed(seed ^ ARRIVAL_SALT, v)),
                rate: workload.arrival_rate * popularity[v as usize],
                at: 0.0,
            });
            arrivals.draw(arrivals.streams.len() - 1);
        }
        arrivals
    }

    /// A fixed list of arrivals, for tests that script a world's workload.
    #[cfg(test)]
    pub(crate) fn scripted(ops: &[Operation]) -> Self {
        Arrivals {
            heads: ops
                .iter()
                .map(|op| {
                    Reverse((
                        op.at.to_bits(),
                        op.variable,
                        u32::MAX,
                        op.kind == OpKind::Write,
                    ))
                })
                .collect(),
            streams: Vec::new(),
            duration: SimTime::INFINITY,
            read_fraction: 1.0,
        }
    }

    /// Draws stream `s`'s next arrival into the heap, unless it falls past
    /// the run's duration.
    fn draw(&mut self, s: usize) {
        let stream = &mut self.streams[s];
        let u: f64 = stream.rng.gen_range(f64::MIN_POSITIVE..1.0);
        stream.at += -u.ln() / stream.rate;
        if stream.at > self.duration {
            return;
        }
        let read = stream.rng.gen_bool(self.read_fraction);
        self.heads
            .push(Reverse((stream.at.to_bits(), stream.key, s as u32, !read)));
    }

    /// The earliest pending arrival (ties go to the lower key).
    pub(crate) fn peek(&self) -> Option<Operation> {
        self.heads
            .peek()
            .map(|&Reverse((at, variable, _, write))| Operation {
                at: SimTime::from_bits(at),
                kind: if write { OpKind::Write } else { OpKind::Read },
                variable,
            })
    }

    /// Takes the earliest pending arrival and draws its key's next one.
    pub(crate) fn pop(&mut self) -> Option<Operation> {
        let op = self.peek()?;
        let Reverse((_, _, s, _)) = self.heads.pop().expect("peeked arrival exists");
        if (s as usize) < self.streams.len() {
            self.draw(s as usize);
        }
        Some(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn skew_display_names() {
        assert_eq!(Skew::Uniform.to_string(), "uniform");
        assert_eq!(Skew::Zipf { exponent: 1.2 }.to_string(), "zipf(1.2)");
    }

    #[test]
    fn generates_expected_volume_and_mix() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let config = WorkloadConfig {
            duration: 200.0,
            arrival_rate: 20.0,
            read_fraction: 0.75,
            keyspace: KeySpace::single(),
        };
        let ops = config.generate(&mut rng);
        // Expect about 4000 operations.
        assert!((ops.len() as f64 - 4000.0).abs() < 300.0, "{}", ops.len());
        let reads = ops.iter().filter(|o| o.kind == OpKind::Read).count();
        let frac = reads as f64 / ops.len() as f64;
        assert!((frac - 0.75).abs() < 0.03, "read fraction {frac}");
        // Arrival times are sorted and within the duration.
        assert!(ops.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(ops.iter().all(|o| o.at > 0.0 && o.at <= 200.0));
        // Single key: every operation targets variable 0.
        assert!(ops.iter().all(|o| o.variable == 0));
    }

    #[test]
    fn all_reads_or_all_writes() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let all_reads = WorkloadConfig {
            read_fraction: 1.0,
            ..WorkloadConfig::default()
        }
        .generate(&mut rng);
        assert!(all_reads.iter().all(|o| o.kind == OpKind::Read));
        let all_writes = WorkloadConfig {
            read_fraction: 0.0,
            ..WorkloadConfig::default()
        }
        .generate(&mut rng);
        assert!(all_writes.iter().all(|o| o.kind == OpKind::Write));
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn rejects_zero_duration() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let _ = WorkloadConfig {
            duration: 0.0,
            ..WorkloadConfig::default()
        }
        .generate(&mut rng);
    }

    #[test]
    #[should_panic(expected = "read fraction")]
    fn rejects_bad_read_fraction() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let _ = WorkloadConfig {
            read_fraction: 1.5,
            ..WorkloadConfig::default()
        }
        .generate(&mut rng);
    }

    #[test]
    fn default_config_is_sane() {
        let c = WorkloadConfig::default();
        assert_eq!(c.duration, 60.0);
        assert_eq!(c.arrival_rate, 10.0);
        assert_eq!(c.read_fraction, 0.9);
        assert_eq!(c.keyspace, KeySpace::single());
        assert_eq!(KeySpace::default(), KeySpace::single());
    }

    #[test]
    fn single_key_trace_is_rng_stream_identical_to_multi_field() {
        // The sharded generator with one key must replay the exact stream
        // of the pre-sharding generator: the key draw is skipped entirely.
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let mut b = ChaCha8Rng::seed_from_u64(9);
        let base = WorkloadConfig {
            duration: 50.0,
            arrival_rate: 30.0,
            read_fraction: 0.5,
            keyspace: KeySpace::single(),
        };
        let ops = base.generate(&mut a);
        // Replay by hand without any key logic.
        let mut t = 0.0;
        let mut expect = Vec::new();
        loop {
            let u: f64 = b.gen_range(f64::MIN_POSITIVE..1.0);
            t += -u.ln() / base.arrival_rate;
            if t > base.duration {
                break;
            }
            let kind = if b.gen_bool(base.read_fraction) {
                OpKind::Read
            } else {
                OpKind::Write
            };
            expect.push(Operation {
                at: t,
                kind,
                variable: 0,
            });
        }
        assert_eq!(ops, expect);
    }

    #[test]
    fn uniform_keys_cover_the_space_evenly() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let config = WorkloadConfig {
            duration: 400.0,
            arrival_rate: 25.0,
            read_fraction: 0.5,
            keyspace: KeySpace::uniform(8),
        };
        let ops = config.generate(&mut rng);
        let mut counts = [0u64; 8];
        for op in &ops {
            assert!(op.variable < 8);
            counts[op.variable as usize] += 1;
        }
        let mean = ops.len() as f64 / 8.0;
        for (k, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - mean).abs() < mean * 0.2,
                "key {k}: {c} vs mean {mean}"
            );
        }
    }

    #[test]
    fn zipf_skew_concentrates_on_low_keys() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let keyspace = KeySpace::zipf(64, 1.0);
        let sampler = keyspace.sampler();
        let popularity = keyspace.popularity();
        let mut counts = vec![0u64; 64];
        let draws = 40_000u64;
        for _ in 0..draws {
            counts[sampler.sample(&mut rng) as usize] += 1;
        }
        // The hottest key's share tracks its predicted mass.
        let hot_share = counts[0] as f64 / draws as f64;
        assert!(
            (hot_share - popularity[0]).abs() < 0.02,
            "hot share {hot_share} vs predicted {}",
            popularity[0]
        );
        // And it dominates the coldest key by an order of magnitude.
        assert!(counts[0] > counts[63] * 10);
    }

    #[test]
    fn popularity_is_a_distribution() {
        for ks in [
            KeySpace::single(),
            KeySpace::uniform(17),
            KeySpace::zipf(33, 0.8),
            KeySpace::zipf(5, 0.0),
        ] {
            let p = ks.popularity();
            assert_eq!(p.len(), ks.keys as usize);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{ks:?}");
            assert!(p.iter().all(|&x| x > 0.0));
            assert!(p.windows(2).all(|w| w[0] >= w[1] - 1e-15), "{ks:?}");
        }
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        let zipf0 = KeySpace::zipf(16, 0.0).sampler();
        let uniform = KeySpace::uniform(16).sampler();
        for _ in 0..200 {
            assert_eq!(zipf0.sample(&mut a), uniform.sample(&mut b));
        }
    }

    #[test]
    fn hot_head_fast_path_matches_plain_binary_search() {
        // The memoized-head sampler must be draw-for-draw identical to the
        // plain full-table binary search, including draws that straddle the
        // head boundary and the u == cdf[head-1] equality case.
        for (keys, exponent, seed) in [
            (64u64, 1.0, 10u64),
            (1000, 0.8, 11),
            (7, 2.5, 12),
            (2, 1.0, 13),
        ] {
            let sampler = KeySpace::zipf(keys, exponent).sampler();
            assert!(sampler.head >= 1 && sampler.head <= sampler.cdf.len());
            assert!(sampler.cdf[sampler.head - 1] >= 0.5);
            let mut a = ChaCha8Rng::seed_from_u64(seed);
            let mut b = ChaCha8Rng::seed_from_u64(seed);
            for _ in 0..20_000 {
                let got = sampler.sample(&mut a);
                let u: f64 = b.gen_range(0.0..1.0);
                let want = (sampler.cdf.partition_point(|&c| c <= u) as u64).min(keys - 1);
                assert_eq!(got, want);
            }
            // Identical RNG stream: both sides consumed the same draws.
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Every arrival of `config`'s key space drawn lazily, key by key, in
    /// the merged `(time, key)` order a one-world layout takes them in.
    fn lazy_trace(config: &WorkloadConfig, seed: u64) -> Vec<Operation> {
        let popularity = config.keyspace.popularity();
        let mut arrivals = Arrivals::new(config, &popularity, seed, 0..config.keyspace.keys);
        std::iter::from_fn(|| arrivals.pop()).collect()
    }

    /// Pearson's statistic of `counts` against the probabilities `p`.
    fn chi_square(counts: &[u64], p: &[f64]) -> f64 {
        let n = counts.iter().sum::<u64>() as f64;
        counts
            .iter()
            .zip(p)
            .map(|(&c, &p)| (c as f64 - n * p).powi(2) / (n * p))
            .sum()
    }

    /// The per-key Poisson processes of rates `λ · p_v` are the global
    /// process of rate `λ` split by key (Poisson splitting): over
    /// `zipf(64, 1.0)` and ten fixed seeds, the lazily drawn arrivals and
    /// `WorkloadConfig::generate`, the oracle, agree in distribution.
    ///
    /// Each check is sized to a false-alarm rate of 10⁻⁴ on a correct
    /// implementation, so a fresh seed set fails this test with
    /// probability at most 5 · 10⁻⁴ (Bonferroni over its five checks):
    /// * per-key counts against the popularity, χ² with 63 degrees of
    ///   freedom ≤ 113.65, its upper 10⁻⁴ point (Wilson–Hilferty) — for the
    ///   lazy arrivals and for the oracle;
    /// * the lazy and the oracle per-key counts against each other, the
    ///   2 × 64 homogeneity χ², 63 degrees of freedom, same bound;
    /// * the lazy read fraction inside its binomial band,
    ///   `0.9 ± 3.891 · √(0.09 / N)` (two-sided 10⁻⁴, normal limit);
    /// * the lazy total inside its Poisson band, `Λ ± 3.891 · √Λ`.
    #[test]
    fn per_key_arrivals_match_the_global_process_in_distribution() {
        const CHI2_63: f64 = 113.65;
        const Z: f64 = 3.891;
        let config = WorkloadConfig {
            duration: 40.0,
            arrival_rate: 250.0,
            read_fraction: 0.9,
            keyspace: KeySpace::zipf(64, 1.0),
        };
        let popularity = config.keyspace.popularity();
        let (mut lazy, mut oracle) = (vec![0u64; 64], vec![0u64; 64]);
        let mut reads = 0u64;
        let seeds = 0..10u64;
        for seed in seeds.clone() {
            let ops = lazy_trace(&config, seed);
            assert!(
                ops.windows(2)
                    .all(|w| (w[0].at, w[0].variable) < (w[1].at, w[1].variable)),
                "the merge takes arrivals in (time, key) order"
            );
            assert!(ops.iter().all(|o| o.at > 0.0 && o.at <= config.duration));
            for op in &ops {
                lazy[op.variable as usize] += 1;
                reads += u64::from(op.kind == OpKind::Read);
            }
            for op in config.generate(&mut ChaCha8Rng::seed_from_u64(seed)) {
                oracle[op.variable as usize] += 1;
            }
        }
        assert!(chi_square(&lazy, &popularity) <= CHI2_63, "{lazy:?}");
        assert!(chi_square(&oracle, &popularity) <= CHI2_63, "{oracle:?}");
        // Homogeneity: each side against the pooled per-key shares.
        let (nl, no) = (lazy.iter().sum::<u64>(), oracle.iter().sum::<u64>());
        let pooled: Vec<f64> = lazy
            .iter()
            .zip(&oracle)
            .map(|(&a, &b)| (a + b) as f64 / (nl + no) as f64)
            .collect();
        let homogeneity = chi_square(&lazy, &pooled) + chi_square(&oracle, &pooled);
        assert!(homogeneity <= CHI2_63, "homogeneity χ² {homogeneity}");
        let n = nl as f64;
        let read_share = reads as f64 / n;
        assert!(
            (read_share - 0.9).abs() <= Z * (0.09 / n).sqrt(),
            "read share {read_share}"
        );
        let expected = config.arrival_rate * config.duration * seeds.count() as f64;
        assert!(
            (n - expected).abs() <= Z * expected.sqrt(),
            "{n} arrivals against {expected}"
        );
    }

    #[test]
    fn scripted_arrivals_come_out_in_time_then_key_order() {
        let op = |at, variable| Operation {
            at,
            kind: OpKind::Read,
            variable,
        };
        let mut arrivals = Arrivals::scripted(&[op(2.0, 0), op(1.0, 5), op(1.0, 3)]);
        let order: Vec<_> = std::iter::from_fn(|| arrivals.pop())
            .map(|o| (o.at, o.variable))
            .collect();
        assert_eq!(order, [(1.0, 3), (1.0, 5), (2.0, 0)]);
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn rejects_empty_keyspace() {
        let _ = KeySpace::uniform(0).sampler();
    }

    #[test]
    #[should_panic(expected = "zipf exponent")]
    fn rejects_negative_zipf_exponent() {
        let _ = KeySpace::zipf(4, -1.0).sampler();
    }
}
