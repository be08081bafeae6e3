//! Capacity planning: invert the paper's tail bounds.
//!
//! The validator bins *sweep* parameter grids; this module solves the
//! inverse problem production tuning actually asks: given a staleness
//! target ε, a p99 latency SLO and a workload shape, find a **locally
//! minimal** `(n, q, probe_margin, gossip)` configuration that the analysis
//! predicts will meet them (`n − 1` is infeasible; feasibility is not
//! monotone in `n`, so a smaller feasible `n` may exist), together with a
//! [`PredictedReport`] stating exactly what the analysis predicts.  The
//! `validate_plan` bin then runs the simulator on the emitted configuration
//! and fails CI unless the measured ε and p99 land inside the tolerance
//! bands documented in `docs/ANALYSIS.md` — the prediction is a tested
//! contract, not prose.
//!
//! ## How the solver works
//!
//! Every screw the solver turns is monotone in the quantity it must bound
//! (the universe size only up to the integer jitter of the live-universe
//! bracket), so the whole plan falls out of nested binary/bisection searches
//! (the `find_smallest_N_binary_search` idiom):
//!
//! 1. **Read/write quorum `q`** — the non-intersection probability of two
//!    uniform `q`-subsets of a `u`-server live universe is the exact
//!    hypergeometric mass [`nonintersection_probability`] (Lemma 3.15),
//!    strictly decreasing in `q`.  The closed-form `ℓ·√u` quorum of
//!    [`crate::bounds::choose_ell_intersecting`] caps the search range
//!    (Lemma 3.15 guarantees it meets the target), and the binary search
//!    refines down to the exact minimum.
//! 2. **Probe margin `m`** — probing `q + m` servers and completing on the
//!    first `q` replies drives both the timeout probability
//!    ([`timeout_probability`], decreasing in `m`) and the predicted p99
//!    (decreasing in `m`) down monotonically.
//! 3. **Universe size `n`** — scaling `n` up relaxes the per-server probe
//!    rate (`≈ arrival·(q+m)/n` with `q ~ ℓ√n`) and widens the feasible
//!    margin range, so the outer search looks for the smallest `n` whose
//!    inner searches succeed and walks down from the binary search's answer
//!    until `n − 1` fails.  The bracket's floor and ceiling make feasibility
//!    jitter in `n`, so that is a local minimum, not always the global one.
//! 4. **Gossip** — period and fanout are chosen so epidemic coverage
//!    (`≈ ln u / ln(1+fanout)` rounds) completes within a fraction of the
//!    hottest key's expected inter-write interval under the Zipf workload.
//!
//! Crash faults enter through the live universe: with time-zero crash
//! probability `p`, the live count is `Binomial(n, 1−p)` and the solver
//! brackets it at ±[`tolerance::LIVE_SIGMAS`]·σ, using the pessimistic end
//! for every guarantee and the bracket ends for the ε tolerance band.
//!
//! **The searches decide; only the report inverts.**  [`completion_cdf`] is
//! monotone in `t`, so "the p99 is within the SLO" is
//! `completion_cdf(SLO) ≥ 0.99` — one evaluation — and that is what every
//! margin probe and every probe of the `n` search asks (the same question at
//! `t = f64::MAX` is whether a p99 exists at all).  [`predicted_quantile`]'s
//! doubling pass and 48-step bisection, ~52 evaluations, run exactly three
//! times per solve, for the report's `p99_latency`, `p99_lower` and
//! `p99_upper`.  The two forms agree except within `2⁻⁴⁸` of the bisection
//! bracket of a tie between the quantile and the SLO.
//!
//! The CDF itself, `Σ_ℓ w_ℓ·T_ℓ` over the live probe count `ℓ` of
//! `d = q + m` probes into `N` servers of which `K` are live, with
//! `w_ℓ = P(L = ℓ)` hypergeometric and `T_ℓ = P(Bin(ℓ, f) ≥ q)` at
//! `f = F(t)`, is one pass over `ℓ = q ..= min(d, K)` by three two-term
//! recurrences, `O(m)` multiply-adds after an `O(1)` log-space seed:
//!
//! * the weight, `w_{ℓ+1}/w_ℓ = (K−ℓ)(d−ℓ) / ((ℓ+1)(N−K−d+ℓ+1))`, seeded
//!   at the first `ℓ ≥ q` of the support by `ln P(L = ℓ)`;
//! * the binomial upper tail, `T_{ℓ+1} = T_ℓ + f·b_ℓ` (one more probe turns
//!   exactly `q − 1` replies into `q`), seeded by `T_q = f^q`;
//! * its edge term `b_ℓ = P(Bin(ℓ, f) = q − 1)`,
//!   `b_{ℓ+1} = b_ℓ·(ℓ+1)(1−f)/(ℓ+2−q)`, seeded by `b_q = q·f^(q−1)·(1−f)`.
//!
//! Every term is non-negative and nothing is subtracted.  The seeds enter as
//! one binary exponent (`log₂ w + (q−1)·log₂ f`) under which the products
//! are carried as mantissas, so neither a weight deep in the lower tail of
//! `L` nor an `f^q` below the `f64` range can zero a sum that later terms
//! make large.
//!
//! ## Example
//!
//! ```rust
//! use pqs_math::plan::{self, PlanInput, ProbeLatency, SloTargets, WorkloadShape};
//!
//! let input = PlanInput {
//!     workload: WorkloadShape {
//!         arrival_rate: 200.0,
//!         read_fraction: 0.9,
//!         keys: 64,
//!         zipf_exponent: 0.8,
//!         crash_fraction: 0.02,
//!     },
//!     slo: SloTargets {
//!         epsilon: 0.01,
//!         p99_latency: 0.030,
//!         max_server_rate: 40.0,
//!     },
//!     latency: ProbeLatency::Exponential { mean: 0.005 },
//!     max_universe: 4096,
//! };
//! let plan = plan::solve(&input).unwrap();
//! assert!(plan.predicted.epsilon_upper <= 0.01);
//! assert!(plan.predicted.p99_latency <= 0.030);
//! assert!(2 * plan.q <= plan.n);
//! ```

use crate::hypergeometric::Hypergeometric;
use crate::MathError;
use rand::{Rng, RngCore};

/// The tolerance constants of the prediction contract.
///
/// These are the single source of truth for `docs/ANALYSIS.md` and the
/// `validate_plan` bin: every band the CI check enforces is derived from a
/// constant here, so the documented contract and the enforced contract
/// cannot drift apart.
pub mod tolerance {
    /// Probability budget for operations that cannot assemble `q` live
    /// replies (the solver forces `P(live probed < q)` below this, and the
    /// ε upper band absorbs it as an additive term: a degraded read that
    /// condenses with fewer than `q` replies may be stale with probability
    /// up to 1).
    pub const TIMEOUT_BUDGET: f64 = 0.002;

    /// The latency quantile the planner predicts and the SLO constrains.
    pub const P99_QUANTILE: f64 = 0.99;

    /// Relative tolerance on the p99 prediction: the measured p99 must lie
    /// within `±P99_REL_TOL` of the predicted value.
    pub const P99_REL_TOL: f64 = 0.25;

    /// Absolute slack (seconds) added to the p99 band so sub-millisecond
    /// predictions are not held to a microsecond contract.
    pub const P99_ABS_TOL: f64 = 2e-4;

    /// Critical value for the Wilson score interval of the measured stale
    /// rate (2.576 ≈ 99% two-sided confidence): the measured interval must
    /// intersect the predicted `[epsilon_lower, epsilon_upper]` band.
    pub const EPS_CONFIDENCE_Z: f64 = 2.576;

    /// Half-width, in standard deviations of `Binomial(n, 1−crash)`, of the
    /// bracket placed around the expected live-server count.
    pub const LIVE_SIGMAS: f64 = 2.0;

    /// The recommended operation timeout as a multiple of the predicted
    /// p99, far enough out that timeouts stay inside [`TIMEOUT_BUDGET`].
    pub const OP_TIMEOUT_P99_MULTIPLE: f64 = 5.0;

    /// Gossip fanout emitted by the planner (per-round push targets).
    pub const GOSSIP_FANOUT: u32 = 3;

    /// Fraction of the hottest key's expected inter-write interval within
    /// which epidemic coverage should complete.
    pub const GOSSIP_WINDOW_FRACTION: f64 = 0.5;

    /// Clamp range (seconds) for the emitted gossip period.
    pub const GOSSIP_PERIOD_RANGE: (f64, f64) = (0.02, 2.0);
}

/// The law of one message's latency: what the simulator samples and the
/// planner inverts.
///
/// The workspace's one latency enum — `pqs_sim::latency::LatencyModel` is
/// this type under its simulator name — so the draws of [`sample`] and the
/// closed forms of [`cdf`] and [`mean`] cannot drift apart.
///
/// [`sample`]: ProbeLatency::sample
/// [`cdf`]: ProbeLatency::cdf
/// [`mean`]: ProbeLatency::mean
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeLatency {
    /// Every message takes exactly this many seconds.
    Fixed(f64),
    /// Uniform on `[min, max]` seconds.
    Uniform {
        /// Lower endpoint (seconds).
        min: f64,
        /// Upper endpoint (seconds).
        max: f64,
    },
    /// Exponential with the given mean (seconds) — a common heavy-ish tail
    /// model for WAN links such as the country-wide voting deployment of
    /// Section 1.1.
    Exponential {
        /// Mean latency (seconds).
        mean: f64,
    },
    /// Pareto with minimum `scale` (seconds) and tail index `shape` = α:
    /// `P(X > x) = (scale/x)^α` for `x ≥ scale`.  A genuine long tail — for
    /// α ≤ 2 the variance is infinite — used to demonstrate how probing
    /// `q + margin` servers and finishing on the first `q` responders cuts
    /// the tail of quorum-operation latency.
    Pareto {
        /// Minimum value (seconds); samples never fall below it.
        scale: f64,
        /// Tail index α (> 0); smaller means heavier tail.
        shape: f64,
    },
}

impl Default for ProbeLatency {
    /// One millisecond fixed latency.
    fn default() -> Self {
        ProbeLatency::Fixed(1e-3)
    }
}

impl ProbeLatency {
    /// Draws one latency (always non-negative and finite).  Total: out of
    /// range parameters (which [`solve`] rejects) degrade to the nearest
    /// sensible constant — swapped uniform endpoints are reordered, a
    /// non-positive mean gives `0`, a non-positive scale or shape gives the
    /// scale clamped at `0` — rather than panicking mid-simulation.
    ///
    /// `#[inline]`: the engine draws one per probe and per gossip push from
    /// another crate; without it `adversarial_digest` read 1.2 % slower in
    /// ten of ten A/B pairs.
    #[inline]
    pub fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        match *self {
            ProbeLatency::Fixed(v) => v.max(0.0),
            ProbeLatency::Uniform { min, max } => {
                let (lo, hi) = if min <= max { (min, max) } else { (max, min) };
                if hi <= lo {
                    lo.max(0.0)
                } else {
                    rng.gen_range(lo..=hi).max(0.0)
                }
            }
            ProbeLatency::Exponential { mean } => {
                if mean <= 0.0 {
                    return 0.0;
                }
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                -mean * u.ln()
            }
            ProbeLatency::Pareto { scale, shape } => {
                if scale <= 0.0 || shape <= 0.0 {
                    return scale.max(0.0);
                }
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                // Inverse CDF: scale * u^(-1/shape).
                scale * u.powf(-1.0 / shape)
            }
        }
    }

    /// The cumulative distribution function `P(latency ≤ t)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pqs_math::plan::ProbeLatency;
    /// let l = ProbeLatency::Exponential { mean: 2.0 };
    /// assert!((l.cdf(2.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
    /// assert_eq!(ProbeLatency::Fixed(1.0).cdf(0.5), 0.0);
    /// assert_eq!(ProbeLatency::Fixed(1.0).cdf(1.0), 1.0);
    /// ```
    pub fn cdf(&self, t: f64) -> f64 {
        if t.is_nan() {
            return 0.0;
        }
        match *self {
            ProbeLatency::Fixed(v) => {
                if t >= v {
                    1.0
                } else {
                    0.0
                }
            }
            ProbeLatency::Uniform { min, max } => {
                if t <= min {
                    0.0
                } else if t >= max {
                    1.0
                } else {
                    (t - min) / (max - min)
                }
            }
            ProbeLatency::Exponential { mean } => {
                if t <= 0.0 {
                    0.0
                } else {
                    1.0 - (-t / mean).exp()
                }
            }
            ProbeLatency::Pareto { scale, shape } => {
                if t <= scale {
                    0.0
                } else {
                    1.0 - (scale / t).powf(shape)
                }
            }
        }
    }

    /// Mean latency in seconds (infinite for Pareto with `shape ≤ 1`).
    pub fn mean(&self) -> f64 {
        match *self {
            ProbeLatency::Fixed(v) => v,
            ProbeLatency::Uniform { min, max } => 0.5 * (min + max),
            ProbeLatency::Exponential { mean } => mean,
            ProbeLatency::Pareto { scale, shape } => {
                if shape <= 1.0 {
                    f64::INFINITY
                } else {
                    scale * shape / (shape - 1.0)
                }
            }
        }
    }

    fn validate(&self) -> crate::Result<()> {
        let ok = match *self {
            ProbeLatency::Fixed(v) => v > 0.0 && v.is_finite(),
            ProbeLatency::Uniform { min, max } => min >= 0.0 && max > min && max.is_finite(),
            ProbeLatency::Exponential { mean } => mean > 0.0 && mean.is_finite(),
            ProbeLatency::Pareto { scale, shape } => {
                scale > 0.0 && scale.is_finite() && shape > 1.0 && shape.is_finite()
            }
        };
        if ok {
            Ok(())
        } else {
            Err(MathError::invalid(format!(
                "probe latency parameters out of range: {self:?} \
                 (Pareto requires shape > 1 for a finite mean)"
            )))
        }
    }
}

/// Shape of the offered workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadShape {
    /// Total operation arrival rate (operations per second).
    pub arrival_rate: f64,
    /// Fraction of operations that are reads, in `[0, 1]`.
    pub read_fraction: f64,
    /// Number of distinct keys.
    pub keys: u64,
    /// Zipf exponent of key popularity (0 = uniform).
    pub zipf_exponent: f64,
    /// Probability that each server is crashed for the whole run.
    pub crash_fraction: f64,
}

impl WorkloadShape {
    /// Write arrivals per second, `arrival_rate · (1 − read_fraction)`.
    pub fn write_rate(&self) -> f64 {
        self.arrival_rate * (1.0 - self.read_fraction)
    }

    /// Probability that a key draw hits the most popular key.
    ///
    /// Under Zipf(s) over `k` keys this is `1 / H_k(s)` where
    /// `H_k(s) = Σ i^−s`; for `s = 0` it degenerates to `1/k`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pqs_math::plan::WorkloadShape;
    /// let mut w = WorkloadShape {
    ///     arrival_rate: 100.0,
    ///     read_fraction: 0.9,
    ///     keys: 4,
    ///     zipf_exponent: 0.0,
    ///     crash_fraction: 0.0,
    /// };
    /// assert!((w.hottest_key_share() - 0.25).abs() < 1e-12);
    /// w.zipf_exponent = 1.0;
    /// // H_4(1) = 1 + 1/2 + 1/3 + 1/4 = 25/12.
    /// assert!((w.hottest_key_share() - 12.0 / 25.0).abs() < 1e-12);
    /// ```
    pub fn hottest_key_share(&self) -> f64 {
        if self.keys <= 1 {
            return 1.0;
        }
        let s = self.zipf_exponent;
        // Exact harmonic sum over the head; past it the Euler–Maclaurin
        // tail Σ_{a < i ≤ b} i^−s ≈ ∫ₐᵇ x^−s dx + (b^−s − a^−s)/2
        // − s·(b^−s−1 − a^−s−1)/12, whose next term is below 1e-17 of the
        // head for every s ≥ 0 at a = 4096.
        const EXACT_LIMIT: u64 = 4096;
        let mut h = 0.0f64;
        for i in 1..=self.keys.min(EXACT_LIMIT) {
            h += (i as f64).powf(-s);
        }
        if self.keys > EXACT_LIMIT {
            let (a, b) = (EXACT_LIMIT as f64, self.keys as f64);
            let (ga, gb) = (a.powf(-s), b.powf(-s));
            // ∫ₐᵇ x^−s dx = a^(1−s)·(e^x − 1)/(1 − s) with x = (1 − s)·ln(b/a),
            // written so that s → 1 is its limit ln(b/a), not a 0/0.
            let log_ratio = (b / a).ln();
            let x = (1.0 - s) * log_ratio;
            let growth = if x == 0.0 { 1.0 } else { x.exp_m1() / x };
            let integral = ga * a * log_ratio * growth;
            h += integral + 0.5 * (gb - ga) - s * (gb / b - ga / a) / 12.0;
        }
        1.0 / h
    }

    fn validate(&self) -> crate::Result<()> {
        if !(self.arrival_rate > 0.0 && self.arrival_rate.is_finite()) {
            return Err(MathError::invalid("arrival_rate must be positive"));
        }
        if !(0.0..=1.0).contains(&self.read_fraction) {
            return Err(MathError::invalid("read_fraction must be in [0, 1]"));
        }
        if self.keys == 0 {
            return Err(MathError::invalid("keys must be at least 1"));
        }
        if !(self.zipf_exponent >= 0.0 && self.zipf_exponent.is_finite()) {
            return Err(MathError::invalid("zipf_exponent must be finite and >= 0"));
        }
        if !(0.0..1.0).contains(&self.crash_fraction) {
            return Err(MathError::invalid("crash_fraction must be in [0, 1)"));
        }
        Ok(())
    }
}

/// The service-level objectives the plan must meet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloTargets {
    /// Target staleness bound: the predicted ε upper band must not exceed
    /// this.  Must exceed [`tolerance::TIMEOUT_BUDGET`], which the band
    /// absorbs as an additive term.
    pub epsilon: f64,
    /// Target 99th-percentile operation latency in seconds.
    pub p99_latency: f64,
    /// Per-server probe-rate cap (probes per second per server) — the
    /// capacity side of the plan.
    pub max_server_rate: f64,
}

impl SloTargets {
    fn validate(&self) -> crate::Result<()> {
        if !(self.epsilon > tolerance::TIMEOUT_BUDGET && self.epsilon < 1.0) {
            return Err(MathError::invalid(format!(
                "epsilon target must be in ({}, 1); got {}",
                tolerance::TIMEOUT_BUDGET,
                self.epsilon
            )));
        }
        if !(self.p99_latency > 0.0 && self.p99_latency.is_finite()) {
            return Err(MathError::invalid("p99_latency must be positive"));
        }
        if self.max_server_rate <= 0.0 || self.max_server_rate.is_nan() {
            return Err(MathError::invalid("max_server_rate must be positive"));
        }
        Ok(())
    }
}

/// Complete input to [`solve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanInput {
    /// Offered workload shape.
    pub workload: WorkloadShape,
    /// Objectives the configuration must meet.
    pub slo: SloTargets,
    /// Per-probe latency law.
    pub latency: ProbeLatency,
    /// Ceiling for the universe-size search (the solver reports
    /// infeasibility rather than exceeding it).
    pub max_universe: u64,
}

/// The gossip schedule emitted alongside the quorum parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipPlan {
    /// Seconds between gossip rounds.
    pub period: f64,
    /// Push targets per server per round.
    pub fanout: u32,
    /// Whether to use digest/delta gossip (always true for emitted plans;
    /// full push is strictly more traffic at equal coverage).
    pub digest_delta: bool,
}

/// What the analysis predicts for the emitted configuration.
///
/// The ε fields bracket the measurable stale-read rate: `epsilon_upper`
/// assumes a write is visible only on the `q` servers that completed it
/// (plus the timeout budget); `epsilon_lower` assumes every live probed
/// server eventually stores it (late probes land after completion).  The
/// simulator without gossip must land inside `[epsilon_lower,
/// epsilon_upper]`; with gossip it must stay below `epsilon_upper`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedReport {
    /// Point prediction of the stale-read rate (expected live write
    /// coverage against the expected live universe).
    pub epsilon: f64,
    /// Upper band: coverage exactly `q` in the largest plausible live
    /// universe, plus [`tolerance::TIMEOUT_BUDGET`] for degraded reads.
    pub epsilon_upper: f64,
    /// Lower band: coverage `q + margin` in the smallest plausible live
    /// universe.
    pub epsilon_lower: f64,
    /// The closed-form Lemma 3.15 bound `e^{−ℓ²}` at the effective
    /// `ℓ = q/√u` (always ≥ the exact `epsilon_upper` component).
    pub epsilon_lemma_bound: f64,
    /// Predicted 99th-percentile operation latency (seconds), at the
    /// expected live-universe size.
    pub p99_latency: f64,
    /// Optimistic p99: the same quantile when the crash draw is lucky
    /// (live universe at +[`tolerance::LIVE_SIGMAS`]σ).
    pub p99_lower: f64,
    /// Pessimistic p99: the quantile when the crash draw is unlucky
    /// (live universe at −[`tolerance::LIVE_SIGMAS`]σ).  The solver holds
    /// *this* value to the SLO, so the plan meets its latency target across
    /// the plausible crash outcomes, and the validation band is anchored on
    /// `[p99_lower, p99_upper]` rather than the point prediction.
    pub p99_upper: f64,
    /// Probability an operation cannot assemble `q` live replies.
    pub timeout_probability: f64,
    /// Recommended operation timeout (seconds),
    /// [`tolerance::OP_TIMEOUT_P99_MULTIPLE`] × the pessimistic p99.
    pub op_timeout: f64,
    /// Fraction of the universe each operation touches, `(q + margin)/n`.
    pub load_fraction: f64,
    /// Probes per second arriving at each server,
    /// `arrival · (q + margin)/n`.
    pub server_probe_rate: f64,
    /// Gossip digests sent per second across the live universe
    /// (0 without gossip).
    pub gossip_digest_rate: f64,
    /// Upper bound on record transfers per write needed for full coverage
    /// (live universe minus expected foreground coverage).
    pub gossip_records_per_write: f64,
    /// Predicted wall-clock seconds for a write to reach the full live
    /// universe via gossip (0 without gossip).
    pub gossip_coverage_seconds: f64,
}

/// A solved capacity plan: a locally minimal configuration (`n − 1` is
/// infeasible; feasibility is not monotone in `n`) plus its prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityPlan {
    /// Universe size (number of servers).
    pub n: u64,
    /// Read/write quorum size (complete on the first `q` replies).
    pub q: u64,
    /// Extra servers probed beyond `q` (hedging margin).
    pub probe_margin: u64,
    /// Gossip schedule, or `None` for an all-read workload.
    pub gossip: Option<GossipPlan>,
    /// What the analysis predicts for this configuration.
    pub predicted: PredictedReport,
}

impl CapacityPlan {
    /// Total servers probed per operation, `q + probe_margin`.
    pub fn probes_per_op(&self) -> u64 {
        self.q + self.probe_margin
    }
}

/// Returns the smallest `x` in `[lo, hi]` with `pred(x)` true, assuming
/// `pred` is monotone (false … false true … true), or `None` if `pred(hi)`
/// is false.
///
/// This is the `find_smallest_N_binary_search` idiom: keep the invariant
/// that `best` is the smallest index seen to satisfy the predicate, and
/// halve the bracket around the false→true boundary.
///
/// # Examples
///
/// ```
/// use pqs_math::plan::smallest_u64_where;
/// assert_eq!(smallest_u64_where(0, 100, |x| x * x >= 50), Some(8));
/// assert_eq!(smallest_u64_where(0, 100, |x| x >= 1000), None);
/// assert_eq!(smallest_u64_where(5, 5, |x| x >= 5), Some(5));
/// ```
pub fn smallest_u64_where(lo: u64, hi: u64, mut pred: impl FnMut(u64) -> bool) -> Option<u64> {
    if lo > hi || !pred(hi) {
        return None;
    }
    let mut best = hi;
    let (mut lo, mut hi) = (lo, hi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            best = mid;
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(best)
}

/// Exact probability that a uniform `reads`-subset of a `universe`-server
/// set misses a fixed `coverage`-subset entirely (Lemma 3.15: the
/// hypergeometric pmf at 0).
///
/// `coverage` is clamped to the universe; zero draws or zero coverage miss
/// with certainty.
///
/// # Examples
///
/// ```
/// use pqs_math::bounds::epsilon_intersecting_bound;
/// use pqs_math::plan::nonintersection_probability;
/// // ℓ = 22/√100 = 2.2 ⇒ the exact mass respects the e^{−ℓ²} bound.
/// let exact = nonintersection_probability(100, 22, 22);
/// assert!(exact > 0.0 && exact <= epsilon_intersecting_bound(2.2));
/// // Overlap is forced once coverage + reads exceed the universe.
/// assert_eq!(nonintersection_probability(10, 6, 5), 0.0);
/// ```
pub fn nonintersection_probability(universe: u64, coverage: u64, reads: u64) -> f64 {
    if reads == 0 || coverage == 0 {
        return 1.0;
    }
    let coverage = coverage.min(universe);
    let reads = reads.min(universe);
    match Hypergeometric::new(universe, coverage, reads) {
        Ok(h) => h.pmf(0),
        Err(_) => 1.0,
    }
}

/// Probability that an operation probing `quorum + margin` of `n` servers
/// (of which `n_live` are live) finds fewer than `quorum` live servers —
/// i.e. can never assemble a full quorum of replies.
///
/// # Examples
///
/// ```
/// use pqs_math::plan::timeout_probability;
/// // All servers live: a quorum is always reachable.
/// assert_eq!(timeout_probability(100, 100, 10, 0), 0.0);
/// // Margin monotonically drives the timeout probability down.
/// let tight = timeout_probability(100, 80, 10, 0);
/// let hedged = timeout_probability(100, 80, 10, 6);
/// assert!(hedged < tight);
/// ```
pub fn timeout_probability(n: u64, n_live: u64, quorum: u64, margin: u64) -> f64 {
    let probes = (quorum + margin).min(n);
    match Hypergeometric::new(n, n_live.min(n), probes) {
        Ok(h) => h.less_than(quorum),
        Err(_) => 1.0,
    }
}

/// Probability that an operation completes within `t` seconds: the chance
/// that at least `quorum` of its live probed servers have replied by `t`.
///
/// The live probe count `L` is hypergeometric over the universe and the
/// reply count given `L = ℓ` is `Binomial(ℓ, f)` with `f = F(t)` the
/// per-probe latency CDF, so
/// `P(done ≤ t) = Σ_{ℓ ≥ q} P(L = ℓ) · P(Bin(ℓ, f) ≥ q)`.
///
/// Evaluated in one pass over `ℓ = q ..= ℓ_max` by the three ratio
/// recurrences of the module docs: no logarithm, exponential or binomial
/// coefficient per term, every term non-negative, nothing subtracted.
///
/// # Examples
///
/// ```
/// use pqs_math::plan::{completion_cdf, ProbeLatency};
/// let law = ProbeLatency::Uniform { min: 0.0, max: 1.0 };
/// // No crashes and no margin: all 3 probes must have replied by t = 0.5.
/// assert!((completion_cdf(10, 10, 3, 0, &law, 0.5) - 0.125).abs() < 1e-12);
/// // One spare probe: P(Bin(4, 0.5) ≥ 3) = 5/16.
/// assert!((completion_cdf(10, 10, 3, 1, &law, 0.5) - 0.3125).abs() < 1e-12);
/// ```
pub fn completion_cdf(
    n: u64,
    n_live: u64,
    quorum: u64,
    margin: u64,
    latency: &ProbeLatency,
    t: f64,
) -> f64 {
    #[cfg(test)]
    tests::CDF_EVALUATIONS.with(|count| count.set(count.get() + 1));
    let probes = (quorum + margin).min(n);
    let Ok(live) = Hypergeometric::new(n, n_live.min(n), probes) else {
        return 0.0;
    };
    let (lo, hi) = (live.min_value().max(quorum), live.max_value());
    if lo > hi {
        return 0.0;
    }
    if quorum == 0 {
        return 1.0;
    }
    let f = latency.cdf(t).clamp(0.0, 1.0);
    if f.is_nan() || f == 0.0 {
        return 0.0;
    }
    let (k, d, q, g) = (
        live.successes() as f64,
        probes as f64,
        quorum as f64,
        1.0 - f,
    );
    // N − K − d: negative when the probes must overlap the live servers,
    // but N − K − d + ℓ is not, anywhere on the support of L.
    let slack = n as f64 - k - d;

    // `tail` and `edge` carry w_ℓ·T_ℓ and w_ℓ·b_ℓ as mantissas of 2^exponent
    // (below the support of L, with the weight held at its first value).
    // Seeding the exponent in log space means neither a weight deep in the
    // lower tail of L nor an f^q below the f64 range can flush to zero a sum
    // that later terms make large; the terms are log-concave in ℓ (a
    // hypergeometric pmf times a negative-binomial cdf), so one that drops
    // out of range under the running exponent never grows back.
    const RENORM_BITS: i64 = 64;
    const BIG: f64 = (1u128 << RENORM_BITS) as f64;
    let two_to = |e: i64| 2f64.powi(e.max(-1100) as i32);
    let log2_seed = (live.ln_pmf(lo) + (q - 1.0) * f.ln()) * std::f64::consts::LOG2_E;
    let mut exponent = log2_seed.floor() as i64;
    let mantissa = (log2_seed - log2_seed.floor()).exp2();
    let (mut tail, mut edge) = (mantissa * f, mantissa * q * g);
    let mut unit = two_to(exponent);
    let mut acc = 0.0f64;
    for l in quorum..=hi {
        let on_support = l >= lo;
        let l = l as f64;
        let mut next_weight = 1.0;
        if on_support {
            acc += tail * unit;
            next_weight = (k - l) * (d - l) / ((l + 1.0) * (slack + l + 1.0));
        }
        tail = next_weight * (tail + f * edge);
        edge *= next_weight * (l + 1.0) * g / (l + 2.0 - q);
        while tail + edge > BIG {
            tail /= BIG;
            edge /= BIG;
            exponent += RENORM_BITS;
            unit = two_to(exponent);
        }
    }
    acc.min(1.0)
}

/// The predicted latency quantile of quorum completion: the smallest `t`
/// with [`completion_cdf`] `≥ quantile`, or `None` when the completion
/// probability can never reach the quantile (too many probes land on
/// crashed servers).
pub fn predicted_quantile(
    n: u64,
    n_live: u64,
    quorum: u64,
    margin: u64,
    latency: &ProbeLatency,
    quantile: f64,
) -> Option<f64> {
    invert_cdf(latency.mean(), quantile, |t| {
        completion_cdf(n, n_live, quorum, margin, latency, t)
    })
}

/// The smallest `t` with `cdf(t) ≥ quantile` for a non-decreasing `cdf`, to
/// within `2⁻⁴⁸` of the bracket a doubling pass from `start` finds; `None`
/// when even `cdf(f64::MAX)` falls short.
fn invert_cdf(start: f64, quantile: f64, cdf: impl Fn(f64) -> f64) -> Option<f64> {
    if !(0.0..1.0).contains(&quantile) {
        return None;
    }
    // If the t → ∞ limit cannot reach the quantile, no finite t can.
    if cdf(f64::MAX) < quantile {
        return None;
    }
    let mut hi = start;
    if !hi.is_finite() || hi <= 0.0 {
        hi = 1e-3;
    }
    let mut doubles = 0;
    while cdf(hi) < quantile {
        hi *= 2.0;
        doubles += 1;
        if doubles > 200 {
            return None;
        }
    }
    let mut lo = 0.0f64;
    for _ in 0..48 {
        let mid = 0.5 * (lo + hi);
        if cdf(mid) >= quantile {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// Pessimistic/expected/optimistic live-server counts for a universe of
/// `n` with time-zero crash probability `crash`: the realized live count is
/// `Binomial(n, 1 − crash)`, bracketed at ±[`tolerance::LIVE_SIGMAS`]·σ.
fn live_universe_bracket(n: u64, crash: f64) -> (u64, u64, u64) {
    let live = 1.0 - crash;
    let mean = n as f64 * live;
    let sigma = (n as f64 * live * crash).sqrt();
    let lo = (mean - tolerance::LIVE_SIGMAS * sigma).floor().max(1.0) as u64;
    let hi = ((mean + tolerance::LIVE_SIGMAS * sigma).ceil() as u64).min(n);
    let mid = (mean.round().max(1.0) as u64).min(n);
    (lo.min(n), mid, hi)
}

/// How the searches ask whether the p99 of quorum completion, with `q + m`
/// probes of `n` servers of which `n_live` are live, is at most `limit`
/// seconds (`f64::MAX`: whether a p99 exists at all).  [`p99_within`] is the
/// answer; the tests keep the parent's quantile-inverting one beside it.
type P99Within = fn(u64, u64, u64, u64, &ProbeLatency, f64) -> bool;

/// The CDF is monotone in `t`, so "p99 ≤ limit" is one evaluation of it at
/// `limit`, not an inversion.
fn p99_within(n: u64, n_live: u64, q: u64, m: u64, latency: &ProbeLatency, limit: f64) -> bool {
    completion_cdf(n, n_live, q, m, latency, limit) >= tolerance::P99_QUANTILE
}

/// A feasible `(q, margin)` at universe size `n`, or `None`.
fn feasible_at(input: &PlanInput, n: u64, p99_within: P99Within) -> Option<(u64, u64)> {
    let (u_lo, u_mid, u_hi) = live_universe_bracket(n, input.workload.crash_fraction);
    // The ε upper band must meet the target with the timeout budget folded
    // in; reads intersect against the *largest* plausible live universe.
    let eps_target = input.slo.epsilon - tolerance::TIMEOUT_BUDGET;
    let eps_ok = |q: u64| nonintersection_probability(u_hi, q, q) <= eps_target;
    // Lemma 3.15: ℓ·√u_hi with ℓ = √ln(1/ε) meets the bound, so it caps
    // the search; the exact pmf refines below it.
    let ell_seed = crate::bounds::choose_ell_intersecting(eps_target).unwrap_or(f64::INFINITY);
    let closed_form = ((ell_seed * (u_hi as f64).sqrt()).ceil() as u64).saturating_add(1);
    let q_cap = closed_form.clamp(1, u_lo);
    let q = smallest_u64_where(1, q_cap, eps_ok)
        .or_else(|| smallest_u64_where(q_cap.saturating_add(1), u_lo, eps_ok))?;
    // Margin: timeouts *and* p99 measured against the smallest plausible
    // live universe, so the plan meets its SLOs even when the crash draw
    // lands LIVE_SIGMAS below the mean; both shrink as m grows.
    // Hedging past a few quorums' worth of probes never pays, so cap the
    // range there (a larger n re-opens it) and gallop 0, 1, 2, 4, … towards
    // the typically-small answer.
    let margin_ok = |m: u64| {
        timeout_probability(n, u_lo, q, m) <= tolerance::TIMEOUT_BUDGET
            && p99_within(n, u_lo, q, m, &input.latency, input.slo.p99_latency)
    };
    let m_cap = (n - q).min(3 * q + 32);
    let margin = {
        let mut lo = 0u64;
        let mut probe = 0u64;
        let hi = loop {
            if margin_ok(probe) {
                break probe;
            }
            if probe >= m_cap {
                return None;
            }
            lo = probe + 1;
            probe = (probe.max(1) * 2).min(m_cap);
        };
        smallest_u64_where(lo, hi, margin_ok)?
    };
    let per_server = input.workload.arrival_rate * (q + margin) as f64 / n as f64;
    if per_server > input.slo.max_server_rate {
        return None;
    }
    // The point prediction is the p99 at the expected live universe: it
    // exists when the t → ∞ ceiling P(L ≥ q) reaches the quantile there.
    p99_within(n, u_mid, q, margin, &input.latency, f64::MAX).then_some((q, margin))
}

/// The universe size the search settles on, with its `(q, margin)`: the
/// binary search's answer, walked down until `n − 1` is infeasible.
fn smallest_feasible(input: &PlanInput, p99_within: P99Within) -> crate::Result<(u64, u64, u64)> {
    let feasible = |n: u64| feasible_at(input, n, p99_within).is_some();
    let mut n = smallest_u64_where(2, input.max_universe, feasible).ok_or_else(|| {
        MathError::degenerate(format!(
            "no universe size up to {} meets epsilon {} / p99 {}s / {} probes/s per server \
             under the given workload and latency law",
            input.max_universe, input.slo.epsilon, input.slo.p99_latency, input.slo.max_server_rate
        ))
    })?;
    // Feasibility is monotone in n only up to integer jitter from the
    // live-universe bracket; a bounded walk-down makes the reported n a
    // local minimum.  It is not always the global one: a smaller feasible n
    // can sit below an infeasible one, and the binary search can then also
    // miss a feasible n under `max_universe` altogether.
    let mut walk = 0;
    while n > 2 && walk < 128 && feasible(n - 1) {
        n -= 1;
        walk += 1;
    }
    let (q, probe_margin) = feasible_at(input, n, p99_within).expect("n was verified feasible");
    Ok((n, q, probe_margin))
}

/// Solves for a locally minimal `(n, q, probe_margin, gossip)` meeting the
/// SLOs: `q` and `probe_margin` are the smallest that work at the reported
/// `n`, and `n − 1` is infeasible.  Feasibility is not monotone in `n`, so
/// this is not always the global minimum (see `docs/PLANNER.md`).
///
/// # Errors
///
/// [`MathError::InvalidParameter`] when the input fails validation, and
/// [`MathError::Degenerate`] when the search finds no universe size up to
/// `input.max_universe` that meets the objectives (e.g. a p99 SLO below the
/// latency law's floor).
pub fn solve(input: &PlanInput) -> crate::Result<CapacityPlan> {
    input.workload.validate()?;
    input.slo.validate()?;
    input.latency.validate()?;
    if input.max_universe < 2 {
        return Err(MathError::invalid("max_universe must be at least 2"));
    }
    let (n, q, probe_margin) = smallest_feasible(input, p99_within)?;

    let (u_lo, u_mid, u_hi) = live_universe_bracket(n, input.workload.crash_fraction);
    let probes = q + probe_margin;
    // Expected live coverage of a completed write: live probed servers all
    // store the record eventually (late probes still land).
    let live_frac = u_mid as f64 / n as f64;
    let w_mid = ((probes as f64 * live_frac).round() as u64).clamp(q.min(u_mid), u_mid);
    let ell = q as f64 / (u_mid.max(1) as f64).sqrt();

    let gossip = if input.workload.write_rate() > 0.0 {
        let fanout = tolerance::GOSSIP_FANOUT;
        let rounds = ((u_mid.max(2) as f64).ln() / (1.0 + fanout as f64).ln()).ceil();
        let hot_interval = 1.0 / (input.workload.write_rate() * input.workload.hottest_key_share());
        let (p_min, p_max) = tolerance::GOSSIP_PERIOD_RANGE;
        let period = (tolerance::GOSSIP_WINDOW_FRACTION * hot_interval / rounds.max(1.0))
            .clamp(p_min, p_max);
        Some(GossipPlan {
            period,
            fanout,
            digest_delta: true,
        })
    } else {
        None
    };

    let (digest_rate, coverage_seconds) = match gossip {
        Some(g) => {
            let rounds = ((u_mid.max(2) as f64).ln() / (1.0 + g.fanout as f64).ln()).ceil();
            (u_mid as f64 * g.fanout as f64 / g.period, rounds * g.period)
        }
        None => (0.0, 0.0),
    };

    // The only three places the quantile is inverted; every search above
    // compared the CDF at the SLO with the quantile instead.
    let quantile = |live: u64| {
        predicted_quantile(
            n,
            live,
            q,
            probe_margin,
            &input.latency,
            tolerance::P99_QUANTILE,
        )
    };
    let p99 = quantile(u_mid).expect("feasible_at verified a p99 exists at u_mid");
    let p99_lower = quantile(u_hi).unwrap_or(p99).min(p99);
    let p99_upper = quantile(u_lo).unwrap_or(p99).max(p99);

    let predicted = PredictedReport {
        epsilon: nonintersection_probability(u_mid, w_mid, q),
        epsilon_upper: nonintersection_probability(u_hi, q, q) + tolerance::TIMEOUT_BUDGET,
        epsilon_lower: nonintersection_probability(u_lo, probes.min(u_lo), q),
        epsilon_lemma_bound: crate::bounds::epsilon_intersecting_bound(ell),
        p99_latency: p99,
        p99_lower,
        p99_upper,
        timeout_probability: timeout_probability(n, u_lo, q, probe_margin),
        op_timeout: tolerance::OP_TIMEOUT_P99_MULTIPLE * p99_upper,
        load_fraction: probes as f64 / n as f64,
        server_probe_rate: input.workload.arrival_rate * probes as f64 / n as f64,
        gossip_digest_rate: digest_rate,
        gossip_records_per_write: (u_mid.saturating_sub(w_mid)) as f64,
        gossip_coverage_seconds: coverage_seconds,
    };

    Ok(CapacityPlan {
        n,
        q,
        probe_margin,
        gossip,
        predicted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binomial::Binomial;
    use std::cell::Cell;

    thread_local! {
        /// [`completion_cdf`] calls made by this thread (each test runs on
        /// its own), so a test can count what a solve spends.
        pub(super) static CDF_EVALUATIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// The slow oracle of [`completion_cdf`]: the definition, summed term by
    /// term from the two distributions' own log-space masses (the kernel
    /// the planner ran on before the recurrences).
    fn completion_cdf_by_definition(
        n: u64,
        n_live: u64,
        quorum: u64,
        margin: u64,
        latency: &ProbeLatency,
        t: f64,
    ) -> f64 {
        let probes = (quorum + margin).min(n);
        let live = Hypergeometric::new(n, n_live.min(n), probes).unwrap();
        let f = latency.cdf(t).clamp(0.0, 1.0);
        (live.min_value().max(quorum)..=live.max_value())
            .map(|l| live.pmf(l) * Binomial::new(l, f).unwrap().at_least(quorum))
            .sum::<f64>()
            .min(1.0)
    }

    /// The slow oracle of [`p99_within`], as the searches asked it before
    /// they decided: invert the quantile, then compare.
    fn p99_within_by_inversion(
        n: u64,
        n_live: u64,
        q: u64,
        m: u64,
        latency: &ProbeLatency,
        limit: f64,
    ) -> bool {
        predicted_quantile(n, n_live, q, m, latency, tolerance::P99_QUANTILE)
            .is_some_and(|p99| p99 <= limit)
    }

    /// Both oracles at once — the parent commit's predicate on the parent
    /// commit's kernel.
    fn p99_within_by_inverting_the_definition(
        n: u64,
        n_live: u64,
        q: u64,
        m: u64,
        latency: &ProbeLatency,
        limit: f64,
    ) -> bool {
        invert_cdf(latency.mean(), tolerance::P99_QUANTILE, |t| {
            completion_cdf_by_definition(n, n_live, q, m, latency, t)
        })
        .is_some_and(|p99| p99 <= limit)
    }

    fn close(a: f64, b: f64, relative: f64) -> bool {
        (a - b).abs() <= relative * a.abs().max(b.abs())
    }

    /// [`completion_cdf`] at reply probability `f`, checked against its
    /// definition: 1e-11 absolute, and 1e-9 relative above 1e-6.
    fn checked_completion_cdf(n: u64, live: u64, q: u64, m: u64, f: f64) -> f64 {
        let fast = completion_cdf(n, live, q, m, &UNIT, f);
        let slow = completion_cdf_by_definition(n, live, q, m, &UNIT, f);
        assert!(
            (fast - slow).abs() <= 1e-11 && (slow <= 1e-6 || close(fast, slow, 1e-9)),
            "n={n} live={live} q={q} m={m} f={f}: {fast} vs {slow}"
        );
        fast
    }

    /// `t` is its own CDF under this law, so `completion_cdf(.., &UNIT, f)`
    /// evaluates the kernel at reply probability `f`.
    const UNIT: ProbeLatency = ProbeLatency::Uniform { min: 0.0, max: 1.0 };

    fn reference_input() -> PlanInput {
        PlanInput {
            workload: WorkloadShape {
                arrival_rate: 200.0,
                read_fraction: 0.9,
                keys: 64,
                zipf_exponent: 0.8,
                crash_fraction: 0.02,
            },
            slo: SloTargets {
                epsilon: 0.01,
                p99_latency: 0.030,
                max_server_rate: 40.0,
            },
            latency: ProbeLatency::Exponential { mean: 0.005 },
            max_universe: 4096,
        }
    }

    /// The three presets of `pqs_bench::planner::scenarios()` (`directory`,
    /// `hotkey`, `lock`), restated: this crate cannot depend on that one.
    fn presets() -> [PlanInput; 3] {
        let hotkey = PlanInput {
            workload: WorkloadShape {
                arrival_rate: 400.0,
                read_fraction: 0.95,
                keys: 512,
                zipf_exponent: 1.2,
                crash_fraction: 0.0,
            },
            slo: SloTargets {
                epsilon: 0.05,
                p99_latency: 0.012,
                max_server_rate: 120.0,
            },
            latency: ProbeLatency::Exponential { mean: 0.003 },
            max_universe: 4096,
        };
        let lock = PlanInput {
            workload: WorkloadShape {
                arrival_rate: 120.0,
                read_fraction: 0.7,
                keys: 32,
                zipf_exponent: 0.5,
                crash_fraction: 0.2,
            },
            slo: SloTargets {
                epsilon: 0.02,
                p99_latency: 0.050,
                max_server_rate: 60.0,
            },
            latency: ProbeLatency::Exponential { mean: 0.008 },
            max_universe: 4096,
        };
        [reference_input(), hotkey, lock]
    }

    #[test]
    fn smallest_where_finds_boundary() {
        assert_eq!(smallest_u64_where(0, 10, |x| x >= 7), Some(7));
        assert_eq!(smallest_u64_where(0, 10, |_| true), Some(0));
        assert_eq!(smallest_u64_where(0, 10, |_| false), None);
        assert_eq!(smallest_u64_where(3, 3, |x| x == 3), Some(3));
        assert_eq!(smallest_u64_where(4, 3, |_| true), None);
    }

    #[test]
    fn nonintersection_monotone_in_quorum() {
        let mut prev = 1.0;
        for q in 1..=40u64 {
            let eps = nonintersection_probability(100, q, q);
            assert!(eps <= prev + 1e-12, "q={q}");
            prev = eps;
        }
        // Forced intersection once 2q > u.
        assert_eq!(nonintersection_probability(100, 51, 51), 0.0);
    }

    #[test]
    fn completion_cdf_monotone_in_time_and_margin() {
        let lat = ProbeLatency::Exponential { mean: 0.004 };
        let mut prev = 0.0;
        for i in 0..50 {
            let t = i as f64 * 1e-3;
            let c = completion_cdf(100, 95, 12, 4, &lat, t);
            assert!(c + 1e-12 >= prev, "t={t}");
            prev = c;
        }
        let narrow = completion_cdf(100, 95, 12, 0, &lat, 0.01);
        let hedged = completion_cdf(100, 95, 12, 8, &lat, 0.01);
        assert!(hedged > narrow);
    }

    #[test]
    fn fixed_latency_quantile_is_the_fixed_value() {
        let lat = ProbeLatency::Fixed(0.007);
        let p99 = predicted_quantile(64, 64, 8, 2, &lat, 0.99).unwrap();
        assert!((p99 - 0.007).abs() < 1e-6, "p99={p99}");
    }

    /// One type, so one check that its sampler and its closed forms agree:
    /// for each law, the empirical CDF of 20 000 seeded draws stays within
    /// 0.015 of `cdf` everywhere (the Kolmogorov–Smirnov distance; chance
    /// alone exceeds that about once in 8 000 runs) and their average within
    /// 3 % of `mean()`.  A fixed latency has no spread: every draw is it.
    #[test]
    fn sampled_latencies_follow_the_cdf_and_the_mean() {
        use rand::SeedableRng;
        const N: usize = 20_000;
        let laws = [
            ProbeLatency::Fixed(2e-3),
            ProbeLatency::Uniform {
                min: 1e-3,
                max: 3e-3,
            },
            ProbeLatency::Exponential { mean: 2e-3 },
            ProbeLatency::Pareto {
                scale: 1e-3,
                shape: 2.5,
            },
        ];
        for (seed, law) in laws.iter().enumerate() {
            assert!(law.validate().is_ok(), "{law:?}");
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed as u64);
            let mut draws: Vec<f64> = (0..N).map(|_| law.sample(&mut rng)).collect();
            draws.sort_by(f64::total_cmp);
            if let ProbeLatency::Fixed(v) = *law {
                assert!(draws.iter().all(|&x| x == v));
                assert_eq!((law.cdf(v), law.cdf(0.999 * v), law.mean()), (1.0, 0.0, v));
                continue;
            }
            let distance = draws
                .iter()
                .enumerate()
                .map(|(i, &x)| {
                    let (below, f, upto) =
                        (i as f64 / N as f64, law.cdf(x), (i + 1) as f64 / N as f64);
                    (f - below).max(upto - f)
                })
                .fold(0.0, f64::max);
            assert!(distance < 0.015, "{law:?}: sup-distance {distance}");
            let average = draws.iter().sum::<f64>() / N as f64;
            assert!(
                (average / law.mean() - 1.0).abs() < 0.03,
                "{law:?}: average {average} vs mean {}",
                law.mean()
            );
        }
    }

    #[test]
    fn quantile_unreachable_when_crashes_dominate() {
        // 10 live of 100, quorum 30: L can never reach 30.
        let lat = ProbeLatency::Fixed(0.001);
        assert_eq!(predicted_quantile(100, 10, 30, 0, &lat, 0.99), None);
    }

    #[test]
    fn solve_meets_its_own_targets() {
        let input = reference_input();
        let plan = solve(&input).unwrap();
        assert!(plan.predicted.epsilon_upper <= input.slo.epsilon + 1e-12);
        assert!(plan.predicted.p99_latency <= input.slo.p99_latency + 1e-12);
        assert!(plan.predicted.server_probe_rate <= input.slo.max_server_rate + 1e-9);
        assert!(plan.predicted.timeout_probability <= tolerance::TIMEOUT_BUDGET + 1e-12);
        assert!(2 * plan.q <= plan.n);
        assert!(plan.probes_per_op() <= plan.n);
        // Band ordering: lower ≤ point ≤ upper ≤ closed form + budget.
        let p = &plan.predicted;
        assert!(p.epsilon_lower <= p.epsilon + 1e-12);
        assert!(p.epsilon <= p.epsilon_upper + 1e-12);
        assert!(p.epsilon_upper <= p.epsilon_lemma_bound + tolerance::TIMEOUT_BUDGET + 1e-12);
        let g = plan.gossip.expect("write workload plans gossip");
        assert!(g.period >= tolerance::GOSSIP_PERIOD_RANGE.0);
        assert!(g.period <= tolerance::GOSSIP_PERIOD_RANGE.1);
        assert!(g.digest_delta);
    }

    #[test]
    fn solve_minimality_walkdown() {
        let input = reference_input();
        let plan = solve(&input).unwrap();
        // One server fewer must be infeasible (local minimality).
        assert!(feasible_at(&input, plan.n - 1, p99_within).is_none());
    }

    #[test]
    fn tighter_epsilon_needs_bigger_quorum() {
        let mut input = reference_input();
        input.slo.max_server_rate = 1e9; // isolate the ε constraint
        let loose = solve(&input).unwrap();
        input.slo.epsilon = 0.004;
        let tight = solve(&input).unwrap();
        assert!(
            tight.q >= loose.q,
            "tight.q={} loose.q={}",
            tight.q,
            loose.q
        );
        assert!(tight.n >= loose.n);
    }

    #[test]
    fn relaxed_p99_never_raises_the_plan() {
        let mut input = reference_input();
        let tight = solve(&input).unwrap();
        input.slo.p99_latency *= 4.0;
        let relaxed = solve(&input).unwrap();
        assert!(relaxed.n <= tight.n);
        assert!(relaxed.probes_per_op() <= tight.probes_per_op());
    }

    #[test]
    fn all_read_workload_plans_no_gossip() {
        let mut input = reference_input();
        input.workload.read_fraction = 1.0;
        let plan = solve(&input).unwrap();
        assert!(plan.gossip.is_none());
        assert_eq!(plan.predicted.gossip_digest_rate, 0.0);
    }

    #[test]
    fn infeasible_slo_reports_degenerate() {
        let mut input = reference_input();
        // SLO below the latency floor: Fixed(5ms) can never meet 1ms p99.
        input.latency = ProbeLatency::Fixed(0.005);
        input.slo.p99_latency = 0.001;
        match solve(&input) {
            Err(MathError::Degenerate(msg)) => assert!(msg.contains("no universe size")),
            other => panic!("expected Degenerate, got {other:?}"),
        }
    }

    #[test]
    fn invalid_inputs_rejected() {
        let mut input = reference_input();
        input.slo.epsilon = tolerance::TIMEOUT_BUDGET / 2.0;
        assert!(matches!(solve(&input), Err(MathError::InvalidParameter(_))));
        let mut input = reference_input();
        input.workload.crash_fraction = 1.0;
        assert!(solve(&input).is_err());
        let mut input = reference_input();
        input.latency = ProbeLatency::Pareto {
            scale: 1e-3,
            shape: 0.9,
        };
        assert!(solve(&input).is_err());
    }

    #[test]
    fn crash_fraction_widens_the_margin() {
        let mut input = reference_input();
        input.workload.crash_fraction = 0.0;
        let clean = solve(&input).unwrap();
        input.workload.crash_fraction = 0.2;
        let crashy = solve(&input).unwrap();
        assert!(crashy.probe_margin > clean.probe_margin);
        assert!(crashy.predicted.epsilon_upper <= input.slo.epsilon + 1e-12);
    }

    #[test]
    fn hottest_key_share_degenerate_cases() {
        let mut w = reference_input().workload;
        w.keys = 1;
        assert_eq!(w.hottest_key_share(), 1.0);
        w.keys = 10;
        w.zipf_exponent = 0.0;
        assert!((w.hottest_key_share() - 0.1).abs() < 1e-12);
    }

    /// ROADMAP 1(b), "every fast path has a slow oracle": the recurrence
    /// against the definition over small and large universes, every crash
    /// level, the margins the gallop probes and the ends of `f`; and on the
    /// same lattice, non-decreasing in `t` and in the margin.  All to 1e-11:
    /// at n = 4096 the Stirling log-factorials under either kernel's
    /// hypergeometric masses are only good to a few 1e-12 each.
    #[test]
    fn completion_cdf_matches_its_definition_on_the_lattice() {
        const FS: [f64; 5] = [0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0];
        for n in [8u64, 54, 210, 2049, 4096] {
            for live_fraction in [1.0, 0.98, 0.8, 0.4, 0.1] {
                let live = (n as f64 * live_fraction).round() as u64;
                for q in [1, (2.2 * (n as f64).sqrt()).ceil() as u64] {
                    let mut narrower = [0.0; FS.len()];
                    for m in [0, 1, q, 3 * q + 32] {
                        let mut earlier = 0.0;
                        for (i, f) in FS.into_iter().enumerate() {
                            let case = format!("n={n} live={live} q={q} m={m} f={f}");
                            let fast = checked_completion_cdf(n, live, q, m, f);
                            assert!(fast >= earlier - 1e-11, "{case}: falls in t");
                            assert!(fast >= narrower[i] - 1e-11, "{case}: falls in m");
                            earlier = fast;
                            narrower[i] = fast;
                        }
                    }
                }
            }
        }
    }

    /// Where a seed in plain `f64` would flush the whole sum to zero: a
    /// quorum so large that `f^q` leaves the range although the tail at
    /// `ℓ_max` is a half, and a support whose first weight does although
    /// the mode carries all the mass.
    #[test]
    fn completion_cdf_survives_seeds_below_the_f64_range() {
        assert_eq!(0.5f64.powi(2047), 0.0);
        assert_eq!(Hypergeometric::new(4096, 2048, 2048).unwrap().pmf(100), 0.0);
        for (n, live, q, m, f) in [
            (4096u64, 4000u64, 2048u64, 2048u64, 0.52),
            (4096, 2048, 100, 1948, 0.5),
            (4096, 2048, 1000, 1048, 0.98),
            (4096, 3277, 1024, 1024, 0.3),
            (4096, 3277, 1024, 1024, 0.6),
        ] {
            checked_completion_cdf(n, live, q, m, f);
        }
        let half = checked_completion_cdf(4096, 4096, 2048, 2048, 0.5);
        assert!((0.5..0.52).contains(&half), "{half}");
    }

    /// Five values computed in exact rational arithmetic (`f` the `f64`
    /// written here): a planner-sized plan, a crash-heavy one, a large
    /// universe, a sum whose first weights underflow, and a deep tail.
    #[test]
    fn completion_cdf_matches_exact_rational_values() {
        for (n, live, q, m, f, exact) in [
            (210u64, 190u64, 32u64, 10u64, 0.9, 8.683_976_444_238_217e-1),
            (54, 38, 14, 13, 0.85, 8.946_680_536_766_86e-1),
            (4096, 3200, 140, 60, 0.8, 1.508_789_730_282_416_3e-2),
            (2049, 1600, 100, 332, 0.5, 9.999_999_999_996_878e-1),
            (4096, 400, 100, 332, 0.999, 1.361_489_935_091_178_2e-18),
        ] {
            for kernel in [completion_cdf, completion_cdf_by_definition] {
                let value = kernel(n, live, q, m, &UNIT, f);
                assert!(
                    close(value, exact, 1e-10),
                    "({n}, {live}, {q}, {m}, {f}): {value}"
                );
            }
        }
    }

    /// The kernel against the experiment it describes: draw the live probe
    /// count, then the replies among them.
    #[test]
    fn completion_cdf_inside_the_wilson_interval_of_a_simulation() {
        use crate::mc::BernoulliEstimator;
        use rand::SeedableRng;
        let (n, live, q, m, f) = (210u64, 190u64, 32u64, 10u64, 0.8);
        let probed = Hypergeometric::new(n, live, q + m).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(24);
        let mut done = BernoulliEstimator::new();
        for _ in 0..200_000 {
            let replies = Binomial::new(probed.sample(&mut rng), f).unwrap();
            done.record(replies.sample(&mut rng) >= q);
        }
        let (low, high) = done.wilson_interval(3.9);
        let predicted = completion_cdf(n, live, q, m, &UNIT, f);
        assert!(
            low <= predicted && predicted <= high,
            "{predicted} vs [{low}, {high}]"
        );
        assert!(high - low < 0.01 && predicted > 0.1 && predicted < 0.9);
    }

    /// 3 presets × ε {0.5, 1, 2}× × crash {+0, +0.05} × rate {1, 2}×: the
    /// benchmark's `planner_grid` before its per-seed nudges.
    fn benchmark_grid() -> Vec<PlanInput> {
        let mut inputs = Vec::new();
        for preset in presets() {
            for epsilon_factor in [0.5, 1.0, 2.0] {
                for extra_crash in [0.0, 0.05] {
                    for rate_factor in [1.0, 2.0] {
                        let mut input = preset;
                        input.slo.epsilon *= epsilon_factor;
                        input.workload.crash_fraction += extra_crash;
                        input.workload.arrival_rate *= rate_factor;
                        input.slo.max_server_rate *= rate_factor;
                        inputs.push(input);
                    }
                }
            }
        }
        inputs
    }

    /// The search's twin on the benchmark grid, oracle of oracles: the
    /// parent's inverting predicate on the parent's kernel lands on the same
    /// `(n, q, probe_margin)` — hence the same gossip schedule and ε, load
    /// and rate fields, which are functions of those alone — and its three
    /// inverted quantiles are the report's to 1e-9.
    #[test]
    fn searches_decide_what_the_parent_inverted_on_the_benchmark_grid() {
        let grid = benchmark_grid();
        assert_eq!(grid.len(), 36);
        for input in &grid {
            let plan = solve(input).unwrap();
            let parent = smallest_feasible(input, p99_within_by_inverting_the_definition).unwrap();
            assert_eq!((plan.n, plan.q, plan.probe_margin), parent, "{input:?}");
            let (u_lo, u_mid, u_hi) = live_universe_bracket(plan.n, input.workload.crash_fraction);
            let quantile = |live: u64| {
                invert_cdf(input.latency.mean(), tolerance::P99_QUANTILE, |t| {
                    let (q, m) = (plan.q, plan.probe_margin);
                    completion_cdf_by_definition(plan.n, live, q, m, &input.latency, t)
                })
            };
            let p99 = quantile(u_mid).unwrap();
            let p99_lower = quantile(u_hi).unwrap_or(p99).min(p99);
            let p99_upper = quantile(u_lo).unwrap_or(p99).max(p99);
            let p = &plan.predicted;
            assert!(close(p.p99_latency, p99, 1e-9), "{input:?}");
            assert!(close(p.p99_lower, p99_lower, 1e-9), "{input:?}");
            assert!(close(p.p99_upper, p99_upper, 1e-9), "{input:?}");
            assert!(close(p.op_timeout, 5.0 * p99_upper, 1e-9), "{input:?}");
        }
    }

    /// The three presets' plans as the parent commit printed them: the
    /// configuration exactly, the kernel-dependent floats to 1e-9.
    #[test]
    fn preset_plans_are_the_parents() {
        let parents = [
            (
                150,
                25,
                5,
                0.044170975963211304,
                [
                    0.015308974218416508,
                    0.013822706914465927,
                    0.018550259076693873,
                ],
            ),
            (40, 10, 2, 0.03463324859847846, [0.009733955021423466; 3]),
            (
                49,
                12,
                12,
                0.04602551932351218,
                [
                    0.015164460039688323,
                    0.011309680449641748,
                    0.026769805274456528,
                ],
            ),
        ];
        for (input, (n, q, m, period, [p99, lower, upper])) in presets().iter().zip(parents) {
            let plan = solve(input).unwrap();
            assert_eq!((plan.n, plan.q, plan.probe_margin), (n, q, m));
            assert_eq!(plan.gossip.unwrap().period, period);
            let p = &plan.predicted;
            assert!(close(p.p99_latency, p99, 1e-9), "{}", p.p99_latency);
            assert!(close(p.p99_lower, lower, 1e-9), "{}", p.p99_lower);
            assert!(close(p.p99_upper, upper, 1e-9), "{}", p.p99_upper);
        }
    }

    /// Decide, don't invert: a solve spends three quantile inversions (52
    /// evaluations each) plus one evaluation per p99 question the searches
    /// ask — 221 / 236 / 217 on these presets, against 3 495 / 4 302 / 3 367
    /// when every question was an inversion.
    #[test]
    fn a_solve_inverts_the_quantile_three_times_and_no_more() {
        for input in presets() {
            let before = CDF_EVALUATIONS.with(Cell::get);
            solve(&input).unwrap();
            let spent = CDF_EVALUATIONS.with(Cell::get) - before;
            assert!((3 * 52..=260).contains(&spent), "{spent} evaluations");
        }
    }

    /// **The gap `solve` leaves** (pinned, not fixed, so whoever closes it
    /// has to come through here): feasibility is not monotone in `n`, the
    /// binary search assumes it is, and the walk-down stops at the first
    /// infeasible `n − 1`.  For the `lock` preset at ε = 0.04, `n = 42` and
    /// 43 are feasible, 44 and 45 are not, and 46 is — so the answer depends
    /// on where the search starts, and under a ceiling of 44 or 45 it finds
    /// nothing at all.
    #[test]
    fn solve_is_locally_not_globally_minimal_in_n() {
        let mut lock = presets()[2];
        lock.slo.epsilon = 0.04;
        let mut solve_under = |max_universe: u64| {
            lock.max_universe = max_universe;
            solve(&lock).map(|plan| (plan.n, plan.q, plan.probe_margin))
        };
        assert_eq!(solve_under(4096), Ok((46, 11, 12)));
        assert_eq!(solve_under(42), Ok((42, 10, 11)));
        assert_eq!(solve_under(43), Ok((42, 10, 11)));
        for ceiling in [44, 45] {
            match solve_under(ceiling) {
                Err(MathError::Degenerate(msg)) => {
                    assert!(msg.contains(&format!("no universe size up to {ceiling}")))
                }
                other => panic!("expected Degenerate, got {other:?}"),
            }
        }
        let feasible = |n: u64| feasible_at(&lock, n, p99_within).is_some();
        assert!(!feasible(41) && feasible(42) && feasible(43));
        assert!(!feasible(44) && !feasible(45) && feasible(46));
    }

    /// Above 4096 keys the harmonic sum is a 4096-term head plus an
    /// Euler–Maclaurin tail; the full sum is the oracle.
    #[test]
    fn hottest_key_share_tail_matches_the_full_sum() {
        let mut w = reference_input().workload;
        for keys in [4097u64, 100_000, 1_000_000] {
            for s in [0.0, 0.5, 0.8, 1.0, 1.2, 2.0] {
                (w.keys, w.zipf_exponent) = (keys, s);
                let full: f64 = (1..=keys).map(|i| (i as f64).powf(-s)).sum();
                let share = w.hottest_key_share();
                assert!(
                    close(share, 1.0 / full, 1e-10),
                    "keys={keys} s={s}: {share}"
                );
            }
        }
        // Either side of s = 1 the integral is continuous through its limit.
        (w.keys, w.zipf_exponent) = (1_000_000, 1.0);
        let at_one = w.hottest_key_share();
        for s in [1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-7, 1.0 + 1e-7] {
            w.zipf_exponent = s;
            let drift = 10.0 * (s - 1.0).abs() + 1e-13;
            assert!(close(w.hottest_key_share(), at_one, drift), "s={s}");
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn input_with(eps_millis: u64, p99_millis: u64, crash_pct: u64) -> PlanInput {
            PlanInput {
                workload: WorkloadShape {
                    arrival_rate: 150.0,
                    read_fraction: 0.9,
                    keys: 32,
                    zipf_exponent: 1.0,
                    crash_fraction: crash_pct as f64 / 100.0,
                },
                slo: SloTargets {
                    epsilon: eps_millis as f64 / 1000.0,
                    p99_latency: p99_millis as f64 / 1000.0,
                    max_server_rate: 1e6,
                },
                latency: ProbeLatency::Exponential { mean: 0.004 },
                max_universe: 2048,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            // Tightening ε can only grow the plan.
            #[test]
            fn monotone_in_epsilon(eps in 5u64..120, delta in 1u64..60, crash in 0u64..15) {
                let loose = solve(&input_with(eps + delta, 40, crash)).unwrap();
                let tight = solve(&input_with(eps, 40, crash)).unwrap();
                prop_assert!(tight.q >= loose.q);
                prop_assert!(tight.n >= loose.n);
            }

            // Relaxing the p99 SLO can only shrink the probe footprint.
            #[test]
            fn monotone_in_p99(p99 in 8u64..40, extra in 1u64..80, crash in 0u64..15) {
                let tight = solve(&input_with(20, p99, crash)).unwrap();
                let relaxed = solve(&input_with(20, p99 + extra, crash)).unwrap();
                prop_assert!(relaxed.probes_per_op() <= tight.probes_per_op());
                prop_assert!(relaxed.n <= tight.n);
            }

            // Every solved plan honors its own contract.
            #[test]
            fn solved_plans_meet_targets(eps in 5u64..100, p99 in 8u64..60, crash in 0u64..20) {
                let input = input_with(eps, p99, crash);
                let plan = solve(&input).unwrap();
                prop_assert!(plan.predicted.epsilon_upper <= input.slo.epsilon + 1e-12);
                prop_assert!(plan.predicted.p99_latency <= input.slo.p99_latency + 1e-12);
                prop_assert!(plan.predicted.timeout_probability
                    <= tolerance::TIMEOUT_BUDGET + 1e-12);
                prop_assert!(plan.predicted.epsilon_lower <= plan.predicted.epsilon_upper + 1e-12);
                // With no rate cap the minimal n can be small enough that
                // quorums overlap by pigeonhole (a strict-quorum degenerate
                // with ε = 0) — only probes ≤ n is a universal invariant.
                prop_assert!(plan.probes_per_op() <= plan.n);
            }

            // The search's twin: asking "is cdf(SLO) ≥ 0.99?" settles on the
            // plan — or the refusal — that inverting the p99 at every probe
            // did, under each latency law and with the rate cap biting.
            #[test]
            fn deciding_lands_where_inverting_did(
                law in 0usize..4,
                eps in 5u64..120,
                p99 in 4u64..80,
                crash in 0u64..25,
                arrival in 50u64..400,
                cap in 20u64..200,
            ) {
                let mut input = input_with(eps, p99, crash);
                input.latency = [
                    ProbeLatency::Fixed(0.004),
                    ProbeLatency::Uniform { min: 0.002, max: 0.006 },
                    ProbeLatency::Exponential { mean: 0.004 },
                    ProbeLatency::Pareto { scale: 0.002, shape: 2.0 },
                ][law];
                input.workload.arrival_rate = arrival as f64;
                input.slo.max_server_rate = cap as f64;
                let decided = solve(&input).map(|plan| (plan.n, plan.q, plan.probe_margin));
                prop_assert_eq!(decided, smallest_feasible(&input, p99_within_by_inversion));
            }
        }
    }
}
