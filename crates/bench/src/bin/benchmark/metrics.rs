//! The benchmark's vocabulary: every metric's name, unit, direction and —
//! for the end-to-end ones — the share by which it may worsen before a
//! change counts as a regression.  `BENCHMARK.json` at the repo root lists
//! the same names; a unit test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen.
    pub bound: f64,
    /// A result in simulated time: for a fixed seed it must repeat bit for
    /// bit, whatever the host does.
    pub simulated: bool,
}

/// The eight end-to-end metrics, reported on every workload.
///
/// The bounds are wide enough for the seed-to-seed spread of a metric's
/// median: the `sim_*` values repeat exactly for one seed, but baselines
/// are compared across seeds (see the README's A/A section).
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "ops_per_sec",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "ok_ops_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
        simulated: true,
    },
    EndToEnd {
        name: "sim_fresh_read_rate",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
        simulated: true,
    },
    EndToEnd {
        name: "sim_p99_latency_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.05,
        simulated: true,
    },
    EndToEnd {
        name: "sim_load",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.03,
        simulated: true,
    },
    EndToEnd {
        name: "sim_msgs_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.03,
        simulated: true,
    },
];

/// A metric of one layer, from the traced run.  No bound: these explain an
/// end-to-end change, they do not gate one.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric, in report order.  A traced run prints all of
/// them; one that does not apply to the workload (a `sim.*` stage on
/// `planner_grid`, `sim.thread_scaling` on a sequential run) reads 0.
pub const PER_LAYER: [PerLayer; 58] = [
    lower("math.plan_solve_ms.directory", "ms"),
    lower("math.plan_solve_ms.hotkey", "ms"),
    lower("math.plan_solve_ms.lock", "ms"),
    lower("math.nonintersection_us", "us"),
    lower("math.predicted_quantile_us", "us"),
    lower("math.sample_k_of_n_ns.n100", "ns"),
    lower("math.sample_k_of_n_ns.n400", "ns"),
    lower("core.sample_quorum_ns.n100", "ns"),
    lower("core.sample_quorum_ns.n400", "ns"),
    lower("core.bitset_intersection_ns.n400", "ns"),
    lower("core.system_build_ms.masking_n400", "ms"),
    lower("core.exact_epsilon_us.n100", "us"),
    lower("protocols.safe_rw_us.n100", "us"),
    lower("protocols.dissemination_rw_us.n60", "us"),
    lower("protocols.masking_rw_us.n400", "us"),
    lower("protocols.read_reply_ns", "ns"),
    lower("protocols.signed_reply_ns", "ns"),
    lower("protocols.write_ack_ns", "ns"),
    lower("protocols.plan_cluster_round_us", "us"),
    lower("protocols.deliver_record_ns", "ns"),
    lower("protocols.plan_digest_us", "us"),
    lower("protocols.diff_digest_us", "us"),
    lower("protocols.deliver_delta_ns", "ns"),
    higher("protocols.gossip_hit_ratio", "ratio"),
    lower("sim.run_s", "s"),
    lower("sim.drain_s", "s"),
    lower("sim.sync_s", "s"),
    lower("sim.plan_s", "s"),
    lower("sim.route_s", "s"),
    lower("sim.other_s", "s"),
    lower("sim.spine_fraction", "ratio"),
    lower("sim.events", "count"),
    lower("sim.events_per_op", "count"),
    lower("sim.probes_per_op", "count"),
    lower("sim.retries", "count"),
    lower("sim.dropped_probes", "count"),
    lower("sim.gossip_pushes", "count"),
    lower("sim.gossip_digests", "count"),
    lower("sim.max_in_flight", "count"),
    higher("sim.events_per_sec", "1/s"),
    lower("sim.ns_per_event", "ns"),
    higher("sim.thread_scaling", "ratio"),
    lower("sim.stale_read_rate", "ratio"),
    lower("sim.queue_hold_ns.d100", "ns"),
    lower("sim.queue_hold_ns.d10000", "ns"),
    lower("sim.queue_hold_ns.d1000000", "ns"),
    lower("sim.queue_schedule_batch_ns", "ns"),
    lower("sim.workload_generate_ns_per_op", "ns"),
    lower("sim.key_sample_ns.zipf64", "ns"),
    lower("sim.key_sample_ns.zipf4096", "ns"),
    lower("sim.latency_sample_ns", "ns"),
    lower("sim.blocks_probe_ns", "ns"),
    lower("bench.trace_overhead_frac", "ratio"),
    lower("bench.attributed_share.core", "ratio"),
    lower("bench.attributed_share.protocols", "ratio"),
    lower("bench.attributed_share.queue", "ratio"),
    lower("bench.attributed_share.unattributed", "ratio"),
    lower("bench.failed_ops_share", "ratio"),
];

/// One measured value, as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    /// `None` when the host cannot provide it (`peak_rss_mb` off Linux).
    pub value: Option<f64>,
    pub unit: &'static str,
    /// A warning printed beside the metric (short runs, wide spread).
    pub note: String,
}

/// The share of `base` by which `new` is worse, in the metric's own
/// direction (negative when `new` is better).  A zero base has no share:
/// any worsening from zero is infinitely worse, none is 0.
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    let delta = match better {
        Better::Higher => base - new,
        Better::Lower => new - base,
    };
    if base != 0.0 {
        delta / base.abs()
    } else if delta > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// Whether `new` regressed against `base` by more than the metric's bound.
pub fn regressed(metric: &EndToEnd, base: f64, new: f64) -> bool {
    worse_by(metric.better, base, new) > metric.bound
}

/// Median, extremes and count of a set of repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub count: usize,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        let median = if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            0.5 * (sorted[mid - 1] + sorted[mid])
        };
        Some(Summary {
            median,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            count: sorted.len(),
        })
    }

    /// `(max − min) / median`: the run-to-run spread of the repetitions.
    pub fn spread(&self) -> f64 {
        if self.median > 0.0 {
            (self.max - self.min) / self.median
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric name is letters, digits, `_`, `.` and `-` only, starts with a
    /// letter or digit, and is at most 64 characters.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn summary_of_odd_even_and_empty_sets() {
        let odd = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(
            (odd.median, odd.min, odd.max, odd.count),
            (2.0, 1.0, 3.0, 3)
        );
        let even = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(even.median, 2.5);
        assert_eq!(even.spread(), 3.0 / 2.5);
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(Summary::of(&[7.0]).unwrap().spread(), 0.0);
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names must be unique");
    }

    #[test]
    fn name_check_rejects_everything_outside_the_alphabet() {
        assert!(valid_name("sim.queue_hold_ns.d100"));
        assert!(valid_name("9-lives"));
        for bad in ["", ".leading", "has space", "slash/y", "ünï", "q\"uote"] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn comparator_follows_direction_and_bound() {
        let ops = &END_TO_END[0];
        assert_eq!(ops.name, "ops_per_sec");
        assert!(!regressed(ops, 100.0, 76.0));
        assert!(regressed(ops, 100.0, 74.0));
        assert!(
            !regressed(ops, 100.0, 150.0),
            "faster is never a regression"
        );
        let rss = END_TO_END.iter().find(|m| m.name == "peak_rss_mb").unwrap();
        assert!(!regressed(rss, 200.0, 249.0));
        assert!(regressed(rss, 200.0, 251.0));
        assert!(!regressed(rss, 200.0, 20.0));
    }

    #[test]
    fn fresh_read_rate_bound_is_an_absolute_floor_on_staleness() {
        // sim_fresh_read_rate = 1 − stale rate, so its 1 % relative bound
        // is a ~0.01 absolute allowance on the stale rate however small
        // that rate is: 0.0006 → 0.004 (7×) passes, 0.05 → 0.07 does not.
        let fresh = END_TO_END
            .iter()
            .find(|m| m.name == "sim_fresh_read_rate")
            .unwrap();
        assert!(!regressed(fresh, 1.0 - 0.0006, 1.0 - 0.004));
        assert!(regressed(fresh, 1.0 - 0.05, 1.0 - 0.07));
    }

    #[test]
    fn zero_base_never_divides() {
        assert_eq!(worse_by(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 1.0), f64::INFINITY);
        assert_eq!(worse_by(Better::Higher, 0.0, 1.0), 0.0);
    }
}
