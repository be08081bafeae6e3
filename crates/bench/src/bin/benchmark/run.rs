//! One workload, measured in this process: the end-to-end run (tracing
//! off) and the traced run that yields the per-layer numbers.

use crate::host;
use crate::json::Json;
use crate::metrics::{Measured, Summary, END_TO_END, PER_LAYER};
use crate::probes::{self, timed};
use crate::trace::Tracer;
use crate::workloads::{self, PlannerWorkload, SimWorkload, Spec, Workload};
use pqs_math::plan::CapacityPlan;
use pqs_sim::metrics::{EngineStageTimings, SimReport};
use pqs_sim::runner::GossipMode;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How often set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Set-up ends with a warm-up run at this share of the workload's size:
/// long enough to time steadily (0.1–0.4 s, four or five planner solves),
/// short enough that set-up work a later change adds (a table built in a
/// constructor) still shows beside it.
const WARMUP_SCALE: f64 = 1.0 / 8.0;

/// A timed run shorter than this is flagged beside the metric.
const SHORT_RUN_SECONDS: f64 = 1.5;

/// A min–max spread of the repetitions wider than this is flagged.
const WIDE_SPREAD: f64 = 0.15;

/// A traced run alternates untraced and traced runs at least this often, so
/// that every stage timing is a median of two.
const MIN_PAIRS: usize = 2;

/// Worker threads of the sharded workloads' reference run, which every
/// timed run must equal (clamped to `nproc`).
const SHARDED_THREADS: u32 = 2;

/// Worker threads of every timed run.  Two threads on the two shared cores
/// of the sizing host measure its scheduler: repetitions of one input spread
/// 2.6–3.5 s, against 2.4–2.6 s on one thread (see the README's A/A section).
const TIMED_THREADS: u32 = 1;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// How long the timed repetitions (or, traced, the run pairs) last.
    pub seconds: f64,
    /// Exactly this many repetitions instead of running for `seconds`.
    pub reps: Option<usize>,
    pub trace: bool,
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed correctness check.
    pub failures: Vec<String>,
    pub metrics: Vec<Measured>,
    /// Repetitions, threads and simulated durations, for the record.
    pub details: Json,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The result object the benchmark contract asks for.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let value = Json::obj([
                ("value", Json::opt_num(m.value)),
                ("unit", Json::str(m.unit)),
            ]);
            (m.name, value)
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

pub fn run(spec: &'static Spec, options: Options) -> Outcome {
    let threads = host::clamp_threads(SHARDED_THREADS);
    let mut tracer = Tracer::new(spec.name);
    let outcome = if options.trace {
        let (_, outcome) = tracer.span("bench.workload", |t| traced(spec, options, threads, t));
        let file = format!("trace_{}.json", spec.name);
        host::write_file(&file, &tracer.to_json().render_pretty());
        outcome
    } else {
        end_to_end(spec, options, threads, &mut tracer)
    };
    if threads < SHARDED_THREADS {
        println!(
            "note: {SHARDED_THREADS} worker threads wanted, clamped to {threads} \
             (nproc = {})",
            host::nproc()
        );
    }
    outcome
}

/// Calls `rep` until `options.seconds` have passed and at least `min_reps`
/// repetitions ran — or exactly `options.reps` times.
fn repeat(options: Options, min_reps: usize, mut rep: impl FnMut()) {
    let started = Instant::now();
    let mut done = 0;
    loop {
        rep();
        done += 1;
        let enough = match options.reps {
            Some(fixed) => done >= fixed.max(1),
            None => done >= min_reps && started.elapsed().as_secs_f64() >= options.seconds,
        };
        if enough {
            return;
        }
    }
}

/// Times `run` — which builds what it needs untimed and returns how long
/// the measured call took, with its output — for `options.seconds`, and
/// compares every output with `reference`.  Returns the times and one
/// failure line per repetition that differed.
fn timed_reps<R: PartialEq>(
    options: Options,
    min_reps: usize,
    reference: &R,
    mut run: impl FnMut() -> (Duration, R),
) -> (Vec<f64>, Vec<String>) {
    let mut runs = Vec::new();
    let mut mismatches = Vec::new();
    repeat(options, min_reps, || {
        let (elapsed, output) = run();
        runs.push(elapsed.as_secs_f64());
        if output != *reference {
            mismatches.push(format!(
                "repetition {} returned something other than the reference run",
                runs.len()
            ));
        }
    });
    (runs, mismatches)
}

/// The part of a result both kinds of workload share: what one batch is
/// worth, what the program returned for it, and how long the repetitions
/// took.
struct Timed {
    /// Operations one repetition completes (simulated ops, or solves).
    ops: u64,
    /// Operations one repetition reports unavailable.
    unavailable: u64,
    setup: Vec<f64>,
    runs: Vec<f64>,
    /// Repetitions whose output failed a check.
    bad_reps: usize,
    failures: Vec<String>,
    /// `VmHWM` when the last timed repetition ended.
    peak_rss_mb: Option<f64>,
    /// The four simulated-time results, in `END_TO_END` order after
    /// `ok_ops_share`: fresh-read rate, p99 (ms), load, messages per op.
    simulated: [f64; 4],
}

impl Timed {
    fn finish(self, mut details: Vec<(&'static str, Json)>) -> Outcome {
        let reps = self.runs.len() as u64;
        let per_rep = self.ops + self.unavailable;
        let attempted = reps * per_rep;
        let bad = self.bad_reps as u64;
        let failed = bad * per_rep + (reps - bad) * self.unavailable;
        let run = Summary::of(&self.runs).expect("at least one repetition ran");
        let setup = Summary::of(&self.setup).expect("set-up ran");
        let mut note = String::new();
        if run.median < SHORT_RUN_SECONDS {
            note.push_str(&format!(
                "timed run {:.2} s < {SHORT_RUN_SECONDS} s; ",
                run.median
            ));
        }
        if run.spread() > WIDE_SPREAD {
            note.push_str(&format!("min-max spread {:.0} %; ", run.spread() * 100.0));
        }
        let [fresh, p99_ms, load, msgs] = self.simulated;
        // Throughput of the fastest repetition, not the median one: the
        // work is deterministic, so whatever a repetition takes beyond the
        // fastest is the host's doing (see the README's A/A section).
        let values = [
            Some(self.ops as f64 / run.min),
            Some(setup.median),
            self.peak_rss_mb,
            Some(1.0 - failed as f64 / attempted as f64),
            Some(fresh),
            Some(p99_ms),
            Some(load),
            Some(msgs),
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| Measured {
                name: m.name,
                value,
                unit: m.unit,
                note: if m.name == "ops_per_sec" {
                    note.clone()
                } else {
                    String::new()
                },
            })
            .collect();
        details.extend([
            ("timed_reps", Json::Int(reps)),
            ("run_seconds_median", Json::Num(run.median)),
            ("run_seconds_min", Json::Num(run.min)),
            ("run_seconds_max", Json::Num(run.max)),
            (
                "run_seconds",
                Json::Arr(self.runs.iter().map(|&s| Json::Num(s)).collect()),
            ),
            ("setup_reps", Json::Int(setup.count as u64)),
            ("setup_seconds_min", Json::Num(setup.min)),
            ("setup_seconds_max", Json::Num(setup.max)),
            ("ops_per_rep", Json::Int(self.ops)),
        ]);
        Outcome {
            attempted,
            failed,
            failures: self.failures,
            metrics,
            details: Json::obj(details),
        }
    }
}

fn end_to_end(spec: &'static Spec, options: Options, threads: u32, tracer: &mut Tracer) -> Outcome {
    // Set-up, several times over: build the workload, then a short warm-up
    // run of the same shape.  The last build is the one measured.
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let (elapsed, workload) = timed(|| {
            let workload = workloads::build(spec, options.seed, 1.0, tracer);
            match workloads::build(spec, options.seed, WARMUP_SCALE, tracer) {
                Workload::Sim(warmup) => {
                    drop(black_box(warmup.simulation(TIMED_THREADS).run()));
                }
                Workload::Planner(warmup) => drop(black_box(warmup.solve_all())),
            }
            workload
        });
        setup.push(elapsed.as_secs_f64());
        built = Some(workload);
    }
    match built.expect("SETUP_REPS > 0") {
        Workload::Sim(w) => {
            // One untimed full run first: the timed numbers should measure
            // the engine, not first-touch page faults.
            let reference = w.simulation(TIMED_THREADS).run();
            let mut failures = w.check(&reference);
            let (runs, mismatches) = timed_reps(options, spec.min_reps, &reference, || {
                let simulation = w.simulation(TIMED_THREADS);
                timed(|| simulation.run())
            });
            // Read before the two-thread run below: how far its shard
            // threads run ahead of the spine moves the high-water mark by a
            // tenth from run to run.
            let peak_rss_mb = host::peak_rss_mb();
            let two_threads = w.sharded() && threads > TIMED_THREADS;
            if two_threads && w.simulation(threads).run() != reference {
                failures.push(format!(
                    "the report on {threads} threads differs from the one-thread reference"
                ));
            }
            let reference_is_bad = !failures.is_empty();
            let timed = Timed {
                ops: completed(&reference),
                unavailable: reference.unavailable_ops,
                setup,
                bad_reps: if reference_is_bad {
                    runs.len()
                } else {
                    mismatches.len()
                },
                runs,
                peak_rss_mb,
                simulated: simulated_results(&reference),
                failures: {
                    failures.extend(mismatches);
                    failures
                },
            };
            timed.finish(sim_details(&w, threads))
        }
        Workload::Planner(w) => {
            let reference = w.solve_all();
            let (mut failures, failed_solves) = w.check(&reference);
            let (runs, mismatches) = timed_reps(options, spec.min_reps, &reference, || {
                timed(|| w.solve_all())
            });
            let timed = Timed {
                ops: w.inputs.len() as u64 - failed_solves,
                unavailable: failed_solves,
                setup,
                bad_reps: mismatches.len(),
                runs,
                peak_rss_mb: host::peak_rss_mb(),
                simulated: predicted_results(&reference),
                failures: {
                    failures.extend(mismatches);
                    failures
                },
            };
            timed.finish(vec![("inputs", Json::Int(w.inputs.len() as u64))])
        }
    }
}

fn completed(report: &SimReport) -> u64 {
    report.completed_reads + report.completed_writes
}

fn probes_sent(report: &SimReport) -> u64 {
    report.per_server_accesses.iter().sum()
}

/// The simulated-time end-to-end results of a report.
fn simulated_results(report: &SimReport) -> [f64; 4] {
    let messages = probes_sent(report) + report.gossip_pushes + report.gossip_digests;
    [
        1.0 - report.eligible_stale_read_rate(),
        report.p99_latency() * 1e3,
        report.empirical_load(),
        messages as f64 / completed(report).max(1) as f64,
    ]
}

/// On `planner_grid` the same four slots hold what a user of the planner
/// sees: the plans' own predictions, averaged over the grid.
fn predicted_results(plans: &[pqs_math::Result<CapacityPlan>]) -> [f64; 4] {
    let solved: Vec<&CapacityPlan> = plans.iter().flatten().collect();
    let mean = |f: &dyn Fn(&CapacityPlan) -> f64| {
        solved.iter().map(|p| f(p)).sum::<f64>() / solved.len().max(1) as f64
    };
    [
        1.0 - mean(&|p| p.predicted.epsilon_upper),
        mean(&|p| p.predicted.p99_latency) * 1e3,
        mean(&|p| p.predicted.load_fraction),
        mean(&|p| p.probes_per_op() as f64),
    ]
}

fn sim_details(w: &SimWorkload, threads: u32) -> Vec<(&'static str, Json)> {
    vec![
        ("simulated_seconds", Json::Num(w.config.duration)),
        ("shards", Json::Int(u64::from(w.config.num_shards))),
        ("timed_threads", Json::Int(u64::from(TIMED_THREADS))),
        (
            "reference_threads",
            Json::Int(u64::from(if w.sharded() { threads } else { 1 })),
        ),
    ]
}

/// A built workload and what its untimed warm-up run returned: the
/// reference every later run of the same inputs must equal.
enum WarmedUp {
    Sim(Box<SimWorkload>, Box<SimReport>),
    Planner(PlannerWorkload, Vec<pqs_math::Result<CapacityPlan>>),
}

/// What the untraced/traced run pairs of a traced run produced.
struct RunPairs {
    /// Operations one run completes, and reports unavailable.
    ops: u64,
    unavailable: u64,
    untraced: Vec<f64>,
    traced: Vec<f64>,
    failures: Vec<String>,
    /// Per-layer values read off the runs themselves.
    values: Vec<(&'static str, f64)>,
    details: Vec<(&'static str, Json)>,
}

/// The traced run: set-up once, then untraced and traced runs in turn (the
/// difference is the tracing overhead), the two-thread run that gives
/// `sim.thread_scaling`, and the per-layer micro-timings.
fn traced(spec: &'static Spec, options: Options, threads: u32, tracer: &mut Tracer) -> Outcome {
    let (_, warmed_up) = tracer.span("bench.setup", |t| {
        match workloads::build(spec, options.seed, 1.0, t) {
            Workload::Sim(w) => {
                let (_, report) = t.span("sim.warmup_run", |_| w.simulation(TIMED_THREADS).run());
                WarmedUp::Sim(w, Box::new(report))
            }
            Workload::Planner(w) => {
                let (_, plans) = t.span("math.warmup_solves", |_| w.solve_all());
                WarmedUp::Planner(w, plans)
            }
        }
    });
    let pairs = Options {
        seconds: options.seconds / 2.0,
        ..options
    };
    let RunPairs {
        ops,
        unavailable,
        untraced,
        traced,
        failures,
        mut values,
        mut details,
    } = match &warmed_up {
        WarmedUp::Sim(w, reference) => sim_run_pairs(w, reference, pairs, threads, tracer),
        WarmedUp::Planner(w, reference) => planner_run_pairs(w, reference, pairs, tracer),
    };
    values.push((
        "bench.trace_overhead_frac",
        (median(&traced) - median(&untraced)) / median(&untraced),
    ));

    let budget = 0.4 * options.seconds / PER_LAYER.len() as f64;
    let (_, probe_values) = tracer.span("bench.layer_probes", |t| {
        // `sim.blocks_probe_ns` queries the adversarial schedule whichever
        // workload is running, so that its number means the same everywhere.
        let adversarial_plan = workloads::adversarial_schedule(workloads::ADVERSARIAL_SECONDS);
        probes::run_all(budget, &adversarial_plan, t)
    });
    values.extend(probe_values);
    if let WarmedUp::Sim(w, reference) = &warmed_up {
        values.extend(attributed_shares(w, reference, &values));
    }

    let reps = untraced.len() as u64;
    let attempted = reps * 2 * (ops + unavailable);
    let failed = if failures.is_empty() {
        reps * 2 * unavailable
    } else {
        attempted
    };
    values.push(("bench.failed_ops_share", failed as f64 / attempted as f64));
    let metrics = PER_LAYER
        .iter()
        .map(|m| Measured {
            name: m.name,
            // A metric that does not apply to this workload reads 0.
            value: Some(
                values
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map_or(0.0, |(_, v)| *v),
            ),
            unit: m.unit,
            note: String::new(),
        })
        .collect();
    details.push(("run_pairs", Json::Int(reps)));
    details.push(("spans", Json::Int(tracer.spans().len() as u64)));
    Outcome {
        attempted,
        failed,
        failures,
        metrics,
        details: Json::obj(details),
    }
}

fn sim_run_pairs(
    w: &SimWorkload,
    reference: &SimReport,
    pairs: Options,
    threads: u32,
    tracer: &mut Tracer,
) -> RunPairs {
    let mut failures = w.check(reference);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut self_times = Vec::new();
    let mut stages: Vec<EngineStageTimings> = Vec::new();
    repeat(pairs, MIN_PAIRS, || {
        let simulation = w.simulation(TIMED_THREADS);
        let (elapsed, report) = timed(|| simulation.run());
        untraced.push(elapsed.as_secs_f64());
        let simulation = w.simulation(TIMED_THREADS);
        let (span, (traced_report, timings)) =
            tracer.span("sim.run", |_| simulation.run_with_stats());
        tracer.synthesize_children(
            span,
            &[
                ("sim.drain", timings.drain_seconds),
                ("sim.sync", timings.sync_seconds),
                ("sim.plan", timings.plan_seconds),
                ("sim.route", timings.route_seconds),
            ],
        );
        traced.push(tracer.seconds(span));
        self_times.push(tracer.self_seconds(span));
        stages.push(timings);
        if report != *reference || traced_report != *reference {
            failures.push("a traced-mode run differs from the warm-up report".to_string());
        }
    });
    let mut values = stage_values(reference, &stages, median(&traced));
    values.push(("sim.other_s", median(&self_times)));
    if w.sharded() && threads > 1 {
        let simulation = w.simulation(threads);
        let (span, report) = tracer.span("sim.run_two_threads", |_| simulation.run());
        if report != *reference {
            failures.push(format!(
                "the report on {threads} threads differs from the one-thread reference"
            ));
        }
        // Throughput on `threads` threads over throughput on one.
        values.push((
            "sim.thread_scaling",
            median(&untraced) / tracer.seconds(span),
        ));
    }
    RunPairs {
        ops: completed(reference),
        unavailable: reference.unavailable_ops,
        untraced,
        traced,
        failures,
        values,
        details: sim_details(w, threads),
    }
}

fn planner_run_pairs(
    w: &PlannerWorkload,
    reference: &[pqs_math::Result<CapacityPlan>],
    pairs: Options,
    tracer: &mut Tracer,
) -> RunPairs {
    let (mut failures, failed_solves) = w.check(reference);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    repeat(pairs, MIN_PAIRS, || {
        let (elapsed, plans) = timed(|| w.solve_all());
        untraced.push(elapsed.as_secs_f64());
        let (span, traced_plans) = tracer.span("math.solve_grid", |t| {
            let solve = |input| {
                t.span("math.plan_solve", |_| pqs_math::plan::solve(input))
                    .1
            };
            w.inputs.iter().map(solve).collect::<Vec<_>>()
        });
        traced.push(tracer.seconds(span));
        if plans != reference || traced_plans != reference {
            failures.push("a traced-mode grid solved differently".to_string());
        }
    });
    RunPairs {
        ops: w.inputs.len() as u64 - failed_solves,
        unavailable: failed_solves,
        untraced,
        traced,
        failures,
        values: Vec::new(),
        details: vec![("inputs", Json::Int(w.inputs.len() as u64))],
    }
}

fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// Stage timings (medians over the traced runs) and the report's exact
/// counts.
fn stage_values(
    report: &SimReport,
    stages: &[EngineStageTimings],
    run_s: f64,
) -> Vec<(&'static str, f64)> {
    let stage =
        |f: fn(&EngineStageTimings) -> f64| median(&stages.iter().map(f).collect::<Vec<_>>());
    let drain = stage(|s| s.drain_seconds);
    let sync = stage(|s| s.sync_seconds);
    let plan = stage(|s| s.plan_seconds);
    let route = stage(|s| s.route_seconds);
    let ops = completed(report).max(1) as f64;
    let events = report.events_processed as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        ("sim.run_s", run_s),
        ("sim.drain_s", drain),
        ("sim.sync_s", sync),
        ("sim.plan_s", plan),
        ("sim.route_s", route),
        ("sim.spine_fraction", stage(|s| s.spine_fraction())),
        ("sim.events", events),
        ("sim.events_per_op", events / ops),
        ("sim.probes_per_op", probes_sent(report) as f64 / ops),
        ("sim.retries", report.retries as f64),
        ("sim.dropped_probes", report.dropped_probes as f64),
        ("sim.gossip_pushes", report.gossip_pushes as f64),
        ("sim.gossip_digests", report.gossip_digests as f64),
        ("sim.max_in_flight", report.max_in_flight as f64),
        ("sim.events_per_sec", ratio(events, run_s)),
        ("sim.ns_per_event", ratio(run_s * 1e9, events)),
        ("sim.stale_read_rate", report.eligible_stale_read_rate()),
        (
            "protocols.gossip_hit_ratio",
            ratio(report.gossip_stores as f64, report.gossip_pushes as f64),
        ),
    ]
}

/// Micro-timing × the run's exact call counts ÷ `sim.run_s`: the share of
/// the run each layer's measured steps account for.  A sanity figure — a
/// layer with share s can raise `ops_per_sec` by at most 1/(1 − s).
fn attributed_shares(
    w: &SimWorkload,
    report: &SimReport,
    values: &[(&'static str, f64)],
) -> Vec<(&'static str, f64)> {
    let get = |name: &str| {
        values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let run_ns = get("sim.run_s") * 1e9;
    if run_ns <= 0.0 {
        return Vec::new();
    }
    let large = w.system.universe().size() >= 400;
    let sample_ns = get(if large {
        "core.sample_quorum_ns.n400"
    } else {
        "core.sample_quorum_ns.n100"
    });
    let core = sample_ns * report.total_operations as f64;

    let probes = probes_sent(report) as f64;
    let read_share = report.completed_reads as f64 / completed(report).max(1) as f64;
    let signed = matches!(w.kind, pqs_sim::runner::ProtocolKind::Dissemination);
    let reply_ns = get(if signed {
        "protocols.signed_reply_ns"
    } else {
        "protocols.read_reply_ns"
    });
    let mut protocols =
        probes * (read_share * reply_ns + (1.0 - read_share) * get("protocols.write_ack_ns"));
    let rounds = report.gossip_rounds as f64;
    match w.config.diffusion.map(|d| d.mode) {
        Some(GossipMode::PushAll) => {
            protocols += rounds * get("protocols.plan_cluster_round_us") * 1e3
                + report.gossip_pushes as f64 * get("protocols.deliver_record_ns");
        }
        Some(GossipMode::DigestDelta) => {
            protocols += rounds * get("protocols.plan_digest_us") * 1e3
                + report.gossip_digests as f64 * get("protocols.diff_digest_us") * 1e3
                + report.gossip_pushes as f64 * get("protocols.deliver_delta_ns");
        }
        None => {}
    }
    let queue = get("sim.queue_hold_ns.d100") * report.events_processed as f64;
    let shares = [core / run_ns, protocols / run_ns, queue / run_ns];
    vec![
        ("bench.attributed_share.core", shares[0]),
        ("bench.attributed_share.protocols", shares[1]),
        ("bench.attributed_share.queue", shares[2]),
        (
            "bench.attributed_share.unattributed",
            1.0 - shares.iter().sum::<f64>(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_operations_are_counted_against_the_attempted() {
        let timed = Timed {
            ops: 90,
            unavailable: 10,
            setup: vec![0.1, 0.3, 0.2],
            runs: vec![2.5, 2.0, 3.0, 2.5],
            bad_reps: 1,
            failures: vec!["repetition 3 differs".to_string()],
            peak_rss_mb: Some(64.5),
            simulated: [0.95, 14.0, 0.16, 16.0],
        };
        let outcome = timed.finish(Vec::new());
        assert_eq!(outcome.attempted, 400);
        assert_eq!(outcome.failed, 100 + 3 * 10);
        assert!(!outcome.correct());
        let value = |name: &str| {
            let m = outcome.metrics.iter().find(|m| m.name == name).unwrap();
            m.value.unwrap()
        };
        assert_eq!(value("ops_per_sec"), 45.0, "90 ops in the fastest 2 s");
        assert_eq!(value("setup_s"), 0.2);
        assert_eq!(value("peak_rss_mb"), 64.5);
        assert_eq!(value("ok_ops_share"), 1.0 - 130.0 / 400.0);
        assert_eq!(value("sim_msgs_per_op"), 16.0);
        let ops = &outcome.metrics[0];
        assert!(ops.note.contains("spread 40 %"), "{}", ops.note);
        assert_eq!(outcome.metrics.len(), END_TO_END.len());
        let json = outcome.to_json().render();
        assert!(
            json.starts_with(r#"{"correct": false,"attempted": 400,"failed": 130,"metrics": {"#)
        );
    }

    #[test]
    fn repeat_honours_the_minimum_and_the_fixed_count() {
        let mut options = Options {
            seed: 1,
            seconds: 0.0,
            reps: None,
            trace: false,
        };
        let mut n = 0;
        repeat(options, 5, || n += 1);
        assert_eq!(n, 5);
        options.reps = Some(2);
        n = 0;
        repeat(options, 5, || n += 1);
        assert_eq!(n, 2);
    }
}
