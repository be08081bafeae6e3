//! The engine bench: timed reference runs of the discrete-event engine's hot
//! loop and of the event queue, and the CI floors enforced on them.  (Speed
//! claims between two commits come from the repo benchmark instead —
//! `BENCHMARK.json` and `scripts/bench_ab.sh`.)
//!
//! Reports engine throughput in **events per second**: each simulated
//! operation costs one arrival event, one probe-reply event per probed
//! server and one timeout event (and, with diffusion on, one event per
//! gossip round and per push), so `events/sec` is the unit for "how fast
//! can this simulator chew through a workload" — it is invariant under
//! quorum-size changes, unlike ops/sec.  Two rates are reported.  *Logical*
//! events are the report's `events_processed`; the spine counts a full push
//! whose receiver is already as fresh when it plans it without ever
//! queueing it, so the *queued* rate — logical events minus those
//! plan-resolved pushes — is the one that measures the event loop, and the
//! one the `PQS_BENCH_FLOOR` floor is enforced against.  The two differ
//! only on the full-push gossip cells (one shard and eight), which also
//! report the spine's cost per planned push.
//!
//! Five environment variables wire this bench into CI:
//!
//! * `PQS_BENCH_FLOOR=<events/sec>` — after measuring, exit nonzero if the
//!   best observed queued-event throughput falls below the floor.
//! * `PQS_BENCH_THREADS=<n>` — additionally time the 8-shard layout with
//!   `n` worker threads (it always runs with 1 thread as a reference).
//! * `PQS_BENCH_THREADS_FLOOR=<events/sec>` — exit nonzero if the
//!   `PQS_BENCH_THREADS` run falls below this floor; CI uses it to pin the
//!   multi-core speedup, not just the one-shard hot loop.
//! * `PQS_BENCH_SPINE_MAX_FRACTION=<0..1>` — exit nonzero if the sharded
//!   gossip cell spends more than this fraction of its wall clock on the
//!   spine's barrier work (sync + plan + route, from
//!   [`pqs_sim::metrics::EngineStageTimings`]); CI uses it to keep the
//!   incremental sync and batched routing proportional to per-round work.
//! * `PQS_BENCH_QUEUE_FLOOR=<ops/sec>` — exit nonzero if the calendar
//!   queue's *hold* throughput (pop + reschedule at constant depth) at
//!   10^6 pending events falls below the floor; CI uses it to pin the
//!   O(1)-amortized scheduling claim at the depth where a binary heap's
//!   log factor is unmistakable.
//!
//! Every invocation writes the measured numbers — including the per-run
//! drain/sync/plan/route stage breakdown and planned/queued push counts — to
//! `target/experiments/BENCH_engine.json` so the perf trajectory can be
//! tracked per push as a CI artifact.

use pqs_core::prelude::*;
use pqs_sim::latency::LatencyModel;
use pqs_sim::metrics::EngineStageTimings;
use pqs_sim::runner::{DiffusionPolicy, ProtocolKind, SimConfig, Simulation};
use pqs_sim::time::{EventQueue, QueueKind};
use pqs_sim::workload::KeySpace;
use std::io::Write as _;
use std::time::Instant;

fn engine_config(arrival_rate: f64) -> SimConfig {
    SimConfig::builder()
        .with_duration(10.0)
        .with_arrival_rate(arrival_rate)
        .with_read_fraction(0.9)
        .with_latency(LatencyModel::Exponential { mean: 2e-3 })
        .with_seed(1)
        .build()
}

fn diffusion_config(arrival_rate: f64) -> SimConfig {
    let mut config = engine_config(arrival_rate);
    config.keyspace = KeySpace::zipf(64, 1.0);
    config.diffusion = Some(
        DiffusionPolicy::full_push(0.25, 2)
            .with_push_latency(LatencyModel::Exponential { mean: 2e-3 }),
    );
    config
}

/// The multi-core reference cell: 8 shards over a 64-key Zipf space,
/// drained by `threads` worker threads.  The report is bit-identical for
/// every thread count, so thread sweeps measure pure engine speed.
fn sharded_config(arrival_rate: f64, threads: u32) -> SimConfig {
    SimConfig::builder()
        .with_duration(10.0)
        .with_arrival_rate(arrival_rate)
        .with_read_fraction(0.9)
        .with_keyspace(KeySpace::zipf(64, 1.0))
        .with_latency(LatencyModel::Exponential { mean: 2e-3 })
        .with_seed(1)
        .with_num_shards(8)
        .with_threads(threads)
        .build()
}

/// The spine-cost reference cell: the diffusion workload on 8 shards,
/// whose drain/sync/plan/route breakdown feeds the
/// `PQS_BENCH_SPINE_MAX_FRACTION` guard.
fn sharded_gossip_config(arrival_rate: f64, threads: u32) -> SimConfig {
    let mut config = diffusion_config(arrival_rate);
    config.num_shards = 8;
    config.threads = threads;
    config
}

/// One timed reference run: name, events processed, wall-clock seconds and
/// the engine's own stage breakdown.
struct Measured {
    name: String,
    events: u64,
    seconds: f64,
    stages: EngineStageTimings,
}

impl Measured {
    fn per_sec(&self, count: u64) -> f64 {
        if self.seconds > 0.0 {
            count as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// Logical events per second.
    fn events_per_sec(&self) -> f64 {
        self.per_sec(self.events)
    }

    /// Events that went through a queue: the logical events minus the
    /// pushes the spine resolved at planning time.
    fn queued_events(&self) -> u64 {
        self.events - (self.stages.planned_pushes - self.stages.queued_pushes)
    }

    fn queued_events_per_sec(&self) -> f64 {
        self.per_sec(self.queued_events())
    }

    /// Spine time (sync + plan + route) per planned push, for a run that
    /// planned any.
    fn spine_ns_per_planned_push(&self) -> Option<f64> {
        (self.stages.planned_pushes > 0)
            .then(|| self.stages.spine_seconds() * 1e9 / self.stages.planned_pushes as f64)
    }
}

/// Runs each reference configuration once under a wall clock and prints
/// events/sec — the numbers the floors are enforced against.  `threads`
/// (the `PQS_BENCH_THREADS` knob) adds the multi-thread sharded run.
fn reference_runs(sys: &EpsilonIntersecting, threads: Option<u32>) -> Vec<Measured> {
    let mut measured = Vec::new();
    // One untimed pass over the largest cell first: the timed numbers
    // should measure the engine, not first-touch page faults and allocator
    // growth from a cold process.
    let _ = Simulation::new(sys, ProtocolKind::Safe, sharded_config(2000.0, 1)).run();
    let mut time_run = |name: String, config: SimConfig| {
        let start = Instant::now();
        let (report, stages) = Simulation::new(sys, ProtocolKind::Safe, config).run_with_stats();
        let seconds = start.elapsed().as_secs_f64();
        let m = Measured {
            name,
            events: report.events_processed,
            seconds,
            stages,
        };
        println!(
            "engine_throughput({}): {} events in {:.3}s -> {:.0} events/sec \
             (max in-flight {}, spine fraction {:.3})",
            m.name,
            m.events,
            seconds,
            m.events_per_sec(),
            report.max_in_flight,
            m.stages.spine_fraction(),
        );
        if let Some(ns) = m.spine_ns_per_planned_push() {
            println!(
                "engine_throughput({}): {} of them queued -> {:.0} queued events/sec \
                 ({} of {} planned pushes queued, spine {ns:.1} ns per planned push)",
                m.name,
                m.queued_events(),
                m.queued_events_per_sec(),
                m.stages.queued_pushes,
                m.stages.planned_pushes,
            );
        }
        measured.push(m);
    };
    time_run("safe_run/100".into(), engine_config(100.0));
    time_run("safe_run/500".into(), engine_config(500.0));
    time_run("diffusion_run/500".into(), diffusion_config(500.0));
    time_run("sharded_run/2000x1t".into(), sharded_config(2000.0, 1));
    time_run(
        "sharded_gossip_run/500x1t".into(),
        sharded_gossip_config(500.0, 1),
    );
    if let Some(t) = threads {
        time_run(format!("sharded_run/2000x{t}t"), sharded_config(2000.0, t));
    }
    measured
}

/// One timed queue-depth cell: backend name, held depth, hold operations
/// performed (one pop + one schedule each) and wall-clock seconds.
struct QueueMeasured {
    name: String,
    depth: usize,
    ops: u64,
    seconds: f64,
}

impl QueueMeasured {
    fn ops_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.ops as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// SplitMix64 step: a tiny deterministic generator so the queue microbench
/// needs no RNG dependency and replays identically run to run.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from SplitMix64 bits.
fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Builds a queue of `kind` holding `depth` pending events with times
/// uniform over `[0, depth)` — unit mean spacing, the density the hold
/// loop maintains.
fn prefilled_queue(kind: QueueKind, depth: usize, state: &mut u64) -> EventQueue<u64> {
    let mut queue = EventQueue::with_kind(kind);
    let span = depth as f64;
    for i in 0..depth {
        queue.schedule(unit_f64(state) * span, i as u64);
    }
    queue
}

/// The classic *hold* microbenchmark over the two `EventQueue` backends:
/// at a constant pending depth, each operation pops the earliest event and
/// reschedules it a uniform `[0, depth)` ahead, so the queue stays at the
/// target depth while cycling through its buckets.  ops/sec at depth 10^6
/// vs 10^2 is the O(1)-vs-O(log n) story in one table.
fn queue_depth_runs() -> Vec<QueueMeasured> {
    let mut measured = Vec::new();
    for &depth in &[100usize, 10_000, 1_000_000] {
        for (kind_name, kind) in [("heap", QueueKind::Heap), ("calendar", QueueKind::Calendar)] {
            let mut state = 0x5eed_0000 + depth as u64;
            let mut queue = prefilled_queue(kind, depth, &mut state);
            let span = depth as f64;
            let ops = 400_000u64;
            // Warm the hold loop before timing so the first bucket lap and
            // any initial resize settle out of the measurement.
            for _ in 0..(ops / 10) {
                let (t, ev) = queue.pop().expect("hold keeps the queue non-empty");
                queue.schedule(t + unit_f64(&mut state) * span, ev);
            }
            let start = Instant::now();
            for _ in 0..ops {
                let (t, ev) = queue.pop().expect("hold keeps the queue non-empty");
                queue.schedule(t + unit_f64(&mut state) * span, ev);
            }
            let seconds = start.elapsed().as_secs_f64();
            let m = QueueMeasured {
                name: format!("{kind_name}/{depth}"),
                depth,
                ops,
                seconds,
            };
            println!(
                "queue_depth({}): {} hold ops in {:.3}s -> {:.0} ops/sec",
                m.name,
                m.ops,
                seconds,
                m.ops_per_sec(),
            );
            measured.push(m);
        }
    }
    measured
}

/// Serialises the measurements (and the floor verdicts) as JSON by hand —
/// the vendored serde shim's derives are no-ops, so formatting is explicit.
fn write_json(
    measured: &[Measured],
    queue_measured: &[QueueMeasured],
    floor: Option<f64>,
    threads_floor: Option<f64>,
    spine_max: Option<f64>,
    queue_floor: Option<f64>,
    pass: bool,
) {
    let best = measured
        .iter()
        .map(Measured::queued_events_per_sec)
        .fold(0.0, f64::max);
    let runs: Vec<String> = measured
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"events\": {}, \"queued_events\": {}, \
                 \"seconds\": {:.6}, \"events_per_sec\": {:.0}, \
                 \"queued_events_per_sec\": {:.0}, \"drain_seconds\": {:.6}, \
                 \"sync_seconds\": {:.6}, \"plan_seconds\": {:.6}, \
                 \"route_seconds\": {:.6}, \"spine_fraction\": {:.4}, \
                 \"planned_pushes\": {}, \"queued_pushes\": {}, \
                 \"spine_ns_per_planned_push\": {}}}",
                m.name,
                m.events,
                m.queued_events(),
                m.seconds,
                m.events_per_sec(),
                m.queued_events_per_sec(),
                m.stages.drain_seconds,
                m.stages.sync_seconds,
                m.stages.plan_seconds,
                m.stages.route_seconds,
                m.stages.spine_fraction(),
                m.stages.planned_pushes,
                m.stages.queued_pushes,
                m.spine_ns_per_planned_push()
                    .map_or("null".to_string(), |ns| format!("{ns:.1}")),
            )
        })
        .collect();
    let queue_runs: Vec<String> = queue_measured
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"depth\": {}, \"ops\": {}, \
                 \"seconds\": {:.6}, \"ops_per_sec\": {:.0}}}",
                m.name,
                m.depth,
                m.ops,
                m.seconds,
                m.ops_per_sec(),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"event_engine\",\n  \"floor_events_per_sec\": {},\n  \
         \"threads_floor_events_per_sec\": {},\n  \
         \"spine_max_fraction\": {},\n  \
         \"queue_floor_ops_per_sec\": {},\n  \
         \"best_queued_events_per_sec\": {:.0},\n  \"pass\": {},\n  \"runs\": [\n{}\n  ],\n  \
         \"queue_depth\": [\n{}\n  ]\n}}\n",
        floor.map_or("null".to_string(), |f| format!("{f:.0}")),
        threads_floor.map_or("null".to_string(), |f| format!("{f:.0}")),
        spine_max.map_or("null".to_string(), |f| format!("{f:.3}")),
        queue_floor.map_or("null".to_string(), |f| format!("{f:.0}")),
        best,
        pass,
        runs.join(",\n"),
        queue_runs.join(",\n")
    );
    let dir = pqs_bench::output_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join("BENCH_engine.json");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("(bench json written to {})", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Measures and prints every cell, writes the JSON, then prints one verdict
/// per configured floor and exits nonzero if any of them failed.
fn main() {
    let sys = EpsilonIntersecting::with_target_epsilon(100, 1e-3).unwrap();
    let floor: Option<f64> = std::env::var("PQS_BENCH_FLOOR")
        .ok()
        .map(|v| v.parse().expect("PQS_BENCH_FLOOR must be a number"));
    let threads: Option<u32> = std::env::var("PQS_BENCH_THREADS")
        .ok()
        .map(|v| v.parse().expect("PQS_BENCH_THREADS must be a thread count"));
    let threads_floor: Option<f64> = std::env::var("PQS_BENCH_THREADS_FLOOR")
        .ok()
        .map(|v| v.parse().expect("PQS_BENCH_THREADS_FLOOR must be a number"));
    let spine_max: Option<f64> = std::env::var("PQS_BENCH_SPINE_MAX_FRACTION").ok().map(|v| {
        v.parse()
            .expect("PQS_BENCH_SPINE_MAX_FRACTION must be a number in 0..1")
    });
    let queue_floor: Option<f64> = std::env::var("PQS_BENCH_QUEUE_FLOOR")
        .ok()
        .map(|v| v.parse().expect("PQS_BENCH_QUEUE_FLOOR must be a number"));

    let measured = reference_runs(&sys, threads);
    let queue_measured = queue_depth_runs();
    let best = measured
        .iter()
        .map(Measured::queued_events_per_sec)
        .fold(0.0, f64::max);
    let threaded: Option<f64> = threads.and_then(|t| {
        measured
            .iter()
            .find(|m| m.name == format!("sharded_run/2000x{t}t"))
            .map(Measured::events_per_sec)
    });
    let spine_fraction: Option<f64> = measured
        .iter()
        .find(|m| m.name.starts_with("sharded_gossip_run"))
        .map(|m| m.stages.spine_fraction());
    let one_shard_pass = floor.is_none_or(|f| best >= f);
    let threads_pass = match threads_floor {
        Some(f) => threaded.is_some_and(|r| r >= f),
        None => true,
    };
    let spine_pass = match spine_max {
        Some(f) => spine_fraction.is_some_and(|s| s <= f),
        None => true,
    };
    // The O(1) guarantee is what the floor pins: the calendar backend at
    // the deepest cell (10^6 pending) must still clear the floor, where a
    // log-depth backend visibly cannot.
    let deep_calendar: Option<f64> = queue_measured
        .iter()
        .find(|m| m.name == "calendar/1000000")
        .map(QueueMeasured::ops_per_sec);
    let queue_pass = match queue_floor {
        Some(f) => deep_calendar.is_some_and(|r| r >= f),
        None => true,
    };
    let pass = one_shard_pass && threads_pass && spine_pass && queue_pass;
    write_json(
        &measured,
        &queue_measured,
        floor,
        threads_floor,
        spine_max,
        queue_floor,
        pass,
    );
    if let Some(f) = floor {
        if one_shard_pass {
            println!("bench floor: best {best:.0} queued events/sec >= floor {f:.0} — ok");
        } else {
            eprintln!(
                "bench floor VIOLATED: best {best:.0} queued events/sec < floor {f:.0} \
                 — the engine hot loop regressed"
            );
        }
    }
    if let Some(f) = threads_floor {
        match threaded {
            Some(r) if r >= f => {
                println!("bench threads floor: {r:.0} events/sec >= floor {f:.0} — ok");
            }
            Some(r) => eprintln!(
                "bench threads floor VIOLATED: {r:.0} events/sec < floor {f:.0} \
                 — the parallel engine regressed"
            ),
            None => eprintln!(
                "bench threads floor VIOLATED: PQS_BENCH_THREADS_FLOOR set \
                 without PQS_BENCH_THREADS, nothing to measure"
            ),
        }
    }
    if let Some(f) = spine_max {
        match spine_fraction {
            Some(s) if s <= f => {
                println!("bench spine fraction: {s:.3} <= max {f:.3} — ok");
            }
            Some(s) => eprintln!(
                "bench spine fraction VIOLATED: {s:.3} > max {f:.3} — the \
                 spine's barrier work (sync/plan/route) is no longer \
                 proportional to per-round work"
            ),
            None => eprintln!(
                "bench spine fraction VIOLATED: no sharded gossip cell was \
                 measured"
            ),
        }
    }
    if let Some(f) = queue_floor {
        match deep_calendar {
            Some(r) if r >= f => {
                println!("bench queue floor: calendar/1000000 {r:.0} ops/sec >= floor {f:.0} — ok");
            }
            Some(r) => eprintln!(
                "bench queue floor VIOLATED: calendar/1000000 {r:.0} ops/sec \
                 < floor {f:.0} — the calendar queue lost its O(1) hold cost"
            ),
            None => eprintln!(
                "bench queue floor VIOLATED: no calendar/1000000 cell was \
                 measured"
            ),
        }
    }
    if !pass {
        std::process::exit(1);
    }
}
