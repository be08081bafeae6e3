//! The capacity planner and its prediction contract.
//!
//! `plan` inverts the validators' parameter sweeps: given a staleness
//! target (`--epsilon`), a latency SLO (`--p99-slo`) and a workload shape,
//! it emits the locally minimal configuration the paper's tail bounds
//! predict will meet them — as a ready-to-run `SimConfig::builder()` chain — together
//! with the predicted report (ε band, p99, per-server load, gossip volume).
//! Start from a named scenario preset (`--scenario directory|hotkey|lock`,
//! see `docs/PLANNER.md`) and override any knob.  It exits 0 for a solved
//! plan, 1 when the objectives are infeasible within `--max-universe`, 2
//! for bad usage.
//!
//! `validate_plan` makes every plan the planner emits survive contact with
//! the simulator.  For each scenario preset of [`crate::planner`] it solves
//! the plan, renders it as a `SimConfig` (checking the builder round-trip),
//! runs the discrete-event simulator on it, and holds the measured numbers
//! to the tolerance bands documented in `docs/ANALYSIS.md`:
//!
//! * the Wilson interval of the measured stale-read rate must not exceed
//!   the predicted `epsilon_upper` (one-sided — gossip only freshens);
//! * a diffusion-off twin run must land *inside* the two-sided
//!   `[epsilon_lower, epsilon_upper]` band;
//! * the measured p99 must fall within ±25% (plus absolute slack) of the
//!   predicted p99;
//! * unavailability must stay inside the planner's timeout budget.
//!
//! Any miss fails the run, which is what turns the analysis document into
//! a CI-enforced contract rather than prose.  `--quick` runs the first
//! scenario only, at a quarter of the sized duration (the Wilson bands
//! widen automatically).

use pqs_core::prelude::*;
use pqs_math::plan::{self, PlanInput, ProbeLatency};
use pqs_sim::runner::{ProtocolKind, Simulation};

use crate::cli::{self, ExtraFlag};
use crate::harness::Harness;
use crate::{fmt_prob, planner, ExperimentTable};

pub(super) const ABOUT: &str = "capacity planner: minimal (n, q, margin, gossip) for the SLOs";

pub(super) const FLAGS: &[ExtraFlag] = &[
    ExtraFlag {
        flag: "--scenario",
        value_name: "NAME",
        help: "preset to start from: directory, hotkey or lock (default directory)",
    },
    ExtraFlag {
        flag: "--epsilon",
        value_name: "EPS",
        help: "target staleness bound in (0.002, 1)",
    },
    ExtraFlag {
        flag: "--p99-slo",
        value_name: "SECS",
        help: "target 99th-percentile operation latency, seconds",
    },
    ExtraFlag {
        flag: "--arrival-rate",
        value_name: "OPS",
        help: "offered operations per second",
    },
    ExtraFlag {
        flag: "--read-fraction",
        value_name: "FRAC",
        help: "fraction of operations that are reads, in [0, 1]",
    },
    ExtraFlag {
        flag: "--keys",
        value_name: "N",
        help: "number of distinct keys",
    },
    ExtraFlag {
        flag: "--zipf",
        value_name: "S",
        help: "Zipf exponent of key popularity (0 = uniform)",
    },
    ExtraFlag {
        flag: "--crash",
        value_name: "P",
        help: "per-server time-zero crash probability, in [0, 1)",
    },
    ExtraFlag {
        flag: "--latency-mean",
        value_name: "SECS",
        help: "mean of the exponential per-probe latency law",
    },
    ExtraFlag {
        flag: "--max-server-rate",
        value_name: "OPS",
        help: "per-server probe-rate cap, probes per second",
    },
    ExtraFlag {
        flag: "--max-universe",
        value_name: "N",
        help: "ceiling for the universe-size search (default 4096)",
    },
];

/// A flag value `plan` cannot accept: a usage error, like a malformed flag.
fn usage_error(msg: String) -> ! {
    cli::usage_error(&msg, &cli::help_text("plan", ABOUT, FLAGS))
}

fn parse_f64(flag: &str, value: &str) -> f64 {
    value
        .parse()
        .unwrap_or_else(|_| usage_error(format!("{flag} expects a number, got {value:?}")))
}

fn parse_u64(flag: &str, value: &str) -> u64 {
    value.parse().unwrap_or_else(|_| {
        usage_error(format!("{flag} expects an unsigned integer, got {value:?}"))
    })
}

/// Folds the collected extra flags over the chosen scenario preset.
fn build_input(extras: &[(String, String)]) -> (String, PlanInput) {
    let scenario_name = extras
        .iter()
        .rev()
        .find(|(f, _)| f == "--scenario")
        .map(|(_, v)| v.clone())
        .unwrap_or_else(|| "directory".to_string());
    let scenario = planner::scenario_by_name(&scenario_name).unwrap_or_else(|| {
        usage_error(format!(
            "unknown scenario {scenario_name:?} (expected directory, hotkey or lock)"
        ))
    });
    let mut input = scenario.input;
    for (flag, value) in extras {
        match flag.as_str() {
            "--scenario" => {}
            "--epsilon" => input.slo.epsilon = parse_f64(flag, value),
            "--p99-slo" => input.slo.p99_latency = parse_f64(flag, value),
            "--arrival-rate" => input.workload.arrival_rate = parse_f64(flag, value),
            "--read-fraction" => input.workload.read_fraction = parse_f64(flag, value),
            "--keys" => input.workload.keys = parse_u64(flag, value),
            "--zipf" => input.workload.zipf_exponent = parse_f64(flag, value),
            "--crash" => input.workload.crash_fraction = parse_f64(flag, value),
            "--latency-mean" => {
                input.latency = ProbeLatency::Exponential {
                    mean: parse_f64(flag, value),
                }
            }
            "--max-server-rate" => input.slo.max_server_rate = parse_f64(flag, value),
            "--max-universe" => input.max_universe = parse_u64(flag, value),
            other => usage_error(format!("unhandled flag {other:?}")),
        }
    }
    (scenario_name, input)
}

pub(super) fn plan(h: &mut Harness<'_>) {
    let (scenario_name, input) = build_input(h.extras());
    let (seed, quick) = (h.cli().seed, h.cli().quick);

    let solved = match plan::solve(&input) {
        Ok(p) => p,
        Err(e) => {
            h.check(
                false,
                format_args!("no feasible plan for scenario {scenario_name:?}: {e}"),
            );
            return;
        }
    };

    let duration = planner::duration_for(&input, &solved, quick);
    let config = planner::plan_config(&input, &solved, seed, duration, true);
    let p = &solved.predicted;

    let mut table = ExperimentTable::new(
        format!("plan {scenario_name}"),
        &["quantity", "value", "meaning"],
    );
    let mut row = |q: &str, v: String, m: &str| table.push_row(vec![q.into(), v, m.into()]);
    row("n", solved.n.to_string(), "universe size (servers)");
    row(
        "q",
        solved.q.to_string(),
        "quorum size (complete on first q replies)",
    );
    row(
        "probe_margin",
        solved.probe_margin.to_string(),
        "extra servers probed per op",
    );
    match solved.gossip {
        Some(g) => {
            row(
                "gossip_period",
                format!("{:.3}s", g.period),
                "seconds between rounds",
            );
            row(
                "gossip_fanout",
                g.fanout.to_string(),
                "digest targets per round",
            );
            row(
                "gossip_mode",
                if g.digest_delta {
                    "digest/delta".into()
                } else {
                    "full push".into()
                },
                "what rounds put on the wire",
            );
        }
        None => row(
            "gossip",
            "off".into(),
            "all-read workload: nothing to diffuse",
        ),
    }
    row(
        "epsilon_predicted",
        fmt_prob(p.epsilon),
        "point prediction of the stale-read rate",
    );
    row(
        "epsilon_band",
        format!(
            "[{}, {}]",
            fmt_prob(p.epsilon_lower),
            fmt_prob(p.epsilon_upper)
        ),
        "tolerance band enforced by validate_plan",
    );
    row(
        "epsilon_lemma_bound",
        fmt_prob(p.epsilon_lemma_bound),
        "closed-form e^(-l^2) at the effective l",
    );
    row(
        "p99_predicted",
        format!("{:.4}s", p.p99_latency),
        "99th-pct op latency",
    );
    row(
        "p99_bracket",
        format!("[{:.4}s, {:.4}s]", p.p99_lower, p.p99_upper),
        "quantile across the plausible crash draws",
    );
    row(
        "timeout_probability",
        fmt_prob(p.timeout_probability),
        "P(cannot assemble q live replies)",
    );
    row(
        "op_timeout",
        format!("{:.4}s", p.op_timeout),
        "recommended attempt cutoff",
    );
    row(
        "load_fraction",
        format!("{:.4}", p.load_fraction),
        "(q+margin)/n, the Definition 2.4 load",
    );
    row(
        "server_probe_rate",
        format!("{:.2}/s", p.server_probe_rate),
        "probes per second per server",
    );
    if solved.gossip.is_some() {
        row(
            "gossip_digest_rate",
            format!("{:.1}/s", p.gossip_digest_rate),
            "digests per second, live universe",
        );
        row(
            "gossip_records_per_write",
            format!("{:.0}", p.gossip_records_per_write),
            "upper bound on delta records per write",
        );
        row(
            "gossip_coverage",
            format!("{:.3}s", p.gossip_coverage_seconds),
            "predicted time to full live coverage",
        );
    }
    h.emit(&table);

    h.line(format_args!(
        "emitted SimConfig ({duration:.0}s run, seed {seed}):"
    ));
    h.line(format_args!("  {}", config.to_builder_chain()));
    h.line("");
    h.line(format_args!(
        "verify with: validate_plan --seed {seed} {}",
        if quick { "--quick" } else { "" }
    ));
}

pub(super) fn validate_plan(h: &mut Harness<'_>) {
    let (base_seed, quick) = (h.cli().seed, h.cli().quick);
    let mut table = ExperimentTable::new(
        "validate_plan_prediction_contract",
        &[
            "scenario",
            "gossip",
            "n",
            "q",
            "margin",
            "eps predicted band",
            "eps measured",
            "p99 predicted",
            "p99 measured",
            "unavailability",
        ],
    );

    let scenarios = planner::scenarios();
    let active: &[planner::Scenario] = if quick { &scenarios[..1] } else { &scenarios };

    for scenario in active {
        let solved = match pqs_math::plan::solve(&scenario.input) {
            Ok(p) => p,
            Err(e) => {
                h.check(
                    false,
                    format_args!("{}: planner found no feasible plan: {e}", scenario.name),
                );
                continue;
            }
        };
        let system = match EpsilonIntersecting::new(solved.n as u32, solved.q as u32) {
            Ok(s) => s,
            Err(e) => {
                h.check(
                    false,
                    format_args!(
                        "{}: emitted (n={}, q={}) rejected by EpsilonIntersecting: {e}",
                        scenario.name, solved.n, solved.q
                    ),
                );
                continue;
            }
        };
        let duration = planner::duration_for(&scenario.input, &solved, quick);
        let seed = base_seed
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(scenario.name.len() as u64);

        for diffusion_on in [true, false] {
            let config =
                planner::plan_config(&scenario.input, &solved, seed, duration, diffusion_on);
            h.check(
                planner::builder_round_trips(&config),
                format_args!(
                    "{}: emitted config does not round-trip through SimConfig::builder()",
                    scenario.name
                ),
            );
            let label = format!(
                "{} ({})",
                scenario.name,
                if diffusion_on {
                    "gossip on"
                } else {
                    "gossip off"
                }
            );
            let report = Simulation::new(&system, ProtocolKind::Safe, config).run();
            planner::check_prediction(h, &label, &solved, &report, diffusion_on);
            let p = &solved.predicted;
            table.push_row(vec![
                scenario.name.to_string(),
                if diffusion_on { "on" } else { "off" }.to_string(),
                solved.n.to_string(),
                solved.q.to_string(),
                solved.probe_margin.to_string(),
                format!(
                    "[{}, {}]",
                    fmt_prob(p.epsilon_lower),
                    fmt_prob(p.epsilon_upper)
                ),
                fmt_prob(report.eligible_stale_read_rate()),
                format!("{:.4}s", p.p99_latency),
                format!("{:.4}s", report.p99_latency()),
                fmt_prob(report.unavailability()),
            ]);
        }
    }

    h.emit(&table);
}
