//! Experiments V7 and V8: write-diffusion scheduled inside the
//! discrete-event engine — blind full push, then digest/delta.
//!
//! Section 1.1 argues a probabilistic-quorum system "can be strengthened by
//! a properly designed diffusion mechanism" that propagates updates lazily,
//! off the critical path (\[DGH+87\]).  Both validators measure that claim
//! under foreground load: a loose ε-intersecting system (ε ≈ 0.3, so stale
//! reads are common) serves a Zipf-skewed key space while the engine
//! interleaves server-to-server gossip with the client probes.
//!
//! The checks are sharp because gossip draws from its own RNG stream:
//! every cell of a sweep replays the *identical* foreground trajectory
//! (same workload, same probe sets, same per-server accesses) as the
//! diffusion-off baseline, and gossip can only freshen server state, so
//! per-key staleness is dominated read by read.

use pqs_core::prelude::*;
use pqs_sim::latency::LatencyModel;
use pqs_sim::metrics::SimReport;
use pqs_sim::runner::{DiffusionPolicy, KeyGossipPolicy, ProtocolKind, SimConfig, Simulation};
use pqs_sim::workload::KeySpace;

use super::kv_sim_config;
use crate::harness::Harness;
use crate::ExperimentTable;

/// Deliberately loose: ε ≈ 0.3, so the baseline has plenty of stale reads
/// for diffusion to eliminate.
fn loose_system() -> EpsilonIntersecting {
    EpsilonIntersecting::new(64, 8).expect("valid system")
}

fn sim_config(seed: u64) -> SimConfig {
    kv_sim_config(seed, 60.0, 0.9, KeySpace::zipf(16, 1.2))
}

const GOSSIP_LATENCY: LatencyModel = LatencyModel::Exponential { mean: 2e-3 };

/// Stale + empty reads on the hottest Zipf key — directly comparable
/// across cells because every cell replays the identical foreground.
fn hot_failures(report: &SimReport) -> u64 {
    report.per_variable[0].stale_reads + report.per_variable[0].empty_reads
}

/// Reads of the hottest key that staleness is counted over.
fn hot_eligible_reads(report: &SimReport) -> u64 {
    let hot = &report.per_variable[0];
    hot.completed_reads.saturating_sub(hot.concurrent_reads)
}

/// Whether gossip left the foreground alone: it lives on its own RNG
/// stream and answers no client probe.
fn same_foreground(cell: &SimReport, baseline: &SimReport) -> bool {
    cell.completed_reads == baseline.completed_reads
        && cell.completed_writes == baseline.completed_writes
        && cell.per_server_accesses == baseline.per_server_accesses
}

/// V7: sweeps the full-push `DiffusionPolicy` period × fanout grid and
/// fails unless diffusion cuts the measured stale-read rate on the hottest
/// Zipf key.
pub(super) fn validate_diffusion(h: &mut Harness<'_>) {
    let sys = loose_system();
    let eps = sys.epsilon();
    let config = sim_config(h.cli().seed.wrapping_mul(0x9e37) ^ 0xd1f);

    let baseline = Simulation::new(&sys, ProtocolKind::Safe, config).run();
    let replay = Simulation::new(&sys, ProtocolKind::Safe, config).run();
    h.check(
        baseline == replay,
        "diffusion-off runs are not bit-identical",
    );
    h.check(
        baseline.gossip_rounds == 0 && baseline.gossip_pushes == 0,
        "diffusion-off run scheduled gossip events",
    );
    let base_hot_stale = hot_failures(&baseline);
    let base_hot_reads = hot_eligible_reads(&baseline);
    let base_hot_rate = baseline.per_variable[0].stale_read_rate();
    h.check(
        base_hot_stale >= 30,
        format_args!(
            "baseline hot key has only {base_hot_stale} stale reads — \
             the experiment cannot measure a reduction"
        ),
    );

    let mut table = ExperimentTable::new(
        "validate_diffusion_period_x_fanout",
        &[
            "period (s)",
            "fanout",
            "rounds",
            "pushes",
            "stores",
            "hot stale rate",
            "hot reduction",
            "aggregate stale rate",
            "hot rounds-to-cover",
        ],
    );
    table.push_row(vec![
        "off".to_string(),
        "-".to_string(),
        "0".to_string(),
        "0".to_string(),
        "0".to_string(),
        format!("{base_hot_rate:.4}"),
        "1.00x".to_string(),
        format!("{:.4}", baseline.stale_read_rate()),
        "-".to_string(),
    ]);

    // In quick mode only the aggressive gossip period runs (the headline
    // 40%-cut check needs it); the baseline and its invariants are
    // untouched, the sweep just has fewer cells.
    let periods: &[f64] = if h.cli().quick { &[0.1] } else { &[0.4, 0.1] };
    let fanouts = [1u32, 3];
    let mut per_period_hot: Vec<Vec<u64>> = Vec::new();
    let mut best_hot_stale = u64::MAX;
    for &period in periods {
        let mut row_hot = Vec::new();
        for &fanout in &fanouts {
            let mut cell = config;
            cell.diffusion =
                Some(DiffusionPolicy::full_push(period, fanout).with_push_latency(GOSSIP_LATENCY));
            let report = Simulation::new(&sys, ProtocolKind::Safe, cell).run();
            let key = format!("period {period} fanout {fanout}");

            // Invariant 1: the foreground trajectory is untouched.
            h.check(
                same_foreground(&report, &baseline),
                format_args!(
                    "{key}: foreground trajectory \
                     diverged from the diffusion-off baseline"
                ),
            );
            // Invariant 2: domination — gossip only freshens servers, so
            // staleness can only drop, per key and in aggregate.
            let hot = &report.per_variable[0];
            let hot_stale = hot_failures(&report);
            h.check(
                hot_eligible_reads(&report) == base_hot_reads,
                format_args!("{key}: hot-key read count changed"),
            );
            h.check(
                hot_stale <= base_hot_stale
                    && report.stale_reads + report.empty_reads
                        <= baseline.stale_reads + baseline.empty_reads,
                format_args!(
                    "{key}: staleness rose above the \
                         baseline ({hot_stale} vs {base_hot_stale} on the hot key)"
                ),
            );
            // Invariant 3: gossip actually ran and did work.
            h.check(
                report.gossip_rounds != 0 && report.gossip_stores != 0,
                format_args!("{key}: no gossip work recorded"),
            );
            let reduction = if hot_stale == 0 {
                f64::INFINITY
            } else {
                base_hot_stale as f64 / hot_stale as f64
            };
            table.push_row(vec![
                format!("{period}"),
                fanout.to_string(),
                report.gossip_rounds.to_string(),
                report.gossip_pushes.to_string(),
                report.gossip_stores.to_string(),
                format!("{:.4}", hot.stale_read_rate()),
                format!("{reduction:.2}x"),
                format!("{:.4}", report.stale_read_rate()),
                match hot.mean_rounds_to_coverage() {
                    Some(r) => format!("{r:.2}"),
                    None => "-".to_string(),
                },
            ]);
            best_hot_stale = best_hot_stale.min(hot_stale);
            row_hot.push(hot_stale);
        }
        per_period_hot.push(row_hot);
    }
    h.emit(&table);

    // The headline claim: an aggressive policy (fast rounds, wide fanout)
    // must cut the hot key's stale-read count substantially — not just
    // within noise (and the domination invariant already rules noise out).
    h.check(
        (best_hot_stale as f64) <= 0.6 * base_hot_stale as f64,
        format_args!(
            "best diffusion cell leaves {best_hot_stale} hot-key stale reads \
                 of {base_hot_stale} baseline — less than a 40% cut"
        ),
    );
    // Coverage is monotone in fanout at fixed period (generous slack: the
    // two cells use different gossip draws, so allow sampling noise).
    for (row, &period) in per_period_hot.iter().zip(periods) {
        let (narrow, wide) = (row[0] as f64, row[1] as f64);
        h.check(
            wide <= narrow + 3.0 * narrow.sqrt() + 3.0,
            format_args!(
                "period {period}: fanout 3 left more hot-key stale reads \
                 ({wide}) than fanout 1 ({narrow})"
            ),
        );
    }

    h.line(format_args!(
        "baseline: epsilon {eps:.4}, hot-key stale rate {base_hot_rate:.4} \
         ({base_hot_stale}/{base_hot_reads} non-concurrent reads)"
    ));
}

/// Wall-clock seconds for a fresh hot-key record to reach 90% of correct
/// servers: mean rounds to coverage × round period.
fn hot_seconds_to_coverage(report: &SimReport, period: f64) -> Option<f64> {
    report.per_variable[0]
        .mean_rounds_to_coverage()
        .map(|rounds| rounds * period)
}

struct Cell {
    label: String,
    period: f64,
    fanout: u32,
    report: SimReport,
}

/// V8: digest/delta adaptive write-diffusion.
///
/// Engine-scheduled full push sends *every* held record to every fanout
/// peer each round; measured on the `validate_diffusion` reference cell,
/// ~85% of those transfers freshen nobody.  The digest/delta protocol
/// (`GossipMode::DigestDelta`) replaces the blind push with a two-leg
/// exchange — a per-key version summary out, only the records the
/// summary's sender provably lacks back — and a `KeyGossipPolicy` that can
/// gossip hot or recently-written keys faster than cold ones.
///
/// This validator sweeps policy × period × fanout over the digest mode and
/// holds it against the frozen full-push reference cell (period 0.1 s,
/// fanout 3).  It fails unless:
///
/// * every cell replays the identical foreground trajectory and dominates
///   the gossip-free baseline's staleness per key,
/// * the full-push reference keeps the digest machinery completely cold
///   (no digests, no avoided-push accounting), and
/// * at least one digest cell cuts the record-transfer volume by **≥ 60%**
///   versus full-push while matching or beating its hot-key stale-read
///   count *and* its hot-key wall-clock time to 90% coverage — the
///   adaptive protocol must be cheaper without being weaker where it
///   matters most.
pub(super) fn validate_adaptive_diffusion(h: &mut Harness<'_>) {
    let sys = loose_system();
    let config = sim_config(h.cli().seed.wrapping_mul(0x51ed) ^ 0xace1);

    // Gossip-free baseline: the staleness every gossip cell must dominate.
    let off = Simulation::new(&sys, ProtocolKind::Safe, config).run();
    h.check(
        off.gossip_digests == 0 && off.gossip_redundant_pushes_avoided == 0,
        "diffusion-off run recorded digest metrics",
    );
    h.check(
        hot_failures(&off) >= 30,
        format_args!(
            "baseline hot key has only {} stale reads — the experiment \
             cannot measure a reduction",
            hot_failures(&off)
        ),
    );

    // The frozen reference: blind full-push at period 0.1, fanout 3.
    let push_period = 0.1;
    let mut push_config = config;
    push_config.diffusion =
        Some(DiffusionPolicy::full_push(push_period, 3).with_push_latency(GOSSIP_LATENCY));
    let push = Simulation::new(&sys, ProtocolKind::Safe, push_config).run();
    h.check(
        push.gossip_digests == 0 && push.gossip_redundant_pushes_avoided == 0,
        "full-push mode touched the digest machinery",
    );
    h.check(
        push.gossip_pushes != 0 && push.gossip_stores != 0,
        "full-push reference did no gossip work",
    );
    let push_cover = hot_seconds_to_coverage(&push, push_period);
    h.check(
        push_cover.is_some(),
        "full-push reference never covered the hot key",
    );

    let policies: [(&str, KeyGossipPolicy); 3] = [
        ("uniform", KeyGossipPolicy::Uniform),
        (
            "hot-first(4,/8)",
            KeyGossipPolicy::HotFirst {
                hot_keys: 4,
                cold_every: 8,
            },
        ),
        (
            "recent(0.5s,/8)",
            KeyGossipPolicy::RecentWrites {
                window: 0.5,
                cold_every: 8,
            },
        ),
    ];
    // Quick mode drops the faster period: the remaining cells still cover
    // every policy and the full-push reference the headline check needs.
    let periods: &[f64] = if h.cli().quick { &[0.1] } else { &[0.1, 0.05] };
    let fanouts = [2u32, 3];

    let mut table = ExperimentTable::new(
        "validate_adaptive_diffusion_policy_x_period_x_fanout",
        &[
            "cell",
            "period (s)",
            "fanout",
            "digests",
            "records moved",
            "stores",
            "avoided",
            "volume vs push",
            "hot stale",
            "hot t-cover (s)",
        ],
    );
    table.push_row(vec![
        "off".to_string(),
        "-".to_string(),
        "-".to_string(),
        "0".to_string(),
        "0".to_string(),
        "0".to_string(),
        "0".to_string(),
        "-".to_string(),
        hot_failures(&off).to_string(),
        "-".to_string(),
    ]);
    table.push_row(vec![
        "full-push".to_string(),
        format!("{push_period}"),
        "3".to_string(),
        "0".to_string(),
        push.gossip_pushes.to_string(),
        push.gossip_stores.to_string(),
        "0".to_string(),
        "1.00".to_string(),
        hot_failures(&push).to_string(),
        push_cover.map_or("-".to_string(), |s| format!("{s:.3}")),
    ]);

    let mut cells: Vec<Cell> = Vec::new();
    for (name, key_policy) in &policies {
        for &period in periods {
            for &fanout in &fanouts {
                let mut cell_config = config;
                cell_config.diffusion = Some(
                    DiffusionPolicy::digest_delta(period, fanout)
                        .with_push_latency(GOSSIP_LATENCY)
                        .with_key_policy(*key_policy),
                );
                let report = Simulation::new(&sys, ProtocolKind::Safe, cell_config).run();
                let label = format!("digest {name}");
                let key = format!("{label} period {period} fanout {fanout}");

                // Invariant 1: identical foreground trajectory.
                h.check(
                    same_foreground(&report, &off),
                    format_args!(
                        "{key}: foreground \
                         trajectory diverged from the diffusion-off baseline"
                    ),
                );
                // Invariant 2: domination — gossip only freshens servers.
                h.check(
                    report.stale_reads + report.empty_reads <= off.stale_reads + off.empty_reads
                        && hot_failures(&report) <= hot_failures(&off),
                    format_args!(
                        "{key}: staleness rose \
                             above the gossip-free baseline"
                    ),
                );
                // Invariant 3: the digest machinery genuinely ran.
                h.check(
                    report.gossip_digests != 0
                        && report.gossip_stores != 0
                        && report.gossip_redundant_pushes_avoided != 0,
                    format_args!(
                        "{key}: no digest \
                             gossip work recorded"
                    ),
                );
                h.check(
                    report.gossip_stores <= report.gossip_pushes,
                    format_args!(
                        "{key}: more stores \
                         than transferred records"
                    ),
                );

                table.push_row(vec![
                    label.clone(),
                    format!("{period}"),
                    fanout.to_string(),
                    report.gossip_digests.to_string(),
                    report.gossip_pushes.to_string(),
                    report.gossip_stores.to_string(),
                    report.gossip_redundant_pushes_avoided.to_string(),
                    format!(
                        "{:.3}",
                        report.gossip_pushes as f64 / push.gossip_pushes as f64
                    ),
                    hot_failures(&report).to_string(),
                    hot_seconds_to_coverage(&report, period)
                        .map_or("-".to_string(), |s| format!("{s:.3}")),
                ]);
                cells.push(Cell {
                    label,
                    period,
                    fanout,
                    report,
                });
            }
        }
    }
    h.emit(&table);

    // Selective digests advertise fewer keys, so they can only prove less
    // redundancy than complete (uniform) digests at the same settings.
    for &period in periods {
        for &fanout in &fanouts {
            let find = |label: &str| {
                cells
                    .iter()
                    .find(|c| {
                        c.label == format!("digest {label}")
                            && c.period == period
                            && c.fanout == fanout
                    })
                    .map(|c| c.report.gossip_redundant_pushes_avoided)
            };
            if let (Some(uniform), Some(hot)) = (find("uniform"), find("hot-first(4,/8)")) {
                h.check(
                    hot <= uniform,
                    format_args!(
                        "period {period} fanout {fanout}: hot-first digests proved \
                         more redundancy ({hot}) than complete digests ({uniform})"
                    ),
                );
            }
        }
    }

    // The headline claim: some digest cell is ≥60% cheaper in record
    // transfers than full-push while matching or beating its hot-key
    // staleness and wall-clock coverage speed.
    let push_hot = hot_failures(&push);
    let winner = cells.iter().find(|c| {
        let volume_ok = (c.report.gossip_pushes as f64) <= 0.4 * push.gossip_pushes as f64;
        let stale_ok = hot_failures(&c.report) <= push_hot;
        let cover_ok = match (hot_seconds_to_coverage(&c.report, c.period), push_cover) {
            (Some(digest), Some(push)) => digest <= push,
            _ => false,
        };
        volume_ok && stale_ok && cover_ok
    });
    h.check(
        winner.is_some(),
        "no digest cell achieved a >=60% push-volume cut at \
         equal-or-better hot-key staleness and coverage speed",
    );
    if let Some(c) = winner {
        h.line(format_args!(
            "winner: {} period {} — {:.1}% of full-push volume, hot stale \
             {} vs {}, hot coverage {:.3}s vs {:.3}s",
            c.label,
            c.period,
            100.0 * c.report.gossip_pushes as f64 / push.gossip_pushes as f64,
            hot_failures(&c.report),
            push_hot,
            hot_seconds_to_coverage(&c.report, c.period).unwrap_or(f64::NAN),
            push_cover.unwrap_or(f64::NAN),
        ));
    }

    h.line(format_args!(
        "baseline: epsilon {:.4}, hot-key failures {} (off) vs {} (full-push, \
         {} records moved)",
        sys.epsilon(),
        hot_failures(&off),
        push_hot,
        push.gossip_pushes
    ));
}
