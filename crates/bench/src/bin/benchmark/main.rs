//! The repo benchmark: five named workloads, eight end-to-end metrics,
//! per-layer probes and a traced run.  See `README.md` beside this file
//! for what each workload and metric is for, and `BENCHMARK.json` at the
//! repo root for the contract the numbers are judged by.
//!
//! ```text
//! benchmark --workload NAME [--seed S] [--seconds T] [--reps N] [--trace [0|1]]
//! benchmark --all [--seed S] [--seconds T] [--reps N] [--trace]
//! benchmark --aa  [--seed S] [--seconds T] [--reps N]
//! benchmark --list
//! ```
//!
//! `--workload` measures one workload in this process and prints, as its
//! last line, one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`): the end-to-end metrics, or with `--trace 1` the per-layer
//! ones.  `--all` and `--aa` re-execute this binary once per workload, one
//! child at a time, so that `peak_rss_mb` is per workload.  The layers are
//! measured from outside, through their public functions only.

mod host;
mod json;
mod metrics;
mod probes;
mod run;
mod trace;
mod workloads;

use json::Json;
use metrics::{regressed, worse_by, END_TO_END, PER_LAYER};
use run::Options;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Spec, SPECS};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Measure one workload in this process.
    One(&'static Spec),
    /// Every workload, each in a child process.
    All,
    /// The full set twice on the same code, compared with the bounds.
    Aa,
    List,
}

#[derive(Debug, Clone, Copy)]
struct Cli {
    mode: Mode,
    options: Options,
}

const USAGE: &str = "usage: benchmark (--workload NAME | --all | --aa | --list) \
                     [--seed S] [--seconds T] [--reps N] [--trace [0|1]]";

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut mode = None;
    let mut options = Options {
        seed: 1,
        seconds: 12.0,
        reps: None,
        trace: false,
    };
    let mut set_mode = |m: Mode| match mode.replace(m) {
        None => Ok(()),
        Some(_) => Err("give one of --workload, --all, --aa, --list".to_string()),
    };
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let spec = workloads::spec(name)
                    .ok_or_else(|| format!("unknown workload {name:?}; try --list"))?;
                set_mode(Mode::One(spec))?;
            }
            "--all" => set_mode(Mode::All)?,
            "--aa" => set_mode(Mode::Aa)?,
            "--list" => set_mode(Mode::List)?,
            "--seed" => {
                options.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {seconds}"));
                }
                options.seconds = seconds;
            }
            "--reps" => {
                let reps: usize = value("a repetition count")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if !(1..=1000).contains(&reps) {
                    return Err(format!("--reps must be in 1..=1000, got {reps}"));
                }
                options.reps = Some(reps);
            }
            "--trace" => {
                // `--trace 0|1` for the driver, bare `--trace` by hand.
                options.trace = match args.peek().map(|s| s.as_str()) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        options.trace = true;
                        continue;
                    }
                };
                args.next();
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let mode = mode.ok_or_else(|| "nothing to do".to_string())?;
    if mode == Mode::Aa && options.trace {
        return Err("--aa compares end-to-end metrics only; drop --trace".to_string());
    }
    Ok(Cli { mode, options })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match cli.mode {
        Mode::List => {
            list();
            true
        }
        Mode::One(spec) => one(spec, cli.options),
        Mode::All => all(cli.options),
        Mode::Aa => aa(cli.options),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Names, units, directions and bounds, one tab-separated line each.
fn list() {
    for spec in &SPECS {
        println!(
            "workload\t{}\tmin reps {}\t{}",
            spec.name, spec.min_reps, spec.why
        );
    }
    for m in &END_TO_END {
        let (name, unit, better) = (m.name, m.unit, m.better.as_str());
        println!("end_to_end\t{name}\t{unit}\t{better}\tbound {}", m.bound);
    }
    for m in &PER_LAYER {
        println!("per_layer\t{}\t{}\t{}", m.name, m.unit, m.better.as_str());
    }
}

/// Measures one workload here and prints its metrics, then the result
/// object as the last line.
fn one(spec: &'static Spec, options: Options) -> bool {
    println!(
        "workload {} seed {} seconds {} reps {} trace {} nproc {}",
        spec.name,
        options.seed,
        options.seconds,
        options.reps.map_or("auto".to_string(), |r| r.to_string()),
        u8::from(options.trace),
        host::nproc(),
    );
    let outcome = run::run(spec, options);
    for m in &outcome.metrics {
        let value = m.value.map_or("null".to_string(), |v| v.to_string());
        println!("metric\t{}\t{value}\t{}\t{}", m.name, m.unit, m.note);
    }
    for failure in &outcome.failures {
        println!("failed check: {failure}");
    }
    println!("details\t{}", outcome.details.render());
    println!("{}", outcome.to_json().render());
    outcome.correct()
}

/// What the parent keeps of one child's output.
#[derive(Debug, Clone, PartialEq)]
struct ChildResult {
    ok: bool,
    /// `(name, value, unit, note)` per `metric` line.
    metrics: Vec<(String, Option<f64>, String, String)>,
    /// The child's `details` object, as printed.
    details: String,
}

impl ChildResult {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).and_then(|m| m.1)
    }

    fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|(name, value, unit, note)| {
            let mut fields = vec![("value", Json::opt_num(*value)), ("unit", Json::str(unit))];
            if !note.is_empty() {
                fields.push(("warning", Json::str(note.trim_end_matches("; "))));
            }
            (name.clone(), Json::obj(fields))
        });
        let details = if self.details.is_empty() {
            Json::Null
        } else {
            Json::Raw(self.details.clone())
        };
        Json::obj([
            ("correct", Json::Bool(self.ok)),
            ("metrics", Json::obj(metrics)),
            ("details", details),
        ])
    }
}

fn parse_child_output(stdout: &str, exited_ok: bool) -> ChildResult {
    let mut result = ChildResult {
        ok: exited_ok,
        metrics: Vec::new(),
        details: String::new(),
    };
    for line in stdout.lines() {
        let mut fields = line.split('\t');
        match fields.next() {
            Some("metric") => {
                let mut field = || fields.next().unwrap_or("").to_string();
                let (name, value, unit, note) = (field(), field(), field(), field());
                result.metrics.push((name, value.parse().ok(), unit, note));
            }
            Some("details") => result.details = fields.next().unwrap_or("").to_string(),
            _ => {}
        }
    }
    result
}

/// Re-executes this binary for one workload and waits for it.
fn child(spec: &Spec, options: Options, trace: bool) -> ChildResult {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", spec.name])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(reps) = options.reps {
        command.args(["--reps", &reps.to_string()]);
    }
    match command.stderr(Stdio::inherit()).output() {
        Ok(output) => {
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            parse_child_output(&stdout, output.status.success())
        }
        Err(e) => {
            eprintln!("error: cannot start the child for {}: {e}", spec.name);
            parse_child_output("", false)
        }
    }
}

/// One pass over every workload: end-to-end, and traced if asked.
fn run_set(options: Options) -> Vec<(&'static Spec, ChildResult, Option<ChildResult>)> {
    SPECS
        .iter()
        .map(|spec| {
            let end_to_end = child(spec, options, false);
            let traced = options.trace.then(|| child(spec, options, true));
            (spec, end_to_end, traced)
        })
        .collect()
}

/// Host, build and run facts: printed, and written at the top of every
/// result file.
fn header(options: Options) -> Vec<(&'static str, Json)> {
    let provenance = host::provenance();
    println!("provenance\t{}", provenance.render());
    vec![
        ("provenance", provenance),
        ("seed", Json::Int(options.seed)),
        ("seconds", Json::Num(options.seconds)),
        (
            "reps",
            options.reps.map_or(Json::Null, |r| Json::Int(r as u64)),
        ),
    ]
}

fn print_table(set: &[(&'static Spec, ChildResult, Option<ChildResult>)]) {
    print!("\n{:<20}", "workload");
    for m in &END_TO_END {
        print!(" {:>19}", m.name);
    }
    print!("\n{:<20}", "");
    for m in &END_TO_END {
        print!(" {:>19}", format!("[{}]", m.unit));
    }
    println!();
    for (spec, result, _) in set {
        print!("{:<20}", spec.name);
        for m in &END_TO_END {
            let cell = result
                .value(m.name)
                .map_or("null".to_string(), |v| format!("{v:.6}"));
            print!(" {cell:>19}");
        }
        println!("{}", if result.ok { "" } else { "  FAILED" });
    }
}

fn all(options: Options) -> bool {
    let mut fields = header(options);
    let set = run_set(options);
    print_table(&set);
    let workloads = set.iter().map(|(spec, end_to_end, traced)| {
        Json::obj([
            ("name", Json::str(spec.name)),
            ("end_to_end", end_to_end.to_json()),
            (
                "per_layer",
                traced.as_ref().map_or(Json::Null, ChildResult::to_json),
            ),
        ])
    });
    fields.push(("workloads", Json::Arr(workloads.collect())));
    host::write_file("results.json", &Json::obj(fields).render_pretty());
    set.iter()
        .all(|(_, end_to_end, traced)| end_to_end.ok && traced.as_ref().is_none_or(|t| t.ok))
}

/// A/A: the same code measured twice must agree within the benchmark's own
/// bounds, in both directions, and its simulated results must repeat
/// exactly.
fn aa(options: Options) -> bool {
    let mut fields = header(options);
    let first = run_set(options);
    let second = run_set(options);
    let mut ok = true;
    let mut rows = Vec::new();
    println!(
        "\n{:<20} {:<20} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for ((spec, a, _), (_, b, _)) in first.iter().zip(&second) {
        ok &= a.ok && b.ok;
        for m in &END_TO_END {
            let (x, y) = (a.value(m.name), b.value(m.name));
            let (worse, verdict) = match (x, y) {
                (Some(x), Some(y)) => {
                    let worse = worse_by(m.better, x, y).max(worse_by(m.better, y, x));
                    let verdict = if m.simulated && x != y {
                        "NOT EXACT"
                    } else if regressed(m, x, y) || regressed(m, y, x) {
                        "MISS"
                    } else {
                        "ok"
                    };
                    (Some(worse), verdict)
                }
                // Absent on this host (`peak_rss_mb` off Linux) both times.
                (None, None) => (None, "absent"),
                _ => (None, "MISS"),
            };
            ok &= matches!(verdict, "ok" | "absent");
            let show = |v: Option<f64>| v.map_or("null".to_string(), |v| format!("{v:.6}"));
            println!(
                "{:<20} {:<20} {:>16} {:>16} {:>8.2}% {:>6.1}%  {verdict}",
                spec.name,
                m.name,
                show(x),
                show(y),
                worse.unwrap_or(0.0) * 100.0,
                m.bound * 100.0,
            );
            rows.push(Json::obj([
                ("workload", Json::str(spec.name)),
                ("metric", Json::str(m.name)),
                ("first", Json::opt_num(x)),
                ("second", Json::opt_num(y)),
                ("worse_by", Json::opt_num(worse)),
                ("bound", Json::Num(m.bound)),
                ("verdict", Json::str(verdict)),
            ]));
        }
    }
    fields.push(("pass", Json::Bool(ok)));
    fields.push(("comparisons", Json::Arr(rows)));
    host::write_file("aa.json", &Json::obj(fields).render_pretty());
    println!("A/A {}", if ok { "passed" } else { "FAILED" });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let cli = parse(&args(
            "--workload planner_grid --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            cli.mode,
            Mode::One(workloads::spec("planner_grid").unwrap())
        );
        assert_eq!((cli.options.seed, cli.options.seconds), (7, 3.0));
        assert!(cli.options.trace && cli.options.reps.is_none());
        let cli = parse(&args("--workload seq_foreground --trace 0 --reps 2")).unwrap();
        assert!(!cli.options.trace);
        assert_eq!(cli.options.reps, Some(2));
        assert_eq!((cli.options.seed, cli.options.seconds), (1, 12.0));
    }

    #[test]
    fn bare_trace_flag_and_the_set_modes_parse() {
        let cli = parse(&args("--all --trace --seed 2")).unwrap();
        assert_eq!(cli.mode, Mode::All);
        assert!(cli.options.trace);
        assert_eq!(cli.options.seed, 2);
        assert_eq!(parse(&args("--aa")).unwrap().mode, Mode::Aa);
        assert_eq!(parse(&args("--list")).unwrap().mode, Mode::List);
    }

    #[test]
    fn bad_command_lines_are_errors_not_panics() {
        for bad in [
            "",
            "--workload",
            "--workload nope",
            "--all --aa",
            "--all --seed x",
            "--all --seconds 0",
            "--all --seconds nan",
            "--all --reps 0",
            "--aa --trace",
            "--all --frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn child_output_round_trips_through_the_line_format() {
        let stdout = "workload x seed 1\nmetric\tops_per_sec\t145000.5\t1/s\tmin-max spread 20 %; \n\
                      metric\tpeak_rss_mb\tnull\tMB\t\ndetails\t{\"timed_reps\": 5}\n{\"correct\": true}\n";
        let result = parse_child_output(stdout, true);
        assert!(result.ok);
        assert_eq!(result.value("ops_per_sec"), Some(145000.5));
        assert_eq!(result.value("peak_rss_mb"), None);
        assert_eq!(result.metrics.len(), 2);
        assert_eq!(result.details, "{\"timed_reps\": 5}");
        let json = result.to_json().render();
        assert!(
            json.contains(r#""warning": "min-max spread 20 %""#),
            "{json}"
        );
        assert!(
            json.contains(r#""peak_rss_mb": {"value": null,"unit": "MB"}"#),
            "{json}"
        );
        assert!(json.contains(r#""details": {"timed_reps": 5}"#), "{json}");
        assert!(!parse_child_output("", false).ok);
    }

    /// `BENCHMARK.json` must name exactly the workloads and metrics this
    /// binary reports, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_lists_what_the_binary_reports() {
        let contract = include_str!("../../../../../BENCHMARK.json");
        for spec in &SPECS {
            let entry = format!("{{\"name\": \"{}\", \"why\": ", spec.name);
            assert!(contract.contains(&entry), "{entry}");
        }
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert!(contract.contains(&entry), "{entry}");
        }
        for m in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(contract.contains(&entry), "{entry}");
        }
        let names = contract.matches("{\"name\": ").count();
        assert_eq!(names, SPECS.len() + END_TO_END.len() + PER_LAYER.len());
    }
}
