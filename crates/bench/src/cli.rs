//! The command line every experiment of `pqs <name> [flags]` shares.
//!
//! One parser, one help renderer, one [`ValidatorCli::from_env`]: every
//! registered experiment ([`crate::experiments::EXPERIMENTS`]) accepts the
//! same six flags with the same semantics, and an experiment with knobs of
//! its own (`plan`) declares them as [`ExtraFlag`]s on the same parser.
//!
//! * `--seed N` — base RNG seed mixed into every simulation/sampling seed
//!   (default 0).  The paper's bounds must hold for *every* seed, so the CI
//!   smoke job varies this run to run.
//! * `--quick` — shrink sweeps and shorten simulated time for smoke runs.
//! * `--threads N` — worker threads for sharded simulation runs (only
//!   observable where a validator runs the multi-shard engine; the merged
//!   report is bit-identical for every thread count, so this is a speed
//!   knob, never a results knob).
//! * `--out-dir PATH` — write CSV artifacts under `PATH` instead of the
//!   [`crate::output_dir`] default.
//! * `--ops N` / `--soak` — target event count for validators with a soak
//!   lane (currently `validate_parallel`); `--soak` is shorthand for
//!   `--ops 100000000`.  Validators without a soak lane ignore it.
//!
//! Exit codes are uniform across the registry: [`EXIT_OK`] (0) for a clean
//! run or `--help`, [`EXIT_VALIDATION_FAILED`] (1) when a checked bound is
//! violated, [`EXIT_USAGE`] (2) for a malformed command line.  A run whose
//! stdout is closed under it (`pqs table3 | head -3`) has no verdict; it
//! ends at once with [`EXIT_BROKEN_PIPE`], the status a `SIGPIPE` death
//! shows in a shell.

use std::path::PathBuf;

/// Process exit code for a successful validation (or `--help`).
pub const EXIT_OK: i32 = 0;
/// Process exit code when one or more checked bounds are violated.
pub const EXIT_VALIDATION_FAILED: i32 = 1;
/// Process exit code for a malformed command line.
pub const EXIT_USAGE: i32 = 2;
/// Process exit code when stdout was closed before the run finished
/// (128 + `SIGPIPE`).
pub const EXIT_BROKEN_PIPE: i32 = 141;

/// Parsed command line shared by every experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidatorCli {
    /// Base RNG seed mixed into every simulation/sampling seed.
    pub seed: u64,
    /// Shrink sweeps / shorten simulated time for smoke runs.
    pub quick: bool,
    /// Worker threads for sharded simulation runs.
    pub threads: u32,
    /// CSV output directory override (`--out-dir`).
    pub out_dir: Option<PathBuf>,
    /// Target engine-event count for soak lanes (`--ops N`, or `--soak`
    /// for [`SOAK_OPS`]).  `None` skips the soak lane.
    pub ops: Option<u64>,
}

/// The event target `--soak` expands to: a 10⁸-event endurance run.
pub const SOAK_OPS: u64 = 100_000_000;

impl Default for ValidatorCli {
    fn default() -> Self {
        ValidatorCli {
            seed: 0,
            quick: false,
            threads: 1,
            out_dir: None,
            ops: None,
        }
    }
}

/// Declaration of one extra `--flag VALUE` option an experiment accepts
/// beyond the shared set (the `plan` experiment's workload/SLO knobs).
/// Extras always take a value; collected values come back as
/// `(flag, value)` pairs from [`parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtraFlag {
    /// The flag spelling including the leading dashes, e.g. `"--epsilon"`.
    pub flag: &'static str,
    /// Placeholder shown in help text, e.g. `"EPS"`.
    pub value_name: &'static str,
    /// One-line help description.
    pub help: &'static str,
}

/// What [`parse`] produced: a run configuration plus the collected
/// extra-flag values, or a help request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// Run with these options and these `(flag, value)` extras, in the
    /// order given on the command line (later spellings override earlier
    /// ones by convention — the consumer folds the list).
    Run(ValidatorCli, Vec<(String, String)>),
    /// `--help`/`-h` was given; print usage and exit 0.
    Help,
}

/// Parses the flags of one experiment: the shared set plus the given
/// [`ExtraFlag`]s (testable core of [`ValidatorCli::from_env`]).  Accepts
/// both `--flag value` and `--flag=value` spellings; unknown arguments are
/// errors.
pub fn parse<I: IntoIterator<Item = String>>(
    args: I,
    extras: &[ExtraFlag],
) -> Result<Parsed, String> {
    let mut cli = ValidatorCli::default();
    let mut collected: Vec<(String, String)> = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg.clone(), None),
        };
        let value = |args: &mut I::IntoIter| -> Result<String, String> {
            match inline.clone() {
                Some(v) => Ok(v),
                None => args
                    .next()
                    .ok_or_else(|| format!("{flag} requires a value, e.g. {flag} 42")),
            }
        };
        match flag.as_str() {
            "--help" | "-h" => return Ok(Parsed::Help),
            "--quick" => {
                if inline.is_some() {
                    return Err("--quick takes no value".to_string());
                }
                cli.quick = true;
            }
            "--seed" => {
                let v = value(&mut args)?;
                cli.seed = v
                    .parse()
                    .map_err(|_| format!("--seed expects an unsigned integer, got {v:?}"))?;
            }
            "--threads" => {
                let v = value(&mut args)?;
                let n: u32 = v
                    .parse()
                    .map_err(|_| format!("--threads expects a positive integer, got {v:?}"))?;
                if n == 0 {
                    return Err("--threads expects a positive integer, got 0".to_string());
                }
                cli.threads = n;
            }
            "--out-dir" => {
                cli.out_dir = Some(PathBuf::from(value(&mut args)?));
            }
            "--ops" => {
                let v = value(&mut args)?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("--ops expects a positive integer, got {v:?}"))?;
                if n == 0 {
                    return Err("--ops expects a positive integer, got 0".to_string());
                }
                cli.ops = Some(n);
            }
            "--soak" => {
                if inline.is_some() {
                    return Err("--soak takes no value (use --ops N for a custom target)".into());
                }
                cli.ops = Some(SOAK_OPS);
            }
            other => {
                if extras.iter().any(|e| e.flag == other) {
                    collected.push((other.to_string(), value(&mut args)?));
                } else {
                    return Err(format!("unknown argument {other:?}"));
                }
            }
        }
    }
    Ok(Parsed::Run(cli, collected))
}

/// Renders the uniform help text of `pqs <name>`, with a section for the
/// experiment's [`ExtraFlag`]s when it has any.
pub fn help_text(name: &str, about: &str, extras: &[ExtraFlag]) -> String {
    let mut extra_usage = String::new();
    let mut extra_lines = String::new();
    for e in extras {
        extra_usage.push_str(&format!(" [{} {}]", e.flag, e.value_name));
        let spelled = format!("{} {}", e.flag, e.value_name);
        extra_lines.push_str(&format!("\x20 {spelled:<15} {}\n", e.help));
    }
    format!(
        "pqs {name}: {about}\n\
         \n\
         usage: pqs {name} [--seed N] [--quick] [--threads N] [--out-dir PATH] \
         [--ops N | --soak]{extra_usage}\n\
         \n\
         options:\n\
         \x20 --seed N        base RNG seed mixed into every simulation (default 0)\n\
         \x20 --quick         shrink sweeps / shorten runs for smoke testing\n\
         \x20 --threads N     worker threads for sharded simulation runs (default 1)\n\
         \x20 --out-dir PATH  directory for CSV artifacts (default: target/experiments)\n\
         \x20 --ops N         soak-lane engine-event target (experiments without a\n\
         \x20                 soak lane ignore it)\n\
         \x20 --soak          shorthand for --ops 100000000 (a 10^8-event soak)\n\
         {extra_lines}\
         \x20 -h, --help      print this help\n\
         \n\
         exit codes: 0 = all checks passed, 1 = a checked bound was violated,\n\
         2 = bad usage"
    )
}

impl ValidatorCli {
    /// Parses what follows `pqs <name>` on the process command line,
    /// handling `--help` (exit 0) and usage errors (exit 2); returns the
    /// collected [`ExtraFlag`] values alongside the shared options.
    pub fn from_env(
        name: &str,
        about: &str,
        extras: &[ExtraFlag],
    ) -> (ValidatorCli, Vec<(String, String)>) {
        match parse(std::env::args().skip(2), extras) {
            Ok(Parsed::Run(cli, collected)) => (cli, collected),
            Ok(Parsed::Help) => {
                let help = help_text(name, about, extras);
                crate::harness::print(&mut std::io::stdout(), &format!("{help}\n"));
                std::process::exit(EXIT_OK);
            }
            Err(msg) => usage_error(&msg, &help_text(name, about, extras)),
        }
    }
}

/// Reports a malformed command line on stderr, followed by the help text,
/// and exits with [`EXIT_USAGE`].
pub fn usage_error(msg: &str, help: &str) -> ! {
    eprintln!("error: {msg}\n\n{help}");
    std::process::exit(EXIT_USAGE);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(args: &[&str], extras: &[ExtraFlag]) -> Result<Parsed, String> {
        parse(args.iter().map(|s| s.to_string()), extras)
    }

    fn run(args: &[&str]) -> Result<Parsed, String> {
        run_with(args, &[])
    }

    fn shared(cli: ValidatorCli) -> Result<Parsed, String> {
        Ok(Parsed::Run(cli, Vec::new()))
    }

    #[test]
    fn defaults_when_no_args() {
        assert_eq!(run(&[]), shared(ValidatorCli::default()));
    }

    #[test]
    fn parses_every_flag_in_both_spellings() {
        let expect = ValidatorCli {
            seed: 17,
            quick: true,
            threads: 4,
            out_dir: Some(PathBuf::from("/tmp/exp")),
            ops: Some(5000),
        };
        assert_eq!(
            run(&[
                "--seed",
                "17",
                "--quick",
                "--threads",
                "4",
                "--out-dir",
                "/tmp/exp",
                "--ops",
                "5000"
            ]),
            shared(expect.clone())
        );
        assert_eq!(
            run(&[
                "--seed=17",
                "--quick",
                "--threads=4",
                "--out-dir=/tmp/exp",
                "--ops=5000"
            ]),
            shared(expect)
        );
    }

    #[test]
    fn soak_is_shorthand_for_the_canonical_ops_target() {
        let soak = run(&["--soak"]);
        assert_eq!(
            soak,
            shared(ValidatorCli {
                ops: Some(SOAK_OPS),
                ..ValidatorCli::default()
            })
        );
        // An explicit --ops spelling of the same target parses identically.
        assert_eq!(soak, run(&["--ops", &SOAK_OPS.to_string()]));
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(run(&["--help"]), Ok(Parsed::Help));
        assert_eq!(run(&["-h"]), Ok(Parsed::Help));
        assert_eq!(run(&["--seed", "3", "--help"]), Ok(Parsed::Help));
    }

    #[test]
    fn rejects_bad_usage() {
        assert!(run(&["--seed"]).is_err());
        assert!(run(&["--seed", "banana"]).is_err());
        assert!(run(&["--threads", "0"]).is_err());
        assert!(run(&["--quick=yes"]).is_err());
        assert!(run(&["--ops"]).is_err());
        assert!(run(&["--ops", "0"]).is_err());
        assert!(run(&["--soak=1"]).is_err());
        assert!(run(&["--frobnicate"]).is_err());
    }

    const DEMO_EXTRAS: &[ExtraFlag] = &[
        ExtraFlag {
            flag: "--epsilon",
            value_name: "EPS",
            help: "target staleness bound",
        },
        ExtraFlag {
            flag: "--p99-slo",
            value_name: "SECS",
            help: "target p99 latency",
        },
    ];

    #[test]
    fn extras_collect_in_order_and_compose_with_shared_flags() {
        let parsed = run_with(
            &["--epsilon", "0.01", "--seed=9", "--p99-slo=0.03", "--quick"],
            DEMO_EXTRAS,
        )
        .unwrap();
        match parsed {
            Parsed::Run(cli, extras) => {
                assert_eq!(cli.seed, 9);
                assert!(cli.quick);
                assert_eq!(
                    extras,
                    vec![
                        ("--epsilon".to_string(), "0.01".to_string()),
                        ("--p99-slo".to_string(), "0.03".to_string()),
                    ]
                );
            }
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn extras_still_require_values_and_unknown_flags_still_fail() {
        assert!(run_with(&["--epsilon"], DEMO_EXTRAS).is_err());
        assert!(run_with(&["--frobnicate", "1"], DEMO_EXTRAS).is_err());
        // Extras are per-experiment: without the declaration the flag is unknown.
        assert!(run(&["--epsilon", "0.01"]).is_err());
    }

    #[test]
    fn help_text_with_extras_names_them() {
        let text = help_text("plan", "solves for a capacity plan", DEMO_EXTRAS);
        assert!(text.contains("--epsilon EPS"));
        assert!(text.contains("target staleness bound"));
        assert!(text.contains("[--p99-slo SECS]"));
        // No extras: the same text minus exactly those lines.
        let plain = help_text("plan", "solves for a capacity plan", &[]);
        assert!(!plain.contains("--epsilon"));
        assert_eq!(
            plain.lines().count() + DEMO_EXTRAS.len(),
            text.lines().count()
        );
    }

    #[test]
    fn help_text_names_every_flag() {
        let text = help_text("validate_demo", "checks a demo bound", &[]);
        assert!(text.starts_with("pqs validate_demo: checks a demo bound"));
        for needle in [
            "--seed",
            "--quick",
            "--threads",
            "--out-dir",
            "--ops",
            "--soak",
            "--help",
            "exit codes",
        ] {
            assert!(text.contains(needle), "help text lacks {needle}");
        }
    }
}
