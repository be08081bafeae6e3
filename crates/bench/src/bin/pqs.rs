//! `pqs <name> [flags]`: the one entry point to every experiment of the
//! reproduction (`pqs_bench::experiments::EXPERIMENTS`).
//!
//! * `pqs list` — the registered experiments, one per line.
//! * `pqs <name> [flags]` — run one; `--help` after the name lists its flags.
//! * `pqs all [flags]` — run every one; exit 1 if any check failed.
//!
//! Exit codes follow `pqs_bench::cli`: 0 = all checks passed, 1 = a
//! checked bound was violated, 2 = bad usage.

use pqs_bench::cli::{self, ValidatorCli};
use pqs_bench::experiments::{self, EXPERIMENTS};
use pqs_bench::harness;

const ALL_ABOUT: &str = "runs every registered experiment under the same flags";

fn usage() -> String {
    let mut text = String::from(
        "pqs: the experiments of the Probabilistic Quorum Systems reproduction\n\
         \n\
         usage: pqs <name> [flags]   run one experiment (`pqs <name> --help` lists its flags)\n\
         \x20      pqs all [flags]      run every experiment; exit 1 if any check failed\n\
         \x20      pqs list             list the experiments\n\
         \n\
         experiments:\n",
    );
    for e in EXPERIMENTS {
        text.push_str(&format!("  {:<28} {}\n", e.name, e.about));
    }
    text
}

fn main() {
    let out = &mut std::io::stdout();
    let code = match std::env::args().nth(1).as_deref() {
        None => cli::usage_error("no experiment named", &usage()),
        Some("--help" | "-h") => {
            harness::print(out, &usage());
            cli::EXIT_OK
        }
        Some("list") => {
            for e in EXPERIMENTS {
                harness::print(out, &format!("{}\n", e.name));
            }
            cli::EXIT_OK
        }
        Some("all") => {
            let (flags, _) = ValidatorCli::from_env("all", ALL_ABOUT, &[]);
            if experiments::run_all(EXPERIMENTS, &flags, out).is_empty() {
                cli::EXIT_OK
            } else {
                cli::EXIT_VALIDATION_FAILED
            }
        }
        Some(name) => match experiments::find(name) {
            Some(e) => {
                let (flags, extras) = ValidatorCli::from_env(e.name, e.about, e.flags);
                e.run(flags, extras, out).exit_code()
            }
            None => cli::usage_error(&format!("unknown experiment {name:?}"), &usage()),
        },
    };
    std::process::exit(code);
}
