//! What every experiment used to copy into its own `main`: the parsed
//! flags, the output handle, table emission (stdout + CSV under
//! `--out-dir`), the violation list, the verdict line and the exit code.
//!
//! An experiment is a function over one [`Harness`].  It states each check
//! **once**, through [`Harness::check`]: the one evaluation yields the
//! `true`/`false` cell of the row and, on failure, the violation — so a
//! table can never print `true` beside a violated bound.

use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;

use crate::cli::{self, ValidatorCli};
use crate::ExperimentTable;

/// Writes `text` to the run's output handle.  A closed reader
/// (`pqs table3 | head -3`) ends the process quietly with
/// [`cli::EXIT_BROKEN_PIPE`]; any other failure panics as `println!` would.
pub fn print(out: &mut dyn Write, text: &str) {
    if let Err(e) = out.write_all(text.as_bytes()) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(cli::EXIT_BROKEN_PIPE);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// One experiment run: its flags, its output handle and its checks.
pub struct Harness<'a> {
    name: &'static str,
    cli: ValidatorCli,
    extras: Vec<(String, String)>,
    out: &'a mut dyn Write,
    out_dir: PathBuf,
    checks: usize,
    violations: Vec<String>,
}

impl std::fmt::Debug for Harness<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Harness")
            .field("name", &self.name)
            .field("cli", &self.cli)
            .field("checks", &self.checks)
            .field("violations", &self.violations)
            .finish_non_exhaustive()
    }
}

/// What a finished run reports: how many checks it made and which failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Checks evaluated ([`Harness::check`] calls).
    pub checks: usize,
    /// One line per failed check, in the order they failed.
    pub violations: Vec<String>,
}

impl Outcome {
    /// [`cli::EXIT_OK`] when every check held, else
    /// [`cli::EXIT_VALIDATION_FAILED`].
    pub fn exit_code(&self) -> i32 {
        if self.violations.is_empty() {
            cli::EXIT_OK
        } else {
            cli::EXIT_VALIDATION_FAILED
        }
    }
}

impl<'a> Harness<'a> {
    /// A run of experiment `name` under `cli` (plus the experiment's own
    /// `(flag, value)` extras), printing to `out` and writing CSVs under
    /// `--out-dir`, or [`crate::output_dir`] without one.
    pub fn new(
        name: &'static str,
        cli: ValidatorCli,
        extras: Vec<(String, String)>,
        out: &'a mut dyn Write,
    ) -> Self {
        let out_dir = cli.out_dir.clone().unwrap_or_else(crate::output_dir);
        Harness {
            name,
            cli,
            extras,
            out,
            out_dir,
            checks: 0,
            violations: Vec::new(),
        }
    }

    /// The shared flags of this run.
    pub fn cli(&self) -> &ValidatorCli {
        &self.cli
    }

    /// The `(flag, value)` pairs of the experiment's own flags, in
    /// command-line order.
    pub fn extras(&self) -> &[(String, String)] {
        &self.extras
    }

    /// Prints one line.
    pub fn line(&mut self, text: impl std::fmt::Display) {
        print(self.out, &format!("{text}\n"));
    }

    /// Prints the table and writes it as CSV to `<out-dir>/<name>.csv`.
    /// IO errors on the CSV are reported on stderr but do not abort the
    /// experiment.
    pub fn emit(&mut self, table: &ExperimentTable) {
        self.line(table.render());
        if let Err(e) = fs::create_dir_all(&self.out_dir) {
            eprintln!("warning: cannot create {}: {e}", self.out_dir.display());
            return;
        }
        let path = self.out_dir.join(table.csv_file_name());
        match fs::write(&path, table.to_csv()) {
            Ok(()) => self.line(format_args!("(csv written to {})\n", path.display())),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }

    /// States one check.  Returns `holds` — the row's verdict cell — and,
    /// when it is `false`, records `violation` (which names the row's key;
    /// a `format_args!` is only rendered here) for the verdict and the exit
    /// code.
    pub fn check(&mut self, holds: bool, violation: impl std::fmt::Display) -> bool {
        self.checks += 1;
        if !holds {
            self.violations.push(violation.to_string());
        }
        holds
    }

    /// Ends the run: prints the verdict — `all checks passed` on stdout
    /// when at least one check ran and none failed, the violation list on
    /// stderr otherwise — and returns the outcome.
    pub fn finish(mut self) -> Outcome {
        let (name, seed) = (self.name, self.cli.seed);
        if !self.violations.is_empty() {
            eprintln!(
                "{name}: {} violated check(s) (seed {seed}):",
                self.violations.len()
            );
            for v in &self.violations {
                eprintln!("  - {v}");
            }
        } else if self.checks > 0 {
            self.line(format_args!("{name}: all checks passed (seed {seed})"));
        }
        Outcome {
            checks: self.checks,
            violations: self.violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failing_check_yields_one_violation_and_a_false_cell() {
        let dir = std::env::temp_dir().join(format!("pqs-harness-test-{}", std::process::id()));
        let cli = ValidatorCli {
            seed: 5,
            out_dir: Some(dir.clone()),
            ..ValidatorCli::default()
        };
        let mut out = Vec::new();
        let mut h = Harness::new("demo", cli, Vec::new(), &mut out);
        let mut table = ExperimentTable::new("demo_table", &["n", "bound holds"]);
        for (n, bound) in [(1u32, 2u32), (3, 2)] {
            let holds = h.check(n <= bound, format_args!("n={n}: above bound {bound}"));
            table.push_row(vec![n.to_string(), holds.to_string()]);
        }
        h.emit(&table);
        let outcome = h.finish();

        assert_eq!(outcome.checks, 2);
        assert_eq!(outcome.violations, ["n=3: above bound 2"]);
        assert_eq!(outcome.exit_code(), cli::EXIT_VALIDATION_FAILED);
        let csv = fs::read_to_string(dir.join("demo_table.csv")).expect("csv written");
        assert_eq!(csv, "n,bound holds\n1,true\n3,false\n");
        let printed = String::from_utf8(out).unwrap();
        assert!(printed.starts_with("# demo_table\n"), "{printed}");
        assert!(!printed.contains("all checks passed"), "{printed}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_verdict_line_needs_a_check_to_have_run() {
        let mut out = Vec::new();
        let outcome = Harness::new("demo", ValidatorCli::default(), Vec::new(), &mut out).finish();
        assert_eq!((outcome.checks, outcome.exit_code()), (0, cli::EXIT_OK));
        assert!(out.is_empty());

        let mut out = Vec::new();
        let mut h = Harness::new("demo", ValidatorCli::default(), Vec::new(), &mut out);
        assert!(h.check(true, "a held check records nothing"));
        assert_eq!(h.finish().exit_code(), cli::EXIT_OK);
        assert_eq!(out, b"demo: all checks passed (seed 0)\n");
    }
}
