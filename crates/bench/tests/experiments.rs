//! Tests over the experiment registry: the names, the closed-form Section 6
//! artefacts against their golden CSVs, three validators end to end under
//! `--quick`, the `pqs` binary against a closed stdout, and the spelling of
//! experiment names in the docs and in CI.

use std::collections::BTreeSet;
use std::fs;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use pqs_bench::cli::ValidatorCli;
use pqs_bench::experiments::{find, EXPERIMENTS};
use pqs_bench::harness::Outcome;

/// Runs one registered experiment in-process with its CSVs under a
/// directory of its own; returns the outcome and that directory.
fn run(name: &str, quick: bool) -> (Outcome, PathBuf) {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("experiments-{name}"));
    let cli = ValidatorCli {
        seed: 3,
        quick,
        out_dir: Some(out_dir.clone()),
        ..ValidatorCli::default()
    };
    let experiment = find(name).unwrap_or_else(|| panic!("{name} is not registered"));
    let outcome = experiment.run(cli, Vec::new(), &mut Vec::new());
    (outcome, out_dir)
}

#[test]
fn names_are_unique_and_each_is_in_the_lib_doc_table() {
    let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
    let lib = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("src/lib.rs")).unwrap();
    for e in EXPERIMENTS {
        assert!(
            lib.contains(&format!("//! | `{}` |", e.name)),
            "{} has no row in the lib.rs doc table",
            e.name
        );
        assert!(!e.about.is_empty() && !e.about.contains('\n'), "{}", e.name);
    }
}

/// Numeric cells agree to 1e-9 relative, every other cell as a string.
fn cells_agree(got: &str, want: &str) -> bool {
    match (got.parse::<f64>(), want.parse::<f64>()) {
        (Ok(g), Ok(w)) => (g - w).abs() <= 1e-9 * w.abs().max(g.abs()),
        _ => got == want,
    }
}

#[test]
fn closed_form_artefacts_pass_and_match_their_golden_csvs() {
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut compared = 0;
    // Each with the number of checks it states: the six published
    // probabilistic rows of Tables 2–4 each, 18 in all.
    for (name, checks) in [
        ("table1", 0),
        ("table2", 6),
        ("table3", 6),
        ("table4", 6),
        ("figure1", 0),
        ("figure2", 0),
        ("figure3", 0),
    ] {
        let (outcome, out_dir) = run(name, false);
        assert_eq!(outcome.violations, Vec::<String>::new(), "{name}");
        assert_eq!(outcome.checks, checks, "{name}");
        for entry in fs::read_dir(&out_dir).unwrap() {
            let file = entry.unwrap().file_name();
            let got = fs::read_to_string(out_dir.join(&file)).unwrap();
            let want = fs::read_to_string(golden_dir.join(&file))
                .unwrap_or_else(|e| panic!("{name} wrote {file:?}, which has no golden: {e}"));
            assert_eq!(got.lines().count(), want.lines().count(), "{file:?}");
            for (row, (got, want)) in got.lines().zip(want.lines()).enumerate() {
                let (got, want): (Vec<_>, Vec<_>) =
                    (got.split(',').collect(), want.split(',').collect());
                assert_eq!(got.len(), want.len(), "{file:?} line {row}");
                for (column, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        cells_agree(g, w),
                        "{file:?} line {row} cell {column}: got {g:?}, golden has {w:?}"
                    );
                }
            }
            compared += 1;
        }
    }
    assert_eq!(compared, fs::read_dir(golden_dir).unwrap().count());
}

fn passes_quick(name: &str) {
    let (outcome, _) = run(name, true);
    assert!(outcome.checks > 0);
    assert_eq!(outcome.violations, Vec::<String>::new());
}

#[test]
fn validate_load_passes_quick() {
    passes_quick("validate_load");
}

#[test]
fn validate_protocols_passes_quick() {
    passes_quick("validate_protocols");
}

#[test]
fn validate_sharding_passes_quick() {
    passes_quick("validate_sharding");
}

/// `pqs table3` with stdout and stderr piped and CSVs under `dir`.
fn spawn_table3(dir: &str) -> std::process::Child {
    Command::new(env!("CARGO_BIN_EXE_pqs"))
        .args(["table3", "--out-dir"])
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join(dir))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("pqs spawns")
}

fn stderr_of(mut child: std::process::Child) -> (std::process::ExitStatus, String) {
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    (child.wait().unwrap(), stderr)
}

#[test]
fn a_closed_stdout_ends_the_run_without_a_panic() {
    // The reader leaves after the first line, as `pqs table3 | head -1` does.
    let mut child = spawn_table3("pipe-head");
    let mut first = String::new();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    reader.read_line(&mut first).unwrap();
    assert_eq!(first, "# table3_dissemination_systems\n");
    drop(reader);
    let (_, stderr) = stderr_of(child);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("Broken pipe"), "{stderr}");

    // The reader is gone before the first byte: every write meets the
    // closed pipe, whatever the scheduling.
    let mut child = spawn_table3("pipe-closed");
    drop(child.stdout.take());
    let (status, stderr) = stderr_of(child);
    assert_eq!(stderr, "");
    assert_eq!(status.code(), Some(pqs_bench::cli::EXIT_BROKEN_PIPE));
}

#[test]
fn usage_errors_exit_2_and_unknown_names_are_usage_errors() {
    for args in [
        &["validate_epsilon", "--seed"][..],
        &["no_such_experiment"],
        &[],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_pqs"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(
            output.status.code(),
            Some(pqs_bench::cli::EXIT_USAGE),
            "{args:?}"
        );
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}

/// The experiment names a text invokes: the word after `` `pqs ``, after
/// `--bin pqs -- `, and after `pqs ` at the start of a (command) line.
fn invoked_names(text: &str) -> Vec<&str> {
    fn word(rest: &str) -> Option<&str> {
        rest.split(|c: char| !(c.is_alphanumeric() || "_<>-".contains(c)))
            .next()
    }
    let mut found = Vec::new();
    for line in text.lines() {
        found.extend(line.trim_start().strip_prefix("pqs ").and_then(word));
        for marker in ["`pqs ", "--bin pqs -- "] {
            found.extend(line.split(marker).skip(1).filter_map(word));
        }
    }
    found
}

#[test]
fn docs_and_ci_invoke_only_registered_experiments() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut invocations = 0;
    for file in [
        "README.md",
        "docs/ARCHITECTURE.md",
        "docs/METRICS.md",
        "docs/PLANNER.md",
        "docs/ANALYSIS.md",
        "crates/bench/src/lib.rs",
        "crates/bench/Cargo.toml",
        ".claude/skills/verify/SKILL.md",
        ".github/workflows/ci.yml",
    ] {
        let text = fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        for name in invoked_names(&text) {
            invocations += 1;
            let placeholder = name.starts_with('<') || name.starts_with('-');
            assert!(
                placeholder || ["all", "list"].contains(&name) || find(name).is_some(),
                "{file} invokes `pqs {name}`, which the registry does not have"
            );
        }
    }
    assert!(
        invocations >= EXPERIMENTS.len(),
        "the scan found too little"
    );
    assert_eq!(
        invoked_names("run `pqs table9 --seed 1`\n- run: cargo run --bin pqs -- nope --quick\n  pqs plan --scenario lock"),
        ["table9", "nope", "plan"]
    );
}
