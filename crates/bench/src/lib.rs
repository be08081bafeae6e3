//! # pqs-bench
//!
//! The reproduction harness for the evaluation section of *Probabilistic
//! Quorum Systems*.  Every table, figure and validated bound is one
//! **experiment**: a function over a [`harness::Harness`], listed once in
//! [`experiments::EXPERIMENTS`] and run as `pqs <name> [flags]` (`pqs list`
//! names them, `pqs all` runs every one and exits 1 if any check failed).
//! The library's own performance is measured in two places: the `benchmark`
//! binary runs the workloads and per-layer probes of `BENCHMARK.json` (what
//! a speed claim between two commits rests on), and `benches/engine.rs`
//! times the reference cells CI's floors are enforced on.
//!
//! | Experiment | Reproduces |
//! |---|---|
//! | `table1` | Table I — load lower bounds and resilience caps |
//! | `table2` | Table 2 — ε-intersecting vs threshold vs grid, held to the published rows |
//! | `table3` | Table 3 — dissemination systems, held to the published rows |
//! | `table4` | Table 4 — masking systems, held to the published rows |
//! | `figure1` | Figure 1 — failure probability of ε-intersecting systems |
//! | `figure2` | Figure 2 — failure probability of dissemination systems |
//! | `figure3` | Figure 3 — failure probability of masking systems |
//! | `validate_epsilon` | Lemma 3.15 / Theorem 3.16 |
//! | `validate_dissemination` | Lemma 4.3 / Theorems 4.4, 4.6 |
//! | `validate_masking` | Lemmas 5.7, 5.9 / Theorem 5.10 |
//! | `validate_protocols` | Theorems 3.2, 4.2, 5.2 (simulation) |
//! | `validate_load` | Theorems 3.9, 5.5 and Table I load bounds |
//! | `validate_sharding` | per-server load invariance and per-key popularity of the sharded KV store |
//! | `validate_diffusion` | Section 1.1 write-diffusion: stale-read-rate cut on hot keys, per-key convergence |
//! | `validate_adaptive_diffusion` | digest/delta gossip: ≥60% push-volume cut vs full-push at equal-or-better hot-key staleness and coverage speed |
//! | `validate_parallel` | sharded multi-core engine: bit-identical reports across shard/thread counts, plus throughput |
//! | `plan` | the capacity planner: solves for a locally minimal (n, q, margin, gossip) from an ε target, a p99 SLO and a workload shape |
//! | `validate_plan` | the prediction contract: simulates each emitted plan and fails unless measured ε and p99 land in the documented tolerance bands |
//! | `validate_adversarial` | graceful degradation: membership churn, healing partitions and adaptive Byzantine attackers bend the measured ε by no more than a quantified multiple of the static baseline |
//!
//! Beside `pqs` sits one more binary, `benchmark`: the repo benchmark of
//! `BENCHMARK.json` — five end-to-end workloads, per-layer probes and a
//! traced run (a frozen package of its own under `src/bin/benchmark/`).
//!
//! Every experiment prints aligned text tables to stdout and writes the
//! same rows as CSV under `target/experiments/`, and speaks the shared
//! command line of the [`cli`] module (`--seed`, `--quick`, `--threads`,
//! `--out-dir`, `--ops`/`--soak`) with uniform help text and exit codes;
//! `plan` adds its workload/SLO knobs through the same parser
//! ([`cli::ExtraFlag`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

use std::path::PathBuf;

pub mod cli;
pub mod experiments;
pub mod harness;
pub mod planner;

/// The universe sizes used throughout Section 6 (perfect squares so the grid
/// constructions apply).
pub const SECTION_6_SIZES: [u32; 6] = [25, 100, 225, 400, 625, 900];

/// The Byzantine threshold used by Tables 3 and 4: `b = (√n − 1)/2`, "the
/// largest b for which all the constructions in the table work".
pub fn section_6_byzantine_threshold(n: u32) -> u32 {
    (((n as f64).sqrt() as u32).saturating_sub(1)) / 2
}

/// The consistency target used throughout Section 6: ε ≤ 0.001.
pub const SECTION_6_EPSILON: f64 = 1e-3;

/// A simple experiment table: named columns plus rows of cells, printed
/// aligned to stdout and exported as CSV.
#[derive(Debug, Clone)]
pub struct ExperimentTable {
    name: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ExperimentTable {
    /// Creates an empty table with the given experiment name and columns.
    pub fn new(name: impl Into<String>, columns: &[&str]) -> Self {
        ExperimentTable {
            name: name.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the number of columns).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the number of columns.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row has {} cells but the table has {} columns",
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.name));
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Serialises the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// File name of the table's CSV mirror: `<name>.csv`, with spaces and
    /// slashes in the name replaced.
    pub fn csv_file_name(&self) -> String {
        format!("{}.csv", self.name.replace([' ', '/'], "_"))
    }
}

/// Default directory for experiment CSVs (and the bench JSON), when no
/// `--out-dir` is given: `$PQS_EXPERIMENTS_DIR` if set (CI uses this to pin
/// the artifact path regardless of the process working directory — cargo
/// runs benches from the package directory, not the workspace root),
/// otherwise `$CARGO_TARGET_DIR/experiments`, otherwise
/// `target/experiments`.
pub fn output_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("PQS_EXPERIMENTS_DIR") {
        return PathBuf::from(dir);
    }
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()))
        .join("experiments")
}

/// Formats a probability compactly for table cells.
pub fn fmt_prob(p: f64) -> String {
    if p == 0.0 {
        "0".to_string()
    } else if p >= 0.01 {
        format!("{p:.4}")
    } else {
        format!("{p:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_6_constants() {
        assert_eq!(section_6_byzantine_threshold(25), 2);
        assert_eq!(section_6_byzantine_threshold(100), 4);
        assert_eq!(section_6_byzantine_threshold(225), 7);
        assert_eq!(section_6_byzantine_threshold(400), 9);
        assert_eq!(section_6_byzantine_threshold(625), 12);
        assert_eq!(section_6_byzantine_threshold(900), 14);
    }

    #[test]
    fn table_rendering_and_csv() {
        let mut t = ExperimentTable::new("demo", &["n", "value"]);
        assert!(t.is_empty());
        t.push_row(vec!["25".into(), "1.5".into()]);
        t.push_row(vec!["100".into(), "2.25".into()]);
        assert_eq!(t.len(), 2);
        let rendered = t.render();
        assert!(rendered.contains("# demo"));
        assert!(rendered.contains("value"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("n,value"));
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn mismatched_row_panics() {
        let mut t = ExperimentTable::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn probability_formatting() {
        assert_eq!(fmt_prob(0.0), "0");
        assert_eq!(fmt_prob(0.25), "0.2500");
        assert!(fmt_prob(1.2e-7).contains('e'));
    }
}
