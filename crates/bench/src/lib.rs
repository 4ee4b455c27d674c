//! Evaluation harness for the CPR reproduction.
//!
//! One binary per paper artifact regenerates the corresponding table or
//! figure (`table1` … `table6`, `figure1`); this library holds the shared
//! experiment runners, budget handling, and plain-text table rendering.
//!
//! Budgets default to a laptop-scale stand-in for the paper's 1-hour
//! timeout and can be scaled through environment variables:
//!
//! * `CPR_ITERS` — repair-loop iterations per subject (default 60),
//! * `CPR_MS` — wall-clock cap per subject run in milliseconds
//!   (default 10000).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod timing;

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use cpr_baselines::{angelix, cegis, extractfix, prophet};
use cpr_baselines::{AngelixReport, CegisReport, ExtractFixReport, ProphetReport};
use cpr_core::{repair, RepairConfig, RepairReport};
use cpr_subjects::Subject;

/// Reads the experiment budget from the environment.
pub fn budget() -> RepairConfig {
    let iters = std::env::var("CPR_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60);
    let millis = std::env::var("CPR_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    RepairConfig {
        max_iterations: iters,
        max_millis: Some(millis),
        ..RepairConfig::default()
    }
}

/// Runs CPR on a subject with the default parameter range.
pub fn run_cpr(subject: &Subject) -> RepairReport {
    repair(&subject.problem(), &budget())
}

/// Runs CPR on a subject with a custom parameter range (Table 5).
pub fn run_cpr_with_range(subject: &Subject, range: (i64, i64)) -> RepairReport {
    repair(&subject.problem_with_range(range), &budget())
}

/// Runs the paper's CEGIS baseline on a subject.
pub fn run_cegis(subject: &Subject) -> CegisReport {
    cegis(&subject.problem(), &budget())
}

/// Runs the ExtractFix-style baseline on a subject.
pub fn run_extractfix(subject: &Subject) -> ExtractFixReport {
    extractfix(&subject.problem(), &budget())
}

/// Runs the Angelix-style baseline on a subject.
pub fn run_angelix(subject: &Subject) -> AngelixReport {
    angelix(&subject.problem(), &budget())
}

/// Runs the Prophet-style baseline on a subject.
pub fn run_prophet(subject: &Subject) -> ProphetReport {
    prophet(&subject.problem(), &budget())
}

/// CPR counts as *correct* on a subject when the developer patch is in the
/// Top-10 of the final ranking (the paper reports the rank itself in
/// Table 1 and observes 20/30 Top-10; Table 2 aggregates correctness).
pub fn cpr_correct(report: &RepairReport) -> bool {
    report.dev_rank.map(|r| r <= 10).unwrap_or(false)
}

/// A plain-text table with aligned columns.
#[derive(Debug, Default, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header count).
    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let pad = widths[i] - cell.chars().count();
                let _ = write!(out, "{}{}", cell, " ".repeat(pad));
                if i + 1 < cells.len() {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        render_row(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            render_row(row, &widths, &mut out);
        }
        out
    }
}

/// Prints the table to stdout and also writes it (with a title) to
/// `target/cpr-results/<name>.txt`.
pub fn emit(name: &str, title: &str, body: &str) {
    println!("{title}\n");
    println!("{body}");
    let dir = PathBuf::from("target/cpr-results");
    let _ = fs::create_dir_all(&dir);
    let _ = fs::write(
        dir.join(format!("{name}.txt")),
        format!("{title}\n\n{body}"),
    );
}

/// Formats a percentage.
pub fn pct(v: f64) -> String {
    format!("{v:.0}%")
}

/// Formats an optional rank.
pub fn rank_str(rank: Option<usize>) -> String {
    match rank {
        Some(r) => r.to_string(),
        None => "✗".to_owned(),
    }
}

/// Whether a timing taken with `threads` workers on `cpus` CPUs can be
/// read as a parallel speedup: with more threads than CPUs the row times
/// oversubscription, not parallelism.
pub fn comparable(threads: usize, cpus: usize) -> bool {
    threads <= cpus
}

/// `baseline_millis / millis` for a row timed with `threads` workers, or
/// `None` when that row is not [`comparable`] on `cpus` CPUs.
pub fn speedup(baseline_millis: f64, millis: f64, threads: usize, cpus: usize) -> Option<f64> {
    comparable(threads, cpus).then(|| baseline_millis / millis)
}

/// An optional speedup as a JSON value: two decimals, or `null`.
pub fn json_speedup(speedup: Option<f64>) -> String {
    speedup.map_or_else(|| "null".to_owned(), |s| format!("{s:.2}"))
}

/// The `q`-quantile of sorted, non-empty `xs` by linear interpolation.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedups_only_from_comparable_rows() {
        assert!(comparable(1, 1) && comparable(2, 2) && !comparable(4, 2));
        assert_eq!(speedup(300.0, 100.0, 2, 2), Some(3.0));
        assert_eq!(speedup(300.0, 100.0, 4, 2), None);
        assert_eq!(json_speedup(Some(3.0)), "3.00");
        assert_eq!(json_speedup(None), "null");
    }

    #[test]
    fn quantile_interpolates_between_sorted_samples() {
        let xs = [1.0, 2.0, 4.0, 8.0, 16.0];
        assert_eq!(quantile(&xs, 0.5), 4.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(quantile(&xs, 0.875), 12.0);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(["ID", "Name", "Ratio"]);
        t.row(["1", "Libtiff/CVE-2016-3623", "23%"]);
        t.row(["2", "x", "0%"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("ID"));
        assert!(lines[1].starts_with("---"));
        // Columns align: every row has the same width.
        assert_eq!(lines[2].chars().count(), lines[0].chars().count());
    }

    #[test]
    fn budget_reads_env() {
        let cfg = budget();
        assert!(cfg.max_iterations > 0);
        assert!(cfg.max_millis.is_some());
    }

    #[test]
    fn helpers_format() {
        assert_eq!(pct(63.2), "63%");
        assert_eq!(rank_str(Some(3)), "3");
        assert_eq!(rank_str(None), "✗");
    }
}
