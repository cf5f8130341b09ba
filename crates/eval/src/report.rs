//! Rendering experiment series as the tables the paper's figures plot.

use crate::timing::TimingPoint;
use privelet_query::BucketRow;
use std::fmt::Write as _;

/// Renders one figure panel (e.g. "Figure 6(a), ε = 0.5") as a fixed-width
/// table: one row per quantile bucket, the bucket's mean key (coverage or
/// selectivity) followed by each mechanism's mean error.
fn figure_table(title: &str, x_label: &str, mech_names: &[&str], rows: &[BucketRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = write!(out, "{x_label:>14}");
    for name in mech_names {
        let _ = write!(out, " {name:>14}");
    }
    let _ = writeln!(out, " {:>8}", "queries");
    for row in rows {
        let _ = write!(out, "{:>14.6e}", row.mean_key);
        for v in &row.mean_values {
            let _ = write!(out, " {v:>14.6e}");
        }
        let _ = writeln!(out, " {:>8}", row.count);
    }
    out
}

/// Prints a figure panel to stdout.
pub fn print_figure(title: &str, x_label: &str, mech_names: &[&str], rows: &[BucketRow]) {
    print!("{}", figure_table(title, x_label, mech_names, rows));
}

/// Renders a timing sweep (Figure 10/11) as a fixed-width table.
fn timing_table(title: &str, x_label: &str, points: &[TimingPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "{x_label:>12} {:>12} {:>14} {:>16}",
        "m", "Basic (s)", "Privelet+ (s)"
    );
    for p in points {
        let x = if x_label == "n" { p.n } else { p.m };
        let _ = writeln!(
            out,
            "{x:>12} {:>12} {:>14.3} {:>16.3}",
            p.m, p.basic_secs, p.privelet_secs
        );
    }
    out
}

/// Prints a timing sweep to stdout.
pub fn print_timing(title: &str, x_label: &str, points: &[TimingPoint]) {
    print!("{}", timing_table(title, x_label, points));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_table_contains_all_rows_and_names() {
        let rows = vec![
            BucketRow {
                mean_key: 1e-3,
                mean_values: vec![100.0, 1.0],
                count: 10,
            },
            BucketRow {
                mean_key: 1e-1,
                mean_values: vec![5000.0, 1.5],
                count: 10,
            },
        ];
        let s = figure_table("Fig X", "coverage", &["Basic", "Privelet+"], &rows);
        assert!(s.contains("Fig X"));
        assert!(s.contains("Basic"));
        assert!(s.contains("Privelet+"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn timing_table_lists_points() {
        let pts = vec![TimingPoint {
            n: 1000,
            m: 4096,
            basic_secs: 0.5,
            privelet_secs: 1.2,
        }];
        let s = timing_table("Fig 10", "n", &pts);
        assert!(s.contains("1000"));
        assert!(s.contains("4096"));
        assert!(s.contains("1.2"));
    }
}
