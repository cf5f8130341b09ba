//! Rendering the timing sweeps (Figures 10–11) as fixed-width tables.
//! The error figures (6–9) print through `privelet_bench::print_panels`.

use crate::timing::TimingPoint;
use std::fmt::Write as _;

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
