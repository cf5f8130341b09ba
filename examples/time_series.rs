//! Private time-series range counts with the 1-D Haar instantiation (§IV).
//!
//! A hospital publishes hourly admission counts for a year (8 760 ordinal
//! buckets). Analysts ask window queries — "admissions in week 12", "during
//! March", "around the outbreak" — i.e. exactly the range-count workload
//! Privelet optimizes. This example publishes once under ε-DP with the
//! three 1-D mechanisms and compares window-query accuracy across window
//! lengths.
//!
//! Run with: `cargo run --release --example time_series`

use privelet_repro::core::bounds::eq4_ordinal_bound;
use privelet_repro::core::mechanism::{
    publish_basic, publish_hierarchical_1d, publish_privelet, PriveletConfig,
};
use privelet_repro::core::SlidingWindowRelease;
use privelet_repro::data::schema::{Attribute, Schema};
use privelet_repro::data::FrequencyMatrix;
use privelet_repro::eval::ExactEvaluate;
use privelet_repro::matrix::NdMatrix;
use privelet_repro::noise::derive_rng;
use privelet_repro::query::{ConcurrentEngine, Predicate, RangeQuery};
use rand::Rng;
use std::collections::BTreeSet;
use std::thread;

const HOURS: usize = 24 * 365;

fn main() {
    // Synthetic admissions: a daily cycle, a weekly cycle, a winter bump,
    // and an "outbreak" spike in autumn.
    let counts: Vec<f64> = (0..HOURS)
        .map(|h| {
            let hour_of_day = (h % 24) as f64;
            let day = h / 24;
            let daily = 6.0 + 4.0 * ((hour_of_day - 14.0) / 24.0 * std::f64::consts::TAU).cos();
            let weekly = if day % 7 >= 5 { 1.3 } else { 1.0 };
            let seasonal = 1.0 + 0.3 * ((day as f64) / 365.0 * std::f64::consts::TAU).cos();
            let outbreak = if (260..275).contains(&day) { 2.2 } else { 1.0 };
            (daily * weekly * seasonal * outbreak).round().max(0.0)
        })
        .collect();
    let n: f64 = counts.iter().sum();

    let schema = Schema::new(vec![Attribute::ordinal("hour", HOURS)]).unwrap();
    let fm =
        FrequencyMatrix::from_parts(schema, NdMatrix::from_vec(&[HOURS], counts).unwrap()).unwrap();

    let epsilon = 0.5;
    let basic = publish_basic(&fm, epsilon, 77).unwrap();
    let privelet = publish_privelet(&fm, &PriveletConfig::pure(epsilon, 77)).unwrap();
    let hier = publish_hierarchical_1d(&fm, epsilon, 77).unwrap();

    println!("published {n:.0} admissions over {HOURS} hourly buckets at ε = {epsilon}");
    println!(
        "Privelet variance bound (Eq. 4): {:.0}  [m pads to {}]",
        eq4_ordinal_bound(HOURS, epsilon),
        HOURS.next_power_of_two()
    );

    // Window queries of increasing length, 200 random placements each.
    println!("\nmean |error| by window length (hours), 200 random windows each:");
    println!(
        "{:>8} {:>12} {:>12} {:>14} {:>12}",
        "window", "exact mean", "Basic", "Privelet", "Hierarchical"
    );
    let mut rng = derive_rng(9, 9);
    for window in [6usize, 24, 7 * 24, 30 * 24, 90 * 24] {
        let (mut eb, mut ep, mut eh, mut mean_exact) = (0.0, 0.0, 0.0, 0.0);
        let trials = 200;
        for _ in 0..trials {
            let lo = rng.random_range(0..HOURS - window);
            let q = RangeQuery::new(vec![Predicate::Range {
                lo,
                hi: lo + window - 1,
            }]);
            let act = q.evaluate(&fm).unwrap();
            mean_exact += act;
            eb += (q.evaluate(&basic).unwrap() - act).abs();
            ep += (q.evaluate(&privelet.matrix).unwrap() - act).abs();
            eh += (q.evaluate(&hier).unwrap() - act).abs();
        }
        let t = trials as f64;
        println!(
            "{window:>8} {:>12.0} {:>12.1} {:>14.1} {:>12.1}",
            mean_exact / t,
            eb / t,
            ep / t,
            eh / t
        );
    }
    println!(
        "\nBasic's window error grows like sqrt(window); the two polylog\n\
         mechanisms stay nearly flat — the paper's headline, on time series."
    );

    // ---- Streaming ingest: a 4-week sliding window, week by week. ----
    //
    // Instead of republishing from scratch every time new hours land, a
    // `SlidingWindowRelease` keeps the exact Haar coefficients current
    // for "admissions in the last 4 weeks": each week's 168 hourly
    // counts arrive as ONE coalesced batch (`apply_increments` walks the
    // dirty coefficient set once, not 168 leaf-to-root paths), and a
    // week that slides out of the window replays its logged increments
    // negated — the same dirty-set walk, run backwards. Noise is drawn
    // only at epoch boundaries, each debiting its ε from a lifetime
    // budget ledger (sequential composition). The serving tier rolls to
    // the new epoch with `ConcurrentEngine::advance_epoch` while keeping
    // its support cache warm: supports are data-independent, so nothing
    // is re-derived across epochs.
    println!("\nsliding window: last 4 weeks, one epoch per week, ε = 0.25 each, budget 2.0");
    let total_epsilon = 2.0;
    let epoch_epsilon = 0.25;
    let window_weeks = 4usize;
    let zeros = FrequencyMatrix::from_parts(
        fm.schema().clone(),
        NdMatrix::from_vec(&[HOURS], vec![0.0; HOURS]).unwrap(),
    )
    .unwrap();
    let mut release =
        SlidingWindowRelease::new(&zeros, &BTreeSet::new(), total_epsilon, window_weeks).unwrap();
    println!(
        "  per-cell touch bound: {} of {} coefficients (⌈log₂ m⌉ + 1)",
        release.release().touch_bound(),
        release.release().exact_coefficients().as_slice().len()
    );

    let mut engine: Option<ConcurrentEngine> = None;
    println!(
        "{:>6} {:>8} {:>10} {:>12} {:>12} {:>8} {:>10} {:>10}",
        "week", "batch", "written", "window sum", "exact", "weeks", "ε spent", "cache"
    );
    for week in 0..6usize {
        // The week's hourly counts arrive as one coalesced batch...
        let increments: Vec<(Vec<usize>, f64)> = (week * 168..(week + 1) * 168)
            .map(|hour| (vec![hour], fm.matrix().get(&[hour]).unwrap()))
            .collect();
        let report = release.apply_increments(&increments).unwrap();
        // ...and the epoch boundary expires week - 4 (if any), then
        // draws fresh noise under its own ε.
        let out = release
            .advance_epoch(epoch_epsilon, 1000 + week as u64)
            .unwrap();
        engine = Some(match engine {
            // The support cache is *shared* across the bump.
            Some(prev) => prev.advance_epoch(&out).unwrap(),
            None => ConcurrentEngine::from_output(&out).unwrap(),
        });
        let serving = engine.as_ref().unwrap();

        // The whole published table is the windowed sum. Served
        // concurrently: both analyst threads read the epoch just
        // published and must agree bitwise.
        let whole = RangeQuery::new(vec![Predicate::Range {
            lo: 0,
            hi: HOURS - 1,
        }]);
        let answers: Vec<f64> = thread::scope(|s| {
            (0..2)
                .map(|_| {
                    let eng = serving.clone();
                    let q = &whole;
                    s.spawn(move || eng.answer(q).unwrap())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(answers[0].to_bits(), answers[1].to_bits());
        let window_lo = (week + 1).saturating_sub(window_weeks) * 168;
        let exact_window = RangeQuery::new(vec![Predicate::Range {
            lo: window_lo,
            hi: (week + 1) * 168 - 1,
        }])
        .evaluate(&fm)
        .unwrap();
        let stats = serving.cache_stats();
        println!(
            "{week:>6} {:>8} {:>10} {:>12.1} {:>12.0} {:>8} {:>10.2} {:>7}h/{}m",
            report.increments,
            report.coefficients_written,
            answers[0],
            exact_window,
            release.retained_epochs(),
            release.ledger().spent(),
            stats.hits,
            stats.misses
        );
    }

    // The ledger refuses an over-draw *before* sealing, expiring or
    // drawing anything.
    let remaining = release.ledger().remaining();
    let err = release.advance_epoch(remaining + 0.5, 9999).unwrap_err();
    println!("  over-spend refused: {err}  (remaining ε = {remaining:.2})");
}
