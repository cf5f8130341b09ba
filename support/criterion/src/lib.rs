//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no crates.io access, so this crate implements
//! the subset of the criterion API the workspace's benches use: the
//! [`Criterion`] driver with `bench_function` / `benchmark_group`,
//! [`Bencher::iter`] / [`Bencher::iter_batched`], [`BatchSize`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Methodology: each benchmark is warmed up for ~100 ms, then timed over
//! `sample_size` samples, each of which runs enough iterations to exceed a
//! fixed per-sample floor. The median, minimum and maximum per-iteration
//! times are printed in a criterion-like one-line format. There is no HTML
//! report, outlier analysis, or statistical regression testing — the point
//! is comparable relative numbers, machine-readably logged, without
//! external dependencies.

// No unsafe anywhere in this crate — enforced at compile time (and
// pinned by privelet-analysis lint US002). privelet-matrix is the only
// crate US002 allows unsafe in, and it holds none.
#![forbid(unsafe_code)]

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Re-export of `std::hint::black_box` for API compatibility.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// How `iter_batched` amortizes setup allocations. All variants behave the
/// same here: one setup per timed iteration, setup excluded from timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One batch per iteration.
    PerIteration,
}

/// Timing driver handed to benchmark closures.
pub struct Bencher {
    samples: usize,
    /// Median / min / max nanoseconds per iteration, filled by the
    /// measurement loop.
    result: Option<(f64, f64, f64)>,
}

impl Bencher {
    fn new(samples: usize) -> Self {
        Bencher {
            samples,
            result: None,
        }
    }

    /// Times `routine` over repeated iterations.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: run for ~100 ms to stabilize caches and clocks, and
        // estimate the per-iteration cost for sample sizing.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < Duration::from_millis(100) {
            std_black_box(routine());
            warm_iters += 1;
        }
        let est_ns = (warm_start.elapsed().as_nanos() as f64 / warm_iters as f64).max(1.0);
        // Aim for ~2 ms per sample so cheap routines are batched.
        let iters_per_sample = ((2e6 / est_ns).ceil() as u64).max(1);

        let mut per_iter: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                std_black_box(routine());
            }
            per_iter.push(start.elapsed().as_nanos() as f64 / iters_per_sample as f64);
        }
        per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let median = per_iter[per_iter.len() / 2];
        self.result = Some((median, per_iter[0], per_iter[per_iter.len() - 1]));
    }

    /// Times `routine` on fresh inputs from `setup`; setup time is excluded.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut per_iter: Vec<f64> = Vec::with_capacity(self.samples);
        // One warm-up pass.
        std_black_box(routine(setup()));
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            let output = std_black_box(routine(input));
            // Stop the clock before dropping the output, as real criterion
            // does (iter_batched excludes output deallocation).
            per_iter.push(start.elapsed().as_nanos() as f64);
            drop(output);
        }
        per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let median = per_iter[per_iter.len() / 2];
        self.result = Some((median, per_iter[0], per_iter[per_iter.len() - 1]));
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.2} ns")
    } else if ns < 1e6 {
        format!("{:.3} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.3} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

fn run_one(id: &str, samples: usize, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher::new(samples);
    f(&mut b);
    match b.result {
        Some((median, lo, hi)) => println!(
            "{id:<40} time: [{} {} {}]",
            format_ns(lo),
            format_ns(median),
            format_ns(hi)
        ),
        None => println!("{id:<40} (no measurement: bencher not driven)"),
    }
}

/// The benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 30 }
    }
}

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        run_one(id, self.sample_size, &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.sample_size,
            _parent: self,
        }
    }
}

/// A group of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of timing samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Runs one named benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        run_one(&format!("{}/{id}", self.name), self.sample_size, &mut f);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Declares a group-runner function invoking each benchmark fn in turn.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_measures_and_prints() {
        let mut c = Criterion::default();
        let mut ran = 0u64;
        c.bench_function("smoke_iter", |b| b.iter(|| ran = ran.wrapping_add(1)));
        assert!(ran > 0);
    }

    #[test]
    fn groups_respect_sample_size() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(5);
        let mut calls = 0u64;
        group.bench_function("batched", |b| {
            b.iter_batched(
                || 21u64,
                |x| {
                    calls += 1;
                    x * 2
                },
                BatchSize::SmallInput,
            )
        });
        group.finish();
        // 1 warm-up + 5 samples.
        assert_eq!(calls, 6);
    }
}
