//! Latency histograms and the per-phase end-to-end aggregates.

use privelet::IngestReport;
use std::time::Duration;

/// Sub-buckets per power of two: 2⁹ = 512, so a reported quantile sits
/// within 0.2% of the true sample.
const SUB_BITS: u32 = 9;
const SUB: u64 = 1 << SUB_BITS;

/// A log-linear latency histogram over nanoseconds. Memory is fixed by
/// the largest value seen (a few KB for microsecond calls), never by the
/// sample count, so a fast run does not read as a bigger process.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let shift = 63 - ns.leading_zeros() - SUB_BITS;
    let mantissa = (ns >> shift) - SUB;
    ((u64::from(shift) + 1) * SUB + mantissa) as usize
}

/// The midpoint of a bucket, in nanoseconds.
fn value_of(bucket: usize) -> f64 {
    let b = bucket as u64;
    if b < SUB {
        return b as f64;
    }
    let shift = b / SUB - 1;
    let lower = (SUB + b % SUB) << shift;
    lower as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Hist {
    pub fn record(&mut self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn record_ns(&mut self, ns: u64) {
        let b = bucket_of(ns);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Nearest-rank quantile in nanoseconds; 0 for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value_of(b);
            }
        }
        value_of(self.counts.len() - 1)
    }

    /// The quantile in units of `unit_ns` nanoseconds (1e3 = µs, 1e6 = ms).
    pub fn quantile(&self, q: f64, unit_ns: f64) -> f64 {
        self.quantile_ns(q) / unit_ns
    }
}

pub const US: f64 = 1e3;
pub const MS: f64 = 1e6;

/// What one set of closed-loop iterations measured end to end. Each
/// workload fills one `Phase` for untraced iterations and, in a traced
/// run, one for traced iterations, so the two can be compared.
///
/// - `release`: data → servable release (a publish plus core build, or
///   an epoch roll into the serving engine).
/// - `call`: the workload's hot call (a compiled batch, an ingest batch,
///   or one online answer); `items` counts the queries or increments those
///   calls handled and `busy` the time spent in them.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub release: Hist,
    pub call: Hist,
    pub items: u64,
    pub busy: Duration,
}

impl Phase {
    pub fn items_per_s(&self) -> f64 {
        self.items as f64 / self.busy.as_secs_f64()
    }
}

/// `IngestReport` totals over many batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestTotals {
    pub increments: u64,
    pub coalesced_cells: u64,
    pub coefficients_written: u64,
}

impl IngestTotals {
    pub fn add(&mut self, r: &IngestReport) {
        self.increments += r.increments as u64;
        self.coalesced_cells += r.coalesced_cells as u64;
        self.coefficients_written += r.coefficients_written as u64;
    }

    pub fn written_per_increment(&self) -> f64 {
        self.coefficients_written as f64 / self.increments.max(1) as f64
    }

    pub fn coalesced_share(&self) -> f64 {
        self.coalesced_cells as f64 / self.increments.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0;
        for ns in (0..1_000_000u64).step_by(7).chain([u64::MAX / 4]) {
            let b = bucket_of(ns);
            assert!(b >= last, "bucket order broke at {ns}");
            last = b;
            let v = value_of(b);
            assert!(
                (v - ns as f64).abs() <= ns as f64 / SUB as f64 + 1.0,
                "{ns} -> {v}"
            );
        }
    }

    #[test]
    fn quantiles_follow_nearest_rank() {
        let mut h = Hist::default();
        for ns in 1..=100u64 {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_ns(0.5), 50.0);
        assert_eq!(h.quantile_ns(0.9), 90.0);
        let mut g = Hist::default();
        g.record_ns(5_000);
        h.merge(&g);
        assert_eq!(h.count(), 101);
        assert!((h.quantile_ns(1.0) - 5_000.0).abs() <= 5.0);
        assert_eq!(Hist::default().quantile_ns(0.5), 0.0);
    }
}
