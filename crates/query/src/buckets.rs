//! Quantile bucketing of queries by coverage / selectivity.
//!
//! Figures 6–9 divide the 40 000-query workload into 5 subsets whose
//! coverage (resp. selectivity) falls between consecutive quintiles of the
//! workload's coverage (selectivity) distribution, then plot the average
//! error of each subset against its average coverage (selectivity). This
//! module implements that bucketing generically: queries are sorted by a
//! key and split into `k` equal-count buckets; for each bucket we report
//! the mean key and the mean of every value series.

use crate::{QueryError, Result};

/// One bucket row of a figure: the mean key (x-axis) and the mean of each
/// value series (one per mechanism), plus the bucket's query count.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketRow {
    /// Mean of the bucketing key (coverage or selectivity) in this bucket.
    pub mean_key: f64,
    /// Mean of each value series over the bucket's queries.
    pub mean_values: Vec<f64>,
    /// Number of queries in the bucket.
    pub count: usize,
}

/// Buckets `(keys[i], series[*][i])` into `k` equal-count groups by
/// ascending key and returns per-bucket means.
///
/// All series must have the same length as `keys`, and every key must be
/// finite. Buckets differ in size by at most one (when `k` does not
/// divide the query count).
pub fn quantile_rows(keys: &[f64], series: &[&[f64]], k: usize) -> Result<Vec<BucketRow>> {
    if k == 0 {
        return Err(QueryError::BadConfig(
            "bucket count must be positive".into(),
        ));
    }
    if keys.is_empty() {
        return Err(QueryError::BadConfig(
            "cannot bucket an empty workload".into(),
        ));
    }
    if let Some(i) = keys.iter().position(|k| !k.is_finite()) {
        return Err(QueryError::BadConfig(format!(
            "bucket key {i} is not finite ({})",
            keys[i]
        )));
    }
    for s in series {
        if s.len() != keys.len() {
            return Err(QueryError::BadConfig(format!(
                "series length {} != key length {}",
                s.len(),
                keys.len()
            )));
        }
    }
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]));

    let n = keys.len();
    let k = k.min(n);
    let base = n / k;
    let extra = n % k;
    let mut rows = Vec::with_capacity(k);
    let mut start = 0usize;
    for b in 0..k {
        let len = base + usize::from(b < extra);
        let idxs = &order[start..start + len];
        start += len;
        let mean_key = idxs.iter().map(|&i| keys[i]).sum::<f64>() / len as f64;
        let mean_values = series
            .iter()
            .map(|s| idxs.iter().map(|&i| s[i]).sum::<f64>() / len as f64)
            .collect();
        rows.push(BucketRow {
            mean_key,
            mean_values,
            count: len,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_sorted_and_balanced() {
        let keys: Vec<f64> = (0..100).map(|i| (99 - i) as f64).collect(); // descending input
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let rows = quantile_rows(&keys, &[&vals], 5).unwrap();
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert_eq!(r.count, 20);
        }
        // Mean keys ascend bucket to bucket.
        for w in rows.windows(2) {
            assert!(w[0].mean_key < w[1].mean_key);
        }
        // First bucket holds keys 0..20 -> mean 9.5.
        assert!((rows[0].mean_key - 9.5).abs() < 1e-12);
        // Since vals[i] = 99 - keys[i], first bucket's value mean is 89.5.
        assert!((rows[0].mean_values[0] - 89.5).abs() < 1e-12);
    }

    #[test]
    fn uneven_division_spreads_remainder() {
        let keys: Vec<f64> = (0..7).map(|i| i as f64).collect();
        let rows = quantile_rows(&keys, &[], 3).unwrap();
        let counts: Vec<usize> = rows.iter().map(|r| r.count).collect();
        assert_eq!(counts, vec![3, 2, 2]);
        assert_eq!(counts.iter().sum::<usize>(), 7);
    }

    #[test]
    fn multiple_series_bucket_together() {
        let keys = vec![1.0, 2.0, 3.0, 4.0];
        let a = vec![10.0, 20.0, 30.0, 40.0];
        let b = vec![1.0, 1.0, 2.0, 2.0];
        let rows = quantile_rows(&keys, &[&a, &b], 2).unwrap();
        assert_eq!(rows[0].mean_values, vec![15.0, 1.0]);
        assert_eq!(rows[1].mean_values, vec![35.0, 2.0]);
    }

    #[test]
    fn more_buckets_than_items_collapses() {
        let keys = vec![5.0, 1.0];
        let rows = quantile_rows(&keys, &[], 5).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].mean_key, 1.0);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(quantile_rows(&[], &[], 5).is_err());
        assert!(quantile_rows(&[1.0], &[], 0).is_err());
        let short = vec![1.0];
        assert!(quantile_rows(&[1.0, 2.0], &[&short], 2).is_err());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                quantile_rows(&[1.0, bad, 3.0], &[], 2),
                Err(QueryError::BadConfig(_))
            ));
        }
    }
}
