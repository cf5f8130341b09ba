//! Sliding-window and exponentially-decayed streaming releases — thin
//! layers over [`IncrementalRelease`]'s coalesced bulk primitive.
//!
//! Both variants reduce to *increment streams* (the ROADMAP framing):
//!
//! - A [`SlidingWindowRelease`] keeps a ring of per-epoch increment
//!   logs. When an epoch falls out of the window, its log replays as a
//!   **negated bulk batch** through
//!   [`apply_increments`](IncrementalRelease::apply_increments) — the
//!   same dirty-set walk that absorbed it, run backwards — before the
//!   epoch boundary draws noise. No from-scratch rebuild, no second
//!   table.
//! - A [`DecayedSumRelease`] maintains `S_t = Σᵢ α^(t-i) · xᵢ`: each
//!   epoch publishes the accumulated sum (newest arrivals at weight 1)
//!   and then scales the whole table by `α` via
//!   [`decay`](IncrementalRelease::decay), so older epochs fade
//!   geometrically.
//!
//! Budget atomicity: both layers gate on the non-mutating
//! [`BudgetLedger::check`](crate::privacy::BudgetLedger::check) *before*
//! expiring logs or decaying state, so a refused epoch leaves the release
//! exactly as it was — same contract as the underlying ledger.
//!
//! Bit-identity caveat: expiry relies on `x + δ − δ == x`, which IEEE
//! addition guarantees for integer-valued counts in range (the normal
//! frequency-matrix regime) but not for arbitrary reals. The proptests
//! pin the windowed table against a publish-from-scratch under integer
//! increments.

use crate::incremental::{IncrementalRelease, IngestReport};
use crate::mechanism::CoefficientOutput;
use crate::privacy::BudgetLedger;
use crate::{CoreError, Result};
use privelet_data::FrequencyMatrix;
use std::collections::{BTreeSet, VecDeque};

/// A streaming release over the most recent `window` epochs: counts
/// older than the window are retired by replaying their increment log
/// negated, as one coalesced bulk batch.
#[derive(Debug, Clone)]
pub struct SlidingWindowRelease {
    inner: IncrementalRelease,
    window: usize,
    /// Sealed epochs still inside the window, oldest first.
    sealed: VecDeque<Vec<(Vec<usize>, f64)>>,
    /// The increment log of the epoch currently filling.
    current: Vec<(Vec<usize>, f64)>,
}

impl SlidingWindowRelease {
    /// Opens a windowed release retaining the last `window` epochs of
    /// increments on top of `fm`'s initial contents (the initial table is
    /// background that never expires; pass a zero table for a pure
    /// window). `window` must be at least 1.
    pub fn new(
        fm: &FrequencyMatrix,
        sa: &BTreeSet<usize>,
        total_epsilon: f64,
        window: usize,
    ) -> Result<Self> {
        if window == 0 {
            return Err(CoreError::BadWindow(window));
        }
        Ok(SlidingWindowRelease {
            inner: IncrementalRelease::new(fm, sa, total_epsilon)?,
            window,
            sealed: VecDeque::new(),
            current: Vec::new(),
        })
    }

    /// The wrapped release (exact coefficients, transform, schema).
    pub fn release(&self) -> &IncrementalRelease {
        &self.inner
    }

    /// The retention window, in epochs.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Sealed epochs currently inside the window.
    pub fn retained_epochs(&self) -> usize {
        self.sealed.len()
    }

    /// The lifetime budget ledger.
    pub fn ledger(&self) -> &BudgetLedger {
        self.inner.ledger()
    }

    /// Absorbs a bulk batch into the current epoch (validated, coalesced,
    /// dirty-set propagated) and logs it for future expiry.
    pub fn apply_increments(&mut self, increments: &[(Vec<usize>, f64)]) -> Result<IngestReport> {
        let report = self.inner.apply_increments(increments)?;
        self.current.extend(increments.iter().cloned());
        Ok(report)
    }

    /// Absorbs a batch of row arrivals (`+1` per row) into the current
    /// epoch through the bulk path.
    pub fn apply_rows(&mut self, rows: &[Vec<usize>]) -> Result<IngestReport> {
        let report = self.inner.apply_rows(rows)?;
        self.current.extend(rows.iter().map(|r| (r.clone(), 1.0)));
        Ok(report)
    }

    /// Seals the current epoch, expires everything that slid out of the
    /// window (negated bulk replays), and publishes under `epoch_epsilon`.
    ///
    /// The budget check runs **first**: a refused epoch seals nothing,
    /// expires nothing, and draws nothing.
    pub fn advance_epoch(&mut self, epoch_epsilon: f64, seed: u64) -> Result<CoefficientOutput> {
        self.inner.ledger().check(epoch_epsilon)?;
        self.sealed.push_back(std::mem::take(&mut self.current));
        while self.sealed.len() > self.window {
            // Pop-before-replay is safe: the replay only errors on cells
            // that failed validation, and everything in a sealed log
            // already passed it on the way in.
            if let Some(expired) = self.sealed.pop_front() {
                let negated: Vec<(Vec<usize>, f64)> =
                    expired.into_iter().map(|(cell, d)| (cell, -d)).collect();
                self.inner.apply_increments(&negated)?;
            }
        }
        self.inner.advance_epoch(epoch_epsilon, seed)
    }
}

/// A streaming release of the exponentially-decayed sum
/// `S_t = Σᵢ α^(t-i) · xᵢ`: each epoch publishes the accumulated table
/// with the newest epoch at weight 1, then scales everything by `α` so
/// history fades geometrically.
#[derive(Debug, Clone)]
pub struct DecayedSumRelease {
    inner: IncrementalRelease,
    alpha: f64,
}

impl DecayedSumRelease {
    /// Opens a decayed-sum release with per-epoch factor `alpha`
    /// (finite, > 0; values in `(0, 1)` decay, `1` degenerates to the
    /// plain running sum).
    pub fn new(
        fm: &FrequencyMatrix,
        sa: &BTreeSet<usize>,
        total_epsilon: f64,
        alpha: f64,
    ) -> Result<Self> {
        if !alpha.is_finite() || alpha <= 0.0 {
            return Err(CoreError::BadDecayFactor(alpha));
        }
        Ok(DecayedSumRelease {
            inner: IncrementalRelease::new(fm, sa, total_epsilon)?,
            alpha,
        })
    }

    /// The wrapped release.
    pub fn release(&self) -> &IncrementalRelease {
        &self.inner
    }

    /// The per-epoch decay factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The lifetime budget ledger.
    pub fn ledger(&self) -> &BudgetLedger {
        self.inner.ledger()
    }

    /// Absorbs a bulk batch at weight 1 (it decays from the next epoch
    /// boundary on).
    pub fn apply_increments(&mut self, increments: &[(Vec<usize>, f64)]) -> Result<IngestReport> {
        self.inner.apply_increments(increments)
    }

    /// Absorbs a batch of row arrivals (`+1` per row) at weight 1.
    pub fn apply_rows(&mut self, rows: &[Vec<usize>]) -> Result<IngestReport> {
        self.inner.apply_rows(rows)
    }

    /// Publishes the current decayed sum under `epoch_epsilon`, then
    /// applies one `α` scaling at the epoch boundary. A refused epoch
    /// neither publishes nor decays.
    pub fn advance_epoch(&mut self, epoch_epsilon: f64, seed: u64) -> Result<CoefficientOutput> {
        self.inner.ledger().check(epoch_epsilon)?;
        let out = self.inner.advance_epoch(epoch_epsilon, seed)?;
        self.inner.decay(self.alpha)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{publish_coefficients, PriveletConfig};
    use privelet_data::schema::{Attribute, Schema};
    use privelet_hierarchy::builder::three_level;
    use privelet_matrix::NdMatrix;

    fn small_schema() -> Schema {
        Schema::new(vec![
            Attribute::ordinal("t", 6), // pads to 8
            Attribute::nominal("k", three_level(6, 3).unwrap()),
        ])
        .unwrap()
    }

    fn zeros(schema: &Schema) -> FrequencyMatrix {
        let n = schema.cell_count();
        FrequencyMatrix::from_parts(
            schema.clone(),
            NdMatrix::from_vec(&schema.dims(), vec![0.0; n]).unwrap(),
        )
        .unwrap()
    }

    /// Deterministic integer increments for epoch `e`.
    fn epoch_batch(schema: &Schema, e: u64) -> Vec<(Vec<usize>, f64)> {
        let dims = schema.dims();
        (0..10u64)
            .map(|i| {
                let h = (e * 1315423911).wrapping_add(i * 2654435761) >> 7;
                let cell = vec![(h as usize) % dims[0], ((h >> 16) as usize) % dims[1]];
                let delta = ((h >> 32) % 7) as f64 - 3.0;
                (cell, delta)
            })
            .collect()
    }

    /// Every window epoch's output must be bit-identical to a
    /// from-scratch publish on a table holding exactly the retained
    /// epochs' increments.
    #[test]
    fn window_epochs_match_publish_from_scratch_bitwise() {
        let schema = small_schema();
        let sa = BTreeSet::new();
        let window = 2usize;
        let mut rel = SlidingWindowRelease::new(&zeros(&schema), &sa, 10.0, window).unwrap();
        let mut logs: Vec<Vec<(Vec<usize>, f64)>> = Vec::new();
        let dims = schema.dims();
        for e in 0..5u64 {
            let batch = epoch_batch(&schema, e);
            let report = rel.apply_increments(&batch).unwrap();
            assert_eq!(report.increments, batch.len());
            logs.push(batch);
            let out = rel.advance_epoch(0.5, 300 + e).unwrap();

            // Reference: only the last `window` epochs' increments.
            let mut table = vec![0.0f64; schema.cell_count()];
            let lo = logs.len().saturating_sub(window);
            for log in &logs[lo..] {
                for (cell, d) in log {
                    table[cell[0] * dims[1] + cell[1]] += d;
                }
            }
            let fm = FrequencyMatrix::from_parts(
                schema.clone(),
                NdMatrix::from_vec(&dims, table).unwrap(),
            )
            .unwrap();
            let scratch = publish_coefficients(&fm, &PriveletConfig::pure(0.5, 300 + e)).unwrap();
            assert_eq!(rel.retained_epochs().min(window), rel.retained_epochs());
            for (i, (a, b)) in out
                .coefficients
                .as_slice()
                .iter()
                .zip(scratch.coefficients.as_slice())
                .enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "epoch {e} coeff {i}");
            }
        }
        assert_eq!(rel.retained_epochs(), window);
    }

    #[test]
    fn window_refusal_has_no_side_effects() {
        let schema = small_schema();
        let mut rel = SlidingWindowRelease::new(&zeros(&schema), &BTreeSet::new(), 1.0, 1).unwrap();
        rel.apply_rows(&[vec![0, 0], vec![1, 2]]).unwrap();
        rel.advance_epoch(0.75, 1).unwrap();
        rel.apply_rows(&[vec![2, 3]]).unwrap();
        let exact_before: Vec<u64> = rel
            .release()
            .exact_coefficients()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();

        // 0.5 > the 0.25 remaining: refused before sealing or expiring.
        let err = rel.advance_epoch(0.5, 2).unwrap_err();
        assert!(matches!(err, CoreError::BudgetExhausted { .. }));
        assert_eq!(rel.retained_epochs(), 1);
        assert_eq!(rel.current.len(), 1);
        assert_eq!(rel.ledger().epochs(), 1);
        let exact_after: Vec<u64> = rel
            .release()
            .exact_coefficients()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(exact_before, exact_after);

        // A coverable epoch still goes through and rolls the window.
        rel.advance_epoch(0.25, 3).unwrap();
        assert_eq!(rel.retained_epochs(), 1);
        assert_eq!(rel.current.len(), 0);
    }

    #[test]
    fn zero_window_is_rejected() {
        let schema = small_schema();
        assert!(matches!(
            SlidingWindowRelease::new(&zeros(&schema), &BTreeSet::new(), 1.0, 0).unwrap_err(),
            CoreError::BadWindow(0)
        ));
    }

    /// Each decayed epoch must equal a from-scratch publish of the
    /// hand-maintained decayed table (scaled with the same `α · x`
    /// expression the release uses).
    #[test]
    fn decayed_epochs_match_publish_from_scratch_bitwise() {
        let schema = small_schema();
        let alpha = 0.5f64;
        let mut rel =
            DecayedSumRelease::new(&zeros(&schema), &BTreeSet::new(), 10.0, alpha).unwrap();
        let mut table = vec![0.0f64; schema.cell_count()];
        let dims = schema.dims();
        for e in 0..4u64 {
            let batch = epoch_batch(&schema, e);
            rel.apply_increments(&batch).unwrap();
            for (cell, d) in &batch {
                table[cell[0] * dims[1] + cell[1]] += d;
            }
            let out = rel.advance_epoch(0.5, 800 + e).unwrap();
            let fm = FrequencyMatrix::from_parts(
                schema.clone(),
                NdMatrix::from_vec(&dims, table.clone()).unwrap(),
            )
            .unwrap();
            let scratch = publish_coefficients(&fm, &PriveletConfig::pure(0.5, 800 + e)).unwrap();
            for (i, (a, b)) in out
                .coefficients
                .as_slice()
                .iter()
                .zip(scratch.coefficients.as_slice())
                .enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "epoch {e} coeff {i}");
            }
            // The boundary decay, with the release's own expression.
            for v in &mut table {
                *v *= alpha;
            }
        }
    }

    #[test]
    fn decayed_refusal_neither_publishes_nor_decays() {
        let schema = small_schema();
        let mut rel = DecayedSumRelease::new(&zeros(&schema), &BTreeSet::new(), 0.5, 0.5).unwrap();
        rel.apply_rows(&[vec![1, 1]]).unwrap();
        rel.advance_epoch(0.5, 1).unwrap();
        let before: Vec<u64> = rel
            .release()
            .exact_coefficients()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert!(matches!(
            rel.advance_epoch(0.1, 2).unwrap_err(),
            CoreError::BudgetExhausted { .. }
        ));
        let after: Vec<u64> = rel
            .release()
            .exact_coefficients()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(before, after, "a refused epoch must not decay the table");
    }

    #[test]
    fn bad_alpha_is_rejected_at_construction() {
        let schema = small_schema();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                DecayedSumRelease::new(&zeros(&schema), &BTreeSet::new(), 1.0, bad).unwrap_err(),
                CoreError::BadDecayFactor(_)
            ));
        }
    }
}
