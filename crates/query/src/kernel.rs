//! The one sparse-dot kernel every answering path runs.
//!
//! A range-count answer is the tensor-product dot of per-dimension
//! supports against the flat coefficient slice. Both the compiled-plan
//! arena walk ([`QueryPlan`]) and the online per-query path
//! ([`ReleaseCore::dot`]) call [`tensor_dot`] over the same layout:
//! `(offset, weight)` pairs whose offset is the coefficient index
//! already multiplied by the axis stride. The recursion bottoms out in
//! one gather-multiply-accumulate over the innermost dimension's pairs.
//! Naively that loop is a single dependency chain of floating-point
//! adds — each `acc += w·c[k]` waits ~4 cycles on the previous one,
//! which dominates a support of ≲40 entries whose gather loads mostly
//! hit cache. [`gather_dot4`] breaks the chain with four independent
//! accumulators over 4-wide chunks and a deterministic final reduction
//! `((a0+a1)+(a2+a3)) + tail`.
//!
//! Determinism contract: the kernel is a pure function of its inputs,
//! and plans and online answers derive the same pairs in the same
//! order, so every answer of a query is bitwise identical whichever
//! path computes it — serial or threaded, cached or uncached, plan or
//! online (see the summation-order policy in `docs/architecture.md`).
//!
//! [`QueryPlan`]: crate::QueryPlan
//! [`ReleaseCore::dot`]: crate::ReleaseCore::dot

use std::ops::Deref;

/// `Σ ∏ᵢ wᵢ · data[base + Σᵢ offsetᵢ]` over the tensor product of the
/// per-dimension `(offset, weight)` supports, scaled by `weight`:
/// depth-first over dimensions, accumulating the linear offset and the
/// weight product. The innermost dimension runs through [`gather_dot4`]
/// with the accumulated weight applied once to its sum.
///
/// Generic over how a caller holds each dimension's pairs (a plan's
/// borrowed arena span, or a cached `Arc`'d support), so both paths run
/// the same monomorphic loop.
pub(crate) fn tensor_dot<S>(data: &[f64], supports: &[S], base: usize, weight: f64) -> f64
where
    S: Deref,
    S::Target: AsRef<[(usize, f64)]>,
{
    match supports {
        [last] => weight * gather_dot4(data, base, (**last).as_ref()),
        [first, rest @ ..] => (**first)
            .as_ref()
            .iter()
            .map(|&(k, w)| tensor_dot(data, rest, base + k, weight * w))
            .sum(),
        // The empty product: a zero-dimensional tensor is its one cell.
        [] => weight * data[base],
    }
}

/// `Σ_j w_j · data[base + k_j]` over `(offset, weight)` pairs, with four
/// independent accumulators.
///
/// Offsets are already stride-premultiplied; the caller guarantees
/// `base + k_j` is in bounds (support derivation validates against the
/// coefficient shape, so the slice indexing below never faults — and
/// stays checked anyway). The reduction order is fixed:
/// `((a0+a1)+(a2+a3)) + tail`, identical for every call with the same
/// inputs.
#[inline]
fn gather_dot4(data: &[f64], base: usize, pairs: &[(usize, f64)]) -> f64 {
    let n4 = pairs.len() & !3;
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for p in pairs[..n4].chunks_exact(4) {
        a0 += p[0].1 * data[base + p[0].0];
        a1 += p[1].1 * data[base + p[1].0];
        a2 += p[2].1 * data[base + p[2].0];
        a3 += p[3].1 * data[base + p[3].0];
    }
    let mut tail = 0.0f64;
    for &(k, wk) in &pairs[n4..] {
        tail += wk * data[base + k];
    }
    ((a0 + a1) + (a2 + a3)) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference single-accumulator fold in the kernel's summation
    /// order: partials a0..a3 then `((a0+a1)+(a2+a3)) + tail`.
    fn reference(data: &[f64], base: usize, pairs: &[(usize, f64)]) -> f64 {
        let mut acc = [0.0f64; 4];
        let mut tail = 0.0;
        for (j, &(k, wk)) in pairs.iter().enumerate() {
            if j < (pairs.len() & !3) {
                acc[j % 4] += wk * data[base + k];
            } else {
                tail += wk * data[base + k];
            }
        }
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
    }

    #[test]
    fn matches_reference_at_every_length() {
        // Lengths 0..=9 cover empty, tail-only, exactly-one-chunk and
        // chunk+tail shapes.
        let data: Vec<f64> = (0..64).map(|i| (i as f64).sin() * 1e3).collect();
        for len in 0..=9usize {
            let pairs: Vec<(usize, f64)> =
                (0..len).map(|j| ((j * 7) % 60, 0.5 + j as f64)).collect();
            let got = gather_dot4(&data, 3, &pairs);
            assert_eq!(got.to_bits(), reference(&data, 3, &pairs).to_bits());
            // A one-dimensional tensor dot is the kernel times its weight.
            assert_eq!(
                tensor_dot(&data, &[pairs.as_slice()], 3, 1.0).to_bits(),
                got.to_bits()
            );
        }
    }
}
