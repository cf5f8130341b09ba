//! Privacy accounting: generalized sensitivity and the ε ↔ λ conversion.
//!
//! Lemma 1 of the paper: if a set of functions (here, wavelet coefficients)
//! has generalized sensitivity `ρ` w.r.t. a weight function `W`, then
//! publishing `f(M) + Lap(λ/W(f))` for every `f` satisfies
//! `(2ρ/λ)`-differential privacy. The factor 2 comes from the paper's
//! neighboring-database notion: *modifying* one tuple (two frequency cells
//! change by one each, `‖M − M'‖₁ = 2`).
//!
//! Hence for a target ε the mechanisms use `λ = 2ρ/ε`:
//!
//! - Basic (§II-B): `ρ = 1` per cell with unit weights → `λ = 2/ε`.
//! - Privelet with the HN transform: `ρ = ∏ P(Aᵢ)` (Theorem 2).

use crate::bounds::hn_variance_bound;
use crate::transform::HnTransform;
use crate::{CoreError, Result};

/// The privacy / utility accounting of one published release: the
/// `epsilon / rho / lambda / variance_bound` quartet every publisher
/// derives and every serving tier consumes.
///
/// Previously duplicated field-for-field on `PriveletOutput` and
/// `CoefficientOutput`; extracted so releases, answerers and error
/// accounting share one type. `lambda` is the quantity exact per-query
/// variance needs (`Var = 2λ²·∏ᵢ factorᵢ`, see [`variance`]); the other
/// three are reporting context.
///
/// [`variance`]: crate::variance
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyMeta {
    /// The differential-privacy budget ε the release satisfies.
    pub epsilon: f64,
    /// Generalized sensitivity `ρ = ∏ P(Aᵢ)` of the transform used.
    pub rho: f64,
    /// The Laplace magnitude parameter `λ = 2ρ/ε`.
    pub lambda: f64,
    /// The analytic per-query noise-variance bound (Corollary 1).
    pub variance_bound: f64,
}

impl PrivacyMeta {
    /// Derives the quartet for publishing with `hn` at budget `epsilon` —
    /// the one place `ρ`, `λ` and the Corollary-1 bound are computed.
    pub fn for_transform(hn: &HnTransform, epsilon: f64) -> Result<Self> {
        let rho = hn.rho();
        Ok(PrivacyMeta {
            epsilon,
            rho,
            lambda: lambda_for_epsilon(epsilon, rho)?,
            variance_bound: hn_variance_bound(hn, epsilon),
        })
    }

    /// The exact noise variance of a query whose per-dimension sparse
    /// variance factors multiply to `factor_product`:
    /// `2λ²·factor_product` (see [`variance`](crate::variance)).
    pub fn query_variance(&self, factor_product: f64) -> f64 {
        2.0 * self.lambda * self.lambda * factor_product
    }
}

/// Validates that ε is finite and strictly positive.
fn check_epsilon(epsilon: f64) -> Result<f64> {
    if !epsilon.is_finite() || epsilon <= 0.0 {
        return Err(CoreError::BadEpsilon(epsilon));
    }
    Ok(epsilon)
}

/// The Laplace magnitude `λ = 2ρ/ε` achieving ε-DP for a transform of
/// generalized sensitivity `ρ` (Lemma 1 with tuple-modification neighbors).
pub fn lambda_for_epsilon(epsilon: f64, rho: f64) -> Result<f64> {
    check_epsilon(epsilon)?;
    if !rho.is_finite() || rho <= 0.0 {
        return Err(CoreError::Unsupported(format!(
            "generalized sensitivity must be finite and > 0, got {rho}"
        )));
    }
    Ok(2.0 * rho / epsilon)
}

/// The privacy level `ε = 2ρ/λ` provided by noise magnitude `λ`.
pub fn epsilon_for_lambda(lambda: f64, rho: f64) -> Result<f64> {
    if !lambda.is_finite() || lambda <= 0.0 {
        return Err(CoreError::Unsupported(format!(
            "lambda must be finite and > 0, got {lambda}"
        )));
    }
    if !rho.is_finite() || rho <= 0.0 {
        return Err(CoreError::Unsupported(format!(
            "generalized sensitivity must be finite and > 0, got {rho}"
        )));
    }
    Ok(2.0 * rho / lambda)
}

/// ε quanta per unit of ε: the ledger counts budget as a whole number of
/// 10⁻¹² steps.
const QUANTA_PER_EPSILON: f64 = 1e12;

/// Converts ε to quanta, rounding to nearest. The conversion is exact for
/// every decimal with at most 12 fractional digits below ≈2251
/// (2⁵¹·10⁻¹²): there the `f64` nearest the decimal, times 10¹², lies
/// within ½ of the decimal's quantum count. Any other value is charged
/// within half a quantum of itself. A value that rounds to no quantum,
/// or to more than the counter holds, is a [`CoreError::BadEpsilon`].
fn to_quanta(epsilon: f64) -> Result<u128> {
    check_epsilon(epsilon)?;
    let q = (epsilon * QUANTA_PER_EPSILON).round();
    // `u128::MAX as f64` rounds up to 2¹²⁸, so every `q` below it is an
    // integer the cast holds exactly.
    if q < 1.0 || q >= u128::MAX as f64 {
        return Err(CoreError::BadEpsilon(epsilon));
    }
    Ok(q as u128)
}

fn from_quanta(q: u128) -> f64 {
    q as f64 / QUANTA_PER_EPSILON
}

/// A sequential-composition privacy ledger for epoch-based re-publishing.
///
/// Releasing the same statistics at epochs `1..k` with per-epoch budgets
/// `ε₁..εₖ` satisfies `(Σεᵢ)`-differential privacy (sequential
/// composition), so a streaming release must stop *before* the running
/// sum would exceed its lifetime budget. The ledger makes the check
/// explicit: [`try_spend`](Self::try_spend) debits an epoch's ε or
/// returns [`CoreError::BudgetExhausted`] — callers are expected to
/// reserve the budget *before* drawing any noise, so an over-spend can
/// never leak even a partially noised release.
///
/// Accounting is exact: the total and every debit are counted in integer
/// quanta of 10⁻¹² ε (rounded to nearest), so a decimal budget split into
/// decimal epochs — 0.3 as three 0.1, 1.0 as 10⁶ epochs of 10⁻⁶ — is
/// granted in full and then refused, with no float residue either way.
/// [`spent`](Self::spent) and [`remaining`](Self::remaining) report the
/// quanta divided by 10¹².
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetLedger {
    /// Lifetime budget, in quanta.
    total: u128,
    /// Granted so far, in quanta; never above `total`.
    spent: u128,
    epochs: u32,
}

impl BudgetLedger {
    /// A ledger with lifetime budget `total_epsilon` and nothing spent.
    pub fn new(total_epsilon: f64) -> Result<Self> {
        Ok(BudgetLedger {
            total: to_quanta(total_epsilon)?,
            spent: 0,
            epochs: 0,
        })
    }

    /// Lifetime budget the ledger was opened with.
    pub fn total_epsilon(&self) -> f64 {
        from_quanta(self.total)
    }

    /// Budget debited so far (sum of granted epoch epsilons).
    pub fn spent(&self) -> f64 {
        from_quanta(self.spent)
    }

    /// Budget still available: `total − spent`.
    pub fn remaining(&self) -> f64 {
        from_quanta(self.total - self.spent)
    }

    /// Epochs granted so far.
    pub fn epochs(&self) -> u32 {
        self.epochs
    }

    /// The quanta [`try_spend`](Self::try_spend) would debit for
    /// `epsilon`, or the refusal it would return.
    fn grant(&self, epsilon: f64) -> Result<u128> {
        let q = to_quanta(epsilon)?;
        if q > self.total - self.spent {
            return Err(CoreError::BudgetExhausted {
                requested: epsilon,
                remaining: self.remaining(),
            });
        }
        Ok(q)
    }

    /// Answers "would [`try_spend`](Self::try_spend) grant `epsilon`?"
    /// without debiting anything. Layers that must refuse *before* any
    /// side effects (e.g. a sliding window about to expire old epochs)
    /// gate on this first.
    pub fn check(&self, epsilon: f64) -> Result<()> {
        self.grant(epsilon).map(|_| ())
    }

    /// Debits `epsilon` for one epoch, or refuses with
    /// [`CoreError::BudgetExhausted`] when the ledger cannot cover it.
    /// On `Err` the ledger is unchanged — a refused epoch spends nothing.
    pub fn try_spend(&mut self, epsilon: f64) -> Result<()> {
        self.spent += self.grant(epsilon)?;
        self.epochs += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lambda_epsilon_roundtrip() {
        let rho = 72.0;
        let eps = 0.75;
        let lambda = lambda_for_epsilon(eps, rho).unwrap();
        assert!((lambda - 192.0).abs() < 1e-12);
        assert!((epsilon_for_lambda(lambda, rho).unwrap() - eps).abs() < 1e-12);
    }

    #[test]
    fn basic_lambda_is_two_over_epsilon() {
        // §II-B: Basic ensures (2/λ)-DP, i.e. λ = 2/ε with ρ = 1.
        assert_eq!(lambda_for_epsilon(1.0, 1.0).unwrap(), 2.0);
        assert_eq!(lambda_for_epsilon(0.5, 1.0).unwrap(), 4.0);
    }

    #[test]
    fn rejects_bad_epsilon() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(check_epsilon(bad), Err(CoreError::BadEpsilon(_))));
            assert!(lambda_for_epsilon(bad, 1.0).is_err());
        }
        assert!(check_epsilon(1e-9).is_ok());
    }

    #[test]
    fn rejects_bad_rho_and_lambda() {
        assert!(lambda_for_epsilon(1.0, 0.0).is_err());
        assert!(lambda_for_epsilon(1.0, f64::NAN).is_err());
        assert!(epsilon_for_lambda(0.0, 1.0).is_err());
    }

    #[test]
    fn epsilon_for_lambda_rejects_bad_rho() {
        // Regression: rho used to be unchecked, silently yielding
        // ε = 0 / NaN / negative for degenerate sensitivities.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                epsilon_for_lambda(2.0, bad),
                Err(CoreError::Unsupported(_))
            ));
        }
        assert!(epsilon_for_lambda(2.0, 1.0).is_ok());
    }

    #[test]
    fn budget_ledger_composes_sequentially() {
        // 0.25 is exactly representable, so four epochs land on 1.0
        // without float slop.
        let mut ledger = BudgetLedger::new(1.0).unwrap();
        for k in 1..=4u32 {
            ledger.try_spend(0.25).unwrap();
            assert_eq!(ledger.epochs(), k);
            assert_eq!(ledger.spent(), 0.25 * k as f64);
        }
        assert_eq!(ledger.remaining(), 0.0);
    }

    #[test]
    fn budget_ledger_refuses_over_spend_and_stays_unchanged() {
        let mut ledger = BudgetLedger::new(0.5).unwrap();
        ledger.try_spend(0.25).unwrap();
        let before = ledger;
        let err = ledger.try_spend(0.5).unwrap_err();
        assert!(matches!(
            err,
            CoreError::BudgetExhausted {
                requested,
                remaining,
            } if requested == 0.5 && remaining == 0.25
        ));
        assert_eq!(ledger, before);
        // The exact remainder is still grantable.
        ledger.try_spend(0.25).unwrap();
        assert_eq!(ledger.epochs(), 2);
    }

    #[test]
    fn budget_ledger_rejects_bad_epsilons() {
        assert!(BudgetLedger::new(0.0).is_err());
        assert!(BudgetLedger::new(f64::NAN).is_err());
        let mut ledger = BudgetLedger::new(1.0).unwrap();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                ledger.try_spend(bad),
                Err(CoreError::BadEpsilon(_))
            ));
        }
        assert_eq!(ledger.epochs(), 0);
    }

    /// Decimal budgets split into decimal epochs: the float sum would
    /// leave `0.09999999999999998` of 0.3 after two 0.1 epochs and refuse
    /// the third; exact quanta grant all three, and all seven of 0.7.
    #[test]
    fn budget_ledger_grants_decimal_splits_in_full() {
        for (total, epochs) in [(0.3, 3u32), (0.7, 7)] {
            let mut ledger = BudgetLedger::new(total).unwrap();
            for _ in 0..epochs {
                ledger.try_spend(0.1).unwrap();
            }
            assert_eq!(ledger.epochs(), epochs);
            assert_eq!(ledger.spent(), total);
            assert_eq!(ledger.remaining(), 0.0);
            assert!(matches!(
                ledger.try_spend(1e-12),
                Err(CoreError::BudgetExhausted { .. })
            ));
        }
    }

    #[test]
    fn budget_ledger_drains_a_million_micro_epochs_exactly() {
        let mut ledger = BudgetLedger::new(1.0).unwrap();
        for _ in 0..1_000_000 {
            ledger.try_spend(1e-6).unwrap();
        }
        assert_eq!(ledger.epochs(), 1_000_000);
        assert_eq!(ledger.spent(), 1.0);
        assert_eq!(ledger.remaining(), 0.0);
        assert!(ledger.check(1e-6).is_err());
    }

    /// A request below half a quantum and a total past the `u128`
    /// counter are refused as bad epsilons; the bench's 10⁹ total fits.
    #[test]
    fn budget_ledger_refuses_epsilons_it_cannot_count() {
        for bad in [1e-13, 4e-13, 1e39] {
            assert!(matches!(
                BudgetLedger::new(bad),
                Err(CoreError::BadEpsilon(_))
            ));
        }
        let mut ledger = BudgetLedger::new(1e9).unwrap();
        assert_eq!(ledger.total_epsilon(), 1e9);
        assert!(matches!(
            ledger.try_spend(4e-13),
            Err(CoreError::BadEpsilon(_))
        ));
        ledger.try_spend(6e-13).unwrap();
        assert_eq!(ledger.epochs(), 1);
    }

    /// splitmix64, for the partitions below.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Grants every part of a decimal total, then asserts the ledger is
    /// exactly empty: nothing left, and one more quantum refused.
    fn drain(total_units: u64, parts: &[u64], scale: f64) -> TestCaseResult {
        let total = total_units as f64 / scale;
        let mut ledger = BudgetLedger::new(total).unwrap();
        for &p in parts {
            prop_assert!(
                ledger.try_spend(p as f64 / scale).is_ok(),
                "part {} of {}",
                p,
                total
            );
        }
        prop_assert_eq!(ledger.spent(), total);
        prop_assert_eq!(ledger.remaining(), 0.0);
        prop_assert!(ledger.try_spend(1e-12).is_err());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A decimal total below 2000 with up to 12 fractional digits, split
        /// into k equal decimal parts or into a random decimal partition:
        /// every part is granted, and the ledger then holds nothing.
        #[test]
        fn decimal_splits_drain_the_ledger_exactly(
            digits in 0i32..=12,
            k in 1u64..=64,
            raw in any::<u64>(),
            seed in any::<u64>(),
        ) {
            let scale = 10f64.powi(digits);
            let max_total = 2000 * 10u64.pow(digits as u32);
            let unit = 1 + raw % (max_total / k);
            drain(k * unit, &vec![unit; k as usize], scale)?;

            let total_units = 1 + raw % max_total;
            let mut state = seed;
            let mut left = total_units;
            let mut parts = Vec::new();
            while left > 0 && parts.len() < 15 {
                let p = 1 + mix(&mut state) % left;
                parts.push(p);
                left -= p;
            }
            if left > 0 {
                parts.push(left);
            }
            drain(total_units, &parts, scale)?;
        }
    }
}
