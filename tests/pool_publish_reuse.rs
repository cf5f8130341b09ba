//! Executor reuse across whole publishes: one `LaneExecutor` reused for
//! a sequence of publishes of different pipeline shapes must produce
//! bit-identical releases to a fresh executor per publish. The reused
//! executor's ping-pong buffers still hold the previous publish's values
//! when the next one starts, so this pins that every cell is rewritten.

mod common;

use common::{data_matrix, stress_iters};
use privelet_repro::core::mechanism::{publish_coefficients_with, PriveletConfig};
use privelet_repro::data::schema::{Attribute, Schema};
use privelet_repro::matrix::LaneExecutor;
use std::collections::BTreeSet;

#[test]
fn reused_executor_publishes_bit_identically_to_fresh_executors() {
    let schema = Schema::new(vec![
        Attribute::ordinal("a", 1 << 8),
        Attribute::ordinal("b", 1 << 4),
    ])
    .unwrap();
    let mut sa = BTreeSet::new();
    sa.insert(1usize);

    let publishes = stress_iters(3).max(3);
    let mut reused = LaneExecutor::new();
    for round in 0..publishes {
        let fm = data_matrix(&schema, 1000 + round as u64);
        // Alternate Privelet and Privelet⁺ configs so the reused executor
        // serves different pipeline shapes back to back.
        let cfg = if round % 2 == 0 {
            PriveletConfig::pure(1.0, round as u64)
        } else {
            PriveletConfig::plus(0.5, sa.clone(), round as u64)
        };

        let via_reused = publish_coefficients_with(&mut reused, &fm, &cfg).unwrap();
        let via_fresh = publish_coefficients_with(&mut LaneExecutor::new(), &fm, &cfg).unwrap();

        let a = via_reused.coefficients.as_slice();
        let b = via_fresh.coefficients.as_slice();
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "round {round}, coeff {i}: reused vs fresh"
            );
        }
        assert_eq!(via_reused.meta, via_fresh.meta, "round {round}");
    }
}
