//! Differential property test for scoring: the scalar reference vs
//! `sum_at` must be bit-identical.

use ppf::{IndexList, Perceptron};
use proptest::prelude::*;

/// Scalar reference inference: one weight read per index, summed.
fn scalar_sum(p: &Perceptron, globals: &IndexList) -> i32 {
    globals.as_slice().iter().map(|&i| p.weight_at(i)).sum()
}

/// Builds a perceptron with the given per-table size exponents and a
/// deterministic pseudo-random training history.
fn trained_perceptron(size_bits: &[u32], train_steps: &[(usize, bool)]) -> Perceptron {
    let sizes: Vec<usize> = size_bits.iter().map(|&b| 1usize << b).collect();
    let mut p = Perceptron::new(&sizes);
    for &(seed, up) in train_steps {
        let locals: Vec<usize> = (0..sizes.len()).map(|f| seed.wrapping_mul(f + 3)).collect();
        p.train(&locals, up);
    }
    p
}

proptest! {
    /// `sum_at` and the scalar one-liner agree on every index list —
    /// including short lists and the full nine features.
    #[test]
    fn sum_at_matches_scalar(
        size_bits in proptest::collection::vec(6u32..13, 2..10),
        train_steps in proptest::collection::vec((0usize..1 << 16, any::<bool>()), 0..200),
        locals in proptest::collection::vec(0usize..1 << 16, 9..10),
    ) {
        let p = trained_perceptron(&size_bits, &train_steps);
        let g = p.globalize(
            &locals[..size_bits.len()].iter().map(|&i| i as u16).collect::<IndexList>(),
        );
        prop_assert_eq!(p.sum_at(&g), scalar_sum(&p, &g));
    }
}
