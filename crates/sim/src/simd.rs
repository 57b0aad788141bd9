//! Lane-width loops shared by the perceptron's weight gathers and the
//! simulator's packed tag scans.
//!
//! Two primitive shapes cover every unrolled hot path in the workspace:
//!
//! * **Gather-and-sum** ([`sum_gather_i32`], [`sum_batch_transposed`]) —
//!   read `i32` weights at `u32` indices from one flat slice and add them
//!   up. This is exactly perceptron inference over the flat arena; the
//!   batched form scores many candidates against a feature-major
//!   (transposed) index buffer so one pass over a feature's weight table
//!   serves the whole batch.
//! * **Equality scan** ([`find_u64`]) — first position of a `u64` needle in
//!   a packed slice. This is the SoA cache's tag probe, its invalid-way
//!   victim scan, and the duplicate-tag invariant check.
//!
//! All three are portable, manually-unrolled scalar code (8 accumulator
//! lanes for the gathers, 4-way for the tag scan) with no `unsafe`. They
//! match a plain scalar loop bit-for-bit: the summed values are `i32`
//! weights whose totals stay far inside `i32` range (no overflow, and
//! integer addition is associative), and the scan reports the *first*
//! matching position. DESIGN.md §5c records why there is no intrinsic
//! path: on the measured host hardware gathers lost to this code.

/// Accumulator lanes in the unrolled gather loops.
pub const LANES: usize = 8;

/// Which lane implementation runs. There is one; the enum survives so
/// host records can keep printing [`active_level`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Manually-unrolled scalar code; compiles everywhere.
    Portable,
}

/// The lane implementation in use: always [`SimdLevel::Portable`].
pub fn active_level() -> SimdLevel {
    SimdLevel::Portable
}

/// Sums `weights[i]` over the indices in `idx` — perceptron inference over
/// the flat arena: eight independent accumulator lanes, manually unrolled,
/// with a scalar tail.
#[inline]
pub fn sum_gather_i32(weights: &[i32], idx: &[u32]) -> i32 {
    let mut chunks = idx.chunks_exact(LANES);
    let mut acc = [0i32; LANES];
    for c in chunks.by_ref() {
        acc[0] += weights[c[0] as usize];
        acc[1] += weights[c[1] as usize];
        acc[2] += weights[c[2] as usize];
        acc[3] += weights[c[3] as usize];
        acc[4] += weights[c[4] as usize];
        acc[5] += weights[c[5] as usize];
        acc[6] += weights[c[6] as usize];
        acc[7] += weights[c[7] as usize];
    }
    let mut sum = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for &i in chunks.remainder() {
        sum += weights[i as usize];
    }
    sum
}

/// Batched gather-and-sum over a feature-major (transposed) index buffer:
/// candidate `c` of `n` sums `weights[idx[f * stride + c]]` over
/// `f < features` into `out[c]`. The transposition means each feature's
/// weight table is swept once per batch — across the batch the gathers for
/// one feature land in the same few cache lines. Blocks of eight
/// candidates run with eight independent accumulators, then a scalar tail
/// per candidate.
///
/// # Panics
///
/// Panics if `n > stride`, the index buffer is too short, `out` is shorter
/// than `n`, or any used index is out of bounds.
#[inline]
pub fn sum_batch_transposed(
    weights: &[i32],
    idx: &[u32],
    features: usize,
    stride: usize,
    n: usize,
    out: &mut [i32],
) {
    assert!(n <= stride, "batch of {n} exceeds transposed stride {stride}");
    assert!(features * stride <= idx.len() || features == 0, "transposed index buffer too short");
    assert!(out.len() >= n, "output slice shorter than batch");
    let mut c0 = 0usize;
    while c0 + LANES <= n {
        let mut acc = [0i32; LANES];
        for f in 0..features {
            let row = &idx[f * stride + c0..f * stride + c0 + LANES];
            for (a, &i) in acc.iter_mut().zip(row) {
                *a += weights[i as usize];
            }
        }
        out[c0..c0 + LANES].copy_from_slice(&acc);
        c0 += LANES;
    }
    for c in c0..n {
        let mut sum = 0i32;
        for f in 0..features {
            sum += weights[idx[f * stride + c] as usize];
        }
        out[c] = sum;
    }
}

/// First position of `needle` in `haystack` — the packed tag scan behind
/// the SoA cache's probes, victim selection, and duplicate-tag invariant.
/// Four-way unrolled with an early exit per block.
#[inline]
pub fn find_u64(haystack: &[u64], needle: u64) -> Option<usize> {
    let mut chunks = haystack.chunks_exact(4);
    let mut base = 0usize;
    for c in chunks.by_ref() {
        if c[0] == needle {
            return Some(base);
        }
        if c[1] == needle {
            return Some(base + 1);
        }
        if c[2] == needle {
            return Some(base + 2);
        }
        if c[3] == needle {
            return Some(base + 3);
        }
        base += 4;
    }
    for (i, &t) in chunks.remainder().iter().enumerate() {
        if t == needle {
            return Some(base + i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Plain scalar reference the unrolled loops must match bit-for-bit.
    fn scalar_sum(weights: &[i32], idx: &[u32]) -> i32 {
        idx.iter().map(|&i| weights[i as usize]).sum()
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let w = [5i32, -3, 7];
        assert_eq!(sum_gather_i32(&w, &[]), 0);
        assert_eq!(sum_gather_i32(&w, &[2]), 7);
        assert_eq!(find_u64(&[], 9), None);
        assert_eq!(find_u64(&[9], 9), Some(0));
        let mut out = [0i32; 4];
        sum_batch_transposed(&w, &[], 0, 4, 0, &mut out);
        assert_eq!(active_level(), SimdLevel::Portable);
    }

    #[test]
    fn remainder_lane_widths_match_scalar() {
        // Lengths straddling the 8-lane chunking: 0..=19 covers empty,
        // sub-lane, exact, and >lane-width remainders.
        let weights: Vec<i32> = (0..97).map(|i| (i * 7 % 31) - 16).collect();
        for len in 0..20usize {
            let idx: Vec<u32> = (0..len).map(|i| ((i * 13 + 5) % weights.len()) as u32).collect();
            assert_eq!(sum_gather_i32(&weights, &idx), scalar_sum(&weights, &idx), "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_bounds_checked() {
        sum_gather_i32(&[1, 2, 3], &[0, 7]);
    }

    proptest! {
        #[test]
        fn sum_gather_matches_scalar(
            weights in proptest::collection::vec(-16i32..16, 1..200),
            raw_idx in proptest::collection::vec(0usize..10_000, 0..40),
        ) {
            let idx: Vec<u32> = raw_idx.iter().map(|&i| (i % weights.len()) as u32).collect();
            prop_assert_eq!(sum_gather_i32(&weights, &idx), scalar_sum(&weights, &idx));
        }

        #[test]
        fn batch_matches_per_candidate(
            weights in proptest::collection::vec(-16i32..16, 1..200),
            features in 1usize..12,
            n in 0usize..24,
            seed in 0u64..1_000_000,
        ) {
            let stride = 24usize;
            let mut idx = vec![0u32; features * stride];
            let mut s = seed;
            for slot in idx.iter_mut() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *slot = ((s >> 33) % weights.len() as u64) as u32;
            }
            // Per-candidate scalar reference over the same transposed buffer.
            let want: Vec<i32> = (0..n)
                .map(|c| (0..features).map(|f| weights[idx[f * stride + c] as usize]).sum())
                .collect();
            let mut got = vec![0i32; n];
            sum_batch_transposed(&weights, &idx, features, stride, n, &mut got);
            prop_assert_eq!(&got, &want);
        }

        #[test]
        fn find_matches_position(
            haystack in proptest::collection::vec(0u64..32, 0..40),
            needle in 0u64..32,
        ) {
            let want = haystack.iter().position(|&t| t == needle);
            prop_assert_eq!(find_u64(&haystack, needle), want);
        }
    }

    #[test]
    fn find_reports_first_of_duplicates() {
        let h = [7u64, 3, 7, 7, 1, 7, 7, 7, 7];
        assert_eq!(find_u64(&h, 7), Some(0));
        assert_eq!(find_u64(&h[1..], 7), Some(1));
    }
}
