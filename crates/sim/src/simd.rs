//! The packed tag scan behind the simulator's set-associative caches.
//!
//! [`find_u64`] reports the first position of a `u64` needle in a packed
//! slice: the SoA cache's tag probe, its invalid-way victim scan, and the
//! duplicate-tag invariant check. It is portable, four-way unrolled scalar
//! code with no `unsafe`, and matches a plain scalar loop (it reports the
//! *first* match). DESIGN.md §5c records why there is no intrinsic path:
//! on the measured host hardware AVX2 lost to this code. The perceptron's
//! weight gather, which once lived here too, is a plain loop in
//! `ppf::perceptron` over its byte arena.

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

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(find_u64(&[], 9), None);
        assert_eq!(find_u64(&[9], 9), Some(0));
        assert_eq!(find_u64(&[8], 9), None);
        assert_eq!(active_level(), SimdLevel::Portable);
    }

    #[test]
    fn remainder_lane_widths_match_scalar() {
        // Lengths straddling the 4-way chunking: 0..=11 covers empty,
        // sub-block, exact, and past-block remainders, with the needle at
        // every position and absent.
        for len in 0..12usize {
            let hay: Vec<u64> = (0..len as u64).map(|i| i * 3 + 1).collect();
            for needle in 0..(len as u64 * 3 + 3) {
                let want = hay.iter().position(|&t| t == needle);
                assert_eq!(find_u64(&hay, needle), want, "len {len}, needle {needle}");
            }
        }
    }

    proptest! {
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
