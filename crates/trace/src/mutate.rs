//! Systematic corruptions of valid inputs, for decoder robustness tests.
//!
//! Every decoder of untrusted bytes in the workspace (trace files, socket
//! frames, sealed checkpoint lines, JSONL exports) is run over the same
//! three families: each truncation, each single-bit flip, and each splice
//! of two valid inputs. Callers keep their own oracle per mutation; this
//! module only enumerates the inputs.

/// Every proper prefix of `input`, shortest first: `input[..cut]` for each
/// `cut` in `0..input.len()`.
pub fn prefixes(input: &[u8]) -> impl Iterator<Item = &[u8]> {
    (0..input.len()).map(move |cut| &input[..cut])
}

/// Every single-bit flip of `input`: the `n`-th item is `input` with bit
/// `n % 8` of byte `n / 8` inverted.
pub fn bit_flips(input: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    (0..input.len() * 8).map(move |n| {
        let mut out = input.to_vec();
        out[n / 8] ^= 1 << (n % 8);
        out
    })
}

/// Every single-point splice of two inputs, both ways round: for each cut
/// `i` up to the shorter length, `a[..i]` followed by `b[i..]`, then
/// `b[..i]` followed by `a[i..]`.
pub fn splices<'a>(a: &'a [u8], b: &'a [u8]) -> impl Iterator<Item = Vec<u8>> + 'a {
    (0..=a.len().min(b.len()))
        .flat_map(move |i| [[&a[..i], &b[i..]].concat(), [&b[..i], &a[i..]].concat()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_family_has_the_expected_members() {
        let a = b"ab";
        assert_eq!(prefixes(a).collect::<Vec<_>>(), [&b""[..], b"a"]);
        let flips: Vec<Vec<u8>> = bit_flips(a).collect();
        assert_eq!(flips.len(), 16);
        assert_eq!(flips[0], b"`b");
        assert_eq!(flips[8], b"ac");
        let spliced: Vec<Vec<u8>> = splices(a, b"xyz").collect();
        assert_eq!(spliced.len(), 6);
        assert_eq!(
            spliced[..4],
            [b"xyz".to_vec(), b"ab".to_vec(), b"ayz".to_vec(), b"xb".to_vec()]
        );
        assert_eq!(spliced[4..], [b"abz".to_vec(), b"xy".to_vec()]);
    }
}
