//! Lexicographic enumeration of `multi_k(n)`.
//!
//! [`MultisetIter`] yields every multiset of size `n` over `{0, …, k-1}` in
//! the same lexicographic order [`crate::MultisetCodec`] ranks them — so
//! `iter.nth(r)` equals `codec.unrank(r)`. Used by the exhaustive checkers
//! (Lemma 5.1, codec bijectivity) and handy for downstream brute-force
//! verification.

use crate::multiset::Multiset;

/// Iterator over all multisets of size `n` over a `k`-symbol universe, in
/// lexicographic order of their sorted linearizations.
///
/// # Example
///
/// ```
/// use rstp_combinatorics::{mu, MultisetIter};
///
/// let all: Vec<_> = MultisetIter::new(3, 2).collect();
/// assert_eq!(all.len() as u128, mu(3, 2).unwrap());
/// assert_eq!(all[0].to_sorted_vec(), vec![0, 0]);
/// assert_eq!(all[5].to_sorted_vec(), vec![2, 2]);
/// ```
#[derive(Clone, Debug)]
pub struct MultisetIter {
    k: u64,
    /// The current sorted linearization; `None` once exhausted.
    current: Option<Vec<u64>>,
}

impl MultisetIter {
    /// Creates the iterator. Panics if `k == 0` and `n > 0` (no multisets
    /// exist over an empty universe).
    ///
    /// # Panics
    ///
    /// If `k == 0` and `n > 0`.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "n elements are allocated, so n fits usize"
    )]
    pub fn new(k: u64, n: u64) -> Self {
        assert!(
            k > 0 || n == 0,
            "no multisets of positive size over an empty universe"
        );
        MultisetIter {
            k: k.max(1),
            current: Some(vec![0; usize::try_from(n).expect("n fits usize")]),
        }
    }

    /// Advances `seq` to the lexicographically next nondecreasing sequence,
    /// or returns `false` when exhausted.
    fn advance(k: u64, seq: &mut [u64]) -> bool {
        // Find the rightmost position that can be incremented.
        let n = seq.len();
        for i in (0..n).rev() {
            if seq[i] + 1 < k {
                let v = seq[i] + 1;
                for s in seq.iter_mut().skip(i) {
                    *s = v;
                }
                return true;
            }
        }
        false
    }
}

impl Iterator for MultisetIter {
    type Item = Multiset;

    fn next(&mut self) -> Option<Multiset> {
        let seq = self.current.as_mut()?;
        let item = Multiset::from_symbols(self.k, seq);
        if !Self::advance(self.k, seq) {
            self.current = None;
        }
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::mu;
    use crate::rank::MultisetCodec;

    #[test]
    fn count_matches_mu() {
        for k in 1..=5u64 {
            for n in 0..=6u64 {
                let count = MultisetIter::new(k, n).count() as u128;
                assert_eq!(count, mu(k, n).unwrap(), "k={k} n={n}");
            }
        }
    }

    #[test]
    fn order_matches_codec_rank() {
        for k in 1..=4u64 {
            for n in 0..=5u64 {
                let codec = MultisetCodec::new(k, n).unwrap();
                for (i, m) in MultisetIter::new(k, n).enumerate() {
                    assert_eq!(codec.rank(&m).unwrap(), i as u128, "k={k} n={n} i={i}");
                    assert_eq!(codec.unrank(i as u128).unwrap(), m);
                }
            }
        }
    }

    #[test]
    fn size_zero_yields_exactly_the_empty_multiset() {
        let all: Vec<_> = MultisetIter::new(4, 0).collect();
        assert_eq!(all.len(), 1);
        assert!(all[0].is_empty());
    }

    #[test]
    fn empty_universe_size_zero_is_fine() {
        assert_eq!(MultisetIter::new(0, 0).count(), 1);
    }

    #[test]
    #[should_panic(expected = "empty universe")]
    fn empty_universe_positive_size_panics() {
        let _ = MultisetIter::new(0, 3);
    }

    #[test]
    fn sequences_are_nondecreasing_and_strictly_increasing_lexicographically() {
        let seqs: Vec<Vec<u64>> = MultisetIter::new(3, 4).map(|m| m.to_sorted_vec()).collect();
        for s in &seqs {
            assert!(s.windows(2).all(|w| w[0] <= w[1]));
        }
        for w in seqs.windows(2) {
            assert!(w[0] < w[1], "not strictly increasing: {w:?}");
        }
    }
}
