//! Lexicographic ranking of multisets — the computational heart of
//! `toseq_k(n)` / `tomulti_k(n)` (paper §3).
//!
//! The paper posits a one-to-one map `tomulti_k(n)` from binary strings of
//! length `⌊log2 μ_k(n)⌋` into `multi_k(n)` and a linearization `toseq_k(n)`
//! out of it, leaving the construction to the reader ("straightforward but
//! tedious"). We realize both with an exact bijection
//!
//! ```text
//! multi_k(n)  <-- rank/unrank -->  { 0, 1, …, μ_k(n) - 1 } ⊂ u128
//! ```
//!
//! A multiset corresponds to its sorted linearization — a nondecreasing
//! sequence `x_1 ≤ … ≤ x_n` over `{0, …, k-1}` — and ranks are assigned in
//! lexicographic order of that sequence. The count of nondecreasing
//! sequences of length `m` over the sub-alphabet `{s, …, k-1}` is
//! `μ_{k-s}(m)`, which gives the classic combinatorial number-system
//! algorithm.

use crate::counting::{mu, CountError};
use crate::multiset::Multiset;
use core::fmt;

/// Errors from [`MultisetCodec`] operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RankError {
    /// The multiset's size differs from the codec's `n`.
    WrongSize {
        /// Size the codec expects.
        expected: u64,
        /// Size of the offending multiset.
        actual: u64,
    },
    /// The multiset's universe differs from the codec's `k`.
    WrongUniverse {
        /// Universe the codec expects.
        expected: u64,
        /// Universe of the offending multiset.
        actual: u64,
    },
    /// The rank is `≥ μ_k(n)`.
    RankOutOfRange {
        /// The offending rank.
        rank: u128,
        /// The number of multisets, `μ_k(n)`.
        total: u128,
    },
    /// Counting overflowed `u128`.
    Count(CountError),
}

impl fmt::Display for RankError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankError::WrongSize { expected, actual } => {
                write!(
                    f,
                    "multiset has {actual} elements, codec expects {expected}"
                )
            }
            RankError::WrongUniverse { expected, actual } => {
                write!(f, "multiset universe {actual}, codec expects {expected}")
            }
            RankError::RankOutOfRange { rank, total } => {
                write!(f, "rank {rank} out of range (μ = {total})")
            }
            RankError::Count(e) => write!(f, "counting failed: {e}"),
        }
    }
}

impl std::error::Error for RankError {}

impl From<CountError> for RankError {
    fn from(e: CountError) -> Self {
        RankError::Count(e)
    }
}

/// An exact bijection between `multi_k(n)` and `[0, μ_k(n))`.
///
/// Construct once per `(k, n)` pair; `rank`/`unrank` are then `O(n·k)` with
/// table-free exact arithmetic (μ values are recomputed per step; for the
/// protocol block sizes involved this is negligible, and it keeps the type
/// trivially `Send + Sync`).
///
/// # Example
///
/// ```
/// use rstp_combinatorics::{Multiset, MultisetCodec};
///
/// let codec = MultisetCodec::new(3, 2).unwrap(); // multisets of size 2 over {0,1,2}
/// assert_eq!(codec.total(), 6);
/// // Lexicographic order of sorted linearizations:
/// // {0,0} {0,1} {0,2} {1,1} {1,2} {2,2}
/// assert_eq!(codec.unrank(0).unwrap().to_sorted_vec(), vec![0, 0]);
/// assert_eq!(codec.unrank(3).unwrap().to_sorted_vec(), vec![1, 1]);
/// assert_eq!(codec.unrank(5).unwrap().to_sorted_vec(), vec![2, 2]);
/// ```
#[derive(Clone, Debug)]
pub struct MultisetCodec {
    k: u64,
    n: u64,
    total: u128,
}

impl MultisetCodec {
    /// Creates the codec for multisets of size `n` over `{0, …, k-1}`.
    ///
    /// # Errors
    ///
    /// [`CountError::Domain`] if `k = 0`, or overflow if `μ_k(n)` exceeds
    /// `u128`.
    pub fn new(k: u64, n: u64) -> Result<Self, CountError> {
        let total = mu(k, n)?;
        Ok(MultisetCodec { k, n, total })
    }

    /// Universe size `k`.
    #[must_use]
    pub fn universe(&self) -> u64 {
        self.k
    }

    /// Multiset size `n`.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.n
    }

    /// `μ_k(n)` — the number of multisets this codec ranges over.
    #[must_use]
    pub fn total(&self) -> u128 {
        self.total
    }

    fn check(&self, m: &Multiset) -> Result<(), RankError> {
        if m.universe() != self.k {
            return Err(RankError::WrongUniverse {
                expected: self.k,
                actual: m.universe(),
            });
        }
        if m.len() != self.n {
            return Err(RankError::WrongSize {
                expected: self.n,
                actual: m.len(),
            });
        }
        Ok(())
    }

    /// The lexicographic rank of `m` among all size-`n` multisets, in
    /// `[0, μ_k(n))`.
    ///
    /// # Errors
    ///
    /// [`RankError::WrongSize`] / [`RankError::WrongUniverse`] if `m` does
    /// not belong to `multi_k(n)`.
    pub fn rank(&self, m: &Multiset) -> Result<u128, RankError> {
        self.check(m)?;
        // Walk the sorted linearization by its counts: only the first copy
        // of each symbol `x` skips symbols (`lo..x`); its later copies
        // repeat `lo = x` and add nothing.
        let mut rank: u128 = 0;
        let mut lo: u64 = 0;
        let mut placed: u64 = 0;
        for (x, count) in m.iter() {
            let remaining = self.n - 1 - placed;
            for s in lo..x {
                // Sequences that agree on the prefix, place `s` here, and
                // continue nondecreasingly over {s, …, k-1}.
                rank += mu(self.k - s, remaining)?;
            }
            lo = x;
            placed += count;
        }
        Ok(rank)
    }

    /// The multiset of rank `rank` (inverse of [`rank`](Self::rank)).
    ///
    /// # Errors
    ///
    /// [`RankError::RankOutOfRange`] if `rank ≥ μ_k(n)`.
    pub fn unrank(&self, rank: u128) -> Result<Multiset, RankError> {
        if rank >= self.total {
            return Err(RankError::RankOutOfRange {
                rank,
                total: self.total,
            });
        }
        let mut remaining_rank = rank;
        let mut m = Multiset::empty(self.k);
        let mut lo: u64 = 0;
        for i in 0..self.n {
            let remaining = self.n - 1 - i;
            let mut s = lo;
            loop {
                let block = mu(self.k - s, remaining)?;
                if remaining_rank < block {
                    break;
                }
                remaining_rank -= block;
                s += 1;
                debug_assert!(s < self.k, "unrank ran past the alphabet");
            }
            m.insert(s);
            lo = s;
        }
        debug_assert_eq!(remaining_rank, 0);
        Ok(m)
    }

    /// `toseq_k(n)`: the canonical linearization of `m` — its sorted symbol
    /// sequence (paper §3).
    ///
    /// # Errors
    ///
    /// Same domain checks as [`rank`](Self::rank).
    pub fn to_sequence(&self, m: &Multiset) -> Result<Vec<u64>, RankError> {
        self.check(m)?;
        Ok(m.to_sorted_vec())
    }

    /// Rebuilds the multiset from any linearization (order-insensitive, as
    /// the channel may deliver a burst in any order).
    ///
    /// # Errors
    ///
    /// [`RankError::WrongSize`] if the sequence length differs from `n`;
    /// [`RankError::WrongUniverse`] if a symbol is `≥ k`.
    pub fn from_sequence(&self, seq: &[u64]) -> Result<Multiset, RankError> {
        if seq.len() as u64 != self.n {
            return Err(RankError::WrongSize {
                expected: self.n,
                actual: seq.len() as u64,
            });
        }
        if let Some(&bad) = seq.iter().find(|&&s| s >= self.k) {
            return Err(RankError::WrongUniverse {
                expected: self.k,
                actual: bad + 1,
            });
        }
        Ok(Multiset::from_symbols(self.k, seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn all_multisets(k: u64, n: u64) -> Vec<Multiset> {
        // Enumerate nondecreasing sequences in lexicographic order.
        fn rec(k: u64, remaining: u64, lo: u64, prefix: &mut Vec<u64>, out: &mut Vec<Multiset>) {
            if remaining == 0 {
                out.push(Multiset::from_symbols(k, prefix));
                return;
            }
            for s in lo..k {
                prefix.push(s);
                rec(k, remaining - 1, s, prefix, out);
                prefix.pop();
            }
        }
        let mut out = Vec::new();
        rec(k, n, 0, &mut Vec::new(), &mut out);
        out
    }

    #[test]
    fn rank_is_lexicographic_and_bijective_small() {
        for k in 1..=4u64 {
            for n in 0..=5u64 {
                let codec = MultisetCodec::new(k, n).unwrap();
                let all = all_multisets(k, n);
                assert_eq!(all.len() as u128, codec.total(), "k={k} n={n}");
                for (expected_rank, m) in all.iter().enumerate() {
                    let r = codec.rank(m).unwrap();
                    assert_eq!(r, expected_rank as u128, "rank of {m:?} (k={k},n={n})");
                    let back = codec.unrank(r).unwrap();
                    assert_eq!(&back, m);
                }
            }
        }
    }

    #[test]
    fn unrank_rejects_out_of_range() {
        let codec = MultisetCodec::new(2, 3).unwrap();
        assert_eq!(codec.total(), 4);
        assert!(codec.unrank(3).is_ok());
        let err = codec.unrank(4).unwrap_err();
        assert!(matches!(err, RankError::RankOutOfRange { total: 4, .. }));
    }

    #[test]
    fn rank_rejects_wrong_shape() {
        let codec = MultisetCodec::new(3, 2).unwrap();
        let wrong_size = Multiset::from_symbols(3, &[0]);
        assert!(matches!(
            codec.rank(&wrong_size),
            Err(RankError::WrongSize {
                expected: 2,
                actual: 1
            })
        ));
        let wrong_universe = Multiset::from_symbols(4, &[0, 1]);
        assert!(matches!(
            codec.rank(&wrong_universe),
            Err(RankError::WrongUniverse {
                expected: 3,
                actual: 4
            })
        ));
    }

    #[test]
    fn sequences_roundtrip_and_tolerate_reorder() {
        let codec = MultisetCodec::new(4, 3).unwrap();
        let m = Multiset::from_symbols(4, &[2, 0, 2]);
        let seq = codec.to_sequence(&m).unwrap();
        assert_eq!(seq, vec![0, 2, 2]);
        // Any permutation reconstructs the same multiset.
        assert_eq!(codec.from_sequence(&[2, 2, 0]).unwrap(), m);
        assert_eq!(codec.from_sequence(&[2, 0, 2]).unwrap(), m);
    }

    #[test]
    fn from_sequence_validates() {
        let codec = MultisetCodec::new(2, 2).unwrap();
        assert!(matches!(
            codec.from_sequence(&[0]),
            Err(RankError::WrongSize { .. })
        ));
        assert!(matches!(
            codec.from_sequence(&[0, 5]),
            Err(RankError::WrongUniverse { .. })
        ));
    }

    #[test]
    fn extreme_ranks() {
        let codec = MultisetCodec::new(5, 4).unwrap();
        // Rank 0 is all-zeros; the last rank is all-(k-1).
        assert_eq!(codec.unrank(0).unwrap().to_sorted_vec(), vec![0, 0, 0, 0]);
        let last = codec.total() - 1;
        assert_eq!(
            codec.unrank(last).unwrap().to_sorted_vec(),
            vec![4, 4, 4, 4]
        );
    }

    #[test]
    fn error_display() {
        let codec = MultisetCodec::new(2, 2).unwrap();
        let e = codec.rank(&Multiset::from_symbols(2, &[0])).unwrap_err();
        assert!(e.to_string().contains("codec expects 2"));
    }

    proptest! {
        #[test]
        fn prop_roundtrip_rank_unrank(k in 1u64..8, n in 0u64..10, seed in any::<u64>()) {
            let codec = MultisetCodec::new(k, n).unwrap();
            let rank = u128::from(seed) % codec.total().max(1);
            let m = codec.unrank(rank).unwrap();
            prop_assert_eq!(m.len(), n);
            prop_assert_eq!(codec.rank(&m).unwrap(), rank);
        }

        #[test]
        fn prop_rank_respects_lex_order(k in 2u64..5, n in 1u64..6, a in any::<u64>(), b in any::<u64>()) {
            let codec = MultisetCodec::new(k, n).unwrap();
            let ra = u128::from(a) % codec.total();
            let rb = u128::from(b) % codec.total();
            let ma = codec.unrank(ra).unwrap().to_sorted_vec();
            let mb = codec.unrank(rb).unwrap().to_sorted_vec();
            // Lexicographic comparison of sorted sequences mirrors rank order.
            prop_assert_eq!(ra.cmp(&rb), ma.cmp(&mb));
        }

        #[test]
        fn prop_from_sequence_is_order_insensitive(
            k in 1u64..6,
            seq in proptest::collection::vec(0u64..6, 0..8),
            shuffle_seed in any::<u64>(),
        ) {
            let seq: Vec<u64> = seq.into_iter().map(|s| s % k).collect();
            let codec = MultisetCodec::new(k, seq.len() as u64).unwrap();
            let m1 = codec.from_sequence(&seq).unwrap();
            // Deterministic pseudo-shuffle.
            let mut shuffled = seq.clone();
            let mut state = shuffle_seed | 1;
            for i in (1..shuffled.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                shuffled.swap(i, j);
            }
            let m2 = codec.from_sequence(&shuffled).unwrap();
            prop_assert_eq!(m1, m2);
        }
    }
}
