//! The [`Multiset`] type: a multiset over the universe `{0, …, k-1}`.
//!
//! Paper §3: a multiset over a universe `U` is a function `Q: U → ℕ`;
//! `mult(u, Q)` is the number of occurrences of `u`. RSTP's packet alphabets
//! are always `{0, …, k-1}`, so the universe is a prefix of the naturals and
//! the multiset is stored as a dense vector of counts.

use core::fmt;

/// A multiset over the universe `{0, …, k-1}` (`k` = universe size).
///
/// The representation is a dense count vector, so equality, union and
/// sub-multiset tests are `O(k)`.
///
/// # Example
///
/// ```
/// use rstp_combinatorics::Multiset;
///
/// let mut q = Multiset::empty(3);
/// q.insert(1);
/// q.insert(1);
/// q.insert(2);
/// assert_eq!(q.mult(1), 2);
/// assert_eq!(q.len(), 3);
/// assert_eq!(q.to_sorted_vec(), vec![1, 1, 2]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Multiset {
    counts: Vec<u64>,
}

impl Multiset {
    /// The empty multiset `∅` over a `k`-symbol universe.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`: the paper always has `k ≥ 2`, and an empty
    /// universe admits no multisets but the empty one, which would make
    /// every downstream computation degenerate.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "k counts are allocated, so k fits usize"
    )]
    pub fn empty(k: u64) -> Self {
        assert!(k >= 1, "Multiset universe must have at least one symbol");
        Multiset {
            counts: vec![0; usize::try_from(k).expect("universe size fits usize")],
        }
    }

    /// Builds a multiset from a sequence of symbols (the inverse direction
    /// of `toseq`).
    ///
    /// # Panics
    ///
    /// Panics if any symbol is `>= k` — callers validate packets before
    /// accumulating them.
    #[must_use]
    pub fn from_symbols(k: u64, symbols: &[u64]) -> Self {
        let mut m = Multiset::empty(k);
        for &s in symbols {
            m.insert(s);
        }
        m
    }

    /// The universe size `k`.
    #[must_use]
    pub fn universe(&self) -> u64 {
        self.counts.len() as u64
    }

    /// `mult(u, Q)` — the multiplicity of `symbol`.
    ///
    /// Symbols outside the universe have multiplicity 0.
    #[must_use]
    pub fn mult(&self, symbol: u64) -> u64 {
        usize::try_from(symbol)
            .ok()
            .and_then(|i| self.counts.get(i))
            .copied()
            .unwrap_or(0)
    }

    /// Total number of elements (with multiplicity), `|Q|`.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether this is the empty multiset `∅`.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// `Q ∪ {u}` in place (paper §3: bump the multiplicity of `u` by one).
    ///
    /// # Panics
    ///
    /// Panics if `symbol >= k`.
    #[expect(
        clippy::expect_used,
        reason = "documented # Panics contract: symbol < k"
    )]
    pub fn insert(&mut self, symbol: u64) {
        let i = usize::try_from(symbol).expect("symbol fits usize");
        assert!(
            i < self.counts.len(),
            "symbol {symbol} outside universe of size {}",
            self.counts.len()
        );
        self.counts[i] += 1;
    }

    /// Removes one occurrence of `symbol`; returns whether one was present.
    pub fn remove(&mut self, symbol: u64) -> bool {
        match usize::try_from(symbol)
            .ok()
            .and_then(|i| self.counts.get_mut(i))
        {
            Some(c) if *c > 0 => {
                *c -= 1;
                true
            }
            _ => false,
        }
    }

    /// Resets to the empty multiset (the receiver's `A := ∅` at the end of a
    /// round).
    pub fn clear(&mut self) {
        self.counts.fill(0);
    }

    /// Sub-multiset test `self ⊆ other`: `mult(u, self) ≤ mult(u, other)`
    /// for every `u` (paper §3). Universes must agree.
    #[must_use]
    pub fn is_submultiset_of(&self, other: &Multiset) -> bool {
        self.universe() == other.universe()
            && self.counts.iter().zip(&other.counts).all(|(a, b)| a <= b)
    }

    /// Multiset union-with-sum: multiplicities add.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn sum(&self, other: &Multiset) -> Multiset {
        assert_eq!(
            self.universe(),
            other.universe(),
            "multiset sum over different universes"
        );
        Multiset {
            counts: self
                .counts
                .iter()
                .zip(&other.counts)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// The multiplicity vector, indexed by symbol.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Iterates over `(symbol, multiplicity)` pairs with positive
    /// multiplicity.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(s, &c)| (s as u64, c))
    }

    /// The canonical linearization: symbols in nondecreasing order, each
    /// repeated by its multiplicity. This is our `toseq_k(n)` (paper §3 asks
    /// only that the linearization contain `mult(j, P)` occurrences of each
    /// `j`; sorted order is the canonical choice).
    #[must_use]
    pub fn to_sorted_vec(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(usize::try_from(self.len()).unwrap_or(0));
        for (symbol, count) in self.iter() {
            for _ in 0..count {
                out.push(symbol);
            }
        }
        out
    }
}

impl fmt::Debug for Multiset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (symbol, count) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            if count == 1 {
                write!(f, "{symbol}")?;
            } else {
                write!(f, "{symbol}×{count}")?;
            }
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Multiset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_zero_of_everything() {
        let m = Multiset::empty(4);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.universe(), 4);
        for s in 0..6 {
            assert_eq!(m.mult(s), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one symbol")]
    fn zero_universe_rejected() {
        let _ = Multiset::empty(0);
    }

    #[test]
    fn insert_and_mult() {
        let mut m = Multiset::empty(3);
        m.insert(0);
        m.insert(2);
        m.insert(2);
        assert_eq!(m.mult(0), 1);
        assert_eq!(m.mult(1), 0);
        assert_eq!(m.mult(2), 2);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_universe_panics() {
        Multiset::empty(2).insert(2);
    }

    #[test]
    fn remove_behaviour() {
        let mut m = Multiset::from_symbols(3, &[1, 1]);
        assert!(m.remove(1));
        assert!(m.remove(1));
        assert!(!m.remove(1));
        assert!(!m.remove(0));
        assert!(!m.remove(99)); // outside universe: absent, not a panic
        assert!(m.is_empty());
    }

    #[test]
    fn clear_resets() {
        let mut m = Multiset::from_symbols(2, &[0, 1, 1]);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.universe(), 2);
    }

    #[test]
    fn from_symbols_equals_inserts() {
        let a = Multiset::from_symbols(4, &[3, 0, 3]);
        let mut b = Multiset::empty(4);
        b.insert(3);
        b.insert(0);
        b.insert(3);
        assert_eq!(a, b);
    }

    #[test]
    fn submultiset() {
        let small = Multiset::from_symbols(3, &[1]);
        let big = Multiset::from_symbols(3, &[1, 1, 2]);
        assert!(small.is_submultiset_of(&big));
        assert!(!big.is_submultiset_of(&small));
        assert!(Multiset::empty(3).is_submultiset_of(&small));
        // Different universes are incomparable.
        assert!(!Multiset::empty(2).is_submultiset_of(&Multiset::empty(3)));
    }

    #[test]
    fn sum_adds_multiplicities() {
        let a = Multiset::from_symbols(3, &[0, 1]);
        let b = Multiset::from_symbols(3, &[1, 2]);
        let s = a.sum(&b);
        assert_eq!(s.to_sorted_vec(), vec![0, 1, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "different universes")]
    fn sum_universe_mismatch_panics() {
        let _ = Multiset::empty(2).sum(&Multiset::empty(3));
    }

    #[test]
    fn sorted_vec_is_nondecreasing_and_complete() {
        let m = Multiset::from_symbols(5, &[4, 0, 2, 2, 0]);
        let v = m.to_sorted_vec();
        assert_eq!(v, vec![0, 0, 2, 2, 4]);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(Multiset::from_symbols(5, &v), m);
    }

    #[test]
    fn iter_skips_zero_counts() {
        let m = Multiset::from_symbols(4, &[0, 3]);
        let pairs: Vec<_> = m.iter().collect();
        assert_eq!(pairs, vec![(0, 1), (3, 1)]);
    }

    #[test]
    fn debug_format() {
        let m = Multiset::from_symbols(4, &[1, 1, 3]);
        assert_eq!(format!("{m:?}"), "{1×2, 3}");
        assert_eq!(format!("{}", Multiset::empty(2)), "{}");
    }

    #[test]
    fn equality_is_by_counts_not_insertion_order() {
        let a = Multiset::from_symbols(3, &[0, 1, 2]);
        let b = Multiset::from_symbols(3, &[2, 1, 0]);
        assert_eq!(a, b);
    }
}
