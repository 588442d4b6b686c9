//! State corruption for self-stabilization testing.
//!
//! A self-stabilizing automaton converges to correct behavior from *any*
//! state, not just its start state (Dolev; Delaët et al.). To test that
//! claim mechanically, an adversary must be able to overwrite the
//! automaton's state mid-run with arbitrary values. This module gives
//! stabilizing automata a uniform, finite register view of their state so
//! a corruption pass can enumerate or sample the whole (bounded) state
//! space without knowing the concrete `State` type:
//!
//! * [`RegisterSpec`] names one register and its inclusive domain
//!   `0..=max`.
//! * [`Corruptible`] maps between `Automaton::State` and a register
//!   vector. `state_from_registers` must accept *every* in-domain vector
//!   — including unreachable combinations — because stabilization is
//!   exactly the promise that unreachable states still converge.
//!
//! The register encoding is also the contract for exhaustive small-state
//! tests: the product of `(max + 1)` over all registers is the number of
//! corrupted states to enumerate.

use crate::automaton::Automaton;

/// One named register of a [`Corruptible`] automaton with inclusive
/// domain `0..=max`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegisterSpec {
    /// Stable register name, used in diagnostics and corruption reports.
    pub name: &'static str,
    /// Largest legal value; the domain is `0..=max`.
    pub max: u64,
}

impl RegisterSpec {
    /// Builds a spec for a register with domain `0..=max`.
    #[must_use]
    pub const fn new(name: &'static str, max: u64) -> Self {
        Self { name, max }
    }

    /// Number of values in the register's domain.
    #[must_use]
    pub const fn domain_size(&self) -> u64 {
        self.max.saturating_add(1)
    }
}

/// An automaton whose state can be serialized to and rebuilt from a
/// bounded register vector, enabling state-corruption adversaries.
///
/// Implementations must uphold:
///
/// * `registers()` is constant for a given automaton instance;
/// * `state_to_registers` produces values within each register's domain
///   for every state the automaton can reach;
/// * `state_from_registers` accepts every in-domain vector and returns a
///   state the automaton can continue from (clamping or normalizing
///   internally if needed — it must not panic);
/// * round trip: `state_from_registers(state_to_registers(s))` is
///   behaviorally equivalent to `s` for reachable `s`.
pub trait Corruptible: Automaton {
    /// Register layout of this automaton's state.
    fn registers(&self) -> Vec<RegisterSpec>;

    /// Rebuilds a state from a register vector.
    ///
    /// `regs` has one entry per [`Self::registers`] spec; out-of-domain
    /// values are clamped to the register's domain rather than rejected,
    /// so any `u64` vector of the right length yields a usable state.
    fn state_from_registers(&self, regs: &[u64]) -> Self::State;

    /// Serializes a state into its register vector.
    fn state_to_registers(&self, state: &Self::State) -> Vec<u64>;

    /// Total number of distinct register vectors (the corrupted-state
    /// space an exhaustive test enumerates), saturating at `u64::MAX`.
    fn corrupted_state_count(&self) -> u64 {
        self.registers()
            .iter()
            .fold(1u64, |acc, r| acc.saturating_mul(r.domain_size()))
    }
}

/// Enumerates every register vector of `specs` in lexicographic order,
/// least-significant register first.
///
/// Intended for exhaustive small-state tests; the caller is responsible
/// for keeping the product of domain sizes small.
#[must_use]
pub fn enumerate_register_vectors(specs: &[RegisterSpec]) -> Vec<Vec<u64>> {
    let mut out = vec![vec![0u64; specs.len()]];
    for (i, spec) in specs.iter().enumerate() {
        let mut next = Vec::with_capacity(out.len() * spec.domain_size() as usize);
        for v in 0..=spec.max {
            for base in &out {
                let mut regs = base.clone();
                regs[i] = v;
                next.push(regs);
            }
        }
        out = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionClass;
    use crate::automaton::StepError;

    #[derive(Clone, Debug, PartialEq, Eq)]
    enum Act {
        Tick,
    }

    struct Counter {
        cap: u64,
    }

    impl Automaton for Counter {
        type Action = Act;
        type State = u64;

        fn initial_state(&self) -> u64 {
            0
        }
        fn classify(&self, _a: &Act) -> Option<ActionClass> {
            Some(ActionClass::Internal)
        }
        fn enabled_into(&self, s: &u64, out: &mut Vec<Act>) {
            if *s < self.cap {
                out.push(Act::Tick);
            }
        }
        fn apply(&self, s: &mut u64, _a: &Act) -> Result<(), StepError> {
            *s = (*s + 1).min(self.cap);
            Ok(())
        }
    }

    impl Corruptible for Counter {
        fn registers(&self) -> Vec<RegisterSpec> {
            vec![RegisterSpec::new("count", self.cap)]
        }
        fn state_from_registers(&self, regs: &[u64]) -> u64 {
            regs.first().copied().unwrap_or(0).min(self.cap)
        }
        fn state_to_registers(&self, state: &u64) -> Vec<u64> {
            vec![*state]
        }
    }

    #[test]
    fn round_trips_and_clamps() {
        let c = Counter { cap: 3 };
        assert_eq!(c.state_from_registers(&c.state_to_registers(&2)), 2);
        assert_eq!(c.state_from_registers(&[99]), 3);
        assert_eq!(c.state_from_registers(&[]), 0);
        assert_eq!(c.corrupted_state_count(), 4);
    }

    #[test]
    fn enumeration_covers_the_product_space() {
        let specs = [RegisterSpec::new("a", 1), RegisterSpec::new("b", 2)];
        let all = enumerate_register_vectors(&specs);
        assert_eq!(all.len(), 6);
        let mut seen: Vec<_> = all.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 6, "no duplicate vectors");
        assert!(all.iter().all(|r| r[0] <= 1 && r[1] <= 2));
    }

    #[test]
    fn domain_size_saturates() {
        assert_eq!(RegisterSpec::new("x", u64::MAX).domain_size(), u64::MAX);
    }
}
