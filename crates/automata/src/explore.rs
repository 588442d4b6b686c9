//! Bounded state-space exploration.
//!
//! A small model checker for I/O automata: breadth-first exploration of the
//! reachable states of an automaton under (a) its own locally controlled
//! actions and (b) an arbitrary interleaving of a caller-supplied set of
//! input actions. At every reachable state it verifies the structural
//! obligations of the model — determinism (at most one local action
//! enabled), enabled/step consistency — and a caller-supplied invariant.
//!
//! Exploration treats *time-free* nondeterminism: any enabled local action
//! or any supplied input may occur next. That over-approximates the timed
//! behaviors (a state reachable in no `good(A)` execution may be visited),
//! so invariant violations found here are not always real — but invariants
//! *verified* here hold in every timed execution a fortiori. The protocol
//! test-suites use it with inputs restricted to what the channel could
//! actually deliver.
//!
//! States are compared by their `Debug` rendering (the automaton's state
//! type need not be `Eq + Hash`); renderings must therefore be injective,
//! which `derive(Debug)` on field-complete structs guarantees.

use crate::action::ActionClass;
use crate::automaton::{check_deterministic, check_enabled_consistent, Automaton};
use core::fmt;
use std::collections::{HashSet, VecDeque};

/// The result of an exploration.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// Number of distinct states visited.
    pub states: usize,
    /// Number of transitions taken.
    pub transitions: usize,
    /// Whether the frontier was exhausted (`false` = state budget hit).
    pub complete: bool,
}

/// A defect found during exploration.
#[derive(Clone, Debug)]
pub enum ExploreError {
    /// More than one local action enabled in a reachable state.
    Nondeterministic {
        /// Debug rendering of the state.
        state: String,
        /// The simultaneously enabled actions.
        enabled: Vec<String>,
    },
    /// `enabled`/`step` inconsistency in a reachable state.
    Inconsistent {
        /// Debug rendering of the state.
        state: String,
        /// Description from the consistency checker.
        detail: String,
    },
    /// An input action was rejected (input-enabledness violation).
    InputRejected {
        /// Debug rendering of the state.
        state: String,
        /// Debug rendering of the input.
        input: String,
        /// The step error.
        detail: String,
    },
    /// The caller's invariant failed.
    InvariantViolated {
        /// Debug rendering of the state.
        state: String,
        /// The invariant's message.
        detail: String,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Nondeterministic { state, enabled } => {
                write!(f, "nondeterministic at {state}: {enabled:?}")
            }
            ExploreError::Inconsistent { state, detail } => {
                write!(f, "enabled/step inconsistent at {state}: {detail}")
            }
            ExploreError::InputRejected {
                state,
                input,
                detail,
            } => write!(f, "input {input} rejected at {state}: {detail}"),
            ExploreError::InvariantViolated { state, detail } => {
                write!(f, "invariant violated at {state}: {detail}")
            }
        }
    }
}

impl std::error::Error for ExploreError {}

/// Explores up to `max_states` reachable states of `automaton` under its
/// local actions plus arbitrary interleavings of `inputs`, checking
/// determinism, consistency, input-enabledness, and `invariant` at every
/// state.
///
/// `invariant` returns `Ok(())` or a message describing the violation.
///
/// # Errors
///
/// The first [`ExploreError`] found.
pub fn explore<M, F>(
    automaton: &M,
    inputs: &[M::Action],
    max_states: usize,
    mut invariant: F,
) -> Result<Exploration, ExploreError>
where
    M: Automaton,
    F: FnMut(&M::State) -> Result<(), String>,
{
    let mut seen: HashSet<String> = HashSet::new();
    let mut queue: VecDeque<M::State> = VecDeque::new();
    let initial = automaton.initial_state();
    seen.insert(format!("{initial:?}"));
    queue.push_back(initial);
    let mut transitions = 0usize;
    let mut complete = true;

    while let Some(state) = queue.pop_front() {
        let rendered = format!("{state:?}");
        check_deterministic(automaton, &state).map_err(|e| ExploreError::Nondeterministic {
            state: rendered.clone(),
            enabled: e.enabled,
        })?;
        check_enabled_consistent(automaton, &state).map_err(|detail| {
            ExploreError::Inconsistent {
                state: rendered.clone(),
                detail,
            }
        })?;
        invariant(&state).map_err(|detail| ExploreError::InvariantViolated {
            state: rendered.clone(),
            detail,
        })?;

        let mut successors: Vec<M::State> = Vec::new();
        for action in automaton.enabled(&state) {
            #[expect(clippy::expect_used, reason = "check_enabled_consistent passed above")]
            let next = automaton
                .step(&state, &action)
                .expect("consistency was checked");
            successors.push(next);
        }
        for input in inputs {
            debug_assert_eq!(
                automaton.classify(input),
                Some(ActionClass::Input),
                "explore inputs must be input actions"
            );
            let next = automaton
                .step(&state, input)
                .map_err(|e| ExploreError::InputRejected {
                    state: rendered.clone(),
                    input: format!("{input:?}"),
                    detail: e.to_string(),
                })?;
            successors.push(next);
        }

        for next in successors {
            transitions += 1;
            let key = format!("{next:?}");
            if seen.contains(&key) {
                continue;
            }
            if seen.len() >= max_states {
                complete = false;
                continue;
            }
            seen.insert(key);
            queue.push_back(next);
        }
    }

    Ok(Exploration {
        states: seen.len(),
        transitions,
        complete,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::StepError;

    #[derive(Clone, Debug, PartialEq, Eq)]
    enum Act {
        Inc,
        Reset, // input
    }

    /// Counts to `limit`, resettable by input.
    struct Saturating {
        limit: u32,
    }

    impl Automaton for Saturating {
        type Action = Act;
        type State = u32;

        fn initial_state(&self) -> u32 {
            0
        }

        fn classify(&self, action: &Act) -> Option<ActionClass> {
            Some(match action {
                Act::Inc => ActionClass::Internal,
                Act::Reset => ActionClass::Input,
            })
        }

        fn enabled_into(&self, state: &u32, out: &mut Vec<Act>) {
            if *state < self.limit {
                out.push(Act::Inc);
            }
        }

        fn apply(&self, state: &mut u32, action: &Act) -> Result<(), StepError> {
            match action {
                Act::Inc if *state < self.limit => *state += 1,
                Act::Inc => {
                    return Err(StepError::PreconditionFalse {
                        action: "Inc".into(),
                        reason: "saturated".into(),
                    })
                }
                Act::Reset => *state = 0,
            }
            Ok(())
        }
    }

    #[test]
    fn explores_all_states() {
        let m = Saturating { limit: 5 };
        let r = explore(&m, &[Act::Reset], 100, |_| Ok(())).unwrap();
        assert_eq!(r.states, 6); // 0..=5
        assert!(r.complete);
        assert!(r.transitions >= 11); // 5 incs + 6 resets
    }

    #[test]
    fn verified_invariant_passes() {
        let m = Saturating { limit: 4 };
        let r = explore(&m, &[Act::Reset], 100, |s| {
            if *s <= 4 {
                Ok(())
            } else {
                Err(format!("counter {s} exceeds limit"))
            }
        })
        .unwrap();
        assert!(r.complete);
    }

    #[test]
    fn violated_invariant_reported_with_state() {
        let m = Saturating { limit: 4 };
        let err = explore(&m, &[], 100, |s| {
            if *s < 3 {
                Ok(())
            } else {
                Err("too big".into())
            }
        })
        .unwrap_err();
        match err {
            ExploreError::InvariantViolated { state, detail } => {
                assert_eq!(state, "3");
                assert_eq!(detail, "too big");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn budget_reported_as_incomplete() {
        let m = Saturating { limit: 1000 };
        let r = explore(&m, &[], 10, |_| Ok(())).unwrap();
        assert_eq!(r.states, 10);
        assert!(!r.complete);
    }

    #[test]
    fn nondeterminism_caught() {
        struct Bad;
        impl Automaton for Bad {
            type Action = Act;
            type State = u32;
            fn initial_state(&self) -> u32 {
                0
            }
            fn classify(&self, _a: &Act) -> Option<ActionClass> {
                Some(ActionClass::Internal)
            }
            fn enabled_into(&self, _s: &u32, out: &mut Vec<Act>) {
                out.extend([Act::Inc, Act::Reset]);
            }
            fn apply(&self, _s: &mut u32, _a: &Act) -> Result<(), StepError> {
                Ok(())
            }
        }
        let err = explore(&Bad, &[], 10, |_| Ok(())).unwrap_err();
        assert!(matches!(err, ExploreError::Nondeterministic { .. }));
        assert!(err.to_string().contains("nondeterministic"));
    }
}
