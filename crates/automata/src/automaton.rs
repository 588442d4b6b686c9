//! The [`Automaton`] trait — paper §2.1's I/O automaton as a Rust interface.
//!
//! An implementation supplies the start state, the on-demand action
//! classification (`in`/`out`/`int`), the set of locally controlled actions
//! enabled in a state (appended to a caller's buffer, so a stepping loop
//! allocates nothing for it), the transition function, and the fairness
//! partition.
//!
//! Protocol automata in this repository (the transmitter, receiver, and
//! channel of RSTP) implement this trait with *explicit
//! precondition/effect structure* mirroring the paper's figures; the
//! simulator drives them exclusively through this interface, so a protocol
//! cannot read the global clock or peek at its peer's state.

use crate::action::ActionClass;
use core::fmt;

/// Why a transition could not be taken.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepError {
    /// The action is not in `acts(A)` at all.
    UnknownAction {
        /// Debug rendering of the offending action.
        action: String,
    },
    /// A locally controlled action whose precondition is false in the given
    /// state. (Input actions can never fail this way — input-enabledness.)
    PreconditionFalse {
        /// Debug rendering of the offending action.
        action: String,
        /// Human-readable reason from the automaton.
        reason: String,
    },
}

impl StepError {
    /// [`StepError::UnknownAction`] for `action`.
    pub fn unknown(action: &impl fmt::Debug) -> Self {
        StepError::UnknownAction {
            action: format!("{action:?}"),
        }
    }
}

impl fmt::Display for StepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepError::UnknownAction { action } => {
                write!(f, "action {action} is not in acts(A)")
            }
            StepError::PreconditionFalse { action, reason } => {
                write!(f, "precondition of {action} is false: {reason}")
            }
        }
    }
}

impl std::error::Error for StepError {}

/// An I/O automaton (paper §2.1).
///
/// The transition relation is represented by [`apply`](Automaton::apply)
/// (a partial function: failure via [`StepError`]) together with
/// [`enabled_into`](Automaton::enabled_into) (which local actions may
/// fire, appended to a caller's buffer; [`enabled`](Automaton::enabled)
/// is the allocating convenience over it). All automata in this crate
/// family are *deterministic* in the paper's sense — at most one local
/// action enabled per state and at most one post-state per (state,
/// action) — which [`check_deterministic`] can verify along an
/// execution.
pub trait Automaton {
    /// The action alphabet this automaton participates in. Composable
    /// automata share one action type.
    type Action: Clone + fmt::Debug + PartialEq;
    /// The automaton's state.
    type State: Clone + fmt::Debug;

    /// The start state (`start(A)`; our automata have a unique start state).
    fn initial_state(&self) -> Self::State;

    /// Classifies `action`: `Some(class)` if `action ∈ acts(A)`, else `None`.
    ///
    /// The classification must be state-independent, and the three classes
    /// must be disjoint by construction (a total function cannot overlap).
    fn classify(&self, action: &Self::Action) -> Option<ActionClass>;

    /// Appends the locally controlled actions enabled in `state` to `out`.
    ///
    /// This is the body every automaton supplies. It only appends: it never
    /// clears, reorders or reads what `out` already held, so a caller that
    /// steps in a loop can reuse one buffer and allocate nothing once it
    /// has grown. For a deterministic automaton it appends 0 or 1 action.
    /// The appended actions must all be classified [`ActionClass::Output`]
    /// or [`ActionClass::Internal`].
    fn enabled_into(&self, state: &Self::State, out: &mut Vec<Self::Action>);

    /// The locally controlled actions enabled in `state`, in a fresh
    /// vector: [`enabled_into`](Automaton::enabled_into) on an empty one.
    fn enabled(&self, state: &Self::State) -> Vec<Self::Action> {
        let mut out = Vec::new();
        self.enabled_into(state, &mut out);
        out
    }

    /// Applies `action` to `state` in place, as the paper's effects update
    /// state variables (`A := A ∪ {p}`, `k := k + 1`).
    ///
    /// Must succeed for every input action in every state
    /// (**input-enabledness**, paper §2.1 item 3). For local actions it must
    /// succeed exactly when the action's precondition holds. An `Err` leaves
    /// `state` untouched, so a caller may keep using it.
    fn apply(&self, state: &mut Self::State, action: &Self::Action) -> Result<(), StepError>;

    /// The post-state of `action` from `state`, leaving `state` as it was:
    /// [`apply`](Automaton::apply) on a clone.
    fn step(&self, state: &Self::State, action: &Self::Action) -> Result<Self::State, StepError> {
        let mut next = state.clone();
        self.apply(&mut next, action)?;
        Ok(next)
    }

    /// The index of the fairness class of a local action
    /// (`fair(A)` is a partition of `loc(A)`; paper §2.1 item 4).
    ///
    /// The default puts all local actions in a single class, which is the
    /// fairness partition used by every protocol in the paper ("the fairness
    /// partition of `(A_t^α, A_r^α)` has all the local actions in one
    /// class").
    fn fairness_class(&self, action: &Self::Action) -> usize {
        let _ = action;
        0
    }
}

/// A violation of determinism found by [`check_deterministic`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeterminismError {
    /// Debug rendering of the state at which the violation occurred.
    pub state: String,
    /// Debug renderings of the simultaneously enabled local actions.
    pub enabled: Vec<String>,
}

impl fmt::Display for DeterminismError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} local actions enabled simultaneously in state {}: {:?}",
            self.enabled.len(),
            self.state,
            self.enabled
        )
    }
}

impl std::error::Error for DeterminismError {}

/// Checks the determinism condition of paper §2.1 in a single state: at most
/// one local action enabled.
///
/// # Errors
///
/// Returns a [`DeterminismError`] naming the state and the enabled actions
/// if more than one local action is enabled.
pub fn check_deterministic<A: Automaton>(
    automaton: &A,
    state: &A::State,
) -> Result<(), DeterminismError> {
    let enabled = automaton.enabled(state);
    if enabled.len() > 1 {
        return Err(DeterminismError {
            state: format!("{state:?}"),
            enabled: enabled.iter().map(|a| format!("{a:?}")).collect(),
        });
    }
    Ok(())
}

/// Verifies that every action reported by [`Automaton::enabled`] is locally
/// controlled and actually applicable via [`Automaton::step`].
///
/// This is the well-formedness obligation connecting the two halves of the
/// transition-relation encoding.
///
/// # Errors
///
/// Returns a human-readable description of the first inconsistency.
pub fn check_enabled_consistent<A: Automaton>(
    automaton: &A,
    state: &A::State,
) -> Result<(), String> {
    for action in automaton.enabled(state) {
        match automaton.classify(&action) {
            Some(class) if class.is_local() => {}
            Some(class) => {
                return Err(format!(
                    "enabled action {action:?} is classified {class}, not local"
                ));
            }
            None => {
                return Err(format!("enabled action {action:?} is not in acts(A)"));
            }
        }
        if let Err(e) = automaton.step(state, &action) {
            return Err(format!(
                "enabled action {action:?} failed to apply in state {state:?}: {e}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toggle with one internal action, used to exercise the checkers.
    struct Toggle {
        /// When true, both actions are (incorrectly) enabled at once.
        buggy: bool,
    }

    #[derive(Clone, Debug, PartialEq, Eq)]
    enum Act {
        On,
        Off,
        Poke, // input
    }

    impl Automaton for Toggle {
        type Action = Act;
        type State = bool;

        fn initial_state(&self) -> bool {
            false
        }

        fn classify(&self, action: &Act) -> Option<ActionClass> {
            Some(match action {
                Act::On | Act::Off => ActionClass::Internal,
                Act::Poke => ActionClass::Input,
            })
        }

        fn enabled_into(&self, state: &bool, out: &mut Vec<Act>) {
            if self.buggy {
                out.extend([Act::On, Act::Off]);
            } else if *state {
                out.push(Act::Off);
            } else {
                out.push(Act::On);
            }
        }

        fn apply(&self, state: &mut bool, action: &Act) -> Result<(), StepError> {
            match action {
                Act::Poke => {} // input-enabled: always applicable
                Act::On if !*state => *state = true,
                Act::Off if *state => *state = false,
                _ => {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: "toggle already in target position".into(),
                    })
                }
            }
            Ok(())
        }
    }

    #[test]
    fn deterministic_toggle_passes() {
        let t = Toggle { buggy: false };
        let s = t.initial_state();
        assert!(check_deterministic(&t, &s).is_ok());
        assert!(check_enabled_consistent(&t, &s).is_ok());
    }

    #[test]
    fn buggy_toggle_fails_determinism() {
        let t = Toggle { buggy: true };
        let err = check_deterministic(&t, &false).unwrap_err();
        assert_eq!(err.enabled.len(), 2);
        assert!(err.to_string().contains("enabled simultaneously"));
    }

    #[test]
    fn buggy_toggle_fails_consistency() {
        // In state `false`, `Off`'s precondition is false yet it is reported
        // enabled — check_enabled_consistent must object.
        let t = Toggle { buggy: true };
        let err = check_enabled_consistent(&t, &false).unwrap_err();
        assert!(err.contains("failed to apply"), "{err}");
    }

    #[test]
    fn input_always_applicable() {
        let t = Toggle { buggy: false };
        assert_eq!(t.step(&false, &Act::Poke), Ok(false));
        assert_eq!(t.step(&true, &Act::Poke), Ok(true));
    }

    #[test]
    fn default_fairness_is_one_class() {
        let t = Toggle { buggy: false };
        assert_eq!(t.fairness_class(&Act::On), 0);
        assert_eq!(t.fairness_class(&Act::Off), 0);
    }

    #[test]
    fn step_error_display() {
        let e = StepError::UnknownAction { action: "X".into() };
        assert_eq!(e.to_string(), "action X is not in acts(A)");
        let e = StepError::PreconditionFalse {
            action: "Y".into(),
            reason: "nope".into(),
        };
        assert!(e.to_string().contains("precondition of Y"));
    }
}
