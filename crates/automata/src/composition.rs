//! Composition of I/O automata (paper §2.1).
//!
//! Two automata `A` and `B` over the same action alphabet are *composable*
//! when their only mutual actions are input-of-one matching output-of-the-
//! other, or input of both. Their composition `A ∘ B`:
//!
//! * outputs: `out(A) ∪ out(B)`; internals: `int(A) ∪ int(B)`;
//!   inputs: `(in(A) ∪ in(B)) − (out(A) ∪ out(B))`,
//! * states: pairs of component states,
//! * a step on action `π` moves exactly the components with `π ∈ acts(·)`,
//! * fairness classes are inherited disjointly from the components.
//!
//! Action universes are not enumerable, so composability cannot be checked
//! globally; [`Compose::check_composable_on`] validates it over any finite
//! sample of actions (our tests pass the full concrete alphabet of each
//! protocol), and [`Compose::classify`] additionally rejects locally
//! controlled action sharing whenever it observes it.

use crate::action::ActionClass;
use crate::automaton::{Automaton, StepError};
use core::fmt;

/// Which component of a composition an item refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// The left component (`A` in `A ∘ B`).
    Left,
    /// The right component (`B` in `A ∘ B`).
    Right,
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Side::Left => "left",
            Side::Right => "right",
        })
    }
}

/// A composability violation detected on a concrete action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompatibilityError {
    /// The action is an output of both components.
    SharedOutput {
        /// Debug rendering of the action.
        action: String,
    },
    /// The action is internal to one component yet known to the other.
    SharedInternal {
        /// Debug rendering of the action.
        action: String,
        /// Which component claims the action as internal.
        internal_side: Side,
    },
}

impl fmt::Display for CompatibilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompatibilityError::SharedOutput { action } => {
                write!(f, "action {action} is an output of both components")
            }
            CompatibilityError::SharedInternal {
                action,
                internal_side,
            } => write!(
                f,
                "action {action} is internal to the {internal_side} component but shared"
            ),
        }
    }
}

impl std::error::Error for CompatibilityError {}

/// The composition `A ∘ B` of two I/O automata over one action alphabet.
///
/// # Example
///
/// Composing a one-shot sender with a latch that receives its output:
///
/// ```
/// use rstp_automata::{ActionClass, Automaton, Compose, StepError};
///
/// #[derive(Clone, Debug, PartialEq, Eq)]
/// enum Act { Fire }
///
/// struct Sender;
/// impl Automaton for Sender {
///     type Action = Act;
///     type State = bool; // fired?
///     fn initial_state(&self) -> bool { false }
///     fn classify(&self, _: &Act) -> Option<ActionClass> { Some(ActionClass::Output) }
///     fn enabled_into(&self, s: &bool, out: &mut Vec<Act>) {
///         if !*s {
///             out.push(Act::Fire);
///         }
///     }
///     fn apply(&self, s: &mut bool, _: &Act) -> Result<(), StepError> {
///         if *s {
///             return Err(StepError::PreconditionFalse {
///                 action: "Fire".into(),
///                 reason: "already fired".into(),
///             });
///         }
///         *s = true;
///         Ok(())
///     }
/// }
///
/// struct Latch;
/// impl Automaton for Latch {
///     type Action = Act;
///     type State = bool; // latched?
///     fn initial_state(&self) -> bool { false }
///     fn classify(&self, _: &Act) -> Option<ActionClass> { Some(ActionClass::Input) }
///     fn enabled_into(&self, _: &bool, _: &mut Vec<Act>) {}
///     fn apply(&self, s: &mut bool, _: &Act) -> Result<(), StepError> {
///         *s = true;
///         Ok(())
///     }
/// }
///
/// let sys = Compose::new(Sender, Latch);
/// sys.check_composable_on([Act::Fire]).unwrap();
/// let s0 = sys.initial_state();
/// let s1 = sys.step(&s0, &Act::Fire).unwrap();
/// assert_eq!(s1, (true, true)); // one event moved both components
/// // Fire is an output of the composite, not an input:
/// assert_eq!(sys.classify(&Act::Fire), Some(ActionClass::Output));
/// ```
#[derive(Clone, Debug)]
pub struct Compose<L, R> {
    left: L,
    right: R,
}

impl<L, R> Compose<L, R> {
    /// Composes two automata. Composability over any concrete action set can
    /// be verified with [`Compose::check_composable_on`].
    pub fn new(left: L, right: R) -> Self {
        Compose { left, right }
    }

    /// The left component.
    pub fn left(&self) -> &L {
        &self.left
    }

    /// The right component.
    pub fn right(&self) -> &R {
        &self.right
    }

    /// Consumes the composition, returning the components.
    pub fn into_parts(self) -> (L, R) {
        (self.left, self.right)
    }
}

impl<A, L, R> Compose<L, R>
where
    A: Clone + fmt::Debug + PartialEq,
    L: Automaton<Action = A>,
    R: Automaton<Action = A>,
{
    /// Verifies the composability conditions of paper §2.1 on a finite
    /// sample of actions.
    ///
    /// # Errors
    ///
    /// Returns the first [`CompatibilityError`] found: a shared output, or an
    /// internal action of one component known to the other.
    pub fn check_composable_on<I>(&self, actions: I) -> Result<(), CompatibilityError>
    where
        I: IntoIterator<Item = A>,
    {
        for action in actions {
            let l = self.left.classify(&action);
            let r = self.right.classify(&action);
            match (l, r) {
                (Some(ActionClass::Output), Some(ActionClass::Output)) => {
                    return Err(CompatibilityError::SharedOutput {
                        action: format!("{action:?}"),
                    });
                }
                (Some(ActionClass::Internal), Some(_)) => {
                    return Err(CompatibilityError::SharedInternal {
                        action: format!("{action:?}"),
                        internal_side: Side::Left,
                    });
                }
                (Some(_), Some(ActionClass::Internal)) => {
                    return Err(CompatibilityError::SharedInternal {
                        action: format!("{action:?}"),
                        internal_side: Side::Right,
                    });
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Which side(s) participate in `action`.
    pub fn participants(&self, action: &A) -> (bool, bool) {
        (
            self.left.classify(action).is_some(),
            self.right.classify(action).is_some(),
        )
    }
}

impl<A, L, R> Automaton for Compose<L, R>
where
    A: Clone + fmt::Debug + PartialEq,
    L: Automaton<Action = A>,
    R: Automaton<Action = A>,
{
    type Action = A;
    type State = (L::State, R::State);

    fn initial_state(&self) -> Self::State {
        (self.left.initial_state(), self.right.initial_state())
    }

    fn classify(&self, action: &A) -> Option<ActionClass> {
        match (self.left.classify(action), self.right.classify(action)) {
            (None, None) => None,
            (Some(c), None) | (None, Some(c)) => Some(c),
            (Some(l), Some(r)) => {
                // Shared action: by composability it is input/input or
                // input/output; an output of either side is an output of the
                // composite, and input/input stays input.
                debug_assert!(
                    l != ActionClass::Internal && r != ActionClass::Internal,
                    "internal action {action:?} shared between components"
                );
                if l == ActionClass::Output || r == ActionClass::Output {
                    Some(ActionClass::Output)
                } else {
                    Some(ActionClass::Input)
                }
            }
        }
    }

    /// The left component's enabled actions, then the right's.
    fn enabled_into(&self, state: &Self::State, out: &mut Vec<A>) {
        self.left.enabled_into(&state.0, out);
        self.right.enabled_into(&state.1, out);
    }

    /// All-or-nothing: when a shared action fails on the right, the left
    /// component's move is undone, so neither component changes.
    fn apply(&self, state: &mut Self::State, action: &A) -> Result<(), StepError> {
        match self.participants(action) {
            (false, false) => Err(StepError::unknown(action)),
            (true, false) => self.left.apply(&mut state.0, action),
            (false, true) => self.right.apply(&mut state.1, action),
            (true, true) => {
                let left_before = state.0.clone();
                self.left.apply(&mut state.0, action)?;
                if let Err(e) = self.right.apply(&mut state.1, action) {
                    state.0 = left_before;
                    return Err(e);
                }
                Ok(())
            }
        }
    }

    fn fairness_class(&self, action: &A) -> usize {
        // loc(A) and loc(B) are disjoint for composable automata, so exactly
        // one side owns a local action; interleave their class indices to
        // keep the partitions disjoint (paper §2.1 item 4 of composition).
        match (self.left.classify(action), self.right.classify(action)) {
            (Some(c), _) if c.is_local() => self.left.fairness_class(action) * 2,
            (_, Some(c)) if c.is_local() => self.right.fairness_class(action) * 2 + 1,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq, Eq)]
    enum Act {
        Ping,
        Pong,
        Tick(Side),
    }

    /// Emits Ping, waits for Pong.
    struct PingSide;
    /// Waits for Ping, emits Pong.
    struct PongSide;

    impl Automaton for PingSide {
        type Action = Act;
        type State = (bool, bool); // (pinged, ponged)

        fn initial_state(&self) -> Self::State {
            (false, false)
        }

        fn classify(&self, action: &Act) -> Option<ActionClass> {
            match action {
                Act::Ping => Some(ActionClass::Output),
                Act::Pong => Some(ActionClass::Input),
                Act::Tick(Side::Left) => Some(ActionClass::Internal),
                Act::Tick(Side::Right) => None,
            }
        }

        fn enabled_into(&self, state: &Self::State, out: &mut Vec<Act>) {
            if !state.0 {
                out.push(Act::Ping);
            }
        }

        fn apply(&self, state: &mut Self::State, action: &Act) -> Result<(), StepError> {
            match action {
                Act::Ping => state.0 = true,
                Act::Pong => state.1 = true,
                Act::Tick(_) => {}
            }
            Ok(())
        }
    }

    impl Automaton for PongSide {
        type Action = Act;
        type State = (bool, bool); // (saw ping, sent pong)

        fn initial_state(&self) -> Self::State {
            (false, false)
        }

        fn classify(&self, action: &Act) -> Option<ActionClass> {
            match action {
                Act::Ping => Some(ActionClass::Input),
                Act::Pong => Some(ActionClass::Output),
                Act::Tick(Side::Right) => Some(ActionClass::Internal),
                Act::Tick(Side::Left) => None,
            }
        }

        fn enabled_into(&self, state: &Self::State, out: &mut Vec<Act>) {
            if state.0 && !state.1 {
                out.push(Act::Pong);
            }
        }

        fn apply(&self, state: &mut Self::State, action: &Act) -> Result<(), StepError> {
            match action {
                Act::Ping => state.0 = true,
                Act::Pong => state.1 = true,
                Act::Tick(_) => {}
            }
            Ok(())
        }
    }

    fn all_actions() -> Vec<Act> {
        vec![
            Act::Ping,
            Act::Pong,
            Act::Tick(Side::Left),
            Act::Tick(Side::Right),
        ]
    }

    #[test]
    fn ping_pong_is_composable() {
        let sys = Compose::new(PingSide, PongSide);
        sys.check_composable_on(all_actions()).unwrap();
    }

    #[test]
    fn classification_follows_the_paper() {
        let sys = Compose::new(PingSide, PongSide);
        // Output of one + input of the other => output of the composite.
        assert_eq!(sys.classify(&Act::Ping), Some(ActionClass::Output));
        assert_eq!(sys.classify(&Act::Pong), Some(ActionClass::Output));
        // Internal actions stay internal.
        assert_eq!(
            sys.classify(&Act::Tick(Side::Left)),
            Some(ActionClass::Internal)
        );
    }

    #[test]
    fn shared_action_moves_both_components() {
        let sys = Compose::new(PingSide, PongSide);
        let s0 = sys.initial_state();
        let s1 = sys.step(&s0, &Act::Ping).unwrap();
        assert_eq!(s1, ((true, false), (true, false)));
        let s2 = sys.step(&s1, &Act::Pong).unwrap();
        assert_eq!(s2, ((true, true), (true, true)));
    }

    #[test]
    fn unshared_action_moves_one_component() {
        let sys = Compose::new(PingSide, PongSide);
        let s0 = sys.initial_state();
        let s1 = sys.step(&s0, &Act::Tick(Side::Left)).unwrap();
        assert_eq!(s1, s0); // Tick is a no-op but must not touch the right side
    }

    #[test]
    fn unknown_action_rejected() {
        let sys = Compose::new(PingSide, PingSide);
        // For Compose<PingSide, PingSide>, Tick(Right) is known to neither.
        let err = sys.step(&sys.initial_state(), &Act::Tick(Side::Right));
        assert!(matches!(err, Err(StepError::UnknownAction { .. })));
    }

    /// Emits Ping once; a second Ping fails its precondition.
    struct PingOnce;

    impl Automaton for PingOnce {
        type Action = Act;
        type State = bool; // pinged?

        fn initial_state(&self) -> bool {
            false
        }

        fn classify(&self, action: &Act) -> Option<ActionClass> {
            (*action == Act::Ping).then_some(ActionClass::Output)
        }

        fn enabled_into(&self, state: &bool, out: &mut Vec<Act>) {
            if !*state {
                out.push(Act::Ping);
            }
        }

        fn apply(&self, state: &mut bool, action: &Act) -> Result<(), StepError> {
            if *state {
                return Err(StepError::PreconditionFalse {
                    action: format!("{action:?}"),
                    reason: "already pinged".into(),
                });
            }
            *state = true;
            Ok(())
        }
    }

    #[test]
    fn failed_shared_action_changes_neither_component() {
        // The left side accepts Ping, the right rejects it: the left's move
        // must be undone.
        let sys = Compose::new(PingOnce, PingOnce);
        let mut state = (false, true);
        let err = sys.apply(&mut state, &Act::Ping);
        assert!(matches!(err, Err(StepError::PreconditionFalse { .. })));
        assert_eq!(state, (false, true));
        // Rejected on the left: the right is never touched.
        let mut state = (true, false);
        assert!(sys.apply(&mut state, &Act::Ping).is_err());
        assert_eq!(state, (true, false));
    }

    #[test]
    fn shared_output_detected() {
        let sys = Compose::new(PingSide, PingSide);
        let err = sys.check_composable_on(all_actions()).unwrap_err();
        assert!(matches!(err, CompatibilityError::SharedOutput { .. }));
        assert!(err.to_string().contains("output of both"));
    }

    #[test]
    fn enabled_unions_components() {
        let sys = Compose::new(PingSide, PongSide);
        let s0 = sys.initial_state();
        assert_eq!(sys.enabled(&s0), vec![Act::Ping]);
        let s1 = sys.step(&s0, &Act::Ping).unwrap();
        assert_eq!(sys.enabled(&s1), vec![Act::Pong]);
        let s2 = sys.step(&s1, &Act::Pong).unwrap();
        assert!(sys.enabled(&s2).is_empty());
    }

    #[test]
    fn fairness_classes_disjoint() {
        let sys = Compose::new(PingSide, PongSide);
        let left = sys.fairness_class(&Act::Ping);
        let right = sys.fairness_class(&Act::Pong);
        assert_ne!(left, right);
        assert_eq!(left % 2, 0);
        assert_eq!(right % 2, 1);
    }

    #[test]
    fn into_parts_roundtrip() {
        let sys = Compose::new(PingSide, PongSide);
        let _ = sys.left();
        let _ = sys.right();
        let (_l, _r) = sys.into_parts();
    }
}
