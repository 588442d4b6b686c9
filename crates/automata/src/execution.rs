//! Executions and behaviors (paper §2.1).
//!
//! An execution of `A` is a sequence `s0 —π1→ s1 —π2→ …` with `s0` the start
//! state and each `(s_i, π_{i+1}, s_{i+1}) ∈ steps(A)`. Its *behavior* is the
//! subsequence of external (input/output) actions. For a composite `C = A∘B`,
//! an execution of `C` projects onto executions of `A` and `B` (`α|A`,
//! `α|B`).
//!
//! Executions here are finite — the simulator produces finite prefixes of the
//! (conceptually infinite) runs, long enough for the receiver to write all of
//! `X`. Fairness of a finite execution is "no local action enabled at the
//! final state" (paper §2.1); see [`crate::fairness`].

use crate::action::ActionClass;
use crate::automaton::Automaton;
use core::fmt;

/// A finite execution fragment of an automaton: a start state followed by
/// `(action, post-state)` steps.
#[derive(Clone, Debug, PartialEq)]
pub struct Execution<S, A> {
    initial: S,
    steps: Vec<(A, S)>,
}

/// Why an execution failed validation against an automaton.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecutionError {
    /// A step's action was rejected by the automaton's transition function.
    StepRejected {
        /// Zero-based index of the offending step.
        index: usize,
        /// Rendered step error.
        cause: String,
    },
    /// A step's recorded post-state differs from the one the automaton
    /// computes.
    PostStateMismatch {
        /// Zero-based index of the offending step.
        index: usize,
        /// Debug rendering of the recorded post-state.
        recorded: String,
        /// Debug rendering of the recomputed post-state.
        computed: String,
    },
    /// The recorded initial state is not the automaton's start state.
    WrongInitialState {
        /// Debug rendering of the recorded initial state.
        recorded: String,
        /// Debug rendering of the automaton's start state.
        expected: String,
    },
}

impl fmt::Display for ExecutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionError::StepRejected { index, cause } => {
                write!(f, "step {index} rejected: {cause}")
            }
            ExecutionError::PostStateMismatch {
                index,
                recorded,
                computed,
            } => write!(
                f,
                "step {index}: recorded post-state {recorded} != computed {computed}"
            ),
            ExecutionError::WrongInitialState { recorded, expected } => {
                write!(f, "initial state {recorded} is not start state {expected}")
            }
        }
    }
}

impl std::error::Error for ExecutionError {}

impl<S, A> Execution<S, A>
where
    S: Clone + fmt::Debug,
    A: Clone + fmt::Debug + PartialEq,
{
    /// An empty execution at `initial`.
    pub fn new(initial: S) -> Self {
        Execution {
            initial,
            steps: Vec::new(),
        }
    }

    /// Appends a step.
    pub fn push(&mut self, action: A, post_state: S) {
        self.steps.push((action, post_state));
    }

    /// The initial state.
    pub fn initial_state(&self) -> &S {
        &self.initial
    }

    /// The final state (the initial state if no steps were taken).
    pub fn last_state(&self) -> &S {
        self.steps.last().map_or(&self.initial, |(_, s)| s)
    }

    /// Number of steps (events) in the execution.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the execution has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The recorded steps, in order.
    pub fn steps(&self) -> &[(A, S)] {
        &self.steps
    }

    /// Iterates over the actions (the event sequence `π1, π2, …`).
    pub fn actions(&self) -> impl Iterator<Item = &A> {
        self.steps.iter().map(|(a, _)| a)
    }

    /// The state *before* step `index` (so `state_before(0)` is the initial
    /// state). Returns `None` if `index > len()`.
    pub fn state_before(&self, index: usize) -> Option<&S> {
        match index.checked_sub(1) {
            None => Some(&self.initial),
            Some(prev) => self.steps.get(prev).map(|(_, s)| s),
        }
    }

    /// Restriction `α|pred`: the subsequence of actions satisfying `pred`,
    /// with their step indices (paper §2.1's `a|B'` on the action sequence).
    pub fn restrict<F>(&self, mut pred: F) -> Vec<(usize, &A)>
    where
        F: FnMut(&A) -> bool,
    {
        self.steps
            .iter()
            .enumerate()
            .filter(move |(_, (a, _))| pred(a))
            .map(|(i, (a, _))| (i, a))
            .collect()
    }

    /// The behavior `beh(α)`: the subsequence of external actions of
    /// `automaton`, cloned in order.
    pub fn behavior<M>(&self, automaton: &M) -> Vec<A>
    where
        M: Automaton<Action = A, State = S>,
    {
        self.steps
            .iter()
            .filter(|(a, _)| automaton.classify(a).is_some_and(ActionClass::is_external))
            .map(|(a, _)| a.clone())
            .collect()
    }

    /// Validates every recorded step against `automaton`: the initial state
    /// must equal the start state (compared via `Debug` rendering, since
    /// states need not be `PartialEq`), every action must be applicable, and
    /// every recorded post-state must match the recomputed one.
    ///
    /// # Errors
    ///
    /// Returns the first [`ExecutionError`] encountered.
    pub fn validate<M>(&self, automaton: &M) -> Result<(), ExecutionError>
    where
        M: Automaton<Action = A, State = S>,
    {
        let start = automaton.initial_state();
        let rendered_start = format!("{start:?}");
        let rendered_initial = format!("{:?}", self.initial);
        if rendered_start != rendered_initial {
            return Err(ExecutionError::WrongInitialState {
                recorded: rendered_initial,
                expected: rendered_start,
            });
        }
        let mut current = self.initial.clone();
        for (index, (action, recorded_post)) in self.steps.iter().enumerate() {
            let computed =
                automaton
                    .step(&current, action)
                    .map_err(|e| ExecutionError::StepRejected {
                        index,
                        cause: e.to_string(),
                    })?;
            let rendered_computed = format!("{computed:?}");
            let rendered_recorded = format!("{recorded_post:?}");
            if rendered_computed != rendered_recorded {
                return Err(ExecutionError::PostStateMismatch {
                    index,
                    recorded: rendered_recorded,
                    computed: rendered_computed,
                });
            }
            current = computed;
        }
        Ok(())
    }

    /// Projects an execution of a composite onto one component (paper §2.1:
    /// `α|A`), given the component's membership test for actions and a
    /// state extractor.
    ///
    /// Steps whose action the component does not participate in are dropped;
    /// each remaining post-state is mapped through `extract`.
    pub fn project<T, F, G>(&self, mut participates: F, mut extract: G) -> Execution<T, A>
    where
        T: Clone + fmt::Debug,
        F: FnMut(&A) -> bool,
        G: FnMut(&S) -> T,
    {
        let mut projected = Execution::new(extract(&self.initial));
        for (action, post) in &self.steps {
            if participates(action) {
                projected.push(action.clone(), extract(post));
            }
        }
        projected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionClass;
    use crate::automaton::StepError;

    #[derive(Clone, Debug, PartialEq, Eq)]
    enum Act {
        Inc,
        Report(u32),
        Nudge,
    }

    /// Counts `Inc`s; `Report(n)` is an output allowed only when counter==n.
    struct Counter;

    impl Automaton for Counter {
        type Action = Act;
        type State = u32;

        fn initial_state(&self) -> u32 {
            0
        }

        fn classify(&self, action: &Act) -> Option<ActionClass> {
            Some(match action {
                Act::Inc => ActionClass::Internal,
                Act::Report(_) => ActionClass::Output,
                Act::Nudge => ActionClass::Input,
            })
        }

        fn enabled_into(&self, state: &u32, out: &mut Vec<Act>) {
            out.extend([Act::Inc, Act::Report(*state)]);
        }

        fn apply(&self, state: &mut u32, action: &Act) -> Result<(), StepError> {
            match action {
                Act::Inc => *state += 1,
                Act::Nudge => {}
                Act::Report(n) if n == state => {}
                Act::Report(n) => {
                    return Err(StepError::PreconditionFalse {
                        action: format!("Report({n})"),
                        reason: format!("counter is {state}"),
                    })
                }
            }
            Ok(())
        }
    }

    fn sample() -> Execution<u32, Act> {
        let mut e = Execution::new(0);
        e.push(Act::Inc, 1);
        e.push(Act::Nudge, 1);
        e.push(Act::Inc, 2);
        e.push(Act::Report(2), 2);
        e
    }

    #[test]
    fn accessors() {
        let e = sample();
        assert_eq!(*e.initial_state(), 0);
        assert_eq!(*e.last_state(), 2);
        assert_eq!(e.len(), 4);
        assert!(!e.is_empty());
        assert_eq!(e.actions().count(), 4);
        assert_eq!(e.state_before(0), Some(&0));
        assert_eq!(e.state_before(3), Some(&2));
        assert_eq!(e.state_before(4), Some(&2));
        assert_eq!(e.state_before(5), None);
    }

    #[test]
    fn empty_execution() {
        let e: Execution<u32, Act> = Execution::new(7);
        assert!(e.is_empty());
        assert_eq!(*e.last_state(), 7);
    }

    #[test]
    fn valid_execution_passes() {
        sample().validate(&Counter).unwrap();
    }

    #[test]
    fn wrong_initial_state_caught() {
        let e: Execution<u32, Act> = Execution::new(5);
        let err = e.validate(&Counter).unwrap_err();
        assert!(matches!(err, ExecutionError::WrongInitialState { .. }));
    }

    #[test]
    fn rejected_step_caught() {
        let mut e = Execution::new(0);
        e.push(Act::Report(3), 0); // precondition false at counter=0
        let err = e.validate(&Counter).unwrap_err();
        assert!(matches!(err, ExecutionError::StepRejected { index: 0, .. }));
        assert!(err.to_string().contains("rejected"));
    }

    #[test]
    fn post_state_mismatch_caught() {
        let mut e = Execution::new(0);
        e.push(Act::Inc, 2); // should be 1
        let err = e.validate(&Counter).unwrap_err();
        assert!(matches!(
            err,
            ExecutionError::PostStateMismatch { index: 0, .. }
        ));
    }

    #[test]
    fn behavior_drops_internal_actions() {
        let e = sample();
        // Inc is internal; Nudge (input) and Report (output) are external.
        assert_eq!(e.behavior(&Counter), vec![Act::Nudge, Act::Report(2)]);
    }

    #[test]
    fn restrict_returns_indices() {
        let e = sample();
        let incs = e.restrict(|a| matches!(a, Act::Inc));
        assert_eq!(incs.len(), 2);
        assert_eq!(incs[0].0, 0);
        assert_eq!(incs[1].0, 2);
    }

    #[test]
    fn project_keeps_participating_steps() {
        let e = sample();
        // Project onto a fictitious component that only sees Report actions
        // and whose state is the parity of the counter.
        let p = e.project(|a| matches!(a, Act::Report(_)), |s| s % 2);
        assert_eq!(p.len(), 1);
        assert_eq!(*p.initial_state(), 0);
        assert_eq!(*p.last_state(), 0);
    }
}
