//! Fairness of finite executions (paper §2.1).
//!
//! A *finite* execution is fair iff no locally controlled action is enabled
//! from its final state — the automaton has genuinely quiesced rather than
//! being cut off mid-run. (The paper's infinite-execution clause — every
//! fairness class fires or is disabled infinitely often — has no finite
//! witness; the simulator instead runs until quiescence or a step budget and
//! reports which.)

use crate::automaton::Automaton;
use crate::execution::Execution;
use core::fmt;

/// The fairness status of a finite execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FairnessVerdict {
    /// No local action is enabled at the final state: the execution is fair.
    Quiescent,
    /// Local actions remain enabled; the execution is an unfair (truncated)
    /// prefix. Carries the debug renderings of the enabled actions.
    Truncated {
        /// Debug renderings of the still-enabled local actions.
        enabled: Vec<String>,
    },
}

impl FairnessVerdict {
    /// Whether the execution is fair (quiescent).
    #[must_use]
    pub fn is_fair(&self) -> bool {
        matches!(self, FairnessVerdict::Quiescent)
    }
}

impl fmt::Display for FairnessVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FairnessVerdict::Quiescent => f.write_str("fair (quiescent)"),
            FairnessVerdict::Truncated { enabled } => {
                write!(f, "unfair prefix; still enabled: {enabled:?}")
            }
        }
    }
}

/// Decides fairness of a finite execution per paper §2.1 clause 1.
pub fn finite_fairness<M>(
    automaton: &M,
    execution: &Execution<M::State, M::Action>,
) -> FairnessVerdict
where
    M: Automaton,
{
    let enabled = automaton.enabled(execution.last_state());
    if enabled.is_empty() {
        FairnessVerdict::Quiescent
    } else {
        FairnessVerdict::Truncated {
            enabled: enabled.iter().map(|a| format!("{a:?}")).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionClass;
    use crate::automaton::StepError;

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Emit;

    /// Emits exactly `limit` outputs, then quiesces.
    struct Bounded {
        limit: u32,
    }

    impl Automaton for Bounded {
        type Action = Emit;
        type State = u32;

        fn initial_state(&self) -> u32 {
            0
        }

        fn classify(&self, _action: &Emit) -> Option<ActionClass> {
            Some(ActionClass::Output)
        }

        fn enabled_into(&self, state: &u32, out: &mut Vec<Emit>) {
            if *state < self.limit {
                out.push(Emit);
            }
        }

        fn apply(&self, state: &mut u32, _action: &Emit) -> Result<(), StepError> {
            if *state >= self.limit {
                return Err(StepError::PreconditionFalse {
                    action: "Emit".into(),
                    reason: "limit reached".into(),
                });
            }
            *state += 1;
            Ok(())
        }
    }

    #[test]
    fn complete_run_is_fair() {
        let m = Bounded { limit: 2 };
        let mut e = Execution::new(0);
        e.push(Emit, 1);
        e.push(Emit, 2);
        let v = finite_fairness(&m, &e);
        assert!(v.is_fair());
        assert_eq!(v.to_string(), "fair (quiescent)");
    }

    #[test]
    fn truncated_run_is_unfair() {
        let m = Bounded { limit: 2 };
        let mut e = Execution::new(0);
        e.push(Emit, 1);
        let v = finite_fairness(&m, &e);
        assert!(!v.is_fair());
        assert!(matches!(v, FairnessVerdict::Truncated { ref enabled } if enabled.len() == 1));
    }

    #[test]
    fn empty_run_of_quiescent_automaton_is_fair() {
        let m = Bounded { limit: 0 };
        let e: Execution<u32, Emit> = Execution::new(0);
        assert!(finite_fairness(&m, &e).is_fair());
    }
}
