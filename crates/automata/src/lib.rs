//! I/O automata and timed I/O automata.
//!
//! This crate implements the formal model in which Wang & Zuck's
//! *Real-Time Sequence Transmission Problem* (Yale TR-856, 1991) states its
//! results: the I/O automata of Lynch and Tuttle (\[LT87\], \[LT89\]) extended
//! with the timing machinery of Merritt, Modugno and Tuttle (\[MMT90\]).
//!
//! The model, briefly (paper §2):
//!
//! * An **I/O automaton** has three disjoint action sets — *input*, *output*
//!   and *internal* — plus states, a start state, a transition relation that
//!   is **input-enabled** (every input action is applicable in every state),
//!   and a fairness partition of its locally controlled actions.
//! * **Composition** `A ∘ B` synchronizes shared actions: an output of one
//!   matching an input of the other becomes a single event of the composite.
//! * An **execution** is an alternating sequence `s0 π1 s1 π2 …` of states and
//!   actions; its **behavior** is its restriction to external actions.
//! * A **timing** assigns a nondecreasing real time to every event, starting
//!   at 0 and growing without bound on infinite executions. A **timed
//!   execution** pairs an execution with a timing; a *timing property* is a
//!   set of timed executions (here: step bounds `[c1, c2]` on local events and
//!   the delivery bound `d` on channels).
//!
//! # Organization
//!
//! | module | contents |
//! |---|---|
//! | [`time`] | integer tick clock: [`Time`], [`TimeDelta`] |
//! | [`action`] | [`ActionClass`], action-set signatures |
//! | [`automaton`] | the [`Automaton`] trait and determinism checks |
//! | [`composition`] | binary composition [`Compose`] and compatibility checks |
//! | [`corrupt`] | [`Corruptible`] register view for state-corruption adversaries |
//! | [`execution`] | untimed executions, validation, behaviors, restriction |
//! | [`timed`] | timings, timed executions, the timing axioms |
//! | [`fairness`] | fairness of finite executions |
//!
//! # Example
//!
//! A trivial one-action automaton and a validated execution. An
//! implementation writes [`Automaton::enabled_into`], which appends the
//! enabled local actions to a caller's buffer, so a driver that steps in
//! a loop reuses one buffer; [`Automaton::enabled`] is the provided
//! convenience that returns them in a fresh vector.
//!
//! ```
//! use rstp_automata::{ActionClass, Automaton, Execution, StepError};
//!
//! #[derive(Clone, Debug, PartialEq, Eq)]
//! enum Act { Tick }
//!
//! struct Counter;
//!
//! impl Automaton for Counter {
//!     type Action = Act;
//!     type State = u32;
//!
//!     fn initial_state(&self) -> u32 { 0 }
//!     fn classify(&self, _a: &Act) -> Option<ActionClass> {
//!         Some(ActionClass::Internal)
//!     }
//!     fn enabled_into(&self, _s: &u32, out: &mut Vec<Act>) {
//!         out.push(Act::Tick);
//!     }
//!     fn apply(&self, s: &mut u32, _a: &Act) -> Result<(), StepError> {
//!         *s += 1;
//!         Ok(())
//!     }
//! }
//!
//! let mut exec = Execution::new(Counter.initial_state());
//! let s1 = Counter.step(exec.last_state(), &Act::Tick).unwrap();
//! exec.push(Act::Tick, s1);
//! assert!(exec.validate(&Counter).is_ok());
//! assert_eq!(*exec.last_state(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod action;
pub mod automaton;
pub mod boundmap;
pub mod composition;
pub mod corrupt;
pub mod execution;
pub mod explore;
pub mod fairness;
pub mod time;
pub mod timed;

pub use action::ActionClass;
pub use automaton::{Automaton, DeterminismError, StepError};
pub use boundmap::{check_class_spacing, BoundMap, BoundMapError};
pub use composition::{CompatibilityError, Compose, Side};
pub use corrupt::{enumerate_register_vectors, Corruptible, RegisterSpec};
pub use execution::{Execution, ExecutionError};
pub use explore::{explore, Exploration, ExploreError};
pub use fairness::{finite_fairness, FairnessVerdict};
pub use time::{Time, TimeDelta};
pub use timed::{TimedExecution, Timing, TimingAxiomError};
