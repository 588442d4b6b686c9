//! # rstp-check — coverage-guided adversarial schedule fuzzing
//!
//! The paper's correctness claims are universally quantified over *legal
//! adversaries*: every step schedule with gaps in `[c1, c2]` and every
//! delivery order within the `d`-window must yield a good trace and respect
//! the §4/§6 effort bounds. This crate searches that space instead of
//! sampling it blindly:
//!
//! 1. [`scenario`] generates and mutates *legal-by-construction* scenarios —
//!    scripted step gaps, per-packet delivery fates (delay / drop /
//!    duplicate), and an input word.
//! 2. [`oracle`] runs a scenario through `rstp-sim` and checks every
//!    invariant we know: `good(A)` trace properties, termination, exact
//!    output, the closed-form effort bounds, formal replay through the
//!    composed automaton, and (periodically) a wall-clock differential
//!    against `rstp-net`'s `MemTransport` driven by the *same* delivery
//!    script.
//! 3. [`coverage`] turns each trace into structural coverage keys
//!    (channel-occupancy profile, delivery-reorder depth, deadline-slack
//!    histogram) so the [`engine`] can favor mutating scenarios that reached
//!    novel behavior.
//! 4. [`shrink`](mod@shrink) delta-debugs any failing scenario down to a minimal repro,
//!    and [`corpus`] serializes it as a replayable text trace that is
//!    committed under `tests/corpus/` and re-run as a cargo test.
//! 5. [`bridge`] lifts a session out of an `rstp-record` flight recording
//!    back into scenario form, so a swarm failure replays deterministically
//!    through the same oracles and shrinker — the engine behind
//!    `rstp replay`.
//!
//! Everything is deterministic: the same seed produces the same coverage
//! counters, the same pool, and the same failures, run after run.
//!
//! ```
//! use rstp_check::engine::{fuzz, FuzzConfig};
//! use rstp_core::TimingParams;
//! use rstp_sim::ProtocolKind;
//!
//! let params = TimingParams::from_ticks(1, 2, 6).unwrap();
//! let mut cfg = FuzzConfig::new(ProtocolKind::Gamma { k: 4 }, params);
//! cfg.iters = 40;
//! let report = fuzz(&cfg);
//! assert!(report.failures.is_empty());
//! assert!(report.coverage.total > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bridge;
pub mod corpus;
pub mod coverage;
pub mod engine;
pub mod oracle;
pub mod scenario;
pub mod shrink;

pub use bridge::{
    ack_loss_failure, acked_prefix, bridge_session, replay_session, scenario_from_history,
    shrink_ack_loss, shrink_from_recording, BridgeError, BridgedSession, ReplayReport,
    REPLAY_MAX_EVENTS,
};
pub use corpus::{parse_repro, render_repro, Expectation, Repro, ReproError};
pub use coverage::{coverage_keys, Coverage, CoverageStats};
pub use engine::{fuzz, FoundFailure, FuzzConfig, FuzzReport};
pub use oracle::{run_scenario, Failure, FailureKind, ScenarioRun};
pub use scenario::Scenario;
pub use shrink::shrink;
