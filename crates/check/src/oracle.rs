//! Invariant oracles: everything a scenario's run is checked against.
//!
//! A scenario fails when *any* of the following is violated, in this order:
//!
//! 1. **Model** — the runner itself rejects the run (nondeterminism,
//!    adversary out of bounds, automaton refusing an applicable action).
//!    Legal-by-construction scenarios should never trip this; when one
//!    does, either the generator or the model is broken.
//! 2. **Termination** — the event budget runs out before quiescence.
//! 3. **Violation** — the `good(A)` trace checker finds a safety/liveness
//!    breach (prefix property, step spacing, delivery window, bijection).
//! 4. **Output** — the receiver wrote something other than `X`.
//! 5. **Effort** — measured effort exceeds the paper's closed-form
//!    worst-case bound (§4 for `A^α`/`A^β`, §6 for `A^γ`).
//! 6. **Replay** — the trace does not replay through the composed formal
//!    automaton.
//! 7. **Differential** — the same scenario, run in wall-clock time over
//!    `rstp-net`'s in-memory transport with the *same* scripted delivery
//!    plan, produces a different output (checked periodically by the
//!    engine, not on every iteration).

use std::fmt;
use std::time::Duration;

use rstp_core::bounds;
use rstp_core::protocols::{
    stab_beta_transmitter, AlphaReceiver, AlphaTransmitter, AltBitReceiver, AltBitTransmitter,
    BetaReceiver, BetaTransmitter, FramedReceiver, FramedTransmitter, GammaReceiver,
    GammaTransmitter, PipelinedReceiver, PipelinedTransmitter, StabBetaReceiver,
    StabStenningReceiver, StabStenningTransmitter, StenningReceiver, StenningTransmitter,
};
use rstp_net::{run_transfer_mem_scripted, DriverOutcome, Pace, TransferConfig};
use rstp_sim::checker::{check_trace, CheckConfig};
use rstp_sim::harness::RunConfig;
use rstp_sim::replay::replay_trace;
use rstp_sim::{run_corrupted, run_with_adversaries, Outcome, ProtocolKind, SimTrace};

use crate::scenario::Scenario;

/// Which oracle rejected the scenario. Shrinking preserves the kind: a
/// candidate only counts as "still failing" when it fails the same way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The runner rejected the run — a model or generator bug.
    Model,
    /// The run did not quiesce within the event budget.
    Termination,
    /// The `good(A)` trace checker found a violation.
    Violation,
    /// The receiver's output differs from the input.
    Output,
    /// Measured effort exceeds the closed-form worst-case bound.
    Effort,
    /// The trace does not replay through the composed formal automaton.
    Replay,
    /// Simulated and wall-clock runs of the same scenario disagree.
    Differential,
    /// After a scripted state corruption, the written suffix never
    /// converged back to the input (stabilizing protocols only).
    Convergence,
    /// The run converged, but later than the documented stabilization-time
    /// bound allows.
    StabilizationTime,
    /// A recorded run acknowledged a write the final verdict does not
    /// carry — crash recovery or handover lost durable output.
    AckLoss,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FailureKind::Model => "model",
            FailureKind::Termination => "termination",
            FailureKind::Violation => "violation",
            FailureKind::Output => "output",
            FailureKind::Effort => "effort",
            FailureKind::Replay => "replay",
            FailureKind::Differential => "differential",
            FailureKind::Convergence => "convergence",
            FailureKind::StabilizationTime => "stab-time",
            FailureKind::AckLoss => "ack-loss",
        };
        f.write_str(name)
    }
}

/// One concrete oracle rejection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// Which oracle fired.
    pub kind: FailureKind,
    /// Human-readable evidence.
    pub detail: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

/// The outcome of running every simulation-side oracle on one scenario.
#[derive(Clone, Debug)]
pub struct ScenarioRun {
    /// The recorded trace (empty when the runner rejected the scenario).
    pub trace: SimTrace,
    /// Whether the run quiesced (false also covers runner rejection).
    pub quiescent: bool,
    /// Number of trace events.
    pub events: u64,
    /// The first oracle rejection, if any.
    pub failure: Option<Failure>,
}

/// Runs `scenario` through the simulator and all simulation-side oracles
/// (1–6 above). The differential oracle is separate — see
/// [`differential_failure`].
///
/// Scenarios scripting a state corruption run under [`run_corrupted`] and
/// are judged by the convergence and stabilization-time oracles instead of
/// the clean-run ones: a corrupted run legitimately writes garbage during
/// its stabilization window, so the prefix/output/effort/replay oracles do
/// not apply to it.
#[must_use]
pub fn run_scenario(scenario: &Scenario, max_events: u64) -> ScenarioRun {
    let cfg = RunConfig {
        kind: scenario.kind,
        params: scenario.params,
        d_lo_ticks: 0,
        max_events,
        record_trace: true,
        ..RunConfig::default()
    };
    let mut step = scenario.step_adversary();
    let mut delivery = scenario.delivery_adversary();

    let model_failure = |e: String| ScenarioRun {
        trace: SimTrace::default(),
        quiescent: false,
        events: 0,
        failure: Some(Failure {
            kind: FailureKind::Model,
            detail: e,
        }),
    };

    if let Some(spec) = scenario.corruption {
        let (run, report) =
            match run_corrupted(&cfg, &scenario.input, &mut step, &mut delivery, spec) {
                Ok(pair) => pair,
                Err(e) => return model_failure(e.to_string()),
            };
        let quiescent = run.outcome == Outcome::Quiescent;
        let events = run.trace.events().len() as u64;
        let failure = if report.applied() {
            corruption_failure(scenario, &run.trace, quiescent, &report)
        } else {
            // The run finished before the fault fired: an ordinary clean
            // run, judged by the clean-run oracles.
            first_failure(scenario, &run.trace, quiescent, &run.metrics)
        };
        return ScenarioRun {
            trace: run.trace,
            quiescent,
            events,
            failure,
        };
    }

    let run = match run_with_adversaries(&cfg, &scenario.input, &mut step, &mut delivery) {
        Ok(run) => run,
        Err(e) => return model_failure(e.to_string()),
    };
    let quiescent = run.outcome == Outcome::Quiescent;
    let events = run.trace.events().len() as u64;
    let failure = first_failure(scenario, &run.trace, quiescent, &run.metrics);
    ScenarioRun {
        trace: run.trace,
        quiescent,
        events,
        failure,
    }
}

/// The corrupted-run oracles: **convergence** (the written suffix must
/// settle back onto `X`, up to a completeness floor derived from where the
/// corruption landed) and **stabilization time** (the last divergent write
/// must fall within the documented bound after the fault struck).
fn corruption_failure(
    scenario: &Scenario,
    trace: &SimTrace,
    quiescent: bool,
    report: &rstp_sim::CorruptionReport,
) -> Option<Failure> {
    use rstp_core::protocols::stabilizing::{
        stab_beta_bits_per_block, stab_beta_bound, stab_stenning_ack_alphabet, stab_stenning_bound,
        REG_BETA_R_PENDING_LEN, REG_BETA_T_BLOCK, REG_STAB_R_PENDING_ACK, REG_STAB_T_NEXT,
    };

    if !quiescent {
        return Some(Failure {
            kind: FailureKind::Termination,
            detail: format!(
                "corrupted run never quiesced within the budget ({} events; {report})",
                trace.events().len()
            ),
        });
    }

    let input = &scenario.input;
    let n = input.len();
    let written = trace.written();

    // Per-kind: the completeness floor (how many final messages of `X`
    // must provably survive the fault), the matched tail length, the
    // number of stabilization-window garbage writes *preceding* that
    // tail, and the stabilization-time bound in ticks.
    let (floor, matched, garbage_writes, bound) = match scenario.kind {
        ProtocolKind::StabStenning { timeout_steps } => {
            // Every message from the corrupted `next` on must be delivered,
            // minus one slot per in-flight packet (a stale or rewritten ack
            // can fake one advance each), one slot if the corrupted receiver
            // was loaded with a pending ack (it is sent on its next step and
            // can tag-alias into a fake advance exactly like a stale one),
            // and a two-message allowance for the seam itself (one tag-alias
            // re-ack, one boundary loss).
            let next_c = report.t_regs[REG_STAB_T_NEXT] as usize;
            let pending =
                usize::from(report.r_regs[REG_STAB_R_PENDING_ACK] != stab_stenning_ack_alphabet());
            let floor = n.saturating_sub(next_c + report.in_flight as usize + pending + 2);
            let matched = longest_end_aligned_suffix(&written, input);
            (
                floor,
                matched,
                written.len() - matched,
                stab_stenning_bound(scenario.params, timeout_steps),
            )
        }
        ProtocolKind::StabBeta { k } => {
            // The transmitter resumes at block `j0`; its first block may
            // straddle the corrupted partial burst, stale in-flight symbols
            // shift the framing, and the receiver's decoded cap can
            // truncate the tail by the injected garbage — hence the wider
            // slack. The surviving tail of `X` is contiguous in `written`
            // but not necessarily at its end: the receiver may flush
            // bounded leftovers (misframed cap overrun, end-of-run pending
            // bits) *after* it, so the tail is searched anywhere in the
            // written word and only the writes before it count as
            // stabilization-window garbage.
            let b = stab_beta_bits_per_block(scenario.params, k) as usize;
            let j0 = report.t_regs[REG_BETA_T_BLOCK] as usize;
            let pending = report.r_regs[REG_BETA_R_PENDING_LEN] as usize;
            let floor =
                n.saturating_sub((j0 + 1) * b + pending + report.in_flight as usize + 2 * b);
            let (matched, tail_start) = longest_input_tail_occurrence(&written, input);
            (
                floor,
                matched,
                tail_start,
                stab_beta_bound(scenario.params, k),
            )
        }
        // `run_corrupted` already rejected every other kind as a model
        // failure before this oracle runs.
        _ => return None,
    };

    if matched < floor {
        return Some(Failure {
            kind: FailureKind::Convergence,
            detail: format!(
                "converged tail has {matched} messages, completeness floor is {floor} \
                 (wrote {} of {n}; {report})",
                written.len()
            ),
        });
    }

    // Everything written before the converged tail is stabilization-window
    // garbage; the last such write must land within the bound.
    let applied_at = report
        .applied_at
        .expect("oracle runs only on applied faults");
    let deadline = applied_at + rstp_automata::TimeDelta::from_ticks(bound);
    if garbage_writes > 0 {
        let last_garbage = trace
            .events()
            .iter()
            .filter(|e| matches!(e.action, rstp_core::RstpAction::Write(_)))
            .nth(garbage_writes - 1)
            .expect("trace contains every counted write");
        if last_garbage.time > deadline {
            return Some(Failure {
                kind: FailureKind::StabilizationTime,
                detail: format!(
                    "last divergent write at {}, bound allows {} ticks after the fault at {} \
                     ({report})",
                    last_garbage.time, bound, applied_at
                ),
            });
        }
    }
    None
}

/// Length of the longest suffix of `written` that is an *end-aligned*
/// suffix of `input`.
fn longest_end_aligned_suffix(written: &[bool], input: &[bool]) -> usize {
    let max = written.len().min(input.len());
    (0..=max)
        .rev()
        .find(|&l| written[written.len() - l..] == input[input.len() - l..])
        .unwrap_or(0)
}

/// The longest tail of `input` appearing as a contiguous substring
/// anywhere in `written`, with the earliest start index of that
/// occurrence. `(0, 0)` when no tail occurs at all.
fn longest_input_tail_occurrence(written: &[bool], input: &[bool]) -> (usize, usize) {
    let max = written.len().min(input.len());
    for l in (1..=max).rev() {
        let tail = &input[input.len() - l..];
        if let Some(start) = written.windows(l).position(|w| w == tail) {
            return (l, start);
        }
    }
    (0, 0)
}

fn first_failure(
    scenario: &Scenario,
    trace: &SimTrace,
    quiescent: bool,
    metrics: &rstp_sim::RunMetrics,
) -> Option<Failure> {
    if !quiescent {
        return Some(Failure {
            kind: FailureKind::Termination,
            detail: format!(
                "event budget exhausted after {} events without quiescence",
                trace.events().len()
            ),
        });
    }

    let faulty = !scenario.is_fault_free();
    let mut check = CheckConfig::from_params(scenario.params);
    check.expect_complete = !faulty;
    check.expect_bijection = !faulty;
    let report = check_trace(trace, &check);
    if let Some(v) = report.violations.first() {
        return Some(Failure {
            kind: FailureKind::Violation,
            detail: v.to_string(),
        });
    }

    if trace.written() != scenario.input {
        return Some(Failure {
            kind: FailureKind::Output,
            detail: format!(
                "receiver wrote {} bits, input had {} (first divergence at {:?})",
                trace.written().len(),
                scenario.input.len(),
                scenario
                    .input
                    .iter()
                    .zip(trace.written())
                    .position(|(a, b)| *a != b)
            ),
        });
    }

    if let Some(f) = effort_failure(scenario, metrics) {
        return Some(f);
    }
    replay_failure(scenario, trace)
}

/// Compares measured effort against the protocol's universal worst-case
/// bound. Only `A^α`/`A^β`/`A^γ` have closed forms; other kinds pass.
fn effort_failure(scenario: &Scenario, metrics: &rstp_sim::RunMetrics) -> Option<Failure> {
    let n = scenario.input.len();
    let effort = metrics.effort(n)?;
    let bound = match scenario.kind {
        ProtocolKind::Alpha => bounds::alpha_effort(scenario.params),
        ProtocolKind::Beta { k } => bounds::passive_upper_finite(scenario.params, k, n),
        ProtocolKind::Gamma { k } => bounds::active_upper_finite(scenario.params, k, n),
        _ => return None,
    };
    // Small epsilon so f64 rounding in the closed forms never false-alarms.
    if effort > bound + 1e-9 {
        return Some(Failure {
            kind: FailureKind::Effort,
            detail: format!("measured effort {effort:.4} exceeds worst-case bound {bound:.4}"),
        });
    }
    None
}

/// Replays the trace through the composed formal automaton, mirroring the
/// constructions of `tests/replay_all.rs`.
fn replay_failure(scenario: &Scenario, trace: &SimTrace) -> Option<Failure> {
    // The composed automaton's channel is a pure delay: injected drops and
    // duplicates have no formal counterpart, so faulty traces cannot replay.
    if !scenario.is_fault_free() {
        return None;
    }
    let p = scenario.params;
    let input = scenario.input.clone();
    let result = match scenario.kind {
        ProtocolKind::Alpha => {
            replay_trace(AlphaTransmitter::new(p, input), AlphaReceiver::new(), trace)
                .map(|_| ())
                .map_err(|e| e.to_string())
        }
        ProtocolKind::Beta { k } => build_and_replay(trace, || {
            Ok((
                BetaTransmitter::new(p, k, &input)?,
                BetaReceiver::new(p, k, input.len())?,
            ))
        }),
        ProtocolKind::Gamma { k } => build_and_replay(trace, || {
            Ok((
                GammaTransmitter::new(p, k, &input)?,
                GammaReceiver::new(p, k, input.len())?,
            ))
        }),
        ProtocolKind::AltBit { timeout_steps } => replay_trace(
            AltBitTransmitter::new(p, input, timeout_steps),
            AltBitReceiver::new(),
            trace,
        )
        .map(|_| ())
        .map_err(|e| e.to_string()),
        ProtocolKind::Framed { k } => build_and_replay(trace, || {
            Ok((
                FramedTransmitter::new(p, k, &input)?,
                FramedReceiver::new(p, k)?,
            ))
        }),
        ProtocolKind::Stenning { timeout_steps } => replay_trace(
            StenningTransmitter::new(p, input, timeout_steps),
            StenningReceiver::new(),
            trace,
        )
        .map(|_| ())
        .map_err(|e| e.to_string()),
        ProtocolKind::Pipelined { k, window } => build_and_replay(trace, || {
            Ok((
                PipelinedTransmitter::with_window(p, k, window, &input)?,
                PipelinedReceiver::with_window(p, k, window, input.len())?,
            ))
        }),
        ProtocolKind::StabStenning { timeout_steps } => replay_trace(
            StabStenningTransmitter::new(p, input, timeout_steps),
            StabStenningReceiver::new(),
            trace,
        )
        .map(|_| ())
        .map_err(|e| e.to_string()),
        ProtocolKind::StabBeta { k } => build_and_replay(trace, || {
            Ok((
                stab_beta_transmitter(p, k, &input)?,
                StabBetaReceiver::new(p, k, input.len())?,
            ))
        }),
        // BetaWindow needs a d_lo > 0 regime the fuzzer does not target.
        ProtocolKind::BetaWindow { .. } => Ok(()),
    };
    result.err().map(|detail| Failure {
        kind: FailureKind::Replay,
        detail,
    })
}

fn build_and_replay<T, R>(
    trace: &SimTrace,
    build: impl FnOnce() -> Result<(T, R), rstp_core::ProtocolError>,
) -> Result<(), String>
where
    T: rstp_automata::Automaton<Action = rstp_core::RstpAction>,
    R: rstp_automata::Automaton<Action = rstp_core::RstpAction>,
{
    let (t, r) = build().map_err(|e| e.to_string())?;
    replay_trace(t, r, trace)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// Runs the scenario a second time in wall-clock over `MemTransport` with
/// the same scripted delivery plan and compares outputs. Only meaningful
/// for fault-free scenarios of wire-supported protocols; others return
/// `None` immediately.
#[must_use]
pub fn differential_failure(
    scenario: &Scenario,
    tick: Duration,
    max_wall: Duration,
) -> Option<Failure> {
    // Corrupted runs have no wall-clock counterpart: the net transport
    // cannot script a mid-run register overwrite.
    if !scenario.is_fault_free()
        || scenario.corruption.is_some()
        || matches!(scenario.kind, ProtocolKind::BetaWindow { .. })
    {
        return None;
    }
    let mut config = TransferConfig::new(scenario.params, tick, 0).with_pace(Pace::Slow);
    config.max_wall = max_wall;
    let report = match run_transfer_mem_scripted(
        scenario.kind,
        &scenario.input,
        &config,
        scenario.data.clone(),
        scenario.ack.clone(),
    ) {
        Ok(report) => report,
        Err(e) => {
            return Some(Failure {
                kind: FailureKind::Differential,
                detail: format!("net run failed where sim succeeded: {e}"),
            })
        }
    };
    if report.receiver.outcome != DriverOutcome::Completed {
        return Some(Failure {
            kind: FailureKind::Differential,
            detail: "net receiver timed out where sim quiesced".into(),
        });
    }
    if report.output() != scenario.input {
        return Some(Failure {
            kind: FailureKind::Differential,
            detail: format!(
                "net wrote {} bits, sim wrote {}",
                report.output().len(),
                scenario.input.len()
            ),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rstp_core::TimingParams;

    fn params() -> TimingParams {
        TimingParams::from_ticks(1, 2, 6).unwrap()
    }

    // Gamma is deliberately broken under the injected-bug cfg, so the
    // healthy-protocol oracles only hold in a normal build.
    #[cfg(not(rstp_check_inject_ack_bug))]
    #[test]
    fn random_legal_scenarios_pass_every_oracle() {
        let mut rng = StdRng::seed_from_u64(7);
        for kind in [
            ProtocolKind::Alpha,
            ProtocolKind::Beta { k: 4 },
            ProtocolKind::Gamma { k: 4 },
            ProtocolKind::Stenning {
                timeout_steps: None,
            },
        ] {
            for _ in 0..25 {
                let s = Scenario::generate(kind, params(), &mut rng, 12);
                let run = run_scenario(&s, 500_000);
                assert!(
                    run.failure.is_none(),
                    "{}: {}",
                    kind.name(),
                    run.failure.unwrap()
                );
                assert!(run.quiescent);
            }
        }
    }

    // The stabilizing family is deliberately broken under the injected
    // stab-bug cfg; the engine's acceptance test covers that build.
    #[cfg(not(rstp_check_inject_stab_bug))]
    #[test]
    fn stabilizing_scenarios_pass_every_oracle_clean_and_corrupted() {
        let mut rng = StdRng::seed_from_u64(23);
        for kind in [
            ProtocolKind::StabStenning {
                timeout_steps: None,
            },
            ProtocolKind::StabBeta { k: 4 },
        ] {
            let mut corrupted = 0;
            for _ in 0..30 {
                let s = Scenario::generate(kind, params(), &mut rng, 12);
                corrupted += usize::from(s.corruption.is_some());
                let run = run_scenario(&s, 500_000);
                assert!(
                    run.failure.is_none(),
                    "{}: {}",
                    kind.name(),
                    run.failure.unwrap()
                );
                assert!(run.quiescent);
            }
            assert!(
                corrupted > 0,
                "{}: no corrupted scenarios drawn",
                kind.name()
            );
        }
    }

    #[test]
    fn suffix_matchers_measure_what_the_floors_need() {
        let x = [true, false, false, true, true, false];
        // End-aligned: garbage prefix, converged tail.
        let w = [true, false, true, true, false];
        assert_eq!(longest_end_aligned_suffix(&w, &x), 4);
        // Occurrence: one garbage write before X's 4-long tail, and the
        // receiver's end-of-run flush appends garbage after it — the tail
        // is still found, anchored at write index 1.
        let w = [true, false, true, true, false, false];
        assert_eq!(longest_input_tail_occurrence(&w, &x), (4, 1));
        assert_eq!(longest_end_aligned_suffix(&[], &x), 0);
        assert_eq!(longest_input_tail_occurrence(&[], &x), (0, 0));
    }

    #[cfg(not(rstp_check_inject_ack_bug))]
    #[test]
    fn differential_agrees_on_a_scripted_gamma_run() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = Scenario::generate(ProtocolKind::Gamma { k: 4 }, params(), &mut rng, 8);
        assert!(run_scenario(&s, 500_000).failure.is_none());
        let failure = differential_failure(&s, Duration::from_micros(400), Duration::from_secs(20));
        assert!(failure.is_none(), "{}", failure.unwrap());
    }
}
