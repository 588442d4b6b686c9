//! One-call protocol construction, simulation, and checking — plus the
//! worst-case-over-adversaries effort measurement used by every experiment.

use crate::adversary::{DeliveryPolicy, StepPolicy};
use crate::checker::{check_trace, CheckConfig, CheckReport};
use crate::runner::{Outcome, SimError, SimRun, SimSettings, Simulation};
use core::fmt;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rstp_automata::{Automaton, TimeDelta};
use rstp_core::protocols::{
    stab_beta_transmitter, AlphaReceiver, AlphaTransmitter, AltBitReceiver, AltBitTransmitter,
    BetaReceiver, BetaTransmitter, FramedReceiver, FramedTransmitter, GammaReceiver,
    GammaTransmitter, PipelinedReceiver, PipelinedTransmitter, ProtocolError, StabBetaReceiver,
    StabStenningReceiver, StabStenningTransmitter, StenningReceiver, StenningTransmitter,
};
use rstp_core::{Message, RstpAction, TimingParams, TimingParamsExt};

/// Which protocol to instantiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolKind {
    /// `A^α` — Figure 1, one raw bit per `δ1`-step round.
    Alpha,
    /// `A^β(k)` — Figure 3, multiset-coded bursts with counted idling.
    Beta {
        /// Packet alphabet size.
        k: u64,
    },
    /// `A^γ(k)` — Figure 4, multiset-coded bursts clocked by acks.
    Gamma {
        /// Packet alphabet size.
        k: u64,
    },
    /// Alternating-bit baseline (timeout-driven retransmission).
    AltBit {
        /// Retransmission period in steps; `None` = safe default.
        timeout_steps: Option<u64>,
    },
    /// Self-delimiting `A^β(k)` with an in-band length header.
    Framed {
        /// Packet alphabet size.
        k: u64,
    },
    /// The §7 window-optimized `A^β(k)`: wait phase shortened using the
    /// run's `d_lo` (experiment E8).
    BetaWindow {
        /// Packet alphabet size.
        k: u64,
    },
    /// Stenning's \[Ste76\] baseline: unbounded sequence numbers,
    /// loss/dup/reorder-tolerant.
    Stenning {
        /// Retransmission period in steps; `None` = safe default.
        timeout_steps: Option<u64>,
    },
    /// The pipelined active extension `A^δ(k, w)`: window-`w` `gamma` with
    /// tag-carrying bursts (wire alphabet `w·k`).
    Pipelined {
        /// Base packet alphabet size.
        k: u64,
        /// Window size (`2` is the default configuration).
        window: u64,
    },
    /// Self-stabilizing Stenning: tags mod 4 plus a flush/sync recovery
    /// ladder; converges from arbitrary corrupted state.
    StabStenning {
        /// Retransmission period in steps; `None` = safe default.
        timeout_steps: Option<u64>,
    },
    /// Self-stabilizing `A^β(k)`: lengthened inter-burst silence plus
    /// gap-reset framing at the receiver.
    StabBeta {
        /// Packet alphabet size.
        k: u64,
    },
}

impl ProtocolKind {
    /// The protocol's burst size under `params` (1 for the per-message
    /// protocols) — what the `ReverseBurst` adversary should group by.
    #[must_use]
    pub fn burst_size(self, params: TimingParams) -> u64 {
        match self {
            ProtocolKind::Alpha
            | ProtocolKind::AltBit { .. }
            | ProtocolKind::Stenning { .. }
            | ProtocolKind::StabStenning { .. } => 1,
            ProtocolKind::Beta { .. }
            | ProtocolKind::Framed { .. }
            | ProtocolKind::BetaWindow { .. }
            | ProtocolKind::StabBeta { .. } => params.delta1(),
            ProtocolKind::Gamma { .. } | ProtocolKind::Pipelined { .. } => params.delta2(),
        }
    }

    /// A short stable name for tables.
    #[must_use]
    pub fn name(self) -> String {
        match self {
            ProtocolKind::Alpha => "alpha".into(),
            ProtocolKind::Beta { k } => format!("beta(k={k})"),
            ProtocolKind::Gamma { k } => format!("gamma(k={k})"),
            ProtocolKind::AltBit { .. } => "altbit".into(),
            ProtocolKind::Framed { k } => format!("framed(k={k})"),
            ProtocolKind::BetaWindow { k } => format!("beta-window(k={k})"),
            ProtocolKind::Stenning { .. } => "stenning".into(),
            ProtocolKind::Pipelined { k, window } => format!("pipelined(k={k},w={window})"),
            ProtocolKind::StabStenning { .. } => "stab-stenning".into(),
            ProtocolKind::StabBeta { k } => format!("stab-beta(k={k})"),
        }
    }
}

/// Full configuration of one simulated run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Protocol to run.
    pub kind: ProtocolKind,
    /// Timing parameters `(c1, c2, d)`.
    pub params: TimingParams,
    /// Step adversary.
    pub step: StepPolicy,
    /// Delivery adversary.
    pub delivery: DeliveryPolicy,
    /// Delivery-window lower bound in ticks (0 = the paper's classic
    /// model; positive values enable [`ProtocolKind::BetaWindow`]).
    pub d_lo_ticks: u64,
    /// Event budget.
    pub max_events: u64,
    /// Record the full trace (needed for checking).
    pub record_trace: bool,
}

impl Default for RunConfig {
    #[expect(clippy::expect_used, reason = "hardcoded valid parameters")]
    fn default() -> Self {
        RunConfig {
            kind: ProtocolKind::Alpha,
            params: TimingParams::from_ticks(1, 2, 4).expect("valid default params"),
            step: StepPolicy::AllSlow,
            delivery: DeliveryPolicy::MaxDelay,
            d_lo_ticks: 0,
            max_events: 20_000_000,
            record_trace: true,
        }
    }
}

/// Harness-level error: construction or simulation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HarnessError {
    /// Protocol construction failed.
    Protocol(ProtocolError),
    /// The simulation hit a model violation.
    Sim(SimError),
    /// The requested operation does not apply to this protocol kind.
    Unsupported {
        /// Human-readable reason.
        what: String,
    },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Protocol(e) => write!(f, "protocol construction: {e}"),
            HarnessError::Sim(e) => write!(f, "simulation: {e}"),
            HarnessError::Unsupported { what } => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<ProtocolError> for HarnessError {
    fn from(e: ProtocolError) -> Self {
        HarnessError::Protocol(e)
    }
}

impl From<SimError> for HarnessError {
    fn from(e: SimError) -> Self {
        HarnessError::Sim(e)
    }
}

/// A completed, checked run.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// How the run ended.
    pub outcome: Outcome,
    /// Online counters.
    pub metrics: crate::metrics::RunMetrics,
    /// The timed trace (empty when recording was off).
    pub trace: crate::trace::SimTrace,
    /// The checker's verdict (trivially good when recording was off).
    pub report: CheckReport,
}

pub(crate) fn settings_of(cfg: &RunConfig) -> SimSettings {
    SimSettings {
        d_lo: TimeDelta::from_ticks(cfg.d_lo_ticks),
        max_events: cfg.max_events,
        record_trace: cfg.record_trace,
        ..SimSettings::from_params(cfg.params)
    }
}

fn run_pair<T, R>(
    transmitter: T,
    receiver: R,
    input: &[Message],
    cfg: &RunConfig,
    step: &mut dyn crate::adversary::StepAdversary,
    delivery: &mut dyn crate::adversary::DeliveryAdversary,
) -> Result<SimRun, HarnessError>
where
    T: Automaton<Action = RstpAction>,
    R: Automaton<Action = RstpAction>,
{
    let sim = Simulation::new(transmitter, receiver, settings_of(cfg));
    Ok(sim.run(input, step, delivery)?)
}

/// Builds the configured protocol pair and runs it under *caller-supplied*
/// adversaries, ignoring `cfg.step` / `cfg.delivery` — the entry point for
/// scripted scenarios (bug reproducers, the `rstp-check` fuzzer) that need
/// an exact timed execution over any [`ProtocolKind`].
///
/// No trace checking is performed; callers run [`check_trace`] themselves
/// with the expectations their adversary warrants.
///
/// # Errors
///
/// [`HarnessError`] on construction failure or model violation (including
/// an adversary stepping outside `[c1, c2]` or delivering outside the
/// `d`-window).
pub fn run_with_adversaries(
    cfg: &RunConfig,
    input: &[Message],
    step: &mut dyn crate::adversary::StepAdversary,
    delivery: &mut dyn crate::adversary::DeliveryAdversary,
) -> Result<SimRun, HarnessError> {
    match cfg.kind {
        ProtocolKind::Alpha => run_pair(
            AlphaTransmitter::new(cfg.params, input.to_vec()),
            AlphaReceiver::new(),
            input,
            cfg,
            step,
            delivery,
        ),
        ProtocolKind::Beta { k } => run_pair(
            BetaTransmitter::new(cfg.params, k, input)?,
            BetaReceiver::new(cfg.params, k, input.len())?,
            input,
            cfg,
            step,
            delivery,
        ),
        ProtocolKind::Gamma { k } => run_pair(
            GammaTransmitter::new(cfg.params, k, input)?,
            GammaReceiver::new(cfg.params, k, input.len())?,
            input,
            cfg,
            step,
            delivery,
        ),
        ProtocolKind::AltBit { timeout_steps } => run_pair(
            AltBitTransmitter::new(cfg.params, input.to_vec(), timeout_steps),
            AltBitReceiver::new(),
            input,
            cfg,
            step,
            delivery,
        ),
        ProtocolKind::Framed { k } => run_pair(
            FramedTransmitter::new(cfg.params, k, input)?,
            FramedReceiver::new(cfg.params, k)?,
            input,
            cfg,
            step,
            delivery,
        ),
        ProtocolKind::BetaWindow { k } => {
            let ext = window_params(cfg);
            run_pair(
                ext.passive_transmitter(k, input)?,
                ext.passive_receiver(k, input.len())?,
                input,
                cfg,
                step,
                delivery,
            )
        }
        ProtocolKind::Stenning { timeout_steps } => run_pair(
            StenningTransmitter::new(cfg.params, input.to_vec(), timeout_steps),
            StenningReceiver::new(),
            input,
            cfg,
            step,
            delivery,
        ),
        ProtocolKind::StabStenning { timeout_steps } => run_pair(
            StabStenningTransmitter::new(cfg.params, input.to_vec(), timeout_steps),
            StabStenningReceiver::new(),
            input,
            cfg,
            step,
            delivery,
        ),
        ProtocolKind::StabBeta { k } => run_pair(
            stab_beta_transmitter(cfg.params, k, input)?,
            StabBetaReceiver::new(cfg.params, k, input.len())?,
            input,
            cfg,
            step,
            delivery,
        ),
        ProtocolKind::Pipelined { k, window } => run_pair(
            PipelinedTransmitter::with_window(cfg.params, k, window, input)?,
            PipelinedReceiver::with_window(cfg.params, k, window, input.len())?,
            input,
            cfg,
            step,
            delivery,
        ),
    }
}

/// Builds the configured protocol pair, runs it on `input`, and checks the
/// trace.
///
/// The check expects completion and the send/recv bijection except when the
/// delivery policy injects faults (then their absence *is* the
/// observation) or the run exhausted its budget.
///
/// # Errors
///
/// [`HarnessError`] on construction failure or model violation.
pub fn run_configured(cfg: &RunConfig, input: &[Message]) -> Result<RunOutput, HarnessError> {
    let mut step = cfg.step.build(cfg.params);
    let mut delivery = cfg
        .delivery
        .build(TimeDelta::from_ticks(cfg.d_lo_ticks), cfg.params.d());
    let run = run_with_adversaries(cfg, input, step.as_mut(), delivery.as_mut())?;

    let faulty = matches!(
        cfg.delivery,
        DeliveryPolicy::Faulty { .. } | DeliveryPolicy::FaultyFifo { .. }
    );
    let report = if cfg.record_trace {
        let check = CheckConfig {
            d_lo: TimeDelta::from_ticks(cfg.d_lo_ticks),
            expect_complete: !faulty && run.outcome == Outcome::Quiescent,
            expect_bijection: !faulty,
            ..CheckConfig::from_params(cfg.params)
        };
        check_trace(&run.trace, &check)
    } else {
        CheckReport::default()
    };

    Ok(RunOutput {
        outcome: run.outcome,
        metrics: run.metrics,
        trace: run.trace,
        report,
    })
}

#[expect(clippy::expect_used, reason = "RunConfig users validate d_lo <= d")]
fn window_params(cfg: &RunConfig) -> TimingParamsExt {
    let mut ext = TimingParamsExt::from_classic(cfg.params);
    if cfg.d_lo_ticks > 0 {
        ext = TimingParamsExt::new(
            ext.transmitter(),
            ext.receiver(),
            TimeDelta::from_ticks(cfg.d_lo_ticks),
            cfg.params.d(),
        )
        .expect("d_lo <= d validated by RunConfig users");
    }
    ext
}

/// A deterministic pseudorandom input of `n` message bits.
#[must_use]
pub fn random_input(n: usize, seed: u64) -> Vec<Message> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x494E_5054); // "INPT"
    (0..n).map(|_| rng.gen_bool(0.5)).collect()
}

/// The simulator-oracle output for `kind` carrying `input`: the receiver's
/// write sequence `Y` under the default all-slow / max-delay schedule,
/// checker-verified. Real transports (`rstp-net`, `rstp-serve`) compare
/// their outputs against this to indict the stack rather than the input —
/// for a correct protocol it must equal `input` exactly.
///
/// # Errors
///
/// [`HarnessError`] on construction failure, model violation, or a trace
/// the checker rejects.
pub fn expected_output(
    kind: ProtocolKind,
    params: TimingParams,
    input: &[Message],
) -> Result<Vec<Message>, HarnessError> {
    let cfg = RunConfig {
        kind,
        params,
        ..RunConfig::default()
    };
    let out = run_configured(&cfg, input)?;
    if !out.report.all_good() {
        return Err(HarnessError::Sim(SimError::Channel {
            what: format!("oracle trace failed checking: {}", out.report),
        }));
    }
    Ok(out.trace.written())
}

/// The worst effort sample found over the full adversary sweep.
#[derive(Clone, Copy, Debug)]
pub struct EffortSample {
    /// `t(last-send)/n`, maximized over the sweep.
    pub effort: f64,
    /// Receiver-side `t(last-write)/n` for the same worst run.
    pub learn_effort: f64,
    /// The step policy achieving the maximum.
    pub step: StepPolicy,
    /// The delivery policy achieving the maximum.
    pub delivery: DeliveryPolicy,
}

/// Measures the protocol's effort on one input, maximized over the
/// deterministic adversary sweep plus seeded-random adversaries
/// (approximating the `max` over `good(A(n))` of paper §4).
///
/// # Errors
///
/// [`HarnessError`] if any sweep run fails; every run is also
/// checker-verified and a violation is reported as a
/// [`SimError::Channel`]-style harness failure would be — callers can rely
/// on returned samples coming from `good(A)` traces.
#[expect(clippy::expect_used, reason = "the sweep is nonempty, so best is set")]
pub fn worst_case_effort(
    kind: ProtocolKind,
    params: TimingParams,
    input: &[Message],
    seed: u64,
) -> Result<EffortSample, HarnessError> {
    let mut best: Option<EffortSample> = None;
    let burst = kind.burst_size(params);
    for step in StepPolicy::sweep(seed) {
        for delivery in DeliveryPolicy::sweep(burst, seed) {
            let cfg = RunConfig {
                kind,
                params,
                step,
                delivery,
                ..RunConfig::default()
            };
            let out = run_configured(&cfg, input)?;
            debug_assert!(out.report.all_good(), "{}: {}", kind.name(), out.report);
            let effort = out.metrics.effort(input.len()).unwrap_or(0.0);
            let learn = out.metrics.learn_effort(input.len()).unwrap_or(0.0);
            if best.map_or(true, |b| effort > b.effort) {
                best = Some(EffortSample {
                    effort,
                    learn_effort: learn,
                    step,
                    delivery,
                });
            }
        }
    }
    Ok(best.expect("sweep is nonempty"))
}

/// Effort samples for growing `n` — the experiment tables' `per-n` series,
/// whose tail approximates the sup-lim of paper §4.
///
/// # Errors
///
/// Propagates [`worst_case_effort`] failures.
pub fn effort_series(
    kind: ProtocolKind,
    params: TimingParams,
    ns: &[usize],
    seed: u64,
) -> Result<Vec<(usize, EffortSample)>, HarnessError> {
    ns.iter()
        .map(|&n| {
            let input = random_input(n, seed.wrapping_add(n as u64));
            worst_case_effort(kind, params, &input, seed).map(|s| (n, s))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstp_core::bounds;

    fn params() -> TimingParams {
        TimingParams::from_ticks(1, 2, 6).unwrap() // δ1 = 6, δ2 = 3
    }

    #[test]
    fn every_protocol_round_trips_under_default_adversaries() {
        let input = random_input(40, 7);
        for kind in [
            ProtocolKind::Alpha,
            ProtocolKind::Beta { k: 2 },
            ProtocolKind::Beta { k: 4 },
            ProtocolKind::Gamma { k: 2 },
            ProtocolKind::Gamma { k: 8 },
            ProtocolKind::AltBit {
                timeout_steps: None,
            },
            ProtocolKind::Framed { k: 4 },
            ProtocolKind::Stenning {
                timeout_steps: None,
            },
            ProtocolKind::Pipelined { k: 4, window: 2 },
            ProtocolKind::StabStenning {
                timeout_steps: None,
            },
            ProtocolKind::StabBeta { k: 4 },
        ] {
            let cfg = RunConfig {
                kind,
                params: params(),
                ..RunConfig::default()
            };
            let out = run_configured(&cfg, &input).unwrap();
            assert_eq!(out.outcome, Outcome::Quiescent, "{}", kind.name());
            assert!(out.report.all_good(), "{}: {}", kind.name(), out.report);
            assert_eq!(out.trace.written(), input, "{}", kind.name());
        }
    }

    #[test]
    fn every_protocol_survives_the_full_adversary_sweep() {
        let p = params();
        let input = random_input(24, 99);
        for kind in [
            ProtocolKind::Alpha,
            ProtocolKind::Beta { k: 3 },
            ProtocolKind::Gamma { k: 3 },
            ProtocolKind::Pipelined { k: 3, window: 3 },
        ] {
            let burst = kind.burst_size(p);
            for step in StepPolicy::sweep(1) {
                for delivery in DeliveryPolicy::sweep(burst, 2) {
                    let cfg = RunConfig {
                        kind,
                        params: p,
                        step,
                        delivery,
                        ..RunConfig::default()
                    };
                    let out = run_configured(&cfg, &input).unwrap();
                    assert!(
                        out.report.all_good(),
                        "{} under {step:?}/{delivery:?}: {}",
                        kind.name(),
                        out.report
                    );
                    assert_eq!(out.trace.written(), input);
                }
            }
        }
    }

    #[test]
    fn measured_beta_effort_sits_in_the_paper_sandwich() {
        let p = params();
        let k = 4;
        let input = random_input(120, 3);
        let sample = worst_case_effort(ProtocolKind::Beta { k }, p, &input, 5).unwrap();
        let upper = bounds::passive_upper(p, k);
        // Finite-n measurement must not exceed the per-round guarantee.
        assert!(
            sample.effort <= upper + 1e-9,
            "effort {} > upper {upper}",
            sample.effort
        );
    }

    #[test]
    fn measured_gamma_effort_below_active_upper() {
        let p = params();
        let k = 4;
        let input = random_input(96, 4);
        let sample = worst_case_effort(ProtocolKind::Gamma { k }, p, &input, 6).unwrap();
        let upper = bounds::active_upper(p, k);
        assert!(
            sample.effort <= upper + 1e-9,
            "effort {} > upper {upper}",
            sample.effort
        );
    }

    #[test]
    fn beta_window_outperforms_classic_beta_when_d_lo_is_large() {
        let p = params();
        let input = random_input(60, 8);
        let mk = |kind, d_lo| RunConfig {
            kind,
            params: p,
            d_lo_ticks: d_lo,
            ..RunConfig::default()
        };
        // Nearly deterministic delay: window [5, 6].
        let classic = run_configured(&mk(ProtocolKind::Beta { k: 4 }, 5), &input).unwrap();
        let window = run_configured(&mk(ProtocolKind::BetaWindow { k: 4 }, 5), &input).unwrap();
        assert!(classic.report.all_good(), "{}", classic.report);
        assert!(window.report.all_good(), "{}", window.report);
        assert_eq!(window.trace.written(), input);
        let e_classic = classic.metrics.effort(input.len()).unwrap();
        let e_window = window.metrics.effort(input.len()).unwrap();
        assert!(
            e_window < e_classic,
            "window {e_window} !< classic {e_classic}"
        );
    }

    #[test]
    fn pipelining_beats_stop_and_wait_when_tags_are_cheap() {
        // The parity tag spends alphabet (2k wire symbols) that could have
        // carried data instead. When δ2 >> k, log2 μ_2k(δ2) is much larger
        // than log2 μ_k(δ2) and the tag is a bad deal; when k >> δ2 the
        // tag costs ~δ2 bits out of ~δ2·log2(k) and pipelining's halved
        // handshake dominates. Test the winning regime: δ2 = 2, k = 32
        // (fair comparison: gamma gets the same 64-symbol wire alphabet).
        let p = TimingParams::from_ticks(1, 12, 24).unwrap(); // δ2 = 2
        let input = random_input(240, 12);
        let gamma = worst_case_effort(ProtocolKind::Gamma { k: 64 }, p, &input, 2).unwrap();
        let pipe =
            worst_case_effort(ProtocolKind::Pipelined { k: 32, window: 2 }, p, &input, 2).unwrap();
        assert!(
            pipe.effort < gamma.effort * 0.8,
            "pipelined {} should be well under gamma {}",
            pipe.effort,
            gamma.effort
        );
    }

    #[test]
    fn stenning_survives_dup_plus_reorder_where_altbit_fails() {
        // The [WZ89] regime: duplication + reordering. Alternating-bit's
        // 1-bit tags alias; Stenning's unbounded seqs cannot.
        let p = TimingParams::from_ticks(1, 2, 6).unwrap();
        let input = random_input(50, 13);
        let cfg = |kind| RunConfig {
            kind,
            params: p,
            delivery: DeliveryPolicy::Faulty {
                loss: 0.15,
                duplication: 0.3,
                seed: 31,
            },
            max_events: 3_000_000,
            ..RunConfig::default()
        };
        let stenning = run_configured(
            &cfg(ProtocolKind::Stenning {
                timeout_steps: None,
            }),
            &input,
        )
        .unwrap();
        assert_eq!(stenning.outcome, Outcome::Quiescent);
        assert_eq!(
            stenning.trace.written(),
            input,
            "stenning must deliver X exactly under loss+dup+reorder"
        );
    }

    #[test]
    fn effort_series_is_reproducible() {
        let p = params();
        let a = effort_series(ProtocolKind::Alpha, p, &[8, 16], 42).unwrap();
        let b = effort_series(ProtocolKind::Alpha, p, &[8, 16], 42).unwrap();
        assert_eq!(a.len(), 2);
        for ((na, sa), (nb, sb)) in a.iter().zip(&b) {
            assert_eq!(na, nb);
            assert_eq!(sa.effort, sb.effort);
        }
    }

    #[test]
    fn random_input_is_seeded() {
        assert_eq!(random_input(32, 1), random_input(32, 1));
        assert_ne!(random_input(32, 1), random_input(32, 2));
        assert_eq!(random_input(0, 1).len(), 0);
    }

    #[test]
    fn kind_metadata() {
        let p = params();
        assert_eq!(ProtocolKind::Alpha.burst_size(p), 1);
        assert_eq!(ProtocolKind::Beta { k: 2 }.burst_size(p), 6);
        assert_eq!(ProtocolKind::Gamma { k: 2 }.burst_size(p), 3);
        assert_eq!(ProtocolKind::Beta { k: 2 }.name(), "beta(k=2)");
        assert_eq!(
            ProtocolKind::AltBit {
                timeout_steps: None
            }
            .name(),
            "altbit"
        );
        assert_eq!(
            ProtocolKind::StabStenning {
                timeout_steps: None
            }
            .burst_size(p),
            1
        );
        assert_eq!(ProtocolKind::StabBeta { k: 4 }.burst_size(p), 6);
        assert_eq!(
            ProtocolKind::StabStenning {
                timeout_steps: None
            }
            .name(),
            "stab-stenning"
        );
        assert_eq!(ProtocolKind::StabBeta { k: 4 }.name(), "stab-beta(k=4)");
    }
}
