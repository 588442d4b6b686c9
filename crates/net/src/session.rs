//! Whole-transfer orchestration: build a protocol pair, drive both
//! endpoints over a real transport, and collect a joint report.
//!
//! [`transmitter_endpoint`]/[`receiver_endpoint`] build either role of
//! any wire protocol behind one [`SessionEndpoint`] type, ready for the
//! driver's [`run_sessions`] loop. [`run_transmitter`]/[`run_receiver`]
//! are its one-session case over any [`Transport`] — the CLI's
//! two-terminal `net send`/`net recv` commands use them directly over
//! UDP. [`run_transfer_mem`] wires both ends of a [`MemTransport`] pair
//! together on two threads sharing one clock epoch, which is the
//! deterministic in-process path the benchmarks and the sim-versus-net
//! differential test use.

use crate::chan::ChannelConfig;
use crate::clock::TickClock;
use crate::driver::{
    run_sessions, Driven, DriverConfig, DriverReport, Pace, Session, SessionEndpoint,
};
use crate::error::NetError;
use crate::mem::MemTransport;
use crate::transport::Transport;
use crate::wire::{ProtocolId, WireCodec};
use rstp_automata::Automaton;
use rstp_core::protocols::{
    stab_beta_transmitter, AlphaReceiver, AlphaTransmitter, AltBitReceiver, AltBitTransmitter,
    BetaReceiver, BetaTransmitter, FramedReceiver, FramedTransmitter, GammaReceiver,
    GammaTransmitter, PipelinedReceiver, PipelinedTransmitter, StabBetaReceiver,
    StabStenningReceiver, StabStenningTransmitter, StenningReceiver, StenningTransmitter,
};
use rstp_core::{Message, RstpAction, TimingParams};
use rstp_sim::harness::ProtocolKind;
use rstp_sim::ScriptedDelivery;
use std::thread;
use std::time::Duration;

/// The wire identity `(protocol id, k)` of a [`ProtocolKind`].
///
/// # Errors
///
/// [`NetError::Unsupported`] for [`ProtocolKind::BetaWindow`]: its wait
/// phase depends on a per-run `d_lo` that the wire header does not carry,
/// so the two endpoints could silently disagree about timing.
pub fn wire_identity(kind: ProtocolKind) -> Result<(ProtocolId, u64), NetError> {
    match kind {
        ProtocolKind::Alpha => Ok((ProtocolId::Alpha, 0)),
        ProtocolKind::Beta { k } => Ok((ProtocolId::Beta, k)),
        ProtocolKind::Gamma { k } => Ok((ProtocolId::Gamma, k)),
        ProtocolKind::AltBit { .. } => Ok((ProtocolId::AltBit, 0)),
        ProtocolKind::Framed { k } => Ok((ProtocolId::Framed, k)),
        ProtocolKind::Stenning { .. } => Ok((ProtocolId::Stenning, 0)),
        ProtocolKind::Pipelined { k, .. } => Ok((ProtocolId::Pipelined, k)),
        ProtocolKind::StabStenning { .. } => Ok((ProtocolId::StabStenning, 0)),
        ProtocolKind::StabBeta { k } => Ok((ProtocolId::StabBeta, k)),
        ProtocolKind::BetaWindow { .. } => Err(NetError::Unsupported {
            what: "beta-window needs an out-of-band d_lo agreement; \
                   run it in the simulator instead"
                .into(),
        }),
    }
}

/// The frame codec both endpoints of a `kind` transfer must use.
///
/// # Errors
///
/// [`NetError`] if the protocol is unsupported on the wire or `k` exceeds
/// the header field.
pub fn codec_for(kind: ProtocolKind) -> Result<WireCodec, NetError> {
    let (id, k) = wire_identity(kind)?;
    Ok(WireCodec::new(id, k)?)
}

/// The transmitter endpoint of `kind` carrying `input`.
///
/// # Errors
///
/// [`NetError::Unsupported`] for [`ProtocolKind::BetaWindow`] (see
/// [`wire_identity`]), or a construction error from the protocol.
pub fn transmitter_endpoint(
    kind: ProtocolKind,
    params: TimingParams,
    input: &[Message],
) -> Result<Box<dyn SessionEndpoint>, NetError> {
    Ok(match kind {
        ProtocolKind::Alpha => boxed(AlphaTransmitter::new(params, input.to_vec())),
        ProtocolKind::Beta { k } => boxed(BetaTransmitter::new(params, k, input)?),
        ProtocolKind::Gamma { k } => boxed(GammaTransmitter::new(params, k, input)?),
        ProtocolKind::AltBit { timeout_steps } => boxed(AltBitTransmitter::new(
            params,
            input.to_vec(),
            timeout_steps,
        )),
        ProtocolKind::Framed { k } => boxed(FramedTransmitter::new(params, k, input)?),
        ProtocolKind::Stenning { timeout_steps } => boxed(StenningTransmitter::new(
            params,
            input.to_vec(),
            timeout_steps,
        )),
        ProtocolKind::Pipelined { k, window } => {
            boxed(PipelinedTransmitter::with_window(params, k, window, input)?)
        }
        ProtocolKind::StabStenning { timeout_steps } => boxed(StabStenningTransmitter::new(
            params,
            input.to_vec(),
            timeout_steps,
        )),
        ProtocolKind::StabBeta { k } => boxed(stab_beta_transmitter(params, k, input)?),
        ProtocolKind::BetaWindow { .. } => {
            return Err(wire_identity(kind).expect_err("unsupported"))
        }
    })
}

/// The receiver endpoint of `kind` expecting `n` messages.
///
/// # Errors
///
/// [`NetError::Unsupported`] for [`ProtocolKind::BetaWindow`] (see
/// [`wire_identity`]), or a construction error from the protocol.
pub fn receiver_endpoint(
    kind: ProtocolKind,
    params: TimingParams,
    n: usize,
) -> Result<Box<dyn SessionEndpoint>, NetError> {
    Ok(match kind {
        ProtocolKind::Alpha => boxed(AlphaReceiver::new()),
        ProtocolKind::Beta { k } => boxed(BetaReceiver::new(params, k, n)?),
        ProtocolKind::Gamma { k } => boxed(GammaReceiver::new(params, k, n)?),
        ProtocolKind::AltBit { .. } => boxed(AltBitReceiver::new()),
        ProtocolKind::Framed { k } => boxed(FramedReceiver::new(params, k)?),
        ProtocolKind::Stenning { .. } => boxed(StenningReceiver::new()),
        ProtocolKind::Pipelined { k, window } => {
            boxed(PipelinedReceiver::with_window(params, k, window, n)?)
        }
        ProtocolKind::StabStenning { .. } => boxed(StabStenningReceiver::new()),
        ProtocolKind::StabBeta { k } => boxed(StabBetaReceiver::new(params, k, n)?),
        ProtocolKind::BetaWindow { .. } => {
            return Err(wire_identity(kind).expect_err("unsupported"))
        }
    })
}

fn boxed<A>(automaton: A) -> Box<dyn SessionEndpoint>
where
    A: Automaton<Action = RstpAction> + Send + 'static,
    A::State: Send,
{
    Box::new(Driven::new(automaton))
}

/// Drives the transmitter endpoint of `kind` carrying `input` over
/// `transport` — the one-session case of [`run_sessions`].
///
/// # Errors
///
/// [`NetError`] on construction failure, transport failure, or a model
/// violation.
pub fn run_transmitter<T: Transport>(
    kind: ProtocolKind,
    params: TimingParams,
    input: &[Message],
    transport: &mut T,
    clock: TickClock,
    config: &DriverConfig,
) -> Result<DriverReport, NetError> {
    let session = Session::transmitter(transmitter_endpoint(kind, params, input)?, transport);
    run_one(session, clock, config)
}

/// Drives the receiver endpoint of `kind` expecting `n` messages over
/// `transport` — the one-session case of [`run_sessions`].
///
/// # Errors
///
/// [`NetError`] on construction failure, transport failure, or a model
/// violation.
pub fn run_receiver<T: Transport>(
    kind: ProtocolKind,
    params: TimingParams,
    n: usize,
    transport: &mut T,
    clock: TickClock,
    config: &DriverConfig,
) -> Result<DriverReport, NetError> {
    let session = Session::receiver(receiver_endpoint(kind, params, n)?, transport, n);
    run_one(session, clock, config)
}

fn run_one<T: Transport>(
    session: Session<T>,
    clock: TickClock,
    config: &DriverConfig,
) -> Result<DriverReport, NetError> {
    run_sessions(vec![session], clock, config)?
        .pop()
        .ok_or_else(|| NetError::Thread {
            what: "the driver returned no report".into(),
        })
}

/// Configuration of an in-process transfer.
#[derive(Clone, Copy, Debug)]
pub struct TransferConfig {
    /// Timing parameters `(c1, c2, d)`.
    pub params: TimingParams,
    /// Wall-clock length of one tick.
    pub tick: Duration,
    /// Channel behaviour between the endpoints.
    pub channel: ChannelConfig,
    /// Step pace of both endpoints.
    pub pace: Pace,
    /// Hard wall-clock cap for each endpoint.
    pub max_wall: Duration,
}

impl TransferConfig {
    /// Slow-paced transfer over a reliable `[0, d]` channel — the regime
    /// the worst-case bounds are stated against.
    pub fn new(params: TimingParams, tick: Duration, seed: u64) -> Self {
        TransferConfig {
            params,
            tick,
            channel: ChannelConfig::reliable(params, tick, seed),
            pace: Pace::Slow,
            max_wall: Duration::from_secs(60),
        }
    }

    /// Replaces the channel model.
    pub fn with_channel(mut self, channel: ChannelConfig) -> Self {
        self.channel = channel;
        self
    }

    /// Replaces the pace.
    pub fn with_pace(mut self, pace: Pace) -> Self {
        self.pace = pace;
        self
    }
}

/// The joint outcome of a completed in-process transfer.
#[derive(Clone, Debug)]
pub struct TransferReport {
    /// The transmitter endpoint's report.
    pub transmitter: DriverReport,
    /// The receiver endpoint's report.
    pub receiver: DriverReport,
}

impl TransferReport {
    /// The receiver's output sequence `Y`.
    pub fn output(&self) -> &[Message] {
        &self.receiver.written
    }
}

/// Transfers `input` through `kind` over an in-process [`MemTransport`]
/// pair, both endpoints on their own thread sharing one clock epoch.
///
/// # Errors
///
/// [`NetError`] from either endpoint; a panicking endpoint thread is
/// reported as [`NetError::Thread`].
pub fn run_transfer_mem(
    kind: ProtocolKind,
    input: &[Message],
    config: &TransferConfig,
) -> Result<TransferReport, NetError> {
    let codec = codec_for(kind)?;
    let ends = MemTransport::pair(codec, config.channel);
    run_transfer_over(kind, input, config, ends)
}

/// Like [`run_transfer_mem`], but the two channel directions replay
/// explicit [`ScriptedDelivery`] plans instead of sampling the configured
/// channel: `data_plan` governs transmitter → receiver packets, `ack_plan`
/// the reverse direction. This is the wall-clock half of an `rstp-check`
/// differential scenario — the same plans drive the simulator through
/// `rstp_sim::ScriptedDeliveryAdversary`, so a divergence between the two
/// outputs indicts the stack, not the schedule.
///
/// # Errors
///
/// [`NetError`] from either endpoint; a panicking endpoint thread is
/// reported as [`NetError::Thread`].
pub fn run_transfer_mem_scripted(
    kind: ProtocolKind,
    input: &[Message],
    config: &TransferConfig,
    data_plan: ScriptedDelivery,
    ack_plan: ScriptedDelivery,
) -> Result<TransferReport, NetError> {
    let codec = codec_for(kind)?;
    let ends = MemTransport::pair_scripted(codec, config.tick, data_plan, ack_plan);
    run_transfer_over(kind, input, config, ends)
}

fn run_transfer_over(
    kind: ProtocolKind,
    input: &[Message],
    config: &TransferConfig,
    (mut t_end, mut r_end): (MemTransport, MemTransport),
) -> Result<TransferReport, NetError> {
    // Anchor tick 0 slightly in the future so both threads are running
    // before their first deadline.
    let t_clock = TickClock::start_after(Duration::from_millis(2), config.tick);
    let r_clock = TickClock::with_epoch(t_clock.epoch(), config.tick);
    let base = DriverConfig::new(config.params, config.tick)
        .with_pace(config.pace)
        .with_max_wall(config.max_wall);
    let params = config.params;
    let n = input.len();
    let t_input = input.to_vec();
    let t_cfg = base;
    let r_cfg = base;

    let t_handle = thread::Builder::new()
        .name("rstp-net-transmitter".into())
        .spawn(move || run_transmitter(kind, params, &t_input, &mut t_end, t_clock, &t_cfg))
        .map_err(|e| NetError::Thread {
            what: format!("spawn transmitter: {e}"),
        })?;
    let r_handle = thread::Builder::new()
        .name("rstp-net-receiver".into())
        .spawn(move || run_receiver(kind, params, n, &mut r_end, r_clock, &r_cfg))
        .map_err(|e| NetError::Thread {
            what: format!("spawn receiver: {e}"),
        })?;

    let transmitter = t_handle.join().map_err(|_| NetError::Thread {
        what: "transmitter panicked".into(),
    })??;
    let receiver = r_handle.join().map_err(|_| NetError::Thread {
        what: "receiver panicked".into(),
    })??;
    Ok(TransferReport {
        transmitter,
        receiver,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::DriverOutcome;
    use rstp_sim::harness::random_input;

    fn params() -> TimingParams {
        TimingParams::from_ticks(1, 2, 4).expect("valid")
    }

    fn quick_config(seed: u64) -> TransferConfig {
        TransferConfig::new(params(), Duration::from_micros(200), seed)
    }

    #[test]
    fn beta_transfer_reproduces_the_input() {
        let input = random_input(48, 5);
        let report = run_transfer_mem(ProtocolKind::Beta { k: 4 }, &input, &quick_config(5))
            .expect("transfer");
        assert_eq!(report.output(), input);
        assert_eq!(report.transmitter.outcome, DriverOutcome::Completed);
        assert_eq!(report.receiver.outcome, DriverOutcome::Completed);
        assert!(report.transmitter.data_sends > 0);
    }

    #[test]
    fn gamma_transfer_reproduces_the_input() {
        let input = random_input(32, 9);
        let report = run_transfer_mem(ProtocolKind::Gamma { k: 4 }, &input, &quick_config(9))
            .expect("transfer");
        assert_eq!(report.output(), input);
        assert!(report.receiver.ack_sends > 0, "gamma receivers ack");
        assert!(report.transmitter.recvs > 0, "transmitter saw the acks");
    }

    #[test]
    fn alpha_transfer_reproduces_the_input() {
        let input = random_input(16, 3);
        let report =
            run_transfer_mem(ProtocolKind::Alpha, &input, &quick_config(3)).expect("transfer");
        assert_eq!(report.output(), input);
        assert_eq!(report.transmitter.data_sends, 16);
    }

    #[test]
    fn scripted_transfer_matches_the_plain_one() {
        // The same input over a scripted eager plan must reproduce the
        // input exactly, like the sampled channel does.
        let input = random_input(24, 11);
        let report = run_transfer_mem_scripted(
            ProtocolKind::Gamma { k: 4 },
            &input,
            &quick_config(11),
            ScriptedDelivery::deliver_all(&[0, 4, 2, 0, 3], 0),
            ScriptedDelivery::deliver_all(&[], 0),
        )
        .expect("transfer");
        assert_eq!(report.output(), input);
        assert_eq!(report.receiver.outcome, DriverOutcome::Completed);
    }

    #[test]
    fn empty_input_completes_immediately() {
        let report =
            run_transfer_mem(ProtocolKind::Alpha, &[], &quick_config(1)).expect("transfer");
        assert_eq!(report.output(), &[] as &[Message]);
        assert_eq!(report.transmitter.data_sends, 0);
    }

    #[test]
    fn beta_window_is_rejected() {
        let err = run_transfer_mem(ProtocolKind::BetaWindow { k: 4 }, &[true], &quick_config(1))
            .expect_err("unsupported");
        assert!(matches!(err, NetError::Unsupported { .. }));
    }

    #[test]
    fn wire_identities_are_stable() {
        assert_eq!(
            wire_identity(ProtocolKind::Beta { k: 7 }).expect("supported"),
            (ProtocolId::Beta, 7)
        );
        assert_eq!(
            wire_identity(ProtocolKind::Pipelined { k: 3, window: 2 }).expect("supported"),
            (ProtocolId::Pipelined, 3)
        );
        assert!(wire_identity(ProtocolKind::BetaWindow { k: 2 }).is_err());
    }
}
