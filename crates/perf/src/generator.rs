//! The open-loop load generator: one thread steps every session's
//! transmitter automaton on a fixed schedule.
//!
//! The generator owns each session's `rstp_core` transmitter and its
//! [`HubClientTransport`]. It wakes once per slot of the [`Grid`], and
//! for every session whose step is due it does what the
//! single-session driver does in one step: applies every delivered
//! frame as a `recv` input, then fires the unique enabled local action,
//! sending any packet stamped with the step's *scheduled* time. A
//! session is finished when its transmitter quiesces (no enabled
//! action).

use crate::pace::{Grid, Readiness, SessionPace};
use crate::procfs;
use crate::trace::SpanBuf;
use rstp_automata::Automaton;
use rstp_core::protocols::{
    BetaTransmitter, BetaTransmitterState, GammaTransmitter, GammaTransmitterState,
    StenningTransmitter, StenningTransmitterState,
};
use rstp_core::{Message, Packet, RstpAction, SessionId, TimingParams};
use rstp_net::{LatencyHistogram, TickClock, Transport};
use rstp_serve::HubClientTransport;
use rstp_sim::ProtocolKind;
use std::time::Duration;

/// A transmitter automaton with its current state.
#[derive(Debug)]
pub enum Transmitter {
    /// `A^β(k)`.
    Beta(BetaTransmitter, BetaTransmitterState),
    /// `A^γ(k)`.
    Gamma(GammaTransmitter, GammaTransmitterState),
    /// Stenning's protocol.
    Stenning(StenningTransmitter, StenningTransmitterState),
}

fn fire<A: Automaton<Action = RstpAction>>(
    automaton: &A,
    state: &mut A::State,
) -> Result<Option<RstpAction>, String> {
    let enabled = automaton.enabled(state);
    let action = match enabled.as_slice() {
        [] => return Ok(None),
        [a] => *a,
        many => return Err(format!("determinism violation: {many:?} enabled")),
    };
    *state = automaton.step(state, &action).map_err(|e| e.to_string())?;
    Ok(Some(action))
}

fn deliver<A: Automaton<Action = RstpAction>>(
    automaton: &A,
    state: &mut A::State,
    packet: Packet,
) -> Result<(), String> {
    *state = automaton
        .step(state, &RstpAction::Recv(packet))
        .map_err(|e| e.to_string())?;
    Ok(())
}

impl Transmitter {
    /// Builds (and encodes the whole input into) the transmitter of
    /// `kind` carrying `input`.
    ///
    /// # Errors
    ///
    /// For protocols the benchmark does not drive, or a construction
    /// error from the protocol.
    pub fn new(
        kind: ProtocolKind,
        params: TimingParams,
        input: &[Message],
    ) -> Result<Self, String> {
        Ok(match kind {
            ProtocolKind::Beta { k } => {
                let t = BetaTransmitter::new(params, k, input).map_err(|e| e.to_string())?;
                let s = t.initial_state();
                Transmitter::Beta(t, s)
            }
            ProtocolKind::Gamma { k } => {
                let t = GammaTransmitter::new(params, k, input).map_err(|e| e.to_string())?;
                let s = t.initial_state();
                Transmitter::Gamma(t, s)
            }
            ProtocolKind::Stenning { timeout_steps } => {
                let t = StenningTransmitter::new(params, input.to_vec(), timeout_steps);
                let s = t.initial_state();
                Transmitter::Stenning(t, s)
            }
            other => return Err(format!("no generator transmitter for {}", other.name())),
        })
    }

    /// Applies a delivered packet as a `recv` input.
    ///
    /// # Errors
    ///
    /// The automaton rejecting the input.
    pub fn recv(&mut self, packet: Packet) -> Result<(), String> {
        match self {
            Transmitter::Beta(t, s) => deliver(t, s, packet),
            Transmitter::Gamma(t, s) => deliver(t, s, packet),
            Transmitter::Stenning(t, s) => deliver(t, s, packet),
        }
    }

    /// Fires the unique enabled local action; `None` once quiescent.
    ///
    /// # Errors
    ///
    /// A determinism violation or a rejected step.
    pub fn step(&mut self) -> Result<Option<RstpAction>, String> {
        match self {
            Transmitter::Beta(t, s) => fire(t, s),
            Transmitter::Gamma(t, s) => fire(t, s),
            Transmitter::Stenning(t, s) => fire(t, s),
        }
    }
}

/// One client session as the generator drives it.
pub struct GenSession {
    id: SessionId,
    tx: Transmitter,
    transport: HubClientTransport,
    pace: SessionPace,
    traced: bool,
    done: bool,
}

impl GenSession {
    /// A session stepping `tx` over `transport` from `first_tick` on;
    /// `traced` records its steps span by span.
    #[must_use]
    pub fn new(
        id: SessionId,
        tx: Transmitter,
        transport: HubClientTransport,
        first_tick: u64,
        traced: bool,
    ) -> Self {
        GenSession {
            id,
            tx,
            transport,
            pace: SessionPace::new(first_tick),
            traced,
            done: false,
        }
    }
}

/// What the generator observed during one wave.
#[derive(Debug)]
pub struct GenReport {
    /// Transmitter steps taken.
    pub steps: u64,
    /// Schedule re-anchors after a stall longer than a gap.
    pub reanchors: u64,
    /// Due steps held back by the `c1` guard.
    pub guarded: u64,
    /// Wakes whose window closed before every due session had stepped
    /// (the rest waited for a later tick).
    pub overruns: u64,
    /// How late each wake ran past its grid time, in µs.
    pub late: LatencyHistogram,
    /// Generator thread CPU, ns.
    pub cpu_ns: u64,
    /// Sessions whose transmitter had not quiesced at the wall cap.
    pub unfinished: u64,
    /// The thread started after the clock epoch (set-up overran the
    /// headroom, so the first steps were already late).
    pub started_late: bool,
    /// A transport or automaton failure, if any.
    pub error: Option<String>,
    /// Spans recorded on this thread.
    pub spans: SpanBuf,
}

/// Static settings of one generator run.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// The wave clock (shared with the server, so stamps compare).
    pub clock: TickClock,
    /// The step grid.
    pub grid: Grid,
    /// Give up on unfinished sessions after this long past the epoch.
    pub max_wall: Duration,
    /// Wave index (span attribute).
    pub wave: u32,
    /// Parent span of every generator tick span.
    pub parent_span: u64,
}

/// Steps every session to completion on its schedule. Runs on the
/// calling thread — the wave spawns exactly one thread for it.
#[must_use]
pub fn run_generator(sessions: &mut [GenSession], cfg: GenConfig, mut spans: SpanBuf) -> GenReport {
    let cpu_start = procfs::thread_cpu_ns();
    let grid = cfg.grid;
    let clock = cfg.clock;
    let wave = Some(cfg.wave);
    let mut ready: Vec<usize> = Vec::with_capacity(sessions.len());
    let mut r = GenReport {
        steps: 0,
        reanchors: 0,
        guarded: 0,
        overruns: 0,
        late: LatencyHistogram::new(),
        cpu_ns: 0,
        unfinished: 0,
        started_late: clock.now_micros() > 0,
        error: None,
        spans: SpanBuf::new(clock, 0, 0),
    };

    while let Some(earliest) = sessions
        .iter()
        .filter(|s| !s.done)
        .map(|s| s.pace.earliest_us(&grid))
        .min()
    {
        if clock.epoch().elapsed() > cfg.max_wall {
            r.unfinished = sessions.iter().filter(|s| !s.done).count() as u64;
            break;
        }
        let wake_us = grid.next_open(earliest, clock.now_micros());
        clock.sleep_until(clock.epoch() + Duration::from_micros(wake_us));
        r.late.record(clock.now_micros().saturating_sub(wake_us));

        let now = clock.now_micros();
        if now >= wake_us + grid.window_us {
            r.overruns += 1;
            continue;
        }
        let tick_start = spans.start();
        let tick_span = spans.open();
        ready.clear();
        for (i, s) in sessions.iter().enumerate().filter(|(_, s)| !s.done) {
            match s.pace.readiness(&grid, now) {
                Readiness::NotDue => {}
                Readiness::Guarded => r.guarded += 1,
                Readiness::Ready => ready.push(i),
            }
        }
        // Drain every ready session's inbox in one tight pass before any
        // step, while the shard sleeps between ticks.
        for &i in &ready {
            let s = &mut sessions[i];
            if let Err(e) = drain(s, &mut spans, tick_span, wave) {
                r.error = Some(format!("session {}: {e}", s.id));
            }
        }
        for &i in &ready {
            let now = clock.now_micros();
            if now >= wake_us + grid.window_us {
                r.overruns += 1;
                break;
            }
            let s = &mut sessions[i];
            if let Err(e) = step(s, &mut r, &mut spans, tick_span, &grid, wave) {
                r.error = Some(format!("session {}: {e}", s.id));
            }
            if s.pace.stepped(&grid, now) {
                r.reanchors += 1;
            }
        }
        spans.close(
            tick_span,
            "gen.tick",
            cfg.parent_span,
            tick_start,
            wave,
            None,
        );
        if r.error.is_some() {
            break;
        }
    }

    r.cpu_ns = match (cpu_start, procfs::thread_cpu_ns()) {
        (Ok(a), Ok(b)) => b.saturating_sub(a),
        (Err(e), _) | (_, Err(e)) => {
            r.error.get_or_insert(e);
            0
        }
    };
    r.spans = spans;
    r
}

/// Applies every frame delivered to the session as a `recv` input — the
/// driver's drain before a step.
fn drain(
    s: &mut GenSession,
    spans: &mut SpanBuf,
    parent: u64,
    wave: Option<u32>,
) -> Result<(), String> {
    let traced = s.traced && spans.enabled();
    let t = if traced { spans.start() } else { 0 };
    while let Some(frame) = s.transport.poll_recv().map_err(|e| e.to_string())? {
        s.tx.recv(frame.packet)?;
    }
    if traced {
        spans.leaf("hub.poll", parent, t, wave, Some(s.id.raw()));
    }
    Ok(())
}

/// Fires the session's unique enabled action, sending any packet
/// stamped with the step's scheduled time.
fn step(
    s: &mut GenSession,
    r: &mut GenReport,
    spans: &mut SpanBuf,
    parent: u64,
    grid: &Grid,
    wave: Option<u32>,
) -> Result<(), String> {
    let session = Some(s.id.raw());
    let traced = s.traced && spans.enabled();
    let t = if traced { spans.start() } else { 0 };
    let action = s.tx.step()?;
    if traced {
        spans.leaf("tx.step", parent, t, wave, session);
    }
    r.steps += 1;
    match action {
        None => s.done = true,
        Some(RstpAction::Send(packet)) => {
            let t = if traced { spans.start() } else { 0 };
            s.transport
                .send(packet, s.pace.due_us(grid))
                .map_err(|e| e.to_string())?;
            if traced {
                spans.leaf("hub.send", parent, t, wave, session);
            }
        }
        Some(_) => {}
    }
    Ok(())
}
