//! The real-time driver: steps protocol automata against the wall clock
//! instead of simulated ticks, any number of sessions per thread.
//!
//! # Scheduling
//!
//! The simulator's engine grants each process one local step every
//! `[c1, c2]` ticks. Here the tick is a real [`Duration`] and the driver
//! targets a fixed pace inside the window — `c1` ticks per step
//! ([`Pace::Fast`]) or `c2` ticks ([`Pace::Slow`]). Deadlines are absolute
//! instants on the clock's epoch (`next = due + gap`), so a late wake-up
//! does not shift every later step: the schedule self-corrects instead of
//! drifting.
//!
//! [`run_sessions`] paces every session it is handed on the calling
//! thread: each session keeps its own deadline and the loop sleeps until
//! the earliest one. At most [`DriverConfig::max_live`] sessions run at
//! once. Admission is closed: a waiting session starts when a running one
//! finishes, in the finished session's schedule slot. The first wave's
//! first steps spread over the ticks of one `c2` window, so a crowd of
//! sessions never fires as one synchronized impulse.
//!
//! A step happens at one instant, as in the paper: the loop takes one
//! clock reading per step, the instant [`TickClock::sleep_until`] woke,
//! and the wake booking, every latency sample, a sent frame's stamp, the
//! write time and the next deadline are all derived from it.
//!
//! An operating system cannot honour the paper's idealized timing axioms
//! exactly, so the [`Pacer`] *measures* misses rather than pretending:
//! every wake-up later than the deadline by more than its slack (a
//! quarter tick) counts a `deadline_miss`, and every observed step gap
//! outside `[c1·tick − slack, c2·tick + slack]` counts a
//! `timing_violation`.
//! Runs at [`Pace::Slow`] sit exactly on the upper boundary, which is why
//! the tolerance exists; `docs/NET.md` discusses the deviation. The same
//! [`Pacer`] paces every session of an `rstp-serve` shard.
//!
//! # Step semantics
//!
//! Before each local step the driver drains the session's transport and
//! applies every received packet as a `recv` input (inputs are channel
//! outputs, not clocked by `[c1, c2]` — same as the simulator). Then the
//! unique enabled local action fires: `send` goes to the transport
//! stamped with the local clock, `write` appends to the output,
//! `wait`/`idle` just tick. Zero enabled actions means the automaton
//! quiesced; more than one is a determinism violation, reported exactly
//! as the simulator does.
//!
//! # Termination
//!
//! A single endpoint cannot see the global "settled" condition the
//! simulator uses (peer quiescent and channel empty), so it infers
//! completion locally: once its own work is done — `expected_writes`
//! reached on a receiver, no enabled action left on a transmitter — it
//! keeps stepping through the [`Pacer`]'s grace period of `2·(d + c2)`
//! ticks (long enough for any in-flight packet to land and be answered)
//! and stops only if nothing arrived meanwhile. A transmitter
//! idling while it awaits acknowledgements is not done. A hard
//! wall-clock cap (`max_wall`, measured from the clock's epoch) guards
//! against a peer that never shows up; [`run_sessions_until`] also stops
//! at a flag its caller raises, for a peer known to be gone.

use crate::clock::TickClock;
use crate::error::NetError;
use crate::histogram::LatencyHistogram;
use crate::transport::{Transport, TransportStats};
use rstp_automata::Automaton;
use rstp_core::{InternalKind, Message, Packet, RstpAction, TimingParams};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Which point of the `[c1, c2]` window the driver paces at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pace {
    /// Step every `c1` ticks — the fastest legal process.
    Fast,
    /// Step every `c2` ticks — the slowest legal process (the adversary
    /// the worst-case effort bounds are stated against).
    Slow,
}

impl Pace {
    /// The pace's step gap in ticks under `params`.
    pub fn gap_ticks(self, params: TimingParams) -> u64 {
        match self {
            Pace::Fast => params.c1().ticks(),
            Pace::Slow => params.c2().ticks(),
        }
    }
}

/// Configuration shared by every session of one driver call.
#[derive(Clone, Copy, Debug)]
pub struct DriverConfig {
    /// Timing parameters `(c1, c2, d)` in ticks.
    pub params: TimingParams,
    /// Wall-clock length of one tick.
    pub tick: Duration,
    /// Step pace within `[c1, c2]`.
    pub pace: Pace,
    /// Hard wall-clock cap on the whole run, from the clock's epoch.
    pub max_wall: Duration,
    /// Most sessions one [`run_sessions`] call runs at once.
    pub max_live: usize,
}

impl DriverConfig {
    /// A sensible default configuration: slow pace (the bounds' regime),
    /// a generous wall cap, and no cap on live sessions.
    pub fn new(params: TimingParams, tick: Duration) -> Self {
        DriverConfig {
            params,
            tick,
            pace: Pace::Slow,
            max_wall: Duration::from_secs(60),
            max_live: usize::MAX,
        }
    }

    /// Sets the pace.
    pub fn with_pace(mut self, pace: Pace) -> Self {
        self.pace = pace;
        self
    }

    /// Sets the hard wall-clock cap.
    pub fn with_max_wall(mut self, cap: Duration) -> Self {
        self.max_wall = cap;
        self
    }

    /// Caps how many sessions run at once.
    pub fn with_max_live(mut self, max_live: usize) -> Self {
        self.max_live = max_live;
        self
    }

    /// The pacing rules this configuration describes.
    pub fn pacer(&self) -> Pacer {
        Pacer::new(self.params, self.tick, self.pace)
    }
}

/// The `[c1, c2]` accounting every paced session is held to — this
/// driver's sessions and `rstp-serve`'s shard sessions alike.
///
/// Callers pass wake and due instants in; the pacer books deadline
/// misses and timing violations, re-anchors the schedule after a stall,
/// and decides grace-period completion. Each session keeps its own
/// history in a [`Cadence`].
///
/// The pacer derives both of its tolerances from `(params, tick)`: the
/// slack (a quarter tick) and the completion
/// [`grace`](Pacer::grace_ticks). Nothing else computes them.
#[derive(Clone, Copy, Debug)]
pub struct Pacer {
    gap: Duration,
    lo: Duration,
    hi: Duration,
    slack: Duration,
    grace_ticks: u64,
    quiet_steps: u64,
}

/// One session's pacing history under a [`Pacer`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Cadence {
    prev_wake: Option<Instant>,
    idle_streak: u64,
}

/// How a [`Pacer`] booked one wake-up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wake {
    /// Within the slack of its deadline, and inside the window when the
    /// gap was measured.
    Punctual,
    /// Later than its deadline by more than the slack: a deadline miss.
    Late,
    /// Punctual, but the gap since the previous punctual wake fell
    /// outside `[c1·tick − slack, c2·tick + slack]`: a timing violation.
    Violation,
}

impl Pacer {
    /// The rules for stepping at `pace` under `params`, with `tick` per
    /// tick: a slack of a quarter tick, and a grace of `2·(d + c2)`
    /// ticks before a locally done session completes (a full
    /// request/ack round trip with a step on each side — an ack-clocked
    /// transmitter idles that long legitimately).
    pub fn new(params: TimingParams, tick: Duration, pace: Pace) -> Self {
        let slack = tick / 4;
        let grace_ticks = 2 * (params.d().ticks() + params.c2().ticks());
        let gap_ticks = pace.gap_ticks(params).max(1);
        let ticks = |n: u64| tick * u32::try_from(n).unwrap_or(u32::MAX);
        Pacer {
            gap: ticks(gap_ticks),
            lo: ticks(params.c1().ticks()).saturating_sub(slack),
            hi: ticks(params.c2().ticks()) + slack,
            slack,
            grace_ticks,
            quiet_steps: grace_ticks.div_ceil(gap_ticks).max(1),
        }
    }

    /// The grace period, in ticks, a locally done session keeps
    /// stepping with nothing arriving before it completes.
    pub fn grace_ticks(&self) -> u64 {
        self.grace_ticks
    }

    /// Books a wake at `wake` for the step due at `due`.
    ///
    /// A late wake is accounted once, as a deadline miss. The gaps that
    /// start or end at a late wake are distorted by that same stall, so
    /// they are left unmeasured rather than double-counted as timing
    /// violations.
    #[inline]
    pub fn wake(&self, cadence: &mut Cadence, due: Instant, wake: Instant) -> Wake {
        let late = wake.saturating_duration_since(due) > self.slack;
        let booked = match cadence.prev_wake {
            _ if late => Wake::Late,
            Some(prev) => {
                let observed = wake.saturating_duration_since(prev);
                if observed < self.lo || observed > self.hi {
                    Wake::Violation
                } else {
                    Wake::Punctual
                }
            }
            None => Wake::Punctual,
        };
        cadence.prev_wake = (!late).then_some(wake);
        booked
    }

    /// The deadline after the step due at `due`, when that step woke at
    /// `wake`: one gap on — or `wake` itself after a stall that woke it
    /// more than one gap past that next deadline. Replaying the missed
    /// deadlines back to back would burst steps faster than `c1` and turn
    /// one stall into many violations. The gap spanning the stall is as
    /// distorted as one ending at a late wake, so it goes unmeasured too.
    ///
    /// Callers pass the step's one clock reading, its wake instant, not a
    /// reading taken after the step ran: the two differ by one step's run
    /// time, typically under a microsecond.
    #[inline]
    pub fn next_due(&self, cadence: &mut Cadence, due: Instant, wake: Instant) -> Instant {
        let next = due + self.gap;
        if wake > next + self.gap {
            cadence.prev_wake = None;
            wake
        } else {
            next
        }
    }

    /// Grace-period completion after one step: `true` once the session
    /// has been locally `done` with nothing `productive` happening for a
    /// whole grace period of steps.
    #[inline]
    pub fn settle(&self, cadence: &mut Cadence, productive: bool, done: bool) -> bool {
        if productive || !done {
            cadence.idle_streak = 0;
            return false;
        }
        cadence.idle_streak += 1;
        cadence.idle_streak >= self.quiet_steps
    }
}

/// The externally visible effect of one local step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepEffect {
    /// The automaton sent a packet.
    Sent(Packet),
    /// The automaton wrote the next output message.
    Wrote(Message),
    /// A counted `wait` step — productive work, not idling.
    Waited,
    /// A pure `idle` step.
    Idled,
    /// No local action is enabled: the automaton has quiesced.
    Quiescent,
}

/// One session's protocol endpoint, transmitter or receiver, statically
/// erased so one loop or one shard can own a mixed-protocol table.
pub trait SessionEndpoint: Send {
    /// Applies a delivered packet as a `recv` input (input-enabled: this
    /// must succeed in every state for well-formed automata).
    ///
    /// # Errors
    ///
    /// [`NetError::Automaton`] if the automaton rejects the input.
    fn apply_recv(&mut self, packet: Packet) -> Result<(), NetError>;

    /// Fires the unique enabled local action, enforcing the paper's
    /// determinism condition (more than one enabled action is a model
    /// bug, reported exactly as the simulator does).
    ///
    /// # Errors
    ///
    /// [`NetError::Determinism`] or [`NetError::Automaton`].
    fn step(&mut self) -> Result<StepEffect, NetError>;

    /// Messages written so far — the session's output sequence `Y`.
    fn written(&self) -> &[Message];
}

/// A concrete automaton plus its evolving state: the
/// [`SessionEndpoint`] of any protocol role.
pub struct Driven<A: Automaton<Action = RstpAction>> {
    automaton: A,
    state: A::State,
    written: Vec<Message>,
    /// What [`SessionEndpoint::step`] collects the enabled actions in,
    /// cleared before every step, so a warm session allocates nothing.
    enabled: Vec<RstpAction>,
}

impl<A: Automaton<Action = RstpAction>> Driven<A> {
    /// `automaton` in its initial state.
    pub fn new(automaton: A) -> Self {
        let state = automaton.initial_state();
        Driven::resume(automaton, state, Vec::new())
    }

    /// `automaton` resumed in `state`, with `written` already output.
    pub fn resume(automaton: A, state: A::State, written: Vec<Message>) -> Self {
        Driven {
            automaton,
            state,
            written,
            enabled: Vec::new(),
        }
    }

    /// The automaton's current state.
    pub fn state(&self) -> &A::State {
        &self.state
    }
}

impl<A> SessionEndpoint for Driven<A>
where
    A: Automaton<Action = RstpAction> + Send,
    A::State: Send,
{
    fn apply_recv(&mut self, packet: Packet) -> Result<(), NetError> {
        self.automaton
            .apply(&mut self.state, &RstpAction::Recv(packet))
            .map_err(|e| NetError::Automaton {
                what: e.to_string(),
            })
    }

    fn step(&mut self) -> Result<StepEffect, NetError> {
        self.enabled.clear();
        self.automaton.enabled_into(&self.state, &mut self.enabled);
        let action = match self.enabled.as_slice() {
            [] => return Ok(StepEffect::Quiescent),
            [a] => *a,
            many => {
                return Err(NetError::Determinism {
                    enabled: many.iter().map(|a| format!("{a:?}")).collect(),
                })
            }
        };
        self.automaton
            .apply(&mut self.state, &action)
            .map_err(|e| NetError::Automaton {
                what: e.to_string(),
            })?;
        Ok(match action {
            RstpAction::Send(p) => StepEffect::Sent(p),
            RstpAction::Write(m) => {
                self.written.push(m);
                StepEffect::Wrote(m)
            }
            RstpAction::TransmitterInternal(k) | RstpAction::ReceiverInternal(k) => {
                if k == InternalKind::Wait {
                    StepEffect::Waited
                } else {
                    StepEffect::Idled
                }
            }
            RstpAction::Recv(_) => {
                return Err(NetError::Automaton {
                    what: "recv reported as a locally controlled action".into(),
                })
            }
        })
    }

    fn written(&self) -> &[Message] {
        &self.written
    }
}

/// How a driven run ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DriverOutcome {
    /// The endpoint finished its work and the grace period drained quietly.
    Completed,
    /// The wall-clock cap expired first.
    #[default]
    TimedOut,
}

/// Everything one endpoint observed during a driven run. The default is
/// a run that timed out before its first step.
#[derive(Clone, Debug, Default)]
pub struct DriverReport {
    /// How the run ended.
    pub outcome: DriverOutcome,
    /// Local steps taken (each consumed one `[c1, c2]` window).
    pub steps: u64,
    /// Messages written by `write` actions, in order — the receiver's
    /// output sequence `Y`.
    pub written: Vec<Message>,
    /// `send(p)` actions carrying data packets.
    pub data_sends: u64,
    /// `send(p)` actions carrying ack packets.
    pub ack_sends: u64,
    /// Packets applied as `recv` inputs.
    pub recvs: u64,
    /// `wait` internal steps.
    pub wait_steps: u64,
    /// `idle` internal steps.
    pub idle_steps: u64,
    /// Local clock (µs since epoch) of the last data send, if any.
    pub last_data_send_micros: Option<u64>,
    /// Local clock (µs since epoch) of the last write, if any.
    pub last_write_micros: Option<u64>,
    /// Wake-ups later than their deadline by more than the slack.
    pub deadline_misses: u64,
    /// Observed step gaps outside `[c1·tick − slack, c2·tick + slack]`.
    pub timing_violations: u64,
    /// Per-packet delivery latency (receiver-side clock minus the
    /// `sent_at_micros` stamped into each frame). Only meaningful when
    /// both endpoints share a clock epoch.
    pub latency: LatencyHistogram,
    /// Total wall-clock time from the clock's epoch to the last step.
    pub wall_elapsed: Duration,
    /// Transport counters at the end of the run.
    pub transport: TransportStats,
}

impl DriverReport {
    /// Wall-clock effort in ticks per message: time of the last data send
    /// divided by `n` and the tick length — the real-time analogue of the
    /// simulator's `t(last-send)/n`.
    pub fn effort_ticks(&self, n: usize, tick: Duration) -> Option<f64> {
        let last = self.last_data_send_micros?;
        if n == 0 || tick.is_zero() {
            return None;
        }
        Some(last as f64 / tick.as_micros() as f64 / n as f64)
    }

    /// Receiver-side learning effort in ticks per message:
    /// `t(last-write)/n`.
    pub fn learn_effort_ticks(&self, n: usize, tick: Duration) -> Option<f64> {
        let last = self.last_write_micros?;
        if n == 0 || tick.is_zero() {
            return None;
        }
        Some(last as f64 / tick.as_micros() as f64 / n as f64)
    }
}

/// One session [`run_sessions`] paces: a protocol endpoint and the
/// transport to its peer.
pub struct Session<T> {
    /// The protocol endpoint, either role.
    pub endpoint: Box<dyn SessionEndpoint>,
    /// The endpoint's channel to its peer.
    pub transport: T,
    /// A receiver is locally done once this many `write` actions have
    /// fired; `None` (a transmitter) is done once nothing is enabled.
    pub expected_writes: Option<usize>,
}

impl<T> Session<T> {
    /// A transmitting session: done once its endpoint quiesces.
    pub fn transmitter(endpoint: Box<dyn SessionEndpoint>, transport: T) -> Self {
        Session {
            endpoint,
            transport,
            expected_writes: None,
        }
    }

    /// A receiving session: done once it has written `n` messages.
    pub fn receiver(endpoint: Box<dyn SessionEndpoint>, transport: T, n: usize) -> Self {
        Session {
            endpoint,
            transport,
            expected_writes: Some(n),
        }
    }
}

/// A running session: its place in the caller's list, its deadline, and
/// what it has observed so far.
struct Running<T> {
    index: usize,
    session: Session<T>,
    due: Instant,
    cadence: Cadence,
    report: DriverReport,
}

impl<T: Transport> Running<T> {
    fn new(index: usize, session: Session<T>, due: Instant, cadence: Cadence) -> Self {
        Running {
            index,
            session,
            due,
            cadence,
            report: DriverReport::default(),
        }
    }

    /// One paced step at the instant `now` it woke: book the wake, drain
    /// deliveries as `recv` inputs, fire the enabled action, and settle
    /// completion. Every time the step records is `now`. `true` when the
    /// session has completed; otherwise `due` holds its next deadline.
    fn paced_step(
        &mut self,
        pacer: &Pacer,
        clock: &TickClock,
        now: Instant,
    ) -> Result<bool, NetError> {
        let report = &mut self.report;
        let at = clock.micros_at(now);
        match pacer.wake(&mut self.cadence, self.due, now) {
            Wake::Late => report.deadline_misses += 1,
            Wake::Violation => report.timing_violations += 1,
            Wake::Punctual => {}
        }

        // Apply every delivered packet as a recv input before the local
        // step, mirroring the engine's input-before-step ordering at a
        // shared instant.
        let mut productive = false;
        while let Some(frame) = self.session.transport.poll_recv()? {
            self.session.endpoint.apply_recv(frame.packet)?;
            report
                .latency
                .record(at.saturating_sub(frame.sent_at_micros));
            report.recvs += 1;
            productive = true;
        }

        let effect = self.session.endpoint.step()?;
        match effect {
            StepEffect::Sent(p) => {
                self.session.transport.send(p, at)?;
                match p {
                    Packet::Data(_) => {
                        report.data_sends += 1;
                        report.last_data_send_micros = Some(at);
                    }
                    Packet::Ack(_) => report.ack_sends += 1,
                }
                productive = true;
            }
            StepEffect::Wrote(_) => {
                report.last_write_micros = Some(at);
                productive = true;
            }
            // `wait` is productive work (a counted phase of the
            // beta/framed receivers); `idle` is not.
            StepEffect::Waited => {
                report.wait_steps += 1;
                productive = true;
            }
            StepEffect::Idled => report.idle_steps += 1,
            StepEffect::Quiescent => {}
        }
        if effect != StepEffect::Quiescent {
            report.steps += 1;
        }

        let done = match self.session.expected_writes {
            Some(n) => self.session.endpoint.written().len() >= n,
            None => effect == StepEffect::Quiescent,
        };
        if pacer.settle(&mut self.cadence, productive, done) {
            return Ok(true);
        }
        self.due = pacer.next_due(&mut self.cadence, self.due, now);
        Ok(false)
    }

    /// The session's report, for a run that ended at `now`.
    fn finish(
        mut self,
        outcome: DriverOutcome,
        clock: &TickClock,
        now: Instant,
    ) -> (usize, DriverReport) {
        self.report.outcome = outcome;
        self.report.written = self.session.endpoint.written().to_vec();
        self.report.wall_elapsed = now.saturating_duration_since(clock.epoch());
        self.report.transport = self.session.transport.local_stats();
        (self.index, self.report)
    }
}

/// Paces `sessions` on the calling thread against `clock` until each
/// completes or the wall cap expires, per the module-level semantics.
/// Returns one report per session, in order.
///
/// # Errors
///
/// [`NetError`] on transport failure, a determinism violation, or an
/// automaton rejecting a step the driver believed applicable — in any
/// session.
pub fn run_sessions<T: Transport>(
    sessions: Vec<Session<T>>,
    clock: TickClock,
    config: &DriverConfig,
) -> Result<Vec<DriverReport>, NetError> {
    run_sessions_until(sessions, clock, config, &AtomicBool::new(false))
}

/// [`run_sessions`], which also ends once `stop` is set, as it ends at the
/// wall cap: every unfinished session reports
/// [`DriverOutcome::TimedOut`]. The flag is read before each step, where
/// the wall cap is checked.
///
/// # Errors
///
/// As for [`run_sessions`].
pub fn run_sessions_until<T: Transport>(
    sessions: Vec<Session<T>>,
    clock: TickClock,
    config: &DriverConfig,
    stop: &AtomicBool,
) -> Result<Vec<DriverReport>, NetError> {
    let pacer = config.pacer();
    let total = sessions.len();
    let slots = config.max_live.clamp(1, total.max(1));
    let window = config.params.c2().ticks();
    let mut reports: Vec<Option<DriverReport>> = (0..total).map(|_| None).collect();
    let mut waiting = sessions.into_iter().enumerate();
    let mut live: Vec<Running<T>> = Vec::with_capacity(slots);

    // The first wave takes its first steps spread over the ticks of one
    // c2 window; slot 0 steps at tick 0, where the simulator starts every
    // process. Sessions sharing a tick share the loop's wake-up.
    for (slot, (index, session)) in waiting.by_ref().take(slots).enumerate() {
        let tick = window * slot as u64 / slots as u64;
        let due = clock.instant_of_tick(tick);
        live.push(Running::new(index, session, due, Cadence::default()));
    }

    // The loop's one clock reading per step: the instant it woke.
    let mut now = clock.now();
    while !live.is_empty() {
        if stop.load(Ordering::Relaxed)
            || now.saturating_duration_since(clock.epoch()) > config.max_wall
        {
            break;
        }
        let Some(next) = (0..live.len()).min_by_key(|&i| live[i].due) else {
            break;
        };
        now = clock.sleep_until(live[next].due);
        if !live[next].paced_step(&pacer, &clock, now)? {
            continue;
        }
        let done = live.swap_remove(next);
        // Closed admission: the next waiting session takes over the
        // finished one's slot, one gap after its last step.
        if let Some((index, session)) = waiting.next() {
            let mut cadence = Cadence::default();
            let due = pacer.next_due(&mut cadence, done.due, now);
            live.push(Running::new(index, session, due, cadence));
        }
        let (index, report) = done.finish(DriverOutcome::Completed, &clock, now);
        reports[index] = Some(report);
    }

    // Whatever is still running or never started ran out of wall clock.
    let unstarted = waiting
        .map(|(index, session)| Running::new(index, session, clock.epoch(), Cadence::default()));
    for running in live.into_iter().chain(unstarted) {
        let (index, report) = running.finish(DriverOutcome::TimedOut, &clock, now);
        reports[index] = Some(report);
    }
    Ok(reports.into_iter().map(Option::unwrap_or_default).collect())
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // the tests time real threads and sockets
mod tests {
    use super::*;
    use crate::chan::ChannelConfig;
    use crate::mem::MemTransport;
    use crate::session::{receiver_endpoint, transmitter_endpoint};
    use crate::wire::{Frame, ProtocolId, WireCodec};
    use rstp_core::protocols::{gamma, AlphaReceiver, AlphaTransmitter, GammaTransmitter};
    use rstp_sim::ProtocolKind;
    use std::collections::VecDeque;
    use std::thread;

    fn params() -> TimingParams {
        TimingParams::from_ticks(1, 2, 4).expect("valid")
    }

    fn one<T: Transport>(
        session: Session<T>,
        clock: TickClock,
        config: &DriverConfig,
    ) -> DriverReport {
        run_sessions(vec![session], clock, config)
            .expect("run")
            .pop()
            .expect("one report")
    }

    /// Scripted time: `t(n)` is `n` ticks of 100 µs after a fixed base.
    fn scripted() -> (Pacer, impl Fn(f64) -> Instant) {
        let tick = Duration::from_micros(100);
        let pacer = DriverConfig::new(params(), tick).pacer();
        let base = Instant::now();
        (pacer, move |ticks: f64| base + tick.mul_f64(ticks))
    }

    #[test]
    fn pacer_books_punctual_wakes_one_gap_apart_as_clean() {
        let (pacer, t) = scripted();
        let mut cadence = Cadence::default();
        let mut due = t(0.0);
        for _ in 0..50 {
            // Woken a little after each deadline, within the slack.
            let wake = due + Duration::from_micros(10);
            assert_eq!(pacer.wake(&mut cadence, due, wake), Wake::Punctual);
            due = pacer.next_due(&mut cadence, due, wake);
        }
        assert_eq!(due, t(100.0), "50 steps at the slow pace of 2 ticks");
    }

    #[test]
    fn pacer_flags_a_gap_outside_the_window_between_punctual_wakes() {
        let (pacer, t) = scripted();
        let mut cadence = Cadence::default();
        assert_eq!(pacer.wake(&mut cadence, t(0.0), t(0.0)), Wake::Punctual);
        // Half a tick later is below c1·tick − slack = 75 µs.
        assert_eq!(pacer.wake(&mut cadence, t(0.5), t(0.5)), Wake::Violation);
        // 2.5 ticks on is above c2·tick + slack = 225 µs.
        assert_eq!(pacer.wake(&mut cadence, t(3.0), t(3.0)), Wake::Violation);
    }

    #[test]
    fn pacer_books_a_late_wake_once_and_skips_the_gaps_beside_it() {
        let (pacer, t) = scripted();
        let mut cadence = Cadence::default();
        assert_eq!(pacer.wake(&mut cadence, t(0.0), t(0.0)), Wake::Punctual);
        assert_eq!(pacer.wake(&mut cadence, t(2.0), t(2.0)), Wake::Punctual);
        // 1.5 ticks late: measured, the gap before (3.5 ticks) and the gap
        // after (0.5 ticks) would both leave the window.
        assert_eq!(pacer.wake(&mut cadence, t(4.0), t(5.5)), Wake::Late);
        assert_eq!(pacer.wake(&mut cadence, t(6.0), t(6.0)), Wake::Punctual);
        assert_eq!(pacer.wake(&mut cadence, t(8.0), t(8.0)), Wake::Punctual);
    }

    #[test]
    fn pacer_reanchors_after_a_stall_without_a_catch_up_burst() {
        let (pacer, t) = scripted();
        let mut cadence = Cadence::default();
        assert_eq!(pacer.wake(&mut cadence, t(0.0), t(0.0)), Wake::Punctual);
        // A short overrun keeps the grid: the next deadline is one gap on.
        assert_eq!(pacer.next_due(&mut cadence, t(0.0), t(3.0)), t(2.0));
        // A stall past a whole gap beyond the next deadline re-anchors
        // on now instead of replaying deadlines 2, 4, 6, 8.
        let mut due = pacer.next_due(&mut cadence, t(0.0), t(9.0));
        assert_eq!(due, t(9.0));
        let mut wakes = Vec::new();
        for _ in 0..5 {
            assert_eq!(pacer.wake(&mut cadence, due, due), Wake::Punctual);
            wakes.push(due);
            due = pacer.next_due(&mut cadence, due, due);
        }
        let c1 = Duration::from_micros(100);
        assert!(wakes.windows(2).all(|w| w[1] - w[0] >= c1), "{wakes:?}");
    }

    #[test]
    fn pacer_completes_only_after_a_grace_period_of_local_quiet() {
        let (pacer, _) = scripted();
        // Grace 2·(d + c2) = 12 ticks at a 2-tick gap: 6 quiet steps.
        let mut cadence = Cadence::default();
        for _ in 0..20 {
            assert!(!pacer.settle(&mut cadence, false, false), "not done");
        }
        for _ in 0..5 {
            assert!(!pacer.settle(&mut cadence, false, true));
        }
        // Traffic during the grace period restarts it.
        assert!(!pacer.settle(&mut cadence, true, true));
        for _ in 0..5 {
            assert!(!pacer.settle(&mut cadence, false, true));
        }
        assert!(pacer.settle(&mut cadence, false, true));
    }

    #[test]
    fn alpha_pair_transfers_over_mem_transport() {
        let p = params();
        let tick = Duration::from_micros(300);
        let input = vec![true, false, true, true, false, false, true];
        let codec = WireCodec::new(ProtocolId::Alpha, 0).expect("codec");
        let (t_end, r_end) = MemTransport::pair(codec, ChannelConfig::reliable(p, tick, 7));
        let clock = TickClock::start(tick);
        let cfg = DriverConfig::new(p, tick);
        let n = input.len();
        let transmitter = Box::new(Driven::new(AlphaTransmitter::new(p, input.clone())));
        let t_handle =
            thread::spawn(move || one(Session::transmitter(transmitter, t_end), clock, &cfg));
        let receiver = Box::new(Driven::new(AlphaReceiver::new()));
        let r_handle =
            thread::spawn(move || one(Session::receiver(receiver, r_end, n), clock, &cfg));
        let t_report = t_handle.join().expect("join");
        let r_report = r_handle.join().expect("join");

        assert_eq!(t_report.outcome, DriverOutcome::Completed);
        assert_eq!(r_report.outcome, DriverOutcome::Completed);
        assert_eq!(r_report.written, input);
        assert_eq!(t_report.data_sends, input.len() as u64);
        assert_eq!(r_report.latency.count(), input.len() as u64);
    }

    #[test]
    fn one_thread_paces_many_pairs_with_closed_admission() {
        // Both ends of six alpha transfers on one thread, at most four
        // sessions live at a time: every receiver still gets its input.
        let p = params();
        let tick = Duration::from_micros(200);
        let kind = ProtocolKind::Alpha;
        let codec = WireCodec::new(ProtocolId::Alpha, 0).expect("codec");
        let mut sessions = Vec::new();
        let mut inputs = Vec::new();
        for i in 0..3u64 {
            let input: Vec<bool> = (0..6).map(|b| (b + i) % 3 == 0).collect();
            let (t_end, r_end) = MemTransport::pair(codec, ChannelConfig::reliable(p, tick, i));
            let transmitter = transmitter_endpoint(kind, p, &input).expect("tx");
            let receiver = receiver_endpoint(kind, p, input.len()).expect("rx");
            sessions.push(Session::transmitter(transmitter, t_end));
            sessions.push(Session::receiver(receiver, r_end, input.len()));
            inputs.push(input);
        }
        let cfg = DriverConfig::new(p, tick)
            .with_max_live(4)
            .with_max_wall(Duration::from_secs(10));
        let reports = run_sessions(sessions, TickClock::start(tick), &cfg).expect("run");
        assert_eq!(reports.len(), 6);
        for (pair, input) in reports.chunks(2).zip(&inputs) {
            assert_eq!(pair[0].outcome, DriverOutcome::Completed);
            assert_eq!(pair[1].outcome, DriverOutcome::Completed);
            assert_eq!(pair[1].written, *input);
        }
    }

    #[test]
    fn an_offset_first_step_stamps_its_first_frame_after_the_offset() {
        // Two sessions sharing one slot window: the second slot's first
        // step sits half a c2 window after the shared epoch, and its
        // first frame's stamp is read on that same clock.
        let p = params();
        let tick = Duration::from_micros(500);
        let codec = WireCodec::new(ProtocolId::Alpha, 0).expect("codec");
        let (a, _peer_a) = MemTransport::pair(codec, ChannelConfig::eager(tick, 1));
        let (b, peer_b) = MemTransport::pair(codec, ChannelConfig::eager(tick, 2));
        let tx = |bit| transmitter_endpoint(ProtocolKind::Alpha, p, &[bit]).expect("tx");
        let sessions = vec![
            Session::transmitter(tx(true), a),
            Session::transmitter(tx(false), b),
        ];
        let clock = TickClock::start(tick);
        let reports = run_sessions(sessions, clock, &DriverConfig::new(p, tick)).expect("run");
        let offset = 500; // µs: half of the 2-tick window
        let stamp = reports[1].last_data_send_micros.expect("sent");
        assert!(
            stamp >= offset,
            "first frame at {stamp} µs, before {offset}"
        );
        let mut peer_b = peer_b;
        let frame = loop {
            if let Some(frame) = peer_b.poll_recv().expect("poll") {
                break frame;
            }
            thread::yield_now();
        };
        assert_eq!(frame.sent_at_micros, stamp);
    }

    /// A peer that acknowledges every data packet, `lag` of the
    /// transmitter's steps later (one empty poll ends each step's drain).
    struct LaggingAcks {
        lag: u64,
        steps: u64,
        owed: VecDeque<u64>,
    }

    impl Transport for LaggingAcks {
        fn send(&mut self, packet: Packet, _sent_at_micros: u64) -> Result<(), NetError> {
            if let Packet::Data(_) = packet {
                self.owed.push_back(self.steps + self.lag);
            }
            Ok(())
        }

        fn poll_recv(&mut self) -> Result<Option<Frame>, NetError> {
            if self.owed.front().is_some_and(|&due| due <= self.steps) {
                self.owed.pop_front();
                return Ok(Some(Frame {
                    protocol: ProtocolId::Gamma,
                    k: 4,
                    packet: gamma::ACK,
                    seq: 0,
                    sent_at_micros: 0,
                    session: rstp_core::SessionId::new(0),
                }));
            }
            self.steps += 1;
            Ok(None)
        }

        fn local_stats(&self) -> TransportStats {
            TransportStats::default()
        }
    }

    #[test]
    fn gamma_transmitter_waits_out_acks_slower_than_the_grace_period() {
        // Acks arrive 10 steps after each data packet; the grace period
        // is 6 steps. A transmitter idling for acks is not done, so it
        // must send every burst and hear every ack before completing.
        let p = params();
        let tick = Duration::from_micros(100);
        let input: Vec<bool> = (0..16).map(|i| i % 3 == 1).collect();
        let automaton = GammaTransmitter::new(p, 4, &input).expect("gamma");
        let symbols = automaton.num_blocks() as u64 * automaton.delta2();
        assert!(automaton.num_blocks() > 1);
        let peer = LaggingAcks {
            lag: 10,
            steps: 0,
            owed: VecDeque::new(),
        };
        let cfg = DriverConfig::new(p, tick).with_max_wall(Duration::from_secs(10));
        let session = Session::transmitter(Box::new(Driven::new(automaton)), peer);
        let report = one(session, TickClock::start(tick), &cfg);
        assert_eq!(report.outcome, DriverOutcome::Completed);
        assert_eq!(report.data_sends, symbols);
        assert_eq!(report.recvs, symbols);
    }

    #[test]
    fn gamma_transmitter_without_a_peer_times_out() {
        let p = params();
        let tick = Duration::from_micros(100);
        let codec = WireCodec::new(ProtocolId::Gamma, 4).expect("codec");
        let (t_end, _r_end) = MemTransport::pair(codec, ChannelConfig::eager(tick, 1));
        let endpoint =
            transmitter_endpoint(ProtocolKind::Gamma { k: 4 }, p, &[true, false]).expect("tx");
        let cfg = DriverConfig::new(p, tick).with_max_wall(Duration::from_millis(50));
        let report = one(
            Session::transmitter(endpoint, t_end),
            TickClock::start(tick),
            &cfg,
        );
        assert_eq!(report.outcome, DriverOutcome::TimedOut);
        assert!(report.data_sends > 0);
    }

    #[test]
    fn transmitter_alone_completes_when_it_needs_no_acks() {
        // Alpha needs no acks, so a lone transmitter quiesces and
        // completes; the cap just has to cover the sends plus grace.
        let p = params();
        let tick = Duration::from_micros(200);
        let codec = WireCodec::new(ProtocolId::Alpha, 0).expect("codec");
        let (t_end, _r_end) = MemTransport::pair(codec, ChannelConfig::eager(tick, 1));
        let automaton = AlphaTransmitter::new(p, vec![true, false]);
        let cfg = DriverConfig::new(p, tick).with_max_wall(Duration::from_secs(10));
        let session = Session::transmitter(Box::new(Driven::new(automaton)), t_end);
        let report = one(session, TickClock::start(tick), &cfg);
        assert_eq!(report.outcome, DriverOutcome::Completed);
        assert_eq!(report.data_sends, 2);
    }

    #[test]
    fn receiver_times_out_when_no_traffic_arrives() {
        let p = params();
        let tick = Duration::from_micros(100);
        let codec = WireCodec::new(ProtocolId::Alpha, 0).expect("codec");
        let (r_end, _t_end) = MemTransport::pair(codec, ChannelConfig::eager(tick, 1));
        let cfg = DriverConfig::new(p, tick).with_max_wall(Duration::from_millis(100));
        let session = Session::receiver(Box::new(Driven::new(AlphaReceiver::new())), r_end, 3);
        let report = one(session, TickClock::start(tick), &cfg);
        assert_eq!(report.outcome, DriverOutcome::TimedOut);
        assert!(report.written.is_empty());
    }

    #[test]
    fn effort_accessors_convert_micros_to_ticks() {
        let tick = Duration::from_micros(100);
        let mut report = DriverReport {
            outcome: DriverOutcome::Completed,
            written: vec![true; 4],
            data_sends: 4,
            last_data_send_micros: Some(4_000),
            last_write_micros: Some(4_400),
            wall_elapsed: Duration::from_millis(5),
            ..DriverReport::default()
        };
        // 4000 µs / 100 µs-per-tick / 4 messages = 10 ticks per message.
        assert_eq!(report.effort_ticks(4, tick), Some(10.0));
        assert_eq!(report.learn_effort_ticks(4, tick), Some(11.0));
        report.last_data_send_micros = None;
        assert_eq!(report.effort_ticks(4, tick), None);
        assert_eq!(report.effort_ticks(0, tick), None);
    }
}
