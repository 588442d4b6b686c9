//! The discrete-event engine.
//!
//! Drives a transmitter automaton, a receiver automaton, and the channel
//! automaton under a [`StepAdversary`] and a [`DeliveryAdversary`],
//! producing a [`SimTrace`] and online [`RunMetrics`].
//!
//! # Timed semantics
//!
//! * Both processes take their first local step at time 0 (the paper's
//!   constructions start both processes at 0), and thereafter with gaps the
//!   step adversary picks in `[c1, c2]`.
//! * At a process's step time, its unique enabled local action fires
//!   (determinism is enforced; zero enabled actions means the process has
//!   quiesced and is descheduled).
//! * A `send(p)` hands `p` to the channel; the delivery adversary picks a
//!   delay in `[d_lo, d_hi]` (classically `[0, d]`) — or, for fault
//!   injection only, drops/duplicates. The matching `recv(p)` fires as an
//!   input on the destination process at the chosen time (inputs are not
//!   clocked by `[c1, c2]`; they are channel outputs).
//! * Same-tick events are processed in scheduling order (a deterministic
//!   tiebreak; adversaries that want a specific same-instant delivery order
//!   realize it through distinct ticks, exactly as the paper's `ε/k`
//!   spacing does in Figure 2).
//!
//! The run ends when the system is **settled** — both processes are
//! quiescent or idling and no packet is in flight — or when the event
//! budget is exhausted (e.g. a retransmission loop over a 100%-loss
//! channel).

use crate::adversary::{DeliveryAdversary, Disposition, StepAdversary};
use crate::metrics::RunMetrics;
use crate::trace::SimTrace;
use core::fmt;
use rstp_automata::{Automaton, Time, TimeDelta};
use rstp_core::{Channel, ChannelState, InternalKind, Message, Owner, Packet, RstpAction};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulation limits and channel window.
///
/// Step bounds are **per process** (the paper's §7 extension: "each process
/// is associated with its own `c1` and `c2`"); the classical model sets
/// both to the same `(c1, c2)` via [`SimSettings::from_params`].
#[derive(Clone, Copy, Debug)]
pub struct SimSettings {
    /// The transmitter's step bounds `(c1, c2)`.
    pub transmitter: rstp_core::ProcessTiming,
    /// The receiver's step bounds `(c1, c2)`.
    pub receiver: rstp_core::ProcessTiming,
    /// Minimum delivery delay (`0` in the classical model).
    pub d_lo: TimeDelta,
    /// Maximum delivery delay `d`.
    pub d_hi: TimeDelta,
    /// Stop after this many processed events (guards non-terminating runs
    /// under fault injection).
    pub max_events: u64,
    /// Record the full trace (disable for large benchmark runs; metrics are
    /// always collected).
    pub record_trace: bool,
}

impl SimSettings {
    /// Settings for the classical model from a validated parameter triple.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "TimingParams holds c1 <= c2, so ProcessTiming::new cannot fail"
    )]
    pub fn from_params(params: rstp_core::TimingParams) -> Self {
        let bounds = rstp_core::ProcessTiming::new(params.c1(), params.c2())
            .expect("TimingParams invariants imply valid process bounds");
        SimSettings {
            transmitter: bounds,
            receiver: bounds,
            d_lo: TimeDelta::ZERO,
            d_hi: params.d(),
            max_events: 50_000_000,
            record_trace: true,
        }
    }

    /// Settings for the §7 extended model: per-process step bounds and a
    /// delivery window.
    #[must_use]
    pub fn from_ext(ext: rstp_core::TimingParamsExt) -> Self {
        SimSettings {
            transmitter: ext.transmitter(),
            receiver: ext.receiver(),
            d_lo: ext.d_lo(),
            d_hi: ext.d_hi(),
            max_events: 50_000_000,
            record_trace: true,
        }
    }

    /// The step bounds of `owner` (the channel has none; callers only ask
    /// for processes).
    #[must_use]
    pub fn bounds_of(&self, owner: Owner) -> rstp_core::ProcessTiming {
        match owner {
            Owner::Transmitter => self.transmitter,
            _ => self.receiver,
        }
    }
}

/// How a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Both processes settled and the channel drained.
    Quiescent,
    /// The event budget ran out first (livelock or very long run).
    BudgetExhausted,
}

/// A runner failure — always a *model* bug (nondeterministic protocol,
/// adversary out of bounds, packet bookkeeping mismatch), never a legal
/// protocol behavior.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// More than one local action enabled at a process step.
    Determinism {
        /// Which process.
        owner: Owner,
        /// Debug renderings of the enabled actions.
        enabled: Vec<String>,
    },
    /// An adversary returned a value outside its allowed range.
    AdversaryOutOfBounds {
        /// Description of the violation.
        what: String,
    },
    /// An automaton rejected an action the runner believed applicable.
    Automaton {
        /// Rendered step error.
        what: String,
    },
    /// Channel bookkeeping mismatch (delivering a packet not in flight).
    Channel {
        /// Description.
        what: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Determinism { owner, enabled } => write!(
                f,
                "{owner:?} has {} simultaneously enabled local actions: {enabled:?}",
                enabled.len()
            ),
            SimError::AdversaryOutOfBounds { what } => write!(f, "adversary violation: {what}"),
            SimError::Automaton { what } => write!(f, "automaton rejected a step: {what}"),
            SimError::Channel { what } => write!(f, "channel bookkeeping: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

/// The result of a completed run.
#[derive(Clone, Debug)]
pub struct SimRun {
    /// How the run ended.
    pub outcome: Outcome,
    /// Online counters.
    pub metrics: RunMetrics,
    /// The timed trace (empty when `record_trace` was off).
    pub trace: SimTrace,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EventKind {
    Step(Owner),
    Deliver(Packet),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct QueuedEvent {
    time: Time,
    seq: u64,
    kind: EventKind,
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first, seq as the
        // deterministic tiebreak.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The generic simulation engine over concrete transmitter/receiver
/// automaton types.
///
/// Most callers use [`crate::harness::run_configured`] instead; this type
/// is the extension point for protocols outside the built-in five.
#[derive(Debug)]
pub struct Simulation<T, R> {
    transmitter: T,
    receiver: R,
    settings: SimSettings,
}

/// The state-corruption hook passed to [`Simulation::run_hooked`]: given
/// the current time, exclusive access to both process states, and the
/// in-flight packets (ordered by delivery time), it applies an arbitrary
/// transient fault.
pub type CorruptionHook<'a, TS, RS> = &'a mut dyn FnMut(Time, &mut TS, &mut RS, &mut [Packet]);

/// A [`CorruptionHook`] scheduled to fire just before a given event index.
pub type ScheduledCorruption<'a, TS, RS> = (u64, CorruptionHook<'a, TS, RS>);

impl<T, R> Simulation<T, R>
where
    T: Automaton<Action = RstpAction>,
    R: Automaton<Action = RstpAction>,
{
    /// Creates a simulation of `transmitter ∘ receiver ∘ C(P)`.
    pub fn new(transmitter: T, receiver: R, settings: SimSettings) -> Self {
        Simulation {
            transmitter,
            receiver,
            settings,
        }
    }

    /// Runs to quiescence (or budget), returning trace and metrics.
    ///
    /// `input` is only recorded into the trace for the checker; the
    /// transmitter automaton already carries its own copy.
    ///
    /// # Errors
    ///
    /// [`SimError`] on any model violation; see the type's docs.
    pub fn run(
        &self,
        input: &[Message],
        step_adv: &mut dyn StepAdversary,
        delivery_adv: &mut dyn DeliveryAdversary,
    ) -> Result<SimRun, SimError> {
        self.run_hooked(input, step_adv, delivery_adv, None)
    }

    /// [`Simulation::run`] with an optional state-corruption hook.
    ///
    /// When `hook` is `Some((at_event, mutate))`, `mutate` is invoked
    /// exactly once, just before the `at_event`-th processed event (0 =
    /// before anything runs), with exclusive access to both process states
    /// and the in-flight packets (one slot per scheduled delivery, ordered
    /// by delivery time). The hook may overwrite states arbitrarily and
    /// rewrite each packet **in place**; delivery times are preserved and
    /// a packet must keep its direction (data stays data, ack stays ack —
    /// a channel cannot turn one into the other). If the run finishes
    /// before `at_event`, the hook never fires.
    ///
    /// This is the engine half of the self-stabilization story: the hook
    /// models an arbitrary transient fault, and the stabilizing protocols'
    /// convergence oracle checks the suffix that follows.
    ///
    /// # Errors
    ///
    /// [`SimError`] on any model violation, including a hook that changes
    /// a packet's direction.
    pub fn run_hooked(
        &self,
        input: &[Message],
        step_adv: &mut dyn StepAdversary,
        delivery_adv: &mut dyn DeliveryAdversary,
        mut hook: Option<ScheduledCorruption<'_, T::State, R::State>>,
    ) -> Result<SimRun, SimError> {
        let s = &self.settings;
        let channel = Channel::new();
        let mut engine = Engine {
            channel_state: channel.initial_state(),
            channel,
            heap: BinaryHeap::new(),
            seq: 0,
            pending_deliveries: 0,
            send_index: 0,
            step_counts: [0, 0],
            metrics: RunMetrics::default(),
            trace: SimTrace::new(input.to_vec()),
            settings: *s,
        };
        let mut ts = self.transmitter.initial_state();
        let mut rs = self.receiver.initial_state();
        let mut scheduled = [false, false]; // [transmitter, receiver]

        engine.schedule(Time::ZERO, EventKind::Step(Owner::Transmitter));
        engine.schedule(Time::ZERO, EventKind::Step(Owner::Receiver));
        scheduled[0] = true;
        scheduled[1] = true;

        let mut processed: u64 = 0;
        while let Some(ev) = engine.heap.pop() {
            if hook.as_ref().is_some_and(|(at, _)| processed >= *at) {
                if let Some((_, mutate)) = hook.take() {
                    Self::apply_corruption(&mut engine, ev.time, &mut ts, &mut rs, mutate)?;
                    // Corruption can wake a parked (descheduled) process.
                    if !scheduled[0] && !self.transmitter.enabled(&ts).is_empty() {
                        engine.schedule(ev.time, EventKind::Step(Owner::Transmitter));
                        scheduled[0] = true;
                    }
                    if !scheduled[1] && !self.receiver.enabled(&rs).is_empty() {
                        engine.schedule(ev.time, EventKind::Step(Owner::Receiver));
                        scheduled[1] = true;
                    }
                }
            }
            if processed >= s.max_events {
                engine.metrics.end_time = ev.time;
                return Ok(SimRun {
                    outcome: Outcome::BudgetExhausted,
                    metrics: engine.metrics,
                    trace: engine.trace,
                });
            }
            processed += 1;
            let now = ev.time;
            engine.metrics.end_time = now;

            match ev.kind {
                EventKind::Step(Owner::Transmitter) => {
                    scheduled[0] = false;
                    let enabled = self.transmitter.enabled(&ts);
                    if let Some(action) = Self::sole_action(Owner::Transmitter, &enabled)? {
                        let may_park = action.is_idle()
                            && engine.pending_deliveries == 0
                            && Self::only_idles(&self.receiver.enabled(&rs));
                        if may_park {
                            continue; // settled: deschedule
                        }
                        self.transmitter.apply(&mut ts, &action).map_err(|e| {
                            SimError::Automaton {
                                what: e.to_string(),
                            }
                        })?;
                        engine.perform(now, action, delivery_adv)?;
                        let gap = Self::checked_gap(step_adv, Owner::Transmitter, &mut engine, s)?;
                        engine.schedule(now + gap, EventKind::Step(Owner::Transmitter));
                        scheduled[0] = true;
                    }
                }
                EventKind::Step(Owner::Receiver) => {
                    scheduled[1] = false;
                    let enabled = self.receiver.enabled(&rs);
                    if let Some(action) = Self::sole_action(Owner::Receiver, &enabled)? {
                        let t_enabled = self.transmitter.enabled(&ts);
                        let may_park = action.is_idle()
                            && engine.pending_deliveries == 0
                            && Self::only_idles(&t_enabled);
                        if may_park {
                            continue;
                        }
                        self.receiver
                            .apply(&mut rs, &action)
                            .map_err(|e| SimError::Automaton {
                                what: e.to_string(),
                            })?;
                        engine.perform(now, action, delivery_adv)?;
                        let gap = Self::checked_gap(step_adv, Owner::Receiver, &mut engine, s)?;
                        engine.schedule(now + gap, EventKind::Step(Owner::Receiver));
                        scheduled[1] = true;
                    }
                }
                #[expect(clippy::unreachable, reason = "only the two processes are scheduled")]
                EventKind::Step(Owner::Channel) => {
                    unreachable!("the channel is never scheduled as a stepping process")
                }
                EventKind::Deliver(packet) => {
                    engine.pending_deliveries -= 1;
                    engine
                        .channel
                        .apply(&mut engine.channel_state, &RstpAction::Recv(packet))
                        .map_err(|e| SimError::Channel {
                            what: e.to_string(),
                        })?;
                    let recv = RstpAction::Recv(packet);
                    match packet {
                        Packet::Data(_) => {
                            self.receiver.apply(&mut rs, &recv).map_err(|e| {
                                SimError::Automaton {
                                    what: e.to_string(),
                                }
                            })?;
                            // A quiescent (descheduled) process revived by an
                            // input gets a fresh schedule; the Σ checker will
                            // flag the gap if it breaks the step bounds. The
                            // built-in protocols never quiesce revivably.
                            if !scheduled[1] && !self.receiver.enabled(&rs).is_empty() {
                                engine.schedule(now, EventKind::Step(Owner::Receiver));
                                scheduled[1] = true;
                            }
                        }
                        Packet::Ack(_) => {
                            self.transmitter.apply(&mut ts, &recv).map_err(|e| {
                                SimError::Automaton {
                                    what: e.to_string(),
                                }
                            })?;
                            if !scheduled[0] && !self.transmitter.enabled(&ts).is_empty() {
                                engine.schedule(now, EventKind::Step(Owner::Transmitter));
                                scheduled[0] = true;
                            }
                        }
                    }
                    engine.metrics.deliveries += 1;
                    engine.record(now, recv);
                }
            }
        }

        Ok(SimRun {
            outcome: Outcome::Quiescent,
            metrics: engine.metrics,
            trace: engine.trace,
        })
    }

    /// Fires the corruption hook: exposes both process states and the
    /// in-flight packets for mutation, then reconciles the channel
    /// multiset and the delivery queue with the rewritten packets.
    fn apply_corruption(
        engine: &mut Engine,
        now: Time,
        ts: &mut T::State,
        rs: &mut R::State,
        mutate: CorruptionHook<'_, T::State, R::State>,
    ) -> Result<(), SimError> {
        // Drain the queue into a deterministic order (delivery time, then
        // scheduling seq) so the packet slots the hook sees are stable.
        let mut queued = std::mem::take(&mut engine.heap).into_vec();
        queued.sort_by(|a, b| a.time.cmp(&b.time).then(a.seq.cmp(&b.seq)));
        let mut packets: Vec<Packet> = queued
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Deliver(p) => Some(p),
                _ => None,
            })
            .collect();
        let originals = packets.clone();
        mutate(now, ts, rs, &mut packets);

        let mut slot = 0usize;
        for ev in &mut queued {
            if let EventKind::Deliver(ref mut p) = ev.kind {
                let (old, new) = (originals[slot], packets[slot]);
                slot += 1;
                if new == old {
                    continue;
                }
                if new.is_data() != old.is_data() {
                    return Err(SimError::AdversaryOutOfBounds {
                        what: format!(
                            "corruption rewrote {old} into {new}, changing its direction"
                        ),
                    });
                }
                // Swap the packet inside the channel automaton too, so the
                // channel's multiset stays consistent with the queue.
                for action in [RstpAction::Recv(old), RstpAction::Send(new)] {
                    engine
                        .channel
                        .apply(&mut engine.channel_state, &action)
                        .map_err(|e| SimError::Channel {
                            what: e.to_string(),
                        })?;
                }
                *p = new;
            }
        }
        engine.heap = queued.into_iter().collect();
        Ok(())
    }

    fn sole_action(owner: Owner, enabled: &[RstpAction]) -> Result<Option<RstpAction>, SimError> {
        match enabled {
            [] => Ok(None),
            [a] => Ok(Some(*a)),
            many => Err(SimError::Determinism {
                owner,
                enabled: many.iter().map(|a| format!("{a:?}")).collect(),
            }),
        }
    }

    fn only_idles(enabled: &[RstpAction]) -> bool {
        enabled.iter().all(|a| a.is_idle())
    }

    fn checked_gap(
        step_adv: &mut dyn StepAdversary,
        owner: Owner,
        engine: &mut Engine,
        s: &SimSettings,
    ) -> Result<TimeDelta, SimError> {
        let idx = match owner {
            Owner::Transmitter => 0,
            _ => 1,
        };
        let step_index = engine.step_counts[idx];
        engine.step_counts[idx] += 1;
        match owner {
            Owner::Transmitter => engine.metrics.transmitter_steps += 1,
            _ => engine.metrics.receiver_steps += 1,
        }
        let gap = step_adv.next_gap(owner, step_index);
        let bounds = s.bounds_of(owner);
        if gap < bounds.c1() || gap > bounds.c2() {
            return Err(SimError::AdversaryOutOfBounds {
                what: format!(
                    "{owner:?} step gap {gap} outside [{}, {}]",
                    bounds.c1(),
                    bounds.c2()
                ),
            });
        }
        Ok(gap)
    }
}

/// Internal mutable engine state, split out so `perform` can borrow it
/// independently of the process states.
struct Engine {
    channel: Channel,
    channel_state: ChannelState,
    heap: BinaryHeap<QueuedEvent>,
    seq: u64,
    pending_deliveries: u64,
    send_index: u64,
    step_counts: [u64; 2],
    metrics: RunMetrics,
    trace: SimTrace,
    settings: SimSettings,
}

impl Engine {
    fn schedule(&mut self, time: Time, kind: EventKind) {
        self.heap.push(QueuedEvent {
            time,
            seq: self.seq,
            kind,
        });
        self.seq += 1;
    }

    fn record(&mut self, time: Time, action: RstpAction) {
        if self.settings.record_trace {
            self.trace.push(time, action);
        }
    }

    /// Applies the side effects of a locally controlled action: metrics,
    /// channel handoff for sends, trace recording.
    fn perform(
        &mut self,
        now: Time,
        action: RstpAction,
        delivery_adv: &mut dyn DeliveryAdversary,
    ) -> Result<(), SimError> {
        match action {
            RstpAction::Send(p) => {
                self.channel
                    .apply(&mut self.channel_state, &RstpAction::Send(p))
                    .map_err(|e| SimError::Channel {
                        what: e.to_string(),
                    })?;
                match p {
                    Packet::Data(_) => {
                        self.metrics.data_sends += 1;
                        self.metrics.last_data_send = Some(now);
                    }
                    Packet::Ack(_) => self.metrics.ack_sends += 1,
                }
                let index = self.send_index;
                self.send_index += 1;
                match delivery_adv.dispose(p, now, index) {
                    Disposition::Deliver(delay) => {
                        self.check_delay(delay)?;
                        self.schedule(now + delay, EventKind::Deliver(p));
                        self.pending_deliveries += 1;
                    }
                    Disposition::Drop => {
                        // Outside the C(P) contract: silently remove the
                        // packet from flight and count it.
                        self.channel
                            .apply(&mut self.channel_state, &RstpAction::Recv(p))
                            .map_err(|e| SimError::Channel {
                                what: e.to_string(),
                            })?;
                        self.metrics.drops += 1;
                    }
                    Disposition::Duplicate(first, second) => {
                        self.check_delay(first)?;
                        self.check_delay(second)?;
                        // Inject the extra copy into the channel so the
                        // bookkeeping stays consistent.
                        self.channel
                            .apply(&mut self.channel_state, &RstpAction::Send(p))
                            .map_err(|e| SimError::Channel {
                                what: e.to_string(),
                            })?;
                        self.schedule(now + first, EventKind::Deliver(p));
                        self.schedule(now + second, EventKind::Deliver(p));
                        self.pending_deliveries += 2;
                        self.metrics.duplicates += 1;
                    }
                }
            }
            RstpAction::Write(_) => {
                self.metrics.writes += 1;
                self.metrics.last_write = Some(now);
            }
            RstpAction::TransmitterInternal(InternalKind::Wait)
            | RstpAction::ReceiverInternal(InternalKind::Wait) => {
                self.metrics.wait_steps += 1;
            }
            RstpAction::TransmitterInternal(InternalKind::Idle)
            | RstpAction::ReceiverInternal(InternalKind::Idle) => {
                self.metrics.idle_steps += 1;
            }
            #[expect(
                clippy::unreachable,
                reason = "perform sees locally controlled actions only"
            )]
            RstpAction::Recv(_) => unreachable!("recv is not a locally controlled action"),
        }
        self.record(now, action);
        Ok(())
    }

    fn check_delay(&self, delay: TimeDelta) -> Result<(), SimError> {
        if delay < self.settings.d_lo || delay > self.settings.d_hi {
            return Err(SimError::AdversaryOutOfBounds {
                what: format!(
                    "delivery delay {delay} outside [{}, {}]",
                    self.settings.d_lo, self.settings.d_hi
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{DeliveryPolicy, StepPolicy};
    use rstp_core::protocols::{AlphaReceiver, AlphaTransmitter};
    use rstp_core::TimingParams;

    fn params() -> TimingParams {
        TimingParams::from_ticks(2, 3, 8).unwrap() // δ1 = 4
    }

    fn run_alpha(
        input: Vec<bool>,
        step: StepPolicy,
        delivery: DeliveryPolicy,
    ) -> Result<SimRun, SimError> {
        let p = params();
        let sim = Simulation::new(
            AlphaTransmitter::new(p, input.clone()),
            AlphaReceiver::new(),
            SimSettings::from_params(p),
        );
        let mut sa = step.build(p);
        let mut da = delivery.build(TimeDelta::ZERO, p.d());
        sim.run(&input, sa.as_mut(), da.as_mut())
    }

    #[test]
    fn alpha_transmits_everything() {
        let input = vec![true, false, true, true, false];
        let run = run_alpha(input.clone(), StepPolicy::AllSlow, DeliveryPolicy::MaxDelay).unwrap();
        assert_eq!(run.outcome, Outcome::Quiescent);
        assert_eq!(run.metrics.writes, 5);
        assert_eq!(run.metrics.data_sends, 5);
        assert_eq!(run.trace.written(), input);
    }

    #[test]
    fn alpha_effort_matches_closed_form_under_slow_steps() {
        // Last send fires at step (n-1)*δ1, each step c2 apart:
        // t(last-send) = (n-1)*δ1*c2; effort/n -> δ1*c2 = 12.
        let n = 64usize;
        let input = vec![true; n];
        let run = run_alpha(input, StepPolicy::AllSlow, DeliveryPolicy::MaxDelay).unwrap();
        let expected = ((n as u64 - 1) * 4 * 3) as f64;
        assert_eq!(run.metrics.last_data_send.unwrap().ticks() as f64, expected);
    }

    #[test]
    fn empty_input_quiesces_immediately() {
        let run = run_alpha(vec![], StepPolicy::AllFast, DeliveryPolicy::Eager).unwrap();
        assert_eq!(run.outcome, Outcome::Quiescent);
        assert_eq!(run.metrics.data_sends, 0);
        assert_eq!(run.metrics.writes, 0);
    }

    #[test]
    fn trace_times_are_monotone() {
        let run = run_alpha(
            vec![true; 20],
            StepPolicy::Alternate,
            DeliveryPolicy::Random { seed: 3 },
        )
        .unwrap();
        let times: Vec<_> = run.trace.events().iter().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(times.first().copied(), Some(Time::ZERO));
    }

    #[test]
    fn deterministic_given_seeds() {
        let a = run_alpha(
            vec![true, false, true],
            StepPolicy::Random { seed: 9 },
            DeliveryPolicy::Random { seed: 11 },
        )
        .unwrap();
        let b = run_alpha(
            vec![true, false, true],
            StepPolicy::Random { seed: 9 },
            DeliveryPolicy::Random { seed: 11 },
        )
        .unwrap();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn loss_breaks_alpha_liveness_but_terminates() {
        let run = run_alpha(
            vec![true; 10],
            StepPolicy::AllFast,
            DeliveryPolicy::Faulty {
                loss: 1.0,
                duplication: 0.0,
                seed: 5,
            },
        )
        .unwrap();
        assert_eq!(run.outcome, Outcome::Quiescent);
        assert_eq!(run.metrics.drops, 10);
        assert_eq!(run.metrics.writes, 0);
    }

    #[test]
    fn duplication_double_writes_alpha() {
        // Alpha has no duplicate suppression: injected copies are written
        // twice — visible evidence that C(P)'s no-duplication matters.
        let run = run_alpha(
            vec![true],
            StepPolicy::AllFast,
            DeliveryPolicy::Faulty {
                loss: 0.0,
                duplication: 1.0,
                seed: 5,
            },
        )
        .unwrap();
        assert_eq!(run.metrics.duplicates, 1);
        assert_eq!(run.metrics.writes, 2);
    }

    #[test]
    fn queue_ordering_is_time_then_seq() {
        let e1 = QueuedEvent {
            time: Time::from_ticks(5),
            seq: 0,
            kind: EventKind::Step(Owner::Transmitter),
        };
        let e2 = QueuedEvent {
            time: Time::from_ticks(3),
            seq: 1,
            kind: EventKind::Step(Owner::Receiver),
        };
        let e3 = QueuedEvent {
            time: Time::from_ticks(3),
            seq: 2,
            kind: EventKind::Step(Owner::Receiver),
        };
        let mut heap = BinaryHeap::new();
        heap.push(e1);
        heap.push(e3);
        heap.push(e2);
        assert_eq!(heap.pop().unwrap().seq, 1);
        assert_eq!(heap.pop().unwrap().seq, 2);
        assert_eq!(heap.pop().unwrap().seq, 0);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let p = params();
        let input = vec![true; 100];
        let sim = Simulation::new(
            AlphaTransmitter::new(p, input.clone()),
            AlphaReceiver::new(),
            SimSettings {
                max_events: 10,
                ..SimSettings::from_params(p)
            },
        );
        let mut sa = StepPolicy::AllFast.build(p);
        let mut da = DeliveryPolicy::Eager.build(TimeDelta::ZERO, p.d());
        let run = sim.run(&input, sa.as_mut(), da.as_mut()).unwrap();
        assert_eq!(run.outcome, Outcome::BudgetExhausted);
    }
}
