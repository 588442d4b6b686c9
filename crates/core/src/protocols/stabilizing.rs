//! Self-stabilizing protocol variants — correct transfer from *any*
//! corrupted automaton state.
//!
//! Every other protocol in this crate assumes the paper's clean start:
//! transmitter, receiver, and channel begin in their initial states. The
//! self-stabilization literature (Dolev's self-stabilizing ARQ over
//! bounded-capacity omitting/duplicating/non-FIFO channels; Delaët et
//! al.'s snap-stabilization) asks for more: after an adversary overwrites
//! the registers with arbitrary values mid-run, the system must *converge*
//! — within a bounded stabilization window, the suffix of written messages
//! again satisfies the Y-prefix-of-X invariant.
//!
//! Two stabilizing variants live here:
//!
//! * [`StabStenningTransmitter`] / [`StabStenningReceiver`] — a stabilizing
//!   Stenning baseline. Stop-and-wait with sequence tags recycled mod
//!   [`TAGS`] (a *bounded* alphabet, unlike Stenning's unbounded one), plus
//!   a three-phase recovery ladder: when `ESCALATE_AFTER` consecutive
//!   retransmission timeouts elapse unacknowledged, the transmitter enters
//!   a **flush** phase (idles long enough that every in-flight packet —
//!   including corrupted ones — drains from the channel, which the timed
//!   channel guarantees within `d`), then a **sync** handshake that forces
//!   the receiver's expected tag to its own, then resumes the run phase.
//!   Every register access first *normalizes* the state (clamps each field
//!   into its domain), so arbitrary corruption leaves the automaton in a
//!   state it can always continue from.
//! * [`stab_beta_transmitter`] / [`StabBetaReceiver`] — a stabilizing β.
//!   The transmitter is the Figure 3 burst schedule with a lengthened
//!   inter-burst silence ([`stab_beta_silence`]); the receiver adds
//!   **gap-reset framing**: if its burst buffer stays non-empty for
//!   [`stab_beta_gap_reset`] consecutive local steps with no arrival, the
//!   partial burst is garbage (arrivals within a burst are never that far
//!   apart) and is discarded. Corruption can destroy at most the bursts it
//!   touches; the next inter-burst silence re-frames the stream.
//!
//! Convergence guarantees are *suffix* guarantees: a corrupted state may
//! lose or fabricate a bounded number of messages around the corruption
//! point (the receiver may falsely claim a message was accepted, a stale
//! ack may advance the transmitter). What stabilization promises — and
//! what the convergence oracle in rstp-check verifies — is that after the
//! documented window ([`stab_stenning_bound`], [`stab_beta_bound`]) all
//! further writes are correct: an end-aligned suffix of `X` for the
//! stabilizing Stenning, a contiguous substring of `X` for the stabilizing
//! β (a passive receiver cannot recover its stream position, so alignment
//! is up to the blocks lost to corruption).
//!
//! All four automata implement [`Corruptible`], exposing their state as a
//! bounded register vector so rstp-check's state-corruption adversary (and
//! the exhaustive small-state suite) can enumerate or sample the *entire*
//! corrupted-state space, reachable or not.

use crate::action::{InternalKind, Message, Packet, RstpAction};
use crate::params::TimingParams;
use crate::protocols::{BetaTransmitter, BetaTransmitterState, ProtocolError};
use rstp_automata::{ActionClass, Automaton, Corruptible, RegisterSpec, StepError};
use rstp_codec::{BlockCodec, Multiset};

/// Number of recycled sequence tags (`seq mod TAGS`).
///
/// 4 tags suffice for stop-and-wait over a fault-free channel: at most one
/// message is outstanding, so live tags differ by at most 1 and the
/// re-acknowledgement window (`expected - 1`) never aliases the frontier.
pub const TAGS: u64 = 4;

/// Consecutive unacknowledged retransmission timeouts before the
/// transmitter escalates to the flush phase.
pub const ESCALATE_AFTER: u64 = 2;

/// Bound on the packets simultaneously in flight, used by the
/// stabilization-window formulas (the timed channel drains everything it
/// holds within `d`, and stop-and-wait keeps the live population small).
pub const P_MAX: u64 = 8;

/// Bound on the garbage tail a corrupted receiver register vector can
/// fabricate (kept small so exhaustive enumeration stays tractable).
pub const GARBAGE_MAX: u64 = 4;

// Register indices, shared with the convergence oracle in rstp-check.

/// Index of `next` in [`StabStenningTransmitter`]'s register vector.
pub const REG_STAB_T_NEXT: usize = 0;
/// Index of the pending-ack register in [`StabStenningReceiver`]'s
/// register vector (`stab_stenning_ack_alphabet()` encodes "none").
pub const REG_STAB_R_PENDING_ACK: usize = 1;
/// Index of the garbage-length register in [`StabStenningReceiver`]'s
/// register vector.
pub const REG_STAB_R_GARBAGE_LEN: usize = 2;
/// Index of `block` in the stabilizing β transmitter's register vector.
pub const REG_BETA_T_BLOCK: usize = 0;
/// Index of the pending-length register in [`StabBetaReceiver`]'s register
/// vector.
pub const REG_BETA_R_PENDING_LEN: usize = 2;

/// The tag carried by message index `i`.
#[must_use]
pub fn tag_of(index: usize) -> u64 {
    (index as u64) % TAGS
}

/// Data symbol of a sync probe for `tag` (data alphabet `[0, TAGS)`).
#[must_use]
pub fn sync_symbol(tag: u64) -> u64 {
    tag % TAGS
}

/// Data symbol carrying `(tag, bit)` (data alphabet `[TAGS, 3·TAGS)`).
#[must_use]
pub fn data_symbol(tag: u64, bit: Message) -> u64 {
    TAGS + 2 * (tag % TAGS) + u64::from(bit)
}

/// Ack symbol answering a sync probe (ack alphabet `[0, TAGS)`).
#[must_use]
pub fn ack_sync_symbol(tag: u64) -> u64 {
    tag % TAGS
}

/// Ack symbol answering a data packet (ack alphabet `[TAGS, 2·TAGS)`).
#[must_use]
pub fn ack_data_symbol(tag: u64) -> u64 {
    TAGS + tag % TAGS
}

/// Size of the stabilizing Stenning data alphabet (`3·TAGS`).
#[must_use]
pub fn stab_stenning_data_alphabet() -> u64 {
    3 * TAGS
}

/// Size of the stabilizing Stenning ack alphabet (`2·TAGS`).
#[must_use]
pub fn stab_stenning_ack_alphabet() -> u64 {
    2 * TAGS
}

/// Default retransmission timeout in local steps (same policy as the
/// Stenning/altbit baselines, floored at 2 so the timer can actually wrap
/// and strike).
#[must_use]
pub fn stab_stenning_timeout(params: TimingParams, timeout_steps: Option<u64>) -> u64 {
    let default = (2 * params.d() + 2 * params.c2()).div_ceil(params.c1()) + 1;
    timeout_steps.unwrap_or(default).max(2)
}

/// Flush-phase length in local steps: long enough that everything in
/// flight at escalation time (data and the acks it may still provoke) has
/// drained from the timed channel.
#[must_use]
pub fn stab_stenning_flush_steps(params: TimingParams) -> u64 {
    (2 * params.d() + params.c2()).div_ceil(params.c1()) + 1
}

/// Documented stabilization window for the stabilizing Stenning pair, in
/// ticks from the corruption instant.
///
/// Worst chain: up to `ESCALATE_AFTER + 1` full timeout periods to strike
/// out (the timer may be corrupted mid-period), the flush drain, the sync
/// handshake (≤ one timeout period plus a round trip), the first repaired
/// data round trip, and the receiver draining ≤ [`P_MAX`] garbage writes —
/// every local step costing at most `c2`.
#[must_use]
pub fn stab_stenning_bound(params: TimingParams, timeout_steps: Option<u64>) -> u64 {
    let timeout = stab_stenning_timeout(params, timeout_steps);
    let flush = stab_stenning_flush_steps(params);
    (params.c2() * (timeout * (ESCALATE_AFTER + 2) + flush + P_MAX + 4) + 3 * params.d()).ticks()
}

/// The stabilizing β receiver's gap-reset threshold, in consecutive
/// silent local steps.
///
/// Within a burst, consecutive arrivals are at most `c2 + d` apart, during
/// which the receiver takes at most `⌊(c2+d)/c1⌋ + 1` steps — strictly
/// fewer than this threshold, so a live burst never resets.
#[must_use]
pub fn stab_beta_gap_reset(params: TimingParams) -> u64 {
    (params.c2() + params.d()) / params.c1() + 2
}

/// The stabilizing β transmitter's inter-burst silence, in `wait_t` steps.
///
/// Chosen so the receiver sees at least [`stab_beta_gap_reset`] silent
/// steps between bursts: `silence·c1 ≥ gap_reset·c2 + d`, hence any
/// partial (corrupted) burst is discarded before the next burst arrives.
#[must_use]
pub fn stab_beta_silence(params: TimingParams) -> u64 {
    (stab_beta_gap_reset(params) * params.c2() + params.d()).div_ceil(params.c1())
}

/// Message bits per burst of the stabilizing β (the Figure 3 codec rate
/// for `(k, δ1)`); falls back to `1` for degenerate shapes.
#[must_use]
pub fn stab_beta_bits_per_block(params: TimingParams, k: u64) -> u64 {
    BlockCodec::new(k, params.delta1()).map_or(1, |c| u64::from(c.bits_per_block()).max(1))
}

/// Documented stabilization window for the stabilizing β pair, in ticks
/// from the corruption instant.
///
/// Worst chain: finish the burst in progress and its silence, one
/// gap-reset of the corrupted partial burst, one full clean burst plus its
/// decode writes, and the receiver draining corrupted pending writes.
#[must_use]
pub fn stab_beta_bound(params: TimingParams, k: u64) -> u64 {
    let silence = stab_beta_silence(params);
    let gap = stab_beta_gap_reset(params);
    let bits = stab_beta_bits_per_block(params, k);
    (params.c2() * (2 * (params.delta1() + silence) + gap + bits + P_MAX + 4) + 2 * params.d())
        .ticks()
}

/// Builds the stabilizing β transmitter: the Figure 3 burst schedule with
/// the lengthened [`stab_beta_silence`] wait phase.
///
/// # Errors
///
/// Same conditions as [`BetaTransmitter::new`].
pub fn stab_beta_transmitter(
    params: TimingParams,
    k: u64,
    input: &[Message],
) -> Result<BetaTransmitter, ProtocolError> {
    BetaTransmitter::with_shape(k, params.delta1(), stab_beta_silence(params), input)
}

/// Recovery phase of the stabilizing Stenning transmitter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StabPhase {
    /// Normal stop-and-wait transfer.
    Run,
    /// Channel believed empty; probing the receiver's expected tag.
    Sync,
    /// Idling until every in-flight packet has provably drained.
    Flush {
        /// Remaining flush steps.
        left: u64,
    },
}

impl StabPhase {
    /// Register encoding: 0 = Run, 1 = Sync, 2 = Flush.
    #[must_use]
    pub fn to_register(self) -> u64 {
        match self {
            StabPhase::Run => 0,
            StabPhase::Sync => 1,
            StabPhase::Flush { .. } => 2,
        }
    }
}

/// The stabilizing Stenning transmitter.
#[derive(Clone, Debug)]
pub struct StabStenningTransmitter {
    input: Vec<Message>,
    timeout_steps: u64,
    flush_steps: u64,
}

/// State of [`StabStenningTransmitter`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StabStenningTransmitterState {
    /// Index of the message being transmitted (tag = `next mod TAGS`).
    pub next: usize,
    /// Local steps since the last (re)transmission; `0` = send now.
    pub timer: u64,
    /// Consecutive timeout wraps without an acknowledgement.
    pub strikes: u64,
    /// Current recovery phase.
    pub phase: StabPhase,
}

impl StabStenningTransmitter {
    /// Creates the transmitter; `timeout_steps = None` picks the same safe
    /// default as the non-stabilizing baselines.
    #[must_use]
    pub fn new(params: TimingParams, input: Vec<Message>, timeout_steps: Option<u64>) -> Self {
        StabStenningTransmitter {
            timeout_steps: stab_stenning_timeout(params, timeout_steps),
            flush_steps: stab_stenning_flush_steps(params),
            input,
        }
    }

    /// The retransmission period in local steps.
    #[must_use]
    pub fn timeout_steps(&self) -> u64 {
        self.timeout_steps
    }

    /// The flush-phase length in local steps.
    #[must_use]
    pub fn flush_steps(&self) -> u64 {
        self.flush_steps
    }

    /// Clamps every register into its domain; corruption may leave any
    /// values, and stabilization starts by making the state well-formed.
    fn normalize(&self, state: &StabStenningTransmitterState) -> StabStenningTransmitterState {
        StabStenningTransmitterState {
            next: state.next.min(self.input.len()),
            timer: state.timer % self.timeout_steps,
            strikes: state.strikes.min(ESCALATE_AFTER),
            phase: match state.phase {
                StabPhase::Flush { left } => StabPhase::Flush {
                    left: left.clamp(1, self.flush_steps),
                },
                phase => phase,
            },
        }
    }

    fn outgoing_symbol(&self, s: &StabStenningTransmitterState) -> Option<u64> {
        match s.phase {
            StabPhase::Sync => Some(sync_symbol(tag_of(s.next))),
            // `normalize` clamps `next` to `input.len()` *inclusive*, so
            // a corrupted Run state can point one past the end. Staying
            // silent is the right recovery: the strike counter escalates
            // to a sync, exactly as for any other lost symbol.
            StabPhase::Run => self
                .input
                .get(s.next)
                .map(|&bit| data_symbol(tag_of(s.next), bit)),
            StabPhase::Flush { .. } => None,
        }
    }

    /// Applies an incoming ack symbol to a normalized state.
    fn absorb_ack(&self, s: &mut StabStenningTransmitterState, symbol: u64) {
        if s.next >= self.input.len() {
            return;
        }
        let tag = tag_of(s.next);
        if symbol == ack_data_symbol(tag) && symbol >= TAGS {
            // The current message is acknowledged. Accepted in *every*
            // phase: a short explicit timeout can strike out while the
            // legitimate ack is still in flight, and dropping it here
            // would make the subsequent sync roll the receiver back.
            s.next += 1;
            s.timer = 0;
            s.strikes = 0;
            s.phase = StabPhase::Run;
        } else if symbol == ack_sync_symbol(tag) && symbol < TAGS && s.phase == StabPhase::Sync {
            s.phase = StabPhase::Run;
            s.timer = 0;
            s.strikes = 0;
        }
        // Anything else is stale or corrupted; input-enabledness absorbs it.
    }
}

impl Automaton for StabStenningTransmitter {
    type Action = RstpAction;
    type State = StabStenningTransmitterState;

    fn initial_state(&self) -> StabStenningTransmitterState {
        StabStenningTransmitterState {
            next: 0,
            timer: 0,
            strikes: 0,
            phase: StabPhase::Run,
        }
    }

    fn classify(&self, action: &RstpAction) -> Option<ActionClass> {
        match action {
            RstpAction::Send(Packet::Data(_)) => Some(ActionClass::Output),
            RstpAction::Recv(Packet::Ack(_)) => Some(ActionClass::Input),
            RstpAction::TransmitterInternal(InternalKind::Wait) => Some(ActionClass::Internal),
            _ => None,
        }
    }

    fn enabled_into(&self, state: &StabStenningTransmitterState, out: &mut Vec<RstpAction>) {
        let s = self.normalize(state);
        if s.next >= self.input.len() {
            return;
        }
        match self.outgoing_symbol(&s) {
            Some(symbol) if s.timer == 0 => out.push(RstpAction::Send(Packet::Data(symbol))),
            _ => out.push(RstpAction::TransmitterInternal(InternalKind::Wait)),
        }
    }

    fn apply(
        &self,
        state: &mut StabStenningTransmitterState,
        action: &RstpAction,
    ) -> Result<(), StepError> {
        // The state is four words: the effect lands on a normalized copy,
        // committed once the precondition has held.
        let mut s = self.normalize(state);
        let precondition_false = |reason: &str| StepError::PreconditionFalse {
            action: format!("{action:?}"),
            reason: reason.into(),
        };
        match action {
            RstpAction::Recv(Packet::Ack(symbol)) => self.absorb_ack(&mut s, *symbol),
            RstpAction::Send(Packet::Data(symbol)) => {
                if s.next >= self.input.len() || s.timer != 0 {
                    return Err(precondition_false(
                        "send requires timer = 0 and unsent input",
                    ));
                }
                match self.outgoing_symbol(&s) {
                    Some(expected) if expected == *symbol => s.timer = 1 % self.timeout_steps,
                    Some(_) => {
                        return Err(precondition_false("packet must match the phase's symbol"))
                    }
                    None => return Err(precondition_false("flush phase sends nothing")),
                }
            }
            RstpAction::TransmitterInternal(InternalKind::Wait) => {
                if s.next >= self.input.len() {
                    return Err(precondition_false("all input acknowledged"));
                }
                match s.phase {
                    StabPhase::Flush { left } if left <= 1 => {
                        s.phase = StabPhase::Sync;
                        s.timer = 0;
                    }
                    StabPhase::Flush { left } => s.phase = StabPhase::Flush { left: left - 1 },
                    StabPhase::Sync | StabPhase::Run if s.timer != 0 => {
                        s.timer = (s.timer + 1) % self.timeout_steps;
                        if s.timer == 0 && s.phase == StabPhase::Run {
                            // A full period elapsed unacknowledged.
                            s.strikes += 1;
                            if s.strikes >= ESCALATE_AFTER {
                                s.phase = StabPhase::Flush {
                                    left: self.flush_steps,
                                };
                                s.strikes = 0;
                            }
                        }
                    }
                    _ => return Err(precondition_false("wait requires a running timer")),
                }
            }
            other => return Err(StepError::unknown(other)),
        }
        *state = s;
        Ok(())
    }
}

impl Corruptible for StabStenningTransmitter {
    fn registers(&self) -> Vec<RegisterSpec> {
        vec![
            RegisterSpec::new("next", self.input.len() as u64),
            RegisterSpec::new("timer", self.timeout_steps - 1),
            RegisterSpec::new("strikes", ESCALATE_AFTER),
            RegisterSpec::new("phase", 2),
            RegisterSpec::new("flush_left", self.flush_steps),
        ]
    }

    fn state_from_registers(&self, regs: &[u64]) -> StabStenningTransmitterState {
        let reg = |i: usize| regs.get(i).copied().unwrap_or(0);
        let phase = match reg(3) {
            0 => StabPhase::Run,
            1 => StabPhase::Sync,
            _ => StabPhase::Flush { left: reg(4) },
        };
        self.normalize(&StabStenningTransmitterState {
            next: usize::try_from(reg(REG_STAB_T_NEXT)).unwrap_or(usize::MAX),
            timer: reg(1),
            strikes: reg(2),
            phase,
        })
    }

    fn state_to_registers(&self, state: &StabStenningTransmitterState) -> Vec<u64> {
        let s = self.normalize(state);
        let flush_left = match s.phase {
            StabPhase::Flush { left } => left,
            _ => 0,
        };
        vec![
            s.next as u64,
            s.timer,
            s.strikes,
            s.phase.to_register(),
            flush_left,
        ]
    }
}

/// The stabilizing Stenning receiver.
#[derive(Clone, Copy, Debug, Default)]
pub struct StabStenningReceiver;

/// State of [`StabStenningReceiver`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StabStenningReceiverState {
    /// The tag expected next.
    pub expected: u64,
    /// Accepted messages, in order.
    pub received: Vec<Message>,
    /// Completed writes.
    pub written: usize,
    /// The single outstanding ack symbol, if any (stop-and-wait provokes
    /// at most one before the next arrival).
    pub pending_ack: Option<u64>,
    /// Whether a sync probe has ever been accepted (diagnostic; clean runs
    /// never sync).
    pub synced: bool,
}

impl StabStenningReceiver {
    /// Creates the receiver.
    #[must_use]
    pub fn new() -> Self {
        StabStenningReceiver
    }

    fn normalize(&self, s: &mut StabStenningReceiverState) {
        s.expected %= TAGS;
        s.written = s.written.min(s.received.len());
        // The unwritten tail is NOT clamped here: corruption can only
        // fabricate up to `GARBAGE_MAX` entries (the register encoding in
        // `state_from_registers` bounds it), while a *legitimate* tail can
        // grow past any constant when the writer is scheduled more slowly
        // than the channel delivers — the sharded server does exactly that
        // under deadline misses, and truncating here silently dropped
        // accepted messages.
        s.pending_ack = Self::pending_ack(s);
    }

    /// The pending ack as normalization leaves it: a symbol outside the ack
    /// alphabet is no ack at all.
    fn pending_ack(s: &StabStenningReceiverState) -> Option<u64> {
        s.pending_ack.filter(|&a| a < stab_stenning_ack_alphabet())
    }

    fn write_value(&self, s: &StabStenningReceiverState) -> Option<Message> {
        let bit = *s.received.get(s.written)?;
        // Injected convergence bug (test harness only): once a sync probe
        // has been accepted, every later write is negated. Clean runs
        // never sync, so only the corruption adversary can expose this.
        if cfg!(rstp_check_inject_stab_bug) && s.synced {
            Some(!bit)
        } else {
            Some(bit)
        }
    }
}

impl Automaton for StabStenningReceiver {
    type Action = RstpAction;
    type State = StabStenningReceiverState;

    fn initial_state(&self) -> StabStenningReceiverState {
        StabStenningReceiverState::default()
    }

    fn classify(&self, action: &RstpAction) -> Option<ActionClass> {
        match action {
            RstpAction::Recv(Packet::Data(_)) => Some(ActionClass::Input),
            RstpAction::Send(Packet::Ack(_)) => Some(ActionClass::Output),
            RstpAction::Write(_) => Some(ActionClass::Output),
            RstpAction::ReceiverInternal(InternalKind::Idle) => Some(ActionClass::Internal),
            _ => None,
        }
    }

    fn enabled_into(&self, state: &StabStenningReceiverState, out: &mut Vec<RstpAction>) {
        // A `written` past the end reads as caught up, so only the pending
        // ack needs normalizing here.
        if let Some(symbol) = Self::pending_ack(state) {
            out.push(RstpAction::Send(Packet::Ack(symbol)));
        } else if let Some(m) = self.write_value(state) {
            out.push(RstpAction::Write(m));
        } else {
            out.push(RstpAction::ReceiverInternal(InternalKind::Idle));
        }
    }

    /// Preconditions read the state as normalization would leave it, and
    /// each effect normalizes in place first, so a refused action leaves
    /// even a corrupted state as it was.
    fn apply(
        &self,
        state: &mut StabStenningReceiverState,
        action: &RstpAction,
    ) -> Result<(), StepError> {
        let precondition_false = |reason: &str| StepError::PreconditionFalse {
            action: format!("{action:?}"),
            reason: reason.into(),
        };
        match action {
            RstpAction::Recv(Packet::Data(symbol)) => {
                self.normalize(state);
                if *symbol < TAGS {
                    // Sync probe: adopt the transmitter's tag unconditionally.
                    state.expected = *symbol;
                    state.pending_ack = Some(ack_sync_symbol(*symbol));
                    state.synced = true;
                } else if *symbol < stab_stenning_data_alphabet() {
                    let tag = (*symbol - TAGS) / 2;
                    let bit = (*symbol - TAGS) % 2 == 1;
                    if tag == state.expected {
                        state.received.push(bit);
                        state.expected = (state.expected + 1) % TAGS;
                        state.pending_ack = Some(ack_data_symbol(tag));
                    } else if tag == (state.expected + TAGS - 1) % TAGS {
                        // Retransmission of the message just accepted: the
                        // ack was lost to corruption; re-ack, don't re-store.
                        state.pending_ack = Some(ack_data_symbol(tag));
                    }
                    // Any other tag is unanswerable garbage: stay silent so
                    // the transmitter strikes out and escalates to a sync.
                }
            }
            RstpAction::Send(Packet::Ack(symbol)) => {
                if Self::pending_ack(state) != Some(*symbol) {
                    return Err(precondition_false("send(ack) must emit the pending ack"));
                }
                self.normalize(state);
                state.pending_ack = None;
            }
            RstpAction::Write(m) => {
                if self.write_value(state) != Some(*m) {
                    return Err(precondition_false(
                        "write requires the next accepted message",
                    ));
                }
                self.normalize(state);
                state.written += 1;
            }
            RstpAction::ReceiverInternal(InternalKind::Idle) => {
                if Self::pending_ack(state).is_some() || state.written < state.received.len() {
                    return Err(precondition_false("idle_r requires no pending work"));
                }
                self.normalize(state);
            }
            other => return Err(StepError::unknown(other)),
        }
        Ok(())
    }
}

impl Corruptible for StabStenningReceiver {
    fn registers(&self) -> Vec<RegisterSpec> {
        vec![
            RegisterSpec::new("expected", TAGS - 1),
            // `2·TAGS` encodes "no pending ack".
            RegisterSpec::new("pending_ack", stab_stenning_ack_alphabet()),
            RegisterSpec::new("garbage_len", GARBAGE_MAX),
            RegisterSpec::new("garbage_bits", (1 << GARBAGE_MAX) - 1),
        ]
    }

    fn state_from_registers(&self, regs: &[u64]) -> StabStenningReceiverState {
        let reg = |i: usize| regs.get(i).copied().unwrap_or(0);
        let garbage_len = reg(REG_STAB_R_GARBAGE_LEN).min(GARBAGE_MAX);
        let bits = reg(3);
        let received = (0..garbage_len).map(|i| bits >> i & 1 == 1).collect();
        let pending = reg(1);
        let mut s = StabStenningReceiverState {
            expected: reg(0),
            received,
            written: 0,
            pending_ack: (pending < stab_stenning_ack_alphabet()).then_some(pending),
            synced: false,
        };
        self.normalize(&mut s);
        s
    }

    fn state_to_registers(&self, state: &StabStenningReceiverState) -> Vec<u64> {
        let mut s = state.clone();
        self.normalize(&mut s);
        let tail: Vec<Message> = s.received[s.written..]
            .iter()
            .copied()
            .take(GARBAGE_MAX as usize)
            .collect();
        let bits = tail
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | u64::from(b) << i);
        vec![
            s.expected,
            s.pending_ack.unwrap_or_else(stab_stenning_ack_alphabet),
            tail.len() as u64,
            bits,
        ]
    }
}

impl Corruptible for BetaTransmitter {
    fn registers(&self) -> Vec<RegisterSpec> {
        let round = self.delta1() + self.wait_len();
        vec![
            RegisterSpec::new("block", self.num_blocks() as u64),
            RegisterSpec::new("step_in_round", round.saturating_sub(1)),
        ]
    }

    fn state_from_registers(&self, regs: &[u64]) -> BetaTransmitterState {
        let reg = |i: usize| regs.get(i).copied().unwrap_or(0);
        let round = (self.delta1() + self.wait_len()).max(1);
        BetaTransmitterState {
            block: usize::try_from(reg(REG_BETA_T_BLOCK))
                .unwrap_or(usize::MAX)
                .min(self.num_blocks()),
            step_in_round: reg(1).min(round - 1),
        }
    }

    fn state_to_registers(&self, state: &BetaTransmitterState) -> Vec<u64> {
        vec![state.block as u64, state.step_in_round]
    }
}

/// The stabilizing β receiver: the Figure 3 multiset receiver plus
/// gap-reset framing.
#[derive(Clone, Debug)]
pub struct StabBetaReceiver {
    codec: BlockCodec,
    expected_bits: usize,
    k: u64,
    gap_reset: u64,
}

/// State of [`StabBetaReceiver`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StabBetaReceiverState {
    /// The burst in progress (Figure 3's multiset `A`).
    pub burst: Multiset,
    /// Decoded message bits, in order.
    pub decoded: Vec<Message>,
    /// Completed writes.
    pub written: usize,
    /// Consecutive local steps with a non-empty burst and no arrival.
    pub silent_steps: u64,
    /// Gap resets performed (diagnostic; clean runs never reset).
    pub resets: u32,
    /// Bursts that failed to decode.
    pub decode_failures: u32,
}

impl StabBetaReceiver {
    /// Creates the receiver, pair of [`stab_beta_transmitter`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`BetaTransmitter::new`].
    pub fn new(params: TimingParams, k: u64, expected_bits: usize) -> Result<Self, ProtocolError> {
        if k < 2 {
            return Err(ProtocolError::AlphabetTooSmall { k });
        }
        Ok(StabBetaReceiver {
            codec: BlockCodec::new(k, params.delta1())?,
            expected_bits,
            k,
            gap_reset: stab_beta_gap_reset(params),
        })
    }

    /// The burst size the receiver frames on (`δ1`).
    #[must_use]
    pub fn burst_size(&self) -> u64 {
        self.codec.packets_per_block()
    }

    /// The gap-reset threshold in silent local steps.
    #[must_use]
    pub fn gap_reset(&self) -> u64 {
        self.gap_reset
    }

    fn normalize(&self, s: &mut StabBetaReceiverState) {
        s.written = s.written.min(s.decoded.len());
        // As with the stabilizing Stenning receiver, the decoded-but-
        // unwritten tail is deliberately unclamped: corruption is bounded
        // to `GARBAGE_MAX` fabricated entries at the register boundary,
        // and a long legitimate tail just means the writer is scheduled
        // more slowly than bursts arrive (routine on a loaded shard).
        s.silent_steps = s.silent_steps.min(self.gap_reset);
    }

    fn absorb(&self, state: &mut StabBetaReceiverState, symbol: u64) {
        if symbol >= self.k {
            state.decode_failures += 1;
            return;
        }
        // Injected convergence bug (test harness only): after a framing
        // reset the receiver drops the first symbol of every burst, so no
        // burst ever completes. Clean runs never reset a non-empty burst,
        // so only the corruption adversary can expose this.
        if cfg!(rstp_check_inject_stab_bug) && state.resets > 0 && state.burst.is_empty() {
            return;
        }
        state.burst.insert(symbol);
        if state.burst.len() == self.codec.packets_per_block() {
            let remaining = self.expected_bits.saturating_sub(state.decoded.len());
            let decoded = self
                .codec
                .decode_block_into(&state.burst, &mut state.decoded, remaining);
            if decoded.is_err() {
                state.decode_failures += 1;
            }
            state.burst.clear();
        }
    }
}

impl Automaton for StabBetaReceiver {
    type Action = RstpAction;
    type State = StabBetaReceiverState;

    fn initial_state(&self) -> StabBetaReceiverState {
        StabBetaReceiverState {
            burst: Multiset::empty(self.k),
            decoded: Vec::new(),
            written: 0,
            silent_steps: 0,
            resets: 0,
            decode_failures: 0,
        }
    }

    fn classify(&self, action: &RstpAction) -> Option<ActionClass> {
        match action {
            RstpAction::Recv(Packet::Data(_)) => Some(ActionClass::Input),
            RstpAction::Write(_) => Some(ActionClass::Output),
            RstpAction::ReceiverInternal(_) => Some(ActionClass::Internal),
            _ => None,
        }
    }

    fn enabled_into(&self, state: &StabBetaReceiverState, out: &mut Vec<RstpAction>) {
        // A `written` past the end reads as caught up, so the raw state
        // enables what its normalization would.
        if let Some(&m) = state.decoded.get(state.written) {
            out.push(RstpAction::Write(m));
        } else if !state.burst.is_empty() {
            // A partial burst is either live (an arrival is imminent) or
            // corrupted garbage; count the silence to tell them apart.
            out.push(RstpAction::ReceiverInternal(InternalKind::Wait));
        } else {
            out.push(RstpAction::ReceiverInternal(InternalKind::Idle));
        }
    }

    /// Preconditions read only what normalization leaves equivalent, and
    /// each effect normalizes in place first, so a refused action leaves
    /// even a corrupted state as it was.
    fn apply(
        &self,
        state: &mut StabBetaReceiverState,
        action: &RstpAction,
    ) -> Result<(), StepError> {
        let precondition_false = |reason: &str| StepError::PreconditionFalse {
            action: format!("{action:?}"),
            reason: reason.into(),
        };
        match action {
            RstpAction::Recv(Packet::Data(symbol)) => {
                self.normalize(state);
                state.silent_steps = 0;
                self.absorb(state, *symbol);
            }
            RstpAction::Write(m) => {
                if state.decoded.get(state.written) != Some(m) {
                    return Err(precondition_false(
                        "write requires a decoded, unwritten message",
                    ));
                }
                self.normalize(state);
                state.written += 1;
            }
            RstpAction::ReceiverInternal(InternalKind::Wait) => {
                if state.burst.is_empty() || state.written < state.decoded.len() {
                    return Err(precondition_false("wait_r requires only a partial burst"));
                }
                self.normalize(state);
                state.silent_steps += 1;
                if state.silent_steps >= self.gap_reset {
                    // Arrivals within a live burst are never this far
                    // apart: the partial burst is corrupted framing.
                    state.burst.clear();
                    state.resets += 1;
                    state.silent_steps = 0;
                }
            }
            RstpAction::ReceiverInternal(InternalKind::Idle) => {
                if state.written < state.decoded.len() || !state.burst.is_empty() {
                    return Err(precondition_false("idle_r requires no pending work"));
                }
                self.normalize(state);
            }
            other => return Err(StepError::unknown(other)),
        }
        Ok(())
    }
}

impl Corruptible for StabBetaReceiver {
    fn registers(&self) -> Vec<RegisterSpec> {
        vec![
            RegisterSpec::new("burst_fill", self.codec.packets_per_block()),
            RegisterSpec::new("burst_sym", self.k - 1),
            RegisterSpec::new("pending_len", GARBAGE_MAX),
            RegisterSpec::new("pending_bits", (1 << GARBAGE_MAX) - 1),
            RegisterSpec::new("silent_steps", self.gap_reset),
        ]
    }

    fn state_from_registers(&self, regs: &[u64]) -> StabBetaReceiverState {
        let reg = |i: usize| regs.get(i).copied().unwrap_or(0);
        let fill = reg(0).min(self.codec.packets_per_block());
        let sym = reg(1).min(self.k - 1);
        let mut burst = Multiset::empty(self.k);
        for _ in 0..fill {
            burst.insert(sym);
        }
        let pending_len = reg(REG_BETA_R_PENDING_LEN).min(GARBAGE_MAX);
        let bits = reg(3);
        let decoded = (0..pending_len).map(|i| bits >> i & 1 == 1).collect();
        let mut s = StabBetaReceiverState {
            burst,
            decoded,
            written: 0,
            silent_steps: reg(4),
            resets: 0,
            decode_failures: 0,
        };
        self.normalize(&mut s);
        s
    }

    fn state_to_registers(&self, state: &StabBetaReceiverState) -> Vec<u64> {
        let mut s = state.clone();
        self.normalize(&mut s);
        // A multiset is summarized by its size and smallest element; the
        // round trip is behavioral (framing-equivalent), not structural.
        let sym = (0..self.k).find(|&v| s.burst.mult(v) > 0).unwrap_or(0);
        let tail: Vec<Message> = s.decoded[s.written..]
            .iter()
            .copied()
            .take(GARBAGE_MAX as usize)
            .collect();
        let bits = tail
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | u64::from(b) << i);
        vec![s.burst.len(), sym, tail.len() as u64, bits, s.silent_steps]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> TimingParams {
        TimingParams::from_ticks(1, 2, 4).unwrap()
    }

    fn stab_pair(input: Vec<Message>) -> (StabStenningTransmitter, StabStenningReceiver) {
        (
            StabStenningTransmitter::new(params(), input, Some(5)),
            StabStenningReceiver::new(),
        )
    }

    /// Drives the pair with instant delivery until quiescent; returns the
    /// receiver's writes.
    fn drive(
        t: &StabStenningTransmitter,
        r: &StabStenningReceiver,
        mut ts: StabStenningTransmitterState,
        mut rs: StabStenningReceiverState,
    ) -> Vec<Message> {
        let mut written = Vec::new();
        for _ in 0..10_000 {
            let t_done = t.enabled(&ts).is_empty();
            if let Some(a) = t.enabled(&ts).first().copied() {
                ts = t.step(&ts, &a).unwrap();
                if let RstpAction::Send(p) = a {
                    rs = r.step(&rs, &RstpAction::Recv(p)).unwrap();
                }
            }
            match r.enabled(&rs).first().copied() {
                Some(RstpAction::Send(Packet::Ack(sym))) => {
                    rs = r.step(&rs, &RstpAction::Send(Packet::Ack(sym))).unwrap();
                    ts = t.step(&ts, &RstpAction::Recv(Packet::Ack(sym))).unwrap();
                }
                Some(RstpAction::Write(m)) => {
                    written.push(m);
                    rs = r.step(&rs, &RstpAction::Write(m)).unwrap();
                }
                _ => {}
            }
            if t_done
                && r.enabled(&rs)
                    .first()
                    .is_some_and(|a| matches!(a, RstpAction::ReceiverInternal(InternalKind::Idle)))
            {
                break;
            }
        }
        written
    }

    #[test]
    fn symbol_spaces_are_disjoint_and_decodable() {
        for tag in 0..TAGS {
            assert!(sync_symbol(tag) < TAGS);
            assert_eq!(ack_sync_symbol(tag), sync_symbol(tag));
            assert!(ack_data_symbol(tag) >= TAGS);
            assert!(ack_data_symbol(tag) < stab_stenning_ack_alphabet());
            for bit in [false, true] {
                let s = data_symbol(tag, bit);
                assert!((TAGS..stab_stenning_data_alphabet()).contains(&s));
                assert_eq!((s - TAGS) / 2, tag);
                assert_eq!((s - TAGS) % 2 == 1, bit);
            }
        }
    }

    #[test]
    fn clean_run_delivers_exactly_x() {
        let input = vec![true, false, false, true, true, false];
        let (t, r) = stab_pair(input.clone());
        let written = drive(&t, &r, t.initial_state(), r.initial_state());
        assert_eq!(written, input);
    }

    /// A writer scheduled more slowly than the channel delivers (the
    /// sharded server under deadline misses) accumulates a long
    /// accepted-but-unwritten tail. That tail is legitimate state and must
    /// never be clamped away — this run accepts 16 messages before the
    /// first write is allowed to fire, then drains them all.
    #[test]
    fn starved_writer_loses_nothing() {
        let input: Vec<Message> = (0..16).map(|i| i % 3 == 0).collect();
        let (_, r) = stab_pair(input.clone());
        let mut rs = r.initial_state();
        for (i, &bit) in input.iter().enumerate() {
            let tag = tag_of(i);
            rs = r
                .step(&rs, &RstpAction::Recv(Packet::Data(data_symbol(tag, bit))))
                .unwrap();
            // Ack each message (acks outrank writes in `enabled`), but
            // never take a write step.
            rs = r
                .step(&rs, &RstpAction::Send(Packet::Ack(ack_data_symbol(tag))))
                .unwrap();
        }
        let mut written = Vec::new();
        while let Some(RstpAction::Write(m)) = r.enabled(&rs).first().copied() {
            written.push(m);
            rs = r.step(&rs, &RstpAction::Write(m)).unwrap();
        }
        assert_eq!(written, input);
    }

    #[test]
    fn clean_run_never_syncs() {
        let input = vec![true, false, true];
        let (t, r) = stab_pair(input);
        let mut ts = t.initial_state();
        let mut rs = r.initial_state();
        for _ in 0..1000 {
            if let Some(a) = t.enabled(&ts).first().copied() {
                ts = t.step(&ts, &a).unwrap();
                if let RstpAction::Send(p) = a {
                    rs = r.step(&rs, &RstpAction::Recv(p)).unwrap();
                    assert!(p.symbol() >= TAGS, "clean run sent a sync probe");
                }
            }
            if let Some(RstpAction::Send(Packet::Ack(sym))) = r.enabled(&rs).first().copied() {
                rs = r.step(&rs, &RstpAction::Send(Packet::Ack(sym))).unwrap();
                ts = t.step(&ts, &RstpAction::Recv(Packet::Ack(sym))).unwrap();
            } else if let Some(RstpAction::Write(m)) = r.enabled(&rs).first().copied() {
                rs = r.step(&rs, &RstpAction::Write(m)).unwrap();
            }
        }
        assert!(!rs.synced);
    }

    #[test]
    fn converges_from_every_corrupted_pair_of_register_vectors_sampled() {
        // Full enumeration lives in tests/stabilization_exhaustive.rs; here
        // a cheap diagonal: transmitter registers × receiver registers.
        let input = vec![true, false, true, false];
        let (t, r) = stab_pair(input.clone());
        let t_specs = t.registers();
        let r_specs = r.registers();
        for i in 0..16u64 {
            let t_regs: Vec<u64> = t_specs
                .iter()
                .enumerate()
                .map(|(j, s)| (i * 7 + j as u64 * 3) % s.domain_size())
                .collect();
            let r_regs: Vec<u64> = r_specs
                .iter()
                .enumerate()
                .map(|(j, s)| (i * 5 + j as u64 * 11) % s.domain_size())
                .collect();
            let ts = t.state_from_registers(&t_regs);
            let rs = r.state_from_registers(&r_regs);
            let next_c = ts.next;
            let written = drive(&t, &r, ts, rs);
            // Convergence: writes after the garbage/seam settle into an
            // end-aligned suffix of X.
            let suffix_ok = (0..=written.len()).any(|cut| {
                let tail = &written[cut..];
                tail.len() <= input.len() && *tail == input[input.len() - tail.len()..]
            });
            assert!(
                suffix_ok,
                "regs t={t_regs:?} r={r_regs:?} wrote {written:?}"
            );
            // Completeness: everything from `next_c` on (minus the bounded
            // seam loss) eventually arrives.
            let floor = input.len().saturating_sub(next_c).saturating_sub(2);
            assert!(
                written.len() >= floor,
                "regs t={t_regs:?} r={r_regs:?} wrote only {written:?}"
            );
        }
    }

    #[test]
    fn transmitter_normalization_clamps_every_register() {
        let (t, _) = stab_pair(vec![true, false]);
        let wild = StabStenningTransmitterState {
            next: usize::MAX,
            timer: u64::MAX,
            strikes: u64::MAX,
            phase: StabPhase::Flush { left: u64::MAX },
        };
        let regs = t.state_to_registers(&wild);
        for (spec, value) in t.registers().iter().zip(&regs) {
            assert!(*value <= spec.max, "{} out of domain", spec.name);
        }
        // And the clamped state is immediately usable.
        let s = t.state_from_registers(&regs);
        assert!(t.enabled(&s).len() <= 1);
    }

    #[test]
    fn register_round_trips_are_behavioral_fixpoints() {
        let input = vec![true, false, true];
        let (t, r) = stab_pair(input);
        let ts = StabStenningTransmitterState {
            next: 1,
            timer: 3,
            strikes: 1,
            phase: StabPhase::Sync,
        };
        assert_eq!(
            t.state_to_registers(&t.state_from_registers(&t.state_to_registers(&ts))),
            t.state_to_registers(&ts)
        );
        let rs = StabStenningReceiverState {
            expected: 2,
            received: vec![true, false, true],
            written: 1,
            pending_ack: Some(ack_data_symbol(1)),
            synced: false,
        };
        assert_eq!(
            r.state_to_registers(&r.state_from_registers(&r.state_to_registers(&rs))),
            r.state_to_registers(&rs)
        );
    }

    #[test]
    fn beta_shape_inequalities_hold() {
        for (c1, c2, d) in [(1, 2, 4), (1, 1, 1), (2, 5, 9), (3, 4, 20), (1, 10, 10)] {
            let p = TimingParams::from_ticks(c1, c2, d).unwrap();
            let gap = stab_beta_gap_reset(p);
            let silence = stab_beta_silence(p);
            // Inter-burst silence always reaches the reset threshold.
            assert!(silence * c1 >= gap * c2 + d, "({c1},{c2},{d})");
            // A live burst's worst inter-arrival gap stays under it.
            assert!((c2 + d) / c1 + 1 < gap, "({c1},{c2},{d})");
        }
    }

    #[test]
    fn stab_beta_clean_run_decodes_exactly_x() {
        let p = params();
        let input: Vec<Message> = (0..11).map(|i| i % 3 == 0).collect();
        let t = stab_beta_transmitter(p, 4, &input).unwrap();
        let r = StabBetaReceiver::new(p, 4, input.len()).unwrap();
        let mut ts = t.initial_state();
        let mut rs = r.initial_state();
        let mut written = Vec::new();
        for _ in 0..10_000 {
            if let Some(a) = t.enabled(&ts).first().copied() {
                ts = t.step(&ts, &a).unwrap();
                if let RstpAction::Send(p) = a {
                    rs = r.step(&rs, &RstpAction::Recv(p)).unwrap();
                }
            }
            if let Some(RstpAction::Write(m)) = r.enabled(&rs).first().copied() {
                written.push(m);
                rs = r.step(&rs, &RstpAction::Write(m)).unwrap();
            }
            if t.enabled(&ts).is_empty() && rs.written == input.len() {
                break;
            }
        }
        assert_eq!(written, input);
        assert_eq!(rs.resets, 0, "clean runs never gap-reset");
    }

    /// Beta twin of `starved_writer_loses_nothing`: the open-loop
    /// transmitter keeps sending whether or not the writer runs, so the
    /// decoded tail grows without bound on a slow shard — and must survive
    /// normalization intact.
    #[test]
    fn stab_beta_starved_writer_loses_nothing() {
        let p = params();
        let input: Vec<Message> = (0..20).map(|i| i % 2 == 0).collect();
        let t = stab_beta_transmitter(p, 4, &input).unwrap();
        let r = StabBetaReceiver::new(p, 4, input.len()).unwrap();
        let mut ts = t.initial_state();
        let mut rs = r.initial_state();
        // Deliver the whole transmission without a single write step.
        for _ in 0..10_000 {
            let Some(a) = t.enabled(&ts).first().copied() else {
                break;
            };
            ts = t.step(&ts, &a).unwrap();
            if let RstpAction::Send(pkt) = a {
                rs = r.step(&rs, &RstpAction::Recv(pkt)).unwrap();
            }
        }
        assert!(rs.decoded.len() >= input.len(), "transmission incomplete");
        let mut written = Vec::new();
        while let Some(RstpAction::Write(m)) = r.enabled(&rs).first().copied() {
            written.push(m);
            rs = r.step(&rs, &RstpAction::Write(m)).unwrap();
        }
        assert_eq!(written, input);
    }

    #[test]
    fn stab_beta_gap_reset_discards_corrupted_partial_burst() {
        let p = params();
        let r = StabBetaReceiver::new(p, 4, 8).unwrap();
        let mut rs = r.state_from_registers(&[2, 3, 0, 0, 0]);
        assert_eq!(rs.burst.len(), 2);
        // Silence: the receiver waits, then discards the garbage burst.
        for _ in 0..r.gap_reset() {
            assert_eq!(
                r.enabled(&rs).first().copied(),
                Some(RstpAction::ReceiverInternal(InternalKind::Wait))
            );
            rs = r
                .step(&rs, &RstpAction::ReceiverInternal(InternalKind::Wait))
                .unwrap();
        }
        assert!(rs.burst.is_empty());
        assert_eq!(rs.resets, 1);
    }

    #[test]
    fn stab_beta_receiver_registers_round_trip() {
        let p = params();
        let r = StabBetaReceiver::new(p, 4, 8).unwrap();
        for regs in [
            vec![0, 0, 0, 0, 0],
            vec![1, 3, 2, 3, 1],
            vec![u64::MAX, u64::MAX, u64::MAX, u64::MAX, u64::MAX],
        ] {
            let s = r.state_from_registers(&regs);
            let out = r.state_to_registers(&s);
            for (spec, value) in r.registers().iter().zip(&out) {
                assert!(*value <= spec.max, "{} out of domain", spec.name);
            }
            assert_eq!(r.state_from_registers(&out), s);
        }
    }

    #[test]
    fn bounds_are_positive_and_monotone_in_d() {
        let p1 = TimingParams::from_ticks(1, 2, 4).unwrap();
        let p2 = TimingParams::from_ticks(1, 2, 16).unwrap();
        assert!(stab_stenning_bound(p1, None) > 0);
        assert!(stab_stenning_bound(p2, None) > stab_stenning_bound(p1, None));
        assert!(stab_beta_bound(p1, 4) > 0);
        assert!(stab_beta_bound(p2, 4) > stab_beta_bound(p1, 4));
    }

    #[test]
    fn transmitter_escalates_to_flush_then_sync_when_unacked() {
        let (t, _) = stab_pair(vec![true]);
        let mut s = t.initial_state();
        let mut saw_flush = false;
        let mut saw_sync_probe = false;
        for _ in 0..200 {
            match t.enabled(&s).first().copied() {
                Some(a @ RstpAction::Send(Packet::Data(sym))) => {
                    if sym < TAGS {
                        saw_sync_probe = true;
                        break;
                    }
                    s = t.step(&s, &a).unwrap();
                }
                Some(a) => {
                    s = t.step(&s, &a).unwrap();
                    if matches!(s.phase, StabPhase::Flush { .. }) {
                        saw_flush = true;
                    }
                }
                None => break,
            }
        }
        assert!(saw_flush, "never escalated to flush");
        assert!(saw_sync_probe, "never probed with a sync");
    }
}
