//! `A^α` — the simple r-passive solution of paper §4 (Figure 1).
//!
//! The transmitter sends one raw message bit per round, then idles long
//! enough (`δ1` steps in total per round) that the packet is guaranteed
//! delivered before the next one is sent: consecutive sends are at least
//! `δ1 · c1 ≥ d` apart, so packets arrive in order and the receiver simply
//! writes each packet as it arrives.
//!
//! Effort: one message per `δ1`-step round, each step at most `c2`, giving
//! `eff(A^α) = δ1 · c2` — the paper's `d·c2/c1` when `c1 | d`.
//!
//! Figure 1 correspondence (transmitter): variable `i` is
//! [`AlphaTransmitterState::next`], `j` is [`AlphaTransmitterState::idle_count`];
//! `send(p)` has precondition `j = 0 ∧ p = x_i` and effect `j := 1`, and
//! `wait_t` has precondition `0 < j < δ1` with effect
//! `j := j + 1; if j = δ1 then (i := i+1; j := 0)`. One adjustment: when
//! `δ1 = 1` the figure's round logic never fires `wait_t`, so the
//! `j = δ1` check is applied in `send`'s effect as well — for `δ1 ≥ 2`
//! the behaviors coincide with the figure exactly.
//!
//! Figure 1 correspondence (receiver): the unbounded array `y_1, …` is
//! [`AlphaReceiverState::received`], counter `i` is its length, and `k` is
//! [`AlphaReceiverState::written`] (`k` in the figure is 1-based; `written`
//! counts completed writes, so `written = k - 1`).

use crate::action::{InternalKind, Message, Packet, RstpAction};
use crate::params::TimingParams;
use rstp_automata::{ActionClass, Automaton, StepError};

/// The transmitter of `A^α` (Figure 1, left column).
#[derive(Clone, Debug)]
pub struct AlphaTransmitter {
    input: Vec<Message>,
    delta1: u64,
}

/// State of [`AlphaTransmitter`]: the figure's `(i, j)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlphaTransmitterState {
    /// Figure 1's `i`: index of the next message to send (0-based).
    pub next: usize,
    /// Figure 1's `j`: steps taken in the current round (0 = ready to send).
    pub idle_count: u64,
}

impl AlphaTransmitter {
    /// Creates the transmitter for `input` under `params`.
    #[must_use]
    pub fn new(params: TimingParams, input: Vec<Message>) -> Self {
        AlphaTransmitter {
            input,
            delta1: params.delta1(),
        }
    }

    /// The input sequence `X`.
    #[must_use]
    pub fn input(&self) -> &[Message] {
        &self.input
    }

    /// The round length `δ1` in steps.
    #[must_use]
    pub fn delta1(&self) -> u64 {
        self.delta1
    }

    /// Total local steps this transmitter takes: `δ1` per message.
    #[must_use]
    pub fn total_steps(&self) -> u64 {
        self.delta1 * self.input.len() as u64
    }

    fn packet_for(&self, index: usize) -> Packet {
        Packet::Data(u64::from(self.input[index]))
    }

    /// Advances the round counters after a step: `j := j + 1;
    /// if j = δ1 then (i := i + 1; j := 0)`.
    fn advance(&self, state: &mut AlphaTransmitterState) {
        state.idle_count += 1;
        if state.idle_count == self.delta1 {
            state.next += 1;
            state.idle_count = 0;
        }
    }
}

impl Automaton for AlphaTransmitter {
    type Action = RstpAction;
    type State = AlphaTransmitterState;

    fn initial_state(&self) -> AlphaTransmitterState {
        AlphaTransmitterState {
            next: 0,
            idle_count: 0,
        }
    }

    fn classify(&self, action: &RstpAction) -> Option<ActionClass> {
        match action {
            RstpAction::Send(Packet::Data(_)) => Some(ActionClass::Output),
            RstpAction::TransmitterInternal(InternalKind::Wait) => Some(ActionClass::Internal),
            _ => None, // r-passive: in(A_t) = ∅, no acks exist
        }
    }

    fn enabled_into(&self, state: &AlphaTransmitterState, out: &mut Vec<RstpAction>) {
        if state.idle_count == 0 {
            // i = |X|: all of X transmitted, quiescent.
            if state.next < self.input.len() {
                out.push(RstpAction::Send(self.packet_for(state.next)));
            }
        } else {
            // 0 < j < δ1 (advance() never leaves j = δ1 standing).
            out.push(RstpAction::TransmitterInternal(InternalKind::Wait));
        }
    }

    fn apply(
        &self,
        state: &mut AlphaTransmitterState,
        action: &RstpAction,
    ) -> Result<(), StepError> {
        match action {
            RstpAction::Send(p) => {
                if state.idle_count != 0 || state.next >= self.input.len() {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: format!(
                            "send requires j = 0 and i < |X| (j = {}, i = {})",
                            state.idle_count, state.next
                        ),
                    });
                }
                if *p != self.packet_for(state.next) {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: format!("p must equal x_i = {}", self.packet_for(state.next)),
                    });
                }
            }
            RstpAction::TransmitterInternal(InternalKind::Wait) => {
                if state.idle_count == 0 || state.idle_count >= self.delta1 {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: format!("wait_t requires 0 < j < δ1 (j = {})", state.idle_count),
                    });
                }
            }
            other => return Err(StepError::unknown(other)),
        }
        self.advance(state);
        Ok(())
    }
}

/// The receiver of `A^α` (Figure 1, right column).
#[derive(Clone, Copy, Debug, Default)]
pub struct AlphaReceiver;

/// State of [`AlphaReceiver`]: the figure's `(y, i, k)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AlphaReceiverState {
    /// Figure 1's array `y_1, …, y_i`: messages received so far.
    pub received: Vec<Message>,
    /// Completed writes (the figure's `k - 1`).
    pub written: usize,
}

impl AlphaReceiver {
    /// Creates the receiver. It needs no parameters: it writes whatever
    /// arrives, in arrival order.
    #[must_use]
    pub fn new() -> Self {
        AlphaReceiver
    }
}

impl Automaton for AlphaReceiver {
    type Action = RstpAction;
    type State = AlphaReceiverState;

    fn initial_state(&self) -> AlphaReceiverState {
        AlphaReceiverState::default()
    }

    fn classify(&self, action: &RstpAction) -> Option<ActionClass> {
        match action {
            RstpAction::Recv(Packet::Data(_)) => Some(ActionClass::Input),
            RstpAction::Write(_) => Some(ActionClass::Output),
            RstpAction::ReceiverInternal(InternalKind::Idle) => Some(ActionClass::Internal),
            _ => None,
        }
    }

    fn enabled_into(&self, state: &AlphaReceiverState, out: &mut Vec<RstpAction>) {
        if let Some(&m) = state.received.get(state.written) {
            out.push(RstpAction::Write(m));
        } else {
            // Figure 1: idle_r is enabled exactly when there is nothing to
            // write, so the receiver always has a local step available.
            out.push(RstpAction::ReceiverInternal(InternalKind::Idle));
        }
    }

    fn apply(&self, state: &mut AlphaReceiverState, action: &RstpAction) -> Result<(), StepError> {
        match action {
            RstpAction::Recv(Packet::Data(s)) => state.received.push(*s != 0),
            RstpAction::Write(m) => {
                let Some(&expected) = state.received.get(state.written) else {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: "write requires k <= i (a received, unwritten message)".into(),
                    });
                };
                if *m != expected {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: format!("m must equal y_k = {expected}"),
                    });
                }
                state.written += 1;
            }
            RstpAction::ReceiverInternal(InternalKind::Idle) => {
                if state.written < state.received.len() {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: "idle_r requires k > i (nothing to write)".into(),
                    });
                }
            }
            other => return Err(StepError::unknown(other)),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstp_automata::automaton::{check_deterministic, check_enabled_consistent};

    fn params() -> TimingParams {
        TimingParams::from_ticks(2, 3, 8).unwrap() // δ1 = 4
    }

    /// Drive the transmitter to quiescence, returning the action log.
    fn run_transmitter(t: &AlphaTransmitter) -> Vec<RstpAction> {
        let mut state = t.initial_state();
        let mut log = Vec::new();
        for _ in 0..10_000 {
            check_deterministic(t, &state).unwrap();
            check_enabled_consistent(t, &state).unwrap();
            let Some(action) = t.enabled(&state).into_iter().next() else {
                break;
            };
            state = t.step(&state, &action).unwrap();
            log.push(action);
        }
        log
    }

    #[test]
    fn transmitter_round_structure_matches_figure_1() {
        let t = AlphaTransmitter::new(params(), vec![true, false]);
        let log = run_transmitter(&t);
        // Two rounds of (send, wait, wait, wait) with δ1 = 4.
        assert_eq!(log.len() as u64, t.total_steps());
        assert_eq!(log[0], RstpAction::Send(Packet::Data(1)));
        for a in &log[1..4] {
            assert_eq!(*a, RstpAction::TransmitterInternal(InternalKind::Wait));
        }
        assert_eq!(log[4], RstpAction::Send(Packet::Data(0)));
        for a in &log[5..8] {
            assert_eq!(*a, RstpAction::TransmitterInternal(InternalKind::Wait));
        }
    }

    #[test]
    fn sends_are_delta1_steps_apart() {
        let t = AlphaTransmitter::new(params(), vec![true, true, false, true]);
        let log = run_transmitter(&t);
        let send_positions: Vec<usize> = log
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_data_send())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(send_positions.len(), 4);
        for w in send_positions.windows(2) {
            assert_eq!((w[1] - w[0]) as u64, t.delta1());
        }
    }

    #[test]
    fn delta1_equal_one_degenerates_to_back_to_back_sends() {
        let p = TimingParams::from_ticks(5, 5, 5).unwrap(); // δ1 = 1
        let t = AlphaTransmitter::new(p, vec![false, true, false]);
        assert_eq!(t.delta1(), 1);
        let log = run_transmitter(&t);
        assert_eq!(
            log,
            vec![
                RstpAction::Send(Packet::Data(0)),
                RstpAction::Send(Packet::Data(1)),
                RstpAction::Send(Packet::Data(0)),
            ]
        );
    }

    #[test]
    fn empty_input_is_immediately_quiescent() {
        let t = AlphaTransmitter::new(params(), vec![]);
        assert!(t.enabled(&t.initial_state()).is_empty());
    }

    #[test]
    fn transmitter_rejects_wrong_packet_and_bad_timing() {
        let t = AlphaTransmitter::new(params(), vec![true]);
        let s0 = t.initial_state();
        // Wrong payload: x_0 = 1.
        let err = t.step(&s0, &RstpAction::Send(Packet::Data(0)));
        assert!(matches!(err, Err(StepError::PreconditionFalse { .. })));
        // wait_t before any send: j = 0.
        let err = t.step(&s0, &RstpAction::TransmitterInternal(InternalKind::Wait));
        assert!(matches!(err, Err(StepError::PreconditionFalse { .. })));
        // send twice in a row.
        let s1 = t.step(&s0, &RstpAction::Send(Packet::Data(1))).unwrap();
        let err = t.step(&s1, &RstpAction::Send(Packet::Data(1)));
        assert!(matches!(err, Err(StepError::PreconditionFalse { .. })));
    }

    #[test]
    fn transmitter_is_r_passive() {
        let t = AlphaTransmitter::new(params(), vec![true]);
        // No input actions at all: recv of anything is outside acts(A_t).
        assert_eq!(t.classify(&RstpAction::Recv(Packet::Ack(0))), None);
        assert_eq!(t.classify(&RstpAction::Recv(Packet::Data(0))), None);
        assert_eq!(t.classify(&RstpAction::Write(true)), None);
    }

    #[test]
    fn receiver_writes_in_arrival_order() {
        let r = AlphaReceiver::new();
        let mut s = r.initial_state();
        s = r.step(&s, &RstpAction::Recv(Packet::Data(1))).unwrap();
        s = r.step(&s, &RstpAction::Recv(Packet::Data(0))).unwrap();
        assert_eq!(r.enabled(&s), vec![RstpAction::Write(true)]);
        s = r.step(&s, &RstpAction::Write(true)).unwrap();
        assert_eq!(r.enabled(&s), vec![RstpAction::Write(false)]);
        s = r.step(&s, &RstpAction::Write(false)).unwrap();
        assert_eq!(
            r.enabled(&s),
            vec![RstpAction::ReceiverInternal(InternalKind::Idle)]
        );
    }

    #[test]
    fn receiver_idle_is_a_no_op_enabled_only_when_caught_up() {
        let r = AlphaReceiver::new();
        let s0 = r.initial_state();
        let idle = RstpAction::ReceiverInternal(InternalKind::Idle);
        assert_eq!(r.step(&s0, &idle).unwrap(), s0);
        let s1 = r.step(&s0, &RstpAction::Recv(Packet::Data(1))).unwrap();
        assert!(matches!(
            r.step(&s1, &idle),
            Err(StepError::PreconditionFalse { .. })
        ));
    }

    #[test]
    fn receiver_rejects_wrong_write() {
        let r = AlphaReceiver::new();
        let s0 = r.initial_state();
        // Nothing received yet.
        assert!(matches!(
            r.step(&s0, &RstpAction::Write(true)),
            Err(StepError::PreconditionFalse { .. })
        ));
        let s1 = r.step(&s0, &RstpAction::Recv(Packet::Data(1))).unwrap();
        // Wrong value: y_1 = 1.
        assert!(matches!(
            r.step(&s1, &RstpAction::Write(false)),
            Err(StepError::PreconditionFalse { .. })
        ));
    }

    #[test]
    fn receiver_is_deterministic_everywhere_reachable() {
        let r = AlphaReceiver::new();
        let mut s = r.initial_state();
        for round in 0..5 {
            check_deterministic(&r, &s).unwrap();
            check_enabled_consistent(&r, &s).unwrap();
            s = r
                .step(&s, &RstpAction::Recv(Packet::Data(round % 2)))
                .unwrap();
            check_deterministic(&r, &s).unwrap();
            let w = r.enabled(&s)[0];
            s = r.step(&s, &w).unwrap();
        }
    }

    #[test]
    fn nonbinary_symbols_coerce_to_true() {
        // Input-enabledness: the receiver must accept any data packet; any
        // nonzero symbol reads as the message 1.
        let r = AlphaReceiver::new();
        let s = r
            .step(&r.initial_state(), &RstpAction::Recv(Packet::Data(7)))
            .unwrap();
        assert_eq!(s.received, vec![true]);
    }

    #[test]
    fn total_steps_formula() {
        let t = AlphaTransmitter::new(params(), vec![true; 10]);
        assert_eq!(t.total_steps(), 40);
        assert_eq!(t.input().len(), 10);
    }
}
