//! Stenning's protocol — the \[Ste76\] baseline the paper's introduction
//! cites among the earliest STP solutions.
//!
//! Stop-and-wait with **unbounded sequence numbers**: every data packet
//! carries `(seq, bit)` and is retransmitted until the matching `ack(seq)`
//! arrives; the receiver accepts packets only in sequence order and
//! (re-)acknowledges everything it sees. Because sequence numbers never
//! repeat, no stale packet or ack can alias a live one — so unlike the
//! alternating-bit protocol (whose 1-bit tags alias under
//! duplication+reordering), Stenning's protocol solves STP even on
//! channels that **lose, duplicate, and reorder** simultaneously.
//!
//! That contrast is exactly the boundary the paper draws: with a *finite*
//! packet alphabet, STP over duplicating+reordering channels is impossible
//! (\[WZ89\]); Stenning escapes by using an alphabet that grows with the
//! input. Within RSTP's model (finite `k`) it is inadmissible — it is
//! implemented here as the fault-tolerant comparison point for
//! experiment E9.
//!
//! Packet encoding: data symbol = `2·seq + bit` (so the alphabet used by a
//! run of length `n` is `{0, …, 2n-1}`); acks carry their `seq`.

use crate::action::{InternalKind, Message, Packet, RstpAction};
use crate::params::TimingParams;
use rstp_automata::{ActionClass, Automaton, StepError};
use std::collections::VecDeque;

/// Encodes `(seq, bit)` into a data symbol.
#[must_use]
pub fn encode_symbol(seq: u64, bit: Message) -> u64 {
    2 * seq + u64::from(bit)
}

/// Decodes a data symbol into `(seq, bit)`.
#[must_use]
pub fn decode_symbol(symbol: u64) -> (u64, Message) {
    (symbol / 2, symbol % 2 == 1)
}

/// The Stenning transmitter.
#[derive(Clone, Debug)]
pub struct StenningTransmitter {
    input: Vec<Message>,
    timeout_steps: u64,
}

/// State of [`StenningTransmitter`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StenningTransmitterState {
    /// Index (= sequence number) of the message being transmitted.
    pub next: usize,
    /// Local steps since the last (re)transmission; `0` = send now.
    pub timer: u64,
}

impl StenningTransmitter {
    /// Creates the transmitter; `timeout_steps = None` picks the same safe
    /// default as the alternating-bit baseline.
    #[must_use]
    pub fn new(params: TimingParams, input: Vec<Message>, timeout_steps: Option<u64>) -> Self {
        let default = (2 * params.d() + 2 * params.c2()).div_ceil(params.c1()) + 1;
        StenningTransmitter {
            input,
            timeout_steps: timeout_steps.unwrap_or(default).max(1),
        }
    }

    /// The retransmission period in local steps.
    #[must_use]
    pub fn timeout_steps(&self) -> u64 {
        self.timeout_steps
    }

    fn current_packet(&self, state: &StenningTransmitterState) -> Packet {
        Packet::Data(encode_symbol(state.next as u64, self.input[state.next]))
    }
}

impl Automaton for StenningTransmitter {
    type Action = RstpAction;
    type State = StenningTransmitterState;

    fn initial_state(&self) -> StenningTransmitterState {
        StenningTransmitterState { next: 0, timer: 0 }
    }

    fn classify(&self, action: &RstpAction) -> Option<ActionClass> {
        match action {
            RstpAction::Send(Packet::Data(_)) => Some(ActionClass::Output),
            RstpAction::Recv(Packet::Ack(_)) => Some(ActionClass::Input),
            RstpAction::TransmitterInternal(InternalKind::Wait) => Some(ActionClass::Internal),
            _ => None,
        }
    }

    fn enabled_into(&self, state: &StenningTransmitterState, out: &mut Vec<RstpAction>) {
        if state.next >= self.input.len() {
            return;
        }
        if state.timer == 0 {
            out.push(RstpAction::Send(self.current_packet(state)));
        } else {
            out.push(RstpAction::TransmitterInternal(InternalKind::Wait));
        }
    }

    fn apply(
        &self,
        state: &mut StenningTransmitterState,
        action: &RstpAction,
    ) -> Result<(), StepError> {
        match action {
            RstpAction::Recv(Packet::Ack(seq)) => {
                // Unbounded seqs: only the exact current number advances;
                // anything else is provably stale and absorbed.
                if state.next < self.input.len() && *seq == state.next as u64 {
                    state.next += 1;
                    state.timer = 0;
                }
            }
            RstpAction::Send(Packet::Data(symbol)) => {
                if state.next >= self.input.len() || state.timer != 0 {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: "send requires timer = 0 and unacked input".into(),
                    });
                }
                if Packet::Data(*symbol) != self.current_packet(state) {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: "packet must carry (seq, x_seq)".into(),
                    });
                }
                state.timer = 1;
            }
            RstpAction::TransmitterInternal(InternalKind::Wait) => {
                if state.next >= self.input.len() || state.timer == 0 {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: "wait requires a running timer".into(),
                    });
                }
                state.timer = (state.timer + 1) % self.timeout_steps;
            }
            other => return Err(StepError::unknown(other)),
        }
        Ok(())
    }
}

/// The Stenning receiver.
#[derive(Clone, Copy, Debug, Default)]
pub struct StenningReceiver;

/// State of [`StenningReceiver`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StenningReceiverState {
    /// The next sequence number to accept.
    pub expected_seq: u64,
    /// Accepted messages, in order.
    pub received: Vec<Message>,
    /// Completed writes.
    pub written: usize,
    /// Sequence numbers owed an acknowledgement, FIFO.
    pub ack_queue: VecDeque<u64>,
}

impl StenningReceiver {
    /// Creates the receiver.
    #[must_use]
    pub fn new() -> Self {
        StenningReceiver
    }
}

impl Automaton for StenningReceiver {
    type Action = RstpAction;
    type State = StenningReceiverState;

    fn initial_state(&self) -> StenningReceiverState {
        StenningReceiverState::default()
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

    fn enabled_into(&self, state: &StenningReceiverState, out: &mut Vec<RstpAction>) {
        if let Some(&seq) = state.ack_queue.front() {
            out.push(RstpAction::Send(Packet::Ack(seq)));
        } else if let Some(&m) = state.received.get(state.written) {
            out.push(RstpAction::Write(m));
        } else {
            out.push(RstpAction::ReceiverInternal(InternalKind::Idle));
        }
    }

    fn apply(
        &self,
        state: &mut StenningReceiverState,
        action: &RstpAction,
    ) -> Result<(), StepError> {
        match action {
            RstpAction::Recv(Packet::Data(symbol)) => {
                let (seq, bit) = decode_symbol(*symbol);
                // Ack everything at or below the frontier so a lost ack is
                // recovered by the retransmission's re-ack; future packets
                // (seq > expected) are dropped *unacked* so the transmitter
                // keeps retrying them — with stop-and-wait they cannot
                // occur on a faithful channel anyway.
                if seq <= state.expected_seq {
                    state.ack_queue.push_back(seq);
                }
                if seq == state.expected_seq {
                    state.received.push(bit);
                    state.expected_seq += 1;
                }
            }
            RstpAction::Send(Packet::Ack(seq)) => {
                if state.ack_queue.front() != Some(seq) {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: "send(ack) must acknowledge the oldest pending seq".into(),
                    });
                }
                state.ack_queue.pop_front();
            }
            RstpAction::Write(m) => {
                if state.received.get(state.written) != Some(m) {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: "write requires the next accepted message".into(),
                    });
                }
                state.written += 1;
            }
            RstpAction::ReceiverInternal(InternalKind::Idle) => {
                if !state.ack_queue.is_empty() || state.written < state.received.len() {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: "idle_r requires no pending work".into(),
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

    fn params() -> TimingParams {
        TimingParams::from_ticks(1, 2, 4).unwrap()
    }

    #[test]
    fn symbol_codec() {
        for seq in [0u64, 1, 7, 1000] {
            for bit in [false, true] {
                assert_eq!(decode_symbol(encode_symbol(seq, bit)), (seq, bit));
            }
        }
    }

    #[test]
    fn sequence_numbers_never_alias() {
        // The exact scenario that breaks alternating-bit: a duplicated ack
        // of message 0 arriving while message 2 (same parity) is current.
        let t = StenningTransmitter::new(params(), vec![true, false, true], Some(5));
        let mut s = t.initial_state();
        // Deliver acks 0 and 1 to advance to message 2.
        let a = t.enabled(&s)[0];
        s = t.step(&s, &a).unwrap();
        s = t.step(&s, &RstpAction::Recv(Packet::Ack(0))).unwrap();
        let a = t.enabled(&s)[0];
        s = t.step(&s, &a).unwrap();
        s = t.step(&s, &RstpAction::Recv(Packet::Ack(1))).unwrap();
        assert_eq!(s.next, 2);
        // A stale duplicate of ack(0) must NOT advance message 2 (altbit
        // would: 0 and 2 share tag parity).
        let stale = t.step(&s, &RstpAction::Recv(Packet::Ack(0))).unwrap();
        assert_eq!(stale.next, 2);
        let fresh = t.step(&s, &RstpAction::Recv(Packet::Ack(2))).unwrap();
        assert_eq!(fresh.next, 3);
    }

    #[test]
    fn receiver_accepts_in_order_only_and_reacks_old() {
        let r = StenningReceiver::new();
        let mut s = r.initial_state();
        // Future packet (seq 1 before seq 0): dropped, not acked.
        s = r
            .step(&s, &RstpAction::Recv(Packet::Data(encode_symbol(1, true))))
            .unwrap();
        assert!(s.received.is_empty());
        assert!(s.ack_queue.is_empty());
        // In-order packet accepted and acked.
        s = r
            .step(&s, &RstpAction::Recv(Packet::Data(encode_symbol(0, true))))
            .unwrap();
        assert_eq!(s.received, vec![true]);
        assert_eq!(s.ack_queue, VecDeque::from([0]));
        // Duplicate of an old packet: re-acked, not re-written.
        s = r.step(&s, &RstpAction::Send(Packet::Ack(0))).unwrap();
        s = r
            .step(&s, &RstpAction::Recv(Packet::Data(encode_symbol(0, true))))
            .unwrap();
        assert_eq!(s.received.len(), 1);
        assert_eq!(s.ack_queue, VecDeque::from([0]));
    }

    #[test]
    fn happy_path_delivers_in_order() {
        let t = StenningTransmitter::new(params(), vec![true, false], Some(4));
        let r = StenningReceiver::new();
        let mut ts = t.initial_state();
        let mut rs = r.initial_state();
        let mut written = Vec::new();
        for _ in 0..200 {
            if let Some(a) = t.enabled(&ts).first().copied() {
                ts = t.step(&ts, &a).unwrap();
                if let RstpAction::Send(p) = a {
                    rs = r.step(&rs, &RstpAction::Recv(p)).unwrap();
                }
            }
            match r.enabled(&rs).first().copied() {
                Some(RstpAction::Send(Packet::Ack(seq))) => {
                    rs = r.step(&rs, &RstpAction::Send(Packet::Ack(seq))).unwrap();
                    ts = t.step(&ts, &RstpAction::Recv(Packet::Ack(seq))).unwrap();
                }
                Some(RstpAction::Write(m)) => {
                    written.push(m);
                    rs = r.step(&rs, &RstpAction::Write(m)).unwrap();
                }
                _ => {}
            }
            if t.enabled(&ts).is_empty() && written.len() == 2 {
                break;
            }
        }
        assert_eq!(written, vec![true, false]);
    }

    #[test]
    fn default_timeout_matches_altbit_policy() {
        let t = StenningTransmitter::new(params(), vec![true], None);
        assert_eq!(t.timeout_steps(), 2 * 4 + 2 * 2 + 1);
    }

    #[test]
    fn empty_input_quiescent() {
        let t = StenningTransmitter::new(params(), vec![], None);
        assert!(t.enabled(&t.initial_state()).is_empty());
    }
}
