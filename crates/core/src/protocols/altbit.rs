//! The alternating-bit protocol — the classic \[BSW69\] baseline the paper's
//! introduction cites as the solution to STP for channels that **lose and
//! duplicate** packets.
//!
//! RSTP's channel never loses or duplicates, so within the paper's model
//! this protocol is strictly dominated by `A^γ(k)`. It is implemented here
//! as the comparison baseline for the fault-injection experiments (E9):
//! under injected loss/duplication, `A^β`/`A^γ` deadlock or mis-frame bursts
//! — their correctness genuinely depends on the perfect channel — while the
//! alternating-bit protocol keeps working, at the price of (timeout-driven)
//! retransmissions and one-message-at-a-time throughput.
//!
//! Packet encoding: a data packet carries `symbol = 2·tag + bit` (alphabet
//! size 4); an acknowledgement carries its tag. The transmitter retransmits
//! the current message every `timeout_steps` local steps until the matching
//! tagged ack arrives; the receiver acks every data packet it sees (re-acking
//! duplicates of the previous message) and accepts a message only when the
//! tag alternates as expected.

use crate::action::{InternalKind, Message, Packet, RstpAction};
use crate::params::TimingParams;
use rstp_automata::{ActionClass, Automaton, StepError};
use std::collections::VecDeque;

/// Encodes `(tag, bit)` into a data symbol.
#[must_use]
pub fn encode_symbol(tag: u64, bit: Message) -> u64 {
    2 * (tag & 1) + u64::from(bit)
}

/// Decodes a data symbol into `(tag, bit)`.
#[must_use]
pub fn decode_symbol(symbol: u64) -> (u64, Message) {
    ((symbol >> 1) & 1, symbol & 1 == 1)
}

/// The alternating-bit transmitter.
#[derive(Clone, Debug)]
pub struct AltBitTransmitter {
    input: Vec<Message>,
    timeout_steps: u64,
}

/// State of [`AltBitTransmitter`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AltBitTransmitterState {
    /// Index of the message currently being (re)transmitted.
    pub next: usize,
    /// Local steps since the last (re)transmission; `0` = send now.
    pub timer: u64,
}

impl AltBitTransmitter {
    /// Creates the transmitter. `timeout_steps` is the retransmission
    /// period in local steps; `None` picks the smallest period that cannot
    /// fire spuriously over a loss-free bounded-delay channel:
    /// `⌈(2d + 2·c2) / c1⌉ + 1` steps (data out ≤ `d`, ack turnaround
    /// ≤ `c2` + one receiver queue slot ≤ `c2`, ack back ≤ `d`).
    #[must_use]
    pub fn new(params: TimingParams, input: Vec<Message>, timeout_steps: Option<u64>) -> Self {
        let default = (2 * params.d() + 2 * params.c2()).div_ceil(params.c1()) + 1;
        AltBitTransmitter {
            input,
            timeout_steps: timeout_steps.unwrap_or(default).max(1),
        }
    }

    /// The retransmission period in local steps.
    #[must_use]
    pub fn timeout_steps(&self) -> u64 {
        self.timeout_steps
    }

    /// The input sequence `X`.
    #[must_use]
    pub fn input(&self) -> &[Message] {
        &self.input
    }

    fn current_packet(&self, state: &AltBitTransmitterState) -> Packet {
        let tag = (state.next as u64) & 1;
        Packet::Data(encode_symbol(tag, self.input[state.next]))
    }
}

impl Automaton for AltBitTransmitter {
    type Action = RstpAction;
    type State = AltBitTransmitterState;

    fn initial_state(&self) -> AltBitTransmitterState {
        AltBitTransmitterState { next: 0, timer: 0 }
    }

    fn classify(&self, action: &RstpAction) -> Option<ActionClass> {
        match action {
            RstpAction::Send(Packet::Data(_)) => Some(ActionClass::Output),
            RstpAction::Recv(Packet::Ack(_)) => Some(ActionClass::Input),
            RstpAction::TransmitterInternal(InternalKind::Wait) => Some(ActionClass::Internal),
            _ => None,
        }
    }

    fn enabled_into(&self, state: &AltBitTransmitterState, out: &mut Vec<RstpAction>) {
        if state.next >= self.input.len() {
            return; // done: every message acknowledged
        }
        if state.timer == 0 {
            out.push(RstpAction::Send(self.current_packet(state)));
        } else {
            out.push(RstpAction::TransmitterInternal(InternalKind::Wait));
        }
    }

    fn apply(
        &self,
        state: &mut AltBitTransmitterState,
        action: &RstpAction,
    ) -> Result<(), StepError> {
        match action {
            RstpAction::Recv(Packet::Ack(tag)) => {
                // Input-enabled: stale or stray acks are absorbed silently.
                if state.next < self.input.len() && (tag & 1) == (state.next as u64) & 1 {
                    state.next += 1;
                    state.timer = 0;
                }
            }
            RstpAction::Send(Packet::Data(symbol)) => {
                if state.next >= self.input.len() || state.timer != 0 {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: format!(
                            "send requires timer = 0 and unacked input (timer = {}, next = {})",
                            state.timer, state.next
                        ),
                    });
                }
                if Packet::Data(*symbol) != self.current_packet(state) {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: "packet must carry the current (tag, bit)".into(),
                    });
                }
                state.timer = 1;
            }
            RstpAction::TransmitterInternal(InternalKind::Wait) => {
                if state.next >= self.input.len() || state.timer == 0 {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: "wait requires a running retransmission timer".into(),
                    });
                }
                state.timer = (state.timer + 1) % self.timeout_steps;
            }
            other => return Err(StepError::unknown(other)),
        }
        Ok(())
    }
}

/// The alternating-bit receiver.
#[derive(Clone, Copy, Debug, Default)]
pub struct AltBitReceiver;

/// State of [`AltBitReceiver`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AltBitReceiverState {
    /// The tag the next *new* message must carry.
    pub expected_tag: u64,
    /// Accepted messages, in order.
    pub received: Vec<Message>,
    /// Completed writes.
    pub written: usize,
    /// Tags of acknowledgements owed, FIFO.
    pub ack_queue: VecDeque<u64>,
}

impl AltBitReceiver {
    /// Creates the receiver.
    #[must_use]
    pub fn new() -> Self {
        AltBitReceiver
    }
}

impl Automaton for AltBitReceiver {
    type Action = RstpAction;
    type State = AltBitReceiverState;

    fn initial_state(&self) -> AltBitReceiverState {
        AltBitReceiverState::default()
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

    fn enabled_into(&self, state: &AltBitReceiverState, out: &mut Vec<RstpAction>) {
        if let Some(&tag) = state.ack_queue.front() {
            out.push(RstpAction::Send(Packet::Ack(tag)));
        } else if let Some(&m) = state.received.get(state.written) {
            out.push(RstpAction::Write(m));
        } else {
            out.push(RstpAction::ReceiverInternal(InternalKind::Idle));
        }
    }

    fn apply(&self, state: &mut AltBitReceiverState, action: &RstpAction) -> Result<(), StepError> {
        match action {
            RstpAction::Recv(Packet::Data(symbol)) => {
                let (tag, bit) = decode_symbol(*symbol);
                if tag == state.expected_tag {
                    state.received.push(bit);
                    state.expected_tag ^= 1;
                }
                // Ack every arrival — duplicates get their (old) tag
                // re-acked, which is what lets the transmitter recover from
                // a lost ack.
                state.ack_queue.push_back(tag);
            }
            RstpAction::Send(Packet::Ack(tag)) => {
                if state.ack_queue.front() != Some(tag) {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: "send(ack) must acknowledge the oldest pending tag".into(),
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
                        reason: "idle_r requires no pending acks or writes".into(),
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
    fn symbol_codec_roundtrip() {
        for tag in 0..2u64 {
            for bit in [false, true] {
                let (t, b) = decode_symbol(encode_symbol(tag, bit));
                assert_eq!((t, b), (tag, bit));
            }
        }
    }

    #[test]
    fn default_timeout_covers_round_trip() {
        let p = params();
        let t = AltBitTransmitter::new(p, vec![true], None);
        // (2*4 + 2*2)/1 + 1 = 13 steps.
        assert_eq!(t.timeout_steps(), 13);
        assert!(t.timeout_steps() * p.c1().ticks() > 2 * p.d().ticks());
    }

    #[test]
    fn happy_path_alternates_tags() {
        let t = AltBitTransmitter::new(params(), vec![true, false], Some(5));
        let r = AltBitReceiver::new();
        let mut ts = t.initial_state();
        let mut rs = r.initial_state();
        let mut written = Vec::new();

        for _ in 0..100 {
            match t.enabled(&ts).first().copied() {
                Some(RstpAction::Send(Packet::Data(sym))) => {
                    ts = t.step(&ts, &RstpAction::Send(Packet::Data(sym))).unwrap();
                    rs = r.step(&rs, &RstpAction::Recv(Packet::Data(sym))).unwrap();
                }
                Some(a) => ts = t.step(&ts, &a).unwrap(),
                None => {}
            }
            match r.enabled(&rs).first().copied() {
                Some(RstpAction::Send(Packet::Ack(tag))) => {
                    rs = r.step(&rs, &RstpAction::Send(Packet::Ack(tag))).unwrap();
                    ts = t.step(&ts, &RstpAction::Recv(Packet::Ack(tag))).unwrap();
                }
                Some(RstpAction::Write(m)) => {
                    written.push(m);
                    rs = r.step(&rs, &RstpAction::Write(m)).unwrap();
                }
                _ => {}
            }
            if t.enabled(&ts).is_empty()
                && matches!(
                    r.enabled(&rs).first(),
                    Some(RstpAction::ReceiverInternal(_))
                )
            {
                break;
            }
        }
        assert_eq!(written, vec![true, false]);
    }

    #[test]
    fn retransmission_fires_after_timeout() {
        let t = AltBitTransmitter::new(params(), vec![true], Some(3));
        let mut s = t.initial_state();
        let first = t.enabled(&s)[0];
        assert!(first.is_data_send());
        s = t.step(&s, &first).unwrap();
        // Two waits, then the same packet is re-enabled.
        for _ in 0..2 {
            let a = t.enabled(&s)[0];
            assert_eq!(a, RstpAction::TransmitterInternal(InternalKind::Wait));
            s = t.step(&s, &a).unwrap();
        }
        assert_eq!(t.enabled(&s)[0], first);
    }

    #[test]
    fn duplicate_data_is_reacked_but_not_rewritten() {
        let r = AltBitReceiver::new();
        let mut s = r.initial_state();
        let pkt = RstpAction::Recv(Packet::Data(encode_symbol(0, true)));
        s = r.step(&s, &pkt).unwrap();
        s = r.step(&s, &pkt).unwrap(); // duplicate
        assert_eq!(s.received, vec![true]); // accepted once
        assert_eq!(s.ack_queue.len(), 2); // acked twice
    }

    #[test]
    fn stale_ack_ignored_by_transmitter() {
        let t = AltBitTransmitter::new(params(), vec![true, false], Some(5));
        let mut s = t.initial_state();
        let a = t.enabled(&s)[0];
        s = t.step(&s, &a).unwrap();
        // Message 0 has tag 0; an ack tagged 1 is stale.
        let stale = t.step(&s, &RstpAction::Recv(Packet::Ack(1))).unwrap();
        assert_eq!(stale.next, 0);
        // The matching ack advances and resets the timer.
        let fresh = t.step(&s, &RstpAction::Recv(Packet::Ack(0))).unwrap();
        assert_eq!(fresh.next, 1);
        assert_eq!(fresh.timer, 0);
    }

    #[test]
    fn loss_recovery_via_retransmit() {
        // Simulate: first copy lost, second copy delivered; lost ack, then
        // delivered ack on re-ack after duplicate.
        let t = AltBitTransmitter::new(params(), vec![true], Some(2));
        let r = AltBitReceiver::new();
        let mut ts = t.initial_state();
        let mut rs = r.initial_state();

        // Send #1 — lost.
        let a = t.enabled(&ts)[0];
        ts = t.step(&ts, &a).unwrap();
        // Timer wait, then retransmit.
        let w = t.enabled(&ts)[0];
        ts = t.step(&ts, &w).unwrap();
        let a2 = t.enabled(&ts)[0];
        assert!(a2.is_data_send());
        ts = t.step(&ts, &a2).unwrap();
        // Second copy delivered.
        if let RstpAction::Send(p) = a2 {
            rs = r.step(&rs, &RstpAction::Recv(p)).unwrap();
        }
        // Receiver acks; ack delivered.
        if let Some(RstpAction::Send(Packet::Ack(tag))) = r.enabled(&rs).first().copied() {
            rs = r.step(&rs, &RstpAction::Send(Packet::Ack(tag))).unwrap();
            ts = t.step(&ts, &RstpAction::Recv(Packet::Ack(tag))).unwrap();
        }
        assert!(t.enabled(&ts).is_empty()); // done
        assert_eq!(rs.received, vec![true]);
    }

    #[test]
    fn receiver_ack_queue_is_fifo() {
        let r = AltBitReceiver::new();
        let mut s = r.initial_state();
        s = r
            .step(&s, &RstpAction::Recv(Packet::Data(encode_symbol(0, true))))
            .unwrap();
        s = r
            .step(&s, &RstpAction::Recv(Packet::Data(encode_symbol(1, false))))
            .unwrap();
        // Must ack tag 0 first.
        assert_eq!(r.enabled(&s), vec![RstpAction::Send(Packet::Ack(0))]);
        assert!(matches!(
            r.step(&s, &RstpAction::Send(Packet::Ack(1))),
            Err(StepError::PreconditionFalse { .. })
        ));
    }

    #[test]
    fn empty_input_quiescent() {
        let t = AltBitTransmitter::new(params(), vec![], None);
        assert!(t.enabled(&t.initial_state()).is_empty());
    }
}
