//! The channel automaton `C(P)` (paper §4).
//!
//! `C(P)` has inputs `{send(p) : p ∈ P}` and outputs `{recv(p) : p ∈ P}`;
//! its fair executions are exactly those admitting a bijection between
//! `send` and `recv` events in which no packet is received before it is
//! sent. In other words the channel is **reliable** (no loss, duplication,
//! or corruption) but orders nothing: any in-flight packet may be the next
//! one delivered. The real-time restriction — delivery within `d` — is a
//! *timing property* layered on top (`Δ(C(P))`, checked by the trace
//! checkers in `rstp-sim`), not part of the untimed automaton.
//!
//! The state is therefore precisely a multiset of in-flight packets.
//! `recv(p)` is enabled iff `p` is in flight; which enabled delivery happens,
//! and when, is chosen by the simulator's delivery adversary.

use crate::action::{Packet, RstpAction};
use rstp_automata::{ActionClass, Automaton, StepError};

/// The state of `C(P)`: the multiset of in-flight packets.
///
/// Stored as an insertion-ordered vector; multiset semantics are preserved
/// because removal is by value and equality of states is only ever taken up
/// to permutation by the checkers. (The simulator also uses the insertion
/// order to break delivery ties deterministically.)
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChannelState {
    in_flight: Vec<Packet>,
}

impl ChannelState {
    /// The empty channel.
    #[must_use]
    pub fn empty() -> Self {
        ChannelState::default()
    }

    /// Number of packets in flight.
    #[must_use]
    pub fn len(&self) -> usize {
        self.in_flight.len()
    }

    /// Whether no packets are in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// The in-flight packets in send order.
    #[must_use]
    pub fn packets(&self) -> &[Packet] {
        &self.in_flight
    }

    /// Multiplicity of `p` among the in-flight packets.
    #[must_use]
    pub fn mult(&self, p: Packet) -> usize {
        self.in_flight.iter().filter(|&&q| q == p).count()
    }
}

/// The channel automaton `C(P)` over the full packet alphabet
/// `P = P^tr ∪ P^rt`.
///
/// All `Packet` values are in `P` — the automaton does not restrict the
/// alphabet, since protocols already send only their own alphabets and a
/// smaller `P` would only shrink `in(C)`, never change behavior.
///
/// # Example
///
/// ```
/// use rstp_automata::Automaton;
/// use rstp_core::{Channel, Packet, RstpAction};
///
/// let ch = Channel::new();
/// let s0 = ch.initial_state();
/// let s1 = ch.step(&s0, &RstpAction::Send(Packet::Data(3))).unwrap();
/// assert_eq!(s1.len(), 1);
/// // The only enabled delivery is recv(data(3)).
/// assert_eq!(ch.enabled(&s1), vec![RstpAction::Recv(Packet::Data(3))]);
/// let s2 = ch.step(&s1, &RstpAction::Recv(Packet::Data(3))).unwrap();
/// assert!(s2.is_empty());
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Channel;

impl Channel {
    /// Creates the channel automaton.
    #[must_use]
    pub fn new() -> Self {
        Channel
    }
}

impl Automaton for Channel {
    type Action = RstpAction;
    type State = ChannelState;

    fn initial_state(&self) -> ChannelState {
        ChannelState::empty()
    }

    fn classify(&self, action: &RstpAction) -> Option<ActionClass> {
        match action {
            RstpAction::Send(_) => Some(ActionClass::Input),
            RstpAction::Recv(_) => Some(ActionClass::Output),
            _ => None,
        }
    }

    fn enabled_into(&self, state: &ChannelState, out: &mut Vec<RstpAction>) {
        // One recv per *distinct* in-flight packet (multiplicity does not
        // multiply the enabled set). Distinct among this call's own
        // appends: the caller's prefix is not ours to read.
        let mine = out.len();
        for &p in &state.in_flight {
            let recv = RstpAction::Recv(p);
            if !out.iter().skip(mine).any(|a| *a == recv) {
                out.push(recv);
            }
        }
    }

    fn apply(&self, state: &mut ChannelState, action: &RstpAction) -> Result<(), StepError> {
        match action {
            RstpAction::Send(p) => state.in_flight.push(*p),
            RstpAction::Recv(p) => {
                let Some(idx) = state.in_flight.iter().position(|q| q == p) else {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: format!("packet {p} is not in flight"),
                    });
                };
                state.in_flight.remove(idx);
            }
            other => return Err(StepError::unknown(other)),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(p: Packet) -> RstpAction {
        RstpAction::Send(p)
    }

    fn recv(p: Packet) -> RstpAction {
        RstpAction::Recv(p)
    }

    #[test]
    fn starts_empty() {
        let ch = Channel::new();
        assert!(ch.initial_state().is_empty());
        assert!(ch.enabled(&ch.initial_state()).is_empty());
    }

    #[test]
    fn send_then_recv_roundtrip() {
        let ch = Channel::new();
        let s = ch.initial_state();
        let s = ch.step(&s, &send(Packet::Data(1))).unwrap();
        let s = ch.step(&s, &send(Packet::Ack(0))).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.mult(Packet::Data(1)), 1);
        let s = ch.step(&s, &recv(Packet::Data(1))).unwrap();
        let s = ch.step(&s, &recv(Packet::Ack(0))).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn duplicates_tracked_as_multiset() {
        let ch = Channel::new();
        let mut s = ch.initial_state();
        for _ in 0..3 {
            s = ch.step(&s, &send(Packet::Data(7))).unwrap();
        }
        assert_eq!(s.mult(Packet::Data(7)), 3);
        // Only one enabled recv for the triplicated packet.
        assert_eq!(ch.enabled(&s).len(), 1);
        s = ch.step(&s, &recv(Packet::Data(7))).unwrap();
        assert_eq!(s.mult(Packet::Data(7)), 2);
    }

    #[test]
    fn recv_of_absent_packet_rejected() {
        let ch = Channel::new();
        let err = ch.step(&ch.initial_state(), &recv(Packet::Data(0)));
        assert!(matches!(err, Err(StepError::PreconditionFalse { .. })));
    }

    #[test]
    fn non_channel_actions_rejected() {
        let ch = Channel::new();
        let err = ch.step(&ch.initial_state(), &RstpAction::Write(true));
        assert!(matches!(err, Err(StepError::UnknownAction { .. })));
    }

    #[test]
    fn classification() {
        let ch = Channel::new();
        assert_eq!(
            ch.classify(&send(Packet::Data(0))),
            Some(ActionClass::Input)
        );
        assert_eq!(
            ch.classify(&recv(Packet::Ack(0))),
            Some(ActionClass::Output)
        );
        assert_eq!(ch.classify(&RstpAction::Write(false)), None);
    }

    #[test]
    fn enabled_lists_each_distinct_packet_once() {
        let ch = Channel::new();
        let mut s = ch.initial_state();
        for p in [Packet::Data(0), Packet::Data(1), Packet::Data(0)] {
            s = ch.step(&s, &send(p)).unwrap();
        }
        let enabled = ch.enabled(&s);
        assert_eq!(enabled.len(), 2);
        assert!(enabled.contains(&recv(Packet::Data(0))));
        assert!(enabled.contains(&recv(Packet::Data(1))));
    }

    #[test]
    fn any_inflight_packet_may_be_delivered_next() {
        // The channel imposes no order: after sends of 0 then 1, recv(1)
        // first is a legal step — reordering is the adversary's right.
        let ch = Channel::new();
        let mut s = ch.initial_state();
        s = ch.step(&s, &send(Packet::Data(0))).unwrap();
        s = ch.step(&s, &send(Packet::Data(1))).unwrap();
        let s = ch.step(&s, &recv(Packet::Data(1))).unwrap();
        assert_eq!(s.packets(), &[Packet::Data(0)]);
    }
}
