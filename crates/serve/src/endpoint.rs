//! Snapshottable receiver endpoints: the shard's session table.
//!
//! `rstp-net` owns the object-safe [`SessionEndpoint`] every paced
//! session runs behind, and its [`Driven`] wrapper pairs a concrete
//! automaton with its state. A shard also has to snapshot a receiver into
//! its flight recording for crash recovery, which needs the state codec
//! of this crate, so [`SnapshotEndpoint`] adds that one method on top.

use crate::snapshot::{state_from_bytes, state_to_bytes, StateCodec};
use rstp_automata::Automaton;
use rstp_core::protocols::{
    AlphaReceiver, AltBitReceiver, BetaReceiver, FramedReceiver, GammaReceiver, PipelinedReceiver,
    StabBetaReceiver, StabStenningReceiver, StenningReceiver,
};
use rstp_core::{Message, RstpAction, TimingParams};
use rstp_net::{wire_identity, Driven, NetError, SessionEndpoint};
use rstp_sim::ProtocolKind;

/// A session endpoint whose automaton state can be serialized.
pub trait SnapshotEndpoint: SessionEndpoint {
    /// The automaton state serialized via the session snapshot codec —
    /// the payload of a crash-recovery record. Paired with
    /// [`restore_receiver_endpoint`].
    fn state_bytes(&self) -> Vec<u8>;
}

impl<A> SnapshotEndpoint for Driven<A>
where
    A: Automaton<Action = RstpAction> + Send,
    A::State: Send + StateCodec,
{
    fn state_bytes(&self) -> Vec<u8> {
        state_to_bytes(self.state())
    }
}

/// Builds the *receiver* endpoint of `kind` expecting `n` messages — the
/// server side of a transfer (clients run the transmitter through
/// `rstp-net`'s driver loop).
///
/// # Errors
///
/// [`NetError::Unsupported`] for [`ProtocolKind::BetaWindow`] (same
/// reason the wire rejects it: no in-band `d_lo` agreement), or a
/// construction error from the protocol itself.
pub fn receiver_endpoint(
    kind: ProtocolKind,
    params: TimingParams,
    n: usize,
) -> Result<Box<dyn SnapshotEndpoint>, NetError> {
    receiver(kind, params, n, None)
}

/// Re-creates a *live* receiver endpoint from serialized automaton
/// state (as produced by [`SnapshotEndpoint::state_bytes`]) plus the
/// output prefix `written` already committed for the session. This is
/// the replay anchor of crash recovery.
///
/// # Errors
///
/// [`NetError::Unsupported`] for [`ProtocolKind::BetaWindow`], a
/// construction error from the protocol itself, or
/// [`NetError::Automaton`] when `state` does not decode as `kind`'s
/// receiver state (a corrupted or protocol-mismatched snapshot).
pub fn restore_receiver_endpoint(
    kind: ProtocolKind,
    params: TimingParams,
    n: usize,
    state: &[u8],
    written: Vec<Message>,
) -> Result<Box<dyn SnapshotEndpoint>, NetError> {
    receiver(kind, params, n, Some((state, written)))
}

/// The one receiver table: `kind`'s receiver, fresh, or resumed from
/// `(state, written)` when `resume` holds them.
fn receiver(
    kind: ProtocolKind,
    params: TimingParams,
    n: usize,
    resume: Option<(&[u8], Vec<Message>)>,
) -> Result<Box<dyn SnapshotEndpoint>, NetError> {
    match kind {
        ProtocolKind::Alpha => boxed(AlphaReceiver::new(), resume),
        ProtocolKind::Beta { k } => boxed(BetaReceiver::new(params, k, n)?, resume),
        ProtocolKind::Gamma { k } => boxed(GammaReceiver::new(params, k, n)?, resume),
        ProtocolKind::AltBit { .. } => boxed(AltBitReceiver::new(), resume),
        ProtocolKind::Framed { k } => boxed(FramedReceiver::new(params, k)?, resume),
        ProtocolKind::Stenning { .. } => boxed(StenningReceiver::new(), resume),
        ProtocolKind::StabStenning { .. } => boxed(StabStenningReceiver::new(), resume),
        ProtocolKind::StabBeta { k } => boxed(StabBetaReceiver::new(params, k, n)?, resume),
        ProtocolKind::Pipelined { k, window } => boxed(
            PipelinedReceiver::with_window(params, k, window, n)?,
            resume,
        ),
        ProtocolKind::BetaWindow { .. } => {
            Err(wire_identity(kind).expect_err("the wire refuses beta-window"))
        }
    }
}

fn boxed<A>(
    automaton: A,
    resume: Option<(&[u8], Vec<Message>)>,
) -> Result<Box<dyn SnapshotEndpoint>, NetError>
where
    A: Automaton<Action = RstpAction> + Send + 'static,
    A::State: Send + StateCodec,
{
    let Some((state, written)) = resume else {
        return Ok(Box::new(Driven::new(automaton)));
    };
    let state = state_from_bytes::<A::State>(state).map_err(|e| NetError::Automaton {
        what: format!("session snapshot state failed to decode: {e}"),
    })?;
    Ok(Box::new(Driven::resume(automaton, state, written)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstp_core::Packet;
    use rstp_net::StepEffect;

    fn params() -> TimingParams {
        TimingParams::from_ticks(1, 2, 4).expect("valid")
    }

    #[test]
    fn alpha_receiver_writes_in_symbol_order() {
        let mut ep = receiver_endpoint(ProtocolKind::Alpha, params(), 2).expect("build");
        // Alpha's receiver writes each arriving raw bit in order.
        ep.apply_recv(Packet::Data(1)).expect("recv");
        let eff = ep.step().expect("step");
        assert_eq!(eff, StepEffect::Wrote(true));
        ep.apply_recv(Packet::Data(0)).expect("recv");
        assert_eq!(ep.step().expect("step"), StepEffect::Wrote(false));
        assert_eq!(ep.written(), &[true, false]);
    }

    #[test]
    fn gamma_receiver_acks_each_data_packet() {
        let mut ep = receiver_endpoint(ProtocolKind::Gamma { k: 4 }, params(), 4).expect("build");
        // With nothing received, the receiver idles.
        assert_eq!(ep.step().expect("step"), StepEffect::Idled);
        // After a data packet, the next local step is the ack.
        ep.apply_recv(Packet::Data(0)).expect("recv");
        let eff = ep.step().expect("step");
        assert!(
            matches!(eff, StepEffect::Sent(Packet::Ack(_))),
            "expected an ack, got {eff:?}"
        );
    }

    #[test]
    fn beta_window_is_rejected() {
        let Err(err) = receiver_endpoint(ProtocolKind::BetaWindow { k: 4 }, params(), 1) else {
            panic!("beta-window must be rejected");
        };
        assert!(matches!(err, NetError::Unsupported { .. }));
    }

    #[test]
    fn state_bytes_round_trip_resumes_mid_transfer() {
        // Drive a stenning receiver halfway, snapshot it, restore it,
        // and check the restored endpoint continues identically.
        let kind = ProtocolKind::Stenning {
            timeout_steps: None,
        };
        let mut ep = receiver_endpoint(kind, params(), 4).expect("build");
        // Seq 0 arrives: the receiver writes it and owes an ack.
        ep.apply_recv(Packet::Data(0)).expect("recv");
        while !matches!(ep.step().expect("step"), StepEffect::Idled) {}
        assert_eq!(ep.written(), &[false]);

        let state = ep.state_bytes();
        let mut restored =
            restore_receiver_endpoint(kind, params(), 4, &state, ep.written().to_vec())
                .expect("restore");
        assert_eq!(restored.written(), &[false]);

        // Both continue with the same next packet and agree on output.
        let next = Packet::Data(0b11); // seq 1, payload bit 1
        ep.apply_recv(next).expect("recv original");
        restored.apply_recv(next).expect("recv restored");
        for _ in 0..8 {
            let a = ep.step().expect("step original");
            let b = restored.step().expect("step restored");
            assert_eq!(a, b);
        }
        assert_eq!(ep.written(), restored.written());
    }

    #[test]
    fn restore_rejects_garbage_state() {
        let Err(err) = restore_receiver_endpoint(
            ProtocolKind::Beta { k: 4 },
            params(),
            8,
            &[0xFF, 0xEE],
            Vec::new(),
        ) else {
            panic!("garbage must not restore");
        };
        assert!(matches!(err, NetError::Automaton { .. }), "{err}");
    }

    #[test]
    fn every_wire_protocol_constructs() {
        for kind in [
            ProtocolKind::Alpha,
            ProtocolKind::Beta { k: 4 },
            ProtocolKind::Gamma { k: 4 },
            ProtocolKind::AltBit {
                timeout_steps: None,
            },
            ProtocolKind::Framed { k: 4 },
            ProtocolKind::Stenning {
                timeout_steps: None,
            },
            ProtocolKind::Pipelined { k: 4, window: 2 },
        ] {
            assert!(receiver_endpoint(kind, params(), 8).is_ok(), "{kind:?}");
        }
    }
}
