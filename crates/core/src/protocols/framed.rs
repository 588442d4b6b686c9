//! A self-delimiting variant of `A^β(k)` — an engineering extension.
//!
//! The paper's receiver is told the input length out of band (its
//! simplifying assumption `|X| ≡ 0 (mod block)` plus a receiver that writes
//! forever). [`crate::protocols::beta`] lifts the divisibility assumption
//! but still configures the receiver with `expected_bits`. This module
//! removes the side channel entirely: the transmitter prepends a 64-bit
//! big-endian **length header** to the bit stream, and the receiver first
//! decodes the header, then knows exactly how many payload bits follow and
//! where the final block's padding starts.
//!
//! The cost is `⌈64 / b⌉` extra bursts — amortized to nothing as
//! `|X| → ∞`, so the effort of the framed protocol equals `A^β(k)`'s
//! asymptotically.

use crate::action::{InternalKind, Message, Packet, RstpAction};
use crate::params::TimingParams;
use crate::protocols::beta::{BetaTransmitter, BetaTransmitterState};
use crate::protocols::ProtocolError;
use rstp_automata::{ActionClass, Automaton, StepError};
use rstp_codec::{bits_to_u128, u128_to_bits, BlockCodec, Multiset};

/// Width of the length header, in bits.
pub const HEADER_BITS: usize = 64;

/// Prepends the 64-bit length header to a payload bit stream.
#[must_use]
fn frame(payload: &[Message]) -> Vec<Message> {
    let mut framed = u128_to_bits(payload.len() as u128, HEADER_BITS);
    framed.extend_from_slice(payload);
    framed
}

/// The framed transmitter: a [`BetaTransmitter`] over the header-prefixed
/// stream. Identical wire behavior (bursts of `δ1` then `δ1` waits).
#[derive(Clone, Debug)]
pub struct FramedTransmitter {
    inner: BetaTransmitter,
    payload_len: usize,
}

impl FramedTransmitter {
    /// Creates the transmitter for `payload` (no out-of-band length needed
    /// at the receiver).
    ///
    /// # Errors
    ///
    /// Same conditions as [`BetaTransmitter::new`].
    pub fn new(params: TimingParams, k: u64, payload: &[Message]) -> Result<Self, ProtocolError> {
        Ok(FramedTransmitter {
            inner: BetaTransmitter::new(params, k, &frame(payload))?,
            payload_len: payload.len(),
        })
    }

    /// The payload length in bits (not counting the header).
    #[must_use]
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// Number of bursts, including header bursts.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }

    /// The wrapped `A^β(k)` transmitter.
    #[must_use]
    pub fn inner(&self) -> &BetaTransmitter {
        &self.inner
    }
}

impl Automaton for FramedTransmitter {
    type Action = RstpAction;
    type State = BetaTransmitterState;

    fn initial_state(&self) -> BetaTransmitterState {
        self.inner.initial_state()
    }

    fn classify(&self, action: &RstpAction) -> Option<ActionClass> {
        self.inner.classify(action)
    }

    fn enabled_into(&self, state: &BetaTransmitterState, out: &mut Vec<RstpAction>) {
        self.inner.enabled_into(state, out);
    }

    fn apply(
        &self,
        state: &mut BetaTransmitterState,
        action: &RstpAction,
    ) -> Result<(), StepError> {
        self.inner.apply(state, action)
    }
}

/// The framed receiver: decodes bursts like `A^β(k)`'s receiver, but learns
/// the payload length from the first 64 decoded bits instead of from
/// configuration.
#[derive(Clone, Debug)]
pub struct FramedReceiver {
    codec: BlockCodec,
    k: u64,
}

/// State of [`FramedReceiver`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FramedReceiverState {
    /// The burst in progress.
    pub burst: Multiset,
    /// All decoded bits, header included.
    pub decoded: Vec<Message>,
    /// Payload bits written so far.
    pub written: usize,
    /// Bursts that failed to decode.
    pub decode_failures: u32,
}

impl FramedReceiverState {
    /// The payload length, once the header has been decoded.
    #[must_use]
    pub fn announced_len(&self) -> Option<usize> {
        if self.decoded.len() >= HEADER_BITS {
            Some(bits_to_u128(&self.decoded[..HEADER_BITS]) as usize)
        } else {
            None
        }
    }

    /// Payload bits decoded and available (announced length permitting).
    #[must_use]
    pub fn available_payload(&self) -> usize {
        match self.announced_len() {
            Some(len) => (self.decoded.len() - HEADER_BITS).min(len),
            None => 0,
        }
    }

    /// Whether the whole payload has been decoded.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.announced_len()
            .is_some_and(|len| self.decoded.len() - HEADER_BITS >= len)
    }
}

impl FramedReceiver {
    /// Creates the receiver. Only `(params, k)` are needed — the length
    /// arrives in-band.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::protocols::beta::BetaReceiver::new`].
    pub fn new(params: TimingParams, k: u64) -> Result<Self, ProtocolError> {
        if k < 2 {
            return Err(ProtocolError::AlphabetTooSmall { k });
        }
        let codec = BlockCodec::new(k, params.delta1())?;
        Ok(FramedReceiver { codec, k })
    }

    /// The burst size the receiver waits for (`δ1`).
    #[must_use]
    pub fn burst_size(&self) -> u64 {
        self.codec.packets_per_block()
    }
}

impl Automaton for FramedReceiver {
    type Action = RstpAction;
    type State = FramedReceiverState;

    fn initial_state(&self) -> FramedReceiverState {
        FramedReceiverState {
            burst: Multiset::empty(self.k),
            decoded: Vec::new(),
            written: 0,
            decode_failures: 0,
        }
    }

    fn classify(&self, action: &RstpAction) -> Option<ActionClass> {
        match action {
            RstpAction::Recv(Packet::Data(_)) => Some(ActionClass::Input),
            RstpAction::Write(_) => Some(ActionClass::Output),
            RstpAction::ReceiverInternal(InternalKind::Idle) => Some(ActionClass::Internal),
            _ => None,
        }
    }

    fn enabled_into(&self, state: &FramedReceiverState, out: &mut Vec<RstpAction>) {
        if state.written < state.available_payload() {
            if let Some(&m) = state.decoded.get(HEADER_BITS + state.written) {
                out.push(RstpAction::Write(m));
                return;
            }
        }
        out.push(RstpAction::ReceiverInternal(InternalKind::Idle));
    }

    fn apply(&self, state: &mut FramedReceiverState, action: &RstpAction) -> Result<(), StepError> {
        match action {
            RstpAction::Recv(Packet::Data(s)) => {
                if *s >= self.k {
                    state.decode_failures += 1;
                    return Ok(());
                }
                state.burst.insert(*s);
                if state.burst.len() == self.codec.packets_per_block() {
                    let decoded =
                        self.codec
                            .decode_block_into(&state.burst, &mut state.decoded, usize::MAX);
                    if decoded.is_err() {
                        state.decode_failures += 1;
                    }
                    state.burst.clear();
                }
            }
            RstpAction::Write(m) => {
                if state.written >= state.available_payload() {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: "write requires an available payload bit".into(),
                    });
                }
                if state.decoded.get(HEADER_BITS + state.written) != Some(m) {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: "m must equal the next payload bit".into(),
                    });
                }
                state.written += 1;
            }
            RstpAction::ReceiverInternal(InternalKind::Idle) => {
                if state.written < state.available_payload() {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: "idle_r requires nothing to write".into(),
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
        TimingParams::from_ticks(1, 2, 6).unwrap() // δ1 = 6
    }

    fn pump(t: &FramedTransmitter, r: &FramedReceiver) -> (Vec<Message>, FramedReceiverState) {
        let mut ts = t.initial_state();
        let mut rs = r.initial_state();
        let mut written = Vec::new();
        for _ in 0..1_000_000 {
            match t.enabled(&ts).first().copied() {
                Some(a @ RstpAction::Send(Packet::Data(s))) => {
                    ts = t.step(&ts, &a).unwrap();
                    rs = r.step(&rs, &RstpAction::Recv(Packet::Data(s))).unwrap();
                }
                Some(a) => ts = t.step(&ts, &a).unwrap(),
                None => {}
            }
            if let Some(RstpAction::Write(m)) = r.enabled(&rs).first().copied() {
                written.push(m);
                rs = r.step(&rs, &RstpAction::Write(m)).unwrap();
            }
            if t.enabled(&ts).is_empty()
                && matches!(
                    r.enabled(&rs).first(),
                    Some(RstpAction::ReceiverInternal(_))
                )
                && rs.complete()
            {
                break;
            }
        }
        (written, rs)
    }

    #[test]
    fn header_frames_the_payload() {
        let payload = vec![true, false, true, true, false];
        let framed = frame(&payload);
        assert_eq!(framed.len(), HEADER_BITS + payload.len());
        assert_eq!(bits_to_u128(&framed[..HEADER_BITS]), 5);
    }

    #[test]
    fn end_to_end_without_out_of_band_length() {
        let p = params();
        let payload = vec![true, false, false, true, true, false, true];
        let t = FramedTransmitter::new(p, 4, &payload).unwrap();
        let r = FramedReceiver::new(p, 4).unwrap();
        let (written, rs) = pump(&t, &r);
        assert_eq!(rs.announced_len(), Some(payload.len()));
        assert_eq!(written, payload);
        assert_eq!(rs.decode_failures, 0);
        assert!(rs.complete());
    }

    #[test]
    fn empty_payload_still_announces_itself() {
        let p = params();
        let t = FramedTransmitter::new(p, 2, &[]).unwrap();
        let r = FramedReceiver::new(p, 2).unwrap();
        let (written, rs) = pump(&t, &r);
        assert_eq!(rs.announced_len(), Some(0));
        assert!(written.is_empty());
        assert!(rs.complete());
        assert_eq!(t.payload_len(), 0);
    }

    #[test]
    fn header_overhead_is_a_constant_number_of_bursts() {
        let p = params();
        let small = FramedTransmitter::new(p, 4, &[true; 10]).unwrap();
        let plain = crate::protocols::beta::BetaTransmitter::new(p, 4, &[true; 10]).unwrap();
        let overhead = small.num_blocks() - plain.num_blocks();
        // ceil(64 / b) bursts of header, within one burst of exactly that
        // (alignment of header and payload in one stream).
        let b = plain.bits_per_block() as usize;
        assert!(overhead <= HEADER_BITS.div_ceil(b) + 1);
        assert!(overhead >= HEADER_BITS / b);
    }

    #[test]
    fn no_writes_before_header_complete() {
        let p = params();
        let r = FramedReceiver::new(p, 2).unwrap();
        let s = r.initial_state();
        assert_eq!(s.announced_len(), None);
        assert_eq!(s.available_payload(), 0);
        assert!(!s.complete());
        assert!(matches!(
            r.enabled(&s)[0],
            RstpAction::ReceiverInternal(InternalKind::Idle)
        ));
        assert!(matches!(
            r.step(&s, &RstpAction::Write(true)),
            Err(StepError::PreconditionFalse { .. })
        ));
    }

    #[test]
    fn rejects_tiny_alphabet() {
        assert!(FramedReceiver::new(params(), 1).is_err());
        assert!(FramedTransmitter::new(params(), 1, &[true]).is_err());
    }
}
