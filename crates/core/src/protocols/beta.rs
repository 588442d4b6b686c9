//! `A^β(k)` — the asymptotically optimal r-passive solution of paper §6.1
//! (Figure 3).
//!
//! Each round has `2·δ1` transmitter steps: `δ1` consecutive `send`s (one
//! burst) followed by `δ1` `wait_t` steps, which guarantees the whole burst
//! is delivered before the next burst's first packet (the gap between the
//! last send of a burst and the first send of the next is `δ1 + 1` steps
//! `≥ d + c1 > d`). Within a burst the channel may reorder freely — which is
//! exactly why a burst encodes its block of input bits as a **multiset**:
//! `⌊log2 μ_k(δ1)⌋` bits per burst via `tomulti`/`toseq` (realized by
//! [`rstp_codec::BlockCodec`]).
//!
//! Effort: `2·δ1` steps per `⌊log2 μ_k(δ1)⌋` bits, each step at most `c2`,
//! i.e. `eff(A^β(k)) ≤ 2·δ1·c2 / ⌊log2 μ_k(δ1)⌋` — within a constant factor
//! of the lower bound of Theorem 5.3.
//!
//! Figure 3 correspondence (transmitter): the figure indexes packets of the
//! *encoded* sequence by `i` and counts round steps with `c ∈ [0, 2δ1)`; we
//! keep `c` verbatim ([`BetaTransmitterState::step_in_round`]) and split `i`
//! into `(block, c)` with `i = block·δ1 + min(c, δ1)`. The figure's `x̂` (the
//! encoded packet stream) is precomputed by the codec (the paper elides
//! encoding; we perform it).
//!
//! Figure 3 correspondence (receiver): the multiset `A` is
//! [`BetaReceiverState::burst`], `ŷ` is [`BetaReceiverState::decoded`], and
//! `k` (1-based next write) is [`BetaReceiverState::written`] + 1.
//!
//! Termination: the paper has the receiver write forever as packets arrive,
//! assuming `|X| ≡ 0 (mod block)`. We lift that by zero-padding the final
//! block at the transmitter and giving the receiver the exact input length
//! `expected_bits` so it can drop the padding. (For a fully self-delimiting
//! stream see [`crate::protocols::framed`].)

use crate::action::{InternalKind, Message, Packet, RstpAction};
use crate::params::TimingParams;
use crate::protocols::ProtocolError;
use rstp_automata::{ActionClass, Automaton, StepError};
use rstp_codec::{BlockCodec, Multiset};

/// The transmitter of `A^β(k)` (Figure 3, left column).
///
/// Generalized with an explicit round shape `(burst_len, wait_len)`:
/// Figure 3 is the special case `burst_len = wait_len = δ1`. The §7
/// extension with a delivery window `[d_lo, d_hi]` shortens the wait phase
/// (see [`crate::ext`]); the receiver is oblivious to the shape beyond the
/// burst size.
#[derive(Clone, Debug)]
pub struct BetaTransmitter {
    blocks: Vec<Vec<u64>>,
    burst_len: u64,
    wait_len: u64,
    bits_per_block: u32,
    input_len: usize,
}

/// State of [`BetaTransmitter`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BetaTransmitterState {
    /// Index of the burst currently being transmitted.
    pub block: usize,
    /// Figure 3's `c ∈ [0, 2δ1)`: `< δ1` while sending, `≥ δ1` while
    /// waiting.
    pub step_in_round: u64,
}

impl BetaTransmitter {
    /// Creates the transmitter: encodes `input` into bursts of `δ1` packets
    /// over the alphabet `{0, …, k-1}`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::AlphabetTooSmall`] if `k < 2`;
    /// [`ProtocolError::Codec`] if `(k, δ1)` cannot carry information.
    pub fn new(params: TimingParams, k: u64, input: &[Message]) -> Result<Self, ProtocolError> {
        let delta1 = params.delta1();
        BetaTransmitter::with_shape(k, delta1, delta1, input)
    }

    /// Creates a transmitter with an explicit round shape: bursts of
    /// `burst_len` sends followed by `wait_len` `wait_t` steps.
    ///
    /// Correctness requires `wait_len` large enough that burst `i` is fully
    /// delivered before burst `i+1` starts arriving — `(wait_len + 1)·c1 ≥
    /// d_hi - d_lo` in the §7 window model (Figure 3's choice
    /// `wait_len = δ1` covers the paper's `d_lo = 0`). This constructor does
    /// not enforce that inequality (it depends on the channel model);
    /// [`crate::ext`] computes safe shapes.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::AlphabetTooSmall`] if `k < 2`;
    /// [`ProtocolError::Codec`] if `(k, burst_len)` cannot carry
    /// information.
    pub fn with_shape(
        k: u64,
        burst_len: u64,
        wait_len: u64,
        input: &[Message],
    ) -> Result<Self, ProtocolError> {
        if k < 2 {
            return Err(ProtocolError::AlphabetTooSmall { k });
        }
        let codec = BlockCodec::new(k, burst_len)?;
        let blocks = codec
            .encode_stream(input)?
            .into_iter()
            .map(|b| b.packets().to_vec())
            .collect();
        Ok(BetaTransmitter {
            blocks,
            burst_len,
            wait_len,
            bits_per_block: codec.bits_per_block(),
            input_len: input.len(),
        })
    }

    /// The burst size (`δ1` for the Figure 3 shape).
    #[must_use]
    pub fn delta1(&self) -> u64 {
        self.burst_len
    }

    /// The wait-phase length in steps (`δ1` for the Figure 3 shape).
    #[must_use]
    pub fn wait_len(&self) -> u64 {
        self.wait_len
    }

    /// Number of bursts to transmit, `⌈|X| / b⌉`.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Input bits carried per burst, `b = ⌊log2 μ_k(δ1)⌋`.
    #[must_use]
    pub fn bits_per_block(&self) -> u32 {
        self.bits_per_block
    }

    /// Length of the original input `X`.
    #[must_use]
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Total local steps the transmitter takes: `burst_len + wait_len`
    /// (`2·δ1` for the Figure 3 shape) per burst.
    #[must_use]
    pub fn total_steps(&self) -> u64 {
        (self.burst_len + self.wait_len) * self.blocks.len() as u64
    }

    /// Steps per round.
    fn round_len(&self) -> u64 {
        self.burst_len + self.wait_len
    }

    /// `c := c + 1 (mod round)`, advancing to the next block on wrap.
    fn advance(&self, state: &mut BetaTransmitterState) {
        state.step_in_round = (state.step_in_round + 1) % self.round_len();
        if state.step_in_round == 0 {
            state.block += 1;
        }
    }
}

impl Automaton for BetaTransmitter {
    type Action = RstpAction;
    type State = BetaTransmitterState;

    fn initial_state(&self) -> BetaTransmitterState {
        BetaTransmitterState {
            block: 0,
            step_in_round: 0,
        }
    }

    fn classify(&self, action: &RstpAction) -> Option<ActionClass> {
        match action {
            RstpAction::Send(Packet::Data(_)) => Some(ActionClass::Output),
            RstpAction::TransmitterInternal(InternalKind::Wait) => Some(ActionClass::Internal),
            _ => None, // r-passive
        }
    }

    fn enabled_into(&self, state: &BetaTransmitterState, out: &mut Vec<RstpAction>) {
        if state.block >= self.blocks.len() {
            return; // whole input transmitted: quiescent
        }
        let symbol = self
            .blocks
            .get(state.block)
            .filter(|_| state.step_in_round < self.burst_len)
            .and_then(|block| block.get(state.step_in_round as usize));
        if let Some(&symbol) = symbol {
            out.push(RstpAction::Send(Packet::Data(symbol)));
        } else {
            out.push(RstpAction::TransmitterInternal(InternalKind::Wait));
        }
    }

    fn apply(
        &self,
        state: &mut BetaTransmitterState,
        action: &RstpAction,
    ) -> Result<(), StepError> {
        let precondition_false = |reason: String| StepError::PreconditionFalse {
            action: format!("{action:?}"),
            reason,
        };
        if state.block >= self.blocks.len() {
            return Err(precondition_false("all blocks transmitted".into()));
        }
        match action {
            RstpAction::Send(Packet::Data(symbol)) => {
                if state.step_in_round >= self.burst_len {
                    return Err(precondition_false(format!(
                        "send requires c < burst (c = {})",
                        state.step_in_round
                    )));
                }
                let expected = self.blocks[state.block][state.step_in_round as usize];
                if *symbol != expected {
                    return Err(precondition_false(format!("p must equal x̂_i = {expected}")));
                }
            }
            RstpAction::TransmitterInternal(InternalKind::Wait) => {
                if state.step_in_round < self.burst_len {
                    return Err(precondition_false(format!(
                        "wait_t requires burst ≤ c < round (c = {})",
                        state.step_in_round
                    )));
                }
            }
            other => return Err(StepError::unknown(other)),
        }
        self.advance(state);
        Ok(())
    }
}

/// The receiver of `A^β(k)` (Figure 3, right column).
#[derive(Clone, Debug)]
pub struct BetaReceiver {
    codec: BlockCodec,
    expected_bits: usize,
    k: u64,
}

/// State of [`BetaReceiver`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BetaReceiverState {
    /// Figure 3's multiset `A`: packets of the burst in progress.
    pub burst: Multiset,
    /// Figure 3's `ŷ`: decoded message bits, in order.
    pub decoded: Vec<Message>,
    /// Completed writes (the figure's `k - 1`).
    pub written: usize,
    /// Bursts that failed to decode (impossible over the paper's channel;
    /// observable under fault injection).
    pub decode_failures: u32,
}

impl BetaReceiver {
    /// Creates the receiver, which will reconstruct exactly `expected_bits`
    /// message bits (dropping final-block padding).
    ///
    /// # Errors
    ///
    /// Same conditions as [`BetaTransmitter::new`].
    pub fn new(params: TimingParams, k: u64, expected_bits: usize) -> Result<Self, ProtocolError> {
        BetaReceiver::with_burst(k, params.delta1(), expected_bits)
    }

    /// Creates a receiver for an explicit burst size (pair of
    /// [`BetaTransmitter::with_shape`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`BetaReceiver::new`].
    pub fn with_burst(k: u64, burst_len: u64, expected_bits: usize) -> Result<Self, ProtocolError> {
        if k < 2 {
            return Err(ProtocolError::AlphabetTooSmall { k });
        }
        let codec = BlockCodec::new(k, burst_len)?;
        Ok(BetaReceiver {
            codec,
            expected_bits,
            k,
        })
    }

    /// The burst size the receiver waits for (`δ1`).
    #[must_use]
    pub fn burst_size(&self) -> u64 {
        self.codec.packets_per_block()
    }

    /// The exact number of message bits that will be written.
    #[must_use]
    pub fn expected_bits(&self) -> usize {
        self.expected_bits
    }

    /// Applies the Figure 3 `recv(p)` effect: `A := A ∪ {p}`; when
    /// `|A| = δ1`, decode and append (shared with `A^γ(k)`, which differs
    /// only in burst size and acks).
    fn absorb(&self, state: &mut BetaReceiverState, symbol: u64) {
        if symbol >= self.k {
            // Input-enabledness: out-of-alphabet packets cannot be part of
            // any codeword; count them as corruption and drop them.
            state.decode_failures += 1;
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

impl Automaton for BetaReceiver {
    type Action = RstpAction;
    type State = BetaReceiverState;

    fn initial_state(&self) -> BetaReceiverState {
        BetaReceiverState {
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

    fn enabled_into(&self, state: &BetaReceiverState, out: &mut Vec<RstpAction>) {
        if let Some(&m) = state.decoded.get(state.written) {
            out.push(RstpAction::Write(m));
        } else {
            out.push(RstpAction::ReceiverInternal(InternalKind::Idle));
        }
    }

    fn apply(&self, state: &mut BetaReceiverState, action: &RstpAction) -> Result<(), StepError> {
        match action {
            RstpAction::Recv(Packet::Data(s)) => self.absorb(state, *s),
            RstpAction::Write(m) => {
                let Some(&expected) = state.decoded.get(state.written) else {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: "write requires a decoded, unwritten message".into(),
                    });
                };
                if *m != expected {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: format!("m must equal ŷ_k = {expected}"),
                    });
                }
                state.written += 1;
            }
            RstpAction::ReceiverInternal(InternalKind::Idle) => {
                if state.written < state.decoded.len() {
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
    use rstp_automata::automaton::{check_deterministic, check_enabled_consistent};

    fn params() -> TimingParams {
        TimingParams::from_ticks(2, 3, 8).unwrap() // δ1 = 4
    }

    fn drive_transmitter(t: &BetaTransmitter) -> Vec<RstpAction> {
        let mut state = t.initial_state();
        let mut log = Vec::new();
        for _ in 0..100_000 {
            check_deterministic(t, &state).unwrap();
            check_enabled_consistent(t, &state).unwrap();
            let Some(a) = t.enabled(&state).into_iter().next() else {
                break;
            };
            state = t.step(&state, &a).unwrap();
            log.push(a);
        }
        log
    }

    #[test]
    fn round_structure_is_delta1_sends_then_delta1_waits() {
        // k = 2, δ1 = 4: μ_2(4) = 5, b = 2 bits per burst.
        let t = BetaTransmitter::new(params(), 2, &[true, false, true]).unwrap();
        assert_eq!(t.bits_per_block(), 2);
        assert_eq!(t.num_blocks(), 2); // ceil(3 / 2)
        let log = drive_transmitter(&t);
        assert_eq!(log.len() as u64, t.total_steps());
        for (i, a) in log.iter().enumerate() {
            let in_round = i as u64 % (2 * t.delta1());
            if in_round < t.delta1() {
                assert!(a.is_data_send(), "step {i} should be a send");
            } else {
                assert_eq!(
                    *a,
                    RstpAction::TransmitterInternal(InternalKind::Wait),
                    "step {i} should be wait_t"
                );
            }
        }
    }

    #[test]
    fn burst_gap_exceeds_delta1_steps() {
        let t = BetaTransmitter::new(params(), 2, &[true; 6]).unwrap();
        let log = drive_transmitter(&t);
        let sends: Vec<usize> = log
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_data_send())
            .map(|(i, _)| i)
            .collect();
        // Between consecutive bursts: gap of δ1 + 1 step indices.
        for w in sends.windows(2) {
            let gap = w[1] - w[0];
            assert!(gap == 1 || gap as u64 == t.delta1() + 1, "gap {gap}");
        }
    }

    #[test]
    fn receiver_decodes_what_transmitter_encodes_in_any_burst_order() {
        let p = params();
        let input = vec![true, false, false, true, true, false, true];
        let t = BetaTransmitter::new(p, 3, &input).unwrap();
        let r = BetaReceiver::new(p, 3, input.len()).unwrap();
        let mut rs = r.initial_state();
        let log = drive_transmitter(&t);
        // Deliver each burst fully reversed — worst-case reordering.
        let mut burst: Vec<u64> = Vec::new();
        for a in log {
            if let RstpAction::Send(Packet::Data(s)) = a {
                burst.push(s);
                if burst.len() as u64 == r.burst_size() {
                    for &s in burst.iter().rev() {
                        rs = r.step(&rs, &RstpAction::Recv(Packet::Data(s))).unwrap();
                    }
                    burst.clear();
                }
            }
        }
        assert_eq!(rs.decoded, input);
        assert_eq!(rs.decode_failures, 0);
        // Drain the writes.
        let mut written = Vec::new();
        while let RstpAction::Write(m) = r.enabled(&rs)[0] {
            written.push(m);
            rs = r.step(&rs, &RstpAction::Write(m)).unwrap();
        }
        assert_eq!(written, input);
    }

    #[test]
    fn padding_is_dropped_via_expected_bits() {
        let p = params();
        // b = 2 bits per burst; 3 bits -> 2 bursts, 1 padding bit.
        let input = vec![true, true, true];
        let t = BetaTransmitter::new(p, 2, &input).unwrap();
        let r = BetaReceiver::new(p, 2, input.len()).unwrap();
        let mut rs = r.initial_state();
        for a in drive_transmitter(&t) {
            if let RstpAction::Send(Packet::Data(s)) = a {
                rs = r.step(&rs, &RstpAction::Recv(Packet::Data(s))).unwrap();
            }
        }
        assert_eq!(rs.decoded, input); // exactly 3 bits, padding dropped
    }

    #[test]
    fn alphabet_too_small_rejected() {
        let p = params();
        assert!(matches!(
            BetaTransmitter::new(p, 1, &[true]),
            Err(ProtocolError::AlphabetTooSmall { k: 1 })
        ));
        assert!(matches!(
            BetaReceiver::new(p, 0, 4),
            Err(ProtocolError::AlphabetTooSmall { k: 0 })
        ));
    }

    #[test]
    fn out_of_alphabet_packet_counted_as_corruption() {
        let p = params();
        let r = BetaReceiver::new(p, 2, 4).unwrap();
        let s = r
            .step(&r.initial_state(), &RstpAction::Recv(Packet::Data(9)))
            .unwrap();
        assert_eq!(s.decode_failures, 1);
        assert!(s.burst.is_empty());
    }

    #[test]
    fn corrupted_burst_is_skipped_not_fatal() {
        // Build a burst that is a valid multiset but not a codeword:
        // k=2, δ1=4 -> μ=5, b=2, codewords ranks 0..4; rank 4 = {1,1,1,1}.
        let p = params();
        let r = BetaReceiver::new(p, 2, 4).unwrap();
        let mut s = r.initial_state();
        for _ in 0..4 {
            s = r.step(&s, &RstpAction::Recv(Packet::Data(1))).unwrap();
        }
        assert_eq!(s.decode_failures, 1);
        assert!(s.decoded.is_empty());
        assert!(s.burst.is_empty()); // ready for the next burst
    }

    #[test]
    fn transmitter_step_rejections() {
        let t = BetaTransmitter::new(params(), 2, &[true, false]).unwrap();
        let s0 = t.initial_state();
        // wait before the burst is finished.
        assert!(matches!(
            t.step(&s0, &RstpAction::TransmitterInternal(InternalKind::Wait)),
            Err(StepError::PreconditionFalse { .. })
        ));
        // wrong symbol.
        let expected = match t.enabled(&s0)[0] {
            RstpAction::Send(Packet::Data(s)) => s,
            other => panic!("a fresh burst starts with a data send, got {other:?}"),
        };
        assert!(matches!(
            t.step(&s0, &RstpAction::Send(Packet::Data(expected + 1))),
            Err(StepError::PreconditionFalse { .. })
        ));
        // unknown action.
        assert!(matches!(
            t.step(&s0, &RstpAction::Write(true)),
            Err(StepError::UnknownAction { .. })
        ));
    }

    #[test]
    fn empty_input_transmits_nothing() {
        let t = BetaTransmitter::new(params(), 2, &[]).unwrap();
        assert_eq!(t.num_blocks(), 0);
        assert!(t.enabled(&t.initial_state()).is_empty());
    }

    #[test]
    fn receiver_write_then_idle_discipline() {
        let p = params();
        let r = BetaReceiver::new(p, 2, 2).unwrap();
        let s0 = r.initial_state();
        assert_eq!(
            r.enabled(&s0),
            vec![RstpAction::ReceiverInternal(InternalKind::Idle)]
        );
        // idle while caught up is a no-op.
        let s = r
            .step(&s0, &RstpAction::ReceiverInternal(InternalKind::Idle))
            .unwrap();
        assert_eq!(s, s0);
    }

    #[test]
    fn larger_k_carries_more_bits_per_burst() {
        let p = TimingParams::from_ticks(1, 1, 8).unwrap(); // δ1 = 8
        let b2 = BetaTransmitter::new(p, 2, &[true; 16]).unwrap();
        let b4 = BetaTransmitter::new(p, 4, &[true; 16]).unwrap();
        let b16 = BetaTransmitter::new(p, 16, &[true; 16]).unwrap();
        assert!(b2.bits_per_block() < b4.bits_per_block());
        assert!(b4.bits_per_block() < b16.bits_per_block());
        assert!(b2.num_blocks() >= b4.num_blocks());
        assert!(b4.num_blocks() >= b16.num_blocks());
    }
}
