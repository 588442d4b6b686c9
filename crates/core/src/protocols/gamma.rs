//! `A^γ(k)` — the asymptotically optimal *active* solution of paper §6.2
//! (Figure 4), "due to an idea of Richard Beigel".
//!
//! Like `A^β(k)` but clocked by acknowledgements instead of counted idling:
//! the transmitter sends a burst of `δ2` packets, then waits (`idle_t`)
//! until it has received `δ2` `ack` packets — one per delivered packet —
//! before starting the next burst. Because the wait is event-driven, a
//! round costs wall-clock `≤ 3d + c2` (packet out ≤ d, ack turnaround
//! ≤ c2-ish, ack back ≤ d, plus the burst itself ≤ δ2·c2 ≤ d) regardless of
//! how slow the processes are, whereas `A^β`'s counted idling costs
//! `2·δ1·c2 = 2d·(c2/c1)·…` — the active protocol wins exactly when the
//! timing uncertainty `c2/c1` is large.
//!
//! Effort: `eff(A^γ(k)) ≤ (3d + c2) / ⌊log2 μ_k(δ2)⌋`, within a constant
//! factor of Theorem 5.6's lower bound `Ω(d / log μ_k(δ2))`.
//!
//! Figure 4 correspondence (transmitter): `c` is
//! [`GammaTransmitterState::step_in_burst`], `a` is
//! [`GammaTransmitterState::acks`]; `recv(ack)`'s effect
//! `a := a+1; if a = δ2 then (a := 0; c := 0)` is verbatim (with the block
//! index advancing on the reset); `idle_t` has precondition `c = δ2`.
//!
//! Figure 4 correspondence (receiver): multiset `A`, pending-ack counter
//! `j`, decoded array `ŷ`, and write counter `k` appear as the fields of
//! [`GammaReceiverState`]. The figure leaves the receiver nondeterministic
//! when both an ack is owed (`j > 0`) and a message is writable (`k ≤ i`);
//! we resolve it **ack-first** (then write, then `idle_r`), which is one of
//! the schedules the paper's correctness proof (Lemma 6.2) covers and the
//! one that unblocks the transmitter soonest.

use crate::action::{InternalKind, Message, Packet, RstpAction};
use crate::params::TimingParams;
use crate::protocols::ProtocolError;
use rstp_automata::{ActionClass, Automaton, StepError};
use rstp_codec::{BlockCodec, Multiset};

/// The single acknowledgement packet of `A^γ(k)`: `P^rt = {ack}`.
pub const ACK: Packet = Packet::Ack(0);

/// The transmitter of `A^γ(k)` (Figure 4, left column).
#[derive(Clone, Debug)]
pub struct GammaTransmitter {
    blocks: Vec<Vec<u64>>,
    delta2: u64,
    bits_per_block: u32,
    input_len: usize,
}

/// State of [`GammaTransmitter`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GammaTransmitterState {
    /// Index of the burst currently being transmitted.
    pub block: usize,
    /// Figure 4's `c ∈ [0, δ2]`: `< δ2` while sending, `= δ2` while awaiting
    /// acks.
    pub step_in_burst: u64,
    /// Figure 4's `a`: acks received for the current burst.
    pub acks: u64,
}

impl GammaTransmitter {
    /// Creates the transmitter: encodes `input` into bursts of `δ2` packets
    /// over the alphabet `{0, …, k-1}`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::AlphabetTooSmall`] if `k < 2`;
    /// [`ProtocolError::Codec`] if `(k, δ2)` cannot carry information.
    pub fn new(params: TimingParams, k: u64, input: &[Message]) -> Result<Self, ProtocolError> {
        if k < 2 {
            return Err(ProtocolError::AlphabetTooSmall { k });
        }
        let delta2 = params.delta2();
        let codec = BlockCodec::new(k, delta2)?;
        let blocks = codec
            .encode_stream(input)?
            .into_iter()
            .map(|b| b.packets().to_vec())
            .collect();
        Ok(GammaTransmitter {
            blocks,
            delta2,
            bits_per_block: codec.bits_per_block(),
            input_len: input.len(),
        })
    }

    /// The burst size `δ2`.
    #[must_use]
    pub fn delta2(&self) -> u64 {
        self.delta2
    }

    /// Number of bursts to transmit.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Input bits carried per burst, `b = ⌊log2 μ_k(δ2)⌋`.
    #[must_use]
    pub fn bits_per_block(&self) -> u32 {
        self.bits_per_block
    }

    /// Length of the original input `X`.
    #[must_use]
    pub fn input_len(&self) -> usize {
        self.input_len
    }
}

impl Automaton for GammaTransmitter {
    type Action = RstpAction;
    type State = GammaTransmitterState;

    fn initial_state(&self) -> GammaTransmitterState {
        GammaTransmitterState {
            block: 0,
            step_in_burst: 0,
            acks: 0,
        }
    }

    fn classify(&self, action: &RstpAction) -> Option<ActionClass> {
        match action {
            RstpAction::Send(Packet::Data(_)) => Some(ActionClass::Output),
            RstpAction::Recv(Packet::Ack(_)) => Some(ActionClass::Input),
            RstpAction::TransmitterInternal(InternalKind::Idle) => Some(ActionClass::Internal),
            _ => None,
        }
    }

    fn enabled_into(&self, state: &GammaTransmitterState, out: &mut Vec<RstpAction>) {
        if state.block >= self.blocks.len() {
            return; // everything sent and acknowledged: quiescent
        }
        let symbol = self
            .blocks
            .get(state.block)
            .filter(|_| state.step_in_burst < self.delta2)
            .and_then(|block| block.get(state.step_in_burst as usize));
        if let Some(&symbol) = symbol {
            out.push(RstpAction::Send(Packet::Data(symbol)));
        } else {
            // c = δ2: the figure's idle_t, enabled while awaiting acks.
            out.push(RstpAction::TransmitterInternal(InternalKind::Idle));
        }
    }

    fn apply(
        &self,
        state: &mut GammaTransmitterState,
        action: &RstpAction,
    ) -> Result<(), StepError> {
        let precondition_false = |reason: String| StepError::PreconditionFalse {
            action: format!("{action:?}"),
            reason,
        };
        match action {
            RstpAction::Recv(Packet::Ack(_)) => {
                // Input: must be accepted in every state. Stray acks after
                // the final block are absorbed without effect.
                if state.block >= self.blocks.len() {
                    return Ok(());
                }
                state.acks += 1;
                // Test-only seeded fault for the `rstp-check` fuzzer's
                // acceptance run: compile with
                // `RUSTFLAGS="--cfg rstp_check_inject_ack_bug"` and the
                // transmitter advances one ack early (an off-by-one the
                // fuzzer must catch via burst overlap under reordering).
                // δ2 = 1 is exempt so the bug stays a timing bug rather
                // than a trivial deadlock.
                let needed = if cfg!(rstp_check_inject_ack_bug) {
                    (self.delta2 - 1).max(1)
                } else {
                    self.delta2
                };
                if state.acks == needed {
                    *state = GammaTransmitterState {
                        block: state.block + 1,
                        step_in_burst: 0,
                        acks: 0,
                    };
                }
            }
            RstpAction::Send(Packet::Data(symbol)) => {
                if state.block >= self.blocks.len() {
                    return Err(precondition_false("all blocks transmitted".into()));
                }
                if state.step_in_burst >= self.delta2 {
                    return Err(precondition_false(format!(
                        "send requires c < δ2 (c = {})",
                        state.step_in_burst
                    )));
                }
                let expected = self.blocks[state.block][state.step_in_burst as usize];
                if *symbol != expected {
                    return Err(precondition_false(format!("p must equal x̂_i = {expected}")));
                }
                state.step_in_burst += 1;
            }
            RstpAction::TransmitterInternal(InternalKind::Idle) => {
                if state.block >= self.blocks.len() || state.step_in_burst < self.delta2 {
                    return Err(precondition_false(format!(
                        "idle_t requires c = δ2 (c = {})",
                        state.step_in_burst
                    )));
                }
            }
            other => return Err(StepError::unknown(other)),
        }
        Ok(())
    }
}

/// The receiver of `A^γ(k)` (Figure 4, right column).
#[derive(Clone, Debug)]
pub struct GammaReceiver {
    codec: BlockCodec,
    expected_bits: usize,
    k: u64,
}

/// State of [`GammaReceiver`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GammaReceiverState {
    /// Figure 4's multiset `A`: packets of the burst in progress.
    pub burst: Multiset,
    /// Figure 4's `j`: packets received but not yet acknowledged.
    pub pending_acks: u64,
    /// Figure 4's `ŷ`: decoded message bits.
    pub decoded: Vec<Message>,
    /// Completed writes (the figure's `k - 1`).
    pub written: usize,
    /// Bursts that failed to decode (fault injection only).
    pub decode_failures: u32,
}

impl GammaReceiver {
    /// Creates the receiver, which will reconstruct exactly `expected_bits`
    /// message bits.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GammaTransmitter::new`].
    pub fn new(params: TimingParams, k: u64, expected_bits: usize) -> Result<Self, ProtocolError> {
        if k < 2 {
            return Err(ProtocolError::AlphabetTooSmall { k });
        }
        let codec = BlockCodec::new(k, params.delta2())?;
        Ok(GammaReceiver {
            codec,
            expected_bits,
            k,
        })
    }

    /// The burst size the receiver waits for (`δ2`).
    #[must_use]
    pub fn burst_size(&self) -> u64 {
        self.codec.packets_per_block()
    }

    /// The exact number of message bits that will be written.
    #[must_use]
    pub fn expected_bits(&self) -> usize {
        self.expected_bits
    }
}

impl Automaton for GammaReceiver {
    type Action = RstpAction;
    type State = GammaReceiverState;

    fn initial_state(&self) -> GammaReceiverState {
        GammaReceiverState {
            burst: Multiset::empty(self.k),
            pending_acks: 0,
            decoded: Vec::new(),
            written: 0,
            decode_failures: 0,
        }
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

    fn enabled_into(&self, state: &GammaReceiverState, out: &mut Vec<RstpAction>) {
        // Fixed priority: ack, then write, then idle (see module docs).
        if state.pending_acks > 0 {
            out.push(RstpAction::Send(ACK));
        } else if let Some(&m) = state.decoded.get(state.written) {
            out.push(RstpAction::Write(m));
        } else {
            out.push(RstpAction::ReceiverInternal(InternalKind::Idle));
        }
    }

    fn apply(&self, state: &mut GammaReceiverState, action: &RstpAction) -> Result<(), StepError> {
        match action {
            RstpAction::Recv(Packet::Data(s)) => {
                // Figure 4: j := j + 1; A := A ∪ {p}; decode on |A| = δ2.
                state.pending_acks += 1;
                if *s >= self.k {
                    state.decode_failures += 1;
                    return Ok(());
                }
                state.burst.insert(*s);
                if state.burst.len() == self.codec.packets_per_block() {
                    let remaining = self.expected_bits.saturating_sub(state.decoded.len());
                    let decoded =
                        self.codec
                            .decode_block_into(&state.burst, &mut state.decoded, remaining);
                    if decoded.is_err() {
                        state.decode_failures += 1;
                    }
                    state.burst.clear();
                }
            }
            RstpAction::Send(Packet::Ack(0)) => {
                if state.pending_acks == 0 {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: "send(ack) requires j > 0".into(),
                    });
                }
                state.pending_acks -= 1;
            }
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
                if state.pending_acks > 0 || state.written < state.decoded.len() {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: "idle_r requires k > i and j = 0".into(),
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
        TimingParams::from_ticks(2, 3, 9).unwrap() // δ1 = 5, δ2 = 3
    }

    /// Run a full lock-step round trip: transmitter sends a burst, we hand
    /// the packets to the receiver, shuttle acks back, and repeat until
    /// quiescent. Returns (written bits, transmitter sends).
    fn lockstep(
        t: &GammaTransmitter,
        r: &GammaReceiver,
    ) -> (Vec<Message>, usize, GammaReceiverState) {
        let mut ts = t.initial_state();
        let mut rs = r.initial_state();
        let mut written = Vec::new();
        let mut sends = 0usize;
        for _ in 0..1_000_000 {
            // Transmitter takes its enabled local action if progress-making.
            let t_actions = t.enabled(&ts);
            check_deterministic(t, &ts).unwrap();
            check_enabled_consistent(t, &ts).unwrap();
            check_deterministic(r, &rs).unwrap();
            check_enabled_consistent(r, &rs).unwrap();
            let mut progressed = false;
            if let Some(a) = t_actions.first() {
                if let RstpAction::Send(Packet::Data(s)) = a {
                    ts = t.step(&ts, a).unwrap();
                    sends += 1;
                    // Deliver immediately.
                    rs = r.step(&rs, &RstpAction::Recv(Packet::Data(*s))).unwrap();
                    progressed = true;
                }
            }
            // Receiver takes its enabled local action.
            match r.enabled(&rs).first() {
                Some(RstpAction::Send(Packet::Ack(0))) => {
                    rs = r.step(&rs, &RstpAction::Send(ACK)).unwrap();
                    ts = t.step(&ts, &RstpAction::Recv(ACK)).unwrap();
                    progressed = true;
                }
                Some(RstpAction::Write(m)) => {
                    let m = *m;
                    written.push(m);
                    rs = r.step(&rs, &RstpAction::Write(m)).unwrap();
                    progressed = true;
                }
                _ => {}
            }
            if !progressed && t.enabled(&ts).iter().all(|a| a.is_idle()) {
                break;
            }
        }
        (written, sends, rs)
    }

    #[test]
    fn full_roundtrip_delivers_input_exactly() {
        let p = params();
        let input = vec![true, false, true, true, false, false, true, false, true];
        let t = GammaTransmitter::new(p, 4, &input).unwrap();
        let r = GammaReceiver::new(p, 4, input.len()).unwrap();
        let (written, sends, rs) = lockstep(&t, &r);
        assert_eq!(written, input);
        assert_eq!(sends, t.num_blocks() * t.delta2() as usize);
        assert_eq!(rs.decode_failures, 0);
        assert_eq!(rs.pending_acks, 0);
    }

    #[test]
    fn transmitter_blocks_until_all_acks_arrive() {
        let p = params(); // δ2 = 3
        let input = vec![true; 4];
        let t = GammaTransmitter::new(p, 2, &input).unwrap();
        let mut s = t.initial_state();
        // Send the whole first burst.
        for _ in 0..t.delta2() {
            let a = t.enabled(&s)[0];
            assert!(a.is_data_send());
            s = t.step(&s, &a).unwrap();
        }
        // Now only idle_t is enabled until δ2 acks arrive.
        assert_eq!(
            t.enabled(&s),
            vec![RstpAction::TransmitterInternal(InternalKind::Idle)]
        );
        s = t
            .step(&s, &RstpAction::TransmitterInternal(InternalKind::Idle))
            .unwrap();
        for i in 0..t.delta2() {
            assert_eq!(s.block, 0, "still on block 0 after {i} acks");
            s = t.step(&s, &RstpAction::Recv(ACK)).unwrap();
        }
        assert_eq!(s.block, 1);
        assert_eq!(s.step_in_burst, 0);
        assert_eq!(s.acks, 0);
        // Next burst's sends are enabled again.
        assert!(t.enabled(&s)[0].is_data_send());
    }

    #[test]
    fn stray_acks_after_completion_are_absorbed() {
        let p = params();
        let t = GammaTransmitter::new(p, 2, &[true]).unwrap();
        let mut s = t.initial_state();
        // Drive to completion.
        while let Some(a) = t.enabled(&s).first().copied() {
            if a.is_idle() {
                s = t.step(&s, &RstpAction::Recv(ACK)).unwrap();
            } else {
                s = t.step(&s, &a).unwrap();
            }
        }
        assert!(t.enabled(&s).is_empty());
        let after = t.step(&s, &RstpAction::Recv(ACK)).unwrap();
        assert_eq!(after, s); // input-enabled, no effect
    }

    #[test]
    fn receiver_ack_first_priority() {
        let p = params(); // δ2 = 3
        let r = GammaReceiver::new(p, 2, 2).unwrap();
        let mut s = r.initial_state();
        // Deliver a full burst; now j = 3 and (likely) bits decoded.
        for sym in [0u64, 0, 1] {
            s = r.step(&s, &RstpAction::Recv(Packet::Data(sym))).unwrap();
        }
        assert_eq!(s.pending_acks, 3);
        // Acks drain before any write.
        for _ in 0..3 {
            assert_eq!(r.enabled(&s), vec![RstpAction::Send(ACK)]);
            s = r.step(&s, &RstpAction::Send(ACK)).unwrap();
        }
        assert!(matches!(r.enabled(&s)[0], RstpAction::Write(_)));
    }

    #[test]
    fn receiver_rejects_unfounded_ack_and_idle() {
        let p = params();
        let r = GammaReceiver::new(p, 2, 2).unwrap();
        let s0 = r.initial_state();
        assert!(matches!(
            r.step(&s0, &RstpAction::Send(ACK)),
            Err(StepError::PreconditionFalse { .. })
        ));
        let s1 = r.step(&s0, &RstpAction::Recv(Packet::Data(0))).unwrap();
        assert!(matches!(
            r.step(&s1, &RstpAction::ReceiverInternal(InternalKind::Idle)),
            Err(StepError::PreconditionFalse { .. })
        ));
    }

    #[test]
    fn burst_size_is_delta2() {
        let p = params();
        let t = GammaTransmitter::new(p, 2, &[true; 8]).unwrap();
        let r = GammaReceiver::new(p, 2, 8).unwrap();
        assert_eq!(t.delta2(), 3);
        assert_eq!(r.burst_size(), 3);
        // k=2, δ2=3: μ_2(3) = 4 -> 2 bits per burst -> 4 bursts for 8 bits.
        assert_eq!(t.bits_per_block(), 2);
        assert_eq!(t.num_blocks(), 4);
    }

    #[test]
    fn alphabet_too_small_rejected() {
        let p = params();
        assert!(GammaTransmitter::new(p, 1, &[true]).is_err());
        assert!(GammaReceiver::new(p, 1, 1).is_err());
    }

    #[test]
    fn reordered_burst_still_decodes() {
        let p = params();
        let input = vec![false, true, true, false];
        let t = GammaTransmitter::new(p, 3, &input).unwrap();
        let r = GammaReceiver::new(p, 3, input.len()).unwrap();
        let mut ts = t.initial_state();
        let mut rs = r.initial_state();
        let mut written = Vec::new();
        while !t.enabled(&ts).is_empty() {
            // Collect one burst.
            let mut burst = Vec::new();
            while let Some(&a) = t.enabled(&ts).first() {
                match a {
                    RstpAction::Send(Packet::Data(s)) => {
                        ts = t.step(&ts, &a).unwrap();
                        burst.push(s);
                    }
                    _ => break,
                }
            }
            // Deliver it reversed.
            for &s in burst.iter().rev() {
                rs = r.step(&rs, &RstpAction::Recv(Packet::Data(s))).unwrap();
            }
            // Drain receiver locals, shuttling acks.
            loop {
                match r.enabled(&rs).first().copied() {
                    Some(RstpAction::Send(Packet::Ack(0))) => {
                        rs = r.step(&rs, &RstpAction::Send(ACK)).unwrap();
                        ts = t.step(&ts, &RstpAction::Recv(ACK)).unwrap();
                    }
                    Some(RstpAction::Write(m)) => {
                        written.push(m);
                        rs = r.step(&rs, &RstpAction::Write(m)).unwrap();
                    }
                    _ => break,
                }
            }
        }
        assert_eq!(written, input);
    }
}
