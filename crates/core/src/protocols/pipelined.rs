//! `A^δ(k, w)` — a pipelined active protocol (repository extension).
//!
//! `A^γ(k)` is stop-and-wait at burst granularity: each round pays a full
//! `~3d` hand-shake during which the transmitter idles. This extension
//! keeps a **window** of `w` bursts in flight: burst `i+1` (… `i+w-1`) is
//! sent while burst `i`'s acknowledgements are still in transit, dividing
//! the hand-shake stalls by up to `w` in steady state.
//!
//! Correctness rests on one new idea plus the window discipline:
//!
//! * each burst is tagged with its index **mod `w`**, carried in the wire
//!   symbol (`wire = w·sym + tag`, multiplying the alphabet to `w·k`), and
//!   acks echo the tag — so the receiver can separate interleaved bursts
//!   and the transmitter can attribute acks;
//! * burst `i+w` (same tag as `i`) is sent only after burst `i` is *fully
//!   acknowledged* — hence fully delivered and decoded — so at most one
//!   burst per tag is ever un-decoded, and the tag suffices.
//!
//! The receiver decodes each tag's multiset independently and commits
//! decoded blocks strictly in block order (bursts may *complete* out of
//! order when their delivery windows overlap).
//!
//! The price is information: the tag costs `log2 μ_{wk}(δ2) − log2
//! μ_k(δ2)` bits per burst relative to giving stop-and-wait the same wire
//! alphabet. Experiment E11 measures the resulting trade-off — pipelining
//! wins exactly when `k ≫ δ2` (rich alphabets, short bursts), and
//! spending the symbols on coding wins when `δ2 ≫ k`.
//!
//! `w = 1` degenerates to ack-clocked stop-and-wait (`A^γ`'s behavior
//! with an untagged wire).

use crate::action::{InternalKind, Message, Packet, RstpAction};
use crate::params::TimingParams;
use crate::protocols::ProtocolError;
use rstp_automata::{ActionClass, Automaton, StepError};
use rstp_codec::{BlockCodec, Multiset};
use std::collections::VecDeque;

fn wire_symbol(w: u64, sym: u64, block_index: usize) -> u64 {
    w * sym + (block_index as u64 % w)
}

fn unwire(w: u64, wire: u64) -> (u64, u64) {
    (wire / w, wire % w) // (base symbol, tag)
}

/// The transmitter of `A^δ(k, w)`.
#[derive(Clone, Debug)]
pub struct PipelinedTransmitter {
    blocks: Vec<Vec<u64>>,
    delta2: u64,
    window: u64,
    bits_per_block: u32,
}

/// State of [`PipelinedTransmitter`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelinedTransmitterState {
    /// Index of the burst currently being transmitted.
    pub sending_block: usize,
    /// Packets of `sending_block` sent so far.
    pub c: u64,
    /// Oldest not-fully-acknowledged burst.
    pub low_block: usize,
    /// Ack counts for bursts `low_block, low_block+1, …` (window order).
    pub acks: VecDeque<u64>,
}

impl PipelinedTransmitter {
    /// Window-2 constructor (the default configuration measured in E11).
    ///
    /// # Errors
    ///
    /// See [`PipelinedTransmitter::with_window`].
    pub fn new(params: TimingParams, k: u64, input: &[Message]) -> Result<Self, ProtocolError> {
        PipelinedTransmitter::with_window(params, k, 2, input)
    }

    /// Creates the transmitter with an explicit window `w ≥ 1`: bursts of
    /// `δ2` packets over the base alphabet `{0, …, k-1}`, tagged on the
    /// wire into `{0, …, w·k-1}`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::AlphabetTooSmall`] if `k < 2` or `w = 0`;
    /// [`ProtocolError::Codec`] if `(k, δ2)` cannot carry information.
    pub fn with_window(
        params: TimingParams,
        k: u64,
        window: u64,
        input: &[Message],
    ) -> Result<Self, ProtocolError> {
        if k < 2 || window == 0 {
            return Err(ProtocolError::AlphabetTooSmall { k });
        }
        let delta2 = params.delta2();
        let codec = BlockCodec::new(k, delta2)?;
        let blocks = codec
            .encode_stream(input)?
            .into_iter()
            .map(|b| b.packets().to_vec())
            .collect();
        Ok(PipelinedTransmitter {
            blocks,
            delta2,
            window,
            bits_per_block: codec.bits_per_block(),
        })
    }

    /// The burst size `δ2`.
    #[must_use]
    pub fn delta2(&self) -> u64 {
        self.delta2
    }

    /// The window size `w`.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Number of bursts.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Input bits per burst.
    #[must_use]
    pub fn bits_per_block(&self) -> u32 {
        self.bits_per_block
    }

    fn may_send(&self, s: &PipelinedTransmitterState) -> bool {
        s.sending_block < self.blocks.len() && s.sending_block < s.low_block + self.window as usize
    }

    fn done(&self, s: &PipelinedTransmitterState) -> bool {
        s.low_block >= self.blocks.len()
    }
}

impl Automaton for PipelinedTransmitter {
    type Action = RstpAction;
    type State = PipelinedTransmitterState;

    fn initial_state(&self) -> PipelinedTransmitterState {
        PipelinedTransmitterState {
            sending_block: 0,
            c: 0,
            low_block: 0,
            acks: VecDeque::from(vec![0; self.window as usize]),
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

    fn enabled_into(&self, state: &PipelinedTransmitterState, out: &mut Vec<RstpAction>) {
        if self.done(state) {
            return;
        }
        let sym = self
            .blocks
            .get(state.sending_block)
            .filter(|_| self.may_send(state))
            .and_then(|block| block.get(state.c as usize));
        if let Some(&sym) = sym {
            out.push(RstpAction::Send(Packet::Data(wire_symbol(
                self.window,
                sym,
                state.sending_block,
            ))));
        } else {
            // Window full: wait for acks.
            out.push(RstpAction::TransmitterInternal(InternalKind::Idle));
        }
    }

    fn apply(
        &self,
        state: &mut PipelinedTransmitterState,
        action: &RstpAction,
    ) -> Result<(), StepError> {
        match action {
            RstpAction::Recv(Packet::Ack(tag)) => {
                if self.done(state) {
                    return Ok(()); // stray ack
                }
                // The unique outstanding block with this tag sits at window
                // offset (tag - low_block) mod w.
                let w = self.window;
                let offset = ((tag % w) + w - (state.low_block as u64 % w)) % w;
                if let Some(acked) = state.acks.get_mut(offset as usize) {
                    *acked += 1;
                }
                // Retire fully acknowledged bursts from the front.
                while state.acks.front().is_some_and(|&a| a >= self.delta2)
                    && state.low_block < self.blocks.len()
                {
                    state.acks.pop_front();
                    state.acks.push_back(0);
                    state.low_block += 1;
                }
            }
            RstpAction::Send(Packet::Data(wire)) => {
                if !self.may_send(state) {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: "send requires window space and remaining input".into(),
                    });
                }
                let expected = wire_symbol(
                    self.window,
                    self.blocks[state.sending_block][state.c as usize],
                    state.sending_block,
                );
                if *wire != expected {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: format!("wire symbol must be {expected}"),
                    });
                }
                state.c += 1;
                if state.c == self.delta2 {
                    state.sending_block += 1;
                    state.c = 0;
                }
            }
            RstpAction::TransmitterInternal(InternalKind::Idle) => {
                if self.done(state) || self.may_send(state) {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: "idle_t requires a full window".into(),
                    });
                }
            }
            other => return Err(StepError::unknown(other)),
        }
        Ok(())
    }
}

/// The receiver of `A^δ(k, w)`.
#[derive(Clone, Debug)]
pub struct PipelinedReceiver {
    codec: BlockCodec,
    expected_bits: usize,
    k: u64,
    window: u64,
}

/// State of [`PipelinedReceiver`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelinedReceiverState {
    /// Per-tag burst accumulators.
    pub bursts: Vec<Multiset>,
    /// Per-tag decoded-but-uncommitted block.
    pub staged: Vec<Option<Vec<Message>>>,
    /// Tag of the next block to commit (blocks cycle tags from 0).
    pub commit_tag: u64,
    /// Committed message bits.
    pub decoded: Vec<Message>,
    /// Completed writes.
    pub written: usize,
    /// Acks owed, FIFO of tags.
    pub ack_queue: VecDeque<u64>,
    /// Decode failures (fault injection only).
    pub decode_failures: u32,
}

impl PipelinedReceiver {
    /// Window-2 constructor.
    ///
    /// # Errors
    ///
    /// See [`PipelinedReceiver::with_window`].
    pub fn new(params: TimingParams, k: u64, expected_bits: usize) -> Result<Self, ProtocolError> {
        PipelinedReceiver::with_window(params, k, 2, expected_bits)
    }

    /// Creates the receiver for window `w` (pair of
    /// [`PipelinedTransmitter::with_window`]).
    ///
    /// # Errors
    ///
    /// Same conditions as the transmitter constructor.
    pub fn with_window(
        params: TimingParams,
        k: u64,
        window: u64,
        expected_bits: usize,
    ) -> Result<Self, ProtocolError> {
        if k < 2 || window == 0 {
            return Err(ProtocolError::AlphabetTooSmall { k });
        }
        let codec = BlockCodec::new(k, params.delta2())?;
        Ok(PipelinedReceiver {
            codec,
            expected_bits,
            k,
            window,
        })
    }

    /// The window size `w`.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    fn commit_ready(&self, s: &mut PipelinedReceiverState) {
        while let Some(bits) = s
            .staged
            .get_mut(s.commit_tag as usize)
            .and_then(Option::take)
        {
            let remaining = self.expected_bits.saturating_sub(s.decoded.len());
            let take = bits.len().min(remaining);
            s.decoded.extend(bits.into_iter().take(take));
            s.commit_tag = (s.commit_tag + 1) % self.window;
        }
    }
}

impl Automaton for PipelinedReceiver {
    type Action = RstpAction;
    type State = PipelinedReceiverState;

    fn initial_state(&self) -> PipelinedReceiverState {
        PipelinedReceiverState {
            bursts: vec![Multiset::empty(self.k); self.window as usize],
            staged: vec![None; self.window as usize],
            commit_tag: 0,
            decoded: Vec::new(),
            written: 0,
            ack_queue: VecDeque::new(),
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

    fn enabled_into(&self, state: &PipelinedReceiverState, out: &mut Vec<RstpAction>) {
        if let Some(&tag) = state.ack_queue.front() {
            out.push(RstpAction::Send(Packet::Ack(tag)));
        } else if let Some(&m) = state.decoded.get(state.written) {
            out.push(RstpAction::Write(m));
        } else {
            out.push(RstpAction::ReceiverInternal(InternalKind::Idle));
        }
    }

    fn apply(
        &self,
        state: &mut PipelinedReceiverState,
        action: &RstpAction,
    ) -> Result<(), StepError> {
        match action {
            RstpAction::Recv(Packet::Data(wire)) => {
                let (sym, tag) = unwire(self.window, *wire);
                state.ack_queue.push_back(tag);
                if sym >= self.k {
                    state.decode_failures += 1;
                    return Ok(());
                }
                // `unwire` reduces the tag mod w, so the slot is always in
                // range; index through `get_mut` so corruption of that
                // invariant counts as a decode failure instead of a panic.
                let slot = tag as usize;
                let Some(burst) = state.bursts.get_mut(slot) else {
                    state.decode_failures += 1;
                    return Ok(());
                };
                burst.insert(sym);
                if burst.len() == self.codec.packets_per_block() {
                    let mut bits = Vec::new();
                    let decoded = self.codec.decode_block_into(burst, &mut bits, usize::MAX);
                    burst.clear();
                    match decoded {
                        Ok(()) => {
                            // The window discipline keeps the slot free;
                            // defensively count an overwrite (reachable
                            // only under fault injection).
                            if state
                                .staged
                                .get_mut(slot)
                                .and_then(|staged| staged.replace(bits))
                                .is_some()
                            {
                                state.decode_failures += 1;
                            }
                        }
                        Err(_) => state.decode_failures += 1,
                    }
                    self.commit_ready(state);
                }
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
                if state.decoded.get(state.written) != Some(m) {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: "write requires the next committed message".into(),
                    });
                }
                state.written += 1;
            }
            RstpAction::ReceiverInternal(InternalKind::Idle) => {
                if !state.ack_queue.is_empty() || state.written < state.decoded.len() {
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
        TimingParams::from_ticks(2, 3, 9).unwrap() // δ2 = 3
    }

    /// Full lockstep roundtrip for any window; returns written bits.
    fn lockstep(
        t: &PipelinedTransmitter,
        r: &PipelinedReceiver,
        input: &[Message],
    ) -> Vec<Message> {
        let mut ts = t.initial_state();
        let mut rs = r.initial_state();
        let mut written = Vec::new();
        for _ in 0..100_000 {
            let mut progressed = false;
            if let Some(a) = t.enabled(&ts).first().copied() {
                if let RstpAction::Send(p) = a {
                    ts = t.step(&ts, &a).unwrap();
                    rs = r.step(&rs, &RstpAction::Recv(p)).unwrap();
                    progressed = true;
                }
            }
            match r.enabled(&rs).first().copied() {
                Some(RstpAction::Send(Packet::Ack(tag))) => {
                    rs = r.step(&rs, &RstpAction::Send(Packet::Ack(tag))).unwrap();
                    ts = t.step(&ts, &RstpAction::Recv(Packet::Ack(tag))).unwrap();
                    progressed = true;
                }
                Some(RstpAction::Write(m)) => {
                    written.push(m);
                    rs = r.step(&rs, &RstpAction::Write(m)).unwrap();
                    progressed = true;
                }
                _ => {}
            }
            if !progressed && t.enabled(&ts).is_empty() {
                break;
            }
        }
        assert_eq!(written, input);
        written
    }

    #[test]
    fn wire_tagging_roundtrip_any_window() {
        for w in 1..=4u64 {
            for sym in 0..6u64 {
                for block in 0..8usize {
                    let wire = wire_symbol(w, sym, block);
                    assert_eq!(unwire(w, wire), (sym, block as u64 % w));
                }
            }
        }
    }

    #[test]
    fn window_admits_w_bursts_then_blocks() {
        let p = params(); // δ2 = 3
        for w in [1u64, 2, 3] {
            // Enough input for w + 1 bursts (k = 2: 2 bits/burst).
            let input = vec![true; 2 * (w as usize + 1)];
            let t = PipelinedTransmitter::with_window(p, 2, w, &input).unwrap();
            assert!(t.num_blocks() as u64 > w);
            let mut s = t.initial_state();
            for i in 0..(w * t.delta2()) {
                let a = t.enabled(&s)[0];
                assert!(a.is_data_send(), "w={w} step {i} should send, got {a:?}");
                s = t.step(&s, &a).unwrap();
            }
            assert_eq!(
                t.enabled(&s),
                vec![RstpAction::TransmitterInternal(InternalKind::Idle)],
                "w={w}: window must be full"
            );
            // Acks for burst 0 open the window again.
            for _ in 0..t.delta2() {
                s = t.step(&s, &RstpAction::Recv(Packet::Ack(0))).unwrap();
            }
            assert_eq!(s.low_block, 1);
            assert!(t.enabled(&s)[0].is_data_send());
        }
    }

    #[test]
    fn roundtrip_across_windows() {
        let p = params();
        let input: Vec<bool> = (0..26).map(|i| i % 3 == 0).collect();
        for w in [1u64, 2, 3, 4] {
            let t = PipelinedTransmitter::with_window(p, 4, w, &input).unwrap();
            let r = PipelinedReceiver::with_window(p, 4, w, input.len()).unwrap();
            lockstep(&t, &r, &input);
        }
    }

    #[test]
    fn ack_attribution_with_window_three() {
        let p = params(); // δ2 = 3
        let input = vec![true; 8]; // k=2: 2 bits/burst -> 4 bursts
        let t = PipelinedTransmitter::with_window(p, 2, 3, &input).unwrap();
        let mut s = t.initial_state();
        // Send three full bursts (window 3).
        for _ in 0..9 {
            let a = t.enabled(&s)[0];
            s = t.step(&s, &a).unwrap();
        }
        // Acks for tags 2, 1 (out of order) — no retirement yet.
        s = t.step(&s, &RstpAction::Recv(Packet::Ack(2))).unwrap();
        s = t.step(&s, &RstpAction::Recv(Packet::Ack(1))).unwrap();
        assert_eq!(s.low_block, 0);
        assert_eq!(s.acks, VecDeque::from(vec![0, 1, 1]));
        // Complete tag 0's three acks: burst 0 retires, others shift.
        for _ in 0..3 {
            s = t.step(&s, &RstpAction::Recv(Packet::Ack(0))).unwrap();
        }
        assert_eq!(s.low_block, 1);
        assert_eq!(s.acks, VecDeque::from(vec![1, 1, 0]));
    }

    #[test]
    fn receiver_commits_in_order_despite_out_of_order_completion() {
        let p = params(); // δ2 = 3
        let k = 2;
        let w = 2;
        let codec = BlockCodec::new(k, 3).unwrap();
        let b0 = codec.encode_block(&[true, false]).unwrap();
        let b1 = codec.encode_block(&[false, true]).unwrap();
        let r = PipelinedReceiver::with_window(p, k, w, 4).unwrap();
        let mut s = r.initial_state();
        for &sym in &b1 {
            s = r
                .step(&s, &RstpAction::Recv(Packet::Data(wire_symbol(w, sym, 1))))
                .unwrap();
        }
        assert!(s.decoded.is_empty(), "block 1 must wait for block 0");
        for &sym in &b0 {
            s = r
                .step(&s, &RstpAction::Recv(Packet::Data(wire_symbol(w, sym, 0))))
                .unwrap();
        }
        assert_eq!(s.decoded, vec![true, false, false, true]);
        assert_eq!(s.decode_failures, 0);
    }

    #[test]
    fn stray_acks_after_completion_absorbed() {
        let p = params();
        let input = vec![true, false];
        let t = PipelinedTransmitter::new(p, 2, &input).unwrap();
        let r = PipelinedReceiver::new(p, 2, input.len()).unwrap();
        lockstep(&t, &r, &input);
        // Drive a fresh pair to done state, then inject a stray ack.
        let mut ts = t.initial_state();
        let mut rs = r.initial_state();
        loop {
            if let Some(a @ RstpAction::Send(p)) = t.enabled(&ts).first().copied() {
                ts = t.step(&ts, &a).unwrap();
                rs = r.step(&rs, &RstpAction::Recv(p)).unwrap();
            }
            match r.enabled(&rs).first().copied() {
                Some(RstpAction::Send(Packet::Ack(tag))) => {
                    rs = r.step(&rs, &RstpAction::Send(Packet::Ack(tag))).unwrap();
                    ts = t.step(&ts, &RstpAction::Recv(Packet::Ack(tag))).unwrap();
                }
                Some(RstpAction::Write(m)) => {
                    rs = r.step(&rs, &RstpAction::Write(m)).unwrap();
                }
                _ => {}
            }
            if t.enabled(&ts).is_empty() {
                break;
            }
        }
        let after = t.step(&ts, &RstpAction::Recv(Packet::Ack(1))).unwrap();
        assert_eq!(after, ts);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let p = params();
        assert!(PipelinedTransmitter::with_window(p, 1, 2, &[true]).is_err());
        assert!(PipelinedTransmitter::with_window(p, 4, 0, &[true]).is_err());
        assert!(PipelinedReceiver::with_window(p, 0, 2, 1).is_err());
        assert!(PipelinedReceiver::with_window(p, 4, 0, 1).is_err());
    }
}
