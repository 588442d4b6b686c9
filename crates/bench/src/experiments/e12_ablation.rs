//! E12 — ablations: remove each load-bearing design choice of `A^β(k)` and
//! watch it fail (or get cheaper where the paper says it may).
//!
//! **Ablation A — multiset vs positional coding.** A burst of `δ` packets
//! *could* carry `⌊δ·log2 k⌋` bits if arrival order were trustworthy
//! (positional base-`k` code), versus the multiset code's
//! `⌊log2 μ_k(δ)⌋`. The difference is the *price of reordering-resilience*
//! (≈ `log2 δ!` bits for `k ≫ δ`). We run a positional-decoding receiver:
//! under strictly FIFO delivery it works — and outperforms `A^β` — but
//! under the burst-reversing adversary it writes garbage, which is exactly
//! why §3 introduces multisets.
//!
//! **Ablation B — the wait phase.** Figure 3's `δ1` idle steps keep burst
//! `i` clear of burst `i+1`. Shrinking the wait below the safe length
//! makes bursts overlap at the receiver and mis-frame; the table shows
//! correctness as a function of wait length, with the §7 window model
//! (`d_lo > 0`) as the principled way to shrink it.

use super::{ExperimentId, ExperimentOutput};
use crate::table::Table;
use rstp_automata::{ActionClass, Automaton, StepError};
use rstp_core::protocols::{BetaReceiver, BetaTransmitter};
use rstp_core::{InternalKind, Message, Packet, RstpAction, TimingParams};
use rstp_sim::adversary::{DeliveryPolicy, StepPolicy};
use rstp_sim::runner::{SimSettings, Simulation};

// ---------- Ablation A: positional (order-dependent) coding ----------

/// Bits per positional burst: `⌊log2 k^δ⌋` (capped to stay within `u128`).
fn positional_bits(k: u64, delta: u64) -> u32 {
    let mut bits = 0f64;
    for _ in 0..delta {
        bits += (k as f64).log2();
    }
    bits.floor() as u32
}

/// Encodes `bits` (MSB first) as `delta` base-`k` digits, big-endian.
fn positional_encode(k: u64, delta: u64, bits: &[bool]) -> Vec<u64> {
    let mut value: u128 = 0;
    for &b in bits {
        value = value * 2 + u128::from(b);
    }
    let mut digits = vec![0u64; delta as usize];
    for slot in digits.iter_mut().rev() {
        *slot = (value % u128::from(k)) as u64;
        value /= u128::from(k);
    }
    digits
}

/// Decodes `delta` digits (in *arrival order*) back into bits.
fn positional_decode(k: u64, digits: &[u64], bits: u32) -> Vec<bool> {
    let mut value: u128 = 0;
    for &d in digits {
        value = value * u128::from(k) + u128::from(d);
    }
    (0..bits).rev().map(|i| (value >> i) & 1 == 1).collect()
}

/// A beta-shaped transmitter sending *given* bursts (positional payload).
#[derive(Clone, Debug)]
struct PositionalTransmitter {
    blocks: Vec<Vec<u64>>,
    burst_len: u64,
    wait_len: u64,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct PtState {
    block: usize,
    c: u64,
}

impl PositionalTransmitter {
    fn new(params: TimingParams, k: u64, input: &[Message]) -> Self {
        let delta = params.delta1();
        let bits = positional_bits(k, delta) as usize;
        let blocks = input
            .chunks(bits)
            .map(|chunk| {
                let mut padded = chunk.to_vec();
                padded.resize(bits, false);
                positional_encode(k, delta, &padded)
            })
            .collect();
        PositionalTransmitter {
            blocks,
            burst_len: delta,
            wait_len: delta,
        }
    }
}

impl Automaton for PositionalTransmitter {
    type Action = RstpAction;
    type State = PtState;

    fn initial_state(&self) -> PtState {
        PtState { block: 0, c: 0 }
    }

    fn classify(&self, action: &RstpAction) -> Option<ActionClass> {
        match action {
            RstpAction::Send(Packet::Data(_)) => Some(ActionClass::Output),
            RstpAction::TransmitterInternal(InternalKind::Wait) => Some(ActionClass::Internal),
            _ => None,
        }
    }

    fn enabled_into(&self, s: &PtState, out: &mut Vec<RstpAction>) {
        if s.block >= self.blocks.len() {
            return;
        }
        if s.c < self.burst_len {
            out.push(RstpAction::Send(Packet::Data(
                self.blocks[s.block][s.c as usize],
            )));
        } else {
            out.push(RstpAction::TransmitterInternal(InternalKind::Wait));
        }
    }

    fn apply(&self, s: &mut PtState, action: &RstpAction) -> Result<(), StepError> {
        let sending = s.c < self.burst_len;
        match action {
            RstpAction::Send(_) if s.block < self.blocks.len() && sending => {}
            RstpAction::TransmitterInternal(InternalKind::Wait)
                if s.block < self.blocks.len() && !sending => {}
            other => {
                return Err(StepError::PreconditionFalse {
                    action: format!("{other:?}"),
                    reason: "positional transmitter precondition".into(),
                })
            }
        }
        s.c = (s.c + 1) % (self.burst_len + self.wait_len);
        if s.c == 0 {
            s.block += 1;
        }
        Ok(())
    }
}

/// A receiver that (incorrectly, in general) trusts arrival order.
#[derive(Clone, Debug)]
struct PositionalReceiver {
    k: u64,
    delta: u64,
    bits: u32,
    expected: usize,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct PrState {
    burst: Vec<u64>, // arrival order preserved — the ablated assumption
    decoded: Vec<Message>,
    written: usize,
}

impl PositionalReceiver {
    fn new(params: TimingParams, k: u64, expected: usize) -> Self {
        let delta = params.delta1();
        PositionalReceiver {
            k,
            delta,
            bits: positional_bits(k, delta),
            expected,
        }
    }
}

impl Automaton for PositionalReceiver {
    type Action = RstpAction;
    type State = PrState;

    fn initial_state(&self) -> PrState {
        PrState {
            burst: Vec::new(),
            decoded: Vec::new(),
            written: 0,
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

    fn enabled_into(&self, s: &PrState, out: &mut Vec<RstpAction>) {
        if s.written < s.decoded.len() {
            out.push(RstpAction::Write(s.decoded[s.written]));
        } else {
            out.push(RstpAction::ReceiverInternal(InternalKind::Idle));
        }
    }

    fn apply(&self, s: &mut PrState, action: &RstpAction) -> Result<(), StepError> {
        match action {
            RstpAction::Recv(Packet::Data(sym)) => {
                s.burst.push(*sym % self.k);
                if s.burst.len() as u64 == self.delta {
                    let bits = positional_decode(self.k, &s.burst, self.bits);
                    let remaining = self.expected.saturating_sub(s.decoded.len());
                    let take = bits.len().min(remaining);
                    s.decoded.extend(bits.into_iter().take(take));
                    s.burst.clear();
                }
            }
            RstpAction::Write(m) => {
                if s.decoded.get(s.written) != Some(m) {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: "write precondition".into(),
                    });
                }
                s.written += 1;
            }
            RstpAction::ReceiverInternal(InternalKind::Idle) => {
                if s.written < s.decoded.len() {
                    return Err(StepError::PreconditionFalse {
                        action: format!("{action:?}"),
                        reason: "idle precondition".into(),
                    });
                }
            }
            other => return Err(StepError::unknown(other)),
        }
        Ok(())
    }
}

// ---------- Rows ----------

/// One ablation row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Which ablation.
    pub ablation: &'static str,
    /// Configuration label.
    pub config: String,
    /// Bits carried per burst.
    pub bits_per_burst: u32,
    /// Delivery policy label.
    pub delivery: &'static str,
    /// Whether `Y = X` exactly.
    pub correct: bool,
}

/// Fixed parameters: `δ1 = 6`.
#[must_use]
pub fn params() -> TimingParams {
    TimingParams::from_ticks(1, 2, 6).expect("valid parameters")
}

fn deterministic_input(n: usize) -> Vec<Message> {
    (0..n).map(|i| (i * 7) % 3 == 0).collect()
}

fn run_positional(delivery: DeliveryPolicy, label: &'static str, k: u64) -> Row {
    let p = params();
    let input = deterministic_input(60);
    let sim = Simulation::new(
        PositionalTransmitter::new(p, k, &input),
        PositionalReceiver::new(p, k, input.len()),
        SimSettings::from_params(p),
    );
    let mut steps = StepPolicy::AllFast.build(p); // c1-paced: maximal overlap
    let mut del = delivery.build(rstp_automata::TimeDelta::ZERO, p.d());
    let run = sim.run(&input, steps.as_mut(), del.as_mut()).expect("run");
    Row {
        ablation: "A: positional code",
        config: format!("seq-code(k={k})"),
        bits_per_burst: positional_bits(k, p.delta1()),
        delivery: label,
        correct: run.trace.written() == input,
    }
}

fn run_beta_shape(wait_len: u64, delivery: DeliveryPolicy, label: &'static str) -> Row {
    let p = params();
    let k = 4u64;
    let input = deterministic_input(60);
    let t = BetaTransmitter::with_shape(k, p.delta1(), wait_len, &input).expect("shape");
    let r = BetaReceiver::with_burst(k, p.delta1(), input.len()).expect("burst");
    let bits = t.bits_per_block();
    let sim = Simulation::new(t, r, SimSettings::from_params(p));
    let mut steps = StepPolicy::AllFast.build(p); // fastest steps = least slack
    let mut del = delivery.build(rstp_automata::TimeDelta::ZERO, p.d());
    let run = sim.run(&input, steps.as_mut(), del.as_mut()).expect("run");
    Row {
        ablation: "B: wait phase",
        config: format!("beta wait={wait_len}"),
        bits_per_burst: bits,
        delivery: label,
        correct: run.trace.written() == input,
    }
}

/// Runs both ablations.
#[must_use]
pub fn rows() -> Vec<Row> {
    let p = params();
    let mut out = Vec::new();
    // Reference: the real multiset code under the reversing adversary.
    {
        let k = 4u64;
        let input = deterministic_input(60);
        let t = BetaTransmitter::new(p, k, &input).expect("beta");
        let bits = t.bits_per_block();
        let r = BetaReceiver::new(p, k, input.len()).expect("beta receiver");
        let sim = Simulation::new(t, r, SimSettings::from_params(p));
        let mut steps = StepPolicy::AllFast.build(p);
        let mut del = DeliveryPolicy::ReverseBurst { burst: p.delta1() }
            .build(rstp_automata::TimeDelta::ZERO, p.d());
        let run = sim.run(&input, steps.as_mut(), del.as_mut()).expect("run");
        out.push(Row {
            ablation: "reference",
            config: "beta(k=4) multiset".into(),
            bits_per_burst: bits,
            delivery: "reverse-burst",
            correct: run.trace.written() == input,
        });
    }
    // Ablation A: positional code under FIFO vs reversing delivery.
    out.push(run_positional(
        DeliveryPolicy::MaxDelay,
        "fifo(max-delay)",
        4,
    ));
    out.push(run_positional(
        DeliveryPolicy::ReverseBurst {
            burst: params().delta1(),
        },
        "reverse-burst",
        4,
    ));
    // Ablation B: wait phase δ1, δ1/2, 0 under randomized delays (the
    // overlap only materializes when burst i stragglers can cross burst
    // i+1 arrivals; fixed equal delays preserve order vacuously).
    let rand = DeliveryPolicy::Random { seed: 7 };
    out.push(run_beta_shape(p.delta1(), rand, "random"));
    out.push(run_beta_shape(p.delta1() / 2, rand, "random"));
    out.push(run_beta_shape(0, rand, "random"));
    out
}

/// Renders the experiment.
#[must_use]
pub fn output() -> ExperimentOutput {
    let rows = rows();
    let mut table = Table::new(["ablation", "config", "bits/burst", "delivery", "Y = X"]);
    for r in &rows {
        table.push([
            r.ablation.to_string(),
            r.config.clone(),
            r.bits_per_burst.to_string(),
            r.delivery.to_string(),
            if r.correct { "yes" } else { "NO" }.to_string(),
        ]);
    }
    ExperimentOutput {
        id: ExperimentId::E12,
        title: format!("ablations of A^beta(4)'s design choices at {}", params()),
        table,
        notes: vec![
            "A: a positional (arrival-order) code carries more bits per burst but".into(),
            "   corrupts under the reversing adversary — multisets are the price of".into(),
            "   reordering-resilience (§3)".into(),
            "B: shrinking Figure 3's wait phase below δ1 lets bursts overlap and".into(),
            "   mis-frame; the §7 window model (E8) is the sound way to shrink it".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positional_codec_roundtrip() {
        let k = 4u64;
        let delta = 6u64;
        let bits = positional_bits(k, delta);
        assert_eq!(bits, 12); // 6·log2(4)
        for v in [0u64, 1, 1000, 4095] {
            let b: Vec<bool> = (0..bits).rev().map(|i| (v >> i) & 1 == 1).collect();
            let digits = positional_encode(k, delta, &b);
            assert_eq!(digits.len(), 6);
            assert!(digits.iter().all(|&d| d < k));
            assert_eq!(positional_decode(k, &digits, bits), b);
        }
    }

    #[test]
    fn reference_and_fifo_positional_are_correct() {
        let rs = rows();
        assert!(rs[0].correct, "multiset code must survive reversal");
        let fifo = rs
            .iter()
            .find(|r| r.ablation.starts_with("A") && r.delivery.starts_with("fifo"))
            .unwrap();
        assert!(fifo.correct, "positional code must work under FIFO");
    }

    #[test]
    fn positional_code_carries_more_bits_but_breaks_under_reversal() {
        let rs = rows();
        let reference = &rs[0];
        let reversed = rs
            .iter()
            .find(|r| r.ablation.starts_with("A") && r.delivery == "reverse-burst")
            .unwrap();
        assert!(
            reversed.bits_per_burst > reference.bits_per_burst,
            "positional {} !> multiset {}",
            reversed.bits_per_burst,
            reference.bits_per_burst
        );
        assert!(!reversed.correct, "reversal must corrupt positional decode");
    }

    #[test]
    fn full_wait_is_correct_zero_wait_is_not() {
        let rs = rows();
        let full = rs
            .iter()
            .find(|r| r.config == format!("beta wait={}", params().delta1()))
            .unwrap();
        assert!(full.correct);
        let none = rs.iter().find(|r| r.config == "beta wait=0").unwrap();
        assert!(
            !none.correct,
            "zero wait must mis-frame under random delays"
        );
    }
}
