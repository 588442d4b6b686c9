//! The counting argument of Lemma 5.1, run exhaustively (experiment E4).
//!
//! For an r-passive deterministic transmitter, the input sequence alone
//! determines its action sequence (`f_t(X)`, paper §5.1). In a "fast"
//! execution — every step `c1` apart — the packets sent in any window of
//! `δ1` consecutive steps can be delivered in any order, so the receiver
//! learns at most the **multiset** of packets per window: the signature
//! `P^tr(X) = (P^tr(X)[1], P^tr(X)[2], …)`.
//!
//! Lemma 5.1: if two inputs have the same signature, the receiver cannot
//! tell them apart — so a correct protocol's signature map must be
//! **injective**. This module enumerates all `2^n` inputs of length `n`,
//! computes each signature by driving the real transmitter automaton, and
//! verifies injectivity; it also evaluates the capacity inequality
//! `2^n ≤ ζ_k(δ1)^ℓ` that yields Theorem 5.3 (each of the `ℓ` used windows
//! carries at most `log2 ζ_k(δ1)` bits).

use core::fmt;
use rstp_automata::Automaton;
use rstp_combinatorics::Multiset;
use rstp_core::bounds::log2_zeta;
use rstp_core::protocols::{AlphaTransmitter, BetaTransmitter, ProtocolError};
use rstp_core::{Message, Packet, RstpAction, TimingParams};
use std::collections::HashMap;

/// The outcome of an exhaustive distinguishability check.
#[derive(Clone, Debug)]
pub struct DistinguishResult {
    /// Input length `n`.
    pub n: usize,
    /// `2^n` inputs enumerated.
    pub total_inputs: u64,
    /// Distinct signatures observed.
    pub distinct_signatures: u64,
    /// The most `δ1`-windows any input used (`ℓ(n)`, paper §5.1).
    pub max_windows: usize,
    /// A colliding input pair, if any (Lemma 5.1 violation — the protocol
    /// would be incorrect).
    pub collision: Option<(Vec<Message>, Vec<Message>)>,
    /// Information capacity of the used windows:
    /// `ℓ(n) · log2 ζ_k(δ1)` bits. Theorem 5.3's counting step is
    /// `n ≤ capacity_bits`.
    pub capacity_bits: f64,
}

impl DistinguishResult {
    /// Whether the signature map is injective (Lemma 5.1 satisfied).
    #[must_use]
    pub fn injective(&self) -> bool {
        self.collision.is_none()
    }

    /// Whether the counting inequality `2^n ≤ ζ_k(δ1)^{ℓ(n)}` holds —
    /// it must, for any correct protocol, by Lemma 5.1 + counting.
    #[must_use]
    pub fn capacity_respected(&self) -> bool {
        (self.n as f64) <= self.capacity_bits + 1e-9
    }
}

impl fmt::Display for DistinguishResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={}: {}/{} distinct signatures, ℓ={}, capacity {:.2} bits ({})",
            self.n,
            self.distinct_signatures,
            self.total_inputs,
            self.max_windows,
            self.capacity_bits,
            if self.injective() {
                "injective"
            } else {
                "COLLISION"
            }
        )
    }
}

/// Drives an r-passive transmitter (no inputs ever arrive) to quiescence
/// and returns its interval-multiset signature: the multiset of data
/// packets sent in each window of `delta1` consecutive local steps.
///
/// Trailing empty windows are trimmed (only windows up to the last send
/// carry information, paper §5.1).
///
/// # Panics
///
/// Panics if the transmitter is nondeterministic or exceeds 10^7 steps.
#[must_use]
#[expect(clippy::expect_used, reason = "each action comes from enabled()")]
pub fn signature_of<T>(transmitter: &T, delta1: u64, k: u64) -> Vec<Multiset>
where
    T: Automaton<Action = RstpAction>,
{
    let mut state = transmitter.initial_state();
    let mut windows: Vec<Multiset> = Vec::new();
    let mut current = Multiset::empty(k);
    let mut steps_in_window = 0u64;
    let mut guard = 0u64;
    loop {
        let enabled = transmitter.enabled(&state);
        let Some(action) = enabled.first() else { break };
        assert_eq!(
            enabled.len(),
            1,
            "r-passive transmitter must be deterministic"
        );
        state = transmitter
            .step(&state, action)
            .expect("enabled action must apply");
        if let RstpAction::Send(Packet::Data(s)) = action {
            current.insert(*s);
        }
        steps_in_window += 1;
        if steps_in_window == delta1 {
            windows.push(std::mem::replace(&mut current, Multiset::empty(k)));
            steps_in_window = 0;
        }
        guard += 1;
        assert!(guard < 10_000_000, "transmitter did not quiesce");
    }
    if !current.is_empty() || steps_in_window > 0 {
        windows.push(current);
    }
    while windows.last().is_some_and(Multiset::is_empty) {
        windows.pop();
    }
    windows
}

/// Enumerates every input of length `n` (so `n ≲ 20`), computes signatures
/// with `make_transmitter`, and checks injectivity plus the capacity
/// inequality.
///
/// # Panics
///
/// Panics if `n > 24` (2^n enumeration would be unreasonable).
pub fn exhaustive_check<T, F>(
    make_transmitter: F,
    delta1: u64,
    k: u64,
    n: usize,
) -> DistinguishResult
where
    T: Automaton<Action = RstpAction>,
    F: Fn(&[Message]) -> T,
{
    assert!(
        n <= 24,
        "exhaustive_check enumerates 2^n inputs; n too large"
    );
    let total = 1u64 << n;
    let mut seen: HashMap<Vec<Multiset>, Vec<Message>> = HashMap::with_capacity(total as usize);
    let mut collision = None;
    let mut max_windows = 0usize;
    for bits in 0..total {
        let input: Vec<Message> = (0..n).map(|i| (bits >> (n - 1 - i)) & 1 == 1).collect();
        let t = make_transmitter(&input);
        let sig = signature_of(&t, delta1, k);
        max_windows = max_windows.max(sig.len());
        if let Some(prev) = seen.insert(sig, input.clone()) {
            if collision.is_none() {
                collision = Some((prev, input));
            }
        }
    }
    let capacity_bits = max_windows as f64 * log2_zeta(k, delta1);
    DistinguishResult {
        n,
        total_inputs: total,
        distinct_signatures: seen.len() as u64,
        max_windows,
        collision,
        capacity_bits,
    }
}

/// Exhaustive Lemma 5.1 check for `A^β(k)`.
///
/// # Errors
///
/// [`ProtocolError`] if the `(k, δ1)` pair is unusable.
#[expect(
    clippy::expect_used,
    reason = "the closure's parameters are validated above"
)]
pub fn check_beta(
    params: TimingParams,
    k: u64,
    n: usize,
) -> Result<DistinguishResult, ProtocolError> {
    // Construct once to surface parameter errors eagerly.
    BetaTransmitter::new(params, k, &vec![false; n.max(1)])?;
    Ok(exhaustive_check(
        |input| BetaTransmitter::new(params, k, input).expect("validated above"),
        params.delta1(),
        k,
        n,
    ))
}

/// Exhaustive Lemma 5.1 check for `A^α` (alphabet `{0, 1}`).
#[must_use]
pub fn check_alpha(params: TimingParams, n: usize) -> DistinguishResult {
    exhaustive_check(
        |input| AlphaTransmitter::new(params, input.to_vec()),
        params.delta1(),
        2,
        n,
    )
}

/// The *active-case* signature of Lemma 5.4: run `A^γ(k)` in the canonical
/// timed execution `η(X)` of §5.2 — `c2`-paced processes, Figure 2
/// interval-batched deliveries — and collect the multiset of data packets
/// the transmitter sends during each width-`d` interval `t_i`.
///
/// (The paper's `η(X)` uses width `d - ε`; with integer ticks we take
/// `ε → 0` as width `d`, matching [`crate::adversary::DeliveryPolicy::IntervalBatch`].)
///
/// # Panics
///
/// Panics if the simulation fails (a model violation, impossible for the
/// built-in protocols).
#[must_use]
pub fn active_signature(params: TimingParams, k: u64, input: &[Message]) -> Vec<Multiset> {
    use crate::adversary::{DeliveryPolicy, StepPolicy};
    use crate::harness::{run_configured, ProtocolKind, RunConfig};

    #[expect(clippy::expect_used, reason = "documented # Panics contract")]
    let out = run_configured(
        &RunConfig {
            kind: ProtocolKind::Gamma { k },
            params,
            step: StepPolicy::AllSlow,
            delivery: DeliveryPolicy::IntervalBatch,
            ..RunConfig::default()
        },
        input,
    )
    .expect("canonical gamma execution");
    assert!(out.report.all_good(), "{}", out.report);

    let width = params.d().ticks().max(1);
    let mut windows: Vec<Multiset> = Vec::new();
    for e in out.trace.events() {
        if let rstp_core::RstpAction::Send(Packet::Data(s)) = e.action {
            let idx = (e.time.ticks() / width) as usize;
            while windows.len() <= idx {
                windows.push(Multiset::empty(k));
            }
            windows[idx].insert(s);
        }
    }
    while windows.last().is_some_and(Multiset::is_empty) {
        windows.pop();
    }
    windows
}

/// Exhaustive Lemma 5.4 check for `A^γ(k)`: over all `2^n` inputs, the
/// per-interval multiset signatures of the canonical executions must be
/// injective, and `2^n ≤ ζ_k(m)^ℓ` must hold with `m` the largest interval
/// load observed (the paper's `δ̂2`).
///
/// # Panics
///
/// Panics if `n > 16` (2^n full simulations) or a simulation fails.
#[must_use]
pub fn check_gamma(params: TimingParams, k: u64, n: usize) -> DistinguishResult {
    assert!(
        n <= 16,
        "check_gamma runs 2^n full simulations; n too large"
    );
    let total = 1u64 << n;
    let mut seen: HashMap<Vec<Multiset>, Vec<Message>> = HashMap::with_capacity(total as usize);
    let mut collision = None;
    let mut max_windows = 0usize;
    let mut max_load = 1u64;
    for bits in 0..total {
        let input: Vec<Message> = (0..n).map(|i| (bits >> (n - 1 - i)) & 1 == 1).collect();
        let sig = active_signature(params, k, &input);
        max_windows = max_windows.max(sig.len());
        max_load = max_load.max(sig.iter().map(Multiset::len).max().unwrap_or(0));
        if let Some(prev) = seen.insert(sig, input.clone()) {
            if collision.is_none() {
                collision = Some((prev, input));
            }
        }
    }
    let capacity_bits = max_windows as f64 * log2_zeta(k, max_load);
    DistinguishResult {
        n,
        total_inputs: total,
        distinct_signatures: seen.len() as u64,
        max_windows,
        collision,
        capacity_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> TimingParams {
        TimingParams::from_ticks(1, 2, 4).unwrap() // δ1 = 4
    }

    #[test]
    fn alpha_signatures_are_injective() {
        for n in [0usize, 1, 3, 6, 9] {
            let r = check_alpha(params(), n);
            assert!(r.injective(), "{r}");
            assert_eq!(r.total_inputs, 1 << n);
            assert_eq!(r.distinct_signatures, r.total_inputs);
            assert!(r.capacity_respected(), "{r}");
        }
    }

    #[test]
    fn beta_signatures_are_injective_across_k() {
        for k in [2u64, 3, 4] {
            for n in [0usize, 1, 4, 8, 10] {
                let r = check_beta(params(), k, n).unwrap();
                assert!(r.injective(), "k={k}: {r}");
                assert!(r.capacity_respected(), "k={k}: {r}");
            }
        }
    }

    #[test]
    fn alpha_uses_one_window_per_message() {
        // α sends one packet per δ1-step round, so ℓ(n) = n.
        let r = check_alpha(params(), 5);
        assert_eq!(r.max_windows, 5);
    }

    #[test]
    fn beta_uses_fewer_windows_than_alpha() {
        // β packs b = ⌊log2 μ_k(δ1)⌋ ≥ 2 bits per 2 windows (burst+wait).
        let n = 8;
        let alpha = check_alpha(params(), n);
        let beta = check_beta(params(), 4, n).unwrap();
        assert!(
            beta.max_windows < alpha.max_windows,
            "beta {} !< alpha {}",
            beta.max_windows,
            alpha.max_windows
        );
    }

    #[test]
    fn a_lossy_encoder_collides() {
        // A deliberately broken transmitter that ignores the input's last
        // bit must produce a collision — the checker must catch it.
        let p = params();
        let r = exhaustive_check(
            |input| {
                let mut truncated = input.to_vec();
                truncated.pop();
                AlphaTransmitter::new(p, truncated)
            },
            p.delta1(),
            2,
            4,
        );
        assert!(!r.injective());
        assert_eq!(r.distinct_signatures, 8); // half of 16
        assert!(r.to_string().contains("COLLISION"));
        let (a, b) = r.collision.unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn signature_trims_trailing_empty_windows() {
        let p = params();
        let t = AlphaTransmitter::new(p, vec![true]);
        let sig = signature_of(&t, p.delta1(), 2);
        assert_eq!(sig.len(), 1);
        assert_eq!(sig[0].len(), 1);
        assert_eq!(sig[0].mult(1), 1);
    }

    #[test]
    fn empty_input_has_empty_signature() {
        let p = params();
        let t = AlphaTransmitter::new(p, vec![]);
        assert!(signature_of(&t, p.delta1(), 2).is_empty());
    }

    #[test]
    fn gamma_signatures_are_injective_lemma_5_4() {
        // δ2 = 2 keeps interval loads small; 2^8 = 256 full simulations.
        let p = TimingParams::from_ticks(1, 2, 4).unwrap();
        for k in [2u64, 3] {
            for n in [1usize, 4, 8] {
                let r = check_gamma(p, k, n);
                assert!(r.injective(), "k={k} n={n}: {r}");
                assert!(r.capacity_respected(), "k={k} n={n}: {r}");
                assert_eq!(r.distinct_signatures, r.total_inputs);
            }
        }
    }

    #[test]
    fn active_signature_is_deterministic_and_bounded() {
        let p = TimingParams::from_ticks(1, 2, 4).unwrap(); // δ2 = 2
        let input = vec![true, false, true, true];
        let a = active_signature(p, 3, &input);
        let b = active_signature(p, 3, &input);
        assert_eq!(a, b);
        // No interval carries more than ceil(d/c2) = 2 packets under
        // c2-paced sending.
        assert!(a.iter().all(|m| m.len() <= 2), "{a:?}");
        assert!(!a.is_empty());
    }

    #[test]
    fn capacity_bound_is_the_theorem_5_3_counting_step() {
        // ℓ(n) ≥ n / log2 ζ_k(δ1), rearranged: n ≤ ℓ·log2 ζ.
        let r = check_beta(params(), 2, 8).unwrap();
        let zeta_bits = log2_zeta(2, params().delta1());
        assert!(r.max_windows as f64 >= 8.0 / zeta_bits - 1e-9);
    }
}
