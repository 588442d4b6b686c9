//! Step and delivery adversaries.
//!
//! A timed execution of an RSTP system is determined by (a) when each
//! process takes its local steps — any spacing in `[c1, c2]` — and (b) when
//! each in-flight packet is delivered — any delay in `[d_lo, d_hi]`
//! (classically `[0, d]`). The paper's lower-bound proofs are specific
//! choices of (a) and (b); this module makes those choices pluggable
//! strategy objects so a protocol's effort can be measured under the
//! schedule that hurts it most.
//!
//! Step adversaries (paper §5.1 uses "fast" executions, §5.2 uses `c2`-paced
//! ones):
//!
//! * [`StepPolicy::AllFast`] — every step exactly `c1` apart (Lemma 5.1's
//!   construction),
//! * [`StepPolicy::AllSlow`] — every step exactly `c2` apart (worst case
//!   for counted idling; Lemma 5.2's `(ℓ(n)-1)·δ1·c2` bound),
//! * [`StepPolicy::Alternate`] — alternates `c1`/`c2` per process,
//! * [`StepPolicy::SkewedPair`] — fast transmitter, slow receiver (or vice
//!   versa) to stress ack turnaround,
//! * [`StepPolicy::Random`] — seeded uniform in `[c1, c2]`.
//!
//! Delivery adversaries:
//!
//! * [`DeliveryPolicy::Eager`] — delay 0 (best case; FIFO order),
//! * [`DeliveryPolicy::MaxDelay`] — delay exactly `d` (worst latency, still
//!   FIFO),
//! * [`DeliveryPolicy::ReverseBurst`] — delivers each `burst`-sized group
//!   in *reverse* send order with valid delays — the within-window
//!   reordering that forces multiset (rather than sequence) encodings
//!   (Lemma 5.1),
//! * [`DeliveryPolicy::IntervalBatch`] — the Figure 2 construction: packets
//!   sent during interval `t_i = [i·w, (i+1)·w)` are all delivered in a
//!   tight cluster at the start of `t_{i+1}`,
//! * [`DeliveryPolicy::Random`] — seeded uniform delay in `[d_lo, d_hi]`,
//! * [`DeliveryPolicy::Faulty`] — seeded loss and duplication on top of a
//!   base delay: **violates** the paper's channel (used for experiment E9
//!   to show the perfect-channel assumption is necessary).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rstp_automata::{Time, TimeDelta};
use rstp_core::{Owner, Packet, TimingParams};

/// Chooses the spacing of a process's local steps within `[c1, c2]`.
pub trait StepAdversary {
    /// The delay from process `owner`'s current step to its next one.
    /// Must lie in `[c1, c2]`; the runner asserts this.
    fn next_gap(&mut self, owner: Owner, step_index: u64) -> TimeDelta;
}

/// What the channel does with one sent packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disposition {
    /// Deliver once after `delay`.
    Deliver(TimeDelta),
    /// Never deliver — **outside** the paper's channel model.
    Drop,
    /// Deliver twice (duplication) — **outside** the paper's channel model.
    Duplicate(TimeDelta, TimeDelta),
}

/// Chooses delivery timing (and, for fault injection, loss/duplication).
pub trait DeliveryAdversary {
    /// Decides the fate of `packet`, sent at `send_time` as the
    /// `send_index`-th data-or-ack send. Returned delays must lie in
    /// `[d_lo, d_hi]`; the runner asserts this.
    fn dispose(&mut self, packet: Packet, send_time: Time, send_index: u64) -> Disposition;
}

/// Declarative step-adversary configuration (constructs a boxed
/// [`StepAdversary`] via [`StepPolicy::build`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepPolicy {
    /// Every step `c1` apart — the "fast executions" of Lemma 5.1.
    AllFast,
    /// Every step `c2` apart — maximizes counted-idling cost (Lemma 5.2).
    AllSlow,
    /// Alternate `c1`, `c2`, `c1`, … per process.
    Alternate,
    /// Transmitter at `c1`, receiver at `c2` (ack-turnaround stress) or the
    /// reverse.
    SkewedPair {
        /// If true the transmitter is the fast process.
        fast_transmitter: bool,
    },
    /// Uniform seeded choice in `[c1, c2]` per step.
    Random {
        /// RNG seed (runs are reproducible per seed).
        seed: u64,
    },
}

impl StepPolicy {
    /// All deterministic policies plus one seeded-random instance — the
    /// default worst-case sweep used by effort measurement.
    #[must_use]
    pub fn sweep(seed: u64) -> Vec<StepPolicy> {
        vec![
            StepPolicy::AllFast,
            StepPolicy::AllSlow,
            StepPolicy::Alternate,
            StepPolicy::SkewedPair {
                fast_transmitter: true,
            },
            StepPolicy::SkewedPair {
                fast_transmitter: false,
            },
            StepPolicy::Random { seed },
        ]
    }

    /// Builds the adversary for the given parameters.
    #[must_use]
    pub fn build(self, params: TimingParams) -> Box<dyn StepAdversary> {
        let c1 = params.c1();
        let c2 = params.c2();
        match self {
            StepPolicy::AllFast => Box::new(FixedGap { gap: c1 }),
            StepPolicy::AllSlow => Box::new(FixedGap { gap: c2 }),
            StepPolicy::Alternate => Box::new(Alternating { c1, c2 }),
            StepPolicy::SkewedPair { fast_transmitter } => Box::new(Skewed {
                c1,
                c2,
                fast_transmitter,
            }),
            StepPolicy::Random { seed } => Box::new(RandomGap {
                c1,
                c2,
                rng: StdRng::seed_from_u64(seed ^ 0x5354_4550), // "STEP"
            }),
        }
    }
}

struct FixedGap {
    gap: TimeDelta,
}

impl StepAdversary for FixedGap {
    fn next_gap(&mut self, _owner: Owner, _step_index: u64) -> TimeDelta {
        self.gap
    }
}

struct Alternating {
    c1: TimeDelta,
    c2: TimeDelta,
}

impl StepAdversary for Alternating {
    fn next_gap(&mut self, _owner: Owner, step_index: u64) -> TimeDelta {
        if step_index % 2 == 0 {
            self.c1
        } else {
            self.c2
        }
    }
}

struct Skewed {
    c1: TimeDelta,
    c2: TimeDelta,
    fast_transmitter: bool,
}

impl StepAdversary for Skewed {
    fn next_gap(&mut self, owner: Owner, _step_index: u64) -> TimeDelta {
        let fast = matches!(owner, Owner::Transmitter) == self.fast_transmitter;
        if fast {
            self.c1
        } else {
            self.c2
        }
    }
}

struct RandomGap {
    c1: TimeDelta,
    c2: TimeDelta,
    rng: StdRng,
}

impl StepAdversary for RandomGap {
    fn next_gap(&mut self, _owner: Owner, _step_index: u64) -> TimeDelta {
        TimeDelta::from_ticks(self.rng.gen_range(self.c1.ticks()..=self.c2.ticks()))
    }
}

/// Declarative delivery-adversary configuration (constructs a boxed
/// [`DeliveryAdversary`] via [`DeliveryPolicy::build`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeliveryPolicy {
    /// Immediate delivery (`delay = d_lo`), FIFO.
    Eager,
    /// Maximum delay (`delay = d_hi`), FIFO.
    MaxDelay,
    /// Reverse the order of every `burst`-sized group of data packets
    /// (acks are delivered FIFO at `d_lo`): arrival times within a group
    /// decrease by one tick per position, staying within `[d_lo, d_hi]`.
    ReverseBurst {
        /// Group size; use the protocol's burst size (`δ1` or `δ2`).
        burst: u64,
    },
    /// Figure 2: every packet sent during `[i·w, (i+1)·w)` is delivered in
    /// a tight reverse-order cluster at the start of `[(i+1)·w, …)`, where
    /// `w = d_hi` (the paper's `d - ε` with `ε → 0`).
    IntervalBatch,
    /// Seeded uniform delay in `[d_lo, d_hi]` — random reordering.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Loss/duplication injection with *unordered* delivery — breaks the
    /// `C(P)` contract on purpose. Note that duplication + reordering is
    /// the regime in which STP is unsolvable outright (\[WZ89\], cited in
    /// the paper's introduction): even the alternating-bit protocol loses
    /// messages here, because a stale duplicated ack can alias a later
    /// message with the same tag parity.
    Faulty {
        /// Probability a packet is dropped.
        loss: f64,
        /// Probability a (non-dropped) packet is duplicated.
        duplication: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Loss/duplication injection with **FIFO-preserving** delivery (per
    /// direction): the classic \[BSW69\] channel on which the
    /// alternating-bit protocol is actually correct.
    FaultyFifo {
        /// Probability a packet is dropped.
        loss: f64,
        /// Probability a (non-dropped) packet is duplicated.
        duplication: f64,
        /// RNG seed.
        seed: u64,
    },
}

impl DeliveryPolicy {
    /// The faithful (non-faulty) policies — the worst-case sweep used by
    /// effort measurement.
    #[must_use]
    pub fn sweep(burst: u64, seed: u64) -> Vec<DeliveryPolicy> {
        vec![
            DeliveryPolicy::Eager,
            DeliveryPolicy::MaxDelay,
            DeliveryPolicy::ReverseBurst { burst },
            DeliveryPolicy::IntervalBatch,
            DeliveryPolicy::Random { seed },
        ]
    }

    /// Builds the adversary for a delivery window `[d_lo, d_hi]`
    /// (classically `[0, d]`).
    #[must_use]
    pub fn build(self, d_lo: TimeDelta, d_hi: TimeDelta) -> Box<dyn DeliveryAdversary> {
        match self {
            DeliveryPolicy::Eager => Box::new(FixedDelay { delay: d_lo }),
            DeliveryPolicy::MaxDelay => Box::new(FixedDelay { delay: d_hi }),
            DeliveryPolicy::ReverseBurst { burst } => Box::new(ReverseBurst {
                burst: burst.max(1),
                d_lo,
                d_hi,
                data_count: 0,
                burst_start: Time::ZERO,
            }),
            DeliveryPolicy::IntervalBatch => Box::new(IntervalBatch {
                width: d_hi.max(TimeDelta::from_ticks(1)),
                d_lo,
                d_hi,
            }),
            DeliveryPolicy::Random { seed } => Box::new(RandomDelay {
                d_lo,
                d_hi,
                rng: StdRng::seed_from_u64(seed ^ 0x4445_4C56), // "DELV"
            }),
            DeliveryPolicy::Faulty {
                loss,
                duplication,
                seed,
            } => Box::new(Faulty {
                loss,
                duplication,
                d_hi,
                rng: StdRng::seed_from_u64(seed ^ 0x464C_5459), // "FLTY"
            }),
            DeliveryPolicy::FaultyFifo {
                loss,
                duplication,
                seed,
            } => Box::new(FaultyFifo {
                loss,
                duplication,
                d_hi,
                last_data_arrival: Time::ZERO,
                last_ack_arrival: Time::ZERO,
                rng: StdRng::seed_from_u64(seed ^ 0x4649_464F), // "FIFO"
            }),
        }
    }
}

struct FixedDelay {
    delay: TimeDelta,
}

impl DeliveryAdversary for FixedDelay {
    fn dispose(&mut self, _packet: Packet, _send_time: Time, _send_index: u64) -> Disposition {
        Disposition::Deliver(self.delay)
    }
}

struct ReverseBurst {
    burst: u64,
    d_lo: TimeDelta,
    d_hi: TimeDelta,
    data_count: u64,
    burst_start: Time,
}

impl DeliveryAdversary for ReverseBurst {
    /// Targets arrival `t0 + d_hi - p` for the burst's `p`-th packet,
    /// where `t0` is the burst's *first* send time — so arrival times
    /// strictly decrease with send position wherever that target is
    /// reachable (`send + d_lo ≤ target`), and clamp to the earliest legal
    /// arrival otherwise. The result is a maximally scrambled burst using
    /// only legal delays; acks travel FIFO at `d_lo`.
    fn dispose(&mut self, packet: Packet, send_time: Time, _send_index: u64) -> Disposition {
        match packet {
            Packet::Data(_) => {
                let pos = self.data_count % self.burst;
                self.data_count += 1;
                if pos == 0 {
                    self.burst_start = send_time;
                }
                let target = (self.burst_start + self.d_hi)
                    .saturating_sub_ticks(pos)
                    .max(send_time + self.d_lo)
                    .min(send_time + self.d_hi);
                Disposition::Deliver(target - send_time)
            }
            Packet::Ack(_) => Disposition::Deliver(self.d_lo),
        }
    }
}

/// Saturating `Time - ticks` helper local to the adversary.
trait SaturatingSubTicks {
    fn saturating_sub_ticks(self, ticks: u64) -> Time;
}

impl SaturatingSubTicks for Time {
    fn saturating_sub_ticks(self, ticks: u64) -> Time {
        Time::from_ticks(self.ticks().saturating_sub(ticks))
    }
}

struct IntervalBatch {
    width: TimeDelta,
    d_lo: TimeDelta,
    d_hi: TimeDelta,
}

impl DeliveryAdversary for IntervalBatch {
    fn dispose(&mut self, _packet: Packet, send_time: Time, _send_index: u64) -> Disposition {
        // Target: the start of the next interval boundary after send_time.
        let w = self.width.ticks();
        let boundary = Time::from_ticks((send_time.ticks() / w + 1) * w);
        let delay = boundary - send_time; // in (0, w] ⊆ (0, d_hi]
        let delay = delay.max(self.d_lo).min(self.d_hi);
        Disposition::Deliver(delay)
    }
}

struct RandomDelay {
    d_lo: TimeDelta,
    d_hi: TimeDelta,
    rng: StdRng,
}

impl DeliveryAdversary for RandomDelay {
    fn dispose(&mut self, _packet: Packet, _send_time: Time, _send_index: u64) -> Disposition {
        Disposition::Deliver(TimeDelta::from_ticks(
            self.rng.gen_range(self.d_lo.ticks()..=self.d_hi.ticks()),
        ))
    }
}

struct Faulty {
    loss: f64,
    duplication: f64,
    d_hi: TimeDelta,
    rng: StdRng,
}

impl DeliveryAdversary for Faulty {
    fn dispose(&mut self, _packet: Packet, _send_time: Time, _send_index: u64) -> Disposition {
        if self.rng.gen_bool(self.loss.clamp(0.0, 1.0)) {
            return Disposition::Drop;
        }
        let delay = TimeDelta::from_ticks(self.rng.gen_range(0..=self.d_hi.ticks()));
        if self.rng.gen_bool(self.duplication.clamp(0.0, 1.0)) {
            let second = TimeDelta::from_ticks(self.rng.gen_range(0..=self.d_hi.ticks()));
            Disposition::Duplicate(delay, second)
        } else {
            Disposition::Deliver(delay)
        }
    }
}

struct FaultyFifo {
    loss: f64,
    duplication: f64,
    d_hi: TimeDelta,
    last_data_arrival: Time,
    last_ack_arrival: Time,
    rng: StdRng,
}

impl FaultyFifo {
    /// Picks an arrival no earlier than the direction's previous arrival
    /// (same-tick ties are processed in scheduling order, which is send
    /// order — FIFO either way), clamped into `[send, send + d]`.
    fn fifo_arrival(&mut self, send_time: Time, is_data: bool) -> Time {
        let jitter = TimeDelta::from_ticks(self.rng.gen_range(0..=self.d_hi.ticks()));
        let last = if is_data {
            self.last_data_arrival
        } else {
            self.last_ack_arrival
        };
        let arrival = (send_time + jitter).max(last).min(send_time + self.d_hi);
        if is_data {
            self.last_data_arrival = arrival;
        } else {
            self.last_ack_arrival = arrival;
        }
        arrival
    }
}

impl DeliveryAdversary for FaultyFifo {
    fn dispose(&mut self, packet: Packet, send_time: Time, _send_index: u64) -> Disposition {
        if self.rng.gen_bool(self.loss.clamp(0.0, 1.0)) {
            return Disposition::Drop;
        }
        let is_data = packet.is_data();
        let first = self.fifo_arrival(send_time, is_data) - send_time;
        if self.rng.gen_bool(self.duplication.clamp(0.0, 1.0)) {
            let second = self.fifo_arrival(send_time, is_data) - send_time;
            Disposition::Duplicate(first, second)
        } else {
            Disposition::Deliver(first)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> TimingParams {
        TimingParams::from_ticks(2, 5, 20).unwrap()
    }

    fn dt(n: u64) -> TimeDelta {
        TimeDelta::from_ticks(n)
    }

    #[test]
    fn fixed_policies_produce_extremes() {
        let p = params();
        let mut fast = StepPolicy::AllFast.build(p);
        let mut slow = StepPolicy::AllSlow.build(p);
        for i in 0..10 {
            assert_eq!(fast.next_gap(Owner::Transmitter, i), p.c1());
            assert_eq!(slow.next_gap(Owner::Receiver, i), p.c2());
        }
    }

    #[test]
    fn alternate_alternates() {
        let p = params();
        let mut a = StepPolicy::Alternate.build(p);
        assert_eq!(a.next_gap(Owner::Transmitter, 0), p.c1());
        assert_eq!(a.next_gap(Owner::Transmitter, 1), p.c2());
        assert_eq!(a.next_gap(Owner::Transmitter, 2), p.c1());
    }

    #[test]
    fn skew_is_per_owner() {
        let p = params();
        let mut s = StepPolicy::SkewedPair {
            fast_transmitter: true,
        }
        .build(p);
        assert_eq!(s.next_gap(Owner::Transmitter, 0), p.c1());
        assert_eq!(s.next_gap(Owner::Receiver, 0), p.c2());
        let mut s = StepPolicy::SkewedPair {
            fast_transmitter: false,
        }
        .build(p);
        assert_eq!(s.next_gap(Owner::Transmitter, 0), p.c2());
        assert_eq!(s.next_gap(Owner::Receiver, 0), p.c1());
    }

    #[test]
    fn random_steps_stay_in_bounds_and_reproduce() {
        let p = params();
        let gaps = |seed| {
            let mut a = StepPolicy::Random { seed }.build(p);
            (0..100)
                .map(|i| a.next_gap(Owner::Transmitter, i).ticks())
                .collect::<Vec<_>>()
        };
        let g1 = gaps(42);
        let g2 = gaps(42);
        assert_eq!(g1, g2, "same seed, same schedule");
        assert!(g1
            .iter()
            .all(|&g| g >= p.c1().ticks() && g <= p.c2().ticks()));
        assert_ne!(g1, gaps(43), "different seed, different schedule");
    }

    #[test]
    fn eager_and_max_delay() {
        let mut e = DeliveryPolicy::Eager.build(dt(0), dt(9));
        let mut m = DeliveryPolicy::MaxDelay.build(dt(0), dt(9));
        assert_eq!(
            e.dispose(Packet::Data(0), Time::ZERO, 0),
            Disposition::Deliver(dt(0))
        );
        assert_eq!(
            m.dispose(Packet::Data(0), Time::ZERO, 0),
            Disposition::Deliver(dt(9))
        );
    }

    #[test]
    fn reverse_burst_strictly_reverses_arrivals() {
        // Burst of 4 sent 1 tick apart starting at t = 100, d = 10:
        // targets 110, 109, 108, 107 — strictly decreasing, all legal.
        let mut adv = DeliveryPolicy::ReverseBurst { burst: 4 }.build(dt(0), dt(10));
        let mut arrivals = Vec::new();
        for pos in 0..4u64 {
            let send = Time::from_ticks(100 + pos);
            match adv.dispose(Packet::Data(0), send, pos) {
                Disposition::Deliver(delay) => {
                    assert!(delay <= dt(10));
                    arrivals.push((send + delay).ticks());
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(arrivals, vec![110, 109, 108, 107]);
        // The next burst restarts the anchor.
        let send = Time::from_ticks(200);
        match adv.dispose(Packet::Data(0), send, 4) {
            Disposition::Deliver(delay) => assert_eq!(delay, dt(10)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reverse_burst_clamps_to_legal_delays() {
        // Wide spacing: late positions cannot reach the decreasing target
        // and clamp to the earliest legal arrival (send + d_lo).
        let mut adv = DeliveryPolicy::ReverseBurst { burst: 3 }.build(dt(2), dt(4));
        let sends = [0u64, 4, 8];
        for (pos, &s) in sends.iter().enumerate() {
            match adv.dispose(Packet::Data(0), Time::from_ticks(s), pos as u64) {
                Disposition::Deliver(delay) => {
                    assert!(delay >= dt(2) && delay <= dt(4), "pos {pos}: {delay}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn reverse_burst_acks_fifo() {
        let mut adv = DeliveryPolicy::ReverseBurst { burst: 4 }.build(dt(0), dt(10));
        assert_eq!(
            adv.dispose(Packet::Ack(0), Time::from_ticks(5), 3),
            Disposition::Deliver(dt(0))
        );
    }

    #[test]
    fn interval_batch_hits_next_boundary() {
        let mut adv = DeliveryPolicy::IntervalBatch.build(dt(0), dt(10));
        // Sent at t = 13, width 10 -> boundary 20, delay 7.
        match adv.dispose(Packet::Data(0), Time::from_ticks(13), 0) {
            Disposition::Deliver(delay) => assert_eq!(delay, dt(7)),
            other => panic!("unexpected {other:?}"),
        }
        // Sent exactly on a boundary -> full width delay.
        match adv.dispose(Packet::Data(0), Time::from_ticks(20), 1) {
            Disposition::Deliver(delay) => assert_eq!(delay, dt(10)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn random_delay_in_window_and_reproducible() {
        let run = |seed| {
            let mut adv = DeliveryPolicy::Random { seed }.build(dt(3), dt(9));
            (0..100u64)
                .map(|i| match adv.dispose(Packet::Data(0), Time::ZERO, i) {
                    Disposition::Deliver(d) => d.ticks(),
                    other => panic!("unexpected {other:?}"),
                })
                .collect::<Vec<_>>()
        };
        let a = run(7);
        assert_eq!(a, run(7));
        assert!(a.iter().all(|&d| (3..=9).contains(&d)));
    }

    #[test]
    fn faulty_drops_and_duplicates_at_extremes() {
        let mut all_loss = DeliveryPolicy::Faulty {
            loss: 1.0,
            duplication: 0.0,
            seed: 1,
        }
        .build(dt(0), dt(5));
        assert_eq!(
            all_loss.dispose(Packet::Data(0), Time::ZERO, 0),
            Disposition::Drop
        );
        let mut all_dup = DeliveryPolicy::Faulty {
            loss: 0.0,
            duplication: 1.0,
            seed: 1,
        }
        .build(dt(0), dt(5));
        assert!(matches!(
            all_dup.dispose(Packet::Data(0), Time::ZERO, 0),
            Disposition::Duplicate(_, _)
        ));
    }

    #[test]
    fn faulty_fifo_preserves_per_direction_order() {
        let mut adv = DeliveryPolicy::FaultyFifo {
            loss: 0.0,
            duplication: 0.0,
            seed: 3,
        }
        .build(dt(0), dt(20));
        let mut last_data = 0u64;
        let mut last_ack = 0u64;
        for i in 0..200u64 {
            let send = Time::from_ticks(i * 2);
            match adv.dispose(Packet::Data(0), send, i) {
                Disposition::Deliver(delay) => {
                    let arrival = (send + delay).ticks();
                    assert!(arrival >= last_data, "data reordered at {i}");
                    assert!(delay <= dt(20));
                    last_data = arrival;
                }
                other => panic!("unexpected {other:?}"),
            }
            match adv.dispose(Packet::Ack(0), send, i) {
                Disposition::Deliver(delay) => {
                    let arrival = (send + delay).ticks();
                    assert!(arrival >= last_ack, "acks reordered at {i}");
                    last_ack = arrival;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn faulty_fifo_still_drops_and_duplicates() {
        let mut adv = DeliveryPolicy::FaultyFifo {
            loss: 1.0,
            duplication: 0.0,
            seed: 3,
        }
        .build(dt(0), dt(5));
        assert_eq!(
            adv.dispose(Packet::Data(0), Time::ZERO, 0),
            Disposition::Drop
        );
        let mut adv = DeliveryPolicy::FaultyFifo {
            loss: 0.0,
            duplication: 1.0,
            seed: 3,
        }
        .build(dt(0), dt(5));
        assert!(matches!(
            adv.dispose(Packet::Data(0), Time::ZERO, 0),
            Disposition::Duplicate(_, _)
        ));
    }

    #[test]
    fn sweeps_are_nonempty_and_distinct() {
        let steps = StepPolicy::sweep(1);
        assert!(steps.len() >= 5);
        let deliveries = DeliveryPolicy::sweep(4, 1);
        assert!(deliveries.len() >= 5);
    }
}
