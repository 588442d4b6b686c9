//! Wall-clock channel model `C(P)` for the in-process transport.
//!
//! The paper's channel axioms (§2) say every packet sent at time `t` is
//! delivered at some time in `[t, t + d]`, possibly reordered relative to
//! other in-flight packets. [`ChannelConfig`] expresses that contract in
//! wall-clock terms — delays are drawn in ticks, capped at `d`, and scaled
//! by the tick duration — plus the optional loss/duplication faults that
//! `rstp_sim::adversary::DeliveryPolicy::Faulty` injects in the simulator.

use rand::{Rng, SeedableRng};
use rstp_core::TimingParams;
use rstp_sim::{PacketFate, ScriptedDelivery};
use std::time::Duration;

/// How the channel draws a delivery delay (in ticks) for each packet.
///
/// A fixed delay (`lo == hi`) preserves FIFO order; a genuine interval
/// gives consecutive packets overlapping delivery windows, so later
/// packets can overtake earlier ones — the reorder freedom of `C(P)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DelayModel {
    /// Minimum delay in ticks.
    pub lo: u64,
    /// Maximum delay in ticks.
    pub hi: u64,
}

impl DelayModel {
    /// Deliver immediately — the simulator's `Eager` policy.
    pub fn eager() -> Self {
        DelayModel { lo: 0, hi: 0 }
    }

    /// Always delay the full `d` ticks — the simulator's `MaxDelay`
    /// policy. FIFO order is preserved because the delay is constant.
    pub fn max(params: TimingParams) -> Self {
        let d = params.d().ticks();
        DelayModel { lo: d, hi: d }
    }

    /// Draw uniformly from `[lo, hi]` ticks.
    pub fn uniform(lo: u64, hi: u64) -> Self {
        DelayModel {
            lo: lo.min(hi),
            hi: hi.max(lo),
        }
    }

    /// Clamps both endpoints to the delay bound `d`.
    pub fn clamped(self, params: TimingParams) -> Self {
        let d = params.d().ticks();
        DelayModel {
            lo: self.lo.min(d),
            hi: self.hi.min(d),
        }
    }
}

/// Full channel configuration: delay model, fault rates, and the mapping
/// from abstract ticks to wall-clock time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelConfig {
    /// Delay distribution, in ticks.
    pub delay: DelayModel,
    /// Probability in `[0, 1]` that a packet is silently dropped.
    pub loss: f64,
    /// Probability in `[0, 1]` that a packet is delivered twice (the
    /// second copy gets an independently drawn delay).
    pub duplication: f64,
    /// Seed for the channel's deterministic PRNG.
    pub seed: u64,
    /// Wall-clock length of one abstract tick.
    pub tick: Duration,
}

impl ChannelConfig {
    /// A reliable channel honouring the full delay bound `d`: uniform
    /// delays in `[0, d]` ticks, no loss, no duplication.
    pub fn reliable(params: TimingParams, tick: Duration, seed: u64) -> Self {
        ChannelConfig {
            delay: DelayModel::uniform(0, params.d().ticks()),
            loss: 0.0,
            duplication: 0.0,
            seed,
            tick,
        }
    }

    /// An eager channel that delivers instantly — the fastest adversary.
    pub fn eager(tick: Duration, seed: u64) -> Self {
        ChannelConfig {
            delay: DelayModel::eager(),
            loss: 0.0,
            duplication: 0.0,
            seed,
            tick,
        }
    }

    /// A channel that always takes the full `d` ticks — the slowest
    /// reliable adversary, matching the simulator's worst-case runs.
    pub fn max_delay(params: TimingParams, tick: Duration, seed: u64) -> Self {
        ChannelConfig {
            delay: DelayModel::max(params),
            loss: 0.0,
            duplication: 0.0,
            seed,
            tick,
        }
    }
}

/// Per-direction sampler turning a [`ChannelConfig`] into packet fates:
/// tick delays and fault decisions. Deterministic in the seed.
#[derive(Debug)]
pub struct ChannelSampler {
    config: ChannelConfig,
    rng: rand::rngs::StdRng,
}

impl ChannelSampler {
    /// Creates a sampler for one channel direction. `stream` separates the
    /// two directions of a duplex channel so they draw independent
    /// sequences from the same configured seed.
    pub fn new(config: ChannelConfig, stream: u64) -> Self {
        ChannelSampler {
            config,
            rng: rand::rngs::StdRng::seed_from_u64(
                config.seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ),
        }
    }

    /// Decides the fate of the next packet.
    pub fn next_fate(&mut self) -> PacketFate {
        if self.config.loss > 0.0 && self.rng.gen_bool(self.config.loss) {
            return PacketFate::Drop;
        }
        let first = self.next_delay();
        if self.config.duplication > 0.0 && self.rng.gen_bool(self.config.duplication) {
            let second = self.next_delay();
            return PacketFate::Duplicate(first, second);
        }
        PacketFate::Deliver(first)
    }

    fn next_delay(&mut self) -> u64 {
        let DelayModel { lo, hi } = self.config.delay;
        if lo >= hi {
            lo
        } else {
            self.rng.gen_range(lo..=hi)
        }
    }
}

/// Where one channel direction's packet fates come from.
#[derive(Debug)]
pub(crate) enum FateSource {
    /// Seeded pseudorandom fates from a [`ChannelConfig`].
    Sampled(ChannelSampler),
    /// An explicit plan: the `next`-th packet sent in this direction gets
    /// the plan's `next`-th fate. This is how one `rstp-check` scenario
    /// drives the real transport and the simulator with the same delivery
    /// schedule.
    Scripted {
        /// The per-packet fates, then the fallback delay forever.
        plan: ScriptedDelivery,
        /// Index of the packet about to be sent.
        next: u64,
    },
}

impl FateSource {
    /// Decides the fate of the next packet.
    pub(crate) fn next_fate(&mut self) -> PacketFate {
        match self {
            FateSource::Sampled(s) => s.next_fate(),
            FateSource::Scripted { plan, next } => {
                let fate = plan.fate(*next);
                *next += 1;
                fate
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> TimingParams {
        TimingParams::from_ticks(1, 2, 8).expect("valid")
    }

    #[test]
    fn reliable_spans_zero_to_d() {
        let cfg = ChannelConfig::reliable(params(), Duration::from_micros(100), 7);
        assert_eq!(cfg.delay, DelayModel { lo: 0, hi: 8 });
        let wide = DelayModel::uniform(3, 99).clamped(params());
        assert_eq!(wide, DelayModel { lo: 3, hi: 8 });
    }

    #[test]
    fn max_delay_is_constant_at_d() {
        let cfg = ChannelConfig::max_delay(params(), Duration::from_micros(100), 1);
        let mut s = ChannelSampler::new(cfg, 0);
        for _ in 0..16 {
            assert_eq!(s.next_fate(), PacketFate::Deliver(8));
        }
    }

    #[test]
    fn sampler_is_deterministic_per_seed_and_stream() {
        let cfg = ChannelConfig::reliable(params(), Duration::from_micros(50), 42);
        let mut a = ChannelSampler::new(cfg, 0);
        let mut b = ChannelSampler::new(cfg, 0);
        let seq_a: Vec<PacketFate> = (0..32).map(|_| a.next_fate()).collect();
        let seq_b: Vec<PacketFate> = (0..32).map(|_| b.next_fate()).collect();
        assert_eq!(seq_a, seq_b);

        let mut c = ChannelSampler::new(cfg, 1);
        let seq_c: Vec<PacketFate> = (0..32).map(|_| c.next_fate()).collect();
        assert_ne!(seq_a, seq_c, "streams must diverge");
    }

    #[test]
    fn delays_respect_the_bound() {
        let cfg = ChannelConfig::reliable(params(), Duration::from_micros(100), 5);
        let cap = params().d().ticks();
        let mut s = ChannelSampler::new(cfg, 0);
        for _ in 0..256 {
            match s.next_fate() {
                PacketFate::Deliver(dl) => assert!(dl <= cap),
                PacketFate::Duplicate(a, b) => {
                    assert!(a <= cap && b <= cap)
                }
                PacketFate::Drop => panic!("reliable channel must not drop"),
            }
        }
    }

    #[test]
    fn scripted_fates_replay_the_plan_packet_by_packet() {
        let plan = ScriptedDelivery::new(
            vec![
                PacketFate::Deliver(3),
                PacketFate::Drop,
                PacketFate::Duplicate(0, 8),
            ],
            2, // fallback
        );
        let mut s = FateSource::Scripted { plan, next: 0 };
        assert_eq!(s.next_fate(), PacketFate::Deliver(3));
        assert_eq!(s.next_fate(), PacketFate::Drop);
        assert_eq!(s.next_fate(), PacketFate::Duplicate(0, 8));
        // Fallback tail, forever.
        assert_eq!(s.next_fate(), PacketFate::Deliver(2));
        assert_eq!(s.next_fate(), PacketFate::Deliver(2));
    }

    #[test]
    fn faults_fire_at_configured_rates() {
        let tick = Duration::from_micros(10);
        let cfg = ChannelConfig {
            delay: DelayModel::eager(),
            loss: 0.5,
            duplication: 0.5,
            seed: 99,
            tick,
        };
        let mut s = ChannelSampler::new(cfg, 0);
        let mut drops = 0;
        let mut dups = 0;
        for _ in 0..1000 {
            match s.next_fate() {
                PacketFate::Drop => drops += 1,
                PacketFate::Duplicate(..) => dups += 1,
                PacketFate::Deliver(_) => {}
            }
        }
        assert!((300..700).contains(&drops), "drops={drops}");
        assert!((100..500).contains(&dups), "dups={dups}");
    }
}
