//! In-process transport pair realising the channel model `C(P)` in
//! wall-clock time.
//!
//! [`MemTransport::pair`] returns two connected endpoints. `send` draws
//! the frame's [`PacketFate`] from the direction's seeded
//! [`ChannelSampler`] (or its scripted plan) and files each copy in the
//! peer's in-flight queue under its release instant, `send instant +
//! delay`. The peer's `poll_recv` hands out the soonest frame once the
//! wall clock has reached its release instant, never before. Because
//! consecutive packets draw independent delays from overlapping windows,
//! later packets can overtake earlier ones — the bounded-delay-with-
//! reorder behaviour the paper's channel axioms permit, now realised in
//! real time rather than simulated ticks. No thread runs the channel:
//! the queue is data that its one reader reads when it polls.

use crate::chan::{ChannelConfig, ChannelSampler, FateSource};
use crate::error::NetError;
use crate::transport::{Transport, TransportStats};
use crate::wire::{Frame, WireCodec};
use rstp_core::{Packet, SessionId};
use rstp_sim::{PacketFate, ScriptedDelivery};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::time::{Duration, Instant};

/// Frames in flight to one endpoint, soonest release first: `(release
/// instant, send order, frame bytes)`. The send order breaks ties, so
/// copies released at one instant arrive in the order they were filed.
type InFlight = Mutex<BinaryHeap<Reverse<(Instant, u64, Vec<u8>)>>>;

/// One endpoint of an in-process channel pair.
#[derive(Debug)]
pub struct MemTransport {
    codec: WireCodec,
    /// Fates of the frames this endpoint sends.
    fates: FateSource,
    /// Wall-clock length of one tick of fate delay.
    tick: Duration,
    /// Frames in flight to this endpoint.
    inbox: Arc<InFlight>,
    /// The peer's in-flight queue, gone once the peer endpoint is.
    peer: Weak<InFlight>,
    seq: u64,
    /// Copies filed with the peer so far: the send order of the next.
    filed: u64,
    stats: TransportStats,
}

impl MemTransport {
    /// Builds a connected endpoint pair over `config`. Both directions use
    /// the same configuration but draw from independent PRNG streams, so a
    /// single seed reproduces the whole channel behaviour.
    pub fn pair(codec: WireCodec, config: ChannelConfig) -> (MemTransport, MemTransport) {
        MemTransport::pair_with(
            codec,
            config.tick,
            FateSource::Sampled(ChannelSampler::new(config, 0)),
            FateSource::Sampled(ChannelSampler::new(config, 1)),
        )
    }

    /// Builds a connected endpoint pair whose two directions replay
    /// explicit [`ScriptedDelivery`] plans (tick delays scaled by `tick`)
    /// instead of sampling a PRNG — the wall-clock half of an `rstp-check`
    /// differential scenario. `a_to_b` governs packets sent by the first
    /// endpoint, `b_to_a` those sent by the second.
    pub fn pair_scripted(
        codec: WireCodec,
        tick: Duration,
        a_to_b: ScriptedDelivery,
        b_to_a: ScriptedDelivery,
    ) -> (MemTransport, MemTransport) {
        MemTransport::pair_with(
            codec,
            tick,
            FateSource::Scripted {
                plan: a_to_b,
                next: 0,
            },
            FateSource::Scripted {
                plan: b_to_a,
                next: 0,
            },
        )
    }

    fn pair_with(
        codec: WireCodec,
        tick: Duration,
        a_fates: FateSource,
        b_fates: FateSource,
    ) -> (MemTransport, MemTransport) {
        let a_inbox: Arc<InFlight> = Arc::default();
        let b_inbox: Arc<InFlight> = Arc::default();
        let a_to_b = Arc::downgrade(&b_inbox);
        let b_to_a = Arc::downgrade(&a_inbox);
        let end = |fates, inbox, peer| MemTransport {
            codec,
            fates,
            tick,
            inbox,
            peer,
            seq: 0,
            filed: 0,
            stats: TransportStats::default(),
        };
        (end(a_fates, a_inbox, a_to_b), end(b_fates, b_inbox, b_to_a))
    }

    /// Files one copy in the peer's queue, released `delay` ticks after
    /// `sent`.
    fn file(&mut self, inbox: &InFlight, sent: Instant, delay: u64, bytes: Vec<u8>) {
        let release = sent + self.tick * u32::try_from(delay).unwrap_or(u32::MAX);
        inbox
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Reverse((release, self.filed, bytes)));
        self.filed += 1;
    }
}

impl Transport for MemTransport {
    #[expect(
        clippy::disallowed_methods,
        reason = "stamps the send instant the channel releases each copy from"
    )]
    fn send(&mut self, packet: Packet, sent_at_micros: u64) -> Result<(), NetError> {
        let Some(inbox) = self.peer.upgrade() else {
            return Err(NetError::Disconnected);
        };
        let sent = Instant::now();
        let buf =
            self.codec
                .encode_with_session(packet, self.seq, sent_at_micros, SessionId::new(0));
        self.seq += 1;
        self.stats.frames_sent += 1;
        match self.fates.next_fate() {
            PacketFate::Drop => self.stats.injected_losses += 1,
            PacketFate::Deliver(delay) => self.file(&inbox, sent, delay, buf.to_vec()),
            PacketFate::Duplicate(first, second) => {
                self.stats.injected_duplicates += 1;
                self.file(&inbox, sent, first, buf.to_vec());
                self.file(&inbox, sent, second, buf.to_vec());
            }
        }
        Ok(())
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "a frame becomes visible at its release instant, read at the poll"
    )]
    fn poll_recv(&mut self) -> Result<Option<Frame>, NetError> {
        let now = Instant::now();
        let released = self
            .inbox
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .peek_mut()
            .filter(|next| next.0 .0 <= now)
            .map(PeekMut::pop);
        let Some(Reverse((_, _, bytes))) = released else {
            return Ok(None);
        };
        // In-process frames cannot suffer bit-level corruption, so any
        // decode failure (including a protocol mismatch between the two
        // endpoints) is a setup bug and surfaces as a hard error.
        match self.codec.decode(&bytes) {
            Ok(frame) => {
                self.stats.frames_received += 1;
                Ok(Some(frame))
            }
            Err(e) => {
                self.stats.decode_errors += 1;
                Err(e.into())
            }
        }
    }

    fn local_stats(&self) -> TransportStats {
        self.stats
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // the tests time real threads and sockets
mod tests {
    use super::*;
    use crate::wire::ProtocolId;
    use rstp_core::TimingParams;
    use std::thread;

    fn codec() -> WireCodec {
        WireCodec::new(ProtocolId::Beta, 4).expect("k fits")
    }

    fn params() -> TimingParams {
        TimingParams::from_ticks(1, 2, 8).expect("valid")
    }

    fn drain(t: &mut MemTransport, want: usize, budget: Duration) -> Vec<Frame> {
        let deadline = Instant::now() + budget;
        let mut out = Vec::new();
        while out.len() < want && Instant::now() < deadline {
            match t.poll_recv().expect("poll") {
                Some(f) => out.push(f),
                None => thread::sleep(Duration::from_micros(200)),
            }
        }
        out
    }

    #[test]
    fn delivers_all_frames_within_bound() {
        let tick = Duration::from_micros(100);
        let cfg = ChannelConfig::reliable(params(), tick, 11);
        let (mut a, mut b) = MemTransport::pair(codec(), cfg);
        for i in 0..64u64 {
            a.send(Packet::Data(i), i).expect("send");
        }
        let frames = drain(&mut b, 64, Duration::from_secs(2));
        assert_eq!(frames.len(), 64);
        let mut symbols: Vec<u64> = frames.iter().map(|f| f.packet.symbol()).collect();
        symbols.sort_unstable();
        assert_eq!(symbols, (0..64).collect::<Vec<_>>());
        assert_eq!(a.local_stats().frames_sent, 64);
        assert_eq!(b.local_stats().frames_received, 64);
    }

    #[test]
    fn uniform_delays_reorder_packets() {
        // Whether a frame overtakes is decided where `pair` samples the
        // a → b direction: stream 0 of the channel's seed. A wide delay
        // window over many sends draws some later frame a shorter delay
        // than an earlier one, and the seed makes the draw reproducible.
        // The arrival order itself is not asserted: a reader descheduled
        // past the whole window finds every frame due and takes them in
        // send order, a schedule the channel allows.
        let cfg = ChannelConfig::reliable(params(), Duration::from_micros(400), 3);
        let mut a_to_b = ChannelSampler::new(cfg, 0);
        let delays: Vec<u64> = (0..48)
            .map(|_| match a_to_b.next_fate() {
                PacketFate::Deliver(delay) => delay,
                other => panic!("a reliable channel delivers once: {other:?}"),
            })
            .collect();
        let window = params().d().ticks();
        assert!(delays.iter().all(|&delay| delay <= window), "{delays:?}");
        let overtakes = (0..delays.len())
            .flat_map(|i| (i + 1..delays.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| delays[j] < delays[i])
            .count();
        assert!(overtakes > 0, "expected at least one overtake: {delays:?}");
    }

    #[test]
    fn max_delay_preserves_fifo() {
        let tick = Duration::from_micros(50);
        let cfg = ChannelConfig::max_delay(params(), tick, 1);
        let (mut a, mut b) = MemTransport::pair(codec(), cfg);
        for i in 0..32u64 {
            a.send(Packet::Data(i), i).expect("send");
        }
        let frames = drain(&mut b, 32, Duration::from_secs(2));
        let arrived: Vec<u64> = frames.iter().map(|f| f.seq).collect();
        assert_eq!(arrived, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn duplex_directions_are_independent() {
        let cfg = ChannelConfig::eager(Duration::from_micros(10), 5);
        let (mut a, mut b) = MemTransport::pair(codec(), cfg);
        a.send(Packet::Data(1), 0).expect("send");
        b.send(Packet::Ack(1), 0).expect("send");
        let to_b = drain(&mut b, 1, Duration::from_millis(500));
        let to_a = drain(&mut a, 1, Duration::from_millis(500));
        assert_eq!(to_b[0].packet, Packet::Data(1));
        assert_eq!(to_a[0].packet, Packet::Ack(1));
    }

    #[test]
    fn loss_and_duplication_are_counted_by_the_sender() {
        let cfg = ChannelConfig {
            loss: 0.3,
            duplication: 0.3,
            ..ChannelConfig::eager(Duration::from_micros(10), 77)
        };
        let (mut a, mut b) = MemTransport::pair(codec(), cfg);
        for i in 0..200u64 {
            a.send(Packet::Data(i), i).expect("send");
        }
        // `send` decides each fate, so the counts are final at once.
        let stats = a.local_stats();
        assert!(stats.injected_losses > 0, "expected some losses");
        assert!(stats.injected_duplicates > 0, "expected some duplicates");
        let received = drain(
            &mut b,
            (200 - stats.injected_losses + stats.injected_duplicates) as usize,
            Duration::from_secs(1),
        );
        assert_eq!(
            received.len() as u64,
            200 - stats.injected_losses + stats.injected_duplicates
        );
    }

    #[test]
    fn duplicated_packets_still_respect_the_d_window() {
        // Satellite check for the at-most-d guarantee under faults: a
        // duplicated packet's *second* copy draws its own delay, and that
        // delay is still capped at d ticks. Script every fate explicitly so
        // the interaction of `injected_duplicates` with the window is pinned,
        // not sampled: 8 packets, each duplicated with one eager copy and
        // one copy at the full d = 8 ticks.
        let tick = Duration::from_millis(2);
        let d_ticks = params().d().ticks();
        let plan = ScriptedDelivery::new(
            (0..8).map(|_| PacketFate::Duplicate(0, d_ticks)).collect(),
            0,
        );
        let (mut a, mut b) =
            MemTransport::pair_scripted(codec(), tick, plan, ScriptedDelivery::deliver_all(&[], 0));
        let mut sent_at = Vec::new();
        for i in 0..8u64 {
            sent_at.push(Instant::now());
            a.send(Packet::Data(i), i).expect("send");
            thread::sleep(tick);
        }
        // Every copy — original and duplicate — must arrive by
        // send_instant + d·tick, modulo scheduler lateness (the thread can
        // only release late, never early; generous slack keeps CI honest).
        let window = tick * u32::try_from(d_ticks).expect("small d");
        let slack = Duration::from_millis(250);
        let deadline = Instant::now() + Duration::from_secs(4);
        let mut frames = Vec::new();
        while frames.len() < 16 && Instant::now() < deadline {
            match b.poll_recv().expect("poll") {
                Some(f) => frames.push((Instant::now(), f)),
                None => thread::sleep(Duration::from_micros(200)),
            }
        }
        assert_eq!(frames.len(), 16, "one duplicate per packet");
        for (arrived, f) in &frames {
            let sent = sent_at[usize::try_from(f.seq).expect("small seq")];
            let late = arrived.saturating_duration_since(sent);
            assert!(
                late <= window + slack,
                "seq {} arrived {late:?} after send, window {window:?}",
                f.seq
            );
        }
        let stats = a.local_stats();
        assert_eq!(stats.frames_sent, 8);
        assert_eq!(stats.injected_duplicates, 8, "every packet duplicated");
        assert_eq!(stats.injected_losses, 0);
        assert_eq!(b.local_stats().frames_received, 16);
        // Each seq arrives exactly twice (duplication, no loss).
        let mut counts = [0u32; 8];
        for (_, f) in &frames {
            counts[usize::try_from(f.seq).expect("small seq")] += 1;
        }
        assert_eq!(counts, [2; 8]);
    }

    #[test]
    fn scripted_drops_are_counted_and_never_delivered() {
        let tick = Duration::from_micros(100);
        let plan = ScriptedDelivery::new(
            vec![
                PacketFate::Deliver(0),
                PacketFate::Drop,
                PacketFate::Deliver(0),
                PacketFate::Drop,
            ],
            0,
        );
        let (mut a, mut b) =
            MemTransport::pair_scripted(codec(), tick, plan, ScriptedDelivery::deliver_all(&[], 0));
        for i in 0..4u64 {
            a.send(Packet::Data(i), i).expect("send");
        }
        let frames = drain(&mut b, 2, Duration::from_secs(1));
        let symbols: Vec<u64> = frames.iter().map(|f| f.packet.symbol()).collect();
        assert_eq!(symbols, vec![0, 2]);
        let stats = a.local_stats();
        assert_eq!(stats.injected_losses, 2);
        assert_eq!(stats.injected_duplicates, 0);
        assert!(b.poll_recv().expect("poll").is_none(), "drops stay dropped");
    }

    #[test]
    fn send_after_peer_drop_reports_disconnect() {
        let cfg = ChannelConfig::eager(Duration::from_micros(10), 5);
        let (mut a, b) = MemTransport::pair(codec(), cfg);
        drop(b);
        assert!(matches!(
            a.send(Packet::Data(0), 0),
            Err(NetError::Disconnected)
        ));
        assert_eq!(a.local_stats().frames_sent, 0, "nothing was sent");
    }

    #[test]
    fn a_delayed_frame_is_invisible_until_its_release() {
        // Never early: a frame scripted to arrive d ticks after its send
        // stays in flight until then. The coarse tick leaves the poll
        // right after the send a full 200 ms before the release.
        let tick = Duration::from_millis(50);
        let d_ticks: u32 = 4;
        let plan = ScriptedDelivery::new(vec![PacketFate::Deliver(d_ticks.into())], 0);
        let (mut a, mut b) =
            MemTransport::pair_scripted(codec(), tick, plan, ScriptedDelivery::deliver_all(&[], 0));
        a.send(Packet::Data(7), 0).expect("send");
        let sent = Instant::now();
        assert!(b.poll_recv().expect("poll").is_none(), "released early");
        thread::sleep((sent + tick * d_ticks).saturating_duration_since(Instant::now()));
        let frame = b.poll_recv().expect("poll").expect("released by now");
        assert_eq!(frame.packet, Packet::Data(7));
        assert!(b.poll_recv().expect("poll").is_none(), "delivered once");
    }
}
