//! In-process transport pair whose delivery threads enforce the channel
//! model `C(P)` in wall-clock time.
//!
//! [`MemTransport::pair`] returns two connected endpoints. Each direction
//! owns a background delivery thread: frames arrive with their send
//! instant, the thread draws a [`Verdict`] from the seeded
//! [`ChannelSampler`], and due frames are released into the peer's
//! inbox at `send_instant + delay`. Because
//! consecutive packets draw independent delays from overlapping windows,
//! later packets can overtake earlier ones — the bounded-delay-with-
//! reorder behaviour the paper's channel axioms permit, now realised in
//! real time rather than simulated ticks.

use crate::chan::{ChannelConfig, ChannelSampler, ScriptedVerdicts, Verdict, VerdictSource};
use crate::error::NetError;
use crate::transport::{Transport, TransportStats};
use crate::wire::{Frame, WireCodec};
use rstp_core::{Packet, SessionId};
use rstp_sim::ScriptedDelivery;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;
use std::time::Instant;

/// Fault counters a delivery thread shares with its sending endpoint.
#[derive(Debug, Default)]
struct FaultCounters {
    losses: AtomicU64,
    duplicates: AtomicU64,
}

/// One endpoint of an in-process channel pair.
#[derive(Debug)]
pub struct MemTransport {
    codec: WireCodec,
    egress: mpsc::SyncSender<(Instant, Vec<u8>)>,
    inbox: Arc<Mutex<VecDeque<Vec<u8>>>>,
    faults: Arc<FaultCounters>,
    seq: u64,
    frames_sent: u64,
    frames_received: u64,
    decode_errors: u64,
}

impl MemTransport {
    /// Builds a connected endpoint pair over `config`. Both directions use
    /// the same configuration but draw from independent PRNG streams, so a
    /// single seed reproduces the whole channel behaviour.
    pub fn pair(codec: WireCodec, config: ChannelConfig) -> (MemTransport, MemTransport) {
        MemTransport::pair_with(
            codec,
            VerdictSource::Sampled(ChannelSampler::new(config, 0)),
            VerdictSource::Sampled(ChannelSampler::new(config, 1)),
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
            VerdictSource::Scripted(ScriptedVerdicts::new(a_to_b, tick)),
            VerdictSource::Scripted(ScriptedVerdicts::new(b_to_a, tick)),
        )
    }

    fn pair_with(
        codec: WireCodec,
        a_to_b_verdicts: VerdictSource,
        b_to_a_verdicts: VerdictSource,
    ) -> (MemTransport, MemTransport) {
        let (a_to_b, b_inbox, a_faults) = direction(a_to_b_verdicts, 0);
        let (b_to_a, a_inbox, b_faults) = direction(b_to_a_verdicts, 1);
        let a = MemTransport {
            codec,
            egress: a_to_b,
            inbox: a_inbox,
            faults: a_faults,
            seq: 0,
            frames_sent: 0,
            frames_received: 0,
            decode_errors: 0,
        };
        let b = MemTransport {
            codec,
            egress: b_to_a,
            inbox: b_inbox,
            faults: b_faults,
            seq: 0,
            frames_sent: 0,
            frames_received: 0,
            decode_errors: 0,
        };
        (a, b)
    }
}

/// An endpoint's read side: delivered frames awaiting `poll_recv`.
type Inbox = Arc<Mutex<VecDeque<Vec<u8>>>>;

/// The write side of a direction: `(send_instant, frame bytes)` pairs
/// handed to the delivery thread. Bounded: a stalled delivery thread
/// becomes frame loss at the sender (the channel model already permits
/// loss), never unbounded memory growth.
type Ingress = mpsc::SyncSender<(Instant, Vec<u8>)>;

/// In-flight frames one direction buffers before `send` starts dropping.
/// Far above anything the paced driver produces within a `d` window; only
/// a wedged delivery thread can fill it.
const INGRESS_CAP: usize = 1024;

/// Spawns one delivery direction: returns the ingress sender, the inbox
/// the peer endpoint reads from, and the fault counters of this direction.
fn direction(verdicts: VerdictSource, stream: u64) -> (Ingress, Inbox, Arc<FaultCounters>) {
    let (tx, rx) = mpsc::sync_channel::<(Instant, Vec<u8>)>(INGRESS_CAP);
    let inbox: Inbox = Arc::new(Mutex::new(VecDeque::new()));
    let faults = Arc::new(FaultCounters::default());
    let thread_inbox = Arc::clone(&inbox);
    let thread_faults = Arc::clone(&faults);
    thread::Builder::new()
        .name(format!("rstp-net-chan-{stream}"))
        .spawn(move || delivery_loop(rx, thread_inbox, verdicts, thread_faults))
        .expect("spawn delivery thread");
    (tx, inbox, faults)
}

/// The delivery thread: schedules each frame at `send_instant + delay`
/// and releases due frames into the inbox, draining in deadline order.
#[expect(
    clippy::disallowed_methods,
    reason = "the delivery thread is the channel delay model; its reads define release instants"
)]
fn delivery_loop(
    ingress: mpsc::Receiver<(Instant, Vec<u8>)>,
    inbox: Arc<Mutex<VecDeque<Vec<u8>>>>,
    mut verdicts: VerdictSource,
    faults: Arc<FaultCounters>,
) {
    // Min-heap on (deliver_at, arrival_index); the index breaks ties so
    // equal deadlines release in send order.
    let mut heap: BinaryHeap<Reverse<(Instant, u64, Vec<u8>)>> = BinaryHeap::new();
    let mut arrival = 0u64;
    let mut open = true;
    loop {
        // Only this thread and the receiving endpoint hold the inbox; a
        // strong count of one means the peer endpoint is gone and nothing
        // will ever read what we deliver. Exit so the sender's ingress
        // channel closes and its next send reports the disconnect.
        if Arc::strong_count(&inbox) == 1 {
            return;
        }
        let now = Instant::now();
        while heap.peek().is_some_and(|Reverse((at, _, _))| *at <= now) {
            if let Some(Reverse((_, _, bytes))) = heap.pop() {
                // A poisoned inbox means a reader panicked mid-pop; the
                // queue itself is just bytes, so keep delivering.
                inbox
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push_back(bytes);
            }
        }
        if !open && heap.is_empty() {
            return;
        }
        let incoming = match heap.peek() {
            Some(Reverse((at, _, _))) if open => {
                match ingress.recv_timeout(at.saturating_duration_since(Instant::now())) {
                    Ok(item) => Some(item),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => {
                        open = false;
                        None
                    }
                }
            }
            Some(Reverse((at, _, _))) => {
                thread::sleep(at.saturating_duration_since(Instant::now()));
                None
            }
            None => match ingress.recv() {
                Ok(item) => Some(item),
                Err(_) => {
                    open = false;
                    None
                }
            },
        };
        if let Some((sent_at, bytes)) = incoming {
            match verdicts.next_verdict() {
                Verdict::Drop => {
                    faults.losses.fetch_add(1, Ordering::Relaxed);
                }
                Verdict::Deliver(delay) => {
                    heap.push(Reverse((sent_at + delay, arrival, bytes)));
                    arrival += 1;
                }
                Verdict::Duplicate(first, second) => {
                    faults.duplicates.fetch_add(1, Ordering::Relaxed);
                    heap.push(Reverse((sent_at + first, arrival, bytes.clone())));
                    arrival += 1;
                    heap.push(Reverse((sent_at + second, arrival, bytes)));
                    arrival += 1;
                }
            }
        }
    }
}

impl Transport for MemTransport {
    #[expect(
        clippy::disallowed_methods,
        reason = "stamps the send instant the delay model releases from"
    )]
    fn send(&mut self, packet: Packet, sent_at_micros: u64) -> Result<(), NetError> {
        let buf =
            self.codec
                .encode_with_session(packet, self.seq, sent_at_micros, SessionId::new(0));
        self.seq += 1;
        match self.egress.try_send((Instant::now(), buf.to_vec())) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                // Backpressure surfaces as channel loss, which the
                // protocols already tolerate; blocking here would stall
                // the paced driver past its c2 deadline instead.
                self.faults.losses.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Disconnected(_)) => return Err(NetError::Disconnected),
        }
        self.frames_sent += 1;
        Ok(())
    }

    fn poll_recv(&mut self) -> Result<Option<Frame>, NetError> {
        let bytes = match self
            .inbox
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
        {
            Some(b) => b,
            None => return Ok(None),
        };
        // In-process frames cannot suffer bit-level corruption, so any
        // decode failure (including a protocol mismatch between the two
        // endpoints) is a setup bug and surfaces as a hard error.
        match self.codec.decode(&bytes) {
            Ok(frame) => {
                self.frames_received += 1;
                Ok(Some(frame))
            }
            Err(e) => {
                self.decode_errors += 1;
                Err(e.into())
            }
        }
    }

    fn local_stats(&self) -> TransportStats {
        TransportStats {
            frames_sent: self.frames_sent,
            frames_received: self.frames_received,
            decode_errors: self.decode_errors,
            injected_losses: self.faults.losses.load(Ordering::Relaxed),
            injected_duplicates: self.faults.duplicates.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // the tests time real threads and sockets
mod tests {
    use super::*;
    use crate::wire::ProtocolId;
    use rstp_core::TimingParams;
    use std::time::Duration;

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
        // A wide delay window over many sends overtakes with overwhelming
        // probability; the seed makes the run reproducible.
        let tick = Duration::from_micros(400);
        let cfg = ChannelConfig::reliable(params(), tick, 3);
        let (mut a, mut b) = MemTransport::pair(codec(), cfg);
        for i in 0..48u64 {
            a.send(Packet::Data(i), i).expect("send");
        }
        let frames = drain(&mut b, 48, Duration::from_secs(4));
        assert_eq!(frames.len(), 48);
        let arrived: Vec<u64> = frames.iter().map(|f| f.seq).collect();
        let mut sorted = arrived.clone();
        sorted.sort_unstable();
        assert_ne!(arrived, sorted, "expected at least one overtake");
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
        // Give the delivery thread time to classify everything.
        thread::sleep(Duration::from_millis(100));
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
            (0..8)
                .map(|_| rstp_sim::PacketFate::Duplicate(0, d_ticks))
                .collect(),
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
                rstp_sim::PacketFate::Deliver(0),
                rstp_sim::PacketFate::Drop,
                rstp_sim::PacketFate::Deliver(0),
                rstp_sim::PacketFate::Drop,
            ],
            0,
        );
        let (mut a, mut b) =
            MemTransport::pair_scripted(codec(), tick, plan, ScriptedDelivery::deliver_all(&[], 0));
        for i in 0..4u64 {
            a.send(Packet::Data(i), i).expect("send");
        }
        let frames = drain(&mut b, 2, Duration::from_secs(1));
        // Allow the thread a beat to classify the dropped frames too.
        thread::sleep(Duration::from_millis(50));
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
        // The delivery thread drains and exits once the peer's inbox side
        // is gone; the ingress sender then observes a closed channel.
        thread::sleep(Duration::from_millis(50));
        let mut saw_disconnect = false;
        for i in 0..8 {
            if a.send(Packet::Data(i), 0).is_err() {
                saw_disconnect = true;
                break;
            }
            thread::sleep(Duration::from_millis(20));
        }
        assert!(saw_disconnect);
    }
}
