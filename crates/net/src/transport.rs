//! The [`Transport`] abstraction: a one-packet-at-a-time bidirectional
//! endpoint the real-time driver sends and receives frames through.

use crate::error::NetError;
use crate::wire::Frame;
use rstp_core::Packet;

/// Counters every transport endpoint keeps about its own traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames encoded and handed to the underlying channel.
    pub frames_sent: u64,
    /// Frames decoded successfully and surfaced to the driver.
    pub frames_received: u64,
    /// Datagrams that failed strict decoding and were dropped.
    pub decode_errors: u64,
    /// Frames the channel model deliberately dropped (in-process
    /// transports only; a UDP endpoint cannot observe network loss).
    pub injected_losses: u64,
    /// Extra deliveries created by the channel model's duplication fault.
    pub injected_duplicates: u64,
}

/// A bidirectional frame pipe between one protocol endpoint and its peer.
///
/// Implementations must be non-blocking on the receive side: the driver
/// polls between automaton steps and must never stall past its `[c1, c2]`
/// window waiting for traffic.
pub trait Transport {
    /// Encodes `packet` and hands it to the channel. `sent_at_micros` is
    /// the sender's clock reading, embedded in the frame for latency
    /// accounting at the receiver.
    fn send(&mut self, packet: Packet, sent_at_micros: u64) -> Result<(), NetError>;

    /// Returns the next frame the channel has delivered, or `None` when no
    /// frame is currently available. Must not block.
    fn poll_recv(&mut self) -> Result<Option<Frame>, NetError>;

    /// This endpoint's traffic counters.
    fn local_stats(&self) -> TransportStats;
}

/// A borrowed transport is a transport, so a caller can lend its
/// endpoint to the driver and keep it afterwards.
impl<T: Transport + ?Sized> Transport for &mut T {
    fn send(&mut self, packet: Packet, sent_at_micros: u64) -> Result<(), NetError> {
        (**self).send(packet, sent_at_micros)
    }

    fn poll_recv(&mut self) -> Result<Option<Frame>, NetError> {
        (**self).poll_recv()
    }

    fn local_stats(&self) -> TransportStats {
        (**self).local_stats()
    }
}
