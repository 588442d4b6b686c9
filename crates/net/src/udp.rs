//! UDP transport over `std::net::UdpSocket`.
//!
//! Unlike [`MemTransport`](crate::mem::MemTransport), a UDP endpoint does
//! not model the channel — the network *is* the channel. On loopback, real
//! delays are far below any practical delay bound `d`, so the channel
//! axioms hold trivially; across hosts the operator must pick `d` (and the
//! tick duration) large enough to cover the actual network. Datagrams that
//! fail strict decoding, come from another address or carry another
//! session's frame are counted and skipped rather than surfaced, because
//! an open socket can legitimately receive foreign traffic. The same
//! endpoint, given its session id, is a client of the multi-session
//! server.

use crate::error::NetError;
use crate::transport::{Transport, TransportStats};
use crate::wire::{Frame, WireCodec, FRAME_BUF_CAP};
use rstp_core::{Packet, SessionId};
use std::io::ErrorKind;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};

/// A protocol endpoint bound to a UDP socket: it sends one session's
/// frames to one peer and accepts only that peer's frames for that
/// session.
#[derive(Debug)]
pub struct UdpTransport {
    codec: WireCodec,
    session: SessionId,
    socket: UdpSocket,
    peer: SocketAddr,
    seq: u64,
    stats: TransportStats,
}

impl UdpTransport {
    /// Binds `local` and fixes `peer` as the only accepted correspondent.
    /// Every frame sent carries `session`, and only frames for `session`
    /// are accepted. The socket is non-blocking so
    /// [`Transport::poll_recv`] never stalls the real-time driver.
    pub fn bind(
        codec: WireCodec,
        session: SessionId,
        local: impl ToSocketAddrs,
        peer: impl ToSocketAddrs,
    ) -> Result<Self, NetError> {
        let socket = UdpSocket::bind(local)?;
        let peer = peer
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "empty peer address"))?;
        UdpTransport::new(codec, session, socket, peer)
    }

    /// A loopback pair of session-0 endpoints on ephemeral ports, for
    /// tests and benchmarks.
    pub fn loopback_pair(codec: WireCodec) -> Result<(UdpTransport, UdpTransport), NetError> {
        let a = UdpSocket::bind("127.0.0.1:0")?;
        let b = UdpSocket::bind("127.0.0.1:0")?;
        let (a_addr, b_addr) = (a.local_addr()?, b.local_addr()?);
        let session = SessionId::new(0);
        Ok((
            UdpTransport::new(codec, session, a, b_addr)?,
            UdpTransport::new(codec, session, b, a_addr)?,
        ))
    }

    fn new(
        codec: WireCodec,
        session: SessionId,
        socket: UdpSocket,
        peer: SocketAddr,
    ) -> Result<Self, NetError> {
        socket.set_nonblocking(true)?;
        Ok(UdpTransport {
            codec,
            session,
            socket,
            peer,
            seq: 0,
            stats: TransportStats::default(),
        })
    }

    /// The address this endpoint is bound to.
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.socket.local_addr()?)
    }

    /// The peer this endpoint sends to and accepts datagrams from.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }
}

impl Transport for UdpTransport {
    fn send(&mut self, packet: Packet, sent_at_micros: u64) -> Result<(), NetError> {
        let buf = self
            .codec
            .encode_with_session(packet, self.seq, sent_at_micros, self.session);
        self.seq += 1;
        match self.socket.send_to(&buf, self.peer) {
            Ok(_) => self.stats.frames_sent += 1,
            // A full socket buffer under load: the datagram is lost, which
            // the protocols already tolerate (UDP drops are channel drops).
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => return Err(e.into()),
        }
        Ok(())
    }

    fn poll_recv(&mut self) -> Result<Option<Frame>, NetError> {
        // Read slightly more than a frame so oversized datagrams are
        // detected as TrailingBytes instead of silently truncated.
        let mut buf = [0u8; FRAME_BUF_CAP];
        loop {
            match self.socket.recv_from(&mut buf) {
                Ok((n, from)) => match self.codec.decode(&buf[..n]) {
                    Ok(frame) if from == self.peer && frame.session == self.session => {
                        self.stats.frames_received += 1;
                        return Ok(Some(frame));
                    }
                    // Foreign traffic on an open socket, a datagram that
                    // fails strict decoding, or a frame for another
                    // session: not ours.
                    _ => self.stats.decode_errors += 1,
                },
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e.into()),
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
    use crate::wire::{ProtocolId, FRAME_LEN_V2};
    use std::thread;
    use std::time::{Duration, Instant};

    fn codec() -> WireCodec {
        WireCodec::new(ProtocolId::Alpha, 0).expect("k fits")
    }

    fn drain(t: &mut UdpTransport, want: usize, budget: Duration) -> Vec<Frame> {
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
    fn loopback_pair_exchanges_frames() {
        let (mut a, mut b) = UdpTransport::loopback_pair(codec()).expect("pair");
        a.send(Packet::Data(7), 1).expect("send");
        b.send(Packet::Ack(7), 2).expect("send");
        let at_b = drain(&mut b, 1, Duration::from_secs(1));
        let at_a = drain(&mut a, 1, Duration::from_secs(1));
        assert_eq!(at_b[0].packet, Packet::Data(7));
        assert_eq!(at_a[0].packet, Packet::Ack(7));
        assert_eq!(a.local_stats().frames_sent, 1);
        assert_eq!(a.local_stats().frames_received, 1);
    }

    #[test]
    fn poll_recv_is_nonblocking_when_idle() {
        let (mut a, _b) = UdpTransport::loopback_pair(codec()).expect("pair");
        let start = Instant::now();
        assert!(a.poll_recv().expect("poll").is_none());
        assert!(start.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn malformed_datagrams_are_counted_and_skipped() {
        let (mut a, b) = UdpTransport::loopback_pair(codec()).expect("pair");
        let raw = UdpSocket::bind("127.0.0.1:0").expect("bind");
        // Garbage from the peer's own port is required to even reach the
        // decoder, so impersonate corruption by sending from b's socket.
        b.socket
            .send_to(
                &[0xde, 0xad, 0xbe, 0xef],
                a.local_addr().expect("addr").to_string(),
            )
            .expect("send raw");
        // Foreign traffic from an unrelated socket is also ignored.
        raw.send_to(
            &[0u8; FRAME_LEN_V2],
            a.local_addr().expect("addr").to_string(),
        )
        .expect("send foreign");
        // So is a well-formed frame from the peer for another session.
        let other = codec().encode_with_session(Packet::Data(3), 0, 0, SessionId::new(7));
        b.socket
            .send_to(&other, a.local_addr().expect("addr"))
            .expect("send other session");
        let deadline = Instant::now() + Duration::from_secs(1);
        while a.local_stats().decode_errors < 3 && Instant::now() < deadline {
            assert!(a
                .poll_recv()
                .expect("poll never fails on garbage")
                .is_none());
            thread::sleep(Duration::from_micros(200));
        }
        assert_eq!(a.local_stats().decode_errors, 3);
        assert_eq!(a.local_stats().frames_received, 0);
    }
}
