//! UDP transport over `std::net::UdpSocket`.
//!
//! Unlike [`MemTransport`](crate::mem::MemTransport), a UDP endpoint does
//! not model the channel — the network *is* the channel. On loopback, real
//! delays are far below any practical delay bound `d`, so the channel
//! axioms hold trivially; across hosts the operator must pick `d` (and the
//! tick duration) large enough to cover the actual network. Datagrams that
//! fail strict decoding are counted and skipped rather than surfaced,
//! because an open socket can legitimately receive foreign traffic.

use crate::error::NetError;
use crate::transport::{Transport, TransportStats};
use crate::wire::{Frame, WireCodec, FRAME_BUF_CAP};
use rstp_core::{Packet, SessionId};
use std::io::ErrorKind;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};

/// A protocol endpoint bound to a UDP socket.
#[derive(Debug)]
pub struct UdpTransport {
    codec: WireCodec,
    socket: UdpSocket,
    peer: SocketAddr,
    seq: u64,
    frames_sent: u64,
    frames_received: u64,
    decode_errors: u64,
}

impl UdpTransport {
    /// Binds `local` and fixes `peer` as the only accepted correspondent.
    /// The socket is non-blocking so [`Transport::poll_recv`] never stalls
    /// the real-time driver.
    pub fn bind(
        codec: WireCodec,
        local: impl ToSocketAddrs,
        peer: impl ToSocketAddrs,
    ) -> Result<Self, NetError> {
        let socket = UdpSocket::bind(local)?;
        let peer = peer
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "empty peer address"))?;
        socket.set_nonblocking(true)?;
        Ok(UdpTransport {
            codec,
            socket,
            peer,
            seq: 0,
            frames_sent: 0,
            frames_received: 0,
            decode_errors: 0,
        })
    }

    /// A loopback pair on ephemeral ports, for tests and benchmarks.
    pub fn loopback_pair(codec: WireCodec) -> Result<(UdpTransport, UdpTransport), NetError> {
        let a_sock = UdpSocket::bind("127.0.0.1:0")?;
        let b_sock = UdpSocket::bind("127.0.0.1:0")?;
        let a_addr = a_sock.local_addr()?;
        let b_addr = b_sock.local_addr()?;
        a_sock.set_nonblocking(true)?;
        b_sock.set_nonblocking(true)?;
        let a = UdpTransport {
            codec,
            socket: a_sock,
            peer: b_addr,
            seq: 0,
            frames_sent: 0,
            frames_received: 0,
            decode_errors: 0,
        };
        let b = UdpTransport {
            codec,
            socket: b_sock,
            peer: a_addr,
            seq: 0,
            frames_sent: 0,
            frames_received: 0,
            decode_errors: 0,
        };
        Ok((a, b))
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
        let buf =
            self.codec
                .encode_with_session(packet, self.seq, sent_at_micros, SessionId::new(0));
        self.seq += 1;
        self.socket.send_to(&buf, self.peer)?;
        self.frames_sent += 1;
        Ok(())
    }

    fn poll_recv(&mut self) -> Result<Option<Frame>, NetError> {
        // Read slightly more than a frame so oversized datagrams are
        // detected as TrailingBytes instead of silently truncated.
        let mut buf = [0u8; FRAME_BUF_CAP];
        loop {
            match self.socket.recv_from(&mut buf) {
                Ok((n, from)) => {
                    if from != self.peer {
                        // Foreign traffic on an open socket: not ours.
                        self.decode_errors += 1;
                        continue;
                    }
                    match self.codec.decode(&buf[..n]) {
                        Ok(frame) => {
                            self.frames_received += 1;
                            return Ok(Some(frame));
                        }
                        Err(_) => {
                            self.decode_errors += 1;
                            continue;
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn local_stats(&self) -> TransportStats {
        TransportStats {
            frames_sent: self.frames_sent,
            frames_received: self.frames_received,
            decode_errors: self.decode_errors,
            injected_losses: 0,
            injected_duplicates: 0,
        }
    }
}

#[cfg(test)]
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
        let deadline = Instant::now() + Duration::from_secs(1);
        while a.local_stats().decode_errors < 2 && Instant::now() < deadline {
            assert!(a
                .poll_recv()
                .expect("poll never fails on garbage")
                .is_none());
            thread::sleep(Duration::from_micros(200));
        }
        assert_eq!(a.local_stats().decode_errors, 2);
        assert_eq!(a.local_stats().frames_received, 0);
    }
}
