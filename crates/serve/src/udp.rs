//! The multi-session server loop over one UDP socket.
//!
//! One bound socket carries every session; datagrams are demultiplexed
//! by each frame's session id. The server learns each session's return
//! address from the datagrams it sees (the cheap [`peek_session`]
//! probe — the pump's full decode validates every frame), and shard
//! egress replies through a cloned handle of the same socket, so the
//! data path never funnels through a shared lock beyond the address map.

use crate::server::{EgressSink, ServeTransport};
use rstp_core::{Packet, SessionId};
use rstp_net::{
    decode_any, peek_session, Frame, FrameBuf, NetError, Transport, TransportStats, WireCodec,
    FRAME_BUF_CAP,
};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::{Arc, Mutex, TryLockError};

/// Headroom over the largest legal frame so oversized datagrams surface
/// as [`rstp_net::WireError::TrailingBytes`] instead of silent truncation.
/// Equal to [`FRAME_BUF_CAP`] so every received datagram fits a
/// [`FrameBuf`] without a second copy or a heap allocation.
const RECV_BUF: usize = FRAME_BUF_CAP;

type AddrMap = Arc<Mutex<HashMap<u32, SocketAddr>>>;

/// The server's end of the shared UDP socket.
pub struct UdpServerTransport {
    socket: UdpSocket,
    addrs: AddrMap,
}

impl UdpServerTransport {
    /// Binds `local` (use port 0 for an ephemeral loopback port).
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if binding fails.
    pub fn bind(local: impl ToSocketAddrs) -> Result<Self, NetError> {
        let socket = UdpSocket::bind(local)?;
        socket.set_nonblocking(true)?;
        Ok(UdpServerTransport {
            socket,
            addrs: Arc::default(),
        })
    }

    /// The bound address clients should send to.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the socket cannot report its address.
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.socket.local_addr()?)
    }
}

impl ServeTransport for UdpServerTransport {
    fn recv_batch(&mut self, out: &mut Vec<FrameBuf>, max: usize) -> Result<usize, NetError> {
        let mut buf = [0u8; RECV_BUF];
        let mut got = 0;
        while got < max {
            match self.socket.recv_from(&mut buf) {
                Ok((len, from)) => {
                    // `len ≤ RECV_BUF = FRAME_BUF_CAP`, so this never
                    // fails; the guard keeps the path panic-free anyway.
                    let Some(bytes) = buf.get(..len).and_then(FrameBuf::from_slice) else {
                        continue;
                    };
                    // Learn (or refresh) the session's return address so
                    // egress can answer. A forged id cannot make a shard
                    // act — the full decode there still checks everything
                    // — but it could redirect replies, which is exactly
                    // UDP's trust model for unauthenticated datagrams.
                    if let Some(session) = peek_session(&bytes) {
                        match self.addrs.try_lock() {
                            Ok(mut map) => {
                                map.insert(session.raw(), from);
                            }
                            // The map holds plain socket addresses:
                            // recover from poisoning rather than cascading
                            // a panic into the server pump.
                            Err(TryLockError::Poisoned(p)) => {
                                p.into_inner().insert(session.raw(), from);
                            }
                            // An egress thread holds the map: skip the
                            // refresh rather than blocking the pump; the
                            // session's next datagram re-learns it.
                            Err(TryLockError::WouldBlock) => {}
                        }
                    }
                    out.push(bytes);
                    got += 1;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        Ok(got)
    }

    fn egress(&self) -> Result<Box<dyn EgressSink>, NetError> {
        Ok(Box::new(UdpEgress {
            socket: self.socket.try_clone()?,
            addrs: self.addrs.clone(),
        }))
    }
}

/// Shard-side egress through a cloned handle of the server socket.
struct UdpEgress {
    socket: UdpSocket,
    addrs: AddrMap,
}

impl EgressSink for UdpEgress {
    fn send_batch(&mut self, frames: &[(u32, FrameBuf)]) -> Result<usize, NetError> {
        let mut sent = 0;
        for (session, bytes) in frames {
            let addr = match self.addrs.try_lock() {
                Ok(map) => map.get(session).copied(),
                Err(TryLockError::Poisoned(p)) => p.into_inner().get(session).copied(),
                // The pump holds the map mid-refresh: drop the frame
                // (a channel loss the protocol tolerates) rather than
                // blocking the shard's egress flush.
                Err(TryLockError::WouldBlock) => None,
            };
            // No return address yet (the session has not sent anything):
            // drop, like any unroutable datagram.
            let Some(addr) = addr else { continue };
            match self.socket.send_to(bytes, addr) {
                Ok(_) => sent += 1,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        Ok(sent)
    }
}

/// One session's client endpoint: an ephemeral socket sending its
/// session's frames to the server, implementing the single-session
/// [`Transport`] so the ordinary real-time driver runs unchanged.
pub struct UdpSessionClient {
    socket: UdpSocket,
    server: SocketAddr,
    session: SessionId,
    codec: WireCodec,
    seq: u64,
    stats: TransportStats,
}

impl UdpSessionClient {
    /// Binds an ephemeral loopback socket for `session` talking to
    /// `server`.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if binding fails or the server address does not
    /// resolve.
    pub fn connect(
        server: impl ToSocketAddrs,
        session: SessionId,
        codec: WireCodec,
    ) -> Result<Self, NetError> {
        let server = server
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "empty server address"))?;
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.set_nonblocking(true)?;
        Ok(UdpSessionClient {
            socket,
            server,
            session,
            codec,
            seq: 0,
            stats: TransportStats::default(),
        })
    }
}

impl Transport for UdpSessionClient {
    fn send(&mut self, packet: Packet, sent_at_micros: u64) -> Result<(), NetError> {
        let bytes = self
            .codec
            .encode_with_session(packet, self.seq, sent_at_micros, self.session);
        self.seq += 1;
        match self.socket.send_to(&bytes, self.server) {
            Ok(_) => {
                self.stats.frames_sent += 1;
                Ok(())
            }
            // A full socket buffer under load: the datagram is lost, which
            // the protocols already tolerate (UDP drops are channel drops).
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(NetError::Io(e)),
        }
    }

    fn poll_recv(&mut self) -> Result<Option<Frame>, NetError> {
        let mut buf = [0u8; RECV_BUF];
        loop {
            match self.socket.recv_from(&mut buf) {
                Ok((len, from)) => {
                    if from != self.server {
                        // Not our correspondent; ignore like rstp-net's
                        // single-session UDP transport does.
                        continue;
                    }
                    match decode_any(&buf[..len]) {
                        Ok(frame) if frame.session == self.session => {
                            self.stats.frames_received += 1;
                            return Ok(Some(frame));
                        }
                        Ok(_) | Err(_) => {
                            self.stats.decode_errors += 1;
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    fn local_stats(&self) -> TransportStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstp_net::ProtocolId;
    use std::time::Duration;

    fn codec() -> WireCodec {
        WireCodec::new(ProtocolId::Beta, 4).expect("codec")
    }

    fn recv_all(server: &mut UdpServerTransport, want: usize) -> Vec<FrameBuf> {
        let mut out = Vec::new();
        for _ in 0..200 {
            server.recv_batch(&mut out, 64).expect("recv");
            if out.len() >= want {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        out
    }

    #[test]
    fn datagrams_demux_by_session_and_replies_route_back() {
        let mut server = UdpServerTransport::bind(("127.0.0.1", 0)).expect("bind");
        let addr = server.local_addr().expect("addr");
        let mut a = UdpSessionClient::connect(addr, SessionId::new(1), codec()).expect("client");
        let mut b = UdpSessionClient::connect(addr, SessionId::new(2), codec()).expect("client");
        a.send(Packet::Data(10), 100).expect("send");
        b.send(Packet::Data(20), 200).expect("send");

        let batch = recv_all(&mut server, 2);
        assert_eq!(batch.len(), 2);
        let sessions: Vec<_> = batch.iter().filter_map(|b| peek_session(b)).collect();
        assert!(sessions.contains(&SessionId::new(1)));
        assert!(sessions.contains(&SessionId::new(2)));

        // Reply to session 2 only; only client b sees it.
        let mut sink = server.egress().expect("egress");
        let reply =
            FrameBuf::from(codec().encode_with_session(Packet::Ack(20), 0, 300, SessionId::new(2)));
        assert_eq!(sink.send_batch(&[(2, reply)]).expect("send"), 1);
        let got = loop {
            if let Some(frame) = b.poll_recv().expect("recv") {
                break frame;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(got.packet, Packet::Ack(20));
        assert_eq!(a.poll_recv().expect("recv"), None);
    }

    #[test]
    fn egress_without_a_learned_address_drops() {
        let server = UdpServerTransport::bind(("127.0.0.1", 0)).expect("bind");
        let mut sink = server.egress().expect("egress");
        let orphan =
            FrameBuf::from(codec().encode_with_session(Packet::Ack(1), 0, 0, SessionId::new(42)));
        assert_eq!(sink.send_batch(&[(42, orphan)]).expect("send"), 0);
    }

    #[test]
    fn garbage_datagrams_still_reach_the_batch_for_shard_triage() {
        // recv_batch does not validate — strict decoding happens at the
        // shard so decode errors are counted once, centrally.
        let mut server = UdpServerTransport::bind(("127.0.0.1", 0)).expect("bind");
        let addr = server.local_addr().expect("addr");
        let rogue = UdpSocket::bind(("127.0.0.1", 0)).expect("bind");
        rogue.send_to(&[0xAB; 10], addr).expect("send");
        let batch = recv_all(&mut server, 1);
        assert_eq!(batch.len(), 1);
        assert!(decode_any(&batch[0]).is_err());
    }
}
