//! The multi-session server loop over one UDP socket.
//!
//! One bound socket carries every session; datagrams are demultiplexed
//! by each frame's session id. The server learns each session's return
//! address from the datagrams it sees (the cheap [`peek_session`]
//! probe — the ingress pass's full decode validates every frame), and shard
//! egress replies through a cloned handle of the same socket, so the
//! data path never funnels through a shared lock beyond the address map.

use crate::hub::lock_without_parking;
use crate::server::{EgressSink, ServeTransport};
use rstp_net::{peek_session, FrameBuf, NetError, FRAME_BUF_CAP};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::{Arc, Mutex};

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
                    // An egress thread may hold the map for a lookup:
                    // wait it out without parking. Skipping the refresh
                    // would lose every reply to a session that has sent
                    // only this datagram.
                    if let Some(session) = peek_session(&bytes) {
                        if let Some(mut map) = lock_without_parking(&self.addrs) {
                            map.insert(session.raw(), from);
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
            // A pass may hold the map mid-refresh: wait it out without
            // parking. Dropping the frame instead would lose an ack that
            // γ never resends (§6.2 assumes a lossless channel).
            let addr = lock_without_parking(&self.addrs).and_then(|map| map.get(session).copied());
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

#[cfg(test)]
mod tests {
    use super::*;
    use rstp_core::{Packet, SessionId};
    use rstp_net::{decode_any, Frame, ProtocolId, Transport, UdpTransport, WireCodec};
    use std::sync::mpsc::sync_channel;
    use std::thread;
    use std::time::Duration;

    fn codec() -> WireCodec {
        WireCodec::new(ProtocolId::Beta, 4).expect("codec")
    }

    fn client(server: SocketAddr, session: u32) -> UdpTransport {
        UdpTransport::bind(codec(), SessionId::new(session), ("127.0.0.1", 0), server)
            .expect("client")
    }

    fn reply(session: u32, packet: Packet) -> (u32, FrameBuf) {
        let bytes = codec().encode_with_session(packet, 0, 300, SessionId::new(session));
        (session, FrameBuf::from(bytes))
    }

    fn poll_until_frame(end: &mut UdpTransport) -> Frame {
        loop {
            if let Some(frame) = end.poll_recv().expect("recv") {
                return frame;
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    fn recv_all(server: &mut UdpServerTransport, want: usize) -> Vec<FrameBuf> {
        let mut out = Vec::new();
        for _ in 0..200 {
            server.recv_batch(&mut out, 64).expect("recv");
            if out.len() >= want {
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        out
    }

    #[test]
    fn datagrams_demux_by_session_and_replies_route_back() {
        let mut server = UdpServerTransport::bind(("127.0.0.1", 0)).expect("bind");
        let addr = server.local_addr().expect("addr");
        let mut a = client(addr, 1);
        let mut b = client(addr, 2);
        a.send(Packet::Data(10), 100).expect("send");
        b.send(Packet::Data(20), 200).expect("send");

        let batch = recv_all(&mut server, 2);
        assert_eq!(batch.len(), 2);
        let sessions: Vec<_> = batch.iter().filter_map(|b| peek_session(b)).collect();
        assert!(sessions.contains(&SessionId::new(1)));
        assert!(sessions.contains(&SessionId::new(2)));

        // Reply to session 2 only; only client b sees it.
        let mut sink = server.egress().expect("egress");
        assert_eq!(
            sink.send_batch(&[reply(2, Packet::Ack(20))]).expect("send"),
            1
        );
        assert_eq!(poll_until_frame(&mut b).packet, Packet::Ack(20));
        assert_eq!(a.poll_recv().expect("recv"), None);
    }

    #[test]
    fn a_reply_waits_out_a_held_address_map() {
        let mut server = UdpServerTransport::bind(("127.0.0.1", 0)).expect("bind");
        let mut end = client(server.local_addr().expect("addr"), 1);
        end.send(Packet::Data(10), 100).expect("send");
        assert_eq!(recv_all(&mut server, 1).len(), 1);
        let mut sink = server.egress().expect("egress");

        // Another thread holds the address map for about a millisecond
        // while egress sends an ack, which gamma never resends.
        let addrs = Arc::clone(&server.addrs);
        let (held_tx, held_rx) = sync_channel(0);
        let holder = thread::spawn(move || {
            let _map = addrs.lock().expect("lock");
            held_tx.send(()).expect("signal");
            thread::sleep(Duration::from_millis(1));
        });
        held_rx.recv().expect("map held");
        assert_eq!(
            sink.send_batch(&[reply(1, Packet::Ack(10))]).expect("send"),
            1
        );
        holder.join().expect("holder");
        assert_eq!(poll_until_frame(&mut end).packet, Packet::Ack(10));
    }

    #[test]
    fn egress_without_a_learned_address_drops() {
        let server = UdpServerTransport::bind(("127.0.0.1", 0)).expect("bind");
        let mut sink = server.egress().expect("egress");
        assert_eq!(
            sink.send_batch(&[reply(42, Packet::Ack(1))]).expect("send"),
            0
        );
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
