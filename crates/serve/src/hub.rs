//! The loopback transport: many clients, one server, zero sockets.
//!
//! A [`MemHub`] is a shared mailbox fabric. Every client pushes encoded
//! frames into one central server inbox; the server drains that inbox
//! in whole batches (one lock acquisition per batch, the in-process
//! analogue of `recvmmsg`), and shard egress pushes reply frames into
//! per-client inboxes keyed by session id. [`HubClientTransport`] adapts
//! a client's view of the hub to the ordinary [`Transport`] trait, so
//! `rstp-net`'s driver loop runs clients over it unchanged.
//!
//! The hub is lossless: a frame is only ever dropped for a session no
//! client registered. Egress never parks on a lock (the shard must not
//! block), so a contended lock is retried with `try_lock` and
//! `yield_now` until its holder lets go.

use crate::idmap::IdMap;
use crate::server::{EgressSink, ServeTransport};
use rstp_core::{Packet, SessionId};
use rstp_net::{decode_any, Frame, FrameBuf, NetError, Transport, TransportStats, WireCodec};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread;

type Inbox = Arc<Mutex<VecDeque<FrameBuf>>>;

/// `try_lock` attempts, a `yield_now` apart, before egress gives up on a
/// contended lock. Every holder keeps its lock for a queue operation, so
/// the bound is only reached when a holder is descheduled for tens of
/// milliseconds.
const LOCK_ATTEMPTS: u32 = 1 << 16;

/// Takes `lock` without parking: retries a contended lock, yielding the
/// CPU in between, up to [`LOCK_ATTEMPTS`] times. A poisoned lock still
/// guards plain bytes, so its data is recovered.
pub(crate) fn lock_without_parking<T>(lock: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    for _ in 0..LOCK_ATTEMPTS {
        match lock.try_lock() {
            Ok(guard) => return Some(guard),
            Err(TryLockError::Poisoned(p)) => return Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => thread::yield_now(),
        }
    }
    None
}

/// The shared loopback fabric joining one server to many clients.
#[derive(Clone, Default)]
pub struct MemHub {
    /// All client → server datagrams, in arrival order.
    server_inbox: Inbox,
    /// Per-session client inboxes for server → client datagrams.
    clients: Arc<Mutex<HashMap<u32, Inbox>>>,
}

impl MemHub {
    /// An empty hub.
    #[must_use]
    pub fn new() -> Self {
        MemHub::default()
    }

    /// Registers a client for `session` and returns its [`Transport`]
    /// endpoint. Frames the client sends carry `session` as their session
    /// id; frames the server addresses to `session` land in this client's
    /// inbox.
    #[must_use]
    pub fn client_transport(&self, session: SessionId, codec: WireCodec) -> HubClientTransport {
        let inbox: Inbox = Arc::default();
        self.clients
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(session.raw(), inbox.clone());
        HubClientTransport {
            session,
            codec,
            seq: 0,
            server_inbox: self.server_inbox.clone(),
            inbox,
            stats: TransportStats::default(),
        }
    }
}

impl ServeTransport for MemHub {
    fn recv_batch(&mut self, out: &mut Vec<FrameBuf>, max: usize) -> Result<usize, NetError> {
        // Nonblocking, like a socket: a contended inbox yields an empty
        // batch and the next pass retries, instead of parking a shard
        // behind a client mid-push. A poisoned mutex means some peer
        // thread panicked while holding it; the queue holds plain bytes,
        // so recover the data and keep serving the surviving sessions.
        let mut inbox = match self.server_inbox.try_lock() {
            Ok(inbox) => inbox,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return Ok(0),
        };
        let take = inbox.len().min(max);
        out.extend(inbox.drain(..take));
        Ok(take)
    }

    fn egress(&self) -> Result<Box<dyn EgressSink>, NetError> {
        Ok(Box::new(HubEgress {
            clients: self.clients.clone(),
            cached: IdMap::default(),
        }))
    }
}

/// Shard-side egress into the per-client inboxes.
struct HubEgress {
    clients: Arc<Mutex<HashMap<u32, Inbox>>>,
    /// Sessions are pinned to one shard, so each egress handle caches the
    /// inboxes it has resolved and touches the shared map only on first
    /// contact with a session.
    cached: IdMap<Inbox>,
}

impl EgressSink for HubEgress {
    fn send_batch(&mut self, frames: &[(u32, FrameBuf)]) -> Result<usize, NetError> {
        let mut delivered = 0;
        for (session, bytes) in frames {
            let inbox = match self.cached.entry(*session) {
                Entry::Occupied(cached) => cached.into_mut(),
                Entry::Vacant(slot) => {
                    // First contact with a session: resolve its inbox from
                    // the shared map, which another shard may hold for its
                    // own first contact.
                    let Some(map) = lock_without_parking(&self.clients) else {
                        continue;
                    };
                    // A frame for a client that never registered is
                    // dropped: the hub mirrors UDP, not TCP.
                    let Some(inbox) = map.get(session) else {
                        continue;
                    };
                    slot.insert(Arc::clone(inbox))
                }
            };
            // The client may be mid-poll on its own inbox.
            let Some(mut queue) = lock_without_parking(inbox) else {
                continue;
            };
            queue.push_back(*bytes);
            delivered += 1;
        }
        Ok(delivered)
    }
}

/// One client's [`Transport`] endpoint over a [`MemHub`].
pub struct HubClientTransport {
    session: SessionId,
    codec: WireCodec,
    seq: u64,
    server_inbox: Inbox,
    inbox: Inbox,
    stats: TransportStats,
}

impl Transport for HubClientTransport {
    fn send(&mut self, packet: Packet, sent_at_micros: u64) -> Result<(), NetError> {
        let bytes = self
            .codec
            .encode_with_session(packet, self.seq, sent_at_micros, self.session);
        self.seq += 1;
        self.server_inbox
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(bytes.into());
        self.stats.frames_sent += 1;
        Ok(())
    }

    fn poll_recv(&mut self) -> Result<Option<Frame>, NetError> {
        loop {
            let bytes = {
                let mut inbox = self.inbox.lock().unwrap_or_else(PoisonError::into_inner);
                match inbox.pop_front() {
                    Some(bytes) => bytes,
                    None => return Ok(None),
                }
            };
            match decode_any(&bytes) {
                Ok(frame) if frame.session == self.session => {
                    self.stats.frames_received += 1;
                    return Ok(Some(frame));
                }
                // Misrouted or malformed: drop and keep draining. The
                // server only writes to the inbox it resolved by id, so
                // this is defence in depth, not an expected path.
                Ok(_) | Err(_) => {
                    self.stats.decode_errors += 1;
                }
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
    use rstp_net::ProtocolId;

    fn codec() -> WireCodec {
        WireCodec::new(ProtocolId::Beta, 4).expect("codec")
    }

    #[test]
    fn client_sends_land_in_the_server_inbox_with_their_session() {
        let mut hub = MemHub::new();
        let mut a = hub.client_transport(SessionId::new(7), codec());
        let mut b = hub.client_transport(SessionId::new(9), codec());
        a.send(Packet::Data(1), 100).expect("send");
        b.send(Packet::Data(2), 200).expect("send");

        let mut batch = Vec::new();
        let got = hub.recv_batch(&mut batch, 16).expect("drain");
        assert_eq!(got, 2);
        let f0 = decode_any(&batch[0]).expect("frame");
        let f1 = decode_any(&batch[1]).expect("frame");
        assert_eq!(f0.session, SessionId::new(7));
        assert_eq!(f1.session, SessionId::new(9));
        assert_eq!(f0.packet, Packet::Data(1));
    }

    #[test]
    fn recv_batch_respects_the_batch_cap() {
        let mut hub = MemHub::new();
        let mut a = hub.client_transport(SessionId::new(1), codec());
        for i in 0..10 {
            a.send(Packet::Data(i), 0).expect("send");
        }
        let mut batch = Vec::new();
        assert_eq!(hub.recv_batch(&mut batch, 4).expect("drain"), 4);
        assert_eq!(hub.recv_batch(&mut batch, 100).expect("drain"), 6);
        assert_eq!(batch.len(), 10);
    }

    #[test]
    fn egress_routes_by_session_and_drops_unknown_clients() {
        let hub = MemHub::new();
        let mut a = hub.client_transport(SessionId::new(3), codec());
        let mut sink = hub.egress().expect("egress");
        let frame =
            FrameBuf::from(codec().encode_with_session(Packet::Ack(5), 0, 42, SessionId::new(3)));
        let stranger =
            FrameBuf::from(codec().encode_with_session(Packet::Ack(5), 0, 42, SessionId::new(99)));
        let delivered = sink
            .send_batch(&[(3, frame), (99, stranger)])
            .expect("send");
        assert_eq!(delivered, 1);
        let got = a.poll_recv().expect("recv").expect("frame");
        assert_eq!(got.packet, Packet::Ack(5));
        assert_eq!(a.poll_recv().expect("recv"), None);
    }

    /// Holds `lock` on another thread for a millisecond, returning once
    /// it is held; the handle joins after the release.
    fn hold<T: Send + 'static>(lock: Arc<Mutex<T>>) -> thread::JoinHandle<()> {
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let holder = thread::spawn(move || {
            let _guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
            held_tx.send(()).expect("signal");
            thread::sleep(std::time::Duration::from_millis(1));
        });
        held_rx.recv().expect("held");
        holder
    }

    fn ack_for(session: u32) -> FrameBuf {
        let id = SessionId::new(session);
        FrameBuf::from(codec().encode_with_session(Packet::Ack(1), 0, 0, id))
    }

    #[test]
    fn egress_waits_out_a_held_session_map() {
        let hub = MemHub::new();
        let mut a = hub.client_transport(SessionId::new(3), codec());
        let mut sink = hub.egress().expect("egress");
        let holder = hold(Arc::clone(&hub.clients));
        assert_eq!(sink.send_batch(&[(3, ack_for(3))]).expect("send"), 1);
        holder.join().expect("holder");
        assert_eq!(
            a.poll_recv().expect("recv").map(|f| f.packet),
            Some(Packet::Ack(1))
        );
    }

    #[test]
    fn egress_waits_out_a_held_client_inbox() {
        let hub = MemHub::new();
        let mut a = hub.client_transport(SessionId::new(3), codec());
        let mut sink = hub.egress().expect("egress");
        // First contact caches the inbox; the second frame meets it held.
        assert_eq!(sink.send_batch(&[(3, ack_for(3))]).expect("send"), 1);
        let holder = hold(Arc::clone(&a.inbox));
        assert_eq!(sink.send_batch(&[(3, ack_for(3))]).expect("send"), 1);
        holder.join().expect("holder");
        assert!(a.poll_recv().expect("recv").is_some());
        assert!(a.poll_recv().expect("recv").is_some());
        assert_eq!(a.poll_recv().expect("recv"), None);
    }

    #[test]
    fn client_drops_misrouted_frames() {
        let hub = MemHub::new();
        let mut a = hub.client_transport(SessionId::new(3), codec());
        let mut sink = hub.egress().expect("egress");
        // A frame whose body says session 8 pushed into client 3's inbox.
        let lying =
            FrameBuf::from(codec().encode_with_session(Packet::Ack(1), 0, 0, SessionId::new(8)));
        sink.send_batch(&[(3, lying)]).expect("send");
        assert_eq!(a.poll_recv().expect("recv"), None);
        assert_eq!(a.local_stats().decode_errors, 1);
    }
}
