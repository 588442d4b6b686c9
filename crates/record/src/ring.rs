//! The bounded, strictly nonblocking byte ring between a shard and its
//! writer thread.
//!
//! Records cross the ring already encoded. A shard encodes its events
//! into its own batch and hands the whole batch over once per loop
//! iteration: one `try_lock`, retried for a small bounded number of
//! spins, under which the batch's bytes are appended to the ring's.
//! Three rules keep the data path unpaced and the accounting exact:
//!
//! * a lock the writer still holds after those spins leaves the batch
//!   with its producer for the next hand-off, so contention neither
//!   loses nor double counts an event;
//! * a batch that would take the ring past its byte cap is shed whole,
//!   and every event in it is counted as dropped;
//! * a batch holding a durable event ([`Event::is_durable`]: the
//!   admission and snapshot anchors crash recovery starts from, and
//!   verdicts) or a stats checkpoint is never shed at the cap.
//!
//! The consumer (the writer thread) is the only side that blocks. It
//! parks until 64 KiB are buffered, a flush barrier is requested or the
//! ring closes, and never longer than 10 ms; then it takes the whole
//! buffer in one swap, so the lock is held for O(1) pointer work, not
//! per-record encoding — which is what makes the producer's bounded spin
//! all but certain to succeed.
//!
//! In steady state nothing is allocated: the ring's buffer and the
//! writer's, each reserved at 128 KiB, trade places at every drain, and
//! the shard's batch keeps its capacity from one hand-off to the next. The hand-off copies the batch, one iteration's events,
//! rather than swapping it in: a swap would hand the shard a ring-sized
//! buffer and leave the ring to regrow the batch's small one, so three
//! ring-sized buffers would circulate instead of two.
//!
//! Lock discipline: `buf` is the ring's only lock and nests under
//! nothing — see `analysis/lock-order.toml`, which tracks this file.
//!
//! [`Event::is_durable`]: crate::format::Event::is_durable

use crate::format::{encode_frame, encode_record, FrameDir, Record};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};
use std::thread::{self, Thread};
use std::time::Duration;

/// Bytes of ring capacity per record of the `cap` passed to [`ring`]: an
/// `Rx`/`Tx` record, the largest frequent kind, encodes to 59.
pub(crate) const RECORD_BYTES: usize = 64;

/// Buffered bytes at which a hand-off wakes the writer. The ring's and
/// the writer's buffers are reserved at twice this.
pub(crate) const WAKE_BYTES: usize = 64 * 1024;

/// The longest the writer parks without a wake: the staleness bound of
/// a quiet recording.
pub(crate) const MAX_PARK: Duration = Duration::from_millis(10);

/// Shared state between the producers ([`RingProducer`]) and the one
/// consumer ([`RingConsumer`]).
struct Shared {
    /// Encoded records awaiting the writer.
    buf: Mutex<Vec<u8>>,
    /// Byte cap on `buf`, durable batches excepted.
    cap: usize,
    recorded: AtomicU64,
    dropped: AtomicU64,
    closed: AtomicBool,
    /// Monotone flush-barrier request counter (see
    /// [`RingProducer::request_sync`]).
    sync_req: AtomicU64,
    /// Highest request token the writer has flushed through to disk.
    sync_ack: AtomicU64,
    /// The writer thread, once it first parks: what a hand-off, a flush
    /// request and `close` wake.
    writer: OnceLock<Thread>,
}

/// The producer-side handle: batch hand-off, single-record push and the
/// file's cumulative counters.
#[derive(Clone)]
pub struct RingProducer {
    shared: Arc<Shared>,
}

/// The writer-side handle: blocking drain, wake-on-volume park and
/// shutdown observation.
pub struct RingConsumer {
    shared: Arc<Shared>,
}

/// Encoded records on their way from one producer to the ring.
#[derive(Debug, Default)]
pub(crate) struct Batch {
    /// The records, back to back.
    bytes: Vec<u8>,
    /// How many of them are events.
    events: u64,
    /// Whether one of them must never be shed.
    durable: bool,
}

impl Batch {
    /// Appends one record. Only events count toward
    /// [`events`](Batch::events); a durable event or any non-event record
    /// (a stats checkpoint) makes the whole batch durable.
    pub fn push(&mut self, rec: &Record) {
        encode_record(rec, &mut self.bytes);
        self.events += u64::from(matches!(rec, Record::Event(_)));
        self.durable |= !sheddable(rec);
    }

    /// Appends one `Rx`/`Tx` event straight from the frame's bytes.
    pub fn push_frame(&mut self, dir: FrameDir, at_micros: u64, session: u32, wire: &[u8]) {
        encode_frame(dir, at_micros, session, wire, &mut self.bytes);
        self.events += 1;
    }

    /// Events in the batch.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// True when nothing was pushed since the last hand-off.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Whether a full ring may shed `rec`: only an event crash recovery can
/// do without.
fn sheddable(rec: &Record) -> bool {
    matches!(rec, Record::Event(ev) if !ev.is_durable())
}

/// What a hand-off did with a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum HandOff {
    /// The ring took the batch; its events count as recorded.
    Taken,
    /// The batch would have passed the byte cap and held nothing
    /// durable: it was discarded, and its events count as dropped.
    Shed,
    /// The lock stayed busy: the batch is untouched, for the next
    /// hand-off.
    Busy,
}

/// Creates a ring bounded at `cap` records' worth of bytes (at least
/// one), 64 bytes each.
#[must_use]
pub fn ring(cap: usize) -> (RingProducer, RingConsumer) {
    let shared = Arc::new(Shared {
        buf: Mutex::new(Vec::with_capacity(2 * WAKE_BYTES)),
        cap: cap.max(1).saturating_mul(RECORD_BYTES),
        recorded: AtomicU64::new(0),
        dropped: AtomicU64::new(0),
        closed: AtomicBool::new(false),
        sync_req: AtomicU64::new(0),
        sync_ack: AtomicU64::new(0),
        writer: OnceLock::new(),
    });
    (
        RingProducer {
            shared: shared.clone(),
        },
        RingConsumer { shared },
    )
}

/// How many times a producer re-tries a contended lock before giving
/// up. The consumer holds the lock for one pointer swap, so a handful of
/// spins rides out any drain that races a hand-off; the bound keeps the
/// path strictly nonblocking even if the writer thread is descheduled
/// mid-swap.
const PUSH_SPINS: u32 = 64;

impl RingProducer {
    /// The lock, after at most `PUSH_SPINS` spins on contention. A
    /// poisoned lock is taken as is: nothing under it can be left half
    /// done by a panic.
    fn try_buf(&self) -> Option<MutexGuard<'_, Vec<u8>>> {
        let mut spins = 0;
        loop {
            match self.shared.buf.try_lock() {
                Ok(q) => return Some(q),
                Err(TryLockError::Poisoned(p)) => return Some(p.into_inner()),
                Err(TryLockError::WouldBlock) if spins < PUSH_SPINS => {
                    spins += 1;
                    std::hint::spin_loop();
                }
                Err(TryLockError::WouldBlock) => return None,
            }
        }
    }

    /// Hands `batch` to the ring under one bounded `try_lock` (see the
    /// [module docs](self) for the three outcomes). A taken or shed batch
    /// comes back empty, keeping its capacity; a busy lock leaves it as
    /// it was. Never blocks.
    pub(crate) fn hand_off(&self, batch: &mut Batch) -> HandOff {
        match self.try_buf() {
            Some(mut q) => self.accept(&mut q, batch),
            None => HandOff::Busy,
        }
    }

    /// [`hand_off`](RingProducer::hand_off), but waiting out a held lock
    /// (the writer holds it for one swap), so the result is never
    /// [`HandOff::Busy`]. For a producer that is exiting and for crash
    /// recovery — never the per-frame path.
    pub(crate) fn hand_off_blocking(&self, batch: &mut Batch) -> HandOff {
        let mut q = self
            .shared
            .buf
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.accept(&mut q, batch)
    }

    /// Appends `batch` to the locked ring and empties it.
    fn accept(&self, q: &mut Vec<u8>, batch: &mut Batch) -> HandOff {
        let start = q.len();
        q.extend_from_slice(&batch.bytes);
        batch.bytes.clear();
        let kept = self.settle(q, start, batch.events, batch.durable);
        batch.events = 0;
        batch.durable = false;
        if kept {
            HandOff::Taken
        } else {
            HandOff::Shed
        }
    }

    /// Keeps what was appended to the locked ring past `start`, or, when
    /// it takes the ring past the cap and holds nothing durable, cuts it
    /// off again; counts `events` either way and wakes the writer once
    /// the ring reaches [`WAKE_BYTES`].
    fn settle(&self, q: &mut Vec<u8>, start: usize, events: u64, durable: bool) -> bool {
        if q.len() > self.shared.cap && !durable {
            q.truncate(start);
            self.shared.dropped.fetch_add(events, Ordering::Relaxed);
            return false;
        }
        self.shared.recorded.fetch_add(events, Ordering::Relaxed);
        if start < WAKE_BYTES && q.len() >= WAKE_BYTES {
            self.wake_writer();
        }
        true
    }

    /// Offers one record, encoded in place under the lock: a batch of
    /// one, without the batch. Returns `true` if it was accepted. A
    /// contended lock (after the bounded spins) or a full ring drops it;
    /// only events are counted, in [`recorded`] or [`dropped`]. This
    /// never blocks and allocates only as the ring's buffer grows.
    ///
    /// [`recorded`]: RingProducer::recorded
    /// [`dropped`]: RingProducer::dropped
    pub fn push(&self, rec: Record) -> bool {
        let events = u64::from(matches!(rec, Record::Event(_)));
        let Some(mut q) = self.try_buf() else {
            self.shared.dropped.fetch_add(events, Ordering::Relaxed);
            return false;
        };
        let start = q.len();
        encode_record(&rec, &mut q);
        self.settle(&mut q, start, events, !sheddable(&rec))
    }

    /// Events the ring accepted so far, from every producer of this file.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.shared.recorded.load(Ordering::Relaxed)
    }

    /// Events the ring shed so far, from every producer of this file.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Signals the consumer that no further events will arrive.
    pub fn close(&self) {
        self.shared.closed.store(true, Ordering::Release);
        self.wake_writer();
    }

    /// Requests a flush barrier: returns a token that
    /// [`sync_done`](RingProducer::sync_done) reports once every record
    /// handed over *before* this call has been drained and written to
    /// disk by the writer. Used by crash recovery, which must read a
    /// shard's file while the writer is still alive. Never blocks.
    pub fn request_sync(&self) -> u64 {
        let token = self.shared.sync_req.fetch_add(1, Ordering::AcqRel) + 1;
        self.wake_writer();
        token
    }

    /// True once the writer has flushed through barrier `token`.
    #[must_use]
    pub fn sync_done(&self, token: u64) -> bool {
        self.shared.sync_ack.load(Ordering::Acquire) >= token
    }

    fn wake_writer(&self) {
        if let Some(writer) = self.shared.writer.get() {
            writer.unpark();
        }
    }
}

impl RingConsumer {
    /// Moves every buffered byte to the end of `out`. When `out` is
    /// empty, as the writer's always is, the two buffers are swapped and
    /// the lock is held for O(1) pointer work, so a racing producer's
    /// bounded `try_lock` spin wins; otherwise the bytes are appended. A
    /// poisoned lock degrades to draining whatever is there.
    pub fn drain(&mut self, out: &mut Vec<u8>) {
        let mut q = self
            .shared
            .buf
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if out.is_empty() {
            std::mem::swap(&mut *q, out);
        } else {
            out.append(&mut q);
        }
    }

    /// Parks the calling thread, the writer, until a hand-off brings the
    /// ring to 64 KiB, a flush barrier is requested, the ring closes, or
    /// 10 ms pass. The first call registers the caller as the thread
    /// those events wake; a wake that comes while the writer is busy
    /// makes its next park return at once.
    pub fn park(&self) {
        self.shared.writer.get_or_init(thread::current);
        thread::park_timeout(MAX_PARK);
    }

    /// True once the producer closed the ring; buffered records may
    /// still need a final [`drain`](RingConsumer::drain).
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }

    /// The latest outstanding flush-barrier token, or `None` when every
    /// request has been acknowledged. The writer samples this *before*
    /// draining, so every record that preceded the request is in hand
    /// when it acknowledges.
    #[must_use]
    pub fn pending_sync(&self) -> Option<u64> {
        let req = self.shared.sync_req.load(Ordering::Acquire);
        (req > self.shared.sync_ack.load(Ordering::Acquire)).then_some(req)
    }

    /// Acknowledges flush barrier `token` (after writing to disk).
    pub fn ack_sync(&self, token: u64) {
        self.shared.sync_ack.fetch_max(token, Ordering::AcqRel);
    }

    /// Counter snapshot `(recorded, dropped)`.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (
            self.shared.recorded.load(Ordering::Relaxed),
            self.shared.dropped.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{decode_record, Event, RecStats};

    fn ev(session: u32) -> Record {
        Record::Event(Event::DeadlineMiss {
            at_micros: 1,
            session,
            due_tick: 2,
        })
    }

    /// Bytes one `ev` record encodes to.
    fn ev_len() -> usize {
        let mut b = Vec::new();
        encode_record(&ev(0), &mut b);
        b.len()
    }

    fn batch_of(sessions: std::ops::Range<u32>) -> Batch {
        let mut b = Batch::default();
        for s in sessions {
            b.push(&ev(s));
        }
        b
    }

    /// The sessions of every `ev` record in `bytes`, in order.
    fn sessions(mut bytes: &[u8]) -> Vec<u32> {
        let mut out = Vec::new();
        while !bytes.is_empty() {
            let (rec, used) = decode_record(bytes).unwrap();
            out.push(match rec {
                Record::Event(Event::DeadlineMiss { session, .. }) => session,
                _ => u32::MAX,
            });
            bytes = &bytes[used..];
        }
        out
    }

    #[test]
    fn push_then_drain_preserves_order() {
        let (tx, mut rx) = ring(8);
        for i in 0..5 {
            assert!(tx.push(ev(i)));
        }
        let mut out = Vec::new();
        rx.drain(&mut out);
        assert_eq!(sessions(&out), vec![0, 1, 2, 3, 4]);
        assert_eq!(tx.recorded(), 5);
        assert_eq!(tx.dropped(), 0);
    }

    #[test]
    fn full_ring_drops_newest_and_counts() {
        // Room for `fit` records' bytes.
        let (tx, mut rx) = ring(1);
        let fit = RECORD_BYTES / ev_len();
        for i in 0..fit {
            assert!(tx.push(ev(i as u32)));
        }
        assert!(!tx.push(ev(98)));
        assert!(!tx.push(ev(99)));
        assert_eq!(tx.recorded(), fit as u64);
        assert_eq!(tx.dropped(), 2);
        let mut out = Vec::new();
        rx.drain(&mut out);
        assert_eq!(sessions(&out).len(), fit);
        // Room again after the drain; a stats record is not an event.
        assert!(tx.push(Record::Stats(RecStats::default())));
        assert_eq!(tx.recorded(), fit as u64);
    }

    #[test]
    fn batches_append_in_order_and_count_their_events() {
        let (tx, mut rx) = ring(64);
        let mut a = batch_of(0..3);
        let mut b = batch_of(3..5);
        assert_eq!(tx.hand_off(&mut a), HandOff::Taken);
        assert_eq!(tx.hand_off(&mut b), HandOff::Taken);
        assert!(a.is_empty() && b.is_empty());
        assert_eq!((a.events(), b.events()), (0, 0));
        let mut out = Vec::new();
        rx.drain(&mut out);
        assert_eq!(sessions(&out), vec![0, 1, 2, 3, 4]);
        assert_eq!(rx.counters(), (5, 0));
    }

    #[test]
    fn a_batch_past_the_byte_cap_is_shed_whole_and_counted_by_its_events() {
        let (tx, mut rx) = ring(1);
        let per = RECORD_BYTES / ev_len();
        let mut first = batch_of(0..per as u32);
        assert_eq!(tx.hand_off(&mut first), HandOff::Taken);
        // One more record would pass the cap, so all three go, and the
        // ring keeps exactly what it had.
        let mut over = batch_of(10..13);
        assert_eq!(tx.hand_off(&mut over), HandOff::Shed);
        assert!(over.is_empty());
        assert_eq!(rx.counters(), (per as u64, 3));
        let mut out = Vec::new();
        rx.drain(&mut out);
        assert_eq!(sessions(&out).len(), per);
        // A batch that alone exceeds the cap never fits.
        let mut huge = batch_of(0..2 * per as u32 + 1);
        assert_eq!(tx.hand_off(&mut huge), HandOff::Shed);
        assert_eq!(rx.counters(), (per as u64, 3 + 2 * per as u64 + 1));
    }

    #[test]
    fn a_batch_holding_a_durable_event_is_never_shed() {
        let (tx, mut rx) = ring(1);
        let mut fill = batch_of(0..(RECORD_BYTES / ev_len()) as u32);
        assert_eq!(tx.hand_off(&mut fill), HandOff::Taken);
        let mut anchored = batch_of(20..22);
        anchored.push(&Record::Event(Event::Verdict {
            at_micros: 3,
            session: 22,
            completed: true,
            written: vec![true; 64],
        }));
        assert_eq!(tx.hand_off(&mut anchored), HandOff::Taken);
        // A stats checkpoint is durable too; durability is per batch.
        let mut checkpoint = Batch::default();
        checkpoint.push(&Record::Stats(RecStats::default()));
        assert_eq!(tx.hand_off(&mut checkpoint), HandOff::Taken);
        let mut plain = batch_of(30..31);
        assert_eq!(tx.hand_off(&mut plain), HandOff::Shed);
        assert_eq!(rx.counters().1, 1);
        let mut out = Vec::new();
        rx.drain(&mut out);
        let got = sessions(&out);
        assert_eq!(&got[got.len() - 4..got.len() - 1], &[20, 21, u32::MAX]);
        // A single pushed durable record passes the cap the same way.
        assert!(tx.push(Record::Event(Event::Admit {
            at_micros: 1,
            session: 1,
            kind: rstp_sim::ProtocolKind::Alpha,
            n: 1,
        })));
    }

    #[test]
    fn a_held_lock_keeps_the_batch_for_the_next_hand_off() {
        let (tx, mut rx) = ring(64);
        let mut batch = batch_of(0..4);
        let before = batch.bytes.clone();
        // Hold the consumer side of the lock across a hand-off: the
        // producer gives up after its bounded spins, not waiting, and
        // neither loses nor counts anything.
        let guard = rx.shared.buf.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(tx.hand_off(&mut batch), HandOff::Busy);
        assert!(!tx.push(ev(9)));
        drop(guard);
        assert_eq!(batch.bytes, before);
        assert_eq!(batch.events(), 4);
        assert_eq!(rx.counters(), (0, 1));
        // The next iteration's events join the kept ones, and one
        // hand-off delivers both exactly once.
        batch.push(&ev(4));
        assert_eq!(tx.hand_off(&mut batch), HandOff::Taken);
        let mut out = Vec::new();
        rx.drain(&mut out);
        assert_eq!(sessions(&out), vec![0, 1, 2, 3, 4]);
        assert_eq!(rx.counters(), (5, 1));
    }

    #[test]
    fn sync_barrier_handshake_round_trips() {
        let (tx, rx) = ring(4);
        assert_eq!(rx.pending_sync(), None);
        let t1 = tx.request_sync();
        assert_eq!(t1, 1);
        assert!(!tx.sync_done(t1));
        assert_eq!(rx.pending_sync(), Some(1));
        rx.ack_sync(t1);
        assert!(tx.sync_done(t1));
        assert_eq!(rx.pending_sync(), None);
        // A second request issues a fresh, higher token.
        let t2 = tx.request_sync();
        assert_eq!(t2, 2);
        assert!(!tx.sync_done(t2));
        // A stale (smaller) ack never regresses the barrier.
        rx.ack_sync(t1);
        assert!(!tx.sync_done(t2));
        rx.ack_sync(t2);
        assert!(tx.sync_done(t2));
    }

    #[test]
    fn close_is_visible_to_the_consumer() {
        let (tx, mut rx) = ring(4);
        assert!(!rx.is_closed());
        tx.push(ev(9));
        tx.close();
        assert!(rx.is_closed());
        let mut out = Vec::new();
        rx.drain(&mut out);
        assert_eq!(sessions(&out), vec![9]);
        assert_eq!(rx.counters(), (1, 0));
    }
}
