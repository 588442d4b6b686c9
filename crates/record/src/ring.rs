//! The bounded, strictly nonblocking event ring between a shard and its
//! writer thread.
//!
//! The data-path contract is absolute: recording must never pace the
//! shard. The producer side therefore takes the buffer lock only with
//! `try_lock`, retried for a small bounded number of spins — if the
//! writer still holds it after those, or the ring is at capacity, the
//! event is *dropped and counted*, never queued against a blocked
//! lock. The consumer (the writer thread) is the only side that
//! blocks; it drains the whole buffer in one swap so the lock is held
//! for O(1) pointer work, not per-record encoding — which is what
//! makes the producer's bounded spin all but certain to succeed.
//!
//! Lock discipline: `buf` is the ring's only lock and nests under
//! nothing — see `analysis/lock-order.toml`, which tracks this file.

use crate::format::Record;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Shared state between one producer ([`RingProducer`]) and one
/// consumer ([`RingConsumer`]).
struct Shared {
    buf: Mutex<VecDeque<Record>>,
    cap: usize,
    recorded: AtomicU64,
    dropped: AtomicU64,
    closed: AtomicBool,
    /// Monotone flush-barrier request counter (see
    /// [`RingProducer::request_sync`]).
    sync_req: AtomicU64,
    /// Highest request token the writer has flushed through to disk.
    sync_ack: AtomicU64,
}

/// The shard-side handle: nonblocking push plus the counters.
#[derive(Clone)]
pub struct RingProducer {
    shared: Arc<Shared>,
}

/// The writer-side handle: blocking drain plus shutdown observation.
pub struct RingConsumer {
    shared: Arc<Shared>,
    /// Drain target swapped against `buf` under the lock, so the lock
    /// hold is one pointer swap regardless of how many records are
    /// pending. Warm after the first cycle — both deques keep their
    /// grown capacity.
    scratch: VecDeque<Record>,
}

/// Creates a ring bounded at `cap` records (at least 1).
#[must_use]
pub fn ring(cap: usize) -> (RingProducer, RingConsumer) {
    let shared = Arc::new(Shared {
        buf: Mutex::new(VecDeque::with_capacity(cap.clamp(1, 4096))),
        cap: cap.max(1),
        recorded: AtomicU64::new(0),
        dropped: AtomicU64::new(0),
        closed: AtomicBool::new(false),
        sync_req: AtomicU64::new(0),
        sync_ack: AtomicU64::new(0),
    });
    let scratch = VecDeque::with_capacity(cap.clamp(1, 4096));
    (
        RingProducer {
            shared: shared.clone(),
        },
        RingConsumer { shared, scratch },
    )
}

/// How many times `push` re-tries a contended lock before shedding.
/// The consumer holds the lock for one pointer swap, so a handful of
/// spins rides out any drain that races a push; the bound keeps the
/// path strictly nonblocking even if the writer thread is descheduled
/// mid-swap.
const PUSH_SPINS: u32 = 64;

/// How many scheduler yields [`push_insist`](RingProducer::push_insist)
/// spends on top of its spins. Spins ride out a live swap; yields ride
/// out a writer thread *descheduled* mid-swap, which a spin never
/// outlasts on a loaded box. Still strictly bounded.
const INSIST_YIELDS: u32 = 64;

impl RingProducer {
    /// One bounded acceptance attempt: spins through a contended lock,
    /// hands the record back on a full ring or exhausted spins. Counts
    /// nothing on failure — the callers decide whether to retry or
    /// shed.
    fn offer(&self, rec: Record) -> Result<(), Record> {
        let mut spins = 0;
        loop {
            match self.shared.buf.try_lock() {
                Ok(mut q) => {
                    if q.len() < self.shared.cap {
                        q.push_back(rec);
                        drop(q);
                        self.shared.recorded.fetch_add(1, Ordering::Relaxed);
                        return Ok(());
                    }
                    // Full: only the writer's own drain cadence frees
                    // space, far beyond what a spin can wait out.
                    return Err(rec);
                }
                Err(_) if spins < PUSH_SPINS => {
                    spins += 1;
                    std::hint::spin_loop();
                }
                Err(_) => return Err(rec),
            }
        }
    }

    /// Offers one record. Returns `true` if it was accepted. A full
    /// ring drops the record immediately; a contended lock is retried
    /// for at most `PUSH_SPINS` spin hints (the consumer holds it
    /// only for a pointer swap) before the record is likewise dropped.
    /// Every drop is counted in [`dropped`]. This never blocks and
    /// never allocates beyond the deque's growth toward its fixed
    /// capacity.
    ///
    /// [`dropped`]: RingProducer::dropped
    pub fn push(&self, rec: Record) -> bool {
        if self.offer(rec).is_ok() {
            return true;
        }
        self.shared.dropped.fetch_add(1, Ordering::Relaxed);
        false
    }

    /// Offers one record that the caller cannot afford to shed (crash
    /// recovery's admission / snapshot anchors and final verdicts).
    /// Retries [`push`](RingProducer::push)'s bounded attempt across up
    /// to `INSIST_YIELDS` scheduler yields, so a writer descheduled
    /// while holding the lock no longer forces a drop. Bounded and
    /// lock-free like `push`, but willing to spend scheduler quanta —
    /// keep it off the per-frame data path.
    pub fn push_insist(&self, rec: Record) -> bool {
        let mut rec = rec;
        for _ in 0..INSIST_YIELDS {
            match self.offer(rec) {
                Ok(()) => return true,
                Err(back) => rec = back,
            }
            std::thread::yield_now();
        }
        if self.offer(rec).is_ok() {
            return true;
        }
        self.shared.dropped.fetch_add(1, Ordering::Relaxed);
        false
    }

    /// Events accepted into the ring so far.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.shared.recorded.load(Ordering::Relaxed)
    }

    /// Events dropped at the ring so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Signals the consumer that no further events will arrive.
    pub fn close(&self) {
        self.shared.closed.store(true, Ordering::Release);
    }

    /// Requests a flush barrier: returns a token that
    /// [`sync_done`](RingProducer::sync_done) reports once every record
    /// pushed *before* this call has been drained, encoded, and flushed
    /// to disk by the writer. Used by crash recovery, which must read a
    /// shard's file while the writer is still alive. Never blocks.
    pub fn request_sync(&self) -> u64 {
        self.shared.sync_req.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// True once the writer has flushed through barrier `token`.
    #[must_use]
    pub fn sync_done(&self, token: u64) -> bool {
        self.shared.sync_ack.load(Ordering::Acquire) >= token
    }
}

impl RingConsumer {
    /// Moves every buffered record into `out`. The lock is held for
    /// exactly one pointer swap — O(1) no matter how many records are
    /// pending, so a racing producer's bounded `try_lock` spin wins. A
    /// poisoned lock (a panicked producer mid-push, which cannot
    /// happen — push performs no fallible work under the lock)
    /// degrades to draining whatever is there.
    pub fn drain(&mut self, out: &mut Vec<Record>) {
        {
            let mut q = self
                .shared
                .buf
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::swap(&mut *q, &mut self.scratch);
        }
        out.extend(self.scratch.drain(..));
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

    /// Acknowledges flush barrier `token` (after flushing to disk).
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
    use crate::format::{Event, RecStats};

    fn ev(session: u32) -> Record {
        Record::Event(Event::DeadlineMiss {
            at_micros: 1,
            session,
            due_tick: 2,
        })
    }

    #[test]
    fn push_then_drain_preserves_order() {
        let (tx, mut rx) = ring(8);
        for i in 0..5 {
            assert!(tx.push(ev(i)));
        }
        let mut out = Vec::new();
        rx.drain(&mut out);
        let ids: Vec<u32> = out
            .iter()
            .map(|r| match r {
                Record::Event(Event::DeadlineMiss { session, .. }) => *session,
                _ => u32::MAX,
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(tx.recorded(), 5);
        assert_eq!(tx.dropped(), 0);
    }

    #[test]
    fn full_ring_drops_newest_and_counts() {
        let (tx, mut rx) = ring(2);
        assert!(tx.push(ev(0)));
        assert!(tx.push(ev(1)));
        assert!(!tx.push(ev(2)));
        assert!(!tx.push(ev(3)));
        assert_eq!(tx.recorded(), 2);
        assert_eq!(tx.dropped(), 2);
        let mut out = Vec::new();
        rx.drain(&mut out);
        assert_eq!(out.len(), 2);
        // Room again after the drain.
        assert!(tx.push(Record::Stats(RecStats::default())));
    }

    #[test]
    fn contended_lock_drops_instead_of_blocking() {
        let (tx, rx) = ring(64);
        // Hold the consumer side of the lock across a push: the producer
        // must give up after its bounded spins, not wait indefinitely.
        let guard = rx.shared.buf.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!tx.push(ev(0)));
        drop(guard);
        assert_eq!(tx.dropped(), 1);
        assert!(tx.push(ev(1)));
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
        assert_eq!(out.len(), 1);
        assert_eq!(rx.counters(), (1, 0));
    }
}
