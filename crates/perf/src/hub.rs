//! `MemHub` served with an egress that does not drop.
//!
//! `MemHub`'s egress takes each client inbox with `try_lock` and drops
//! the frame when the client holds that lock, as UDP would drop a
//! datagram. γ assumes the paper's reliable channel and never resends an
//! ack, so one dropped ack stalls its transmitter for good: 3 of 24
//! full-length gamma-acks runs lost one while the generator was polling
//! that inbox. The benchmark serves through [`ReliableHub`] instead. It
//! hands `run_server` `MemHub`'s own ingress and egress, but offers the
//! egress one frame at a time, and offers a refused frame again, yielding
//! the CPU in between, until the inbox takes it. A client holds its inbox
//! only to pop one frame, so the retry ends as soon as that pop does.

use rstp_net::{FrameBuf, NetError};
use rstp_serve::{EgressSink, MemHub, ServeTransport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

/// Offers of one frame before it is given up. Only a frame for a session
/// that never registered is refused this often; it then drops as
/// `MemHub` would drop it.
pub const MAX_OFFERS: u32 = 100_000;

/// A [`MemHub`] whose egress retries a contended client inbox.
pub struct ReliableHub {
    hub: MemHub,
    retries: Arc<AtomicU64>,
}

impl ReliableHub {
    /// Serves `hub`.
    #[must_use]
    pub fn new(hub: MemHub) -> Self {
        ReliableHub {
            hub,
            retries: Arc::default(),
        }
    }

    /// Frames offered again after the inbox refused them, over every
    /// egress of this hub.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }
}

impl ServeTransport for ReliableHub {
    fn recv_batch(&mut self, out: &mut Vec<FrameBuf>, max: usize) -> Result<usize, NetError> {
        self.hub.recv_batch(out, max)
    }

    fn egress(&self) -> Result<Box<dyn EgressSink>, NetError> {
        Ok(Box::new(RetryingEgress::new(
            self.hub.egress()?,
            Arc::clone(&self.retries),
        )))
    }
}

/// An egress that offers `inner` one frame at a time until it is taken.
pub struct RetryingEgress {
    inner: Box<dyn EgressSink>,
    retries: Arc<AtomicU64>,
}

impl RetryingEgress {
    /// Wraps `inner`, counting every repeated offer in `retries`.
    #[must_use]
    pub fn new(inner: Box<dyn EgressSink>, retries: Arc<AtomicU64>) -> Self {
        RetryingEgress { inner, retries }
    }
}

impl EgressSink for RetryingEgress {
    fn send_batch(&mut self, frames: &[(u32, FrameBuf)]) -> Result<usize, NetError> {
        let mut delivered = 0;
        for frame in frames {
            for offer in 0..MAX_OFFERS {
                if offer > 0 {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    thread::yield_now();
                }
                if self.inner.send_batch(std::slice::from_ref(frame))? == 1 {
                    delivered += 1;
                    break;
                }
            }
        }
        Ok(delivered)
    }
}
