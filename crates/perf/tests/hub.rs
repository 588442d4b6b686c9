//! The benchmark's egress retries a refused frame instead of dropping
//! it, so the paper's reliable channel holds for γ's acks.

use rstp_core::protocols::gamma;
use rstp_core::SessionId;
use rstp_net::{codec_for, FrameBuf, NetError, Transport};
use rstp_perf::hub::{ReliableHub, RetryingEgress};
use rstp_perf::workload::K;
use rstp_serve::{EgressSink, MemHub, ServeTransport};
use rstp_sim::ProtocolKind;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

fn ack(seq: u64, session: SessionId) -> FrameBuf {
    let codec = codec_for(ProtocolKind::Gamma { k: K }).unwrap();
    FrameBuf::from(codec.encode_with_session(gamma::ACK, seq, 0, session))
}

/// Refuses each frame `refusals` times before taking it.
struct Grudging {
    refusals: u32,
    refused: u32,
    taken: Arc<AtomicU64>,
}

impl EgressSink for Grudging {
    fn send_batch(&mut self, frames: &[(u32, FrameBuf)]) -> Result<usize, NetError> {
        assert_eq!(frames.len(), 1, "frames are offered one at a time");
        if self.refused < self.refusals {
            self.refused += 1;
            return Ok(0);
        }
        self.refused = 0;
        self.taken.fetch_add(1, Ordering::Relaxed);
        Ok(1)
    }
}

#[test]
fn a_refused_frame_is_offered_again_and_delivered_once() {
    let taken = Arc::new(AtomicU64::default());
    let retries = Arc::new(AtomicU64::default());
    let inner = Grudging {
        refusals: 3,
        refused: 0,
        taken: Arc::clone(&taken),
    };
    let mut sink = RetryingEgress::new(Box::new(inner), Arc::clone(&retries));
    let id = SessionId::new(1);
    let batch: Vec<_> = (0..5).map(|i| (1, ack(i, id))).collect();
    assert_eq!(sink.send_batch(&batch).unwrap(), 5);
    assert_eq!(taken.load(Ordering::Relaxed), 5);
    assert_eq!(retries.load(Ordering::Relaxed), 15);
}

#[test]
fn every_frame_reaches_a_client_polling_all_the_while() {
    const FRAMES: u64 = 20_000;
    let hub = MemHub::new();
    let id = SessionId::new(1);
    let mut client = hub.client_transport(id, codec_for(ProtocolKind::Gamma { k: K }).unwrap());
    let reliable = ReliableHub::new(hub);
    let mut sink = reliable.egress().unwrap();
    let done = AtomicBool::new(false);
    let received = thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut got = 0u64;
            loop {
                // Read the flag first: once it is set, every frame is in
                // the inbox, so one more empty poll ends the count.
                let finished = done.load(Ordering::Acquire);
                match client.poll_recv().unwrap() {
                    Some(_) => got += 1,
                    None if finished => return got,
                    None => {}
                }
            }
        });
        for i in 0..FRAMES {
            assert_eq!(sink.send_batch(&[(1, ack(i, id))]).unwrap(), 1);
        }
        done.store(true, Ordering::Release);
        poller.join().unwrap()
    });
    assert_eq!(received, FRAMES);
}
