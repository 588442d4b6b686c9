//! Per-layer replays: each layer's public functions timed from this
//! crate, on inputs shaped like the workload's.
//!
//! Every replay runs [`BATCHES`] batches of at least the configured
//! length (one `replay.<layer>` span each) and reports the median batch.
//! Replays time whole loops of calls wherever the calls can be issued
//! back to back; the endpoint replay must interleave `recv` and `step`
//! exactly as a transfer does, so it times each call and subtracts the
//! stopwatch's own cost.

use crate::generator::Transmitter;
use crate::stats::median;
use crate::trace::{now_ns, SpanBuf};
use crate::wave::{input_seed, mix};
use crate::workload::{params, Workload, C2, K};
use rstp_codec::BlockCodec;
use rstp_combinatorics::{Multiset, MultisetCodec};
use rstp_core::{Message, Packet, RstpAction, SessionId};
use rstp_net::{codec_for, decode_any, FrameBuf, TickClock, Transport};
use rstp_record::{ring, Event, Record, DEFAULT_RING_CAP};
use rstp_serve::{
    receiver_endpoint, MemHub, ServeTransport, SessionSnapshot, StepEffect, TimerWheel,
};
use rstp_sim::harness::random_input;
use rstp_sim::ProtocolKind;
use std::hint::black_box;
use std::time::Duration;

/// Timed batches per layer.
pub const BATCHES: usize = 7;

/// Frames per hub batch, as the server's default `B`.
const HUB_BATCH: usize = 32;

/// Calls per timed loop in the back-to-back replays.
const LOOP: usize = 256;

/// Per-call costs and per-message counts measured by the replays.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCosts {
    /// `TimerWheel::schedule`, ns per call.
    pub wheel_schedule: f64,
    /// `TimerWheel::advance`, ns per popped token.
    pub wheel_pop: f64,
    /// `HubClientTransport::send`, ns per call.
    pub hub_send: f64,
    /// `HubClientTransport::poll_recv` returning a frame, ns per call.
    pub hub_poll: f64,
    /// `MemHub::recv_batch`, ns per frame.
    pub hub_recv_batch: f64,
    /// `EgressSink::send_batch`, ns per frame.
    pub hub_egress: f64,
    /// `decode_any`, ns per frame.
    pub wire_decode: f64,
    /// `WireCodec::encode_with_session`, ns per frame.
    pub wire_encode: f64,
    /// `SessionEndpoint::apply_recv`, ns per call.
    pub endpoint_recv: f64,
    /// `SessionEndpoint::step`, ns per call.
    pub endpoint_step: f64,
    /// Endpoint calls (`apply_recv` + `step`) per message in a lockstep
    /// transfer.
    pub endpoint_calls_per_msg: f64,
    /// `MultisetCodec::rank`, ns per call.
    pub rank: f64,
    /// `MultisetCodec::unrank`, ns per call.
    pub unrank: f64,
    /// `BlockCodec::decode_block`, ns per call.
    pub decode_block: f64,
    /// `BlockCodec::encode_block`, ns per call.
    pub encode_block: f64,
    /// `SessionSnapshot::encode` at mid-transfer state, ns per call.
    pub snapshot_encode: f64,
    /// Encoded size of that snapshot.
    pub snapshot_bytes: f64,
    /// `RingProducer::push`, ns per record.
    pub record_push: f64,
}

/// How often the server recorded each per-frame event, per message.
#[derive(Clone, Copy, Debug)]
pub struct EventMix {
    /// Wheel pops (one per server step).
    pub pops: f64,
    /// Frames applied (`Rx`).
    pub rx: f64,
    /// Frames sent (`Tx`).
    pub tx: f64,
}

/// Time accumulated for one measured quantity within a batch.
#[derive(Clone, Copy, Default)]
struct Acc {
    ns: u64,
    calls: u64,
}

impl Acc {
    fn add(&mut self, ns: u64, calls: usize) {
        self.ns += ns;
        self.calls += calls as u64;
    }
}

/// A stopwatch: nanoseconds through [`TickClock`].
#[derive(Clone, Copy)]
struct Watch(TickClock);

impl Watch {
    fn now(self) -> u64 {
        now_ns(&self.0)
    }

    /// Nanoseconds since `start`.
    fn since(self, start: u64) -> u64 {
        self.now().saturating_sub(start)
    }
}

/// The replay driver: stopwatch, batch length, span sink.
pub struct Replays<'a> {
    watch: Watch,
    min_batch_ns: u64,
    spans: &'a mut SpanBuf,
    parent: u64,
}

impl<'a> Replays<'a> {
    /// Replays timed on `clock` in batches of at least `min_batch`,
    /// recording spans under `parent`.
    pub fn new(clock: TickClock, min_batch: Duration, spans: &'a mut SpanBuf, parent: u64) -> Self {
        Replays {
            watch: Watch(clock),
            min_batch_ns: u64::try_from(min_batch.as_nanos()).unwrap_or(u64::MAX),
            spans,
            parent,
        }
    }

    /// Runs `body` until each of [`BATCHES`] batches has lasted the
    /// minimum length; returns the median ns/call of each quantity.
    fn batches<const Q: usize>(
        &mut self,
        name: &'static str,
        mut body: impl FnMut(Watch, &mut [Acc; Q]) -> Result<(), String>,
    ) -> Result<[f64; Q], String> {
        let watch = self.watch;
        let mut per_batch: [Vec<f64>; Q] = std::array::from_fn(|_| Vec::with_capacity(BATCHES));
        for _ in 0..BATCHES {
            let mut acc = [Acc::default(); Q];
            let span_start = self.spans.start();
            let start = watch.now();
            while watch.since(start) < self.min_batch_ns {
                body(watch, &mut acc)?;
            }
            self.spans.leaf(name, self.parent, span_start, None, None);
            for (q, a) in acc.iter().enumerate() {
                per_batch[q].push(a.ns as f64 / a.calls.max(1) as f64);
            }
        }
        Ok(per_batch.map(|v| median(&v).unwrap_or(0.0)))
    }

    /// Runs every replay for workload `w` (run seed `seed`), whose
    /// server recorded events at the rates in `mix`.
    ///
    /// # Errors
    ///
    /// A layer call failing, or the endpoint replay not reproducing its
    /// input.
    pub fn measure(
        &mut self,
        w: &Workload,
        seed: u64,
        mix: EventMix,
    ) -> Result<LayerCosts, String> {
        let mut c = LayerCosts::default();
        [c.wheel_schedule, c.wheel_pop] = self.wheel(w.sessions)?;
        [c.hub_send, c.hub_recv_batch] = self.hub_ingress(w)?;
        [c.hub_egress, c.hub_poll] = self.hub_egress(w)?;
        [c.wire_encode, c.wire_decode] = self.wire(w)?;
        let snapshot;
        (
            [c.endpoint_recv, c.endpoint_step],
            c.endpoint_calls_per_msg,
            snapshot,
        ) = self.endpoint(w, seed)?;
        c.snapshot_bytes = snapshot.encode().len() as f64;
        [c.snapshot_encode] = self.batches("replay.snapshot", |watch, acc| {
            let t = watch.now();
            for _ in 0..16 {
                black_box(black_box(&snapshot).encode());
            }
            acc[0].add(watch.since(t), 16);
            Ok(())
        })?;
        [c.rank, c.unrank] = self.rank(w)?;
        [c.decode_block, c.encode_block] = self.codec(w)?;
        [c.record_push] = self.record(mix)?;
        Ok(c)
    }

    /// `schedule` and `advance` with `m` tokens rescheduled every `c2`
    /// ticks, as a shard paces `m` sessions.
    fn wheel(&mut self, m: usize) -> Result<[f64; 2], String> {
        let mut wheel: TimerWheel<usize> = TimerWheel::new();
        for i in 0..m {
            wheel.schedule(1 + i as u64 % C2, i);
        }
        let mut now = 0u64;
        let mut due: Vec<(u64, usize)> = Vec::with_capacity(m);
        self.batches("replay.wheel", |watch, acc| {
            for _ in 0..64 {
                now += 1;
                let t0 = watch.now();
                wheel.advance(now, &mut due);
                let t1 = watch.now();
                let popped = due.len();
                for (tick, token) in due.drain(..) {
                    wheel.schedule(tick + C2, token);
                }
                acc[0].add(watch.since(t1), popped);
                acc[1].add(t1.saturating_sub(t0), popped);
            }
            Ok(())
        })
    }

    /// Client `send` into the server inbox, and the pump's
    /// `recv_batch` draining it.
    fn hub_ingress(&mut self, w: &Workload) -> Result<[f64; 2], String> {
        let codec = codec_for(w.kind).map_err(|e| e.to_string())?;
        let mut hub = MemHub::new();
        let mut clients: Vec<_> = (1..=w.sessions)
            .map(|i| hub.client_transport(SessionId::new(i as u32), codec))
            .collect();
        let mut out: Vec<FrameBuf> = Vec::with_capacity(HUB_BATCH);
        let mut next = 0usize;
        self.batches("replay.hub.ingress", |watch, acc| {
            let count = clients.len();
            let t0 = watch.now();
            for i in 0..HUB_BATCH {
                let c = &mut clients[(next + i) % count];
                c.send(Packet::Data(i as u64 % 2), i as u64)
                    .map_err(|e| e.to_string())?;
            }
            let t1 = watch.now();
            next += HUB_BATCH;
            out.clear();
            let got = hub
                .recv_batch(&mut out, HUB_BATCH)
                .map_err(|e| e.to_string())?;
            acc[0].add(t1.saturating_sub(t0), HUB_BATCH);
            acc[1].add(watch.since(t1), got);
            Ok(())
        })
    }

    /// Shard egress into client inboxes, and the clients' `poll_recv`.
    fn hub_egress(&mut self, w: &Workload) -> Result<[f64; 2], String> {
        let codec = codec_for(w.kind).map_err(|e| e.to_string())?;
        let hub = MemHub::new();
        let mut clients: Vec<_> = (1..=w.sessions)
            .map(|i| hub.client_transport(SessionId::new(i as u32), codec))
            .collect();
        let mut sink = hub.egress().map_err(|e| e.to_string())?;
        let frames: Vec<(u32, FrameBuf)> = (1..=w.sessions as u32)
            .map(|id| {
                let bytes = codec.encode_with_session(Packet::Ack(0), 0, 0, SessionId::new(id));
                (id, FrameBuf::from(bytes))
            })
            .collect();
        let mut next = 0usize;
        self.batches("replay.hub.egress", |watch, acc| {
            let start = next % frames.len();
            let end = (start + HUB_BATCH).min(frames.len());
            let batch = &frames[start..end];
            next = end % frames.len();
            let t0 = watch.now();
            let sent = sink.send_batch(batch).map_err(|e| e.to_string())?;
            let t1 = watch.now();
            for c in &mut clients[start..end] {
                black_box(c.poll_recv().map_err(|e| e.to_string())?);
            }
            acc[0].add(t1.saturating_sub(t0), sent);
            acc[1].add(watch.since(t1), batch.len());
            Ok(())
        })
    }

    /// v2 frame encode and `decode_any`.
    fn wire(&mut self, w: &Workload) -> Result<[f64; 2], String> {
        let codec = codec_for(w.kind).map_err(|e| e.to_string())?;
        let session = SessionId::new(7);
        let mut frames = vec![[0u8; rstp_net::FRAME_LEN_V2]; LOOP];
        self.batches("replay.wire", |watch, acc| {
            let t0 = watch.now();
            for (i, f) in frames.iter_mut().enumerate() {
                *f = codec.encode_with_session(Packet::Data(i as u64 % 2), i as u64, 500, session);
            }
            let t1 = watch.now();
            for f in &frames {
                black_box(decode_any(black_box(f)).map_err(|e| e.to_string())?);
            }
            acc[0].add(t1.saturating_sub(t0), LOOP);
            acc[1].add(watch.since(t1), LOOP);
            Ok(())
        })
    }

    /// A whole transfer through `receiver_endpoint`, driven in lockstep
    /// with the transmitter; returns ns per `apply_recv` and `step`,
    /// endpoint calls per message, and a snapshot of the receiver at
    /// the transfer's midpoint.
    fn endpoint(
        &mut self,
        w: &Workload,
        seed: u64,
    ) -> Result<([f64; 2], f64, SessionSnapshot), String> {
        let input = random_input(w.n, input_seed(seed, 0, 0));
        let overhead = stopwatch_overhead(self.watch);
        let mut calls_per_msg = 0.0;
        let mut snapshot = None;
        let costs = self.batches("replay.endpoint", |watch, acc| {
            let run = transfer(w.kind, &input, watch, overhead)?;
            acc[0].add(run.recv_ns, run.recvs);
            acc[1].add(run.step_ns, run.steps);
            calls_per_msg = (run.recvs + run.steps) as f64 / w.n.max(1) as f64;
            snapshot = Some(run.midpoint);
            Ok(())
        })?;
        let snapshot = snapshot.ok_or("endpoint replay did not run")?;
        Ok((costs, calls_per_msg, snapshot))
    }

    /// `rank` and `unrank` at the workload's burst shape.
    fn rank(&mut self, w: &Workload) -> Result<[f64; 2], String> {
        let codec = MultisetCodec::new(K, burst(w.kind)).map_err(|e| e.to_string())?;
        let ranks: Vec<u128> = (0..LOOP as u64)
            .map(|i| u128::from(mix(i)) % codec.total())
            .collect();
        let sets: Vec<Multiset> = ranks
            .iter()
            .map(|&r| codec.unrank(r).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        self.batches("replay.rank", |watch, acc| {
            let t0 = watch.now();
            for m in &sets {
                black_box(codec.rank(black_box(m)).map_err(|e| e.to_string())?);
            }
            let t1 = watch.now();
            for &r in &ranks {
                black_box(codec.unrank(black_box(r)).map_err(|e| e.to_string())?);
            }
            acc[0].add(t1.saturating_sub(t0), LOOP);
            acc[1].add(watch.since(t1), LOOP);
            Ok(())
        })
    }

    /// `decode_block` and `encode_block` at the workload's burst shape.
    fn codec(&mut self, w: &Workload) -> Result<[f64; 2], String> {
        let codec = BlockCodec::new(K, burst(w.kind)).map_err(|e| e.to_string())?;
        let b = codec.bits_per_block() as usize;
        let blocks: Vec<Vec<bool>> = (0..LOOP).map(|i| random_input(b, i as u64)).collect();
        let sets: Vec<Multiset> = blocks
            .iter()
            .map(|bits| {
                let packets = codec.encode_block(bits).map_err(|e| e.to_string())?;
                codec.collect(&packets).map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        self.batches("replay.codec", |watch, acc| {
            let t0 = watch.now();
            for m in &sets {
                black_box(
                    codec
                        .decode_block(black_box(m))
                        .map_err(|e| e.to_string())?,
                );
            }
            let t1 = watch.now();
            for bits in &blocks {
                black_box(
                    codec
                        .encode_block(black_box(bits))
                        .map_err(|e| e.to_string())?,
                );
            }
            acc[0].add(t1.saturating_sub(t0), LOOP);
            acc[1].add(watch.since(t1), LOOP);
            Ok(())
        })
    }

    /// `RingProducer::push` of the server's event mix while a consumer
    /// thread drains the ring, as the recorder's writer does.
    fn record(&mut self, mix: EventMix) -> Result<[f64; 1], String> {
        let template = event_mix(mix, LOOP);
        let (producer, mut consumer) = ring(DEFAULT_RING_CAP);
        std::thread::scope(|scope| {
            let drainer = std::thread::Builder::new()
                .name("rstp-perf-drain".into())
                .spawn_scoped(scope, move || {
                    let mut sink = Vec::new();
                    loop {
                        consumer.drain(&mut sink);
                        sink.clear();
                        if consumer.is_closed() {
                            consumer.drain(&mut sink);
                            return;
                        }
                        std::thread::sleep(Duration::from_micros(100));
                    }
                })
                .map_err(|e| format!("spawn ring drainer: {e}"))?;
            let result = self.batches("replay.record", |watch, acc| {
                let records = template.clone();
                let t0 = watch.now();
                for rec in records {
                    black_box(producer.push(rec));
                }
                acc[0].add(watch.since(t0), template.len());
                Ok(())
            });
            producer.close();
            drainer
                .join()
                .map_err(|_| "ring drainer panicked".to_string())?;
            result
        })
    }
}

/// Packets per burst of `kind` (`δ1` for β and, for reporting only,
/// Stenning; `δ2` for γ).
fn burst(kind: ProtocolKind) -> u64 {
    match kind {
        ProtocolKind::Gamma { .. } => params().delta2(),
        _ => params().delta1(),
    }
}

/// The mean cost of one stopwatch reading, ns.
fn stopwatch_overhead(watch: Watch) -> u64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = watch.now();
            for _ in 0..10_000 {
                black_box(watch.now());
            }
            watch.since(t0) as f64 / 10_001.0
        })
        .collect();
    median(&samples).unwrap_or(0.0) as u64
}

/// One lockstep transfer's timings.
struct Transfer {
    recv_ns: u64,
    recvs: usize,
    step_ns: u64,
    steps: usize,
    midpoint: SessionSnapshot,
}

/// Runs `input` through a transmitter and `receiver_endpoint` stepping
/// in lockstep, each packet delivered before the peer's next step (a
/// zero-delay channel, legal under every `d`). Each endpoint call is
/// timed alone; one stopwatch reading's cost is subtracted per call.
fn transfer(
    kind: ProtocolKind,
    input: &[Message],
    watch: Watch,
    overhead: u64,
) -> Result<Transfer, String> {
    let n = input.len();
    let mut tx = Transmitter::new(kind, params(), input)?;
    let mut ep = receiver_endpoint(kind, params(), n).map_err(|e| e.to_string())?;
    let mut run = Transfer {
        recv_ns: 0,
        recvs: 0,
        step_ns: 0,
        steps: 0,
        midpoint: SessionSnapshot {
            session: 1,
            kind,
            n: u32::try_from(n).map_err(|e| e.to_string())?,
            seq: 0,
            written: Vec::new(),
            state: Vec::new(),
        },
    };
    let mut data: Vec<Packet> = Vec::new();
    let mut acks: Vec<Packet> = Vec::new();
    let mut tx_done = false;
    let mut acks_sent = 0u64;
    let limit = 64 * n + 1024;
    for _ in 0..limit {
        for ack in acks.drain(..) {
            tx.recv(ack)?;
        }
        match tx.step()? {
            Some(RstpAction::Send(p)) => data.push(p),
            None => tx_done = true,
            Some(_) => {}
        }
        for p in data.drain(..) {
            let t = watch.now();
            ep.apply_recv(p).map_err(|e| e.to_string())?;
            run.recv_ns += watch.since(t).saturating_sub(overhead);
            run.recvs += 1;
        }
        let t = watch.now();
        let effect = ep.step().map_err(|e| e.to_string())?;
        run.step_ns += watch.since(t).saturating_sub(overhead);
        run.steps += 1;
        if let StepEffect::Sent(p) = effect {
            acks.push(p);
            acks_sent += 1;
        }
        if ep.written().len() == n / 2 && run.midpoint.written.is_empty() {
            run.midpoint.seq = acks_sent;
            run.midpoint.written = ep.written().to_vec();
            run.midpoint.state = ep.state_bytes();
        }
        if tx_done && ep.written().len() >= n {
            if ep.written() != input {
                return Err(format!("endpoint replay of {} wrote Y != X", kind.name()));
            }
            return Ok(run);
        }
    }
    Err(format!("endpoint replay of {} did not finish", kind.name()))
}

/// Records in the proportions of `mix` (plus one `Write` per message),
/// interleaved evenly, `len` of them.
fn event_mix(mix: EventMix, len: usize) -> Vec<Record> {
    let weights = [mix.pops, mix.rx, mix.tx, 1.0];
    let total: f64 = weights.iter().sum();
    let wire = codec_for(ProtocolKind::Beta { k: K })
        .map(|c| {
            c.encode_with_session(Packet::Data(1), 0, 0, SessionId::new(1))
                .to_vec()
        })
        .unwrap_or_default();
    let mut emitted = [0.0f64; 4];
    (0..len)
        .map(|j| {
            let target = (j + 1) as f64 / total;
            let kind = (0..4)
                .max_by(|&a, &b| {
                    (weights[a] * target - emitted[a])
                        .total_cmp(&(weights[b] * target - emitted[b]))
                })
                .unwrap_or(3);
            emitted[kind] += 1.0;
            let at_micros = j as u64;
            Record::Event(match kind {
                0 => Event::WheelPop {
                    at_micros,
                    session: 1,
                    due_tick: j as u64,
                    late: false,
                },
                1 => Event::Rx {
                    at_micros,
                    session: 1,
                    wire: wire.clone(),
                },
                2 => Event::Tx {
                    at_micros,
                    session: 1,
                    wire: wire.clone(),
                },
                _ => Event::Write {
                    at_micros,
                    session: 1,
                    written: j as u64,
                    bit: j % 2 == 0,
                },
            })
        })
        .collect()
}
