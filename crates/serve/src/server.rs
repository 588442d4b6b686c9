//! Session admission, frame routing, and shard lifecycle.
//!
//! The shards read ingress themselves. Right after each wake, a shard
//! runs one `Pump::pass`: it drains the transport in batches of up to
//! `BATCH` datagrams per call, at most `PASS_READS` calls, routes each
//! frame by its session id, and hands each shard its share of the
//! batch, in arrival order, as one message on that shard's bounded
//! queue. One `Pump`, behind one lock, serves every shard's passes. The
//! thread that calls [`run_server`] supervises: it admits sessions, fires
//! the scripted faults, resumes moved sessions, restarts killed shards,
//! and ends the run. It holds the lock only to read or change the
//! tables and queues, never while it waits for a shard.
//!
//! Admission is strict — a session beyond `max_sessions`, with a
//! duplicate id, or arriving while its shard's queue is full is
//! *rejected*, because the alternative (blocking a pass) would stall
//! every admitted session past its `c2` window. Frames for admitted
//! sessions likewise drop rather than block when a queue is full; the
//! protocols already tolerate channel loss, they do not tolerate a
//! frozen clock.

use crate::endpoint::restore_receiver_endpoint;
use crate::faults::{FaultEvent, FaultPlan};
use crate::metrics::{ServeReport, ShardReport};
use crate::shard::{run_shard, ResumeSession, ShardMsg};
use crate::snapshot::SessionSnapshot;
use rstp_core::{Packet, SessionId, TimingParams};
use rstp_net::{
    codec_for, decode_any, Frame, FrameBuf, NetError, Pace, Pacer, TickClock, WireCodec,
};
use rstp_record::{shard_file_name, Event, RecorderSet, Recording, RunMeta, ShardRecorder};
use rstp_sim::ProtocolKind;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Sender, SyncSender, TrySendError};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::{self, Scope, ScopedJoinHandle};
use std::time::Duration;

/// The batch bound `B`: datagrams a pass drains per ingress call, frames
/// per shard queue message, and frames a shard flushes per egress call.
pub(crate) const BATCH: usize = 32;

/// Ingress calls per pass at most. A pass runs on a shard thread, ahead
/// of its steps, so datagrams arriving faster than a pass can route them
/// must not hold it off its sessions' `c2` windows: what is left waits
/// in the transport for the next pass, a wake of any shard away.
const PASS_READS: usize = 16;

/// A shard-side egress sink: ships encoded frames, addressed by raw
/// session id, back toward their clients in batches.
pub trait EgressSink: Send {
    /// Sends a batch of `(session id, frame bytes)` pairs. Returns how
    /// many were actually shipped (unroutable frames drop silently —
    /// the sink mirrors UDP, not TCP).
    ///
    /// Frames travel as [`FrameBuf`] — fixed-capacity, `Copy` — so a
    /// conforming sink neither allocates nor blocks per frame on the
    /// steady-state path (the `blocking-in-nonblocking` and
    /// `alloc-in-steady-state` analysis passes enforce this).
    ///
    /// # Errors
    ///
    /// [`NetError`] only for unrecoverable transport failure.
    fn send_batch(&mut self, frames: &[(u32, FrameBuf)]) -> Result<usize, NetError>;
}

/// The server's ingress side: a source of raw datagrams plus a factory
/// for per-shard egress sinks.
pub trait ServeTransport {
    /// Drains up to `max` datagrams into `out` without blocking. Returns
    /// how many were appended.
    ///
    /// # Errors
    ///
    /// [`NetError`] on unrecoverable transport failure.
    fn recv_batch(&mut self, out: &mut Vec<FrameBuf>, max: usize) -> Result<usize, NetError>;

    /// A new egress sink (one per shard, so shards never share a lock
    /// on the send path).
    ///
    /// # Errors
    ///
    /// [`NetError`] if the underlying socket cannot be cloned.
    fn egress(&self) -> Result<Box<dyn EgressSink>, NetError>;
}

/// One planned transfer: the server runs this session's *receiver*.
#[derive(Clone, Copy, Debug)]
pub struct SessionSpec {
    /// Wire session id (must be unique across the run).
    pub id: SessionId,
    /// Protocol the session speaks.
    pub kind: ProtocolKind,
    /// Messages the transfer carries.
    pub n: usize,
}

/// Configuration of a server run.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Timing parameters `(c1, c2, d)` in ticks.
    pub params: TimingParams,
    /// Wall-clock length of one tick.
    pub tick: Duration,
    /// Step pace of every server-side session within `[c1, c2]`.
    pub pace: Pace,
    /// Worker shard count; sessions are hashed by `id % shards`.
    pub shards: usize,
    /// Bound of each shard's ingress queue, in messages: an admission, a
    /// drain, a resumed session, or one ingress batch's frames for that
    /// shard (up to `BATCH` = 32 frames). A shard drains its queue right
    /// after its own pass, so the queue holds what the other shards'
    /// passes routed to it since its last wake, up to one gap of them.
    pub queue_cap: usize,
    /// Admission ceiling across all shards.
    pub max_sessions: usize,
    /// Hard wall-clock cap on the whole run.
    pub max_wall: Duration,
    /// Directory for the flight recording (one `shard-NN.rec` per
    /// shard); `None` disables recording entirely.
    pub record_dir: Option<PathBuf>,
    /// Input seed stamped into each recording's metadata so a
    /// postmortem can regenerate the swarm inputs (`rstp replay`).
    pub record_seed: Option<u64>,
    /// Scripted fault-injection plan the server executes (`None` runs
    /// fault-free). See [`crate::faults`] for the grammar.
    pub faults: Option<FaultPlan>,
}

impl ServeConfig {
    /// Defaults mirroring `rstp-net`'s driver where the knobs overlap:
    /// slow pace (the slack and grace come from the same [`Pacer`]);
    /// plus 4 shards, queues of 256, and room for 1024 sessions.
    #[must_use]
    pub fn new(params: TimingParams, tick: Duration) -> Self {
        ServeConfig {
            params,
            tick,
            pace: Pace::Slow,
            shards: 4,
            queue_cap: 256,
            max_sessions: 1024,
            max_wall: Duration::from_secs(60),
            record_dir: None,
            record_seed: None,
            faults: None,
        }
    }

    /// Sets the shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the per-shard ingress queue bound, in messages.
    #[must_use]
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap.max(1);
        self
    }

    /// Sets the admission ceiling.
    #[must_use]
    pub fn with_max_sessions(mut self, max: usize) -> Self {
        self.max_sessions = max;
        self
    }

    /// Sets the pace.
    #[must_use]
    pub fn with_pace(mut self, pace: Pace) -> Self {
        self.pace = pace;
        self
    }

    /// Sets the hard wall-clock cap.
    #[must_use]
    pub fn with_max_wall(mut self, cap: Duration) -> Self {
        self.max_wall = cap;
        self
    }

    /// Enables the per-shard flight recorder, writing under `dir`.
    #[must_use]
    pub fn with_record(mut self, dir: impl Into<PathBuf>) -> Self {
        self.record_dir = Some(dir.into());
        self
    }

    /// Stamps the swarm input seed into the recording metadata.
    #[must_use]
    pub fn with_record_seed(mut self, seed: u64) -> Self {
        self.record_seed = Some(seed);
        self
    }

    /// Attaches a scripted fault-injection plan.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// Shard → supervisor messages. A drained session travels through the
/// supervisor rather than a shard-to-shard channel, so its owner-table
/// entry moves under the pump's lock, at the same point of the frame
/// order as its `Resume` is queued.
pub(crate) enum PumpMsg {
    /// A drained session leaving shard `from` for `to`, still live, with
    /// the frames it held: resume it on `to`, move its owner-table entry,
    /// then route the frames.
    Moved {
        /// The source shard, the session's home if `to` cannot take it.
        from: usize,
        /// The target shard.
        to: usize,
        /// The session, whole.
        session: Box<ResumeSession>,
        /// Frames the source received for the session but never applied,
        /// in arrival order.
        held: Vec<Frame>,
    },
    /// Frames that reached a shard after a drain moved their session
    /// away: route them again, to the session's owner now.
    Forward(Vec<Frame>),
}

/// Queues `frame` on its owning shard's share of the current batch. A
/// frame for a session no shard owns counts as an orphan. One its
/// session cannot take counts as a decode error and never reaches the
/// automaton: another protocol or `k` (the rule of `WireCodec::decode`),
/// or an ack, since every server session is a receiver.
fn route(
    owner: &HashMap<u32, (usize, WireCodec)>,
    routed: &mut [Vec<Frame>],
    report: &mut ServeReport,
    frame: Frame,
) {
    let Some(&(shard, codec)) = owner.get(&frame.session.raw()) else {
        report.orphan_frames += 1;
        return;
    };
    let fits = codec.accepts(&frame) && matches!(frame.packet, Packet::Data(_));
    match routed.get_mut(shard) {
        Some(share) if fits => share.push(frame),
        Some(_) => report.decode_errors += 1,
        None => report.orphan_frames += 1,
    }
}

/// Sends each shard its routed frames, in arrival order, as messages of
/// at most `BATCH` frames: one message per shard for an ingress batch.
/// Backpressure: a full queue refuses a whole message and each of its
/// frames counts as `ingress_overflow` (a channel loss the protocol
/// tolerates) instead of stalling the pass. A shard that died drops its
/// share; its error surfaces at join.
fn send_routed(txs: &[SyncSender<ShardMsg>], routed: &mut [Vec<Frame>], overflow: &mut [u64]) {
    for ((tx, share), dropped) in txs.iter().zip(routed.iter_mut()).zip(overflow) {
        for frames in share.chunks(BATCH) {
            if let Err(TrySendError::Full(_)) = tx.try_send(ShardMsg::Frames(frames.to_vec())) {
                *dropped += frames.len() as u64;
            }
        }
        share.clear();
    }
}

/// Whether `tick` lies in one of the `[from, to)` tick windows.
fn within(windows: &[(u64, u64)], tick: u64) -> bool {
    windows.iter().any(|&(from, to)| from <= tick && tick < to)
}

/// The ingress state every shard's pass shares, behind one lock: the
/// transport, the tables a frame is routed by, and what routing books.
/// The supervisor takes the same lock to admit, move and recover sessions
/// and to install a restarted shard's queue.
pub(crate) struct Pump<'t, T> {
    transport: &'t mut T,
    /// Each admitted session's shard, with its codec for the frame check
    /// in `route`.
    owner: HashMap<u32, (usize, WireCodec)>,
    /// Each shard's queue: its live epoch's, or a dead one's, closed.
    txs: Vec<SyncSender<ShardMsg>>,
    /// Each shard's share of the frames being routed.
    routed: Vec<Vec<Frame>>,
    /// Frames each shard's full queue refused, per shard index.
    overflow: Vec<u64>,
    report: ServeReport,
    batch: Vec<FrameBuf>,
    /// Scripted `stall` windows, in ticks: no pass reads.
    stalls: Vec<(u64, u64)>,
    /// Scripted `hubdrop` windows: a pass reads and discards.
    hubdrops: Vec<(u64, u64)>,
    /// The tick of the latest pass that read a datagram.
    last_ingress_tick: u64,
    /// The first transport error. It ends the run at the supervisor's
    /// next wake; no pass reads after it.
    error: Option<NetError>,
}

impl<'t, T> Pump<'t, T> {
    /// The ingress state of a run over `shards` shards, before bring-up:
    /// no session admitted and no shard queue yet.
    fn new(
        transport: &'t mut T,
        shards: usize,
        stalls: Vec<(u64, u64)>,
        hubdrops: Vec<(u64, u64)>,
    ) -> Self {
        Pump {
            transport,
            owner: HashMap::new(),
            txs: Vec::with_capacity(shards),
            routed: (0..shards).map(|_| Vec::with_capacity(BATCH)).collect(),
            overflow: vec![0; shards],
            report: ServeReport::default(),
            batch: Vec::with_capacity(BATCH),
            stalls,
            hubdrops,
            last_ingress_tick: 0,
            error: None,
        }
    }
}

impl<T: ServeTransport> Pump<'_, T> {
    /// Drains the transport at `now_tick`: `BATCH`-sized reads until one
    /// comes back short, or `PASS_READS` of them, each batch decoded,
    /// routed and sent to the shards as it is read. Inside a `stall`
    /// window it reads nothing; inside a `hubdrop` window it reads and
    /// discards. The pass judges both windows by its own tick, so a
    /// window opens for the first pass inside it, whichever shard runs
    /// it.
    pub(crate) fn pass(&mut self, now_tick: u64) {
        if self.error.is_some() || within(&self.stalls, now_tick) {
            return;
        }
        let dropping = within(&self.hubdrops, now_tick);
        for _ in 0..PASS_READS {
            self.batch.clear();
            let got = match self.transport.recv_batch(&mut self.batch, BATCH) {
                Ok(got) => got,
                Err(e) => {
                    self.error = Some(e);
                    return;
                }
            };
            if got > 0 {
                self.last_ingress_tick = now_tick;
            }
            if dropping {
                // A scripted hub drop: mid-transfer loss.
                self.report.hub_dropped_frames += got as u64;
            } else {
                for bytes in &self.batch {
                    // Full strict decode before routing: the frame crosses
                    // a thread boundary, so the checksum is verified
                    // exactly once, here, rather than trusting the cheap
                    // peek.
                    match decode_any(bytes) {
                        Ok(frame) => route(&self.owner, &mut self.routed, &mut self.report, frame),
                        Err(_) => self.report.decode_errors += 1,
                    }
                }
                send_routed(&self.txs, &mut self.routed, &mut self.overflow);
            }
            if got < BATCH {
                return;
            }
        }
    }
}

/// What every shard epoch of one run borrows from it.
pub(crate) struct Shared<'a, T> {
    pub(crate) config: &'a ServeConfig,
    pub(crate) clock: TickClock,
    /// Sessions completed, over every shard and epoch.
    pub(crate) completed: AtomicU64,
    /// Moved sessions and forwarded frames, to the supervisor.
    pub(crate) pump_tx: Sender<PumpMsg>,
    pub(crate) pump: Mutex<Pump<'a, T>>,
}

impl<'a, T> Shared<'a, T> {
    /// Handles messages the shards sent the supervisor: each moved
    /// session is resumed, then its held frames, or a shard's forwarded
    /// ones, are routed with the owner table as it stands, so each lands
    /// behind its session's `Resume` in a FIFO queue. Frames owned by
    /// shard `restarting`, whose new queue is not installed yet, come back
    /// instead of dropping at its closed queue.
    fn handle(
        &self,
        msgs: impl Iterator<Item = PumpMsg>,
        dead: &[bool],
        restarting: Option<usize>,
    ) -> Vec<Frame> {
        let mut aside = Vec::new();
        for msg in msgs {
            let (mut pump, frames) = match msg {
                PumpMsg::Moved {
                    from,
                    to,
                    session,
                    held,
                } => (self.resume(from, to, session, dead), held),
                PumpMsg::Forward(frames) => (
                    self.pump.lock().unwrap_or_else(PoisonError::into_inner),
                    frames,
                ),
            };
            let pump = &mut *pump;
            for frame in frames {
                route(&pump.owner, &mut pump.routed, &mut pump.report, frame);
            }
            if let Some(share) = restarting.and_then(|shard| pump.routed.get_mut(shard)) {
                aside.append(share);
            }
            send_routed(&pump.txs, &mut pump.routed, &mut pump.overflow);
        }
        aside
    }

    /// Queues a moved session's `Resume` on its target `to`, or back on
    /// its source `from` when the target is dead or its queue stays full,
    /// and moves its owner-table entry to whichever took it; if neither
    /// did, the entry stays with the source, whose restart recovers the
    /// session from its recording. Returns the lock, held since the entry
    /// moved, so the session's held frames are routed behind its
    /// `Resume`.
    ///
    /// The lock is held only to try a send. A full queue is waited out
    /// in 100 µs naps, for at most 200 ms per shard, with the lock
    /// released: the shard that owns the queue runs a pass, which takes
    /// the lock, before it drains the queue. Meanwhile the source forwards
    /// the frames it is routed for the session.
    fn resume(
        &self,
        from: usize,
        to: usize,
        session: Box<ResumeSession>,
        dead: &[bool],
    ) -> MutexGuard<'_, Pump<'a, T>> {
        let id = session.spec.id.raw();
        let mut msg = ShardMsg::Resume(session);
        for shard in [to, from] {
            if dead[shard] {
                continue;
            }
            let mut at = self.clock.now();
            let give_up = at + Duration::from_millis(200);
            loop {
                {
                    let mut pump = self.pump.lock().unwrap_or_else(PoisonError::into_inner);
                    match pump.txs[shard].try_send(msg) {
                        Ok(()) => {
                            if let Some(entry) = pump.owner.get_mut(&id) {
                                entry.0 = shard;
                            }
                            return pump;
                        }
                        Err(TrySendError::Full(back)) if at < give_up => msg = back,
                        Err(TrySendError::Full(back) | TrySendError::Disconnected(back)) => {
                            msg = back;
                            break;
                        }
                    }
                }
                at = self.clock.sleep_until(at + Duration::from_micros(100));
            }
        }
        self.pump.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Delivers a must-arrive message (drain, crash, panic, resume) to a
/// shard, waiting out a full queue in 100 µs naps for at most 200 ms. The
/// message comes back if the shard is gone or its queue stays full. The
/// caller must not hold the pump's lock: the shard runs a pass, which
/// takes it, before it drains its queue.
fn send_shard(
    tx: &SyncSender<ShardMsg>,
    clock: TickClock,
    mut msg: ShardMsg,
) -> Result<(), ShardMsg> {
    let mut at = clock.now();
    let give_up = at + Duration::from_millis(200);
    loop {
        match tx.try_send(msg) {
            Ok(()) => return Ok(()),
            Err(TrySendError::Full(m)) if at < give_up => {
                msg = m;
                at = clock.sleep_until(at + Duration::from_micros(100));
            }
            Err(TrySendError::Full(m) | TrySendError::Disconnected(m)) => return Err(m),
        }
    }
}

/// One shard worker thread: the first of its index, or one a restart
/// spawned.
type Epoch<'scope> = ScopedJoinHandle<'scope, Result<ShardReport, NetError>>;

/// Spawns one shard worker thread (initial bring-up and crash restarts
/// share this path) and returns its queue with its join handle.
fn spawn_shard<'scope, T: ServeTransport + Send>(
    scope: &'scope Scope<'scope, '_>,
    shared: &'scope Shared<'_, T>,
    index: usize,
    egress: Box<dyn EgressSink>,
    recorder: Option<ShardRecorder>,
) -> Result<(SyncSender<ShardMsg>, Epoch<'scope>), NetError> {
    let (tx, rx) = sync_channel::<ShardMsg>(shared.config.queue_cap.max(1));
    let handle = thread::Builder::new()
        .name(format!("rstp-serve-shard-{index}"))
        .spawn_scoped(scope, move || {
            run_shard(index, shared, rx, egress, recorder)
        })
        .map_err(|e| NetError::Thread {
            what: format!("spawn shard {index}: {e}"),
        })?;
    Ok((tx, handle))
}

/// Outcome of trying to re-create one session from a shard recording.
enum Recovered {
    /// Restored and replayed to (at least) the acknowledged floor.
    Resumed(Box<ResumeSession>),
    /// The recording holds a completed verdict — nothing to recover.
    AlreadyComplete,
    /// No usable snapshot, a replay failure, or the replay fell short
    /// of the acknowledged floor: the session is lost.
    Lost,
}

/// Re-creates session `id` from its shard's flight recording: latest
/// snapshot, then replay of the events after it (recvs re-applied, pops
/// re-stepped, sends discarded — a duplicated ack is legal channel
/// behavior). The restart is accepted only if every `Write` in the
/// ledger — the acknowledged floor — is present *by content* in the
/// restored `Y`; anything less would be acknowledged loss.
fn recover_session(rec: &Recording, id: u32, params: TimingParams) -> Recovered {
    if rec.events.iter().any(
        |ev| matches!(ev, Event::Verdict { session, completed, .. } if *session == id && *completed),
    ) {
        return Recovered::AlreadyComplete;
    }

    let mut anchor: Option<(usize, &[u8])> = None;
    for (i, ev) in rec.events.iter().enumerate() {
        if let Event::Snapshot { session, state, .. } = ev {
            if *session == id {
                anchor = Some((i, state));
            }
        }
    }
    let Some((start, state)) = anchor else {
        return Recovered::Lost;
    };
    let Ok(snap) = SessionSnapshot::decode(state) else {
        return Recovered::Lost;
    };
    if snap.session != id {
        return Recovered::Lost;
    }
    let Ok(mut endpoint) = restore_receiver_endpoint(
        snap.kind,
        params,
        snap.n as usize,
        &snap.state,
        snap.written.clone(),
    ) else {
        return Recovered::Lost;
    };

    // Replay. Recorded order per deadline is pop, drained recvs, then
    // the step's effects — so a pop's step runs once its recvs are in:
    // when the *next* pop (or the end of the file) is reached.
    let mut seq = snap.seq;
    let mut open_pop = false;
    for ev in rec.events.iter().skip(start + 1) {
        match ev {
            Event::Rx { session, wire, .. } if *session == id => {
                let Ok(frame) = decode_any(wire) else {
                    return Recovered::Lost;
                };
                if endpoint.apply_recv(frame.packet).is_err() {
                    return Recovered::Lost;
                }
            }
            Event::WheelPop { session, .. } if *session == id => {
                if open_pop && endpoint.step().is_err() {
                    return Recovered::Lost;
                }
                open_pop = true;
            }
            Event::Tx { session, .. } if *session == id => seq += 1,
            _ => {}
        }
    }
    if open_pop && endpoint.step().is_err() {
        return Recovered::Lost;
    }

    // The no-acknowledged-loss floor, checked by content: `written` is
    // the cumulative count after each acknowledged write, `bit` its
    // value, so position `written − 1` of the restored Y must hold it.
    for ev in &rec.events {
        if let Event::Write {
            session,
            written,
            bit,
            ..
        } = ev
        {
            if *session != id {
                continue;
            }
            let ok = (*written as usize)
                .checked_sub(1)
                .and_then(|i| endpoint.written().get(i))
                .is_some_and(|got| got == bit);
            if !ok {
                return Recovered::Lost;
            }
        }
    }

    Recovered::Resumed(Box::new(ResumeSession {
        spec: SessionSpec {
            id: SessionId::new(id),
            kind: snap.kind,
            n: snap.n as usize,
        },
        endpoint,
        seq,
    }))
}

/// Recorder failures surface as I/O errors: recording is infrastructure
/// around the protocol run, not part of the model.
fn record_err(e: &rstp_record::RecordError) -> NetError {
    NetError::Io(std::io::Error::other(e.to_string()))
}

/// Runs the receiver side of every admitted session in `specs` over
/// `transport` until they all complete or `max_wall` expires.
///
/// The shards read `transport`, each in a pass right after it wakes. The
/// calling thread supervises: it wakes for a fault's tick, a moved
/// session, or once per grace period.
///
/// The caller owns the clock so client endpoints can share its epoch
/// (latency stamps are only comparable on one epoch).
///
/// # Errors
///
/// [`NetError`] on transport failure, a shard hitting a model violation
/// (determinism, automaton rejection), or a panicked shard thread.
pub fn run_server<T: ServeTransport + Send>(
    transport: &mut T,
    clock: TickClock,
    specs: &[SessionSpec],
    config: &ServeConfig,
) -> Result<ServeReport, NetError> {
    let shard_count = config.shards.max(1);
    // Each planned session's codec, which the owner table checks every
    // frame against. A protocol with no codec fails the run here, before
    // any thread starts.
    let codecs = specs
        .iter()
        .map(|spec| codec_for(spec.kind))
        .collect::<Result<Vec<_>, _>>()?;
    // Shard → supervisor channel: moved sessions and forwarded frames.
    #[expect(
        clippy::disallowed_methods,
        reason = "a shard may neither block on this queue (c2 deadlines) nor drop from it \
                  (forwarded beta frames are never resent); each message answers one taken \
                  from a bounded shard queue, or moves one drained session, and the \
                  supervisor drains the queue completely whenever it wakes"
    )]
    let (pump_tx, pump_rx) = channel::<PumpMsg>();

    // Flight recorder: one ring + writer thread per shard, created
    // before the shards so each takes its nonblocking handle with it.
    let (recorder_set, shard_recorders) = match &config.record_dir {
        Some(dir) => {
            let tick_micros = config.tick.as_micros().max(1) as u64;
            let (params, seed) = (config.params, config.record_seed);
            let (set, recorders) = RecorderSet::create(dir, shard_count, |shard| RunMeta {
                shard,
                c1: params.c1().ticks(),
                c2: params.c2().ticks(),
                d: params.d().ticks(),
                tick_micros,
                seed,
            })
            .map_err(|e| record_err(&e))?;
            (Some(set), recorders)
        }
        None => (None, Vec::new()),
    };
    let mut shard_recorders = shard_recorders.into_iter();
    let egress = (0..shard_count)
        .map(|_| transport.egress())
        .collect::<Result<Vec<_>, _>>()?;

    // The passes judge the `stall` and `hubdrop` windows by their own
    // ticks; the supervisor fires the rest of the schedule.
    let mut faults = Vec::new();
    let (mut stalls, mut hubdrops) = (Vec::new(), Vec::new());
    for ev in config
        .faults
        .as_ref()
        .map(|p| p.schedule(shard_count))
        .unwrap_or_default()
    {
        match ev {
            FaultEvent::Stall { from_tick, to_tick } => stalls.push((from_tick, to_tick)),
            FaultEvent::HubDrop { from_tick, to_tick } => hubdrops.push((from_tick, to_tick)),
            ev => faults.push(ev),
        }
    }
    let shared = Shared {
        config,
        clock,
        completed: AtomicU64::new(0),
        pump_tx,
        pump: Mutex::new(Pump::new(transport, shard_count, stalls, hubdrops)),
    };

    // The shards borrow `shared`, so they are scoped threads. The
    // supervisor runs on the calling thread, inside the scope.
    let (mut first_err, shards) = thread::scope(|scope| {
        // `handles` holds every epoch of every shard, with whether a
        // scripted kill ended it. It grows past `shard_count` when faults
        // restart shards, and every epoch is joined at the end, so a
        // panicked thread is never silently forgotten.
        let mut handles: Vec<(usize, Epoch<'_>, bool)> = Vec::new();
        let run: Result<(), NetError> = 'run: {
            // Bring-up and admission under one hold of the lock, so no
            // pass runs before every session has its owner. Admission is
            // strict and non-blocking: duplicates, table overflow, and a
            // full shard queue all reject. The owner table keeps each
            // admitted session's codec beside its shard, for the frame
            // check in `route`.
            let mut admitted: u64 = 0;
            {
                let mut pump = shared.pump.lock().unwrap_or_else(PoisonError::into_inner);
                for (index, egress) in egress.into_iter().enumerate() {
                    match spawn_shard(scope, &shared, index, egress, shard_recorders.next()) {
                        Ok((tx, handle)) => {
                            pump.txs.push(tx);
                            handles.push((index, handle, false));
                        }
                        Err(e) => break 'run Err(e),
                    }
                }
                for (spec, &codec) in specs.iter().zip(&codecs) {
                    let raw = spec.id.raw();
                    let shard = raw as usize % shard_count;
                    let fits = !pump.owner.contains_key(&raw)
                        && pump.owner.len() < config.max_sessions
                        && pump.txs[shard].try_send(ShardMsg::Admit(*spec)).is_ok();
                    if fits {
                        pump.owner.insert(raw, (shard, codec));
                        admitted += 1;
                    } else {
                        pump.report.rejected_sessions += 1;
                        pump.report.rejected_ids.push(raw);
                    }
                }
            }

            let mut next_fault = 0usize;
            let mut dead = vec![false; shard_count];
            // Lame-duck linger: once every session has completed, keep
            // serving until ingress has been dry for a grace period
            // rather than exiting on the spot. A client the scheduler
            // stalled past its session's quiet grace may still be owed its
            // final acknowledgement — its retransmission must reach the
            // shard's retired-ghost re-acker, not a torn-down hub. Every
            // pass that reads a datagram re-arms the window, so the server
            // stays up exactly as long as someone is still talking to it.
            let linger_ticks = Pacer::new(config.params, config.tick, config.pace)
                .grace_ticks()
                .max(1);
            let grace = config.tick * u32::try_from(linger_ticks).unwrap_or(u32::MAX);
            let mut all_done_tick: Option<u64> = None;
            loop {
                // The wake's one clock reading.
                let now = clock.now();
                let now_tick = clock.tick_at(now);
                let (last_ingress_tick, error) = {
                    let mut pump = shared.pump.lock().unwrap_or_else(PoisonError::into_inner);
                    (pump.last_ingress_tick, pump.error.take())
                };
                if let Some(e) = error {
                    break 'run Err(e);
                }
                if shared.completed.load(Ordering::Relaxed) >= admitted {
                    let done_at = *all_done_tick.get_or_insert(now_tick);
                    let quiet_since = last_ingress_tick.max(done_at);
                    if now_tick.saturating_sub(quiet_since) >= linger_ticks {
                        break 'run Ok(());
                    }
                } else {
                    all_done_tick = None;
                }
                if now.saturating_duration_since(clock.epoch()) > config.max_wall {
                    break 'run Ok(());
                }
                // An epoch that ended without a scripted kill died of an
                // error or a panic, scripted or not: its sessions can
                // never complete, so the run ends now, and the join below
                // reports why.
                if handles
                    .iter()
                    .any(|(_, handle, killed)| !killed && handle.is_finished())
                {
                    break 'run Ok(());
                }

                // Fire every scripted fault whose tick has arrived.
                while let Some(&ev) = faults.get(next_fault).filter(|ev| ev.tick() <= now_tick) {
                    next_fault += 1;
                    match ev {
                        FaultEvent::Kill { shard, .. } | FaultEvent::Panic { shard, .. }
                            if shard < shard_count && !dead[shard] =>
                        {
                            let kill = matches!(ev, FaultEvent::Kill { .. });
                            let tx = {
                                let mut pump =
                                    shared.pump.lock().unwrap_or_else(PoisonError::into_inner);
                                pump.report.crashes += 1;
                                pump.txs[shard].clone()
                            };
                            let msg = if kill {
                                ShardMsg::Crash
                            } else {
                                ShardMsg::Panic
                            };
                            let _ = send_shard(&tx, clock, msg);
                            // A panicked epoch stays unmarked: its end
                            // ends the run.
                            if let Some((.., killed)) =
                                handles.iter_mut().rev().find(|(i, ..)| kill && *i == shard)
                            {
                                *killed = true;
                            }
                            dead[shard] = true;
                        }
                        FaultEvent::Restart { shard, .. } if shard < shard_count && dead[shard] => {
                            // Recovery: wait for the killed epoch to
                            // return, so the batch its recorder still held
                            // is in the ring (bounded like `send_shard`: at
                            // most 200 ms), and settle the sessions it
                            // moved before it died, so none is both
                            // resumed elsewhere and recovered here; the
                            // frames they held for this shard wait for its
                            // new queue. Then barrier-flush the shard's
                            // recording so everything its last life pushed
                            // is on disk, read it back (a torn tail is
                            // tolerated), and re-create each still-owned
                            // session from its latest snapshot plus
                            // replay. Sessions that cannot reach their
                            // acknowledged floor are dropped from the run.
                            // None of this holds the lock: meanwhile,
                            // passes route the shard's frames to its
                            // closed queue, where they drop, as between
                            // any kill and restart.
                            if let Some((_, killed, _)) =
                                handles.iter().rev().find(|(i, ..)| *i == shard)
                            {
                                let give_up = now + Duration::from_millis(200);
                                let mut at = now;
                                while !killed.is_finished() && at < give_up {
                                    at = clock.sleep_until(at + Duration::from_micros(100));
                                }
                            }
                            let held = shared.handle(pump_rx.try_iter(), &dead, Some(shard));
                            let (mine, egress): (Vec<u32>, _) = {
                                let pump =
                                    shared.pump.lock().unwrap_or_else(PoisonError::into_inner);
                                let mine = pump
                                    .owner
                                    .iter()
                                    .filter(|&(_, &(sh, _))| sh == shard)
                                    .map(|(&id, _)| id)
                                    .collect();
                                (mine, pump.transport.egress())
                            };
                            let recording = match (&recorder_set, &config.record_dir) {
                                (Some(set), Some(dir)) => {
                                    if let Some(mut r) = set.recorder(shard) {
                                        r.push_stats();
                                        let _ = r.flush_barrier(Duration::from_secs(2));
                                    }
                                    let path = dir.join(shard_file_name(
                                        u32::try_from(shard).unwrap_or(u32::MAX),
                                    ));
                                    Recording::load(&path).ok()
                                }
                                _ => None,
                            };

                            // The new epoch's queue stays the supervisor's
                            // until every recovered session is queued on
                            // it, so no pass routes a frame to the new
                            // epoch ahead of its session's `Resume`.
                            let recorder =
                                recorder_set.as_ref().and_then(|set| set.recorder(shard));
                            let spawned = egress.and_then(|egress| {
                                spawn_shard(scope, &shared, shard, egress, recorder)
                            });
                            let (tx, handle) = match spawned {
                                Ok(pair) => pair,
                                Err(e) => break 'run Err(e),
                            };
                            handles.push((shard, handle, false));
                            let mut gone = Vec::new();
                            let mut recovered_sessions = 0;
                            for id in mine {
                                let outcome = match &recording {
                                    Some(rec) => recover_session(rec, id, config.params),
                                    None => Recovered::Lost,
                                };
                                match outcome {
                                    Recovered::Resumed(rs) => {
                                        if send_shard(&tx, clock, ShardMsg::Resume(rs)).is_ok() {
                                            recovered_sessions += 1;
                                        } else {
                                            gone.push((id, true));
                                        }
                                    }
                                    // Counted at completion; late client
                                    // traffic orphans at the pass.
                                    Recovered::AlreadyComplete => gone.push((id, false)),
                                    Recovered::Lost => gone.push((id, true)),
                                }
                            }
                            let mut pump =
                                shared.pump.lock().unwrap_or_else(PoisonError::into_inner);
                            let pump = &mut *pump;
                            for (id, lost) in gone {
                                pump.owner.remove(&id);
                                if lost {
                                    admitted = admitted.saturating_sub(1);
                                    pump.report.unrecoverable_sessions += 1;
                                }
                            }
                            pump.txs[shard] = tx;
                            for frame in held {
                                route(&pump.owner, &mut pump.routed, &mut pump.report, frame);
                            }
                            send_routed(&pump.txs, &mut pump.routed, &mut pump.overflow);
                            pump.report.recovered_sessions += recovered_sessions;
                            pump.report.restarts += 1;
                            dead[shard] = false;
                        }
                        FaultEvent::Drain { from, to, .. }
                            if from < shard_count
                                && to < shard_count
                                && from != to
                                && !dead[from]
                                && !dead[to] =>
                        {
                            let tx = {
                                let pump =
                                    shared.pump.lock().unwrap_or_else(PoisonError::into_inner);
                                pump.txs[from].clone()
                            };
                            let _ = send_shard(&tx, clock, ShardMsg::Drain { to });
                        }
                        // Out-of-range shard, kill of a dead shard, restart
                        // of a live one, a drain from or into a dead shard,
                        // `auto` (expanded by `schedule`): no-ops.
                        _ => {}
                    }
                }

                // Sleep to the next fault's tick or one grace period on,
                // whichever comes first. A moved session wakes the
                // supervisor at once: its `Resume` is queued, and its
                // frames routed, before the next pass.
                let wake = faults.get(next_fault).map_or(now + grace, |ev| {
                    clock.instant_of_tick(ev.tick()).min(now + grace)
                });
                if let Ok(msg) = pump_rx.recv_timeout(wake.saturating_duration_since(clock.now())) {
                    shared.handle(std::iter::once(msg).chain(pump_rx.try_iter()), &dead, None);
                }
            }
        };

        // Shutdown: best-effort message, then close the queues — a shard
        // whose queue was full still sees the hangup. Every way out of
        // the scope passes here, or its implicit join would wait on
        // shards that never see one.
        {
            let mut pump = shared.pump.lock().unwrap_or_else(PoisonError::into_inner);
            for tx in &pump.txs {
                let _ = tx.try_send(ShardMsg::Shutdown);
            }
            pump.txs.clear();
        }

        // Join *every* epoch of every shard — including threads that
        // crashed or panicked long before shutdown. A panic anywhere is a
        // run failure, never a silent exit-0.
        let mut first_err = run.err();
        let mut shards = Vec::new();
        for (index, handle, _) in handles {
            match handle.join() {
                Ok(Ok(shard)) => shards.push(shard),
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                Err(_) => {
                    first_err = first_err.or(Some(NetError::Thread {
                        what: format!("shard {index} panicked"),
                    }))
                }
            }
        }
        (first_err, shards)
    });

    let Pump {
        mut report,
        mut overflow,
        ..
    } = shared
        .pump
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    for mut shard in shards {
        report.orphan_frames += shard.orphan_frames;
        // Pass-side overflow is per shard index, not per epoch; book it
        // once, against the index's first-joined epoch.
        if let Some(dropped) = overflow.get_mut(shard.shard) {
            shard.ingress_overflow = std::mem::take(dropped);
        }
        report.shards.push(shard);
    }
    report.shards.sort_by_key(|s| s.shard);
    // Seal the recording even on a failing run — a postmortem of the
    // failure is exactly when the files matter.
    if let Some(set) = recorder_set {
        if let Err(e) = set.finish() {
            first_err = first_err.or(Some(record_err(&e)));
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }

    report.wall_elapsed = clock.now().saturating_duration_since(clock.epoch());
    Ok(report)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // the tests time real threads and sockets
mod tests {
    use super::*;
    use crate::hub::MemHub;
    use std::time::Instant;

    fn params() -> TimingParams {
        TimingParams::from_ticks(1, 2, 4).expect("valid")
    }

    fn spec(id: u32, n: usize) -> SessionSpec {
        SessionSpec {
            id: SessionId::new(id),
            kind: ProtocolKind::Beta { k: 4 },
            n,
        }
    }

    fn clock(tick: Duration) -> TickClock {
        TickClock::with_epoch(Instant::now() + Duration::from_millis(2), tick)
    }

    #[test]
    fn empty_sessions_complete_without_any_traffic() {
        // n = 0 receivers are done as soon as their grace period drains:
        // the full admit → pace → complete → join path with no clients.
        let tick = Duration::from_micros(200);
        let mut hub = MemHub::new();
        let cfg = ServeConfig::new(params(), tick).with_shards(2);
        let specs: Vec<_> = (1..=6).map(|i| spec(i, 0)).collect();
        let report = run_server(&mut hub, clock(tick), &specs, &cfg).expect("serve");
        assert_eq!(report.admitted(), 6);
        assert_eq!(report.completed(), 6);
        assert_eq!(report.rejected_sessions, 0);
        // Sessions landed on both shards.
        assert!(report.shards.iter().all(|s| s.admitted == 3));
    }

    #[test]
    fn duplicates_and_table_overflow_are_rejected() {
        let tick = Duration::from_micros(200);
        let mut hub = MemHub::new();
        let cfg = ServeConfig::new(params(), tick)
            .with_shards(1)
            .with_max_sessions(2);
        let specs = vec![spec(1, 0), spec(1, 0), spec(2, 0), spec(3, 0)];
        let report = run_server(&mut hub, clock(tick), &specs, &cfg).expect("serve");
        assert_eq!(report.admitted(), 2);
        assert_eq!(report.rejected_sessions, 2);
        assert_eq!(report.completed(), 2);
    }

    #[test]
    fn frames_held_for_a_restarting_shard_wait_for_its_new_queue() {
        // Session 2 left shard 0 for shard 1 as both died: neither takes
        // it, so it stays with shard 0, whose restart recovers it. The
        // frame it held comes back to the restart, to follow the
        // recovered session into the new queue, instead of dropping at
        // shard 0's closed one.
        let tick = Duration::from_micros(200);
        let config = ServeConfig::new(params(), tick).with_shards(2);
        let mut hub = MemHub::new();
        let spec = spec(2, 4);
        let mut pump = Pump::new(&mut hub, 2, Vec::new(), Vec::new());
        pump.owner
            .insert(2, (0, codec_for(spec.kind).expect("codec")));
        pump.txs = (0..2).map(|_| sync_channel(1).0).collect();
        let shared = Shared {
            config: &config,
            clock: clock(tick),
            completed: AtomicU64::new(0),
            pump_tx: channel().0,
            pump: Mutex::new(pump),
        };
        let frame = Frame {
            protocol: rstp_net::ProtocolId::Beta,
            k: 4,
            packet: Packet::Data(1),
            seq: 0,
            sent_at_micros: 0,
            session: spec.id,
        };
        let moved = PumpMsg::Moved {
            from: 0,
            to: 1,
            session: Box::new(ResumeSession {
                spec,
                endpoint: crate::endpoint::receiver_endpoint(spec.kind, params(), spec.n)
                    .expect("endpoint"),
                seq: 0,
            }),
            held: vec![frame],
        };
        let aside = shared.handle(std::iter::once(moved), &[true, true], Some(0));
        assert_eq!(aside, vec![frame]);
        let pump = shared.pump.lock().expect("pump");
        assert_eq!(pump.owner[&2].0, 0);
        assert_eq!(pump.report.orphan_frames + pump.report.decode_errors, 0);
    }

    #[test]
    fn frames_for_unadmitted_sessions_count_as_orphans() {
        let tick = Duration::from_micros(200);
        let mut hub = MemHub::new();
        // Two clients whose ids the server never admitted.
        let codec = rstp_net::WireCodec::new(rstp_net::ProtocolId::Beta, 4).expect("codec");
        use rstp_net::Transport as _;
        let mut ghost_a = hub.client_transport(SessionId::new(99), codec);
        let mut ghost_b = hub.client_transport(SessionId::new(98), codec);
        ghost_a.send(rstp_core::Packet::Data(1), 0).expect("send");
        ghost_b.send(rstp_core::Packet::Data(0), 0).expect("send");
        let cfg = ServeConfig::new(params(), tick)
            .with_shards(1)
            .with_max_wall(Duration::from_millis(500));
        let report = run_server(&mut hub, clock(tick), &[spec(1, 0)], &cfg).expect("serve");
        assert_eq!(report.orphan_frames, 2);
        assert_eq!(report.completed(), 1);
    }
}
