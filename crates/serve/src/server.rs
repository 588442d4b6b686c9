//! Session admission, frame routing, and shard lifecycle.
//!
//! [`run_server`] is the pump: it drains the transport in batches of up
//! to `B` datagrams per call, routes each frame by its session id, and
//! hands each shard its share of the batch, in arrival order, as one
//! message on that shard's bounded queue. Admission is strict — a
//! session beyond `max_sessions`, with a duplicate id, or arriving while
//! its shard's queue is full is *rejected*, because the alternative
//! (blocking the pump) would stall every admitted session past its `c2`
//! window. Frames for admitted sessions likewise drop rather than block
//! when a queue is full; the protocols already tolerate channel loss,
//! they do not tolerate a frozen clock.

use crate::endpoint::restore_receiver_endpoint;
use crate::faults::{FaultEvent, FaultPlan};
use crate::metrics::{ServeReport, ShardReport};
use crate::shard::{run_shard, Handover, ResumeSession, ShardMsg, ShardParams};
use crate::snapshot::SessionSnapshot;
use rstp_core::{SessionId, TimingParams};
use rstp_net::{decode_any, Frame, FrameBuf, NetError, Pace, TickClock};
use rstp_record::{
    shard_file_name, Event, RecStats, RecorderSet, Recording, RunMeta, ShardRecorder,
};
use rstp_sim::ProtocolKind;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

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
    /// Batch bound `B`: datagrams drained per ingress call, frames per
    /// shard queue message, and frames flushed per egress call.
    pub batch: usize,
    /// Bound of each shard's ingress queue, in messages: an admission, a
    /// handover message, or one pump batch's frames for that shard (up to
    /// `batch` frames).
    pub queue_cap: usize,
    /// Admission ceiling across all shards.
    pub max_sessions: usize,
    /// Timing tolerance for miss/violation accounting (driver-identical).
    pub slack: Duration,
    /// Quiet ticks a session must drain after its last write to count
    /// as completed.
    pub grace_ticks: u64,
    /// Hard wall-clock cap on the whole run.
    pub max_wall: Duration,
    /// Directory for the flight recording (one `shard-NN.rec` per
    /// shard); `None` disables recording entirely.
    pub record_dir: Option<PathBuf>,
    /// Input seed stamped into each recording's metadata so a
    /// postmortem can regenerate the swarm inputs (`rstp replay`).
    pub record_seed: Option<u64>,
    /// Scripted fault-injection plan the pump executes (`None` runs
    /// fault-free). See [`crate::faults`] for the grammar.
    pub faults: Option<FaultPlan>,
}

impl ServeConfig {
    /// Defaults mirroring `rstp-net`'s driver where the knobs overlap:
    /// slow pace, slack of a quarter tick, grace of `2·(d + c2)` ticks;
    /// plus 4 shards, batches of 32, queues of 256, and room for 1024
    /// sessions.
    #[must_use]
    pub fn new(params: TimingParams, tick: Duration) -> Self {
        ServeConfig {
            params,
            tick,
            pace: Pace::Slow,
            shards: 4,
            batch: 32,
            queue_cap: 256,
            max_sessions: 1024,
            slack: tick / 4,
            grace_ticks: 2 * (params.d().ticks() + params.c2().ticks()),
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

    /// Sets the I/O batch bound.
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
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

/// Shard → pump messages: the handover control plane. Handover
/// messages ride through the pump rather than shard-to-shard channels so
/// a routing flip (REDIRECT) lands in the owner table atomically with the
/// frame's delivery order.
pub(crate) enum PumpMsg {
    /// Deliver a handover message to a shard's queue.
    ToShard {
        /// Destination shard index.
        shard: usize,
        /// The message.
        msg: Handover,
    },
    /// A REDIRECT: re-route the session's ownership to `target`, then
    /// deliver the REDIRECT there for activation, followed by the frames
    /// the source still held for the session.
    Redirect {
        /// The session handed over.
        session: u32,
        /// Its new owner.
        target: usize,
        /// Frames the source received for the session but never applied,
        /// in arrival order.
        held: Vec<Frame>,
    },
    /// Frames that reached a shard after it handed their session off:
    /// route them again, to the session's owner now.
    Forward(Vec<Frame>),
}

/// The pump tick a scheduled fault fires at.
fn fault_tick(ev: &FaultEvent) -> u64 {
    match *ev {
        FaultEvent::Kill { tick, .. }
        | FaultEvent::Restart { tick, .. }
        | FaultEvent::Panic { tick, .. }
        | FaultEvent::Drain { tick, .. } => tick,
        FaultEvent::Stall { from_tick, .. } | FaultEvent::HubDrop { from_tick, .. } => from_tick,
        FaultEvent::Auto { .. } => 0,
    }
}

/// Best-effort handover delivery: a full queue parks the message for
/// retry on the next pump iteration (bounded — the handover protocol
/// retries end-to-end anyway), a dead shard drops it.
fn deliver_ctl(
    txs: &[SyncSender<ShardMsg>],
    dead: &[bool],
    pending_ctl: &mut VecDeque<(usize, Handover)>,
    shard: usize,
    msg: Handover,
) {
    if shard >= txs.len() || dead.get(shard).copied().unwrap_or(true) {
        return;
    }
    match txs[shard].try_send(ShardMsg::Control(msg)) {
        Ok(()) => {}
        Err(TrySendError::Full(ShardMsg::Control(m))) => {
            if pending_ctl.len() < 1024 {
                pending_ctl.push_back((shard, m));
            }
        }
        Err(_) => {}
    }
}

/// Queues `frame` on its owning shard's share of the current batch, or
/// counts it as an orphan when no shard owns its session.
fn route(
    owner: &HashMap<u32, usize>,
    routed: &mut [Vec<Frame>],
    orphan_frames: &mut u64,
    frame: Frame,
) {
    match owner
        .get(&frame.session.raw())
        .and_then(|&shard| routed.get_mut(shard))
    {
        Some(share) => share.push(frame),
        None => *orphan_frames += 1,
    }
}

/// Sends each shard its routed frames, in arrival order, as messages of
/// at most `batch` frames: one message per shard for an ingress batch.
/// Backpressure: a full queue refuses a whole message and each of its
/// frames counts as `ingress_overflow` (a channel loss the protocol
/// tolerates) instead of stalling the pump. A shard that died drops its
/// share; its error surfaces at join.
fn send_routed(
    txs: &[SyncSender<ShardMsg>],
    routed: &mut [Vec<Frame>],
    overflow: &mut [u64],
    batch: usize,
) {
    for ((tx, share), dropped) in txs.iter().zip(routed.iter_mut()).zip(overflow) {
        for frames in share.chunks(batch) {
            if let Err(TrySendError::Full(_)) = tx.try_send(ShardMsg::Frames(frames.to_vec())) {
                *dropped += frames.len() as u64;
            }
        }
        share.clear();
    }
}

/// Delivers a must-arrive message (Crash/Panic/Resume) to a shard,
/// waiting out a full queue briefly. `false` if the shard is gone.
fn send_shard(tx: &SyncSender<ShardMsg>, mut msg: ShardMsg) -> bool {
    for _ in 0..2000 {
        match tx.try_send(msg) {
            Ok(()) => return true,
            Err(TrySendError::Full(m)) => {
                msg = m;
                thread::sleep(Duration::from_micros(100));
            }
            Err(TrySendError::Disconnected(_)) => return false,
        }
    }
    false
}

/// A live shard's command queue plus its worker's join handle.
type ShardHandle = (
    SyncSender<ShardMsg>,
    JoinHandle<Result<ShardReport, NetError>>,
);

/// Spawns one shard worker thread (initial bring-up and crash restarts
/// share this path).
fn spawn_shard(
    index: usize,
    config: &ServeConfig,
    clock: TickClock,
    egress: Box<dyn EgressSink>,
    completed: Arc<AtomicU64>,
    recorder: Option<ShardRecorder>,
    pump: Sender<PumpMsg>,
) -> Result<ShardHandle, NetError> {
    let (tx, rx) = sync_channel::<ShardMsg>(config.queue_cap.max(1));
    let sp = ShardParams {
        index,
        params: config.params,
        tick: config.tick,
        pace: config.pace,
        slack: config.slack,
        grace_ticks: config.grace_ticks,
        batch: config.batch.max(1),
    };
    let handle = thread::Builder::new()
        .name(format!("rstp-serve-shard-{index}"))
        .spawn(move || run_shard(sp, clock, rx, egress, completed, recorder, pump))
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
/// The caller owns the clock so client endpoints can share its epoch
/// (latency stamps are only comparable on one epoch).
///
/// # Errors
///
/// [`NetError`] on transport failure, a shard hitting a model violation
/// (determinism, automaton rejection), or a panicked shard thread.
pub fn run_server<T: ServeTransport>(
    transport: &mut T,
    clock: TickClock,
    specs: &[SessionSpec],
    config: &ServeConfig,
) -> Result<ServeReport, NetError> {
    let shard_count = config.shards.max(1);
    let completed = Arc::new(AtomicU64::new(0));
    // Shard → pump control channel (handover frames and redirects).
    #[expect(
        clippy::disallowed_methods,
        reason = "a shard may neither block on this queue (c2 deadlines) nor drop from it \
                  (forwarded beta frames are never resent); each message answers one taken \
                  from a bounded shard queue, or one handover step, and the pump drains the \
                  queue completely every iteration"
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

    // `handles` grows past `shard_count` when faults restart shards:
    // every epoch of every shard is joined at the end, so a panicked
    // thread is never silently forgotten.
    let mut txs: Vec<SyncSender<ShardMsg>> = Vec::with_capacity(shard_count);
    let mut handles: Vec<(usize, JoinHandle<Result<ShardReport, NetError>>)> = Vec::new();
    for index in 0..shard_count {
        let (tx, handle) = spawn_shard(
            index,
            config,
            clock,
            transport.egress()?,
            completed.clone(),
            shard_recorders.next(),
            pump_tx.clone(),
        )?;
        txs.push(tx);
        handles.push((index, handle));
    }

    // Admission: strict, non-blocking. Duplicates, table overflow, and a
    // full shard queue all reject.
    let mut owner: HashMap<u32, usize> = HashMap::new();
    let mut rejected: u64 = 0;
    let mut rejected_ids: Vec<u32> = Vec::new();
    let mut admitted: u64 = 0;
    for spec in specs {
        let raw = spec.id.raw();
        if owner.contains_key(&raw) || owner.len() >= config.max_sessions {
            rejected += 1;
            rejected_ids.push(raw);
            continue;
        }
        let shard = raw as usize % shard_count;
        match txs[shard].try_send(ShardMsg::Admit(*spec)) {
            Ok(()) => {
                owner.insert(raw, shard);
                admitted += 1;
            }
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                rejected += 1;
                rejected_ids.push(raw);
            }
        }
    }

    // The pump: drain → demux → route, B datagrams at a time, with the
    // scripted fault schedule and the handover control plane threaded
    // through the same loop.
    let mut orphan_frames: u64 = 0;
    let mut decode_errors: u64 = 0;
    let mut overflow = vec![0u64; shard_count];
    let batch_cap = config.batch.max(1);
    let mut batch: Vec<FrameBuf> = Vec::with_capacity(batch_cap);
    // Each shard's share of the frames routed in this iteration.
    let mut routed: Vec<Vec<Frame>> = (0..shard_count)
        .map(|_| Vec::with_capacity(batch_cap))
        .collect();
    let schedule: Vec<FaultEvent> = config
        .faults
        .as_ref()
        .map(|p| p.schedule(shard_count))
        .unwrap_or_default();
    let mut next_fault = 0usize;
    let mut dead = vec![false; shard_count];
    let mut stall_end: u64 = 0;
    let mut drop_end: u64 = 0;
    let mut pending_ctl: VecDeque<(usize, Handover)> = VecDeque::new();
    let mut restarts: u64 = 0;
    let mut crashes: u64 = 0;
    let mut recovered_sessions: u64 = 0;
    let mut unrecoverable_sessions: u64 = 0;
    let mut hub_dropped_frames: u64 = 0;
    // Nap briefly when the socket is dry — but never so long that a
    // kernel receive buffer (a few hundred datagrams on most systems)
    // could fill behind our back at coarse ticks.
    let idle_nap = (config.tick / 2).clamp(Duration::from_micros(50), Duration::from_micros(500));
    // Lame-duck linger: once every session has completed, keep pumping
    // until ingress has been dry for a grace period rather than exiting
    // on the spot. A client the scheduler stalled past its session's
    // quiet grace may still be owed its final acknowledgement — its
    // retransmission must reach the shard's retired-ghost re-acker, not
    // a torn-down hub. Every arriving frame re-arms the window, so the
    // pump stays up exactly as long as someone is still talking to it.
    let linger_ticks = config.grace_ticks.max(1);
    let mut last_ingress_tick: u64 = 0;
    let mut all_done_tick: Option<u64> = None;
    let pump_result = 'pump: loop {
        // The iteration's one clock reading.
        let now = clock.now();
        let now_tick = clock.tick_at(now);
        if completed.load(Ordering::Relaxed) >= admitted {
            let done_at = *all_done_tick.get_or_insert(now_tick);
            let quiet_since = last_ingress_tick.max(done_at);
            if now_tick.saturating_sub(quiet_since) >= linger_ticks {
                break Ok(());
            }
        } else {
            all_done_tick = None;
        }
        if now.saturating_duration_since(clock.epoch()) > config.max_wall {
            break Ok(());
        }

        // Fire every scripted fault whose tick has arrived.
        while next_fault < schedule.len() && fault_tick(&schedule[next_fault]) <= now_tick {
            let ev = schedule[next_fault];
            next_fault += 1;
            match ev {
                FaultEvent::Kill { shard, .. } if shard < shard_count && !dead[shard] => {
                    let _ = send_shard(&txs[shard], ShardMsg::Crash);
                    dead[shard] = true;
                    crashes += 1;
                }
                FaultEvent::Panic { shard, .. } if shard < shard_count && !dead[shard] => {
                    let _ = send_shard(&txs[shard], ShardMsg::Panic);
                    dead[shard] = true;
                    crashes += 1;
                }
                FaultEvent::Restart { shard, .. } if shard < shard_count && dead[shard] => {
                    // Recovery: barrier-flush the shard's recording so
                    // everything its last life pushed is on disk, read
                    // it back (a torn tail is tolerated), and re-create
                    // each still-owned session from its latest snapshot
                    // plus replay. Sessions that cannot reach their
                    // acknowledged floor are dropped from the run.
                    let mine: Vec<u32> = owner
                        .iter()
                        .filter(|&(_, &sh)| sh == shard)
                        .map(|(&id, _)| id)
                        .collect();
                    let mut resumed: Vec<Box<ResumeSession>> = Vec::new();
                    let recording = match (&recorder_set, &config.record_dir) {
                        (Some(set), Some(dir)) => {
                            if let Some(r) = set.recorder(shard) {
                                r.push_stats(RecStats {
                                    recorded: r.recorded(),
                                    dropped: r.dropped(),
                                    epoch: 0,
                                });
                                let _ = r.flush_barrier(Duration::from_secs(2));
                            }
                            let path =
                                dir.join(shard_file_name(u32::try_from(shard).unwrap_or(u32::MAX)));
                            Recording::load(&path).ok()
                        }
                        _ => None,
                    };
                    for id in mine {
                        let outcome = match &recording {
                            Some(rec) => recover_session(rec, id, config.params),
                            None => Recovered::Lost,
                        };
                        match outcome {
                            Recovered::Resumed(rs) => resumed.push(rs),
                            Recovered::AlreadyComplete => {
                                // Counted at completion; late client
                                // traffic orphans at the pump.
                                owner.remove(&id);
                            }
                            Recovered::Lost => {
                                owner.remove(&id);
                                admitted = admitted.saturating_sub(1);
                                unrecoverable_sessions += 1;
                            }
                        }
                    }
                    let recorder = recorder_set.as_ref().and_then(|set| set.recorder(shard));
                    let egress = match transport.egress() {
                        Ok(e) => e,
                        Err(e) => break 'pump Err(e),
                    };
                    let (tx, handle) = match spawn_shard(
                        shard,
                        config,
                        clock,
                        egress,
                        completed.clone(),
                        recorder,
                        pump_tx.clone(),
                    ) {
                        Ok(pair) => pair,
                        Err(e) => break 'pump Err(e),
                    };
                    txs[shard] = tx;
                    handles.push((shard, handle));
                    dead[shard] = false;
                    restarts += 1;
                    for rs in resumed {
                        let id = rs.spec.id.raw();
                        if send_shard(&txs[shard], ShardMsg::Resume(rs)) {
                            recovered_sessions += 1;
                        } else {
                            owner.remove(&id);
                            admitted = admitted.saturating_sub(1);
                            unrecoverable_sessions += 1;
                        }
                    }
                }
                FaultEvent::Drain { from, to, .. }
                    if from < shard_count && to < shard_count && from != to && !dead[from] =>
                {
                    deliver_ctl(&txs, &dead, &mut pending_ctl, from, Handover::Drain { to });
                }
                FaultEvent::Stall { to_tick, .. } => stall_end = stall_end.max(to_tick),
                FaultEvent::HubDrop { to_tick, .. } => drop_end = drop_end.max(to_tick),
                // Out-of-range shard, kill of a dead shard, restart of a
                // live one, `auto` (expanded by `schedule`): no-ops.
                _ => {}
            }
        }

        // Drain the handover control plane.
        while let Ok(msg) = pump_rx.try_recv() {
            match msg {
                PumpMsg::ToShard { shard, msg } => {
                    deliver_ctl(&txs, &dead, &mut pending_ctl, shard, msg);
                }
                PumpMsg::Forward(frames) => {
                    for frame in frames {
                        route(&owner, &mut routed, &mut orphan_frames, frame);
                    }
                }
                PumpMsg::Redirect {
                    session,
                    target,
                    held,
                } => {
                    // Ownership flips here, in the pump, so no frame
                    // routed after this point can reach the source's
                    // retired copy.
                    owner.insert(session, target);
                    let msg = Handover::Redirect { session };
                    deliver_ctl(&txs, &dead, &mut pending_ctl, target, msg);
                    for frame in held {
                        route(&owner, &mut routed, &mut orphan_frames, frame);
                    }
                }
            }
        }
        send_routed(&txs, &mut routed, &mut overflow, batch_cap);
        // Retry handover messages parked on a full queue.
        for _ in 0..pending_ctl.len() {
            if let Some((shard, msg)) = pending_ctl.pop_front() {
                deliver_ctl(&txs, &dead, &mut pending_ctl, shard, msg);
            }
        }

        // A scripted socket stall: the pump does not touch ingress.
        if now_tick < stall_end {
            thread::sleep(idle_nap);
            continue;
        }
        batch.clear();
        let got = match transport.recv_batch(&mut batch, batch_cap) {
            Ok(got) => got,
            Err(e) => break Err(e),
        };
        if got > 0 {
            last_ingress_tick = now_tick;
        }
        // A scripted hub drop: read and discard, mid-transfer loss.
        if now_tick < drop_end {
            hub_dropped_frames += got as u64;
            if got == 0 {
                thread::sleep(idle_nap);
            }
            continue;
        }
        if got == 0 {
            thread::sleep(idle_nap);
            continue;
        }
        for bytes in &batch {
            // Full strict decode before routing: the frame crosses a
            // thread boundary, so the checksum is verified exactly once,
            // here, rather than trusting the cheap peek.
            match decode_any(bytes) {
                Ok(frame) => route(&owner, &mut routed, &mut orphan_frames, frame),
                Err(_) => decode_errors += 1,
            }
        }
        send_routed(&txs, &mut routed, &mut overflow, batch_cap);
    };

    // Shutdown: best-effort message, then close the queues — a shard
    // whose queue was full still sees the hangup.
    for (index, tx) in txs.iter().enumerate() {
        if !dead[index] {
            let _ = tx.try_send(ShardMsg::Shutdown);
        }
    }
    drop(txs);
    drop(pump_tx);

    // Join *every* epoch of every shard — including threads that
    // crashed or panicked long before shutdown. A panic anywhere is a
    // run failure, never a silent exit-0.
    let mut shards: Vec<ShardReport> = Vec::with_capacity(handles.len());
    let mut overflow_applied = vec![false; shard_count];
    let mut first_err: Option<NetError> = pump_result.err();
    for (index, handle) in handles {
        match handle.join() {
            Ok(Ok(mut report)) => {
                orphan_frames += report.orphan_frames;
                // Pump-side overflow is per shard index, not per epoch;
                // book it once, against the index's first-joined epoch.
                if !overflow_applied[index] {
                    report.ingress_overflow = overflow[index];
                    overflow_applied[index] = true;
                }
                shards.push(report);
            }
            Ok(Err(e)) => first_err = first_err.or(Some(e)),
            Err(_) => {
                first_err = first_err.or(Some(NetError::Thread {
                    what: format!("shard {index} panicked"),
                }))
            }
        }
    }
    shards.sort_by_key(|s| s.shard);
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

    Ok(ServeReport {
        shards,
        rejected_sessions: rejected,
        rejected_ids,
        orphan_frames,
        decode_errors,
        restarts,
        crashes,
        recovered_sessions,
        unrecoverable_sessions,
        hub_dropped_frames,
        wall_elapsed: clock.now().saturating_duration_since(clock.epoch()),
    })
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
