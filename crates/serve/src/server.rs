//! Session admission, frame routing, and shard lifecycle.
//!
//! The shards read ingress themselves. Right after each wake, a shard
//! runs one `Pump::pass`: it drains the transport in batches of up to
//! `BATCH` datagrams per call, at most `PASS_READS` calls, and pushes
//! each frame, in arrival order, into the mailbox of the shard that owns
//! its session. In the same hold of the lock it takes its own mailbox.
//! One `Pump`, behind one lock, holds every shard's mailbox and serves
//! every shard's passes. The thread that calls [`run_server`] supervises:
//! it admits sessions, fires the scripted faults, restarts killed shards,
//! and ends the run. It holds the lock only to read or change the tables
//! and mailboxes, never while it waits.
//!
//! Admission is strict — a session beyond `max_sessions` or with a
//! duplicate id is *rejected*. A mailbox never refuses a message, but it
//! holds at most `queue_cap × BATCH` frames: a frame past that bound
//! drops, since the protocols already tolerate channel loss.

use crate::endpoint::restore_receiver_endpoint;
use crate::faults::{FaultEvent, FaultPlan};
use crate::idmap::IdMap;
use crate::metrics::{ServeReport, ShardReport};
use crate::shard::{run_shard, ResumeSession, ShardMsg};
use crate::snapshot::SessionSnapshot;
use rstp_core::{Packet, SessionId, TimingParams};
use rstp_net::{
    codec_for, decode_any, Frame, FrameBuf, NetError, Pace, Pacer, TickClock, WireCodec,
};
use rstp_record::{shard_file_name, Event, RecorderSet, Recording, RunMeta, ShardRecorder};
use rstp_sim::ProtocolKind;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread::{self, Scope, ScopedJoinHandle};
use std::time::Duration;

/// The batch bound `B`: datagrams a pass drains per ingress call, frames
/// a mailbox holds per unit of `queue_cap`, and frames a shard flushes
/// per egress call.
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
    /// Bound of each shard's mailbox, in units of `BATCH` = 32 frames: a
    /// mailbox holds at most `queue_cap × 32` frames. A shard takes its
    /// mailbox right after its own pass, so it holds what the other
    /// shards' passes routed to it since its last wake, up to one gap of
    /// them. Control messages (admissions, drains, resumed sessions) are
    /// never refused.
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
    /// plus 4 shards, mailboxes of 256 × 32 frames, and room for 1024
    /// sessions.
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

    /// Sets the per-shard mailbox bound, in units of `BATCH` frames.
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

/// One shard's inbound mailbox, in the `Pump`: the control messages and
/// the frames routed to the shard since it last took them, which it
/// swaps out at its next wake, in the same hold as its pass.
#[derive(Default)]
struct Mailbox {
    msgs: Vec<ShardMsg>,
    frames: Vec<Frame>,
    /// The shard epoch this mailbox serves. A restart moves it on, so the
    /// killed epoch takes nothing more and moves no session.
    epoch: u32,
    /// Killed and not yet restarted: a drain moves nothing here.
    dead: bool,
    /// Frames dropped past the bound, over every epoch of the shard.
    overflow: u64,
}

/// Pushes `frame` into the mailbox of the shard that owns its session,
/// unless that mailbox already holds `cap` frames: then the frame counts
/// in the shard's overflow (a channel loss the protocol tolerates). A
/// frame for a session no shard owns counts as an orphan. One its session
/// cannot take counts as a decode error and never reaches the automaton:
/// another protocol or `k` (the rule of `WireCodec::decode`), or an ack,
/// since every server session is a receiver.
fn route(
    owner: &IdMap<(usize, WireCodec)>,
    mailboxes: &mut [Mailbox],
    cap: usize,
    report: &mut ServeReport,
    frame: Frame,
) {
    let Some(&(shard, codec)) = owner.get(&frame.session.raw()) else {
        report.orphan_frames += 1;
        return;
    };
    let fits = codec.accepts(&frame) && matches!(frame.packet, Packet::Data(_));
    match mailboxes.get_mut(shard) {
        Some(_) if !fits => report.decode_errors += 1,
        Some(mailbox) if mailbox.frames.len() < cap => mailbox.frames.push(frame),
        Some(mailbox) => mailbox.overflow += 1,
        None => report.orphan_frames += 1,
    }
}

/// Whether `tick` lies in one of the `[from, to)` tick windows.
fn within(windows: &[(u64, u64)], tick: u64) -> bool {
    windows.iter().any(|&(from, to)| from <= tick && tick < to)
}

/// The ingress state every shard's pass shares, behind one lock: the
/// transport, the tables a frame is routed by, every shard's mailbox,
/// and what routing books. The supervisor takes the same lock to admit
/// sessions, fire faults and restart shards.
pub(crate) struct Pump<'t, T> {
    transport: &'t mut T,
    /// Each admitted session's shard, with its codec for the frame check
    /// in `route`.
    owner: IdMap<(usize, WireCodec)>,
    /// Each shard's mailbox, by shard index.
    mailboxes: Vec<Mailbox>,
    /// The most frames a mailbox holds: `queue_cap × BATCH`.
    frame_cap: usize,
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
    /// no session admitted, and each mailbox empty and serving epoch 0.
    fn new(
        transport: &'t mut T,
        shards: usize,
        frame_cap: usize,
        stalls: Vec<(u64, u64)>,
        hubdrops: Vec<(u64, u64)>,
    ) -> Self {
        Pump {
            transport,
            owner: IdMap::default(),
            mailboxes: (0..shards).map(|_| Mailbox::default()).collect(),
            frame_cap,
            report: ServeReport::default(),
            batch: Vec::with_capacity(BATCH),
            stalls,
            hubdrops,
            last_ingress_tick: 0,
            error: None,
        }
    }

    /// Swaps shard `index`'s mailbox with `msgs` and `frames`, which the
    /// shard emptied after its last wake, so once warm neither side
    /// allocates. Returns `false`, and leaves the mailbox untouched, when
    /// a restart has given it to an epoch newer than `epoch`.
    pub(crate) fn take(
        &mut self,
        index: usize,
        epoch: u32,
        msgs: &mut Vec<ShardMsg>,
        frames: &mut Vec<Frame>,
    ) -> bool {
        match self.mailboxes.get_mut(index) {
            Some(mailbox) if mailbox.epoch == epoch => {
                std::mem::swap(&mut mailbox.msgs, msgs);
                std::mem::swap(&mut mailbox.frames, frames);
                true
            }
            _ => false,
        }
    }

    /// Moves the `leaving` sessions of shard `from`, at `epoch`, to shard
    /// `to`, in this one hold: each one's owner entry, then its `Resume`
    /// and the frames it held into `to`'s mailbox, then the frames
    /// `from`'s mailbox got for it since `from` last took it. No frame of
    /// a moved session reaches `from` afterwards. Returns how many moved:
    /// none, with `leaving` never read, when `to` is dead or `epoch` is
    /// no longer `from`'s.
    pub(crate) fn drain_into(
        &mut self,
        from: usize,
        epoch: u32,
        to: usize,
        leaving: impl Iterator<Item = (Box<ResumeSession>, VecDeque<Frame>)>,
    ) -> u64 {
        let current = self.mailboxes.get(from).is_some_and(|m| m.epoch == epoch);
        let adopts = self.mailboxes.get(to).is_some_and(|m| !m.dead);
        if from == to || !current || !adopts {
            return 0;
        }
        // The source's unread frames, set aside while the target's
        // mailbox is borrowed.
        let mut unread = self
            .mailboxes
            .get_mut(from)
            .map(|m| std::mem::take(&mut m.frames))
            .unwrap_or_default();
        let mut moved = 0;
        if let Some(target) = self.mailboxes.get_mut(to) {
            for (session, held) in leaving {
                if let Some(entry) = self.owner.get_mut(&session.spec.id.raw()) {
                    entry.0 = to;
                }
                target.msgs.push(ShardMsg::Resume(session));
                target.frames.extend(held);
                moved += 1;
            }
            let owner = &self.owner;
            unread.retain(|frame| {
                let follows = owner
                    .get(&frame.session.raw())
                    .is_some_and(|&(shard, _)| shard == to);
                if follows {
                    target.frames.push(*frame);
                }
                !follows
            });
        }
        if let Some(source) = self.mailboxes.get_mut(from) {
            source.frames = unread;
        }
        moved
    }
}

impl<T: ServeTransport> Pump<'_, T> {
    /// Drains the transport at `now_tick`: `BATCH`-sized reads until one
    /// comes back short, or `PASS_READS` of them, each frame decoded and
    /// routed into its shard's mailbox as it is read. Inside a `stall`
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
                        Ok(frame) => route(
                            &self.owner,
                            &mut self.mailboxes,
                            self.frame_cap,
                            &mut self.report,
                            frame,
                        ),
                        Err(_) => self.report.decode_errors += 1,
                    }
                }
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
    pub(crate) pump: Mutex<Pump<'a, T>>,
}

/// One shard worker thread: the first of its index, or one a restart
/// spawned.
type Epoch<'scope> = ScopedJoinHandle<'scope, Result<ShardReport, NetError>>;

/// Spawns `epoch` of shard `index` (initial bring-up and crash restarts
/// share this path); it reads the mailbox the `Pump` keeps for that
/// epoch.
fn spawn_shard<'scope, T: ServeTransport + Send>(
    scope: &'scope Scope<'scope, '_>,
    shared: &'scope Shared<'_, T>,
    index: usize,
    epoch: u32,
    egress: Box<dyn EgressSink>,
    recorder: Option<ShardRecorder>,
) -> Result<Epoch<'scope>, NetError> {
    thread::Builder::new()
        .name(format!("rstp-serve-shard-{index}"))
        .spawn_scoped(scope, move || {
            run_shard(index, epoch, shared, egress, recorder)
        })
        .map_err(|e| NetError::Thread {
            what: format!("spawn shard {index}: {e}"),
        })
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
/// calling thread supervises: it wakes for a fault's tick, or once per
/// grace period.
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
    let frame_cap = config.queue_cap.max(1).saturating_mul(BATCH);
    let shared = Shared {
        config,
        clock,
        completed: AtomicU64::new(0),
        pump: Mutex::new(Pump::new(
            transport,
            shard_count,
            frame_cap,
            stalls,
            hubdrops,
        )),
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
            // strict: duplicates and table overflow reject. The owner
            // table keeps each admitted session's codec beside its shard,
            // for the frame check in `route`.
            let mut admitted: u64 = 0;
            {
                let mut pump = shared.pump.lock().unwrap_or_else(PoisonError::into_inner);
                let pump = &mut *pump;
                for (index, egress) in egress.into_iter().enumerate() {
                    match spawn_shard(scope, &shared, index, 0, egress, shard_recorders.next()) {
                        Ok(handle) => handles.push((index, handle, false)),
                        Err(e) => break 'run Err(e),
                    }
                }
                for (spec, &codec) in specs.iter().zip(&codecs) {
                    let raw = spec.id.raw();
                    let shard = raw as usize % shard_count;
                    if pump.owner.contains_key(&raw) || pump.owner.len() >= config.max_sessions {
                        pump.report.rejected_sessions += 1;
                        pump.report.rejected_ids.push(raw);
                        continue;
                    }
                    pump.mailboxes[shard].msgs.push(ShardMsg::Admit(*spec));
                    pump.owner.insert(raw, (shard, codec));
                    admitted += 1;
                }
            }

            let mut next_fault = 0usize;
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

                // Fire every scripted fault whose tick has arrived. The
                // kills, panics and drains of one wake share one hold of
                // the lock, so a drain into a shard killed in the same
                // tick finds it dead, whichever shard wakes first. A
                // restart takes the lock itself, in its place in the order.
                let mut held = None;
                while let Some(&ev) = faults.get(next_fault).filter(|ev| ev.tick() <= now_tick) {
                    next_fault += 1;
                    if let FaultEvent::Restart { shard, .. } = ev {
                        held = None;
                        // Recovery: wait for the killed epoch to return,
                        // so the batch its recorder still held is in the
                        // ring (at most 200 ms). Under the lock, give the
                        // shard's mailbox to the next epoch, which fences
                        // the killed one off (it takes nothing more and
                        // moves no session), and read the sessions the
                        // shard still owns. Without the lock,
                        // barrier-flush the shard's recording so
                        // everything its last life pushed is on disk, read
                        // it back (a torn tail is tolerated), and
                        // re-create each session from its latest snapshot
                        // plus replay. Sessions that cannot reach their
                        // acknowledged floor are dropped from the run.
                        if let Some((_, epoch, _)) = handles
                            .iter()
                            .rev()
                            .find(|(i, _, killed)| *i == shard && *killed)
                        {
                            let give_up = now + Duration::from_millis(200);
                            let mut at = now;
                            while !epoch.is_finished() && at < give_up {
                                at = clock.sleep_until(at + Duration::from_micros(100));
                            }
                        }
                        let (epoch, mine, egress) = {
                            let mut pump =
                                shared.pump.lock().unwrap_or_else(PoisonError::into_inner);
                            let pump = &mut *pump;
                            // A restart of a live shard is a no-op.
                            let Some(mailbox) = pump.mailboxes.get_mut(shard).filter(|m| m.dead)
                            else {
                                continue;
                            };
                            mailbox.epoch += 1;
                            let mine: Vec<u32> = pump
                                .owner
                                .iter()
                                .filter(|&(_, &(sh, _))| sh == shard)
                                .map(|(&id, _)| id)
                                .collect();
                            (mailbox.epoch, mine, pump.transport.egress())
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
                        let mut resumes = Vec::new();
                        let mut gone = Vec::new();
                        for id in mine {
                            let outcome = match &recording {
                                Some(rec) => recover_session(rec, id, config.params),
                                None => Recovered::Lost,
                            };
                            match outcome {
                                Recovered::Resumed(rs) => resumes.push(ShardMsg::Resume(rs)),
                                // Counted at completion; late client
                                // traffic orphans at the pass.
                                Recovered::AlreadyComplete => gone.push((id, false)),
                                Recovered::Lost => gone.push((id, true)),
                            }
                        }
                        // The next epoch's mailbox starts with the
                        // recovered sessions' `Resume`s, so each comes
                        // before every frame of its session. The frames
                        // routed to the shard while it was dead drop here.
                        {
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
                            pump.report.recovered_sessions += resumes.len() as u64;
                            pump.report.restarts += 1;
                            let mailbox = &mut pump.mailboxes[shard];
                            mailbox.msgs = resumes;
                            mailbox.frames.clear();
                            mailbox.dead = false;
                        }
                        let recorder = recorder_set.as_ref().and_then(|set| set.recorder(shard));
                        let spawned = egress.and_then(|egress| {
                            spawn_shard(scope, &shared, shard, epoch, egress, recorder)
                        });
                        match spawned {
                            Ok(handle) => handles.push((shard, handle, false)),
                            Err(e) => break 'run Err(e),
                        }
                        continue;
                    }
                    let pump = &mut **held.get_or_insert_with(|| {
                        shared.pump.lock().unwrap_or_else(PoisonError::into_inner)
                    });
                    match ev {
                        FaultEvent::Kill { shard, .. } | FaultEvent::Panic { shard, .. } => {
                            let Some(mailbox) = pump.mailboxes.get_mut(shard).filter(|m| !m.dead)
                            else {
                                continue;
                            };
                            let kill = matches!(ev, FaultEvent::Kill { .. });
                            mailbox.msgs.push(if kill {
                                ShardMsg::Crash
                            } else {
                                ShardMsg::Panic
                            });
                            mailbox.dead = true;
                            pump.report.crashes += 1;
                            // A panicked epoch stays unmarked: its end
                            // ends the run.
                            if let Some((.., killed)) =
                                handles.iter_mut().rev().find(|(i, ..)| kill && *i == shard)
                            {
                                *killed = true;
                            }
                        }
                        FaultEvent::Drain { from, to, .. } => {
                            let live =
                                |shard: usize| pump.mailboxes.get(shard).is_some_and(|m| !m.dead);
                            if live(from) && live(to) {
                                pump.mailboxes[from].msgs.push(ShardMsg::Drain { to });
                            }
                        }
                        // Out-of-range shard, kill of a dead shard, a
                        // drain from or into a dead shard, `auto`
                        // (expanded by `schedule`): no-ops.
                        _ => {}
                    }
                }
                drop(held);

                // Sleep to the next fault's tick or one grace period on,
                // whichever comes first.
                let wake = faults.get(next_fault).map_or(now + grace, |ev| {
                    clock.instant_of_tick(ev.tick()).min(now + grace)
                });
                clock.sleep_until(wake);
            }
        };

        // Shutdown: every mailbox takes the message, which its shard reads
        // at its next wake. Every way out of the scope passes here, or its
        // implicit join would wait on shards that never see one.
        for mailbox in &mut shared
            .pump
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .mailboxes
        {
            mailbox.msgs.push(ShardMsg::Shutdown);
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
        mut mailboxes,
        ..
    } = shared
        .pump
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    for mut shard in shards {
        report.orphan_frames += shard.orphan_frames;
        // Mailbox overflow is per shard index, not per epoch; book it
        // once, against the index's first-joined epoch.
        if let Some(mailbox) = mailboxes.get_mut(shard.shard) {
            shard.ingress_overflow = std::mem::take(&mut mailbox.overflow);
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
    fn a_drain_moves_each_session_with_every_frame_of_it_in_one_hold() {
        // Sessions 2 and 4 live on shard 0. Session 2 leaves for shard 1
        // holding its frame 0, while its frame 1 and a frame of session 4
        // wait in shard 0's mailbox: frame 1 follows frame 0, behind the
        // session's `Resume`, and session 4's frame stays.
        let mut hub = MemHub::new();
        let mut pump = Pump::new(&mut hub, 2, BATCH, Vec::new(), Vec::new());
        let codec = codec_for(spec(2, 4).kind).expect("codec");
        pump.owner.insert(2, (0, codec));
        pump.owner.insert(4, (0, codec));
        let frame = |id: u32, seq: u64| Frame {
            protocol: rstp_net::ProtocolId::Beta,
            k: 4,
            packet: Packet::Data(1),
            seq,
            sent_at_micros: 0,
            session: SessionId::new(id),
        };
        pump.mailboxes[0].frames = vec![frame(2, 1), frame(4, 0)];
        let leaving = || {
            let spec = spec(2, 4);
            let endpoint =
                crate::endpoint::receiver_endpoint(spec.kind, params(), spec.n).expect("endpoint");
            let session = Box::new(ResumeSession {
                spec,
                endpoint,
                seq: 0,
            });
            std::iter::once((session, VecDeque::from([frame(2, 0)])))
        };

        // A dead target, or a source epoch a restart replaced, moves
        // nothing: the source keeps its session.
        pump.mailboxes[1].dead = true;
        assert_eq!(pump.drain_into(0, 0, 1, leaving()), 0);
        pump.mailboxes[1].dead = false;
        assert_eq!(pump.drain_into(0, 1, 1, leaving()), 0);
        assert_eq!(pump.owner[&2].0, 0);
        assert!(pump.mailboxes[1].msgs.is_empty());

        assert_eq!(pump.drain_into(0, 0, 1, leaving()), 1);
        assert_eq!(pump.owner[&2].0, 1);
        assert_eq!(pump.owner[&4].0, 0);
        let target = &pump.mailboxes[1];
        assert!(matches!(
            target.msgs.as_slice(),
            [ShardMsg::Resume(rs)] if rs.spec.id.raw() == 2
        ));
        assert_eq!(target.frames, vec![frame(2, 0), frame(2, 1)]);
        assert_eq!(pump.mailboxes[0].frames, vec![frame(4, 0)]);

        // Once a restart gives shard 1's mailbox to epoch 1, epoch 0 takes
        // nothing and leaves it whole for epoch 1.
        pump.mailboxes[1].epoch = 1;
        let (mut msgs, mut frames) = (Vec::new(), Vec::new());
        assert!(!pump.take(1, 0, &mut msgs, &mut frames));
        assert!(msgs.is_empty() && frames.is_empty());
        assert_eq!(pump.mailboxes[1].msgs.len(), 1);
        assert_eq!(pump.mailboxes[1].frames.len(), 2);
        assert!(pump.take(1, 1, &mut msgs, &mut frames));
        assert_eq!((msgs.len(), frames.len()), (1, 2));
        assert!(pump.mailboxes[1].msgs.is_empty() && pump.mailboxes[1].frames.is_empty());
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
