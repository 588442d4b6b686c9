//! The shard worker: one thread, one slice of the session table, one
//! timer wheel.
//!
//! A shard owns every session hashed to it — no other thread touches
//! their automata, so the data path takes no locks. Ingress arrives on a
//! *bounded* channel, one message per pump batch (the server drops,
//! never blocks, when it is full: an admitted session may lose frames,
//! which the protocols already tolerate, but it is never stalled past its
//! `c2` window by a slow neighbour). Pacing uses the hierarchical
//! [`TimerWheel`] instead of one sleeping thread per session; the
//! miss/violation accounting, re-anchoring and grace completion are
//! `rstp_net`'s [`Pacer`], the same rules its driver loop applies, so a
//! 256-session swarm is held to the same `[c1, c2]` standard as a lone
//! endpoint.
//!
//! A session's step happens at one instant: the shard reads its
//! [`TickClock`] once per wheel pop, and the wake booking, latency
//! samples, frame stamps, recorded events and next deadline of that step
//! all derive from that reading.

use crate::endpoint::{receiver_endpoint, restore_receiver_endpoint, SnapshotEndpoint};
use crate::metrics::{SessionStats, ShardReport};
use crate::server::{EgressSink, PumpMsg, SessionSpec};
use crate::snapshot::SessionSnapshot;
use crate::wheel::TimerWheel;
use rstp_core::{SessionId, TimingParams};
use rstp_net::{
    codec_for, Cadence, Frame, FrameBuf, NetError, Pace, Pacer, StepEffect, TickClock, Wake,
    WireCodec,
};
use rstp_record::{Event, ShardRecorder};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// A recovered session the server hands a restarted shard: the spec, a
/// restored endpoint (snapshot + event replay already applied), and the
/// outgoing sequence number to continue from.
pub(crate) struct ResumeSession {
    pub(crate) spec: SessionSpec,
    pub(crate) endpoint: Box<dyn SnapshotEndpoint>,
    pub(crate) seq: u64,
}

/// What the server sends a shard over its bounded ingress queue.
pub(crate) enum ShardMsg {
    /// Take ownership of a new session.
    Admit(SessionSpec),
    /// Decoded frames for sessions this shard owns, in arrival order: this
    /// shard's share of one pump batch, or frames a peer held for a
    /// session it handed over here.
    Frames(Vec<Frame>),
    /// A message of the pair-wise handover protocol.
    Control(Handover),
    /// Injected fault: stop as if the shard's process segment died —
    /// live sessions are discarded (completed verdicts survive) and the
    /// thread returns its report with `crashed` set.
    Crash,
    /// Injected fault: panic the shard thread outright.
    Panic,
    /// Crash recovery: adopt a session re-created from the flight
    /// recording.
    Resume(Box<ResumeSession>),
    /// Finish up: account remaining sessions as unfinished and return.
    Shutdown,
}

/// The pair-wise handover conversation (DRAIN → SNAPSHOT → SNAPSHOT_ACK
/// → REDIRECT). Every message travels through the pump, so a REDIRECT
/// flips the owner table where frames are routed.
pub(crate) enum Handover {
    /// Pump → source shard: move every live session to shard `to`.
    Drain {
        /// The target shard.
        to: usize,
    },
    /// Source → target: one live session's full state, offered by shard
    /// `from`. Boxed so a queue message stays small.
    Snapshot {
        /// The source shard, where the acknowledgement goes.
        from: usize,
        /// The session's state.
        snapshot: Box<SessionSnapshot>,
    },
    /// Target → source: `session` was restored and is held
    /// provisionally.
    SnapshotAck {
        /// The session acknowledged.
        session: u32,
    },
    /// Source → pump → target: ownership of `session` moves to the
    /// target, which activates its provisional copy.
    Redirect {
        /// The session to activate.
        session: u32,
    },
}

/// First handover retry after this many step gaps without an ack.
const HANDOVER_BASE_BACKOFF_GAPS: u64 = 8;
/// Retry backoff doubles per attempt, capped at this many gaps.
const HANDOVER_MAX_BACKOFF_GAPS: u64 = 64;
/// Snapshot attempts before the source gives up and resumes locally.
const HANDOVER_MAX_ATTEMPTS: u32 = 4;
/// A provisionally adopted session is dropped if no REDIRECT activates
/// it within this many step gaps (the source has resumed locally by
/// then; keeping the copy would risk a dual-active session).
const PROVISIONAL_TTL_GAPS: u64 = 512;

/// An in-flight handover on the source side.
struct PendingHandover {
    idx: usize,
    session: u32,
    target: usize,
    attempts: u32,
    backoff_gaps: u64,
    next_retry_tick: u64,
}

/// Static configuration a shard runs under (crate-internal; the public
/// surface is [`crate::ServeConfig`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ShardParams {
    pub index: usize,
    pub params: TimingParams,
    pub tick: Duration,
    pub pace: Pace,
    pub slack: Duration,
    pub grace_ticks: u64,
    pub batch: usize,
}

/// One live session owned by a shard.
struct Live {
    spec: SessionSpec,
    endpoint: Box<dyn SnapshotEndpoint>,
    codec: WireCodec,
    seq: u64,
    /// Frames delivered but not yet applied — they become `recv` inputs
    /// at the session's next paced step, mirroring the driver's
    /// drain-before-step ordering.
    pending: VecDeque<Frame>,
    /// Mid-handover: deadlines are reported as migrated, not stepped.
    paused: bool,
    cadence: Cadence,
    steps: u64,
    recvs: u64,
    sends: u64,
    last_write_tick: Option<u64>,
    /// Injected-fault builds only: one in-flight frame held back to
    /// overlap adjacent δ2 bursts (see [`inject_defer`]).
    #[cfg(rstp_check_inject_ack_bug)]
    defer: Option<(u8, Frame)>,
}

impl Live {
    fn new(
        spec: SessionSpec,
        endpoint: Box<dyn SnapshotEndpoint>,
        seq: u64,
        paused: bool,
    ) -> Result<Live, NetError> {
        Ok(Live {
            spec,
            endpoint,
            codec: codec_for(spec.kind)?,
            seq,
            pending: VecDeque::new(),
            paused,
            cadence: Cadence::default(),
            steps: 0,
            recvs: 0,
            sends: 0,
            last_write_tick: None,
            #[cfg(rstp_check_inject_ack_bug)]
            defer: None,
        })
    }

    /// The session's full state as a handover/recovery snapshot.
    fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            session: self.spec.id.raw(),
            kind: self.spec.kind,
            n: u32::try_from(self.spec.n).unwrap_or(u32::MAX),
            seq: self.seq,
            written: self.endpoint.written().to_vec(),
            state: self.endpoint.state_bytes(),
        }
    }

    fn stats(&self, completed: bool) -> SessionStats {
        SessionStats {
            id: self.spec.id,
            protocol: self.spec.kind.name(),
            n: self.spec.n,
            written: self.endpoint.written().to_vec(),
            steps: self.steps,
            recvs: self.recvs,
            sends: self.sends,
            last_write_tick: self.last_write_tick,
            completed,
        }
    }
}

/// Runs one shard until it is told to shut down (or the server side of
/// its queue disappears). Returns the shard's full report.
pub(crate) fn run_shard(
    sp: ShardParams,
    clock: TickClock,
    rx: Receiver<ShardMsg>,
    mut egress: Box<dyn EgressSink>,
    completed_total: Arc<AtomicU64>,
    recorder: Option<ShardRecorder>,
    pump: Sender<PumpMsg>,
) -> Result<ShardReport, NetError> {
    #[cfg(rstp_check_inject_ack_bug)]
    let inject_delta2 = sp.params.delta2();
    let gap_ticks = sp.pace.gap_ticks(sp.params).max(1);
    let idle_timeout = sp.tick * u32::try_from(gap_ticks).unwrap_or(u32::MAX);
    let pacer = Pacer::new(sp.params, sp.tick, sp.pace, sp.slack, sp.grace_ticks);

    let mut report = ShardReport::new(sp.index);
    let mut wheel: TimerWheel<usize> = TimerWheel::new();
    let mut sessions: Vec<Option<Live>> = Vec::new();
    let mut by_id: HashMap<u32, usize> = HashMap::new();
    let mut due: Vec<(u64, usize)> = Vec::new();
    let mut out_buf: Vec<(u32, FrameBuf)> = Vec::new();
    // Handover bookkeeping, both directions. Source side: sessions
    // paused awaiting a SNAPSHOT_ACK. Target side: provisionally adopted
    // sessions awaiting their REDIRECT, with a drop deadline.
    let mut pending_handover: Vec<PendingHandover> = Vec::new();
    let mut provisional: Vec<(usize, u64)> = Vec::new();
    // Completed sessions, kept as ghost re-ackers: a late duplicate
    // still gets its acknowledgement (the paper's receiver never
    // terminates), so a client whose final ack was lost — or whose
    // thread the scheduler stalled past this shard's quiet grace — can
    // still finish. Ghosts hold no wheel deadlines and cost nothing
    // until a frame actually arrives for them.
    let mut retired: HashMap<u32, Live> = HashMap::new();
    // Sessions handed off to a peer. A frame for one that still reaches
    // this shard (the pump routed it before the REDIRECT flipped the
    // owner table) follows the session through the pump.
    let mut handed_off: HashSet<u32> = HashSet::new();
    // The latest clock reading: one when the loop wakes, then one per
    // wheel pop. The next sleep is sized from whichever came last.
    let mut now = clock.now();

    'run: loop {
        // Sleep until the next deadline (or new work arrives). The
        // channel doubles as the wake-up: one blocking point serves both
        // ingress and pacing.
        let timeout = match wheel.next_due() {
            Some(t) => clock.instant_of_tick(t).saturating_duration_since(now),
            None => idle_timeout,
        };
        let mut first = match rx.recv_timeout(timeout) {
            Ok(msg) => Some(msg),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break 'run,
        };
        // The iteration's own reading, for everything outside a step.
        now = clock.now();
        let now_tick = clock.tick_at(now);
        let at = clock.micros_at(now);
        while let Some(msg) = first.take() {
            match msg {
                ShardMsg::Admit(spec) => {
                    let endpoint = receiver_endpoint(spec.kind, sp.params, spec.n)?;
                    let live = Live::new(spec, endpoint, 0, false)?;
                    record_anchor(recorder.as_ref(), &live, at);
                    let idx = insert_live(&mut sessions, live);
                    by_id.insert(spec.id.raw(), idx);
                    // First step strictly in the future, like the
                    // driver's epoch anchor — an overdue first deadline
                    // would book a spurious miss at admission.
                    wheel.schedule(now_tick + 1, idx);
                    report.admitted += 1;
                }
                ShardMsg::Frames(frames) => {
                    let mut forward = Vec::new();
                    for frame in frames {
                        let Some(id) = frame.session.map(SessionId::raw) else {
                            report.orphan_frames += 1;
                            continue;
                        };
                        if let Some(live) = by_id
                            .get(&id)
                            .and_then(|&idx| sessions.get_mut(idx))
                            .and_then(Option::as_mut)
                        {
                            live.pending.push_back(frame);
                        } else if let Some(ghost) = retired.get_mut(&id) {
                            report.frames_received += 1;
                            reack(ghost, frame, at, &mut out_buf, &mut report);
                        } else if handed_off.contains(&id) {
                            forward.push(frame);
                        } else {
                            // Unknown id: trailing traffic for a session
                            // that completed on another epoch or shard.
                            // Dropped, like the driver ignoring frames
                            // after its grace period.
                            report.orphan_frames += 1;
                        }
                    }
                    if !forward.is_empty() {
                        let _ = pump.send(PumpMsg::Forward(forward));
                    }
                }
                ShardMsg::Control(msg) => {
                    handle_control(
                        msg,
                        &sp,
                        at,
                        &pump,
                        &recorder,
                        &mut report,
                        &mut sessions,
                        &mut by_id,
                        &mut handed_off,
                        &mut wheel,
                        &mut pending_handover,
                        &mut provisional,
                        now_tick,
                        gap_ticks,
                    );
                }
                ShardMsg::Resume(resume) => {
                    let rs = *resume;
                    let live = Live::new(rs.spec, rs.endpoint, rs.seq, false)?;
                    // A fresh anchor, so a *second* crash can recover
                    // without replaying the first life.
                    record_anchor(recorder.as_ref(), &live, at);
                    let idx = insert_live(&mut sessions, live);
                    by_id.insert(rs.spec.id.raw(), idx);
                    wheel.schedule(now_tick + 1, idx);
                    report.adopted += 1;
                }
                ShardMsg::Crash => {
                    // The scripted crash: drop live sessions without
                    // verdicts, keep everything already completed, and
                    // return. Recovery is the server's job.
                    report.crashed = true;
                    sessions.clear();
                    by_id.clear();
                    retired.clear();
                    break 'run;
                }
                ShardMsg::Panic => {
                    panic!("rstp-serve shard {}: injected panic fault", sp.index);
                }
                ShardMsg::Shutdown => break 'run,
            }
            first = rx.try_recv().ok();
        }

        // Handover housekeeping: resend unacked snapshots (capped
        // exponential backoff, then local resume) and drop provisional
        // adoptions whose REDIRECT never came.
        sweep_handover(
            &sp,
            &pump,
            &mut report,
            &mut sessions,
            &mut by_id,
            &mut wheel,
            &mut pending_handover,
            &mut provisional,
            now_tick,
            gap_ticks,
        );

        // Fire every deadline up to now.
        wheel.advance(now_tick, &mut due);
        for (due_tick, idx) in due.drain(..) {
            let Some(live) = sessions.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };

            // A deadline for a mid-handover session is *migrated*: the
            // target re-anchors its own schedule on activation, so the
            // deadline is accounted for, never silently dropped — and
            // never stepped here, which would fork the automaton.
            if live.paused {
                report.deadlines_migrated += 1;
                continue;
            }

            // The step's one clock reading: everything it books, stamps
            // and records happens at this instant.
            now = clock.now();
            let at = clock.micros_at(now);
            let due = clock.instant_of_tick(due_tick);
            let booked = pacer.wake(&mut live.cadence, due, now);
            match booked {
                Wake::Late => report.deadline_misses += 1,
                Wake::Violation => report.timing_violations += 1,
                Wake::Punctual => {}
            }
            let late = booked == Wake::Late;
            if let Some(r) = &recorder {
                r.record(Event::WheelPop {
                    at_micros: at,
                    session: live.spec.id.raw(),
                    due_tick,
                    late,
                });
                if late {
                    r.record(Event::DeadlineMiss {
                        at_micros: at,
                        session: live.spec.id.raw(),
                        due_tick,
                    });
                }
            }

            #[cfg(rstp_check_inject_ack_bug)]
            inject_defer(live, inject_delta2);

            // Drain delivered frames as recv inputs before the local
            // step (inputs are channel outputs, not clocked).
            let received_any = !live.pending.is_empty();
            while let Some(frame) = live.pending.pop_front() {
                if let Some(r) = &recorder {
                    // Re-encode canonically: byte-identical to the wire,
                    // so the recording carries full frames, not summaries.
                    let wire = live.codec.encode_with_session(
                        frame.packet,
                        frame.seq,
                        frame.sent_at_micros,
                        live.spec.id,
                    );
                    r.record(Event::Rx {
                        at_micros: at,
                        session: live.spec.id.raw(),
                        wire: wire.to_vec(),
                    });
                }
                live.endpoint.apply_recv(frame.packet)?;
                report
                    .latency
                    .record(at.saturating_sub(frame.sent_at_micros));
                live.recvs += 1;
                report.frames_received += 1;
            }

            // The unique enabled local action.
            let effect = live.endpoint.step()?;
            if effect != StepEffect::Quiescent {
                live.steps += 1;
                report.steps += 1;
            }
            let mut productive = received_any;
            match effect {
                StepEffect::Sent(p) => {
                    let bytes = live
                        .codec
                        .encode_with_session(p, live.seq, at, live.spec.id);
                    if let Some(r) = &recorder {
                        r.record(Event::Tx {
                            at_micros: at,
                            session: live.spec.id.raw(),
                            wire: bytes.to_vec(),
                        });
                    }
                    live.seq += 1;
                    out_buf.push((live.spec.id.raw(), bytes.into()));
                    live.sends += 1;
                    productive = true;
                }
                StepEffect::Wrote(m) => {
                    live.last_write_tick = Some(due_tick);
                    if let Some(r) = &recorder {
                        // The acknowledged-output ledger: cumulative
                        // count plus the bit, so the no-acknowledged-
                        // loss oracle can check Y's *content* prefix
                        // across a crash, not just its length.
                        r.record(Event::Write {
                            at_micros: at,
                            session: live.spec.id.raw(),
                            written: live.endpoint.written().len() as u64,
                            bit: m,
                        });
                    }
                    productive = true;
                }
                StepEffect::Waited => productive = true,
                StepEffect::Idled | StepEffect::Quiescent => {}
            }

            // Completion: all writes in and a full grace period of quiet.
            let writes_done = live.endpoint.written().len() >= live.spec.n;
            if pacer.settle(&mut live.cadence, productive, writes_done) {
                // `live` borrows this same slot, so it is occupied; a
                // vacant slot just means nothing to retire.
                let Some(done) = sessions.get_mut(idx).and_then(Option::take) else {
                    continue;
                };
                by_id.remove(&done.spec.id.raw());
                report.completed += 1;
                let stats = done.stats(true);
                if let Some(r) = &recorder {
                    r.record_durable(Event::Verdict {
                        at_micros: at,
                        session: stats.id.raw(),
                        completed: true,
                        written: stats.written.clone(),
                    });
                }
                report.sessions.push(stats);
                completed_total.fetch_add(1, Ordering::Relaxed);
                // Retire, don't discard: the paper's receiver never stops
                // acknowledging, and the final ack can be lost or its
                // client stalled past our grace by the scheduler. Late
                // duplicates find the ghost below.
                retired.insert(done.spec.id.raw(), done);
                continue;
            }

            // Reschedule one gap on, or re-anchored on the wake after a
            // stall.
            let next = pacer.next_due(&mut live.cadence, due, now);
            wheel.schedule(clock.tick_at(next), idx);
        }

        // Flush egress in batches of B frames per call.
        for chunk in out_buf.chunks(sp.batch.max(1)) {
            report.frames_sent += egress.send_batch(chunk)? as u64;
        }
        out_buf.clear();
    }

    // Account whatever is still open.
    let at = clock.now_micros();
    for slot in sessions.into_iter().flatten() {
        report.unfinished += 1;
        let stats = slot.stats(false);
        if let Some(r) = &recorder {
            r.record_durable(Event::Verdict {
                at_micros: at,
                session: stats.id.raw(),
                completed: false,
                written: stats.written.clone(),
            });
        }
        report.sessions.push(stats);
    }
    if let Some(r) = &recorder {
        report.events_recorded = r.recorded();
        report.events_dropped = r.dropped();
    }
    Ok(report)
}

/// A duplicate for a completed session, answered at `at`: re-ack
/// event-driven. The session has no deadlines left, and answering a
/// retransmission is the channel's business, not the [c1, c2] step
/// schedule's. A ghost must never take down the shard, so automaton
/// errors end the exchange instead of propagating.
fn reack(
    ghost: &mut Live,
    frame: Frame,
    at: u64,
    out_buf: &mut Vec<(u32, FrameBuf)>,
    report: &mut ShardReport,
) {
    if ghost.endpoint.apply_recv(frame.packet).is_err() {
        return;
    }
    for _ in 0..4 {
        match ghost.endpoint.step() {
            Ok(StepEffect::Sent(p)) => {
                let bytes = ghost
                    .codec
                    .encode_with_session(p, ghost.seq, at, ghost.spec.id);
                ghost.seq += 1;
                out_buf.push((ghost.spec.id.raw(), bytes.into()));
                report.reacked += 1;
            }
            Ok(StepEffect::Waited) => {}
            Ok(_) | Err(_) => break,
        }
    }
}

/// Places `live` in the first free slot (or a new one) and returns its
/// index.
fn insert_live(sessions: &mut Vec<Option<Live>>, live: Live) -> usize {
    let idx = match sessions.iter().position(Option::is_none) {
        Some(free) => free,
        None => {
            sessions.push(None);
            sessions.len() - 1
        }
    };
    if let Some(slot) = sessions.get_mut(idx) {
        *slot = Some(live);
    }
    idx
}

/// Writes `live`'s durable recovery anchor, stamped `at`: an `Admit`,
/// then the `Snapshot` a restarted shard replays forward from.
fn record_anchor(recorder: Option<&ShardRecorder>, live: &Live, at: u64) {
    let Some(r) = recorder else { return };
    let snap = live.snapshot();
    r.record_durable(Event::Admit {
        at_micros: at,
        session: snap.session,
        kind: snap.kind,
        n: snap.n,
    });
    r.record_durable(Event::Snapshot {
        at_micros: at,
        session: snap.session,
        state: snap.encode(),
    });
}

/// Offers `live` to shard `target` through the pump.
fn send_snapshot(pump: &Sender<PumpMsg>, src: usize, target: usize, live: &Live) {
    let msg = Handover::Snapshot {
        from: src,
        snapshot: Box::new(live.snapshot()),
    };
    let _ = pump.send(PumpMsg::ToShard { shard: target, msg });
}

fn send_ack(pump: &Sender<PumpMsg>, src: usize, session: u32) {
    let msg = Handover::SnapshotAck { session };
    let _ = pump.send(PumpMsg::ToShard { shard: src, msg });
}

/// One incoming handover message, handled at `at` µs (tick `now`): the
/// four corners of the protocol. Stale messages are ignored — the
/// retry/TTL machinery recovers, and a shard must never die on peer
/// input.
#[allow(clippy::too_many_arguments)]
fn handle_control(
    msg: Handover,
    sp: &ShardParams,
    at: u64,
    pump: &Sender<PumpMsg>,
    recorder: &Option<ShardRecorder>,
    report: &mut ShardReport,
    sessions: &mut Vec<Option<Live>>,
    by_id: &mut HashMap<u32, usize>,
    handed_off: &mut HashSet<u32>,
    wheel: &mut TimerWheel<usize>,
    pending_handover: &mut Vec<PendingHandover>,
    provisional: &mut Vec<(usize, u64)>,
    now: u64,
    gap_ticks: u64,
) {
    match msg {
        Handover::Drain { to: target } => {
            // Source side: pause every live session and offer each to
            // the target. Paused sessions stop stepping immediately;
            // their deadlines are reported as migrated.
            if target == sp.index {
                return;
            }
            for (idx, slot) in sessions.iter_mut().enumerate() {
                let Some(live) = slot.as_mut() else { continue };
                if live.paused {
                    continue;
                }
                live.paused = true;
                send_snapshot(pump, sp.index, target, live);
                pending_handover.push(PendingHandover {
                    idx,
                    session: live.spec.id.raw(),
                    target,
                    attempts: 1,
                    backoff_gaps: HANDOVER_BASE_BACKOFF_GAPS,
                    next_retry_tick: now + HANDOVER_BASE_BACKOFF_GAPS * gap_ticks,
                });
            }
        }
        Handover::Snapshot { from, snapshot } => {
            // Target side: restore a provisional copy and acknowledge.
            // It stays paused (frames queue, deadlines don't fire) until
            // the REDIRECT confirms the source has retired its copy.
            let snap = *snapshot;
            if by_id.contains_key(&snap.session) {
                // A retry of a snapshot we already hold: re-ack.
                send_ack(pump, from, snap.session);
                return;
            }
            let spec = SessionSpec {
                id: SessionId::new(snap.session),
                kind: snap.kind,
                n: snap.n as usize,
            };
            let Ok(endpoint) =
                restore_receiver_endpoint(snap.kind, sp.params, spec.n, &snap.state, snap.written)
            else {
                return;
            };
            let Ok(live) = Live::new(spec, endpoint, snap.seq, true) else {
                return;
            };
            // Anchor the adopted session in *this* shard's recording, so
            // a later crash here recovers it.
            record_anchor(recorder.as_ref(), &live, at);
            let idx = insert_live(sessions, live);
            by_id.insert(snap.session, idx);
            handed_off.remove(&snap.session);
            provisional.push((idx, now + PROVISIONAL_TTL_GAPS * gap_ticks));
            send_ack(pump, from, snap.session);
        }
        Handover::SnapshotAck { session } => {
            // Source side: the target holds the session. Retire our
            // copy silently (its Y continues over there — no verdict,
            // no stats) and publish the REDIRECT through the pump so
            // routing flips atomically with the activation. The frames
            // the paused copy still holds travel with the REDIRECT, and
            // any that reach us later are forwarded: they follow the
            // session, in arrival order.
            let Some(pos) = pending_handover.iter().position(|p| p.session == session) else {
                return; // stale ack (already resumed locally)
            };
            let p = pending_handover.swap_remove(pos);
            let retire = sessions
                .get(p.idx)
                .and_then(Option::as_ref)
                .is_some_and(|l| l.paused && l.spec.id.raw() == p.session);
            let mut held = Vec::new();
            if retire {
                if let Some(live) = sessions.get_mut(p.idx).and_then(Option::take) {
                    held = live.pending.into();
                }
                by_id.remove(&p.session);
                handed_off.insert(p.session);
                report.handed_off += 1;
            }
            let _ = pump.send(PumpMsg::Redirect {
                session: p.session,
                target: p.target,
                held,
            });
        }
        Handover::Redirect { session } => {
            // Target side: activation. Re-anchor pacing from now — the
            // deadlines the source reported as migrated resume here.
            let Some(&idx) = by_id.get(&session) else {
                return;
            };
            if let Some(live) = sessions.get_mut(idx).and_then(Option::as_mut) {
                if live.paused {
                    live.paused = false;
                    live.cadence.rebase();
                    wheel.schedule(now + 1, idx);
                    report.adopted += 1;
                }
            }
            provisional.retain(|&(i, _)| i != idx);
        }
    }
}

/// Per-iteration handover housekeeping: source-side retries with capped
/// exponential backoff falling back to local resume, and target-side
/// TTL expiry of provisional adoptions.
#[allow(clippy::too_many_arguments)]
fn sweep_handover(
    sp: &ShardParams,
    pump: &Sender<PumpMsg>,
    report: &mut ShardReport,
    sessions: &mut [Option<Live>],
    by_id: &mut HashMap<u32, usize>,
    wheel: &mut TimerWheel<usize>,
    pending_handover: &mut Vec<PendingHandover>,
    provisional: &mut Vec<(usize, u64)>,
    now: u64,
    gap_ticks: u64,
) {
    pending_handover.retain_mut(|p| {
        if now < p.next_retry_tick {
            return true;
        }
        if p.attempts >= HANDOVER_MAX_ATTEMPTS {
            // Out of retries: the session keeps running here.
            if let Some(live) = sessions.get_mut(p.idx).and_then(Option::as_mut) {
                if live.paused && live.spec.id.raw() == p.session {
                    live.paused = false;
                    live.cadence.rebase();
                    wheel.schedule(now + 1, p.idx);
                }
            }
            report.handover_failed += 1;
            return false;
        }
        p.attempts += 1;
        p.backoff_gaps = (p.backoff_gaps * 2).min(HANDOVER_MAX_BACKOFF_GAPS);
        p.next_retry_tick = now + p.backoff_gaps * gap_ticks;
        if let Some(live) = sessions.get(p.idx).and_then(Option::as_ref) {
            send_snapshot(pump, sp.index, p.target, live);
        }
        true
    });

    provisional.retain(|&(idx, deadline)| {
        if now < deadline {
            return true;
        }
        // No REDIRECT before the TTL: the source has resumed locally by
        // now. Drop the copy — a dual-active session would fork Y.
        if let Some(slot) = sessions.get_mut(idx) {
            if slot.as_ref().is_some_and(|l| l.paused) {
                if let Some(live) = slot.take() {
                    by_id.remove(&live.spec.id.raw());
                    report.handover_aborted += 1;
                }
            }
        }
        false
    });
}

/// Injected-fault builds only: a channel adversary living in the shard.
///
/// Holds back the *last* data frame of a δ2 burst for up to two pops or
/// until newer traffic arrives, then re-queues it *behind* that traffic.
/// The detour stays within one `[0, d]` delivery window (≤ 2·c2 ticks),
/// so it is a legal reordering of the bounded-delay channel: a correct
/// `A^γ` transmitter waits for all δ2 acks before opening the next
/// burst, and the receiver's multiset decoding is order-insensitive
/// within a burst, so correct builds are unaffected. The seeded
/// early-ack transmitter bug advances one ack short, letting the next
/// burst's frames overtake the held one — a cross-burst misgrouping the
/// count-based receiver decodes into the wrong symbols.
#[cfg(rstp_check_inject_ack_bug)]
fn inject_defer(live: &mut Live, delta2: u64) {
    if let Some((pops, frame)) = live.defer.take() {
        if !live.pending.is_empty() || pops >= 1 {
            live.pending.push_back(frame);
            // Released this pop: no fresh capture until the next one,
            // or the frame just re-queued would be captured again.
            return;
        }
        live.defer = Some((pops + 1, frame));
        return;
    }
    if delta2 <= 1 {
        return;
    }
    if let Some(pos) = live.pending.iter().position(|f| {
        matches!(f.packet, rstp_core::Packet::Data(_)) && f.seq % delta2 == delta2 - 1
    }) {
        if let Some(frame) = live.pending.remove(pos) {
            live.defer = Some((0, frame));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_handover_message_costs_a_queue_slot_no_more_than_an_admission() {
        // The snapshot travels boxed, so a handover message is no larger
        // than an admission and a queue slot stays 40 bytes on x86-64.
        assert!(std::mem::size_of::<Handover>() <= std::mem::size_of::<SessionSpec>());
        assert!(std::mem::size_of::<ShardMsg>() <= 40);
    }
}
