//! The shard worker: one thread, one slice of the session table, one
//! timer wheel.
//!
//! A shard owns every session hashed to it — no other thread touches
//! their automata. Right after each wake it reads ingress for every
//! shard, in one `Pump::pass` under the lock all shards share, and in
//! the same hold takes its own mailbox: the control messages and the
//! frames routed to it since its last wake. A mailbox holds a bounded
//! number of frames (a pass drops, never blocks, past the bound: an
//! admitted session may lose frames, which the protocols already
//! tolerate, but it is never stalled past its `c2` window by a slow
//! neighbour). Pacing uses the [`TimerWheel`] instead of one sleeping
//! thread per session; the miss/violation accounting, re-anchoring and
//! grace completion are `rstp_net`'s [`Pacer`], the same rules its driver
//! loop applies, so a 256-session swarm is held to the same `[c1, c2]`
//! standard as a lone endpoint.
//!
//! A session's step happens at one instant: the shard reads its
//! [`TickClock`](rstp_net::TickClock) once per wheel pop and converts the
//! reading once to nanoseconds since the clock's epoch, one `Instant`
//! subtraction. The wake booking, latency samples, frame stamps, recorded
//! events and next deadline of that step all derive from that integer,
//! so everything a pop books and schedules after the conversion is
//! integer arithmetic.

use crate::endpoint::{receiver_endpoint, SnapshotEndpoint};
use crate::hub::lock_without_parking;
use crate::idmap::IdMap;
use crate::metrics::{SessionStats, ShardReport};
use crate::server::{EgressSink, ServeTransport, SessionSpec, Shared, BATCH};
use crate::snapshot::SessionSnapshot;
use crate::wheel::TimerWheel;
use rstp_net::{codec_for, Cadence, Frame, FrameBuf, NetError, Pacer, StepEffect, Wake, WireCodec};
use rstp_record::{Event, FrameDir, ShardRecorder};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::PoisonError;

/// A live session on its way into a shard: the spec, a live endpoint,
/// and the outgoing sequence number to continue from. Crash recovery
/// builds one from the flight recording; a drain takes one out of the
/// source shard's table whole.
pub(crate) struct ResumeSession {
    pub(crate) spec: SessionSpec,
    pub(crate) endpoint: Box<dyn SnapshotEndpoint>,
    pub(crate) seq: u64,
}

/// A control message in a shard's mailbox; the shard reads them before
/// the mailbox's frames.
pub(crate) enum ShardMsg {
    /// Take ownership of a new session.
    Admit(SessionSpec),
    /// Move every live session, whole, to shard `to`, under the pump's
    /// lock (`Pump::drain_into`).
    Drain {
        /// The target shard.
        to: usize,
    },
    /// Injected fault: stop as if the shard's process segment died —
    /// live sessions are discarded (completed verdicts survive) and the
    /// thread returns its report with `crashed` set.
    Crash,
    /// Injected fault: panic the shard thread outright.
    Panic,
    /// Adopt a live session: one re-created from the flight recording
    /// after a crash, or one a drain moved here.
    Resume(Box<ResumeSession>),
    /// Finish up: account remaining sessions as unfinished and return.
    Shutdown,
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
    ) -> Result<Live, NetError> {
        Ok(Live {
            spec,
            endpoint,
            codec: codec_for(spec.kind)?,
            seq,
            pending: VecDeque::new(),
            cadence: Cadence::default(),
            steps: 0,
            recvs: 0,
            sends: 0,
            last_write_tick: None,
            #[cfg(rstp_check_inject_ack_bug)]
            defer: None,
        })
    }

    /// The session's full state as a recovery snapshot.
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

/// Runs `epoch` of shard `index` until it is told to shut down or to
/// crash, or a restart has given its mailbox to a newer epoch. Returns
/// the shard's full report.
pub(crate) fn run_shard<T: ServeTransport>(
    index: usize,
    epoch: u32,
    shared: &Shared<'_, T>,
    mut egress: Box<dyn EgressSink>,
    mut recorder: Option<ShardRecorder>,
) -> Result<ShardReport, NetError> {
    let (config, clock) = (shared.config, shared.clock);
    #[cfg(rstp_check_inject_ack_bug)]
    let inject_delta2 = config.params.delta2();
    let gap_ticks = config.pace.gap_ticks(config.params).max(1);
    let idle_timeout = config.tick * u32::try_from(gap_ticks).unwrap_or(u32::MAX);
    let pacer = Pacer::new(config.params, config.tick, config.pace);

    let mut report = ShardReport::new(index);
    let mut wheel: TimerWheel<usize> = TimerWheel::new();
    let mut sessions: Vec<Option<Live>> = Vec::new();
    let mut by_id: IdMap<usize> = IdMap::default();
    let mut due: Vec<(u64, usize)> = Vec::new();
    let mut out_buf: Vec<(u32, FrameBuf)> = Vec::new();
    // Completed sessions, kept as ghost re-ackers: a late duplicate
    // still gets its acknowledgement (the paper's receiver never
    // terminates), so a client whose final ack was lost — or whose
    // thread the scheduler stalled past this shard's quiet grace — can
    // still finish. Ghosts hold no wheel deadlines and cost nothing
    // until a frame actually arrives for them.
    let mut retired: IdMap<Live> = IdMap::default();
    // The mailbox's contents, swapped out at each wake.
    let mut msgs: Vec<ShardMsg> = Vec::new();
    let mut frames: Vec<Frame> = Vec::new();
    // The latest clock reading: one when the loop wakes, then one per
    // wheel pop. An idle sleep is sized from whichever came last.
    let mut now = clock.now();

    'run: loop {
        // Sleep until the next deadline, or one gap while the wheel is
        // empty. The wheel is the only wake-up: a datagram or a mailbox
        // message waits for the next wake (at most one gap), since a
        // frame only takes effect at its session's next step anyway. The
        // instant the sleep woke is the iteration's reading, for
        // everything outside a step.
        let wake = match wheel.next_due() {
            Some(t) => clock.instant_of_tick(t),
            None => now + idle_timeout,
        };
        now = clock.sleep_until(wake);
        let woke = clock.nanos_at(now);
        let now_tick = clock.tick_of_nanos(woke);
        let at = woke / 1_000;
        // Read ingress for every shard, then take this shard's mailbox,
        // in one hold. Shards wake on the same tick boundaries, so a shard
        // waits its turn at the lock rather than skip: a skipping shard
        // would leave its mailbox, and whatever the passing one routed to
        // it, for a whole gap.
        if let Some(mut pump) = lock_without_parking(&shared.pump) {
            pump.pass(now_tick);
            if !pump.take(index, epoch, &mut msgs, &mut frames) {
                // A restart gave the mailbox to a newer epoch: this one
                // was killed and never read its `Crash`.
                msgs.push(ShardMsg::Crash);
            }
        }
        // Messages before frames: a moved or recovered session's `Resume`
        // entered the mailbox in the same hold that made this shard its
        // owner, so it comes before every frame of that session.
        for msg in msgs.drain(..) {
            match msg {
                ShardMsg::Admit(spec) => {
                    let endpoint = receiver_endpoint(spec.kind, config.params, spec.n)?;
                    let live = Live::new(spec, endpoint, 0)?;
                    record_anchor(recorder.as_mut(), &live, at);
                    let idx = insert_live(&mut sessions, live);
                    by_id.insert(spec.id.raw(), idx);
                    // First step strictly in the future, like the
                    // driver's epoch anchor — an overdue first deadline
                    // would book a spurious miss at admission.
                    wheel.schedule(now_tick + 1, idx);
                    report.admitted += 1;
                }
                ShardMsg::Drain { to } => {
                    // Each live session leaves whole, still live, with
                    // every frame it holds, this wake's among them; its
                    // wheel entry stays behind and finds an empty slot,
                    // since slots are never reused. A frame for a session
                    // not live here waits for the loop below: a later
                    // `Resume` of this wake may be its session's.
                    frames.retain(|frame| {
                        let Some(live) = live_mut(&mut sessions, &by_id, frame.session.raw())
                        else {
                            return true;
                        };
                        live.pending.push_back(*frame);
                        false
                    });
                    let leaving = sessions.iter_mut().filter_map(Option::take).map(|live| {
                        by_id.remove(&live.spec.id.raw());
                        let session = ResumeSession {
                            spec: live.spec,
                            endpoint: live.endpoint,
                            seq: live.seq,
                        };
                        (Box::new(session), live.pending)
                    });
                    let mut pump = shared.pump.lock().unwrap_or_else(PoisonError::into_inner);
                    report.handed_off += pump.drain_into(index, epoch, to, leaving);
                }
                ShardMsg::Resume(resume) => {
                    let rs = *resume;
                    let id = rs.spec.id.raw();
                    let live = Live::new(rs.spec, rs.endpoint, rs.seq)?;
                    // A fresh anchor in this shard's own file, so a
                    // crash here recovers the session without replaying
                    // its life before the resume.
                    record_anchor(recorder.as_mut(), &live, at);
                    let idx = insert_live(&mut sessions, live);
                    by_id.insert(id, idx);
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
                    panic!("rstp-serve shard {index}: injected panic fault");
                }
                ShardMsg::Shutdown => break 'run,
            }
        }
        for frame in frames.drain(..) {
            let id = frame.session.raw();
            if let Some(live) = live_mut(&mut sessions, &by_id, id) {
                live.pending.push_back(frame);
            } else if let Some(ghost) = retired.get_mut(&id) {
                report.frames_received += 1;
                reack(ghost, frame, at, &mut out_buf, &mut report);
            } else {
                // Unknown id: trailing traffic for a session that
                // completed on another epoch or shard. Dropped, like the
                // driver ignoring frames after its grace period.
                report.orphan_frames += 1;
            }
        }

        // Fire every deadline up to now.
        wheel.advance(now_tick, &mut due);
        for (due_tick, idx) in due.drain(..) {
            // An empty slot: the session completed, or a drain moved it.
            let Some(live) = sessions.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };

            // The step's one clock reading, converted once to ns since the
            // epoch: everything it books, stamps and records happens at
            // this instant.
            now = clock.now();
            let now_ns = clock.nanos_at(now);
            let at = now_ns / 1_000;
            let due = clock.nanos_of_tick(due_tick);
            let booked = pacer.wake(&mut live.cadence, due, now_ns);
            match booked {
                Wake::Late => report.deadline_misses += 1,
                Wake::Violation => report.timing_violations += 1,
                Wake::Punctual => {}
            }
            let late = booked == Wake::Late;
            if let Some(r) = recorder.as_mut() {
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
                if let Some(r) = recorder.as_mut() {
                    // Re-encode canonically: byte-identical to the wire,
                    // so the recording carries full frames, not summaries.
                    let wire = live.codec.encode_with_session(
                        frame.packet,
                        frame.seq,
                        frame.sent_at_micros,
                        live.spec.id,
                    );
                    r.record_frame(FrameDir::Rx, at, live.spec.id.raw(), &wire);
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
                    if let Some(r) = recorder.as_mut() {
                        r.record_frame(FrameDir::Tx, at, live.spec.id.raw(), &bytes);
                    }
                    live.seq += 1;
                    out_buf.push((live.spec.id.raw(), bytes.into()));
                    live.sends += 1;
                    productive = true;
                }
                StepEffect::Wrote(m) => {
                    live.last_write_tick = Some(due_tick);
                    if let Some(r) = recorder.as_mut() {
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
                if let Some(r) = recorder.as_mut() {
                    r.record(Event::Verdict {
                        at_micros: at,
                        session: stats.id.raw(),
                        completed: true,
                        written: stats.written.clone(),
                    });
                }
                report.sessions.push(stats);
                shared.completed.fetch_add(1, Ordering::Relaxed);
                // Retire, don't discard: the paper's receiver never stops
                // acknowledging, and the final ack can be lost or its
                // client stalled past our grace by the scheduler. Late
                // duplicates find the ghost below.
                retired.insert(done.spec.id.raw(), done);
                continue;
            }

            // Reschedule one gap on, or re-anchored on the wake's tick
            // after a stall.
            let next = pacer.next_due(&mut live.cadence, due, now_ns);
            wheel.schedule(clock.tick_of_nanos(next), idx);
        }

        // Flush egress in batches of B frames per call.
        for chunk in out_buf.chunks(BATCH) {
            report.frames_sent += egress.send_batch(chunk)? as u64;
        }
        out_buf.clear();

        // The iteration's one recorder hand-off. A busy ring keeps the
        // batch for the next iteration; the shard never waits on it.
        if let Some(r) = recorder.as_mut() {
            r.hand_off();
        }
    }

    // Account whatever is still open.
    let at = clock.now_micros();
    for slot in sessions.into_iter().flatten() {
        report.unfinished += 1;
        let stats = slot.stats(false);
        if let Some(r) = recorder.as_mut() {
            r.record(Event::Verdict {
                at_micros: at,
                session: stats.id.raw(),
                completed: false,
                written: stats.written.clone(),
            });
        }
        report.sessions.push(stats);
    }
    if let Some(r) = recorder.as_mut() {
        // The shard is exiting: waiting out the writer's swap costs no
        // session a deadline.
        r.hand_off_blocking();
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

/// The live session `id`, if this shard holds it.
fn live_mut<'a>(
    sessions: &'a mut [Option<Live>],
    by_id: &IdMap<usize>,
    id: u32,
) -> Option<&'a mut Live> {
    by_id
        .get(&id)
        .and_then(|&idx| sessions.get_mut(idx))
        .and_then(Option::as_mut)
}

/// Places `live` in a new slot and returns its index. Slots are never
/// reused: a session that left keeps one wheel entry here, and that entry
/// must find its slot empty, not a newcomer.
fn insert_live(sessions: &mut Vec<Option<Live>>, live: Live) -> usize {
    sessions.push(Some(live));
    sessions.len() - 1
}

/// Writes `live`'s durable recovery anchor, stamped `at`: an `Admit`,
/// then the `Snapshot` a restarted shard replays forward from.
fn record_anchor(recorder: Option<&mut ShardRecorder>, live: &Live, at: u64) {
    let Some(r) = recorder else { return };
    let snap = live.snapshot();
    r.record(Event::Admit {
        at_micros: at,
        session: snap.session,
        kind: snap.kind,
        n: snap.n,
    });
    r.record(Event::Snapshot {
        at_micros: at,
        session: snap.session,
        state: snap.encode(),
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
    fn a_handover_message_costs_a_mailbox_slot_no_more_than_an_admission() {
        // A drain names only its target and a moved session travels
        // boxed, so neither is larger than an admission and a mailbox
        // slot stays 40 bytes on x86-64.
        assert!(std::mem::size_of::<ShardMsg>() <= 40);
    }
}
