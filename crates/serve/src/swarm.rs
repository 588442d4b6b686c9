//! The M-client loopback load harness behind `rstp swarm`.
//!
//! One server process (sharded, timer-wheel paced) runs the receiver of
//! every session. The clients are transmitter sessions of `rstp-net`'s
//! driver loop, each over its own [`Transport`] endpoint, spread over as
//! many client threads as the server has shards. Everything shares the
//! server's clock epoch, so latency stamps measure delivery. After the
//! run the harness verifies the paper's correctness obligation end to
//! end — every receiver output `Y` must equal its session's input `X` —
//! and cross-checks a sample of sessions against the simulator oracle
//! (`rstp_sim::harness::expected_output`), so the wall-clock stack is
//! held to the same answer as the discrete-time model.

use crate::hub::MemHub;
use crate::metrics::ServeReport;
use crate::server::{run_server, ServeConfig, SessionSpec};
use crate::udp::UdpServerTransport;
use rstp_core::{Message, SessionId, TimingParams};
use rstp_net::{
    codec_for, run_sessions_until, transmitter_endpoint, DriverConfig, DriverOutcome, DriverReport,
    NetError, Session, TickClock, Transport, UdpTransport,
};
use rstp_sim::harness::{expected_output, random_input};
use rstp_sim::ProtocolKind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

/// Which fabric carries the swarm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwarmTransport {
    /// In-process loopback ([`MemHub`]): lossless, no syscalls.
    Mem,
    /// One shared UDP socket on 127.0.0.1: real datagrams, real drops.
    Udp,
}

/// Configuration of a uniform swarm (same protocol and `n` everywhere;
/// [`run_swarm_sessions`] takes an explicit mixed plan instead).
#[derive(Clone, Debug)]
pub struct SwarmConfig {
    /// Server-side configuration (shards, pacing, faults, caps).
    pub serve: ServeConfig,
    /// Concurrent sessions `M`.
    pub sessions: usize,
    /// Protocol every session speaks.
    pub kind: ProtocolKind,
    /// Messages per session.
    pub n: usize,
    /// Seed for the per-session pseudorandom inputs.
    pub seed: u64,
    /// Fabric to run over.
    pub transport: SwarmTransport,
    /// How many sessions to cross-check against the simulator oracle.
    pub oracle_sample: usize,
}

impl SwarmConfig {
    /// A swarm of `sessions` × `kind` transfers of `n` messages each,
    /// over the loopback hub, with server defaults sized to admit them
    /// all.
    #[must_use]
    pub fn new(
        kind: ProtocolKind,
        n: usize,
        sessions: usize,
        params: TimingParams,
        tick: Duration,
    ) -> Self {
        // Mailbox bound sized to the offered load: on an oversubscribed
        // box the shards can lag the clients by entire bursts, and a
        // drop kills an open-loop session (β sends each symbol exactly
        // k times — lose all k and the receiver stalls forever). The
        // bound counts batches of `BATCH` = 32 frames, so this is
        // `sessions × 1024` frames. The bound still exists; the load
        // harness just provisions it, as a deployment would. No test
        // shrinks it: the backpressure test
        // (`backpressure_rejects_rather_than_stalls`) shrinks
        // `max_sessions` to watch admission reject the surplus.
        let queue_cap = (sessions.saturating_mul(32)).max(256);
        SwarmConfig {
            serve: ServeConfig::new(params, tick)
                .with_max_sessions(sessions.max(1))
                .with_queue_cap(queue_cap),
            sessions,
            kind,
            n,
            seed: 1,
            transport: SwarmTransport::Mem,
            oracle_sample: 2,
        }
    }
}

/// Everything a swarm run observed, server and client side.
#[derive(Clone, Debug)]
pub struct SwarmReport {
    /// The server's aggregate report.
    pub serve: ServeReport,
    /// Sessions the plan asked for.
    pub planned: usize,
    /// Deadline misses across all client sessions.
    pub client_deadline_misses: u64,
    /// Timing violations across all client sessions.
    pub client_timing_violations: u64,
    /// Frames the client sessions handed to their transports, in total.
    pub client_frames_sent: u64,
    /// Ids of clients whose session hit the wall-clock cap.
    pub clients_timed_out: Vec<u32>,
    /// One diagnostic line per timed-out client — what its session did
    /// before giving up, so an ack-loss race leaves a postmortem trail
    /// in the summary instead of a bare id.
    pub clients_timed_out_detail: Vec<String>,
    /// Ids whose receiver output `Y` differs from the input `X` — any
    /// entry here is a safety violation.
    pub mismatched: Vec<u32>,
    /// Ids admitted but not completed when the server stopped.
    pub incomplete: Vec<u32>,
    /// Sessions cross-checked against the simulator oracle.
    pub oracle_checked: usize,
    /// Ids where the wall-clock output diverged from the oracle's.
    pub oracle_mismatched: Vec<u32>,
}

impl SwarmReport {
    /// `true` iff every planned session was admitted, completed, matched
    /// its input exactly, and agreed with the simulator oracle.
    #[must_use]
    pub fn all_good(&self) -> bool {
        self.serve.rejected_sessions == 0
            && self.mismatched.is_empty()
            && self.incomplete.is_empty()
            && self.clients_timed_out.is_empty()
            && self.oracle_mismatched.is_empty()
    }

    /// The human-readable summary table `rstp swarm` prints.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let lat = self.serve.latency();
        let q = |p: f64| {
            lat.quantile_interp_micros(p)
                .map_or_else(|| "-".into(), |v| format!("{v:.0}µs"))
        };
        let _ = writeln!(
            out,
            "sessions  : {} planned, {} admitted, {} completed, {} rejected",
            self.planned,
            self.serve.admitted(),
            self.serve.completed(),
            self.serve.rejected_sessions
        );
        let _ = writeln!(
            out,
            "wall      : {:.3}s, {:.0} msg/s aggregate",
            self.serve.wall_elapsed.as_secs_f64(),
            self.serve.throughput_msgs_per_sec()
        );
        let _ = writeln!(
            out,
            "latency   : p50 {} p99 {} max {} ({} samples)",
            q(0.50),
            q(0.99),
            lat.max_micros()
                .map_or_else(|| "-".into(), |v| format!("{v}µs")),
            lat.count()
        );
        let _ = writeln!(
            out,
            "deadlines : misses {} server / {} clients, violations {} server / {} clients",
            self.serve.deadline_misses(),
            self.client_deadline_misses,
            self.serve.timing_violations(),
            self.client_timing_violations
        );
        let _ = writeln!(
            out,
            "drops     : {} ingress overflow, {} orphan frames, {} decode errors",
            self.serve.ingress_overflow(),
            self.serve.orphan_frames,
            self.serve.decode_errors
        );
        if self.serve.crashes > 0 || self.serve.restarts > 0 || self.serve.hub_dropped_frames > 0 {
            let _ = writeln!(
                out,
                "faults    : {} crashes, {} restarts, {} sessions recovered, {} lost, \
                 {} hub-dropped frames",
                self.serve.crashes,
                self.serve.restarts,
                self.serve.recovered_sessions,
                self.serve.unrecoverable_sessions,
                self.serve.hub_dropped_frames
            );
        }
        if self.serve.handed_off() > 0 {
            // A restart adopts the sessions it recovers too; those are on
            // the faults line, so only a drain's adoptions count here.
            let _ = writeln!(
                out,
                "handover  : {} handed off, {} adopted",
                self.serve.handed_off(),
                self.serve
                    .adopted()
                    .saturating_sub(self.serve.recovered_sessions)
            );
        }
        if self.serve.reacked() > 0 {
            let _ = writeln!(
                out,
                "late acks : {} duplicate frame(s) re-acknowledged after completion",
                self.serve.reacked()
            );
        }
        if self.serve.events_recorded() > 0 || self.serve.events_dropped() > 0 {
            let _ = writeln!(
                out,
                "recorder  : {} events recorded, {} shed",
                self.serve.events_recorded(),
                self.serve.events_dropped()
            );
        }
        for s in &self.serve.shards {
            let _ = writeln!(
                out,
                "  shard {:>2}: {:>4} admitted, {:>4} completed, {:>8} steps, \
                 {:>4} misses, {:>4} violations, {:>4} drops",
                s.shard,
                s.admitted,
                s.completed,
                s.steps,
                s.deadline_misses,
                s.timing_violations,
                s.ingress_overflow
            );
        }
        if self.oracle_checked > 0 {
            let _ = writeln!(
                out,
                "oracle    : {} sessions cross-checked against the simulator, {} diverged",
                self.oracle_checked,
                self.oracle_mismatched.len()
            );
        }
        if !self.mismatched.is_empty() {
            let _ = writeln!(out, "MISMATCHED: {:?}", self.mismatched);
        }
        if !self.incomplete.is_empty() {
            let _ = writeln!(out, "INCOMPLETE: {:?}", self.incomplete);
        }
        if !self.clients_timed_out.is_empty() {
            let _ = writeln!(out, "TIMED OUT : {:?}", self.clients_timed_out);
            for line in &self.clients_timed_out_detail {
                let _ = writeln!(out, "  {line}");
            }
        }
        out
    }
}

/// Runs a uniform swarm per `config`, including the simulator-oracle
/// cross-check on the first `oracle_sample` sessions.
///
/// # Errors
///
/// [`NetError`] on transport failure, a model violation on either side,
/// or a panicked thread. (A session merely failing to complete or to
/// match its input is a *finding*, reported in the [`SwarmReport`], not
/// an `Err`.)
pub fn run_swarm(config: &SwarmConfig) -> Result<SwarmReport, NetError> {
    let sessions: Vec<(SessionSpec, Vec<Message>)> = (0..config.sessions)
        .map(|i| {
            let spec = SessionSpec {
                id: SessionId::new(u32::try_from(i).unwrap_or(u32::MAX).wrapping_add(1)),
                kind: config.kind,
                n: config.n,
            };
            let input = random_input(config.n, config.seed.wrapping_add(i as u64));
            (spec, input)
        })
        .collect();
    let mut report = run_swarm_sessions(&sessions, &config.serve, config.transport)?;

    // Independent oracle: the simulator (with its checker enabled) must
    // produce the same output the wall-clock stack did.
    let outcomes = report.serve.outcomes();
    for (spec, input) in sessions.iter().take(config.oracle_sample) {
        let expected = expected_output(config.kind, config.serve.params, input).map_err(|e| {
            NetError::Automaton {
                what: format!("sim oracle: {e}"),
            }
        })?;
        report.oracle_checked += 1;
        let written = outcomes.get(&spec.id.raw()).map(|s| s.written.as_slice());
        if written != Some(expected.as_slice()) {
            report.oracle_mismatched.push(spec.id.raw());
        }
    }
    Ok(report)
}

/// Runs an explicit (possibly mixed-protocol, mixed-`n`) session plan:
/// each `(spec, input)` pair becomes one client session transmitting
/// `input` while the server runs the matching receiver.
///
/// # Errors
///
/// [`NetError`] as for [`run_swarm`].
pub fn run_swarm_sessions(
    sessions: &[(SessionSpec, Vec<Message>)],
    serve: &ServeConfig,
    transport: SwarmTransport,
) -> Result<SwarmReport, NetError> {
    // Anchor tick 0 far enough ahead that the shards and client threads
    // are running before their first deadlines.
    let clock = TickClock::start_after(Duration::from_millis(20), serve.tick);
    let specs: Vec<SessionSpec> = sessions.iter().map(|(s, _)| *s).collect();

    let (serve_report, clients) = match transport {
        SwarmTransport::Mem => {
            let mut hub = MemHub::new();
            let mut ends = Vec::with_capacity(sessions.len());
            for (spec, _) in sessions {
                ends.push(hub.client_transport(spec.id, codec_for(spec.kind)?));
            }
            with_clients(sessions, ends, serve, clock, || {
                run_server(&mut hub, clock, &specs, serve)
            })?
        }
        SwarmTransport::Udp => {
            let mut server = UdpServerTransport::bind(("127.0.0.1", 0))?;
            let addr = server.local_addr()?;
            let mut ends = Vec::with_capacity(sessions.len());
            for (spec, _) in sessions {
                ends.push(UdpTransport::bind(
                    codec_for(spec.kind)?,
                    spec.id,
                    ("127.0.0.1", 0),
                    addr,
                )?);
            }
            with_clients(sessions, ends, serve, clock, || {
                run_server(&mut server, clock, &specs, serve)
            })?
        }
    };

    // Verify the safety obligation per session: Y == X exactly, on each
    // session's one outcome.
    let outcomes = serve_report.outcomes();
    let mut mismatched = Vec::new();
    let mut incomplete = Vec::new();
    for (spec, input) in sessions {
        let raw = spec.id.raw();
        match outcomes.get(&raw) {
            Some(stats) => {
                if !stats.completed {
                    incomplete.push(raw);
                }
                if stats.written.as_slice() != input.as_slice() {
                    mismatched.push(raw);
                }
            }
            // A session with no stats at all was either rejected at
            // admission — a legitimate backpressure outcome, already
            // counted in `rejected_sessions` — or lost in an
            // unrecovered crash, which is incomplete.
            None => {
                if !serve_report.rejected_ids.contains(&raw) {
                    incomplete.push(raw);
                }
            }
        }
    }
    mismatched.sort_unstable();
    incomplete.sort_unstable();

    let mut client_deadline_misses = 0;
    let mut client_timing_violations = 0;
    let mut client_frames_sent = 0;
    let mut clients_timed_out = Vec::new();
    let mut clients_timed_out_detail = Vec::new();
    for (spec, report) in specs.iter().zip(&clients) {
        client_deadline_misses += report.deadline_misses;
        client_timing_violations += report.timing_violations;
        client_frames_sent += report.transport.frames_sent;
        if report.outcome == DriverOutcome::TimedOut {
            clients_timed_out.push(spec.id.raw());
            clients_timed_out_detail.push(format!(
                "client {}: {} steps, {} data sends, {} acks sent, {} recvs, \
                 {} writes, {} misses, gave up after {:.3}s",
                spec.id.raw(),
                report.steps,
                report.data_sends,
                report.ack_sends,
                report.recvs,
                report.written.len(),
                report.deadline_misses,
                report.wall_elapsed.as_secs_f64(),
            ));
        }
    }

    Ok(SwarmReport {
        serve: serve_report,
        planned: sessions.len(),
        client_deadline_misses,
        client_timing_violations,
        client_frames_sent,
        clients_timed_out,
        clients_timed_out_detail,
        mismatched,
        incomplete,
        oracle_checked: 0,
        oracle_mismatched: Vec::new(),
    })
}

/// At most this many client sessions are sending at once, across all
/// client threads. A default kernel UDP receive buffer holds only a few
/// hundred datagrams. A busy shard reads the socket once a tick, and on
/// a small host the scheduler can hold the shards off for tens of
/// milliseconds: 256 concurrent senders overrun the buffer in that gap,
/// and losing all k copies of a symbol stalls an open-loop session
/// forever.
const WAVE: usize = 64;

/// Runs `server` on the calling thread while one client thread per shard
/// drives the transmitter sessions — session `i` over `ends[i]` — under
/// closed admission. Returns the server's report and one client report
/// per session, in plan order. A failed server stops the clients at once
/// (they could only wait out `max_wall`) and its error is the result.
fn with_clients<T: Transport + Send>(
    sessions: &[(SessionSpec, Vec<Message>)],
    ends: Vec<T>,
    serve: &ServeConfig,
    clock: TickClock,
    server: impl FnOnce() -> Result<ServeReport, NetError>,
) -> Result<(ServeReport, Vec<DriverReport>), NetError> {
    let threads = serve.shards.clamp(1, WAVE);
    let config = DriverConfig::new(serve.params, serve.tick)
        .with_pace(serve.pace)
        .with_max_wall(serve.max_wall)
        .with_max_live((WAVE / threads).max(1));
    // Deal sessions round-robin, so every thread carries a share of each
    // part of the plan.
    let mut lanes: Vec<(Vec<usize>, Vec<Session<T>>)> =
        (0..threads).map(|_| (Vec::new(), Vec::new())).collect();
    for (i, ((spec, input), end)) in sessions.iter().zip(ends).enumerate() {
        let endpoint = transmitter_endpoint(spec.kind, serve.params, input)?;
        let (ids, lane) = &mut lanes[i % threads];
        ids.push(i);
        lane.push(Session::transmitter(endpoint, end));
    }

    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for (ids, lane) in lanes {
            let stop = &stop;
            let handle = thread::Builder::new()
                .name("rstp-swarm-clients".into())
                .spawn_scoped(scope, move || {
                    run_sessions_until(lane, clock, &config, stop)
                })
                .map_err(|e| NetError::Thread {
                    what: format!("spawn client thread: {e}"),
                })?;
            handles.push((ids, handle));
        }
        let report = server();
        if report.is_err() {
            stop.store(true, Ordering::Relaxed);
        }
        let joined: Vec<_> = handles
            .into_iter()
            .map(|(ids, h)| (ids, h.join()))
            .collect();
        let report = report?;
        let mut clients: Vec<Option<DriverReport>> = sessions.iter().map(|_| None).collect();
        for (ids, joined) in joined {
            let reports = joined.map_err(|_| NetError::Thread {
                what: "swarm client thread panicked".into(),
            })??;
            for (i, r) in ids.into_iter().zip(reports) {
                clients[i] = Some(r);
            }
        }
        let clients = clients.into_iter().flatten().collect();
        Ok((report, clients))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ShardReport;

    /// Every frame a client sent is accounted for exactly once: applied
    /// by a shard, dropped past a full mailbox, orphaned, or undecodable.
    fn assert_frames_conserved(report: &SwarmReport) {
        let serve = &report.serve;
        let received: u64 = serve.shards.iter().map(|s| s.frames_received).sum();
        assert_eq!(
            received + serve.ingress_overflow() + serve.orphan_frames + serve.decode_errors,
            report.client_frames_sent,
            "{} received, {} overflow, {} orphan, {} undecodable\n{}",
            received,
            serve.ingress_overflow(),
            serve.orphan_frames,
            serve.decode_errors,
            report.summary()
        );
    }

    #[test]
    fn stabilizing_swarm_holds_y_equals_x_at_64_sessions() {
        // The CI swarm shape pinning the stabilizing family at scale:
        // 64 concurrent stop-and-wait stabilizing sessions on the mem
        // hub, each held to Y = X and the simulator oracle.
        let params = TimingParams::from_ticks(1, 2, 4).expect("valid");
        let config = SwarmConfig::new(
            ProtocolKind::StabStenning {
                timeout_steps: None,
            },
            8,
            64,
            params,
            Duration::from_micros(200),
        );
        let report = run_swarm(&config).expect("swarm");
        assert!(report.all_good(), "{}", report.summary());
        assert_eq!(report.serve.completed(), 64);
    }

    #[test]
    fn small_mem_swarm_reproduces_every_input() {
        let params = TimingParams::from_ticks(1, 2, 4).expect("valid");
        for kind in [ProtocolKind::Beta { k: 4 }, ProtocolKind::Gamma { k: 4 }] {
            let config = SwarmConfig::new(kind, 16, 8, params, Duration::from_micros(200));
            let report = run_swarm(&config).expect("swarm");
            assert!(report.all_good(), "{kind:?}: {}", report.summary());
            assert_eq!(report.serve.completed(), 8);
            assert_eq!(report.oracle_checked, 2);
            assert!(report.serve.latency().count() > 0);
            assert!(report.client_frames_sent > 0);
            assert_frames_conserved(&report);
        }
    }

    #[test]
    fn recorded_mem_swarm_stays_clean_and_indexable() {
        let params = TimingParams::from_ticks(1, 2, 4).expect("valid");
        let dir = std::env::temp_dir().join(format!("rstp-swarm-rec-{}", std::process::id()));
        let mut config = SwarmConfig::new(
            ProtocolKind::Gamma { k: 4 },
            8,
            6,
            params,
            Duration::from_micros(200),
        );
        config.serve = config.serve.with_record(&dir).with_record_seed(config.seed);
        let report = run_swarm(&config).expect("swarm");
        assert!(report.all_good(), "{}", report.summary());
        assert!(report.serve.events_recorded() > 0);
        assert_eq!(report.serve.events_dropped(), 0);
        assert!(report.summary().contains("recorder  :"));

        // The recording is complete: every session has its admit,
        // frames, and a completed verdict matching its input.
        let ix = rstp_record::SessionIndex::from_dir(&dir).expect("index");
        assert_eq!(ix.len(), 6);
        assert_eq!(ix.params, Some((1, 2, 4)));
        assert_eq!(ix.seed, Some(config.seed));
        assert!(!ix.truncated);
        for h in ix.sessions() {
            assert_eq!(h.kind, Some(ProtocolKind::Gamma { k: 4 }));
            assert!(!h.rx.is_empty(), "session {} recorded no frames", h.session);
            assert!(!h.pops.is_empty());
            let (_, completed, written) = h.verdict.clone().expect("verdict");
            assert!(completed);
            let expect = random_input(8, config.seed.wrapping_add(u64::from(h.session) - 1));
            assert_eq!(written, expect, "recorded Y != X for session {}", h.session);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_restart_recovers_every_acknowledged_write() {
        // The tentpole scenario: a shard is killed mid-transfer and
        // restarted from its flight recording. Stop-and-wait clients
        // retransmit through the outage, the restarted shard resumes
        // each session from snapshot + replay, and the run must end
        // with zero acknowledged symbols lost and every Y = X — which
        // `all_good` asserts via the per-session mismatch check.
        let params = TimingParams::from_ticks(1, 2, 4).expect("valid");
        let tick = Duration::from_micros(200);
        let dir = std::env::temp_dir().join(format!(
            "rstp-swarm-crash-{}-{:?}",
            std::process::id(),
            thread::current().id()
        ));
        let plan = crate::FaultPlan::parse("kill=1@20;restart=1@60").expect("plan");
        let serve = ServeConfig::new(params, tick)
            .with_shards(2)
            .with_max_sessions(8)
            .with_queue_cap(512)
            .with_max_wall(Duration::from_secs(30))
            .with_record(&dir)
            .with_record_seed(7)
            .with_faults(plan);
        let sessions: Vec<(SessionSpec, Vec<Message>)> = (1..=8u32)
            .map(|i| {
                let spec = SessionSpec {
                    id: SessionId::new(i),
                    kind: ProtocolKind::Stenning {
                        timeout_steps: None,
                    },
                    n: 8,
                };
                (spec, random_input(8, 7 + u64::from(i)))
            })
            .collect();
        let report = run_swarm_sessions(&sessions, &serve, SwarmTransport::Mem).expect("swarm");
        assert!(report.all_good(), "{}", report.summary());
        assert_eq!(report.serve.completed(), 8);
        assert_eq!(report.serve.crashes, 1, "{}", report.summary());
        assert_eq!(report.serve.restarts, 1, "{}", report.summary());
        assert_eq!(
            report.serve.unrecoverable_sessions,
            0,
            "{}",
            report.summary()
        );
        assert!(
            report.serve.recovered_sessions >= 1,
            "the kill must land mid-transfer: {}",
            report.summary()
        );
        // The crashed epoch is visible in the per-shard reports, and
        // the summary renders the fault line but no handover: nothing
        // was drained.
        assert!(report.serve.shards.iter().any(|s| s.crashed));
        let text = report.summary();
        assert!(text.contains("faults    :"), "{text}");
        assert!(!text.contains("handover"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_handover_migrates_sessions_without_losing_output() {
        // Shard 0 drains every live session to shard 1 mid-transfer:
        // each moves whole through the supervisor and resumes on shard 1,
        // where it must finish with Y = X. β and γ never resend data, so
        // the frames the source held when the session left (delivered
        // but not yet applied, or routed to it before the supervisor
        // moved its owner-table entry) must follow the session.
        let params = TimingParams::from_ticks(1, 2, 4).expect("valid");
        let tick = Duration::from_micros(200);
        let stenning = ProtocolKind::Stenning {
            timeout_steps: None,
        };
        for (kind, n) in [
            (stenning, 8),
            (ProtocolKind::Beta { k: 4 }, 64),
            (ProtocolKind::Gamma { k: 4 }, 64),
        ] {
            let plan = crate::FaultPlan::parse("drain=0->1@15").expect("plan");
            let serve = ServeConfig::new(params, tick)
                .with_shards(2)
                .with_max_sessions(8)
                .with_queue_cap(512)
                .with_max_wall(Duration::from_secs(30))
                .with_faults(plan);
            let sessions: Vec<(SessionSpec, Vec<Message>)> = (1..=8u32)
                .map(|i| {
                    let spec = SessionSpec {
                        id: SessionId::new(i),
                        kind,
                        n,
                    };
                    (spec, random_input(n, 100 + u64::from(i)))
                })
                .collect();
            let report = run_swarm_sessions(&sessions, &serve, SwarmTransport::Mem).expect("swarm");
            assert!(report.all_good(), "{kind:?}: {}", report.summary());
            assert_eq!(report.serve.completed(), 8);
            assert!(
                report.serve.handed_off() >= 1,
                "the drain must move sessions: {}",
                report.summary()
            );
            assert_eq!(
                report.serve.handed_off(),
                report.serve.adopted(),
                "every handoff must be adopted exactly once: {}",
                report.summary()
            );
            assert!(
                report.summary().contains("handover  :"),
                "{}",
                report.summary()
            );
            assert_frames_conserved(&report);
        }
    }

    #[test]
    fn injected_panic_is_a_run_failure_not_a_silent_exit() {
        // A shard thread panic must surface as an error from the run —
        // the pre-fix behavior (`rstp swarm` exiting 0 after a shard
        // panic) is exactly what this pins against.
        let params = TimingParams::from_ticks(1, 2, 4).expect("valid");
        let tick = Duration::from_micros(200);
        let plan = crate::FaultPlan::parse("panic=0@5").expect("plan");
        let serve = ServeConfig::new(params, tick)
            .with_shards(2)
            .with_max_sessions(4)
            .with_max_wall(Duration::from_secs(2))
            .with_faults(plan);
        let sessions: Vec<(SessionSpec, Vec<Message>)> = (1..=4u32)
            .map(|i| {
                let spec = SessionSpec {
                    id: SessionId::new(i),
                    kind: ProtocolKind::Stenning {
                        timeout_steps: None,
                    },
                    n: 4,
                };
                (spec, random_input(4, u64::from(i)))
            })
            .collect();
        let err = match run_swarm_sessions(&sessions, &serve, SwarmTransport::Mem) {
            Err(e) => e,
            Ok(report) => panic!("panic fault must fail the run: {}", report.summary()),
        };
        assert!(
            matches!(err, NetError::Thread { .. }),
            "expected a thread error, got: {err}"
        );
    }

    #[test]
    fn the_handover_line_counts_drains_not_recoveries() {
        // Shard 1 restarted and recovered 16 sessions; then a drain moved
        // 4 sessions from shard 0 to shard 1. Both adoptions sit in shard
        // 1's `adopted`, but only the drain's are a handover.
        let shards = |drained: u64| {
            vec![
                ShardReport {
                    handed_off: drained,
                    ..ShardReport::new(0)
                },
                ShardReport {
                    adopted: 16 + drained,
                    ..ShardReport::new(1)
                },
            ]
        };
        let mut report = SwarmReport {
            serve: ServeReport {
                crashes: 1,
                restarts: 1,
                recovered_sessions: 16,
                shards: shards(0),
                ..ServeReport::default()
            },
            planned: 0,
            client_deadline_misses: 0,
            client_timing_violations: 0,
            client_frames_sent: 0,
            clients_timed_out: Vec::new(),
            clients_timed_out_detail: Vec::new(),
            mismatched: Vec::new(),
            incomplete: Vec::new(),
            oracle_checked: 0,
            oracle_mismatched: Vec::new(),
        };
        let text = report.summary();
        assert!(text.contains("16 sessions recovered"), "{text}");
        assert!(!text.contains("handover"), "{text}");
        report.serve.shards = shards(4);
        let text = report.summary();
        assert!(
            text.contains("handover  : 4 handed off, 4 adopted"),
            "{text}"
        );
    }

    #[test]
    fn summary_renders_every_section() {
        let params = TimingParams::from_ticks(1, 2, 4).expect("valid");
        let mut config = SwarmConfig::new(
            ProtocolKind::Gamma { k: 4 },
            8,
            4,
            params,
            Duration::from_micros(200),
        );
        config.oracle_sample = 1;
        let report = run_swarm(&config).expect("swarm");
        let text = report.summary();
        assert!(text.contains("sessions  :"), "{text}");
        assert!(text.contains("latency   :"), "{text}");
        assert!(text.contains("shard"), "{text}");
        assert!(text.contains("oracle    :"), "{text}");
    }
}
