//! Per-shard and aggregate server metrics.
//!
//! Each shard keeps its own counters with no sharing on the data path;
//! the server merges [`ShardReport`]s into one [`ServeReport`] when the
//! shards join. Latency aggregation relies on
//! [`LatencyHistogram::merge`], and the summary quantiles use the
//! interpolated estimator so 256 sessions' worth of samples do not
//! collapse onto power-of-two bucket edges.

use rstp_core::{Message, SessionId};
use rstp_net::LatencyHistogram;
use std::collections::HashMap;
use std::time::Duration;

/// Outcome and accounting of one completed (or failed) session.
#[derive(Clone, Debug)]
pub struct SessionStats {
    /// The session's wire id.
    pub id: SessionId,
    /// Short protocol name (`ProtocolKind::name()`).
    pub protocol: String,
    /// Messages the session was expected to deliver.
    pub n: usize,
    /// The receiver's output sequence `Y`.
    pub written: Vec<Message>,
    /// Local steps this session took.
    pub steps: u64,
    /// Data/ack frames this session received.
    pub recvs: u64,
    /// Frames this session sent (acks for receiver sessions).
    pub sends: u64,
    /// Wall-clock tick of the last write, if any — effort numerator.
    pub last_write_tick: Option<u64>,
    /// Whether the session completed (grace period drained quietly after
    /// all `n` writes).
    pub completed: bool,
}

impl SessionStats {
    /// Receiver-side effort in ticks per message: `t(last-write)/n`.
    #[must_use]
    pub fn learn_effort_ticks(&self) -> Option<f64> {
        let last = self.last_write_tick?;
        (self.n > 0).then(|| last as f64 / self.n as f64)
    }
}

/// Everything one shard observed.
#[derive(Clone, Debug, Default)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Sessions admitted to this shard.
    pub admitted: u64,
    /// Sessions that completed all writes and drained their grace period.
    pub completed: u64,
    /// Sessions still open when the shard stopped.
    pub unfinished: u64,
    /// Wake-ups later than their deadline by more than the slack.
    pub deadline_misses: u64,
    /// Observed per-session step gaps outside `[c1·tick − slack, c2·tick + slack]`.
    pub timing_violations: u64,
    /// Frames dropped because the shard's mailbox already held its bound
    /// of `queue_cap × 32` frames.
    pub ingress_overflow: u64,
    /// Total automaton steps across all sessions.
    pub steps: u64,
    /// Frames sent by this shard's sessions.
    pub frames_sent: u64,
    /// Frames delivered to this shard's sessions, retired ones included.
    pub frames_received: u64,
    /// Frames for a session id this shard does not hold, dropped here. The
    /// server adds them to [`ServeReport::orphan_frames`] at join.
    pub orphan_frames: u64,
    /// Per-packet delivery latency across the shard's sessions.
    pub latency: LatencyHistogram,
    /// Flight-recorder events this shard epoch's own recorder handle
    /// handed to the ring (0 when recording is off). A restarted shard's
    /// new epoch starts again from 0, so a shard's epochs add up to the
    /// events in its file.
    pub events_recorded: u64,
    /// Flight-recorder events this epoch's handle shed because its batch
    /// would have passed the ring's byte cap — recording is strictly
    /// nonblocking, so saturation drops events rather than pacing the
    /// data path. A busy ring sheds nothing: the batch waits for the
    /// next hand-off.
    pub events_dropped: u64,
    /// Sessions this shard took through a `Resume`: recovered from the
    /// flight recording after a crash, or moved here by a drain.
    pub adopted: u64,
    /// Sessions this shard gave up to a drain.
    pub handed_off: u64,
    /// Duplicate frames re-acknowledged for already-completed sessions
    /// (the retired-ghost path — a lost final ack or a scheduler-stalled
    /// client retransmitting past the session's grace).
    pub reacked: u64,
    /// True when the shard stopped via an injected crash fault (live
    /// sessions discarded, completed verdicts kept).
    pub crashed: bool,
    /// Per-session outcomes.
    pub sessions: Vec<SessionStats>,
}

impl ShardReport {
    /// An empty report for shard `shard`.
    #[must_use]
    pub fn new(shard: usize) -> Self {
        ShardReport {
            shard,
            ..Default::default()
        }
    }
}

/// The server-wide aggregate over all shards: the pump's own counters,
/// filled as it runs, plus every shard's report once it joins.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Per-shard reports, in shard order.
    pub shards: Vec<ShardReport>,
    /// Sessions rejected at admission (table full or queue full on first
    /// contact) — backpressure's reject-new-session policy at work.
    pub rejected_sessions: u64,
    /// The raw session ids rejected at admission, so a verifier can
    /// tell a planned-but-rejected session (expected to produce no
    /// output) from one lost in an unrecovered crash (a failure).
    pub rejected_ids: Vec<u32>,
    /// Frames that arrived for no admitted session and were dropped, at
    /// the pump or at a shard.
    pub orphan_frames: u64,
    /// Frames the pump dropped as undecodable: those that failed strict
    /// decoding, and well-formed ones their session cannot take (another
    /// protocol or `k`, or an ack for a receiver).
    pub decode_errors: u64,
    /// Shard threads restarted by the fault plan.
    pub restarts: u64,
    /// Shard crashes (scripted kills and injected panics) executed.
    pub crashes: u64,
    /// Live sessions re-created from the flight recording across all
    /// restarts.
    pub recovered_sessions: u64,
    /// Live sessions a restart could not re-create (no snapshot, or the
    /// replay fell short of the acknowledged floor) — each one is lost.
    pub unrecoverable_sessions: u64,
    /// Ingress frames read and discarded inside a scripted `hubdrop`
    /// fault window.
    pub hub_dropped_frames: u64,
    /// Wall-clock duration of the whole run.
    pub wall_elapsed: Duration,
}

impl ServeReport {
    /// Total admitted sessions.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.shards.iter().map(|s| s.admitted).sum()
    }

    /// Total completed sessions.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.shards.iter().map(|s| s.completed).sum()
    }

    /// Total deadline misses.
    #[must_use]
    pub fn deadline_misses(&self) -> u64 {
        self.shards.iter().map(|s| s.deadline_misses).sum()
    }

    /// Total timing violations.
    #[must_use]
    pub fn timing_violations(&self) -> u64 {
        self.shards.iter().map(|s| s.timing_violations).sum()
    }

    /// Total ingress-queue overflow drops (admitted sessions only).
    #[must_use]
    pub fn ingress_overflow(&self) -> u64 {
        self.shards.iter().map(|s| s.ingress_overflow).sum()
    }

    /// Total flight-recorder events accepted, over every shard epoch:
    /// the events in the recording.
    #[must_use]
    pub fn events_recorded(&self) -> u64 {
        self.shards.iter().map(|s| s.events_recorded).sum()
    }

    /// Total flight-recorder events shed under saturation, over every
    /// shard epoch.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.events_dropped).sum()
    }

    /// Total sessions adopted across shards (moved or recovered).
    #[must_use]
    pub fn adopted(&self) -> u64 {
        self.shards.iter().map(|s| s.adopted).sum()
    }

    /// Total sessions drains moved off their shards.
    #[must_use]
    pub fn handed_off(&self) -> u64 {
        self.shards.iter().map(|s| s.handed_off).sum()
    }

    /// Total duplicate frames re-acknowledged after completion.
    #[must_use]
    pub fn reacked(&self) -> u64 {
        self.shards.iter().map(|s| s.reacked).sum()
    }

    /// Each session's outcome, by raw id: one entry per id that any
    /// shard reported, the completed entry when there is one. Fault and
    /// drain runs can report an id more than once (a crashed epoch's
    /// unfinished entry next to the epoch that completed it).
    #[must_use]
    pub fn outcomes(&self) -> HashMap<u32, &SessionStats> {
        let mut outcomes: HashMap<u32, &SessionStats> = HashMap::new();
        for stats in self.shards.iter().flat_map(|s| &s.sessions) {
            let entry = outcomes.entry(stats.id.raw()).or_insert(stats);
            if stats.completed && !entry.completed {
                *entry = stats;
            }
        }
        outcomes
    }

    /// All shards' latency histograms merged.
    #[must_use]
    pub fn latency(&self) -> LatencyHistogram {
        let mut all = LatencyHistogram::new();
        for s in &self.shards {
            all.merge(&s.latency);
        }
        all
    }

    /// Messages delivered per wall-clock second across all sessions.
    #[must_use]
    pub fn throughput_msgs_per_sec(&self) -> f64 {
        let written: usize = self
            .shards
            .iter()
            .flat_map(|s| s.sessions.iter())
            .map(|s| s.written.len())
            .sum();
        let secs = self.wall_elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        written as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(n: usize, last: Option<u64>) -> SessionStats {
        SessionStats {
            id: SessionId::new(1),
            protocol: "beta(k=4)".into(),
            n,
            written: vec![true; n],
            steps: 10,
            recvs: 5,
            sends: 0,
            last_write_tick: last,
            completed: true,
        }
    }

    #[test]
    fn learn_effort_divides_by_n() {
        assert_eq!(stats(4, Some(40)).learn_effort_ticks(), Some(10.0));
        assert_eq!(stats(4, None).learn_effort_ticks(), None);
        assert_eq!(stats(0, Some(40)).learn_effort_ticks(), None);
    }

    #[test]
    fn aggregate_sums_shards_and_merges_latency() {
        let mut a = ShardReport::new(0);
        a.admitted = 3;
        a.completed = 3;
        a.deadline_misses = 1;
        a.latency.record(10);
        a.sessions.push(stats(2, Some(8)));
        let mut b = ShardReport::new(1);
        b.admitted = 2;
        b.completed = 1;
        b.timing_violations = 2;
        b.latency.record(1000);
        b.sessions.push(stats(3, Some(9)));
        let report = ServeReport {
            shards: vec![a, b],
            rejected_sessions: 4,
            rejected_ids: vec![6, 7, 8, 9],
            wall_elapsed: Duration::from_secs(1),
            ..Default::default()
        };
        assert_eq!(report.admitted(), 5);
        assert_eq!(report.completed(), 4);
        assert_eq!(report.deadline_misses(), 1);
        assert_eq!(report.timing_violations(), 2);
        assert_eq!(report.latency().count(), 2);
        assert_eq!(report.latency().max_micros(), Some(1000));
        // 2 + 3 messages written over one second.
        assert!((report.throughput_msgs_per_sec() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn outcomes_keep_one_entry_per_id_and_the_completed_one_wins() {
        let entry = |id: u32, completed: bool| SessionStats {
            id: SessionId::new(id),
            completed,
            ..stats(2, None)
        };
        // Id 1: a crashed epoch's unfinished entry, then the completed
        // one; id 2: completed, then a stale unfinished copy; id 3 never
        // completed anywhere.
        let mut a = ShardReport::new(0);
        a.sessions = vec![entry(1, false), entry(2, true), entry(3, false)];
        let mut b = ShardReport::new(1);
        b.sessions = vec![entry(1, true), entry(2, false), entry(3, false)];
        let report = ServeReport {
            shards: vec![a, b],
            ..Default::default()
        };
        let outcomes = report.outcomes();
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[&1].completed);
        assert!(outcomes[&2].completed);
        assert!(!outcomes[&3].completed);
    }
}
