//! A drain moves each live session whole to another shard.
//!
//! A drain takes every live receiver off one shard and resumes it on
//! another, under the ingress lock in one step, as crash recovery
//! resumes a session. How much the session has already delivered must not
//! matter: a β session drained after some twenty thousand writes is
//! handed off, adopted by the target and finishes there with Y = X,
//! exactly like a session drained after its first few.
//!
//! A moved session must also exist exactly once when a shard dies around
//! the move, and its flight recording, which now spans two shard files,
//! must read as one transfer with no acknowledged write lost.

use rstp::check::ack_loss_failure;
use rstp::core::{SessionId, TimingParams};
use rstp::record::SessionIndex;
use rstp::serve::{
    run_swarm, run_swarm_sessions, FaultPlan, ServeConfig, SessionSpec, SwarmConfig, SwarmReport,
    SwarmTransport,
};
use rstp::sim::harness::random_input;
use rstp::sim::ProtocolKind;
use std::time::Duration;

/// Every frame a client sent is accounted for exactly once: applied by a
/// shard, dropped past its mailbox's bound, orphaned, or undecodable. A
/// drain moves a session's unapplied frames with it, so none is lost on
/// the way. Only the mem hub is lossless; over UDP the kernel may drop
/// datagrams uncounted.
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
fn a_long_beta_session_drains_mid_transfer() {
    // A step writes at most one message and c1 is one tick, so neither
    // session can finish before tick 24 000: the drain at tick 20 000
    // always lands mid-transfer. Session 2 hashes to shard 0, so
    // exactly one session moves.
    let params = TimingParams::from_ticks(1, 1, 8).unwrap();
    let tick = Duration::from_micros(100);
    let mut config = SwarmConfig::new(ProtocolKind::Beta { k: 64 }, 24_000, 2, params, tick);
    let plan = FaultPlan::parse("drain=0->1@20000").unwrap();
    config.serve = config.serve.with_shards(2).with_faults(plan);

    let report = run_swarm(&config).unwrap();
    let summary = report.summary();
    assert!(report.all_good(), "{summary}");
    assert_eq!(report.serve.handed_off(), 1, "{summary}");
    assert_eq!(report.serve.adopted(), 1, "{summary}");
    assert_frames_conserved(&report);
}

/// Runs eight recorded Stenning sessions (n = 32) on two shards under
/// `plan` and checks the run, then the recording alone: every session
/// ends with Y = X, each moved session was adopted exactly once, and no
/// session's history loses an acknowledged write. Returns how many
/// sessions the drain handed off.
fn recorded_drain(name: &str, plan: &str) -> u64 {
    let dir = std::env::temp_dir().join(format!("rstp-drain-{name}-{}", std::process::id()));
    let serve = ServeConfig::new(
        TimingParams::from_ticks(1, 2, 4).unwrap(),
        Duration::from_micros(200),
    )
    .with_shards(2)
    .with_max_sessions(8)
    .with_queue_cap(512)
    .with_max_wall(Duration::from_secs(30))
    .with_record(&dir)
    .with_record_seed(7)
    .with_faults(FaultPlan::parse(plan).unwrap());
    let sessions: Vec<_> = (1..=8u32)
        .map(|i| {
            let spec = SessionSpec {
                id: SessionId::new(i),
                kind: ProtocolKind::Stenning {
                    timeout_steps: None,
                },
                n: 32,
            };
            (spec, random_input(32, 7 + u64::from(i)))
        })
        .collect();

    let report = run_swarm_sessions(&sessions, &serve, SwarmTransport::Mem).unwrap();
    let index = SessionIndex::from_dir(&dir).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let summary = report.summary();
    assert!(report.all_good(), "{plan}: {summary}");
    assert_eq!(index.len(), 8, "{plan}");
    for h in index.sessions() {
        assert!(
            ack_loss_failure(h).is_none(),
            "{plan}: {:?}",
            ack_loss_failure(h)
        );
    }
    // Every session a drain moved is adopted once, beside the ones a
    // restart recovered.
    assert_eq!(
        report.serve.adopted(),
        report.serve.handed_off() + report.serve.recovered_sessions,
        "{plan}: {summary}"
    );
    report.serve.handed_off()
}

#[test]
fn a_drain_whose_source_dies_in_its_tick_loses_no_acknowledged_write() {
    // The source reads its drain before its crash, so every live session
    // has left whole before the shard dies, and the target runs each to
    // completion; the restart finds nothing of them left to recover.
    assert!(recorded_drain("source-dies", "drain=0->1@15;kill=0@15;restart=0@40") >= 1);
}

#[test]
fn a_drain_into_a_shard_killed_in_its_tick_moves_nothing() {
    // The supervisor fires a tick's drain and kill in one hold of the
    // lock, so the target is dead whenever the source reads its drain:
    // every session stays on its own shard, and the only adoptions are
    // the target's own sessions, recovered by its restart.
    assert_eq!(
        recorded_drain("target-dies", "drain=0->1@15;kill=1@15;restart=1@40"),
        0
    );
}

#[test]
fn a_drain_to_a_lower_shard_replays_without_ack_loss() {
    // A moved session's later writes sit in shard 0's file, which is
    // read before shard 1's; the index must put them back in time order.
    assert!(recorded_drain("downward", "drain=1->0@40") >= 1);
}

#[test]
fn a_restart_in_the_drains_tick_recovers_none_of_the_moved_sessions() {
    // The restart waits for the killed source, which reads its drain
    // before its crash and moves its sessions under the lock; the
    // restart reads the owner table after that, so no moved session
    // runs twice.
    assert!(recorded_drain("same-tick", "drain=0->1@15;kill=0@15;restart=0@15") >= 1);
}

#[test]
fn a_drain_of_more_sessions_than_the_queue_holds_keeps_every_step_in_its_window() {
    // Three shards with mailboxes of eight frame batches. Shard 1's
    // eight sessions move to shard 0, then shard 0's sixteen move to
    // shard 2: twice `queue_cap`. A move is never refused, and it takes
    // one hold of the lock, so shard 2 keeps passing and stepping. The
    // second drain comes 90 ticks after the first, so the first has
    // landed even when a loaded host holds shard 1 off for a while.
    let serve = ServeConfig::new(
        TimingParams::from_ticks(1, 2, 4).unwrap(),
        Duration::from_micros(200),
    )
    .with_shards(3)
    .with_queue_cap(8)
    .with_max_wall(Duration::from_secs(30))
    .with_faults(FaultPlan::parse("drain=1->0@10;drain=0->2@100").unwrap());
    let sessions: Vec<_> = (1..=24u32)
        .map(|i| {
            let spec = SessionSpec {
                id: SessionId::new(i),
                kind: ProtocolKind::Stenning {
                    timeout_steps: None,
                },
                n: 64,
            };
            (spec, random_input(64, 40 + u64::from(i)))
        })
        .collect();

    for transport in [SwarmTransport::Mem, SwarmTransport::Udp] {
        let report = run_swarm_sessions(&sessions, &serve, transport).unwrap();
        let summary = report.summary();
        assert!(report.all_good(), "{transport:?}: {summary}");
        assert_eq!(report.serve.timing_violations(), 0, "{summary}");
        assert_eq!(report.client_timing_violations, 0, "{summary}");
        assert_eq!(report.serve.handed_off(), 24, "{transport:?}: {summary}");
        assert_eq!(report.serve.adopted(), 24, "{transport:?}: {summary}");
        if transport == SwarmTransport::Mem {
            assert_frames_conserved(&report);
        }
    }
}

#[test]
fn a_beta_drain_into_a_shard_killed_in_its_tick_moves_nothing() {
    // β resends nothing, so a session the drain cannot move must keep
    // every frame it held. The target dies in the drain's tick, so
    // nothing moves and no session is adopted. Only even ids are
    // planned: shard 1 owns no session, so its kill drops no frame of
    // theirs.
    let serve = ServeConfig::new(
        TimingParams::from_ticks(1, 2, 4).unwrap(),
        Duration::from_micros(200),
    )
    .with_shards(2)
    .with_max_wall(Duration::from_secs(30))
    .with_faults(FaultPlan::parse("drain=0->1@15;kill=1@15;restart=1@40").unwrap());
    let sessions: Vec<_> = (1..=8u32)
        .map(|i| {
            let spec = SessionSpec {
                id: SessionId::new(2 * i),
                kind: ProtocolKind::Beta { k: 4 },
                n: 64,
            };
            (spec, random_input(64, 70 + u64::from(i)))
        })
        .collect();

    for transport in [SwarmTransport::Mem, SwarmTransport::Udp] {
        let report = run_swarm_sessions(&sessions, &serve, transport).unwrap();
        let summary = report.summary();
        assert!(report.all_good(), "{transport:?}: {summary}");
        assert_eq!(report.serve.timing_violations(), 0, "{summary}");
        assert_eq!(report.serve.handed_off(), 0, "{transport:?}: {summary}");
        assert_eq!(report.serve.adopted(), 0, "{transport:?}: {summary}");
    }
}
