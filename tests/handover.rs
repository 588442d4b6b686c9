//! A drain moves each live session whole to another shard.
//!
//! A drain takes every live receiver off one shard and resumes it on
//! another, through the supervisor, as crash recovery resumes a
//! session. How much the session has already delivered must not
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
    run_swarm, run_swarm_sessions, FaultPlan, ServeConfig, SessionSpec, SwarmConfig, SwarmTransport,
};
use rstp::sim::harness::random_input;
use rstp::sim::ProtocolKind;
use std::time::Duration;

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
}

/// Runs eight recorded Stenning sessions (n = 32) on two shards under
/// `plan` and checks the run, then the recording alone: every session
/// ends with Y = X, each moved session was adopted exactly once, and no
/// session's history loses an acknowledged write.
fn recorded_drain(name: &str, plan: &str) {
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
    assert!(report.serve.handed_off() >= 1, "{plan}: {summary}");
    // Every session a drain moved is adopted once, beside the ones a
    // restart recovered.
    assert_eq!(
        report.serve.adopted(),
        report.serve.handed_off() + report.serve.recovered_sessions,
        "{plan}: {summary}"
    );
}

#[test]
fn a_drain_whose_source_dies_in_its_tick_loses_no_acknowledged_write() {
    // The source reads its drain before its crash, so every live session
    // has left whole before the shard dies, and the target runs each to
    // completion; the restart finds nothing of them left to recover.
    recorded_drain("source-dies", "drain=0->1@15;kill=0@15;restart=0@40");
}

#[test]
fn a_drained_session_goes_home_when_its_target_dies() {
    // The target is dead by the time the supervisor handles the moves,
    // so each session resumes on its own shard.
    recorded_drain("target-dies", "drain=0->1@15;kill=1@15;restart=1@40");
}

#[test]
fn a_drain_to_a_lower_shard_replays_without_ack_loss() {
    // A moved session's later writes sit in shard 0's file, which is
    // read before shard 1's; the index must put them back in time order.
    recorded_drain("downward", "drain=1->0@40");
}

#[test]
fn a_restart_in_the_drains_tick_recovers_none_of_the_moved_sessions() {
    // The restart waits for the killed source, which reads its drain
    // before its crash; the moves it sent must settle before the restart
    // reads the owner table, or a moved session would run twice.
    recorded_drain("same-tick", "drain=0->1@15;kill=0@15;restart=0@15");
}

#[test]
fn a_drain_of_more_sessions_than_the_queue_holds_keeps_every_step_in_its_window() {
    // Three shards with queues of eight. Shard 1's eight sessions move
    // to shard 0, then shard 0's sixteen move to shard 2: twice the
    // queue's bound. The supervisor waits out the full queue with the
    // lock released, so shard 2 keeps passing, draining and stepping.
    // The second drain comes 90 ticks after the first, so the first
    // has landed even when a loaded host holds shard 1 off for a while.
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
    }
}

#[test]
fn a_drained_beta_session_goes_home_with_its_frames_when_its_target_dies() {
    // β resends nothing, so the frames each moved session held, and the
    // ones its source forwarded after it left, must follow it home. Only
    // even ids are planned: shard 1 owns no session, so its kill drops
    // no frame of theirs.
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
        assert_eq!(report.serve.handed_off(), 8, "{transport:?}: {summary}");
        assert_eq!(report.serve.adopted(), 8, "{transport:?}: {summary}");
    }
}
