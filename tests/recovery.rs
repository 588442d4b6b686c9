//! A session recovers from a snapshot that carries real progress.
//!
//! Crash recovery decodes the session's latest snapshot from the flight
//! recording and replays the events after it. The first kill below can
//! only find admission snapshots, whose bit vectors are empty. A shard
//! that resumes a session writes a fresh snapshot of the recovered
//! state, so the second kill must decode an anchor that already holds
//! written messages.
//!
//! The recording's own accounting must survive the same crashes: every
//! event the shards' epochs report as recorded is in a file, once.

use rstp::core::{SessionId, TimingParams};
use rstp::record::{shard_file_name, RecStats, Recording};
use rstp::serve::{
    run_swarm_sessions, FaultPlan, ServeConfig, SessionSpec, SwarmReport, SwarmTransport,
};
use rstp::sim::harness::random_input;
use rstp::sim::ProtocolKind;
use std::time::Duration;

/// Runs eight recorded Stenning sessions on two shards under `plan`.
/// Returns the report and, per shard file, the number of events that
/// parse and the trailer's counters.
fn recorded_swarm(name: &str, plan: &str) -> (SwarmReport, Vec<(usize, RecStats)>) {
    let dir = std::env::temp_dir().join(format!("rstp-{name}-{}", std::process::id()));
    let plan = FaultPlan::parse(plan).unwrap();
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
    .with_faults(plan);
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
    let files = (0..2u32)
        .map(|shard| {
            let rec = Recording::load(&dir.join(shard_file_name(shard))).unwrap();
            (rec.events.len(), rec.stats.unwrap_or_default())
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (report, files)
}

#[test]
fn sessions_survive_two_crashes_of_one_shard() {
    let plan = "kill=1@20;restart=1@60;kill=1@90;restart=1@130";
    let (report, files) = recorded_swarm("recovery", plan);
    let summary = report.summary();
    // The recorder's accounting across two crashes: each trailer counts
    // exactly the events in its file (a recovery checkpoint is not an
    // event), nothing was shed, and the shard epochs' own counts add up
    // to the files instead of each repeating the file's running total.
    for (shard, (events, stats)) in files.iter().enumerate() {
        assert_eq!(*events as u64, stats.recorded, "shard {shard}: {stats:?}");
        assert_eq!(stats.dropped, 0, "shard {shard}: {stats:?}");
    }
    let in_files: u64 = files.iter().map(|(_, stats)| stats.recorded).sum();
    assert_eq!(in_files, report.serve.events_recorded(), "{summary}");
    assert!(report.all_good(), "{summary}");
    assert_eq!(report.serve.crashes, 2, "{summary}");
    assert_eq!(report.serve.restarts, 2, "{summary}");
    assert_eq!(report.serve.unrecoverable_sessions, 0, "{summary}");
    assert!(report.serve.recovered_sessions >= 1, "{summary}");
}

#[test]
fn a_restart_in_the_killing_tick_reads_the_dead_epochs_last_events() {
    // A killed shard reads its `Crash` at its next wake, up to one gap
    // later, and may still hold a recorder batch until its thread
    // returns. Recovery in the same tick must wait for that thread, or
    // it reads a file the dead epoch is still writing to.
    let (report, files) = recorded_swarm("same-tick", "kill=1@40;restart=1@40");
    let summary = report.summary();
    for (shard, (events, stats)) in files.iter().enumerate() {
        assert_eq!(*events as u64, stats.recorded, "shard {shard}: {stats:?}");
    }
    assert!(report.all_good(), "{summary}");
    assert_eq!(report.serve.crashes, 1, "{summary}");
    assert_eq!(report.serve.restarts, 1, "{summary}");
    assert_eq!(report.serve.unrecoverable_sessions, 0, "{summary}");
}
