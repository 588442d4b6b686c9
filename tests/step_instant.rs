//! A session's step happens at one instant.
//!
//! In the paper a process's step is atomic in time: the packets it
//! receives and its one local action share a time. The shard reads its
//! clock once per wheel pop and stamps everything that step does with
//! that reading, so in a flight recording every `Rx`, `Tx`, `Write` and
//! `DeadlineMiss` event carries the `at_micros` of the `WheelPop` that
//! opened its session's step. Crash recovery (`recover_session`) and the
//! replay bridge group events into steps by these stamps.

use rstp::core::{SessionId, TimingParams};
use rstp::record::{shard_file_name, Event, Recording};
use rstp::serve::{run_swarm_sessions, ServeConfig, SessionSpec, SwarmTransport};
use rstp::sim::harness::random_input;
use rstp::sim::ProtocolKind;
use std::collections::HashMap;
use std::time::Duration;

#[test]
fn every_event_of_a_step_carries_its_wheel_pop_instant() {
    const SESSIONS: usize = 16;
    const N: usize = 32;
    let params = TimingParams::from_ticks(1, 2, 4).unwrap();
    let kinds = [
        ProtocolKind::Gamma { k: 4 },
        ProtocolKind::Stenning {
            timeout_steps: None,
        },
    ];
    let sessions: Vec<(SessionSpec, Vec<bool>)> = (0..SESSIONS)
        .map(|i| {
            let spec = SessionSpec {
                id: SessionId::new(i as u32 + 1),
                kind: kinds[i % kinds.len()],
                n: N,
            };
            (spec, random_input(N, 900 + i as u64))
        })
        .collect();
    // A busy ring keeps the shard's batch for its next hand-off instead
    // of shedding it (docs/REPLAY.md), so one run records every event;
    // a shed event could leave a step's events without their pop.
    let dir = std::env::temp_dir().join(format!("rstp-step-instant-{}", std::process::id()));
    let serve = ServeConfig::new(params, Duration::from_micros(200))
        .with_shards(1)
        .with_max_sessions(SESSIONS)
        .with_queue_cap(SESSIONS * 32)
        .with_max_wall(Duration::from_secs(30))
        .with_record(&dir);
    let report = run_swarm_sessions(&sessions, &serve, SwarmTransport::Mem).expect("swarm");
    let recording = Recording::load(&dir.join(shard_file_name(0)));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(report.all_good(), "{}", report.summary());
    assert_eq!(report.serve.events_dropped(), 0, "{}", report.summary());
    let recording = recording.expect("recording");

    let mut step_at: HashMap<u32, u64> = HashMap::new();
    let mut checked: HashMap<&str, usize> = HashMap::new();
    let mut differed = Vec::new();
    for event in &recording.events {
        let (kind, session, at) = match *event {
            Event::WheelPop {
                session, at_micros, ..
            } => {
                step_at.insert(session, at_micros);
                continue;
            }
            Event::Rx {
                session, at_micros, ..
            } => ("rx", session, at_micros),
            Event::Tx {
                session, at_micros, ..
            } => ("tx", session, at_micros),
            Event::Write {
                session, at_micros, ..
            } => ("write", session, at_micros),
            Event::DeadlineMiss {
                session, at_micros, ..
            } => ("miss", session, at_micros),
            _ => continue,
        };
        *checked.entry(kind).or_default() += 1;
        let opened = step_at.get(&session).copied();
        if opened != Some(at) {
            differed.push(format!(
                "session {session}: {kind} at {at} µs, its step woke at {opened:?}"
            ));
        }
    }
    for kind in ["rx", "tx", "write"] {
        assert!(
            checked.get(kind).copied().unwrap_or(0) > 0,
            "no {kind} events recorded: {checked:?}"
        );
    }
    assert!(
        differed.is_empty(),
        "{} of {} events differ from their step's instant, first: {:?}",
        differed.len(),
        checked.values().sum::<usize>(),
        differed.first()
    );
}
