//! Integration: swarms over both fabrics keep every session exact, and
//! timer-wheel pacing holds each admitted session's step gaps inside
//! `[c1, c2]` under load.
//!
//! The `timing_violations == 0` assertions are *not* wall-clock-flaky
//! and run unconditionally: the shard schedules consecutive deadlines
//! exactly `gap` ticks apart, measures gaps only between wakes that were
//! punctual (within the slack of their own deadline), and books anything
//! late as a deadline miss instead. Two punctual wakes `gap` ticks apart
//! are inside `[c1·tick − slack, c2·tick + slack]` by construction, so a
//! violation can only come from a scheduling bug, never from a loaded
//! CI machine — load surfaces as misses, which these tests permit.

use rstp_core::{SessionId, TimingParams};
use rstp_serve::{
    run_swarm, run_swarm_sessions, ServeConfig, SessionSpec, SwarmConfig, SwarmTransport,
};
use rstp_sim::harness::random_input;
use rstp_sim::ProtocolKind;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

fn params() -> TimingParams {
    TimingParams::from_ticks(1, 2, 4).expect("valid")
}

/// Each swarm spins up dozens of real-time threads; running two swarms
/// concurrently on a small CI box starves both of CPU. Serialize.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn mem_swarm_is_exact_and_paced_within_the_window() {
    let _guard = serial();
    let mut config = SwarmConfig::new(
        ProtocolKind::Beta { k: 4 },
        32,
        64,
        params(),
        Duration::from_micros(200),
    );
    config.serve = config.serve.with_shards(4);
    config.seed = 7;
    let report = run_swarm(&config).expect("swarm");

    assert!(report.all_good(), "swarm failed:\n{}", report.summary());
    assert_eq!(report.serve.completed(), 64);
    assert!(report.mismatched.is_empty(), "prefix-safety violated");
    // The tentpole pacing claim: under 64 concurrent sessions the wheel
    // never stepped an admitted session outside its [c1, c2] window
    // (driver-identical accounting; see the module comment for why this
    // is load-independent).
    assert_eq!(
        report.serve.timing_violations(),
        0,
        "wheel pacing broke [c1, c2]:\n{}",
        report.summary()
    );
    // Every session exchanged real traffic (β(k) packs k bits per
    // symbol, so the frame count is far below n·sessions, but no
    // session can complete without at least one delivered frame).
    assert!(report.serve.latency().count() >= 64);
}

#[test]
fn udp_swarm_reproduces_every_input() {
    let _guard = serial();
    let mut config = SwarmConfig::new(
        ProtocolKind::Beta { k: 4 },
        16,
        16,
        params(),
        Duration::from_micros(300),
    );
    config.transport = SwarmTransport::Udp;
    config.serve = config.serve.with_shards(2);
    config.seed = 11;
    let report = run_swarm(&config).expect("swarm");

    assert!(report.all_good(), "udp swarm failed:\n{}", report.summary());
    assert_eq!(report.serve.completed(), 16);
    assert_eq!(report.serve.timing_violations(), 0);
}

#[test]
fn mixed_protocol_plan_isolates_sessions() {
    let _guard = serial();
    // Heterogeneous table: different protocols and different n side by
    // side on the same shards; every session must still reproduce its
    // own input exactly.
    let kinds = [
        ProtocolKind::Alpha,
        ProtocolKind::Beta { k: 4 },
        ProtocolKind::Gamma { k: 4 },
        ProtocolKind::Framed { k: 4 },
        ProtocolKind::Stenning {
            timeout_steps: None,
        },
        ProtocolKind::Pipelined { k: 4, window: 2 },
        ProtocolKind::AltBit {
            timeout_steps: None,
        },
    ];
    let sessions: Vec<(SessionSpec, Vec<bool>)> = kinds
        .iter()
        .enumerate()
        .flat_map(|(i, &kind)| {
            (0..3).map(move |j| {
                let id = SessionId::new((i * 3 + j) as u32 + 1);
                let n = 4 + (i * 3 + j) % 9; // mixed lengths 4..=12
                (
                    SessionSpec { id, kind, n },
                    random_input(n, 31 * i as u64 + j as u64),
                )
            })
        })
        .collect();
    let serve = ServeConfig::new(params(), Duration::from_micros(200))
        .with_shards(3)
        .with_max_sessions(sessions.len());
    let report = run_swarm_sessions(&sessions, &serve, SwarmTransport::Mem).expect("swarm");

    assert!(
        report.all_good(),
        "mixed swarm failed:\n{}",
        report.summary()
    );
    assert_eq!(report.serve.completed(), sessions.len() as u64);
    assert_eq!(report.serve.timing_violations(), 0);
    // Outputs are per-session exact, so nothing leaked across sessions
    // even with seven different automata interleaved on three shards.
    for stats in report.serve.shards.iter().flat_map(|s| s.sessions.iter()) {
        let input = &sessions
            .iter()
            .find(|(spec, _)| spec.id == stats.id)
            .expect("planned session")
            .1;
        assert_eq!(&stats.written, input, "session {} diverged", stats.id);
    }
}

#[test]
fn backpressure_rejects_rather_than_stalls() {
    let _guard = serial();
    // An admission plan bigger than the table: the surplus is rejected
    // at admission, and every admitted session still completes exactly.
    let mut config = SwarmConfig::new(
        ProtocolKind::Beta { k: 4 },
        8,
        12,
        params(),
        Duration::from_micros(200),
    );
    config.serve = config
        .serve
        .with_shards(2)
        .with_max_sessions(8)
        .with_max_wall(Duration::from_secs(10));
    config.oracle_sample = 0;
    let report = run_swarm(&config).expect("swarm");

    assert_eq!(report.serve.rejected_sessions, 4);
    assert_eq!(report.serve.admitted(), 8);
    assert_eq!(report.serve.completed(), 8);
    assert!(report.mismatched.is_empty());
    assert!(report.incomplete.is_empty());
    // The surplus was rejected at admission rather than wedged into the
    // table, so the admitted sessions' pacing never degraded.
    assert_eq!(report.serve.timing_violations(), 0);
    // (Beta transmitters are open-loop, so the rejected *clients* still
    // finish on their own — rejection starves no one of CPU.)
    assert!(report.clients_timed_out.is_empty());
}
