//! Every swarm session is owed the paper's guarantees, and swarm threads
//! scale with shards, not sessions.
//!
//! A mixed-protocol swarm over the loopback hub — α, β(4), γ(4) and
//! Stenning side by side, 64 sessions on 2 shards — must deliver every
//! session's input exactly, with zero timing violations on either side.
//! Meanwhile a sampler reads this process's thread count from
//! `/proc/self/status`: clients run as sessions of the driver loop on one
//! thread per shard, so the peak stays far below one thread per client.
//! (This file is its own test binary, so no other test's threads count.)
//!
//! The shards read ingress when they wake, so the thread that calls
//! `run_server` only supervises: `/proc/thread-self/schedstat` shows it
//! running about once per grace period, not once per tick.

use rstp::core::{SessionId, TimingParams};
use rstp::serve::{run_swarm_sessions, ServeConfig, SessionSpec, SwarmTransport};
use rstp::sim::harness::random_input;
use rstp::sim::ProtocolKind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How many times the scheduler has run the calling thread (field 3 of
/// `/proc/thread-self/schedstat`), when `/proc` is mounted.
fn runs_of_this_thread() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().nth(2)?.parse().ok()
}

/// This process's current thread count, when `/proc` is mounted.
fn threads_now() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn mixed_mem_swarm_is_exact_and_runs_on_a_thread_per_shard() {
    const SESSIONS: usize = 64;
    let params = TimingParams::from_ticks(1, 2, 4).unwrap();
    let kinds = [
        ProtocolKind::Alpha,
        ProtocolKind::Beta { k: 4 },
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
                n: 16,
            };
            (spec, random_input(16, 500 + i as u64))
        })
        .collect();
    let serve = ServeConfig::new(params, Duration::from_micros(200))
        .with_shards(2)
        .with_max_sessions(SESSIONS)
        .with_queue_cap(SESSIONS * 32)
        .with_max_wall(Duration::from_secs(30));

    let running = Arc::new(AtomicBool::new(true));
    let sampler = {
        let running = Arc::clone(&running);
        thread::spawn(move || {
            let mut peak = threads_now()?;
            while running.load(Ordering::Relaxed) {
                peak = peak.max(threads_now()?);
                thread::sleep(Duration::from_micros(200));
            }
            Some(peak)
        })
    };
    let report = run_swarm_sessions(&sessions, &serve, SwarmTransport::Mem).expect("swarm");
    running.store(false, Ordering::Relaxed);
    let peak = sampler.join().expect("sampler");

    assert!(report.all_good(), "{}", report.summary());
    assert_eq!(report.serve.completed(), SESSIONS as u64);
    assert!(
        report.mismatched.is_empty(),
        "Y != X: {:?}",
        report.mismatched
    );
    assert_eq!(report.serve.timing_violations(), 0, "{}", report.summary());
    assert_eq!(report.client_timing_violations, 0, "{}", report.summary());
    if let Some(peak) = peak {
        assert!(
            peak < SESSIONS,
            "{peak} threads for {SESSIONS} sessions on 2 shards"
        );
    }
}

#[test]
fn the_server_caller_wakes_per_grace_period_not_per_tick() {
    const SESSIONS: u32 = 16;
    let tick = Duration::from_micros(200);
    let params = TimingParams::from_ticks(1, 2, 4).unwrap();
    let sessions: Vec<(SessionSpec, Vec<bool>)> = (1..=SESSIONS)
        .map(|i| {
            let spec = SessionSpec {
                id: SessionId::new(i),
                kind: ProtocolKind::Beta { k: 4 },
                n: 256,
            };
            (spec, random_input(256, 900 + u64::from(i)))
        })
        .collect();
    let serve = ServeConfig::new(params, tick)
        .with_shards(2)
        .with_max_sessions(SESSIONS as usize)
        .with_queue_cap(SESSIONS as usize * 32)
        .with_max_wall(Duration::from_secs(30));

    for transport in [SwarmTransport::Mem, SwarmTransport::Udp] {
        let Some(before) = runs_of_this_thread() else {
            return;
        };
        let report = run_swarm_sessions(&sessions, &serve, transport).expect("swarm");
        let runs = runs_of_this_thread().expect("schedstat") - before;

        assert!(report.all_good(), "{transport:?}: {}", report.summary());
        assert_eq!(report.serve.timing_violations(), 0, "{}", report.summary());
        // The caller supervises: it wakes for a fault, a moved session,
        // or once per grace period (12 ticks here), never once per tick.
        let ticks = report.serve.wall_elapsed.as_micros() / tick.as_micros();
        assert!(
            u128::from(runs) < ticks / 4,
            "{transport:?}: the calling thread ran {runs} times in {ticks} ticks"
        );
    }
}
