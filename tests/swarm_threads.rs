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

use rstp::core::{SessionId, TimingParams};
use rstp::serve::{run_swarm_sessions, ServeConfig, SessionSpec, SwarmTransport};
use rstp::sim::harness::random_input;
use rstp::sim::ProtocolKind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

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
