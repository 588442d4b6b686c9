//! Sixty-four concurrent transfers multiplexed through one sharded
//! server: a mixed plan of alpha, beta(k), and gamma(k) sessions with
//! different lengths `n`, all paced by the server's timer wheel and
//! carried over the in-process loopback hub. After the run, every
//! session's receiver output `Y` is checked against its own input `X` —
//! the paper's correctness obligation, held per session even though the
//! sessions share shards, queues, and one wire.
//!
//! Run with: `cargo run --example swarm_transfer`
//!
//! For the same experiment from the command line (including real UDP
//! datagrams), see `rstp swarm` and `docs/SERVE.md`.

use rstp::core::{SessionId, TimingParams};
use rstp::serve::{run_swarm_sessions, ServeConfig, SessionSpec, SwarmTransport};
use rstp::sim::harness::random_input;
use rstp::sim::ProtocolKind;
use std::time::Duration;

fn main() {
    let params = TimingParams::from_ticks(1, 2, 4).expect("valid parameters");
    // A coarse tick: the client threads and the shards share however
    // many cores the host has, and gamma's ack clocking needs every
    // round trip to land inside the schedule even on a loaded machine.
    let tick = Duration::from_millis(1);

    // 64 sessions cycling through the paper's three protocols, with
    // lengths spread over 8..=39 so no two neighbours look alike.
    let kinds = [
        ProtocolKind::Alpha,
        ProtocolKind::Beta { k: 4 },
        ProtocolKind::Gamma { k: 4 },
    ];
    let sessions: Vec<(SessionSpec, Vec<bool>)> = (0..64u32)
        .map(|i| {
            let kind = kinds[i as usize % kinds.len()];
            let n = 8 + (i as usize % 32);
            let spec = SessionSpec {
                id: SessionId::new(i + 1),
                kind,
                n,
            };
            (spec, random_input(n, 1000 + u64::from(i)))
        })
        .collect();

    // Queue capacity provisioned for the offered load: alpha tolerates
    // no loss at all, and beta is open-loop, so an ingress drop would
    // wedge a session rather than slow it down.
    let serve = ServeConfig::new(params, tick)
        .with_shards(4)
        .with_max_sessions(sessions.len())
        .with_queue_cap(sessions.len() * 32);

    println!(
        "swarm: {} sessions (alpha / beta(4) / gamma(4) interleaved), {params}, tick = {:?}, {} shards",
        sessions.len(),
        tick,
        serve.shards
    );

    let report = run_swarm_sessions(&sessions, &serve, SwarmTransport::Mem).expect("swarm run");
    print!("{}", report.summary());

    // The whole point: every one of the 64 outputs is exactly its input.
    assert!(
        report.mismatched.is_empty() && report.incomplete.is_empty(),
        "a session diverged:\n{}",
        report.summary()
    );
    for stats in report.serve.shards.iter().flat_map(|s| s.sessions.iter()) {
        let (_, input) = sessions
            .iter()
            .find(|(spec, _)| spec.id == stats.id)
            .expect("planned session");
        assert_eq!(&stats.written, input, "session {} diverged", stats.id);
    }
    assert_eq!(
        report.serve.timing_violations(),
        0,
        "timer wheel stepped a session outside [c1, c2]"
    );
    println!(
        "delivered  : Y = X for all {} sessions (mixed protocols, mixed n)",
        sessions.len()
    );
}
