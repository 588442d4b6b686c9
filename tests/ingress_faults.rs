//! The scripted ingress faults, end to end.
//!
//! Inside a `stall` window no pass reads ingress: datagrams wait in the
//! transport and reach their sessions late, but whole. Inside a
//! `hubdrop` window a pass reads and discards: Stenning resends what was
//! lost. A pass judges both windows by its own tick, whichever shard runs
//! it. Either way every session must end with Y = X, and no step on
//! either side may leave its `[c1, c2]` window.

use rstp::core::{SessionId, TimingParams};
use rstp::serve::{run_swarm_sessions, FaultPlan, ServeConfig, SessionSpec, SwarmTransport};
use rstp::sim::harness::random_input;
use rstp::sim::ProtocolKind;
use std::time::Duration;

#[test]
fn a_stall_delays_and_a_hubdrop_drops_but_every_session_delivers() {
    const SESSIONS: u32 = 8;
    let tick = Duration::from_micros(200);
    let params = TimingParams::from_ticks(1, 2, 4).unwrap();
    // n = 64 keeps every session mid-transfer through tick 72, so the
    // drop window always has traffic to drop. A pass runs only when its
    // shard wakes, every gap of two ticks here, and four ticks of
    // dropping (two passes a shard) read nothing in 2 runs of 20, so
    // the window spans twelve.
    let sessions: Vec<_> = (1..=SESSIONS)
        .map(|i| {
            let spec = SessionSpec {
                id: SessionId::new(i),
                kind: ProtocolKind::Stenning {
                    timeout_steps: None,
                },
                n: 64,
            };
            (spec, random_input(64, 300 + u64::from(i)))
        })
        .collect();
    let serve = ServeConfig::new(params, tick)
        .with_shards(2)
        .with_max_sessions(SESSIONS as usize)
        .with_queue_cap(SESSIONS as usize * 32)
        .with_max_wall(Duration::from_secs(30))
        .with_faults(FaultPlan::parse("stall=20..40;hubdrop=60..72").unwrap());

    for transport in [SwarmTransport::Mem, SwarmTransport::Udp] {
        let report = run_swarm_sessions(&sessions, &serve, transport).expect("swarm");
        let summary = report.summary();
        assert!(report.all_good(), "{transport:?}: {summary}");
        assert_eq!(report.serve.timing_violations(), 0, "{summary}");
        assert_eq!(report.client_timing_violations, 0, "{summary}");
        assert!(
            report.serve.hub_dropped_frames > 0,
            "{transport:?}: {summary}"
        );
        // A frame sent as the stall opened waited in the transport until
        // it closed, 20 ticks on.
        let max = report.serve.latency().max_micros().unwrap_or(0);
        let held = 15 * tick.as_micros();
        assert!(
            u128::from(max) >= held,
            "{transport:?}: max latency {max} µs, under {held} µs: {summary}"
        );
    }
}
