//! A shard that dies ends the run at once.
//!
//! A panicked or failed shard's sessions can never complete, so the pump
//! must not wait for them until `max_wall`: it notices that the shard's
//! thread ended without a scripted kill and stops, and the join reports
//! the panic as the run's error.

use rstp::core::{SessionId, TimingParams};
use rstp::net::{NetError, TickClock};
use rstp::serve::{run_server, FaultPlan, MemHub, ServeConfig, SessionSpec};
use rstp::sim::ProtocolKind;
use std::time::Duration;

#[test]
fn a_panicked_shard_ends_the_run_at_once() {
    let tick = Duration::from_micros(200);
    let config = ServeConfig::new(TimingParams::from_ticks(1, 2, 4).unwrap(), tick)
        .with_shards(2)
        .with_max_wall(Duration::from_secs(30))
        .with_faults(FaultPlan::parse("panic=0@5").unwrap());
    // No clients: the sessions never complete, so nothing but the panic
    // can end the run before `max_wall`.
    let specs: Vec<SessionSpec> = (1..=4u32)
        .map(|i| SessionSpec {
            id: SessionId::new(i),
            kind: ProtocolKind::Stenning {
                timeout_steps: None,
            },
            n: 4,
        })
        .collect();

    let clock = TickClock::start(tick);
    let result = run_server(&mut MemHub::new(), clock, &specs, &config);
    let took = clock.now().saturating_duration_since(clock.epoch());
    assert!(
        matches!(result, Err(NetError::Thread { .. })),
        "expected a thread error, got {result:?}"
    );
    assert!(took < Duration::from_secs(10), "the run took {took:?}");
}
