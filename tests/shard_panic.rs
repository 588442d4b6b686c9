//! A shard that dies, or a transport that fails, ends the run at once.
//!
//! A panicked or failed shard's sessions can never complete, so the
//! server must not wait for them until `max_wall`: it notices that the
//! shard's thread ended without a scripted kill and stops, and the join
//! reports the panic as the run's error. A swarm then stops its clients
//! too, whose transmitters could only wait out their own `max_wall`. A
//! shard's pass that meets a transport error keeps it, and the run ends
//! with that error at the supervisor's next wake.

use rstp::core::{Message, SessionId, TimingParams};
use rstp::net::{FrameBuf, NetError, TickClock};
use rstp::serve::{
    run_server, run_swarm_sessions, EgressSink, FaultPlan, MemHub, ServeConfig, ServeTransport,
    SessionSpec, SwarmTransport,
};
use rstp::sim::harness::random_input;
use rstp::sim::ProtocolKind;
use std::time::Duration;

/// Two shards, a 30 s wall cap, and shard 0 panicking at tick 5.
fn panicking(tick: Duration) -> ServeConfig {
    ServeConfig::new(TimingParams::from_ticks(1, 2, 4).unwrap(), tick)
        .with_shards(2)
        .with_max_wall(Duration::from_secs(30))
        .with_faults(FaultPlan::parse("panic=0@5").unwrap())
}

/// Four Stenning sessions of `n` messages.
fn specs(n: usize) -> Vec<SessionSpec> {
    (1..=4u32)
        .map(|i| SessionSpec {
            id: SessionId::new(i),
            kind: ProtocolKind::Stenning {
                timeout_steps: None,
            },
            n,
        })
        .collect()
}

#[test]
fn a_panicked_shard_ends_the_run_at_once() {
    let tick = Duration::from_micros(200);
    let config = panicking(tick);
    // No clients: the sessions never complete, so nothing but the panic
    // can end the run before `max_wall`.
    let specs = specs(4);

    let clock = TickClock::start(tick);
    let result = run_server(&mut MemHub::new(), clock, &specs, &config);
    let took = clock.now().saturating_duration_since(clock.epoch());
    assert!(
        matches!(result, Err(NetError::Thread { .. })),
        "expected a thread error, got {result:?}"
    );
    assert!(took < Duration::from_secs(10), "the run took {took:?}");
}

#[test]
fn a_swarm_whose_shard_panics_stops_its_clients_at_once() {
    let tick = Duration::from_micros(500);
    let config = panicking(tick).with_max_sessions(4);
    let sessions: Vec<(SessionSpec, Vec<Message>)> = specs(8)
        .into_iter()
        .map(|spec| (spec, random_input(spec.n, u64::from(spec.id.raw()))))
        .collect();
    for transport in [SwarmTransport::Mem, SwarmTransport::Udp] {
        let clock = TickClock::start(tick);
        let result = run_swarm_sessions(&sessions, &config, transport);
        let took = clock.now().saturating_duration_since(clock.epoch());
        assert!(
            matches!(result, Err(NetError::Thread { .. })),
            "{transport:?}: expected the server's thread error, got {:?}",
            result.map(|report| report.summary())
        );
        assert!(
            took < Duration::from_secs(10),
            "{transport:?}: the swarm took {took:?}"
        );
    }
}

/// A [`MemHub`] whose ingress fails from its third read on.
struct FailingHub {
    hub: MemHub,
    reads: u32,
}

impl ServeTransport for FailingHub {
    fn recv_batch(&mut self, out: &mut Vec<FrameBuf>, max: usize) -> Result<usize, NetError> {
        self.reads += 1;
        if self.reads >= 3 {
            return Err(NetError::Io(std::io::Error::other("ingress failed")));
        }
        self.hub.recv_batch(out, max)
    }

    fn egress(&self) -> Result<Box<dyn EgressSink>, NetError> {
        self.hub.egress()
    }
}

#[test]
fn a_failing_transport_ends_the_run_at_once() {
    let tick = Duration::from_micros(200);
    let config = ServeConfig::new(TimingParams::from_ticks(1, 2, 4).unwrap(), tick)
        .with_shards(2)
        .with_max_wall(Duration::from_secs(30));
    let mut transport = FailingHub {
        hub: MemHub::new(),
        reads: 0,
    };
    // No clients: the sessions never complete, so nothing but the
    // transport error can end the run before `max_wall`.
    let clock = TickClock::start(tick);
    let result = run_server(&mut transport, clock, &specs(4), &config);
    let took = clock.now().saturating_duration_since(clock.epoch());
    assert!(
        matches!(result, Err(NetError::Io(_))),
        "expected the transport's error, got {result:?}"
    );
    assert!(took < Duration::from_secs(10), "the run took {took:?}");
}
