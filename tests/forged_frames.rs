//! A frame its session cannot take never reaches the automaton.
//!
//! The ingress pass checks every frame's structure and checksum, then
//! that the session it names can take it: the session's protocol and
//! `k`, and a data packet, since every server session is a receiver and no
//! receiver's input signature holds `recv(ack)`. A well-formed ack, or a
//! frame of another protocol, for an admitted session counts as a decode
//! error, so anyone who can reach the socket cannot take a shard down
//! with one datagram. Nor can they hold a shard off its steps with many:
//! a shard reads a bounded number of batches per pass, and leaves the
//! rest of a flood for its next wake.

use rstp::core::{Packet, SessionId, TimingParams};
use rstp::net::{
    codec_for, run_sessions, transmitter_endpoint, DriverConfig, DriverOutcome, FrameBuf, NetError,
    Session, TickClock, Transport,
};
use rstp::serve::{run_server, EgressSink, MemHub, ServeConfig, ServeTransport, SessionSpec};
use rstp::sim::harness::random_input;
use rstp::sim::ProtocolKind;
use std::thread;
use std::time::{Duration, Instant};

#[test]
fn forged_frames_for_an_admitted_session_count_as_decode_errors() {
    let params = TimingParams::from_ticks(1, 2, 4).unwrap();
    let tick = Duration::from_micros(200);
    let cap = Duration::from_secs(5);
    let beta = ProtocolKind::Beta { k: 4 };
    let stenning = ProtocolKind::Stenning {
        timeout_steps: None,
    };
    let id = SessionId::new(1);
    let input = random_input(16, 7);

    // Two forgers speak for session 1 before its client starts: one sends
    // an ack in the session's own protocol, the other a Stenning data
    // frame. Both are well-formed and correctly checksummed. The client
    // registers last, so the hub's replies for session 1 reach it.
    let mut hub = MemHub::new();
    let mut forged_ack = hub.client_transport(id, codec_for(beta).unwrap());
    let mut foreign = hub.client_transport(id, codec_for(stenning).unwrap());
    forged_ack.send(Packet::Ack(0), 0).unwrap();
    foreign.send(Packet::Data(0), 0).unwrap();
    let client = hub.client_transport(id, codec_for(beta).unwrap());

    let clock = TickClock::start_after(Duration::from_millis(20), tick);
    let driver = DriverConfig::new(params, tick).with_max_wall(cap);
    let transmitter = transmitter_endpoint(beta, params, &input).unwrap();
    let sender = thread::spawn(move || {
        run_sessions(
            vec![Session::transmitter(transmitter, client)],
            clock,
            &driver,
        )
    });
    let spec = SessionSpec {
        id,
        kind: beta,
        n: input.len(),
    };
    let serve = ServeConfig::new(params, tick)
        .with_shards(1)
        .with_max_wall(cap);
    let report = run_server(&mut hub, clock, &[spec], &serve);
    let client = sender.join().unwrap().unwrap().remove(0);
    let report = report.expect("a forged frame must not fail the run");

    assert_eq!(report.decode_errors, 2);
    assert_eq!(report.completed(), 1);
    assert_eq!(report.outcomes()[&1].written, input);
    assert_eq!(client.outcome, DriverOutcome::Completed);
    // Frame conservation still holds, the forged frames included.
    let received: u64 = report.shards.iter().map(|s| s.frames_received).sum();
    assert_eq!(
        received + report.ingress_overflow() + report.orphan_frames + report.decode_errors,
        client.transport.frames_sent + 2
    );
}

/// A [`MemHub`] that is never dry until `until`: every read comes back
/// full, the hub's own datagrams first, then junk that fails to decode.
struct FloodedHub {
    hub: MemHub,
    clock: TickClock,
    until: Instant,
    junk: FrameBuf,
}

impl ServeTransport for FloodedHub {
    fn recv_batch(&mut self, out: &mut Vec<FrameBuf>, max: usize) -> Result<usize, NetError> {
        let got = self.hub.recv_batch(out, max)?;
        if self.clock.now() >= self.until {
            return Ok(got);
        }
        out.extend(std::iter::repeat(self.junk).take(max - got));
        Ok(max)
    }

    fn egress(&self) -> Result<Box<dyn EgressSink>, NetError> {
        self.hub.egress()
    }
}

#[test]
fn a_flood_of_datagrams_does_not_hold_a_shard_off_its_steps() {
    // Eight β sessions over two shards, flooded for their first 250
    // ticks. A pass that read until the transport ran dry would never
    // return, and its shard's sessions would step nowhere near their
    // deadlines while the frames for them overflowed its queue; β
    // resends nothing, so a lost frame is a wrong Y.
    let params = TimingParams::from_ticks(1, 2, 4).unwrap();
    let tick = Duration::from_micros(500);
    let cap = Duration::from_secs(5);
    let beta = ProtocolKind::Beta { k: 4 };
    let clock = TickClock::start_after(Duration::from_millis(20), tick);
    let mut transport = FloodedHub {
        hub: MemHub::new(),
        clock,
        until: clock.instant_of_tick(250),
        junk: FrameBuf::from_slice(&[0xff; 8]).unwrap(),
    };

    let mut specs = Vec::new();
    let mut inputs = Vec::new();
    let mut sessions = Vec::new();
    for i in 1..=8u32 {
        let id = SessionId::new(i);
        let input = random_input(96, 500 + u64::from(i));
        let end = transport.hub.client_transport(id, codec_for(beta).unwrap());
        let endpoint = transmitter_endpoint(beta, params, &input).unwrap();
        sessions.push(Session::transmitter(endpoint, end));
        specs.push(SessionSpec {
            id,
            kind: beta,
            n: input.len(),
        });
        inputs.push(input);
    }
    let driver = DriverConfig::new(params, tick).with_max_wall(cap);
    let clients = thread::spawn(move || run_sessions(sessions, clock, &driver));
    let serve = ServeConfig::new(params, tick)
        .with_shards(2)
        .with_queue_cap(64)
        .with_max_wall(cap);
    let report = run_server(&mut transport, clock, &specs, &serve);
    let clients = clients.join().unwrap().unwrap();
    let report = report.expect("serve");

    assert!(report.decode_errors > 0, "the flood was never read");
    assert_eq!(report.timing_violations(), 0);
    assert_eq!(report.completed(), 8);
    let outcomes = report.outcomes();
    for (spec, input) in specs.iter().zip(&inputs) {
        assert_eq!(&outcomes[&spec.id.raw()].written, input, "{:?}", spec.id);
    }
    for client in &clients {
        assert_eq!(client.outcome, DriverOutcome::Completed);
        assert_eq!(client.timing_violations, 0);
    }
}
