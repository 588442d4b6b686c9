//! Wall-clock-sensitive UDP tests.
//!
//! These assert real latency and scheduling behaviour, so they are flaky
//! on loaded CI machines. They are `#[ignore]`d by default and only
//! assert when explicitly opted in:
//!
//! ```text
//! RSTP_NET_TIMING=1 cargo test -p rstp-net --test udp_timing -- --ignored
//! ```
//!
//! Logic-level UDP tests (framing, addressing, non-blocking polling) do
//! not depend on timing and run unconditionally in `crates/net/src/udp.rs`
//! and `udp_logic` below.

#![allow(clippy::disallowed_methods)] // the tests time real sockets

use rstp_core::protocols::{AlphaReceiver, AlphaTransmitter};
use rstp_core::{Message, Packet, TimingParams};
use rstp_net::{
    run_sessions, Driven, DriverConfig, DriverOutcome, DriverReport, Pace, ProtocolId, Session,
    TickClock, Transport, UdpTransport, WireCodec,
};
use std::time::{Duration, Instant};

/// True when the operator opted into wall-clock assertions.
fn timing_enabled() -> bool {
    std::env::var("RSTP_NET_TIMING").is_ok_and(|v| v == "1")
}

fn params() -> TimingParams {
    TimingParams::from_ticks(1, 2, 4).expect("valid")
}

/// Both ends of an alpha transfer over real UDP loopback sockets, each
/// paced by the driver loop on its own thread, sharing one clock epoch.
fn alpha_over_udp(
    p: TimingParams,
    tick: Duration,
    input: &[Message],
    cfg: DriverConfig,
) -> (DriverReport, DriverReport) {
    let codec = WireCodec::new(ProtocolId::Alpha, 0).expect("codec");
    let (t_end, r_end) = UdpTransport::loopback_pair(codec).expect("pair");
    let clock = TickClock::start_after(Duration::from_millis(5), tick);
    let transmitter = Box::new(Driven::new(AlphaTransmitter::new(p, input.to_vec())));
    let receiver = Box::new(Driven::new(AlphaReceiver::new()));
    let n = input.len();
    let run = move |session| run_sessions(vec![session], clock, &cfg).expect("run").pop();
    let t_handle = std::thread::spawn(move || run(Session::transmitter(transmitter, t_end)));
    let r_handle = std::thread::spawn(move || run(Session::receiver(receiver, r_end, n)));
    let t_report = t_handle.join().expect("join").expect("transmitter");
    let r_report = r_handle.join().expect("join").expect("receiver");
    (t_report, r_report)
}

/// Unconditional logic test: a full alpha transfer over real UDP loopback
/// sockets, with generous budgets so scheduling noise cannot fail it.
#[test]
fn udp_logic_alpha_transfer_round_trips() {
    let p = params();
    let tick = Duration::from_micros(500);
    let input = vec![true, false, false, true, true];
    let cfg = DriverConfig::new(p, tick).with_max_wall(Duration::from_secs(20));
    let (t_report, r_report) = alpha_over_udp(p, tick, &input, cfg);
    assert_eq!(t_report.outcome, DriverOutcome::Completed);
    assert_eq!(r_report.outcome, DriverOutcome::Completed);
    assert_eq!(r_report.written, input);
}

/// Loopback latency must be far below a millisecond-scale tick, so the
/// measured per-packet latency histogram should sit well under one tick.
#[test]
#[ignore = "wall-clock sensitive; run with RSTP_NET_TIMING=1 and --ignored"]
fn udp_loopback_latency_is_below_one_tick() {
    if !timing_enabled() {
        eprintln!("skipping: set RSTP_NET_TIMING=1 to enable timing assertions");
        return;
    }
    let codec = WireCodec::new(ProtocolId::Alpha, 0).expect("codec");
    let (mut a, mut b) = UdpTransport::loopback_pair(codec).expect("pair");
    let clock = TickClock::start(Duration::from_millis(1));
    let mut worst = Duration::ZERO;
    for i in 0..64u64 {
        let t0 = Instant::now();
        a.send(Packet::Data(i), clock.now_micros()).expect("send");
        loop {
            if let Some(frame) = b.poll_recv().expect("poll") {
                assert_eq!(frame.packet, Packet::Data(i));
                worst = worst.max(t0.elapsed());
                break;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(1),
                "loopback datagram lost?"
            );
            std::thread::yield_now();
        }
    }
    assert!(
        worst < Duration::from_millis(1),
        "worst loopback latency {worst:?} exceeds one 1 ms tick"
    );
}

/// At slow pace with a comfortable tick, the driver must hold its step
/// schedule: essentially no deadline misses or timing violations.
#[test]
#[ignore = "wall-clock sensitive; run with RSTP_NET_TIMING=1 and --ignored"]
fn udp_driver_holds_its_schedule_under_comfortable_ticks() {
    if !timing_enabled() {
        eprintln!("skipping: set RSTP_NET_TIMING=1 to enable timing assertions");
        return;
    }
    let p = params();
    let tick = Duration::from_millis(2);
    let input = vec![true; 16];
    let cfg = DriverConfig::new(p, tick)
        .with_pace(Pace::Slow)
        .with_max_wall(Duration::from_secs(30));
    let (t_report, r_report) = alpha_over_udp(p, tick, &input, cfg);
    assert_eq!(r_report.written, input);
    let budget = t_report.steps / 10; // tolerate < 10% noise
    assert!(
        t_report.deadline_misses <= budget,
        "transmitter missed {} of {} deadlines",
        t_report.deadline_misses,
        t_report.steps
    );
    assert!(
        t_report.timing_violations <= budget,
        "transmitter violated timing {} times over {} steps",
        t_report.timing_violations,
        t_report.steps
    );
}
