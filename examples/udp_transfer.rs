//! A beta(k) transfer over real UDP loopback sockets, scheduled on the
//! wall clock by the real-time driver: both endpoints step inside their
//! `[c1, c2]` windows (scaled by a tick duration), packets cross an actual
//! `UdpSocket`, and the receiver's output is checked against the input.
//!
//! Run with: `cargo run --example udp_transfer`
//!
//! For a two-terminal version of the same transfer (separate processes,
//! real ports), see the walkthrough in `docs/NET.md` or run
//! `rstp net help`.

use rstp::core::protocols::{BetaReceiver, BetaTransmitter};
use rstp::core::TimingParams;
use rstp::net::{
    run_sessions, Driven, DriverConfig, ProtocolId, Session, TickClock, UdpTransport, WireCodec,
};
use rstp::sim::harness::random_input;
use std::time::Duration;

fn main() {
    let params = TimingParams::from_ticks(1, 2, 8).expect("valid parameters");
    let k = 4u64;
    let n = 256;
    let tick = Duration::from_micros(500);
    let input = random_input(n, 42);

    println!(
        "beta(k={k}) over UDP loopback: {n} bits, {params}, tick = {:?}",
        tick
    );

    // Two cross-wired sockets on 127.0.0.1, one per endpoint.
    let codec = WireCodec::new(ProtocolId::Beta, k).expect("k fits the wire");
    let (t_end, r_end) = UdpTransport::loopback_pair(codec).expect("loopback sockets");
    println!(
        "transmitter {} <-> receiver {}",
        t_end.local_addr().expect("addr"),
        r_end.local_addr().expect("addr")
    );

    // A shared epoch a moment in the future, so both driver loops take
    // their first step at tick 0 like the simulator's processes.
    let clock = TickClock::start_after(Duration::from_millis(5), tick);
    let cfg = DriverConfig::new(params, tick).with_max_wall(Duration::from_secs(30));

    // Each end is one session of its own driver loop; a loop could as
    // well pace both (or hundreds) on one thread.
    let automaton = BetaTransmitter::new(params, k, &input).expect("beta transmitter");
    let transmitter = Session::transmitter(Box::new(Driven::new(automaton)), t_end);
    let automaton = BetaReceiver::new(params, k, n).expect("beta receiver");
    let receiver = Session::receiver(Box::new(Driven::new(automaton)), r_end, n);
    let run = move |session| run_sessions(vec![session], clock, &cfg).expect("driver run");
    let transmitter = std::thread::spawn(move || run(transmitter));
    let receiver = std::thread::spawn(move || run(receiver));

    let t_report = transmitter.join().expect("join").remove(0);
    let r_report = receiver.join().expect("join").remove(0);

    assert_eq!(
        r_report.written, input,
        "received sequence differs from input"
    );
    println!(
        "transmitter: {} steps, {} data packets, {} deadline misses, wall {:.3} s",
        t_report.steps,
        t_report.data_sends,
        t_report.deadline_misses,
        t_report.wall_elapsed.as_secs_f64()
    );
    println!(
        "receiver   : {} steps, {} packets received, latency {}",
        r_report.steps, r_report.recvs, r_report.latency
    );
    if let Some(effort) = t_report.effort_ticks(n, tick) {
        println!("wall effort: {effort:.3} ticks/message over a real socket");
    }
    println!("delivered  : Y = X (exact)");
}
