//! The `rstp net` subcommands: run the protocol automata over real
//! transports in wall-clock time.
//!
//! * `net bench` — in-process transfer over a `MemTransport` pair, with
//!   the simulator run on the same input as the oracle and the paper's
//!   lower bound printed alongside the measured wall-clock effort.
//! * `net send` / `net recv` — one endpoint each over UDP, for
//!   two-terminal transfers (see `docs/NET.md` for a walkthrough).

use crate::args::{ArgError, Args};
use crate::commands::{input_of, protocol, timing};
use core::fmt::Write as _;
use rstp_core::{bounds, SessionId, TimingParams};
use rstp_net::{
    run_receiver, run_transfer_mem, ChannelConfig, DriverConfig, DriverReport, Pace, TickClock,
    TransferConfig, UdpTransport,
};
use rstp_sim::adversary::{DeliveryPolicy, StepPolicy};
use rstp_sim::harness::{random_input, run_configured, ProtocolKind, RunConfig};
use std::time::Duration;

/// Usage text of the `net` command family.
pub const NET_USAGE: &str = "\
rstp net — real-time transfers over actual transports

USAGE: rstp net <send|recv|bench> [--flag value ...]

  bench   in-process transfer + simulator oracle + paper bound
          --protocol --k [--window W] --c1 --c2 --d --n --seed
          --tick-us TICK --pace fast|slow --loss P --dup P
  send    transmit over UDP      --local ADDR --peer ADDR --tick-us TICK
          (--input BITS | --n N --seed S) + protocol/timing flags
  recv    receive over UDP       --local ADDR --peer ADDR --n N --tick-us TICK
          + protocol/timing flags (verifies against --seed/--input)

Defaults: send binds 127.0.0.1:9000 -> 127.0.0.1:9001, recv the reverse;
UDP tick 1000 us, bench tick 100 us. Start `recv` before `send`.
";

pub(crate) fn pace(args: &Args) -> Result<Pace, ArgError> {
    match args.get("pace").unwrap_or("slow") {
        "fast" => Ok(Pace::Fast),
        "slow" => Ok(Pace::Slow),
        other => Err(ArgError(format!("unknown pace {other:?} (fast|slow)"))),
    }
}

pub(crate) fn tick_of(args: &Args, default_us: u64) -> Result<Duration, ArgError> {
    let us = args.get_u64("tick-us", default_us)?;
    if us == 0 {
        return Err(ArgError("--tick-us must be positive".into()));
    }
    Ok(Duration::from_micros(us))
}

fn rate_of(args: &Args, name: &str) -> Result<f64, ArgError> {
    match args.get(name) {
        None => Ok(0.0),
        Some(v) => {
            let p: f64 = v
                .parse()
                .map_err(|_| ArgError(format!("--{name} expects a probability, got {v:?}")))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(ArgError(format!("--{name} must lie in [0, 1], got {p}")));
            }
            Ok(p)
        }
    }
}

/// The lower bound of the protocol's family at these parameters, with its
/// theorem label — `None` for the baseline protocols the paper does not
/// bound.
fn family_lower_bound(
    kind: ProtocolKind,
    params: TimingParams,
    k: u64,
) -> Option<(f64, &'static str)> {
    match kind {
        ProtocolKind::Beta { .. }
        | ProtocolKind::Framed { .. }
        | ProtocolKind::BetaWindow { .. } => Some((bounds::passive_lower(params, k), "Thm 5.3")),
        ProtocolKind::Gamma { .. } | ProtocolKind::Pipelined { .. } => {
            Some((bounds::active_lower(params, k), "Thm 5.6"))
        }
        ProtocolKind::Alpha => Some((bounds::alpha_effort(params), "Fig 1 closed form")),
        // The stabilizing variants trade effort for convergence; the
        // paper's lower bounds do not apply to their tagged alphabets.
        ProtocolKind::AltBit { .. }
        | ProtocolKind::Stenning { .. }
        | ProtocolKind::StabStenning { .. }
        | ProtocolKind::StabBeta { .. } => None,
    }
}

fn describe_report(s: &mut String, label: &str, r: &DriverReport, n: usize, tick: Duration) {
    let _ = writeln!(
        s,
        "{label}: {:?}, {} steps, {} data + {} acks sent, {} recvs, {} writes",
        r.outcome,
        r.steps,
        r.data_sends,
        r.ack_sends,
        r.recvs,
        r.written.len()
    );
    let _ = writeln!(
        s,
        "{label}: {} deadline misses, {} timing violations, wall {:.3} s",
        r.deadline_misses,
        r.timing_violations,
        r.wall_elapsed.as_secs_f64()
    );
    if r.latency.count() > 0 {
        let _ = writeln!(s, "{label}: packet latency {}", r.latency);
    }
    if let Some(e) = r.effort_ticks(n, tick) {
        let _ = writeln!(s, "{label}: wall effort {e:.3} ticks/message");
    }
}

/// `rstp net bench`
fn cmd_bench(args: &Args) -> Result<String, ArgError> {
    args.ensure_known(&[
        "protocol", "k", "window", "c1", "c2", "d", "n", "seed", "tick-us", "pace", "loss", "dup",
    ])?;
    let params = timing(args)?;
    let kind = protocol(args)?;
    let k = args.get_u64("k", 4)?;
    let n = args.get_usize("n", 4096)?;
    let seed = args.get_u64("seed", 0)?;
    let tick = tick_of(args, 100)?;
    let input = random_input(n, seed);
    let loss = rate_of(args, "loss")?;
    let dup = rate_of(args, "dup")?;

    let channel = ChannelConfig {
        loss,
        duplication: dup,
        ..ChannelConfig::reliable(params, tick, seed)
    };
    let config = TransferConfig::new(params, tick, seed)
        .with_channel(channel)
        .with_pace(pace(args)?);
    let transfer = run_transfer_mem(kind, &input, &config).map_err(|e| ArgError(e.to_string()))?;

    // The simulator is the oracle: same protocol, same input, the
    // worst-case deterministic adversary pair (slowest steps, slowest
    // reliable channel).
    let sim_cfg = RunConfig {
        kind,
        params,
        step: StepPolicy::AllSlow,
        delivery: DeliveryPolicy::MaxDelay,
        record_trace: false,
        ..RunConfig::default()
    };
    let sim = run_configured(&sim_cfg, &input).map_err(|e| ArgError(e.to_string()))?;

    let mut s = String::new();
    let _ = writeln!(s, "protocol   : {}", kind.name());
    let _ = writeln!(
        s,
        "params     : {params}, n = {n}, tick = {} us, channel loss {loss} dup {dup}",
        tick.as_micros()
    );
    describe_report(&mut s, "transmitter", &transfer.transmitter, n, tick);
    describe_report(&mut s, "receiver   ", &transfer.receiver, n, tick);
    let _ = writeln!(
        s,
        "delivered  : {}",
        if transfer.output() == input {
            "Y = X (exact)"
        } else {
            "MISMATCH"
        }
    );
    if let Some(wall_effort) = transfer.transmitter.effort_ticks(n, tick) {
        let _ = writeln!(s, "wall effort: {wall_effort:.3} ticks/message");
        if let Some(sim_effort) = sim.metrics.effort(n) {
            let _ = writeln!(
                s,
                "sim effort : {sim_effort:.3} ticks/message (slow steps, max delay)"
            );
        }
        if let Some((lower, label)) = family_lower_bound(kind, params, k) {
            let _ = writeln!(s, "lower bound: {lower:.3} ticks/message ({label})");
        }
    }
    Ok(s)
}

/// `rstp net send`
fn cmd_send(args: &Args) -> Result<String, ArgError> {
    args.ensure_known(&[
        "protocol",
        "k",
        "window",
        "c1",
        "c2",
        "d",
        "n",
        "seed",
        "input",
        "tick-us",
        "pace",
        "local",
        "peer",
        "max-wall-s",
    ])?;
    let params = timing(args)?;
    let kind = protocol(args)?;
    let tick = tick_of(args, 1000)?;
    let input = input_of(args)?;
    let local = args.get("local").unwrap_or("127.0.0.1:9000");
    let peer = args.get("peer").unwrap_or("127.0.0.1:9001");
    let max_wall = Duration::from_secs(args.get_u64("max-wall-s", 60)?);

    let codec = rstp_net::codec_for(kind).map_err(|e| ArgError(e.to_string()))?;
    let mut transport = UdpTransport::bind(codec, SessionId::new(0), local, peer)
        .map_err(|e| ArgError(e.to_string()))?;
    let clock = TickClock::start(tick);
    let cfg = DriverConfig::new(params, tick)
        .with_pace(pace(args)?)
        .with_max_wall(max_wall);
    let report = rstp_net::run_transmitter(kind, params, &input, &mut transport, clock, &cfg)
        .map_err(|e| ArgError(e.to_string()))?;

    let mut s = String::new();
    let _ = writeln!(s, "protocol   : {}", kind.name());
    let _ = writeln!(
        s,
        "endpoint   : {local} -> {peer}, {} bits, tick = {} us",
        input.len(),
        tick.as_micros()
    );
    describe_report(&mut s, "transmitter", &report, input.len(), tick);
    Ok(s)
}

/// `rstp net recv`
fn cmd_recv(args: &Args) -> Result<String, ArgError> {
    args.ensure_known(&[
        "protocol",
        "k",
        "window",
        "c1",
        "c2",
        "d",
        "n",
        "seed",
        "input",
        "tick-us",
        "pace",
        "local",
        "peer",
        "max-wall-s",
    ])?;
    let params = timing(args)?;
    let kind = protocol(args)?;
    let tick = tick_of(args, 1000)?;
    let expected = input_of(args)?;
    let local = args.get("local").unwrap_or("127.0.0.1:9001");
    let peer = args.get("peer").unwrap_or("127.0.0.1:9000");
    let max_wall = Duration::from_secs(args.get_u64("max-wall-s", 60)?);

    let codec = rstp_net::codec_for(kind).map_err(|e| ArgError(e.to_string()))?;
    let mut transport = UdpTransport::bind(codec, SessionId::new(0), local, peer)
        .map_err(|e| ArgError(e.to_string()))?;
    let clock = TickClock::start(tick);
    let cfg = DriverConfig::new(params, tick)
        .with_pace(pace(args)?)
        .with_max_wall(max_wall);
    let report = run_receiver(kind, params, expected.len(), &mut transport, clock, &cfg)
        .map_err(|e| ArgError(e.to_string()))?;

    let mut s = String::new();
    let _ = writeln!(s, "protocol   : {}", kind.name());
    let _ = writeln!(
        s,
        "endpoint   : {local} <- {peer}, expecting {} bits, tick = {} us",
        expected.len(),
        tick.as_micros()
    );
    describe_report(&mut s, "receiver", &report, expected.len(), tick);
    if report.latency.count() > 0 {
        let _ = writeln!(
            s,
            "note       : latency includes the clock offset between the two \
             processes (UDP endpoints do not share an epoch)"
        );
    }
    let rendered: String = report
        .written
        .iter()
        .map(|&b| if b { '1' } else { '0' })
        .collect();
    let _ = writeln!(s, "received   : {rendered}");
    let _ = writeln!(
        s,
        "verified   : {}",
        if report.written == expected {
            "Y = X (matches --input/--seed)"
        } else {
            "MISMATCH against --input/--seed"
        }
    );
    Ok(s)
}

/// Dispatches `rstp net <send|recv|bench>`.
///
/// # Errors
///
/// [`ArgError`] with a user-facing message.
pub fn cmd_net(args: &Args) -> Result<String, ArgError> {
    match args.positional.first().map(String::as_str) {
        Some("bench") => cmd_bench(args),
        Some("send") => cmd_send(args),
        Some("recv") => cmd_recv(args),
        Some("help") | None => Ok(NET_USAGE.to_string()),
        Some(other) => Err(ArgError(format!(
            "unknown net subcommand {other:?}; expected send, recv, or bench"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn run(argv: &[&str]) -> Result<String, ArgError> {
        cmd_net(&Args::parse(argv.iter().copied()).expect("parse"))
    }

    #[test]
    fn net_without_subcommand_prints_usage() {
        assert!(run(&["net"]).expect("usage").contains("USAGE: rstp net"));
        assert!(run(&["net", "help"]).expect("usage").contains("bench"));
        assert!(run(&["net", "bogus"]).is_err());
    }

    #[test]
    fn bench_small_beta_transfer() {
        let out = run(&[
            "net",
            "bench",
            "--protocol",
            "beta",
            "--k",
            "4",
            "--n",
            "32",
            "--tick-us",
            "200",
        ])
        .expect("bench");
        assert!(out.contains("Y = X (exact)"), "{out}");
        assert!(out.contains("wall effort"), "{out}");
        assert!(out.contains("sim effort"), "{out}");
        assert!(out.contains("Thm 5.3"), "{out}");
    }

    #[test]
    fn bench_rejects_bad_rates_and_pace() {
        assert!(run(&["net", "bench", "--loss", "1.5"]).is_err());
        assert!(run(&["net", "bench", "--dup", "x"]).is_err());
        assert!(run(&["net", "bench", "--pace", "warp"]).is_err());
        assert!(run(&["net", "bench", "--tick-us", "0"]).is_err());
        assert!(run(&["net", "bench", "--bogus", "1"]).is_err());
    }

    #[test]
    fn send_and_recv_pair_over_udp_loopback() {
        // Ephemeral-ish fixed ports; chosen high to avoid collisions.
        let recv = thread::spawn(|| {
            run(&[
                "net",
                "recv",
                "--protocol",
                "alpha",
                "--n",
                "8",
                "--seed",
                "3",
                "--local",
                "127.0.0.1:29401",
                "--peer",
                "127.0.0.1:29400",
                "--tick-us",
                "500",
                "--max-wall-s",
                "30",
            ])
        });
        // Give the receiver a head start binding its socket.
        thread::sleep(Duration::from_millis(100));
        let send = run(&[
            "net",
            "send",
            "--protocol",
            "alpha",
            "--n",
            "8",
            "--seed",
            "3",
            "--local",
            "127.0.0.1:29400",
            "--peer",
            "127.0.0.1:29401",
            "--tick-us",
            "500",
            "--max-wall-s",
            "30",
        ])
        .expect("send");
        let recv = recv.join().expect("join").expect("recv");
        assert!(send.contains("transmitter: Completed"), "{send}");
        assert!(recv.contains("Y = X"), "{recv}");
    }
}
