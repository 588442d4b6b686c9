//! The `rstp serve` / `rstp swarm` pair: the sharded multi-session
//! server and its M-client loopback load harness.
//!
//! ```text
//! rstp swarm --sessions 256 --protocol beta --k 4          # mem loopback
//! rstp swarm --sessions 64 --transport udp --shards 4      # real datagrams
//! rstp serve --local 127.0.0.1:9000 --sessions 8 --n 64    # standalone server
//! rstp swarm --sessions 64 --shards 2 --record /tmp/rec \
//!            --faults 'kill=1@50;restart=1@120'            # crash/recovery drill
//! ```
//!
//! `swarm` runs the whole experiment in one process — the server plus M
//! client transmitter sessions on one client thread per shard — then
//! verifies every receiver output `Y`
//! against its session's input `X` and cross-checks a sample against the
//! simulator oracle. A failed swarm (any mismatch, incomplete session,
//! rejection, or timed-out client) surfaces through the exit code.
//!
//! `serve` runs just the server half over UDP: it admits `--sessions`
//! session ids `1..=M` of one protocol and waits for clients (for
//! example an [`rstp_net::UdpTransport`] bound to its session id) to
//! drive them.

use crate::args::{ArgError, Args};
use crate::commands::{protocol, timing};
use crate::net::{pace, tick_of};
use core::fmt::Write as _;
use rstp_core::SessionId;
use rstp_net::TickClock;
use rstp_serve::{
    run_server, run_swarm, FaultPlan, ServeConfig, ServeReport, SessionSpec, SwarmConfig,
    SwarmTransport, UdpServerTransport,
};
use std::time::Duration;

const SWARM_FLAGS: &[&str] = &[
    "sessions",
    "protocol",
    "k",
    "window",
    "c1",
    "c2",
    "d",
    "n",
    "seed",
    "tick-us",
    "pace",
    "shards",
    "queue-cap",
    "transport",
    "max-wall-s",
    "oracle-sample",
    "record",
    "faults",
];

const SERVE_FLAGS: &[&str] = &[
    "sessions",
    "protocol",
    "k",
    "window",
    "c1",
    "c2",
    "d",
    "n",
    "local",
    "tick-us",
    "pace",
    "shards",
    "queue-cap",
    "max-wall-s",
    "record",
    "faults",
];

fn transport_of(args: &Args) -> Result<SwarmTransport, ArgError> {
    match args.get("transport").unwrap_or("mem") {
        "mem" => Ok(SwarmTransport::Mem),
        "udp" => Ok(SwarmTransport::Udp),
        other => Err(ArgError(format!("unknown transport {other:?} (mem|udp)"))),
    }
}

/// Applies the shared server-shape flags on top of `serve`.
fn configure(args: &Args, mut serve: ServeConfig) -> Result<ServeConfig, ArgError> {
    let shards = serve.shards;
    serve = serve
        .with_shards(args.get_usize("shards", shards)?)
        .with_pace(pace(args)?)
        .with_max_wall(Duration::from_secs(args.get_u64("max-wall-s", 60)?));
    if args.get("queue-cap").is_some() {
        serve = serve.with_queue_cap(args.get_usize("queue-cap", 0)?);
    }
    if let Some(dir) = args.get("record") {
        serve = serve.with_record(dir);
    }
    if let Some(plan) = args.get("faults") {
        let plan = FaultPlan::parse(plan).map_err(|e| ArgError(format!("--faults: {e}")))?;
        serve = serve.with_faults(plan);
    }
    Ok(serve)
}

/// `rstp swarm`
pub fn cmd_swarm(args: &Args) -> Result<String, ArgError> {
    args.ensure_known(SWARM_FLAGS)?;
    let params = timing(args)?;
    let kind = protocol(args)?;
    let sessions = args.get_usize("sessions", 64)?.max(1);
    let n = args.get_usize("n", 32)?;
    let transport = transport_of(args)?;
    // Real datagrams need real time: at a 200 µs tick a large swarm
    // offers more datagrams per millisecond than a default kernel
    // receive buffer holds, so the UDP default is a coarser clock.
    let tick = tick_of(
        args,
        match transport {
            SwarmTransport::Mem => 200,
            SwarmTransport::Udp => 2000,
        },
    )?;

    let mut config = SwarmConfig::new(kind, n, sessions, params, tick);
    config.seed = args.get_u64("seed", 1)?;
    config.transport = transport;
    config.oracle_sample = args.get_usize("oracle-sample", 2)?;
    config.serve = configure(args, config.serve)?;
    if config.serve.record_dir.is_some() {
        // Stamp the input seed so `rstp replay` can regenerate each
        // session's X without the original command line.
        config.serve.record_seed = Some(config.seed);
    }

    let report = run_swarm(&config).map_err(|e| ArgError(e.to_string()))?;

    let mut s = String::new();
    let _ = writeln!(s, "protocol  : {}", kind.name());
    let _ = writeln!(
        s,
        "params    : {params}, n = {n}, tick = {} us, {} shards over {}",
        tick.as_micros(),
        config.serve.shards,
        match config.transport {
            SwarmTransport::Mem => "the loopback hub",
            SwarmTransport::Udp => "udp 127.0.0.1",
        }
    );
    s.push_str(&report.summary());
    if report.all_good() {
        let _ = writeln!(s, "verdict   : every session delivered Y = X exactly");
        Ok(s)
    } else {
        // A nonzero exit code so CI smoke runs cannot miss a violation.
        Err(ArgError(format!("{s}verdict   : SWARM FAILED")))
    }
}

fn render_serve(report: &ServeReport) -> String {
    let mut s = String::new();
    let lat = report.latency();
    let q = |p: f64| {
        lat.quantile_interp_micros(p)
            .map_or_else(|| "-".into(), |v| format!("{v:.0}µs"))
    };
    let _ = writeln!(
        s,
        "sessions  : {} admitted, {} completed, {} rejected",
        report.admitted(),
        report.completed(),
        report.rejected_sessions
    );
    let _ = writeln!(
        s,
        "wall      : {:.3}s, {:.0} msg/s aggregate",
        report.wall_elapsed.as_secs_f64(),
        report.throughput_msgs_per_sec()
    );
    let _ = writeln!(
        s,
        "latency   : p50 {} p99 {} ({} samples; includes client clock offset)",
        q(0.50),
        q(0.99),
        lat.count()
    );
    let _ = writeln!(
        s,
        "deadlines : {} misses, {} violations; drops {} overflow, {} orphans, {} decode errors",
        report.deadline_misses(),
        report.timing_violations(),
        report.ingress_overflow(),
        report.orphan_frames,
        report.decode_errors
    );
    for shard in &report.shards {
        for sess in &shard.sessions {
            let _ = writeln!(
                s,
                "  session {:>4} (shard {}): {}, {}/{} messages, {} steps, {}",
                sess.id,
                shard.shard,
                sess.protocol,
                sess.written.len(),
                sess.n,
                sess.steps,
                if sess.completed {
                    "completed"
                } else {
                    "UNFINISHED"
                }
            );
        }
    }
    s
}

/// `rstp serve`
pub fn cmd_serve(args: &Args) -> Result<String, ArgError> {
    args.ensure_known(SERVE_FLAGS)?;
    let params = timing(args)?;
    let kind = protocol(args)?;
    let sessions = args.get_usize("sessions", 16)?.max(1);
    let n = args.get_usize("n", 64)?;
    let tick = tick_of(args, 1000)?;
    let local = args.get("local").unwrap_or("127.0.0.1:9000");

    let serve = configure(
        args,
        ServeConfig::new(params, tick).with_max_sessions(sessions),
    )?;
    let mut transport = UdpServerTransport::bind(local).map_err(|e| ArgError(e.to_string()))?;
    let addr = transport
        .local_addr()
        .map_err(|e| ArgError(e.to_string()))?;
    // Announce before blocking so the operator can start clients.
    eprintln!(
        "rstp serve: listening on {addr}, admitting sessions 1..={sessions} \
         ({}, n = {n}, tick = {} us)",
        kind.name(),
        tick.as_micros()
    );

    let specs: Vec<SessionSpec> = (1..=sessions)
        .map(|i| SessionSpec {
            id: SessionId::new(u32::try_from(i).unwrap_or(u32::MAX)),
            kind,
            n,
        })
        .collect();
    let clock = TickClock::start(tick);
    let report =
        run_server(&mut transport, clock, &specs, &serve).map_err(|e| ArgError(e.to_string()))?;

    let mut s = String::new();
    let _ = writeln!(s, "protocol  : {}", kind.name());
    let _ = writeln!(
        s,
        "params    : {params}, n = {n}, tick = {} us, {} shards on {addr}",
        tick.as_micros(),
        serve.shards
    );
    s.push_str(&render_serve(&report));
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstp_core::TimingParams;
    use rstp_net::{codec_for, run_transmitter, DriverConfig, UdpTransport};
    use rstp_sim::harness::random_input;
    use rstp_sim::ProtocolKind;
    use std::thread;

    fn run(argv: &[&str]) -> Result<String, ArgError> {
        crate::commands::dispatch(&Args::parse(argv.iter().copied()).expect("parse"))
    }

    #[test]
    fn swarm_over_the_loopback_hub_delivers_every_session() {
        let _gate = crate::commands::swarm_gate();
        let out = run(&[
            "swarm",
            "--sessions",
            "6",
            "--protocol",
            "beta",
            "--k",
            "4",
            "--n",
            "8",
            "--tick-us",
            "200",
            "--shards",
            "2",
        ])
        .expect("swarm");
        assert!(out.contains("6 planned, 6 admitted, 6 completed"), "{out}");
        assert!(out.contains("Y = X exactly"), "{out}");
        assert!(out.contains("oracle    :"), "{out}");
    }

    #[test]
    fn swarm_of_64_active_gamma_sessions_delivers_every_session() {
        // 64 ack-clocked γ(4) sessions on the mem hub: every γ ack must
        // reach its transmitter (the hub is lossless), and a transmitter
        // waiting for acks is not done.
        let _gate = crate::commands::swarm_gate();
        let out = run(&[
            "swarm",
            "--sessions",
            "64",
            "--protocol",
            "gamma",
            "--k",
            "4",
            "--n",
            "32",
        ])
        .expect("swarm");
        assert!(
            out.contains("64 planned, 64 admitted, 64 completed"),
            "{out}"
        );
        assert!(out.contains("Y = X exactly"), "{out}");
    }

    #[test]
    fn swarm_runs_the_stabilizing_family() {
        let _gate = crate::commands::swarm_gate();
        let out = run(&[
            "swarm",
            "--sessions",
            "4",
            "--protocol",
            "stab-stenning",
            "--n",
            "8",
            "--tick-us",
            "200",
        ])
        .expect("swarm");
        assert!(out.contains("4 planned, 4 admitted, 4 completed"), "{out}");
        assert!(out.contains("Y = X exactly"), "{out}");
    }

    #[test]
    fn swarm_rejects_bad_flags() {
        assert!(run(&["swarm", "--transport", "carrier-pigeon"]).is_err());
        assert!(run(&["swarm", "--pace", "warp"]).is_err());
        assert!(run(&["swarm", "--tick-us", "0"]).is_err());
        assert!(run(&["swarm", "--bogus", "1"]).is_err());
        assert!(run(&["serve", "--bogus", "1"]).is_err());
        assert!(run(&["serve", "--transport", "udp"]).is_err()); // serve is udp-only
        assert!(run(&["swarm", "--batch", "32"]).is_err()); // B is a constant
        assert!(run(&["serve", "--batch", "32"]).is_err());
        let err = run(&["swarm", "--faults", "explode=all"]).expect_err("bad fault grammar");
        assert!(err.to_string().contains("--faults"), "{err}");
    }

    /// The crash drill end to end from the command line: a shard is
    /// killed mid-transfer and restarted from its flight recording, and
    /// the verdict still reads Y = X with the fault line in the summary.
    #[test]
    fn swarm_with_kill_restart_faults_recovers_from_the_recording() {
        let _gate = crate::commands::swarm_gate();
        let dir = std::env::temp_dir().join(format!("rstp-cli-crash-{}", std::process::id()));
        let dir_s = dir.to_str().expect("utf8");
        let out = run(&[
            "swarm",
            "--sessions",
            "8",
            "--protocol",
            "stenning",
            "--n",
            "8",
            "--c1",
            "1",
            "--c2",
            "2",
            "--d",
            "4",
            "--tick-us",
            "200",
            "--shards",
            "2",
            "--max-wall-s",
            "30",
            "--record",
            dir_s,
            "--faults",
            "kill=1@20;restart=1@60",
        ])
        .expect("crash drill");
        assert!(out.contains("8 planned, 8 admitted, 8 completed"), "{out}");
        assert!(out.contains("Y = X exactly"), "{out}");
        assert!(out.contains("faults    : 1 crashes, 1 restarts"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An injected shard panic must surface as a nonzero exit, not a
    /// clean verdict printed over a dead thread.
    #[test]
    fn swarm_with_injected_panic_exits_nonzero() {
        let _gate = crate::commands::swarm_gate();
        let err = run(&[
            "swarm",
            "--sessions",
            "4",
            "--protocol",
            "stenning",
            "--n",
            "8",
            "--tick-us",
            "200",
            "--max-wall-s",
            "5",
            "--faults",
            "panic=0@5",
        ])
        .expect_err("panicked shard must fail the command");
        assert!(err.to_string().contains("panicked"), "{err}");
    }

    #[test]
    fn serve_command_hosts_udp_clients() {
        let _gate = crate::commands::swarm_gate();
        let params = TimingParams::from_ticks(1, 2, 4).expect("valid");
        let kind = ProtocolKind::Beta { k: 4 };
        let server = thread::spawn(|| {
            run(&[
                "serve",
                "--local",
                "127.0.0.1:29501",
                "--sessions",
                "2",
                "--protocol",
                "beta",
                "--k",
                "4",
                "--n",
                "8",
                "--c1",
                "1",
                "--c2",
                "2",
                "--d",
                "4",
                "--tick-us",
                "500",
                "--max-wall-s",
                "30",
            ])
        });
        // Give the server a head start binding its socket.
        thread::sleep(Duration::from_millis(150));
        let addr: std::net::SocketAddr = "127.0.0.1:29501".parse().expect("addr");
        let clients: Vec<_> = (1..=2u32)
            .map(|id| {
                thread::spawn(move || {
                    let input = random_input(8, u64::from(id));
                    let mut end = UdpTransport::bind(
                        codec_for(kind)?,
                        SessionId::new(id),
                        ("127.0.0.1", 0),
                        addr,
                    )?;
                    let clock = TickClock::start(Duration::from_micros(500));
                    let cfg = DriverConfig::new(params, Duration::from_micros(500));
                    run_transmitter(kind, params, &input, &mut end, clock, &cfg)
                })
            })
            .collect();
        for client in clients {
            client.join().expect("join").expect("client");
        }
        let out = server.join().expect("join").expect("serve");
        assert!(out.contains("2 admitted, 2 completed"), "{out}");
        assert!(out.contains("8/8 messages"), "{out}");
        assert!(!out.contains("UNFINISHED"), "{out}");
    }
}
