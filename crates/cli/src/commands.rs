//! The CLI subcommands. Each returns its output as a `String` so the
//! commands are unit-testable without capturing stdout.

use crate::args::{parse_bits, ArgError, Args};
use core::fmt::Write as _;
use rstp_core::{bounds, TimingParams};
use rstp_sim::adversary::{DeliveryPolicy, StepPolicy};
use rstp_sim::distinguish;
use rstp_sim::harness::{random_input, run_configured, worst_case_effort, ProtocolKind, RunConfig};

/// Top-level usage text.
pub const USAGE: &str = "\
rstp — Real-Time Sequence Transmission Problem (Wang & Zuck 1991)

USAGE: rstp <command> [--flag value ...]

COMMANDS:
  bounds        print effort bounds        --c1 --c2 --d --k
  run           simulate one protocol run  --protocol --k [--window W] --c1 --c2 --d
                                           (--input BITS | --n N --seed S)
                                           --step --delivery
  effort        worst-case effort sweep    --protocol --k --c1 --c2 --d --n --seed
  trace         render a timed trace       (same flags as run, plus
                                           --format events|timeline|csv)
  distinguish   exhaustive Lemma 5.1 check --protocol --k --c1 --c2 --d --n
  curve         effort vs alphabet size    --c1 --c2 --d --kmax
  plan          smallest k for a latency   --c1 --c2 --d --target --kmax
  dist          effort distribution        --protocol --k --c1 --c2 --d --n --runs
  net           real-time wire transfers   net <send|recv|bench> (run `rstp net help`)
  serve         sharded multi-session UDP server  --local --sessions --protocol --n
                                           --shards --queue-cap --tick-us
  swarm         M-client loopback load test --sessions --protocol --k --n --seed
                                           --transport mem|udp --shards
                                           --queue-cap --tick-us --oracle-sample
  replay        postmortem replay of a --record dir  --dir DIR [--session ID]
                                           [--input BITS] [--shrink FILE]
                                           [--budget N]
  check         coverage-guided schedule fuzzer  --protocol --k --seed --iters
                                           --c1 --c2 --d --max-input --differential
                                           --corpus DIR --minimize FILE [--out FILE]
                                           [--json FILE]
  analyze       invariant lints + call-graph passes  [--root DIR]
                                           [--json FILE] [--emit-lock-order FILE]
                                           [--emit-call-graph FILE]

PROTOCOLS: alpha | beta | gamma | altbit | stenning | framed | pipelined
           | stab-stenning | stab-beta
STEP:      fast | slow | alternate | random
DELIVERY:  eager | max | reverse | batch | random
";

/// Serializes the real-time swarm tests across this binary: several
/// wall-clock-paced swarms thread-racing on an oversubscribed test
/// runner can starve each other's clients past their transfer windows.
#[cfg(test)]
pub(crate) fn swarm_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub(crate) fn timing(args: &Args) -> Result<TimingParams, ArgError> {
    let c1 = args.get_u64("c1", 1)?;
    let c2 = args.get_u64("c2", 2)?;
    let d = args.get_u64("d", 8)?;
    TimingParams::from_ticks(c1, c2, d).map_err(|e| ArgError(e.to_string()))
}

pub(crate) fn protocol(args: &Args) -> Result<ProtocolKind, ArgError> {
    let k = args.get_u64("k", 4)?;
    let window = args.get_u64("window", 2)?.max(1);
    match args.get("protocol").unwrap_or("beta") {
        "alpha" => Ok(ProtocolKind::Alpha),
        "beta" => Ok(ProtocolKind::Beta { k }),
        "gamma" => Ok(ProtocolKind::Gamma { k }),
        "altbit" => Ok(ProtocolKind::AltBit {
            timeout_steps: None,
        }),
        "framed" => Ok(ProtocolKind::Framed { k }),
        "stenning" => Ok(ProtocolKind::Stenning {
            timeout_steps: None,
        }),
        "pipelined" => Ok(ProtocolKind::Pipelined { k, window }),
        "stab-stenning" => Ok(ProtocolKind::StabStenning {
            timeout_steps: None,
        }),
        "stab-beta" => Ok(ProtocolKind::StabBeta { k }),
        other => Err(ArgError(format!(
            "unknown protocol {other:?} (alpha|beta|gamma|altbit|stenning|framed|pipelined|stab-stenning|stab-beta)"
        ))),
    }
}

fn step_policy(args: &Args) -> Result<StepPolicy, ArgError> {
    let seed = args.get_u64("seed", 0)?;
    match args.get("step").unwrap_or("slow") {
        "fast" => Ok(StepPolicy::AllFast),
        "slow" => Ok(StepPolicy::AllSlow),
        "alternate" => Ok(StepPolicy::Alternate),
        "random" => Ok(StepPolicy::Random { seed }),
        other => Err(ArgError(format!(
            "unknown step policy {other:?} (fast|slow|alternate|random)"
        ))),
    }
}

fn delivery_policy(
    args: &Args,
    params: TimingParams,
    kind: ProtocolKind,
) -> Result<DeliveryPolicy, ArgError> {
    let seed = args.get_u64("seed", 0)?;
    match args.get("delivery").unwrap_or("max") {
        "eager" => Ok(DeliveryPolicy::Eager),
        "max" => Ok(DeliveryPolicy::MaxDelay),
        "reverse" => Ok(DeliveryPolicy::ReverseBurst {
            burst: kind.burst_size(params),
        }),
        "batch" => Ok(DeliveryPolicy::IntervalBatch),
        "random" => Ok(DeliveryPolicy::Random { seed }),
        other => Err(ArgError(format!(
            "unknown delivery policy {other:?} (eager|max|reverse|batch|random)"
        ))),
    }
}

pub(crate) fn input_of(args: &Args) -> Result<Vec<bool>, ArgError> {
    if let Some(bits) = args.get("input") {
        parse_bits(bits)
    } else {
        let n = args.get_usize("n", 64)?;
        let seed = args.get_u64("seed", 0)?;
        Ok(random_input(n, seed))
    }
}

/// `rstp bounds`
pub fn cmd_bounds(args: &Args) -> Result<String, ArgError> {
    args.ensure_known(&["c1", "c2", "d", "k"])?;
    let p = timing(args)?;
    let k = args.get_u64("k", 4)?;
    let mut out = String::new();
    let _ = writeln!(out, "parameters: {p}, k = {k}");
    let _ = writeln!(out, "effort bounds (ticks per message):");
    let _ = writeln!(
        out,
        "  alpha (Fig 1)            = {:.3}",
        bounds::alpha_effort(p)
    );
    let _ = writeln!(
        out,
        "  passive lower (Thm 5.3)  = {:.3}",
        bounds::passive_lower(p, k)
    );
    let _ = writeln!(
        out,
        "  beta(k) upper (§6.1)     = {:.3}",
        bounds::passive_upper(p, k)
    );
    let _ = writeln!(
        out,
        "  active lower (Thm 5.6)   = {:.3}",
        bounds::active_lower(p, k)
    );
    let _ = writeln!(
        out,
        "  gamma(k) upper (§6.2)    = {:.3}",
        bounds::active_upper(p, k)
    );
    let winner = match bounds::compare_upper_bounds(p, k) {
        bounds::Family::Passive => "beta (r-passive)",
        bounds::Family::Active => "gamma (active)",
    };
    let _ = writeln!(out, "  better guarantee         : {winner}");
    Ok(out)
}

/// `rstp run` / `rstp trace`
pub fn cmd_run(args: &Args, render_trace: bool) -> Result<String, ArgError> {
    args.ensure_known(&[
        "c1", "c2", "d", "k", "window", "protocol", "input", "n", "seed", "step", "delivery",
        "format",
    ])?;
    let params = timing(args)?;
    let kind = protocol(args)?;
    let input = input_of(args)?;
    let cfg = RunConfig {
        kind,
        params,
        step: step_policy(args)?,
        delivery: delivery_policy(args, params, kind)?,
        ..RunConfig::default()
    };
    let out = run_configured(&cfg, &input).map_err(|e| ArgError(e.to_string()))?;
    let mut s = String::new();
    if render_trace {
        match args.get("format").unwrap_or("events") {
            "events" => s.push_str(&out.trace.render()),
            "timeline" => s.push_str(&rstp_sim::render_timeline(&out.trace, 40)),
            "csv" => s.push_str(&out.trace.to_csv()),
            other => {
                return Err(ArgError(format!(
                    "unknown format {other:?} (events|timeline|csv)"
                )))
            }
        }
    }
    let _ = writeln!(s, "protocol : {}", kind.name());
    let _ = writeln!(s, "params   : {params}");
    let _ = writeln!(s, "input    : {} bits", input.len());
    let _ = writeln!(s, "outcome  : {:?}", out.outcome);
    let _ = writeln!(
        s,
        "sends    : {} data + {} acks, {} writes",
        out.metrics.data_sends, out.metrics.ack_sends, out.metrics.writes
    );
    if let Some(e) = out.metrics.effort(input.len()) {
        let _ = writeln!(s, "effort   : {e:.3} ticks/message");
    }
    if let Some(e) = out.metrics.learn_effort(input.len()) {
        let _ = writeln!(s, "learn    : {e:.3} ticks/message");
    }
    let _ = writeln!(s, "checker  : {}", out.report);
    let _ = writeln!(
        s,
        "delivered: {}",
        if out.trace.written() == input {
            "Y = X (exact)"
        } else {
            "MISMATCH"
        }
    );
    Ok(s)
}

/// `rstp effort`
pub fn cmd_effort(args: &Args) -> Result<String, ArgError> {
    args.ensure_known(&["c1", "c2", "d", "k", "window", "protocol", "n", "seed"])?;
    let params = timing(args)?;
    let kind = protocol(args)?;
    let n = args.get_usize("n", 256)?;
    let seed = args.get_u64("seed", 0)?;
    let input = random_input(n, seed);
    let sample =
        worst_case_effort(kind, params, &input, seed).map_err(|e| ArgError(e.to_string()))?;
    let mut s = String::new();
    let _ = writeln!(s, "protocol    : {}", kind.name());
    let _ = writeln!(s, "params      : {params}, n = {n}");
    let _ = writeln!(s, "worst effort: {:.3} ticks/message", sample.effort);
    let _ = writeln!(s, "worst learn : {:.3} ticks/message", sample.learn_effort);
    let _ = writeln!(
        s,
        "achieved by : {:?} steps, {:?} delivery",
        sample.step, sample.delivery
    );
    let k = args.get_u64("k", 4)?;
    match kind {
        ProtocolKind::Beta { .. } | ProtocolKind::Framed { .. } => {
            let _ = writeln!(
                s,
                "bounds      : [{:.3}, {:.3}] (Thm 5.3 / §6.1, finite-n {:.3})",
                bounds::passive_lower(params, k),
                bounds::passive_upper(params, k),
                bounds::passive_upper_finite(params, k, n)
            );
        }
        ProtocolKind::Gamma { .. } => {
            let _ = writeln!(
                s,
                "bounds      : [{:.3}, {:.3}] (Thm 5.6 / §6.2, finite-n {:.3})",
                bounds::active_lower(params, k),
                bounds::active_upper(params, k),
                bounds::active_upper_finite(params, k, n)
            );
        }
        ProtocolKind::Alpha => {
            let _ = writeln!(s, "closed form : {:.3}", bounds::alpha_effort(params));
        }
        _ => {}
    }
    Ok(s)
}

/// `rstp distinguish`
pub fn cmd_distinguish(args: &Args) -> Result<String, ArgError> {
    args.ensure_known(&["c1", "c2", "d", "k", "protocol", "n"])?;
    let params = timing(args)?;
    let n = args.get_usize("n", 8)?;
    if n > 20 {
        return Err(ArgError("--n too large: enumerates 2^n inputs".into()));
    }
    let k = args.get_u64("k", 2)?;
    let result = match args.get("protocol").unwrap_or("beta") {
        "alpha" => distinguish::check_alpha(params, n),
        "beta" => distinguish::check_beta(params, k, n).map_err(|e| ArgError(e.to_string()))?,
        other => {
            return Err(ArgError(format!(
                "distinguish supports alpha|beta, got {other:?}"
            )))
        }
    };
    let mut s = String::new();
    let _ = writeln!(s, "params: {params}, k = {k}");
    let _ = writeln!(s, "{result}");
    let _ = writeln!(
        s,
        "capacity inequality (Thm 5.3 counting step): {}",
        if result.capacity_respected() {
            "holds"
        } else {
            "VIOLATED"
        }
    );
    Ok(s)
}

/// `rstp curve`
pub fn cmd_curve(args: &Args) -> Result<String, ArgError> {
    args.ensure_known(&["c1", "c2", "d", "kmax"])?;
    let params = timing(args)?;
    let kmax = args.get_u64("kmax", 32)?.max(2);
    let ks: Vec<u64> = (2..=kmax).collect();
    let rows = bounds::effort_curve(params, &ks);
    let mut s = String::new();
    let _ = writeln!(s, "effort bounds vs k at {params}");
    let _ = writeln!(
        s,
        "{:>4} {:>14} {:>12} {:>14} {:>12}",
        "k", "passive lower", "beta upper", "active lower", "gamma upper"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:>4} {:>14.3} {:>12.3} {:>14.3} {:>12.3}",
            r.k, r.passive_lower, r.passive_upper, r.active_lower, r.active_upper
        );
    }
    Ok(s)
}

/// `rstp plan`
pub fn cmd_plan(args: &Args) -> Result<String, ArgError> {
    args.ensure_known(&["c1", "c2", "d", "target", "kmax"])?;
    let params = timing(args)?;
    let target: f64 = match args.get("target") {
        Some(v) => v
            .parse()
            .map_err(|_| ArgError(format!("--target expects a number, got {v:?}")))?,
        None => return Err(ArgError("--target <ticks/message> is required".into())),
    };
    let kmax = args.get_u64("kmax", 256)?;
    let mut s = String::new();
    let _ = writeln!(s, "params: {params}, target {target:.3} ticks/message");
    for (label, family) in [
        ("r-passive (beta)", bounds::Family::Passive),
        ("active (gamma) ", bounds::Family::Active),
    ] {
        match bounds::min_alphabet_for(params, family, target, kmax) {
            Some(k) => {
                let guarantee = match family {
                    bounds::Family::Passive => bounds::passive_upper(params, k),
                    bounds::Family::Active => bounds::active_upper(params, k),
                };
                let _ = writeln!(
                    s,
                    "  {label}: k = {k} suffices (guarantee {guarantee:.3}, floor {:.3})",
                    bounds::family_lower(params, family, k)
                );
            }
            None => {
                let _ = writeln!(
                    s,
                    "  {label}: unreachable even at k = {kmax} (floor {:.3})",
                    bounds::family_lower(params, family, kmax)
                );
            }
        }
    }
    Ok(s)
}

/// `rstp dist`
pub fn cmd_dist(args: &Args) -> Result<String, ArgError> {
    args.ensure_known(&["c1", "c2", "d", "k", "window", "protocol", "n", "runs"])?;
    let params = timing(args)?;
    let kind = protocol(args)?;
    let n = args.get_usize("n", 200)?;
    let runs = args.get_u64("runs", 24)?.max(1);
    let summary = rstp_sim::stats::effort_distribution(kind, params, n, 0..runs)
        .map_err(|e| ArgError(e.to_string()))?;
    let mut s = String::new();
    let _ = writeln!(s, "protocol : {}", kind.name());
    let _ = writeln!(s, "params   : {params}, n = {n}, {runs} random schedules");
    let _ = writeln!(s, "effort   : {summary}");
    Ok(s)
}

/// Dispatches a parsed command line.
///
/// # Errors
///
/// [`ArgError`] with a user-facing message.
pub fn dispatch(args: &Args) -> Result<String, ArgError> {
    match args.command.as_deref() {
        Some("bounds") => cmd_bounds(args),
        Some("run") => cmd_run(args, false),
        Some("trace") => cmd_run(args, true),
        Some("effort") => cmd_effort(args),
        Some("distinguish") => cmd_distinguish(args),
        Some("curve") => cmd_curve(args),
        Some("plan") => cmd_plan(args),
        Some("dist") => cmd_dist(args),
        Some("net") => crate::net::cmd_net(args),
        Some("serve") => crate::serve::cmd_serve(args),
        Some("swarm") => crate::serve::cmd_swarm(args),
        Some("replay") => crate::replay::cmd_replay(args),
        Some("check") => crate::check::cmd_check(args),
        Some("analyze") => crate::analyze::cmd_analyze(args),
        Some("help") | None => Ok(USAGE.to_string()),
        Some(other) => Err(ArgError(format!(
            "unknown command {other:?}; run `rstp help`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(argv: &[&str]) -> Result<String, ArgError> {
        dispatch(&Args::parse(argv.iter().copied()).unwrap())
    }

    #[test]
    fn help_and_unknown() {
        assert!(run(&["help"]).unwrap().contains("USAGE"));
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&["bogus"]).is_err());
    }

    #[test]
    fn bounds_command() {
        let out = run(&["bounds", "--c1", "1", "--c2", "2", "--d", "8", "--k", "4"]).unwrap();
        assert!(out.contains("Thm 5.3"));
        assert!(out.contains("better guarantee"));
    }

    #[test]
    fn run_command_with_explicit_input() {
        let out = run(&[
            "run",
            "--protocol",
            "beta",
            "--k",
            "3",
            "--c1",
            "1",
            "--c2",
            "2",
            "--d",
            "6",
            "--input",
            "10110",
        ])
        .unwrap();
        assert!(out.contains("Y = X (exact)"), "{out}");
        assert!(out.contains("trace OK"));
    }

    #[test]
    fn trace_command_renders_events() {
        let out = run(&[
            "trace",
            "--protocol",
            "alpha",
            "--c1",
            "2",
            "--c2",
            "3",
            "--d",
            "6",
            "--input",
            "10",
        ])
        .unwrap();
        assert!(out.contains("send(data(1))"), "{out}");
        assert!(out.contains("write(0)"));
    }

    #[test]
    fn trace_command_formats() {
        let base = [
            "trace",
            "--protocol",
            "alpha",
            "--c1",
            "2",
            "--c2",
            "3",
            "--d",
            "6",
            "--input",
            "10",
            "--format",
        ];
        let timeline = run(&[&base[..], &["timeline"]].concat()).unwrap();
        assert!(timeline.contains("chan |"), "{timeline}");
        let csv = run(&[&base[..], &["csv"]].concat()).unwrap();
        assert!(csv.contains("time,owner,action"), "{csv}");
        assert!(run(&[&base[..], &["bogus"]].concat()).is_err());
    }

    #[test]
    fn effort_command_reports_bounds() {
        let out = run(&[
            "effort",
            "--protocol",
            "gamma",
            "--k",
            "4",
            "--n",
            "60",
            "--seed",
            "3",
        ])
        .unwrap();
        assert!(out.contains("worst effort"));
        assert!(out.contains("Thm 5.6"));
    }

    #[test]
    fn distinguish_command() {
        let out = run(&[
            "distinguish",
            "--protocol",
            "beta",
            "--k",
            "2",
            "--n",
            "6",
            "--c1",
            "1",
            "--c2",
            "1",
            "--d",
            "3",
        ])
        .unwrap();
        assert!(out.contains("injective"), "{out}");
        assert!(out.contains("holds"));
        assert!(run(&["distinguish", "--n", "21"]).is_err());
        assert!(run(&["distinguish", "--protocol", "gamma"]).is_err());
    }

    #[test]
    fn curve_command() {
        let out = run(&["curve", "--kmax", "6"]).unwrap();
        assert_eq!(out.lines().count(), 2 + 5); // header x2 + k = 2..6
    }

    #[test]
    fn plan_command() {
        let out = run(&[
            "plan", "--c1", "1", "--c2", "2", "--d", "8", "--target", "5.0",
        ])
        .unwrap();
        assert!(out.contains("suffices"), "{out}");
        // Impossible target.
        let out = run(&[
            "plan", "--c1", "1", "--c2", "2", "--d", "8", "--target", "0.001", "--kmax", "8",
        ])
        .unwrap();
        assert!(out.contains("unreachable"), "{out}");
        assert!(run(&["plan"]).is_err()); // --target required
        assert!(run(&["plan", "--target", "x"]).is_err());
    }

    #[test]
    fn dist_command() {
        let out = run(&[
            "dist",
            "--protocol",
            "beta",
            "--k",
            "4",
            "--n",
            "40",
            "--runs",
            "4",
        ])
        .unwrap();
        assert!(out.contains("4 random schedules"), "{out}");
        assert!(out.contains("mean="));
    }

    #[test]
    fn unknown_flag_rejected_per_command() {
        assert!(run(&["bounds", "--nope", "1"]).is_err());
        assert!(run(&["run", "--protocol", "unknown"]).is_err());
        assert!(run(&["run", "--step", "unknown"]).is_err());
        assert!(run(&["run", "--delivery", "unknown"]).is_err());
        assert!(run(&["run", "--input", "012"]).is_err());
    }
}
