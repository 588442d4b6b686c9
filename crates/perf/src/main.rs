//! `rstp-perf` — the open-loop serve benchmark.
//!
//! ```text
//! rstp-perf run --workload W --seed S [--seconds N] [--trace 0|1|FILE] [--smoke]
//! rstp-perf calibrate [--runs N]
//! rstp-perf compare A B [--pairs N] [--seed S]
//! ```
//!
//! `run` prints every metric by name with its unit and ends with one
//! JSON result line. It exits 0 when every output was verified, 1 when
//! a gate failed (the result line says `"correct": false`), and 2 on a
//! usage or harness error (no result line).

#![forbid(unsafe_code)]

use rstp_net::TickClock;
use rstp_perf::bench::{
    attribution_line, context_lines, end_to_end, layer_table, metric_lines, overhead_line,
    per_layer, replay_layers, result_json, run_pass, RunSpec, GEN_SPAN_CAP, MAIN_SPAN_CAP,
};
use rstp_perf::campaign::{calibrate, compare};
use rstp_perf::json::Json;
use rstp_perf::procfs;
use rstp_perf::trace::SpanBuf;
use rstp_perf::workload::{Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Seconds of serving per run unless `--seconds` says otherwise (the
/// `run_seconds` of `BENCHMARK.json`, which its command passes).
/// Campaign runs use the default.
const DEFAULT_SECONDS: u64 = 20;
/// Where runs put scratch files and default trace files.
const SCRATCH: &str = "target/rstp-perf";
/// The calibration `calibrate` writes and traced runs compare against.
const BASELINE: &str = "crates/perf/baseline.json";

const USAGE: &str = "usage:
  rstp-perf run --workload W --seed S [--seconds N] [--trace 0|1|FILE] [--smoke]
  rstp-perf calibrate [--runs N]
  rstp-perf compare A B [--pairs N] [--seed S]";

/// Flag/value pairs after the subcommand, plus positionals.
struct Args {
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                args.positional.push(a.clone());
            } else if switches.contains(&a.as_str()) {
                args.flags.push((a.clone(), None));
            } else {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                args.flags.push((a.clone(), Some(v.clone())));
            }
        }
        Ok(args)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn number(&self, flag: &str, default: u64) -> Result<u64, String> {
        self.value(flag).map_or(Ok(default), |v| {
            v.parse().map_err(|e| format!("{flag} {v}: {e}"))
        })
    }

    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(f, _)| !known.contains(&f.as_str()))
        {
            Some((f, _)) => Err(format!("unknown flag {f}\n{USAGE}")),
            None => Ok(()),
        }
    }
}

fn cmd_run(args: &Args) -> Result<bool, String> {
    args.only(&["--workload", "--seed", "--seconds", "--trace", "--smoke"])?;
    let name = args.value("--workload").ok_or("run needs --workload")?;
    let mut workload = Workload::by_name(name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let seed = args
        .value("--seed")
        .ok_or("run needs --seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let smoke = args.has("--smoke");
    if smoke {
        workload = workload.smoke();
    }
    let trace: Option<PathBuf> = match args.value("--trace").unwrap_or("0") {
        "0" => None,
        "1" => Some(PathBuf::from(format!(
            "{SCRATCH}/trace-{name}-seed{seed}.jsonl"
        ))),
        path => Some(PathBuf::from(path)),
    };
    let spec = RunSpec {
        workload,
        seed,
        seconds: args.number("--seconds", DEFAULT_SECONDS)?,
        waves: smoke.then_some(2),
        scratch: PathBuf::from(SCRATCH),
        min_batch: Duration::from_millis(if smoke { 5 } else { 50 }),
    };

    let stopwatch = TickClock::start(Duration::from_micros(1));
    println!(
        "rstp-perf {name} seed {seed}: {} sessions x n={} per wave, {} waves, open loop, \
         in-process MemHub, 1 shard + 1 generator thread{}",
        workload.sessions,
        workload.n,
        spec.waves.unwrap_or_else(|| workload.waves(spec.seconds)),
        if trace.is_some() { ", traced" } else { "" },
    );
    let (main_cap, gen_cap) = if trace.is_some() {
        (MAIN_SPAN_CAP, GEN_SPAN_CAP)
    } else {
        (0, 0)
    };
    let mut spans = SpanBuf::new(stopwatch, 0, main_cap);
    let totals = run_pass(&spec, stopwatch, &mut spans, gen_cap)?;
    let e2e = end_to_end(&workload, &totals, procfs::peak_rss_kib()?);
    print!("{}", context_lines(&workload, &totals));
    println!("end to end, gated:");
    print!("{}", metric_lines(&e2e));

    let metrics = match &trace {
        None => e2e,
        Some(path) => {
            let costs = replay_layers(&spec, &totals, stopwatch, &mut spans)?;
            let layers = per_layer(&totals, &costs);
            println!("per layer:");
            print!("{}", layer_table(&layers));
            println!("{}", attribution_line(&totals, &costs));
            let baseline = std::fs::read_to_string(BASELINE)
                .ok()
                .and_then(|text| Json::parse(&text).ok());
            println!("{}", overhead_line(name, &e2e, baseline.as_ref()));
            spans.write_jsonl(path)?;
            println!(
                "spans: {} written to {} ({} dropped)",
                spans.spans().len(),
                path.display(),
                spans.dropped()
            );
            layers
        }
    };
    for w in &totals.warnings {
        println!("MEASUREMENT WARNING: {w}");
    }
    for p in &totals.problems {
        println!("GATE FAILED: {p}");
    }
    let correct = totals.problems.is_empty() && totals.failed == 0;
    println!(
        "{}",
        result_json(correct, totals.planned, totals.failed, &metrics).render()
    );
    Ok(correct)
}

fn cmd_calibrate(args: &Args) -> Result<bool, String> {
    args.only(&["--runs"])?;
    let runs = usize::try_from(args.number("--runs", 5)?).map_err(|e| e.to_string())?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (doc, table) = calibrate(&exe, runs.max(1))?;
    print!("{table}");
    std::fs::write(BASELINE, doc.render_pretty()).map_err(|e| format!("write {BASELINE}: {e}"))?;
    println!("calibration written to {BASELINE}");
    Ok(true)
}

fn cmd_compare(args: &Args) -> Result<bool, String> {
    args.only(&["--pairs", "--seed"])?;
    let [a, b] = args.positional.as_slice() else {
        return Err(format!("compare needs two executables\n{USAGE}"));
    };
    let pairs = usize::try_from(args.number("--pairs", 10)?).map_err(|e| e.to_string())?;
    let (report, regressed) = compare(
        Path::new(a),
        Path::new(b),
        pairs.max(1),
        args.number("--seed", 1)?,
        Path::new("BENCHMARK.json"),
    )?;
    print!("{report}");
    Ok(!regressed)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = Args::parse(rest, &["--smoke"]).and_then(|args| match cmd.as_str() {
        "run" => cmd_run(&args),
        "calibrate" => cmd_calibrate(&args),
        "compare" => cmd_compare(&args),
        other => Err(format!("unknown command {other}\n{USAGE}")),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rstp-perf: {e}");
            ExitCode::from(2)
        }
    }
}
