//! Multi-run campaigns: `calibrate` (the baseline and the spread the
//! bounds come from) and `compare` (two builds, alternating pairs).
//!
//! Every run is its own child process, so no run inherits another's
//! heap, caches or threads.

use crate::bench::fmt_value;
use crate::json::Json;
use crate::stats::{median, quartiles, relative_spread};
use crate::workload::{Better, END_TO_END, WORKLOADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

/// Seed reserved for confirming a claim: no calibration uses it.
pub const HOLDOUT_SEED: u64 = 1009;

/// Largest bound the benchmark may set on an end-to-end metric.
pub const MAX_BOUND: f64 = 0.25;

/// The result line of one child run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Every output was correct.
    pub correct: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses a result line (the last line of a run's standard output).
///
/// # Errors
///
/// When the line is not a result object.
pub fn parse_result(line: &str) -> Result<RunResult, String> {
    let doc = Json::parse(line)?;
    let correct = doc.get("correct").is_some_and(|c| *c == Json::Bool(true));
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no metrics object")?
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name} has no value"))?;
            Ok((name.clone(), value))
        })
        .collect::<Result<_, String>>()?;
    Ok(RunResult { correct, metrics })
}

/// Runs `exe run --workload W --seed S --trace 0` (the default run
/// length) and returns its result line.
///
/// # Errors
///
/// When the child cannot start, fails, or prints no result.
pub fn child_run(exe: &Path, workload: &str, seed: u64) -> Result<RunResult, String> {
    let out = Command::new(exe)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!(
            "{} {workload} seed {seed} exited with {}: {last}",
            exe.display(),
            out.status
        ));
    }
    let result = parse_result(last)?;
    if !result.correct {
        return Err(format!(
            "{workload} seed {seed}: run reported incorrect output"
        ));
    }
    Ok(result)
}

/// One `end_to_end` entry of `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// Reads the end-to-end bounds from a `BENCHMARK.json` file.
///
/// # Errors
///
/// When the file is missing or malformed.
pub fn read_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or_else(|| format!("end_to_end entry lacks {k}"))
            };
            let better = match field("better")?.as_str() {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("bad direction {other:?}")),
            };
            Ok(Bound {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                better,
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// The outcome of comparing one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, no gain shown.
    Same,
    /// A gain by the pairs rule.
    Better,
    /// Worse than the parent by more than the bound.
    Worse,
    /// The run-to-run spread exceeds the bound: no conclusion.
    Unresolved,
}

impl Verdict {
    /// Short label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "no change",
            Verdict::Better => "better",
            Verdict::Worse => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares paired runs `a` (parent) and `b` (change), `a[i]` and
/// `b[i]` measured back to back:
///
/// * **unresolved** when either side's interquartile spread exceeds the
///   bound, unless every run of `b` beats every run of `a`;
/// * **worse** when `b`'s median is worse than `a`'s by more than the
///   bound;
/// * **better** when there are at least ten pairs, `b` wins at least
///   nine tenths of them (ties count for neither), and the medians
///   differ by more than `a`'s interquartile range;
/// * otherwise **same**.
#[must_use]
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let (Some(ma), Some(mb), Some((q1, q3))) = (median(a), median(b), quartiles(a)) else {
        return Verdict::Unresolved;
    };
    let spread = relative_spread(a)
        .unwrap_or(0.0)
        .max(relative_spread(b).unwrap_or(0.0));
    let all_better = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    if spread > bound && !all_better {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse_by > bound {
        return Verdict::Worse;
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| beats(y, x)).count();
    if pairs >= 10 && wins * 10 >= pairs * 9 && (mb - ma).abs() > q3 - q1 {
        return Verdict::Better;
    }
    Verdict::Same
}

fn fmt_side(values: &[f64]) -> String {
    match (median(values), quartiles(values)) {
        (Some(m), Some((q1, q3))) => {
            format!("{} [{}, {}]", fmt_value(m), fmt_value(q1), fmt_value(q3))
        }
        _ => "-".into(),
    }
}

/// `rstp-perf compare A B`: `pairs` alternating pairs of runs of
/// executables `a` (parent) and `b` (change) per workload, judged per
/// end-to-end metric against the bounds in `benchmark`. Returns the
/// report and whether any metric regressed.
///
/// # Errors
///
/// A child run failing, or unreadable bounds.
pub fn compare(
    a: &Path,
    b: &Path,
    pairs: usize,
    seed: u64,
    benchmark: &Path,
) -> Result<(String, bool), String> {
    let bounds = read_bounds(benchmark)?;
    let mut out = String::new();
    let mut regressed = false;
    let mut detail = String::new();
    let _ = writeln!(out, "{:<20} verdict", "workload");
    for w in WORKLOADS {
        let mut runs_a = Vec::new();
        let mut runs_b = Vec::new();
        for pair in 0..pairs {
            // Alternate which side runs first, so drift over the
            // campaign does not favour one side.
            let first_a = pair % 2 == 0;
            let (x, y) = if first_a { (a, b) } else { (b, a) };
            let rx = child_run(x, w.name, seed)?;
            let ry = child_run(y, w.name, seed)?;
            let (ra, rb) = if first_a { (rx, ry) } else { (ry, rx) };
            runs_a.push(ra);
            runs_b.push(rb);
            eprintln!("compare: {} pair {}/{pairs} done", w.name, pair + 1);
        }
        let mut row = Verdict::Same;
        for bd in &bounds {
            let pick = |runs: &[RunResult]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&bd.name).copied())
                    .collect()
            };
            let (va, vb) = (pick(&runs_a), pick(&runs_b));
            let v = verdict(&va, &vb, bd.better, bd.bound);
            row = match (row, v) {
                (_, Verdict::Worse) | (Verdict::Worse, _) => Verdict::Worse,
                (_, Verdict::Unresolved) | (Verdict::Unresolved, _) => Verdict::Unresolved,
                (_, Verdict::Better) | (Verdict::Better, _) => Verdict::Better,
                _ => Verdict::Same,
            };
            let _ = writeln!(
                detail,
                "  {:<18} {:<24} A {} | B {} | bound {:.2} -> {}",
                w.name,
                bd.name,
                fmt_side(&va),
                fmt_side(&vb),
                bd.bound,
                v.label()
            );
        }
        regressed |= row == Verdict::Worse;
        let _ = writeln!(out, "{:<20} {}", w.name, row.label());
    }
    let _ = write!(
        out,
        "per metric (median [q1, q3] over {pairs} runs per side):\n{detail}"
    );
    Ok((out, regressed))
}

/// `rstp-perf calibrate`: `runs` runs of every workload, seeds
/// `1..=runs` (the dev seeds), summarized per metric as median and
/// quartiles, with the bound each metric's spread supports. Returns the
/// calibration document and a readable table.
///
/// # Errors
///
/// A child run failing.
pub fn calibrate(exe: &Path, runs: usize) -> Result<(Json, String), String> {
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for round in 0..runs {
        let seed = round as u64 + 1;
        // Rotate the workload order so no workload always runs first.
        for i in 0..WORKLOADS.len() {
            let w = WORKLOADS[(i + round) % WORKLOADS.len()];
            let r = child_run(exe, w.name, seed)?;
            for m in END_TO_END {
                if let Some(&v) = r.metrics.get(m.name) {
                    values.entry((w.name, m.name)).or_default().push(v);
                }
            }
            eprintln!("calibrate: {} seed {seed} done", w.name);
        }
    }

    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<18} {:<24} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "median", "q1", "q3", "spread"
    );
    let mut workloads = Vec::new();
    let mut worst: BTreeMap<&str, f64> = BTreeMap::new();
    for w in WORKLOADS {
        let mut metrics = Vec::new();
        for m in END_TO_END {
            let v = values.get(&(w.name, m.name)).cloned().unwrap_or_default();
            let (Some(med), Some((q1, q3)), Some(spread)) =
                (median(&v), quartiles(&v), relative_spread(&v))
            else {
                continue;
            };
            let e = worst.entry(m.name).or_insert(0.0);
            *e = e.max(spread);
            let _ = writeln!(
                table,
                "{:<18} {:<24} {:>14} {:>14} {:>14} {spread:>8.4}",
                w.name,
                m.name,
                fmt_value(med),
                fmt_value(q1),
                fmt_value(q3)
            );
            metrics.push((
                m.name.to_string(),
                Json::Obj(vec![
                    ("unit".into(), Json::Str(m.unit.into())),
                    ("median".into(), Json::Num(med)),
                    ("q1".into(), Json::Num(q1)),
                    ("q3".into(), Json::Num(q3)),
                    ("spread".into(), Json::Num(spread)),
                    (
                        "values".into(),
                        Json::Arr(v.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            ));
        }
        workloads.push((w.name.to_string(), Json::Obj(metrics)));
    }
    // A bound three times the worst spread seen keeps one unlucky run
    // from reading as a regression; rounded up to a whole percent.
    let suggested: Vec<(String, Json)> = worst
        .iter()
        .map(|(name, s)| {
            let b = ((3.0 * s * 100.0).ceil() / 100.0).clamp(0.01, MAX_BOUND);
            ((*name).to_string(), Json::Num(b))
        })
        .collect();
    let _ = writeln!(
        table,
        "suggested bounds (3 x worst spread, at most {MAX_BOUND}):"
    );
    for (name, b) in &suggested {
        let _ = writeln!(table, "  {name:<24} {}", b.as_f64().unwrap_or(0.0));
    }
    let run_cmd = |trace: &str| {
        format!(
            "cargo run --release --offline -q -p rstp-perf -- run --workload W --seed S \
             --trace {trace}"
        )
    };
    let doc = Json::Obj(vec![
        ("run_command".into(), Json::Str(run_cmd("0"))),
        ("trace_command".into(), Json::Str(run_cmd("1"))),
        (
            "dev_seeds".into(),
            Json::Arr((1..=runs).map(|s| Json::Num(s as f64)).collect()),
        ),
        ("holdout_seed".into(), Json::Num(HOLDOUT_SEED as f64)),
        (
            "available_parallelism".into(),
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("workloads".into(), Json::Obj(workloads)),
        ("suggested_bounds".into(), Json::Obj(suggested)),
    ]);
    Ok((doc, table))
}
