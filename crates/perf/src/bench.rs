//! One benchmark run: waves of a workload, its metrics, and (with
//! tracing) the per-layer table and attribution.

use crate::json::Json;
use crate::layers::{EventMix, LayerCosts, Replays};
use crate::stats::median;
use crate::trace::SpanBuf;
use crate::wave::{setup_reps, Totals, WaveSpec};
use crate::workload::{MetricDef, Workload, D, END_TO_END, PER_LAYER, TICK};
use rstp_core::bounds::{active_upper_finite, passive_upper_finite};
use rstp_net::TickClock;
use rstp_sim::ProtocolKind;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Spans a traced generator thread may keep per wave: enough for the
/// longest wave (beta-long, ≈14 s: one `gen.tick` per wake plus three
/// spans per step of each traced session).
pub const GEN_SPAN_CAP: usize = 1 << 17;
/// Spans the main thread may keep (waves, set-ups, replays, and every
/// generator buffer merged into it).
pub const MAIN_SPAN_CAP: usize = 1 << 20;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The workload (already shrunk for `--smoke`).
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds of serving to fill with waves.
    pub seconds: u64,
    /// Fixed wave count (the smoke shape), instead of filling seconds.
    pub waves: Option<usize>,
    /// Directory for scratch files (flight recordings).
    pub scratch: PathBuf,
    /// Minimum length of one replay batch.
    pub min_batch: Duration,
}

/// One measured value, in catalogue order.
pub type Metrics = Vec<(MetricDef, f64)>;

/// Runs every wave of `spec` and the run-level gates. `gen_span_cap`
/// is 0 for an untraced pass.
///
/// # Errors
///
/// Harness failures (see [`Totals::run_wave`]).
pub fn run_pass(
    spec: &RunSpec,
    stopwatch: TickClock,
    spans: &mut SpanBuf,
    gen_span_cap: usize,
) -> Result<Totals, String> {
    let waves = spec
        .waves
        .unwrap_or_else(|| spec.workload.waves(spec.seconds));
    let mut totals = Totals::default();
    let pass_start = spans.start();
    let pass_span = spans.open();
    for wave in 0..waves {
        let ws = WaveSpec {
            workload: spec.workload,
            seed: spec.seed,
            wave,
            scratch: spec.scratch.clone(),
            stopwatch,
            gen_span_cap,
            setup_reps: setup_reps(waves),
        };
        totals.run_wave(&ws, spans, pass_span)?;
    }
    spans.close(pass_span, "pass", 0, pass_start, None, None);
    totals.check_run();
    Ok(totals)
}

fn per_msg(x: u64, t: &Totals) -> f64 {
    x as f64 / t.delivered.max(1) as f64
}

/// Server CPU: the whole process minus the generator and shadow
/// threads, ns.
fn server_cpu_ns(t: &Totals) -> u64 {
    t.process_cpu_ns
        .saturating_sub(t.gen_cpu_ns)
        .saturating_sub(t.shadow_cpu_ns)
}

/// Server CPU per message, ns, rescaled to the host speed at which
/// workload `w`'s shadow costs [`Workload::shadow_ns_per_msg`] (see
/// [`crate::shadow`]).
fn rescaled_server_cpu(w: &Workload, t: &Totals) -> f64 {
    server_cpu_ns(t) as f64 / t.shadow_cpu_ns.max(1) as f64 * w.shadow_ns_per_msg
}

/// Median set-up time, s, rescaled to the host speed at which workload
/// `w`'s reference job takes [`Workload::reference_us`] (see
/// [`crate::reference`]).
fn rescaled_setup_s(w: &Workload, t: &Totals) -> f64 {
    let ratios: Vec<f64> = t
        .setup_ns
        .iter()
        .zip(&t.reference_ns)
        .map(|(&s, &r)| s as f64 / r.max(1) as f64)
        .collect();
    median(&ratios).unwrap_or(0.0) * w.reference_us as f64 / 1e6
}

/// Median of raw nanosecond readings, in seconds.
fn median_s(ns: &[u64]) -> f64 {
    let s: Vec<f64> = ns.iter().map(|&ns| ns as f64 / 1e9).collect();
    median(&s).unwrap_or(0.0)
}

/// Delivered messages per second of serving.
fn msgs_per_s(t: &Totals) -> f64 {
    t.delivered as f64 / (t.serve_ns.max(1) as f64 / 1e9)
}

/// The end-to-end metrics of a pass of workload `w`.
#[must_use]
pub fn end_to_end(w: &Workload, t: &Totals, peak_rss_kib: u64) -> Metrics {
    let values = [
        rescaled_server_cpu(w, t),
        rescaled_setup_s(w, t),
        peak_rss_kib as f64 / 1024.0,
    ];
    END_TO_END.iter().copied().zip(values).collect()
}

/// Delivery latency percentile `p`, µs.
fn latency(t: &Totals, p: f64) -> f64 {
    t.latency.quantile_interp_micros(p).unwrap_or(0.0)
}

/// Per-message counts of the server path, from the run's own counters.
struct Counts {
    frames_in: f64,
    steps: f64,
    frames_out: f64,
    events: f64,
}

impl Counts {
    fn of(t: &Totals) -> Self {
        Counts {
            frames_in: per_msg(t.frames_received, t),
            steps: per_msg(t.steps, t),
            frames_out: per_msg(t.frames_sent, t),
            events: per_msg(t.events_recorded, t),
        }
    }
}

/// The server path's layers, each as (label, ns per message) = ns per
/// call × calls per message. Rank and block-codec costs are not listed:
/// they run inside `apply_recv`, which the endpoint row already covers.
fn explained(c: &LayerCosts, n: &Counts) -> [(&'static str, f64); 5] {
    [
        ("ingress", n.frames_in * (c.hub_recv_batch + c.wire_decode)),
        ("wheel", n.steps * (c.wheel_schedule + c.wheel_pop)),
        (
            "endpoint",
            n.frames_in * c.endpoint_recv + n.steps * c.endpoint_step,
        ),
        ("egress", n.frames_out * (c.wire_encode + c.hub_egress)),
        ("record", n.events * c.record_push),
    ]
}

/// The per-layer metrics: the counters of pass `t` plus the replay
/// costs `c`.
#[must_use]
pub fn per_layer(t: &Totals, c: &LayerCosts) -> Metrics {
    let n = Counts::of(t);
    let pump = per_msg(t.pump_cpu_ns, t);
    let shard = per_msg(server_cpu_ns(t).saturating_sub(t.pump_cpu_ns), t);
    let sum: f64 = explained(c, &n).iter().map(|(_, v)| v).sum();
    let offered = t.events_recorded + t.events_dropped;
    let values = [
        pump,
        shard,
        n.steps,
        (t.delivered + t.frames_sent) as f64 / t.steps.max(1) as f64,
        n.frames_out,
        t.ingress_drops as f64,
        t.deadline_misses as f64 / t.steps.max(1) as f64,
        c.wheel_schedule,
        c.wheel_pop,
        c.hub_send,
        c.hub_poll,
        c.hub_recv_batch,
        c.hub_egress,
        c.wire_decode,
        c.wire_encode,
        c.endpoint_recv,
        c.endpoint_step,
        c.endpoint_calls_per_msg,
        c.rank,
        c.unrank,
        c.decode_block,
        c.encode_block,
        c.snapshot_encode,
        c.snapshot_bytes,
        c.record_push,
        n.events,
        t.events_dropped as f64 / offered.max(1) as f64,
        per_msg(t.record_bytes, t),
        per_msg(t.gen_cpu_ns, t),
        t.gen_late.quantile_interp_micros(0.99).unwrap_or(0.0),
        per_msg(t.shadow_cpu_ns, t),
        pump + shard - sum,
        msgs_per_s(t),
        latency(t, 0.50),
        latency(t, 0.99),
        median(&t.efforts).unwrap_or(0.0),
    ];
    PER_LAYER.iter().copied().zip(values).collect()
}

/// The recorder event mix the server produced, per message.
#[must_use]
pub fn event_mix(t: &Totals) -> EventMix {
    let n = Counts::of(t);
    EventMix {
        pops: n.steps,
        rx: n.frames_in,
        tx: n.frames_out,
    }
}

/// Runs the per-layer replays for `spec`'s workload.
///
/// # Errors
///
/// A replay failing (see [`Replays::measure`]).
pub fn replay_layers(
    spec: &RunSpec,
    t: &Totals,
    stopwatch: TickClock,
    spans: &mut SpanBuf,
) -> Result<LayerCosts, String> {
    let start = spans.start();
    let id = spans.open();
    let costs = Replays::new(stopwatch, spec.min_batch, spans, id).measure(
        &spec.workload,
        spec.seed,
        event_mix(t),
    )?;
    spans.close(id, "replay", 0, start, None, None);
    Ok(costs)
}

/// A value with four significant digits or three decimals, whichever
/// is longer.
pub(crate) fn fmt_value(v: f64) -> String {
    let digits = if v == 0.0 {
        0
    } else {
        v.abs().log10().floor() as i32
    };
    let decimals = (3 - digits).max(3) as usize;
    format!("{v:.decimals$}")
}

/// Renders metrics as aligned `name value unit` lines.
#[must_use]
pub fn metric_lines(metrics: &Metrics) -> String {
    let mut out = String::new();
    for (m, v) in metrics {
        let _ = writeln!(out, "  {:<30} {:>16} {}", m.name, fmt_value(*v), m.unit);
    }
    out
}

/// The per-layer table: value, unit, layer and what it should move.
#[must_use]
pub fn layer_table(metrics: &Metrics) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<30} {:>12} {:<10} {:<20} moves",
        "metric", "value", "unit", "layer"
    );
    for (m, v) in metrics {
        let _ = writeln!(
            out,
            "  {:<30} {:>12} {:<10} {:<20} {}",
            m.name,
            fmt_value(*v),
            m.unit,
            m.layer,
            m.moves
        );
    }
    out
}

/// The attribution line: measured server CPU per message against the
/// sum of its layers.
#[must_use]
pub fn attribution_line(t: &Totals, c: &LayerCosts) -> String {
    let n = Counts::of(t);
    let measured = per_msg(server_cpu_ns(t), t);
    let parts = explained(c, &n);
    let sum: f64 = parts.iter().map(|(_, v)| v).sum();
    let mut out = format!("attribution: pump+shard {measured:.0} ns/msg =");
    for (label, v) in parts {
        let _ = write!(out, " {label} {v:.0} +");
    }
    let _ = write!(out, " unexplained {:.0}", measured - sum);
    out
}

/// Context printed beside the metrics: what a user sees but the
/// benchmark does not gate (throughput, latency with its sample count,
/// effort against the paper's bound, failures), and the run's health
/// counters.
#[must_use]
pub fn context_lines(w: &Workload, t: &Totals) -> String {
    let params = crate::workload::params();
    let bound = match w.kind {
        ProtocolKind::Beta { k } => {
            format!(
                "passive_upper_finite {:.3}",
                passive_upper_finite(params, k, w.n)
            )
        }
        ProtocolKind::Gamma { k } => {
            format!(
                "active_upper_finite {:.3}",
                active_upper_finite(params, k, w.n)
            )
        }
        _ => "no paper bound for this protocol".into(),
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  waves {} x {} sessions x n={}: {} messages delivered",
        t.waves, w.sessions, w.n, t.delivered
    );
    let _ = writeln!(out, "end to end, not gated:");
    let _ = writeln!(
        out,
        "  msgs_per_s                     {:>16} msgs/s",
        fmt_value(msgs_per_s(t))
    );
    let _ = writeln!(
        out,
        "  fail_ratio                     {:>16} ratio ({} of {} sessions)",
        fmt_value(t.failed as f64 / t.planned.max(1) as f64),
        t.failed,
        t.planned
    );
    let _ = writeln!(
        out,
        "  delivery_p50_us                {:>16} us",
        fmt_value(latency(t, 0.50))
    );
    let _ = writeln!(
        out,
        "  delivery_p99_us                {:>16} us ({} samples; limit d x tick = {} us)",
        fmt_value(latency(t, 0.99)),
        t.latency.count(),
        D * TICK.as_micros() as u64
    );
    let _ = writeln!(
        out,
        "  effort_ticks_per_msg           {:>16} ticks/msg ({bound})",
        fmt_value(median(&t.efforts).unwrap_or(0.0))
    );
    let _ = writeln!(
        out,
        "  server CPU: {} ns/msg as measured; shadow {} ns/msg ({} nominal, {} wakes)",
        fmt_value(per_msg(server_cpu_ns(t), t)),
        fmt_value(per_msg(t.shadow_cpu_ns, t)),
        fmt_value(w.shadow_ns_per_msg),
        t.shadow_wakes
    );
    let _ = writeln!(
        out,
        "  setup: {} runs, raw median {} s; reference job median {} us ({} us nominal)",
        t.setup_ns.len(),
        fmt_value(median_s(&t.setup_ns)),
        fmt_value(median_s(&t.reference_ns) * 1e6),
        w.reference_us
    );
    let _ = writeln!(
        out,
        "  server: {} steps, {} deadline misses, {} timing violations, {} ingress drops, \
         {} egress drops, {} egress retries",
        t.steps,
        t.deadline_misses,
        t.timing_violations,
        t.ingress_drops,
        t.egress_drops,
        t.egress_retries
    );
    let _ = writeln!(
        out,
        "  generator: {} steps, {} re-anchors, {} c1-guarded, {} overruns, {} ns/msg CPU, \
         late p99 {:.0} us, one thread (available parallelism {})",
        t.gen_steps,
        t.gen_reanchors,
        t.gen_guarded,
        t.gen_overruns,
        fmt_value(per_msg(t.gen_cpu_ns, t)),
        t.gen_late.quantile_interp_micros(0.99).unwrap_or(0.0),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    if w.record {
        let _ = writeln!(
            out,
            "  recorder: {} events, {} shed, {} bytes",
            t.events_recorded, t.events_dropped, t.record_bytes
        );
    }
    out
}

/// The tracing overhead line: the traced pass's end-to-end values
/// against the untraced medians `calibrate` recorded for `workload` in
/// the calibration document `baseline`.
#[must_use]
pub fn overhead_line(workload: &str, traced: &Metrics, baseline: Option<&Json>) -> String {
    let medians = baseline
        .and_then(|b| b.get("workloads"))
        .and_then(|w| w.get(workload));
    let Some(medians) = medians else {
        return "tracing overhead: no untraced calibration for this workload".into();
    };
    let mut out = String::from("tracing overhead (traced vs untraced calibration medians):");
    for (m, v) in traced {
        let Some(base) = medians
            .get(m.name)
            .and_then(|x| x.get("median"))
            .and_then(Json::as_f64)
        else {
            continue;
        };
        let pct = if base == 0.0 {
            0.0
        } else {
            (v - base) / base * 100.0
        };
        let _ = write!(out, " {} {pct:+.1}%", m.name);
    }
    out
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
#[must_use]
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> Json {
    let values = metrics
        .iter()
        .map(|(m, v)| {
            (
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(*v)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(values)),
    ])
}
