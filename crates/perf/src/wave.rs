//! One wave: set up `M` fresh sessions, serve them with one
//! `run_server` call while the generator thread drives their
//! transmitters, and verify every output.
//!
//! `run_server` admits sessions only when it starts, so a workload is a
//! sequence of waves; [`Totals`] merges them.

use crate::generator::{run_generator, GenConfig, GenReport, GenSession, Transmitter};
use crate::hub::ReliableHub;
use crate::pace::Grid;
use crate::procfs;
use crate::reference;
use crate::shadow::{run_shadow, ShadowReport, StopOnDrop};
use crate::trace::{now_ns, SpanBuf};
use crate::workload::{params, Workload, C1, C2, TICK};
use rstp_core::{Message, SessionId};
use rstp_net::{codec_for, LatencyHistogram, TickClock};
use rstp_serve::{run_server, MemHub, ServeConfig, ServeReport, SessionSpec, SessionStats};
use rstp_sim::harness::{expected_output, random_input};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::thread;
use std::time::Duration;

/// Set-up repetitions per run, spread over its waves; the median is
/// reported.
const SETUP_SAMPLES: usize = 40;
/// Fewest set-up repetitions of one wave.
const MIN_SETUP_REPS: usize = 5;
/// Past [`MIN_SETUP_REPS`], a wave stops repeating its set-up once this
/// much time went into it (beta-long builds 1.5M messages per set-up).
const SETUP_BUDGET_NS: u64 = 1_000_000_000;
/// Sessions per wave cross-checked against the simulator oracle.
pub const ORACLE_SESSIONS: usize = 2;
/// Sessions per wave whose generator steps are traced span by span
/// (the same ones the oracle checks). Tracing every session would need
/// millions of spans per run.
pub const TRACED_SESSIONS: usize = 2;
/// Clock epoch lies this far past the end of set-up, so the generator
/// thread and the server are running before the first step is due.
const HEADROOM: Duration = Duration::from_millis(50);

/// The splitmix64 step: a well-mixed 64-bit value from any input.
#[must_use]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Set-up repetitions of each of `waves` waves.
#[must_use]
pub fn setup_reps(waves: usize) -> usize {
    SETUP_SAMPLES.div_ceil(waves.max(1)).max(MIN_SETUP_REPS)
}

/// The seed of session `session`'s input in wave `wave` of a run
/// seeded `seed`.
#[must_use]
pub fn input_seed(seed: u64, wave: usize, session: usize) -> u64 {
    mix(seed ^ mix(((wave as u64) << 32) | session as u64))
}

/// Where a wave runs and what it records.
#[derive(Clone, Debug)]
pub struct WaveSpec {
    /// The workload shape.
    pub workload: Workload,
    /// The run seed.
    pub seed: u64,
    /// Wave index.
    pub wave: usize,
    /// Scratch directory for the flight recording.
    pub scratch: PathBuf,
    /// Process stopwatch (span time base).
    pub stopwatch: TickClock,
    /// Span capacity of the generator thread (0 = untraced).
    pub gen_span_cap: usize,
    /// Times the wave's set-up is repeated.
    pub setup_reps: usize,
}

/// Everything measured across the waves of one pass.
#[derive(Debug, Default)]
pub struct Totals {
    /// Waves run.
    pub waves: u64,
    /// Sessions planned.
    pub planned: u64,
    /// Sessions that did not complete with `Y = X` (rejections
    /// included).
    pub failed: u64,
    /// Gate failures, one line each.
    pub problems: Vec<String>,
    /// Measurements the generator's lateness may have skewed, one line
    /// each. They do not fail the run.
    pub warnings: Vec<String>,
    /// Messages written by the server's receivers.
    pub delivered: u64,
    /// Summed serve wall time (epoch to `run_server` return), ns.
    pub serve_ns: u64,
    /// Whole-process CPU inside serve windows, ns.
    pub process_cpu_ns: u64,
    /// CPU of the thread that called `run_server` (the pump), ns.
    pub pump_cpu_ns: u64,
    /// Every timed set-up, ns.
    pub setup_ns: Vec<u64>,
    /// The reference job timed just before each set-up, ns.
    pub reference_ns: Vec<u64>,
    /// Delivery latency, merged over waves.
    pub latency: LatencyHistogram,
    /// Per-session learning effort, ticks per message.
    pub efforts: Vec<f64>,
    /// Server steps.
    pub steps: u64,
    /// Frames the server sent.
    pub frames_sent: u64,
    /// Frames applied at the server.
    pub frames_received: u64,
    /// Server deadline misses.
    pub deadline_misses: u64,
    /// Server timing violations.
    pub timing_violations: u64,
    /// Ingress overflow + orphan + decode-error drops.
    pub ingress_drops: u64,
    /// Frames the shard produced that egress gave up on.
    pub egress_drops: u64,
    /// Frames egress offered again because the client held its inbox.
    pub egress_retries: u64,
    /// Flight-recorder events accepted.
    pub events_recorded: u64,
    /// Flight-recorder events shed.
    pub events_dropped: u64,
    /// Bytes of flight recording written.
    pub record_bytes: u64,
    /// Generator steps.
    pub gen_steps: u64,
    /// Generator re-anchors.
    pub gen_reanchors: u64,
    /// Steps the `c1` guard held back.
    pub gen_guarded: u64,
    /// Ticks the generator overran.
    pub gen_overruns: u64,
    /// Generator CPU, ns.
    pub gen_cpu_ns: u64,
    /// Generator wake lateness, µs.
    pub gen_late: LatencyHistogram,
    /// CPU of the shadow thread (see [`crate::shadow`]), ns.
    pub shadow_cpu_ns: u64,
    /// Shadow wakes.
    pub shadow_wakes: u64,
}

/// The sessions of one wave, built before its clock epoch.
struct Built {
    hub: MemHub,
    sessions: Vec<GenSession>,
    specs: Vec<SessionSpec>,
    inputs: Vec<Vec<Message>>,
}

fn build(spec: &WaveSpec) -> Result<Built, String> {
    let w = &spec.workload;
    let codec = codec_for(w.kind).map_err(|e| e.to_string())?;
    let hub = MemHub::new();
    let mut built = Built {
        hub,
        sessions: Vec::with_capacity(w.sessions),
        specs: Vec::with_capacity(w.sessions),
        inputs: Vec::with_capacity(w.sessions),
    };
    for i in 0..w.sessions {
        let id = SessionId::new(u32::try_from(i + 1).map_err(|e| e.to_string())?);
        let input = random_input(w.n, input_seed(spec.seed, spec.wave, i));
        built.sessions.push(GenSession::new(
            id,
            Transmitter::new(w.kind, params(), &input)?,
            built.hub.client_transport(id, codec),
            C2,
            i < TRACED_SESSIONS,
        ));
        built.specs.push(SessionSpec {
            id,
            kind: w.kind,
            n: w.n,
        });
        built.inputs.push(input);
    }
    Ok(built)
}

/// Frames the server's shards produced that egress did not deliver.
/// [`ReliableHub`] gives a frame up only if its session never
/// registered, so this is 0 on a healthy run.
fn egress_drops(served: &ServeReport) -> u64 {
    served
        .shards
        .iter()
        .map(|s| {
            let produced: u64 = s.sessions.iter().map(|st| st.sends).sum::<u64>() + s.reacked;
            produced.saturating_sub(s.frames_sent)
        })
        .sum()
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Totals {
    /// Runs wave `spec.wave` and folds it in. `spans` is the main
    /// thread's buffer; the generator's spans are merged into it.
    ///
    /// # Errors
    ///
    /// Failures of the harness itself (`/proc`, thread spawn, a model
    /// violation inside the server). Failures of the system under test
    /// are counted in [`Totals::failed`] and [`Totals::problems`].
    pub fn run_wave(
        &mut self,
        spec: &WaveSpec,
        spans: &mut SpanBuf,
        parent: u64,
    ) -> Result<(), String> {
        let w = spec.workload;
        let wave_index = u32::try_from(spec.wave).unwrap_or(u32::MAX);
        let wave = Some(wave_index);
        let wave_start = spans.start();
        let wave_span = spans.open();

        // Set-up: inputs, transmitter encoding, hub registration. All of
        // it happens before the clock epoch is fixed.
        let setup_start = spans.start();
        let reference = reference::Shape::of(&w)?;
        let mut built = None;
        let mut spent = 0;
        for rep in 0..spec.setup_reps {
            if rep >= MIN_SETUP_REPS && spent >= SETUP_BUDGET_NS {
                break;
            }
            let r0 = now_ns(&spec.stopwatch);
            reference.run();
            let t0 = now_ns(&spec.stopwatch);
            let b = build(spec)?;
            let t1 = now_ns(&spec.stopwatch);
            self.setup_ns.push(t1.saturating_sub(t0));
            self.reference_ns.push(t0.saturating_sub(r0));
            spent += t1.saturating_sub(r0);
            built = Some(b);
        }
        let Built {
            hub,
            mut sessions,
            specs,
            inputs,
        } = built.ok_or("no set-up ran")?;
        spans.leaf("setup", wave_span, setup_start, wave, None);

        let nominal = Duration::from_millis(w.wave_ms);
        let max_wall = nominal * 2 + Duration::from_secs(5);
        let rec_dir = spec
            .scratch
            .join(format!("rec-{}-{}", std::process::id(), spec.wave));
        let mut cfg = ServeConfig::new(params(), TICK)
            .with_shards(1)
            .with_max_sessions(w.sessions)
            .with_queue_cap((w.sessions * 32).max(256))
            .with_max_wall(max_wall);
        if w.record {
            cfg = cfg.with_record(&rec_dir).with_record_seed(spec.seed);
        }
        let tick_us = TICK.as_micros() as u64;
        // Every session steps for even ticks (the first is tick c2 = 2),
        // half a tick early. The server admits all sessions at tick 0 and
        // steps their receivers on odd ticks (even ones after a stall
        // re-anchors them), waking on a tick boundary and flushing egress
        // right after its steps. The generator drains inboxes mid-tick, as
        // far from both boundaries as it can, so egress seldom finds a
        // client inbox locked and has to offer the frame again.
        let grid = Grid {
            tick_us,
            lead_us: tick_us / 2,
            gap_ticks: C2,
            window_us: tick_us / 2,
            c1_us: C1 * tick_us,
        };

        let clock = TickClock::start_after(HEADROOM, TICK);
        let gen_cfg = GenConfig {
            clock,
            grid,
            max_wall,
            wave: wave_index,
            parent_span: wave_span,
        };
        let gen_spans = SpanBuf::new(spec.stopwatch, spec.wave as u64 + 1, spec.gen_span_cap);
        let mut hub = ReliableHub::new(hub);
        let stop_shadow = AtomicBool::new(false);
        let shadow_units = w.sessions.div_ceil(C2 as usize);
        let serve_start = spans.start();
        let cpu0 = procfs::process_cpu_ns()?;
        let pump0 = procfs::thread_cpu_ns()?;
        let (served, gen, shadow) = thread::scope(|scope| {
            // However this closure is left, a panic included, the guard
            // tells the shadow to stop before the scope joins it.
            let stop_guard = StopOnDrop(&stop_shadow);
            let handle = thread::Builder::new()
                .name("rstp-perf-gen".into())
                .spawn_scoped(scope, || run_generator(&mut sessions, gen_cfg, gen_spans))
                .map_err(|e| format!("spawn generator: {e}"))?;
            let shadow = thread::Builder::new()
                .name("rstp-perf-shadow".into())
                .spawn_scoped(scope, || {
                    run_shadow(clock, grid, C2, shadow_units, &stop_shadow)
                })
                .map_err(|e| format!("spawn shadow: {e}"))?;
            let served = run_server(&mut hub, clock, &specs, &cfg);
            let gen = handle
                .join()
                .map_err(|_| "generator thread panicked".to_string())?;
            drop(stop_guard);
            let shadow: ShadowReport = shadow
                .join()
                .map_err(|_| "shadow thread panicked".to_string())??;
            Ok::<_, String>((served, gen, shadow))
        })?;
        let pump1 = procfs::thread_cpu_ns()?;
        let cpu1 = procfs::process_cpu_ns()?;
        spans.leaf("serve.run_server", wave_span, serve_start, wave, None);
        if w.record {
            self.record_bytes += dir_bytes(&rec_dir);
            std::fs::remove_dir_all(&rec_dir)
                .map_err(|e| format!("remove {}: {e}", rec_dir.display()))?;
        }
        let served = served.map_err(|e| format!("wave {}: run_server: {e}", spec.wave))?;

        let verify_start = spans.start();
        self.verify(spec, &specs, &inputs, &served, &gen)?;
        spans.leaf("verify", wave_span, verify_start, wave, None);

        self.waves += 1;
        self.serve_ns += u64::try_from(served.wall_elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.process_cpu_ns += cpu1.saturating_sub(cpu0);
        self.pump_cpu_ns += pump1.saturating_sub(pump0);
        self.latency.merge(&served.latency());
        self.deadline_misses += served.deadline_misses();
        self.timing_violations += served.timing_violations();
        self.ingress_drops +=
            served.ingress_overflow() + served.orphan_frames + served.decode_errors;
        self.events_recorded += served.events_recorded();
        self.events_dropped += served.events_dropped();
        self.egress_drops += egress_drops(&served);
        self.egress_retries += hub.retries();
        for s in &served.shards {
            self.steps += s.steps;
            self.frames_sent += s.frames_sent;
            self.frames_received += s.frames_received;
        }
        self.gen_steps += gen.steps;
        self.gen_reanchors += gen.reanchors;
        self.gen_guarded += gen.guarded;
        self.gen_overruns += gen.overruns;
        self.gen_cpu_ns += gen.cpu_ns;
        self.gen_late.merge(&gen.late);
        self.shadow_cpu_ns += shadow.cpu_ns;
        self.shadow_wakes += shadow.wakes;
        spans.absorb(gen.spans);
        spans.close(wave_span, "wave", parent, wave_start, wave, None);
        Ok(())
    }

    /// The per-wave gates: `Y = X` for every session, the oracle on the
    /// first sessions, no timing violation, every transmitter finished.
    fn verify(
        &mut self,
        spec: &WaveSpec,
        specs: &[SessionSpec],
        inputs: &[Vec<Message>],
        served: &ServeReport,
        gen: &GenReport,
    ) -> Result<(), String> {
        let wave = spec.wave;
        // A session may leave more than one stats entry only in fault
        // runs; the completed one is its outcome.
        let mut outcome: HashMap<u32, &SessionStats> = HashMap::new();
        for s in served.shards.iter().flat_map(|s| &s.sessions) {
            let e = outcome.entry(s.id.raw()).or_insert(s);
            if s.completed && !e.completed {
                *e = s;
            }
        }
        for (i, (sp, input)) in specs.iter().zip(inputs).enumerate() {
            self.planned += 1;
            let Some(stats) = outcome.get(&sp.id.raw()) else {
                self.failed += 1;
                continue;
            };
            self.delivered += stats.written.len() as u64;
            if !(stats.completed && stats.written == *input) {
                self.failed += 1;
                continue;
            }
            if let Some(effort) = stats.learn_effort_ticks() {
                self.efforts.push(effort);
            }
            if i < ORACLE_SESSIONS {
                let expected = expected_output(sp.kind, params(), input)
                    .map_err(|e| format!("simulator oracle: {e}"))?;
                if stats.written != expected {
                    self.problems.push(format!(
                        "wave {wave}: session {} disagrees with the simulator oracle",
                        sp.id
                    ));
                }
            }
        }
        if served.timing_violations() > 0 {
            self.problems.push(format!(
                "wave {wave}: {} server timing violations",
                served.timing_violations()
            ));
        }
        if let Some(e) = &gen.error {
            self.problems.push(format!("wave {wave}: generator: {e}"));
        }
        if gen.unfinished > 0 {
            self.problems.push(format!(
                "wave {wave}: {} transmitters unfinished at the wall cap",
                gen.unfinished
            ));
        }
        if gen.started_late {
            self.warnings.push(format!(
                "wave {wave}: generator started after the clock epoch"
            ));
        }
        Ok(())
    }

    /// The run-level checks of the generator, after every wave: it kept
    /// its schedule closely enough for the load to be the planned open
    /// loop. A miss marks the measurement, not the outputs: the host
    /// taking the CPU away (steal time) makes every session due in the
    /// gap re-anchor at once, with every output still correct.
    pub fn check_run(&mut self) {
        if self.gen_reanchors * 100 > self.gen_steps {
            self.warnings.push(format!(
                "generator re-anchored {} times in {} steps (limit 1%)",
                self.gen_reanchors, self.gen_steps
            ));
        }
        let limit_us = (C2 * TICK.as_micros() as u64) as f64;
        let late_p99 = self.gen_late.quantile_interp_micros(0.99).unwrap_or(0.0);
        if late_p99 > limit_us {
            self.warnings.push(format!(
                "generator wake lateness p99 {late_p99:.0} us exceeds c2 x tick = {limit_us:.0} us"
            ));
        }
    }
}
