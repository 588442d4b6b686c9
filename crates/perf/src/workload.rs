//! The four workloads and the metric catalogue.
//!
//! Every workload runs the paper's E2/E3 parameters — `c1 = 1`, `c2 = 2`,
//! `d = 8` ticks of 500 µs, alphabet `k = 4` — and differs only in
//! protocol and shape, chosen so each stresses a different layer.

use rstp_core::TimingParams;
use rstp_sim::ProtocolKind;
use std::time::Duration;

/// `c1` in ticks.
pub const C1: u64 = 1;
/// `c2` in ticks.
pub const C2: u64 = 2;
/// `d` in ticks.
pub const D: u64 = 8;
/// Packet alphabet size of β and γ.
pub const K: u64 = 4;
/// Wall-clock length of one tick.
pub const TICK: Duration = Duration::from_micros(500);

/// The timing parameters every workload runs under.
#[must_use]
pub fn params() -> TimingParams {
    TimingParams::from_ticks(C1, C2, D).expect("c1 = 1 <= c2 = 2 <= d = 8 are valid parameters")
}

/// One traffic mix.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Protocol of every session.
    pub kind: ProtocolKind,
    /// Sessions per wave (`M`).
    pub sessions: usize,
    /// Messages per session (`n`).
    pub n: usize,
    /// Measured length of one wave at these parameters; the wave count
    /// of a run is the requested seconds divided by this.
    pub wave_ms: u64,
    /// Whether the server runs the flight recorder.
    pub record: bool,
    /// Median time of the workload's [`crate::reference`] job, µs, on
    /// the host the benchmark was calibrated on (two vCPUs of a shared
    /// 2.1 GHz Xeon). `setup_s` is set-up time rescaled to that speed.
    pub reference_us: u64,
    /// Median CPU of the [`crate::shadow`] per delivered message, ns, on
    /// the same host. `server_cpu_ns_per_msg` is server CPU rescaled to
    /// that speed.
    pub shadow_ns_per_msg: f64,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "beta-fanin",
        kind: ProtocolKind::Beta { k: K },
        sessions: 256,
        n: 512,
        wave_ms: 1_225,
        record: false,
        reference_us: 1250,
        shadow_ns_per_msg: 261.0,
        why: "Many small beta(4) sessions: the per-frame path (pump demux, hub, decode_any, \
              wheel) does most of the work and egress is idle.",
    },
    Workload {
        name: "beta-long",
        kind: ProtocolKind::Beta { k: K },
        sessions: 256,
        n: 6144,
        wave_ms: 14_080,
        record: false,
        reference_us: 14_000,
        shadow_ns_per_msg: 258.0,
        why: "beta-fanin with 12x the messages per session: receiver state-size cost, since every \
              step clones the decoded vector.",
    },
    Workload {
        name: "gamma-acks",
        kind: ProtocolKind::Gamma { k: K },
        sessions: 128,
        n: 1024,
        wave_ms: 1_900,
        record: false,
        reference_us: 850,
        shadow_ns_per_msg: 282.0,
        why: "Active gamma(4) receivers ack every packet, so shard egress and client polls sit \
              beside ingress and effort is ack-clocked.",
    },
    Workload {
        name: "stenning-recorded",
        kind: ProtocolKind::Stenning {
            timeout_steps: None,
        },
        sessions: 64,
        n: 1024,
        wave_ms: 2_150,
        record: true,
        reference_us: 23,
        shadow_ns_per_msg: 469.0,
        why: "The only workload with the flight recorder on: ring push, writer thread, \
              snapshot-on-admit and durable anchors.",
    },
];

impl Workload {
    /// The workload named `name`.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same mix at a size that runs in about a second (`M = 8`,
    /// `n = 64`): the shape the test suite runs through every gate.
    #[must_use]
    pub fn smoke(self) -> Workload {
        Workload {
            sessions: 8,
            n: 64,
            wave_ms: 250,
            ..self
        }
    }

    /// Waves that fill `seconds` of serving (at least one).
    #[must_use]
    pub fn waves(&self, seconds: u64) -> usize {
        let waves = (seconds * 1000 + self.wave_ms / 2) / self.wave_ms.max(1);
        usize::try_from(waves).unwrap_or(usize::MAX).max(1)
    }
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// The layer it measures (`"e2e"` for end-to-end metrics).
    pub layer: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        layer: "e2e",
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what the result line carries without tracing,
/// each gated by a bound in `BENCHMARK.json`.
///
/// Server CPU is the whole process's CPU minus the generator's and the
/// shadow's threads, per delivered message, so the client side's own
/// work is not counted. On a shared host it drifts with other tenants'
/// load, so it is rescaled by the shadow (see [`crate::shadow`]) to the
/// host speed of the calibration. Throughput, delivery percentiles and the
/// paper's effort are reported per layer. Open-loop throughput follows
/// how long the host stalls the generator (every stall past a gap
/// re-anchors the sessions due in it), and its ten-run spread reached
/// 0.22. Latency is
/// bimodal — a receiver re-anchored after a shard stall changes tick
/// parity and every frame for it waits one more step — so its spread
/// exceeded a tenth too, and effort is a deterministic count. `fail_ratio`
/// is 0 on every valid run; the result line's `attempted`/`failed` carry
/// it.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("server_cpu_ns_per_msg", "ns/msg", Lower),
    e2e("setup_s", "s", Lower),
    e2e("peak_rss_mib", "MiB", Lower),
];

/// Per-layer metrics: what the result line carries with `--trace`.
pub const PER_LAYER: [MetricDef; 36] = [
    layer(
        "pump.cpu_ns_per_msg",
        "ns/msg",
        Lower,
        "serve::server",
        "server_cpu @ beta-fanin",
    ),
    layer(
        "shard.cpu_ns_per_msg",
        "ns/msg",
        Lower,
        "serve::shard",
        "server_cpu @ all, most @ beta-long",
    ),
    layer(
        "shard.steps_per_msg",
        "steps/msg",
        Lower,
        "serve::shard",
        "server_cpu @ beta-fanin",
    ),
    layer(
        "shard.useful_step_ratio",
        "ratio",
        Higher,
        "serve::shard",
        "server_cpu @ beta-fanin",
    ),
    layer(
        "shard.frames_out_per_msg",
        "frames/msg",
        Lower,
        "serve::shard",
        "effort @ gamma-acks",
    ),
    layer(
        "shard.ingress_drops",
        "count",
        Lower,
        "serve::server",
        "failed @ all",
    ),
    layer(
        "wheel.miss_rate",
        "ratio",
        Lower,
        "serve::wheel",
        "delivery.p99 @ beta-fanin",
    ),
    layer(
        "wheel.schedule_ns",
        "ns",
        Lower,
        "serve::wheel",
        "server_cpu @ beta-fanin",
    ),
    layer(
        "wheel.pop_ns",
        "ns",
        Lower,
        "serve::wheel",
        "server_cpu @ beta-fanin",
    ),
    layer(
        "hub.send_ns",
        "ns",
        Lower,
        "serve::hub",
        "delivery.p99 @ beta-fanin",
    ),
    layer(
        "hub.poll_ns",
        "ns",
        Lower,
        "serve::hub",
        "effort @ gamma-acks",
    ),
    layer(
        "hub.recv_batch_ns_per_frame",
        "ns",
        Lower,
        "serve::hub",
        "server_cpu @ beta-fanin",
    ),
    layer(
        "hub.egress_ns_per_frame",
        "ns",
        Lower,
        "serve::hub",
        "server_cpu, effort @ gamma-acks",
    ),
    layer(
        "wire.decode_ns",
        "ns",
        Lower,
        "net::wire",
        "server_cpu @ beta-fanin",
    ),
    layer(
        "wire.encode_ns",
        "ns",
        Lower,
        "net::wire",
        "server_cpu @ gamma-acks, stenning-recorded",
    ),
    layer(
        "endpoint.recv_ns",
        "ns",
        Lower,
        "serve::endpoint",
        "server_cpu @ beta-long",
    ),
    layer(
        "endpoint.step_ns",
        "ns",
        Lower,
        "serve::endpoint",
        "server_cpu @ beta-long",
    ),
    layer(
        "endpoint.calls_per_msg",
        "calls/msg",
        Lower,
        "serve::endpoint",
        "server_cpu @ all",
    ),
    layer(
        "rank.rank_ns",
        "ns",
        Lower,
        "combinatorics::rank",
        "server_cpu @ beta-fanin, gamma-acks",
    ),
    layer(
        "rank.unrank_ns",
        "ns",
        Lower,
        "combinatorics::rank",
        "setup_s @ beta-*",
    ),
    layer(
        "codec.decode_block_ns",
        "ns",
        Lower,
        "codec::block",
        "server_cpu @ beta-fanin",
    ),
    layer(
        "codec.encode_block_ns",
        "ns",
        Lower,
        "codec::block",
        "setup_s",
    ),
    layer(
        "snapshot.encode_ns",
        "ns",
        Lower,
        "serve::snapshot",
        "server_cpu @ stenning-recorded",
    ),
    layer(
        "snapshot.bytes",
        "bytes",
        Lower,
        "serve::snapshot",
        "server_cpu @ stenning-recorded",
    ),
    layer(
        "record.push_ns",
        "ns",
        Lower,
        "record::ring",
        "server_cpu @ stenning-recorded",
    ),
    layer(
        "record.events_per_msg",
        "events/msg",
        Lower,
        "record",
        "server_cpu @ stenning-recorded",
    ),
    layer(
        "record.shed_ratio",
        "ratio",
        Lower,
        "record",
        "server_cpu @ stenning-recorded",
    ),
    layer(
        "record.bytes_per_msg",
        "bytes/msg",
        Lower,
        "record",
        "server_cpu @ stenning-recorded",
    ),
    layer(
        "gen.cpu_ns_per_msg",
        "ns/msg",
        Lower,
        "harness",
        "nothing (validity check)",
    ),
    layer(
        "gen.late_p99_us",
        "us",
        Lower,
        "harness",
        "nothing (validity check)",
    ),
    layer(
        "shadow.cpu_ns_per_msg",
        "ns/msg",
        Lower,
        "harness",
        "nothing (host speed gauge)",
    ),
    layer(
        "attrib.unexplained_ns_per_msg",
        "ns/msg",
        Lower,
        "all",
        "server_cpu @ all",
    ),
    layer(
        "delivery.msgs_per_s",
        "msgs/s",
        Higher,
        "end to end",
        "not gated: ten-run spread above 0.1 under host stalls",
    ),
    layer(
        "delivery.p50_us",
        "us",
        Lower,
        "end to end",
        "not gated: ten-run spread above 0.1",
    ),
    layer(
        "delivery.p99_us",
        "us",
        Lower,
        "end to end",
        "not gated: ten-run spread above 0.1",
    ),
    layer(
        "effort.ticks_per_msg",
        "ticks/msg",
        Lower,
        "end to end",
        "not gated: exact per seed",
    ),
];
