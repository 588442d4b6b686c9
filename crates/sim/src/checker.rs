//! Trace validation against the RSTP problem definition (paper §4).
//!
//! A simulated run is only evidence if the produced timed behavior really
//! lies in `good(A)` and really solves the problem. [`check_trace`]
//! verifies, independently of the runner's own bookkeeping:
//!
//! * **Monotonicity** — event times never decrease (timing axiom, §2.2).
//! * **Safety** — at every point of the run, `Y` is a prefix of `X`.
//! * **Liveness** — at quiescence, `Y = X` (skipped for fault-injection
//!   runs, where its *failure* is the observation).
//! * **`Σ(A_t, A_r)`** — consecutive locally controlled events of each
//!   process are between `c1` and `c2` apart.
//! * **`Δ(C(P))` + channel fairness** — there is a bijection between
//!   `send` and `recv` events under which every packet is received within
//!   `[d_lo, d_hi]` of its send and never before it. The checker constructs
//!   the witness matching explicitly (per-value FIFO, which is valid
//!   whenever any valid matching exists, by the classic exchange argument
//!   for interval constraints). Under injected loss or duplication no
//!   bijection exists, so each `recv` needs only a witness: some send of
//!   the same value between `d_hi` and `d_lo` before it.

use crate::trace::SimTrace;
use core::fmt;
use rstp_automata::{timed, Time, TimeDelta};
use rstp_core::{Message, Owner, Packet, RstpAction};
use std::collections::BTreeMap;

/// A single violation found in a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Event times decreased.
    NonMonotone {
        /// Index of the offending event.
        index: usize,
    },
    /// A `write` diverged from `X` (safety: `Y` must remain a prefix).
    SafetyPrefix {
        /// Position in `Y` (0-based).
        position: usize,
        /// The value `X` holds there (`None` if `Y` outran `X`).
        expected: Option<Message>,
        /// The written value.
        actual: Message,
    },
    /// The run quiesced without writing all of `X`.
    Liveness {
        /// Messages written.
        written: usize,
        /// Messages expected (`|X|`).
        expected: usize,
    },
    /// Two consecutive local events of one process violate `[c1, c2]`.
    StepSpacing {
        /// The process.
        owner: Owner,
        /// Rendered detail from the spacing checker.
        detail: String,
    },
    /// A matched send/recv pair violates the delivery window.
    DeliveryDelay {
        /// The packet.
        packet: Packet,
        /// Rendered detail from the delay checker.
        detail: String,
    },
    /// More `recv`s than `send`s for a packet value (duplication).
    UnmatchedRecv {
        /// The packet.
        packet: Packet,
        /// `send` count.
        sends: usize,
        /// `recv` count.
        recvs: usize,
    },
    /// Fewer `recv`s than `send`s for a packet value (loss).
    UndeliveredSend {
        /// The packet.
        packet: Packet,
        /// `send` count.
        sends: usize,
        /// `recv` count.
        recvs: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::NonMonotone { index } => write!(f, "time decreases at event {index}"),
            Violation::SafetyPrefix {
                position,
                expected,
                actual,
            } => write!(
                f,
                "write #{position} = {actual}, X says {expected:?} — Y is not a prefix of X"
            ),
            Violation::Liveness { written, expected } => {
                write!(f, "quiesced after writing {written}/{expected} messages")
            }
            Violation::StepSpacing { owner, detail } => {
                write!(f, "Σ violated for {owner:?}: {detail}")
            }
            Violation::DeliveryDelay { packet, detail } => {
                write!(f, "Δ violated for {packet}: {detail}")
            }
            Violation::UnmatchedRecv {
                packet,
                sends,
                recvs,
            } => write!(
                f,
                "{packet}: {recvs} recvs but only {sends} sends (duplication)"
            ),
            Violation::UndeliveredSend {
                packet,
                sends,
                recvs,
            } => write!(f, "{packet}: {sends} sends but only {recvs} recvs (loss)"),
        }
    }
}

/// The checker's configuration.
///
/// Step bounds are per process (§7 extension); the classical model sets
/// both equal via [`CheckConfig::from_params`].
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    /// The transmitter's step bounds.
    pub transmitter: rstp_core::ProcessTiming,
    /// The receiver's step bounds.
    pub receiver: rstp_core::ProcessTiming,
    /// Minimum delivery delay.
    pub d_lo: TimeDelta,
    /// Maximum delivery delay.
    pub d_hi: TimeDelta,
    /// Require `Y = X` at the end (off for fault-injection runs).
    pub expect_complete: bool,
    /// Require the send/recv bijection (off when loss/duplication was
    /// injected on purpose).
    pub expect_bijection: bool,
}

impl CheckConfig {
    /// The classical configuration for a validated parameter triple.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "TimingParams holds c1 <= c2, so ProcessTiming::new cannot fail"
    )]
    pub fn from_params(params: rstp_core::TimingParams) -> Self {
        let bounds = rstp_core::ProcessTiming::new(params.c1(), params.c2())
            .expect("TimingParams invariants imply valid process bounds");
        CheckConfig {
            transmitter: bounds,
            receiver: bounds,
            d_lo: TimeDelta::ZERO,
            d_hi: params.d(),
            expect_complete: true,
            expect_bijection: true,
        }
    }

    /// The configuration for the §7 extended model.
    #[must_use]
    pub fn from_ext(ext: rstp_core::TimingParamsExt) -> Self {
        CheckConfig {
            transmitter: ext.transmitter(),
            receiver: ext.receiver(),
            d_lo: ext.d_lo(),
            d_hi: ext.d_hi(),
            expect_complete: true,
            expect_bijection: true,
        }
    }
}

/// The outcome of [`check_trace`]: all violations found (empty = the trace
/// is a `good(A)` behavior that solves RSTP for its input).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Violations, in detection order.
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// Whether no violations were found.
    #[must_use]
    pub fn all_good(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether a specific class of violation is present.
    #[must_use]
    pub fn has<F: Fn(&Violation) -> bool>(&self, pred: F) -> bool {
        self.violations.iter().any(pred)
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.all_good() {
            return f.write_str("trace OK: good(A) behavior, Y = X");
        }
        writeln!(f, "{} violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// Validates a trace; see the module docs for the checked properties.
#[must_use]
pub fn check_trace(trace: &SimTrace, cfg: &CheckConfig) -> CheckReport {
    let mut report = CheckReport::default();
    check_monotone(trace, &mut report);
    check_safety(trace, cfg, &mut report);
    check_sigma(trace, cfg, &mut report);
    check_delta(trace, cfg, &mut report);
    report
}

fn check_monotone(trace: &SimTrace, report: &mut CheckReport) {
    let events = trace.events();
    for (i, w) in events.windows(2).enumerate() {
        if w[1].time < w[0].time {
            report
                .violations
                .push(Violation::NonMonotone { index: i + 1 });
            return; // one report suffices; later checks assume order anyway
        }
    }
}

fn check_safety(trace: &SimTrace, cfg: &CheckConfig, report: &mut CheckReport) {
    let input = trace.input();
    let mut position = 0usize;
    for e in trace.events() {
        if let RstpAction::Write(m) = e.action {
            match input.get(position) {
                Some(&x) if x == m => {}
                expected => {
                    report.violations.push(Violation::SafetyPrefix {
                        position,
                        expected: expected.copied(),
                        actual: m,
                    });
                    return;
                }
            }
            position += 1;
        }
    }
    if cfg.expect_complete && position != input.len() {
        report.violations.push(Violation::Liveness {
            written: position,
            expected: input.len(),
        });
    }
}

fn check_sigma(trace: &SimTrace, cfg: &CheckConfig, report: &mut CheckReport) {
    for (owner, bounds) in [
        (Owner::Transmitter, cfg.transmitter),
        (Owner::Receiver, cfg.receiver),
    ] {
        let times = trace.local_event_times(owner);
        if let Err(e) = timed::check_spacing(&times, bounds.c1(), bounds.c2(), None) {
            report.violations.push(Violation::StepSpacing {
                owner,
                detail: e.to_string(),
            });
        }
    }
}

fn check_delta(trace: &SimTrace, cfg: &CheckConfig, report: &mut CheckReport) {
    // Group send and recv times per packet value.
    let mut per_packet: BTreeMap<Packet, (Vec<Time>, Vec<Time>)> = BTreeMap::new();
    for e in trace.events() {
        match e.action {
            RstpAction::Send(p) => per_packet.entry(p).or_default().0.push(e.time),
            RstpAction::Recv(p) => per_packet.entry(p).or_default().1.push(e.time),
            _ => {}
        }
    }
    for (packet, (sends, recvs)) in per_packet {
        if !cfg.expect_bijection {
            // A drop leaves a send unmatched and a duplicate receives one
            // send twice, so FIFO pairing would misalign; the latest send
            // at or before `r - d_lo` is the tightest witness for `r`.
            for (i, &r) in recvs.iter().enumerate() {
                let early_enough =
                    sends.partition_point(|&s| r.checked_since(s).is_some_and(|g| g >= cfg.d_lo));
                let witness = early_enough.checked_sub(1).and_then(|j| sends.get(j));
                if witness.is_some_and(|&s| r - s <= cfg.d_hi) {
                    continue;
                }
                report.violations.push(Violation::DeliveryDelay {
                    packet,
                    detail: format!(
                        "recv #{i} at {r} has no send of it in [{r} - {}, {r} - {}]",
                        cfg.d_hi, cfg.d_lo
                    ),
                });
                break;
            }
            continue;
        }
        if recvs.len() > sends.len() {
            report.violations.push(Violation::UnmatchedRecv {
                packet,
                sends: sends.len(),
                recvs: recvs.len(),
            });
            continue;
        }
        if recvs.len() < sends.len() {
            report.violations.push(Violation::UndeliveredSend {
                packet,
                sends: sends.len(),
                recvs: recvs.len(),
            });
            continue;
        }
        // Per-value FIFO matching.
        let pairs: Vec<(Time, Time)> = sends.iter().copied().zip(recvs.iter().copied()).collect();
        // Window lower bound: recv - send >= d_lo too.
        if let Err(e) = timed::check_delays(&pairs, cfg.d_hi) {
            report.violations.push(Violation::DeliveryDelay {
                packet,
                detail: e.to_string(),
            });
            continue;
        }
        if !cfg.d_lo.is_zero() {
            for (i, &(s, r)) in pairs.iter().enumerate() {
                if r - s < cfg.d_lo {
                    report.violations.push(Violation::DeliveryDelay {
                        packet,
                        detail: format!("pair #{i} delivered after {}, min {}", r - s, cfg.d_lo),
                    });
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstp_core::TimingParams;

    fn t(n: u64) -> Time {
        Time::from_ticks(n)
    }

    fn cfg() -> CheckConfig {
        CheckConfig::from_params(TimingParams::from_ticks(2, 3, 8).unwrap())
    }

    /// A hand-built good trace: one message, send at 0, recv at 8, write
    /// at 9 (receiver local events at 0, 3, 6, 9 spaced 3 = c2 apart).
    fn good_trace() -> SimTrace {
        let mut tr = SimTrace::new(vec![true]);
        tr.push(t(0), RstpAction::Send(Packet::Data(1)));
        tr.push(
            t(0),
            RstpAction::ReceiverInternal(rstp_core::InternalKind::Idle),
        );
        tr.push(
            t(3),
            RstpAction::ReceiverInternal(rstp_core::InternalKind::Idle),
        );
        tr.push(
            t(6),
            RstpAction::ReceiverInternal(rstp_core::InternalKind::Idle),
        );
        tr.push(t(8), RstpAction::Recv(Packet::Data(1)));
        tr.push(t(9), RstpAction::Write(true));
        tr
    }

    #[test]
    fn good_trace_passes() {
        let report = check_trace(&good_trace(), &cfg());
        assert!(report.all_good(), "{report}");
        assert_eq!(report.to_string(), "trace OK: good(A) behavior, Y = X");
    }

    #[test]
    fn wrong_write_is_a_safety_violation() {
        let mut tr = SimTrace::new(vec![true]);
        tr.push(t(0), RstpAction::Write(false));
        let report = check_trace(&tr, &cfg());
        assert!(report.has(|v| matches!(v, Violation::SafetyPrefix { .. })));
    }

    #[test]
    fn extra_write_is_a_safety_violation() {
        let mut tr = SimTrace::new(vec![true]);
        tr.push(t(0), RstpAction::Write(true));
        tr.push(t(3), RstpAction::Write(true)); // Y longer than X
        let report = check_trace(&tr, &cfg());
        assert!(report.has(|v| matches!(v, Violation::SafetyPrefix { expected: None, .. })));
    }

    #[test]
    fn incomplete_output_is_a_liveness_violation() {
        let tr = SimTrace::new(vec![true, false]);
        let report = check_trace(&tr, &cfg());
        assert!(report.has(|v| matches!(
            v,
            Violation::Liveness {
                written: 0,
                expected: 2
            }
        )));
        // …unless completion is not expected.
        let mut c = cfg();
        c.expect_complete = false;
        assert!(check_trace(&tr, &c).all_good());
    }

    #[test]
    fn too_fast_steps_violate_sigma() {
        let mut tr = SimTrace::new(vec![]);
        tr.push(t(0), RstpAction::Send(Packet::Data(0)));
        tr.push(t(1), RstpAction::Send(Packet::Data(0))); // gap 1 < c1 = 2
        tr.push(t(4), RstpAction::Recv(Packet::Data(0)));
        tr.push(t(5), RstpAction::Recv(Packet::Data(0)));
        let report = check_trace(&tr, &cfg());
        assert!(report.has(|v| matches!(
            v,
            Violation::StepSpacing {
                owner: Owner::Transmitter,
                ..
            }
        )));
    }

    #[test]
    fn too_slow_steps_violate_sigma() {
        let mut tr = SimTrace::new(vec![]);
        tr.push(t(0), RstpAction::Send(Packet::Data(0)));
        tr.push(t(99), RstpAction::Send(Packet::Data(0))); // gap 99 > c2 = 3
        tr.push(t(99), RstpAction::Recv(Packet::Data(0)));
        tr.push(t(99), RstpAction::Recv(Packet::Data(0)));
        let report = check_trace(&tr, &cfg());
        assert!(report.has(|v| matches!(v, Violation::StepSpacing { .. })));
    }

    #[test]
    fn recvs_are_not_process_steps() {
        // Deliveries may be arbitrarily close together without violating Σ.
        let mut tr = SimTrace::new(vec![]);
        tr.push(t(0), RstpAction::Send(Packet::Data(0)));
        tr.push(t(3), RstpAction::Send(Packet::Data(0)));
        tr.push(t(3), RstpAction::Recv(Packet::Data(0)));
        tr.push(t(3), RstpAction::Recv(Packet::Data(0)));
        assert!(check_trace(&tr, &cfg()).all_good());
    }

    #[test]
    fn late_delivery_violates_delta() {
        let mut tr = SimTrace::new(vec![]);
        tr.push(t(0), RstpAction::Send(Packet::Data(0)));
        tr.push(t(9), RstpAction::Recv(Packet::Data(0))); // 9 > d = 8
        let report = check_trace(&tr, &cfg());
        assert!(report.has(|v| matches!(v, Violation::DeliveryDelay { .. })));
    }

    #[test]
    fn recv_before_send_violates_delta() {
        let mut tr = SimTrace::new(vec![]);
        // Same-value FIFO matching pairs recv@1 with send@2.
        tr.push(t(1), RstpAction::Recv(Packet::Data(0)));
        tr.push(t(2), RstpAction::Send(Packet::Data(0)));
        let report = check_trace(&tr, &cfg());
        assert!(
            report.has(|v| matches!(v, Violation::DeliveryDelay { .. })),
            "{report}"
        );
    }

    #[test]
    fn loss_and_duplication_break_the_bijection() {
        let mut lost = SimTrace::new(vec![]);
        lost.push(t(0), RstpAction::Send(Packet::Data(0)));
        let report = check_trace(&lost, &cfg());
        assert!(report.has(|v| matches!(v, Violation::UndeliveredSend { .. })));

        let mut duped = SimTrace::new(vec![]);
        duped.push(t(0), RstpAction::Send(Packet::Data(0)));
        duped.push(t(1), RstpAction::Recv(Packet::Data(0)));
        duped.push(t(2), RstpAction::Recv(Packet::Data(0)));
        let report = check_trace(&duped, &cfg());
        assert!(report.has(|v| matches!(v, Violation::UnmatchedRecv { .. })));

        // With bijection checking off (fault-injection runs), both pass the
        // delta stage (the prefix that was delivered is still on time).
        let mut c = cfg();
        c.expect_bijection = false;
        c.expect_complete = false;
        assert!(check_trace(&lost, &c).all_good());
        assert!(check_trace(&duped, &c).all_good());
    }

    #[test]
    fn duplicate_copy_matches_its_own_send_not_a_later_one() {
        // Value 0 is sent at 0 and 3. The first copy is duplicated (recvs
        // at 1 and 2) and the second arrives at 8. FIFO pairing would match
        // the recv at 2 with the send at 3: received before sent.
        let mut tr = SimTrace::new(vec![]);
        tr.push(t(0), RstpAction::Send(Packet::Data(0)));
        tr.push(t(1), RstpAction::Recv(Packet::Data(0)));
        tr.push(t(2), RstpAction::Recv(Packet::Data(0)));
        tr.push(t(3), RstpAction::Send(Packet::Data(0)));
        tr.push(t(8), RstpAction::Recv(Packet::Data(0)));
        let mut c = cfg();
        c.expect_bijection = false;
        c.expect_complete = false;
        assert!(check_trace(&tr, &c).all_good(), "{}", check_trace(&tr, &c));
    }

    #[test]
    fn without_a_bijection_every_recv_still_needs_a_send_within_d() {
        let mut c = cfg();
        c.expect_bijection = false;
        c.expect_complete = false;
        // A recv with no earlier send of its value.
        let mut early = SimTrace::new(vec![]);
        early.push(t(0), RstpAction::Recv(Packet::Data(0)));
        early.push(t(1), RstpAction::Send(Packet::Data(0)));
        assert!(check_trace(&early, &c).has(|v| matches!(v, Violation::DeliveryDelay { .. })));
        // A duplicate delivered past d = 8 of its only send.
        let mut late = SimTrace::new(vec![]);
        late.push(t(0), RstpAction::Send(Packet::Data(0)));
        late.push(t(2), RstpAction::Recv(Packet::Data(0)));
        late.push(t(9), RstpAction::Recv(Packet::Data(0)));
        assert!(check_trace(&late, &c).has(|v| matches!(v, Violation::DeliveryDelay { .. })));
        // d_lo: the send at 2 is too recent for a recv at 3, the one at 0
        // is early enough.
        c.d_lo = TimeDelta::from_ticks(2);
        let mut window = SimTrace::new(vec![]);
        window.push(t(0), RstpAction::Send(Packet::Data(0)));
        window.push(t(2), RstpAction::Send(Packet::Data(0)));
        window.push(t(3), RstpAction::Recv(Packet::Data(0)));
        assert!(check_trace(&window, &c).all_good());
        let mut too_soon = SimTrace::new(vec![]);
        too_soon.push(t(2), RstpAction::Send(Packet::Data(0)));
        too_soon.push(t(3), RstpAction::Recv(Packet::Data(0)));
        assert!(check_trace(&too_soon, &c).has(|v| matches!(v, Violation::DeliveryDelay { .. })));
    }

    #[test]
    fn min_delay_window_enforced() {
        let mut c = cfg();
        c.d_lo = TimeDelta::from_ticks(3);
        let mut tr = SimTrace::new(vec![]);
        tr.push(t(0), RstpAction::Send(Packet::Data(0)));
        tr.push(t(1), RstpAction::Recv(Packet::Data(0))); // too early
        let report = check_trace(&tr, &c);
        assert!(report.has(|v| matches!(v, Violation::DeliveryDelay { .. })));
    }

    #[test]
    fn non_monotone_trace_detected() {
        let mut tr = SimTrace::new(vec![]);
        tr.push(t(5), RstpAction::Send(Packet::Data(0)));
        tr.push(t(4), RstpAction::Recv(Packet::Data(0)));
        let report = check_trace(&tr, &cfg());
        assert!(report.has(|v| matches!(v, Violation::NonMonotone { index: 1 })));
    }

    #[test]
    fn violation_displays_are_informative() {
        let vs = [
            Violation::NonMonotone { index: 3 },
            Violation::SafetyPrefix {
                position: 1,
                expected: Some(true),
                actual: false,
            },
            Violation::Liveness {
                written: 1,
                expected: 2,
            },
            Violation::StepSpacing {
                owner: Owner::Receiver,
                detail: "gap".into(),
            },
            Violation::DeliveryDelay {
                packet: Packet::Data(0),
                detail: "late".into(),
            },
            Violation::UnmatchedRecv {
                packet: Packet::Ack(0),
                sends: 1,
                recvs: 2,
            },
            Violation::UndeliveredSend {
                packet: Packet::Data(1),
                sends: 2,
                recvs: 1,
            },
        ];
        for v in vs {
            assert!(!v.to_string().is_empty());
        }
    }
}
