//! Every short wake-lateness sequence books the same under the integer
//! `Pacer` as under the `Instant` rules it replaced.
//!
//! `rstp_net::Pacer` keeps time as `u64` nanoseconds since its clock's
//! epoch. [`Reference`] restates its rules in `Instant` and `Duration`
//! arithmetic, as they stood before that move. The test drives both
//! through every sequence of six wakes (and so every shorter prefix) over
//! a small grid: `(c1, c2, d)` = `(1, 1, 8)` and `(1, 2, 8)`, both paces,
//! and each wake late by one of 0, the slack, the slack + 1 ns, one gap,
//! or two gaps + 1 ns. Every booking, every next deadline and every
//! completion verdict must agree.
//!
//! This is the first exhaustive small-scope check of the pacing rules.
//! A c1 guard (ROADMAP item 1) will change the expected c1 side.

use rstp::core::TimingParams;
use rstp::net::{Cadence, Pace, Pacer, TickClock, Wake};
use std::time::{Duration, Instant};

/// Wakes per sequence.
const STEPS: u32 = 6;
/// Lateness values per wake.
const LATENESS: u32 = 5;

/// The pacing rules in `Instant` arithmetic, one session's history
/// included.
struct Reference {
    gap: Duration,
    lo: Duration,
    hi: Duration,
    slack: Duration,
    quiet_steps: u64,
    prev_wake: Option<Instant>,
    idle_streak: u64,
}

impl Reference {
    fn new(params: TimingParams, tick: Duration, pace: Pace) -> Self {
        let slack = tick / 4;
        let grace_ticks = 2 * (params.d().ticks() + params.c2().ticks());
        let gap_ticks = pace.gap_ticks(params).max(1);
        let ticks = |n: u64| tick * u32::try_from(n).unwrap();
        Reference {
            gap: ticks(gap_ticks),
            lo: ticks(params.c1().ticks()).saturating_sub(slack),
            hi: ticks(params.c2().ticks()) + slack,
            slack,
            quiet_steps: grace_ticks.div_ceil(gap_ticks).max(1),
            prev_wake: None,
            idle_streak: 0,
        }
    }

    fn wake(&mut self, due: Instant, wake: Instant) -> Wake {
        let late = wake.saturating_duration_since(due) > self.slack;
        let booked = match self.prev_wake {
            _ if late => Wake::Late,
            Some(prev) => {
                let observed = wake.saturating_duration_since(prev);
                if observed < self.lo || observed > self.hi {
                    Wake::Violation
                } else {
                    Wake::Punctual
                }
            }
            None => Wake::Punctual,
        };
        self.prev_wake = (!late).then_some(wake);
        booked
    }

    fn next_due(&mut self, due: Instant, wake: Instant) -> Instant {
        let next = due + self.gap;
        if wake > next + self.gap {
            self.prev_wake = None;
            wake
        } else {
            next
        }
    }

    fn settle(&mut self, productive: bool, done: bool) -> bool {
        if productive || !done {
            self.idle_streak = 0;
            return false;
        }
        self.idle_streak += 1;
        self.idle_streak >= self.quiet_steps
    }
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap()
}

#[test]
fn the_integer_pacer_books_every_short_lateness_sequence_as_the_instant_rules_did() {
    let tick = Duration::from_micros(100);
    let clock = TickClock::start(tick);
    let epoch = clock.epoch();
    let mut bookings = [0u64; 3];
    for (c1, c2, d) in [(1, 1, 8), (1, 2, 8)] {
        let params = TimingParams::from_ticks(c1, c2, d).unwrap();
        for pace in [Pace::Fast, Pace::Slow] {
            let pacer = Pacer::new(params, tick, pace);
            let Reference { slack, gap, .. } = Reference::new(params, tick, pace);
            let one = Duration::from_nanos(1);
            let lateness = [Duration::ZERO, slack, slack + one, gap, gap * 2 + one];
            for code in 0..LATENESS.pow(STEPS) {
                let mut reference = Reference::new(params, tick, pace);
                let mut cadence = Cadence::default();
                // The driver's first slot steps at tick 0, the epoch.
                let (mut due_at, mut due) = (epoch, 0u64);
                let mut digits = code;
                for step in 0..STEPS {
                    let late = lateness[(digits % LATENESS) as usize];
                    digits /= LATENESS;
                    let case = format!("{params:?} {pace:?} sequence {code} step {step}");
                    let wake_at = due_at + late;
                    let wake = due + ns(late);
                    assert_eq!(clock.nanos_at(wake_at), wake, "{case}");

                    let booked = pacer.wake(&mut cadence, due, wake);
                    assert_eq!(booked, reference.wake(due_at, wake_at), "{case}");
                    bookings[match booked {
                        Wake::Punctual => 0,
                        Wake::Late => 1,
                        Wake::Violation => 2,
                    }] += 1;
                    // A punctual step did some work; the others idled.
                    let productive = late.is_zero();
                    assert_eq!(
                        pacer.settle(&mut cadence, productive, true),
                        reference.settle(productive, true),
                        "{case}"
                    );
                    let next_at = reference.next_due(due_at, wake_at);
                    due = pacer.next_due(&mut cadence, due, wake);
                    assert_eq!(due, ns(next_at - epoch), "{case}");
                    due_at = next_at;
                }
            }
        }
    }
    let [punctual, late, violations] = bookings;
    assert!(punctual > 0 && late > 0, "{bookings:?}");
    // Punctual wakes are only ever measured against deadlines one gap
    // apart, so no sequence books a violation, not even a step that
    // follows a late one at once. A c1 guard will book those.
    assert_eq!(violations, 0, "{bookings:?}");
}
