//! Tick-to-wall-clock mapping for the real-time driver.
//!
//! The paper measures time in abstract units; the simulator counts ticks.
//! [`TickClock`] anchors an epoch `Instant` and converts tick counts into
//! absolute deadlines, so scheduling drift does not accumulate: sleeping
//! to `epoch + n·tick` self-corrects even when individual sleeps overshoot.
//!
//! It is also the one reader of the wall clock. A paced loop takes one
//! [`TickClock::now`] reading per step (or [`TickClock::sleep_until`]'s
//! wake instant), converts it once to `u64` nanoseconds since the epoch
//! ([`TickClock::nanos_at`]), and derives every time in that step from
//! that integer, as the paper's process steps at one instant. Ticks and
//! deadlines convert in the same unit ([`TickClock::nanos_of_tick`],
//! [`TickClock::tick_of_nanos`]), saturating rather than wrapping; an
//! `Instant` is rebuilt only to sleep ([`TickClock::instant_of_nanos`]).

#![expect(
    clippy::disallowed_methods,
    reason = "TickClock is the one wall-clock reader"
)]

use std::time::{Duration, Instant};

/// A wall clock anchored at an epoch, graduated in fixed-length ticks.
#[derive(Clone, Copy, Debug)]
pub struct TickClock {
    epoch: Instant,
    tick: Duration,
    /// `tick` in nanoseconds, the unit of every integer time below.
    tick_ns: u64,
}

/// `d` in whole nanoseconds, saturating past `u64::MAX` (584 years).
#[inline]
pub(crate) fn nanos(d: Duration) -> u64 {
    d.as_secs()
        .saturating_mul(1_000_000_000)
        .saturating_add(u64::from(d.subsec_nanos()))
}

impl TickClock {
    /// Starts a clock now with the given tick length.
    pub fn start(tick: Duration) -> Self {
        TickClock::with_epoch(Instant::now(), tick)
    }

    /// A clock sharing an existing epoch — both endpoints of an
    /// in-process transfer use this so their microsecond readings are
    /// directly comparable for latency measurement.
    pub fn with_epoch(epoch: Instant, tick: Duration) -> Self {
        TickClock {
            epoch,
            tick,
            tick_ns: nanos(tick),
        }
    }

    /// Starts a clock whose epoch lies `headroom` in the future, so every
    /// participant handed a copy can finish setup before tick 0 fires.
    /// This is the sanctioned way to anchor a transfer start; reading
    /// `Instant::now()` at call sites would scatter unaccounted
    /// wall-clock reads across the workspace (`clippy.toml` bans them).
    pub fn start_after(headroom: Duration, tick: Duration) -> Self {
        TickClock::with_epoch(Instant::now() + headroom, tick)
    }

    /// The clock's epoch.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Wall-clock length of one tick.
    pub fn tick(&self) -> Duration {
        self.tick
    }

    /// One wall-clock reading.
    #[inline]
    pub fn now(&self) -> Instant {
        Instant::now()
    }

    /// Microseconds elapsed since the epoch.
    pub fn now_micros(&self) -> u64 {
        self.nanos_at(self.now()) / 1_000
    }

    /// Nanoseconds from the epoch to `at` (0 before the epoch): the
    /// integer time a paced step books, stamps and schedules in.
    #[inline]
    pub fn nanos_at(&self, at: Instant) -> u64 {
        nanos(at.saturating_duration_since(self.epoch))
    }

    /// The instant `ns` nanoseconds after the epoch, the inverse of
    /// [`TickClock::nanos_at`], for sleeping to an integer deadline.
    #[inline]
    pub fn instant_of_nanos(&self, ns: u64) -> Instant {
        // At most 584 years past the epoch, well inside `Instant`'s range.
        self.epoch + Duration::from_nanos(ns)
    }

    /// Nanoseconds from the epoch to the start of tick `n`, saturating.
    #[inline]
    pub fn nanos_of_tick(&self, n: u64) -> u64 {
        n.saturating_mul(self.tick_ns)
    }

    /// The tick that `ns` nanoseconds after the epoch falls in.
    #[inline]
    pub fn tick_of_nanos(&self, ns: u64) -> u64 {
        ns / self.tick_ns.max(1)
    }

    /// The absolute instant of tick `n`.
    pub fn instant_of_tick(&self, n: u64) -> Instant {
        self.instant_of_nanos(self.nanos_of_tick(n))
    }

    /// Sleeps until `deadline` and returns the instant the caller woke,
    /// never before `deadline`. A deadline already in the past sleeps
    /// nothing and returns the reading that found it past.
    pub fn sleep_until(&self, deadline: Instant) -> Instant {
        let now = self.now();
        if deadline <= now {
            return now;
        }
        std::thread::sleep(deadline - now);
        self.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_instants_are_multiples_of_the_tick() {
        let tick = Duration::from_micros(100);
        let clock = TickClock::start(tick);
        assert_eq!(
            clock.instant_of_tick(10) - clock.epoch(),
            Duration::from_millis(1)
        );
        assert_eq!(clock.instant_of_tick(0), clock.epoch());
    }

    #[test]
    fn tick_instants_past_two_to_the_32_ticks_keep_counting() {
        let tick = Duration::from_micros(1);
        let clock = TickClock::start(tick);
        let n = (1u64 << 32) + 3;
        assert_eq!(
            clock.instant_of_tick(n) - clock.epoch(),
            Duration::from_micros(n)
        );
        assert_eq!(
            clock.tick_of_nanos(clock.nanos_at(clock.instant_of_tick(n))),
            n
        );
        // A tick whose nanoseconds overflow saturates, never wraps.
        assert_eq!(clock.nanos_of_tick(u64::MAX / 500), u64::MAX);
    }

    #[test]
    fn nanos_at_and_instant_of_nanos_are_inverse() {
        let clock = TickClock::start(Duration::from_micros(100));
        for ns in [0, 1, 999, 1_000, 123_456_789, 5_000_000_001] {
            assert_eq!(clock.nanos_at(clock.instant_of_nanos(ns)), ns);
        }
        assert_eq!(clock.nanos_at(clock.epoch() - Duration::from_millis(1)), 0);
        assert_eq!(clock.nanos_of_tick(7), 700_000);
        assert_eq!(clock.tick_of_nanos(799_999), 7);
    }

    #[test]
    fn tick_of_nanos_inverts_instant_of_tick() {
        let clock = TickClock::start(Duration::from_micros(300));
        let tick_at = |at| clock.tick_of_nanos(clock.nanos_at(at));
        for n in [0, 1, 7, 1000] {
            assert_eq!(tick_at(clock.instant_of_tick(n)), n);
        }
        let mid = clock.instant_of_tick(4) + Duration::from_micros(299);
        assert_eq!(tick_at(mid), 4);
        assert_eq!(tick_at(clock.epoch() - Duration::from_millis(1)), 0);
    }

    #[test]
    fn sleep_until_past_deadline_returns_at_once() {
        let clock = TickClock::start(Duration::from_micros(100));
        let deadline = clock.now() - Duration::from_millis(5);
        let woke = clock.sleep_until(deadline);
        assert!(woke.saturating_duration_since(deadline) >= Duration::from_millis(5));
    }

    #[test]
    fn sleep_until_future_deadline_waits() {
        let clock = TickClock::start(Duration::from_micros(100));
        let deadline = clock.now() + Duration::from_millis(10);
        let woke = clock.sleep_until(deadline);
        assert!(woke >= deadline);
        assert!(clock.now() >= woke);
        // Overshoot is OS scheduling noise; it must at least be measured.
        assert!(woke - deadline < Duration::from_secs(1));
    }

    #[test]
    fn nanos_at_reads_a_given_instant() {
        let clock = TickClock::start(Duration::from_micros(100));
        let at = clock.epoch() + Duration::from_nanos(1_234_567);
        assert_eq!(clock.nanos_at(at), 1_234_567);
        // Stamps floor to whole microseconds.
        assert_eq!(clock.nanos_at(at) / 1_000, 1234);
        assert_eq!(clock.nanos_at(clock.epoch() - Duration::from_millis(1)), 0);
        assert_eq!(clock.tick_of_nanos(clock.nanos_at(at)), 12);
    }

    #[test]
    fn shared_epoch_clocks_agree() {
        let epoch = Instant::now();
        let a = TickClock::with_epoch(epoch, Duration::from_micros(100));
        let b = TickClock::with_epoch(epoch, Duration::from_micros(100));
        let (ta, tb) = (a.now_micros(), b.now_micros());
        assert!(tb.abs_diff(ta) < 50_000, "clocks diverged: {ta} vs {tb}");
    }
}
