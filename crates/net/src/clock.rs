//! Tick-to-wall-clock mapping for the real-time driver.
//!
//! The paper measures time in abstract units; the simulator counts ticks.
//! [`TickClock`] anchors an epoch `Instant` and converts tick counts into
//! absolute deadlines, so scheduling drift does not accumulate: sleeping
//! to `epoch + n·tick` self-corrects even when individual sleeps overshoot.
//!
//! It is also the one reader of the wall clock. A paced loop takes one
//! [`TickClock::now`] reading per step (or [`TickClock::sleep_until`]'s
//! wake instant) and derives every time in that step from it, as the
//! paper's process steps at one instant.

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
}

impl TickClock {
    /// Starts a clock now with the given tick length.
    pub fn start(tick: Duration) -> Self {
        TickClock {
            epoch: Instant::now(),
            tick,
        }
    }

    /// A clock sharing an existing epoch — both endpoints of an
    /// in-process transfer use this so their microsecond readings are
    /// directly comparable for latency measurement.
    pub fn with_epoch(epoch: Instant, tick: Duration) -> Self {
        TickClock { epoch, tick }
    }

    /// Starts a clock whose epoch lies `headroom` in the future, so every
    /// participant handed a copy can finish setup before tick 0 fires.
    /// This is the sanctioned way to anchor a transfer start; reading
    /// `Instant::now()` at call sites would scatter unaccounted
    /// wall-clock reads across the workspace (`clippy.toml` bans them).
    pub fn start_after(headroom: Duration, tick: Duration) -> Self {
        TickClock {
            epoch: Instant::now() + headroom,
            tick,
        }
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
        self.micros_at(self.now())
    }

    /// Microseconds from the epoch to `at` (0 before the epoch).
    #[inline]
    pub fn micros_at(&self, at: Instant) -> u64 {
        let since = at.saturating_duration_since(self.epoch).as_micros();
        u64::try_from(since).unwrap_or(u64::MAX)
    }

    /// The absolute instant of tick `n`.
    pub fn instant_of_tick(&self, n: u64) -> Instant {
        self.epoch + self.tick * u32::try_from(n).unwrap_or(u32::MAX)
    }

    /// The tick `at` falls in (ticks before the epoch count as tick 0),
    /// at the microsecond resolution of [`TickClock::micros_at`].
    #[inline]
    pub fn tick_at(&self, at: Instant) -> u64 {
        let tick = u64::try_from(self.tick.as_micros()).unwrap_or(u64::MAX);
        self.micros_at(at) / tick.max(1)
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
    fn tick_at_inverts_instant_of_tick() {
        let clock = TickClock::start(Duration::from_micros(300));
        for n in [0, 1, 7, 1000] {
            assert_eq!(clock.tick_at(clock.instant_of_tick(n)), n);
        }
        let mid = clock.instant_of_tick(4) + Duration::from_micros(299);
        assert_eq!(clock.tick_at(mid), 4);
        assert_eq!(clock.tick_at(clock.epoch() - Duration::from_millis(1)), 0);
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
    fn micros_at_reads_a_given_instant() {
        let clock = TickClock::start(Duration::from_micros(100));
        let at = clock.epoch() + Duration::from_micros(1234);
        assert_eq!(clock.micros_at(at), 1234);
        assert_eq!(clock.micros_at(clock.epoch() - Duration::from_millis(1)), 0);
        assert_eq!(clock.tick_at(at), 12);
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
