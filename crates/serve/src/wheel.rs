//! The shard's step deadlines: one ordered map from tick to the tokens
//! due at it, read by the one thread that sleeps on it.
//!
//! A per-session driver sleeps once per step; a server running `M`
//! sessions cannot afford `M` sleeping threads. A shard instead keeps
//! every session's next deadline here and sleeps to the first one. A
//! session's next deadline lies at most one gap after its last step, so
//! however many sessions a shard paces, their deadlines fall on a handful
//! of distinct ticks (one or two in measured swarms). The map therefore
//! stays tiny: `schedule` appends to its tick's list, `advance` takes
//! whole lists off the front, and `next_due` reads the first key.
//!
//! The wheel is deliberately *not* wall-clock-aware: it counts abstract
//! ticks and the shard maps them through its `TickClock`, the same
//! separation the real-time driver uses. Deadline-miss accounting
//! therefore stays where it already lives — in the shard's step loop —
//! and the wheel only answers "whose deadline is ≤ now?".

use std::collections::BTreeMap;

/// Session deadlines over abstract ticks.
///
/// Tokens are opaque to the wheel (shards use session-table indices).
/// `advance(now)` returns every token whose deadline is ≤ `now`, in
/// deadline order, and tokens sharing a deadline in scheduling order.
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// Tokens by deadline tick, each list in scheduling order.
    due: BTreeMap<u64, Vec<T>>,
    /// Scheduled tokens, across all ticks.
    len: usize,
}

impl<T> TimerWheel<T> {
    /// An empty wheel.
    #[must_use]
    pub fn new() -> Self {
        TimerWheel {
            due: BTreeMap::new(),
            len: 0,
        }
    }

    /// Number of scheduled entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `token` at absolute tick `due_tick`. A deadline at or
    /// before the last [`advance`] is delivered by the next one
    /// (deadlines in the past are the server's miss-accounting problem,
    /// not a scheduling error).
    ///
    /// [`advance`]: Self::advance
    pub fn schedule(&mut self, due_tick: u64, token: T) {
        self.due.entry(due_tick).or_default().push(token);
        self.len += 1;
    }

    /// Appends every token whose deadline is ≤ `to` onto `due`, in
    /// deadline order. `to` never falls behind an earlier call's: the
    /// shard advances to the tick of a monotonic clock reading.
    pub fn advance(&mut self, to: u64, due: &mut Vec<(u64, T)>) {
        while let Some(first) = self.due.first_entry() {
            if *first.key() > to {
                break;
            }
            let (tick, tokens) = first.remove_entry();
            self.len -= tokens.len();
            due.extend(tokens.into_iter().map(|token| (tick, token)));
        }
    }

    /// The earliest scheduled deadline, or `None` when empty.
    #[must_use]
    pub fn next_due(&self) -> Option<u64> {
        self.due.keys().next().copied()
    }
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Drains the wheel up to `to` and returns `(due_tick, token)` pairs.
    fn drain_to(w: &mut TimerWheel<u32>, to: u64) -> Vec<(u64, u32)> {
        let mut due = Vec::new();
        w.advance(to, &mut due);
        due
    }

    #[test]
    fn single_entry_fires_at_its_tick() {
        let mut w = TimerWheel::new();
        w.schedule(5, 1u32);
        assert_eq!(w.len(), 1);
        assert!(drain_to(&mut w, 4).is_empty());
        assert_eq!(drain_to(&mut w, 5), vec![(5, 1)]);
        assert!(w.is_empty());
    }

    #[test]
    fn overdue_entries_fire_immediately() {
        let mut w = TimerWheel::new();
        drain_to(&mut w, 100);
        w.schedule(50, 7u32); // already past
        w.schedule(100, 8u32); // exactly now
        assert_eq!(drain_to(&mut w, 100), vec![(50, 7), (100, 8)]);
    }

    #[test]
    fn entries_cascade_across_level_boundaries() {
        // Deadlines straddling 64 and 4096 and far beyond — the
        // off-by-one territory of a slotted wheel's cascades.
        let mut w = TimerWheel::new();
        for due in [63u64, 64, 65, 4095, 4096, 4097, 300_000] {
            w.schedule(due, due as u32);
        }
        let mut fired = Vec::new();
        w.advance(300_000, &mut fired);
        let ticks: Vec<u64> = fired.iter().map(|&(d, _)| d).collect();
        assert_eq!(ticks, vec![63, 64, 65, 4095, 4096, 4097, 300_000]);
        for (d, t) in fired {
            assert_eq!(d as u32, t, "token must fire at its own deadline");
        }
    }

    #[test]
    fn matches_a_reference_model_under_pseudorandom_load() {
        // Differential test against a BTreeMap priority queue: same
        // deadlines in, same tokens out at every advance — by deadline,
        // then in scheduling order — and the same earliest deadline
        // after every burst and every advance, since the shard sleeps on
        // `next_due`. A simple LCG provides deterministic "randomness"
        // without a dependency.
        let mut w = TimerWheel::new();
        let mut model: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        let mut lcg: u64 = 0x1234_5678;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut token = 0u32;
        let mut now = 0u64;
        for round in 0..200 {
            // Schedule a burst at mixed horizons: near, mid, far.
            for _ in 0..8 {
                let horizon = match next() % 3 {
                    0 => 1 + next() % 60,
                    1 => 64 + next() % 4000,
                    _ => 4096 + next() % 250_000,
                };
                let due = now + horizon;
                w.schedule(due, token);
                model.entry(due).or_default().push(token);
                token += 1;
            }
            assert_eq!(
                w.next_due(),
                model.keys().next().copied(),
                "next_due after a burst at now={now}"
            );
            // Advance by an uneven stride, sometimes a long one.
            now += 1 + next() % (if round % 5 == 0 { 10_000 } else { 97 });
            let mut fired = Vec::new();
            w.advance(now, &mut fired);
            let mut expected = Vec::new();
            let still_due: BTreeMap<u64, Vec<u32>> = model.split_off(&(now + 1));
            for (d, toks) in std::mem::replace(&mut model, still_due) {
                for t in toks {
                    expected.push((d, t));
                }
            }
            assert!(
                fired.windows(2).all(|w| w[0].0 <= w[1].0),
                "deadline order violated at now={now}: {fired:?}"
            );
            assert_eq!(fired, expected, "divergence at now={now}");
            assert_eq!(
                w.next_due(),
                model.keys().next().copied(),
                "next_due after advancing to {now}"
            );
        }
        // Drain everything left and check emptiness agreement.
        let mut fired = Vec::new();
        w.advance(now + 400_000, &mut fired);
        let remaining: usize = model.values().map(Vec::len).sum();
        assert_eq!(fired.len(), remaining);
        assert!(w.is_empty());
    }

    #[test]
    fn occupancy_is_conserved_through_every_drain() {
        // A scheduled deadline is either returned by `advance` — where
        // the shard steps it, or skips it when its session completed or
        // a drain moved it away — or still occupies the wheel. It is
        // never silently dropped. Conservation (`scheduled == fired +
        // len()`) is checked after every operation under pseudorandom
        // load at near, mid and far horizons.
        let mut w = TimerWheel::new();
        let mut lcg: u64 = 0x000D_EFAC_EDFA_CADE;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut scheduled: u64 = 0;
        let mut fired: u64 = 0;
        let mut fired_once = Vec::new();
        let mut token = 0u32;
        let mut now = 0u64;
        for round in 0..300 {
            for _ in 0..6 {
                let horizon = match next() % 4 {
                    0 => next() % 64,
                    1 => 64 + next() % 4000,
                    2 => 4096 + next() % 250_000,
                    _ => 0, // due exactly now
                };
                w.schedule(now + horizon, token);
                fired_once.push(0u32);
                scheduled += 1;
                token += 1;
                assert_eq!(
                    u64::try_from(w.len()).unwrap(),
                    scheduled - fired,
                    "occupancy drifted after schedule at now={now}"
                );
            }
            now += 1 + next() % (if round % 7 == 0 { 300_000 } else { 61 });
            let mut due = Vec::new();
            w.advance(now, &mut due);
            for (d, t) in due {
                assert!(d <= now, "future deadline fired: {d} > {now}");
                fired_once[t as usize] += 1;
                fired += 1;
            }
            assert_eq!(
                u64::try_from(w.len()).unwrap(),
                scheduled - fired,
                "occupancy drifted after drain at now={now}"
            );
        }
        // Final drain: everything scheduled has fired exactly once.
        let mut due = Vec::new();
        w.advance(now + 20_000_000, &mut due);
        for (_, t) in due {
            fired_once[t as usize] += 1;
        }
        assert!(w.is_empty());
        assert!(
            fired_once.iter().all(|&n| n == 1),
            "a deadline fired zero or multiple times: {:?}",
            fired_once
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n != 1)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn next_due_tracks_the_earliest_deadline() {
        let mut w = TimerWheel::new();
        assert_eq!(w.next_due(), None);
        w.schedule(500, 1u32);
        w.schedule(20, 2u32);
        w.schedule(70_000, 3u32);
        assert_eq!(w.next_due(), Some(20));
        drain_to(&mut w, 20);
        assert_eq!(w.next_due(), Some(500));
        drain_to(&mut w, 500);
        assert_eq!(w.next_due(), Some(70_000));
    }

    #[test]
    fn reschedule_pattern_of_a_paced_session() {
        // A session stepping every gap=2 ticks, rescheduled after each
        // firing — the shard's actual usage pattern.
        let mut w = TimerWheel::new();
        w.schedule(2, 0u32);
        let mut fires = Vec::new();
        let mut t = 0;
        while fires.len() < 50 {
            t += 1;
            let mut due = Vec::new();
            w.advance(t, &mut due);
            for (d, tok) in due {
                fires.push(d);
                w.schedule(d + 2, tok);
            }
        }
        let expected: Vec<u64> = (1..=50).map(|i| i * 2).collect();
        assert_eq!(fires, expected);
    }
}
