//! Open-loop pacing of the generator's sessions.
//!
//! Each session steps every `gap` ticks on its own grid, whatever the
//! server does. A step for tick `t` is *due* `lead` before `t` and may
//! start only within a short *window* after that; a generator running
//! past the window leaves the rest for a later tick. Two rules keep each
//! transmitter inside the paper's `[c1, c2]` model when the generator
//! itself runs late:
//!
//! * **`c1` guard.** A session never steps sooner than `c1` after its
//!   previous step, measured on the clock, not on the grid. A step that
//!   is due but guarded waits for a later tick.
//! * **Re-anchoring.** After a stall longer than one whole gap the
//!   schedule restarts from the first tick of its grid that the `c1`
//!   guard allows, instead of replaying the missed deadlines back to
//!   back — the rule `rstp_net::run_endpoint` applies
//!   (`now > deadline + gap` ⇒ `deadline = now`).
//!
//! Frames are stamped with the *scheduled* time of their step, so any
//! lateness of the generator shows up as delivery latency.
//!
//! All times are microseconds since the wave's clock epoch; nothing here
//! reads a clock, so the rules are testable on scripted wake times.

/// The timing every session of a wave shares.
#[derive(Clone, Copy, Debug)]
pub struct Grid {
    /// Tick length in µs.
    pub tick_us: u64,
    /// A step for tick `t` is due this long before `t`.
    pub lead_us: u64,
    /// Ticks between two steps of a session (the slow pace, `c2`).
    pub gap_ticks: u64,
    /// Steps may start only this long after they are due.
    pub window_us: u64,
    /// The minimum spacing of two steps of one session (`c1`), in µs.
    pub c1_us: u64,
}

impl Grid {
    /// When a step for tick `tick` is due.
    #[must_use]
    pub fn at(&self, tick: u64) -> u64 {
        (tick * self.tick_us).saturating_sub(self.lead_us)
    }

    /// The first tick whose step is due at or after `us`.
    #[must_use]
    pub fn ceil_tick(&self, us: u64) -> u64 {
        (us + self.lead_us).div_ceil(self.tick_us)
    }

    /// When the first tick's step at or after `earliest` is due, among
    /// those whose window is still open at `now`.
    #[must_use]
    pub fn next_open(&self, earliest: u64, now: u64) -> u64 {
        let from = earliest.max((now + 1).saturating_sub(self.window_us));
        self.at(self.ceil_tick(from))
    }
}

/// Whether a session may step now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Readiness {
    /// Its scheduled time has not come.
    NotDue,
    /// Due, but stepping now would follow the previous step sooner
    /// than `c1`.
    Guarded,
    /// Step now.
    Ready,
}

/// One session's schedule.
#[derive(Clone, Copy, Debug)]
pub struct SessionPace {
    due_tick: u64,
    last_step_us: Option<u64>,
}

impl SessionPace {
    /// A session whose first step is for tick `first_tick`.
    #[must_use]
    pub fn new(first_tick: u64) -> Self {
        SessionPace {
            due_tick: first_tick,
            last_step_us: None,
        }
    }

    /// Scheduled time of the next step: the stamp its frame carries.
    #[must_use]
    pub fn due_us(&self, grid: &Grid) -> u64 {
        grid.at(self.due_tick)
    }

    /// The earliest time the next step may run: its scheduled time, or
    /// `c1` after the previous step if that is later.
    #[must_use]
    pub fn earliest_us(&self, grid: &Grid) -> u64 {
        let due = self.due_us(grid);
        self.last_step_us
            .map_or(due, |last| due.max(last + grid.c1_us))
    }

    /// Whether the session may step at `now_us`.
    #[must_use]
    pub fn readiness(&self, grid: &Grid, now_us: u64) -> Readiness {
        if now_us < self.due_us(grid) {
            Readiness::NotDue
        } else if now_us < self.earliest_us(grid) {
            Readiness::Guarded
        } else {
            Readiness::Ready
        }
    }

    /// Books a step taken at `now_us` and schedules the next one.
    /// Returns `true` when the schedule was re-anchored.
    pub fn stepped(&mut self, grid: &Grid, now_us: u64) -> bool {
        self.last_step_us = Some(now_us);
        self.due_tick += grid.gap_ticks;
        let gap_us = grid.gap_ticks * grid.tick_us;
        if now_us <= self.due_us(grid) + gap_us {
            return false;
        }
        let gaps = grid
            .ceil_tick(now_us + grid.c1_us)
            .saturating_sub(self.due_tick)
            .div_ceil(grid.gap_ticks.max(1));
        self.due_tick += gaps * grid.gap_ticks;
        true
    }
}
