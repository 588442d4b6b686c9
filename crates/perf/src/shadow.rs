//! The shadow: a frozen stand-in for the generator whose CPU server CPU
//! is rescaled by.
//!
//! On a shared host the same wave's server CPU per message drifts by up
//! to 40% over minutes. Two things move it, and both move any thread
//! that runs beside the server on the same grid just as much:
//!
//! * how much a wake, a lock and a cache-cold pass over per-session
//!   state cost while other tenants are busy;
//! * how long the wave lasts. When the host stalls the generator, its
//!   sessions re-anchor and the wave stretches, and every per-tick cost
//!   (the pump's naps, stepping idle receivers) is paid for longer.
//!
//! The shadow thread wakes on the generator's slots for as long as the
//! wave serves and does, per wake, one fixed unit of work for each
//! session due: pop a frame from a locked queue, clone and advance a
//! small state, push a frame. Server CPU divided by shadow CPU moved
//! about a third as much between runs as server CPU alone. The generator
//! itself tracks the host as closely, but it runs code the server shares
//! (frame encoding, the hub, packet types): a change to that code would
//! move both sides of the ratio. The shadow's work lives in this crate,
//! so no change to the code under test moves it.

use crate::pace::Grid;
use crate::procfs;
use crate::wave::mix;
use rstp_net::TickClock;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Words of state one shadow session carries (a small transmitter).
const STATE_WORDS: usize = 8;

/// What the shadow measured over one wave.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShadowReport {
    /// Shadow thread CPU, ns.
    pub cpu_ns: u64,
    /// Wakes.
    pub wakes: u64,
}

/// Wakes on `grid`'s slots from tick `first_tick` on and does `units`
/// units of work per wake, until `stop` is set. Runs on the calling
/// thread.
///
/// # Errors
///
/// When the thread's CPU cannot be read.
pub fn run_shadow(
    clock: TickClock,
    grid: Grid,
    first_tick: u64,
    units: usize,
    stop: &AtomicBool,
) -> Result<ShadowReport, String> {
    let cpu0 = procfs::thread_cpu_ns()?;
    let queue: Mutex<VecDeque<[u8; 32]>> = Mutex::new(VecDeque::with_capacity(4));
    let mut states: Vec<Vec<u64>> = (0..units as u64).map(|i| vec![i; STATE_WORDS]).collect();
    let mut acc = 0u64;
    let mut wakes = 0;
    let mut tick = first_tick;
    while !stop.load(Ordering::Acquire) {
        clock.sleep_until(clock.epoch() + Duration::from_micros(grid.at(tick)));
        wakes += 1;
        for state in &mut states {
            let frame = queue
                .lock()
                .map_err(|_| "shadow queue poisoned")?
                .pop_front()
                .unwrap_or_default();
            let mut next = state.clone();
            for word in &mut next {
                *word = mix(*word ^ acc ^ u64::from(frame[3]));
            }
            acc = acc.wrapping_add(next[3]);
            queue
                .lock()
                .map_err(|_| "shadow queue poisoned")?
                .push_back([next[0].to_le_bytes()[0]; 32]);
            *state = next;
        }
        tick = grid.ceil_tick(clock.now_micros() + 1);
    }
    black_box(acc);
    Ok(ShadowReport {
        cpu_ns: procfs::thread_cpu_ns()?.saturating_sub(cpu0),
        wakes,
    })
}

/// Sets its flag when dropped, so the shadow stops on every way out of
/// the scope that runs it, a panic included.
pub struct StopOnDrop<'a>(pub &'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn wakes_on_the_grid_until_the_guard_drops() {
        let clock = TickClock::start(Duration::from_micros(500));
        let grid = Grid {
            tick_us: 500,
            lead_us: 250,
            gap_ticks: 2,
            window_us: 250,
            c1_us: 500,
        };
        let stop = AtomicBool::new(false);
        let report = thread::scope(|scope| {
            let shadow = scope.spawn(|| run_shadow(clock, grid, 2, 4, &stop));
            let guard = StopOnDrop(&stop);
            clock.sleep_until(clock.epoch() + Duration::from_millis(20));
            drop(guard);
            shadow.join().expect("shadow thread")
        })
        .expect("shadow report");
        // At most one wake per slot up to the join, plus the one that
        // saw the flag; a loaded host skips slots, never adds them.
        let slots = clock.now_micros() / grid.tick_us + 1;
        assert!(
            report.wakes >= 1 && report.wakes <= slots,
            "{report:?} in {slots} slots"
        );
        assert!(report.cpu_ns > 0);
    }
}
