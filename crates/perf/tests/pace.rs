//! The generator's open-loop schedule on scripted wake times: the `c1`
//! guard and re-anchoring after a stall.

use rstp_perf::pace::{Grid, Readiness, SessionPace};

/// Ticks of 500 µs, a step every c2 = 2 ticks, due on the tick and
/// allowed to start up to 250 µs late, c1 = 500 µs.
fn grid() -> Grid {
    Grid {
        tick_us: 500,
        lead_us: 0,
        gap_ticks: 2,
        window_us: 250,
        c1_us: 500,
    }
}

#[test]
fn on_time_steps_follow_the_grid() {
    let g = grid();
    let mut p = SessionPace::new(0);
    for slot in 0..5 {
        let now = slot * 1000 + 10;
        assert_eq!(p.due_us(&g), slot * 1000);
        assert_eq!(p.readiness(&g, now), Readiness::Ready);
        assert!(!p.stepped(&g, now));
    }
    assert_eq!(p.readiness(&g, 4999), Readiness::NotDue);
}

#[test]
fn c1_guard_holds_back_a_step_that_follows_a_late_one() {
    let g = grid();
    let mut p = SessionPace::new(0);
    // Tick 0's step ran 900 µs late; tick 2's is due only 100 µs later.
    assert!(!p.stepped(&g, 900));
    assert_eq!(p.readiness(&g, 1000), Readiness::Guarded);
    assert_eq!(p.earliest_us(&g), 1400);
    // Tick 2's window closes before 1400, so the step waits for tick 3
    // but keeps tick 2's stamp: the lateness counts as latency.
    assert_eq!(g.next_open(p.earliest_us(&g), 1000), 1500);
    assert_eq!(p.readiness(&g, 1500), Readiness::Ready);
    assert_eq!(p.due_us(&g), 1000);
}

#[test]
fn a_stall_longer_than_a_gap_reanchors_instead_of_bursting() {
    let g = grid();
    let mut p = SessionPace::new(0);
    assert!(!p.stepped(&g, 0));
    // The generator stalls until 3600 µs: the steps for ticks 2, 4 and 6
    // are missed.
    assert_eq!(p.readiness(&g, 3600), Readiness::Ready);
    assert!(p.stepped(&g, 3600), "a 2.6-slot stall must re-anchor");
    // The schedule restarts at the first tick of its grid the c1 guard
    // allows (tick 8 is only 400 µs away) instead of replaying the missed
    // steps back to back.
    assert_eq!(p.due_us(&g), 5000);
    assert_eq!(p.earliest_us(&g), 5000);
    assert_eq!(p.readiness(&g, 4000), Readiness::NotDue);
    assert!(!p.stepped(&g, 5000));
    assert_eq!(p.due_us(&g), 6000);
}

#[test]
fn one_late_slot_catches_up_without_reanchoring() {
    let g = grid();
    let mut p = SessionPace::new(0);
    assert!(!p.stepped(&g, 0));
    // Tick 2's step runs at 2100 µs: late, but within one gap of tick 4.
    assert!(!p.stepped(&g, 2100));
    assert_eq!(p.due_us(&g), 2000);
    assert_eq!(p.readiness(&g, 2100), Readiness::Guarded);
    assert_eq!(g.next_open(p.earliest_us(&g), 2100), 3000);
}

#[test]
fn next_open_skips_ticks_whose_window_has_passed() {
    let g = grid();
    assert_eq!(g.next_open(0, 100), 0);
    assert_eq!(g.next_open(0, 249), 0);
    assert_eq!(g.next_open(0, 250), 500);
    assert_eq!(g.next_open(1001, 0), 1500);
    // With a lead, a tick's step is due that long before the tick.
    let early = Grid { lead_us: 250, ..g };
    assert_eq!(early.at(2), 750);
    assert_eq!(early.ceil_tick(750), 2);
    assert_eq!(early.ceil_tick(751), 3);
    assert_eq!(early.next_open(751, 0), 1250);
}

/// Drives one session through scripted wake lateness, the way the
/// generator does, and checks the schedule's invariants.
#[test]
fn scripted_stalls_never_step_sooner_than_c1() {
    let g = grid();
    let mut p = SessionPace::new(0);
    // Extra delay of each wake past the slot it aimed at, in µs: on
    // time, jitter, a 3.4 ms stall, then jitter again.
    let lateness = [0, 40, 900, 120, 3400, 0, 0, 260, 10, 0, 0, 5000, 0, 0];
    let mut now = 0u64;
    let mut steps: Vec<u64> = Vec::new();
    let mut stamps: Vec<u64> = Vec::new();
    let mut reanchors = 0;
    for late in lateness {
        now = g.next_open(p.earliest_us(&g), now) + late;
        if p.readiness(&g, now) != Readiness::Ready {
            continue;
        }
        stamps.push(p.due_us(&g));
        steps.push(now);
        if p.stepped(&g, now) {
            reanchors += 1;
        }
    }
    assert!(steps.len() >= 10, "{steps:?}");
    for pair in steps.windows(2) {
        assert!(
            pair[1] - pair[0] >= g.c1_us,
            "steps {pair:?} closer than c1"
        );
    }
    for pair in stamps.windows(2) {
        assert!(pair[1] > pair[0], "stamps must advance: {stamps:?}");
    }
    assert_eq!(
        reanchors, 2,
        "the 3.4 ms and 5 ms stalls re-anchor, jitter does not"
    );
}
