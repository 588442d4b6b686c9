//! Swimlane rendering of timed traces.
//!
//! [`render_timeline`] draws a trace as three lanes — transmitter, channel
//! (deliveries), receiver — with one column per distinct event time:
//!
//! ```text
//! time | 0  3  6  9
//! -----+------------
//! t    | S  w  w  .
//! chan | .  .  D  .
//! r    | i  i  .  W
//! ```
//!
//! Glyphs: `S` data send, `A` ack send, `W` write, `w` wait, `i` idle,
//! `D` data delivery, `a` ack delivery. Multiple same-lane events at one
//! time are concatenated (`SA`), and long traces are truncated with a
//! note.

use crate::trace::SimTrace;
use rstp_core::{InternalKind, Owner, Packet, RstpAction};

fn glyph(action: RstpAction) -> char {
    match action {
        RstpAction::Send(Packet::Data(_)) => 'S',
        RstpAction::Send(Packet::Ack(_)) => 'A',
        RstpAction::Write(_) => 'W',
        RstpAction::TransmitterInternal(InternalKind::Wait)
        | RstpAction::ReceiverInternal(InternalKind::Wait) => 'w',
        RstpAction::TransmitterInternal(InternalKind::Idle)
        | RstpAction::ReceiverInternal(InternalKind::Idle) => 'i',
        RstpAction::Recv(Packet::Data(_)) => 'D',
        RstpAction::Recv(Packet::Ack(_)) => 'a',
    }
}

fn lane(action: RstpAction) -> usize {
    match action.owner() {
        Owner::Transmitter => 0,
        Owner::Channel => 1,
        Owner::Receiver => 2,
    }
}

/// Renders the trace as a three-lane timeline, at most `max_columns`
/// distinct event times wide (the rest is summarized).
#[must_use]
pub fn render_timeline(trace: &SimTrace, max_columns: usize) -> String {
    // Collect (time -> [cell; 3]) preserving time order.
    let mut columns: Vec<(u64, [String; 3])> = Vec::new();
    for e in trace.events() {
        let t = e.time.ticks();
        if columns.last().map(|(ct, _)| *ct) != Some(t) {
            columns.push((t, [String::new(), String::new(), String::new()]));
        }
        #[expect(clippy::expect_used, reason = "last_mut() directly follows a push")]
        let cells = &mut columns.last_mut().expect("just pushed").1;
        cells[lane(e.action)].push(glyph(e.action));
    }
    let total = columns.len();
    let truncated = total > max_columns.max(1);
    columns.truncate(max_columns.max(1));

    // Column widths: max of the time label and the cells.
    let widths: Vec<usize> = columns
        .iter()
        .map(|(t, cells)| {
            cells
                .iter()
                .map(String::len)
                .max()
                .unwrap_or(1)
                .max(t.to_string().len())
        })
        .collect();

    let labels = ["time", "t", "chan", "r"];
    let label_w = labels.iter().map(|l| l.len()).max().unwrap_or(4);
    let mut out = String::new();
    // Header.
    out.push_str(&format!("{:<label_w$} |", "time"));
    for ((t, _), w) in columns.iter().zip(&widths) {
        out.push_str(&format!(" {t:>w$}"));
    }
    out.push('\n');
    out.push_str(&"-".repeat(label_w + 1));
    out.push('+');
    out.push_str(&"-".repeat(widths.iter().map(|w| w + 1).sum()));
    out.push('\n');
    // Lanes.
    for (row, label) in ["t", "chan", "r"].iter().enumerate() {
        out.push_str(&format!("{label:<label_w$} |"));
        for ((_, cells), w) in columns.iter().zip(&widths) {
            let cell = if cells[row].is_empty() {
                "."
            } else {
                &cells[row]
            };
            out.push_str(&format!(" {cell:>w$}"));
        }
        out.push('\n');
    }
    if truncated {
        out.push_str(&format!(
            "… {} more event time(s) not shown\n",
            total - columns.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstp_automata::Time;

    fn t(n: u64) -> Time {
        Time::from_ticks(n)
    }

    fn sample() -> SimTrace {
        let mut tr = SimTrace::new(vec![true]);
        tr.push(t(0), RstpAction::Send(Packet::Data(1)));
        tr.push(t(0), RstpAction::ReceiverInternal(InternalKind::Idle));
        tr.push(t(3), RstpAction::TransmitterInternal(InternalKind::Wait));
        tr.push(t(6), RstpAction::Recv(Packet::Data(1)));
        tr.push(t(6), RstpAction::Write(true));
        tr
    }

    #[test]
    fn renders_three_lanes_and_header() {
        let out = render_timeline(&sample(), 100);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("time |"));
        assert!(lines[2].starts_with("t    |"));
        assert!(lines[3].starts_with("chan |"));
        assert!(lines[4].starts_with("r    |"));
        // Column times 0, 3, 6.
        assert!(lines[0].contains('0') && lines[0].contains('3') && lines[0].contains('6'));
        // Transmitter lane: S, w, then empty.
        assert!(lines[2].contains('S') && lines[2].contains('w'));
        // Channel delivery and receiver write in the t=6 column.
        assert!(lines[3].contains('D'));
        assert!(lines[4].contains('W'));
    }

    #[test]
    fn same_tick_same_lane_events_concatenate() {
        let mut tr = SimTrace::new(vec![]);
        tr.push(t(0), RstpAction::Send(Packet::Ack(0)));
        tr.push(t(0), RstpAction::Write(true));
        let out = render_timeline(&tr, 10);
        assert!(out.contains("AW"), "{out}");
    }

    #[test]
    fn truncation_is_reported() {
        let mut tr = SimTrace::new(vec![]);
        for i in 0..20 {
            tr.push(t(i), RstpAction::Write(i % 2 == 0));
        }
        let out = render_timeline(&tr, 5);
        assert!(out.contains("15 more event time(s)"), "{out}");
    }

    #[test]
    fn empty_trace_renders_headers_only() {
        let out = render_timeline(&SimTrace::new(vec![]), 10);
        assert_eq!(out.lines().count(), 5);
    }

    #[test]
    fn glyph_coverage() {
        assert_eq!(glyph(RstpAction::Send(Packet::Data(0))), 'S');
        assert_eq!(glyph(RstpAction::Send(Packet::Ack(0))), 'A');
        assert_eq!(glyph(RstpAction::Recv(Packet::Data(0))), 'D');
        assert_eq!(glyph(RstpAction::Recv(Packet::Ack(0))), 'a');
        assert_eq!(glyph(RstpAction::Write(true)), 'W');
        assert_eq!(
            glyph(RstpAction::TransmitterInternal(InternalKind::Wait)),
            'w'
        );
        assert_eq!(glyph(RstpAction::ReceiverInternal(InternalKind::Idle)), 'i');
    }
}
