//! Deterministic, seeded fault-injection plans for `rstp serve` and
//! `rstp swarm`.
//!
//! A [`FaultPlan`] is a scripted sequence of faults the server executes
//! at fixed tick offsets: shard kills and restarts, injected panics,
//! session drains from one shard to another, ingress stalls, and hub
//! drops. Plans are parsed from a compact grammar so CI jobs and
//! shrunk repro commands can carry one on the command line:
//!
//! ```text
//! kill=1@40;restart=1@80;drain=0->1@30;stall=20..25;hubdrop=10..12;
//! panic=1@50;auto=2@12345
//! ```
//!
//! * `kill=S@T` — at tick `T`, shard `S` is told to crash: its thread
//!   returns after discarding live (unfinished) sessions, exactly as if
//!   the process segment died. Completed verdicts survive.
//! * `restart=S@T` — at tick `T`, a fresh thread for shard `S` is
//!   spawned; with a flight recorder attached, live sessions are
//!   recovered from the shard's recording (snapshot + replay).
//! * `panic=S@T` — like `kill`, but the shard thread *panics*, testing
//!   that the server and `rstp swarm` report a nonzero verdict instead
//!   of unwinding silently. The run ends as soon as the thread has.
//! * `drain=A->B@T` — at tick `T`, shard `A` moves every live session
//!   to shard `B`: each leaves whole, with every frame it has not
//!   applied, into `B`'s mailbox in one hold of the ingress lock, and
//!   resumes on `B`. A drain from or into a dead shard does nothing, and
//!   neither does one into a shard killed before `A` reads it.
//! * `stall=T1..T2` — no pass reads ingress in ticks `[T1, T2)`: a
//!   socket stall. Frames queue in the transport.
//! * `hubdrop=T1..T2` — every pass reads and *discards* ingress in
//!   ticks `[T1, T2)`: the hub dropping mid-transfer.
//! * `auto=N@SEED` — expands to `N` kill+restart pairs at deterministic
//!   ticks and shards derived from `SEED` (a splitmix-style LCG), so a
//!   single seed reproduces an entire fault schedule.
//!
//! Ticks are the server clock's ticks (one `tick_micros` each), counted
//! from its epoch. The supervisor (the thread that calls
//! [`run_server`](crate::run_server)) fires kills, restarts, panics and
//! drains at their ticks; the ingress pass each shard runs as it wakes
//! judges the `stall` and `hubdrop` windows by its own tick.
//! [`FaultPlan::parse`] round-trips with its `Display` so a plan echoed
//! in a failure report can be pasted back.

use std::fmt;
use std::str::FromStr;

/// One scripted fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Crash shard `shard` at `tick` (clean thread exit, live sessions
    /// lost until a restart recovers them).
    Kill {
        /// Target shard index.
        shard: usize,
        /// Tick at which the fault fires.
        tick: u64,
    },
    /// Restart shard `shard` at `tick`, recovering live sessions from
    /// its flight recording when one is attached.
    Restart {
        /// Target shard index.
        shard: usize,
        /// Tick at which the fault fires.
        tick: u64,
    },
    /// Panic shard `shard`'s thread at `tick`.
    Panic {
        /// Target shard index.
        shard: usize,
        /// Tick at which the fault fires.
        tick: u64,
    },
    /// Hand every live session on `from` over to `to` at `tick`.
    Drain {
        /// Source shard (drained).
        from: usize,
        /// Target shard (adopter).
        to: usize,
        /// Tick at which the drain starts.
        tick: u64,
    },
    /// Stop reading ingress for ticks `[from_tick, to_tick)`.
    Stall {
        /// First stalled tick.
        from_tick: u64,
        /// First tick after the stall.
        to_tick: u64,
    },
    /// Read and discard ingress for ticks `[from_tick, to_tick)`.
    HubDrop {
        /// First dropping tick.
        from_tick: u64,
        /// First tick after the drop window.
        to_tick: u64,
    },
    /// Seeded expansion: `count` kill+restart pairs at derived ticks.
    Auto {
        /// Number of kill+restart pairs to synthesize.
        count: u32,
        /// Seed for the deterministic expansion.
        seed: u64,
    },
}

impl FaultEvent {
    /// The tick the fault fires at. An `auto` clause has no tick of
    /// its own ([`FaultPlan::schedule`] expands it) and reports
    /// `u64::MAX`, so a leftover one would sort last and never fire.
    #[must_use]
    pub fn tick(&self) -> u64 {
        match *self {
            FaultEvent::Kill { tick, .. }
            | FaultEvent::Restart { tick, .. }
            | FaultEvent::Panic { tick, .. }
            | FaultEvent::Drain { tick, .. } => tick,
            FaultEvent::Stall { from_tick, .. } | FaultEvent::HubDrop { from_tick, .. } => {
                from_tick
            }
            FaultEvent::Auto { .. } => u64::MAX,
        }
    }
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEvent::Kill { shard, tick } => write!(f, "kill={shard}@{tick}"),
            FaultEvent::Restart { shard, tick } => write!(f, "restart={shard}@{tick}"),
            FaultEvent::Panic { shard, tick } => write!(f, "panic={shard}@{tick}"),
            FaultEvent::Drain { from, to, tick } => write!(f, "drain={from}->{to}@{tick}"),
            FaultEvent::Stall { from_tick, to_tick } => write!(f, "stall={from_tick}..{to_tick}"),
            FaultEvent::HubDrop { from_tick, to_tick } => {
                write!(f, "hubdrop={from_tick}..{to_tick}")
            }
            FaultEvent::Auto { count, seed } => write!(f, "auto={count}@{seed}"),
        }
    }
}

/// A parsed fault plan: the scripted events, in source order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scripted events, as written (before `auto` expansion).
    pub events: Vec<FaultEvent>,
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            write!(f, "{ev}")?;
        }
        Ok(())
    }
}

fn split_once_req<'a>(s: &'a str, sep: char, what: &str) -> Result<(&'a str, &'a str), String> {
    s.split_once(sep)
        .ok_or_else(|| format!("fault `{what}`: expected `{sep}` in `{s}`"))
}

fn num<T: FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.trim()
        .parse()
        .map_err(|_| format!("fault `{what}`: bad number `{s}`"))
}

fn parse_window(rest: &str, what: &str) -> Result<(u64, u64), String> {
    let (a, b) = rest
        .split_once("..")
        .ok_or_else(|| format!("fault `{what}`: expected `T1..T2` in `{rest}`"))?;
    let from_tick: u64 = num(a, what)?;
    let to_tick: u64 = num(b, what)?;
    if to_tick <= from_tick {
        return Err(format!("fault `{what}`: empty window `{rest}`"));
    }
    Ok((from_tick, to_tick))
}

impl FaultPlan {
    /// Parses a plan from the grammar in the module docs.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending clause.
    pub fn parse(input: &str) -> Result<FaultPlan, String> {
        let mut events = Vec::new();
        for clause in input.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (name, rest) = split_once_req(clause, '=', clause)?;
            let ev = match name.trim() {
                "kill" | "restart" | "panic" => {
                    let (s, t) = split_once_req(rest, '@', name)?;
                    let shard: usize = num(s, name)?;
                    let tick: u64 = num(t, name)?;
                    match name.trim() {
                        "kill" => FaultEvent::Kill { shard, tick },
                        "restart" => FaultEvent::Restart { shard, tick },
                        _ => FaultEvent::Panic { shard, tick },
                    }
                }
                "drain" => {
                    let (pair, t) = split_once_req(rest, '@', "drain")?;
                    let (a, b) = pair
                        .split_once("->")
                        .ok_or_else(|| format!("fault `drain`: expected `A->B` in `{pair}`"))?;
                    let from: usize = num(a, "drain")?;
                    let to: usize = num(b, "drain")?;
                    if from == to {
                        return Err("fault `drain`: source and target shard are equal".into());
                    }
                    FaultEvent::Drain {
                        from,
                        to,
                        tick: num(t, "drain")?,
                    }
                }
                "stall" => {
                    let (from_tick, to_tick) = parse_window(rest, "stall")?;
                    FaultEvent::Stall { from_tick, to_tick }
                }
                "hubdrop" => {
                    let (from_tick, to_tick) = parse_window(rest, "hubdrop")?;
                    FaultEvent::HubDrop { from_tick, to_tick }
                }
                "auto" => {
                    let (c, s) = split_once_req(rest, '@', "auto")?;
                    let count: u32 = num(c, "auto")?;
                    if count == 0 || count > 64 {
                        return Err("fault `auto`: count must be in 1..=64".into());
                    }
                    FaultEvent::Auto {
                        count,
                        seed: num(s, "auto")?,
                    }
                }
                other => return Err(format!("unknown fault `{other}` in `{clause}`")),
            };
            events.push(ev);
        }
        if events.is_empty() {
            return Err("empty fault plan".into());
        }
        Ok(FaultPlan { events })
    }

    /// Expands the plan into a concrete, tick-sorted schedule for a
    /// server with `shards` shards. `auto` clauses become kill+restart
    /// pairs at ticks and shards derived deterministically from the
    /// seed; the sort is stable, so same-tick events keep source order.
    #[must_use]
    pub fn schedule(&self, shards: usize) -> Vec<FaultEvent> {
        let mut out = Vec::new();
        for ev in &self.events {
            match *ev {
                FaultEvent::Auto { count, seed } => {
                    let mut state = seed | 1;
                    for i in 0..u64::from(count) {
                        // A small multiplicative LCG: deterministic,
                        // seed-reproducible shard choice per pair.
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        let shard = (state >> 33) as usize % shards.max(1);
                        let kill_tick = 60 + i * 80;
                        out.push(FaultEvent::Kill {
                            shard,
                            tick: kill_tick,
                        });
                        out.push(FaultEvent::Restart {
                            shard,
                            tick: kill_tick + 30,
                        });
                    }
                }
                other => out.push(other),
            }
        }
        out.sort_by_key(FaultEvent::tick);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grammar_parses_and_round_trips() {
        let src = "kill=1@40;restart=1@80;drain=0->1@30;stall=20..25;hubdrop=10..12;panic=1@50;auto=2@12345";
        let plan = FaultPlan::parse(src).expect("parse");
        assert_eq!(plan.events.len(), 7);
        assert_eq!(plan.to_string(), src);
        assert_eq!(FaultPlan::parse(&plan.to_string()).expect("reparse"), plan);
    }

    #[test]
    fn whitespace_and_empty_clauses_are_tolerated() {
        let plan = FaultPlan::parse(" kill = 1 @ 40 ; ; restart = 1 @ 80 ").expect("parse");
        assert_eq!(
            plan.events,
            vec![
                FaultEvent::Kill { shard: 1, tick: 40 },
                FaultEvent::Restart { shard: 1, tick: 80 },
            ]
        );
    }

    #[test]
    fn schedule_is_tick_sorted_and_auto_expands_deterministically() {
        let plan = FaultPlan::parse("restart=0@90;kill=0@10;auto=2@7").expect("parse");
        let a = plan.schedule(4);
        let b = plan.schedule(4);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(
            a.iter().all(|ev| !matches!(ev, FaultEvent::Auto { .. })),
            "auto clauses are expanded: {a:?}"
        );
        let ticks: Vec<u64> = a.iter().map(FaultEvent::tick).collect();
        let mut sorted = ticks.clone();
        sorted.sort_unstable();
        assert_eq!(ticks, sorted);
        // 2 scripted + 2 auto pairs.
        assert_eq!(a.len(), 6);
        // Every auto shard is in range.
        for ev in &a {
            if let FaultEvent::Kill { shard, .. } | FaultEvent::Restart { shard, .. } = ev {
                assert!(*shard < 4);
            }
        }
    }

    #[test]
    fn different_seeds_can_differ() {
        let a = FaultPlan::parse("auto=8@1").expect("parse").schedule(16);
        let b = FaultPlan::parse("auto=8@2").expect("parse").schedule(16);
        assert_ne!(a, b, "seed must reach the shard choice");
    }

    #[test]
    fn bad_grammar_is_rejected_with_a_reason() {
        for (src, needle) in [
            ("", "empty fault plan"),
            ("kill=1", "expected `@`"),
            ("kill=x@2", "bad number"),
            ("drain=1->1@5", "source and target"),
            ("drain=1@5", "expected `A->B`"),
            ("stall=9..9", "empty window"),
            ("stall=9", "expected `T1..T2`"),
            ("auto=0@1", "count must be"),
            ("auto=65@1", "count must be"),
            ("explode=1@2", "unknown fault"),
        ] {
            let err = FaultPlan::parse(src).expect_err(src);
            assert!(err.contains(needle), "`{src}` → `{err}` missing `{needle}`");
        }
    }
}
