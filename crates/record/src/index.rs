//! A per-session view over every shard file of one recorded run.
//!
//! The shard files interleave sessions in arrival order; a postmortem
//! asks the opposite question — "show me session 17". The index groups
//! each session's admit, frames, pops, misses, and verdict, keyed by
//! raw session id, and carries the run-level metadata (timing triple,
//! tick, seed) the replay bridge needs.

use crate::format::{Event, RecordError, RunMeta};
use crate::reader::Recording;
use rstp_sim::ProtocolKind;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Everything one session did, in time order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionHistory {
    /// Raw session id.
    pub session: u32,
    /// Shard that owned the session.
    pub shard: u32,
    /// Protocol, from the admit event.
    pub kind: Option<ProtocolKind>,
    /// Planned transfer length `n`, from the admit event.
    pub n: Option<u32>,
    /// Applied inbound frames as `(at_micros, wire bytes)`.
    pub rx: Vec<(u64, Vec<u8>)>,
    /// Produced outbound frames as `(at_micros, wire bytes)`.
    pub tx: Vec<(u64, Vec<u8>)>,
    /// Wheel pops as `(at_micros, due_tick, late)`.
    pub pops: Vec<(u64, u64, bool)>,
    /// Deadline misses as `(at_micros, due_tick)`.
    pub misses: Vec<(u64, u64)>,
    /// Acknowledged writes as `(at_micros, cumulative_written, bit)`.
    /// The last entry's count is the durable floor a crash recovery
    /// must restore; the bits are the acknowledged Y-prefix.
    pub writes: Vec<(u64, u64, bool)>,
    /// Session-state snapshots as `(at_micros, snapshot bytes)`.
    pub snapshots: Vec<(u64, Vec<u8>)>,
    /// Final verdict as `(at_micros, completed, written)`: the latest by
    /// time when several shards wrote one.
    pub verdict: Option<(u64, bool, Vec<bool>)>,
}

/// The run-wide index: session histories plus run metadata.
#[derive(Clone, Debug, Default)]
pub struct SessionIndex {
    /// Timing triple `(c1, c2, d)` in ticks, from the first meta record.
    pub params: Option<(u64, u64, u64)>,
    /// Tick length in microseconds, from the first meta record.
    pub tick_micros: Option<u64>,
    /// Swarm input seed, when the run recorded one.
    pub seed: Option<u64>,
    /// Ring drops summed over every shard file (a nonzero value means
    /// histories may have holes).
    pub dropped: u64,
    /// Ring drops per shard, for scoping "this history may have holes"
    /// to the sessions that shard owned.
    pub shard_dropped: BTreeMap<u32, u64>,
    /// True if any shard file was truncated mid-record.
    pub truncated: bool,
    sessions: BTreeMap<u32, SessionHistory>,
}

impl SessionIndex {
    /// Builds an index from parsed shard recordings.
    #[must_use]
    pub fn build(recordings: &[Recording]) -> SessionIndex {
        let mut ix = SessionIndex::default();
        for rec in recordings {
            let shard = rec.meta.map_or(0, |m| m.shard);
            if let Some(RunMeta {
                c1,
                c2,
                d,
                tick_micros,
                seed,
                ..
            }) = rec.meta
            {
                ix.params = ix.params.or(Some((c1, c2, d)));
                ix.tick_micros = ix.tick_micros.or(Some(tick_micros));
                ix.seed = ix.seed.or(seed);
            }
            // Shed accounting: counters are cumulative within a writer
            // epoch, and a file may hold several stats records for the
            // same epoch (a recovery checkpoint plus the trailer that
            // supersedes it). Keep only the *last* record per epoch,
            // then sum across epochs — summing raw records would double
            // count every checkpointed shard.
            let mut per_epoch: BTreeMap<u32, u64> = BTreeMap::new();
            if rec.stats_records.is_empty() {
                // Hand-built or pre-`stats_records` recordings.
                if let Some(s) = rec.stats {
                    per_epoch.insert(s.epoch, s.dropped);
                }
            } else {
                for s in &rec.stats_records {
                    per_epoch.insert(s.epoch, s.dropped);
                }
            }
            let dropped: u64 = per_epoch.values().sum();
            ix.dropped += dropped;
            if dropped > 0 {
                *ix.shard_dropped.entry(shard).or_insert(0) += dropped;
            }
            ix.truncated |= rec.truncated;
            for ev in &rec.events {
                ix.apply(shard, ev);
            }
        }
        // A drained session's history spans two files, read in shard
        // order, not time order: put each history back in time order.
        // The sorts are stable, so events of one instant keep file order.
        for h in ix.sessions.values_mut() {
            h.rx.sort_by_key(|&(at, _)| at);
            h.tx.sort_by_key(|&(at, _)| at);
            h.pops.sort_by_key(|&(at, ..)| at);
            h.misses.sort_by_key(|&(at, _)| at);
            h.writes.sort_by_key(|&(at, ..)| at);
            h.snapshots.sort_by_key(|&(at, _)| at);
        }
        ix
    }

    fn apply(&mut self, shard: u32, ev: &Event) {
        let session = match ev {
            Event::Admit { session, .. }
            | Event::Rx { session, .. }
            | Event::Tx { session, .. }
            | Event::WheelPop { session, .. }
            | Event::DeadlineMiss { session, .. }
            | Event::Snapshot { session, .. }
            | Event::Write { session, .. }
            | Event::Verdict { session, .. } => *session,
        };
        let h = self
            .sessions
            .entry(session)
            .or_insert_with(|| SessionHistory {
                session,
                shard,
                ..SessionHistory::default()
            });
        match ev {
            Event::Admit { kind, n, .. } => {
                h.kind = Some(*kind);
                h.n = Some(*n);
            }
            Event::Rx {
                at_micros, wire, ..
            } => h.rx.push((*at_micros, wire.clone())),
            Event::Tx {
                at_micros, wire, ..
            } => h.tx.push((*at_micros, wire.clone())),
            Event::WheelPop {
                at_micros,
                due_tick,
                late,
                ..
            } => h.pops.push((*at_micros, *due_tick, *late)),
            Event::DeadlineMiss {
                at_micros,
                due_tick,
                ..
            } => h.misses.push((*at_micros, *due_tick)),
            Event::Snapshot {
                at_micros, state, ..
            } => h.snapshots.push((*at_micros, state.clone())),
            Event::Write {
                at_micros,
                written,
                bit,
                ..
            } => h.writes.push((*at_micros, *written, *bit)),
            Event::Verdict {
                at_micros,
                completed,
                written,
                ..
            } => {
                // The latest verdict by time, whichever file it is in.
                if h.verdict
                    .as_ref()
                    .map_or(true, |&(at, ..)| at <= *at_micros)
                {
                    h.verdict = Some((*at_micros, *completed, written.clone()));
                }
            }
        }
    }

    /// Loads every `shard-*.rec` under `dir` (sorted by name) and
    /// builds the index.
    ///
    /// # Errors
    ///
    /// [`RecordError::Io`] if the directory is unreadable or holds no
    /// `.rec` files; parse errors as [`Recording::load`].
    pub fn from_dir(dir: &Path) -> Result<SessionIndex, RecordError> {
        let entries = fs::read_dir(dir).map_err(|e| RecordError::Io {
            what: format!("read dir {}: {e}", dir.display()),
        })?;
        let mut paths: Vec<_> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("rec"))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(RecordError::Io {
                what: format!("no .rec files under {}", dir.display()),
            });
        }
        let mut recordings = Vec::with_capacity(paths.len());
        for p in paths {
            recordings.push(Recording::load(&p)?);
        }
        Ok(SessionIndex::build(&recordings))
    }

    /// One session's history, if recorded.
    #[must_use]
    pub fn get(&self, session: u32) -> Option<&SessionHistory> {
        self.sessions.get(&session)
    }

    /// Every recorded session, ascending by id.
    pub fn sessions(&self) -> impl Iterator<Item = &SessionHistory> {
        self.sessions.values()
    }

    /// Number of distinct sessions recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when no session appears in any shard file.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::RecStats;

    fn meta(shard: u32) -> RunMeta {
        RunMeta {
            shard,
            c1: 1,
            c2: 2,
            d: 8,
            tick_micros: 200,
            seed: Some(11),
        }
    }

    #[test]
    fn index_groups_events_by_session_across_shards() {
        let shard0 = Recording {
            meta: Some(meta(0)),
            events: vec![
                Event::Admit {
                    at_micros: 1,
                    session: 2,
                    kind: ProtocolKind::Beta { k: 4 },
                    n: 8,
                },
                Event::Rx {
                    at_micros: 5,
                    session: 2,
                    wire: vec![1, 2, 3],
                },
                Event::Verdict {
                    at_micros: 9,
                    session: 2,
                    completed: true,
                    written: vec![true, false],
                },
            ],
            stats: Some(RecStats {
                recorded: 3,
                dropped: 1,
                epoch: 0,
            }),
            stats_records: vec![RecStats {
                recorded: 3,
                dropped: 1,
                epoch: 0,
            }],
            truncated: false,
        };
        let shard1 = Recording {
            meta: Some(meta(1)),
            events: vec![Event::WheelPop {
                at_micros: 2,
                session: 3,
                due_tick: 7,
                late: true,
            }],
            stats: None,
            stats_records: Vec::new(),
            truncated: true,
        };
        let ix = SessionIndex::build(&[shard0, shard1]);
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.params, Some((1, 2, 8)));
        assert_eq!(ix.tick_micros, Some(200));
        assert_eq!(ix.seed, Some(11));
        assert_eq!(ix.dropped, 1);
        assert_eq!(ix.shard_dropped.get(&0), Some(&1));
        assert_eq!(ix.shard_dropped.get(&1), None);
        assert!(ix.truncated);
        let s2 = ix.get(2).unwrap();
        assert_eq!(s2.shard, 0);
        assert_eq!(s2.kind, Some(ProtocolKind::Beta { k: 4 }));
        assert_eq!(s2.n, Some(8));
        assert_eq!(s2.rx.len(), 1);
        assert_eq!(s2.verdict.as_ref().unwrap().2, vec![true, false]);
        let s3 = ix.get(3).unwrap();
        assert_eq!(s3.shard, 1);
        assert_eq!(s3.pops, vec![(2, 7, true)]);
        assert!(ix.get(9).is_none());
        let ids: Vec<u32> = ix.sessions().map(|h| h.session).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn a_history_spanning_two_files_reads_in_time_order() {
        // A session drained from shard 1 to shard 0: its later events
        // sit in the file read first.
        let write = |at_micros, written| Event::Write {
            at_micros,
            session: 4,
            written,
            bit: true,
        };
        let verdict = |at_micros, completed| Event::Verdict {
            at_micros,
            session: 4,
            completed,
            written: vec![true; 3],
        };
        let file = |shard, events| Recording {
            meta: Some(meta(shard)),
            events,
            stats: None,
            stats_records: Vec::new(),
            truncated: false,
        };
        let target = file(0, vec![write(50, 3), verdict(90, true)]);
        let source = file(1, vec![write(10, 1), write(30, 2), verdict(20, false)]);
        let ix = SessionIndex::build(&[target, source]);
        let h = ix.get(4).unwrap();
        let counts: Vec<u64> = h.writes.iter().map(|&(_, c, _)| c).collect();
        assert_eq!(counts, vec![1, 2, 3]);
        assert_eq!(h.verdict.as_ref().map(|v| (v.0, v.1)), Some((90, true)));
    }

    #[test]
    fn checkpoint_plus_trailer_in_one_epoch_counts_sheds_once() {
        // The shape a shard restart leaves behind: a cumulative stats
        // checkpoint mid-file, then the (larger, same-epoch) trailer.
        // Naive summing reports 3 + 3 = 6 sheds; the truth is 3.
        let rec = Recording {
            meta: Some(meta(0)),
            events: Vec::new(),
            stats: Some(RecStats {
                recorded: 9,
                dropped: 3,
                epoch: 0,
            }),
            stats_records: vec![
                RecStats {
                    recorded: 5,
                    dropped: 3,
                    epoch: 0,
                },
                RecStats {
                    recorded: 9,
                    dropped: 3,
                    epoch: 0,
                },
            ],
            truncated: false,
        };
        let ix = SessionIndex::build(&[rec]);
        assert_eq!(ix.dropped, 3);
        assert_eq!(ix.shard_dropped.get(&0), Some(&3));
    }

    #[test]
    fn distinct_writer_epochs_are_summed() {
        // A writer that restarted mid-file resets its counters; each
        // epoch's last record contributes independently.
        let rec = Recording {
            meta: Some(meta(2)),
            events: Vec::new(),
            stats: None,
            stats_records: vec![
                RecStats {
                    recorded: 5,
                    dropped: 2,
                    epoch: 0,
                },
                RecStats {
                    recorded: 1,
                    dropped: 4,
                    epoch: 1,
                },
                RecStats {
                    recorded: 7,
                    dropped: 5,
                    epoch: 1,
                },
            ],
            truncated: false,
        };
        let ix = SessionIndex::build(&[rec]);
        assert_eq!(ix.dropped, 7); // epoch 0 → 2, epoch 1 → 5 (last wins)
        assert_eq!(ix.shard_dropped.get(&2), Some(&7));
    }

    /// Regression for the shed double-count: a truncated-then-resumed
    /// recording — checkpoint stats written before a restart, more
    /// events after it, file torn mid-record at the tail — must count
    /// the checkpoint's sheds exactly once.
    #[test]
    fn truncated_then_resumed_recording_counts_sheds_once() {
        use crate::format::{encode_record, write_header, Record};
        let mut buf = Vec::new();
        write_header(&mut buf);
        encode_record(&Record::Meta(meta(0)), &mut buf);
        encode_record(
            &Record::Event(Event::Admit {
                at_micros: 1,
                session: 4,
                kind: ProtocolKind::Beta { k: 4 },
                n: 8,
            }),
            &mut buf,
        );
        // Pre-restart checkpoint (cumulative: 1 recorded, 2 shed).
        encode_record(
            &Record::Stats(RecStats {
                recorded: 1,
                dropped: 2,
                epoch: 0,
            }),
            &mut buf,
        );
        // The resumed epoch appends more events...
        encode_record(
            &Record::Event(Event::Write {
                at_micros: 9,
                session: 4,
                written: 1,
                bit: true,
            }),
            &mut buf,
        );
        // ...then a second checkpoint, cumulative over the same ring.
        encode_record(
            &Record::Stats(RecStats {
                recorded: 3,
                dropped: 2,
                epoch: 0,
            }),
            &mut buf,
        );
        // Torn tail: a record that never finished hitting the disk.
        encode_record(
            &Record::Event(Event::DeadlineMiss {
                at_micros: 12,
                session: 4,
                due_tick: 3,
            }),
            &mut buf,
        );
        buf.truncate(buf.len() - 5);

        let rec = Recording::parse(&buf).unwrap();
        assert!(rec.truncated);
        assert_eq!(rec.stats_records.len(), 2);
        let ix = SessionIndex::build(&[rec]);
        assert!(ix.truncated);
        assert_eq!(ix.dropped, 2, "checkpoint + trailer must dedupe");
        assert_eq!(ix.shard_dropped.get(&0), Some(&2));
        let h = ix.get(4).unwrap();
        assert_eq!(h.writes, vec![(9, 1, true)]);
    }

    #[test]
    fn from_dir_without_recordings_is_io() {
        let err = SessionIndex::from_dir(Path::new("/no/such/rstp-dir")).unwrap_err();
        assert!(matches!(err, RecordError::Io { .. }), "{err}");
    }
}
