//! Postmortem reader for one shard recording.
//!
//! Parsing is strict about structure (magic, version, record bodies)
//! but tolerant of a short tail: a flight recorder stops when its
//! process does, possibly mid-record, and the run's prefix is exactly
//! what a postmortem needs. A truncated tail sets
//! [`Recording::truncated`] instead of failing the load.

use crate::format::{decode_record, read_header, Event, RecStats, Record, RecordError, RunMeta};
use std::fs;
use std::path::Path;

/// One fully parsed shard file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recording {
    /// The leading [`RunMeta`], when present.
    pub meta: Option<RunMeta>,
    /// Every event, in file (i.e. ring-arrival) order.
    pub events: Vec<Event>,
    /// The last [`RecStats`] seen (the trailer, when the file was
    /// sealed; the latest checkpoint otherwise).
    pub stats: Option<RecStats>,
    /// Every [`RecStats`] record, in file order. A file holds more than
    /// one when a checkpoint was written before a shard restart;
    /// consumers dedupe by epoch (see `SessionIndex`).
    pub stats_records: Vec<RecStats>,
    /// True when the file ended mid-record (an unsealed recording).
    pub truncated: bool,
}

impl Recording {
    /// Parses a recording from raw bytes.
    ///
    /// # Errors
    ///
    /// [`RecordError`] for a bad header or a structurally invalid
    /// record; a clean truncation mid-stream is *not* an error.
    pub fn parse(bytes: &[u8]) -> Result<Recording, RecordError> {
        let mut pos = read_header(bytes)?;
        let mut out = Recording::default();
        while pos < bytes.len() {
            let Some(rest) = bytes.get(pos..) else { break };
            match decode_record(rest) {
                Ok((rec, used)) => {
                    pos += used;
                    match rec {
                        Record::Meta(m) => out.meta = out.meta.or(Some(m)),
                        Record::Event(ev) => out.events.push(ev),
                        Record::Stats(s) => {
                            out.stats = Some(s);
                            out.stats_records.push(s);
                        }
                    }
                }
                Err(RecordError::Truncated { .. }) => {
                    out.truncated = true;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// Loads and parses one shard file.
    ///
    /// # Errors
    ///
    /// [`RecordError::Io`] for filesystem failure, otherwise as
    /// [`Recording::parse`].
    pub fn load(path: &Path) -> Result<Recording, RecordError> {
        let bytes = fs::read(path).map_err(|e| RecordError::Io {
            what: format!("read {}: {e}", path.display()),
        })?;
        Recording::parse(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{encode_record, write_header, RECORD_MAGIC, RECORD_VERSION};

    fn sample_bytes() -> Vec<u8> {
        let mut buf = Vec::new();
        write_header(&mut buf);
        encode_record(
            &Record::Meta(RunMeta {
                shard: 0,
                c1: 1,
                c2: 2,
                d: 8,
                tick_micros: 200,
                seed: None,
            }),
            &mut buf,
        );
        encode_record(
            &Record::Event(Event::WheelPop {
                at_micros: 10,
                session: 1,
                due_tick: 5,
                late: false,
            }),
            &mut buf,
        );
        encode_record(
            &Record::Stats(RecStats {
                recorded: 1,
                dropped: 0,
                epoch: 0,
            }),
            &mut buf,
        );
        buf
    }

    #[test]
    fn sealed_file_parses_completely() {
        let rec = Recording::parse(&sample_bytes()).unwrap();
        assert!(rec.meta.is_some());
        assert_eq!(rec.events.len(), 1);
        assert_eq!(rec.stats.map(|s| s.recorded), Some(1));
        assert_eq!(rec.stats_records.len(), 1);
        assert!(!rec.truncated);
    }

    #[test]
    fn every_stats_record_is_kept_in_file_order() {
        let mut buf = sample_bytes();
        // Append a second stats record — the shape of a checkpoint
        // followed by a (second-epoch) trailer.
        encode_record(
            &Record::Stats(RecStats {
                recorded: 9,
                dropped: 4,
                epoch: 1,
            }),
            &mut buf,
        );
        let rec = Recording::parse(&buf).unwrap();
        assert_eq!(rec.stats_records.len(), 2);
        assert_eq!(rec.stats_records[0].epoch, 0);
        assert_eq!(rec.stats_records[1].epoch, 1);
        // `stats` keeps the last, as before.
        assert_eq!(rec.stats.map(|s| s.dropped), Some(4));
    }

    #[test]
    fn truncated_tail_is_flagged_not_fatal() {
        let buf = sample_bytes();
        // Cut into the final record: everything before it still parses.
        let rec = Recording::parse(&buf[..buf.len() - 3]).unwrap();
        assert_eq!(rec.events.len(), 1);
        assert_eq!(rec.stats, None);
        assert!(rec.truncated);
    }

    /// A record whose body overruns its own complete payload is
    /// corruption in the middle of the file, not its tail: the records
    /// after it must not be dropped as if the file had ended there.
    #[test]
    fn corrupt_body_mid_file_is_fatal_not_a_truncated_tail() {
        let mut buf = Vec::new();
        write_header(&mut buf);
        encode_record(
            &Record::Event(Event::Snapshot {
                at_micros: 1,
                session: 2,
                state: vec![0xAA, 0xBB],
            }),
            &mut buf,
        );
        // The inner state length follows header(9), len(4), kind(1),
        // at(8) and session(4).
        buf[9 + 4 + 1 + 8 + 4..][..2].copy_from_slice(&0xFFFFu16.to_be_bytes());
        for at_micros in 0..5 {
            encode_record(
                &Record::Event(Event::WheelPop {
                    at_micros,
                    session: 2,
                    due_tick: at_micros,
                    late: false,
                }),
                &mut buf,
            );
        }
        assert!(
            matches!(Recording::parse(&buf), Err(RecordError::Malformed { .. })),
            "{:?}",
            Recording::parse(&buf)
        );
    }

    #[test]
    fn bad_header_and_bad_records_are_fatal() {
        assert_eq!(
            Recording::parse(b"nope"),
            Err(RecordError::Truncated { need: 9, got: 4 })
        );
        let mut wrong = sample_bytes();
        wrong[0] ^= 0x01;
        assert_eq!(Recording::parse(&wrong), Err(RecordError::BadMagic));
        let mut future = RECORD_MAGIC.to_vec();
        future.push(RECORD_VERSION + 7);
        assert_eq!(
            Recording::parse(&future),
            Err(RecordError::FutureVersion {
                got: RECORD_VERSION + 7
            })
        );
        let mut junk_kind = sample_bytes();
        junk_kind[13] = 0x77; // first record's kind byte (after 9-byte header + 4-byte len)
        assert!(matches!(
            Recording::parse(&junk_kind),
            Err(RecordError::UnknownKind { got: 0x77 })
        ));
    }

    #[test]
    fn load_missing_file_is_io() {
        let err = Recording::load(Path::new("/no/such/rstp.rec")).unwrap_err();
        assert!(matches!(err, RecordError::Io { .. }), "{err}");
    }
}
