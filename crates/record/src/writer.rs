//! The per-shard writer thread and the handle set a server owns.
//!
//! One [`ShardRecorder`] per shard goes to the data path; one writer
//! thread per shard drains that shard's ring to `shard-NN.rec`. The
//! writer paces itself with `thread::park_timeout` (a bounded nap, not
//! a sleep in the pacer's sense — this thread owns no deadline) and is
//! joined by [`RecorderSet::finish`], which also writes each file's
//! [`RecStats`] trailer from the ring counters.

use crate::format::{encode_record, write_header, RecStats, Record, RecordError, RunMeta};
use crate::ring::{ring, RingConsumer, RingProducer};
use std::fs::{self, File};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Default ring capacity per shard, in records. Sized so a writer that
/// drains every millisecond keeps up with hundreds of thousands of
/// events per second with two orders of magnitude of headroom.
pub const DEFAULT_RING_CAP: usize = 65_536;

/// How long the writer naps when its ring was empty.
const DRAIN_NAP: Duration = Duration::from_millis(1);

/// File name of one shard's recording.
#[must_use]
pub fn shard_file_name(shard: u32) -> String {
    format!("shard-{shard:02}.rec")
}

/// The data-path handle a shard records through. Cloneable and
/// strictly nonblocking: the fast path is one `try_lock`, retried for
/// a bounded number of spins under contention before shedding.
#[derive(Clone)]
pub struct ShardRecorder {
    producer: RingProducer,
}

impl ShardRecorder {
    /// Offers one event; a saturated recorder drops it (counted).
    pub fn record(&self, ev: crate::format::Event) {
        self.producer.push(Record::Event(ev));
    }

    /// Offers one event crash recovery cannot do without — admission
    /// and snapshot anchors, final verdicts. A contended ring is
    /// retried across a bounded number of scheduler yields instead of
    /// shedding at the first busy lock, so a momentarily descheduled
    /// writer thread no longer costs a session its recovery anchor.
    /// Reserved for the admit / teardown paths; the per-frame loop
    /// stays on [`record`](ShardRecorder::record).
    pub fn record_durable(&self, ev: crate::format::Event) {
        self.producer.push_insist(Record::Event(ev));
    }

    /// Events accepted so far.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.producer.recorded()
    }

    /// Events dropped so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.producer.dropped()
    }

    /// Offers a mid-file [`RecStats`] checkpoint (crash recovery writes
    /// one before re-reading a live shard's file, so readers can tell
    /// the checkpoint from the trailer by keeping the last stats record
    /// per epoch). Recovery depends on the checkpoint, so a contended
    /// ring is ridden out with the same bounded yields as
    /// [`record_durable`](ShardRecorder::record_durable).
    pub fn push_stats(&self, stats: RecStats) {
        self.producer.push_insist(Record::Stats(stats));
    }

    /// Blocks the *caller* (never the data path — this is for the
    /// recovery orchestrator) until every record pushed before this call
    /// has been flushed to disk, or `timeout` elapses. Returns whether
    /// the barrier completed.
    #[expect(
        clippy::disallowed_methods,
        reason = "bounds a recovery-time wait off the data path; feeds no [c1,c2] accounting"
    )]
    pub fn flush_barrier(&self, timeout: Duration) -> bool {
        let token = self.producer.request_sync();
        let deadline = Instant::now() + timeout;
        while !self.producer.sync_done(token) {
            if Instant::now() >= deadline {
                return false;
            }
            thread::park_timeout(Duration::from_micros(200));
        }
        true
    }
}

struct Worker {
    producer: RingProducer,
    handle: JoinHandle<Result<(), RecordError>>,
}

/// Owns every writer thread of one recorded run.
pub struct RecorderSet {
    workers: Vec<Worker>,
    /// Directory the recording lives in.
    pub dir: PathBuf,
}

/// Aggregate ring counters after a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecorderTotals {
    /// Events written across all shards.
    pub recorded: u64,
    /// Events dropped across all shards.
    pub dropped: u64,
}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> RecordError {
    RecordError::Io {
        what: format!("{what} {}: {e}", path.display()),
    }
}

impl RecorderSet {
    /// Creates `shards` recordings under `dir` (created if missing):
    /// one file, ring, and writer thread each. `meta_of` supplies the
    /// per-shard [`RunMeta`] written at the head of each file.
    ///
    /// # Errors
    ///
    /// [`RecordError::Io`] if the directory or a file cannot be
    /// created, or a writer thread cannot be spawned.
    pub fn create(
        dir: &Path,
        shards: usize,
        meta_of: impl Fn(u32) -> RunMeta,
    ) -> Result<(RecorderSet, Vec<ShardRecorder>), RecordError> {
        fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, &e))?;
        let mut workers = Vec::with_capacity(shards);
        let mut recorders = Vec::with_capacity(shards);
        for shard in 0..shards {
            let shard_u32 = u32::try_from(shard).unwrap_or(u32::MAX);
            let path = dir.join(shard_file_name(shard_u32));
            let file = File::create(&path).map_err(|e| io_err("create", &path, &e))?;
            let mut head = Vec::with_capacity(64);
            write_header(&mut head);
            encode_record(&Record::Meta(meta_of(shard_u32)), &mut head);
            let mut out = BufWriter::new(file);
            out.write_all(&head)
                .map_err(|e| io_err("write", &path, &e))?;
            let (producer, consumer) = ring(DEFAULT_RING_CAP);
            let handle = thread::Builder::new()
                .name(format!("rstp-record-{shard}"))
                .spawn(move || drain_loop(consumer, out, &path))
                .map_err(|e| RecordError::Io {
                    what: format!("spawn recorder {shard}: {e}"),
                })?;
            recorders.push(ShardRecorder {
                producer: producer.clone(),
            });
            workers.push(Worker { producer, handle });
        }
        Ok((
            RecorderSet {
                workers,
                dir: dir.to_path_buf(),
            },
            recorders,
        ))
    }

    /// A fresh data-path handle for `shard`, sharing the shard's ring
    /// and file. Crash recovery hands this to a restarted shard thread
    /// so its new epoch appends to the same recording.
    #[must_use]
    pub fn recorder(&self, shard: usize) -> Option<ShardRecorder> {
        self.workers.get(shard).map(|w| ShardRecorder {
            producer: w.producer.clone(),
        })
    }

    /// Closes every ring, joins every writer, and returns the aggregate
    /// counters. Each file ends with its [`RecStats`] trailer.
    ///
    /// # Errors
    ///
    /// The first writer I/O failure, if any.
    pub fn finish(self) -> Result<RecorderTotals, RecordError> {
        let mut totals = RecorderTotals::default();
        let mut first_err = None;
        for w in self.workers {
            w.producer.close();
            totals.recorded += w.producer.recorded();
            totals.dropped += w.producer.dropped();
            match w.handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                Err(_) => {
                    first_err = first_err.or(Some(RecordError::Io {
                        what: "recorder writer thread panicked".into(),
                    }));
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(totals),
        }
    }
}

fn drain_loop(
    mut consumer: RingConsumer,
    mut out: BufWriter<File>,
    path: &Path,
) -> Result<(), RecordError> {
    let mut pending: Vec<Record> = Vec::with_capacity(1024);
    let mut bytes: Vec<u8> = Vec::with_capacity(64 * 1024);
    loop {
        let closing = consumer.is_closed();
        // Sample the flush barrier *before* draining: every record that
        // preceded the request is then guaranteed to be in this drain,
        // so acknowledging after the write covers them all.
        let sync = consumer.pending_sync();
        pending.clear();
        consumer.drain(&mut pending);
        if !pending.is_empty() {
            bytes.clear();
            for rec in &pending {
                encode_record(rec, &mut bytes);
            }
            out.write_all(&bytes)
                .map_err(|e| io_err("write", path, &e))?;
        }
        if let Some(token) = sync {
            out.flush().map_err(|e| io_err("flush", path, &e))?;
            consumer.ack_sync(token);
        }
        if closing {
            // One final drain happened above (close-then-drain order);
            // now seal the file with the counter trailer.
            let (recorded, dropped) = consumer.counters();
            bytes.clear();
            encode_record(
                &Record::Stats(RecStats {
                    recorded,
                    dropped,
                    epoch: 0,
                }),
                &mut bytes,
            );
            out.write_all(&bytes)
                .map_err(|e| io_err("write", path, &e))?;
            out.flush().map_err(|e| io_err("flush", path, &e))?;
            return Ok(());
        }
        if pending.is_empty() {
            thread::park_timeout(DRAIN_NAP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Event;
    use crate::reader::Recording;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("rstp-record-{tag}-{}-{n}", std::process::id()))
    }

    fn meta(shard: u32) -> RunMeta {
        RunMeta {
            shard,
            c1: 1,
            c2: 2,
            d: 8,
            tick_micros: 200,
            seed: Some(1),
        }
    }

    #[test]
    fn writes_one_parseable_file_per_shard() {
        let dir = temp_dir("set");
        let (set, recorders) = RecorderSet::create(&dir, 2, meta).unwrap();
        for (i, rec) in recorders.iter().enumerate() {
            for s in 0..10u32 {
                rec.record(Event::WheelPop {
                    at_micros: u64::from(s),
                    session: s + 1,
                    due_tick: u64::from(s),
                    late: false,
                });
            }
            assert_eq!(rec.recorded(), 10, "shard {i}");
            assert_eq!(rec.dropped(), 0);
        }
        let totals = set.finish().unwrap();
        assert_eq!(
            totals,
            RecorderTotals {
                recorded: 20,
                dropped: 0
            }
        );
        for shard in 0..2u32 {
            let path = dir.join(shard_file_name(shard));
            let recording = Recording::load(&path).unwrap();
            assert_eq!(recording.meta, Some(meta(shard)));
            assert_eq!(recording.events.len(), 10);
            assert_eq!(
                recording.stats,
                Some(RecStats {
                    recorded: 10,
                    dropped: 0,
                    epoch: 0
                })
            );
            assert!(!recording.truncated);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_without_events_still_seals_headers_and_trailers() {
        let dir = temp_dir("empty");
        let (set, _recorders) = RecorderSet::create(&dir, 1, meta).unwrap();
        set.finish().unwrap();
        let recording = Recording::load(&dir.join(shard_file_name(0))).unwrap();
        assert!(recording.events.is_empty());
        assert_eq!(recording.stats, Some(RecStats::default()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_barrier_makes_a_live_file_readable_mid_run() {
        let dir = temp_dir("barrier");
        let (set, recorders) = RecorderSet::create(&dir, 1, meta).unwrap();
        let rec = &recorders[0];
        for s in 0..5u32 {
            rec.record(Event::DeadlineMiss {
                at_micros: u64::from(s),
                session: s + 1,
                due_tick: 9,
            });
        }
        // The crash-recovery sequence: checkpoint stats, then barrier,
        // then read the file back while the writer thread is still live.
        rec.push_stats(RecStats {
            recorded: rec.recorded(),
            dropped: rec.dropped(),
            epoch: 0,
        });
        assert!(rec.flush_barrier(Duration::from_secs(5)));
        let live = Recording::load(&dir.join(shard_file_name(0))).unwrap();
        assert_eq!(live.events.len(), 5);
        assert_eq!(live.stats.map(|s| s.recorded), Some(5));
        assert!(!live.truncated);
        // The run then continues and seals normally.
        rec.record(Event::DeadlineMiss {
            at_micros: 6,
            session: 9,
            due_tick: 9,
        });
        set.finish().unwrap();
        let sealed = Recording::load(&dir.join(shard_file_name(0))).unwrap();
        assert_eq!(sealed.events.len(), 6);
        assert_eq!(sealed.stats.map(|s| s.recorded), Some(7));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_in_unwritable_location_reports_io() {
        let err = RecorderSet::create(Path::new("/proc/rstp-no-such/rec"), 1, meta)
            .err()
            .expect("must fail");
        assert!(matches!(err, RecordError::Io { .. }), "{err}");
    }
}
