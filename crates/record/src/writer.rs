//! The per-shard writer thread and the handle set a server owns.
//!
//! One [`ShardRecorder`] per shard goes to the data path. It encodes
//! each event into the shard's own byte batch and hands the batch to the
//! shard's ring once per loop iteration ([`ShardRecorder::hand_off`]),
//! so the data path takes one bounded `try_lock` per iteration, not one
//! per event. One writer thread per shard only `write_all`s what the
//! ring holds to `shard-NN.rec`: it parks until 64 KiB are buffered, a
//! flush barrier is requested or the ring closes, for at most 10 ms
//! (see [`ring`](mod@crate::ring)). It is joined by
//! [`RecorderSet::finish`], which also writes each file's [`RecStats`]
//! trailer from the ring's counters.

use crate::format::{
    encode_record, write_header, Event, FrameDir, RecStats, Record, RecordError, RunMeta,
};
use crate::ring::{ring, Batch, HandOff, RingConsumer, RingProducer, WAKE_BYTES};
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Default ring capacity per shard, in records: the ring holds
/// `DEFAULT_RING_CAP` records' worth of bytes, 64 each (4 MiB): 64 times
/// what wakes the writer.
pub const DEFAULT_RING_CAP: usize = 65_536;

/// File name of one shard's recording.
#[must_use]
pub fn shard_file_name(shard: u32) -> String {
    format!("shard-{shard:02}.rec")
}

/// The data-path handle a shard records through: the shard's batch plus
/// what this handle alone recorded and shed. Recording encodes into the
/// batch and never touches the ring; [`hand_off`](ShardRecorder::hand_off)
/// is the one strictly nonblocking step that does. Dropping the handle
/// hands over whatever is left, so a shard that exits, crashes or
/// panics loses nothing it recorded.
pub struct ShardRecorder {
    producer: RingProducer,
    batch: Batch,
    recorded: u64,
    dropped: u64,
}

impl ShardRecorder {
    fn new(producer: RingProducer) -> ShardRecorder {
        ShardRecorder {
            producer,
            batch: Batch::default(),
            recorded: 0,
            dropped: 0,
        }
    }

    /// Adds one event to the batch. An `Admit`, `Snapshot` or `Verdict`
    /// makes the batch durable: a full ring never sheds it.
    pub fn record(&mut self, ev: Event) {
        self.batch.push(&Record::Event(ev));
    }

    /// Adds one `Rx`/`Tx` event to the batch, encoded straight from the
    /// frame's wire bytes.
    pub fn record_frame(&mut self, dir: FrameDir, at_micros: u64, session: u32, wire: &[u8]) {
        self.batch.push_frame(dir, at_micros, session, wire);
    }

    /// Hands the batch to the ring under one bounded `try_lock`: taken,
    /// shed whole at the byte cap (durable batches never are), or, if
    /// the lock stays busy, kept for the next call. Never blocks; the
    /// shard calls it once per loop iteration.
    pub fn hand_off(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let events = self.batch.events();
        let outcome = self.producer.hand_off(&mut self.batch);
        self.count(outcome, events);
    }

    /// [`hand_off`](ShardRecorder::hand_off), waiting out a held lock:
    /// for a shard that is exiting and for crash recovery, never the
    /// per-frame path.
    pub fn hand_off_blocking(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let events = self.batch.events();
        let outcome = self.producer.hand_off_blocking(&mut self.batch);
        self.count(outcome, events);
    }

    fn count(&mut self, outcome: HandOff, events: u64) {
        match outcome {
            HandOff::Taken => self.recorded += events,
            HandOff::Shed => self.dropped += events,
            HandOff::Busy => {}
        }
    }

    /// Events this handle handed to the ring. A restarted shard's new
    /// handle starts from 0, so the epochs of one shard add up to the
    /// events in its file.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events this handle shed at the ring's byte cap.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Hands the batch over, then adds a mid-file [`RecStats`] checkpoint
    /// of the file's counters so far, from every handle of this shard.
    /// Crash recovery writes one before re-reading a live shard's file;
    /// readers tell it from the trailer by keeping the last stats record
    /// per epoch. The checkpoint is not an event, and its batch is never
    /// shed.
    pub fn push_stats(&mut self) {
        self.hand_off_blocking();
        self.batch.push(&Record::Stats(RecStats {
            recorded: self.producer.recorded(),
            dropped: self.producer.dropped(),
            epoch: 0,
        }));
    }

    /// Hands the batch over, then blocks the *caller* (never the data
    /// path — this is for the recovery orchestrator) until every record
    /// handed over before this call is on disk, or `timeout` elapses.
    /// Returns whether the barrier completed.
    #[expect(
        clippy::disallowed_methods,
        reason = "bounds a recovery-time wait off the data path; feeds no [c1,c2] accounting"
    )]
    pub fn flush_barrier(&mut self, timeout: Duration) -> bool {
        self.hand_off_blocking();
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

impl Drop for ShardRecorder {
    fn drop(&mut self) {
        self.hand_off_blocking();
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
            let mut out = File::create(&path).map_err(|e| io_err("create", &path, &e))?;
            let mut head = Vec::with_capacity(64);
            write_header(&mut head);
            encode_record(&Record::Meta(meta_of(shard_u32)), &mut head);
            out.write_all(&head)
                .map_err(|e| io_err("write", &path, &e))?;
            let (producer, consumer) = ring(DEFAULT_RING_CAP);
            let handle = thread::Builder::new()
                .name(format!("rstp-record-{shard}"))
                .spawn(move || drain_loop(consumer, out, &path))
                .map_err(|e| RecordError::Io {
                    what: format!("spawn recorder {shard}: {e}"),
                })?;
            recorders.push(ShardRecorder::new(producer.clone()));
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
        self.workers
            .get(shard)
            .map(|w| ShardRecorder::new(w.producer.clone()))
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

/// The writer thread: writes whatever the ring holds, acknowledges
/// flush barriers and parks until there is more. `File` keeps no
/// user-space buffer, so once `write_all` returns a reader sees the
/// bytes, and a barrier needs no separate flush.
fn drain_loop(mut consumer: RingConsumer, mut out: File, path: &Path) -> Result<(), RecordError> {
    let mut bytes: Vec<u8> = Vec::with_capacity(2 * WAKE_BYTES);
    loop {
        let closing = consumer.is_closed();
        // Sample the flush barrier *before* draining: every record that
        // preceded the request is then guaranteed to be in this drain,
        // so acknowledging after the write covers them all.
        let sync = consumer.pending_sync();
        consumer.drain(&mut bytes);
        if closing {
            // One final drain happened above (close-then-drain order);
            // now seal the file with the counter trailer.
            let (recorded, dropped) = consumer.counters();
            encode_record(
                &Record::Stats(RecStats {
                    recorded,
                    dropped,
                    epoch: 0,
                }),
                &mut bytes,
            );
        }
        out.write_all(&bytes)
            .map_err(|e| io_err("write", path, &e))?;
        bytes.clear();
        if let Some(token) = sync {
            consumer.ack_sync(token);
        }
        if closing {
            return Ok(());
        }
        consumer.park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let (set, mut recorders) = RecorderSet::create(&dir, 2, meta).unwrap();
        for (i, rec) in recorders.iter_mut().enumerate() {
            for s in 0..10u32 {
                rec.record(Event::WheelPop {
                    at_micros: u64::from(s),
                    session: s + 1,
                    due_tick: u64::from(s),
                    late: false,
                });
            }
            // Counted when the batch reaches the ring, not before.
            assert_eq!(rec.recorded(), 0, "shard {i}");
            rec.hand_off();
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
        let (set, mut recorders) = RecorderSet::create(&dir, 1, meta).unwrap();
        let rec = &mut recorders[0];
        for s in 0..5u32 {
            rec.record(Event::DeadlineMiss {
                at_micros: u64::from(s),
                session: s + 1,
                due_tick: 9,
            });
        }
        // The crash-recovery sequence: checkpoint stats, then barrier,
        // then read the file back while the writer thread is still live.
        rec.push_stats();
        assert!(rec.flush_barrier(Duration::from_secs(5)));
        let live = Recording::load(&dir.join(shard_file_name(0))).unwrap();
        assert_eq!(live.events.len(), 5);
        assert_eq!(live.stats.map(|s| s.recorded), Some(5));
        assert!(!live.truncated);
        // The run then continues and seals normally; dropping the
        // handle hands over its last event. The checkpoint is not an
        // event, so the trailer counts exactly the events in the file.
        rec.record(Event::DeadlineMiss {
            at_micros: 6,
            session: 9,
            due_tick: 9,
        });
        drop(recorders);
        set.finish().unwrap();
        let sealed = Recording::load(&dir.join(shard_file_name(0))).unwrap();
        assert_eq!(sealed.events.len(), 6);
        assert_eq!(sealed.stats.map(|s| s.recorded), Some(6));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every handle of one shard counts only what it handed over itself,
    /// while the file's trailer counts them all: the epochs of a
    /// restarted shard add up to the file instead of each reporting the
    /// file's running total.
    #[test]
    fn each_handle_counts_its_own_events_and_the_trailer_counts_all() {
        let dir = temp_dir("epochs");
        let (set, mut recorders) = RecorderSet::create(&dir, 1, meta).unwrap();
        let mut first = recorders.remove(0);
        for s in 0..4u32 {
            first.record(Event::DeadlineMiss {
                at_micros: 1,
                session: s,
                due_tick: 1,
            });
        }
        first.hand_off();
        assert_eq!(first.recorded(), 4);
        drop(first);
        let mut second = set.recorder(0).unwrap();
        second.push_stats();
        second.record(Event::DeadlineMiss {
            at_micros: 2,
            session: 9,
            due_tick: 2,
        });
        second.hand_off();
        assert_eq!((second.recorded(), second.dropped()), (1, 0));
        drop(second);
        assert_eq!(
            set.finish().unwrap(),
            RecorderTotals {
                recorded: 5,
                dropped: 0
            }
        );
        let sealed = Recording::load(&dir.join(shard_file_name(0))).unwrap();
        assert_eq!(sealed.events.len(), 5);
        let counts: Vec<u64> = sealed.stats_records.iter().map(|s| s.recorded).collect();
        assert_eq!(counts, vec![4, 5]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The `ShardMsg::Panic` path: a shard thread that panics mid-loop
    /// never reaches its next hand-off, and unwinding drops its handle,
    /// which hands the batch over on the way out.
    #[test]
    fn a_handle_dropped_by_a_panic_still_lands_its_batch() {
        let dir = temp_dir("panic");
        let (set, mut recorders) = RecorderSet::create(&dir, 1, meta).unwrap();
        let mut rec = recorders.remove(0);
        let shard = thread::Builder::new()
            .name("rstp-record-test-shard".into())
            .spawn(move || {
                for s in 0..3u32 {
                    rec.record(Event::WheelPop {
                        at_micros: 7,
                        session: s,
                        due_tick: 1,
                        late: false,
                    });
                }
                rec.record_frame(FrameDir::Tx, 7, 2, &[0xAB; 40]);
                panic!("injected panic fault");
            })
            .unwrap();
        assert!(shard.join().is_err());
        set.finish().unwrap();
        let sealed = Recording::load(&dir.join(shard_file_name(0))).unwrap();
        assert_eq!(sealed.events.len(), 4);
        assert_eq!(
            sealed.events[3],
            Event::Tx {
                at_micros: 7,
                session: 2,
                wire: vec![0xAB; 40]
            }
        );
        assert_eq!(sealed.stats.map(|s| (s.recorded, s.dropped)), Some((4, 0)));
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
