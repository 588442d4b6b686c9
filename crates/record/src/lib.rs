//! # rstp-record — per-shard flight recorder and postmortem reader
//!
//! At swarm scale a failed session used to be a one-line `Y != X`
//! verdict with no way back to the frames that caused it. This crate is
//! the observability layer: every shard of `rstp-serve` can stream its
//! frame-level events — admit, rx/tx with wire bytes, timer-wheel pop,
//! deadline miss, final verdict — into a per-shard binary file, and a
//! postmortem can reconstruct any session from those files and feed it
//! back through the simulator (see `rstp replay` and the
//! `rstp-check` bridge).
//!
//! The cardinal rule is *load independence*: recording must never pace
//! the data path. The producer side is strictly nonblocking — a bounded
//! ring accepts events with a single `try_lock`, and saturation or
//! contention drops the event and counts it, loudly, rather than
//! stalling a shard past its `c2` window (see [`ring`](mod@ring)). A writer
//! thread per shard drains the ring to disk ([`writer`]) in a
//! versioned, length-prefixed format with pinned golden bytes
//! ([`format`](mod@format)); [`reader`] and [`index`] turn the files back into
//! per-session histories.
//!
//! Timestamps are `TickClock` readings supplied by the shard, one per
//! step — this crate never reads the wall clock to stamp an event, so
//! clippy's wall-clock ban holds by construction.
//!
//! See `docs/REPLAY.md` for the format specification and the full
//! record → replay → shrink walkthrough.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod index;
pub mod reader;
pub mod ring;
pub mod writer;

pub use format::{
    Event, RecStats, Record, RecordError, RunMeta, HEADER_LEN, MAX_RECORD_LEN, RECORD_MAGIC,
    RECORD_VERSION,
};
pub use index::{SessionHistory, SessionIndex};
pub use reader::Recording;
pub use ring::{ring, RingConsumer, RingProducer};
pub use writer::{shard_file_name, RecorderSet, RecorderTotals, ShardRecorder, DEFAULT_RING_CAP};
