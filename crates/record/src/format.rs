//! The versioned, length-prefixed flight-record format, and the byte
//! layer it shares with the session snapshots `rstp-serve` stores in it.
//!
//! A recording file is a 9-byte header — the 8-byte magic `RSTPREC\0`
//! followed by a version byte — and then a stream of records. Each
//! record is a `u32` big-endian payload length followed by the payload;
//! the payload's first byte is the record kind, the rest is the
//! kind-specific body. All integers are big-endian, like the wire
//! format in `rstp-net`.
//!
//! The format is append-only and truncation-tolerant by design: a
//! flight recorder can lose power mid-record, so the reader treats a
//! short tail as a flagged condition, not corruption (see
//! [`crate::reader`]). Everything *before* the tail must parse exactly
//! — the golden-bytes tests below pin the encoding so a revision bump
//! is a conscious act, mirroring the wire-codec discipline. A body that
//! overruns its own complete payload is therefore
//! [`RecordError::Malformed`]; only an incomplete length prefix or
//! payload is [`RecordError::Truncated`].
//!
//! Record kinds:
//!
//! | kind | record | body |
//! |---|---|---|
//! | 1 | [`RunMeta`] | shard u32, c1/c2/d u64, tick_micros u64, seed flag u8 + u64 |
//! | 2 | `Admit` | at u64, session u32, protocol tag u8 + k u64 + window u64 + timeout flag u8 + u64, n u32 |
//! | 3 | `Rx` | at u64, session u32, wire len u16 + bytes |
//! | 4 | `Tx` | at u64, session u32, wire len u16 + bytes |
//! | 5 | `WheelPop` | at u64, session u32, due_tick u64, late u8 |
//! | 6 | `DeadlineMiss` | at u64, session u32, due_tick u64 |
//! | 7 | `Verdict` | at u64, session u32, completed u8, n u32 + packed bits |
//! | 8 | [`RecStats`] | recorded u64, dropped u64, epoch u32 (absent in v1) |
//! | 9 | `Snapshot` | at u64, session u32, state len u16 + bytes |
//! | 10 | `Write` | at u64, session u32, written u64, bit u8 |
//!
//! Version 2 added kinds 9/10 (session snapshots and incremental write
//! records — the durability source for crash recovery) and the stats
//! `epoch` field, which identifies the shard-writer incarnation a stats
//! record belongs to so shed accounting can dedupe mid-file checkpoints
//! from trailers. A v2 reader still parses v1 files: the epoch field is
//! optional on decode and defaults to 0.
//!
//! # The byte layer
//!
//! Records and session snapshots are written with one set of writers
//! ([`put_u16`], [`put_u32`], [`put_u64`], [`put_opt_u64`],
//! [`put_bits`], [`put_blob`], [`put_kind`]) and read back with one
//! bounds-checked [`Reader`], so both formats make the same decisions
//! about every field shape they share.

use rstp_sim::ProtocolKind;
use std::fmt;

/// Leading file magic: `RSTPREC\0`.
pub const RECORD_MAGIC: [u8; 8] = *b"RSTPREC\0";
/// Current format version; a reader rejects anything newer.
pub const RECORD_VERSION: u8 = 2;
/// File header length: magic plus version byte.
pub const HEADER_LEN: usize = RECORD_MAGIC.len() + 1;
/// Hard ceiling on one record's payload. Real records stay far below
/// it — a snapshot's state is at most `u16::MAX` bytes and a verdict
/// packs eight messages to a byte — so an oversized length prefix
/// means corruption, not load.
pub const MAX_RECORD_LEN: u32 = 1 << 20;

/// Decode failure for a recording header, a record or a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordError {
    /// Fewer bytes than the construct needs.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes present.
        got: usize,
    },
    /// The file does not start with [`RECORD_MAGIC`].
    BadMagic,
    /// The version byte is newer than this reader.
    FutureVersion {
        /// Version byte found.
        got: u8,
    },
    /// An unassigned record-kind byte.
    UnknownKind {
        /// Kind byte found.
        got: u8,
    },
    /// A length or element count above its cap ([`MAX_RECORD_LEN`] for
    /// a record's length prefix), refused before anything is allocated.
    Oversized {
        /// Declared length or count.
        len: u32,
        /// The largest value accepted there.
        cap: u32,
    },
    /// A structurally invalid body (bad protocol tag, flag byte or
    /// padding bits, an inner length that overruns the payload, or
    /// trailing bytes).
    Malformed {
        /// What was wrong.
        what: &'static str,
    },
    /// Filesystem failure while loading a recording (reader only; the
    /// pure decoders never return this).
    Io {
        /// Rendered OS error with path context.
        what: String,
    },
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Truncated { need, got } => {
                write!(f, "truncated record: need {need} bytes, got {got}")
            }
            RecordError::BadMagic => f.write_str("bad magic: not an rstp recording"),
            RecordError::FutureVersion { got } => {
                write!(f, "format version {got} is newer than this reader")
            }
            RecordError::UnknownKind { got } => write!(f, "unknown record kind {got}"),
            RecordError::Oversized { len, cap } => {
                write!(f, "length {len} exceeds the {cap} cap")
            }
            RecordError::Malformed { what } => write!(f, "malformed record: {what}"),
            RecordError::Io { what } => write!(f, "recording io: {what}"),
        }
    }
}

impl std::error::Error for RecordError {}

/// Run-level metadata, written once at the start of every shard file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunMeta {
    /// Shard index the file belongs to.
    pub shard: u32,
    /// `c1` in ticks.
    pub c1: u64,
    /// `c2` in ticks.
    pub c2: u64,
    /// `d` in ticks.
    pub d: u64,
    /// Wall-clock length of one tick, microseconds.
    pub tick_micros: u64,
    /// Swarm input seed, when the run's inputs were seed-derived
    /// (`random_input(n, seed + session - 1)` per the swarm convention).
    pub seed: Option<u64>,
}

/// Ring statistics, written as the trailer of every shard file — and,
/// since format v2, also mid-file as a checkpoint before a shard
/// restarts. Counters are cumulative *within one writer incarnation*;
/// the `epoch` field names that incarnation so readers can dedupe a
/// checkpoint from the trailer that supersedes it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecStats {
    /// Events that made it into the file.
    pub recorded: u64,
    /// Events dropped at the ring (full buffer or contended lock).
    pub dropped: u64,
    /// Writer incarnation the counters belong to (0 for v1 files).
    pub epoch: u32,
}

/// One frame-level event, stamped with the shard clock's microsecond
/// reading: the one `TickClock` reading of the step it belongs to, so
/// every event of a step carries the same stamp (the shard never reads
/// the wall clock on the recorder's behalf).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A session was admitted to the shard's table.
    Admit {
        /// Clock stamp, microseconds since the epoch.
        at_micros: u64,
        /// Raw session id.
        session: u32,
        /// Protocol the session speaks.
        kind: ProtocolKind,
        /// Messages the transfer carries.
        n: u32,
    },
    /// A frame was applied as a `recv` input (wire bytes included).
    Rx {
        /// Clock stamp at application.
        at_micros: u64,
        /// Raw session id.
        session: u32,
        /// The frame's canonical wire encoding.
        wire: Vec<u8>,
    },
    /// A frame was produced by a local step (wire bytes included).
    Tx {
        /// Clock stamp at encoding.
        at_micros: u64,
        /// Raw session id.
        session: u32,
        /// The frame's wire encoding as shipped.
        wire: Vec<u8>,
    },
    /// The timer wheel popped a session's deadline.
    WheelPop {
        /// Clock stamp at the wake.
        at_micros: u64,
        /// Raw session id.
        session: u32,
        /// The tick the deadline was scheduled for.
        due_tick: u64,
        /// Whether the wake overshot the slack (counted as a miss).
        late: bool,
    },
    /// A deadline miss was booked against the session.
    DeadlineMiss {
        /// Clock stamp at the late wake.
        at_micros: u64,
        /// Raw session id.
        session: u32,
        /// The tick that was missed.
        due_tick: u64,
    },
    /// A full serialized session state (the versioned snapshot encoding
    /// from `rstp-serve`), written on admit and on handover-admit. A
    /// crash recovery starts from the latest snapshot and replays the
    /// events after it.
    Snapshot {
        /// Clock stamp at capture.
        at_micros: u64,
        /// Raw session id.
        session: u32,
        /// Opaque versioned snapshot bytes.
        state: Vec<u8>,
    },
    /// The receiver wrote (acknowledged) one message. `written` is the
    /// cumulative count *after* this write — the durable floor a
    /// restarted node must reach again — and `bit` is the message value,
    /// so the no-acknowledged-loss oracle can check the Y-prefix by
    /// content, not just length.
    Write {
        /// Clock stamp at the write.
        at_micros: u64,
        /// Raw session id.
        session: u32,
        /// Cumulative messages written after this one.
        written: u64,
        /// The message value written.
        bit: bool,
    },
    /// The session left the table; `written` is its final output `Y`.
    Verdict {
        /// Clock stamp at retirement (or shutdown, for unfinished).
        at_micros: u64,
        /// Raw session id.
        session: u32,
        /// Whether the session completed (vs. shutdown-unfinished).
        completed: bool,
        /// The receiver's written bits.
        written: Vec<bool>,
    },
}

impl Event {
    /// Whether crash recovery depends on this event: an `Admit`, a
    /// `Snapshot` or a `Verdict`. A full ring never sheds a batch that
    /// holds one (see [`ring`](mod@crate::ring)).
    #[must_use]
    pub fn is_durable(&self) -> bool {
        matches!(
            self,
            Event::Admit { .. } | Event::Snapshot { .. } | Event::Verdict { .. }
        )
    }
}

/// Any record a shard file can contain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// File-leading run metadata.
    Meta(RunMeta),
    /// A frame-level event.
    Event(Event),
    /// File-trailing ring statistics.
    Stats(RecStats),
}

const KIND_META: u8 = 1;
const KIND_ADMIT: u8 = 2;
const KIND_RX: u8 = 3;
const KIND_TX: u8 = 4;
const KIND_POP: u8 = 5;
const KIND_MISS: u8 = 6;
const KIND_VERDICT: u8 = 7;
const KIND_STATS: u8 = 8;
const KIND_SNAPSHOT: u8 = 9;
const KIND_WRITE: u8 = 10;

const TAG_ALPHA: u8 = 1;
const TAG_BETA: u8 = 2;
const TAG_GAMMA: u8 = 3;
const TAG_ALTBIT: u8 = 4;
const TAG_FRAMED: u8 = 5;
const TAG_BETA_WINDOW: u8 = 6;
const TAG_STENNING: u8 = 7;
const TAG_PIPELINED: u8 = 8;
const TAG_STAB_STENNING: u8 = 9;
const TAG_STAB_BETA: u8 = 10;

/// Appends the 9-byte file header.
pub fn write_header(out: &mut Vec<u8>) {
    out.extend_from_slice(&RECORD_MAGIC);
    out.push(RECORD_VERSION);
}

/// Validates the file header; returns [`HEADER_LEN`] on success.
///
/// # Errors
///
/// [`RecordError::Truncated`], [`RecordError::BadMagic`], or
/// [`RecordError::FutureVersion`].
pub fn read_header(buf: &[u8]) -> Result<usize, RecordError> {
    if buf.len() < HEADER_LEN {
        return Err(RecordError::Truncated {
            need: HEADER_LEN,
            got: buf.len(),
        });
    }
    if !buf.starts_with(&RECORD_MAGIC) {
        return Err(RecordError::BadMagic);
    }
    let version = buf.get(RECORD_MAGIC.len()).copied().unwrap_or(0);
    if version > RECORD_VERSION {
        return Err(RecordError::FutureVersion { got: version });
    }
    Ok(HEADER_LEN)
}

/// Appends `v` big-endian.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends `v` big-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends `v` big-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends a flag byte (1 when present), then the value (0 when absent).
pub fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    out.push(u8::from(v.is_some()));
    put_u64(out, v.unwrap_or(0));
}

/// Appends packed booleans: a `u32` count, then `ceil(count / 8)`
/// bytes, LSB-first within each byte, with zero padding bits.
pub fn put_bits(out: &mut Vec<u8>, bits: &[bool]) {
    put_u32(out, u32::try_from(bits.len()).unwrap_or(u32::MAX));
    for byte in bits.chunks(8) {
        out.push(
            byte.iter()
                .enumerate()
                .fold(0, |acc, (i, &bit)| acc | u8::from(bit) << i),
        );
    }
}

/// Appends a `u16` length, then that many bytes: all of `bytes`, or the
/// first `u16::MAX` of a longer slice.
pub fn put_blob(out: &mut Vec<u8>, bytes: &[u8]) {
    let len = u16::try_from(bytes.len()).unwrap_or(u16::MAX);
    put_u16(out, len);
    out.extend_from_slice(bytes.get(..usize::from(len)).unwrap_or_default());
}

/// Appends `kind` in the layout `Admit` records and session snapshots
/// share: tag u8, k u64, window u64, timeout flag u8 + u64.
/// [`Reader::kind`] reads it back.
pub fn put_kind(out: &mut Vec<u8>, kind: ProtocolKind) {
    let (tag, k, window, timeout) = match kind {
        ProtocolKind::Alpha => (TAG_ALPHA, 0, 0, None),
        ProtocolKind::Beta { k } => (TAG_BETA, k, 0, None),
        ProtocolKind::Gamma { k } => (TAG_GAMMA, k, 0, None),
        ProtocolKind::AltBit { timeout_steps } => (TAG_ALTBIT, 0, 0, timeout_steps),
        ProtocolKind::Framed { k } => (TAG_FRAMED, k, 0, None),
        ProtocolKind::BetaWindow { k } => (TAG_BETA_WINDOW, k, 0, None),
        ProtocolKind::Stenning { timeout_steps } => (TAG_STENNING, 0, 0, timeout_steps),
        ProtocolKind::Pipelined { k, window } => (TAG_PIPELINED, k, window, None),
        ProtocolKind::StabStenning { timeout_steps } => (TAG_STAB_STENNING, 0, 0, timeout_steps),
        ProtocolKind::StabBeta { k } => (TAG_STAB_BETA, k, 0, None),
    };
    out.push(tag);
    put_u64(out, k);
    put_u64(out, window);
    put_opt_u64(out, timeout);
}

/// The bounds-checked reader of everything the `put_*` writers write.
///
/// # Errors
///
/// Every read fails the same three ways, and no input can make one
/// panic: [`RecordError::Truncated`] when the input ends early;
/// [`RecordError::Oversized`] when a count exceeds the cap its caller
/// passes, refused before anything is allocated; and
/// [`RecordError::Malformed`] for bytes no writer produces (a flag other
/// than 0 or 1, a set padding bit, an unknown protocol tag, bytes left
/// at [`Reader::finish`]).
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], RecordError> {
        let end = self.pos.saturating_add(n);
        let bytes = self.buf.get(self.pos..end).ok_or(RecordError::Truncated {
            need: end,
            got: self.buf.len(),
        })?;
        self.pos = end;
        Ok(bytes)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], RecordError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, RecordError> {
        self.array().map(u8::from_be_bytes)
    }

    /// A big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, RecordError> {
        self.array().map(u16::from_be_bytes)
    }

    /// A big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, RecordError> {
        self.array().map(u32::from_be_bytes)
    }

    /// A big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, RecordError> {
        self.array().map(u64::from_be_bytes)
    }

    /// A strict boolean byte, 0 or 1; `what` names it when it is not.
    pub fn flag(&mut self, what: &'static str) -> Result<bool, RecordError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(RecordError::Malformed { what }),
        }
    }

    /// What [`put_opt_u64`] wrote; `what` names its flag.
    pub fn opt_u64(&mut self, what: &'static str) -> Result<Option<u64>, RecordError> {
        let some = self.flag(what)?;
        let v = self.u64()?;
        Ok(some.then_some(v))
    }

    /// A `u32` element count of at most `cap`.
    pub fn count(&mut self, cap: u32) -> Result<usize, RecordError> {
        match self.u32()? {
            len if len > cap => Err(RecordError::Oversized { len, cap }),
            len => Ok(usize::try_from(len).unwrap_or(usize::MAX)),
        }
    }

    /// What [`put_bits`] wrote, at most `cap` bits. Padding bits must be
    /// zero, so each value has exactly one encoding.
    pub fn bits(&mut self, cap: u32) -> Result<Vec<bool>, RecordError> {
        let n = self.count(cap)?;
        let packed = self.take(n.div_ceil(8))?;
        if n % 8 != 0 && packed.last().is_some_and(|&b| b >> (n % 8) != 0) {
            return Err(RecordError::Malformed {
                what: "nonzero padding bits",
            });
        }
        Ok(packed
            .iter()
            .flat_map(|&byte| (0..8).map(move |i| byte >> i & 1 == 1))
            .take(n)
            .collect())
    }

    /// What [`put_blob`] wrote.
    pub fn blob(&mut self) -> Result<&'a [u8], RecordError> {
        let len = self.u16()?;
        self.take(usize::from(len))
    }

    /// What [`put_kind`] wrote.
    pub fn kind(&mut self) -> Result<ProtocolKind, RecordError> {
        let tag = self.u8()?;
        let k = self.u64()?;
        let window = self.u64()?;
        let timeout_steps = self.opt_u64("protocol timeout flag")?;
        Ok(match tag {
            TAG_ALPHA => ProtocolKind::Alpha,
            TAG_BETA => ProtocolKind::Beta { k },
            TAG_GAMMA => ProtocolKind::Gamma { k },
            TAG_ALTBIT => ProtocolKind::AltBit { timeout_steps },
            TAG_FRAMED => ProtocolKind::Framed { k },
            TAG_BETA_WINDOW => ProtocolKind::BetaWindow { k },
            TAG_STENNING => ProtocolKind::Stenning { timeout_steps },
            TAG_PIPELINED => ProtocolKind::Pipelined { k, window },
            TAG_STAB_STENNING => ProtocolKind::StabStenning { timeout_steps },
            TAG_STAB_BETA => ProtocolKind::StabBeta { k },
            _ => {
                return Err(RecordError::Malformed {
                    what: "unknown protocol tag",
                })
            }
        })
    }

    /// Succeeds when every byte was read.
    pub fn finish(&self) -> Result<(), RecordError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(RecordError::Malformed {
                what: "trailing bytes after body",
            })
        }
    }
}

/// Appends one length-prefixed record.
pub fn encode_record(rec: &Record, out: &mut Vec<u8>) {
    let start = begin_record(out);
    match rec {
        Record::Meta(m) => {
            out.push(KIND_META);
            put_u32(out, m.shard);
            put_u64(out, m.c1);
            put_u64(out, m.c2);
            put_u64(out, m.d);
            put_u64(out, m.tick_micros);
            put_opt_u64(out, m.seed);
        }
        Record::Event(ev) => encode_event(ev, out),
        Record::Stats(s) => {
            out.push(KIND_STATS);
            put_u64(out, s.recorded);
            put_u64(out, s.dropped);
            put_u32(out, s.epoch);
        }
    }
    end_record(out, start);
}

/// Which way a recorded frame went: `Rx` and `Tx` records share one
/// layout and differ only in their kind byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameDir {
    /// Applied as a `recv` input ([`Event::Rx`]).
    Rx,
    /// Produced by a local step ([`Event::Tx`]).
    Tx,
}

/// Appends one length-prefixed `Rx` or `Tx` record straight from the
/// frame's bytes: the same encoding as [`encode_record`] of the
/// matching [`Event`], without building one.
pub(crate) fn encode_frame(
    dir: FrameDir,
    at_micros: u64,
    session: u32,
    wire: &[u8],
    out: &mut Vec<u8>,
) {
    let start = begin_record(out);
    put_frame_body(dir, at_micros, session, wire, out);
    end_record(out, start);
}

/// Reserves a record's length prefix; [`end_record`] fills it in once
/// the payload after it is written.
fn begin_record(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    put_u32(out, 0);
    start
}

/// Back-patches the length prefix reserved at `start` with the length
/// of everything appended after it.
fn end_record(out: &mut [u8], start: usize) {
    let payload = out.len().saturating_sub(start + 4);
    let len = u32::try_from(payload).unwrap_or(u32::MAX).to_be_bytes();
    if let Some(prefix) = out.get_mut(start..start + 4) {
        prefix.copy_from_slice(&len);
    }
}

/// The payload `Rx` and `Tx` records share.
fn put_frame_body(dir: FrameDir, at_micros: u64, session: u32, wire: &[u8], out: &mut Vec<u8>) {
    out.push(match dir {
        FrameDir::Rx => KIND_RX,
        FrameDir::Tx => KIND_TX,
    });
    put_u64(out, at_micros);
    put_u32(out, session);
    put_blob(out, wire);
}

fn encode_event(ev: &Event, out: &mut Vec<u8>) {
    match ev {
        Event::Admit {
            at_micros,
            session,
            kind,
            n,
        } => {
            out.push(KIND_ADMIT);
            put_u64(out, *at_micros);
            put_u32(out, *session);
            put_kind(out, *kind);
            put_u32(out, *n);
        }
        Event::Rx {
            at_micros,
            session,
            wire,
        } => put_frame_body(FrameDir::Rx, *at_micros, *session, wire, out),
        Event::Tx {
            at_micros,
            session,
            wire,
        } => put_frame_body(FrameDir::Tx, *at_micros, *session, wire, out),
        Event::WheelPop {
            at_micros,
            session,
            due_tick,
            late,
        } => {
            out.push(KIND_POP);
            put_u64(out, *at_micros);
            put_u32(out, *session);
            put_u64(out, *due_tick);
            out.push(u8::from(*late));
        }
        Event::DeadlineMiss {
            at_micros,
            session,
            due_tick,
        } => {
            out.push(KIND_MISS);
            put_u64(out, *at_micros);
            put_u32(out, *session);
            put_u64(out, *due_tick);
        }
        Event::Snapshot {
            at_micros,
            session,
            state,
        } => {
            out.push(KIND_SNAPSHOT);
            put_u64(out, *at_micros);
            put_u32(out, *session);
            put_blob(out, state);
        }
        Event::Write {
            at_micros,
            session,
            written,
            bit,
        } => {
            out.push(KIND_WRITE);
            put_u64(out, *at_micros);
            put_u32(out, *session);
            put_u64(out, *written);
            out.push(u8::from(*bit));
        }
        Event::Verdict {
            at_micros,
            session,
            completed,
            written,
        } => {
            out.push(KIND_VERDICT);
            put_u64(out, *at_micros);
            put_u32(out, *session);
            out.push(u8::from(*completed));
            put_bits(out, written);
        }
    }
}

/// Decodes one length-prefixed record from the start of `buf`.
/// Returns the record and the total bytes consumed (prefix + payload).
///
/// # Errors
///
/// [`RecordError::Truncated`] when the length prefix or the payload is
/// incomplete, [`RecordError::Oversized`] for a length prefix above
/// [`MAX_RECORD_LEN`], [`RecordError::UnknownKind`], or
/// [`RecordError::Malformed`] for a body that does not fill its complete
/// payload exactly.
pub fn decode_record(buf: &[u8]) -> Result<(Record, usize), RecordError> {
    let mut r = Reader::new(buf);
    let len = r.count(MAX_RECORD_LEN)?;
    let Some((&kind, body)) = r.take(len)?.split_first() else {
        return Err(RecordError::Malformed {
            what: "empty payload",
        });
    };
    // The payload is complete, so a body that runs past it is corrupt,
    // not the cut-off tail of a file.
    let rec = decode_body(kind, &mut Reader::new(body)).map_err(|e| match e {
        RecordError::Truncated { .. } => RecordError::Malformed {
            what: "body overruns its record",
        },
        e => e,
    })?;
    Ok((rec, buf.len() - r.remaining()))
}

fn decode_body(kind: u8, b: &mut Reader<'_>) -> Result<Record, RecordError> {
    let rec = match kind {
        KIND_META => Record::Meta(RunMeta {
            shard: b.u32()?,
            c1: b.u64()?,
            c2: b.u64()?,
            d: b.u64()?,
            tick_micros: b.u64()?,
            seed: b.opt_u64("meta seed flag")?,
        }),
        KIND_ADMIT => Record::Event(Event::Admit {
            at_micros: b.u64()?,
            session: b.u32()?,
            kind: b.kind()?,
            n: b.u32()?,
        }),
        KIND_RX => Record::Event(Event::Rx {
            at_micros: b.u64()?,
            session: b.u32()?,
            wire: b.blob()?.to_vec(),
        }),
        KIND_TX => Record::Event(Event::Tx {
            at_micros: b.u64()?,
            session: b.u32()?,
            wire: b.blob()?.to_vec(),
        }),
        KIND_POP => Record::Event(Event::WheelPop {
            at_micros: b.u64()?,
            session: b.u32()?,
            due_tick: b.u64()?,
            late: b.flag("pop late flag")?,
        }),
        KIND_MISS => Record::Event(Event::DeadlineMiss {
            at_micros: b.u64()?,
            session: b.u32()?,
            due_tick: b.u64()?,
        }),
        KIND_VERDICT => Record::Event(Event::Verdict {
            at_micros: b.u64()?,
            session: b.u32()?,
            completed: b.flag("verdict completed flag")?,
            // No cap of its own: the payload, at most MAX_RECORD_LEN
            // bytes, bounds the bit count.
            written: b.bits(u32::MAX)?,
        }),
        KIND_STATS => Record::Stats(RecStats {
            recorded: b.u64()?,
            dropped: b.u64()?,
            // The epoch field arrived in format v2; v1 stats bodies end
            // after the counters and decode with epoch 0.
            epoch: if b.remaining() >= 4 { b.u32()? } else { 0 },
        }),
        KIND_SNAPSHOT => Record::Event(Event::Snapshot {
            at_micros: b.u64()?,
            session: b.u32()?,
            state: b.blob()?.to_vec(),
        }),
        KIND_WRITE => Record::Event(Event::Write {
            at_micros: b.u64()?,
            session: b.u32()?,
            written: b.u64()?,
            bit: b.flag("write bit flag")?,
        }),
        got => return Err(RecordError::UnknownKind { got }),
    };
    b.finish()?;
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: &Record) {
        let mut buf = Vec::new();
        encode_record(rec, &mut buf);
        let (got, used) = decode_record(&buf).unwrap();
        assert_eq!(&got, rec);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn every_record_kind_round_trips() {
        roundtrip(&Record::Meta(RunMeta {
            shard: 3,
            c1: 1,
            c2: 2,
            d: 8,
            tick_micros: 200,
            seed: Some(42),
        }));
        roundtrip(&Record::Meta(RunMeta {
            shard: 0,
            c1: 2,
            c2: 5,
            d: 11,
            tick_micros: 1000,
            seed: None,
        }));
        for kind in [
            ProtocolKind::Alpha,
            ProtocolKind::Beta { k: 4 },
            ProtocolKind::Gamma { k: 2 },
            ProtocolKind::AltBit {
                timeout_steps: None,
            },
            ProtocolKind::AltBit {
                timeout_steps: Some(9),
            },
            ProtocolKind::Framed { k: 3 },
            ProtocolKind::BetaWindow { k: 5 },
            ProtocolKind::Stenning {
                timeout_steps: Some(7),
            },
            ProtocolKind::Pipelined { k: 4, window: 2 },
        ] {
            roundtrip(&Record::Event(Event::Admit {
                at_micros: 12345,
                session: 7,
                kind,
                n: 64,
            }));
        }
        roundtrip(&Record::Event(Event::Rx {
            at_micros: 1,
            session: 2,
            wire: vec![0xAA; 40],
        }));
        roundtrip(&Record::Event(Event::Tx {
            at_micros: u64::MAX,
            session: u32::MAX,
            wire: Vec::new(),
        }));
        roundtrip(&Record::Event(Event::WheelPop {
            at_micros: 5,
            session: 6,
            due_tick: 77,
            late: true,
        }));
        roundtrip(&Record::Event(Event::DeadlineMiss {
            at_micros: 5,
            session: 6,
            due_tick: 78,
        }));
        for n in [0usize, 1, 7, 8, 9, 64] {
            roundtrip(&Record::Event(Event::Verdict {
                at_micros: 9,
                session: 1,
                completed: n % 2 == 0,
                written: (0..n).map(|i| i % 3 == 0).collect(),
            }));
        }
        roundtrip(&Record::Event(Event::Snapshot {
            at_micros: 44,
            session: 3,
            state: vec![0x01, 0xFF, 0x00, 0x42],
        }));
        roundtrip(&Record::Event(Event::Snapshot {
            at_micros: 0,
            session: 0,
            state: Vec::new(),
        }));
        roundtrip(&Record::Event(Event::Write {
            at_micros: 55,
            session: 8,
            written: 17,
            bit: true,
        }));
        roundtrip(&Record::Stats(RecStats {
            recorded: 1000,
            dropped: 3,
            epoch: 0,
        }));
        roundtrip(&Record::Stats(RecStats {
            recorded: 12,
            dropped: 0,
            epoch: 2,
        }));
    }

    /// A v1 stats body (no epoch field) still decodes, with epoch 0:
    /// pre-v2 recordings must keep parsing under the v2 reader.
    #[test]
    fn v1_stats_body_decodes_with_epoch_zero() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&17u32.to_be_bytes());
        buf.push(8); // KIND_STATS
        buf.extend_from_slice(&2u64.to_be_bytes());
        buf.extend_from_slice(&1u64.to_be_bytes());
        let (rec, used) = decode_record(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(
            rec,
            Record::Stats(RecStats {
                recorded: 2,
                dropped: 1,
                epoch: 0,
            })
        );
    }

    /// Golden bytes: the exact encoding of a header plus one small
    /// record of each fixed-size kind. Any change to these bytes is a
    /// format revision and must bump [`RECORD_VERSION`].
    #[test]
    fn golden_bytes_are_pinned() {
        let mut buf = Vec::new();
        write_header(&mut buf);
        encode_record(
            &Record::Meta(RunMeta {
                shard: 1,
                c1: 1,
                c2: 2,
                d: 8,
                tick_micros: 200,
                seed: Some(5),
            }),
            &mut buf,
        );
        encode_record(
            &Record::Event(Event::WheelPop {
                at_micros: 0x0102,
                session: 9,
                due_tick: 3,
                late: false,
            }),
            &mut buf,
        );
        encode_record(
            &Record::Stats(RecStats {
                recorded: 2,
                dropped: 1,
                epoch: 7,
            }),
            &mut buf,
        );
        encode_record(
            &Record::Event(Event::Write {
                at_micros: 0x0304,
                session: 6,
                written: 12,
                bit: true,
            }),
            &mut buf,
        );
        let expected: Vec<u8> = vec![
            // header: magic + version 2
            b'R', b'S', b'T', b'P', b'R', b'E', b'C', 0, 2, //
            // Meta: len 46, kind 1, shard 1, c1 1, c2 2, d 8, tick 200,
            // seed flag 1 + 5
            0, 0, 0, 46, 1, //
            0, 0, 0, 1, //
            0, 0, 0, 0, 0, 0, 0, 1, //
            0, 0, 0, 0, 0, 0, 0, 2, //
            0, 0, 0, 0, 0, 0, 0, 8, //
            0, 0, 0, 0, 0, 0, 0, 200, //
            1, 0, 0, 0, 0, 0, 0, 0, 5, //
            // WheelPop: len 22, kind 5, at 0x0102, session 9, due 3, late 0
            0, 0, 0, 22, 5, //
            0, 0, 0, 0, 0, 0, 1, 2, //
            0, 0, 0, 9, //
            0, 0, 0, 0, 0, 0, 0, 3, //
            0, //
            // Stats: len 21, kind 8, recorded 2, dropped 1, epoch 7
            0, 0, 0, 21, 8, //
            0, 0, 0, 0, 0, 0, 0, 2, //
            0, 0, 0, 0, 0, 0, 0, 1, //
            0, 0, 0, 7, //
            // Write: len 22, kind 10, at 0x0304, session 6, written 12, bit 1
            0, 0, 0, 22, 10, //
            0, 0, 0, 0, 0, 0, 3, 4, //
            0, 0, 0, 6, //
            0, 0, 0, 0, 0, 0, 0, 12, //
            1,  //
        ];
        assert_eq!(buf, expected);
    }

    /// Golden bytes for the event kinds the test above leaves out: the
    /// protocol header with a timeout, the three length-prefixed blobs
    /// and a verdict whose last bit byte is partial.
    #[test]
    fn golden_bytes_pin_the_other_event_kinds() {
        let mut buf = Vec::new();
        for ev in [
            Event::Admit {
                at_micros: 0x0102,
                session: 3,
                kind: ProtocolKind::Stenning {
                    timeout_steps: Some(7),
                },
                n: 16,
            },
            Event::Rx {
                at_micros: 1,
                session: 2,
                wire: vec![0xAA, 0xBB],
            },
            Event::Tx {
                at_micros: 4,
                session: 5,
                wire: vec![0x52],
            },
            Event::DeadlineMiss {
                at_micros: 6,
                session: 7,
                due_tick: 8,
            },
            Event::Snapshot {
                at_micros: 9,
                session: 10,
                state: vec![1, 2, 3],
            },
            Event::Verdict {
                at_micros: 11,
                session: 12,
                completed: true,
                written: vec![
                    true, false, true, true, false, false, false, false, true, true,
                ],
            },
        ] {
            encode_record(&Record::Event(ev), &mut buf);
        }
        #[rustfmt::skip]
        let expected: Vec<u8> = vec![
            // Admit: len 43, kind 2, at 0x0102, session 3,
            // tag 7 (stenning), k 0, window 0, timeout flag 1 + 7, n 16
            0, 0, 0, 43, 2,
            0, 0, 0, 0, 0, 0, 1, 2,
            0, 0, 0, 3,
            7,
            0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0,
            1, 0, 0, 0, 0, 0, 0, 0, 7,
            0, 0, 0, 16,
            // Rx: len 17, kind 3, at 1, session 2, wire len 2 + bytes
            0, 0, 0, 17, 3,
            0, 0, 0, 0, 0, 0, 0, 1,
            0, 0, 0, 2,
            0, 2, 0xAA, 0xBB,
            // Tx: len 16, kind 4, at 4, session 5, wire len 1 + byte
            0, 0, 0, 16, 4,
            0, 0, 0, 0, 0, 0, 0, 4,
            0, 0, 0, 5,
            0, 1, 0x52,
            // DeadlineMiss: len 21, kind 6, at 6, session 7, due 8
            0, 0, 0, 21, 6,
            0, 0, 0, 0, 0, 0, 0, 6,
            0, 0, 0, 7,
            0, 0, 0, 0, 0, 0, 0, 8,
            // Snapshot: len 18, kind 9, at 9, session 10, state len 3 + bytes
            0, 0, 0, 18, 9,
            0, 0, 0, 0, 0, 0, 0, 9,
            0, 0, 0, 10,
            0, 3, 1, 2, 3,
            // Verdict: len 20, kind 7, at 11, session 12, completed 1,
            // 10 bits LSB-first: 1011_0000 then 11 + six zero pad bits
            0, 0, 0, 20, 7,
            0, 0, 0, 0, 0, 0, 0, 11,
            0, 0, 0, 12,
            1,
            0, 0, 0, 10, 0b0000_1101, 0b0000_0011,
        ];
        assert_eq!(buf, expected);
    }

    #[test]
    fn header_errors_are_exhaustive() {
        // Truncated header.
        assert_eq!(
            read_header(&RECORD_MAGIC[..5]),
            Err(RecordError::Truncated { need: 9, got: 5 })
        );
        // Bad magic.
        let mut bad = RECORD_MAGIC.to_vec();
        bad[0] ^= 0xFF;
        bad.push(RECORD_VERSION);
        assert_eq!(read_header(&bad), Err(RecordError::BadMagic));
        // Future version.
        let mut future = RECORD_MAGIC.to_vec();
        future.push(RECORD_VERSION + 1);
        assert_eq!(
            read_header(&future),
            Err(RecordError::FutureVersion {
                got: RECORD_VERSION + 1
            })
        );
        // A valid header parses.
        let mut ok = RECORD_MAGIC.to_vec();
        ok.push(RECORD_VERSION);
        assert_eq!(read_header(&ok), Ok(HEADER_LEN));
    }

    #[test]
    fn record_decode_errors_are_exhaustive() {
        let mut buf = Vec::new();
        encode_record(
            &Record::Event(Event::DeadlineMiss {
                at_micros: 1,
                session: 2,
                due_tick: 3,
            }),
            &mut buf,
        );
        // Truncated at every prefix length strictly shorter than the record.
        for cut in 0..buf.len() {
            assert!(
                matches!(
                    decode_record(&buf[..cut]),
                    Err(RecordError::Truncated { .. })
                ),
                "cut at {cut}"
            );
        }
        // Unknown kind byte.
        let mut unk = buf.clone();
        unk[4] = 0xEE;
        assert_eq!(
            decode_record(&unk),
            Err(RecordError::UnknownKind { got: 0xEE })
        );
        // Oversized length prefix.
        let mut big = buf.clone();
        big[..4].copy_from_slice(&(MAX_RECORD_LEN + 1).to_be_bytes());
        assert_eq!(
            decode_record(&big),
            Err(RecordError::Oversized {
                len: MAX_RECORD_LEN + 1,
                cap: MAX_RECORD_LEN
            })
        );
        // Zero-length payload.
        assert_eq!(
            decode_record(&[0, 0, 0, 0]),
            Err(RecordError::Malformed {
                what: "empty payload"
            })
        );
        // Trailing bytes inside the declared payload.
        let mut fat = buf.clone();
        fat.push(0xAB);
        let len = u32::try_from(fat.len() - 4).unwrap();
        fat[..4].copy_from_slice(&len.to_be_bytes());
        assert_eq!(
            decode_record(&fat),
            Err(RecordError::Malformed {
                what: "trailing bytes after body"
            })
        );
        // A non-boolean flag byte.
        let mut pop = Vec::new();
        encode_record(
            &Record::Event(Event::WheelPop {
                at_micros: 1,
                session: 2,
                due_tick: 3,
                late: false,
            }),
            &mut pop,
        );
        let last = pop.len() - 1;
        pop[last] = 2;
        assert_eq!(
            decode_record(&pop),
            Err(RecordError::Malformed {
                what: "pop late flag"
            })
        );
        // A snapshot whose inner length overruns its complete payload:
        // corruption, not a truncated file.
        let mut snap = Vec::new();
        encode_record(
            &Record::Event(Event::Snapshot {
                at_micros: 1,
                session: 2,
                state: vec![0xAA, 0xBB],
            }),
            &mut snap,
        );
        // Inner state length sits after len(4)+kind(1)+at(8)+session(4).
        snap[4 + 1 + 8 + 4 + 1] = 0xFF;
        assert_eq!(
            decode_record(&snap),
            Err(RecordError::Malformed {
                what: "body overruns its record"
            })
        );
        // Nonzero padding bits after a verdict's last bit: each verdict
        // has exactly one encoding.
        let mut verdict = Vec::new();
        encode_record(
            &Record::Event(Event::Verdict {
                at_micros: 1,
                session: 2,
                completed: true,
                written: vec![true, false, true],
            }),
            &mut verdict,
        );
        *verdict.last_mut().unwrap() |= 0b1000_0000;
        assert!(matches!(
            decode_record(&verdict),
            Err(RecordError::Malformed { .. })
        ));
        // A non-boolean write bit.
        let mut wr = Vec::new();
        encode_record(
            &Record::Event(Event::Write {
                at_micros: 1,
                session: 2,
                written: 3,
                bit: false,
            }),
            &mut wr,
        );
        let last = wr.len() - 1;
        wr[last] = 9;
        assert_eq!(
            decode_record(&wr),
            Err(RecordError::Malformed {
                what: "write bit flag"
            })
        );
        // A bad protocol tag.
        let mut admit = Vec::new();
        encode_record(
            &Record::Event(Event::Admit {
                at_micros: 1,
                session: 2,
                kind: ProtocolKind::Alpha,
                n: 4,
            }),
            &mut admit,
        );
        admit[4 + 1 + 8 + 4] = 0xBB; // the tag byte after len+kind+at+session
        assert_eq!(
            decode_record(&admit),
            Err(RecordError::Malformed {
                what: "unknown protocol tag"
            })
        );
    }

    /// A frame record written straight from the wire bytes is the
    /// record an `Rx`/`Tx` event encodes to, and its length prefix is
    /// back-patched in place behind bytes already in the buffer.
    #[test]
    fn encode_frame_matches_the_event_encoding() {
        let wire: Vec<u8> = (0..40).collect();
        for (dir, ev) in [
            (
                FrameDir::Rx,
                Event::Rx {
                    at_micros: 7,
                    session: 3,
                    wire: wire.clone(),
                },
            ),
            (
                FrameDir::Tx,
                Event::Tx {
                    at_micros: 7,
                    session: 3,
                    wire: wire.clone(),
                },
            ),
        ] {
            let mut want = vec![0xEE];
            encode_record(&Record::Event(ev), &mut want);
            let mut got = vec![0xEE];
            encode_frame(dir, 7, 3, &wire, &mut got);
            assert_eq!(got, want);
            let (rec, used) = decode_record(&got[1..]).unwrap();
            assert_eq!(used, got.len() - 1);
            assert!(matches!(
                rec,
                Record::Event(Event::Rx { .. } | Event::Tx { .. })
            ));
        }
    }

    #[test]
    fn error_display_is_informative() {
        for (err, needle) in [
            (RecordError::Truncated { need: 9, got: 2 }, "truncated"),
            (RecordError::BadMagic, "magic"),
            (RecordError::FutureVersion { got: 9 }, "version 9"),
            (RecordError::UnknownKind { got: 99 }, "kind 99"),
            (
                RecordError::Oversized {
                    len: 1 << 21,
                    cap: MAX_RECORD_LEN,
                },
                "cap",
            ),
            (RecordError::Malformed { what: "x" }, "malformed"),
            (
                RecordError::Io {
                    what: "enoent".into(),
                },
                "io",
            ),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
