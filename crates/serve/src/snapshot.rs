//! Versioned session-state snapshots: what a handover moves between
//! shards, and the recovery anchor in a flight recording.
//!
//! A [`SessionSnapshot`] captures everything a shard needs to re-create
//! a live receiver session elsewhere — on a peer shard during a
//! pair-wise handover, or on a restarted shard replaying its flight
//! recording after a crash. A handover passes the snapshot in memory;
//! only the recording stores it as bytes. That encoding is explicitly
//! versioned and length-prefixed so a future layout can coexist with
//! recordings produced by this one; golden-byte tests below pin the v1
//! layout.
//!
//! The per-protocol receiver state is serialized through [`StateCodec`],
//! implemented here for every receiver state type the server can host.
//! Decoding is strict: every count is bounds-checked against the
//! remaining input *before* allocation, multiset symbols are validated
//! against their declared universe (a corrupted snapshot must surface as
//! a decode error, never as a panic inside `Multiset::insert`), and
//! padding bits in packed booleans must be zero so each value has
//! exactly one encoding.

use rstp_codec::Multiset;
use rstp_core::protocols::{
    AlphaReceiverState, AltBitReceiverState, BetaReceiverState, FramedReceiverState,
    GammaReceiverState, PipelinedReceiverState, StabBetaReceiverState, StabStenningReceiverState,
    StenningReceiverState,
};
use rstp_core::Message;
use rstp_record::format::{kind_from_tag, put_kind};
use rstp_sim::ProtocolKind;
use std::collections::VecDeque;
use std::fmt;

/// Snapshot layout version written by this build.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Upper bound on any element count inside a snapshot (messages,
/// multiset symbols, queue entries). Checked before allocating.
pub const MAX_SNAPSHOT_ELEMS: usize = 1 << 20;

/// Upper bound on a multiset universe `k` inside a snapshot; matches
/// the wire's `MAX_WIRE_K` so nothing decodable off the wire is
/// rejected here, while a corrupted length cannot force a huge
/// allocation.
const MAX_SNAPSHOT_K: u64 = u16::MAX as u64;

/// Why a snapshot failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input ended before the declared structure did.
    Truncated,
    /// Structurally invalid content (bad flag byte, out-of-range symbol,
    /// nonzero padding, unknown protocol tag, …).
    Malformed(&'static str),
    /// A version byte newer than [`SNAPSHOT_VERSION`].
    FutureVersion {
        /// The version byte found.
        got: u8,
    },
    /// Bytes remained after a complete snapshot.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::FutureVersion { got } => {
                write!(
                    f,
                    "snapshot version {got} is newer than supported {SNAPSHOT_VERSION}"
                )
            }
            SnapshotError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after snapshot")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A bounds-checked read cursor over snapshot bytes.
pub struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    /// Starts a cursor at the beginning of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Cur { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_be_bytes([s[0], s[1]]))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_be_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// A strict boolean byte: `0` or `1`, anything else is an error.
    fn flag(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Succeeds only when the cursor consumed every byte.
    #[must_use]
    pub fn finish(self) -> Option<()> {
        (self.remaining() == 0).then_some(())
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

fn take_usize(cur: &mut Cur<'_>) -> Option<usize> {
    usize::try_from(cur.u64()?).ok()
}

/// Packed booleans: a `u32` count, then `ceil(count / 8)` bytes,
/// LSB-first within each byte; padding bits must be zero.
fn put_bits(out: &mut Vec<u8>, bits: &[bool]) {
    put_u32(out, bits.len() as u32);
    let mut byte = 0u8;
    for (i, &b) in bits.iter().enumerate() {
        if b {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if bits.len() % 8 != 0 {
        out.push(byte);
    }
}

fn take_bits(cur: &mut Cur<'_>) -> Option<Vec<bool>> {
    let n = cur.u32()? as usize;
    if n > MAX_SNAPSHOT_ELEMS {
        return None;
    }
    let raw = cur.take(n.div_ceil(8))?;
    let mut bits = Vec::with_capacity(n);
    'bytes: for (i, &byte) in raw.iter().enumerate() {
        for bit in 0..8 {
            if i * 8 + bit >= n {
                break 'bytes;
            }
            bits.push(byte >> bit & 1 == 1);
        }
    }
    // One encoding per value: padding bits past the count must be zero.
    if n % 8 != 0 && raw.last().is_some_and(|&b| b >> (n % 8) != 0) {
        return None;
    }
    Some(bits)
}

/// A `u32` count of `u64` values.
fn put_u64s(out: &mut Vec<u8>, vals: impl ExactSizeIterator<Item = u64>) {
    put_u32(out, vals.len() as u32);
    for v in vals {
        put_u64(out, v);
    }
}

fn take_u64s(cur: &mut Cur<'_>) -> Option<Vec<u64>> {
    let n = cur.u32()? as usize;
    if n > MAX_SNAPSHOT_ELEMS || n.checked_mul(8)? > cur.remaining() {
        return None;
    }
    (0..n).map(|_| cur.u64()).collect()
}

/// A multiset as `universe: u64`, then its sorted symbol sequence.
fn put_multiset(out: &mut Vec<u8>, m: &Multiset) {
    put_u64(out, m.universe());
    put_u64s(out, m.to_sorted_vec().into_iter());
}

fn take_multiset(cur: &mut Cur<'_>) -> Option<Multiset> {
    let k = cur.u64()?;
    if k == 0 || k > MAX_SNAPSHOT_K {
        return None;
    }
    let symbols = take_u64s(cur)?;
    // `Multiset::insert` panics on an out-of-universe symbol; a snapshot
    // from a corrupted file must decode-fail instead.
    if symbols.iter().any(|&s| s >= k) {
        return None;
    }
    Some(Multiset::from_symbols(k, &symbols))
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    out.push(u8::from(v.is_some()));
    put_u64(out, v.unwrap_or(0));
}

fn take_opt_u64(cur: &mut Cur<'_>) -> Option<Option<u64>> {
    let has = cur.flag()?;
    let v = cur.u64()?;
    Some(has.then_some(v))
}

/// Serialization of one protocol's receiver state, used to move a live
/// session between shards (handover) and to re-create one from a flight
/// recording (crash recovery).
pub trait StateCodec: Sized {
    /// Appends this state's encoding to `out`.
    fn encode_state(&self, out: &mut Vec<u8>);

    /// Decodes one state from the cursor; `None` on truncated or
    /// structurally invalid input. Callers check [`Cur::finish`] after.
    fn decode_state(cur: &mut Cur<'_>) -> Option<Self>;
}

impl StateCodec for AlphaReceiverState {
    fn encode_state(&self, out: &mut Vec<u8>) {
        put_bits(out, &self.received);
        put_usize(out, self.written);
    }

    fn decode_state(cur: &mut Cur<'_>) -> Option<Self> {
        Some(AlphaReceiverState {
            received: take_bits(cur)?,
            written: take_usize(cur)?,
        })
    }
}

impl StateCodec for BetaReceiverState {
    fn encode_state(&self, out: &mut Vec<u8>) {
        put_multiset(out, &self.burst);
        put_bits(out, &self.decoded);
        put_usize(out, self.written);
        put_u32(out, self.decode_failures);
    }

    fn decode_state(cur: &mut Cur<'_>) -> Option<Self> {
        Some(BetaReceiverState {
            burst: take_multiset(cur)?,
            decoded: take_bits(cur)?,
            written: take_usize(cur)?,
            decode_failures: cur.u32()?,
        })
    }
}

impl StateCodec for GammaReceiverState {
    fn encode_state(&self, out: &mut Vec<u8>) {
        put_multiset(out, &self.burst);
        put_u64(out, self.pending_acks);
        put_bits(out, &self.decoded);
        put_usize(out, self.written);
        put_u32(out, self.decode_failures);
    }

    fn decode_state(cur: &mut Cur<'_>) -> Option<Self> {
        Some(GammaReceiverState {
            burst: take_multiset(cur)?,
            pending_acks: cur.u64()?,
            decoded: take_bits(cur)?,
            written: take_usize(cur)?,
            decode_failures: cur.u32()?,
        })
    }
}

impl StateCodec for FramedReceiverState {
    fn encode_state(&self, out: &mut Vec<u8>) {
        put_multiset(out, &self.burst);
        put_bits(out, &self.decoded);
        put_usize(out, self.written);
        put_u32(out, self.decode_failures);
    }

    fn decode_state(cur: &mut Cur<'_>) -> Option<Self> {
        Some(FramedReceiverState {
            burst: take_multiset(cur)?,
            decoded: take_bits(cur)?,
            written: take_usize(cur)?,
            decode_failures: cur.u32()?,
        })
    }
}

impl StateCodec for PipelinedReceiverState {
    fn encode_state(&self, out: &mut Vec<u8>) {
        put_u32(out, self.bursts.len() as u32);
        for b in &self.bursts {
            put_multiset(out, b);
        }
        put_u32(out, self.staged.len() as u32);
        for s in &self.staged {
            out.push(u8::from(s.is_some()));
            if let Some(block) = s {
                put_bits(out, block);
            }
        }
        put_u64(out, self.commit_tag);
        put_bits(out, &self.decoded);
        put_usize(out, self.written);
        put_u64s(out, self.ack_queue.iter().copied());
        put_u32(out, self.decode_failures);
    }

    fn decode_state(cur: &mut Cur<'_>) -> Option<Self> {
        let n_bursts = cur.u32()? as usize;
        if n_bursts > MAX_SNAPSHOT_ELEMS {
            return None;
        }
        let bursts = (0..n_bursts)
            .map(|_| take_multiset(cur))
            .collect::<Option<Vec<_>>>()?;
        let n_staged = cur.u32()? as usize;
        if n_staged > MAX_SNAPSHOT_ELEMS {
            return None;
        }
        let mut staged = Vec::with_capacity(n_staged.min(64));
        for _ in 0..n_staged {
            staged.push(if cur.flag()? {
                Some(take_bits(cur)?)
            } else {
                None
            });
        }
        Some(PipelinedReceiverState {
            bursts,
            staged,
            commit_tag: cur.u64()?,
            decoded: take_bits(cur)?,
            written: take_usize(cur)?,
            ack_queue: VecDeque::from(take_u64s(cur)?),
            decode_failures: cur.u32()?,
        })
    }
}

impl StateCodec for StenningReceiverState {
    fn encode_state(&self, out: &mut Vec<u8>) {
        put_u64(out, self.expected_seq);
        put_bits(out, &self.received);
        put_usize(out, self.written);
        put_u64s(out, self.ack_queue.iter().copied());
    }

    fn decode_state(cur: &mut Cur<'_>) -> Option<Self> {
        Some(StenningReceiverState {
            expected_seq: cur.u64()?,
            received: take_bits(cur)?,
            written: take_usize(cur)?,
            ack_queue: VecDeque::from(take_u64s(cur)?),
        })
    }
}

impl StateCodec for AltBitReceiverState {
    fn encode_state(&self, out: &mut Vec<u8>) {
        put_u64(out, self.expected_tag);
        put_bits(out, &self.received);
        put_usize(out, self.written);
        put_u64s(out, self.ack_queue.iter().copied());
    }

    fn decode_state(cur: &mut Cur<'_>) -> Option<Self> {
        Some(AltBitReceiverState {
            expected_tag: cur.u64()?,
            received: take_bits(cur)?,
            written: take_usize(cur)?,
            ack_queue: VecDeque::from(take_u64s(cur)?),
        })
    }
}

impl StateCodec for StabStenningReceiverState {
    fn encode_state(&self, out: &mut Vec<u8>) {
        put_u64(out, self.expected);
        put_bits(out, &self.received);
        put_usize(out, self.written);
        put_opt_u64(out, self.pending_ack);
        out.push(u8::from(self.synced));
    }

    fn decode_state(cur: &mut Cur<'_>) -> Option<Self> {
        Some(StabStenningReceiverState {
            expected: cur.u64()?,
            received: take_bits(cur)?,
            written: take_usize(cur)?,
            pending_ack: take_opt_u64(cur)?,
            synced: cur.flag()?,
        })
    }
}

impl StateCodec for StabBetaReceiverState {
    fn encode_state(&self, out: &mut Vec<u8>) {
        put_multiset(out, &self.burst);
        put_bits(out, &self.decoded);
        put_usize(out, self.written);
        put_u64(out, self.silent_steps);
        put_u32(out, self.resets);
        put_u32(out, self.decode_failures);
    }

    fn decode_state(cur: &mut Cur<'_>) -> Option<Self> {
        Some(StabBetaReceiverState {
            burst: take_multiset(cur)?,
            decoded: take_bits(cur)?,
            written: take_usize(cur)?,
            silent_steps: cur.u64()?,
            resets: cur.u32()?,
            decode_failures: cur.u32()?,
        })
    }
}

/// The protocol header, in the flight-record format's layout and tag
/// space, so a postmortem names a snapshot's protocol with one table.
fn take_kind(cur: &mut Cur<'_>) -> Option<ProtocolKind> {
    let tag = cur.u8()?;
    let k = cur.u64()?;
    let window = cur.u64()?;
    let timeout_steps = take_opt_u64(cur)?;
    kind_from_tag(tag, k, window, timeout_steps)
}

/// Everything needed to re-create one live receiver session: identity,
/// protocol, progress, and the protocol automaton's serialized state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionSnapshot {
    /// The session id (wire-v2 demux key).
    pub session: u32,
    /// The protocol this session runs.
    pub kind: ProtocolKind,
    /// The expected transfer length `n`.
    pub n: u32,
    /// The shard's next outgoing frame sequence number for this session.
    pub seq: u64,
    /// The session's output `Y` so far (drives the prefix invariant).
    pub written: Vec<Message>,
    /// The receiver automaton's state, via [`StateCodec`].
    pub state: Vec<u8>,
}

impl SessionSnapshot {
    /// Encodes the snapshot. Layout (all integers big-endian):
    ///
    /// ```text
    /// version  u8     = 1
    /// session  u32
    /// kind     tag u8 | k u64 | window u64 | timeout flag u8 + u64
    /// n        u32
    /// seq      u64
    /// written  count u32 | packed bits (LSB-first, zero padding)
    /// state    len u16 | bytes
    /// ```
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.state.len());
        out.push(SNAPSHOT_VERSION);
        put_u32(&mut out, self.session);
        put_kind(&mut out, self.kind);
        put_u32(&mut out, self.n);
        put_u64(&mut out, self.seq);
        put_bits(&mut out, &self.written);
        put_u16(
            &mut out,
            u16::try_from(self.state.len()).unwrap_or(u16::MAX),
        );
        out.extend(self.state.iter().take(usize::from(u16::MAX)));
        out
    }

    /// Decodes a snapshot, requiring the input to be exactly one
    /// snapshot.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on truncation, structural corruption, a future
    /// version byte, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<SessionSnapshot, SnapshotError> {
        let mut cur = Cur::new(bytes);
        let version = cur.u8().ok_or(SnapshotError::Truncated)?;
        if version > SNAPSHOT_VERSION {
            return Err(SnapshotError::FutureVersion { got: version });
        }
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::Malformed("unknown snapshot version 0"));
        }
        let session = cur.u32().ok_or(SnapshotError::Truncated)?;
        let kind = take_kind(&mut cur).ok_or(SnapshotError::Malformed("protocol kind"))?;
        let n = cur.u32().ok_or(SnapshotError::Truncated)?;
        let seq = cur.u64().ok_or(SnapshotError::Truncated)?;
        let written = take_bits(&mut cur).ok_or(SnapshotError::Malformed("written bits"))?;
        let state_len = usize::from(cur.u16().ok_or(SnapshotError::Truncated)?);
        let state = cur
            .take(state_len)
            .ok_or(SnapshotError::Truncated)?
            .to_vec();
        let extra = cur.remaining();
        cur.finish().ok_or(SnapshotError::TrailingBytes { extra })?;
        Ok(SessionSnapshot {
            session,
            kind,
            n,
            seq,
            written,
            state,
        })
    }
}

/// Encodes one state value to standalone bytes (the
/// [`SessionSnapshot::state`] field).
pub fn state_to_bytes<S: StateCodec>(state: &S) -> Vec<u8> {
    let mut out = Vec::new();
    state.encode_state(&mut out);
    out
}

/// Decodes one state value from standalone bytes, requiring full
/// consumption.
#[must_use]
pub fn state_from_bytes<S: StateCodec>(bytes: &[u8]) -> Option<S> {
    let mut cur = Cur::new(bytes);
    let state = S::decode_state(&mut cur)?;
    cur.finish()?;
    Some(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<S: StateCodec + PartialEq + std::fmt::Debug>(state: &S) {
        let bytes = state_to_bytes(state);
        let back: S = state_from_bytes(&bytes).expect("own encoding must decode");
        assert_eq!(&back, state);
        // Every strict prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            let _ = state_from_bytes::<S>(&bytes[..cut]);
        }
    }

    #[test]
    fn every_receiver_state_round_trips() {
        roundtrip(&AlphaReceiverState {
            received: vec![true, false, true],
            written: 2,
        });
        roundtrip(&BetaReceiverState {
            burst: Multiset::from_symbols(4, &[1, 1, 3]),
            decoded: vec![false, true],
            written: 1,
            decode_failures: 0,
        });
        roundtrip(&GammaReceiverState {
            burst: Multiset::from_symbols(8, &[7]),
            pending_acks: 3,
            decoded: vec![true; 9],
            written: 9,
            decode_failures: 1,
        });
        roundtrip(&FramedReceiverState {
            burst: Multiset::empty(4),
            decoded: Vec::new(),
            written: 0,
            decode_failures: 0,
        });
        roundtrip(&PipelinedReceiverState {
            bursts: vec![Multiset::from_symbols(4, &[0, 2]), Multiset::empty(4)],
            staged: vec![Some(vec![true, true, false]), None],
            commit_tag: 1,
            decoded: vec![false; 8],
            written: 8,
            ack_queue: VecDeque::from(vec![4, 5, 6]),
            decode_failures: 2,
        });
        roundtrip(&StenningReceiverState {
            expected_seq: 12,
            received: vec![true, false],
            written: 2,
            ack_queue: VecDeque::from(vec![10, 11]),
        });
        roundtrip(&AltBitReceiverState {
            expected_tag: 1,
            received: vec![false],
            written: 1,
            ack_queue: VecDeque::new(),
        });
        roundtrip(&StabStenningReceiverState {
            expected: 3,
            received: vec![true, true, true],
            written: 3,
            pending_ack: Some(2),
            synced: false,
        });
        roundtrip(&StabBetaReceiverState {
            burst: Multiset::from_symbols(4, &[3, 3]),
            decoded: vec![true],
            written: 1,
            silent_steps: 4,
            resets: 1,
            decode_failures: 0,
        });
    }

    #[test]
    fn session_snapshot_round_trips() {
        let snap = SessionSnapshot {
            session: 42,
            kind: ProtocolKind::Beta { k: 4 },
            n: 16,
            seq: 7,
            written: vec![true, false, true, true, false],
            state: state_to_bytes(&BetaReceiverState {
                burst: Multiset::from_symbols(4, &[2]),
                decoded: vec![true, false, true, true, false],
                written: 5,
                decode_failures: 0,
            }),
        };
        let bytes = snap.encode();
        assert_eq!(SessionSnapshot::decode(&bytes).expect("decode"), snap);
        for cut in 0..bytes.len() {
            assert!(
                SessionSnapshot::decode(&bytes[..cut]).is_err(),
                "prefix {cut} must not decode"
            );
        }
        let mut trailing = bytes;
        trailing.push(0);
        assert_eq!(
            SessionSnapshot::decode(&trailing),
            Err(SnapshotError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn golden_bytes_are_pinned() {
        // An alpha session: the simplest non-trivial snapshot. Any layout
        // change must bump SNAPSHOT_VERSION, not silently re-pin these.
        let snap = SessionSnapshot {
            session: 7,
            kind: ProtocolKind::Alpha,
            n: 2,
            seq: 3,
            written: vec![true, false, true],
            state: state_to_bytes(&AlphaReceiverState {
                received: vec![true, false, true],
                written: 3,
            }),
        };
        let bytes = snap.encode();
        #[rustfmt::skip]
        let expected: Vec<u8> = vec![
            1,                                  // version
            0, 0, 0, 7,                         // session
            1,                                  // kind tag: alpha
            0, 0, 0, 0, 0, 0, 0, 0,             // k
            0, 0, 0, 0, 0, 0, 0, 0,             // window
            0,                                  // timeout flag
            0, 0, 0, 0, 0, 0, 0, 0,             // timeout value
            0, 0, 0, 2,                         // n
            0, 0, 0, 0, 0, 0, 0, 3,             // seq
            0, 0, 0, 3, 0b101,                  // written: 3 bits, LSB-first
            0, 13,                              // state length
            0, 0, 0, 3, 0b101,                  // state.received
            0, 0, 0, 0, 0, 0, 0, 3,             // state.written
        ];
        assert_eq!(bytes, expected);
    }

    #[test]
    fn every_protocol_kind_round_trips_through_the_header() {
        for kind in [
            ProtocolKind::Alpha,
            ProtocolKind::Beta { k: 4 },
            ProtocolKind::Gamma { k: 9 },
            ProtocolKind::AltBit {
                timeout_steps: Some(12),
            },
            ProtocolKind::Framed { k: 2 },
            ProtocolKind::BetaWindow { k: 5 },
            ProtocolKind::Stenning {
                timeout_steps: None,
            },
            ProtocolKind::Pipelined { k: 4, window: 2 },
            ProtocolKind::StabStenning {
                timeout_steps: Some(1),
            },
            ProtocolKind::StabBeta { k: 3 },
        ] {
            let snap = SessionSnapshot {
                session: 1,
                kind,
                n: 8,
                seq: 0,
                written: Vec::new(),
                state: Vec::new(),
            };
            assert_eq!(
                SessionSnapshot::decode(&snap.encode())
                    .expect("roundtrip")
                    .kind,
                kind
            );
        }
    }

    #[test]
    fn corrupted_snapshots_fail_cleanly() {
        // Out-of-universe multiset symbol: decode error, not a panic.
        let mut bad_burst = Vec::new();
        put_u64(&mut bad_burst, 4); // universe k = 4
        put_u64s(&mut bad_burst, [9u64].into_iter()); // symbol 9 >= 4
        put_bits(&mut bad_burst, &[]);
        put_usize(&mut bad_burst, 0);
        put_u32(&mut bad_burst, 0);
        assert!(state_from_bytes::<BetaReceiverState>(&bad_burst).is_none());

        // Zero universe is rejected before Multiset::empty can assert.
        let mut zero_k = Vec::new();
        put_u64(&mut zero_k, 0);
        put_u64s(&mut zero_k, [].into_iter());
        assert!(state_from_bytes::<BetaReceiverState>(&zero_k).is_none());

        // Absurd declared element count larger than the input: no
        // allocation, clean failure.
        let mut huge = Vec::new();
        put_u64(&mut huge, 4);
        put_u32(&mut huge, u32::MAX); // claims 4 billion symbols
        assert!(state_from_bytes::<BetaReceiverState>(&huge).is_none());

        // Nonzero padding bits break the one-encoding rule.
        let mut padded = Vec::new();
        put_bits(&mut padded, &[true]);
        *padded.last_mut().expect("bit byte") |= 0b1000_0000;
        put_usize(&mut padded, 1);
        assert!(state_from_bytes::<AlphaReceiverState>(&padded).is_none());

        // Bad flag byte in an Option<u64>.
        let mut bad_flag = Vec::new();
        put_u64(&mut bad_flag, 0);
        put_bits(&mut bad_flag, &[]);
        put_usize(&mut bad_flag, 0);
        bad_flag.push(7); // pending_ack flag must be 0 or 1
        put_u64(&mut bad_flag, 0);
        bad_flag.push(0);
        assert!(state_from_bytes::<StabStenningReceiverState>(&bad_flag).is_none());
    }

    #[test]
    fn future_version_is_rejected() {
        let snap = SessionSnapshot {
            session: 1,
            kind: ProtocolKind::Alpha,
            n: 1,
            seq: 0,
            written: Vec::new(),
            state: Vec::new(),
        };
        let mut bytes = snap.encode();
        bytes[0] = SNAPSHOT_VERSION + 1;
        assert_eq!(
            SessionSnapshot::decode(&bytes),
            Err(SnapshotError::FutureVersion {
                got: SNAPSHOT_VERSION + 1
            })
        );
    }
}
