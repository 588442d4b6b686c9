//! Versioned session-state snapshots: the recovery anchor in a flight
//! recording.
//!
//! A [`SessionSnapshot`] captures everything a shard needs to re-create
//! a live receiver session on a restarted shard replaying its flight
//! recording after a crash. A drain moves the live endpoint itself and
//! encodes nothing; only the recording stores a snapshot, as bytes. That
//! encoding is explicitly versioned and length-prefixed so a future
//! layout can coexist with recordings produced by this one; golden-byte
//! tests below pin the v1 layout.
//!
//! The per-protocol receiver state is serialized through [`StateCodec`],
//! implemented here for every receiver state type the server can host.
//! Every field goes through the flight-record format's byte layer
//! (`rstp_record::format`), and decoding fails with its
//! [`RecordError`]. Decoding is strict: every count is checked against
//! its cap and the remaining input *before* allocation, multiset symbols
//! are validated against their declared universe (a corrupted snapshot
//! must surface as a decode error, never as a panic inside
//! `Multiset::insert`), and padding bits in packed booleans must be zero
//! so each value has exactly one encoding.

use rstp_codec::Multiset;
use rstp_core::protocols::{
    AlphaReceiverState, AltBitReceiverState, BetaReceiverState, FramedReceiverState,
    GammaReceiverState, PipelinedReceiverState, StabBetaReceiverState, StabStenningReceiverState,
    StenningReceiverState,
};
use rstp_core::Message;
use rstp_record::format::{put_bits, put_blob, put_kind, put_opt_u64, put_u32, put_u64, Reader};
use rstp_record::RecordError;
use rstp_sim::ProtocolKind;
use std::collections::VecDeque;

/// Snapshot layout version written by this build.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Upper bound on any element count inside a snapshot (messages,
/// multiset symbols, queue entries). Checked before allocating.
pub const MAX_SNAPSHOT_ELEMS: u32 = 1 << 20;

/// Upper bound on a multiset universe `k` inside a snapshot; matches
/// the wire's `MAX_WIRE_K` so nothing decodable off the wire is
/// rejected here, while a corrupted length cannot force a huge
/// allocation.
const MAX_SNAPSHOT_K: u64 = u16::MAX as u64;

fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

fn take_usize(r: &mut Reader<'_>) -> Result<usize, RecordError> {
    usize::try_from(r.u64()?).map_err(|_| RecordError::Malformed {
        what: "count exceeds usize",
    })
}

/// A `u32` count of `u64` values.
fn put_u64s(out: &mut Vec<u8>, vals: impl ExactSizeIterator<Item = u64>) {
    put_u32(out, vals.len() as u32);
    for v in vals {
        put_u64(out, v);
    }
}

fn take_u64s(r: &mut Reader<'_>) -> Result<Vec<u64>, RecordError> {
    let n = r.count(MAX_SNAPSHOT_ELEMS)?;
    // Take all the values' bytes first: a count the input cannot back
    // fails here, before the vector exists.
    let mut vals = Reader::new(r.take(n.saturating_mul(8))?);
    (0..n).map(|_| vals.u64()).collect()
}

/// A multiset as `universe: u64`, then its sorted symbol sequence.
fn put_multiset(out: &mut Vec<u8>, m: &Multiset) {
    put_u64(out, m.universe());
    put_u64s(out, m.to_sorted_vec().into_iter());
}

fn take_multiset(r: &mut Reader<'_>) -> Result<Multiset, RecordError> {
    let k = r.u64()?;
    if k == 0 || k > MAX_SNAPSHOT_K {
        return Err(RecordError::Malformed {
            what: "multiset universe",
        });
    }
    let symbols = take_u64s(r)?;
    // `Multiset::insert` panics on an out-of-universe symbol; a snapshot
    // from a corrupted file must decode-fail instead.
    if symbols.iter().any(|&s| s >= k) {
        return Err(RecordError::Malformed {
            what: "multiset symbol outside its universe",
        });
    }
    Ok(Multiset::from_symbols(k, &symbols))
}

/// Serialization of one protocol's receiver state, used to anchor a live
/// session in a flight recording and to re-create it from one (crash
/// recovery).
pub trait StateCodec: Sized {
    /// Appends this state's encoding to `out`.
    fn encode_state(&self, out: &mut Vec<u8>);

    /// Decodes one state from `r`. Callers check [`Reader::finish`]
    /// after.
    ///
    /// # Errors
    ///
    /// [`RecordError`] on truncated or structurally invalid input.
    fn decode_state(r: &mut Reader<'_>) -> Result<Self, RecordError>;
}

impl StateCodec for AlphaReceiverState {
    fn encode_state(&self, out: &mut Vec<u8>) {
        put_bits(out, &self.received);
        put_usize(out, self.written);
    }

    fn decode_state(r: &mut Reader<'_>) -> Result<Self, RecordError> {
        Ok(AlphaReceiverState {
            received: r.bits(MAX_SNAPSHOT_ELEMS)?,
            written: take_usize(r)?,
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

    fn decode_state(r: &mut Reader<'_>) -> Result<Self, RecordError> {
        Ok(BetaReceiverState {
            burst: take_multiset(r)?,
            decoded: r.bits(MAX_SNAPSHOT_ELEMS)?,
            written: take_usize(r)?,
            decode_failures: r.u32()?,
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

    fn decode_state(r: &mut Reader<'_>) -> Result<Self, RecordError> {
        Ok(GammaReceiverState {
            burst: take_multiset(r)?,
            pending_acks: r.u64()?,
            decoded: r.bits(MAX_SNAPSHOT_ELEMS)?,
            written: take_usize(r)?,
            decode_failures: r.u32()?,
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

    fn decode_state(r: &mut Reader<'_>) -> Result<Self, RecordError> {
        Ok(FramedReceiverState {
            burst: take_multiset(r)?,
            decoded: r.bits(MAX_SNAPSHOT_ELEMS)?,
            written: take_usize(r)?,
            decode_failures: r.u32()?,
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

    fn decode_state(r: &mut Reader<'_>) -> Result<Self, RecordError> {
        let n_bursts = r.count(MAX_SNAPSHOT_ELEMS)?;
        let bursts = (0..n_bursts)
            .map(|_| take_multiset(r))
            .collect::<Result<_, _>>()?;
        let n_staged = r.count(MAX_SNAPSHOT_ELEMS)?;
        let staged = (0..n_staged)
            .map(|_| {
                Ok(if r.flag("staged block flag")? {
                    Some(r.bits(MAX_SNAPSHOT_ELEMS)?)
                } else {
                    None
                })
            })
            .collect::<Result<_, RecordError>>()?;
        Ok(PipelinedReceiverState {
            bursts,
            staged,
            commit_tag: r.u64()?,
            decoded: r.bits(MAX_SNAPSHOT_ELEMS)?,
            written: take_usize(r)?,
            ack_queue: VecDeque::from(take_u64s(r)?),
            decode_failures: r.u32()?,
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

    fn decode_state(r: &mut Reader<'_>) -> Result<Self, RecordError> {
        Ok(StenningReceiverState {
            expected_seq: r.u64()?,
            received: r.bits(MAX_SNAPSHOT_ELEMS)?,
            written: take_usize(r)?,
            ack_queue: VecDeque::from(take_u64s(r)?),
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

    fn decode_state(r: &mut Reader<'_>) -> Result<Self, RecordError> {
        Ok(AltBitReceiverState {
            expected_tag: r.u64()?,
            received: r.bits(MAX_SNAPSHOT_ELEMS)?,
            written: take_usize(r)?,
            ack_queue: VecDeque::from(take_u64s(r)?),
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

    fn decode_state(r: &mut Reader<'_>) -> Result<Self, RecordError> {
        Ok(StabStenningReceiverState {
            expected: r.u64()?,
            received: r.bits(MAX_SNAPSHOT_ELEMS)?,
            written: take_usize(r)?,
            pending_ack: r.opt_u64("pending ack flag")?,
            synced: r.flag("synced flag")?,
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

    fn decode_state(r: &mut Reader<'_>) -> Result<Self, RecordError> {
        Ok(StabBetaReceiverState {
            burst: take_multiset(r)?,
            decoded: r.bits(MAX_SNAPSHOT_ELEMS)?,
            written: take_usize(r)?,
            silent_steps: r.u64()?,
            resets: r.u32()?,
            decode_failures: r.u32()?,
        })
    }
}

/// Everything needed to re-create one live receiver session: identity,
/// protocol, progress, and the protocol automaton's serialized state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionSnapshot {
    /// The session id (the wire frame's demux key).
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
        put_blob(&mut out, &self.state);
        out
    }

    /// Decodes a snapshot, requiring the input to be exactly one
    /// snapshot.
    ///
    /// # Errors
    ///
    /// [`RecordError::FutureVersion`] for a version byte newer than
    /// [`SNAPSHOT_VERSION`]; otherwise [`RecordError`] on truncation,
    /// an oversized count, structural corruption or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<SessionSnapshot, RecordError> {
        let mut r = Reader::new(bytes);
        match r.u8()? {
            SNAPSHOT_VERSION => {}
            got if got > SNAPSHOT_VERSION => return Err(RecordError::FutureVersion { got }),
            _ => {
                return Err(RecordError::Malformed {
                    what: "unknown snapshot version 0",
                })
            }
        }
        let snap = SessionSnapshot {
            session: r.u32()?,
            kind: r.kind()?,
            n: r.u32()?,
            seq: r.u64()?,
            written: r.bits(MAX_SNAPSHOT_ELEMS)?,
            state: r.blob()?.to_vec(),
        };
        r.finish()?;
        Ok(snap)
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
///
/// # Errors
///
/// [`RecordError`] as [`StateCodec::decode_state`], or trailing bytes.
pub fn state_from_bytes<S: StateCodec>(bytes: &[u8]) -> Result<S, RecordError> {
    let mut r = Reader::new(bytes);
    let state = S::decode_state(&mut r)?;
    r.finish()?;
    Ok(state)
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
            Err(RecordError::Malformed {
                what: "trailing bytes after body"
            })
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

    /// Golden bytes for every receiver-state codec: a layout change on
    /// both the encode and the decode side passes the round trips above,
    /// but not these. Integers are big-endian; `bits` is a u32 count
    /// then LSB-first bytes; a multiset is its universe u64, then a u32
    /// count of sorted u64 symbols.
    #[test]
    #[rustfmt::skip]
    fn golden_bytes_pin_every_state_codec() {
        const Z7: [u8; 7] = [0; 7];
        fn u64s(vals: &[u64]) -> Vec<u8> {
            vals.iter().flat_map(|v| v.to_be_bytes()).collect()
        }
        fn check(got: Vec<u8>, parts: &[&[u8]]) {
            assert_eq!(got, parts.concat());
        }
        check(
            state_to_bytes(&AlphaReceiverState { received: vec![true, false, true], written: 2 }),
            &[&[0, 0, 0, 3, 0b101], &u64s(&[2])],
        );
        check(
            state_to_bytes(&BetaReceiverState {
                burst: Multiset::from_symbols(4, &[1, 1, 3]),
                decoded: vec![false, true],
                written: 1,
                decode_failures: 0,
            }),
            &[
                &u64s(&[4]), &[0, 0, 0, 3], &u64s(&[1, 1, 3]), // burst
                &[0, 0, 0, 2, 0b10],                             // decoded
                &u64s(&[1]), &[0, 0, 0, 0],                      // written, failures
            ],
        );
        check(
            state_to_bytes(&GammaReceiverState {
                burst: Multiset::from_symbols(8, &[7]),
                pending_acks: 3,
                decoded: vec![true; 9],
                written: 9,
                decode_failures: 1,
            }),
            &[
                &u64s(&[8]), &[0, 0, 0, 1], &u64s(&[7]), // burst
                &u64s(&[3]),                             // pending_acks
                &[0, 0, 0, 9, 0xFF, 0x01],               // decoded
                &u64s(&[9]), &[0, 0, 0, 1],              // written, failures
            ],
        );
        check(
            state_to_bytes(&FramedReceiverState {
                burst: Multiset::empty(4),
                decoded: Vec::new(),
                written: 0,
                decode_failures: 0,
            }),
            &[&u64s(&[4]), &[0, 0, 0, 0], &[0, 0, 0, 0], &u64s(&[0]), &[0, 0, 0, 0]],
        );
        check(
            state_to_bytes(&PipelinedReceiverState {
                bursts: vec![Multiset::from_symbols(4, &[0, 2]), Multiset::empty(4)],
                staged: vec![Some(vec![true, true, false]), None],
                commit_tag: 1,
                decoded: vec![true],
                written: 1,
                ack_queue: VecDeque::from(vec![4]),
                decode_failures: 2,
            }),
            &[
                &[0, 0, 0, 2],                                        // bursts
                &u64s(&[4]), &[0, 0, 0, 2], &u64s(&[0, 2]),
                &u64s(&[4]), &[0, 0, 0, 0],
                &[0, 0, 0, 2], &[1, 0, 0, 0, 3, 0b011], &[0],         // staged
                &u64s(&[1]),                                          // commit_tag
                &[0, 0, 0, 1, 0b1],                                   // decoded
                &u64s(&[1]),                                          // written
                &[0, 0, 0, 1], &u64s(&[4]),                           // ack_queue
                &[0, 0, 0, 2],                                        // failures
            ],
        );
        check(
            state_to_bytes(&StenningReceiverState {
                expected_seq: 12,
                received: vec![true, false],
                written: 2,
                ack_queue: VecDeque::from(vec![10, 11]),
            }),
            &[&u64s(&[12]), &[0, 0, 0, 2, 0b01], &u64s(&[2]), &[0, 0, 0, 2], &u64s(&[10, 11])],
        );
        check(
            state_to_bytes(&AltBitReceiverState {
                expected_tag: 1,
                received: vec![false],
                written: 1,
                ack_queue: VecDeque::new(),
            }),
            &[&u64s(&[1]), &[0, 0, 0, 1, 0], &u64s(&[1]), &[0, 0, 0, 0]],
        );
        check(
            state_to_bytes(&StabStenningReceiverState {
                expected: 3,
                received: vec![true, true, true],
                written: 3,
                pending_ack: Some(2),
                synced: false,
            }),
            &[&u64s(&[3]), &[0, 0, 0, 3, 0b111], &u64s(&[3]), &[1], &Z7, &[2], &[0]],
        );
        check(
            state_to_bytes(&StabBetaReceiverState {
                burst: Multiset::from_symbols(4, &[3, 3]),
                decoded: vec![true],
                written: 1,
                silent_steps: 4,
                resets: 1,
                decode_failures: 0,
            }),
            &[
                &u64s(&[4]), &[0, 0, 0, 2], &u64s(&[3, 3]), // burst
                &[0, 0, 0, 1, 0b1],                         // decoded
                &u64s(&[1, 4]), &[0, 0, 0, 1], &[0, 0, 0, 0],
            ],
        );
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
        assert_eq!(
            state_from_bytes::<BetaReceiverState>(&bad_burst),
            Err(RecordError::Malformed {
                what: "multiset symbol outside its universe"
            })
        );

        // Zero universe is rejected before Multiset::empty can assert.
        let mut zero_k = Vec::new();
        put_u64(&mut zero_k, 0);
        put_u64s(&mut zero_k, [].into_iter());
        assert_eq!(
            state_from_bytes::<BetaReceiverState>(&zero_k),
            Err(RecordError::Malformed {
                what: "multiset universe"
            })
        );

        // Absurd declared element count: refused against its cap before
        // any allocation.
        let mut huge = Vec::new();
        put_u64(&mut huge, 4);
        put_u32(&mut huge, u32::MAX); // claims 4 billion symbols
        assert_eq!(
            state_from_bytes::<BetaReceiverState>(&huge),
            Err(RecordError::Oversized {
                len: u32::MAX,
                cap: MAX_SNAPSHOT_ELEMS
            })
        );
        // A count within the cap that the input cannot back fails as
        // truncated, also before allocating.
        let mut short = Vec::new();
        put_u64(&mut short, 4);
        put_u32(&mut short, MAX_SNAPSHOT_ELEMS);
        assert!(matches!(
            state_from_bytes::<BetaReceiverState>(&short),
            Err(RecordError::Truncated { .. })
        ));

        // Nonzero padding bits break the one-encoding rule.
        let mut padded = Vec::new();
        put_bits(&mut padded, &[true]);
        *padded.last_mut().expect("bit byte") |= 0b1000_0000;
        put_usize(&mut padded, 1);
        assert_eq!(
            state_from_bytes::<AlphaReceiverState>(&padded),
            Err(RecordError::Malformed {
                what: "nonzero padding bits"
            })
        );

        // Bad flag byte in an Option<u64>.
        let mut bad_flag = Vec::new();
        put_u64(&mut bad_flag, 0);
        put_bits(&mut bad_flag, &[]);
        put_usize(&mut bad_flag, 0);
        bad_flag.push(7); // pending_ack flag must be 0 or 1
        put_u64(&mut bad_flag, 0);
        bad_flag.push(0);
        assert_eq!(
            state_from_bytes::<StabStenningReceiverState>(&bad_flag),
            Err(RecordError::Malformed {
                what: "pending ack flag"
            })
        );
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
            Err(RecordError::FutureVersion {
                got: SNAPSHOT_VERSION + 1
            })
        );
    }
}
