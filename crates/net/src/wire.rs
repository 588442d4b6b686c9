//! Versioned wire codec for RSTP protocol packets.
//!
//! The simulator moves `rstp_core::Packet` values through an abstract
//! channel; this module gives those packets a concrete byte layout so they
//! can cross a real transport (an in-process channel or a UDP socket).
//!
//! # Frame layout (36 bytes, all integers big-endian)
//!
//! | offset | size | field            | notes                                   |
//! |-------:|-----:|------------------|-----------------------------------------|
//! | 0      | 2    | magic            | `0x5254` (`"RT"`)                       |
//! | 2      | 1    | version          | [`WIRE_VERSION`]                        |
//! | 3      | 1    | protocol id      | [`ProtocolId`] discriminant             |
//! | 4      | 2    | k                | burst parameter of the sender (0 = n/a) |
//! | 6      | 1    | kind             | 0 = data, 1 = ack                       |
//! | 7      | 1    | flags            | extension bits, see below               |
//! | 8      | 8    | symbol           | packet symbol (multiset element / seq)  |
//! | 16     | 8    | seq              | per-endpoint send counter               |
//! | 24     | 8    | sent\_at\_micros | sender clock at send, microseconds      |
//! | 32     | 4    | checksum         | FNV-1a over bytes `0..32`               |
//!
//! # Frame v2: the session-id extension (40 bytes)
//!
//! Multi-session servers ([`rstp-serve`]) multiplex many transfers over
//! one socket and need each frame to name its session. Setting
//! [`FLAG_SESSION`] in the flags byte inserts a 32-bit session id between
//! the fixed body and the checksum:
//!
//! | offset | size | field      | notes                               |
//! |-------:|-----:|------------|-------------------------------------|
//! | 0..32  |      | as v1      | identical byte-for-byte             |
//! | 32     | 4    | session id | [`rstp_core::SessionId`], big-endian |
//! | 36     | 4    | checksum   | FNV-1a over bytes `0..36`           |
//!
//! Compatibility is strict in both directions: a frame with `flags = 0`
//! is exactly a v1 frame (same bytes, same checksum coverage — pinned by
//! a golden test), and any flag bit other than [`FLAG_SESSION`] is
//! rejected, so future extensions cannot be silently misparsed. The
//! version byte stays [`WIRE_VERSION`]: the extension changes the frame
//! *shape*, not the protocol semantics.
//!
//! Decoding is strict: any malformed frame yields a typed [`WireError`];
//! no input may panic the decoder. The `symbol` field is the paper's
//! packet alphabet value — protocols draw it from `{0, …, µ-1}` (data)
//! or echo it back (acks) — and `seq`/`sent_at_micros`/session id are
//! transport metadata used for latency accounting and demultiplexing,
//! invisible to the automata.
//!
//! [`rstp-serve`]: https://docs.rs/rstp-serve

use core::fmt;
use rstp_core::{Packet, SessionId};

/// Current wire protocol version.
pub const WIRE_VERSION: u8 = 1;

/// Leading magic bytes of every frame (`"RT"`).
pub const WIRE_MAGIC: u16 = 0x5254;

/// Encoded v1 frame length in bytes.
pub const FRAME_LEN: usize = 36;

/// Encoded length of a frame carrying the session-id extension.
pub const FRAME_LEN_V2: usize = FRAME_LEN + 4;

/// Flags bit marking the session-id extension (frame v2).
pub const FLAG_SESSION: u8 = 0x01;

/// Largest `k` representable in the 16-bit header field.
pub const MAX_WIRE_K: u64 = u16::MAX as u64;

/// Identifies which protocol family produced a frame, so endpoints can
/// reject cross-protocol traffic instead of misinterpreting symbols.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ProtocolId {
    /// Protocol A^alpha (Fig. 1).
    Alpha = 1,
    /// Protocol A^beta(k) (Fig. 3).
    Beta = 2,
    /// Protocol A^gamma(k) (Fig. 4).
    Gamma = 3,
    /// Alternating-bit baseline.
    AltBit = 4,
    /// Framed burst variant.
    Framed = 5,
    /// Stenning baseline.
    Stenning = 6,
    /// Pipelined windowed variant.
    Pipelined = 7,
    /// Self-stabilizing Stenning (tags mod 4, flush/sync recovery).
    StabStenning = 8,
    /// Self-stabilizing A^beta(k) (lengthened silence, gap-reset framing).
    StabBeta = 9,
}

impl ProtocolId {
    /// All defined protocol identifiers.
    pub const ALL: [ProtocolId; 9] = [
        ProtocolId::Alpha,
        ProtocolId::Beta,
        ProtocolId::Gamma,
        ProtocolId::AltBit,
        ProtocolId::Framed,
        ProtocolId::Stenning,
        ProtocolId::Pipelined,
        ProtocolId::StabStenning,
        ProtocolId::StabBeta,
    ];

    fn from_byte(b: u8) -> Option<ProtocolId> {
        ProtocolId::ALL.into_iter().find(|p| *p as u8 == b)
    }
}

impl fmt::Display for ProtocolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ProtocolId::Alpha => "alpha",
            ProtocolId::Beta => "beta",
            ProtocolId::Gamma => "gamma",
            ProtocolId::AltBit => "altbit",
            ProtocolId::Framed => "framed",
            ProtocolId::Stenning => "stenning",
            ProtocolId::Pipelined => "pipelined",
            ProtocolId::StabStenning => "stab-stenning",
            ProtocolId::StabBeta => "stab-beta",
        };
        f.write_str(name)
    }
}

/// A decoded wire frame: one protocol packet plus transport metadata.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Protocol family that produced the packet.
    pub protocol: ProtocolId,
    /// Burst parameter the sender was configured with (0 when unused).
    pub k: u16,
    /// The protocol packet itself.
    pub packet: Packet,
    /// Per-endpoint monotone send counter.
    pub seq: u64,
    /// Sender clock at send time, in microseconds since its epoch.
    pub sent_at_micros: u64,
    /// Session id carried by the v2 extension, `None` for v1 frames.
    pub session: Option<SessionId>,
}

/// Strict decode failures. Every variant names the first check that failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the frame's shape requires: below [`FRAME_LEN`]
    /// for any frame, below [`FRAME_LEN_V2`] when [`FLAG_SESSION`] is set.
    TooShort {
        /// Bytes actually available.
        got: usize,
    },
    /// More bytes than the frame's shape allows: datagram transports
    /// deliver whole frames, so trailing bytes mean corruption or a
    /// foreign sender.
    TrailingBytes {
        /// Bytes actually available.
        got: usize,
    },
    /// Leading magic differs from [`WIRE_MAGIC`].
    BadMagic {
        /// Magic observed on the wire.
        got: u16,
    },
    /// Version byte differs from [`WIRE_VERSION`].
    UnsupportedVersion {
        /// Version observed on the wire.
        got: u8,
    },
    /// Protocol id byte matches no [`ProtocolId`].
    UnknownProtocol {
        /// Id observed on the wire.
        got: u8,
    },
    /// Kind byte is neither 0 (data) nor 1 (ack).
    BadKind {
        /// Kind observed on the wire.
        got: u8,
    },
    /// Flags byte has bits set outside the known extensions
    /// (currently only [`FLAG_SESSION`]).
    NonZeroFlags {
        /// Flags observed on the wire.
        got: u8,
    },
    /// Stored checksum disagrees with the recomputed one.
    BadChecksum {
        /// Checksum observed on the wire.
        got: u32,
        /// Checksum recomputed over the header and body.
        want: u32,
    },
    /// Frame decodes cleanly but belongs to a different protocol or `k`
    /// than this endpoint is running.
    ProtocolMismatch {
        /// Protocol announced by the frame.
        got: ProtocolId,
        /// Protocol this endpoint runs.
        want: ProtocolId,
    },
    /// Encode-side failure: `k` exceeds [`MAX_WIRE_K`].
    KTooLarge {
        /// Requested burst parameter.
        k: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::TooShort { got } => {
                write!(f, "frame too short: {got} bytes, need at least {FRAME_LEN}")
            }
            WireError::TrailingBytes { got } => {
                write!(
                    f,
                    "frame too long: {got} bytes, expected {FRAME_LEN} or {FRAME_LEN_V2}"
                )
            }
            WireError::BadMagic { got } => {
                write!(f, "bad magic {got:#06x}, expected {WIRE_MAGIC:#06x}")
            }
            WireError::UnsupportedVersion { got } => {
                write!(f, "unsupported wire version {got}, expected {WIRE_VERSION}")
            }
            WireError::UnknownProtocol { got } => write!(f, "unknown protocol id {got}"),
            WireError::BadKind { got } => write!(f, "bad packet kind {got}, expected 0 or 1"),
            WireError::NonZeroFlags { got } => {
                write!(f, "flags byte {got:#04x} has unknown extension bits set")
            }
            WireError::BadChecksum { got, want } => {
                write!(
                    f,
                    "checksum mismatch: stored {got:#010x}, computed {want:#010x}"
                )
            }
            WireError::ProtocolMismatch { got, want } => {
                write!(f, "frame is for protocol {got}, endpoint runs {want}")
            }
            WireError::KTooLarge { k } => {
                write!(f, "burst parameter {k} exceeds wire maximum {MAX_WIRE_K}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Encoder/decoder bound to one protocol family and burst parameter.
///
/// Binding the codec to `(protocol, k)` lets [`WireCodec::decode`] enforce
/// that both endpoints agree on the protocol before any symbol reaches an
/// automaton.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireCodec {
    protocol: ProtocolId,
    k: u16,
}

impl WireCodec {
    /// Creates a codec for `protocol` with burst parameter `k`.
    ///
    /// Protocols without a burst parameter (alpha, altbit, stenning) pass
    /// `k = 0`.
    pub fn new(protocol: ProtocolId, k: u64) -> Result<Self, WireError> {
        if k > MAX_WIRE_K {
            return Err(WireError::KTooLarge { k });
        }
        Ok(WireCodec {
            protocol,
            k: k as u16,
        })
    }

    /// The protocol this codec is bound to.
    pub fn protocol(&self) -> ProtocolId {
        self.protocol
    }

    /// The burst parameter this codec is bound to.
    pub fn k(&self) -> u16 {
        self.k
    }

    /// Encodes `packet` with transport metadata into a fresh v1 frame
    /// buffer (no session extension).
    pub fn encode(&self, packet: Packet, seq: u64, sent_at_micros: u64) -> [u8; FRAME_LEN] {
        let mut buf = [0u8; FRAME_LEN];
        self.fill_body(&mut buf, packet, seq, sent_at_micros, 0);
        let sum = fnv1a(&buf[0..32]);
        buf[32..36].copy_from_slice(&sum.to_be_bytes());
        buf
    }

    /// Encodes `packet` into a v2 frame carrying `session` (sets
    /// [`FLAG_SESSION`]; the checksum covers the extension).
    pub fn encode_with_session(
        &self,
        packet: Packet,
        seq: u64,
        sent_at_micros: u64,
        session: SessionId,
    ) -> [u8; FRAME_LEN_V2] {
        let mut buf = [0u8; FRAME_LEN_V2];
        self.fill_body(&mut buf, packet, seq, sent_at_micros, FLAG_SESSION);
        buf[32..36].copy_from_slice(&session.raw().to_be_bytes());
        let sum = fnv1a(&buf[0..36]);
        buf[36..40].copy_from_slice(&sum.to_be_bytes());
        buf
    }

    /// Writes the 32-byte fixed body shared by both frame shapes.
    fn fill_body(&self, buf: &mut [u8], packet: Packet, seq: u64, sent_at_micros: u64, flags: u8) {
        let (kind, symbol) = match packet {
            Packet::Data(s) => (0u8, s),
            Packet::Ack(s) => (1u8, s),
        };
        buf[0..2].copy_from_slice(&WIRE_MAGIC.to_be_bytes());
        buf[2] = WIRE_VERSION;
        buf[3] = self.protocol as u8;
        buf[4..6].copy_from_slice(&self.k.to_be_bytes());
        buf[6] = kind;
        buf[7] = flags;
        buf[8..16].copy_from_slice(&symbol.to_be_bytes());
        buf[16..24].copy_from_slice(&seq.to_be_bytes());
        buf[24..32].copy_from_slice(&sent_at_micros.to_be_bytes());
    }

    /// Decodes one frame, enforcing structure, checksum, and protocol
    /// agreement. Never panics on any input.
    pub fn decode(&self, bytes: &[u8]) -> Result<Frame, WireError> {
        let frame = decode_any(bytes)?;
        if frame.protocol != self.protocol || frame.k != self.k {
            return Err(WireError::ProtocolMismatch {
                got: frame.protocol,
                want: self.protocol,
            });
        }
        Ok(frame)
    }
}

/// Decodes a frame without checking which protocol it belongs to.
///
/// Used by diagnostic tooling; endpoints should prefer
/// [`WireCodec::decode`], which also verifies protocol agreement.
pub fn decode_any(bytes: &[u8]) -> Result<Frame, WireError> {
    if bytes.len() < FRAME_LEN {
        return Err(WireError::TooShort { got: bytes.len() });
    }
    let magic = u16::from_be_bytes([bytes[0], bytes[1]]);
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic { got: magic });
    }
    if bytes[2] != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion { got: bytes[2] });
    }
    let protocol =
        ProtocolId::from_byte(bytes[3]).ok_or(WireError::UnknownProtocol { got: bytes[3] })?;
    let k = u16::from_be_bytes([bytes[4], bytes[5]]);
    let kind = bytes[6];
    if kind > 1 {
        return Err(WireError::BadKind { got: kind });
    }
    let flags = bytes[7];
    if flags & !FLAG_SESSION != 0 {
        return Err(WireError::NonZeroFlags { got: flags });
    }
    let expected_len = if flags & FLAG_SESSION != 0 {
        FRAME_LEN_V2
    } else {
        FRAME_LEN
    };
    if bytes.len() < expected_len {
        return Err(WireError::TooShort { got: bytes.len() });
    }
    if bytes.len() > expected_len {
        return Err(WireError::TrailingBytes { got: bytes.len() });
    }
    let body_len = expected_len - 4;
    let too_short = || WireError::TooShort { got: bytes.len() };
    let stored = u32::from_be_bytes(read_array(bytes, body_len).ok_or_else(too_short)?);
    let computed = fnv1a(bytes.get(0..body_len).ok_or_else(too_short)?);
    if stored != computed {
        return Err(WireError::BadChecksum {
            got: stored,
            want: computed,
        });
    }
    let symbol = u64::from_be_bytes(read_array(bytes, 8).ok_or_else(too_short)?);
    let seq = u64::from_be_bytes(read_array(bytes, 16).ok_or_else(too_short)?);
    let sent_at_micros = u64::from_be_bytes(read_array(bytes, 24).ok_or_else(too_short)?);
    let session = if flags & FLAG_SESSION != 0 {
        let raw = u32::from_be_bytes(read_array(bytes, 32).ok_or_else(too_short)?);
        Some(SessionId::new(raw))
    } else {
        None
    };
    let packet = if kind == 0 {
        Packet::Data(symbol)
    } else {
        Packet::Ack(symbol)
    };
    Ok(Frame {
        protocol,
        k,
        packet,
        seq,
        sent_at_micros,
        session,
    })
}

/// Extracts the session id from a v2 frame's fixed offset *without*
/// validating the checksum or any other field beyond the minimum needed
/// to locate it (length, magic, and [`FLAG_SESSION`]).
///
/// This exists for the server's hot demultiplexing path, where the frame
/// will be fully decoded (and checksum-verified) by the owning shard; a
/// frame whose id lies about its session is caught there, never acted on
/// here. Returns `None` for v1 frames and anything malformed.
#[must_use]
pub fn peek_session(bytes: &[u8]) -> Option<SessionId> {
    if bytes.len() != FRAME_LEN_V2 {
        return None;
    }
    if u16::from_be_bytes([bytes[0], bytes[1]]) != WIRE_MAGIC {
        return None;
    }
    if bytes[7] & FLAG_SESSION == 0 {
        return None;
    }
    let raw = u32::from_be_bytes(read_array(bytes, 32)?);
    Some(SessionId::new(raw))
}

/// Copies `N` bytes starting at `off` into a fixed array, or `None` when
/// the input is too short. The checked replacement for
/// `bytes[off..off + N].try_into().expect(..)`: every read in the decode
/// path goes through here so no input length can reach a panic.
fn read_array<const N: usize>(bytes: &[u8], off: usize) -> Option<[u8; N]> {
    let src = bytes.get(off..off.checked_add(N)?)?;
    let mut out = [0u8; N];
    out.copy_from_slice(src);
    Some(out)
}

/// Capacity of a [`FrameBuf`]: the v2 frame length plus slack so a
/// slightly-oversized datagram still fits and can be carried to the
/// owning shard for triage (where [`decode_any`] rejects it with
/// [`WireError::TrailingBytes`]) instead of being silently dropped at
/// the socket.
pub const FRAME_BUF_CAP: usize = FRAME_LEN_V2 + 16;

/// A fixed-capacity, inline byte buffer holding one (possibly
/// malformed) wire frame.
///
/// Serve's per-frame ingress/egress loops move every received datagram
/// through a channel to a shard and back out to an egress sink; doing
/// that with `Vec<u8>` costs one heap allocation per frame per hop.
/// `FrameBuf` is `Copy` — frames move by memcpy of at most
/// [`FRAME_BUF_CAP`] bytes, so the steady-state path allocates nothing.
///
/// Anything longer than the capacity is *not* a frame (the wire format
/// tops out at [`FRAME_LEN_V2`]); [`FrameBuf::from_slice`] refuses it
/// and transports count it as a drop, exactly as they would any other
/// unparseable input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameBuf {
    len: u8,
    buf: [u8; FRAME_BUF_CAP],
}

impl FrameBuf {
    /// Wraps `bytes`, or `None` when they exceed [`FRAME_BUF_CAP`].
    #[must_use]
    pub fn from_slice(bytes: &[u8]) -> Option<FrameBuf> {
        let mut buf = [0u8; FRAME_BUF_CAP];
        let dst = buf.get_mut(..bytes.len())?;
        dst.copy_from_slice(bytes);
        Some(FrameBuf {
            len: bytes.len() as u8,
            buf,
        })
    }

    /// The wrapped bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        self.buf.get(..usize::from(self.len)).unwrap_or(&[])
    }

    /// Length of the wrapped bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// True when the buffer holds no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl From<[u8; FRAME_LEN]> for FrameBuf {
    fn from(frame: [u8; FRAME_LEN]) -> FrameBuf {
        let mut buf = [0u8; FRAME_BUF_CAP];
        buf[..FRAME_LEN].copy_from_slice(&frame);
        FrameBuf {
            len: FRAME_LEN as u8,
            buf,
        }
    }
}

impl From<[u8; FRAME_LEN_V2]> for FrameBuf {
    fn from(frame: [u8; FRAME_LEN_V2]) -> FrameBuf {
        let mut buf = [0u8; FRAME_BUF_CAP];
        buf[..FRAME_LEN_V2].copy_from_slice(&frame);
        FrameBuf {
            len: FRAME_LEN_V2 as u8,
            buf,
        }
    }
}

impl std::ops::Deref for FrameBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for FrameBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// 32-bit FNV-1a over `bytes`: the frame checksum of wire v1 and v2.
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec() -> WireCodec {
        WireCodec::new(ProtocolId::Beta, 4).expect("k fits")
    }

    #[test]
    fn round_trips_data_and_ack() {
        let c = codec();
        for packet in [Packet::Data(17), Packet::Ack(0), Packet::Data(u64::MAX)] {
            let buf = c.encode(packet, 9, 123_456);
            let frame = c.decode(&buf).expect("round trip");
            assert_eq!(frame.packet, packet);
            assert_eq!(frame.seq, 9);
            assert_eq!(frame.sent_at_micros, 123_456);
            assert_eq!(frame.protocol, ProtocolId::Beta);
            assert_eq!(frame.k, 4);
        }
    }

    #[test]
    fn rejects_short_and_long_frames() {
        let c = codec();
        let buf = c.encode(Packet::Data(1), 0, 0);
        assert_eq!(
            c.decode(&buf[..FRAME_LEN - 1]),
            Err(WireError::TooShort { got: FRAME_LEN - 1 })
        );
        let mut long = buf.to_vec();
        long.push(0);
        assert_eq!(
            c.decode(&long),
            Err(WireError::TrailingBytes { got: FRAME_LEN + 1 })
        );
    }

    #[test]
    fn rejects_corrupted_header_fields() {
        let c = codec();
        let good = c.encode(Packet::Data(1), 0, 0);

        let mut bad = good;
        bad[0] = 0xff;
        assert!(matches!(c.decode(&bad), Err(WireError::BadMagic { .. })));

        let mut bad = good;
        bad[2] = WIRE_VERSION + 1;
        assert!(matches!(
            c.decode(&bad),
            Err(WireError::UnsupportedVersion { .. })
        ));

        let mut bad = good;
        bad[3] = 0;
        // checksum is recomputed below the protocol-id check, so fix it up
        // to prove UnknownProtocol fires before ProtocolMismatch.
        let sum = fnv1a(&bad[0..32]);
        bad[32..36].copy_from_slice(&sum.to_be_bytes());
        assert!(matches!(
            c.decode(&bad),
            Err(WireError::UnknownProtocol { .. })
        ));

        let mut bad = good;
        bad[6] = 2;
        assert!(matches!(c.decode(&bad), Err(WireError::BadKind { .. })));

        let mut bad = good;
        bad[7] = 0x80;
        assert!(matches!(
            c.decode(&bad),
            Err(WireError::NonZeroFlags { .. })
        ));
    }

    #[test]
    fn rejects_flipped_body_bits_via_checksum() {
        let c = codec();
        let good = c.encode(Packet::Data(0b1010), 3, 77);
        for offset in 8..32 {
            let mut bad = good;
            bad[offset] ^= 0x01;
            assert!(
                matches!(c.decode(&bad), Err(WireError::BadChecksum { .. })),
                "bit flip at offset {offset} must fail the checksum"
            );
        }
    }

    #[test]
    fn rejects_cross_protocol_frames() {
        let beta = codec();
        let gamma = WireCodec::new(ProtocolId::Gamma, 4).expect("k fits");
        let buf = gamma.encode(Packet::Ack(2), 0, 0);
        assert_eq!(
            beta.decode(&buf),
            Err(WireError::ProtocolMismatch {
                got: ProtocolId::Gamma,
                want: ProtocolId::Beta,
            })
        );
        // Same protocol but different k is also a mismatch.
        let beta8 = WireCodec::new(ProtocolId::Beta, 8).expect("k fits");
        let buf = beta8.encode(Packet::Data(1), 0, 0);
        assert!(matches!(
            beta.decode(&buf),
            Err(WireError::ProtocolMismatch { .. })
        ));
    }

    #[test]
    fn k_too_large_is_an_encode_error() {
        assert_eq!(
            WireCodec::new(ProtocolId::Beta, MAX_WIRE_K + 1),
            Err(WireError::KTooLarge { k: MAX_WIRE_K + 1 })
        );
    }

    #[test]
    fn decode_any_accepts_every_protocol_id() {
        for id in ProtocolId::ALL {
            let c = WireCodec::new(id, 0).expect("k fits");
            let buf = c.encode(Packet::Data(5), 1, 2);
            let frame = decode_any(&buf).expect("structurally valid");
            assert_eq!(frame.protocol, id);
        }
    }

    /// Golden test: the exact bytes of a v1 frame are pinned, so no codec
    /// change (including the v2 extension) can silently alter the layout
    /// existing peers depend on. If this test fails, the wire format broke.
    #[test]
    fn v1_frame_bytes_are_pinned() {
        let c = WireCodec::new(ProtocolId::Beta, 4).expect("k fits");
        let buf = c.encode(
            Packet::Data(0x0102_0304_0506_0708),
            0x1122,
            0x0055_6677_8899_AABB,
        );
        let expected: [u8; FRAME_LEN] = [
            0x52, 0x54, // magic "RT"
            0x01, // version
            0x02, // protocol id: beta
            0x00, 0x04, // k = 4
            0x00, // kind = data
            0x00, // flags = 0 (v1)
            0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // symbol
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x11, 0x22, // seq
            0x00, 0x55, 0x66, 0x77, 0x88, 0x99, 0xAA, 0xBB, // sent_at_micros
            0x3F, 0x17, 0x82, 0x7F, // FNV-1a over bytes 0..32
        ];
        assert_eq!(buf, expected, "v1 wire layout must never change");
        // And those pinned bytes decode to exactly the original frame.
        let frame = decode_any(&expected).expect("pinned v1 frame decodes");
        assert_eq!(
            frame,
            Frame {
                protocol: ProtocolId::Beta,
                k: 4,
                packet: Packet::Data(0x0102_0304_0506_0708),
                seq: 0x1122,
                sent_at_micros: 0x0055_6677_8899_AABB,
                session: None,
            }
        );
    }

    #[test]
    fn v2_round_trips_session_id() {
        let c = codec();
        for raw in [0u32, 1, 0xDEAD_BEEF, u32::MAX] {
            let sid = SessionId::new(raw);
            let buf = c.encode_with_session(Packet::Ack(3), 7, 99, sid);
            assert_eq!(buf.len(), FRAME_LEN_V2);
            assert_eq!(buf[7], FLAG_SESSION);
            let frame = c.decode(&buf).expect("v2 round trip");
            assert_eq!(frame.session, Some(sid));
            assert_eq!(frame.packet, Packet::Ack(3));
            assert_eq!(frame.seq, 7);
            assert_eq!(frame.sent_at_micros, 99);
        }
    }

    #[test]
    fn v2_first_32_bytes_match_v1() {
        // The extension inserts after the fixed body: a v2 frame's first
        // 32 bytes are byte-for-byte the v1 encoding of the same packet.
        let c = codec();
        let v1 = c.encode(Packet::Data(42), 5, 1000);
        let v2 = c.encode_with_session(Packet::Data(42), 5, 1000, SessionId::new(9));
        assert_eq!(v1[0..7], v2[0..7]);
        assert_eq!(v1[8..32], v2[8..32]);
        assert_eq!(v2[32..36], 9u32.to_be_bytes());
    }

    #[test]
    fn v2_rejects_truncation_and_trailing() {
        let c = codec();
        let buf = c.encode_with_session(Packet::Data(1), 0, 0, SessionId::new(7));
        // A v2 frame truncated to v1 length: the flag promises 40 bytes.
        assert_eq!(
            decode_any(&buf[..FRAME_LEN]),
            Err(WireError::TooShort { got: FRAME_LEN })
        );
        let mut long = buf.to_vec();
        long.push(0);
        assert_eq!(
            decode_any(&long),
            Err(WireError::TrailingBytes {
                got: FRAME_LEN_V2 + 1
            })
        );
    }

    #[test]
    fn v2_checksum_covers_session_id() {
        let c = codec();
        let good = c.encode_with_session(Packet::Data(1), 0, 0, SessionId::new(0x01020304));
        for offset in 32..36 {
            let mut bad = good;
            bad[offset] ^= 0x01;
            assert!(
                matches!(decode_any(&bad), Err(WireError::BadChecksum { .. })),
                "session-id bit flip at offset {offset} must fail the checksum"
            );
        }
    }

    #[test]
    fn unknown_flag_bits_rejected_even_with_session_bit() {
        let c = codec();
        let mut buf = c
            .encode_with_session(Packet::Data(1), 0, 0, SessionId::new(1))
            .to_vec();
        buf[7] = FLAG_SESSION | 0x02;
        let sum = fnv1a(&buf[0..36]);
        buf[36..40].copy_from_slice(&sum.to_be_bytes());
        assert_eq!(
            decode_any(&buf),
            Err(WireError::NonZeroFlags {
                got: FLAG_SESSION | 0x02
            })
        );
    }

    #[test]
    fn peek_session_reads_v2_only() {
        let c = codec();
        let v2 = c.encode_with_session(Packet::Data(1), 0, 0, SessionId::new(77));
        assert_eq!(peek_session(&v2), Some(SessionId::new(77)));
        let v1 = c.encode(Packet::Data(1), 0, 0);
        assert_eq!(peek_session(&v1), None);
        assert_eq!(peek_session(&[]), None);
        assert_eq!(peek_session(&v2[..FRAME_LEN]), None);
        let mut bad_magic = v2;
        bad_magic[0] = 0;
        assert_eq!(peek_session(&bad_magic), None);
    }

    #[test]
    fn frame_buf_round_trips_both_frame_shapes() {
        let c = codec();
        let v1 = c.encode(Packet::Data(3), 1, 2);
        let fb = FrameBuf::from(v1);
        assert_eq!(fb.as_slice(), &v1[..]);
        assert_eq!(fb.len(), FRAME_LEN);
        let v2 = c.encode_with_session(Packet::Ack(9), 4, 5, SessionId::new(6));
        let fb = FrameBuf::from(v2);
        assert_eq!(fb.as_slice(), &v2[..]);
        assert_eq!(
            decode_any(&fb).expect("decodes").session,
            Some(SessionId::new(6))
        );
    }

    #[test]
    fn frame_buf_refuses_oversized_input_and_keeps_garbage() {
        assert!(FrameBuf::from_slice(&[0u8; FRAME_BUF_CAP + 1]).is_none());
        let garbage = [0xABu8; 7];
        let fb = FrameBuf::from_slice(&garbage).expect("fits");
        assert_eq!(fb.as_slice(), &garbage);
        assert!(!fb.is_empty());
        let empty = FrameBuf::from_slice(&[]).expect("fits");
        assert!(empty.is_empty());
        assert_eq!(empty.as_slice(), &[] as &[u8]);
    }

    #[test]
    fn read_array_is_length_checked() {
        let bytes = [1u8, 2, 3, 4, 5];
        assert_eq!(read_array::<4>(&bytes, 0), Some([1, 2, 3, 4]));
        assert_eq!(read_array::<4>(&bytes, 1), Some([2, 3, 4, 5]));
        assert_eq!(read_array::<4>(&bytes, 2), None);
        assert_eq!(read_array::<2>(&bytes, usize::MAX), None);
        assert_eq!(read_array::<0>(&bytes, 5), Some([]));
    }

    /// Exhaustiveness: every [`WireError`] variant is reachable from a
    /// hand-crafted byte buffer — one test per variant, built from the
    /// layout table rather than by mutating `encode` output, so a layout
    /// regression cannot silently retire an error path.
    mod every_error_variant_is_reachable {
        use super::*;

        /// Builds a frame byte-by-byte from the documented layout, with a
        /// correct checksum. Independent of `encode`.
        fn crafted() -> Vec<u8> {
            let mut buf = vec![0u8; FRAME_LEN];
            buf[0] = 0x52; // magic "R"
            buf[1] = 0x54; // magic "T"
            buf[2] = WIRE_VERSION;
            buf[3] = ProtocolId::Beta as u8;
            buf[4..6].copy_from_slice(&4u16.to_be_bytes()); // k = 4
            buf[6] = 0; // kind = data
            buf[7] = 0; // flags
            buf[8..16].copy_from_slice(&7u64.to_be_bytes()); // symbol
            buf[16..24].copy_from_slice(&1u64.to_be_bytes()); // seq
            buf[24..32].copy_from_slice(&2u64.to_be_bytes()); // sent_at
            reseal(&mut buf);
            buf
        }

        /// Recomputes the FNV-1a checksum after a deliberate header edit,
        /// so the test reaches the *intended* error rather than tripping
        /// the (later) checksum check.
        fn reseal(buf: &mut [u8]) {
            let mut sum: u32 = 0x811c_9dc5;
            for &b in &buf[0..32] {
                sum ^= u32::from(b);
                sum = sum.wrapping_mul(0x0100_0193);
            }
            buf[32..36].copy_from_slice(&sum.to_be_bytes());
        }

        #[test]
        fn crafted_baseline_decodes() {
            let frame = decode_any(&crafted()).expect("baseline must be valid");
            assert_eq!(frame.packet, Packet::Data(7));
            assert_eq!(frame.k, 4);
        }

        #[test]
        fn too_short() {
            let buf = crafted();
            assert_eq!(decode_any(&buf[..35]), Err(WireError::TooShort { got: 35 }));
            assert_eq!(decode_any(&[]), Err(WireError::TooShort { got: 0 }));
        }

        #[test]
        fn trailing_bytes() {
            let mut buf = crafted();
            buf.push(0xFF);
            assert_eq!(decode_any(&buf), Err(WireError::TrailingBytes { got: 37 }));
        }

        #[test]
        fn bad_magic() {
            let mut buf = crafted();
            buf[0] = 0x00;
            buf[1] = 0x99;
            reseal(&mut buf);
            assert_eq!(decode_any(&buf), Err(WireError::BadMagic { got: 0x0099 }));
        }

        #[test]
        fn unsupported_version() {
            let mut buf = crafted();
            buf[2] = WIRE_VERSION + 1;
            reseal(&mut buf);
            assert_eq!(
                decode_any(&buf),
                Err(WireError::UnsupportedVersion {
                    got: WIRE_VERSION + 1
                })
            );
        }

        #[test]
        fn unknown_protocol() {
            let mut buf = crafted();
            buf[3] = 0; // below every defined id
            reseal(&mut buf);
            assert_eq!(decode_any(&buf), Err(WireError::UnknownProtocol { got: 0 }));
            buf[3] = 200; // above every defined id
            reseal(&mut buf);
            assert_eq!(
                decode_any(&buf),
                Err(WireError::UnknownProtocol { got: 200 })
            );
        }

        #[test]
        fn bad_kind() {
            let mut buf = crafted();
            buf[6] = 2; // neither data (0) nor ack (1)
            reseal(&mut buf);
            assert_eq!(decode_any(&buf), Err(WireError::BadKind { got: 2 }));
        }

        #[test]
        fn non_zero_flags() {
            let mut buf = crafted();
            buf[7] = 0x80;
            reseal(&mut buf);
            assert_eq!(decode_any(&buf), Err(WireError::NonZeroFlags { got: 0x80 }));
        }

        #[test]
        fn bad_checksum() {
            let mut buf = crafted();
            let want = u32::from_be_bytes([buf[32], buf[33], buf[34], buf[35]]);
            let got = want ^ 1;
            buf[32..36].copy_from_slice(&got.to_be_bytes());
            assert_eq!(decode_any(&buf), Err(WireError::BadChecksum { got, want }));
        }

        #[test]
        fn protocol_mismatch() {
            // A structurally valid gamma frame offered to a beta codec —
            // and a right-protocol frame with the wrong k.
            let c = WireCodec::new(ProtocolId::Beta, 4).expect("k fits");
            let mut buf = crafted();
            buf[3] = ProtocolId::Gamma as u8;
            reseal(&mut buf);
            assert_eq!(
                c.decode(&buf),
                Err(WireError::ProtocolMismatch {
                    got: ProtocolId::Gamma,
                    want: ProtocolId::Beta,
                })
            );
            let mut wrong_k = crafted();
            wrong_k[4..6].copy_from_slice(&5u16.to_be_bytes());
            reseal(&mut wrong_k);
            assert_eq!(
                c.decode(&wrong_k),
                Err(WireError::ProtocolMismatch {
                    got: ProtocolId::Beta,
                    want: ProtocolId::Beta,
                })
            );
        }

        #[test]
        fn k_too_large() {
            // The only encode-side variant: constructing a codec with a k
            // that does not fit the 16-bit header field.
            assert_eq!(
                WireCodec::new(ProtocolId::Beta, MAX_WIRE_K + 1),
                Err(WireError::KTooLarge { k: MAX_WIRE_K + 1 })
            );
        }
    }
}
