//! Versioned wire codec for RSTP protocol packets.
//!
//! The simulator moves `rstp_core::Packet` values through an abstract
//! channel; this module gives those packets a concrete byte layout so they
//! can cross a real transport (an in-process channel or a UDP socket).
//!
//! # Frame layout (40 bytes, all integers big-endian)
//!
//! | offset | size | field            | notes                                   |
//! |-------:|-----:|------------------|-----------------------------------------|
//! | 0      | 2    | magic            | `0x5254` (`"RT"`)                       |
//! | 2      | 1    | version          | [`WIRE_VERSION`]                        |
//! | 3      | 1    | protocol id      | [`ProtocolId`] discriminant             |
//! | 4      | 2    | k                | burst parameter of the sender (0 = n/a) |
//! | 6      | 1    | kind             | 0 = data, 1 = ack                       |
//! | 7      | 1    | flags            | exactly [`FLAG_SESSION`]                |
//! | 8      | 8    | symbol           | packet symbol (multiset element / seq)  |
//! | 16     | 8    | seq              | per-endpoint send counter               |
//! | 24     | 8    | sent\_at\_micros | sender clock at send, microseconds      |
//! | 32     | 4    | session id       | [`rstp_core::SessionId`]                |
//! | 36     | 4    | checksum         | FNV-1a over bytes `0..36`               |
//!
//! Multi-session servers ([`rstp-serve`]) multiplex many transfers over
//! one socket and route each frame by its session id; a point-to-point
//! transport sends session 0. The flags byte must be exactly
//! [`FLAG_SESSION`], so a future extension cannot be silently
//! misparsed.
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

/// Encoded length of every frame.
pub const FRAME_LEN_V2: usize = 40;

/// The flags byte of every frame: the session-id field is present.
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
    /// The session the frame belongs to (0 on a point-to-point link).
    pub session: SessionId,
}

/// Strict decode failures. Every variant names the first check that failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than a frame: below [`FRAME_LEN_V2`].
    TooShort {
        /// Bytes actually available.
        got: usize,
    },
    /// More bytes than a frame: datagram transports deliver whole
    /// frames, so trailing bytes mean corruption or a foreign sender.
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
    /// Flags byte is not exactly [`FLAG_SESSION`].
    BadFlags {
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
                write!(f, "frame too short: {got} bytes, need {FRAME_LEN_V2}")
            }
            WireError::TrailingBytes { got } => {
                write!(f, "frame too long: {got} bytes, expected {FRAME_LEN_V2}")
            }
            WireError::BadMagic { got } => {
                write!(f, "bad magic {got:#06x}, expected {WIRE_MAGIC:#06x}")
            }
            WireError::UnsupportedVersion { got } => {
                write!(f, "unsupported wire version {got}, expected {WIRE_VERSION}")
            }
            WireError::UnknownProtocol { got } => write!(f, "unknown protocol id {got}"),
            WireError::BadKind { got } => write!(f, "bad packet kind {got}, expected 0 or 1"),
            WireError::BadFlags { got } => {
                write!(f, "flags byte {got:#04x}, expected {FLAG_SESSION:#04x}")
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

    /// Encodes `packet` with its transport metadata into a frame of
    /// `session`.
    pub fn encode_with_session(
        &self,
        packet: Packet,
        seq: u64,
        sent_at_micros: u64,
        session: SessionId,
    ) -> [u8; FRAME_LEN_V2] {
        let (kind, symbol) = match packet {
            Packet::Data(s) => (0u8, s),
            Packet::Ack(s) => (1u8, s),
        };
        let mut buf = [0u8; FRAME_LEN_V2];
        buf[0..2].copy_from_slice(&WIRE_MAGIC.to_be_bytes());
        buf[2] = WIRE_VERSION;
        buf[3] = self.protocol as u8;
        buf[4..6].copy_from_slice(&self.k.to_be_bytes());
        buf[6] = kind;
        buf[7] = FLAG_SESSION;
        buf[8..16].copy_from_slice(&symbol.to_be_bytes());
        buf[16..24].copy_from_slice(&seq.to_be_bytes());
        buf[24..32].copy_from_slice(&sent_at_micros.to_be_bytes());
        buf[32..36].copy_from_slice(&session.raw().to_be_bytes());
        let sum = fnv1a(&buf[0..36]);
        buf[36..40].copy_from_slice(&sum.to_be_bytes());
        buf
    }

    /// Whether `frame` belongs to this codec's protocol and `k`: the
    /// agreement [`decode`](Self::decode) enforces.
    pub fn accepts(&self, frame: &Frame) -> bool {
        frame.protocol == self.protocol && frame.k == self.k
    }

    /// Decodes one frame, enforcing structure, checksum, and protocol
    /// agreement. Never panics on any input.
    pub fn decode(&self, bytes: &[u8]) -> Result<Frame, WireError> {
        let frame = decode_any(bytes)?;
        if !self.accepts(&frame) {
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
    let frame: &[u8; FRAME_LEN_V2] = bytes.try_into().map_err(|_| {
        let got = bytes.len();
        if got < FRAME_LEN_V2 {
            WireError::TooShort { got }
        } else {
            WireError::TrailingBytes { got }
        }
    })?;
    // Every field sits at a fixed offset of a fixed-size array, so no
    // read below can fail.
    #[rustfmt::skip]
    let [
        m0, m1, version, protocol, k0, k1, kind, flags,
        s0, s1, s2, s3, s4, s5, s6, s7,
        q0, q1, q2, q3, q4, q5, q6, q7,
        t0, t1, t2, t3, t4, t5, t6, t7,
        i0, i1, i2, i3,
        c0, c1, c2, c3,
    ] = *frame;
    let magic = u16::from_be_bytes([m0, m1]);
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic { got: magic });
    }
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion { got: version });
    }
    let protocol =
        ProtocolId::from_byte(protocol).ok_or(WireError::UnknownProtocol { got: protocol })?;
    if kind > 1 {
        return Err(WireError::BadKind { got: kind });
    }
    if flags != FLAG_SESSION {
        return Err(WireError::BadFlags { got: flags });
    }
    let stored = u32::from_be_bytes([c0, c1, c2, c3]);
    let [body @ .., _, _, _, _] = *frame;
    let computed = fnv1a(&body);
    if stored != computed {
        return Err(WireError::BadChecksum {
            got: stored,
            want: computed,
        });
    }
    let symbol = u64::from_be_bytes([s0, s1, s2, s3, s4, s5, s6, s7]);
    Ok(Frame {
        protocol,
        k: u16::from_be_bytes([k0, k1]),
        packet: if kind == 0 {
            Packet::Data(symbol)
        } else {
            Packet::Ack(symbol)
        },
        seq: u64::from_be_bytes([q0, q1, q2, q3, q4, q5, q6, q7]),
        sent_at_micros: u64::from_be_bytes([t0, t1, t2, t3, t4, t5, t6, t7]),
        session: SessionId::new(u32::from_be_bytes([i0, i1, i2, i3])),
    })
}

/// Extracts the session id from a frame's fixed offset *without*
/// validating the checksum or any other field beyond the minimum needed
/// to locate it (length, magic, and the flags byte).
///
/// The UDP server transport uses this to learn a session's return
/// address as datagrams arrive; the server's ingress pass still decodes
/// every frame in full, checksum included, before routing it. Returns `None` for
/// anything that is not frame-shaped.
#[must_use]
pub fn peek_session(bytes: &[u8]) -> Option<SessionId> {
    let frame: &[u8; FRAME_LEN_V2] = bytes.try_into().ok()?;
    let [m0, m1, _, _, _, _, _, flags, .., i0, i1, i2, i3, _, _, _, _] = *frame;
    (u16::from_be_bytes([m0, m1]) == WIRE_MAGIC && flags == FLAG_SESSION)
        .then(|| SessionId::new(u32::from_be_bytes([i0, i1, i2, i3])))
}

/// Capacity of a [`FrameBuf`]: the frame length plus slack so a
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
/// is [`FRAME_LEN_V2`] bytes); [`FrameBuf::from_slice`] refuses it
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

/// 32-bit FNV-1a over `bytes`: the frame checksum.
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

    fn encode(c: WireCodec, packet: Packet, seq: u64, sent_at_micros: u64) -> [u8; FRAME_LEN_V2] {
        c.encode_with_session(packet, seq, sent_at_micros, SessionId::new(1))
    }

    /// Recomputes the checksum after a deliberate header edit, so a test
    /// reaches the error it targets rather than the (later) checksum
    /// check.
    fn reseal(buf: &mut [u8]) {
        let sum = fnv1a(&buf[0..36]);
        buf[36..40].copy_from_slice(&sum.to_be_bytes());
    }

    #[test]
    fn rejects_corrupted_header_fields() {
        let c = codec();
        let good = encode(c, Packet::Data(1), 0, 0);

        let mut bad = good;
        bad[0] = 0xff;
        assert!(matches!(c.decode(&bad), Err(WireError::BadMagic { .. })));

        let mut bad = good;
        bad[2] = WIRE_VERSION + 1;
        assert!(matches!(
            c.decode(&bad),
            Err(WireError::UnsupportedVersion { .. })
        ));

        // Reseal to prove UnknownProtocol fires before ProtocolMismatch.
        let mut bad = good;
        bad[3] = 0;
        reseal(&mut bad);
        assert!(matches!(
            c.decode(&bad),
            Err(WireError::UnknownProtocol { .. })
        ));

        let mut bad = good;
        bad[6] = 2;
        assert!(matches!(c.decode(&bad), Err(WireError::BadKind { .. })));

        let mut bad = good;
        bad[7] = 0x80;
        assert!(matches!(c.decode(&bad), Err(WireError::BadFlags { .. })));
    }

    #[test]
    fn rejects_flipped_body_bits_via_checksum() {
        let c = codec();
        let good = encode(c, Packet::Data(0b1010), 3, 77);
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
        let buf = encode(gamma, Packet::Ack(2), 0, 0);
        assert_eq!(
            beta.decode(&buf),
            Err(WireError::ProtocolMismatch {
                got: ProtocolId::Gamma,
                want: ProtocolId::Beta,
            })
        );
        // Same protocol but different k is also a mismatch.
        let beta8 = WireCodec::new(ProtocolId::Beta, 8).expect("k fits");
        let buf = encode(beta8, Packet::Data(1), 0, 0);
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
            let buf = encode(c, Packet::Data(5), 1, 2);
            let frame = decode_any(&buf).expect("structurally valid");
            assert_eq!(frame.protocol, id);
        }
    }

    /// Golden test: the exact bytes of a frame are pinned, so no codec
    /// change can silently alter the layout existing peers and flight
    /// recordings depend on. If this test fails, the wire format broke.
    #[test]
    fn frame_bytes_are_pinned() {
        let c = WireCodec::new(ProtocolId::Beta, 4).expect("k fits");
        let buf = c.encode_with_session(
            Packet::Data(0x0102_0304_0506_0708),
            0x1122,
            0x0055_6677_8899_AABB,
            SessionId::new(0x0A0B_0C0D),
        );
        let expected: [u8; FRAME_LEN_V2] = [
            0x52, 0x54, // magic "RT"
            0x01, // version
            0x02, // protocol id: beta
            0x00, 0x04, // k = 4
            0x00, // kind = data
            0x01, // flags = FLAG_SESSION
            0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // symbol
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x11, 0x22, // seq
            0x00, 0x55, 0x66, 0x77, 0x88, 0x99, 0xAA, 0xBB, // sent_at_micros
            0x0A, 0x0B, 0x0C, 0x0D, // session id
            0x18, 0xD8, 0x74, 0x1C, // FNV-1a over bytes 0..36
        ];
        assert_eq!(buf, expected, "wire layout must never change");
        let frame = decode_any(&expected).expect("pinned frame decodes");
        assert_eq!(frame.packet, Packet::Data(0x0102_0304_0506_0708));
        assert_eq!((frame.protocol, frame.k), (ProtocolId::Beta, 4));
        assert_eq!(
            (frame.seq, frame.sent_at_micros),
            (0x1122, 0x0055_6677_8899_AABB)
        );
        assert_eq!(peek_session(&expected), Some(SessionId::new(0x0A0B_0C0D)));
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
            assert_eq!(frame.session, sid);
            assert_eq!(frame.packet, Packet::Ack(3));
            assert_eq!(frame.seq, 7);
            assert_eq!(frame.sent_at_micros, 99);
        }
    }

    #[test]
    fn v2_rejects_truncation_and_trailing() {
        let c = codec();
        let buf = c.encode_with_session(Packet::Data(1), 0, 0, SessionId::new(7));
        // Cut before the checksum: the shape of a frame without the
        // session field is too short, not a frame of its own.
        assert_eq!(
            decode_any(&buf[..FRAME_LEN_V2 - 4]),
            Err(WireError::TooShort {
                got: FRAME_LEN_V2 - 4
            })
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
        let mut buf = encode(codec(), Packet::Data(1), 0, 0);
        buf[7] = FLAG_SESSION | 0x02;
        reseal(&mut buf);
        assert_eq!(
            decode_any(&buf),
            Err(WireError::BadFlags {
                got: FLAG_SESSION | 0x02
            })
        );
    }

    #[test]
    fn peek_session_reads_frames_only() {
        let v2 = codec().encode_with_session(Packet::Data(1), 0, 0, SessionId::new(77));
        assert_eq!(peek_session(&v2), Some(SessionId::new(77)));
        assert_eq!(peek_session(&[]), None);
        assert_eq!(peek_session(&v2[..FRAME_LEN_V2 - 4]), None);
        let mut bad_magic = v2;
        bad_magic[0] = 0;
        assert_eq!(peek_session(&bad_magic), None);
        let mut no_flag = v2;
        no_flag[7] = 0;
        assert_eq!(peek_session(&no_flag), None);
    }

    #[test]
    fn frame_buf_round_trips_a_frame() {
        let v2 = codec().encode_with_session(Packet::Ack(9), 4, 5, SessionId::new(6));
        let fb = FrameBuf::from(v2);
        assert_eq!(fb.as_slice(), &v2[..]);
        assert_eq!(fb.len(), FRAME_LEN_V2);
        assert_eq!(decode_any(&fb).expect("decodes").session, SessionId::new(6));
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

    /// Exhaustiveness: every [`WireError`] variant is reachable from a
    /// hand-crafted byte buffer — one test per variant, built from the
    /// layout table rather than by mutating `encode` output, so a layout
    /// regression cannot silently retire an error path.
    mod every_error_variant_is_reachable {
        use super::*;

        /// Builds a frame byte-by-byte from the documented layout, with a
        /// correct checksum. Independent of `encode_with_session`.
        fn crafted() -> Vec<u8> {
            let mut buf = vec![0u8; FRAME_LEN_V2];
            buf[0] = 0x52; // magic "R"
            buf[1] = 0x54; // magic "T"
            buf[2] = WIRE_VERSION;
            buf[3] = ProtocolId::Beta as u8;
            buf[4..6].copy_from_slice(&4u16.to_be_bytes()); // k = 4
            buf[6] = 0; // kind = data
            buf[7] = FLAG_SESSION;
            buf[8..16].copy_from_slice(&7u64.to_be_bytes()); // symbol
            buf[16..24].copy_from_slice(&1u64.to_be_bytes()); // seq
            buf[24..32].copy_from_slice(&2u64.to_be_bytes()); // sent_at
            buf[32..36].copy_from_slice(&3u32.to_be_bytes()); // session
            reseal(&mut buf);
            buf
        }

        /// FNV-1a over bytes 0..36 into 36..40, written out rather than
        /// shared with the codec.
        fn reseal(buf: &mut [u8]) {
            let mut sum: u32 = 0x811c_9dc5;
            for &b in &buf[0..36] {
                sum ^= u32::from(b);
                sum = sum.wrapping_mul(0x0100_0193);
            }
            buf[36..40].copy_from_slice(&sum.to_be_bytes());
        }

        #[test]
        fn crafted_baseline_decodes() {
            let frame = decode_any(&crafted()).expect("baseline must be valid");
            assert_eq!(frame.packet, Packet::Data(7));
            assert_eq!(frame.k, 4);
            assert_eq!(frame.session, SessionId::new(3));
        }

        #[test]
        fn too_short() {
            let buf = crafted();
            assert_eq!(decode_any(&buf[..39]), Err(WireError::TooShort { got: 39 }));
            assert_eq!(decode_any(&[]), Err(WireError::TooShort { got: 0 }));
        }

        #[test]
        fn trailing_bytes() {
            let mut buf = crafted();
            buf.push(0xFF);
            assert_eq!(decode_any(&buf), Err(WireError::TrailingBytes { got: 41 }));
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
        fn bad_flags() {
            // An unknown extension bit, and no session flag at all: the
            // flags byte must be exactly FLAG_SESSION.
            for flags in [0x80, 0] {
                let mut buf = crafted();
                buf[7] = flags;
                reseal(&mut buf);
                assert_eq!(decode_any(&buf), Err(WireError::BadFlags { got: flags }));
            }
        }

        #[test]
        fn bad_checksum() {
            let mut buf = crafted();
            let want = u32::from_be_bytes([buf[36], buf[37], buf[38], buf[39]]);
            let got = want ^ 1;
            buf[36..40].copy_from_slice(&got.to_be_bytes());
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
