//! Property tests for the wire codec: encode→decode identity over the
//! whole input space, and strict non-panicking rejection of corrupted or
//! truncated frames.

use proptest::prelude::*;
use rstp_core::{Packet, SessionId};
use rstp_net::{decode_any, peek_session, Frame, ProtocolId, WireCodec, WireError, FRAME_LEN_V2};

fn protocol_strategy() -> impl Strategy<Value = ProtocolId> {
    prop_oneof![
        Just(ProtocolId::Alpha),
        Just(ProtocolId::Beta),
        Just(ProtocolId::Gamma),
        Just(ProtocolId::AltBit),
        Just(ProtocolId::Framed),
        Just(ProtocolId::Stenning),
        Just(ProtocolId::Pipelined),
        Just(ProtocolId::StabStenning),
        Just(ProtocolId::StabBeta),
    ]
}

fn packet_strategy() -> impl Strategy<Value = Packet> {
    prop_oneof![
        any::<u64>().prop_map(Packet::Data),
        any::<u64>().prop_map(Packet::Ack),
    ]
}

proptest! {
    #[test]
    fn v2_encode_decode_is_identity(
        protocol in protocol_strategy(),
        k in 0u64..=u16::MAX as u64,
        packet in packet_strategy(),
        seq in any::<u64>(),
        sent_at in any::<u64>(),
        session in any::<u32>(),
    ) {
        let codec = WireCodec::new(protocol, k).expect("k is in range");
        let buf = codec.encode_with_session(packet, seq, sent_at, SessionId::new(session));
        let frame = codec.decode(&buf).expect("own v2 encoding must decode");
        prop_assert_eq!(frame, Frame {
            protocol,
            k: k as u16,
            packet,
            seq,
            sent_at_micros: sent_at,
            session: SessionId::new(session),
        });
        // The cheap demux path agrees with the full decode.
        prop_assert_eq!(peek_session(&buf), Some(SessionId::new(session)));
    }

    #[test]
    fn v2_any_single_byte_corruption_is_rejected_or_misroutes_only(
        packet in packet_strategy(),
        seq in any::<u64>(),
        sent_at in any::<u64>(),
        session in any::<u32>(),
        offset in 0usize..FRAME_LEN_V2,
        xor in 1u8..=255u8,
    ) {
        let codec = WireCodec::new(ProtocolId::Beta, 4).expect("k is in range");
        let mut buf = codec.encode_with_session(packet, seq, sent_at, SessionId::new(session));
        buf[offset] ^= xor;
        // Full decode must reject every single-byte corruption (the
        // checksum covers the session extension too) and never panic.
        prop_assert!(codec.decode(&buf).is_err());
    }

    #[test]
    fn v2_truncated_frames_error_and_never_panic(
        packet in packet_strategy(),
        session in any::<u32>(),
        len in 0usize..FRAME_LEN_V2,
    ) {
        let codec = WireCodec::new(ProtocolId::Gamma, 2).expect("k is in range");
        let buf = codec.encode_with_session(packet, 0, 0, SessionId::new(session));
        prop_assert_eq!(
            codec.decode(&buf[..len]),
            Err(WireError::TooShort { got: len })
        );
    }

    #[test]
    fn v2_extended_frames_error_and_never_panic(
        packet in packet_strategy(),
        session in any::<u32>(),
        extra in 1usize..64,
    ) {
        let codec = WireCodec::new(ProtocolId::Alpha, 0).expect("k is in range");
        let mut long = codec.encode_with_session(packet, 0, 0, SessionId::new(session)).to_vec();
        long.extend(std::iter::repeat_n(0xAA, extra));
        prop_assert_eq!(
            codec.decode(&long),
            Err(WireError::TrailingBytes { got: FRAME_LEN_V2 + extra })
        );
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..80),
    ) {
        // decode_any exercises the structural checks without a protocol
        // binding; random bytes overwhelmingly fail, and a lucky valid
        // frame is fine — the property is only absence of panics.
        let _ = decode_any(&bytes);
        let codec = WireCodec::new(ProtocolId::Beta, 4).expect("k is in range");
        let _ = codec.decode(&bytes);
    }

    #[test]
    fn cross_protocol_frames_are_rejected(
        packet in packet_strategy(),
        sender in protocol_strategy(),
        receiver in protocol_strategy(),
    ) {
        prop_assume!(sender != receiver);
        let enc = WireCodec::new(sender, 1).expect("k is in range");
        let dec = WireCodec::new(receiver, 1).expect("k is in range");
        let buf = enc.encode_with_session(packet, 0, 0, SessionId::new(1));
        prop_assert_eq!(
            dec.decode(&buf),
            Err(WireError::ProtocolMismatch { got: sender, want: receiver })
        );
    }
}
