//! The block codec: `b = ⌊log2 μ_k(δ)⌋` bits per burst of `δ` packets.
//!
//! [`BlockCodec`] fixes the packet alphabet size `k` and the burst size `δ`
//! (the paper's `δ1` for `A^β(k)`, `δ2` for `A^γ(k)`) and provides:
//!
//! * [`encode_block`](BlockCodec::encode_block) — exactly `b` bits → packet
//!   sequence of length `δ` (the composite `toseq_k(δ) ∘ tomulti_k(δ)` of
//!   paper §6.1),
//! * [`decode_block`](BlockCodec::decode_block) — a received **multiset** of
//!   `δ` packets → the `b` bits (order-insensitive by construction);
//!   [`decode_block_into`](BlockCodec::decode_block_into) appends them to a
//!   receiver's own vector instead,
//! * [`encode_stream`](BlockCodec::encode_stream) — a whole input sequence
//!   `X`, zero-padding the final block (the paper assumes
//!   `|X| ≡ 0 (mod b)`; we lift that),
//! * [`collect`](BlockCodec::collect) — accumulate `δ` packets into a
//!   multiset, as the receiver's `A := A ∪ {p}` loop does.

use core::fmt;
use rstp_combinatorics::{block_bits, CountError, Multiset, MultisetCodec, RankError};

use crate::bits::bits_to_u128;

/// Errors from block encoding/decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The `(k, δ)` pair cannot carry information (`μ_k(δ) < 2`) or
    /// overflowed counting.
    Parameters(CountError),
    /// A block of bits has the wrong length.
    WrongBlockLength {
        /// Expected number of bits (`b`).
        expected: u32,
        /// Offered number of bits.
        actual: usize,
    },
    /// A multiset offered for decoding has the wrong size or universe, or a
    /// packet is outside the alphabet.
    Rank(RankError),
    /// A decoded multiset's rank is `≥ 2^b`: it is not the image of any bit
    /// block, so the burst was corrupted (impossible over the paper's
    /// faultless channel; reachable with the fault-injecting channels).
    NotACodeword {
        /// The offending rank.
        rank: u128,
        /// The number of codewords, `2^b`.
        codewords: u128,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Parameters(e) => write!(f, "unusable (k, delta): {e}"),
            CodecError::WrongBlockLength { expected, actual } => {
                write!(f, "block must have {expected} bits, got {actual}")
            }
            CodecError::Rank(e) => write!(f, "{e}"),
            CodecError::NotACodeword { rank, codewords } => {
                write!(f, "multiset rank {rank} >= codeword count {codewords}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CountError> for CodecError {
    fn from(e: CountError) -> Self {
        CodecError::Parameters(e)
    }
}

impl From<RankError> for CodecError {
    fn from(e: RankError) -> Self {
        CodecError::Rank(e)
    }
}

/// One encoded block: the packet sequence for a burst plus the number of
/// *meaningful* bits it carries (less than `b` only for a padded final
/// block).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    packets: Vec<u64>,
    meaningful_bits: u32,
}

impl Block {
    /// The packet sequence to transmit, length `δ`.
    #[must_use]
    pub fn packets(&self) -> &[u64] {
        &self.packets
    }

    /// How many of the block's decoded bits are real input (the rest is
    /// padding on the final block).
    #[must_use]
    pub fn meaningful_bits(&self) -> u32 {
        self.meaningful_bits
    }
}

/// A block codec for alphabet size `k` and burst size `δ`.
///
/// See the [crate docs](crate) for the end-to-end pipeline and an example.
#[derive(Clone, Debug)]
pub struct BlockCodec {
    codec: MultisetCodec,
    bits: u32,
}

impl BlockCodec {
    /// Creates a codec packing `⌊log2 μ_k(δ)⌋` bits per burst of `δ`
    /// packets over the alphabet `{0, …, k-1}`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Parameters`] if `k < 2`, `δ = 0`, or counting
    /// overflows.
    pub fn new(k: u64, delta: u64) -> Result<Self, CodecError> {
        let bits = block_bits(k, delta)?;
        let codec = MultisetCodec::new(k, delta)?;
        Ok(BlockCodec { codec, bits })
    }

    /// The packet alphabet size `k`.
    #[must_use]
    pub fn alphabet(&self) -> u64 {
        self.codec.universe()
    }

    /// The burst size `δ` (packets per block).
    #[must_use]
    pub fn packets_per_block(&self) -> u64 {
        self.codec.size()
    }

    /// Bits carried per block, `b = ⌊log2 μ_k(δ)⌋`.
    #[must_use]
    pub fn bits_per_block(&self) -> u32 {
        self.bits
    }

    /// Number of blocks needed for `n` input bits: `⌈n / b⌉` (at least 1 so
    /// that an empty input still quiesces through one round; callers may
    /// special-case `n = 0` instead).
    #[must_use]
    pub fn blocks_for(&self, n: usize) -> usize {
        n.div_ceil(self.bits as usize)
    }

    /// Encodes exactly `b` bits into a burst (paper §6.1:
    /// `toseq_k(δ) ∘ tomulti_k(δ)`).
    ///
    /// # Errors
    ///
    /// [`CodecError::WrongBlockLength`] unless `bits.len() == b`.
    pub fn encode_block(&self, bits: &[bool]) -> Result<Vec<u64>, CodecError> {
        if bits.len() != self.bits as usize {
            return Err(CodecError::WrongBlockLength {
                expected: self.bits,
                actual: bits.len(),
            });
        }
        let rank = bits_to_u128(bits);
        let multiset = self.codec.unrank(rank)?;
        Ok(self.codec.to_sequence(&multiset)?)
    }

    /// Decodes a received multiset back into the block's `b` bits.
    ///
    /// Order-insensitivity is structural: the argument is already a
    /// multiset.
    ///
    /// # Errors
    ///
    /// [`CodecError::Rank`] for a wrong-sized multiset;
    /// [`CodecError::NotACodeword`] if the rank exceeds `2^b - 1`.
    pub fn decode_block(&self, multiset: &Multiset) -> Result<Vec<bool>, CodecError> {
        let mut bits = Vec::with_capacity(self.bits as usize);
        self.decode_block_into(multiset, &mut bits, self.bits as usize)?;
        Ok(bits)
    }

    /// Decodes a received multiset like [`decode_block`](Self::decode_block)
    /// and appends at most `limit` of the block's `b` bits to `out`, most
    /// significant first — a receiver that knows how many bits it still
    /// expects drops the final block's padding without a second vector.
    ///
    /// # Errors
    ///
    /// As [`decode_block`](Self::decode_block); `out` is then unchanged.
    pub fn decode_block_into(
        &self,
        multiset: &Multiset,
        out: &mut Vec<bool>,
        limit: usize,
    ) -> Result<(), CodecError> {
        let rank = self.codec.rank(multiset)?;
        let codewords = 1u128 << self.bits;
        if rank >= codewords {
            return Err(CodecError::NotACodeword { rank, codewords });
        }
        let msb_first = (0..self.bits).rev().map(|i| (rank >> i) & 1 == 1);
        out.extend(msb_first.take(limit));
        Ok(())
    }

    /// Splits an entire input sequence `X` into encoded blocks, zero-padding
    /// the last block. Each [`Block`] records how many of its bits are
    /// meaningful so the receiver can truncate.
    ///
    /// # Errors
    ///
    /// Propagates [`encode_block`](Self::encode_block) errors (none occur
    /// for well-formed codecs).
    pub fn encode_stream(&self, input: &[bool]) -> Result<Vec<Block>, CodecError> {
        let b = self.bits as usize;
        let mut blocks = Vec::with_capacity(input.len().div_ceil(b));
        for chunk in input.chunks(b) {
            let mut bits = chunk.to_vec();
            let meaningful = bits.len() as u32;
            bits.resize(b, false);
            blocks.push(Block {
                packets: self.encode_block(&bits)?,
                meaningful_bits: meaningful,
            });
        }
        Ok(blocks)
    }

    /// Decodes a sequence of block multisets produced from
    /// [`encode_stream`](Self::encode_stream), truncating to
    /// `total_bits` (the length of the original input).
    ///
    /// # Errors
    ///
    /// Propagates [`decode_block`](Self::decode_block) errors.
    pub fn decode_stream(
        &self,
        multisets: &[Multiset],
        total_bits: usize,
    ) -> Result<Vec<bool>, CodecError> {
        let mut out = Vec::with_capacity(total_bits);
        for m in multisets {
            out.extend(self.decode_block(m)?);
        }
        out.truncate(total_bits);
        Ok(out)
    }

    /// Accumulates a burst of exactly `δ` packets into a multiset — the
    /// receiver's `A := A ∪ {p}` loop of Figures 3 and 4, in one call.
    ///
    /// # Errors
    ///
    /// [`CodecError::Rank`] if the count differs from `δ` or a packet is
    /// outside the alphabet.
    pub fn collect(&self, packets: &[u64]) -> Result<Multiset, CodecError> {
        Ok(self.codec.from_sequence(packets)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::u128_to_bits;
    use proptest::prelude::*;

    #[test]
    fn parameters_of_paper_examples() {
        // k=2, delta=7: mu=8, 3 bits per 7 packets.
        let c = BlockCodec::new(2, 7).unwrap();
        assert_eq!(c.alphabet(), 2);
        assert_eq!(c.packets_per_block(), 7);
        assert_eq!(c.bits_per_block(), 3);
        // k=16, delta=8: mu_16(8) = C(23,15) = 490314 -> 18 bits.
        let c = BlockCodec::new(16, 8).unwrap();
        assert_eq!(c.bits_per_block(), 18);
    }

    #[test]
    fn degenerate_parameters_rejected() {
        assert!(matches!(
            BlockCodec::new(1, 5),
            Err(CodecError::Parameters(_))
        ));
        assert!(matches!(
            BlockCodec::new(2, 0),
            Err(CodecError::Parameters(_))
        ));
        assert!(matches!(
            BlockCodec::new(0, 5),
            Err(CodecError::Parameters(_))
        ));
    }

    #[test]
    fn encode_block_roundtrip_exhaustive_small() {
        let c = BlockCodec::new(3, 4).unwrap(); // mu_3(4)=15 -> 3 bits
        assert_eq!(c.bits_per_block(), 3);
        for v in 0..8u128 {
            let bits = u128_to_bits(v, 3);
            let packets = c.encode_block(&bits).unwrap();
            assert_eq!(packets.len(), 4);
            assert!(packets.iter().all(|&p| p < 3));
            let multiset = c.collect(&packets).unwrap();
            assert_eq!(c.decode_block(&multiset).unwrap(), bits);
            // Appending keeps the caller's prefix and stops at `limit`.
            let prefix = [true, false, false, true, true];
            for limit in [0, 2, 3, 4] {
                let mut out = prefix.to_vec();
                c.decode_block_into(&multiset, &mut out, limit).unwrap();
                assert_eq!(out[..prefix.len()], prefix, "prefix kept, limit {limit}");
                assert_eq!(
                    out[prefix.len()..],
                    bits[..limit.min(3)],
                    "block bits MSB first, limit {limit}"
                );
            }
        }
    }

    #[test]
    fn decode_survives_arbitrary_reordering() {
        let c = BlockCodec::new(4, 5).unwrap();
        let bits = u128_to_bits(0b10110, 5);
        let bits = &bits[bits.len() - c.bits_per_block() as usize..];
        let mut packets = c.encode_block(bits).unwrap();
        packets.reverse();
        let multiset = c.collect(&packets).unwrap();
        assert_eq!(c.decode_block(&multiset).unwrap(), bits);
    }

    #[test]
    fn wrong_block_length_rejected() {
        let c = BlockCodec::new(2, 7).unwrap();
        assert!(matches!(
            c.encode_block(&[true]),
            Err(CodecError::WrongBlockLength {
                expected: 3,
                actual: 1
            })
        ));
    }

    #[test]
    fn non_codeword_detected() {
        // mu_2(6) = 7, b = 2, codewords = 4; multisets of rank 4..6 are not
        // codewords. Rank 6 is {1,1,1,1,1,1}.
        let c = BlockCodec::new(2, 6).unwrap();
        assert_eq!(c.bits_per_block(), 2);
        let bad = Multiset::from_symbols(2, &[1, 1, 1, 1, 1, 1]);
        assert!(matches!(
            c.decode_block(&bad),
            Err(CodecError::NotACodeword {
                rank: 6,
                codewords: 4
            })
        ));
        let mut out = vec![true];
        assert!(c.decode_block_into(&bad, &mut out, 2).is_err());
        assert_eq!(out, [true], "a refused block appends nothing");
    }

    #[test]
    fn stream_pads_and_truncates() {
        let c = BlockCodec::new(2, 7).unwrap(); // 3 bits/block
        let input = vec![true, false, true, true]; // 4 bits -> 2 blocks
        let blocks = c.encode_stream(&input).unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].meaningful_bits(), 3);
        assert_eq!(blocks[1].meaningful_bits(), 1);
        let multisets: Vec<Multiset> = blocks
            .iter()
            .map(|b| c.collect(b.packets()).unwrap())
            .collect();
        assert_eq!(c.decode_stream(&multisets, input.len()).unwrap(), input);
    }

    #[test]
    fn empty_stream() {
        let c = BlockCodec::new(2, 7).unwrap();
        assert!(c.encode_stream(&[]).unwrap().is_empty());
        assert_eq!(c.decode_stream(&[], 0).unwrap(), Vec::<bool>::new());
        assert_eq!(c.blocks_for(0), 0);
        assert_eq!(c.blocks_for(1), 1);
        assert_eq!(c.blocks_for(3), 1);
        assert_eq!(c.blocks_for(4), 2);
    }

    #[test]
    fn collect_validates() {
        let c = BlockCodec::new(2, 3).unwrap();
        assert!(matches!(c.collect(&[0, 1]), Err(CodecError::Rank(_))));
        assert!(matches!(c.collect(&[0, 1, 7]), Err(CodecError::Rank(_))));
    }

    #[test]
    fn error_display_nonempty() {
        let c = BlockCodec::new(2, 6).unwrap();
        let bad = Multiset::from_symbols(2, &[1; 6]);
        let e = c.decode_block(&bad).unwrap_err();
        assert!(e.to_string().contains("codeword"));
    }

    proptest! {
        #[test]
        fn prop_stream_roundtrip(
            k in 2u64..8,
            delta in 2u64..12,
            input in proptest::collection::vec(any::<bool>(), 0..200),
        ) {
            let c = BlockCodec::new(k, delta).unwrap();
            let blocks = c.encode_stream(&input).unwrap();
            prop_assert_eq!(blocks.len(), c.blocks_for(input.len()));
            let multisets: Vec<Multiset> = blocks
                .iter()
                .map(|b| c.collect(b.packets()).unwrap())
                .collect();
            prop_assert_eq!(c.decode_stream(&multisets, input.len()).unwrap(), input);
        }

        #[test]
        fn prop_every_codeword_is_sorted_burst(
            k in 2u64..6,
            delta in 2u64..8,
            v in any::<u64>(),
        ) {
            let c = BlockCodec::new(k, delta).unwrap();
            let value = u128::from(v) % (1u128 << c.bits_per_block());
            let bits = u128_to_bits(value, c.bits_per_block() as usize);
            let packets = c.encode_block(&bits).unwrap();
            prop_assert_eq!(packets.len() as u64, delta);
            prop_assert!(packets.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
