//! The reference job that rescales set-up time to a fixed host speed.
//!
//! On a shared host, wall time for the same set-up drifts by up to 40%
//! over minutes. Other tenants' load slows throughput-bound code, such
//! as the random draws and the `u128` multiset arithmetic set-up spends
//! its time in, far more than it slows a plain dependency-chain loop.
//! A loop of that kind stayed within 3–6% while set-up moved by 30%.
//!
//! The reference is a frozen copy of set-up's arithmetic, run at the
//! workload's shape on an eighth of its sessions. It draws input bits
//! with xoshiro256++, the generator behind `random_input`. For β and γ
//! it then unranks every block into a multiset with gcd-reduced
//! binomials, as `BlockCodec::encode_stream` does. It is timed right
//! before each set-up repetition. Set-up divided by the reference moved
//! about half as much as set-up alone. The copy lives in this crate, so
//! no change to the code under test moves it.

use crate::workload::{Workload, K};
use rstp_codec::BlockCodec;
use rstp_sim::ProtocolKind;
use std::hint::black_box;

/// The work one reference run does.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    sessions: usize,
    n: usize,
    /// Burst size and bits per block of the block codec, if set-up
    /// encodes blocks.
    blocks: Option<(u64, usize)>,
}

impl Shape {
    /// The reference shape of workload `w`.
    ///
    /// # Errors
    ///
    /// A burst size the block codec rejects.
    pub fn of(w: &Workload) -> Result<Shape, String> {
        let params = crate::workload::params();
        let burst = match w.kind {
            ProtocolKind::Beta { .. } => Some(params.delta1()),
            ProtocolKind::Gamma { .. } => Some(params.delta2()),
            _ => None,
        };
        let blocks = burst
            .map(|b| {
                let codec = BlockCodec::new(K, b).map_err(|e| e.to_string())?;
                Ok::<_, String>((b, codec.bits_per_block() as usize))
            })
            .transpose()?;
        Ok(Shape {
            sessions: w.sessions.div_ceil(8),
            n: w.n,
            blocks,
        })
    }

    /// Runs the reference once.
    pub fn run(&self) {
        let mut check = 0u64;
        for session in 0..self.sessions {
            let mut rng = Xoshiro::new(session as u64 ^ 0x494E_5054);
            let bits: Vec<bool> = (0..self.n).map(|_| rng.bit()).collect();
            check = check.wrapping_add(bits.iter().filter(|&&b| b).count() as u64);
            let Some((burst, width)) = self.blocks else {
                continue;
            };
            for block in bits.chunks(width) {
                let rank = block.iter().fold(0u128, |r, &b| (r << 1) | u128::from(b))
                    << (width - block.len());
                let symbols = unrank(K, burst, rank);
                check = check.wrapping_add(symbols.iter().sum::<u64>());
            }
        }
        black_box(check);
    }
}

/// xoshiro256++, seeded through splitmix64.
struct Xoshiro([u64; 4]);

impl Xoshiro {
    fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro([next(), next(), next(), next()])
    }

    fn next(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// A fair bit, drawn as a uniform `f64` below one half.
    fn bit(&mut self) -> bool {
        ((self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < 0.5
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// `C(n, r)`, reducing by gcds at every step to keep intermediates small.
fn binomial(n: u64, r: u64) -> u128 {
    if r > n {
        return 0;
    }
    let r = r.min(n - r);
    let mut acc: u128 = 1;
    for i in 1..=r {
        let num = u128::from(n - r + i);
        let den = u128::from(i);
        let g = gcd(acc, den);
        let g2 = gcd(num, den / g);
        acc = (acc / g) * (num / g2);
    }
    acc
}

/// The number of size-`n` multisets over `k` symbols.
fn mu(k: u64, n: u64) -> u128 {
    binomial(n + k - 1, k - 1)
}

/// The sorted symbols of the size-`n` multiset over `k` symbols of
/// lexicographic rank `rank` (ranks past the last clamp to it).
fn unrank(k: u64, n: u64, mut rank: u128) -> Vec<u64> {
    let mut symbols = Vec::with_capacity(n as usize);
    let mut lo = 0;
    for i in 0..n {
        let remaining = n - 1 - i;
        let mut s = lo;
        while s + 1 < k {
            let block = mu(k - s, remaining);
            if rank < block {
                break;
            }
            rank -= block;
            s += 1;
        }
        symbols.push(s);
        lo = s;
    }
    symbols
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstp_combinatorics::MultisetCodec;
    use rstp_sim::harness::random_input;

    #[test]
    fn draws_the_same_bits_as_random_input() {
        for seed in [0, 1, 77] {
            let mut rng = Xoshiro::new(seed ^ 0x494E_5054);
            let bits: Vec<bool> = (0..300).map(|_| rng.bit()).collect();
            assert_eq!(bits, random_input(300, seed));
        }
    }

    #[test]
    fn unranks_like_the_multiset_codec() {
        for burst in [4, 8] {
            let codec = MultisetCodec::new(K, burst).unwrap();
            for rank in 0..codec.total() {
                let want = codec.unrank(rank).unwrap().to_sorted_vec();
                assert_eq!(
                    unrank(K, burst, rank),
                    want,
                    "rank {rank} of mu(4, {burst})"
                );
            }
        }
    }
}
