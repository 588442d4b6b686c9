//! The hasher of the maps keyed by admitted session ids.
//!
//! Every inbound frame is looked up by its session id twice (the ingress
//! pass's owner table, then the shard's session index), and every reply
//! once more in the hub's egress cache. std's default SipHash guards a
//! map against keys an attacker picks, and costs several times a cheap
//! mix per lookup. These maps hold only ids the supervisor admitted, so
//! [`IdMap`] hashes them with splitmix64's step instead: a full 64-bit
//! avalanche, so the low bits that pick a bucket and the top 7 bits that
//! tag it both spread like random placement, whatever pattern the ids
//! follow. A bare multiply would not do: with one, ids of the form
//! `i << 16` all share their low bits and collide in one bucket.
//!
//! The UDP transport's address map keeps std's hasher: its keys come from
//! unauthenticated datagrams, and a forged id is a key an attacker picks.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by admitted session ids.
pub(crate) type IdMap<V> = HashMap<u32, V, BuildHasherDefault<IdHasher>>;

/// Hashes a session id with splitmix64's step.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write_u32(&mut self, id: u32) {
        self.0 = mix(self.0 ^ u64::from(id));
    }

    /// Only `u32` keys reach this hasher; bytes fold in one at a time so
    /// it stays a correct `Hasher` for any key.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix(self.0 ^ u64::from(b));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The splitmix64 step: every input bit reaches every output bit.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::hash::BuildHasher;

    #[test]
    fn id_hashes_spread_like_random_placement() {
        // A table of 1,024 ids picks buckets by the hash's low 10 bits
        // and tags slots with its top 7. Placing 1,024 keys at random
        // fills about 647 of 1,024 buckets.
        let sets: [(&str, Vec<u32>); 4] = [
            ("1..=1024", (1..=1024).collect()),
            ("even ids", (1..=1024).map(|i| 2 * i).collect()),
            ("i << 16", (0..1024).map(|i| i << 16).collect()),
            ("i << 22", (0..1024).map(|i| i << 22).collect()),
        ];
        let build = BuildHasherDefault::<IdHasher>::default();
        for (name, ids) in sets {
            let hashes: Vec<u64> = ids.iter().map(|id| build.hash_one(id)).collect();
            let low: BTreeSet<u64> = hashes.iter().map(|h| h & 0x3FF).collect();
            let top: BTreeSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            assert!(
                low.len() >= 600,
                "{name}: low 10 bits take {} values",
                low.len()
            );
            assert_eq!(top.len(), 128, "{name}: top 7 bits");
        }
    }

    #[test]
    fn an_id_map_finds_what_it_holds() {
        let mut map: IdMap<u32> = IdMap::default();
        for id in (0..4096).map(|i| i << 20) {
            map.insert(id, id ^ 1);
        }
        assert_eq!(map.len(), 4096);
        assert!((0..4096).all(|i| map.get(&(i << 20)) == Some(&((i << 20) ^ 1))));
        assert_eq!(map.get(&1), None);
    }
}
