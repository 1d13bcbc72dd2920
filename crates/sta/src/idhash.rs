//! A one-multiply hasher for dense integer ids.
//!
//! The cone sweep looks up [`crate::view::GraphView`]'s overlay sets on
//! every liveness test and every fan-in/fan-out step, and the forward
//! kernel looks up the flip-flop Q → CK map at every register output.
//! The keys there are node and arc ids: small integers from a bounded
//! range inside one design, assigned by this crate, never strings a client
//! chooses. The standard library's SipHash protects against keys crafted
//! to collide, which ids cannot be, and costs more than the lookup itself.
//! [`IdHasher`] spends one multiply by a 64-bit odd constant (Fibonacci
//! hashing): consecutive ids spread over both the low bucket-index bits and
//! the high control bits the table probes with.
//!
//! Nothing that uses these maps depends on their iteration order: overlay
//! edits are re-sorted where order matters (`GraphView::edited_nodes`) and
//! cone-sweep seeding goes through bitmaps.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, rounded to odd.
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Hasher for integer ids: the key times [`MIX`]. Only for ids from a
/// bounded range the crate assigns itself (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Integer keys take the typed paths below; this keeps any other
        // key total (byte-wise fold, same mix).
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(MIX);
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.write_u64(u64::from(id));
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = (self.0 ^ id).wrapping_mul(MIX);
    }

    fn write_usize(&mut self, id: usize) {
        self.write_u64(id as u64);
    }
}

/// Hash state for [`IdMap`] and [`IdSet`].
pub(crate) type BuildIdHasher = BuildHasherDefault<IdHasher>;

/// A map keyed by node or arc ids.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildIdHasher>;

/// A set of node or arc ids.
pub(crate) type IdSet = HashSet<u32, BuildIdHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildIdHasher::default().hash_one(v)
    }

    #[test]
    fn ids_of_every_width_hash_alike_and_dense_ids_spread() {
        assert_eq!(hash_of(7u32), hash_of(7usize));
        assert_eq!(hash_of(7u32), hash_of(7u64));
        // Consecutive ids differ in the top 7 bits and the low bits.
        let top: HashSet<u64> = (0u32..64).map(|i| hash_of(i) >> 57).collect();
        assert!(top.len() > 32, "top bits collapse: {} distinct of 64", top.len());
        let low: HashSet<u64> = (0u32..64).map(|i| hash_of(i) & 63).collect();
        assert!(low.len() > 32, "low bits collapse: {} distinct of 64", low.len());
    }

    #[test]
    fn maps_and_sets_behave_like_std() {
        let mut set = IdSet::default();
        let mut map: IdMap<u32, Vec<u32>> = IdMap::default();
        for i in 0..1000u32 {
            set.insert(i * 3);
            map.entry(i % 17).or_default().push(i);
        }
        assert!((0..1000).all(|i| set.contains(&(i * 3))));
        assert!(!set.contains(&1) && !set.contains(&2999));
        assert_eq!(map.len(), 17);
        assert_eq!(map[&0].len(), 59);
    }
}
