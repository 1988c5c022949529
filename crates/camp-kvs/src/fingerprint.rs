//! Key fingerprints: the one hash a command pays per key.
//!
//! A wire key is hashed exactly once, here, into a seeded 64-bit
//! fingerprint; the shard picker, the store index, the eviction policy,
//! the shadow profiler and the IQ miss registry are all keyed by that
//! `u64` and never see the key bytes again (the bytes live once, in the
//! slab item, where a lookup compares them). The seed is random per
//! process, so which keys share a bucket — or, once in ~2⁶⁴ pairs, a whole
//! fingerprint — cannot be predicted from outside.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};

use camp_core::hash::FoldHasher;

/// Computes fingerprints under one seed. `Copy`: a sharded store hands
/// every shard the same one, so a fingerprint means the same thing at
/// every level.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fingerprinter {
    seed: u64,
    /// Test seam: the fingerprint bits kept (all of them, unless built by
    /// [`Fingerprinter::truncated`]).
    #[cfg(test)]
    mask: u64,
}

impl Fingerprinter {
    /// A fingerprinter with a fresh random seed.
    pub(crate) fn random() -> Fingerprinter {
        Fingerprinter {
            seed: RandomState::new().hash_one(0u64),
            #[cfg(test)]
            mask: u64::MAX,
        }
    }

    /// Test seam: keeps only the low `bits` bits, under a fixed seed, so
    /// collisions are frequent and the same on every instance.
    #[cfg(test)]
    pub(crate) fn truncated(bits: u32) -> Fingerprinter {
        assert!(
            bits < 64,
            "a truncated fingerprint keeps fewer than 64 bits"
        );
        Fingerprinter {
            seed: 0x5eed_c0de,
            mask: (1u64 << bits) - 1,
        }
    }

    /// The fingerprint of `key`.
    #[inline]
    pub(crate) fn fingerprint(&self, key: &[u8]) -> u64 {
        let mut hasher = FoldHasher::with_seed(self.seed);
        hasher.write(key);
        let fp = hasher.finish();
        #[cfg(test)]
        let fp = fp & self.mask;
        fp
    }

    /// `key` paired with its fingerprint, for the `*_hashed` entry points.
    #[inline]
    pub(crate) fn hash<'a>(&self, key: &'a [u8]) -> Hashed<'a> {
        Hashed {
            fp: self.fingerprint(key),
            key,
        }
    }
}

/// A wire key and its fingerprint, computed once per command by
/// [`Fingerprinter::hash`] and passed down instead of the bare key.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hashed<'a> {
    pub(crate) fp: u64,
    pub(crate) key: &'a [u8],
}

/// Hasher for maps keyed by fingerprints: the key already is a hash.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PassThroughHasher(u64);

impl Hasher for PassThroughHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys are ever hashed; fold other input rather than
        // panic so the type stays a lawful `Hasher`.
        for &byte in bytes {
            self.0 = (self.0 << 8) | u64::from(byte);
        }
    }

    #[inline]
    fn write_u64(&mut self, fp: u64) {
        self.0 = fp;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by fingerprint (fixed-size entries, no rehash of the key).
pub(crate) type FingerprintMap<V> = HashMap<u64, V, BuildHasherDefault<PassThroughHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_stable_per_instance_and_differ_across_seeds() {
        let a = Fingerprinter::random();
        assert_eq!(a.fingerprint(b"k"), a.fingerprint(b"k"));
        assert_ne!(a.fingerprint(b"k"), a.fingerprint(b"l"));
        let b = Fingerprinter::random();
        assert_ne!(a.fingerprint(b"k"), b.fingerprint(b"k"), "seeds differ");
        let h = a.hash(b"key");
        assert_eq!((h.fp, h.key), (a.fingerprint(b"key"), &b"key"[..]));
    }

    #[test]
    fn truncated_seam_collides_deterministically() {
        let t = Fingerprinter::truncated(4);
        let fps: std::collections::HashSet<u64> = (0..200u32)
            .map(|i| t.fingerprint(format!("key-{i}").as_bytes()))
            .collect();
        assert!(fps.iter().all(|&fp| fp < 16));
        assert_eq!(fps.len(), 16, "200 keys cover all 16 values");
        assert_eq!(
            t.fingerprint(b"x"),
            Fingerprinter::truncated(4).fingerprint(b"x")
        );
    }

    #[test]
    fn fingerprint_map_round_trips() {
        let mut map: FingerprintMap<u32> = FingerprintMap::default();
        for fp in [0u64, 1, u64::MAX, 1 << 63, 15] {
            map.insert(fp, fp as u32);
        }
        assert_eq!(map.get(&(1 << 63)), Some(&0));
        assert_eq!(map.remove(&15), Some(15));
        assert_eq!(map.len(), 4);
    }
}
