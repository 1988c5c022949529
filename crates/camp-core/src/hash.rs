//! The workspace's one fast hasher: a folded-multiply hash for the
//! policies' own key maps and the server's key fingerprint.
//!
//! Every policy keeps a `key -> entry` map that is probed on every hit,
//! insert and eviction; with the standard library's SipHash that probe is
//! the most expensive step of an LRU-grade policy (it shows up as whole
//! percents of server throughput). [`FoldHasher`] replaces it: one 64×64→128
//! multiply per 8 input bytes, the two halves of the product xored together
//! (the wyhash/foldhash construction), and one more such round in `finish`
//! so that every output bit — the low bits hashbrown indexes buckets with
//! and the top seven it stores as control bytes — depends on every input
//! bit, including for sequential or strided integer keys.
//!
//! It is not a keyed cryptographic hash. Maps over keys an outsider chooses
//! must not use it unseeded; the KVS server hashes wire keys exactly once,
//! through [`FoldHasher::with_seed`] with a per-process random seed, and
//! hands only that fingerprint to the structures built on this module.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier for the absorbing rounds (the FxHash constant: odd, with
/// well-spread bits).
const ROUND_K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// Multiplier for the finishing round (a splitmix64 constant).
const FINISH_K: u64 = 0xbf58_476d_1ce4_e5b9;

/// `a × b` as a 128-bit product, high half xored into the low half.
#[inline]
fn folded_mul(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// A folded-multiply [`Hasher`] (see the module docs).
///
/// # Examples
///
/// ```
/// use std::hash::Hasher;
/// use camp_core::hash::FoldHasher;
///
/// let hash = |seed: u64, key: &[u8]| {
///     let mut hasher = FoldHasher::with_seed(seed);
///     hasher.write(key);
///     hasher.finish()
/// };
/// assert_eq!(hash(7, b"user:1"), hash(7, b"user:1"));
/// assert_ne!(hash(7, b"user:1"), hash(7, b"user:2"));
/// assert_ne!(hash(7, b"user:1"), hash(8, b"user:1"));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldHasher(u64);

impl FoldHasher {
    /// A hasher whose output depends on `seed` as well as on the input.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        FoldHasher(seed)
    }
}

impl Hasher for FoldHasher {
    /// Absorbs `bytes` eight at a time. The last round takes the remaining
    /// 0–7 bytes with their count in the top byte, so keys that differ only
    /// in trailing zero bytes hash apart.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        let mut tail = (rest.len() as u64) << 56;
        for (i, &byte) in rest.iter().enumerate() {
            tail |= u64::from(byte) << (8 * i);
        }
        self.write_u64(tail);
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = folded_mul(self.0 ^ word, ROUND_K);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        folded_mul(self.0, FINISH_K)
    }
}

/// [`std::hash::BuildHasher`] for [`FoldHasher`] (unseeded: every map hashes alike).
pub type FoldBuildHasher = BuildHasherDefault<FoldHasher>;

/// A `HashMap` hashed by [`FoldHasher`] — what every policy's key map is.
pub type FoldHashMap<K, V> = HashMap<K, V, FoldBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<K: Hash + ?Sized>(key: &K) -> u64 {
        FoldBuildHasher::default().hash_one(key)
    }

    /// Chi-square-free spread check: `keys` thrown into 128 bins by `bits`
    /// must leave no bin empty and none with over three times its share.
    fn assert_spread(keys: impl Iterator<Item = u64>, bits: impl Fn(u64) -> usize, what: &str) {
        let mut bins = [0usize; 128];
        let mut n = 0;
        for key in keys {
            bins[bits(hash_of(&key))] += 1;
            n += 1;
        }
        let share = n / 128;
        for (bin, &count) in bins.iter().enumerate() {
            assert!(
                count > 0 && count < 3 * share,
                "{what}: bin {bin} holds {count} of {n}"
            );
        }
    }

    #[test]
    fn sequential_and_strided_keys_spread_over_both_ends() {
        // hashbrown takes the bucket from the low bits and the control
        // byte from the top seven.
        let low = |h: u64| (h & 127) as usize;
        let top = |h: u64| (h >> 57) as usize;
        assert_spread(0..16_384, low, "sequential/low");
        assert_spread(0..16_384, top, "sequential/top");
        assert_spread((0..16_384).map(|k| k << 32), low, "strided/low");
        assert_spread((0..16_384).map(|k| k << 32), top, "strided/top");
    }

    #[test]
    fn byte_keys_include_their_length() {
        let raw = |bytes: &[u8]| {
            let mut hasher = FoldHasher::default();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_ne!(raw(b"a"), raw(b"a\0"));
        assert_ne!(raw(b""), raw(b"\0"));
        assert_ne!(raw(b"12345678"), raw(b"12345678\0"));
        assert_eq!(raw(b"0123456789"), raw(b"0123456789"));
    }

    #[test]
    fn no_collisions_among_a_million_decimal_keys() {
        let mut seen = std::collections::HashSet::new();
        let mut key = Vec::new();
        for k in 0..1_000_000u64 {
            key.clear();
            key.extend_from_slice(k.to_string().as_bytes());
            let mut hasher = FoldHasher::with_seed(0x5eed);
            hasher.write(&key);
            assert!(seen.insert(hasher.finish()), "collision at {k}");
        }
    }

    #[test]
    fn maps_work_over_integer_and_byte_keys() {
        let mut ints: FoldHashMap<u64, u64> = FoldHashMap::default();
        let mut boxed: FoldHashMap<Box<[u8]>, u64> = FoldHashMap::default();
        for k in 0..1000u64 {
            ints.insert(k, k * 2);
            boxed.insert(k.to_string().into_bytes().into_boxed_slice(), k);
        }
        assert_eq!(ints.get(&499), Some(&998));
        assert_eq!(boxed.get(b"499".as_slice()), Some(&499));
        assert_eq!(boxed.len(), 1000);
    }
}
