//! 64-bit mixing functions and the seeded [`KeyHasher`].
//!
//! The sampling algorithms only need a hash whose output "looks random"
//! (Section 4, "Computing coordinated sketches"); cryptographic strength is
//! not required. We use the SplitMix64 finalizer for integer mixing and a
//! wyhash-style multiply-fold for byte strings, both of which have excellent
//! avalanche properties and are trivially portable.

/// SplitMix64 finalizer: a bijective mixing of a 64-bit word.
///
/// Every output bit depends on every input bit; this is the workhorse used to
/// turn structured key material (IP addresses, ticker ids, sequential movie
/// ids, ...) into uniformly distributed 64-bit words.
#[inline]
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Folded 128-bit multiply used by the byte-string hash (wyhash-style `mum`).
#[inline]
fn mum(a: u64, b: u64) -> u64 {
    let r = u128::from(a) * u128::from(b);
    (r as u64) ^ ((r >> 64) as u64)
}

/// A seeded, deterministic hash of keys to 64-bit words.
///
/// Two `KeyHasher`s constructed with the same seed produce identical hashes,
/// which is exactly the property the dispersed-weights model relies on: each
/// weight assignment is processed by an independent pass (possibly on another
/// machine) that only shares the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyHasher {
    seed: u64,
}

impl KeyHasher {
    /// Creates a hasher with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        // Pre-mix so that consecutive small seeds yield unrelated hash
        // families.
        Self { seed: mix64(seed ^ 0xA076_1D64_78BD_642F) }
    }

    /// The (already mixed) seed of this hasher.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Hashes a 64-bit key.
    #[inline]
    #[must_use]
    pub fn hash_u64(&self, key: u64) -> u64 {
        mix64(key ^ self.seed)
    }

    /// Hashes a pair of 64-bit words (e.g. a key together with an assignment
    /// index, or a 128-bit key split in two).
    #[inline]
    #[must_use]
    pub fn hash_pair(&self, a: u64, b: u64) -> u64 {
        self.hash_pair_from_base(self.pair_base(a), b)
    }

    /// Pre-mixes the first operand of [`KeyHasher::hash_pair`] so that many
    /// second operands can be hashed against it without redoing the per-key
    /// work — the "hash the key once" step of the multi-assignment ingestion
    /// hot path.
    #[inline]
    #[must_use]
    pub(crate) fn pair_base(&self, a: u64) -> u64 {
        a ^ self.seed
    }

    /// Completes a pair hash from a base prepared by [`KeyHasher::pair_base`].
    ///
    /// Bit-identical to `hash_pair(a, b)` for `base = pair_base(a)`; this
    /// invariant is what lets the batched rank generators fan one key hash
    /// out across all weight assignments.
    #[inline]
    #[must_use]
    pub(crate) fn hash_pair_from_base(&self, base: u64, b: u64) -> u64 {
        mix64(mum(base, b ^ 0x9E37_79B9_7F4A_7C15) ^ self.seed)
    }

    /// Pre-mixes a whole slice of first operands for [`KeyHasher::hash_pair`]
    /// — the columnar form of [`KeyHasher::pair_base`], used by the
    /// batched multi-assignment rank fan-out to hash every key of a column
    /// once before deriving all per-assignment values.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    #[inline]
    pub(crate) fn pair_base_batch(&self, keys: &[u64], out: &mut [u64]) {
        assert_eq!(keys.len(), out.len(), "output lane length mismatch");
        for (slot, &key) in out.iter_mut().zip(keys) {
            *slot = key ^ self.seed;
        }
    }

    /// Hashes an arbitrary byte string.
    #[must_use]
    pub fn hash_bytes(&self, bytes: &[u8]) -> u64 {
        let mut acc = self.seed ^ (bytes.len() as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            acc = mum(acc ^ word, 0x9E37_79B9_7F4A_7C15 ^ word.rotate_left(32));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            let word = u64::from_le_bytes(buf);
            acc = mum(acc ^ word, 0xE703_7ED1_A0B4_28DB ^ word);
        }
        mix64(acc)
    }

    /// Derives a new, independent-looking hasher, e.g. one per weight
    /// assignment when building *independent* (non-coordinated) sketches.
    #[must_use]
    pub fn derive(&self, stream: u64) -> Self {
        Self { seed: mix64(self.seed ^ mix64(stream ^ 0x8BB8_4B93_962E_ACC9)) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_nontrivial() {
        assert_eq!(mix64(0), mix64(0));
        assert_ne!(mix64(0), 0);
        assert_ne!(mix64(1), mix64(2));
    }

    #[test]
    fn mix64_is_bijective_on_sample() {
        // A bijection cannot collide; check a decent sample of inputs.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)), "collision at {i}");
        }
    }

    #[test]
    fn hasher_same_seed_same_hash() {
        let a = KeyHasher::new(7);
        let b = KeyHasher::new(7);
        for k in [0u64, 1, 42, u64::MAX] {
            assert_eq!(a.hash_u64(k), b.hash_u64(k));
        }
    }

    #[test]
    fn hasher_different_seed_different_hash() {
        let a = KeyHasher::new(7);
        let b = KeyHasher::new(8);
        let same = (0..1000u64).filter(|&k| a.hash_u64(k) == b.hash_u64(k)).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn hash_bytes_matches_length_and_content() {
        let h = KeyHasher::new(3);
        assert_eq!(h.hash_bytes(b"abc"), h.hash_bytes(b"abc"));
        assert_ne!(h.hash_bytes(b"abc"), h.hash_bytes(b"abd"));
        assert_ne!(h.hash_bytes(b"abc"), h.hash_bytes(b"abcd"));
        assert_ne!(h.hash_bytes(b""), h.hash_bytes(b"\0"));
    }

    #[test]
    fn hash_bytes_handles_all_remainder_lengths() {
        let h = KeyHasher::new(11);
        let data: Vec<u8> = (0..=32).collect();
        let mut outputs = std::collections::HashSet::new();
        for len in 0..=32 {
            assert!(outputs.insert(h.hash_bytes(&data[..len])));
        }
    }

    #[test]
    fn derive_produces_distinct_families() {
        let base = KeyHasher::new(5);
        let a = base.derive(0);
        let b = base.derive(1);
        assert_ne!(a.seed(), b.seed());
        let same = (0..1000u64).filter(|&k| a.hash_u64(k) == b.hash_u64(k)).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn hash_pair_differs_from_single() {
        let h = KeyHasher::new(9);
        assert_ne!(h.hash_pair(1, 2), h.hash_pair(2, 1));
        assert_ne!(h.hash_pair(1, 0), h.hash_u64(1));
    }

    #[test]
    fn batch_pair_bases_match_scalar_calls() {
        let h = KeyHasher::new(77);
        let keys: Vec<u64> = (0..257u64).map(|k| k.wrapping_mul(0x9E37_79B9)).collect();
        let mut bases = vec![0u64; keys.len()];
        h.pair_base_batch(&keys, &mut bases);
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(bases[i], h.pair_base(key));
            assert_eq!(h.hash_pair_from_base(bases[i], 9), h.hash_pair(key, 9));
        }
    }

    #[test]
    fn hash_pair_from_base_is_bit_identical() {
        let h = KeyHasher::new(31);
        for a in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
            let base = h.pair_base(a);
            for b in 0..64u64 {
                assert_eq!(h.hash_pair_from_base(base, b), h.hash_pair(a, b));
            }
        }
    }

    #[test]
    fn avalanche_rough_check() {
        // Flipping one input bit should flip roughly half of the output bits.
        let h = KeyHasher::new(1234);
        let mut total = 0u32;
        let trials = 256u64;
        for i in 0..trials {
            let a = h.hash_u64(i);
            let b = h.hash_u64(i ^ 1);
            total += (a ^ b).count_ones();
        }
        let avg = f64::from(total) / trials as f64;
        assert!((20.0..44.0).contains(&avg), "poor avalanche: {avg}");
    }
}
