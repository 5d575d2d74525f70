//! The shared lightweight multiplicative hash.
//!
//! All five schemes use the same hash function for comparability (paper
//! §4.2). Extendible hashing consumes the **most significant bits** for the
//! directory slot, so a multiplicative (Fibonacci) hash — whose high bits
//! are the well-mixed ones — is the natural fit. In-bucket open addressing
//! uses a second multiplicative constant (Shortcut-EH "has to compute two
//! hashes: directory slot and bucket slot").

/// 2^64 / φ, the classic Fibonacci-hashing constant.
pub const MULT_CONST: u64 = 0x9E37_79B9_7F4A_7C15;

/// Second constant for the in-bucket slot hash (from MurmurHash2's mixer).
pub const BUCKET_CONST: u64 = 0xC6A4_A793_5BD1_E995;

/// The primary multiplicative hash: high bits are well mixed.
#[inline(always)]
pub fn mult_hash(key: u64) -> u64 {
    key.wrapping_mul(MULT_CONST)
}

/// Secondary hash used to choose a starting slot inside a bucket or
/// open-addressing table.
#[inline(always)]
pub fn bucket_slot_hash(key: u64) -> u64 {
    key.wrapping_mul(BUCKET_CONST)
}

/// Directory slot for a hash under `global_depth` (`< 64`): the top
/// `global_depth` bits. Depth 0 always maps to slot 0 — the shift is split
/// in two so that it needs no branch to be valid there.
#[inline(always)]
pub fn dir_slot(hash: u64, global_depth: u32) -> usize {
    debug_assert!(global_depth < 64);
    ((hash >> 1) >> (63 - global_depth)) as usize
}

/// The `depth`-th most significant bit of `hash` (0-indexed): the bit that
/// decides which side of a split an entry lands on when local depth grows
/// from `depth` to `depth + 1`.
#[inline(always)]
pub fn split_bit(hash: u64, depth: u32) -> bool {
    debug_assert!(depth < 64);
    (hash >> (63 - depth)) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_slot_depth_zero_is_zero() {
        assert_eq!(dir_slot(u64::MAX, 0), 0);
        assert_eq!(dir_slot(0, 0), 0);
    }

    #[test]
    fn dir_slot_uses_top_bits() {
        // hash with top bit set -> upper half of the directory.
        let h = 1u64 << 63;
        assert_eq!(dir_slot(h, 1), 1);
        assert_eq!(dir_slot(h, 2), 0b10);
        assert_eq!(dir_slot(!0, 3), 0b111);
        assert_eq!(dir_slot(0, 8), 0);
    }

    #[test]
    fn split_bit_extracts_msb_first() {
        let h = 0b1010u64 << 60;
        assert!(split_bit(h, 0));
        assert!(!split_bit(h, 1));
        assert!(split_bit(h, 2));
        assert!(!split_bit(h, 3));
    }

    #[test]
    fn dir_slot_consistent_with_split_bit() {
        // Doubling rule: slot at depth g+1 = (slot at depth g) * 2 + split_bit(g).
        for key in [0u64, 1, 42, 0xdead_beef, u64::MAX / 3] {
            let h = mult_hash(key);
            for g in 0..16 {
                let s_g = dir_slot(h, g);
                let s_g1 = dir_slot(h, g + 1);
                let bit = split_bit(h, g) as usize;
                assert_eq!(s_g1, s_g * 2 + bit, "key {key} depth {g}");
            }
        }
    }

    #[test]
    fn hash_spreads_sequential_keys() {
        // Sequential keys must land in different directory slots (this is
        // exactly why a multiplicative hash is used).
        let mut slots = std::collections::HashSet::new();
        for k in 0..1000u64 {
            slots.insert(dir_slot(mult_hash(k), 10));
        }
        assert!(slots.len() > 500, "only {} distinct slots", slots.len());
    }

    #[test]
    fn two_hashes_disagree() {
        // The directory hash and bucket hash must be independent enough
        // that equal directory prefixes do not imply equal bucket slots.
        let a = 123u64;
        let b = 456u64;
        assert_ne!(mult_hash(a), bucket_slot_hash(a));
        assert_ne!(
            bucket_slot_hash(a) % 251,
            bucket_slot_hash(b) % 251,
            "chosen example keys should differ (not a property, a sanity check)"
        );
    }
}
