//! The shared lightweight multiplicative hash.
//!
//! All five schemes use the same hash function for comparability (paper
//! §4.2). A multiplicative (Fibonacci) hash mixes its **high** bits well
//! and its low bits poorly (the lowest bit of `key * odd` is the key's
//! own), so every consumer reads it from the top: shard routing takes the
//! top bits ([`route_slot`]), and the directory hash ([`dir_hash_of`])
//! byte-swaps the rotated hash so that extendible hashing's directory,
//! which is indexed by hash **suffix** ([`dir_slot`]), starts at the
//! well-mixed top byte. In-bucket open addressing uses a second
//! multiplicative constant (Shortcut-EH "has to compute two hashes:
//! directory slot and bucket slot").

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

/// The hash a directory addresses with, from a key's [`mult_hash`]:
/// rotated left by `hash_rot` (a shard's routing bits, 0 unsharded —
/// see [`crate::EhConfig::hash_rot`]), then byte-swapped, so the low bits
/// [`dir_slot`] reads are the top byte of the rotated hash. The one
/// definition for the directory, the shortcut read and every caller.
#[inline(always)]
pub fn dir_hash_of(hash: u64, hash_rot: u32) -> u64 {
    hash.rotate_left(hash_rot).swap_bytes()
}

/// Directory slot of a directory hash under `global_depth` (`< 64`): its
/// low `global_depth` bits, the hash **suffix**. Doubling the directory
/// appends a copy of it (slot `s + 2^g` shares slot `s`'s suffix), the
/// addressing order of linear hashing (Litwin, VLDB 1980).
#[inline(always)]
pub fn dir_slot(hash: u64, global_depth: u32) -> usize {
    debug_assert!(global_depth < 64);
    (hash & ((1u64 << global_depth) - 1)) as usize
}

/// Bit `depth` of a directory hash: the bit that decides which side of a
/// split an entry lands on when local depth grows from `depth` to
/// `depth + 1`.
#[inline(always)]
pub fn split_bit(hash: u64, depth: u32) -> bool {
    debug_assert!(depth < 64);
    (hash >> depth) & 1 == 1
}

/// The shard a key's [`mult_hash`] routes to among `2^bits`: its top
/// `bits` bits, which a shard's directory hash rotates out of its way.
/// Zero bits route every hash to shard 0 — the shift is split in two so
/// that it needs no branch to be valid there.
#[inline(always)]
pub fn route_slot(hash: u64, bits: u32) -> usize {
    debug_assert!(bits < 64);
    ((hash >> 1) >> (63 - bits)) as usize
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
    fn dir_slot_uses_low_bits() {
        assert_eq!(dir_slot(1, 1), 1);
        assert_eq!(dir_slot(0b110, 2), 0b10);
        assert_eq!(dir_slot(!0, 3), 0b111);
        assert_eq!(dir_slot(1 << 63, 8), 0);
    }

    #[test]
    fn split_bit_extracts_lsb_first() {
        let h = 0b0101u64;
        assert!(split_bit(h, 0));
        assert!(!split_bit(h, 1));
        assert!(split_bit(h, 2));
        assert!(!split_bit(h, 3));
    }

    #[test]
    fn dir_slot_consistent_with_split_bit() {
        // The append rule: slot_{g+1} = slot_g | split_bit(g) << g.
        for key in [0u64, 1, 42, 0xdead_beef, u64::MAX / 3] {
            let h = dir_hash_of(mult_hash(key), 0);
            for g in 0..16 {
                let s_g = dir_slot(h, g);
                let s_g1 = dir_slot(h, g + 1);
                let bit = split_bit(h, g) as usize;
                assert_eq!(s_g1, s_g | bit << g, "key {key} depth {g}");
            }
        }
    }

    #[test]
    fn the_directory_reads_the_top_byte_first() {
        let h = mult_hash(0x1234_5678);
        assert_eq!(dir_slot(dir_hash_of(h, 0), 8) as u64, h >> 56);
        // A shard's rotation moves its routing bits out of the suffix.
        assert_eq!(dir_slot(dir_hash_of(h, 3), 8) as u64, (h << 3) >> 56);
    }

    #[test]
    fn route_slot_uses_top_bits() {
        let h = 1u64 << 63;
        assert_eq!(route_slot(h, 0), 0);
        assert_eq!(route_slot(h, 1), 1);
        assert_eq!(route_slot(h, 2), 0b10);
        assert_eq!(route_slot(!0, 3), 0b111);
    }

    #[test]
    fn hash_spreads_sequential_keys() {
        // Sequential keys must land in different directory slots (this is
        // exactly why a multiplicative hash is used, read from the top).
        let mut slots = std::collections::HashSet::new();
        for k in 0..1000u64 {
            slots.insert(dir_slot(dir_hash_of(mult_hash(k), 0), 10));
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
