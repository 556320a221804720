//! A fast, deterministic hasher for the fabric's hot lookup maps.
//!
//! The per-packet maps — FIB prefix buckets, TEID and IMSI session
//! indexes — are probed several times per forwarded packet per hop,
//! and their keys are small integers under the simulation's control, so
//! std's DoS-resistant SipHash is pure overhead there. This is the classic
//! Firefox/rustc "FxHash" multiply-rotate mix: one rotate, one xor, one
//! multiply per word. It is also deterministic across runs (std's
//! `RandomState` is not), which means swapping it in can only make map
//! iteration *more* reproducible — and the workspace already requires that
//! no observable behavior depend on map iteration order, since goldens are
//! byte-compared across processes.
//!
//! Not for untrusted keys: no seeding, trivially collidable. Keep it inside
//! the simulator.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One-word-at-a-time multiplicative hasher (the rustc/Firefox FxHash mix).
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_usable_as_map_hasher() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(7, "seven");
        m.insert(0xFFFF_FFFF, "max");
        assert_eq!(m.get(&7), Some(&"seven"));
        assert_eq!(m.get(&0xFFFF_FFFF), Some(&"max"));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(42));
        assert!(!s.insert(42));
        // Same key, same hash, every time (no per-instance random state).
        let hash = |n: u64| {
            let mut h = FxHasher::default();
            h.write_u64(n);
            h.finish()
        };
        assert_eq!(hash(123), hash(123));
        assert_ne!(hash(123), hash(124), "distinct keys should separate");
    }
}
