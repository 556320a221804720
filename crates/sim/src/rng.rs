//! Deterministic, forkable randomness.
//!
//! Every experiment takes a single `u64` seed. Components that need
//! independent random streams fork from the root with a string label, so
//! adding a new consumer of randomness never perturbs the draws seen by
//! existing components — a property the experiment harness relies on when
//! comparing architectures on "the same" workload.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A seeded random source for simulations.
///
/// Wraps ChaCha8 (fast, high quality, portable across platforms — unlike
/// `SmallRng`, whose algorithm may change between `rand` releases).
#[derive(Clone, Debug)]
pub struct SimRng {
    inner: ChaCha8Rng,
    seed: u64,
}

impl SimRng {
    /// Create a root RNG from an experiment seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: ChaCha8Rng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this stream (or its root) was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent child stream from a label.
    ///
    /// The child's seed mixes the parent seed and the label with FNV-1a, so
    /// `fork("ue-3")` is stable across runs and distinct from `fork("ue-4")`.
    pub fn fork(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        SimRng::new(h)
    }

    /// Derive an independent child stream from an index (e.g. per-UE).
    pub fn fork_idx(&self, label: &str, idx: u64) -> SimRng {
        self.fork(&format!("{label}#{idx}"))
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[lo, hi)` (half-open, like `gen_range`).
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        self.inner.gen_range(lo..hi)
    }

    /// Uniform integer in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Exponentially distributed value with the given mean (inter-arrival
    /// times of Poisson processes).
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Invert the CDF; guard the log argument away from 0.
        let u = self.unit().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Normally distributed value (Box–Muller; one draw per call, the spare
    /// is discarded for simplicity — this is a simulator, not a HFT system).
    pub fn normal(&mut self, mu: f64, sigma: f64) -> f64 {
        debug_assert!(sigma >= 0.0);
        let u1 = self.unit().max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mu + sigma * z
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }
}

/// SplitMix64 finalizer: a strong, cheap 64-bit mixing function.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stateless hash of a word sequence to a uniform `u64`.
///
/// This is the counter-based counterpart to [`SimRng`]: instead of drawing
/// from a shared stream (whose draw *order* would depend on event
/// interleaving), callers key each decision on stable identifiers — e.g.
/// `(seed, salt, packet_id, hop, link)` — so the outcome is a pure function
/// of the decision's identity. The sharded engine depends on this: per-link
/// loss and jitter draws must not change when the topology is partitioned.
pub fn hash_u64(words: &[u64]) -> u64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    for &w in words {
        h = mix(h ^ w).wrapping_add(0x9e37_79b9_7f4a_7c15);
    }
    mix(h)
}

/// Stateless hash of a word sequence to a uniform `f64` in `[0, 1)`.
/// Uses the top 53 bits of [`hash_u64`], so every representable value is an
/// exact multiple of 2^-53.
pub fn hash_unit(words: &[u64]) -> f64 {
    (hash_u64(words) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent_and_stable() {
        let root = SimRng::new(7);
        let mut x1 = root.fork("ue");
        let mut x2 = root.fork("ue");
        assert_eq!(x1.next_u64(), x2.next_u64(), "same label → same stream");
        let mut y = root.fork("enb");
        assert_ne!(x1.next_u64(), y.next_u64(), "different labels differ");
        let mut i0 = root.fork_idx("ue", 0);
        let mut i1 = root.fork_idx("ue", 1);
        assert_ne!(i0.next_u64(), i1.next_u64());
    }

    #[test]
    fn uniform_bounds() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            let v = r.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&v));
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = SimRng::new(11);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exp(4.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "sample mean {mean}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut r = SimRng::new(13);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 3.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.15, "mean {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.15, "sd {}", var.sqrt());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(19);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(23);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "astronomically unlikely");
    }

    #[test]
    fn hash_is_stable_and_sensitive() {
        assert_eq!(hash_u64(&[1, 2, 3]), hash_u64(&[1, 2, 3]));
        assert_ne!(hash_u64(&[1, 2, 3]), hash_u64(&[1, 2, 4]));
        assert_ne!(hash_u64(&[1, 2, 3]), hash_u64(&[1, 3, 2]), "order matters");
        assert_ne!(hash_u64(&[0]), hash_u64(&[0, 0]), "length matters");
    }

    #[test]
    fn hash_unit_is_uniform_enough() {
        let n = 20_000u64;
        let mut sum = 0.0;
        for i in 0..n {
            let u = hash_unit(&[0xdead_beef, i]);
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
