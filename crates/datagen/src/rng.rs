//! A small deterministic PRNG for workload generation.
//!
//! [`Rng`] is SplitMix64 (Steele et al., "Fast splittable pseudorandom
//! number generators", OOPSLA 2014): one 64-bit state word advanced by a
//! Weyl increment and finalized by an avalanche mix. It is not
//! cryptographic — it only needs to be fast, seedable, and statistically
//! adequate for generating join workloads, and its tiny state makes every
//! generator in this crate trivially reproducible from a `u64` seed.
//!
//! SplitMix64's state after `k` outputs is `seed + k·γ` (wrapping), so
//! [`Rng::advance`] jumps a stream ahead in O(1). That lets a table be
//! generated in chunks on several threads, each chunk starting its own
//! generator at its first tuple's index, with output identical to one
//! sequential stream.

/// SplitMix64's Weyl increment `γ`: the golden ratio scaled to 2^64, odd.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Deterministic SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed; equal seeds yield equal streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Skips the next `steps` outputs in O(1): afterwards the generator is
    /// where `steps` calls to [`Rng::next_u64`] would have left it.
    #[inline]
    pub fn advance(&mut self, steps: u64) {
        self.state = self.state.wrapping_add(steps.wrapping_mul(GAMMA));
    }

    /// Next 32 uniformly random bits (upper half of the 64-bit output).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)`: the top 53 bits scaled by 2^-53.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift with a
    /// rejection step to remove modulo bias.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below() requires a non-empty range");
        let bound = bound as u64;
        // Rejection zone size: 2^64 mod bound.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let wide = (x as u128) * (bound as u128);
            if (wide as u64) >= threshold {
                return (wide >> 64) as usize;
            }
        }
    }

    /// Fisher–Yates shuffle of `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn advance_equals_stepping() {
        for seed in [0, 42, u64::MAX] {
            let mut stepped = Rng::seed_from_u64(seed);
            for k in 0..300u64 {
                let mut jumped = Rng::seed_from_u64(seed);
                jumped.advance(k);
                assert_eq!(jumped.next_u64(), stepped.next_u64(), "seed={seed} k={k}");
            }
        }
        // Jumps compose, and a jump of 2^64 steps is the identity.
        let mut a = Rng::seed_from_u64(7);
        a.advance(1 << 40);
        a.advance(u64::MAX);
        a.advance(1);
        let mut b = Rng::seed_from_u64(7);
        b.advance(1 << 40);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        // Mean of 10k uniform draws should be close to 0.5.
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn below_is_unbiased_enough_and_in_range() {
        let mut rng = Rng::seed_from_u64(11);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            let x = rng.below(7);
            assert!(x < 7);
            counts[x] += 1;
        }
        for &c in &counts {
            assert!((9000..11000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // With 100 elements an identity shuffle is astronomically unlikely.
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "non-empty range")]
    fn below_zero_rejected() {
        let _ = Rng::seed_from_u64(0).below(0);
    }
}
