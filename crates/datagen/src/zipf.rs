//! The paper's zipf workload generator (§V-A), implemented literally:
//!
//! > "we generate an array of intervals for a given zipf factor. Each array
//! > element stores an interval whose length corresponds to the probability
//! > of the element in the zipf distribution. Then we randomly assign a
//! > unique key to each interval. After that, for each input tuple, we
//! > generate a random number, and search it in the interval array. […] we
//! > model highly skewed cases by using the same interval array and unique
//! > key array for both table R and table S for a given zipf factor."
//!
//! With `n` intervals and zipf factor `θ`, interval `i` (1-based) has length
//! `(1/i^θ) / H_{n,θ}` where `H_{n,θ} = Σ 1/i^θ` is the generalized harmonic
//! number. At `θ = 1` and `n = 32 M` the hottest key covers `1/H ≈ 5.6 %` of
//! the mass — ≈1.79 M of 32 M tuples, exactly the figure quoted in §III.
//!
//! The paper binary-searches the whole interval array for each tuple; at
//! millions of keys that is one dependent cache miss per search step. This
//! generator returns the same interval but finds it through a guide table
//! (the cut-point method, Chen & Asau 1974): `m = 2^b` slots, one per
//! roughly four keys, where slot `j` holds the first interval whose upper
//! bound exceeds `j/m`. A draw `x` in slot `j = ⌊x·m⌋` must land between
//! `guide[j]` and `guide[j+1]`, so the search shrinks to those few
//! intervals. Because `m` is a power of two, `x·m` and `j/m` are exact, and
//! because the interval array is monotone, the narrowed search returns
//! exactly the full search's answer for every `x` in `[0, 1)`. Tables are
//! generated in fixed-size chunks on all available cores; each chunk jumps
//! the RNG to its first tuple ([`Rng::advance`]), so the output does not
//! depend on the number of threads.

use std::num::NonZeroUsize;
use std::sync::Mutex;
use std::thread;

use skewjoin_common::hash::mix32;
use skewjoin_common::{Key, Relation, Tuple};

use crate::rng::Rng;

/// Tuples per generation chunk. A table of at most one chunk is generated
/// on the calling thread.
const GEN_CHUNK: usize = 1 << 16;

/// Keys per guide-table slot, rounded so the slot count is a power of two
/// (at most one `u32` per four keys: 4 MiB at 2^22 keys).
const KEYS_PER_GUIDE_SLOT: usize = 4;

/// A zipf key distribution shared by both join inputs.
///
/// Holds the cumulative interval array, a guide table into it, and the salt
/// that maps each interval to its unique key. Construction is
/// `O(n)`. Each draw searches only the intervals of its guide slot, about
/// four at zipf 0, and returns the interval the paper's full binary search
/// would (see the module docs).
///
/// ```
/// use skewjoin_datagen::ZipfWorkload;
///
/// // 10 000 possible keys, classic zipf (θ = 1).
/// let dist = ZipfWorkload::new(10_000, 1.0, 42);
/// let table = dist.generate_table(50_000, 7);
/// assert_eq!(table.len(), 50_000);
///
/// // The hottest key covers 1/H_n of the mass — about 10% here.
/// let hottest = dist.probability_of_rank(0);
/// assert!(hottest > 0.08 && hottest < 0.13);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfWorkload {
    /// `cumulative[i]` = upper bound of interval `i`; non-decreasing,
    /// every element in `(0, 1]`, last element exactly 1.0.
    cumulative: Vec<f64>,
    /// Seed-derived salt of the rank → key bijection (see
    /// [`ZipfWorkload::key_of_rank`]).
    salt: u32,
    /// `m + 1` entries for `m = 2^b` slots: `guide[j]` is the first
    /// interval `i` with `cumulative[i] > j/m`, and `guide[m] = n − 1`.
    guide: Vec<u32>,
    theta: f64,
}

impl ZipfWorkload {
    /// Builds the interval array and its guide table for `num_keys`
    /// distinct keys with zipf factor `theta` (`0.0` = uniform, `1.0` =
    /// classic zipf).
    ///
    /// Keys are "randomly assigned" per the paper: a seeded bijective mix of
    /// the interval index spreads them over the `u32` domain while keeping
    /// them unique.
    ///
    /// # Panics
    /// Panics if `num_keys` is zero or `theta` is negative/non-finite.
    pub fn new(num_keys: usize, theta: f64, seed: u64) -> Self {
        assert!(num_keys > 0, "zipf workload needs at least one key");
        assert!(
            theta >= 0.0 && theta.is_finite(),
            "zipf factor must be a finite non-negative number"
        );
        assert!(
            num_keys <= (u32::MAX as usize) + 1,
            "key domain limited to u32"
        );

        // Interval lengths ∝ 1 / i^theta, normalized by the harmonic sum;
        // the weights are turned into the cumulative array in place.
        let mut cumulative: Vec<f64> = if theta == 0.0 {
            vec![1.0; num_keys]
        } else {
            (1..=num_keys)
                .map(|i| 1.0 / (i as f64).powf(theta))
                .collect()
        };
        let total: f64 = cumulative.iter().sum();

        let mut acc = 0.0f64;
        for c in &mut cumulative {
            // Clamp the running sum: with millions of tiny weights the
            // accumulation can drift *above* 1.0 before the last interval,
            // and forcing only the final element back down would make the
            // array non-monotone — `partition_point`'s contract broken and
            // the overshot intervals assigned negative probability mass.
            acc = (acc + *c / total).min(1.0);
            *c = acc;
        }
        // Drift-low tail guard: the final upper bound is 1.0 by definition,
        // so a draw in the last ulp below 1.0 still lands inside the array.
        *cumulative.last_mut().expect("num_keys > 0") = 1.0;

        let salt = (seed as u32) ^ ((seed >> 32) as u32);
        let guide = build_guide(&cumulative);

        Self {
            cumulative,
            salt,
            guide,
            theta,
        }
    }

    /// The zipf factor this workload was built with.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Number of distinct keys (intervals).
    pub fn num_keys(&self) -> usize {
        self.cumulative.len()
    }

    /// The unique key of interval `rank` (rank 0 = hottest key).
    ///
    /// Keys are random and unique: XOR with a seed-derived salt then a
    /// bijective multiplicative mix keeps them unique over `u32`. Computed
    /// rather than stored, so a draw touches no key array.
    ///
    /// # Panics
    /// Panics if `rank` is not below [`ZipfWorkload::num_keys`].
    #[inline]
    pub fn key_of_rank(&self, rank: usize) -> Key {
        assert!(rank < self.num_keys(), "rank {rank} out of range");
        mix32(rank as u32 ^ self.salt)
    }

    /// Probability mass of interval `rank`.
    pub fn probability_of_rank(&self, rank: usize) -> f64 {
        let hi = self.cumulative[rank];
        let lo = if rank == 0 {
            0.0
        } else {
            self.cumulative[rank - 1]
        };
        hi - lo
    }

    /// Draws one key: generate a uniform random in `[0, 1)` and find its
    /// interval (the paper's per-tuple procedure). Consumes exactly one
    /// [`Rng::next_u64`].
    #[inline]
    pub fn draw(&self, rng: &mut Rng) -> Key {
        self.draw_at(rng.next_f64())
    }

    /// The key of the interval containing `x ∈ [0, 1)`: the first interval
    /// whose upper bound exceeds `x`.
    #[inline]
    fn draw_at(&self, x: f64) -> Key {
        self.key_of_rank(self.rank_in(x, self.slot_of(x)))
    }

    /// The ranks `lo..=hi` bracketing `x ∈ [0, 1)`, from `x`'s guide slot.
    #[inline]
    fn slot_of(&self, x: f64) -> (usize, usize) {
        let j = (x * (self.guide.len() - 1) as f64) as usize;
        (self.guide[j] as usize, self.guide[j + 1] as usize)
    }

    /// The first rank whose upper bound exceeds `x`, given its bracket.
    /// Every rank below `lo` has a bound `≤ x` and rank `hi` has one `> x`
    /// (or is the last), so this equals the paper's full-array search.
    #[inline]
    fn rank_in(&self, x: f64, (lo, hi): (usize, usize)) -> usize {
        lo + self.cumulative[lo..hi].partition_point(|&c| c <= x)
    }

    /// Generates a table of `num_tuples` tuples whose keys follow this
    /// distribution; payload `i` is the row id. Tuple `i` is drawn with the
    /// `i`-th output of the stream seeded by `seed`, whichever thread draws
    /// it.
    pub fn generate_table(&self, num_tuples: usize, seed: u64) -> Relation {
        let workers = if num_tuples <= GEN_CHUNK {
            1
        } else {
            thread::available_parallelism().map_or(1, NonZeroUsize::get)
        };
        self.generate_with_workers(num_tuples, seed, workers)
    }

    /// [`ZipfWorkload::generate_table`] on `workers` threads (the calling
    /// thread included), which take [`GEN_CHUNK`]-tuple chunks in turn.
    fn generate_with_workers(&self, num_tuples: usize, seed: u64, workers: usize) -> Relation {
        let mut tuples = vec![Tuple::default(); num_tuples];
        let chunks = Mutex::new(tuples.chunks_mut(GEN_CHUNK).enumerate());
        let work = || loop {
            let next = chunks
                .lock()
                .expect("the chunk lock is held only around next(), which cannot panic")
                .next();
            let Some((c, chunk)) = next else { return };
            self.fill(chunk, c * GEN_CHUNK, seed);
        };
        thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });
        Relation::from_tuples(tuples)
    }

    /// Draws table rows `first..first + rows.len()` of the stream seeded by
    /// `seed`, in blocks whose guide-table reads are all issued before any
    /// search, so their cache misses overlap instead of waiting behind each
    /// search's branches.
    fn fill(&self, rows: &mut [Tuple], first: usize, seed: u64) {
        const LANES: usize = 16;
        let mut rng = Rng::seed_from_u64(seed);
        rng.advance(first as u64);
        for (b, block) in rows.chunks_mut(LANES).enumerate() {
            let mut xs = [0.0f64; LANES];
            let mut slots = [(0, 0); LANES];
            for (x, slot) in xs.iter_mut().zip(&mut slots).take(block.len()) {
                *x = rng.next_f64();
                *slot = self.slot_of(*x);
            }
            let row = first + b * LANES;
            for (k, t) in block.iter_mut().enumerate() {
                let rank = self.rank_in(xs[k], slots[k]);
                *t = Tuple::new(self.key_of_rank(rank), (row + k) as u32);
            }
        }
    }

    /// Expected number of occurrences of the rank-`rank` key in a table of
    /// `num_tuples` tuples.
    pub fn expected_frequency(&self, rank: usize, num_tuples: usize) -> f64 {
        self.probability_of_rank(rank) * num_tuples as f64
    }

    /// Expected join output size when R and S each have `n` tuples drawn
    /// from this distribution: `n² · Σ p_i²`.
    pub fn expected_join_output(&self, n: usize) -> f64 {
        let sum_sq: f64 = (0..self.num_keys())
            .map(|r| {
                let p = self.probability_of_rank(r);
                p * p
            })
            .sum();
        (n as f64) * (n as f64) * sum_sq
    }
}

/// Builds the guide table over a monotone `cumulative` array whose last
/// element is 1.0: `m + 1` entries for `m = 2^b` slots, the largest power
/// of two with at most one slot per [`KEYS_PER_GUIDE_SLOT`] keys (at least
/// one slot).
fn build_guide(cumulative: &[f64]) -> Vec<u32> {
    let n = cumulative.len();
    let slots = 1usize << (n / KEYS_PER_GUIDE_SLOT).max(1).ilog2();
    let mut guide = Vec::with_capacity(slots + 1);
    let mut i = 0;
    for j in 0..slots {
        // Exact: `slots` is a power of two. `cumulative[n − 1] = 1.0`
        // exceeds every bound below 1, so `i` stays in the array.
        let bound = j as f64 / slots as f64;
        while cumulative[i] <= bound {
            i += 1;
        }
        guide.push(i as u32);
    }
    guide.push((n - 1) as u32);
    guide
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn probabilities_sum_to_one() {
        for theta in [0.0, 0.5, 1.0] {
            let z = ZipfWorkload::new(1000, theta, 42);
            let sum: f64 = (0..1000).map(|r| z.probability_of_rank(r)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "theta={theta} sum={sum}");
        }
    }

    #[test]
    fn probabilities_are_monotone_nonincreasing() {
        let z = ZipfWorkload::new(500, 0.8, 7);
        for r in 1..500 {
            assert!(z.probability_of_rank(r) <= z.probability_of_rank(r - 1) + 1e-12);
        }
    }

    #[test]
    fn theta_zero_is_uniform() {
        let z = ZipfWorkload::new(100, 0.0, 1);
        for r in 0..100 {
            assert!((z.probability_of_rank(r) - 0.01).abs() < 1e-9);
        }
    }

    #[test]
    fn keys_are_unique() {
        let z = ZipfWorkload::new(10_000, 1.0, 99);
        let mut seen = std::collections::HashSet::new();
        for r in 0..z.num_keys() {
            assert!(seen.insert(z.key_of_rank(r)));
        }
    }

    #[test]
    fn hottest_key_frequency_matches_harmonic_prediction() {
        // Paper §III: at zipf 1.0 with n keys the top key holds 1/H_n of the
        // mass. Empirically verify within sampling noise.
        let n_keys = 10_000;
        let n_tuples = 200_000;
        let z = ZipfWorkload::new(n_keys, 1.0, 5);
        let table = z.generate_table(n_tuples, 6);
        let mut freq: HashMap<Key, usize> = HashMap::new();
        for t in table.iter() {
            *freq.entry(t.key).or_default() += 1;
        }
        let top = *freq.get(&z.key_of_rank(0)).unwrap_or(&0) as f64;
        let expected = z.expected_frequency(0, n_tuples);
        assert!(
            (top - expected).abs() < expected * 0.1,
            "top key count {top} vs expected {expected}"
        );
    }

    #[test]
    fn generate_table_is_deterministic_per_seed() {
        let z = ZipfWorkload::new(100, 0.9, 3);
        let a = z.generate_table(1000, 11);
        let b = z.generate_table(1000, 11);
        let c = z.generate_table(1000, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn tables_share_key_universe() {
        let z = ZipfWorkload::new(64, 1.0, 21);
        let r = z.generate_table(512, 1);
        let s = z.generate_table(512, 2);
        let universe: std::collections::HashSet<Key> =
            (0..z.num_keys()).map(|i| z.key_of_rank(i)).collect();
        assert!(r.iter().all(|t| universe.contains(&t.key)));
        assert!(s.iter().all(|t| universe.contains(&t.key)));
    }

    #[test]
    fn expected_join_output_uniform_case() {
        // Uniform over k keys: expected output = n²/k.
        let z = ZipfWorkload::new(100, 0.0, 1);
        let expected = z.expected_join_output(1000);
        assert!((expected - 10_000.0).abs() < 1.0);
    }

    #[test]
    fn payloads_are_row_ids() {
        let z = ZipfWorkload::new(10, 0.5, 4);
        let t = z.generate_table(100, 9);
        for (i, tup) in t.iter().enumerate() {
            assert_eq!(tup.payload, i as u32);
        }
    }

    #[test]
    fn single_key_domain() {
        let z = ZipfWorkload::new(1, 1.0, 0);
        assert!((z.probability_of_rank(0) - 1.0).abs() < 1e-12);
        let t = z.generate_table(100, 5);
        let k = z.key_of_rank(0);
        assert!(t.iter().all(|tup| tup.key == k));
        assert_eq!(z.expected_join_output(100) as u64, 10_000);
    }

    #[test]
    fn cumulative_drift_leaves_no_negative_mass() {
        // Regression: with hundreds of thousands of tiny weights the running
        // float sum drifts off 1.0 in either direction. Drift-high used to
        // leave the array non-monotone once the last element was forced back
        // to 1.0 — observable as negative probability mass on the tail
        // ranks; drift-low used to leave the final upper bound below 1.0 so
        // a draw in the last ulp could fall past the array.
        for theta in [0.25, 0.75, 0.99, 1.0, 1.5, 2.0] {
            let n = 300_000;
            let z = ZipfWorkload::new(n, theta, 17);
            let mut sum = 0.0f64;
            for r in 0..n {
                let p = z.probability_of_rank(r);
                assert!(p >= 0.0, "theta={theta} rank={r} negative mass {p}");
                sum += p;
            }
            // The per-rank masses telescope over the cumulative array, whose
            // last element is pinned at exactly 1.0.
            assert!((sum - 1.0).abs() < 1e-9, "theta={theta} sum={sum}");
        }
    }

    #[test]
    fn draws_always_land_in_the_key_array() {
        // Every draw must map to a real interval even at the distribution's
        // tail; exercised across skew extremes including θ = 2.
        for theta in [0.0, 1.0, 2.0] {
            let z = ZipfWorkload::new(10_000, theta, 23);
            let universe: std::collections::HashSet<Key> =
                (0..z.num_keys()).map(|i| z.key_of_rank(i)).collect();
            let mut rng = Rng::seed_from_u64(29);
            for _ in 0..20_000 {
                assert!(universe.contains(&z.draw(&mut rng)));
            }
        }
    }

    /// The paper's draw: binary search of the whole interval array.
    fn reference_draw(z: &ZipfWorkload, x: f64) -> Key {
        let idx = z.cumulative.partition_point(|&c| c <= x);
        z.key_of_rank(idx.min(z.num_keys() - 1))
    }

    /// The paper's table: one stream, one full search per tuple.
    fn reference_table(z: &ZipfWorkload, num_tuples: usize, seed: u64) -> Relation {
        let mut rng = Rng::seed_from_u64(seed);
        (0..num_tuples)
            .map(|i| Tuple::new(reference_draw(z, rng.next_f64()), i as u32))
            .collect()
    }

    const THETAS: [f64; 6] = [0.0, 0.25, 0.75, 1.0, 1.5, 2.0];
    /// 300 000 is the cumulative-drift regression test's size;
    /// 65 537 is one past a power of two. Clamped runs of 1.0 get their own
    /// hand-built array, as no size here produces one.
    const SIZES: [usize; 6] = [1, 2, 3, 1000, 300_000, 65_537];

    /// `x` and its neighbouring doubles, kept inside `[0, 1)`.
    fn with_neighbours(x: f64) -> impl Iterator<Item = f64> {
        let below = if x > 0.0 {
            f64::from_bits(x.to_bits() - 1)
        } else {
            x
        };
        let above = f64::from_bits(x.to_bits() + 1);
        [below, x, above]
            .into_iter()
            .filter(|x| (0.0..1.0).contains(x))
    }

    #[test]
    fn guided_draw_matches_full_search_at_hand_picked_points() {
        // The last double below 1.0 is also `next_f64`'s largest output.
        let last_below_one = 1.0 - f64::EPSILON / 2.0;
        for theta in THETAS {
            for n in SIZES {
                let z = ZipfWorkload::new(n, theta, 17);
                let slots = z.guide.len() - 1;
                let slot_bounds = (0..slots).map(|j| j as f64 / slots as f64);
                let points = slot_bounds
                    .chain(z.cumulative.iter().copied())
                    .chain([0.0, 0.5, last_below_one])
                    .flat_map(with_neighbours);
                for x in points {
                    assert_eq!(
                        z.draw_at(x),
                        reference_draw(&z, x),
                        "theta={theta} n={n} x={x:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn guided_draw_matches_full_search_on_plateaus_and_clamped_runs() {
        // Zero-mass intervals, plateaus on slot bounds (multiples of 1/8
        // for 40 keys) and a clamped run of 1.0 values, as left by a
        // running sum that drifts above 1.0.
        let mut cumulative = vec![0.0, 0.0, 0.1, 0.125, 0.125, 0.125, 0.3];
        cumulative.extend((0..20).map(|i| 0.5 + f64::from(i) / 100.0));
        cumulative.extend([0.75, 0.75, 0.875, 0.99, 1.0 - f64::EPSILON / 2.0]);
        cumulative.resize(40, 1.0);
        let guide = build_guide(&cumulative);
        assert_eq!(guide.len(), 8 + 1);
        let z = ZipfWorkload {
            cumulative,
            salt: 0,
            guide,
            theta: 0.0,
        };
        let points = (0..=1000)
            .map(|i| f64::from(i) / 1000.0)
            .chain((0..8).map(|j| f64::from(j) / 8.0))
            .chain(z.cumulative.iter().copied())
            .flat_map(with_neighbours);
        for x in points {
            assert_eq!(z.draw_at(x), reference_draw(&z, x), "x={x:e}");
        }
    }

    #[test]
    fn guided_draw_matches_full_search_through_the_rng() {
        for theta in THETAS {
            for n in SIZES {
                let z = ZipfWorkload::new(n, theta, 5);
                let mut rng = Rng::seed_from_u64(31);
                let mut reference = rng.clone();
                for i in 0..20_000 {
                    let want = reference_draw(&z, reference.next_f64());
                    assert_eq!(z.draw(&mut rng), want, "theta={theta} n={n} draw {i}");
                }
            }
        }
    }

    #[test]
    fn guide_has_a_power_of_two_slots_per_four_keys() {
        for (n, slots) in [
            (1, 1),
            (7, 1),
            (8, 2),
            (1000, 128),
            (4095, 512),
            (4096, 1024),
        ] {
            let z = ZipfWorkload::new(n, 1.0, 3);
            assert_eq!(z.guide.len(), slots + 1, "n={n}");
            assert_eq!(z.guide[slots] as usize, n - 1);
        }
    }

    #[test]
    fn generated_table_matches_the_full_search_for_any_worker_count() {
        // Four chunks, the last one ragged.
        let n = 3 * GEN_CHUNK + 4321;
        for theta in [0.0, 1.0] {
            let z = ZipfWorkload::new(n, theta, 8);
            let expected = reference_table(&z, n, 13);
            for workers in [1, 2, 3, 7] {
                let got = z.generate_with_workers(n, 13, workers);
                assert!(got == expected, "theta={theta} workers={workers}");
            }
            assert!(z.generate_table(n, 13) == expected, "theta={theta}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn zero_keys_rejected() {
        let _ = ZipfWorkload::new(0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rank_beyond_the_domain_rejected() {
        let _ = ZipfWorkload::new(10, 1.0, 0).key_of_rank(10);
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn negative_theta_rejected() {
        let _ = ZipfWorkload::new(10, -0.5, 0);
    }
}
