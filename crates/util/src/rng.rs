//! Deterministic pseudo-random number generators.
//!
//! AIDE's evaluation requires replayable randomness: the paper reports
//! averages over ten exploration sessions, each of which must be repeatable
//! so that accuracy/effort trade-offs can be compared across configurations.
//! We implement two well-known generators rather than depending on an
//! external crate whose stream could change between versions:
//!
//! * [`SplitMix64`] — used for seeding and cheap one-off draws;
//! * [`Xoshiro256pp`] — the workhorse generator (xoshiro256++ by Blackman &
//!   Vigna), with 256 bits of state and excellent statistical quality.

/// Largest sample size for which [`Rng::sample_indices`] checks
/// membership by scanning its output.
const FLOYD_SCAN_MAX: usize = 64;

/// Larger samples of at least `n / FLOYD_DENSE_DIV` out of `n` indices
/// keep a flag per index; sparser ones a hash set. The flags took an
/// eighth to under half the hashing's time on every shape timed with `n`
/// up to `128·k` (discovery's 20 000-row `fit_cap` subsample of 20 k to
/// 2.5 M candidates, batches of 65 to 1 000 picks) and lost from about
/// `n = 500·k`, where faulting in the flags outweighs the hashing.
const FLOYD_DENSE_DIV: usize = 64;

/// A source of pseudo-random numbers.
///
/// All sampling helpers are provided as default methods on top of
/// [`Rng::next_u64`], so implementing a new generator only requires the one
/// method.
pub trait Rng {
    /// Returns the next 64 uniformly distributed random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // Use the top 53 bits for a uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniformly distributed `f64` in `[lo, hi)`.
    ///
    /// Returns `lo` when the range is empty or inverted, which keeps
    /// degenerate sampling areas (zero-width rectangle faces) well defined.
    #[inline]
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        // NaN-safe: only proceed when `hi` is strictly greater.
        if hi.partial_cmp(&lo) != Some(core::cmp::Ordering::Greater) {
            return lo;
        }
        let v = lo + (hi - lo) * self.next_f64();
        // Floating point rounding can land exactly on `hi`. Clamp to the
        // largest value strictly below `hi` — clamping to `lo` instead
        // would teleport a draw from the top of the range to the bottom,
        // biasing boundary-exploitation sampling on thin rectangle faces.
        if v >= hi {
            let capped = hi.next_down();
            if capped < lo {
                lo
            } else {
                capped
            }
        } else {
            v
        }
    }

    /// Returns a uniformly distributed integer in `[0, n)`.
    ///
    /// Uses Lemire's unbiased multiply-shift rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is undefined");
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniformly distributed `usize` index in `[0, n)`.
    #[inline]
    fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Picks a uniformly random element of `slice`, or `None` if empty.
    #[inline]
    fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.index(slice.len())])
        }
    }

    /// Shuffles `slice` in place with the Fisher–Yates algorithm.
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Draws a simple random sample of `k` indices out of `[0, n)` without
    /// replacement using Robert Floyd's algorithm: for `j` in `n-k..n`,
    /// draw `t` in `[0, j]` and take `t` unless it was already taken, `j`
    /// otherwise. Every k-subset is equally likely, and the cost is `k`
    /// draws and O(k) memory, whatever `n`.
    ///
    /// Returns all `n` indices, in order, when `k >= n`. Otherwise the
    /// result is in insertion order.
    ///
    /// A sample of more than about half the range costs more than one
    /// pass over it would: `k` random writes against `n` streamed draws
    /// (900 000 of 1 000 000 takes about six times reservoir sampling's
    /// time).
    fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        if k >= n {
            return (0..n).collect();
        }
        if k <= FLOYD_SCAN_MAX {
            // Batch-sized: a scan of the picks beats any set.
            let take = |picked: &[usize], t, j| if picked.contains(&t) { j } else { t };
            floyd(self, n, k, take)
        } else if k >= n / FLOYD_DENSE_DIV {
            // Select, then mark: no branch on whether `t` was taken.
            let mut taken = vec![false; n];
            floyd(self, n, k, |_, t, j| {
                let pick = if taken[t] { j } else { t };
                taken[pick] = true;
                pick
            })
        } else {
            let mut taken = std::collections::HashSet::with_capacity(k);
            floyd(self, n, k, |_, t, j| {
                if taken.insert(t) {
                    t
                } else {
                    taken.insert(j);
                    j
                }
            })
        }
    }
}

/// Floyd's algorithm over a membership set: `take(picked, t, j)` returns
/// `t` if it is not taken yet, `j` otherwise, and marks its answer taken,
/// `picked` being the picks so far. `j` exceeds every earlier pick, so it
/// is always new.
fn floyd<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    k: usize,
    mut take: impl FnMut(&[usize], usize, usize) -> usize,
) -> Vec<usize> {
    let mut out = Vec::with_capacity(k);
    for j in n - k..n {
        let t = rng.index(j + 1);
        let pick = take(&out, t, j);
        out.push(pick);
    }
    out
}

/// SplitMix64: a tiny, fast generator with a 64-bit state.
///
/// Primarily used to expand a single user-provided seed into the larger
/// state of [`Xoshiro256pp`], and for cheap fire-and-forget draws in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }
}

impl Rng for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ 1.0 by David Blackman and Sebastiano Vigna (public domain).
///
/// The default generator for every stochastic step in the AIDE pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Creates a generator by expanding `seed` through [`SplitMix64`], as
    /// recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // An all-zero state would be a fixed point; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        if s == [0; 4] {
            s[0] = 0x9E3779B97F4A7C15;
        }
        Self { s }
    }

    /// Pre-splits `n` independent per-item streams for a batched
    /// operation (one stream per sampling rectangle, say), advancing
    /// `self` by exactly one draw so consecutive batches get fresh
    /// streams.
    ///
    /// The derivation is a pure function of the generator state and the
    /// item index, never of thread scheduling — a batch fanned out over
    /// any number of workers consumes its streams identically. Note the
    /// draws differ from interleaving all items on `self` directly: the
    /// two disciplines are each deterministic but not interchangeable.
    pub fn split_streams(&mut self, n: usize) -> Vec<Xoshiro256pp> {
        let base = Xoshiro256pp::seed_from_u64(self.next_u64());
        (0..n as u64).map(|i| base.split(i)).collect()
    }

    /// Jump-free stream split: derives an independent generator for a
    /// sub-task (e.g. one exploration session out of ten) by hashing the
    /// current state with a stream index.
    pub fn split(&self, stream: u64) -> Self {
        let mut sm = SplitMix64::new(
            self.s[0]
                .rotate_left(17)
                .wrapping_add(self.s[2])
                .wrapping_add(stream.wrapping_mul(0xA24BAED4963EE407)),
        );
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        Self { s }
    }
}

impl Rng for Xoshiro256pp {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// A deterministic factory of independent RNG streams.
///
/// Experiments average over several exploration sessions; each session, and
/// each stochastic subsystem within a session, receives its own stream so
/// that adding draws to one subsystem does not perturb another.
#[derive(Debug, Clone)]
pub struct SeedStream {
    root: Xoshiro256pp,
    next: u64,
}

impl SeedStream {
    /// Creates a stream factory rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            root: Xoshiro256pp::seed_from_u64(seed),
            next: 0,
        }
    }

    /// Returns the next independent generator.
    pub fn next_rng(&mut self) -> Xoshiro256pp {
        let rng = self.root.split(self.next);
        self.next += 1;
        rng
    }

    /// Returns the generator for a named stream index (order independent).
    pub fn stream(&self, index: u64) -> Xoshiro256pp {
        self.root.split(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First three outputs of Vigna's canonical splitmix64.c for seed
        // 1234567 — a silent typo in the constants cannot pass this.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 0x599ED017FB08FC85);
        assert_eq!(rng.next_u64(), 0x2C73F08458540FA5);
        assert_eq!(rng.next_u64(), 0x883EBCE5A3F27C77);
        // And the published seed-0 vector.
        let mut rng0 = SplitMix64::new(0);
        assert_eq!(rng0.next_u64(), 0xE220A8397B1DCDAF);
        assert_eq!(rng0.next_u64(), 0x6E789E6AA1B965F4);
        assert_eq!(rng0.next_u64(), 0x06C45D188009454F);
    }

    #[test]
    fn xoshiro_is_deterministic_per_seed() {
        let mut a = Xoshiro256pp::seed_from_u64(42);
        let mut b = Xoshiro256pp::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256pp::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v), "out of range: {v}");
        }
    }

    #[test]
    fn uniform_respects_bounds_and_degenerate_ranges() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = rng.uniform(-3.0, 4.5);
            assert!((-3.0..4.5).contains(&v));
        }
        assert_eq!(rng.uniform(2.0, 2.0), 2.0);
        assert_eq!(rng.uniform(5.0, 1.0), 5.0);
    }

    /// An [`Rng`] whose `next_f64` is pinned to the largest value below 1,
    /// forcing `uniform`'s rounding-to-`hi` clamp path deterministically.
    struct MaxRng;

    impl Rng for MaxRng {
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
    }

    #[test]
    fn uniform_clamp_returns_top_of_range_not_bottom() {
        // lo + (hi - lo) * next_f64() rounds up to exactly `hi` here; the
        // old clamp returned `lo`, teleporting the draw across the range.
        let mut rng = MaxRng;
        let lo = 1.0f64;
        let hi = 1.0 + 2.0 * f64::EPSILON;
        let v = rng.uniform(lo, hi);
        assert!(v >= lo && v < hi, "clamped draw {v} escaped [{lo}, {hi})");
        assert_eq!(
            v,
            hi.next_down(),
            "clamp must land on the largest value strictly below hi"
        );
        assert_ne!(v, lo, "draw at the top of the range teleported to lo");
    }

    #[test]
    fn uniform_on_denormal_width_range_stays_in_bounds() {
        // The thinnest possible range: [0, smallest subnormal). Rounding
        // lands on `hi` for large draws; next_down(hi) == lo == 0 is the
        // only value in range and must be returned (never hi itself).
        let tiny = f64::from_bits(1); // 5e-324, denormal
        let mut forced = MaxRng;
        let v = forced.uniform(0.0, tiny);
        assert_eq!(v, 0.0);
        assert!(v < tiny);
        let mut rng = Xoshiro256pp::seed_from_u64(21);
        for _ in 0..10_000 {
            let v = rng.uniform(0.0, tiny);
            assert!((0.0..tiny).contains(&v), "out of range: {v:e}");
        }
        // Denormal width somewhere away from zero behaves too.
        let lo = 3.0f64;
        let hi = lo.next_up();
        for _ in 0..1_000 {
            let v = rng.uniform(lo, hi);
            assert!(v >= lo && v < hi);
        }
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let n = 10u64;
        let mut counts = [0usize; 10];
        let draws = 100_000;
        for _ in 0..draws {
            counts[rng.below(n) as usize] += 1;
        }
        let expected = draws as f64 / n as f64;
        for &c in &counts {
            assert!(
                (c as f64 - expected).abs() < expected * 0.1,
                "bucket count {c} deviates from expected {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        let mut rng = SplitMix64::new(1);
        rng.below(0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice in order");
    }

    #[test]
    fn sample_indices_without_replacement() {
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let sample = rng.sample_indices(1000, 50);
        assert_eq!(sample.len(), 50);
        let mut dedup = sample.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 50, "sample contains duplicates");
        assert!(dedup.iter().all(|&i| i < 1000));
        // k >= n returns everything.
        assert_eq!(rng.sample_indices(5, 10).len(), 5);
    }

    /// Draws `trials` k-subsets of `[0, n)` and returns the chi-square
    /// statistic of their counts against the uniform distribution over
    /// all `C(n, k)` subsets, and that number of subsets.
    fn subset_chi_square(n: usize, k: usize, trials: usize, seed: u64) -> (f64, usize) {
        let subsets: Vec<u32> = (0..1u32 << n)
            .filter(|m| m.count_ones() as usize == k)
            .collect();
        let mut counts = vec![0usize; 1 << n];
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for _ in 0..trials {
            let sample = rng.sample_indices(n, k);
            let mask = sample.iter().fold(0u32, |m, &i| m | 1 << i);
            assert_eq!(mask.count_ones() as usize, k, "duplicates in {sample:?}");
            counts[mask as usize] += 1;
        }
        let expected = trials as f64 / subsets.len() as f64;
        let chi2 = subsets
            .iter()
            .map(|&m| (counts[m as usize] as f64 - expected).powi(2) / expected)
            .sum();
        (chi2, subsets.len())
    }

    #[test]
    fn sample_indices_draws_every_subset_equally_often() {
        // Critical values of chi-square at p = 0.001, df = subsets - 1.
        for (n, k, critical) in [(6, 3, 43.82), (5, 1, 18.47), (5, 4, 18.47)] {
            let (chi2, subsets) = subset_chi_square(n, k, 40_000, 17);
            assert!(
                chi2 < critical,
                "({n}, {k}): chi-square {chi2:.1} over {subsets} subsets exceeds {critical}"
            );
        }
    }

    #[test]
    fn sample_indices_set_paths_match_the_scan_path() {
        // Above FLOYD_SCAN_MAX membership moves to a flag per index or a
        // hash set; the picks must be those of the plain output scan on
        // the same stream.
        let edge = FLOYD_DENSE_DIV * 1_000;
        for (n, k) in [
            (200, FLOYD_SCAN_MAX + 1),
            (1_000, 400),
            (70, 69),
            (30_000, 20_000),
            (edge, 1_000),
            (edge + FLOYD_DENSE_DIV, 1_000),
            (100_000, FLOYD_SCAN_MAX + 1),
        ] {
            let mut rng = Xoshiro256pp::seed_from_u64(n as u64);
            let mut reference = rng.clone();
            let got = rng.sample_indices(n, k);
            let mut want = Vec::new();
            for j in n - k..n {
                let t = reference.index(j + 1);
                want.push(if want.contains(&t) { j } else { t });
            }
            assert_eq!(got, want, "({n}, {k})");
        }
    }

    /// Counts the 64-bit draws taken from the wrapped generator.
    struct Counting<R> {
        inner: R,
        draws: usize,
    }

    impl<R: Rng> Rng for Counting<R> {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.inner.next_u64()
        }
    }

    #[test]
    fn sample_indices_takes_one_draw_per_sample() {
        // `index` rejects a draw with probability below n / 2^64, so on a
        // fixed seed every sample costs exactly one draw.
        for (n, k) in [(1_000, 50), (10_000_000, 10), (10_000_000, 1_000)] {
            let mut rng = Counting {
                inner: Xoshiro256pp::seed_from_u64(3),
                draws: 0,
            };
            let sample = rng.sample_indices(n, k);
            assert_eq!(sample.len(), k);
            assert_eq!(rng.draws, k, "({n}, {k})");
        }
        // Everything requested: no draw at all.
        let mut rng = Counting {
            inner: SplitMix64::new(1),
            draws: 0,
        };
        assert_eq!(rng.sample_indices(4, 4), vec![0, 1, 2, 3]);
        assert_eq!(rng.draws, 0);
    }

    #[test]
    fn split_streams_are_independent() {
        let root = Xoshiro256pp::seed_from_u64(99);
        let mut s0 = root.split(0);
        let mut s1 = root.split(1);
        let a: Vec<u64> = (0..8).map(|_| s0.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| s1.next_u64()).collect();
        assert_ne!(a, b);
        // Re-splitting yields the same stream.
        let mut s0b = root.split(0);
        let a2: Vec<u64> = (0..8).map(|_| s0b.next_u64()).collect();
        assert_eq!(a, a2);
    }

    #[test]
    fn split_streams_are_reproducible_and_advance_the_parent() {
        let mut a = Xoshiro256pp::seed_from_u64(77);
        let mut b = Xoshiro256pp::seed_from_u64(77);
        let sa: Vec<u64> = a.split_streams(4).iter_mut().map(|r| r.next_u64()).collect();
        let sb: Vec<u64> = b.split_streams(4).iter_mut().map(|r| r.next_u64()).collect();
        assert_eq!(sa, sb, "same parent state must derive the same streams");
        // Streams are pairwise distinct.
        let mut uniq = sa.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 4);
        // The parent advanced: a second batch gets different streams.
        let sa2: Vec<u64> = a.split_streams(4).iter_mut().map(|r| r.next_u64()).collect();
        assert_ne!(sa, sa2);
        // And both parents stayed in lockstep (one draw per batch).
        let _ = b.split_streams(4);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn seed_stream_is_order_independent_for_named_streams() {
        let factory = SeedStream::new(4);
        let mut x = factory.stream(7);
        let mut y = factory.stream(7);
        assert_eq!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn choose_and_chance_edge_cases() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        let one = [42u8];
        assert_eq!(*rng.choose(&one).unwrap(), 42);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.1));
    }
}
