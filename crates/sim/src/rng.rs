//! Deterministic randomness for simulations.
//!
//! Every stochastic element of an experiment (RandomAccess update streams,
//! cross-traffic arrivals, scheduler jitter) draws from a [`SimRng`] seeded
//! from the experiment configuration, so any run can be replayed exactly.
//! [`SimRng`] is a self-contained xoshiro256++ generator (no external
//! crates — the workspace builds offline) and adds the handful of
//! distributions the simulator needs.
//!
//! The implementation mirrors the exact pipeline the repository previously
//! used via `rand::rngs::SmallRng` on 64-bit targets: splitmix64 expansion
//! of the 64-bit seed into the xoshiro256++ state, Lemire widening-multiply
//! rejection sampling for bounded integers, and the 53-bit mantissa mapping
//! for unit-interval floats. Streams are therefore bit-identical to the
//! historical ones for every `(seed, call sequence)` pair.

/// A seeded simulation random source.
///
/// xoshiro256++ (Blackman & Vigna) — small, fast, and not cryptographic,
/// which is exactly right for a simulator. Child generators derived with
/// [`SimRng::fork`] are independent streams keyed by a label, so subsystems
/// can draw randomness without perturbing each other's sequences.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
    base_seed: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit experiment seed.
    ///
    /// The four state words are produced by the splitmix64 sequence of the
    /// seed, per the xoshiro reference initialisation.
    pub fn seed_from_u64(seed: u64) -> Self {
        const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut state = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            state = state.wrapping_add(PHI);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *w = z ^ (z >> 31);
        }
        SimRng { s, base_seed: seed }
    }

    /// The seed this stream was created from.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// Derives an independent child stream, keyed by `label`. The child's
    /// sequence depends only on `(base_seed, label)` — not on how many draws
    /// the parent has already made — so forking is order-insensitive.
    pub fn fork(&self, label: u64) -> SimRng {
        // splitmix64 over the (seed, label) pair.
        let mut z = label
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.base_seed.rotate_left(17));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SimRng::seed_from_u64(z ^ (z >> 31))
    }

    /// Uniform draw in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "SimRng::below(0)");
        self.range(0, bound)
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "SimRng::range: empty range");
        let span = hi - lo;
        let zone = accept_zone(span);
        loop {
            let (value, accepted) = self.candidate(span, zone);
            if accepted {
                return lo + value;
            }
        }
    }

    /// One Lemire widening-multiply candidate under `span`: the product's
    /// high half, and whether its low half is at most `zone`
    /// ([`accept_zone`]). The accepted values are unbiased. By the span's
    /// leading bits, the zone keeps from half of the candidates (under 1
    /// or any power of two) to nearly all of them (under `u64::MAX`).
    fn candidate(&mut self, span: u64, zone: u64) -> (u64, bool) {
        let m = u128::from(self.next_u64()) * u128::from(span);
        ((m >> 64) as u64, m as u64 <= zone)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed draw with the given mean (used for Poisson
    /// cross-traffic inter-arrival times). Returns `mean` unchanged for
    /// degenerate (non-positive or non-finite) inputs.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean.is_nan() || mean <= 0.0 || mean == f64::INFINITY {
            return mean;
        }
        let u = 1.0 - self.unit_f64(); // in (0, 1]
        -mean * u.ln()
    }

    /// Raw 64-bit draw (the xoshiro256++ output function).
    pub fn next_u64(&mut self) -> u64 {
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

    /// Fisher–Yates shuffle of a slice: for each position `i` from the
    /// last down to 1, one `below(i + 1)` draw `j` and a swap of `i` and
    /// `j`.
    ///
    /// The draws for up to `SHUFFLE_CHUNK` (64) positions are taken first,
    /// into a stack buffer, and the chunk's swaps applied after them in
    /// the same order. A draw depends only on its position, never on the
    /// slice, so the permutation, the draws and the state left behind are
    /// those of swapping after each draw. Taken in a loop of their own,
    /// the draws need no branch on the accept test.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        let mut draws = [0u64; SHUFFLE_CHUNK];
        // Positions `top - 1` down to 1 are still to be drawn.
        let mut top = slice.len();
        while top > 1 {
            let n = (top - 1).min(SHUFFLE_CHUNK);
            self.positions_below(top, &mut draws[..n]);
            for (k, &j) in draws[..n].iter().enumerate() {
                slice.swap(top - 1 - k, j as usize);
            }
            top -= n;
        }
    }

    /// The shuffle's draws for positions `top - 1` down to
    /// `top - out.len()`: slot `k` holds a `below(top - k)` draw. Not
    /// generic, so the draw loop is compiled here once, next to
    /// [`SimRng::next_u64`], for every element type.
    ///
    /// A rejected candidate is written and then overwritten by the next
    /// one: the slot index steps on the accept test's outcome instead of
    /// branching on it, a branch that mispredicts often when the zone
    /// rejects up to half the candidates.
    fn positions_below(&mut self, top: usize, out: &mut [u64]) {
        let mut k = 0;
        while k < out.len() {
            let span = (top - k) as u64;
            let (value, accepted) = self.candidate(span, accept_zone(span));
            out[k] = value;
            k += usize::from(accepted);
        }
    }
}

/// Positions whose draws [`SimRng::shuffle`] takes at a time.
const SHUFFLE_CHUNK: usize = 64;

/// The largest low half of a candidate's product that
/// [`SimRng::candidate`] accepts under `span`: `span` shifted up to the top
/// bit, less one.
fn accept_zone(span: u64) -> u64 {
    (span << span.leading_zeros()).wrapping_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn reference_vector_from_xoshiro_seed_zero() {
        // splitmix64(0) expansion gives the canonical state; the first
        // outputs are fixed for all time. Golden values pin the generator
        // so a refactor can never silently change every experiment.
        let mut r = SimRng::seed_from_u64(0);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                0x5317_5D61_490B_23DF,
                0x61DA_6F3D_C380_D507,
                0x5C0F_DF91_EC9A_7BFC,
                0x02EE_BF8C_3BBE_5E1A,
            ]
        );
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be essentially disjoint");
    }

    #[test]
    fn forks_are_independent_of_draw_position() {
        let parent = SimRng::seed_from_u64(7);
        let mut c1 = parent.fork(3);
        let mut drained = SimRng::seed_from_u64(7);
        for _ in 0..10 {
            drained.next_u64();
        }
        let mut c2 = drained.fork(3);
        for _ in 0..32 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn forks_with_different_labels_differ() {
        let parent = SimRng::seed_from_u64(7);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn below_covers_the_whole_range() {
        let mut r = SimRng::seed_from_u64(13);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unit_f64_stays_in_interval() {
        let mut r = SimRng::seed_from_u64(21);
        for _ in 0..10_000 {
            let x = r.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn exponential_has_roughly_right_mean() {
        let mut r = SimRng::seed_from_u64(11);
        let n = 20_000;
        let mean = 250.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let got = sum / n as f64;
        assert!((got - mean).abs() < mean * 0.05, "mean {got} vs {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from_u64(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-5.0));
        assert!(r.chance(5.0));
    }

    /// The shuffle as one draw and one swap per position, over `below`.
    fn one_draw_one_swap<T>(rng: &mut SimRng, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    #[test]
    fn shuffle_takes_the_draws_and_swaps_of_one_draw_one_swap() {
        // Lengths past 64 cross the chunk edge, up to four times.
        for seed in 0..64 {
            for len in 0..=300u32 {
                let mut chunked = SimRng::seed_from_u64(seed);
                let mut reference = chunked.clone();
                let mut got: Vec<u32> = (0..len).collect();
                let mut want = got.clone();
                chunked.shuffle(&mut got);
                one_draw_one_swap(&mut reference, &mut want);
                assert_eq!(got, want, "seed {seed}, length {len}");
                assert_eq!(
                    chunked.next_u64(),
                    reference.next_u64(),
                    "state after: seed {seed}, length {len}"
                );
            }
        }
    }

    #[test]
    fn shuffle_golden_permutation() {
        // Captured before the draws were taken in chunks.
        let mut r = SimRng::seed_from_u64(0);
        let mut v: Vec<u32> = (0..20).collect();
        r.shuffle(&mut v);
        assert_eq!(
            v,
            [9, 18, 5, 17, 2, 8, 15, 3, 10, 14, 13, 1, 4, 11, 12, 16, 0, 19, 7, 6]
        );
        assert_eq!(r.next_u64(), 0x8315_93E6_B50A_E928);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 100-element shuffle virtually never fixes");
    }
}
