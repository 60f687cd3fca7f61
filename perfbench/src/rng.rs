//! Seeded inputs: a SplitMix64 generator, so the run seed alone decides
//! which documents the service is sent and where the grid's point order
//! starts.

/// SplitMix64: a small, fast, fully specified seeded generator, so the
/// same seed yields the same inputs on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, with `stream` separating independent uses
    /// of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..5)
            .map({
                let mut r = Rng::new(42, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..5)
            .map({
                let mut r = Rng::new(42, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c = Rng::new(42, 2).next_u64();
        let d = Rng::new(43, 1).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
        assert_ne!(a[0], d);
    }

    #[test]
    fn below_is_uniform_enough_and_in_range() {
        let mut r = Rng::new(7, 0);
        let mut hist = [0usize; 5];
        for _ in 0..50_000 {
            hist[r.below(5)] += 1;
        }
        for h in hist {
            assert!((9_000..11_000).contains(&h), "{hist:?}");
        }
    }
}
