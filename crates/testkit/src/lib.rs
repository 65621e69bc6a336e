//! A small deterministic property-testing harness.
//!
//! The workspace test suites exercise randomized properties (reduction
//! invariance, solver agreement, mesh continuity) without any external
//! crates: [`Rng`] is a splitmix64 generator, and [`cases`] runs a property
//! over a fixed number of derived seeds, reporting the failing seed so a
//! case can be replayed exactly (`Rng::new(seed)`).
//!
//! Unlike proptest there is no shrinking: generators here are simple enough
//! that the printed seed plus the case index identifies the failure.
//!
//! [`oracle`] holds the reference implementations the bitwise tests
//! compare production code against.

pub mod oracle;

/// Deterministic pseudo-random generator (splitmix64).
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seeded generator; equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        Rng {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit_f64()
    }

    /// Uniform integer in `[lo, hi)` (half-open; `hi > lo`).
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(hi > lo, "empty range");
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Uniform `u64` in `[0, n)`.
    pub fn u64_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.next_u64() % n
    }

    /// Fair coin.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Vector of `n` uniform values in `[lo, hi)`.
    pub fn vec_f64(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| self.f64_in(lo, hi)).collect()
    }
}

/// Run `body` for `n` cases with independent deterministic seeds.
///
/// The case index doubles as the seed base, so a failure message like
/// `property case 17` replays with `Rng::new(mix(17))` — use
/// [`case_rng`] to rebuild the generator.
pub fn cases(n: usize, mut body: impl FnMut(&mut Rng, usize)) {
    for case in 0..n {
        let mut rng = case_rng(case);
        body(&mut rng, case);
    }
}

/// The generator used for case `case` by [`cases`].
pub fn case_rng(case: usize) -> Rng {
    Rng::new((case as u64).wrapping_mul(0xA076_1D64_78BD_642F) ^ 0x2545_F491_4F6C_DD1D)
}

/// Assert with the failing case index in the panic message.
#[macro_export]
macro_rules! prop_assert {
    ($case:expr, $cond:expr $(, $fmt:expr $(, $args:expr)*)?) => {
        assert!(
            $cond,
            concat!("property case {}: ", $($fmt)?),
            $case $($(, $args)*)?
        );
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = Rng::new(43);
        assert_ne!(a[0], r.next_u64());
    }

    #[test]
    fn ranges_are_respected() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            let x = r.f64_in(-2.5, 3.5);
            assert!((-2.5..3.5).contains(&x));
            let k = r.usize_in(3, 9);
            assert!((3..9).contains(&k));
        }
    }

    #[test]
    fn unit_values_fill_the_interval() {
        let mut r = Rng::new(1);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..4000 {
            let x = r.unit_f64();
            lo = lo.min(x);
            hi = hi.max(x);
        }
        assert!(lo < 0.01 && hi > 0.99, "lo={lo} hi={hi}");
    }

    #[test]
    fn cases_runs_every_index() {
        let mut seen = Vec::new();
        cases(5, |_rng, i| seen.push(i));
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }
}
