//! The one generated-case engine: [`check`] runs a property on `count`
//! cases, each drawn by a generator from a seed derived from the test's
//! name, and on a failure shrinks the case and panics with what replays it.
//!
//! A generator is any `Fn(&mut Gen) -> T`: it draws ranges, vectors, picks
//! and coins from a [`Gen`]. Only collection lengths read the `Gen`'s size,
//! so a case drawn again from its seed at a smaller size has shorter
//! collections. A failing case is re-drawn at halved sizes until the
//! property passes, the gap to the last failing size is bisected, and the
//! panic names the test, the case index, the seed, the smallest failing
//! size and the `Debug` of the case drawn there. Seeds depend on the name
//! alone, so re-running the test
//! (`cargo test -p <crate> --test <file> <name> -- --exact`) replays the
//! same cases and shrinks to the same one.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SampleRange, SeedableRng};
use std::any::Any;
use std::fmt::Debug;
use std::ops::{Bound, RangeBounds};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The draws of one case: a seeded stream and the size collection lengths
/// scale with.
pub struct Gen {
    rng: StdRng,
    size: u32,
}

impl Gen {
    /// The size every case is first drawn at.
    pub const FULL: u32 = 1 << 10;

    fn new(seed: u64, size: u32) -> Self {
        Self { rng: StdRng::seed_from_u64(seed), size }
    }

    /// A uniform draw from `range`; an inclusive range draws its end too.
    pub fn range<T>(&mut self, range: impl SampleRange<T>) -> T {
        self.rng.gen_range(range)
    }

    /// A collection length in `len`, scaled by the size: at size `s` the
    /// range's top is pulled in to `lo + (hi − lo)·s / FULL`, and one
    /// uniform quantile picks within that, so the same draw at a smaller
    /// size is never longer.
    pub fn length(&mut self, len: impl RangeBounds<usize>) -> usize {
        let lo = match len.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match len.end_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.checked_sub(1).expect("empty length range"),
            Bound::Unbounded => panic!("a length range needs an end"),
        };
        assert!(lo <= hi, "empty length range {lo}..={hi}");
        let span = (hi - lo) as u128 * u128::from(self.size) / u128::from(Self::FULL) + 1;
        lo + ((u128::from(self.rng.next_u64()) * span) >> 64) as usize
    }

    /// A vector of [`length`](Self::length) `len`, each element drawn by `elem`.
    pub fn vec<T>(&mut self, len: impl RangeBounds<usize>, mut elem: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.length(len);
        (0..n).map(|_| elem(self)).collect()
    }

    /// One of `options`, uniformly.
    pub fn pick<T: Clone>(&mut self, options: &[T]) -> T {
        options[self.rng.gen_range(0..options.len())].clone()
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() >> 63 == 1
    }
}

fn seed(name: &str, case: u32) -> u64 {
    let fnv1a = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    });
    fnv1a.wrapping_add(u64::from(case))
}

fn message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload.downcast_ref::<&str>().map_or("(not a string)", |s| s).to_owned(),
    }
}

/// Runs `property` on `count` cases drawn by `generate`, the seeds derived
/// from `name`; panics on the first failing case, shrunk (module docs).
pub fn check<T: Debug>(name: &str, count: u32, generate: impl Fn(&mut Gen) -> T, property: impl Fn(T)) {
    for case in 0..count {
        let seed = seed(name, case);
        let failure = |size| {
            let input = generate(&mut Gen::new(seed, size));
            catch_unwind(AssertUnwindSafe(|| property(input))).err().map(message)
        };
        let Some(mut why) = failure(Gen::FULL) else { continue };
        // Halve the size while the case fails; once one passes, bisect the
        // gap to the smallest failing size.
        let (mut passes, mut fails) = (None, Gen::FULL);
        while fails > passes.map_or(0, |p| p + 1) {
            let size = passes.map_or(fails / 2, |p| p + (fails - p) / 2);
            match failure(size) {
                Some(w) => (fails, why) = (size, w),
                None => passes = Some(size),
            }
        }
        let minimal = generate(&mut Gen::new(seed, fails));
        panic!(
            "{name}: case {case} of {count} failed (seed {seed:#018x}, size {fails} of {}): \
             {why}\n  shrunk case: {minimal:?}\n  re-running {name} replays it",
            Gen::FULL
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::BTreeSet;

    #[test]
    fn ranges_keep_their_bounds_and_inclusive_ends_are_drawn() {
        // `pow2(1, 6)` at the smallest case count a ported suite gives it.
        let exponents = RefCell::new(BTreeSet::new());
        let draw = |g: &mut Gen| (g.range(3usize..17), g.range(-2.0f32..2.0), g.range(0.5f64..=0.75), g.range(1u32..=6));
        check("ranges_keep_their_bounds_and_inclusive_ends_are_drawn", 16, draw, |(x, y, z, e)| {
            assert!((3..17).contains(&x) && (-2.0..2.0).contains(&y) && (0.5..=0.75).contains(&z));
            exponents.borrow_mut().insert(e);
        });
        let seen = exponents.into_inner();
        assert_eq!((seen.first(), seen.last()), (Some(&1), Some(&6)), "{seen:?}");
    }

    #[test]
    fn vectors_keep_their_length_and_element_bounds() {
        let draw = |g: &mut Gen| (g.vec(2..9, |g| g.range(0.0f32..1.0)), g.vec(24..=24, |g| g.range(0u64..5)));
        check("vectors_keep_their_length_and_element_bounds", 32, draw, |(xs, fixed)| {
            assert!((2..9).contains(&xs.len()) && xs.iter().all(|x| (0.0..1.0).contains(x)));
            assert!(fixed.len() == 24 && fixed.iter().all(|&x| x < 5));
        });
        // At size 0 every length is its range's shortest.
        let mut g = Gen::new(1, 0);
        assert_eq!((g.length(3..9), g.length(0..=40), g.length(7..=7)), (3, 0, 7));
    }

    #[test]
    fn picks_and_mapped_draws_compose() {
        let coins = RefCell::new(BTreeSet::new());
        let draw = |g: &mut Gen| (1usize << g.range(1u32..=6), g.pick(&[1, 2, 3]), g.bool());
        check("picks_and_mapped_draws_compose", 32, draw, |(n, pick, coin)| {
            assert!(n.is_power_of_two() && (2..=64).contains(&n) && (1..=3).contains(&pick));
            coins.borrow_mut().insert(coin);
        });
        assert_eq!(coins.into_inner().len(), 2, "a coin lands both ways");
    }

    #[test]
    fn a_name_draws_the_same_cases_every_run() {
        let run = |name| {
            let drawn = RefCell::new(Vec::new());
            check(name, 8, |g| g.vec(0..8, |g| g.range(0.0f32..1.0)), |xs| drawn.borrow_mut().push(xs));
            drawn.into_inner()
        };
        assert_eq!(run("t"), run("t"));
        assert_ne!(run("t"), run("u"));
    }

    #[test]
    fn a_failure_prints_a_seed_and_size_that_replay_the_smallest_case() {
        // Fails only for five or more elements: the smallest failing case
        // has exactly five.
        let generate = |g: &mut Gen| g.vec(0..=40, |g| g.range(0u32..100));
        let payload = catch_unwind(|| {
            check("planted", 64, generate, |xs| assert!(xs.len() < 5, "{} elements", xs.len()))
        })
        .expect_err("a case of five or more elements is drawn");
        let msg = message(payload);
        let field = |key: &str| {
            let rest = &msg[msg.find(key).unwrap_or_else(|| panic!("no {key:?} in {msg}")) + key.len()..];
            rest[..rest.find(|c: char| !c.is_ascii_alphanumeric()).unwrap()].to_owned()
        };
        let case: u32 = field("case ").parse().unwrap();
        let seed_drawn = u64::from_str_radix(field("seed 0x").as_str(), 16).unwrap();
        let size: u32 = field("size ").parse().unwrap();
        assert_eq!(seed_drawn, seed("planted", case), "{msg}");
        assert!(msg.starts_with("planted: "), "{msg}");
        let minimal = generate(&mut Gen::new(seed_drawn, size));
        assert_eq!(minimal.len(), 5, "{msg}");
        assert!(msg.contains(&format!("shrunk case: {minimal:?}")), "{msg}");
        assert!(msg.contains("5 elements"), "the property's own message: {msg}");
    }
}
