//! The workspace's random-number generator: a seeded splitmix64 stream behind
//! the handful of `rand 0.8` names the tree uses (`rngs::StdRng`,
//! `SeedableRng::seed_from_u64`, `Rng::{gen, gen_range}`,
//! `seq::SliceRandom::shuffle`).
//!
//! This is the generator of record: every initial weight, synthetic dataset
//! and shuffle order — and so every trained number in README, CHANGES and
//! `BENCHMARK.json` — is drawn from this stream. Changing what any function
//! here returns for a given seed re-rolls all of them; `tests/golden.rs` pins
//! the stream so that cannot happen silently. Integer `gen_range` and
//! `shuffle` reduce with `%`, and that modulo bias is part of the stream.
//!
//! The file is self-contained (std only): `crates/perf/build.sh` also
//! compiles it on its own through the `.claude/skills/verify/stubs/rand.rs`
//! symlink.
use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait Rng: RngCore {
    /// A uniform `f32` / `f64` in `[0, 1)`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }
    /// A uniform value in `range`; panics on an empty integer range.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_one(self)
    }
}
impl<R: RngCore> Rng for R {}

/// Types `Rng::gen` can draw.
pub trait Standard {
    fn sample<R: RngCore>(r: &mut R) -> Self;
}
impl Standard for f32 {
    fn sample<R: RngCore>(r: &mut R) -> f32 {
        ((r.next_u64() >> 40) as f32) / (1u64 << 24) as f32
    }
}
impl Standard for f64 {
    fn sample<R: RngCore>(r: &mut R) -> f64 {
        ((r.next_u64() >> 11) as f64) / (1u64 << 53) as f64
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

pub mod rngs {
    /// splitmix64; the seed is the initial state.
    pub struct StdRng {
        s: u64,
    }
    impl crate::RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.s = self.s.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }
    impl crate::SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            StdRng { s: state }
        }
    }
}

/// Range types `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    fn sample_one<R: RngCore>(self, rng: &mut R) -> T;
}

impl SampleRange<f32> for Range<f32> {
    fn sample_one<R: RngCore>(self, rng: &mut R) -> f32 {
        let u = ((rng.next_u64() >> 11) as f64) / (1u64 << 53) as f64;
        self.start + (self.end - self.start) * u as f32
    }
}

macro_rules! int_range {
    ($t:ty) => {
        impl SampleRange<$t> for Range<$t> {
            fn sample_one<R: RngCore>(self, rng: &mut R) -> $t {
                let span = (self.end as i128 - self.start as i128) as u128;
                assert!(span > 0, "empty range");
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_one<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                let span = (hi as i128 - lo as i128 + 1) as u128;
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    };
}
int_range!(usize);
int_range!(i32);

pub mod seq {
    use crate::RngCore;
    pub trait SliceRandom {
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);
    }
    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() as usize) % (i + 1);
                self.swap(i, j);
            }
        }
    }
}
