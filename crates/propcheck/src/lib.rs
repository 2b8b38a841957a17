//! The workspace's property-test harness, under the `proptest` macro names
//! the test files were written against: `proptest!` runs each property
//! [`CASES`] times over a deterministic splitmix64 stream seeded from the
//! length of the property's name, so a failure repeats on every run. There is
//! no shrinking; a failing property panics with its name, the case index and
//! the seed.
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Cases per property.
pub const CASES: u32 = 32;

/// Runs `case` [`CASES`] times on one stream; what `proptest!` expands to.
/// A panicking case is re-raised with the property's name, the case index
/// and the stream's seed in front of its message.
pub fn run(name: &str, mut case: impl FnMut(&mut TestRng)) {
    let seed = 0x5eed ^ name.len() as u64;
    let mut rng = TestRng::new(seed);
    for i in 0..CASES {
        if let Err(cause) = catch_unwind(AssertUnwindSafe(|| case(&mut rng))) {
            let msg = match (cause.downcast_ref::<String>(), cause.downcast_ref::<&str>()) {
                (Some(s), _) => s.as_str(),
                (None, Some(s)) => s,
                (None, None) => "(non-string panic payload)",
            };
            panic!("property `{name}` failed at case {i} of {CASES} (seed {seed:#x}): {msg}");
        }
    }
}

/// Runs `f` on its own thread and fails, instead of hanging the suite, if
/// it has not finished after a minute: the guard of the tests that drive a
/// thread pool into a deadlock-prone path. A panic in `f` is re-raised.
pub fn must_finish(f: impl FnOnce() + Send + 'static) {
    use std::sync::mpsc;
    let (tx, rx) = mpsc::channel();
    let t = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(std::time::Duration::from_secs(60)) {
        Ok(()) => t.join().unwrap(),
        // The sender is dropped without a send when `f` panicked.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(t.join().unwrap_err())
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("hung: not finished after 60 s"),
    }
}

pub struct TestRng {
    s: u64,
}
impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng { s: seed }
    }
    pub fn next_u64(&mut self) -> u64 {
        self.s = self.s.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

pub trait Strategy {
    type Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_strategy {
    ($t:ty) => {
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128 - self.start as i128) as u128;
                assert!(span > 0, "empty strategy range");
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    };
}
int_strategy!(usize);
int_strategy!(u64);
int_strategy!(u32);

impl Strategy for Range<f32> {
    type Value = f32;
    fn sample(&self, rng: &mut TestRng) -> f32 {
        let u = ((rng.next_u64() >> 11) as f64) / (1u64 << 53) as f64;
        self.start + (self.end - self.start) * u as f32
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        let u = ((rng.next_u64() >> 11) as f64) / (1u64 << 53) as f64;
        self.start + (self.end - self.start) * u
    }
}

/// Constant strategy: always yields a clone of the wrapped value.
#[derive(Clone, Copy)]
pub struct Just<T>(pub T);
impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among boxed samplers — the `prop_oneof!` backing type.
pub struct OneOf<T>(pub Vec<Sampler<T>>);
/// One alternative of a [`OneOf`].
pub type Sampler<T> = Box<dyn Fn(&mut TestRng) -> T>;
impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let i = (rng.next_u64() as usize) % self.0.len();
        (self.0[i])(rng)
    }
}

#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {{
        $crate::OneOf(vec![$(
            Box::new(move |rng: &mut $crate::TestRng| $crate::Strategy::sample(&($s), rng))
                as $crate::Sampler<_>
        ),+])
    }};
}

pub mod bool {
    pub struct Any;
    pub const ANY: Any = Any;
    impl crate::Strategy for Any {
        type Value = ::core::primitive::bool;
        fn sample(&self, rng: &mut crate::TestRng) -> ::core::primitive::bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod collection {
    use crate::{Strategy, TestRng};
    use std::ops::Range;

    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, size }
    }
    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Just, Strategy,
    };
}

/// Skips the rest of the case (it still counts towards [`CASES`]).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return;
        }
    };
}
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run(stringify!($name), |rng| {
                    $(let $arg = $crate::Strategy::sample(&($strat), rng);)+
                    $body
                });
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    proptest! {
        #[test]
        fn samples_stay_in_range(n in 3usize..9, x in -1f32..1.0, v in crate::collection::vec(0u32..5, 1..4)) {
            prop_assert!((3..9).contains(&n));
            prop_assert!((-1.0..1.0).contains(&x));
            prop_assert!(!v.is_empty() && v.len() < 4 && v.iter().all(|&e| e < 5));
        }

        #[test]
        fn assume_skips_the_case(n in 0usize..4) {
            prop_assume!(n > 100);
            unreachable!("every case is skipped");
        }

        #[test]
        #[should_panic(expected = "property `fails_from_its_third_case` failed at case 2 of 32 (seed 0x5ef4): third case")]
        fn fails_from_its_third_case(_n in 0usize..4) {
            static CALLS: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
            let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            prop_assert!(call < 2, "third case");
        }
    }
}
