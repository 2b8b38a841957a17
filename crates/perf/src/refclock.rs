//! The reference clock: how fast is the box right now?
//!
//! The benchmark runs on a few cores of a shared host, and the same code
//! takes 20–50 % longer while a neighbour is busy — in stretches of seconds
//! to minutes, so whole runs come out slow and no statistic taken inside one
//! run repairs it (see the README's noise floor). What does repair it is a
//! yardstick measured through the same stretch: between timed pieces of work
//! the benchmark runs a small fixed kernel of its own — a 64×64×64 matrix
//! product and four sweeps over a 1 MiB buffer, the throughput-bound kind of
//! code the library's kernels are — and divides each piece's wall-clock by
//! how much slower than [`NOMINAL_NS`] the kernel ran around it. The result
//! is time in **reference seconds**: seconds of a box on which the kernel
//! takes its nominal time.
//!
//! The kernel is plain Rust in this file and calls nothing of the library,
//! so a change to the library cannot move the yardstick. Of the kernels
//! tried (a dependent ALU chain, the L2 sweep, a 32 MiB sweep, a pointer
//! chase, the matrix product) the ALU chain did not follow the slow
//! stretches at all and the sweep and the product followed them best. Over
//! sixteen runs per workload in a noisy hour the plain wall-clock of the
//! training loop spread by 18–33 % and its reference seconds by 4–7 %; the
//! README's noise floor has the table.

use std::hint::black_box;
use std::time::Instant;

/// Roughly the kernel's time on this box in a quiet hour. Only a scale: it
/// makes reference seconds read like seconds here.
pub const NOMINAL_NS: f64 = 400_000.0;
/// [`RefClock::tick`] takes a sample when this much time has passed since
/// the last one: ~1.5 % of the run goes to the yardstick.
const GATE_NS: u64 = 40_000_000;
/// A piece is judged by the mean of this many samples on either side: some
/// 0.7 s of the box's recent past and near future. Fewer samples follow the
/// box more closely but carry more of their own noise; of 2 to 24 a side,
/// mean or median, this repeated best.
const NEIGHBOURS: usize = 8;

const N: usize = 64;
const SWEEP_LEN: usize = 256 << 10;

/// A stretch of wall-clock, in nanoseconds on a [`RefClock`].
pub type Piece = (u64, u64);

pub struct RefClock {
    origin: Instant,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    sweep: Vec<f32>,
    /// `(start, duration)` of every kernel run, in time order.
    samples: Vec<(u64, u64)>,
    last_end: u64,
}

impl RefClock {
    pub fn new() -> Self {
        let mut clock = Self {
            origin: Instant::now(),
            a: vec![0.5; N * N],
            b: vec![0.25; N * N],
            c: vec![0.0; N * N],
            sweep: vec![1.0; SWEEP_LEN],
            samples: Vec::new(),
            last_end: 0,
        };
        // Touch the buffers; the first runs fault their pages in.
        for _ in 0..3 {
            clock.kernel();
        }
        clock
    }

    /// Nanoseconds since the clock was made.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn kernel(&mut self) {
        for _ in 0..4 {
            self.c.fill(0.0);
            for i in 0..N {
                for k in 0..N {
                    let aik = self.a[i * N + k];
                    let (row, out) = (&self.b[k * N..(k + 1) * N], &mut self.c[i * N..(i + 1) * N]);
                    for (o, &bkj) in out.iter_mut().zip(row) {
                        *o += aik * bkj;
                    }
                }
            }
            black_box(&mut self.c);
            for x in self.sweep.iter_mut() {
                *x = *x * 0.999 + 0.001;
            }
            black_box(&mut self.sweep);
        }
    }

    /// Runs the kernel once and records how long it took.
    pub fn sample(&mut self) {
        let start = self.now();
        self.kernel();
        self.last_end = self.now();
        self.samples.push((start, self.last_end - start));
    }

    /// [`RefClock::sample`], unless the last sample is still fresh. Call it
    /// between timed pieces, never inside one.
    pub fn tick(&mut self) {
        if self.now() - self.last_end >= GATE_NS {
            self.sample();
        }
    }

    /// Times one call as a piece. The caller samples before a leg's first
    /// piece ([`RefClock::sample`]) and after every piece ([`RefClock::tick`]).
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> (R, Piece) {
        let start = self.now();
        let r = f();
        (r, (start, self.now()))
    }

    /// Calls `f` until `min_secs` have passed and at least `min_reps` calls
    /// were made, sampling between calls; returns each call as a piece.
    pub fn time_calls(
        &mut self,
        min_secs: f64,
        min_reps: usize,
        mut f: impl FnMut(),
    ) -> Vec<Piece> {
        let mut calls = Vec::new();
        let start = Instant::now();
        self.sample();
        while calls.len() < min_reps || start.elapsed().as_secs_f64() < min_secs {
            calls.push(self.time(&mut f).1);
            self.tick();
        }
        self.sample();
        calls
    }

    /// How much slower than nominal the kernel ran around time `t`: the
    /// mean of the [`NEIGHBOURS`] samples before and after it.
    pub fn slowdown_at(&self, t: u64) -> f64 {
        let after = self.samples.partition_point(|s| s.0 < t);
        let near = &self.samples
            [after.saturating_sub(NEIGHBOURS)..(after + NEIGHBOURS).min(self.samples.len())];
        assert!(!near.is_empty(), "no reference sample was taken");
        let mean = near.iter().map(|s| s.1 as f64).sum::<f64>() / near.len() as f64;
        mean / NOMINAL_NS
    }

    /// A piece's length in reference seconds.
    pub fn ref_seconds(&self, (start, end): Piece) -> f64 {
        raw_seconds((start, end)) / self.slowdown_at(start + (end - start) / 2)
    }

    /// Kernel runs so far, their median slowdown and their extremes: how
    /// quiet the box was while this process ran.
    pub fn summary(&self) -> (usize, f64, f64, f64) {
        let mut durs: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.1 as f64 / NOMINAL_NS)
            .collect();
        durs.sort_by(f64::total_cmp);
        match durs.as_slice() {
            [] => (0, 0.0, 0.0, 0.0),
            d => (d.len(), d[d.len() / 2], d[0], d[d.len() - 1]),
        }
    }
}

impl Default for RefClock {
    fn default() -> Self {
        Self::new()
    }
}

/// A piece's plain wall-clock length in seconds.
pub fn raw_seconds((start, end): Piece) -> f64 {
    (end - start) as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_piece_is_judged_by_the_samples_around_it() {
        let mut clock = RefClock::new();
        // A slow stretch, a stretch at nominal speed, a slower stretch, of
        // 2 × NEIGHBOURS samples each, 10 ns apart.
        let ns = NOMINAL_NS as u64;
        let stretch = 2 * NEIGHBOURS as u64;
        clock.samples = (0..3 * stretch)
            .map(|i| (10 * i, [2, 1, 3][(i / stretch) as usize] * ns))
            .collect();
        let middle_of = |s: u64| 10 * (s * stretch + stretch / 2) - 5;
        assert_eq!(clock.slowdown_at(middle_of(0)), 2.0);
        assert_eq!(clock.slowdown_at(middle_of(1)), 1.0);
        assert_eq!(clock.slowdown_at(middle_of(2)), 3.0);
        // On the border it sees half of either stretch; at the ends, what
        // there is.
        assert_eq!(clock.slowdown_at(10 * stretch - 5), 1.5);
        assert_eq!(clock.slowdown_at(0), 2.0);
        assert_eq!(clock.slowdown_at(u64::MAX), 3.0);
        // 2e9 ns of wall-clock on a box running at half speed is one
        // reference second.
        clock.samples = vec![(0, 2 * ns), (4_000_000_000, 2 * ns)];
        assert_eq!(clock.ref_seconds((1_000_000_000, 3_000_000_000)), 1.0);
    }

    #[test]
    fn tick_waits_for_the_gate() {
        let mut clock = RefClock::new();
        clock.sample();
        clock.tick();
        assert_eq!(clock.samples.len(), 1);
        std::thread::sleep(std::time::Duration::from_nanos(GATE_NS));
        clock.tick();
        assert_eq!(clock.samples.len(), 2);
        let (n, median, min, max) = clock.summary();
        assert!(n == 2 && min <= median && median <= max && min > 0.0);
    }
}
