//! One timing helper for the micro-benches and the perf harness.
//!
//! A single timed window on a shared machine is one draw, not a figure: the
//! same binary can read 30% apart from run to run. So every timing here is
//! repeated and reported as the median with its quartiles.

use std::fmt;
use std::hint::black_box;
use std::time::{Duration, Instant};

use gllm_workload::percentile;
use serde::Serialize;

/// Measured windows per micro-bench, after one untimed warm-up window.
pub const WINDOWS: usize = 9;
/// Timed length of one micro-bench window.
pub const WINDOW: Duration = Duration::from_millis(100);

/// Median and quartiles of repeated samples. `Display` reads them as
/// seconds, in the unit that suits the median: `18.578 [18.538–18.856] µs`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Spread {
    /// 50th percentile.
    pub median: f64,
    /// 25th percentile.
    pub q1: f64,
    /// 75th percentile.
    pub q3: f64,
}

impl Spread {
    /// Summarise `samples` (all zeros when empty).
    pub fn of(samples: &[f64]) -> Self {
        Self {
            median: percentile(samples, 50.0),
            q1: percentile(samples, 25.0),
            q3: percentile(samples, 75.0),
        }
    }
}

impl fmt::Display for Spread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (scale, unit) = match self.median {
            m if m >= 1.0 => (1.0, "s"),
            m if m >= 1e-3 => (1e3, "ms"),
            m if m >= 1e-6 => (1e6, "µs"),
            _ => (1e9, "ns"),
        };
        let (m, q1, q3) = (self.median * scale, self.q1 * scale, self.q3 * scale);
        write!(f, "{m:.3} [{q1:.3}–{q3:.3}] {unit}")
    }
}

/// Run `f` once: its wall-clock seconds and its result.
pub fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Seconds per call of `routine`. A warm-up window sizes the iteration
/// count that fills [`WINDOW`]; each of [`WINDOWS`] windows then times
/// that many calls back to back.
pub fn per_iteration<O>(mut routine: impl FnMut() -> O) -> Spread {
    let (mut batch, mut done) = (1u64, 0u64);
    let start = Instant::now();
    while start.elapsed() < WINDOW {
        for _ in 0..batch {
            black_box(routine());
        }
        done += batch;
        batch *= 2;
    }
    let fit = done as f64 * WINDOW.as_secs_f64() / start.elapsed().as_secs_f64();
    let iters = (fit.ceil() as u64).max(1);
    let samples: Vec<f64> = (0..WINDOWS)
        .map(|_| {
            let (s, ()) = time(|| {
                for _ in 0..iters {
                    black_box(routine());
                }
            });
            s / iters as f64
        })
        .collect();
    Spread::of(&samples)
}

/// Seconds per call of `routine` on a fresh `setup()` input, with the
/// setup untimed. Each of [`WINDOWS`] windows (after one warm-up window)
/// runs calls until their timed total reaches [`WINDOW`].
pub fn per_iteration_batched<I, O>(
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> O,
) -> Spread {
    let mut window = || {
        let (mut timed, mut iters) = (Duration::ZERO, 0u32);
        while timed < WINDOW {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            timed += start.elapsed();
            iters += 1;
        }
        timed.as_secs_f64() / f64::from(iters)
    };
    window();
    let samples: Vec<f64> = (0..WINDOWS).map(|_| window()).collect();
    Spread::of(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_the_median_and_quartiles() {
        let s = Spread::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s, Spread { median: 3.0, q1: 2.0, q3: 4.0 });
        assert_eq!(Spread::of(&[]), Spread { median: 0.0, q1: 0.0, q3: 0.0 });
        assert_eq!(Spread::of(&[2e-5, 1e-5, 3e-5]).to_string(), "20.000 [15.000–25.000] µs");
    }

    #[test]
    fn batched_setup_stays_out_of_the_timing() {
        let pause = Duration::from_millis(5);
        let (mut setups, mut calls) = (0u32, 0u32);
        let s = per_iteration_batched(
            || {
                setups += 1;
                std::thread::sleep(pause);
            },
            |()| {
                calls += 1;
                std::thread::sleep(pause);
            },
        );
        assert_eq!(setups, calls, "every call gets a fresh setup");
        assert!(s.q1 <= s.median && s.median <= s.q3);
        // A call sleeps 5 ms, and so does its setup: a median of 10 ms or
        // more would mean the setup was timed too.
        assert!((0.005..0.0095).contains(&s.median), "{s:?}");
    }
}
