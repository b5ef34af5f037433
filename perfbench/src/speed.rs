//! Host speed, and wall times scaled to a reference speed.
//!
//! On the shared 2-vCPU VM this benchmark was built on, the CPU's speed
//! changes by up to about 1.6x over seconds to minutes, with no steal:
//! a fixed compute loop took 2.7-4.2 ms per iteration within one
//! minute, and the same watch-stream seed applied batches in a median
//! of 12.6 ms in one run and 20.4 ms in the next. A whole run can land
//! in a slow or a fast period, so raw wall-clock medians of identical
//! runs differ by more than any useful bound.
//!
//! The benchmark therefore times a fixed compute kernel next to the
//! operations it measures, on the thread that waits for them, in that
//! thread's CPU time (which leaves out preemption and steal). An
//! operation that took `t` ms of wall time while one kernel unit took
//! `u` ms reports as `t * REF_UNIT_MS / u` ms: its time on a host as
//! fast as the reference. The kernel is part of the benchmark, not of
//! the program, so a change to the program moves the scaled time by
//! exactly as much as it moves the wall time.

use crate::stats::{midpoint, splitmix64};
use std::time::{Duration, Instant};

/// One kernel unit's thread CPU time at the reference speed, ms: about
/// its median on the VM the bounds were set on.
pub const REF_UNIT_MS: f64 = 0.15;

/// Samples taken this close to an operation set the speed it ran at.
const NEAR: Duration = Duration::from_millis(500);

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time of the calling thread, ms.
fn thread_cpu_ms() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this builds for); the call
    // writes only into it.
    unsafe {
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts);
    }
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// Kernel samples of one measuring thread, in time order.
pub struct Speed {
    /// A fixed, sorted 32 KB table: the kernel stays in the core's
    /// caches and measures the core, not the memory system.
    table: Vec<u64>,
    /// (when taken, thread CPU ms per unit).
    samples: Vec<(Instant, f64)>,
}

impl Speed {
    pub fn new() -> Speed {
        let mut st = 0x5eed_5eed;
        let mut table: Vec<u64> = (0..4096).map(|_| splitmix64(&mut st) >> 40).collect();
        table.sort_unstable();
        Speed {
            table,
            samples: Vec::new(),
        }
    }

    /// One kernel unit: multiply chains and binary searches, the mix of
    /// hashing and ordered lookups the program's own loops are made of.
    fn unit(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut acc = 0u64;
        for r in 0..3u64 {
            for &v in &self.table {
                h = (h ^ v ^ r).wrapping_mul(0x0100_0000_01b3);
            }
            let mut x = h;
            for _ in 0..2000 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                acc += match self.table.binary_search(&(x >> 40)) {
                    Ok(i) | Err(i) => i as u64,
                };
            }
        }
        h ^ acc
    }

    /// Run `units` kernel units on the calling thread and keep their
    /// thread CPU time per unit.
    pub fn sample(&mut self, units: usize) {
        let t0 = thread_cpu_ms();
        for _ in 0..units {
            std::hint::black_box(self.unit());
        }
        let per = (thread_cpu_ms() - t0) / units.max(1) as f64;
        self.samples.push((Instant::now(), per));
    }

    /// Median unit time of the samples within [`NEAR`] of `[a, b]`, or
    /// of all samples when none is that close.
    fn unit_ms(&self, a: Instant, b: Instant) -> f64 {
        let lo = self.samples.partition_point(|s| s.0 + NEAR < a);
        let hi = self.samples.partition_point(|s| s.0 <= b + NEAR);
        let near: Vec<f64> = self.samples[lo..hi.max(lo)].iter().map(|s| s.1).collect();
        if near.is_empty() {
            self.median_unit_ms()
        } else {
            midpoint(&near)
        }
    }

    fn median_unit_ms(&self) -> f64 {
        midpoint(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// `ms` of wall time spent over `[a, b]`, scaled to the reference
    /// speed. Unscaled when there are no samples.
    pub fn scale(&self, ms: f64, a: Instant, b: Instant) -> f64 {
        let u = self.unit_ms(a, b);
        if u > 0.0 {
            ms * REF_UNIT_MS / u
        } else {
            ms
        }
    }

    /// The run's median unit time over the reference: above 1, the host
    /// ran slower than the reference.
    pub fn slowdown(&self) -> f64 {
        self.median_unit_ms() / REF_UNIT_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_samples(at: &[(Instant, f64)]) -> Speed {
        let mut s = Speed::new();
        s.samples = at.to_vec();
        s
    }

    #[test]
    fn scales_by_the_samples_near_the_operation() {
        let t0 = Instant::now();
        let s = |x: f64| t0 + Duration::from_secs_f64(x);
        // Twice the reference unit time near 0 s, the reference near
        // 3 s, and nothing within half a second of 1.5 s.
        let sp = with_samples(&[
            (s(0.0), 2.0 * REF_UNIT_MS),
            (s(0.2), 2.0 * REF_UNIT_MS),
            (s(3.0), REF_UNIT_MS),
            (s(3.1), REF_UNIT_MS),
            (s(3.2), REF_UNIT_MS),
        ]);
        assert!((sp.scale(10.0, s(0.1), s(0.3)) - 5.0).abs() < 1e-9);
        assert!((sp.scale(10.0, s(3.0), s(3.01)) - 10.0).abs() < 1e-9);
        // A sample just inside the window counts; one outside does not.
        assert!((sp.scale(10.0, s(0.6), s(0.7)) - 5.0).abs() < 1e-9);
        assert!((sp.scale(10.0, s(0.75), s(0.8)) - 10.0).abs() < 1e-9);
        // No sample near: the run's median (the reference here).
        assert!((sp.scale(10.0, s(1.5), s(1.6)) - 10.0).abs() < 1e-9);
        assert!((sp.slowdown() - 1.0).abs() < 1e-9);
        // No samples at all: unscaled.
        assert_eq!(with_samples(&[]).scale(7.0, s(0.0), s(1.0)), 7.0);
        // One sample on each side of an operation: their mean.
        let sp = with_samples(&[(s(0.0), REF_UNIT_MS), (s(1.0), 3.0 * REF_UNIT_MS)]);
        assert!((sp.scale(10.0, s(0.2), s(0.8)) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn a_sample_records_thread_cpu_time_per_unit() {
        let mut sp = Speed::new();
        sp.sample(2);
        let u = sp.samples[0].1;
        assert!(u > 0.0 && u < 100.0, "unit took {u} ms");
    }
}
