//! Host-speed correction for the CPU-bound workloads.
//!
//! The benchmark shares its machine with other tenants, and their load
//! changes the speed of the simulator's branchy, cache-sensitive code by up
//! to ~40 % for tens of seconds at a time: longer than a run, so no amount
//! of repetition inside a run averages it out. A probe with the same
//! character — a small event heap popped and pushed with data-dependent
//! keys, code owned by the benchmark and independent of the repository —
//! slows by about the same factor when run on the same cores. Each timed
//! operation is bracketed by probes on as many threads as it keeps busy,
//! and its time is rescaled to what it would have taken on a host running
//! the probe in [`PROBE_REF_MS`]:
//!
//! ```text
//! corrected = measured × PROBE_REF_MS / mean(probe before, probe after)
//! ```
//!
//! Raw host times are printed next to every corrected figure.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// The probe's time on the reference host (2-vCPU Xeon at 2.0 GHz, quiet),
/// in ms. A constant: it cancels in every comparison of two runs.
pub const PROBE_REF_MS: f64 = 20.0;

/// Runs the probe once and returns its host time in ms.
pub fn probe_ms() -> f64 {
    let mut heap: BinaryHeap<Reverse<u64>> = (0..32).map(Reverse).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    let t = Instant::now();
    for _ in 0..500_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let Reverse(k) = heap.pop().unwrap_or(Reverse(0));
        acc = acc.wrapping_add(k);
        let next = match x & 3 {
            0 => k + (x & 1023),
            1 => k + 7,
            _ => k + (acc & 255) + 1,
        };
        heap.push(Reverse(next));
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// One timed operation: its host time and its host-corrected time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lap {
    /// Seconds as measured.
    pub raw_s: f64,
    /// Seconds rescaled to the reference host speed.
    pub corrected_s: f64,
}

impl std::ops::Add for Lap {
    type Output = Lap;

    fn add(self, other: Lap) -> Lap {
        Lap {
            raw_s: self.raw_s + other.raw_s,
            corrected_s: self.corrected_s + other.corrected_s,
        }
    }
}

/// The laps of a run, column-wise.
#[derive(Debug, Clone, Default)]
pub struct Laps {
    /// Seconds as measured.
    pub raw_s: Vec<f64>,
    /// Host-corrected seconds.
    pub corrected_s: Vec<f64>,
}

impl Laps {
    /// Appends one lap.
    pub fn push(&mut self, lap: Lap) {
        self.raw_s.push(lap.raw_s);
        self.corrected_s.push(lap.corrected_s);
    }

    /// Number of laps.
    pub fn len(&self) -> usize {
        self.raw_s.len()
    }
}

/// Runs the probe on `threads` threads at once and returns the harmonic
/// mean of their times: the slowdown of work shared dynamically across
/// that many cores, each of which other tenants may slow differently.
fn probe_on(threads: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(probe_ms)).collect();
        let mine = probe_ms();
        std::iter::once(mine)
            .chain(others.into_iter().map(|h| h.join().unwrap_or(mine)))
            .collect()
    });
    times.len() as f64 / times.iter().map(|t| 1.0 / t).sum::<f64>()
}

/// A clock that brackets every timed operation with host-speed probes.
#[derive(Debug)]
pub struct HostClock {
    threads: usize,
    last_probe_ms: f64,
    /// Every probe time, in ms.
    pub probes_ms: Vec<f64>,
}

impl HostClock {
    /// A clock for operations that keep `threads` cores busy, probing the
    /// host once to start.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let first = probe_on(threads);
        HostClock {
            threads,
            last_probe_ms: first,
            probes_ms: vec![first],
        }
    }

    /// Times `f`, then probes the host again; the lap is corrected by the
    /// mean of the probes before and after it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Lap) {
        let t = Instant::now();
        let out = f();
        let raw_s = t.elapsed().as_secs_f64();
        let after = probe_on(self.threads);
        let speed = (self.last_probe_ms + after) / 2.0;
        self.last_probe_ms = after;
        self.probes_ms.push(after);
        let lap = Lap {
            raw_s,
            corrected_s: raw_s * PROBE_REF_MS / speed,
        };
        (out, lap)
    }
}
