//! The host-speed reference: a fixed loop of core and memory work that
//! runs in short chunks interleaved with every measuring window, so that
//! its mean chunk time tracks how fast this host ran during the run.
//!
//! The benchmark runs on a few vCPUs of a shared host. Other guests load
//! the shared cores, L3 and memory, and the program's request times
//! follow their load: in stretches from seconds to minutes, a simulation
//! or a proof round trip ran up to 60% slower, and random reads over a
//! buffer larger than L2 slowed with them. Every end-to-end time is
//! therefore reported normalized: its measured CPU time times
//! [`NOMINAL_NS`] over the run's mean chunk time (`ref_us`). The chunk's
//! code is the benchmark's own, so a change to the program moves the
//! normalized times exactly as it moves the measured ones.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::clock::CpuTime;

/// Words of the large buffer: 64 MiB, past L2 and most of a shared L3.
const LARGE_WORDS: usize = 16 << 20;
/// Words of the small buffer: 4 MiB, about twice L2.
const SMALL_WORDS: usize = 1 << 20;
/// Work per chunk, each part about 3 ms on the host the benchmark was
/// built on: a dependent multiply chain (core speed), dependent loads
/// over the large buffer (load latency), and independent loads over the
/// large and the small buffer (load throughput). Every chunk loads the
/// same addresses, so whether they come from L3 or from memory depends
/// on how much of L3 other guests took since the last chunk.
const ALU_STEPS: u64 = 1_500_000;
const CHASE_STEPS: u32 = 30_000;
const LARGE_READS: u32 = 200_000;
const SMALL_READS: u32 = 350_000;
/// A chunk runs when at least this much wall time passed since the last.
const INTERVAL: Duration = Duration::from_millis(250);
/// The chunk time at which a normalized time equals the measured one. A
/// chunk took 13 to 14.5 ms on the host the benchmark was built on, so
/// normalized times read about 0.7 of the measured ones there.
pub const NOMINAL_NS: f64 = 10e6;

struct Reference {
    large: Vec<u32>,
    small: Vec<u32>,
    last: Option<Instant>,
    chunks_ns: Vec<f64>,
}

thread_local! {
    static REFERENCE: RefCell<Option<Reference>> = const { RefCell::new(None) };
}

/// Allocates and fills the buffers (non-zero, so every page is backed)
/// and runs one untimed chunk to fault them in.
pub fn init() {
    let fill = |n: usize| -> Vec<u32> {
        (0..n as u32)
            .map(|i| i.wrapping_mul(0x9e37_79b9) | 1)
            .collect()
    };
    let r = Reference {
        large: fill(LARGE_WORDS),
        small: fill(SMALL_WORDS),
        last: None,
        chunks_ns: Vec::new(),
    };
    black_box(chunk(&r));
    REFERENCE.with(|cell| *cell.borrow_mut() = Some(r));
}

/// Independent random reads over `buf`.
fn reads(buf: &[u32], n: u32) -> u64 {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut sum = 0u64;
    let mask = buf.len() - 1;
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum = sum.wrapping_add(u64::from(buf[x as usize & mask]));
    }
    sum
}

/// A dependent chain of multiplies and shifts.
fn alu(n: u64) -> u64 {
    let mut x = 1u64;
    for i in 0..n {
        x = (x.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (x >> 29)).wrapping_add(i);
    }
    x
}

/// Loads over `buf` whose every address depends on the value loaded
/// before, so each waits for the last.
fn chase(buf: &[u32], n: u32) -> u64 {
    let mask = buf.len() - 1;
    let mut at = 0usize;
    let mut sum = 0u64;
    for i in 0..n {
        let v = buf[at];
        sum = sum.wrapping_add(u64::from(v));
        at = (u64::from(v ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask;
    }
    sum
}

/// One chunk of the reference work.
fn chunk(r: &Reference) -> u64 {
    alu(ALU_STEPS)
        ^ chase(&r.large, CHASE_STEPS)
        ^ reads(&r.large, LARGE_READS)
        ^ reads(&r.small, SMALL_READS)
}

/// Runs a timed chunk if [`INTERVAL`] has passed since the last one.
/// Measuring loops call this between requests; before [`init`] it does
/// nothing.
pub fn tick() {
    REFERENCE.with(|cell| {
        let mut cell = cell.borrow_mut();
        let Some(r) = cell.as_mut() else {
            return;
        };
        if r.last.is_some_and(|t| t.elapsed() < INTERVAL) {
            return;
        }
        let start = CpuTime::now();
        black_box(chunk(r));
        r.chunks_ns.push(start.elapsed_ns() as f64);
        r.last = Some(Instant::now());
    });
}

/// Mean chunk time so far in nanoseconds and the number of chunks, or
/// `None` before the first timed chunk.
pub fn mean_chunk_ns() -> Option<(f64, usize)> {
    REFERENCE.with(|cell| {
        let cell = cell.borrow();
        let chunks = &cell.as_ref()?.chunks_ns;
        (!chunks.is_empty()).then(|| {
            (
                chunks.iter().sum::<f64>() / chunks.len() as f64,
                chunks.len(),
            )
        })
    })
}

/// The factor that turns a measured time into a normalized one.
pub fn factor(mean_chunk_ns: f64) -> f64 {
    NOMINAL_NS / mean_chunk_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_nominal_chunk_leaves_times_unchanged() {
        assert_eq!(factor(NOMINAL_NS), 1.0);
        // A host running chunks 25% slow scales times down by 1/1.25.
        assert_eq!(factor(NOMINAL_NS * 1.25), 0.8);
    }

    #[test]
    fn ticks_record_chunks_at_most_once_per_interval() {
        assert_eq!(mean_chunk_ns(), None);
        tick(); // before init: nothing
        assert_eq!(mean_chunk_ns(), None);
        init();
        tick();
        tick();
        let (mean, n) = mean_chunk_ns().expect("one chunk");
        assert_eq!(n, 1);
        assert!(mean > 0.0);
    }
}
