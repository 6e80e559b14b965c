//! The clock every timing in the harness reads: the calling thread's CPU
//! time (`CLOCK_THREAD_CPUTIME_ID`), user plus kernel.
//!
//! Every timed request runs on the client thread alone, so on an idle
//! machine its CPU time is its wall time. On a shared, paravirtualized
//! host the two differ by the time the hypervisor gives the CPU to
//! someone else (steal), which wall time would charge to the program.
//! Only the measuring window and the 2-worker speed-up use wall time.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// A reading of the calling thread's CPU clock.
#[derive(Debug, Clone, Copy)]
pub struct CpuTime(u64);

impl CpuTime {
    pub fn now() -> Self {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec, and the clock id is
        // the Linux constant for the calling thread's CPU-time clock.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
        CpuTime(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
    }

    /// Nanoseconds of this thread's CPU time since `self`.
    pub fn elapsed_ns(self) -> u64 {
        CpuTime::now().0 - self.0
    }

    pub fn elapsed_us(self) -> f64 {
        self.elapsed_ns() as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_advances_with_work() {
        let start = CpuTime::now();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(start.elapsed_ns() > 0);
        // Sleeping costs no CPU time.
        let slept = CpuTime::now();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(slept.elapsed_ns() < 20_000_000);
    }
}
