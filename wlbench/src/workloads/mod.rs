//! The four workloads. Each closed-loop client runs from this one
//! process, with at most two worker threads, and drives the library only
//! through its public API.

use std::time::{Duration, Instant};

use crate::clock::CpuTime;
use crate::stats::median_of;
use crate::{Args, Outcome};

mod costs;
mod point;
mod recover;
mod serve;
mod sim;

pub const NAMES: [&str; 4] = [
    "serve-hot-writes",
    "point-ops-wide",
    "recover-prove",
    "sim-mix1",
];

pub fn run(args: &Args) -> Option<Outcome> {
    Some(match args.workload.as_str() {
        "serve-hot-writes" => serve::run(args),
        "point-ops-wide" => point::run(args),
        "recover-prove" => recover::run(args),
        "sim-mix1" => sim::run(args),
        _ => return None,
    })
}

/// Runs `setup` `times` times, dropping each result before the next, and
/// returns the median set-up CPU time in seconds with the last result.
pub fn repeat_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(times);
    let mut kept = None;
    for _ in 0..times {
        drop(kept.take());
        let start = CpuTime::now();
        let value = setup();
        secs.push(start.elapsed_ns() as f64 / 1e9);
        kept = Some(value);
    }
    (median_of(&secs), kept.expect("at least one set-up"))
}

/// A measuring window of fixed length.
pub struct Window {
    start: Instant,
    length: Duration,
}

impl Window {
    pub fn new(seconds: f64) -> Self {
        Window {
            start: Instant::now(),
            length: Duration::from_secs_f64(seconds),
        }
    }

    /// Whether the window is still open. Runs a host-speed reference
    /// chunk between requests when one is due.
    pub fn open(&self) -> bool {
        crate::reference::tick();
        self.start.elapsed() < self.length
    }
}

/// Writes the traced run's spans to `wlbench/out/` (created on demand)
/// and returns a note naming the file.
pub fn write_trace(tracer: &crate::spans::Tracer, args: &Args) -> String {
    let dir = std::path::Path::new("wlbench").join("out");
    let path = dir.join(format!("spans-{}.json", args.workload));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json(&args.workload, args.seed)))
    {
        Ok(()) => format!("spans written to {}", path.display()),
        Err(e) => format!("spans not written ({}): {e}", path.display()),
    }
}
