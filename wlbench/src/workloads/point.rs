//! `point-ops-wide`: one op at a time against a 1 GiB morphtree
//! `SecureMemory` whose 2^18 written lines are spread over the whole GiB.
//!
//! Primary requests are reads (90%), secondary requests writes (10%),
//! uniform over the written lines. The read path (data MAC, a 3-line
//! ancestor encode + MAC, one OTP) dominates, and the scattered footprint
//! misses the CPU caches, so store lookups cost something. No threads,
//! no batching, few overflows: `core::concurrent` is bypassed.

use morphtree_core::functional::{CryptoOps, SecureMemory};
use morphtree_core::tree::TreeConfig;

use super::costs::{OpCounts, UnitCosts};
use super::{repeat_setup, write_trace, Window};
use crate::clock::CpuTime;
use crate::probe::{self, Shadow};
use crate::rng::{derive, plaintext, Rng};
use crate::spans::Tracer;
use crate::stats::Samples;
use crate::{Args, Class, EndToEnd, Outcome};

const MEMORY_BYTES: u64 = 1 << 30;
/// Every 64th line is written: 2^24 lines / 64 = 2^18.
const STRIDE: u64 = 64;
const WRITTEN: u64 = 1 << 18;
const WRITE_PCT: u64 = 10;
const SETUPS: usize = 3;
/// Untimed ops before measuring, so lazy state and caches settle.
const SETTLE_S: f64 = 0.5;

struct State {
    mem: SecureMemory,
    /// Last version written per written line; plaintexts are a function
    /// of `(line, version)`, so this is the shadow map reads check against.
    versions: Vec<u64>,
    offset: u64,
    shadow: Option<Shadow>,
}

impl State {
    fn line(&self, i: u64) -> u64 {
        i * STRIDE + self.offset
    }
}

fn keep_level0(idx: u64) -> bool {
    idx.is_multiple_of(16)
}

fn setup(seed: u64, traced: bool) -> State {
    let offset = derive(seed, 1) % STRIDE;
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&seed.to_le_bytes());
    let mut mem = SecureMemory::new(TreeConfig::morphtree(), MEMORY_BYTES, key);
    let mut shadow =
        traced.then(|| Shadow::new(TreeConfig::morphtree(), MEMORY_BYTES, keep_level0));
    for i in 0..WRITTEN {
        let line = i * STRIDE + offset;
        mem.write(line, &plaintext(line, 1));
        if let Some(s) = shadow.as_mut() {
            s.write(line);
        }
    }
    State {
        mem,
        versions: vec![1; WRITTEN as usize],
        offset,
        shadow,
    }
}

/// Counts of one stretch of ops.
#[derive(Default)]
struct Tally {
    reads: u64,
    writes: u64,
    failed: u64,
    read_us: Samples,
    write_us: Samples,
}

/// Issues one op; returns its latency in µs. Spans replace the plain
/// timer when `tracer` is given.
fn step(st: &mut State, rng: &mut Rng, tracer: Option<&mut Tracer>, tally: &mut Tally) {
    let i = rng.below(WRITTEN);
    let line = st.line(i);
    let request = tally.reads + tally.writes;
    if rng.chance(WRITE_PCT) {
        let version = st.versions[i as usize] + 1;
        st.versions[i as usize] = version;
        let data = plaintext(line, version);
        let us = match tracer {
            Some(t) => {
                t.begin("functional.write", request);
                st.mem.write(line, &data);
                t.end() / 1e3
            }
            None => {
                let start = CpuTime::now();
                st.mem.write(line, &data);
                start.elapsed_us()
            }
        };
        if let Some(s) = st.shadow.as_mut() {
            s.write(line);
        }
        tally.writes += 1;
        tally.write_us.push(us);
    } else {
        let (got, us) = match tracer {
            Some(t) => {
                t.begin("functional.read", request);
                let got = st.mem.read(line);
                (got, t.end() / 1e3)
            }
            None => {
                let start = CpuTime::now();
                let got = st.mem.read(line);
                (got, start.elapsed_us())
            }
        };
        if got.ok() != Some(plaintext(line, st.versions[i as usize])) {
            tally.failed += 1;
        }
        tally.reads += 1;
        tally.read_us.push(us);
    }
}

fn run_for(st: &mut State, rng: &mut Rng, seconds: f64, mut tracer: Option<&mut Tracer>) -> Tally {
    let mut tally = Tally::default();
    let window = Window::new(seconds);
    while window.open() {
        step(st, rng, tracer.as_deref_mut(), &mut tally);
    }
    tally
}

/// Reads back a seeded sample of lines and checks them against the
/// shadow versions.
fn read_back(st: &State, seed: u64) -> bool {
    let mut rng = Rng::new(derive(seed, 3));
    (0..1024).all(|_| {
        let i = rng.below(WRITTEN);
        let line = st.line(i);
        st.mem.read(line).ok() == Some(plaintext(line, st.versions[i as usize]))
    })
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let traced = args.trace;
    let (setup_s, mut st) =
        repeat_setup(if traced { 1 } else { SETUPS }, || setup(args.seed, traced));
    let mut rng = Rng::new(derive(args.seed, 2));
    let settle = run_for(&mut st, &mut rng, SETTLE_S, None);
    out.failed += settle.failed;
    out.attempted += settle.reads + settle.writes;

    if !traced {
        let t = run_for(&mut st, &mut rng, args.seconds, None);
        out.attempted += t.reads + t.writes;
        out.failed += t.failed;
        out.check(
            "every read returned the last plaintext written",
            out.failed == 0,
        );
        out.check(
            "a seeded read-back of 1024 lines matches the shadow map",
            read_back(&st, args.seed),
        );
        out.end_to_end = Some(EndToEnd {
            setup_s,
            ops_per_s: (t.reads + t.writes) as f64 * 1e6 / (t.read_us.sum() + t.write_us.sum()),
            ops_label: "reads and writes, per second spent inside them",
            primary: Class {
                label: "read",
                tail: 90.0,
                samples: t.read_us,
            },
            secondary: Class {
                label: "write",
                tail: 90.0,
                samples: t.write_us,
            },
        });
        return out;
    }

    // Traced run: half untraced for the overhead baseline, half traced.
    let plain = run_for(&mut st, &mut rng, args.seconds / 2.0, None);
    let mut tracer = Tracer::new(100_000);
    let before: CryptoOps = st.mem.crypto_ops();
    let re_before = st.mem.reencryptions();
    let t = run_for(&mut st, &mut rng, args.seconds / 2.0, Some(&mut tracer));
    let after = st.mem.crypto_ops();
    let reencryptions = st.mem.reencryptions() - re_before;
    for tally in [&plain, &t] {
        out.attempted += tally.reads + tally.writes;
        out.failed += tally.failed;
    }
    out.check(
        "every read returned the last plaintext written",
        out.failed == 0,
    );
    out.check(
        "a seeded read-back of 1024 lines matches the shadow map",
        read_back(&st, args.seed),
    );

    let top = st.mem.geometry().top_level();
    let shadow = st.shadow.take().expect("traced set-up keeps a shadow");
    let mut sample_rng = Rng::new(derive(args.seed, 4));
    let sample: Vec<u64> = std::iter::repeat_with(|| st.line(sample_rng.below(WRITTEN)))
        .filter(|&line| shadow.keeps(line))
        .take(256)
        .collect();
    out.check(
        "shadow counter lines agree with the memory's counters",
        sample
            .iter()
            .all(|&line| shadow.counter_of(line) == Some(st.mem.counter_of(line))),
    );
    let written: Vec<u64> = (0..WRITTEN).map(|i| st.line(i)).collect();
    let data_lines = st.mem.geometry().data_lines();
    drop(st); // free the memory before the store probe rebuilds its footprint

    let ops = (t.reads + t.writes) as f64;
    let traced_us = t.read_us.sum() + t.write_us.sum();
    let plain_us = plain.read_us.sum() + plain.write_us.sum();
    let plain_ops = (plain.reads + plain.writes) as f64;
    out.notes.push(format!(
        "untraced half: {plain_ops} ops; traced half: {ops} ops"
    ));

    let costs = UnitCosts {
        encode_ns: shadow.encode_ns(&sample),
        increment_ns: shadow.increment_ns(),
        mac_ns: probe::mac_ns(top),
        otp_ns: probe::otp_ns(),
        lookup_ns: probe::store_lookup_ns(data_lines, &written, derive(args.seed, 5)),
    };
    let counts = OpCounts::derive(t.reads, t.writes, &before, &after, reencryptions, top);
    let attribution = counts.attribute(&costs, traced_us * 1e3);
    out.notes
        .push(attribution.report("point-ops-wide (per traced op time)"));
    counts.report(&mut out, &costs, &attribution);
    out.layer(
        "tracing.overhead",
        (traced_us / ops) / (plain_us / plain_ops) - 1.0,
    );
    out.notes.push(write_trace(&tracer, args));
    out
}
