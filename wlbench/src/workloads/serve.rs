//! `serve-hot-writes`: the `serve` default mix. A 256 MiB morphtree
//! `ShardedMemory` with 2 shards; one closed-loop client submits 1024-op
//! batches to `run_batch`, 80% writes and 20% reads, uniform over 8192
//! hot lines split evenly across the shards.
//!
//! Each round serves one such batch at 1 worker (primary requests) and
//! then a 1024-read batch over the same hot lines at 1 worker (secondary
//! requests), both on the measured memory. The same 80/20 batch is also
//! served at 2 workers on a twin memory: both memories must end at the
//! same root, and the traced run takes the 1-versus-2-worker speed-up
//! from these pairs. The 2-worker times are not end-to-end metrics,
//! because on a 2-vCPU host they follow how much of the second CPU the
//! host grants (see `wlbench/README.md`).
//!
//! The write bump chain, overflow re-encryption, the coalesced recombine
//! and the batched read path dominate; the 512 KiB hot set keeps store
//! lookups in the CPU cache.

use std::time::Instant;

use morphtree_core::concurrent::{Op, OpOutcome, ShardedMemory};
use morphtree_core::functional::CryptoOps;
use morphtree_core::tree::TreeConfig;
use morphtree_core::CACHELINE_BYTES;

use super::costs::{OpCounts, UnitCosts};
use super::{repeat_setup, write_trace, Window};
use crate::clock::CpuTime;
use crate::probe::{self, Shadow};
use crate::rng::{derive, plaintext, Rng};
use crate::spans::Tracer;
use crate::stats::{median_of, Samples};
use crate::{Args, Class, EndToEnd, Outcome};

const MEMORY_BYTES: u64 = 256 << 20;
const SHARDS: usize = 2;
/// Workers of the twin memory.
const WORKERS: usize = 2;
const BATCH: usize = 1024;
const HOT_LINES: u64 = 8192;
const HOT_PER_SHARD: u64 = HOT_LINES / SHARDS as u64;
const WRITE_PCT: u64 = 80;
/// Set-up takes tens of milliseconds, so it is repeated often enough
/// for a steady median.
const SETUPS: usize = 21;
const SETTLE_S: f64 = 1.0;

/// The seeded batch generator, with the version map that says what every
/// read must return.
struct Stream {
    rng: Rng,
    versions: Vec<u64>,
}

/// One batch plus, for each read in it, `(op index, expected plaintext)`.
struct Batch {
    ops: Vec<Op>,
    expected: Vec<(usize, [u8; CACHELINE_BYTES])>,
    writes: u64,
}

impl Stream {
    fn new(seed: u64) -> Self {
        // Set-up writes version 1 of every hot line.
        Stream {
            rng: Rng::new(seed),
            versions: vec![1; HOT_LINES as usize],
        }
    }

    /// A batch whose ops are writes with probability `write_pct` percent,
    /// reads otherwise, each on a uniform hot line.
    fn next(&mut self, memory: &ShardedMemory, write_pct: u64) -> Batch {
        let plan = memory.plan();
        let mut batch = Batch {
            ops: Vec::with_capacity(BATCH),
            expected: Vec::new(),
            writes: 0,
        };
        for index in 0..BATCH {
            let shard = self.rng.below(SHARDS as u64);
            let offset = self.rng.below(HOT_PER_SHARD);
            let line = plan.shard_base(shard as usize) + offset;
            let slot = (shard * HOT_PER_SHARD + offset) as usize;
            if self.rng.chance(write_pct) {
                self.versions[slot] += 1;
                batch.ops.push(Op::Write {
                    line,
                    data: plaintext(line, self.versions[slot]),
                });
                batch.writes += 1;
            } else {
                batch.ops.push(Op::Read { line });
                batch
                    .expected
                    .push((index, plaintext(line, self.versions[slot])));
            }
        }
        batch
    }

    /// One round's batches: the 80/20 mix, then all reads.
    fn round(&mut self, memory: &ShardedMemory) -> [Batch; 2] {
        [self.next(memory, WRITE_PCT), self.next(memory, 0)]
    }
}

/// Hot line `i` (0..HOT_LINES) as a global line.
fn hot_line(memory: &ShardedMemory, i: u64) -> u64 {
    memory.plan().shard_base((i / HOT_PER_SHARD) as usize) + i % HOT_PER_SHARD
}

fn setup(seed: u64) -> ShardedMemory {
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&seed.to_le_bytes());
    let mut memory = ShardedMemory::new(TreeConfig::morphtree(), MEMORY_BYTES, key, SHARDS)
        .expect("2 shards of 256 MiB is a valid plan");
    let ops: Vec<Op> = (0..HOT_LINES)
        .map(|i| {
            let line = hot_line(&memory, i);
            Op::Write {
                line,
                data: plaintext(line, 1),
            }
        })
        .collect();
    memory.run_batch(&ops, 1);
    memory
}

/// Failed ops in a batch's outcomes: any detection, or a read that did
/// not return the last plaintext written.
fn failures(batch: &Batch, outcomes: &[OpOutcome]) -> u64 {
    let detected = outcomes
        .iter()
        .filter(|o| matches!(o, OpOutcome::Detected(_)))
        .count() as u64;
    let wrong = batch
        .expected
        .iter()
        .filter(|(index, want)| outcomes[*index] != OpOutcome::Data(*want))
        .count() as u64;
    detected + wrong
}

fn crypto_total(memory: &ShardedMemory) -> CryptoOps {
    let mut total = CryptoOps::default();
    for s in 0..memory.plan().shards() {
        let ops = memory.shard(s).crypto_ops();
        total.otp_encrypts += ops.otp_encrypts;
        total.otp_decrypts += ops.otp_decrypts;
        total.mac_computes += ops.mac_computes;
    }
    total
}

/// Counts a served batch's ops and failures.
fn tally(out: &mut Outcome, batch: &Batch, outcomes: &[OpOutcome]) {
    out.attempted += batch.ops.len() as u64;
    out.failed += failures(batch, outcomes);
}

/// What a stretch of rounds measured, in microseconds.
struct Served {
    rounds: u64,
    /// CPU time of the 80/20 batches at 1 worker on the measured memory.
    mixed_us: Samples,
    /// CPU time of the read-only batches at 1 worker on the measured memory.
    reads_us: Samples,
    /// Wall time of the 80/20 batches at 1 worker, and of the same
    /// batches at 2 workers on the twin: the speed-up's two sides.
    one_wall_us: f64,
    two_wall_us: f64,
}

/// Serves rounds until the window closes. Each round serves the 80/20
/// batch at 1 worker on `memory` and at 2 workers on `twin`, then the
/// read-only batch at 1 worker on `memory`. The 1- and 2-worker runs of a
/// batch are back to back, so host noise reaches both alike.
fn serve_rounds(
    memory: &mut ShardedMemory,
    twin: &mut ShardedMemory,
    stream: &mut Stream,
    seconds: f64,
    out: &mut Outcome,
) -> Served {
    let mut s = Served {
        rounds: 0,
        mixed_us: Samples::new(),
        reads_us: Samples::new(),
        one_wall_us: 0.0,
        two_wall_us: 0.0,
    };
    let wall_us = |start: Instant| start.elapsed().as_nanos() as f64 / 1e3;
    let window = Window::new(seconds);
    while window.open() {
        let [mixed, reads] = stream.round(memory);
        let (cpu, wall) = (CpuTime::now(), Instant::now());
        let outcomes = memory.run_batch(&mixed.ops, 1);
        s.mixed_us.push(cpu.elapsed_us());
        s.one_wall_us += wall_us(wall);
        tally(out, &mixed, &outcomes);

        let wall = Instant::now();
        let outcomes = twin.run_batch(&mixed.ops, WORKERS);
        s.two_wall_us += wall_us(wall);
        tally(out, &mixed, &outcomes);

        let cpu = CpuTime::now();
        let outcomes = memory.run_batch(&reads.ops, 1);
        s.reads_us.push(cpu.elapsed_us());
        tally(out, &reads, &outcomes);
        s.rounds += 1;
    }
    s
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let mut out = Outcome::default();
    let (setup_s, mut memory) = repeat_setup(SETUPS, || setup(args.seed));
    let mut twin = setup(args.seed);
    let mut stream = Stream::new(derive(args.seed, 2));
    serve_rounds(&mut memory, &mut twin, &mut stream, SETTLE_S, &mut out);
    let s = serve_rounds(&mut memory, &mut twin, &mut stream, args.seconds, &mut out);
    out.check(
        "the final combined_root equals a 2-worker replay of the same seed",
        memory.combined_root() == twin.combined_root(),
    );
    out.check(
        "verify_all passes on every shard after the run",
        memory.verify_all().is_ok() && twin.verify_all().is_ok(),
    );
    out.check(
        "no op was detected as tampered and every read matched",
        out.failed == 0,
    );
    out.notes.push(format!(
        "80/20 batch wall time: 1 worker {:.1}us, 2 workers (twin) {:.1}us, {:.2}x; CPU time at 1 worker {:.1}us",
        s.one_wall_us / s.rounds as f64,
        s.two_wall_us / s.rounds as f64,
        s.one_wall_us / s.two_wall_us,
        s.mixed_us.mean()
    ));
    let ops = ((s.mixed_us.len() + s.reads_us.len()) * BATCH) as f64;
    out.end_to_end = Some(EndToEnd {
        setup_s,
        ops_per_s: ops * 1e6 / (s.mixed_us.sum() + s.reads_us.sum()),
        ops_label:
            "ops served at 1 worker on the measured memory, per second spent in those batches",
        primary: Class {
            label: "1024-op 80/20 batch at 1 worker",
            tail: 90.0,
            samples: s.mixed_us,
        },
        secondary: Class {
            label: "1024-read batch at 1 worker",
            tail: 90.0,
            samples: s.reads_us,
        },
    });
    out
}

fn run_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut memory = setup(args.seed);
    let mut twin = setup(args.seed);
    let mut stream = Stream::new(derive(args.seed, 2));
    let settle = serve_rounds(&mut memory, &mut twin, &mut stream, SETTLE_S, &mut out);
    let plain = serve_rounds(
        &mut memory,
        &mut twin,
        &mut stream,
        args.seconds / 2.0,
        &mut out,
    );
    out.check(
        "1-worker and 2-worker serving of the same batches end at the same root",
        memory.combined_root() == twin.combined_root(),
    );
    drop(twin);

    // Shadow counter lines per shard, rebuilt from every write so far.
    let plan = *memory.plan();
    let mut shadows: Vec<Shadow> = (0..SHARDS)
        .map(|s| {
            Shadow::new(TreeConfig::morphtree(), plan.shard_memory_bytes(s), |_| {
                true
            })
        })
        .collect();
    let shadow_write = |shadows: &mut [Shadow], op: &Op| {
        if let Op::Write { line, .. } = op {
            shadows[plan.shard_of(*line)].write(plan.local_line(*line));
        }
    };
    for i in 0..HOT_LINES {
        let line = hot_line(&memory, i);
        shadows[plan.shard_of(line)].write(plan.local_line(line));
    }
    let mut shadow_stream = Stream::new(derive(args.seed, 2));
    for _ in 0..settle.rounds + plain.rounds {
        for batch in shadow_stream.round(&memory) {
            batch
                .ops
                .iter()
                .for_each(|op| shadow_write(&mut shadows, op));
        }
    }

    // Traced half: the same rounds on the measured memory alone.
    let mut tracer = Tracer::new(100_000);
    let before = crypto_total(&memory);
    let re_before = memory.reencryptions();
    let (mut reads, mut writes, mut failed, mut batches, mut rounds) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut imbalance = Vec::new();
    let window = Window::new(args.seconds / 2.0);
    while window.open() {
        for batch in stream.round(&memory) {
            let mut per_shard = [0u64; SHARDS];
            for op in &batch.ops {
                per_shard[plan.shard_of(op.line())] += 1;
                shadow_write(&mut shadows, op);
            }
            let mean = BATCH as f64 / SHARDS as f64;
            imbalance.push(*per_shard.iter().max().expect("two shards") as f64 / mean);
            tracer.begin("serve.batch", batches);
            let outcomes = tracer.span("concurrent.run_batch_deferred", batches, || {
                memory.run_batch_deferred(&batch.ops, 1)
            });
            tracer.span("concurrent.recombine", batches, || memory.recombine());
            tracer.end();
            failed += failures(&batch, &outcomes);
            writes += batch.writes;
            reads += BATCH as u64 - batch.writes;
            batches += 1;
        }
        rounds += 1;
    }
    let after = crypto_total(&memory);
    let reencryptions = memory.reencryptions() - re_before;
    out.check(
        "verify_all passes on every shard after the run",
        memory.verify_all().is_ok(),
    );
    let top = memory.shard(0).geometry().top_level();
    let sample: Vec<u64> = (0..256).map(|i| i * (HOT_PER_SHARD / 256)).collect();
    out.check(
        "shadow counter lines agree with the memory's counters",
        (0..SHARDS).all(|s| {
            sample
                .iter()
                .all(|&l| shadows[s].counter_of(l) == Some(memory.shard(s).counter_of(l)))
        }),
    );
    drop(memory);

    out.attempted += reads + writes;
    out.failed += failed;
    out.check(
        "no op was detected as tampered and every read matched",
        out.failed == 0,
    );

    let costs = UnitCosts {
        encode_ns: shadows[0].encode_ns(&sample),
        increment_ns: shadows[0].increment_ns(),
        mac_ns: probe::mac_ns(top),
        otp_ns: probe::otp_ns(),
        lookup_ns: probe::store_lookup_ns(
            plan.shard_lines(0),
            &(0..HOT_PER_SHARD).collect::<Vec<_>>(),
            derive(args.seed, 5),
        ),
    };
    let counts = OpCounts::derive(reads, writes, &before, &after, reencryptions, top);
    let batch_ns = tracer.total("serve.batch").total_ns;
    let recombine_ns = tracer.total("concurrent.recombine").total_ns;
    let mut attribution = counts.attribute(&costs, batch_ns);
    attribution.add("core::concurrent", recombine_ns);
    out.notes
        .push(attribution.report("serve-hot-writes (per traced batch time)"));
    counts.report(&mut out, &costs, &attribution);
    out.layer(
        "share.core.concurrent",
        attribution.share("core::concurrent"),
    );
    out.layer(
        "concurrent.speedup_2v1",
        plain.one_wall_us / plain.two_wall_us,
    );
    out.layer("concurrent.recombine.share", recombine_ns / batch_ns);
    out.layer("concurrent.shard_imbalance", median_of(&imbalance));
    let plain_round_us = (plain.mixed_us.sum() + plain.reads_us.sum()) / plain.rounds as f64;
    out.layer(
        "tracing.overhead",
        batch_ns / 1e3 / rounds as f64 / plain_round_us - 1.0,
    );
    out.notes.push(format!(
        "untraced half: {} rounds, 80/20 batch wall time 1 worker {:.1}us, 2 workers {:.1}us; traced half: {rounds} rounds",
        plain.rounds,
        plain.one_wall_us / plain.rounds as f64,
        plain.two_wall_us / plain.rounds as f64
    ));
    out.notes.push(write_trace(&tracer, args));
    out
}
