//! The `morphtree perf` subcommand: a pinned performance suite for the
//! hot paths of the reproduction, written to `BENCH.json`.
//!
//! The suite covers, in order:
//!
//! 1. counter-line increments (morph random-format and sc64 hot-slot),
//!    and the counter-line codec: morph encode/decode over a dense MCR
//!    and a mid-width ZCC line, and sc64 encode (informational rows);
//! 2. 64-byte one-time-pad generation — the runtime-selected backend
//!    (AES-NI where the CPU has it) versus the scalar per-block
//!    reference, plus the same benchmark pinned to *every* backend the
//!    CPU can run (the `crypto` JSON record), a bulk-OTP curve
//!    (`otp_bulk_by_backend`: the fused `pad_lines` sweep at 1/4/16/64
//!    lines per call, where VAES amortizes its 4-line register sets),
//!    and an end-to-end functional-plane read pair (`secure_read` vs a
//!    T-table pin) that shows the hardware path through full chain-MAC
//!    verification;
//! 3. metadata-engine reads and writes — the paged-flat-store engine
//!    versus the frozen [`ReferenceEngine`] (the pre-optimization
//!    `HashMap`-backed implementation, kept verbatim as the baseline);
//! 4. a crash-recovery grid (memory size × open-epoch WAL length):
//!    epoch-bounded recovery versus the full-replay baseline it
//!    supersedes, on identical `(snapshot, WAL)` inputs;
//! 5. a proof-size-vs-arity grid: the five evaluated tree configs prove
//!    the same 8-line set over the same 1 MiB image; encoded proof bytes
//!    (structural, deterministic) and standalone verification time land
//!    in the JSON `proofs` section — the higher-arity morphable configs
//!    must produce smaller proofs than 64-ary SC-64;
//! 6. one full figure sweep (`fig07`) as an end-to-end wall-clock number.
//!
//! Each benchmark reports mean ns/op and ops/sec over a fixed time
//! window; the optimized/reference pairs additionally report a speedup
//! ratio in the JSON `speedups` section, which is what CI inspects. The
//! baselines run in-process so the comparison is same-machine,
//! same-build, same-workload. The recovery grid lands in the JSON
//! `recovery` section; its headline `bounded_vs_full_largest` ratio is
//! the bounded path's speedup at the largest grid point.
//!
//! `--crypto-backend` pins the AES backend for the whole suite (see
//! [`crate::apply_crypto_backend`]); `--gate BASELINE.json` compares the
//! selected backend's `otp_64b` against the committed per-backend
//! baseline and fails the command on a >20% regression — other backends'
//! comparisons are reported but informational.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use morphtree_core::concurrent::{Op, ShardedMemory, SplitMix64};
use morphtree_core::functional::SecureMemory;
use morphtree_core::persist::{recover, recover_bounded, EpochMemory};
use morphtree_core::counters::morph::{MorphLine, MorphMode};
use morphtree_core::counters::split::{SplitConfig, SplitLine};
use morphtree_core::counters::CounterLine;
use morphtree_core::metadata::{MacMode, MetadataEngine, ReferenceEngine};
use morphtree_core::tree::TreeConfig;
use morphtree_core::CACHELINE_BYTES;
use morphtree_crypto::otp::CtrModeCipher;
use morphtree_crypto::{aes, AesBackend};

use crate::{err, CliError, Flags};

/// Memory size the engine benchmarks model (matches `benches/engine.rs`).
const MEMORY: u64 = 256 << 20;
/// Metadata-cache size for the gated engine benchmarks: the paper's
/// Table I configuration (128 KB). With a resident footprint this is the
/// cache-hit regime real workloads run in (Fig 16's hit rates are high),
/// so the gated numbers measure the engine itself rather than a miss
/// storm whose emit traffic both implementations share.
const CACHE: usize = 128 * 1024;
/// Small cache for the informational cold-miss variants.
const COLD_CACHE: usize = 8 * 1024;
/// Read footprint for the gated benchmark: 8 MiB of data, whose metadata
/// fits in the 128 KB cache after warm-up.
const HOT_READ_LINES: u64 = (8 << 20) / 64;
/// Random-read footprint for the cold variant (64 MiB of data).
const FOOTPRINT_LINES: u64 = (64 << 20) / 64;
/// Hot-set size for the write benchmarks.
const HOT_LINES: u64 = 4096;

/// Memory size for the end-to-end functional-plane read benchmark.
const SECURE_MEMORY: u64 = 1 << 20;
/// Populated (and read) lines in the functional-plane benchmark.
const SECURE_HOT: u64 = 2048;

/// Gate slack: the selected backend's `otp_64b` may be up to 20% slower
/// than its committed baseline before `--gate` fails the command.
const GATE_SLACK: f64 = 1.2;

/// Batch sizes for the bulk-OTP curve: per-line (the degenerate batch),
/// one VAES register set (4 lines), one verify batch
/// (`SecureMemory::VERIFY_BATCH` = 16), and a sweep-sized run.
const BULK_BATCHES: [usize; 4] = [1, 4, 16, 64];

/// Worker counts for the serve-mode scaling curve (shards = threads).
const SERVE_THREADS: [usize; 4] = [1, 2, 4, 8];
/// Requests per `run_batch` call in the serve scaling benchmark — large
/// enough to amortize per-batch queue routing and thread-scope setup.
const SERVE_BATCH: usize = 8192;
/// Total hot lines across all shards (matches the `serve` default).
const SERVE_HOT_LINES: u64 = 8192;

/// One benchmark's result.
struct Bench {
    name: &'static str,
    ns_per_op: f64,
    ops_per_sec: f64,
}

/// One point on a backend's bulk-OTP curve: `lines` pads generated per
/// [`CtrModeCipher::pad_lines`] call, amortized to per-line cost.
struct BulkPoint {
    lines: usize,
    ns_per_line: f64,
    lines_per_sec: f64,
}

/// Measures the fused bulk-pad path ([`CtrModeCipher::pad_lines`]) at
/// every [`BULK_BATCHES`] size on every backend this CPU can run. The
/// pad buffer is preallocated and reused so the measurement is the
/// crypto sweep itself, not allocator traffic; counters advance every
/// call so no pad is ever generated twice. Per-line cost falling as the
/// batch grows is the point of the curve: scalar/ttable/aesni flatten
/// out almost immediately (their bulk path is a per-line loop), while
/// VAES keeps gaining until the 4-line register set is saturated.
fn run_otp_bulk_curve(window: Duration) -> Vec<(AesBackend, Vec<BulkPoint>)> {
    AesBackend::all_available()
        .into_iter()
        .map(|b| {
            let cipher = CtrModeCipher::with_backend([0x42u8; 16], b);
            let points = BULK_BATCHES
                .iter()
                .map(|&n| {
                    let mut lines: Vec<(u64, u64)> =
                        (0..n as u64).map(|i| (0x8000 + 64 * i, 0)).collect();
                    let mut pads = vec![[0u8; CACHELINE_BYTES]; n];
                    let mut counter = 0u64;
                    let bench = measure("otp_bulk", window, || {
                        counter = counter.wrapping_add(1) & ((1 << 56) - 1);
                        for entry in &mut lines {
                            entry.1 = counter;
                        }
                        cipher.pad_lines(&lines, &mut pads);
                        std::hint::black_box(&mut pads);
                    });
                    BulkPoint {
                        lines: n,
                        ns_per_line: bench.ns_per_op / n as f64,
                        lines_per_sec: bench.ops_per_sec * n as f64,
                    }
                })
                .collect();
            (b, points)
        })
        .collect()
}

/// Sub-windows per benchmark; the reported figure is the *fastest*
/// sub-window. Interference noise on a shared host is one-sided (it only
/// ever slows a window down), so the minimum is the stable estimator —
/// means swing by 1.5x between otherwise identical runs.
const PASSES: u32 = 4;

/// Runs `op` in batches for `PASSES` sub-windows (after a warm-up of a
/// quarter window) and reports the best per-call cost observed.
fn measure<F: FnMut()>(name: &'static str, window: Duration, mut op: F) -> Bench {
    let warm_up_end = Instant::now() + window / 4;
    while Instant::now() < warm_up_end {
        op();
    }
    let sub_window = window / PASSES;
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let mut ops = 0u64;
        let started = Instant::now();
        loop {
            for _ in 0..64 {
                op();
            }
            ops += 64;
            if started.elapsed() >= sub_window {
                break;
            }
        }
        let ns_per_op = started.elapsed().as_nanos() as f64 / ops as f64;
        best = best.min(ns_per_op);
    }
    Bench { name, ns_per_op: best, ops_per_sec: 1e9 / best }
}

/// Formats a float with enough precision for the JSON report without
/// dragging in a float-formatting dependency.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.3}")
    } else {
        "null".to_owned()
    }
}

/// Runs the pinned suite and writes the JSON report.
///
/// # Errors
///
/// Propagates figure-sweep and file-write failures.
pub fn cmd_perf(flags: &Flags) -> Result<String, CliError> {
    let out_path = flags.get_or("out", "BENCH.json");
    let quick = flags.get_or("quick", "0") != "0";
    let backend = crate::apply_crypto_backend(flags)?;
    // Full mode uses a 300 ms window per benchmark (~4 s total); quick
    // mode trades precision for a fast smoke signal in CI.
    let window = if quick { Duration::from_millis(40) } else { Duration::from_millis(300) };

    let mut benches: Vec<Bench> = Vec::new();
    let mut progress = String::new();

    // 1. Counter increments: the innermost loop of the simulator.
    {
        let mut line = MorphLine::new(MorphMode::ZccRebase);
        let mut rng = SplitMix64::new(2);
        benches.push(measure("counter_increment_morph", window, || {
            let slot = (rng.next_u64() % 128) as usize;
            std::hint::black_box(line.increment(slot));
        }));
        let mut line = SplitLine::new(SplitConfig::with_arity(64));
        benches.push(measure("counter_increment_sc64", window, || {
            std::hint::black_box(line.increment(std::hint::black_box(7)));
        }));
    }

    // 1b. The counter-line codec (informational): each op encodes or
    //     decodes one of a dense MCR line and a mid-width ZCC line, in
    //     turn — the two shapes a read's chain MAC encodes most.
    {
        let lines = codec_bench_lines();
        let mut turn = 0usize;
        benches.push(measure("counter_encode_morph", window, || {
            turn ^= 1;
            std::hint::black_box(std::hint::black_box(&lines[turn]).encode_for_mac());
        }));
        let images = [lines[0].encode(), lines[1].encode()];
        benches.push(measure("counter_decode_morph", window, || {
            turn ^= 1;
            let image = std::hint::black_box(&images[turn]);
            std::hint::black_box(MorphLine::decode(MorphMode::ZccRebase, image).expect("valid"));
        }));
        let mut line = SplitLine::new(SplitConfig::with_arity(64));
        for slot in 0..64 {
            for _ in 0..slot % 50 {
                line.increment(slot);
            }
        }
        benches.push(measure("counter_encode_sc64", window, || {
            std::hint::black_box(std::hint::black_box(&line).encode_for_mac());
        }));
    }

    // 2. One-time-pad generation: the runtime-selected backend (AES-NI
    //    where available) vs the scalar per-block reference.
    {
        let cipher = CtrModeCipher::new([0x42u8; 16]);
        let mut counter = 0u64;
        benches.push(measure("otp_64b", window, || {
            counter = counter.wrapping_add(1) & ((1 << 56) - 1);
            std::hint::black_box(cipher.one_time_pad(0x8000, counter));
        }));
        let mut counter = 0u64;
        benches.push(measure("otp_64b_reference", window, || {
            counter = counter.wrapping_add(1) & ((1 << 56) - 1);
            std::hint::black_box(cipher.one_time_pad_reference(0x8000, counter));
        }));
    }

    // 2b. The same OTP benchmark pinned to every backend this CPU can
    //     run: the per-backend curve in the JSON `crypto` record. It
    //     shows what auto-selection bought on this host, and it is the
    //     baseline `--gate` compares like against like — a scalar-forced
    //     CI leg gates against the committed *scalar* number, not the
    //     AES-NI one.
    let otp_by_backend: Vec<(AesBackend, f64, f64)> = AesBackend::all_available()
        .into_iter()
        .map(|b| {
            let cipher = CtrModeCipher::with_backend([0x42u8; 16], b);
            let mut counter = 0u64;
            let bench = measure("otp_64b_backend", window, || {
                counter = counter.wrapping_add(1) & ((1 << 56) - 1);
                std::hint::black_box(cipher.one_time_pad(0x8000, counter));
            });
            (b, bench.ns_per_op, bench.ops_per_sec)
        })
        .collect();

    // 2b'. The bulk-OTP curve: per-line cost of the fused `pad_lines`
    //      sweep at 1/4/16/64-line batches, per backend. This is the
    //      number the batched `verify_and_read` path actually pays, and
    //      the record where VAES earns its keep — its per-*line* latency
    //      loses to AES-NI but a 16-line batch amortizes key broadcast
    //      across four full zmm register sets. A quarter window per
    //      point keeps the 16-point grid near one backend's budget.
    let otp_bulk = run_otp_bulk_curve(window / 4);

    // 2c. End-to-end functional-plane reads: every read pays an OTP
    //     decrypt plus the batched chain-MAC verification, so this is
    //     where the AES-NI pipeline and interleaved SipHash must show up
    //     *together*. The `_ttable` pin is the previous crypto under an
    //     identical memory, for the speedup record.
    {
        let build = |pin: Option<AesBackend>| {
            // The pin is applied only around construction (a cipher keeps
            // the backend it was built with) and the prior selection is
            // restored, so a `--crypto-backend` override stays in force
            // for the rest of the suite.
            let saved = aes::forced_backend();
            if pin.is_some() {
                aes::force_backend(pin);
            }
            let mut m = SecureMemory::new(TreeConfig::morphtree(), SECURE_MEMORY, [0x42u8; 16]);
            aes::force_backend(saved);
            let mut rng = SplitMix64::new(9);
            let mut payload = [0u8; CACHELINE_BYTES];
            for line in 0..SECURE_HOT {
                payload[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
                m.write(line, &payload);
            }
            m
        };
        let m = build(None);
        let mut rng = SplitMix64::new(10);
        benches.push(measure("secure_read", window, || {
            let line = rng.next_u64() % SECURE_HOT;
            std::hint::black_box(m.read(std::hint::black_box(line)).expect("intact memory"));
        }));
        let m = build(Some(AesBackend::TTable));
        let mut rng = SplitMix64::new(10);
        benches.push(measure("secure_read_ttable", window, || {
            let line = rng.next_u64() % SECURE_HOT;
            std::hint::black_box(m.read(std::hint::black_box(line)).expect("intact memory"));
        }));
    }

    // 3. Engine reads/writes: the flat-store engine vs the frozen HashMap
    //    reference, identical configuration and access stream. The gated
    //    pair runs the paper's cache configuration with cache-resident
    //    metadata (the representative regime); the `_cold` pair is an
    //    informational miss-storm stress.
    {
        let config = TreeConfig::morphtree();
        let mut out = Vec::with_capacity(512);

        // Pre-touch every line once so the steady-state measurement starts
        // from a warm cache in both engines.
        let mut e = MetadataEngine::new(config.clone(), MEMORY, CACHE, MacMode::Inline);
        for line in 0..HOT_READ_LINES {
            out.clear();
            e.read(line, &mut out);
        }
        let mut rng = SplitMix64::new(3);
        benches.push(measure("engine_read", window, || {
            let line = rng.next_u64() % HOT_READ_LINES;
            out.clear();
            e.read(std::hint::black_box(line), &mut out);
            std::hint::black_box(out.len());
        }));

        let mut e = ReferenceEngine::new(config.clone(), MEMORY, CACHE, MacMode::Inline);
        for line in 0..HOT_READ_LINES {
            out.clear();
            e.read(line, &mut out);
        }
        let mut rng = SplitMix64::new(3);
        benches.push(measure("engine_read_reference", window, || {
            let line = rng.next_u64() % HOT_READ_LINES;
            out.clear();
            e.read(std::hint::black_box(line), &mut out);
            std::hint::black_box(out.len());
        }));

        let mut e = MetadataEngine::new(config.clone(), MEMORY, CACHE, MacMode::Inline);
        let mut rng = SplitMix64::new(4);
        benches.push(measure("engine_write", window, || {
            let line = rng.next_u64() % HOT_LINES;
            out.clear();
            e.write(std::hint::black_box(line), &mut out);
            std::hint::black_box(out.len());
        }));

        let mut e = ReferenceEngine::new(config.clone(), MEMORY, CACHE, MacMode::Inline);
        let mut rng = SplitMix64::new(4);
        benches.push(measure("engine_write_reference", window, || {
            let line = rng.next_u64() % HOT_LINES;
            out.clear();
            e.write(std::hint::black_box(line), &mut out);
            std::hint::black_box(out.len());
        }));

        let mut e = MetadataEngine::new(config.clone(), MEMORY, COLD_CACHE, MacMode::Inline);
        let mut rng = SplitMix64::new(5);
        benches.push(measure("engine_read_cold", window, || {
            let line = rng.next_u64() % FOOTPRINT_LINES;
            out.clear();
            e.read(std::hint::black_box(line), &mut out);
            std::hint::black_box(out.len());
        }));

        let mut e = ReferenceEngine::new(config, MEMORY, COLD_CACHE, MacMode::Inline);
        let mut rng = SplitMix64::new(5);
        benches.push(measure("engine_read_cold_reference", window, || {
            let line = rng.next_u64() % FOOTPRINT_LINES;
            out.clear();
            e.read(std::hint::black_box(line), &mut out);
            std::hint::black_box(out.len());
        }));
    }

    for b in &benches {
        writeln!(
            progress,
            "{:<28} {:>10} ns/op {:>14.0} ops/s",
            b.name, number(b.ns_per_op), b.ops_per_sec
        )
        .expect("write to string");
    }
    for (b, ns, ops) in &otp_by_backend {
        writeln!(
            progress,
            "{:<28} {:>10} ns/op {ops:>14.0} ops/s",
            format!("otp_64b[{b}]"),
            number(*ns),
        )
        .expect("write to string");
    }
    for (b, points) in &otp_bulk {
        for p in points {
            writeln!(
                progress,
                "{:<28} {:>10} ns/line {:>12.0} lines/s",
                format!("otp_bulk[{b},{}l]", p.lines),
                number(p.ns_per_line),
                p.lines_per_sec,
            )
            .expect("write to string");
        }
    }

    // 4. Serve-mode scaling: the sharded concurrent engine at 1/2/4/8
    //    worker threads (one subtree shard per worker) over the full
    //    256 MiB functional plane. On a single-core host the curve still
    //    rises because sharding shallows each subtree — fewer MAC/OTP
    //    levels per write — independent of hardware parallelism.
    let serve_points = run_serve_scaling(window);
    for (threads, ops_per_sec) in &serve_points {
        writeln!(
            progress,
            "{:<28} {:>10} ns/op {ops_per_sec:>14.0} ops/s",
            format!("serve_{threads}t"),
            number(1e9 / ops_per_sec),
        )
        .expect("write to string");
    }

    // 5. Crash-recovery grid: bounded (epoch-anchored) recovery vs the
    //    full-replay baseline on identical (snapshot, WAL) inputs.
    let recovery_points = if flags.get_or("recovery", "1") != "0" {
        run_recovery_grid(quick)
    } else {
        Vec::new()
    };
    for p in &recovery_points {
        writeln!(
            progress,
            "{:<28} {:>10} ms bounded {:>10} ms full ({:>5}x)",
            format!("recover_{}mib_{}txn", p.memory_mib, p.wal_txns),
            number(p.bounded_ms),
            number(p.full_ms),
            number(p.speedup()),
        )
        .expect("write to string");
    }

    // 5b. Proof-size-vs-arity sweep: the five evaluated configs prove
    //     the same line set; size is structural, verify time is wall.
    let proof_points = run_proof_grid(quick);
    for p in &proof_points {
        writeln!(
            progress,
            "{:<28} {:>10} bytes {:>6} node(s) {:>10} ns/verify",
            format!("proof_{}", p.name),
            p.proof_bytes,
            p.nodes,
            number(p.verify_ns),
        )
        .expect("write to string");
    }

    // 6. One full figure sweep, end to end.
    let sweep_ms = run_sweep(quick)?;
    writeln!(progress, "{:<28} {sweep_ms:>10} ms wall-clock", "sweep_fig07").expect("write");

    let ratio = |fast: &str, slow: &str| -> f64 {
        let get = |name: &str| benches.iter().find(|b| b.name == name).map_or(0.0, |b| b.ns_per_op);
        let (f, s) = (get(fast), get(slow));
        if f > 0.0 {
            s / f
        } else {
            0.0
        }
    };
    let speedups = [
        ("engine_read", ratio("engine_read", "engine_read_reference")),
        ("engine_write", ratio("engine_write", "engine_write_reference")),
        ("engine_read_cold", ratio("engine_read_cold", "engine_read_cold_reference")),
        ("otp_64b", ratio("otp_64b", "otp_64b_reference")),
        ("secure_read", ratio("secure_read", "secure_read_ttable")),
    ];

    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"morphtree-perf-v1\",\n");
    writeln!(json, "  \"mode\": \"{}\",", if quick { "quick" } else { "full" }).expect("write");
    json.push_str("  \"benches\": [\n");
    for (i, b) in benches.iter().enumerate() {
        let comma = if i + 1 == benches.len() { "" } else { "," };
        writeln!(
            json,
            "    {{\"name\": \"{}\", \"ns_per_op\": {}, \"ops_per_sec\": {}}}{comma}",
            b.name,
            number(b.ns_per_op),
            number(b.ops_per_sec),
        )
        .expect("write to string");
    }
    json.push_str("  ],\n");
    json.push_str("  \"crypto\": {\n");
    writeln!(json, "    \"backend\": \"{backend}\",").expect("write");
    writeln!(json, "    \"cpu_features\": \"{}\",", aes::cpu_features()).expect("write");
    json.push_str("    \"otp_64b_by_backend\": [\n");
    for (i, (b, ns, ops)) in otp_by_backend.iter().enumerate() {
        let comma = if i + 1 == otp_by_backend.len() { "" } else { "," };
        writeln!(
            json,
            "      {{\"backend\": \"{b}\", \"ns_per_op\": {}, \"ops_per_sec\": {}}}{comma}",
            number(*ns),
            number(*ops),
        )
        .expect("write to string");
    }
    json.push_str("    ],\n");
    json.push_str("    \"otp_bulk_by_backend\": [\n");
    for (i, (b, points)) in otp_bulk.iter().enumerate() {
        let comma = if i + 1 == otp_bulk.len() { "" } else { "," };
        writeln!(json, "      {{\"backend\": \"{b}\", \"points\": [").expect("write");
        for (j, p) in points.iter().enumerate() {
            let inner = if j + 1 == points.len() { "" } else { "," };
            writeln!(
                json,
                "        {{\"lines\": {}, \"ns_per_line\": {}, \"lines_per_sec\": {}}}{inner}",
                p.lines,
                number(p.ns_per_line),
                number(p.lines_per_sec),
            )
            .expect("write to string");
        }
        writeln!(json, "      ]}}{comma}").expect("write");
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");
    json.push_str("  \"speedups\": {\n");
    for (i, (name, value)) in speedups.iter().enumerate() {
        let comma = if i + 1 == speedups.len() { "" } else { "," };
        writeln!(json, "    \"{name}\": {}{comma}", number(*value)).expect("write to string");
    }
    json.push_str("  },\n");
    json.push_str("  \"serve\": {\n");
    json.push_str("    \"config\": \"morphtree\",\n");
    writeln!(json, "    \"memory_mib\": {},", MEMORY >> 20).expect("write");
    json.push_str("    \"shards\": \"one per thread\",\n");
    json.push_str("    \"points\": [\n");
    for (i, (threads, ops_per_sec)) in serve_points.iter().enumerate() {
        let comma = if i + 1 == serve_points.len() { "" } else { "," };
        writeln!(
            json,
            "      {{\"threads\": {threads}, \"ops_per_sec\": {}}}{comma}",
            number(*ops_per_sec),
        )
        .expect("write to string");
    }
    json.push_str("    ],\n");
    writeln!(json, "    \"scaling_8v1\": {}", number(serve_scaling_8v1(&serve_points)))
        .expect("write");
    json.push_str("  },\n");
    if !recovery_points.is_empty() {
        json.push_str("  \"recovery\": {\n");
        json.push_str("    \"config\": \"morphtree\",\n");
        json.push_str("    \"baseline\": \"full replay + full bottom-up verification\",\n");
        json.push_str("    \"grid\": [\n");
        for (i, p) in recovery_points.iter().enumerate() {
            let comma = if i + 1 == recovery_points.len() { "" } else { "," };
            writeln!(
                json,
                "      {{\"memory_mib\": {}, \"wal_txns\": {}, \"wal_bytes\": {}, \
                 \"bounded_ms\": {}, \"full_ms\": {}, \"speedup\": {}, \
                 \"bounded_verified_lines\": {}, \"bounded_macs\": {}, \"full_macs\": {}}}{comma}",
                p.memory_mib,
                p.wal_txns,
                p.wal_bytes,
                number(p.bounded_ms),
                number(p.full_ms),
                number(p.speedup()),
                p.bounded_verified_lines,
                p.bounded_macs,
                p.full_macs,
            )
            .expect("write to string");
        }
        json.push_str("    ],\n");
        writeln!(
            json,
            "    \"bounded_vs_full_largest\": {}",
            number(recovery_points.last().map_or(0.0, RecoveryPoint::speedup)),
        )
        .expect("write");
        json.push_str("  },\n");
    }
    json.push_str("  \"proofs\": {\n");
    json.push_str("    \"memory_mib\": 1,\n");
    json.push_str("    \"proved_lines\": 8,\n");
    json.push_str("    \"grid\": [\n");
    for (i, p) in proof_points.iter().enumerate() {
        let comma = if i + 1 == proof_points.len() { "" } else { "," };
        writeln!(
            json,
            "      {{\"config\": \"{}\", \"proof_bytes\": {}, \"nodes\": {}, \
             \"mac_computes\": {}, \"verify_ns\": {}}}{comma}",
            p.name,
            p.proof_bytes,
            p.nodes,
            p.mac_computes,
            number(p.verify_ns),
        )
        .expect("write to string");
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");
    writeln!(json, "  \"sweep\": {{\"figure\": \"fig07\", \"wall_ms\": {sweep_ms}}}").expect("write");
    json.push_str("}\n");

    std::fs::write(out_path, &json)
        .map_err(|e| err(format!("cannot write {out_path}: {e}")))?;

    let mut summary = progress;
    if let Some(path) = flags.get("metrics") {
        // The perf suite is inherently wall-clock, so unlike sweep metrics
        // this file is machine- and run-dependent by design.
        let mut registry = morphtree_core::obs::MetricsRegistry::new();
        for b in &benches {
            registry.gauge_set(&format!("perf.{}.ns_per_op", b.name), Some(b.ns_per_op));
            registry.gauge_set(&format!("perf.{}.ops_per_sec", b.name), Some(b.ops_per_sec));
        }
        for (name, value) in &speedups {
            registry.gauge_set(&format!("perf.speedup.{name}"), Some(*value));
        }
        for (b, ns, ops) in &otp_by_backend {
            registry.gauge_set(&format!("perf.otp_64b.{b}.ns_per_op"), Some(*ns));
            registry.gauge_set(&format!("perf.otp_64b.{b}.ops_per_sec"), Some(*ops));
        }
        for (b, points) in &otp_bulk {
            for p in points {
                registry.gauge_set(
                    &format!("perf.otp_bulk.{b}.{}l.ns_per_line", p.lines),
                    Some(p.ns_per_line),
                );
            }
        }
        for (threads, ops_per_sec) in &serve_points {
            registry.gauge_set(&format!("perf.serve_{threads}t.ops_per_sec"), Some(*ops_per_sec));
        }
        registry.gauge_set("perf.serve.scaling_8v1", Some(serve_scaling_8v1(&serve_points)));
        for p in &recovery_points {
            let prefix = format!("perf.recover_{}mib_{}txn", p.memory_mib, p.wal_txns);
            registry.gauge_set(&format!("{prefix}.bounded_ms"), Some(p.bounded_ms));
            registry.gauge_set(&format!("{prefix}.full_ms"), Some(p.full_ms));
        }
        for p in &proof_points {
            let prefix = format!("perf.proof_{}", p.name);
            registry.counter_set(&format!("{prefix}.bytes"), p.proof_bytes as u64);
            registry.counter_set(&format!("{prefix}.nodes"), p.nodes);
            registry.gauge_set(&format!("{prefix}.verify_ns"), Some(p.verify_ns));
        }
        registry.counter_set("perf.sweep_fig07.wall_ms", sweep_ms);
        crate::metrics::write_metrics(path, &registry)?;
        writeln!(summary, "metrics written to {path}").expect("write to string");
    }
    writeln!(
        summary,
        "\ncrypto backend {backend} (cpu features: {})",
        aes::cpu_features()
    )
    .expect("write to string");
    // The tentpole headline, when the host can state it: fused 16-line
    // VAES batches vs the per-line AES-NI number the suite gated on
    // before cross-line batching existed.
    let bulk16 = |backend: AesBackend| {
        otp_bulk
            .iter()
            .find(|(b, _)| *b == backend)
            .and_then(|(_, points)| points.iter().find(|p| p.lines == 16))
            .map(|p| p.ns_per_line)
    };
    if let (Some(vaes16), Some((_, aesni_ns, _))) = (
        bulk16(AesBackend::Vaes),
        otp_by_backend.iter().find(|(b, _, _)| *b == AesBackend::AesNi),
    ) {
        writeln!(
            summary,
            "bulk OTP: vaes 16-line batch {} ns/line vs aesni per-line {} ns/op ({}x)",
            number(vaes16),
            number(*aesni_ns),
            number(aesni_ns / vaes16),
        )
        .expect("write to string");
    }
    writeln!(summary, "\nspeedups vs in-process pre-optimization baselines:").expect("write");
    for (name, value) in speedups {
        writeln!(summary, "  {name:<14} {:>6}x", number(value)).expect("write to string");
    }
    writeln!(
        summary,
        "\nserve scaling (8 threads vs 1): {}x",
        number(serve_scaling_8v1(&serve_points))
    )
    .expect("write to string");
    {
        let size_of = |key: &str| {
            proof_points.iter().find(|p| p.name == key).map_or(0, |p| p.proof_bytes)
        };
        writeln!(
            summary,
            "proof size for 8 lines over 1 MiB: morphtree {} bytes vs sc64 {} bytes",
            size_of("morphtree"),
            size_of("sc64"),
        )
        .expect("write to string");
    }
    if let Some(largest) = recovery_points.last() {
        writeln!(
            summary,
            "bounded recovery vs full replay at {} MiB / {} txn(s): {}x",
            largest.memory_mib,
            largest.wal_txns,
            number(largest.speedup()),
        )
        .expect("write to string");
    }
    writeln!(summary, "\nreport written to {out_path}").expect("write to string");
    if let Some(path) = flags.get("gate") {
        gate_against(path, backend, &otp_by_backend, &mut summary)?;
    }
    Ok(summary)
}

/// Enforces the perf gate against a committed baseline: the *selected*
/// backend's `otp_64b` must stay within [`GATE_SLACK`] of the committed
/// number for that same backend; every other available backend's
/// comparison is rendered but informational. A backend with no committed
/// baseline (e.g. AES-NI or VAES measured on a host whose baseline was
/// taken without them) is reported and skipped rather than failed — the
/// fallback path must keep passing on machines the baseline never saw.
/// When the *selected* backend is the one missing, the skip is loud: the
/// report names the baseline file and the exact `--crypto-backend` run
/// that would make the gate enforceable, so an informational pass can't
/// be mistaken for a clean enforced one.
fn gate_against(
    path: &str,
    selected: AesBackend,
    measured: &[(AesBackend, f64, f64)],
    out: &mut String,
) -> Result<(), CliError> {
    let baseline = std::fs::read_to_string(path)
        .map_err(|e| err(format!("cannot read gate baseline {path}: {e}")))?;
    writeln!(out, "\nperf gate vs {path} (enforcing for selected backend `{selected}`):")
        .expect("write to string");
    let mut failure = None;
    for (b, ns, _) in measured {
        let enforced = *b == selected;
        let Some(base) = baseline_otp_ns(&baseline, b.as_str()) else {
            // Like-vs-like or nothing: a backend with no same-backend
            // committed number is never compared against another
            // backend's. When that backend is the *selected* one the
            // whole gate downgrades to an explicit informational skip —
            // silently passing would look like enforcement.
            if enforced {
                writeln!(
                    out,
                    "  otp_64b[{b}] {:>10} ns/op — gate SKIPPED: {path} has no committed \
                     baseline for selected backend `{b}` (informational run; commit a \
                     baseline measured with --crypto-backend {b} to enforce)",
                    number(*ns),
                )
                .expect("write to string");
            } else {
                writeln!(
                    out,
                    "  otp_64b[{b}] {:>10} ns/op — no committed baseline (informational)",
                    number(*ns),
                )
                .expect("write to string");
            }
            continue;
        };
        let over = *ns > base * GATE_SLACK;
        let verdict = match (over, enforced) {
            (false, _) => "ok",
            (true, true) => "REGRESSION",
            (true, false) => "regressed (informational)",
        };
        writeln!(
            out,
            "  otp_64b[{b}] {:>10} ns/op vs {:>10} ns/op committed — {verdict}",
            number(*ns),
            number(base),
        )
        .expect("write to string");
        if over && enforced {
            failure = Some(format!(
                "otp_64b[{b}] measured {} ns/op vs {} ns/op committed \
                 (more than {:.0}% over)",
                number(*ns),
                number(base),
                (GATE_SLACK - 1.0) * 100.0,
            ));
        }
    }
    match failure {
        None => Ok(()),
        Some(msg) => Err(err(format!("{out}perf gate FAILED: {msg}"))),
    }
}

/// Pulls one backend's committed `otp_64b` ns/op out of a BENCH.json
/// baseline, matching the exact shape [`cmd_perf`] emits for the
/// `otp_64b_by_backend` array. A hand-rolled scan, like the emitter —
/// the schema is ours on both sides, so a JSON parser dependency buys
/// nothing.
fn baseline_otp_ns(json: &str, backend: &str) -> Option<f64> {
    let needle = format!("{{\"backend\": \"{backend}\", \"ns_per_op\": ");
    let at = json.find(&needle)? + needle.len();
    let rest = &json[at..];
    let end = rest.find(|c: char| c != '.' && !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Builds the serve benchmark's request batch: 80% writes over per-shard
/// hot ranges (equal share per shard, [`SERVE_HOT_LINES`] total), the
/// same shape `morphtree serve` drives by default.
fn serve_batch(rng: &mut SplitMix64, memory: &ShardedMemory) -> Vec<Op> {
    let plan = memory.plan();
    let shards = plan.shards() as u64;
    let per_shard_hot = (SERVE_HOT_LINES / shards).max(1);
    (0..SERVE_BATCH)
        .map(|_| {
            let shard = (rng.next_u64() % shards) as usize;
            let line = plan.shard_base(shard) + rng.next_u64() % per_shard_hot;
            if rng.next_u64() % 100 < 80 {
                let mut data = [0u8; CACHELINE_BYTES];
                data[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
                Op::Write { line, data }
            } else {
                Op::Read { line }
            }
        })
        .collect()
}

/// Measures serve-mode throughput for each worker count in
/// [`SERVE_THREADS`] (shards = threads) and returns `(threads, ops/sec)`
/// points, best-of-[`PASSES`] sub-windows like every other benchmark.
fn run_serve_scaling(window: Duration) -> Vec<(usize, f64)> {
    SERVE_THREADS
        .iter()
        .map(|&threads| {
            let mut memory =
                ShardedMemory::new(TreeConfig::morphtree(), MEMORY, [0x42u8; 16], threads)
                    .expect("256 MiB shards cleanly at any benchmarked thread count");
            let mut rng = SplitMix64::new(7);
            let ops = serve_batch(&mut rng, &memory);
            let warm_up_end = Instant::now() + window / 4;
            while Instant::now() < warm_up_end {
                memory.run_batch(&ops, threads);
            }
            let sub_window = window / PASSES;
            let mut best = 0.0f64;
            for _ in 0..PASSES {
                let mut count = 0u64;
                let started = Instant::now();
                loop {
                    memory.run_batch(&ops, threads);
                    count += ops.len() as u64;
                    if started.elapsed() >= sub_window {
                        break;
                    }
                }
                best = best.max(count as f64 / started.elapsed().as_secs_f64());
            }
            (threads, best)
        })
        .collect()
}

/// The `counter_*_morph` inputs: a dense MCR line (every counter
/// written) and a ZCC line with 40 non-zero counters, which packs them at
/// 6 bits.
fn codec_bench_lines() -> [MorphLine; 2] {
    let mut mcr = MorphLine::new(MorphMode::ZccRebase);
    let mut zcc = MorphLine::new(MorphMode::ZccRebase);
    for slot in 0..128 {
        for _ in 0..1 + slot % 5 {
            mcr.increment(slot);
        }
    }
    for k in 0..40 {
        for _ in 0..1 + k % 60 {
            zcc.increment(k * 3);
        }
    }
    [mcr, zcc]
}

/// One point of the crash-recovery grid: bounded vs full recovery of the
/// same durable state.
struct RecoveryPoint {
    memory_mib: u64,
    wal_txns: usize,
    wal_bytes: usize,
    bounded_ms: f64,
    full_ms: f64,
    /// Data lines the bounded path re-verified
    /// (`RecoveryStats::verified_lines`).
    bounded_verified_lines: usize,
    /// MACs the bounded path recomputed to re-verify.
    bounded_macs: u64,
    /// MACs the full path recomputes: `verify_all_cost`, one per stored
    /// counter and data line.
    full_macs: u64,
}

impl RecoveryPoint {
    fn speedup(&self) -> f64 {
        if self.bounded_ms > 0.0 {
            self.full_ms / self.bounded_ms
        } else {
            0.0
        }
    }
}

/// Best-of-3 wall-clock milliseconds for `op` (the minimum is the stable
/// estimator under one-sided interference noise, as with [`measure`]).
fn time_ms<F: FnMut()>(mut op: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let started = Instant::now();
        op();
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Runs the recovery grid: memory size × open-epoch WAL length. For each
/// point the victim is an [`EpochMemory`] whose sealed history has
/// populated a slice of the data store proportional to its size (1 base
/// write per 64 lines, floored at 256 — full verification must re-prove
/// every populated line, so its cost tracks state size the way a served
/// memory's would), plus an open epoch of `wal_txns` writes; both
/// recovery paths get the identical `(sealed snapshot, WAL)` pair. The
/// grid is ordered smallest→largest, so `.last()` is the largest point —
/// where bounded recovery's advantage over full replay is most
/// pronounced.
fn run_recovery_grid(quick: bool) -> Vec<RecoveryPoint> {
    let memories: &[u64] = if quick { &[1, 4] } else { &[1, 8, 32] };
    let txns: &[usize] = if quick { &[8, 32] } else { &[8, 64, 256] };
    let mut points = Vec::new();
    for &memory_mib in memories {
        for &wal_txns in txns {
            let mut mem =
                EpochMemory::new(TreeConfig::morphtree(), memory_mib << 20, [0x42; 16], 0);
            let lines = (memory_mib << 20) / 64;
            let base_writes = (lines / 64).max(256);
            let mut rng = SplitMix64::new(11);
            let mut payload = [0u8; CACHELINE_BYTES];
            // One sealed epoch of base history...
            for _ in 0..base_writes {
                payload[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
                mem.write(rng.next_u64() % lines, &payload);
            }
            mem.cut();
            // ...then the open epoch a crash would interrupt.
            for _ in 0..wal_txns {
                payload[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
                mem.write(rng.next_u64() % lines, &payload);
            }
            let snapshot = mem.sealed_snapshot();
            let wal = mem.wal_bytes();
            let (mut bounded_verified_lines, mut bounded_macs, mut full_macs) = (0, 0, 0);
            let bounded_ms = time_ms(|| {
                let (m, stats) = recover_bounded(&snapshot, wal).expect("bounded recovery");
                bounded_verified_lines = stats.verified_lines;
                bounded_macs = m.crypto_ops().mac_computes;
                std::hint::black_box((m.root_digest(), stats.replayed_txns));
            });
            let full_ms = time_ms(|| {
                let m = recover(&snapshot, wal).expect("full recovery");
                full_macs = m.verify_all_cost();
                std::hint::black_box(m.root_digest());
            });
            points.push(RecoveryPoint {
                memory_mib,
                wal_txns,
                wal_bytes: wal.len(),
                bounded_ms,
                full_ms,
                bounded_verified_lines,
                bounded_macs,
                full_macs,
            });
        }
    }
    points
}

/// One configuration's point in the proof-size-vs-arity sweep.
struct ProofPoint {
    /// Short config key (`sc64`, `vault`, `zcc`, `mcr`, `morphtree`).
    name: &'static str,
    /// Encoded proof size in bytes — deterministic for a fixed image and
    /// line set, so this is a *structural* number, not a timing.
    proof_bytes: usize,
    /// Counter nodes the proof carries (chain + top, deduplicated).
    nodes: u64,
    /// MACs the standalone verifier recomputes.
    mac_computes: u64,
    /// Mean wall-clock per standalone verification.
    verify_ns: f64,
}

/// Proves the same 8-line set over the same 1 MiB image under each of the
/// five evaluated tree configurations (the attack-campaign set) and
/// measures encoded proof size plus standalone verification time. Higher
/// arity means shorter chains and fewer deduplicated upper nodes, so the
/// 128-ary morphable configs must beat 64-ary SC-64 on proof bytes — the
/// same geometry argument as the paper's metadata-overhead claim, and a
/// unit test pins it.
fn run_proof_grid(quick: bool) -> Vec<ProofPoint> {
    use morphtree_core::proof::verify_proof;

    const PROOF_MEM: u64 = 1 << 20;
    const WRITTEN: u64 = 512;
    let proved: [u64; 8] = [0, 3, 60, 177, 300, 333, 409, 511];
    let iters = if quick { 16 } else { 256 };
    morphtree_core::attack::campaign_configs()
        .into_iter()
        .map(|(name, config)| {
            let mut memory = SecureMemory::new(config, PROOF_MEM, [0x61; 16]);
            let mut payload = [0u8; CACHELINE_BYTES];
            for line in 0..WRITTEN {
                payload[..8].copy_from_slice(&(line.wrapping_mul(0x9e37)).to_le_bytes());
                memory.write(line, &payload);
            }
            let proof = memory.prove(&proved).expect("prove written lines");
            let encoded = proof.encode();
            let root = memory.root_digest();
            let stats = verify_proof(&proof, root).expect("fresh proof verifies");
            let started = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(verify_proof(&proof, root).expect("fresh proof verifies"));
            }
            let verify_ns = started.elapsed().as_nanos() as f64 / f64::from(iters);
            ProofPoint {
                name,
                proof_bytes: encoded.len(),
                nodes: stats.nodes,
                mac_computes: stats.mac_computes,
                verify_ns,
            }
        })
        .collect()
}

/// The headline scaling ratio: 8-thread throughput over 1-thread.
fn serve_scaling_8v1(points: &[(usize, f64)]) -> f64 {
    let at = |threads: usize| {
        points.iter().find(|(t, _)| *t == threads).map_or(0.0, |(_, ops)| *ops)
    };
    let one = at(1);
    if one > 0.0 {
        at(8) / one
    } else {
        0.0
    }
}

/// Runs the `fig07` sweep once and returns its wall-clock milliseconds.
fn run_sweep(quick: bool) -> Result<u64, CliError> {
    use morphtree_experiments::{driver, Lab, Setup};

    // Quick mode shrinks the model so CI stays fast; full mode matches
    // the `sweep` command's defaults.
    let setup = if quick {
        Setup { scale: 64, warmup_instructions: 200_000, measure_instructions: 100_000, seed: 42 }
    } else {
        Setup {
            scale: 16,
            warmup_instructions: 4_000_000,
            measure_instructions: 2_000_000,
            seed: 42,
        }
    };
    let mut lab = Lab::new(setup);
    // Timing only: don't overwrite `results/` from a perf run.
    lab.emit_reports = false;
    let started = Instant::now();
    let outcome = driver::run_figures(&mut lab, &["fig07"]).map_err(err)?;
    let wall_ms = started.elapsed().as_millis() as u64;
    if let Some(summary) = outcome.failure_summary() {
        return Err(err(summary));
    }
    Ok(wall_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_positive_throughput() {
        let mut x = 0u64;
        let b = measure("noop", Duration::from_millis(5), || x = x.wrapping_add(1));
        assert!(b.ns_per_op > 0.0);
        assert!(b.ops_per_sec > 0.0);
        assert!(x > 0);
    }

    #[test]
    fn codec_bench_lines_have_the_documented_shapes() {
        use morphtree_core::counters::morph::MorphFormat;
        let [mcr, zcc] = codec_bench_lines();
        assert_eq!(mcr.format(), MorphFormat::Mcr);
        assert_eq!(mcr.used_counters(), 128);
        assert_eq!(zcc.zcc_counter_size(), Some(6));
        assert_eq!(zcc.used_counters(), 40);
    }

    #[test]
    fn number_formats_finite_and_guards_nonfinite() {
        assert_eq!(number(1.5), "1.500");
        assert_eq!(number(f64::NAN), "null");
    }

    #[test]
    fn serve_scaling_covers_every_thread_count() {
        let points = run_serve_scaling(Duration::from_millis(8));
        assert_eq!(points.iter().map(|(t, _)| *t).collect::<Vec<_>>(), vec![1, 2, 4, 8]);
        assert!(points.iter().all(|(_, ops)| *ops > 0.0), "{points:?}");
    }

    #[test]
    fn recovery_grid_prefers_bounded_at_the_largest_point() {
        let points = run_recovery_grid(true);
        assert_eq!(points.len(), 4, "quick grid is 2 memories x 2 WAL lengths");
        assert!(points.iter().all(|p| p.bounded_ms > 0.0 && p.full_ms > 0.0));
        assert!(points.iter().all(|p| p.wal_bytes > 0 && p.wal_txns > 0));
        // Wall clock on a shared host is noise-dominated at small points —
        // both paths share the same snapshot decode + replay — so timing
        // only guards against a pathological regression (e.g. an
        // accidentally quadratic bounded path), not jitter.
        for p in &points {
            assert!(
                p.speedup() > 0.3,
                "bounded pathologically slower than full at {} MiB / {} txn: {}ms vs {}ms",
                p.memory_mib,
                p.wal_txns,
                p.bounded_ms,
                p.full_ms,
            );
        }
        // The claim itself is deterministic: at the largest point the
        // bounded path re-verifies the open epoch's touched lines and
        // recomputes strictly fewer MACs than the full path's whole-store
        // sweep (`persist::epoch`'s grid test pins bounded <= full crypto
        // at every point).
        let largest = points.last().unwrap();
        assert!(largest.bounded_verified_lines > 0, "bounded path verified nothing");
        assert!(
            largest.bounded_macs < largest.full_macs,
            "bounded {} MACs vs full {} at {} MiB",
            largest.bounded_macs,
            largest.full_macs,
            largest.memory_mib,
        );
    }

    #[test]
    fn proof_grid_morphable_configs_beat_sc64_on_size() {
        // The acceptance claim behind the BENCH.json `proofs` section:
        // proof size is structural (no timing), so this is deterministic.
        // 128-ary morphable trees cover the same 8 lines with fewer,
        // shorter chains than 64-ary SC-64.
        let points = run_proof_grid(true);
        assert_eq!(points.len(), 5, "all five evaluated configs");
        let size_of = |key: &str| {
            points.iter().find(|p| p.name == key).map(|p| p.proof_bytes).unwrap()
        };
        for key in ["zcc", "mcr", "morphtree"] {
            assert!(
                size_of(key) < size_of("sc64"),
                "{key} proof ({} B) should be smaller than sc64 ({} B)",
                size_of(key),
                size_of("sc64"),
            );
        }
        for p in &points {
            assert!(p.nodes > 0 && p.mac_computes > p.nodes, "{}", p.name);
            assert!(p.verify_ns > 0.0, "{}", p.name);
        }
    }

    #[test]
    fn gate_parses_committed_backend_baselines() {
        let json = "\"otp_64b_by_backend\": [\n\
            {\"backend\": \"scalar\", \"ns_per_op\": 600.125, \"ops_per_sec\": 1.0},\n\
            {\"backend\": \"ttable\", \"ns_per_op\": 244.531, \"ops_per_sec\": 2.0}\n]";
        assert_eq!(baseline_otp_ns(json, "scalar"), Some(600.125));
        assert_eq!(baseline_otp_ns(json, "ttable"), Some(244.531));
        assert_eq!(baseline_otp_ns(json, "aesni"), None);
        assert_eq!(baseline_otp_ns("not json at all", "scalar"), None);
    }

    #[test]
    fn gate_enforces_only_the_selected_backend() {
        let path = std::env::temp_dir().join("morphtree-perf-gate-baseline.json");
        let path_str = path.to_str().unwrap().to_owned();
        std::fs::write(
            &path,
            "{\"backend\": \"scalar\", \"ns_per_op\": 100.000, \"ops_per_sec\": 1.0},\n\
             {\"backend\": \"ttable\", \"ns_per_op\": 100.000, \"ops_per_sec\": 1.0}",
        )
        .unwrap();
        let measured = vec![
            (AesBackend::Scalar, 500.0, 2e6), // 5x over its baseline
            (AesBackend::TTable, 110.0, 9e6), // within slack
        ];

        // Selected backend within slack: the scalar blowout is reported
        // but informational, and the command succeeds.
        let mut report = String::new();
        gate_against(&path_str, AesBackend::TTable, &measured, &mut report).unwrap();
        assert!(report.contains("regressed (informational)"), "{report}");
        assert!(report.contains("otp_64b[ttable]") && report.contains("ok"), "{report}");

        // Selected backend over slack: hard failure naming the backend.
        let mut report = String::new();
        let e = gate_against(&path_str, AesBackend::Scalar, &measured, &mut report).unwrap_err();
        assert!(e.0.contains("perf gate FAILED: otp_64b[scalar]"), "{}", e.0);

        // The *selected* backend absent from the baseline: the gate
        // skips loudly — it names the skip, the baseline file, and the
        // run that would make it enforceable — instead of failing or
        // silently passing.
        let unseen = vec![(AesBackend::AesNi, 25.0, 4e7)];
        let mut report = String::new();
        gate_against(&path_str, AesBackend::AesNi, &unseen, &mut report).unwrap();
        assert!(report.contains("gate SKIPPED"), "{report}");
        assert!(report.contains("selected backend `aesni`"), "{report}");
        assert!(report.contains("--crypto-backend aesni"), "{report}");

        // A *non-selected* backend absent from the baseline stays a
        // quiet informational line.
        let mixed = vec![(AesBackend::Scalar, 110.0, 9e6), (AesBackend::AesNi, 25.0, 4e7)];
        let mut report = String::new();
        gate_against(&path_str, AesBackend::Scalar, &mixed, &mut report).unwrap();
        assert!(report.contains("no committed baseline (informational)"), "{report}");
        assert!(!report.contains("gate SKIPPED"), "{report}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn otp_bulk_curve_covers_every_backend_and_batch() {
        let curve = run_otp_bulk_curve(Duration::from_millis(4));
        assert_eq!(
            curve.iter().map(|(b, _)| *b).collect::<Vec<_>>(),
            AesBackend::all_available(),
        );
        for (b, points) in &curve {
            assert_eq!(
                points.iter().map(|p| p.lines).collect::<Vec<_>>(),
                BULK_BATCHES.to_vec(),
                "{b}",
            );
            for p in points {
                assert!(p.ns_per_line > 0.0 && p.lines_per_sec > 0.0, "{b} at {}l", p.lines);
            }
        }
    }

    #[test]
    fn serve_scaling_ratio_is_8_over_1() {
        let points = vec![(1, 100.0), (2, 110.0), (4, 115.0), (8, 120.0)];
        assert!((serve_scaling_8v1(&points) - 1.2).abs() < 1e-9);
        assert_eq!(serve_scaling_8v1(&[]), 0.0);
    }
}
