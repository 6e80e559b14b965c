//! `sim-mix1`: the paper-reproduction plane. `simulate` of Table II mix1
//! (mcf, libquantum, omnetpp, gcc, one per core) at scale 16: 1 GiB of
//! memory and an 8 KiB metadata cache, 1 M warm-up and 2 M measured
//! instructions per core.
//!
//! Simulations alternate `TreeConfig::morphtree()` (primary requests) and
//! `TreeConfig::sc64()` (secondary requests), the paper's headline
//! comparison, with a fresh seed per pair. This plane never touches
//! crypto, the counter encode path, `core::store` or `core::persist`.

use morphtree_core::metadata::{EngineOptions, MemAccess, MetadataEngine, ReferenceEngine};
use morphtree_core::tree::TreeConfig;
use morphtree_sim::{simulate, SimConfig, SimResult};
use morphtree_trace::catalog::MIXES;
use morphtree_trace::{RecordSource, SystemWorkload, TraceRecord};

use super::{repeat_setup, write_trace, Window};
use crate::clock::CpuTime;
use crate::rng::derive;
use crate::spans::{Attribution, Tracer};
use crate::stats::Samples;
use crate::{Args, Class, EndToEnd, Outcome};

const SCALE: u64 = 16;
const WARMUP: u64 = 1_000_000;
const MEASURE: u64 = 2_000_000;
/// The workload generator builds in microseconds, too short to time
/// steadily, so set-up is timed to the first results: building the
/// generator and simulating the first seed once per configuration.
const SETUPS: usize = 5;

fn sim_config() -> SimConfig {
    SimConfig {
        memory_bytes: (16 << 30) / SCALE,
        metadata_cache_bytes: (128 * 1024 / SCALE) as usize,
        warmup_instructions: WARMUP,
        measure_instructions: MEASURE,
        ..SimConfig::default()
    }
}

fn workload(seed: u64) -> SystemWorkload {
    SystemWorkload::mix(&MIXES[0], sim_config().memory_bytes, seed)
}

fn configs() -> [TreeConfig; 2] {
    [TreeConfig::morphtree(), TreeConfig::sc64()]
}

/// Simulated instructions of one simulation: the warm-up phase plus the
/// measured instructions retired, over all cores.
fn simulated(cfg: &SimConfig, r: &SimResult) -> f64 {
    (cfg.cores as u64 * cfg.warmup_instructions + r.instructions) as f64
}

/// A record source that keeps the `(core, record)` stream it hands out.
struct Recording {
    inner: SystemWorkload,
    log: Vec<(u8, TraceRecord)>,
}

impl RecordSource for Recording {
    fn num_cores(&self) -> usize {
        self.inner.num_cores()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_record(&mut self, core: usize) -> TraceRecord {
        let record = self.inner.next_record(core);
        self.log.push((core as u8, record));
        record
    }
}

/// How many records of `log` the warm-up phase consumed: `simulate` warms
/// each core in turn until its instruction count reaches the warm-up.
fn warmup_records(log: &[(u8, TraceRecord)], cores: usize, warmup: u64) -> usize {
    let mut instrs = vec![0u64; cores];
    let mut core = 0;
    for (i, &(c, record)) in log.iter().enumerate() {
        while core < cores && instrs[core] >= warmup {
            core += 1;
        }
        if core == cores || usize::from(c) != core {
            return i;
        }
        instrs[core] += u64::from(record.gap) + 1;
    }
    log.len()
}

fn engine(tree: TreeConfig, cfg: &SimConfig) -> MetadataEngine {
    MetadataEngine::with_options(
        tree,
        cfg.memory_bytes,
        cfg.metadata_cache_bytes,
        options(cfg),
    )
}

fn options(cfg: &SimConfig) -> EngineOptions {
    EngineOptions {
        mac_mode: cfg.mac_mode,
        verification: cfg.verification,
        replacement: cfg.replacement,
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cfg = sim_config();
    // Set-up doubles as the settle pass: caches and lazy state are warm
    // before the first timed simulation.
    let (setup_s, ()) = repeat_setup(if args.trace { 1 } else { SETUPS }, || {
        for tree in configs() {
            let _ = simulate(&mut workload(derive(args.seed, 1)), tree, &cfg);
        }
    });
    if args.trace {
        return run_traced(args, out);
    }

    let (mut morph_us, mut sc64_us) = (Samples::new(), Samples::new());
    let mut first: Option<SimResult> = None;
    let mut instructions = 0.0;
    let window = Window::new(args.seconds);
    let mut pair = 0u64;
    while window.open() {
        let seed = derive(args.seed, 100 + pair);
        for (k, tree) in configs().into_iter().enumerate() {
            let mut w = workload(seed);
            let start = CpuTime::now();
            let r = simulate(&mut w, tree, &cfg);
            let us = start.elapsed_us();
            instructions += simulated(&cfg, &r);
            if k == 0 {
                morph_us.push(us);
                first.get_or_insert(r);
            } else {
                sc64_us.push(us);
            }
            out.attempted += 1;
        }
        pair += 1;
    }
    let first = first.expect("at least one simulation");
    let again = simulate(
        &mut workload(derive(args.seed, 100)),
        TreeConfig::morphtree(),
        &cfg,
    );
    out.check(
        "re-simulating the first seed reproduces an identical SimResult",
        again == first,
    );
    out.check(
        "every simulation retired its measured instructions",
        first.instructions >= cfg.cores as u64 * MEASURE,
    );
    out.end_to_end = Some(EndToEnd {
        setup_s,
        ops_per_s: instructions * 1e6 / (morph_us.sum() + sc64_us.sum()),
        ops_label:
            "simulated instructions (warm-up plus measured, all cores), per second spent simulating",
        primary: Class {
            label: "morphtree simulation",
            tail: 75.0,
            samples: morph_us,
        },
        secondary: Class {
            label: "sc64 simulation",
            tail: 75.0,
            samples: sc64_us,
        },
    });
    out
}

/// Replays a recorded stream through `MetadataEngine` and
/// `ReferenceEngine` side by side; true when every record produced the
/// same accesses and the final statistics agree.
fn lockstep(tree: &TreeConfig, cfg: &SimConfig, log: &[(u8, TraceRecord)], warm: usize) -> bool {
    let mut fast = engine(tree.clone(), cfg);
    let mut reference = ReferenceEngine::with_options(
        tree.clone(),
        cfg.memory_bytes,
        cfg.metadata_cache_bytes,
        options(cfg),
    );
    let (mut a, mut b): (Vec<MemAccess>, Vec<MemAccess>) = (Vec::new(), Vec::new());
    for (i, &(_, record)) in log.iter().enumerate() {
        if i == warm {
            fast.reset_stats();
            reference.reset_stats();
        }
        a.clear();
        b.clear();
        if record.is_write {
            fast.write(record.line, &mut a);
            reference.write(record.line, &mut b);
        } else {
            fast.read(record.line, &mut a);
            reference.read(record.line, &mut b);
        }
        if a != b {
            return false;
        }
    }
    fast.stats() == reference.stats()
}

fn run_traced(args: &Args, mut out: Outcome) -> Outcome {
    let cfg = sim_config();
    let mut plain_us = Samples::new();
    let window = Window::new(args.seconds / 2.0);
    let mut pair = 0u64;
    while window.open() {
        let seed = derive(args.seed, 100 + pair);
        for tree in configs() {
            let mut w = workload(seed);
            let start = CpuTime::now();
            let _ = simulate(&mut w, tree, &cfg);
            plain_us.push(start.elapsed_us());
            out.attempted += 1;
        }
        pair += 1;
    }

    let mut tracer = Tracer::new(100_000);
    let mut records = 0u64;
    let mut first: Option<SimResult> = None;
    let (mut replay_ok, mut stats_ok, mut lockstep_ok) = (true, true, true);
    let mut instructions = 0.0;
    let mut loop_ns = 0.0;
    let window = Window::new(args.seconds / 2.0);
    let mut pair = 0u64;
    while window.open() {
        let seed = derive(args.seed, 100 + pair);
        for (k, tree) in configs().into_iter().enumerate() {
            let request = pair * 2 + k as u64;
            let outer = CpuTime::now();
            let mut w = Recording {
                inner: workload(seed),
                log: Vec::with_capacity(1 << 20),
            };
            let r = tracer.span("sim.simulate", request, || {
                simulate(&mut w, tree.clone(), &cfg)
            });
            loop_ns += outer.elapsed_ns() as f64;
            instructions += simulated(&cfg, &r);
            out.attempted += 1;
            records += w.log.len() as u64;

            // The same stream again, through the trace generator alone.
            let mut regen = workload(seed);
            let same = tracer.span("trace.next_record", request, || {
                w.log
                    .iter()
                    .all(|&(core, rec)| regen.next_record(usize::from(core)) == rec)
            });
            replay_ok &= same;

            // And through the metadata engine alone.
            let warm = warmup_records(&w.log, cfg.cores, cfg.warmup_instructions);
            let mut e = engine(tree.clone(), &cfg);
            let mut accesses = Vec::with_capacity(64);
            tracer.span("metadata.access", request, || {
                for (i, &(_, rec)) in w.log.iter().enumerate() {
                    if i == warm {
                        e.reset_stats();
                    }
                    accesses.clear();
                    if rec.is_write {
                        e.write(rec.line, &mut accesses);
                    } else {
                        e.read(rec.line, &mut accesses);
                    }
                }
            });
            stats_ok &= *e.stats() == r.engine && *e.cache().stats() == r.cache;
            if pair == 0 {
                lockstep_ok &= lockstep(&tree, &cfg, &w.log, warm);
            }
            if k == 0 && first.is_none() {
                first = Some(r);
            }
        }
        pair += 1;
    }
    out.check(
        "the trace generator reproduces the recorded stream",
        replay_ok,
    );
    out.check(
        "replaying the stream through MetadataEngine reproduces the simulated stats",
        stats_ok,
    );
    out.check(
        "MetadataEngine runs in lockstep with ReferenceEngine on the first pair",
        lockstep_ok,
    );
    let first = first.expect("at least one simulation");
    let again = simulate(
        &mut workload(derive(args.seed, 100)),
        TreeConfig::morphtree(),
        &cfg,
    );
    out.check(
        "re-simulating the first seed reproduces an identical SimResult",
        again == first,
    );

    let sim_ns = tracer.total("sim.simulate").total_ns;
    let trace_ns = tracer.total("trace.next_record").total_ns;
    let meta_ns = tracer.total("metadata.access").total_ns;
    // The traced end-to-end time is the simulation loop (workload set-up
    // plus simulate); generator and engine time are estimated by the
    // replays above, and the simulator's own share is what remains of
    // simulate.
    let mut a = Attribution::new(loop_ns);
    a.add("trace", trace_ns);
    a.add("core::metadata", meta_ns);
    a.add("sim", sim_ns - trace_ns - meta_ns);
    out.notes.push(a.report("sim-mix1 (simulation loop)"));
    out.layer("share.trace", a.share("trace"));
    out.layer("share.core.metadata", a.share("core::metadata"));
    out.layer("share.sim", a.share("sim"));
    out.layer("share.unattributed", a.unattributed_share());
    out.layer("trace.record_ns", trace_ns / records as f64);
    out.layer("metadata.access_ns", meta_ns / records as f64);
    out.layer("sim.rest.share", (sim_ns - trace_ns - meta_ns) / sim_ns);
    let minstr = first.instructions as f64 / 1e6;
    out.layer(
        "metadata.cache_hit_rate",
        first.cache.hit_rate().unwrap_or(0.0),
    );
    out.layer(
        "metadata.traffic_per_access",
        first.traffic_per_data_access(),
    );
    out.layer(
        "metadata.overflows_per_minstr",
        first.engine.total_overflows() as f64 / minstr,
    );
    out.layer(
        "sim.dram_accesses_per_kinstr",
        first.dram.accesses() as f64 / (minstr * 1e3),
    );
    let sims = tracer.total("sim.simulate").calls as f64;
    let plain_mean = plain_us.sum() / plain_us.len() as f64;
    out.layer("tracing.overhead", sim_ns / 1e3 / sims / plain_mean - 1.0);
    out.notes.push(format!(
        "untraced half: {} simulations; traced half: {sims} simulations, {records} records, {:.0} simulated instructions",
        plain_us.len(),
        instructions
    ));
    out.notes.push(write_trace(&tracer, args));
    out
}
