//! `recover-prove`: crash recovery followed by proof serving.
//!
//! Set-up builds a 256 MiB morphtree `EpochMemory` with 1/16 of its lines
//! written and an open epoch of 256 committed transactions, and keeps
//! the sealed snapshot, the WAL and the published root (`save_root`).
//! Each cycle runs `persist::recover_bounded` (what `morphtree recover
//! --snapshot --wal` runs), then serves 256 proof requests of 8 random
//! written lines each: `prove`, `encode`, `decode_proof`,
//! `verify_any_proof` against the loaded root.
//!
//! Primary requests are the proof round trips, secondary requests the
//! recoveries. Only this workload exercises `core::persist` and
//! `core::proof`; it bypasses `core::concurrent` and the hot write path.

use std::collections::BTreeSet;

use morphtree_core::functional::SecureMemory;
use morphtree_core::persist::{
    load_memory, load_root, recover_bounded, replay_epochs, save_memory, save_root, EpochMemory,
    RecoveryMode, RecoveryStats, VerifyStrategy, WalRecord,
};
use morphtree_core::proof::{decode_proof, verify_any_proof};
use morphtree_core::tree::TreeConfig;

use super::{repeat_setup, write_trace, Window};
use crate::clock::CpuTime;
use crate::rng::{derive, plaintext, Rng};
use crate::spans::{Attribution, Tracer};
use crate::stats::Samples;
use crate::{Args, Class, EndToEnd, Outcome};

const MEMORY_BYTES: u64 = 256 << 20;
/// Every 16th line is written: 2^22 lines / 16 = 2^18.
const STRIDE: u64 = 16;
const WRITTEN: u64 = (MEMORY_BYTES / 64) / STRIDE;
/// Set-up cuts an epoch every this many writes, keeping the WAL short.
const CUT_EVERY: u64 = 16_384;
const OPEN_TXNS: u64 = 256;
const PROOFS_PER_CYCLE: usize = 256;
const LINES_PER_PROOF: usize = 8;
const SETUPS: usize = 3;
/// Every recovery restores the same durable state, so the full-image
/// comparison with the live state (slower than the recovery itself) runs
/// on the settle cycle and then on every 8th cycle.
const CHECK_STATE_EVERY: u64 = 8;

/// The durable state a crash leaves behind, plus what checks need.
struct Durable {
    snapshot: Vec<u8>,
    wal: Vec<u8>,
    root: Vec<u8>,
    /// `save_memory` of the live state at the crash point.
    live: Vec<u8>,
    offset: u64,
}

impl Durable {
    fn line(&self, i: u64) -> u64 {
        i * STRIDE + self.offset
    }
}

fn setup(seed: u64) -> Durable {
    let offset = derive(seed, 1) % STRIDE;
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&seed.to_le_bytes());
    let mut mem = EpochMemory::new(TreeConfig::morphtree(), MEMORY_BYTES, key, 0);
    for i in 0..WRITTEN {
        let line = i * STRIDE + offset;
        mem.write(line, &plaintext(line, 1));
        if (i + 1) % CUT_EVERY == 0 {
            mem.cut();
        }
    }
    mem.cut();
    let mut rng = Rng::new(derive(seed, 7));
    for _ in 0..OPEN_TXNS {
        let line = rng.below(WRITTEN) * STRIDE + offset;
        mem.write(line, &plaintext(line, 2 + rng.below(1 << 20)));
    }
    Durable {
        snapshot: mem.sealed_snapshot(),
        wal: mem.wal_bytes().to_vec(),
        root: save_root(mem.memory().root_digest()),
        live: save_memory(mem.memory()),
        offset,
    }
}

/// Outcome of one cycle's checks.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    recoveries: u64,
    state_mismatches: u64,
    flips_accepted: u64,
}

/// Proof-phase details the traced run reports.
#[derive(Default)]
struct ProofTally {
    bytes: u64,
    mac_computes: u64,
}

fn recover(d: &Durable, tally: &mut Tally) -> Option<(SecureMemory, RecoveryStats)> {
    tally.attempted += 1;
    tally.recoveries += 1;
    match recover_bounded(&d.snapshot, &d.wal) {
        Ok(ok) => Some(ok),
        Err(_) => {
            tally.failed += 1;
            None
        }
    }
}

/// Runs `f`, inside a span when a tracer is given.
fn traced<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer.as_deref_mut() {
        Some(t) => t.span(name, request, f),
        None => f(),
    }
}

/// Serves one proof request; returns the encoded proof if it verified.
fn prove_once(
    mem: &SecureMemory,
    lines: &[u64],
    root: u64,
    tracer: &mut Option<&mut Tracer>,
    request: u64,
    proof_tally: &mut ProofTally,
) -> Option<Vec<u8>> {
    let proof = traced(tracer, "proof.prove", request, || mem.prove(lines)).ok()?;
    let bytes = traced(tracer, "proof.encode", request, || proof.encode());
    let decoded = traced(tracer, "proof.decode", request, || decode_proof(&bytes)).ok()?;
    let stats = traced(tracer, "proof.verify", request, || {
        verify_any_proof(&decoded, root)
    })
    .ok()?;
    proof_tally.bytes += bytes.len() as u64;
    proof_tally.mac_computes += stats.mac_computes;
    Some(bytes)
}

/// One cycle: recover, check the state, serve the proofs, check a flipped
/// proof is refused. Latencies go to `recover_us` and `proof_us`.
#[allow(clippy::too_many_arguments)]
fn cycle(
    d: &Durable,
    rng: &mut Rng,
    tally: &mut Tally,
    proof_tally: &mut ProofTally,
    recover_us: &mut Samples,
    proof_us: &mut Samples,
    mut tracer: Option<&mut Tracer>,
    check_state: bool,
) -> Option<(RecoveryStats, SecureMemory)> {
    let cycle_id = tally.recoveries;
    let start = CpuTime::now();
    let recovered = traced(&mut tracer, "persist.recover_bounded", cycle_id, || {
        recover(d, tally)
    });
    recover_us.push(start.elapsed_us());
    let (mem, stats) = recovered?;
    if check_state && save_memory(&mem) != d.live {
        tally.state_mismatches += 1;
        tally.failed += 1;
    }
    let Ok(root) = load_root(&d.root) else {
        tally.failed += 1;
        return Some((stats, mem));
    };
    let mut last = Vec::new();
    for p in 0..PROOFS_PER_CYCLE {
        let lines: Vec<u64> = (0..LINES_PER_PROOF)
            .map(|_| d.line(rng.below(WRITTEN)))
            .collect();
        let request = cycle_id * PROOFS_PER_CYCLE as u64 + p as u64;
        let start = CpuTime::now();
        if let Some(t) = tracer.as_deref_mut() {
            t.begin("proof.request", request);
        }
        let served = prove_once(&mem, &lines, root, &mut tracer, request, proof_tally);
        if let Some(t) = tracer.as_deref_mut() {
            t.end();
        }
        proof_us.push(start.elapsed_us());
        tally.attempted += 1;
        match served {
            Some(bytes) => last = bytes,
            None => tally.failed += 1,
        }
    }
    // One byte-flipped proof per cycle must be refused with a typed error.
    if !last.is_empty() {
        let at = rng.below(last.len() as u64) as usize;
        last[at] ^= 1 << rng.below(8);
        let refused = match decode_proof(&last) {
            Err(_) => true,
            Ok(p) => verify_any_proof(&p, root).is_err(),
        };
        if !refused {
            tally.flips_accepted += 1;
        }
    }
    Some((stats, mem))
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, d) = repeat_setup(if args.trace { 1 } else { SETUPS }, || setup(args.seed));
    let mut rng = Rng::new(derive(args.seed, 2));
    let mut tally = Tally::default();
    let mut proof_tally = ProofTally::default();
    let (mut recover_us, mut proof_us) = (Samples::new(), Samples::new());
    // Settle: one untimed cycle, which also checks the recovered state.
    let first = cycle(
        &d,
        &mut rng,
        &mut tally,
        &mut proof_tally,
        &mut Samples::new(),
        &mut Samples::new(),
        None,
        true,
    );
    let first = first.map(|(stats, _)| stats);
    let mode = first.map(|s| s.mode);

    if args.trace {
        return run_traced(args, &d, rng, tally, out, first);
    }
    let window = Window::new(args.seconds);
    while window.open() {
        let check_state = tally.recoveries % CHECK_STATE_EVERY == 0;
        cycle(
            &d,
            &mut rng,
            &mut tally,
            &mut proof_tally,
            &mut recover_us,
            &mut proof_us,
            None,
            check_state,
        );
    }
    finish_checks(&mut out, &tally, mode);
    // Throughput over the timed requests only: the window also holds the
    // harness's own checks (state comparison, flipped proof, line lists).
    let requests = (recover_us.len() + proof_us.len()) as f64;
    out.end_to_end = Some(EndToEnd {
        setup_s,
        ops_per_s: requests * 1e6 / (recover_us.sum() + proof_us.sum()),
        ops_label: "recoveries plus proof requests, per second spent inside them",
        primary: Class {
            label: "proof round trip",
            tail: 99.0,
            samples: proof_us,
        },
        secondary: Class {
            label: "recover_bounded",
            tail: 75.0,
            samples: recover_us,
        },
    });
    out
}

fn finish_checks(out: &mut Outcome, tally: &Tally, mode: Option<RecoveryMode>) {
    out.attempted += tally.attempted;
    out.failed += tally.failed;
    out.check(
        "recovery took the bounded path",
        mode == Some(RecoveryMode::Bounded),
    );
    out.check(
        "every recovered save_memory image equals the live state",
        tally.state_mismatches == 0,
    );
    out.check(
        "every recovery succeeded and every proof verified",
        tally.failed == 0,
    );
    out.check(
        "every byte-flipped proof was refused with a typed error",
        tally.flips_accepted == 0,
    );
}

/// The recovery phases re-run one by one on the same inputs: snapshot
/// decode, WAL decode, and the verification pass `stats` says ran, on
/// the state recovery produced.
fn split_recovery(
    d: &Durable,
    stats: &RecoveryStats,
    recovered: &SecureMemory,
    tracer: &mut Tracer,
    cycle: u64,
) -> bool {
    if tracer
        .span("persist.load_memory", cycle, || load_memory(&d.snapshot))
        .is_err()
    {
        return false;
    }
    let Ok(epochs) = tracer.span("persist.replay_epochs", cycle, || replay_epochs(&d.wal)) else {
        return false;
    };
    let touched: Vec<u64> = epochs
        .txns
        .iter()
        .flat_map(|t| &t.records)
        .filter_map(|r| match r {
            WalRecord::DataLine { line, .. } => Some(*line),
            _ => None,
        })
        .collect::<BTreeSet<u64>>()
        .into_iter()
        .collect();
    match stats.verify_strategy {
        VerifyStrategy::None => true,
        VerifyStrategy::TouchedLines => tracer
            .span("functional.verify_lines", cycle, || {
                recovered.verify_lines(&touched)
            })
            .is_ok(),
        VerifyStrategy::FullSweep => tracer
            .span("functional.verify_all", cycle, || recovered.verify_all())
            .is_ok(),
    }
}

fn run_traced(
    args: &Args,
    d: &Durable,
    mut rng: Rng,
    mut tally: Tally,
    mut out: Outcome,
    first: Option<RecoveryStats>,
) -> Outcome {
    let mode = first.map(|s| s.mode);
    let mut proof_tally = ProofTally::default();
    let (mut plain_recover, mut plain_proof) = (Samples::new(), Samples::new());
    let window = Window::new(args.seconds / 2.0);
    while window.open() {
        cycle(
            d,
            &mut rng,
            &mut tally,
            &mut proof_tally,
            &mut plain_recover,
            &mut plain_proof,
            None,
            false,
        );
    }
    let plain_cycle_us = (plain_recover.sum() + plain_proof.sum()) / plain_recover.len() as f64;

    let mut tracer = Tracer::new(100_000);
    let mut proof_tally = ProofTally::default();
    let (mut rec_us, mut proof_us) = (Samples::new(), Samples::new());
    let mut last_stats = first;
    let mut split_ok = true;
    let window = Window::new(args.seconds / 2.0);
    while window.open() {
        let id = tally.recoveries;
        tracer.begin("recover.cycle", id);
        let stats = cycle(
            d,
            &mut rng,
            &mut tally,
            &mut proof_tally,
            &mut rec_us,
            &mut proof_us,
            Some(&mut tracer),
            false,
        );
        tracer.end();
        if let Some((s, recovered)) = stats {
            split_ok &= split_recovery(d, &s, &recovered, &mut tracer, id);
            last_stats = Some(s);
        }
    }
    finish_checks(&mut out, &tally, mode);
    out.check("the recovery phases re-run one by one succeed", split_ok);

    let cycles = tracer.total("recover.cycle").calls as f64;
    let proofs = tracer.total("proof.request").calls as f64;
    let per = |name: &str, n: f64| tracer.total(name).total_ns / n;
    let recover_ns = tracer.total("persist.recover_bounded").total_ns;
    let decode_ns = tracer.total("persist.load_memory").total_ns;
    let wal_ns = tracer.total("persist.replay_epochs").total_ns;
    let verify_ns = tracer.total("functional.verify_lines").total_ns
        + tracer.total("functional.verify_all").total_ns;
    let proof_ns = [
        "proof.prove",
        "proof.encode",
        "proof.decode",
        "proof.verify",
    ]
    .iter()
    .map(|n| tracer.total(n).total_ns)
    .sum::<f64>();

    // The traced end-to-end time: every recovery and every proof request.
    let total_ns = recover_ns + tracer.total("proof.request").total_ns;
    let mut a = Attribution::new(total_ns);
    a.add("core::persist", recover_ns - verify_ns);
    a.add("core::functional", verify_ns);
    a.add("core::proof", proof_ns);
    out.notes
        .push(a.report("recover-prove (recoveries plus proof requests)"));
    let mut rec = Attribution::new(recover_ns);
    rec.add("snapshot decode", decode_ns);
    rec.add("WAL decode", wal_ns);
    rec.add("verify", verify_ns);
    out.notes.push(rec.report("recover_bounded phases"));

    let stats = last_stats.expect("at least one recovery");
    out.layer("share.core.persist", a.share("core::persist"));
    out.layer("share.core.functional", a.share("core::functional"));
    out.layer("share.core.proof", a.share("core::proof"));
    out.layer("share.unattributed", a.unattributed_share());
    out.layer("persist.snapshot_decode_ms", decode_ns / cycles / 1e6);
    out.layer("persist.wal_decode_ms", wal_ns / cycles / 1e6);
    out.layer("persist.verify_ms", verify_ns / cycles / 1e6);
    out.layer("persist.replayed_txns", stats.replayed_txns as f64);
    out.layer("persist.verified_lines", stats.verified_lines as f64);
    out.layer(
        "persist.mode",
        match stats.mode {
            RecoveryMode::CleanShutdown => 0.0,
            RecoveryMode::Bounded => 1.0,
            RecoveryMode::Full => 2.0,
        },
    );
    out.layer("persist.unattributed.share", rec.unattributed_share());
    out.layer("proof.prove_us", per("proof.prove", proofs) / 1e3);
    out.layer(
        "proof.codec_us",
        (per("proof.encode", proofs) + per("proof.decode", proofs)) / 1e3,
    );
    out.layer("proof.verify_us", per("proof.verify", proofs) / 1e3);
    out.layer("proof.bytes", proof_tally.bytes as f64 / proofs);
    out.layer(
        "proof.mac_computes",
        proof_tally.mac_computes as f64 / proofs,
    );
    let traced_cycle_us = (rec_us.sum() + proof_us.sum()) / rec_us.len() as f64;
    out.layer("tracing.overhead", traced_cycle_us / plain_cycle_us - 1.0);
    out.notes.push(format!(
        "untraced half: {} cycles; traced half: {cycles} cycles, {proofs} proofs; mode {}, strategy {}",
        plain_recover.len(),
        stats.mode,
        stats.verify_strategy
    ));
    out.notes.push(write_trace(&tracer, args));
    out
}
