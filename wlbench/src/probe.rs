//! Unit-cost probes for the traced run: each times one layer's public
//! primitive on inputs shaped like the workload's (its tree config, its
//! counter-line occupancy, its footprint and access pattern), so that
//! calls x unit cost estimates the time that layer takes inside an op.

use std::collections::HashMap;
use std::hint::black_box;

use morphtree_core::counters::{CounterLine, Line};
use morphtree_core::store::PagedStore;
use morphtree_core::tree::{TreeConfig, TreeGeometry};
use morphtree_crypto::{CtrModeCipher, MacKey, MacTag};

use crate::clock::CpuTime;
use crate::rng::Rng;
use crate::stats::median_of;

/// Rounds per probe; the probe reports the median round.
const ROUNDS: usize = 7;

/// Median over [`ROUNDS`] of the time per call of `round`, which runs
/// `calls` calls and is timed as a whole.
fn per_call_ns(calls: usize, mut round: impl FnMut()) -> f64 {
    round(); // warm caches and lazy state before timing
    let per_round: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let start = CpuTime::now();
            round();
            start.elapsed_ns() as f64 / calls as f64
        })
        .collect();
    median_of(&per_round)
}

/// A copy of a memory's counter lines, kept by replaying the workload's
/// writes through the public counter-line API: a write increments the
/// covering counter at every level, bottom to top, exactly as the
/// memory's write path does. Level-0 lines are kept only where `keep`
/// says so, to bound memory on wide footprints.
pub struct Shadow {
    config: TreeConfig,
    geometry: TreeGeometry,
    keep_level0: fn(u64) -> bool,
    lines: HashMap<(usize, u64), Line>,
    /// The most recent increments `(level, line, slot)`, replayed by the
    /// increment probe.
    recent: Vec<(usize, u64, usize)>,
}

/// Recent increments the shadow keeps for the increment probe.
const RECENT: usize = 8192;

impl Shadow {
    pub fn new(config: TreeConfig, memory_bytes: u64, keep_level0: fn(u64) -> bool) -> Self {
        let geometry = TreeGeometry::new(&config, memory_bytes);
        Shadow {
            config,
            geometry,
            keep_level0,
            lines: HashMap::new(),
            recent: Vec::new(),
        }
    }

    /// Whether `data_line`'s level-0 counter line is kept.
    pub fn keeps(&self, data_line: u64) -> bool {
        (self.keep_level0)(self.geometry.parent_of(0, data_line).0)
    }

    pub fn write(&mut self, data_line: u64) {
        let mut child = data_line;
        for level in 0..=self.geometry.top_level() {
            let (idx, slot) = self.geometry.parent_of(level, child);
            if level > 0 || (self.keep_level0)(idx) {
                let org = self.config.org(level);
                self.lines
                    .entry((level, idx))
                    .or_insert_with(|| org.new_line())
                    .increment(slot);
                if self.recent.len() == RECENT {
                    self.recent.clear();
                }
                self.recent.push((level, idx, slot));
            }
            child = idx;
        }
    }

    /// The shadow's effective encryption counter of `data_line`, if kept.
    pub fn counter_of(&self, data_line: u64) -> Option<u64> {
        let (idx, slot) = self.geometry.parent_of(0, data_line);
        self.keeps(data_line)
            .then(|| self.lines.get(&(0, idx)).map_or(0, |line| line.get(slot)))
    }

    /// The counter lines on the chains of `data_lines` (levels 0 to top),
    /// the lines a read or write of those lines encodes.
    pub fn chain_lines(&self, data_lines: &[u64]) -> Vec<Line> {
        let mut out = Vec::new();
        for &line in data_lines {
            let mut child = line;
            for level in 0..=self.geometry.top_level() {
                let (idx, _) = self.geometry.parent_of(level, child);
                if let Some(l) = self.lines.get(&(level, idx)) {
                    out.push(l.clone());
                }
                child = idx;
            }
        }
        out
    }

    /// Time per `encode_for_mac` over the chain lines of `data_lines`.
    pub fn encode_ns(&self, data_lines: &[u64]) -> f64 {
        let lines = self.chain_lines(data_lines);
        assert!(!lines.is_empty(), "no counter lines to encode");
        per_call_ns(lines.len(), || {
            for line in &lines {
                black_box(black_box(line).encode_for_mac());
            }
        })
    }

    /// Time per counter increment, replaying the workload's most recent
    /// increments on fresh copies of the lines they hit (copying and
    /// line lookup are not timed).
    pub fn increment_ns(&self) -> f64 {
        assert!(!self.recent.is_empty(), "no increments recorded");
        let mut keys: Vec<(usize, u64)> = self.recent.iter().map(|&(l, i, _)| (l, i)).collect();
        keys.sort_unstable();
        keys.dedup();
        let base: Vec<Line> = keys.iter().map(|k| self.lines[k].clone()).collect();
        let order: Vec<(usize, usize)> = self
            .recent
            .iter()
            .map(|&(l, i, slot)| {
                (
                    keys.binary_search(&(l, i)).expect("key collected above"),
                    slot,
                )
            })
            .collect();
        let rounds: Vec<f64> = (0..=ROUNDS)
            .map(|_| {
                let mut copy = base.clone();
                let start = CpuTime::now();
                for &(pos, slot) in &order {
                    black_box(copy[pos].increment(slot));
                }
                start.elapsed_ns() as f64 / order.len() as f64
            })
            .collect();
        // The first round warms caches, as in `per_call_ns`.
        median_of(&rounds[1..])
    }
}

/// Time per line of `MacKey::mac_lines_into` at batch width `width`.
pub fn mac_ns(width: usize) -> f64 {
    let key = MacKey::new([0x42; 16]);
    let width = width.max(1);
    let bodies: Vec<[u8; 64]> = (0..width).map(|i| [i as u8; 64]).collect();
    let inputs: Vec<(u64, u64, &[u8; 64])> = bodies
        .iter()
        .enumerate()
        .map(|(i, b)| (i as u64 * 64, i as u64 + 1, b))
        .collect();
    let mut tags = vec![MacTag(0); width];
    let batches = (4096 / width).max(1);
    per_call_ns(batches * width, || {
        for _ in 0..batches {
            key.mac_lines_into(black_box(&inputs), &mut tags);
            black_box(&tags);
        }
    })
}

/// Time per `CtrModeCipher::encrypt_line_into` (one 64-byte line).
pub fn otp_ns() -> f64 {
    let cipher = CtrModeCipher::new([0x24; 16]);
    let plain = [0x11u8; 64];
    let mut out = [0u8; 64];
    let calls = 4096;
    per_call_ns(calls, || {
        for i in 0..calls as u64 {
            cipher.encrypt_line_into(black_box(i * 64), i, &plain, &mut out);
            black_box(&out);
        }
    })
}

/// Time per `PagedStore::get` on a data-sized store with the workload's
/// capacity and occupancy, probed in the workload's access pattern.
pub fn store_lookup_ns(capacity: u64, written: &[u64], seed: u64) -> f64 {
    let mut store: PagedStore<[u8; 64]> = PagedStore::new(capacity);
    for &line in written {
        store.insert(line, [line as u8; 64]);
    }
    let mut rng = Rng::new(seed);
    let pattern: Vec<u64> = (0..65536)
        .map(|_| written[rng.below(written.len() as u64) as usize])
        .collect();
    per_call_ns(pattern.len(), || {
        for &idx in &pattern {
            black_box(store.get(black_box(idx)));
        }
    })
}
