//! The full-system secure-memory simulator: cores + metadata engine +
//! DRAM + energy (the paper's §VI methodology).
//!
//! Each simulation runs a warm-up phase (counters and metadata cache warm
//! up, statistics discarded — the paper warms 25 B instructions before
//! measuring 5 B) followed by a measured phase in which every memory access
//! the metadata engine emits is replayed into the DDR3 model, and data
//! reads gate core retirement on the completion of their critical fetch
//! chain.

use morphtree_core::metadata::{CacheStats, EngineOptions, MacMode, MemAccess, MetadataEngine, ReplacementPolicy, VerificationMode};
use morphtree_core::tree::TreeConfig;
use morphtree_trace::workload::RecordSource;

use crate::cpu::CoreModel;
use crate::dram::{DramGeometry, DramModel, DramStats, DramTiming};
use crate::energy::{EnergyBreakdown, EnergyModel};

/// Cacheline size in bytes.
pub const CACHELINE_BYTES: u64 = 64;

/// Simulation parameters (defaults = Table I).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of cores (Table I: 4).
    pub cores: usize,
    /// Fetch/retire width (Table I: 4).
    pub fetch_width: u64,
    /// ROB entries (Table I: 192).
    pub rob_size: u64,
    /// Physical memory size (Table I: 16 GB).
    pub memory_bytes: u64,
    /// Metadata cache capacity (Table I: 128 KB).
    pub metadata_cache_bytes: usize,
    /// MAC organization (Inline = Synergy, the paper's default).
    pub mac_mode: MacMode,
    /// Whether counter fetches gate data returns (Strict, the paper's
    /// model) or only consume bandwidth (Speculative, PoisonIvy-style).
    pub verification: VerificationMode,
    /// Metadata-cache victim selection.
    pub replacement: ReplacementPolicy,
    /// Warm-up instructions per core (statistics discarded).
    pub warmup_instructions: u64,
    /// Measured instructions per core.
    pub measure_instructions: u64,
    /// Energy-model constants.
    pub energy: EnergyModel,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cores: 4,
            fetch_width: 4,
            rob_size: 192,
            memory_bytes: 16 << 30,
            metadata_cache_bytes: 128 * 1024,
            mac_mode: MacMode::Inline,
            verification: VerificationMode::Strict,
            replacement: ReplacementPolicy::Lru,
            warmup_instructions: 2_000_000,
            measure_instructions: 2_000_000,
            energy: EnergyModel::default(),
        }
    }
}

/// Results of one simulation.
///
/// Derives `PartialEq` so the experiment layer's determinism tests can
/// assert that serial and parallel sweeps produce identical results.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Workload name.
    pub workload: String,
    /// Secure-memory configuration name (`Non-Secure` for the baseline).
    pub config: String,
    /// Instructions retired across all cores (measured phase).
    pub instructions: u64,
    /// Execution cycles of the measured phase.
    pub cycles: u64,
    /// Metadata-engine statistics (empty for the non-secure baseline).
    pub engine: morphtree_core::metadata::EngineStats,
    /// Metadata-cache hit/miss/eviction statistics by tree level (all-zero
    /// for the non-secure baseline, and covering the measured phase only).
    pub cache: CacheStats,
    /// DRAM activity.
    pub dram: DramStats,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
}

impl SimResult {
    /// Instructions per cycle, summed over cores.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        self.instructions as f64 / self.cycles as f64
    }

    /// Memory accesses per data access (Fig 5b/16's y-axis).
    #[must_use]
    pub fn traffic_per_data_access(&self) -> f64 {
        self.engine.traffic_per_data_access()
    }
}

/// Simulates `workload` under secure memory with the given tree
/// configuration.
///
/// # Panics
///
/// Panics if the workload's core count differs from `cfg.cores`.
#[must_use]
pub fn simulate<S: RecordSource + ?Sized>(
    workload: &mut S,
    tree: TreeConfig,
    cfg: &SimConfig,
) -> SimResult {
    run(workload, Some(tree), cfg)
}

/// Simulates `workload` without any secure-memory machinery — the
/// "Non-Secure" reference of Fig 5(a).
#[must_use]
pub fn simulate_nonsecure<S: RecordSource + ?Sized>(
    workload: &mut S,
    cfg: &SimConfig,
) -> SimResult {
    run(workload, None, cfg)
}

fn run<S: RecordSource + ?Sized>(
    workload: &mut S,
    tree: Option<TreeConfig>,
    cfg: &SimConfig,
) -> SimResult {
    assert_eq!(
        workload.num_cores(),
        cfg.cores,
        "workload core count must match the configuration"
    );
    let config_name = tree
        .as_ref()
        .map_or_else(|| "Non-Secure".to_owned(), |t| t.name().to_owned());
    let mut engine = tree.map(|t| {
        MetadataEngine::with_options(
            t,
            cfg.memory_bytes,
            cfg.metadata_cache_bytes,
            EngineOptions {
                mac_mode: cfg.mac_mode,
                verification: cfg.verification,
                replacement: cfg.replacement,
            },
        )
    });

    let mut accesses: Vec<MemAccess> = Vec::with_capacity(512);

    // ---- Warm-up: counters and metadata cache fill; no timing. ----
    if let Some(engine) = engine.as_mut() {
        for core in 0..cfg.cores {
            let mut instrs = 0u64;
            while instrs < cfg.warmup_instructions {
                let rec = workload.next_record(core);
                instrs += u64::from(rec.gap) + 1;
                accesses.clear();
                if rec.is_write {
                    engine.write(rec.line, &mut accesses);
                } else {
                    engine.read(rec.line, &mut accesses);
                }
            }
        }
        engine.reset_stats();
    }

    // ---- Measured phase. ----
    let mut dram = DramModel::new(DramGeometry::default(), DramTiming::default());
    let mut cores: Vec<CoreModel> = (0..cfg.cores)
        .map(|_| CoreModel::new(cfg.fetch_width, cfg.rob_size))
        .collect();
    let mut done = vec![false; cfg.cores];

    while !done.iter().all(|&d| d) {
        // Advance the core that is furthest behind in time, so DRAM sees
        // requests in (approximate) global arrival order.
        let core_idx = (0..cfg.cores)
            .filter(|&c| !done[c])
            .min_by_key(|&c| cores[c].now())
            .expect("some core active");
        let rec = workload.next_record(core_idx);
        let issue = cores[core_idx].advance_to_mem_op(rec.gap);

        accesses.clear();
        match engine.as_mut() {
            Some(engine) => {
                if rec.is_write {
                    engine.write(rec.line, &mut accesses);
                } else {
                    engine.read(rec.line, &mut accesses);
                }
            }
            None => {
                accesses.push(MemAccess {
                    addr: rec.line * CACHELINE_BYTES,
                    is_write: rec.is_write,
                    category: morphtree_core::metadata::AccessCategory::Data,
                    critical: !rec.is_write,
                });
            }
        }

        let mut completion = issue;
        for access in &accesses {
            let finished = dram.request(issue, access.addr, access.is_write);
            if access.critical && !access.is_write {
                completion = completion.max(finished);
            }
        }
        if !rec.is_write {
            cores[core_idx].record_load(completion);
        }
        if cores[core_idx].instructions() >= cfg.measure_instructions {
            done[core_idx] = true;
        }
    }

    let cycles = cores.iter().map(CoreModel::finish_cycle).max().expect("cores");
    let instructions: u64 = cores.iter().map(CoreModel::instructions).sum();
    let cache_stats = engine
        .as_ref()
        .map(|e| *e.cache().stats())
        .unwrap_or_default();
    let engine_stats = engine
        .as_ref()
        .map(|e| e.stats().clone())
        .unwrap_or_else(|| {
            let mut s = morphtree_core::metadata::EngineStats::new(0);
            // Count the raw data traffic for consistent ratios.
            s.data_reads = dram.stats().reads;
            s.data_writes = dram.stats().writes;
            s.reads[0] = dram.stats().reads;
            s.writes[0] = dram.stats().writes;
            s
        });
    // Zero-cycle runs have no meaningful breakdown; the all-zero default
    // reports `None` power/EDP downstream rather than NaN.
    let energy = cfg
        .energy
        .evaluate(cycles, instructions, dram.stats())
        .unwrap_or_default();

    SimResult {
        workload: workload.name().to_owned(),
        config: config_name,
        instructions,
        cycles,
        engine: engine_stats,
        cache: cache_stats,
        dram: *dram.stats(),
        energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphtree_trace::catalog::Benchmark;
    use morphtree_trace::workload::SystemWorkload;

    /// A quick configuration for tests: small memory, short runs.
    fn quick() -> SimConfig {
        SimConfig {
            cores: 2,
            memory_bytes: 1 << 30,
            metadata_cache_bytes: 32 * 1024,
            warmup_instructions: 100_000,
            measure_instructions: 100_000,
            ..SimConfig::default()
        }
    }

    fn workload(name: &str, cfg: &SimConfig, seed: u64) -> SystemWorkload {
        SystemWorkload::rate(
            Benchmark::by_name(name).unwrap(),
            cfg.cores,
            cfg.memory_bytes,
            seed,
        )
    }

    #[test]
    fn nonsecure_is_fastest() {
        let cfg = quick();
        let base = simulate_nonsecure(&mut workload("mcf", &cfg, 1), &cfg);
        let secure = simulate(&mut workload("mcf", &cfg, 1), TreeConfig::sc64(), &cfg);
        assert!(
            base.ipc() > secure.ipc(),
            "non-secure {} !> secure {}",
            base.ipc(),
            secure.ipc()
        );
    }

    #[test]
    fn secure_traffic_exceeds_one_access_per_data_access() {
        let cfg = quick();
        let r = simulate(&mut workload("mcf", &cfg, 2), TreeConfig::sc64(), &cfg);
        assert!(r.traffic_per_data_access() > 1.0);
        assert!(r.engine.data_accesses() > 0);
    }

    #[test]
    fn morphtree_reduces_counter_traffic_vs_sc64_on_random_workload() {
        let cfg = quick();
        let sc64 = simulate(&mut workload("mcf", &cfg, 3), TreeConfig::sc64(), &cfg);
        let morph = simulate(&mut workload("mcf", &cfg, 3), TreeConfig::morphtree(), &cfg);
        assert!(
            morph.traffic_per_data_access() < sc64.traffic_per_data_access(),
            "morph {} !< sc64 {}",
            morph.traffic_per_data_access(),
            sc64.traffic_per_data_access()
        );
    }

    #[test]
    fn vault_has_more_counter_traffic_than_sc64() {
        let cfg = quick();
        let sc64 = simulate(&mut workload("mcf", &cfg, 4), TreeConfig::sc64(), &cfg);
        let vault = simulate(&mut workload("mcf", &cfg, 4), TreeConfig::vault(), &cfg);
        assert!(
            vault.traffic_per_data_access() > sc64.traffic_per_data_access(),
            "vault {} !> sc64 {}",
            vault.traffic_per_data_access(),
            sc64.traffic_per_data_access()
        );
    }

    #[test]
    fn results_are_deterministic() {
        let cfg = quick();
        let a = simulate(&mut workload("milc", &cfg, 9), TreeConfig::morphtree(), &cfg);
        let b = simulate(&mut workload("milc", &cfg, 9), TreeConfig::morphtree(), &cfg);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.dram, b.dram);
    }

    #[test]
    fn instruction_quota_respected() {
        let cfg = quick();
        let r = simulate(&mut workload("libquantum", &cfg, 5), TreeConfig::sc64(), &cfg);
        let per_core_min = cfg.measure_instructions;
        assert!(r.instructions >= per_core_min * cfg.cores as u64);
        // Quota overshoot is bounded by one record's gap.
        assert!(r.instructions < (per_core_min + 10_000) * cfg.cores as u64);
    }

    #[test]
    fn cache_stats_cover_the_measured_phase_only() {
        let cfg = quick();
        let secure = simulate(&mut workload("mcf", &cfg, 7), TreeConfig::sc64(), &cfg);
        // The warm-up resets cache stats, so whatever remains was accrued
        // during measurement and must agree with the engine's miss traffic.
        assert!(secure.cache.hits + secure.cache.misses > 0);
        assert!(secure.cache.hit_rate().is_some());
        let base = simulate_nonsecure(&mut workload("mcf", &cfg, 7), &cfg);
        assert_eq!(base.cache, CacheStats::default());
        assert_eq!(base.cache.hit_rate(), None);
    }

    #[test]
    fn energy_fields_are_consistent() {
        let cfg = quick();
        let r = simulate(&mut workload("lbm", &cfg, 6), TreeConfig::sc64(), &cfg);
        assert!(r.energy.power_w().unwrap() > 0.0);
        assert!(
            (r.energy.edp().unwrap() - r.energy.energy_j() * r.energy.time_s).abs() < 1e-15
        );
        assert!(r.ipc() > 0.0);
    }

    #[test]
    #[should_panic(expected = "core count")]
    fn rejects_core_mismatch() {
        let cfg = quick();
        let mut w = SystemWorkload::rate(
            Benchmark::by_name("mcf").unwrap(),
            1,
            cfg.memory_bytes,
            1,
        );
        let _ = simulate(&mut w, TreeConfig::sc64(), &cfg);
    }

    #[test]
    fn simulation_types_are_send() {
        // The parallel sweep engine runs `simulate` on worker threads:
        // configs cross the spawn boundary and results cross back.
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<SimConfig>();
        assert_sync::<SimConfig>();
        assert_send::<SimResult>();
    }
}
