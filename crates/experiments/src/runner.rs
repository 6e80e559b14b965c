//! Shared experiment infrastructure: the scaled operating point, workload
//! construction by name, a memoizing run cache so `runall` never simulates
//! the same configuration twice — and a parallel sweep engine that fans
//! independent runs out across worker threads.
//!
//! # Parallel sweeps
//!
//! Figures declare the full set of runs they need up front by implementing
//! a `plan` hook that fills a [`Sweep`]; [`Lab::prefetch`] then executes
//! every not-yet-memoized run on a work queue over
//! `std::thread::available_parallelism()` scoped threads. Results land in
//! the same memo the serial [`Lab::result`] path uses, so figure `run`
//! functions are unchanged: they read their runs back out of the cache.
//!
//! # Determinism
//!
//! Parallel execution provably cannot change any result: every run is
//! keyed by a [`RunKey`]/[`EngineKey`], rebuilds its own
//! [`SystemWorkload`] from the [`Setup`] seed (per-core RNG streams are
//! derived from the seed alone), and shares no mutable state with other
//! runs. Serial and parallel paths call the same [`execute_sim`] /
//! [`execute_engine`] functions; the `determinism` integration test
//! asserts byte-identical results per key across thread counts.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use morphtree_core::metadata::{
    EngineStats, MacMode, MetadataEngine, ReplacementPolicy, VerificationMode,
};
use morphtree_core::obs::Timeline;
use morphtree_core::tree::TreeConfig;
use morphtree_sim::system::{simulate, simulate_nonsecure, SimConfig, SimResult};
use morphtree_trace::catalog::{Benchmark, MIXES};
use morphtree_trace::workload::SystemWorkload;

/// A workload name that is neither a Table II benchmark nor a mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownWorkload {
    /// The requested name.
    pub name: String,
}

impl fmt::Display for UnknownWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown workload `{}` (known: {})",
            self.name,
            Setup::all_workloads().join(" ")
        )
    }
}

impl std::error::Error for UnknownWorkload {}

/// The scaled operating point (see the crate docs for the rationale).
#[derive(Debug, Clone)]
pub struct Setup {
    /// Uniform scale factor: memory, metadata cache and footprints are all
    /// divided by this.
    pub scale: u64,
    /// Warm-up instructions per core.
    pub warmup_instructions: u64,
    /// Measured instructions per core.
    pub measure_instructions: u64,
    /// Deterministic base seed.
    pub seed: u64,
}

impl Default for Setup {
    fn default() -> Self {
        Setup {
            scale: 16,
            warmup_instructions: 4_000_000,
            measure_instructions: 2_000_000,
            seed: 42,
        }
    }
}

impl Setup {
    /// Physical memory at this scale (paper: 16 GB).
    #[must_use]
    pub fn memory_bytes(&self) -> u64 {
        (16 << 30) / self.scale
    }

    /// Metadata cache at this scale (paper: 128 KB).
    #[must_use]
    pub fn metadata_cache_bytes(&self) -> usize {
        ((128 * 1024) / self.scale).max(4096) as usize
    }

    /// Scales another cache size consistently (for the Fig 19 sweep).
    #[must_use]
    pub fn scaled_cache(&self, paper_bytes: u64) -> usize {
        (paper_bytes / self.scale).max(4096) as usize
    }

    /// The simulator configuration at this scale.
    #[must_use]
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            memory_bytes: self.memory_bytes(),
            metadata_cache_bytes: self.metadata_cache_bytes(),
            warmup_instructions: self.warmup_instructions,
            measure_instructions: self.measure_instructions,
            ..SimConfig::default()
        }
    }

    /// Builds the workload named `name` (a Table II benchmark or
    /// `mix1`..`mix6`).
    ///
    /// # Errors
    ///
    /// Returns [`UnknownWorkload`] (listing the known names) if `name` is
    /// neither a benchmark nor a mix.
    pub fn workload(&self, name: &str) -> Result<SystemWorkload, UnknownWorkload> {
        if let Some(mix) = MIXES.iter().find(|m| m.name == name) {
            // Mixes use the same footprint divisor as rate mode.
            return Ok(SystemWorkload::mix(mix, self.memory_bytes(), self.seed));
        }
        let bench = Benchmark::by_name(name)
            .ok_or_else(|| UnknownWorkload { name: name.to_owned() })?;
        Ok(SystemWorkload::rate_scaled(bench, 4, self.memory_bytes(), self.seed, self.scale))
    }

    /// The 22 rate-mode workloads (Table II order).
    #[must_use]
    pub fn rate_workloads() -> Vec<&'static str> {
        Benchmark::all().iter().map(|b| b.name).collect()
    }

    /// All 28 workloads of Fig 15/16: 16 SPEC, 6 mixes, 6 GAP — in the
    /// paper's figure order (SPEC, MIX, GAP).
    #[must_use]
    pub fn all_workloads() -> Vec<&'static str> {
        let mut names: Vec<&'static str> =
            Benchmark::spec().iter().map(|b| b.name).collect();
        names.extend(MIXES.iter().map(|m| m.name));
        names.extend(Benchmark::gap().iter().map(|b| b.name));
        names
    }
}

/// Key identifying one full-system simulation run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// Workload name (Table II benchmark or `mix1`..`mix6`).
    pub workload: String,
    /// Tree configuration name (`Non-Secure` for the baseline).
    pub config: String,
    /// Metadata-cache capacity in bytes.
    pub cache_bytes: usize,
    /// MAC organization.
    pub mac: MacMode,
    /// Verification mode (strict vs PoisonIvy-style speculative).
    pub verification: VerificationMode,
    /// Metadata-cache victim selection.
    pub replacement: ReplacementPolicy,
}

impl RunKey {
    /// Builds the key for `workload` under `tree` (None = non-secure).
    #[must_use]
    pub fn new(
        workload: &str,
        tree: Option<&TreeConfig>,
        cache_bytes: usize,
        mac: MacMode,
        verification: VerificationMode,
        replacement: ReplacementPolicy,
    ) -> Self {
        RunKey {
            workload: workload.to_owned(),
            config: tree.map_or_else(|| "Non-Secure".to_owned(), |t| t.name().to_owned()),
            cache_bytes,
            mac,
            verification,
            replacement,
        }
    }

    fn label(&self) -> String {
        format!("{} / {}", self.workload, self.config)
    }
}

/// Key identifying one engine-only (timing-free) run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EngineKey {
    /// Workload name.
    pub workload: String,
    /// Tree configuration name.
    pub config: String,
    /// Measured instructions per core (warm-up is the same length).
    pub instructions: u64,
}

impl EngineKey {
    /// Builds the key for `workload` under `tree`.
    #[must_use]
    pub fn new(workload: &str, tree: &TreeConfig, instructions: u64) -> Self {
        EngineKey {
            workload: workload.to_owned(),
            config: tree.name().to_owned(),
            instructions,
        }
    }

    fn label(&self) -> String {
        format!("{} / {} [engine]", self.workload, self.config)
    }
}

/// A planned set of runs, collected up front so [`Lab::prefetch`] can
/// batch them across worker threads.
///
/// Duplicate declarations are deduplicated by key, and insertion order is
/// preserved — the work queue is deterministic for a given plan.
#[derive(Default)]
pub struct Sweep {
    sims: Vec<(RunKey, Option<TreeConfig>)>,
    sim_keys: HashSet<RunKey>,
    engines: Vec<(EngineKey, TreeConfig)>,
    engine_keys: HashSet<EngineKey>,
}

impl Sweep {
    /// An empty plan.
    #[must_use]
    pub fn new() -> Self {
        Sweep::default()
    }

    /// Declares a run at the setup's default cache size, inline MACs,
    /// strict verification, and LRU replacement — the operating point of
    /// [`Lab::result`].
    pub fn sim(&mut self, setup: &Setup, workload: &str, tree: Option<TreeConfig>) {
        self.sim_with(workload, tree, setup.metadata_cache_bytes(), MacMode::Inline);
    }

    /// Declares a run with explicit cache size and MAC mode
    /// ([`Lab::result_with`]'s operating point).
    pub fn sim_with(
        &mut self,
        workload: &str,
        tree: Option<TreeConfig>,
        cache_bytes: usize,
        mac: MacMode,
    ) {
        self.sim_full(
            workload,
            tree,
            cache_bytes,
            mac,
            VerificationMode::default(),
            ReplacementPolicy::default(),
        );
    }

    /// Declares a run with every key dimension explicit
    /// ([`Lab::result_full`]'s operating point).
    pub fn sim_full(
        &mut self,
        workload: &str,
        tree: Option<TreeConfig>,
        cache_bytes: usize,
        mac: MacMode,
        verification: VerificationMode,
        replacement: ReplacementPolicy,
    ) {
        let key = RunKey::new(workload, tree.as_ref(), cache_bytes, mac, verification, replacement);
        if self.sim_keys.insert(key.clone()) {
            self.sims.push((key, tree));
        }
    }

    /// Declares a timing-free engine run ([`Lab::engine_stats`]'s
    /// operating point).
    pub fn engine(&mut self, workload: &str, tree: TreeConfig, instructions: u64) {
        let key = EngineKey::new(workload, &tree, instructions);
        if self.engine_keys.insert(key.clone()) {
            self.engines.push((key, tree));
        }
    }

    /// Number of distinct planned runs (simulations + engine studies).
    #[must_use]
    pub fn len(&self) -> usize {
        self.sims.len() + self.engines.len()
    }

    /// True when nothing is planned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sims.is_empty() && self.engines.is_empty()
    }
}

/// Test-only fault injection: arms a one-shot (or N-shot) panic inside
/// the next runs whose label contains a pattern, so the sweep-isolation
/// machinery can be exercised end-to-end. Hidden from docs; no-op unless
/// armed.
#[doc(hidden)]
pub mod fault_injection {
    use std::sync::Mutex;

    static ARMED: Mutex<Option<(String, u32)>> = Mutex::new(None);

    /// Panics the next `times` runs whose label contains `pattern`.
    pub fn arm(pattern: &str, times: u32) {
        *ARMED.lock().expect("fault-injection lock") = Some((pattern.to_owned(), times));
    }

    /// Clears any armed fault.
    pub fn disarm() {
        *ARMED.lock().expect("fault-injection lock") = None;
    }

    pub(crate) fn maybe_panic(label: &str) {
        let mut armed = ARMED.lock().expect("fault-injection lock");
        if let Some((pattern, times)) = armed.as_mut() {
            if *times > 0 && label.contains(pattern.as_str()) {
                *times -= 1;
                let t = *times;
                drop(armed); // do not poison the lock with the panic below
                panic!("injected fault for `{label}` ({t} charges left)");
            }
        }
    }
}

/// Executes one full-system simulation for `key`. Both the serial
/// [`Lab::result_full`] path and the parallel [`Lab::prefetch`] workers
/// call this, so the two are identical by construction: the workload (and
/// its RNG streams) is rebuilt from the setup seed on every call.
///
/// # Errors
///
/// Returns [`UnknownWorkload`] if the key names a workload that does not
/// exist.
pub fn execute_sim(
    setup: &Setup,
    key: &RunKey,
    tree: Option<&TreeConfig>,
) -> Result<SimResult, UnknownWorkload> {
    fault_injection::maybe_panic(&key.label());
    let mut cfg = setup.sim_config();
    cfg.metadata_cache_bytes = key.cache_bytes;
    cfg.mac_mode = key.mac;
    cfg.verification = key.verification;
    cfg.replacement = key.replacement;
    let mut workload = setup.workload(&key.workload)?;
    Ok(match tree {
        Some(t) => simulate(&mut workload, t.clone(), &cfg),
        None => simulate_nonsecure(&mut workload, &cfg),
    })
}

/// Executes one timing-free engine study for `key` (warm-up then measure,
/// round-robin across cores). Shared by the serial and parallel paths.
///
/// # Errors
///
/// Returns [`UnknownWorkload`] if the key names a workload that does not
/// exist.
pub fn execute_engine(
    setup: &Setup,
    key: &EngineKey,
    tree: &TreeConfig,
) -> Result<EngineStats, UnknownWorkload> {
    fault_injection::maybe_panic(&key.label());
    let mut workload = setup.workload(&key.workload)?;
    let mut engine = MetadataEngine::new(
        tree.clone(),
        setup.memory_bytes(),
        setup.metadata_cache_bytes(),
        MacMode::Inline,
    );
    let mut accesses = Vec::with_capacity(512);
    let cores = workload.num_cores();
    for phase in 0..2u8 {
        if phase == 1 {
            engine.reset_stats();
        }
        let mut instrs = vec![0u64; cores];
        while instrs.iter().any(|&i| i < key.instructions) {
            for core in 0..cores {
                if instrs[core] >= key.instructions {
                    continue;
                }
                let rec = workload.next_record(core);
                *instrs.get_mut(core).expect("core index") += u64::from(rec.gap) + 1;
                accesses.clear();
                if rec.is_write {
                    engine.write(rec.line, &mut accesses);
                } else {
                    engine.read(rec.line, &mut accesses);
                }
            }
        }
    }
    Ok(engine.stats().clone())
}

/// Record of one run the sweep could not complete.
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// `workload / config` label of the failed run.
    pub label: String,
    /// The panic message or typed error that killed it.
    pub error: String,
    /// Attempts made (2 = the retry failed too).
    pub attempts: u32,
}

impl fmt::Display for RunFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} failed after {} attempt(s): {}", self.label, self.attempts, self.error)
    }
}

/// Renders a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

/// Maximum attempts per sweep run: the first try plus one retry. A retry
/// is only useful against nondeterministic faults (the runs themselves are
/// deterministic), but it is cheap insurance and the ISSUE-level contract.
const RUN_ATTEMPTS: u32 = 2;

/// Runs `f` inside panic isolation with one retry. Returns the value and
/// the number of attempts used, or a [`RunFailure`]. Typed errors fail
/// immediately (they are deterministic); only panics are retried.
fn run_isolated<T>(
    label: &str,
    f: impl Fn() -> Result<T, UnknownWorkload>,
) -> Result<(T, u32), RunFailure> {
    let mut last_panic = String::new();
    for attempt in 1..=RUN_ATTEMPTS {
        match catch_unwind(AssertUnwindSafe(&f)) {
            Ok(Ok(value)) => return Ok((value, attempt)),
            Ok(Err(error)) => {
                return Err(RunFailure {
                    label: label.to_owned(),
                    error: error.to_string(),
                    attempts: attempt,
                })
            }
            Err(payload) => last_panic = panic_message(payload.as_ref()),
        }
    }
    Err(RunFailure { label: label.to_owned(), error: last_panic, attempts: RUN_ATTEMPTS })
}

/// Minimum interval between progress lines during a sweep.
const PROGRESS_INTERVAL: Duration = Duration::from_millis(100);

/// Completion counter shared by sweep workers; holding the lock while
/// printing keeps the output ordered (counts are monotone) and the
/// interval check keeps it rate-limited.
struct Progress {
    done: usize,
    last_print: Option<Instant>,
}

impl Progress {
    fn note(progress: &Mutex<Progress>, total: usize, label: &str) {
        let mut p = progress.lock().expect("progress lock");
        p.done += 1;
        let now = Instant::now();
        let due = p
            .last_print
            .is_none_or(|t| now.duration_since(t) >= PROGRESS_INTERVAL);
        if due || p.done == total {
            eprintln!("[sweep {}/{}] {}", p.done, total, label);
            p.last_print = Some(now);
        }
    }
}

/// A memoizing experiment driver.
pub struct Lab {
    setup: Setup,
    runs: HashMap<RunKey, SimResult>,
    engine_runs: HashMap<EngineKey, EngineStats>,
    /// Worker threads for [`Lab::prefetch`]; 0 = automatic
    /// (`MORPHTREE_THREADS` env var, else `available_parallelism`).
    threads: usize,
    /// Runs no sweep could complete (panicked twice, or a typed error).
    failures: Vec<RunFailure>,
    /// Labels of runs that panicked once but succeeded on retry.
    recovered: Vec<String>,
    /// Progress lines are printed when true (default).
    pub verbose: bool,
    /// Figure reports are saved under `results/` when true (default);
    /// tests render in-memory only.
    pub emit_reports: bool,
    /// Wall-time span trace of every run executed so far. Wall-clock data
    /// lives only here — never in the deterministic metrics registry — so
    /// sweep metrics files stay byte-identical across thread counts.
    timeline: Timeline,
    /// Reference instant for the timeline's micro-second clock.
    epoch: Instant,
}

impl Lab {
    /// Creates a lab at the given operating point.
    #[must_use]
    pub fn new(setup: Setup) -> Self {
        Lab {
            setup,
            runs: HashMap::new(),
            engine_runs: HashMap::new(),
            threads: 0,
            failures: Vec::new(),
            recovered: Vec::new(),
            verbose: true,
            emit_reports: true,
            timeline: Timeline::new(),
            epoch: Instant::now(),
        }
    }

    /// Micro-seconds since this lab was created (the timeline clock).
    fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Wall-time span trace: one `run:<label>` span per executed run, and
    /// one enclosing `sweep` span per [`Lab::prefetch`] batch (worker
    /// spans nest under it at depth 1). Retried runs carry `attempts > 1`.
    #[must_use]
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// The operating point.
    #[must_use]
    pub fn setup(&self) -> &Setup {
        &self.setup
    }

    /// Pins the sweep worker count (0 restores automatic selection).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Worker threads a sweep of `jobs` runs would use: the pinned count
    /// if set, else `MORPHTREE_THREADS`, else the machine's available
    /// parallelism — never more than there are jobs.
    #[must_use]
    pub fn worker_count(&self, jobs: usize) -> usize {
        let configured = if self.threads > 0 {
            self.threads
        } else {
            std::env::var("MORPHTREE_THREADS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        let count = if configured > 0 {
            configured
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        };
        count.clamp(1, jobs.max(1))
    }

    /// Executes every planned run that is not already memoized, fanning
    /// them out across worker threads, and merges the results into the
    /// memo — after this, the figure `run` functions find all their runs
    /// cached and never simulate.
    ///
    /// Deterministic by construction: each job rebuilds its workload from
    /// the setup seed and shares no state with other jobs (see
    /// [`execute_sim`]), so the results are identical to running the same
    /// keys serially, in any order, on any thread count.
    pub fn prefetch(&mut self, sweep: &Sweep) {
        let sim_jobs: Vec<&(RunKey, Option<TreeConfig>)> = sweep
            .sims
            .iter()
            .filter(|(key, _)| !self.runs.contains_key(key))
            .collect();
        let engine_jobs: Vec<&(EngineKey, TreeConfig)> = sweep
            .engines
            .iter()
            .filter(|(key, _)| !self.engine_runs.contains_key(key))
            .collect();
        let total = sim_jobs.len() + engine_jobs.len();
        if total == 0 {
            return;
        }
        let workers = self.worker_count(total);
        if self.verbose {
            eprintln!(
                "[sweep] {} runs ({} sim, {} engine) on {} threads",
                total,
                sim_jobs.len(),
                engine_jobs.len(),
                workers,
            );
        }

        let next = AtomicUsize::new(0);
        let sim_results: Mutex<HashMap<RunKey, SimResult>> = Mutex::new(HashMap::new());
        let engine_results: Mutex<HashMap<EngineKey, EngineStats>> =
            Mutex::new(HashMap::new());
        let failures: Mutex<Vec<RunFailure>> = Mutex::new(Vec::new());
        let recovered: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let progress = Mutex::new(Progress { done: 0, last_print: None });
        // Workers collect pre-measured (label, start, duration, attempts)
        // tuples; they are folded into the timeline after the barrier so
        // the tracer itself needs no cross-thread synchronization.
        let worker_spans: Mutex<Vec<(String, u64, u64, u32)>> = Mutex::new(Vec::new());
        self.timeline.start_span("sweep", self.now_us());
        let epoch = self.epoch;
        let setup = &self.setup;
        let verbose = self.verbose;

        // Each run executes under `run_isolated`: a panicking or failing
        // run is retried once, then recorded as a failure — it never takes
        // the sweep (or the other runs) down with it.
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= total {
                        break;
                    }
                    let begun = Instant::now();
                    let started =
                        u64::try_from(begun.duration_since(epoch).as_micros())
                            .unwrap_or(u64::MAX);
                    let (label, attempts) = if index < sim_jobs.len() {
                        let (key, tree) = sim_jobs[index];
                        let label = key.label();
                        match run_isolated(&label, || execute_sim(setup, key, tree.as_ref()))
                        {
                            Ok((result, attempts)) => {
                                sim_results
                                    .lock()
                                    .expect("sim results lock")
                                    .insert(key.clone(), result);
                                (label, Some(attempts))
                            }
                            Err(failure) => {
                                failures.lock().expect("failures lock").push(failure);
                                (label, None)
                            }
                        }
                    } else {
                        let (key, tree) = engine_jobs[index - sim_jobs.len()];
                        let label = key.label();
                        match run_isolated(&label, || execute_engine(setup, key, tree)) {
                            Ok((stats, attempts)) => {
                                engine_results
                                    .lock()
                                    .expect("engine results lock")
                                    .insert(key.clone(), stats);
                                (label, Some(attempts))
                            }
                            Err(failure) => {
                                failures.lock().expect("failures lock").push(failure);
                                (label, None)
                            }
                        }
                    };
                    let duration =
                        u64::try_from(begun.elapsed().as_micros()).unwrap_or(u64::MAX);
                    worker_spans.lock().expect("worker spans lock").push((
                        format!("run:{label}"),
                        started,
                        duration,
                        attempts.unwrap_or(RUN_ATTEMPTS),
                    ));
                    if attempts.is_some_and(|a| a > 1) {
                        recovered.lock().expect("recovered lock").push(label.clone());
                    }
                    if verbose {
                        Progress::note(&progress, total, &label);
                    }
                });
            }
        });

        // Fold worker spans in under the still-open `sweep` scope (depth
        // 1), then close it; the final sort makes span order independent
        // of worker interleaving.
        for (name, start, duration, attempts) in
            worker_spans.into_inner().expect("worker spans lock")
        {
            self.timeline.record_span(&name, start, duration, attempts);
        }
        self.timeline.end_span(self.now_us());
        self.timeline.sort();

        self.runs
            .extend(sim_results.into_inner().expect("sim results lock"));
        self.engine_runs
            .extend(engine_results.into_inner().expect("engine results lock"));
        let mut new_failures = failures.into_inner().expect("failures lock");
        // Worker interleaving is nondeterministic; keep the record stable.
        new_failures.sort_by(|a, b| a.label.cmp(&b.label));
        if self.verbose {
            for failure in &new_failures {
                eprintln!("[sweep] FAILED: {failure}");
            }
        }
        self.failures.extend(new_failures);
        let mut new_recovered = recovered.into_inner().expect("recovered lock");
        new_recovered.sort();
        self.recovered.extend(new_recovered);
    }

    /// Runs no sweep could complete so far (in stable label order per
    /// sweep).
    #[must_use]
    pub fn failures(&self) -> &[RunFailure] {
        &self.failures
    }

    /// Labels of runs that panicked once and succeeded on retry.
    #[must_use]
    pub fn recovered(&self) -> &[String] {
        &self.recovered
    }

    /// Drains the failure record (the driver folds it into its sweep
    /// outcome so a later sweep on the same lab starts clean).
    pub fn take_failures(&mut self) -> Vec<RunFailure> {
        std::mem::take(&mut self.failures)
    }

    /// Drains the recovered-by-retry record.
    pub fn take_recovered(&mut self) -> Vec<String> {
        std::mem::take(&mut self.recovered)
    }

    /// Full-system result for `workload` under `tree` (None = non-secure),
    /// at the default cache size and inline MACs. Memoized.
    pub fn result(&mut self, workload: &str, tree: Option<TreeConfig>) -> &SimResult {
        let cache = self.setup.metadata_cache_bytes();
        self.result_with(workload, tree, cache, MacMode::Inline)
    }

    /// Full-system result with explicit cache size and MAC mode. Memoized.
    pub fn result_with(
        &mut self,
        workload: &str,
        tree: Option<TreeConfig>,
        cache_bytes: usize,
        mac: MacMode,
    ) -> &SimResult {
        self.result_full(
            workload,
            tree,
            cache_bytes,
            mac,
            VerificationMode::default(),
            ReplacementPolicy::default(),
        )
    }

    /// Full-system result with every key dimension explicit (the
    /// extension studies vary verification and replacement). Memoized.
    pub fn result_full(
        &mut self,
        workload: &str,
        tree: Option<TreeConfig>,
        cache_bytes: usize,
        mac: MacMode,
        verification: VerificationMode,
        replacement: ReplacementPolicy,
    ) -> &SimResult {
        let key =
            RunKey::new(workload, tree.as_ref(), cache_bytes, mac, verification, replacement);
        if !self.runs.contains_key(&key) {
            if self.verbose {
                eprintln!(
                    "[run] {} (cache {} KB, {:?})",
                    key.label(),
                    cache_bytes / 1024,
                    key.mac,
                );
            }
            // The serial path serves figure `run` functions, which cannot
            // propagate errors; surface the typed error as a panic that the
            // driver's per-figure isolation turns into a failure-summary
            // entry.
            let started = self.now_us();
            let begun = Instant::now();
            let result = execute_sim(&self.setup, &key, tree.as_ref())
                .unwrap_or_else(|e| panic!("{e}"));
            let duration = u64::try_from(begun.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.timeline
                .record_span(&format!("run:{}", key.label()), started, duration, 1);
            self.runs.insert(key.clone(), result);
        }
        &self.runs[&key]
    }

    /// Timing-free engine statistics for `workload` under `tree`, measured
    /// over `instructions` per core after an equal warm-up — used by the
    /// counter-behaviour figures (Fig 7/11/14), which need longer windows
    /// than full-timing runs afford. Memoized.
    pub fn engine_stats(
        &mut self,
        workload: &str,
        tree: TreeConfig,
        instructions: u64,
    ) -> &EngineStats {
        let key = EngineKey::new(workload, &tree, instructions);
        if !self.engine_runs.contains_key(&key) {
            if self.verbose {
                eprintln!("[engine] {} / {}", key.workload, key.config);
            }
            // Same contract as `result_full`: typed errors become panics
            // for the driver's per-figure isolation to catch.
            let started = self.now_us();
            let begun = Instant::now();
            let stats = execute_engine(&self.setup, &key, &tree)
                .unwrap_or_else(|e| panic!("{e}"));
            let duration = u64::try_from(begun.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.timeline
                .record_span(&format!("run:{}", key.label()), started, duration, 1);
            self.engine_runs.insert(key.clone(), stats);
        }
        &self.engine_runs[&key]
    }

    /// All memoized full-system results (for the determinism tests).
    #[must_use]
    pub fn sim_results(&self) -> &HashMap<RunKey, SimResult> {
        &self.runs
    }

    /// All memoized engine-study results (for the determinism tests).
    #[must_use]
    pub fn engine_results(&self) -> &HashMap<EngineKey, EngineStats> {
        &self.engine_runs
    }

    /// Seeds the memo with a previously computed full-system result, as
    /// when resuming from a [`crate::checkpoint`] file. Subsequent
    /// requests for `key` are served from the memo without simulating.
    pub fn import_sim(&mut self, key: RunKey, result: SimResult) {
        self.runs.insert(key, result);
    }

    /// Seeds the memo with a previously computed engine study (the
    /// engine-only counterpart of [`Lab::import_sim`]).
    pub fn import_engine(&mut self, key: EngineKey, stats: EngineStats) {
        self.engine_runs.insert(key, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_setup() -> Setup {
        Setup {
            scale: 64,
            warmup_instructions: 50_000,
            measure_instructions: 50_000,
            seed: 1,
        }
    }

    #[test]
    fn setup_scales_consistently() {
        let s = Setup::default();
        assert_eq!(s.memory_bytes(), 1 << 30);
        assert_eq!(s.metadata_cache_bytes(), 8 * 1024);
        assert_eq!(s.scaled_cache(256 * 1024), 16 * 1024);
        // The floor.
        assert_eq!(Setup { scale: 1024, ..s }.metadata_cache_bytes(), 4096);
    }

    #[test]
    fn workload_lists_cover_the_paper() {
        assert_eq!(Setup::rate_workloads().len(), 22);
        let all = Setup::all_workloads();
        assert_eq!(all.len(), 28);
        assert!(all.contains(&"mix3"));
        assert_eq!(all[16], "mix1", "mixes sit between SPEC and GAP");
    }

    #[test]
    fn lab_memoizes_runs() {
        let mut lab = Lab::new(quick_setup());
        lab.verbose = false;
        let a = lab.result("libquantum", Some(TreeConfig::sc64())).cycles;
        let before = lab.runs.len();
        let b = lab.result("libquantum", Some(TreeConfig::sc64())).cycles;
        assert_eq!(a, b);
        assert_eq!(lab.runs.len(), before);
    }

    #[test]
    fn engine_stats_accumulate_data_accesses() {
        let mut lab = Lab::new(quick_setup());
        lab.verbose = false;
        let stats = lab.engine_stats("lbm", TreeConfig::morphtree(), 50_000);
        assert!(stats.data_accesses() > 0);
    }

    #[test]
    fn unknown_workload_is_a_typed_error_listing_known_names() {
        let err = quick_setup().workload("not-a-benchmark").unwrap_err();
        assert_eq!(err.name, "not-a-benchmark");
        let message = err.to_string();
        assert!(message.contains("unknown workload `not-a-benchmark`"), "{message}");
        assert!(message.contains("mcf"), "{message}");
        assert!(message.contains("mix6"), "{message}");
    }

    #[test]
    fn run_isolated_retries_panics_once_and_reports_typed_errors() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let calls = AtomicU32::new(0);
        let (value, attempts) = run_isolated("flaky", || {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            Ok(7)
        })
        .unwrap();
        assert_eq!((value, attempts), (7, 2));

        let failure = run_isolated("doomed", || -> Result<(), UnknownWorkload> {
            panic!("always");
        })
        .unwrap_err();
        assert_eq!(failure.attempts, 2);
        assert!(failure.error.contains("always"), "{}", failure.error);

        let failure = run_isolated("typo", || {
            Err::<(), _>(UnknownWorkload { name: "typo".into() })
        })
        .unwrap_err();
        assert_eq!(failure.attempts, 1, "typed errors are not retried");
        assert!(failure.error.contains("unknown workload"), "{}", failure.error);
    }

    #[test]
    fn sweep_deduplicates_declarations() {
        let setup = quick_setup();
        let mut sweep = Sweep::new();
        assert!(sweep.is_empty());
        sweep.sim(&setup, "mcf", Some(TreeConfig::sc64()));
        sweep.sim(&setup, "mcf", Some(TreeConfig::sc64()));
        sweep.sim_with(
            "mcf",
            Some(TreeConfig::sc64()),
            setup.metadata_cache_bytes(),
            MacMode::Inline,
        );
        assert_eq!(sweep.len(), 1, "identical declarations collapse");
        sweep.sim(&setup, "mcf", None);
        sweep.sim_with("mcf", Some(TreeConfig::sc64()), 4096, MacMode::Separate);
        sweep.engine("mcf", TreeConfig::sc64(), 1000);
        sweep.engine("mcf", TreeConfig::sc64(), 1000);
        sweep.engine("mcf", TreeConfig::sc64(), 2000);
        assert_eq!(sweep.len(), 5);
    }

    #[test]
    fn prefetch_populates_the_memo() {
        let setup = Setup {
            scale: 256,
            warmup_instructions: 20_000,
            measure_instructions: 20_000,
            seed: 7,
        };
        let mut sweep = Sweep::new();
        sweep.sim(&setup, "libquantum", Some(TreeConfig::sc64()));
        sweep.sim(&setup, "libquantum", None);
        sweep.engine("libquantum", TreeConfig::sc64(), 20_000);
        let mut lab = Lab::new(setup);
        lab.verbose = false;
        lab.set_threads(2);
        lab.prefetch(&sweep);
        assert_eq!(lab.runs.len(), 2);
        assert_eq!(lab.engine_runs.len(), 1);
        // Serving the planned runs hits the memo: no new entries appear.
        let _ = lab.result("libquantum", Some(TreeConfig::sc64()));
        let _ = lab.result("libquantum", None);
        assert_eq!(lab.runs.len(), 2);
        // Prefetching the same plan again is a no-op.
        lab.prefetch(&sweep);
        assert_eq!(lab.runs.len(), 2);
        assert_eq!(lab.engine_runs.len(), 1);
    }

    #[test]
    fn timeline_traces_sweeps_and_serial_runs() {
        let setup = Setup {
            scale: 256,
            warmup_instructions: 20_000,
            measure_instructions: 20_000,
            seed: 7,
        };
        let mut sweep = Sweep::new();
        sweep.sim(&setup, "libquantum", Some(TreeConfig::sc64()));
        sweep.engine("libquantum", TreeConfig::sc64(), 20_000);
        let mut lab = Lab::new(setup);
        lab.verbose = false;
        lab.set_threads(2);
        lab.prefetch(&sweep);

        let spans = lab.timeline().spans();
        let batch = spans.iter().find(|s| s.name == "sweep").expect("sweep span");
        assert_eq!(batch.depth, 0);
        let runs: Vec<_> = spans.iter().filter(|s| s.name.starts_with("run:")).collect();
        assert_eq!(runs.len(), 2, "one span per executed run");
        assert!(runs.iter().all(|s| s.depth == 1), "runs nest under the sweep");
        assert!(runs.iter().all(|s| s.attempts == 1));

        // The serial path records a top-level span per fresh run, and
        // memo hits record nothing.
        let _ = lab.result("libquantum", None);
        let serial = lab
            .timeline()
            .spans()
            .iter()
            .find(|s| s.name == "run:libquantum / Non-Secure")
            .expect("serial span");
        assert_eq!(serial.depth, 0);
        let count = lab.timeline().len();
        let _ = lab.result("libquantum", None);
        assert_eq!(lab.timeline().len(), count, "memoized runs add no spans");
    }

    #[test]
    fn worker_count_clamps_to_jobs() {
        let mut lab = Lab::new(quick_setup());
        lab.set_threads(8);
        assert_eq!(lab.worker_count(3), 3);
        assert_eq!(lab.worker_count(100), 8);
        assert_eq!(lab.worker_count(0), 1);
        lab.set_threads(0);
        assert!(lab.worker_count(usize::MAX) >= 1);
    }
}
