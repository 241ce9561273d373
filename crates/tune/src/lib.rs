//! Alternative pruning and timing-driven optimization (TDO) — §VI of the
//! paper.
//!
//! A kernel is multi-versioned over a set of coarsening configurations; the
//! pipeline then narrows the set at successive decision points:
//!
//! 1. **Legality** — configurations whose unroll-and-interleave would
//!    duplicate a barrier are dropped during generation, and the static
//!    race/barrier analyzer ([`respec_analyze`]) rejects any version whose
//!    coarsened + optimized IR has legality errors the input kernel lacked
//!    (`PruneReason::StaticallyUnsafe`, counted in
//!    [`TuneStats::statically_rejected`]).
//! 2. **Early shared-memory pruning** — static shared memory is known right
//!    after coarsening; versions exceeding the target's per-block limit are
//!    discarded before any further compilation.
//! 3. **Register/spill pruning** — the backend estimate discards versions
//!    that would spill (local memory is orders of magnitude slower).
//! 4. **Timing-driven optimization** — surviving versions are run (on the
//!    simulator, standing in for the paper's profiling mode) and the fastest
//!    is selected.
//!
//! # The tuning engine
//!
//! Candidate evaluation is embarrassingly parallel, and the search is the
//! hot loop of per-target respecialization, so the engine — one driver
//! behind the one entry point, [`tune_kernel_pooled`] — works in two
//! concurrent phases over a zero-dependency scoped worker pool ([`pool`]);
//! with one worker the pool runs inline on the calling thread, so serial
//! tuning is the same code at `parallelism = 1`:
//!
//! * **Prepare** — coarsen + optimize every configuration, prune on
//!   legality and shared memory, and content-hash the resulting IR
//!   ([`respec_ir::structural_hash`]).
//! * **Evaluate** — group candidates whose IR canonicalized identically;
//!   backend-compile and measure *one representative per group*. The other
//!   members are cache hits: they share the representative's backend report
//!   and timing without paying for compilation or a simulator run.
//!
//! **Determinism contract:** results are joined in candidate generation
//! order with strictly-smaller-time selection (ties keep the earlier
//! candidate), so serial ([`TuneOptions::serial`]) and parallel runs select
//! byte-identical winners, bit-identical `best_seconds`, and identical
//! decision logs. A property test (`tests/determinism.rs`) enforces this in
//! CI. The contract assumes the measurement runner itself is deterministic
//! per (version, regs) — true for [`respec_sim::GpuSim`]-backed runners.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use respec_backend::BackendReport;
use respec_ir::Function;
use respec_opt::{split_total, CoarsenConfig};
use respec_sim::{SimError, TargetModel};
use respec_trace::{MetricValue, Trace};

mod engine;
pub mod pool;

pub use respec_cache::{Lookup, StoredReport, StoredWinner, TuningCache};

/// Which coarsening strategy generates the candidate set (the paper's
/// Fig. 13 axes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Thread coarsening only (the prior-work baseline).
    ThreadOnly,
    /// Block coarsening only.
    BlockOnly,
    /// The cross product of block × thread factors (this paper).
    Combined,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Strategy::ThreadOnly => "thread-only",
            Strategy::BlockOnly => "block-only",
            Strategy::Combined => "combined",
        })
    }
}

/// Structured classification of a [`TuneError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TuneErrorKind {
    /// Every candidate was eliminated by a decision point (legality,
    /// shared memory, spilling) or lost to a failed compile or
    /// measurement.
    NoSurvivors,
    /// A simulator error outside the candidate-evaluation loop.
    Sim,
}

/// Error produced by the tuning pipeline.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneError {
    /// Human-readable reason.
    pub message: String,
    /// Structured classification.
    pub kind: TuneErrorKind,
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tuning failed: {}", self.message)
    }
}

impl std::error::Error for TuneError {}

impl From<SimError> for TuneError {
    fn from(e: SimError) -> TuneError {
        TuneError {
            message: e.message,
            kind: TuneErrorKind::Sim,
        }
    }
}

/// Why a candidate configuration was eliminated.
#[derive(Clone, Debug, PartialEq)]
pub enum PruneReason {
    /// Coarsening itself was illegal (barrier duplication, non-divisor
    /// thread factor, …).
    Illegal(String),
    /// The static analyzer found a legality error (shared-memory race,
    /// divergent barrier) in this version that the input kernel did not
    /// have: the transformation pipeline broke the kernel, so the candidate
    /// is rejected before any backend work.
    StaticallyUnsafe {
        /// Number of introduced error-level findings.
        errors: usize,
        /// The first introduced finding, rendered.
        first: String,
    },
    /// Static shared memory exceeds the per-block budget (decision point 2).
    SharedMemory { bytes: u64, limit: u64 },
    /// The backend predicts register spilling (decision point 3).
    Spill { regs: u32, spill_units: u32 },
    /// The measurement run failed (e.g. out-of-bounds after an unsound
    /// user-requested configuration, or a runner panic), or produced a
    /// non-finite time.
    RunFailed(String),
    /// Backend compilation failed for this candidate's version.
    CompileFailed(String),
}

impl fmt::Display for PruneReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PruneReason::Illegal(m) => write!(f, "illegal: {m}"),
            PruneReason::StaticallyUnsafe { errors, first } => {
                write!(
                    f,
                    "statically unsafe ({errors} introduced error(s)): {first}"
                )
            }
            PruneReason::SharedMemory { bytes, limit } => {
                write!(
                    f,
                    "shared memory {bytes} B exceeds the {limit} B block limit"
                )
            }
            PruneReason::Spill { regs, spill_units } => {
                write!(
                    f,
                    "would spill {spill_units} register units (demand {regs})"
                )
            }
            PruneReason::RunFailed(m) => write!(f, "measurement failed: {m}"),
            PruneReason::CompileFailed(m) => write!(f, "backend compile failed: {m}"),
        }
    }
}

/// Outcome for one candidate configuration.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The configuration.
    pub config: CoarsenConfig,
    /// Backend feedback (present once the candidate passed shmem pruning):
    /// the report of the launch that governed the spill decision.
    pub backend: Option<BackendReport>,
    /// Static shared memory per block.
    pub shared_bytes: u64,
    /// Measured time (present for candidates that reached TDO).
    pub seconds: Option<f64>,
    /// Why the candidate was pruned, if it was.
    pub pruned: Option<PruneReason>,
    /// Whether this candidate's coarsened + optimized IR was byte-identical
    /// to an earlier candidate's, so backend compilation and measurement
    /// were skipped and the timing shared.
    pub cache_hit: bool,
}

/// Counters describing one tuning run (cache behavior, work performed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TuneStats {
    /// Candidates that reused another candidate's compiled version.
    pub cache_hits: usize,
    /// Unique IR versions that reached backend compilation (= compilation
    /// cache misses).
    pub cache_misses: usize,
    /// Measurement-runner invocations actually performed.
    pub runner_calls: usize,
    /// Candidates with a recorded time.
    pub measured: usize,
    /// Candidates eliminated at any decision point.
    pub pruned: usize,
    /// Candidates rejected by the static race/barrier analyzer: their
    /// coarsened + optimized IR had legality errors the input kernel lacked.
    pub statically_rejected: usize,
    /// Worker threads the engine ran with.
    pub parallelism: usize,
    /// Lookups served by the persistent [`TuningCache`]: stored winners
    /// replayed and stored backend reports reused. Zero without a cache.
    pub persistent_hits: usize,
    /// Persistent-cache lookups that found no usable entry (absent or
    /// stale). Zero without a cache.
    pub persistent_misses: usize,
    /// Persistent entries rejected as stale — truncated, garbled, or
    /// written under a different pipeline/hash/format version. Every
    /// invalidation also counts as a persistent miss.
    pub invalidations: usize,
}

impl TuneStats {
    /// Fraction of phase-1 survivors served from the compilation cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// A `RESPEC_*` environment variable that is set but invalid.
///
/// Configuration read from the environment fails loudly: a typo'd worker
/// count or cache directory silently falling back to defaults would make a
/// perf run measure something other than what the operator asked for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnvConfigError {
    /// The environment variable at fault.
    pub var: &'static str,
    /// The raw value it held.
    pub value: String,
    /// Why the value was rejected.
    pub reason: String,
}

impl EnvConfigError {
    /// Creates an error for one rejected variable.
    pub fn new(var: &'static str, value: impl Into<String>, reason: impl Into<String>) -> Self {
        EnvConfigError {
            var,
            value: value.into(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for EnvConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {}={:?}: {}", self.var, self.value, self.reason)
    }
}

impl std::error::Error for EnvConfigError {}

/// Tuning knobs: the single entry path for configuring a search. Worker
/// count drives the engine; strategy and totals drive candidate generation
/// in the facade-level `autotune_*` helpers ([`tune_kernel_pooled`] takes an
/// explicit config list instead).
#[derive(Clone, Debug, PartialEq)]
pub struct TuneOptions {
    /// Worker threads for candidate evaluation. `0` means one per available
    /// core ([`std::thread::available_parallelism`]); `1` runs everything
    /// inline on the calling thread.
    pub parallelism: usize,
    /// Candidate-generation strategy ([`candidate_configs`]).
    pub strategy: Strategy,
    /// Total coarsening factors to explore ([`DEFAULT_TOTALS`] by default).
    pub totals: Vec<i64>,
    /// Persistent tuning cache consulted before compile+measure work and
    /// updated with fresh reports and winners (none by default).
    pub cache: Option<Arc<TuningCache>>,
}

impl Default for TuneOptions {
    fn default() -> TuneOptions {
        TuneOptions::auto()
    }
}

impl TuneOptions {
    /// One worker per available core.
    pub fn auto() -> TuneOptions {
        TuneOptions {
            parallelism: 0,
            strategy: Strategy::Combined,
            totals: DEFAULT_TOTALS.to_vec(),
            cache: None,
        }
    }

    /// Strictly serial evaluation on the calling thread.
    pub fn serial() -> TuneOptions {
        TuneOptions {
            parallelism: 1,
            ..TuneOptions::auto()
        }
    }

    /// A fixed worker count.
    pub fn with_parallelism(parallelism: usize) -> TuneOptions {
        TuneOptions {
            parallelism,
            ..TuneOptions::auto()
        }
    }

    /// Sets the candidate-generation strategy.
    pub fn strategy(mut self, strategy: Strategy) -> TuneOptions {
        self.strategy = strategy;
        self
    }

    /// Sets the total coarsening factors to explore.
    pub fn totals(mut self, totals: &[i64]) -> TuneOptions {
        self.totals = totals.to_vec();
        self
    }

    /// Attaches a persistent tuning cache: the engine resolves group
    /// representatives from stored backend reports and short-circuits the
    /// search on an exact stored winner.
    pub fn cache(mut self, cache: Arc<TuningCache>) -> TuneOptions {
        self.cache = Some(cache);
        self
    }

    /// Reads exactly two variables: `RESPEC_TUNE_PARALLELISM` (worker
    /// count, `0` = auto) and the persistent cache directory
    /// `RESPEC_CACHE_DIR` ([`TuningCache::from_env`]); defaults to
    /// [`TuneOptions::auto`] for every unset variable.
    ///
    /// # Errors
    ///
    /// A variable that is set but invalid — a non-numeric worker count, an
    /// uncreatable cache directory — is an [`EnvConfigError`], never
    /// silently ignored: a perf run whose typo'd knob quietly fell back to
    /// defaults would measure something other than what the operator asked
    /// for.
    pub fn from_env() -> Result<TuneOptions, EnvConfigError> {
        let mut options = TuneOptions::auto();
        if let Ok(raw) = std::env::var("RESPEC_TUNE_PARALLELISM") {
            options.parallelism = raw.trim().parse::<usize>().map_err(|_| {
                EnvConfigError::new(
                    "RESPEC_TUNE_PARALLELISM",
                    &raw,
                    "not a worker count (unsigned integer; 0 = one per core)",
                )
            })?;
        }
        let cache = TuningCache::from_env().map_err(|e| {
            EnvConfigError::new(
                "RESPEC_CACHE_DIR",
                std::env::var("RESPEC_CACHE_DIR").unwrap_or_default(),
                format!("cache directory cannot be opened: {e}"),
            )
        })?;
        options.cache = cache.map(Arc::new);
        Ok(options)
    }

    /// The concrete worker count this configuration resolves to.
    pub fn effective_parallelism(&self) -> usize {
        if self.parallelism > 0 {
            self.parallelism
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Wall-clock breakdown of one tuning run's hot path.
///
/// These are real wall times and are therefore *outside* the determinism
/// contract:
/// serial and parallel tunes of the same kernel produce identical
/// candidates and stats but different timings. `prepare`/`compile`/
/// `measure` are *busy* seconds summed across workers, so with N workers
/// their sum can exceed `wall_seconds`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimings {
    /// Busy seconds cloning, coarsening, optimizing, and hashing candidate
    /// versions (summed across workers).
    pub prepare_seconds: f64,
    /// Busy seconds in backend compilation (summed across workers).
    pub compile_seconds: f64,
    /// Busy seconds in measurement-runner calls (summed across workers).
    pub measure_seconds: f64,
    /// Wall seconds not explained by busy work: `wall - busy / workers`,
    /// clamped at zero. Scheduling, stealing, and synchronization overhead.
    pub pool_overhead_seconds: f64,
    /// End-to-end wall seconds of the tune.
    pub wall_seconds: f64,
}

/// Result of tuning one kernel.
#[derive(Clone, Debug)]
pub struct TuneResult {
    /// The selected kernel version (optimized, coarsened).
    pub best: Function,
    /// Configuration of the winner.
    pub best_config: CoarsenConfig,
    /// Measured time of the winner in seconds.
    pub best_seconds: f64,
    /// Registers per thread of the winner (feed this to launches).
    pub best_regs: u32,
    /// Every candidate with its outcome, in generation order.
    pub candidates: Vec<Candidate>,
    /// Engine counters: cache behavior, runner calls, worker count.
    pub stats: TuneStats,
    /// Per-phase wall-clock breakdown (not part of the determinism
    /// contract; see [`PhaseTimings`]).
    pub timings: PhaseTimings,
}

impl TuneResult {
    /// Speedup of the winner relative to the identity configuration, when
    /// the identity was measured.
    pub fn speedup_vs_identity(&self) -> Option<f64> {
        let id = self
            .candidates
            .iter()
            .find(|c| c.config.is_identity())
            .and_then(|c| c.seconds)?;
        Some(id / self.best_seconds)
    }
}

/// Generates candidate configurations for a strategy over the given total
/// factors, balancing each total across eligible dimensions (§IV-C).
///
/// `block_dims` are the kernel's static block dimensions; grid dimensions
/// are dynamic, so block factors are only bounded by the totals themselves.
pub fn candidate_configs(
    strategy: Strategy,
    totals: &[i64],
    block_dims: &[i64],
) -> Vec<CoarsenConfig> {
    let dims3 = |v: &[i64]| -> [Option<i64>; 3] {
        [
            Some(v.first().copied().unwrap_or(1)),
            Some(v.get(1).copied().unwrap_or(1)),
            Some(v.get(2).copied().unwrap_or(1)),
        ]
    };
    let thread_dims = dims3(block_dims);
    // Grid extents are unknown at compile time: every dimension with
    // threads along it is assumed to also scale in blocks; other dims are
    // left alone.
    let grid_dims: [Option<i64>; 3] = [
        None,
        if block_dims.get(1).copied().unwrap_or(1) > 1 {
            None
        } else {
            Some(1)
        },
        if block_dims.get(2).copied().unwrap_or(1) > 1 {
            None
        } else {
            Some(1)
        },
    ];

    let thread_factor = |t: i64| split_total(t, &thread_dims, true);
    let block_factor = |b: i64| split_total(b, &grid_dims, false);

    let mut out = vec![CoarsenConfig::identity()];
    let mut seen: HashSet<CoarsenConfig> = out.iter().copied().collect();
    let mut push = |cfg: CoarsenConfig| {
        if seen.insert(cfg) {
            out.push(cfg);
        }
    };
    match strategy {
        Strategy::ThreadOnly => {
            for &t in totals {
                if let Some(tf) = thread_factor(t) {
                    push(CoarsenConfig {
                        block: [1, 1, 1],
                        thread: tf,
                    });
                }
            }
        }
        Strategy::BlockOnly => {
            for &b in totals {
                if let Some(bf) = block_factor(b) {
                    push(CoarsenConfig {
                        block: bf,
                        thread: [1, 1, 1],
                    });
                }
            }
        }
        Strategy::Combined => {
            for &b in totals {
                for &t in totals {
                    if let (Some(bf), Some(tf)) = (block_factor(b), thread_factor(t)) {
                        push(CoarsenConfig {
                            block: bf,
                            thread: tf,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Decision-log metrics for one candidate: the pruning stage it stopped at
/// (or `"measure"` if it was timed) and the human-readable reason.
fn candidate_metrics(candidate: &Candidate, regs: Option<u32>) -> Vec<(String, MetricValue)> {
    let mut m: Vec<(String, MetricValue)> = vec![
        ("config".into(), candidate.config.to_string().into()),
        ("shared_bytes".into(), candidate.shared_bytes.into()),
        ("pruned".into(), candidate.pruned.is_some().into()),
        ("cache_hit".into(), candidate.cache_hit.into()),
    ];
    let stage = match &candidate.pruned {
        Some(PruneReason::Illegal(_)) => "legality",
        Some(PruneReason::StaticallyUnsafe { .. }) => "static-analysis",
        Some(PruneReason::SharedMemory { .. }) => "shared-memory",
        Some(PruneReason::Spill { .. }) => "spill",
        Some(PruneReason::CompileFailed(_)) => "compile",
        Some(PruneReason::RunFailed(_)) => "measure",
        None => "measure",
    };
    m.push(("stage".into(), stage.into()));
    if let Some(reason) = &candidate.pruned {
        m.push(("reason".into(), reason.to_string().into()));
    }
    match &candidate.pruned {
        Some(PruneReason::StaticallyUnsafe { errors, .. }) => {
            m.push(("introduced_errors".into(), (*errors).into()));
        }
        Some(PruneReason::SharedMemory { bytes, limit }) => {
            m.push(("shmem_limit".into(), (*limit).into()));
            m.push(("shmem_over_by".into(), (bytes - limit).into()));
        }
        Some(PruneReason::Spill { regs, spill_units }) => {
            m.push(("reg_demand".into(), (*regs).into()));
            m.push(("spill_units".into(), (*spill_units).into()));
        }
        _ => {}
    }
    if let Some(r) = &candidate.backend {
        m.push(("regs_per_thread".into(), r.regs_per_thread.into()));
    }
    if let Some(r) = regs {
        m.push(("launch_regs".into(), r.into()));
    }
    if let Some(s) = candidate.seconds {
        m.push(("seconds".into(), s.into()));
    }
    m
}

/// Timing-driven optimization of one kernel on a scoped worker pool:
/// applies each configuration to a copy of `func`, prunes by legality,
/// shared memory and spills, measures one representative per unique
/// surviving IR, and returns the fastest version.
///
/// `make_runner` is invoked once per worker thread to build that worker's
/// private measurement runner; runners never cross threads, so they need no
/// synchronization. A runner receives a fully coarsened + optimized kernel
/// and its register estimate and returns the measured time in seconds
/// (typically by launching it on its own [`respec_sim::GpuSim`] with the
/// application workload). The worker count comes from
/// [`TuneOptions::effective_parallelism`]; with `parallelism == 1` the
/// engine runs inline on the calling thread and spawns nothing.
///
/// The whole search runs under a `tune:<kernel>` span of `trace`: every
/// candidate records one `candidate` event carrying its configuration, the
/// decision point that eliminated it and why (shared memory over budget,
/// predicted spilling, illegal coarsening, failed measurement) or its
/// measured time plus whether it was served from the compilation cache, and
/// the selected version is recorded as a `winner` event. Cleanup passes run
/// on each candidate under the same trace, so per-pass spans nest inside the
/// tuning timeline; each unique IR version additionally records a `backend`
/// span (register estimation) and, when eligible, a `measure` span around
/// its runner invocation.
///
/// The result — winner, timing, decision log — is **identical at any
/// worker count** (see the determinism contract in the crate docs).
///
/// # Errors
///
/// Returns a [`TuneError`] if no candidate survives measurement.
pub fn tune_kernel_pooled<R, F>(
    func: &Function,
    target: &dyn TargetModel,
    configs: &[CoarsenConfig],
    options: &TuneOptions,
    make_runner: F,
    trace: &Trace,
) -> Result<TuneResult, TuneError>
where
    R: FnMut(&Function, u32) -> Result<f64, SimError>,
    F: Fn() -> R + Sync,
{
    engine::tune(
        func,
        target,
        configs,
        options.effective_parallelism(),
        &make_runner,
        trace,
        options.cache.as_deref(),
    )
}

/// Default total-factor ladder used throughout the evaluation (§VII-B).
pub const DEFAULT_TOTALS: [i64; 6] = [1, 2, 4, 8, 16, 32];

#[cfg(test)]
mod tests {
    use super::*;
    use respec_ir::parse_function;
    use respec_sim::{targets, GpuSim, KernelArg};
    use std::sync::atomic::{AtomicUsize, Ordering};

    const KERNEL: &str =
        "func @scale(%gx: index, %gy: index, %gz: index, %m: memref<?xf32, global>) {
  %c64 = const 64 : index
  %c1 = const 1 : index
  parallel<block> (%bx, %by, %bz) to (%gx, %gy, %gz) {
    parallel<thread> (%tx, %ty, %tz) to (%c64, %c1, %c1) {
      %w = mul %bx, %c64 : index
      %i = add %w, %tx : index
      %v = load %m[%i] : f32
      %d = add %v, %v : f32
      store %d, %m[%i]
      yield
    }
    yield
  }
  return
}";

    fn scale_runner(version: &Function, regs: u32) -> Result<f64, respec_sim::SimError> {
        let n = 64 * 64;
        let mut sim = GpuSim::new(targets::a100());
        let buf = sim.mem.alloc_f32(&vec![1.0; n]);
        let report = sim.launch(version, [64, 1, 1], &[KernelArg::Buf(buf)], regs)?;
        Ok(report.kernel_seconds)
    }

    #[test]
    fn candidate_generation_covers_strategies() {
        let thread_only = candidate_configs(Strategy::ThreadOnly, &DEFAULT_TOTALS, &[64, 1, 1]);
        assert!(thread_only.iter().all(|c| c.block_total() == 1));
        assert!(thread_only.len() > 3);
        let block_only = candidate_configs(Strategy::BlockOnly, &DEFAULT_TOTALS, &[64, 1, 1]);
        assert!(block_only.iter().all(|c| c.thread_total() == 1));
        let combined = candidate_configs(Strategy::Combined, &DEFAULT_TOTALS, &[64, 1, 1]);
        assert!(combined.len() > thread_only.len());
        assert!(combined
            .iter()
            .any(|c| c.block_total() > 1 && c.thread_total() > 1));
    }

    #[test]
    fn candidate_generation_is_duplicate_free() {
        let combined = candidate_configs(Strategy::Combined, &DEFAULT_TOTALS, &[16, 16, 1]);
        let unique: HashSet<CoarsenConfig> = combined.iter().copied().collect();
        assert_eq!(unique.len(), combined.len());
        assert_eq!(combined[0], CoarsenConfig::identity());
    }

    #[test]
    fn thread_factors_respect_divisibility() {
        // 48-thread blocks: factor 32 cannot be placed, 16 can (16 | 48? no —
        // 48 % 16 == 0, yes), 32 does not divide 48.
        let cfgs = candidate_configs(Strategy::ThreadOnly, &[16, 32], &[48, 1, 1]);
        assert!(cfgs.iter().any(|c| c.thread == [16, 1, 1]));
        assert!(!cfgs.iter().any(|c| c.thread_total() == 32));
    }

    #[test]
    fn tdo_selects_a_measured_winner() {
        let func = parse_function(KERNEL).unwrap();
        let target = targets::a100();
        let configs = candidate_configs(Strategy::Combined, &[1, 2, 4], &[64, 1, 1]);
        let n = 64 * 64;
        let result = tune_kernel_pooled(
            &func,
            &target,
            &configs,
            &TuneOptions::serial(),
            || {
                |version: &Function, regs| {
                    let mut sim = GpuSim::new(targets::a100());
                    let buf = sim.mem.alloc_f32(&vec![1.0; n]);
                    let report = sim.launch(version, [64, 1, 1], &[KernelArg::Buf(buf)], regs)?;
                    // Functional correctness check folded into the runner.
                    assert_eq!(sim.mem.read_f32(buf), vec![2.0f32; n]);
                    Ok(report.kernel_seconds)
                }
            },
            &Trace::disabled(),
        )
        .unwrap();
        assert!(result.best_seconds > 0.0);
        assert!(result.candidates.iter().any(|c| c.seconds.is_some()));
        assert!(result.speedup_vs_identity().is_some());
        assert_eq!(result.stats.parallelism, 1);
        assert!(result.stats.cache_misses > 0);
    }

    #[test]
    fn cpu_target_tunes_through_the_same_entry_path() {
        // The one `tune_kernel_pooled` entry point searches CPU configurations:
        // the engine notices `TargetKind::Cpu`, lowers every coarsened version
        // through the GPU-to-CPU pass, and the runner executes the lowered IR
        // on the simulator against the CPU descriptor.
        let func = parse_function(KERNEL).unwrap();
        let cpu = targets::cpu_desktop8();
        let configs = candidate_configs(Strategy::Combined, &[1, 2, 4], &[64, 1, 1]);
        let n = 64 * 64;
        let result = tune_kernel_pooled(
            &func,
            &cpu,
            &configs,
            &TuneOptions::serial(),
            || {
                |version: &Function, regs| {
                    let mut sim = GpuSim::for_model(&targets::cpu_desktop8());
                    let buf = sim.mem.alloc_f32(&vec![1.0; n]);
                    let report = sim.launch(version, [64, 1, 1], &[KernelArg::Buf(buf)], regs)?;
                    assert_eq!(sim.mem.read_f32(buf), vec![2.0f32; n]);
                    Ok(report.kernel_seconds)
                }
            },
            &Trace::disabled(),
        )
        .unwrap();
        assert!(result.best_seconds > 0.0);
        assert!(result.candidates.iter().any(|c| c.seconds.is_some()));
        // The winning version was lowered: its thread loop is clamped to the
        // target's SIMD lane count, not the original 64-wide thread extent.
        let launches = respec_ir::kernel::analyze_function(&result.best).unwrap();
        assert_eq!(
            launches[0].block_dims,
            vec![8],
            "thread loop tiled to SIMD lanes"
        );
    }

    #[test]
    fn shared_memory_pruning_fires() {
        // 40 KiB static shared per block: block factor 2 exceeds A100's
        // 48 KiB per-block budget (80 KiB).
        let func = parse_function(
            "func @k(%gx: index, %gy: index, %gz: index, %m: memref<?xf32, global>) {
  %c64 = const 64 : index
  %c1 = const 1 : index
  parallel<block> (%bx, %by, %bz) to (%gx, %gy, %gz) {
    %sm = alloc() : memref<10240xf32, shared>
    parallel<thread> (%tx, %ty, %tz) to (%c64, %c1, %c1) {
      %v = load %m[%tx] : f32
      store %v, %sm[%tx]
      barrier<thread>
      %r = load %sm[%tx] : f32
      store %r, %m[%tx]
      yield
    }
    yield
  }
  return
}",
        )
        .unwrap();
        let target = targets::a100();
        let configs = vec![
            CoarsenConfig::identity(),
            CoarsenConfig {
                block: [2, 1, 1],
                thread: [1, 1, 1],
            },
        ];
        let result = tune_kernel_pooled(
            &func,
            &target,
            &configs,
            &TuneOptions::serial(),
            || {
                |version: &Function, regs| {
                    let mut sim = GpuSim::new(targets::a100());
                    let buf = sim.mem.alloc_f32(&vec![1.0; 64 * 16]);
                    Ok(sim
                        .launch(version, [16, 1, 1], &[KernelArg::Buf(buf)], regs)?
                        .kernel_seconds)
                }
            },
            &Trace::disabled(),
        )
        .unwrap();
        let pruned: Vec<_> = result
            .candidates
            .iter()
            .filter(|c| matches!(c.pruned, Some(PruneReason::SharedMemory { .. })))
            .collect();
        assert_eq!(pruned.len(), 1, "block-2 version must be shmem-pruned");
        assert!(result.best_config.is_identity());
    }

    #[test]
    fn duplicate_configs_share_one_compilation_and_measurement() {
        let func = parse_function(KERNEL).unwrap();
        let target = targets::a100();
        // Three copies of the identity and two of a thread-2 config: the
        // engine must compile and measure each unique IR exactly once.
        let dup = CoarsenConfig {
            block: [1, 1, 1],
            thread: [2, 1, 1],
        };
        let configs = vec![
            CoarsenConfig::identity(),
            dup,
            CoarsenConfig::identity(),
            dup,
            CoarsenConfig::identity(),
        ];
        let calls = AtomicUsize::new(0);
        let trace = Trace::new();
        let result = tune_kernel_pooled(
            &func,
            &target,
            &configs,
            &TuneOptions::serial(),
            || {
                |version: &Function, regs| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    scale_runner(version, regs)
                }
            },
            &trace,
        )
        .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 2, "one run per unique IR");
        assert_eq!(result.stats.cache_misses, 2);
        assert_eq!(result.stats.cache_hits, 3);
        assert_eq!(result.stats.runner_calls, 2);
        assert!((result.stats.cache_hit_rate() - 0.6).abs() < 1e-12);
        // All five candidates carry a timing; the three duplicates share it.
        let secs: Vec<f64> = result.candidates.iter().filter_map(|c| c.seconds).collect();
        assert_eq!(secs.len(), 5);
        assert_eq!(secs[0].to_bits(), secs[2].to_bits());
        assert_eq!(secs[0].to_bits(), secs[4].to_bits());
        assert_eq!(secs[1].to_bits(), secs[3].to_bits());
        assert!(result.candidates[2].cache_hit && result.candidates[3].cache_hit);
        assert!(!result.candidates[0].cache_hit && !result.candidates[1].cache_hit);
        // Trace-level view: one backend span and one measure span per
        // unique version, not per candidate.
        let events = trace.events();
        assert_eq!(events.iter().filter(|e| e.name == "backend").count(), 2);
        assert_eq!(events.iter().filter(|e| e.name == "measure").count(), 2);
        assert_eq!(events.iter().filter(|e| e.name == "candidate").count(), 5);
        // Prepare-level dedup: the optimize pipeline (one `pass:dce` span
        // per prepared version) runs once per unique config, not per
        // candidate — duplicates never clone or re-optimize the kernel.
        assert_eq!(events.iter().filter(|e| e.name == "pass:dce").count(), 2);
        // The phase breakdown observed real work.
        assert!(result.timings.wall_seconds > 0.0);
        assert!(result.timings.prepare_seconds > 0.0);
        assert!(result.timings.measure_seconds > 0.0);
    }

    #[test]
    fn distinct_configs_with_identical_ir_share_one_group() {
        let func = parse_function(KERNEL).unwrap();
        let target = targets::a100();
        // `block_coarsen` treats any block-factor product of 1 as a no-op,
        // so [-1, -1, 1] is a *distinct* config that lowers to exactly the
        // identity's IR. The structural-hash grouping must fold both into
        // one group: one backend compile, one measurement, shared timing.
        let noop = CoarsenConfig {
            block: [-1, -1, 1],
            thread: [1, 1, 1],
        };
        let configs = vec![CoarsenConfig::identity(), noop];
        let calls = AtomicUsize::new(0);
        let trace = Trace::new();
        let result = tune_kernel_pooled(
            &func,
            &target,
            &configs,
            &TuneOptions::serial(),
            || {
                |version: &Function, regs| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    scale_runner(version, regs)
                }
            },
            &trace,
        )
        .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1, "one run for one group");
        assert_eq!(result.stats.cache_misses, 1, "identical IR = one group");
        assert_eq!(result.stats.cache_hits, 1);
        let events = trace.events();
        assert_eq!(events.iter().filter(|e| e.name == "backend").count(), 1);
        let secs: Vec<f64> = result.candidates.iter().filter_map(|c| c.seconds).collect();
        assert_eq!(secs.len(), 2);
        assert_eq!(secs[0].to_bits(), secs[1].to_bits());
        assert!(result.candidates[1].cache_hit && !result.candidates[0].cache_hit);
    }

    #[test]
    fn static_gate_passes_safe_kernels_and_reports_zero() {
        let func = parse_function(KERNEL).unwrap();
        let target = targets::a100();
        let configs = candidate_configs(Strategy::Combined, &[1, 2], &[64, 1, 1]);
        let trace = Trace::new();
        let result = tune_kernel_pooled(
            &func,
            &target,
            &configs,
            &TuneOptions::serial(),
            || scale_runner,
            &trace,
        )
        .unwrap();
        assert_eq!(result.stats.statically_rejected, 0);
        assert!(!result
            .candidates
            .iter()
            .any(|c| matches!(c.pruned, Some(PruneReason::StaticallyUnsafe { .. }))));
        // The counter is emitted even when zero, so dashboards can tell
        // "gate ran, nothing rejected" from "gate absent".
        assert!(trace
            .events()
            .iter()
            .any(|e| e.name == "statically_rejected"));
    }

    #[test]
    fn non_finite_times_are_pruned_as_failed_runs() {
        let func = parse_function(KERNEL).unwrap();
        let target = targets::a100();
        let configs = candidate_configs(Strategy::ThreadOnly, &[1, 2, 4], &[64, 1, 1]);
        // The identity reports NaN; a NaN incumbent must never survive, and
        // the winner must be a finite-timed candidate.
        let result = tune_kernel_pooled(
            &func,
            &target,
            &configs,
            &TuneOptions::serial(),
            || {
                |version: &Function, regs| {
                    let launches = respec_ir::kernel::analyze_function(version).unwrap();
                    let coarsened = launches[0].block_dims[0] != 64;
                    if coarsened {
                        scale_runner(version, regs)
                    } else {
                        Ok(f64::NAN)
                    }
                }
            },
            &Trace::disabled(),
        )
        .unwrap();
        assert!(result.best_seconds.is_finite());
        assert!(!result.best_config.is_identity());
        let nan_candidate = result
            .candidates
            .iter()
            .find(|c| c.config.is_identity())
            .unwrap();
        assert!(matches!(
            nan_candidate.pruned,
            Some(PruneReason::RunFailed(_))
        ));
        assert!(nan_candidate.seconds.is_none());
    }

    #[test]
    fn pooled_tuning_matches_serial_bit_for_bit() {
        let func = parse_function(KERNEL).unwrap();
        let target = targets::a100();
        let configs = candidate_configs(Strategy::Combined, &[1, 2, 4], &[64, 1, 1]);
        let serial = tune_kernel_pooled(
            &func,
            &target,
            &configs,
            &TuneOptions::serial(),
            || scale_runner,
            &Trace::disabled(),
        )
        .unwrap();
        let parallel = tune_kernel_pooled(
            &func,
            &target,
            &configs,
            &TuneOptions::with_parallelism(4),
            || scale_runner,
            &Trace::disabled(),
        )
        .unwrap();
        assert_eq!(serial.best_config, parallel.best_config);
        assert_eq!(
            serial.best_seconds.to_bits(),
            parallel.best_seconds.to_bits()
        );
        assert_eq!(serial.best.to_string(), parallel.best.to_string());
        assert_eq!(serial.candidates.len(), parallel.candidates.len());
        for (a, b) in serial.candidates.iter().zip(&parallel.candidates) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.seconds.map(f64::to_bits), b.seconds.map(f64::to_bits));
            assert_eq!(a.pruned, b.pruned);
            assert_eq!(a.cache_hit, b.cache_hit);
        }
        assert_eq!(serial.stats.cache_hits, parallel.stats.cache_hits);
        assert_eq!(serial.stats.parallelism, 1);
        assert_eq!(parallel.stats.parallelism, 4);
    }

    #[test]
    fn traced_tuning_logs_every_decision() {
        let func = parse_function(KERNEL).unwrap();
        let target = targets::a100();
        let configs = candidate_configs(Strategy::Combined, &[1, 2, 4], &[64, 1, 1]);
        let trace = Trace::new();
        let n = 64 * 64;
        let result = tune_kernel_pooled(
            &func,
            &target,
            &configs,
            &TuneOptions::serial(),
            || {
                |version: &Function, regs| {
                    let mut sim = GpuSim::new(targets::a100());
                    let buf = sim.mem.alloc_f32(&vec![1.0; n]);
                    Ok(sim
                        .launch(version, [64, 1, 1], &[KernelArg::Buf(buf)], regs)?
                        .kernel_seconds)
                }
            },
            &trace,
        )
        .unwrap();
        let events = trace.events();
        let candidates: Vec<_> = events.iter().filter(|e| e.name == "candidate").collect();
        assert_eq!(
            candidates.len(),
            configs.len(),
            "one decision event per candidate"
        );
        // Every candidate event names its config and the stage it reached.
        for c in &candidates {
            assert!(c.metric("config").is_some());
            assert!(c.metric("stage").is_some());
            assert!(c.metric("cache_hit").is_some());
        }
        // Pruned candidates carry a reason; measured ones carry seconds.
        for (ev, cand) in candidates.iter().zip(&result.candidates) {
            assert_eq!(
                ev.metric("pruned"),
                Some(&MetricValue::Bool(cand.pruned.is_some()))
            );
            if cand.pruned.is_some() {
                assert!(ev.metric("reason").is_some());
            }
            if let Some(s) = cand.seconds {
                assert_eq!(ev.metric("seconds").and_then(|m| m.as_f64()), Some(s));
            }
        }
        let winner = events
            .iter()
            .find(|e| e.name == "winner")
            .expect("winner event");
        assert_eq!(
            winner.metric("config").and_then(|m| m.as_str()),
            Some(result.best_config.to_string().as_str())
        );
        // The whole search is wrapped in a tune:<kernel> span, and per-pass
        // spans from each candidate's cleanup nest inside it.
        let tune_span = events
            .iter()
            .find(|e| e.name == "tune:scale")
            .expect("tune span");
        assert!(tune_span.metric("winner").is_some());
        assert!(tune_span.metric("cache_hits").is_some());
        assert!(events.iter().any(|e| e.name.starts_with("pass:")));
        // Cache counters are surfaced through the trace too.
        assert!(events.iter().any(|e| e.name == "cache_hits"));
    }

    #[test]
    fn traced_and_untraced_tuning_agree() {
        let func = parse_function(KERNEL).unwrap();
        let target = targets::a100();
        let configs = candidate_configs(Strategy::Combined, &[1, 2], &[64, 1, 1]);
        let runner = |version: &Function, regs: u32| {
            let mut sim = GpuSim::new(targets::a100());
            let buf = sim.mem.alloc_f32(&vec![1.0; 64 * 64]);
            Ok(sim
                .launch(version, [64, 1, 1], &[KernelArg::Buf(buf)], regs)?
                .kernel_seconds)
        };
        let serial = TuneOptions::serial();
        let plain = tune_kernel_pooled(
            &func,
            &target,
            &configs,
            &serial,
            || runner,
            &Trace::disabled(),
        )
        .unwrap();
        let trace = Trace::new();
        let traced =
            tune_kernel_pooled(&func, &target, &configs, &serial, || runner, &trace).unwrap();
        assert_eq!(plain.best_config, traced.best_config);
        assert_eq!(plain.best_seconds, traced.best_seconds);
        assert_eq!(plain.best.to_string(), traced.best.to_string());
        assert!(!trace.is_empty());
    }

    #[test]
    fn errors_when_everything_fails() {
        let func = parse_function(KERNEL).unwrap();
        let target = targets::a100();
        let configs = vec![CoarsenConfig::identity()];
        let err = tune_kernel_pooled(
            &func,
            &target,
            &configs,
            &TuneOptions::serial(),
            || {
                |_: &Function, _| {
                    Err(respec_sim::SimError {
                        message: "boom".into(),
                    })
                }
            },
            &Trace::disabled(),
        )
        .unwrap_err();
        assert!(err.message.contains("no candidate"));
    }

    /// One test covers every variable `from_env` reads: environment
    /// mutation is process-global, so serializing the cases inside a
    /// single test avoids cross-test races over the same variables.
    #[test]
    fn from_env_rejects_invalid_values_with_structured_errors() {
        const VARS: &[&str] = &["RESPEC_TUNE_PARALLELISM", "RESPEC_CACHE_DIR"];
        let saved: Vec<Option<String>> = VARS.iter().map(|v| std::env::var(v).ok()).collect();
        for v in VARS {
            std::env::remove_var(v);
        }

        std::env::set_var("RESPEC_TUNE_PARALLELISM", "many");
        let err = TuneOptions::from_env().unwrap_err();
        assert_eq!(err.var, "RESPEC_TUNE_PARALLELISM");
        assert!(err.to_string().contains("many"), "error names the value");

        std::env::set_var("RESPEC_TUNE_PARALLELISM", "4");
        let options = TuneOptions::from_env().expect("a valid environment parses");
        assert_eq!(options.parallelism, 4);
        assert!(options.cache.is_none(), "no cache dir requested");

        // A cache dir that exists but is a regular file must surface as a
        // structured error naming the variable, not a panic or a silently
        // ignored cache.
        let blocker =
            std::env::temp_dir().join(format!("respec-tune-env-cache-file-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        std::env::set_var("RESPEC_CACHE_DIR", &blocker);
        let err = TuneOptions::from_env().unwrap_err();
        assert_eq!(err.var, "RESPEC_CACHE_DIR");
        assert!(
            err.to_string().contains("cache directory cannot be opened"),
            "error explains the failure: {err}"
        );
        let _ = std::fs::remove_file(&blocker);
        std::env::remove_var("RESPEC_CACHE_DIR");

        for (v, old) in VARS.iter().zip(saved) {
            match old {
                Some(val) => std::env::set_var(v, val),
                None => std::env::remove_var(v),
            }
        }
    }
}
