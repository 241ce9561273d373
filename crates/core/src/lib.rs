//! # respec — retargeting and respecializing GPU workloads
//!
//! A from-scratch Rust reproduction of the CGO 2024 paper *"Retargeting and
//! Respecializing GPU Workloads for Performance Portability"*
//! (Polygeist-GPU): a compiler that takes CUDA kernels, represents them in a
//! parallel IR, *respecializes* their granularity via combined thread and
//! block coarsening with compile-time multi-versioning and timing-driven
//! autotuning, and *retargets* them between NVIDIA-like and AMD-like GPU
//! models — all running against a built-in functional + timing GPU
//! simulator in place of real hardware.
//!
//! The crates behind this facade:
//!
//! | crate | role |
//! |---|---|
//! | [`ir`] | MLIR-like SSA IR with parallel loops and scoped barriers |
//! | [`frontend`] | CUDA C-subset → IR, structured SSA construction |
//! | [`opt`] | unroll-and-interleave, thread/block coarsening, CSE/LICM/DCE |
//! | [`backend`] | virtual-ISA lowering, register/spill estimation |
//! | [`sim`] | warps, coalescing, caches, occupancy, timing (Table I targets) |
//! | [`tune`] | shared-memory/spill pruning + timing-driven optimization |
//!
//! # Quickstart
//!
//! ```
//! use respec::{Compiler, targets, KernelArg};
//!
//! let compiled = Compiler::new()
//!     .source(r#"
//!         __global__ void scale(float* data, float s, int n) {
//!             int i = blockIdx.x * blockDim.x + threadIdx.x;
//!             if (i < n) data[i] = data[i] * s;
//!         }
//!     "#)
//!     .kernel("scale", [256, 1, 1])
//!     .target(targets::a100())
//!     .compile()?;
//!
//! let mut sim = compiled.simulator();
//! let buf = sim.mem.alloc_f32(&vec![1.0; 1024]);
//! let report = compiled.launch(&mut sim, "scale", [4, 1, 1],
//!     &[KernelArg::Buf(buf), KernelArg::F32(3.0), KernelArg::I32(1024)])?;
//! assert_eq!(sim.mem.read_f32(buf), vec![3.0f32; 1024]);
//! assert!(report.kernel_seconds > 0.0);
//! # Ok::<(), respec::Error>(())
//! ```

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

pub mod fatbin;

pub use respec_analyze as analyze;
pub use respec_backend as backend;
pub use respec_cache as cache;
pub use respec_frontend as frontend;
pub use respec_ir as ir;
pub use respec_opt as opt;
pub use respec_sim as sim;
pub use respec_trace as trace;
pub use respec_tune as tune;

pub use fatbin::{mine_fatbin, FatCompiled, FatDispatch, FatTarget, FatVariant};
pub use respec_analyze::AnalysisReport;
pub use respec_cache::{Lookup, StoredReport, StoredWinner, TuningCache};
pub use respec_frontend::KernelSpec;
pub use respec_ir::{Diagnostic, Function, Module, Severity};
pub use respec_opt::{CoarsenConfig, IndexingStyle};
pub use respec_sim::{
    targets, GpuSim, KernelArg, LaunchReport, TargetDesc, TargetKind, TargetModel,
};
pub use respec_trace::{Trace, TraceSummary};
pub use respec_tune::{
    candidate_configs, tune_kernel_pooled, PhaseTimings, Strategy, TuneErrorKind, TuneOptions,
    TuneResult, TuneStats, DEFAULT_TOTALS,
};

/// One-line import for the common facade workflow:
/// `use respec::prelude::*;`.
pub mod prelude {
    pub use crate::{
        targets, CoarsenConfig, Compiled, Compiler, Diagnostic, Error, FatCompiled, GpuSim,
        KernelArg, LaunchReport, Severity, Strategy, TargetDesc, TargetKind, TargetModel, Trace,
        TuneOptions, TuneResult, TuningCache,
    };
}

/// Top-level error type of the pipeline facade.
#[derive(Clone, Debug)]
pub enum Error {
    /// Frontend (parse/lowering) failure.
    Frontend(respec_frontend::CompileError),
    /// Coarsening failure.
    Coarsen(respec_opt::CoarsenError),
    /// Simulation failure.
    Sim(respec_sim::SimError),
    /// Tuning failure.
    Tune(respec_tune::TuneError),
    /// The static race/barrier gate found a legality error the input
    /// kernel did not have (the transformation pipeline broke the kernel).
    Analysis(Diagnostic),
    /// Configuration error in the builder itself.
    Builder(String),
    /// The persistent tuning cache directory could not be opened or
    /// created (corrupt *entries* are never errors — they degrade to
    /// misses — but an unusable cache *directory* is).
    Cache(String),
    /// Fat-binary mining or dispatch failure: no stored winners to mine
    /// (empty or fully corrupt cache), an invalid ε budget, or a dispatch
    /// request no variant can serve. Always structured — an unusable
    /// winner store degrades to this error, never to a panic.
    Fatbin(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Frontend(e) => e.fmt(f),
            Error::Coarsen(e) => e.fmt(f),
            Error::Sim(e) => e.fmt(f),
            Error::Tune(e) => e.fmt(f),
            Error::Analysis(d) => d.fmt(f),
            Error::Builder(m) => write!(f, "builder error: {m}"),
            Error::Cache(m) => write!(f, "tuning cache error: {m}"),
            Error::Fatbin(m) => write!(f, "fat-binary error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Every facade failure renders as one [`Diagnostic`], so CLIs and test
/// harnesses report pipeline errors and analysis findings uniformly.
impl From<Error> for Diagnostic {
    fn from(e: Error) -> Diagnostic {
        match e {
            Error::Frontend(e) => e.into(),
            Error::Coarsen(e) => Diagnostic::error("coarsen-error", e.message),
            Error::Sim(e) => e.into(),
            Error::Tune(e) => Diagnostic::error("tune-error", e.message),
            Error::Analysis(d) => d,
            Error::Builder(m) => Diagnostic::error("builder-error", m),
            Error::Cache(m) => Diagnostic::error("cache-error", m),
            Error::Fatbin(m) => Diagnostic::error("fatbin-error", m),
        }
    }
}

impl From<respec_opt::GateError> for Error {
    fn from(e: respec_opt::GateError) -> Error {
        Error::Analysis(e.into())
    }
}

impl From<respec_frontend::CompileError> for Error {
    fn from(e: respec_frontend::CompileError) -> Error {
        Error::Frontend(e)
    }
}

impl From<respec_opt::CoarsenError> for Error {
    fn from(e: respec_opt::CoarsenError) -> Error {
        Error::Coarsen(e)
    }
}

impl From<respec_sim::SimError> for Error {
    fn from(e: respec_sim::SimError) -> Error {
        Error::Sim(e)
    }
}

impl From<respec_tune::TuneError> for Error {
    fn from(e: respec_tune::TuneError) -> Error {
        Error::Tune(e)
    }
}

/// End-to-end pipeline builder: CUDA source → IR → (optional coarsening)
/// → optimization, bound to a target GPU model.
#[derive(Clone, Debug, Default)]
pub struct Compiler {
    source: String,
    specs: Vec<KernelSpec>,
    target: Option<Arc<dyn TargetModel>>,
    coarsen: Option<CoarsenConfig>,
    run_optimizer: bool,
    trace: Trace,
    cache_dir: Option<PathBuf>,
}

impl Compiler {
    /// Creates a builder with optimization enabled and no target selected.
    pub fn new() -> Compiler {
        Compiler {
            run_optimizer: true,
            ..Compiler::default()
        }
    }

    /// Sets the CUDA source text.
    pub fn source(mut self, src: impl Into<String>) -> Compiler {
        self.source = src.into();
        self
    }

    /// Declares a kernel to compile, with its static block dimensions.
    pub fn kernel(mut self, name: impl Into<String>, block_dims: [i64; 3]) -> Compiler {
        self.specs.push(KernelSpec::new(name, block_dims));
        self
    }

    /// Selects the target (see [`targets`]). Retargeting a CUDA program to
    /// AMD is nothing more than picking an AMD descriptor here — and
    /// retargeting it to a multicore CPU is picking a CPU descriptor such
    /// as [`targets::cpu_desktop8`].
    pub fn target(mut self, target: TargetDesc) -> Compiler {
        self.target = Some(Arc::new(target));
        self
    }

    /// [`Compiler::target`] for an already-shared model, e.g. one resolved
    /// by name through [`targets::by_name`].
    pub fn target_model(mut self, target: Arc<dyn TargetModel>) -> Compiler {
        self.target = Some(target);
        self
    }

    /// Applies a fixed coarsening configuration to every kernel.
    pub fn coarsen(mut self, config: CoarsenConfig) -> Compiler {
        self.coarsen = Some(config);
        self
    }

    /// Enables or disables the cleanup optimizer (canonicalize/CSE/LICM/DCE).
    pub fn optimizer(mut self, enabled: bool) -> Compiler {
        self.run_optimizer = enabled;
        self
    }

    /// Attaches a trace handle: compilation records one span per phase and
    /// per optimization pass, the autotuner logs every pruning decision, and
    /// simulators created via [`Compiled::simulator`] record per-launch
    /// spans. Tracing is strictly observational — it changes neither the
    /// produced IR nor any simulated timing (see the `trace_neutrality`
    /// property test).
    pub fn with_trace(mut self, trace: Trace) -> Compiler {
        self.trace = trace;
        self
    }

    /// Attaches a persistent tuning cache rooted at `dir` (created on
    /// first use): autotune calls on the [`Compiled`] artifact replay
    /// stored winners and skip backend compiles whose reports are stored.
    /// Without this call the `RESPEC_CACHE_DIR` environment
    /// variable (read at [`Compiler::compile`] time) selects the
    /// directory; an explicit `with_cache` wins over the environment.
    pub fn with_cache(mut self, dir: impl Into<PathBuf>) -> Compiler {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Runs the pipeline. Coarsening and optimization run under the static
    /// race/barrier gate ([`respec_opt::AnalysisGate`]): a transformation
    /// that introduces a legality error the input kernel lacked is a hard
    /// [`Error::Analysis`].
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] if no kernel/target was declared, the source
    /// fails to compile, coarsening is illegal, or the pipeline introduced
    /// a race/divergent barrier.
    pub fn compile(self) -> Result<Compiled, Error> {
        if self.specs.is_empty() {
            return Err(Error::Builder(
                "no kernels declared; call .kernel(...)".into(),
            ));
        }
        let target = self
            .target
            .ok_or_else(|| Error::Builder("no target selected; call .target(...)".into()))?;
        let mut module = {
            let _span = self.trace.span("compile", "frontend");
            respec_frontend::compile_cuda(&self.source, &self.specs)?
        };
        for func in module.functions_mut() {
            let gate = respec_opt::AnalysisGate::before(func);
            if let Some(cfg) = self.coarsen {
                let mut span = self
                    .trace
                    .span("compile", format!("coarsen:{}", func.name()));
                span.record("config", cfg.to_string());
                respec_opt::coarsen_function(func, cfg)?;
            }
            if self.run_optimizer {
                respec_opt::optimize_traced(func, &self.trace);
            }
            gate.check(func, "respecialize")?;
            let _span = self
                .trace
                .span("compile", format!("verify:{}", func.name()));
            respec_ir::verify_function(func).map_err(|e| Error::Builder(e.to_string()))?;
        }
        let cache = match &self.cache_dir {
            Some(dir) => Some(Arc::new(TuningCache::open(dir).map_err(|e| {
                Error::Cache(format!("cannot open {}: {e}", dir.display()))
            })?)),
            None => TuningCache::from_env()
                .map_err(|e| Error::Cache(format!("cannot open RESPEC_CACHE_DIR: {e}")))?
                .map(Arc::new),
        };
        Ok(Compiled {
            module,
            target,
            trace: self.trace,
            cache,
        })
    }

    /// Runs the frontend and the static race/barrier analyzer without
    /// binding a target: the same coarsening/optimization the builder is
    /// configured with is applied, and *all* findings — including
    /// pre-existing errors and undecidable warnings — are returned instead
    /// of being gated.
    ///
    /// ```
    /// use respec::Compiler;
    ///
    /// let report = Compiler::new()
    ///     .source("__global__ void id(float* d) { d[threadIdx.x] = d[threadIdx.x]; }")
    ///     .kernel("id", [64, 1, 1])
    ///     .analyze()?;
    /// assert!(report.is_clean());
    /// # Ok::<(), respec::Error>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] if no kernel was declared, the source fails to
    /// compile, or coarsening is illegal. Analysis findings are *not*
    /// errors — they come back in the [`AnalysisReport`].
    pub fn analyze(self) -> Result<AnalysisReport, Error> {
        if self.specs.is_empty() {
            return Err(Error::Builder(
                "no kernels declared; call .kernel(...)".into(),
            ));
        }
        let mut module = {
            let _span = self.trace.span("compile", "frontend");
            respec_frontend::compile_cuda(&self.source, &self.specs)?
        };
        for func in module.functions_mut() {
            if let Some(cfg) = self.coarsen {
                respec_opt::coarsen_function(func, cfg)?;
            }
            if self.run_optimizer {
                respec_opt::optimize_traced(func, &self.trace);
            }
        }
        let _span = self.trace.span("compile", "analyze");
        Ok(respec_analyze::analyze_module(&module))
    }
}

/// A compiled program bound to a target.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The compiled module (host + device in one unit, as in the paper).
    pub module: Module,
    /// The bound target model (a GPU or CPU [`TargetDesc`]).
    pub target: Arc<dyn TargetModel>,
    /// The trace handle events were recorded into (disabled unless the
    /// builder was given one via [`Compiler::with_trace`]).
    pub trace: Trace,
    /// The persistent tuning cache autotune calls consult ([`None`]
    /// unless [`Compiler::with_cache`] or `RESPEC_CACHE_DIR` selected a
    /// directory).
    pub cache: Option<Arc<TuningCache>>,
}

impl Compiled {
    /// Looks up a compiled kernel.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not exist (it was declared at build time).
    pub fn kernel(&self, name: &str) -> &Function {
        self.module
            .function(name)
            .unwrap_or_else(|| panic!("kernel {name} was not declared"))
    }

    /// Creates a fresh simulator for the bound target, recording into the
    /// same trace as compilation (if one is attached).
    pub fn simulator(&self) -> GpuSim {
        let mut sim = GpuSim::for_model(self.target.as_ref());
        sim.set_trace(self.trace.clone());
        sim
    }

    /// Summarizes everything recorded so far into a [`TraceReport`].
    pub fn trace_report(&self) -> TraceReport {
        TraceReport::from_trace(&self.trace)
    }

    /// Static race/barrier findings for every kernel in the compiled
    /// module, errors first. A clean report
    /// ([`AnalysisReport::is_clean`]) means the compiled code has no
    /// decidable shared-memory race or divergent barrier; warnings flag
    /// accesses the symbolic analysis could not decide.
    pub fn diagnostics(&self) -> AnalysisReport {
        respec_analyze::analyze_module(&self.module)
    }

    /// Launches a kernel with backend-derived register counts.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn launch(
        &self,
        sim: &mut GpuSim,
        name: &str,
        grid: [i64; 3],
        args: &[KernelArg],
    ) -> Result<LaunchReport, Error> {
        let func = self.kernel(name);
        let regs = registers_for(self.target.as_ref(), func);
        Ok(sim.launch(func, grid, args, regs)?)
    }

    /// Autotunes one kernel over the candidate set described by `options`
    /// (§VI TDO) on the tuning engine's worker pool
    /// ([`TuneOptions::effective_parallelism`] threads; `parallelism = 1`
    /// runs inline on the calling thread): `make_runner` builds one private
    /// measurement runner per worker, each runner call measures one
    /// candidate, and the winner — identical at any worker count — replaces
    /// the kernel in [`Compiled::module`]. The one-kernel case of
    /// [`Compiled::autotune_all`].
    ///
    /// The search is **best-effort**: a group whose compile or run fails is
    /// pruned once, with the failure as every member's prune reason, and a
    /// winner is still returned as long as *some* candidate survives. Only
    /// a search with no survivors errors ([`TuneErrorKind`]).
    ///
    /// # Errors
    ///
    /// Propagates tuning failures.
    pub fn autotune_pooled<R, F>(
        &mut self,
        name: &str,
        options: &TuneOptions,
        make_runner: F,
    ) -> Result<TuneResult, Error>
    where
        R: FnMut(&Function, u32) -> Result<f64, respec_sim::SimError>,
        F: Fn() -> R + Sync,
    {
        let mut results = self.autotune_all(&[name], options, |_| make_runner())?;
        Ok(results
            .pop()
            .expect("autotune_all returns one result per name"))
    }

    /// Autotunes several kernels concurrently: the worker budget is split
    /// between kernels (outer) and candidates within each kernel (inner),
    /// `make_runner(kernel_name)` builds each worker's private runner, and
    /// winners are installed in the order `names` lists them. On failure
    /// the first error in that order is returned and no kernel is replaced.
    ///
    /// # Errors
    ///
    /// Propagates the first tuning failure in `names` order.
    pub fn autotune_all<R, F>(
        &mut self,
        names: &[&str],
        options: &TuneOptions,
        make_runner: F,
    ) -> Result<Vec<TuneResult>, Error>
    where
        R: FnMut(&Function, u32) -> Result<f64, respec_sim::SimError>,
        F: Fn(&str) -> R + Sync,
    {
        let mut jobs = Vec::with_capacity(names.len());
        for &name in names {
            let func = self.kernel(name).clone();
            let configs = self.candidate_configs_for(&func, options.strategy, &options.totals)?;
            jobs.push((name, func, configs));
        }
        let workers = options.effective_parallelism();
        let outer = workers.min(jobs.len()).max(1);
        // The caller's options (strategy, totals, explicit cache) with the
        // inner share of the worker budget; this artifact's persistent
        // cache is injected unless the caller already chose one.
        let inner = TuneOptions {
            parallelism: (workers / outer).max(1),
            cache: options.cache.clone().or_else(|| self.cache.clone()),
            ..options.clone()
        };
        let target = self.target.as_ref();
        let trace = &self.trace;
        let results = respec_tune::pool::parallel_map(jobs.len(), outer, |i| {
            let (name, func, configs) = &jobs[i];
            tune_kernel_pooled(func, target, configs, &inner, || make_runner(name), trace)
        });
        let mut out = Vec::with_capacity(results.len());
        for result in results {
            out.push(result?);
        }
        for result in &out {
            self.module.add_function(result.best.clone());
        }
        Ok(out)
    }

    /// Candidate set for a kernel's block shape under a strategy.
    fn candidate_configs_for(
        &self,
        func: &Function,
        strategy: Strategy,
        totals: &[i64],
    ) -> Result<Vec<CoarsenConfig>, Error> {
        let launches =
            respec_ir::kernel::analyze_function(func).map_err(|e| Error::Builder(e.to_string()))?;
        let block_dims = launches
            .first()
            .map(|l| l.block_dims.clone())
            .unwrap_or_else(|| vec![1, 1, 1]);
        Ok(candidate_configs(strategy, totals, &block_dims))
    }
}

/// High-level view of one pipeline run's trace: how many events each layer
/// recorded, plus the full per-name aggregation ([`TraceSummary`]).
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// Optimization-pass spans (category `pass`).
    pub pass_spans: usize,
    /// Tuning decision events (category `tune`).
    pub tune_events: usize,
    /// Simulated kernel-launch spans (category `sim`).
    pub launch_spans: usize,
    /// Persistent-cache events — lookups, store failures, counters
    /// (category `cache`).
    pub cache_events: usize,
    /// All events recorded, any category.
    pub total_events: usize,
    /// Aggregated per-name statistics.
    pub summary: TraceSummary,
}

impl TraceReport {
    /// Builds the report from a trace handle.
    pub fn from_trace(trace: &Trace) -> TraceReport {
        let events = trace.events();
        TraceReport {
            pass_spans: events.iter().filter(|e| e.category == "pass").count(),
            tune_events: events.iter().filter(|e| e.category == "tune").count(),
            launch_spans: events.iter().filter(|e| e.category == "sim").count(),
            cache_events: events.iter().filter(|e| e.category == "cache").count(),
            total_events: events.len(),
            summary: TraceSummary::from_events(&events),
        }
    }
}

impl fmt::Display for TraceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} events ({} pass spans, {} tuning events, {} launch spans, {} cache events)",
            self.total_events,
            self.pass_spans,
            self.tune_events,
            self.launch_spans,
            self.cache_events
        )?;
        self.summary.fmt(f)
    }
}

/// Backend register estimate for a kernel on a target.
pub fn registers_for(target: &dyn TargetModel, func: &Function) -> u32 {
    match respec_ir::kernel::analyze_function(func) {
        Ok(launches) => launches
            .iter()
            .map(|l| {
                respec_backend::compile_launch(func, l, target.max_regs_per_thread())
                    .regs_per_thread
            })
            .max()
            .unwrap_or(32),
        Err(_) => 32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        __global__ void axpy(float* y, float* x, float a, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) y[i] = y[i] + a * x[i];
        }
    "#;

    #[test]
    fn builder_requires_kernel_and_target() {
        assert!(matches!(
            Compiler::new().source(SRC).compile(),
            Err(Error::Builder(_))
        ));
        assert!(matches!(
            Compiler::new()
                .source(SRC)
                .kernel("axpy", [128, 1, 1])
                .compile(),
            Err(Error::Builder(_))
        ));
    }

    #[test]
    fn analyze_reports_clean_for_safe_kernels() {
        let report = Compiler::new()
            .source(SRC)
            .kernel("axpy", [128, 1, 1])
            .analyze()
            .unwrap();
        assert!(report.is_clean());
    }

    #[test]
    fn analyze_flags_a_racy_kernel() {
        // Every thread writes cell 0 of a shared tile with no barrier — a
        // decidable write-write race the analyzer reports as an error,
        // surfaced through the facade without binding a target.
        let report = Compiler::new()
            .source(
                r#"
                __global__ void bad(float* d) {
                    __shared__ float tile[32];
                    tile[0] = d[threadIdx.x];
                    d[threadIdx.x] = tile[0];
                }
            "#,
            )
            .kernel("bad", [32, 1, 1])
            .analyze()
            .unwrap();
        assert!(!report.is_clean());
        assert!(report.errors().any(|d| d.code.starts_with("race-")));
    }

    #[test]
    fn compiled_diagnostics_cover_the_module() {
        let compiled = Compiler::new()
            .source(SRC)
            .kernel("axpy", [128, 1, 1])
            .target(targets::a100())
            .coarsen(CoarsenConfig {
                block: [2, 1, 1],
                thread: [2, 1, 1],
            })
            .compile()
            .unwrap();
        assert!(compiled.diagnostics().is_clean());
    }

    #[test]
    fn every_facade_error_renders_as_a_diagnostic() {
        let builder_err = Compiler::new().source(SRC).compile().unwrap_err();
        let d = Diagnostic::from(builder_err);
        assert_eq!(d.code, "builder-error");
        assert!(d.is_error());
        let frontend_err = Compiler::new()
            .source("__global__ void broken(")
            .kernel("broken", [1, 1, 1])
            .target(targets::a100())
            .compile()
            .unwrap_err();
        let d = Diagnostic::from(frontend_err);
        assert!(d.code.starts_with("frontend-"));
    }

    #[test]
    fn compile_launch_round_trip() {
        let compiled = Compiler::new()
            .source(SRC)
            .kernel("axpy", [128, 1, 1])
            .target(targets::a4000())
            .compile()
            .unwrap();
        let mut sim = compiled.simulator();
        let y = sim.mem.alloc_f32(&vec![1.0; 512]);
        let x = sim.mem.alloc_f32(&vec![2.0; 512]);
        compiled
            .launch(
                &mut sim,
                "axpy",
                [4, 1, 1],
                &[
                    KernelArg::Buf(y),
                    KernelArg::Buf(x),
                    KernelArg::F32(10.0),
                    KernelArg::I32(512),
                ],
            )
            .unwrap();
        assert_eq!(sim.mem.read_f32(y), vec![21.0f32; 512]);
    }

    #[test]
    fn coarsened_compile_is_equivalent() {
        let cfg = CoarsenConfig {
            block: [2, 1, 1],
            thread: [4, 1, 1],
        };
        let compiled = Compiler::new()
            .source(SRC)
            .kernel("axpy", [128, 1, 1])
            .target(targets::a100())
            .coarsen(cfg)
            .compile()
            .unwrap();
        let mut sim = compiled.simulator();
        let y = sim.mem.alloc_f32(&vec![1.0; 1024]);
        let x = sim.mem.alloc_f32(&vec![2.0; 1024]);
        compiled
            .launch(
                &mut sim,
                "axpy",
                [8, 1, 1],
                &[
                    KernelArg::Buf(y),
                    KernelArg::Buf(x),
                    KernelArg::F32(1.0),
                    KernelArg::I32(1024),
                ],
            )
            .unwrap();
        assert_eq!(sim.mem.read_f32(y), vec![3.0f32; 1024]);
    }

    #[test]
    fn traced_pipeline_reports_every_layer() {
        let trace = Trace::new();
        let mut compiled = Compiler::new()
            .source(SRC)
            .kernel("axpy", [128, 1, 1])
            .target(targets::a100())
            .with_trace(trace.clone())
            .compile()
            .unwrap();
        let mut sim = compiled.simulator();
        let y = sim.mem.alloc_f32(&vec![1.0; 512]);
        let x = sim.mem.alloc_f32(&vec![2.0; 512]);
        compiled
            .launch(
                &mut sim,
                "axpy",
                [4, 1, 1],
                &[
                    KernelArg::Buf(y),
                    KernelArg::Buf(x),
                    KernelArg::F32(1.0),
                    KernelArg::I32(512),
                ],
            )
            .unwrap();
        compiled
            .autotune_pooled("axpy", &TuneOptions::serial().totals(&[1, 2]), || {
                |func: &Function, regs| {
                    let mut s = GpuSim::new(targets::a100());
                    let b = s.mem.alloc_f32(&vec![1.0; 512]);
                    let c = s.mem.alloc_f32(&vec![2.0; 512]);
                    Ok(s.launch(
                        func,
                        [4, 1, 1],
                        &[
                            KernelArg::Buf(b),
                            KernelArg::Buf(c),
                            KernelArg::F32(1.0),
                            KernelArg::I32(512),
                        ],
                        regs,
                    )?
                    .kernel_seconds)
                }
            })
            .unwrap();
        let report = compiled.trace_report();
        assert!(
            report.pass_spans >= 6,
            "compile + tuning candidates each run the pass pipeline"
        );
        assert!(report.tune_events >= 3, "candidates + winner + tune span");
        assert!(
            report.launch_spans >= 1,
            "the traced simulator records launches"
        );
        assert_eq!(report.total_events, trace.len());
        let rendered = report.to_string();
        assert!(rendered.contains("pass spans"));
        // Both exporters emit valid JSON for the full stream.
        respec_trace::json::validate(&trace.chrome_trace()).unwrap();
        for line in trace.json_lines().lines() {
            respec_trace::json::validate(line).unwrap();
        }
    }

    #[test]
    fn untraced_pipeline_records_nothing() {
        let compiled = Compiler::new()
            .source(SRC)
            .kernel("axpy", [128, 1, 1])
            .target(targets::a100())
            .compile()
            .unwrap();
        assert!(!compiled.trace.is_enabled());
        assert_eq!(compiled.trace_report().total_events, 0);
    }

    #[test]
    fn autotune_replaces_kernel() {
        let mut compiled = Compiler::new()
            .source(SRC)
            .kernel("axpy", [128, 1, 1])
            .target(targets::a100())
            .compile()
            .unwrap();
        let result = compiled
            .autotune_pooled("axpy", &TuneOptions::serial().totals(&[1, 2]), axpy_runner)
            .unwrap();
        assert!(result.best_seconds > 0.0);
        // The module now holds the tuned version under the same name.
        assert!(compiled.module.function("axpy").is_some());
    }

    fn axpy_runner() -> impl FnMut(&Function, u32) -> Result<f64, respec_sim::SimError> {
        |func: &Function, regs: u32| {
            let mut sim = GpuSim::new(targets::a100());
            let y = sim.mem.alloc_f32(&vec![1.0; 1024]);
            let x = sim.mem.alloc_f32(&vec![2.0; 1024]);
            let report = sim.launch(
                func,
                [8, 1, 1],
                &[
                    KernelArg::Buf(y),
                    KernelArg::Buf(x),
                    KernelArg::F32(1.0),
                    KernelArg::I32(1024),
                ],
                regs,
            )?;
            Ok(report.kernel_seconds)
        }
    }

    #[test]
    fn pooled_autotune_matches_serial_facade() {
        let compile = || {
            Compiler::new()
                .source(SRC)
                .kernel("axpy", [128, 1, 1])
                .target(targets::a100())
                .compile()
                .unwrap()
        };
        let mut serial = compile();
        let s = serial
            .autotune_pooled(
                "axpy",
                &TuneOptions::serial().totals(&[1, 2, 4]),
                axpy_runner,
            )
            .unwrap();
        let mut pooled = compile();
        let p = pooled
            .autotune_pooled(
                "axpy",
                &TuneOptions::with_parallelism(3).totals(&[1, 2, 4]),
                axpy_runner,
            )
            .unwrap();
        assert_eq!(s.best_config, p.best_config);
        assert_eq!(s.best_seconds.to_bits(), p.best_seconds.to_bits());
        assert_eq!(s.best.to_string(), p.best.to_string());
        assert_eq!(
            serial.module.function("axpy").unwrap().to_string(),
            pooled.module.function("axpy").unwrap().to_string()
        );
    }

    #[test]
    fn with_cache_makes_the_second_autotune_a_pure_replay() {
        let dir = std::env::temp_dir().join(format!(
            "respec-facade-cache-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let compile = || {
            Compiler::new()
                .source(SRC)
                .kernel("axpy", [128, 1, 1])
                .target(targets::a100())
                .with_cache(&dir)
                .compile()
                .unwrap()
        };
        let mut cold = compile();
        let c = cold
            .autotune_pooled("axpy", &TuneOptions::serial().totals(&[1, 2]), axpy_runner)
            .unwrap();
        assert_eq!(c.stats.persistent_hits, 0);
        assert!(c.stats.persistent_misses > 0, "cold run misses everything");
        let mut warm = compile();
        let w = warm
            .autotune_pooled("axpy", &TuneOptions::serial().totals(&[1, 2]), axpy_runner)
            .unwrap();
        assert_eq!(w.stats.persistent_hits, 1, "the stored winner replays");
        assert_eq!(w.stats.runner_calls, 0, "replay never launches a runner");
        assert_eq!(w.best_config, c.best_config);
        assert_eq!(w.best_seconds.to_bits(), c.best_seconds.to_bits());
        assert_eq!(w.best.to_string(), c.best.to_string());
        assert_eq!(
            warm.module.function("axpy").unwrap().to_string(),
            cold.module.function("axpy").unwrap().to_string()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn compile_two_kernels() -> Compiled {
        let two = r#"
            __global__ void axpy(float* y, float* x, float a, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) y[i] = y[i] + a * x[i];
            }
            __global__ void scale(float* y, float* x, float a, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) y[i] = x[i] * a;
            }
        "#;
        Compiler::new()
            .source(two)
            .kernel("axpy", [128, 1, 1])
            .kernel("scale", [128, 1, 1])
            .target(targets::a100())
            .compile()
            .unwrap()
    }

    #[test]
    fn autotune_all_tunes_every_kernel() {
        let mut compiled = compile_two_kernels();
        let results = compiled
            .autotune_all(
                &["axpy", "scale"],
                &TuneOptions::with_parallelism(2).totals(&[1, 2]),
                |_name| axpy_runner(),
            )
            .unwrap();
        assert_eq!(results.len(), 2);
        for (result, name) in results.iter().zip(["axpy", "scale"]) {
            assert!(result.best_seconds > 0.0);
            assert_eq!(result.best.name(), name);
            assert_eq!(
                compiled.module.function(name).unwrap().to_string(),
                result.best.to_string()
            );
        }
    }
}
