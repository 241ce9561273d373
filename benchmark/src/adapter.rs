//! Every call the harness makes into the program, one function per layer
//! call. Nothing else in this package names a `respec*` item, so the
//! roadmap's planned renames (`autotune*` collapsing to one entry point,
//! `ExecMode` going away) are a fix to this file alone.
//!
//! The harness deliberately avoids `ExecMode`, every `RESPEC_*`
//! environment knob and `TuneOptions::from_env`: it measures the program's
//! defaults.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use respec::sim::SimError;
use respec::{Compiler, GpuSim, StoredReport, StoredWinner, Strategy, TuneOptions, TuningCache};
use respec_rodinia::Workload;
use respec_serve::{ServeConfig, Server};

pub use respec::backend::BackendReport;
pub use respec::ir::kernel::Launch;
pub use respec::trace::json::{write_f64, write_str, Json};
pub use respec::trace::{EventKind, Span, Trace, TraceEvent};
pub use respec::{CoarsenConfig, Compiled, Function, Module, TargetKind, TargetModel, TuneResult};
pub use respec_rodinia::App;

/// A shared target model, as the registry hands them out.
pub type Target = Arc<dyn TargetModel>;

/// Protocol names of the six registry targets (four GPUs, two CPUs).
pub const REGISTRY_TARGETS: [&str; 6] = respec::targets::TARGET_NAMES;

/// Resolves a registry target by protocol name.
///
/// # Panics
///
/// Panics on an unknown name: workload tables name registry targets only.
pub fn target(name: &str) -> Target {
    respec::targets::by_name(name).unwrap_or_else(|| panic!("unknown registry target {name:?}"))
}

/// Problem-size preset of the Rodinia apps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// Test-scale inputs.
    Small,
    /// Experiment-scale inputs.
    Large,
}

impl Size {
    fn workload(self) -> Workload {
        match self {
            Size::Small => Workload::Small,
            Size::Large => Workload::Large,
        }
    }

    /// Lower-case label used in request keys.
    pub fn label(self) -> &'static str {
        match self {
            Size::Small => "small",
            Size::Large => "large",
        }
    }
}

/// The 15 Rodinia apps plus `gemm`, in registry order.
pub fn apps_with_gemm(size: Size) -> Vec<Box<dyn App>> {
    respec_rodinia::all_apps_with_gemm(size.workload())
}

/// The 15 apps `respec-serve` registers, in its popularity-rank order.
pub fn serve_apps(size: Size) -> Vec<Box<dyn App>> {
    respec_rodinia::all_apps_sized(size.workload())
}

/// Whether `out` is within the app's tolerance of its sequential reference.
pub fn within_tolerance(app: &dyn App, out: &[f64], reference: &[f64]) -> bool {
    respec_rodinia::max_abs_err(out, reference) <= app.tolerance()
}

// ---------------------------------------------------------------------------
// core: the facade a user calls
// ---------------------------------------------------------------------------

/// `Compiler…compile()` for an app on a target, optionally with a
/// persistent tuning cache.
pub fn core_compile(
    app: &dyn App,
    target: &Target,
    cache_dir: Option<&Path>,
) -> Result<Compiled, String> {
    let mut builder = Compiler::new()
        .source(app.source())
        .target_model(target.clone());
    for spec in app.specs() {
        builder = builder.kernel(spec.name, spec.block_dims);
    }
    if let Some(dir) = cache_dir {
        builder = builder.with_cache(dir);
    }
    builder.compile().map_err(|e| e.to_string())
}

/// `Compiled::autotune_pooled` of the app's main kernel over the Combined
/// strategy's candidates for `totals`, on `workers` engine workers.
pub fn core_autotune<R, F>(
    compiled: &mut Compiled,
    app: &dyn App,
    workers: usize,
    totals: &[i64],
    make_runner: F,
) -> Result<TuneResult, String>
where
    R: FnMut(&Function, u32) -> Result<f64, SimError>,
    F: Fn() -> R + Sync,
{
    let options = TuneOptions::with_parallelism(workers).totals(totals);
    compiled
        .autotune_pooled(app.main_kernel(), &options, make_runner)
        .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// sim: the benchmark-owned measurement runner
// ---------------------------------------------------------------------------

/// What one simulated app run did, read off the simulator afterwards.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimSample {
    /// Kernel launches performed.
    pub launches: u64,
    /// Warp-instruction issues retired, all classes.
    pub warp_issues: u64,
    /// Global-memory sectors read.
    pub read_sectors: u64,
    /// Global-memory sectors written.
    pub write_sectors: u64,
    /// Read sectors served by the modelled L1.
    pub l1_read_hits: u64,
    /// Simulated seconds of the whole app (launches plus overheads).
    pub simulated_s: f64,
    /// Simulated seconds of the measured kernel, short-run tail filtered.
    pub kernel_s: f64,
}

/// The paper discards kernel runs shorter than 1e-4 s; at simulated scale
/// launches under this fraction of the kernel's longest launch are that tail.
const KERNEL_FILTER_FRACTION: f64 = 0.25;

fn sample(sim: &GpuSim, kernel: &str) -> SimSample {
    let longest = sim
        .launch_log
        .iter()
        .filter(|t| t.kernel == kernel)
        .map(|t| t.seconds)
        .fold(0.0f64, f64::max);
    let stats = sim.total_stats();
    SimSample {
        launches: sim.launch_log.len() as u64,
        warp_issues: stats.total_issues(),
        read_sectors: stats.read_sectors,
        write_sectors: stats.write_sectors,
        l1_read_hits: stats.l1_read_hits,
        simulated_s: sim.elapsed_seconds,
        kernel_s: sim.kernel_seconds_above(kernel, longest * KERNEL_FILTER_FRACTION),
    }
}

/// Observer of simulated app runs. The traced harness wraps each run in a
/// span and keeps the sample; the timed harness passes the run through.
pub trait SimProbe: Sync {
    /// Performs `run` (exactly once) and returns its result.
    fn observe(
        &self,
        run: &mut dyn FnMut() -> Result<SimSample, String>,
    ) -> Result<SimSample, String>;
}

/// `GpuSim::for_model` + `App::run`: one whole simulated app run, returning
/// the app's output vector and what the simulator did.
pub fn sim_run(
    app: &dyn App,
    module: &Module,
    target: &dyn TargetModel,
    probe: &dyn SimProbe,
) -> Result<(Vec<f64>, SimSample), String> {
    let mut output = Vec::new();
    let sample = probe.observe(&mut || {
        let mut sim = GpuSim::for_model(target);
        output = app.run(&mut sim, module).map_err(|e| e.message)?;
        Ok(sample(&sim, app.main_kernel()))
    })?;
    Ok((output, sample))
}

/// The measurement runner the tuner calls per candidate: drops the candidate
/// into a module clone, runs the whole app on a fresh simulator and reports
/// the filtered main-kernel time. One per engine worker.
pub fn measure_runner<'a>(
    app: &'a dyn App,
    module: &'a Module,
    target: &'a dyn TargetModel,
    probe: &'a dyn SimProbe,
) -> impl FnMut(&Function, u32) -> Result<f64, SimError> + 'a {
    move |version, _regs| {
        probe
            .observe(&mut || {
                let mut candidate = module.clone();
                candidate.add_function(version.clone());
                let mut sim = GpuSim::for_model(target);
                app.run(&mut sim, &candidate).map_err(|e| e.message)?;
                Ok(sample(&sim, app.main_kernel()))
            })
            .map(|s| s.kernel_s)
            .map_err(|message| SimError { message })
    }
}

/// The optimized, untuned module the figure scripts simulate: frontend,
/// cleanup passes, and for CPU targets the GPU-to-CPU lowering.
pub fn figure_module(app: &dyn App, target: &dyn TargetModel) -> Result<Module, String> {
    let mut module = respec_rodinia::compile_app(app).map_err(|e| e.to_string())?;
    for func in module.functions_mut() {
        respec::opt::optimize(func);
    }
    if target.kind() == TargetKind::Cpu {
        let lanes = i64::from(target.exec_width());
        module =
            respec::opt::lower_module_to_cpu(&module, &respec::opt::CpuLoweringParams { lanes });
    }
    Ok(module)
}

// ---------------------------------------------------------------------------
// frontend, ir, analyze, opt, backend: the stages of one tune request
// ---------------------------------------------------------------------------

/// `compile_cuda` over the app's source and kernel specs.
pub fn frontend_compile(app: &dyn App) -> Result<Module, String> {
    respec::frontend::compile_cuda(app.source(), &app.specs()).map_err(|e| e.to_string())
}

/// `verify_function`.
pub fn ir_verify(func: &Function) -> Result<(), String> {
    respec::ir::verify_function(func).map_err(|e| e.to_string())
}

/// `structural_hash`.
pub fn ir_hash(func: &Function) -> u64 {
    respec::ir::structural_hash(func)
}

/// The canonical printed form.
pub fn ir_print(func: &Function) -> String {
    func.to_string()
}

/// `parse_function`.
pub fn ir_parse(text: &str) -> Result<Function, String> {
    respec::ir::parse_function(text).map_err(|e| e.to_string())
}

/// Operations reachable from the function body (the IR's size).
pub fn ir_live_ops(func: &Function) -> usize {
    respec::ir::walk::collect_ops(func, func.body()).len()
}

/// Launch structure of a kernel (`ir::kernel::analyze_function`).
pub fn ir_launches(func: &Function) -> Result<Vec<Launch>, String> {
    respec::ir::kernel::analyze_function(func).map_err(|e| e.to_string())
}

/// Static race/barrier analysis; returns the number of error findings.
pub fn analyze(func: &Function) -> usize {
    respec::analyze::analyze_function(func).errors().count()
}

/// The Combined strategy's candidate list for a kernel, from the block shape
/// of its first launch — what the facade generates before a search.
pub fn candidate_configs(func: &Function, totals: &[i64]) -> Result<Vec<CoarsenConfig>, String> {
    let block_dims = ir_launches(func)?
        .first()
        .map_or_else(|| vec![1, 1, 1], |l| l.block_dims.clone());
    Ok(respec::candidate_configs(
        Strategy::Combined,
        totals,
        &block_dims,
    ))
}

/// The cleanup pipeline (canonicalize, CSE, LICM, DCE).
pub fn opt_optimize(func: &mut Function) {
    respec::opt::optimize(func);
}

/// Thread/block coarsening by `config`.
pub fn opt_coarsen(func: &mut Function, config: CoarsenConfig) -> Result<(), String> {
    respec::opt::coarsen_function(func, config).map_err(|e| e.message)
}

/// GPU-to-CPU lowering for the target's SIMD width.
pub fn opt_cpu_lower(func: &mut Function, target: &dyn TargetModel) {
    let lanes = i64::from(target.exec_width());
    respec::opt::lower_function_to_cpu(func, &respec::opt::CpuLoweringParams { lanes });
}

/// Backend register/spill estimate for one launch.
pub fn backend_compile(
    func: &Function,
    launch: &Launch,
    target: &dyn TargetModel,
) -> Result<BackendReport, String> {
    respec::backend::try_compile_launch(func, launch, target.max_regs_per_thread())
        .map_err(|e| e.message)
}

// ---------------------------------------------------------------------------
// cache
// ---------------------------------------------------------------------------

/// The persistent store's key for one search on one target.
#[derive(Clone, Copy, Debug)]
pub struct CacheKey {
    /// `TargetKind::tag()` of the target.
    pub kind: &'static str,
    /// Structural hash of the input kernel.
    pub input_hash: u64,
    /// Target fingerprint.
    pub target_fp: u64,
    /// Fingerprint of the candidate list.
    pub search_fp: u64,
}

impl CacheKey {
    /// The key the engine derives for `func` tuned over `configs` on `target`.
    pub fn of(func: &Function, target: &dyn TargetModel, configs: &[CoarsenConfig]) -> CacheKey {
        CacheKey {
            kind: target.kind().tag(),
            input_hash: ir_hash(func),
            target_fp: target.fingerprint(),
            search_fp: TuningCache::search_fingerprint(configs),
        }
    }
}

/// A persistent tuning store opened by the harness.
pub struct Cache(TuningCache);

impl Cache {
    /// `TuningCache::open`.
    pub fn open(dir: &Path) -> Result<Cache, String> {
        TuningCache::open(dir)
            .map(Cache)
            .map_err(|e| format!("cannot open cache {}: {e}", dir.display()))
    }

    /// Stores a backend report under a prepared version's hash.
    pub fn store_report(
        &self,
        key: &CacheKey,
        version_hash: u64,
        report: &BackendReport,
    ) -> Result<(), String> {
        let demand = report.regs_per_thread + report.spill_units;
        let stored = StoredReport {
            backend: report.clone(),
            worst_regs: demand,
            spill_units: report.spill_units,
            launch_regs: report.regs_per_thread,
        };
        self.0
            .store_report(key.kind, version_hash, key.target_fp, &stored)
            .map_err(|e| e.to_string())
    }

    /// Whether a backend report is stored (and readable) for the version.
    pub fn load_report(&self, key: &CacheKey, version_hash: u64) -> bool {
        self.0
            .load_report(key.kind, version_hash, key.target_fp)
            .hit()
            .is_some()
    }

    /// Stores a search's winner as its printed IR plus bit-exact timing.
    pub fn store_winner(
        &self,
        key: &CacheKey,
        config: CoarsenConfig,
        seconds: f64,
        regs: u32,
        ir: String,
    ) -> Result<(), String> {
        let stored = StoredWinner {
            config,
            seconds_bits: seconds.to_bits(),
            regs,
            ir,
            target: key.target_fp,
            target_kind: key.kind.to_string(),
        };
        self.0
            .store_winner(key.input_hash, key.search_fp, &stored)
            .map_err(|e| e.to_string())
    }

    /// The stored winner's printed IR, if the entry is present and readable.
    pub fn load_winner(&self, key: &CacheKey) -> Option<String> {
        self.0
            .load_winner(key.kind, key.input_hash, key.target_fp, key.search_fp)
            .hit()
            .map(|w| w.ir)
    }

    /// Bytes of every entry currently in the store.
    pub fn bytes_on_disk(&self) -> u64 {
        self.0
            .entry_paths()
            .unwrap_or_default()
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// An in-process `respec-serve` daemon.
pub struct Daemon {
    server: Server,
    cache_dir: PathBuf,
    shards: usize,
}

impl Daemon {
    /// `Server::start` on an ephemeral loopback port with a sharded
    /// persistent cache under `cache_dir`.
    pub fn start(workers: usize, cache_dir: &Path, shards: usize) -> Result<Daemon, String> {
        let config = ServeConfig {
            workers,
            shards,
            cache_dir: Some(cache_dir.to_path_buf()),
            ..ServeConfig::default()
        };
        let server = Server::start(config).map_err(|e| format!("serve start: {e}"))?;
        Ok(Daemon {
            server,
            cache_dir: cache_dir.to_path_buf(),
            shards,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Bytes on disk over all cache shards.
    pub fn cache_bytes(&self) -> u64 {
        (0..self.shards)
            .filter_map(|i| Cache::open(&self.cache_dir.join(format!("shard-{i:02}"))).ok())
            .map(|c| c.bytes_on_disk())
            .sum()
    }

    /// Requests shutdown and blocks until every daemon thread has exited.
    pub fn stop(self) {
        self.server.shutdown();
        self.server.join();
    }
}
