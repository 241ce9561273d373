//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§VII) on the simulated targets.
//!
//! Each experiment has one data function with its sweep as a `const`
//! beside it, and one field list per row ([`report`] renders both the
//! tables and `--json` from it). [`claims`] decides the paper's claims from
//! the rows, so a model change shows up as a diff of verdicts rather than
//! of absolute simulated times. The `repro` binary drives all of it.

pub mod claims;
pub mod report;

use std::path::Path;
use std::sync::Arc;

use respec::opt::optimize;
use respec::sim::SimError;
use respec::tune::PruneReason;
use respec::{
    candidate_configs, targets, tune_kernel_pooled, CoarsenConfig, Function, GpuSim, Module,
    Strategy, TargetDesc, TargetModel, Trace, TuneOptions, TuneResult, TuningCache,
};
use respec_rodinia::{all_apps_sized, compile_app, App, Workload};

use report::{Cell, Row};

/// Kernel-measurement filter: the paper discards kernel runs shorter than
/// 1e-4 s on real hardware (§VII-A). At simulated scale we use a
/// self-relative filter — launches shorter than this fraction of the run's
/// largest launch of the same kernel are the shrinking-grid tail the
/// paper's absolute cutoff removes.
pub const KERNEL_FILTER_FRACTION: f64 = 0.25;

/// Sums the kernel time of `name`, discarding the short-run tail (see
/// [`KERNEL_FILTER_FRACTION`]).
pub fn filtered_kernel_seconds(sim: &GpuSim, name: &str) -> f64 {
    let max = sim
        .launch_log
        .iter()
        .filter(|t| t.kernel == name)
        .map(|t| t.seconds)
        .fold(0.0f64, f64::max);
    sim.kernel_seconds_above(name, max * KERNEL_FILTER_FRACTION)
}

/// Compilation pipelines compared in Fig. 16/17.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pipeline {
    /// The mainstream-compiler baseline (clang / hipify+clang): same
    /// frontend and backend, no parallel optimizations.
    Clang,
    /// Polygeist-GPU with coarsening disabled — adds the
    /// parallel-representation cleanups (LICM across shared memory, CSE).
    PolygeistNoOpt,
    /// Polygeist-GPU with coarsening + timing-driven optimization.
    PolygeistOpt,
}

impl Pipeline {
    /// Short label used in figure rows.
    pub fn label(self) -> &'static str {
        match self {
            Pipeline::Clang => "clang",
            Pipeline::PolygeistNoOpt => "P-G",
            Pipeline::PolygeistOpt => "P-G opt",
        }
    }
}

/// Compiles an app under a pipeline (without TDO — see [`tuned_module_with`]).
pub fn compiled_module(app: &dyn App, pipeline: Pipeline) -> Module {
    let mut module = compile_app(app).expect("app compiles");
    if pipeline != Pipeline::Clang {
        for func in module.functions_mut() {
            optimize(func);
        }
    }
    module
}

/// Applies target-specific backend policies to every kernel — currently
/// the AMD shared-memory offload for extreme per-thread shared usage
/// (§VII-D2); this runs for *every* pipeline, as it happens in the vendor
/// backend below both clang and Polygeist.
pub fn apply_target_lowering(module: &mut Module, target: &TargetDesc) {
    for func in module.functions_mut() {
        respec::opt::offload_shared_to_global(func, target.l1_bytes);
    }
}

/// Composite time (whole application, all launches + overheads) of an app
/// under a pipeline on a target. For [`Pipeline::PolygeistOpt`] the main
/// kernel is autotuned first (TDO with kernel-scope timing).
pub fn composite_seconds(
    app: &dyn App,
    target: &TargetDesc,
    pipeline: Pipeline,
    totals: &[i64],
    options: &TuneOptions,
) -> f64 {
    let mut module = match pipeline {
        Pipeline::PolygeistOpt => {
            tuned_module_with(app, target, Strategy::Combined, totals, options).0
        }
        _ => compiled_module(app, pipeline),
    };
    apply_target_lowering(&mut module, target);
    let mut sim = GpuSim::new(target.clone());
    app.run(&mut sim, &module).expect("app runs");
    sim.elapsed_seconds
}

/// Per-worker measurement runner over a full app run, scoped to one kernel:
/// drops the candidate version into a module clone, runs the whole app on a
/// fresh simulator, and reports the filtered main-kernel time. Building one
/// per worker thread is what lets the engine measure candidates in parallel.
pub fn app_runner<'a>(
    app: &'a dyn App,
    module: &'a Module,
    target: &'a dyn TargetModel,
    kernel: &'a str,
) -> impl FnMut(&Function, u32) -> Result<f64, SimError> + 'a {
    move |version, _regs| {
        let mut m = module.clone();
        m.add_function(version.clone());
        let mut sim = GpuSim::for_model(target);
        app.run(&mut sim, &m)?;
        Ok(filtered_kernel_seconds(&sim, kernel))
    }
}

/// The prelude every tuning experiment shares: the app compiled without
/// coarsening, its main kernel, and that kernel's candidate configurations
/// for one strategy over one totals ladder.
struct KernelSearch {
    module: Module,
    kernel: String,
    func: Function,
    configs: Vec<CoarsenConfig>,
}

impl KernelSearch {
    fn new(app: &dyn App, strategy: Strategy, totals: &[i64]) -> KernelSearch {
        let module = compiled_module(app, Pipeline::PolygeistNoOpt);
        let kernel = app.main_kernel().to_string();
        let func = module.function(&kernel).expect("main kernel").clone();
        let launches = respec::ir::kernel::analyze_function(&func).expect("kernel shape");
        let configs = candidate_configs(strategy, totals, &launches[0].block_dims);
        KernelSearch {
            module,
            kernel,
            func,
            configs,
        }
    }

    /// Tunes the main kernel on `target`, measuring whole-app runs.
    fn tune(
        &self,
        app: &dyn App,
        target: &dyn TargetModel,
        options: &TuneOptions,
    ) -> Result<TuneResult, respec::tune::TuneError> {
        tune_kernel_pooled(
            &self.func,
            target,
            &self.configs,
            options,
            || app_runner(app, &self.module, target, &self.kernel),
            &Trace::disabled(),
        )
    }
}

/// Autotunes the app's main kernel (kernel-scope objective) and returns the
/// module with the winner substituted, and the tuning result when any
/// candidate survived. Falls back to the untuned module if nothing survives
/// pruning.
pub fn tuned_module_with(
    app: &dyn App,
    target: &dyn TargetModel,
    strategy: Strategy,
    totals: &[i64],
    options: &TuneOptions,
) -> (Module, Option<TuneResult>) {
    let search = KernelSearch::new(app, strategy, totals);
    let result = search.tune(app, target, options).ok();
    let mut module = search.module;
    if let Some(r) = &result {
        // Surface candidates lost to a failed compile or run without
        // failing the harness: the winner is the best *surviving* one.
        for c in &r.candidates {
            if let Some(reason @ (PruneReason::CompileFailed(_) | PruneReason::RunFailed(_))) =
                &c.pruned
            {
                eprintln!(
                    "tuned_module_with[{}]: {} lost: {reason}",
                    app.name(),
                    c.config
                );
            }
        }
        module.add_function(r.best.clone());
    }
    (module, result)
}

/// Best (minimum) main-kernel time over a strategy's candidate set, plus
/// the identity time — the Fig. 13 measurement for one app.
pub fn strategy_best(
    app: &dyn App,
    target: &TargetDesc,
    strategy: Strategy,
    totals: &[i64],
    options: &TuneOptions,
) -> (f64, f64) {
    let mut identity = f64::INFINITY;
    let mut best = f64::INFINITY;
    let _ = KernelSearch::new(app, strategy, totals)
        .tune(app, target, options)
        .map(|r| {
            for c in &r.candidates {
                if let Some(s) = c.seconds {
                    if c.config.is_identity() {
                        identity = s;
                    }
                    best = best.min(s);
                }
            }
        });
    (identity, best)
}

/// Geometric mean (1.0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

// ---------------------------------------------------------------------------
// The experiments. Each has one data function returning its rows, with its
// sweep as a `const` beside it; `report` renders the rows and `claims`
// decides the paper's claims from them.
// ---------------------------------------------------------------------------

/// Table I: the four evaluation targets and their specifications.
pub fn table1_rows() -> Vec<Row> {
    targets::all_targets()
        .iter()
        .map(|t| {
            vec![
                ("gpu", Cell::Str(t.name.to_string())),
                ("vendor", Cell::Str(format!("{:?}", t.vendor))),
                ("sms", Cell::Count(t.sm_count as u64)),
                ("fp64_flops", Cell::Num(t.fp64_flops)),
                ("fp32_flops", Cell::Num(t.fp32_flops)),
                ("dram_bw", Cell::Num(t.dram_bw)),
                ("global_bytes", Cell::Count(t.global_bytes)),
                ("l2_bytes", Cell::Count(t.l2_bytes)),
                ("l1_bytes", Cell::Count(t.l1_bytes)),
            ]
        })
        .collect()
}

/// Fig. 13's sweep: the paper's total coarsening factors.
pub const FIG13_TOTALS: [i64; 6] = [1, 2, 4, 8, 16, 32];

/// Fig. 13: per app, the best main-kernel speedup over identity of each
/// coarsening strategy on the A100 model.
pub fn fig13_data(workload: Workload, totals: &[i64], options: &TuneOptions) -> Vec<Row> {
    let target = targets::a100();
    let speedup = |app: &dyn App, strategy| {
        let (identity, best) = strategy_best(app, &target, strategy, totals, options);
        Cell::Num(identity / best)
    };
    all_apps_sized(workload)
        .iter()
        .map(|app| {
            vec![
                ("app", Cell::Str(app.name().to_string())),
                ("thread_only", speedup(app.as_ref(), Strategy::ThreadOnly)),
                ("block_only", speedup(app.as_ref(), Strategy::BlockOnly)),
                ("combined", speedup(app.as_ref(), Strategy::Combined)),
            ]
        })
        .collect()
}

/// Fig. 14's sweep: total block factors (7 and 26 are the paper's prime
/// and shared-memory-limit points).
pub const FIG14_BLOCKS: [i64; 8] = [1, 2, 4, 7, 8, 16, 26, 32];
/// Fig. 14's sweep: total thread factors.
pub const FIG14_THREADS: [i64; 6] = [1, 2, 4, 8, 16, 32];
/// Fig. 15's sweep: block factors in x only.
pub const FIG15_BLOCK_X: [i64; 8] = [1, 2, 3, 4, 6, 8, 9, 12];
/// Fig. 15's sweep: total thread factors.
pub const FIG15_THREADS: [i64; 4] = [1, 2, 4, 8];

/// The registered `lud` app at `workload`.
fn lud(workload: Workload) -> Box<dyn App> {
    all_apps_sized(workload)
        .into_iter()
        .find(|a| a.name() == "lud")
        .expect("lud registered")
}

/// Measures the main lud kernel's time under one coarsening configuration;
/// `None` means illegal or pruned (shared memory over budget).
pub fn lud_config_seconds(
    lud: &dyn App,
    target: &TargetDesc,
    config: CoarsenConfig,
) -> Option<f64> {
    let module = compiled_module(lud, Pipeline::PolygeistNoOpt);
    let name = lud.main_kernel().to_string();
    let mut func = module.function(&name).expect("main kernel").clone();
    if respec::opt::coarsen_function(&mut func, config).is_err() {
        return None;
    }
    optimize(&mut func);
    // Early shared-memory pruning (decision point 2 of §VI).
    let launches = respec::ir::kernel::analyze_function(&func).ok()?;
    let shared: u64 = launches
        .iter()
        .map(|l| l.shared_bytes(&func))
        .max()
        .unwrap_or(0);
    if shared > target.shared_per_block {
        return None;
    }
    let mut m = module.clone();
    m.add_function(func);
    let mut sim = GpuSim::new(target.clone());
    lud.run(&mut sim, &m).ok()?;
    Some(sim.kernel_seconds(&name))
}

/// lud main-kernel speedups over identity on the A100 model, one row per
/// cell of two factor axes (row-major); `config` maps a cell's factors to
/// a configuration, and the speedup is `null` where none is legal.
fn lud_grid(
    workload: Workload,
    (row_key, rows): (&'static str, &[i64]),
    (col_key, cols): (&'static str, &[i64]),
    config: impl Fn(i64, i64) -> Option<CoarsenConfig>,
) -> Vec<Row> {
    let target = targets::a100();
    let lud = lud(workload);
    let base = lud_config_seconds(lud.as_ref(), &target, CoarsenConfig::identity())
        .expect("identity runs");
    let mut out = Vec::new();
    for &r in rows {
        for &c in cols {
            let seconds =
                config(r, c).and_then(|cfg| lud_config_seconds(lud.as_ref(), &target, cfg));
            out.push(vec![
                (row_key, Cell::Int(r)),
                (col_key, Cell::Int(c)),
                ("speedup", Cell::MaybeNum(seconds.map(|s| base / s))),
            ]);
        }
    }
    out
}

/// Thread factors split over lud's 16 × 16 block.
fn thread_split(total: i64) -> Option<[i64; 3]> {
    respec::opt::split_total(total, &[Some(16), Some(16), Some(1)], true)
}

/// Fig. 14: lud speedup over total (block, thread) factors.
pub fn fig14_data(workload: Workload, blocks: &[i64], threads: &[i64]) -> Vec<Row> {
    lud_grid(
        workload,
        ("block_total", blocks),
        ("thread_total", threads),
        |b, t| {
            let block = respec::opt::split_total(b, &[None, None, Some(1)], false)?;
            Some(CoarsenConfig {
                block,
                thread: thread_split(t)?,
            })
        },
    )
}

/// Fig. 15: lud speedup, block coarsening in x only × thread totals.
pub fn fig15_data(workload: Workload, block_x: &[i64], threads: &[i64]) -> Vec<Row> {
    lud_grid(
        workload,
        ("block_x", block_x),
        ("thread_total", threads),
        |bx, t| {
            Some(CoarsenConfig {
                block: [bx, 1, 1],
                thread: thread_split(t)?,
            })
        },
    )
}

/// Table II: lud's main-kernel profile at the paper's three configurations
/// — (1,1), (4,1) block-only, (1,4) thread-only — on the A100 model.
pub fn table2_data(workload: Workload) -> Vec<Row> {
    let target = targets::a100();
    let lud = lud(workload);
    let name = lud.main_kernel();
    let configs = [
        ("(1, 1)", [1, 1, 1], [1, 1, 1]),
        ("(4, 1)", [4, 1, 1], [1, 1, 1]),
        ("(1, 4)", [1, 1, 1], [2, 2, 1]),
    ];
    let mut rows = Vec::new();
    for (label, block, thread) in configs {
        let module = compiled_module(lud.as_ref(), Pipeline::PolygeistNoOpt);
        let mut func = module.function(name).expect("main kernel").clone();
        respec::opt::coarsen_function(&mut func, CoarsenConfig { block, thread })
            .expect("legal config");
        optimize(&mut func);
        let mut m = module.clone();
        m.add_function(func);
        let mut sim = GpuSim::new(target.clone());
        lud.run(&mut sim, &m).expect("runs");
        // Counters and utilization are scoped to the main kernel, like the
        // paper's Nsight profile.
        let runtime = sim.kernel_seconds(name);
        let stats = sim.kernel_stats(name);
        let lsu_req = stats.global_load_requests
            + stats.global_store_requests
            + stats.shared_read_requests
            + stats.shared_write_requests
            + stats.shared_conflict_extra;
        let cycles = (runtime * target.clock_hz).max(1.0);
        let lsu_util = (lsu_req as f64
            / (target.lsu_per_sm_per_cycle * target.sm_count as f64 * cycles))
            .min(1.0);
        let fma = stats.issues_of(respec::sim::InstClass::Fp32)
            + stats.issues_of(respec::sim::InstClass::Fp64);
        let fma_util = (fma as f64 * target.warp_size as f64
            / (target.fp32_per_sm_cycle() * target.sm_count as f64 * cycles))
            .min(1.0);
        rows.push(vec![
            ("config", Cell::Str(label.to_string())),
            ("runtime_s", Cell::Num(runtime)),
            ("lsu_util", Cell::Num(lsu_util)),
            ("fma_util", Cell::Num(fma_util)),
            ("l2_l1_read_bytes", Cell::Count(stats.l2_to_l1_read_bytes())),
            (
                "l1_l2_write_bytes",
                Cell::Count(stats.l1_to_l2_write_bytes()),
            ),
            ("l1_sm_read_req", Cell::Count(stats.global_load_requests)),
            ("sm_l1_write_req", Cell::Count(stats.global_store_requests)),
            ("shmem_read_req", Cell::Count(stats.shared_read_requests)),
            ("shmem_write_req", Cell::Count(stats.shared_write_requests)),
        ]);
    }
    rows
}

/// Fig. 16's sweep: the TDO totals ladder.
pub const FIG16_TOTALS: [i64; 4] = [1, 2, 4, 8];
/// Fig. 16's sweep: the paper's four GPUs.
pub const FIG16_TARGETS: [fn() -> TargetDesc; 4] = [
    targets::a4000,
    targets::a100,
    targets::rx6800,
    targets::mi210,
];

/// Fig. 16: every app's composite seconds under clang (hipify+clang on
/// AMD), P-G and P-G opt on each of `run_targets`, targets outermost.
pub fn fig16_data(
    workload: Workload,
    run_targets: &[TargetDesc],
    totals: &[i64],
    options: &TuneOptions,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for target in run_targets {
        for app in all_apps_sized(workload) {
            let composite =
                |pipeline| composite_seconds(app.as_ref(), target, pipeline, totals, options);
            let (clang, pg, pg_opt) = (
                composite(Pipeline::Clang),
                composite(Pipeline::PolygeistNoOpt),
                composite(Pipeline::PolygeistOpt),
            );
            rows.push(vec![
                ("app", Cell::Str(app.name().to_string())),
                ("target", Cell::Str(target.name.to_string())),
                ("clang_s", Cell::Num(clang)),
                ("pg_s", Cell::Num(pg)),
                ("pg_opt_s", Cell::Num(pg_opt)),
                ("speedup_pg", Cell::Num(clang / pg)),
                ("speedup_pg_opt", Cell::Num(clang / pg_opt)),
            ]);
        }
    }
    rows
}

/// Fig. 17 as a view of Fig. 16's rows: A4000 (clang) vs A4000 (P-G opt)
/// vs RX6800 (P-G opt), for every app Fig. 16 measured on both GPUs.
pub fn fig17_view(fig16: &[Row]) -> Vec<Row> {
    use report::{label, value};
    let (a4000, rx6800) = (targets::a4000().name, targets::rx6800().name);
    let rows_of = |target| fig16.iter().filter(move |r| label(r, "target") == target);
    rows_of(a4000)
        .filter_map(|a| {
            let app = label(a, "app");
            let rx = rows_of(rx6800).find(|r| label(r, "app") == app)?;
            Some(fig17_row(
                app,
                [
                    value(a, "clang_s"),
                    value(a, "pg_opt_s"),
                    value(rx, "pg_opt_s"),
                ],
            ))
        })
        .collect()
}

/// Fig. 17 without Fig. 16's rows: the three composites per app it reads,
/// at Fig. 16's sweep — equal to [`fig17_view`] of [`fig16_data`] on the
/// A4000 and the RX6800.
pub fn fig17_data(workload: Workload, totals: &[i64], options: &TuneOptions) -> Vec<Row> {
    let (a4000, rx6800) = (targets::a4000(), targets::rx6800());
    all_apps_sized(workload)
        .iter()
        .map(|app| {
            let composite = |target, pipeline| {
                composite_seconds(app.as_ref(), target, pipeline, totals, options)
            };
            fig17_row(
                app.name(),
                [
                    composite(&a4000, Pipeline::Clang),
                    composite(&a4000, Pipeline::PolygeistOpt),
                    composite(&rx6800, Pipeline::PolygeistOpt),
                ],
            )
        })
        .collect()
}

/// One Fig. 17 row from A4000 clang, A4000 P-G opt and RX6800 P-G opt
/// composite seconds.
fn fig17_row(app: &str, [base, pg_a4000, pg_rx]: [f64; 3]) -> Row {
    vec![
        ("app", Cell::Str(app.to_string())),
        ("a4000_clang_s", Cell::Num(base)),
        ("a4000_pg_s", Cell::Num(pg_a4000)),
        ("rx6800_pg_s", Cell::Num(pg_rx)),
        ("speedup_a4000_pg", Cell::Num(base / pg_a4000)),
        ("speedup_rx6800_pg", Cell::Num(base / pg_rx)),
    ]
}

/// The CPU retargeting sweep's totals ladder.
pub const CPU_TOTALS: [i64; 3] = [1, 2, 4];

/// Targets of the CPU retargeting sweep: one GPU for contrast, then the
/// simulated CPUs — so winner divergence is visible in one table.
pub const CPU_TARGETS: [&str; 3] = ["a100", "cpu-desktop8", "cpu-server64"];

/// The CPU retargeting sweep (`BENCH_cpu.json`): every app's main kernel
/// tuned on each sweep target through the unchanged entry path (serial
/// engine, so rows are deterministic), one row per app × target with the
/// winner. For CPU targets the engine lowers each coarsened candidate to
/// the tiled multicore form before hashing and measuring, so the searched
/// space is the per-core tile ladder.
pub fn cpu_tune_data(workload: Workload, totals: &[i64]) -> Vec<Row> {
    let options = TuneOptions::serial();
    let mut rows = Vec::new();
    for app in all_apps_sized(workload) {
        for name in CPU_TARGETS {
            let target = targets::by_name(name).expect("sweep target registered");
            let (_, result) = tuned_module_with(
                app.as_ref(),
                target.as_ref(),
                Strategy::Combined,
                totals,
                &options,
            );
            let result = result.expect("tune produces a winner");
            let measured = result.candidates.iter().filter(|c| c.seconds.is_some());
            rows.push(vec![
                ("app", Cell::Str(app.name().to_string())),
                ("target", Cell::Str(name.to_string())),
                ("kind", Cell::Str(target.kind().tag().to_string())),
                ("winner", Cell::Str(result.best_config.to_string())),
                ("best_s", Cell::Num(result.best_seconds)),
                ("candidates", Cell::Count(result.candidates.len() as u64)),
                ("measured", Cell::Count(measured.count() as u64)),
            ]);
        }
    }
    rows
}

/// The fat-binary experiment's totals ladder.
pub const FATBIN_TOTALS: [i64; 3] = [1, 2, 4];
/// The fat-binary experiment's slowdown budgets.
pub const FATBIN_EPSILONS: [f64; 3] = [0.01, 0.05, 0.10];

/// The six registry targets (4 GPUs + 2 CPUs) the fat-binary experiments
/// mine over, in registry order.
pub fn fatbin_targets() -> Vec<Arc<dyn TargetModel>> {
    targets::TARGET_NAMES
        .iter()
        .map(|name| targets::by_name(name).expect("registry target"))
        .collect()
}

/// [`cold_tune_app`], returning the search it ran.
fn cold_tune(
    app: &dyn App,
    fat_targets: &[Arc<dyn TargetModel>],
    totals: &[i64],
    cache: &Arc<TuningCache>,
    options: &TuneOptions,
) -> Result<KernelSearch, respec::Error> {
    let search = KernelSearch::new(app, Strategy::Combined, totals);
    let cached = options.clone().cache(cache.clone());
    for target in fat_targets {
        search.tune(app, target.as_ref(), &cached)?;
    }
    Ok(search)
}

/// Cold-tunes `app`'s main kernel on every target into `cache` through the
/// normal persistent-cache path. Idempotent: a re-run replays each stored
/// winner without measuring. This is the store-population step a fat-binary
/// mine requires.
///
/// # Errors
///
/// Propagates the first failed search.
pub fn cold_tune_app(
    app: &dyn App,
    fat_targets: &[Arc<dyn TargetModel>],
    totals: &[i64],
    cache: &Arc<TuningCache>,
    options: &TuneOptions,
) -> Result<(), respec::Error> {
    cold_tune(app, fat_targets, totals, cache, options).map(drop)
}

/// Mines the fat binary for `app`'s main kernel over `fat_targets` at
/// `epsilon`, cold-tuning every target into `cache` first (see
/// [`cold_tune_app`]).
///
/// # Errors
///
/// Propagates tuning and mining failures.
pub fn fatbin_for_app(
    app: &dyn App,
    fat_targets: &[Arc<dyn TargetModel>],
    totals: &[i64],
    cache: &Arc<TuningCache>,
    epsilon: f64,
    options: &TuneOptions,
) -> Result<respec::FatCompiled, respec::Error> {
    let search = cold_tune(app, fat_targets, totals, cache, options)?;
    respec::mine_fatbin(
        &search.func,
        fat_targets,
        cache,
        epsilon,
        options,
        |t| {
            // The miner hands back one of `fat_targets`; borrow that one so
            // the runner may outlive the call.
            let target = fat_targets
                .iter()
                .find(|f| f.fingerprint() == t.fingerprint())
                .expect("mined target is one of fat_targets");
            app_runner(app, &search.module, target.as_ref(), &search.kernel)
        },
        &Trace::disabled(),
    )
}

/// The fat-binary coverage experiment (`BENCH_fatbin.json`): every app ×
/// every ε mined over the six targets, dispatch outcomes resolved through
/// [`respec::FatCompiled::dispatch`]. Returns the coverage rows (one per
/// app × ε) and the dispatch rows (one per app × ε × target). Tunes into a
/// persistent cache in `dir` (created if missing, reused if warm), or into
/// a throwaway directory when `dir` is `None`.
pub fn fatbin_data(
    dir: Option<&Path>,
    workload: Workload,
    totals: &[i64],
    epsilons: &[f64],
    options: &TuneOptions,
) -> (Vec<Row>, Vec<Row>) {
    let scratch = std::env::temp_dir().join(format!("respec-fatbin-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let cache = TuningCache::open(dir.unwrap_or(&scratch)).expect("fatbin cache dir");
    let (cache, fat_targets) = (Arc::new(cache), fatbin_targets());
    let (mut coverage, mut dispatch) = (Vec::new(), Vec::new());
    for app in respec_rodinia::all_apps_with_gemm(workload) {
        for &epsilon in epsilons {
            let fat = fatbin_for_app(app.as_ref(), &fat_targets, totals, &cache, epsilon, options)
                .unwrap_or_else(|e| panic!("{}: fat binary fails to mine: {e}", app.name()));
            let mut max_slowdown = 1.0f64;
            for (model, name) in fat_targets.iter().zip(targets::TARGET_NAMES) {
                let d = fat
                    .dispatch(model.as_ref())
                    .unwrap_or_else(|e| panic!("{name}: dispatch fails: {e}"));
                let (tuned, served) = (d.via.tuned_seconds, d.via.dispatch_seconds);
                let slowdown = served / tuned.max(1e-300);
                max_slowdown = max_slowdown.max(slowdown);
                dispatch.push(vec![
                    ("app", Cell::Str(app.name().to_string())),
                    ("epsilon", Cell::Num(epsilon)),
                    ("target", Cell::Str(name.to_string())),
                    ("kind", Cell::Str(model.kind().tag().to_string())),
                    ("variant", Cell::Count(d.variant as u64)),
                    ("config", Cell::Str(d.config.to_string())),
                    ("exact", Cell::Count(u64::from(d.exact))),
                    ("tuned_s", Cell::Num(tuned)),
                    ("dispatch_s", Cell::Num(served)),
                    ("slowdown", Cell::Num(slowdown)),
                ]);
            }
            // "Compressed": fewer variants than targets, the
            // multi-versioning payoff ("a few fit most").
            let (targets, variants) = (fat.targets.len(), fat.variant_count());
            coverage.push(vec![
                ("app", Cell::Str(app.name().to_string())),
                ("epsilon", Cell::Num(epsilon)),
                ("targets", Cell::Count(targets as u64)),
                ("variants", Cell::Count(variants as u64)),
                ("max_slowdown", Cell::Num(max_slowdown)),
                ("compressed", Cell::Count(u64::from(variants < targets))),
            ]);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    (coverage, dispatch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn pipelines_have_labels() {
        assert_eq!(Pipeline::Clang.label(), "clang");
        assert_eq!(Pipeline::PolygeistOpt.label(), "P-G opt");
    }

    #[test]
    fn lud_identity_config_measures() {
        let apps = all_apps_sized(Workload::Small);
        let lud = apps.iter().find(|a| a.name() == "lud").expect("registered");
        let t = targets::a100();
        let s = lud_config_seconds(lud.as_ref(), &t, respec::CoarsenConfig::identity());
        assert!(s.expect("runs") > 0.0);
    }

    #[test]
    fn strategy_best_never_exceeds_identity() {
        let apps = all_apps_sized(Workload::Small);
        let pf = apps
            .iter()
            .find(|a| a.name() == "pathfinder")
            .expect("registered");
        let t = targets::a100();
        let (identity, best) = strategy_best(
            pf.as_ref(),
            &t,
            Strategy::Combined,
            &[1, 2],
            &TuneOptions::auto(),
        );
        assert!(best <= identity);
        assert!(best.is_finite() && identity.is_finite());
    }

    fn assert_json_lines(lines: &str, figure: &str) {
        assert!(!lines.is_empty(), "{figure}: no output");
        for line in lines.lines() {
            respec::trace::json::validate(line)
                .unwrap_or_else(|e| panic!("{figure}: invalid JSON line {line:?}: {e}"));
            assert!(
                line.starts_with(&format!("{{\"figure\":\"{figure}\"")),
                "{figure}: missing discriminator in {line:?}"
            );
        }
    }

    #[test]
    fn json_lines_are_valid_for_every_experiment() {
        let table = |figure, rows| report::Table {
            figure,
            title: figure,
            rows,
        };
        assert_json_lines(&table("table1", table1_rows()).json_lines(), "table1");

        let rows = fig13_data(Workload::Small, &[1, 2], &TuneOptions::auto());
        let count = rows.len();
        let lines = table("fig13", rows).json_lines();
        assert_json_lines(&lines, "fig13");
        assert_eq!(lines.lines().count(), count);

        let blocks = [1i64, 2];
        let threads = [1i64, 2];
        let lines = table("fig14", fig14_data(Workload::Small, &blocks, &threads)).json_lines();
        assert_json_lines(&lines, "fig14");
        assert_eq!(lines.lines().count(), blocks.len() * threads.len());

        assert_json_lines(
            &table("table2", table2_data(Workload::Small)).json_lines(),
            "table2",
        );
    }

    #[test]
    fn tuned_module_is_worker_count_invariant() {
        let apps = all_apps_sized(Workload::Small);
        let pf = apps
            .iter()
            .find(|a| a.name() == "pathfinder")
            .expect("registered");
        let t = targets::a100();
        let (serial, sr) = tuned_module_with(
            pf.as_ref(),
            &t,
            Strategy::Combined,
            &[1, 2],
            &TuneOptions::serial(),
        );
        let (parallel, pr) = tuned_module_with(
            pf.as_ref(),
            &t,
            Strategy::Combined,
            &[1, 2],
            &TuneOptions::with_parallelism(3),
        );
        let name = pf.main_kernel();
        assert_eq!(
            serial.function(name).unwrap().to_string(),
            parallel.function(name).unwrap().to_string()
        );
        let (sr, pr) = (sr.expect("tunes"), pr.expect("tunes"));
        assert_eq!(sr.best_config, pr.best_config);
        assert_eq!(sr.best_seconds.to_bits(), pr.best_seconds.to_bits());
    }
}
