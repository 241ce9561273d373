//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§VII) on the simulated targets.
//!
//! Each `figNN`/`tableN` function prints the same rows/series the paper
//! reports and returns the underlying numbers so tests and `EXPERIMENTS.md`
//! tooling can assert on the *shape* of the results (who wins, by roughly
//! what factor) without depending on absolute simulated times.

use respec::opt::optimize;
use respec::sim::SimError;
use respec::tune::PruneReason;
use respec::{
    candidate_configs, targets, tune_kernel_pooled, ExecMode, Function, GpuSim, Module, Strategy,
    TargetDesc, TargetModel, Trace, TuneOptions, TuneResult, TuningCache,
};
use respec_rodinia::{all_apps_sized, compile_app, App, Workload};

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

/// Compiles an app under a pipeline (without TDO — see [`tuned_module`]).
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
) -> f64 {
    let mut module = match pipeline {
        Pipeline::PolygeistOpt => tuned_module(app, target, Strategy::Combined, totals),
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

/// Autotunes the app's main kernel (kernel-scope objective) and returns the
/// module with the winner substituted. Falls back to the untuned module if
/// nothing survives pruning. Worker count comes from the environment
/// ([`TuneOptions::from_env`], `RESPEC_TUNE_PARALLELISM`).
pub fn tuned_module(
    app: &dyn App,
    target: &dyn TargetModel,
    strategy: Strategy,
    totals: &[i64],
) -> Module {
    let options = TuneOptions::from_env().expect("invalid RESPEC_* environment");
    tuned_module_with(app, target, strategy, totals, &options).0
}

/// [`tuned_module`] with an explicit worker configuration, also returning
/// the tuning result (when any candidate survived) for inspection.
pub fn tuned_module_with(
    app: &dyn App,
    target: &dyn TargetModel,
    strategy: Strategy,
    totals: &[i64],
    options: &TuneOptions,
) -> (Module, Option<TuneResult>) {
    let mut module = compiled_module(app, Pipeline::PolygeistNoOpt);
    let name = app.main_kernel().to_string();
    let func = module.function(&name).expect("main kernel").clone();
    let launches = respec::ir::kernel::analyze_function(&func).expect("kernel shape");
    let configs = candidate_configs(strategy, totals, &launches[0].block_dims);
    let result = tune_kernel_pooled(
        &func,
        target,
        &configs,
        options,
        || app_runner(app, &module, target, &name),
        &Trace::disabled(),
    )
    .ok();
    if let Some(r) = &result {
        // Surface candidates lost to a failed compile or run without
        // failing the harness: the winner is the best *surviving* one.
        for c in &r.candidates {
            if let Some(reason @ (PruneReason::CompileFailed(_) | PruneReason::RunFailed(_))) =
                &c.pruned
            {
                eprintln!("tuned_module[{}]: {} lost: {reason}", app.name(), c.config);
            }
        }
        module.add_function(r.best.clone());
    }
    (module, result)
}

/// Best (minimum) main-kernel time over a strategy's candidate set, plus
/// the identity time — the Fig. 13 measurement for one app. Candidates are
/// evaluated on the parallel tuning engine ([`TuneOptions::from_env`]).
pub fn strategy_best(
    app: &dyn App,
    target: &TargetDesc,
    strategy: Strategy,
    totals: &[i64],
) -> (f64, f64) {
    let module = compiled_module(app, Pipeline::PolygeistNoOpt);
    let name = app.main_kernel().to_string();
    let func = module.function(&name).expect("main kernel").clone();
    let launches = respec::ir::kernel::analyze_function(&func).expect("kernel shape");
    let configs = candidate_configs(strategy, totals, &launches[0].block_dims);
    let mut identity = f64::INFINITY;
    let mut best = f64::INFINITY;
    let _ = tune_kernel_pooled(
        &func,
        target,
        &configs,
        &TuneOptions::from_env().expect("invalid RESPEC_* environment"),
        || app_runner(app, &module, target, &name),
        &Trace::disabled(),
    )
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

/// Interpreter throughput on one app: warp-level instruction issues
/// retired per wall-clock second under scalar vs warp-vectorized
/// execution (the `interp_throughput` microbenchmark's unit of
/// measurement). Both modes execute the identical instruction stream —
/// the counters are part of the scalar↔vectorized equivalence contract —
/// so the issue count is reported once.
#[derive(Clone, Debug)]
pub struct InterpThroughputRow {
    /// Application name.
    pub app: String,
    /// Warp-level instruction issues of one full app run, summed over
    /// every launch (identical across execution modes).
    pub total_issues: u64,
    /// Host wall-clock seconds of one full app run, scalar interpreter.
    pub scalar_seconds: f64,
    /// Host wall-clock seconds of one full app run, warp-vectorized
    /// interpreter.
    pub warp_seconds: f64,
}

impl InterpThroughputRow {
    /// Warp-level issues per host second, scalar interpreter.
    pub fn scalar_ops_per_sec(&self) -> f64 {
        self.total_issues as f64 / self.scalar_seconds.max(1e-12)
    }

    /// Warp-level issues per host second, warp-vectorized interpreter.
    pub fn warp_ops_per_sec(&self) -> f64 {
        self.total_issues as f64 / self.warp_seconds.max(1e-12)
    }

    /// Warp-vectorized-over-scalar wall-clock speedup.
    pub fn speedup(&self) -> f64 {
        self.scalar_seconds / self.warp_seconds.max(1e-12)
    }
}

/// Times `repeats` full app runs per execution mode per app and reports
/// the mean seconds per run alongside the issue count. The first run of
/// each mode is an untimed warm-up so one-time costs (decode, lazy
/// allocations, page faults) don't pollute the smallest workloads.
pub fn interp_throughput_data(workload: Workload, repeats: usize) -> Vec<InterpThroughputRow> {
    let target = targets::a100();
    let repeats = repeats.max(1);
    let mut rows = Vec::new();
    for app in all_apps_sized(workload) {
        let module = compiled_module(app.as_ref(), Pipeline::PolygeistNoOpt);
        let timed_run = |mode: ExecMode| -> (f64, u64) {
            let mut issues = 0u64;
            let mut seconds = 0.0;
            for rep in 0..=repeats {
                let mut sim = GpuSim::new(target.clone());
                sim.set_exec_mode(mode);
                let started = std::time::Instant::now();
                app.run(&mut sim, &module).expect("app runs");
                if rep > 0 {
                    seconds += started.elapsed().as_secs_f64();
                }
                issues = sim.launch_log.iter().map(|t| t.stats.total_issues()).sum();
            }
            (seconds / repeats as f64, issues)
        };
        let (scalar_seconds, scalar_issues) = timed_run(ExecMode::Scalar);
        let (warp_seconds, warp_issues) = timed_run(ExecMode::WarpVectorized);
        assert_eq!(
            scalar_issues,
            warp_issues,
            "issue counters diverged between execution modes on {}",
            app.name()
        );
        rows.push(InterpThroughputRow {
            app: app.name().to_string(),
            total_issues: scalar_issues,
            scalar_seconds,
            warp_seconds,
        });
    }
    rows
}

/// Geometric mean (1.0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// Prints Table I: the four evaluation targets and their specifications.
pub fn table1() {
    println!("== Table I: GPUs used for evaluation ==");
    println!(
        "{:<16} {:>8} {:>6} {:>12} {:>12} {:>12} {:>10} {:>10} {:>12}",
        "GPU", "vendor", "SMs", "f64 FLOPs", "f32 FLOPs", "mem BW", "global", "L2", "L1/SM"
    );
    for t in targets::all_targets() {
        println!(
            "{:<16} {:>8} {:>6} {:>10.2}T {:>10.2}T {:>9.0}GB/s {:>8}GB {:>8}MB {:>10}KB",
            t.name,
            format!("{:?}", t.vendor),
            t.sm_count,
            t.fp64_flops / 1e12,
            t.fp32_flops / 1e12,
            t.dram_bw / 1e9,
            t.global_bytes >> 30,
            t.l2_bytes >> 20,
            t.l1_bytes >> 10,
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// Fig. 13: combined vs thread-only (and block-only) coarsening
// ---------------------------------------------------------------------------

/// One row of the Fig. 13 data.
#[derive(Clone, Debug)]
pub struct Fig13Row {
    /// Application name.
    pub app: String,
    /// Speedup of the best thread-only configuration over identity.
    pub thread_only: f64,
    /// Speedup of the best block-only configuration over identity.
    pub block_only: f64,
    /// Speedup of the best combined configuration over identity.
    pub combined: f64,
}

/// Computes the Fig. 13 data without printing: per-kernel best speedups per
/// strategy on the A100 model, one row per app.
pub fn fig13_data(workload: Workload, totals: &[i64]) -> Vec<Fig13Row> {
    let target = targets::a100();
    let mut rows = Vec::new();
    for app in all_apps_sized(workload) {
        let (id_t, best_t) = strategy_best(app.as_ref(), &target, Strategy::ThreadOnly, totals);
        let (id_b, best_b) = strategy_best(app.as_ref(), &target, Strategy::BlockOnly, totals);
        let (id_c, best_c) = strategy_best(app.as_ref(), &target, Strategy::Combined, totals);
        rows.push(Fig13Row {
            app: app.name().to_string(),
            thread_only: id_t / best_t,
            block_only: id_b / best_b,
            combined: id_c / best_c,
        });
    }
    rows
}

/// Runs the Fig. 13 experiment and prints the table. Returns one row per
/// app (see [`fig13_data`] for the print-free variant).
pub fn fig13(workload: Workload, totals: &[i64]) -> Vec<Fig13Row> {
    let rows = fig13_data(workload, totals);
    println!("== Fig. 13: best kernel speedup per coarsening strategy (A100) ==");
    println!(
        "{:<16} {:>12} {:>12} {:>12}",
        "kernel", "thread-only", "block-only", "combined"
    );
    for row in &rows {
        println!(
            "{:<16} {:>11.3}x {:>11.3}x {:>11.3}x",
            row.app, row.thread_only, row.block_only, row.combined
        );
    }
    let g = |f: fn(&Fig13Row) -> f64| geomean(&rows.iter().map(f).collect::<Vec<_>>());
    println!(
        "{:<16} {:>11.3}x {:>11.3}x {:>11.3}x   (geomean; paper: 1.044 / 1.089 / 1.113)",
        "geomean",
        g(|r| r.thread_only),
        g(|r| r.block_only),
        g(|r| r.combined)
    );
    println!();
    rows
}

// ---------------------------------------------------------------------------
// Fig. 14 / Fig. 15: lud coarsening factor grids
// ---------------------------------------------------------------------------

/// Measures the main lud kernel's time under one coarsening configuration;
/// `None` means illegal or pruned (shared memory over budget).
pub fn lud_config_seconds(
    lud: &dyn App,
    target: &TargetDesc,
    config: respec::CoarsenConfig,
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

/// Evaluates a grid of cells into a matrix indexed `[row][col]`.
fn grid_data(
    rows_keys: &[i64],
    col_keys: &[i64],
    cell: impl Fn(i64, i64) -> Option<f64>,
) -> Vec<Vec<Option<f64>>> {
    rows_keys
        .iter()
        .map(|&r| col_keys.iter().map(|&c| cell(r, c)).collect())
        .collect()
}

fn print_grid(
    title: &str,
    note: &str,
    row_label: &str,
    rows_keys: &[i64],
    col_keys: &[i64],
    matrix: &[Vec<Option<f64>>],
) {
    println!("{title}");
    print!("{row_label:>8}");
    for &c in col_keys {
        print!("{c:>8}");
    }
    println!();
    for (&r, row) in rows_keys.iter().zip(matrix) {
        print!("{r:>8}");
        for v in row {
            match v {
                Some(s) => print!("{s:>8.3}"),
                None => print!("{:>8}", "--"),
            }
        }
        println!();
    }
    println!("{note}\n");
}

/// Computes the Fig. 14 data without printing: lud main-kernel speedup over
/// a grid of total (block, thread) factors relative to (1, 1).
pub fn fig14_data(
    workload: Workload,
    block_totals: &[i64],
    thread_totals: &[i64],
) -> Vec<Vec<Option<f64>>> {
    let target = targets::a100();
    let apps = all_apps_sized(workload);
    let lud = apps
        .iter()
        .find(|a| a.name() == "lud")
        .expect("lud registered");
    let base = lud_config_seconds(lud.as_ref(), &target, respec::CoarsenConfig::identity())
        .expect("identity runs");
    grid_data(block_totals, thread_totals, |b, t| {
        let bf = respec::opt::split_total(b, &[None, None, Some(1)], false)?;
        let tf = respec::opt::split_total(t, &[Some(16), Some(16), Some(1)], true)?;
        lud_config_seconds(
            lud.as_ref(),
            &target,
            respec::CoarsenConfig {
                block: bf,
                thread: tf,
            },
        )
        .map(|s| base / s)
    })
}

/// Runs the Fig. 14 experiment and prints the grid — higher is better.
/// Returns the speedup matrix indexed `[block][thread]` (see [`fig14_data`]).
pub fn fig14(
    workload: Workload,
    block_totals: &[i64],
    thread_totals: &[i64],
) -> Vec<Vec<Option<f64>>> {
    let matrix = fig14_data(workload, block_totals, thread_totals);
    print_grid(
        "== Fig. 14: lud main kernel speedup over (block, thread) total factors (A100) ==",
        "(-- = illegal or pruned; the paper peaks at block 7 x thread 2 and finds thread >= 16 breaks full warps)",
        "blk\\thr",
        block_totals,
        thread_totals,
        &matrix,
    );
    matrix
}

/// Computes the Fig. 15 data without printing: block coarsening restricted
/// to the x dimension × thread totals.
pub fn fig15_data(
    workload: Workload,
    block_x: &[i64],
    thread_totals: &[i64],
) -> Vec<Vec<Option<f64>>> {
    let target = targets::a100();
    let apps = all_apps_sized(workload);
    let lud = apps
        .iter()
        .find(|a| a.name() == "lud")
        .expect("lud registered");
    let base = lud_config_seconds(lud.as_ref(), &target, respec::CoarsenConfig::identity())
        .expect("identity runs");
    grid_data(block_x, thread_totals, |bx, t| {
        let tf = respec::opt::split_total(t, &[Some(16), Some(16), Some(1)], true)?;
        lud_config_seconds(
            lud.as_ref(),
            &target,
            respec::CoarsenConfig {
                block: [bx, 1, 1],
                thread: tf,
            },
        )
        .map(|s| base / s)
    })
}

/// Runs the Fig. 15 experiment and prints the grid. Returns the speedup
/// matrix `[block_x][thread]` (see [`fig15_data`]).
pub fn fig15(workload: Workload, block_x: &[i64], thread_totals: &[i64]) -> Vec<Vec<Option<f64>>> {
    let matrix = fig15_data(workload, block_x, thread_totals);
    print_grid(
        "== Fig. 15: lud speedup, block coarsening in x only x thread totals (A100) ==",
        "(x-direction coarsening preserves locality better than y; the paper peaks at 1.94x for bx 2 x thread 8)",
        "bx\\thr",
        block_x,
        thread_totals,
        &matrix,
    );
    matrix
}

// ---------------------------------------------------------------------------
// Table II: lud profiling counters
// ---------------------------------------------------------------------------

/// Table II counters for one configuration.
#[derive(Clone, Debug)]
pub struct ProfileRow {
    /// `(block_total, thread_total)` label.
    pub label: String,
    /// Main-kernel runtime in seconds.
    pub runtime: f64,
    /// Load/store unit utilization (0–1).
    pub lsu_util: f64,
    /// FMA pipe utilization (0–1).
    pub fma_util: f64,
    /// L2→L1 read bytes.
    pub l2_l1_read: u64,
    /// L1→L2 write bytes.
    pub l1_l2_write: u64,
    /// L1→SM read requests.
    pub l1_sm_read_req: u64,
    /// SM→L1 write requests.
    pub sm_l1_write_req: u64,
    /// Shared→SM read requests.
    pub shmem_read_req: u64,
    /// SM→Shared write requests.
    pub shmem_write_req: u64,
}

/// Computes the Table II data without printing: profiles lud at the
/// paper's three configurations — (1,1), (4,1) block-only, (1,4)
/// thread-only — on the A100 model.
pub fn table2_data(workload: Workload) -> Vec<ProfileRow> {
    let target = targets::a100();
    let apps = all_apps_sized(workload);
    let lud = apps
        .iter()
        .find(|a| a.name() == "lud")
        .expect("lud registered");
    let configs = [
        ("(1, 1)", respec::CoarsenConfig::identity()),
        (
            "(4, 1)",
            respec::CoarsenConfig {
                block: [4, 1, 1],
                thread: [1, 1, 1],
            },
        ),
        (
            "(1, 4)",
            respec::CoarsenConfig {
                block: [1, 1, 1],
                thread: [2, 2, 1],
            },
        ),
    ];
    let mut rows = Vec::new();
    for (label, cfg) in configs {
        let module = compiled_module(lud.as_ref(), Pipeline::PolygeistNoOpt);
        let name = lud.main_kernel().to_string();
        let mut func = module.function(&name).expect("main kernel").clone();
        respec::opt::coarsen_function(&mut func, cfg).expect("legal config");
        optimize(&mut func);
        let mut m = module.clone();
        m.add_function(func);
        let mut sim = GpuSim::new(target.clone());
        lud.run(&mut sim, &m).expect("runs");
        // Counters and utilization are scoped to the main kernel, like the
        // paper's Nsight profile.
        let runtime = sim.kernel_seconds(&name);
        let stats = sim.kernel_stats(&name);
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
        rows.push(ProfileRow {
            label: label.to_string(),
            runtime,
            lsu_util,
            fma_util,
            l2_l1_read: stats.l2_to_l1_read_bytes(),
            l1_l2_write: stats.l1_to_l2_write_bytes(),
            l1_sm_read_req: stats.global_load_requests,
            sm_l1_write_req: stats.global_store_requests,
            shmem_read_req: stats.shared_read_requests,
            shmem_write_req: stats.shared_write_requests,
        });
    }
    rows
}

/// Runs the Table II experiment and prints the table (see [`table2_data`]).
pub fn table2(workload: Workload) -> Vec<ProfileRow> {
    let rows = table2_data(workload);
    println!("== Table II: profiling data for lud (A100) ==");
    println!(
        "{:<24} {:>12} {:>12} {:>12}",
        "(block, thread) factors", rows[0].label, rows[1].label, rows[2].label
    );
    let fmt_b = |v: u64| format!("{:.2} MB", v as f64 / 1e6);
    let fmt_m = |v: u64| format!("{:.3} M", v as f64 / 1e6);
    let line = |name: &str, f: &dyn Fn(&ProfileRow) -> String| {
        println!(
            "{:<24} {:>12} {:>12} {:>12}",
            name,
            f(&rows[0]),
            f(&rows[1]),
            f(&rows[2])
        );
    };
    line("Runtime", &|r| format!("{:.3e} s", r.runtime));
    line("LSU utilization", &|r| {
        format!("{:.0}%", r.lsu_util * 100.0)
    });
    line("FMA utilization", &|r| {
        format!("{:.0}%", r.fma_util * 100.0)
    });
    line("L2->L1 Read", &|r| fmt_b(r.l2_l1_read));
    line("L1->L2 Write", &|r| fmt_b(r.l1_l2_write));
    line("L1->SM Read Req.", &|r| fmt_m(r.l1_sm_read_req));
    line("SM->L1 Write Req.", &|r| fmt_m(r.sm_l1_write_req));
    line("ShMem->SM Read Req.", &|r| fmt_m(r.shmem_read_req));
    line("SM->ShMem Write Req.", &|r| fmt_m(r.shmem_write_req));
    println!();
    rows
}

// ---------------------------------------------------------------------------
// Fig. 16 / Fig. 17: composite Rodinia comparisons
// ---------------------------------------------------------------------------

/// One app's composite times under the three pipelines on one target.
#[derive(Clone, Debug)]
pub struct Fig16Row {
    /// Application name.
    pub app: String,
    /// Target name.
    pub target: String,
    /// clang / hipify+clang baseline composite seconds.
    pub clang: f64,
    /// Polygeist-GPU without coarsening.
    pub pg: f64,
    /// Polygeist-GPU with coarsening + TDO.
    pub pg_opt: f64,
}

/// Computes the Fig. 16 data without printing, on the given targets.
pub fn fig16_data(workload: Workload, run_targets: &[TargetDesc], totals: &[i64]) -> Vec<Fig16Row> {
    let mut rows = Vec::new();
    for target in run_targets {
        for app in all_apps_sized(workload) {
            let clang = composite_seconds(app.as_ref(), target, Pipeline::Clang, totals);
            let pg = composite_seconds(app.as_ref(), target, Pipeline::PolygeistNoOpt, totals);
            let pg_opt = composite_seconds(app.as_ref(), target, Pipeline::PolygeistOpt, totals);
            rows.push(Fig16Row {
                app: app.name().to_string(),
                target: target.name.to_string(),
                clang,
                pg,
                pg_opt,
            });
        }
    }
    rows
}

/// Runs the Fig. 16 experiment and prints one table per target (see
/// [`fig16_data`]).
pub fn fig16(workload: Workload, run_targets: &[TargetDesc], totals: &[i64]) -> Vec<Fig16Row> {
    let rows = fig16_data(workload, run_targets, totals);
    for target in run_targets {
        println!(
            "== Fig. 16: Rodinia composite speedup over the {} baseline on {} ==",
            if matches!(target.vendor, respec::sim::Vendor::Amd) {
                "hipify+clang"
            } else {
                "clang"
            },
            target.name
        );
        println!(
            "{:<16} {:>12} {:>12} {:>12} {:>12}",
            "app", "clang(s)", "P-G", "P-G opt", "opt vs P-G"
        );
        let of_target: Vec<&Fig16Row> = rows.iter().filter(|r| r.target == target.name).collect();
        for row in &of_target {
            println!(
                "{:<16} {:>12.3e} {:>11.3}x {:>11.3}x {:>11.3}x",
                row.app,
                row.clang,
                row.clang / row.pg,
                row.clang / row.pg_opt,
                row.pg / row.pg_opt
            );
        }
        println!(
            "{:<16} {:>12} {:>11.3}x {:>11.3}x   (geomean; paper: 1.17-1.27 NVIDIA, 1.16-1.17 AMD)",
            "geomean",
            "",
            geomean(&of_target.iter().map(|r| r.clang / r.pg).collect::<Vec<_>>()),
            geomean(
                &of_target
                    .iter()
                    .map(|r| r.clang / r.pg_opt)
                    .collect::<Vec<_>>()
            )
        );
        println!();
    }
    rows
}

/// Computes the Fig. 17 data without printing: A4000 (clang) vs A4000
/// (P-G opt) vs RX6800 (P-G opt) per app. Returns
/// `(app, a4000_clang, a4000_pg, rx6800_pg)`.
pub fn fig17_data(workload: Workload, totals: &[i64]) -> Vec<(String, f64, f64, f64)> {
    let a4000 = targets::a4000();
    let rx6800 = targets::rx6800();
    let mut rows = Vec::new();
    for app in all_apps_sized(workload) {
        let base = composite_seconds(app.as_ref(), &a4000, Pipeline::Clang, totals);
        let pg_a4000 = composite_seconds(app.as_ref(), &a4000, Pipeline::PolygeistOpt, totals);
        let pg_rx = composite_seconds(app.as_ref(), &rx6800, Pipeline::PolygeistOpt, totals);
        rows.push((app.name().to_string(), base, pg_a4000, pg_rx));
    }
    rows
}

/// Runs the Fig. 17 experiment and prints the table (see [`fig17_data`]).
pub fn fig17(workload: Workload, totals: &[i64]) -> Vec<(String, f64, f64, f64)> {
    let rows = fig17_data(workload, totals);
    println!("== Fig. 17: cross-vendor comparison (baseline: clang on A4000) ==");
    println!(
        "{:<16} {:>14} {:>14} {:>14}",
        "app", "A4000 clang(s)", "A4000 P-G", "RX6800 P-G"
    );
    for (app, base, pg_a4000, pg_rx) in &rows {
        println!(
            "{:<16} {:>14.3e} {:>13.3}x {:>13.3}x",
            app,
            base,
            base / pg_a4000,
            base / pg_rx
        );
    }
    println!(
        "{:<16} {:>14} {:>13.3}x {:>13.3}x   (geomean; paper: RX6800 (P-G) 1.25x over A4000 (clang))",
        "geomean",
        "",
        geomean(&rows.iter().map(|(_, b, a, _)| b / a).collect::<Vec<_>>()),
        geomean(&rows.iter().map(|(_, b, _, r)| b / r).collect::<Vec<_>>())
    );
    println!();
    rows
}

// ---------------------------------------------------------------------------
// CPU retargeting sweep (`BENCH_cpu.json`)
// ---------------------------------------------------------------------------

/// One row of the CPU retargeting sweep: an app autotuned for one target
/// (GPU or CPU) through the unchanged tuning entry path.
#[derive(Clone, Debug)]
pub struct CpuTuneRow {
    /// Application name.
    pub app: String,
    /// Protocol name of the target.
    pub target: String,
    /// Target kind tag (`"gpu"` / `"cpu"`).
    pub kind: String,
    /// Winning coarsening configuration (per-core tile shape on CPUs).
    pub winner: String,
    /// Main-kernel seconds of the winner.
    pub best_seconds: f64,
    /// Candidate configurations generated for the search.
    pub candidates: usize,
    /// Candidates that were actually measured (not pruned/deduplicated).
    pub measured: usize,
}

/// Targets of the CPU retargeting sweep: one GPU for contrast, then the
/// simulated CPUs — so winner divergence is visible in one table.
pub fn cpu_tune_target_names() -> Vec<&'static str> {
    vec!["a100", "cpu-desktop8", "cpu-server64"]
}

/// Tunes every app's main kernel on the sweep targets (serial engine, so
/// rows are deterministic) and reports the winner per app × target. For
/// CPU targets the engine lowers each coarsened candidate to the tiled
/// multicore form before hashing and measuring, so the searched space is
/// the per-core tile ladder.
pub fn cpu_tune_data(workload: Workload, totals: &[i64]) -> Vec<CpuTuneRow> {
    let options = TuneOptions::serial();
    let mut rows = Vec::new();
    for app in all_apps_sized(workload) {
        for name in cpu_tune_target_names() {
            let target = targets::by_name(name).expect("sweep target registered");
            let (_, result) = tuned_module_with(
                app.as_ref(),
                target.as_ref(),
                Strategy::Combined,
                totals,
                &options,
            );
            let result = result.expect("tune produces a winner");
            rows.push(CpuTuneRow {
                app: app.name().to_string(),
                target: name.to_string(),
                kind: target.kind().tag().to_string(),
                winner: result.best_config.to_string(),
                best_seconds: result.best_seconds,
                candidates: result.candidates.len(),
                measured: result
                    .candidates
                    .iter()
                    .filter(|c| c.seconds.is_some())
                    .count(),
            });
        }
    }
    rows
}

/// Prints the [`cpu_tune_data`] sweep as a table, flagging apps whose GPU
/// and CPU winners diverge.
pub fn cpu_tune(workload: Workload, totals: &[i64]) -> Vec<CpuTuneRow> {
    let rows = cpu_tune_data(workload, totals);
    println!("== CPU retargeting sweep: winner per app x target ==");
    println!(
        "{:<14} {:<14} {:>5} {:>28} {:>12} {:>6}/{:<6}",
        "app", "target", "kind", "winner", "time(us)", "meas", "cands"
    );
    for r in &rows {
        println!(
            "{:<14} {:<14} {:>5} {:>28} {:>12.3} {:>6}/{:<6}",
            r.app,
            r.target,
            r.kind,
            r.winner,
            r.best_seconds * 1e6,
            r.measured,
            r.candidates
        );
    }
    let diverging = rows
        .iter()
        .filter(|r| r.kind == "gpu")
        .filter(|g| {
            rows.iter()
                .any(|c| c.app == g.app && c.kind == "cpu" && c.winner != g.winner)
        })
        .count();
    println!("apps whose CPU winner differs from the GPU winner: {diverging}");
    rows
}

// ---------------------------------------------------------------------------
// Fat binaries (`BENCH_fatbin.json`)
// ---------------------------------------------------------------------------

/// The six registry targets (4 GPUs + 2 CPUs) the fat-binary experiments
/// mine over, in registry order.
pub fn fatbin_targets() -> Vec<std::sync::Arc<dyn TargetModel>> {
    targets::TARGET_NAMES
        .iter()
        .map(|name| targets::by_name(name).expect("registry target"))
        .collect()
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
    fat_targets: &[std::sync::Arc<dyn TargetModel>],
    totals: &[i64],
    cache: &std::sync::Arc<TuningCache>,
    options: &TuneOptions,
) -> Result<(), respec::Error> {
    let module = compiled_module(app, Pipeline::PolygeistNoOpt);
    let name = app.main_kernel().to_string();
    let func = module.function(&name).expect("main kernel").clone();
    let launches = respec::ir::kernel::analyze_function(&func).expect("kernel shape");
    let configs = candidate_configs(Strategy::Combined, totals, &launches[0].block_dims);
    let cached = options.clone().cache(cache.clone());
    for target in fat_targets {
        tune_kernel_pooled(
            &func,
            target.as_ref(),
            &configs,
            &cached,
            || app_runner(app, &module, target.as_ref(), &name),
            &Trace::disabled(),
        )?;
    }
    Ok(())
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
    fat_targets: &[std::sync::Arc<dyn TargetModel>],
    totals: &[i64],
    cache: &std::sync::Arc<TuningCache>,
    epsilon: f64,
    options: &TuneOptions,
) -> Result<respec::FatCompiled, respec::Error> {
    cold_tune_app(app, fat_targets, totals, cache, options)?;
    let module = compiled_module(app, Pipeline::PolygeistNoOpt);
    let name = app.main_kernel().to_string();
    let func = module.function(&name).expect("main kernel").clone();
    respec::mine_fatbin(
        &func,
        fat_targets,
        cache,
        epsilon,
        options,
        |t| {
            let t = t.clone();
            let module = module.clone();
            let name = name.clone();
            move |version: &Function, _regs: u32| -> Result<f64, SimError> {
                let mut m = module.clone();
                m.add_function(version.clone());
                let mut sim = GpuSim::for_model(t.as_ref());
                app.run(&mut sim, &m)?;
                Ok(filtered_kernel_seconds(&sim, &name))
            }
        },
        &Trace::disabled(),
    )
}

/// One dispatch-table row of the fat-binary experiment: where one target's
/// launch lands.
#[derive(Clone, Debug)]
pub struct FatbinDispatchRow {
    /// Protocol name of the dispatched target.
    pub target: String,
    /// Target kind tag (`"gpu"` / `"cpu"`).
    pub kind: String,
    /// Index of the variant that serves the target.
    pub variant: usize,
    /// The serving variant's coarsening configuration.
    pub config: String,
    /// `true` for an exact fingerprint hit (always, for mined targets).
    pub exact: bool,
    /// The target's tuned optimum over the mined pool.
    pub tuned_seconds: f64,
    /// The serving variant's time on the target.
    pub dispatch_seconds: f64,
}

/// One app × ε row of the fat-binary coverage experiment.
#[derive(Clone, Debug)]
pub struct FatbinRow {
    /// Application name.
    pub app: String,
    /// Slowdown budget the variant set guarantees.
    pub epsilon: f64,
    /// Targets mined over.
    pub targets: usize,
    /// Variants the minimal set carries (coverage curve y-axis).
    pub variants: usize,
    /// Per-target dispatch outcome, resolved through the runtime
    /// dispatcher.
    pub dispatch: Vec<FatbinDispatchRow>,
}

impl FatbinRow {
    /// Worst per-target slowdown of the selected set (≤ 1 + ε by
    /// construction).
    pub fn max_slowdown(&self) -> f64 {
        self.dispatch
            .iter()
            .map(|d| d.dispatch_seconds / d.tuned_seconds.max(1e-300))
            .fold(1.0, f64::max)
    }

    /// Whether the set is strictly smaller than the target count — the
    /// multi-versioning payoff ("a few fit most").
    pub fn compressed(&self) -> bool {
        self.variants < self.targets
    }
}

/// Runs the fat-binary coverage experiment against a persistent cache in
/// `dir` (created if missing, reused if warm): every app × every ε, one
/// [`FatbinRow`] each, dispatch outcomes resolved through
/// [`respec::FatCompiled::dispatch`]. Workers come from `options`.
pub fn fatbin_data_in(
    dir: &std::path::Path,
    workload: Workload,
    totals: &[i64],
    epsilons: &[f64],
    options: &TuneOptions,
) -> Vec<FatbinRow> {
    let fat_targets = fatbin_targets();
    let cache = std::sync::Arc::new(TuningCache::open(dir).expect("fatbin cache dir"));
    let mut rows = Vec::new();
    for app in respec_rodinia::all_apps_with_gemm(workload) {
        for &epsilon in epsilons {
            let fat = fatbin_for_app(app.as_ref(), &fat_targets, totals, &cache, epsilon, options)
                .unwrap_or_else(|e| panic!("{}: fat binary fails to mine: {e}", app.name()));
            let dispatch = fat_targets
                .iter()
                .zip(targets::TARGET_NAMES)
                .map(|(model, name)| {
                    let d = fat
                        .dispatch(model.as_ref())
                        .unwrap_or_else(|e| panic!("{name}: dispatch fails: {e}"));
                    FatbinDispatchRow {
                        target: name.to_string(),
                        kind: model.kind().tag().to_string(),
                        variant: d.variant,
                        config: d.config.to_string(),
                        exact: d.exact,
                        tuned_seconds: d.via.tuned_seconds,
                        dispatch_seconds: d.via.dispatch_seconds,
                    }
                })
                .collect();
            rows.push(FatbinRow {
                app: app.name().to_string(),
                epsilon,
                targets: fat.targets.len(),
                variants: fat.variant_count(),
                dispatch,
            });
        }
    }
    rows
}

/// [`fatbin_data_in`] against a fresh temporary cache directory (removed
/// afterwards).
pub fn fatbin_data(
    workload: Workload,
    totals: &[i64],
    epsilons: &[f64],
    options: &TuneOptions,
) -> Vec<FatbinRow> {
    let dir = std::env::temp_dir().join(format!("respec-fatbin-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rows = fatbin_data_in(&dir, workload, totals, epsilons, options);
    let _ = std::fs::remove_dir_all(&dir);
    rows
}

/// Prints the [`fatbin_data`] rows: the variant-count coverage curve per ε
/// and the dispatch table per app.
pub fn print_fatbin(rows: &[FatbinRow]) {
    println!("== Fat binaries: minimal variant set per app x slowdown budget ==");
    println!(
        "{:<14} {:>8} {:>8} {:>9} {:>13} {:>11}",
        "app", "epsilon", "targets", "variants", "max slowdown", "compressed"
    );
    for r in rows {
        println!(
            "{:<14} {:>7.0}% {:>8} {:>9} {:>12.4}x {:>11}",
            r.app,
            r.epsilon * 100.0,
            r.targets,
            r.variants,
            r.max_slowdown(),
            if r.compressed() { "yes" } else { "no" }
        );
    }
    let mut by_eps: Vec<f64> = rows.iter().map(|r| r.epsilon).collect();
    by_eps.sort_by(|a, b| a.partial_cmp(b).expect("finite epsilons"));
    by_eps.dedup();
    for eps in by_eps {
        let of_eps: Vec<&FatbinRow> = rows.iter().filter(|r| r.epsilon == eps).collect();
        let compressed = of_eps.iter().filter(|r| r.compressed()).count();
        let mean_variants =
            of_eps.iter().map(|r| r.variants).sum::<usize>() as f64 / of_eps.len().max(1) as f64;
        println!(
            "epsilon {:>4.0}%: mean variants {:.2}, {}/{} apps compressed below the target count",
            eps * 100.0,
            mean_variants,
            compressed,
            of_eps.len()
        );
    }
}

// ---------------------------------------------------------------------------
// Machine-readable output (`--json`)
// ---------------------------------------------------------------------------

/// JSON-lines renderers for every figure/table: one flat object per row,
/// newline-separated, built on `respec_trace`'s dependency-free writer.
/// Every object carries a `"figure"` discriminator so mixed streams stay
/// `jq`-friendly.
pub mod jsonout {
    use respec::trace::json::JsonObject;

    use super::{CpuTuneRow, FatbinRow, Fig13Row, Fig16Row, InterpThroughputRow, ProfileRow};

    /// Fat-binary coverage rows (`BENCH_fatbin.json`): the variant-count
    /// vs. coverage curve — one object per app × ε.
    pub fn fatbin_lines(rows: &[FatbinRow]) -> String {
        let mut out = String::new();
        for r in rows {
            out.push_str(
                &JsonObject::new()
                    .str("figure", "fatbin")
                    .str("app", &r.app)
                    .f64("epsilon", r.epsilon)
                    .u64("targets", r.targets as u64)
                    .u64("variants", r.variants as u64)
                    .f64("max_slowdown", r.max_slowdown())
                    .u64("compressed", u64::from(r.compressed()))
                    .finish(),
            );
            out.push('\n');
        }
        out
    }

    /// Fat-binary dispatch rows (`BENCH_fatbin.json`): the per-target
    /// dispatch-hit table — one object per app × ε × target.
    pub fn fatbin_dispatch_lines(rows: &[FatbinRow]) -> String {
        let mut out = String::new();
        for r in rows {
            for d in &r.dispatch {
                out.push_str(
                    &JsonObject::new()
                        .str("figure", "fatbin_dispatch")
                        .str("app", &r.app)
                        .f64("epsilon", r.epsilon)
                        .str("target", &d.target)
                        .str("kind", &d.kind)
                        .u64("variant", d.variant as u64)
                        .str("config", &d.config)
                        .u64("exact", u64::from(d.exact))
                        .f64("tuned_s", d.tuned_seconds)
                        .f64("dispatch_s", d.dispatch_seconds)
                        .f64("slowdown", d.dispatch_seconds / d.tuned_seconds.max(1e-300))
                        .finish(),
                );
                out.push('\n');
            }
        }
        out
    }

    /// CPU retargeting rows (`BENCH_cpu.json`): winner config and time per
    /// app × target, GPU and CPU side by side so divergence is greppable.
    pub fn cpu_tune_lines(rows: &[CpuTuneRow]) -> String {
        let mut out = String::new();
        for r in rows {
            out.push_str(
                &JsonObject::new()
                    .str("figure", "cpu_tune")
                    .str("app", &r.app)
                    .str("target", &r.target)
                    .str("kind", &r.kind)
                    .str("winner", &r.winner)
                    .f64("best_s", r.best_seconds)
                    .u64("candidates", r.candidates as u64)
                    .u64("measured", r.measured as u64)
                    .finish(),
            );
            out.push('\n');
        }
        out
    }

    /// Fig. 13 rows: per-app best speedup per strategy.
    pub fn fig13_lines(rows: &[Fig13Row]) -> String {
        let mut out = String::new();
        for r in rows {
            out.push_str(
                &JsonObject::new()
                    .str("figure", "fig13")
                    .str("app", &r.app)
                    .f64("thread_only", r.thread_only)
                    .f64("block_only", r.block_only)
                    .f64("combined", r.combined)
                    .finish(),
            );
            out.push('\n');
        }
        out
    }

    /// Speedup-grid rows (Fig. 14/15): one object per cell, `null` speedup
    /// for illegal/pruned configurations.
    pub fn grid_lines(
        figure: &str,
        row_key: &str,
        col_key: &str,
        row_keys: &[i64],
        col_keys: &[i64],
        matrix: &[Vec<Option<f64>>],
    ) -> String {
        let mut out = String::new();
        for (&r, row) in row_keys.iter().zip(matrix) {
            for (&c, v) in col_keys.iter().zip(row) {
                out.push_str(
                    &JsonObject::new()
                        .str("figure", figure)
                        .i64(row_key, r)
                        .i64(col_key, c)
                        .opt_f64("speedup", *v)
                        .finish(),
                );
                out.push('\n');
            }
        }
        out
    }

    /// Table I rows: one object per evaluation target.
    pub fn table1_lines() -> String {
        let mut out = String::new();
        for t in respec::targets::all_targets() {
            out.push_str(
                &JsonObject::new()
                    .str("figure", "table1")
                    .str("gpu", t.name)
                    .str("vendor", &format!("{:?}", t.vendor))
                    .u64("sms", t.sm_count as u64)
                    .f64("fp64_flops", t.fp64_flops)
                    .f64("fp32_flops", t.fp32_flops)
                    .f64("dram_bw", t.dram_bw)
                    .u64("global_bytes", t.global_bytes)
                    .u64("l2_bytes", t.l2_bytes)
                    .u64("l1_bytes", t.l1_bytes)
                    .finish(),
            );
            out.push('\n');
        }
        out
    }

    /// Table II rows: lud profiling counters per configuration.
    pub fn table2_lines(rows: &[ProfileRow]) -> String {
        let mut out = String::new();
        for r in rows {
            out.push_str(
                &JsonObject::new()
                    .str("figure", "table2")
                    .str("config", &r.label)
                    .f64("runtime_s", r.runtime)
                    .f64("lsu_util", r.lsu_util)
                    .f64("fma_util", r.fma_util)
                    .u64("l2_l1_read_bytes", r.l2_l1_read)
                    .u64("l1_l2_write_bytes", r.l1_l2_write)
                    .u64("l1_sm_read_req", r.l1_sm_read_req)
                    .u64("sm_l1_write_req", r.sm_l1_write_req)
                    .u64("shmem_read_req", r.shmem_read_req)
                    .u64("shmem_write_req", r.shmem_write_req)
                    .finish(),
            );
            out.push('\n');
        }
        out
    }

    /// Fig. 16 rows: composite seconds per app × target × pipeline.
    pub fn fig16_lines(rows: &[Fig16Row]) -> String {
        let mut out = String::new();
        for r in rows {
            out.push_str(
                &JsonObject::new()
                    .str("figure", "fig16")
                    .str("app", &r.app)
                    .str("target", &r.target)
                    .f64("clang_s", r.clang)
                    .f64("pg_s", r.pg)
                    .f64("pg_opt_s", r.pg_opt)
                    .f64("speedup_pg", r.clang / r.pg)
                    .f64("speedup_pg_opt", r.clang / r.pg_opt)
                    .finish(),
            );
            out.push('\n');
        }
        out
    }

    /// Interpreter-throughput rows (`BENCH_interp.json` baseline):
    /// warp-level issues per host second, scalar vs warp-vectorized, so
    /// interpreter changes have a perf trajectory to compare against.
    pub fn interp_throughput_lines(rows: &[InterpThroughputRow]) -> String {
        let mut out = String::new();
        for r in rows {
            out.push_str(
                &JsonObject::new()
                    .str("figure", "interp_throughput")
                    .str("app", &r.app)
                    .u64("total_issues", r.total_issues)
                    .f64("scalar_s", r.scalar_seconds)
                    .f64("warp_s", r.warp_seconds)
                    .f64("scalar_ops_per_sec", r.scalar_ops_per_sec())
                    .f64("warp_ops_per_sec", r.warp_ops_per_sec())
                    .f64("speedup", r.speedup())
                    .finish(),
            );
            out.push('\n');
        }
        out
    }

    /// Fig. 17 rows: cross-vendor composite comparison.
    pub fn fig17_lines(rows: &[(String, f64, f64, f64)]) -> String {
        let mut out = String::new();
        for (app, base, pg_a4000, pg_rx) in rows {
            out.push_str(
                &JsonObject::new()
                    .str("figure", "fig17")
                    .str("app", app)
                    .f64("a4000_clang_s", *base)
                    .f64("a4000_pg_s", *pg_a4000)
                    .f64("rx6800_pg_s", *pg_rx)
                    .f64("speedup_a4000_pg", base / pg_a4000)
                    .f64("speedup_rx6800_pg", base / pg_rx)
                    .finish(),
            );
            out.push('\n');
        }
        out
    }
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
        let (identity, best) = strategy_best(pf.as_ref(), &t, Strategy::Combined, &[1, 2]);
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
        assert_json_lines(&jsonout::table1_lines(), "table1");

        let rows = fig13_data(Workload::Small, &[1, 2]);
        let lines = jsonout::fig13_lines(&rows);
        assert_json_lines(&lines, "fig13");
        assert_eq!(lines.lines().count(), rows.len());

        let blocks = [1i64, 2];
        let threads = [1i64, 2];
        let matrix = fig14_data(Workload::Small, &blocks, &threads);
        let lines = jsonout::grid_lines(
            "fig14",
            "block_total",
            "thread_total",
            &blocks,
            &threads,
            &matrix,
        );
        assert_json_lines(&lines, "fig14");
        assert_eq!(lines.lines().count(), blocks.len() * threads.len());

        let rows = table2_data(Workload::Small);
        assert_json_lines(&jsonout::table2_lines(&rows), "table2");
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

    #[test]
    fn interp_throughput_rows_are_json_clean() {
        let rows = interp_throughput_data(Workload::Small, 1);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.total_issues > 0, "{} executed no instructions", r.app);
            assert!(r.scalar_seconds > 0.0 && r.warp_seconds > 0.0);
            assert!(r.scalar_ops_per_sec() > 0.0 && r.warp_ops_per_sec() > 0.0);
        }
        assert_json_lines(
            &jsonout::interp_throughput_lines(&rows),
            "interp_throughput",
        );
    }
}
