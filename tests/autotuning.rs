//! Timing-driven optimization tests (§VI, §VII-B): the TDO pipeline must
//! measure candidates, prune infeasible ones, and — the paper's headline —
//! the combined block+thread strategy must never lose to thread-only.

use respec::{
    candidate_configs, targets, tune_kernel_pooled, Compiler, Function, GpuSim, KernelArg,
    Strategy, Trace, TuneOptions,
};
use respec_rodinia::{all_apps, compile_app, max_abs_err};

/// Tunes an app's main kernel by substituting candidates into the module
/// and measuring the composite simulated time.
fn tune_app_sized(
    name: &str,
    strategy: Strategy,
    totals: &[i64],
    workload: respec_rodinia::Workload,
) -> (f64, f64, respec::CoarsenConfig) {
    let apps = respec_rodinia::all_apps_sized(workload);
    let app = apps
        .iter()
        .find(|a| a.name() == name)
        .expect("app registered");
    let module = compile_app(app.as_ref()).expect("compiles");
    let kernel_name = app.main_kernel().to_string();
    let func = module.function(&kernel_name).expect("main kernel").clone();
    let target = targets::a100();
    let launches = respec::ir::kernel::analyze_function(&func).expect("kernel shape");
    let configs = candidate_configs(strategy, totals, &launches[0].block_dims);
    let reference = app.reference();
    let result = tune_kernel_pooled(
        &func,
        &target,
        &configs,
        &TuneOptions::serial(),
        || {
            |version: &Function, _regs| {
                let mut m = module.clone();
                m.add_function(version.clone());
                let mut sim = GpuSim::new(targets::a100());
                let out = app.run(&mut sim, &m)?;
                // Fold the paper's output verification into TDO runs.
                assert!(
                    max_abs_err(&out, &reference) <= app.tolerance(),
                    "tuned variant of {name} produced wrong output"
                );
                // Kernel-scope objective with the paper's short-run filter
                // (§VII-A): drop the shrinking-grid tail relative to the largest
                // launch of the kernel.
                let max = sim
                    .launch_log
                    .iter()
                    .filter(|t| t.kernel == kernel_name)
                    .map(|t| t.seconds)
                    .fold(0.0f64, f64::max);
                Ok(sim.kernel_seconds_above(&kernel_name, max * 0.25))
            }
        },
        &Trace::disabled(),
    )
    .expect("tuning succeeds");
    let identity = result
        .candidates
        .iter()
        .find(|c| c.config.is_identity())
        .and_then(|c| c.seconds)
        .expect("identity was measured");
    (identity, result.best_seconds, result.best_config)
}

fn tune_app(name: &str, strategy: Strategy, totals: &[i64]) -> (f64, f64, respec::CoarsenConfig) {
    tune_app_sized(name, strategy, totals, respec_rodinia::Workload::Small)
}

#[test]
fn combined_never_loses_to_thread_only_on_lud() {
    let totals = [1, 2, 4];
    let (_, thread_best, _) = tune_app("lud", Strategy::ThreadOnly, &totals);
    let (identity, combined_best, cfg) = tune_app("lud", Strategy::Combined, &totals);
    assert!(
        combined_best <= thread_best + 1e-12,
        "combined ({combined_best:.3e}s with {cfg}) must be at least as good as thread-only ({thread_best:.3e}s)"
    );
    assert!(
        combined_best <= identity + 1e-12,
        "TDO never selects a slower config"
    );
}

#[test]
fn tdo_improves_gaussian_kernel() {
    // gaussian's fan2 runs in 16x16 blocks over a large grid, flooding the
    // scheduler with tiny low-intensity blocks; block coarsening must find
    // a faster configuration (§VII-C). Measured at the paper's Fig. 13
    // scope: kernel time at the representative (t = 0) launch geometry of a
    // 1024-point system — the composite at our scaled-down sizes is
    // dominated by the shrinking-grid tail, which the paper's full-size
    // runs do not see.
    let apps = all_apps();
    let app = apps
        .iter()
        .find(|a| a.name() == "gaussian")
        .expect("registered");
    let module = compile_app(app.as_ref()).expect("compiles");
    let func = module.function("fan2").expect("fan2 kernel").clone();
    let target = targets::a100();
    let n = 1024i32;
    let configs = candidate_configs(Strategy::Combined, &[1, 2, 4], &[16, 16, 1]);
    let result = tune_kernel_pooled(
        &func,
        &target,
        &configs,
        &TuneOptions::serial(),
        || {
            |version: &Function, regs| {
                let mut sim = GpuSim::new(targets::a100());
                let m = sim.mem.alloc_f32(&vec![0.5; (n * n) as usize]);
                let a = sim.mem.alloc_f32(&vec![1.0; (n * n) as usize]);
                let b = sim.mem.alloc_f32(&vec![1.0; n as usize]);
                let g = (n as i64) / 16;
                let report = sim.launch(
                    version,
                    [g, g, 1],
                    &[
                        KernelArg::Buf(m),
                        KernelArg::Buf(a),
                        KernelArg::Buf(b),
                        KernelArg::I32(n),
                        KernelArg::I32(0),
                    ],
                    regs,
                )?;
                Ok(report.kernel_seconds)
            }
        },
        &Trace::disabled(),
    )
    .expect("tuning succeeds");
    let identity = result
        .candidates
        .iter()
        .find(|c| c.config.is_identity())
        .and_then(|c| c.seconds)
        .expect("identity measured");
    assert!(
        result.best_seconds < identity,
        "expected a fan2 kernel speedup, got best {:.3e}s (cfg {}) vs identity {identity:.3e}s",
        result.best_seconds,
        result.best_config
    );
    assert!(
        result.best_config.block_total() > 1,
        "the gaussian win should come from block coarsening, got {}",
        result.best_config
    );
}

#[test]
fn spill_pruning_protects_register_heavy_kernels() {
    // A kernel with a huge live set: high coarsening factors must be
    // pruned by the backend's spill estimate rather than measured.
    let mut src = String::from(
        "__global__ void fat(float* out, float* in) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
",
    );
    for k in 0..40 {
        src.push_str(&format!("            float v{k} = in[i + {k}];\n"));
    }
    src.push_str("            float acc = 0.0f;\n");
    for k in 0..40 {
        src.push_str(&format!("            acc += v{k} * v{k};\n"));
    }
    src.push_str("            out[i] = acc;\n        }\n");
    let compiled = Compiler::new()
        .source(&src)
        .kernel("fat", [64, 1, 1])
        .target(targets::a100())
        .optimizer(false)
        .compile()
        .expect("compiles");
    let func = compiled.kernel("fat").clone();
    let target = targets::a100();
    let configs = candidate_configs(Strategy::ThreadOnly, &[1, 8, 16, 32], &[64, 1, 1]);
    let result = tune_kernel_pooled(
        &func,
        &target,
        &configs,
        &TuneOptions::serial(),
        || {
            |version: &Function, regs| {
                let mut sim = GpuSim::new(targets::a100());
                let out = sim.mem.alloc_f32(&vec![0.0; 4096 + 64]);
                let inp = sim.mem.alloc_f32(&vec![1.0; 4096 + 64]);
                Ok(sim
                    .launch(
                        version,
                        [64, 1, 1],
                        &[KernelArg::Buf(out), KernelArg::Buf(inp)],
                        regs,
                    )?
                    .kernel_seconds)
            }
        },
        &Trace::disabled(),
    )
    .expect("tuning succeeds");
    let spill_pruned = result
        .candidates
        .iter()
        .filter(|c| matches!(c.pruned, Some(respec::tune::PruneReason::Spill { .. })))
        .count();
    assert!(
        spill_pruned >= 1,
        "x32 coarsening of a 40-value live set must trip the spill filter: {:#?}",
        result
            .candidates
            .iter()
            .map(|c| (c.config, c.pruned.clone()))
            .collect::<Vec<_>>()
    );
}

#[test]
fn tuning_reports_are_complete() {
    let (_, _, _) = tune_app("pathfinder", Strategy::BlockOnly, &[1, 2]);
}
