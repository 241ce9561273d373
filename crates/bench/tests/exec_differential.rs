//! Scalar ↔ warp-vectorized execution differential.
//!
//! The warp-vectorized interpreter is a pure performance rewrite of the
//! scalar one: for every Rodinia app and every coarsening shape, both
//! backends must produce bit-identical timing estimates and identical
//! execution counters, and the tuning engine must pick the same winner at
//! the same simulated time regardless of which backend measured it.

use respec::opt::{coarsen_function, lower_module_to_cpu, CpuLoweringParams};
use respec::sim::{ExecMode, TargetDesc, TargetModel};
use respec::{targets, tune_kernel_pooled, CoarsenConfig, GpuSim, Strategy};
use respec::{Trace, TuneOptions};
use respec_bench::{compiled_module, Pipeline};
use respec_rodinia::{all_apps_sized, all_apps_with_gemm, Workload};

/// Coarsening shapes spanning the rewrite space: identity, thread-only,
/// block-only, and combined.
fn shapes() -> Vec<CoarsenConfig> {
    [[1, 1], [2, 1], [1, 2], [2, 2]]
        .iter()
        .map(|&[b, t]| CoarsenConfig {
            block: [b, 1, 1],
            thread: [t, 1, 1],
        })
        .collect()
}

/// One machine of the differential: its simulator description, the shapes
/// it runs, and the SIMD width to lower the module for (CPU targets only).
struct Machine {
    desc: TargetDesc,
    shapes: Vec<CoarsenConfig>,
    cpu_lanes: Option<i64>,
}

/// a100 (32 lanes) over every shape; mi210 (64 lanes) and the CPU-lowered
/// module on cpu-server64 (16 lanes) over the identity and `[2,2]` shapes.
fn machines() -> Vec<Machine> {
    let ends = || {
        let all = shapes();
        vec![all[0], all[3]]
    };
    let cpu = targets::cpu_server64();
    vec![
        Machine {
            desc: targets::a100(),
            shapes: shapes(),
            cpu_lanes: None,
        },
        Machine {
            desc: targets::mi210(),
            shapes: ends(),
            cpu_lanes: None,
        },
        Machine {
            desc: cpu.sim_desc(),
            shapes: ends(),
            cpu_lanes: Some(i64::from(cpu.exec_width())),
        },
    ]
}

#[test]
fn scalar_and_vectorized_runs_are_bit_identical() {
    for machine in machines() {
        for app in all_apps_sized(Workload::Small) {
            let base = compiled_module(app.as_ref(), Pipeline::PolygeistNoOpt);
            let name = app.main_kernel().to_string();
            for &cfg in &machine.shapes {
                let mut module = base.clone();
                let mut func = module.function(&name).expect("main kernel").clone();
                if coarsen_function(&mut func, cfg).is_err() {
                    continue; // shape illegal for this kernel — nothing to compare
                }
                module.add_function(func);
                if let Some(lanes) = machine.cpu_lanes {
                    module = lower_module_to_cpu(&module, &CpuLoweringParams { lanes });
                }
                let run = |mode: ExecMode| {
                    let mut sim = GpuSim::new(machine.desc.clone());
                    sim.set_exec_mode(mode);
                    app.run(&mut sim, &module).expect("app runs");
                    sim
                };
                let scalar = run(ExecMode::Scalar);
                let warp = run(ExecMode::WarpVectorized);
                let ctx = format!("{} {:?} on {}", app.name(), cfg, machine.desc.name);
                assert_eq!(
                    scalar.launch_log.len(),
                    warp.launch_log.len(),
                    "launch count diverged: {ctx}"
                );
                for (s, w) in scalar.launch_log.iter().zip(&warp.launch_log) {
                    assert_eq!(s.kernel, w.kernel, "launch order diverged: {ctx}");
                    assert_eq!(
                        s.seconds.to_bits(),
                        w.seconds.to_bits(),
                        "timing estimate diverged on {}: {ctx}",
                        s.kernel
                    );
                    assert_eq!(s.stats, w.stats, "counters diverged on {}: {ctx}", s.kernel);
                }
                assert_eq!(
                    scalar.elapsed_seconds.to_bits(),
                    warp.elapsed_seconds.to_bits(),
                    "composite time diverged: {ctx}"
                );
            }
        }
    }
}

/// The traffic finding behind the lane-mask executor, pinned: every
/// divergence the 16 Small apps produce is at a maskable `if`/`for`, so no
/// warp falls back to lane-by-lane execution. A kernel that falls off the fast
/// path shows up here.
#[test]
fn no_small_app_despools_a_warp() {
    let cpu = targets::cpu_server64();
    let lanes = i64::from(cpu.exec_width());
    for app in all_apps_with_gemm(Workload::Small) {
        let module = compiled_module(app.as_ref(), Pipeline::PolygeistNoOpt);
        let lowered = lower_module_to_cpu(&module, &CpuLoweringParams { lanes });
        for (desc, module) in [(targets::a100(), &module), (cpu.sim_desc(), &lowered)] {
            let mut sim = GpuSim::new(desc);
            app.run(&mut sim, module).expect("app runs");
            let exec = sim.exec_counters();
            assert!(exec.warp_phases > 0, "{}: {exec:?}", app.name());
            assert_eq!(
                exec.despooled_warps,
                0,
                "{} on {}: {exec:?}",
                app.name(),
                sim.target.name
            );
        }
    }
}

#[test]
fn tuning_winner_is_independent_of_execution_mode() {
    let target = targets::a100();
    let totals = [1, 2];
    for app in all_apps_sized(Workload::Small).into_iter().take(3) {
        let module = compiled_module(app.as_ref(), Pipeline::PolygeistNoOpt);
        let name = app.main_kernel().to_string();
        let func = module.function(&name).expect("main kernel").clone();
        let launches = respec::ir::kernel::analyze_function(&func).expect("kernel shape");
        let configs =
            respec::candidate_configs(Strategy::Combined, &totals, &launches[0].block_dims);
        let tune = |mode: ExecMode| {
            tune_kernel_pooled(
                &func,
                &target,
                &configs,
                &TuneOptions::serial(),
                || {
                    let (app, module, target, name) = (&app, &module, &target, &name);
                    move |version: &respec::Function, _regs: u32| {
                        let mut m = module.clone();
                        m.add_function(version.clone());
                        let mut sim = GpuSim::new(target.clone());
                        sim.set_exec_mode(mode);
                        app.run(&mut sim, &m)?;
                        Ok(respec_bench::filtered_kernel_seconds(&sim, name))
                    }
                },
                &Trace::disabled(),
            )
            .expect("search completes")
        };
        let scalar = tune(ExecMode::Scalar);
        let warp = tune(ExecMode::WarpVectorized);
        assert_eq!(scalar.best_config, warp.best_config, "{}", app.name());
        assert_eq!(
            scalar.best_seconds.to_bits(),
            warp.best_seconds.to_bits(),
            "{}",
            app.name()
        );
        assert_eq!(scalar.stats, warp.stats, "{}", app.name());
    }
}
