//! GPU-sim ↔ CPU-sim differential.
//!
//! The GPU-to-CPU lowering is a pure scheduling transformation: barriers
//! become loop fission, the thread loop becomes SIMD-lane-strided tiles,
//! shared memory becomes core-local scratch — but every output element is
//! still produced by the same arithmetic on the same inputs in the same
//! barrier-delimited phase order. So for every Rodinia app the lowered
//! module must produce *bit-identical* outputs on a CPU descriptor in
//! the simulator, and the lowered IR must pass the static race/divergence
//! gate (the fission is only legal because the kernels are race-free).

use respec::opt::{lower_module_to_cpu, CpuLoweringParams};
use respec::sim::TargetModel;
use respec::{targets, GpuSim};
use respec_bench::{compiled_module, Pipeline};
use respec_rodinia::{all_apps_sized, Workload};

#[test]
fn every_app_is_bit_identical_on_gpu_and_cpu_sims() {
    for app in all_apps_sized(Workload::Small) {
        let module = compiled_module(app.as_ref(), Pipeline::PolygeistNoOpt);
        let mut gpu_sim = GpuSim::new(targets::a100());
        let gpu_out = app.run(&mut gpu_sim, &module).expect("gpu run");
        for cpu in targets::all_cpu_targets() {
            let lowered = lower_module_to_cpu(
                &module,
                &CpuLoweringParams {
                    lanes: i64::from(cpu.exec_width()),
                },
            );
            let mut cpu_sim = GpuSim::for_model(&cpu);
            let cpu_out = app.run(&mut cpu_sim, &lowered).expect("cpu run");
            let ctx = format!("{} on {}", app.name(), cpu.name());
            assert_eq!(
                gpu_out.len(),
                cpu_out.len(),
                "output length diverged: {ctx}"
            );
            for (i, (g, c)) in gpu_out.iter().zip(&cpu_out).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    c.to_bits(),
                    "output[{i}] diverged: {ctx} (gpu {g}, cpu {c})"
                );
            }
        }
    }
}

#[test]
fn reduced_cpu_tuning_sweep_elects_a_valid_winner() {
    let totals = [1, 2];
    for app in all_apps_sized(Workload::Small).into_iter().take(3) {
        for cpu in targets::all_cpu_targets() {
            let (module, result) = respec_bench::tuned_module_with(
                app.as_ref(),
                &cpu,
                respec::Strategy::Combined,
                &totals,
                &respec::TuneOptions::serial(),
            );
            let ctx = format!("{} on {}", app.name(), cpu.name());
            let result = result.unwrap_or_else(|| panic!("no winner: {ctx}"));
            assert!(result.best_seconds > 0.0, "winner unmeasured: {ctx}");
            assert!(
                result.candidates.iter().any(|c| c.seconds.is_some()),
                "nothing measured: {ctx}"
            );
            // The installed winner (the lowered tiled form) still drives the
            // whole app correctly on the CPU simulator.
            let mut sim = GpuSim::for_model(&cpu);
            app.run(&mut sim, &module)
                .unwrap_or_else(|e| panic!("tuned module fails: {ctx}: {e:?}"));
        }
    }
}

#[test]
fn lowered_modules_pass_the_race_and_divergence_gate() {
    let cpu = targets::cpu_desktop8();
    let params = CpuLoweringParams {
        lanes: i64::from(cpu.exec_width()),
    };
    for app in all_apps_sized(Workload::Small) {
        let module = compiled_module(app.as_ref(), Pipeline::PolygeistNoOpt);
        let lowered = lower_module_to_cpu(&module, &params);
        for func in lowered.functions() {
            respec::ir::verify_function(func).unwrap_or_else(|e| {
                panic!("{}/{}: lowered IR invalid: {e}", app.name(), func.name())
            });
        }
        let report = respec::analyze::analyze_module(&lowered);
        let errors: Vec<_> = report.errors().collect();
        assert!(
            errors.is_empty(),
            "{}: lowered module fails the gate: {:?}",
            app.name(),
            errors
        );
    }
}
