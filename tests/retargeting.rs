//! CUDA→AMD retargeting tests (§VII-D): the same IR compiled against the
//! AMD descriptors must run correctly, schedule in 64-wide wavefronts, and
//! reflect the hardware asymmetries of Table I (fp64 throughput, small L1).

use respec::{targets, Compiler, GpuSim, KernelArg};
use respec_rodinia::{all_apps, compile_app, Kernel};

const FP64_KERNEL: &str = r#"
__global__ void daxpy_heavy(double* y, double* x, double a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        double acc = y[i];
        for (int k = 0; k < 64; k++) {
            acc = acc * 0.999 + a * x[i];
        }
        y[i] = acc;
    }
}
"#;

#[test]
fn same_source_runs_on_all_four_targets() {
    for target in targets::all_targets() {
        let compiled = Compiler::new()
            .source(FP64_KERNEL)
            .kernel("daxpy_heavy", [128, 1, 1])
            .target(target.clone())
            .compile()
            .expect("compiles");
        let mut sim = compiled.simulator();
        let y = sim.mem.alloc_f64(&vec![1.0; 512]);
        let x = sim.mem.alloc_f64(&vec![0.5; 512]);
        compiled
            .launch(
                &mut sim,
                "daxpy_heavy",
                [4, 1, 1],
                &[
                    KernelArg::Buf(y),
                    KernelArg::Buf(x),
                    KernelArg::F64(2.0),
                    KernelArg::I32(512),
                ],
            )
            .unwrap_or_else(|e| panic!("launch failed on {}: {e}", target.name));
        let out = sim.mem.read_f64(y);
        assert!(
            (out[0] - out[511]).abs() < 1e-12,
            "uniform input ⇒ uniform output"
        );
        assert!(out[0] > 1.0);
    }
}

#[test]
fn amd_schedules_wavefronts_of_64() {
    let run = |target| {
        let compiled = Compiler::new()
            .source(FP64_KERNEL)
            .kernel("daxpy_heavy", [128, 1, 1])
            .target(target)
            .compile()
            .expect("compiles");
        let mut sim = compiled.simulator();
        let y = sim.mem.alloc_f64(&vec![1.0; 1024]);
        let x = sim.mem.alloc_f64(&vec![0.5; 1024]);
        compiled
            .launch(
                &mut sim,
                "daxpy_heavy",
                [8, 1, 1],
                &[
                    KernelArg::Buf(y),
                    KernelArg::Buf(x),
                    KernelArg::F64(2.0),
                    KernelArg::I32(1024),
                ],
            )
            .expect("launches")
    };
    let nv = run(targets::a100());
    let amd = run(targets::mi210());
    assert_eq!(nv.stats.warps, 8 * 4, "128 threads = 4 warps of 32");
    assert_eq!(amd.stats.warps, 8 * 2, "128 threads = 2 wavefronts of 64");
    // Warp-level instruction issues roughly halve on 64-wide wavefronts.
    assert!(
        (amd.stats.total_issues() as f64) < 0.75 * nv.stats.total_issues() as f64,
        "wider wavefronts issue fewer warp instructions: {} vs {}",
        amd.stats.total_issues(),
        nv.stats.total_issues()
    );
}

#[test]
fn fp64_work_favors_the_fp64_rich_amd_hpc_part() {
    // The paper observes particlefilter/lavaMD/hotspot3D run relatively
    // better on AMD due to fp64 throughput (§VII-D2). Compare a consumer
    // pair: RX6800 has ~1.7x the fp64 FLOPs of the A4000.
    let apps = all_apps();
    let lavamd = apps
        .iter()
        .find(|a| a.name() == "lavaMD")
        .expect("registered");
    let time_on = |target| {
        let module = compile_app(lavamd.as_ref()).expect("compiles");
        let mut sim = GpuSim::new(target);
        lavamd.as_ref().run(&mut sim, &module).expect("runs");
        sim.elapsed_seconds
    };
    let a4000 = time_on(targets::a4000());
    let rx6800 = time_on(targets::rx6800());
    assert!(
        rx6800 < a4000,
        "fp64-heavy lavaMD should be faster on the fp64-richer RX6800 ({rx6800:.2e}s vs {a4000:.2e}s)"
    );
}

#[test]
fn hpc_gpus_beat_consumer_gpus_on_bandwidth_bound_work() {
    let apps = all_apps();
    let nn = apps.iter().find(|a| a.name() == "nn").expect("registered");
    let time_on = |target| {
        let module = compile_app(nn.as_ref()).expect("compiles");
        let mut sim = GpuSim::new(target);
        nn.as_ref().run(&mut sim, &module).expect("runs");
        sim.elapsed_seconds
    };
    let a4000 = time_on(targets::a4000());
    let a100 = time_on(targets::a100());
    assert!(
        a100 < a4000,
        "nn is bandwidth-bound; the A100 (1555 GB/s) must beat the A4000 (445 GB/s): {a100:.2e} vs {a4000:.2e}"
    );
}

#[test]
fn launch_geometry_is_target_independent() {
    // Retargeting requires no source or launch changes: identical grids and
    // arguments on both vendors, identical results.
    let compiled_nv = Compiler::new()
        .source(FP64_KERNEL)
        .kernel("daxpy_heavy", [128, 1, 1])
        .target(targets::a4000())
        .compile()
        .expect("compiles");
    let compiled_amd = Compiler::new()
        .source(FP64_KERNEL)
        .kernel("daxpy_heavy", [128, 1, 1])
        .target(targets::rx6800())
        .compile()
        .expect("compiles");
    // The device IR is byte-identical; only the target descriptor differs.
    assert_eq!(
        compiled_nv.kernel("daxpy_heavy").to_string(),
        compiled_amd.kernel("daxpy_heavy").to_string(),
        "retargeting happens at the descriptor level, not in the IR"
    );
    let _ = Kernel::new; // referenced to assert the helper stays public API
}
