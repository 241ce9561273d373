//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. *Indexing style* (Fig. 11 of the paper): coalescing-friendly strided
//!    thread-coarsening indexing vs naive contiguous indexing.
//! 2. *Epilogue kernels* (§V-C): divisor-only block factors vs arbitrary
//!    factors (including the primes the paper found optimal).
//! 3. *Occupancy feedback*: how register pressure degrades the latency
//!    bound — the reason the spill filter exists.
//! 4. *Parallel-representation LICM* (§VII-C): the lavaMD effect.

use respec::ir::kernel::analyze_function;
use respec::opt::{optimize, unroll_interleave, CoarsenConfig, IndexingStyle};
use respec::{targets, Compiler, GpuSim, KernelArg, TuneOptions};
use respec_bench::{composite_seconds, lud_config_seconds, Pipeline};
use respec_rodinia::{all_apps_sized, Workload};

const COALESCED: &str = r#"
__global__ void copy_scale(float* out, float* in) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    out[i] = in[i] * 2.0f;
}
"#;

fn indexing_ablation() {
    println!("== ablation 1: thread-coarsening indexing style (Fig. 11) ==");
    let n = 1 << 16;
    let mut results = Vec::new();
    for (label, style) in [
        ("strided (coalescing-friendly)", IndexingStyle::Strided),
        ("contiguous (naive)", IndexingStyle::Contiguous),
    ] {
        let compiled = Compiler::new()
            .source(COALESCED)
            .kernel("copy_scale", [256, 1, 1])
            .target(targets::a100())
            .optimizer(false)
            .compile()
            .expect("compiles");
        let mut func = compiled.kernel("copy_scale").clone();
        let launch = analyze_function(&func).expect("kernel shape").remove(0);
        unroll_interleave(&mut func, launch.thread_par, [4, 1, 1], style).expect("legal");
        optimize(&mut func);
        let mut sim = GpuSim::new(targets::a100());
        let src = sim.mem.alloc_f32(&vec![1.0; n]);
        let dst = sim.mem.alloc_f32(&vec![0.0; n]);
        let report = sim
            .launch(
                &func,
                [(n / 256) as i64, 1, 1],
                &[KernelArg::Buf(dst), KernelArg::Buf(src)],
                32,
            )
            .expect("launches");
        println!(
            "  {label:<32} read sectors {:>8}  load requests {:>8}  time {:>8.2} µs",
            report.stats.read_sectors,
            report.stats.global_load_requests,
            report.kernel_seconds * 1e6
        );
        results.push(report.stats.read_sectors);
    }
    assert!(
        results[0] <= results[1],
        "strided indexing must not read more sectors than contiguous"
    );
    println!();
}

fn epilogue_ablation() {
    println!("== ablation 2: divisor-only vs arbitrary block factors (epilogue kernels, §V-C) ==");
    let apps = all_apps_sized(Workload::Large);
    let lud = apps
        .iter()
        .find(|a| a.name() == "lud")
        .expect("lud registered");
    let target = targets::a4000();
    let measure = |factors: &[i64]| -> (i64, f64) {
        let mut best = (1, f64::INFINITY);
        for &f in factors {
            if let Some(s) = lud_config_seconds(
                lud.as_ref(),
                &target,
                CoarsenConfig {
                    block: [f, 1, 1],
                    thread: [1, 1, 1],
                },
            ) {
                if s < best.1 {
                    best = (f, s);
                }
            }
        }
        best
    };
    // Power-of-two ladder (what divisor-restricted coarsening can reach on
    // a dynamic grid) vs every factor (epilogue kernels make them legal).
    let (df, dt) = measure(&[1, 2, 4, 8]);
    let (af, at) = measure(&[1, 2, 3, 4, 5, 6, 7, 8]);
    println!("  divisor-ladder best : factor {df} at {:.2} µs", dt * 1e6);
    println!("  arbitrary best      : factor {af} at {:.2} µs", at * 1e6);
    assert!(
        at <= dt,
        "the richer factor set can only improve the optimum"
    );
    println!();
}

const LATENCY_KERNEL: &str = r#"
__global__ void gather_chain(float* out, float* in, int* idx, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        float acc = 0.0f;
        int p = i;
        for (int k = 0; k < 16; k++) {
            p = idx[p];
            acc = acc + in[p];
        }
        out[i] = acc;
    }
}
"#;

fn occupancy_ablation() {
    println!("== ablation 3: register pressure vs latency hiding (spill-filter rationale) ==");
    // A dependent gather chain: time is latency-bound, so resident-warp
    // count (set by register pressure) directly controls it.
    let compiled = Compiler::new()
        .source(LATENCY_KERNEL)
        .kernel("gather_chain", [256, 1, 1])
        .target(targets::a100())
        .compile()
        .expect("compiles");
    let func = compiled.kernel("gather_chain").clone();
    let n = 1 << 15;
    // A scattered permutation so every hop misses coalescing and caches.
    let perm: Vec<i32> = (0..n)
        .map(|i| ((i as i64 * 7919 + 13) % n as i64) as i32)
        .collect();
    let mut times = Vec::new();
    for regs in [32u32, 128, 255] {
        let mut sim = GpuSim::new(targets::a100());
        let src = sim.mem.alloc_f32(&vec![1.0; n]);
        let idx = sim.mem.alloc_i32(&perm);
        let dst = sim.mem.alloc_f32(&vec![0.0; n]);
        let report = sim
            .launch(
                &func,
                [(n / 256) as i64, 1, 1],
                &[
                    KernelArg::Buf(dst),
                    KernelArg::Buf(src),
                    KernelArg::Buf(idx),
                    KernelArg::I32(n as i32),
                ],
                regs,
            )
            .expect("launches");
        println!(
            "  {regs:>3} regs/thread: occupancy {:>3.0}% (limiter: {}), exposed latency {:>9.0} cycles, time {:>8.2} µs",
            report.occupancy.occupancy * 100.0,
            report.occupancy.limiter,
            report.timing.latency_cycles,
            report.kernel_seconds * 1e6
        );
        times.push(report.timing.latency_cycles);
    }
    assert!(
        times[2] >= 1.8 * times[0],
        "register pressure must shrink resident warps and expose latency (the spill-filter rationale)"
    );
    println!();
}

fn licm_ablation() {
    println!("== ablation 4: parallel-representation LICM (the lavaMD effect, §VII-C) ==");
    // Shared-memory request counts drop when the legacy kernel's redundant
    // inner-loop loads are hoisted; on fp64-light targets this also shows
    // up as time.
    let apps = all_apps_sized(Workload::Small);
    let lavamd = apps
        .iter()
        .find(|a| a.name() == "lavaMD")
        .expect("registered");
    let target = targets::a100();
    let mut shared_reads = Vec::new();
    for pipeline in [Pipeline::Clang, Pipeline::PolygeistNoOpt] {
        let module = respec_bench::compiled_module(lavamd.as_ref(), pipeline);
        let mut sim = GpuSim::new(target.clone());
        lavamd.run(&mut sim, &module).expect("runs");
        let stats = sim.total_stats();
        println!(
            "  lavaMD {:<8} shared reads {:>10}  composite {:.3e} s",
            pipeline.label(),
            stats.shared_read_requests,
            sim.elapsed_seconds
        );
        shared_reads.push(stats.shared_read_requests);
    }
    assert!(
        shared_reads[1] < shared_reads[0],
        "LICM must hoist the legacy kernel's redundant shared loads"
    );
    let name = "srad_v1";
    let app = apps.iter().find(|a| a.name() == name).expect("registered");
    // Neither pipeline tunes, so the worker count is moot.
    let composite = |p| composite_seconds(app.as_ref(), &target, p, &[1], &TuneOptions::serial());
    let (clang, pg) = (
        composite(Pipeline::Clang),
        composite(Pipeline::PolygeistNoOpt),
    );
    println!(
        "  {name:<10} clang {:.3e} s   P-G {:.3e} s   ratio {:.3}x",
        clang,
        pg,
        clang / pg
    );
    println!();
}

fn main() {
    indexing_ablation();
    epilogue_ablation();
    occupancy_ablation();
    licm_ablation();
}
