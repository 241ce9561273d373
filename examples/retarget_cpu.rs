//! CPU retargeting demo: the same CUDA source tuned for a simulated
//! multicore CPU and for the A100, through the *same* facade entry path.
//!
//! For CPU targets the tuner lowers every coarsened candidate with the
//! GPU-to-CPU pass — thread-parallel loops become SIMD-lane-strided tile
//! loops, shared memory becomes core-local scratch, barriers become loop
//! fission — so the coarsening factors the search explores act as per-core
//! tile sizes. The winning configurations diverge from the GPU's.
//!
//! ```sh
//! cargo run --example retarget_cpu
//! ```

use respec::prelude::*;
use respec::Function;

const SOURCE: &str = r#"
__global__ void smooth(float* out, float* in, int n) {
    __shared__ float tile[128];
    int tx = threadIdx.x;
    int i = blockIdx.x * blockDim.x + tx;
    tile[tx] = (i < n) ? in[i] : 0.0f;
    __syncthreads();
    float left = (tx > 0) ? tile[tx - 1] : tile[tx];
    float right = (tx < 127) ? tile[tx + 1] : tile[tx];
    if (i < n) out[i] = 0.25f * left + 0.5f * tile[tx] + 0.25f * right;
}
"#;

fn tune_on(target: std::sync::Arc<dyn TargetModel>) -> Result<TuneResult, Error> {
    let n = 1 << 12;
    let mut compiled = Compiler::new()
        .source(SOURCE)
        .kernel("smooth", [128, 1, 1])
        .target_model(target.clone())
        .compile()?;
    compiled.autotune_pooled("smooth", &TuneOptions::serial().totals(&[1, 2, 4]), || {
        |func: &Function, regs| {
            let mut sim = GpuSim::for_model(target.as_ref());
            let input: Vec<f32> = (0..n).map(|i| (i % 13) as f32).collect();
            let ib = sim.mem.alloc_f32(&input);
            let ob = sim.mem.alloc_f32(&vec![0.0; n]);
            let grid = (n as i64) / 128;
            let report = sim.launch(
                func,
                [grid, 1, 1],
                &[
                    KernelArg::Buf(ob),
                    KernelArg::Buf(ib),
                    KernelArg::I32(n as i32),
                ],
                regs,
            )?;
            Ok(report.kernel_seconds)
        }
    })
}

fn main() -> Result<(), Error> {
    println!("same CUDA source, one GPU and two CPUs — same tuning entry path:\n");
    println!(
        "{:<14} {:>5} {:>6} {:>8} {:>14} {:>12}",
        "target", "kind", "lanes", "units", "winner", "time(µs)"
    );
    for name in ["a100", "cpu-desktop8", "cpu-server64"] {
        let target = targets::by_name(name).expect("registry covers every built-in target");
        let (kind, lanes, units) = (
            target.kind().tag(),
            target.exec_width(),
            target.desc().sm_count,
        );
        let result = tune_on(target)?;
        println!(
            "{:<14} {:>5} {:>6} {:>8} {:>14} {:>12.2}",
            name,
            kind,
            lanes,
            units,
            result.best_config.to_string(),
            result.best_seconds * 1e6
        );
    }
    println!("\nThe CPU winners are per-core tile shapes: the lowering turns the");
    println!("128-wide thread loop into SIMD-lane-strided tiles and the barrier");
    println!("into loop fission, so bigger coarsening amortizes loop overhead");
    println!("where the GPU prefers more resident blocks instead.");
    Ok(())
}
