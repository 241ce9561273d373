//! `hotspot` — 2-D transient thermal simulation.
//!
//! A tiled stencil with shared-memory staging; iterated kernel launches
//! with ping-pong buffers make it a good composite-measurement benchmark.

use respec_frontend::KernelSpec;
use respec_ir::Module;
use respec_sim::{GpuSim, KernelArg, SimError};

use crate::framework::{random_f32, App, Kernel, Workload};

const SOURCE: &str = r#"
#define BS 16

__global__ void hotspot_kernel(float* power, float* src, float* dst, int cols, int rows,
                               float step_div_cap, float rx_inv, float ry_inv, float rz_inv,
                               float amb) {
    __shared__ float tile[BS][BS];
    int tx = threadIdx.x;
    int ty = threadIdx.y;
    int col = blockIdx.x * BS + tx;
    int row = blockIdx.y * BS + ty;
    int idx = row * cols + col;
    tile[ty][tx] = src[idx];
    __syncthreads();
    float c = tile[ty][tx];
    float n = (ty == 0) ? ((row == 0) ? c : src[idx - cols]) : tile[ty - 1][tx];
    float s = (ty == BS - 1) ? ((row == rows - 1) ? c : src[idx + cols]) : tile[ty + 1][tx];
    float w = (tx == 0) ? ((col == 0) ? c : src[idx - 1]) : tile[ty][tx - 1];
    float e = (tx == BS - 1) ? ((col == cols - 1) ? c : src[idx + 1]) : tile[ty][tx + 1];
    float delta = step_div_cap * (power[idx]
        + (e + w - 2.0f * c) * rx_inv
        + (n + s - 2.0f * c) * ry_inv
        + (amb - c) * rz_inv);
    dst[idx] = c + delta;
}
"#;

/// The `hotspot` application.
#[derive(Clone, Debug)]
pub struct Hotspot {
    size: usize,
    steps: usize,
}

impl Hotspot {
    /// Creates the app at the given workload.
    pub fn new(workload: Workload) -> Hotspot {
        match workload {
            Workload::Small => Hotspot { size: 64, steps: 4 },
            Workload::Large => Hotspot {
                size: 256,
                steps: 16,
            },
        }
    }

    fn params(&self) -> (f32, f32, f32, f32, f32) {
        // step/cap, 1/rx, 1/ry, 1/rz, ambient
        (0.05, 0.1, 0.1, 0.033, 80.0)
    }

    fn inputs(&self) -> (Vec<f32>, Vec<f32>) {
        let n = self.size * self.size;
        let temp: Vec<f32> = random_f32(31, n)
            .into_iter()
            .map(|v| 320.0 + 10.0 * v)
            .collect();
        let power: Vec<f32> = random_f32(32, n).into_iter().map(|v| v * 0.5).collect();
        (temp, power)
    }
}

impl App for Hotspot {
    fn name(&self) -> &'static str {
        "hotspot"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn specs(&self) -> Vec<KernelSpec> {
        vec![KernelSpec::new("hotspot_kernel", [16, 16, 1])]
    }

    fn main_kernel(&self) -> &'static str {
        "hotspot_kernel"
    }

    fn run(&self, sim: &mut GpuSim, module: &Module) -> Result<Vec<f64>, SimError> {
        let n = self.size;
        let (temp, power) = self.inputs();
        let (sdc, rx, ry, rz, amb) = self.params();
        let pb = sim.mem.alloc_f32(&power);
        let mut src = sim.mem.alloc_f32(&temp);
        let mut dst = sim.mem.alloc_f32(&vec![0.0; n * n]);
        let kernel = Kernel::new(sim, module, "hotspot_kernel");
        let g = (n / 16) as i64;
        for _ in 0..self.steps {
            kernel.launch(
                sim,
                [g, g, 1],
                &[
                    KernelArg::Buf(pb),
                    KernelArg::Buf(src),
                    KernelArg::Buf(dst),
                    KernelArg::I32(n as i32),
                    KernelArg::I32(n as i32),
                    KernelArg::F32(sdc),
                    KernelArg::F32(rx),
                    KernelArg::F32(ry),
                    KernelArg::F32(rz),
                    KernelArg::F32(amb),
                ],
            )?;
            std::mem::swap(&mut src, &mut dst);
        }
        Ok(sim
            .mem
            .read_f32(src)
            .into_iter()
            .map(|v| v as f64)
            .collect())
    }

    fn reference(&self) -> Vec<f64> {
        let n = self.size;
        let (temp, power) = self.inputs();
        let (sdc, rx, ry, rz, amb) = self.params();
        let mut src: Vec<f32> = temp;
        let mut dst = vec![0.0f32; n * n];
        for _ in 0..self.steps {
            for row in 0..n {
                for col in 0..n {
                    let idx = row * n + col;
                    let c = src[idx];
                    let up = if row == 0 { c } else { src[idx - n] };
                    let down = if row == n - 1 { c } else { src[idx + n] };
                    let left = if col == 0 { c } else { src[idx - 1] };
                    let right = if col == n - 1 { c } else { src[idx + 1] };
                    let delta = sdc
                        * (power[idx]
                            + (right + left - 2.0 * c) * rx
                            + (up + down - 2.0 * c) * ry
                            + (amb - c) * rz);
                    dst[idx] = c + delta;
                }
            }
            std::mem::swap(&mut src, &mut dst);
        }
        src.into_iter().map(|v| v as f64).collect()
    }

    fn tolerance(&self) -> f64 {
        1e-2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::verify_app;

    #[test]
    fn hotspot_matches_reference() {
        verify_app(&Hotspot::new(Workload::Small), respec_sim::targets::a4000()).unwrap();
    }
}
