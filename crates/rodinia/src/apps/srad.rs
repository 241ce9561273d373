//! `srad_v1` — speckle-reducing anisotropic diffusion.
//!
//! Two kernels per iteration: a shared-memory tree `reduce` for the image
//! statistics (the kernel whose codegen differences the paper analyzes in
//! §VII-C) and the 2-D diffusion stencil.

use respec_frontend::KernelSpec;
use respec_ir::Module;
use respec_sim::{GpuSim, KernelArg, SimError};

use crate::framework::{ceil_div, random_f32, App, Kernel, Workload};

const SOURCE: &str = r#"
#define RBS 128
#define BS 16

__global__ void srad_reduce(float* img, float* sums, float* sums2, int n) {
    __shared__ float psum[RBS];
    __shared__ float psum2[RBS];
    int tx = threadIdx.x;
    int i = blockIdx.x * RBS + tx;
    float v = (i < n) ? img[i] : 0.0f;
    psum[tx] = v;
    psum2[tx] = v * v;
    __syncthreads();
    for (int d = 0; d < 7; d++) {
        int s = 1 << d;
        int idx = 2 * s * tx;
        if (idx + s < RBS) {
            psum[idx] = psum[idx] + psum[idx + s];
            psum2[idx] = psum2[idx] + psum2[idx + s];
        }
        __syncthreads();
    }
    if (tx == 0) {
        sums[blockIdx.x] = psum[0];
        sums2[blockIdx.x] = psum2[0];
    }
}

__global__ void srad_kernel(float* img, float* out, int rows, int cols, float q0s, float lambda) {
    int tx = threadIdx.x;
    int ty = threadIdx.y;
    int col = blockIdx.x * BS + tx;
    int row = blockIdx.y * BS + ty;
    int idx = row * cols + col;
    float jc = img[idx];
    float jn = (row == 0) ? jc : img[idx - cols];
    float js = (row == rows - 1) ? jc : img[idx + cols];
    float jw = (col == 0) ? jc : img[idx - 1];
    float je = (col == cols - 1) ? jc : img[idx + 1];
    float dn = jn - jc;
    float ds = js - jc;
    float dw = jw - jc;
    float de = je - jc;
    float g2 = (dn * dn + ds * ds + dw * dw + de * de) / (jc * jc);
    float l = (dn + ds + dw + de) / jc;
    float num = 0.5f * g2 - 0.0625f * l * l;
    float den = 1.0f + 0.25f * l;
    float qsqr = num / (den * den);
    float cden = (qsqr - q0s) / (q0s * (1.0f + q0s));
    float c = 1.0f / (1.0f + cden);
    c = max(0.0f, min(1.0f, c));
    out[idx] = jc + 0.25f * lambda * c * (dn + ds + dw + de);
}
"#;

/// The `srad_v1` application.
#[derive(Clone, Debug)]
pub struct SradV1 {
    rows: usize,
    cols: usize,
    iters: usize,
}

impl SradV1 {
    /// Creates the app at the given workload.
    pub fn new(workload: Workload) -> SradV1 {
        match workload {
            Workload::Small => SradV1 {
                rows: 64,
                cols: 64,
                iters: 2,
            },
            Workload::Large => SradV1 {
                rows: 256,
                cols: 256,
                iters: 6,
            },
        }
    }

    fn input(&self) -> Vec<f32> {
        random_f32(71, self.rows * self.cols)
            .into_iter()
            .map(|v| (v * 0.8 + 0.1).exp())
            .collect()
    }
}

impl App for SradV1 {
    fn name(&self) -> &'static str {
        "srad_v1"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn specs(&self) -> Vec<KernelSpec> {
        vec![
            KernelSpec::new("srad_reduce", [128, 1, 1]),
            KernelSpec::new("srad_kernel", [16, 16, 1]),
        ]
    }

    fn main_kernel(&self) -> &'static str {
        "srad_kernel"
    }

    fn run(&self, sim: &mut GpuSim, module: &Module) -> Result<Vec<f64>, SimError> {
        let n = self.rows * self.cols;
        let lambda = 0.5f32;
        let mut src = sim.mem.alloc_f32(&self.input());
        let mut dst = sim.mem.alloc_f32(&vec![0.0; n]);
        let rblocks = ceil_div(n as i64, 128);
        let sb = sim.mem.alloc_f32(&vec![0.0; rblocks as usize]);
        let s2b = sim.mem.alloc_f32(&vec![0.0; rblocks as usize]);
        let reduce = Kernel::new(sim, module, "srad_reduce");
        let main = Kernel::new(sim, module, "srad_kernel");
        for _ in 0..self.iters {
            reduce.launch(
                sim,
                [rblocks, 1, 1],
                &[
                    KernelArg::Buf(src),
                    KernelArg::Buf(sb),
                    KernelArg::Buf(s2b),
                    KernelArg::I32(n as i32),
                ],
            )?;
            let sums = sim.mem.read_f32(sb);
            let sums2 = sim.mem.read_f32(s2b);
            let total: f32 = sums.iter().sum();
            let total2: f32 = sums2.iter().sum();
            let mean = total / n as f32;
            let var = total2 / n as f32 - mean * mean;
            let q0s = var / (mean * mean);
            main.launch(
                sim,
                [(self.cols / 16) as i64, (self.rows / 16) as i64, 1],
                &[
                    KernelArg::Buf(src),
                    KernelArg::Buf(dst),
                    KernelArg::I32(self.rows as i32),
                    KernelArg::I32(self.cols as i32),
                    KernelArg::F32(q0s),
                    KernelArg::F32(lambda),
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
        let (rows, cols) = (self.rows, self.cols);
        let n = rows * cols;
        let lambda = 0.5f32;
        let mut src = self.input();
        let mut dst = vec![0.0f32; n];
        for _ in 0..self.iters {
            // Reduction in the same blocked tree order as the kernel.
            let mut total = 0.0f32;
            let mut total2 = 0.0f32;
            for b in 0..n.div_ceil(128) {
                let mut vals = [0.0f32; 128];
                let mut vals2 = [0.0f32; 128];
                for t in 0..128 {
                    let i = b * 128 + t;
                    let v = if i < n { src[i] } else { 0.0 };
                    vals[t] = v;
                    vals2[t] = v * v;
                }
                let mut s = 1;
                while s < 128 {
                    let mut idx = 0;
                    while idx + s < 128 {
                        vals[idx] += vals[idx + s];
                        vals2[idx] += vals2[idx + s];
                        idx += 2 * s;
                    }
                    s *= 2;
                }
                total += vals[0];
                total2 += vals2[0];
            }
            let mean = total / n as f32;
            let var = total2 / n as f32 - mean * mean;
            let q0s = var / (mean * mean);
            for row in 0..rows {
                for col in 0..cols {
                    let idx = row * cols + col;
                    let jc = src[idx];
                    let jn = if row == 0 { jc } else { src[idx - cols] };
                    let js = if row == rows - 1 { jc } else { src[idx + cols] };
                    let jw = if col == 0 { jc } else { src[idx - 1] };
                    let je = if col == cols - 1 { jc } else { src[idx + 1] };
                    let (dn, ds, dw, de) = (jn - jc, js - jc, jw - jc, je - jc);
                    let g2 = (dn * dn + ds * ds + dw * dw + de * de) / (jc * jc);
                    let l = (dn + ds + dw + de) / jc;
                    let num = 0.5 * g2 - 0.0625 * l * l;
                    let den = 1.0 + 0.25 * l;
                    let qsqr = num / (den * den);
                    let cden = (qsqr - q0s) / (q0s * (1.0 + q0s));
                    let c = (1.0 / (1.0 + cden)).clamp(0.0, 1.0);
                    dst[idx] = jc + 0.25 * lambda * c * (dn + ds + dw + de);
                }
            }
            std::mem::swap(&mut src, &mut dst);
        }
        src.into_iter().map(|v| v as f64).collect()
    }

    fn tolerance(&self) -> f64 {
        1e-3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::verify_app;

    #[test]
    fn srad_matches_reference() {
        verify_app(&SradV1::new(Workload::Small), respec_sim::targets::a4000()).unwrap();
    }
}
