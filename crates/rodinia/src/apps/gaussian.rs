//! `gaussian` — Gaussian elimination.
//!
//! The paper's poster child for block coarsening (§VII-C): the kernels run
//! in blocks of 16 threads with low arithmetic intensity and significant
//! divergence, failing to fill even one warp; block coarsening makes each
//! thread perform more work.

use respec_frontend::KernelSpec;
use respec_ir::Module;
use respec_sim::{GpuSim, KernelArg, SimError};

use crate::framework::{ceil_div, random_f32, App, Kernel, Workload};

const SOURCE: &str = r#"
__global__ void fan1(float* m, float* a, int size, int t) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= size - 1 - t) return;
    int row = i + t + 1;
    m[row * size + t] = a[row * size + t] / a[t * size + t];
}

__global__ void fan2(float* m, float* a, float* b, int size, int t) {
    int x = blockIdx.x * blockDim.x + threadIdx.x;
    int y = blockIdx.y * blockDim.y + threadIdx.y;
    if (x >= size - t) return;
    if (y >= size - 1 - t) return;
    int row = y + t + 1;
    int col = x + t;
    a[row * size + col] = a[row * size + col] - m[row * size + t] * a[t * size + col];
    if (col == t) {
        b[row] = b[row] - m[row * size + t] * b[t];
    }
}
"#;

/// The `gaussian` application.
#[derive(Clone, Debug)]
pub struct Gaussian {
    size: usize,
}

impl Gaussian {
    /// Creates the app at the given workload.
    pub fn new(workload: Workload) -> Gaussian {
        Gaussian {
            size: match workload {
                Workload::Small => 48,
                Workload::Large => 256,
            },
        }
    }

    fn inputs(&self) -> (Vec<f32>, Vec<f32>) {
        let n = self.size;
        let mut a = random_f32(11, n * n);
        // Diagonal dominance keeps pivot-free elimination stable.
        for i in 0..n {
            a[i * n + i] += n as f32;
        }
        let b = random_f32(12, n);
        (a, b)
    }
}

impl App for Gaussian {
    fn name(&self) -> &'static str {
        "gaussian"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn specs(&self) -> Vec<KernelSpec> {
        vec![
            KernelSpec::new("fan1", [16, 1, 1]),
            KernelSpec::new("fan2", [16, 16, 1]),
        ]
    }

    fn main_kernel(&self) -> &'static str {
        "fan2"
    }

    fn run(&self, sim: &mut GpuSim, module: &Module) -> Result<Vec<f64>, SimError> {
        let n = self.size;
        let (a, b) = self.inputs();
        let ab = sim.mem.alloc_f32(&a);
        let bb = sim.mem.alloc_f32(&b);
        let mb = sim.mem.alloc_f32(&vec![0.0; n * n]);
        let fan1 = Kernel::new(sim, module, "fan1");
        let fan2 = Kernel::new(sim, module, "fan2");
        for t in 0..n - 1 {
            let rows = (n - 1 - t) as i64;
            let g1 = ceil_div(rows, 16).max(1);
            fan1.launch(
                sim,
                [g1, 1, 1],
                &[
                    KernelArg::Buf(mb),
                    KernelArg::Buf(ab),
                    KernelArg::I32(n as i32),
                    KernelArg::I32(t as i32),
                ],
            )?;
            let cols = (n - t) as i64;
            let g2x = ceil_div(cols, 16).max(1);
            let g2y = ceil_div(rows, 16).max(1);
            fan2.launch(
                sim,
                [g2x, g2y, 1],
                &[
                    KernelArg::Buf(mb),
                    KernelArg::Buf(ab),
                    KernelArg::Buf(bb),
                    KernelArg::I32(n as i32),
                    KernelArg::I32(t as i32),
                ],
            )?;
        }
        // Back substitution on the host (part of the composite measurement
        // scope, but not simulated GPU time).
        let a_out = sim.mem.read_f32(ab);
        let b_out = sim.mem.read_f32(bb);
        let mut x = vec![0.0f32; n];
        for i in (0..n).rev() {
            let mut sum = b_out[i];
            for j in i + 1..n {
                sum -= a_out[i * n + j] * x[j];
            }
            x[i] = sum / a_out[i * n + i];
        }
        Ok(x.into_iter().map(|v| v as f64).collect())
    }

    fn reference(&self) -> Vec<f64> {
        let n = self.size;
        let (a, b) = self.inputs();
        let mut a: Vec<f64> = a.into_iter().map(|v| v as f64).collect();
        let mut b: Vec<f64> = b.into_iter().map(|v| v as f64).collect();
        for t in 0..n - 1 {
            for row in t + 1..n {
                let m = a[row * n + t] / a[t * n + t];
                for col in t..n {
                    a[row * n + col] -= m * a[t * n + col];
                }
                b[row] -= m * b[t];
            }
        }
        let mut x = vec![0.0f64; n];
        for i in (0..n).rev() {
            let mut sum = b[i];
            for j in i + 1..n {
                sum -= a[i * n + j] * x[j];
            }
            x[i] = sum / a[i * n + i];
        }
        x
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
    fn gaussian_matches_reference() {
        verify_app(
            &Gaussian::new(Workload::Small),
            respec_sim::targets::a4000(),
        )
        .unwrap();
    }
}
