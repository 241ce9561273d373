//! `gemm` — tiled dense matrix multiply (C = A × B).
//!
//! Not part of the paper's 15-app Rodinia evaluation; added as the
//! workload family for the fat-binary experiments. The kernel is the
//! classic 16×16 shared-memory tiled SGEMM, parameterized over M×N×K, so
//! its tuning space (block/thread coarsening over a 2D tile) exercises the
//! tiling × coarsening × vector-width axes the variant miner selects over.

use respec_frontend::KernelSpec;
use respec_ir::Module;
use respec_sim::{GpuSim, KernelArg, SimError};

use crate::framework::{random_f32, App, Kernel, Workload};

const SOURCE: &str = r#"
#define TS 16

__global__ void gemm_tiled(float* a, float* b, float* c, int m, int n, int k) {
    __shared__ float atile[TS][TS];
    __shared__ float btile[TS][TS];
    int tx = threadIdx.x;
    int ty = threadIdx.y;
    int row = blockIdx.y * TS + ty;
    int col = blockIdx.x * TS + tx;
    float sum = 0.0f;
    for (int t = 0; t < k / TS; t++) {
        atile[ty][tx] = a[row * k + t * TS + tx];
        btile[ty][tx] = b[(t * TS + ty) * n + col];
        __syncthreads();
        for (int i = 0; i < TS; i++) {
            sum += atile[ty][i] * btile[i][tx];
        }
        __syncthreads();
    }
    c[row * n + col] = sum;
}
"#;

/// The `gemm` application: C(M×N) = A(M×K) × B(K×N), all dimensions
/// multiples of the 16-wide tile.
#[derive(Clone, Debug)]
pub struct Gemm {
    m: usize,
    n: usize,
    k: usize,
}

impl Gemm {
    /// Creates the app at the given workload (square problems).
    pub fn new(workload: Workload) -> Gemm {
        let d = match workload {
            Workload::Small => 64,
            Workload::Large => 256,
        };
        Gemm { m: d, n: d, k: d }
    }

    /// Creates the app with explicit dimensions (each a multiple of 16).
    pub fn with_dims(m: usize, n: usize, k: usize) -> Gemm {
        assert!(
            m.is_multiple_of(16) && n.is_multiple_of(16) && k.is_multiple_of(16),
            "gemm dimensions are multiples of the 16-wide tile"
        );
        Gemm { m, n, k }
    }

    /// Problem dimensions `(m, n, k)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.m, self.n, self.k)
    }

    fn inputs(&self) -> (Vec<f32>, Vec<f32>) {
        // Centered on zero so dot products stay O(√k) and the f32 kernel
        // tracks the f64 reference tightly even at large K.
        let center = |v: Vec<f32>| -> Vec<f32> { v.into_iter().map(|x| x - 0.5).collect() };
        (
            center(random_f32(31, self.m * self.k)),
            center(random_f32(32, self.k * self.n)),
        )
    }
}

impl App for Gemm {
    fn name(&self) -> &'static str {
        "gemm"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn specs(&self) -> Vec<KernelSpec> {
        vec![KernelSpec::new("gemm_tiled", [16, 16, 1])]
    }

    fn main_kernel(&self) -> &'static str {
        "gemm_tiled"
    }

    fn run(&self, sim: &mut GpuSim, module: &Module) -> Result<Vec<f64>, SimError> {
        let (m, n, k) = (self.m, self.n, self.k);
        let (a, b) = self.inputs();
        let ab = sim.mem.alloc_f32(&a);
        let bb = sim.mem.alloc_f32(&b);
        let cb = sim.mem.alloc_f32(&vec![0.0; m * n]);
        let func = Kernel::new(sim, module, "gemm_tiled");
        let args = [
            KernelArg::Buf(ab),
            KernelArg::Buf(bb),
            KernelArg::Buf(cb),
            KernelArg::I32(m as i32),
            KernelArg::I32(n as i32),
            KernelArg::I32(k as i32),
        ];
        func.launch(sim, [(n / 16) as i64, (m / 16) as i64, 1], &args)?;
        Ok(sim.mem.read_f32(cb).into_iter().map(|v| v as f64).collect())
    }

    fn reference(&self) -> Vec<f64> {
        let (m, n, k) = (self.m, self.n, self.k);
        let (a, b) = self.inputs();
        let mut c = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut sum = 0.0f64;
                for l in 0..k {
                    sum += a[i * k + l] as f64 * b[l * n + j] as f64;
                }
                c[i * n + j] = sum;
            }
        }
        c
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
    fn gemm_matches_reference() {
        verify_app(&Gemm::new(Workload::Small), respec_sim::targets::a100()).unwrap();
    }

    #[test]
    fn gemm_rectangular_matches_reference() {
        verify_app(&Gemm::with_dims(32, 64, 48), respec_sim::targets::rx6800()).unwrap();
    }

    #[test]
    #[should_panic(expected = "multiples of the 16-wide tile")]
    fn gemm_rejects_untiled_dims() {
        let _ = Gemm::with_dims(30, 64, 48);
    }
}
