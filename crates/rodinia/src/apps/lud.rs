//! `lud` — blocked LU decomposition.
//!
//! The paper's in-depth case study (Fig. 14, Fig. 15, Table II): 16×16
//! tiles, three kernels (`lud_diagonal`, `lud_perimeter`, `lud_internal`)
//! with shared-memory staging and barriers. `lud_internal` dominates and is
//! the target of the combined block/thread coarsening analysis, with the
//! famous prime block factor of 7.

use respec_frontend::KernelSpec;
use respec_ir::Module;
use respec_sim::{GpuSim, KernelArg, SimError};

use crate::framework::{random_f32, App, Kernel, Workload};

const SOURCE: &str = r#"
#define BS 16

__global__ void lud_diagonal(float* m, int size, int offset) {
    __shared__ float shadow[BS][BS];
    int tx = threadIdx.x;
    for (int i = 0; i < BS; i++) {
        shadow[i][tx] = m[(offset + i) * size + offset + tx];
    }
    __syncthreads();
    for (int i = 0; i < BS - 1; i++) {
        if (tx > i) {
            shadow[tx][i] = shadow[tx][i] / shadow[i][i];
            for (int j = i + 1; j < BS; j++) {
                shadow[tx][j] = shadow[tx][j] - shadow[tx][i] * shadow[i][j];
            }
        }
        __syncthreads();
    }
    for (int i = 0; i < BS; i++) {
        m[(offset + i) * size + offset + tx] = shadow[i][tx];
    }
}

__global__ void lud_perimeter(float* m, int size, int offset) {
    __shared__ float dia[BS][BS];
    __shared__ float peri_row[BS][BS];
    __shared__ float peri_col[BS][BS];
    int bx = blockIdx.x;
    int tx = threadIdx.x;
    int idx = tx % BS;
    int half = tx / BS;
    for (int i = 0; i < 8; i++) {
        int r = (tx * 8 + i) / BS;
        int c = (tx * 8 + i) % BS;
        dia[r][c] = m[(offset + r) * size + offset + c];
        peri_row[r][c] = m[(offset + r) * size + offset + (bx + 1) * BS + c];
        peri_col[r][c] = m[(offset + (bx + 1) * BS + r) * size + offset + c];
    }
    __syncthreads();
    if (half == 0) {
        for (int i = 1; i < BS; i++) {
            float sum = 0.0f;
            for (int j = 0; j < i; j++) {
                sum += dia[i][j] * peri_row[j][idx];
            }
            peri_row[i][idx] = peri_row[i][idx] - sum;
        }
    } else {
        for (int i = 0; i < BS; i++) {
            float sum = 0.0f;
            for (int j = 0; j < i; j++) {
                sum += peri_col[idx][j] * dia[j][i];
            }
            peri_col[idx][i] = (peri_col[idx][i] - sum) / dia[i][i];
        }
    }
    __syncthreads();
    for (int i = 0; i < 8; i++) {
        int r = (tx * 8 + i) / BS;
        int c = (tx * 8 + i) % BS;
        m[(offset + r) * size + offset + (bx + 1) * BS + c] = peri_row[r][c];
        m[(offset + (bx + 1) * BS + r) * size + offset + c] = peri_col[r][c];
    }
}

__global__ void lud_internal(float* m, int size, int offset) {
    __shared__ float peri_row[BS][BS];
    __shared__ float peri_col[BS][BS];
    int bx = blockIdx.x;
    int by = blockIdx.y;
    int tx = threadIdx.x;
    int ty = threadIdx.y;
    int g_row = offset + (by + 1) * BS + ty;
    int g_col = offset + (bx + 1) * BS + tx;
    peri_row[ty][tx] = m[(offset + ty) * size + g_col];
    peri_col[ty][tx] = m[g_row * size + offset + tx];
    __syncthreads();
    float sum = 0.0f;
    for (int i = 0; i < BS; i++) {
        sum += peri_col[ty][i] * peri_row[i][tx];
    }
    m[g_row * size + g_col] = m[g_row * size + g_col] - sum;
}
"#;

/// The `lud` application.
#[derive(Clone, Debug)]
pub struct Lud {
    size: usize,
}

impl Lud {
    /// Creates the app at the given workload.
    pub fn new(workload: Workload) -> Lud {
        Lud {
            size: match workload {
                Workload::Small => 64,
                Workload::Large => 256,
            },
        }
    }

    /// Creates the app with an explicit matrix size (multiple of 16).
    pub fn with_size(size: usize) -> Lud {
        assert_eq!(
            size % 16,
            0,
            "lud matrices are multiples of the 16-wide tile"
        );
        Lud { size }
    }

    /// Matrix size.
    pub fn size(&self) -> usize {
        self.size
    }

    fn input(&self) -> Vec<f32> {
        let n = self.size;
        let mut a = random_f32(21, n * n);
        for i in 0..n {
            a[i * n + i] += n as f32;
        }
        a
    }
}

impl App for Lud {
    fn name(&self) -> &'static str {
        "lud"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn specs(&self) -> Vec<KernelSpec> {
        vec![
            KernelSpec::new("lud_diagonal", [16, 1, 1]),
            KernelSpec::new("lud_perimeter", [32, 1, 1]),
            KernelSpec::new("lud_internal", [16, 16, 1]),
        ]
    }

    fn main_kernel(&self) -> &'static str {
        "lud_internal"
    }

    fn run(&self, sim: &mut GpuSim, module: &Module) -> Result<Vec<f64>, SimError> {
        let n = self.size;
        let a = self.input();
        let mb = sim.mem.alloc_f32(&a);
        let diagonal = Kernel::new(sim, module, "lud_diagonal");
        let perimeter = Kernel::new(sim, module, "lud_perimeter");
        let internal = Kernel::new(sim, module, "lud_internal");
        let nb = n / 16;
        for step in 0..nb {
            let offset = (step * 16) as i32;
            let args = [
                KernelArg::Buf(mb),
                KernelArg::I32(n as i32),
                KernelArg::I32(offset),
            ];
            diagonal.launch(sim, [1, 1, 1], &args)?;
            let rest = (nb - step - 1) as i64;
            if rest > 0 {
                perimeter.launch(sim, [rest, 1, 1], &args)?;
                internal.launch(sim, [rest, rest, 1], &args)?;
            }
        }
        Ok(sim.mem.read_f32(mb).into_iter().map(|v| v as f64).collect())
    }

    fn reference(&self) -> Vec<f64> {
        let n = self.size;
        let mut a: Vec<f64> = self.input().into_iter().map(|v| v as f64).collect();
        // In-place Doolittle LU without pivoting (same factorization the
        // blocked kernels compute).
        for k in 0..n {
            for i in k + 1..n {
                a[i * n + k] /= a[k * n + k];
                for j in k + 1..n {
                    a[i * n + j] -= a[i * n + k] * a[k * n + j];
                }
            }
        }
        a
    }

    fn tolerance(&self) -> f64 {
        5e-2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::verify_app;

    #[test]
    fn lud_matches_reference() {
        verify_app(&Lud::new(Workload::Small), respec_sim::targets::a100()).unwrap();
    }

    #[test]
    fn lud_shared_memory_is_12_bytes_per_thread() {
        // The paper: "lud, containing a kernel that uses 12 bytes of shared
        // memory per thread" — perimeter: 3 tiles over 256... our perimeter
        // blocks have 32 threads and 3 KiB: the *internal* kernel has 2
        // tiles over 256 threads = 8 B/thread; diagonal 1 tile over 16.
        let app = Lud::new(Workload::Small);
        let module = crate::framework::compile_app(&app).unwrap();
        let internal = module.function("lud_internal").unwrap();
        let launch = respec_ir::kernel::analyze_function(internal)
            .unwrap()
            .remove(0);
        assert_eq!(launch.shared_bytes(internal), 2 * 16 * 16 * 4);
        assert_eq!(launch.threads_per_block(), 256);
    }
}
